//! Order statistics over raw samples: exact percentiles, the tail
//! percentile a sample count supports, and the quartile spread used to
//! judge whether repeated runs agree.

/// The `q`-th percentile (`0..=100`) of `samples`, interpolating linearly
/// between the two closest ranks. `None` for an empty slice.
pub fn percentile(samples: &[f64], q: f64) -> Option<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        return None;
    }
    let pos = (q.clamp(0.0, 100.0) / 100.0) * (n - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    Some(v[lo] + (v[hi] - v[lo]) * (pos - lo as f64))
}

pub fn median(samples: &[f64]) -> Option<f64> {
    percentile(samples, 50.0)
}

/// Tail percentiles the benchmark may report, highest first.
pub const TAIL_LADDER: [f64; 8] = [99.9, 99.0, 98.0, 95.0, 90.0, 80.0, 75.0, 50.0];

/// Samples lying strictly above rank `q` of `n`.
pub fn samples_beyond(n: usize, q: f64) -> usize {
    // Multiply before dividing (and shave float dust) so exact ranks such
    // as 99% of 1000 land on 990, not 991.
    n - ((q * n as f64 / 100.0) - 1e-9).ceil().max(0.0) as usize
}

/// The percentile to report as the latency tail: `preferred` when `n`
/// samples leave at least ten beyond it, otherwise the highest rung of
/// [`TAIL_LADDER`] that does (the median as a last resort).
pub fn tail_percentile(n: usize, preferred: f64) -> f64 {
    if samples_beyond(n, preferred) >= 10 {
        return preferred;
    }
    TAIL_LADDER
        .iter()
        .copied()
        .find(|&q| q < preferred && samples_beyond(n, q) >= 10)
        .unwrap_or(50.0)
}

/// Completion rate in each of `k` consecutive blocks of equally many
/// events: `times` are ascending event times (seconds), `start` when the
/// first block began. A block's rate is its event count over the time from
/// the previous block's last event to its own last. Events past the last
/// whole block (the drain at a phase's end) are left out.
pub fn rate_blocks(times: &[f64], start: f64, k: usize) -> Vec<f64> {
    let b = times.len() / k.max(1);
    if b == 0 {
        return Vec::new();
    }
    (0..k)
        .filter_map(|j| {
            let t0 = if j == 0 { start } else { times[j * b - 1] };
            let t1 = times[(j + 1) * b - 1];
            (t1 > t0).then(|| b as f64 / (t1 - t0))
        })
        .collect()
}

/// The `q`-th percentile of each consecutive block of `block` samples
/// (in the order given); with fewer samples than one block, of all of them.
pub fn percentile_blocks(samples: &[f64], q: f64, block: usize) -> Vec<f64> {
    if samples.len() < block.max(1) {
        return percentile(samples, q).into_iter().collect();
    }
    samples.chunks_exact(block).filter_map(|c| percentile(c, q)).collect()
}

/// Quartiles exactly as Python's `statistics.quantiles(data, n=4)` gives
/// them (its default "exclusive" method). Needs at least two samples.
pub fn quartiles(samples: &[f64]) -> Option<[f64; 3]> {
    let mut d = samples.to_vec();
    d.sort_by(f64::total_cmp);
    let ld = d.len();
    if ld < 2 {
        return None;
    }
    let m = ld + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..4usize) {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (d[j - 1] * (4.0 - delta) + d[j] * delta) / 4.0;
    }
    Some(out)
}

/// Interquartile distance as a share of the median (the run-to-run spread
/// a metric's bound is judged against). `None` with fewer than two samples
/// or a zero median.
pub fn iqr_frac(samples: &[f64]) -> Option<f64> {
    let [q1, q2, q3] = quartiles(samples)?;
    (q2 != 0.0).then(|| (q3 - q1) / q2.abs())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_interpolate_between_ranks() {
        let v = [4.0, 1.0, 3.0, 2.0, 5.0];
        assert_eq!(percentile(&v, 50.0), Some(3.0));
        assert_eq!(percentile(&v, 0.0), Some(1.0));
        assert_eq!(percentile(&v, 100.0), Some(5.0));
        assert_eq!(percentile(&v, 25.0), Some(2.0));
        assert_eq!(percentile(&[1.0, 2.0], 50.0), Some(1.5));
        assert_eq!(percentile(&[], 50.0), None);
        assert_eq!(median(&[7.0]), Some(7.0));
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some([1.0, 2.0, 3.0]));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some([0.75, 1.5, 2.25]));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn iqr_is_a_share_of_the_median() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((iqr_frac(&v).unwrap() - 5.5 / 5.5).abs() < 1e-12);
        assert_eq!(iqr_frac(&[2.0; 10]), Some(0.0));
        assert_eq!(iqr_frac(&[0.0; 4]), None);
    }

    #[test]
    fn blocks_split_evenly_and_drop_the_tail() {
        // Events every 0.1 s from t = 0: 10/s in every block.
        let times: Vec<f64> = (1..=25).map(|i| f64::from(i) * 0.1).collect();
        let r = rate_blocks(&times, 0.0, 3);
        assert_eq!(r.len(), 3);
        assert!(r.iter().all(|x| (x - 10.0).abs() < 1e-9), "{r:?}");
        assert!(rate_blocks(&times[..2], 0.0, 3).is_empty());
        let v: Vec<f64> = (0..10).map(f64::from).collect();
        assert_eq!(percentile_blocks(&v, 100.0, 4), vec![3.0, 7.0]);
        assert_eq!(percentile_blocks(&v[..3], 50.0, 4), vec![1.0]);
    }

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond() {
        assert_eq!(samples_beyond(1000, 99.0), 10);
        assert_eq!(tail_percentile(1000, 99.0), 99.0);
        assert_eq!(tail_percentile(999, 99.0), 98.0);
        assert_eq!(tail_percentile(120, 99.0), 90.0);
        assert_eq!(tail_percentile(100, 90.0), 90.0);
        assert_eq!(tail_percentile(15, 90.0), 50.0);
    }
}
