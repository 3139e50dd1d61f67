//! Workload parameters and the seeded request schedules built from them.
//!
//! Everything a run sends is decided here, before timing starts: arrival
//! times, model choices, input picks, idempotency keys and resubmits. The
//! system under test only ever sees the generated requests.

use std::time::Duration;

use crate::json::Json;
use crate::rng::{Rng, Zipf};

/// The fixed parameters of one workload (stamped into every result).
#[derive(Debug, Clone, Copy)]
pub struct Params {
    pub name: &'static str,
    /// Worker shards of the in-process server.
    pub workers: usize,
    /// Stages of the whole-model pipeline.
    pub stages: usize,
    /// Open-loop Poisson arrival rate (req/s); `0.0` = no open-loop phase.
    pub open_rate: f64,
    /// Share of `--seconds` given to the open-loop phase (the rest runs
    /// the closed-loop / saturation phase).
    pub open_share: f64,
    /// Requests kept outstanding in the closed-loop / saturation phase,
    /// across all generator threads.
    pub window: usize,
    /// Latency limit behind `slo_attainment`.
    pub latency_limit_ms: f64,
    /// The percentile reported as `latency_tail_ms`, taken per block of
    /// consecutive requests just large enough to leave ten samples beyond
    /// it (100 requests at p90); the median block is reported. At p99.9 the
    /// block outgrows the phase, and the tail is the phase-wide highest
    /// percentile with ten samples beyond it. The open-loop workloads use
    /// p90 blocks: their phase-wide tail spread 0.47-0.83 (IQR/median over
    /// five seeds on a 2-vCPU VM) because every host stall lands in it,
    /// against 0.12-0.20 for the p90 block median.
    pub tail_percentile: f64,
    /// Zipf exponent of model popularity.
    pub zipf_s: f64,
    /// Seed of the fixed popularity ranking (which model is hot does not
    /// change with `--seed`, only the draws do).
    pub ranking_seed: u64,
    /// Distinct seeded input tensors per model.
    pub inputs_per_model: usize,
    /// Generator threads, each with its own connection where there is one.
    pub generators: usize,
    /// Share of requests that resubmit an earlier key whose reply arrived.
    pub resubmit_share: f64,
    /// A resubmit repeats the request this many sends back (inclusive
    /// range), on the same generator thread.
    pub resubmit_lag: (usize, usize),
    /// Admits stranded on a crashed journaled core and replayed at restart.
    pub stranded_admits: usize,
    /// Times the set-up is repeated per untraced run (median reported).
    pub setup_repeats: usize,
    pub default_seed: u64,
}

// Traffic values. Each open-loop rate is a third to two fifths of the
// workload's saturation `throughput_rps` as measured on a 2-vCPU x86 VM
// (medians of ten runs: serve-fast 4.0k-4.2k req/s, wire-journal
// 2.7k-3.1k req/s). At about a quarter of saturation (1000 and 750
// req/s) the open-loop p50 and tail read higher and spread wider run to
// run (serve-fast tail IQR/median 0.34 against 0.23), so the rates stay
// here.
// The Zipf exponent, the fixed ranking, the resubmit share and its lag
// are assumptions, not taken from a measured request trace.

/// Admission queue bound of the server and the pipeline, in place of the
/// default 256. It holds several seconds of open-loop arrivals, so a host
/// stall shows as latency rather than as refused requests: with 256, a
/// 1.5 s stall of the open-loop phase overflowed the queue.
pub const QUEUE_CAPACITY: usize = 8192;

pub const SERVE_FAST: Params = Params {
    name: "serve-fast",
    workers: 2,
    stages: 4,
    open_rate: 1500.0,
    open_share: 0.5,
    window: 16,
    latency_limit_ms: 20.0,
    tail_percentile: 90.0,
    zipf_s: 1.0,
    ranking_seed: 0x5EED_0001,
    inputs_per_model: 8,
    generators: 1,
    resubmit_share: 0.0,
    resubmit_lag: (0, 0),
    stranded_admits: 0,
    setup_repeats: 5,
    default_seed: 1,
};

/// The whole-model pipeline probe of `serve-fast`'s traced run:
/// MobileNetV1-0.25-32 as a 4-stage cycle-accurate
/// [`Pipeline`](npcgra_serve::Pipeline), closed loop, every stage busy.
///
/// The pipeline is probed rather than benchmarked end to end because its
/// wall-clock figures follow the host's speed more than any workload's do.
/// On a 2-vCPU VM, single inferences took 130 ms or 250 ms in episodes of
/// seconds while `serve-fast`'s open-loop p50 held steady. Ten runs of a
/// closed loop at a window of 4 spread up to 0.27 (throughput) and 0.33
/// (p50) IQR/median, and five runs at windows of 1 and 2 spread 0.13-0.20
/// and 0.17, against a bound of 0.25. Per-layer figures carry no bound.
pub const PIPELINE_PROBE: Params = Params {
    name: "pipeline-probe",
    workers: 2,
    stages: 4,
    open_rate: 0.0,
    open_share: 0.0,
    window: 4,
    latency_limit_ms: 1000.0,
    tail_percentile: 99.9,
    zipf_s: 0.0,
    ranking_seed: 0,
    inputs_per_model: 16,
    generators: 1,
    resubmit_share: 0.0,
    resubmit_lag: (0, 0),
    stranded_admits: 0,
    setup_repeats: 1,
    default_seed: 1,
};

pub const WIRE_JOURNAL: Params = Params {
    name: "wire-journal",
    workers: 2,
    stages: 4,
    open_rate: 1000.0,
    open_share: 0.5,
    window: 16,
    latency_limit_ms: 25.0,
    tail_percentile: 90.0,
    zipf_s: 1.0,
    ranking_seed: 0x5EED_0001,
    inputs_per_model: 8,
    generators: 2,
    resubmit_share: 0.1,
    resubmit_lag: (32, 256),
    stranded_admits: 64,
    setup_repeats: 5,
    default_seed: 1,
};

pub const ALL: [Params; 2] = [SERVE_FAST, WIRE_JOURNAL];

pub fn by_name(name: &str) -> Option<Params> {
    ALL.iter().copied().find(|p| p.name == name)
}

impl Params {
    pub fn stamp(&self) -> Json {
        Json::obj()
            .with("workers", self.workers)
            .with("queue_capacity", QUEUE_CAPACITY)
            .with("stages", self.stages)
            .with("open_rate_rps", self.open_rate)
            .with("open_share", self.open_share)
            .with("window", self.window)
            .with("latency_limit_ms", self.latency_limit_ms)
            .with("tail_percentile", self.tail_percentile)
            .with("zipf_s", self.zipf_s)
            .with("inputs_per_model", self.inputs_per_model)
            .with("generators", self.generators)
            .with("resubmit_share", self.resubmit_share)
            .with("stranded_admits", self.stranded_admits)
            .with("setup_repeats", self.setup_repeats)
            .with("default_seed", self.default_seed)
    }
}

/// One planned request.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Planned {
    /// Send time, as an offset from the phase start (open loop only).
    pub at: Duration,
    pub model: u32,
    pub input: u32,
    /// Idempotency key (non-zero, unique per first send; a resubmit
    /// repeats an earlier request's key, model and input).
    pub key: u64,
    pub resubmit: bool,
}

/// One generator thread's requests for both phases.
#[derive(Debug, Clone, PartialEq)]
pub struct Schedule {
    pub open: Vec<Planned>,
    /// Closed-loop picks, consumed in order (wrapping if a run outpaces
    /// them; [`closed_pick`] keeps keys unique across laps).
    pub closed: Vec<Planned>,
}

/// Closed-loop entries pre-generated per generator thread and second.
const CLOSED_PER_SECOND: usize = 20_000;

/// The ranking of models by popularity: `ranking[r]` is the model at
/// Zipf rank `r`.
pub fn ranking(p: &Params, models: usize) -> Vec<usize> {
    Rng::new(p.ranking_seed).permutation(models)
}

/// Build every generator thread's schedule for a run of `seconds`.
/// `pass` numbers repeated measurements within one process (it is folded
/// into every key, so a second pass never collides with the first's).
pub fn schedules(p: &Params, seed: u64, pass: u64, models: usize, seconds: f64) -> Vec<Schedule> {
    let rank = ranking(p, models);
    let zipf = Zipf::new(models, p.zipf_s);
    let open_secs = seconds * p.open_share;
    let closed_secs = seconds - open_secs;
    (0..p.generators)
        .map(|g| {
            let mut rng = Rng::fork(seed, 0x6E6 + g as u64);
            let pick = |rng: &mut Rng| -> (u32, u32) {
                let m = if models == 1 { 0 } else { rank[zipf.sample(rng)] };
                (m as u32, rng.below(p.inputs_per_model) as u32)
            };
            // Each thread carries 1/generators of the open-loop rate.
            let mut open = Vec::new();
            if p.open_rate > 0.0 {
                let mean_gap = p.generators as f64 / p.open_rate;
                let mut t = rng.exp(mean_gap);
                while t < open_secs {
                    let (model, input) = pick(&mut rng);
                    open.push(Planned {
                        at: Duration::from_secs_f64(t),
                        model,
                        input,
                        key: key(pass, g, 0, open.len()),
                        resubmit: false,
                    });
                    t += rng.exp(mean_gap);
                }
            }
            let n_closed = ((closed_secs * CLOSED_PER_SECOND as f64) as usize).max(p.window);
            let mut closed = Vec::with_capacity(n_closed);
            for i in 0..n_closed {
                let (model, input) = pick(&mut rng);
                closed.push(Planned {
                    at: Duration::ZERO,
                    model,
                    input,
                    key: key(pass, g, 1, i),
                    resubmit: false,
                });
            }
            for list in [&mut open, &mut closed] {
                add_resubmits(p, &mut rng, list);
            }
            Schedule { open, closed }
        })
        .collect()
}

/// Idempotency key of send `i` of phase `phase` on thread `g` in `pass`.
fn key(pass: u64, g: usize, phase: u64, i: usize) -> u64 {
    ((pass & 0xF) << 56) | ((g as u64 + 1) << 48) | (phase << 44) | (i as u64 + 1)
}

/// Turn a seeded share of sends into resubmits of the send `lag` places
/// earlier on the same thread (same key, model and input).
fn add_resubmits(p: &Params, rng: &mut Rng, list: &mut [Planned]) {
    if p.resubmit_share <= 0.0 {
        return;
    }
    let (lo, hi) = p.resubmit_lag;
    for i in lo..list.len() {
        if rng.unit() < p.resubmit_share {
            let lag = lo + rng.below(hi - lo + 1);
            if lag <= i && !list[i - lag].resubmit {
                let src = list[i - lag];
                list[i] = Planned {
                    at: list[i].at,
                    resubmit: true,
                    ..src
                };
            }
        }
    }
}

/// The `n`-th closed-loop send: entry `n mod len`, with a lap number
/// folded into the key so a wrapped schedule never repeats a key by
/// accident.
pub fn closed_pick(s: &Schedule, n: usize) -> Planned {
    let len = s.closed.len();
    let mut p = s.closed[n % len];
    p.key |= ((n / len) as u64 & 0xF) << 40;
    p
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_schedule_other_seed_differs() {
        let a = schedules(&WIRE_JOURNAL, 42, 0, 77, 4.0);
        let b = schedules(&WIRE_JOURNAL, 42, 0, 77, 4.0);
        let c = schedules(&WIRE_JOURNAL, 43, 0, 77, 4.0);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(a.len(), 2);
        // A second pass sends the same requests under fresh keys.
        let d = schedules(&WIRE_JOURNAL, 42, 1, 77, 4.0);
        assert_eq!(
            (d[0].open[0].model, d[0].open[0].input),
            (a[0].open[0].model, a[0].open[0].input)
        );
        assert_ne!(d[0].open[0].key, a[0].open[0].key);
    }

    #[test]
    fn open_loop_rate_and_window_are_respected() {
        let s = schedules(&SERVE_FAST, 7, 0, 77, 20.0);
        let open = &s[0].open;
        // Half of 20 s is open loop; Poisson counts land within 4σ.
        let expected = SERVE_FAST.open_rate * 10.0;
        assert!((open.len() as f64 - expected).abs() < 4.0 * expected.sqrt(), "{}", open.len());
        assert!(open.windows(2).all(|w| w[0].at <= w[1].at));
        assert!(open.last().unwrap().at < Duration::from_secs(10));
        assert!(s[0].closed.len() >= 10 * CLOSED_PER_SECOND);
    }

    #[test]
    fn popularity_is_skewed_toward_the_fixed_ranking() {
        let s = schedules(&SERVE_FAST, 11, 0, 77, 20.0);
        let hot = ranking(&SERVE_FAST, 77)[0] as u32;
        let hits = s[0].open.iter().filter(|p| p.model == hot).count();
        // Rank 0 of Zipf(1) over 77 carries 1/H(77) ≈ 20%.
        let share = hits as f64 / s[0].open.len() as f64;
        assert!((share - 0.2).abs() < 0.03, "{share}");
        // The ranking does not move with the seed.
        assert_eq!(ranking(&SERVE_FAST, 77), ranking(&SERVE_FAST, 77));
    }

    #[test]
    fn resubmits_repeat_an_earlier_request_on_the_same_thread() {
        let s = schedules(&WIRE_JOURNAL, 5, 0, 77, 10.0);
        for sched in &s {
            let list = &sched.open;
            let resubmits: Vec<usize> = (0..list.len()).filter(|&i| list[i].resubmit).collect();
            assert!(!resubmits.is_empty());
            for i in resubmits {
                let src = (0..i)
                    .find(|&j| list[j].key == list[i].key)
                    .expect("earlier send with the key");
                assert!(!list[src].resubmit);
                assert!((32..=256).contains(&(i - src)));
                assert_eq!((list[src].model, list[src].input), (list[i].model, list[i].input));
            }
        }
        // Keys of first sends never collide, across threads and phases.
        let mut keys: Vec<u64> = s
            .iter()
            .flat_map(|t| t.open.iter().chain(t.closed.iter()))
            .filter(|p| !p.resubmit)
            .map(|p| p.key)
            .collect();
        let n = keys.len();
        keys.sort_unstable();
        keys.dedup();
        assert_eq!(keys.len(), n);
    }

    #[test]
    fn wrapped_closed_picks_get_fresh_keys() {
        let s = schedules(&SERVE_FAST, 3, 0, 77, 0.001);
        let len = s[0].closed.len();
        let first = closed_pick(&s[0], 0);
        let lapped = closed_pick(&s[0], len);
        assert_eq!((first.model, first.input), (lapped.model, lapped.input));
        assert_ne!(first.key, lapped.key);
    }
}
