//! Algorithm-based fault tolerance (ABFT): host-side output verification.
//!
//! The fault model ([`crate::fault`]) is explicit that data bit flips in
//! H-MEM/V-MEM, the GRF and the PE accumulators corrupt block outputs
//! *silently* — the memory layouts carry no redundancy. This module closes
//! that hole on the host side: after each block run, the block's output
//! words are checked against a checksum identity computed directly from
//! the layer's inputs and weights. Both execution tiers run the check
//! through [`BlockVerifier`], which names a block by its data-free
//! [`BlockSlots`] geometry and reads its words in place from the layer's
//! output tensor; [`verify_block`] checks an arbitrary entry list against
//! the same identities.
//!
//! The identities exploit that the whole datapath is *linear arithmetic
//! mod 2¹⁶*: the 32-bit accumulator wraps, and [`truncate`] (the 16-bit
//! store) is a ring homomorphism onto wrapping [`Word`] arithmetic, so
//! sums of outputs can be predicted exactly with wrapping 16-bit adds and
//! multiplies — no tolerance thresholds, a mismatch is corruption.
//!
//! * **Pointwise / matmul** (the paper's output-stationary PWC mapping is
//!   a tiled matmul, the textbook ABFT target): Huang–Abraham row and
//!   column checksums. Per output channel `o` over the block's pixel set
//!   `P`: `Σ_{p∈P} out(o,p) = Σ_i w(o,i) · Σ_{p∈P} ifm(i,p)`; dually, per
//!   pixel `p` over the block's channel set `O`:
//!   `Σ_{o∈O} out(o,p) = Σ_i (Σ_{o∈O} w(o,i)) · ifm(i,p)`. The row check
//!   localizes a mismatch to an output channel, the column dual to a pixel.
//! * **Depthwise** (any stride, every DWC mapping — §5.2/§5.3/§5.4 and the
//!   matmul lowering): per-channel output sums.
//!   `Σ out_c = Σ_taps w_c[k] · Σ ifm_c over the positions tap k touches`.
//!
//! Activated layers (ReLU / leaky ReLU) are not linear, so the checksum
//! identities do not apply; they fall back to an exact per-element golden
//! recompute of the block's own outputs — same asymptotic cost for
//! depthwise, and still a per-block (not per-layer) cost for pointwise.
//!
//! [`truncate`]: npcgra_nn::truncate

use npcgra_kernels::layout::BlockSlots;
use npcgra_nn::{truncate, Acc, Activation, ConvKind, ConvLayer, Tensor, Word};

/// One extracted output word: `(channel, y, x, value)`, exactly as
/// [`BlockResult::ofm`](crate::BlockResult) carries them.
pub type OfmEntry = (usize, usize, usize, Word);

/// How (and whether) block outputs are verified after execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum IntegrityMode {
    /// No verification (the pre-ABFT behaviour): silent corruption stays
    /// silent.
    #[default]
    Off,
    /// Verify every block; a mismatch fails the run with
    /// [`SimCause::IntegrityViolation`](crate::SimCause::IntegrityViolation)
    /// so callers can retry (transient faults draw independently per run).
    Verify,
    /// Verify every block; a mismatch is healed in place by recomputing
    /// the block's outputs on the host (golden arithmetic) and counted in
    /// the report instead of failing the run.
    VerifyAndRecompute,
}

/// Which checksum identity a violation tripped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CheckKind {
    /// Depthwise per-channel output sum (`lane` = channel).
    ChannelSum,
    /// Pointwise row checksum (`lane` = output channel).
    RowChecksum,
    /// Pointwise column checksum (`lane` = pixel index `y·W + x`).
    ColumnChecksum,
    /// Exact per-element recompute, used for activated (non-linear) layers
    /// (`lane` = flat output index).
    Element,
}

impl std::fmt::Display for CheckKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckKind::ChannelSum => f.write_str("channel-sum"),
            CheckKind::RowChecksum => f.write_str("row-checksum"),
            CheckKind::ColumnChecksum => f.write_str("column-checksum"),
            CheckKind::Element => f.write_str("element"),
        }
    }
}

/// A failed output-integrity check: which identity, where, and the two
/// checksum values that disagree.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Violation {
    /// The identity that tripped.
    pub kind: CheckKind,
    /// Channel or pixel the mismatch localizes to (see [`CheckKind`]).
    pub lane: usize,
    /// Checksum predicted from inputs and weights.
    pub expected: Word,
    /// Checksum of the words the machine actually produced.
    pub actual: Word,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} mismatch on lane {}: expected {:#06x}, got {:#06x}",
            self.kind, self.lane, self.expected as u16, self.actual as u16
        )
    }
}

/// Per-run ABFT verifier for blocks described by their data-free
/// [`BlockSlots`] geometry: the check both execution tiers run after every
/// block, reading the block's words straight out of the layer's output
/// tensor.
///
/// Built once per layer run from that run's inputs. Each block check then
/// touches only the block's own outputs plus a few input-side sums:
///
/// * **Pointwise**: a block is one image row × a pixel range × an output
///   channel range. The row checksums need `Σ_p ifm(i,p)` over the range
///   and the column checksums `Σ_o w(o,i)` over the channels — contiguous
///   slices of the CHW `ifm` and the `(N_o, 1, N_i)` weights.
/// * **Depthwise**: the positions one kernel tap `(ky, kx)` touches across
///   an output rectangle form a stride-`s` lattice rectangle of the padded
///   input. Summing the input rows kernel row `ky` reads into one vector of
///   column sums (contiguous slice adds) leaves each of the row's `K` taps
///   a strided sum over that vector. So a block costs about `K` passes over
///   the input rows it reads plus one over its outputs per channel, not
///   `K²` input reads per output word.
///
/// Sums regrouped this way stay exact in wrapping 16-bit arithmetic, so the
/// checks return exactly what [`verify_block`] returns on the same words
/// listed as entries: same identities, same lanes, same first failure.
pub struct BlockVerifier<'a> {
    layer: &'a ConvLayer,
    ifm: &'a Tensor,
    weights: &'a Tensor,
    /// Depthwise scratch: per-column input sums over the rows one kernel
    /// row reads (`(N_w − 1)·s + K`), and that kernel row's tap sums (`K`).
    col_sums: Vec<Word>,
    tap_sums: Vec<Word>,
    /// Pointwise scratch: per-input-channel pixel sums and weight column
    /// sums (`N_i` each), per-pixel column checksums of one image row.
    in_sums: Vec<Word>,
    w_sums: Vec<Word>,
    col_expected: Vec<Word>,
    col_actual: Vec<Word>,
}

impl<'a> BlockVerifier<'a> {
    /// Set up verification of one run of `layer` on `ifm` (raw, unpadded)
    /// and `weights`.
    #[must_use]
    pub fn new(layer: &'a ConvLayer, ifm: &'a Tensor, weights: &'a Tensor) -> Self {
        let (ni, nw, k) = match layer.kind() {
            ConvKind::Pointwise => (layer.in_channels(), layer.out_w(), 0),
            ConvKind::Depthwise => (0, 0, layer.k()),
            ConvKind::Standard => (0, 0, 0),
        };
        let span = if k == 0 { 0 } else { (layer.out_w() - 1) * layer.s() + k };
        BlockVerifier {
            layer,
            ifm,
            weights,
            col_sums: vec![0; span],
            tap_sums: vec![0; k],
            in_sums: vec![0; ni],
            w_sums: vec![0; ni],
            col_expected: vec![0; nw],
            col_actual: vec![0; nw],
        }
    }

    /// Verify the block whose outputs `slots` describes, reading its words
    /// from the layer-shaped `ofm`.
    ///
    /// # Errors
    ///
    /// Returns the first [`Violation`], exactly as [`verify_block`] would
    /// on the block's `(c, y, x, ofm(c, y, x))` entries in slot order.
    pub fn verify(&mut self, slots: &BlockSlots, ofm: &Tensor) -> Result<(), Violation> {
        let linear = self.layer.activation() == Activation::None;
        match self.layer.kind() {
            ConvKind::Depthwise if linear => self.verify_depthwise(slots, ofm),
            ConvKind::Pointwise if linear => self.verify_pointwise(slots, ofm),
            _ => verify_elements(
                self.layer,
                self.ifm,
                self.weights,
                slots.iter().map(|(c, y, x)| (c, y, x, ofm.get(c, y, x))),
            ),
        }
    }

    /// Recompute every output of the block on the host (golden arithmetic)
    /// and patch `ofm` in place — the recovery half of
    /// [`IntegrityMode::VerifyAndRecompute`].
    pub fn heal(&self, slots: &BlockSlots, ofm: &mut Tensor) {
        for (c, y, x) in slots.iter() {
            ofm.set(c, y, x, golden_element(self.layer, self.ifm, self.weights, c, y, x));
        }
    }

    /// Depthwise: per-channel output sums against
    /// `Σ out_c = Σ_taps w_c[k] · Σ ifm_c over the positions tap k touches`.
    fn verify_depthwise(&mut self, slots: &BlockSlots, ofm: &Tensor) -> Result<(), Violation> {
        let BlockVerifier {
            layer,
            ifm,
            weights,
            col_sums,
            tap_sums,
            ..
        } = self;
        let (k, s, pad) = (layer.k(), layer.s(), layer.pad());
        let (_, ih, iw) = ifm.shape();
        let (_, oh, ow) = ofm.shape();
        let (x, w, out) = (ifm.as_slice(), weights.as_slice(), ofm.as_slice());
        for c in slots.channels() {
            let plane = &x[c * ih * iw..][..ih * iw];
            let out_plane = &out[c * oh * ow..][..oh * ow];
            let kernel = &w[c * k * k..][..k * k];
            let (mut expected, mut actual): (Word, Word) = (0, 0);
            for r in slots.rects() {
                for y in r.y0..r.y1 {
                    actual = wrapping_sum(actual, &out_plane[y * ow + r.x0..y * ow + r.x1]);
                }
                // The padded input columns px0 .. px0 + span the taps read
                // for this rectangle, and the part of them inside the input.
                let cols = r.x1 - r.x0;
                let (px0, span) = (r.x0 * s, (cols - 1) * s + k);
                let (lo, hi) = (pad.saturating_sub(px0), (iw + pad).saturating_sub(px0).min(span));
                for (ky, wrow) in kernel.chunks_exact(k).enumerate() {
                    // A kernel row whose rows all fall in the padding adds
                    // nothing.
                    if lo >= hi || (r.y1 - 1) * s + ky < pad || r.y0 * s + ky >= ih + pad {
                        continue;
                    }
                    // Column sums over the input rows kernel row `ky` reads.
                    let col_sums = &mut col_sums[..span];
                    col_sums.fill(0);
                    for oy in r.y0..r.y1 {
                        let Some(iy) = (oy * s + ky).checked_sub(pad).filter(|&iy| iy < ih) else {
                            continue;
                        };
                        let row = &plane[iy * iw + px0 + lo - pad..][..hi - lo];
                        for (a, &v) in col_sums[lo..hi].iter_mut().zip(row) {
                            *a = a.wrapping_add(v);
                        }
                    }
                    // Tap `kx` sums col_sums[kx + j·s] over the `cols` output
                    // columns; tap `kx + s` is the same window one step on.
                    let tap_sums = &mut tap_sums[..k];
                    for kx in 0..k {
                        let t = if kx < s {
                            let mut t: Word = 0;
                            let mut j = kx;
                            for _ in 0..cols {
                                t = t.wrapping_add(col_sums[j]);
                                j += s;
                            }
                            t
                        } else {
                            tap_sums[kx - s]
                                .wrapping_sub(col_sums[kx - s])
                                .wrapping_add(col_sums[kx - s + cols * s])
                        };
                        tap_sums[kx] = t;
                        expected = expected.wrapping_add(wrow[kx].wrapping_mul(t));
                    }
                }
            }
            first_mismatch(CheckKind::ChannelSum, std::iter::once((c, expected, actual)))?;
        }
        Ok(())
    }

    /// Pointwise: Huang–Abraham row checksums (per output channel,
    /// localizing to a channel), then column checksums (per pixel,
    /// localizing to a pixel), each in ascending lane order.
    fn verify_pointwise(&mut self, slots: &BlockSlots, ofm: &Tensor) -> Result<(), Violation> {
        let BlockVerifier {
            layer,
            ifm,
            weights,
            in_sums,
            w_sums,
            col_expected,
            col_actual,
            ..
        } = self;
        let (x, w, out) = (ifm.as_slice(), weights.as_slice(), ofm.as_slice());
        let ni = layer.in_channels();
        let rows = || slots.rects().iter().flat_map(|r| (r.y0..r.y1).map(move |y| (y, r.x0, r.x1)));

        // Row checksums: Σ_p out(o,p) = Σ_i w(o,i) · Σ_p ifm(i,p).
        for (i, sum) in in_sums.iter_mut().enumerate() {
            *sum = rows().fold(0, |acc, (y, x0, x1)| wrapping_sum(acc, &x[ifm.index(i, y, x0)..][..x1 - x0]));
        }
        first_mismatch(
            CheckKind::RowChecksum,
            slots.channels().map(|o| {
                let wrow = &w[weights.index(o, 0, 0)..][..ni];
                let expected = wrow
                    .iter()
                    .zip(in_sums.iter())
                    .fold(0 as Word, |acc, (&wv, &sv)| acc.wrapping_add(wv.wrapping_mul(sv)));
                let actual = rows().fold(0, |acc, (y, x0, x1)| {
                    wrapping_sum(acc, &out[ofm.index(o, y, x0)..][..x1 - x0])
                });
                (o, expected, actual)
            }),
        )?;

        // Column checksums: Σ_o out(o,p) = Σ_i (Σ_o w(o,i)) · ifm(i,p),
        // one image row segment at a time.
        w_sums.fill(0);
        for o in slots.channels() {
            for (ws, &wv) in w_sums.iter_mut().zip(&w[weights.index(o, 0, 0)..][..ni]) {
                *ws = ws.wrapping_add(wv);
            }
        }
        for (y, x0, x1) in rows() {
            let n = x1 - x0;
            let (expected, actual) = (&mut col_expected[..n], &mut col_actual[..n]);
            expected.fill(0);
            actual.fill(0);
            for (i, &ws) in w_sums.iter().enumerate() {
                for (e, &xv) in expected.iter_mut().zip(&x[ifm.index(i, y, x0)..][..n]) {
                    *e = e.wrapping_add(ws.wrapping_mul(xv));
                }
            }
            for o in slots.channels() {
                for (a, &v) in actual.iter_mut().zip(&out[ofm.index(o, y, x0)..][..n]) {
                    *a = a.wrapping_add(v);
                }
            }
            let lane0 = y * ofm.width() + x0;
            first_mismatch(
                CheckKind::ColumnChecksum,
                expected
                    .iter()
                    .zip(actual.iter())
                    .enumerate()
                    .map(|(j, (&e, &a))| (lane0 + j, e, a)),
            )?;
        }
        Ok(())
    }
}

/// Verify an arbitrary list of extracted output words against the layer's
/// checksum identities (or, for activated layers, an exact per-element
/// recompute).
///
/// `ifm` is the layer's *raw* input (zero padding is applied here, exactly
/// as the golden reference does). `entries` may be any subset of the OFM,
/// in any order, even with repeats; the identities distribute over
/// entries, so each entry adds its own predicted word to its lanes'
/// expected sums. The lanes are then checked in the same order as
/// [`BlockVerifier::verify`] checks them: channels ascending (depthwise),
/// or output channels ascending and then pixels ascending (pointwise).
/// The execution tiers verify whole blocks through [`BlockVerifier`],
/// which is much cheaper; this entry point serves partial or hand-built
/// lists.
///
/// # Errors
///
/// Returns the first [`Violation`] found. The identities are exact mod
/// 2¹⁶, so a violation is always real corruption; a passing check bounds
/// undetected corruption to errors that cancel in every checksum.
pub fn verify_block(layer: &ConvLayer, ifm: &Tensor, weights: &Tensor, entries: &[OfmEntry]) -> Result<(), Violation> {
    let kind = layer.kind();
    if layer.activation() != Activation::None || kind == ConvKind::Standard {
        // Activated layers are not linear; standard convolution never
        // reaches the block path directly (it is lowered through im2col),
        // but stay total for robustness.
        return verify_elements(layer, ifm, weights, entries.iter().copied());
    }
    // Per-lane (expected, actual) sums: channels, and pointwise pixels. By
    // the linear identities an entry's predicted word is its golden value.
    let w = layer.out_w();
    let mut channels = vec![(0 as Word, 0 as Word); layer.out_channels()];
    let mut pixels = vec![(0 as Word, 0 as Word); if kind == ConvKind::Pointwise { layer.out_h() * w } else { 0 }];
    let add = |lane: &mut (Word, Word), e: Word, v: Word| *lane = (lane.0.wrapping_add(e), lane.1.wrapping_add(v));
    for &(c, y, x, v) in entries {
        let e = golden_element(layer, ifm, weights, c, y, x);
        add(&mut channels[c], e, v);
        if let Some(pixel) = pixels.get_mut(y * w + x) {
            add(pixel, e, v);
        }
    }
    let lanes = |sums: Vec<(Word, Word)>| sums.into_iter().enumerate().map(|(lane, (e, a))| (lane, e, a));
    if kind == ConvKind::Depthwise {
        return first_mismatch(CheckKind::ChannelSum, lanes(channels));
    }
    first_mismatch(CheckKind::RowChecksum, lanes(channels))?;
    first_mismatch(CheckKind::ColumnChecksum, lanes(pixels))
}

/// The first `(lane, expected, actual)` that disagrees, as a violation of
/// `kind`.
fn first_mismatch(kind: CheckKind, lanes: impl Iterator<Item = (usize, Word, Word)>) -> Result<(), Violation> {
    for (lane, expected, actual) in lanes {
        if expected != actual {
            return Err(Violation {
                kind,
                lane,
                expected,
                actual,
            });
        }
    }
    Ok(())
}

fn wrapping_sum(acc: Word, words: &[Word]) -> Word {
    words.iter().fold(acc, |a, &v| a.wrapping_add(v))
}

/// Exact per-element golden recompute of the block's own outputs — the
/// fallback for activated (non-linear) layers, where the checksum
/// identities do not hold.
fn verify_elements(
    layer: &ConvLayer,
    ifm: &Tensor,
    weights: &Tensor,
    entries: impl Iterator<Item = OfmEntry>,
) -> Result<(), Violation> {
    for (c, y, x, v) in entries {
        let expected = golden_element(layer, ifm, weights, c, y, x);
        if expected != v {
            return Err(Violation {
                kind: CheckKind::Element,
                lane: (c * layer.out_h() + y) * layer.out_w() + x,
                expected,
                actual: v,
            });
        }
    }
    Ok(())
}

/// One output element via the golden reference arithmetic (wrapping 32-bit
/// accumulation, activation at accumulator level, 16-bit truncation) —
/// bit-identical to [`npcgra_nn::reference::run_layer`].
fn golden_element(layer: &ConvLayer, ifm: &Tensor, weights: &Tensor, c: usize, oy: usize, ox: usize) -> Word {
    let mut acc: Acc = 0;
    match layer.kind() {
        ConvKind::Depthwise => {
            let (k, s) = (layer.k(), layer.s());
            let pad = layer.pad() as isize;
            for ky in 0..k {
                for kx in 0..k {
                    let iy = (oy * s + ky) as isize - pad;
                    let ix = (ox * s + kx) as isize - pad;
                    let x = ifm.get_padded(c, iy, ix);
                    acc = acc.wrapping_add(Acc::from(x).wrapping_mul(Acc::from(weights.get(c, ky, kx))));
                }
            }
        }
        ConvKind::Pointwise => {
            for i in 0..layer.in_channels() {
                acc = acc.wrapping_add(Acc::from(ifm.get(i, oy, ox)).wrapping_mul(Acc::from(weights.get(c, 0, i))));
            }
        }
        ConvKind::Standard => {
            let (k, s) = (layer.k(), layer.s());
            let pad = layer.pad() as isize;
            let g = layer.groups();
            let cin_per_g = layer.in_channels() / g;
            let cout_per_g = layer.out_channels() / g;
            let grp = c / cout_per_g;
            for ci in 0..cin_per_g {
                let ch = grp * cin_per_g + ci;
                for ky in 0..k {
                    for kx in 0..k {
                        let iy = (oy * s + ky) as isize - pad;
                        let ix = (ox * s + kx) as isize - pad;
                        let x = ifm.get_padded(ch, iy, ix);
                        let wv = weights.get(c, ky, kx * cin_per_g + ci);
                        acc = acc.wrapping_add(Acc::from(x).wrapping_mul(Acc::from(wv)));
                    }
                }
            }
        }
    }
    truncate(layer.activation().apply_acc(acc))
}

/// A positional checksum of a whole tensor, for verifying inter-stage
/// activation handoffs in pipelined whole-model serving.
///
/// Unlike the per-block ABFT identities above (which predict outputs from
/// inputs), this is a plain content hash: each word is mixed with its flat
/// index through splitmix64 and the mixes are wrapping-summed, so any
/// single-bit flip — and any transposition of two unequal words — changes
/// the result. It costs O(len) and is a pure function of the tensor's
/// shape and contents.
#[must_use]
pub fn tensor_checksum(t: &Tensor) -> u64 {
    fn splitmix64(mut x: u64) -> u64 {
        x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
        x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        x ^ (x >> 31)
    }
    let (c, h, w) = t.shape();
    let mut sum = splitmix64((c as u64) << 42 ^ (h as u64) << 21 ^ w as u64);
    for (i, &v) in t.as_slice().iter().enumerate() {
        sum = sum.wrapping_add(splitmix64((i as u64) << 16 ^ u64::from(v as u16)));
    }
    sum
}

#[cfg(test)]
mod tests {
    use super::*;
    use npcgra_kernels::layout::{PixelRect, SlotOrder};
    use npcgra_nn::reference;

    /// Turn a golden OFM tensor into the entry list a block would extract.
    fn entries_of(ofm: &Tensor) -> Vec<OfmEntry> {
        let (c, h, w) = ofm.shape();
        let mut out = Vec::with_capacity(c * h * w);
        for ci in 0..c {
            for y in 0..h {
                for x in 0..w {
                    out.push((ci, y, x, ofm.get(ci, y, x)));
                }
            }
        }
        out
    }

    fn layers() -> Vec<ConvLayer> {
        vec![
            ConvLayer::pointwise("pw", 9, 7, 5, 6),
            ConvLayer::depthwise("dw1", 3, 11, 9, 3, 1, 1),
            ConvLayer::depthwise("dw2", 2, 12, 12, 3, 2, 1),
            ConvLayer::depthwise("dw5", 2, 13, 13, 5, 1, 2),
            ConvLayer::standard("st", 4, 4, 6, 6, 3, 1, 1, 2),
        ]
    }

    #[test]
    fn correct_outputs_satisfy_every_identity() {
        for layer in layers() {
            let ifm = Tensor::random(layer.in_channels(), layer.in_h(), layer.in_w(), 7);
            let w = layer.random_weights(8);
            let golden = reference::run_layer(&layer, &ifm, &w).unwrap();
            verify_block(&layer, &ifm, &w, &entries_of(&golden)).unwrap_or_else(|v| panic!("{}: {v}", layer.name()));
        }
    }

    #[test]
    fn a_single_flipped_word_is_detected() {
        for layer in layers() {
            let ifm = Tensor::random(layer.in_channels(), layer.in_h(), layer.in_w(), 17);
            let w = layer.random_weights(18);
            let golden = reference::run_layer(&layer, &ifm, &w).unwrap();
            let mut entries = entries_of(&golden);
            entries[3].3 ^= 1 << 5;
            let v = verify_block(&layer, &ifm, &w, &entries).expect_err(layer.name());
            assert_ne!(v.expected, v.actual);
        }
    }

    #[test]
    fn partial_blocks_verify_too() {
        // Blocks cover subsets of the OFM; the identities must hold over
        // any entry subset, not just whole layers.
        let layer = ConvLayer::pointwise("pw", 8, 6, 4, 4);
        let ifm = Tensor::random(8, 4, 4, 3);
        let w = layer.random_weights(4);
        let golden = reference::run_layer(&layer, &ifm, &w).unwrap();
        let entries = entries_of(&golden);
        for chunk in entries.chunks(5) {
            verify_block(&layer, &ifm, &w, chunk).unwrap();
        }
        let dw = ConvLayer::depthwise("dw", 2, 9, 9, 3, 2, 1);
        let ifm = Tensor::random(2, 9, 9, 5);
        let w = dw.random_weights(6);
        let golden = reference::run_layer(&dw, &ifm, &w).unwrap();
        for chunk in entries_of(&golden).chunks(7) {
            verify_block(&dw, &ifm, &w, chunk).unwrap();
        }
    }

    #[test]
    fn pointwise_row_check_localizes_the_output_channel() {
        let layer = ConvLayer::pointwise("pw", 6, 5, 3, 3);
        let ifm = Tensor::random(6, 3, 3, 9);
        let w = layer.random_weights(10);
        let golden = reference::run_layer(&layer, &ifm, &w).unwrap();
        let mut entries = entries_of(&golden);
        // Corrupt an output of channel 4.
        let idx = entries.iter().position(|e| e.0 == 4).unwrap();
        entries[idx].3 = entries[idx].3.wrapping_add(1);
        let v = verify_block(&layer, &ifm, &w, &entries).unwrap_err();
        assert_eq!(v.kind, CheckKind::RowChecksum);
        assert_eq!(v.lane, 4);
    }

    #[test]
    fn activated_layers_use_the_exact_element_path() {
        let layer = ConvLayer::depthwise("dw", 2, 8, 8, 3, 1, 1).with_activation(Activation::Relu);
        let ifm = Tensor::random(2, 8, 8, 11);
        let w = layer.random_weights(12);
        let golden = reference::run_layer(&layer, &ifm, &w).unwrap();
        let mut entries = entries_of(&golden);
        verify_block(&layer, &ifm, &w, &entries).unwrap();
        entries[9].3 = entries[9].3.wrapping_add(2);
        let v = verify_block(&layer, &ifm, &w, &entries).unwrap_err();
        assert_eq!(v.kind, CheckKind::Element);
    }

    /// The whole output plane of `ofm` as one block.
    fn whole(ofm: &Tensor) -> BlockSlots {
        let (c, h, w) = ofm.shape();
        BlockSlots::rect(
            0..c,
            PixelRect {
                y0: 0,
                y1: h,
                x0: 0,
                x1: w,
            },
            SlotOrder::ChannelMajor,
        )
    }

    #[test]
    fn heal_restores_golden_values() {
        for layer in layers() {
            let ifm = Tensor::random(layer.in_channels(), layer.in_h(), layer.in_w(), 21);
            let w = layer.random_weights(22);
            let golden = reference::run_layer(&layer, &ifm, &w).unwrap();
            let mut ofm = golden.clone();
            ofm.set(0, 0, 0, ofm.get(0, 0, 0) ^ 0x40);
            ofm.set(0, 1, 1, ofm.get(0, 1, 1).wrapping_sub(3));
            let slots = whole(&golden);
            let mut verifier = BlockVerifier::new(&layer, &ifm, &w);
            verifier.verify(&slots, &ofm).expect_err(layer.name());
            verifier.heal(&slots, &mut ofm);
            assert_eq!(ofm, golden, "{}", layer.name());
            verifier.verify(&slots, &ofm).unwrap();
        }
    }

    #[test]
    fn empty_entry_lists_are_trivially_valid() {
        let layer = ConvLayer::pointwise("pw", 4, 4, 2, 2);
        let ifm = Tensor::zeros(4, 2, 2);
        let w = layer.random_weights(1);
        verify_block(&layer, &ifm, &w, &[]).unwrap();
    }

    #[test]
    fn tensor_checksum_catches_flips_and_swaps() {
        let t = Tensor::random(3, 5, 7, 9);
        let base = tensor_checksum(&t);
        assert_eq!(base, tensor_checksum(&t.clone()), "checksum is a pure function");

        let mut flipped = t.clone();
        let v = flipped.get(1, 2, 3);
        flipped.set(1, 2, 3, v ^ 1);
        assert_ne!(base, tensor_checksum(&flipped), "a single bit flip must change the sum");

        // Transposing two unequal words changes the sum (a plain word-sum
        // would miss this; the positional mix does not).
        let mut swapped = t.clone();
        let (a, b) = (t.get(0, 0, 0), t.get(2, 4, 6));
        assert_ne!(a, b, "test fixture needs distinct words");
        swapped.set(0, 0, 0, b);
        swapped.set(2, 4, 6, a);
        assert_ne!(base, tensor_checksum(&swapped));

        // Same contents, different shape: the shape is part of the sum.
        let reshaped = Tensor::from_fn(5, 3, 7, |c, y, x| t.get(y, c, x));
        assert_ne!(base, tensor_checksum(&reshaped));
    }
}
