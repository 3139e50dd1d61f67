//! The ABFT verifier pinned to a reference implementation.
//!
//! `oracle` below is the original verifier, kept verbatim in spirit: it
//! groups an entry list by channel (depthwise) or by output channel and by
//! pixel (pointwise) in `BTreeMap`s, memoizes input-side sums per distinct
//! pixel/channel set, and walks the groups in key order. It is slow and
//! obviously correct, so the production verifiers must return exactly what
//! it returns — the same `Result<(), Violation>`, down to the check kind,
//! lane, both checksum values and which failure comes first:
//!
//! * [`BlockVerifier::verify`] on every block of every mapping, reading the
//!   block's words from the output tensor through its data-free geometry;
//! * [`verify_block`] on arbitrary entry subsets in arbitrary order.
//!
//! Outputs are corrupted with random bit flips and with cancelling `±e`
//! pairs inside one channel (which the depthwise channel sum cannot see,
//! but the pointwise column checksums can).

use std::collections::BTreeMap;

use npcgra_arch::CgraSpec;
use npcgra_nn::{reference, Activation, ConvKind, ConvLayer, Tensor, Word};
use npcgra_sim::integrity::{verify_block, OfmEntry};
use npcgra_sim::{BlockVerifier, CheckKind, CompiledLayer, MappingKind, Violation};
use proptest::prelude::*;

/// The reference verifier. `golden` is the layer's reference output, used
/// only for activated layers (exact per-element check).
fn oracle(layer: &ConvLayer, ifm: &Tensor, weights: &Tensor, golden: &Tensor, entries: &[OfmEntry]) -> Result<(), Violation> {
    if entries.is_empty() {
        return Ok(());
    }
    if layer.activation() != Activation::None {
        for &(c, y, x, v) in entries {
            let expected = golden.get(c, y, x);
            if expected != v {
                return Err(Violation {
                    kind: CheckKind::Element,
                    lane: (c * layer.out_h() + y) * layer.out_w() + x,
                    expected,
                    actual: v,
                });
            }
        }
        return Ok(());
    }
    match layer.kind() {
        ConvKind::Depthwise => oracle_depthwise(layer, ifm, weights, entries),
        ConvKind::Pointwise => oracle_pointwise(layer, ifm, weights, entries),
        ConvKind::Standard => unreachable!("standard layers are not verified block-wise"),
    }
}

fn oracle_depthwise(layer: &ConvLayer, ifm: &Tensor, weights: &Tensor, entries: &[OfmEntry]) -> Result<(), Violation> {
    let (k, s) = (layer.k(), layer.s());
    let pad = layer.pad() as isize;
    let mut by_channel: BTreeMap<usize, (Vec<(usize, usize)>, Word)> = BTreeMap::new();
    for &(c, y, x, v) in entries {
        let slot = by_channel.entry(c).or_default();
        slot.0.push((y, x));
        slot.1 = slot.1.wrapping_add(v);
    }
    for (c, (positions, actual)) in by_channel {
        let mut expected: Word = 0;
        for ky in 0..k {
            for kx in 0..k {
                let mut tap_sum: Word = 0;
                for &(oy, ox) in &positions {
                    let iy = (oy * s + ky) as isize - pad;
                    let ix = (ox * s + kx) as isize - pad;
                    tap_sum = tap_sum.wrapping_add(ifm.get_padded(c, iy, ix));
                }
                expected = expected.wrapping_add(weights.get(c, ky, kx).wrapping_mul(tap_sum));
            }
        }
        if expected != actual {
            return Err(Violation {
                kind: CheckKind::ChannelSum,
                lane: c,
                expected,
                actual,
            });
        }
    }
    Ok(())
}

fn oracle_pointwise(layer: &ConvLayer, ifm: &Tensor, weights: &Tensor, entries: &[OfmEntry]) -> Result<(), Violation> {
    let n_i = layer.in_channels();
    let mut by_out: BTreeMap<usize, (Vec<(usize, usize)>, Word)> = BTreeMap::new();
    for &(o, y, x, v) in entries {
        let slot = by_out.entry(o).or_default();
        slot.0.push((y, x));
        slot.1 = slot.1.wrapping_add(v);
    }
    let mut pixel_sums: BTreeMap<Vec<(usize, usize)>, Vec<Word>> = BTreeMap::new();
    for (o, (mut pixels, actual)) in by_out {
        pixels.sort_unstable();
        let sums = pixel_sums.entry(pixels).or_insert_with_key(|pixels| {
            (0..n_i)
                .map(|i| {
                    pixels
                        .iter()
                        .fold(0 as Word, |acc, &(y, x)| acc.wrapping_add(ifm.get(i, y, x)))
                })
                .collect()
        });
        let mut expected: Word = 0;
        for (i, &sum) in sums.iter().enumerate() {
            expected = expected.wrapping_add(weights.get(o, 0, i).wrapping_mul(sum));
        }
        if expected != actual {
            return Err(Violation {
                kind: CheckKind::RowChecksum,
                lane: o,
                expected,
                actual,
            });
        }
    }
    let mut by_pixel: BTreeMap<(usize, usize), (Vec<usize>, Word)> = BTreeMap::new();
    for &(o, y, x, v) in entries {
        let slot = by_pixel.entry((y, x)).or_default();
        slot.0.push(o);
        slot.1 = slot.1.wrapping_add(v);
    }
    let mut col_weights: BTreeMap<Vec<usize>, Vec<Word>> = BTreeMap::new();
    for ((y, x), (mut outs, actual)) in by_pixel {
        outs.sort_unstable();
        let cols = col_weights.entry(outs).or_insert_with_key(|outs| {
            (0..n_i)
                .map(|i| outs.iter().fold(0 as Word, |acc, &o| acc.wrapping_add(weights.get(o, 0, i))))
                .collect()
        });
        let mut expected: Word = 0;
        for (i, &wsum) in cols.iter().enumerate() {
            expected = expected.wrapping_add(wsum.wrapping_mul(ifm.get(i, y, x)));
        }
        if expected != actual {
            return Err(Violation {
                kind: CheckKind::ColumnChecksum,
                lane: y * layer.out_w() + x,
                expected,
                actual,
            });
        }
    }
    Ok(())
}

/// A small deterministic generator for the per-case choices.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut x = self.0;
        x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        x ^ (x >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// Mostly linear layers (the checksum identities), some activated ones
/// (the exact per-element path).
fn activation_strategy() -> impl Strategy<Value = Activation> {
    prop_oneof![
        Just(Activation::None),
        Just(Activation::None),
        Just(Activation::None),
        Just(Activation::Relu),
        (1u8..5).prop_map(|shift| Activation::LeakyRelu { shift }),
    ]
}

/// Layers of every kind the block mappings take.
fn layer_strategy() -> impl Strategy<Value = ConvLayer> {
    prop_oneof![
        (
            1usize..7,
            2usize..12,
            2usize..12,
            prop_oneof![Just(3usize), Just(5usize)],
            1usize..4,
            activation_strategy(),
        )
            .prop_map(|(ch, h, w, k, s, a)| ConvLayer::depthwise("oracle.dw", ch, h, w, k, s, k / 2).with_activation(a)),
        (1usize..9, 1usize..9, 1usize..10, 1usize..12, activation_strategy()).prop_map(|(ci, co, h, w, a)| ConvLayer::pointwise(
            "oracle.pw",
            ci,
            co,
            h,
            w
        )
        .with_activation(a)),
    ]
}

/// The 4×4 machine, Table 4's 8×8 one, or a 4×4 machine with 1 KB local
/// memories, which splits even these small layers into many blocks.
fn spec_for(rng: &mut Rng) -> CgraSpec {
    match rng.below(3) {
        0 => CgraSpec::np_cgra(4, 4),
        1 => CgraSpec::table4(),
        _ => {
            let mut spec = CgraSpec::np_cgra(4, 4);
            spec.hmem_bytes = 1024;
            spec.vmem_bytes = 1024;
            spec
        }
    }
}

const KINDS: [MappingKind; 3] = [MappingKind::Auto, MappingKind::BatchedDwcS1, MappingKind::MatmulDwc];

/// Flip `flips` random bits of `ofm`.
fn flip_bits(ofm: &mut Tensor, flips: usize, rng: &mut Rng) {
    let (c, h, w) = ofm.shape();
    for _ in 0..flips {
        let (ci, y, x) = (rng.below(c), rng.below(h), rng.below(w));
        let bit = rng.below(Word::BITS as usize);
        ofm.set(ci, y, x, ofm.get(ci, y, x) ^ (1 << bit));
    }
}

/// Check every block of `compiled` on `ofm` against the oracle.
fn check_blocks(
    compiled: &CompiledLayer,
    ifm: &Tensor,
    weights: &Tensor,
    golden: &Tensor,
    ofm: &Tensor,
) -> Result<(), TestCaseError> {
    let layer = compiled.layer();
    let mut verifier = BlockVerifier::new(layer, ifm, weights);
    for i in 0..compiled.num_blocks() {
        let slots = compiled.block_slots(i);
        let entries: Vec<OfmEntry> = slots.iter().map(|(c, y, x)| (c, y, x, ofm.get(c, y, x))).collect();
        let want = oracle(layer, ifm, weights, golden, &entries);
        prop_assert_eq!(verifier.verify(&slots, ofm), want, "block {} of {:?}", i, compiled);
        prop_assert_eq!(verify_block(layer, ifm, weights, &entries), want, "entries of block {}", i);
    }
    Ok(())
}

fn setup(layer: &ConvLayer, seed: u64) -> (Tensor, Tensor, Tensor) {
    let ifm = Tensor::random(layer.in_channels(), layer.in_h(), layer.in_w(), seed);
    let weights = layer.random_weights(seed ^ 0xABF7);
    let golden = reference::run_layer(layer, &ifm, &weights).expect("reference runs");
    (ifm, weights, golden)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Every block of every mapping, clean and with 1–3 random bit flips:
    /// the geometric verifier and the entry-list verifier both agree with
    /// the oracle.
    #[test]
    fn block_verifier_matches_the_oracle(layer in layer_strategy(), seed in any::<u64>()) {
        let mut rng = Rng(seed);
        let spec = spec_for(&mut rng);
        let kind = KINDS[rng.below(KINDS.len())];
        let Ok(compiled) = CompiledLayer::compile(&layer, &spec, kind) else {
            return Ok(());
        };
        let (ifm, weights, golden) = setup(&layer, seed);
        check_blocks(&compiled, &ifm, &weights, &golden, &golden)?;
        let mut corrupted = golden.clone();
        flip_bits(&mut corrupted, 1 + rng.below(3), &mut rng);
        check_blocks(&compiled, &ifm, &weights, &golden, &corrupted)?;
    }

    /// Cancelling `±e` pairs inside one channel of one block: invisible to
    /// the channel sum, visible to the pointwise column checksums — and
    /// either way reported exactly as the oracle reports it.
    #[test]
    fn cancelling_pairs_match_the_oracle(layer in layer_strategy(), seed in any::<u64>()) {
        let mut rng = Rng(seed);
        let spec = spec_for(&mut rng);
        let kind = KINDS[rng.below(KINDS.len())];
        let Ok(compiled) = CompiledLayer::compile(&layer, &spec, kind) else {
            return Ok(());
        };
        let (ifm, weights, golden) = setup(&layer, seed);
        let slots = compiled.block_slots(rng.below(compiled.num_blocks()));
        let pixels = slots.pixels();
        prop_assume!(pixels >= 2);
        let c = slots.channels().start + rng.below(slots.channels().len());
        let at = |p: usize| slots.iter().filter(|&(ci, _, _)| ci == c).nth(p).expect("pixel of the channel");
        let (a, b) = (rng.below(pixels), rng.below(pixels));
        prop_assume!(a != b);
        let e = (1 + rng.below(0x7FFF)) as Word;
        let mut corrupted = golden.clone();
        let ((ca, ya, xa), (cb, yb, xb)) = (at(a), at(b));
        corrupted.set(ca, ya, xa, corrupted.get(ca, ya, xa).wrapping_add(e));
        corrupted.set(cb, yb, xb, corrupted.get(cb, yb, xb).wrapping_sub(e));
        check_blocks(&compiled, &ifm, &weights, &golden, &corrupted)?;
    }

    /// Arbitrary entry subsets of the whole output, in arbitrary order,
    /// clean and corrupted: `verify_block` agrees with the oracle.
    #[test]
    fn entry_subsets_match_the_oracle(layer in layer_strategy(), seed in any::<u64>()) {
        let mut rng = Rng(seed);
        let (ifm, weights, golden) = setup(&layer, seed);
        let mut corrupted = golden.clone();
        flip_bits(&mut corrupted, rng.below(4), &mut rng);
        let (c, h, w) = corrupted.shape();
        let mut entries: Vec<OfmEntry> = (0..c)
            .flat_map(|ci| (0..h).flat_map(move |y| (0..w).map(move |x| (ci, y, x))))
            .filter(|_| rng.below(3) != 0)
            .map(|(ci, y, x)| (ci, y, x, corrupted.get(ci, y, x)))
            .collect();
        for i in (1..entries.len()).rev() {
            let j = rng.below(i + 1);
            entries.swap(i, j);
        }
        let want = oracle(&layer, &ifm, &weights, &golden, &entries);
        prop_assert_eq!(verify_block(&layer, &ifm, &weights, &entries), want);
    }
}
