//! Differential property tests: the functional fast tier versus the
//! cycle-accurate machine.
//!
//! The fast tier's contract is total indistinguishability on fault-free
//! runs: **bit-exact outputs** (same `Word` wrapping arithmetic, same
//! fused activations, same truncation) and **identical charged cycles**
//! (the closed-form latency models of §5 — `N_i + λ` per DWC output, `K² +
//! N_c − 1 + λ` per PWC column — which [`CompiledLayer::timing_report`]
//! folds through the same double-buffered DMA pipeline the machine
//! simulates). Any layer geometry where either diverges is a bug in one
//! tier or the other, so we let proptest hunt the geometry space instead
//! of hand-picking shapes — under every mapping kind, on small and large
//! machines, with ABFT verification off and on. The fast tier never
//! materializes a block, so a last property pins each block's data-free
//! geometry to what its materialized program extracts.
//!
//! Standard convolutions never reach a `CompiledLayer` (they lower through
//! im2col); for them the fast tier's functional kernel is checked against
//! the golden host reference directly, grouped variants included.

use npcgra_arch::CgraSpec;
use npcgra_nn::{reference, Activation, ConvLayer, Tensor};
use npcgra_sim::{functional_ofm, CompiledLayer, ExecutionBackend, FastMachine, IntegrityMode, Machine, MappingKind};
use proptest::prelude::*;

fn activation_strategy() -> impl Strategy<Value = Activation> {
    prop_oneof![
        Just(Activation::None),
        Just(Activation::Relu),
        (1u8..5).prop_map(|shift| Activation::LeakyRelu { shift }),
    ]
}

/// Random DWC geometries: channels, size, kernel, stride, activation.
/// Padding is kept at `k/2` (the paper's "same"-ish padding) so every
/// geometry maps; strides of 2 exercise the strided AGU paths.
fn dwc_strategy() -> impl Strategy<Value = ConvLayer> {
    (
        1usize..6,
        4usize..12,
        4usize..12,
        prop_oneof![Just(3usize), Just(5usize)],
        1usize..3,
        activation_strategy(),
    )
        .prop_map(|(ch, h, w, k, s, act)| ConvLayer::depthwise("parity.dw", ch, h, w, k, s, k / 2).with_activation(act))
}

/// Random PWC geometries: in/out channels, size, activation.
fn pwc_strategy() -> impl Strategy<Value = ConvLayer> {
    (1usize..7, 1usize..7, 2usize..10, 2usize..10, activation_strategy())
        .prop_map(|(ci, co, h, w, act)| ConvLayer::pointwise("parity.pw", ci, co, h, w).with_activation(act))
}

/// Random standard-conv geometries, grouped variants included: `ci` is a
/// multiple of `groups` by construction.
fn standard_strategy() -> impl Strategy<Value = ConvLayer> {
    (
        1usize..4,
        1usize..5,
        1usize..4,
        3usize..8,
        3usize..8,
        1usize..3,
        activation_strategy(),
    )
        .prop_map(|(groups, ci_per, co_per, h, w, s, act)| {
            ConvLayer::standard("parity.std", ci_per * groups, co_per * groups, h, w, 3, s, 1, groups).with_activation(act)
        })
}

/// The mapping kinds a layer can be compiled with (`Auto` picks the
/// paper's mapping; the other two are the channel-batched §5.4 schedule and
/// the matmul lowering of Table 5).
const KINDS: [MappingKind; 3] = [MappingKind::Auto, MappingKind::BatchedDwcS1, MappingKind::MatmulDwc];

/// The 4×4 machine, Table 4's 8×8 one, or a 4×4 machine with 1 KB local
/// memories, which splits even these small layers into many blocks.
fn spec_strategy() -> impl Strategy<Value = CgraSpec> {
    prop_oneof![
        Just(CgraSpec::np_cgra(4, 4)),
        Just(CgraSpec::table4()),
        Just(small_memory_spec()),
    ]
}

fn small_memory_spec() -> CgraSpec {
    let mut spec = CgraSpec::np_cgra(4, 4);
    spec.hmem_bytes = 1024;
    spec.vmem_bytes = 1024;
    spec
}

/// Run `layer`, compiled with `kind` on `spec`, through both tiers and
/// assert the full parity contract: outputs, total cycles, compute cycles,
/// DMA cycles and MAC counts all identical — and equal to the closed-form
/// timing report. Both tiers also run under `IntegrityMode::Verify`, where
/// every block must pass its ABFT check and change nothing.
fn assert_tier_parity(layer: &ConvLayer, spec: &CgraSpec, kind: MappingKind, seed: u64) -> Result<(), TestCaseError> {
    let compiled = match CompiledLayer::compile(layer, spec, kind) {
        Ok(c) => c,
        // A geometry the mapper rejects is outside the contract; skip it.
        Err(_) => return Ok(()),
    };
    let ifm = Tensor::random(layer.in_channels(), layer.in_h(), layer.in_w(), seed);
    let weights = layer.random_weights(seed ^ 0xA5A5);

    let mut cycle = Machine::new(spec);
    let (golden_ofm, golden_report) = compiled.run_on(&mut cycle, &ifm, &weights).expect("cycle tier runs");
    let mut fast = FastMachine::new(spec);
    let (fast_ofm, fast_report) = fast.run_layer(&compiled, &ifm, &weights).expect("fast tier runs");

    prop_assert_eq!(&fast_ofm, &golden_ofm, "fast-tier output bits diverged");
    prop_assert_eq!(fast_report.cycles, golden_report.cycles, "charged cycles diverged");
    prop_assert_eq!(
        fast_report.compute_cycles,
        golden_report.compute_cycles,
        "compute cycles diverged"
    );
    prop_assert_eq!(fast_report.dma_cycles, golden_report.dma_cycles, "DMA cycles diverged");
    prop_assert_eq!(fast_report.macs, golden_report.macs, "MAC count diverged");

    let closed_form = compiled.timing_report();
    prop_assert_eq!(
        fast_report.cycles,
        closed_form.cycles,
        "analytical charge left the closed-form model"
    );

    // And both tiers must agree with the golden host reference.
    let host = reference::run_layer(layer, &ifm, &weights).expect("reference runs");
    prop_assert_eq!(&fast_ofm, &host, "tiers agree with each other but not the host reference");

    // Verified runs: every block checked, none failing, nothing changed.
    let blocks = compiled.num_blocks() as u64;
    cycle.set_integrity_mode(IntegrityMode::Verify);
    fast.set_integrity_mode(IntegrityMode::Verify);
    let (cycle_ofm, cycle_report) = compiled.run_on(&mut cycle, &ifm, &weights).expect("verified cycle tier runs");
    let (fast_ofm, fast_report) = fast.run_layer(&compiled, &ifm, &weights).expect("verified fast tier runs");
    for (ofm, report) in [(&cycle_ofm, &cycle_report), (&fast_ofm, &fast_report)] {
        prop_assert_eq!(ofm, &host, "a verified run changed the output");
        prop_assert_eq!(report.cycles, closed_form.cycles, "a verified run changed the charge");
        prop_assert_eq!(report.integrity_checked, blocks, "every block is checked");
        prop_assert_eq!(report.integrity_failed, 0, "clean blocks pass");
    }
    Ok(())
}

/// Assert that every block's data-free geometry lists exactly the outputs
/// its materialized program extracts, in the same order.
fn assert_geometry_matches_materialize(
    layer: &ConvLayer,
    spec: &CgraSpec,
    kind: MappingKind,
    seed: u64,
) -> Result<(), TestCaseError> {
    let Ok(compiled) = CompiledLayer::compile(layer, spec, kind) else {
        return Ok(());
    };
    let ifm = Tensor::random(layer.in_channels(), layer.in_h(), layer.in_w(), seed);
    let weights = layer.random_weights(seed ^ 0x5A5A);
    let prepared = compiled.prepare(&ifm);
    let mut covered = 0;
    for i in 0..compiled.num_blocks() {
        let prog = compiled.materialize(i, &prepared, &weights);
        let slots = compiled.block_slots(i);
        let materialized: Vec<(usize, usize, usize)> = prog.ofm_slots.iter().map(|s| (s.c, s.y, s.x)).collect();
        prop_assert_eq!(
            slots.iter().collect::<Vec<_>>(),
            materialized,
            "block {} of {:?}",
            i,
            compiled
        );
        prop_assert_eq!(slots.len(), prog.ofm_slots.len());
        prop_assert_eq!(compiled.block_label(i), prog.label);
        prop_assert_eq!(compiled.tiles_per_block(), prog.tiles.tiles());
        prop_assert_eq!(compiled.tile_latency(), prog.mapping.tile_latency());
        covered += slots.len();
    }
    // The blocks partition the output.
    prop_assert_eq!(covered, layer.out_channels() * layer.out_h() * layer.out_w());
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random depthwise layers under every mapping kind on both machines:
    /// bit-exact outputs and identical cycle charges across tiers, equal to
    /// the `N_i + λ` closed form.
    #[test]
    fn dwc_layers_are_tier_identical(
        layer in dwc_strategy(),
        spec in spec_strategy(),
        kind in 0usize..KINDS.len(),
        seed in any::<u64>(),
    ) {
        assert_tier_parity(&layer, &spec, KINDS[kind], seed)?;
    }

    /// Random pointwise layers on both machines: bit-exact outputs and
    /// identical cycle charges across tiers, equal to the `K² + N_c − 1 + λ`
    /// closed form.
    #[test]
    fn pwc_layers_are_tier_identical(layer in pwc_strategy(), spec in spec_strategy(), seed in any::<u64>()) {
        assert_tier_parity(&layer, &spec, MappingKind::Auto, seed)?;
    }

    /// Every mapping's data-free block geometry equals what its
    /// materialized blocks extract, slot for slot.
    #[test]
    fn block_geometry_equals_materialized_slots(
        layer in prop_oneof![dwc_strategy(), pwc_strategy()],
        spec in spec_strategy(),
        kind in 0usize..KINDS.len(),
        seed in any::<u64>(),
    ) {
        assert_geometry_matches_materialize(&layer, &spec, KINDS[kind], seed)?;
    }

    /// Random standard convolutions (grouped included): the fast tier's
    /// functional kernel matches the golden host reference bit-exactly.
    /// (`CompiledLayer` rejects standard convs, so there is no schedule to
    /// replay — in serving they stay on the im2col cycle-accurate path.)
    #[test]
    fn standard_conv_functional_kernel_matches_reference(layer in standard_strategy(), seed in any::<u64>()) {
        let ifm = Tensor::random(layer.in_channels(), layer.in_h(), layer.in_w(), seed);
        let weights = layer.random_weights(seed ^ 0x57D);
        let host = reference::run_layer(&layer, &ifm, &weights).expect("reference runs");
        prop_assert_eq!(functional_ofm(&layer, &ifm, &weights), host);
    }
}
