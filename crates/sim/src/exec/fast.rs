//! The functional fast tier.
//!
//! [`FastMachine`] runs a [`CompiledLayer`] without simulating cycles: the
//! layer's outputs are computed once with straight-line tensor arithmetic
//! (chunked lane loops over the flat CHW data — the scalar form of the PE
//! lanes, and exactly the golden reference's wrapping `i16`×`i16`→`i32`
//! contract, so outputs are bit-identical to the cycle tier), and each
//! block's cycle charge comes from the closed-form latency model the
//! mapping planned (`tiles × tile_latency` compute, [`DmaEngine`] transfer
//! cycles for DMA, folded through the same double-buffered pipeline
//! formula). Blocks are never materialized: a block is its data-free
//! [`BlockSlots`] geometry over the one output tensor, which is all that
//! fault landing and the ABFT check need.
//! `timing_report_matches_functional` in [`crate::compiled`] is the proof
//! obligation that makes this exact: on a fault-free run the
//! cycle-accurate machine measures precisely the planned cycles.
//!
//! Chaos fidelity: an installed [`FaultPlan`] is replayed over the same
//! `(run, tile, cycle)` lattice the cycle tier walks — structural draws
//! corrupt one of the block's output words (one bit, deterministically
//! chosen from the site), temporal draws burn budget/wall time with the
//! machine's exact stall/slowdown/wedge semantics — so ABFT detection,
//! watchdog preemption and cycle-budget liveness all keep firing under the
//! fast tier. What the fast tier does *not* model is microarchitectural fault propagation (a
//! flipped input word corrupting several outputs, or a GRF trim tripping a
//! hardware rule): every structural fault lands as a single-bit output
//! corruption, which ABFT catches at least as often as the cycle tier's.

use npcgra_arch::CgraSpec;
use npcgra_kernels::layout::BlockSlots;
use npcgra_mem::dma::double_buffered_cycles_exact;
use npcgra_mem::DmaEngine;
use npcgra_nn::{truncate, Acc, ConvKind, ConvLayer, Tensor, Word};

use crate::cancel::CancelToken;
use crate::compiled::CompiledLayer;
use crate::error::{SimCause, SimError};
use crate::fault::{FaultDims, FaultPlan, FaultSite, TemporalFault};
use crate::integrity::{BlockVerifier, IntegrityMode};
use crate::machine::check_liveness;
use crate::report::LayerReport;

use super::{BackendTier, ExecutionBackend};

/// Wall-clock pace of a wedged run — same as the cycle tier's, so watchdog
/// cancellation latency is identical across tiers.
const WEDGE_PACE: std::time::Duration = std::time::Duration::from_micros(100);

/// Chunk width of the lane loops (accumulators processed per chunk; wide
/// enough for the autovectorizer, small enough to stay in registers).
const LANE: usize = 16;

/// The functional fast-tier backend.
///
/// Carries the same chaos/liveness controls as [`Machine`](crate::Machine)
/// so the serving stack can program either tier identically.
#[derive(Debug)]
pub struct FastMachine {
    spec: CgraSpec,
    fault_plan: Option<FaultPlan>,
    integrity: IntegrityMode,
    cancel: Option<CancelToken>,
    cycle_budget: Option<u64>,
    /// Block runs executed so far (the `run` ordinal fault plans hash) —
    /// advances exactly like the cycle tier's, so retries of a failed
    /// block see an independent fault draw.
    runs: u64,
    faults_injected: u64,
    temporal_injected: u64,
}

impl FastMachine {
    /// Build a fast-tier backend for `spec`.
    #[must_use]
    pub fn new(spec: &CgraSpec) -> Self {
        FastMachine {
            spec: *spec,
            fault_plan: None,
            integrity: IntegrityMode::Off,
            cancel: None,
            cycle_budget: None,
            runs: 0,
            faults_injected: 0,
            temporal_injected: 0,
        }
    }

    /// Replay the fault plan over block `block`'s `(tile, cycle)` lattice of
    /// `n_tiles × per_tile` and return the compute-cycle charge; structural
    /// faults flip a bit of one of the block's outputs in `ofm`. Without a
    /// plan this is the pure closed-form charge plus the budget gate.
    fn charge_block(
        &mut self,
        compiled: &CompiledLayer,
        block: usize,
        (n_tiles, per_tile): (usize, u64),
        ofm: &mut Tensor,
    ) -> Result<u64, SimError> {
        // Borrow the fields one by one so the plan is read in place while
        // the counters advance.
        let FastMachine {
            spec,
            fault_plan,
            cancel,
            cycle_budget,
            runs,
            faults_injected,
            temporal_injected,
            ..
        } = self;
        let Some(plan) = fault_plan.as_ref() else {
            let clean = n_tiles as u64 * per_tile;
            if let Some(budget) = *cycle_budget {
                // The cycle tier checks the budget before each cycle with
                // `spent` = cycles so far, so a clean run of C cycles sees
                // checks at 0..C-1 and fails iff C-1 > budget. Locate the
                // first failing check for the error's (tile, cycle) fields.
                if clean > 0 && clean - 1 > budget {
                    let spent = budget + 1;
                    let tile = usize::try_from(spent / per_tile.max(1)).unwrap_or(usize::MAX);
                    return Err(SimError::new(
                        &compiled.block_label(block),
                        tile.min(n_tiles.saturating_sub(1)),
                        spent % per_tile.max(1),
                        SimCause::CycleBudgetExceeded { budget },
                    ));
                }
            }
            return Ok(clean);
        };
        let dims = fault_dims(spec);
        let mut compute = 0u64;
        for tile in 0..n_tiles {
            // Slowdown factors clear at the tile boundary, as on the
            // cycle tier.
            let mut slow_factor = 1u64;
            for cyc in 0..per_tile {
                let err = |cause: SimCause| SimError::new(&compiled.block_label(block), tile, cyc, cause);
                check_liveness(cancel.as_ref(), *cycle_budget, compute).map_err(err)?;
                for site in plan.sites_at(*runs, tile, cyc, &dims) {
                    match site {
                        FaultSite::Temporal(t) => {
                            *temporal_injected += 1;
                            match t {
                                TemporalFault::Stall { cycles } => {
                                    for burned in 0..cycles {
                                        compute += 1;
                                        check_liveness(cancel.as_ref(), *cycle_budget, compute).map_err(err)?;
                                        if burned % 1024 == 1023 {
                                            std::thread::yield_now();
                                        }
                                    }
                                }
                                TemporalFault::Slowdown { factor } => {
                                    slow_factor = slow_factor.max(u64::from(factor));
                                }
                                TemporalFault::Wedge => loop {
                                    compute += 1;
                                    check_liveness(cancel.as_ref(), *cycle_budget, compute).map_err(err)?;
                                    std::thread::sleep(WEDGE_PACE);
                                },
                            }
                        }
                        site => {
                            if flip_output(site, &compiled.block_slots(block), ofm) {
                                *faults_injected += 1;
                            }
                        }
                    }
                }
                compute += slow_factor;
            }
        }
        Ok(compute)
    }
}

/// The fault-address space of `spec`'s memories and array, as the cycle
/// tier sees it.
fn fault_dims(spec: &CgraSpec) -> FaultDims {
    let v_total = if spec.vmem_bytes == 0 {
        spec.hmem_bytes
    } else {
        spec.vmem_bytes
    };
    FaultDims {
        rows: spec.rows,
        cols: spec.cols,
        h_banks: spec.rows,
        h_words: (spec.hmem_bytes / spec.word_bytes / spec.rows).max(1),
        v_banks: spec.cols,
        v_words: (v_total / spec.word_bytes / spec.cols).max(1),
    }
}

impl ExecutionBackend for FastMachine {
    fn tier(&self) -> BackendTier {
        BackendTier::Fast
    }

    fn spec(&self) -> &CgraSpec {
        &self.spec
    }

    fn set_fault_plan(&mut self, plan: Option<FaultPlan>) {
        self.fault_plan = plan;
    }

    fn set_integrity_mode(&mut self, mode: IntegrityMode) {
        self.integrity = mode;
    }

    fn integrity_mode(&self) -> IntegrityMode {
        self.integrity
    }

    fn set_cancel_token(&mut self, token: Option<CancelToken>) {
        self.cancel = token;
    }

    fn set_cycle_budget(&mut self, budget: Option<u64>) {
        self.cycle_budget = budget;
    }

    fn faults_injected(&self) -> u64 {
        self.faults_injected
    }

    fn temporal_injected(&self) -> u64 {
        self.temporal_injected
    }

    fn run_layer(&mut self, compiled: &CompiledLayer, ifm: &Tensor, weights: &Tensor) -> Result<(Tensor, LayerReport), SimError> {
        assert_eq!(self.spec, *compiled.spec(), "machine/compiled-layer spec mismatch");
        let layer = compiled.layer();
        let mode = self.integrity;
        // One functional pass produces every output. The blocks then only
        // charge cycles, land faults and check their own slice of it.
        let mut ofm = functional_ofm(layer, ifm, weights);
        let mut verifier = (mode != IntegrityMode::Off).then(|| BlockVerifier::new(layer, ifm, weights));
        let engine = DmaEngine::new(&self.spec);
        let dma_cycles =
            engine.transfer_cycles(compiled.block_input_words()) + engine.transfer_cycles(compiled.block_output_words());
        let lattice = (compiled.tiles_per_block(), compiled.tile_latency());
        let mut blocks: Vec<(u64, u64)> = Vec::with_capacity(compiled.num_blocks());
        let (mut checked, mut failed, mut recovered) = (0u64, 0u64, 0u64);
        for i in 0..compiled.num_blocks() {
            self.runs += 1;
            // Block-boundary cancellation check, as on the cycle tier. A
            // fast-tier block runs in microseconds of wall time, so the
            // per-cycle cancellation granularity of the cycle tier adds
            // nothing here (temporal faults re-check per burned cycle).
            check_liveness(self.cancel.as_ref(), None, 0)
                .map_err(|cause| SimError::new(&compiled.block_label(i), 0, 0, cause))?;
            let compute = self.charge_block(compiled, i, lattice, &mut ofm)?;
            if let Some(verifier) = verifier.as_mut() {
                checked += 1;
                let slots = compiled.block_slots(i);
                if let Err(v) = verifier.verify(&slots, &ofm) {
                    failed += 1;
                    if mode == IntegrityMode::Verify {
                        return Err(SimError::new(layer.name(), i, 0, SimCause::IntegrityViolation(v)));
                    }
                    verifier.heal(&slots, &mut ofm);
                    recovered += 1;
                }
            }
            blocks.push((compute, dma_cycles));
        }
        let mut report = LayerReport::for_spec(layer.name(), &self.spec);
        report.cycles = double_buffered_cycles_exact(&blocks);
        report.compute_cycles = blocks.iter().map(|b| b.0).sum();
        report.dma_cycles = blocks.iter().map(|b| b.1).sum();
        report.macs = layer.macs();
        report.integrity_checked = checked;
        report.integrity_failed = failed;
        report.integrity_recovered = recovered;
        Ok((ofm, report))
    }
}

/// `splitmix64` (local copy of the fault module's private mixer): derives
/// the deterministic entry index a structural fault corrupts.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Land a structural fault site on the block's outputs: flip one bit of one
/// output word, both chosen as a pure function of the site (the word is
/// the `idx`-th of the block's slots, in slot order). Returns whether
/// anything changed (empty blocks absorb the fault, mirroring the cycle
/// tier's flips into unloaded resources).
fn flip_output(site: FaultSite, slots: &BlockSlots, ofm: &mut Tensor) -> bool {
    if slots.is_empty() {
        return false;
    }
    let (salt, a, b, bit) = match site {
        FaultSite::HBankBit { bank, offset, bit } => (0x48u64, bank as u64, offset as u64, bit),
        FaultSite::VBankBit { bank, offset, bit } => (0x56, bank as u64, offset as u64, bit),
        FaultSite::GrfBit { index, bit } => (0x47, index as u64, 0, bit),
        FaultSite::GrfTrim { keep } => (0x54, keep as u64, 0, 0),
        FaultSite::PeOutBit { r, c, bit } => (0x50, r as u64, c as u64, bit),
        FaultSite::Temporal(_) => return false,
    };
    let h = splitmix64(salt ^ a.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ b.rotate_left(32));
    let idx = usize::try_from(h % slots.len() as u64).expect("index fits");
    let (c, y, x) = slots.slot(idx);
    ofm.set(c, y, x, ofm.get(c, y, x) ^ (1 as Word) << (bit % Word::BITS));
    true
}

/// Compute a whole layer's OFM with straight-line host arithmetic —
/// bit-identical to [`npcgra_nn::reference::run_layer`] (same wrapping
/// `i16`×`i16`→`i32` accumulate, same [`truncate`] finish; wrapping `i32`
/// addition is associative and commutative, so the tap-major accumulation
/// order used here for lane-friendly inner loops changes nothing), but
/// structured as chunked loops over the flat CHW planes so the compiler
/// vectorizes the hot paths.
///
/// # Panics
///
/// Panics if `ifm`/`weights` do not match the layer's shapes (same
/// contract as the golden reference).
#[must_use]
pub fn functional_ofm(layer: &ConvLayer, ifm: &Tensor, weights: &Tensor) -> Tensor {
    match layer.kind() {
        ConvKind::Pointwise => pointwise_ofm(layer, ifm, weights),
        ConvKind::Depthwise => depthwise_ofm(layer, ifm, weights),
        ConvKind::Standard => standard_ofm(layer, ifm, weights),
    }
}

/// Flush an accumulator plane into output channel `o`.
fn store_plane(layer: &ConvLayer, out: &mut Tensor, o: usize, accs: &[Acc]) {
    let act = layer.activation();
    let base = out.index(o, 0, 0);
    for (dst, &a) in out.as_mut_slice()[base..base + accs.len()].iter_mut().zip(accs) {
        *dst = truncate(act.apply_acc(a));
    }
}

fn pointwise_ofm(layer: &ConvLayer, ifm: &Tensor, weights: &Tensor) -> Tensor {
    let (ni, no) = (layer.in_channels(), layer.out_channels());
    let (h, w) = (layer.out_h(), layer.out_w());
    let hw = h * w;
    let x = ifm.as_slice();
    let mut out = Tensor::zeros(no, h, w);
    let mut accs: Vec<Acc> = vec![0; hw];
    for o in 0..no {
        accs.fill(0);
        for i in 0..ni {
            let wv = Acc::from(weights.get(o, 0, i));
            if wv == 0 {
                // A zero weight contributes exactly 0 to the wrapping sum.
                continue;
            }
            let plane = &x[ifm.index(i, 0, 0)..][..hw];
            for (alane, xlane) in accs.chunks_mut(LANE).zip(plane.chunks(LANE)) {
                for (a, &xv) in alane.iter_mut().zip(xlane) {
                    *a = a.wrapping_add(Acc::from(xv).wrapping_mul(wv));
                }
            }
        }
        store_plane(layer, &mut out, o, &accs);
    }
    out
}

/// Accumulate one kernel tap (`ky`, `kx`) of input channel `c`, weighted
/// `wv`, into the `oh`×`ow` accumulator plane. The valid output range is
/// hoisted out of the inner loop so the zero-padding border costs nothing
/// and the stride-1 common case is a straight slice zip.
#[allow(clippy::too_many_arguments)]
fn accumulate_tap(accs: &mut [Acc], layer: &ConvLayer, x: &[Word], ifm: &Tensor, c: usize, wv: Acc, ky: usize, kx: usize) {
    let (s, pad) = (layer.s(), layer.pad());
    let (ih, iw) = (layer.in_h() as isize, layer.in_w() as isize);
    let (oh, ow) = (layer.out_h(), layer.out_w());
    let off_x = kx as isize - pad as isize;
    // Valid ox range: 0 <= ox*s + off_x < iw.
    let lo_x = if off_x >= 0 {
        0
    } else {
        usize::try_from(-off_x).expect("positive").div_ceil(s)
    };
    let hi_x = if iw <= off_x {
        0
    } else {
        (usize::try_from(iw - 1 - off_x).expect("positive") / s + 1).min(ow)
    };
    if lo_x >= hi_x {
        return;
    }
    for (oy, arow) in accs.chunks_exact_mut(ow).enumerate().take(oh) {
        let iy = (oy * s + ky) as isize - pad as isize;
        if iy < 0 || iy >= ih {
            continue;
        }
        let row = ifm.index(c, usize::try_from(iy).expect("in range"), 0);
        let arow = &mut arow[lo_x..hi_x];
        let first_ix = usize::try_from((lo_x * s) as isize + off_x).expect("in range");
        if s == 1 {
            let xrow = &x[row + first_ix..][..arow.len()];
            for (a, &xv) in arow.iter_mut().zip(xrow) {
                *a = a.wrapping_add(Acc::from(xv).wrapping_mul(wv));
            }
        } else {
            for (j, a) in arow.iter_mut().enumerate() {
                *a = a.wrapping_add(Acc::from(x[row + first_ix + j * s]).wrapping_mul(wv));
            }
        }
    }
}

fn depthwise_ofm(layer: &ConvLayer, ifm: &Tensor, weights: &Tensor) -> Tensor {
    let ch = layer.in_channels();
    let k = layer.k();
    let (oh, ow) = (layer.out_h(), layer.out_w());
    let x = ifm.as_slice();
    let mut out = Tensor::zeros(ch, oh, ow);
    let mut accs: Vec<Acc> = vec![0; oh * ow];
    for c in 0..ch {
        accs.fill(0);
        for ky in 0..k {
            for kx in 0..k {
                let wv = Acc::from(weights.get(c, ky, kx));
                if wv == 0 {
                    continue;
                }
                accumulate_tap(&mut accs, layer, x, ifm, c, wv, ky, kx);
            }
        }
        store_plane(layer, &mut out, c, &accs);
    }
    out
}

fn standard_ofm(layer: &ConvLayer, ifm: &Tensor, weights: &Tensor) -> Tensor {
    let groups = layer.groups();
    let cin_g = layer.in_channels() / groups;
    let cout_g = layer.out_channels() / groups;
    let k = layer.k();
    let (oh, ow) = (layer.out_h(), layer.out_w());
    let x = ifm.as_slice();
    let mut out = Tensor::zeros(layer.out_channels(), oh, ow);
    let mut accs: Vec<Acc> = vec![0; oh * ow];
    for o in 0..layer.out_channels() {
        accs.fill(0);
        let grp = o / cout_g;
        for ci in 0..cin_g {
            let c = grp * cin_g + ci;
            for ky in 0..k {
                for kx in 0..k {
                    let wv = Acc::from(weights.get(o, ky, kx * cin_g + ci));
                    if wv == 0 {
                        continue;
                    }
                    accumulate_tap(&mut accs, layer, x, ifm, c, wv, ky, kx);
                }
            }
        }
        store_plane(layer, &mut out, o, &accs);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::Fault;
    use crate::layer::MappingKind;
    use crate::machine::Machine;
    use npcgra_nn::{reference, Activation};

    fn spec4() -> CgraSpec {
        CgraSpec::np_cgra(4, 4)
    }

    fn layers() -> Vec<ConvLayer> {
        vec![
            ConvLayer::pointwise("pw", 12, 10, 6, 7),
            ConvLayer::pointwise("pw.relu", 9, 7, 5, 5).with_activation(Activation::Relu),
            ConvLayer::depthwise("dw.s1", 3, 11, 13, 3, 1, 1),
            ConvLayer::depthwise("dw.s2", 2, 12, 12, 3, 2, 1),
            ConvLayer::depthwise("dw.k5", 2, 14, 14, 5, 1, 2),
            ConvLayer::depthwise("dw.relu", 4, 10, 10, 3, 1, 1).with_activation(Activation::Relu),
        ]
    }

    #[test]
    fn functional_ofm_matches_reference_on_all_kinds() {
        let mut all = layers();
        all.push(ConvLayer::standard("std", 3, 4, 8, 8, 3, 1, 1, 1));
        all.push(ConvLayer::standard("std.g2", 4, 6, 9, 9, 3, 2, 1, 2).with_activation(Activation::Relu));
        for layer in all {
            let ifm = Tensor::random(layer.in_channels(), layer.in_h(), layer.in_w(), 5);
            let w = layer.random_weights(6);
            let golden = reference::run_layer(&layer, &ifm, &w).unwrap();
            assert_eq!(functional_ofm(&layer, &ifm, &w), golden, "{}", layer.name());
        }
    }

    #[test]
    fn fast_tier_matches_cycle_tier_outputs_and_cycles() {
        for layer in layers() {
            let ifm = Tensor::random(layer.in_channels(), layer.in_h(), layer.in_w(), 7);
            let w = layer.random_weights(8);
            let compiled = CompiledLayer::compile(&layer, &spec4(), MappingKind::Auto).unwrap();
            let (slow, rs) = compiled.run_on(&mut Machine::new(&spec4()), &ifm, &w).unwrap();
            let mut fast = FastMachine::new(&spec4());
            let (quick, rf) = fast.run_layer(&compiled, &ifm, &w).unwrap();
            assert_eq!(quick, slow, "{}", layer.name());
            assert_eq!(rf.cycles, rs.cycles, "{}", layer.name());
            assert_eq!(rf.compute_cycles, rs.compute_cycles, "{}", layer.name());
            assert_eq!(rf.dma_cycles, rs.dma_cycles, "{}", layer.name());
            assert_eq!(rf.macs, rs.macs, "{}", layer.name());
        }
    }

    #[test]
    fn fast_tier_charge_equals_the_closed_form_timing_report() {
        for layer in layers() {
            let ifm = Tensor::random(layer.in_channels(), layer.in_h(), layer.in_w(), 9);
            let w = layer.random_weights(10);
            let compiled = CompiledLayer::compile(&layer, &spec4(), MappingKind::Auto).unwrap();
            let (_, rf) = FastMachine::new(&spec4()).run_layer(&compiled, &ifm, &w).unwrap();
            let timed = compiled.timing_report();
            assert_eq!(rf.cycles, timed.cycles, "{}", layer.name());
            assert_eq!(rf.compute_cycles, timed.compute_cycles, "{}", layer.name());
        }
    }

    #[test]
    fn structural_fault_is_caught_by_abft_and_retries_independently() {
        let layer = ConvLayer::pointwise("pw", 8, 8, 4, 4);
        let compiled = CompiledLayer::compile(&layer, &spec4(), MappingKind::Auto).unwrap();
        let ifm = Tensor::random(8, 4, 4, 1);
        let w = layer.random_weights(2);
        let mut fast = FastMachine::new(&spec4());
        fast.set_fault_plan(Some(FaultPlan::explicit(vec![Fault {
            tile: 0,
            cycle: 1,
            site: FaultSite::PeOutBit { r: 0, c: 0, bit: 3 },
        }])));
        fast.set_integrity_mode(IntegrityMode::Verify);
        let err = fast.run_layer(&compiled, &ifm, &w).unwrap_err();
        assert!(matches!(err.cause, SimCause::IntegrityViolation(_)), "got {err}");
        assert!(fast.faults_injected() > 0);
    }

    #[test]
    fn structural_faults_land_on_the_materialized_slot() {
        // Every block takes the explicit fault; it must flip the word at the
        // hashed index of the block's materialized `ofm_slots`.
        let (site, salt, a, b, bit) = (
            FaultSite::VBankBit {
                bank: 2,
                offset: 5,
                bit: 9,
            },
            0x56u64,
            2u64,
            5u64,
            9,
        );
        for (layer, kind) in [
            (ConvLayer::pointwise("pw", 12, 10, 6, 7), MappingKind::Auto),
            (ConvLayer::depthwise("dw.s1", 3, 11, 13, 3, 1, 1), MappingKind::Auto),
            (ConvLayer::depthwise("dw.s2", 2, 12, 12, 3, 2, 1), MappingKind::Auto),
            (ConvLayer::depthwise("dw.mm", 3, 7, 9, 3, 1, 1), MappingKind::MatmulDwc),
            (ConvLayer::depthwise("dw.b", 9, 6, 6, 3, 1, 1), MappingKind::BatchedDwcS1),
        ] {
            let compiled = CompiledLayer::compile(&layer, &spec4(), kind).unwrap();
            let ifm = Tensor::random(layer.in_channels(), layer.in_h(), layer.in_w(), 3);
            let w = layer.random_weights(4);
            let mut expected = functional_ofm(&layer, &ifm, &w);
            let prepared = compiled.prepare(&ifm);
            let h = splitmix64(salt ^ a.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ b.rotate_left(32));
            for i in 0..compiled.num_blocks() {
                let slots = compiled.materialize(i, &prepared, &w).ofm_slots;
                let s = slots[usize::try_from(h % slots.len() as u64).unwrap()];
                expected.set(s.c, s.y, s.x, expected.get(s.c, s.y, s.x) ^ (1 << bit));
            }
            let mut fast = FastMachine::new(&spec4());
            fast.set_fault_plan(Some(FaultPlan::explicit(vec![Fault { tile: 0, cycle: 0, site }])));
            let (ofm, _) = fast.run_layer(&compiled, &ifm, &w).unwrap();
            assert_eq!(ofm, expected, "{}", layer.name());
            assert_eq!(fast.faults_injected(), compiled.num_blocks() as u64);
        }
    }

    #[test]
    fn recompute_mode_heals_fast_tier_corruption() {
        let layer = ConvLayer::depthwise("dw", 3, 8, 8, 3, 1, 1);
        let compiled = CompiledLayer::compile(&layer, &spec4(), MappingKind::Auto).unwrap();
        let ifm = Tensor::random(3, 8, 8, 3);
        let w = layer.random_weights(4);
        let golden = reference::run_layer(&layer, &ifm, &w).unwrap();
        let mut fast = FastMachine::new(&spec4());
        fast.set_fault_plan(Some(FaultPlan::explicit(vec![Fault {
            tile: 0,
            cycle: 0,
            site: FaultSite::HBankBit {
                bank: 1,
                offset: 2,
                bit: 7,
            },
        }])));
        fast.set_integrity_mode(IntegrityMode::VerifyAndRecompute);
        let (ofm, report) = fast.run_layer(&compiled, &ifm, &w).unwrap();
        assert_eq!(ofm, golden, "healed output is golden");
        assert!(report.integrity_recovered > 0);
    }

    #[test]
    fn cycle_budget_semantics_match_the_cycle_tier_exactly() {
        let layer = ConvLayer::pointwise("pw", 8, 8, 4, 4);
        let compiled = CompiledLayer::compile(&layer, &spec4(), MappingKind::Auto).unwrap();
        let ifm = Tensor::random(8, 4, 4, 1);
        let w = layer.random_weights(2);
        let block = compiled.block_compute_cycles();
        // Budget == block cycles: both tiers finish (checks see 0..C-1).
        let mut fast = FastMachine::new(&spec4());
        fast.set_cycle_budget(Some(block));
        assert!(fast.run_layer(&compiled, &ifm, &w).is_ok());
        let mut machine = Machine::new(&spec4());
        machine.set_cycle_budget(Some(block));
        assert!(compiled.run_on(&mut machine, &ifm, &w).is_ok());
        // Budget == block - 2: both tiers fail with the same cause.
        let tight = block - 2;
        let mut fast = FastMachine::new(&spec4());
        fast.set_cycle_budget(Some(tight));
        let ef = fast.run_layer(&compiled, &ifm, &w).unwrap_err();
        let mut machine = Machine::new(&spec4());
        machine.set_cycle_budget(Some(tight));
        let em = compiled.run_on(&mut machine, &ifm, &w).unwrap_err();
        assert_eq!(ef.cause, em.cause);
        assert_eq!(ef.cause, SimCause::CycleBudgetExceeded { budget: tight });
    }

    #[test]
    fn wedge_is_broken_by_cancel_token() {
        let layer = ConvLayer::pointwise("pw", 8, 8, 4, 4);
        let compiled = CompiledLayer::compile(&layer, &spec4(), MappingKind::Auto).unwrap();
        let ifm = Tensor::random(8, 4, 4, 1);
        let w = layer.random_weights(2);
        let mut fast = FastMachine::new(&spec4());
        fast.set_fault_plan(Some(FaultPlan::explicit(vec![Fault {
            tile: 0,
            cycle: 1,
            site: FaultSite::Temporal(TemporalFault::Wedge),
        }])));
        let token = CancelToken::new();
        fast.set_cancel_token(Some(token.clone()));
        let canceller = std::thread::spawn(move || {
            std::thread::sleep(std::time::Duration::from_millis(5));
            token.cancel();
        });
        let err = fast.run_layer(&compiled, &ifm, &w).unwrap_err();
        canceller.join().unwrap();
        assert_eq!(err.cause, SimCause::Cancelled);
        assert_eq!(fast.temporal_injected(), 1);
    }

    #[test]
    fn stall_inflates_the_charge_but_not_the_values() {
        let layer = ConvLayer::pointwise("pw", 8, 8, 4, 4);
        let compiled = CompiledLayer::compile(&layer, &spec4(), MappingKind::Auto).unwrap();
        let ifm = Tensor::random(8, 4, 4, 1);
        let w = layer.random_weights(2);
        let (clean_ofm, clean) = FastMachine::new(&spec4()).run_layer(&compiled, &ifm, &w).unwrap();
        let mut fast = FastMachine::new(&spec4());
        fast.set_fault_plan(Some(FaultPlan::explicit(vec![Fault {
            tile: 0,
            cycle: 2,
            site: FaultSite::Temporal(TemporalFault::Stall { cycles: 37 }),
        }])));
        let (ofm, stalled) = fast.run_layer(&compiled, &ifm, &w).unwrap();
        assert_eq!(ofm, clean_ofm, "a stall loses time, not data");
        assert_eq!(
            stalled.compute_cycles,
            clean.compute_cycles + 37 * compiled.num_blocks() as u64,
            "explicit faults repeat per block"
        );
        assert_eq!(fast.faults_injected(), 0);
    }
}
