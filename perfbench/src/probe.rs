//! The standalone per-layer probe of the traced run: for every DSC layer a
//! workload serves, time the simulator's public entry points one by one
//! and compare what each tier computes and charges.
//!
//! Per layer it times `CompiledLayer::compile`, `functional_ofm`,
//! `prepare` plus `materialize` over all blocks, `FastMachine::run_layer`
//! with ABFT off and with `Verify`, and `CompiledLayer::run_on` on a
//! cycle-accurate `Machine` with `Verify`. Each timing is the median of
//! [`REPS`] calls. Every output is checked against the golden reference,
//! and both tiers' charged cycles against `timing_report`.

use std::hint::black_box;
use std::time::Instant;

use npcgra_arch::CgraSpec;
use npcgra_nn::{ConvLayer, Tensor, Word};
use npcgra_sim::{
    functional_ofm, CompiledLayer, ExecutionBackend, FastMachine, IntegrityMode, Machine, MappingKind, ResolvedMapping,
};

use crate::stats::median;

/// Timed calls per entry point per layer.
pub const REPS: usize = 3;

/// The mapping kinds the per-layer metrics are split by (`<k>`).
pub const KINDS: [&str; 3] = ["pwc", "dwc_s1", "dwc_general"];

fn kind_index(m: ResolvedMapping) -> Option<usize> {
    match m {
        ResolvedMapping::Pwc => Some(0),
        ResolvedMapping::DwcS1 => Some(1),
        ResolvedMapping::DwcGeneral => Some(2),
        ResolvedMapping::MatmulDwc | ResolvedMapping::BatchedDwcS1 => None,
    }
}

/// Sums over the layers of one mapping kind (times in µs).
#[derive(Debug, Clone, Copy, Default)]
pub struct KindStats {
    pub layers: usize,
    pub functional_us: f64,
    pub prepare_materialize_us: f64,
    pub fast_off_us: f64,
    pub fast_verify_us: f64,
    pub cycle_us: f64,
    /// Cycles `timing_report` predicts.
    pub cycles: u64,
    /// Layers where the fast tier, the cycle tier and `timing_report`
    /// disagree on cycles.
    pub tier_cycle_mismatch: usize,
}

impl KindStats {
    /// Mean µs per layer of one of the summed times.
    pub fn per_layer(&self, total_us: f64) -> f64 {
        if self.layers == 0 {
            0.0
        } else {
            total_us / self.layers as f64
        }
    }
}

#[derive(Debug, Clone, Default)]
pub struct Probe {
    pub kinds: [KindStats; 3],
    /// Sum over layers of the median `CompiledLayer::compile` time.
    pub compile_ms: f64,
    /// Outputs (any entry point) that differ from the reference.
    pub bit_mismatches: usize,
    /// Layers whose mapping is outside [`KINDS`] (`Auto` never picks one).
    pub other_layers: usize,
}

fn time_us<T>(mut f: impl FnMut() -> T) -> (f64, T) {
    let mut times = Vec::with_capacity(REPS);
    let mut last = None;
    for _ in 0..REPS {
        let t0 = Instant::now();
        let out = black_box(f());
        times.push(t0.elapsed().as_secs_f64() * 1e6);
        last = Some(out);
    }
    (median(&times).expect("REPS > 0"), last.expect("REPS > 0"))
}

/// Probe `layers[i]` on `inputs[i]` with `weights[i]`; `refs[i]` is the
/// golden output.
pub fn run(
    spec: &CgraSpec,
    layers: &[ConvLayer],
    weights: &[Tensor],
    inputs: &[&Tensor],
    refs: &[&[Word]],
) -> Result<Probe, String> {
    let mut probe = Probe::default();
    let mut fast = FastMachine::new(spec);
    let mut machine = Machine::new(spec);
    machine.set_integrity_mode(IntegrityMode::Verify);
    for (i, layer) in layers.iter().enumerate() {
        let (w, ifm, expect) = (&weights[i], inputs[i], refs[i]);
        let (compile_us, compiled) = time_us(|| CompiledLayer::compile(layer, spec, MappingKind::Auto));
        let compiled = compiled.map_err(|e| format!("compiling {}: {e}", layer.name()))?;
        probe.compile_ms += compile_us / 1e3;
        let Some(k) = kind_index(compiled.mapping()) else {
            probe.other_layers += 1;
            continue;
        };
        let predicted = compiled.timing_report().cycles;

        let (functional_us, ofm) = time_us(|| functional_ofm(layer, ifm, w));
        let (prep_us, ()) = time_us(|| {
            let prepared = compiled.prepare(ifm);
            for b in 0..compiled.num_blocks() {
                black_box(compiled.materialize(b, &prepared, w));
            }
        });
        fast.set_integrity_mode(IntegrityMode::Off);
        let (off_us, off) = time_us(|| fast.run_layer(&compiled, ifm, w));
        fast.set_integrity_mode(IntegrityMode::Verify);
        let (verify_us, verify) = time_us(|| fast.run_layer(&compiled, ifm, w));
        let (cycle_us, cycle) = time_us(|| compiled.run_on(&mut machine, ifm, w));
        let (off, verify, cycle) = (
            off.map_err(|e| format!("fast tier, {}: {e}", layer.name()))?,
            verify.map_err(|e| format!("fast tier (verify), {}: {e}", layer.name()))?,
            cycle.map_err(|e| format!("cycle tier, {}: {e}", layer.name()))?,
        );

        probe.bit_mismatches += [ofm.as_slice(), off.0.as_slice(), verify.0.as_slice(), cycle.0.as_slice()]
            .iter()
            .filter(|out| **out != expect)
            .count();
        let s = &mut probe.kinds[k];
        s.layers += 1;
        s.functional_us += functional_us;
        s.prepare_materialize_us += prep_us;
        s.fast_off_us += off_us;
        s.fast_verify_us += verify_us;
        s.cycle_us += cycle_us;
        s.cycles += predicted;
        if [off.1.cycles, verify.1.cycles, cycle.1.cycles]
            .iter()
            .any(|&c| c != predicted)
        {
            s.tier_cycle_mismatch += 1;
        }
    }
    Ok(probe)
}
