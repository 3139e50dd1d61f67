//! The two workloads: how each sets the system up, drives it, and turns
//! what it saw into metrics.
//!
//! * `serve-fast` — in-process [`Server`] on the fast tier, all 77 DSC
//!   layers of MobileNetV1/V2-0.25-32, Zipf popularity; an open-loop
//!   Poisson phase, then a saturation phase with a fixed window. Its traced
//!   run also probes MobileNetV1-0.25-32 as a 4-stage [`CompiledModel`]
//!   served by a cycle-accurate [`Pipeline`], closed loop.
//! * `wire-journal` — the `serve-fast` model mix over two loopback
//!   [`NetClient`] connections to a journaled server, every request keyed,
//!   a share resubmitting answered keys; ends with a crash and a timed
//!   journal replay of stranded admits.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use npcgra_arch::CgraSpec;
use npcgra_net::{NetClient, NetConfig, NetServer, NetStats};
use npcgra_nn::{models, reference, ConvLayer, Tensor};
use npcgra_serve::{
    BackendTier, JournalConfig, ModelId, Pipeline, PipelineStatsSnapshot, Priority, ServeConfig, Server, StatsSnapshot,
};
use npcgra_sim::CompiledModel;

use crate::drive::{run_phase, Mode, Outcome, PhaseRun, Sample, Target};
use crate::json::Json;
use crate::plan::{self, Params, Schedule};
use crate::probe::{self, KINDS};
use crate::rng::Rng;
use crate::stats::{median, percentile, percentile_blocks, rate_blocks, samples_beyond, tail_percentile, TAIL_LADDER};
use crate::targets::{NetTarget, PipelineTarget, Pool, ServerTarget};
use crate::trace::{Spans, ROOT};

/// What one invocation was asked to do.
#[derive(Debug, Clone)]
pub struct Args {
    pub params: Params,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Where spans and journal files go (inside the benchmark's tree).
    pub out_dir: PathBuf,
}

/// Metrics in the order they were measured: `(name, value, unit)`.
#[derive(Debug, Default)]
pub struct Metrics(pub Vec<(String, f64, &'static str)>);

impl Metrics {
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.push((name.into(), value, unit));
    }
}

/// The outcome of a run, before it is printed.
#[derive(Debug)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    /// Why the run is not correct (empty = correct).
    pub problems: Vec<String>,
    pub metrics: Metrics,
    pub details: Json,
    pub spans: Option<Spans>,
}

pub fn run(a: &Args) -> Result<Report, String> {
    std::fs::create_dir_all(&a.out_dir).map_err(|e| format!("creating {}: {e}", a.out_dir.display()))?;
    match a.params.name {
        "serve-fast" | "wire-journal" => serve_workload(a),
        other => Err(format!("unknown workload '{other}'")),
    }
}

// ---------------------------------------------------------------- inputs

fn spec() -> CgraSpec {
    CgraSpec::table4()
}

/// A seed for item `(kind, index)` of a run.
fn sub_seed(seed: u64, kind: u64, index: usize) -> u64 {
    Rng::fork(seed, (kind << 32) | index as u64).next_u64()
}

/// The DSC layers of the given models, renamed `<model>.<layer>`, with
/// seeded weights.
fn zoo(models: &[models::Model], seed: u64) -> (Vec<ConvLayer>, Vec<Tensor>) {
    let layers: Vec<ConvLayer> = models
        .iter()
        .flat_map(|m| m.dsc_layers().map(move |l| l.renamed(&format!("{}.{}", m.name(), l.name()))))
        .collect();
    let weights = layers
        .iter()
        .enumerate()
        .map(|(i, l)| l.random_weights(sub_seed(seed, 1, i)))
        .collect();
    (layers, weights)
}

/// `per_model` seeded inputs per layer, each with its golden output.
fn layer_pool(layers: &[ConvLayer], weights: &[Tensor], per_model: usize, seed: u64) -> Pool {
    let mut pool = Pool {
        inputs: Vec::new(),
        refs: Vec::new(),
    };
    for (m, (l, w)) in layers.iter().zip(weights).enumerate() {
        let inputs: Vec<Tensor> = (0..per_model)
            .map(|i| Tensor::random(l.in_channels(), l.in_h(), l.in_w(), sub_seed(seed, 2, m * 1000 + i)))
            .collect();
        let refs = inputs
            .iter()
            .map(|x| {
                reference::run_layer(l, x, w)
                    .expect("seeded shapes match")
                    .as_slice()
                    .to_vec()
            })
            .collect();
        pool.inputs.push(inputs);
        pool.refs.push(refs);
    }
    pool
}

/// Seeded whole-model inputs with the golden output of the chained run.
fn chain_pool(layers: &[ConvLayer], weights: &[Tensor], n: usize, seed: u64) -> Pool {
    let l0 = &layers[0];
    let mut pool = Pool {
        inputs: vec![Vec::new()],
        refs: vec![Vec::new()],
    };
    for i in 0..n {
        let x = Tensor::random(l0.in_channels(), l0.in_h(), l0.in_w(), sub_seed(seed, 3, i));
        let mut act = x.clone();
        for (l, w) in layers.iter().zip(weights) {
            act = reference::run_layer(l, &act, w).expect("chain shapes match");
        }
        pool.inputs[0].push(x);
        pool.refs[0].push(act.as_slice().to_vec());
    }
    pool
}

// ---------------------------------------------------------------- driving

/// Run the open-loop phase (if any) and then the closed-loop phase on one
/// thread per target, all phases ending `seconds` after the start.
fn drive<T: Target + Send>(
    targets: &mut [T],
    schedules: &[Schedule],
    p: &Params,
    seconds: f64,
    pool: &Pool,
    epoch: Instant,
    trace: bool,
) -> (Vec<PhaseRun>, Vec<PhaseRun>) {
    let start = Instant::now() + Duration::from_millis(5);
    let until = start + Duration::from_secs_f64(seconds);
    let window = (p.window / targets.len()).max(1);
    let reference = |q: &plan::Planned| -> &[npcgra_nn::Word] { pool.reference(q) };
    let runs: Vec<(Option<PhaseRun>, PhaseRun)> = std::thread::scope(|scope| {
        let handles: Vec<_> = targets
            .iter_mut()
            .zip(schedules)
            .map(|(t, sched)| {
                scope.spawn(move || {
                    let open = (!sched.open.is_empty())
                        .then(|| run_phase(t, sched, Mode::Open { start }, &reference, Spans::new(epoch, trace)));
                    let closed = run_phase(t, sched, Mode::Closed { window, until }, &reference, Spans::new(epoch, trace));
                    (open, closed)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("generator thread")).collect()
    });
    let mut open = Vec::new();
    let mut closed = Vec::new();
    for (o, c) in runs {
        open.extend(o);
        closed.push(c);
    }
    (open, closed)
}

fn samples(runs: &[PhaseRun]) -> impl Iterator<Item = &Sample> {
    runs.iter().flat_map(|r| r.samples.iter())
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Blocks a phase is split into; metrics report the median block, so a
/// short stall of the host moves one block rather than the result.
const BLOCKS: usize = 6;

/// End-to-end figures of one measured pass.
struct Pass {
    open: Vec<PhaseRun>,
    closed: Vec<PhaseRun>,
}

impl Pass {
    fn all(&self) -> impl Iterator<Item = &Sample> {
        samples(&self.open).chain(samples(&self.closed))
    }

    /// The phase latency is judged on: the open loop where there is one.
    fn latency_phase(&self) -> &[PhaseRun] {
        if self.open.is_empty() {
            &self.closed
        } else {
            &self.open
        }
    }

    /// Bit-exact replies per second in the closed-loop phase, per block
    /// of [`BLOCKS`] (see [`rate_blocks`]).
    fn throughput_blocks(&self) -> Vec<f64> {
        let Some(start) = self.closed.iter().map(|r| r.started).min() else {
            return Vec::new();
        };
        let mut t: Vec<f64> = samples(&self.closed)
            .filter(|s| s.outcome == Outcome::Ok)
            .map(|s| s.done.saturating_duration_since(start).as_secs_f64())
            .collect();
        t.sort_by(f64::total_cmp);
        rate_blocks(&t, 0.0, BLOCKS)
    }

    /// The median block throughput.
    fn throughput(&self) -> f64 {
        median(&self.throughput_blocks()).unwrap_or(0.0)
    }

    fn attempted(&self) -> u64 {
        self.all().count() as u64
    }

    fn failed(&self) -> u64 {
        self.all().filter(|s| s.outcome != Outcome::Ok).count() as u64
    }

    fn mismatches(&self) -> u64 {
        self.all().filter(|s| s.outcome == Outcome::Mismatch).count() as u64
    }

    fn lateness_p99_ms(&self) -> f64 {
        let l: Vec<f64> = samples(&self.open).map(|s| ms(s.lateness())).collect();
        percentile(&l, 99.0).unwrap_or(0.0)
    }

    fn into_spans(self, epoch: Instant) -> Spans {
        let mut spans = Spans::new(epoch, true);
        for r in self.open.into_iter().chain(self.closed) {
            spans.absorb(r.spans);
        }
        spans
    }
}

/// The end-to-end metrics every workload reports, plus their details.
fn end_to_end(m: &mut Metrics, p: &Params, pass: &Pass, setup: &[f64], cycles_per_inf: f64) -> Json {
    let phase = pass.latency_phase();
    let mut ok: Vec<&Sample> = samples(phase).filter(|s| s.outcome == Outcome::Ok).collect();
    ok.sort_by_key(|s| s.due);
    let lat: Vec<f64> = ok.iter().map(|s| ms(s.latency())).collect();
    // The tail is taken per block of consecutive requests just large enough
    // to leave ten samples beyond the preferred percentile; a phase shorter
    // than one block is one block.
    let block = (10.0 / (1.0 - p.tail_percentile / 100.0)).round() as usize;
    let q = tail_percentile(block.min(lat.len()), p.tail_percentile);
    let tails = percentile_blocks(&lat, q, block);
    let throughputs = pass.throughput_blocks();
    let attempted = samples(phase).count();
    let in_slo = samples(phase)
        .filter(|s| s.outcome == Outcome::Ok && ms(s.latency()) <= p.latency_limit_ms)
        .count();
    m.put("setup_s", median(setup).unwrap_or(0.0), "s");
    m.put("throughput_rps", median(&throughputs).unwrap_or(0.0), "req/s");
    m.put("latency_p50_ms", percentile(&lat, 50.0).unwrap_or(0.0), "ms");
    m.put("latency_tail_ms", median(&tails).unwrap_or(0.0), "ms");
    m.put("slo_attainment", in_slo as f64 / attempted.max(1) as f64, "fraction");
    m.put(
        "success_frac",
        1.0 - pass.failed() as f64 / pass.attempted().max(1) as f64,
        "fraction",
    );
    m.put("sim_cycles_per_inf", cycles_per_inf, "cycles");
    m.put("peak_rss_mb", peak_rss_mb(), "MB");
    // For reference only: the phase-wide tail moves with every stall of
    // the host (see `Params::tail_percentile`).
    let q_phase = tail_percentile(lat.len(), TAIL_LADDER[0]);
    Json::obj()
        .with("latency_phase", if pass.open.is_empty() { "closed" } else { "open" })
        .with("latency_samples", lat.len())
        .with("latency_tail_percentile", q)
        .with("latency_tail_block", block.min(lat.len()))
        .with(
            "latency_tail_samples_beyond_per_block",
            samples_beyond(block.min(lat.len()), q),
        )
        .with(
            "latency_tail_blocks",
            Json::Arr(tails.iter().map(|&t| Json::Num(t)).collect()),
        )
        .with("latency_tail_phase_percentile", q_phase)
        .with("latency_tail_phase_ms", percentile(&lat, q_phase).unwrap_or(0.0))
        .with(
            "throughput_samples",
            samples(&pass.closed).filter(|s| s.outcome == Outcome::Ok).count(),
        )
        .with(
            "throughput_blocks",
            Json::Arr(throughputs.iter().map(|&t| Json::Num(t)).collect()),
        )
        .with("attempted", pass.attempted())
        .with("failed", pass.failed())
        .with(
            "refused_at_submit",
            pass.all().filter(|s| s.outcome == Outcome::Refused).count(),
        )
        .with("setup_s_each", Json::Arr(setup.iter().map(|&s| Json::Num(s)).collect()))
        .with("gen_lateness_p99_ms", pass.lateness_p99_ms())
        .with("gen_lateness_p50_ms", {
            let l: Vec<f64> = samples(&pass.open).map(|s| ms(s.lateness())).collect();
            percentile(&l, 50.0).unwrap_or(0.0)
        })
}

/// Peak resident memory of this process (VmHWM), in MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1).and_then(|kb| kb.parse::<f64>().ok()))
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Checks common to every pass: every reply bit-exact. Returns whether
/// the generator kept to its schedule; a run where it did not is marked
/// invalid in the details (its outputs may still all be correct).
fn check_pass(p: &Params, pass: &Pass, problems: &mut Vec<String>) -> bool {
    let bad = pass.mismatches();
    if bad > 0 {
        problems.push(format!("{bad} repl(ies) differ from the golden reference"));
    }
    // Lateness counts in every open-loop latency; a generator whose own
    // delays alone exceed the latency limit measured the host, not the
    // system.
    pass.lateness_p99_ms() <= p.latency_limit_ms
}

/// Set up `times` times, keeping the last system; returns it with each
/// set-up's wall time (seconds).
fn repeated_setup<S>(
    times: usize,
    mut setup: impl FnMut(usize) -> Result<S, String>,
    mut teardown: impl FnMut(S),
) -> Result<(S, Vec<f64>), String> {
    let mut secs = Vec::with_capacity(times);
    let mut kept = None;
    for rep in 0..times.max(1) {
        if let Some(old) = kept.take() {
            teardown(old);
        }
        let t0 = Instant::now();
        let sys = setup(rep)?;
        secs.push(t0.elapsed().as_secs_f64());
        kept = Some(sys);
    }
    Ok((kept.expect("at least one set-up"), secs))
}

// ---------------------------------------------------------- server workloads

/// Compile every (model, batch size) and calibrate ns-per-cycle: each
/// model gets one burst of `b` simultaneous requests for every `b` up to
/// `max_batch`, retried until the server ran it as a batch of exactly `b`.
/// Returns the cycles each batch charged, `[model][b]` (cycle charges
/// depend on the program only, never on the data).
fn warm_up(server: &Server, ids: &[ModelId], pool: &Pool, max_batch: usize) -> Result<Vec<Vec<u64>>, String> {
    let mut cycles = Vec::with_capacity(ids.len());
    for (m, &id) in ids.iter().enumerate() {
        let mut row = vec![0u64];
        for b in 1..=max_batch {
            let mut tries = 0;
            loop {
                let inputs: Vec<Tensor> = (0..b).map(|i| pool.inputs[m][i % pool.inputs[m].len()].clone()).collect();
                let tickets = inputs
                    .into_iter()
                    .map(|x| server.submit(id, x))
                    .collect::<Result<Vec<_>, _>>()
                    .map_err(|e| format!("warm-up submit: {e}"))?;
                let mut formed = true;
                let mut charged = 0;
                for (i, t) in tickets.into_iter().enumerate() {
                    let r = t.wait().map_err(|e| format!("warm-up request: {e}"))?;
                    if r.output.as_slice() != pool.refs[m][i % pool.refs[m].len()].as_slice() {
                        return Err(format!("warm-up reply for model {m} differs from the golden reference"));
                    }
                    formed &= r.batch_size == b;
                    charged = r.report.cycles;
                }
                if formed {
                    row.push(charged);
                    break;
                }
                tries += 1;
                if tries == 20 {
                    return Err(format!("warm-up could not form a batch of {b} for model {m}"));
                }
            }
        }
        cycles.push(row);
    }
    Ok(cycles)
}

fn register_all(server: &Server, layers: &[ConvLayer], weights: &[Tensor], spans: &mut Spans) -> Result<Vec<ModelId>, String> {
    layers
        .iter()
        .zip(weights)
        .map(|(l, w)| {
            let t0 = Instant::now();
            let id = server
                .register(l.name(), l.clone(), w.clone())
                .map_err(|e| format!("registering {}: {e}", l.name()));
            spans.record("serve.register", t0, Instant::now(), ROOT, 0);
            id
        })
        .collect()
}

/// A running system for one of the server workloads.
struct ServeSys {
    server: Arc<Server>,
    ids: Vec<ModelId>,
    /// Cycles a batch charges, `[model][batch size]`, from the warm-up.
    cycles: Vec<Vec<u64>>,
    /// Front-end and connected clients (wire-journal only).
    net: Option<(NetServer, Vec<NetClient>)>,
    journal: Option<PathBuf>,
}

fn serve_config(p: &Params) -> ServeConfig {
    ServeConfig::for_spec(&spec())
        .with_workers(p.workers)
        .with_queue_capacity(plan::QUEUE_CAPACITY)
        .with_backend_tier(BackendTier::Fast)
}

fn start_serve(
    p: &Params,
    wired: bool,
    journal: Option<PathBuf>,
    layers: &[ConvLayer],
    weights: &[Tensor],
    pool: &Pool,
    spans: &mut Spans,
) -> Result<ServeSys, String> {
    let config = serve_config(p);
    let server = match &journal {
        Some(path) => {
            let _ = std::fs::remove_file(path);
            Server::start_with_journal(config, JournalConfig::new(path))
                .map_err(|e| format!("journaled start: {e}"))?
                .0
        }
        None => Server::start(config),
    };
    let ids = register_all(&server, layers, weights, spans)?;
    let t0 = Instant::now();
    let cycles = warm_up(&server, &ids, pool, config.max_batch)?;
    spans.record("bench.warm_up", t0, Instant::now(), ROOT, 0);
    if server.stats().ns_per_cycle[BackendTier::Fast.index()] <= 0.0 {
        return Err("warm-up left the fast tier's ns-per-cycle uncalibrated".into());
    }
    let server = Arc::new(server);
    let net = if wired {
        let net =
            NetServer::start(Arc::clone(&server), NetConfig::default()).map_err(|e| format!("binding the front-end: {e}"))?;
        let mut clients = Vec::new();
        for c in 0..p.generators {
            let mut client = NetClient::connect(net.local_addr(), b"").map_err(|e| format!("connecting: {e}"))?;
            // One unkeyed round trip per connection primes the reactor.
            let m = c % ids.len();
            let reply = client
                .call(
                    ids[m].index() as u32,
                    &pool.inputs[m][0],
                    Priority::Interactive,
                    None,
                    Duration::from_secs(30),
                )
                .map_err(|e| format!("warm-up call: {e}"))?;
            if reply.result.map_err(|(_, e)| e)?.words != pool.refs[m][0] {
                return Err("warm-up wire reply differs from the golden reference".into());
            }
            clients.push(client);
        }
        Some((net, clients))
    } else {
        None
    };
    Ok(ServeSys {
        server,
        ids,
        cycles,
        net,
        journal,
    })
}

fn stop_serve(sys: ServeSys) -> StatsSnapshot {
    if let Some((net, clients)) = sys.net {
        drop(clients);
        let _ = net.shutdown();
    }
    let server = Arc::try_unwrap(sys.server).unwrap_or_else(|_| panic!("the front-end still holds the server"));
    let stats = server.shutdown();
    if let Some(path) = sys.journal {
        let _ = std::fs::remove_file(path);
    }
    stats
}

/// One measured pass over a running server system, with the server (and
/// front-end) counters before and after.
struct ServePass {
    pass: Pass,
    before: StatsSnapshot,
    after: StatsSnapshot,
    net: Option<(NetStats, NetStats)>,
}

fn serve_pass(sys: &mut ServeSys, a: &Args, pool: &Pool, pass_no: u64, seconds: f64, epoch: Instant, trace: bool) -> ServePass {
    let p = &a.params;
    let schedules = plan::schedules(p, a.seed, pass_no, sys.ids.len(), seconds);
    let before = sys.server.stats();
    let (pass, net) = match &mut sys.net {
        Some((net, clients)) => {
            let net_before = net.stats();
            let mut targets: Vec<NetTarget> = clients
                .iter_mut()
                .map(|client| NetTarget {
                    client,
                    models: &sys.ids,
                    pool,
                })
                .collect();
            let (open, closed) = drive(&mut targets, &schedules, p, seconds, pool, epoch, trace);
            (Pass { open, closed }, Some((net_before, net.stats())))
        }
        None => {
            let mut targets = [ServerTarget {
                server: &sys.server,
                models: &sys.ids,
                pool,
            }];
            let (open, closed) = drive(&mut targets, &schedules, p, seconds, pool, epoch, trace);
            (Pass { open, closed }, None)
        }
    };
    ServePass {
        pass,
        before,
        after: sys.server.stats(),
        net,
    }
}

/// Stranded-admit recovery: admit `stranded_admits` keyed requests on a
/// journaled core with no workers, crash it, then time `start_with_journal`
/// (scan and compaction) plus `replay_recovered`. Every stranded admit must
/// be found and replayed. Each stranded key is then resubmitted: the reply
/// must come from the replayed execution (a dedup hit, nothing executes
/// afresh), bit-exact, and no key may execute twice. Returns (ms, replayed).
fn recovery(
    p: &Params,
    layers: &[ConvLayer],
    weights: &[Tensor],
    pool: &Pool,
    path: &Path,
    problems: &mut Vec<String>,
) -> Result<(f64, usize), String> {
    let n_models = layers.len().min(8);
    let n = p.stranded_admits;
    let mut spans = Spans::new(Instant::now(), false);
    let _ = std::fs::remove_file(path);
    {
        let config = serve_config(p).with_workers(0);
        let (server, _) = Server::start_with_journal(config, JournalConfig::new(path).with_fsync_every(1))
            .map_err(|e| format!("recovery set-up: {e}"))?;
        let ids = register_all(&server, &layers[..n_models], &weights[..n_models], &mut spans)?;
        for r in 0..n {
            let m = r % n_models;
            let _ = server
                .submit_idem(ids[m], pool.inputs[m][0].clone(), None, Priority::Interactive, r as u64 + 1)
                .map_err(|e| format!("stranding an admit: {e}"))?;
        }
        let _ = server.hard_crash(0);
    }
    let t0 = Instant::now();
    let (server, report) =
        Server::start_with_journal(serve_config(p), JournalConfig::new(path)).map_err(|e| format!("recovery start: {e}"))?;
    let scan = t0.elapsed();
    let ids = register_all(&server, &layers[..n_models], &weights[..n_models], &mut spans)?;
    let t1 = Instant::now();
    let replayed = server.replay_recovered().map_err(|e| format!("replaying: {e}"))?;
    let replay = t1.elapsed();
    if report.replayed != n || replayed != n {
        problems.push(format!(
            "{n} admits were stranded, but recovery found {} and replayed {replayed}",
            report.replayed
        ));
    }
    let mut wrong = 0;
    for r in 0..n {
        let m = r % n_models;
        let reply = server
            .submit_idem(ids[m], pool.inputs[m][0].clone(), None, Priority::Interactive, r as u64 + 1)
            .and_then(|t| t.wait_timeout(Duration::from_secs(30)))
            .map_err(|e| format!("resubmitting stranded key {}: {e}", r + 1))?;
        if reply.output.as_slice() != pool.refs[m][0].as_slice() {
            wrong += 1;
        }
    }
    let stats = server.shutdown();
    let _ = std::fs::remove_file(path);
    if wrong > 0 {
        problems.push(format!("{wrong} replayed repl(ies) differ from the golden reference"));
    }
    if stats.dedup_hits != n as u64 {
        problems.push(format!(
            "only {} of {n} resubmitted stranded keys were answered by their replayed execution",
            stats.dedup_hits
        ));
    }
    if stats.duplicate_executions > 0 {
        problems.push(format!(
            "{} stranded keys executed twice after recovery",
            stats.duplicate_executions
        ));
    }
    Ok((ms(scan + replay), replayed))
}

fn delta(after: u64, before: u64) -> f64 {
    after.saturating_sub(before) as f64
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Program-cache hit ratio between two snapshots (1.0 with no lookups:
/// nothing was compiled).
fn cache_hit_ratio(before: &StatsSnapshot, after: &StatsSnapshot) -> f64 {
    let hits = delta(after.cache_hits, before.cache_hits);
    let misses = delta(after.cache_misses, before.cache_misses);
    if hits + misses == 0.0 {
        1.0
    } else {
        hits / (hits + misses)
    }
}

fn serve_workload(a: &Args) -> Result<Report, String> {
    let p = a.params;
    let wired = p.name == "wire-journal";
    let epoch = Instant::now();
    let (layers, weights) = zoo(&[models::mobilenet_v1(0.25, 32), models::mobilenet_v2(0.25, 32)], a.seed);
    let pool = layer_pool(&layers, &weights, p.inputs_per_model, a.seed);
    let journal_path = |rep: usize| a.out_dir.join(format!("{}-{}-{rep}.journal", p.name, std::process::id()));

    let mut setup_spans = Spans::new(epoch, a.trace);
    let (mut sys, setup) = repeated_setup(
        if a.trace { 1 } else { p.setup_repeats },
        |rep| {
            start_serve(
                &p,
                wired,
                wired.then(|| journal_path(rep)),
                &layers,
                &weights,
                &pool,
                &mut setup_spans,
            )
        },
        |old| {
            let _ = stop_serve(old);
        },
    )?;

    // A traced run measures twice at half length: untraced, then traced.
    let mut passes = if a.trace {
        vec![
            serve_pass(&mut sys, a, &pool, 0, a.seconds / 2.0, epoch, false),
            serve_pass(&mut sys, a, &pool, 1, a.seconds / 2.0, epoch, true),
        ]
    } else {
        vec![serve_pass(&mut sys, a, &pool, 0, a.seconds, epoch, false)]
    };
    let cycles = std::mem::take(&mut sys.cycles);
    let final_stats = stop_serve(sys);
    let mut problems = Vec::new();
    let mut valid = true;
    for sp in &passes {
        valid &= check_pass(&p, &sp.pass, &mut problems);
    }
    let mut attempted: u64 = passes.iter().map(|sp| sp.pass.attempted()).sum();
    let mut failed: u64 = passes.iter().map(|sp| sp.pass.failed()).sum();
    let untraced_rps = passes[0].pass.throughput();
    let hit = cache_hit_ratio(&passes[0].before, &passes[passes.len() - 1].after);
    let ServePass {
        pass,
        before,
        after,
        net,
    } = passes.pop().expect("at least one pass");
    if hit != 1.0 {
        problems.push(format!(
            "program cache missed in the measured phase (hit ratio {hit}): warm-up fence broken"
        ));
    }
    if final_stats.duplicate_executions > 0 {
        problems.push(format!(
            "{} duplicate executions of one idempotency key",
            final_stats.duplicate_executions
        ));
    }
    // Each executed request's share of its batch's charge, on the phase
    // latency is judged on (in saturation, batching follows host speed).
    // Redeliveries from the dedup table execute nothing and are left out.
    let shares: Vec<f64> = samples(pass.latency_phase())
        .filter(|s| s.outcome == Outcome::Ok && !s.plan.resubmit)
        .filter_map(|s| {
            let r = s.reply?;
            let charge = cycles.get(s.plan.model as usize)?.get(r.batch)?;
            (r.batch > 0).then(|| *charge as f64 / r.batch as f64)
        })
        .collect();
    let cycles_per_inf = ratio(shares.iter().sum(), shares.len() as f64);

    let (recovery_ms, replayed) = if wired {
        recovery(&p, &layers, &weights, &pool, &journal_path(p.setup_repeats), &mut problems)?
    } else {
        (0.0, 0)
    };

    let mut m = Metrics::default();
    let mut details = Json::obj();
    let mut pipe_pass = None;
    if !a.trace {
        details = end_to_end(&mut m, &p, &pass, &setup, cycles_per_inf);
    } else {
        m.put("bench.gen_lateness_p99_ms", pass.lateness_p99_ms(), "ms");
        m.put(
            "bench.trace_overhead_frac",
            ratio(untraced_rps - pass.throughput(), untraced_rps),
            "fraction",
        );
        serve_layer_metrics(&mut m, &pass, &before, &after, net.as_ref());
        journal_metrics(
            &mut m,
            &pass,
            &before,
            &after,
            final_stats.duplicate_executions,
            recovery_ms,
            replayed,
            wired,
        );
        let served: Vec<&Tensor> = pool.inputs.iter().map(|xs| &xs[0]).collect();
        let refs: Vec<&[npcgra_nn::Word]> = pool.refs.iter().map(|r| r[0].as_slice()).collect();
        sim_metrics(&mut m, &layers, &weights, &served, &refs, &mut problems)?;
        if !wired {
            let probe = pipeline_probe(a.seed, epoch, &mut m, &mut setup_spans, &mut problems)?;
            attempted += probe.attempted();
            failed += probe.failed();
            pipe_pass = Some(probe);
        }
    }
    details.push("valid", valid);
    details.push("cache_hit_ratio", hit);
    details.push("duplicate_executions", final_stats.duplicate_executions);
    if wired {
        details.push("recovery_ms", recovery_ms);
        details.push("replayed", replayed);
        details.push("resubmits", pass.all().filter(|s| s.plan.resubmit).count());
        details.push("resubmits_before_reply", pass.all().filter(|s| s.resubmit_early).count());
    }
    let spans = a.trace.then(|| {
        let mut s = setup_spans;
        s.absorb(pass.into_spans(epoch));
        if let Some(probe) = pipe_pass {
            s.absorb(probe.into_spans(epoch));
        }
        s
    });
    Ok(Report {
        attempted,
        failed,
        problems,
        metrics: m,
        details,
        spans,
    })
}

fn serve_layer_metrics(
    m: &mut Metrics,
    pass: &Pass,
    before: &StatsSnapshot,
    after: &StatsSnapshot,
    net: Option<&(NetStats, NetStats)>,
) {
    let ok: Vec<&Sample> = pass.all().filter(|s| s.outcome == Outcome::Ok).collect();
    let submit: Vec<f64> = ok.iter().map(|s| us(s.submit_time())).collect();
    let server_ms: Vec<f64> = ok.iter().filter_map(|s| s.reply).map(|r| ms(r.server_latency)).collect();
    let delivery: Vec<f64> = ok
        .iter()
        .filter_map(|s| {
            s.reply
                .map(|r| us(s.done - s.sent) - us(r.server_latency) - us(s.submit_time()))
        })
        .collect();
    let in_process = net.is_none();
    m.put(
        "serve.submit_us.p50",
        if in_process {
            percentile(&submit, 50.0).unwrap_or(0.0)
        } else {
            0.0
        },
        "us",
    );
    m.put(
        "serve.submit_us.p99",
        if in_process {
            percentile(&submit, 99.0).unwrap_or(0.0)
        } else {
            0.0
        },
        "us",
    );
    m.put(
        "serve.server_latency_ms.p50",
        percentile(&server_ms, 50.0).unwrap_or(0.0),
        "ms",
    );
    m.put(
        "serve.server_latency_ms.p99",
        percentile(&server_ms, 99.0).unwrap_or(0.0),
        "ms",
    );
    m.put("serve.delivery_us.p50", percentile(&delivery, 50.0).unwrap_or(0.0), "us");

    let hist: Vec<f64> = after
        .batch_histogram
        .iter()
        .enumerate()
        .map(|(i, &c)| delta(c, before.batch_histogram.get(i).copied().unwrap_or(0)))
        .collect();
    let batches: f64 = hist.iter().sum();
    let batched_requests: f64 = hist.iter().enumerate().map(|(i, c)| i as f64 * c).sum();
    m.put("serve.batch_size_mean", ratio(batched_requests, batches), "requests");
    m.put(
        "serve.batched_frac",
        ratio(
            ok.iter().filter(|s| s.reply.is_some_and(|r| r.batch > 1)).count() as f64,
            ok.len() as f64,
        ),
        "fraction",
    );
    let span = after.elapsed.as_secs_f64() - before.elapsed.as_secs_f64();
    let util: Vec<f64> = after
        .worker_utilization
        .iter()
        .zip(&before.worker_utilization)
        .map(|(ua, ub)| ratio(ua * after.elapsed.as_secs_f64() - ub * before.elapsed.as_secs_f64(), span))
        .collect();
    m.put(
        "serve.worker_util_mean",
        ratio(util.iter().sum(), util.len() as f64),
        "fraction",
    );
    m.put("serve.queue_depth_max", after.max_queue_depth as f64, "requests");
    m.put(
        "serve.ns_per_cycle.fast",
        after.ns_per_cycle[BackendTier::Fast.index()],
        "ns/cycle",
    );
    m.put("serve.cache_hit_ratio", cache_hit_ratio(before, after), "fraction");
    m.put(
        "serve.cross_check_frac",
        ratio(delta(after.cross_checks, before.cross_checks), batches),
        "fraction",
    );
    let completed = delta(after.completed, before.completed);
    m.put(
        "serve.integrity_blocks_per_req",
        ratio(delta(after.integrity_checked, before.integrity_checked), completed),
        "blocks",
    );
    let attempted = pass.attempted() as f64;
    m.put(
        "serve.retry_frac",
        ratio(delta(after.retries, before.retries), attempted),
        "fraction",
    );
    m.put(
        "serve.shed_frac",
        ratio(pass.all().filter(|s| s.outcome == Outcome::Refused).count() as f64, attempted),
        "fraction",
    );

    let (overhead, bytes, frames, rejected, pressure) = match net {
        Some((nb, na)) => {
            let overhead: Vec<f64> = ok
                .iter()
                .filter_map(|s| s.reply.map(|r| us(s.done - s.sent) - us(r.server_latency)))
                .collect();
            let rejected = [
                na.rejected_malformed - nb.rejected_malformed,
                na.rejected_bad_token - nb.rejected_bad_token,
                na.rejected_rate_limited - nb.rejected_rate_limited,
                na.rejected_quota - nb.rejected_quota,
                na.rejected_backpressure - nb.rejected_backpressure,
                na.rejected_draining - nb.rejected_draining,
                na.rejected_serve - nb.rejected_serve,
            ]
            .iter()
            .sum::<u64>();
            (
                overhead,
                ratio(delta(na.bytes_rx + na.bytes_tx, nb.bytes_rx + nb.bytes_tx), attempted),
                ratio(delta(na.frames_rx + na.frames_tx, nb.frames_rx + nb.frames_tx), attempted),
                ratio(rejected as f64, delta(na.requests_rx, nb.requests_rx)),
                na.pressure_step as f64,
            )
        }
        None => (Vec::new(), 0.0, 0.0, 0.0, 0.0),
    };
    m.put("net.overhead_us.p50", percentile(&overhead, 50.0).unwrap_or(0.0), "us");
    m.put("net.overhead_us.p99", percentile(&overhead, 99.0).unwrap_or(0.0), "us");
    m.put("net.bytes_per_req", bytes, "bytes");
    m.put("net.frames_per_req", frames, "frames");
    m.put("net.rejected_frac", rejected, "fraction");
    m.put("net.pressure_steps", pressure, "steps");
}

#[allow(clippy::too_many_arguments)]
fn journal_metrics(
    m: &mut Metrics,
    pass: &Pass,
    before: &StatsSnapshot,
    after: &StatsSnapshot,
    duplicates: u64,
    recovery_ms: f64,
    replayed: usize,
    journaled: bool,
) {
    let attempted = pass.attempted() as f64;
    let resubmits: Vec<&Sample> = pass.all().filter(|s| s.plan.resubmit).collect();
    let resubmit_ms: Vec<f64> = resubmits
        .iter()
        .filter(|s| s.outcome == Outcome::Ok)
        .map(|s| ms(s.latency()))
        .collect();
    m.put(
        "journal.appends_per_req",
        ratio(delta(after.journal_appends, before.journal_appends), attempted),
        "records",
    );
    m.put(
        "journal.fsyncs_per_req",
        ratio(delta(after.journal_fsyncs, before.journal_fsyncs), attempted),
        "fsyncs",
    );
    m.put(
        "journal.bytes_per_req",
        ratio(delta(after.journal_bytes, before.journal_bytes), attempted),
        "bytes",
    );
    m.put(
        "journal.dedup_hit_ratio",
        if journaled {
            ratio(delta(after.dedup_hits, before.dedup_hits), resubmits.len() as f64)
        } else {
            0.0
        },
        "fraction",
    );
    m.put(
        "journal.resubmit_latency_ms.p50",
        percentile(&resubmit_ms, 50.0).unwrap_or(0.0),
        "ms",
    );
    m.put("journal.duplicate_executions", duplicates as f64, "count");
    m.put("journal.replayed", replayed as f64, "count");
    m.put("journal.recovery_ms", recovery_ms, "ms");
}

fn pipeline_metrics(
    m: &mut Metrics,
    pass: &Pass,
    model: &CompiledModel,
    before: &PipelineStatsSnapshot,
    after: &PipelineStatsSnapshot,
) {
    let predicted: Vec<f64> = model.stages().iter().map(|s| s.predicted_cycles() as f64).collect();
    let mean = ratio(predicted.iter().sum(), predicted.len() as f64);
    let completed = delta(after.completed, before.completed);
    let ok: Vec<&Sample> = pass.all().filter(|s| s.outcome == Outcome::Ok).collect();
    let submit: Vec<f64> = ok.iter().map(|s| us(s.submit_time())).collect();
    let server_ms: Vec<f64> = ok.iter().filter_map(|s| s.reply).map(|r| ms(r.server_latency)).collect();
    m.put(
        "pipeline.stage_balance",
        ratio(predicted.iter().copied().fold(0.0, f64::max), mean),
        "ratio",
    );
    // Charged cycles already include the handoffs (each reply's report
    // adds its job's handoff cycles).
    m.put(
        "pipeline.handoff_cycle_frac",
        ratio(
            delta(after.handoff_cycles, before.handoff_cycles),
            delta(after.cycles_charged, before.cycles_charged),
        ),
        "fraction",
    );
    m.put(
        "pipeline.checkpoints_per_inf",
        ratio(delta(after.checkpoints_stored, before.checkpoints_stored), completed),
        "checkpoints",
    );
    m.put(
        "pipeline.replays",
        delta(after.total_replays(), before.total_replays()),
        "count",
    );
    m.put("pipeline.submit_us.p50", percentile(&submit, 50.0).unwrap_or(0.0), "us");
    m.put(
        "pipeline.server_latency_ms.p50",
        percentile(&server_ms, 50.0).unwrap_or(0.0),
        "ms",
    );
}

/// Run the per-layer simulator probe and report it per mapping kind.
fn sim_metrics(
    m: &mut Metrics,
    layers: &[ConvLayer],
    weights: &[Tensor],
    inputs: &[&Tensor],
    refs: &[&[npcgra_nn::Word]],
    problems: &mut Vec<String>,
) -> Result<(), String> {
    let probe = probe::run(&spec(), layers, weights, inputs, refs)?;
    if probe.bit_mismatches > 0 {
        problems.push(format!(
            "probe: {} layer output(s) differ from the golden reference",
            probe.bit_mismatches
        ));
    }
    if probe.other_layers > 0 {
        problems.push(format!("probe: {} layer(s) mapped outside {KINDS:?}", probe.other_layers));
    }
    for (k, s) in KINDS.iter().zip(&probe.kinds) {
        m.put(format!("sim.functional_ofm_us.{k}"), s.per_layer(s.functional_us), "us");
        m.put(
            format!("sim.prepare_materialize_us.{k}"),
            s.per_layer(s.prepare_materialize_us),
            "us",
        );
        m.put(format!("sim.fast_off_us.{k}"), s.per_layer(s.fast_off_us), "us");
        m.put(format!("sim.fast_verify_us.{k}"), s.per_layer(s.fast_verify_us), "us");
        m.put(
            format!("sim.fast_useful_frac.{k}"),
            ratio(s.functional_us, s.fast_verify_us),
            "fraction",
        );
        m.put(format!("sim.cycle_us.{k}"), s.per_layer(s.cycle_us), "us");
        m.put(
            format!("sim.cycle_ns_per_sim_cycle.{k}"),
            ratio(s.cycle_us * 1e3, s.cycles as f64),
            "ns/cycle",
        );
        m.put(format!("sim.cycles.{k}"), s.cycles as f64, "cycles");
        m.put(format!("sim.tier_cycle_mismatch.{k}"), s.tier_cycle_mismatch as f64, "count");
        if s.tier_cycle_mismatch > 0 {
            problems.push(format!(
                "{} {k} layer(s) where the tiers charge different cycles",
                s.tier_cycle_mismatch
            ));
        }
    }
    m.put("kernels.compile_ms", probe.compile_ms, "ms");
    Ok(())
}

// ------------------------------------------------------- pipeline probe

/// How long the pipeline probe drives the pipeline.
const PIPELINE_PROBE_SECONDS: f64 = 3.0;

/// The whole-model pipeline probe of a traced `serve-fast` run.
/// MobileNetV1-0.25-32 is compiled into a 4-stage [`CompiledModel`] and
/// served by a cycle-accurate [`Pipeline`] in a closed loop. Every
/// inference must match the chained golden run bit for bit and charge the
/// same cycles. Reports the `pipeline.*` metrics; returns the pass for
/// its counts and spans.
fn pipeline_probe(
    seed: u64,
    epoch: Instant,
    m: &mut Metrics,
    spans: &mut Spans,
    problems: &mut Vec<String>,
) -> Result<Pass, String> {
    let p = plan::PIPELINE_PROBE;
    let v1 = models::mobilenet_v1(0.25, 32);
    let (layers, weights) = zoo(std::slice::from_ref(&v1), seed);
    let pool = chain_pool(&layers, &weights, p.inputs_per_model, seed);
    let config = ServeConfig::for_spec(&spec())
        .with_queue_capacity(plan::QUEUE_CAPACITY)
        .with_backend_tier(BackendTier::CycleAccurate)
        .with_pipeline_stages(p.stages);
    let t0 = Instant::now();
    let model = CompiledModel::compile(v1.name(), &layers, &spec(), p.stages).map_err(|e| format!("compiling the model: {e}"))?;
    spans.record("kernels.compile_model", t0, Instant::now(), ROOT, 0);
    let pipe = Pipeline::start(config, model.clone(), weights).map_err(|e| format!("starting the pipeline: {e}"))?;
    // Warm-up: one window of inferences, checked bit-exact.
    let t1 = Instant::now();
    for (i, t) in (0..p.window)
        .map(|i| pipe.submit(pool.inputs[0][i % pool.inputs[0].len()].clone()))
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| format!("pipeline warm-up submit: {e}"))?
        .into_iter()
        .enumerate()
    {
        let r = t.wait().map_err(|e| format!("pipeline warm-up inference: {e}"))?;
        if r.output.as_slice() != pool.refs[0][i % pool.refs[0].len()].as_slice() {
            return Err("pipeline warm-up inference differs from the golden chained run".into());
        }
    }
    spans.record("bench.warm_up", t1, Instant::now(), ROOT, 0);

    let schedules = plan::schedules(&p, seed, 0, 1, PIPELINE_PROBE_SECONDS);
    let before = pipe.stats();
    let mut targets = [PipelineTarget {
        pipeline: &pipe,
        pool: &pool,
    }];
    let (open, closed) = drive(&mut targets, &schedules, &p, PIPELINE_PROBE_SECONDS, &pool, epoch, true);
    let pass = Pass { open, closed };
    let after = pipe.stats();
    let _ = pipe.shutdown();
    check_pass(&p, &pass, problems);
    let mut cycles: Vec<u64> = pass.all().filter_map(|s| s.reply).map(|r| r.cycles).collect();
    cycles.sort_unstable();
    cycles.dedup();
    if cycles.len() > 1 {
        problems.push(format!(
            "pipeline inferences charged {} different cycle totals; every one must charge the same",
            cycles.len()
        ));
    }
    pipeline_metrics(m, &pass, &model, &before, &after);
    Ok(pass)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs_and_references() {
        let model = models::Model::new(
            "tiny",
            vec![
                ConvLayer::depthwise("dw", 4, 8, 8, 3, 1, 1),
                ConvLayer::pointwise("pw", 4, 8, 8, 8),
            ],
        );
        let build = |seed| {
            let (layers, weights) = zoo(std::slice::from_ref(&model), seed);
            let pool = layer_pool(&layers, &weights, 3, seed);
            let chain = chain_pool(&layers, &weights, 2, seed);
            (weights, pool.inputs, pool.refs, chain.inputs, chain.refs)
        };
        let (a, b, c) = (build(5), build(5), build(6));
        assert_eq!(a, b);
        assert_ne!(a.1, c.1);
        assert_ne!(a.0, c.0);
        // References are the golden outputs of the inputs they sit beside.
        let (layers, weights) = zoo(std::slice::from_ref(&model), 5);
        let golden = reference::run_layer(&layers[1], &a.1[1][2], &weights[1]).unwrap();
        assert_eq!(a.2[1][2], golden.as_slice());
    }
}
