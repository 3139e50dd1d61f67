//! `perfbench` — the repository's seeded benchmark.
//!
//! ```text
//! perfbench --workload <serve-fast|wire-journal> --seed <n> --seconds <s> --trace <0|1>
//! perfbench spread <run-output>...      # per-metric median and quartile spread of saved runs
//! ```
//!
//! A run builds its inputs from the seed, sets the system up, measures for
//! `--seconds`, checks every reply bit-exact against the golden reference,
//! and prints as its last line one JSON object: `correct`, `attempted`,
//! `failed` and `metrics` — every end-to-end metric with `--trace 0`,
//! every per-layer metric with `--trace 1`. The line before it carries the
//! environment stamp and run details. The metrics, their units and bounds
//! are the ones `BENCHMARK.json` declares. A traced run also writes its spans
//! to `perfbench/out/`. Exit status: 0 on a correct run, 2 when a check
//! failed (the result line says `"correct": false`), 1 on a usage or
//! set-up error (no result line).

mod catalog;
mod drive;
mod json;
mod plan;
mod probe;
mod rng;
mod stats;
mod targets;
mod trace;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use catalog::Catalog;
use json::Json;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = Catalog::load().and_then(|c| match args.first().map(String::as_str) {
        Some("spread") => spread(&c, &args[1..]).map(|()| ExitCode::SUCCESS),
        _ => parse(&c, &args).and_then(|a| bench(&c, &a)),
    });
    result.unwrap_or_else(|e| {
        eprintln!("perfbench: {e}");
        ExitCode::from(1)
    })
}

fn parse(c: &Catalog, args: &[String]) -> Result<workloads::Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = c.run_seconds;
    let mut trace = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload = Some(
                    plan::by_name(name)
                        .ok_or_else(|| format!("unknown workload '{name}' (one of {})", c.workloads.join(", ")))?,
                );
            }
            "--seed" => seed = Some(value()?.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = value()?.parse::<f64>().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err(format!("--seconds must be in (0, 600], got {seconds}"));
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, got '{other}'")),
                }
            }
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    let params = workload.ok_or("--workload is required")?;
    Ok(workloads::Args {
        params,
        seed: seed.unwrap_or(params.default_seed),
        seconds,
        trace,
        out_dir: Path::new(env!("CARGO_MANIFEST_DIR")).join("out"),
    })
}

fn bench(c: &Catalog, a: &workloads::Args) -> Result<ExitCode, String> {
    let mut report = workloads::run(a)?;
    let metrics = declared_metrics(c, a.trace, &report.metrics, &mut report.problems)?;
    let spans_file = match &report.spans {
        Some(spans) => {
            let path = a.out_dir.join(format!("{}-seed{}.spans.jsonl", a.params.name, a.seed));
            spans
                .write_jsonl(&path)
                .map_err(|e| format!("writing {}: {e}", path.display()))?;
            Json::from(path.display().to_string())
        }
        None => Json::Null,
    };
    let correct = report.problems.is_empty();
    for p in &report.problems {
        eprintln!("perfbench: check failed: {p}");
    }
    let info = Json::obj()
        .with("stamp", stamp(a))
        .with("details", report.details)
        .with("spans_file", spans_file)
        .with("problems", Json::Arr(report.problems.into_iter().map(Json::from).collect()));
    println!("{}", info.render());
    let result = Json::obj()
        .with("correct", correct)
        .with("attempted", report.attempted.max(1))
        .with("failed", report.failed)
        .with("metrics", metrics);
    println!("{}", result.render());
    Ok(if correct { ExitCode::SUCCESS } else { ExitCode::from(2) })
}

/// The metrics the run must print, in declared order and unit. A
/// per-layer metric of a layer the workload bypasses reads 0.
fn declared_metrics(c: &Catalog, trace: bool, got: &workloads::Metrics, problems: &mut Vec<String>) -> Result<Json, String> {
    let wanted = if trace { &c.per_layer } else { &c.end_to_end };
    if let Some((name, _, _)) = got.0.iter().find(|(n, _, _)| !wanted.iter().any(|w| w.name == *n)) {
        return Err(format!("metric '{name}' is not declared"));
    }
    let mut out = Json::obj();
    for catalog::Metric { name, unit, .. } in wanted {
        let value = match got.0.iter().find(|(n, _, _)| n == name) {
            Some((_, v, u)) if *u == unit.as_str() => *v,
            Some((_, _, u)) => return Err(format!("metric '{name}' measured in {u}, declared in {unit}")),
            None if trace => 0.0,
            None => return Err(format!("end-to-end metric '{name}' was not measured")),
        };
        if !value.is_finite() {
            problems.push(format!("metric '{name}' is not a finite number"));
        }
        out.push(name, Json::obj().with("value", value).with("unit", unit.as_str()));
    }
    Ok(out)
}

/// Host, toolchain, source and workload parameters of this run.
fn stamp(a: &workloads::Args) -> Json {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    let ceiling = root.join("..");
    let git = command_line(
        "git",
        &["-C", &root.display().to_string(), "rev-parse", "HEAD"],
        Some(&ceiling),
    );
    Json::obj()
        .with("workload", a.params.name)
        .with("seed", a.seed)
        .with("seconds", a.seconds)
        .with("trace", a.trace)
        .with("nproc", std::thread::available_parallelism().map_or(0, usize::from))
        .with("git_commit", git.unwrap_or_else(|| "unknown (not a git checkout)".into()))
        .with(
            "rustc",
            command_line("rustc", &["--version"], None).unwrap_or_else(|| "unknown".into()),
        )
        .with("params", a.params.stamp())
}

/// First line of a command's standard output, if it ran and succeeded.
/// `ceiling` stops git from searching above the checkout.
fn command_line(program: &str, args: &[&str], ceiling: Option<&PathBuf>) -> Option<String> {
    let mut cmd = std::process::Command::new(program);
    cmd.args(args).stderr(std::process::Stdio::null());
    if let Some(c) = ceiling {
        cmd.env("GIT_CEILING_DIRECTORIES", c);
    }
    let out = cmd.output().ok()?;
    out.status
        .success()
        .then(|| {
            String::from_utf8_lossy(&out.stdout)
                .lines()
                .next()
                .unwrap_or("")
                .trim()
                .to_string()
        })
        .filter(|s| !s.is_empty())
}

/// Read the result line (the last non-empty line) of each saved run and
/// print, per metric, the run count, median and quartile spread as a
/// share of the median — the figure each end-to-end bound is judged by.
fn spread(c: &Catalog, files: &[String]) -> Result<(), String> {
    if files.is_empty() {
        return Err("spread needs at least one saved run output".into());
    }
    let mut by_metric: Vec<(String, String, Vec<f64>)> = Vec::new();
    for f in files {
        let text = std::fs::read_to_string(f).map_err(|e| format!("reading {f}: {e}"))?;
        let line = text
            .lines()
            .rev()
            .find(|l| !l.trim().is_empty())
            .ok_or(format!("{f} is empty"))?;
        let doc = Json::parse(line).map_err(|e| format!("{f}: {e}"))?;
        for (name, m) in doc.get("metrics").map(Json::entries).unwrap_or(&[]) {
            let value = m
                .get("value")
                .and_then(Json::as_f64)
                .ok_or(format!("{f}: {name} has no value"))?;
            let unit = m.get("unit").and_then(Json::as_str).unwrap_or("").to_string();
            match by_metric.iter_mut().find(|(n, _, _)| n == name) {
                Some((_, _, v)) => v.push(value),
                None => by_metric.push((name.clone(), unit, vec![value])),
            }
        }
    }
    for (name, unit, values) in &by_metric {
        let bound = c.bound(name);
        let iqr = stats::iqr_frac(values);
        let verdict = match (bound, iqr) {
            (Some(b), Some(s)) if s <= b / 3.0 => "steady (< bound/3)",
            (Some(b), Some(s)) if s <= b => "within bound",
            (Some(_), Some(_)) => "TOO NOISY",
            _ => "",
        };
        println!(
            "{name:40} {:>4} runs  median {:>14.6} {unit:9} iqr/median {:>9}  bound {:>5}  {verdict}",
            values.len(),
            stats::median(values).unwrap_or(f64::NAN),
            iqr.map_or("-".to_string(), |s| format!("{s:.4}")),
            bound.map_or("-".to_string(), |b| format!("{b}")),
        );
    }
    Ok(())
}
