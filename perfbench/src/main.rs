//! perfbench — the benchmark of sgxperf itself.
//!
//! ```text
//! perfbench --workload record|analyze|campaign [--seed N] [--seconds S] [--trace 0|1]
//! perfbench compare PARENT.jsonl CHANGE.jsonl [--benchmark BENCHMARK.json]
//! perfbench pairs --parent DIR --change DIR --workload W [--pairs N] [--seed N] [--out DIR]
//! ```
//!
//! A run is one process and one closed-loop client: it sets the workload
//! up several times (timing each), then runs whole cycles of ops until
//! `--seconds` have passed, checking every op's output against the
//! fingerprint taken in set-up. End-to-end timings are scaled to a
//! reference machine speed (see `calibrate.rs`). The last line of stdout
//! is one JSON object with the end-to-end metrics (`--trace 0`) or the
//! per-layer metrics (`--trace 1`). See README.md for the metrics and the
//! compare rule.

mod analyze;
mod calibrate;
mod campaign;
mod compare;
mod json;
mod record;
mod sessions;
mod spans;
mod stats;

use std::panic::{self, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

use calibrate::{Speed, REFERENCE_MS};
use spans::{metric_name, Tracer};
use stats::{median, percentile, percentile_supported, Metrics};

/// The seed performance claims are tuned and shown on.
pub const DEFAULT_SEED: u64 = 1;
/// A seed kept out of tuning: re-check every claim on it.
pub const HELD_OUT_SEED: u64 = 90_001;

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;

const WORKLOADS: [&str; 3] = ["record", "analyze", "campaign"];

/// What an op produced, fingerprinted outside the op's timing.
pub enum Output {
    File(PathBuf),
    Text(Vec<String>),
}

impl Output {
    fn fingerprint(&self) -> Result<u64, String> {
        match self {
            Output::File(path) => std::fs::read(path)
                .map(|bytes| sessions::fnv1a(&bytes))
                .map_err(|e| format!("read back {}: {e}", path.display())),
            Output::Text(texts) => Ok(texts
                .iter()
                .fold(0, |h, t| h.rotate_left(1) ^ sessions::fnv1a(t.as_bytes()))),
        }
    }
}

pub trait Workload {
    /// Ops in one cycle. A run measures whole cycles, so every op kind
    /// weighs the same in the percentiles.
    fn cycle_len(&self) -> usize;
    /// Runs op `i` of the cycle, recording spans when `tr` is on.
    fn op(&mut self, i: usize, tr: &mut Tracer) -> Result<Output, String>;
    /// Layer measurements taken after a traced op, outside its timing.
    fn probe(&mut self, _i: usize, _tr: &mut Tracer) -> Result<(), String> {
        Ok(())
    }
    /// The per-layer metrics of this workload.
    fn layer_metrics(&self, tr: &Tracer, m: &mut Metrics);
}

struct Args {
    workload: &'static str,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload = Some(*WORKLOADS.iter().find(|w| *w == name).ok_or(format!(
                    "unknown workload `{name}` (known: {})",
                    WORKLOADS.join(", ")
                ))?);
            }
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds <= 3600.0) {
                    return Err("--seconds must be in (0, 3600]".into());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                }
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// Builds a workload and fingerprints one cycle of its ops.
fn prepare(name: &str, seed: u64, dir: &Path) -> Result<(Box<dyn Workload>, Vec<u64>), String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let mut workload: Box<dyn Workload> = match name {
        "record" => Box::new(record::Record::setup(seed, dir.to_path_buf())?),
        "analyze" => Box::new(analyze::Analyze::setup(seed, dir.to_path_buf())?),
        "campaign" => Box::new(campaign::Campaign::setup(seed)?),
        other => return Err(format!("unknown workload `{other}`")),
    };
    let mut off = Tracer::new(false);
    let expected = (0..workload.cycle_len())
        .map(|i| workload.op(i, &mut off)?.fingerprint())
        .collect::<Result<_, _>>()?;
    Ok((workload, expected))
}

/// Counts of one measured loop.
#[derive(Default)]
struct Tally {
    attempted: usize,
    failed: usize,
}

impl Tally {
    fn add(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += usize::from(!ok);
    }
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| (*s).to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic".to_string())
}

/// Runs op `i`, returning its host time in ms and whether it succeeded
/// with the expected output. Errors, panics and mismatches all fail it.
fn run_op(w: &mut dyn Workload, i: usize, expected: u64, tr: &mut Tracer) -> (f64, bool) {
    let start = Instant::now();
    let result = panic::catch_unwind(AssertUnwindSafe(|| w.op(i, tr)));
    let ms = start.elapsed().as_secs_f64() * 1e3;
    let verdict = match result {
        Ok(Ok(output)) => output.fingerprint().and_then(|got| {
            (got == expected)
                .then_some(())
                .ok_or(format!("op {i}: output differs from set-up"))
        }),
        Ok(Err(e)) => Err(format!("op {i}: {e}")),
        Err(payload) => Err(format!("op {i} panicked: {}", panic_message(&*payload))),
    };
    if let Err(e) = &verdict {
        eprintln!("perfbench: {e}");
    }
    (ms, verdict.is_ok())
}

fn probe(w: &mut dyn Workload, i: usize, tr: &mut Tracer) -> bool {
    match panic::catch_unwind(AssertUnwindSafe(|| w.probe(i, tr))) {
        Ok(Ok(())) => true,
        Ok(Err(e)) => {
            eprintln!("perfbench: probe {i}: {e}");
            false
        }
        Err(payload) => {
            eprintln!(
                "perfbench: probe {i} panicked: {}",
                panic_message(&*payload)
            );
            false
        }
    }
}

/// Peak resident set of this process, in MiB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kib| kib / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

/// The untraced run: end-to-end metrics.
fn run_untraced(args: &Args, dir: &Path) -> Result<(Tally, Metrics), String> {
    let mut speed = Speed::default();
    // Set-up host seconds, unscaled and scaled to the reference speed.
    let (mut raw_setup_s, mut setup_s) = (Vec::new(), Vec::new());
    let mut prepared: Option<(Box<dyn Workload>, Vec<u64>)> = None;
    for _ in 0..SETUPS {
        let factor = speed.sample();
        let start = Instant::now();
        let (w, expected) = prepare(args.workload, args.seed, dir)?;
        raw_setup_s.push(start.elapsed().as_secs_f64());
        setup_s.push(start.elapsed().as_secs_f64() * factor);
        if prepared.as_ref().is_some_and(|(_, prev)| *prev != expected) {
            return Err("two set-ups of one seed fingerprinted different outputs".into());
        }
        prepared = Some((w, expected));
    }
    let (mut w, expected) = prepared.expect("SETUPS > 0");
    // Sampled here, after a fixed amount of work (every op kind run SETUPS
    // times): switchless sessions leak a few KiB each, so a high-water
    // mark taken after the timed loop would grow with the ops completed
    // and read worse for a faster build.
    let peak_rss = peak_rss_mb()?;

    let mut off = Tracer::new(false);
    let mut tally = Tally::default();
    // Host ms of each op, scaled to the reference speed.
    let mut op_ms = Vec::new();
    let mut raw_ms = Vec::new();
    let limit = Duration::from_secs_f64(args.seconds);
    let start = Instant::now();
    while start.elapsed() < limit {
        for (i, &want) in expected.iter().enumerate() {
            let factor = speed.sample();
            let (ms, ok) = run_op(&mut *w, i, want, &mut off);
            raw_ms.push(ms);
            op_ms.push(ms * factor);
            tally.add(ok);
        }
    }
    eprintln!(
        "perfbench: unscaled host time: op p50 {:.3} ms, p90 {:.3} ms, set-up {:.4} s; \
         calibration kernel {:.3} ms (reference {REFERENCE_MS} ms)",
        percentile(&raw_ms, 50.0).unwrap_or(0.0),
        percentile(&raw_ms, 90.0).unwrap_or(0.0),
        median(&raw_setup_s).unwrap_or(0.0),
        speed.kernel_ms().unwrap_or(0.0),
    );
    if !percentile_supported(90.0, op_ms.len()) {
        eprintln!(
            "perfbench: only {} ops: op_ms_p90 has fewer than 10 samples beyond it",
            op_ms.len()
        );
    }

    let mut m = Metrics::default();
    m.put("setup_s", median(&setup_s).unwrap_or(0.0), "s");
    m.put(
        "ops_per_s",
        op_ms.len() as f64 / (op_ms.iter().sum::<f64>() / 1e3),
        "1/s",
    );
    m.put("op_ms_p50", percentile(&op_ms, 50.0).unwrap_or(0.0), "ms");
    m.put("op_ms_p90", percentile(&op_ms, 90.0).unwrap_or(0.0), "ms");
    m.put("peak_rss_mb", peak_rss, "MiB");
    m.put(
        "ok_rate",
        1.0 - tally.failed as f64 / tally.attempted as f64,
        "ratio",
    );
    Ok((tally, m))
}

/// The traced run: per-layer metrics of every workload, the named one
/// first, each given a third of the time. Cycles alternate untraced and
/// traced so the tracing overhead compares like with like.
fn run_traced(args: &Args, dir: &Path) -> Result<(Tally, Metrics, Tracer), String> {
    let mut order = vec![args.workload];
    order.extend(WORKLOADS.iter().filter(|w| **w != args.workload));
    let slice = Duration::from_secs_f64(args.seconds / order.len() as f64);
    let mut tr = Tracer::new(true);
    let mut off = Tracer::new(false);
    let mut tally = Tally::default();
    let mut m = Metrics::default();
    let mut speed = Speed::default();
    for name in order {
        let (mut w, expected) = prepare(name, args.seed, &dir.join(name))?;
        let (mut plain, mut traced) = (Vec::new(), Vec::new());
        let start = Instant::now();
        loop {
            speed.sample();
            for (i, &want) in expected.iter().enumerate() {
                let (ms, ok) = run_op(&mut *w, i, want, &mut off);
                plain.push(ms);
                tally.add(ok);
            }
            for (i, &want) in expected.iter().enumerate() {
                tr.next_op();
                let (ms, ok) = tr.span("bench.op", name, |tr| run_op(&mut *w, i, want, tr));
                traced.push(ms);
                tally.add(ok && probe(&mut *w, i, &mut tr));
            }
            if start.elapsed() >= slice {
                break;
            }
        }
        w.layer_metrics(&tr, &mut m);
        m.put_ratio(
            &metric_name("bench.tracing_overhead", name, ""),
            median(&traced).unwrap_or(0.0),
            &metric_name("bench.op_ms_p50", name, ""),
            median(&plain).unwrap_or(0.0),
            "ms",
        );
        let own = metric_name("bench.op", name, "_self_ms");
        let self_ms = tr.self_ms("bench.op").remove(&own).unwrap_or_default();
        m.put(own, median(&self_ms).unwrap_or(0.0), "ms");
    }
    // Per-layer times are unscaled; this is the scale they were taken at.
    m.put(
        "bench.calibration_ms",
        speed.kernel_ms().expect("one sample per workload"),
        "ms",
    );
    for mismatch in &tr.mismatches {
        eprintln!("perfbench: exact counter changed between ops: {mismatch}");
    }
    Ok((tally, m, tr))
}

fn result_line(correct: bool, tally: &Tally, m: &Metrics) -> String {
    let mut correct = correct && tally.failed == 0;
    let mut metrics = Vec::new();
    for (name, metric) in &m.0 {
        let mut value = metric.value;
        if !value.is_finite() {
            eprintln!("perfbench: metric {name} is not finite");
            correct = false;
            value = 0.0;
        }
        metrics.push(format!(
            "{}: {{\"value\": {value}, \"unit\": {}}}",
            json::quote(name),
            json::quote(metric.unit)
        ));
    }
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.attempted,
        tally.failed,
        metrics.join(", ")
    )
}

fn run(args: &Args) -> Result<String, String> {
    let root = PathBuf::from(".perfbench");
    let dir = root.join(format!("{}-{}", args.workload, std::process::id()));
    let outcome = if args.trace {
        run_traced(args, &dir).and_then(|(tally, m, tr)| {
            let path = root.join(format!("spans-{}-s{}.json", args.workload, args.seed));
            std::fs::write(&path, tr.to_chrome_json())
                .map_err(|e| format!("write {}: {e}", path.display()))?;
            eprintln!("perfbench: spans written to {}", path.display());
            Ok(result_line(tr.mismatches.is_empty(), &tally, &m))
        })
    } else {
        run_untraced(args, &dir).map(|(tally, m)| result_line(true, &tally, &m))
    };
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir(&root); // only if no span file is left in it
    outcome
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("compare") => compare::compare_main(&args[1..]),
        Some("pairs") => compare::pairs_main(&args[1..]),
        _ => parse_args(&args).and_then(|a| run(&a)).map(|line| {
            println!("{line}");
            0
        }),
    };
    match result {
        Ok(code) => ExitCode::from(code),
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
