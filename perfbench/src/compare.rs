//! Compare mode: judges a change against its parent from two result sets
//! (one JSON result line per run, run in alternating order), by this rule:
//!
//! * **gain** — at least ten pairs, the change wins at least 9/10 of them
//!   (ties count for neither side), the medians differ in the better
//!   direction by more than the parent's interquartile range, and the
//!   change failed no more ops than the parent;
//! * **unresolved** — otherwise, when either side's spread (IQR over
//!   median) is wider than the metric's bound, unless every change run
//!   reads better than every parent run;
//! * **regressed** — otherwise, when the change's median is worse than
//!   the parent's by more than the bound;
//! * **no regression** — otherwise.
//!
//! `pairs` produces the two result sets by running the benchmark command
//! of `BENCHMARK.json` in two checkouts, alternating which side goes first.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

use crate::json::{self, Value};
use crate::stats::{quartiles, relative_spread};

/// Minimum pairs before a gain may be claimed.
const MIN_PAIRS: usize = 10;
/// Exit status when any metric regressed.
const REGRESSED_EXIT: u8 = 3;

#[derive(Debug, Clone)]
pub struct MetricSpec {
    pub name: String,
    pub lower_is_better: bool,
    pub bound: f64,
}

struct Benchmark {
    command: Vec<String>,
    run_seconds: u64,
    metrics: Vec<MetricSpec>,
}

fn load_benchmark(path: &Path) -> Result<Benchmark, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let doc = json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let field = |key: &str| {
        doc.get(key)
            .ok_or(format!("{}: no `{key}`", path.display()))
    };
    let Value::Arr(command) = field("command")? else {
        return Err("`command` is not a list".into());
    };
    let command = command
        .iter()
        .map(|v| {
            v.as_str()
                .map(str::to_string)
                .ok_or("`command` holds a non-string")
        })
        .collect::<Result<_, _>>()?;
    let Value::Arr(e2e) = field("end_to_end")? else {
        return Err("`end_to_end` is not a list".into());
    };
    let mut metrics = Vec::new();
    for m in e2e {
        let name = m
            .get("name")
            .and_then(Value::as_str)
            .ok_or("metric without a name")?;
        metrics.push(MetricSpec {
            name: name.to_string(),
            lower_is_better: m.get("better").and_then(Value::as_str) == Some("lower"),
            bound: m
                .get("bound")
                .and_then(Value::as_f64)
                .ok_or(format!("{name}: no bound"))?,
        });
    }
    let run_seconds = field("run_seconds")?
        .as_f64()
        .ok_or("`run_seconds` is not a number")? as u64;
    Ok(Benchmark {
        command,
        run_seconds,
        metrics,
    })
}

/// One run's result line.
#[derive(Debug, Default)]
struct RunResult {
    correct: bool,
    failed: f64,
    values: BTreeMap<String, f64>,
}

fn parse_result(line: &str) -> Result<RunResult, String> {
    let doc = json::parse(line)?;
    let mut run = RunResult {
        correct: doc.get("correct") == Some(&Value::Bool(true)),
        failed: doc
            .get("failed")
            .and_then(Value::as_f64)
            .ok_or("result without `failed`")?,
        values: BTreeMap::new(),
    };
    if let Some(Value::Obj(metrics)) = doc.get("metrics") {
        for (name, m) in metrics {
            if let Some(v) = m.get("value").and_then(Value::as_f64) {
                run.values.insert(name.clone(), v);
            }
        }
    }
    Ok(run)
}

fn load_results(path: &Path) -> Result<Vec<RunResult>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    text.lines()
        .filter(|l| !l.trim().is_empty())
        .map(|l| parse_result(l).map_err(|e| format!("{}: {e}", path.display())))
        .collect()
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Gain,
    NoRegression,
    Regressed,
    Unresolved,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Gain => "gain",
            Verdict::NoRegression => "no regression",
            Verdict::Regressed => "REGRESSED",
            Verdict::Unresolved => "unresolved",
        }
    }
}

#[derive(Debug)]
pub struct Judged {
    pub parent: [f64; 3],
    pub change: [f64; 3],
    pub wins: usize,
    pub pairs: usize,
    pub verdict: Verdict,
}

/// Applies the rule to one metric. `parent[i]` and `change[i]` are pair
/// `i`. `more_failures` is true when the change failed more ops.
pub fn judge(
    spec: &MetricSpec,
    parent: &[f64],
    change: &[f64],
    more_failures: bool,
) -> Result<Judged, String> {
    let pairs = parent.len().min(change.len());
    let (parent, change) = (&parent[..pairs], &change[..pairs]);
    let better = |c: f64, p: f64| if spec.lower_is_better { c < p } else { c > p };
    let (Some(pq), Some(cq)) = (quartiles(parent), quartiles(change)) else {
        return Err(format!("{}: need at least two runs per side", spec.name));
    };
    let wins = parent
        .iter()
        .zip(change)
        .filter(|(&p, &c)| better(c, p))
        .count();
    let gap = if spec.lower_is_better {
        pq[1] - cq[1]
    } else {
        cq[1] - pq[1]
    };
    let spread = relative_spread(parent)
        .unwrap_or(f64::INFINITY)
        .max(relative_spread(change).unwrap_or(f64::INFINITY));
    let all_better = change.iter().all(|&c| parent.iter().all(|&p| better(c, p)));
    let worse_share = -gap / pq[1].abs();
    let verdict =
        if pairs >= MIN_PAIRS && !more_failures && wins * 10 >= pairs * 9 && gap > pq[2] - pq[0] {
            Verdict::Gain
        } else if spread > spec.bound && !all_better {
            Verdict::Unresolved
        } else if worse_share > spec.bound {
            Verdict::Regressed
        } else {
            Verdict::NoRegression
        };
    Ok(Judged {
        parent: pq,
        change: cq,
        wins,
        pairs,
        verdict,
    })
}

fn report(
    bench: &Benchmark,
    parent: &[RunResult],
    change: &[RunResult],
) -> Result<(String, bool), String> {
    let failures = |runs: &[RunResult]| runs.iter().map(|r| r.failed).sum::<f64>();
    let more_failures = failures(change) > failures(parent);
    let mut out = format!(
        "{} pairs; failed ops: parent {}, change {}; incorrect runs: parent {}, change {}\n",
        parent.len().min(change.len()),
        failures(parent),
        failures(change),
        parent.iter().filter(|r| !r.correct).count(),
        change.iter().filter(|r| !r.correct).count(),
    );
    let _ = writeln!(
        out,
        "{:<14} {:>32} {:>32} {:>6}  verdict",
        "metric", "parent median [q1, q3]", "change median [q1, q3]", "wins"
    );
    let mut regressed = false;
    for spec in &bench.metrics {
        let values = |runs: &[RunResult]| -> Vec<f64> {
            runs.iter()
                .filter_map(|r| r.values.get(&spec.name).copied())
                .collect()
        };
        let (p, c) = (values(parent), values(change));
        if p.len() != parent.len() || c.len() != change.len() {
            let _ = writeln!(out, "{:<14} missing from some runs", spec.name);
            continue;
        }
        let j = judge(spec, &p, &c, more_failures)?;
        regressed |= j.verdict == Verdict::Regressed;
        let q = |q: [f64; 3]| format!("{:.4} [{:.4}, {:.4}]", q[1], q[0], q[2]);
        let _ = writeln!(
            out,
            "{:<14} {:>32} {:>32} {:>3}/{:<2}  {} (bound {:.0}%)",
            spec.name,
            q(j.parent),
            q(j.change),
            j.wins,
            j.pairs,
            j.verdict.label(),
            spec.bound * 100.0
        );
    }
    Ok((out, regressed))
}

/// `compare PARENT.jsonl CHANGE.jsonl [--benchmark BENCHMARK.json]`
pub fn compare_main(args: &[String]) -> Result<u8, String> {
    let (files, bench_flag) = match args {
        [p, c] => ([p, c], None),
        [p, c, flag, path] if flag == "--benchmark" => ([p, c], Some(path)),
        _ => {
            return Err(
                "usage: compare PARENT.jsonl CHANGE.jsonl [--benchmark BENCHMARK.json]".into(),
            )
        }
    };
    let bench = load_benchmark(Path::new(
        bench_flag.map_or("BENCHMARK.json", String::as_str),
    ))?;
    let parent = load_results(Path::new(files[0]))?;
    let change = load_results(Path::new(files[1]))?;
    let (text, regressed) = report(&bench, &parent, &change)?;
    print!("{text}");
    Ok(if regressed { REGRESSED_EXIT } else { 0 })
}

/// Runs the benchmark command in `dir` and returns its result line.
fn run_side(bench: &Benchmark, dir: &Path, workload: &str, seed: u64) -> Result<String, String> {
    let (program, rest) = bench
        .command
        .split_first()
        .ok_or("empty benchmark command")?;
    let output = Command::new(program)
        .args(rest)
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", &bench.run_seconds.to_string(), "--trace", "0"])
        .current_dir(dir)
        .env("CARGO_TARGET_DIR", dir.join(".bench_build"))
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("run {program} in {}: {e}", dir.display()))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    match stdout.lines().last() {
        Some(line) if output.status.success() => Ok(line.to_string()),
        _ => Err(format!(
            "benchmark in {} failed: {}",
            dir.display(),
            output.status
        )),
    }
}

/// `pairs --parent DIR --change DIR --workload W [--pairs N] [--seed N] [--out DIR]`
pub fn pairs_main(args: &[String]) -> Result<u8, String> {
    let mut flags = BTreeMap::new();
    for pair in args.chunks(2) {
        match pair {
            [k, v] if k.starts_with("--") => {
                flags.insert(k.as_str(), v.clone());
            }
            _ => return Err(format!("pairs: bad arguments {args:?}")),
        }
    }
    let need = |k: &str| flags.get(k).cloned().ok_or(format!("pairs needs {k}"));
    let parent_dir = PathBuf::from(need("--parent")?);
    let change_dir = PathBuf::from(need("--change")?);
    let workload = need("--workload")?;
    let pairs: usize = flags
        .get("--pairs")
        .map_or(Ok(MIN_PAIRS), |v| v.parse())
        .map_err(|e| format!("--pairs: {e}"))?;
    let seed: u64 = flags
        .get("--seed")
        .map_or(Ok(crate::DEFAULT_SEED), |v| v.parse())
        .map_err(|e| format!("--seed: {e}"))?;
    let out = flags
        .get("--out")
        .map_or_else(|| PathBuf::from(".perfbench/pairs"), PathBuf::from);
    std::fs::create_dir_all(&out).map_err(|e| format!("{}: {e}", out.display()))?;

    let bench = load_benchmark(&change_dir.join("BENCHMARK.json"))?;
    let files = [
        out.join(format!("parent-{workload}.jsonl")),
        out.join(format!("change-{workload}.jsonl")),
    ];
    let mut sinks = Vec::new();
    for f in &files {
        sinks.push(std::fs::File::create(f).map_err(|e| format!("{}: {e}", f.display()))?);
    }
    let dirs = [&parent_dir, &change_dir];
    for i in 0..pairs {
        // Alternate which side runs first; both sides of a pair share a seed.
        let order = if i % 2 == 0 { [0, 1] } else { [1, 0] };
        let seed = seed.wrapping_add(i as u64);
        for side in order {
            let line = run_side(&bench, dirs[side], &workload, seed)?;
            writeln!(sinks[side], "{line}").map_err(|e| e.to_string())?;
        }
        eprintln!("perfbench: pair {}/{pairs} done", i + 1);
    }
    drop(sinks);
    let parent = load_results(&files[0])?;
    let change = load_results(&files[1])?;
    let (text, regressed) = report(&bench, &parent, &change)?;
    print!("{text}");
    Ok(if regressed { REGRESSED_EXIT } else { 0 })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(lower: bool, bound: f64) -> MetricSpec {
        MetricSpec {
            name: "m".into(),
            lower_is_better: lower,
            bound,
        }
    }

    fn around(center: f64) -> Vec<f64> {
        (0..10)
            .map(|i| center * (1.0 + 0.002 * f64::from(i)))
            .collect()
    }

    #[test]
    fn clear_gain_is_claimed() {
        let j = judge(&spec(true, 0.1), &around(100.0), &around(80.0), false).unwrap();
        assert_eq!(j.wins, 10);
        assert_eq!(j.verdict, Verdict::Gain);
    }

    #[test]
    fn gain_needs_ten_pairs_and_no_extra_failures() {
        let p = around(100.0);
        let c = around(80.0);
        assert_ne!(
            judge(&spec(true, 0.1), &p[..9], &c[..9], false)
                .unwrap()
                .verdict,
            Verdict::Gain
        );
        assert_ne!(
            judge(&spec(true, 0.1), &p, &c, true).unwrap().verdict,
            Verdict::Gain
        );
    }

    #[test]
    fn ties_count_for_neither_side() {
        let p = around(100.0);
        let j = judge(&spec(true, 0.1), &p, &p, false).unwrap();
        assert_eq!(j.wins, 0);
        assert_eq!(j.verdict, Verdict::NoRegression);
    }

    #[test]
    fn gap_within_parent_iqr_is_no_gain() {
        let p: Vec<f64> = (0..10).map(|i| 100.0 + 4.0 * f64::from(i)).collect();
        let c: Vec<f64> = p.iter().map(|v| v - 1.0).collect();
        let j = judge(&spec(true, 0.25), &p, &c, false).unwrap();
        assert_eq!(j.wins, 10);
        assert_eq!(j.verdict, Verdict::NoRegression);
    }

    #[test]
    fn regression_beyond_bound_is_flagged_both_directions() {
        assert_eq!(
            judge(&spec(true, 0.1), &around(100.0), &around(120.0), false)
                .unwrap()
                .verdict,
            Verdict::Regressed
        );
        assert_eq!(
            judge(&spec(false, 0.1), &around(100.0), &around(80.0), false)
                .unwrap()
                .verdict,
            Verdict::Regressed
        );
        assert_eq!(
            judge(&spec(false, 0.1), &around(100.0), &around(95.0), false)
                .unwrap()
                .verdict,
            Verdict::NoRegression
        );
    }

    #[test]
    fn spread_wider_than_bound_is_unresolved() {
        let p: Vec<f64> = (0..10).map(|i| 50.0 + 10.0 * f64::from(i)).collect();
        let c: Vec<f64> = p.iter().rev().copied().collect();
        assert_eq!(
            judge(&spec(true, 0.1), &p, &c, false).unwrap().verdict,
            Verdict::Unresolved
        );
    }

    #[test]
    fn result_lines_parse() {
        let r = parse_result(
            r#"{"correct": true, "attempted": 3, "failed": 1, "metrics": {"ops_per_s": {"value": 2.5, "unit": "1/s"}}}"#,
        )
        .unwrap();
        assert!(r.correct);
        assert_eq!(r.failed, 1.0);
        assert_eq!(r.values.get("ops_per_s"), Some(&2.5));
    }
}
