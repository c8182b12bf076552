//! The sgx-perf command-line analyser: consumes a trace file recorded by
//! the event logger and produces reports, call graphs and plot data —
//! the offline half of the tool collection (§4.3).
//!
//! ```text
//! sgxperf report   <trace.evdb> [--profile unpatched|spectre|l1tf] [--edl <file.edl>] [--faults <spec>] [--json]
//! sgxperf lint     <file.edl> [--trace <trace.evdb>] [--deny <code,...>] [--max-public N] [--large-copy BYTES]
//! sgxperf diff     <a.evdb> <b.evdb> [--threshold PCT] [--min-count N] [--json]
//! sgxperf export   <trace.evdb> --format chrome|folded [--profile ...] [-o <out>]
//! sgxperf dot      <trace.evdb> [-o <out.dot>]
//! sgxperf hist     <trace.evdb> <call-name> [--bins N] [--json]
//! sgxperf scatter  <trace.evdb> <call-name> [--json]
//! sgxperf info     <trace.evdb>
//! sgxperf races    <trace.evdb> [--json]
//! sgxperf fleet    <trace.evdb> [--top N] [--json]
//! sgxperf campaign <spec.toml> [--out DIR] [--jobs N] [--engine fast|legacy] [--json] [--dry-run] [--resume]
//! ```
//!
//! `lint` runs the static interface analyzer (EDL-W001...) and renders
//! rustc-style diagnostics. With `--trace`, findings are cross-checked
//! against the recorded events: exercised `user_check` pointers escalate
//! to errors and never-called public ecalls are reported (EDL-W009).
//! `--deny` makes the listed codes (or `all`) fail the run with exit
//! code 1 — the CI-gate mode.
//!
//! `diff` compares a candidate trace against a baseline and exits 0 when
//! no metric regressed past the threshold (default 10%) or 3 on
//! regression — the perf-gate mode. `export` converts a trace to
//! `chrome://tracing` JSON or collapsed flamegraph stacks.
//!
//! `races` replays the trace's sync-event table (recorded with
//! `track_syncev`) through happens-before, lockset and lock-order
//! analyses; exit 3 on error-severity findings (data races, lock-order
//! cycles), 0 otherwise — the race-gate mode.
//!
//! `campaign` is the only subcommand that *records* instead of analysing:
//! it parses a declarative spec, expands the scenario matrix
//! {workload x profile x fault plan x switchless x seed}, executes every
//! cell in parallel on the simulator under the spec's `[robustness]`
//! supervision (per-cell panic isolation, event budgets, wall-clock
//! deadlines, retries with a flaky/broken quarantine ledger), archives
//! one trace per cell plus a checksummed `manifest.json` (all writes
//! atomic), and verdicts each cell against its declared baseline through
//! the diff engine — exit 3 iff any cell regressed, exit 4 when the
//! matrix is incomplete (broken or unverdictable cells; beats 3).
//! `--resume` salvages a crashed run's archive and re-runs only missing
//! or corrupt cells. The summary (stdout) is byte-stable: times and
//! engine/worker info go to stderr only.

use std::io::{ErrorKind, Write};
use std::path::PathBuf;
use std::process::ExitCode;

use sgx_edl::lint::LintConfig;
use sgx_perf::analysis::diff::{DiffConfig, TraceDiff};
use sgx_perf::analysis::lint::lint_interface;
use sgx_perf::analysis::races;
use sgx_perf::analysis::stats::{scatter, scatter_csv, scatter_json, Histogram};
use sgx_perf::{export, Analyzer, FleetReport, TraceDb};
use sim_core::campaign::CampaignSpec;
use sim_core::fault::FaultPlan;
use sim_core::HwProfile;
use sim_threads::Engine;
use workloads::campaign::matrix::{self, MatrixPlan};

/// Every subcommand: (name, argument synopsis, one-line summary). The
/// usage text is generated from this table, so an unknown-subcommand
/// error always lists the complete, current set.
const SUBCOMMANDS: &[(&str, &str, &str)] = &[
    (
        "report",
        "<trace.evdb> [--profile unpatched|spectre|l1tf] [--edl <file.edl>] [--faults <spec>] [--json]",
        "statistics, detections and recommendations",
    ),
    (
        "lint",
        "<file.edl> [--trace <trace.evdb>] [--deny <code,...>] [--max-public N] [--large-copy BYTES]",
        "static interface analysis (exit 1 on denied codes)",
    ),
    (
        "diff",
        "<a.evdb> <b.evdb> [--threshold PCT] [--min-count N] [--json]",
        "A/B regression gate (exit 3 on regression)",
    ),
    (
        "export",
        "<trace.evdb> --format chrome|folded [--profile <p>] [-o <out>]",
        "chrome://tracing JSON or flamegraph stacks",
    ),
    ("dot", "<trace.evdb> [-o <out.dot>]", "call graph in dot format"),
    (
        "hist",
        "<trace.evdb> <call-name> [--bins N] [--json]",
        "per-call duration histogram",
    ),
    (
        "scatter",
        "<trace.evdb> <call-name> [--json]",
        "per-execution duration series",
    ),
    ("info", "<trace.evdb>", "table sizes and physical layout"),
    (
        "races",
        "<trace.evdb> [--json]",
        "race & deadlock analysis (exit 3 on findings)",
    ),
    (
        "fleet",
        "<trace.evdb> [--top N] [--json]",
        "per-slot and aggregate fleet-run statistics",
    ),
    (
        "campaign",
        "<spec.toml> [--out DIR] [--jobs N] [--engine fast|legacy] [--json] [--dry-run] [--resume]",
        "run a supervised scenario matrix (exit 3 on regression, 4 when incomplete)",
    ),
];

fn print_usage() {
    let mut text = String::from("usage:\n");
    for (name, synopsis, _) in SUBCOMMANDS {
        text.push_str(&format!("  sgxperf {name:<8} {synopsis}\n"));
    }
    text.push_str("\ncommands:\n");
    for (name, _, summary) in SUBCOMMANDS {
        text.push_str(&format!("  {name:<8} {summary}\n"));
    }
    text.push_str(
        "\nfault specs (--faults, campaign [faults] values): `;`-separated atoms of\nkind@trigger[:params], where trigger is call=N or t=<duration>, plus an\noptional seed=N clause:\n  aex-storm@call=N|t=D[:count=K]               burst of K AEXs\n  evict-storm@call=N|t=D                       evict all resident EPC pages\n  paging-slow@t=D[:factor=K,dur=D2]            multiply paging costs by K for D2\n  ocall-fail@call=N|t=D[:times=K]              fail the next K ocalls (retried)\n  ocall-timeout@call=N|t=D[:delay=D2,times=K]  stall the next K ocalls by D2\n  worker-stall@call=N|t=D[:delay=D2]           stall switchless workers by D2\n  ring-full@call=N|t=D[:calls=K]               report full switchless rings K times\n  tcs-exhaust@call=N|t=D[:times=K]             report all TCSs busy K times\n  enclave_lost@call=N|t=D                      destroy EPC contents (SGX_ERROR_ENCLAVE_LOST)\n  epc_poison@call=N|t=D                        poison: enclave is lost at its next EENTER\nexample: --faults 'enclave_lost@call=3;ocall-timeout@t=2ms:delay=50us;seed=7'",
    );
    eprintln!("{text}");
}

/// Writes command output to stdout. A reader that went away
/// (`sgxperf … | head`) is not an error: the output stops there and the
/// command keeps its exit code. Any other write error fails the command.
fn emit(text: &str) -> Result<(), String> {
    let mut stdout = std::io::stdout().lock();
    let written = stdout
        .write_all(text.as_bytes())
        .and_then(|()| stdout.flush());
    match written {
        Err(e) if e.kind() != ErrorKind::BrokenPipe => Err(format!("cannot write to stdout: {e}")),
        _ => Ok(()),
    }
}

fn usage() -> ExitCode {
    print_usage();
    ExitCode::from(2)
}

/// `sgxperf lint` — the EDL file replaces the trace as the primary input,
/// so it is dispatched before the shared trace-loading path.
///
/// Exit status: 1 when any produced diagnostic's code is in the `--deny`
/// set (`--deny all` denies every code), 0 otherwise.
fn run_lint(rest: &[String]) -> Result<ExitCode, String> {
    let (path, opts) = rest.split_first().ok_or("missing EDL file")?;
    let source = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let file = sgx_edl::parse_file(&source).map_err(|e| format!("{path}: {e}"))?;

    let mut config = LintConfig::default();
    let mut trace: Option<TraceDb> = None;
    let mut deny: Vec<String> = Vec::new();
    let mut it = opts.iter();
    while let Some(opt) = it.next() {
        match opt.as_str() {
            "--trace" => {
                let v = it.next().ok_or("--trace needs a file")?;
                trace = Some(TraceDb::load(v).map_err(|e| format!("cannot load {v}: {e}"))?);
            }
            "--deny" => {
                let v = it.next().ok_or("--deny needs a code list")?;
                deny.extend(v.split(',').map(|c| c.trim().to_string()));
            }
            "--max-public" => {
                config.max_public_ecalls = it
                    .next()
                    .ok_or("--max-public needs a number")?
                    .parse()
                    .map_err(|e| format!("--max-public: {e}"))?;
            }
            "--large-copy" => {
                config.large_copy_bytes = it
                    .next()
                    .ok_or("--large-copy needs a byte count")?
                    .parse()
                    .map_err(|e| format!("--large-copy: {e}"))?;
            }
            other => return Err(format!("unknown lint option `{other}`")),
        }
    }

    let diags = lint_interface(&file, &config, trace.as_ref());
    for d in &diags {
        emit(&format!("{}\n", d.render(&source, path)))?;
    }
    let denied: Vec<&str> = diags
        .iter()
        .map(|d| d.code)
        .filter(|c| deny.iter().any(|d| d == c || d == "all"))
        .collect();
    let errors = diags
        .iter()
        .filter(|d| d.severity == sgx_edl::Severity::Error)
        .count();
    let warnings = diags
        .iter()
        .filter(|d| d.severity == sgx_edl::Severity::Warning)
        .count();
    emit(&format!(
        "{path}: {} diagnostic(s) ({errors} error(s), {warnings} warning(s))\n",
        diags.len()
    ))?;
    if denied.is_empty() {
        Ok(ExitCode::SUCCESS)
    } else {
        eprintln!("sgxperf: denied lint(s) present: {}", denied.join(", "));
        Ok(ExitCode::FAILURE)
    }
}

/// `sgxperf diff` — needs *two* traces, so it is dispatched before the
/// shared single-trace loading path.
///
/// Exit status: 0 when nothing regressed past the threshold (including a
/// net improvement), 3 on regression, 1 on bad input.
fn run_diff(rest: &[String]) -> Result<ExitCode, String> {
    let mut config = DiffConfig::default();
    let mut json = false;
    let mut paths: Vec<&String> = Vec::new();
    let mut it = rest.iter();
    while let Some(opt) = it.next() {
        match opt.as_str() {
            "--threshold" => {
                let v = it.next().ok_or("--threshold needs a percentage")?;
                let pct: f64 = v.parse().map_err(|e| format!("--threshold: {e}"))?;
                if !pct.is_finite() || pct <= 0.0 {
                    return Err(format!(
                        "--threshold must be a positive percentage, got {v}"
                    ));
                }
                config.threshold = pct / 100.0;
            }
            "--min-count" => {
                config.min_count = it
                    .next()
                    .ok_or("--min-count needs a number")?
                    .parse()
                    .map_err(|e| format!("--min-count: {e}"))?;
            }
            "--json" => json = true,
            other if other.starts_with('-') => {
                return Err(format!("unknown diff option `{other}`"))
            }
            _ => paths.push(opt),
        }
    }
    let [a_path, b_path] = paths[..] else {
        return Err(format!(
            "diff needs exactly two traces (baseline, candidate), got {}",
            paths.len()
        ));
    };
    let a = TraceDb::load(a_path).map_err(|e| format!("cannot load {a_path}: {e}"))?;
    let b = TraceDb::load(b_path).map_err(|e| format!("cannot load {b_path}: {e}"))?;
    let diff = TraceDiff::compute(&a, &b, config);
    if json {
        emit(&diff.to_json())?;
    } else {
        eprintln!("baseline:  {a_path}\ncandidate: {b_path}\n");
        emit(&diff.render())?;
    }
    Ok(ExitCode::from(diff.exit_code()))
}

/// `sgxperf races` — the race & deadlock gate.
///
/// Exit status: 3 when any error-severity finding is present (data races,
/// lock-order cycles), 0 otherwise — warnings (lockset suspicions, locks
/// held across ocalls) report but do not gate.
fn run_races(rest: &[String]) -> Result<ExitCode, String> {
    let mut json = false;
    let mut paths: Vec<&String> = Vec::new();
    for opt in rest {
        match opt.as_str() {
            "--json" => json = true,
            other if other.starts_with('-') => {
                return Err(format!("unknown races option `{other}`"))
            }
            _ => paths.push(opt),
        }
    }
    let [path] = paths[..] else {
        return Err(format!(
            "races needs exactly one trace, got {}",
            paths.len()
        ));
    };
    let trace = TraceDb::load(path).map_err(|e| format!("cannot load {path}: {e}"))?;
    if trace.syncev.is_empty() {
        eprintln!(
            "sgxperf: note: {path} has no sync-event table — record with \
             LoggerConfig::with_syncev() to enable the race analyses"
        );
    }
    let report = races::analyze(&trace);
    if json {
        emit(&report.to_json())?;
    } else {
        emit(&report.render())?;
    }
    Ok(ExitCode::from(report.exit_code()))
}

/// `sgxperf fleet` — per-slot and aggregate statistics of a fleet run.
///
/// Exit status: 0 always (reporting, not gating); 1 on bad input.
fn run_fleet(rest: &[String]) -> Result<ExitCode, String> {
    let mut json = false;
    let mut top = 20usize;
    let mut paths: Vec<&String> = Vec::new();
    let mut it = rest.iter();
    while let Some(opt) = it.next() {
        match opt.as_str() {
            "--json" => json = true,
            "--top" => {
                top = it
                    .next()
                    .ok_or("--top needs a number")?
                    .parse()
                    .map_err(|e| format!("--top: {e}"))?;
            }
            other if other.starts_with('-') => {
                return Err(format!("unknown fleet option `{other}`"))
            }
            _ => paths.push(opt),
        }
    }
    let [path] = paths[..] else {
        return Err(format!(
            "fleet needs exactly one trace, got {}",
            paths.len()
        ));
    };
    let trace = TraceDb::load(path).map_err(|e| format!("cannot load {path}: {e}"))?;
    let report = FleetReport::from_trace(&trace);
    if report.is_empty() {
        eprintln!("sgxperf: note: {path} has no fleet table — record with a fleet run");
    }
    if json {
        emit(&report.to_json())?;
    } else {
        emit(&report.render(top))?;
    }
    Ok(ExitCode::SUCCESS)
}

/// `sgxperf campaign` — the declarative scenario-matrix runner. The only
/// subcommand whose input is a spec file rather than a trace: it records
/// one trace per matrix cell (in parallel), archives them under `--out`
/// (default `target/campaign/<name>`) and gates on the per-cell diff
/// verdicts.
///
/// stdout carries only the byte-stable summary (text table, or JSON with
/// `--json`); wall-clock timing, worker count and engine label go to
/// stderr so two runs of the same spec diff clean.
///
/// Cells run supervised per the spec's `[robustness]` section: panics,
/// budget/deadline timeouts and archive I/O errors fail only their cell,
/// retried up to `retries` times and quarantined in the summary ledger.
/// `--resume` revalidates the archive's `manifest.json` from an
/// interrupted run and re-runs only missing or corrupt cells.
///
/// Exit status: 0 when every cell completed and none regressed past the
/// spec's threshold against its declared baseline, 3 on regression, 4
/// when the matrix is incomplete (broken or unverdictable cells — beats
/// 3), 1 on bad input.
fn run_campaign(rest: &[String]) -> Result<ExitCode, String> {
    let mut out: Option<PathBuf> = None;
    let mut jobs = 0usize;
    let mut engine: Option<Engine> = None;
    let mut json = false;
    let mut dry_run = false;
    let mut resume = false;
    let mut paths: Vec<&String> = Vec::new();
    let mut it = rest.iter();
    while let Some(opt) = it.next() {
        match opt.as_str() {
            "--out" => out = Some(PathBuf::from(it.next().ok_or("--out needs a directory")?)),
            "--jobs" => {
                jobs = it
                    .next()
                    .ok_or("--jobs needs a number")?
                    .parse()
                    .map_err(|e| format!("--jobs: {e}"))?;
            }
            "--engine" => {
                let v = it.next().ok_or("--engine needs fast|legacy")?;
                engine = Some(Engine::parse(v).ok_or_else(|| format!("unknown engine `{v}`"))?);
            }
            "--json" => json = true,
            "--dry-run" => dry_run = true,
            "--resume" => resume = true,
            other if other.starts_with('-') => {
                return Err(format!("unknown campaign option `{other}`"))
            }
            _ => paths.push(opt),
        }
    }
    let [spec_path] = paths[..] else {
        return Err(format!(
            "campaign needs exactly one spec file, got {}",
            paths.len()
        ));
    };
    let source =
        std::fs::read_to_string(spec_path).map_err(|e| format!("cannot read {spec_path}: {e}"))?;
    let spec = CampaignSpec::parse(&source).map_err(|e| format!("{spec_path}: {e}"))?;
    let plan = MatrixPlan::from_spec(spec).map_err(|e| format!("{spec_path}: {e}"))?;

    if dry_run {
        // Echo the canonical spec (the parse/Display fixpoint) and the
        // expanded matrix without running anything.
        emit(&format!("{}\n", plan.spec))?;
        for coord in plan.cells() {
            emit(&format!("{:>5}  {}\n", coord.index, plan.file_name(&coord)))?;
        }
        eprintln!(
            "sgxperf: dry run: {} cell(s), nothing executed",
            plan.spec.cell_count()
        );
        return Ok(ExitCode::SUCCESS);
    }

    let engine = engine.unwrap_or_else(Engine::current);
    let out_dir = out.unwrap_or_else(|| PathBuf::from("target/campaign").join(&plan.spec.name));
    let started = std::time::Instant::now();
    let run = matrix::run(&plan, engine, jobs, Some(&out_dir), resume)?;
    if json {
        emit(&run.to_json())?;
    } else {
        emit(&run.render())?;
    }
    eprintln!(
        "sgxperf: {} cell(s) on the {} engine in {:?} -> {}",
        run.cells.len(),
        engine.label(),
        started.elapsed(),
        out_dir.display(),
    );
    Ok(ExitCode::from(run.exit_code()))
}

fn run() -> Result<ExitCode, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (cmd, rest) = args.split_first().ok_or("missing command")?;
    if cmd == "lint" {
        return run_lint(rest);
    }
    if cmd == "diff" {
        return run_diff(rest);
    }
    if cmd == "races" {
        return run_races(rest);
    }
    if cmd == "fleet" {
        return run_fleet(rest);
    }
    if cmd == "campaign" {
        return run_campaign(rest);
    }
    // How many positional arguments follow the trace.
    let positionals = match cmd.as_str() {
        "report" | "dot" | "export" | "info" => 0,
        "hist" | "scatter" => 1,
        other => {
            print_usage();
            return Err(format!("unknown command `{other}`"));
        }
    };
    let (path, opts) = rest.split_first().ok_or("missing trace file")?;

    let mut profile = HwProfile::Unpatched;
    let mut edl_path: Option<&String> = None;
    let mut out: Option<String> = None;
    let mut bins = 100usize;
    let mut json = false;
    let mut format: Option<String> = None;
    let mut faults: Option<FaultPlan> = None;
    let mut positional = Vec::new();
    let mut it = opts.iter();
    while let Some(opt) = it.next() {
        match opt.as_str() {
            "--profile" => {
                let v = it.next().ok_or("--profile needs a value")?;
                profile = HwProfile::parse(v).ok_or_else(|| format!("unknown profile `{v}`"))?;
            }
            "--edl" => edl_path = Some(it.next().ok_or("--edl needs a file")?),
            "--faults" => {
                let v = it.next().ok_or("--faults needs a fault spec")?;
                faults = Some(FaultPlan::parse(v).map_err(|e| format!("--faults: {e}"))?);
            }
            "-o" => out = Some(it.next().ok_or("-o needs a file")?.clone()),
            "--json" => json = true,
            "--format" => format = Some(it.next().ok_or("--format needs a value")?.clone()),
            "--bins" => {
                bins = it
                    .next()
                    .ok_or("--bins needs a number")?
                    .parse()
                    .map_err(|e| format!("--bins: {e}"))?;
            }
            other if other.starts_with('-') => {
                return Err(format!("unknown {cmd} option `{other}`"));
            }
            other => positional.push(other.to_string()),
        }
    }
    if positional.len() != positionals {
        let wanted = ["no argument", "one call name"][positionals];
        return Err(format!(
            "{cmd} takes {wanted} after the trace, got {}",
            positional.len()
        ));
    }

    let store = eventdb::Store::load(path).map_err(|e| format!("cannot load {path}: {e}"))?;
    let trace = TraceDb::from_store(&store).map_err(|e| format!("cannot load {path}: {e}"))?;
    let mut analyzer = Analyzer::new(&trace, profile.cost_model());
    if let Some(v) = edl_path {
        let src = std::fs::read_to_string(v).map_err(|e| format!("cannot read {v}: {e}"))?;
        let file = sgx_edl::parse_file(&src).map_err(|e| format!("{v}: {e}"))?;
        let lint = lint_interface(&file, &LintConfig::default(), Some(&trace));
        let spec =
            sgx_edl::spec::InterfaceSpec::from_ast(&file).map_err(|e| format!("{v}: {e}"))?;
        analyzer = analyzer.with_edl(spec).with_lint(lint);
    }

    match cmd.as_str() {
        "report" => {
            // Echo the canonical form of the fault plan the trace was (or
            // is to be) recorded under — to stderr, so `--json` stdout
            // stays valid JSON. Parsing the echo back yields the same
            // plan: `Display` is the grammar's fixpoint.
            if let Some(plan) = &faults {
                eprintln!("fault plan: {plan}");
            }
            let report = analyzer.analyze();
            if json {
                emit(&report.to_json())?;
            } else {
                emit(&report.render())?;
            }
        }
        "dot" => {
            let dot = analyzer.call_graph().to_dot();
            match out {
                Some(path) => {
                    std::fs::write(&path, dot).map_err(|e| format!("cannot write {path}: {e}"))?;
                    eprintln!("wrote {path}");
                }
                None => emit(&dot)?,
            }
        }
        "export" => {
            let format = format.ok_or("export needs --format chrome|folded")?;
            let rendered = match format.as_str() {
                "chrome" => export::chrome_trace(&trace, analyzer.cost_model()),
                "folded" => export::folded_stacks(&trace, analyzer.cost_model()),
                other => return Err(format!("unknown export format `{other}`")),
            };
            match out {
                Some(path) => {
                    std::fs::write(&path, rendered)
                        .map_err(|e| format!("cannot write {path}: {e}"))?;
                    eprintln!("wrote {path}");
                }
                None => emit(&rendered)?,
            }
        }
        "hist" => {
            let name = &positional[0];
            let instances = analyzer.instances();
            let call = instances
                .call_named(name)
                .ok_or_else(|| format!("no call named `{name}`"))?;
            let hist = Histogram::of_call(&instances, call, bins)
                .ok_or_else(|| format!("`{name}` has no recorded executions"))?;
            if json {
                emit(&hist.to_json())?;
            } else {
                emit(&format!("{}\n", hist.render_ascii(24, 48)))?;
            }
            if let Some(path) = out {
                std::fs::write(&path, hist.to_csv())
                    .map_err(|e| format!("cannot write {path}: {e}"))?;
                eprintln!("wrote {path}");
            }
        }
        "scatter" => {
            let name = &positional[0];
            let instances = analyzer.instances();
            let call = instances
                .call_named(name)
                .ok_or_else(|| format!("no call named `{name}`"))?;
            let points = scatter(&instances, call);
            if json {
                emit(&scatter_json(&points))?;
            } else {
                emit(&scatter_csv(&points))?;
            }
        }
        "info" => {
            let counts: Vec<String> = trace
                .table_rows()
                .into_iter()
                .map(|(tag, rows)| format!("{tag}: {rows}"))
                .collect();
            emit(&format!("{}\n", counts.join("  ")))?;
            // Physical layout, via the store's enumeration API — row counts
            // and byte sizes per section without decoding any records.
            emit(&format!(
                "sections ({} payload bytes):\n",
                store.payload_bytes()
            ))?;
            for info in store.sections() {
                let info = info.map_err(|e| format!("{path}: {e}"))?;
                emit(&format!(
                    "  {:<12} {:>8} rows {:>10} bytes\n",
                    info.tag, info.rows, info.bytes
                ))?;
            }
        }
        other => unreachable!("`{other}` was checked above"),
    }
    Ok(ExitCode::SUCCESS)
}

fn main() -> ExitCode {
    if std::env::args().len() < 3 {
        return usage();
    }
    match run() {
        Ok(code) => code,
        Err(msg) => {
            eprintln!("sgxperf: {msg}");
            ExitCode::FAILURE
        }
    }
}
