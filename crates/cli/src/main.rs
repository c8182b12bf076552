//! The sgx-perf command-line analyser: consumes a trace file recorded by
//! the event logger and produces reports, call graphs and plot data —
//! the offline half of the tool collection (§4.3).
//!
//! Run `sgxperf` without arguments for the usage text. It is generated
//! from [`SUBCOMMANDS`], whose synopses are also the only declaration of
//! what each subcommand accepts: [`Args::parse`] reads its command line
//! against them, and anything a synopsis does not declare exits 1 before
//! any file is read.
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
use std::str::FromStr;

use sgx_edl::lint::{codes, LintConfig};
use sgx_perf::analysis::diff::{DiffConfig, TraceDiff};
use sgx_perf::analysis::lint::lint_interface;
use sgx_perf::analysis::parents::Instances;
use sgx_perf::analysis::races;
use sgx_perf::analysis::stats::{scatter, scatter_csv, scatter_json, Histogram};
use sgx_perf::{export, Analyzer, CallRef, FleetReport, TraceDb};
use sim_core::campaign::CampaignSpec;
use sim_core::fault::FaultPlan;
use sim_core::HwProfile;
use sim_threads::Engine;
use workloads::campaign::matrix::{self, MatrixPlan};

/// A subcommand's body: it runs on a command line already checked
/// against the subcommand's synopsis.
type Handler = fn(&Args) -> Result<ExitCode, String>;

/// Every subcommand: (name, synopsis, one-line summary, handler). The
/// usage text is generated from this table, so an unknown-subcommand
/// error always lists the complete, current set. The synopsis is also
/// the only declaration of the subcommand's operands and flags: see
/// [`Args::parse`] for how it is read.
const SUBCOMMANDS: &[(&str, &str, &str, Handler)] = &[
    (
        "report",
        "<trace.evdb> [--profile unpatched|spectre|l1tf] [--edl <file.edl>] [--faults <spec>] [--json]",
        "statistics, detections and recommendations",
        run_report,
    ),
    (
        "lint",
        "<file.edl> [--trace <trace.evdb>] [--deny <code,...>] [--max-public N] [--large-copy BYTES]",
        "static interface analysis (exit 1 on denied codes)",
        run_lint,
    ),
    (
        "diff",
        "<a.evdb> <b.evdb> [--threshold PCT] [--min-count N] [--json]",
        "A/B regression gate (exit 3 on regression)",
        run_diff,
    ),
    (
        "export",
        "<trace.evdb> --format chrome|folded [--profile <p>] [-o <out>]",
        "chrome://tracing JSON or flamegraph stacks",
        run_export,
    ),
    (
        "dot",
        "<trace.evdb> [-o <out.dot>]",
        "call graph in dot format",
        run_dot,
    ),
    (
        "hist",
        "<trace.evdb> <call-name> [--bins N] [--json] [-o <out.csv>]",
        "per-call duration histogram",
        run_hist,
    ),
    (
        "scatter",
        "<trace.evdb> <call-name> [--json]",
        "per-execution duration series",
        run_scatter,
    ),
    (
        "info",
        "<trace.evdb>",
        "table sizes and physical layout",
        run_info,
    ),
    (
        "races",
        "<trace.evdb> [--json]",
        "race & deadlock analysis (exit 3 on findings)",
        run_races,
    ),
    (
        "fleet",
        "<trace.evdb> [--top N] [--json]",
        "per-slot and aggregate fleet-run statistics",
        run_fleet,
    ),
    (
        "campaign",
        "<spec.toml> [--out DIR] [--jobs N] [--engine fast|legacy] [--json] [--dry-run] [--resume]",
        "run a supervised scenario matrix (exit 3 on regression, 4 when incomplete)",
        run_campaign,
    ),
];

fn print_usage() {
    let mut text = String::from("usage:\n");
    for (name, synopsis, ..) in SUBCOMMANDS {
        text.push_str(&format!("  sgxperf {name:<8} {synopsis}\n"));
    }
    text.push_str("\ncommands:\n");
    for (name, _, summary, _) in SUBCOMMANDS {
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

/// One subcommand's command line, checked against its synopsis.
struct Args<'a> {
    /// The flags the synopsis declares: each flag's name and, for a flag
    /// that takes a value, the value's placeholder.
    declared: Vec<(&'static str, Option<&'static str>)>,
    /// The operands, in command-line order.
    operands: Vec<&'a str>,
    /// The flags given, each with its value (`""` for a switch).
    given: Vec<(&'static str, &'a str)>,
}

impl<'a> Args<'a> {
    /// Reads `argv` against `synopsis`. In a synopsis, a `<placeholder>`
    /// outside brackets is an operand, `[--flag VALUE]` (or a bare
    /// `--flag VALUE`) declares a flag that takes a value and `[--flag]` a
    /// switch. On the command line, operands and flags may come in any
    /// order; any argument that starts with `-` is a flag, and a value flag
    /// takes the argument after it as its value, whatever it is.
    ///
    /// # Errors
    ///
    /// An undeclared flag (the error names the declared ones), a repeated
    /// flag, a value flag with no value left, or a wrong number of
    /// operands.
    fn parse(cmd: &str, synopsis: &'static str, argv: &'a [String]) -> Result<Args<'a>, String> {
        let mut wanted = Vec::new();
        let mut declared = Vec::new();
        let mut words = synopsis.split_whitespace();
        while let Some(word) = words.next() {
            let bare = word.trim_start_matches('[').trim_end_matches(']');
            if !bare.starts_with('-') {
                wanted.push(bare);
                continue;
            }
            let placeholder = (!word.ends_with(']')).then(|| {
                let value = words.next().expect("a value flag names its value");
                value.trim_end_matches(']')
            });
            declared.push((bare, placeholder));
        }

        let mut args = Args {
            declared,
            operands: Vec::new(),
            given: Vec::new(),
        };
        let mut it = argv.iter();
        while let Some(arg) = it.next() {
            if !arg.starts_with('-') {
                args.operands.push(arg);
                continue;
            }
            let Some(&(flag, placeholder)) = args.declared.iter().find(|(f, _)| f == arg) else {
                let names: Vec<&str> = args.declared.iter().map(|(f, _)| *f).collect();
                let takes = if names.is_empty() {
                    "no options".to_string()
                } else {
                    names.join(", ")
                };
                return Err(format!(
                    "unknown {cmd} option `{arg}` ({cmd} takes {takes})"
                ));
            };
            if args.given.iter().any(|(f, _)| *f == flag) {
                return Err(format!("{flag} given twice"));
            }
            let value = match placeholder {
                Some(p) => it.next().ok_or_else(|| format!("{flag} needs {p}"))?,
                None => "",
            };
            args.given.push((flag, value));
        }
        if args.operands.len() != wanted.len() {
            return Err(operand_error(cmd, &wanted, args.operands.len()));
        }
        Ok(args)
    }

    /// The value given for `flag` (`""` for a switch), or `None` when the
    /// flag was not given.
    fn get(&self, flag: &str) -> Option<&'a str> {
        assert!(
            self.declared.iter().any(|(f, _)| *f == flag),
            "`{flag}` is not in the synopsis"
        );
        self.given.iter().find(|(f, _)| *f == flag).map(|(_, v)| *v)
    }

    fn has(&self, flag: &str) -> bool {
        self.get(flag).is_some()
    }

    /// `flag`'s value parsed as a `T`, or `default` when it was not given.
    fn parse_or<T: FromStr>(&self, flag: &str, default: T) -> Result<T, String>
    where
        T::Err: std::fmt::Display,
    {
        self.get(flag).map_or(Ok(default), |v| {
            v.parse().map_err(|e| format!("{flag}: {e}"))
        })
    }

    /// The `--profile` given, or the unpatched default.
    fn profile(&self) -> Result<HwProfile, String> {
        self.get("--profile").map_or(Ok(HwProfile::Unpatched), |v| {
            HwProfile::parse(v).ok_or_else(|| format!("unknown profile `{v}`"))
        })
    }

    /// Writes `text` to the `-o` file when one is given, else to stdout.
    fn output(&self, text: &str) -> Result<(), String> {
        match self.get("-o") {
            Some(path) => write_file(path, text),
            None => emit(text),
        }
    }
}

/// The error for a wrong operand count, worded from the synopsis's
/// operand placeholders (at most two: the input and one more).
fn operand_error(cmd: &str, wanted: &[&str], got: usize) -> String {
    let nouns: Vec<String> = wanted
        .iter()
        .map(|op| {
            let op = op.trim_matches(['<', '>']);
            match op.rsplit_once('.') {
                Some((_, "evdb")) => "trace".to_string(),
                Some((_, "edl")) => "EDL file".to_string(),
                Some((_, "toml")) => "spec file".to_string(),
                _ => op.replace('-', " "),
            }
        })
        .collect();
    let (input, rest) = nouns.split_first().expect("every synopsis names its input");
    match rest {
        [more] if more == input => format!("{cmd} needs exactly two {input}s, got {got}"),
        _ if got == 0 => format!("{cmd} is missing its {input}"),
        [] => format!("{cmd} takes no argument after the {input}, got {}", got - 1),
        [more, ..] => format!("{cmd} takes one {more} after the {input}, got {}", got - 1),
    }
}

fn write_file(path: &str, text: &str) -> Result<(), String> {
    std::fs::write(path, text).map_err(|e| format!("cannot write {path}: {e}"))?;
    eprintln!("wrote {path}");
    Ok(())
}

fn load(path: &str) -> Result<TraceDb, String> {
    TraceDb::load(path).map_err(|e| format!("cannot load {path}: {e}"))
}

/// `sgxperf report` — statistics, detections and recommendations, plus
/// the EDL lint cross-check with `--edl`.
fn run_report(args: &Args) -> Result<ExitCode, String> {
    let path = args.operands[0];
    let profile = args.profile()?;
    let faults = args
        .get("--faults")
        .map(|v| FaultPlan::parse(v).map_err(|e| format!("--faults: {e}")))
        .transpose()?;
    let trace = load(path)?;
    let mut analyzer = Analyzer::new(&trace, profile.cost_model());
    if let Some(v) = args.get("--edl") {
        let src = std::fs::read_to_string(v).map_err(|e| format!("cannot read {v}: {e}"))?;
        let file = sgx_edl::parse_file(&src).map_err(|e| format!("{v}: {e}"))?;
        let lint = lint_interface(&file, &LintConfig::default(), Some(&trace));
        let spec =
            sgx_edl::spec::InterfaceSpec::from_ast(&file).map_err(|e| format!("{v}: {e}"))?;
        analyzer = analyzer.with_edl(spec).with_lint(lint);
    }
    // Echo the canonical form of the fault plan the trace was (or is to
    // be) recorded under — to stderr, so `--json` stdout stays valid
    // JSON. Parsing the echo back yields the same plan: `Display` is the
    // grammar's fixpoint.
    if let Some(plan) = &faults {
        eprintln!("fault plan: {plan}");
    }
    let report = analyzer.analyze();
    if args.has("--json") {
        emit(&report.to_json())?;
    } else {
        emit(&report.render())?;
    }
    Ok(ExitCode::SUCCESS)
}

fn run_dot(args: &Args) -> Result<ExitCode, String> {
    let trace = load(args.operands[0])?;
    let analyzer = Analyzer::new(&trace, HwProfile::Unpatched.cost_model());
    args.output(&analyzer.call_graph().to_dot())?;
    Ok(ExitCode::SUCCESS)
}

fn run_export(args: &Args) -> Result<ExitCode, String> {
    let path = args.operands[0];
    let format = args
        .get("--format")
        .ok_or("export needs --format chrome|folded")?;
    let cost = args.profile()?.cost_model();
    let trace = load(path)?;
    let rendered = match format {
        "chrome" => export::chrome_trace(&trace, &cost),
        "folded" => export::folded_stacks(&trace, &cost),
        other => return Err(format!("unknown export format `{other}`")),
    };
    args.output(&rendered)?;
    Ok(ExitCode::SUCCESS)
}

/// Loads the trace at `path` and finds the call named `name` in it.
fn named_call(path: &str, name: &str) -> Result<(Instances, CallRef), String> {
    let trace = load(path)?;
    let instances = Analyzer::new(&trace, HwProfile::Unpatched.cost_model()).instances();
    let call = instances
        .call_named(name)
        .ok_or_else(|| format!("no call named `{name}`"))?;
    Ok((instances, call))
}

/// `sgxperf hist` — prints the histogram (ASCII, or JSON with `--json`)
/// and with `-o` also writes it as CSV.
fn run_hist(args: &Args) -> Result<ExitCode, String> {
    let bins = args.parse_or("--bins", 100usize)?;
    if bins == 0 {
        return Err("--bins must be at least 1".to_string());
    }
    let name = args.operands[1];
    let (instances, call) = named_call(args.operands[0], name)?;
    let hist = Histogram::of_call(&instances, call, bins)
        .ok_or_else(|| format!("`{name}` has no recorded executions"))?;
    if args.has("--json") {
        emit(&hist.to_json())?;
    } else {
        emit(&format!("{}\n", hist.render_ascii(24, 48)))?;
    }
    if let Some(path) = args.get("-o") {
        write_file(path, &hist.to_csv())?;
    }
    Ok(ExitCode::SUCCESS)
}

fn run_scatter(args: &Args) -> Result<ExitCode, String> {
    let (instances, call) = named_call(args.operands[0], args.operands[1])?;
    let points = scatter(&instances, call);
    if args.has("--json") {
        emit(&scatter_json(&points))?;
    } else {
        emit(&scatter_csv(&points))?;
    }
    Ok(ExitCode::SUCCESS)
}

fn run_info(args: &Args) -> Result<ExitCode, String> {
    let path = args.operands[0];
    let data = std::fs::read(path).map_err(|e| format!("cannot load {path}: i/o error: {e}"))?;
    let store = eventdb::Store::parse(&data).map_err(|e| format!("cannot load {path}: {e}"))?;
    let trace = TraceDb::from_store(&store).map_err(|e| format!("cannot load {path}: {e}"))?;
    let counts: Vec<String> = trace
        .table_rows()
        .into_iter()
        .map(|(tag, rows)| format!("{tag}: {rows}"))
        .collect();
    emit(&format!("{}\n", counts.join("  ")))?;
    // Physical layout, via the store's enumeration API — row counts and
    // byte sizes per section without decoding any records.
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
    Ok(ExitCode::SUCCESS)
}

/// `sgxperf lint` — the EDL file replaces the trace as the primary input.
///
/// Exit status: 1 when any produced diagnostic's code is in the `--deny`
/// set (`--deny all` denies every code) or the set names a code that does
/// not exist, 0 otherwise.
fn run_lint(args: &Args) -> Result<ExitCode, String> {
    let path = args.operands[0];
    let deny: Vec<&str> = args
        .get("--deny")
        .map_or(Vec::new(), |v| v.split(',').map(str::trim).collect());
    if let Some(code) = deny
        .iter()
        .find(|c| **c != "all" && !codes::ALL.contains(c))
    {
        return Err(format!(
            "--deny: unknown lint code `{code}` (codes are {}, or all)",
            codes::ALL.join(", ")
        ));
    }
    let defaults = LintConfig::default();
    let config = LintConfig {
        max_public_ecalls: args.parse_or("--max-public", defaults.max_public_ecalls)?,
        large_copy_bytes: args.parse_or("--large-copy", defaults.large_copy_bytes)?,
    };
    let source = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let file = sgx_edl::parse_file(&source).map_err(|e| format!("{path}: {e}"))?;
    let trace = args.get("--trace").map(load).transpose()?;

    let diags = lint_interface(&file, &config, trace.as_ref());
    for d in &diags {
        emit(&format!("{}\n", d.render(&source, path)))?;
    }
    let denied: Vec<&str> = diags
        .iter()
        .map(|d| d.code)
        .filter(|c| deny.iter().any(|d| d == c || *d == "all"))
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

/// `sgxperf diff` — compares a candidate trace against a baseline.
///
/// Exit status: 0 when nothing regressed past the threshold (including a
/// net improvement), 3 on regression, 1 on bad input.
fn run_diff(args: &Args) -> Result<ExitCode, String> {
    let (a_path, b_path) = (args.operands[0], args.operands[1]);
    let mut config = DiffConfig::default();
    if let Some(v) = args.get("--threshold") {
        let pct: f64 = v.parse().map_err(|e| format!("--threshold: {e}"))?;
        if !pct.is_finite() || pct <= 0.0 {
            return Err(format!(
                "--threshold must be a positive percentage, got {v}"
            ));
        }
        config.threshold = pct / 100.0;
    }
    config.min_count = args.parse_or("--min-count", config.min_count)?;
    let a = load(a_path)?;
    let b = load(b_path)?;
    let diff = TraceDiff::compute(&a, &b, config);
    if args.has("--json") {
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
fn run_races(args: &Args) -> Result<ExitCode, String> {
    let path = args.operands[0];
    let trace = load(path)?;
    if trace.syncev.is_empty() {
        eprintln!(
            "sgxperf: note: {path} has no sync-event table — record with \
             LoggerConfig::with_syncev() to enable the race analyses"
        );
    }
    let report = races::analyze(&trace);
    if args.has("--json") {
        emit(&report.to_json())?;
    } else {
        emit(&report.render())?;
    }
    Ok(ExitCode::from(report.exit_code()))
}

/// `sgxperf fleet` — per-slot and aggregate statistics of a fleet run.
///
/// Exit status: 0 always (reporting, not gating); 1 on bad input.
fn run_fleet(args: &Args) -> Result<ExitCode, String> {
    let path = args.operands[0];
    let top = args.parse_or("--top", 20usize)?;
    let trace = load(path)?;
    let report = FleetReport::from_trace(&trace);
    if report.is_empty() {
        eprintln!("sgxperf: note: {path} has no fleet table — record with a fleet run");
    }
    if args.has("--json") {
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
fn run_campaign(args: &Args) -> Result<ExitCode, String> {
    let spec_path = args.operands[0];
    let jobs = args.parse_or("--jobs", 0usize)?;
    let engine = args
        .get("--engine")
        .map(|v| Engine::parse(v).ok_or_else(|| format!("unknown engine `{v}`")))
        .transpose()?;
    let source =
        std::fs::read_to_string(spec_path).map_err(|e| format!("cannot read {spec_path}: {e}"))?;
    let spec = CampaignSpec::parse(&source).map_err(|e| format!("{spec_path}: {e}"))?;
    let plan = MatrixPlan::from_spec(spec).map_err(|e| format!("{spec_path}: {e}"))?;

    if args.has("--dry-run") {
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
    let out_dir = args.get("--out").map_or_else(
        || PathBuf::from("target/campaign").join(&plan.spec.name),
        PathBuf::from,
    );
    let started = std::time::Instant::now();
    let run = matrix::run(&plan, engine, jobs, Some(&out_dir), args.has("--resume"))?;
    if args.has("--json") {
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
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (cmd, rest) = argv.split_first().ok_or("missing command")?;
    let Some(&(name, synopsis, _, handler)) = SUBCOMMANDS.iter().find(|(name, ..)| name == cmd)
    else {
        print_usage();
        return Err(format!("unknown command `{cmd}`"));
    };
    handler(&Args::parse(name, synopsis, rest)?)
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
