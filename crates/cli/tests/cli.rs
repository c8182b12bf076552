//! Smoke tests of the `sgxperf` command-line analyser.

use std::process::{Command, Stdio};
use std::sync::Arc;

use sgx_perf::events::{EcallRow, OcallRow, SymbolRow};
use sgx_perf::{Logger, LoggerConfig, TraceDb};
use sgx_sdk::{CallData, OcallTableBuilder, Runtime, ThreadCtx};
use sgx_sim::{EnclaveConfig, Machine};
use sim_core::{Clock, HwProfile, Nanos};
use workloads::{chaos, switchless_loop};

/// Records a small trace with one hot ecall + nested ocall and writes it
/// to a temp file; returns the path.
fn record_trace(tag: &str) -> std::path::PathBuf {
    let machine = Arc::new(Machine::new(Clock::new(), HwProfile::Unpatched));
    let rt = Runtime::new(machine);
    let spec = sgx_edl::parse(
        "enclave { trusted { public void ecall_step(uint64_t i); };
                   untrusted { void ocall_note(uint64_t i); }; };",
    )
    .unwrap();
    let enclave = rt.create_enclave(&spec, &EnclaveConfig::default()).unwrap();
    enclave
        .register_ecall("ecall_step", |ctx, data| {
            ctx.compute(Nanos::from_micros(1))?;
            ctx.ocall("ocall_note", &mut CallData::new(data.scalar))
        })
        .unwrap();
    let mut builder = OcallTableBuilder::new(enclave.spec());
    builder
        .register("ocall_note", |h, _| {
            h.compute(Nanos::from_nanos(300));
            Ok(())
        })
        .unwrap();
    let table = Arc::new(builder.build().unwrap());
    let logger = Logger::attach(&rt, LoggerConfig::default());
    let tcx = ThreadCtx::main();
    for i in 0..64 {
        rt.ecall(
            &tcx,
            enclave.id(),
            "ecall_step",
            &table,
            &mut CallData::new(i),
        )
        .unwrap();
    }
    let dir = std::env::temp_dir().join("sgxperf-cli-test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(format!("{tag}.evdb"));
    logger.finish().save(&path).unwrap();
    path
}

fn sgxperf(args: &[&str]) -> (String, String, bool) {
    let out = Command::new(env!("CARGO_BIN_EXE_sgxperf"))
        .args(args)
        .output()
        .expect("spawn sgxperf");
    (
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
        out.status.success(),
    )
}

/// Like [`sgxperf`] but returns the raw exit code — the diff verdict is
/// an exit-code contract (0 / 3), not just success/failure.
fn sgxperf_code(args: &[&str]) -> (String, String, i32) {
    let out = Command::new(env!("CARGO_BIN_EXE_sgxperf"))
        .args(args)
        .output()
        .expect("spawn sgxperf");
    (
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
        out.status.code().expect("exit code"),
    )
}

/// Minimal structural JSON check: balanced braces/brackets outside
/// strings and non-empty — catches malformed hand-rolled output without
/// a parser dependency.
fn assert_balanced_json(s: &str) {
    let mut depth = 0i64;
    let mut in_str = false;
    let mut esc = false;
    for c in s.chars() {
        if in_str {
            if esc {
                esc = false;
            } else if c == '\\' {
                esc = true;
            } else if c == '"' {
                in_str = false;
            }
            continue;
        }
        match c {
            '"' => in_str = true,
            '{' | '[' => depth += 1,
            '}' | ']' => depth -= 1,
            _ => {}
        }
        assert!(depth >= 0, "unbalanced JSON: {s}");
    }
    assert_eq!(depth, 0, "unbalanced JSON: {s}");
    assert!(!in_str, "unterminated string in JSON: {s}");
    assert!(s.trim_start().starts_with('{'), "not an object: {s}");
}

#[test]
fn report_command_prints_findings() {
    let trace = record_trace("report");
    let (stdout, _, ok) = sgxperf(&["report", trace.to_str().unwrap()]);
    assert!(ok);
    assert!(stdout.contains("sgx-perf analysis report"), "{stdout}");
    assert!(stdout.contains("ecall_step"), "{stdout}");
    // The 1 us ecall in a tight loop must be flagged.
    assert!(
        stdout.contains("SISC") || stdout.contains("batch"),
        "{stdout}"
    );
}

#[test]
fn dot_command_emits_graphviz() {
    let trace = record_trace("dot");
    let (stdout, _, ok) = sgxperf(&["dot", trace.to_str().unwrap()]);
    assert!(ok);
    assert!(stdout.starts_with("digraph"), "{stdout}");
    assert!(stdout.contains("ocall_note"), "{stdout}");
}

#[test]
fn hist_command_renders_ascii() {
    let trace = record_trace("hist");
    let (stdout, _, ok) = sgxperf(&["hist", trace.to_str().unwrap(), "ecall_step"]);
    assert!(ok);
    assert!(stdout.contains('#'), "{stdout}");
}

#[test]
fn scatter_command_emits_csv() {
    let trace = record_trace("scatter");
    let (stdout, _, ok) = sgxperf(&["scatter", trace.to_str().unwrap(), "ecall_step"]);
    assert!(ok);
    assert!(stdout.starts_with("time_ns,duration_ns"), "{stdout}");
    assert_eq!(stdout.lines().count(), 65); // header + 64 points
}

#[test]
fn info_command_counts_tables() {
    let trace = record_trace("info");
    let (stdout, _, ok) = sgxperf(&["info", trace.to_str().unwrap()]);
    assert!(ok);
    assert!(stdout.contains("ecalls: 64"), "{stdout}");
    assert!(stdout.contains("ocalls: 64"), "{stdout}");
    // The count line names every table, written to the file or not.
    let counts = stdout.lines().next().unwrap();
    let tables: Vec<&str> = counts
        .split("  ")
        .map(|c| c.split(':').next().unwrap())
        .collect();
    assert_eq!(
        tables,
        [
            "ecalls",
            "ocalls",
            "aex",
            "paging",
            "sync",
            "enclaves",
            "symbols",
            "switchless",
            "faults",
            "lifecycle",
            "syncev",
            "fleet"
        ],
        "{counts}"
    );
}

#[test]
fn single_trace_commands_reject_stray_arguments() {
    let trace = record_trace("stray-args");
    let path = trace.to_str().unwrap();
    for (args, error) in [
        (
            &["report", path, "--jsno"][..],
            "unknown report option `--jsno`",
        ),
        (
            &["hist", path, "--bins-typo", "5", "ecall_step"],
            "unknown hist option `--bins-typo`",
        ),
        (
            &["dot", path, "stray"],
            "dot takes no argument after the trace",
        ),
        (
            &["export", path, "--format", "folded", "stray"],
            "export takes no argument",
        ),
        (&["info", path, "stray"], "info takes no argument"),
        (&["report", path, "stray"], "report takes no argument"),
        (
            &["hist", path],
            "hist takes one call name after the trace, got 0",
        ),
        (
            &["scatter", path, "ecall_step", "stray"],
            "scatter takes one call name after the trace, got 2",
        ),
    ] {
        let (stdout, stderr, code) = sgxperf_code(args);
        assert_eq!(code, 1, "{args:?}: {stderr}");
        assert!(stderr.contains(error), "{args:?}: {stderr}");
        assert!(stdout.is_empty(), "{args:?}: {stdout}");
    }
}

/// EDL with one exercised `user_check` ecall and one dead public ecall —
/// the cross-check scenario. Returned paths: (edl file, trace file).
fn record_lint_scenario(tag: &str) -> (std::path::PathBuf, std::path::PathBuf) {
    const EDL: &str = "enclave {
    trusted {
        public void ecall_step([user_check] void* p);
        public void ecall_never();
    };
    untrusted {
        void ocall_note(uint64_t i);
    };
};\n";
    let machine = Arc::new(Machine::new(Clock::new(), HwProfile::Unpatched));
    let rt = Runtime::new(machine);
    let spec = sgx_edl::parse(EDL).unwrap();
    let enclave = rt.create_enclave(&spec, &EnclaveConfig::default()).unwrap();
    enclave
        .register_ecall("ecall_step", |ctx, data| {
            ctx.compute(Nanos::from_micros(1))?;
            ctx.ocall("ocall_note", &mut CallData::new(data.scalar))
        })
        .unwrap();
    let mut builder = OcallTableBuilder::new(enclave.spec());
    builder
        .register("ocall_note", |h, _| {
            h.compute(Nanos::from_nanos(300));
            Ok(())
        })
        .unwrap();
    let table = Arc::new(builder.build().unwrap());
    let logger = Logger::attach(&rt, LoggerConfig::default());
    let tcx = ThreadCtx::main();
    for i in 0..16 {
        rt.ecall(
            &tcx,
            enclave.id(),
            "ecall_step",
            &table,
            &mut CallData::new(i),
        )
        .unwrap();
    }
    let dir = std::env::temp_dir().join("sgxperf-cli-test");
    std::fs::create_dir_all(&dir).unwrap();
    let edl_path = dir.join(format!("{tag}.edl"));
    std::fs::write(&edl_path, EDL).unwrap();
    let trace_path = dir.join(format!("{tag}.evdb"));
    logger.finish().save(&trace_path).unwrap();
    (edl_path, trace_path)
}

#[test]
fn lint_command_renders_rustc_style_diagnostics() {
    let (edl, _) = record_lint_scenario("lint-static");
    let (stdout, _, ok) = sgxperf(&["lint", edl.to_str().unwrap()]);
    assert!(ok);
    // Static pass: user_check is a warning, with excerpt and carets.
    assert!(stdout.contains("warning[EDL-W001]"), "{stdout}");
    assert!(stdout.contains("--> "), "{stdout}");
    assert!(stdout.contains("^^^^^^^^^^"), "{stdout}");
    assert!(stdout.contains("= help:"), "{stdout}");
    assert!(stdout.contains("diagnostic(s)"), "{stdout}");
    // No trace: the dead public ecall cannot be detected.
    assert!(!stdout.contains("EDL-W009"), "{stdout}");
}

#[test]
fn lint_trace_cross_check_escalates_and_finds_dead_ecalls() {
    let (edl, trace) = record_lint_scenario("lint-trace");
    let (stdout, _, ok) = sgxperf(&[
        "lint",
        edl.to_str().unwrap(),
        "--trace",
        trace.to_str().unwrap(),
    ]);
    assert!(ok);
    // The exercised user_check pointer is now an error...
    assert!(stdout.contains("error[EDL-W001]"), "{stdout}");
    assert!(
        stdout.contains("exercises `ecall_step` 16 time(s)"),
        "{stdout}"
    );
    // ...and the never-called public ecall is reported.
    assert!(stdout.contains("note[EDL-W009]"), "{stdout}");
    assert!(stdout.contains("ecall_never"), "{stdout}");
}

#[test]
fn lint_deny_returns_nonzero_exit() {
    let (edl, _) = record_lint_scenario("lint-deny");
    let (_, stderr, ok) = sgxperf(&["lint", edl.to_str().unwrap(), "--deny", "EDL-W001"]);
    assert!(!ok);
    assert!(
        stderr.contains("denied lint(s) present: EDL-W001"),
        "{stderr}"
    );
    // Denying a code that does not fire passes.
    let (_, _, ok) = sgxperf(&["lint", edl.to_str().unwrap(), "--deny", "EDL-W008"]);
    assert!(ok);
    // `--deny all` fails on any diagnostic.
    let (_, _, ok) = sgxperf(&["lint", edl.to_str().unwrap(), "--deny", "all"]);
    assert!(!ok);
}

#[test]
fn report_with_edl_includes_lint_findings() {
    let (edl, trace) = record_lint_scenario("lint-report");
    let (stdout, _, ok) = sgxperf(&[
        "report",
        trace.to_str().unwrap(),
        "--edl",
        edl.to_str().unwrap(),
    ]);
    assert!(ok);
    assert!(stdout.contains("edl lint findings"), "{stdout}");
    assert!(stdout.contains("EDL-W001"), "{stdout}");
    assert!(stdout.contains("EDL-W009"), "{stdout}");
}

#[test]
fn bad_inputs_fail_cleanly() {
    let (_, stderr, ok) = sgxperf(&["report", "/nonexistent/trace.evdb"]);
    assert!(!ok);
    assert!(stderr.contains("cannot load"), "{stderr}");
    let trace = record_trace("bad");
    let (_, stderr, ok) = sgxperf(&["hist", trace.to_str().unwrap(), "no_such_call"]);
    assert!(!ok);
    assert!(stderr.contains("no call named"), "{stderr}");
    let (_, stderr, ok) = sgxperf(&["frobnicate", trace.to_str().unwrap()]);
    assert!(!ok);
    assert!(stderr.contains("unknown command"), "{stderr}");
}

#[test]
fn unknown_command_prints_usage() {
    let trace = record_trace("usage");
    let (_, stderr, ok) = sgxperf(&["frobnicate", trace.to_str().unwrap()]);
    assert!(!ok);
    assert!(stderr.contains("usage:"), "{stderr}");
    assert!(stderr.contains("sgxperf report"), "{stderr}");
    assert!(stderr.contains("unknown command `frobnicate`"), "{stderr}");
    // The usage text is generated from the subcommand table: every
    // subcommand appears, including the newest.
    for cmd in [
        "report", "lint", "diff", "export", "dot", "hist", "scatter", "info", "races", "fleet",
        "campaign",
    ] {
        assert!(
            stderr.contains(&format!("sgxperf {cmd}")),
            "{cmd}: {stderr}"
        );
    }
}

#[test]
fn usage_synopses_cover_current_flags() {
    let trace = record_trace("usage-flags");
    let (_, stderr, _) = sgxperf(&["frobnicate", trace.to_str().unwrap()]);
    // Drift guard: the generated synopses must mention the flags each
    // subcommand actually accepts.
    for flag in [
        "--faults",
        "--top",
        "--edl",
        "--deny",
        "--threshold",
        "--out",
        "--jobs",
        "--engine",
        "--dry-run",
        "--resume",
    ] {
        assert!(stderr.contains(flag), "{flag} missing from usage: {stderr}");
    }
    // The fault-atom help lists the grammar's real kind names.
    for kind in [
        "aex-storm",
        "evict-storm",
        "paging-slow",
        "ocall-fail",
        "ocall-timeout",
        "worker-stall",
        "ring-full",
        "tcs-exhaust",
        "enclave_lost",
        "epc_poison",
    ] {
        assert!(stderr.contains(kind), "{kind} missing from usage: {stderr}");
    }
}

/// Builds a trace whose sync-event table carries a seeded data race and
/// lock inversion (the CLI cannot depend on the workloads crate, so the
/// rows are written directly).
fn record_racy_trace(tag: &str) -> std::path::PathBuf {
    use sgx_perf::events::SyncEvRow;
    use sim_core::syncev::{SyncOp, EXTERNAL_THREAD};

    let mut trace = sgx_perf::TraceDb::default();
    let mut push = |thread: u64, op: SyncOp, object: Option<u64>, label: &str, time_ns: u64| {
        trace.syncev.insert(SyncEvRow {
            thread,
            op: op.code(),
            object,
            target: None,
            aux: 0,
            label: label.into(),
            time_ns,
        });
    };
    // Unordered writes to one cell + opposite-order lock pairs.
    push(EXTERNAL_THREAD, SyncOp::ThreadSpawn, None, "", 0);
    push(0, SyncOp::SharedWrite, Some(9), "counter", 100);
    push(0, SyncOp::LockAcquire, Some(1), "lock_a", 200);
    push(0, SyncOp::LockAcquire, Some(2), "lock_b", 300);
    push(0, SyncOp::LockRelease, Some(2), "lock_b", 400);
    push(0, SyncOp::LockRelease, Some(1), "lock_a", 500);
    push(1, SyncOp::SharedWrite, Some(9), "counter", 600);
    push(1, SyncOp::LockAcquire, Some(2), "lock_b", 700);
    push(1, SyncOp::LockAcquire, Some(1), "lock_a", 800);
    push(1, SyncOp::LockRelease, Some(1), "lock_a", 900);
    push(1, SyncOp::LockRelease, Some(2), "lock_b", 1000);
    let dir = std::env::temp_dir().join("sgxperf-cli-test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(format!("{tag}.evdb"));
    trace.save(&path).unwrap();
    path
}

#[test]
fn races_gates_on_error_findings_exit_three() {
    let racy = record_racy_trace("races-racy");
    let (stdout, _, code) = sgxperf_code(&["races", racy.to_str().unwrap()]);
    assert_eq!(code, 3, "{stdout}");
    assert!(stdout.contains("error[RACE-E001]"), "{stdout}");
    assert!(stdout.contains("error[RACE-E003]"), "{stdout}");
    assert!(stdout.contains("`counter`"), "{stdout}");
}

#[test]
fn races_on_sync_free_trace_exits_zero_with_note() {
    let trace = record_trace("races-clean");
    let (stdout, stderr, code) = sgxperf_code(&["races", trace.to_str().unwrap()]);
    assert_eq!(code, 0, "{stdout}");
    assert!(stdout.contains("0 error(s)"), "{stdout}");
    assert!(stderr.contains("no sync-event table"), "{stderr}");
}

#[test]
fn races_json_is_machine_readable() {
    let racy = record_racy_trace("races-json");
    let (stdout, _, code) = sgxperf_code(&["races", racy.to_str().unwrap(), "--json"]);
    assert_eq!(code, 3, "{stdout}");
    assert_balanced_json(&stdout);
    assert!(stdout.contains("\"exit_code\":3"), "{stdout}");
    assert!(stdout.contains("RACE-E001"), "{stdout}");
}

#[test]
fn races_usage_errors_exit_one() {
    let racy = record_racy_trace("races-args");
    let (_, stderr, ok) = sgxperf(&["races", racy.to_str().unwrap(), "--frob"]);
    assert!(!ok);
    assert!(stderr.contains("unknown races option"), "{stderr}");
    let (_, stderr, ok) = sgxperf(&["races", "/nonexistent/trace.evdb"]);
    assert!(!ok);
    assert!(stderr.contains("cannot load"), "{stderr}");
}

#[test]
fn report_faults_flag_echoes_canonical_plan() {
    let trace = record_trace("faults-flag");
    // Shorthand spec: defaults filled in, canonical echo on stderr.
    let (stdout, stderr, ok) = sgxperf(&[
        "report",
        trace.to_str().unwrap(),
        "--faults",
        "seed=9;aex-storm@call=3",
    ]);
    assert!(ok);
    assert!(stdout.contains("sgx-perf analysis report"), "{stdout}");
    let canonical = stderr
        .lines()
        .find_map(|l| l.strip_prefix("fault plan: "))
        .unwrap_or_else(|| panic!("no fault plan echo in {stderr}"));
    assert!(canonical.contains("seed=9"), "{canonical}");
    assert!(canonical.contains("aex-storm@call=3:count="), "{canonical}");
    // Round-trip: feeding the canonical form back echoes it unchanged.
    let (_, stderr2, ok) = sgxperf(&["report", trace.to_str().unwrap(), "--faults", canonical]);
    assert!(ok);
    assert!(
        stderr2.contains(&format!("fault plan: {canonical}")),
        "{stderr2}"
    );
    // A malformed spec fails cleanly.
    let (_, stderr, ok) = sgxperf(&[
        "report",
        trace.to_str().unwrap(),
        "--faults",
        "bogus-fault@call=1",
    ]);
    assert!(!ok);
    assert!(stderr.contains("--faults:"), "{stderr}");
}

#[test]
fn diff_of_a_trace_with_itself_is_neutral_exit_zero() {
    let trace = record_trace("diff-self");
    let path = trace.to_str().unwrap();
    let (stdout, stderr, code) = sgxperf_code(&["diff", path, path]);
    assert_eq!(code, 0, "{stdout}{stderr}");
    assert!(stdout.contains("verdict: NEUTRAL"), "{stdout}");
    assert!(stdout.contains("no change past threshold"), "{stdout}");
    assert!(stdout.contains("ecall_step"), "{stdout}");
    // Paths go to stderr so stdout stays machine-consumable.
    assert!(stderr.contains("baseline:"), "{stderr}");
    let (json, _, code) = sgxperf_code(&["diff", path, path, "--json"]);
    assert_eq!(code, 0);
    assert_balanced_json(&json);
    assert!(json.contains("\"verdict\": \"neutral\""), "{json}");
    assert!(json.contains("\"exit_code\": 0"), "{json}");
}

#[test]
fn diff_usage_errors_exit_one() {
    let trace = record_trace("diff-usage");
    let path = trace.to_str().unwrap();
    let (_, stderr, code) = sgxperf_code(&["diff", path]);
    assert_eq!(code, 1);
    assert!(stderr.contains("exactly two traces"), "{stderr}");
    let (_, stderr, code) = sgxperf_code(&["diff", path, path, "--threshold", "-5"]);
    assert_eq!(code, 1);
    assert!(stderr.contains("--threshold"), "{stderr}");
    let (_, stderr, code) = sgxperf_code(&["diff", path, "/nonexistent.evdb"]);
    assert_eq!(code, 1);
    assert!(stderr.contains("cannot load"), "{stderr}");
}

#[test]
fn diff_gates_saved_ab_pairs_by_exit_code() {
    // The switchless closed loop's before/after pair is an improvement.
    let closed = switchless_loop::closed_loop(HwProfile::Unpatched, 1_000).unwrap();
    let before = save_trace("ab-switchless-before", &closed.trace_before);
    let after = save_trace("ab-switchless-after", &closed.trace_after);
    let (before, after) = (before.to_str().unwrap(), after.to_str().unwrap());
    let (stdout, stderr, code) = sgxperf_code(&["diff", before, after]);
    assert_eq!(code, 0, "{stdout}{stderr}");
    assert!(stdout.contains("verdict: IMPROVEMENT"), "{stdout}");

    // The chaos fixture under the canned regression plan regresses, and
    // the regressions are attributed to the injected faults.
    let (baseline, faulted) = chaos::ab_pair(HwProfile::Unpatched, &chaos::regression_plan(5));
    let baseline = save_trace("ab-chaos-baseline", &baseline);
    let faulted = save_trace("ab-chaos-faulted", &faulted);
    let (baseline, faulted) = (baseline.to_str().unwrap(), faulted.to_str().unwrap());
    let (stdout, stderr, code) = sgxperf_code(&["diff", baseline, faulted]);
    assert_eq!(code, 3, "{stdout}{stderr}");
    assert!(stdout.contains("injected fault(s) in window"), "{stdout}");
    let (json, _, code) = sgxperf_code(&["diff", baseline, faulted, "--json"]);
    assert_eq!(code, 3);
    assert_balanced_json(&json);
    assert!(json.contains("\"exit_code\": 3"), "{json}");
}

#[test]
fn export_chrome_emits_trace_event_json() {
    let trace = record_trace("export-chrome");
    let (stdout, _, ok) = sgxperf(&["export", trace.to_str().unwrap(), "--format", "chrome"]);
    assert!(ok);
    assert_balanced_json(&stdout);
    assert!(stdout.contains("\"traceEvents\""), "{stdout}");
    assert!(stdout.contains("\"thread_name\""), "{stdout}");
    assert!(stdout.contains("\"name\": \"ecall_step\""), "{stdout}");
    assert!(stdout.contains("\"ph\": \"X\""), "{stdout}");
}

#[test]
fn export_folded_emits_collapsed_stacks() {
    let trace = record_trace("export-folded");
    let (stdout, _, ok) = sgxperf(&["export", trace.to_str().unwrap(), "--format", "folded"]);
    assert!(ok);
    // The nested ocall folds under its parent ecall on the thread lane.
    assert!(
        stdout.lines().any(|l| {
            l.starts_with("thread-") && l.contains("ecall_step;ocall_note") && !l.ends_with(" 0")
        }),
        "{stdout}"
    );
    let (_, stderr, ok) = sgxperf(&["export", trace.to_str().unwrap(), "--format", "svg"]);
    assert!(!ok);
    assert!(stderr.contains("unknown export format"), "{stderr}");
    let (_, stderr, ok) = sgxperf(&["export", trace.to_str().unwrap(), "--json"]);
    assert!(!ok);
    assert!(stderr.contains("--format"), "{stderr}");
}

/// Writes a trace that decodes fine but whose ecall row 0 and ocall row 0
/// name each other as direct parent; returns the path.
fn write_cyclic_trace(tag: &str) -> std::path::PathBuf {
    let mut trace = TraceDb::default();
    for (kind_is_ecall, name) in [(true, "ecall_loop"), (false, "ocall_loop")] {
        trace.symbols.insert(SymbolRow {
            enclave: 1,
            kind_is_ecall,
            index: 0,
            name: name.to_string(),
            public: true,
            allowed_ecalls: vec![],
            user_check_params: vec![],
        });
    }
    trace.ecalls.insert(EcallRow {
        thread: 0,
        enclave: 1,
        call_index: 0,
        start_ns: 0,
        end_ns: 50_000,
        parent_ocall: Some(0),
        aex_count: 0,
        failed: false,
    });
    trace.ocalls.insert(OcallRow {
        thread: 0,
        enclave: 1,
        call_index: 0,
        start_ns: 10_000,
        end_ns: 18_000,
        parent_ecall: Some(0),
        failed: false,
    });
    save_trace(tag, &trace)
}

/// Saves a hand-built trace to a temp file; returns the path.
fn save_trace(tag: &str, trace: &TraceDb) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("sgxperf-cli-test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(format!("{tag}.evdb"));
    trace.save(&path).unwrap();
    path
}

#[test]
fn export_folded_ends_cyclic_parent_chains() {
    let trace = write_cyclic_trace("cyclic-parents");
    let (stdout, stderr, code) =
        sgxperf_code(&["export", trace.to_str().unwrap(), "--format", "folded"]);
    assert_eq!(code, 0, "{stderr}");
    // Each instance lands in exactly one stack, cut before the call
    // repeats.
    assert_eq!(
        stdout,
        "thread-0;ecall_loop;ocall_loop 0\nthread-0;ocall_loop;ecall_loop 42000\n"
    );
}

#[test]
fn export_into_a_closed_pipe_exits_cleanly() {
    // The export (about 300 KB) overflows the pipe buffer, so its write
    // meets the broken pipe even if a process spawned by a concurrent
    // test still holds a copy of the read end for a moment.
    let mut wide = TraceDb::default();
    for i in 0..1_000 {
        wide.ecalls.insert(EcallRow {
            thread: 0,
            enclave: 1,
            call_index: 0,
            start_ns: i * 10_000,
            end_ns: i * 10_000 + 8_000,
            parent_ocall: None,
            aex_count: 0,
            failed: false,
        });
    }
    let trace = save_trace("closed-pipe", &wide);
    let mut child = Command::new(env!("CARGO_BIN_EXE_sgxperf"))
        .args(["export", trace.to_str().unwrap(), "--format", "chrome"])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn sgxperf");
    // Close the read end before the child has loaded the trace, so its
    // first write meets a broken pipe.
    drop(child.stdout.take());
    let out = child.wait_with_output().expect("wait for sgxperf");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
}

#[test]
fn hist_and_scatter_accept_json() {
    let trace = record_trace("plot-json");
    let path = trace.to_str().unwrap();
    let (stdout, _, ok) = sgxperf(&["hist", path, "ecall_step", "--json", "--bins", "10"]);
    assert!(ok);
    assert_balanced_json(&stdout);
    assert!(stdout.contains("\"bin_width_ns\""), "{stdout}");
    assert!(stdout.matches(',').count() >= 10, "{stdout}");
    let (stdout, _, ok) = sgxperf(&["scatter", path, "ecall_step", "--json"]);
    assert!(ok);
    assert_balanced_json(&stdout);
    assert!(stdout.starts_with("{\"points\": [["), "{stdout}");
}

#[test]
fn info_lists_sections_with_rows_and_bytes() {
    let trace = record_trace("info-sections");
    let (stdout, _, ok) = sgxperf(&["info", trace.to_str().unwrap()]);
    assert!(ok);
    assert!(stdout.contains("payload bytes"), "{stdout}");
    // Every table the trace serialises shows up with its row count.
    for line in ["ecalls", "ocalls", "symbols"] {
        let row = stdout
            .lines()
            .find(|l| l.trim_start().starts_with(line) && l.contains("rows"))
            .unwrap_or_else(|| panic!("no section line for {line} in {stdout}"));
        assert!(row.contains("bytes"), "{row}");
    }
    let ecalls = stdout
        .lines()
        .find(|l| l.trim_start().starts_with("ecalls") && l.contains("rows"))
        .unwrap();
    assert!(ecalls.contains("64 rows"), "{ecalls}");
}

/// Writes a campaign spec to a temp file; returns (spec path, out dir).
fn write_spec(tag: &str, body: &str) -> (std::path::PathBuf, std::path::PathBuf) {
    let dir = std::env::temp_dir().join("sgxperf-cli-test");
    std::fs::create_dir_all(&dir).unwrap();
    let spec = dir.join(format!("{tag}.toml"));
    std::fs::write(&spec, body).unwrap();
    (spec, dir.join(format!("{tag}-out")))
}

const NEUTRAL_SPEC: &str = "[campaign]\nname = \"cli\"\nthreshold = 25\n\
    [matrix]\nworkloads = [\"ecall_storm\"]\nprofiles = [\"unpatched\"]\nseeds = [1, 2]\n";

#[test]
fn campaign_neutral_matrix_exits_zero_and_is_byte_stable() {
    let (spec, out) = write_spec("campaign-neutral", NEUTRAL_SPEC);
    let spec = spec.to_str().unwrap();
    let run =
        |jobs: &str, out: &str| sgxperf_code(&["campaign", spec, "--out", out, "--jobs", jobs]);
    let out_a = out.with_extension("a");
    let out_b = out.with_extension("b");
    let (stdout_a, stderr_a, code) = run("1", out_a.to_str().unwrap());
    assert_eq!(code, 0, "{stdout_a}{stderr_a}");
    let (stdout_b, _, code) = run("4", out_b.to_str().unwrap());
    assert_eq!(code, 0);
    // Byte-stable across worker counts; timing is stderr-only.
    assert_eq!(stdout_a, stdout_b);
    assert!(stdout_a.contains("campaign \"cli\""), "{stdout_a}");
    assert!(stdout_a.contains("baseline"), "{stdout_a}");
    assert!(stderr_a.contains("2 cell(s)"), "{stderr_a}");
    // One archived trace per cell, plus both summary files.
    for file in [
        "ecall_storm-unpatched-none-off-s1.evdb",
        "ecall_storm-unpatched-none-off-s2.evdb",
        "summary.txt",
        "summary.json",
        "manifest.json",
    ] {
        assert!(out_a.join(file).exists(), "{file} missing");
    }
    assert_eq!(
        std::fs::read_to_string(out_a.join("summary.txt")).unwrap(),
        stdout_a
    );
}

#[test]
fn campaign_json_is_machine_readable() {
    let (spec, out) = write_spec("campaign-json", NEUTRAL_SPEC);
    let (stdout, _, code) = sgxperf_code(&[
        "campaign",
        spec.to_str().unwrap(),
        "--out",
        out.to_str().unwrap(),
        "--json",
    ]);
    assert_eq!(code, 0, "{stdout}");
    assert_balanced_json(&stdout);
    assert!(stdout.contains("\"exit_code\": 0"), "{stdout}");
    assert!(stdout.contains("\"verdict\": \"baseline\""), "{stdout}");
}

#[test]
fn campaign_regressing_plan_trips_gate_exit_three() {
    let (spec, out) = write_spec(
        "campaign-gate",
        "[campaign]\nname = \"gate\"\nthreshold = 25\n\
         [matrix]\nworkloads = [\"io_fsync_loop\"]\nprofiles = [\"unpatched\"]\nseeds = [1]\n\
         [faults]\nnone = \"\"\n\
         storm = \"seed=3;ocall-timeout@call=2:delay=60us,times=3;aex-storm@call=12:count=6\"\n",
    );
    let (stdout, _, code) = sgxperf_code(&[
        "campaign",
        spec.to_str().unwrap(),
        "--out",
        out.to_str().unwrap(),
    ]);
    assert_eq!(code, 3, "{stdout}");
    assert!(stdout.contains("REGRESSED"), "{stdout}");
    assert!(
        stdout.contains("1 regressed, 0 broken, 0 flaky cell(s) -> exit 3"),
        "{stdout}"
    );
}

#[test]
fn campaign_faulty_cells_quarantine_and_exit_four() {
    let (spec, out) = write_spec(
        "campaign-faulty",
        "[campaign]\nname = \"faulty\"\nthreshold = 25\n\
         [matrix]\nworkloads = [\"ecall_storm\", \"panicking\", \"flaky\"]\n\
         profiles = [\"unpatched\"]\nseeds = [1]\n\
         [robustness]\ncell_deadline = \"30s\"\nretries = 1\n",
    );
    let (stdout, _, code) = sgxperf_code(&[
        "campaign",
        spec.to_str().unwrap(),
        "--out",
        out.to_str().unwrap(),
    ]);
    // The poisoned cell is quarantined, its siblings complete, and the
    // incomplete exit code (4) wins over everything else.
    assert_eq!(code, 4, "{stdout}");
    assert!(stdout.contains("quarantine:"), "{stdout}");
    assert!(stdout.contains("FAILED"), "{stdout}");
    assert!(stdout.contains("passed on attempt 2"), "{stdout}");
    assert!(
        stdout.contains("0 regressed, 1 broken, 1 flaky cell(s) -> exit 4"),
        "{stdout}"
    );
    // The healthy cells' traces still landed.
    assert!(out.join("ecall_storm-unpatched-none-off-s1.evdb").exists());
    assert!(out.join("flaky-unpatched-none-off-s1.evdb").exists());
}

#[test]
fn campaign_resume_completes_a_partial_archive_byte_identically() {
    let (spec, out) = write_spec("campaign-resume", NEUTRAL_SPEC);
    let spec = spec.to_str().unwrap();
    let full = out.with_extension("full");
    let partial = out.with_extension("partial");
    let (stdout_full, _, code) = sgxperf_code(&["campaign", spec, "--out", full.to_str().unwrap()]);
    assert_eq!(code, 0, "{stdout_full}");
    // Fabricate an interrupted run: the archive minus one trace.
    std::fs::create_dir_all(&partial).unwrap();
    for entry in std::fs::read_dir(&full).unwrap() {
        let entry = entry.unwrap();
        std::fs::copy(entry.path(), partial.join(entry.file_name())).unwrap();
    }
    std::fs::remove_file(partial.join("ecall_storm-unpatched-none-off-s2.evdb")).unwrap();
    let (stdout_resumed, stderr, code) = sgxperf_code(&[
        "campaign",
        spec,
        "--out",
        partial.to_str().unwrap(),
        "--resume",
    ]);
    assert_eq!(code, 0, "{stdout_resumed}{stderr}");
    assert_eq!(stdout_resumed, stdout_full, "resume must be byte-identical");
    for entry in std::fs::read_dir(&full).unwrap() {
        let entry = entry.unwrap();
        let name = entry.file_name();
        assert_eq!(
            std::fs::read(entry.path()).unwrap(),
            std::fs::read(partial.join(&name)).unwrap(),
            "{name:?} differs after resume"
        );
    }
}

#[test]
fn campaign_dry_run_echoes_canonical_spec_without_executing() {
    let (spec, out) = write_spec("campaign-dry", NEUTRAL_SPEC);
    let (stdout, stderr, code) = sgxperf_code(&[
        "campaign",
        spec.to_str().unwrap(),
        "--out",
        out.to_str().unwrap(),
        "--dry-run",
    ]);
    assert_eq!(code, 0, "{stdout}{stderr}");
    // The canonical spec (defaults explicit) plus the expanded matrix.
    assert!(stdout.contains("[campaign]"), "{stdout}");
    assert!(stdout.contains("threshold = 25"), "{stdout}");
    assert!(stdout.contains("[baseline]"), "{stdout}");
    assert!(
        stdout.contains("ecall_storm-unpatched-none-off-s2.evdb"),
        "{stdout}"
    );
    assert!(stderr.contains("dry run"), "{stderr}");
    assert!(!out.exists(), "dry run must not write the archive");
}

#[test]
fn campaign_usage_errors_exit_one() {
    let (spec, _) = write_spec("campaign-args", NEUTRAL_SPEC);
    let (_, stderr, code) = sgxperf_code(&["campaign", spec.to_str().unwrap(), "--frob"]);
    assert_eq!(code, 1);
    assert!(stderr.contains("unknown campaign option"), "{stderr}");
    let (_, stderr, code) = sgxperf_code(&["campaign", "/nonexistent/spec.toml", "--dry-run"]);
    assert_eq!(code, 1);
    assert!(stderr.contains("cannot read"), "{stderr}");
    // Spec errors carry the line number.
    let (bad, _) = write_spec("campaign-bad", "[campaign]\nname = \"x\"\nfrobnicate = 1\n");
    let (_, stderr, code) = sgxperf_code(&["campaign", bad.to_str().unwrap(), "--dry-run"]);
    assert_eq!(code, 1);
    assert!(stderr.contains("bad campaign spec: line 3"), "{stderr}");
    // Unknown workloads are a resolution error, also with the file named.
    let (bad, _) = write_spec(
        "campaign-badwl",
        "[campaign]\nname = \"x\"\n[matrix]\nworkloads = [\"frobnicate\"]\n\
         profiles = [\"unpatched\"]\nseeds = [1]\n",
    );
    let (_, stderr, code) = sgxperf_code(&["campaign", bad.to_str().unwrap(), "--dry-run"]);
    assert_eq!(code, 1);
    assert!(stderr.contains("unknown workload `frobnicate`"), "{stderr}");
}

#[test]
fn json_report_carries_fault_counters() {
    let trace = record_trace("faults-json");
    let (stdout, _, ok) = sgxperf(&["report", trace.to_str().unwrap(), "--json"]);
    assert!(ok);
    // Fault-free trace: counters present and zero.
    assert!(stdout.contains("\"faults_injected\": 0"), "{stdout}");
    assert!(stdout.contains("\"faults_recovered\": 0"), "{stdout}");
    assert!(stdout.contains("\"faults_gave_up\": 0"), "{stdout}");
}
