//! Counters near `u64::MAX` in a trace that decodes fine must not panic
//! the analyses that sum them. The sums saturate; in a debug build (the
//! one `cargo test` runs) an unchecked add would abort the process with
//! `attempt to add with overflow` instead of exiting 0.

use std::process::Command;

use sgx_perf::events::{EcallRow, FleetRow, OcallRow, SymbolRow};
use sgx_perf::{Analyzer, TraceDb};
use sim_core::HwProfile;

/// Writes a trace with two fleet rows whose `requests` (and other
/// counters) overflow when added, and two rows of one ecall whose
/// `aex_count`s do; returns its path.
fn write_hostile_trace() -> std::path::PathBuf {
    let mut trace = TraceDb::default();
    trace.symbols.insert(SymbolRow {
        enclave: 1,
        kind_is_ecall: true,
        index: 0,
        name: "ecall_hot".to_string(),
        public: true,
        allowed_ecalls: vec![],
        user_check_params: vec![],
    });
    for (i, start_ns) in [0u64, 100_000].into_iter().enumerate() {
        trace.ecalls.insert(EcallRow {
            thread: 0,
            enclave: 1,
            call_index: 0,
            start_ns,
            end_ns: start_ns + 20_000,
            parent_ocall: None,
            aex_count: u64::MAX - i as u64,
            failed: false,
        });
    }
    for slot in 0..2 {
        let near_max = u64::MAX - u64::from(slot);
        trace.fleet.insert(FleetRow {
            slot,
            spin_ups: u32::MAX,
            restarts: u32::MAX,
            requests: near_max,
            completed: near_max,
            shed: near_max,
            failed: near_max,
            p50_ns: near_max,
            p99_ns: near_max,
            page_ins: near_max,
            page_outs: near_max,
        });
    }
    save(&trace, "hostile-sums.evdb")
}

fn save(trace: &TraceDb, name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("sgxperf-cli-test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(name);
    trace.save(&path).unwrap();
    path
}

/// A trace whose durations overflow when added: two interrupted rows of
/// `ecall_hot` lasting about 2^63 ns each plus one short undisturbed
/// row, two child ocalls of the first row lasting about 2^63 ns each, and
/// a second ecall and ocall that share those calls' names.
fn long_calls_trace() -> TraceDb {
    const HALF: u64 = 1 << 63;
    let mut trace = TraceDb::default();
    for (kind_is_ecall, index, name) in [
        (true, 0, "ecall_hot"),
        (true, 1, "ecall_hot"),
        (false, 0, "ocall_io"),
        (false, 1, "ocall_io"),
    ] {
        trace.symbols.insert(SymbolRow {
            enclave: 1,
            kind_is_ecall,
            index,
            name: name.to_string(),
            public: kind_is_ecall,
            allowed_ecalls: vec![],
            user_check_params: vec![],
        });
    }
    for (call_index, start_ns, len, aex_count) in [
        (0, 0, HALF + 1_000, u64::MAX),
        (0, 1_000, HALF + 1_000, u64::MAX - 1),
        (0, HALF + 10_000, 5_000, 0),
        (1, 2_000, HALF, 0),
    ] {
        trace.ecalls.insert(EcallRow {
            thread: 0,
            enclave: 1,
            call_index,
            start_ns,
            end_ns: start_ns + len,
            parent_ocall: None,
            aex_count,
            failed: false,
        });
    }
    for (call_index, start_ns) in [(0, 100), (0, 200), (1, 300)] {
        trace.ocalls.insert(OcallRow {
            thread: 0,
            enclave: 1,
            call_index,
            start_ns,
            end_ns: start_ns + HALF,
            parent_ecall: Some(0),
            failed: false,
        });
    }
    trace
}

#[test]
fn near_max_durations_saturate_in_report_diff_and_folded_export() {
    let trace = long_calls_trace();
    let analyzer = Analyzer::new(&trace, HwProfile::Unpatched.cost_model());
    let share = analyzer.analyze().time_share("ecall_hot").unwrap();
    assert!((0.0..=1.0).contains(&share), "{share}");
    let impact = analyzer.aex_impact();
    assert_eq!(impact.len(), 1, "{impact:?}");
    assert!(impact[0].mean_interrupted_ns > 1e18, "{impact:?}");
    assert!(impact[0].mean_aex > 1e19, "{impact:?}");

    let path = save(&trace, "hostile-durations.evdb");
    let path = path.to_str().unwrap();
    for args in [
        vec!["report", path],
        vec!["report", path, "--json"],
        vec!["diff", path, path],
        vec!["export", path, "--format", "folded"],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_sgxperf"))
            .args(&args)
            .output()
            .expect("spawn sgxperf");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(0), "{args:?}: {stderr}");
    }
}

#[test]
fn near_max_counters_saturate_in_report_fleet_and_diff() {
    let trace = write_hostile_trace();
    let trace = trace.to_str().unwrap();
    for args in [
        vec!["report", trace],
        vec!["fleet", trace],
        vec!["fleet", trace, "--json"],
        vec!["diff", trace, trace],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_sgxperf"))
            .args(&args)
            .output()
            .expect("spawn sgxperf");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(0), "{args:?}: {stderr}");
        if args[0] == "fleet" {
            // The totals pin at the top instead of wrapping to a small
            // number.
            let stdout = String::from_utf8_lossy(&out.stdout);
            assert!(stdout.contains(&u64::MAX.to_string()), "{stdout}");
        }
    }
}

/// A trace with one row of `ecall_hot` per `(start_ns, end_ns)` span.
fn one_call_trace(spans: &[(u64, u64)]) -> TraceDb {
    let mut trace = TraceDb::default();
    trace.symbols.insert(SymbolRow {
        enclave: 1,
        kind_is_ecall: true,
        index: 0,
        name: "ecall_hot".to_string(),
        public: true,
        allowed_ecalls: vec![],
        user_check_params: vec![],
    });
    for &(start_ns, end_ns) in spans {
        trace.ecalls.insert(EcallRow {
            thread: 0,
            enclave: 1,
            call_index: 0,
            start_ns,
            end_ns,
            parent_ocall: None,
            aex_count: 0,
            failed: false,
        });
    }
    trace
}

#[test]
fn near_max_durations_saturate_in_hist_and_scatter() {
    // Durations just below `u64::MAX`: the later bins' lower bounds pass
    // it.
    let near_max = save(
        &one_call_trace(&[(0, u64::MAX), (1, u64::MAX)]),
        "hostile-hist.evdb",
    );
    // Durations spanning all of `u64`: one bin is `u64::MAX` wide.
    let full_span = save(
        &one_call_trace(&[(5, 5), (0, u64::MAX)]),
        "hostile-hist-span.evdb",
    );
    let csv = near_max.with_extension("csv");
    let (near_max, full_span, csv) = (
        near_max.to_str().unwrap(),
        full_span.to_str().unwrap(),
        csv.to_str().unwrap(),
    );
    for args in [
        vec!["hist", near_max, "ecall_hot"],
        vec!["hist", near_max, "ecall_hot", "--json", "-o", csv],
        vec!["hist", full_span, "ecall_hot", "--bins", "1", "--json"],
        vec!["scatter", near_max, "ecall_hot"],
        vec!["scatter", full_span, "ecall_hot"],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_sgxperf"))
            .args(&args)
            .output()
            .expect("spawn sgxperf");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(0), "{args:?}: {stderr}");
    }
    // The CSV's last bound pins at the top instead of wrapping.
    let written = std::fs::read_to_string(csv).unwrap();
    assert!(written.ends_with(&format!("{},0\n", u64::MAX)), "{written}");
}
