//! Counters near `u64::MAX` in a trace that decodes fine must not panic
//! the analyses that sum them. The sums saturate; in a debug build (the
//! one `cargo test` runs) an unchecked add would abort the process with
//! `attempt to add with overflow` instead of exiting 0.

use std::process::Command;

use sgx_perf::events::{EcallRow, FleetRow, SymbolRow};
use sgx_perf::TraceDb;

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
    let dir = std::env::temp_dir().join("sgxperf-cli-test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("hostile-sums.evdb");
    trace.save(&path).unwrap();
    path
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
