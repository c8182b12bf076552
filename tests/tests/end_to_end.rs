//! Cross-crate pipeline tests: workload → logger → trace file → analyzer.

use sgx_perf::{Analyzer, Logger, LoggerConfig, TraceDb};
use sim_core::{HwProfile, Nanos};
use workloads::{Harness, Variant};

/// The full decoupled pipeline: record, serialise, reload, analyse.
#[test]
fn trace_survives_serialisation_and_analysis_is_identical() {
    let harness = Harness::new(HwProfile::Unpatched);
    let logger = Logger::attach(harness.runtime(), LoggerConfig::default());
    workloads::sqlitedb::run(
        &harness,
        &workloads::sqlitedb::SqliteConfig {
            inserts: 500,
            variant: Variant::Enclave,
            ..Default::default()
        },
    )
    .unwrap();
    let trace = logger.finish();
    let bytes = trace.to_bytes();
    let reloaded = TraceDb::from_bytes(&bytes).unwrap();

    let cm = harness.profile().cost_model();
    let report_a = Analyzer::new(&trace, cm.clone()).analyze();
    let report_b = Analyzer::new(&reloaded, cm).analyze();
    assert_eq!(report_a.totals, report_b.totals);
    assert_eq!(report_a.detections.len(), report_b.detections.len());
    assert_eq!(report_a.render(), report_b.render());
}

/// Two enclaves traced through one logger stay separable in the analysis.
#[test]
fn multiple_enclaves_are_kept_apart() {
    let harness = Harness::new(HwProfile::Unpatched);
    let logger = Logger::attach(harness.runtime(), LoggerConfig::default());
    // Two separate SQLite databases, each in its own enclave.
    for _ in 0..2 {
        workloads::sqlitedb::run(
            &harness,
            &workloads::sqlitedb::SqliteConfig {
                inserts: 100,
                variant: Variant::Enclave,
                ..Default::default()
            },
        )
        .unwrap();
    }
    let trace = logger.finish();
    let enclaves: std::collections::BTreeSet<u32> =
        trace.ecalls.iter().map(|e| e.enclave).collect();
    assert_eq!(enclaves.len(), 2);
    let report = Analyzer::new(&trace, harness.profile().cost_model()).analyze();
    // Per-enclave aggregation: ecall_insert appears once per enclave.
    let insert_stats = report
        .call_names
        .iter()
        .filter(|n| *n == "ecall_insert")
        .count();
    assert_eq!(insert_stats, 2);
    assert_eq!(report.totals.enclaves, 2);
}

/// The logger can be paused for warmup phases without losing attachment.
#[test]
fn warmup_can_be_excluded() {
    let app = integration_tests::TestApp::new(HwProfile::Unpatched);
    let logger = Logger::attach(&app.rt, LoggerConfig::default());
    logger.set_enabled(false);
    for _ in 0..50 {
        app.work(1_000); // warmup, not recorded
    }
    logger.set_enabled(true);
    for _ in 0..10 {
        app.work(1_000);
    }
    let trace = logger.finish();
    assert_eq!(trace.ecalls.len(), 10);
}

/// Logger costs are *not* charged while disabled (native-speed warmup).
#[test]
fn disabled_logger_adds_no_cost() {
    let app = integration_tests::TestApp::new(HwProfile::Unpatched);
    let logger = Logger::attach(&app.rt, LoggerConfig::default());
    logger.set_enabled(false);
    let clock = app.rt.machine().clock().clone();
    let t0 = clock.now();
    app.work(0);
    assert_eq!((clock.now() - t0).as_nanos(), 4_205);
}

/// A failing ecall is traced (with the failure flag) and does not poison
/// the logger's per-thread stack.
#[test]
fn failed_calls_are_traced_and_stack_stays_consistent() {
    use sgx_sdk::{CallData, OcallTableBuilder, Runtime, SdkError, ThreadCtx};
    use sgx_sim::{EnclaveConfig, Machine};
    use sim_core::Clock;
    use std::sync::Arc;

    let machine = Arc::new(Machine::new(Clock::new(), HwProfile::Unpatched));
    let rt = Runtime::new(machine);
    let spec = sgx_edl::parse(
        "enclave { trusted { public void ecall_fail(); public void ecall_ok(); }; };",
    )
    .unwrap();
    let enclave = rt.create_enclave(&spec, &EnclaveConfig::default()).unwrap();
    enclave
        .register_ecall("ecall_fail", |_, _| {
            Err(SdkError::Interface("deliberate".into()))
        })
        .unwrap();
    enclave.register_ecall("ecall_ok", |_, _| Ok(())).unwrap();
    let table = Arc::new(OcallTableBuilder::new(enclave.spec()).build().unwrap());
    let logger = Logger::attach(&rt, LoggerConfig::default());
    let tcx = ThreadCtx::main();
    let err = rt
        .ecall(
            &tcx,
            enclave.id(),
            "ecall_fail",
            &table,
            &mut CallData::default(),
        )
        .unwrap_err();
    assert!(matches!(err, SdkError::Interface(_)));
    rt.ecall(
        &tcx,
        enclave.id(),
        "ecall_ok",
        &table,
        &mut CallData::default(),
    )
    .unwrap();
    let trace = logger.finish();
    assert_eq!(trace.ecalls.len(), 2);
    let failed: Vec<bool> = trace.ecalls.iter().map(|e| e.failed).collect();
    assert_eq!(failed, vec![true, false]);
    // Parent links unaffected by the failure.
    assert!(trace.ecalls.iter().all(|e| e.parent_ocall.is_none()));
}

/// The EDL diff path: supplying a *stale* EDL (with an over-broad allow
/// list) makes the analyzer flag exactly the unused entries.
#[test]
fn edl_diff_reports_stale_allows() {
    let harness = Harness::new(HwProfile::Unpatched);
    let logger = Logger::attach(harness.runtime(), LoggerConfig::default());
    workloads::antipatterns::permissive_interface(&harness, 50).unwrap();
    let trace = logger.finish();
    let edl = sgx_edl::parse(
        "enclave {
            trusted {
                public void ecall_entry(uint64_t i);
                public void ecall_callback(uint64_t i);
                public void ecall_never_nested([user_check] void* p);
            };
            untrusted {
                void ocall_helper(uint64_t i)
                    allow(ecall_callback, ecall_never_nested, ecall_entry);
            };
        };",
    )
    .unwrap();
    let report = Analyzer::new(&trace, harness.profile().cost_model())
        .with_edl(edl)
        .analyze();
    let restrict = report
        .detections
        .iter()
        .find_map(|d| match &d.recommendation {
            sgx_perf::Recommendation::RestrictAllowedEcalls { remove } => Some(remove.clone()),
            _ => None,
        })
        .expect("restriction finding");
    let mut restrict = restrict;
    restrict.sort();
    assert_eq!(
        restrict,
        vec!["ecall_entry".to_string(), "ecall_never_nested".to_string()]
    );
}

/// WSE and logger compose across *separate* runs of the same deterministic
/// workload (the paper keeps them separate because WSE interferes).
#[test]
fn wse_and_logger_agree_on_separate_runs() {
    let config = workloads::glamdring::GlamdringConfig {
        duration: Nanos::from_millis(60),
        variant: Variant::Enclave,
        ..Default::default()
    };
    // Run 1: logger.
    let h1 = Harness::new(HwProfile::Unpatched);
    let logger = Logger::attach(h1.runtime(), LoggerConfig::default());
    let r1 = workloads::glamdring::run(&h1, &config).unwrap();
    let trace = logger.finish();
    // Run 2: WSE.
    let h2 = Harness::new(HwProfile::Unpatched);
    let app = workloads::glamdring::GlamdringApp::new(&h2, &config).unwrap();
    let wse = sgx_perf::WorkingSetEstimator::attach(h2.machine(), app.enclave_id()).unwrap();
    app.startup().unwrap();
    let _ = wse.mark().unwrap();
    let (signs, _) = app.sign_for(config.duration).unwrap();
    // The logger run and the WSE run observed the same workload shape
    // (WSE slows execution, so fewer signs fit in the window, but the
    // per-sign ecall count is identical).
    assert!(signs >= 1);
    let subs_per_sign = config.subs_per_sign();
    // Per-sign ecalls are exactly the subtractions (plus one-off load_key).
    assert_eq!(
        trace.ecalls.len() as u64 - 1,
        r1.stats.operations * subs_per_sign
    );
}

/// §4.1.4 end-to-end: page-fault storms appear as AEX bursts, and the
/// impact analysis separates environment-delayed ecalls from clean ones.
#[test]
fn aex_bursts_and_impact_from_paging_storm() {
    use sgx_perf::AexMode;
    use sgx_sim::MachineParams;

    let harness = Harness::with_machine_params(
        HwProfile::Unpatched,
        MachineParams {
            epc_pages: 256, // far smaller than the 1024-page enclave below
            ..MachineParams::default()
        },
    );
    let logger = Logger::attach(harness.runtime(), LoggerConfig::with_aex(AexMode::Trace));
    workloads::antipatterns::paging(&harness, 6).unwrap();
    let trace = logger.finish();
    let analyzer = sgx_perf::Analyzer::new(&trace, harness.profile().cost_model());

    // Every heap sweep faults hundreds of pages back in: each fault is an
    // AEX, and they come microseconds apart — a burst.
    let bursts = analyzer.aex_bursts(1_000_000, 10);
    assert!(!bursts.is_empty());
    assert!(bursts.iter().any(|b| b.count >= 100), "{bursts:?}");

    // All scan ecalls were interrupted, so no impact rows (nothing clean
    // to compare against) — run a second, resident-friendly workload to
    // create the undisturbed population.
    let impact = analyzer.aex_impact();
    // Either empty (all interrupted) or showing a real slowdown.
    for i in &impact {
        assert!(i.slowdown() >= 1.0, "{i:?}");
    }
}
