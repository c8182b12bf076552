//! Trace-shape assertions: the exact call patterns each workload leaves
//! behind, as seen by an attached logger.

use std::collections::BTreeMap;

use sgx_perf::{Analyzer, Logger, LoggerConfig};
use sim_core::{HwProfile, Nanos};
use workloads::{Harness, Variant};

fn call_counts(trace: &sgx_perf::TraceDb) -> BTreeMap<String, usize> {
    let mut names: BTreeMap<(u32, bool, u32), String> = BTreeMap::new();
    for s in trace.symbols.iter() {
        names.insert((s.enclave, s.kind_is_ecall, s.index), s.name.clone());
    }
    let mut counts: BTreeMap<String, usize> = BTreeMap::new();
    for e in trace.ecalls.iter() {
        let name = names
            .get(&(e.enclave, true, e.call_index))
            .cloned()
            .unwrap_or_else(|| format!("ecall#{}", e.call_index));
        *counts.entry(name).or_default() += 1;
    }
    for o in trace.ocalls.iter() {
        let name = names
            .get(&(o.enclave, false, o.call_index))
            .cloned()
            .unwrap_or_else(|| format!("ocall#{}", o.call_index));
        *counts.entry(name).or_default() += 1;
    }
    counts
}

#[test]
fn talos_per_request_recipe_is_exact() {
    let requests = 70u64; // multiple of 7 => deterministic retry share
    let harness = Harness::new(HwProfile::Unpatched);
    let logger = Logger::attach(harness.runtime(), LoggerConfig::default());
    workloads::talos::run(
        &harness,
        &workloads::talos::TalosConfig {
            requests,
            ..Default::default()
        },
    )
    .unwrap();
    let trace = logger.finish();
    let counts = call_counts(&trace);
    let n = requests as usize;
    let retries = n / 7; // one in seven handshakes needs a second round
    assert_eq!(counts["ecall_SSL_new"], n);
    assert_eq!(counts["ecall_SSL_do_handshake"], n + retries);
    assert_eq!(counts["ecall_SSL_read"], 5 * n);
    assert_eq!(counts["ecall_SSL_get_error"], 5 * n + retries);
    assert_eq!(counts["ecall_ERR_peek_error"], 5 * n + retries);
    assert_eq!(counts["ecall_ERR_clear_error"], 2 * n);
    assert_eq!(counts["ecall_SSL_write"], n);
    assert_eq!(counts["ecall_SSL_shutdown"], n);
    assert_eq!(counts["ecall_SSL_free"], n);
    // 16 KiB responses in 1,400-byte records: 12 chunks per request, plus
    // handshake flights (3 per full handshake) and close-notify pairs.
    assert_eq!(counts["enclave_ocall_write"], 12 * n + 3 * n + 2 * n);
    assert_eq!(counts["enclave_ocall_execute_ssl_ctx_info_callback"], 3 * n);
    assert_eq!(counts["enclave_ocall_alpn_select_cb"], n);
}

#[test]
fn sqlite_variants_have_distinct_ocall_signatures() {
    let run_traced = |variant| {
        let harness = Harness::new(HwProfile::Unpatched);
        let logger = Logger::attach(harness.runtime(), LoggerConfig::default());
        workloads::sqlitedb::run(
            &harness,
            &workloads::sqlitedb::SqliteConfig {
                inserts: 100,
                variant,
                ..Default::default()
            },
        )
        .unwrap();
        call_counts(&logger.finish())
    };

    let naive = run_traced(Variant::Enclave);
    // Five lseek+write pairs and one fsync per insert.
    assert_eq!(naive["ocall_lseek"], 500);
    assert_eq!(naive["ocall_write"], 500);
    assert_eq!(naive["ocall_fsync"], 100);
    assert!(!naive.contains_key("ocall_lseek_write"));

    let optimised = run_traced(Variant::Optimised);
    // The merge recommendation applied: one fused ocall per pair.
    assert_eq!(optimised["ocall_lseek_write"], 500);
    assert!(!optimised.contains_key("ocall_lseek"));
    assert!(!optimised.contains_key("ocall_write"));
    assert_eq!(optimised["ocall_fsync"], 100);
}

#[test]
fn glamdring_ocall_rate_matches_config() {
    let harness = Harness::new(HwProfile::Unpatched);
    let logger = Logger::attach(harness.runtime(), LoggerConfig::default());
    let config = workloads::glamdring::GlamdringConfig {
        duration: Nanos::from_millis(150),
        variant: Variant::Enclave,
        ..Default::default()
    };
    let result = workloads::glamdring::run(&harness, &config).unwrap();
    let trace = logger.finish();
    let counts = call_counts(&trace);
    let subs = counts["ecall_bn_sub_part_words"] as u64;
    assert_eq!(subs, result.sub_calls);
    // One BN_ helper ocall every `BN_OCALL_EVERY` subtractions.
    let bn_ocalls = counts.get("ocall_bn_new").copied().unwrap_or(0) as u64;
    let expected = subs / workloads::glamdring::BN_OCALL_EVERY;
    assert!(
        bn_ocalls.abs_diff(expected) <= 1,
        "{bn_ocalls} vs {expected}"
    );
}

#[test]
fn securekeeper_debug_prints_only_during_connect() {
    let harness = Harness::new(HwProfile::Unpatched);
    let logger = Logger::attach(harness.runtime(), LoggerConfig::default());
    workloads::securekeeper::run(
        &harness,
        &workloads::securekeeper::SecureKeeperConfig {
            clients: 5,
            duration: Nanos::from_millis(100),
            ..Default::default()
        },
    )
    .unwrap();
    let trace = logger.finish();
    let counts = call_counts(&trace);
    // Nine debug prints per connecting client, none afterwards.
    assert_eq!(counts["ocall_print_debug"], 5 * 9);
    // All prints nested in the router's register ecall.
    let report = Analyzer::new(&trace, HwProfile::Unpatched.cost_model()).analyze();
    assert!(report.stats_for("ecall_register_client").is_some());
}

#[test]
fn failing_ocall_marks_both_rows_failed() {
    use sgx_sdk::{CallData, OcallTableBuilder, Runtime, SdkError, ThreadCtx};
    use sgx_sim::{EnclaveConfig, Machine};
    use sim_core::Clock;
    use std::sync::Arc;

    let machine = Arc::new(Machine::new(Clock::new(), HwProfile::Unpatched));
    let rt = Runtime::new(machine);
    let spec = sgx_edl::parse(
        "enclave { trusted { public void ecall_outer(); };
                   untrusted { int ocall_broken(); }; };",
    )
    .unwrap();
    let enclave = rt.create_enclave(&spec, &EnclaveConfig::default()).unwrap();
    enclave
        .register_ecall("ecall_outer", |ctx, _| {
            ctx.ocall("ocall_broken", &mut CallData::default())
        })
        .unwrap();
    let mut builder = OcallTableBuilder::new(enclave.spec());
    builder
        .register("ocall_broken", |_, _| {
            Err(SdkError::Interface("io error".into()))
        })
        .unwrap();
    let table = Arc::new(builder.build().unwrap());
    let logger = Logger::attach(&rt, LoggerConfig::default());
    let err = rt
        .ecall(
            &ThreadCtx::main(),
            enclave.id(),
            "ecall_outer",
            &table,
            &mut CallData::default(),
        )
        .unwrap_err();
    assert!(matches!(err, SdkError::Interface(_)));
    let trace = logger.finish();
    assert!(trace.ecalls.iter().all(|e| e.failed));
    assert!(trace.ocalls.iter().all(|o| o.failed));
    // Parent link survives the failure.
    assert_eq!(trace.ocalls.iter().next().unwrap().parent_ecall, Some(0));
}
