//! Pinned bytes of recorded traces.
//!
//! Every other byte-identity test compares two runs, or two engines, of
//! the same build, so a change to the trace format passes them as long as
//! it is applied everywhere at once. These tests pin the length and the
//! FNV-1a digest of `TraceDb::to_bytes()` for eight small deterministic
//! recordings which, between them, put rows in all twelve trace tables.
//! Each trace must also decode and re-encode to the same bytes.
//!
//! A digest changes only when some trace byte changes. When a format
//! change is intended, the failure message prints the full table of new
//! values.

use std::collections::BTreeSet;
use std::sync::Arc;

use sgx_perf::{AexMode, Logger, LoggerConfig, TraceDb};
use sgx_sdk::{CallData, OcallTableBuilder, Runtime, SwitchlessConfig, ThreadCtx};
use sgx_sim::{EnclaveConfig, Machine, MachineParams, SgxVersion};
use sim_core::{Clock, HwProfile, Nanos};
use workloads::fleet::{self, FleetRunConfig};
use workloads::harness::Harness;
use workloads::{chaos, racy_fixture, securekeeper, supervisor_loop, switchless_loop};

const PROFILE: HwProfile = HwProfile::Unpatched;

/// 64-bit FNV-1a.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Records `run` on a fresh harness under `config`.
fn record(config: LoggerConfig, run: impl FnOnce(&Harness)) -> Vec<u8> {
    let harness = Harness::new(PROFILE);
    let logger = Logger::attach(harness.runtime(), config);
    run(&harness);
    logger.finish().to_bytes()
}

fn talos() -> Vec<u8> {
    record(LoggerConfig::default(), |h| {
        let config = workloads::talos::TalosConfig {
            requests: 40,
            ..Default::default()
        };
        workloads::talos::run(h, &config).expect("talos run");
    })
}

fn supervised() -> Vec<u8> {
    record(LoggerConfig::default(), |h| {
        supervisor_loop::run(h, 24, Some(&supervisor_loop::loss_plan(12)), None)
            .expect("supervised run");
    })
}

fn switchless() -> Vec<u8> {
    record(LoggerConfig::default(), |h| {
        let config = SwitchlessConfig {
            untrusted_workers: 1,
            force_ocalls: vec!["ocall_log".to_string()],
            ..SwitchlessConfig::default()
        };
        switchless_loop::run(h, 60, Some(config)).expect("switchless run");
    })
}

fn fleet() -> Vec<u8> {
    let run = fleet::run(PROFILE, &FleetRunConfig::tiny(), None).expect("fleet run");
    run.trace.to_bytes()
}

fn chaos() -> Vec<u8> {
    chaos::antipatterns_trace(PROFILE, Some(&chaos::regression_plan(5)))
}

fn racy() -> Vec<u8> {
    record(LoggerConfig::with_syncev(), |h| {
        racy_fixture::run(h, &racy_fixture::RacyFixtureConfig::default()).expect("racy run");
    })
}

/// One 20 ms ecall on an SGX v2 debug enclave: its AEX rows carry causes.
fn sgx_v2() -> Vec<u8> {
    let machine = Arc::new(Machine::with_params(
        Clock::new(),
        PROFILE,
        MachineParams {
            sgx_version: SgxVersion::V2,
            ..MachineParams::default()
        },
    ));
    let rt = Runtime::new(machine);
    let spec = sgx_edl::parse("enclave { trusted { public void ecall_long(uint64_t ns); }; };")
        .expect("edl");
    let enclave = rt
        .create_enclave(&spec, &EnclaveConfig::default())
        .expect("enclave");
    enclave
        .register_ecall("ecall_long", |ctx, data| {
            ctx.compute(Nanos::from_nanos(data.scalar))?;
            Ok(())
        })
        .expect("register");
    let table = Arc::new(
        OcallTableBuilder::new(enclave.spec())
            .build()
            .expect("table"),
    );
    let logger = Logger::attach(&rt, LoggerConfig::with_aex(AexMode::Trace));
    rt.ecall(
        &ThreadCtx::main(),
        enclave.id(),
        "ecall_long",
        &table,
        &mut CallData::new(20_000_000),
    )
    .expect("ecall");
    logger.finish().to_bytes()
}

fn securekeeper() -> Vec<u8> {
    record(LoggerConfig::with_aex(AexMode::Trace), |h| {
        let config = securekeeper::SecureKeeperConfig {
            clients: 4,
            duration: Nanos::from_millis(200),
            ..Default::default()
        };
        securekeeper::run(h, &config).expect("securekeeper run");
    })
}

/// (label, length, FNV-1a digest) of every pinned trace.
const PINNED: &[(&str, usize, u64)] = &[
    ("talos", 118_819, 0xd111ef0adde0f629),
    ("supervised", 2_338, 0x86588e687eb35ef5),
    ("switchless", 36_483, 0xe303c3bc6d5d1de4),
    ("fleet", 178_979, 0x7e5f3a61e852f339),
    ("chaos", 5_425, 0xfe985cb505e099c5),
    ("racy", 4_602, 0xce14232049d580ab),
    ("sgx_v2", 704, 0x3779449ef7aef9ab),
    ("securekeeper", 125_481, 0xb521093a87cef239),
];

/// The twelve table tags of the trace format.
const TAGS: [&str; 12] = [
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
    "fleet",
];

/// Records one trace and returns its bytes.
type Recording = fn() -> Vec<u8>;

#[test]
fn trace_bytes_are_pinned() {
    let traces: [(&str, Recording); 8] = [
        ("talos", talos),
        ("supervised", supervised),
        ("switchless", switchless),
        ("fleet", fleet),
        ("chaos", chaos),
        ("racy", racy),
        ("sgx_v2", sgx_v2),
        ("securekeeper", securekeeper),
    ];
    let mut actual = Vec::new();
    let mut filled = BTreeSet::new();
    for (label, trace) in traces {
        let bytes = trace();
        let back = TraceDb::from_bytes(&bytes).expect("own bytes must decode");
        assert!(
            back.to_bytes() == bytes,
            "{label}: re-encoding changed bytes"
        );
        let store = eventdb::Store::from_bytes(&bytes).expect("own bytes must parse");
        for info in store.sections() {
            let info = info.expect("section");
            if info.rows > 0 {
                filled.insert(info.tag);
            }
        }
        actual.push((label, bytes.len(), fnv1a(&bytes)));
    }
    let table: String = actual
        .iter()
        .map(|(label, len, digest)| format!("    (\"{label}\", {len}, 0x{digest:016x}),\n"))
        .collect();
    assert_eq!(actual, PINNED, "trace bytes changed; new values:\n{table}");
    let filled: Vec<&str> = filled.iter().map(String::as_str).collect();
    let mut all = TAGS.to_vec();
    all.sort_unstable();
    assert_eq!(filled, all, "the pinned traces must fill every table");
}
