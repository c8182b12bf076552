//! The lock budget of a recorded call: how many `sim_core::sync` lock,
//! read and write acquisitions one logged ecall with a synchronous ocall,
//! one switchless ocall and one fleet request take. Each count is exact
//! (the scheduler is deterministic), so a change that adds a lock to any
//! of these paths fails here, the way `encode_allocs` pins allocations.
//! Only debug builds count acquisitions. `cargo run --offline -p
//! workloads --example lock_census` counts whole recording sessions.

#![cfg(debug_assertions)]

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use sgx_fleet::{FleetManager, FleetPolicy};
use sgx_perf::{Logger, LoggerConfig};
use sgx_sdk::{CallData, Enclave, OcallTable, OcallTableBuilder, SwitchlessConfig, ThreadCtx};
use sgx_sim::{AccessKind, EnclaveConfig};
use sim_core::sync::acquisitions;
use sim_core::{HwProfile, Nanos};
use sim_threads::{Engine, Simulation};
use workloads::{fleet, Harness};

const EDL: &str = "enclave {
    trusted { public void ecall_SSL_read(uint64_t ssl); };
    untrusted { void ocall_read(uint64_t fd); void ocall_log(uint64_t seq); };
};";

/// Acquisitions `f` makes on this thread.
fn counted(f: impl FnOnce()) -> u64 {
    let before = acquisitions();
    f();
    acquisitions() - before
}

/// The untrusted side of [`EDL`]: each ocall computes briefly.
fn ocall_table(enclave: &Enclave) -> Arc<OcallTable> {
    let mut tb = OcallTableBuilder::new(enclave.spec());
    for name in ["ocall_read", "ocall_log"] {
        tb.register(name, |host, _| {
            host.compute(Nanos::from_nanos(300));
            Ok(())
        })
        .unwrap();
    }
    Arc::new(tb.build().unwrap())
}

/// A logged TaLoS-shaped ecall: compute, one synchronous ocall, compute.
/// The second call is counted; the first captures the interface symbols
/// and generates the logger's stubs.
#[test]
fn a_logged_ecall_with_one_ocall_takes_15_locks() {
    let harness = Harness::new(HwProfile::Unpatched);
    let _logger = Logger::attach(harness.runtime(), LoggerConfig::default());
    let rt = harness.runtime();
    let enclave = rt
        .create_enclave(&sgx_edl::parse(EDL).unwrap(), &EnclaveConfig::default())
        .unwrap();
    enclave
        .register_ecall("ecall_SSL_read", |ctx, data| {
            ctx.compute(Nanos::from_nanos(500))?;
            ctx.ocall("ocall_read", data)?;
            ctx.compute(Nanos::from_nanos(500)).map(drop)
        })
        .unwrap();
    let table = ocall_table(&enclave);
    let tcx = ThreadCtx::main();
    let call = || {
        rt.ecall(
            &tcx,
            enclave.id(),
            "ecall_SSL_read",
            &table,
            &mut CallData::new(1),
        )
        .unwrap();
    };
    call();
    assert_eq!(counted(call), 15);
}

/// One switchless ocall served by an untrusted worker, counted inside the
/// ecall that issues it: the caller's post, its polls and the worker's
/// claim, dispatch and completion all run on this thread's scheduler.
#[test]
fn a_logged_switchless_ocall_takes_19_locks() {
    let harness = Harness::new(HwProfile::Unpatched);
    let _logger = Logger::attach(harness.runtime(), LoggerConfig::default());
    let rt = Arc::clone(harness.runtime());
    let enclave = rt
        .create_enclave(&sgx_edl::parse(EDL).unwrap(), &EnclaveConfig::default())
        .unwrap();
    let second = Arc::new(AtomicU64::new(u64::MAX));
    let sink = Arc::clone(&second);
    enclave
        .register_ecall("ecall_SSL_read", move |ctx, _| {
            ctx.ocall("ocall_log", &mut CallData::new(0))?;
            let mut result = Ok(());
            let locks = counted(|| result = ctx.ocall("ocall_log", &mut CallData::new(1)));
            sink.store(locks, Ordering::SeqCst);
            result
        })
        .unwrap();
    let table = ocall_table(&enclave);
    let sw = rt
        .enable_switchless(
            enclave.id(),
            SwitchlessConfig {
                untrusted_workers: 1,
                force_ocalls: vec!["ocall_log".to_string()],
                ..SwitchlessConfig::default()
            },
        )
        .unwrap();
    let sim = Simulation::with_engine_kind(harness.clock().clone(), Engine::Fast);
    sw.spawn_workers(&sim);
    let eid = enclave.id();
    sim.spawn("server", move |ctx| {
        let tcx = ThreadCtx::from_sim(ctx);
        rt.ecall(&tcx, eid, "ecall_SSL_read", &table, &mut CallData::new(1))
            .unwrap();
        sw.shutdown(ctx);
    });
    sim.run();
    assert_eq!(second.load(Ordering::SeqCst), 19);
}

/// One logged fleet request to a live slot: the liveness check, the
/// supervised ecall (a compute burst and a heap page) and the latency
/// record.
#[test]
fn a_logged_fleet_request_takes_14_locks() {
    let harness = Harness::new(HwProfile::Unpatched);
    let _logger = Logger::attach(harness.runtime(), LoggerConfig::default());
    let spec = sgx_edl::parse(fleet::EDL).unwrap();
    let mgr = FleetManager::new(
        harness.runtime(),
        FleetPolicy::default(),
        4,
        move |rt, _| {
            let enclave = rt.create_enclave(&spec, &fleet::enclave_config())?;
            enclave.register_ecall("ecall_serve", |ctx, data| {
                ctx.compute(Nanos::from_nanos(800))?;
                let page = ctx.heap_range()?.start;
                ctx.touch(page..page + 1, AccessKind::Write)?;
                data.ret = data.scalar;
                Ok(())
            })?;
            Ok(enclave)
        },
    );
    let tcx = ThreadCtx::main();
    let clock = harness.clock().clone();
    let request = || {
        mgr.request(&tcx, 2, "ecall_serve", &mut CallData::new(7), clock.now())
            .unwrap();
    };
    request();
    assert_eq!(counted(request), 14);
}
