//! SGX v2 features through the SDK: dynamic heap growth from trusted code.

use std::sync::Arc;

use sgx_sdk::{CallData, OcallTableBuilder, Runtime, SdkError, ThreadCtx};
use sgx_sim::{AccessKind, EnclaveConfig, Machine, MachineParams, SgxVersion, SimError};
use sim_core::{Clock, HwProfile};

fn runtime(version: SgxVersion) -> Arc<Runtime> {
    let machine = Arc::new(Machine::with_params(
        Clock::new(),
        HwProfile::Unpatched,
        MachineParams {
            sgx_version: version,
            ..MachineParams::default()
        },
    ));
    Runtime::new(machine)
}

fn setup(rt: &Arc<Runtime>) -> (sgx_sim::EnclaveId, Arc<sgx_sdk::OcallTable>) {
    let spec = sgx_edl::parse(
        "enclave { trusted { public uint64_t ecall_grow_and_use(uint64_t pages); }; };",
    )
    .unwrap();
    let enclave = rt
        .create_enclave(
            &spec,
            &EnclaveConfig {
                heap_kib: 16, // deliberately tiny: 4 heap pages
                ..EnclaveConfig::default()
            },
        )
        .unwrap();
    enclave
        .register_ecall("ecall_grow_and_use", |ctx, data| {
            // The trusted allocator ran out of its 4-page heap; grow.
            let new_pages = ctx.sbrk(data.scalar as usize)?;
            ctx.touch(new_pages.clone(), AccessKind::Write)?;
            data.ret = new_pages.len() as u64;
            Ok(())
        })
        .unwrap();
    let table = Arc::new(OcallTableBuilder::new(enclave.spec()).build().unwrap());
    (enclave.id(), table)
}

#[test]
fn trusted_code_grows_heap_on_v2() {
    let rt = runtime(SgxVersion::V2);
    let (eid, table) = setup(&rt);
    let mut data = CallData::new(16);
    rt.ecall(
        &ThreadCtx::main(),
        eid,
        "ecall_grow_and_use",
        &table,
        &mut data,
    )
    .unwrap();
    assert_eq!(data.ret, 16);
    // Growth persists across calls: a second grow takes the last of the
    // 18-page padding reserve...
    let mut data2 = CallData::new(2);
    rt.ecall(
        &ThreadCtx::main(),
        eid,
        "ecall_grow_and_use",
        &table,
        &mut data2,
    )
    .unwrap();
    assert_eq!(data2.ret, 2);
    // ...after which the reserve is exhausted.
    let err = rt
        .ecall(
            &ThreadCtx::main(),
            eid,
            "ecall_grow_and_use",
            &table,
            &mut CallData::new(1),
        )
        .unwrap_err();
    assert!(matches!(
        err,
        SdkError::Sim(SimError::OutOfEnclaveSpace { .. })
    ));
}

#[test]
fn sbrk_of_zero_pages_grows_nothing() {
    let rt = runtime(SgxVersion::V2);
    let (eid, table) = setup(&rt);
    let grow = |pages: u64| {
        let mut data = CallData::new(pages);
        rt.ecall(
            &ThreadCtx::main(),
            eid,
            "ecall_grow_and_use",
            &table,
            &mut data,
        )
        .map(|()| data.ret)
    };
    assert_eq!(grow(0).unwrap(), 0);
    // The whole 18-page reserve, after which nothing is left...
    assert_eq!(grow(18).unwrap(), 18);
    assert!(grow(1).is_err());
    // ...and growing by nothing still succeeds.
    assert_eq!(grow(0).unwrap(), 0);
}

#[test]
fn sbrk_fails_cleanly_on_v1() {
    let rt = runtime(SgxVersion::V1);
    let (eid, table) = setup(&rt);
    let err = rt
        .ecall(
            &ThreadCtx::main(),
            eid,
            "ecall_grow_and_use",
            &table,
            &mut CallData::new(16),
        )
        .unwrap_err();
    assert!(matches!(err, SdkError::Sim(SimError::RequiresSgxV2)));
}

// The end-to-end "v2 AEX causes reach the trace" test lives in the
// workspace integration tests (tests/tests/sgx_v2.rs), since it needs the
// sgx-perf logger on top of this crate.
