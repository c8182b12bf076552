//! SGX v2 features (the paper's future-work notes, implemented): dynamic
//! enclave memory via `EAUG` and AEX exit-type visibility.
//!
//! §2.3.3: "With SGX v2 ... the enclave can be created small and as soon
//! as stack or heap are exhausted, new pages may be added on-demand."
//! §4.1.4: "SGX v2 will enable this, as the SGX subsystem can be
//! instructed to record the exit type into the enclave state."
//!
//! ```sh
//! cargo run -p sgx-perf-examples --bin sgx_v2_dynamic_memory
//! ```

use std::sync::Arc;

use sgx_perf::{AexMode, Logger, LoggerConfig};
use sgx_sdk::{CallData, OcallTableBuilder, Runtime, ThreadCtx};
use sgx_sim::{AccessKind, EnclaveConfig, Machine, MachineParams, SgxVersion};
use sim_core::{Clock, HwProfile, Nanos};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // An SGX v2 machine.
    let machine = Arc::new(Machine::with_params(
        Clock::new(),
        HwProfile::Unpatched,
        MachineParams {
            sgx_version: SgxVersion::V2,
            ..MachineParams::default()
        },
    ));
    let runtime = Runtime::new(Arc::clone(&machine));

    // A deliberately tiny enclave: 16 KiB of heap.
    let spec = sgx_edl::parse(
        "enclave { trusted {
            public uint64_t ecall_ingest(uint64_t pages);
            public void ecall_long(void);
        }; };",
    )?;
    let enclave = runtime.create_enclave(
        &spec,
        &EnclaveConfig {
            heap_kib: 16,
            ..EnclaveConfig::default()
        },
    )?;
    enclave.register_ecall("ecall_ingest", |ctx, data| {
        // The trusted allocator ran out of heap: grow on demand.
        let fresh = ctx.sbrk(data.scalar as usize)?;
        ctx.touch(fresh.clone(), AccessKind::Write)?;
        ctx.compute(Nanos::from_micros(20))?;
        data.ret = fresh.start as u64;
        Ok(())
    })?;
    enclave.register_ecall("ecall_long", |ctx, _| {
        ctx.compute(Nanos::from_millis(12))?;
        Ok(())
    })?;
    let table = Arc::new(OcallTableBuilder::new(enclave.spec()).build()?);

    let logger = Logger::attach(&runtime, LoggerConfig::with_aex(AexMode::Trace));
    let info = machine.enclave_info(enclave.id())?;
    println!(
        "enclave built: {} pages total, heap starts at 4 pages ({} KiB)",
        info.total_pages, 16
    );

    let tcx = ThreadCtx::main();
    for round in 1..=3u64 {
        let mut data = CallData::new(4);
        runtime.ecall(&tcx, enclave.id(), "ecall_ingest", &table, &mut data)?;
        println!("round {round}: EAUG'd 4 pages at page index {}", data.ret);
    }

    // A long call to gather AEXs whose causes are now visible (v2 + debug
    // enclave).
    runtime.ecall(
        &tcx,
        enclave.id(),
        "ecall_long",
        &table,
        &mut CallData::default(),
    )?;

    let trace = logger.finish();
    println!("\nAEX rows with v2-visible causes:");
    for row in trace.aex.iter() {
        println!(
            "  t={} cause={:?} (opaque on SGX v1)",
            sim_core::Nanos::from_nanos(row.time_ns),
            row.cause
        );
    }
    Ok(())
}
