//! E1 (§2.3.1): enclave transition round-trip costs on the three hardware
//! settings — unmodified, Spectre-patched, and additionally L1TF-patched.
//!
//! Paper: ≈5,850 cycles (≈2,130 ns) → ≈10,170 cycles (≈3,850 ns, 1.74×)
//! → ≈13,100 cycles (≈4,890 ns, 2.24×).

use std::sync::Arc;

use sgx_perf_bench::{banner, row, scaled_count};
use sgx_sdk::{CallData, OcallTableBuilder, Runtime, ThreadCtx};
use sgx_sim::{EnclaveConfig, Machine};
use sim_core::{Clock, HwProfile, Nanos};

fn measure_roundtrip(profile: HwProfile, iterations: u64) -> (Nanos, Nanos) {
    let machine = Arc::new(Machine::new(Clock::new(), profile));
    let rt = Runtime::new(machine);
    let spec = sgx_edl::parse("enclave { trusted { public void ecall_empty(); }; };").unwrap();
    let enclave = rt.create_enclave(&spec, &EnclaveConfig::default()).unwrap();
    enclave
        .register_ecall("ecall_empty", |_, _| Ok(()))
        .unwrap();
    let table = Arc::new(OcallTableBuilder::new(enclave.spec()).build().unwrap());
    let tcx = ThreadCtx::main();
    // Warm up (the paper uses warm caches).
    for _ in 0..100 {
        rt.ecall(
            &tcx,
            enclave.id(),
            "ecall_empty",
            &table,
            &mut CallData::default(),
        )
        .unwrap();
    }
    let before = rt.machine().clock().now();
    for _ in 0..iterations {
        rt.ecall(
            &tcx,
            enclave.id(),
            "ecall_empty",
            &table,
            &mut CallData::default(),
        )
        .unwrap();
    }
    let per_call = (rt.machine().clock().now() - before) / iterations;
    let raw = rt.machine().cost_model().transition_roundtrip();
    (raw, per_call)
}

fn main() {
    banner(
        "E1",
        "enclave transition costs per mitigation level (paper §2.3.1)",
    );
    let iterations = scaled_count(1_000_000, 10_000);
    println!(
        "  {:<16} {:>16} {:>14} {:>18} {:>10}",
        "setting", "raw roundtrip", "rep. cycles", "full SDK ecall", "vs base"
    );
    let mut base = None;
    for profile in HwProfile::ALL {
        let (raw, full) = measure_roundtrip(profile, iterations);
        let cm = profile.cost_model();
        let base_ns = *base.get_or_insert(raw.as_nanos());
        println!(
            "  {:<16} {:>16} {:>14} {:>18} {:>9.2}x",
            profile.label(),
            raw,
            cm.reported_roundtrip_cycles.get(),
            full,
            raw.as_nanos() as f64 / base_ns as f64,
        );
    }
    row(
        "paper",
        "2,130ns / 3,850ns (1.74x) / 4,890ns (2.24x) raw roundtrips",
    );
}
