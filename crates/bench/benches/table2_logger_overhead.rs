//! E2 (Table 2): overhead of the sgx-perf event logger.
//!
//! Three experiments on the unpatched profile:
//! (1) a single empty ecall ×n, (2) an ecall performing one empty ocall
//! ×n, (3) a long (45 ms-class) ecall ×n with AEX counting or tracing.
//!
//! Paper rows: native 4,205 ns / 8,013 ns; with logging 5,572 ns /
//! 10,699 ns (≈1,366 ns per ecall, ≈1,320 ns per ocall); AEX counting
//! ≈1,076 ns and tracing ≈1,118 ns per AEX over ≈11.5 AEXs per long call.

use std::sync::Arc;

use sgx_perf::{AexMode, Logger, LoggerConfig};
use sgx_perf_bench::{banner, row, scaled_count, timed_real};
use sgx_sdk::{CallData, OcallTableBuilder, Runtime, ThreadCtx};
use sgx_sim::{EnclaveConfig, Machine};
use sim_core::{Clock, HwProfile, Nanos};

struct Bench {
    rt: Arc<Runtime>,
    eid: sgx_sim::EnclaveId,
    table: Arc<sgx_sdk::OcallTable>,
}

fn setup() -> Bench {
    let machine = Arc::new(Machine::new(Clock::new(), HwProfile::Unpatched));
    let rt = Runtime::new(machine);
    let spec = sgx_edl::parse(
        "enclave { trusted {
            public void ecall_empty();
            public void ecall_with_ocall();
            public void ecall_loop(uint64_t ns);
        }; untrusted { void ocall_empty(); }; };",
    )
    .unwrap();
    let enclave = rt.create_enclave(&spec, &EnclaveConfig::default()).unwrap();
    enclave
        .register_ecall("ecall_empty", |_, _| Ok(()))
        .unwrap();
    enclave
        .register_ecall("ecall_with_ocall", |ctx, _| {
            ctx.ocall("ocall_empty", &mut CallData::default())
        })
        .unwrap();
    enclave
        .register_ecall("ecall_loop", |ctx, data| {
            ctx.compute(Nanos::from_nanos(data.scalar))?;
            Ok(())
        })
        .unwrap();
    let mut builder = OcallTableBuilder::new(enclave.spec());
    builder.register("ocall_empty", |_, _| Ok(())).unwrap();
    let table = Arc::new(builder.build().unwrap());
    Bench {
        eid: enclave.id(),
        rt,
        table,
    }
}

fn mean_call(b: &Bench, name: &str, scalar: u64, n: u64) -> Nanos {
    let tcx = ThreadCtx::main();
    // Warmup.
    for _ in 0..(n / 100).max(10) {
        b.rt.ecall(&tcx, b.eid, name, &b.table, &mut CallData::new(scalar))
            .unwrap();
    }
    let before = b.rt.machine().clock().now();
    for _ in 0..n {
        b.rt.ecall(&tcx, b.eid, name, &b.table, &mut CallData::new(scalar))
            .unwrap();
    }
    (b.rt.machine().clock().now() - before) / n
}

fn main() {
    banner("E2", "logger overhead (Table 2)");
    let n = scaled_count(1_000_000, 20_000);
    let n_long = scaled_count(1_000, 50);
    let long_ns = 45_377_000; // the paper's ~45.4 ms loop ecall

    // (1) and (2): native.
    let native = setup();
    let native_single = mean_call(&native, "ecall_empty", 0, n);
    let native_ocall = mean_call(&native, "ecall_with_ocall", 0, n);

    // (1) and (2): with logging.
    let logged = setup();
    let _logger = Logger::attach(&logged.rt, LoggerConfig::default());
    let logged_single = timed_real("experiment 1+2", || mean_call(&logged, "ecall_empty", 0, n));
    let logged_ocall = mean_call(&logged, "ecall_with_ocall", 0, n);

    println!(
        "  {:<26} {:>14} {:>18}",
        "", "(1) single ecall", "(2) ecall+ocall"
    );
    println!(
        "  {:<26} {:>14} {:>18}",
        "native", native_single, native_ocall
    );
    println!(
        "  {:<26} {:>14} {:>18}",
        "with logging", logged_single, logged_ocall
    );
    println!(
        "  {:<26} {:>14} {:>18}",
        "overhead",
        logged_single - native_single,
        logged_ocall - native_ocall
    );
    row("paper native", "4,205ns / 8,013ns");
    row("paper with logging", "5,572ns / 10,699ns");
    row("paper overhead", "~1,366ns per ecall, ~1,320ns per ocall");

    // (3): long ecall with AEX observation.
    println!();
    println!(
        "  {:<26} {:>16} {:>12} {:>16}",
        "(3) long ecall", "execution", "AEX count", "per-AEX overhead"
    );
    let mut base_mean = None;
    for (label, mode) in [
        ("logging only", AexMode::Off),
        ("+ AEX counting", AexMode::Count),
        ("+ AEX tracing", AexMode::Trace),
    ] {
        let b = setup();
        let logger = Logger::attach(&b.rt, LoggerConfig::with_aex(mode));
        let mean = mean_call(&b, "ecall_loop", long_ns, n_long);
        let trace = logger.finish();
        let total_aex: u64 = trace.ecalls.iter().map(|e| e.aex_count).sum();
        let mean_aex = total_aex as f64 / trace.ecalls.len() as f64;
        let base = *base_mean.get_or_insert(mean);
        let per_aex = if mean_aex > 0.0 {
            format!(
                "{:.0}ns",
                (mean.as_nanos() as f64 - base.as_nanos() as f64) / mean_aex
            )
        } else {
            "-".to_string()
        };
        println!(
            "  {:<26} {:>16} {:>12.2} {:>16}",
            label, mean, mean_aex, per_aex
        );
    }
    row(
        "paper",
        "45,377us exec, ~11.5 AEX; counting ~1,076ns, tracing ~1,118ns per AEX",
    );
}
