//! Ablation (§3.4 mitigation): the SDK sleep-based mutex vs the hybrid
//! spin-then-sleep mutex sgx-perf recommends for SSC problems, across spin
//! budgets.
//!
//! Expectation: contended short critical sections with the plain SDK mutex
//! burn two ocalls per contention; a modest spin budget eliminates almost
//! all of them and shortens the run.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use sgx_perf_bench::{banner, row, scaled_count};
use sgx_sdk::{CallData, OcallTableBuilder, Runtime, SgxHybridMutex, SgxThreadMutex, ThreadCtx};
use sgx_sim::{EnclaveConfig, Machine};
use sim_core::{Clock, HwProfile, Nanos};
use sim_threads::Simulation;

enum Lock {
    Sdk(SgxThreadMutex),
    Hybrid(SgxHybridMutex),
}

fn contend(threads: usize, rounds: u64, lock: Lock) -> (Nanos, usize) {
    let machine = Arc::new(Machine::new(Clock::new(), HwProfile::Unpatched));
    let rt = Runtime::new(machine);
    let spec =
        sgx_edl::parse("enclave { trusted { public void ecall_op(uint64_t i); }; };").unwrap();
    let enclave = rt
        .create_enclave(
            &spec,
            &EnclaveConfig {
                tcs_count: threads,
                ..EnclaveConfig::default()
            },
        )
        .unwrap();
    let lock = Arc::new(lock);
    let l2 = Arc::clone(&lock);
    enclave
        .register_ecall("ecall_op", move |ctx, _| {
            match &*l2 {
                Lock::Sdk(m) => {
                    m.lock(ctx)?;
                    if let Some(sim) = ctx.thread().sim {
                        sim.yield_now();
                    }
                    ctx.compute(Nanos::from_nanos(300))?;
                    m.unlock(ctx)?;
                }
                Lock::Hybrid(m) => {
                    m.lock(ctx)?;
                    if let Some(sim) = ctx.thread().sim {
                        sim.yield_now();
                    }
                    ctx.compute(Nanos::from_nanos(300))?;
                    m.unlock(ctx)?;
                }
            }
            Ok(())
        })
        .unwrap();
    let base = OcallTableBuilder::new(enclave.spec()).build().unwrap();
    let sync_count = Arc::new(AtomicUsize::new(0));
    let sc = Arc::clone(&sync_count);
    let table = Arc::new(base.wrap(move |_, name, orig| {
        let sc = Arc::clone(&sc);
        let is_sync = sgx_sdk::sync_ocalls::is_sync_ocall(name);
        Arc::new(move |host, data| {
            if is_sync {
                sc.fetch_add(1, Ordering::SeqCst);
            }
            orig(host, data)
        })
    }));

    let sim = Simulation::new(rt.machine().clock().clone());
    for _ in 0..threads {
        let rt = Arc::clone(&rt);
        let table = Arc::clone(&table);
        let eid = enclave.id();
        sim.spawn("worker", move |ctx| {
            let tcx = ThreadCtx::from_sim(ctx);
            for i in 0..rounds {
                rt.ecall(&tcx, eid, "ecall_op", &table, &mut CallData::new(i))
                    .unwrap();
                // The host event loop runs between requests, releasing the
                // core — this is where a spinner gets its chance.
                ctx.yield_now();
            }
        });
    }
    let before = rt.machine().clock().now();
    sim.run();
    (
        rt.machine().clock().now() - before,
        sync_count.load(Ordering::SeqCst),
    )
}

fn main() {
    banner(
        "A1",
        "hybrid spin-then-sleep locking vs SDK mutex (SSC mitigation, §3.4)",
    );
    let threads = 4;
    let rounds = scaled_count(2_000, 200);
    row(
        "threads / lock-ops per thread",
        format!("{threads} / {rounds}"),
    );
    println!(
        "\n  {:<28} {:>14} {:>14} {:>16}",
        "lock", "elapsed", "sync ocalls", "ocalls per op"
    );
    let total_ops = threads as u64 * rounds;
    let (sdk_time, sdk_sync) = contend(threads, rounds, Lock::Sdk(SgxThreadMutex::new()));
    println!(
        "  {:<28} {:>14} {:>14} {:>16.3}",
        "SDK mutex (sleep always)",
        sdk_time,
        sdk_sync,
        sdk_sync as f64 / total_ops as f64
    );
    for budget in [1u32, 4, 16, 64] {
        let (time, sync) = contend(threads, rounds, Lock::Hybrid(SgxHybridMutex::new(budget)));
        println!(
            "  {:<28} {:>14} {:>14} {:>16.3}",
            format!("hybrid, spin budget {budget}"),
            time,
            sync,
            sync as f64 / total_ops as f64
        );
    }
    println!("\n  expectation: spinning absorbs short contention; sync ocalls -> 0 and");
    println!("  the run gets faster, validating the paper's SSC recommendation.");
}
