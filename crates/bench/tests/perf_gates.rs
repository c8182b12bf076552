//! Host-time performance gates. Each gate times real work and fails when
//! it misses its floor, so the gates are ignored in ordinary (debug,
//! parallel) test runs and run one at a time on a release build:
//!
//! ```text
//! cargo test --release --offline -p sgx-perf-bench --test perf_gates -- \
//!     --ignored --test-threads=1 --nocapture
//! ```
//!
//! * `SGXPERF_ENGINE_SPEEDUP_FLOOR` (default 5): the fast coroutine
//!   engine must beat the legacy OS-thread engine by this factor on a
//!   scheduler-bound ping-pong.
//! * `SGXPERF_SCALING_FLOOR` (default 0.7): `matrix::run` on all cores
//!   must reach this fraction of the ideal `min(jobs, cores)` speedup
//!   over a serial run.
//! * Per-eviction cost at 1024 resident enclaves must stay under 8x the
//!   cost at 16 (a linear victim scan would be ~64x).
//! * `ecall_cost_is_independent_of_enclave_size`: a no-op ecall into an
//!   enclave with a 16 MiB heap must cost under 2x one into an enclave
//!   with a 64 KiB heap (a per-ecall walk of the enclave's pages made it
//!   about 9x).
//! * `logged_ecall_cost_is_independent_of_live_ocall_tables`: a logged
//!   no-op ecall into the newest of 256 live enclaves, each with its own
//!   ocall table, must cost under 2x one into a runtime with one live
//!   enclave (a per-ecall scan of the logger's stub cache made it 5-8x).
//! * `hostile_traces_analyse_in_near_linear_time`: a self-diff of one
//!   ecall with n executions, n injected faults and n recovery windows,
//!   the race analysis of n lock holds with one ocall inside each, and
//!   the instance view of n ecalls over n / 8 named calls that all share
//!   one slot of the call table's memo must each cost under 16x more at
//!   n = 40,000 than at n = 5,000 (testing every fault or ocall against
//!   every window or hold made the first two about 64x and 60x; a memo
//!   that probed or chained on collision would walk the colliding calls
//!   on every row).
//!
//! A floor variable that is set but does not parse as a finite number
//! fails the gate; an unset one means the default.

use std::sync::Arc;
use std::time::{Duration, Instant};

use sgx_perf::analysis::diff::{DiffConfig, TraceDiff};
use sgx_perf::analysis::parents::call_memo_slot;
use sgx_perf::analysis::{races, Instances};
use sgx_perf::events::{EcallRow, FaultRow, LifecycleRow, OcallRow, SymbolRow, SyncEvRow};
use sgx_perf::{CallKind, CallRef, Logger, LoggerConfig, TraceDb};
use sgx_perf_bench::scaled_count;
use sgx_sdk::{CallData, Enclave, OcallTable, OcallTableBuilder, Runtime, ThreadCtx};
use sgx_sim::{EnclaveConfig, EnclaveId, EvictionPolicy, Machine, MachineParams};
use sim_core::campaign::CampaignSpec;
use sim_core::fault::FaultAction;
use sim_core::syncev::SyncOp;
use sim_core::{Clock, HwProfile, LifecycleStage};
use sim_threads::{with_engine, Engine, Simulation};
use workloads::campaign::matrix::{self, MatrixPlan};
use workloads::chaos;

/// Reads the floor `var`, or `default` when it is unset.
fn floor(var: &str, default: f64) -> f64 {
    match std::env::var_os(var) {
        None => default,
        Some(value) => value
            .to_str()
            .and_then(|v| v.parse::<f64>().ok())
            .filter(|f| f.is_finite())
            .unwrap_or_else(|| panic!("{var}={value:?} is not a number")),
    }
}

/// Runs a two-thread yield ping-pong of about `events` scheduling points
/// on `engine`; returns the wall time.
fn ping_pong(engine: Engine, events: u64) -> Duration {
    let per_thread = events / 2;
    let start = Instant::now();
    with_engine(engine, || {
        let sim = Simulation::new(Clock::new());
        for t in 0..2 {
            sim.spawn(&format!("pong{t}"), move |ctx| {
                for _ in 0..per_thread {
                    ctx.yield_now();
                }
            });
        }
        sim.run();
    });
    start.elapsed()
}

#[test]
#[ignore = "timing gate: release build, run alone by CI's perf-gate job"]
fn fast_engine_beats_legacy_on_ping_pong() {
    let min = floor("SGXPERF_ENGINE_SPEEDUP_FLOOR", 5.0);
    let events = 200_000;
    // Warm both engines once (thread pool and allocator), then measure.
    ping_pong(Engine::Legacy, events / 20);
    ping_pong(Engine::Fast, events / 20);
    let legacy = ping_pong(Engine::Legacy, events);
    let fast = ping_pong(Engine::Fast, events);
    let speedup = legacy.as_secs_f64() / fast.as_secs_f64().max(1e-9);
    println!("ping-pong ({events} events): legacy {legacy:?}, fast {fast:?} — {speedup:.1}x");
    assert!(
        speedup >= min,
        "fast engine speedup {speedup:.1}x below the {min}x floor"
    );
}

#[test]
#[ignore = "timing gate: release build, run alone by CI's perf-gate job"]
fn campaign_runner_scales_with_cores() {
    let min = floor("SGXPERF_SCALING_FLOOR", 0.7);
    let spec = CampaignSpec::parse(&format!(
        "[campaign]\nname = \"engine-scaling\"\n\
         [matrix]\nworkloads = [\"antipatterns\", \"switchless\"]\n\
         profiles = [\"unpatched\", \"spectre\", \"l1tf\"]\nseeds = [0]\n\
         [faults]\nnone = \"\"\nchaos = \"{}\"\n",
        chaos::random_plan(1),
    ))
    .expect("scaling spec");
    let plan = MatrixPlan::from_spec(spec).expect("scaling plan");
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let timed_run = |jobs| {
        let start = Instant::now();
        matrix::run(&plan, Engine::Fast, jobs, None, false).expect("scaling campaign");
        start.elapsed()
    };
    // A run takes about 10 ms, so a worker's first allocations or one
    // stolen time slice move a single sample by a tenth or more: keep the
    // best of five alternating runs per side.
    let (mut serial, mut parallel) = (Duration::MAX, Duration::MAX);
    for _ in 0..5 {
        serial = serial.min(timed_run(1));
        parallel = parallel.min(timed_run(cores));
    }
    let efficiency = serial.as_secs_f64() / parallel.as_secs_f64().max(1e-9) / cores as f64;
    println!(
        "campaign ({} cells): serial {serial:?}, {cores} job(s) {parallel:?} — efficiency {efficiency:.2}",
        plan.spec.cell_count(),
    );
    assert!(
        efficiency >= min,
        "campaign scaling efficiency {efficiency:.2} below the {min} floor"
    );
}

/// Returns the best-of-3 real time per eviction, in nanoseconds, over
/// `count` small enclaves whose EPC holds half their combined footprint:
/// `iters` prefetches cycle over every enclave's heap under LRU, so each
/// one misses and evicts.
fn per_eviction_ns(count: usize, iters: u64) -> f64 {
    let config = EnclaveConfig {
        heap_kib: 64,
        ..EnclaveConfig::default()
    };
    let per_enclave = sgx_sim::EnclaveLayout::new(&config).total_pages();
    let machine = Arc::new(Machine::with_params(
        Clock::new(),
        HwProfile::Unpatched,
        MachineParams {
            epc_pages: count * per_enclave / 2,
            eviction: EvictionPolicy::Lru,
            ..MachineParams::default()
        },
    ));
    let rt = Runtime::new(Arc::clone(&machine));
    let spec = sgx_edl::parse("enclave { trusted { public void ecall_noop(); }; };").unwrap();
    let enclaves: Vec<(EnclaveId, usize)> = (0..count)
        .map(|_| {
            let id = rt.create_enclave(&spec, &config).unwrap().id();
            (id, machine.heap_range(id).unwrap().start)
        })
        .collect();
    let heap_pages = 16; // 64 KiB of heap
    let mut best = f64::INFINITY;
    for _ in 0..3 {
        let start = Instant::now();
        for cursor in 0..iters as usize {
            let (id, heap_start) = enclaves[cursor % count];
            let page = heap_start + (cursor / count) % heap_pages;
            machine.prefetch(id, page..page + 1).unwrap();
        }
        best = best.min(start.elapsed().as_nanos() as f64 / iters as f64);
    }
    best
}

#[test]
#[ignore = "timing gate: release build, run alone by CI's perf-gate job"]
fn eviction_cost_is_sublinear_in_enclave_count() {
    let iters = scaled_count(40_000, 8_000);
    let small = per_eviction_ns(16, iters);
    let large = per_eviction_ns(1024, iters);
    let ratio = large / small;
    println!("per-eviction: {small:.0} ns at 16 enclaves, {large:.0} ns at 1024 — {ratio:.2}x");
    assert!(
        ratio < 8.0,
        "eviction-victim selection is not sublinear in enclave count: \
         {large:.0} ns at 1024 enclaves vs {small:.0} ns at 16 ({ratio:.2}x)"
    );
}

/// Returns the best-of-3 real time per no-op `Runtime::ecall`, in
/// nanoseconds, into the newest of `live` enclaves with a `heap_kib` heap,
/// each with its own ocall table. With `logged`, the logger is attached
/// first and every table passes through it once before the timing.
fn per_ecall_ns(heap_kib: usize, live: usize, logged: bool, iters: u64) -> f64 {
    let machine = Arc::new(Machine::new(Clock::new(), HwProfile::Unpatched));
    let rt = Runtime::new(machine);
    let logger = logged.then(|| Logger::attach(&rt, LoggerConfig::default()));
    let spec = sgx_edl::parse("enclave { trusted { public void ecall_noop(); }; };").unwrap();
    let config = EnclaveConfig {
        heap_kib,
        ..EnclaveConfig::default()
    };
    let tcx = ThreadCtx::main();
    let ecall = |enclave: &Enclave, table: &Arc<OcallTable>| {
        rt.ecall(
            &tcx,
            enclave.id(),
            "ecall_noop",
            table,
            &mut CallData::new(0),
        )
        .unwrap();
    };
    let enclaves: Vec<_> = (0..live)
        .map(|_| {
            let enclave = rt.create_enclave(&spec, &config).unwrap();
            enclave.register_ecall("ecall_noop", |_, _| Ok(())).unwrap();
            let table = Arc::new(OcallTableBuilder::new(enclave.spec()).build().unwrap());
            ecall(&enclave, &table);
            (enclave, table)
        })
        .collect();
    let (enclave, table) = enclaves.last().expect("at least one enclave");
    let mut best = f64::INFINITY;
    for _ in 0..3 {
        let start = Instant::now();
        for _ in 0..iters {
            ecall(enclave, table);
        }
        best = best.min(start.elapsed().as_nanos() as f64 / iters as f64);
    }
    if let Some(logger) = logger {
        assert_eq!(logger.counts().0 as u64, live as u64 + 3 * iters);
    }
    best
}

#[test]
#[ignore = "timing gate: release build, run alone by CI's perf-gate job"]
fn ecall_cost_is_independent_of_enclave_size() {
    let iters = scaled_count(20_000, 4_000);
    let small = per_ecall_ns(64, 1, false, iters);
    let large = per_ecall_ns(16 * 1024, 1, false, iters);
    let ratio = large / small;
    println!(
        "per-ecall: {small:.0} ns with a 64 KiB heap, {large:.0} ns with 16 MiB — {ratio:.2}x"
    );
    assert!(
        ratio < 2.0,
        "ecall entry cost grows with enclave size: {large:.0} ns with a 16 MiB heap \
         vs {small:.0} ns with 64 KiB ({ratio:.2}x)"
    );
}

#[test]
#[ignore = "timing gate: release build, run alone by CI's perf-gate job"]
fn logged_ecall_cost_is_independent_of_live_ocall_tables() {
    let iters = scaled_count(20_000, 4_000);
    let one = per_ecall_ns(64, 1, true, iters);
    let many = per_ecall_ns(64, 256, true, iters);
    let ratio = many / one;
    println!(
        "per logged ecall: {one:.0} ns with 1 live ocall table, {many:.0} ns with 256 — {ratio:.2}x"
    );
    assert!(
        ratio < 2.0,
        "logged ecall cost grows with the live ocall tables: {many:.0} ns with 256 \
         vs {one:.0} ns with 1 ({ratio:.2}x)"
    );
}

/// One ecall run `n` times, 1 µs apart, with `n` injected faults and `n`
/// enclave losses each recovered, all between the executions.
fn faulted_trace(n: u64) -> TraceDb {
    let mut trace = TraceDb::default();
    for i in 0..n {
        let at = i * 1_000;
        trace.ecalls.insert(EcallRow {
            thread: 0,
            enclave: 1,
            call_index: 0,
            start_ns: at,
            end_ns: at + 100,
            parent_ocall: None,
            aex_count: 0,
            failed: false,
        });
        trace.faults.insert(FaultRow {
            thread: 0,
            enclave: 1,
            fault: 3,
            action: FaultAction::Injected.code(),
            call_index: Some(0),
            magnitude: 1,
            time_ns: at + 500,
        });
        for (stage, time_ns) in [
            (LifecycleStage::Lost, at + 600),
            (LifecycleStage::Recovered, at + 700),
        ] {
            trace.lifecycle.insert(LifecycleRow {
                enclave: 1,
                stage: stage.code(),
                thread: 0,
                attempt: 1,
                magnitude: 100,
                time_ns,
            });
        }
    }
    trace
}

/// One thread holding mutex `m` `n` times, 100 ns apart, with one
/// `ocall_io` inside each hold.
fn held_lock_trace(n: u64) -> TraceDb {
    let mut trace = TraceDb::default();
    trace.symbols.insert(SymbolRow {
        enclave: 1,
        kind_is_ecall: false,
        index: 0,
        name: "ocall_io".to_string(),
        public: false,
        allowed_ecalls: vec![],
        user_check_params: vec![],
    });
    for i in 0..n {
        let at = i * 100;
        for (op, time_ns) in [(SyncOp::LockAcquire, at), (SyncOp::LockRelease, at + 50)] {
            trace.syncev.insert(SyncEvRow {
                thread: 0,
                op: op.code(),
                object: Some(1),
                target: None,
                aux: 0,
                label: "m".to_string(),
                time_ns,
            });
        }
        trace.ocalls.insert(OcallRow {
            thread: 0,
            enclave: 1,
            call_index: 0,
            start_ns: at + 10,
            end_ns: at + 20,
            parent_ecall: None,
            failed: false,
        });
    }
    trace
}

/// `n` ecalls over `n / 8` calls of one enclave that all share one slot
/// of the call table's memo, each named by a symbol row and called in
/// turn, so that every row's call evicts the one before it.
fn memo_colliding_trace(n: u64) -> TraceDb {
    let ecall = |index| CallRef {
        enclave: 1,
        kind: CallKind::Ecall,
        index,
    };
    let slot = call_memo_slot(ecall(0));
    let calls: Vec<CallRef> = (0..u32::MAX)
        .map(ecall)
        .filter(|&call| call_memo_slot(call) == slot)
        .take((n / 8) as usize)
        .collect();
    let mut trace = TraceDb::default();
    for call in &calls {
        trace.symbols.insert(SymbolRow {
            enclave: call.enclave,
            kind_is_ecall: true,
            index: call.index,
            name: format!("ecall_{}", call.index),
            public: true,
            allowed_ecalls: vec![],
            user_check_params: vec![],
        });
    }
    for i in 0..n {
        let call = calls[(i % calls.len() as u64) as usize];
        trace.ecalls.insert(EcallRow {
            thread: 0,
            enclave: call.enclave,
            call_index: call.index,
            start_ns: i * 100,
            end_ns: i * 100 + 50,
            parent_ocall: None,
            aex_count: 0,
            failed: false,
        });
    }
    trace
}

/// Best-of-3 real time of `work`, in nanoseconds. Each run starts after
/// 64 MiB of other writes, so that a small input is not timed from a warm
/// cache that a large one does not fit in.
fn best_of_3_ns(mut work: impl FnMut()) -> f64 {
    let mut flush = vec![0u8; 64 << 20];
    (0..3u8)
        .map(|run| {
            flush.fill(run);
            std::hint::black_box(&flush);
            let start = Instant::now();
            work();
            start.elapsed().as_nanos() as f64
        })
        .fold(f64::INFINITY, f64::min)
}

#[test]
#[ignore = "timing gate: release build, run alone by CI's perf-gate job"]
fn hostile_traces_analyse_in_near_linear_time() {
    let (small, large) = (5_000, 40_000);
    let diff_ns = |n| {
        let trace = faulted_trace(n);
        best_of_3_ns(|| {
            let diff = TraceDiff::compute(&trace, &trace, DiffConfig::default());
            assert_eq!(diff.attributed_faults(), 0);
        })
    };
    let races_ns = |n| {
        let trace = held_lock_trace(n);
        best_of_3_ns(|| {
            let report = races::analyze(&trace);
            assert_eq!(report.findings.len(), 1, "{}", report.render());
        })
    };
    let instances_ns = |n| {
        let trace = memo_colliding_trace(n);
        let cost = HwProfile::Unpatched.cost_model();
        let first = CallRef {
            enclave: 1,
            kind: CallKind::Ecall,
            index: 0,
        };
        best_of_3_ns(|| {
            let instances = Instances::build(&trace, &cost);
            assert_eq!(instances.of_call(first).len(), 8);
        })
    };
    for (label, time) in [
        ("self-diff", &diff_ns as &dyn Fn(u64) -> f64),
        ("races", &races_ns),
        ("memo-colliding call table", &instances_ns),
    ] {
        let (t_small, t_large) = (time(small), time(large));
        let ratio = t_large / t_small;
        println!(
            "{label}: {:.1} ms at n = {small}, {:.1} ms at n = {large} — {ratio:.1}x",
            t_small / 1e6,
            t_large / 1e6
        );
        assert!(
            ratio < 16.0,
            "{label} is not near-linear in trace size: {ratio:.1}x the time at 8x the size"
        );
    }
}

#[test]
#[should_panic(expected = "SGXPERF_PERF_GATES_TEST_FLOOR")]
fn a_floor_that_does_not_parse_fails_naming_its_variable() {
    assert_eq!(floor("SGXPERF_PERF_GATES_UNSET_FLOOR", 0.7), 0.7);
    std::env::set_var("SGXPERF_PERF_GATES_TEST_FLOOR", "0,7");
    floor("SGXPERF_PERF_GATES_TEST_FLOOR", 0.7);
}
