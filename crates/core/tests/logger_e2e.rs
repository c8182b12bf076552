//! End-to-end logger tests against the simulated SDK: the interposition
//! mechanics of §4.1 and the overhead numbers of Table 2.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use sgx_perf::{AexMode, Logger, LoggerConfig};
use sgx_sdk::{
    CallData, OcallTableBuilder, Runtime, SgxThreadMutex, Supervisor, SupervisorConfig, ThreadCtx,
};
use sgx_sim::{DriverEvent, EnclaveConfig, Machine, ThreadToken};
use sim_core::fault::FaultPlan;
use sim_core::{Clock, HwProfile, Nanos};
use sim_threads::Simulation;

struct App {
    rt: Arc<Runtime>,
    enclave: Arc<sgx_sdk::Enclave>,
    table: Arc<sgx_sdk::OcallTable>,
}

/// Builds the standard test app: `ecall_work` computing for
/// `data.scalar` ns, `ecall_io` doing one ocall, `ocall_io` computing
/// 1 us outside.
fn app(profile: HwProfile) -> App {
    let machine = Arc::new(Machine::new(Clock::new(), profile));
    let rt = Runtime::new(machine);
    let spec = sgx_edl::parse(
        "enclave {
            trusted {
                public void ecall_work(uint64_t ns);
                public void ecall_io();
            };
            untrusted { void ocall_io(); };
        };",
    )
    .unwrap();
    let enclave = rt
        .create_enclave(
            &spec,
            &EnclaveConfig {
                tcs_count: 4,
                ..EnclaveConfig::default()
            },
        )
        .unwrap();
    enclave
        .register_ecall("ecall_work", |ctx, data| {
            ctx.compute(Nanos::from_nanos(data.scalar))?;
            Ok(())
        })
        .unwrap();
    enclave
        .register_ecall("ecall_io", |ctx, _| {
            ctx.ocall("ocall_io", &mut CallData::default())
        })
        .unwrap();
    let mut builder = OcallTableBuilder::new(enclave.spec());
    builder
        .register("ocall_io", |host, _| {
            host.compute(Nanos::from_micros(1));
            Ok(())
        })
        .unwrap();
    let table = Arc::new(builder.build().unwrap());
    App { rt, enclave, table }
}

#[test]
fn logged_empty_ecall_costs_5572ns() {
    // Table 2 (1): 4,205 ns native + ~1,366 ns logging = 5,571 ns.
    let app = app(HwProfile::Unpatched);
    let logger = Logger::attach(&app.rt, LoggerConfig::default());
    let tcx = ThreadCtx::main();
    let before = app.rt.machine().clock().now();
    app.rt
        .ecall(
            &tcx,
            app.enclave.id(),
            "ecall_work",
            &app.table,
            &mut CallData::new(0),
        )
        .unwrap();
    let elapsed = app.rt.machine().clock().now() - before;
    assert_eq!(elapsed, Nanos::from_nanos(5_571)); // paper: 5,572 (rounding)
    let trace = logger.finish();
    assert_eq!(trace.ecalls.len(), 1);
}

#[test]
fn logged_ecall_plus_ocall_costs_10699ns() {
    // Table 2 (2): 8,013 ns native + 1,366 (ecall) + 1,320 (ocall).
    let machine = Arc::new(Machine::new(Clock::new(), HwProfile::Unpatched));
    let rt = Runtime::new(machine);
    let spec = sgx_edl::parse(
        "enclave { trusted { public void ecall_io(); };
                   untrusted { void ocall_empty(); }; };",
    )
    .unwrap();
    let enclave = rt.create_enclave(&spec, &EnclaveConfig::default()).unwrap();
    enclave
        .register_ecall("ecall_io", |ctx, _| {
            ctx.ocall("ocall_empty", &mut CallData::default())
        })
        .unwrap();
    let mut builder = OcallTableBuilder::new(enclave.spec());
    builder.register("ocall_empty", |_, _| Ok(())).unwrap();
    let table = Arc::new(builder.build().unwrap());
    let logger = Logger::attach(&rt, LoggerConfig::default());
    let before = rt.machine().clock().now();
    rt.ecall(
        &ThreadCtx::main(),
        enclave.id(),
        "ecall_io",
        &table,
        &mut CallData::default(),
    )
    .unwrap();
    let elapsed = rt.machine().clock().now() - before;
    assert_eq!(elapsed, Nanos::from_nanos(10_699));
    let trace = logger.finish();
    assert_eq!(trace.ecalls.len(), 1);
    assert_eq!(trace.ocalls.len(), 1);
}

#[test]
fn ocall_duration_excludes_transition_ecall_includes_it() {
    // §4.1.2: ocall timestamps are recorded outside the enclave, so the
    // same 1 us of work appears shorter for the ocall than the ecall.
    let app = app(HwProfile::Unpatched);
    let logger = Logger::attach(&app.rt, LoggerConfig::default());
    let tcx = ThreadCtx::main();
    // ecall doing 1 us of in-enclave work.
    app.rt
        .ecall(
            &tcx,
            app.enclave.id(),
            "ecall_work",
            &app.table,
            &mut CallData::new(1_000),
        )
        .unwrap();
    // ecall performing the 1 us ocall.
    app.rt
        .ecall(
            &tcx,
            app.enclave.id(),
            "ecall_io",
            &app.table,
            &mut CallData::default(),
        )
        .unwrap();
    let trace = logger.finish();
    let work = trace.ecalls.iter().next().unwrap();
    let io_ocall = trace.ocalls.iter().next().unwrap();
    let work_duration = work.end_ns - work.start_ns;
    let ocall_duration = io_ocall.end_ns - io_ocall.start_ns;
    // Both did 1 us of work; the ecall's measured duration carries the
    // 4,205 ns of transition+dispatch on top, the ocall's doesn't.
    assert_eq!(ocall_duration, 1_000);
    assert_eq!(work_duration, 1_000 + 4_205);
}

#[test]
fn direct_parents_are_recorded() {
    let app = app(HwProfile::Unpatched);
    let logger = Logger::attach(&app.rt, LoggerConfig::default());
    let tcx = ThreadCtx::main();
    app.rt
        .ecall(
            &tcx,
            app.enclave.id(),
            "ecall_io",
            &app.table,
            &mut CallData::default(),
        )
        .unwrap();
    let trace = logger.finish();
    let ocall = trace.ocalls.iter().next().unwrap();
    assert_eq!(ocall.parent_ecall, Some(0));
}

#[test]
fn aex_counting_and_tracing_match_table2() {
    // Table 2 (3): a 45,377 us ecall sees ≈11.5 AEXs; counting costs
    // ≈1,076 ns per AEX, tracing ≈1,118 ns. With AEXs off the logger's
    // hook still receives every AEX and drops it: no count, no row, no
    // cost.
    for (mode, per_aex) in [
        (AexMode::Off, 0u64),
        (AexMode::Count, 1_076u64),
        (AexMode::Trace, 1_118u64),
    ] {
        let app = app(HwProfile::Unpatched);
        let taken = Arc::new(AtomicU64::new(0));
        let sink = Arc::clone(&taken);
        app.rt.machine().add_driver_hook(Arc::new(move |ev| {
            if matches!(ev, DriverEvent::Aex(_)) {
                sink.fetch_add(1, Ordering::SeqCst);
            }
        }));
        let logger = Logger::attach(&app.rt, LoggerConfig::with_aex(mode));
        let tcx = ThreadCtx::main();
        let before = app.rt.machine().clock().now();
        app.rt
            .ecall(
                &tcx,
                app.enclave.id(),
                "ecall_work",
                &app.table,
                &mut CallData::new(45_377_000),
            )
            .unwrap();
        let elapsed = (app.rt.machine().clock().now() - before).as_nanos();
        let trace = logger.finish();
        let row = trace.ecalls.iter().next().unwrap();
        let taken = taken.load(Ordering::SeqCst);
        assert!((11..=12).contains(&taken), "{taken}");
        let counted = if mode == AexMode::Off { 0 } else { taken };
        assert_eq!(row.aex_count, counted);
        // The AEX observation overhead is part of the elapsed time.
        let base = 45_377_000 + 5_571; // work + logged empty-ecall cost
        let aex_hw = taken * app.rt.machine().cost_model().aex_roundtrip().as_nanos();
        assert_eq!(elapsed, base + aex_hw + taken * per_aex);
        match mode {
            AexMode::Trace => assert_eq!(trace.aex.len() as u64, row.aex_count),
            _ => assert_eq!(trace.aex.len(), 0),
        }
    }
}

#[test]
fn paging_events_are_traced() {
    let app = app(HwProfile::Unpatched);
    let logger = Logger::attach(&app.rt, LoggerConfig::default());
    // Evict everything, then run an ecall: entry pages fault back in.
    app.rt.machine().evict_all(app.enclave.id()).unwrap();
    let tcx = ThreadCtx::main();
    app.rt
        .ecall(
            &tcx,
            app.enclave.id(),
            "ecall_work",
            &app.table,
            &mut CallData::new(0),
        )
        .unwrap();
    let trace = logger.finish();
    let ins = trace.paging.iter().filter(|p| !p.out).count();
    let outs = trace.paging.iter().filter(|p| p.out).count();
    assert!(ins >= 2, "expected entry-page page-ins, got {ins}");
    // The forced eviction itself was traced as page-outs (one per
    // resident page), timestamped before the page-ins.
    let info = app.rt.machine().enclave_info(app.enclave.id()).unwrap();
    assert_eq!(outs, info.total_pages);
    let first_in = trace.paging.iter().find(|p| !p.out).unwrap();
    assert!(trace
        .paging
        .iter()
        .filter(|p| p.out)
        .all(|p| p.time_ns <= first_in.time_ns));
}

#[test]
fn sync_ocalls_are_classified() {
    let machine = Arc::new(Machine::new(Clock::new(), HwProfile::Unpatched));
    let rt = Runtime::new(machine);
    let spec = sgx_edl::parse("enclave { trusted { public void ecall_crit(); }; };").unwrap();
    let enclave = rt
        .create_enclave(
            &spec,
            &EnclaveConfig {
                tcs_count: 2,
                ..EnclaveConfig::default()
            },
        )
        .unwrap();
    let mutex = Arc::new(SgxThreadMutex::new());
    let m2 = Arc::clone(&mutex);
    enclave
        .register_ecall("ecall_crit", move |ctx, _| {
            m2.lock(ctx)?;
            if let Some(sim) = ctx.thread().sim {
                sim.yield_now();
            }
            ctx.compute(Nanos::from_micros(1))?;
            m2.unlock(ctx)?;
            Ok(())
        })
        .unwrap();
    let table = Arc::new(OcallTableBuilder::new(enclave.spec()).build().unwrap());
    let logger = Logger::attach(&rt, LoggerConfig::default());

    let sim = Simulation::new(rt.machine().clock().clone());
    for _ in 0..2 {
        let rt = Arc::clone(&rt);
        let table = Arc::clone(&table);
        let eid = enclave.id();
        sim.spawn("worker", move |ctx| {
            let tcx = ThreadCtx::from_sim(ctx);
            rt.ecall(&tcx, eid, "ecall_crit", &table, &mut CallData::default())
                .unwrap();
        });
    }
    sim.run();
    let trace = logger.finish();
    let sleeps = trace.sync.iter().filter(|s| s.sleep).count();
    let wakes = trace.sync.iter().filter(|s| !s.sleep).count();
    assert_eq!(sleeps, 1, "{:?}", trace.sync);
    assert_eq!(wakes, 1);
    // The dependency edge: waker thread 0 woke sleeper thread 1.
    let wake = trace.sync.iter().find(|s| !s.sleep).unwrap();
    assert_eq!(wake.target_thread, Some(1));
    assert_eq!(wake.thread, 0);
}

#[test]
fn symbols_are_captured_once_per_enclave() {
    let app = app(HwProfile::Unpatched);
    let logger = Logger::attach(&app.rt, LoggerConfig::default());
    let tcx = ThreadCtx::main();
    for _ in 0..3 {
        app.rt
            .ecall(
                &tcx,
                app.enclave.id(),
                "ecall_work",
                &app.table,
                &mut CallData::new(0),
            )
            .unwrap();
    }
    let trace = logger.finish();
    // 2 ecalls + 1 ocall + 4 implicit sync ocalls = 7 symbols, once.
    assert_eq!(trace.symbols.len(), 7);
    assert!(trace
        .symbols
        .iter()
        .any(|s| s.kind_is_ecall && s.name == "ecall_work" && s.public));
}

#[test]
fn disabled_logger_is_pass_through() {
    let app = app(HwProfile::Unpatched);
    let logger = Logger::attach(&app.rt, LoggerConfig::default());
    logger.set_enabled(false);
    let tcx = ThreadCtx::main();
    let before = app.rt.machine().clock().now();
    app.rt
        .ecall(
            &tcx,
            app.enclave.id(),
            "ecall_work",
            &app.table,
            &mut CallData::new(0),
        )
        .unwrap();
    let elapsed = app.rt.machine().clock().now() - before;
    // Native cost, no logging overhead, nothing recorded.
    assert_eq!(elapsed, Nanos::from_nanos(4_205));
    assert_eq!(logger.counts(), (0, 0));
}

#[test]
fn trace_roundtrips_through_file() {
    let app = app(HwProfile::Unpatched);
    let logger = Logger::attach(&app.rt, LoggerConfig::default());
    let tcx = ThreadCtx::main();
    for i in 0..10 {
        app.rt
            .ecall(
                &tcx,
                app.enclave.id(),
                "ecall_work",
                &app.table,
                &mut CallData::new(i * 100),
            )
            .unwrap();
    }
    let trace = logger.finish();
    let dir = std::env::temp_dir().join("sgx-perf-e2e");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("trace.evdb");
    trace.save(&path).unwrap();
    let back = sgx_perf::TraceDb::load(&path).unwrap();
    assert_eq!(back.ecalls.len(), 10);
    assert_eq!(back.symbols.len(), trace.symbols.len());
    std::fs::remove_file(path).unwrap();
}

#[test]
fn stub_table_created_once_per_ocall_table() {
    // §4.1.2: "Call stub and table creation is only needed once per ocall
    // table." Repeated calls must reuse the cached stub table; we verify
    // indirectly: repeated calls all get traced and costs stay constant.
    let app = app(HwProfile::Unpatched);
    let logger = Logger::attach(&app.rt, LoggerConfig::default());
    let tcx = ThreadCtx::main();
    let mut costs = Vec::new();
    for _ in 0..5 {
        let before = app.rt.machine().clock().now();
        app.rt
            .ecall(
                &tcx,
                app.enclave.id(),
                "ecall_io",
                &app.table,
                &mut CallData::default(),
            )
            .unwrap();
        costs.push((app.rt.machine().clock().now() - before).as_nanos());
    }
    assert!(costs.windows(2).all(|w| w[0] == w[1]), "{costs:?}");
    let trace = logger.finish();
    assert_eq!(trace.ocalls.len(), 5);
}

/// edger8r's untrusted proxies pass one static `ocall_table_<Edl>` to every
/// instance of an enclave, so one table serves many enclaves: each ocall
/// row names the enclave the ocall left, not the first one whose ecall
/// passed the table.
#[test]
fn ocalls_through_a_shared_table_name_the_enclave_they_left() {
    let machine = Arc::new(Machine::new(Clock::new(), HwProfile::Unpatched));
    let rt = Runtime::new(machine);
    let spec = sgx_edl::parse(
        "enclave { trusted { public void ecall_io(); };
                   untrusted { void ocall_io(); }; };",
    )
    .unwrap();
    let enclaves: Vec<_> = (0..2)
        .map(|_| {
            let enclave = rt.create_enclave(&spec, &EnclaveConfig::default()).unwrap();
            enclave
                .register_ecall("ecall_io", |ctx, _| {
                    ctx.ocall("ocall_io", &mut CallData::default())
                })
                .unwrap();
            enclave
        })
        .collect();
    let left = Arc::new(std::sync::Mutex::new(Vec::new()));
    let sink = Arc::clone(&left);
    let mut builder = OcallTableBuilder::new(enclaves[0].spec());
    builder
        .register("ocall_io", move |host, _| {
            sink.lock().unwrap().push(host.enclave_id().0);
            Ok(())
        })
        .unwrap();
    let table = Arc::new(builder.build().unwrap());
    let logger = Logger::attach(&rt, LoggerConfig::default());
    for enclave in &enclaves {
        rt.ecall(
            &ThreadCtx::main(),
            enclave.id(),
            "ecall_io",
            &table,
            &mut CallData::default(),
        )
        .unwrap();
    }
    let trace = logger.finish();
    let ids: Vec<u32> = enclaves.iter().map(|e| e.id().0).collect();
    assert_eq!(*left.lock().unwrap(), ids);
    let rows: Vec<u32> = trace.ocalls.iter().map(|o| o.enclave).collect();
    assert_eq!(rows, ids);
}

/// `ThreadCtx`'s fields are public, so every token is legal: the logger's
/// per-thread storage takes `usize::MAX` without sizing anything by it.
#[test]
fn a_thread_token_of_usize_max_is_recorded_with_its_parents() {
    let app = app(HwProfile::Unpatched);
    let logger = Logger::attach(&app.rt, LoggerConfig::default());
    let tcx = ThreadCtx {
        token: ThreadToken(usize::MAX),
        sim: None,
    };
    app.rt
        .ecall(
            &tcx,
            app.enclave.id(),
            "ecall_io",
            &app.table,
            &mut CallData::default(),
        )
        .unwrap();
    let trace = logger.finish();
    let ecalls: Vec<_> = trace.ecalls.iter().collect();
    let ocalls: Vec<_> = trace.ocalls.iter().collect();
    assert_eq!((ecalls.len(), ocalls.len()), (1, 1));
    assert_eq!(ecalls[0].thread, usize::MAX as u64);
    assert_eq!(ecalls[0].parent_ocall, None);
    assert_eq!(ocalls[0].thread, usize::MAX as u64);
    assert_eq!(ocalls[0].parent_ecall, Some(0));
}

/// Enclaves created one after another from equal interfaces share one
/// effective interface (a supervisor rebuild included); the symbols the
/// logger records of each enclave are still its whole interface.
#[test]
fn enclaves_from_equal_interfaces_share_one() {
    const EDL: &str = "enclave { trusted { public void ecall_noop(); }; };";
    const OTHER: &str =
        "enclave { trusted { public void ecall_noop(); public void ecall_more(); }; };";
    let machine = Arc::new(Machine::new(Clock::new(), HwProfile::Unpatched));
    let rt = Runtime::new(machine);
    let create = |rt: &Arc<Runtime>, edl: &str| {
        let spec = sgx_edl::parse(edl).map_err(|e| sgx_sdk::SdkError::Interface(e.to_string()))?;
        let enclave = rt.create_enclave(&spec, &EnclaveConfig::default())?;
        enclave.register_ecall("ecall_noop", |_, _| Ok(()))?;
        Ok(enclave)
    };
    let logger = Logger::attach(&rt, LoggerConfig::default());
    // Each enclave parses its own copy: equality, not identity, shares.
    let a = create(&rt, EDL).unwrap();
    let b = create(&rt, EDL).unwrap();
    assert!(std::ptr::eq(a.spec(), b.spec()));
    let other = create(&rt, OTHER).unwrap();
    assert!(!std::ptr::eq(a.spec(), other.spec()));
    let sup = Supervisor::launch(&rt, SupervisorConfig::default(), move |rt| {
        create(rt, OTHER)
    })
    .unwrap();
    let lost = sup.enclave();
    assert!(std::ptr::eq(lost.spec(), other.spec()));

    let tcx = ThreadCtx::main();
    let table = Arc::new(OcallTableBuilder::new(a.spec()).build().unwrap());
    for enclave in [&a, &b, &other] {
        rt.ecall(
            &tcx,
            enclave.id(),
            "ecall_noop",
            &table,
            &mut CallData::default(),
        )
        .unwrap();
    }
    let plan: FaultPlan = "enclave_lost@call=1".parse().unwrap();
    rt.machine().set_fault_plan(Some(&plan));
    sup.ecall(&tcx, "ecall_noop", &table, &mut CallData::default())
        .unwrap();
    let rebuilt = sup.enclave();
    assert_eq!(sup.restarts(), 1);
    assert_ne!(rebuilt.id(), lost.id());
    assert!(std::ptr::eq(rebuilt.spec(), other.spec()));

    let trace = logger.finish();
    for enclave in [&a, &b, &other, &lost, &rebuilt] {
        let spec = enclave.spec();
        let declared: Vec<(bool, u32, &str)> = spec
            .ecalls()
            .iter()
            .map(|e| (true, e.index as u32, e.name.as_str()))
            .chain(
                spec.ocalls()
                    .iter()
                    .map(|o| (false, o.index as u32, o.name.as_str())),
            )
            .collect();
        let recorded: Vec<(bool, u32, &str)> = trace
            .symbols
            .iter()
            .filter(|s| s.enclave == enclave.id().0)
            .map(|s| (s.kind_is_ecall, s.index, s.name.as_str()))
            .collect();
        assert_eq!(recorded, declared, "{}", enclave.id());
    }
    // One ecall and four sync ocalls, or two ecalls and four; the lost
    // enclave's symbols were captured at the entry that found it lost.
    assert_eq!(trace.symbols.len(), 5 + 5 + 6 * 3);
}

/// The two rarer sync ocalls (§4.1.3): a fused `setwait` gives its wake
/// row, then its sleep row, and a `set_multiple` gives one wake row per
/// target — each row pointing at the ocall that produced it.
#[test]
fn setwait_and_set_multiple_rows_are_pinned() {
    use sgx_sdk::sync_ocalls as so;
    use sgx_sdk::SgxCondvar;
    use std::sync::atomic::AtomicBool;

    /// Runs `waiters` threads that take the mutex, yield, then wait on the
    /// condvar until released, and one more thread that starts after
    /// `delay`, releases them and signals (or broadcasts). Returns
    /// `(thread, sleep, target_thread)` of every sync row of the first
    /// `ocall`, in insertion order.
    fn sync_rows(
        waiters: usize,
        delay: Nanos,
        broadcast: bool,
        ocall: &str,
    ) -> Vec<(u64, bool, Option<u64>)> {
        let machine = Arc::new(Machine::new(Clock::new(), HwProfile::Unpatched));
        let rt = Runtime::new(machine);
        let spec = sgx_edl::parse(
            "enclave { trusted { public void ecall_wait(); public void ecall_wake(); }; };",
        )
        .unwrap();
        let config = EnclaveConfig {
            tcs_count: 3,
            ..EnclaveConfig::default()
        };
        let enclave = rt.create_enclave(&spec, &config).unwrap();
        let mutex = Arc::new(SgxThreadMutex::new());
        let cv = Arc::new(SgxCondvar::new());
        let go = Arc::new(AtomicBool::new(false));
        {
            let (mutex, cv, go) = (Arc::clone(&mutex), Arc::clone(&cv), Arc::clone(&go));
            enclave
                .register_ecall("ecall_wait", move |ctx, _| {
                    mutex.lock(ctx)?;
                    if let Some(sim) = ctx.thread().sim {
                        sim.yield_now();
                    }
                    while !go.load(Ordering::SeqCst) {
                        cv.wait(ctx, &mutex)?;
                    }
                    mutex.unlock(ctx)
                })
                .unwrap();
        }
        enclave
            .register_ecall("ecall_wake", move |ctx, _| {
                mutex.lock(ctx)?;
                go.store(true, Ordering::SeqCst);
                if broadcast {
                    cv.broadcast(ctx)?;
                } else {
                    cv.signal(ctx)?;
                }
                mutex.unlock(ctx)
            })
            .unwrap();
        let table = Arc::new(OcallTableBuilder::new(enclave.spec()).build().unwrap());
        let logger = Logger::attach(&rt, LoggerConfig::default());
        let sim = Simulation::new(rt.machine().clock().clone());
        let names = std::iter::repeat_n("ecall_wait", waiters).chain(["ecall_wake"]);
        for (i, name) in names.enumerate() {
            let (rt, table, eid) = (Arc::clone(&rt), Arc::clone(&table), enclave.id());
            let start = if i == waiters { delay } else { Nanos::ZERO };
            sim.spawn(name, move |ctx| {
                if start > Nanos::ZERO {
                    ctx.sleep(start);
                }
                let tcx = ThreadCtx::from_sim(ctx);
                rt.ecall(&tcx, eid, name, &table, &mut CallData::default())
                    .unwrap();
            });
        }
        sim.run();
        let trace = logger.finish();
        let index = enclave.spec().ocall_by_name(ocall).unwrap().index as u32;
        let row = trace
            .ocalls
            .iter()
            .position(|o| o.call_index == index)
            .expect("the ocall was traced") as u64;
        trace
            .sync
            .iter()
            .filter(|s| s.ocall_row == row)
            .map(|s| (s.thread, s.sleep, s.target_thread))
            .collect()
    }

    // Thread 0 holds the mutex while thread 1 queues on it, then waits on
    // the condvar: releasing the mutex wakes thread 1, so the wake and the
    // sleep travel in one setwait.
    assert_eq!(
        sync_rows(1, Nanos::ZERO, false, so::SETWAIT),
        [(0, false, Some(1)), (0, true, None)]
    );
    // One broadcast over two parked waiters wakes both with one ocall.
    assert_eq!(
        sync_rows(2, Nanos::from_millis(1), true, so::SET_MULTIPLE),
        [(2, false, Some(0)), (2, false, Some(1))]
    );
}
