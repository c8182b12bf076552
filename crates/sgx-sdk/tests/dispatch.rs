//! End-to-end tests of the simulated SDK call paths.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use sgx_sdk::{
    CallData, EcallDispatcher, OcallTable, OcallTableBuilder, Runtime, SdkError, SgxThreadMutex,
    SwitchlessConfig, ThreadCtx,
};
use sgx_sim::{DriverEvent, EnclaveConfig, EnclaveId, Machine};
use sim_core::fault::FaultPlan;
use sim_core::sync::Mutex;
use sim_core::{Clock, HwProfile, Nanos};
use sim_threads::Simulation;

fn runtime() -> Arc<Runtime> {
    let machine = Arc::new(Machine::new(Clock::new(), HwProfile::Unpatched));
    Runtime::new(machine)
}

#[test]
fn empty_ecall_costs_4205ns() {
    // Table 2, experiment (1): a single empty SDK ecall takes 4,205 ns.
    let rt = runtime();
    let spec = sgx_edl::parse("enclave { trusted { public void ecall_empty(); }; };").unwrap();
    let enclave = rt.create_enclave(&spec, &EnclaveConfig::default()).unwrap();
    enclave
        .register_ecall("ecall_empty", |_, _| Ok(()))
        .unwrap();
    let table = Arc::new(OcallTableBuilder::new(enclave.spec()).build().unwrap());
    let tcx = ThreadCtx::main();

    let before = rt.machine().clock().now();
    rt.ecall(
        &tcx,
        enclave.id(),
        "ecall_empty",
        &table,
        &mut CallData::default(),
    )
    .unwrap();
    let elapsed = rt.machine().clock().now() - before;
    assert_eq!(elapsed, Nanos::from_nanos(4_205));
}

#[test]
fn ecall_with_one_ocall_costs_8013ns() {
    // Table 2, experiment (2): ecall + one empty ocall = 8,013 ns.
    let rt = runtime();
    let spec = sgx_edl::parse(
        "enclave { trusted { public void ecall_outer(); };
                   untrusted { void ocall_inner(); }; };",
    )
    .unwrap();
    let enclave = rt.create_enclave(&spec, &EnclaveConfig::default()).unwrap();
    enclave
        .register_ecall("ecall_outer", |ctx, _| {
            ctx.ocall("ocall_inner", &mut CallData::default())
        })
        .unwrap();
    let mut builder = OcallTableBuilder::new(enclave.spec());
    builder.register("ocall_inner", |_, _| Ok(())).unwrap();
    let table = Arc::new(builder.build().unwrap());
    let tcx = ThreadCtx::main();

    let before = rt.machine().clock().now();
    rt.ecall(
        &tcx,
        enclave.id(),
        "ecall_outer",
        &table,
        &mut CallData::default(),
    )
    .unwrap();
    let elapsed = rt.machine().clock().now() - before;
    assert_eq!(elapsed, Nanos::from_nanos(8_013));
}

#[test]
fn transition_costs_scale_with_hw_profile() {
    let mut totals = Vec::new();
    for profile in HwProfile::ALL {
        let machine = Arc::new(Machine::new(Clock::new(), profile));
        let rt = Runtime::new(machine);
        let spec = sgx_edl::parse("enclave { trusted { public void ecall_empty(); }; };").unwrap();
        let enclave = rt.create_enclave(&spec, &EnclaveConfig::default()).unwrap();
        enclave
            .register_ecall("ecall_empty", |_, _| Ok(()))
            .unwrap();
        let table = Arc::new(OcallTableBuilder::new(enclave.spec()).build().unwrap());
        let before = rt.machine().clock().now();
        rt.ecall(
            &ThreadCtx::main(),
            enclave.id(),
            "ecall_empty",
            &table,
            &mut CallData::default(),
        )
        .unwrap();
        totals.push(rt.machine().clock().now() - before);
    }
    assert!(totals[0] < totals[1] && totals[1] < totals[2], "{totals:?}");
}

#[test]
fn marshalling_cost_scales_with_buffer_size() {
    let rt = runtime();
    let spec = sgx_edl::parse(
        "enclave { trusted { public void ecall_buf([in, size=len] char* buf, size_t len); }; };",
    )
    .unwrap();
    let enclave = rt.create_enclave(&spec, &EnclaveConfig::default()).unwrap();
    enclave.register_ecall("ecall_buf", |_, _| Ok(())).unwrap();
    let table = Arc::new(OcallTableBuilder::new(enclave.spec()).build().unwrap());
    let tcx = ThreadCtx::main();

    let t0 = rt.machine().clock().now();
    rt.ecall(
        &tcx,
        enclave.id(),
        "ecall_buf",
        &table,
        &mut CallData::default(),
    )
    .unwrap();
    let small = rt.machine().clock().now() - t0;
    let t1 = rt.machine().clock().now();
    rt.ecall(
        &tcx,
        enclave.id(),
        "ecall_buf",
        &table,
        &mut CallData::default().with_in_bytes(1 << 20),
    )
    .unwrap();
    let big = rt.machine().clock().now() - t1;
    assert!(big > small, "big {big} <= small {small}");
}

#[test]
fn private_ecall_rejected_from_application() {
    let rt = runtime();
    let spec = sgx_edl::parse(
        "enclave { trusted { public void front(); void secret(); };
                   untrusted { void helper() allow(secret); }; };",
    )
    .unwrap();
    let enclave = rt.create_enclave(&spec, &EnclaveConfig::default()).unwrap();
    enclave.register_ecall("front", |_, _| Ok(())).unwrap();
    enclave.register_ecall("secret", |_, _| Ok(())).unwrap();
    let mut builder = OcallTableBuilder::new(enclave.spec());
    builder.register("helper", |_, _| Ok(())).unwrap();
    let table = Arc::new(builder.build().unwrap());

    let err = rt
        .ecall(
            &ThreadCtx::main(),
            enclave.id(),
            "secret",
            &table,
            &mut CallData::default(),
        )
        .unwrap_err();
    assert!(matches!(err, SdkError::PrivateEcall(name) if name == "secret"));
}

#[test]
fn private_ecall_allowed_from_allowing_ocall() {
    let rt = runtime();
    let spec = sgx_edl::parse(
        "enclave { trusted { public void front(); void secret(); };
                   untrusted { void helper() allow(secret); }; };",
    )
    .unwrap();
    let enclave = rt.create_enclave(&spec, &EnclaveConfig::default()).unwrap();
    let secret_ran = Arc::new(AtomicUsize::new(0));
    let sr = Arc::clone(&secret_ran);
    enclave
        .register_ecall("front", |ctx, _| {
            ctx.ocall("helper", &mut CallData::default())
        })
        .unwrap();
    enclave
        .register_ecall("secret", move |_, _| {
            sr.fetch_add(1, Ordering::SeqCst);
            Ok(())
        })
        .unwrap();
    let mut builder = OcallTableBuilder::new(enclave.spec());
    builder
        .register("helper", |host, _| {
            host.ecall("secret", &mut CallData::default())
        })
        .unwrap();
    let table = Arc::new(builder.build().unwrap());
    rt.ecall(
        &ThreadCtx::main(),
        enclave.id(),
        "front",
        &table,
        &mut CallData::default(),
    )
    .unwrap();
    assert_eq!(secret_ran.load(Ordering::SeqCst), 1);
}

#[test]
fn nested_ecall_outside_allow_list_rejected() {
    let rt = runtime();
    let spec = sgx_edl::parse(
        "enclave { trusted { public void front(); public void other(); };
                   untrusted { void helper(); }; };",
    )
    .unwrap();
    let enclave = rt.create_enclave(&spec, &EnclaveConfig::default()).unwrap();
    enclave
        .register_ecall("front", |ctx, _| {
            ctx.ocall("helper", &mut CallData::default())
        })
        .unwrap();
    enclave.register_ecall("other", |_, _| Ok(())).unwrap();
    let mut builder = OcallTableBuilder::new(enclave.spec());
    builder
        .register("helper", |host, _| {
            host.ecall("other", &mut CallData::default())
        })
        .unwrap();
    let table = Arc::new(builder.build().unwrap());
    let err = rt
        .ecall(
            &ThreadCtx::main(),
            enclave.id(),
            "front",
            &table,
            &mut CallData::default(),
        )
        .unwrap_err();
    assert!(
        matches!(&err, SdkError::EcallNotAllowed { ecall, ocall }
            if ecall == "other" && ocall == "helper"),
        "{err}"
    );
}

#[test]
fn tcs_exhaustion_reported() {
    // One TCS, two logical threads entering concurrently: the second one
    // must get SGX_ERROR_OUT_OF_TCS while the first is inside.
    let machine = Arc::new(Machine::new(Clock::new(), HwProfile::Unpatched));
    let rt = Runtime::new(machine);
    let spec = sgx_edl::parse(
        "enclave { trusted { public void ecall_block(); };
                   untrusted { void ocall_pause(); }; };",
    )
    .unwrap();
    let config = EnclaveConfig {
        tcs_count: 1,
        ..EnclaveConfig::default()
    };
    let enclave = rt.create_enclave(&spec, &config).unwrap();
    enclave
        .register_ecall("ecall_block", |ctx, _| {
            ctx.ocall("ocall_pause", &mut CallData::default())
        })
        .unwrap();
    let mut builder = OcallTableBuilder::new(enclave.spec());
    builder
        .register("ocall_pause", |host, _| {
            // While thread 0 is inside the enclave (in an ocall frame,
            // TCS still bound), yield so thread 1 tries to enter.
            if let Some(sim) = host.thread.sim {
                sim.yield_now();
            }
            Ok(())
        })
        .unwrap();
    let table = Arc::new(builder.build().unwrap());

    let sim = Simulation::new(rt.machine().clock().clone());
    let errors: Arc<Mutex<Vec<SdkError>>> = Arc::new(Mutex::new(Vec::new()));
    for _ in 0..2 {
        let rt = Arc::clone(&rt);
        let table = Arc::clone(&table);
        let errors = Arc::clone(&errors);
        let eid = enclave.id();
        sim.spawn("caller", move |ctx| {
            let tcx = ThreadCtx::from_sim(ctx);
            if let Err(e) = rt.ecall(&tcx, eid, "ecall_block", &table, &mut CallData::default()) {
                errors.lock().push(e);
            }
        });
    }
    sim.run();
    let errs = errors.lock();
    assert_eq!(errs.len(), 1, "{errs:?}");
    assert!(matches!(errs[0], SdkError::OutOfTcs(_)));
}

#[test]
fn contended_mutex_issues_sleep_and_wake_ocalls() {
    // §2.3.2: a contended lock costs two ocalls (sleep by the waiter, wake
    // by the holder). Count sync ocalls through an interposed table.
    let machine = Arc::new(Machine::new(Clock::new(), HwProfile::Unpatched));
    let rt = Runtime::new(machine);
    let spec = sgx_edl::parse("enclave { trusted { public void ecall_work(); }; };").unwrap();
    let config = EnclaveConfig {
        tcs_count: 2,
        ..EnclaveConfig::default()
    };
    let enclave = rt.create_enclave(&spec, &config).unwrap();
    let mutex = Arc::new(SgxThreadMutex::new());
    let m2 = Arc::clone(&mutex);
    enclave
        .register_ecall("ecall_work", move |ctx, _| {
            let path = m2.lock(ctx)?;
            let _ = path;
            // Hold the lock across a yield so the other thread contends.
            if let Some(sim) = ctx.thread().sim {
                sim.yield_now();
            }
            ctx.compute(Nanos::from_micros(2))?;
            m2.unlock(ctx)?;
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
    for _ in 0..2 {
        let rt = Arc::clone(&rt);
        let table = Arc::clone(&table);
        let eid = enclave.id();
        sim.spawn("worker", move |ctx| {
            let tcx = ThreadCtx::from_sim(ctx);
            rt.ecall(&tcx, eid, "ecall_work", &table, &mut CallData::default())
                .unwrap();
        });
    }
    sim.run();
    // Exactly one contention: one sleep + one wake.
    assert_eq!(sync_count.load(Ordering::SeqCst), 2);
}

#[test]
fn preloaded_interposer_sees_every_ecall() {
    struct CountingShim {
        next: Arc<dyn EcallDispatcher>,
        count: Arc<AtomicUsize>,
    }
    impl EcallDispatcher for CountingShim {
        fn sgx_ecall(
            &self,
            tcx: &ThreadCtx<'_>,
            eid: EnclaveId,
            index: usize,
            table: &Arc<OcallTable>,
            data: &mut CallData,
        ) -> Result<(), SdkError> {
            self.count.fetch_add(1, Ordering::SeqCst);
            self.next.sgx_ecall(tcx, eid, index, table, data)
        }
    }

    let rt = runtime();
    let spec = sgx_edl::parse("enclave { trusted { public void ecall_x(); }; };").unwrap();
    let enclave = rt.create_enclave(&spec, &EnclaveConfig::default()).unwrap();
    enclave.register_ecall("ecall_x", |_, _| Ok(())).unwrap();
    let table = Arc::new(OcallTableBuilder::new(enclave.spec()).build().unwrap());

    let count = Arc::new(AtomicUsize::new(0));
    let c2 = Arc::clone(&count);
    rt.loader()
        .preload(move |next| Arc::new(CountingShim { next, count: c2 }));

    let tcx = ThreadCtx::main();
    for _ in 0..5 {
        rt.ecall(
            &tcx,
            enclave.id(),
            "ecall_x",
            &table,
            &mut CallData::default(),
        )
        .unwrap();
    }
    assert_eq!(count.load(Ordering::SeqCst), 5);
}

#[test]
fn unregistered_ecall_is_reported() {
    let rt = runtime();
    let spec = sgx_edl::parse("enclave { trusted { public void ecall_missing(); }; };").unwrap();
    let enclave = rt.create_enclave(&spec, &EnclaveConfig::default()).unwrap();
    let table = Arc::new(OcallTableBuilder::new(enclave.spec()).build().unwrap());
    let err = rt
        .ecall(
            &ThreadCtx::main(),
            enclave.id(),
            "ecall_missing",
            &table,
            &mut CallData::default(),
        )
        .unwrap_err();
    assert!(matches!(err, SdkError::UnregisteredEcall(_)));
}

#[test]
fn destroy_enclave_then_call_fails() {
    let rt = runtime();
    let spec = sgx_edl::parse("enclave { trusted { public void e(); }; };").unwrap();
    let enclave = rt.create_enclave(&spec, &EnclaveConfig::default()).unwrap();
    enclave.register_ecall("e", |_, _| Ok(())).unwrap();
    let table = Arc::new(OcallTableBuilder::new(enclave.spec()).build().unwrap());
    rt.destroy_enclave(enclave.id()).unwrap();
    let err = rt
        .ecall(
            &ThreadCtx::main(),
            enclave.id(),
            "e",
            &table,
            &mut CallData::default(),
        )
        .unwrap_err();
    assert!(matches!(err, SdkError::UnknownEnclave(_)));
}

#[test]
fn long_ecall_takes_timer_aexs() {
    let rt = runtime();
    let spec = sgx_edl::parse("enclave { trusted { public void ecall_long(); }; };").unwrap();
    let enclave = rt.create_enclave(&spec, &EnclaveConfig::default()).unwrap();
    let aex = Arc::new(AtomicUsize::new(0));
    let a2 = Arc::clone(&aex);
    enclave
        .register_ecall("ecall_long", move |ctx, _| {
            let n = ctx.compute(Nanos::from_micros(45_377))?;
            a2.store(n as usize, Ordering::SeqCst);
            Ok(())
        })
        .unwrap();
    let table = Arc::new(OcallTableBuilder::new(enclave.spec()).build().unwrap());
    rt.ecall(
        &ThreadCtx::main(),
        enclave.id(),
        "ecall_long",
        &table,
        &mut CallData::default(),
    )
    .unwrap();
    let n = aex.load(Ordering::SeqCst);
    assert!((11..=12).contains(&n), "AEX count {n}");
}

#[test]
fn multiple_preloads_stack_in_lifo_order() {
    // Like LD_PRELOAD with two libraries: the most recently preloaded
    // interposer resolves first and forwards to the previous one.
    struct TagShim {
        next: Arc<dyn EcallDispatcher>,
        tag: &'static str,
        log: Arc<Mutex<Vec<&'static str>>>,
    }
    impl EcallDispatcher for TagShim {
        fn sgx_ecall(
            &self,
            tcx: &ThreadCtx<'_>,
            eid: sgx_sim::EnclaveId,
            index: usize,
            table: &Arc<OcallTable>,
            data: &mut CallData,
        ) -> Result<(), SdkError> {
            self.log.lock().push(self.tag);
            self.next.sgx_ecall(tcx, eid, index, table, data)
        }
    }

    let rt = runtime();
    let spec = sgx_edl::parse("enclave { trusted { public void e(); }; };").unwrap();
    let enclave = rt.create_enclave(&spec, &EnclaveConfig::default()).unwrap();
    enclave.register_ecall("e", |_, _| Ok(())).unwrap();
    let table = Arc::new(OcallTableBuilder::new(enclave.spec()).build().unwrap());

    let log: Arc<Mutex<Vec<&'static str>>> = Arc::new(Mutex::new(Vec::new()));
    for tag in ["first", "second"] {
        let log = Arc::clone(&log);
        rt.loader()
            .preload(move |next| Arc::new(TagShim { next, tag, log }));
    }
    rt.ecall(
        &ThreadCtx::main(),
        enclave.id(),
        "e",
        &table,
        &mut CallData::default(),
    )
    .unwrap();
    assert_eq!(log.lock().as_slice(), &["second", "first"]);
}

#[test]
fn an_ecall_keeps_its_first_trusted_function() {
    let rt = runtime();
    let spec = sgx_edl::parse("enclave { trusted { public void e(); }; };").unwrap();
    let enclave = rt.create_enclave(&spec, &EnclaveConfig::default()).unwrap();
    enclave
        .register_ecall("e", |_, data| {
            data.ret = 1;
            Ok(())
        })
        .unwrap();
    let again = enclave.register_ecall("e", |_, data| {
        data.ret = 2;
        Ok(())
    });
    assert_eq!(
        again,
        Err(SdkError::EcallAlreadyRegistered("e".to_string()))
    );
    assert!(matches!(
        enclave.register_ecall("nope", |_, _| Ok(())),
        Err(SdkError::BadEcall(_))
    ));
    let table = Arc::new(OcallTableBuilder::new(enclave.spec()).build().unwrap());
    let mut data = CallData::default();
    rt.ecall(&ThreadCtx::main(), enclave.id(), "e", &table, &mut data)
        .unwrap();
    assert_eq!(data.ret, 1, "the first registration stays");
}

#[test]
fn switchless_is_enabled_once_per_enclave() {
    let rt = runtime();
    let spec = sgx_edl::parse("enclave { trusted { public void e(); }; };").unwrap();
    let enclave = rt.create_enclave(&spec, &EnclaveConfig::default()).unwrap();
    let first = rt
        .enable_switchless(enclave.id(), SwitchlessConfig::default())
        .unwrap();
    let again = rt.enable_switchless(enclave.id(), SwitchlessConfig::default());
    assert_eq!(
        again.map(|_| ()),
        Err(SdkError::SwitchlessAlreadyEnabled(enclave.id()))
    );
    let installed = enclave.switchless().expect("the first one stays");
    assert!(Arc::ptr_eq(installed, &first));
    // Another enclave of the same runtime takes its own.
    let other = rt.create_enclave(&spec, &EnclaveConfig::default()).unwrap();
    rt.enable_switchless(other.id(), SwitchlessConfig::default())
        .unwrap();
}

/// The EENTER gate rejects a lost enclave before any transition cost is
/// charged, and the interface rules are checked before the gate.
#[test]
fn the_eenter_gate_rejects_lost_and_poisoned_enclaves_after_the_interface_rules() {
    let rt = runtime();
    let spec = sgx_edl::parse(
        "enclave { trusted { public void e(); public void unset(); void p(); }; \
         untrusted { void o() allow(p); }; };",
    )
    .unwrap();
    let tcx = ThreadCtx::main();
    let call = |eid: EnclaveId, name: &str, table: &Arc<OcallTable>| {
        rt.ecall(&tcx, eid, name, table, &mut CallData::default())
    };
    let build = || {
        let enclave = rt.create_enclave(&spec, &EnclaveConfig::default()).unwrap();
        enclave.register_ecall("e", |_, _| Ok(())).unwrap();
        enclave.register_ecall("p", |_, _| Ok(())).unwrap();
        let mut tb = OcallTableBuilder::new(enclave.spec());
        tb.register("o", |_, _| Ok(())).unwrap();
        (enclave.id(), Arc::new(tb.build().unwrap()))
    };
    let machine = Arc::clone(rt.machine());

    // A loss at the first entry fails that entry and every later one.
    let (eid, table) = build();
    machine.set_fault_plan(Some(&"enclave_lost@call=1".parse::<FaultPlan>().unwrap()));
    let before = machine.clock().now();
    assert_eq!(call(eid, "e", &table), Err(SdkError::EnclaveLost(eid)));
    assert_eq!(machine.clock().now(), before, "no transition is charged");
    assert_eq!(call(eid, "e", &table), Err(SdkError::EnclaveLost(eid)));
    // Calls that break an interface rule too report the rule.
    assert_eq!(
        call(eid, "p", &table),
        Err(SdkError::PrivateEcall("p".to_string()))
    );
    assert_eq!(
        call(eid, "unset", &table),
        Err(SdkError::UnregisteredEcall("unset".to_string()))
    );
    assert_eq!(
        rt.ecall_index(&tcx, eid, 99, &table, &mut CallData::default()),
        Err(SdkError::BadEcall("#99".to_string()))
    );

    // A poisoning entry succeeds; the next one finds the enclave lost.
    let (eid, table) = build();
    machine.set_fault_plan(Some(&"epc_poison@call=1".parse::<FaultPlan>().unwrap()));
    call(eid, "e", &table).unwrap();
    let before = machine.clock().now();
    assert_eq!(call(eid, "e", &table), Err(SdkError::EnclaveLost(eid)));
    assert_eq!(machine.clock().now(), before);
    assert_eq!(
        call(eid, "p", &table),
        Err(SdkError::PrivateEcall("p".to_string()))
    );
}

/// FNV-1a 64 of `text`.
fn fnv1a(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3)
    })
}

/// Every `DriverEvent` of ecalls whose TCS page, stack page or both are
/// evicted, or whose pages have stripped MMU permissions (the
/// working-set estimator's path). The digest is that of two separate
/// page touches, which EENTER's one-lock path must reproduce.
#[test]
fn entry_page_faults_and_access_faults_keep_their_event_stream() {
    let machine = Arc::new(Machine::with_params(
        Clock::new(),
        HwProfile::Unpatched,
        sgx_sim::MachineParams {
            epc_pages: 96,
            eviction: sgx_sim::EvictionPolicy::Lru,
            ..sgx_sim::MachineParams::default()
        },
    ));
    let rt = Runtime::new(Arc::clone(&machine));
    let spec = sgx_edl::parse("enclave { trusted { public void e(); }; };").unwrap();
    let config = EnclaveConfig {
        heap_kib: 64,
        tcs_count: 2,
        ..EnclaveConfig::default()
    };
    let enclave = rt.create_enclave(&spec, &config).unwrap();
    enclave
        .register_ecall("e", |ctx, _| ctx.compute(Nanos::from_micros(1)).map(drop))
        .unwrap();
    let table = Arc::new(OcallTableBuilder::new(enclave.spec()).build().unwrap());
    let eid = enclave.id();
    let layout = sgx_sim::EnclaveLayout::new(&config);
    let total = layout.total_pages();
    // The main thread binds TCS 0.
    let (tcs, stack) = (
        layout.thread_pages()[0].tcs,
        layout.thread_pages()[0].stack.start,
    );
    let events = Arc::new(Mutex::new(Vec::new()));
    let sink = Arc::clone(&events);
    machine.add_driver_hook(Arc::new(move |ev: &DriverEvent| sink.lock().push(*ev)));
    let faults = Arc::new(Mutex::new(Vec::new()));
    let seen = Arc::clone(&faults);
    // What one ecall emits.
    let ecall = || {
        events.lock().clear();
        rt.ecall(
            &ThreadCtx::main(),
            eid,
            "e",
            &table,
            &mut CallData::default(),
        )
        .unwrap();
        std::mem::take(&mut *events.lock())
    };
    let all_but = |skip: usize| {
        machine.evict_all(eid).unwrap();
        machine.prefetch(eid, 0..skip).unwrap();
        machine.prefetch(eid, skip + 1..total).unwrap();
    };

    let mut stream = ecall();
    all_but(tcs);
    stream.extend(ecall());
    all_but(stack);
    stream.extend(ecall());
    machine.evict_all(eid).unwrap();
    stream.extend(ecall());
    machine.set_mmu_fault_handler(Some(Arc::new(move |f| seen.lock().push(f.page_index))));
    machine.strip_mmu_perms(eid).unwrap();
    stream.extend(ecall());
    machine.strip_mmu_perms(eid).unwrap();
    machine.evict_all(eid).unwrap();
    stream.extend(ecall());
    stream.extend(ecall());

    let rendered = format!("{stream:#?}");
    let got = (
        stream.len(),
        fnv1a(&rendered),
        machine.clock().now().as_nanos(),
    );
    assert_eq!(
        got,
        (18, 0x41a7_8e5a_1368_69a4, 4_157_335),
        "event stream changed; events:\n{rendered}"
    );
    assert_eq!(faults.lock().as_slice(), &[tcs, stack, tcs, stack]);
}
