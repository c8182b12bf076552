//! Enclave-loss recovery: restart/replay supervision.
//!
//! On real hardware a power transition or machine check destroys EPC
//! contents and every subsequent ecall returns `SGX_ERROR_ENCLAVE_LOST`
//! ([`SdkError::EnclaveLost`] here). The SDK's transient-fault machinery
//! (bounded retry + backoff) cannot help: the enclave and all its state
//! are gone. Recovery means *rebuilding* — destroy the dead enclave,
//! create a fresh one from the same recipe, replay the ecalls that
//! re-establish its state, then decide what to do with the call that was
//! interrupted.
//!
//! [`Supervisor`] packages that loop: it wraps a [`Runtime`] plus an
//! enclave build recipe, intercepts [`SdkError::EnclaveLost`] from both
//! the synchronous and the switchless call paths (the switchless rings
//! are drained and poisoned via [`Switchless::shutdown`] before teardown),
//! rebuilds with exponential backoff, replays registered warm-up hooks in
//! registration order, and retries the interrupted ecall according to a
//! per-call [`IdempotencyPolicy`]. A circuit breaker caps the total
//! restart budget: once it trips, the loss surfaces as a clean terminal
//! [`SdkError::RecoveryExhausted`] instead of looping forever.
//!
//! Every stage is emitted to the machine's hooks as a
//! [`DriverEvent::Lifecycle`] ([`sgx_sim::Machine::emit`]), so the logger
//! can reconstruct restart counts and the virtual-time MTTR ledger.

use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;

use sgx_sim::{DriverEvent, EnclaveId};
use sim_core::{LifecycleEvent, LifecycleStage};

use crate::args::CallData;
use crate::enclave::{fault_backoff, Enclave};
use crate::error::{SdkError, SdkResult};
use crate::ocall::OcallTable;
use crate::runtime::Runtime;
use crate::switchless::{Switchless, SwitchlessConfig};
use crate::thread_ctx::ThreadCtx;
use sim_core::sync::Mutex;

/// What the supervisor does with the *interrupted* ecall after a rebuild.
///
/// Warm-up hooks (state re-establishment) are orthogonal: they run on
/// every rebuild except under [`IdempotencyPolicy::Retry`], which is for
/// enclaves whose calls carry all their state with them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IdempotencyPolicy {
    /// Rebuild and retry the call without replaying warm-ups — for
    /// stateless enclaves where re-issuing the call is always safe.
    Retry,
    /// Rebuild (and replay warm-ups, so the application can continue) but
    /// surface [`SdkError::EnclaveLost`] for this call — for calls whose
    /// effects are not idempotent and must not be silently re-applied.
    FailFast,
    /// Rebuild, replay every registered warm-up in registration order,
    /// then retry the call — the default for stateful enclaves.
    ReplayThenRetry,
}

/// Supervisor tuning knobs.
#[derive(Debug, Clone, Copy)]
pub struct SupervisorConfig {
    /// Total restart budget (the circuit breaker): once more than this
    /// many rebuilds have been attempted over the supervisor's lifetime,
    /// recovery stops and [`SdkError::RecoveryExhausted`] surfaces.
    pub max_restarts: u32,
}

impl Default for SupervisorConfig {
    fn default() -> Self {
        SupervisorConfig { max_restarts: 3 }
    }
}

/// An enclave build recipe: everything needed to go from a bare runtime to
/// a fully registered enclave (parse interface, create, register ecalls).
pub type EnclaveRecipe = Arc<dyn Fn(&Arc<Runtime>) -> SdkResult<Arc<Enclave>> + Send + Sync>;

/// A state re-establishment hook, replayed after every rebuild (except
/// under [`IdempotencyPolicy::Retry`]). Receives the thread context, the
/// runtime, the *new* enclave id and the ocall table of the interrupted
/// call.
pub type WarmupFn = Arc<
    dyn Fn(&ThreadCtx<'_>, &Arc<Runtime>, EnclaveId, &Arc<OcallTable>) -> SdkResult<()>
        + Send
        + Sync,
>;

/// A fleet-level restart gate, invoked before every rebuild with the
/// attempt number. A fleet manager installs one shared gate across all its
/// supervisors to throttle restart storms (e.g. advance the virtual clock
/// to enforce a minimum spacing between rebuilds) and to feed its
/// circuit-breaker window. Per-supervisor backoff still applies after the
/// gate runs.
pub type RestartGate = Arc<dyn Fn(u32) + Send + Sync>;

struct SupState {
    enclave: Arc<Enclave>,
    switchless: Option<Arc<Switchless>>,
    restarts: u32,
}

/// Wraps a [`Runtime`] + enclave recipe and keeps the enclave alive across
/// losses. See the [module documentation](self) for the recovery flow.
pub struct Supervisor {
    runtime: Arc<Runtime>,
    recipe: EnclaveRecipe,
    config: SupervisorConfig,
    state: Mutex<SupState>,
    /// The id of `state.enclave`, read without the lock: stored
    /// (`Release`) after the rebuilt enclave is registered with the
    /// runtime and loaded (`Acquire`), so a reader that sees an id finds
    /// its enclave registered.
    live_id: AtomicU32,
    warmups: Mutex<Vec<(String, WarmupFn)>>,
    restart_gate: Mutex<Option<RestartGate>>,
}

impl std::fmt::Debug for Supervisor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let st = self.state.lock();
        f.debug_struct("Supervisor")
            .field("enclave", &st.enclave.id())
            .field("restarts", &st.restarts)
            .field("max_restarts", &self.config.max_restarts)
            .finish()
    }
}

impl Supervisor {
    /// Builds the initial enclave from `recipe` and wraps it.
    ///
    /// # Errors
    ///
    /// Whatever the recipe returns.
    pub fn launch(
        runtime: &Arc<Runtime>,
        config: SupervisorConfig,
        recipe: impl Fn(&Arc<Runtime>) -> SdkResult<Arc<Enclave>> + Send + Sync + 'static,
    ) -> SdkResult<Arc<Supervisor>> {
        let recipe: EnclaveRecipe = Arc::new(recipe);
        let enclave = recipe(runtime)?;
        Ok(Arc::new(Supervisor {
            runtime: Arc::clone(runtime),
            recipe,
            config,
            live_id: AtomicU32::new(enclave.id().0),
            state: Mutex::new(SupState {
                enclave,
                switchless: None,
                restarts: 0,
            }),
            warmups: Mutex::new(Vec::new()),
            restart_gate: Mutex::new(None),
        }))
    }

    /// Installs (or clears) the fleet restart gate. The gate runs on every
    /// rebuild attempt, after the circuit-breaker check and before the
    /// enclave teardown, so a fleet manager can space out restarts across
    /// the whole fleet and account them in its own breaker window.
    pub fn set_restart_gate(&self, gate: Option<RestartGate>) {
        *self.restart_gate.lock() = gate;
    }

    /// The currently live enclave id (changes after every rebuild).
    pub fn enclave_id(&self) -> EnclaveId {
        EnclaveId(self.live_id.load(Ordering::Acquire))
    }

    /// The currently live enclave.
    pub fn enclave(&self) -> Arc<Enclave> {
        Arc::clone(&self.state.lock().enclave)
    }

    /// Rebuilds attempted so far.
    pub fn restarts(&self) -> u32 {
        self.state.lock().restarts
    }

    /// Registers a warm-up hook, replayed after every rebuild in
    /// registration order. `name` labels the hook in logs and errors.
    pub fn register_warmup(
        &self,
        name: &str,
        f: impl Fn(&ThreadCtx<'_>, &Arc<Runtime>, EnclaveId, &Arc<OcallTable>) -> SdkResult<()>
            + Send
            + Sync
            + 'static,
    ) {
        self.warmups.lock().push((name.to_string(), Arc::new(f)));
    }

    /// Enables the switchless subsystem on the live enclave, once per
    /// enclave. The caller still spawns workers
    /// ([`Switchless::spawn_workers`]). After a loss the supervisor shuts
    /// the rings down and recovered calls fall back to the synchronous
    /// path — worker threads cannot be respawned from inside a running
    /// simulation.
    ///
    /// # Errors
    ///
    /// [`SdkError::SwitchlessAlreadyEnabled`] when the live enclave has a
    /// switchless subsystem, and validation errors of the switchless
    /// config.
    pub fn enable_switchless(&self, config: SwitchlessConfig) -> SdkResult<Arc<Switchless>> {
        let eid = self.enclave_id();
        let sw = self.runtime.enable_switchless(eid, config)?;
        self.state.lock().switchless = Some(Arc::clone(&sw));
        Ok(sw)
    }

    /// Detaches the live switchless subsystem, if any — workloads use this
    /// to shut the rings down at the end of a loss-free run. After a loss
    /// the supervisor has already drained and dropped the rings itself, so
    /// this returns `None` and no second shutdown happens.
    pub fn take_switchless(&self) -> Option<Arc<Switchless>> {
        self.state.lock().switchless.take()
    }

    /// Issues an ecall under [`IdempotencyPolicy::ReplayThenRetry`];
    /// other policies go through [`Supervisor::ecall_with_policy`].
    ///
    /// # Errors
    ///
    /// The call's own errors, [`SdkError::EnclaveLost`] under
    /// [`IdempotencyPolicy::FailFast`], or
    /// [`SdkError::RecoveryExhausted`] once the circuit breaker trips.
    pub fn ecall(
        &self,
        tcx: &ThreadCtx<'_>,
        name: &str,
        table: &Arc<OcallTable>,
        data: &mut CallData,
    ) -> SdkResult<()> {
        self.ecall_with_policy(tcx, name, table, data, IdempotencyPolicy::ReplayThenRetry)
    }

    /// Issues an ecall under an explicit per-call idempotency policy,
    /// supervising enclave losses end to end.
    ///
    /// # Errors
    ///
    /// See [`Supervisor::ecall`].
    pub fn ecall_with_policy(
        &self,
        tcx: &ThreadCtx<'_>,
        name: &str,
        table: &Arc<OcallTable>,
        data: &mut CallData,
        policy: IdempotencyPolicy,
    ) -> SdkResult<()> {
        let machine = self.runtime.machine();
        let mut lost_at = None;
        loop {
            let eid = self.enclave_id();
            match self.runtime.ecall(tcx, eid, name, table, data) {
                Err(SdkError::EnclaveLost(_)) => {
                    lost_at.get_or_insert(machine.clock().now());
                    let replay = policy != IdempotencyPolicy::Retry;
                    self.recover(tcx, table, replay)?;
                    if policy == IdempotencyPolicy::FailFast {
                        return Err(SdkError::EnclaveLost(eid));
                    }
                }
                Ok(()) => {
                    if let Some(t0) = lost_at {
                        let attempt = self.restarts();
                        machine.emit(&[DriverEvent::Lifecycle(LifecycleEvent {
                            stage: LifecycleStage::Recovered,
                            enclave: self.enclave_id().0,
                            thread: tcx.token.0 as u64,
                            attempt,
                            magnitude: (machine.clock().now() - t0).as_nanos(),
                            time: machine.clock().now(),
                        })]);
                    }
                    return Ok(());
                }
                other => return other,
            }
        }
    }

    /// One full recovery: backoff, teardown (draining any switchless
    /// rings), rebuild, warm-up replay. Loops internally if the replay
    /// itself finds the fresh enclave lost again; every rebuild counts
    /// against the circuit breaker.
    fn recover(&self, tcx: &ThreadCtx<'_>, table: &Arc<OcallTable>, replay: bool) -> SdkResult<()> {
        let machine = Arc::clone(self.runtime.machine());
        'rebuild: loop {
            let (old_eid, switchless, attempt) = {
                let mut st = self.state.lock();
                st.restarts += 1;
                (st.enclave.id(), st.switchless.take(), st.restarts)
            };
            let event = |stage: LifecycleStage, enclave: u32, magnitude: u64| {
                [DriverEvent::Lifecycle(LifecycleEvent {
                    stage,
                    enclave,
                    thread: tcx.token.0 as u64,
                    attempt,
                    magnitude,
                    time: machine.clock().now(),
                })]
            };
            // Drain the switchless rings first — even when the circuit
            // breaker is about to trip. Workers parked on dead slots must
            // wake and exit (a parked worker would deadlock the scheduler),
            // pending slots resolve to errors instead of hanging callers.
            if let (Some(sw), Some(sim)) = (switchless, tcx.sim) {
                sw.shutdown(sim);
            }
            if attempt > self.config.max_restarts {
                machine.emit(&event(LifecycleStage::GaveUp, old_eid.0, 0));
                return Err(SdkError::RecoveryExhausted {
                    enclave: old_eid,
                    restarts: attempt - 1,
                });
            }
            // Fleet-level throttling: the shared gate may advance the
            // virtual clock to space this rebuild out from other
            // supervisors' rebuilds and records it in the fleet window.
            let gate = self.restart_gate.lock().clone();
            if let Some(gate) = gate {
                gate(attempt);
            }
            self.runtime.destroy_enclave(old_eid)?;
            // Exponential backoff before the rebuild — on real hardware
            // the platform needs time to come back from the transition.
            let backoff = fault_backoff(attempt);
            machine.clock().advance(backoff);
            // Rebuild from the recipe.
            let rebuild_start = machine.clock().now();
            let enclave = (self.recipe)(&self.runtime)?;
            let new_eid = enclave.id();
            self.state.lock().enclave = enclave;
            self.live_id.store(new_eid.0, Ordering::Release);
            machine.emit(&event(
                LifecycleStage::Rebuild,
                new_eid.0,
                (machine.clock().now() - rebuild_start).as_nanos(),
            ));
            // Replay warm-ups in registration order.
            if replay {
                let warmups: Vec<(String, WarmupFn)> = self.warmups.lock().clone();
                for (name, hook) in &warmups {
                    let replay_start = machine.clock().now();
                    match hook(tcx, &self.runtime, new_eid, table) {
                        Ok(()) => {}
                        // The fresh enclave was lost during its own warm-up
                        // (a fault plan can poison successive entries):
                        // count another restart and rebuild again.
                        Err(SdkError::EnclaveLost(_)) => continue 'rebuild,
                        Err(other) => {
                            return Err(SdkError::Interface(format!(
                                "warm-up `{name}` failed during recovery: {other}"
                            )))
                        }
                    }
                    machine.emit(&event(
                        LifecycleStage::Replay,
                        new_eid.0,
                        (machine.clock().now() - replay_start).as_nanos(),
                    ));
                }
            }
            machine.emit(&event(LifecycleStage::Retry, new_eid.0, backoff.as_nanos()));
            return Ok(());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ocall::OcallTableBuilder;
    use sgx_sim::{EnclaveConfig, Machine};
    use sim_core::fault::FaultPlan;
    use sim_core::{Clock, HwProfile, Nanos};
    use std::sync::atomic::{AtomicU64, Ordering};

    const EDL: &str =
        "enclave { trusted { public void ecall_init(); public void ecall_work(); }; };";

    fn supervisor_fixture(
        counter: Arc<AtomicU64>,
    ) -> (Arc<Runtime>, Arc<Supervisor>, Arc<OcallTable>) {
        let machine = Arc::new(Machine::new(Clock::new(), HwProfile::Unpatched));
        let runtime = Runtime::new(machine);
        let sup = Supervisor::launch(&runtime, SupervisorConfig::default(), move |rt| {
            let spec = sgx_edl::parse(EDL).map_err(|e| SdkError::Interface(e.to_string()))?;
            let enclave = rt.create_enclave(&spec, &EnclaveConfig::default())?;
            let session = Arc::new(AtomicU64::new(0));
            let s1 = Arc::clone(&session);
            enclave.register_ecall("ecall_init", move |ctx, _| {
                ctx.compute(Nanos::from_micros(2))?;
                s1.store(7, Ordering::SeqCst);
                Ok(())
            })?;
            let s2 = Arc::clone(&session);
            let counter = Arc::clone(&counter);
            enclave.register_ecall("ecall_work", move |ctx, _| {
                ctx.compute(Nanos::from_micros(5))?;
                counter.fetch_add(s2.load(Ordering::SeqCst), Ordering::SeqCst);
                Ok(())
            })?;
            Ok(enclave)
        })
        .unwrap();
        let table = {
            let enclave = sup.enclave();
            Arc::new(OcallTableBuilder::new(enclave.spec()).build().unwrap())
        };
        (Arc::clone(sup.runtime()), sup, table)
    }

    impl Supervisor {
        fn runtime(&self) -> &Arc<Runtime> {
            &self.runtime
        }
    }

    #[test]
    fn recovers_and_replays_state_after_a_loss() {
        let counter = Arc::new(AtomicU64::new(0));
        let (_rt, sup, table) = supervisor_fixture(Arc::clone(&counter));
        sup.register_warmup("init-session", |tcx, rt, eid, table| {
            let mut data = CallData::default();
            rt.ecall(tcx, eid, "ecall_init", table, &mut data)
        });
        let tcx = ThreadCtx::main();
        let mut data = CallData::default();
        // Establish the session, then arm a plan that kills the enclave at
        // the next entry.
        sup.ecall(&tcx, "ecall_init", &table, &mut data).unwrap();
        let plan: FaultPlan = "enclave_lost@call=1;seed=5".parse().unwrap();
        sup.runtime().machine().set_fault_plan(Some(&plan));
        sup.ecall(&tcx, "ecall_work", &table, &mut data).unwrap();
        // The warm-up replayed (session re-established), so the retried
        // call saw session == 7, and exactly one rebuild happened.
        assert_eq!(counter.load(Ordering::SeqCst), 7);
        assert_eq!(sup.restarts(), 1);
        // The supervisor tracks the fresh enclave.
        assert!(!sup.runtime().machine().is_lost(sup.enclave_id()).unwrap());
    }

    #[test]
    fn retry_policy_skips_warmup_replay() {
        let counter = Arc::new(AtomicU64::new(0));
        let (_rt, sup, table) = supervisor_fixture(Arc::clone(&counter));
        sup.register_warmup("init-session", |tcx, rt, eid, table| {
            let mut data = CallData::default();
            rt.ecall(tcx, eid, "ecall_init", table, &mut data)
        });
        let tcx = ThreadCtx::main();
        let mut data = CallData::default();
        sup.ecall(&tcx, "ecall_init", &table, &mut data).unwrap();
        let plan: FaultPlan = "enclave_lost@call=1;seed=5".parse().unwrap();
        sup.runtime().machine().set_fault_plan(Some(&plan));
        sup.ecall_with_policy(
            &tcx,
            "ecall_work",
            &table,
            &mut data,
            IdempotencyPolicy::Retry,
        )
        .unwrap();
        // No replay: the fresh enclave's session stayed 0.
        assert_eq!(counter.load(Ordering::SeqCst), 0);
        assert_eq!(sup.restarts(), 1);
    }

    #[test]
    fn fail_fast_surfaces_the_loss_but_still_rebuilds() {
        let counter = Arc::new(AtomicU64::new(0));
        let (_rt, sup, table) = supervisor_fixture(Arc::clone(&counter));
        let tcx = ThreadCtx::main();
        let mut data = CallData::default();
        let plan: FaultPlan = "enclave_lost@call=1;seed=5".parse().unwrap();
        sup.runtime().machine().set_fault_plan(Some(&plan));
        let err = sup
            .ecall_with_policy(
                &tcx,
                "ecall_work",
                &table,
                &mut data,
                IdempotencyPolicy::FailFast,
            )
            .unwrap_err();
        assert!(matches!(err, SdkError::EnclaveLost(_)));
        // The enclave was still rebuilt, so the application can continue.
        sup.ecall(&tcx, "ecall_work", &table, &mut data).unwrap();
        assert_eq!(sup.restarts(), 1);
    }

    #[test]
    fn circuit_breaker_trips_cleanly() {
        let counter = Arc::new(AtomicU64::new(0));
        let (_rt, sup, table) = supervisor_fixture(Arc::clone(&counter));
        let tcx = ThreadCtx::main();
        let mut data = CallData::default();
        // Every entry loses the enclave: 4 consecutive EENTERs, one more
        // than the default budget of 3 restarts.
        let plan: FaultPlan =
            "enclave_lost@call=1;enclave_lost@call=2;enclave_lost@call=3;enclave_lost@call=4;seed=5"
                .parse()
                .unwrap();
        sup.runtime().machine().set_fault_plan(Some(&plan));
        let err = sup
            .ecall(&tcx, "ecall_work", &table, &mut data)
            .unwrap_err();
        assert_eq!(
            err,
            SdkError::RecoveryExhausted {
                enclave: sup.enclave_id(),
                restarts: 3,
            }
        );
        // The failure is terminal but clean: disarm the plan and the
        // supervisor still cannot silently resurrect — but a fresh call
        // works because the last rebuild never happened. The enclave that
        // remains is the lost one.
        assert!(sup.runtime().machine().is_lost(sup.enclave_id()).unwrap());
    }

    #[test]
    fn restart_gate_runs_before_every_rebuild() {
        let counter = Arc::new(AtomicU64::new(0));
        let (_rt, sup, table) = supervisor_fixture(Arc::clone(&counter));
        let machine = Arc::clone(sup.runtime().machine());
        let gate_hits = Arc::new(sim_core::sync::Mutex::new(Vec::new()));
        let g2 = Arc::clone(&gate_hits);
        let m2 = Arc::clone(&machine);
        sup.set_restart_gate(Some(Arc::new(move |attempt| {
            g2.lock().push(attempt);
            // A fleet gate may space rebuilds out in virtual time.
            m2.clock().advance(Nanos::from_micros(100));
        })));
        let tcx = ThreadCtx::main();
        let mut data = CallData::default();
        let plan: FaultPlan = "enclave_lost@call=1;enclave_lost@call=2;seed=5"
            .parse()
            .unwrap();
        machine.set_fault_plan(Some(&plan));
        let before = machine.clock().now();
        sup.ecall(&tcx, "ecall_work", &table, &mut data).unwrap();
        assert_eq!(gate_hits.lock().as_slice(), &[1, 2]);
        assert!(machine.clock().now() - before >= Nanos::from_micros(200));
        assert_eq!(sup.restarts(), 2);
        // Clearing the gate stops the callbacks.
        sup.set_restart_gate(None);
        let plan: FaultPlan = "enclave_lost@call=1;seed=5".parse().unwrap();
        machine.set_fault_plan(Some(&plan));
        sup.ecall(&tcx, "ecall_work", &table, &mut data).unwrap();
        assert_eq!(gate_hits.lock().len(), 2);
    }

    #[test]
    fn switchless_is_enabled_once_per_live_enclave() {
        let counter = Arc::new(AtomicU64::new(0));
        let (_rt, sup, table) = supervisor_fixture(Arc::clone(&counter));
        sup.enable_switchless(SwitchlessConfig::default()).unwrap();
        let first = sup.enclave_id();
        assert_eq!(
            sup.enable_switchless(SwitchlessConfig::default()).map(drop),
            Err(SdkError::SwitchlessAlreadyEnabled(first))
        );
        // A rebuilt enclave starts without one.
        let plan: FaultPlan = "enclave_lost@call=1;seed=5".parse().unwrap();
        sup.runtime().machine().set_fault_plan(Some(&plan));
        let tcx = ThreadCtx::main();
        sup.ecall(&tcx, "ecall_work", &table, &mut CallData::default())
            .unwrap();
        assert_ne!(sup.enclave_id(), first);
        sup.enable_switchless(SwitchlessConfig::default()).unwrap();
    }

    #[test]
    fn enclave_id_tracks_every_rebuild_under_a_chaos_plan() {
        let counter = Arc::new(AtomicU64::new(0));
        let (_rt, sup, table) = supervisor_fixture(Arc::clone(&counter));
        sup.register_warmup("init-session", |tcx, rt, eid, table| {
            rt.ecall(tcx, eid, "ecall_init", table, &mut CallData::default())
        });
        // At every lifecycle stage after the loss, the mirrored id is the
        // live enclave's, and a rebuild reports it.
        let checks = Arc::new(sim_core::sync::Mutex::new(Vec::new()));
        let sink = Arc::clone(&checks);
        let weak = Arc::downgrade(&sup);
        sup.runtime().machine().add_driver_hook(Arc::new(move |ev| {
            if let (DriverEvent::Lifecycle(ev), Some(sup)) = (ev, weak.upgrade()) {
                let live = sup.enclave().id();
                let rebuilt = ev.stage != LifecycleStage::Rebuild || ev.enclave == live.0;
                sink.lock()
                    .push((ev.stage, sup.enclave_id() == live && rebuilt));
            }
        }));
        let plan: FaultPlan = "enclave_lost@call=2;epc_poison@call=5;enclave_lost@call=11;seed=3"
            .parse()
            .unwrap();
        sup.runtime().machine().set_fault_plan(Some(&plan));
        let tcx = ThreadCtx::main();
        for _ in 0..10 {
            sup.ecall(&tcx, "ecall_work", &table, &mut CallData::default())
                .unwrap();
            assert_eq!(sup.enclave_id(), sup.enclave().id());
        }
        assert_eq!(sup.restarts(), 3);
        let checks = checks.lock();
        let rebuilds = checks
            .iter()
            .filter(|(stage, _)| *stage == LifecycleStage::Rebuild)
            .count();
        assert_eq!(rebuilds, 3);
        assert!(
            checks.iter().all(|&(_, held)| held),
            "lifecycle checks: {checks:?}"
        );
    }

    #[test]
    fn lifecycle_stages_are_reported_in_order() {
        let counter = Arc::new(AtomicU64::new(0));
        let (_rt, sup, table) = supervisor_fixture(Arc::clone(&counter));
        sup.register_warmup("init-session", |tcx, rt, eid, table| {
            let mut data = CallData::default();
            rt.ecall(tcx, eid, "ecall_init", table, &mut data)
        });
        let stages = Arc::new(sim_core::sync::Mutex::new(Vec::new()));
        let s2 = Arc::clone(&stages);
        sup.runtime().machine().add_driver_hook(Arc::new(move |ev| {
            if let DriverEvent::Lifecycle(ev) = ev {
                s2.lock().push((ev.stage, ev.attempt));
            }
        }));
        let tcx = ThreadCtx::main();
        let mut data = CallData::default();
        let plan: FaultPlan = "enclave_lost@call=1;seed=5".parse().unwrap();
        sup.runtime().machine().set_fault_plan(Some(&plan));
        sup.ecall(&tcx, "ecall_work", &table, &mut data).unwrap();
        assert_eq!(
            stages.lock().as_slice(),
            &[
                (LifecycleStage::Lost, 0),
                (LifecycleStage::Rebuild, 1),
                (LifecycleStage::Replay, 1),
                (LifecycleStage::Retry, 1),
                (LifecycleStage::Recovered, 1),
            ]
        );
    }
}
