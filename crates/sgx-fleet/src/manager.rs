//! The fleet manager: multiplexes thousands of logical enclaves over a
//! bounded pool of live ones, with fleet-level recovery policy.

use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use sgx_sdk::supervisor::RestartGate;
use sgx_sdk::{
    CallData, Enclave, OcallTable, OcallTableBuilder, Runtime, SdkResult, Supervisor,
    SupervisorConfig, ThreadCtx,
};
use sgx_sim::{DriverEvent, PagingDirection};
use sim_core::sync::Mutex;
use sim_core::{Clock, IntMap, Nanos};

use crate::policy::FleetPolicy;
use crate::stats::{FleetAggregate, SlotStats};

/// Builds the enclave for one slot: parse the interface, create the
/// enclave, register its ecalls. Invoked on every cold start and — via the
/// slot's supervisor — on every rebuild after a loss.
pub type SlotRecipe = Arc<dyn Fn(&Arc<Runtime>, usize) -> SdkResult<Arc<Enclave>> + Send + Sync>;

/// How the fleet disposed of one request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// The request completed; latency is arrival → completion.
    Completed {
        /// Virtual-time latency including open-loop queueing delay.
        latency: Nanos,
    },
    /// The slot was cold while the fleet circuit breaker was open, so the
    /// request was shed without spinning up an enclave.
    Shed,
}

struct SlotState {
    sup: Option<Arc<Supervisor>>,
    table: Option<Arc<OcallTable>>,
}

struct FleetInner {
    slots: Vec<SlotState>,
    stats: Vec<SlotStats>,
    /// LRU over live slots: stamp -> slot, oldest first (same indexed
    /// scheme as the simulator's EPC — O(log live) victim selection).
    lru: BTreeMap<u64, usize>,
    stamp_of: Vec<Option<u64>>,
    next_stamp: u64,
}

/// What the driver hook needs to charge a paging event to its slot.
struct PagingLedger {
    /// Live enclave id -> slot, kept current across spin-ups and rebuilds.
    eid_to_slot: IntMap<u32, usize>,
    /// Per-slot (page-ins, page-outs).
    counts: Vec<(u64, u64)>,
}

/// State shared with the machine's driver hook and the supervisors'
/// restart gate (both fire while the manager itself is not on the stack).
struct FleetShared {
    clock: Clock,
    /// Behind one lock, so a paging event takes one.
    paging: Mutex<PagingLedger>,
    /// Virtual time of the most recent rebuild (for spacing enforcement).
    last_rebuild: Mutex<Option<Nanos>>,
    /// Rebuild timestamps within the storm window, oldest first.
    restart_log: Mutex<VecDeque<Nanos>>,
    /// When the breaker closes again, if currently open.
    breaker_until: Mutex<Option<Nanos>>,
    breaker_opens: AtomicU64,
    restart_spacing: Nanos,
    storm_window: Nanos,
    storm_threshold: usize,
    breaker_cooldown: Nanos,
}

impl FleetShared {
    /// The restart gate body: throttle, then account the rebuild in the
    /// breaker window.
    fn on_rebuild(&self) {
        {
            let mut last = self.last_rebuild.lock();
            let now = self.clock.now();
            if let Some(prev) = *last {
                let min_next = prev + self.restart_spacing;
                if now < min_next {
                    self.clock.advance_to(min_next);
                }
            }
            *last = Some(self.clock.now());
        }
        let now = self.clock.now();
        let mut log = self.restart_log.lock();
        log.push_back(now);
        while log.front().is_some_and(|&t| now - t > self.storm_window) {
            log.pop_front();
        }
        if log.len() > self.storm_threshold {
            let mut until = self.breaker_until.lock();
            let already_open = until.is_some_and(|t| now < t);
            *until = Some(now + self.breaker_cooldown);
            if !already_open {
                self.breaker_opens.fetch_add(1, Ordering::SeqCst);
            }
        }
    }

    fn breaker_open(&self) -> bool {
        self.breaker_until
            .lock()
            .is_some_and(|t| self.clock.now() < t)
    }
}

/// Multiplexes N logical enclaves ("slots") over at most
/// [`FleetPolicy::live_pool`] live ones, all charging the same simulated
/// EPC. Each live slot is wrapped in a [`Supervisor`] whose rebuilds pass
/// through a shared restart gate — see [`FleetPolicy`] for the throttling
/// and circuit-breaker semantics.
///
/// The manager is driven from a single logical thread (the load-generator
/// thread); its internal locks exist for the driver hook and restart gate,
/// which fire re-entrantly on the same thread but never overlap a held
/// manager lock.
pub struct FleetManager {
    runtime: Arc<Runtime>,
    policy: FleetPolicy,
    recipe: SlotRecipe,
    inner: Mutex<FleetInner>,
    shared: Arc<FleetShared>,
    gate: RestartGate,
}

impl std::fmt::Debug for FleetManager {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = self.inner.lock();
        f.debug_struct("FleetManager")
            .field("slots", &inner.slots.len())
            .field("live", &inner.lru.len())
            .field("live_pool", &self.policy.live_pool)
            .finish()
    }
}

impl FleetManager {
    /// Creates a fleet of `slots` logical enclaves over `runtime`. Installs
    /// a driver hook so per-slot paging is attributed even though enclave
    /// ids change across spin-ups and rebuilds.
    pub fn new(
        runtime: &Arc<Runtime>,
        policy: FleetPolicy,
        slots: usize,
        recipe: impl Fn(&Arc<Runtime>, usize) -> SdkResult<Arc<Enclave>> + Send + Sync + 'static,
    ) -> Arc<FleetManager> {
        assert!(policy.live_pool > 0, "live pool must be positive");
        let clock = runtime.machine().clock().clone();
        let shared = Arc::new(FleetShared {
            clock,
            paging: Mutex::new(PagingLedger {
                eid_to_slot: IntMap::default(),
                counts: vec![(0, 0); slots],
            }),
            last_rebuild: Mutex::new(None),
            restart_log: Mutex::new(VecDeque::new()),
            breaker_until: Mutex::new(None),
            breaker_opens: AtomicU64::new(0),
            restart_spacing: policy.restart_spacing,
            storm_window: policy.storm_window,
            storm_threshold: policy.storm_threshold,
            breaker_cooldown: policy.breaker_cooldown,
        });
        let hook_shared = Arc::clone(&shared);
        runtime.machine().add_driver_hook(Arc::new(move |ev| {
            if let DriverEvent::Paging {
                direction, enclave, ..
            } = ev
            {
                let mut paging = hook_shared.paging.lock();
                if let Some(&slot) = paging.eid_to_slot.get(&enclave.0) {
                    match direction {
                        PagingDirection::In => paging.counts[slot].0 += 1,
                        PagingDirection::Out => paging.counts[slot].1 += 1,
                    }
                }
            }
        }));
        let gate_shared = Arc::clone(&shared);
        let gate: RestartGate = Arc::new(move |_attempt| gate_shared.on_rebuild());
        Arc::new(FleetManager {
            runtime: Arc::clone(runtime),
            policy,
            recipe: Arc::new(recipe),
            inner: Mutex::new(FleetInner {
                slots: (0..slots)
                    .map(|_| SlotState {
                        sup: None,
                        table: None,
                    })
                    .collect(),
                stats: vec![SlotStats::default(); slots],
                lru: BTreeMap::new(),
                stamp_of: vec![None; slots],
                next_stamp: 0,
            }),
            shared,
            gate,
        })
    }

    /// The fleet's runtime.
    pub fn runtime(&self) -> &Arc<Runtime> {
        &self.runtime
    }

    /// Slots currently live.
    pub fn live_count(&self) -> usize {
        self.inner.lock().lru.len()
    }

    /// Whether the fleet circuit breaker is currently open.
    pub fn breaker_open(&self) -> bool {
        self.shared.breaker_open()
    }

    /// How many times the breaker has opened so far.
    pub fn breaker_opens(&self) -> u64 {
        self.shared.breaker_opens.load(Ordering::SeqCst)
    }

    /// Routes one request to `slot`, spinning the enclave up if it is cold
    /// (retiring the least-recently-used live slot when the pool is full).
    /// `arrival` is the request's scheduled arrival time; completed
    /// requests record `now - arrival` as their latency.
    ///
    /// # Errors
    ///
    /// Terminal call errors (e.g. [`sgx_sdk::SdkError::RecoveryExhausted`]); the
    /// failed slot is retired so a later request can respawn it.
    pub fn request(
        &self,
        tcx: &ThreadCtx<'_>,
        slot: usize,
        ecall: &str,
        data: &mut CallData,
        arrival: Nanos,
    ) -> SdkResult<Outcome> {
        let Some((sup, table)) = self.ensure_live(slot)? else {
            self.inner.lock().stats[slot].shed += 1;
            return Ok(Outcome::Shed);
        };
        let eid_before = sup.enclave_id().0;
        match sup.ecall(tcx, ecall, &table, data) {
            Ok(()) => {
                let eid_after = sup.enclave_id().0;
                if eid_after != eid_before {
                    // The supervisor rebuilt mid-call: re-point the paging
                    // attribution at the fresh enclave id.
                    let map = &mut self.shared.paging.lock().eid_to_slot;
                    map.remove(&eid_before);
                    map.insert(eid_after, slot);
                }
                let latency = self.shared.clock.now() - arrival;
                let mut inner = self.inner.lock();
                inner.stats[slot].completed += 1;
                inner.stats[slot].record_latency(latency.as_nanos());
                Ok(Outcome::Completed { latency })
            }
            Err(err) => {
                // Terminal for this incarnation: retire the slot (folding
                // its restart count into the stats) so it can respawn.
                self.retire(slot);
                self.inner.lock().stats[slot].failed += 1;
                Err(err)
            }
        }
    }

    /// Counts a request to `slot` and returns the slot's supervisor and
    /// ocall table, spinning it up if cold. A live slot costs one lock.
    /// `None` means the breaker shed the spin-up.
    #[allow(clippy::type_complexity)]
    fn ensure_live(&self, slot: usize) -> SdkResult<Option<(Arc<Supervisor>, Arc<OcallTable>)>> {
        {
            let mut inner = self.inner.lock();
            inner.stats[slot].requests += 1;
            if inner.slots[slot].sup.is_some() {
                Self::touch_lru(&mut inner, slot);
                let st = &inner.slots[slot];
                return Ok(Some((
                    Arc::clone(st.sup.as_ref().expect("checked live")),
                    Arc::clone(st.table.as_ref().expect("live slot has a table")),
                )));
            }
        }
        // Cold slot: while the breaker is open the fleet sheds instead of
        // spinning up — live enclaves keep serving, dead ones stay down.
        if self.shared.breaker_open() {
            return Ok(None);
        }
        // Make room, then spin up.
        let victim = {
            let inner = self.inner.lock();
            if inner.lru.len() >= self.policy.live_pool {
                inner.lru.iter().next().map(|(_, &s)| s)
            } else {
                None
            }
        };
        if let Some(victim) = victim {
            self.retire(victim);
        }
        let recipe = Arc::clone(&self.recipe);
        let config = SupervisorConfig {
            max_restarts: self.policy.max_restarts_per_enclave,
        };
        let sup = Supervisor::launch(&self.runtime, config, move |rt| recipe(rt, slot))?;
        sup.set_restart_gate(Some(Arc::clone(&self.gate)));
        let table = Arc::new(OcallTableBuilder::new(sup.enclave().spec()).build()?);
        self.shared
            .paging
            .lock()
            .eid_to_slot
            .insert(sup.enclave_id().0, slot);
        let mut inner = self.inner.lock();
        inner.stats[slot].spin_ups += 1;
        inner.slots[slot] = SlotState {
            sup: Some(Arc::clone(&sup)),
            table: Some(Arc::clone(&table)),
        };
        Self::touch_lru(&mut inner, slot);
        Ok(Some((sup, table)))
    }

    fn touch_lru(inner: &mut FleetInner, slot: usize) {
        if let Some(old) = inner.stamp_of[slot].take() {
            inner.lru.remove(&old);
        }
        let stamp = inner.next_stamp;
        inner.next_stamp += 1;
        inner.lru.insert(stamp, slot);
        inner.stamp_of[slot] = Some(stamp);
    }

    /// Tears a live slot down: folds its supervisor's restart count into
    /// the slot stats, destroys the enclave (freeing its EPC pages) and
    /// marks the slot cold.
    fn retire(&self, slot: usize) {
        let sup = {
            let mut inner = self.inner.lock();
            if let Some(stamp) = inner.stamp_of[slot].take() {
                inner.lru.remove(&stamp);
            }
            inner.slots[slot].table = None;
            let sup = inner.slots[slot].sup.take();
            if let Some(sup) = &sup {
                inner.stats[slot].restarts += sup.restarts();
            }
            sup
        };
        if let Some(sup) = sup {
            let eid = sup.enclave_id();
            self.shared.paging.lock().eid_to_slot.remove(&eid.0);
            // A lost enclave is still registered; destroying it frees the
            // id either way. Unknown ids (already destroyed) are fine too.
            let _ = self.runtime.destroy_enclave(eid);
        }
    }

    /// Retires every live slot (end of run), folding restart counts.
    pub fn shutdown(&self) {
        let live: Vec<usize> = self.inner.lock().lru.values().copied().collect();
        for slot in live {
            self.retire(slot);
        }
    }

    /// Per-slot statistics snapshot, including live supervisors' restart
    /// counts and driver-hook paging attribution.
    pub fn snapshot(&self) -> Vec<SlotStats> {
        let inner = self.inner.lock();
        let paging = self.shared.paging.lock();
        let paging = &paging.counts;
        inner
            .stats
            .iter()
            .enumerate()
            .map(|(slot, s)| {
                let mut s = s.clone();
                if let Some(sup) = &inner.slots[slot].sup {
                    s.restarts += sup.restarts();
                }
                s.page_ins = paging[slot].0;
                s.page_outs = paging[slot].1;
                s
            })
            .collect()
    }

    /// Fleet-wide aggregate of [`FleetManager::snapshot`].
    pub fn aggregate(&self) -> FleetAggregate {
        FleetAggregate::from_slots(&self.snapshot(), self.live_count(), self.breaker_opens())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sgx_sdk::SdkError;
    use sgx_sim::{EnclaveConfig, Machine};
    use sim_core::fault::FaultPlan;
    use sim_core::HwProfile;

    const EDL: &str = "enclave { trusted { public void ecall_ping(); }; };";

    fn fleet(
        slots: usize,
        policy: FleetPolicy,
        epc_pages: usize,
    ) -> (Arc<Runtime>, Arc<FleetManager>) {
        let params = sgx_sim::MachineParams {
            epc_pages,
            ..sgx_sim::MachineParams::default()
        };
        let machine = Arc::new(Machine::with_params(
            Clock::new(),
            HwProfile::Unpatched,
            params,
        ));
        let runtime = Runtime::new(machine);
        let mgr = FleetManager::new(&runtime, policy, slots, |rt, _slot| {
            let spec = sgx_edl::parse(EDL).map_err(|e| SdkError::Interface(e.to_string()))?;
            let enclave = rt.create_enclave(
                &spec,
                &EnclaveConfig {
                    code_kib: 4,
                    data_kib: 4,
                    heap_kib: 16,
                    stack_kib: 8,
                    ..EnclaveConfig::default()
                },
            )?;
            enclave.register_ecall("ecall_ping", |ctx, _| {
                ctx.compute(Nanos::from_micros(1))?;
                Ok(())
            })?;
            Ok(enclave)
        });
        (runtime, mgr)
    }

    #[test]
    fn pool_stays_bounded_and_lru_retires_cold_slots() {
        let (_rt, mgr) = fleet(16, FleetPolicy::default(), 4096);
        let tcx = ThreadCtx::main();
        let mut data = CallData::default();
        let small_policy = FleetPolicy {
            live_pool: 4,
            ..FleetPolicy::default()
        };
        let (_rt2, mgr2) = fleet(16, small_policy, 4096);
        for slot in 0..16 {
            let now = mgr2.runtime().machine().clock().now();
            mgr2.request(&tcx, slot, "ecall_ping", &mut data, now)
                .unwrap();
            assert!(mgr2.live_count() <= 4);
        }
        // Slot 0 was retired long ago; re-requesting respins it.
        let now = mgr2.runtime().machine().clock().now();
        mgr2.request(&tcx, 0, "ecall_ping", &mut data, now).unwrap();
        let stats = mgr2.snapshot();
        assert_eq!(stats[0].spin_ups, 2);
        assert_eq!(stats[0].completed, 2);
        drop(mgr);
    }

    #[test]
    fn restart_gate_spaces_rebuilds_and_breaker_stays_closed() {
        let policy = FleetPolicy {
            live_pool: 8,
            restart_spacing: Nanos::from_micros(500),
            storm_window: Nanos::from_millis(5),
            storm_threshold: 16,
            ..FleetPolicy::default()
        };
        let (rt, mgr) = fleet(8, policy, 4096);
        let tcx = ThreadCtx::main();
        let mut data = CallData::default();
        // Warm two slots, then lose an enclave on every third entry.
        for slot in 0..2 {
            let now = rt.machine().clock().now();
            mgr.request(&tcx, slot, "ecall_ping", &mut data, now)
                .unwrap();
        }
        let plan: FaultPlan = "enclave_lost@call=3;enclave_lost@call=6;enclave_lost@call=9;seed=9"
            .parse()
            .unwrap();
        rt.machine().set_fault_plan(Some(&plan));
        for i in 0..12 {
            let now = rt.machine().clock().now();
            mgr.request(&tcx, i % 2, "ecall_ping", &mut data, now)
                .unwrap();
        }
        let agg = mgr.aggregate();
        assert_eq!(agg.restarts, 3);
        assert_eq!(agg.breaker_opens, 0);
        assert_eq!(agg.completed, 14);
    }

    #[test]
    fn breaker_opens_under_storm_and_sheds_cold_slots() {
        let policy = FleetPolicy {
            live_pool: 8,
            // No effective throttling, hair-trigger breaker.
            restart_spacing: Nanos::from_nanos(1),
            storm_window: Nanos::from_secs(1),
            storm_threshold: 1,
            breaker_cooldown: Nanos::from_millis(100),
            max_restarts_per_enclave: 10,
        };
        let (rt, mgr) = fleet(8, policy, 4096);
        let tcx = ThreadCtx::main();
        let mut data = CallData::default();
        let now = rt.machine().clock().now();
        mgr.request(&tcx, 0, "ecall_ping", &mut data, now).unwrap();
        // Two losses back to back trip the 1-rebuild threshold. Arming a
        // plan resets the injector's entry counting, so the very next
        // EENTER is call 1.
        let plan: FaultPlan = "enclave_lost@call=1;enclave_lost@call=2;seed=4"
            .parse()
            .unwrap();
        rt.machine().set_fault_plan(Some(&plan));
        let now = rt.machine().clock().now();
        mgr.request(&tcx, 0, "ecall_ping", &mut data, now).unwrap();
        assert!(mgr.breaker_opens() >= 1);
        assert!(mgr.breaker_open());
        // Cold slots shed while the breaker is open...
        let now = rt.machine().clock().now();
        let outcome = mgr.request(&tcx, 5, "ecall_ping", &mut data, now).unwrap();
        assert_eq!(outcome, Outcome::Shed);
        // ...but the live slot keeps serving.
        let now = rt.machine().clock().now();
        let outcome = mgr.request(&tcx, 0, "ecall_ping", &mut data, now).unwrap();
        assert!(matches!(outcome, Outcome::Completed { .. }));
        let stats = mgr.snapshot();
        assert_eq!(stats[5].shed, 1);
        assert_eq!(stats[5].spin_ups, 0);
    }

    #[test]
    fn recovery_exhausted_retires_the_slot_for_a_clean_respawn() {
        let policy = FleetPolicy {
            max_restarts_per_enclave: 1,
            storm_threshold: 1000,
            ..FleetPolicy::default()
        };
        let (rt, mgr) = fleet(4, policy, 4096);
        let tcx = ThreadCtx::main();
        let mut data = CallData::default();
        let now = rt.machine().clock().now();
        mgr.request(&tcx, 0, "ecall_ping", &mut data, now).unwrap();
        // First retry after the loss is itself lost: one rebuild is within
        // budget, the second trips the per-slot breaker.
        let plan: FaultPlan = "enclave_lost@call=1;enclave_lost@call=2;seed=4"
            .parse()
            .unwrap();
        rt.machine().set_fault_plan(Some(&plan));
        let now = rt.machine().clock().now();
        let err = mgr
            .request(&tcx, 0, "ecall_ping", &mut data, now)
            .unwrap_err();
        assert!(matches!(err, SdkError::RecoveryExhausted { .. }));
        rt.machine().set_fault_plan(None);
        // The slot respawns cleanly on the next request.
        let now = rt.machine().clock().now();
        let outcome = mgr.request(&tcx, 0, "ecall_ping", &mut data, now).unwrap();
        assert!(matches!(outcome, Outcome::Completed { .. }));
        let stats = mgr.snapshot();
        assert_eq!(stats[0].failed, 1);
        assert_eq!(stats[0].spin_ups, 2);
        // restarts() counts attempts, including the one that gave up.
        assert_eq!(stats[0].restarts, 2);
    }

    #[test]
    fn shared_epc_contention_attributes_paging_per_slot() {
        // EPC too small for all live enclaves: hot slots evict cold ones.
        let policy = FleetPolicy {
            live_pool: 8,
            ..FleetPolicy::default()
        };
        let (rt, mgr) = fleet(8, policy, 48);
        let tcx = ThreadCtx::main();
        let mut data = CallData::default();
        for round in 0..3 {
            for slot in 0..8 {
                let now = rt.machine().clock().now();
                let _ = mgr.request(&tcx, slot, "ecall_ping", &mut data, now);
                let _ = round;
            }
        }
        let agg = mgr.aggregate();
        assert!(agg.page_outs > 0, "cross-enclave evictions expected");
        let stats = mgr.snapshot();
        let victims = stats.iter().filter(|s| s.page_outs > 0).count();
        assert!(victims > 1, "evictions should span multiple slots");
    }
}
