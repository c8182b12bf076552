//! Switchless calls: asynchronous ecalls/ocalls served by worker threads.
//!
//! Classic calls pay an `EENTER`/`EEXIT` round trip whose cost *grows* with
//! every side-channel mitigation (§2.3.1 of the paper measures 2,130 ns →
//! 4,890 ns from Unpatched to Foreshadow). Switchless calls sidestep the
//! transition entirely: the caller posts a request into a ring buffer in
//! untrusted shared memory, a worker thread on the other side of the
//! enclave boundary polls the ring and executes the call, and the caller
//! spins on the response slot. This is the design of HotCalls and of the
//! SDK's `transition_using_threads` attribute — and it is what sgx-perf's
//! `UseSwitchless` recommendation tells the developer to apply.
//!
//! The simulation keeps the semantics and the cost shape of the real thing:
//!
//! * requests and responses travel through a bounded slot ring
//!   ([`SwitchlessConfig::ring_capacity`]); when no slot is free the call
//!   falls back to the classic synchronous transition,
//! * the caller spins for a bounded budget (`SPIN_BUDGET`, charged per
//!   poll iteration at the simulated clock rate) before falling back,
//! * **untrusted** workers serve switchless *ocalls*, **trusted** workers
//!   serve switchless *ecalls*; each worker parks when its queue is empty
//!   and is unparked by the next caller,
//! * a successful switchless call charges only the post/poll/complete
//!   costs — no `EENTER`/`EEXIT`, no URTS/TRTS dispatch — which is exactly
//!   the transition-count drop sgx-perf's re-measurement observes.
//!
//! Workers are logical threads of the workload's deterministic
//! [`Simulation`]: scheduling stays round-robin
//! and bit-deterministic. Call [`Switchless::shutdown`] before the driver
//! thread exits, otherwise the parked workers trip the scheduler's
//! deadlock detector.

use std::collections::VecDeque;
use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Weak};

use sgx_sim::{EnclaveId, Machine, ThreadToken};
use sim_core::fault::{FaultAction, FaultEvent, FaultKind};
use sim_core::sync::Mutex;
use sim_core::syncev::SyncOp;
use sim_core::{Cycles, Nanos};
use sim_threads::{LogicalThreadId, SimCtx, Simulation};

use crate::args::CallData;
use crate::enclave::{EcallCtx, Enclave, Frame};
use crate::error::{SdkError, SdkResult};
use crate::ocall::HostCtx;
use crate::sync_ocalls;
use crate::thread_ctx::ThreadCtx;
use crate::urts::Urts;

/// Configuration of one enclave's switchless subsystem.
#[derive(Debug, Clone)]
pub struct SwitchlessConfig {
    /// Untrusted worker threads serving switchless **ocalls**. With zero
    /// workers every switchless ocall degrades to a classic transition.
    pub untrusted_workers: usize,
    /// Trusted worker threads serving switchless **ecalls**.
    pub trusted_workers: usize,
    /// Slots in the shared request/response ring (per enclave, both
    /// directions). A full ring forces fallback.
    pub ring_capacity: usize,
    /// Ecalls to treat as switchless even though their EDL declaration
    /// lacks `transition_using_threads` — this is how a workload *applies*
    /// sgx-perf's `UseSwitchless` recommendation without editing the
    /// interface. Only public ecalls can be switchless.
    pub force_ecalls: Vec<String>,
    /// Ocalls to treat as switchless, same as
    /// [`force_ecalls`](SwitchlessConfig::force_ecalls). The four SDK
    /// sleep/wake ocalls are never switchless: their park semantics need
    /// the caller's own thread.
    pub force_ocalls: Vec<String>,
}

impl Default for SwitchlessConfig {
    fn default() -> SwitchlessConfig {
        SwitchlessConfig {
            untrusted_workers: 1,
            trusted_workers: 0,
            ring_capacity: 8,
            force_ecalls: Vec::new(),
            force_ocalls: Vec::new(),
        }
    }
}

/// How long a caller busy-polls its response slot before giving up and
/// taking the synchronous path, charged per poll iteration
/// ([`CostModel::switchless_poll_iteration`]) at the simulated clock rate:
/// ~100 poll iterations ≈ 5 µs at the nominal 3.4 GHz — well above the
/// worker's dispatch latency, well below a transition.
///
/// [`CostModel::switchless_poll_iteration`]: sim_core::CostModel::switchless_poll_iteration
const SPIN_BUDGET: Cycles = Cycles::new(17_000);

/// What happened, reported through the URTS switchless observer so the
/// sgx-perf logger can record it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SwitchlessEventKind {
    /// A switchless ecall was served by a trusted worker.
    EcallDispatched,
    /// A switchless ocall was served by an untrusted worker.
    OcallDispatched,
    /// A switchless-eligible ecall fell back to the synchronous path.
    EcallFallback,
    /// A switchless-eligible ocall fell back to the synchronous path.
    OcallFallback,
    /// A worker found its queue empty and parked.
    WorkerIdle,
    /// A parked worker was woken by a caller.
    WorkerBusy,
}

impl SwitchlessEventKind {
    /// Stable numeric encoding for trace records.
    pub fn code(self) -> u8 {
        match self {
            SwitchlessEventKind::EcallDispatched => 0,
            SwitchlessEventKind::OcallDispatched => 1,
            SwitchlessEventKind::EcallFallback => 2,
            SwitchlessEventKind::OcallFallback => 3,
            SwitchlessEventKind::WorkerIdle => 4,
            SwitchlessEventKind::WorkerBusy => 5,
        }
    }

    /// Inverse of [`SwitchlessEventKind::code`].
    pub fn from_code(code: u8) -> Option<SwitchlessEventKind> {
        Some(match code {
            0 => SwitchlessEventKind::EcallDispatched,
            1 => SwitchlessEventKind::OcallDispatched,
            2 => SwitchlessEventKind::EcallFallback,
            3 => SwitchlessEventKind::OcallFallback,
            4 => SwitchlessEventKind::WorkerIdle,
            5 => SwitchlessEventKind::WorkerBusy,
            _ => return None,
        })
    }
}

/// One switchless-subsystem event, emitted through
/// [`Urts::set_switchless_observer`].
#[derive(Debug, Clone, Copy)]
pub struct SwitchlessEvent {
    /// The enclave whose ring this event belongs to.
    pub enclave: EnclaveId,
    /// What happened.
    pub kind: SwitchlessEventKind,
    /// The ecall/ocall index, when the event concerns a specific call.
    pub call_index: Option<usize>,
    /// The thread the event happened on (caller for dispatch/fallback,
    /// worker for idle/busy).
    pub thread: ThreadToken,
    /// Worker slot within its pool, for worker events.
    pub worker: Option<usize>,
    /// Poll iterations the caller spent waiting (dispatch events).
    pub spins: u64,
    /// Virtual time of the event.
    pub time: Nanos,
}

/// Which direction a ring slot carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum CallKind {
    Ecall,
    Ocall,
}

/// Lifecycle of a ring slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SlotState {
    Free,
    /// Posted by a caller, not yet picked up — the caller may still
    /// withdraw it and fall back.
    Queued,
    /// A worker is executing it — the caller must wait for completion.
    Claimed,
    /// Finished; the result waits for the caller.
    Done,
}

struct Slot {
    state: SlotState,
    kind: CallKind,
    index: usize,
    caller: ThreadToken,
    data: CallData,
    result: Option<SdkResult<()>>,
}

struct WorkerHandle {
    thread: LogicalThreadId,
    idle: bool,
}

struct RingState {
    slots: Vec<Slot>,
    free: Vec<usize>,
    ecall_queue: VecDeque<usize>,
    ocall_queue: VecDeque<usize>,
    untrusted: Vec<WorkerHandle>,
    trusted: Vec<WorkerHandle>,
}

impl RingState {
    fn queue(&mut self, kind: CallKind) -> &mut VecDeque<usize> {
        match kind {
            CallKind::Ecall => &mut self.ecall_queue,
            CallKind::Ocall => &mut self.ocall_queue,
        }
    }

    fn pool(&mut self, kind: CallKind) -> &mut Vec<WorkerHandle> {
        match kind {
            CallKind::Ecall => &mut self.trusted,
            CallKind::Ocall => &mut self.untrusted,
        }
    }
}

/// The per-enclave switchless subsystem: eligibility masks, the shared slot
/// ring and the worker pools.
///
/// Created with [`Runtime::enable_switchless`](crate::Runtime::enable_switchless);
/// workers are logical threads spawned onto the workload's simulation with
/// [`Switchless::spawn_workers`].
pub struct Switchless {
    enclave: Weak<Enclave>,
    /// Weak: the runtime owns the enclave, which owns this subsystem, so a
    /// strong handle would keep the runtime alive forever.
    urts: Weak<Urts>,
    machine: Arc<Machine>,
    config: SwitchlessConfig,
    ecall_eligible: Vec<bool>,
    ocall_eligible: Vec<bool>,
    stop: AtomicBool,
    state: Mutex<RingState>,
    /// Sync-bus object ids for the two rings (ecall ring, ocall ring).
    ring_ids: [u64; 2],
}

impl fmt::Debug for Switchless {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Switchless")
            .field("untrusted_workers", &self.config.untrusted_workers)
            .field("trusted_workers", &self.config.trusted_workers)
            .field("ring_capacity", &self.config.ring_capacity)
            .finish()
    }
}

impl Switchless {
    /// Builds the subsystem for `enclave`, resolving the force lists
    /// against its interface.
    ///
    /// # Errors
    ///
    /// [`SdkError::BadEcall`]/[`SdkError::BadOcall`] for unknown names in
    /// the force lists, [`SdkError::PrivateEcall`] when a forced ecall is
    /// private (a worker inside the enclave could otherwise bypass the
    /// `allow()` rules).
    pub(crate) fn new(
        enclave: &Arc<Enclave>,
        urts: &Arc<Urts>,
        config: SwitchlessConfig,
    ) -> SdkResult<Switchless> {
        let spec = enclave.spec();
        let mut ecall_eligible: Vec<bool> = spec
            .ecalls()
            .iter()
            .map(|e| e.switchless && e.public)
            .collect();
        let mut ocall_eligible: Vec<bool> = spec
            .ocalls()
            .iter()
            .map(|o| o.switchless && !sync_ocalls::is_sync_ocall(&o.name))
            .collect();
        for name in &config.force_ecalls {
            let e = spec
                .ecall_by_name(name)
                .ok_or_else(|| SdkError::BadEcall(name.clone()))?;
            if !e.public {
                return Err(SdkError::PrivateEcall(name.clone()));
            }
            ecall_eligible[e.index] = true;
        }
        for name in &config.force_ocalls {
            let o = spec
                .ocall_by_name(name)
                .ok_or_else(|| SdkError::BadOcall(name.clone()))?;
            if !sync_ocalls::is_sync_ocall(name) {
                ocall_eligible[o.index] = true;
            }
        }
        let slots = (0..config.ring_capacity)
            .map(|_| Slot {
                state: SlotState::Free,
                kind: CallKind::Ecall,
                index: 0,
                caller: ThreadToken::MAIN,
                data: CallData::default(),
                result: None,
            })
            .collect();
        let free = (0..config.ring_capacity).rev().collect();
        let bus = urts.machine().sync_bus();
        let ring_ids = [bus.alloc_object(), bus.alloc_object()];
        Ok(Switchless {
            enclave: Arc::downgrade(enclave),
            urts: Arc::downgrade(urts),
            machine: Arc::clone(urts.machine()),
            config,
            ecall_eligible,
            ocall_eligible,
            stop: AtomicBool::new(false),
            state: Mutex::new(RingState {
                slots,
                free,
                ecall_queue: VecDeque::new(),
                ocall_queue: VecDeque::new(),
                untrusted: Vec::new(),
                trusted: Vec::new(),
            }),
            ring_ids,
        })
    }

    /// Publishes a ring post/complete edge on the machine's sync bus (a
    /// no-op unless sync-event tracking is enabled).
    fn emit_ring(
        &self,
        thread: ThreadToken,
        op: SyncOp,
        kind: CallKind,
        target: Option<ThreadToken>,
        slot: u64,
    ) {
        let (ring, label) = match kind {
            CallKind::Ecall => (self.ring_ids[0], "switchless-ecall-ring"),
            CallKind::Ocall => (self.ring_ids[1], "switchless-ocall-ring"),
        };
        self.machine.sync_bus().emit(
            thread.0 as u64,
            op,
            Some(ring),
            target.map(|t| t.0 as u64),
            slot,
            label,
        );
    }

    /// The configuration this subsystem was built with.
    pub fn config(&self) -> &SwitchlessConfig {
        &self.config
    }

    /// Whether the ecall at `index` may take the switchless path.
    pub fn is_ecall_switchless(&self, index: usize) -> bool {
        self.ecall_eligible.get(index).copied().unwrap_or(false)
    }

    /// Whether the ocall at `index` may take the switchless path.
    pub fn is_ocall_switchless(&self, index: usize) -> bool {
        self.ocall_eligible.get(index).copied().unwrap_or(false)
    }

    /// Spawns the configured worker pools as logical threads of `sim`.
    /// Idempotent per pool: calling twice adds nothing.
    pub fn spawn_workers(self: &Arc<Switchless>, sim: &Simulation) {
        let mut st = self.state.lock();
        if st.untrusted.is_empty() {
            for slot in 0..self.config.untrusted_workers {
                let me = Arc::clone(self);
                let id = sim.spawn(&format!("switchless-untrusted-{slot}"), move |ctx| {
                    me.worker_loop(ctx, CallKind::Ocall, slot);
                });
                st.untrusted.push(WorkerHandle {
                    thread: id,
                    idle: false,
                });
            }
        }
        if st.trusted.is_empty() {
            for slot in 0..self.config.trusted_workers {
                let me = Arc::clone(self);
                let id = sim.spawn(&format!("switchless-trusted-{slot}"), move |ctx| {
                    me.worker_loop(ctx, CallKind::Ecall, slot);
                });
                st.trusted.push(WorkerHandle {
                    thread: id,
                    idle: false,
                });
            }
        }
    }

    /// Stops the worker pools: sets the stop flag and unparks every worker
    /// so it can observe it. Must run on a logical thread of the same
    /// simulation, before the driver exits — parked workers would otherwise
    /// trip the scheduler's deadlock detector.
    pub fn shutdown(&self, ctx: &SimCtx) {
        self.stop.store(true, Ordering::SeqCst);
        let workers: Vec<LogicalThreadId> = {
            let mut st = self.state.lock();
            let mut ids = Vec::with_capacity(st.untrusted.len() + st.trusted.len());
            let RingState {
                untrusted, trusted, ..
            } = &mut *st;
            for w in untrusted.iter_mut().chain(trusted.iter_mut()) {
                w.idle = false;
                ids.push(w.thread);
            }
            ids
        };
        for id in workers {
            ctx.unpark(id);
        }
    }

    /// Attempts the switchless path for an ecall. `None` means the caller
    /// must take the classic synchronous transition; `Some(result)` means
    /// the call completed without one.
    pub(crate) fn try_ecall(
        &self,
        tcx: &ThreadCtx<'_>,
        index: usize,
        data: &mut CallData,
    ) -> Option<SdkResult<()>> {
        if !self.is_ecall_switchless(index) {
            return None;
        }
        self.try_call(tcx, CallKind::Ecall, index, data)
    }

    /// Attempts the switchless path for an ocall (same contract as
    /// [`Switchless::try_ecall`]).
    pub(crate) fn try_ocall(
        &self,
        tcx: &ThreadCtx<'_>,
        index: usize,
        data: &mut CallData,
    ) -> Option<SdkResult<()>> {
        if !self.is_ocall_switchless(index) {
            return None;
        }
        self.try_call(tcx, CallKind::Ocall, index, data)
    }

    fn try_call(
        &self,
        tcx: &ThreadCtx<'_>,
        kind: CallKind,
        index: usize,
        data: &mut CallData,
    ) -> Option<SdkResult<()>> {
        // Requires the deterministic scheduler (workers are logical
        // threads) and a non-empty pool; otherwise degrade to the classic
        // path. The no-worker fallback charges nothing: the run must be
        // indistinguishable from plain synchronous calls.
        let Some(sim) = tcx.sim else {
            self.emit_fallback(kind, index, tcx.token, 0);
            return None;
        };
        if self.stop.load(Ordering::SeqCst) {
            self.emit_fallback(kind, index, tcx.token, 0);
            return None;
        }
        let machine = &self.machine;
        let cm = machine.cost_model();

        // Ring-full burst injection: this post attempt finds no free slot
        // and degrades to the classic path — recorded both as a fault and
        // as the fallback the caller observes.
        if let Some(inj) = machine.fault_injector() {
            if inj.take_ring_full(machine.clock().now()) {
                machine.notify_fault(&FaultEvent {
                    code: FaultKind::RingFull { calls: 1 }.code(),
                    action: FaultAction::Injected,
                    enclave: self.enclave_id().0,
                    thread: tcx.token.0 as u64,
                    call_index: Some(index as u32),
                    magnitude: 1,
                    time: machine.clock().now(),
                });
                self.emit_fallback(kind, index, tcx.token, 0);
                return None;
            }
        }

        // Post the request: grab a free slot, enqueue, wake an idle worker.
        let slot_id = {
            let mut st = self.state.lock();
            if st.pool(kind).is_empty() {
                drop(st);
                self.emit_fallback(kind, index, tcx.token, 0);
                return None;
            }
            let Some(slot_id) = st.free.pop() else {
                drop(st);
                self.emit_fallback(kind, index, tcx.token, 0);
                return None;
            };
            let slot = &mut st.slots[slot_id];
            slot.state = SlotState::Queued;
            slot.kind = kind;
            slot.index = index;
            slot.caller = tcx.token;
            slot.data = data.clone();
            slot.result = None;
            st.queue(kind).push_back(slot_id);
            if let Some(pos) = st.pool(kind).iter().position(|w| w.idle) {
                let worker = &mut st.pool(kind)[pos];
                worker.idle = false;
                let id = worker.thread;
                drop(st);
                sim.unpark(id);
            }
            slot_id
        };
        self.emit_ring(tcx.token, SyncOp::RingPost, kind, None, slot_id as u64);
        // Writing the slot + marshalling [in] buffers into shared memory.
        machine
            .clock()
            .advance(cm.switchless_post + cm.copy_cost(data.in_bytes));

        // Spin on the response slot, one bounded poll iteration at a time.
        let budget_iters = (SPIN_BUDGET.get() / cm.switchless_poll_iteration.get().max(1)).max(1);
        let mut spins: u64 = 0;
        loop {
            let state = self.state.lock().slots[slot_id].state;
            match state {
                SlotState::Done => {
                    let (out, result) = {
                        let mut st = self.state.lock();
                        let slot = &mut st.slots[slot_id];
                        let out = std::mem::take(&mut slot.data);
                        let result = slot.result.take().unwrap_or(Ok(()));
                        slot.state = SlotState::Free;
                        st.free.push(slot_id);
                        (out, result)
                    };
                    *data = out;
                    // Reading the response + marshalling [out] buffers back.
                    machine
                        .clock()
                        .advance(cm.switchless_complete + cm.copy_cost(data.out_bytes));
                    self.emit(SwitchlessEvent {
                        enclave: self.enclave_id(),
                        kind: match kind {
                            CallKind::Ecall => SwitchlessEventKind::EcallDispatched,
                            CallKind::Ocall => SwitchlessEventKind::OcallDispatched,
                        },
                        call_index: Some(index),
                        thread: tcx.token,
                        worker: None,
                        spins,
                        time: machine.clock().now(),
                    });
                    return Some(result);
                }
                SlotState::Queued if spins >= budget_iters => {
                    // Budget exhausted and no worker picked it up yet:
                    // withdraw the request and take the synchronous path.
                    let withdrawn = {
                        let mut st = self.state.lock();
                        let slot = &mut st.slots[slot_id];
                        if slot.state == SlotState::Queued {
                            slot.state = SlotState::Free;
                            st.queue(kind).retain(|&s| s != slot_id);
                            st.free.push(slot_id);
                            true
                        } else {
                            false
                        }
                    };
                    if withdrawn {
                        self.emit_fallback(kind, index, tcx.token, spins);
                        return None;
                    }
                    // A worker claimed it between the check and the lock:
                    // fall through and keep waiting for completion.
                }
                // Queued (budget left) or Claimed (a worker is executing —
                // the call cannot be withdrawn any more): poll again.
                _ => {}
            }
            machine.clock().advance(cm.switchless_spin_cost(1));
            spins += 1;
            sim.yield_now();
        }
    }

    /// Body of one worker logical thread.
    fn worker_loop(&self, ctx: &SimCtx, kind: CallKind, pool_slot: usize) {
        let machine = &self.machine;
        let worker_tcx = ThreadCtx::from_sim(ctx);
        loop {
            if self.stop.load(Ordering::SeqCst) {
                return;
            }
            // Worker-stall injection: the worker dawdles before looking at
            // the queue. Callers keep spinning through the stall and, once
            // their budget runs out, withdraw and fall back to the
            // synchronous path — the graceful-degradation contract.
            if let Some(delay) = machine
                .fault_injector()
                .and_then(|inj| inj.take_worker_stall(machine.clock().now()))
            {
                machine.notify_fault(&FaultEvent {
                    code: FaultKind::WorkerStall { delay }.code(),
                    action: FaultAction::Injected,
                    enclave: self.enclave_id().0,
                    thread: worker_tcx.token.0 as u64,
                    call_index: None,
                    magnitude: delay.as_nanos(),
                    time: machine.clock().now(),
                });
                // Not `ctx.sleep`: the scheduler only wakes sleepers once
                // the run queue drains, and the spinning callers keep it
                // populated — a sleeping worker would stall for the whole
                // run. Yield through the window instead, advancing the
                // clock only when no other thread does.
                let deadline = machine.clock().now() + delay;
                while machine.clock().now() < deadline {
                    if self.stop.load(Ordering::SeqCst) {
                        return;
                    }
                    let before = machine.clock().now();
                    ctx.yield_now();
                    if machine.clock().now() == before {
                        let step = (deadline - before).min(Nanos::from_micros(1));
                        machine.clock().advance(step);
                    }
                }
            }
            let claimed = {
                let mut st = self.state.lock();
                match st.queue(kind).pop_front() {
                    Some(slot_id) => {
                        let slot = &mut st.slots[slot_id];
                        slot.state = SlotState::Claimed;
                        Some((slot_id, slot.index, std::mem::take(&mut slot.data)))
                    }
                    None => {
                        st.pool(kind)[pool_slot].idle = true;
                        None
                    }
                }
            };
            let Some((slot_id, index, mut data)) = claimed else {
                self.emit(SwitchlessEvent {
                    enclave: self.enclave_id(),
                    kind: SwitchlessEventKind::WorkerIdle,
                    call_index: None,
                    thread: worker_tcx.token,
                    worker: Some(pool_slot),
                    spins: 0,
                    time: machine.clock().now(),
                });
                ctx.park();
                if self.stop.load(Ordering::SeqCst) {
                    return;
                }
                self.emit(SwitchlessEvent {
                    enclave: self.enclave_id(),
                    kind: SwitchlessEventKind::WorkerBusy,
                    call_index: None,
                    thread: worker_tcx.token,
                    worker: Some(pool_slot),
                    spins: 0,
                    time: machine.clock().now(),
                });
                continue;
            };
            // Reading the request slot out of shared memory.
            machine
                .clock()
                .advance(machine.cost_model().switchless_worker_dispatch);
            let result = match kind {
                CallKind::Ocall => self.execute_ocall(&worker_tcx, index, &mut data),
                CallKind::Ecall => self.execute_ecall(&worker_tcx, index, &mut data),
            };
            let caller = {
                let mut st = self.state.lock();
                let slot = &mut st.slots[slot_id];
                slot.data = data;
                slot.result = Some(result);
                slot.state = SlotState::Done;
                slot.caller
                // The caller is spinning (never parked), so no wake-up
                // needed.
            };
            self.emit_ring(
                worker_tcx.token,
                SyncOp::RingComplete,
                kind,
                Some(caller),
                slot_id as u64,
            );
        }
    }

    /// Runs a switchless ocall body on an untrusted worker: plain host
    /// execution, no transition, no enclave frames.
    fn execute_ocall(
        &self,
        worker_tcx: &ThreadCtx<'_>,
        index: usize,
        data: &mut CallData,
    ) -> SdkResult<()> {
        let enclave = self.enclave()?;
        let urts = self.urts()?;
        let table = urts.saved_table(enclave.id())?;
        let entry = table
            .entry(index)
            .ok_or_else(|| SdkError::BadOcall(format!("#{index}")))?
            .clone();
        let mut host = HostCtx {
            machine: &self.machine,
            urts: &urts,
            enclave_id: enclave.id(),
            thread: *worker_tcx,
        };
        (entry.func)(&mut host, data)
    }

    /// Runs a switchless ecall body on a trusted worker: the worker already
    /// lives inside the enclave, so no `EENTER`/`EEXIT` is charged — only
    /// TCS binding and the call frame, like the real SDK's trusted worker
    /// pool.
    fn execute_ecall(
        &self,
        worker_tcx: &ThreadCtx<'_>,
        index: usize,
        data: &mut CallData,
    ) -> SdkResult<()> {
        let enclave = self.enclave()?;
        let urts = self.urts()?;
        let body = enclave.ecall_impl(index)?;
        let tcs_index = enclave.bind_tcs(worker_tcx.token)?;
        enclave.push_frame(worker_tcx.token, Frame::Ecall(index));
        let result = {
            let mut ectx = EcallCtx {
                enclave: &enclave,
                urts: &urts,
                thread: *worker_tcx,
                tcs_index,
            };
            body(&mut ectx, data)
        };
        enclave.pop_frame(worker_tcx.token);
        result
    }

    fn enclave(&self) -> SdkResult<Arc<Enclave>> {
        self.enclave
            .upgrade()
            .ok_or_else(|| SdkError::Interface("switchless enclave torn down".to_string()))
    }

    fn urts(&self) -> SdkResult<Arc<Urts>> {
        self.urts
            .upgrade()
            .ok_or_else(|| SdkError::Interface("switchless runtime torn down".to_string()))
    }

    fn enclave_id(&self) -> EnclaveId {
        self.enclave
            .upgrade()
            .map(|e| e.id())
            .unwrap_or(EnclaveId(0))
    }

    fn emit_fallback(&self, kind: CallKind, index: usize, thread: ThreadToken, spins: u64) {
        self.emit(SwitchlessEvent {
            enclave: self.enclave_id(),
            kind: match kind {
                CallKind::Ecall => SwitchlessEventKind::EcallFallback,
                CallKind::Ocall => SwitchlessEventKind::OcallFallback,
            },
            call_index: Some(index),
            thread,
            worker: None,
            spins,
            time: self.machine.clock().now(),
        });
    }

    fn emit(&self, event: SwitchlessEvent) {
        if let Some(urts) = self.urts.upgrade() {
            urts.notify_switchless(&event);
        }
    }
}

#[cfg(test)]
mod tests {
    use std::sync::atomic::AtomicUsize;

    use sgx_edl::InterfaceBuilder;
    use sgx_sim::{EnclaveConfig, Machine};
    use sim_core::{Clock, HwProfile};

    use super::*;
    use crate::loader::EcallDispatcher;
    use crate::ocall::OcallTableBuilder;
    use crate::runtime::Runtime;

    /// Counts how many calls actually reach `sgx_ecall` (i.e. take a real
    /// transition), like an interposed logger would.
    struct CountingDispatcher {
        next: Arc<dyn EcallDispatcher>,
        calls: Arc<AtomicUsize>,
    }

    impl EcallDispatcher for CountingDispatcher {
        fn sgx_ecall(
            &self,
            tcx: &ThreadCtx<'_>,
            eid: EnclaveId,
            index: usize,
            table: &Arc<crate::ocall::OcallTable>,
            data: &mut CallData,
        ) -> SdkResult<()> {
            self.calls.fetch_add(1, Ordering::SeqCst);
            self.next.sgx_ecall(tcx, eid, index, table, data)
        }
    }

    struct Fixture {
        runtime: Arc<Runtime>,
        enclave: Arc<Enclave>,
        table: Arc<crate::ocall::OcallTable>,
        transitions: Arc<AtomicUsize>,
        ocall_runs: Arc<AtomicUsize>,
    }

    /// An enclave whose `e_work` ecall issues `n` (from `scalar`) `o_notify`
    /// ocalls and returns their sum in `ret`.
    fn fixture(switchless_ocall: bool) -> Fixture {
        let machine = Arc::new(Machine::new(Clock::new(), HwProfile::Unpatched));
        let runtime = Runtime::new(machine);
        let mut builder = InterfaceBuilder::new()
            .public_ecall("e_work", vec![])
            .ocall("o_notify", vec![]);
        if switchless_ocall {
            builder = builder.switchless();
        }
        let spec = builder.build().unwrap();
        let enclave = runtime
            .create_enclave(&spec, &EnclaveConfig::default())
            .unwrap();
        enclave
            .register_ecall("e_work", |ctx, data| {
                let mut sum = 0;
                for i in 0..data.scalar {
                    let mut inner = CallData {
                        scalar: i,
                        ..CallData::default()
                    };
                    ctx.ocall("o_notify", &mut inner)?;
                    sum += inner.ret;
                }
                data.ret = sum;
                Ok(())
            })
            .unwrap();
        let ocall_runs = Arc::new(AtomicUsize::new(0));
        let runs = Arc::clone(&ocall_runs);
        let mut tb = OcallTableBuilder::new(enclave.spec());
        tb.register("o_notify", move |host, data| {
            runs.fetch_add(1, Ordering::SeqCst);
            host.compute(Nanos::from_nanos(500));
            data.ret = data.scalar + 1;
            Ok(())
        })
        .unwrap();
        let table = Arc::new(tb.build().unwrap());
        let transitions = Arc::new(AtomicUsize::new(0));
        let calls = Arc::clone(&transitions);
        runtime.loader().preload(move |next| {
            Arc::new(CountingDispatcher { next, calls }) as Arc<dyn EcallDispatcher>
        });
        Fixture {
            runtime,
            enclave,
            table,
            transitions,
            ocall_runs,
        }
    }

    /// Drives `e_work(n_calls)` on a logical thread with the subsystem
    /// configured as given; returns (final virtual time, ecall ret).
    fn drive(fx: &Fixture, config: Option<SwitchlessConfig>, n_calls: u64) -> (Nanos, u64) {
        let sw = config.map(|c| {
            fx.runtime
                .enable_switchless(fx.enclave.id(), c)
                .expect("enable_switchless")
        });
        let sim = Simulation::new(fx.runtime.machine().clock().clone());
        if let Some(sw) = &sw {
            sw.spawn_workers(&sim);
        }
        let runtime = Arc::clone(&fx.runtime);
        let eid = fx.enclave.id();
        let table = Arc::clone(&fx.table);
        let ret = Arc::new(Mutex::new(0u64));
        let ret2 = Arc::clone(&ret);
        sim.spawn("driver", move |ctx| {
            let tcx = ThreadCtx::from_sim(ctx);
            let mut data = CallData {
                scalar: n_calls,
                ..CallData::default()
            };
            runtime
                .ecall(&tcx, eid, "e_work", &table, &mut data)
                .expect("ecall");
            *ret2.lock() = data.ret;
            if let Some(sw) = &sw {
                sw.shutdown(ctx);
            }
        });
        sim.run();
        let out = *ret.lock();
        (fx.runtime.machine().clock().now(), out)
    }

    #[test]
    fn switchless_ocalls_are_served_without_a_transition() {
        let sync_fx = fixture(true);
        let (sync_time, sync_ret) = drive(&sync_fx, None, 8);

        let fx = fixture(true);
        let (sw_time, sw_ret) = drive(
            &fx,
            Some(SwitchlessConfig {
                untrusted_workers: 1,
                ..SwitchlessConfig::default()
            }),
            8,
        );

        assert_eq!(sw_ret, sync_ret, "switchless must not change results");
        assert_eq!(fx.ocall_runs.load(Ordering::SeqCst), 8);
        // 8 ocalls × ~3.6 µs saved dwarfs the added spin cost.
        assert!(
            sw_time < sync_time,
            "switchless run ({sw_time}) should beat sync run ({sync_time})"
        );
    }

    #[test]
    fn zero_workers_degrade_to_the_identical_sync_run() {
        let plain = fixture(true);
        let (plain_time, plain_ret) = drive(&plain, None, 5);

        let degraded = fixture(true);
        let (degraded_time, degraded_ret) = drive(
            &degraded,
            Some(SwitchlessConfig {
                untrusted_workers: 0,
                trusted_workers: 0,
                ..SwitchlessConfig::default()
            }),
            5,
        );

        assert_eq!(degraded_ret, plain_ret);
        assert_eq!(
            degraded_time, plain_time,
            "no-worker fallback must be bit-identical to the sync run"
        );
        assert_eq!(
            degraded.transitions.load(Ordering::SeqCst),
            plain.transitions.load(Ordering::SeqCst)
        );
    }

    #[test]
    fn forced_switchless_ecall_bypasses_the_loader() {
        // The EDL carries no `transition_using_threads`; the config forces
        // the ecall switchless — how a workload applies `UseSwitchless`.
        let fx = fixture(false);
        let sw = fx
            .runtime
            .enable_switchless(
                fx.enclave.id(),
                SwitchlessConfig {
                    untrusted_workers: 0,
                    trusted_workers: 1,
                    force_ecalls: vec!["e_work".to_string()],
                    ..SwitchlessConfig::default()
                },
            )
            .unwrap();
        assert!(sw.is_ecall_switchless(0));
        let sim = Simulation::new(fx.runtime.machine().clock().clone());
        sw.spawn_workers(&sim);
        let runtime = Arc::clone(&fx.runtime);
        let eid = fx.enclave.id();
        let table = Arc::clone(&fx.table);
        let sw2 = Arc::clone(&sw);
        sim.spawn("driver", move |ctx| {
            let tcx = ThreadCtx::from_sim(ctx);
            for _ in 0..4 {
                let mut data = CallData::default();
                runtime
                    .ecall(&tcx, eid, "e_work", &table, &mut data)
                    .expect("ecall");
            }
            sw2.shutdown(ctx);
        });
        sim.run();
        assert_eq!(
            fx.transitions.load(Ordering::SeqCst),
            0,
            "trusted-worker ecalls must never reach sgx_ecall"
        );
    }

    #[test]
    fn full_ring_falls_back_to_the_synchronous_path() {
        let fx = fixture(true);
        let fallbacks = Arc::new(AtomicUsize::new(0));
        let f = Arc::clone(&fallbacks);
        fx.runtime
            .urts()
            .set_switchless_observer(Arc::new(move |ev| {
                if ev.kind == SwitchlessEventKind::OcallFallback {
                    f.fetch_add(1, Ordering::SeqCst);
                }
            }));
        let (_, ret) = drive(
            &fx,
            Some(SwitchlessConfig {
                untrusted_workers: 1,
                ring_capacity: 0,
                ..SwitchlessConfig::default()
            }),
            3,
        );
        assert_eq!(ret, 1 + 2 + 3, "fallback calls still produce results");
        assert_eq!(fx.ocall_runs.load(Ordering::SeqCst), 3);
        assert_eq!(fallbacks.load(Ordering::SeqCst), 3);
    }

    #[test]
    fn exhausted_spin_budget_withdraws_the_request() {
        // One worker, parked inside a long ocall; a second caller's request
        // sits queued past its spin budget and must be withdrawn.
        let machine = Arc::new(Machine::new(Clock::new(), HwProfile::Unpatched));
        let runtime = Runtime::new(machine);
        let spec = InterfaceBuilder::new()
            .public_ecall("e_slow", vec![])
            .public_ecall("e_fast", vec![])
            .ocall("o_slow", vec![])
            .switchless()
            .ocall("o_fast", vec![])
            .switchless()
            .build()
            .unwrap();
        let enclave = runtime
            .create_enclave(
                &spec,
                &EnclaveConfig {
                    // Both drivers sit inside an ecall at the same time.
                    tcs_count: 2,
                    ..EnclaveConfig::default()
                },
            )
            .unwrap();
        enclave
            .register_ecall("e_slow", |ctx, data| ctx.ocall("o_slow", data))
            .unwrap();
        enclave
            .register_ecall("e_fast", |ctx, data| ctx.ocall("o_fast", data))
            .unwrap();
        let mut tb = OcallTableBuilder::new(enclave.spec());
        // o_slow parks its (worker) thread until the fast driver releases it.
        tb.register("o_slow", |host, _| host.park()).unwrap();
        tb.register("o_fast", |_, data| {
            data.ret = 7;
            Ok(())
        })
        .unwrap();
        let table = Arc::new(tb.build().unwrap());
        let fallbacks = Arc::new(AtomicUsize::new(0));
        let f = Arc::clone(&fallbacks);
        runtime.urts().set_switchless_observer(Arc::new(move |ev| {
            if ev.kind == SwitchlessEventKind::OcallFallback && ev.spins > 0 {
                f.fetch_add(1, Ordering::SeqCst);
            }
        }));
        let sw = runtime
            .enable_switchless(
                enclave.id(),
                SwitchlessConfig {
                    untrusted_workers: 1,
                    ..SwitchlessConfig::default()
                },
            )
            .unwrap();
        let sim = Simulation::new(runtime.machine().clock().clone());
        sw.spawn_workers(&sim); // worker = lt0
        let eid = enclave.id();
        let rt1 = Arc::clone(&runtime);
        let t1 = Arc::clone(&table);
        sim.spawn("slow-driver", move |ctx| {
            let tcx = ThreadCtx::from_sim(ctx);
            let mut data = CallData::default();
            rt1.ecall(&tcx, eid, "e_slow", &t1, &mut data).unwrap();
        });
        let rt2 = Arc::clone(&runtime);
        let t2 = Arc::clone(&table);
        let sw2 = Arc::clone(&sw);
        sim.spawn("fast-driver", move |ctx| {
            let tcx = ThreadCtx::from_sim(ctx);
            let mut data = CallData::default();
            // The worker is stuck inside o_slow: this must exhaust its spin
            // budget, withdraw, and complete synchronously.
            rt2.ecall(&tcx, eid, "e_fast", &t2, &mut data).unwrap();
            assert_eq!(data.ret, 7);
            // Release the worker, then stop the pool.
            ctx.unpark(LogicalThreadId(0));
            sw2.shutdown(ctx);
        });
        sim.run();
        assert_eq!(fallbacks.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn shutdown_with_idle_workers_does_not_deadlock() {
        let fx = fixture(true);
        let (_, ret) = drive(
            &fx,
            Some(SwitchlessConfig {
                untrusted_workers: 2,
                trusted_workers: 1,
                ..SwitchlessConfig::default()
            }),
            0,
        );
        assert_eq!(ret, 0);
    }

    #[test]
    fn force_list_validation_rejects_unknown_and_private_names() {
        let machine = Arc::new(Machine::new(Clock::new(), HwProfile::Unpatched));
        let runtime = Runtime::new(machine);
        let spec = InterfaceBuilder::new()
            .public_ecall("pub_e", vec![])
            .private_ecall("priv_e", vec![])
            .ocall_allowing("o", vec![], &["priv_e"])
            .build()
            .unwrap();
        let enclave = runtime
            .create_enclave(&spec, &EnclaveConfig::default())
            .unwrap();
        let err = runtime
            .enable_switchless(
                enclave.id(),
                SwitchlessConfig {
                    force_ecalls: vec!["nope".to_string()],
                    ..SwitchlessConfig::default()
                },
            )
            .unwrap_err();
        assert!(matches!(err, SdkError::BadEcall(_)));
        let err = runtime
            .enable_switchless(
                enclave.id(),
                SwitchlessConfig {
                    force_ecalls: vec!["priv_e".to_string()],
                    ..SwitchlessConfig::default()
                },
            )
            .unwrap_err();
        assert!(matches!(err, SdkError::PrivateEcall(_)));
        // Sync ocalls stay synchronous even when forced.
        let sw = runtime
            .enable_switchless(
                enclave.id(),
                SwitchlessConfig {
                    force_ocalls: vec![sync_ocalls::WAIT.to_string()],
                    ..SwitchlessConfig::default()
                },
            )
            .unwrap();
        let wait_index = enclave
            .spec()
            .ocall_by_name(sync_ocalls::WAIT)
            .unwrap()
            .index;
        assert!(!sw.is_ocall_switchless(wait_index));
    }

    #[test]
    fn event_kind_codes_round_trip() {
        for kind in [
            SwitchlessEventKind::EcallDispatched,
            SwitchlessEventKind::OcallDispatched,
            SwitchlessEventKind::EcallFallback,
            SwitchlessEventKind::OcallFallback,
            SwitchlessEventKind::WorkerIdle,
            SwitchlessEventKind::WorkerBusy,
        ] {
            assert_eq!(SwitchlessEventKind::from_code(kind.code()), Some(kind));
        }
        assert_eq!(SwitchlessEventKind::from_code(6), None);
    }

    /// Enabling switchless must not tie the runtime into a reference
    /// cycle: once the last handle is gone, the `Urts` is freed, as it is
    /// after a plain synchronous run.
    #[test]
    fn dropping_the_runtime_frees_a_switchless_urts() {
        for config in [
            None,
            Some(SwitchlessConfig {
                untrusted_workers: 1,
                ..SwitchlessConfig::default()
            }),
        ] {
            let fx = fixture(true);
            let switchless = config.is_some();
            drive(&fx, config, 4);
            let urts = Arc::downgrade(fx.runtime.urts());
            drop(fx);
            assert!(
                urts.upgrade().is_none(),
                "switchless={switchless}: the Urts outlived its runtime"
            );
        }
    }
}
