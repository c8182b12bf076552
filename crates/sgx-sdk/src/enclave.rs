//! The enclave object and its trusted execution context (TRTS side).

use std::collections::hash_map::Entry;
use std::fmt;
use std::ops::Range;
use std::sync::{Arc, OnceLock};

use sgx_edl::InterfaceSpec;
use sgx_sim::{AccessKind, DriverEvent, EnclaveId, Machine, ThreadToken, TouchStats};
use sim_core::fault::{FaultAction, FaultEvent, FaultKind, OcallFault};
use sim_core::sync::Mutex;
use sim_core::{IntMap, Nanos};

use crate::args::CallData;
use crate::error::{SdkError, SdkResult};
use crate::ocall::{HostCtx, OcallTable};
use crate::switchless::Switchless;
use crate::thread_ctx::ThreadCtx;
use crate::urts::Urts;

/// A trusted function body.
pub type EcallFn = Arc<dyn Fn(&mut EcallCtx<'_>, &mut CallData) -> SdkResult<()> + Send + Sync>;

/// Retry budget for injected transient faults: failed attempts the SDK
/// rides out (with exponential backoff) before surfacing
/// [`SdkError::InjectedFault`].
pub const MAX_FAULT_RETRIES: u32 = 4;

/// Exponential backoff before retry `n` (1-based): 2 µs, 4 µs, 8 µs, …
pub(crate) fn fault_backoff(attempt: u32) -> Nanos {
    Nanos::from_micros(1u64 << attempt.min(10))
}

/// Where an injected fault hit: the fields every [`FaultEvent`] of one
/// site shares.
pub(crate) struct FaultSite<'a> {
    pub(crate) machine: &'a Machine,
    pub(crate) code: u8,
    pub(crate) enclave: EnclaveId,
    pub(crate) thread: ThreadToken,
    pub(crate) call_index: Option<usize>,
}

impl FaultSite<'_> {
    /// Emits one step of the fault to the machine's hooks, stamped with
    /// the virtual time of the emission.
    pub(crate) fn emit(&self, action: FaultAction, magnitude: u64) {
        self.machine.emit(&[DriverEvent::Fault(FaultEvent {
            code: self.code,
            action,
            enclave: self.enclave.0,
            thread: self.thread.0 as u64,
            call_index: self.call_index.map(|i| i as u32),
            magnitude,
            time: self.machine.clock().now(),
        })]);
    }
}

/// One frame of a thread's enclave call stack.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Frame {
    /// An ecall with the given index is executing.
    Ecall(usize),
    /// An ocall with the given index is in progress.
    Ocall(usize),
}

#[derive(Debug)]
struct BoundThread {
    tcs_index: usize,
    frames: Vec<Frame>,
}

/// What every ecall and ocall into one enclave reads and writes, behind
/// one lock that each step of a transition takes once.
#[derive(Debug)]
struct CallState {
    free_tcs: Vec<usize>,
    /// Each thread inside the enclave: its TCS and call stack.
    bound: IntMap<ThreadToken, BoundThread>,
    /// The ocall table the last ecall passed, which the URTS "saves for
    /// later use" (Figure 3): the enclave's ocalls dispatch through it.
    table: Option<Arc<OcallTable>>,
}

impl CallState {
    /// Pushes `frame` on the thread's call stack, binding a free TCS on
    /// its outermost entry. Returns the TCS index.
    fn push(&mut self, eid: EnclaveId, token: ThreadToken, frame: Frame) -> SdkResult<usize> {
        let thread = match self.bound.entry(token) {
            Entry::Occupied(thread) => thread.into_mut(),
            Entry::Vacant(slot) => slot.insert(BoundThread {
                tcs_index: self.free_tcs.pop().ok_or(SdkError::OutOfTcs(eid))?,
                frames: Vec::new(),
            }),
        };
        thread.frames.push(frame);
        Ok(thread.tcs_index)
    }

    fn saved_table(&self, eid: EnclaveId) -> SdkResult<Arc<OcallTable>> {
        self.table
            .clone()
            .ok_or_else(|| SdkError::OcallOutsideEcall(format!("no ocall table saved for {eid}")))
    }
}

/// A loaded enclave: interface, registered trusted functions, TCS pool,
/// per-thread call stacks and the saved ocall table.
///
/// Each trusted function and the switchless subsystem are set once and
/// then read without a lock.
///
/// Created through [`Runtime::create_enclave`](crate::Runtime::create_enclave).
pub struct Enclave {
    id: EnclaveId,
    /// Shared with every enclave the runtime created from an equal
    /// interface.
    spec: Arc<InterfaceSpec>,
    machine: Arc<Machine>,
    /// One slot per declared ecall, in index order.
    ecalls: Box<[OnceLock<EcallFn>]>,
    calls: Mutex<CallState>,
    switchless: OnceLock<Arc<Switchless>>,
}

impl Enclave {
    /// The machine this enclave lives on.
    pub fn machine(&self) -> &Arc<Machine> {
        &self.machine
    }
}

impl fmt::Debug for Enclave {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Enclave")
            .field("id", &self.id)
            .field("ecalls", &self.spec.ecalls().len())
            .field("ocalls", &self.spec.ocalls().len())
            .finish()
    }
}

impl Enclave {
    pub(crate) fn new(
        id: EnclaveId,
        spec: Arc<InterfaceSpec>,
        machine: Arc<Machine>,
        tcs_count: usize,
    ) -> Enclave {
        let ecalls = spec.ecalls().iter().map(|_| OnceLock::new()).collect();
        Enclave {
            id,
            spec,
            machine,
            ecalls,
            calls: Mutex::new(CallState {
                free_tcs: (0..tcs_count).rev().collect(),
                bound: IntMap::default(),
                table: None,
            }),
            switchless: OnceLock::new(),
        }
    }

    /// The enclave's switchless subsystem, if
    /// [`Runtime::enable_switchless`](crate::Runtime::enable_switchless)
    /// set one up.
    pub fn switchless(&self) -> Option<&Arc<Switchless>> {
        self.switchless.get()
    }

    /// Installs the switchless subsystem, once.
    ///
    /// # Errors
    ///
    /// [`SdkError::SwitchlessAlreadyEnabled`] if one is installed.
    pub(crate) fn set_switchless(&self, sw: Arc<Switchless>) -> SdkResult<()> {
        (self.switchless.set(sw)).map_err(|_| SdkError::SwitchlessAlreadyEnabled(self.id))
    }

    /// The enclave id.
    pub fn id(&self) -> EnclaveId {
        self.id
    }

    /// The (effective) enclave interface, including the implicitly imported
    /// synchronisation ocalls.
    pub fn spec(&self) -> &InterfaceSpec {
        &self.spec
    }

    /// Registers the trusted implementation of a declared ecall. Each
    /// ecall takes one implementation for the enclave's lifetime.
    ///
    /// # Errors
    ///
    /// [`SdkError::BadEcall`] if the interface declares no such ecall;
    /// [`SdkError::EcallAlreadyRegistered`] if it has an implementation.
    pub fn register_ecall(
        &self,
        name: &str,
        f: impl Fn(&mut EcallCtx<'_>, &mut CallData) -> SdkResult<()> + Send + Sync + 'static,
    ) -> SdkResult<()> {
        let index = self
            .spec
            .ecall_by_name(name)
            .ok_or_else(|| SdkError::BadEcall(name.to_string()))?
            .index;
        self.ecalls[index]
            .set(Arc::new(f))
            .map_err(|_| SdkError::EcallAlreadyRegistered(name.to_string()))
    }

    pub(crate) fn ecall_impl(&self, index: usize) -> SdkResult<&EcallFn> {
        let name = || {
            self.spec
                .ecalls()
                .get(index)
                .map(|e| e.name.clone())
                .unwrap_or_else(|| format!("#{index}"))
        };
        self.ecalls
            .get(index)
            .ok_or_else(|| SdkError::BadEcall(name()))?
            .get()
            .ok_or_else(|| SdkError::UnregisteredEcall(name()))
    }

    /// The ocall table the last ecall into this enclave passed: the table
    /// its ocalls dispatch through.
    ///
    /// # Errors
    ///
    /// [`SdkError::OcallOutsideEcall`] before the first ecall, or once the
    /// enclave is destroyed.
    pub fn saved_table(&self) -> SdkResult<Arc<OcallTable>> {
        self.calls.lock().saved_table(self.id)
    }

    /// Saves the table an ecall passed "for later use"; every ecall
    /// replaces it, which is what lets a preloaded logger substitute its
    /// own. `None` drops it.
    pub(crate) fn save_table(&self, table: Option<&Arc<OcallTable>>) {
        self.calls.lock().table = table.cloned();
    }

    /// An ecall's first look at the enclave, under one lock: saves the
    /// table it passed (as [`Enclave::save_table`]) and returns the
    /// innermost frame of the calling thread's call stack.
    pub(crate) fn begin_ecall(&self, table: &Arc<OcallTable>, token: ThreadToken) -> Option<Frame> {
        let mut calls = self.calls.lock();
        calls.table = Some(Arc::clone(table));
        calls
            .bound
            .get(&token)
            .and_then(|b| b.frames.last().copied())
    }

    /// Pushes `frame` on the thread's call stack, binding a free TCS on
    /// its outermost entry (nested calls reuse the binding). Returns the
    /// TCS index.
    ///
    /// # Errors
    ///
    /// [`SdkError::OutOfTcs`] when every TCS is bound to another thread.
    pub(crate) fn enter(&self, token: ThreadToken, frame: Frame) -> SdkResult<usize> {
        self.calls.lock().push(self.id, token, frame)
    }

    /// Starts synchronous ocall `index` under one lock: reads the saved
    /// table, checks it has the entry and pushes the ocall's frame.
    /// Returns the table, which holds the entry.
    ///
    /// # Errors
    ///
    /// [`SdkError::OcallOutsideEcall`] with no saved table,
    /// [`SdkError::BadOcall`] when the table has no entry `index`, then
    /// [`SdkError::OutOfTcs`] as [`Enclave::enter`].
    fn enter_ocall(&self, token: ThreadToken, index: usize) -> SdkResult<Arc<OcallTable>> {
        let mut calls = self.calls.lock();
        let table = calls.saved_table(self.id)?;
        if table.entry(index).is_none() {
            return Err(SdkError::BadOcall(format!("#{index}")));
        }
        calls.push(self.id, token, Frame::Ocall(index))?;
        Ok(table)
    }

    /// Pops the thread's innermost frame; leaving the outermost one frees
    /// its TCS.
    pub(crate) fn exit(&self, token: ThreadToken) {
        let mut calls = self.calls.lock();
        let CallState {
            free_tcs, bound, ..
        } = &mut *calls;
        let Entry::Occupied(mut thread) = bound.entry(token) else {
            panic!("exit on a thread outside the enclave");
        };
        thread.get_mut().frames.pop();
        if thread.get().frames.is_empty() {
            free_tcs.push(thread.remove().tcs_index);
        }
    }
}

/// The trusted execution context handed to every ecall body.
///
/// Gives trusted code the operations real enclave code has: CPU time
/// ([`EcallCtx::compute`], subject to AEX injection), enclave memory
/// accesses ([`EcallCtx::touch`], subject to EPC paging), and ocalls
/// ([`EcallCtx::ocall`], dispatched through the ocall table saved by the
/// last ecall — so a logger-substituted table sees them).
pub struct EcallCtx<'a> {
    pub(crate) urts: &'a Urts,
    pub(crate) enclave: &'a Enclave,
    pub(crate) thread: ThreadCtx<'a>,
    pub(crate) tcs_index: usize,
}

impl fmt::Debug for EcallCtx<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("EcallCtx")
            .field("enclave", &self.enclave.id())
            .field("thread", &self.thread.token)
            .field("tcs", &self.tcs_index)
            .finish()
    }
}

impl<'a> EcallCtx<'a> {
    /// The enclave this code runs in.
    pub fn enclave(&self) -> &Enclave {
        self.enclave
    }

    /// The calling thread's token.
    pub fn thread_token(&self) -> ThreadToken {
        self.thread.token
    }

    /// The thread context (for spawning nested work, sync primitives).
    pub fn thread(&self) -> &ThreadCtx<'a> {
        &self.thread
    }

    /// The machine's synchronisation event bus (see [`sim_core::syncev`]).
    pub fn sync_bus(&self) -> &Arc<sim_core::SyncBus> {
        self.urts.machine().sync_bus()
    }

    /// The TCS index this thread entered on.
    pub fn tcs_index(&self) -> usize {
        self.tcs_index
    }

    /// Performs `dur` of trusted computation. Timer interrupts crossing the
    /// execution cause AEXs; returns how many were taken.
    ///
    /// # Errors
    ///
    /// Propagates hardware-layer failures.
    pub fn compute(&self, dur: Nanos) -> SdkResult<u64> {
        self.urts
            .machine()
            .execute_in_enclave(self.enclave.id(), self.thread.token, dur)
            .map_err(SdkError::from)
    }

    /// Accesses a range of enclave pages (EPC paging and MMU faults apply).
    ///
    /// # Errors
    ///
    /// Propagates hardware-layer failures (segfaults, unhandled faults).
    pub fn touch(&self, pages: Range<usize>, access: AccessKind) -> SdkResult<TouchStats> {
        self.urts
            .machine()
            .touch(self.enclave.id(), self.thread.token, pages, access)
            .map_err(SdkError::from)
    }

    /// The enclave's heap page range, for [`EcallCtx::touch`].
    pub fn heap_range(&self) -> SdkResult<Range<usize>> {
        self.urts
            .machine()
            .heap_range(self.enclave.id())
            .map_err(SdkError::from)
    }

    /// The enclave's code page range, for [`EcallCtx::touch`].
    pub fn code_range(&self) -> SdkResult<Range<usize>> {
        self.urts
            .machine()
            .code_range(self.enclave.id())
            .map_err(SdkError::from)
    }

    /// Grows the enclave heap by `pages` using SGX v2 dynamic memory
    /// (`EAUG`+`EACCEPT`) — the trusted allocator's sbrk. Returns the new
    /// pages' index range, immediately usable with [`EcallCtx::touch`].
    ///
    /// # Errors
    ///
    /// [`SdkError::Sim`] wrapping [`RequiresSgxV2`](sgx_sim::SimError) on
    /// v1 machines, or `OutOfEnclaveSpace` when the reserve is exhausted.
    pub fn sbrk(&mut self, pages: usize) -> SdkResult<Range<usize>> {
        self.urts
            .machine()
            .extend_heap(self.enclave.id(), pages)
            .map_err(SdkError::from)
    }

    /// Issues an ocall by name.
    ///
    /// # Errors
    ///
    /// [`SdkError::BadOcall`] for unknown names, plus anything the
    /// untrusted implementation returns.
    pub fn ocall(&mut self, name: &str, data: &mut CallData) -> SdkResult<()> {
        let index = self
            .enclave
            .spec()
            .ocall_by_name(name)
            .ok_or_else(|| SdkError::BadOcall(name.to_string()))?
            .index;
        self.ocall_index(index, data)
    }

    /// Issues an ocall by index — the `sgx_ocall` path of the TRTS: leave
    /// the enclave, look up the function pointer in the saved ocall table,
    /// run it, re-enter.
    ///
    /// # Errors
    ///
    /// [`SdkError::BadOcall`] if the saved table has no such index, plus
    /// anything the untrusted implementation returns.
    pub fn ocall_index(&mut self, index: usize, data: &mut CallData) -> SdkResult<()> {
        // Switchless-eligible ocalls try the ring first; a `Some` result
        // means an untrusted worker served the call and the thread never
        // left the enclave.
        if let Some(sw) = self.enclave.switchless() {
            if let Some(result) = sw.try_ocall(&self.thread, index, data) {
                return result;
            }
        }
        // A scheduled transient fault? The SDK owns the recovery: bounded
        // retries with backoff, then clean error propagation.
        let fault = {
            let machine = self.urts.machine();
            machine
                .fault_injector()
                .and_then(|inj| inj.take_ocall_fault(machine.clock().now()))
        };
        if let Some(fault) = fault {
            return self.ocall_index_faulted(index, data, fault);
        }
        self.ocall_index_sync(index, data)
    }

    /// The classic synchronous ocall path (no fault scheduled).
    fn ocall_index_sync(&mut self, index: usize, data: &mut CallData) -> SdkResult<()> {
        let machine = self.urts.machine();
        let cm = machine.cost_model();
        let table = self.enclave.enter_ocall(self.thread.token, index)?;
        // `enter_ocall` checked the index.
        let entry = &table.entries()[index];
        // EEXIT + dispatch + marshalling of [in] buffers out of the enclave.
        machine
            .clock()
            .advance(cm.eexit + cm.ocall_dispatch + cm.copy_cost(data.in_bytes));
        let mut host = HostCtx {
            urts: self.urts,
            enclave: self.enclave,
            thread: self.thread,
        };
        let result = (entry.func)(&mut host, data);
        // Return transition + marshalling of [out] buffers back in.
        machine
            .clock()
            .advance(cm.eenter + cm.copy_cost(data.out_bytes));
        self.enclave.exit(self.thread.token);
        result
    }

    /// Rides out an injected transient ocall fault: each failed attempt
    /// pays a full transition (plus the timeout delay, if any), the SDK
    /// backs off exponentially between retries, and once the fault's
    /// failure budget is consumed the real call proceeds. Exceeding
    /// [`MAX_FAULT_RETRIES`] surfaces [`SdkError::InjectedFault`]. Every
    /// step is emitted to the machine's hooks.
    fn ocall_index_faulted(
        &mut self,
        index: usize,
        data: &mut CallData,
        fault: OcallFault,
    ) -> SdkResult<()> {
        let machine = self.urts.machine();
        let (code, delay, times) = match fault {
            OcallFault::Fail { times } => (FaultKind::OcallFail { times }.code(), None, times),
            OcallFault::Timeout { delay, times } => (
                FaultKind::OcallTimeout { delay, times }.code(),
                Some(delay),
                times,
            ),
        };
        let site = FaultSite {
            machine,
            code,
            enclave: self.enclave.id(),
            thread: self.thread.token,
            call_index: Some(index),
        };
        let mut failures = 0u32;
        while failures < times {
            failures += 1;
            site.emit(
                FaultAction::Injected,
                delay.map_or(u64::from(failures), |d| d.as_nanos()),
            );
            // The failed attempt still pays the round-trip it wasted.
            let cm = machine.cost_model();
            machine
                .clock()
                .advance(cm.eexit + cm.ocall_dispatch + cm.copy_cost(data.in_bytes));
            if let Some(d) = delay {
                machine.clock().advance(d);
            }
            machine.clock().advance(cm.eenter);
            if failures > MAX_FAULT_RETRIES {
                site.emit(FaultAction::GaveUp, u64::from(failures));
                let call = self
                    .enclave
                    .spec()
                    .ocalls()
                    .get(index)
                    .map_or_else(|| format!("#{index}"), |o| o.name.clone());
                return Err(SdkError::InjectedFault {
                    call,
                    attempts: failures,
                });
            }
            let backoff = fault_backoff(failures);
            machine.clock().advance(backoff);
            site.emit(FaultAction::Retried, backoff.as_nanos());
        }
        self.ocall_index_sync(index, data)?;
        site.emit(FaultAction::Recovered, u64::from(failures));
        Ok(())
    }

    /// One spin iteration for hybrid locking: a short in-enclave busy wait
    /// followed by a scheduling yield so the lock holder can progress.
    pub fn spin_wait(&self) -> SdkResult<()> {
        self.compute(Nanos::from_nanos(50))?;
        if let Some(sim) = self.thread.sim {
            sim.yield_now();
        }
        Ok(())
    }
}
