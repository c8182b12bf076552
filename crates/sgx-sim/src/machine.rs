//! The simulated SGX machine: enclaves, EPC, AEX injection, MMU faults.

use std::fmt;
use std::ops::Range;
use std::sync::Arc;

use sim_core::fault::{FaultAction, FaultEvent, FaultInjector, FaultKind, FaultPlan};
use sim_core::sync::{AppendList, Armed, Mutex};
use sim_core::{
    Clock, CostModel, HwProfile, IntMap, LifecycleEvent, LifecycleStage, Nanos, SyncBus,
};

use crate::epc::{Epc, EvictionPolicy, PageKey, DEFAULT_EPC_PAGES};
use crate::events::{AexCause, AexEvent, DriverEvent, MmuFault, PagingDirection};
use crate::layout::{EnclaveConfig, EnclaveLayout, PageKind, PAGE_SIZE};
use crate::page::{PageState, Perms};

/// Identifier of an enclave on a [`Machine`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct EnclaveId(pub u32);

impl fmt::Display for EnclaveId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "enclave#{}", self.0)
    }
}

/// Identifier of the logical thread currently executing; assigned by the
/// runtime layer (`sgx-sdk`) from `sim-threads` ids, or `ThreadToken::MAIN`
/// for single-threaded workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct ThreadToken(pub usize);

impl ThreadToken {
    /// The implicit main thread of single-threaded workloads.
    pub const MAIN: ThreadToken = ThreadToken(0);
}

impl fmt::Display for ThreadToken {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t{}", self.0)
    }
}

/// Kind of memory access for [`Machine::touch`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessKind {
    /// Data read.
    Read,
    /// Data write.
    Write,
    /// Instruction fetch.
    Execute,
}

impl AccessKind {
    fn required_perms(self) -> Perms {
        match self {
            AccessKind::Read => Perms::READ,
            AccessKind::Write => Perms::WRITE,
            AccessKind::Execute => Perms::EXEC,
        }
    }
}

/// Errors returned by [`Machine`] operations.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum SimError {
    /// The operation needs SGX v2 (`EAUG`) but the machine is v1.
    RequiresSgxV2,
    /// A dynamic-memory request exceeded the enclave's padding reserve.
    OutOfEnclaveSpace {
        /// Offending enclave.
        enclave: EnclaveId,
        /// Pages requested.
        requested: usize,
        /// Padding pages still available.
        available: usize,
    },
    /// The enclave id does not exist (or was destroyed).
    UnknownEnclave(EnclaveId),
    /// A page index was outside the enclave.
    PageOutOfRange {
        /// Offending enclave.
        enclave: EnclaveId,
        /// The out-of-range page index.
        page: usize,
        /// The enclave's size in pages.
        total: usize,
    },
    /// An access hit a page that is never accessible (guard/padding/
    /// metadata) — a simulated segmentation fault.
    Segfault {
        /// Offending enclave.
        enclave: EnclaveId,
        /// The faulting page index.
        page: usize,
        /// The page's kind.
        kind: PageKind,
    },
    /// Permissions were stripped but no MMU fault handler is installed.
    UnhandledMmuFault {
        /// Offending enclave.
        enclave: EnclaveId,
        /// The faulting page index.
        page: usize,
    },
    /// The enclave was *lost*: its EPC contents were destroyed by a power
    /// transition or machine check. The id stays registered (so the error
    /// is distinguishable from [`SimError::UnknownEnclave`]) but every
    /// EENTER/ERESUME fails until a supervisor rebuilds it.
    EnclaveLost(EnclaveId),
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::RequiresSgxV2 => {
                write!(f, "dynamic enclave memory (EAUG) requires SGX v2")
            }
            SimError::OutOfEnclaveSpace {
                enclave,
                requested,
                available,
            } => write!(
                f,
                "{enclave} cannot grow by {requested} page(s); only {available} padding page(s) left"
            ),
            SimError::UnknownEnclave(eid) => write!(f, "unknown or destroyed {eid}"),
            SimError::PageOutOfRange {
                enclave,
                page,
                total,
            } => write!(f, "page {page} out of range for {enclave} ({total} pages)"),
            SimError::Segfault {
                enclave,
                page,
                kind,
            } => write!(
                f,
                "segmentation fault: access to {kind:?} page {page} of {enclave}"
            ),
            SimError::UnhandledMmuFault { enclave, page } => write!(
                f,
                "access fault on page {page} of {enclave} with no fault handler installed"
            ),
            SimError::EnclaveLost(eid) => write!(
                f,
                "{eid} lost: EPC contents destroyed by power transition or machine check"
            ),
        }
    }
}

impl std::error::Error for SimError {}

/// Summary of one [`Machine::touch`] call.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TouchStats {
    /// MMU access faults taken (pages whose permissions were stripped).
    pub mmu_faults: usize,
    /// EPC page faults taken (pages that had to be loaded back).
    pub page_faults: usize,
    /// Pages evicted to make room.
    pub evictions: usize,
}

/// Static information about an enclave.
#[derive(Debug, Clone)]
pub struct EnclaveInfo {
    /// The enclave id.
    pub id: EnclaveId,
    /// Base virtual address.
    pub base_vaddr: u64,
    /// Total pages (power of two).
    pub total_pages: usize,
    /// Pages that are legitimately accessible.
    pub accessible_pages: usize,
    /// Pages currently resident in the EPC.
    pub resident_pages: usize,
    /// Number of TCSs.
    pub tcs_count: usize,
    /// The enclave measurement.
    pub measurement: u64,
    /// Whether this is a debug enclave.
    pub debug: bool,
}

/// Which SGX architecture revision the machine implements.
///
/// The paper targets SGX v1 but discusses two v2 capabilities: recording
/// the AEX exit type so the logger can attribute exits (§4.1.4), and
/// dynamic enclave memory (`EAUG`) so enclaves can start small and grow
/// on demand (§2.3.3). Both are implemented behind this switch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SgxVersion {
    /// SGX v1: fixed enclave memory, opaque AEX causes.
    #[default]
    V1,
    /// SGX v2: `EAUG` dynamic memory; AEX causes readable from debug
    /// enclaves.
    V2,
}

/// Settings of the simulated machine that do not depend on the CPU
/// profile.
#[derive(Debug, Clone)]
pub struct MachineParams {
    /// EPC capacity in pages (default: 93 MiB usable).
    pub epc_pages: usize,
    /// Eviction policy.
    pub eviction: EvictionPolicy,
    /// SGX architecture revision.
    pub sgx_version: SgxVersion,
}

impl Default for MachineParams {
    fn default() -> Self {
        MachineParams {
            epc_pages: DEFAULT_EPC_PAGES,
            eviction: EvictionPolicy::Fifo,
            sgx_version: SgxVersion::V1,
        }
    }
}

/// Cost of `EADD`+`EEXTEND` per page at enclave creation.
const EADD_PAGE: Nanos = Nanos::from_nanos(1_200);
/// Cost of `EINIT`.
const EINIT: Nanos = Nanos::from_micros(50);
/// Kernel-side cost of delivering one MMU access fault to the handler.
const MMU_FAULT_DELIVERY: Nanos = Nanos::from_micros(2);
/// Cost of `EAUG`+`EACCEPT` per dynamically added page (v2 only).
const EAUG_PAGE: Nanos = Nanos::from_micros(2);

struct EnclaveState {
    layout: EnclaveLayout,
    pages: Vec<PageState>,
    debug: bool,
    /// The enclave's EPC contents were destroyed; every entry fails until
    /// a supervisor destroys and rebuilds it.
    lost: bool,
    /// An armed `epc_poison` fired at an earlier entry: the *next* EENTER
    /// finds the enclave lost.
    poisoned: bool,
}

struct Inner {
    /// The only record of which pages are resident.
    epc: Epc,
    enclaves: IntMap<u32, EnclaveState>,
    next_eid: u32,
}

impl Inner {
    /// Makes an `access` to page `index` of enclave `eid` if it takes no
    /// fault (the page is accessible, its MMU permissions allow the access
    /// and it is resident), touching the page in the EPC's replacement
    /// order. Returns whether it did; `false` changes nothing.
    ///
    /// # Errors
    ///
    /// Those of [`Machine::live_page`].
    fn access_resident(
        &mut self,
        eid: EnclaveId,
        index: usize,
        access: AccessKind,
    ) -> Result<bool, SimError> {
        let page = Machine::live_page(self, eid, index)?;
        let key = (eid, index);
        let hit = page.kind.is_accessible()
            && page.mmu_perms.allows(access.required_perms())
            && self.epc.contains(key);
        if hit {
            self.epc.touch(key);
        }
        Ok(hit)
    }
}

/// Virtual address of page `index` of enclave `eid`. Each enclave owns
/// the 64 GiB range one step above its id.
fn vaddr(eid: EnclaveId, index: usize) -> u64 {
    ((u64::from(eid.0) + 1) << 36) + (index * PAGE_SIZE) as u64
}

type DriverHook = Arc<dyn Fn(&DriverEvent) + Send + Sync>;
type FaultHandler = Arc<dyn Fn(&MmuFault) + Send + Sync>;

/// A simulated SGX-capable machine: shared virtual clock, one EPC, any
/// number of enclaves, and the hook points sgx-perf instruments.
///
/// The machine is `Send + Sync`; under the deterministic scheduler only one
/// logical thread calls into it at a time.
///
/// # Examples
///
/// ```
/// use sgx_sim::{AccessKind, EnclaveConfig, Machine, ThreadToken};
/// use sim_core::{Clock, HwProfile, Nanos};
///
/// let machine = Machine::new(Clock::new(), HwProfile::Unpatched);
/// let eid = machine.create_enclave(&EnclaveConfig::default())?;
/// // Touch the whole heap: everything is resident, so no faults.
/// let heap = machine.heap_range(eid)?;
/// let stats = machine.touch(eid, ThreadToken::MAIN, heap, AccessKind::Write)?;
/// assert_eq!(stats.page_faults, 0);
/// # Ok::<(), sgx_sim::SimError>(())
/// ```
pub struct Machine {
    clock: Clock,
    cost: CostModel,
    params: MachineParams,
    inner: Mutex<Inner>,
    /// The driver hooks in registration order; `emit` walks them without
    /// a lock or a reference count.
    driver_hooks: AppendList<DriverHook>,
    mmu_fault: Mutex<Option<FaultHandler>>,
    /// Polled at every EENTER, in-enclave run, TCS bind and switchless
    /// post; with no plan armed that is one load.
    fault: Armed<FaultInjector>,
    sync_bus: Arc<SyncBus>,
}

impl fmt::Debug for Machine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let inner = self.inner.lock();
        f.debug_struct("Machine")
            .field("profile", &self.cost.profile)
            .field("enclaves", &inner.enclaves.len())
            .field("epc_resident", &inner.epc.resident_count())
            .finish()
    }
}

impl Machine {
    /// Creates a machine with default parameters for the given hardware
    /// profile.
    pub fn new(clock: Clock, profile: HwProfile) -> Machine {
        Machine::with_params(clock, profile, MachineParams::default())
    }

    /// Creates a machine with explicit parameters (EPC size, eviction
    /// policy, creation costs).
    pub fn with_params(clock: Clock, profile: HwProfile, params: MachineParams) -> Machine {
        let sync_bus = Arc::new(SyncBus::new(clock.clone()));
        Machine {
            clock,
            cost: profile.cost_model(),
            inner: Mutex::new(Inner {
                epc: Epc::new(params.epc_pages, params.eviction),
                enclaves: IntMap::default(),
                next_eid: 1,
            }),
            params,
            driver_hooks: AppendList::new(),
            mmu_fault: Mutex::new(None),
            fault: Armed::new(),
            sync_bus,
        }
    }

    /// The machine's virtual clock.
    pub fn clock(&self) -> &Clock {
        &self.clock
    }

    /// The machine's synchronisation event bus (see [`sim_core::syncev`]).
    pub fn sync_bus(&self) -> &Arc<SyncBus> {
        &self.sync_bus
    }

    /// The CPU cost model in effect.
    pub fn cost_model(&self) -> &CostModel {
        &self.cost
    }

    /// The machine parameters in effect.
    pub fn params(&self) -> &MachineParams {
        &self.params
    }

    /// Total EPC capacity in pages.
    pub fn epc_capacity(&self) -> usize {
        self.inner.lock().epc.capacity()
    }

    /// Pages currently resident in the EPC across all enclaves.
    pub fn epc_resident(&self) -> usize {
        self.inner.lock().epc.resident_count()
    }

    /// Whether a specific enclave page is currently resident.
    pub fn is_resident(&self, eid: EnclaveId, page: usize) -> Result<bool, SimError> {
        let inner = self.inner.lock();
        Self::state(&inner, eid)?;
        Ok(inner.epc.contains((eid, page)))
    }

    // ------------------------------------------------------------------
    // Enclave lifecycle
    // ------------------------------------------------------------------

    /// Creates and initialises an enclave (`ECREATE` + `EADD`/`EEXTEND` per
    /// page + `EINIT`), loading all its pages into the EPC. Charges creation
    /// time and may evict pages of other enclaves if the EPC is full.
    pub fn create_enclave(&self, config: &EnclaveConfig) -> Result<EnclaveId, SimError> {
        let layout = EnclaveLayout::new(config);
        let total = layout.total_pages();
        let mut events = Vec::new();
        let eid = {
            let mut inner = self.inner.lock();
            let eid = EnclaveId(inner.next_eid);
            inner.next_eid += 1;
            // An enclave larger than the EPC evicts its own earlier pages.
            for index in 0..total {
                self.page_in(&mut inner.epc, (eid, index), &mut events);
            }
            inner.enclaves.insert(
                eid.0,
                EnclaveState {
                    pages: layout.iter().map(PageState::new).collect(),
                    layout,
                    debug: config.debug,
                    lost: false,
                    poisoned: false,
                },
            );
            events.push(DriverEvent::EnclaveCreated {
                enclave: eid,
                pages: total,
                time: self.clock.now(),
            });
            eid
        };
        self.clock.advance(EADD_PAGE * total as u64 + EINIT);
        self.emit(&events);
        Ok(eid)
    }

    /// Destroys an enclave and frees its EPC pages.
    pub fn destroy_enclave(&self, eid: EnclaveId) -> Result<(), SimError> {
        let mut inner = self.inner.lock();
        if inner.enclaves.remove(&eid.0).is_none() {
            return Err(SimError::UnknownEnclave(eid));
        }
        inner.epc.remove_enclave(eid);
        Ok(())
    }

    /// Static and residency information about an enclave. O(1): the
    /// resident count is the EPC's and the rest is fixed at creation.
    pub fn enclave_info(&self, eid: EnclaveId) -> Result<EnclaveInfo, SimError> {
        let inner = self.inner.lock();
        let st = Self::state(&inner, eid)?;
        Ok(EnclaveInfo {
            id: eid,
            base_vaddr: vaddr(eid, 0),
            total_pages: st.layout.total_pages(),
            accessible_pages: st.layout.accessible_pages(),
            resident_pages: inner.epc.resident_of(eid),
            tcs_count: st.layout.tcs_count(),
            measurement: st.layout.measurement(),
            debug: st.debug,
        })
    }

    /// The enclave's heap page range.
    pub fn heap_range(&self, eid: EnclaveId) -> Result<Range<usize>, SimError> {
        let inner = self.inner.lock();
        Ok(Self::state(&inner, eid)?.layout.heap_range())
    }

    /// The enclave's code page range.
    pub fn code_range(&self, eid: EnclaveId) -> Result<Range<usize>, SimError> {
        let inner = self.inner.lock();
        Ok(Self::state(&inner, eid)?.layout.code_range())
    }

    // ------------------------------------------------------------------
    // Hooks (what sgx-perf instruments)
    // ------------------------------------------------------------------

    /// Registers a machine hook: the kprobe on the driver and the patched
    /// AEP in one. Every hook receives every [`DriverEvent`], in emission
    /// order, on the emitting thread — paging and enclave creation, each
    /// AEX before its `ERESUME`, and the fault, lifecycle and switchless
    /// events the machine and the SDK report through [`Machine::emit`].
    /// Hooks fire in registration order; one may be added at any time.
    pub fn add_driver_hook(&self, hook: DriverHook) {
        self.driver_hooks.push(hook);
    }

    /// Delivers `events` to every registered hook. The machine calls it
    /// for its own events; the SDK calls it for its fault-recovery,
    /// supervisor and switchless events.
    pub fn emit(&self, events: &[DriverEvent]) {
        if events.is_empty() {
            return;
        }
        for hook in self.driver_hooks.iter() {
            for ev in events {
                hook(ev);
            }
        }
    }

    /// Installs the MMU access-fault handler used by the working-set
    /// estimator. After the handler runs the machine restores the page's
    /// natural permissions and retries the access.
    pub fn set_mmu_fault_handler(&self, handler: Option<FaultHandler>) {
        *self.mmu_fault.lock() = handler;
    }

    /// Arms a deterministic fault plan (or disarms injection with `None`).
    /// The plan's seed is consumed immediately to fix fault magnitudes;
    /// see [`sim_core::fault`] for the determinism contract. With no plan
    /// armed every injection site is a structural no-op.
    pub fn set_fault_plan(&self, plan: Option<&FaultPlan>) {
        self.fault
            .set(plan.map(|p| Arc::new(FaultInjector::new(p))));
    }

    /// The armed fault injector, if any. SDK layers poll this at their
    /// own injection sites (ocalls, switchless, TCS binding). With no
    /// plan armed it costs one atomic load.
    #[inline]
    pub fn fault_injector(&self) -> Option<Arc<FaultInjector>> {
        self.fault.get()
    }

    /// Strips all MMU permissions from every accessible page of the
    /// enclave. Subsequent accesses fault into the registered handler.
    pub fn strip_mmu_perms(&self, eid: EnclaveId) -> Result<usize, SimError> {
        let mut inner = self.inner.lock();
        let st = Self::state_mut(&mut inner, eid)?;
        let mut stripped = 0;
        for page in st.pages.iter_mut() {
            if page.kind.is_accessible() && !page.mmu_perms.is_none() {
                page.mmu_perms = Perms::NONE;
                stripped += 1;
            }
        }
        Ok(stripped)
    }

    /// Restores natural MMU permissions on every page of the enclave.
    pub fn restore_mmu_perms(&self, eid: EnclaveId) -> Result<(), SimError> {
        let mut inner = self.inner.lock();
        let st = Self::state_mut(&mut inner, eid)?;
        for page in st.pages.iter_mut() {
            page.mmu_perms = page.kind.natural_perms();
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Execution
    // ------------------------------------------------------------------

    /// One EENTER: the entry gate every ecall dispatch passes through
    /// before any transition cost is charged.
    ///
    /// Checks that the enclave is not lost, applies a pending
    /// `epc_poison` (the previous poll's poison destroys the enclave
    /// *now*, before this entry), and polls the fault injector's entry
    /// site — a due `enclave_lost` fails this very entry, a due
    /// `epc_poison` lets it proceed but dooms the next one.
    ///
    /// # Errors
    ///
    /// [`SimError::EnclaveLost`] when the enclave is (or just became)
    /// lost; [`SimError::UnknownEnclave`] when it never existed.
    pub fn enter_enclave(&self, eid: EnclaveId, thread: ThreadToken) -> Result<(), SimError> {
        let pending_poison = {
            let inner = self.inner.lock();
            let st = Self::state(&inner, eid)?;
            if st.lost {
                return Err(SimError::EnclaveLost(eid));
            }
            st.poisoned
        };
        if pending_poison {
            self.mark_lost(eid, thread, FaultKind::EpcPoison.code());
            return Err(SimError::EnclaveLost(eid));
        }
        if let Some(inj) = self.fault_injector() {
            let due = inj.on_eenter(self.clock.now());
            if due.poison {
                // The poisoning entry itself still succeeds; the damage
                // surfaces at the next EENTER.
                let mut inner = self.inner.lock();
                if let Ok(st) = Self::state_mut(&mut inner, eid) {
                    st.poisoned = true;
                }
                drop(inner);
                self.emit(&[self.injected(eid, thread, FaultKind::EpcPoison.code(), 0)]);
            }
            if due.lost {
                self.mark_lost(eid, thread, FaultKind::EnclaveLost.code());
                return Err(SimError::EnclaveLost(eid));
            }
        }
        Ok(())
    }

    /// Destroys the enclave's EPC contents in place: every resident page is
    /// dropped (silently — there is no EWB for vanished contents, so no
    /// paging events), the enclave is flagged lost, and the loss is
    /// reported to the hooks as a fault and a lifecycle stage. The id
    /// stays registered so subsequent entries fail with
    /// [`SimError::EnclaveLost`] until a supervisor rebuilds the enclave.
    fn mark_lost(&self, eid: EnclaveId, thread: ThreadToken, fault_code: u8) {
        {
            let mut inner = self.inner.lock();
            let Ok(st) = Self::state_mut(&mut inner, eid) else {
                return;
            };
            if st.lost {
                return;
            }
            st.lost = true;
            st.poisoned = false;
            inner.epc.remove_enclave(eid);
        }
        let lost = DriverEvent::Lifecycle(LifecycleEvent {
            stage: LifecycleStage::Lost,
            enclave: eid.0,
            thread: thread.0 as u64,
            attempt: 0,
            magnitude: 0,
            time: self.clock.now(),
        });
        self.emit(&[self.injected(eid, thread, fault_code, 0), lost]);
    }

    /// Whether the enclave is currently lost.
    pub fn is_lost(&self, eid: EnclaveId) -> Result<bool, SimError> {
        let inner = self.inner.lock();
        Ok(Self::state(&inner, eid)?.lost)
    }

    /// Runs `dur` of in-enclave computation, injecting a timer-interrupt
    /// AEX each time the virtual clock crosses a timer quantum boundary.
    /// Returns the number of AEXs taken.
    pub fn execute_in_enclave(
        &self,
        eid: EnclaveId,
        thread: ThreadToken,
        dur: Nanos,
    ) -> Result<u64, SimError> {
        {
            let inner = self.inner.lock();
            let st = Self::state(&inner, eid)?;
            if st.lost {
                return Err(SimError::EnclaveLost(eid));
            }
        }
        let mut aex_count = 0;
        if let Some(inj) = self.fault_injector() {
            let faults = inj.on_enclave_exec(self.clock.now());
            if faults.lost {
                // A time-triggered loss lands mid-execution: the thread is
                // unwound with an AEX-style exit whose ERESUME never
                // happens — charge only the exit, emit no AEX (there is
                // no enclave left to resume into).
                self.clock.advance(self.cost.aex_exit);
                self.mark_lost(eid, thread, FaultKind::EnclaveLost.code());
                return Err(SimError::EnclaveLost(eid));
            }
            if let Some(burst) = faults.aex_storm {
                let code = FaultKind::AexStorm { count: burst }.code();
                self.emit(&[self.injected(eid, thread, code, u64::from(burst))]);
                for _ in 0..burst {
                    self.deliver_aex(eid, thread, AexCause::Interrupt);
                }
                aex_count += u64::from(burst);
            }
            if faults.evict_storm {
                let evicted = self.evict_all(eid)?;
                let code = FaultKind::EvictStorm.code();
                self.emit(&[self.injected(eid, thread, code, evicted as u64)]);
            }
        }
        let quantum = self.cost.timer_quantum.as_nanos();
        let mut remaining = dur.as_nanos();
        while remaining > 0 {
            let now = self.clock.now().as_nanos();
            let next_tick = (now / quantum + 1) * quantum;
            let until_tick = next_tick - now;
            if remaining < until_tick {
                self.clock.advance(Nanos::from_nanos(remaining));
                break;
            }
            self.clock.advance(Nanos::from_nanos(until_tick));
            remaining -= until_tick;
            self.deliver_aex(eid, thread, AexCause::Interrupt);
            aex_count += 1;
        }
        Ok(aex_count)
    }

    /// Accesses a range of enclave pages, taking MMU access faults and EPC
    /// page faults as needed. Returns fault statistics.
    ///
    /// # Errors
    ///
    /// * [`SimError::Segfault`] if the range includes guard, padding or
    ///   metadata pages.
    /// * [`SimError::UnhandledMmuFault`] if permissions were stripped but no
    ///   fault handler is installed.
    pub fn touch(
        &self,
        eid: EnclaveId,
        thread: ThreadToken,
        pages: Range<usize>,
        access: AccessKind,
    ) -> Result<TouchStats, SimError> {
        let mut stats = TouchStats::default();
        for index in pages {
            self.touch_page(eid, thread, index, access, &mut stats)?;
        }
        Ok(stats)
    }

    /// The two accesses every EENTER on enclave thread `tcs_index` makes:
    /// a read of its TCS page, then a write of the first page of its
    /// stack. `Ok(false)` when the enclave has no TCS `tcs_index`.
    ///
    /// A page that takes no fault is touched under the lock that found
    /// the thread's pages, so an entry whose two pages are resident with
    /// their natural permissions takes one lock. A page that faults goes
    /// through [`Machine::touch`]'s path, with the same faults, events
    /// and virtual time.
    ///
    /// # Errors
    ///
    /// [`SimError::UnknownEnclave`], plus whatever [`Machine::touch`]
    /// returns for either page.
    pub fn touch_entry_pages(
        &self,
        eid: EnclaveId,
        thread: ThreadToken,
        tcs_index: usize,
    ) -> Result<bool, SimError> {
        let mut inner = self.inner.lock();
        let Some(t) = Self::state(&inner, eid)?
            .layout
            .thread_pages()
            .get(tcs_index)
        else {
            return Ok(false);
        };
        let (tcs, stack) = (t.tcs, t.stack.start);
        // EENTER's faults are charged and emitted, not counted.
        let mut stats = TouchStats::default();
        if !inner.access_resident(eid, tcs, AccessKind::Read)? {
            drop(inner);
            self.touch_page(eid, thread, tcs, AccessKind::Read, &mut stats)?;
            inner = self.inner.lock();
        }
        if !inner.access_resident(eid, stack, AccessKind::Write)? {
            drop(inner);
            self.touch_page(eid, thread, stack, AccessKind::Write, &mut stats)?;
        }
        Ok(true)
    }

    fn touch_page(
        &self,
        eid: EnclaveId,
        thread: ThreadToken,
        index: usize,
        access: AccessKind,
        stats: &mut TouchStats,
    ) -> Result<(), SimError> {
        let mut inner = self.inner.lock();
        if inner.access_resident(eid, index, access)? {
            return Ok(());
        }
        let page = Self::live_page(&inner, eid, index)?;
        if !page.kind.is_accessible() {
            return Err(SimError::Segfault {
                enclave: eid,
                page: index,
                kind: page.kind,
            });
        }
        let key = (eid, index);
        // The MMU permissions are checked before the SGX (EPCM) ones
        // (§4.2); a stripped page faults even if resident.
        if !page.mmu_perms.allows(access.required_perms()) {
            drop(inner);
            self.handle_mmu_fault(eid, thread, index)?;
            stats.mmu_faults += 1;
            // The handler (working-set estimator) restores permissions so
            // the access can proceed; the machine performs the actual
            // restore.
            inner = self.inner.lock();
            let page = &mut Self::state_mut(&mut inner, eid)?.pages[index];
            page.mmu_perms = page.kind.natural_perms();
            if inner.epc.contains(key) {
                inner.epc.touch(key);
                return Ok(());
            }
        }
        // EPC page fault: page the page back in, evicting if needed.
        let mut events = Vec::new();
        let evicted = self.page_in(&mut inner.epc, key, &mut events);
        drop(inner);
        events.push(self.paging_event(PagingDirection::In, key));
        stats.page_faults += 1;
        stats.evictions += usize::from(evicted);
        // The fault exits the enclave asynchronously, the driver does the
        // (costly) paging work, then the enclave resumes.
        self.deliver_aex(eid, thread, AexCause::PageFault);
        let (cost, opened) = self.paging_cost(eid, thread, evicted);
        self.emit(opened.as_slice());
        self.clock.advance(cost);
        // Stamp events after the cost so timestamps reflect completion.
        for ev in &mut events {
            if let DriverEvent::Paging { time, .. } = ev {
                *time = self.clock.now();
            }
        }
        self.emit(&events);
        Ok(())
    }

    /// Whether the AEX cause is observable by tooling for this enclave:
    /// SGX v2 records the exit type, readable when the enclave is a debug
    /// enclave (§4.1.4).
    pub fn aex_cause_visible(&self, eid: EnclaveId) -> bool {
        if self.params.sgx_version != SgxVersion::V2 {
            return false;
        }
        let inner = self.inner.lock();
        Self::state(&inner, eid).map(|st| st.debug).unwrap_or(false)
    }

    /// SGX v2 dynamic memory (`EAUG`+`EACCEPT`): converts up to `pages`
    /// of the enclave's padding reserve into usable heap, returning the
    /// new pages' index range. The enclave's measured size is unchanged —
    /// only pre-reserved address space is populated (§2.3.3: "the enclave
    /// can be created small and ... new pages may be added on-demand").
    ///
    /// # Errors
    ///
    /// [`SimError::RequiresSgxV2`] on a v1 machine;
    /// [`SimError::EnclaveLost`] when the enclave is lost (nothing is
    /// paged in, charged or emitted);
    /// [`SimError::OutOfEnclaveSpace`] when the padding reserve is too
    /// small.
    pub fn extend_heap(&self, eid: EnclaveId, pages: usize) -> Result<Range<usize>, SimError> {
        if self.params.sgx_version != SgxVersion::V2 {
            return Err(SimError::RequiresSgxV2);
        }
        let mut events = Vec::new();
        let range = {
            let mut inner = self.inner.lock();
            let Inner { epc, enclaves, .. } = &mut *inner;
            let st = enclaves
                .get_mut(&eid.0)
                .ok_or(SimError::UnknownEnclave(eid))?;
            if st.lost {
                return Err(SimError::EnclaveLost(eid));
            }
            // The padding reserve is the enclave's tail (the layout pads
            // at the end and each call converts its first pages).
            let total = st.pages.len();
            let first = st
                .pages
                .iter()
                .position(|p| p.kind == PageKind::Padding)
                .unwrap_or(total);
            if total - first < pages {
                return Err(SimError::OutOfEnclaveSpace {
                    enclave: eid,
                    requested: pages,
                    available: total - first,
                });
            }
            for index in first..first + pages {
                self.page_in(epc, (eid, index), &mut events);
                st.pages[index] = PageState::new(PageKind::Heap);
            }
            first..first + pages
        };
        self.clock.advance(EAUG_PAGE * pages as u64);
        self.emit(&events);
        Ok(range)
    }

    /// Loads a range of enclave pages into the EPC from *outside* enclave
    /// execution (the §3.5(ii) mitigation: "load pages before the ecall").
    /// Unlike [`Machine::touch`], faults taken here cost no AEX — the
    /// processor is not inside the enclave — and MMU permissions are not
    /// consulted (the driver populates the EPC directly). Returns how many
    /// pages were paged in.
    pub fn prefetch(&self, eid: EnclaveId, pages: Range<usize>) -> Result<usize, SimError> {
        let mut paged_in = 0;
        for index in pages {
            let key = (eid, index);
            let mut events = Vec::new();
            let opened = {
                let mut inner = self.inner.lock();
                Self::live_page(&inner, eid, index)?;
                if inner.epc.contains(key) {
                    inner.epc.touch(key);
                    continue;
                }
                let evicted = self.page_in(&mut inner.epc, key, &mut events);
                // EWB/ELDU slowdowns hit driver-side paging too.
                let (cost, opened) = self.paging_cost(eid, ThreadToken::MAIN, evicted);
                self.clock.advance(cost);
                events.push(self.paging_event(PagingDirection::In, key));
                opened
            };
            paged_in += 1;
            self.emit(opened.as_slice());
            self.emit(&events);
        }
        Ok(paged_in)
    }

    /// Forces eviction of every resident page of the enclave (used by
    /// experiments to start from a cold EPC without destroying the
    /// enclave). Charges no time: models the driver reclaiming pages while
    /// the enclave is idle.
    pub fn evict_all(&self, eid: EnclaveId) -> Result<usize, SimError> {
        let events: Vec<DriverEvent> = {
            let mut inner = self.inner.lock();
            let total = Self::state(&inner, eid)?.layout.total_pages();
            let events = (0..total)
                .filter(|&index| inner.epc.contains((eid, index)))
                .map(|index| self.paging_event(PagingDirection::Out, (eid, index)))
                .collect();
            inner.epc.remove_enclave(eid);
            events
        };
        self.emit(&events);
        Ok(events.len())
    }

    // ------------------------------------------------------------------
    // Internals
    // ------------------------------------------------------------------

    fn state(inner: &Inner, eid: EnclaveId) -> Result<&EnclaveState, SimError> {
        inner
            .enclaves
            .get(&eid.0)
            .ok_or(SimError::UnknownEnclave(eid))
    }

    fn state_mut(inner: &mut Inner, eid: EnclaveId) -> Result<&mut EnclaveState, SimError> {
        inner
            .enclaves
            .get_mut(&eid.0)
            .ok_or(SimError::UnknownEnclave(eid))
    }

    /// Page `index` of enclave `eid`, which must not be lost.
    fn live_page(inner: &Inner, eid: EnclaveId, index: usize) -> Result<&PageState, SimError> {
        let st = Self::state(inner, eid)?;
        if st.lost {
            return Err(SimError::EnclaveLost(eid));
        }
        let total = st.layout.total_pages();
        if index >= total {
            return Err(SimError::PageOutOfRange {
                enclave: eid,
                page: index,
                total,
            });
        }
        Ok(&st.pages[index])
    }

    /// Makes `key` resident, recording the page-out of the victim it
    /// evicts, if any. Returns whether it evicted one.
    fn page_in(&self, epc: &mut Epc, key: PageKey, events: &mut Vec<DriverEvent>) -> bool {
        let victim = epc.insert(key);
        if let Some(victim) = victim {
            events.push(self.paging_event(PagingDirection::Out, victim));
        }
        victim.is_some()
    }

    /// What paging one page in costs: an `ELDU`, plus an `EWB` when it
    /// `evicted` a page, inflated by any active `paging-slow` window.
    /// Also returns the fault event of the poll that opens the window.
    fn paging_cost(
        &self,
        eid: EnclaveId,
        thread: ThreadToken,
        evicted: bool,
    ) -> (Nanos, Option<DriverEvent>) {
        let mut cost = self.cost.page_in;
        if evicted {
            cost += self.cost.page_out;
        }
        let Some(slow) = self
            .fault_injector()
            .and_then(|inj| inj.paging_slowdown(self.clock.now()))
        else {
            return (cost, None);
        };
        let opened = slow
            .opened
            .then(|| self.injected(eid, thread, paging_slow_code(), slow.factor as u64));
        (cost.scale(slow.factor), opened)
    }

    fn paging_event(&self, direction: PagingDirection, key: PageKey) -> DriverEvent {
        DriverEvent::Paging {
            direction,
            enclave: key.0,
            vaddr: vaddr(key.0, key.1),
            time: self.clock.now(),
        }
    }

    /// A fault the machine injected into `eid` on `thread`, stamped now.
    fn injected(
        &self,
        eid: EnclaveId,
        thread: ThreadToken,
        code: u8,
        magnitude: u64,
    ) -> DriverEvent {
        DriverEvent::Fault(FaultEvent {
            code,
            action: FaultAction::Injected,
            enclave: eid.0,
            thread: thread.0 as u64,
            call_index: None,
            magnitude,
            time: self.clock.now(),
        })
    }

    /// Delivers one AEX: charges the exit, emits it to the hooks (the
    /// logger's AEP patch point), charges the resume.
    fn deliver_aex(&self, eid: EnclaveId, thread: ThreadToken, cause: AexCause) {
        self.clock.advance(self.cost.aex_exit);
        self.emit(&[DriverEvent::Aex(AexEvent {
            enclave: eid,
            thread,
            time: self.clock.now(),
            cause,
        })]);
        self.clock.advance(self.cost.eresume);
    }

    fn handle_mmu_fault(
        &self,
        eid: EnclaveId,
        thread: ThreadToken,
        index: usize,
    ) -> Result<(), SimError> {
        let handler = self.mmu_fault.lock().clone();
        let Some(handler) = handler else {
            return Err(SimError::UnhandledMmuFault {
                enclave: eid,
                page: index,
            });
        };
        // Faulting inside the enclave causes an AEX before the kernel can
        // deliver the signal.
        self.deliver_aex(eid, thread, AexCause::AccessFault);
        self.clock.advance(MMU_FAULT_DELIVERY);
        handler(&MmuFault {
            enclave: eid,
            thread,
            page_index: index,
            vaddr: vaddr(eid, index),
            time: self.clock.now(),
        });
        Ok(())
    }
}

/// The fault code of an EWB/ELDU slowdown (a code names only the kind).
fn paging_slow_code() -> u8 {
    FaultKind::PagingSlow {
        factor: 0,
        duration: Nanos::ZERO,
    }
    .code()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn machine() -> Machine {
        Machine::new(Clock::new(), HwProfile::Unpatched)
    }

    fn tiny_machine(epc_pages: usize) -> Machine {
        Machine::with_params(
            Clock::new(),
            HwProfile::Unpatched,
            MachineParams {
                epc_pages,
                ..MachineParams::default()
            },
        )
    }

    /// Registers a hook that appends `id` to `log` for every enclave
    /// creation it hears.
    fn creation_logger(m: &Machine, log: &Arc<Mutex<Vec<usize>>>, id: usize) {
        let log = Arc::clone(log);
        m.add_driver_hook(Arc::new(move |ev| {
            if let DriverEvent::EnclaveCreated { .. } = ev {
                log.lock().push(id);
            }
        }));
    }

    #[test]
    fn driver_hooks_fire_in_registration_order() {
        let m = machine();
        let log = Arc::new(Mutex::new(Vec::new()));
        creation_logger(&m, &log, 0);
        creation_logger(&m, &log, 1);
        m.create_enclave(&EnclaveConfig::default()).unwrap();
        // A hook added after emissions began hears every later event,
        // after the hooks registered before it.
        creation_logger(&m, &log, 2);
        m.create_enclave(&EnclaveConfig::default()).unwrap();
        assert_eq!(*log.lock(), [0, 1, 0, 1, 2]);
    }

    #[test]
    fn hooks_added_from_many_threads_keep_each_threads_order() {
        let m = Arc::new(machine());
        let log = Arc::new(Mutex::new(Vec::new()));
        std::thread::scope(|scope| {
            for t in 0..4 {
                let (m, log) = (&m, &log);
                scope.spawn(move || {
                    for i in 0..25 {
                        creation_logger(m, log, t * 100 + i);
                    }
                });
            }
        });
        m.create_enclave(&EnclaveConfig::default()).unwrap();
        let heard = log.lock().clone();
        assert_eq!(heard.len(), 100);
        for t in 0..4 {
            let mine: Vec<usize> = heard.iter().copied().filter(|id| id / 100 == t).collect();
            assert_eq!(mine, (0..25).map(|i| t * 100 + i).collect::<Vec<_>>());
        }
    }

    #[test]
    fn a_fault_plan_rearms_and_a_disarmed_one_injects_nothing() {
        let m = machine();
        let eid = m.create_enclave(&EnclaveConfig::default()).unwrap();
        let faults = Arc::new(AtomicUsize::new(0));
        let counter = Arc::clone(&faults);
        m.add_driver_hook(Arc::new(move |ev| {
            if let DriverEvent::Fault(_) = ev {
                counter.fetch_add(1, Ordering::SeqCst);
            }
        }));
        let run = || {
            m.enter_enclave(eid, ThreadToken::MAIN).unwrap();
            m.execute_in_enclave(eid, ThreadToken::MAIN, Nanos::from_nanos(10))
                .unwrap()
        };
        let plan: FaultPlan = "seed=1;aex-storm@call=1:count=2".parse().unwrap();

        m.set_fault_plan(Some(&plan));
        assert!(run() > 0, "the armed storm fires at the first run");
        assert_eq!(faults.load(Ordering::SeqCst), 1);

        m.set_fault_plan(None);
        assert!(m.fault_injector().is_none());
        for _ in 0..3 {
            assert_eq!(run(), 0);
        }
        assert_eq!(faults.load(Ordering::SeqCst), 1, "a disarmed plan injects");

        // Re-arming builds a fresh injector: its first run fires again.
        m.set_fault_plan(Some(&plan));
        assert!(m.fault_injector().is_some());
        assert!(run() > 0);
        assert_eq!(faults.load(Ordering::SeqCst), 2);
    }

    #[test]
    fn create_enclave_loads_all_pages() {
        let m = machine();
        let eid = m.create_enclave(&EnclaveConfig::default()).unwrap();
        let info = m.enclave_info(eid).unwrap();
        assert_eq!(info.resident_pages, info.total_pages);
        assert!(info.total_pages.is_power_of_two());
    }

    #[test]
    fn creation_charges_time() {
        let m = machine();
        let before = m.clock().now();
        m.create_enclave(&EnclaveConfig::default()).unwrap();
        assert!(m.clock().now() > before);
    }

    #[test]
    fn destroy_frees_epc() {
        let m = machine();
        let eid = m.create_enclave(&EnclaveConfig::default()).unwrap();
        m.destroy_enclave(eid).unwrap();
        assert!(matches!(
            m.enclave_info(eid),
            Err(SimError::UnknownEnclave(_))
        ));
    }

    #[test]
    fn touch_resident_pages_is_fault_free() {
        let m = machine();
        let eid = m.create_enclave(&EnclaveConfig::default()).unwrap();
        let heap = m.heap_range(eid).unwrap();
        let stats = m
            .touch(eid, ThreadToken::MAIN, heap, AccessKind::Write)
            .unwrap();
        assert_eq!(stats, TouchStats::default());
    }

    #[test]
    fn touching_guard_page_segfaults() {
        let m = machine();
        let eid = m.create_enclave(&EnclaveConfig::default()).unwrap();
        // The page right before the first stack is a guard page.
        let info = m.enclave_info(eid).unwrap();
        // Skip page 0 (metadata, also inaccessible) to find a real guard.
        let guard = (1..info.total_pages)
            .find(|&i| {
                matches!(
                    m.touch(eid, ThreadToken::MAIN, i..i + 1, AccessKind::Read),
                    Err(SimError::Segfault { .. })
                )
            })
            .expect("layout contains a guard/padding page");
        assert!(guard > 0);
    }

    #[test]
    fn page_fault_after_eviction_costs_time_and_emits_events() {
        let m = machine();
        let eid = m.create_enclave(&EnclaveConfig::default()).unwrap();
        m.evict_all(eid).unwrap();
        let seen = Arc::new(AtomicUsize::new(0));
        let seen2 = Arc::clone(&seen);
        m.add_driver_hook(Arc::new(move |ev| {
            if let DriverEvent::Paging {
                direction: PagingDirection::In,
                ..
            } = ev
            {
                seen2.fetch_add(1, Ordering::SeqCst);
            }
        }));
        let heap = m.heap_range(eid).unwrap();
        let pages = heap.len();
        let before = m.clock().now();
        let stats = m
            .touch(eid, ThreadToken::MAIN, heap, AccessKind::Read)
            .unwrap();
        assert_eq!(stats.page_faults, pages);
        assert_eq!(seen.load(Ordering::SeqCst), pages);
        let elapsed = m.clock().now() - before;
        assert!(elapsed >= m.cost_model().page_in * pages as u64);
    }

    #[test]
    fn enclave_larger_than_epc_self_evicts_at_creation() {
        // Regression: pages evicted during the enclave's *own* creation
        // must be marked non-resident so later touches fault them back in.
        let m = tiny_machine(96);
        let eid = m
            .create_enclave(&EnclaveConfig {
                heap_kib: 1_024, // enclave ends up 512 pages, EPC holds 96
                ..EnclaveConfig::default()
            })
            .unwrap();
        let info = m.enclave_info(eid).unwrap();
        assert_eq!(info.resident_pages, 96);
        // Touching an early heap page must page-fault.
        let heap = m.heap_range(eid).unwrap();
        let stats = m
            .touch(
                eid,
                ThreadToken::MAIN,
                heap.start..heap.start + 1,
                AccessKind::Read,
            )
            .unwrap();
        assert_eq!(stats.page_faults, 1);
    }

    #[test]
    fn epc_pressure_between_enclaves_causes_paging() {
        // EPC fits one default enclave but not two.
        let one = EnclaveLayout::new(&EnclaveConfig::default()).total_pages();
        let m = tiny_machine(one + one / 2);
        let a = m.create_enclave(&EnclaveConfig::default()).unwrap();
        let _b = m.create_enclave(&EnclaveConfig::default()).unwrap();
        // Creating b evicted some of a's pages.
        let info_a = m.enclave_info(a).unwrap();
        assert!(info_a.resident_pages < info_a.total_pages);
    }

    #[test]
    fn timer_aex_injection_matches_quantum() {
        let m = machine();
        let eid = m.create_enclave(&EnclaveConfig::default()).unwrap();
        let aex_seen = Arc::new(AtomicUsize::new(0));
        let a2 = Arc::clone(&aex_seen);
        m.add_driver_hook(Arc::new(move |ev| {
            if let DriverEvent::Aex(ev) = ev {
                assert_eq!(ev.cause, AexCause::Interrupt);
                a2.fetch_add(1, Ordering::SeqCst);
            }
        }));
        // Table 2 experiment (3): a 45,377 us ecall sees ~11.5 AEXs.
        let n = m
            .execute_in_enclave(eid, ThreadToken::MAIN, Nanos::from_micros(45_377))
            .unwrap();
        assert_eq!(n as usize, aex_seen.load(Ordering::SeqCst));
        assert!((11..=12).contains(&n), "AEX count {n}");
    }

    #[test]
    fn short_execution_takes_no_aex() {
        let m = machine();
        let eid = m.create_enclave(&EnclaveConfig::default()).unwrap();
        let n = m
            .execute_in_enclave(eid, ThreadToken::MAIN, Nanos::from_micros(10))
            .unwrap();
        assert_eq!(n, 0);
    }

    #[test]
    fn stripped_perms_fault_into_handler_and_restore() {
        let m = machine();
        let eid = m.create_enclave(&EnclaveConfig::default()).unwrap();
        let stripped = m.strip_mmu_perms(eid).unwrap();
        assert!(stripped > 0);
        let faults = Arc::new(Mutex::new(Vec::new()));
        let f2 = Arc::clone(&faults);
        m.set_mmu_fault_handler(Some(Arc::new(move |fault: &MmuFault| {
            f2.lock().push(fault.page_index);
        })));
        let heap = m.heap_range(eid).unwrap();
        let first = heap.start;
        // First touch faults...
        let s1 = m
            .touch(eid, ThreadToken::MAIN, first..first + 1, AccessKind::Read)
            .unwrap();
        assert_eq!(s1.mmu_faults, 1);
        // ...second touch doesn't (perms restored).
        let s2 = m
            .touch(eid, ThreadToken::MAIN, first..first + 1, AccessKind::Read)
            .unwrap();
        assert_eq!(s2.mmu_faults, 0);
        assert_eq!(faults.lock().as_slice(), &[first]);
    }

    #[test]
    fn stripped_perms_without_handler_error() {
        let m = machine();
        let eid = m.create_enclave(&EnclaveConfig::default()).unwrap();
        m.strip_mmu_perms(eid).unwrap();
        let heap = m.heap_range(eid).unwrap();
        let err = m
            .touch(
                eid,
                ThreadToken::MAIN,
                heap.start..heap.start + 1,
                AccessKind::Read,
            )
            .unwrap_err();
        assert!(matches!(err, SimError::UnhandledMmuFault { .. }));
    }

    #[test]
    fn per_enclave_residency_is_tracked() {
        let m = machine();
        let a = m.create_enclave(&EnclaveConfig::default()).unwrap();
        let b = m.create_enclave(&EnclaveConfig::default()).unwrap();
        let resident = |eid| m.enclave_info(eid).unwrap().resident_pages;
        let total = m.enclave_info(a).unwrap().total_pages;
        assert_eq!(resident(a), total);
        assert_eq!(resident(b), total);
        m.evict_all(a).unwrap();
        assert_eq!(resident(a), 0);
        assert_eq!(resident(b), total);
    }

    /// `touch_entry_pages` against the page-by-page path on a twin
    /// machine: the same result, the same `DriverEvent`s at the same
    /// virtual times, and the same EPC state afterwards (an enclave larger
    /// than the EPC then evicts every page in the same order).
    #[test]
    fn entry_touches_match_two_page_touches() {
        type Setup = fn(&Machine, EnclaveId, (usize, usize));
        let config = EnclaveConfig {
            code_kib: 4,
            data_kib: 4,
            heap_kib: 16,
            stack_kib: 8,
            tcs_count: 2,
            ..EnclaveConfig::default()
        };
        let layout = EnclaveLayout::new(&config);
        let total = layout.total_pages();
        let scenarios: [(&str, Setup); 8] = [
            ("resident", |_, _, _| {}),
            ("tcs evicted", |m, eid, (tcs, _)| {
                m.evict_all(eid).unwrap();
                let total = m.enclave_info(eid).unwrap().total_pages;
                m.prefetch(eid, 0..tcs).unwrap();
                m.prefetch(eid, tcs + 1..total).unwrap();
            }),
            ("stack evicted", |m, eid, (_, stack)| {
                m.evict_all(eid).unwrap();
                let total = m.enclave_info(eid).unwrap().total_pages;
                m.prefetch(eid, 0..stack).unwrap();
                m.prefetch(eid, stack + 1..total).unwrap();
            }),
            ("both evicted", |m, eid, _| {
                m.evict_all(eid).unwrap();
            }),
            ("stripped", |m, eid, _| {
                m.strip_mmu_perms(eid).unwrap();
                m.set_mmu_fault_handler(Some(Arc::new(|_| {})));
            }),
            ("stripped and evicted", |m, eid, _| {
                m.evict_all(eid).unwrap();
                m.strip_mmu_perms(eid).unwrap();
                m.set_mmu_fault_handler(Some(Arc::new(|_| {})));
            }),
            ("stripped without a handler", |m, eid, _| {
                m.strip_mmu_perms(eid).unwrap();
            }),
            ("lost", |m, eid, _| {
                m.set_fault_plan(Some(&"enclave_lost@call=1".parse().unwrap()));
                assert_eq!(
                    m.enter_enclave(eid, ThreadToken::MAIN),
                    Err(SimError::EnclaveLost(eid))
                );
                m.set_fault_plan(None);
            }),
        ];
        let big = EnclaveConfig {
            heap_kib: 256,
            ..config.clone()
        };
        let run = |policy: EvictionPolicy, setup: Setup, tcs_index: usize, fast: bool| {
            let m = Machine::with_params(
                Clock::new(),
                HwProfile::Unpatched,
                MachineParams {
                    epc_pages: total + 4,
                    eviction: policy,
                    ..MachineParams::default()
                },
            );
            let a = m.create_enclave(&config).unwrap();
            let t = layout.thread_pages()[tcs_index.min(1)].clone();
            setup(&m, a, (t.tcs, t.stack.start));
            let events = Arc::new(Mutex::new(Vec::new()));
            let sink = Arc::clone(&events);
            m.add_driver_hook(Arc::new(move |ev| sink.lock().push(*ev)));
            let thread = ThreadToken(3);
            let result = if fast {
                m.touch_entry_pages(a, thread, tcs_index)
            } else if tcs_index >= config.tcs_count {
                Ok(false)
            } else {
                let page = |index: usize, access| m.touch(a, thread, index..index + 1, access);
                page(t.tcs, AccessKind::Read)
                    .and_then(|_| page(t.stack.start, AccessKind::Write))
                    .map(|_| true)
            };
            let at = m.clock().now();
            let resident: Vec<bool> = (0..total).map(|i| m.is_resident(a, i).unwrap()).collect();
            m.create_enclave(&big).unwrap();
            let events = events.lock().clone();
            (result, at, resident, m.clock().now(), events)
        };
        for policy in [EvictionPolicy::Fifo, EvictionPolicy::Lru] {
            for (name, setup) in scenarios {
                for tcs_index in 0..=2 {
                    let fast = run(policy, setup, tcs_index, true);
                    let slow = run(policy, setup, tcs_index, false);
                    assert_eq!(fast, slow, "{policy:?}, {name}, TCS {tcs_index}");
                }
            }
        }
        let m = machine();
        assert_eq!(
            m.touch_entry_pages(EnclaveId(9), ThreadToken::MAIN, 0),
            Err(SimError::UnknownEnclave(EnclaveId(9)))
        );
    }

    fn v2_machine() -> Machine {
        Machine::with_params(
            Clock::new(),
            HwProfile::Unpatched,
            MachineParams {
                sgx_version: SgxVersion::V2,
                ..MachineParams::default()
            },
        )
    }

    #[test]
    fn eaug_requires_v2() {
        let m = machine();
        let eid = m.create_enclave(&EnclaveConfig::default()).unwrap();
        assert_eq!(m.extend_heap(eid, 4), Err(SimError::RequiresSgxV2));
    }

    #[test]
    fn eaug_converts_padding_into_usable_heap() {
        let m = v2_machine();
        let eid = m.create_enclave(&EnclaveConfig::default()).unwrap();
        let info_before = m.enclave_info(eid).unwrap();
        let range = m.extend_heap(eid, 8).unwrap();
        assert_eq!(range.len(), 8);
        // The new pages are immediately usable.
        let stats = m
            .touch(eid, ThreadToken::MAIN, range.clone(), AccessKind::Write)
            .unwrap();
        assert_eq!(stats, TouchStats::default());
        // Measured size unchanged; accessible pages grew.
        let info_after = m.enclave_info(eid).unwrap();
        assert_eq!(info_after.total_pages, info_before.total_pages);
        assert_eq!(
            info_after.accessible_pages,
            info_before.accessible_pages // layout-derived, creation-time
        );
        assert_eq!(info_after.measurement, info_before.measurement);
        // Before the conversion, touching the same pages segfaulted.
        let m2 = v2_machine();
        let eid2 = m2.create_enclave(&EnclaveConfig::default()).unwrap();
        let err = m2
            .touch(eid2, ThreadToken::MAIN, range, AccessKind::Write)
            .unwrap_err();
        assert!(matches!(err, SimError::Segfault { .. }));
    }

    #[test]
    fn eaug_exhausts_padding_reserve() {
        let m = v2_machine();
        let eid = m.create_enclave(&EnclaveConfig::default()).unwrap();
        let err = m.extend_heap(eid, 1_000_000).unwrap_err();
        assert!(matches!(err, SimError::OutOfEnclaveSpace { .. }));
    }

    #[test]
    fn eaug_of_zero_pages_is_an_empty_range_at_the_reserve() {
        let m = v2_machine();
        let eid = m.create_enclave(&EnclaveConfig::default()).unwrap();
        let layout = EnclaveLayout::new(&EnclaveConfig::default());
        let first = layout.iter().position(|k| k == PageKind::Padding).unwrap();
        let total = layout.total_pages();
        let events = Arc::new(AtomicUsize::new(0));
        let e2 = Arc::clone(&events);
        m.add_driver_hook(Arc::new(move |_| {
            e2.fetch_add(1, Ordering::SeqCst);
        }));
        let grow_none = |at: usize| {
            let (seen, before) = (events.load(Ordering::SeqCst), m.clock().now());
            assert_eq!(m.extend_heap(eid, 0), Ok(at..at));
            assert_eq!(m.clock().now(), before);
            assert_eq!(events.load(Ordering::SeqCst), seen);
        };
        grow_none(first);
        assert_eq!(m.extend_heap(eid, 3), Ok(first..first + 3));
        grow_none(first + 3);
        // With the reserve used up, the empty range sits at the end.
        m.extend_heap(eid, total - first - 3).unwrap();
        grow_none(total);
    }

    #[test]
    fn eaug_into_a_lost_enclave_pages_nothing_in() {
        use sim_core::fault::FaultPlan;
        let m = Machine::with_params(
            Clock::new(),
            HwProfile::Unpatched,
            MachineParams {
                sgx_version: SgxVersion::V2,
                epc_pages: 96,
                ..MachineParams::default()
            },
        );
        let eid = m.create_enclave(&EnclaveConfig::default()).unwrap();
        let plan: FaultPlan = "enclave_lost@call=1".parse().unwrap();
        m.set_fault_plan(Some(&plan));
        assert_eq!(
            m.enter_enclave(eid, ThreadToken::MAIN),
            Err(SimError::EnclaveLost(eid))
        );
        assert_eq!(m.enclave_info(eid).unwrap().resident_pages, 0);
        let paging = Arc::new(AtomicUsize::new(0));
        let p2 = Arc::clone(&paging);
        m.add_driver_hook(Arc::new(move |ev| {
            if matches!(ev, DriverEvent::Paging { .. }) {
                p2.fetch_add(1, Ordering::SeqCst);
            }
        }));
        let before = m.clock().now();
        assert_eq!(m.extend_heap(eid, 4), Err(SimError::EnclaveLost(eid)));
        assert_eq!(m.enclave_info(eid).unwrap().resident_pages, 0);
        assert_eq!(paging.load(Ordering::SeqCst), 0);
        assert_eq!(m.clock().now(), before);
    }

    #[test]
    fn eaug_charges_time() {
        let m = v2_machine();
        let eid = m.create_enclave(&EnclaveConfig::default()).unwrap();
        let before = m.clock().now();
        m.extend_heap(eid, 4).unwrap();
        assert_eq!(m.clock().now() - before, EAUG_PAGE * 4);
    }

    #[test]
    fn aex_cause_visible_only_on_v2_debug_enclaves() {
        let v1 = machine();
        let eid1 = v1.create_enclave(&EnclaveConfig::default()).unwrap();
        assert!(!v1.aex_cause_visible(eid1));

        let v2 = v2_machine();
        let debug = v2.create_enclave(&EnclaveConfig::default()).unwrap();
        assert!(v2.aex_cause_visible(debug));
        let release = v2
            .create_enclave(&EnclaveConfig {
                debug: false,
                ..EnclaveConfig::default()
            })
            .unwrap();
        assert!(!v2.aex_cause_visible(release));
    }

    #[test]
    fn call_triggered_loss_fails_the_entry_and_drops_pages() {
        use sim_core::fault::FaultPlan;
        let m = machine();
        let eid = m.create_enclave(&EnclaveConfig::default()).unwrap();
        let plan: FaultPlan = "enclave_lost@call=2;seed=7".parse().unwrap();
        m.set_fault_plan(Some(&plan));
        let stages = Arc::new(Mutex::new(Vec::new()));
        let s2 = Arc::clone(&stages);
        m.add_driver_hook(Arc::new(move |ev| {
            if let DriverEvent::Lifecycle(ev) = ev {
                s2.lock().push(ev.stage);
            }
        }));
        // First entry survives; second is the loss.
        m.enter_enclave(eid, ThreadToken::MAIN).unwrap();
        let err = m.enter_enclave(eid, ThreadToken::MAIN).unwrap_err();
        assert_eq!(err, SimError::EnclaveLost(eid));
        assert_eq!(stages.lock().as_slice(), &[LifecycleStage::Lost]);
        // Pages are gone; the id stays registered but everything fails.
        let info = m.enclave_info(eid).unwrap();
        assert_eq!(info.resident_pages, 0);
        assert!(m.is_lost(eid).unwrap());
        assert_eq!(
            m.enter_enclave(eid, ThreadToken::MAIN),
            Err(SimError::EnclaveLost(eid))
        );
        assert_eq!(
            m.execute_in_enclave(eid, ThreadToken::MAIN, Nanos::from_micros(1)),
            Err(SimError::EnclaveLost(eid))
        );
        let heap = m.heap_range(eid).unwrap();
        assert_eq!(
            m.touch(eid, ThreadToken::MAIN, heap.clone(), AccessKind::Read),
            Err(SimError::EnclaveLost(eid))
        );
        assert_eq!(m.prefetch(eid, heap), Err(SimError::EnclaveLost(eid)));
        // A supervisor can still destroy and rebuild it.
        m.destroy_enclave(eid).unwrap();
        let eid2 = m.create_enclave(&EnclaveConfig::default()).unwrap();
        m.enter_enclave(eid2, ThreadToken::MAIN).unwrap();
    }

    #[test]
    fn time_triggered_loss_unwinds_mid_execution_without_eresume() {
        use sim_core::fault::FaultPlan;
        let m = machine();
        let eid = m.create_enclave(&EnclaveConfig::default()).unwrap();
        let plan: FaultPlan = "enclave_lost@t=1us;seed=1".parse().unwrap();
        m.set_fault_plan(Some(&plan));
        let aep_hits = Arc::new(AtomicUsize::new(0));
        let a2 = Arc::clone(&aep_hits);
        m.add_driver_hook(Arc::new(move |ev| {
            if matches!(ev, DriverEvent::Aex(_)) {
                a2.fetch_add(1, Ordering::SeqCst);
            }
        }));
        m.clock().advance(Nanos::from_micros(2));
        let before = m.clock().now();
        let err = m
            .execute_in_enclave(eid, ThreadToken::MAIN, Nanos::from_micros(100))
            .unwrap_err();
        assert_eq!(err, SimError::EnclaveLost(eid));
        // AEX-style exit: the exit cost is charged but no AEX reaches the
        // hooks and no ERESUME is charged.
        assert_eq!(m.clock().now() - before, m.cost_model().aex_exit);
        assert_eq!(aep_hits.load(Ordering::SeqCst), 0);
        assert!(m.is_lost(eid).unwrap());
    }

    #[test]
    fn epc_poison_defers_the_loss_to_the_next_entry() {
        use sim_core::fault::FaultPlan;
        let m = machine();
        let eid = m.create_enclave(&EnclaveConfig::default()).unwrap();
        let plan: FaultPlan = "epc_poison@call=1;seed=3".parse().unwrap();
        m.set_fault_plan(Some(&plan));
        // The poisoning entry itself succeeds...
        m.enter_enclave(eid, ThreadToken::MAIN).unwrap();
        assert!(!m.is_lost(eid).unwrap());
        m.execute_in_enclave(eid, ThreadToken::MAIN, Nanos::from_micros(5))
            .unwrap();
        // ...the next one finds the enclave lost.
        assert_eq!(
            m.enter_enclave(eid, ThreadToken::MAIN),
            Err(SimError::EnclaveLost(eid))
        );
        assert!(m.is_lost(eid).unwrap());
    }

    #[test]
    fn every_hook_sees_every_event_in_order() {
        use sim_core::fault::FaultPlan;
        let one = EnclaveLayout::new(&EnclaveConfig::default()).total_pages();
        let m = tiny_machine(one + one / 2);
        let seen: Vec<Arc<Mutex<Vec<DriverEvent>>>> = (0..2)
            .map(|_| {
                let log = Arc::new(Mutex::new(Vec::new()));
                let sink = Arc::clone(&log);
                m.add_driver_hook(Arc::new(move |ev| sink.lock().push(*ev)));
                log
            })
            .collect();
        // Two enclaves overflow the EPC: creating the second pages out the
        // first.
        let a = m.create_enclave(&EnclaveConfig::default()).unwrap();
        let b = m.create_enclave(&EnclaveConfig::default()).unwrap();
        let plan: FaultPlan = "aex-storm@call=1:count=3;evict-storm@call=1;enclave_lost@call=1"
            .parse()
            .unwrap();
        m.set_fault_plan(Some(&plan));
        m.execute_in_enclave(b, ThreadToken::MAIN, Nanos::from_micros(10))
            .unwrap();
        assert_eq!(
            m.enter_enclave(a, ThreadToken::MAIN),
            Err(SimError::EnclaveLost(a))
        );
        let first = seen[0].lock().clone();
        assert_eq!(first, *seen[1].lock());
        let has = |f: fn(&DriverEvent) -> bool| first.iter().any(f);
        assert!(has(|e| matches!(e, DriverEvent::Paging { .. })));
        assert!(has(|e| matches!(e, DriverEvent::EnclaveCreated { .. })));
        assert!(has(|e| matches!(e, DriverEvent::Aex(_))));
        assert!(has(|e| matches!(e, DriverEvent::Fault(_))));
        assert!(has(|e| matches!(
            e,
            DriverEvent::Lifecycle(LifecycleEvent {
                stage: LifecycleStage::Lost,
                ..
            })
        )));
    }

    #[test]
    fn out_of_range_page_rejected() {
        let m = machine();
        let eid = m.create_enclave(&EnclaveConfig::default()).unwrap();
        let total = m.enclave_info(eid).unwrap().total_pages;
        let err = m
            .touch(eid, ThreadToken::MAIN, total..total + 1, AccessKind::Read)
            .unwrap_err();
        assert!(matches!(err, SimError::PageOutOfRange { .. }));
    }
}
