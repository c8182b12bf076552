//! The sgx-perf event logger (§4, §4.1).
//!
//! The logger attaches to an *unmodified* application through the dynamic
//! loader: [`Logger::attach`] preloads an interposing `sgx_ecall`
//! implementation (Figure 2), swaps every ocall table passed through it for
//! a generated stub table (`oT_logger`, Figure 3), and registers one
//! machine hook that stands in for the patched AEP (§4.1.4) and the
//! kprobes on the driver's paging functions (§4.1.5): it receives paging,
//! AEX, fault, lifecycle and switchless events. The four SDK
//! synchronisation ocalls are additionally classified into sleep/wake
//! events with waker→sleeper dependency edges (§4.1.3).
//!
//! All bookkeeping costs virtual time, calibrated against Table 2 of the
//! paper: ≈1,366 ns per ecall, ≈1,320 ns per ocall, ≈1,076 ns per counted
//! AEX and ≈1,118 ns per traced AEX.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Weak};

use sgx_sdk::{CallData, EcallDispatcher, OcallTable, Runtime, SdkResult, ThreadCtx, Urts};
use sgx_sim::{AexEvent, DriverEvent, EnclaveId, Machine, PagingDirection};
use sim_core::sync::Mutex;
use sim_core::{Nanos, SyncEvent};

use crate::events::{
    AexMode, AexRow, CallKind, EcallRow, EnclaveRow, FaultRow, LifecycleRow, OcallRow, PagingRow,
    SwitchlessRow, SymbolRow, SyncEvRow, SyncRow,
};
use crate::trace::TraceDb;

/// Configuration of the event logger: the two recording choices a user
/// makes. Paging and sleep/wake classification are always on, and the
/// per-event bookkeeping costs are this module's Table 2 constants.
#[derive(Debug, Clone, Default)]
pub struct LoggerConfig {
    /// How AEXs are observed. Under [`AexMode::Off`] the logger drops
    /// every AEX and charges nothing for it.
    pub aex: AexMode,
    /// Whether to record raw synchronisation events (lock acquire/release,
    /// condvar wait/signal, thread spawn/join, ring post/complete, tagged
    /// shared-cell accesses) for the `sgxperf races` analyses. Off by
    /// default: traces of un-instrumented runs stay byte-identical to
    /// pre-races versions.
    pub track_syncev: bool,
}

impl LoggerConfig {
    /// Convenience: default configuration with the given AEX mode.
    pub fn with_aex(aex: AexMode) -> LoggerConfig {
        LoggerConfig {
            aex,
            ..LoggerConfig::default()
        }
    }

    /// Convenience: default configuration with raw sync-event recording
    /// enabled — what a `sgxperf races` recording run uses.
    pub fn with_syncev() -> LoggerConfig {
        LoggerConfig {
            track_syncev: true,
            ..LoggerConfig::default()
        }
    }
}

/// Bookkeeping cost per traced ecall (Table 2: ≈1,366 ns).
const ECALL_OVERHEAD: Nanos = Nanos::from_nanos(1_366);
/// Bookkeeping cost per traced ocall (Table 2: ≈1,320 ns).
const OCALL_OVERHEAD: Nanos = Nanos::from_nanos(1_320);
/// Bookkeeping cost per counted AEX (Table 2: ≈1,076 ns).
const AEX_COUNT_OVERHEAD: Nanos = Nanos::from_nanos(1_076);
/// Bookkeeping cost per traced AEX (Table 2: ≈1,118 ns).
const AEX_TRACE_OVERHEAD: Nanos = Nanos::from_nanos(1_118);
/// Bookkeeping cost per switchless, fault, lifecycle or sync event: a
/// lock-free ring append on the calling thread, far cheaper than the call
/// stubs. Charged only per recorded event, so a run without such events
/// pays nothing extra.
const APPEND_OVERHEAD: Nanos = Nanos::from_nanos(90);

#[derive(Debug)]
struct FrameEntry {
    kind: CallKind,
    row: u64,
    aex: u64,
}

/// Hashes the logger's integer keys (thread tokens, enclave ids and
/// ocall-table addresses) with one multiply instead of SipHash, whose
/// resistance to chosen collisions buys nothing on keys that come from
/// the program being traced. Every call looks its thread up.
#[derive(Default)]
struct IntHasher(u64);

impl Hasher for IntHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u32(&mut self, n: u32) {
        self.write_u64(u64::from(n));
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = (self.0 ^ n).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }

    fn write_usize(&mut self, n: usize) {
        self.write_u64(n as u64);
    }

    fn finish(&self) -> u64 {
        // The table picks buckets from the low bits, which a multiply
        // leaves as unmixed as the key's (table addresses end in zeros).
        self.0.rotate_left(26)
    }
}

type IntMap<K, V> = HashMap<K, V, BuildHasherDefault<IntHasher>>;
type IntSet<K> = HashSet<K, BuildHasherDefault<IntHasher>>;

/// Generated stub tables, found by the original table's pointer identity.
/// "Call stub and table creation is only needed once per ocall table"
/// (§4.1.2).
#[derive(Default)]
struct StubCache {
    /// Original table address → the original, held weakly, and its stub.
    /// The weak handle keeps the allocation, so no other table can take
    /// the address while its entry exists.
    by_table: IntMap<usize, (Weak<OcallTable>, Arc<OcallTable>)>,
    /// Addresses of the stubs themselves: a nested ecall passes the saved
    /// (stub) table back in. Each stub is held by its `by_table` entry.
    stubs: IntSet<usize>,
    /// `by_table`'s size at which dead entries are next dropped.
    prune_at: usize,
}

impl StubCache {
    /// The stub for `table` (`table` itself if it is a stub), generated by
    /// `generate` on first sight.
    fn stub_for(
        &mut self,
        table: &Arc<OcallTable>,
        generate: impl FnOnce() -> OcallTable,
    ) -> Arc<OcallTable> {
        let addr = Arc::as_ptr(table) as usize;
        if let Some((_, stub)) = self.by_table.get(&addr) {
            return Arc::clone(stub);
        }
        if self.stubs.contains(&addr) {
            return Arc::clone(table);
        }
        if self.by_table.len() >= self.prune_at {
            self.prune();
        }
        let stub = Arc::new(generate());
        self.stubs.insert(Arc::as_ptr(&stub) as usize);
        self.by_table
            .insert(addr, (Arc::downgrade(table), Arc::clone(&stub)));
        stub
    }

    /// Drops the entries of tables nobody holds any more. It runs once
    /// the cache has doubled since the last prune, so a new table pays
    /// amortised O(1) for it.
    fn prune(&mut self) {
        let stubs = &mut self.stubs;
        self.by_table.retain(|_, (orig, stub)| {
            let live = orig.strong_count() > 0;
            if !live {
                stubs.remove(&(Arc::as_ptr(stub) as usize));
            }
            live
        });
        self.prune_at = (2 * self.by_table.len()).max(16);
    }
}

/// The four SDK synchronisation ocalls (§4.1.3), resolved from an ocall's
/// name once, when its stub is generated.
#[derive(Debug, Clone, Copy)]
enum SyncOcall {
    Wait,
    Set,
    SetWait,
    SetMultiple,
}

impl SyncOcall {
    fn of(name: &str) -> Option<SyncOcall> {
        use sgx_sdk::sync_ocalls as so;
        match name {
            so::WAIT => Some(SyncOcall::Wait),
            so::SET => Some(SyncOcall::Set),
            so::SETWAIT => Some(SyncOcall::SetWait),
            so::SET_MULTIPLE => Some(SyncOcall::SetMultiple),
            _ => None,
        }
    }
}

#[derive(Default)]
struct LogState {
    trace: TraceDb,
    /// Per-thread stack of in-flight calls (for direct parents and AEX
    /// attribution).
    stacks: IntMap<u64, Vec<FrameEntry>>,
    stubs: StubCache,
    /// Enclaves whose interface symbols were already captured.
    seen_enclaves: IntSet<u32>,
}

/// The attached event logger. See the [module docs](crate::logger).
pub struct Logger {
    machine: Arc<Machine>,
    urts: Arc<Urts>,
    config: LoggerConfig,
    enabled: AtomicBool,
    state: Mutex<LogState>,
}

impl std::fmt::Debug for Logger {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let st = self.state.lock();
        f.debug_struct("Logger")
            .field("enabled", &self.enabled.load(Ordering::SeqCst))
            .field("ecalls", &st.trace.ecalls.len())
            .field("ocalls", &st.trace.ocalls.len())
            .finish()
    }
}

impl Logger {
    /// Attaches the logger to a runtime — the `LD_PRELOAD` step. After
    /// this, every `sgx_ecall` issued through the runtime's loader, every
    /// ocall dispatched through a table that passed through the logger,
    /// every machine event and (depending on config) every AEX is recorded.
    pub fn attach(runtime: &Arc<Runtime>, config: LoggerConfig) -> Arc<Logger> {
        let logger = Arc::new(Logger {
            machine: Arc::clone(runtime.machine()),
            urts: Arc::clone(runtime.urts()),
            config,
            enabled: AtomicBool::new(true),
            state: Mutex::new(LogState::default()),
        });

        // Shadow sgx_ecall.
        let shim_logger = Arc::clone(&logger);
        runtime.loader().preload(move |next| {
            Arc::new(LoggerShim {
                logger: shim_logger,
                next,
            })
        });

        // kprobe the driver and patch the AEP: one machine hook sees
        // paging, AEXs, injected faults, lifecycle stages and switchless
        // calls (which bypass sgx_ecall and the ocall table, so
        // interposition alone would miss them).
        let weak = Arc::downgrade(&logger);
        runtime
            .machine()
            .add_driver_hook(Arc::new(move |ev: &DriverEvent| {
                if let Some(logger) = weak.upgrade() {
                    logger.on_event(ev);
                }
            }));

        // Observe the synchronisation bus: lock/condvar/thread/ring/cell
        // events are the input of the `sgxperf races` analyses. Opt-in so
        // default recordings stay byte-identical to pre-races versions.
        if logger.config.track_syncev {
            let weak = Arc::downgrade(&logger);
            runtime
                .machine()
                .sync_bus()
                .set_observer(Some(Arc::new(move |ev: &SyncEvent| {
                    if let Some(logger) = weak.upgrade() {
                        logger.on_syncev(ev);
                    }
                })));
        }

        logger
    }

    /// Stops recording and returns the collected trace. The interposition
    /// shims and the machine hook stay in place but become pass-through.
    pub fn finish(&self) -> TraceDb {
        self.enabled.store(false, Ordering::SeqCst);
        self.machine.sync_bus().set_observer(None);
        std::mem::take(&mut self.state.lock().trace)
    }

    /// A consistent copy of the trace recorded so far, without stopping the
    /// logger. This is what a crash-consistent run persists after each unit
    /// of work (via [`eventdb::SegmentedWriter`]): every snapshot frame is
    /// a valid trace, so a `SIGKILL` between frames loses at most the work
    /// since the last snapshot.
    pub fn snapshot(&self) -> TraceDb {
        self.state.lock().trace.clone()
    }

    /// Whether the logger is currently recording.
    pub fn is_enabled(&self) -> bool {
        self.enabled.load(Ordering::SeqCst)
    }

    /// Temporarily pauses/resumes recording (e.g. to skip a warmup phase).
    pub fn set_enabled(&self, enabled: bool) {
        self.enabled.store(enabled, Ordering::SeqCst);
    }

    /// Numbers of events recorded so far (ecalls, ocalls).
    pub fn counts(&self) -> (usize, usize) {
        let st = self.state.lock();
        (st.trace.ecalls.len(), st.trace.ocalls.len())
    }

    // ------------------------------------------------------------------
    // Event sinks
    // ------------------------------------------------------------------

    fn on_event(&self, ev: &DriverEvent) {
        if !self.is_enabled() {
            return;
        }
        match *ev {
            DriverEvent::Paging {
                direction,
                enclave,
                vaddr,
                time,
            } => {
                self.state.lock().trace.paging.insert(PagingRow {
                    enclave: enclave.0,
                    out: direction == PagingDirection::Out,
                    vaddr,
                    time_ns: time.as_nanos(),
                });
            }
            DriverEvent::EnclaveCreated {
                enclave,
                pages,
                time,
            } => {
                self.state.lock().trace.enclaves.insert(EnclaveRow {
                    enclave: enclave.0,
                    total_pages: pages as u64,
                    created_ns: time.as_nanos(),
                });
            }
            DriverEvent::Aex(ev) => self.on_aex(&ev),
            DriverEvent::Fault(ev) => self.append(|trace| {
                trace.faults.insert(FaultRow {
                    thread: ev.thread,
                    enclave: ev.enclave,
                    fault: ev.code,
                    action: ev.action.code(),
                    call_index: ev.call_index,
                    magnitude: ev.magnitude,
                    time_ns: ev.time.as_nanos(),
                });
            }),
            DriverEvent::Lifecycle(ev) => self.append(|trace| {
                trace.lifecycle.insert(LifecycleRow {
                    enclave: ev.enclave,
                    stage: ev.stage.code(),
                    thread: ev.thread,
                    attempt: ev.attempt,
                    magnitude: ev.magnitude,
                    time_ns: ev.time.as_nanos(),
                });
            }),
            DriverEvent::Switchless(ev) => self.append(|trace| {
                trace.switchless.insert(SwitchlessRow {
                    thread: ev.thread.0 as u64,
                    enclave: ev.enclave.0,
                    kind: ev.kind.code(),
                    call_index: ev.call_index.map(|i| i as u32),
                    worker: ev.worker.map(|w| w as u32),
                    spins: ev.spins,
                    time_ns: ev.time.as_nanos(),
                });
            }),
        }
    }

    fn on_syncev(&self, ev: &SyncEvent) {
        if !self.is_enabled() {
            return;
        }
        self.append(|trace| {
            trace.syncev.insert(SyncEvRow {
                thread: ev.thread,
                op: ev.op.code(),
                object: ev.object,
                target: ev.target,
                aux: ev.aux,
                label: ev.label.clone(),
                time_ns: ev.time.as_nanos(),
            });
        });
    }

    /// Records one switchless, fault, lifecycle or sync row, charging its
    /// [`APPEND_OVERHEAD`] first.
    fn append(&self, insert: impl FnOnce(&mut TraceDb)) {
        self.machine.clock().advance(APPEND_OVERHEAD);
        insert(&mut self.state.lock().trace);
    }

    fn on_aex(&self, ev: &AexEvent) {
        let overhead = match self.config.aex {
            AexMode::Off => return,
            AexMode::Count => AEX_COUNT_OVERHEAD,
            AexMode::Trace => AEX_TRACE_OVERHEAD,
        };
        self.machine.clock().advance(overhead);
        let mut st = self.state.lock();
        let thread = ev.thread.0 as u64;
        let during_ecall = st.stacks.get_mut(&thread).and_then(|stack| {
            stack
                .iter_mut()
                .rev()
                .find(|f| f.kind == CallKind::Ecall)
                .map(|f| {
                    f.aex += 1;
                    f.row
                })
        });
        if self.config.aex == AexMode::Trace {
            // On SGX v2 debug enclaves the exit type is recorded in the
            // enclave state and readable by tooling (§4.1.4); on v1 the
            // cause stays opaque even though the simulator knows it.
            let cause = if self.machine.aex_cause_visible(ev.enclave) {
                Some(match ev.cause {
                    sgx_sim::AexCause::Interrupt => crate::events::AexCauseCode::Interrupt,
                    sgx_sim::AexCause::PageFault => crate::events::AexCauseCode::PageFault,
                    sgx_sim::AexCause::AccessFault => crate::events::AexCauseCode::AccessFault,
                })
            } else {
                None
            };
            st.trace.aex.insert(AexRow {
                thread,
                enclave: ev.enclave.0,
                time_ns: ev.time.as_nanos(),
                during_ecall,
                cause,
            });
        }
    }

    /// Captures the interface symbols of an enclave the first time a call
    /// for it is traced (debug enclaves expose their interface).
    fn capture_symbols(&self, eid: EnclaveId) {
        let Ok(enclave) = self.urts.enclave(eid) else {
            return;
        };
        let spec = enclave.spec();
        let mut st = self.state.lock();
        if !st.seen_enclaves.insert(eid.0) {
            return;
        }
        for e in spec.ecalls() {
            st.trace.symbols.insert(SymbolRow {
                enclave: eid.0,
                kind_is_ecall: true,
                index: e.index as u32,
                name: e.name.clone(),
                public: e.public,
                allowed_ecalls: Vec::new(),
                user_check_params: e
                    .params
                    .iter()
                    .filter(|p| p.is_user_check())
                    .map(|p| p.name.clone())
                    .collect(),
            });
        }
        for o in spec.ocalls() {
            st.trace.symbols.insert(SymbolRow {
                enclave: eid.0,
                kind_is_ecall: false,
                index: o.index as u32,
                name: o.name.clone(),
                public: false,
                allowed_ecalls: o.allowed_ecalls.iter().map(|&i| i as u32).collect(),
                user_check_params: o
                    .params
                    .iter()
                    .filter(|p| p.is_user_check())
                    .map(|p| p.name.clone())
                    .collect(),
            });
        }
    }

    /// Generates the stub table for `table` (`oT_logger` in Figure 3).
    /// A stub depends on its table alone: the enclave an ocall left comes
    /// from its [`HostCtx`](sgx_sdk::HostCtx) at call time, since one
    /// table may serve many enclaves.
    fn generate_stubs(self: &Arc<Self>, table: &OcallTable) -> OcallTable {
        let logger = Arc::downgrade(self);
        table.wrap(|index, name, orig| {
            let logger = Weak::clone(&logger);
            let sync = SyncOcall::of(name);
            Arc::new(move |host, data: &mut CallData| match logger.upgrade() {
                Some(l) if l.is_enabled() => l.traced_ocall(index, sync, &orig, host, data),
                _ => orig(host, data),
            })
        })
    }

    /// The body of a generated ocall stub: record, forward, record.
    fn traced_ocall(
        &self,
        index: usize,
        sync: Option<SyncOcall>,
        orig: &sgx_sdk::ocall::OcallFn,
        host: &mut sgx_sdk::HostCtx<'_>,
        data: &mut CallData,
    ) -> SdkResult<()> {
        let clock = self.machine.clock();
        let half = OCALL_OVERHEAD / 2;
        clock.advance(half);
        let thread = host.thread.token.0 as u64;
        let row = {
            let mut guard = self.state.lock();
            let st = &mut *guard;
            let stack = st.stacks.entry(thread).or_default();
            let parent_ecall = stack
                .iter()
                .rev()
                .find(|f| f.kind == CallKind::Ecall)
                .map(|f| f.row);
            let start = clock.now().as_nanos();
            let row = st.trace.ocalls.insert(OcallRow {
                thread,
                enclave: host.enclave_id().0,
                call_index: index as u32,
                start_ns: start,
                end_ns: start,
                parent_ecall,
                failed: false,
            });
            stack.push(FrameEntry {
                kind: CallKind::Ocall,
                row: row.0 as u64,
                aex: 0,
            });
            row
        };

        let result = orig(host, data);

        let end = clock.now().as_nanos();
        {
            let mut st = self.state.lock();
            if let Some(stack) = st.stacks.get_mut(&thread) {
                stack.pop();
            }
            if let Some(r) = st.trace.ocalls.get_mut(row) {
                r.end_ns = end;
                r.failed = result.is_err();
            }
            if let Some(sync) = sync {
                Self::classify_sync(&mut st, thread, row.0 as u64, sync, data, end);
            }
        }
        clock.advance(half);
        result
    }

    /// §4.1.3: the four sync ocalls reduce to sleep and wake-up events —
    /// an ocall's wake-ups first, then its sleep.
    fn classify_sync(
        st: &mut LogState,
        thread: u64,
        ocall_row: u64,
        sync: SyncOcall,
        data: &CallData,
        time_ns: u64,
    ) {
        let (wakes, sleeps): (&[u64], bool) = match sync {
            SyncOcall::Wait => (&[], true),
            SyncOcall::Set => (std::slice::from_ref(&data.scalar), false),
            SyncOcall::SetWait => (std::slice::from_ref(&data.scalar), true),
            SyncOcall::SetMultiple => (&data.aux, false),
        };
        let targets = wakes.iter().map(|&t| Some(t));
        for target_thread in targets.chain(sleeps.then_some(None)) {
            st.trace.sync.insert(SyncRow {
                thread,
                time_ns,
                sleep: target_thread.is_none(),
                target_thread,
                ocall_row,
            });
        }
    }
}

/// The interposed `sgx_ecall` (Figure 2): records a timestamp and the
/// issuing thread, substitutes the stub ocall table, forwards to the real
/// URTS, and records the completion timestamp.
struct LoggerShim {
    logger: Arc<Logger>,
    next: Arc<dyn EcallDispatcher>,
}

impl EcallDispatcher for LoggerShim {
    fn sgx_ecall(
        &self,
        tcx: &ThreadCtx<'_>,
        eid: EnclaveId,
        index: usize,
        table: &Arc<OcallTable>,
        data: &mut CallData,
    ) -> SdkResult<()> {
        let logger = &self.logger;
        if !logger.is_enabled() {
            return self.next.sgx_ecall(tcx, eid, index, table, data);
        }
        let clock = logger.machine.clock();
        let half = ECALL_OVERHEAD / 2;
        clock.advance(half);
        let thread = tcx.token.0 as u64;
        let (stub, row, first_sight) = {
            let mut guard = logger.state.lock();
            let st = &mut *guard;
            let first_sight = !st.seen_enclaves.contains(&eid.0);
            // We always replace the table, even if the ecall performs no
            // ocalls — we cannot know beforehand (§4.1.2).
            let stub = st.stubs.stub_for(table, || logger.generate_stubs(table));
            let stack = st.stacks.entry(thread).or_default();
            let parent_ocall = stack
                .iter()
                .rev()
                .find(|f| f.kind == CallKind::Ocall)
                .map(|f| f.row);
            let start = clock.now().as_nanos();
            let row = st.trace.ecalls.insert(EcallRow {
                thread,
                enclave: eid.0,
                call_index: index as u32,
                start_ns: start,
                end_ns: start,
                parent_ocall,
                aex_count: 0,
                failed: false,
            });
            stack.push(FrameEntry {
                kind: CallKind::Ecall,
                row: row.0 as u64,
                aex: 0,
            });
            (stub, row, first_sight)
        };
        if first_sight {
            logger.capture_symbols(eid);
        }

        let result = self.next.sgx_ecall(tcx, eid, index, &stub, data);

        let end = clock.now().as_nanos();
        {
            let mut st = logger.state.lock();
            let aex = st
                .stacks
                .get_mut(&thread)
                .and_then(|s| s.pop())
                .map(|f| f.aex)
                .unwrap_or(0);
            if let Some(r) = st.trace.ecalls.get_mut(row) {
                r.end_ns = end;
                r.aex_count = aex;
                r.failed = result.is_err();
            }
        }
        clock.advance(half);
        result
    }
}
