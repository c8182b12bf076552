//! Synchronisation events: the raw material for race and deadlock analysis.
//!
//! The deterministic round-robin scheduler runs exactly one logical thread
//! at a time, so a data race or a lock-order deadlock can never *manifest*
//! in a simulated run — the very property that makes traces bit-reproducible
//! also masks concurrency bugs that would fire on real hardware. The only
//! affordable way to certify concurrency under that regime is
//! schedule-generalizing static analysis over the synchronisation events of
//! one observed run.
//!
//! This module is the event channel such analysis feeds on: a [`SyncBus`]
//! that instrumented components (SDK mutexes and condvars, the logical
//! thread scheduler, the switchless rings) publish [`SyncEvent`]s to, and a
//! [`Shared<T>`] cell wrapper that workloads use to tag the shared state
//! whose accesses the analysis should check.
//!
//! The bus is silent unless an observer is attached: with no observer,
//! [`SyncBus::emit`] returns without touching the clock or allocating, so
//! un-instrumented runs stay byte-identical to builds that predate this
//! module.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::clock::Clock;
use crate::sync::Armed;
use crate::time::Nanos;

/// Thread id used for sync events emitted from outside any logical thread
/// (the external driver, e.g. `main`).
pub const EXTERNAL_THREAD: u64 = u64::MAX;

/// What kind of synchronisation action a [`SyncEvent`] records.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SyncOp {
    /// A lock was acquired; `object` is the lock, `aux` encodes the
    /// [`LockPath`](crate::sync) shape (`(count << 8) | path_code`).
    LockAcquire,
    /// A lock was released; `target` is the woken waiter, if any.
    LockRelease,
    /// A thread began waiting on a condvar; `object` is the condvar,
    /// `aux` is the id of the mutex released for the wait.
    CondWait,
    /// A condvar waiter was signalled; `object` is the condvar, `target`
    /// the woken thread.
    CondSignal,
    /// A logical thread was spawned; `thread` is the parent (or
    /// [`EXTERNAL_THREAD`]), `target` the child.
    ThreadSpawn,
    /// A logical thread ran to completion; `thread` is the finished thread.
    ThreadJoin,
    /// A request was posted to a switchless ring; `object` is the ring.
    RingPost,
    /// A switchless worker completed a request; `object` is the ring,
    /// `target` the caller the result is handed back to.
    RingComplete,
    /// A tagged shared cell was read; `object` is the cell.
    SharedRead,
    /// A tagged shared cell was written; `object` is the cell.
    SharedWrite,
}

impl SyncOp {
    /// All operations, in stable code order.
    pub const ALL: [SyncOp; 10] = [
        SyncOp::LockAcquire,
        SyncOp::LockRelease,
        SyncOp::CondWait,
        SyncOp::CondSignal,
        SyncOp::ThreadSpawn,
        SyncOp::ThreadJoin,
        SyncOp::RingPost,
        SyncOp::RingComplete,
        SyncOp::SharedRead,
        SyncOp::SharedWrite,
    ];

    /// Stable on-disk/event code for this operation.
    #[must_use]
    pub fn code(self) -> u8 {
        match self {
            SyncOp::LockAcquire => 0,
            SyncOp::LockRelease => 1,
            SyncOp::CondWait => 2,
            SyncOp::CondSignal => 3,
            SyncOp::ThreadSpawn => 4,
            SyncOp::ThreadJoin => 5,
            SyncOp::RingPost => 6,
            SyncOp::RingComplete => 7,
            SyncOp::SharedRead => 8,
            SyncOp::SharedWrite => 9,
        }
    }

    /// Decodes an operation code; `None` for unknown codes.
    #[must_use]
    pub fn from_code(code: u8) -> Option<SyncOp> {
        SyncOp::ALL.get(code as usize).copied()
    }

    /// The human label used in reports.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            SyncOp::LockAcquire => "lock-acquire",
            SyncOp::LockRelease => "lock-release",
            SyncOp::CondWait => "cond-wait",
            SyncOp::CondSignal => "cond-signal",
            SyncOp::ThreadSpawn => "thread-spawn",
            SyncOp::ThreadJoin => "thread-join",
            SyncOp::RingPost => "ring-post",
            SyncOp::RingComplete => "ring-complete",
            SyncOp::SharedRead => "shared-read",
            SyncOp::SharedWrite => "shared-write",
        }
    }
}

/// One synchronisation event, as observed by the logger.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SyncEvent {
    /// Logical thread performing the action (or [`EXTERNAL_THREAD`]).
    pub thread: u64,
    /// What happened.
    pub op: SyncOp,
    /// The synchronisation object acted on (lock, condvar, ring, cell), if
    /// any. Ids are allocated per machine by [`SyncBus::alloc_object`].
    pub object: Option<u64>,
    /// The other thread involved (woken waiter, spawned child, caller), if
    /// any.
    pub target: Option<u64>,
    /// Operation-specific payload (see [`SyncOp`] variants).
    pub aux: u64,
    /// Human name for the object, carried only by events whose emitter
    /// knows one (shared cells); empty otherwise.
    pub label: String,
    /// Virtual time of the event.
    pub time: Nanos,
}

/// Observer callback for [`SyncEvent`]s (the logger's hook).
pub type SyncObserver = Arc<dyn Fn(&SyncEvent) + Send + Sync>;

/// The per-machine synchronisation event channel.
///
/// Instrumented components hold an `Arc<SyncBus>` and call
/// [`emit`](SyncBus::emit); the logger attaches an observer when sync-event
/// tracking is enabled. Object ids come from a per-bus counter, so under
/// the deterministic scheduler the id assignment — and therefore the trace
/// — is reproducible.
pub struct SyncBus {
    clock: Clock,
    next_object: AtomicU64,
    /// Read on every emission; with nothing attached that is one load.
    observer: Armed<dyn Fn(&SyncEvent) + Send + Sync>,
}

impl std::fmt::Debug for SyncBus {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SyncBus")
            .field("clock", &self.clock)
            .field("next_object", &self.next_object)
            .finish()
    }
}

impl SyncBus {
    /// Creates a bus stamping events with `clock`.
    pub fn new(clock: Clock) -> SyncBus {
        SyncBus {
            clock,
            next_object: AtomicU64::new(0),
            observer: Armed::new(),
        }
    }

    /// Allocates a fresh synchronisation object id.
    pub fn alloc_object(&self) -> u64 {
        self.next_object.fetch_add(1, Ordering::SeqCst)
    }

    /// Installs (or clears) the event observer.
    pub fn set_observer(&self, observer: Option<SyncObserver>) {
        self.observer.set(observer);
    }

    /// Publishes an event (stamped with the current virtual time) to the
    /// observer, if one is attached. A no-op otherwise.
    pub fn emit(
        &self,
        thread: u64,
        op: SyncOp,
        object: Option<u64>,
        target: Option<u64>,
        aux: u64,
        label: &str,
    ) {
        if let Some(obs) = self.observer.get() {
            obs(&SyncEvent {
                thread,
                op,
                object,
                target,
                aux,
                label: label.to_string(),
                time: self.clock.now(),
            });
        }
    }
}

/// A shared cell whose accesses are visible to the race analysis.
///
/// Workloads wrap cross-thread state in `Shared<T>` instead of a bare
/// `Mutex<T>`: every [`read`](Shared::read) and [`write`](Shared::write)
/// emits a [`SyncOp::SharedRead`]/[`SyncOp::SharedWrite`] event tagged with
/// the cell's name, so the happens-before and lockset analyses can tell
/// whether the access is ordered by the locks actually held.
///
/// The inner mutex only guards the *memory* of the simulation process (the
/// analysis deliberately models the access as unprotected unless a
/// simulated lock orders it).
#[derive(Debug)]
pub struct Shared<T> {
    bus: Arc<SyncBus>,
    id: u64,
    name: String,
    value: Mutex<T>,
}

impl<T> Shared<T> {
    /// Creates a named shared cell registered on `bus`.
    pub fn new(bus: Arc<SyncBus>, name: &str, value: T) -> Shared<T> {
        let id = bus.alloc_object();
        Shared {
            bus,
            id,
            name: name.to_string(),
            value: Mutex::new(value),
        }
    }

    /// The cell's synchronisation object id.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// The cell's name, as it appears in findings.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Reads the cell as `thread`, emitting a [`SyncOp::SharedRead`].
    pub fn read<R>(&self, thread: u64, f: impl FnOnce(&T) -> R) -> R {
        self.bus.emit(
            thread,
            SyncOp::SharedRead,
            Some(self.id),
            None,
            0,
            &self.name,
        );
        f(&self.value.lock().unwrap())
    }

    /// Writes the cell as `thread`, emitting a [`SyncOp::SharedWrite`].
    pub fn write<R>(&self, thread: u64, f: impl FnOnce(&mut T) -> R) -> R {
        self.bus.emit(
            thread,
            SyncOp::SharedWrite,
            Some(self.id),
            None,
            0,
            &self.name,
        );
        f(&mut self.value.lock().unwrap())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn op_codes_roundtrip() {
        for op in SyncOp::ALL {
            assert_eq!(SyncOp::from_code(op.code()), Some(op));
            assert!(!op.label().is_empty());
        }
        assert_eq!(SyncOp::from_code(99), None);
    }

    #[test]
    fn emit_without_observer_is_silent() {
        let bus = SyncBus::new(Clock::new());
        // Must not panic or block.
        bus.emit(0, SyncOp::LockAcquire, Some(1), None, 0, "");
    }

    #[test]
    fn emit_reaches_observer_with_timestamp() {
        let clock = Clock::new();
        let bus = Arc::new(SyncBus::new(clock.clone()));
        let seen: Arc<Mutex<Vec<SyncEvent>>> = Arc::default();
        let sink = Arc::clone(&seen);
        bus.set_observer(Some(Arc::new(move |ev: &SyncEvent| {
            sink.lock().unwrap().push(ev.clone());
        })));
        clock.advance(Nanos::from_nanos(42));
        bus.emit(3, SyncOp::CondSignal, Some(7), Some(1), 9, "");
        bus.set_observer(None);
        bus.emit(3, SyncOp::CondSignal, Some(7), Some(1), 9, "");
        let seen = seen.lock().unwrap();
        assert_eq!(seen.len(), 1);
        assert_eq!(seen[0].thread, 3);
        assert_eq!(seen[0].op, SyncOp::CondSignal);
        assert_eq!(seen[0].object, Some(7));
        assert_eq!(seen[0].target, Some(1));
        assert_eq!(seen[0].aux, 9);
        assert_eq!(seen[0].time, Nanos::from_nanos(42));
    }

    #[test]
    fn a_cleared_observer_hears_nothing_until_one_is_attached_again() {
        let bus = SyncBus::new(Clock::new());
        let seen: Arc<Mutex<Vec<u64>>> = Arc::default();
        let observer = |seen: &Arc<Mutex<Vec<u64>>>, id: u64| -> SyncObserver {
            let sink = Arc::clone(seen);
            Arc::new(move |ev: &SyncEvent| sink.lock().unwrap().push(id * 100 + ev.thread))
        };
        bus.set_observer(Some(observer(&seen, 1)));
        bus.emit(1, SyncOp::LockAcquire, Some(1), None, 0, "");
        bus.set_observer(None);
        bus.emit(2, SyncOp::LockAcquire, Some(1), None, 0, "");
        bus.set_observer(None);
        bus.emit(3, SyncOp::LockAcquire, Some(1), None, 0, "");
        bus.set_observer(Some(observer(&seen, 2)));
        bus.emit(4, SyncOp::LockRelease, Some(1), None, 0, "");
        assert_eq!(*seen.lock().unwrap(), [101, 204]);
    }

    #[test]
    fn shared_cells_emit_tagged_accesses() {
        let bus = Arc::new(SyncBus::new(Clock::new()));
        let seen: Arc<Mutex<Vec<SyncEvent>>> = Arc::default();
        let sink = Arc::clone(&seen);
        bus.set_observer(Some(Arc::new(move |ev: &SyncEvent| {
            sink.lock().unwrap().push(ev.clone());
        })));
        let cell = Shared::new(Arc::clone(&bus), "counter", 0u64);
        cell.write(0, |v| *v += 1);
        assert_eq!(cell.read(1, |v| *v), 1);
        let seen = seen.lock().unwrap();
        assert_eq!(seen.len(), 2);
        assert_eq!(seen[0].op, SyncOp::SharedWrite);
        assert_eq!(seen[0].label, "counter");
        assert_eq!(seen[1].op, SyncOp::SharedRead);
        assert_eq!(seen[1].object, Some(cell.id()));
    }

    #[test]
    fn object_ids_are_sequential() {
        let bus = SyncBus::new(Clock::new());
        assert_eq!(bus.alloc_object(), 0);
        assert_eq!(bus.alloc_object(), 1);
    }
}
