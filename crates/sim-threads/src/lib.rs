//! Deterministic cooperative logical threads.
//!
//! Multi-threaded SGX workloads (e.g. SecureKeeper's client handlers
//! contending on an in-enclave mutex) need real concurrency *semantics* —
//! parking, waking, interleaving — but the reproduction must stay
//! bit-deterministic. This crate provides logical threads scheduled
//! cooperatively: **exactly one logical thread runs at a time**, and
//! scheduling decisions are pure round-robin over a FIFO run queue, so the
//! interleaving is a deterministic function of the program.
//!
//! Logical threads cooperate through explicit scheduling points:
//! [`SimCtx::yield_now`], [`SimCtx::park`]/[`SimCtx::unpark`] and
//! [`SimCtx::sleep`]. Sleeping integrates with the shared virtual
//! [`Clock`]: when every runnable thread is asleep, the
//! scheduler advances the clock to the earliest deadline.
//!
//! # Engines
//!
//! Two interchangeable execution engines implement the same scheduling
//! model ([`Engine`]):
//!
//! * [`Engine::Fast`] (the default) runs every logical thread as a
//!   stackful coroutine on the **single OS thread** that calls
//!   [`Simulation::run`]. A scheduling point is a user-space context
//!   switch — a few dozen nanoseconds, no parking syscalls, no condvar
//!   round-trips — which makes simulation throughput 10–100× higher.
//! * [`Engine::Legacy`] backs each logical thread with a real OS thread
//!   and passes an execution token over a condvar. It is kept as the
//!   differential oracle: for every program, both engines must produce
//!   the same interleaving, the same virtual-clock trajectory, and hence
//!   byte-identical traces (the `engine_diff` suite asserts this).
//!
//! Selection: [`Simulation::new`] honours a scoped [`with_engine`]
//! override first, then the `SGXPERF_SIM_ENGINE` environment variable
//! (`fast` or `legacy`), and defaults to [`Engine::Fast`].
//! [`Simulation::with_engine_kind`] pins an engine explicitly.
//!
//! # Examples
//!
//! ```
//! use sim_core::{Clock, Nanos};
//! use sim_threads::Simulation;
//! use std::sync::atomic::{AtomicU32, Ordering};
//! use std::sync::Arc;
//!
//! let clock = Clock::new();
//! let sim = Simulation::new(clock.clone());
//! let counter = Arc::new(AtomicU32::new(0));
//! for _ in 0..3 {
//!     let counter = Arc::clone(&counter);
//!     sim.spawn("worker", move |ctx| {
//!         for _ in 0..10 {
//!             counter.fetch_add(1, Ordering::SeqCst);
//!             ctx.yield_now();
//!         }
//!     });
//! }
//! sim.run();
//! assert_eq!(counter.load(Ordering::SeqCst), 30);
//! ```

use std::cell::{Cell, RefCell};
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use sim_core::syncev::SyncBus;
use sim_core::{Clock, Nanos};

mod fast;
mod legacy;

/// Identifier of a logical thread within one [`Simulation`].
///
/// Ids are dense, assigned in spawn order starting from 0, and are what the
/// SGX SDK simulation records as the "thread id" in trace events.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct LogicalThreadId(pub usize);

impl fmt::Display for LogicalThreadId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "lt{}", self.0)
    }
}

/// Which execution engine backs a [`Simulation`] (see the
/// [crate docs](crate) for the trade-off).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Engine {
    /// OS-thread token passing over a condvar — the original engine, kept
    /// as the differential oracle.
    Legacy,
    /// Single-OS-thread stackful coroutines — the fast path.
    #[default]
    Fast,
}

impl Engine {
    /// Parses an engine name as used by `SGXPERF_SIM_ENGINE` and CLI
    /// flags. Returns `None` for unknown names.
    pub fn parse(name: &str) -> Option<Engine> {
        match name {
            "legacy" => Some(Engine::Legacy),
            "fast" => Some(Engine::Fast),
            _ => None,
        }
    }

    /// Label used in bench output and file names.
    pub fn label(self) -> &'static str {
        match self {
            Engine::Legacy => "legacy",
            Engine::Fast => "fast",
        }
    }

    /// The engine [`Simulation::new`] picks on this thread right now:
    /// scoped [`with_engine`] override, then `SGXPERF_SIM_ENGINE`, then
    /// [`Engine::Fast`].
    pub fn current() -> Engine {
        if let Some(e) = ENGINE_OVERRIDE.with(|o| o.get()) {
            return e;
        }
        std::env::var("SGXPERF_SIM_ENGINE")
            .ok()
            .and_then(|v| Engine::parse(&v))
            .unwrap_or_default()
    }
}

impl fmt::Display for Engine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

thread_local! {
    static ENGINE_OVERRIDE: Cell<Option<Engine>> = const { Cell::new(None) };
    static BUDGET_OVERRIDE: RefCell<Option<Arc<SimBudget>>> = const { RefCell::new(None) };
}

/// Panic message raised at a scheduling point once a [`SimBudget`]'s
/// event allowance is spent. Supervisors match on it to classify the
/// failure as a (deterministic, virtual-time) timeout.
pub const EVENT_BUDGET_EXHAUSTED: &str = "simulation event budget exhausted";

/// Panic message raised at the first scheduling point after
/// [`SimBudget::cancel`] — the cooperative path a wall-clock watchdog
/// uses to unwind a hung simulation without abandoning its thread.
pub const SIM_CANCELLED: &str = "simulation cancelled by supervisor";

/// A shared supervision handle charged at every scheduling point.
///
/// Install one around a workload with [`with_budget`]; every
/// [`Simulation`] subsequently created on that thread captures the
/// handle, and **all** of them draw from the same pool — the budget
/// bounds the whole cell, not a single simulation. Because both engines
/// produce identical interleavings, the pool drains identically on both,
/// so exhaustion is a deterministic event: same scheduling point, same
/// panic message, either engine.
///
/// The handle also carries a cancellation flag: [`SimBudget::cancel`]
/// (typically called from a watchdog thread when a wall-clock deadline
/// passes) makes the simulation panic at its next scheduling point, so a
/// hung-but-still-scheduling cell unwinds cooperatively instead of
/// leaving a runaway OS thread behind.
#[derive(Debug)]
pub struct SimBudget {
    /// Remaining scheduling-point charges; `u64::MAX` means unlimited.
    events: AtomicU64,
    cancelled: AtomicBool,
}

impl SimBudget {
    /// A handle with no event cap — useful when only cancellation is
    /// needed (pure wall-clock supervision).
    pub fn unlimited() -> Arc<SimBudget> {
        SimBudget::with_events(u64::MAX)
    }

    /// A handle allowing `events` scheduling points across every
    /// simulation that captures it.
    pub fn with_events(events: u64) -> Arc<SimBudget> {
        Arc::new(SimBudget {
            events: AtomicU64::new(events),
            cancelled: AtomicBool::new(false),
        })
    }

    /// Requests cooperative cancellation: the owning simulation panics
    /// with [`SIM_CANCELLED`] at its next scheduling point.
    pub fn cancel(&self) {
        self.cancelled.store(true, Ordering::SeqCst);
    }

    /// Charges one scheduling point. Exactly one logical thread runs at
    /// a time, so charges are totally ordered and the panic point is
    /// deterministic.
    pub(crate) fn charge(&self) {
        if self.cancelled.load(Ordering::SeqCst) {
            panic!("{SIM_CANCELLED}");
        }
        let left = self.events.load(Ordering::SeqCst);
        if left == u64::MAX {
            return; // unlimited
        }
        if left == 0 {
            panic!("{EVENT_BUDGET_EXHAUSTED}");
        }
        self.events.store(left - 1, Ordering::SeqCst);
    }
}

/// Runs `f` with every [`Simulation`] created on **this thread** charged
/// against `budget` — the campaign supervisor's hook for bounding a cell
/// in virtual events and cancelling it on a wall-clock deadline.
/// Restores the previous handle on exit, including on panic.
pub fn with_budget<R>(budget: Arc<SimBudget>, f: impl FnOnce() -> R) -> R {
    struct Restore(Option<Arc<SimBudget>>);
    impl Drop for Restore {
        fn drop(&mut self) {
            BUDGET_OVERRIDE.with(|b| *b.borrow_mut() = self.0.take());
        }
    }
    let _restore = Restore(BUDGET_OVERRIDE.with(|b| b.borrow_mut().replace(budget)));
    f()
}

/// The budget [`Simulation`] constructors capture on this thread.
pub(crate) fn current_budget() -> Option<Arc<SimBudget>> {
    BUDGET_OVERRIDE.with(|b| b.borrow().clone())
}

/// Runs `f` with every [`Simulation::new`] on **this thread** pinned to
/// `engine` — the hook the differential tests and the campaign runner use
/// to drive workloads (which construct their own simulations internally)
/// on a chosen engine. Restores the previous override on exit, including
/// on panic.
pub fn with_engine<R>(engine: Engine, f: impl FnOnce() -> R) -> R {
    struct Restore(Option<Engine>);
    impl Drop for Restore {
        fn drop(&mut self) {
            ENGINE_OVERRIDE.with(|o| o.set(self.0));
        }
    }
    let _restore = Restore(ENGINE_OVERRIDE.with(|o| o.replace(Some(engine))));
    f()
}

enum SimImpl {
    Legacy(legacy::Sim),
    Fast(fast::Sim),
}

/// A deterministic multi-threaded simulation.
///
/// Spawn logical threads with [`Simulation::spawn`], then drive them to
/// completion with [`Simulation::run`]. See the [crate docs](crate) for the
/// scheduling model and the engine choice.
pub struct Simulation {
    inner: SimImpl,
}

impl fmt::Debug for Simulation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (threads, started) = match &self.inner {
            SimImpl::Legacy(s) => s.debug_fields(),
            SimImpl::Fast(s) => s.debug_fields(),
        };
        f.debug_struct("Simulation")
            .field("engine", &self.engine())
            .field("threads", &threads)
            .field("started", &started)
            .finish()
    }
}

impl Simulation {
    /// Creates a simulation driven by the given virtual clock, on the
    /// engine [`Engine::current`] selects.
    pub fn new(clock: Clock) -> Self {
        Simulation::with_engine_kind(clock, Engine::current())
    }

    /// Creates a simulation pinned to an explicit engine.
    pub fn with_engine_kind(clock: Clock, engine: Engine) -> Self {
        let inner = match engine {
            Engine::Legacy => SimImpl::Legacy(legacy::Sim::new(clock)),
            Engine::Fast => SimImpl::Fast(fast::Sim::new(clock)),
        };
        Simulation { inner }
    }

    /// The engine backing this simulation.
    pub fn engine(&self) -> Engine {
        match &self.inner {
            SimImpl::Legacy(_) => Engine::Legacy,
            SimImpl::Fast(_) => Engine::Fast,
        }
    }

    /// The clock this simulation advances.
    pub fn clock(&self) -> &Clock {
        match &self.inner {
            SimImpl::Legacy(s) => s.clock(),
            SimImpl::Fast(s) => s.clock(),
        }
    }

    /// Routes thread spawn/join events to `bus` so the race analysis sees
    /// the happens-before edges the scheduler creates.
    pub fn set_sync_bus(&self, bus: Arc<SyncBus>) {
        match &self.inner {
            SimImpl::Legacy(s) => s.set_sync_bus(bus),
            SimImpl::Fast(s) => s.set_sync_bus(bus),
        }
    }

    /// Spawns a logical thread. The closure receives a [`SimCtx`] giving it
    /// access to scheduling operations; it begins executing only once
    /// [`Simulation::run`] dispatches it (threads may also be spawned from
    /// inside a running logical thread).
    pub fn spawn<F>(&self, name: &str, f: F) -> LogicalThreadId
    where
        F: FnOnce(&SimCtx) + Send + 'static,
    {
        match &self.inner {
            SimImpl::Legacy(s) => s.spawn(name, f),
            SimImpl::Fast(s) => s.spawn(name, f),
        }
    }

    /// Runs all spawned logical threads to completion under round-robin
    /// scheduling.
    ///
    /// # Panics
    ///
    /// Panics if any logical thread panicked, or if the simulation
    /// deadlocked (every remaining thread parked with nobody to unpark it).
    pub fn run(&self) {
        match &self.inner {
            SimImpl::Legacy(s) => s.run(),
            SimImpl::Fast(s) => s.run(),
        }
    }
}

enum CtxImpl {
    Legacy(legacy::Ctx),
    Fast(fast::Ctx),
}

/// Handle passed to each logical thread giving it scheduling operations.
///
/// All methods are *scheduling points*: control may transfer to another
/// logical thread and only return here later (at a later virtual time).
pub struct SimCtx {
    inner: CtxImpl,
}

impl fmt::Debug for SimCtx {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SimCtx({})", self.id())
    }
}

impl SimCtx {
    pub(crate) fn from_legacy(ctx: legacy::Ctx) -> SimCtx {
        SimCtx {
            inner: CtxImpl::Legacy(ctx),
        }
    }

    pub(crate) fn from_fast(ctx: fast::Ctx) -> SimCtx {
        SimCtx {
            inner: CtxImpl::Fast(ctx),
        }
    }

    /// This logical thread's id.
    pub fn id(&self) -> LogicalThreadId {
        match &self.inner {
            CtxImpl::Legacy(c) => c.id(),
            CtxImpl::Fast(c) => c.id(),
        }
    }

    /// The simulation's virtual clock.
    pub fn clock(&self) -> &Clock {
        match &self.inner {
            CtxImpl::Legacy(c) => c.clock(),
            CtxImpl::Fast(c) => c.clock(),
        }
    }

    /// Re-enqueues this thread and lets the next runnable thread execute.
    pub fn yield_now(&self) {
        match &self.inner {
            CtxImpl::Legacy(c) => c.yield_now(),
            CtxImpl::Fast(c) => c.yield_now(),
        }
    }

    /// Blocks this thread until another thread [`unpark`](SimCtx::unpark)s
    /// it. If an unpark permit is already pending, returns immediately
    /// (consuming the permit) without a context switch.
    pub fn park(&self) {
        match &self.inner {
            CtxImpl::Legacy(c) => c.park(),
            CtxImpl::Fast(c) => c.park(),
        }
    }

    /// Makes `target` runnable again (or leaves a permit if it is not
    /// currently parked). Does not switch control.
    pub fn unpark(&self, target: LogicalThreadId) {
        match &self.inner {
            CtxImpl::Legacy(c) => c.unpark(target),
            CtxImpl::Fast(c) => c.unpark(target),
        }
    }

    /// Sleeps until the virtual clock reaches `deadline`.
    pub fn sleep_until(&self, deadline: Nanos) {
        match &self.inner {
            CtxImpl::Legacy(c) => c.sleep_until(deadline),
            CtxImpl::Fast(c) => c.sleep_until(deadline),
        }
    }

    /// Sleeps for `dur` of virtual time.
    pub fn sleep(&self, dur: Nanos) {
        let deadline = self.clock().now() + dur;
        self.sleep_until(deadline);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_core::sync::Mutex;
    use std::sync::atomic::{AtomicUsize, Ordering};

    const ENGINES: [Engine; 2] = [Engine::Legacy, Engine::Fast];

    fn sim(engine: Engine) -> Simulation {
        Simulation::with_engine_kind(Clock::new(), engine)
    }

    #[test]
    fn single_thread_runs_to_completion() {
        for engine in ENGINES {
            let s = sim(engine);
            let ran = Arc::new(AtomicUsize::new(0));
            let r = Arc::clone(&ran);
            s.spawn("t", move |_| {
                r.store(1, Ordering::SeqCst);
            });
            s.run();
            assert_eq!(ran.load(Ordering::SeqCst), 1, "{engine}");
        }
    }

    #[test]
    fn round_robin_interleaving_is_deterministic() {
        // Two threads each append their id at every yield; the interleaving
        // must be strictly alternating and identical across runs and
        // engines.
        fn trace(engine: Engine) -> Vec<usize> {
            let s = sim(engine);
            let log = Arc::new(Mutex::new(Vec::new()));
            for id in 0..2 {
                let log = Arc::clone(&log);
                s.spawn("t", move |ctx| {
                    for _ in 0..5 {
                        log.lock().push(id);
                        ctx.yield_now();
                    }
                });
            }
            s.run();
            let guard = log.lock();
            guard.clone()
        }
        for engine in ENGINES {
            let a = trace(engine);
            let b = trace(engine);
            assert_eq!(a, b, "{engine}");
            assert_eq!(a, vec![0, 1, 0, 1, 0, 1, 0, 1, 0, 1], "{engine}");
        }
    }

    #[test]
    fn park_unpark_handoff() {
        for engine in ENGINES {
            let s = sim(engine);
            let order = Arc::new(Mutex::new(Vec::new()));
            let o1 = Arc::clone(&order);
            let waiter = s.spawn("waiter", move |ctx| {
                o1.lock().push("before park");
                ctx.park();
                o1.lock().push("after park");
            });
            let o2 = Arc::clone(&order);
            s.spawn("waker", move |ctx| {
                o2.lock().push("waking");
                ctx.unpark(waiter);
            });
            s.run();
            let got = order.lock().clone();
            assert_eq!(got, vec!["before park", "waking", "after park"], "{engine}");
        }
    }

    #[test]
    fn unpark_before_park_leaves_permit() {
        for engine in ENGINES {
            let s = sim(engine);
            let hits = Arc::new(AtomicUsize::new(0));
            let h = Arc::clone(&hits);
            // Thread 0 parks *after* thread 1 has already unparked it.
            let t0 = s.spawn("t0", move |ctx| {
                ctx.yield_now(); // let t1 run first
                ctx.park(); // permit pending: must not block
                h.store(1, Ordering::SeqCst);
            });
            s.spawn("t1", move |ctx| {
                ctx.unpark(t0);
            });
            s.run();
            assert_eq!(hits.load(Ordering::SeqCst), 1, "{engine}");
        }
    }

    #[test]
    fn sleep_advances_virtual_clock() {
        for engine in ENGINES {
            let clock = Clock::new();
            let s = Simulation::with_engine_kind(clock.clone(), engine);
            s.spawn("sleeper", move |ctx| {
                ctx.sleep(Nanos::from_millis(5));
            });
            s.run();
            assert_eq!(clock.now(), Nanos::from_millis(5), "{engine}");
        }
    }

    #[test]
    fn sleepers_wake_in_deadline_order() {
        for engine in ENGINES {
            let clock = Clock::new();
            let s = Simulation::with_engine_kind(clock.clone(), engine);
            let log = Arc::new(Mutex::new(Vec::new()));
            for (name, ms) in [("late", 10u64), ("early", 2)] {
                let log = Arc::clone(&log);
                let c = clock.clone();
                s.spawn(name, move |ctx| {
                    ctx.sleep(Nanos::from_millis(ms));
                    log.lock().push((name, c.now().as_millis_f64() as u64));
                });
            }
            s.run();
            let got = log.lock().clone();
            assert_eq!(got, vec![("early", 2), ("late", 10)], "{engine}");
        }
    }

    #[test]
    #[should_panic(expected = "deadlock")]
    fn deadlock_is_detected_legacy() {
        let s = sim(Engine::Legacy);
        s.spawn("stuck", |ctx| ctx.park());
        s.run();
    }

    #[test]
    #[should_panic(expected = "deadlock")]
    fn deadlock_is_detected_fast() {
        let s = sim(Engine::Fast);
        s.spawn("stuck", |ctx| ctx.park());
        s.run();
    }

    #[test]
    #[should_panic(expected = "boom")]
    fn thread_panic_propagates_legacy() {
        let s = sim(Engine::Legacy);
        s.spawn("bad", |_| panic!("boom"));
        s.run();
    }

    #[test]
    #[should_panic(expected = "boom")]
    fn thread_panic_propagates_fast() {
        let s = sim(Engine::Fast);
        s.spawn("bad", |_| panic!("boom"));
        s.run();
    }

    #[test]
    fn spawn_from_running_thread() {
        for engine in ENGINES {
            let s = Arc::new(sim(engine));
            let s2 = Arc::clone(&s);
            let count = Arc::new(AtomicUsize::new(0));
            let c = Arc::clone(&count);
            s.spawn("parent", move |ctx| {
                let c2 = Arc::clone(&c);
                s2.spawn("child", move |_| {
                    c2.fetch_add(10, Ordering::SeqCst);
                });
                c.fetch_add(1, Ordering::SeqCst);
                ctx.yield_now();
            });
            s.run();
            assert_eq!(count.load(Ordering::SeqCst), 11, "{engine}");
        }
    }

    #[test]
    fn many_threads_complete() {
        for engine in ENGINES {
            let s = sim(engine);
            let count = Arc::new(AtomicUsize::new(0));
            for _ in 0..32 {
                let c = Arc::clone(&count);
                s.spawn("w", move |ctx| {
                    for _ in 0..8 {
                        c.fetch_add(1, Ordering::SeqCst);
                        ctx.yield_now();
                    }
                });
            }
            s.run();
            assert_eq!(count.load(Ordering::SeqCst), 32 * 8, "{engine}");
        }
    }

    #[test]
    fn with_engine_overrides_and_restores() {
        assert_eq!(
            with_engine(Engine::Legacy, || Simulation::new(Clock::new()).engine()),
            Engine::Legacy
        );
        assert_eq!(
            with_engine(Engine::Fast, || Simulation::new(Clock::new()).engine()),
            Engine::Fast
        );
        // Nested overrides unwind in order.
        with_engine(Engine::Legacy, || {
            assert_eq!(Engine::current(), Engine::Legacy);
            with_engine(Engine::Fast, || {
                assert_eq!(Engine::current(), Engine::Fast);
            });
            assert_eq!(Engine::current(), Engine::Legacy);
        });
    }

    /// Runs a two-thread spin under a budget of `events` scheduling
    /// points and returns the panic message, if any.
    fn spin_under_budget(engine: Engine, events: u64) -> Result<(), String> {
        let budget = SimBudget::with_events(events);
        std::panic::catch_unwind(|| {
            with_budget(budget, || {
                let s = sim(engine);
                for _ in 0..2 {
                    s.spawn("spin", |ctx| {
                        for _ in 0..50 {
                            ctx.yield_now();
                        }
                    });
                }
                s.run();
            });
        })
        .map_err(|p| {
            p.downcast_ref::<String>()
                .cloned()
                .or_else(|| p.downcast_ref::<&str>().map(|s| (*s).to_string()))
                .unwrap_or_default()
        })
    }

    #[test]
    fn event_budget_exhaustion_is_identical_across_engines() {
        for engine in ENGINES {
            // Plenty of budget: the spin completes.
            assert_eq!(spin_under_budget(engine, 1000), Ok(()), "{engine}");
            // Starved: both engines fail with the budget message.
            let err = spin_under_budget(engine, 10).unwrap_err();
            assert!(err.contains(EVENT_BUDGET_EXHAUSTED), "{engine}: {err}");
        }
        // The exact survivable threshold matches across engines: binary
        // search the smallest budget that completes, per engine.
        let threshold = |engine: Engine| {
            (0..200)
                .find(|&n| spin_under_budget(engine, n).is_ok())
                .expect("spin must complete under some budget")
        };
        assert_eq!(threshold(Engine::Fast), threshold(Engine::Legacy));
    }

    #[test]
    fn cancellation_unwinds_at_the_next_scheduling_point() {
        for engine in ENGINES {
            let budget = SimBudget::unlimited();
            budget.cancel();
            let err = std::panic::catch_unwind(|| {
                with_budget(Arc::clone(&budget), || {
                    let s = sim(engine);
                    s.spawn("spin", |ctx| loop {
                        ctx.yield_now();
                    });
                    s.run();
                });
            })
            .map_err(|p| {
                p.downcast_ref::<String>()
                    .cloned()
                    .or_else(|| p.downcast_ref::<&str>().map(|s| (*s).to_string()))
                    .unwrap_or_default()
            })
            .unwrap_err();
            assert!(err.contains(SIM_CANCELLED), "{engine}: {err}");
        }
    }

    #[test]
    fn with_budget_restores_on_exit() {
        assert!(current_budget().is_none());
        with_budget(SimBudget::with_events(5), || {
            assert!(current_budget().is_some());
            with_budget(SimBudget::unlimited(), || {
                assert!(current_budget().is_some());
            });
            assert!(current_budget().is_some());
        });
        assert!(current_budget().is_none());
    }

    #[test]
    fn engine_parse_round_trips() {
        for engine in ENGINES {
            assert_eq!(Engine::parse(engine.label()), Some(engine));
        }
        assert_eq!(Engine::parse("warp"), None);
    }

    #[test]
    fn fast_engine_reuses_stacks_across_threads() {
        // Far more logical threads than plausible simultaneous stacks: the
        // pool must recycle, and everything still completes.
        let s = sim(Engine::Fast);
        let count = Arc::new(AtomicUsize::new(0));
        for _ in 0..256 {
            let c = Arc::clone(&count);
            s.spawn("w", move |ctx| {
                c.fetch_add(1, Ordering::SeqCst);
                ctx.yield_now();
            });
        }
        s.run();
        assert_eq!(count.load(Ordering::SeqCst), 256);
    }
}
