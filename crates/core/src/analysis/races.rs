//! Schedule-generalizing race and deadlock analysis (`sgxperf races`).
//!
//! The deterministic scheduler runs exactly one logical thread at a time,
//! so a data race or a lock-order deadlock can never *manifest* in a
//! simulated run. This module answers the question the trace alone cannot:
//! **would this synchronisation be correct on real hardware, under other
//! interleavings?** It replays the `syncev` table (recorded with
//! [`LoggerConfig::track_syncev`](crate::LoggerConfig)) through three
//! classic analyses:
//!
//! * **Happens-before race detection** (FastTrack-style vector clocks,
//!   `RACE-E001`): a shared-cell access pair on different threads with no
//!   ordering path through locks, condvars, spawn/join edges or switchless
//!   ring hand-offs is a data race under *some* feasible schedule, not
//!   just the observed one.
//! * **Lockset refinement** (Eraser-style, `RACE-W002`): a second witness
//!   with lower false-negative risk — a multi-thread written cell whose
//!   accesses share no common lock is suspicious even when fork/join
//!   ordering happens to cover the observed run.
//! * **Lock-order graph** (`RACE-E003`): a cycle in the held-while-
//!   acquiring relation is a potential deadlock no schedule of this run
//!   could show. Cross-referenced with the ecall/ocall tables, a lock held
//!   across an ocall additionally earns `RACE-W004` — the §3.4
//!   re-entrancy hazard: the host can re-enter the enclave on the same
//!   TCS while the lock is held.
//!
//! Exit-code contract (mirrors `sgxperf diff`): error findings → 3, clean
//! or warnings only → 0.

use std::collections::{BTreeMap, BTreeSet, HashMap};

use sgx_edl::Severity;
use sgx_sdk::sync::LockPath;
use sgx_sdk::sync_ocalls;
use sim_core::syncev::{SyncOp, EXTERNAL_THREAD};

use crate::events::CallKind;
use crate::json;
use crate::trace::TraceDb;

use super::parents::CallTable;

/// Stable finding codes, usable in deny lists and CI greps.
pub mod codes {
    /// Happens-before data race on a shared cell.
    pub const DATA_RACE: &str = "RACE-E001";
    /// Lockset violation: no common lock protects a multi-thread cell.
    pub const LOCKSET: &str = "RACE-W002";
    /// Lock-order cycle: potential deadlock.
    pub const LOCK_ORDER: &str = "RACE-E003";
    /// Lock held across an ocall: re-entrancy hazard (§3.4).
    pub const LOCK_ACROSS_OCALL: &str = "RACE-W004";
}

/// What a finding is about, with the structured evidence the
/// recommendation detectors consume.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RaceKind {
    /// Two unordered conflicting accesses to a shared cell.
    DataRace {
        /// Cell name (or `#id`).
        cell: String,
        /// The two access descriptions (`write by lt1 @ 3.2ms`).
        accesses: [String; 2],
        /// Whether the lockset witness concurs (empty common lockset).
        lockset_empty: bool,
    },
    /// No common lock across all accesses, but fork/join ordering covered
    /// the observed run.
    LocksetSuspicion {
        /// Cell name (or `#id`).
        cell: String,
        /// Number of distinct accessing threads.
        threads: usize,
    },
    /// Cycle in the lock-order graph.
    LockOrderCycle {
        /// Lock names along the cycle, in order.
        cycle: Vec<String>,
        /// One observed edge description per cycle arc.
        edges: Vec<String>,
    },
    /// A lock was held across a (non-sync) ocall.
    LockAcrossOcall {
        /// Lock name (or `#id`).
        lock: String,
        /// The ocall crossed while holding it.
        ocall: String,
        /// How many times the pattern occurred.
        occurrences: usize,
    },
}

/// One race-analysis finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RaceFinding {
    /// Stable code (see [`codes`]).
    pub code: &'static str,
    /// Error findings gate CI (exit 3); warnings do not.
    pub severity: Severity,
    /// Structured evidence.
    pub kind: RaceKind,
    /// One-line description.
    pub message: String,
    /// Supporting `= note:` lines.
    pub notes: Vec<String>,
    /// Optional `= help:` suggestion.
    pub help: Option<String>,
}

impl RaceFinding {
    /// Renders the finding rustc-style:
    ///
    /// ```text
    /// error[RACE-E001]: data race on shared cell `counter`
    ///   = note: write by lt0 @ 12.5us and write by lt1 @ 86.2us are unordered
    ///   = help: guard every access with one mutex, or order them with spawn/join
    /// ```
    pub fn render(&self) -> String {
        let mut out = format!("{}[{}]: {}\n", self.severity, self.code, self.message);
        for n in &self.notes {
            out.push_str(&format!("  = note: {n}\n"));
        }
        if let Some(h) = &self.help {
            out.push_str(&format!("  = help: {h}\n"));
        }
        out
    }
}

/// Result of the three analyses over one trace.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RaceReport {
    /// All findings, errors first, in deterministic order.
    pub findings: Vec<RaceFinding>,
    /// Sync events analysed.
    pub events: usize,
    /// Distinct logical threads observed.
    pub threads: usize,
    /// Distinct locks observed.
    pub locks: usize,
    /// Distinct tagged shared cells observed.
    pub cells: usize,
}

impl RaceReport {
    /// Whether any error-severity finding is present.
    pub fn has_errors(&self) -> bool {
        self.findings.iter().any(|f| f.severity == Severity::Error)
    }

    /// CI gate: 3 when error findings exist, 0 otherwise (the `sgxperf
    /// diff` contract).
    pub fn exit_code(&self) -> u8 {
        if self.has_errors() {
            3
        } else {
            0
        }
    }

    /// Renders the whole report: every finding, then a summary line.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for f in &self.findings {
            out.push_str(&f.render());
            out.push('\n');
        }
        let errors = self
            .findings
            .iter()
            .filter(|f| f.severity == Severity::Error)
            .count();
        let warnings = self.findings.len() - errors;
        out.push_str(&format!(
            "races: {} error(s), {} warning(s) — {} sync events, {} thread(s), {} lock(s), {} shared cell(s)\n",
            errors, warnings, self.events, self.threads, self.locks, self.cells
        ));
        out
    }

    /// The report as a JSON object (for `--json`).
    pub fn to_json(&self) -> String {
        let findings: Vec<String> = self
            .findings
            .iter()
            .map(|f| {
                format!(
                    "{{\"code\":{},\"severity\":{},\"message\":{},\"notes\":[{}]}}",
                    json::string(f.code),
                    json::string(f.severity.label()),
                    json::string(&f.message),
                    f.notes
                        .iter()
                        .map(|n| json::string(n))
                        .collect::<Vec<_>>()
                        .join(",")
                )
            })
            .collect();
        format!(
            "{{\"events\":{},\"threads\":{},\"locks\":{},\"cells\":{},\"exit_code\":{},\"findings\":[{}]}}\n",
            self.events,
            self.threads,
            self.locks,
            self.cells,
            self.exit_code(),
            findings.join(",")
        )
    }
}

/// A vector clock: thread id → logical time.
type Vc = BTreeMap<u64, u64>;

fn vc_join(into: &mut Vc, from: &Vc) {
    for (&t, &c) in from {
        let e = into.entry(t).or_insert(0);
        *e = (*e).max(c);
    }
}

/// One recorded access to a shared cell, compressed FastTrack-style to an
/// epoch: `clock` is the accessing thread's own component at access time,
/// so access A happens-before a later event E iff `E.vc[A.thread] >=
/// A.clock`.
#[derive(Debug, Clone)]
struct Access {
    thread: u64,
    clock: u64,
    write: bool,
    time_ns: u64,
}

/// Eraser's per-cell state machine: lockset violations are reported only
/// once a cell is *shared-modified* — written after a second thread has
/// accessed it. Initialise-then-publish (write, then hand off via spawn,
/// signal or ring) stays in `Exclusive`/`Shared` and is never flagged.
#[derive(Debug, Default, PartialEq)]
enum CellPhase {
    #[default]
    Virgin,
    /// Only one thread has accessed the cell so far.
    Exclusive(u64),
    /// Multiple readers after the exclusive phase, no subsequent write.
    Shared,
    /// Written while shared: the lockset verdict applies.
    SharedModified,
}

impl CellPhase {
    fn access(&mut self, thread: u64, write: bool) {
        *self = match *self {
            CellPhase::Virgin => CellPhase::Exclusive(thread),
            CellPhase::Exclusive(t) if t == thread => CellPhase::Exclusive(t),
            CellPhase::Exclusive(_) | CellPhase::Shared => {
                if write {
                    CellPhase::SharedModified
                } else {
                    CellPhase::Shared
                }
            }
            CellPhase::SharedModified => CellPhase::SharedModified,
        };
    }
}

#[derive(Debug, Default)]
struct CellState {
    last_write: Option<Access>,
    /// Reads since the last write, at most one (the latest) per thread.
    reads: Vec<Access>,
    /// Eraser candidate lockset; `None` = still the full universe.
    lockset: Option<BTreeSet<u64>>,
    /// Distinct accessing threads.
    threads: BTreeSet<u64>,
    writes: usize,
    phase: CellPhase,
    /// First happens-before race found on this cell, if any.
    race: Option<(Access, Access)>,
}

/// Human name for a thread id.
fn thread_name(t: u64) -> String {
    if t == EXTERNAL_THREAD {
        "the driver thread".to_string()
    } else {
        format!("lt{t}")
    }
}

fn time_label(ns: u64) -> String {
    if ns >= 1_000_000 {
        format!("{:.1}ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.1}us", ns as f64 / 1e3)
    } else {
        format!("{ns}ns")
    }
}

fn access_label(a: &Access) -> String {
    format!(
        "{} by {} @ {}",
        if a.write { "write" } else { "read" },
        thread_name(a.thread),
        time_label(a.time_ns)
    )
}

/// Runs the happens-before, lockset and lock-order analyses over the
/// trace's `syncev` table. An empty table yields an empty (clean) report.
pub fn analyze(trace: &TraceDb) -> RaceReport {
    analyze_with(trace, ocalls_under_locks)
}

/// Completed lock holds: lock → `(thread, acquire_ns, release_ns)` per
/// hold.
type Holds = BTreeMap<u64, Vec<(u64, u64, u64)>>;

/// Counts, per (lock, ocall name), the non-sync ocalls that started on the
/// holding thread inside one of the lock's holds.
type HeldAcross = for<'t> fn(&TraceDb, &'t CallTable, &Holds) -> BTreeMap<(u64, &'t str), usize>;

/// [`HeldAcross`] in `O((holds + ocalls) · log ocalls)` plus one step per
/// counted ocall: each thread's ocall starts are listed in order once, so
/// a hold finds the ocalls inside it by binary search.
fn ocalls_under_locks<'t>(
    trace: &TraceDb,
    table: &'t CallTable,
    holds: &Holds,
) -> BTreeMap<(u64, &'t str), usize> {
    let mut starts: Vec<(u64, u64, &str)> = (trace.ocalls.iter())
        .zip(table.row_ids(CallKind::Ocall))
        .map(|(o, &id)| (o.thread, o.start_ns, table.recorded(id).unwrap_or("?")))
        // The lock's own sleep/wake traffic.
        .filter(|&(.., name)| !sync_ocalls::is_sync_ocall(name))
        .collect();
    starts.sort_unstable_by_key(|&(thread, start, _)| (thread, start));
    let mut counts = BTreeMap::new();
    for (&lock, holds) in holds {
        for &(thread, acquired, released) in holds {
            let from = starts.partition_point(|&(t, s, _)| (t, s) < (thread, acquired));
            let to = starts.partition_point(|&(t, s, _)| (t, s) < (thread, released));
            for &(.., name) in starts.get(from..to).unwrap_or_default() {
                *counts.entry((lock, name)).or_default() += 1;
            }
        }
    }
    counts
}

fn analyze_with(trace: &TraceDb, held_across: HeldAcross) -> RaceReport {
    let names = object_names(trace);
    let replay = replay(trace, &names);
    report(trace, &names, replay, held_across)
}

/// Each sync object's first recorded label.
fn object_names(trace: &TraceDb) -> HashMap<u64, String> {
    let mut names: HashMap<u64, String> = HashMap::new();
    for row in trace.syncev.iter() {
        if let Some(obj) = row.object {
            if !row.label.is_empty() {
                names.entry(obj).or_insert_with(|| row.label.clone());
            }
        }
    }
    names
}

/// A sync object as findings quote it: its label, or `#id`.
fn quoted(names: &HashMap<u64, String>, obj: u64) -> String {
    names
        .get(&obj)
        .map(|n| format!("`{n}`"))
        .unwrap_or_else(|| format!("`#{obj}`"))
}

/// Each thread's vector clock, updated in place. A thread's own
/// component is its tick, 1 when the thread is first seen.
#[derive(Default)]
struct Clocks(HashMap<u64, Vc>);

impl Clocks {
    fn of(&mut self, t: u64) -> &mut Vc {
        self.0.entry(t).or_insert_with(|| Vc::from([(t, 1)]))
    }

    fn tick(&mut self, t: u64) {
        *self.of(t).entry(t).or_insert(1) += 1;
    }

    /// Orders everything thread `from` has done before what thread `to`
    /// does next.
    fn join(&mut self, to: u64, from: u64) {
        if to != from {
            let from_vc = std::mem::take(self.of(from));
            vc_join(self.of(to), &from_vc);
            *self.of(from) = from_vc;
        }
    }
}

/// What replaying the `syncev` table leaves for the findings.
struct Replay {
    /// Lock-order edges: (held, acquired) → first observed evidence.
    order_edges: BTreeMap<(u64, u64), String>,
    /// Every completed lock hold.
    intervals: Holds,
    cells: BTreeMap<u64, CellState>,
    locks_seen: BTreeSet<u64>,
    threads_seen: BTreeSet<u64>,
}

/// Replays the `syncev` rows in order through the vector clocks, the
/// held locks and the per-cell access state.
fn replay(trace: &TraceDb, names: &HashMap<u64, String>) -> Replay {
    let display = |obj: u64| quoted(names, obj);
    let mut clocks = Clocks::default();
    // Release clocks of locks / condvars / rings (symmetric merge objects).
    let mut object_vc: HashMap<u64, Vc> = HashMap::new();
    // Locks currently held per thread, with acquire timestamps.
    let mut held: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    // Lock-order edges: (held, acquired) → first observed evidence.
    let mut order_edges: BTreeMap<(u64, u64), String> = BTreeMap::new();
    let mut intervals = Holds::new();
    let mut cells: BTreeMap<u64, CellState> = BTreeMap::new();
    let mut locks_seen: BTreeSet<u64> = BTreeSet::new();
    let mut threads_seen: BTreeSet<u64> = BTreeSet::new();

    for row in trace.syncev.iter() {
        let Some(op) = SyncOp::from_code(row.op) else {
            continue; // unknown op from a newer writer: skip, stay loadable
        };
        let t = row.thread;
        threads_seen.insert(t);
        match op {
            SyncOp::ThreadSpawn => {
                if let Some(child) = row.target {
                    threads_seen.insert(child);
                    clocks.join(child, t);
                    clocks.tick(t);
                }
            }
            SyncOp::ThreadJoin => {
                // `Simulation::run` blocks until every logical thread is
                // done, so driver-side events after the run happen-after
                // each completion under every schedule.
                clocks.join(EXTERNAL_THREAD, t);
                clocks.tick(t);
            }
            SyncOp::LockAcquire => {
                let Some(lock) = row.object else { continue };
                locks_seen.insert(lock);
                if let Some(rel) = object_vc.get(&lock) {
                    vc_join(clocks.of(t), rel);
                }
                let held_by_me = held.entry(t).or_default();
                for &(h, _) in held_by_me.iter() {
                    order_edges.entry((h, lock)).or_insert_with(|| {
                        format!(
                            "{} acquired {} while holding {} @ {}",
                            thread_name(t),
                            display(lock),
                            display(h),
                            time_label(row.time_ns)
                        )
                    });
                }
                held_by_me.push((lock, row.time_ns));
            }
            SyncOp::LockRelease => {
                let Some(lock) = row.object else { continue };
                locks_seen.insert(lock);
                object_vc.insert(lock, clocks.of(t).clone());
                clocks.tick(t);
                let held_by_me = held.entry(t).or_default();
                if let Some(pos) = held_by_me.iter().rposition(|&(l, _)| l == lock) {
                    let (_, acquired_ns) = held_by_me.remove(pos);
                    intervals
                        .entry(lock)
                        .or_default()
                        .push((t, acquired_ns, row.time_ns));
                }
            }
            SyncOp::CondWait => {
                // The paired mutex release was emitted separately; the
                // wait itself releases the waiter's clock into the condvar.
                let Some(cv) = row.object else { continue };
                vc_join(object_vc.entry(cv).or_default(), clocks.of(t));
                clocks.tick(t);
            }
            SyncOp::CondSignal => {
                // The wake happens-before the waiter's resumption, which
                // the replay order places strictly later.
                if let Some(w) = row.target {
                    threads_seen.insert(w);
                    clocks.join(w, t);
                    clocks.tick(t);
                }
            }
            SyncOp::RingPost | SyncOp::RingComplete => {
                // Symmetric merge through the ring object: the post/claim
                // hand-off orders caller and worker both ways.
                let Some(ring) = row.object else { continue };
                let (mine, rv) = (clocks.of(t), object_vc.entry(ring).or_default());
                vc_join(mine, rv);
                vc_join(rv, mine);
                if op == SyncOp::RingComplete {
                    if let Some(caller) = row.target {
                        threads_seen.insert(caller);
                        clocks.join(caller, t);
                    }
                }
                clocks.tick(t);
            }
            SyncOp::SharedRead | SyncOp::SharedWrite => {
                let Some(cell_id) = row.object else { continue };
                let write = op == SyncOp::SharedWrite;
                let mine = clocks.of(t);
                let access = Access {
                    thread: t,
                    clock: mine.get(&t).copied().unwrap_or(1),
                    write,
                    time_ns: row.time_ns,
                };
                let cell = cells.entry(cell_id).or_default();
                cell.threads.insert(t);
                cell.phase.access(t, write);
                if write {
                    cell.writes += 1;
                }
                // Happens-before check against the last write…
                let ordered = |prev: &Access, now_vc: &Vc| {
                    prev.thread == t || now_vc.get(&prev.thread).copied().unwrap_or(0) >= prev.clock
                };
                if cell.race.is_none() {
                    if let Some(w) = &cell.last_write {
                        if !ordered(w, mine) {
                            cell.race = Some((w.clone(), access.clone()));
                        }
                    }
                    // …and, for writes, against reads since that write.
                    if write {
                        if let Some(r) = cell.reads.iter().find(|r| !ordered(r, mine)) {
                            cell.race = Some((r.clone(), access.clone()));
                        }
                    }
                }
                if write {
                    cell.last_write = Some(access);
                    cell.reads.clear();
                } else {
                    cell.reads.retain(|r| r.thread != t);
                    cell.reads.push(access);
                }
                // Eraser lockset refinement.
                let held_now: BTreeSet<u64> = held
                    .get(&t)
                    .map(|v| v.iter().map(|&(l, _)| l).collect())
                    .unwrap_or_default();
                match &mut cell.lockset {
                    None => cell.lockset = Some(held_now),
                    Some(ls) => *ls = ls.intersection(&held_now).copied().collect(),
                }
            }
        }
    }

    Replay {
        order_edges,
        intervals,
        cells,
        locks_seen,
        threads_seen,
    }
}

/// The findings of one replay.
fn report(
    trace: &TraceDb,
    names: &HashMap<u64, String>,
    replay: Replay,
    held_across: HeldAcross,
) -> RaceReport {
    let Replay {
        order_edges,
        intervals,
        cells,
        locks_seen,
        threads_seen,
    } = replay;
    let display = |obj: u64| quoted(names, obj);
    let mut findings = Vec::new();

    for (&cell_id, cell) in &cells {
        let lockset_empty = cell.lockset.as_ref().is_some_and(BTreeSet::is_empty);
        let shared = cell.phase == CellPhase::SharedModified;
        if let Some((a, b)) = &cell.race {
            findings.push(RaceFinding {
                code: codes::DATA_RACE,
                severity: Severity::Error,
                message: format!("data race on shared cell {}", display(cell_id)),
                notes: vec![
                    format!(
                        "{} and {} are unordered: no lock, condvar, spawn/join or ring edge connects them under any schedule",
                        access_label(a),
                        access_label(b)
                    ),
                    if lockset_empty {
                        "the lockset witness concurs: no common lock protects this cell".to_string()
                    } else {
                        "the observed run cannot exhibit the race (one thread runs at a time); real hardware can".to_string()
                    },
                ],
                help: Some(
                    "guard every access with one SgxThreadMutex, or order the accesses with thread spawn/join".to_string(),
                ),
                kind: RaceKind::DataRace {
                    cell: names.get(&cell_id).cloned().unwrap_or_else(|| format!("#{cell_id}")),
                    accesses: [access_label(a), access_label(b)],
                    lockset_empty,
                },
            });
        } else if shared && lockset_empty {
            findings.push(RaceFinding {
                code: codes::LOCKSET,
                severity: Severity::Warning,
                message: format!(
                    "no common lock protects shared cell {} ({} threads, {} writes)",
                    display(cell_id),
                    cell.threads.len(),
                    cell.writes
                ),
                notes: vec![
                    "fork/join or hand-off edges order the observed accesses, but the discipline is fragile"
                        .to_string(),
                ],
                help: Some("hold one designated mutex around every access".to_string()),
                kind: RaceKind::LocksetSuspicion {
                    cell: names.get(&cell_id).cloned().unwrap_or_else(|| format!("#{cell_id}")),
                    threads: cell.threads.len(),
                },
            });
        }
    }

    // Lock-order cycles: DFS over the edge set, canonicalised for dedup.
    for cycle in find_cycles(&order_edges) {
        let cycle_names: Vec<String> = cycle
            .iter()
            .map(|&l| names.get(&l).cloned().unwrap_or_else(|| format!("#{l}")))
            .collect();
        let edges: Vec<String> = cycle
            .iter()
            .zip(cycle.iter().cycle().skip(1))
            .map(|(&a, &b)| order_edges[&(a, b)].clone())
            .collect();
        let mut shown: Vec<String> = cycle_names.iter().map(|n| format!("`{n}`")).collect();
        shown.push(shown[0].clone());
        findings.push(RaceFinding {
            code: codes::LOCK_ORDER,
            severity: Severity::Error,
            message: format!("lock-order cycle: {}", shown.join(" -> ")),
            notes: edges.clone(),
            help: Some("impose a global acquisition order on these locks".to_string()),
            kind: RaceKind::LockOrderCycle {
                cycle: cycle_names,
                edges,
            },
        });
    }

    // Locks held across (non-sync) ocalls: the §3.4 re-entrancy hazard.
    let call_table = if intervals.is_empty() {
        CallTable::default()
    } else {
        CallTable::of(trace)
    };
    for ((lock, ocall), count) in held_across(trace, &call_table, &intervals) {
        findings.push(RaceFinding {
            code: codes::LOCK_ACROSS_OCALL,
            severity: Severity::Warning,
            message: format!(
                "lock {} held across ocall `{ocall}` ({count} time(s))",
                display(lock)
            ),
            notes: vec![
                "while the thread is outside, the host can re-enter the enclave on another TCS and block on this lock (§3.4 re-entrancy hazard)"
                    .to_string(),
            ],
            help: Some("release the lock before the ocall, or move the ocall out of the critical section".to_string()),
            kind: RaceKind::LockAcrossOcall {
                lock: names.get(&lock).cloned().unwrap_or_else(|| format!("#{lock}")),
                ocall: ocall.to_string(),
                occurrences: count,
            },
        });
    }

    // Errors first, then warnings, each in construction (deterministic)
    // order.
    findings.sort_by_key(|f| match f.severity {
        Severity::Error => 0,
        Severity::Warning => 1,
        Severity::Note => 2,
    });

    RaceReport {
        findings,
        events: trace.syncev.len(),
        threads: threads_seen.len(),
        locks: locks_seen.len(),
        cells: cells.len(),
    }
}

/// Enumerates elementary cycles in the lock-order graph, canonicalised
/// (rotated so the smallest lock id leads) and deduplicated. The graphs
/// here are tiny — a handful of locks — so a DFS from every node is fine.
fn find_cycles(edges: &BTreeMap<(u64, u64), String>) -> Vec<Vec<u64>> {
    let mut adj: BTreeMap<u64, Vec<u64>> = BTreeMap::new();
    for &(a, b) in edges.keys() {
        adj.entry(a).or_default().push(b);
    }
    let mut seen: BTreeSet<Vec<u64>> = BTreeSet::new();
    let mut out = Vec::new();
    for &start in adj.keys() {
        let mut stack = vec![start];
        dfs_cycles(start, &adj, &mut stack, &mut seen, &mut out);
    }
    out
}

fn dfs_cycles(
    node: u64,
    adj: &BTreeMap<u64, Vec<u64>>,
    stack: &mut Vec<u64>,
    seen: &mut BTreeSet<Vec<u64>>,
    out: &mut Vec<Vec<u64>>,
) {
    let Some(nexts) = adj.get(&node) else { return };
    for &next in nexts {
        if let Some(pos) = stack.iter().position(|&n| n == next) {
            // Found a cycle: stack[pos..] + back edge.
            let mut cycle: Vec<u64> = stack[pos..].to_vec();
            // Canonical rotation: smallest id first.
            let min_pos = cycle
                .iter()
                .enumerate()
                .min_by_key(|&(_, &v)| v)
                .map(|(i, _)| i)
                .unwrap_or(0);
            cycle.rotate_left(min_pos);
            if seen.insert(cycle.clone()) {
                out.push(cycle);
            }
            continue;
        }
        if stack.len() > 64 {
            continue; // depth guard; real lock graphs are tiny
        }
        stack.push(next);
        dfs_cycles(next, adj, stack, seen, out);
        stack.pop();
    }
}

/// Decodes the lock path recorded in a lock-acquire `aux` word — exposed
/// so reports can show how contended the racing locks were.
#[must_use]
pub fn decode_lock_path(aux: u64) -> Option<LockPath> {
    LockPath::from_sync_aux(aux)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::events::SyncEvRow;
    use proptest::prelude::{Strategy, TestRng};

    /// The reference model of [`ocalls_under_locks`]: every ocall row
    /// against every hold.
    fn ocalls_under_locks_reference<'t>(
        trace: &TraceDb,
        table: &'t CallTable,
        holds: &Holds,
    ) -> BTreeMap<(u64, &'t str), usize> {
        let ocall_ids = table.row_ids(CallKind::Ocall);
        let mut across = BTreeMap::new();
        for (&lock, holds) in holds {
            for &(thread, start, end) in holds {
                for (o, &id) in trace.ocalls.iter().zip(ocall_ids) {
                    if o.thread != thread || o.start_ns < start || o.start_ns >= end {
                        continue;
                    }
                    let name = table.recorded(id).unwrap_or("?");
                    if sync_ocalls::is_sync_ocall(name) {
                        continue;
                    }
                    *across.entry((lock, name)).or_default() += 1;
                }
            }
        }
        across
    }

    /// The reference replay: every row works on a clone of the acting
    /// thread's clock, and a second map mirrors each thread's own
    /// component.
    fn replay_reference(trace: &TraceDb, names: &HashMap<u64, String>) -> Replay {
        let display = |obj: u64| quoted(names, obj);
        let mut vcs: HashMap<u64, Vc> = HashMap::new();
        let mut ticks: HashMap<u64, u64> = HashMap::new();
        let vc_of = |vcs: &mut HashMap<u64, Vc>, t: u64| -> Vc {
            vcs.entry(t).or_insert_with(|| Vc::from([(t, 1)])).clone()
        };
        // Release clocks of locks / condvars / rings (symmetric merge objects).
        let mut object_vc: HashMap<u64, Vc> = HashMap::new();
        // Locks currently held per thread, with acquire timestamps.
        let mut held: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
        // Lock-order edges: (held, acquired) → first observed evidence.
        let mut order_edges: BTreeMap<(u64, u64), String> = BTreeMap::new();
        let mut intervals = Holds::new();
        let mut cells: BTreeMap<u64, CellState> = BTreeMap::new();
        let mut locks_seen: BTreeSet<u64> = BTreeSet::new();
        let mut threads_seen: BTreeSet<u64> = BTreeSet::new();

        for row in trace.syncev.iter() {
            let Some(op) = SyncOp::from_code(row.op) else {
                continue; // unknown op from a newer writer: skip, stay loadable
            };
            let t = row.thread;
            threads_seen.insert(t);
            let mut my_vc = vc_of(&mut vcs, t);
            let tick = |vcs: &mut HashMap<u64, Vc>, ticks: &mut HashMap<u64, u64>, t: u64| {
                let c = ticks.entry(t).or_insert(1);
                *c += 1;
                vcs.get_mut(&t)
                    .expect("vc exists after vc_of")
                    .insert(t, *c);
            };
            match op {
                SyncOp::ThreadSpawn => {
                    if let Some(child) = row.target {
                        threads_seen.insert(child);
                        let mut child_vc = vc_of(&mut vcs, child);
                        vc_join(&mut child_vc, &my_vc);
                        vcs.insert(child, child_vc);
                        tick(&mut vcs, &mut ticks, t);
                    }
                }
                SyncOp::ThreadJoin => {
                    // `Simulation::run` blocks until every logical thread is
                    // done, so driver-side events after the run happen-after
                    // each completion under every schedule.
                    let mut ext = vc_of(&mut vcs, EXTERNAL_THREAD);
                    vc_join(&mut ext, &my_vc);
                    vcs.insert(EXTERNAL_THREAD, ext);
                    tick(&mut vcs, &mut ticks, t);
                }
                SyncOp::LockAcquire => {
                    let Some(lock) = row.object else { continue };
                    locks_seen.insert(lock);
                    if let Some(rel) = object_vc.get(&lock) {
                        vc_join(&mut my_vc, rel);
                        vcs.insert(t, my_vc.clone());
                    }
                    let held_by_me = held.entry(t).or_default();
                    for &(h, _) in held_by_me.iter() {
                        order_edges.entry((h, lock)).or_insert_with(|| {
                            format!(
                                "{} acquired {} while holding {} @ {}",
                                thread_name(t),
                                display(lock),
                                display(h),
                                time_label(row.time_ns)
                            )
                        });
                    }
                    held_by_me.push((lock, row.time_ns));
                }
                SyncOp::LockRelease => {
                    let Some(lock) = row.object else { continue };
                    locks_seen.insert(lock);
                    object_vc.insert(lock, my_vc.clone());
                    tick(&mut vcs, &mut ticks, t);
                    let held_by_me = held.entry(t).or_default();
                    if let Some(pos) = held_by_me.iter().rposition(|&(l, _)| l == lock) {
                        let (_, acquired_ns) = held_by_me.remove(pos);
                        intervals
                            .entry(lock)
                            .or_default()
                            .push((t, acquired_ns, row.time_ns));
                    }
                }
                SyncOp::CondWait => {
                    // The paired mutex release was emitted separately; the
                    // wait itself releases the waiter's clock into the condvar.
                    let Some(cv) = row.object else { continue };
                    let e = object_vc.entry(cv).or_default();
                    vc_join(e, &my_vc);
                    tick(&mut vcs, &mut ticks, t);
                }
                SyncOp::CondSignal => {
                    // The wake happens-before the waiter's resumption, which
                    // the replay order places strictly later.
                    if let Some(w) = row.target {
                        threads_seen.insert(w);
                        let mut wv = vc_of(&mut vcs, w);
                        vc_join(&mut wv, &my_vc);
                        vcs.insert(w, wv);
                        tick(&mut vcs, &mut ticks, t);
                    }
                }
                SyncOp::RingPost | SyncOp::RingComplete => {
                    // Symmetric merge through the ring object: the post/claim
                    // hand-off orders caller and worker both ways.
                    let Some(ring) = row.object else { continue };
                    if let Some(rv) = object_vc.get(&ring) {
                        vc_join(&mut my_vc, rv);
                    }
                    object_vc.insert(ring, my_vc.clone());
                    vcs.insert(t, my_vc.clone());
                    if op == SyncOp::RingComplete {
                        if let Some(caller) = row.target {
                            threads_seen.insert(caller);
                            let mut cv = vc_of(&mut vcs, caller);
                            vc_join(&mut cv, &my_vc);
                            vcs.insert(caller, cv);
                        }
                    }
                    tick(&mut vcs, &mut ticks, t);
                }
                SyncOp::SharedRead | SyncOp::SharedWrite => {
                    let Some(cell_id) = row.object else { continue };
                    let write = op == SyncOp::SharedWrite;
                    let access = Access {
                        thread: t,
                        clock: my_vc.get(&t).copied().unwrap_or(1),
                        write,
                        time_ns: row.time_ns,
                    };
                    let cell = cells.entry(cell_id).or_default();
                    cell.threads.insert(t);
                    cell.phase.access(t, write);
                    if write {
                        cell.writes += 1;
                    }
                    // Happens-before check against the last write…
                    let ordered = |prev: &Access, now_vc: &Vc| {
                        prev.thread == t
                            || now_vc.get(&prev.thread).copied().unwrap_or(0) >= prev.clock
                    };
                    if cell.race.is_none() {
                        if let Some(w) = &cell.last_write {
                            if !ordered(w, &my_vc) {
                                cell.race = Some((w.clone(), access.clone()));
                            }
                        }
                        // …and, for writes, against reads since that write.
                        if write {
                            if let Some(r) = cell.reads.iter().find(|r| !ordered(r, &my_vc)) {
                                cell.race = Some((r.clone(), access.clone()));
                            }
                        }
                    }
                    if write {
                        cell.last_write = Some(access);
                        cell.reads.clear();
                    } else {
                        cell.reads.retain(|r| r.thread != t);
                        cell.reads.push(access);
                    }
                    // Eraser lockset refinement.
                    let held_now: BTreeSet<u64> = held
                        .get(&t)
                        .map(|v| v.iter().map(|&(l, _)| l).collect())
                        .unwrap_or_default();
                    match &mut cell.lockset {
                        None => cell.lockset = Some(held_now),
                        Some(ls) => *ls = ls.intersection(&held_now).copied().collect(),
                    }
                }
            }
        }

        Replay {
            order_edges,
            intervals,
            cells,
            locks_seen,
            threads_seen,
        }
    }

    /// Over generated traces, the report is the one the cloning replay
    /// gives, and the rows reach every sync op and every finding the
    /// replay makes.
    #[test]
    fn in_place_replay_matches_the_cloning_reference() {
        let traces = crate::tracegen::Traces { max_rows: 24 };
        let mut rng = TestRng::from_name("in_place_replay_matches_the_cloning_reference");
        let (mut ops, mut codes) = (BTreeSet::new(), BTreeSet::new());
        for case in 0..300 {
            let trace = traces.generate(&mut rng);
            let names = object_names(&trace);
            let reference = report(
                &trace,
                &names,
                replay_reference(&trace, &names),
                ocalls_under_locks,
            );
            assert_eq!(analyze(&trace), reference, "case {case}: {trace:?}");
            ops.extend(
                (trace.syncev.iter()).filter_map(|r| SyncOp::from_code(r.op).map(SyncOp::code)),
            );
            codes.extend(reference.findings.iter().map(|f| f.code));
        }
        assert_eq!(ops.len(), SyncOp::ALL.len(), "ops reached: {ops:?}");
        for code in [codes::DATA_RACE, codes::LOCKSET, codes::LOCK_ORDER] {
            assert!(codes.contains(code), "{code} never found: {codes:?}");
        }
    }

    /// Over generated traces, the report is the one the nested loop
    /// gives, and the traces do hold locks across ocalls.
    #[test]
    fn held_across_counts_match_the_nested_loop() {
        let traces = crate::tracegen::Traces { max_rows: 24 };
        let mut rng = TestRng::from_name("held_across_counts_match_the_nested_loop");
        let mut held_across = 0;
        for case in 0..300 {
            let trace = traces.generate(&mut rng);
            let report = analyze(&trace);
            let reference = analyze_with(&trace, ocalls_under_locks_reference);
            assert_eq!(
                report.findings, reference.findings,
                "case {case}: {trace:?}"
            );
            held_across += (report.findings.iter())
                .filter(|f| matches!(f.kind, RaceKind::LockAcrossOcall { .. }))
                .count();
        }
        assert!(
            held_across >= 30,
            "{held_across} lock-across-ocall findings in 300 traces"
        );
    }

    fn ev(thread: u64, op: SyncOp, object: Option<u64>, target: Option<u64>) -> SyncEvRow {
        SyncEvRow {
            thread,
            op: op.code(),
            object,
            target,
            aux: 0,
            label: String::new(),
            time_ns: 0,
        }
    }

    fn named(mut row: SyncEvRow, label: &str, time_ns: u64) -> SyncEvRow {
        row.label = label.to_string();
        row.time_ns = time_ns;
        row
    }

    #[test]
    fn empty_trace_is_clean() {
        let report = analyze(&TraceDb::default());
        assert!(report.findings.is_empty());
        assert_eq!(report.exit_code(), 0);
    }

    #[test]
    fn unordered_writes_are_a_race() {
        let mut trace = TraceDb::default();
        // Two threads spawned by the driver write the same cell with no
        // lock: unordered.
        trace
            .syncev
            .insert(ev(EXTERNAL_THREAD, SyncOp::ThreadSpawn, None, Some(0)));
        trace
            .syncev
            .insert(ev(EXTERNAL_THREAD, SyncOp::ThreadSpawn, None, Some(1)));
        trace.syncev.insert(named(
            ev(0, SyncOp::SharedWrite, Some(7), None),
            "counter",
            100,
        ));
        trace.syncev.insert(named(
            ev(1, SyncOp::SharedWrite, Some(7), None),
            "counter",
            200,
        ));
        let report = analyze(&trace);
        assert_eq!(report.exit_code(), 3);
        assert!(report
            .findings
            .iter()
            .any(|f| f.code == codes::DATA_RACE && f.message.contains("counter")));
    }

    #[test]
    fn lock_protected_writes_are_ordered() {
        let mut trace = TraceDb::default();
        let lock = Some(3);
        trace
            .syncev
            .insert(ev(EXTERNAL_THREAD, SyncOp::ThreadSpawn, None, Some(0)));
        trace
            .syncev
            .insert(ev(EXTERNAL_THREAD, SyncOp::ThreadSpawn, None, Some(1)));
        for t in [0u64, 1] {
            trace.syncev.insert(ev(t, SyncOp::LockAcquire, lock, None));
            trace
                .syncev
                .insert(ev(t, SyncOp::SharedWrite, Some(7), None));
            trace.syncev.insert(ev(t, SyncOp::LockRelease, lock, None));
        }
        let report = analyze(&trace);
        assert_eq!(report.exit_code(), 0, "{}", report.render());
        assert!(report.findings.is_empty());
    }

    #[test]
    fn spawn_edge_orders_parent_initialisation() {
        let mut trace = TraceDb::default();
        // Driver writes, then spawns the reader: ordered, no finding.
        trace
            .syncev
            .insert(ev(EXTERNAL_THREAD, SyncOp::SharedWrite, Some(7), None));
        trace
            .syncev
            .insert(ev(EXTERNAL_THREAD, SyncOp::ThreadSpawn, None, Some(0)));
        trace
            .syncev
            .insert(ev(0, SyncOp::SharedRead, Some(7), None));
        trace.syncev.insert(ev(0, SyncOp::ThreadJoin, None, None));
        // And the driver reads back after the join: still ordered.
        trace
            .syncev
            .insert(ev(EXTERNAL_THREAD, SyncOp::SharedRead, Some(7), None));
        let report = analyze(&trace);
        assert!(report.findings.is_empty(), "{}", report.render());
    }

    #[test]
    fn read_read_is_never_a_race() {
        let mut trace = TraceDb::default();
        trace
            .syncev
            .insert(ev(0, SyncOp::SharedRead, Some(7), None));
        trace
            .syncev
            .insert(ev(1, SyncOp::SharedRead, Some(7), None));
        let report = analyze(&trace);
        assert!(report.findings.is_empty());
    }

    #[test]
    fn lock_inversion_is_a_cycle() {
        let mut trace = TraceDb::default();
        let (a, b) = (Some(1), Some(2));
        // lt0: A then B; lt1: B then A.
        for (t, first, second) in [(0u64, a, b), (1, b, a)] {
            trace.syncev.insert(ev(t, SyncOp::LockAcquire, first, None));
            trace
                .syncev
                .insert(ev(t, SyncOp::LockAcquire, second, None));
            trace
                .syncev
                .insert(ev(t, SyncOp::LockRelease, second, None));
            trace.syncev.insert(ev(t, SyncOp::LockRelease, first, None));
        }
        let report = analyze(&trace);
        assert_eq!(report.exit_code(), 3);
        let cycles: Vec<_> = report
            .findings
            .iter()
            .filter(|f| f.code == codes::LOCK_ORDER)
            .collect();
        assert_eq!(cycles.len(), 1, "{}", report.render());
    }

    #[test]
    fn consistent_nesting_is_not_a_cycle() {
        let mut trace = TraceDb::default();
        let (a, b) = (Some(1), Some(2));
        for t in [0u64, 1] {
            trace.syncev.insert(ev(t, SyncOp::LockAcquire, a, None));
            trace.syncev.insert(ev(t, SyncOp::LockAcquire, b, None));
            trace.syncev.insert(ev(t, SyncOp::LockRelease, b, None));
            trace.syncev.insert(ev(t, SyncOp::LockRelease, a, None));
        }
        let report = analyze(&trace);
        assert!(report.findings.is_empty());
    }

    #[test]
    fn ring_handoff_orders_caller_and_worker() {
        let mut trace = TraceDb::default();
        // Caller writes a cell, posts to the ring; the worker completes
        // and reads the cell: ordered through the ring edges.
        trace
            .syncev
            .insert(ev(0, SyncOp::SharedWrite, Some(9), None));
        trace.syncev.insert(ev(0, SyncOp::RingPost, Some(5), None));
        trace
            .syncev
            .insert(ev(2, SyncOp::RingComplete, Some(5), Some(0)));
        trace
            .syncev
            .insert(ev(2, SyncOp::SharedRead, Some(9), None));
        let report = analyze(&trace);
        assert!(report.findings.is_empty(), "{}", report.render());
    }

    #[test]
    fn condvar_signal_orders_waiter() {
        let mut trace = TraceDb::default();
        // lt0 waits (releasing lock 1 into cv 4); lt1 writes then signals;
        // lt0 reads after resuming: ordered by the signal edge.
        trace
            .syncev
            .insert(ev(0, SyncOp::LockAcquire, Some(1), None));
        trace
            .syncev
            .insert(ev(0, SyncOp::LockRelease, Some(1), None));
        trace.syncev.insert(ev(0, SyncOp::CondWait, Some(4), None));
        trace
            .syncev
            .insert(ev(1, SyncOp::SharedWrite, Some(9), None));
        trace
            .syncev
            .insert(ev(1, SyncOp::CondSignal, Some(4), Some(0)));
        trace
            .syncev
            .insert(ev(0, SyncOp::LockAcquire, Some(1), None));
        trace
            .syncev
            .insert(ev(0, SyncOp::SharedRead, Some(9), None));
        trace
            .syncev
            .insert(ev(0, SyncOp::LockRelease, Some(1), None));
        let report = analyze(&trace);
        assert!(report.findings.is_empty(), "{}", report.render());
    }

    #[test]
    fn lockset_warning_without_hb_race() {
        let mut trace = TraceDb::default();
        // Sequential spawn chains order the accesses (no HB race), but the
        // two threads use *different* locks: lockset-only warning.
        trace
            .syncev
            .insert(ev(EXTERNAL_THREAD, SyncOp::ThreadSpawn, None, Some(0)));
        trace
            .syncev
            .insert(ev(0, SyncOp::LockAcquire, Some(1), None));
        trace
            .syncev
            .insert(ev(0, SyncOp::SharedWrite, Some(9), None));
        trace
            .syncev
            .insert(ev(0, SyncOp::LockRelease, Some(1), None));
        trace.syncev.insert(ev(0, SyncOp::ThreadJoin, None, None));
        trace
            .syncev
            .insert(ev(EXTERNAL_THREAD, SyncOp::ThreadSpawn, None, Some(1)));
        trace
            .syncev
            .insert(ev(1, SyncOp::LockAcquire, Some(2), None));
        trace
            .syncev
            .insert(ev(1, SyncOp::SharedWrite, Some(9), None));
        trace
            .syncev
            .insert(ev(1, SyncOp::LockRelease, Some(2), None));
        let report = analyze(&trace);
        assert_eq!(report.exit_code(), 0, "{}", report.render());
        assert!(report.findings.iter().any(|f| f.code == codes::LOCKSET));
    }

    #[test]
    fn render_shapes() {
        let mut trace = TraceDb::default();
        trace
            .syncev
            .insert(ev(0, SyncOp::SharedWrite, Some(7), None));
        trace
            .syncev
            .insert(ev(1, SyncOp::SharedWrite, Some(7), None));
        let report = analyze(&trace);
        let text = report.render();
        assert!(text.contains("error[RACE-E001]"), "{text}");
        assert!(text.contains("= help:"), "{text}");
        let json = report.to_json();
        assert!(json.contains("\"exit_code\":3"), "{json}");
    }

    #[test]
    fn lock_path_decoding() {
        assert_eq!(decode_lock_path(0), Some(LockPath::Uncontended));
        assert_eq!(decode_lock_path((3 << 8) | 1), Some(LockPath::Spun(3)));
        assert_eq!(decode_lock_path((2 << 8) | 2), Some(LockPath::Slept(2)));
        assert_eq!(decode_lock_path(7), None);
    }

    /// Ocalls under a lock are named by their first symbol row; one
    /// without a row is reported as `?`.
    #[test]
    fn ocalls_across_a_lock_use_the_trace_names() {
        use crate::events::{OcallRow, SymbolRow};
        let mut trace = TraceDb::default();
        for name in ["ocall_first", "ocall_second"] {
            trace.symbols.insert(SymbolRow {
                enclave: 1,
                kind_is_ecall: false,
                index: 1,
                name: name.to_string(),
                public: false,
                allowed_ecalls: vec![],
                user_check_params: vec![],
            });
        }
        trace
            .syncev
            .insert(named(ev(0, SyncOp::LockAcquire, Some(3), None), "m", 100));
        for (index, start_ns) in [(0u32, 150u64), (1, 160)] {
            trace.ocalls.insert(OcallRow {
                thread: 0,
                enclave: 1,
                call_index: index,
                start_ns,
                end_ns: start_ns + 5,
                parent_ecall: None,
                failed: false,
            });
        }
        trace
            .syncev
            .insert(named(ev(0, SyncOp::LockRelease, Some(3), None), "m", 200));
        let report = analyze(&trace);
        let ocalls: Vec<&str> = report
            .findings
            .iter()
            .filter_map(|f| match &f.kind {
                RaceKind::LockAcrossOcall { ocall, .. } => Some(ocall.as_str()),
                _ => None,
            })
            .collect();
        assert_eq!(ocalls, ["?", "ocall_first"]);
    }
}
