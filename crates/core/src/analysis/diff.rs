//! A/B trace differencing: regression analysis over two eventdb traces.
//!
//! sgx-perf's workflow is measure → analyze → apply mitigation →
//! re-measure (§4–§6); this module is the principled *compare* step that
//! closes it. [`TraceDiff::compute`] aligns two traces by call-site name
//! and event kind, computes per-call latency/count deltas plus aggregate
//! deltas (transitions, EWB/ELDU paging, AEX, fault ledger, switchless
//! dispatch-vs-fallback), gates each against a configurable relative
//! threshold and renders a verdict — human table, JSON, and a CI exit
//! code (0 = no regression, 3 = regression past threshold).
//!
//! Regressions in a candidate trace that carries injected faults are
//! *attributed*: an injected `FaultRow` whose timestamp lands inside one
//! of the regressed call's execution windows is counted against that
//! call, so a chaos-harness A/B pair reports not just "slower" but
//! "slower, coinciding with N injected fault(s)".
//!
//! # Examples
//!
//! ```
//! use sgx_perf::analysis::diff::{DiffConfig, TraceDiff, Verdict};
//! use sgx_perf::TraceDb;
//!
//! let trace = TraceDb::default();
//! let diff = TraceDiff::compute(&trace, &trace, DiffConfig::default());
//! assert_eq!(diff.verdict, Verdict::Neutral);
//! assert_eq!(diff.exit_code(), 0);
//! ```

use std::collections::BTreeMap;
use std::fmt;

use sgx_sdk::SwitchlessEventKind;
use sim_core::fault::FaultAction;
use sim_core::{LifecycleStage, Nanos};

use crate::events::CallKind;
use crate::json;
use crate::trace::TraceDb;

use super::parents::CallTable;
use super::report::Totals;
use super::stats::CallStats;

/// Exit status a CI gate maps a regression verdict to (`sgxperf diff`).
pub const REGRESSION_EXIT_CODE: u8 = 3;

/// Thresholds of the diff engine.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DiffConfig {
    /// Relative worsening beyond which a metric counts as a regression
    /// (and, symmetrically, improving beyond which it counts as an
    /// improvement). `0.10` = 10%.
    pub threshold: f64,
    /// Minimum executions *in both traces* before a call's latency deltas
    /// gate the verdict — single-digit samples produce noise, not
    /// regressions.
    pub min_count: usize,
}

impl Default for DiffConfig {
    fn default() -> Self {
        DiffConfig {
            threshold: 0.10,
            min_count: 8,
        }
    }
}

/// Direction of a gated change.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Verdict {
    /// Better than baseline beyond the threshold.
    Improvement,
    /// Within the threshold either way.
    Neutral,
    /// Worse than baseline beyond the threshold.
    Regression,
}

impl fmt::Display for Verdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Verdict::Improvement => "improvement",
            Verdict::Neutral => "neutral",
            Verdict::Regression => "regression",
        })
    }
}

/// One scalar metric in both traces.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct MetricDelta {
    /// Baseline value.
    pub a: f64,
    /// Candidate value.
    pub b: f64,
}

impl MetricDelta {
    fn new(a: f64, b: f64) -> MetricDelta {
        MetricDelta { a, b }
    }

    /// Relative change from baseline to candidate; 0 when the baseline is
    /// zero and the candidate is too, +inf-degraded-to-1 when something
    /// appeared from nothing.
    pub fn rel_change(&self) -> f64 {
        if self.a == 0.0 {
            if self.b == 0.0 {
                0.0
            } else {
                1.0
            }
        } else {
            (self.b - self.a) / self.a
        }
    }

    /// Gates the change against a threshold. Higher = worse for every
    /// metric this engine tracks (latency, transition counts, paging,
    /// AEX, faults), so the polarity is fixed.
    pub fn verdict(&self, threshold: f64) -> Verdict {
        let change = self.rel_change();
        if change > threshold {
            Verdict::Regression
        } else if change < -threshold {
            Verdict::Improvement
        } else {
            Verdict::Neutral
        }
    }

    fn pct(&self) -> String {
        format!("{:+.1}%", self.rel_change() * 100.0)
    }
}

/// Per-call deltas for one aligned call site.
#[derive(Debug, Clone, PartialEq)]
pub struct CallDelta {
    /// Ecall or ocall.
    pub kind: CallKind,
    /// Resolved call-site name (symbol table, positional fallback).
    pub name: String,
    /// Execution counts.
    pub count: MetricDelta,
    /// Total virtual time spent in the call (ns).
    pub total_ns: MetricDelta,
    /// Mean latency (ns).
    pub mean_ns: MetricDelta,
    /// Median latency (ns).
    pub p50_ns: MetricDelta,
    /// 99th-percentile latency (ns).
    pub p99_ns: MetricDelta,
    /// AEXs observed during the call (ecalls only; total).
    pub aex: MetricDelta,
    /// The gated verdict over the latency metrics (counts and AEX are
    /// reported but do not gate).
    pub verdict: Verdict,
    /// Latency metrics past the threshold, e.g. `"mean +395.3%"`.
    pub flagged: Vec<String>,
    /// Injected faults (candidate trace) whose timestamp falls inside one
    /// of this call's execution windows — the chaos-attribution signal.
    pub attributed_faults: usize,
    /// Candidate executions of this call that overlap an enclave-lost
    /// recovery window (loss → recovered/gave-up): their latency includes
    /// rebuild/replay time, not an application slowdown.
    pub recovery_overlaps: usize,
}

/// Aggregate deltas over whole traces.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TotalsDelta {
    /// Synchronous enclave boundary round-trips (switchless-served ocalls
    /// excluded — the caller never left the enclave for them).
    pub transitions: MetricDelta,
    /// EPC page-outs (EWB).
    pub page_outs: MetricDelta,
    /// EPC page-ins (ELDU).
    pub page_ins: MetricDelta,
    /// Traced AEX events.
    pub aex_events: MetricDelta,
    /// Calls served by switchless workers.
    pub switchless_dispatched: MetricDelta,
    /// Switchless attempts that fell back to a transition.
    pub switchless_fallbacks: MetricDelta,
    /// Injected faults.
    pub faults_injected: MetricDelta,
    /// Faults the SDK recovered from.
    pub faults_recovered: MetricDelta,
    /// Faults that exhausted the retry budget.
    pub faults_gave_up: MetricDelta,
    /// Enclave losses.
    pub enclaves_lost: MetricDelta,
    /// Supervisor rebuilds.
    pub restarts: MetricDelta,
    /// Total loss-to-completion recovery time (ns).
    pub recovery_ns: MetricDelta,
    /// Virtual wall clock: the latest event timestamp in the trace.
    pub wall_ns: MetricDelta,
}

impl TotalsDelta {
    /// Fraction of switchless attempts that were served without a
    /// transition, per side. `None` when a side recorded no attempts.
    pub fn dispatch_ratio(&self) -> (Option<f64>, Option<f64>) {
        let ratio = |d: f64, f: f64| {
            if d + f == 0.0 {
                None
            } else {
                Some(d / (d + f))
            }
        };
        (
            ratio(self.switchless_dispatched.a, self.switchless_fallbacks.a),
            ratio(self.switchless_dispatched.b, self.switchless_fallbacks.b),
        )
    }
}

/// The result of diffing two traces.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceDiff {
    /// Thresholds used.
    pub config: DiffConfig,
    /// Aligned calls with their deltas, sorted by (kind, name).
    pub calls: Vec<CallDelta>,
    /// Call names present only in the baseline.
    pub only_in_a: Vec<String>,
    /// Call names present only in the candidate.
    pub only_in_b: Vec<String>,
    /// Aggregate deltas.
    pub totals: TotalsDelta,
    /// The overall gated verdict.
    pub verdict: Verdict,
    /// Human-readable regression lines (what made the verdict fail).
    pub regressions: Vec<String>,
    /// Human-readable improvement lines.
    pub improvements: Vec<String>,
}

/// Per-side aggregation of one call site.
#[derive(Debug, Default)]
struct SideStats {
    durations: Vec<u64>,
    aex_total: u64,
    /// Execution windows, for fault attribution.
    windows: Vec<(u64, u64)>,
}

/// Synchronous boundary round-trips in a trace: every recorded
/// ecall/ocall row is one enter/exit pair, *minus* ocalls a switchless
/// worker served (`OcallDispatched` events). Worker-served ocalls still
/// appear as ocall rows — the worker executes the logger's interposed
/// table, so duration statistics survive — but the calling thread never
/// left the enclave for them. Worker-served *ecalls* bypass `sgx_ecall` entirely
/// and produce no row, so only ocall dispatches are subtracted.
pub fn round_trips(trace: &TraceDb) -> usize {
    let served_ocalls = trace
        .switchless
        .iter()
        .filter(|s| {
            SwitchlessEventKind::from_code(s.kind) == Some(SwitchlessEventKind::OcallDispatched)
        })
        .count();
    (trace.ecalls.len() + trace.ocalls.len()).saturating_sub(served_ocalls)
}

/// Latest event timestamp across every table — the trace's virtual wall
/// clock (harness clocks start at zero).
fn wall_ns(trace: &TraceDb) -> u64 {
    let mut wall = 0u64;
    for e in trace.ecalls.iter() {
        wall = wall.max(e.end_ns);
    }
    for o in trace.ocalls.iter() {
        wall = wall.max(o.end_ns);
    }
    for a in trace.aex.iter() {
        wall = wall.max(a.time_ns);
    }
    for p in trace.paging.iter() {
        wall = wall.max(p.time_ns);
    }
    for s in trace.sync.iter() {
        wall = wall.max(s.time_ns);
    }
    for s in trace.switchless.iter() {
        wall = wall.max(s.time_ns);
    }
    for f in trace.faults.iter() {
        wall = wall.max(f.time_ns);
    }
    for l in trace.lifecycle.iter() {
        wall = wall.max(l.time_ns);
    }
    wall
}

/// Enclave-lost recovery windows in a trace: each spans from a loss to
/// the recovery (or give-up) that closes it. A loss never closed extends
/// to the end of the trace.
fn recovery_windows(trace: &TraceDb) -> Vec<(u64, u64)> {
    let mut windows = Vec::new();
    let mut open: Option<u64> = None;
    for l in trace.lifecycle.iter() {
        match LifecycleStage::from_code(l.stage) {
            Some(LifecycleStage::Lost) => open = open.or(Some(l.time_ns)),
            Some(LifecycleStage::Recovered | LifecycleStage::GaveUp) => {
                if let Some(start) = open.take() {
                    windows.push((start, l.time_ns));
                }
            }
            _ => {}
        }
    }
    if let Some(start) = open {
        windows.push((start, u64::MAX));
    }
    windows
}

/// How many of the sorted fault times fall inside a window (both ends
/// included) of `windows`, sorted by end. One merge from the latest end
/// down: a fault after a window's end lies after every earlier-ending
/// window's end too, and one a later-ending window counted is not counted
/// again.
fn faults_in_windows(faults: &[u64], windows: &[(u64, u64)]) -> usize {
    let (mut count, mut rest) = (0, faults.len());
    for &(start, end) in windows.iter().rev() {
        while rest > 0 && faults[rest - 1] > end {
            rest -= 1;
        }
        let to = rest;
        while rest > 0 && faults[rest - 1] >= start {
            rest -= 1;
        }
        count += to - rest;
    }
    count
}

/// Windows sorted by start, each end raised to the latest end so far:
/// the windows starting at or before a time reach as far as the last of
/// them does.
struct Reach(Vec<(u64, u64)>);

impl Reach {
    fn of(mut windows: Vec<(u64, u64)>) -> Reach {
        windows.sort_unstable();
        let mut reach = 0;
        for (_, end) in &mut windows {
            reach = reach.max(*end);
            *end = reach;
        }
        Reach(windows)
    }

    /// How many of `windows`, sorted by end, overlap one of these windows
    /// (both ends included), in one merge: a window overlaps iff the
    /// windows starting by its end reach its start.
    fn overlapping(&self, windows: &[(u64, u64)]) -> usize {
        let mut started = 0;
        (windows.iter())
            .filter(|&&(start, end)| {
                while self.0.get(started).is_some_and(|&(s, _)| s <= end) {
                    started += 1;
                }
                started > 0 && self.0[started - 1].1 >= start
            })
            .count()
    }
}

/// Groups a trace's call events by (kind, resolved name). Calls with the
/// same name in different enclaves merge — the alignment unit is the
/// call *site* as a developer names it, which is what survives across
/// two separate runs (enclave ids need not).
fn per_name(trace: &TraceDb) -> BTreeMap<(CallKind, String), SideStats> {
    let table = CallTable::of(trace);
    let ecalls = (trace.ecalls.iter())
        .zip(table.row_ids(CallKind::Ecall))
        .map(|(e, &id)| (id, e.start_ns, e.end_ns, e.aex_count));
    let ocalls = (trace.ocalls.iter())
        .zip(table.row_ids(CallKind::Ocall))
        .map(|(o, &id)| (id, o.start_ns, o.end_ns, 0));
    let mut rows = vec![0usize; table.len()];
    for (id, ..) in ecalls.clone().chain(ocalls.clone()) {
        rows[id.index()] += 1;
    }
    // Name each call with rows once; the calls that share a (kind, name)
    // share a group, sized before its rows arrive. Every statistic taken
    // from a group is independent of the order of its rows.
    let mut index: BTreeMap<(CallKind, String), usize> = BTreeMap::new();
    let mut group_of = vec![0usize; table.len()];
    let mut sizes: Vec<usize> = Vec::new();
    for id in table.ids().filter(|id| rows[id.index()] > 0) {
        let next = index.len();
        let group = *index
            .entry((table.call(id).kind, table.name(id).into_owned()))
            .or_insert(next);
        if group == sizes.len() {
            sizes.push(0);
        }
        sizes[group] += rows[id.index()];
        group_of[id.index()] = group;
    }
    let mut sides: Vec<SideStats> = (sizes.iter())
        .map(|&n| SideStats {
            durations: Vec::with_capacity(n),
            aex_total: 0,
            windows: Vec::with_capacity(n),
        })
        .collect();
    for (id, start_ns, end_ns, aex_count) in ecalls.chain(ocalls) {
        let side = &mut sides[group_of[id.index()]];
        side.durations.push(end_ns.saturating_sub(start_ns));
        side.aex_total = side.aex_total.saturating_add(aex_count);
        side.windows.push((start_ns, end_ns));
    }
    (index.into_iter())
        .map(|(key, group)| (key, std::mem::take(&mut sides[group])))
        .collect()
}

impl TraceDiff {
    /// Diffs candidate `b` against baseline `a`.
    pub fn compute(a: &TraceDb, b: &TraceDb, config: DiffConfig) -> TraceDiff {
        let mut side_a = per_name(a);
        let mut side_b = per_name(b);
        let mut injected: Vec<u64> = b
            .faults
            .iter()
            .filter(|f| FaultAction::from_code(f.action) == Some(FaultAction::Injected))
            .map(|f| f.time_ns)
            .collect();
        injected.sort_unstable();
        let recoveries = Reach::of(recovery_windows(b));

        let keys: Vec<(CallKind, String)> = side_a
            .keys()
            .chain(side_b.keys())
            .cloned()
            .collect::<std::collections::BTreeSet<_>>()
            .into_iter()
            .collect();

        let mut calls = Vec::new();
        let mut only_in_a = Vec::new();
        let mut only_in_b = Vec::new();
        let mut regressions = Vec::new();
        let mut improvements = Vec::new();

        for key in keys {
            let (kind, name) = key.clone();
            let sa = side_a.remove(&key);
            let sb = side_b.remove(&key);
            match (sa, sb) {
                (Some(_), None) => only_in_a.push(format!("{name} ({kind})")),
                (None, Some(_)) => only_in_b.push(format!("{name} ({kind})")),
                (Some(sa), Some(mut sb)) => {
                    // Only raw durations: the short-call fractions and the
                    // mean AEX of these stats stay unused.
                    let ca = CallStats::from_durations(&sa.durations, &[], &[]);
                    let cb = CallStats::from_durations(&sb.durations, &[], &[]);
                    let delta = |f: fn(&CallStats) -> f64| MetricDelta::new(f(&ca), f(&cb));
                    let mean = delta(|c| c.mean_ns);
                    let p50 = delta(|c| c.median_ns as f64);
                    let p99 = delta(|c| c.p99_ns as f64);
                    let gated = ca.count >= config.min_count && cb.count >= config.min_count;
                    let mut flagged = Vec::new();
                    let mut verdict = Verdict::Neutral;
                    if gated {
                        for (label, m) in [("mean", &mean), ("p50", &p50), ("p99", &p99)] {
                            match m.verdict(config.threshold) {
                                Verdict::Regression => {
                                    verdict = Verdict::Regression;
                                    flagged.push(format!(
                                        "{label} {} ({} -> {})",
                                        m.pct(),
                                        Nanos::from_nanos(m.a as u64),
                                        Nanos::from_nanos(m.b as u64),
                                    ));
                                }
                                Verdict::Improvement if verdict != Verdict::Regression => {
                                    verdict = Verdict::Improvement;
                                }
                                _ => {}
                            }
                        }
                    }
                    sb.windows
                        .sort_unstable_by_key(|&(start, end)| (end, start));
                    let attributed = faults_in_windows(&injected, &sb.windows);
                    let overlapping = recoveries.overlapping(&sb.windows);
                    let line = |flags: &[String]| {
                        let fault_note = if attributed > 0 {
                            format!(" [{attributed} injected fault(s) in window]")
                        } else {
                            String::new()
                        };
                        let recovery_note = if overlapping > 0 {
                            format!(" [{overlapping} execution(s) overlap an enclave recovery]")
                        } else {
                            String::new()
                        };
                        format!(
                            "{name} ({kind}): {}{fault_note}{recovery_note}",
                            flags.join(", ")
                        )
                    };
                    match verdict {
                        Verdict::Regression => regressions.push(line(&flagged)),
                        Verdict::Improvement => improvements.push(format!(
                            "{name} ({kind}): mean {} ({} -> {})",
                            mean.pct(),
                            Nanos::from_nanos(mean.a as u64),
                            Nanos::from_nanos(mean.b as u64),
                        )),
                        Verdict::Neutral => {}
                    }
                    calls.push(CallDelta {
                        kind,
                        name,
                        count: delta(|c| c.count as f64),
                        total_ns: delta(|c| c.total_ns as f64),
                        mean_ns: mean,
                        p50_ns: p50,
                        p99_ns: p99,
                        aex: MetricDelta::new(sa.aex_total as f64, sb.aex_total as f64),
                        verdict,
                        flagged,
                        attributed_faults: attributed,
                        recovery_overlaps: overlapping,
                    });
                }
                (None, None) => unreachable!("key drawn from one of the sides"),
            }
        }

        let (ta, tb) = (Totals::of(a), Totals::of(b));
        let delta = |f: fn(&Totals) -> usize| MetricDelta::new(f(&ta) as f64, f(&tb) as f64);
        let totals = TotalsDelta {
            transitions: MetricDelta::new(round_trips(a) as f64, round_trips(b) as f64),
            page_outs: delta(|t| t.page_outs),
            page_ins: delta(|t| t.page_ins),
            aex_events: delta(|t| t.aex_events),
            switchless_dispatched: delta(|t| t.switchless_dispatched),
            switchless_fallbacks: delta(|t| t.switchless_fallbacks),
            faults_injected: delta(|t| t.faults_injected),
            faults_recovered: delta(|t| t.faults_recovered),
            faults_gave_up: delta(|t| t.faults_gave_up),
            enclaves_lost: delta(|t| t.enclaves_lost),
            restarts: delta(|t| t.restarts),
            recovery_ns: MetricDelta::new(ta.recovery_ns as f64, tb.recovery_ns as f64),
            wall_ns: MetricDelta::new(wall_ns(a) as f64, wall_ns(b) as f64),
        };

        // Aggregate gates. Latency regressions are caught per call; the
        // totals catch structural drift (more transitions, more paging,
        // longer wall clock) and hard failures (calls that gave up).
        for (label, m) in [
            ("transitions", &totals.transitions),
            ("page-outs (EWB)", &totals.page_outs),
            ("page-ins (ELDU)", &totals.page_ins),
            ("AEX events", &totals.aex_events),
            ("virtual wall clock", &totals.wall_ns),
        ] {
            match m.verdict(config.threshold) {
                Verdict::Regression => regressions.push(format!(
                    "{label}: {} ({} -> {})",
                    m.pct(),
                    m.a as u64,
                    m.b as u64
                )),
                Verdict::Improvement => improvements.push(format!(
                    "{label}: {} ({} -> {})",
                    m.pct(),
                    m.a as u64,
                    m.b as u64
                )),
                Verdict::Neutral => {}
            }
        }
        if totals.faults_gave_up.b > totals.faults_gave_up.a {
            regressions.push(format!(
                "faults gave up: {} -> {} (unrecovered failures)",
                totals.faults_gave_up.a as u64, totals.faults_gave_up.b as u64
            ));
        }

        let verdict = if !regressions.is_empty() {
            Verdict::Regression
        } else if !improvements.is_empty() {
            Verdict::Improvement
        } else {
            Verdict::Neutral
        };

        TraceDiff {
            config,
            calls,
            only_in_a,
            only_in_b,
            totals,
            verdict,
            regressions,
            improvements,
        }
    }

    /// Virtual-time speedup of the candidate (baseline wall / candidate
    /// wall); 0 when the candidate recorded nothing.
    pub fn speedup(&self) -> f64 {
        if self.totals.wall_ns.b == 0.0 {
            0.0
        } else {
            self.totals.wall_ns.a / self.totals.wall_ns.b
        }
    }

    /// The delta for a named call, if aligned.
    pub fn call(&self, name: &str) -> Option<&CallDelta> {
        self.calls.iter().find(|c| c.name == name)
    }

    /// Total injected faults (candidate) attributed to some regressed or
    /// aligned call window.
    pub fn attributed_faults(&self) -> usize {
        self.calls.iter().map(|c| c.attributed_faults).sum()
    }

    /// Process exit status for CI gates: [`REGRESSION_EXIT_CODE`] on
    /// regression, 0 otherwise.
    pub fn exit_code(&self) -> u8 {
        if self.verdict == Verdict::Regression {
            REGRESSION_EXIT_CODE
        } else {
            0
        }
    }

    /// Renders the human verdict report.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str("== sgx-perf A/B diff ==\n\n");
        out.push_str(&format!(
            "verdict: {} (threshold {:.0}%, min {} calls; exit {})\n",
            self.verdict.to_string().to_uppercase(),
            self.config.threshold * 100.0,
            self.config.min_count,
            self.exit_code(),
        ));
        out.push_str(&format!(
            "wall clock: {} -> {} ({:.2}x)\n\n",
            Nanos::from_nanos(self.totals.wall_ns.a as u64),
            Nanos::from_nanos(self.totals.wall_ns.b as u64),
            self.speedup(),
        ));

        out.push_str("-- totals --\n");
        out.push_str(&format!(
            "{:<24} {:>12} {:>12} {:>10}\n",
            "metric", "before", "after", "delta"
        ));
        let t = &self.totals;
        for (label, m) in [
            ("transitions", &t.transitions),
            ("page-outs (EWB)", &t.page_outs),
            ("page-ins (ELDU)", &t.page_ins),
            ("aex events", &t.aex_events),
            ("switchless dispatched", &t.switchless_dispatched),
            ("switchless fallbacks", &t.switchless_fallbacks),
            ("faults injected", &t.faults_injected),
            ("faults recovered", &t.faults_recovered),
            ("faults gave up", &t.faults_gave_up),
            ("enclaves lost", &t.enclaves_lost),
            ("supervisor restarts", &t.restarts),
            ("recovery time (ns)", &t.recovery_ns),
        ] {
            if m.a == 0.0 && m.b == 0.0 {
                continue;
            }
            out.push_str(&format!(
                "{:<24} {:>12} {:>12} {:>10}\n",
                label,
                m.a as u64,
                m.b as u64,
                m.pct()
            ));
        }
        if let (Some(ra), Some(rb)) = {
            let (ra, rb) = t.dispatch_ratio();
            (ra, rb)
        } {
            out.push_str(&format!(
                "{:<24} {:>11.1}% {:>11.1}% {:>10}\n",
                "dispatch ratio",
                ra * 100.0,
                rb * 100.0,
                "-"
            ));
        } else if let (None, Some(rb)) = t.dispatch_ratio() {
            out.push_str(&format!(
                "{:<24} {:>12} {:>11.1}% {:>10}\n",
                "dispatch ratio",
                "-",
                rb * 100.0,
                "-"
            ));
        }

        out.push_str("\n-- per-call deltas (aligned by kind + name) --\n");
        out.push_str(&format!(
            "{:<34} {:>13} {:>17} {:>17} {:>17} {:>12}\n",
            "call", "count", "mean", "p50", "p99", "verdict"
        ));
        for c in &self.calls {
            out.push_str(&format!(
                "{:<34} {:>13} {:>17} {:>17} {:>17} {:>12}\n",
                format!("{} ({})", c.name, c.kind),
                format!("{}->{}", c.count.a as u64, c.count.b as u64),
                format!(
                    "{}->{}",
                    Nanos::from_nanos(c.mean_ns.a as u64),
                    Nanos::from_nanos(c.mean_ns.b as u64)
                ),
                format!(
                    "{}->{}",
                    Nanos::from_nanos(c.p50_ns.a as u64),
                    Nanos::from_nanos(c.p50_ns.b as u64)
                ),
                format!(
                    "{}->{}",
                    Nanos::from_nanos(c.p99_ns.a as u64),
                    Nanos::from_nanos(c.p99_ns.b as u64)
                ),
                c.verdict.to_string(),
            ));
        }
        for (label, names) in [
            ("only in baseline", &self.only_in_a),
            ("only in candidate", &self.only_in_b),
        ] {
            if !names.is_empty() {
                out.push_str(&format!("{label}: {}\n", names.join(", ")));
            }
        }

        if !self.regressions.is_empty() {
            out.push_str("\n-- regressions --\n");
            for r in &self.regressions {
                out.push_str(&format!("{r}\n"));
            }
        }
        if !self.improvements.is_empty() {
            out.push_str("\n-- improvements --\n");
            for i in &self.improvements {
                out.push_str(&format!("{i}\n"));
            }
        }
        if self.regressions.is_empty() && self.improvements.is_empty() {
            out.push_str("\nno change past threshold\n");
        }
        out
    }

    /// Renders the diff as JSON (the `sgxperf diff --json` / CI artifact
    /// format), via the same hand-rolled serializer as `report --json`.
    pub fn to_json(&self) -> String {
        let metric = |m: &MetricDelta| {
            format!(
                "{{\"a\": {}, \"b\": {}, \"rel_change\": {}}}",
                json::f64(m.a),
                json::f64(m.b),
                json::f64(m.rel_change())
            )
        };
        let mut out = String::from("{\n");
        out.push_str(&format!(
            "  \"verdict\": {},\n  \"exit_code\": {},\n  \"threshold\": {},\n  \"min_count\": {},\n  \"speedup\": {},\n",
            json::string(&self.verdict.to_string()),
            self.exit_code(),
            json::f64(self.config.threshold),
            self.config.min_count,
            json::f64(self.speedup()),
        ));
        let t = &self.totals;
        out.push_str("  \"totals\": {");
        for (i, (label, m)) in [
            ("transitions", &t.transitions),
            ("page_outs", &t.page_outs),
            ("page_ins", &t.page_ins),
            ("aex_events", &t.aex_events),
            ("switchless_dispatched", &t.switchless_dispatched),
            ("switchless_fallbacks", &t.switchless_fallbacks),
            ("faults_injected", &t.faults_injected),
            ("faults_recovered", &t.faults_recovered),
            ("faults_gave_up", &t.faults_gave_up),
            ("enclaves_lost", &t.enclaves_lost),
            ("restarts", &t.restarts),
            ("recovery_ns", &t.recovery_ns),
            ("wall_ns", &t.wall_ns),
        ]
        .iter()
        .enumerate()
        {
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str(&format!("\"{label}\": {}", metric(m)));
        }
        out.push_str("},\n  \"calls\": [\n");
        for (i, c) in self.calls.iter().enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            out.push_str(&format!(
                "    {{\"name\": {}, \"kind\": \"{}\", \"verdict\": {}, \
                 \"count\": {}, \"total_ns\": {}, \"mean_ns\": {}, \"p50_ns\": {}, \
                 \"p99_ns\": {}, \"aex\": {}, \"attributed_faults\": {}, \
                 \"recovery_overlaps\": {}, \"flagged\": [{}]}}",
                json::string(&c.name),
                c.kind,
                json::string(&c.verdict.to_string()),
                metric(&c.count),
                metric(&c.total_ns),
                metric(&c.mean_ns),
                metric(&c.p50_ns),
                metric(&c.p99_ns),
                metric(&c.aex),
                c.attributed_faults,
                c.recovery_overlaps,
                c.flagged
                    .iter()
                    .map(|f| json::string(f))
                    .collect::<Vec<_>>()
                    .join(", "),
            ));
        }
        let names = |list: &[String]| {
            list.iter()
                .map(|n| json::string(n))
                .collect::<Vec<_>>()
                .join(", ")
        };
        out.push_str(&format!(
            "\n  ],\n  \"only_in_a\": [{}],\n  \"only_in_b\": [{}],\n",
            names(&self.only_in_a),
            names(&self.only_in_b),
        ));
        out.push_str(&format!(
            "  \"regressions\": [{}],\n  \"improvements\": [{}]\n}}\n",
            names(&self.regressions),
            names(&self.improvements),
        ));
        out
    }
}

impl fmt::Display for TraceDiff {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::events::{EcallRow, FaultRow, OcallRow, PagingRow, SwitchlessRow};
    use proptest::prelude::{Strategy, TestRng};

    /// Over generated (A, B) pairs, every aligned call's fault attributions
    /// and recovery overlaps are those of the reference model (every fault
    /// against every window, every window against every recovery), and
    /// the pairs have both.
    #[test]
    fn fault_and_recovery_counts_match_the_nested_loops() {
        let traces = crate::tracegen::Traces { max_rows: 24 };
        let mut rng = TestRng::from_name("fault_and_recovery_counts_match_the_nested_loops");
        let (mut attributed, mut overlapping) = (0, 0);
        for case in 0..300 {
            let (a, b) = (traces.generate(&mut rng), traces.generate(&mut rng));
            let diff = TraceDiff::compute(&a, &b, DiffConfig::default());
            let injected: Vec<u64> = (b.faults.iter())
                .filter(|f| FaultAction::from_code(f.action) == Some(FaultAction::Injected))
                .map(|f| f.time_ns)
                .collect();
            let recoveries = recovery_windows(&b);
            let sides = per_name(&b);
            for call in &diff.calls {
                let windows = &sides[&(call.kind, call.name.clone())].windows;
                let expected = (
                    (injected.iter())
                        .filter(|&&t| windows.iter().any(|&(s, e)| t >= s && t <= e))
                        .count(),
                    (windows.iter())
                        .filter(|(s, e)| recoveries.iter().any(|(rs, re)| s <= re && e >= rs))
                        .count(),
                );
                let got = (call.attributed_faults, call.recovery_overlaps);
                assert_eq!(got, expected, "case {case}, {}: {a:?} {b:?}", call.name);
                attributed += got.0;
                overlapping += got.1;
            }
        }
        assert!(
            attributed >= 30 && overlapping >= 30,
            "{attributed} attributions and {overlapping} overlaps in 300 pairs"
        );
    }

    fn trace_with_ecalls(durations: &[u64]) -> TraceDb {
        let mut trace = TraceDb::default();
        let mut t = 0;
        for &d in durations {
            trace.ecalls.insert(EcallRow {
                thread: 0,
                enclave: 1,
                call_index: 0,
                start_ns: t,
                end_ns: t + d,
                parent_ocall: None,
                aex_count: 0,
                failed: false,
            });
            t += d + 100;
        }
        trace
    }

    #[test]
    fn self_diff_is_all_zero_and_neutral() {
        let trace = trace_with_ecalls(&[5_000; 20]);
        let diff = TraceDiff::compute(&trace, &trace, DiffConfig::default());
        assert_eq!(diff.verdict, Verdict::Neutral);
        assert_eq!(diff.exit_code(), 0);
        assert_eq!(diff.calls.len(), 1);
        let c = &diff.calls[0];
        for m in [
            &c.count,
            &c.total_ns,
            &c.mean_ns,
            &c.p50_ns,
            &c.p99_ns,
            &c.aex,
        ] {
            assert_eq!(m.a, m.b);
            assert_eq!(m.rel_change(), 0.0);
        }
        assert!(diff.regressions.is_empty() && diff.improvements.is_empty());
        assert!((diff.speedup() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn slower_candidate_regresses_past_threshold() {
        let a = trace_with_ecalls(&[5_000; 20]);
        let b = trace_with_ecalls(&[6_000; 20]); // +20% mean/p50/p99
        let diff = TraceDiff::compute(&a, &b, DiffConfig::default());
        assert_eq!(diff.verdict, Verdict::Regression);
        assert_eq!(diff.exit_code(), REGRESSION_EXIT_CODE);
        let c = &diff.calls[0];
        assert_eq!(c.verdict, Verdict::Regression);
        assert!(c.flagged.iter().any(|f| f.starts_with("mean ")), "{c:?}");
        // Swapping sides yields the symmetric improvement verdict.
        let diff = TraceDiff::compute(&b, &a, DiffConfig::default());
        assert_eq!(diff.verdict, Verdict::Improvement);
        assert_eq!(diff.exit_code(), 0);
    }

    #[test]
    fn small_samples_do_not_gate() {
        let a = trace_with_ecalls(&[5_000; 4]);
        let b = trace_with_ecalls(&[50_000; 4]);
        let diff = TraceDiff::compute(&a, &b, DiffConfig::default());
        // Per-call gate is off (count < min_count) but the wall clock
        // still catches the 10x drift.
        assert_eq!(diff.calls[0].verdict, Verdict::Neutral);
        assert!(
            diff.regressions.iter().all(|r| r.contains("wall clock")),
            "{:?}",
            diff.regressions
        );
    }

    #[test]
    fn disjoint_calls_are_reported_not_aligned() {
        let a = trace_with_ecalls(&[5_000; 10]);
        let mut b = TraceDb::default();
        b.ocalls.insert(OcallRow {
            thread: 0,
            enclave: 1,
            call_index: 0,
            start_ns: 0,
            end_ns: 1_000,
            parent_ecall: None,
            failed: false,
        });
        let diff = TraceDiff::compute(&a, &b, DiffConfig::default());
        assert!(diff.calls.is_empty());
        assert_eq!(diff.only_in_a, vec!["enclave1/ecall#0 (ecall)"]);
        assert_eq!(diff.only_in_b, vec!["enclave1/ocall#0 (ocall)"]);
    }

    #[test]
    fn switchless_served_ocalls_leave_the_transition_count() {
        let mut trace = trace_with_ecalls(&[5_000; 10]);
        for i in 0..6u64 {
            trace.ocalls.insert(OcallRow {
                thread: 0,
                enclave: 1,
                call_index: 0,
                start_ns: i * 10,
                end_ns: i * 10 + 5,
                parent_ecall: None,
                failed: false,
            });
        }
        for _ in 0..4 {
            trace.switchless.insert(SwitchlessRow {
                thread: 0,
                enclave: 1,
                kind: 1,
                call_index: Some(0),
                worker: Some(0),
                spins: 0,
                time_ns: 1,
            });
        }
        assert_eq!(round_trips(&trace), 10 + 6 - 4);
    }

    #[test]
    fn injected_faults_attributed_to_overlapping_windows() {
        let a = trace_with_ecalls(&[5_000; 20]);
        let mut b = trace_with_ecalls(&[7_000; 20]);
        // One injected fault inside the first call's window, one far out.
        b.faults.insert(FaultRow {
            thread: 0,
            enclave: 1,
            fault: 0,
            action: 0,
            call_index: None,
            magnitude: 4,
            time_ns: 2_500,
        });
        b.faults.insert(FaultRow {
            thread: 0,
            enclave: 1,
            fault: 0,
            action: 0,
            call_index: None,
            magnitude: 4,
            time_ns: 999_999_999,
        });
        let diff = TraceDiff::compute(&a, &b, DiffConfig::default());
        assert_eq!(diff.verdict, Verdict::Regression);
        assert_eq!(diff.calls[0].attributed_faults, 1);
        assert_eq!(diff.attributed_faults(), 1);
        assert_eq!(diff.totals.faults_injected.b, 2.0);
        assert!(
            diff.regressions
                .iter()
                .any(|r| r.contains("injected fault(s) in window")),
            "{:?}",
            diff.regressions
        );
    }

    #[test]
    fn regressions_overlapping_a_recovery_window_are_attributed() {
        use crate::events::LifecycleRow;
        let a = trace_with_ecalls(&[5_000; 20]);
        let mut b = trace_with_ecalls(&[7_000; 20]);
        // One recovery window covering the first few calls.
        for (stage, time_ns) in [(0u8, 1_000u64), (1, 5_000), (2, 9_000), (4, 12_000)] {
            b.lifecycle.insert(LifecycleRow {
                enclave: 1,
                stage,
                thread: 0,
                attempt: 1,
                magnitude: if stage == 4 { 11_000 } else { 4_000 },
                time_ns,
            });
        }
        let diff = TraceDiff::compute(&a, &b, DiffConfig::default());
        assert_eq!(diff.verdict, Verdict::Regression);
        assert!(diff.calls[0].recovery_overlaps > 0, "{:?}", diff.calls[0]);
        assert_eq!(diff.totals.enclaves_lost.b, 1.0);
        assert_eq!(diff.totals.restarts.b, 1.0);
        assert_eq!(diff.totals.recovery_ns.b, 11_000.0);
        assert!(
            diff.regressions
                .iter()
                .any(|r| r.contains("overlap an enclave recovery")),
            "{:?}",
            diff.regressions
        );
        assert!(diff.to_json().contains("\"recovery_overlaps\""));
        assert!(diff.render().contains("enclaves lost"));
    }

    #[test]
    fn an_unclosed_loss_extends_to_the_end_of_the_trace() {
        use crate::events::LifecycleRow;
        let mut b = trace_with_ecalls(&[5_000; 4]);
        b.lifecycle.insert(LifecycleRow {
            enclave: 1,
            stage: 0,
            thread: 0,
            attempt: 0,
            magnitude: 0,
            time_ns: 2_000,
        });
        assert_eq!(super::recovery_windows(&b), vec![(2_000, u64::MAX)]);
    }

    #[test]
    fn gave_up_faults_regress_regardless_of_latency() {
        let a = trace_with_ecalls(&[5_000; 20]);
        let mut b = trace_with_ecalls(&[5_000; 20]);
        b.faults.insert(FaultRow {
            thread: 0,
            enclave: 1,
            fault: 4,
            action: 3,
            call_index: Some(0),
            magnitude: 4,
            time_ns: 10,
        });
        let diff = TraceDiff::compute(&a, &b, DiffConfig::default());
        assert_eq!(diff.verdict, Verdict::Regression);
        assert!(diff.regressions.iter().any(|r| r.contains("gave up")));
    }

    #[test]
    fn paging_deltas_use_ewb_eldu_split() {
        let a = trace_with_ecalls(&[5_000; 10]);
        let mut b = trace_with_ecalls(&[5_000; 10]);
        for i in 0..4 {
            b.paging.insert(PagingRow {
                enclave: 1,
                out: i % 2 == 0,
                vaddr: 0x1000 * i,
                time_ns: 10 + i,
            });
        }
        let diff = TraceDiff::compute(&a, &b, DiffConfig::default());
        assert_eq!(diff.totals.page_outs.b, 2.0);
        assert_eq!(diff.totals.page_ins.b, 2.0);
        assert_eq!(diff.verdict, Verdict::Regression); // paging appeared from nothing
    }

    #[test]
    fn render_and_json_are_well_formed() {
        let a = trace_with_ecalls(&[5_000; 20]);
        let b = trace_with_ecalls(&[6_000; 20]);
        let diff = TraceDiff::compute(&a, &b, DiffConfig::default());
        let text = diff.render();
        assert!(text.contains("sgx-perf A/B diff"), "{text}");
        assert!(text.contains("verdict: REGRESSION"), "{text}");
        assert!(text.contains("per-call deltas"), "{text}");
        let json = diff.to_json();
        for key in [
            "\"verdict\"",
            "\"exit_code\": 3",
            "\"totals\"",
            "\"calls\"",
            "\"regressions\"",
            "\"improvements\"",
            "\"transitions\"",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
        let opens = json.matches('{').count() + json.matches('[').count();
        let closes = json.matches('}').count() + json.matches(']').count();
        assert_eq!(opens, closes);
    }

    #[test]
    fn dispatch_ratio_handles_absent_sides() {
        let mut t = TotalsDelta::default();
        assert_eq!(t.dispatch_ratio(), (None, None));
        t.switchless_dispatched = MetricDelta::new(0.0, 9.0);
        t.switchless_fallbacks = MetricDelta::new(0.0, 1.0);
        let (a, b) = t.dispatch_ratio();
        assert_eq!(a, None);
        assert!((b.unwrap() - 0.9).abs() < 1e-12);
    }
}
