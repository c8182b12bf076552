//! The assembled analysis report and its text rendering.

use std::fmt::{self, Write};

use sgx_sdk::SwitchlessEventKind;
use sim_core::fault::FaultAction;
use sim_core::{LifecycleStage, Nanos};

use crate::events::{CallKind, CallRef};
use crate::json::{Num, Quoted};
use crate::trace::TraceDb;

use super::detect::Detection;
use super::fleet::FleetReport;
use super::parents::Instances;
use super::stats::CallStats;

/// Aggregate counters over a whole trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Totals {
    /// Recorded ecall events.
    pub ecall_events: usize,
    /// Recorded ocall events.
    pub ocall_events: usize,
    /// Distinct ecalls seen.
    pub distinct_ecalls: usize,
    /// Distinct ocalls seen.
    pub distinct_ocalls: usize,
    /// Traced AEX events.
    pub aex_events: usize,
    /// Page-out events.
    pub page_outs: usize,
    /// Page-in events.
    pub page_ins: usize,
    /// Sleep events.
    pub sync_sleeps: usize,
    /// Wake events.
    pub sync_wakes: usize,
    /// Enclaves observed.
    pub enclaves: usize,
    /// Calls served switchlessly (no enclave transition).
    pub switchless_dispatched: usize,
    /// Switchless attempts that fell back to a synchronous transition.
    pub switchless_fallbacks: usize,
    /// Faults injected by the chaos harness.
    pub faults_injected: usize,
    /// Injected faults the SDK recovered from (retry/fallback succeeded).
    pub faults_recovered: usize,
    /// Injected faults that exhausted the retry budget and surfaced as
    /// errors.
    pub faults_gave_up: usize,
    /// Enclave losses (power transition / EPC poison).
    pub enclaves_lost: usize,
    /// Supervisor rebuilds performed in response to losses.
    pub restarts: usize,
    /// Virtual time spent rebuilding lost enclaves.
    pub rebuild_ns: u64,
    /// Virtual time spent replaying warm-up state after rebuilds.
    pub replay_ns: u64,
    /// Total loss-to-completion recovery time (the MTTR numerator).
    pub recovery_ns: u64,
}

/// A waker→sleeper dependency edge derived from the sync events
/// (§4.1.3: "track which thread wakes up which other threads to track
/// dependencies between them").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WakeEdge {
    /// The thread that issued the wake ocall.
    pub waker: u64,
    /// The thread that was woken.
    pub sleeper: u64,
    /// Number of wake events on this edge.
    pub count: usize,
}

/// The result of [`Analyzer::analyze`](super::Analyzer::analyze).
#[derive(Debug, Clone)]
pub struct Report {
    /// Per-call statistics, sorted by call.
    pub call_stats: Vec<(CallRef, CallStats)>,
    /// Names resolved for each entry of `call_stats` (same order).
    pub call_names: Vec<String>,
    /// All findings, sorted by priority.
    pub detections: Vec<Detection>,
    /// Aggregate counters.
    pub totals: Totals,
    /// Thread wake dependencies, sorted by descending count — dense edges
    /// indicate high-contention synchronisation.
    pub wake_edges: Vec<WakeEdge>,
    /// EDL lint diagnostics (populated when the analyzer was given an EDL
    /// file; see `analysis::lint`).
    pub lint: Vec<sgx_edl::Diagnostic>,
    /// Fleet-aggregate view — empty unless the trace was recorded by a
    /// fleet run (see `analysis::fleet` and `sgxperf fleet`).
    pub fleet: FleetReport,
}

impl Totals {
    /// Counts a trace's totals. The distinct-call counts need the per-call
    /// grouping and stay zero here; [`Report`] fills them in.
    pub(crate) fn of(trace: &TraceDb) -> Totals {
        let (lifecycle, _) = Totals::of_lifecycle(trace);
        let mut t = Totals {
            ecall_events: trace.ecalls.len(),
            ocall_events: trace.ocalls.len(),
            aex_events: trace.aex.len(),
            page_outs: trace.paging.iter().filter(|p| p.out).count(),
            page_ins: trace.paging.iter().filter(|p| !p.out).count(),
            sync_sleeps: trace.sync.iter().filter(|s| s.sleep).count(),
            sync_wakes: trace.sync.iter().filter(|s| !s.sleep).count(),
            enclaves: trace.enclaves.len(),
            ..lifecycle
        };
        // Worker idle/busy transitions are not call outcomes.
        for s in trace.switchless.iter() {
            use SwitchlessEventKind::*;
            match SwitchlessEventKind::from_code(s.kind) {
                Some(EcallDispatched | OcallDispatched) => t.switchless_dispatched += 1,
                Some(EcallFallback | OcallFallback) => t.switchless_fallbacks += 1,
                _ => {}
            }
        }
        for f in trace.faults.iter() {
            match FaultAction::from_code(f.action) {
                Some(FaultAction::Injected) => t.faults_injected += 1,
                Some(FaultAction::Recovered) => t.faults_recovered += 1,
                Some(FaultAction::GaveUp) => t.faults_gave_up += 1,
                _ => {}
            }
        }
        t
    }

    /// Sums the lifecycle table alone: losses, restarts and the rebuild,
    /// replay and recovery times, every other count zero. The times
    /// saturate, since a trace can carry any magnitude. Also returns the
    /// first lost enclave.
    pub(crate) fn of_lifecycle(trace: &TraceDb) -> (Totals, Option<u32>) {
        let mut t = Totals::default();
        let mut first_lost = None;
        for l in trace.lifecycle.iter() {
            match LifecycleStage::from_code(l.stage) {
                Some(LifecycleStage::Lost) => {
                    t.enclaves_lost += 1;
                    first_lost = first_lost.or(Some(l.enclave));
                }
                Some(LifecycleStage::Rebuild) => {
                    t.restarts += 1;
                    t.rebuild_ns = t.rebuild_ns.saturating_add(l.magnitude);
                }
                Some(LifecycleStage::Replay) => {
                    t.replay_ns = t.replay_ns.saturating_add(l.magnitude);
                }
                Some(LifecycleStage::Recovered) => {
                    t.recovery_ns = t.recovery_ns.saturating_add(l.magnitude);
                }
                _ => {}
            }
        }
        (t, first_lost)
    }
}

impl Report {
    pub(crate) fn assemble(
        trace: &TraceDb,
        instances: &Instances,
        call_stats: Vec<(CallRef, CallStats)>,
        detections: Vec<Detection>,
    ) -> Report {
        let call_names = call_stats
            .iter()
            .map(|(call, _)| instances.name(*call).into_owned())
            .collect();
        let distinct = |kind| call_stats.iter().filter(|(c, _)| c.kind == kind).count();
        let totals = Totals {
            distinct_ecalls: distinct(CallKind::Ecall),
            distinct_ocalls: distinct(CallKind::Ocall),
            ..Totals::of(trace)
        };
        let mut edge_counts: std::collections::BTreeMap<(u64, u64), usize> =
            std::collections::BTreeMap::new();
        for s in trace.sync.iter() {
            if let (false, Some(target)) = (s.sleep, s.target_thread) {
                *edge_counts.entry((s.thread, target)).or_default() += 1;
            }
        }
        let mut wake_edges: Vec<WakeEdge> = edge_counts
            .into_iter()
            .map(|((waker, sleeper), count)| WakeEdge {
                waker,
                sleeper,
                count,
            })
            .collect();
        wake_edges.sort_by_key(|e| (std::cmp::Reverse(e.count), e.waker, e.sleeper));
        Report {
            call_stats,
            call_names,
            detections,
            totals,
            wake_edges,
            lint: Vec::new(),
            fleet: FleetReport::from_trace(trace),
        }
    }

    /// The statistics for a named call, if present.
    pub fn stats_for(&self, name: &str) -> Option<&CallStats> {
        self.call_names
            .iter()
            .position(|n| n == name)
            .map(|i| &self.call_stats[i].1)
    }

    /// The call's share of the total traced execution time of its kind —
    /// the §5.2.2-style "lseek, write and fsync are each responsible for
    /// 33% of the execution time" metric. Returns `None` for unknown
    /// names.
    pub fn time_share(&self, name: &str) -> Option<f64> {
        let idx = self.call_names.iter().position(|n| n == name)?;
        let (call, stats) = &self.call_stats[idx];
        // Summed wide: totals near `u64::MAX` must not overflow.
        let kind_total: u128 = self
            .call_stats
            .iter()
            .filter(|(c, _)| c.kind == call.kind)
            .map(|(_, s)| u128::from(s.total_ns))
            .sum();
        if kind_total == 0 {
            return Some(0.0);
        }
        Some(stats.total_ns as f64 / kind_total as f64)
    }

    /// Fraction of ecall executions with an adjusted duration below 10 µs
    /// (the §5.2.1-style headline number).
    pub fn short_fraction(&self, kind: CallKind) -> f64 {
        let mut total = 0usize;
        let mut short = 0.0;
        for (call, stats) in &self.call_stats {
            if call.kind != kind {
                continue;
            }
            total += stats.count;
            short += stats.frac_under_10us * stats.count as f64;
        }
        if total == 0 {
            0.0
        } else {
            short / total as f64
        }
    }

    /// Renders the full text report (overview, per-call table, findings).
    /// Every row is written straight into the one output string.
    pub fn render(&self) -> String {
        let mut out = String::new();
        // Writing into a `String` cannot fail.
        let _ = self.write_text(&mut out);
        out
    }

    fn write_text(&self, out: &mut String) -> fmt::Result {
        out.push_str("== sgx-perf analysis report ==\n\n");
        let t = &self.totals;
        write!(
            out,
            "events: {} ecalls ({} distinct), {} ocalls ({} distinct), {} AEX, \
             {} page-outs, {} page-ins, {} sleeps, {} wakes, {} enclave(s)\n\n",
            t.ecall_events,
            t.distinct_ecalls,
            t.ocall_events,
            t.distinct_ocalls,
            t.aex_events,
            t.page_outs,
            t.page_ins,
            t.sync_sleeps,
            t.sync_wakes,
            t.enclaves,
        )?;
        if t.switchless_dispatched + t.switchless_fallbacks > 0 {
            write!(
                out,
                "switchless: {} dispatched, {} fell back to a transition\n\n",
                t.switchless_dispatched, t.switchless_fallbacks,
            )?;
        }
        if t.faults_injected > 0 {
            write!(
                out,
                "faults: {} injected, {} recovered, {} gave up\n\n",
                t.faults_injected, t.faults_recovered, t.faults_gave_up,
            )?;
        }
        if t.enclaves_lost > 0 {
            write!(
                out,
                "recovery: {} enclave loss(es), {} restart(s); rebuild {}, replay {}, \
                 total recovery {}\n\n",
                t.enclaves_lost,
                t.restarts,
                Nanos::from_nanos(t.rebuild_ns),
                Nanos::from_nanos(t.replay_ns),
                Nanos::from_nanos(t.recovery_ns),
            )?;
        }
        // Fleet-free traces keep the section out entirely, so pre-fleet
        // report output is unchanged byte for byte.
        if !self.fleet.is_empty() {
            out.push_str(&self.fleet.summary_line());
            out.push_str("\n\n");
        }
        write!(
            out,
            "short calls (<10us adjusted): {:.2}% of ecalls, {:.2}% of ocalls\n\n",
            self.short_fraction(CallKind::Ecall) * 100.0,
            self.short_fraction(CallKind::Ocall) * 100.0,
        )?;
        out.push_str("-- call statistics --\n");
        writeln!(
            out,
            "{:<40} {:>6} {:>12} {:>12} {:>12} {:>12} {:>12} {:>12}",
            "call", "count", "mean", "median", "stddev", "p90", "p95", "p99"
        )?;
        for ((call, stats), name) in self.call_stats.iter().zip(&self.call_names) {
            // `{:<40}` of the label, without building the label.
            let label = out.len();
            write!(out, "{name} ({})", call.kind)?;
            let chars = out[label..].chars().count();
            out.extend(std::iter::repeat_n(' ', 40usize.saturating_sub(chars)));
            writeln!(
                out,
                " {:>6} {:>12} {:>12} {:>12} {:>12} {:>12} {:>12}",
                stats.count,
                Nanos::from_nanos(stats.mean_ns as u64),
                Nanos::from_nanos(stats.median_ns),
                Nanos::from_nanos(stats.stddev_ns as u64),
                Nanos::from_nanos(stats.p90_ns),
                Nanos::from_nanos(stats.p95_ns),
                Nanos::from_nanos(stats.p99_ns),
            )?;
        }
        if !self.wake_edges.is_empty() {
            out.push_str("\n-- thread wake dependencies (waker -> sleeper) --\n");
            for e in self.wake_edges.iter().take(16) {
                writeln!(out, "t{} -> t{}: {} wake(s)", e.waker, e.sleeper, e.count)?;
            }
        }
        out.push_str("\n-- findings (sorted by priority; check applicability!) --\n");
        if self.detections.is_empty() {
            out.push_str("no problems detected\n");
        }
        for d in &self.detections {
            writeln!(out, "{d}")?;
        }
        if !self.lint.is_empty() {
            out.push_str("\n-- edl lint findings (run `sgxperf lint` for source excerpts) --\n");
            for d in &self.lint {
                writeln!(
                    out,
                    "{}[{}] {}:{}: {}",
                    d.severity, d.code, d.span.start.line, d.span.start.col, d.message
                )?;
            }
        }
        Ok(())
    }

    /// Renders the report as JSON for machine consumption
    /// (`sgxperf report --json`). The encoder is hand-rolled — the repo
    /// deliberately has no serialisation dependency — and emits a single
    /// object with `totals`, `short_fraction`, `calls`, `wake_edges`,
    /// `detections` and `lint` keys.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        // Writing into a `String` cannot fail.
        let _ = self.write_json(&mut out);
        out
    }

    fn write_json(&self, out: &mut String) -> fmt::Result {
        let t = &self.totals;
        out.push_str("{\n  \"totals\": {");
        write!(
            out,
            "\"ecall_events\": {}, \"ocall_events\": {}, \"distinct_ecalls\": {}, \
             \"distinct_ocalls\": {}, \"aex_events\": {}, \"page_outs\": {}, \
             \"page_ins\": {}, \"sync_sleeps\": {}, \"sync_wakes\": {}, \
             \"enclaves\": {}, \"switchless_dispatched\": {}, \"switchless_fallbacks\": {}, \
             \"faults_injected\": {}, \"faults_recovered\": {}, \"faults_gave_up\": {}, \
             \"enclaves_lost\": {}, \"restarts\": {}, \"rebuild_ns\": {}, \
             \"replay_ns\": {}, \"recovery_ns\": {}",
            t.ecall_events,
            t.ocall_events,
            t.distinct_ecalls,
            t.distinct_ocalls,
            t.aex_events,
            t.page_outs,
            t.page_ins,
            t.sync_sleeps,
            t.sync_wakes,
            t.enclaves,
            t.switchless_dispatched,
            t.switchless_fallbacks,
            t.faults_injected,
            t.faults_recovered,
            t.faults_gave_up,
            t.enclaves_lost,
            t.restarts,
            t.rebuild_ns,
            t.replay_ns,
            t.recovery_ns,
        )?;
        out.push_str("},\n  \"fleet\": {");
        let ft = &self.fleet.totals;
        write!(
            out,
            "\"slots\": {}, \"spin_ups\": {}, \"restarts\": {}, \"requests\": {}, \
             \"completed\": {}, \"shed\": {}, \"failed\": {}, \"page_ins\": {}, \
             \"page_outs\": {}, \"mean_p50_ns\": {}, \"max_p99_ns\": {}",
            ft.slots,
            ft.spin_ups,
            ft.restarts,
            ft.requests,
            ft.completed,
            ft.shed,
            ft.failed,
            ft.page_ins,
            ft.page_outs,
            ft.mean_p50_ns,
            ft.max_p99_ns,
        )?;
        out.push_str("},\n  \"short_fraction\": {");
        write!(
            out,
            "\"ecalls\": {}, \"ocalls\": {}",
            Num(self.short_fraction(CallKind::Ecall)),
            Num(self.short_fraction(CallKind::Ocall)),
        )?;
        out.push_str("},\n  \"calls\": [\n");
        for (i, ((call, s), name)) in self.call_stats.iter().zip(&self.call_names).enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            write!(
                out,
                "    {{\"name\": {}, \"kind\": \"{}\", \"enclave\": {}, \"index\": {}, \
                 \"count\": {}, \"mean_ns\": {}, \"median_ns\": {}, \"stddev_ns\": {}, \
                 \"p90_ns\": {}, \"p95_ns\": {}, \"p99_ns\": {}, \"min_ns\": {}, \
                 \"max_ns\": {}, \"total_ns\": {}, \"mean_aex\": {}, \
                 \"frac_under_1us\": {}, \"frac_under_5us\": {}, \"frac_under_10us\": {}}}",
                Quoted(name),
                call.kind,
                call.enclave,
                call.index,
                s.count,
                Num(s.mean_ns),
                s.median_ns,
                Num(s.stddev_ns),
                s.p90_ns,
                s.p95_ns,
                s.p99_ns,
                s.min_ns,
                s.max_ns,
                s.total_ns,
                Num(s.mean_aex),
                Num(s.frac_under_1us),
                Num(s.frac_under_5us),
                Num(s.frac_under_10us),
            )?;
        }
        out.push_str("\n  ],\n  \"wake_edges\": [\n");
        for (i, e) in self.wake_edges.iter().enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            write!(
                out,
                "    {{\"waker\": {}, \"sleeper\": {}, \"count\": {}}}",
                e.waker, e.sleeper, e.count
            )?;
        }
        out.push_str("\n  ],\n  \"detections\": [\n");
        for (i, d) in self.detections.iter().enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            write!(
                out,
                "    {{\"priority\": {}, \"problem\": {}, \"call\": {}, \"target\": {}, \
                 \"recommendation\": {}, \"evidence\": {}}}",
                d.priority,
                Quoted(&d.problem),
                Quoted(&d.name),
                Quoted(&d.target),
                Quoted(&d.recommendation),
                Quoted(&d.evidence),
            )?;
        }
        out.push_str("\n  ],\n  \"lint\": [\n");
        for (i, d) in self.lint.iter().enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            write!(
                out,
                "    {{\"severity\": {}, \"code\": {}, \"line\": {}, \"col\": {}, \
                 \"message\": {}}}",
                Quoted(&d.severity),
                Quoted(d.code),
                d.span.start.line,
                d.span.start.col,
                Quoted(&d.message),
            )?;
        }
        out.push_str("\n  ]\n}\n");
        Ok(())
    }
}

impl fmt::Display for Report {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::Analyzer;
    use crate::events::EcallRow;
    use sim_core::HwProfile;

    fn trace_with_short_ecalls(n: usize) -> TraceDb {
        let mut trace = TraceDb::default();
        let mut t = 0;
        for _ in 0..n {
            trace.ecalls.insert(EcallRow {
                thread: 0,
                enclave: 1,
                call_index: 0,
                start_ns: t,
                end_ns: t + 5_000,
                parent_ocall: None,
                aex_count: 0,
                failed: false,
            });
            t += 5_100;
        }
        trace
    }

    #[test]
    fn report_totals_and_render() {
        let trace = trace_with_short_ecalls(20);
        let report = Analyzer::new(&trace, HwProfile::Unpatched.cost_model()).analyze();
        assert_eq!(report.totals.ecall_events, 20);
        assert_eq!(report.totals.distinct_ecalls, 1);
        let text = report.render();
        assert!(text.contains("sgx-perf analysis report"));
        assert!(text.contains("call statistics"));
        // Short identical successive calls must be in the findings.
        assert!(text.contains("SISC") || text.contains("batch"), "{text}");
    }

    #[test]
    fn short_fraction_is_one_for_all_short_calls() {
        let trace = trace_with_short_ecalls(10);
        let report = Analyzer::new(&trace, HwProfile::Unpatched.cost_model()).analyze();
        assert!((report.short_fraction(CallKind::Ecall) - 1.0).abs() < 1e-9);
        assert_eq!(report.short_fraction(CallKind::Ocall), 0.0);
    }

    #[test]
    fn detections_sorted_by_priority() {
        let trace = trace_with_short_ecalls(50);
        let report = Analyzer::new(&trace, HwProfile::Unpatched.cost_model()).analyze();
        let priorities: Vec<u8> = report.detections.iter().map(|d| d.priority).collect();
        let mut sorted = priorities.clone();
        sorted.sort_unstable();
        assert_eq!(priorities, sorted);
    }

    #[test]
    fn time_share_partitions_by_kind() {
        use crate::events::OcallRow;
        let mut trace = TraceDb::default();
        // Two ocalls: 3 us and 1 us of total time.
        for (idx, dur) in [(0u32, 3_000u64), (1, 1_000)] {
            trace.ocalls.insert(OcallRow {
                thread: 0,
                enclave: 1,
                call_index: idx,
                start_ns: idx as u64 * 10_000,
                end_ns: idx as u64 * 10_000 + dur,
                parent_ecall: None,
                failed: false,
            });
        }
        let report = Analyzer::new(&trace, HwProfile::Unpatched.cost_model()).analyze();
        let share0 = report.time_share("enclave1/ocall#0").unwrap();
        let share1 = report.time_share("enclave1/ocall#1").unwrap();
        assert!((share0 - 0.75).abs() < 1e-9);
        assert!((share1 - 0.25).abs() < 1e-9);
        assert!(report.time_share("nope").is_none());
    }

    #[test]
    fn wake_edges_are_aggregated_and_sorted() {
        use crate::events::SyncRow;
        let mut trace = trace_with_short_ecalls(1);
        for _ in 0..3 {
            trace.sync.insert(SyncRow {
                thread: 0,
                time_ns: 1,
                sleep: false,
                target_thread: Some(2),
                ocall_row: 0,
            });
        }
        trace.sync.insert(SyncRow {
            thread: 1,
            time_ns: 2,
            sleep: false,
            target_thread: Some(0),
            ocall_row: 0,
        });
        // Sleeps don't create edges.
        trace.sync.insert(SyncRow {
            thread: 2,
            time_ns: 3,
            sleep: true,
            target_thread: None,
            ocall_row: 0,
        });
        let report = Analyzer::new(&trace, HwProfile::Unpatched.cost_model()).analyze();
        assert_eq!(report.wake_edges.len(), 2);
        assert_eq!(
            (
                report.wake_edges[0].waker,
                report.wake_edges[0].sleeper,
                report.wake_edges[0].count
            ),
            (0, 2, 3)
        );
        assert!(report.render().contains("t0 -> t2: 3 wake(s)"));
    }

    #[test]
    fn switchless_totals_split_dispatches_from_fallbacks() {
        use crate::events::SwitchlessRow;
        let mut trace = trace_with_short_ecalls(5);
        for kind in [0u8, 1, 2, 3, 4, 5, 0] {
            trace.switchless.insert(SwitchlessRow {
                thread: 0,
                enclave: 1,
                kind,
                call_index: Some(0),
                worker: None,
                spins: 0,
                time_ns: 1,
            });
        }
        let report = Analyzer::new(&trace, HwProfile::Unpatched.cost_model()).analyze();
        assert_eq!(report.totals.switchless_dispatched, 3);
        assert_eq!(report.totals.switchless_fallbacks, 2);
        assert!(report
            .render()
            .contains("switchless: 3 dispatched, 2 fell back"));
    }

    #[test]
    fn fault_totals_count_by_action() {
        use crate::events::FaultRow;
        let mut trace = trace_with_short_ecalls(5);
        for action in [0u8, 0, 0, 1, 2, 2, 3] {
            trace.faults.insert(FaultRow {
                thread: 0,
                enclave: 1,
                fault: 3,
                action,
                call_index: Some(0),
                magnitude: 1,
                time_ns: 1,
            });
        }
        let report = Analyzer::new(&trace, HwProfile::Unpatched.cost_model()).analyze();
        assert_eq!(report.totals.faults_injected, 3);
        assert_eq!(report.totals.faults_recovered, 2);
        assert_eq!(report.totals.faults_gave_up, 1);
        assert!(report
            .render()
            .contains("faults: 3 injected, 2 recovered, 1 gave up"));
        // Fault-free reports keep the line out entirely.
        let clean = Analyzer::new(
            &trace_with_short_ecalls(5),
            HwProfile::Unpatched.cost_model(),
        )
        .analyze();
        assert!(!clean.render().contains("faults:"));
    }

    #[test]
    fn recovery_totals_aggregate_lifecycle_stages() {
        use crate::events::LifecycleRow;
        let mut trace = trace_with_short_ecalls(5);
        for (stage, magnitude) in [(0u8, 0u64), (1, 10_000), (2, 30_000), (3, 2), (4, 45_000)] {
            trace.lifecycle.insert(LifecycleRow {
                enclave: 1,
                stage,
                thread: 0,
                attempt: 1,
                magnitude,
                time_ns: 1,
            });
        }
        let report = Analyzer::new(&trace, HwProfile::Unpatched.cost_model()).analyze();
        assert_eq!(report.totals.enclaves_lost, 1);
        assert_eq!(report.totals.restarts, 1);
        assert_eq!(report.totals.rebuild_ns, 10_000);
        assert_eq!(report.totals.replay_ns, 30_000);
        assert_eq!(report.totals.recovery_ns, 45_000);
        assert!(
            report
                .render()
                .contains("recovery: 1 enclave loss(es), 1 restart(s)"),
            "{}",
            report.render()
        );
        assert!(report.to_json().contains("\"enclaves_lost\": 1"));
        // Loss-free reports keep the line out entirely.
        let clean = Analyzer::new(
            &trace_with_short_ecalls(5),
            HwProfile::Unpatched.cost_model(),
        )
        .analyze();
        assert!(!clean.render().contains("recovery:"));
    }

    #[test]
    fn fleet_section_appears_only_with_a_fleet_table() {
        use crate::events::FleetRow;
        let mut trace = trace_with_short_ecalls(5);
        trace.fleet.insert(FleetRow {
            slot: 3,
            spin_ups: 2,
            restarts: 1,
            requests: 40,
            completed: 38,
            shed: 1,
            failed: 1,
            p50_ns: 2_000,
            p99_ns: 11_000,
            page_ins: 6,
            page_outs: 4,
        });
        let report = Analyzer::new(&trace, HwProfile::Unpatched.cost_model()).analyze();
        assert!(report
            .render()
            .contains("fleet: 1 slot(s), 2 spin-up(s), 1 restart(s)"));
        assert!(report.to_json().contains("\"requests\": 40"));
        // Fleet-free reports keep the section out entirely.
        let clean = Analyzer::new(
            &trace_with_short_ecalls(5),
            HwProfile::Unpatched.cost_model(),
        )
        .analyze();
        assert!(!clean.render().contains("fleet:"));
        assert!(clean.to_json().contains("\"fleet\": {\"slots\": 0"));
    }

    #[test]
    fn json_report_has_all_sections_and_escapes_strings() {
        use crate::events::SymbolRow;
        let mut trace = trace_with_short_ecalls(50);
        trace.symbols.insert(SymbolRow {
            enclave: 1,
            kind_is_ecall: true,
            index: 0,
            name: "ecall_\"quoted\"".into(),
            public: true,
            allowed_ecalls: vec![],
            user_check_params: vec![],
        });
        let report = Analyzer::new(&trace, HwProfile::Unpatched.cost_model()).analyze();
        let json = report.to_json();
        for key in [
            "\"totals\"",
            "\"short_fraction\"",
            "\"calls\"",
            "\"wake_edges\"",
            "\"detections\"",
            "\"lint\"",
            "\"switchless_dispatched\": 0",
            "\"faults_injected\": 0",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
        // The quote inside the symbol name must be escaped.
        assert!(json.contains("ecall_\\\"quoted\\\""), "{json}");
        // Balanced braces/brackets (cheap well-formedness check).
        let opens = json.matches('{').count() + json.matches('[').count();
        let closes = json.matches('}').count() + json.matches(']').count();
        assert_eq!(opens, closes);
    }

    #[test]
    fn call_rows_pad_names_by_chars() {
        use crate::events::SymbolRow;
        let mut trace = trace_with_short_ecalls(3);
        trace.ecalls.insert(EcallRow {
            call_index: 1,
            ..trace.ecalls.iter().next().unwrap().clone()
        });
        for (index, name) in [(0, "ecall_naïve_µs".to_string()), (1, "x".repeat(50))] {
            trace.symbols.insert(SymbolRow {
                enclave: 1,
                kind_is_ecall: true,
                index,
                name,
                public: true,
                allowed_ecalls: vec![],
                user_check_params: vec![],
            });
        }
        let report = Analyzer::new(&trace, HwProfile::Unpatched.cost_model()).analyze();
        let text = report.render();
        for ((call, s), name) in report.call_stats.iter().zip(&report.call_names) {
            let row = format!(
                "{:<40} {:>6} {:>12} {:>12} {:>12} {:>12} {:>12} {:>12}\n",
                format!("{} ({})", name, call.kind),
                s.count,
                Nanos::from_nanos(s.mean_ns as u64).to_string(),
                Nanos::from_nanos(s.median_ns).to_string(),
                Nanos::from_nanos(s.stddev_ns as u64).to_string(),
                Nanos::from_nanos(s.p90_ns).to_string(),
                Nanos::from_nanos(s.p95_ns).to_string(),
                Nanos::from_nanos(s.p99_ns).to_string(),
            );
            assert!(text.contains(&row), "missing {row:?} in\n{text}");
        }
    }

    #[test]
    fn stats_for_falls_back_to_positional_name() {
        let trace = trace_with_short_ecalls(5);
        let report = Analyzer::new(&trace, HwProfile::Unpatched.cost_model()).analyze();
        // No symbols captured: name is the CallRef display.
        assert!(report.stats_for("enclave1/ecall#0").is_some());
        assert!(report.stats_for("nope").is_none());
    }
}
