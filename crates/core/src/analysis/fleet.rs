//! Fleet-scale reporting (`sgxperf fleet`).
//!
//! A fleet run records one `fleet` table row per logical enclave slot —
//! throughput, latency percentiles, eviction pressure and restart counts
//! produced by the fleet manager. This module turns that table into the
//! per-slot and fleet-aggregate views: the aggregate also appears in
//! `sgxperf report` whenever the table is non-empty.
//!
//! The trace carries per-slot percentiles, not raw latency samples, so the
//! fleet-wide view reports the *completed-weighted mean* of the slot p50s
//! and the *maximum* slot p99 — an upper bound on the true fleet p99.

use sim_core::Nanos;

use crate::events::FleetRow;
use crate::trace::TraceDb;

/// Fleet-wide totals folded from every slot row.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FleetTotals {
    /// Logical enclave slots recorded.
    pub slots: usize,
    /// Total enclave creations (cold starts).
    pub spin_ups: u64,
    /// Total supervisor rebuilds after losses.
    pub restarts: u64,
    /// Requests routed to the fleet.
    pub requests: u64,
    /// Requests completed.
    pub completed: u64,
    /// Requests shed by the fleet circuit breaker.
    pub shed: u64,
    /// Requests that failed terminally.
    pub failed: u64,
    /// EPC pages paged in across the fleet.
    pub page_ins: u64,
    /// EPC pages evicted across the fleet.
    pub page_outs: u64,
    /// Completed-weighted mean of the per-slot median latencies.
    pub mean_p50_ns: u64,
    /// Worst per-slot 99th-percentile latency (fleet p99 upper bound).
    pub max_p99_ns: u64,
}

/// Per-slot and aggregate views over a trace's `fleet` table.
#[derive(Debug, Clone, Default)]
pub struct FleetReport {
    /// One row per slot, in slot order.
    pub slots: Vec<FleetRow>,
    /// Fleet-wide totals.
    pub totals: FleetTotals,
}

impl FleetReport {
    /// Builds the report from a trace. Empty when the trace has no fleet
    /// table (i.e. was not recorded by a fleet run).
    pub fn from_trace(trace: &TraceDb) -> FleetReport {
        let slots: Vec<FleetRow> = trace.fleet.iter().cloned().collect();
        let mut totals = FleetTotals {
            slots: slots.len(),
            ..FleetTotals::default()
        };
        // Sums saturate: a hostile trace's counters near `u64::MAX` must
        // not panic (debug) or wrap (release).
        let mut weighted_p50 = 0u128;
        for s in &slots {
            totals.spin_ups = totals.spin_ups.saturating_add(u64::from(s.spin_ups));
            totals.restarts = totals.restarts.saturating_add(u64::from(s.restarts));
            totals.requests = totals.requests.saturating_add(s.requests);
            totals.completed = totals.completed.saturating_add(s.completed);
            totals.shed = totals.shed.saturating_add(s.shed);
            totals.failed = totals.failed.saturating_add(s.failed);
            totals.page_ins = totals.page_ins.saturating_add(s.page_ins);
            totals.page_outs = totals.page_outs.saturating_add(s.page_outs);
            totals.max_p99_ns = totals.max_p99_ns.max(s.p99_ns);
            weighted_p50 =
                weighted_p50.saturating_add(u128::from(s.p50_ns) * u128::from(s.completed));
        }
        if totals.completed > 0 {
            totals.mean_p50_ns =
                u64::try_from(weighted_p50 / u128::from(totals.completed)).unwrap_or(u64::MAX);
        }
        FleetReport { slots, totals }
    }

    /// Whether the trace carried any fleet rows.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// The aggregate as a single report line (the section `sgxperf report`
    /// prints when the fleet table is non-empty).
    pub fn summary_line(&self) -> String {
        let t = &self.totals;
        format!(
            "fleet: {} slot(s), {} spin-up(s), {} restart(s); {} request(s) \
             ({} completed, {} shed, {} failed); p50 {}, worst p99 {}; \
             {} page-in(s), {} eviction(s)",
            t.slots,
            t.spin_ups,
            t.restarts,
            t.requests,
            t.completed,
            t.shed,
            t.failed,
            Nanos::from_nanos(t.mean_p50_ns),
            Nanos::from_nanos(t.max_p99_ns),
            t.page_ins,
            t.page_outs,
        )
    }

    /// Renders the full fleet report: the aggregate plus a per-slot table
    /// of the `top` busiest slots (by requests), plus every slot that
    /// restarted, shed or failed (the interesting tail).
    pub fn render(&self, top: usize) -> String {
        if self.is_empty() {
            return "no fleet table in this trace — record with a fleet run\n".to_string();
        }
        let mut out = String::from("== sgx-perf fleet report ==\n\n");
        out.push_str(&self.summary_line());
        out.push_str("\n\n");
        let mut by_requests: Vec<&FleetRow> = self.slots.iter().collect();
        by_requests.sort_by_key(|s| (std::cmp::Reverse(s.requests), s.slot));
        let mut shown: Vec<&FleetRow> = by_requests.iter().take(top).copied().collect();
        for s in &self.slots {
            if (s.restarts > 0 || s.shed > 0 || s.failed > 0)
                && !shown.iter().any(|r| r.slot == s.slot)
            {
                shown.push(s);
            }
        }
        shown.sort_by_key(|s| (std::cmp::Reverse(s.requests), s.slot));
        out.push_str(&format!(
            "-- {} of {} slot(s) (busiest, plus any that restarted/shed/failed) --\n",
            shown.len(),
            self.slots.len()
        ));
        out.push_str(&format!(
            "{:>6} {:>8} {:>6} {:>5} {:>5} {:>6} {:>12} {:>12} {:>9} {:>9}\n",
            "slot",
            "requests",
            "spinup",
            "rstrt",
            "shed",
            "failed",
            "p50",
            "p99",
            "page-ins",
            "evicted"
        ));
        for s in shown {
            out.push_str(&format!(
                "{:>6} {:>8} {:>6} {:>5} {:>5} {:>6} {:>12} {:>12} {:>9} {:>9}\n",
                s.slot,
                s.requests,
                s.spin_ups,
                s.restarts,
                s.shed,
                s.failed,
                Nanos::from_nanos(s.p50_ns),
                Nanos::from_nanos(s.p99_ns),
                s.page_ins,
                s.page_outs,
            ));
        }
        out
    }

    /// The report as a JSON object (for `--json`).
    pub fn to_json(&self) -> String {
        let t = &self.totals;
        let mut out = String::from("{\n  \"totals\": {");
        out.push_str(&format!(
            "\"slots\": {}, \"spin_ups\": {}, \"restarts\": {}, \"requests\": {}, \
             \"completed\": {}, \"shed\": {}, \"failed\": {}, \"page_ins\": {}, \
             \"page_outs\": {}, \"mean_p50_ns\": {}, \"max_p99_ns\": {}",
            t.slots,
            t.spin_ups,
            t.restarts,
            t.requests,
            t.completed,
            t.shed,
            t.failed,
            t.page_ins,
            t.page_outs,
            t.mean_p50_ns,
            t.max_p99_ns,
        ));
        out.push_str("},\n  \"slots\": [\n");
        for (i, s) in self.slots.iter().enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            out.push_str(&format!(
                "    {{\"slot\": {}, \"spin_ups\": {}, \"restarts\": {}, \"requests\": {}, \
                 \"completed\": {}, \"shed\": {}, \"failed\": {}, \"p50_ns\": {}, \
                 \"p99_ns\": {}, \"page_ins\": {}, \"page_outs\": {}}}",
                s.slot,
                s.spin_ups,
                s.restarts,
                s.requests,
                s.completed,
                s.shed,
                s.failed,
                s.p50_ns,
                s.p99_ns,
                s.page_ins,
                s.page_outs,
            ));
        }
        out.push_str("\n  ]\n}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(slot: u32, requests: u64, completed: u64) -> FleetRow {
        FleetRow {
            slot,
            spin_ups: 1,
            restarts: 0,
            requests,
            completed,
            shed: 0,
            failed: 0,
            p50_ns: 1_000,
            p99_ns: 5_000,
            page_ins: 2,
            page_outs: 1,
        }
    }

    #[test]
    fn totals_fold_all_slots() {
        let mut trace = TraceDb::default();
        trace.fleet.insert(row(0, 10, 10));
        trace.fleet.insert(FleetRow {
            restarts: 2,
            shed: 3,
            p50_ns: 3_000,
            p99_ns: 9_000,
            ..row(1, 8, 5)
        });
        let report = FleetReport::from_trace(&trace);
        assert_eq!(report.totals.slots, 2);
        assert_eq!(report.totals.requests, 18);
        assert_eq!(report.totals.completed, 15);
        assert_eq!(report.totals.shed, 3);
        assert_eq!(report.totals.restarts, 2);
        assert_eq!(report.totals.max_p99_ns, 9_000);
        // (1000*10 + 3000*5) / 15
        assert_eq!(report.totals.mean_p50_ns, 1_666);
        assert_eq!(report.totals.page_outs, 2);
    }

    #[test]
    fn render_shows_busiest_and_troubled_slots() {
        let mut trace = TraceDb::default();
        for slot in 0..20 {
            trace.fleet.insert(row(slot, 100 - u64::from(slot), 100));
        }
        // Slot 19 is the least busy but restarted — it must still show.
        trace.fleet.insert(FleetRow {
            restarts: 1,
            ..row(20, 1, 1)
        });
        let report = FleetReport::from_trace(&trace);
        let text = report.render(5);
        assert!(text.contains("fleet: 21 slot(s)"));
        assert!(text.contains("6 of 21 slot(s)"));
        let json = report.to_json();
        assert!(json.contains("\"slots\": 21"));
        let opens = json.matches('{').count() + json.matches('[').count();
        let closes = json.matches('}').count() + json.matches(']').count();
        assert_eq!(opens, closes);
    }

    #[test]
    fn empty_trace_renders_a_note() {
        let report = FleetReport::from_trace(&TraceDb::default());
        assert!(report.is_empty());
        assert!(report.render(10).contains("no fleet table"));
    }
}
