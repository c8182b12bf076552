//! AEX correlation analysis (§4.1.4).
//!
//! Traced AEXs let the analyser separate slow *calls* from slow
//! *environments*: "multiple AEX in short succession will delay an ecall
//! significantly while not being an issue with the ecall itself. Such
//! bursts of interruption can be caused by high system load or other
//! external factors", e.g. a high interrupt rate on the enclave's core —
//! the fix is pinning, not call restructuring.

use crate::events::{CallKind, CallRef};

use super::parents::{CallInstance, Instances};
use super::Analyzer;

/// Duration impact of AEXs on one ecall: compares instances that took
/// AEXs against undisturbed ones.
#[derive(Debug, Clone, PartialEq)]
pub struct AexImpact {
    /// The affected ecall.
    pub call: CallRef,
    /// Its symbol name.
    pub name: String,
    /// Instances interrupted by at least one AEX.
    pub interrupted: usize,
    /// Undisturbed instances.
    pub undisturbed: usize,
    /// Mean duration of interrupted instances (ns).
    pub mean_interrupted_ns: f64,
    /// Mean duration of undisturbed instances (ns).
    pub mean_undisturbed_ns: f64,
    /// Mean AEX count over the interrupted instances.
    pub mean_aex: f64,
}

impl AexImpact {
    /// Extra time per call attributable to the environment, as a ratio.
    pub fn slowdown(&self) -> f64 {
        if self.mean_undisturbed_ns == 0.0 {
            0.0
        } else {
            self.mean_interrupted_ns / self.mean_undisturbed_ns
        }
    }
}

/// A cluster of AEXs in short succession on one thread — the "burst of
/// interruption" signature of external interference.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AexBurst {
    /// Thread whose execution was interrupted.
    pub thread: u64,
    /// Time of the first AEX of the burst.
    pub start_ns: u64,
    /// Time of the last AEX of the burst.
    pub end_ns: u64,
    /// AEXs in the burst.
    pub count: usize,
}

/// Computes per-ecall AEX duration impact. Only calls observed both with
/// and without AEXs are reported (otherwise there is nothing to compare),
/// sorted by descending slowdown.
pub fn aex_impact(instances: &Instances) -> Vec<AexImpact> {
    // Summed wide: durations and AEX counts near `u64::MAX` must not
    // overflow.
    let mean = |v: &[&CallInstance], f: fn(&CallInstance) -> u64| {
        v.iter().map(|&i| u128::from(f(i))).sum::<u128>() as f64 / v.len() as f64
    };
    let mut out = Vec::new();
    for call in instances.calls().filter(|c| c.kind == CallKind::Ecall) {
        let (interrupted, undisturbed): (Vec<_>, Vec<_>) =
            instances.of_call(call).partition(|i| i.aex_count > 0);
        if interrupted.is_empty() || undisturbed.is_empty() {
            continue;
        }
        out.push(AexImpact {
            call,
            name: instances.name(call).into_owned(),
            interrupted: interrupted.len(),
            undisturbed: undisturbed.len(),
            mean_interrupted_ns: mean(&interrupted, |i| i.duration_ns),
            mean_undisturbed_ns: mean(&undisturbed, |i| i.duration_ns),
            mean_aex: mean(&interrupted, |i| i.aex_count),
        });
    }
    out.sort_by(|a, b| {
        b.slowdown()
            .partial_cmp(&a.slowdown())
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    out
}

/// Finds per-thread AEX bursts: at least `min_count` AEXs where each
/// follows the previous within `window_ns`. Requires
/// [`AexMode::Trace`](crate::AexMode::Trace) traces.
pub fn aex_bursts(analyzer: &Analyzer<'_>, window_ns: u64, min_count: usize) -> Vec<AexBurst> {
    use std::collections::BTreeMap;
    let mut per_thread: BTreeMap<u64, Vec<u64>> = BTreeMap::new();
    for row in analyzer.trace().aex.iter() {
        per_thread.entry(row.thread).or_default().push(row.time_ns);
    }
    let mut bursts = Vec::new();
    for (thread, mut times) in per_thread {
        times.sort_unstable();
        let mut start = 0usize;
        for i in 1..=times.len() {
            let broke = i == times.len() || times[i] - times[i - 1] > window_ns;
            if broke {
                let count = i - start;
                if count >= min_count {
                    bursts.push(AexBurst {
                        thread,
                        start_ns: times[start],
                        end_ns: times[i - 1],
                        count,
                    });
                }
                start = i;
            }
        }
    }
    bursts
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::events::{AexRow, EcallRow};
    use crate::trace::TraceDb;
    use sim_core::HwProfile;

    fn ecall(idx: u32, start: u64, dur: u64, aex: u64) -> EcallRow {
        EcallRow {
            thread: 0,
            enclave: 1,
            call_index: idx,
            start_ns: start,
            end_ns: start + dur,
            parent_ocall: None,
            aex_count: aex,
            failed: false,
        }
    }

    #[test]
    fn impact_separates_interrupted_from_undisturbed() {
        let mut trace = TraceDb::default();
        let mut t = 0;
        for k in 0..20 {
            // Every 4th instance takes 2 AEXs and runs 3x longer.
            let (dur, aex) = if k % 4 == 0 { (30_000, 2) } else { (10_000, 0) };
            trace.ecalls.insert(ecall(0, t, dur, aex));
            t += 50_000;
        }
        let analyzer = Analyzer::new(&trace, HwProfile::Unpatched.cost_model());
        let impact = aex_impact(&analyzer.instances());
        assert_eq!(impact.len(), 1);
        let i = &impact[0];
        assert_eq!(i.interrupted, 5);
        assert_eq!(i.undisturbed, 15);
        assert!((i.slowdown() - 3.0).abs() < 1e-9, "{}", i.slowdown());
        assert!((i.mean_aex - 2.0).abs() < 1e-9);
    }

    #[test]
    fn impact_skips_calls_without_both_populations() {
        let mut trace = TraceDb::default();
        trace.ecalls.insert(ecall(0, 0, 5_000, 0));
        trace.ecalls.insert(ecall(0, 10_000, 5_000, 0));
        trace.ecalls.insert(ecall(1, 20_000, 5_000, 3));
        let analyzer = Analyzer::new(&trace, HwProfile::Unpatched.cost_model());
        assert!(aex_impact(&analyzer.instances()).is_empty());
    }

    #[test]
    fn bursts_group_by_gap_and_thread() {
        let mut trace = TraceDb::default();
        let mut aex = |thread: u64, time_ns: u64| {
            trace.aex.insert(AexRow {
                thread,
                enclave: 1,
                time_ns,
                during_ecall: None,
                cause: None,
            });
        };
        // Thread 0: a 4-AEX burst (gaps 50 us) then an isolated AEX.
        for t in [0u64, 50_000, 100_000, 150_000, 5_000_000] {
            aex(0, t);
        }
        // Thread 1: regular timer ticks far apart: no burst.
        for k in 0..5u64 {
            aex(1, k * 4_000_000);
        }
        let analyzer = Analyzer::new(&trace, HwProfile::Unpatched.cost_model());
        let bursts = aex_bursts(&analyzer, 100_000, 3);
        assert_eq!(bursts.len(), 1, "{bursts:?}");
        assert_eq!(bursts[0].thread, 0);
        assert_eq!(bursts[0].count, 4);
        assert_eq!(bursts[0].start_ns, 0);
        assert_eq!(bursts[0].end_ns, 150_000);
    }

    #[test]
    fn unordered_aex_rows_are_handled() {
        let mut trace = TraceDb::default();
        for t in [150_000u64, 0, 100_000, 50_000] {
            trace.aex.insert(AexRow {
                thread: 0,
                enclave: 1,
                time_ns: t,
                during_ecall: None,
                cause: None,
            });
        }
        let analyzer = Analyzer::new(&trace, HwProfile::Unpatched.cost_model());
        let bursts = aex_bursts(&analyzer, 100_000, 4);
        assert_eq!(bursts.len(), 1);
    }
}
