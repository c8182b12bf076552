//! Problem detection (§4.3.2): the SGX-specific performance anti-patterns
//! of §3 and their mitigation recommendations (Table 1).

use std::collections::BTreeMap;
use std::fmt;

use crate::events::{CallKind, CallRef};

use super::parents::Instances;
use super::report::Totals;
use super::stats::CallStats;
use super::Analyzer;

/// The problem classes of Table 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Problem {
    /// Short Identical Successive Calls (§3.1).
    Sisc,
    /// Short Different Successive Calls (§3.2).
    Sdsc,
    /// Short Nested Calls (§3.3).
    Snc,
    /// Short Synchronisation Calls (§3.4).
    Ssc,
    /// EPC paging (§3.5).
    Paging,
    /// Permissive enclave interface (§3.6).
    Interface,
    /// Enclave-lost recovery cost (supervisor restarts, warm-up replay).
    Recovery,
    /// Concurrency hazard found by the race analyses (`sgxperf races`).
    Concurrency,
}

impl fmt::Display for Problem {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Problem::Sisc => "short identical successive calls (SISC)",
            Problem::Sdsc => "short different successive calls (SDSC)",
            Problem::Snc => "short nested calls (SNC)",
            Problem::Ssc => "short synchronisation calls (SSC)",
            Problem::Paging => "EPC paging",
            Problem::Interface => "permissive enclave interface",
            Problem::Recovery => "enclave-lost recovery cost",
            Problem::Concurrency => "concurrency hazard",
        })
    }
}

/// A concrete mitigation recommendation (Table 1 solutions).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Recommendation {
    /// Batch successive executions of the same call into one transition.
    BatchCalls {
        /// The call to batch (it is its own indirect parent).
        with: String,
    },
    /// Merge different successive calls into a single call.
    MergeCalls {
        /// The indirect parent to merge with.
        with: String,
    },
    /// Move the calling function inside the enclave (no extra security
    /// risk, but grows the TCB).
    MoveCallerIntoEnclave,
    /// Move the called function outside the enclave (requires a security
    /// evaluation — it may handle sensitive data).
    MoveCallerOutOfEnclave,
    /// Execute the nested call before its parent starts.
    ReorderBeforeParent,
    /// Execute the nested call after its parent ends.
    ReorderAfterParent,
    /// Duplicate the (short) ocall's functionality inside the enclave
    /// (grows the TCB).
    DuplicateInsideEnclave,
    /// Replace sleep-based locking with hybrid spin-then-sleep locks or
    /// lock-free data structures.
    HybridSynchronisation,
    /// Reduce memory usage / pre-load pages before the ecall / use an
    /// alternative in-enclave memory management scheme.
    MitigatePaging,
    /// Declare the ecall private; it was only ever called during ocalls.
    MakePrivate {
        /// The ocalls that must then `allow()` it.
        allow_from: Vec<String>,
    },
    /// Shrink an ocall's `allow()` list to the ecalls actually used.
    RestrictAllowedEcalls {
        /// Declared-but-never-used ecalls to remove.
        remove: Vec<String>,
    },
    /// Review `user_check` pointer parameters for missing validation.
    ReviewUserCheck {
        /// The flagged parameter names.
        params: Vec<String>,
    },
    /// Serve the call switchlessly (`transition_using_threads`): worker
    /// threads polling a shared ring replace the enclave transition.
    UseSwitchless,
    /// Shrink the state re-established by supervisor warm-up hooks after an
    /// enclave loss (e.g. seal state instead of recomputing it): replay
    /// dominates the mean time to recovery.
    ReduceRecoveryState,
    /// Guard every access to a shared cell with one lock (or order the
    /// accesses through spawn/join): the happens-before analysis found a
    /// data race.
    FixDataRace {
        /// The racing shared cell.
        cell: String,
    },
    /// Impose a global lock-acquisition order: the lock-order graph has a
    /// cycle (potential deadlock).
    FixLockOrder {
        /// The locks along the cycle.
        cycle: Vec<String>,
    },
    /// Release the lock before the ocall (or move the ocall out of the
    /// critical section): holding it across the boundary invites §3.4
    /// re-entrancy deadlocks.
    AvoidLockAcrossOcall {
        /// The ocall crossed while holding a lock.
        ocall: String,
    },
}

impl fmt::Display for Recommendation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Recommendation::BatchCalls { with } => write!(f, "batch successive calls to {with}"),
            Recommendation::MergeCalls { with } => write!(f, "merge with preceding call {with}"),
            Recommendation::MoveCallerIntoEnclave => {
                f.write_str("move the calling function inside the enclave")
            }
            Recommendation::MoveCallerOutOfEnclave => f.write_str(
                "move the calling function outside the enclave (needs security evaluation)",
            ),
            Recommendation::ReorderBeforeParent => {
                f.write_str("reorder the call to execute before its parent")
            }
            Recommendation::ReorderAfterParent => {
                f.write_str("reorder the call to execute after its parent")
            }
            Recommendation::DuplicateInsideEnclave => {
                f.write_str("duplicate the functionality inside the enclave (grows TCB)")
            }
            Recommendation::HybridSynchronisation => {
                f.write_str("use hybrid spin-then-sleep locks or lock-free data structures")
            }
            Recommendation::MitigatePaging => f.write_str(
                "reduce enclave memory usage, pre-load pages before ecalls, or manage memory \
                 inside the enclave instead of relying on SGX paging",
            ),
            Recommendation::MakePrivate { allow_from } => write!(
                f,
                "declare this ecall private and allow() it from: {}",
                allow_from.join(", ")
            ),
            Recommendation::RestrictAllowedEcalls { remove } => write!(
                f,
                "remove never-used ecalls from the allow() list: {}",
                remove.join(", ")
            ),
            Recommendation::ReviewUserCheck { params } => write!(
                f,
                "review user_check pointer parameter(s): {}",
                params.join(", ")
            ),
            Recommendation::UseSwitchless => f.write_str(
                "mark the call switchless (transition_using_threads) so ring workers serve it \
                 without a transition",
            ),
            Recommendation::ReduceRecoveryState => f.write_str(
                "reduce the state replayed after an enclave loss (seal state instead of \
                 recomputing it in warm-up hooks)",
            ),
            Recommendation::FixDataRace { cell } => write!(
                f,
                "guard every access to `{cell}` with one mutex, or order the accesses with \
                 thread spawn/join"
            ),
            Recommendation::FixLockOrder { cycle } => write!(
                f,
                "impose a global acquisition order on locks: {}",
                cycle.join(", ")
            ),
            Recommendation::AvoidLockAcrossOcall { ocall } => write!(
                f,
                "release the lock before `{ocall}`, or move the ocall out of the critical \
                 section"
            ),
        }
    }
}

/// Recommendation priority (§4.3.2): lower is to be evaluated first.
/// Reordering does not grow the TCB, so it comes before moving/duplicating;
/// moving code *out* of the enclave needs a security evaluation and comes
/// last among the performance recommendations.
pub type Priority = u8;

/// One finding: a problem on a call with a recommendation and evidence.
#[derive(Debug, Clone, PartialEq)]
pub struct Detection {
    /// The call the finding is about.
    pub target: CallRef,
    /// The call's symbol name.
    pub name: String,
    /// The detected problem class.
    pub problem: Problem,
    /// The suggested mitigation.
    pub recommendation: Recommendation,
    /// Human-readable evidence (counts, ratios).
    pub evidence: String,
    /// Evaluation priority.
    pub priority: Priority,
}

impl fmt::Display for Detection {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[P{}] {} `{}`: {} — {} ({})",
            self.priority, self.problem, self.name, self.recommendation, self.evidence, self.target
        )
    }
}

const PRIO_CORRECTNESS: Priority = 1;
const PRIO_REORDER: Priority = 1;
const PRIO_SWITCHLESS: Priority = 2;
const PRIO_BATCH_MERGE: Priority = 2;
const PRIO_SYNC: Priority = 2;
const PRIO_PAGING: Priority = 2;
const PRIO_RECOVERY: Priority = 2;
const PRIO_DUP_MOVE_IN: Priority = 3;
const PRIO_MOVE_OUT: Priority = 4;
pub(crate) const PRIO_SECURITY: Priority = 5;

// The detection weights: the paper's values, "obtained through
// experimentation" (§4.3.2).

/// Equation 1 (move/duplicate): fraction of calls shorter than 1 µs.
const MOVE_ALPHA: f64 = 0.35;
/// Equation 1: fraction of calls shorter than 5 µs.
const MOVE_BETA: f64 = 0.50;
/// Equation 1: fraction of calls shorter than 10 µs.
const MOVE_GAMMA: f64 = 0.65;
/// Equation 2 (reorder): weight of calls within 10 µs of the parent's
/// start/end.
const REORDER_ALPHA: f64 = 1.00;
/// Equation 2: weight of calls within 10–20 µs.
const REORDER_BETA: f64 = 0.75;
/// Equation 2: detection threshold.
const REORDER_GAMMA: f64 = 0.50;
/// Equation 3 (merge/batch): weight of indirect-parent gaps < 1 µs.
const MERGE_ALPHA: f64 = 1.00;
/// Equation 3: weight of gaps in 1–5 µs.
const MERGE_BETA: f64 = 0.75;
/// Equation 3: weight of gaps in 5–10 µs.
const MERGE_GAMMA: f64 = 0.50;
/// Equation 3: weight of gaps in 10–20 µs.
const MERGE_DELTA: f64 = 0.35;
/// Equation 3: detection threshold.
const MERGE_EPSILON: f64 = 0.35;
/// Equation 3: minimum fraction of instances with this indirect parent.
const MERGE_LAMBDA: f64 = 0.35;
/// SSC: a sleep shorter than this many µs counts as "short". A sleep
/// below ~4 transition times means the lock hold was far shorter than the
/// two ocalls the contention cost.
const SSC_SHORT_US: u64 = 20;
/// SSC: minimum fraction of short sleeps to flag the problem.
const SSC_FRACTION: f64 = 0.5;
/// Minimum instances of a call before any heuristic fires (avoids
/// recommendations from single-digit samples).
const MIN_CALLS: usize = 8;
/// Switchless: minimum executions before a call counts as
/// "high-frequency" (worker threads only pay off under sustained load).
const SWITCHLESS_MIN_CALLS: usize = 32;
/// Switchless: minimum fraction of adjusted durations under 10 µs.
const SWITCHLESS_FRACTION: f64 = 0.75;

/// Runs all performance detectors.
pub fn detect_all(
    analyzer: &Analyzer<'_>,
    instances: &Instances,
    call_stats: &[(CallRef, CallStats)],
) -> Vec<Detection> {
    let mut out = Vec::new();
    out.extend(detect_move_duplicate(call_stats, instances));
    out.extend(detect_switchless(analyzer, instances, call_stats));
    out.extend(detect_reorder(instances));
    out.extend(detect_merge_batch(instances));
    out.extend(detect_ssc(analyzer, instances));
    out.extend(detect_paging(analyzer));
    out.extend(detect_recovery(analyzer));
    out.extend(detect_concurrency(analyzer));
    out
}

/// Equation 1: moving/duplication opportunities from short mean execution
/// times. For ecalls the mitigation is moving the caller across the
/// boundary (SISC/SDSC family); for nested ocalls it is duplicating the
/// functionality inside the enclave (SNC family).
fn detect_move_duplicate(
    call_stats: &[(CallRef, CallStats)],
    instances: &Instances,
) -> Vec<Detection> {
    let mut out = Vec::new();
    for (call, stats) in call_stats {
        if stats.count < MIN_CALLS {
            continue;
        }
        let hit = stats.frac_under_1us >= MOVE_ALPHA
            || stats.frac_under_5us >= MOVE_BETA
            || stats.frac_under_10us >= MOVE_GAMMA;
        if !hit {
            continue;
        }
        let evidence = format!(
            "{} calls; {:.1}% < 1us, {:.1}% < 5us, {:.1}% < 10us (transition-adjusted)",
            stats.count,
            stats.frac_under_1us * 100.0,
            stats.frac_under_5us * 100.0,
            stats.frac_under_10us * 100.0,
        );
        let name = instances.name(*call).into_owned();
        // Identical-successor ratio decides SISC vs SDSC for ecalls.
        let self_parent = instances
            .of_call(*call)
            .filter(|i| {
                i.indirect_parent
                    .is_some_and(|p| instances.all[p].call == *call)
            })
            .count();
        let mostly_identical = self_parent * 2 >= stats.count;
        match call.kind {
            CallKind::Ecall => {
                out.push(Detection {
                    target: *call,
                    name: name.clone(),
                    problem: if mostly_identical {
                        Problem::Sisc
                    } else {
                        Problem::Sdsc
                    },
                    recommendation: Recommendation::MoveCallerIntoEnclave,
                    evidence: evidence.clone(),
                    priority: PRIO_DUP_MOVE_IN,
                });
                out.push(Detection {
                    target: *call,
                    name,
                    problem: if mostly_identical {
                        Problem::Sisc
                    } else {
                        Problem::Sdsc
                    },
                    recommendation: Recommendation::MoveCallerOutOfEnclave,
                    evidence,
                    priority: PRIO_MOVE_OUT,
                });
            }
            CallKind::Ocall => {
                out.push(Detection {
                    target: *call,
                    name,
                    problem: Problem::Snc,
                    recommendation: Recommendation::DuplicateInsideEnclave,
                    evidence,
                    priority: PRIO_DUP_MOVE_IN,
                });
            }
        }
    }
    out
}

/// Switchless candidates: calls frequent and short enough that the
/// transition dominates, so serving them from worker threads polling a
/// shared ring (`transition_using_threads`) pays off. Unlike moving or
/// duplicating code this is a pure configuration change — no TCB growth,
/// no security evaluation — so it shares the batching priority tier.
fn detect_switchless(
    analyzer: &Analyzer<'_>,
    instances: &Instances,
    call_stats: &[(CallRef, CallStats)],
) -> Vec<Detection> {
    let cost = analyzer.cost_model();
    let mut out = Vec::new();
    for (call, stats) in call_stats {
        if stats.count < SWITCHLESS_MIN_CALLS {
            continue;
        }
        if stats.frac_under_10us < SWITCHLESS_FRACTION {
            continue;
        }
        let saving = match call.kind {
            CallKind::Ecall => cost.switchless_ecall_saving(),
            CallKind::Ocall => cost.switchless_ocall_saving(),
        };
        let total = sim_core::Nanos::from_nanos(saving.as_nanos() * stats.count as u64);
        out.push(Detection {
            target: *call,
            name: instances.name(*call).into_owned(),
            problem: if call.kind == CallKind::Ecall {
                Problem::Sdsc
            } else {
                Problem::Snc
            },
            recommendation: Recommendation::UseSwitchless,
            evidence: format!(
                "{} calls, {:.1}% shorter than 10us adjusted; switchless saves ~{} per \
                 call (~{} over the trace)",
                stats.count,
                stats.frac_under_10us * 100.0,
                saving,
                total
            ),
            priority: PRIO_SWITCHLESS,
        });
    }
    out
}

/// Equation 2: reordering opportunities — nested calls clustered at the
/// start or end of their direct parent.
fn detect_reorder(instances: &Instances) -> Vec<Detection> {
    // Group nested instances by child call.
    #[derive(Default)]
    struct Acc {
        total: usize,
        start_10: usize,
        start_20: usize,
        end_10: usize,
        end_20: usize,
    }
    let mut groups: BTreeMap<CallRef, Acc> = BTreeMap::new();
    for i in &instances.all {
        let Some((pkind, prow)) = i.direct_parent else {
            continue;
        };
        let Some(parent) = instances.by_row(pkind, prow) else {
            continue;
        };
        let acc = groups.entry(i.call).or_default();
        acc.total += 1;
        let from_start = i.start_ns.saturating_sub(parent.start_ns);
        let to_end = parent.end_ns.saturating_sub(i.end_ns);
        if from_start < 10_000 {
            acc.start_10 += 1;
        } else if from_start < 20_000 {
            acc.start_20 += 1;
        }
        if to_end < 10_000 {
            acc.end_10 += 1;
        } else if to_end < 20_000 {
            acc.end_20 += 1;
        }
    }
    let mut out = Vec::new();
    for (call, acc) in groups {
        if acc.total < MIN_CALLS {
            continue;
        }
        let total = acc.total as f64;
        let score_start = acc.start_10 as f64 / total * REORDER_ALPHA
            + acc.start_20 as f64 / total * REORDER_BETA;
        let score_end =
            acc.end_10 as f64 / total * REORDER_ALPHA + acc.end_20 as f64 / total * REORDER_BETA;
        let name = instances.name(call).into_owned();
        if score_start >= REORDER_GAMMA {
            out.push(Detection {
                target: call,
                name: name.clone(),
                problem: Problem::Snc,
                recommendation: Recommendation::ReorderBeforeParent,
                evidence: format!(
                    "{}/{} nested executions within 10us of parent start (score {:.2})",
                    acc.start_10, acc.total, score_start
                ),
                priority: PRIO_REORDER,
            });
        }
        if score_end >= REORDER_GAMMA {
            out.push(Detection {
                target: call,
                name,
                problem: Problem::Snc,
                recommendation: Recommendation::ReorderAfterParent,
                evidence: format!(
                    "{}/{} nested executions within 10us of parent end (score {:.2})",
                    acc.end_10, acc.total, score_end
                ),
                priority: PRIO_REORDER,
            });
        }
    }
    out
}

/// Equation 3: merging/batching opportunities from indirect-parent gaps.
/// Batching is the special case where the call is its own indirect parent.
fn detect_merge_batch(instances: &Instances) -> Vec<Detection> {
    #[derive(Default)]
    struct Acc {
        pairs: usize,
        gap_1: usize,
        gap_5: usize,
        gap_10: usize,
        gap_20: usize,
    }
    let mut pair_stats: BTreeMap<(CallRef, CallRef), Acc> = BTreeMap::new();
    for i in &instances.all {
        let Some(p) = i.indirect_parent else { continue };
        let parent = &instances.all[p];
        let acc = pair_stats.entry((i.call, parent.call)).or_default();
        acc.pairs += 1;
        let gap = i.start_ns.saturating_sub(parent.end_ns);
        if gap < 1_000 {
            acc.gap_1 += 1;
        } else if gap < 5_000 {
            acc.gap_5 += 1;
        } else if gap < 10_000 {
            acc.gap_10 += 1;
        } else if gap < 20_000 {
            acc.gap_20 += 1;
        }
    }
    let mut out = Vec::new();
    for ((child, parent), acc) in pair_stats {
        let child_total = instances.of_call(child).len();
        if child_total < MIN_CALLS {
            continue;
        }
        // λ: the parent must be this call's indirect parent often enough.
        if (acc.pairs as f64) < MERGE_LAMBDA * child_total as f64 {
            continue;
        }
        let pairs = acc.pairs as f64;
        let score = acc.gap_1 as f64 / pairs * MERGE_ALPHA
            + acc.gap_5 as f64 / pairs * MERGE_BETA
            + acc.gap_10 as f64 / pairs * MERGE_GAMMA
            + acc.gap_20 as f64 / pairs * MERGE_DELTA;
        if score < MERGE_EPSILON {
            continue;
        }
        let child_name = instances.name(child).into_owned();
        let parent_name = instances.name(parent).into_owned();
        let evidence = format!(
            "{} of {} executions follow `{}` closely (gap score {:.2})",
            acc.pairs, child_total, parent_name, score
        );
        if child == parent {
            out.push(Detection {
                target: child,
                name: child_name,
                problem: Problem::Sisc,
                recommendation: Recommendation::BatchCalls { with: parent_name },
                evidence,
                priority: PRIO_BATCH_MERGE,
            });
        } else {
            out.push(Detection {
                target: child,
                name: child_name,
                problem: Problem::Sdsc,
                recommendation: Recommendation::MergeCalls { with: parent_name },
                evidence,
                priority: PRIO_BATCH_MERGE,
            });
        }
    }
    out
}

/// §3.4: short synchronisation calls — sleeps that are so short that the
/// transitions dominate; recommend hybrid locks.
fn detect_ssc(analyzer: &Analyzer<'_>, instances: &Instances) -> Vec<Detection> {
    let trace = analyzer.trace();
    let mut sleeps_per_ocall: BTreeMap<CallRef, (usize, usize)> = BTreeMap::new();
    for s in trace.sync.iter() {
        if !s.sleep {
            continue;
        }
        let Some(row) = trace.ocalls.get(eventdb::RowId(s.ocall_row as usize)) else {
            continue;
        };
        let call = row.call_ref();
        let duration = instances
            .by_row(CallKind::Ocall, s.ocall_row)
            .map(|i| i.duration_ns)
            .unwrap_or(0);
        let entry = sleeps_per_ocall.entry(call).or_default();
        entry.0 += 1;
        if duration < SSC_SHORT_US * 1_000 {
            entry.1 += 1;
        }
    }
    let mut out = Vec::new();
    for (call, (total, short)) in sleeps_per_ocall {
        if total < MIN_CALLS {
            continue;
        }
        if (short as f64) < SSC_FRACTION * total as f64 {
            continue;
        }
        out.push(Detection {
            target: call,
            name: instances.name(call).into_owned(),
            problem: Problem::Ssc,
            recommendation: Recommendation::HybridSynchronisation,
            evidence: format!(
                "{short} of {total} sleep ocalls shorter than {SSC_SHORT_US}us — lock hold \
                 times are shorter than a transition"
            ),
            priority: PRIO_SYNC,
        });
    }
    out
}

/// §3.5: paging events observed at all mean the enclave's working set
/// exceeded the (shared) EPC.
fn detect_paging(analyzer: &Analyzer<'_>) -> Vec<Detection> {
    let trace = analyzer.trace();
    let mut per_enclave: BTreeMap<u32, (usize, usize)> = BTreeMap::new();
    for p in trace.paging.iter() {
        let entry = per_enclave.entry(p.enclave).or_default();
        if p.out {
            entry.0 += 1;
        } else {
            entry.1 += 1;
        }
    }
    let mut out = Vec::new();
    for (enclave, (outs, ins)) in per_enclave {
        if outs == 0 && ins == 0 {
            continue;
        }
        // Page-ins during creation are normal; only report enclaves with
        // actual evictions or faulted re-loads.
        if outs == 0 {
            continue;
        }
        let target = CallRef {
            enclave,
            kind: CallKind::Ecall,
            index: 0,
        };
        out.push(Detection {
            target,
            name: format!("enclave{enclave}"),
            problem: Problem::Paging,
            recommendation: Recommendation::MitigatePaging,
            evidence: format!("{outs} page-outs and {ins} page-ins observed"),
            priority: PRIO_PAGING,
        });
    }
    out
}

/// Enclave-lost recovery: when warm-up replay accounts for most of the
/// time spent recovering, the supervisor's restart policy is paying for
/// state that could be sealed or shrunk.
fn detect_recovery(analyzer: &Analyzer<'_>) -> Vec<Detection> {
    let (totals, lost_enclave) = Totals::of_lifecycle(analyzer.trace());
    let Some(enclave) = lost_enclave else {
        return Vec::new();
    };
    let (restarts, replay_ns, recovery_ns) =
        (totals.restarts, totals.replay_ns, totals.recovery_ns);
    if restarts == 0 || recovery_ns == 0 || replay_ns.saturating_mul(2) <= recovery_ns {
        return Vec::new();
    }
    vec![Detection {
        target: CallRef {
            enclave,
            kind: CallKind::Ecall,
            index: 0,
        },
        name: format!("enclave{enclave}"),
        problem: Problem::Recovery,
        recommendation: Recommendation::ReduceRecoveryState,
        evidence: format!(
            "{restarts} restart(s); warm-up replay took {replay_ns} ns of {recovery_ns} ns \
             total recovery ({:.0}% of MTTR)",
            replay_ns as f64 / recovery_ns as f64 * 100.0
        ),
        priority: PRIO_RECOVERY,
    }]
}

/// Concurrency hazards from the race analyses (`sgxperf races`): data
/// races, lock-order cycles and locks held across ocalls surface in the
/// regular report too, at the highest priority — a correctness bug
/// trumps any performance tuning. Runs only when the trace carries a
/// sync-event table (recording with `track_syncev` opted in).
fn detect_concurrency(analyzer: &Analyzer<'_>) -> Vec<Detection> {
    use super::races::{self, RaceKind};
    let trace = analyzer.trace();
    if trace.syncev.is_empty() {
        return Vec::new();
    }
    // No single ecall/ocall owns a sync finding; anchor on the first
    // observed enclave (the Paging/Recovery precedent for whole-enclave
    // findings).
    let enclave = trace.enclaves.iter().map(|e| e.enclave).next().unwrap_or(0);
    let target = CallRef {
        enclave,
        kind: CallKind::Ecall,
        index: 0,
    };
    races::analyze(trace)
        .findings
        .into_iter()
        .map(|f| {
            let recommendation = match &f.kind {
                RaceKind::DataRace { cell, .. } | RaceKind::LocksetSuspicion { cell, .. } => {
                    Recommendation::FixDataRace { cell: cell.clone() }
                }
                RaceKind::LockOrderCycle { cycle, .. } => Recommendation::FixLockOrder {
                    cycle: cycle.clone(),
                },
                RaceKind::LockAcrossOcall { ocall, .. } => Recommendation::AvoidLockAcrossOcall {
                    ocall: ocall.clone(),
                },
            };
            Detection {
                target,
                name: format!("enclave{enclave}"),
                problem: Problem::Concurrency,
                recommendation,
                evidence: format!("{}: {}", f.code, f.message),
                priority: PRIO_CORRECTNESS,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::events::{EcallRow, LifecycleRow, OcallRow, PagingRow, SymbolRow, SyncRow};
    use crate::trace::TraceDb;
    use sim_core::HwProfile;

    fn analyzer(trace: &TraceDb) -> Analyzer<'_> {
        Analyzer::new(trace, HwProfile::Unpatched.cost_model())
    }

    fn symbol(trace: &mut TraceDb, is_ecall: bool, index: u32, name: &str) {
        trace.symbols.insert(SymbolRow {
            enclave: 1,
            kind_is_ecall: is_ecall,
            index,
            name: name.into(),
            public: true,
            allowed_ecalls: vec![],
            user_check_params: vec![],
        });
    }

    /// Many short successive identical ecalls trigger batching (SISC) and
    /// move recommendations.
    #[test]
    fn sisc_batching_detected() {
        let mut trace = TraceDb::default();
        symbol(&mut trace, true, 0, "ecall_tiny");
        let mut t = 0;
        for _ in 0..100 {
            // 5 us call (under 1 us adjusted), 200 ns gap.
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
            t += 5_200;
        }
        let a = analyzer(&trace);
        let report_detections = detect_all(
            &a,
            &a.instances(),
            &super::super::stats::per_call_stats(&a.instances()),
        );
        let batch = report_detections
            .iter()
            .find(|d| matches!(d.recommendation, Recommendation::BatchCalls { .. }));
        assert!(batch.is_some(), "{report_detections:?}");
        assert_eq!(batch.unwrap().problem, Problem::Sisc);
        assert!(report_detections
            .iter()
            .any(|d| d.recommendation == Recommendation::MoveCallerIntoEnclave));
    }

    /// Alternating short calls trigger merging (SDSC).
    #[test]
    fn sdsc_merging_detected() {
        let mut trace = TraceDb::default();
        symbol(&mut trace, false, 0, "ocall_lseek");
        symbol(&mut trace, false, 1, "ocall_write");
        symbol(&mut trace, true, 0, "ecall_insert");
        let mut t = 0;
        for _ in 0..50 {
            // Parent ecall wrapping an lseek+write pair.
            let e_start = t;
            let row = trace.ecalls.len() as u64;
            t += 2_000;
            trace.ocalls.insert(OcallRow {
                thread: 0,
                enclave: 1,
                call_index: 0,
                start_ns: t,
                end_ns: t + 4_000,
                parent_ecall: Some(row),
                failed: false,
            });
            t += 4_300; // 300 ns gap
            trace.ocalls.insert(OcallRow {
                thread: 0,
                enclave: 1,
                call_index: 1,
                start_ns: t,
                end_ns: t + 17_000,
                parent_ecall: Some(row),
                failed: false,
            });
            t += 20_000;
            trace.ecalls.insert(EcallRow {
                thread: 0,
                enclave: 1,
                call_index: 0,
                start_ns: e_start,
                end_ns: t,
                parent_ocall: None,
                aex_count: 0,
                failed: false,
            });
            t += 1_000;
        }
        let a = analyzer(&trace);
        let inst = a.instances();
        let detections = detect_merge_batch(&inst);
        let merge = detections
            .iter()
            .find(|d| matches!(&d.recommendation, Recommendation::MergeCalls { with } if with == "ocall_lseek"));
        assert!(merge.is_some(), "{detections:?}");
        assert_eq!(merge.unwrap().problem, Problem::Sdsc);
        assert_eq!(merge.unwrap().name, "ocall_write");
    }

    /// Ocalls clustered at the start of their parent trigger reordering.
    #[test]
    fn snc_reorder_detected() {
        let mut trace = TraceDb::default();
        symbol(&mut trace, false, 0, "ocall_alloc");
        symbol(&mut trace, true, 0, "ecall_work");
        let mut t = 0;
        for _ in 0..20 {
            let row = trace.ecalls.len() as u64;
            trace.ocalls.insert(OcallRow {
                thread: 0,
                enclave: 1,
                call_index: 0,
                start_ns: t + 1_000, // 1 us after parent start
                end_ns: t + 3_000,
                parent_ecall: Some(row),
                failed: false,
            });
            trace.ecalls.insert(EcallRow {
                thread: 0,
                enclave: 1,
                call_index: 0,
                start_ns: t,
                end_ns: t + 100_000,
                parent_ocall: None,
                aex_count: 0,
                failed: false,
            });
            t += 110_000;
        }
        let a = analyzer(&trace);
        let detections = detect_reorder(&a.instances());
        assert!(
            detections
                .iter()
                .any(|d| d.recommendation == Recommendation::ReorderBeforeParent
                    && d.name == "ocall_alloc"),
            "{detections:?}"
        );
        // Priority: reorder comes before move/duplicate.
        assert_eq!(detections[0].priority, PRIO_REORDER);
    }

    /// High-frequency short calls also get the switchless recommendation,
    /// with the cost-model saving in the evidence.
    #[test]
    fn switchless_recommended_for_frequent_short_calls() {
        let mut trace = TraceDb::default();
        symbol(&mut trace, true, 0, "ecall_tiny");
        let mut t = 0;
        for _ in 0..100 {
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
            t += 5_200;
        }
        let a = analyzer(&trace);
        let inst = a.instances();
        let detections = detect_switchless(&a, &inst, &super::super::stats::per_call_stats(&inst));
        assert_eq!(detections.len(), 1, "{detections:?}");
        let d = &detections[0];
        assert_eq!(d.recommendation, Recommendation::UseSwitchless);
        assert_eq!(d.name, "ecall_tiny");
        assert_eq!(d.priority, PRIO_SWITCHLESS);
        assert!(d.evidence.contains("switchless saves"), "{}", d.evidence);
    }

    /// A short call below the switchless frequency floor stays quiet even
    /// though the generic move heuristics may still fire.
    #[test]
    fn switchless_needs_sustained_frequency() {
        let mut trace = TraceDb::default();
        symbol(&mut trace, true, 0, "ecall_rare");
        let mut t = 0;
        for _ in 0..10 {
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
            t += 5_200;
        }
        let a = analyzer(&trace);
        let inst = a.instances();
        let detections = detect_switchless(&a, &inst, &super::super::stats::per_call_stats(&inst));
        assert!(detections.is_empty(), "{detections:?}");
    }

    /// Long calls trigger nothing.
    #[test]
    fn long_calls_are_clean() {
        let mut trace = TraceDb::default();
        symbol(&mut trace, true, 0, "ecall_long");
        let mut t = 0;
        for _ in 0..50 {
            trace.ecalls.insert(EcallRow {
                thread: 0,
                enclave: 1,
                call_index: 0,
                start_ns: t,
                end_ns: t + 500_000, // 500 us
                parent_ocall: None,
                aex_count: 0,
                failed: false,
            });
            t += 600_000;
        }
        let a = analyzer(&trace);
        let inst = a.instances();
        let stats = super::super::stats::per_call_stats(&inst);
        let detections = detect_all(&a, &inst, &stats);
        assert!(detections.is_empty(), "{detections:?}");
    }

    /// Short sleeps under contention trigger the SSC hint.
    #[test]
    fn ssc_detected_for_short_sleeps() {
        let mut trace = TraceDb::default();
        symbol(
            &mut trace,
            false,
            0,
            "sgx_thread_wait_untrusted_event_ocall",
        );
        let mut t = 0;
        for i in 0..20 {
            let row = trace.ocalls.insert(OcallRow {
                thread: 0,
                enclave: 1,
                call_index: 0,
                start_ns: t,
                end_ns: t + 3_000, // 3 us sleep: shorter than a transition
                parent_ecall: None,
                failed: false,
            });
            trace.sync.insert(SyncRow {
                thread: 0,
                time_ns: t,
                sleep: true,
                target_thread: None,
                ocall_row: row.0 as u64,
            });
            t += 10_000 + i;
        }
        let a = analyzer(&trace);
        let detections = detect_ssc(&a, &a.instances());
        assert_eq!(detections.len(), 1, "{detections:?}");
        assert_eq!(detections[0].problem, Problem::Ssc);
        assert_eq!(
            detections[0].recommendation,
            Recommendation::HybridSynchronisation
        );
    }

    /// Page-outs trigger the paging mitigation hint; creation-only
    /// page-ins do not.
    #[test]
    fn paging_detected_only_with_evictions() {
        let mut trace = TraceDb::default();
        for i in 0..10 {
            trace.paging.insert(PagingRow {
                enclave: 1,
                out: false,
                vaddr: 0x1000 * i,
                time_ns: i,
            });
        }
        let a = analyzer(&trace);
        assert!(detect_paging(&a).is_empty());
        trace.paging.insert(PagingRow {
            enclave: 1,
            out: true,
            vaddr: 0x9000,
            time_ns: 99,
        });
        let a = analyzer(&trace);
        let detections = detect_paging(&a);
        assert_eq!(detections.len(), 1);
        assert_eq!(detections[0].problem, Problem::Paging);
    }

    fn lifecycle(trace: &mut TraceDb, stage: u8, attempt: u32, magnitude: u64, time_ns: u64) {
        trace.lifecycle.insert(LifecycleRow {
            enclave: 1,
            stage,
            thread: 0,
            attempt,
            magnitude,
            time_ns,
        });
    }

    /// Replay dominating the recovery time fires ReduceRecoveryState;
    /// rebuild-dominated recovery stays quiet.
    #[test]
    fn replay_dominated_recovery_detected() {
        let mut trace = TraceDb::default();
        lifecycle(&mut trace, 0, 0, 0, 1_000); // lost
        lifecycle(&mut trace, 1, 1, 10_000, 11_000); // rebuild: 10 us
        lifecycle(&mut trace, 2, 1, 80_000, 91_000); // replay: 80 us
        lifecycle(&mut trace, 4, 1, 100_000, 101_000); // recovered: 100 us MTTR
        let a = analyzer(&trace);
        let detections = detect_recovery(&a);
        assert_eq!(detections.len(), 1, "{detections:?}");
        let d = &detections[0];
        assert_eq!(d.problem, Problem::Recovery);
        assert_eq!(d.recommendation, Recommendation::ReduceRecoveryState);
        assert!(d.evidence.contains("1 restart"), "{}", d.evidence);

        // Same shape but replay is a sliver of the MTTR: no finding.
        let mut quiet = TraceDb::default();
        lifecycle(&mut quiet, 0, 0, 0, 1_000);
        lifecycle(&mut quiet, 1, 1, 80_000, 81_000);
        lifecycle(&mut quiet, 2, 1, 10_000, 91_000);
        lifecycle(&mut quiet, 4, 1, 100_000, 101_000);
        let a = analyzer(&quiet);
        assert!(detect_recovery(&a).is_empty());
    }

    /// Lifecycle magnitudes near `u64::MAX` saturate in the report's
    /// totals and in the recovery detector instead of overflowing, and a
    /// self-diff of such a trace stays neutral.
    #[test]
    fn lifecycle_sums_saturate() {
        use crate::analysis::diff::{DiffConfig, TraceDiff, Verdict};
        let huge = 1u64 << 63;
        let mut trace = TraceDb::default();
        lifecycle(&mut trace, 0, 0, 0, 1_000); // lost
        for attempt in 1..=2 {
            lifecycle(&mut trace, 1, attempt, huge, 2_000); // rebuild
            lifecycle(&mut trace, 2, attempt, huge, 3_000); // replay
        }
        lifecycle(&mut trace, 4, 2, 5, 4_000); // recovered
        let report = analyzer(&trace).analyze();
        let t = report.totals;
        assert_eq!(
            (t.restarts, t.rebuild_ns, t.replay_ns),
            (2, u64::MAX, u64::MAX)
        );
        assert!(report
            .detections
            .iter()
            .any(|d| d.problem == Problem::Recovery));
        assert!(report.render().contains("2 restart(s)"));
        let diff = TraceDiff::compute(&trace, &trace, DiffConfig::default());
        assert_eq!(diff.verdict, Verdict::Neutral);
        assert_eq!(diff.exit_code(), 0);

        // Replay 2^63 of a u64::MAX recovery: the doubling saturates, and
        // replay is not more than half of it.
        let mut trace = TraceDb::default();
        lifecycle(&mut trace, 0, 0, 0, 1_000);
        lifecycle(&mut trace, 1, 1, 10, 2_000);
        lifecycle(&mut trace, 2, 1, huge, 3_000);
        lifecycle(&mut trace, 4, 1, u64::MAX, 4_000);
        assert!(detect_recovery(&analyzer(&trace)).is_empty());
    }

    /// A trace with racy sync events surfaces a top-priority concurrency
    /// detection; a sync-free trace does not run the analysis at all.
    #[test]
    fn concurrency_hazards_surface_in_detections() {
        use crate::events::SyncEvRow;
        use sim_core::syncev::SyncOp;

        let mut trace = TraceDb::default();
        assert!(detect_concurrency(&analyzer(&trace)).is_empty());
        for thread in [0u64, 1] {
            trace.syncev.insert(SyncEvRow {
                thread,
                op: SyncOp::SharedWrite.code(),
                object: Some(7),
                target: None,
                aux: 0,
                label: "counter".into(),
                time_ns: thread * 100,
            });
        }
        let a = analyzer(&trace);
        let detections = detect_concurrency(&a);
        assert_eq!(detections.len(), 1, "{detections:?}");
        let d = &detections[0];
        assert_eq!(d.problem, Problem::Concurrency);
        assert_eq!(d.priority, PRIO_CORRECTNESS);
        assert!(
            matches!(&d.recommendation, Recommendation::FixDataRace { cell } if cell == "counter"),
            "{d:?}"
        );
        assert!(d.evidence.contains("RACE-E001"), "{}", d.evidence);
    }

    /// Below the minimum sample size nothing fires. The sizes are literal
    /// so that each gate is pinned at its boundary: `MIN_CALLS − 1` short
    /// ecalls draw nothing and `MIN_CALLS` draw the move/duplicate pair
    /// (and batching); `SWITCHLESS_MIN_CALLS − 1` draw no switchless hint
    /// and `SWITCHLESS_MIN_CALLS` draw one.
    #[test]
    fn few_samples_do_not_fire() {
        let recommendations = |calls: u64| {
            let mut trace = TraceDb::default();
            symbol(&mut trace, true, 0, "ecall_tiny");
            for i in 0..calls {
                trace.ecalls.insert(EcallRow {
                    thread: 0,
                    enclave: 1,
                    call_index: 0,
                    start_ns: i * 6_000,
                    end_ns: i * 6_000 + 5_000,
                    parent_ocall: None,
                    aex_count: 0,
                    failed: false,
                });
            }
            let a = analyzer(&trace);
            let inst = a.instances();
            let stats = super::super::stats::per_call_stats(&inst);
            detect_all(&a, &inst, &stats)
                .into_iter()
                .map(|d| d.recommendation)
                .collect::<Vec<_>>()
        };
        assert!(recommendations(3).is_empty());
        assert!(recommendations(7).is_empty());
        assert_eq!(
            recommendations(8),
            [
                Recommendation::MoveCallerIntoEnclave,
                Recommendation::MoveCallerOutOfEnclave,
                Recommendation::BatchCalls {
                    with: "ecall_tiny".into()
                },
            ]
        );
        let switchless = |calls| {
            recommendations(calls)
                .iter()
                .filter(|r| **r == Recommendation::UseSwitchless)
                .count()
        };
        assert_eq!(switchless(31), 0);
        assert_eq!(switchless(32), 1);
    }
}
