//! The flattened call-instance view with direct and indirect parents
//! (Figure 4), grouped per call and named once per trace.
//!
//! *Direct* parents are logged by the event logger: an ecall E is the
//! direct parent of an ocall O iff O was called during E's execution (and
//! vice versa for nested ecalls). *Indirect* parents are derived here: the
//! previous completed call **of the same kind** that belongs to the **same
//! direct parent** (or, for top-level calls, the previous top-level call of
//! the same kind on the same thread).

use std::borrow::Cow;
use std::collections::{BTreeMap, HashMap};
use std::ops::Range;

use sim_core::CostModel;

use crate::events::{CallKind, CallRef};
use crate::trace::TraceDb;

/// One call occurrence with resolved parent links.
#[derive(Debug, Clone)]
pub struct CallInstance {
    /// Which call this is an instance of.
    pub call: CallRef,
    /// Row id in the source table (`ecalls` or `ocalls` depending on kind).
    pub row: u64,
    /// Issuing thread.
    pub thread: u64,
    /// Start timestamp (ns).
    pub start_ns: u64,
    /// End timestamp (ns).
    pub end_ns: u64,
    /// Raw duration (ns).
    pub duration_ns: u64,
    /// Duration with the transition overhead subtracted for ecalls
    /// (§4.1.2); equals `duration_ns` for ocalls.
    pub adjusted_ns: u64,
    /// Direct parent, as (kind, row id).
    pub direct_parent: Option<(CallKind, u64)>,
    /// Index (into [`Instances::all`]) of the indirect parent.
    pub indirect_parent: Option<usize>,
    /// AEXs observed during this call (ecalls only).
    pub aex_count: u64,
}

/// The call names of one trace: the first symbol row recorded for a call
/// names it; a call without one gets its positional name
/// (`enclave1/ecall#3`). The names are copied once, back to back, into
/// one buffer, so building the table allocates nothing per symbol.
#[derive(Debug, Default)]
pub(crate) struct CallNames {
    text: String,
    spans: HashMap<CallRef, Range<usize>>,
}

impl CallNames {
    /// Indexes the trace's symbol table.
    pub(crate) fn of(trace: &TraceDb) -> CallNames {
        let mut text = String::new();
        let mut spans = HashMap::with_capacity(trace.symbols.len());
        for s in trace.symbols.iter() {
            spans.entry(s.call_ref()).or_insert_with(|| {
                let start = text.len();
                text.push_str(&s.name);
                start..text.len()
            });
        }
        CallNames { text, spans }
    }

    /// The recorded name, if the trace has a symbol row for the call.
    pub(crate) fn recorded(&self, call: CallRef) -> Option<&str> {
        self.spans.get(&call).map(|span| &self.text[span.clone()])
    }

    /// The recorded name, falling back to the positional one.
    pub(crate) fn get(&self, call: CallRef) -> Cow<'_, str> {
        self.recorded(call)
            .map_or_else(|| Cow::Owned(call.to_string()), Cow::Borrowed)
    }
}

/// The instance view over a whole trace.
#[derive(Debug, Default)]
pub struct Instances {
    /// All instances, ordered by start time.
    pub all: Vec<CallInstance>,
    /// Each row's index in [`Instances::all`], per kind (ecalls, then
    /// ocalls). Row ids are dense, so the row id is the vector index.
    positions: [Vec<usize>; 2],
    /// Each call's indexes into [`Instances::all`], in start order.
    by_call: BTreeMap<CallRef, Vec<usize>>,
    names: CallNames,
}

impl Instances {
    /// Builds the view: merges the ecall and ocall tables, sorts by start
    /// time, resolves indirect parents, groups the instances per call and
    /// names the calls.
    pub fn build(trace: &TraceDb, cost: &CostModel) -> Instances {
        let transition = cost.sdk_ecall_overhead().as_nanos();
        let mut all: Vec<CallInstance> = Vec::with_capacity(trace.event_count());
        for (row, e) in trace.ecalls.iter_with_ids() {
            let duration = e.end_ns.saturating_sub(e.start_ns);
            all.push(CallInstance {
                call: e.call_ref(),
                row: row.0 as u64,
                thread: e.thread,
                start_ns: e.start_ns,
                end_ns: e.end_ns,
                duration_ns: duration,
                adjusted_ns: duration.saturating_sub(transition),
                direct_parent: e.parent_ocall.map(|r| (CallKind::Ocall, r)),
                indirect_parent: None,
                aex_count: e.aex_count,
            });
        }
        for (row, o) in trace.ocalls.iter_with_ids() {
            let duration = o.end_ns.saturating_sub(o.start_ns);
            all.push(CallInstance {
                call: o.call_ref(),
                row: row.0 as u64,
                thread: o.thread,
                start_ns: o.start_ns,
                end_ns: o.end_ns,
                duration_ns: duration,
                adjusted_ns: duration,
                direct_parent: o.parent_ecall.map(|r| (CallKind::Ecall, r)),
                indirect_parent: None,
                aex_count: 0,
            });
        }
        all.sort_by_key(|i| (i.start_ns, i.call.kind, i.row));

        let mut positions = [vec![0; trace.ecalls.len()], vec![0; trace.ocalls.len()]];
        for (idx, i) in all.iter().enumerate() {
            positions[i.call.kind as usize][i.row as usize] = idx;
        }

        // Indirect parents: within each (thread, direct-parent, kind)
        // group, link each call to the previous one (Figure 4).
        type GroupKey = (u64, Option<(CallKind, u64)>, CallKind);
        let mut last_in_group: HashMap<GroupKey, usize> = HashMap::new();
        let mut by_call: BTreeMap<CallRef, Vec<usize>> = BTreeMap::new();
        for (idx, inst) in all.iter_mut().enumerate() {
            let key = (inst.thread, inst.direct_parent, inst.call.kind);
            if let Some(&prev) = last_in_group.get(&key) {
                inst.indirect_parent = Some(prev);
            }
            last_in_group.insert(key, idx);
            by_call.entry(inst.call).or_default().push(idx);
        }

        Instances {
            all,
            positions,
            by_call,
            names: CallNames::of(trace),
        }
    }

    /// Looks up an instance by its source (kind, row id); `None` for a
    /// row the trace does not have (a dangling parent link).
    pub fn by_row(&self, kind: CallKind, row: u64) -> Option<&CallInstance> {
        self.position(kind, row).map(|i| &self.all[i])
    }

    /// The index in [`Instances::all`] of a source (kind, row id).
    pub(crate) fn position(&self, kind: CallKind, row: u64) -> Option<usize> {
        let row = usize::try_from(row).ok()?;
        self.positions[kind as usize].get(row).copied()
    }

    /// The calls with at least one instance, sorted.
    pub(crate) fn calls(&self) -> impl Iterator<Item = CallRef> + '_ {
        self.by_call.keys().copied()
    }

    /// All instances of one call, in start order.
    pub fn of_call(&self, call: CallRef) -> impl ExactSizeIterator<Item = &CallInstance> {
        let group = self.by_call.get(&call).map_or(&[][..], Vec::as_slice);
        group.iter().map(|&i| &self.all[i])
    }

    /// The call's name: its first symbol row's, or the positional one.
    pub(crate) fn name(&self, call: CallRef) -> Cow<'_, str> {
        self.names.get(call)
    }

    /// The lowest call with instances that is named `name` — the call a
    /// name selects when several enclaves share it.
    pub fn call_named(&self, name: &str) -> Option<CallRef> {
        self.calls().find(|&call| self.name(call) == name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::events::{EcallRow, OcallRow};
    use sim_core::HwProfile;

    fn ecall(thread: u64, idx: u32, start: u64, end: u64, parent: Option<u64>) -> EcallRow {
        EcallRow {
            thread,
            enclave: 1,
            call_index: idx,
            start_ns: start,
            end_ns: end,
            parent_ocall: parent,
            aex_count: 0,
            failed: false,
        }
    }

    fn ocall(thread: u64, idx: u32, start: u64, end: u64, parent: Option<u64>) -> OcallRow {
        OcallRow {
            thread,
            enclave: 1,
            call_index: idx,
            start_ns: start,
            end_ns: end,
            parent_ecall: parent,
            failed: false,
        }
    }

    fn build(trace: &TraceDb) -> Instances {
        Instances::build(trace, &HwProfile::Unpatched.cost_model())
    }

    /// Figure 4 case (1): successive top-level ecalls chain as indirect
    /// parents.
    #[test]
    fn fig4_case1_successive_ecalls() {
        let mut trace = TraceDb::default();
        trace.ecalls.insert(ecall(0, 0, 0, 10, None)); // E1
        trace.ecalls.insert(ecall(0, 0, 20, 30, None)); // E2
        trace.ecalls.insert(ecall(0, 0, 40, 50, None)); // E3
        let inst = build(&trace);
        assert_eq!(inst.all[0].indirect_parent, None);
        assert_eq!(inst.all[1].indirect_parent, Some(0));
        assert_eq!(inst.all[2].indirect_parent, Some(1));
    }

    /// Figure 4 case (2): two ocalls inside the same ecall — the second's
    /// indirect parent is the first.
    #[test]
    fn fig4_case2_sibling_ocalls() {
        let mut trace = TraceDb::default();
        trace.ecalls.insert(ecall(0, 0, 0, 100, None)); // E1, row 0
        trace.ocalls.insert(ocall(0, 0, 10, 20, Some(0))); // O2
        trace.ocalls.insert(ocall(0, 0, 30, 40, Some(0))); // O3
        let inst = build(&trace);
        let o2 = inst.by_row(CallKind::Ocall, 0).unwrap();
        let o3 = inst.by_row(CallKind::Ocall, 1).unwrap();
        assert_eq!(o2.indirect_parent, None);
        let o2_idx = inst
            .all
            .iter()
            .position(|i| i.call.kind == CallKind::Ocall && i.row == 0)
            .unwrap();
        assert_eq!(o3.indirect_parent, Some(o2_idx));
    }

    /// Figure 4 case (3): E1 → O2 → E3 (each nested in the previous): no
    /// indirect parents anywhere.
    #[test]
    fn fig4_case3_nested_chain() {
        let mut trace = TraceDb::default();
        trace.ecalls.insert(ecall(0, 0, 0, 100, None)); // E1, ecall row 0
        trace.ocalls.insert(ocall(0, 0, 10, 90, Some(0))); // O2, ocall row 0
        trace.ecalls.insert(ecall(0, 1, 20, 80, Some(0))); // E3 nested in O2
        let inst = build(&trace);
        for i in &inst.all {
            assert_eq!(i.indirect_parent, None, "{i:?}");
        }
    }

    /// Figure 4 case (4): E1, O2 (inside E1), E3 top-level: E3's indirect
    /// parent is E1, skipping the different-kind O2.
    #[test]
    fn fig4_case4_skips_different_kind() {
        let mut trace = TraceDb::default();
        trace.ecalls.insert(ecall(0, 0, 0, 50, None)); // E1
        trace.ocalls.insert(ocall(0, 0, 10, 20, Some(0))); // O2 inside E1
        trace.ecalls.insert(ecall(0, 0, 60, 90, None)); // E3
        let inst = build(&trace);
        let e3 = inst.by_row(CallKind::Ecall, 1).unwrap();
        let e1_idx = inst
            .all
            .iter()
            .position(|i| i.call.kind == CallKind::Ecall && i.row == 0)
            .unwrap();
        assert_eq!(e3.indirect_parent, Some(e1_idx));
    }

    /// Calls on different threads never link.
    #[test]
    fn threads_are_independent() {
        let mut trace = TraceDb::default();
        trace.ecalls.insert(ecall(0, 0, 0, 10, None));
        trace.ecalls.insert(ecall(1, 0, 20, 30, None));
        let inst = build(&trace);
        assert_eq!(inst.all[1].indirect_parent, None);
    }

    #[test]
    fn ecall_durations_are_transition_adjusted() {
        let mut trace = TraceDb::default();
        trace.ecalls.insert(ecall(0, 0, 0, 10_000, None));
        trace.ocalls.insert(ocall(0, 0, 0, 10_000, None));
        let inst = build(&trace);
        let e = inst.by_row(CallKind::Ecall, 0).unwrap();
        let o = inst.by_row(CallKind::Ocall, 0).unwrap();
        assert_eq!(e.duration_ns, 10_000);
        assert_eq!(e.adjusted_ns, 10_000 - 4_205);
        assert_eq!(o.adjusted_ns, 10_000);
    }

    /// Rows index the instances densely; a row the trace lacks, such as a
    /// dangling parent link, finds nothing.
    #[test]
    fn by_row_finds_every_row_and_nothing_else() {
        let mut trace = TraceDb::default();
        trace.ecalls.insert(ecall(0, 0, 50, 60, None));
        trace.ecalls.insert(ecall(0, 0, 0, 100, Some(7)));
        trace.ocalls.insert(ocall(0, 0, 10, 20, Some(1)));
        let inst = build(&trace);
        for (kind, rows) in [(CallKind::Ecall, 2), (CallKind::Ocall, 1)] {
            for row in 0..rows {
                let found = inst.by_row(kind, row).unwrap();
                assert_eq!((found.call.kind, found.row), (kind, row));
            }
            assert!(inst.by_row(kind, rows).is_none());
            assert!(inst.by_row(kind, u64::MAX).is_none());
        }
        assert_eq!(inst.by_row(CallKind::Ecall, 1).unwrap().start_ns, 0);
        assert!(inst.by_row(CallKind::Ocall, 7).is_none());
    }

    fn symbol(trace: &mut TraceDb, enclave: u32, index: u32, name: &str) {
        trace.symbols.insert(crate::events::SymbolRow {
            enclave,
            kind_is_ecall: true,
            index,
            name: name.to_string(),
            public: true,
            allowed_ecalls: vec![],
            user_check_params: vec![],
        });
    }

    /// The first symbol row of a call names it, a call without one gets
    /// its positional name, and a name shared by two enclaves selects the
    /// lower call.
    #[test]
    fn calls_are_named_once_per_trace() {
        use crate::analysis::stats::{scatter, Histogram};
        let mut trace = TraceDb::default();
        symbol(&mut trace, 1, 0, "ecall_first");
        symbol(&mut trace, 1, 0, "ecall_second");
        symbol(&mut trace, 2, 0, "ecall_shared");
        symbol(&mut trace, 1, 2, "ecall_shared");
        trace.ecalls.insert(ecall(0, 0, 0, 10, None));
        trace.ecalls.insert(ecall(0, 1, 20, 30, None));
        for (start, index) in [(40, 2), (60, 2), (80, 2)] {
            trace.ecalls.insert(ecall(0, index, start, start + 5, None));
        }
        let mut other = ecall(0, 0, 50, 57, None);
        other.enclave = 2;
        trace.ecalls.insert(other);
        let inst = build(&trace);
        let call = |enclave, index| CallRef {
            enclave,
            kind: CallKind::Ecall,
            index,
        };

        assert_eq!(inst.name(call(1, 0)), "ecall_first");
        assert_eq!(inst.name(call(1, 1)), "enclave1/ecall#1");
        assert_eq!(CallNames::of(&trace).recorded(call(1, 1)), None);

        // enclave1/ecall#2 sorts before enclave2/ecall#0.
        let shared = inst.call_named("ecall_shared").unwrap();
        assert_eq!(shared, call(1, 2));
        assert_eq!(inst.call_named("ecall_second"), None);
        let hist = Histogram::of_call(&inst, shared, 4).unwrap();
        assert_eq!(hist.bins.iter().sum::<u64>(), 3);
        assert_eq!(scatter(&inst, shared), [(40, 5), (60, 5), (80, 5)]);
        let of_call: Vec<u64> = inst.of_call(call(2, 0)).map(|i| i.start_ns).collect();
        assert_eq!(of_call, [50]);
        let calls: Vec<CallRef> = inst.calls().collect();
        assert_eq!(calls, [call(1, 0), call(1, 1), call(1, 2), call(2, 0)]);
    }
}
