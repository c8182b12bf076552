//! The flattened call-instance view with direct and indirect parents
//! (Figure 4), over one frozen call table per trace.
//!
//! *Direct* parents are logged by the event logger: an ecall E is the
//! direct parent of an ocall O iff O was called during E's execution (and
//! vice versa for nested ecalls). *Indirect* parents are derived here: the
//! previous completed call **of the same kind** that belongs to the **same
//! direct parent** (or, for top-level calls, the previous top-level call of
//! the same kind on the same thread).
//!
//! The call table numbers each distinct [`CallRef`] of a trace once, in
//! `CallRef` order, and names it once; every per-row lookup after that
//! indexes vectors by the number.

use std::borrow::Cow;
use std::collections::BTreeMap;

use sim_core::CostModel;

use crate::events::{CallKind, CallRef, SymbolRow};
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

/// The number of one distinct call of a trace: its rank, in `CallRef`
/// order, among the calls the trace's ecall, ocall and symbol rows name.
/// Sorting by `CallId` therefore sorts by `CallRef`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) struct CallId(u32);

impl CallId {
    /// The number as a vector index.
    pub(crate) fn index(self) -> usize {
        self.0 as usize
    }
}

/// A vector index as a `u32`, checked: the call table and the instance
/// view keep their side arrays compact.
fn to_u32(n: usize) -> u32 {
    u32::try_from(n).expect("a trace's rows and names fit 32-bit indexes")
}

/// The frozen call table of one trace: every distinct call its ecall,
/// ocall and symbol rows name, numbered once in `CallRef` order, named
/// once, and the number of every ecall, ocall and symbol row's call.
///
/// A call's name is its first symbol row's; a call without one gets its
/// positional name (`enclave1/ecall#3`). The names are copied once, back
/// to back, into one buffer.
#[derive(Debug, Default)]
pub(crate) struct CallTable {
    /// The calls, sorted and distinct: a call's number is its index.
    calls: Vec<CallRef>,
    /// Each call's recorded name as a span of `text`.
    names: Vec<Option<(u32, u32)>>,
    text: String,
    /// The call of each ecall row, of each ocall row and of each symbol
    /// row, by row id.
    rows: [Vec<CallId>; 3],
}

/// Slots of the memo in front of [`CallTable::of`]'s binary search.
const MEMO_SLOTS: usize = 64;

/// The memo slot [`CallTable::of`] keeps `call` in: the top bits of a
/// multiplicative hash of the call. The memo is direct-mapped, so a call
/// evicts whichever call held its slot and a lookup never probes: calls
/// crafted to share one slot cost a binary search per run of rows, never
/// a walk (DESIGN §7). Public so that a gate can build such a trace.
#[doc(hidden)]
pub fn call_memo_slot(call: CallRef) -> usize {
    let key = (u64::from(call.enclave) << 32 | u64::from(call.index)) ^ (call.kind as u64) << 31;
    (key.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> (64 - MEMO_SLOTS.trailing_zeros())) as usize
}

impl CallTable {
    /// Numbers and names the calls of a trace, sorting only distinct
    /// calls. The symbol rows, taken in (call, row) order (the logger
    /// writes them so; they are sorted only when they are not), give the
    /// named calls in order, each named after its first row. Each run of
    /// ecall or ocall rows with one call then finds it by binary search
    /// behind a direct-mapped memo ([`call_memo_slot`]); the calls no
    /// symbol row names are sorted on their own and merged in.
    pub(crate) fn of(trace: &TraceDb) -> CallTable {
        const UNSET: CallId = CallId(u32::MAX);
        let symbols = trace.symbols.iter().as_slice();
        let mut table = CallTable::default();

        // The named calls, numbered in order, and each symbol row's call.
        let by_call = (!symbols.is_sorted_by_key(SymbolRow::call_ref)).then(|| {
            let mut order: Vec<u32> = (0..to_u32(symbols.len())).collect();
            order.sort_by_key(|&r| symbols[r as usize].call_ref());
            order
        });
        let mut symbol_ids = vec![UNSET; symbols.len()];
        for at in 0..symbols.len() {
            let row = by_call.as_ref().map_or(at, |order| order[at] as usize);
            let call = symbols[row].call_ref();
            if table.calls.last() != Some(&call) {
                let start = to_u32(table.text.len());
                table.text.push_str(&symbols[row].name);
                table.calls.push(call);
                table.names.push(Some((start, to_u32(table.text.len()))));
            }
            symbol_ids[row] = CallId(to_u32(table.calls.len() - 1));
        }
        let named = table.calls.len();

        // Each ecall and ocall row's call: a named call's number, or
        // `named + k` for the `k`th unnamed call looked up (an unnamed
        // call evicted from the memo is listed again).
        let mut memo: [Option<(CallRef, CallId)>; MEMO_SLOTS] = [None; MEMO_SLOTS];
        let mut unnamed: Vec<CallRef> = Vec::new();
        let mut lookup = |call: CallRef| {
            let slot = &mut memo[call_memo_slot(call)];
            match *slot {
                Some((held, id)) if held == call => id,
                _ => {
                    let id = table.calls.binary_search(&call).unwrap_or_else(|_| {
                        unnamed.push(call);
                        named + unnamed.len() - 1
                    });
                    let id = CallId(to_u32(id));
                    *slot = Some((call, id));
                    id
                }
            }
        };
        // A run of rows with one call looks its call up once.
        let mut number = |calls: &mut dyn ExactSizeIterator<Item = CallRef>| {
            let mut ids = Vec::with_capacity(calls.len());
            let mut last = None;
            let mut id = UNSET;
            for call in calls {
                if last != Some(call) {
                    id = lookup(call);
                    last = Some(call);
                }
                ids.push(id);
            }
            ids
        };
        let ecall_ids = number(&mut trace.ecalls.iter().map(|e| e.call_ref()));
        let ocall_ids = number(&mut trace.ocalls.iter().map(|o| o.call_ref()));
        table.rows = [ecall_ids, ocall_ids, symbol_ids];
        if !unnamed.is_empty() {
            table.merge_unnamed(named, &unnamed);
        }
        table
    }

    /// Merges the calls no symbol row names into a table that numbers
    /// the `named` calls only, and renumbers every row: a row's number
    /// `named + k` stands for `unnamed[k]`.
    fn merge_unnamed(&mut self, named: usize, unnamed: &[CallRef]) {
        let mut order: Vec<u32> = (0..to_u32(unnamed.len())).collect();
        order.sort_unstable_by_key(|&k| unnamed[k as usize]);
        let calls = std::mem::take(&mut self.calls);
        let names = std::mem::take(&mut self.names);
        let mut named_calls = calls.into_iter().zip(names).enumerate().peekable();
        let mut renumber = vec![CallId(0); named + unnamed.len()];
        for k in order {
            let call = unnamed[k as usize];
            while let Some((i, (below, name))) = named_calls.next_if(|(_, (c, _))| *c < call) {
                renumber[i] = self.push_call(below, name);
            }
            renumber[named + k as usize] = self.push_call(call, None);
        }
        for (i, (call, name)) in named_calls {
            renumber[i] = self.push_call(call, name);
        }
        for ids in &mut self.rows {
            for id in ids.iter_mut() {
                *id = renumber[id.index()];
            }
        }
    }

    /// Numbers `call` after the last call, unless it is the last call.
    fn push_call(&mut self, call: CallRef, name: Option<(u32, u32)>) -> CallId {
        if self.calls.last() != Some(&call) {
            self.calls.push(call);
            self.names.push(name);
        }
        CallId(to_u32(self.calls.len() - 1))
    }

    /// The number of a call, if the trace names it in any row.
    pub(crate) fn id(&self, call: CallRef) -> Option<CallId> {
        self.calls
            .binary_search(&call)
            .ok()
            .map(|i| CallId(i as u32))
    }

    /// How many calls the table numbers.
    pub(crate) fn len(&self) -> usize {
        self.calls.len()
    }

    /// Every number, in order.
    pub(crate) fn ids(&self) -> impl Iterator<Item = CallId> {
        (0..self.calls.len() as u32).map(CallId)
    }

    /// The call a number stands for.
    pub(crate) fn call(&self, id: CallId) -> CallRef {
        self.calls[id.index()]
    }

    /// The call of each row of one kind's table, by row id.
    pub(crate) fn row_ids(&self, kind: CallKind) -> &[CallId] {
        &self.rows[kind as usize]
    }

    /// The call of each symbol row, by row id.
    pub(crate) fn symbol_ids(&self) -> &[CallId] {
        &self.rows[2]
    }

    /// The recorded name, if the trace has a symbol row for the call.
    pub(crate) fn recorded(&self, id: CallId) -> Option<&str> {
        self.names[id.index()].map(|(start, end)| &self.text[start as usize..end as usize])
    }

    /// The recorded name, falling back to the positional one.
    pub(crate) fn name(&self, id: CallId) -> Cow<'_, str> {
        self.recorded(id)
            .map_or_else(|| Cow::Owned(self.call(id).to_string()), Cow::Borrowed)
    }

    /// The name of any call, numbered or not.
    pub(crate) fn name_of(&self, call: CallRef) -> Cow<'_, str> {
        match self.id(call) {
            Some(id) => self.name(id),
            None => Cow::Owned(call.to_string()),
        }
    }
}

/// A table's row ids in start order, or `None` when the rows already are
/// in start order (the logger appends a row when its call starts). The
/// sort is stable, so equal starts stay in row order.
fn start_order<R>(rows: &[R], start: impl Fn(&R) -> u64) -> Option<Vec<u32>> {
    if rows.iter().is_sorted_by_key(&start) {
        return None;
    }
    let mut order: Vec<u32> = (0..to_u32(rows.len())).collect();
    order.sort_by_key(|&r| start(&rows[r as usize]));
    Some(order)
}

/// The instance view over a whole trace.
#[derive(Debug, Default)]
pub struct Instances {
    /// All instances, ordered by start time.
    pub all: Vec<CallInstance>,
    /// Each row's index in [`Instances::all`], per kind (ecalls, then
    /// ocalls). Row ids are dense, so the row id is the vector index.
    positions: [Vec<u32>; 2],
    /// Each instance's call, by index in [`Instances::all`].
    ids: Vec<CallId>,
    /// Each call's indexes into [`Instances::all`], in start order:
    /// `members[starts[c]..starts[c + 1]]` for call number `c`.
    starts: Vec<u32>,
    members: Vec<u32>,
    table: CallTable,
}

impl Instances {
    /// Builds the view: numbers and names the calls, merges the ecall and
    /// ocall tables in start order, resolves indirect parents and lists
    /// each call's instances.
    pub fn build(trace: &TraceDb, cost: &CostModel) -> Instances {
        let transition = cost.sdk_ecall_overhead().as_nanos();
        let table = CallTable::of(trace);
        let ecalls = trace.ecalls.iter().as_slice();
        let ocalls = trace.ocalls.iter().as_slice();
        let orders = [
            start_order(ecalls, |e| e.start_ns),
            start_order(ocalls, |o| o.start_ns),
        ];
        let lens = [ecalls.len(), ocalls.len()];

        // Merge the two tables by (start, kind, row): at equal starts the
        // ecall comes first.
        let total = to_u32(lens[0] + lens[1]) as usize;
        let mut all: Vec<CallInstance> = Vec::with_capacity(total);
        let mut ids: Vec<CallId> = Vec::with_capacity(total);
        let mut positions = [vec![0u32; lens[0]], vec![0u32; lens[1]]];
        let mut merged = [0usize; 2];
        for idx in 0..total {
            let next = |k: usize| {
                (merged[k] < lens[k]).then(|| {
                    orders[k]
                        .as_ref()
                        .map_or(merged[k], |o| o[merged[k]] as usize)
                })
            };
            let (kind, row) = match (next(0), next(1)) {
                (Some(e), Some(o)) if ocalls[o].start_ns < ecalls[e].start_ns => {
                    (CallKind::Ocall, o)
                }
                (Some(e), _) => (CallKind::Ecall, e),
                (None, o) => (CallKind::Ocall, o.expect("rows remain")),
            };
            merged[kind as usize] += 1;
            positions[kind as usize][row] = idx as u32;
            ids.push(table.row_ids(kind)[row]);
            all.push(match kind {
                CallKind::Ecall => {
                    let r = &ecalls[row];
                    let duration = r.end_ns.saturating_sub(r.start_ns);
                    CallInstance {
                        call: r.call_ref(),
                        row: row as u64,
                        thread: r.thread,
                        start_ns: r.start_ns,
                        end_ns: r.end_ns,
                        duration_ns: duration,
                        adjusted_ns: duration.saturating_sub(transition),
                        direct_parent: r.parent_ocall.map(|p| (CallKind::Ocall, p)),
                        indirect_parent: None,
                        aex_count: r.aex_count,
                    }
                }
                CallKind::Ocall => {
                    let r = &ocalls[row];
                    let duration = r.end_ns.saturating_sub(r.start_ns);
                    CallInstance {
                        call: r.call_ref(),
                        row: row as u64,
                        thread: r.thread,
                        start_ns: r.start_ns,
                        end_ns: r.end_ns,
                        duration_ns: duration,
                        adjusted_ns: duration,
                        direct_parent: r.parent_ecall.map(|p| (CallKind::Ecall, p)),
                        indirect_parent: None,
                        aex_count: 0,
                    }
                }
            });
        }

        let mut view = Instances {
            all,
            positions,
            ids,
            starts: Vec::new(),
            members: Vec::new(),
            table,
        };
        view.link_indirect_parents();
        view.list_members();
        view
    }

    /// Indirect parents: within each (thread, direct-parent, kind) group,
    /// link each call to the previous one (Figure 4). A parent instance's
    /// children all have the other kind, so a child on its parent's thread
    /// finds its group in the parent's slot; top-level calls, dangling
    /// links and cross-thread children key an ordered map by their thread.
    fn link_indirect_parents(&mut self) {
        const NONE: u32 = u32::MAX;
        let mut last_child = vec![NONE; self.all.len()];
        type GroupKey = (u64, Option<(CallKind, u64)>, CallKind);
        let mut last_in_group: BTreeMap<GroupKey, u32> = BTreeMap::new();
        for idx in 0..self.all.len() {
            let inst = &self.all[idx];
            let parent = inst
                .direct_parent
                .and_then(|(kind, row)| self.position(kind, row))
                .filter(|&p| self.all[p].thread == inst.thread);
            let slot = match parent {
                Some(p) => &mut last_child[p],
                None => last_in_group
                    .entry((inst.thread, inst.direct_parent, inst.call.kind))
                    .or_insert(NONE),
            };
            let prev = std::mem::replace(slot, to_u32(idx));
            if prev != NONE {
                self.all[idx].indirect_parent = Some(prev as usize);
            }
        }
    }

    /// Lists each call's instances in start order, as one vector of
    /// indexes cut at `starts`.
    fn list_members(&mut self) {
        let mut starts = vec![0u32; self.table.len() + 1];
        for id in &self.ids {
            starts[id.index() + 1] += 1;
        }
        for c in 1..starts.len() {
            starts[c] += starts[c - 1];
        }
        let mut next = starts.clone();
        let mut members = vec![0u32; self.ids.len()];
        for (idx, id) in self.ids.iter().enumerate() {
            let at = &mut next[id.index()];
            members[*at as usize] = idx as u32;
            *at += 1;
        }
        self.starts = starts;
        self.members = members;
    }

    /// Looks up an instance by its source (kind, row id); `None` for a
    /// row the trace does not have (a dangling parent link).
    pub fn by_row(&self, kind: CallKind, row: u64) -> Option<&CallInstance> {
        self.position(kind, row).map(|i| &self.all[i])
    }

    /// The index in [`Instances::all`] of a source (kind, row id).
    pub(crate) fn position(&self, kind: CallKind, row: u64) -> Option<usize> {
        let row = usize::try_from(row).ok()?;
        self.positions[kind as usize].get(row).map(|&i| i as usize)
    }

    /// The trace's call table.
    pub(crate) fn table(&self) -> &CallTable {
        &self.table
    }

    /// Each instance's call, by index in [`Instances::all`].
    pub(crate) fn ids(&self) -> &[CallId] {
        &self.ids
    }

    /// The numbers of the calls with at least one instance, in order.
    pub(crate) fn call_ids(&self) -> impl Iterator<Item = CallId> + '_ {
        self.starts
            .windows(2)
            .enumerate()
            .filter(|(_, w)| w[0] < w[1])
            .map(|(c, _)| CallId(c as u32))
    }

    /// The indexes into [`Instances::all`] of one call's instances, in
    /// start order.
    pub(crate) fn members(&self, id: CallId) -> &[u32] {
        let c = id.index();
        &self.members[self.starts[c] as usize..self.starts[c + 1] as usize]
    }

    /// All instances of one numbered call, in start order.
    pub(crate) fn of_id(&self, id: CallId) -> impl ExactSizeIterator<Item = &CallInstance> {
        self.members(id).iter().map(|&i| &self.all[i as usize])
    }

    /// The calls with at least one instance, sorted.
    pub(crate) fn calls(&self) -> impl Iterator<Item = CallRef> + '_ {
        self.call_ids().map(|id| self.table.call(id))
    }

    /// All instances of one call, in start order.
    pub fn of_call(&self, call: CallRef) -> impl ExactSizeIterator<Item = &CallInstance> {
        let group = self.table.id(call).map_or(&[][..], |id| self.members(id));
        group.iter().map(|&i| &self.all[i as usize])
    }

    /// The call's name: its first symbol row's, or the positional one.
    pub(crate) fn name(&self, call: CallRef) -> Cow<'_, str> {
        self.table.name_of(call)
    }

    /// The lowest call with instances that is named `name` — the call a
    /// name selects when several enclaves share it.
    pub fn call_named(&self, name: &str) -> Option<CallRef> {
        self.call_ids()
            .find(|&id| self.table.name(id) == name)
            .map(|id| self.table.call(id))
    }
}

/// `Instances::build` and the call names as they were before the call
/// table, kept as the model the table is held to: one stable sort of the
/// instances, SipHash groups for the indirect parents, a
/// `BTreeMap<CallRef, _>` per call and a `HashMap<CallRef, _>` of names.
#[cfg(test)]
pub(crate) mod reference {
    use std::collections::{BTreeMap, HashMap};

    use super::*;

    /// The reference view.
    pub(crate) struct Reference {
        pub(crate) all: Vec<CallInstance>,
        positions: [Vec<usize>; 2],
        by_call: BTreeMap<CallRef, Vec<usize>>,
        names: HashMap<CallRef, String>,
    }

    impl Reference {
        pub(crate) fn build(trace: &TraceDb, cost: &CostModel) -> Reference {
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

            let mut names = HashMap::new();
            for s in trace.symbols.iter() {
                names.entry(s.call_ref()).or_insert_with(|| s.name.clone());
            }
            Reference {
                all,
                positions,
                by_call,
                names,
            }
        }

        pub(crate) fn by_row(&self, kind: CallKind, row: u64) -> Option<&CallInstance> {
            let row = usize::try_from(row).ok()?;
            self.positions[kind as usize]
                .get(row)
                .map(|&i| &self.all[i])
        }

        pub(crate) fn calls(&self) -> impl Iterator<Item = CallRef> + '_ {
            self.by_call.keys().copied()
        }

        pub(crate) fn of_call(&self, call: CallRef) -> impl Iterator<Item = &CallInstance> {
            let group = self.by_call.get(&call).map_or(&[][..], Vec::as_slice);
            group.iter().map(|&i| &self.all[i])
        }

        pub(crate) fn name(&self, call: CallRef) -> Cow<'_, str> {
            self.names.get(&call).map_or_else(
                || Cow::Owned(call.to_string()),
                |n| Cow::Borrowed(n.as_str()),
            )
        }

        pub(crate) fn call_named(&self, name: &str) -> Option<CallRef> {
            self.calls().find(|&call| self.name(call) == name)
        }
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
        let table = CallTable::of(&trace);
        assert_eq!(table.id(call(1, 1)).and_then(|id| table.recorded(id)), None);

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

    /// Holds the call table and the instance view of `trace` to the
    /// models: the table numbers every distinct call of the ecall, ocall
    /// and symbol rows in `CallRef` order, maps every row to its call's
    /// number and names each call after its first symbol row; the view
    /// is the reference model's, with the same instances in the same
    /// order with the same parents, the same rows, calls, groups and
    /// names.
    fn matches_the_models(trace: &TraceDb) -> Result<(), proptest::test_runner::TestCaseError> {
        use super::reference::Reference;
        use proptest::{prop_assert, prop_assert_eq};
        let table = CallTable::of(trace);
        let ecalls = trace.ecalls.iter().map(|e| e.call_ref());
        let ocalls = trace.ocalls.iter().map(|o| o.call_ref());
        let symbols = trace.symbols.iter().map(SymbolRow::call_ref);
        let distinct: std::collections::BTreeSet<CallRef> = ecalls
            .clone()
            .chain(ocalls.clone())
            .chain(symbols.clone())
            .collect();
        let distinct: Vec<CallRef> = distinct.into_iter().collect();
        prop_assert_eq!(
            table.ids().map(|id| table.call(id)).collect::<Vec<_>>(),
            distinct.clone()
        );
        let number = |call: CallRef| CallId(distinct.binary_search(&call).unwrap() as u32);
        prop_assert_eq!(
            table.row_ids(CallKind::Ecall),
            &ecalls.map(number).collect::<Vec<_>>()[..]
        );
        prop_assert_eq!(
            table.row_ids(CallKind::Ocall),
            &ocalls.map(number).collect::<Vec<_>>()[..]
        );
        prop_assert_eq!(
            table.symbol_ids(),
            &symbols.map(number).collect::<Vec<_>>()[..]
        );
        for id in table.ids() {
            let first = trace
                .symbols
                .iter()
                .find(|s| s.call_ref() == table.call(id));
            prop_assert_eq!(table.recorded(id), first.map(|s| s.name.as_str()));
            prop_assert!(table.id(table.call(id)) == Some(id));
        }

        let cost = HwProfile::Unpatched.cost_model();
        let inst = Instances::build(trace, &cost);
        let model = Reference::build(trace, &cost);
        prop_assert_eq!(format!("{:?}", inst.all), format!("{:?}", model.all));
        for (kind, rows) in [
            (CallKind::Ecall, trace.ecalls.len() as u64),
            (CallKind::Ocall, trace.ocalls.len() as u64),
        ] {
            for row in (0..rows + 2).chain([u64::MAX]) {
                prop_assert_eq!(
                    format!("{:?}", inst.by_row(kind, row)),
                    format!("{:?}", model.by_row(kind, row))
                );
            }
        }
        let calls: Vec<CallRef> = inst.calls().collect();
        prop_assert_eq!(&calls, &model.calls().collect::<Vec<_>>());
        let named = trace.symbols.iter().map(|s| s.call_ref());
        let absent = CallRef {
            enclave: 7,
            kind: CallKind::Ocall,
            index: 7,
        };
        for call in calls.iter().copied().chain(named).chain([absent]) {
            let rows = |it: &mut dyn Iterator<Item = &CallInstance>| -> Vec<(CallKind, u64)> {
                it.map(|i| (i.call.kind, i.row)).collect()
            };
            prop_assert_eq!(
                rows(&mut inst.of_call(call)),
                rows(&mut model.of_call(call))
            );
            prop_assert_eq!(inst.name(call), model.name(call));
        }
        for s in trace.symbols.iter() {
            prop_assert_eq!(inst.call_named(&s.name), model.call_named(&s.name));
        }
        prop_assert_eq!(
            inst.call_named("enclave1/ecall#1"),
            model.call_named("enclave1/ecall#1")
        );
        Ok(())
    }

    fn named(trace: &mut TraceDb, call: CallRef, name: &str) {
        trace.symbols.insert(crate::events::SymbolRow {
            enclave: call.enclave,
            kind_is_ecall: call.kind == CallKind::Ecall,
            index: call.index,
            name: name.to_string(),
            public: false,
            allowed_ecalls: vec![],
            user_check_params: vec![],
        });
    }

    /// One row of `call`'s kind, starting at `start`.
    fn called(trace: &mut TraceDb, call: CallRef, start: u64) {
        let thread = start % 3;
        match call.kind {
            CallKind::Ecall => {
                let mut row = ecall(thread, call.index, start, start + 5, None);
                row.enclave = call.enclave;
                trace.ecalls.insert(row);
            }
            CallKind::Ocall => {
                let mut row = ocall(thread, call.index, start, start + 5, None);
                row.enclave = call.enclave;
                trace.ocalls.insert(row);
            }
        }
    }

    fn call(enclave: u32, kind: CallKind, index: u32) -> CallRef {
        CallRef {
            enclave,
            kind,
            index,
        }
    }

    /// Symbol rows out of (call, row) order, a call named by several rows
    /// (the first names it), calls no symbol row names below, between and
    /// above the named ones (up to the largest call there is), and named
    /// calls without instances.
    #[test]
    fn call_table_numbers_unsorted_repeated_and_unnamed_calls() {
        use CallKind::{Ecall, Ocall};
        let mut trace = TraceDb::default();
        named(&mut trace, call(2, Ecall, 0), "e2_first");
        named(&mut trace, call(1, Ocall, 4), "o1");
        named(&mut trace, call(1, Ecall, 1), "e1");
        named(&mut trace, call(2, Ecall, 0), "e2_second");
        named(&mut trace, call(9, Ecall, 0), "never_called");
        named(&mut trace, call(1, Ecall, 1), "e1_again");
        let calls = [
            call(0, Ecall, 3),
            call(1, Ecall, 1),
            call(1, Ecall, 2),
            call(1, Ocall, 4),
            call(2, Ecall, 0),
            call(2, Ocall, 0),
            call(u32::MAX, Ocall, u32::MAX),
            call(1, Ecall, 2),
            call(0, Ecall, 3),
        ];
        for (at, &c) in calls.iter().enumerate() {
            called(&mut trace, c, 10 * at as u64);
            called(&mut trace, c, 10 * at as u64 + 1);
        }
        matches_the_models(&trace).unwrap();
        let table = CallTable::of(&trace);
        let name = |c| table.id(c).map(|id| table.name(id).into_owned());
        assert_eq!(name(call(2, Ecall, 0)).as_deref(), Some("e2_first"));
        assert_eq!(name(call(1, Ecall, 1)).as_deref(), Some("e1"));
        assert_eq!(name(call(1, Ecall, 2)).as_deref(), Some("enclave1/ecall#2"));
        assert_eq!(name(call(9, Ecall, 0)).as_deref(), Some("never_called"));
        assert_eq!(table.len(), 8);

        // The same rows with the symbol rows in (call, row) order.
        let mut sorted: Vec<SymbolRow> = trace.symbols.iter().cloned().collect();
        sorted.sort_by_key(SymbolRow::call_ref);
        trace.symbols = sorted.into_iter().collect();
        matches_the_models(&trace).unwrap();
    }

    /// More distinct calls than the memo has slots, named and not, each
    /// called again after the memo has evicted it.
    #[test]
    fn call_table_numbers_more_calls_than_memo_slots() {
        let mut trace = TraceDb::default();
        let calls: Vec<CallRef> = (0..4 * MEMO_SLOTS as u32)
            .map(|i| {
                call(
                    i % 7,
                    [CallKind::Ecall, CallKind::Ocall][i as usize % 2],
                    i / 7,
                )
            })
            .collect();
        for (i, &c) in calls.iter().enumerate() {
            if i % 3 != 0 {
                named(&mut trace, c, &format!("call{i}"));
            }
        }
        for round in 0..3u64 {
            for (i, &c) in calls.iter().enumerate() {
                called(&mut trace, c, 10_000 * round + i as u64);
            }
        }
        matches_the_models(&trace).unwrap();
    }

    /// Calls that all share one memo slot, alternating so that every run
    /// evicts the one before it: named, unnamed and both mixed.
    #[test]
    fn call_table_numbers_calls_that_share_a_memo_slot() {
        let first = call(1, CallKind::Ecall, 0);
        let colliding: Vec<CallRef> = (0..u32::MAX)
            .map(|i| {
                call(
                    1 + i % 3,
                    [CallKind::Ecall, CallKind::Ocall][i as usize % 2],
                    i,
                )
            })
            .filter(|&c| call_memo_slot(c) == call_memo_slot(first))
            .take(12)
            .collect();
        assert!(colliding.len() == 12 && colliding[0] == first);
        for names in [0..0, 0..12, 0..6] {
            let mut trace = TraceDb::default();
            for &c in &colliding[names] {
                named(&mut trace, c, &c.to_string().replace('/', "_"));
            }
            for round in 0..4u64 {
                for (i, &c) in colliding.iter().enumerate().rev() {
                    called(&mut trace, c, 100 * round + i as u64);
                }
            }
            matches_the_models(&trace).unwrap();
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(400))]

        /// The call table and the merged instance order give exactly the
        /// view of the models, on generated traces.
        #[test]
        fn call_table_matches_the_reference_model(
            trace in crate::tracegen::Traces { max_rows: 40 },
        ) {
            matches_the_models(&trace)?;
        }
    }
}
