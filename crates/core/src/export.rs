//! Trace exporters for external visualisers.
//!
//! Two formats, both derived from a recorded [`TraceDb`]:
//!
//! * **chrome trace** ([`chrome_trace`]) — the Trace Event JSON format
//!   understood by `chrome://tracing` and Perfetto. Each logical thread
//!   gets its own lane; ecalls/ocalls become complete (`"X"`) spans with
//!   an inner `[enclave]` span marking the portion spent inside the
//!   enclave (the transition overhead frames it), AEX/switchless/fault
//!   events become instants on their thread's lane, and EPC evictions
//!   become async (`"b"`/`"e"`) spans on a dedicated paging lane, from
//!   page-out (EWB) to the page-in (ELDU) that brings the page back.
//! * **collapsed stacks** ([`folded_stacks`]) — the
//!   `parent;child;leaf value` format consumed by flamegraph tooling.
//!   Stacks follow the logger's *direct parent* links (ocall inside
//!   ecall, nested ecall inside ocall); values are self-time
//!   nanoseconds, i.e. a frame's duration minus its direct children's.
//!
//! # Examples
//!
//! ```
//! use sgx_perf::export;
//! use sgx_perf::TraceDb;
//! use sim_core::HwProfile;
//!
//! let trace = TraceDb::default();
//! let cost = HwProfile::Unpatched.cost_model();
//! let json = export::chrome_trace(&trace, &cost);
//! assert!(json.contains("\"traceEvents\""));
//! assert_eq!(export::folded_stacks(&trace, &cost), "");
//! ```

use std::collections::BTreeMap;
use std::fmt::Write;

use sgx_sdk::SwitchlessEventKind;
use sim_core::fault::FaultAction;
use sim_core::CostModel;

use crate::analysis::parents::{CallId, CallTable};
use crate::analysis::Instances;
use crate::events::{CallKind, PagingRow};
use crate::json;
use crate::trace::TraceDb;

/// Timestamps from here on no longer fit 15 significant digits as
/// microseconds, so they keep the float's rounding.
const EXACT_US_BELOW_NS: u64 = 1_000_000_000_000_000;

/// Appends `n` in decimal, without the formatting machinery of `write!`
/// (which made the chrome export half again as slow on TaLoS).
fn push_u64(out: &mut String, mut n: u64) {
    let mut digits = [0u8; 20];
    let mut at = digits.len();
    loop {
        at -= 1;
        digits[at] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    out.extend(digits[at..].iter().map(|&d| char::from(d)));
}

/// Appends a timestamp in the Trace Event format's fractional
/// microseconds: `ns / 1000`, then the remainder's digits with trailing
/// zeros trimmed. Below 10^15 ns this is exactly
/// `json::f64(ns as f64 / 1000.0)`, because a decimal with at most 15
/// significant digits is its own shortest round-trip form.
fn push_us(out: &mut String, ns: u64) {
    if ns >= EXACT_US_BELOW_NS {
        out.push_str(&json::f64(ns as f64 / 1_000.0));
        return;
    }
    push_u64(out, ns / 1_000);
    let mut frac = ns % 1_000;
    if frac != 0 {
        out.push('.');
        let mut scale = 100;
        while frac != 0 {
            out.push(char::from(b'0' + (frac / scale) as u8));
            frac %= scale;
            scale /= 10;
        }
    }
}

/// Stable lane numbering: thread tokens in order of first appearance.
/// A thread first appears at its earliest `(time, thread)` event, so the
/// threads sorted by that pair are numbered as a scan of the time-sorted
/// events would number them.
fn thread_lanes(trace: &TraceDb) -> BTreeMap<u64, u64> {
    let mut lanes: BTreeMap<u64, u64> = BTreeMap::new();
    let mut see = |time: u64, thread: u64| {
        let first = lanes.entry(thread).or_insert(time);
        *first = (*first).min(time);
    };
    for e in trace.ecalls.iter() {
        see(e.start_ns, e.thread);
    }
    for o in trace.ocalls.iter() {
        see(o.start_ns, o.thread);
    }
    for a in trace.aex.iter() {
        see(a.time_ns, a.thread);
    }
    for s in trace.switchless.iter() {
        see(s.time_ns, s.thread);
    }
    for f in trace.faults.iter() {
        see(f.time_ns, f.thread);
    }
    let mut order: Vec<(u64, u64)> = lanes.iter().map(|(&t, &time)| (time, t)).collect();
    order.sort_unstable();
    for (lane, (_, t)) in order.into_iter().enumerate() {
        lanes.insert(t, lane as u64);
    }
    lanes
}

/// The Trace Event JSON under construction: each event is appended
/// straight into one buffer, after a `,\n` separator.
struct Events {
    out: String,
    empty: bool,
}

impl Events {
    /// Starts the next event with the literal text `head`.
    fn begin(&mut self, head: &str) -> &mut Events {
        if !self.empty {
            self.out.push_str(",\n");
        }
        self.empty = false;
        self.str(head)
    }

    fn str(&mut self, text: &str) -> &mut Events {
        self.out.push_str(text);
        self
    }

    fn u64(&mut self, n: impl Into<u64>) -> &mut Events {
        push_u64(&mut self.out, n.into());
        self
    }

    fn bool(&mut self, b: bool) -> &mut Events {
        self.str(if b { "true" } else { "false" })
    }

    fn us(&mut self, ns: u64) -> &mut Events {
        push_us(&mut self.out, ns);
        self
    }

    /// A call's name as a JSON string; positional names
    /// (`enclave1/ecall#3`) need no escaping.
    fn call(&mut self, table: &CallTable, id: CallId) -> &mut Events {
        match table.recorded(id) {
            Some(name) => json::push_string(&mut self.out, name),
            None => {
                let _ = write!(self.out, "\"{}\"", table.call(id));
            }
        }
        self
    }

    /// A page address as a JSON string (`"0x4000"`).
    fn vaddr(&mut self, vaddr: u64) -> &mut Events {
        let _ = write!(self.out, "\"0x{vaddr:x}\"");
        self
    }
}

/// Renders a trace as Trace Event JSON (object form, with a
/// `traceEvents` array), loadable in `chrome://tracing` / Perfetto. The
/// cost model frames the inner `[enclave]` span of each ecall.
pub fn chrome_trace(trace: &TraceDb, cost: &CostModel) -> String {
    let lanes = thread_lanes(trace);
    let table = CallTable::of(trace);
    let overhead = cost.sdk_ecall_overhead().as_nanos();
    // About the bytes each row renders to, so the buffer rarely grows.
    let capacity = 96 * lanes.len()
        + 330 * trace.ecalls.len()
        + 180 * trace.ocalls.len()
        + 100 * trace.aex.len()
        + 160 * (trace.switchless.len() + trace.faults.len() + trace.paging.len());
    let mut out = String::with_capacity(capacity + 64);
    out.push_str("{\n\"displayTimeUnit\": \"ns\",\n\"traceEvents\": [\n");
    let mut ev = Events { out, empty: true };

    // Lane metadata: one named lane per logical thread, plus a paging lane
    // past the last thread.
    let paging_lane = lanes.len() as u64;
    for (&token, &lane) in &lanes {
        ev.begin("{\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 1, \"tid\": ")
            .u64(lane)
            .str(", \"args\": {\"name\": \"thread ")
            .u64(token)
            .str("\"}}");
    }
    if !trace.paging.is_empty() {
        ev.begin("{\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 1, \"tid\": ")
            .u64(paging_lane)
            .str(", \"args\": {\"name\": \"EPC paging\"}}");
    }

    // Calls: complete spans. Ecalls additionally get the nested [enclave]
    // span — the slice between the enter and exit transitions.
    let ecalls = trace.ecalls.iter_with_ids();
    for ((row, e), &id) in ecalls.zip(table.row_ids(CallKind::Ecall)) {
        let lane = lanes[&e.thread];
        let dur = e.end_ns.saturating_sub(e.start_ns);
        ev.begin("{\"name\": ")
            .call(&table, id)
            .str(", \"cat\": \"ecall\", \"ph\": \"X\", \"pid\": 1, \"tid\": ")
            .u64(lane)
            .str(", \"ts\": ")
            .us(e.start_ns)
            .str(", \"dur\": ")
            .us(dur)
            .str(", \"args\": {\"row\": ")
            .u64(row.0 as u64)
            .str(", \"enclave\": ")
            .u64(e.enclave)
            .str(", \"aex_count\": ")
            .u64(e.aex_count)
            .str(", \"failed\": ")
            .bool(e.failed)
            .str("}}");
        if dur > overhead {
            let enter = overhead / 2;
            ev.begin(
                "{\"name\": \"[enclave]\", \"cat\": \"transition\", \"ph\": \"X\", \
                 \"pid\": 1, \"tid\": ",
            )
            .u64(lane)
            .str(", \"ts\": ")
            .us(e.start_ns + enter)
            .str(", \"dur\": ")
            .us(dur - overhead)
            .str(", \"args\": {\"row\": ")
            .u64(row.0 as u64)
            .str("}}");
        }
    }
    let ocalls = trace.ocalls.iter_with_ids();
    for ((row, o), &id) in ocalls.zip(table.row_ids(CallKind::Ocall)) {
        ev.begin("{\"name\": ")
            .call(&table, id)
            .str(", \"cat\": \"ocall\", \"ph\": \"X\", \"pid\": 1, \"tid\": ")
            .u64(lanes[&o.thread])
            .str(", \"ts\": ")
            .us(o.start_ns)
            .str(", \"dur\": ")
            .us(o.end_ns.saturating_sub(o.start_ns))
            .str(", \"args\": {\"row\": ")
            .u64(row.0 as u64)
            .str(", \"enclave\": ")
            .u64(o.enclave)
            .str(", \"failed\": ")
            .bool(o.failed)
            .str("}}");
    }

    // AEXs, switchless events and faults: instants on the thread's lane.
    for a in trace.aex.iter() {
        ev.begin("{\"name\": \"AEX\", \"cat\": \"aex\", \"ph\": \"i\", \"s\": \"t\", \"pid\": 1, \"tid\": ")
            .u64(lanes[&a.thread])
            .str(", \"ts\": ")
            .us(a.time_ns)
            .str("}");
    }
    for s in trace.switchless.iter() {
        let name = match SwitchlessEventKind::from_code(s.kind) {
            Some(SwitchlessEventKind::EcallDispatched) => "switchless ecall",
            Some(SwitchlessEventKind::OcallDispatched) => "switchless ocall",
            Some(SwitchlessEventKind::EcallFallback | SwitchlessEventKind::OcallFallback) => {
                "switchless fallback"
            }
            _ => "switchless worker",
        };
        ev.begin("{\"name\": \"")
            .str(name)
            .str("\", \"cat\": \"switchless\", \"ph\": \"i\", \"s\": \"t\", \"pid\": 1, \"tid\": ")
            .u64(lanes[&s.thread])
            .str(", \"ts\": ")
            .us(s.time_ns)
            .str(", \"args\": {\"spins\": ")
            .u64(s.spins)
            .str("}}");
    }
    for f in trace.faults.iter() {
        let name = match FaultAction::from_code(f.action) {
            Some(FaultAction::Injected) => "fault injected",
            Some(FaultAction::Retried) => "fault retried",
            Some(FaultAction::Recovered) => "fault recovered",
            _ => "fault gave up",
        };
        ev.begin("{\"name\": \"")
            .str(name)
            .str("\", \"cat\": \"fault\", \"ph\": \"i\", \"s\": \"t\", \"pid\": 1, \"tid\": ")
            .u64(lanes[&f.thread])
            .str(", \"ts\": ")
            .us(f.time_ns)
            .str(", \"args\": {\"fault\": ")
            .u64(f.fault)
            .str(", \"magnitude\": ")
            .u64(f.magnitude)
            .str("}}");
    }

    // Paging: an async span per eviction, from EWB to the matching ELDU.
    // `id` carries the page address so begin/end pair up; an eviction with
    // no later page-in stays open (chrome renders it to the trace end).
    let paging = trace.paging.iter().as_slice();
    for (p, span) in paging.iter().zip(pair_evictions(paging)) {
        if p.out {
            ev.begin("{\"name\": \"evicted\", \"cat\": \"paging\", \"ph\": \"b\", \"id\": ")
                .u64(span)
                .str(", \"pid\": 1, \"tid\": ")
                .u64(paging_lane)
                .str(", \"ts\": ")
                .us(p.time_ns)
                .str(", \"args\": {\"vaddr\": ")
                .vaddr(p.vaddr)
                .str(", \"enclave\": ")
                .u64(p.enclave)
                .str("}}");
        } else if span != NO_SPAN {
            ev.begin("{\"name\": \"evicted\", \"cat\": \"paging\", \"ph\": \"e\", \"id\": ")
                .u64(span)
                .str(", \"pid\": 1, \"tid\": ")
                .u64(paging_lane)
                .str(", \"ts\": ")
                .us(p.time_ns)
                .str("}");
        } else {
            // Page-in without a recorded eviction (trace started late).
            ev.begin(
                "{\"name\": \"page-in\", \"cat\": \"paging\", \"ph\": \"i\", \"s\": \"p\", \
                 \"pid\": 1, \"tid\": ",
            )
            .u64(paging_lane)
            .str(", \"ts\": ")
            .us(p.time_ns)
            .str(", \"args\": {\"vaddr\": ")
            .vaddr(p.vaddr)
            .str("}}");
        }
    }

    let mut out = ev.out;
    out.push_str("\n]\n}\n");
    out
}

/// The span of a page-in that ends no eviction.
const NO_SPAN: u64 = 0;

/// The async span of each paging row: the `n`th page-out opens span `n`,
/// and a page-in ends the span of the last page-out of its (enclave,
/// vaddr) that is still open, or none ([`NO_SPAN`]). A later page-out of
/// an open page takes its place, so the earlier span stays open. One sort
/// of packed (enclave, vaddr, row) keys lists each page's rows together
/// in row order, and one walk per page pairs them.
fn pair_evictions(paging: &[PagingRow]) -> Vec<u64> {
    let mut opened = 0;
    let mut spans: Vec<u64> = (paging.iter())
        .map(|p| {
            if p.out {
                opened += 1;
                opened
            } else {
                NO_SPAN
            }
        })
        .collect();
    let mut keys: Vec<u128> = (paging.iter().enumerate())
        .map(|(row, p)| {
            let row = u32::try_from(row).expect("a trace's rows fit 32-bit indexes");
            u128::from(p.enclave) << 96 | u128::from(p.vaddr) << 32 | u128::from(row)
        })
        .collect();
    keys.sort_unstable();
    let (mut page, mut open) = (None, NO_SPAN);
    for key in keys {
        if page != Some(key >> 32) {
            page = Some(key >> 32);
            open = NO_SPAN;
        }
        let row = key as u32 as usize;
        if paging[row].out {
            open = spans[row];
        } else {
            spans[row] = std::mem::replace(&mut open, NO_SPAN);
        }
    }
    spans
}

/// Call chains interned as a trie: node `n` is the chain of its parent
/// node (none for the outermost call) extended by one call.
struct Chains {
    nodes: Vec<(Option<usize>, CallId)>,
    /// The one-call chain of each call, by number (`NONE` until seen).
    roots: Vec<usize>,
    /// The longer chains, by (parent node, call).
    children: BTreeMap<(usize, CallId), usize>,
}

impl Chains {
    const NONE: usize = usize::MAX;

    /// An empty trie over a table of `calls` calls.
    fn new(calls: usize) -> Chains {
        Chains {
            nodes: Vec::new(),
            roots: vec![Chains::NONE; calls],
            children: BTreeMap::new(),
        }
    }

    fn intern(&mut self, parent: Option<usize>, call: CallId) -> usize {
        let slot = match parent {
            None => &mut self.roots[call.index()],
            Some(p) => self.children.entry((p, call)).or_insert(Chains::NONE),
        };
        if *slot == Chains::NONE {
            *slot = self.nodes.len();
            self.nodes.push((parent, call));
        }
        *slot
    }

    /// The calls of a chain, innermost first.
    fn calls(&self, node: usize) -> impl Iterator<Item = CallId> + '_ {
        std::iter::successors(Some(node), |&n| self.nodes[n].0).map(|n| self.nodes[n].1)
    }

    /// Each instance's chain: its call (`ids` holds each instance's call)
    /// under its direct parent's chain (`parents` holds the parents'
    /// indexes). The walk up the parent links stops at the first instance
    /// already on the current chain, so a cyclic link ends the stack
    /// instead of looping: every instance on a cycle is the leaf of its
    /// own rotation of the cycle.
    fn of_instances(&mut self, ids: &[CallId], parents: &[Option<usize>]) -> Vec<usize> {
        const UNRESOLVED: usize = usize::MAX;
        let mut node = vec![UNRESOLVED; ids.len()];
        let mut on_chain = vec![false; ids.len()];
        let mut chain: Vec<usize> = Vec::new();
        for start in 0..ids.len() {
            if node[start] != UNRESOLVED {
                continue;
            }
            // Walk up to the outermost call, a resolved instance or a
            // repeat.
            chain.clear();
            let mut above = None;
            let mut cursor = Some(start);
            while let Some(at) = cursor {
                if node[at] != UNRESOLVED {
                    above = Some(node[at]);
                    break;
                }
                if on_chain[at] {
                    let from = chain
                        .iter()
                        .position(|&c| c == at)
                        .expect("a marked instance is on the current walk");
                    let cycle = &chain[from..];
                    let len = cycle.len();
                    for (t, &leaf) in cycle.iter().enumerate() {
                        // Walking up from `leaf` visits cycle[t], cycle[t + 1],
                        // ... around to cycle[t - 1]; intern it outermost first.
                        let member = |k: usize| ids[cycle[(t + k) % len]];
                        let mut n = self.intern(None, member(len - 1));
                        for k in (0..len - 1).rev() {
                            n = self.intern(Some(n), member(k));
                        }
                        node[leaf] = n;
                    }
                    above = Some(node[at]);
                    chain.truncate(from);
                    break;
                }
                on_chain[at] = true;
                chain.push(at);
                cursor = parents[at];
            }
            // The rest of the walk extends the chain above it.
            for &at in chain.iter().rev() {
                let n = self.intern(above, ids[at]);
                node[at] = n;
                above = Some(n);
            }
        }
        node
    }
}

/// Renders a trace in the collapsed-stack format consumed by flamegraph
/// tooling: one `frame;frame;leaf value` line per distinct stack, where
/// frames follow the logger's direct-parent links and values are
/// self-time nanoseconds. A cyclic parent link ends the stack at the
/// first call already on it. Lines are sorted for deterministic output.
pub fn folded_stacks(trace: &TraceDb, cost: &CostModel) -> String {
    let instances = Instances::build(trace, cost);
    let all = &instances.all;
    let table = instances.table();
    // Direct parents as indexes into `all`; a dangling link ends the
    // stack like a top-level call.
    let parents: Vec<Option<usize>> = all
        .iter()
        .map(|i| {
            i.direct_parent
                .and_then(|(kind, row)| instances.position(kind, row))
        })
        .collect();

    // Self time: duration minus time spent in direct children.
    let mut child_ns = vec![0u64; all.len()];
    for (inst, parent) in all.iter().zip(&parents) {
        if let Some(p) = *parent {
            child_ns[p] = child_ns[p].saturating_add(inst.duration_ns);
        }
    }

    // Self time per distinct (thread, call chain): sort the instances by
    // that pair, then sum each run.
    let mut chains = Chains::new(table.len());
    let nodes = chains.of_instances(instances.ids(), &parents);
    let mut stacks: Vec<(u64, usize, u64)> = (all.iter().zip(nodes).zip(child_ns))
        .map(|((inst, node), spent)| (inst.thread, node, inst.duration_ns.saturating_sub(spent)))
        .collect();
    stacks.sort_unstable_by_key(|&(thread, node, _)| (thread, node));

    // Render each distinct stack once, then merge the stacks whose text
    // coincides: two calls can share a name.
    let mut folded: BTreeMap<String, u64> = BTreeMap::new();
    let mut calls: Vec<CallId> = Vec::new();
    let mut stack = String::new();
    for run in stacks.chunk_by(|a, b| (a.0, a.1) == (b.0, b.1)) {
        let (thread, node, _) = run[0];
        let self_ns = run.iter().fold(0u64, |sum, s| sum.saturating_add(s.2));
        calls.clear();
        calls.extend(chains.calls(node));
        stack.clear();
        let _ = write!(stack, "thread-{thread}");
        for &call in calls.iter().rev() {
            stack.push(';');
            stack.push_str(&table.name(call));
        }
        match folded.get_mut(stack.as_str()) {
            Some(total) => *total = total.saturating_add(self_ns),
            None => {
                folded.insert(stack.clone(), self_ns);
            }
        }
    }

    let mut out = String::new();
    for (stack, value) in folded {
        let _ = writeln!(out, "{stack} {value}");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::events::{EcallRow, OcallRow, SymbolRow};
    use sim_core::HwProfile;

    fn cost() -> CostModel {
        HwProfile::Unpatched.cost_model()
    }

    fn sample_trace() -> TraceDb {
        let mut trace = TraceDb::default();
        trace.symbols.insert(SymbolRow {
            enclave: 1,
            kind_is_ecall: true,
            index: 0,
            name: "ecall_work".into(),
            public: true,
            allowed_ecalls: vec![],
            user_check_params: vec![],
        });
        trace.symbols.insert(SymbolRow {
            enclave: 1,
            kind_is_ecall: false,
            index: 0,
            name: "ocall_log".into(),
            public: false,
            allowed_ecalls: vec![],
            user_check_params: vec![],
        });
        // Ecall on thread 0 with a nested ocall; second ecall on thread 7.
        trace.ecalls.insert(EcallRow {
            thread: 0,
            enclave: 1,
            call_index: 0,
            start_ns: 0,
            end_ns: 50_000,
            parent_ocall: None,
            aex_count: 1,
            failed: false,
        });
        trace.ocalls.insert(OcallRow {
            thread: 0,
            enclave: 1,
            call_index: 0,
            start_ns: 10_000,
            end_ns: 18_000,
            parent_ecall: Some(0),
            failed: false,
        });
        trace.ecalls.insert(EcallRow {
            thread: 7,
            enclave: 1,
            call_index: 0,
            start_ns: 5_000,
            end_ns: 12_000,
            parent_ocall: None,
            aex_count: 0,
            failed: false,
        });
        trace.paging.insert(PagingRow {
            enclave: 1,
            out: true,
            vaddr: 0x4000,
            time_ns: 20_000,
        });
        trace.paging.insert(PagingRow {
            enclave: 1,
            out: false,
            vaddr: 0x4000,
            time_ns: 30_000,
        });
        trace
    }

    #[test]
    fn chrome_trace_has_a_lane_per_thread() {
        let json = chrome_trace(&sample_trace(), &cost());
        assert!(json.contains("\"traceEvents\""));
        // Threads 0 and 7 get lanes 0 and 1 (order of first appearance),
        // paging gets lane 2.
        assert!(
            json.contains("\"args\": {\"name\": \"thread 0\"}"),
            "{json}"
        );
        assert!(
            json.contains("\"args\": {\"name\": \"thread 7\"}"),
            "{json}"
        );
        assert!(
            json.contains("\"args\": {\"name\": \"EPC paging\"}"),
            "{json}"
        );
        assert!(json.contains("\"name\": \"ecall_work\""));
        assert!(json.contains("\"name\": \"ocall_log\""));
    }

    #[test]
    fn chrome_trace_nests_the_enclave_span() {
        let json = chrome_trace(&sample_trace(), &cost());
        // 50µs ecall minus the 4205ns transition → inner span of 45.795µs
        // starting at overhead/2.
        assert!(json.contains("\"name\": \"[enclave]\""), "{json}");
        assert!(json.contains("\"ts\": 2.102, \"dur\": 45.795"), "{json}");
    }

    #[test]
    fn chrome_trace_pairs_paging_async_spans() {
        let json = chrome_trace(&sample_trace(), &cost());
        assert!(json.contains("\"ph\": \"b\", \"id\": 1"), "{json}");
        assert!(json.contains("\"ph\": \"e\", \"id\": 1"), "{json}");
        assert!(json.contains("\"vaddr\": \"0x4000\""), "{json}");
    }

    #[test]
    fn chrome_trace_is_balanced_json() {
        let json = chrome_trace(&sample_trace(), &cost());
        assert_eq!(
            json.matches('{').count() + json.matches('[').count(),
            json.matches('}').count() + json.matches(']').count()
        );
    }

    #[test]
    fn folded_stacks_follow_direct_parents_with_self_time() {
        let folded = folded_stacks(&sample_trace(), &cost());
        let lines: Vec<&str> = folded.lines().collect();
        // Nested ocall subtracts from the outer ecall's self time:
        // 50_000 - 8_000 = 42_000.
        assert!(lines.contains(&"thread-0;ecall_work 42000"), "{lines:?}");
        assert!(
            lines.contains(&"thread-0;ecall_work;ocall_log 8000"),
            "{lines:?}"
        );
        assert!(lines.contains(&"thread-7;ecall_work 7000"), "{lines:?}");
        // Sorted, deterministic.
        let mut sorted = lines.clone();
        sorted.sort_unstable();
        assert_eq!(lines, sorted);
    }

    /// A hand-built trace that reaches every exporter branch: a thread
    /// seen only in the AEX table, every switchless kind code and every
    /// fault action (plus an unknown one of each), a page-in without an
    /// eviction and a page evicted twice, a call without a symbol row, a
    /// name that needs JSON escaping, failed calls, a dangling parent, a
    /// duration at the transition overhead, and timestamps from 0 to past
    /// 10^15 ns.
    fn branchy_trace() -> TraceDb {
        use crate::events::{AexRow, FaultRow, SwitchlessRow};
        let mut trace = sample_trace();
        trace.symbols.insert(SymbolRow {
            enclave: 2,
            kind_is_ecall: true,
            index: 0,
            name: "ecall_\"odd\\name\u{1}".into(),
            public: true,
            allowed_ecalls: vec![],
            user_check_params: vec![],
        });
        let ecall = |thread, enclave, call_index, start_ns, end_ns, parent_ocall| EcallRow {
            thread,
            enclave,
            call_index,
            start_ns,
            end_ns,
            parent_ocall,
            aex_count: 0,
            failed: false,
        };
        // Unnamed ecall (no symbol row) nested inside ocall row 0.
        trace.ecalls.insert(ecall(0, 1, 1, 12_000, 13_000, Some(0)));
        // A duration exactly at the 4205 ns transition overhead: no
        // [enclave] span.
        let mut failed = ecall(5, 2, 0, 1_000_010, 1_004_215, None);
        failed.failed = true;
        trace.ecalls.insert(failed);
        trace.ecalls.insert(ecall(5, 2, 0, 1, 999, None));
        trace.ecalls.insert(ecall(
            9,
            2,
            0,
            1_000_000_000_000_123,
            1_000_000_000_999_999,
            None,
        ));
        trace.ocalls.insert(OcallRow {
            thread: 9,
            enclave: 1,
            call_index: 0,
            start_ns: 1_000,
            end_ns: 1_000,
            parent_ecall: Some(99),
            failed: true,
        });
        // Thread 42 appears only here, tied in time with thread 9's first
        // event; the last AEX is past 10^15 ns and needs rounding.
        for (thread, time_ns) in [
            (42, 1_000),
            (0, 999),
            (5, 1),
            (5, 1_234_567_890_123_456_789),
        ] {
            trace.aex.insert(AexRow {
                thread,
                enclave: 1,
                time_ns,
                during_ecall: None,
                cause: None,
            });
        }
        for kind in [0, 1, 2, 3, 4, 5, 200] {
            trace.switchless.insert(SwitchlessRow {
                thread: 7,
                enclave: 1,
                kind,
                call_index: Some(0),
                worker: None,
                spins: u64::from(kind) * 3,
                time_ns: 40_000 + u64::from(kind),
            });
        }
        for action in [0, 1, 2, 3, 77] {
            trace.faults.insert(FaultRow {
                thread: 5,
                enclave: 2,
                fault: 4,
                action,
                call_index: None,
                magnitude: u64::from(action) + 10,
                time_ns: 2_000_000 + u64::from(action) * 1_000,
            });
        }
        for (out, vaddr, time_ns) in [
            (false, 0x9000, 31_000),
            (true, 0x5000, 32_000),
            (true, 0x5000, 33_000),
            (false, 0x5000, 34_500),
        ] {
            trace.paging.insert(PagingRow {
                enclave: 1,
                out,
                vaddr,
                time_ns,
            });
        }
        trace
    }

    /// The full output of both exporters on [`branchy_trace`], pinned
    /// byte for byte.
    #[test]
    fn every_exporter_branch_is_pinned() {
        let trace = branchy_trace();
        assert_eq!(chrome_trace(&trace, &cost()), BRANCHY_CHROME);
        assert_eq!(folded_stacks(&trace, &cost()), BRANCHY_FOLDED);
    }

    const BRANCHY_CHROME: &str = r#"{
"displayTimeUnit": "ns",
"traceEvents": [
{"name": "thread_name", "ph": "M", "pid": 1, "tid": 0, "args": {"name": "thread 0"}},
{"name": "thread_name", "ph": "M", "pid": 1, "tid": 1, "args": {"name": "thread 5"}},
{"name": "thread_name", "ph": "M", "pid": 1, "tid": 4, "args": {"name": "thread 7"}},
{"name": "thread_name", "ph": "M", "pid": 1, "tid": 2, "args": {"name": "thread 9"}},
{"name": "thread_name", "ph": "M", "pid": 1, "tid": 3, "args": {"name": "thread 42"}},
{"name": "thread_name", "ph": "M", "pid": 1, "tid": 5, "args": {"name": "EPC paging"}},
{"name": "ecall_work", "cat": "ecall", "ph": "X", "pid": 1, "tid": 0, "ts": 0, "dur": 50, "args": {"row": 0, "enclave": 1, "aex_count": 1, "failed": false}},
{"name": "[enclave]", "cat": "transition", "ph": "X", "pid": 1, "tid": 0, "ts": 2.102, "dur": 45.795, "args": {"row": 0}},
{"name": "ecall_work", "cat": "ecall", "ph": "X", "pid": 1, "tid": 4, "ts": 5, "dur": 7, "args": {"row": 1, "enclave": 1, "aex_count": 0, "failed": false}},
{"name": "[enclave]", "cat": "transition", "ph": "X", "pid": 1, "tid": 4, "ts": 7.102, "dur": 2.795, "args": {"row": 1}},
{"name": "enclave1/ecall#1", "cat": "ecall", "ph": "X", "pid": 1, "tid": 0, "ts": 12, "dur": 1, "args": {"row": 2, "enclave": 1, "aex_count": 0, "failed": false}},
{"name": "ecall_\"odd\\name\u0001", "cat": "ecall", "ph": "X", "pid": 1, "tid": 1, "ts": 1000.01, "dur": 4.205, "args": {"row": 3, "enclave": 2, "aex_count": 0, "failed": true}},
{"name": "ecall_\"odd\\name\u0001", "cat": "ecall", "ph": "X", "pid": 1, "tid": 1, "ts": 0.001, "dur": 0.998, "args": {"row": 4, "enclave": 2, "aex_count": 0, "failed": false}},
{"name": "ecall_\"odd\\name\u0001", "cat": "ecall", "ph": "X", "pid": 1, "tid": 2, "ts": 1000000000000.123, "dur": 999.876, "args": {"row": 5, "enclave": 2, "aex_count": 0, "failed": false}},
{"name": "[enclave]", "cat": "transition", "ph": "X", "pid": 1, "tid": 2, "ts": 1000000000002.225, "dur": 995.671, "args": {"row": 5}},
{"name": "ocall_log", "cat": "ocall", "ph": "X", "pid": 1, "tid": 0, "ts": 10, "dur": 8, "args": {"row": 0, "enclave": 1, "failed": false}},
{"name": "ocall_log", "cat": "ocall", "ph": "X", "pid": 1, "tid": 2, "ts": 1, "dur": 0, "args": {"row": 1, "enclave": 1, "failed": true}},
{"name": "AEX", "cat": "aex", "ph": "i", "s": "t", "pid": 1, "tid": 3, "ts": 1},
{"name": "AEX", "cat": "aex", "ph": "i", "s": "t", "pid": 1, "tid": 0, "ts": 0.999},
{"name": "AEX", "cat": "aex", "ph": "i", "s": "t", "pid": 1, "tid": 1, "ts": 0.001},
{"name": "AEX", "cat": "aex", "ph": "i", "s": "t", "pid": 1, "tid": 1, "ts": 1234567890123456.8},
{"name": "switchless ecall", "cat": "switchless", "ph": "i", "s": "t", "pid": 1, "tid": 4, "ts": 40, "args": {"spins": 0}},
{"name": "switchless ocall", "cat": "switchless", "ph": "i", "s": "t", "pid": 1, "tid": 4, "ts": 40.001, "args": {"spins": 3}},
{"name": "switchless fallback", "cat": "switchless", "ph": "i", "s": "t", "pid": 1, "tid": 4, "ts": 40.002, "args": {"spins": 6}},
{"name": "switchless fallback", "cat": "switchless", "ph": "i", "s": "t", "pid": 1, "tid": 4, "ts": 40.003, "args": {"spins": 9}},
{"name": "switchless worker", "cat": "switchless", "ph": "i", "s": "t", "pid": 1, "tid": 4, "ts": 40.004, "args": {"spins": 12}},
{"name": "switchless worker", "cat": "switchless", "ph": "i", "s": "t", "pid": 1, "tid": 4, "ts": 40.005, "args": {"spins": 15}},
{"name": "switchless worker", "cat": "switchless", "ph": "i", "s": "t", "pid": 1, "tid": 4, "ts": 40.2, "args": {"spins": 600}},
{"name": "fault injected", "cat": "fault", "ph": "i", "s": "t", "pid": 1, "tid": 1, "ts": 2000, "args": {"fault": 4, "magnitude": 10}},
{"name": "fault retried", "cat": "fault", "ph": "i", "s": "t", "pid": 1, "tid": 1, "ts": 2001, "args": {"fault": 4, "magnitude": 11}},
{"name": "fault recovered", "cat": "fault", "ph": "i", "s": "t", "pid": 1, "tid": 1, "ts": 2002, "args": {"fault": 4, "magnitude": 12}},
{"name": "fault gave up", "cat": "fault", "ph": "i", "s": "t", "pid": 1, "tid": 1, "ts": 2003, "args": {"fault": 4, "magnitude": 13}},
{"name": "fault gave up", "cat": "fault", "ph": "i", "s": "t", "pid": 1, "tid": 1, "ts": 2077, "args": {"fault": 4, "magnitude": 87}},
{"name": "evicted", "cat": "paging", "ph": "b", "id": 1, "pid": 1, "tid": 5, "ts": 20, "args": {"vaddr": "0x4000", "enclave": 1}},
{"name": "evicted", "cat": "paging", "ph": "e", "id": 1, "pid": 1, "tid": 5, "ts": 30},
{"name": "page-in", "cat": "paging", "ph": "i", "s": "p", "pid": 1, "tid": 5, "ts": 31, "args": {"vaddr": "0x9000"}},
{"name": "evicted", "cat": "paging", "ph": "b", "id": 2, "pid": 1, "tid": 5, "ts": 32, "args": {"vaddr": "0x5000", "enclave": 1}},
{"name": "evicted", "cat": "paging", "ph": "b", "id": 3, "pid": 1, "tid": 5, "ts": 33, "args": {"vaddr": "0x5000", "enclave": 1}},
{"name": "evicted", "cat": "paging", "ph": "e", "id": 3, "pid": 1, "tid": 5, "ts": 34.5}
]
}
"#;

    const BRANCHY_FOLDED: &str = "thread-0;ecall_work 42000\n\
thread-0;ecall_work;ocall_log 7000\n\
thread-0;ecall_work;ocall_log;enclave1/ecall#1 1000\n\
thread-5;ecall_\"odd\\name\u{1} 5203\n\
thread-7;ecall_work 7000\n\
thread-9;ecall_\"odd\\name\u{1} 999876\n\
thread-9;ocall_log 0\n\
";

    /// Ecall row 0 and ocall row 0 name each other as direct parent, and
    /// ecall row 1 hangs off the cycle: every instance lands in exactly
    /// one stack, cut where the walk would revisit a call.
    #[test]
    fn cyclic_parent_links_end_the_stack() {
        let mut trace = sample_trace();
        trace.ecalls = Default::default();
        trace.ocalls = Default::default();
        trace.ecalls.insert(EcallRow {
            thread: 0,
            enclave: 1,
            call_index: 0,
            start_ns: 0,
            end_ns: 50_000,
            parent_ocall: Some(0),
            aex_count: 0,
            failed: false,
        });
        trace.ocalls.insert(OcallRow {
            thread: 0,
            enclave: 1,
            call_index: 0,
            start_ns: 10_000,
            end_ns: 18_000,
            parent_ecall: Some(0),
            failed: false,
        });
        trace.ecalls.insert(EcallRow {
            thread: 0,
            enclave: 1,
            call_index: 1,
            start_ns: 12_000,
            end_ns: 13_000,
            parent_ocall: Some(0),
            aex_count: 0,
            failed: false,
        });
        assert_eq!(
            folded_stacks(&trace, &cost()),
            "thread-0;ecall_work;ocall_log 0\n\
             thread-0;ecall_work;ocall_log;enclave1/ecall#1 1000\n\
             thread-0;ocall_log;ecall_work 42000\n"
        );
    }

    /// A four-call cycle entered from a call that starts first: each call
    /// on the cycle is the leaf of its own rotation of it.
    #[test]
    fn a_cycle_entered_from_outside_gives_each_member_its_rotation() {
        let mut trace = TraceDb::default();
        let ecall = |call_index, start_ns, parent_ocall| EcallRow {
            thread: 0,
            enclave: 1,
            call_index,
            start_ns,
            end_ns: start_ns,
            parent_ocall: Some(parent_ocall),
            aex_count: 0,
            failed: false,
        };
        let ocall = |call_index, start_ns, parent_ecall| OcallRow {
            thread: 0,
            enclave: 1,
            call_index,
            start_ns,
            end_ns: start_ns,
            parent_ecall: Some(parent_ecall),
            failed: false,
        };
        // e0 -> o0 -> e1 -> o1 -> e0, and e2 -> o1.
        trace.ecalls.insert(ecall(0, 10, 0));
        trace.ecalls.insert(ecall(1, 30, 1));
        trace.ecalls.insert(ecall(2, 0, 1));
        trace.ocalls.insert(ocall(0, 20, 1));
        trace.ocalls.insert(ocall(1, 40, 0));
        let (e0, e1, e2) = ("enclave1/ecall#0", "enclave1/ecall#1", "enclave1/ecall#2");
        let (o0, o1) = ("enclave1/ocall#0", "enclave1/ocall#1");
        let expected: String = [
            [e0, o1, e1, o0].join(";"),
            [e1, o0, e0, o1].join(";"),
            [e1, o0, e0, o1, e2].join(";"),
            [o0, e0, o1, e1].join(";"),
            [o1, e1, o0, e0].join(";"),
        ]
        .iter()
        .map(|stack| format!("thread-0;{stack} 0\n"))
        .collect();
        assert_eq!(folded_stacks(&trace, &cost()), expected);
    }

    /// Below 10^15 ns the integer timestamp form is exactly the float
    /// form it replaces; from there on the float form is kept.
    #[test]
    fn timestamps_match_the_float_form_at_the_edges() {
        let us = |ns| {
            let mut out = String::new();
            push_us(&mut out, ns);
            out
        };
        let float = |ns: u64| json::f64(ns as f64 / 1_000.0);
        let mut edges = vec![0, 1, 999, 1_000, 1_000_010, EXACT_US_BELOW_NS - 1];
        for digits in 1..=15 {
            let power = 10u64.pow(digits);
            edges.extend([power - 1, power + 1, power + power / 2, 7 * power / 3]);
        }
        edges.extend(0..20_000);
        for ns in edges.into_iter().filter(|&ns| ns < EXACT_US_BELOW_NS) {
            assert_eq!(us(ns), float(ns), "{ns} ns");
        }
        assert_eq!(us(0), "0");
        assert_eq!(us(1), "0.001");
        assert_eq!(us(999), "0.999");
        assert_eq!(us(1_000), "1");
        assert_eq!(us(1_000_010), "1000.01");
        for ns in [EXACT_US_BELOW_NS, 1_234_567_890_123_456_789, u64::MAX] {
            assert_eq!(us(ns), float(ns), "{ns} ns");
        }
        assert_eq!(us(1_234_567_890_123_456_789), "1234567890123456.8");
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(4096))]
        #[test]
        fn timestamps_match_the_float_form(
            ns in 0u64..EXACT_US_BELOW_NS,
            digits in 1u32..16,
        ) {
            // Cover every magnitude, not just the top of the range.
            let ns = ns % 10u64.pow(digits);
            let mut out = String::new();
            push_us(&mut out, ns);
            proptest::prop_assert_eq!(out, json::f64(ns as f64 / 1_000.0));
        }
    }

    /// The pairing `pair_evictions` replaced, kept as its model: an
    /// ordered map of the open page-outs, one insert or remove per row.
    fn pair_evictions_by_map(paging: &[PagingRow]) -> Vec<u64> {
        let mut opened = 0;
        let mut open: BTreeMap<(u32, u64), u64> = BTreeMap::new();
        (paging.iter())
            .map(|p| {
                if p.out {
                    opened += 1;
                    open.insert((p.enclave, p.vaddr), opened);
                    opened
                } else {
                    open.remove(&(p.enclave, p.vaddr)).unwrap_or(NO_SPAN)
                }
            })
            .collect()
    }

    /// A page evicted twice before its page-in: the page-in ends the
    /// second span and the first stays open; a page-in with nothing open
    /// ends no span, and pages of other enclaves or addresses never pair.
    #[test]
    fn evictions_pair_with_the_last_open_page_out() {
        let row = |enclave, out, vaddr| PagingRow {
            enclave,
            out,
            vaddr,
            time_ns: 0,
        };
        let paging = [
            row(1, true, 0x1000),
            row(1, true, 0x1000),
            row(2, false, 0x1000),
            row(1, true, 0x2000),
            row(1, false, 0x1000),
            row(1, false, 0x1000),
            row(1, false, 0x2000),
            row(u32::MAX, true, u64::MAX),
            row(u32::MAX, false, u64::MAX),
        ];
        assert_eq!(pair_evictions(&paging), [1, 2, 0, 3, 2, 0, 3, 4, 4]);
        assert_eq!(pair_evictions_by_map(&paging), pair_evictions(&paging));
        assert!(pair_evictions(&[]).is_empty());
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(300))]

        /// The sorted pairing gives every paging row the span the map
        /// pairing gives it, over generated traces whose few enclave ids
        /// and addresses repeat pages, each table repeated four times so
        /// that pages are evicted and paged in again.
        #[test]
        fn evictions_pair_as_the_ordered_map_pairs_them(
            trace in crate::tracegen::Traces { max_rows: 4 },
        ) {
            let once = trace.paging.iter().as_slice();
            let paging: Vec<PagingRow> = (0..4).flat_map(|_| once.iter().cloned()).collect();
            proptest::prop_assert_eq!(pair_evictions(&paging), pair_evictions_by_map(&paging));
        }
    }

    #[test]
    fn empty_trace_exports_cleanly() {
        let trace = TraceDb::default();
        let json = chrome_trace(&trace, &cost());
        assert!(json.contains("\"traceEvents\": [\n\n]"), "{json}");
        assert_eq!(folded_stacks(&trace, &cost()), "");
    }
}
