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

use sgx_sdk::SwitchlessEventKind;
use sim_core::fault::FaultAction;
use sim_core::CostModel;

use crate::analysis::parents::CallNames;
use crate::analysis::Instances;
use crate::events::CallKind;
use crate::json;
use crate::trace::TraceDb;

/// Timestamps in the Trace Event format are fractional microseconds.
fn us(ns: u64) -> String {
    json::f64(ns as f64 / 1_000.0)
}

/// Stable lane numbering: thread tokens in order of first appearance.
fn thread_lanes(trace: &TraceDb) -> BTreeMap<u64, u64> {
    let mut lanes = BTreeMap::new();
    let mut order: Vec<u64> = Vec::new();
    let mut events: Vec<(u64, u64)> = Vec::new();
    for e in trace.ecalls.iter() {
        events.push((e.start_ns, e.thread));
    }
    for o in trace.ocalls.iter() {
        events.push((o.start_ns, o.thread));
    }
    for a in trace.aex.iter() {
        events.push((a.time_ns, a.thread));
    }
    for s in trace.switchless.iter() {
        events.push((s.time_ns, s.thread));
    }
    for f in trace.faults.iter() {
        events.push((f.time_ns, f.thread));
    }
    events.sort();
    for (_, t) in events {
        if !order.contains(&t) {
            order.push(t);
        }
    }
    for (i, t) in order.into_iter().enumerate() {
        lanes.insert(t, i as u64);
    }
    lanes
}

/// Renders a trace as Trace Event JSON (object form, with a
/// `traceEvents` array), loadable in `chrome://tracing` / Perfetto. The
/// cost model frames the inner `[enclave]` span of each ecall.
pub fn chrome_trace(trace: &TraceDb, cost: &CostModel) -> String {
    let lanes = thread_lanes(trace);
    let names = CallNames::of(trace);
    let overhead = cost.sdk_ecall_overhead().as_nanos();
    let mut ev: Vec<String> = Vec::new();

    // Lane metadata: one named lane per logical thread, plus a paging lane
    // past the last thread.
    let paging_lane = lanes.len() as u64;
    for (token, lane) in &lanes {
        ev.push(format!(
            "{{\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 1, \"tid\": {lane}, \
             \"args\": {{\"name\": {}}}}}",
            json::string(&format!("thread {token}"))
        ));
    }
    if !trace.paging.is_empty() {
        ev.push(format!(
            "{{\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 1, \"tid\": {paging_lane}, \
             \"args\": {{\"name\": \"EPC paging\"}}}}"
        ));
    }

    // Calls: complete spans. Ecalls additionally get the nested [enclave]
    // span — the slice between the enter and exit transitions.
    for (row, e) in trace.ecalls.iter_with_ids() {
        let lane = lanes[&e.thread];
        let dur = e.end_ns.saturating_sub(e.start_ns);
        ev.push(format!(
            "{{\"name\": {}, \"cat\": \"ecall\", \"ph\": \"X\", \"pid\": 1, \"tid\": {lane}, \
             \"ts\": {}, \"dur\": {}, \
             \"args\": {{\"row\": {}, \"enclave\": {}, \"aex_count\": {}, \"failed\": {}}}}}",
            json::string(&names.get(e.call_ref())),
            us(e.start_ns),
            us(dur),
            row.0,
            e.enclave,
            e.aex_count,
            e.failed,
        ));
        if dur > overhead {
            let enter = overhead / 2;
            ev.push(format!(
                "{{\"name\": \"[enclave]\", \"cat\": \"transition\", \"ph\": \"X\", \
                 \"pid\": 1, \"tid\": {lane}, \"ts\": {}, \"dur\": {}, \
                 \"args\": {{\"row\": {}}}}}",
                us(e.start_ns + enter),
                us(dur - overhead),
                row.0,
            ));
        }
    }
    for (row, o) in trace.ocalls.iter_with_ids() {
        let lane = lanes[&o.thread];
        ev.push(format!(
            "{{\"name\": {}, \"cat\": \"ocall\", \"ph\": \"X\", \"pid\": 1, \"tid\": {lane}, \
             \"ts\": {}, \"dur\": {}, \
             \"args\": {{\"row\": {}, \"enclave\": {}, \"failed\": {}}}}}",
            json::string(&names.get(o.call_ref())),
            us(o.start_ns),
            us(o.end_ns.saturating_sub(o.start_ns)),
            row.0,
            o.enclave,
            o.failed,
        ));
    }

    // AEXs, switchless events and faults: instants on the thread's lane.
    for a in trace.aex.iter() {
        ev.push(format!(
            "{{\"name\": \"AEX\", \"cat\": \"aex\", \"ph\": \"i\", \"s\": \"t\", \
             \"pid\": 1, \"tid\": {}, \"ts\": {}}}",
            lanes[&a.thread],
            us(a.time_ns),
        ));
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
        ev.push(format!(
            "{{\"name\": {}, \"cat\": \"switchless\", \"ph\": \"i\", \"s\": \"t\", \
             \"pid\": 1, \"tid\": {}, \"ts\": {}, \"args\": {{\"spins\": {}}}}}",
            json::string(name),
            lanes[&s.thread],
            us(s.time_ns),
            s.spins,
        ));
    }
    for f in trace.faults.iter() {
        let action = match FaultAction::from_code(f.action) {
            Some(FaultAction::Injected) => "injected",
            Some(FaultAction::Retried) => "retried",
            Some(FaultAction::Recovered) => "recovered",
            _ => "gave up",
        };
        ev.push(format!(
            "{{\"name\": {}, \"cat\": \"fault\", \"ph\": \"i\", \"s\": \"t\", \
             \"pid\": 1, \"tid\": {}, \"ts\": {}, \
             \"args\": {{\"fault\": {}, \"magnitude\": {}}}}}",
            json::string(&format!("fault {action}")),
            lanes[&f.thread],
            us(f.time_ns),
            f.fault,
            f.magnitude,
        ));
    }

    // Paging: an async span per eviction, from EWB to the matching ELDU.
    // `id` carries the page address so begin/end pair up; an eviction with
    // no later page-in stays open (chrome renders it to the trace end).
    let mut async_id = 0u64;
    let mut open: BTreeMap<(u32, u64), u64> = BTreeMap::new();
    for p in trace.paging.iter() {
        let addr = format!("0x{:x}", p.vaddr);
        if p.out {
            async_id += 1;
            open.insert((p.enclave, p.vaddr), async_id);
            ev.push(format!(
                "{{\"name\": {}, \"cat\": \"paging\", \"ph\": \"b\", \"id\": {async_id}, \
                 \"pid\": 1, \"tid\": {paging_lane}, \"ts\": {}, \
                 \"args\": {{\"vaddr\": {}, \"enclave\": {}}}}}",
                json::string("evicted"),
                us(p.time_ns),
                json::string(&addr),
                p.enclave,
            ));
        } else if let Some(id) = open.remove(&(p.enclave, p.vaddr)) {
            ev.push(format!(
                "{{\"name\": {}, \"cat\": \"paging\", \"ph\": \"e\", \"id\": {id}, \
                 \"pid\": 1, \"tid\": {paging_lane}, \"ts\": {}}}",
                json::string("evicted"),
                us(p.time_ns),
            ));
        } else {
            // Page-in without a recorded eviction (trace started late).
            ev.push(format!(
                "{{\"name\": \"page-in\", \"cat\": \"paging\", \"ph\": \"i\", \"s\": \"p\", \
                 \"pid\": 1, \"tid\": {paging_lane}, \"ts\": {}, \
                 \"args\": {{\"vaddr\": {}}}}}",
                us(p.time_ns),
                json::string(&addr),
            ));
        }
    }

    let mut out = String::from("{\n\"displayTimeUnit\": \"ns\",\n\"traceEvents\": [\n");
    out.push_str(&ev.join(",\n"));
    out.push_str("\n]\n}\n");
    out
}

/// Renders a trace in the collapsed-stack format consumed by flamegraph
/// tooling: one `frame;frame;leaf value` line per distinct stack, where
/// frames follow the logger's direct-parent links and values are
/// self-time nanoseconds. Lines are sorted for deterministic output.
pub fn folded_stacks(trace: &TraceDb, cost: &CostModel) -> String {
    let instances = Instances::build(trace, cost);

    // Self time: duration minus time spent in direct children.
    let mut child_time: BTreeMap<(CallKind, u64), u64> = BTreeMap::new();
    for inst in &instances.all {
        if let Some(parent) = inst.direct_parent {
            *child_time.entry(parent).or_default() += inst.duration_ns;
        }
    }

    let mut folded: BTreeMap<String, u64> = BTreeMap::new();
    for inst in &instances.all {
        // Stack: walk the direct-parent chain to the top-level call.
        let mut frames = vec![instances.name(inst.call)];
        let mut cursor = inst.direct_parent;
        while let Some((kind, row)) = cursor {
            match instances.by_row(kind, row) {
                Some(parent) => {
                    frames.push(instances.name(parent.call));
                    cursor = parent.direct_parent;
                }
                None => break,
            }
        }
        frames.push(format!("thread-{}", inst.thread).into());
        frames.reverse();
        let spent = child_time
            .get(&(inst.call.kind, inst.row))
            .copied()
            .unwrap_or(0);
        let self_ns = inst.duration_ns.saturating_sub(spent);
        *folded.entry(frames.join(";")).or_default() += self_ns;
    }

    let mut out = String::new();
    for (stack, value) in folded {
        out.push_str(&format!("{stack} {value}\n"));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::events::{EcallRow, OcallRow, PagingRow, SymbolRow};
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

    #[test]
    fn empty_trace_exports_cleanly() {
        let trace = TraceDb::default();
        let json = chrome_trace(&trace, &cost());
        assert!(json.contains("\"traceEvents\": [\n\n]"), "{json}");
        assert_eq!(folded_stacks(&trace, &cost()), "");
    }
}
