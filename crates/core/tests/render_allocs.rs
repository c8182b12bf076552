//! Rendering a report (as text or JSON) or a call graph writes every row
//! into one string: the allocation calls stay far below one per row. A
//! counting global allocator counts the calls each renderer makes on its
//! own thread, so the tests may run in parallel.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use sgx_perf::events::{EcallRow, PagingRow, SymbolRow};
use sgx_perf::{Analyzer, TraceDb};
use sim_core::HwProfile;

struct Counting;

thread_local! {
    /// Allocation calls made on this thread, while one is being counted.
    static CALLS: Cell<Option<usize>> = const { Cell::new(None) };
}

fn count() {
    CALLS.with(|c| c.set(c.get().map(|n| n + 1)));
}

// SAFETY: every call is forwarded unchanged to the system allocator; the
// counter only counts the calls.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocation calls (alloc and realloc) made on this thread while `f` runs.
fn allocations_by<T>(f: impl FnOnce() -> T) -> (usize, T) {
    CALLS.with(|c| c.set(Some(0)));
    let out = f();
    let calls = CALLS.with(|c| c.take()).expect("counting was on");
    (calls, out)
}

/// One ecall symbol per enclave, each called twice, and a page-out in
/// every other enclave: `enclaves` call rows and nodes, half as many
/// paging findings.
fn fleet_like(enclaves: u32) -> TraceDb {
    let mut trace = TraceDb::default();
    for enclave in 1..=enclaves {
        trace.symbols.insert(SymbolRow {
            enclave,
            kind_is_ecall: true,
            index: 0,
            name: format!("ecall_serve_{enclave}"),
            public: true,
            allowed_ecalls: vec![],
            user_check_params: vec![],
        });
        let start = u64::from(enclave) * 100_000;
        for k in 0..2 {
            let t = start + k * 20_000;
            trace.ecalls.insert(EcallRow {
                thread: u64::from(enclave % 8),
                enclave,
                call_index: 0,
                start_ns: t,
                end_ns: t + 5_000 + u64::from(enclave) * 3,
                parent_ocall: None,
                aex_count: 0,
                failed: false,
            });
        }
        if enclave % 2 == 0 {
            trace.paging.insert(PagingRow {
                enclave,
                out: true,
                vaddr: 0x1000,
                time_ns: start,
            });
        }
    }
    trace
}

/// Far fewer allocation calls than rows: a string per row or cell would
/// make several per row.
fn bound(rows: usize) -> usize {
    64 + rows / 64
}

#[test]
fn report_render_allocates_far_less_than_once_per_row() {
    let trace = fleet_like(5_000);
    let report = Analyzer::new(&trace, HwProfile::Unpatched.cost_model()).analyze();
    assert!(
        report.call_stats.len() >= 5_000,
        "{}",
        report.call_stats.len()
    );
    assert!(
        report.detections.len() >= 2_000,
        "{}",
        report.detections.len()
    );
    let rows = report.call_stats.len() + report.detections.len();
    let (calls, text) = allocations_by(|| report.render());
    assert!(text.lines().count() > rows);
    assert!(
        calls <= bound(rows),
        "Report::render made {calls} allocation calls for {rows} rows"
    );
}

#[test]
fn report_json_allocates_far_less_than_once_per_row() {
    let trace = fleet_like(5_000);
    let report = Analyzer::new(&trace, HwProfile::Unpatched.cost_model()).analyze();
    let rows = report.call_stats.len() + report.detections.len();
    assert!(rows >= 7_000, "{rows}");
    let (calls, json) = allocations_by(|| report.to_json());
    assert!(json.lines().count() > rows);
    assert!(
        calls <= bound(rows),
        "Report::to_json made {calls} allocation calls for {rows} rows"
    );
}

#[test]
fn dot_allocates_far_less_than_once_per_node() {
    let trace = fleet_like(5_000);
    let graph = Analyzer::new(&trace, HwProfile::Unpatched.cost_model()).call_graph();
    assert!(graph.nodes.len() >= 5_000, "{}", graph.nodes.len());
    let rows = graph.nodes.len() + graph.edges.len();
    let (calls, dot) = allocations_by(|| graph.to_dot());
    assert!(dot.lines().count() > rows);
    assert!(
        calls <= bound(rows),
        "CallGraph::to_dot made {calls} allocation calls for {rows} nodes and edges"
    );
}
