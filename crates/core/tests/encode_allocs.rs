//! Encoding a trace writes the container once, into one buffer sized
//! before the first byte: no table blob of its own, no buffer that grows
//! from empty. A counting global allocator counts the allocation calls
//! `TraceDb::to_bytes` makes on its own thread.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use sgx_perf::events::{EcallRow, OcallRow, PagingRow, SwitchlessRow, SymbolRow};
use sgx_perf::TraceDb;

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

/// 60,000 rows over five tables, with strings, lists, options and values
/// near `u64::MAX`.
fn large_trace() -> TraceDb {
    let mut trace = TraceDb::default();
    for i in 0..20_000u64 {
        trace.ecalls.insert(EcallRow {
            thread: i % 4,
            enclave: 1,
            call_index: (i % 7) as u32,
            start_ns: i * 1_000,
            end_ns: i * 1_000 + 500,
            parent_ocall: (i % 3 == 0).then_some(i / 2),
            aex_count: 0,
            failed: false,
        });
        trace.ocalls.insert(OcallRow {
            thread: i % 4,
            enclave: 1,
            call_index: (i % 5) as u32,
            start_ns: i * 1_000 + 100,
            end_ns: i * 1_000 + 200,
            parent_ecall: Some(i),
            failed: i % 11 == 0,
        });
    }
    for i in 0..10_000u64 {
        trace.paging.insert(PagingRow {
            enclave: 1,
            out: i % 2 == 0,
            vaddr: u64::MAX - i,
            time_ns: i * 2_000,
        });
        trace.switchless.insert(SwitchlessRow {
            thread: i % 4,
            enclave: 1,
            kind: (i % 3) as u8,
            call_index: (i % 2 == 0).then_some((i % 9) as u32),
            worker: None,
            spins: u64::MAX - i,
            time_ns: i * 2_000 + 7,
        });
    }
    for i in 0..1_000u32 {
        trace.symbols.insert(SymbolRow {
            enclave: i % 10,
            kind_is_ecall: i % 2 == 0,
            index: i,
            name: format!("ecall_serve_{i}"),
            public: true,
            allowed_ecalls: (0..i % 4).collect(),
            user_check_params: (0..i % 3).map(|p| format!("p{p}")).collect(),
        });
    }
    trace
}

#[test]
fn to_bytes_allocates_its_buffer_once() {
    let trace = large_trace();
    let rows: usize = trace.table_rows().iter().map(|&(_, rows)| rows).sum();
    assert!(rows >= 50_000, "{rows}");
    let (calls, bytes) = allocations_by(|| trace.to_bytes());
    assert_eq!(bytes, trace.to_store().to_bytes());
    assert!(
        calls <= 2,
        "TraceDb::to_bytes made {calls} allocation calls for {rows} rows"
    );
}
