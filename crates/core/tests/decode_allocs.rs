//! Decoding a trace copies no section: the only large allocation is the
//! decoded rows themselves. A counting global allocator, switched on per
//! thread, measures the bytes each decode path asks for.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};

use sgx_perf::events::EcallRow;
use sgx_perf::TraceDb;

struct Counting;

static ALLOCATED: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
}

fn count(bytes: usize) {
    if COUNTING.with(Cell::get) {
        ALLOCATED.fetch_add(bytes, Ordering::Relaxed);
    }
}

// SAFETY: every call is forwarded unchanged to the system allocator; the
// counter only reads the requested sizes.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Bytes allocated on this thread while `f` runs.
fn allocated_by<T>(f: impl FnOnce() -> T) -> (usize, T) {
    ALLOCATED.store(0, Ordering::Relaxed);
    COUNTING.with(|c| c.set(true));
    let out = f();
    COUNTING.with(|c| c.set(false));
    (ALLOCATED.load(Ordering::Relaxed), out)
}

#[test]
fn decoding_allocates_the_rows_and_copies_no_section() {
    const ROWS: usize = 20_000;
    /// The section list and the tags: a few dozen small allocations.
    const FIXED: usize = 4096;
    let mut trace = TraceDb::default();
    for i in 0..ROWS as u64 {
        trace.ecalls.insert(EcallRow {
            thread: i % 4,
            enclave: 1,
            call_index: (i % 7) as u32,
            start_ns: i * 1_000,
            end_ns: i * 1_000 + 500,
            parent_ocall: None,
            aex_count: 0,
            failed: false,
        });
    }
    let bytes = trace.to_bytes();
    let rows = ROWS * std::mem::size_of::<EcallRow>();

    let (whole, back) = allocated_by(|| TraceDb::from_bytes(&bytes).expect("decodes"));
    assert_eq!(back.ecalls.len(), ROWS);
    assert!(
        whole <= rows + FIXED,
        "TraceDb::from_bytes allocated {whole} bytes for {rows} bytes of rows"
    );

    let (split, back) = allocated_by(|| {
        let store = eventdb::Store::from_bytes(&bytes).expect("parses");
        TraceDb::from_store(&store).expect("decodes")
    });
    assert_eq!(back.ecalls.len(), ROWS);
    assert!(
        split <= rows + FIXED,
        "Store::from_bytes + TraceDb::from_store allocated {split} bytes for {rows} bytes of rows"
    );
}
