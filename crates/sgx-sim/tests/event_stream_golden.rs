//! Pinned driver-event stream of the simulated machine.
//!
//! The trace goldens pin what the logger records of whole sessions; this
//! test pins the machine underneath, event by event and with timestamps,
//! on the paths those sessions barely reach: an enclave larger than the
//! EPC evicting its own pages at creation, `touch` and `prefetch` inside
//! a `paging-slow` window, `extend_heap` on a full EPC, `evict_all`, an
//! AEX and eviction storm during `execute_in_enclave`, and a lost
//! enclave. After every step it also records which pages are resident.
//!
//! A hook advances the clock on each fault event, as the logger does
//! when it appends a fault row, so the pin also fixes where each site
//! delivers its fault event relative to its paging cost: `touch` delivers
//! it before the cost and stamps its paging events after the cost;
//! `prefetch` stamps its page-out before the cost and delivers the fault
//! event after it.
//!
//! The pin is the length and FNV-1a digest of the recorded text for each
//! eviction policy. When a change to the machine is intended, the failure
//! message prints the new values.

use std::fmt::Write as _;
use std::sync::Arc;

use sgx_sim::{
    AccessKind, DriverEvent, EnclaveConfig, EnclaveId, EvictionPolicy, Machine, MachineParams,
    SgxVersion, ThreadToken,
};
use sim_core::fault::FaultPlan;
use sim_core::sync::Mutex;
use sim_core::{Clock, HwProfile, Nanos};

/// What the hook charges per fault event (the logger's append overhead).
const FAULT_APPEND: Nanos = Nanos::from_nanos(90);

/// 64-bit FNV-1a.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The machine under test and the text it has produced so far.
struct Recorder {
    machine: Machine,
    log: Arc<Mutex<String>>,
}

impl Recorder {
    fn new(eviction: EvictionPolicy) -> Recorder {
        let machine = Machine::with_params(
            Clock::new(),
            HwProfile::Unpatched,
            MachineParams {
                epc_pages: 96,
                eviction,
                sgx_version: SgxVersion::V2,
            },
        );
        let log = Arc::new(Mutex::new(String::new()));
        let sink = Arc::clone(&log);
        let clock = machine.clock().clone();
        machine.add_driver_hook(Arc::new(move |ev| {
            if matches!(ev, DriverEvent::Fault(_)) {
                clock.advance(FAULT_APPEND);
            }
            writeln!(sink.lock(), "{ev:?}").unwrap();
        }));
        Recorder { machine, log }
    }

    /// Ends a step: its name, the clock and every page's residency.
    fn step(&self, name: &str, enclaves: &[EnclaveId]) {
        let mut line = format!("-- {name} at {:?}:", self.machine.clock().now());
        for &eid in enclaves {
            let total = self.machine.enclave_info(eid).unwrap().total_pages;
            line.push(' ');
            for page in 0..total {
                let resident = self.machine.is_resident(eid, page).unwrap();
                line.push(if resident { '1' } else { '0' });
            }
        }
        writeln!(self.log.lock(), "{line}").unwrap();
    }

    /// Arms `plan`, with `{now}` replaced by the current virtual time.
    fn arm(&self, plan: &str) {
        let now = self.machine.clock().now().as_nanos();
        let plan: FaultPlan = plan.replace("{now}", &now.to_string()).parse().unwrap();
        self.machine.set_fault_plan(Some(&plan));
    }
}

/// Drives every step and returns the recorded text.
fn record(eviction: EvictionPolicy) -> String {
    let r = Recorder::new(eviction);
    let m = &r.machine;
    let small = m.create_enclave(&EnclaveConfig::default()).unwrap();
    r.step("create small", &[small]);
    // 512 pages into a 96-page EPC: evicts the small enclave, then itself.
    let big = m
        .create_enclave(&EnclaveConfig {
            heap_kib: 1_024,
            ..EnclaveConfig::default()
        })
        .unwrap();
    let both = [small, big];
    r.step("create big", &both);

    let heap = m.heap_range(big).unwrap();
    r.arm("seed=3;paging-slow@t={now}ns:factor=4,dur=300us");
    let stats = m
        .touch(
            big,
            ThreadToken(1),
            heap.start..heap.start + 8,
            AccessKind::Read,
        )
        .unwrap();
    r.step(&format!("touch {stats:?}"), &both);

    // The oldest resident pages: LRU re-stamps them, FIFO does not, so the
    // two policies pick different victims from here on.
    let oldest = (heap.start + 8..)
        .find(|&p| m.is_resident(big, p).unwrap())
        .unwrap();
    assert_eq!(m.prefetch(big, oldest..oldest + 5).unwrap(), 0);
    let code = m.code_range(small).unwrap();
    r.arm("seed=5;paging-slow@t={now}ns:factor=3,dur=100us");
    let paged = m.prefetch(small, code.start..code.start + 6).unwrap();
    r.step(&format!("prefetch {paged}"), &both);

    m.set_fault_plan(None);
    let grown = m.extend_heap(big, 5).unwrap();
    r.step(&format!("extend_heap {grown:?}"), &both);

    let evicted = m.evict_all(small).unwrap();
    r.step(&format!("evict_all {evicted}"), &both);

    r.arm("seed=9;aex-storm@call=1:count=3;evict-storm@call=1");
    let aexs = m
        .execute_in_enclave(big, ThreadToken(1), Nanos::from_micros(5_000))
        .unwrap();
    r.step(&format!("execute {aexs}"), &both);

    m.set_fault_plan(None);
    m.touch(
        big,
        ThreadToken(1),
        heap.start..heap.start + 4,
        AccessKind::Write,
    )
    .unwrap();
    r.arm("seed=11;enclave_lost@call=1");
    let lost = m.enter_enclave(big, ThreadToken(1));
    r.step(&format!("enter {lost:?}"), &both);

    let text = r.log.lock().clone();
    text
}

/// (policy, length, FNV-1a digest) of the recorded text.
const PINNED: &[(&str, usize, u64)] = &[
    ("fifo", 69_080, 0x024d_6854_602f_06ef),
    ("lru", 69_080, 0xe27b_6dfa_980d_7c85),
];

#[test]
fn driver_events_are_pinned() {
    let actual: Vec<(&str, usize, u64)> =
        [("fifo", EvictionPolicy::Fifo), ("lru", EvictionPolicy::Lru)]
            .into_iter()
            .map(|(label, policy)| {
                let text = record(policy);
                (label, text.len(), fnv1a(text.as_bytes()))
            })
            .collect();
    let table: String = actual
        .iter()
        .map(|(label, len, digest)| format!("    (\"{label}\", {len}, 0x{digest:016x}),\n"))
        .collect();
    assert_eq!(
        actual, PINNED,
        "driver events changed; new values:\n{table}"
    );
}
