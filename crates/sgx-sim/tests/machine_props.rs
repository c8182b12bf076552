//! Property tests of the machine's EPC bookkeeping. The EPC is the only
//! record of which pages are resident; under arbitrary sequences of
//! enclave lifecycle, memory and fault operations, its per-enclave counts
//! must match its per-page membership and sum to its total.
//!
//! (The machine once kept per-page resident flags beside the EPC, and a
//! bug in enclave creation made them disagree: pages evicted during their
//! own enclave's creation stayed flagged resident.)

use proptest::prelude::*;
use sgx_sim::{
    AccessKind, EnclaveConfig, EnclaveId, EvictionPolicy, Machine, MachineParams, SgxVersion,
    ThreadToken,
};
use sim_core::fault::FaultPlan;
use sim_core::{Clock, HwProfile, Nanos};

#[derive(Debug, Clone)]
enum Op {
    Create {
        heap_kib: usize,
    },
    TouchHeap {
        enclave: usize,
        offset: usize,
        len: usize,
    },
    Prefetch {
        enclave: usize,
        offset: usize,
        len: usize,
    },
    EvictAll {
        enclave: usize,
    },
    ExtendHeap {
        enclave: usize,
        pages: usize,
    },
    Destroy {
        enclave: usize,
    },
    /// An `enclave_lost` fault at the next entry drops every page.
    Lose {
        enclave: usize,
    },
    /// An `evict-storm` fault during enclave execution evicts every page.
    EvictStorm {
        enclave: usize,
    },
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (8usize..256).prop_map(|heap_kib| Op::Create { heap_kib }),
        (any::<usize>(), 0usize..64, 1usize..16).prop_map(|(enclave, offset, len)| Op::TouchHeap {
            enclave,
            offset,
            len
        }),
        (any::<usize>(), 0usize..64, 1usize..16).prop_map(|(enclave, offset, len)| Op::Prefetch {
            enclave,
            offset,
            len
        }),
        any::<usize>().prop_map(|enclave| Op::EvictAll { enclave }),
        (any::<usize>(), 1usize..8).prop_map(|(enclave, pages)| Op::ExtendHeap { enclave, pages }),
        any::<usize>().prop_map(|enclave| Op::Destroy { enclave }),
        any::<usize>().prop_map(|enclave| Op::Lose { enclave }),
        any::<usize>().prop_map(|enclave| Op::EvictStorm { enclave }),
    ]
}

fn check_invariants(machine: &Machine, live: &[EnclaveId]) {
    // 1. EPC never over-full.
    assert!(machine.epc_resident() <= machine.epc_capacity());
    // 2. Each enclave's count agrees with the EPC's per-page membership,
    //    and the counts sum to the EPC's total.
    let mut counted_total = 0;
    for &eid in live {
        let info = machine.enclave_info(eid).expect("live enclave");
        if machine.is_lost(eid).expect("live enclave") {
            assert_eq!(info.resident_pages, 0, "{eid} is lost");
        }
        counted_total += info.resident_pages;
        let mut in_epc = 0;
        for page in 0..info.total_pages {
            if machine.is_resident(eid, page).expect("valid page") {
                in_epc += 1;
            }
        }
        assert_eq!(
            info.resident_pages, in_epc,
            "{eid}: counted {} resident, EPC holds {in_epc}",
            info.resident_pages
        );
    }
    assert_eq!(counted_total, machine.epc_resident());
}

/// Arms a fault plan that fires once.
fn arm(machine: &Machine, plan: &str) {
    let plan: FaultPlan = plan.parse().unwrap();
    machine.set_fault_plan(Some(&plan));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn resident_counts_match_epc_membership(
        ops in proptest::collection::vec(arb_op(), 1..40),
        epc_pages in 64usize..512,
        lru in any::<bool>(),
    ) {
        let machine = Machine::with_params(
            Clock::new(),
            HwProfile::Unpatched,
            MachineParams {
                epc_pages,
                eviction: if lru { EvictionPolicy::Lru } else { EvictionPolicy::Fifo },
                sgx_version: SgxVersion::V2,
            },
        );
        let mut live: Vec<EnclaveId> = Vec::new();
        for op in ops {
            match op {
                Op::Create { heap_kib } => {
                    let eid = machine
                        .create_enclave(&EnclaveConfig {
                            heap_kib,
                            ..EnclaveConfig::default()
                        })
                        .unwrap();
                    live.push(eid);
                }
                Op::TouchHeap { enclave, offset, len } if !live.is_empty() => {
                    let eid = live[enclave % live.len()];
                    let heap = machine.heap_range(eid).unwrap();
                    let start = heap.start + offset.min(heap.len().saturating_sub(1));
                    let end = (start + len).min(heap.end);
                    if start < end {
                        machine
                            .touch(eid, ThreadToken::MAIN, start..end, AccessKind::Write)
                            .unwrap();
                    }
                }
                Op::Prefetch { enclave, offset, len } if !live.is_empty() => {
                    let eid = live[enclave % live.len()];
                    let heap = machine.heap_range(eid).unwrap();
                    let start = heap.start + offset.min(heap.len().saturating_sub(1));
                    let end = (start + len).min(heap.end);
                    if start < end {
                        machine.prefetch(eid, start..end).unwrap();
                    }
                }
                Op::EvictAll { enclave } if !live.is_empty() => {
                    let eid = live[enclave % live.len()];
                    machine.evict_all(eid).unwrap();
                }
                Op::ExtendHeap { enclave, pages } if !live.is_empty() => {
                    let eid = live[enclave % live.len()];
                    // May legitimately run out of padding reserve.
                    let _ = machine.extend_heap(eid, pages);
                }
                Op::Destroy { enclave } if !live.is_empty() => {
                    let eid = live.remove(enclave % live.len());
                    machine.destroy_enclave(eid).unwrap();
                }
                Op::Lose { enclave } if !live.is_empty() => {
                    let eid = live[enclave % live.len()];
                    arm(&machine, "enclave_lost@call=1");
                    machine.enter_enclave(eid, ThreadToken::MAIN).unwrap_err();
                    // Checked once while lost, then destroyed, as a
                    // supervisor would before rebuilding it.
                    check_invariants(&machine, &live);
                    live.retain(|&e| e != eid);
                    machine.destroy_enclave(eid).unwrap();
                }
                Op::EvictStorm { enclave } if !live.is_empty() => {
                    let eid = live[enclave % live.len()];
                    arm(&machine, "evict-storm@call=1");
                    machine
                        .execute_in_enclave(eid, ThreadToken::MAIN, Nanos::from_micros(1))
                        .unwrap();
                }
                _ => {}
            }
            check_invariants(&machine, &live);
        }
    }

    /// Touching any accessible page always leaves it resident, regardless
    /// of prior eviction history.
    #[test]
    fn touched_pages_end_up_resident(
        epc_pages in 48usize..128,
        touches in proptest::collection::vec((0usize..64, 1usize..8), 1..20),
    ) {
        let machine = Machine::with_params(
            Clock::new(),
            HwProfile::Unpatched,
            MachineParams {
                epc_pages,
                ..MachineParams::default()
            },
        );
        let eid = machine
            .create_enclave(&EnclaveConfig {
                heap_kib: 512, // bigger than any tested EPC
                ..EnclaveConfig::default()
            })
            .unwrap();
        let heap = machine.heap_range(eid).unwrap();
        for (offset, len) in touches {
            let start = heap.start + offset.min(heap.len() - 1);
            let end = (start + len).min(heap.end);
            machine
                .touch(eid, ThreadToken::MAIN, start..end, AccessKind::Read)
                .unwrap();
            for page in start..end {
                prop_assert!(machine.is_resident(eid, page).unwrap());
            }
        }
    }
}
