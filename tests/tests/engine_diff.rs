//! The differential golden matrix: every registered workload, on every
//! hardware profile, with and without a fault plan, must produce
//! **byte-identical traces** on the legacy OS-thread engine and the fast
//! coroutine engine.
//!
//! This is the tier-1 lockdown of the engine swap's refutable invariant:
//! a simulated program's interleaving is a pure function of the
//! scheduling algorithm, so if the fast engine replicates that algorithm
//! exactly, no trace byte can move. Any divergence — an event reordered,
//! a virtual timestamp shifted, a fault landing on a different call —
//! fails here with the first differing cell named.
//!
//! The matrix runs every cell through `MatrixPlan::run_cell`, the same
//! code path `sgxperf campaign` archives, so it checks what users run.

use sim_core::campaign::CampaignSpec;
use sim_core::fault::{FaultKind, FaultPlan, FaultTrigger};
use sim_core::{HwProfile, Nanos};
use sim_threads::{with_engine, Engine};
use workloads::campaign::matrix::MatrixPlan;
use workloads::campaign::Workload;
use workloads::fleet::{self, FleetRunConfig};
use workloads::{chaos, supervisor_loop};

/// The seeded plan a workload runs under in the matrix's `chaos` column.
/// The race fixture stays fault-free.
fn chaos_plan(workload: Workload) -> Option<FaultPlan> {
    match workload {
        Workload::Racy => None,
        Workload::Supervisor => Some(supervisor_loop::loss_plan(13)),
        Workload::Fleet => Some(fleet::chaos_plan(&FleetRunConfig::tiny())),
        _ => Some(chaos::random_plan(11)),
    }
}

/// A one-workload spec over every hardware profile with the fault plans
/// `none` and, where the workload takes one, `chaos`.
fn spec(workload: Workload) -> MatrixPlan {
    let profiles: Vec<String> = HwProfile::ALL
        .iter()
        .map(|p| format!("\"{}\"", p.file_label()))
        .collect();
    let chaos = chaos_plan(workload).map_or(String::new(), |p| format!("chaos = \"{p}\"\n"));
    let src = format!(
        "[campaign]\nname = \"engine-diff\"\n\
         [matrix]\nworkloads = [\"{}\"]\nprofiles = [{}]\nseeds = [1]\n\
         [faults]\nnone = \"\"\n{chaos}",
        workload.label(),
        profiles.join(", "),
    );
    let spec = CampaignSpec::parse(&src).unwrap_or_else(|e| panic!("{e}\n{src}"));
    MatrixPlan::from_spec(spec).unwrap_or_else(|e| panic!("{e}\n{src}"))
}

/// The full matrix: every campaign workload × every hardware profile ×
/// {fault-free, seeded chaos}, the race fixture fault-free only.
#[test]
fn every_workload_profile_and_plan_is_byte_identical_across_engines() {
    let mut cells = 0;
    for workload in Workload::ALL {
        let plan = spec(workload);
        for coord in plan.cells() {
            let file = plan.file_name(&coord);
            let legacy = with_engine(Engine::Legacy, || plan.run_cell(&coord, 0));
            let fast = with_engine(Engine::Fast, || plan.run_cell(&coord, 0));
            assert_eq!(
                legacy,
                fast,
                "engine divergence on {file} ({} legacy byte(s) vs {} fast byte(s))",
                legacy.len(),
                fast.len(),
            );
            let faults = chaos::fault_rows(&fast);
            if plan.spec.plans[coord.plan].0 == "chaos" {
                assert!(faults > 0, "{file}: chaos plan recorded no fault rows");
            } else {
                assert_eq!(faults, 0, "{file}: fault rows without a plan");
            }
            cells += 1;
        }
    }
    let profiles = HwProfile::ALL.len();
    assert_eq!(cells, Workload::ALL.len() * profiles * 2 - profiles);
}

/// The worker-stall semantics are the sharpest edge the fast engine must
/// preserve: stalled switchless workers *yield* through the stall window
/// (PR 3 made stalls cooperative) precisely because the scheduler only
/// wakes sleepers once the run queue drains — spinning callers keep it
/// populated. An engine that woke sleepers eagerly would serve these
/// calls switchlessly instead of letting the spin budgets exhaust, and
/// the traces would diverge in both event order and fallback counts.
#[test]
fn switchless_worker_stalls_are_byte_identical_across_engines() {
    for profile in HwProfile::ALL {
        let plan = FaultPlan::seeded(0x57A11)
            .with(
                FaultTrigger::AtCall(5),
                FaultKind::WorkerStall {
                    delay: Nanos::from_micros(40),
                },
            )
            .with(FaultTrigger::AtCall(25), FaultKind::RingFull { calls: 4 });
        let legacy = with_engine(Engine::Legacy, || {
            chaos::switchless_trace(profile, Some(&plan))
        });
        let fast = with_engine(Engine::Fast, || {
            chaos::switchless_trace(profile, Some(&plan))
        });
        assert_eq!(
            legacy,
            fast,
            "worker-stall divergence on {}",
            profile.label()
        );
        // The stall must actually have fired for this to test anything.
        assert!(
            chaos::fault_rows(&fast) >= 2,
            "stall plan did not fire on {}",
            profile.label()
        );
    }
}

/// Randomized chaos plans across both engines: a denser sweep of the
/// fault grammar than the matrix's single seed.
#[test]
fn random_chaos_plans_are_byte_identical_across_engines() {
    for seed in [3u64, 0xDEAD, 0xBEEF, 0xF00D] {
        let plan = chaos::random_plan(seed);
        let legacy = with_engine(Engine::Legacy, || {
            chaos::antipatterns_trace(HwProfile::Unpatched, Some(&plan))
        });
        let fast = with_engine(Engine::Fast, || {
            chaos::antipatterns_trace(HwProfile::Unpatched, Some(&plan))
        });
        assert_eq!(legacy, fast, "chaos divergence on seed {seed:#x}");
    }
}
