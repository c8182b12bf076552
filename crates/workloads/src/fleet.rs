//! A SecureKeeper-style *fleet*: one enclave per client, far more logical
//! enclaves than the EPC can hold, driven by a zipfian load generator.
//!
//! The paper's §5.2.4 workload runs a handful of per-client enclaves; this
//! scenario pushes the same model to fleet scale (1000+ enclaves) on top of
//! [`sgx_fleet::FleetManager`]. The EPC is deliberately sized *below* the
//! live pool's working set, so popular clients' enclaves evict unpopular
//! ones' pages — shared-EPC contention becomes a first-class measurement
//! instead of an artefact. Everything is driven from one simulated thread
//! in virtual time, so a 1000-enclave × 100k-request run is byte-identical
//! across repetitions.
//!
//! The resulting trace carries a `fleet` table (one row per slot) that
//! `sgxperf fleet` and the report's fleet-aggregate section render.

use std::sync::Arc;

use sgx_fleet::{Arrival, FleetAggregate, FleetManager, FleetPolicy, LoadGen, SlotStats};
use sgx_perf::{FleetRow, Logger, LoggerConfig, TraceDb};
use sgx_sdk::{CallData, SdkError, SdkResult, ThreadCtx};
use sgx_sim::{AccessKind, EnclaveConfig, EnclaveLayout, MachineParams};
use sim_core::fault::{FaultKind, FaultPlan, FaultTrigger};
use sim_core::{HwProfile, Nanos};
use sim_threads::Simulation;

use crate::harness::{Harness, RunStats, Variant};

/// Each client enclave's interface: one request handler.
pub const EDL: &str = "enclave {
    trusted {
        public uint64_t ecall_serve(uint64_t req);
    };
};";

/// Per-client enclave sizing — small, so a thousand of them are cheap to
/// spin up and a few dozen fill the shrunken EPC.
pub fn enclave_config() -> EnclaveConfig {
    EnclaveConfig {
        code_kib: 4,
        data_kib: 4,
        heap_kib: 16,
        stack_kib: 4,
        tcs_count: 1,
        ..EnclaveConfig::default()
    }
}

/// One fleet scenario: scale, load shape and recovery policy.
#[derive(Debug, Clone)]
pub struct FleetRunConfig {
    /// Logical enclaves (one per client).
    pub slots: usize,
    /// Total requests to generate.
    pub requests: u64,
    /// Zipfian popularity exponent (≈1.0 is the classic web skew).
    pub exponent: f64,
    /// Arrival process.
    pub arrival: Arrival,
    /// Load-generator seed.
    pub seed: u64,
    /// Fleet recovery policy.
    pub policy: FleetPolicy,
}

/// EPC budget as a fraction of the live pool's resident set, in
/// percent. Below 100 means live enclaves *cannot* all fit — hot slots
/// evict cold ones and cross-enclave paging shows up in the trace.
const EPC_PERCENT: usize = 75;

impl FleetRunConfig {
    /// The acceptance-scale scenario: 1000 enclaves × 100k requests.
    pub fn full() -> FleetRunConfig {
        FleetRunConfig {
            slots: 1000,
            requests: 100_000,
            exponent: 0.99,
            arrival: Arrival::Open {
                interarrival: Nanos::from_micros(2),
            },
            seed: 0xF1EE7,
            policy: FleetPolicy::default(),
        }
    }

    /// CI scale: 100 enclaves × 10k requests.
    pub fn smoke() -> FleetRunConfig {
        FleetRunConfig {
            slots: 100,
            requests: 10_000,
            policy: FleetPolicy {
                live_pool: 32,
                ..FleetPolicy::default()
            },
            ..FleetRunConfig::full()
        }
    }

    /// Unit-test scale: small enough for debug builds.
    pub fn tiny() -> FleetRunConfig {
        FleetRunConfig {
            slots: 32,
            requests: 600,
            policy: FleetPolicy {
                live_pool: 8,
                ..FleetPolicy::default()
            },
            ..FleetRunConfig::full()
        }
    }

    /// EPC pages this configuration runs with.
    pub fn epc_pages(&self) -> usize {
        let per_enclave = EnclaveLayout::new(&enclave_config()).total_pages();
        (self.policy.live_pool * per_enclave * EPC_PERCENT / 100).max(per_enclave * 2)
    }
}

/// Outcome of one fleet run.
#[derive(Debug, Clone)]
pub struct FleetRun {
    /// The trace, with the per-slot `fleet` table populated.
    pub trace: TraceDb,
    /// Per-slot statistics (latency samples included).
    pub slots: Vec<SlotStats>,
    /// Fleet-wide aggregate.
    pub aggregate: FleetAggregate,
    /// Throughput bookkeeping (operations = completed requests).
    pub stats: RunStats,
}

/// A chaos plan that loses 5% of `cfg.slots` enclaves, spread evenly
/// across the run's entries. Call-triggered, so each loss lands on the
/// same request on every hardware profile.
pub fn chaos_plan(cfg: &FleetRunConfig) -> FaultPlan {
    let losses = (cfg.slots / 20).max(1) as u64;
    let stride = cfg.requests / (losses + 1);
    let mut plan = FaultPlan::seeded(cfg.seed ^ 0xC0FFEE);
    for i in 1..=losses {
        plan = plan.with(FaultTrigger::AtCall(i * stride), FaultKind::EnclaveLost);
    }
    plan
}

/// Runs the fleet scenario on `profile`, optionally under a fault plan.
/// Terminal per-request failures (e.g. a slot exhausting its restart
/// budget) are absorbed into the per-slot `failed` counters; the run
/// itself only fails on setup errors.
///
/// # Errors
///
/// Propagates SDK failures from fleet construction.
pub fn run(
    profile: HwProfile,
    cfg: &FleetRunConfig,
    plan: Option<&FaultPlan>,
) -> SdkResult<FleetRun> {
    let harness = Harness::with_machine_params(
        profile,
        MachineParams {
            epc_pages: cfg.epc_pages(),
            ..MachineParams::default()
        },
    );
    let logger = Logger::attach(harness.runtime(), LoggerConfig::default());
    let heap_pages = EnclaveLayout::new(&enclave_config()).heap_range().len();
    let mgr = FleetManager::new(harness.runtime(), cfg.policy, cfg.slots, move |rt, slot| {
        let spec = sgx_edl::parse(EDL).map_err(|e| SdkError::Interface(e.to_string()))?;
        let enclave = rt.create_enclave(&spec, &enclave_config())?;
        enclave.register_ecall("ecall_serve", move |ctx, data| {
            // Work scales with the request: a short compute burst plus
            // a couple of heap pages, request-dependent so the working
            // set wanders and the EPC sees real contention.
            ctx.compute(Nanos::from_nanos(800 + (data.scalar % 5) * 150))?;
            let heap = ctx.heap_range()?;
            let page = heap.start + (data.scalar as usize % heap_pages);
            ctx.touch(page..page + 1, AccessKind::Write)?;
            data.ret = data.scalar.wrapping_mul(0x9E37_79B9) ^ slot as u64;
            Ok(())
        })?;
        Ok(enclave)
    });
    harness.machine().set_fault_plan(plan);

    let start = harness.clock().now();
    let sim = Simulation::new(harness.clock().clone());
    {
        let mgr = Arc::clone(&mgr);
        let clock = harness.clock().clone();
        let mut loadgen =
            LoadGen::new(cfg.slots, cfg.exponent, cfg.arrival, cfg.requests, cfg.seed);
        sim.spawn("loadgen", move |ctx| {
            let tcx = ThreadCtx::from_sim(ctx);
            while let Some(plan) = loadgen.next(clock.now()) {
                // Open-loop arrivals in the past dispatch immediately;
                // the lateness is the queueing delay the percentiles see.
                clock.advance_to(plan.arrival);
                let mut data = CallData::new(plan.index);
                // Terminal failures are per-slot events, already counted.
                let _ = mgr.request(&tcx, plan.slot, "ecall_serve", &mut data, plan.arrival);
            }
        });
    }
    sim.run();
    mgr.shutdown();

    let slots = mgr.snapshot();
    let aggregate = FleetAggregate::from_slots(&slots, mgr.live_count(), mgr.breaker_opens());
    let mut trace = logger.finish();
    for (slot, s) in slots.iter().enumerate() {
        trace.fleet.insert(FleetRow {
            slot: slot as u32,
            spin_ups: s.spin_ups,
            restarts: s.restarts,
            requests: s.requests,
            completed: s.completed,
            shed: s.shed,
            failed: s.failed,
            p50_ns: s.p50_ns(),
            p99_ns: s.p99_ns(),
            page_ins: s.page_ins,
            page_outs: s.page_outs,
        });
    }
    Ok(FleetRun {
        stats: RunStats {
            variant: Variant::Enclave,
            operations: aggregate.completed,
            elapsed: harness.clock().now() - start,
        },
        trace,
        slots,
        aggregate,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_fleet_serves_all_requests_with_epc_contention() {
        let cfg = FleetRunConfig::tiny();
        let run = run(HwProfile::Unpatched, &cfg, None).unwrap();
        let agg = &run.aggregate;
        assert_eq!(agg.requests, cfg.requests);
        assert_eq!(agg.completed, cfg.requests);
        assert_eq!(agg.shed + agg.failed, 0);
        // More logical enclaves than the pool holds: retirements force
        // repeat spin-ups of recycled slots.
        assert!(agg.spin_ups as usize > cfg.policy.live_pool);
        assert!(agg.live <= cfg.policy.live_pool);
        // The EPC is smaller than the live working set: contention paging
        // must show up, spread across more than one slot.
        assert!(agg.page_outs > 0, "no cross-enclave evictions observed");
        let victims = run.slots.iter().filter(|s| s.page_outs > 0).count();
        assert!(victims > 1, "evictions should span slots, got {victims}");
        // The trace carries one fleet row per slot.
        assert_eq!(run.trace.fleet.len(), cfg.slots);
        assert!(agg.p99_ns >= agg.p50_ns);
    }

    #[test]
    fn chaos_plan_loses_enclaves_without_opening_the_breaker() {
        let mut cfg = FleetRunConfig::tiny();
        // Throttling alone absorbs the storm: spacing caps rebuilds in the
        // window at window/spacing = 10 < threshold.
        cfg.policy.restart_spacing = Nanos::from_micros(500);
        cfg.policy.storm_window = Nanos::from_millis(5);
        cfg.policy.storm_threshold = 16;
        let plan = chaos_plan(&cfg);
        let run = run(HwProfile::Unpatched, &cfg, Some(&plan)).unwrap();
        let agg = &run.aggregate;
        assert!(agg.restarts > 0, "chaos plan must cost rebuilds");
        assert_eq!(agg.breaker_opens, 0, "throttling must absorb the storm");
        assert_eq!(agg.completed + agg.shed + agg.failed, cfg.requests);
    }

    #[test]
    fn identical_runs_are_deterministic() {
        let cfg = FleetRunConfig {
            slots: 16,
            requests: 200,
            policy: FleetPolicy {
                live_pool: 4,
                ..FleetPolicy::default()
            },
            ..FleetRunConfig::full()
        };
        let a = run(HwProfile::Unpatched, &cfg, None).unwrap();
        let b = run(HwProfile::Unpatched, &cfg, None).unwrap();
        assert_eq!(a.stats.elapsed, b.stats.elapsed);
        assert_eq!(a.aggregate, b.aggregate);
    }
}
