//! Dedicated stressor workloads for campaign matrices, one per resource
//! axis (the Stress-SGX decomposition): EPC paging pressure, enclave
//! transition rate, ocall-bound IO, and in-enclave compute.
//!
//! Unlike the §5 application reproductions these are *pure* stressors —
//! each saturates exactly one cost-model path so a campaign cell's diff
//! verdict attributes cleanly to the axis under test. One recipe builds
//! all four: an enclave with one ecall, called in a loop from one thread
//! on the deterministic scheduler. A stressor is its EDL, enclave
//! config, ecall body and ocalls. The campaign's switchless axis applies
//! uniformly: with `n` workers, the hot calls (the ocalls where there are
//! any, else the ecall) go through the rings, served by `n` workers.
//!
//! Determinism contract: a stressor trace is a pure function of
//! (stressor, profile, fault plan, [`StressorConfig`]). The seed perturbs
//! only what the stressor declares it perturbs (the EPC-thrash visit
//! order); operation counts are seed-invariant so seed replicas never
//! regress against their baseline cell.

use std::sync::Arc;

use sgx_perf::{Logger, LoggerConfig};
use sgx_sdk::{CallData, OcallTableBuilder, SdkResult, SwitchlessConfig, ThreadCtx};
use sgx_sim::{AccessKind, EnclaveConfig, MachineParams};
use sim_core::fault::FaultPlan;
use sim_core::{HwProfile, Nanos};
use sim_threads::Simulation;

use crate::harness::Harness;

/// The four stressor axes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stressor {
    /// Working-set sweeps past the EPC: continuous EWB/ELDU traffic.
    EpcThrash,
    /// Tight sub-transition-time ecalls: transition-rate saturation.
    EcallStorm,
    /// write+fsync ocall pairs from inside an ecall: ocall/IO-bound.
    IoFsyncLoop,
    /// Long in-enclave compute bursts past the timer quantum: AEX-bound.
    CpuCompute,
}

impl Stressor {
    /// All stressors, in axis order.
    pub const ALL: [Stressor; 4] = [
        Stressor::EpcThrash,
        Stressor::EcallStorm,
        Stressor::IoFsyncLoop,
        Stressor::CpuCompute,
    ];

    /// Filename-safe label, also the campaign-spec workload name.
    pub fn label(self) -> &'static str {
        match self {
            Stressor::EpcThrash => "epc_thrash",
            Stressor::EcallStorm => "ecall_storm",
            Stressor::IoFsyncLoop => "io_fsync_loop",
            Stressor::CpuCompute => "cpu_compute",
        }
    }
}

/// Per-cell stressor knobs.
#[derive(Debug, Clone, Copy, Default)]
pub struct StressorConfig {
    /// Perturbs the EPC-thrash page visit order; no-op for the other
    /// stressors (their operation counts must stay seed-invariant).
    pub seed: u64,
    /// `Some(n)` routes the stressor's hot calls through the switchless
    /// rings with `n` workers on the serving side.
    pub switchless_workers: Option<usize>,
}

/// Heap pages the EPC-thrash enclave touches per sweep.
const THRASH_HEAP_PAGES: usize = 128;

/// Machine parameters for the EPC thrash: an EPC half the thrash working
/// set, so every sweep evicts.
fn epc_thrash_params() -> MachineParams {
    MachineParams {
        epc_pages: THRASH_HEAP_PAGES / 2,
        ..MachineParams::default()
    }
}

fn xorshift(state: &mut u64) -> u64 {
    *state ^= *state << 13;
    *state ^= *state >> 7;
    *state ^= *state << 17;
    *state
}

/// The seeded page visit order of one EPC-thrash run: a Fisher–Yates
/// shuffle of the heap pages.
fn thrash_order(seed: u64) -> Vec<usize> {
    let mut order: Vec<usize> = (0..THRASH_HEAP_PAGES).collect();
    let mut state = seed ^ 0xE9C0_7412;
    for i in (1..order.len()).rev() {
        let j = (xorshift(&mut state) % (i as u64 + 1)) as usize;
        order.swap(i, j);
    }
    order
}

/// Campaign-scale operation counts: small enough for the debug-build
/// engine-diff matrix, large enough that each stressor's signature
/// dominates its trace.
fn default_ops(stressor: Stressor) -> u64 {
    match stressor {
        Stressor::EpcThrash => 3,
        Stressor::EcallStorm => 400,
        Stressor::IoFsyncLoop => 96,
        Stressor::CpuCompute => 3,
    }
}

/// Runs `stressor` under the logger with `plan` installed and returns the
/// serialised trace — the campaign cell body. Builds the right harness
/// (an EPC half the thrash working set for the thrash axis, defaults
/// otherwise).
///
/// # Panics
///
/// Panics on SDK failure (stressor cells are all recoverable
/// configurations, so a failure is a bug).
pub fn trace(
    stressor: Stressor,
    profile: HwProfile,
    plan: Option<&FaultPlan>,
    cfg: &StressorConfig,
) -> Vec<u8> {
    let harness = match stressor {
        Stressor::EpcThrash => Harness::with_machine_params(profile, epc_thrash_params()),
        _ => Harness::new(profile),
    };
    let logger = Logger::attach(harness.runtime(), LoggerConfig::default());
    harness.machine().set_fault_plan(plan);
    run(stressor, &harness, default_ops(stressor), cfg)
        .unwrap_or_else(|e| panic!("{} stressor cell: {e:?}", stressor.label()));
    logger.finish().to_bytes()
}

/// The one stressor recipe: creates the stressor's enclave and registers
/// its ecall, builds the host's ocall table, then issues `ops` ecalls
/// from one scheduler thread, with the switchless workers (if
/// configured) spawned before it and shut down by it.
fn run(stressor: Stressor, harness: &Harness, ops: u64, cfg: &StressorConfig) -> SdkResult<()> {
    let rt = harness.runtime();
    let create = |edl: &str, config: &EnclaveConfig| {
        rt.create_enclave(&sgx_edl::parse(edl).expect("static EDL"), config)
    };
    // Per stressor: the enclave with its one ecall registered, that
    // ecall's name, what one ecall is called in panic messages, and the
    // host cost of each ocall. The ocalls are the hot calls when there
    // are any; otherwise the ecall is.
    let (enclave, ecall, what, ocalls): (_, _, _, &[(&str, Nanos)]) = match stressor {
        // Sweeps a heap twice the EPC page by page in a seeded order:
        // every sweep forces ~half the working set through EWB/ELDU.
        Stressor::EpcThrash => {
            let enclave = create(
                "enclave { trusted { public void ecall_sweep(uint64_t pass); }; };",
                &EnclaveConfig {
                    heap_kib: THRASH_HEAP_PAGES * 4, // 4 KiB pages
                    ..EnclaveConfig::default()
                },
            )?;
            let heap = harness.machine().heap_range(enclave.id())?;
            let order = thrash_order(cfg.seed);
            enclave.register_ecall("ecall_sweep", move |ctx, _| {
                for &page in &order {
                    let p = heap.start + page; // heap_range is in pages
                    ctx.touch(p..p + 1, AccessKind::Write)?;
                }
                ctx.compute(Nanos::from_micros(20))?;
                Ok(())
            })?;
            (enclave, "ecall_sweep", "sweep", &[])
        }
        // Nothing but transition overhead: the purest SISC shape.
        Stressor::EcallStorm => {
            let enclave = create(
                "enclave { trusted { public void ecall_spin(uint64_t i); }; };",
                &EnclaveConfig::default(),
            )?;
            enclave.register_ecall("ecall_spin", |ctx, _| {
                ctx.compute(Nanos::from_nanos(200))?;
                Ok(())
            })?;
            (enclave, "ecall_spin", "call", &[])
        }
        // The naïve enclavised storage shape (§5.2.2): a write+fsync
        // ocall pair per record.
        Stressor::IoFsyncLoop => {
            let enclave = create(
                "enclave { trusted { public void ecall_append(uint64_t rec); };
                   untrusted { void ocall_write(uint64_t len); void ocall_fsync(uint64_t f); }; };",
                &EnclaveConfig::default(),
            )?;
            enclave.register_ecall("ecall_append", |ctx, data| {
                ctx.compute(Nanos::from_nanos(800))?; // serialize the record
                ctx.ocall("ocall_write", &mut CallData::new(data.scalar))?;
                ctx.ocall("ocall_fsync", &mut CallData::new(0))?;
                Ok(())
            })?;
            // The flush dominates.
            let ocalls = const {
                &[
                    ("ocall_write", Nanos::from_micros(1)),
                    ("ocall_fsync", Nanos::from_micros(8)),
                ]
            };
            (enclave, "ecall_append", "append", ocalls)
        }
        // ~2 timer quanta per burst (quantum ≈ 3.94 ms): every burst
        // takes AEXs (the paper's 45 ms ecall shape at small scale).
        Stressor::CpuCompute => {
            let enclave = create(
                "enclave { trusted { public void ecall_crunch(uint64_t n); }; };",
                &EnclaveConfig::default(),
            )?;
            enclave.register_ecall("ecall_crunch", |ctx, _| {
                ctx.compute(Nanos::from_micros(8_000))?;
                Ok(())
            })?;
            (enclave, "ecall_crunch", "burst", &[])
        }
    };
    let mut builder = OcallTableBuilder::new(enclave.spec());
    for &(name, cost) in ocalls {
        builder.register(name, move |host, _| {
            host.compute(cost);
            Ok(())
        })?;
    }
    let table = Arc::new(builder.build()?);
    let switchless = cfg.switchless_workers.map(|n| match ocalls {
        [] => SwitchlessConfig {
            trusted_workers: n,
            force_ecalls: vec![ecall.to_string()],
            ..SwitchlessConfig::default()
        },
        _ => SwitchlessConfig {
            untrusted_workers: n,
            force_ocalls: ocalls.iter().map(|(name, _)| name.to_string()).collect(),
            ..SwitchlessConfig::default()
        },
    });
    let eid = enclave.id();
    let sim = Simulation::new(harness.clock().clone());
    let sw = match switchless {
        Some(config) => {
            let sw = rt.enable_switchless(eid, config)?;
            sw.spawn_workers(&sim);
            Some(sw)
        }
        None => None,
    };
    let rt = Arc::clone(rt);
    sim.spawn("stressor", move |ctx| {
        let tcx = ThreadCtx::from_sim(ctx);
        for i in 0..ops {
            rt.ecall(&tcx, eid, ecall, &table, &mut CallData::new(i))
                .unwrap_or_else(|e| panic!("{} {what}: {e:?}", stressor.label()));
        }
        if let Some(sw) = &sw {
            sw.shutdown(ctx);
        }
    });
    sim.run();
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use sgx_perf::TraceDb;

    fn db(bytes: &[u8]) -> TraceDb {
        TraceDb::from_bytes(bytes).expect("trace bytes")
    }

    #[test]
    fn epc_thrash_pages_continuously() {
        let h = Harness::with_machine_params(HwProfile::Unpatched, epc_thrash_params());
        let logger = Logger::attach(h.runtime(), LoggerConfig::default());
        run(Stressor::EpcThrash, &h, 3, &StressorConfig::default()).unwrap();
        let paging = logger.finish().paging.len();
        // Half the working set misses on every sweep after the first.
        assert!(paging >= THRASH_HEAP_PAGES, "{paging} paging row(s)");
    }

    #[test]
    fn thrash_order_is_a_seeded_permutation() {
        let a = thrash_order(1);
        let b = thrash_order(2);
        assert_ne!(a, b);
        assert_eq!(thrash_order(1), a);
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..THRASH_HEAP_PAGES).collect::<Vec<_>>());
    }

    #[test]
    fn seed_changes_thrash_trace_but_not_op_count() {
        let a = trace(
            Stressor::EpcThrash,
            HwProfile::Unpatched,
            None,
            &StressorConfig {
                seed: 1,
                ..StressorConfig::default()
            },
        );
        let b = trace(
            Stressor::EpcThrash,
            HwProfile::Unpatched,
            None,
            &StressorConfig {
                seed: 2,
                ..StressorConfig::default()
            },
        );
        assert_ne!(a, b, "visit order must differ");
        assert_eq!(db(&a).ecalls.len(), db(&b).ecalls.len());
    }

    #[test]
    fn ecall_storm_is_transition_bound() {
        let h = Harness::new(HwProfile::Unpatched);
        let logger = Logger::attach(h.runtime(), LoggerConfig::default());
        run(Stressor::EcallStorm, &h, 400, &StressorConfig::default()).unwrap();
        let trace = logger.finish();
        assert_eq!(trace.ecalls.len(), 400);
        assert!(trace.ocalls.is_empty());
    }

    #[test]
    fn io_fsync_loop_is_ocall_bound() {
        let h = Harness::new(HwProfile::Unpatched);
        let logger = Logger::attach(h.runtime(), LoggerConfig::default());
        run(Stressor::IoFsyncLoop, &h, 50, &StressorConfig::default()).unwrap();
        let trace = logger.finish();
        assert_eq!(trace.ecalls.len(), 50);
        assert_eq!(trace.ocalls.len(), 100, "write + fsync per append");
    }

    #[test]
    fn cpu_compute_takes_aexs() {
        let h = Harness::new(HwProfile::Unpatched);
        let logger = Logger::attach(
            h.runtime(),
            LoggerConfig {
                aex: sgx_perf::AexMode::Count,
                ..LoggerConfig::default()
            },
        );
        run(Stressor::CpuCompute, &h, 3, &StressorConfig::default()).unwrap();
        let trace = logger.finish();
        let aexs: u64 = trace.ecalls.iter().map(|e| e.aex_count).sum();
        assert!(aexs >= 3, "every burst spans a timer quantum, got {aexs}");
    }

    #[test]
    fn switchless_workers_take_over_the_hot_calls() {
        for (stressor, expect_dispatch) in [
            (Stressor::EcallStorm, true),
            (Stressor::IoFsyncLoop, true),
            (Stressor::EpcThrash, true),
            (Stressor::CpuCompute, true),
        ] {
            let on = StressorConfig {
                switchless_workers: Some(1),
                ..StressorConfig::default()
            };
            let bytes = trace(stressor, HwProfile::Unpatched, None, &on);
            let t = db(&bytes);
            let dispatched = t.switchless.len();
            assert_eq!(
                dispatched > 0,
                expect_dispatch,
                "{}: {dispatched} switchless row(s)",
                stressor.label()
            );
        }
    }

    #[test]
    fn traces_are_deterministic_per_cell() {
        for stressor in Stressor::ALL {
            for cfg in [
                StressorConfig::default(),
                StressorConfig {
                    seed: 9,
                    switchless_workers: Some(2),
                },
            ] {
                let a = trace(stressor, HwProfile::Spectre, None, &cfg);
                let b = trace(stressor, HwProfile::Spectre, None, &cfg);
                assert_eq!(a, b, "{} must replay", stressor.label());
            }
        }
    }
}
