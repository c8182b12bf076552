//! The three recording sessions the benchmark drives — TaLoS, the
//! switchless request server and the fleet — and the probes the traced run
//! installs around them: an `sgx_ecall` interposer timing every dispatch
//! in host ns, and a driver hook counting EPC paging events.

use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use sgx_fleet::{FleetManager, LoadGen};
use sgx_perf::{FleetRow, Logger, LoggerConfig, TraceDb};
use sgx_sdk::{
    CallData, EcallDispatcher, OcallTable, SdkError, SdkResult, SwitchlessConfig, ThreadCtx,
};
use sgx_sim::{AccessKind, DriverEvent, EnclaveId, EnclaveLayout, MachineParams};
use sim_core::{HwProfile, Nanos};
use sim_threads::Simulation;
use workloads::fleet::{self, FleetRunConfig};
use workloads::talos::{self, TalosConfig};
use workloads::{switchless_loop, Harness};

use crate::spans::Tracer;

/// One hardware profile for every session (and the analyzer's cost
/// model); the profile only changes virtual time.
pub const PROFILE: HwProfile = HwProfile::Unpatched;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Talos,
    Switchless,
    Fleet,
}

impl Kind {
    pub const ALL: [Kind; 3] = [Kind::Talos, Kind::Switchless, Kind::Fleet];

    pub fn label(self) -> &'static str {
        match self {
            Kind::Talos => "talos",
            Kind::Switchless => "switchless",
            Kind::Fleet => "fleet",
        }
    }
}

/// The inputs of one session, all derived from the workload seed.
#[derive(Debug, Clone)]
pub enum Session {
    Talos(TalosConfig),
    Switchless { requests: u64, workers: bool },
    Fleet(FleetRunConfig),
}

impl Session {
    pub fn talos(seed: u64, requests: u64) -> Session {
        Session::Talos(TalosConfig {
            requests,
            seed,
            ..TalosConfig::default()
        })
    }

    pub fn fleet(seed: u64, slots: usize, requests: u64) -> Session {
        Session::Fleet(FleetRunConfig {
            slots,
            requests,
            seed,
            ..FleetRunConfig::smoke()
        })
    }

    fn harness(&self) -> Harness {
        match self {
            Session::Fleet(cfg) => Harness::with_machine_params(
                PROFILE,
                MachineParams {
                    epc_pages: cfg.epc_pages(),
                    ..MachineParams::default()
                },
            ),
            _ => Harness::new(PROFILE),
        }
    }

    /// Records the session through the public workload entry points —
    /// exactly what a user's recording does — and returns the trace.
    pub fn record(&self, logger: LoggerConfig) -> Result<TraceDb, String> {
        if let Session::Fleet(cfg) = self {
            // `fleet::run` builds its own harness and attaches the default
            // logger itself.
            return fleet::run(PROFILE, cfg, None)
                .map(|run| run.trace)
                .map_err(|e| e.to_string());
        }
        let harness = self.harness();
        let logger = Logger::attach(harness.runtime(), logger);
        self.run_app(&harness).map_err(|e| e.to_string())?;
        Ok(logger.finish())
    }

    /// Runs the application on a prepared harness. Returns the fleet-table
    /// rows (empty for the other sessions).
    fn run_app(&self, harness: &Harness) -> SdkResult<Vec<FleetRow>> {
        match self {
            Session::Talos(cfg) => talos::run(harness, cfg).map(|_| Vec::new()),
            Session::Switchless { requests, workers } => {
                let config = workers.then(switchless_config);
                switchless_loop::run(harness, *requests, config).map(|_| Vec::new())
            }
            Session::Fleet(cfg) => run_fleet(harness, cfg),
        }
    }

    pub fn kind(&self) -> Kind {
        match self {
            Session::Talos(_) => Kind::Talos,
            Session::Switchless { .. } => Kind::Switchless,
            Session::Fleet(_) => Kind::Fleet,
        }
    }

    /// Builds a harness, installs the probes before any logger, runs the
    /// application (logged or not) inside a `layer` span and returns what
    /// was measured. The fleet session goes through [`run_fleet`], which is
    /// `fleet::run` on a caller-built harness; the benchmark checks that
    /// both produce identical trace bytes.
    pub fn probed(&self, logged: bool, tr: &mut Tracer, layer: &'static str) -> Probed {
        let harness = self.harness();
        let times = EcallTimes::default();
        let paging = Arc::new(AtomicU64::new(0));
        {
            let times = times.clone();
            harness
                .runtime()
                .loader()
                .preload(move |next| Arc::new(TimingShim { next, times }));
            let paging = Arc::clone(&paging);
            harness
                .machine()
                .add_driver_hook(Arc::new(move |ev: &DriverEvent| {
                    if matches!(ev, DriverEvent::Paging { .. }) {
                        paging.fetch_add(1, Ordering::Relaxed);
                    }
                }));
        }
        let logger = logged.then(|| Logger::attach(harness.runtime(), LoggerConfig::default()));
        let (fleet_rows, result) =
            match tr.span(layer, self.kind().label(), |_| self.run_app(&harness)) {
                Ok(rows) => (rows, Ok(())),
                Err(e) => (Vec::new(), Err(e.to_string())),
            };
        Probed {
            virtual_ns: harness.clock().now().as_nanos(),
            logger,
            fleet_rows,
            ecall_ns: times.take(),
            paging_events: paging.load(Ordering::Relaxed),
            result,
        }
    }
}

/// The switchless server with the analyzer's recommendation applied: one
/// untrusted worker serving the hot logging ocall.
fn switchless_config() -> SwitchlessConfig {
    SwitchlessConfig {
        untrusted_workers: 1,
        force_ocalls: vec!["ocall_log".to_string()],
        ..SwitchlessConfig::default()
    }
}

/// What a probed session measured.
pub struct Probed {
    pub virtual_ns: u64,
    pub logger: Option<Arc<Logger>>,
    /// The fleet table rows (fleet sessions only), added after `finish`.
    pub fleet_rows: Vec<FleetRow>,
    pub ecall_ns: Vec<u64>,
    pub paging_events: u64,
    pub result: Result<(), String>,
}

impl Probed {
    /// `Logger::finish` plus the fleet table, as `fleet::run` assembles it.
    pub fn finish(&self) -> Option<TraceDb> {
        let mut trace = self.logger.as_ref()?.finish();
        for row in &self.fleet_rows {
            trace.fleet.insert(row.clone());
        }
        Some(trace)
    }
}

/// Host ns of every `sgx_ecall` dispatch that passed the shim.
#[derive(Clone, Default)]
struct EcallTimes(Arc<Mutex<Vec<u64>>>);

impl EcallTimes {
    fn take(&self) -> Vec<u64> {
        std::mem::take(&mut *self.0.lock().expect("ecall timing lock poisoned"))
    }
}

struct TimingShim {
    next: Arc<dyn EcallDispatcher>,
    times: EcallTimes,
}

impl EcallDispatcher for TimingShim {
    fn sgx_ecall(
        &self,
        tcx: &ThreadCtx<'_>,
        eid: EnclaveId,
        index: usize,
        table: &Arc<OcallTable>,
        data: &mut CallData,
    ) -> SdkResult<()> {
        let start = Instant::now();
        let result = self.next.sgx_ecall(tcx, eid, index, table, data);
        let ns = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        self.times
            .0
            .lock()
            .expect("ecall timing lock poisoned")
            .push(ns);
        result
    }
}

/// `workloads::fleet::run` on a caller-built harness (so probes can be
/// installed first and the logger left out). Returns the fleet-table rows
/// `fleet::run` appends to the trace after `Logger::finish`.
fn run_fleet(harness: &Harness, cfg: &FleetRunConfig) -> SdkResult<Vec<FleetRow>> {
    let heap_pages = EnclaveLayout::new(&fleet::enclave_config())
        .heap_range()
        .len();
    let mgr = FleetManager::new(harness.runtime(), cfg.policy, cfg.slots, move |rt, slot| {
        let spec = sgx_edl::parse(fleet::EDL).map_err(|e| SdkError::Interface(e.to_string()))?;
        let enclave = rt.create_enclave(&spec, &fleet::enclave_config())?;
        enclave.register_ecall("ecall_serve", move |ctx, data| {
            ctx.compute(Nanos::from_nanos(800 + (data.scalar % 5) * 150))?;
            let heap = ctx.heap_range()?;
            let page = heap.start + (data.scalar as usize % heap_pages);
            ctx.touch(page..page + 1, AccessKind::Write)?;
            data.ret = data.scalar.wrapping_mul(0x9E37_79B9) ^ slot as u64;
            Ok(())
        })?;
        Ok(enclave)
    });
    harness.machine().set_fault_plan(None);
    let sim = Simulation::new(harness.clock().clone());
    {
        let mgr = Arc::clone(&mgr);
        let clock = harness.clock().clone();
        let mut loadgen =
            LoadGen::new(cfg.slots, cfg.exponent, cfg.arrival, cfg.requests, cfg.seed);
        sim.spawn("loadgen", move |ctx| {
            let tcx = ThreadCtx::from_sim(ctx);
            while let Some(plan) = loadgen.next(clock.now()) {
                clock.advance_to(plan.arrival);
                let mut data = CallData::new(plan.index);
                let _ = mgr.request(&tcx, plan.slot, "ecall_serve", &mut data, plan.arrival);
            }
        });
    }
    sim.run();
    mgr.shutdown();
    Ok(mgr
        .snapshot()
        .iter()
        .enumerate()
        .map(|(slot, s)| FleetRow {
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
        })
        .collect())
}

/// FNV-1a 64 — the output fingerprint.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// Checks that `bytes` survive encode→decode→encode unchanged.
pub fn check_round_trip(bytes: &[u8], what: &str) -> Result<(), String> {
    let again = TraceDb::from_bytes(bytes)
        .map_err(|e| format!("{what}: decode failed: {e}"))?
        .to_bytes();
    if again == bytes {
        Ok(())
    } else {
        Err(format!(
            "{what}: trace does not round-trip byte-identically"
        ))
    }
}

/// Saves a trace, mapping the error.
pub fn save(trace: &TraceDb, path: &Path) -> Result<(), String> {
    trace
        .save(path)
        .map_err(|e| format!("save {}: {e}", path.display()))
}
