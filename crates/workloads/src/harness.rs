//! Shared workload harness: machine + runtime construction and run
//! bookkeeping.

use std::fmt;
use std::sync::Arc;

use sgx_sdk::Runtime;
use sgx_sim::{Machine, MachineParams};
use sim_core::{Clock, HwProfile, Nanos};

/// Which execution variant of a workload to run (the three bar groups of
/// Figure 6).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Variant {
    /// No enclave: all code runs untrusted at native speed.
    Native,
    /// The application partitioned into an enclave as published.
    #[default]
    Enclave,
    /// The enclave variant with the sgx-perf recommendations applied.
    Optimised,
}

impl Variant {
    /// All variants in Figure 6 order.
    pub const ALL: [Variant; 3] = [Variant::Native, Variant::Enclave, Variant::Optimised];

    /// Label used in benches and reports.
    pub fn label(self) -> &'static str {
        match self {
            Variant::Native => "native",
            Variant::Enclave => "enclave",
            Variant::Optimised => "optimised",
        }
    }
}

impl fmt::Display for Variant {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// One simulated process: machine + SDK runtime on a fresh virtual clock.
#[derive(Debug)]
pub struct Harness {
    machine: Arc<Machine>,
    runtime: Arc<Runtime>,
    profile: HwProfile,
}

impl Harness {
    /// Creates a harness for a hardware profile with default machine
    /// parameters.
    pub fn new(profile: HwProfile) -> Harness {
        Harness::with_machine_params(profile, MachineParams::default())
    }

    /// Creates a harness with explicit machine parameters (EPC size,
    /// eviction policy).
    pub fn with_machine_params(profile: HwProfile, params: MachineParams) -> Harness {
        let machine = Arc::new(Machine::with_params(Clock::new(), profile, params));
        let runtime = Runtime::new(Arc::clone(&machine));
        Harness {
            machine,
            runtime,
            profile,
        }
    }

    /// The simulated machine.
    pub fn machine(&self) -> &Arc<Machine> {
        &self.machine
    }

    /// The SDK runtime.
    pub fn runtime(&self) -> &Arc<Runtime> {
        &self.runtime
    }

    /// The hardware profile in effect.
    pub fn profile(&self) -> HwProfile {
        self.profile
    }

    /// The virtual clock.
    pub fn clock(&self) -> &Clock {
        self.machine.clock()
    }

    /// Runs `f` and returns its result together with elapsed virtual time.
    pub fn timed<T>(&self, f: impl FnOnce() -> T) -> (T, Nanos) {
        let before = self.clock().now();
        let value = f();
        (value, self.clock().now() - before)
    }
}

/// Outcome of one workload run.
#[derive(Debug, Clone, PartialEq)]
pub struct RunStats {
    /// The variant that ran.
    pub variant: Variant,
    /// Operations completed (requests, inserts, signs — workload-defined).
    pub operations: u64,
    /// Virtual time the operations took.
    pub elapsed: Nanos,
}

impl RunStats {
    /// Operations per virtual second.
    pub fn throughput(&self) -> f64 {
        if self.elapsed.is_zero() {
            0.0
        } else {
            self.operations as f64 / self.elapsed.as_secs_f64()
        }
    }

    /// Mean virtual time per operation.
    pub fn per_op(&self) -> Nanos {
        if self.operations == 0 {
            Nanos::ZERO
        } else {
            self.elapsed / self.operations
        }
    }
}

impl fmt::Display for RunStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: {} ops in {} ({:.0} ops/s)",
            self.variant,
            self.operations,
            self.elapsed,
            self.throughput()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn throughput_math() {
        let stats = RunStats {
            variant: Variant::Native,
            operations: 1_000,
            elapsed: Nanos::from_millis(500),
        };
        assert!((stats.throughput() - 2_000.0).abs() < 1e-9);
        assert_eq!(stats.per_op(), Nanos::from_micros(500));
    }

    #[test]
    fn timed_measures_virtual_time() {
        let h = Harness::new(HwProfile::Unpatched);
        let (v, dt) = h.timed(|| {
            h.clock().advance(Nanos::from_micros(7));
            42
        });
        assert_eq!(v, 42);
        assert_eq!(dt, Nanos::from_micros(7));
    }

    #[test]
    fn zero_guards() {
        let stats = RunStats {
            variant: Variant::Enclave,
            operations: 0,
            elapsed: Nanos::ZERO,
        };
        assert_eq!(stats.throughput(), 0.0);
        assert_eq!(stats.per_op(), Nanos::ZERO);
    }

    /// The logger's machine hook holds its recorder, and the recorder
    /// holds the machine only weakly: once a logged harness and its
    /// logger are dropped, nothing keeps the machine alive.
    #[test]
    fn dropping_a_logged_harness_frees_its_machine() {
        use sgx_perf::{AexMode, Logger, LoggerConfig};
        let traced = LoggerConfig {
            aex: AexMode::Trace,
            track_syncev: true,
        };
        for config in [LoggerConfig::default(), traced] {
            let harness = Harness::new(HwProfile::Unpatched);
            let logger = Logger::attach(harness.runtime(), config.clone());
            crate::antipatterns::snc(&harness, 20).unwrap();
            let (ecalls, ocalls) = logger.counts();
            assert!(ecalls > 0 && ocalls > 0, "{config:?}");
            let machine = Arc::downgrade(harness.machine());
            drop(harness);
            drop(logger);
            assert!(
                machine.upgrade().is_none(),
                "{config:?}: the machine outlived its harness and logger"
            );
        }
    }
}
