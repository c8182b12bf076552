//! Lock census of the three recording sessions the benchmark's `record`
//! workload drives: every `sim_core::sync` lock, read and write acquisition
//! of a logged run, divided by the calls it served.
//!
//! - TaLoS (400 HTTPS requests): per logged call (ecall and ocall rows).
//! - Switchless server (4,000 requests, one untrusted worker serving the
//!   hot logging ocall): per call (one ecall and four ocalls a request).
//! - Fleet (100 logical enclaves, 10,000 requests): per request.
//!
//! Only debug builds count acquisitions, so run it without `--release`:
//!
//! ```sh
//! cargo run --offline -p workloads --example lock_census -- [seed]
//! ```

#[cfg(not(debug_assertions))]
fn main() {
    eprintln!("lock_census: only debug builds count lock acquisitions; run it without --release");
    std::process::exit(1);
}

#[cfg(debug_assertions)]
use census::main;

#[cfg(debug_assertions)]
mod census {
    use sgx_perf::{Logger, LoggerConfig};
    use sgx_sdk::SwitchlessConfig;
    use sim_core::sync::acquisitions;
    use sim_core::HwProfile;
    use workloads::fleet::{self, FleetRunConfig};
    use workloads::switchless_loop::{self, OCALLS_PER_REQUEST};
    use workloads::talos::{self, TalosConfig};
    use workloads::Harness;

    const PROFILE: HwProfile = HwProfile::Unpatched;
    const TALOS_REQUESTS: u64 = 400;
    const SWITCHLESS_REQUESTS: u64 = 4_000;
    const FLEET_SLOTS: usize = 100;
    const FLEET_REQUESTS: u64 = 10_000;

    /// Acquisitions `f` made on this thread, and what it returned.
    fn counted<T>(f: impl FnOnce() -> T) -> (u64, T) {
        let before = acquisitions();
        let out = f();
        (acquisitions() - before, out)
    }

    pub fn main() {
        let seed = std::env::args()
            .nth(1)
            .map_or(1, |s| s.parse().expect("seed is an integer"));

        let (talos_locks, talos_calls) = counted(|| {
            let harness = Harness::new(PROFILE);
            let logger = Logger::attach(harness.runtime(), LoggerConfig::default());
            let config = TalosConfig {
                requests: TALOS_REQUESTS,
                seed,
            };
            talos::run(&harness, &config).expect("talos session");
            let trace = logger.finish();
            trace.ecalls.len() + trace.ocalls.len()
        });

        let (switchless_locks, ()) = counted(|| {
            let harness = Harness::new(PROFILE);
            let logger = Logger::attach(harness.runtime(), LoggerConfig::default());
            let config = SwitchlessConfig {
                untrusted_workers: 1,
                force_ocalls: vec!["ocall_log".to_string()],
                ..SwitchlessConfig::default()
            };
            switchless_loop::run(&harness, SWITCHLESS_REQUESTS, Some(config))
                .expect("switchless session");
            logger.finish();
        });
        let switchless_calls = SWITCHLESS_REQUESTS * (1 + OCALLS_PER_REQUEST);

        let (fleet_locks, _) = counted(|| {
            let config = FleetRunConfig {
                slots: FLEET_SLOTS,
                requests: FLEET_REQUESTS,
                seed,
                ..FleetRunConfig::smoke()
            };
            fleet::run(PROFILE, &config, None).expect("fleet session")
        });

        println!("session     acquisitions      calls  per call");
        for (name, locks, calls) in [
            ("talos", talos_locks, talos_calls as u64),
            ("switchless", switchless_locks, switchless_calls),
            ("fleet", fleet_locks, FLEET_REQUESTS),
        ] {
            println!(
                "{name:<10} {locks:>13} {calls:>10} {:>9.1}",
                locks as f64 / calls as f64
            );
        }
    }
}
