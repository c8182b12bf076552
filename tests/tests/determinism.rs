//! Bit-reproducibility: every experiment is a deterministic function of
//! its seed — the property that makes the whole evaluation regenerable.

use sgx_perf::{Logger, LoggerConfig};
use sim_core::{HwProfile, Nanos};
use workloads::{Harness, Variant};

fn sqlite_trace_bytes(seed: u64) -> Vec<u8> {
    let harness = Harness::new(HwProfile::Unpatched);
    let logger = Logger::attach(harness.runtime(), LoggerConfig::default());
    workloads::sqlitedb::run(
        &harness,
        &workloads::sqlitedb::SqliteConfig {
            inserts: 400,
            seed,
            variant: Variant::Enclave,
        },
    )
    .unwrap();
    logger.finish().to_bytes()
}

#[test]
fn sqlite_traces_are_bit_identical_across_runs() {
    assert_eq!(sqlite_trace_bytes(7), sqlite_trace_bytes(7));
}

#[test]
fn sqlite_traces_differ_across_seeds() {
    assert_ne!(sqlite_trace_bytes(7), sqlite_trace_bytes(8));
}

fn securekeeper_trace_bytes() -> Vec<u8> {
    let harness = Harness::new(HwProfile::Unpatched);
    let logger = Logger::attach(harness.runtime(), LoggerConfig::default());
    workloads::securekeeper::run(
        &harness,
        &workloads::securekeeper::SecureKeeperConfig {
            clients: 6,
            duration: Nanos::from_millis(80),
            ..Default::default()
        },
    )
    .unwrap();
    logger.finish().to_bytes()
}

/// The multi-threaded workload is deterministic too: the round-robin
/// scheduler makes the interleaving (and therefore the trace) a pure
/// function of the program.
#[test]
fn multithreaded_traces_are_bit_identical() {
    assert_eq!(securekeeper_trace_bytes(), securekeeper_trace_bytes());
}

fn glamdring_trace_bytes(profile: HwProfile) -> Vec<u8> {
    let harness = Harness::new(profile);
    let logger = Logger::attach(harness.runtime(), LoggerConfig::default());
    workloads::glamdring::run(
        &harness,
        &workloads::glamdring::GlamdringConfig {
            duration: Nanos::from_millis(40),
            variant: Variant::Enclave,
            ..Default::default()
        },
    )
    .unwrap();
    logger.finish().to_bytes()
}

#[test]
fn glamdring_traces_are_bit_identical() {
    assert_eq!(
        glamdring_trace_bytes(HwProfile::Unpatched),
        glamdring_trace_bytes(HwProfile::Unpatched)
    );
}

#[test]
fn hardware_profile_changes_the_trace() {
    assert_ne!(
        glamdring_trace_bytes(HwProfile::Unpatched),
        glamdring_trace_bytes(HwProfile::Foreshadow)
    );
}

// -- chaos harness: fault injection preserves the determinism contract --

use proptest::prelude::*;
use sim_core::fault::FaultPlan;
use workloads::chaos;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Any seeded plan replays byte-identically: the injector consumes
    /// its randomness at construction, so two runs see the same faults
    /// at the same virtual instants.
    #[test]
    fn seeded_fault_plans_replay_byte_identically(seed in any::<u64>()) {
        let plan = chaos::random_plan(seed);
        prop_assert_eq!(
            chaos::antipatterns_trace(HwProfile::Unpatched, Some(&plan)),
            chaos::antipatterns_trace(HwProfile::Unpatched, Some(&plan))
        );
    }

    /// A plan with a seed but no faults is a structural no-op: the trace
    /// is byte-identical to a run with no plan installed at all.
    #[test]
    fn zero_fault_plans_equal_no_plan(seed in any::<u64>()) {
        prop_assert_eq!(
            chaos::antipatterns_trace(HwProfile::Unpatched, Some(&FaultPlan::seeded(seed))),
            chaos::antipatterns_trace(HwProfile::Unpatched, None)
        );
    }

    /// The canonical `Display` form of a random plan parses back to the
    /// same plan — the CLI `--faults` round-trip holds for every seed.
    #[test]
    fn fault_spec_display_is_a_parse_fixpoint(seed in any::<u64>()) {
        let plan = chaos::random_plan(seed);
        let spec = plan.to_string();
        let back = FaultPlan::parse(&spec).unwrap();
        prop_assert_eq!(&plan, &back);
        prop_assert_eq!(spec, back.to_string());
    }
}

/// Seeded plans replay byte-identically across runs on every hardware
/// profile — the acceptance matrix (2 runs x 3 profiles).
#[test]
fn fault_replay_is_stable_across_hardware_profiles() {
    let plan = chaos::random_plan(20260807);
    for profile in [
        HwProfile::Unpatched,
        HwProfile::Spectre,
        HwProfile::Foreshadow,
    ] {
        let first = chaos::antipatterns_trace(profile, Some(&plan));
        assert_eq!(
            first,
            chaos::antipatterns_trace(profile, Some(&plan)),
            "classic fixture diverged on {profile:?}"
        );
        let sw_first = chaos::switchless_trace(profile, Some(&plan));
        assert_eq!(
            sw_first,
            chaos::switchless_trace(profile, Some(&plan)),
            "switchless fixture diverged on {profile:?}"
        );
    }
}

/// Sync-event recording is as reproducible as every other table: the
/// racy fixture (threads, locks, shared cells — the richest sync
/// surface) serialises byte-identically across runs on every hardware
/// profile (2 runs x 3 profiles).
#[test]
fn syncev_traces_are_bit_identical_across_profiles() {
    let record = |profile: HwProfile| {
        let harness = Harness::new(profile);
        let logger = Logger::attach(harness.runtime(), LoggerConfig::with_syncev());
        workloads::racy_fixture::run(
            &harness,
            &workloads::racy_fixture::RacyFixtureConfig::default(),
        )
        .unwrap();
        logger.finish().to_bytes()
    };
    for profile in [
        HwProfile::Unpatched,
        HwProfile::Spectre,
        HwProfile::Foreshadow,
    ] {
        let first = record(profile);
        assert_eq!(
            first,
            record(profile),
            "syncev trace diverged on {profile:?}"
        );
    }
}

/// With sync tracking off (the default), the same run writes a trace
/// without any syncev section — byte-identical to what pre-races
/// versions of the logger produced.
#[test]
fn syncev_tracking_off_leaves_traces_unchanged() {
    let record = |config: LoggerConfig| {
        let harness = Harness::new(HwProfile::Unpatched);
        let logger = Logger::attach(harness.runtime(), config);
        workloads::sqlitedb::run(
            &harness,
            &workloads::sqlitedb::SqliteConfig {
                inserts: 100,
                variant: Variant::Enclave,
                ..Default::default()
            },
        )
        .unwrap();
        logger.finish()
    };
    // sqlitedb performs no tracked sync operations, so even opting in
    // records nothing — and the bytes stay identical because an empty
    // table is never written.
    let off = record(LoggerConfig::default());
    let on = record(LoggerConfig::with_syncev());
    assert!(on.syncev.is_empty());
    assert_eq!(off.to_bytes(), on.to_bytes());
}

#[test]
fn talos_runs_are_deterministic() {
    let elapsed = || {
        let harness = Harness::new(HwProfile::Unpatched);
        workloads::talos::run(
            &harness,
            &workloads::talos::TalosConfig {
                requests: 80,
                ..Default::default()
            },
        )
        .unwrap()
        .stats
        .elapsed
    };
    assert_eq!(elapsed(), elapsed());
}
