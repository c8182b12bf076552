//! Campaign workloads: the registry of workloads a campaign spec may name,
//! and the [`matrix`] runner that executes a spec over them.
//!
//! A [`sim_core::CampaignSpec`] names its workloads by label.
//! [`matrix::MatrixPlan::from_spec`] resolves each label through
//! [`Workload::parse`], and [`matrix::MatrixPlan::run_cell`] is the one
//! place a workload becomes trace bytes: the four dedicated stressors
//! through [`crate::stressors::trace`], the §5-style scenarios through their own
//! modules, and the three fault fixtures (`panicking`, `hanging`,
//! `flaky`) right there. A cell's fault plan is never derived from its
//! seed: it is the plan the spec names under `[faults]`, with the cell
//! seed folded into the plan's jitter seed.
//!
//! Every cell is a pure function of its coordinates, so an archive is
//! byte-stable across runs, worker counts and engines. The cross-engine
//! check is two runs of the same spec, `--engine fast` and
//! `--engine legacy`, compared with `diff -rq`.

pub mod matrix;

use crate::stressors::Stressor;

/// A campaign-runnable workload, executed by
/// [`matrix::MatrixPlan::run_cell`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Classic-path fixture (SISC, SNC, paging) via [`crate::chaos`].
    Antipatterns,
    /// Switchless request server via [`crate::chaos`].
    Switchless,
    /// Supervised server with mid-run enclave loss.
    Supervisor,
    /// Race fixture with the sync-event channel enabled.
    Racy,
    /// Fleet scenario at unit-test scale.
    Fleet,
    /// A dedicated single-axis stressor (see [`crate::stressors`]).
    Stress(Stressor),
    /// Fault fixture: panics with [`PANICKING_FIXTURE_MSG`] before any
    /// simulation starts.
    Panicking,
    /// Fault fixture: spins at scheduling points forever; only a
    /// supervisor event budget or wall-clock deadline ends the cell.
    Hanging,
    /// Fault fixture: panics with [`FLAKY_FIXTURE_MSG`] on attempt 0, then
    /// runs as an `ecall_storm` cell on every retry, byte for byte — the
    /// quarantine ledger's `flaky` classification.
    Flaky,
}

/// Panic message of the [`Workload::Panicking`] fixture.
pub const PANICKING_FIXTURE_MSG: &str = "injected fixture panic";

/// Panic message of the [`Workload::Flaky`] fixture's first attempt.
pub const FLAKY_FIXTURE_MSG: &str = "injected flaky failure (first attempt)";

impl Workload {
    /// Every campaign-runnable workload.
    pub const ALL: [Workload; 9] = [
        Workload::Antipatterns,
        Workload::Switchless,
        Workload::Supervisor,
        Workload::Racy,
        Workload::Fleet,
        Workload::Stress(Stressor::EpcThrash),
        Workload::Stress(Stressor::EcallStorm),
        Workload::Stress(Stressor::IoFsyncLoop),
        Workload::Stress(Stressor::CpuCompute),
    ];

    /// The fault fixtures, which exercise the campaign supervision layer:
    /// each fails in exactly one way, deterministically, on both engines.
    /// They resolve by name but stay out of [`Workload::ALL`], so default
    /// campaigns stay healthy.
    const FIXTURES: [Workload; 3] = [Workload::Panicking, Workload::Hanging, Workload::Flaky];

    /// Filename-safe label.
    pub fn label(self) -> &'static str {
        match self {
            Workload::Antipatterns => "antipatterns",
            Workload::Switchless => "switchless",
            Workload::Supervisor => "supervisor",
            Workload::Racy => "racy",
            Workload::Fleet => "fleet",
            Workload::Stress(s) => s.label(),
            Workload::Panicking => "panicking",
            Workload::Hanging => "hanging",
            Workload::Flaky => "flaky",
        }
    }

    /// Parses a workload name as written in campaign specs and CLI flags
    /// — the inverse of [`Workload::label`]. Fault fixtures resolve here
    /// too, even though they are not in [`Workload::ALL`].
    pub fn parse(name: &str) -> Option<Workload> {
        (Workload::ALL.into_iter())
            .chain(Workload::FIXTURES)
            .find(|w| w.label() == name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_workload_label_parses_back() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.label()), Some(w), "{}", w.label());
        }
    }

    #[test]
    fn fixture_names_resolve_but_stay_out_of_the_stressor_axis() {
        for f in Workload::FIXTURES {
            assert_eq!(Workload::parse(f.label()), Some(f));
            assert!(Stressor::ALL.iter().all(|s| s.label() != f.label()));
            assert!(!Workload::ALL.contains(&f));
        }
        assert_eq!(
            Workload::parse("ecall_storm"),
            Some(Workload::Stress(Stressor::EcallStorm))
        );
    }
}
