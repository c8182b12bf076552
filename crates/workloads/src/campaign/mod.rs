//! Campaign workloads: the registry of workloads a campaign spec may name,
//! and the [`matrix`] runner that executes a spec over them.
//!
//! A [`sim_core::CampaignSpec`] names its workloads by label.
//! [`matrix::MatrixPlan::from_spec`] resolves each label through
//! [`Workload::parse`], and [`matrix::MatrixPlan::run_cell`] is the one
//! place a workload becomes trace bytes. A cell's fault plan is never
//! derived from its seed: it is the plan the spec names under `[faults]`,
//! with the cell seed folded into the plan's jitter seed.
//!
//! Every cell is a pure function of its coordinates, so an archive is
//! byte-stable across runs, worker counts and engines. The cross-engine
//! check is two runs of the same spec, `--engine fast` and
//! `--engine legacy`, compared with `diff -rq`.

pub mod matrix;

use crate::stressors::{self, Stressor};

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
    /// A dedicated single-axis stressor (see [`stressors`]).
    Stress(Stressor),
    /// A test-only fault fixture (see [`stressors::FaultFixture`]):
    /// resolvable by name for supervision tests, but excluded from
    /// [`Workload::ALL`] so default campaigns stay healthy.
    Fixture(stressors::FaultFixture),
}

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

    /// Filename-safe label.
    pub fn label(self) -> &'static str {
        match self {
            Workload::Antipatterns => "antipatterns",
            Workload::Switchless => "switchless",
            Workload::Supervisor => "supervisor",
            Workload::Racy => "racy",
            Workload::Fleet => "fleet",
            Workload::Stress(s) => s.label(),
            Workload::Fixture(f) => f.label(),
        }
    }

    /// Parses a workload name as written in campaign specs and CLI flags
    /// — the inverse of [`Workload::label`]. Fault fixtures resolve here
    /// too, even though they are not in [`Workload::ALL`].
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL
            .into_iter()
            .find(|w| w.label() == name)
            .or_else(|| stressors::FaultFixture::parse(name).map(Workload::Fixture))
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
}
