//! Data analysis and developer hints (§4.3).
//!
//! The [`Analyzer`] replays a [`TraceDb`] and produces a [`Report`]:
//! general statistics for all ecalls and ocalls (§4.3.1), direct/indirect
//! parent relationships (Figure 4), detections of the SGX-specific
//! performance problems of §3 with mitigation recommendations (§4.3.2), the
//! interface security analysis (§3.6), plus call graphs, histograms and
//! scatter series.

pub mod aex;
pub mod detect;
pub mod diff;
pub mod fleet;
pub mod graph;
pub mod lint;
pub mod parents;
pub mod races;
pub mod report;
pub mod security;
pub mod stats;

use sim_core::CostModel;

use crate::trace::TraceDb;

pub use detect::{Detection, Priority, Problem, Recommendation};
pub use diff::{DiffConfig, TraceDiff, Verdict};
pub use fleet::{FleetReport, FleetTotals};
pub use graph::CallGraph;
pub use parents::{CallInstance, Instances};
pub use races::{RaceFinding, RaceKind, RaceReport};
pub use report::Report;
pub use stats::CallStats;

/// The sgx-perf analyzer.
///
/// # Examples
///
/// See the [crate-level quickstart](crate).
#[derive(Debug)]
pub struct Analyzer<'t> {
    trace: &'t TraceDb,
    cost: CostModel,
    edl: Option<sgx_edl::InterfaceSpec>,
    lint: Vec<sgx_edl::Diagnostic>,
}

impl<'t> Analyzer<'t> {
    /// Creates an analyzer over a trace. The cost model supplies the
    /// transition time that is subtracted from ecall durations before
    /// applying thresholds (§4.1.2) and the "calls shorter than the
    /// transition are wasteful" premise (§3).
    pub fn new(trace: &'t TraceDb, cost: CostModel) -> Analyzer<'t> {
        Analyzer {
            trace,
            cost,
            edl: None,
            lint: Vec::new(),
        }
    }

    /// Supplies the enclave's EDL so the security analysis can diff the
    /// declared `allow()` lists against the observed calls (§4.3.2).
    pub fn with_edl(mut self, spec: sgx_edl::InterfaceSpec) -> Self {
        self.edl = Some(spec);
        self
    }

    /// Supplies pre-computed EDL lint diagnostics (see
    /// [`lint::lint_interface`]) so the report can show them alongside the
    /// trace-derived findings.
    pub fn with_lint(mut self, diagnostics: Vec<sgx_edl::Diagnostic>) -> Self {
        self.lint = diagnostics;
        self
    }

    /// The trace under analysis.
    pub fn trace(&self) -> &TraceDb {
        self.trace
    }

    /// The cost model in effect.
    pub fn cost_model(&self) -> &CostModel {
        &self.cost
    }

    /// Builds the flattened, parent-annotated call-instance view.
    pub fn instances(&self) -> Instances {
        Instances::build(self.trace, &self.cost)
    }

    /// Runs the full analysis: statistics, detections, security findings.
    pub fn analyze(&self) -> Report {
        let instances = self.instances();
        let call_stats = stats::per_call_stats(&instances);
        let mut detections = detect::detect_all(self, &instances, &call_stats);
        detections.extend(security::analyze(self, &instances));
        detections.sort_by_key(|d| (d.priority, d.target));
        let mut report = Report::assemble(self.trace, &instances, call_stats, detections);
        report.lint = self.lint.clone();
        report
    }

    /// Builds the call graph (Figure 5).
    pub fn call_graph(&self) -> CallGraph {
        CallGraph::build(&self.instances())
    }

    /// Per-ecall AEX duration impact (§4.1.4) — requires AEX counting or
    /// tracing to have been enabled during recording.
    pub fn aex_impact(&self) -> Vec<aex::AexImpact> {
        aex::aex_impact(&self.instances())
    }

    /// Per-thread AEX bursts (§4.1.4's "bursts of interruption") —
    /// requires AEX *tracing* during recording. `window_ns` is the maximum
    /// gap within a burst; `min_count` the minimum burst size.
    pub fn aex_bursts(&self, window_ns: u64, min_count: usize) -> Vec<aex::AexBurst> {
        aex::aex_bursts(self, window_ns, min_count)
    }

    pub(crate) fn edl(&self) -> Option<&sgx_edl::InterfaceSpec> {
        self.edl.as_ref()
    }
}
