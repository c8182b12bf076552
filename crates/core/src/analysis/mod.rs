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

/// The configurable weights of the detection heuristics, with the paper's
/// defaults ("obtained through experimentation", §4.3.2).
#[derive(Debug, Clone)]
pub struct Weights {
    /// Equation 1 (move/duplicate): fraction of calls shorter than 1 µs.
    pub move_alpha: f64,
    /// Equation 1: fraction of calls shorter than 5 µs.
    pub move_beta: f64,
    /// Equation 1: fraction of calls shorter than 10 µs.
    pub move_gamma: f64,
    /// Equation 2 (reorder): weight of calls within 10 µs of the parent's
    /// start/end.
    pub reorder_alpha: f64,
    /// Equation 2: weight of calls within 10–20 µs.
    pub reorder_beta: f64,
    /// Equation 2: detection threshold.
    pub reorder_gamma: f64,
    /// Equation 3 (merge/batch): weight of indirect-parent gaps < 1 µs.
    pub merge_alpha: f64,
    /// Equation 3: weight of gaps in 1–5 µs.
    pub merge_beta: f64,
    /// Equation 3: weight of gaps in 5–10 µs.
    pub merge_gamma: f64,
    /// Equation 3: weight of gaps in 10–20 µs.
    pub merge_delta: f64,
    /// Equation 3: detection threshold.
    pub merge_epsilon: f64,
    /// Equation 3: minimum fraction of instances with this indirect parent.
    pub merge_lambda: f64,
    /// SSC: a sleep shorter than this many µs counts as "short".
    pub ssc_short_us: u64,
    /// SSC: minimum fraction of short sleeps to flag the problem.
    pub ssc_fraction: f64,
    /// Minimum instances of a call before any heuristic fires (avoids
    /// recommendations from single-digit samples).
    pub min_calls: usize,
    /// Switchless: minimum executions before a call counts as
    /// "high-frequency" (worker threads only pay off under sustained load).
    pub switchless_min_calls: usize,
    /// Switchless: minimum fraction of adjusted durations under 10 µs.
    pub switchless_fraction: f64,
}

impl Default for Weights {
    fn default() -> Self {
        Weights {
            move_alpha: 0.35,
            move_beta: 0.50,
            move_gamma: 0.65,
            reorder_alpha: 1.00,
            reorder_beta: 0.75,
            reorder_gamma: 0.50,
            merge_alpha: 1.00,
            merge_beta: 0.75,
            merge_gamma: 0.50,
            merge_delta: 0.35,
            merge_epsilon: 0.35,
            merge_lambda: 0.35,
            // A sleep below ~4 transition times means the lock hold was
            // far shorter than the two ocalls the contention cost.
            ssc_short_us: 20,
            ssc_fraction: 0.5,
            min_calls: 8,
            switchless_min_calls: 32,
            switchless_fraction: 0.75,
        }
    }
}

/// The sgx-perf analyzer.
///
/// # Examples
///
/// See the [crate-level quickstart](crate).
#[derive(Debug)]
pub struct Analyzer<'t> {
    trace: &'t TraceDb,
    cost: CostModel,
    weights: Weights,
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
            weights: Weights::default(),
            edl: None,
            lint: Vec::new(),
        }
    }

    /// Overrides the detection weights.
    pub fn with_weights(mut self, weights: Weights) -> Self {
        self.weights = weights;
        self
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

    /// The weights in effect.
    pub fn weights(&self) -> &Weights {
        &self.weights
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
