//! `campaign`: one op is one `matrix::run` over a generated stressor
//! matrix — spec parse, parallel cells and the diff verdict of every cell
//! against its baseline.
//!
//! The run writes no archive. The benchmark may write only inside its
//! checkout, which is on disk, and there the write-back of a few hundred
//! MB of traces per run drifted the op time by more than the bound within
//! a single run.

use sgx_perf::analysis::diff::{DiffConfig, TraceDiff};
use sgx_perf::TraceDb;
use sim_core::campaign::CampaignSpec;
use sim_threads::{with_engine, Engine};
use workloads::campaign::matrix::{self, MatrixPlan};

use crate::sessions;
use crate::spans::Tracer;
use crate::stats::{median, percentile, Metrics};
use crate::{Output, Workload};

/// Seeds per cell coordinate: 4 stressors × 3 profiles × 2 fault plans ×
/// 2 switchless settings × 4 seeds = 192 cells.
const SEEDS: u64 = 4;

/// The generated spec: the acceptance stressor sweep at `SEEDS` seeds
/// starting from the workload seed, gated at the sweep's 35%.
fn spec_source(seed: u64) -> String {
    let seeds: Vec<String> = (0..SEEDS)
        .map(|i| seed.wrapping_add(i).to_string())
        .collect();
    format!(
        "[campaign]\n\
         name = \"perfbench\"\n\
         threshold = 35\n\
         \n\
         [matrix]\n\
         workloads = [\"epc_thrash\", \"ecall_storm\", \"io_fsync_loop\", \"cpu_compute\"]\n\
         profiles = [\"unpatched\", \"spectre\", \"l1tf\"]\n\
         switchless = [\"off\", \"on:1\"]\n\
         seeds = [{}]\n\
         \n\
         [faults]\n\
         none = \"\"\n\
         light = \"seed=5;ocall-fail@call=7:times=1\"\n\
         \n\
         [baseline]\n\
         faults = \"none\"\n\
         seed = {seed}\n",
        seeds.join(", ")
    )
}

fn parse(source: &str) -> Result<MatrixPlan, String> {
    let spec = CampaignSpec::parse(source).map_err(|e| format!("spec: {e}"))?;
    MatrixPlan::from_spec(spec)
}

pub struct Campaign {
    source: String,
    jobs: usize,
}

impl Campaign {
    /// Every cell's trace must round-trip byte-identically.
    pub fn setup(seed: u64) -> Result<Campaign, String> {
        let campaign = Campaign {
            source: spec_source(seed),
            jobs: std::thread::available_parallelism().map_or(1, std::num::NonZero::get),
        };
        let plan = parse(&campaign.source)?;
        for cell in plan.cells() {
            sessions::check_round_trip(&plan.run_cell(&cell, 0), &plan.file_name(&cell))?;
        }
        Ok(campaign)
    }
}

impl Workload for Campaign {
    fn cycle_len(&self) -> usize {
        1
    }

    fn op(&mut self, _i: usize, tr: &mut Tracer) -> Result<Output, String> {
        let plan = tr.span("campaign.parse", "", |_| parse(&self.source))?;
        let run = tr.span("campaign.run", "", |_| {
            matrix::run(&plan, Engine::current(), self.jobs, None, false)
        })?;
        let summary = tr.span("campaign.render", "", |_| run.render());
        Ok(Output::Text(vec![
            summary,
            format!("exit={}", run.exit_code()),
        ]))
    }

    /// Every cell again, serially and one at a time, then the verdict
    /// phase on its own: what `matrix::run` spends outside these two is
    /// the runner's.
    fn probe(&mut self, _i: usize, tr: &mut Tracer) -> Result<(), String> {
        let wall_ms = tr
            .spans
            .iter()
            .rev()
            .find(|s| s.layer == "campaign.run")
            .map_or(0.0, |s| s.duration_ns() as f64 / 1e6);
        let plan = parse(&self.source)?;
        let cells = plan.cells();
        let engine = Engine::current();
        let mut traces = Vec::with_capacity(cells.len());
        for cell in &cells {
            traces.push(tr.span("campaign.cell", "", |_| {
                with_engine(engine, || plan.run_cell(cell, 0))
            }));
        }
        let first_cell = tr.spans.len() - cells.len();
        let cell_sum_ms: f64 = tr.spans[first_cell..]
            .iter()
            .map(|s| s.duration_ns() as f64 / 1e6)
            .sum();
        let config = DiffConfig {
            threshold: f64::from(plan.spec.threshold_pct) / 100.0,
            ..DiffConfig::default()
        };
        tr.span("campaign.verdict", "", |_| -> Result<(), String> {
            for cell in cells.iter().filter(|c| c.baseline != c.index) {
                let a = TraceDb::from_bytes(&traces[cell.baseline]).map_err(|e| e.to_string())?;
                let b = TraceDb::from_bytes(&traces[cell.index]).map_err(|e| e.to_string())?;
                std::hint::black_box(TraceDiff::compute(&a, &b, config));
            }
            Ok(())
        })?;
        let verdict_ms = tr
            .spans
            .last()
            .map_or(0.0, |s| s.duration_ns() as f64 / 1e6);
        let parallel_ms = cell_sum_ms / self.jobs as f64;
        tr.sample(
            "campaign.runner_ms".into(),
            [wall_ms - parallel_ms - verdict_ms],
        );
        tr.sample(
            "campaign.parallel_efficiency".into(),
            [parallel_ms / (wall_ms - verdict_ms)],
        );
        tr.count("campaign.cells".into(), cells.len() as f64);
        tr.count(
            "campaign.archive_bytes".into(),
            traces.iter().map(Vec::len).sum::<usize>() as f64,
        );
        Ok(())
    }

    fn layer_metrics(&self, tr: &Tracer, m: &mut Metrics) {
        let durations = tr.durations_ms();
        let get = |name: &str| durations.get(name).map_or(&[][..], Vec::as_slice);
        m.put(
            "campaign.parse_ms",
            median(get("campaign.parse_ms")).unwrap_or(0.0),
            "ms",
        );
        m.put(
            "campaign.verdict_ms",
            median(get("campaign.verdict_ms")).unwrap_or(0.0),
            "ms",
        );
        m.put(
            "campaign.cell_ms_p50",
            percentile(get("campaign.cell_ms"), 50.0).unwrap_or(0.0),
            "ms",
        );
        m.put(
            "campaign.cell_ms_p99",
            percentile(get("campaign.cell_ms"), 99.0).unwrap_or(0.0),
            "ms",
        );
        for (name, unit) in [
            ("campaign.runner_ms", "ms"),
            ("campaign.parallel_efficiency", "ratio"),
        ] {
            let value = tr.samples.get(name).and_then(|v| median(v)).unwrap_or(0.0);
            m.put(name, value, unit);
        }
        for (name, unit) in [
            ("campaign.cells", "count"),
            ("campaign.archive_bytes", "bytes"),
        ] {
            m.put(name, tr.counters.get(name).copied().unwrap_or(0.0), unit);
        }
    }
}
