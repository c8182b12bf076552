//! `analyze`: one op is `TraceDb::load` plus one user command — report,
//! call graph, races, diff against a sibling trace, or the two exports —
//! over a corpus of TaLoS, switchless and fleet traces recorded in set-up.

use std::path::{Path, PathBuf};

use sgx_perf::analysis::diff::{DiffConfig, TraceDiff};
use sgx_perf::analysis::{detect, races, security, stats};
use sgx_perf::{export, Analyzer, LoggerConfig, TraceDb};
use sim_core::CostModel;

use crate::sessions::{self, Kind, Session, PROFILE};
use crate::spans::{metric_name, Tracer};
use crate::stats::{median, Metrics};
use crate::{Output, Workload};

/// TaLoS corpus trace: many calls over 268 symbols.
const TALOS_REQUESTS: u64 = 800;
/// Switchless corpus trace, recorded with the sync-event table so the
/// race analyses have work.
const SWITCHLESS_REQUESTS: u64 = 2_000;
/// Fleet corpus trace: every spin-up adds symbol rows, so this one is
/// symbol-heavy (about 29k symbols); its report takes a few hundred ms.
const FLEET_SLOTS: usize = 150;
const FLEET_REQUESTS: u64 = 15_000;

#[derive(Debug, Clone, Copy)]
enum Command {
    Report,
    CallGraph,
    Races,
    Diff,
    Export,
}

const COMMANDS: [Command; 5] = [
    Command::Report,
    Command::CallGraph,
    Command::Races,
    Command::Diff,
    Command::Export,
];

struct Corpus {
    kind: Kind,
    trace: PathBuf,
    /// The diff baseline: the same session on another seed, or for the
    /// switchless server the synchronous run.
    sibling: PathBuf,
}

pub struct Analyze {
    corpus: Vec<Corpus>,
    cost: CostModel,
    /// The trace of the last traced report op, for the stage probe.
    last: Option<(Kind, TraceDb, usize)>,
}

impl Analyze {
    pub fn setup(seed: u64, dir: PathBuf) -> Result<Analyze, String> {
        let sw = |workers| Session::Switchless {
            requests: SWITCHLESS_REQUESTS,
            workers,
        };
        let pairs = [
            (
                Session::talos(seed, TALOS_REQUESTS),
                Session::talos(seed.wrapping_add(1), TALOS_REQUESTS),
            ),
            (sw(true), sw(false)),
            (
                Session::fleet(seed, FLEET_SLOTS, FLEET_REQUESTS),
                Session::fleet(seed.wrapping_add(1), FLEET_SLOTS, FLEET_REQUESTS),
            ),
        ];
        let mut corpus = Vec::new();
        for (trace, sibling) in pairs {
            let kind = trace.kind();
            let logger = match kind {
                Kind::Switchless => LoggerConfig::with_syncev(),
                _ => LoggerConfig::default(),
            };
            let mut paths = Vec::new();
            for (session, name) in [(trace, "trace"), (sibling, "sibling")] {
                let recorded = session.record(logger.clone())?;
                let what = format!("{} {name}", kind.label());
                sessions::check_round_trip(&recorded.to_bytes(), &what)?;
                let path = dir.join(format!("{}-{name}.evdb", kind.label()));
                sessions::save(&recorded, &path)?;
                paths.push(path);
            }
            let sibling = paths.pop().expect("two paths");
            let trace = paths.pop().expect("two paths");
            corpus.push(Corpus {
                kind,
                trace,
                sibling,
            });
        }
        Ok(Analyze {
            corpus,
            cost: PROFILE.cost_model(),
            last: None,
        })
    }
}

/// `TraceDb::load`, split into its read and decode halves when traced.
fn load(tr: &mut Tracer, kind: &'static str, path: &Path) -> Result<TraceDb, String> {
    let err = |e: &dyn std::fmt::Display| format!("load {}: {e}", path.display());
    if !tr.is_on() {
        return TraceDb::load(path).map_err(|e| err(&e));
    }
    let bytes = tr
        .span("eventdb.read", kind, |_| std::fs::read(path))
        .map_err(|e| err(&e))?;
    tr.span("eventdb.decode", kind, |_| {
        eventdb::Store::from_bytes(&bytes).and_then(|s| TraceDb::from_store(&s))
    })
    .map_err(|e| err(&e))
}

impl Workload for Analyze {
    fn cycle_len(&self) -> usize {
        self.corpus.len() * COMMANDS.len()
    }

    fn op(&mut self, i: usize, tr: &mut Tracer) -> Result<Output, String> {
        let corpus = &self.corpus[i / COMMANDS.len()];
        let kind = corpus.kind.label();
        let cost = &self.cost;
        let trace = load(tr, kind, &corpus.trace)?;
        let texts = match COMMANDS[i % COMMANDS.len()] {
            Command::Report => {
                let (text, detections) = tr.span("analysis.report", kind, |tr| {
                    let report = Analyzer::new(&trace, cost.clone()).analyze();
                    let text = tr.span("analysis.render", kind, |_| report.render());
                    (text, report.detections.len())
                });
                if tr.is_on() {
                    tr.count(
                        metric_name("analysis.symbols", kind, ""),
                        trace.symbols.len() as f64,
                    );
                    tr.count(
                        metric_name("analysis.detections", kind, ""),
                        detections as f64,
                    );
                    self.last = Some((corpus.kind, trace, detections));
                }
                vec![text]
            }
            Command::CallGraph => vec![tr.span("analysis.call_graph", kind, |_| {
                Analyzer::new(&trace, cost.clone()).call_graph().to_dot()
            })],
            Command::Races => tr.span("analysis.races", kind, |_| {
                let report = races::analyze(&trace);
                vec![report.render(), format!("exit={}", report.exit_code())]
            }),
            Command::Diff => {
                let baseline = load(tr, kind, &corpus.sibling)?;
                tr.span("analysis.diff", kind, |_| {
                    let diff = TraceDiff::compute(&baseline, &trace, DiffConfig::default());
                    vec![diff.render(), format!("exit={}", diff.exit_code())]
                })
            }
            Command::Export => vec![
                tr.span("export.folded", kind, |_| {
                    export::folded_stacks(&trace, cost)
                }),
                tr.span("export.chrome", kind, |_| {
                    export::chrome_trace(&trace, cost)
                }),
            ],
        };
        Ok(Output::Text(texts))
    }

    /// After a report: the stages `Analyzer::analyze` runs internally,
    /// each timed on its own, with the detection count cross-checked.
    fn probe(&mut self, _i: usize, tr: &mut Tracer) -> Result<(), String> {
        let Some((kind, trace, detections)) = self.last.take() else {
            return Ok(());
        };
        let kind = kind.label();
        let analyzer = Analyzer::new(&trace, self.cost.clone());
        let instances = tr.span("analysis.instances", kind, |_| analyzer.instances());
        let call_stats = tr.span("analysis.stats", kind, |_| {
            stats::per_call_stats(&instances)
        });
        let found = tr.span("analysis.detect", kind, |_| {
            detect::detect_all(&analyzer, &instances, &call_stats)
        });
        let secure = tr.span("analysis.security", kind, |_| {
            security::analyze(&analyzer, &instances)
        });
        if found.len() + secure.len() == detections {
            Ok(())
        } else {
            Err(format!(
                "{kind}: staged analysis found {} detections, the report {detections}",
                found.len() + secure.len()
            ))
        }
    }

    fn layer_metrics(&self, tr: &Tracer, m: &mut Metrics) {
        let durations = tr.durations_ms();
        for kind in Kind::ALL.map(Kind::label) {
            for layer in [
                "eventdb.read",
                "eventdb.decode",
                "analysis.instances",
                "analysis.stats",
                "analysis.detect",
                "analysis.security",
                "analysis.report",
                "analysis.render",
                "analysis.call_graph",
                "analysis.races",
                "analysis.diff",
                "export.folded",
                "export.chrome",
            ] {
                let name = metric_name(layer, kind, "_ms");
                let value = durations.get(&name).and_then(|v| median(v)).unwrap_or(0.0);
                m.put(name, value, "ms");
            }
            for layer in ["analysis.symbols", "analysis.detections"] {
                let name = metric_name(layer, kind, "");
                m.put(
                    name.clone(),
                    tr.counters.get(&name).copied().unwrap_or(0.0),
                    "count",
                );
            }
        }
    }
}
