//! Pinned digests of the analyzer's rendered output.
//!
//! The other analysis tests compare two runs of one build, so a change
//! that alters every rendering the same way passes them. These tests pin
//! FNV-1a digests of the report (text and JSON), the call graph, both
//! exporters, the diff (text and JSON) and the histogram/scatter series on
//! small deterministic traces:
//!
//! * a tiny fleet run, where many enclaves share one call name;
//! * a short TaLoS run, for nested calls and interface findings;
//! * the chaos A/B pair under `regression_plan(5)`, for fault rows;
//! * a supervised run under `loss_plan`, for lifecycle rows;
//! * the switchless server with one untrusted worker, for switchless rows,
//!   diffed against its synchronous run.
//!
//! A digest changes only when some output byte changes. When a change is
//! intended, the failure message prints the full table of new digests.

use std::sync::OnceLock;

use sgx_perf::analysis::diff::{DiffConfig, TraceDiff};
use sgx_perf::analysis::stats::{scatter, scatter_csv, Histogram};
use sgx_perf::{export, Analyzer, CallRef, Logger, LoggerConfig, Problem, Report, TraceDb};
use sgx_sdk::SwitchlessConfig;
use sim_core::HwProfile;
use workloads::fleet::{self, FleetRunConfig};
use workloads::harness::Harness;
use workloads::{chaos, supervisor_loop, switchless_loop};

const PROFILE: HwProfile = HwProfile::Unpatched;

/// 64-bit FNV-1a.
fn fnv1a(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn fleet_pair() -> &'static (TraceDb, TraceDb) {
    static PAIR: OnceLock<(TraceDb, TraceDb)> = OnceLock::new();
    PAIR.get_or_init(|| {
        let cfg = FleetRunConfig::tiny();
        let sibling = FleetRunConfig {
            seed: cfg.seed + 1,
            ..cfg.clone()
        };
        let run = |cfg: &FleetRunConfig| fleet::run(PROFILE, cfg, None).expect("fleet run").trace;
        (run(&cfg), run(&sibling))
    })
}

fn talos() -> TraceDb {
    let harness = Harness::new(PROFILE);
    let logger = Logger::attach(harness.runtime(), LoggerConfig::default());
    workloads::talos::run(
        &harness,
        &workloads::talos::TalosConfig {
            requests: 40,
            ..Default::default()
        },
    )
    .expect("talos run");
    logger.finish()
}

fn supervised() -> TraceDb {
    let harness = Harness::new(PROFILE);
    let logger = Logger::attach(harness.runtime(), LoggerConfig::default());
    supervisor_loop::run(&harness, 24, Some(&supervisor_loop::loss_plan(12)), None)
        .expect("supervised run");
    logger.finish()
}

/// The switchless server, synchronous or with one untrusted worker
/// serving the hot logging ocall.
fn switchless(workers: bool) -> TraceDb {
    let harness = Harness::new(PROFILE);
    let logger = Logger::attach(harness.runtime(), LoggerConfig::default());
    let config = workers.then(|| SwitchlessConfig {
        untrusted_workers: 1,
        force_ocalls: vec!["ocall_log".to_string()],
        ..SwitchlessConfig::default()
    });
    switchless_loop::run(&harness, 60, config).expect("switchless run");
    logger.finish()
}

/// The call `sgxperf hist`/`scatter` resolve a name to: the lowest call
/// with that name among those with recorded executions.
fn call_named(report: &Report, name: &str) -> CallRef {
    let at = report
        .call_names
        .iter()
        .position(|n| n == name)
        .unwrap_or_else(|| panic!("no call named `{name}`"));
    report.call_stats[at].0
}

/// Digests of every single-trace rendering, plus the histogram and scatter
/// series of `series_call` when given; also returns the report.
fn trace_digests(
    label: &str,
    trace: &TraceDb,
    series_call: Option<&str>,
) -> (Vec<(String, u64)>, Report) {
    let cost = PROFILE.cost_model();
    let analyzer = Analyzer::new(trace, cost.clone());
    let report = analyzer.analyze();
    let mut out = vec![
        ("report", fnv1a(&report.render())),
        ("report.json", fnv1a(&report.to_json())),
        ("dot", fnv1a(&analyzer.call_graph().to_dot())),
        ("folded", fnv1a(&export::folded_stacks(trace, &cost))),
        ("chrome", fnv1a(&export::chrome_trace(trace, &cost))),
    ];
    if let Some(name) = series_call {
        let call = call_named(&report, name);
        let instances = analyzer.instances();
        let hist = Histogram::of_call(&instances, call, 100).expect("histogram");
        out.push(("hist", fnv1a(&hist.to_csv())));
        out.push(("scatter", fnv1a(&scatter_csv(&scatter(&instances, call)))));
    }
    let digests = out
        .into_iter()
        .map(|(what, digest)| (format!("{label} {what}"), digest))
        .collect();
    (digests, report)
}

fn diff_digests(label: &str, a: &TraceDb, b: &TraceDb) -> Vec<(String, u64)> {
    let diff = TraceDiff::compute(a, b, DiffConfig::default());
    vec![
        (format!("{label} diff"), fnv1a(&diff.render())),
        (format!("{label} diff.json"), fnv1a(&diff.to_json())),
    ]
}

/// Compares computed digests with the pinned table, reporting every
/// mismatch at once together with the full table to paste.
fn check(actual: &[(String, u64)], pinned: &[(&str, u64)]) {
    let table: String = actual
        .iter()
        .map(|(what, d)| format!("        (\"{what}\", 0x{d:016x}),\n"))
        .collect();
    let got: Vec<(&str, u64)> = actual.iter().map(|(w, d)| (w.as_str(), *d)).collect();
    assert_eq!(
        got, pinned,
        "rendered output changed; new digests:\n{table}"
    );
}

#[test]
fn fleet_outputs_are_pinned() {
    let (trace, sibling) = fleet_pair();
    let (mut digests, report) = trace_digests("fleet", trace, Some("ecall_serve"));
    let shared = report.call_names.iter().filter(|n| *n == "ecall_serve");
    assert!(shared.count() > 1, "the name must span several enclaves");
    digests.extend(diff_digests("fleet seed pair", sibling, trace));
    check(&digests, FLEET);
}

#[test]
fn talos_outputs_are_pinned() {
    let (digests, report) = trace_digests("talos", &talos(), Some("ecall_SSL_read"));
    assert!(report.totals.ocall_events > 0, "nested calls");
    let interface = report
        .detections
        .iter()
        .filter(|d| d.problem == Problem::Interface);
    assert!(interface.count() > 0, "interface findings");
    check(&digests, TALOS);
}

#[test]
fn chaos_outputs_are_pinned() {
    let (baseline, faulted) = chaos::ab_pair(PROFILE, &chaos::regression_plan(5));
    let (mut digests, report) = trace_digests("chaos", &faulted, None);
    assert!(report.totals.faults_injected > 0, "fault rows");
    digests.extend(diff_digests("chaos pair", &baseline, &faulted));
    check(&digests, CHAOS);
}

#[test]
fn supervised_outputs_are_pinned() {
    let (digests, report) = trace_digests("supervised", &supervised(), None);
    assert!(report.totals.enclaves_lost > 0, "lifecycle rows");
    check(&digests, SUPERVISED);
}

#[test]
fn switchless_outputs_are_pinned() {
    let (synchronous, served) = (switchless(false), switchless(true));
    let (mut digests, report) = trace_digests("switchless", &served, Some("ecall_handle"));
    assert!(report.totals.switchless_dispatched > 0, "switchless rows");
    digests.extend(diff_digests("switchless pair", &synchronous, &served));
    check(&digests, SWITCHLESS);
}

const FLEET: &[(&str, u64)] = &[
    ("fleet report", 0x941c803d66a45752),
    ("fleet report.json", 0xf12eb8e9b0d2cf32),
    ("fleet dot", 0xfa62585ab72eccc3),
    ("fleet folded", 0xa8145f0d8663dc22),
    ("fleet chrome", 0x396e429773aaafed),
    ("fleet hist", 0xcce3151937dccfc4),
    ("fleet scatter", 0x4643c700d3347ab4),
    ("fleet seed pair diff", 0x07f275521aa7278d),
    ("fleet seed pair diff.json", 0x29a4b9483dc5b497),
];
const TALOS: &[(&str, u64)] = &[
    ("talos report", 0xd710a0666d2c2ada),
    ("talos report.json", 0xc73b3149a778a806),
    ("talos dot", 0x64ae8259ecfc770e),
    ("talos folded", 0xa7fa247773d8f9da),
    ("talos chrome", 0xf3ef4949db7c422f),
    ("talos hist", 0xc7d36fe684864079),
    ("talos scatter", 0x5b41b369e0930669),
];
const CHAOS: &[(&str, u64)] = &[
    ("chaos report", 0x6f3d3620bc336b3e),
    ("chaos report.json", 0xdce9c050f0ab9110),
    ("chaos dot", 0x49a3af19dbee6c92),
    ("chaos folded", 0xf39ad3662d121ae1),
    ("chaos chrome", 0xe8f32b60f40f7a59),
    ("chaos pair diff", 0xb369e894a3185dd7),
    ("chaos pair diff.json", 0x1529af00c60f43e9),
];
const SUPERVISED: &[(&str, u64)] = &[
    ("supervised report", 0x69b0a5c7b7c1a8ab),
    ("supervised report.json", 0x36c554bfe4472c6b),
    ("supervised dot", 0x90a7270c974ebf28),
    ("supervised folded", 0x55521c8cd277fb1c),
    ("supervised chrome", 0xe56b5c877ebee5b6),
];
const SWITCHLESS: &[(&str, u64)] = &[
    ("switchless report", 0x4fb46186bcb6aeba),
    ("switchless report.json", 0x355557c3b94cd1ef),
    ("switchless dot", 0xdb8dbeaee9785e63),
    ("switchless folded", 0x22226e8dba0e5502),
    ("switchless chrome", 0x083a9a3a6750f406),
    ("switchless hist", 0x8493095c775ffc47),
    ("switchless scatter", 0x2054ca9e9ebe1b3f),
    ("switchless pair diff", 0xad868c7e798dc471),
    ("switchless pair diff.json", 0x362c308a58d9168b),
];
