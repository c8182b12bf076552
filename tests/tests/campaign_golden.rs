//! Golden determinism tests of the campaign matrix: the same spec must
//! produce byte-identical summaries and per-cell traces across repeated
//! runs, across worker counts, and across both simulation engines — and
//! the shipped chaos spec must deterministically trip the regression
//! gate. These are the contracts CI's campaign-smoke job enforces on the
//! release binary; here they run against the library in debug.
//!
//! Those comparisons hold two runs of one build against each other, so a
//! byte change applied everywhere passes them. `shipped_spec_archives_are_pinned`
//! pins each shipped spec's archive itself: exit code, file count and a
//! digest over every archived file.

use std::path::PathBuf;

use sgx_perf::analysis::diff::REGRESSION_EXIT_CODE;
use sim_core::campaign::CampaignSpec;
use sim_threads::Engine;
use workloads::campaign::matrix::{self, MatrixPlan};

fn spec(name: &str) -> MatrixPlan {
    let path = format!("{}/../specs/{name}.toml", env!("CARGO_MANIFEST_DIR"));
    let src = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
    let spec = CampaignSpec::parse(&src).unwrap_or_else(|e| panic!("{path}: {e}"));
    MatrixPlan::from_spec(spec).unwrap_or_else(|e| panic!("{path}: {e}"))
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("sgxperf-golden-{}-{tag}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

/// Reads every archived artifact (traces + summaries) as (name, bytes),
/// sorted by name.
fn artifacts(dir: &PathBuf) -> Vec<(String, Vec<u8>)> {
    let mut out: Vec<(String, Vec<u8>)> = std::fs::read_dir(dir)
        .unwrap_or_else(|e| panic!("{}: {e}", dir.display()))
        .map(|entry| {
            let entry = entry.unwrap();
            (
                entry.file_name().into_string().unwrap(),
                std::fs::read(entry.path()).unwrap(),
            )
        })
        .collect();
    out.sort();
    out
}

#[test]
fn smoke_spec_is_byte_identical_across_runs_and_engines() {
    let plan = spec("smoke");
    let dir_fast1 = temp_dir("fast1");
    let dir_fast2 = temp_dir("fast2");
    let dir_legacy = temp_dir("legacy");

    let fast1 = matrix::run(&plan, Engine::Fast, 1, Some(&dir_fast1), false).unwrap();
    let fast2 = matrix::run(&plan, Engine::Fast, 4, Some(&dir_fast2), false).unwrap();
    let legacy = matrix::run(&plan, Engine::Legacy, 2, Some(&dir_legacy), false).unwrap();

    // Exit contract: a faultless seed-replica matrix never regresses.
    assert_eq!(fast1.exit_code(), 0, "{}", fast1.render());
    assert_eq!(legacy.exit_code(), 0, "{}", legacy.render());

    // Summaries are byte-stable across runs, worker counts and engines.
    assert_eq!(fast1.render(), fast2.render());
    assert_eq!(fast1.to_json(), fast2.to_json());
    assert_eq!(fast1.render(), legacy.render(), "fast vs legacy summary");
    assert_eq!(fast1.to_json(), legacy.to_json());

    // Every archived artifact — one trace per cell plus the two summary
    // files and the manifest — is byte-identical too.
    let a = artifacts(&dir_fast1);
    assert_eq!(
        a.len(),
        plan.spec.cell_count() + 3,
        "one file per cell + summaries + manifest"
    );
    assert_eq!(a, artifacts(&dir_fast2), "fast run-to-run artifacts");
    assert_eq!(a, artifacts(&dir_legacy), "fast vs legacy artifacts");

    for dir in [dir_fast1, dir_fast2, dir_legacy] {
        std::fs::remove_dir_all(dir).ok();
    }
}

#[test]
fn chaos_spec_trips_the_gate_identically_on_both_engines() {
    let plan = spec("chaos_matrix");
    let fast = matrix::run(&plan, Engine::Fast, 0, None, false).unwrap();
    let legacy = matrix::run(&plan, Engine::Legacy, 0, None, false).unwrap();

    // The storm plan deterministically regresses the faulted cells.
    assert_eq!(fast.exit_code(), REGRESSION_EXIT_CODE, "{}", fast.render());
    assert!(fast.regressed() > 0);
    assert!(fast.render().contains("REGRESSED"), "{}", fast.render());

    // Both engines agree on the whole summary, not just the verdict.
    assert_eq!(fast.render(), legacy.render());
    assert_eq!(fast.to_json(), legacy.to_json());

    // Fault visibility: every storm cell records fault rows, no clean
    // cell does.
    for cell in &fast.cells {
        let is_storm = plan.spec.plans[cell.coord.plan].0 == "storm";
        assert_eq!(
            cell.fault_rows > 0,
            is_storm,
            "cell {} ({}): {} fault rows",
            cell.coord.index,
            cell.file,
            cell.fault_rows,
        );
    }
}

/// 64-bit FNV-1a, continued from `hash`.
fn fnv1a(hash: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(hash, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// (spec, exit code, archived files, FNV-1a digest over the sorted
/// (name, length, bytes) of every archived file) of each shipped spec.
const PINNED_ARCHIVES: &[(&str, u8, usize, u64)] = &[
    ("smoke", 0, 7, 0x11fa38222fbdb31b),
    ("stressors", 0, 99, 0x311e45491a4a78cb),
    ("chaos_matrix", 3, 11, 0xf411bdbccdf26e95),
    ("faulty", 4, 5, 0x6e7ec54bd46d7a9b),
];

#[test]
fn shipped_spec_archives_are_pinned() {
    let mut actual = Vec::new();
    for &(name, ..) in PINNED_ARCHIVES {
        let plan = spec(name);
        let dir = temp_dir(&format!("pinned-{name}"));
        let run = matrix::run(&plan, Engine::Fast, 1, Some(&dir), false).unwrap();
        let files = artifacts(&dir);
        let digest = files
            .iter()
            .fold(0xcbf2_9ce4_8422_2325, |h, (file, bytes)| {
                let h = fnv1a(h, file.as_bytes());
                let h = fnv1a(h, &(bytes.len() as u64).to_le_bytes());
                fnv1a(h, bytes)
            });
        actual.push((name, run.exit_code(), files.len(), digest));
        std::fs::remove_dir_all(&dir).ok();
    }
    let table: String = actual
        .iter()
        .map(|(name, code, files, digest)| {
            format!("    (\"{name}\", {code}, {files}, 0x{digest:016x}),\n")
        })
        .collect();
    assert_eq!(
        actual, PINNED_ARCHIVES,
        "campaign archives changed; new values:\n{table}"
    );
}
