//! The input contract of the three text parsers, under seeded byte-level
//! mutations of the inputs the repository ships: the campaign specs in
//! `specs/`, their fault plans and the canned ones, and the EDL files.
//!
//! Each mutant is its source with one to three edits: a flipped bit, an
//! inserted byte (often one the grammars treat specially), a deleted
//! byte, or a cut. No parser may panic on it, and whatever a parser
//! accepts must re-parse to itself from its canonical `Display`.

use proptest::prelude::TestRng;
use sgx_edl::lint::{lint_source, LintConfig};
use sim_core::campaign::CampaignSpec;
use sim_core::fault::FaultPlan;
use workloads::campaign::matrix::MatrixPlan;
use workloads::{chaos, supervisor_loop};

/// Mutants per source.
const MUTANTS: usize = 1_500;

/// Bytes with a meaning in at least one of the three grammars.
const SPECIAL: &[u8] = b"[]{}()=\";,@:*#-.\n 0123456789abcdefghijklmnopqrstuvwxyz_";

/// One to three seeded edits of `source`; invalid UTF-8 is replaced.
fn mutate(rng: &mut TestRng, source: &str) -> String {
    let mut bytes = source.as_bytes().to_vec();
    for _ in 0..=rng.below(3) {
        let at = rng.below(bytes.len() as u64 + 1) as usize;
        match rng.below(4) {
            0 if at < bytes.len() => bytes[at] ^= 1 << rng.below(8),
            1 => {
                let byte = match rng.below(2) {
                    0 => SPECIAL[rng.below(SPECIAL.len() as u64) as usize],
                    _ => rng.below(256) as u8,
                };
                bytes.insert(at, byte);
            }
            2 if at < bytes.len() => {
                bytes.remove(at);
            }
            _ => bytes.truncate(at),
        }
    }
    String::from_utf8_lossy(&bytes).into_owned()
}

fn read(path: &str) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{path}: {e}"))
}

fn shipped_specs() -> Vec<String> {
    ["smoke", "stressors", "chaos_matrix", "faulty"]
        .iter()
        .map(|name| {
            read(&format!(
                "{}/../specs/{name}.toml",
                env!("CARGO_MANIFEST_DIR")
            ))
        })
        .collect()
}

#[test]
fn mutated_campaign_specs_never_panic_and_accepted_ones_are_canonical() {
    let mut rng = TestRng::from_name("mutated_campaign_specs");
    let mut accepted = 0;
    for source in shipped_specs() {
        for _ in 0..MUTANTS {
            let mutant = mutate(&mut rng, &source);
            let Ok(spec) = CampaignSpec::parse(&mutant) else {
                continue;
            };
            accepted += 1;
            let canonical = spec.to_string();
            assert_eq!(
                CampaignSpec::parse(&canonical).as_ref(),
                Ok(&spec),
                "{mutant:?} does not re-parse from {canonical:?}"
            );
            let _ = MatrixPlan::from_spec(spec);
        }
    }
    assert!(accepted > 0, "no mutant was accepted");
}

#[test]
fn mutated_fault_plans_never_panic_and_accepted_ones_are_canonical() {
    let mut plans: Vec<String> = (shipped_specs().iter())
        .flat_map(|source| CampaignSpec::parse(source).expect("shipped spec").plans)
        .map(|(_, plan)| plan.to_string())
        .filter(|text| !text.is_empty())
        .collect();
    plans.push(chaos::regression_plan(5).to_string());
    plans.push(supervisor_loop::loss_plan(12).to_string());
    let mut rng = TestRng::from_name("mutated_fault_plans");
    let mut accepted = 0;
    for source in &plans {
        for _ in 0..MUTANTS {
            let mutant = mutate(&mut rng, source);
            let Ok(plan) = FaultPlan::parse(&mutant) else {
                continue;
            };
            accepted += 1;
            let canonical = plan.to_string();
            assert_eq!(
                FaultPlan::parse(&canonical).as_ref(),
                Ok(&plan),
                "{mutant:?} does not re-parse from {canonical:?}"
            );
        }
    }
    assert!(accepted > 0, "no mutant was accepted");
}

#[test]
fn mutated_edl_files_never_panic() {
    let fixtures = format!(
        "{}/../crates/sgx-edl/tests/fixtures",
        env!("CARGO_MANIFEST_DIR")
    );
    let mut files: Vec<String> = std::fs::read_dir(&fixtures)
        .unwrap_or_else(|e| panic!("{fixtures}: {e}"))
        .map(|entry| entry.expect("fixture entry").path())
        .filter(|path| path.extension().is_some_and(|e| e == "edl"))
        .map(|path| read(&path.to_string_lossy()))
        .collect();
    files.push(include_str!("../src/demo.edl").to_string());
    assert_eq!(files.len(), 9, "eight lint fixtures and the demo");
    let mut rng = TestRng::from_name("mutated_edl_files");
    for source in &files {
        for _ in 0..MUTANTS {
            let mutant = mutate(&mut rng, source);
            let _ = sgx_edl::parse(&mutant);
            let _ = lint_source(&mutant, &LintConfig::default());
        }
    }
}
