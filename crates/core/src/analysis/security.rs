//! Enclave interface security analysis (§3.6, §4.3.2).
//!
//! Three checks:
//!
//! 1. **Private-ecall candidates**: if every traced instance of a public
//!    ecall has a direct parent (it was only ever issued during ocalls),
//!    recommend declaring it private, listing the ocalls that need to
//!    `allow()` it. The recommendation is workload-dependent by nature.
//! 2. **Allow-list minimisation**: compare each ocall's declared `allow()`
//!    set (from the captured symbols, or a supplied EDL) with the ecalls
//!    actually observed during it; recommend removing the rest. Without a
//!    declared set, report the smallest sufficient set.
//! 3. **`user_check` pointers**: highlight calls with `user_check`
//!    parameters so the developer re-checks their validation.

use crate::events::{CallKind, CallRef};

use super::detect::{Detection, Problem, Recommendation, PRIO_SECURITY};
use super::parents::{CallId, Instances};
use super::Analyzer;

/// Runs the three security checks.
pub fn analyze(analyzer: &Analyzer<'_>, instances: &Instances) -> Vec<Detection> {
    let mut out = Vec::new();
    out.extend(private_candidates(analyzer, instances));
    out.extend(allow_list_minimisation(analyzer, instances));
    out.extend(user_check_review(analyzer));
    out
}

fn private_candidates(analyzer: &Analyzer<'_>, instances: &Instances) -> Vec<Detection> {
    let trace = analyzer.trace();
    let table = instances.table();
    let symbols = trace.symbols.iter().zip(table.symbol_ids());
    let mut out = Vec::new();
    for (sym, &id) in symbols.filter(|(s, _)| s.kind_is_ecall && s.public) {
        let mut total = 0usize;
        let mut parent_ocalls: Vec<CallId> = Vec::new();
        let mut all_nested = true;
        for i in instances.of_id(id) {
            total += 1;
            match i.direct_parent {
                Some((CallKind::Ocall, row)) => {
                    if let Some(p) = instances.position(CallKind::Ocall, row) {
                        parent_ocalls.push(instances.ids()[p]);
                    }
                }
                _ => all_nested = false,
            }
        }
        if total == 0 || !all_nested {
            continue;
        }
        parent_ocalls.sort_unstable();
        parent_ocalls.dedup();
        let allow_from: Vec<String> = parent_ocalls
            .iter()
            .map(|&o| table.name(o).into_owned())
            .collect();
        out.push(Detection {
            target: table.call(id),
            name: sym.name.clone(),
            problem: Problem::Interface,
            recommendation: Recommendation::MakePrivate { allow_from },
            evidence: format!(
                "all {total} executions were issued during ocalls (workload-dependent)"
            ),
            priority: PRIO_SECURITY,
        });
    }
    out
}

fn allow_list_minimisation(analyzer: &Analyzer<'_>, instances: &Instances) -> Vec<Detection> {
    let trace = analyzer.trace();
    // Observed nested ecalls as (ocall number, ecall index) pairs, sorted
    // and distinct: each ocall's observed set is one run.
    let table = instances.table();
    let mut observed: Vec<(CallId, u32)> = Vec::new();
    for i in &instances.all {
        if i.call.kind != CallKind::Ecall {
            continue;
        }
        if let Some((CallKind::Ocall, row)) = i.direct_parent {
            if let Some(p) = instances.position(CallKind::Ocall, row) {
                observed.push((instances.ids()[p], i.call.index));
            }
        }
    }
    observed.sort_unstable();
    observed.dedup();
    let mut out = Vec::new();
    let symbols = trace.symbols.iter().zip(table.symbol_ids());
    for (sym, &id) in symbols.filter(|(s, _)| !s.kind_is_ecall) {
        let call = table.call(id);
        // Prefer the supplied EDL's declaration when available.
        let declared: Option<Vec<u32>> = match analyzer.edl() {
            Some(spec) => spec
                .ocall_by_name(&sym.name)
                .map(|o| o.allowed_ecalls.iter().map(|&i| i as u32).collect()),
            None => Some(sym.allowed_ecalls.clone()),
        };
        let run = observed.partition_point(|&(o, _)| o < id);
        let len = observed[run..].partition_point(|&(o, _)| o == id);
        let used = &observed[run..run + len];
        let Some(declared) = declared else { continue };
        let excess: Vec<u32> = declared
            .iter()
            .copied()
            .filter(|&i| used.binary_search_by_key(&i, |&(_, e)| e).is_err())
            .collect();
        if excess.is_empty() {
            continue;
        }
        let remove: Vec<String> = excess
            .iter()
            .map(|&index| {
                let ecall = CallRef {
                    kind: CallKind::Ecall,
                    index,
                    ..call
                };
                instances.name(ecall).into_owned()
            })
            .collect();
        out.push(Detection {
            target: call,
            name: sym.name.clone(),
            problem: Problem::Interface,
            recommendation: Recommendation::RestrictAllowedEcalls { remove },
            evidence: format!(
                "allow() declares {} ecall(s), only {} observed",
                declared.len(),
                used.len()
            ),
            priority: PRIO_SECURITY,
        });
    }
    out
}

fn user_check_review(analyzer: &Analyzer<'_>) -> Vec<Detection> {
    let trace = analyzer.trace();
    let mut out = Vec::new();
    for sym in trace.symbols.iter() {
        if sym.user_check_params.is_empty() {
            continue;
        }
        out.push(Detection {
            target: sym.call_ref(),
            name: sym.name.clone(),
            problem: Problem::Interface,
            recommendation: Recommendation::ReviewUserCheck {
                params: sym.user_check_params.clone(),
            },
            evidence: "user_check pointers bypass SDK copying and checking".to_string(),
            priority: PRIO_SECURITY,
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::events::{EcallRow, OcallRow, SymbolRow};
    use crate::trace::TraceDb;
    use sim_core::HwProfile;

    fn symbol(
        trace: &mut TraceDb,
        is_ecall: bool,
        index: u32,
        name: &str,
        public: bool,
        allowed: Vec<u32>,
        user_check: Vec<String>,
    ) {
        trace.symbols.insert(SymbolRow {
            enclave: 1,
            kind_is_ecall: is_ecall,
            index,
            name: name.into(),
            public,
            allowed_ecalls: allowed,
            user_check_params: user_check,
        });
    }

    #[test]
    fn always_nested_public_ecall_flagged_private() {
        let mut trace = TraceDb::default();
        symbol(&mut trace, true, 0, "front", true, vec![], vec![]);
        symbol(&mut trace, true, 1, "helper_ecall", true, vec![], vec![]);
        symbol(&mut trace, false, 0, "ocall_cb", false, vec![1], vec![]);
        // front (top-level) calls ocall_cb which calls helper_ecall.
        for k in 0..3u64 {
            let base = k * 100_000;
            trace.ecalls.insert(EcallRow {
                thread: 0,
                enclave: 1,
                call_index: 0,
                start_ns: base,
                end_ns: base + 50_000,
                parent_ocall: None,
                aex_count: 0,
                failed: false,
            });
            trace.ocalls.insert(OcallRow {
                thread: 0,
                enclave: 1,
                call_index: 0,
                start_ns: base + 10_000,
                end_ns: base + 30_000,
                parent_ecall: Some(k * 2),
                failed: false,
            });
            trace.ecalls.insert(EcallRow {
                thread: 0,
                enclave: 1,
                call_index: 1,
                start_ns: base + 15_000,
                end_ns: base + 25_000,
                parent_ocall: Some(k),
                aex_count: 0,
                failed: false,
            });
        }
        let a = Analyzer::new(&trace, HwProfile::Unpatched.cost_model());
        let findings = analyze(&a, &a.instances());
        let private = findings
            .iter()
            .find(|d| matches!(&d.recommendation, Recommendation::MakePrivate { .. }))
            .expect("private candidate");
        assert_eq!(private.name, "helper_ecall");
        match &private.recommendation {
            Recommendation::MakePrivate { allow_from } => {
                assert_eq!(allow_from, &vec!["ocall_cb".to_string()]);
            }
            other => panic!("unexpected {other:?}"),
        }
        // `front` ran top-level: not a candidate.
        assert!(!findings
            .iter()
            .any(|d| d.name == "front"
                && matches!(d.recommendation, Recommendation::MakePrivate { .. })));
    }

    #[test]
    fn over_broad_allow_list_flagged() {
        let mut trace = TraceDb::default();
        symbol(&mut trace, true, 0, "used", true, vec![], vec![]);
        symbol(&mut trace, true, 1, "never_used", true, vec![], vec![]);
        symbol(&mut trace, false, 0, "ocall_cb", false, vec![0, 1], vec![]);
        trace.ocalls.insert(OcallRow {
            thread: 0,
            enclave: 1,
            call_index: 0,
            start_ns: 0,
            end_ns: 10_000,
            parent_ecall: None,
            failed: false,
        });
        trace.ecalls.insert(EcallRow {
            thread: 0,
            enclave: 1,
            call_index: 0,
            start_ns: 1_000,
            end_ns: 2_000,
            parent_ocall: Some(0),
            aex_count: 0,
            failed: false,
        });
        let a = Analyzer::new(&trace, HwProfile::Unpatched.cost_model());
        let findings = analyze(&a, &a.instances());
        let restrict = findings
            .iter()
            .find(|d| {
                matches!(
                    &d.recommendation,
                    Recommendation::RestrictAllowedEcalls { .. }
                )
            })
            .expect("restrict finding");
        match &restrict.recommendation {
            Recommendation::RestrictAllowedEcalls { remove } => {
                assert_eq!(remove, &vec!["never_used".to_string()]);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn user_check_params_highlighted() {
        let mut trace = TraceDb::default();
        symbol(
            &mut trace,
            true,
            0,
            "ecall_write",
            true,
            vec![],
            vec!["buf".into()],
        );
        let a = Analyzer::new(&trace, HwProfile::Unpatched.cost_model());
        let findings = analyze(&a, &a.instances());
        assert!(findings.iter().any(|d| matches!(
            &d.recommendation,
            Recommendation::ReviewUserCheck { params } if params == &vec!["buf".to_string()]
        )));
    }

    #[test]
    fn clean_interface_produces_no_findings() {
        let mut trace = TraceDb::default();
        symbol(&mut trace, true, 0, "e", true, vec![], vec![]);
        trace.ecalls.insert(EcallRow {
            thread: 0,
            enclave: 1,
            call_index: 0,
            start_ns: 0,
            end_ns: 1_000,
            parent_ocall: None,
            aex_count: 0,
            failed: false,
        });
        let a = Analyzer::new(&trace, HwProfile::Unpatched.cost_model());
        assert!(analyze(&a, &a.instances()).is_empty());
    }
}
