//! EDL lint driver with trace cross-checking.
//!
//! [`sgx_edl::lint`] is purely static: it sees the interface declaration
//! and nothing else. This module intersects its diagnostics with a
//! recorded [`TraceDb`], which settles questions the static pass can only
//! flag conservatively:
//!
//! * an `EDL-W001` `user_check` pointer on a call the trace proves was
//!   actually exercised is escalated from *warning* to *error* — the
//!   unchecked pointer is not dead interface, production code crosses it;
//! * a public ecall that never appears in the trace becomes `EDL-W009`,
//!   the static twin of the security analysis' make-private
//!   recommendation (§3.6): unused surface should be removed.

use std::collections::BTreeMap;

use sgx_edl::ast::EdlFile;
use sgx_edl::lint::{codes, lint_file, Diagnostic, LintConfig, Severity};

use crate::events::CallKind;
use crate::trace::TraceDb;

use super::parents::CallTable;

/// Lints a parsed EDL interface, cross-checking against `trace` when one
/// is supplied. Diagnostics come back sorted by source position.
pub fn lint_interface(
    file: &EdlFile,
    config: &LintConfig,
    trace: Option<&TraceDb>,
) -> Vec<Diagnostic> {
    let mut diags = lint_file(file, config);
    if let Some(trace) = trace {
        cross_check(file, trace, &mut diags);
        diags.sort_by_key(|d| (d.span.start.line, d.span.start.col, d.code));
    }
    diags
}

/// Number of recorded executions per symbol name (ecalls and ocalls):
/// each symbol row adds the rows of its (enclave, kind, index), so a
/// duplicated symbol row counts its calls twice.
fn execution_counts(trace: &TraceDb) -> BTreeMap<&str, usize> {
    let table = CallTable::of(trace);
    let mut rows = vec![0usize; table.len()];
    let ids = table.row_ids(CallKind::Ecall).iter();
    for id in ids.chain(table.row_ids(CallKind::Ocall)) {
        rows[id.index()] += 1;
    }
    let mut counts: BTreeMap<&str, usize> = BTreeMap::new();
    for (sym, id) in trace.symbols.iter().zip(table.symbol_ids()) {
        *counts.entry(&sym.name).or_default() += rows[id.index()];
    }
    counts
}

fn cross_check(file: &EdlFile, trace: &TraceDb, diags: &mut Vec<Diagnostic>) {
    let counts = execution_counts(trace);

    // Escalate user_check warnings on calls the trace exercises.
    for d in diags.iter_mut() {
        if d.code != codes::USER_CHECK || d.severity >= Severity::Error {
            continue;
        }
        let Some(func) = &d.function else { continue };
        let n = counts.get(func.as_str()).copied().unwrap_or(0);
        if n > 0 {
            d.severity = Severity::Error;
            d.message
                .push_str(&format!("; the trace exercises `{func}` {n} time(s)"));
        }
    }

    // Public ecalls the trace never exercised: candidates for removal.
    for decl in file.trusted.iter().filter(|d| d.public) {
        if counts.get(decl.name.as_str()).copied().unwrap_or(0) > 0 {
            continue;
        }
        diags.push(Diagnostic {
            code: codes::UNUSED_ECALL,
            severity: Severity::Note,
            span: decl.name_span,
            message: format!(
                "public ecall `{}` is never exercised by the supplied trace",
                decl.name
            ),
            suggestion: Some(
                "remove the ecall, or make it private if it is only needed during ocalls"
                    .to_string(),
            ),
            function: Some(decl.name.clone()),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::events::{EcallRow, OcallRow, SymbolRow};
    use sgx_edl::parse_file;

    const EDL: &str = "enclave { trusted {
        public void ecall_used([user_check] void* p);
        public void ecall_dead();
    }; };";

    fn trace_exercising_used() -> TraceDb {
        let mut trace = TraceDb::default();
        trace.symbols.insert(SymbolRow {
            enclave: 1,
            kind_is_ecall: true,
            index: 0,
            name: "ecall_used".into(),
            public: true,
            allowed_ecalls: vec![],
            user_check_params: vec!["p".into()],
        });
        trace.symbols.insert(SymbolRow {
            enclave: 1,
            kind_is_ecall: true,
            index: 1,
            name: "ecall_dead".into(),
            public: true,
            allowed_ecalls: vec![],
            user_check_params: vec![],
        });
        for k in 0..3u64 {
            trace.ecalls.insert(EcallRow {
                thread: 0,
                enclave: 1,
                call_index: 0,
                start_ns: k * 10_000,
                end_ns: k * 10_000 + 5_000,
                parent_ocall: None,
                aex_count: 0,
                failed: false,
            });
        }
        trace
    }

    #[test]
    fn static_pass_alone_keeps_warning_severity() {
        let file = parse_file(EDL).unwrap();
        let diags = lint_interface(&file, &LintConfig::default(), None);
        let w1 = diags.iter().find(|d| d.code == codes::USER_CHECK).unwrap();
        assert_eq!(w1.severity, Severity::Warning);
        assert!(!diags.iter().any(|d| d.code == codes::UNUSED_ECALL));
    }

    #[test]
    fn exercised_user_check_escalates_to_error() {
        let file = parse_file(EDL).unwrap();
        let trace = trace_exercising_used();
        let diags = lint_interface(&file, &LintConfig::default(), Some(&trace));
        let w1 = diags.iter().find(|d| d.code == codes::USER_CHECK).unwrap();
        assert_eq!(w1.severity, Severity::Error);
        assert!(w1.message.contains("3 time(s)"), "{w1:?}");
    }

    #[test]
    fn unexercised_public_ecall_reported_as_w009() {
        let file = parse_file(EDL).unwrap();
        let trace = trace_exercising_used();
        let diags = lint_interface(&file, &LintConfig::default(), Some(&trace));
        let w9 = diags
            .iter()
            .find(|d| d.code == codes::UNUSED_ECALL)
            .unwrap();
        assert_eq!(w9.function.as_deref(), Some("ecall_dead"));
        assert_eq!(w9.severity, Severity::Note);
        // Anchored at the ecall's name on line 3.
        assert_eq!(w9.span.start.line, 3);
        // The exercised ecall is not flagged.
        assert!(!diags
            .iter()
            .any(|d| d.code == codes::UNUSED_ECALL && d.function.as_deref() == Some("ecall_used")));
    }

    #[test]
    fn empty_trace_flags_every_public_ecall() {
        let file = parse_file(EDL).unwrap();
        let trace = TraceDb::default();
        let diags = lint_interface(&file, &LintConfig::default(), Some(&trace));
        let unused: Vec<_> = diags
            .iter()
            .filter(|d| d.code == codes::UNUSED_ECALL)
            .collect();
        assert_eq!(unused.len(), 2);
    }

    #[test]
    fn execution_counts_key_on_kind_and_add_duplicate_symbols() {
        let mut trace = trace_exercising_used();
        // A second symbol row for `ecall_used` adds its calls again.
        let duplicate = trace.symbols.iter().next().unwrap().clone();
        trace.symbols.insert(duplicate);
        // An ocall sharing index 0 with `ecall_used` counts only for itself.
        trace.symbols.insert(SymbolRow {
            enclave: 1,
            kind_is_ecall: false,
            index: 0,
            name: "ocall_zero".into(),
            public: false,
            allowed_ecalls: vec![],
            user_check_params: vec![],
        });
        for k in 0..2u64 {
            trace.ocalls.insert(OcallRow {
                thread: 0,
                enclave: 1,
                call_index: 0,
                start_ns: k * 10_000 + 1_000,
                end_ns: k * 10_000 + 2_000,
                parent_ecall: Some(k),
                failed: false,
            });
        }
        let counts = execution_counts(&trace);
        assert_eq!(counts["ecall_used"], 6);
        assert_eq!(counts["ocall_zero"], 2);
        assert_eq!(counts["ecall_dead"], 0);
    }
}
