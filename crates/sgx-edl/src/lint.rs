//! Static analysis over enclave interfaces — `edl-lint`.
//!
//! The paper's security analysis (§3.6, §4.3.2) inspects a *running*
//! enclave's trace for dangerous interface usage. This module is the
//! static complement: it walks the parsed AST (not the validated
//! [`crate::InterfaceSpec`], so it can report problems the validator
//! would reject outright, such as duplicate `allow()` entries) and emits
//! span-accurate [`Diagnostic`]s that render rustc-style with a source
//! excerpt and caret underline.
//!
//! # Lint codes
//!
//! | Code | Severity | Meaning |
//! |----------|---------|---------|
//! | EDL-W001 | warning | `user_check` pointer crosses the boundary unchecked |
//! | EDL-W002 | warning | sized pointer without `size=`/`count=` copies one element |
//! | EDL-W003 | error   | conflicting attributes (`string`+`user_check`, `string`+`out`, `user_check`+`in`/`out`) |
//! | EDL-W004 | warning | `allow()` entry closes a re-entrancy cycle (unbounded recursion) |
//! | EDL-W005 | warning | `allow()` names a *public* ecall (re-enterable and world-callable) |
//! | EDL-W006 | note    | wide public surface: more public ecalls than the configured bound |
//! | EDL-W007 | error   | duplicate entry in an `allow()` list |
//! | EDL-W008 | warning | large boundary copy; estimated cost per call from the §2.3.1 model |
//! | EDL-W009 | note    | public ecall never exercised by the supplied trace (cross-check mode) |
//! | EDL-W010 | warning | `transition_using_threads` on a call with large `[in]`/`[out]` buffers |
//!
//! EDL-W009 and severity escalation of EDL-W001 (a `user_check` pointer
//! that a trace proves is actually exercised) are produced by the
//! trace cross-check layer in the sgx-perf analyzer, which owns the trace
//! database; the code and rendering live here so all diagnostics share
//! one vocabulary.
//!
//! # Examples
//!
//! ```
//! use sgx_edl::lint::{lint_source, LintConfig};
//!
//! let diags = lint_source(
//!     "enclave { trusted { public void e([user_check] void* p); }; };",
//!     &LintConfig::default(),
//! )?;
//! assert_eq!(diags[0].code, "EDL-W001");
//! # Ok::<(), sgx_edl::EdlError>(())
//! ```

use std::collections::{HashMap, HashSet};
use std::fmt;

use crate::ast::{AttrKind, EdlFile, FunctionDecl, ParamDecl};
use crate::parser::parse_file;
use crate::token::Span;
use crate::EdlError;

/// How serious a finding is. Ordered: `Note < Warning < Error`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Informational; no action strictly required.
    Note,
    /// Likely problem or performance hazard.
    Warning,
    /// Interface is broken or unsafe as written.
    Error,
}

impl Severity {
    /// Lowercase label as rendered in diagnostics (`warning[EDL-W001]: ...`).
    pub fn label(self) -> &'static str {
        match self {
            Severity::Note => "note",
            Severity::Warning => "warning",
            Severity::Error => "error",
        }
    }
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// One lint finding, anchored to the exact source region it concerns.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Stable lint code (`EDL-W001` ... ), usable with deny lists.
    pub code: &'static str,
    /// How serious the finding is.
    pub severity: Severity,
    /// The offending source region.
    pub span: Span,
    /// One-line description of the problem.
    pub message: String,
    /// Optional `help:` line suggesting a fix.
    pub suggestion: Option<String>,
    /// The ecall/ocall the finding concerns, for trace cross-checking.
    pub function: Option<String>,
}

impl Diagnostic {
    fn new(
        code: &'static str,
        severity: Severity,
        span: Span,
        message: impl Into<String>,
    ) -> Diagnostic {
        Diagnostic {
            code,
            severity,
            span,
            message: message.into(),
            suggestion: None,
            function: None,
        }
    }

    fn help(mut self, s: impl Into<String>) -> Diagnostic {
        self.suggestion = Some(s.into());
        self
    }

    fn on(mut self, function: &str) -> Diagnostic {
        self.function = Some(function.to_string());
        self
    }

    /// Renders the diagnostic rustc-style against its source text:
    ///
    /// ```text
    /// warning[EDL-W001]: `user_check` pointer `p` on ecall `e` is unchecked
    ///  --> enclave.edl:1:36
    ///   |
    /// 1 | enclave { trusted { public void e([user_check] void* p); }; };
    ///   |                                    ^^^^^^^^^^
    ///   = help: validate inside the enclave, or use [in]/[out] with size=
    /// ```
    pub fn render(&self, source: &str, filename: &str) -> String {
        let line_no = self.span.start.line as usize;
        let gutter = line_no.to_string();
        let pad = " ".repeat(gutter.len());
        let mut out = format!(
            "{}[{}]: {}\n{pad}--> {filename}:{}:{}\n{pad} |\n",
            self.severity, self.code, self.message, self.span.start.line, self.span.start.col,
        );
        if let Some(text) = source.lines().nth(line_no - 1) {
            let start = self.span.start.col as usize;
            // Multi-line spans underline to the end of the first line.
            let end = if self.span.end.line == self.span.start.line {
                (self.span.end.col as usize).max(start + 1)
            } else {
                text.chars().count() + 1
            };
            let carets = "^".repeat(end - start);
            out.push_str(&format!(
                "{gutter} | {text}\n{pad} | {}{carets}\n",
                " ".repeat(start - 1),
            ));
        }
        if let Some(help) = &self.suggestion {
            out.push_str(&format!("{pad} = help: {help}\n"));
        }
        out
    }
}

/// Tunables for the lint pass.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LintConfig {
    /// EDL-W006 fires when the interface declares more public ecalls than
    /// this (§3.6: every public ecall is attack surface).
    pub max_public_ecalls: usize,
    /// EDL-W008 fires when a statically-sized boundary copy moves at least
    /// this many bytes per call.
    pub large_copy_bytes: u64,
}

impl Default for LintConfig {
    fn default() -> LintConfig {
        LintConfig {
            max_public_ecalls: 8,
            large_copy_bytes: 8192,
        }
    }
}

/// Parses `source` and lints the AST.
///
/// # Errors
///
/// Returns the parse error if `source` is not syntactically valid EDL;
/// semantic problems the validator would reject (duplicate allow entries,
/// conflicting attributes, ...) come back as diagnostics instead.
pub fn lint_source(source: &str, config: &LintConfig) -> Result<Vec<Diagnostic>, EdlError> {
    Ok(lint_file(&parse_file(source)?, config))
}

/// Lints a parsed AST. Diagnostics come back sorted by source position,
/// then by code.
pub fn lint_file(file: &EdlFile, config: &LintConfig) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    for decl in file.trusted.iter().chain(&file.untrusted) {
        for param in &decl.params {
            lint_param(decl, param, config, &mut diags);
        }
    }
    lint_allow_lists(file, &mut diags);
    lint_public_surface(file, config, &mut diags);
    lint_switchless_copies(file, config, &mut diags);
    diags.sort_by_key(|d| {
        (
            d.span.start.line,
            d.span.start.col,
            d.code,
            std::cmp::Reverse(d.severity),
        )
    });
    diags
}

/// Rough per-element byte widths for the C types EDL interfaces use, so
/// `count=` attributes can be turned into byte estimates. Unknown types
/// count as one byte (an under-estimate; EDL-W008 stays conservative).
fn type_width(base: &str) -> u64 {
    match base {
        "char" | "signed char" | "unsigned char" | "int8_t" | "uint8_t" | "void" | "bool" => 1,
        "short" | "unsigned short" | "int16_t" | "uint16_t" => 2,
        "int" | "unsigned int" | "unsigned" | "int32_t" | "uint32_t" | "float" => 4,
        "long" | "unsigned long" | "long long" | "unsigned long long" | "int64_t" | "uint64_t"
        | "size_t" | "double" | "intptr_t" | "uintptr_t" => 8,
        _ => 1,
    }
}

fn lint_param(
    decl: &FunctionDecl,
    p: &ParamDecl,
    config: &LintConfig,
    diags: &mut Vec<Diagnostic>,
) {
    // EDL-W001: user_check pointers cross the boundary with no copying and
    // no bounds checks — the exact list §3.6 tells a reviewer to audit.
    if let Some(uc) = p.user_check_attr() {
        diags.push(
            Diagnostic::new(
                "EDL-W001",
                Severity::Warning,
                uc.span,
                format!(
                    "`user_check` pointer `{}` on `{}` crosses the enclave boundary unchecked",
                    p.name, decl.name
                ),
            )
            .help("validate the pointer inside the enclave, or use [in]/[out] with size=/count=")
            .on(&decl.name),
        );
    }

    // EDL-W003: mutually-contradictory attribute combinations.
    let conflict = |a: Span, b: Span, msg: String| {
        Diagnostic::new("EDL-W003", Severity::Error, a.to(b), msg).on(&decl.name)
    };
    if let (Some(s), Some(uc)) = (p.string_attr(), p.user_check_attr()) {
        diags.push(
            conflict(
                s.span,
                uc.span,
                format!(
                    "parameter `{}` combines `string` (copied, NUL-scanned) with `user_check` (never copied)",
                    p.name
                ),
            )
            .help("drop one of the two attributes"),
        );
    }
    if let Some(s) = p.string_attr() {
        if p.is_out() && !p.is_in() {
            let out_span = p
                .find_kind(|k| matches!(k, AttrKind::Out))
                .map_or(s.span, |a| a.span);
            diags.push(
                conflict(
                    s.span,
                    out_span,
                    format!(
                        "parameter `{}` is `[out, string]`: the string length cannot be known before the call",
                        p.name
                    ),
                )
                .help("use [in, string], or [out] with an explicit size="),
            );
        }
    }
    if let Some(uc) = p.user_check_attr() {
        if p.is_in() || p.is_out() {
            let dir = p
                .find_kind(|k| matches!(k, AttrKind::In | AttrKind::Out))
                .map_or(uc.span, |a| a.span);
            diags.push(
                conflict(
                    uc.span,
                    dir,
                    format!(
                        "parameter `{}` combines `user_check` with a copying direction",
                        p.name
                    ),
                )
                .help("user_check pointers are passed raw; remove in/out or remove user_check"),
            );
        }
    }

    // EDL-W002: a directed pointer without size=/count=/string copies
    // exactly one element — almost never what a buffer parameter means.
    if p.pointer_depth > 0 && (p.is_in() || p.is_out()) && p.size_attr().is_none() && !p.is_string()
    {
        let what = if p.base_type == "void" {
            "has unknown element size".to_string()
        } else {
            format!("copies a single `{}`", p.base_type)
        };
        diags.push(
            Diagnostic::new(
                "EDL-W002",
                Severity::Warning,
                p.span,
                format!(
                    "pointer parameter `{}` on `{}` has no size=/count= and {what}",
                    p.name, decl.name
                ),
            )
            .help("add size=<bytes> or count=<elements> so the bridge copies the whole buffer")
            .on(&decl.name),
        );
    }

    // EDL-W008: statically-large boundary copies, priced with the §2.3.1
    // cost model (bytes / copy rate, doubled for [in, out]).
    if let Some(total) = static_copy_bytes(p) {
        if total >= config.large_copy_bytes {
            let est_ns = total * COPY_TENTH_NS_PER_BYTE / 10;
            diags.push(
                Diagnostic::new(
                    "EDL-W008",
                    Severity::Warning,
                    p.span,
                    format!(
                        "parameter `{}` on `{}` copies {total} bytes across the boundary per call (≈{est_ns} ns at the modelled copy rate)",
                        p.name, decl.name
                    ),
                )
                .help("shrink the buffer, switch to a chunked protocol, or keep the data on one side")
                .on(&decl.name),
            );
        }
    }
}

/// Copy cost in tenths of a nanosecond per byte, mirroring the
/// simulator's §2.3.1 cost model default (1 = 0.1 ns/B ≈ 10 GB/s). Used
/// only to phrase the EDL-W008 and EDL-W010 estimates.
const COPY_TENTH_NS_PER_BYTE: u64 = 1;

/// The statically-known bytes a parameter moves across the boundary per
/// call: `size=`/`count=` literal scaled by the element width, doubled
/// for `[in, out]`. `None` when the size is not a literal.
fn static_copy_bytes(p: &ParamDecl) -> Option<u64> {
    let n = p.static_bytes()?;
    let per_crossing = if p
        .size_attr()
        .is_some_and(|a| matches!(a.kind, AttrKind::Count(_)))
    {
        n.saturating_mul(type_width(&p.base_type))
    } else {
        n
    };
    let crossings = u64::from(p.is_in()) + u64::from(p.is_out());
    Some(per_crossing.saturating_mul(crossings.max(1)))
}

/// EDL-W010: `transition_using_threads` only pays off when the saved
/// transition dominates the per-call cost. A switchless call that also
/// marshals a large `[in]`/`[out]` buffer still pays the full copy on
/// every call — the worker-thread dispatch saves a few microseconds while
/// the copy costs more, so the annotation buys nothing (and pins worker
/// threads for it).
fn lint_switchless_copies(file: &EdlFile, config: &LintConfig, diags: &mut Vec<Diagnostic>) {
    for decl in file.trusted.iter().chain(&file.untrusted) {
        if !decl.switchless {
            continue;
        }
        let attr_span = decl.switchless_span.unwrap_or(decl.name_span);
        let total: u64 = decl
            .params
            .iter()
            .filter_map(static_copy_bytes)
            .fold(0, u64::saturating_add);
        if total >= config.large_copy_bytes {
            let est_ns = total * COPY_TENTH_NS_PER_BYTE / 10;
            diags.push(
                Diagnostic::new(
                    "EDL-W010",
                    Severity::Warning,
                    attr_span,
                    format!(
                        "`transition_using_threads` on `{}` moves {total} bytes per call (≈{est_ns} ns); the copy dwarfs the saved transition",
                        decl.name
                    ),
                )
                .help("drop the attribute for bulk-data calls, or shrink the buffer so the saved transition dominates")
                .on(&decl.name),
            );
        }
    }
}

fn lint_allow_lists(file: &EdlFile, diags: &mut Vec<Diagnostic>) {
    let publics: HashSet<&str> = file
        .trusted
        .iter()
        .filter(|d| d.public)
        .map(|d| d.name.as_str())
        .collect();
    let ecall_names: HashSet<&str> = file.trusted.iter().map(|d| d.name.as_str()).collect();

    for ocall in &file.untrusted {
        let mut seen: HashMap<&str, Span> = HashMap::new();
        for entry in &ocall.allowed_ecalls {
            // EDL-W007: duplicate allow entries. The validator rejects
            // these outright; the lint pinpoints the second occurrence.
            if let Some(first) = seen.get(entry.name.as_str()) {
                diags.push(
                    Diagnostic::new(
                        "EDL-W007",
                        Severity::Error,
                        entry.span,
                        format!(
                            "allow() on `{}` lists ecall `{}` twice (first at {})",
                            ocall.name, entry.name, first.start
                        ),
                    )
                    .help("remove the duplicate entry")
                    .on(&ocall.name),
                );
            } else {
                seen.insert(entry.name.as_str(), entry.span);
            }

            // EDL-W005: allowing a *public* ecall is redundant (it is
            // callable at any time anyway) and advertises that the
            // enclave tolerates re-entry through its widest surface.
            if publics.contains(entry.name.as_str()) {
                diags.push(
                    Diagnostic::new(
                        "EDL-W005",
                        Severity::Warning,
                        entry.span,
                        format!(
                            "allow() on `{}` names public ecall `{}`",
                            ocall.name, entry.name
                        ),
                    )
                    .help("make the ecall private if it is only meant to be reachable during this ocall")
                    .on(&ocall.name),
                );
            }

            // EDL-W004: re-entrancy cycles. Conservative call graph: an
            // ecall body may issue any declared ocall (bodies are opaque
            // at the interface level); an ocall may re-enter exactly the
            // ecalls its allow() list names. Flag the entry when the
            // allowed ecall can reach this ocall again — the enclave can
            // then recurse unboundedly, growing trusted stack per level.
            if ecall_names.contains(entry.name.as_str())
                && ecall_reaches_ocall(file, &entry.name, &ocall.name)
            {
                diags.push(
                    Diagnostic::new(
                        "EDL-W004",
                        Severity::Warning,
                        entry.span,
                        format!(
                            "allow() entry `{}` closes a re-entrancy cycle through ocall `{}`",
                            entry.name, ocall.name
                        ),
                    )
                    .help("bound the recursion in the ecall body, or drop the allow() entry")
                    .on(&ocall.name),
                );
            }
        }
    }
}

/// Walks the conservative call graph (ecall → every ocall, ocall → its
/// allow() list) checking whether `ecall` can reach `target_ocall`.
fn ecall_reaches_ocall(file: &EdlFile, ecall: &str, target_ocall: &str) -> bool {
    let mut visited_ecalls: HashSet<&str> = HashSet::new();
    let mut stack: Vec<&str> = vec![ecall];
    while let Some(current) = stack.pop() {
        if !visited_ecalls.insert(current) {
            continue;
        }
        // The ecall body may issue any declared ocall.
        for ocall in &file.untrusted {
            if ocall.name == target_ocall {
                return true;
            }
            for entry in &ocall.allowed_ecalls {
                if !visited_ecalls.contains(entry.name.as_str()) {
                    stack.push(&entry.name);
                }
            }
        }
    }
    false
}

fn lint_public_surface(file: &EdlFile, config: &LintConfig, diags: &mut Vec<Diagnostic>) {
    let publics: Vec<&FunctionDecl> = file.trusted.iter().filter(|d| d.public).collect();
    if publics.len() > config.max_public_ecalls {
        // Anchor at the first ecall beyond the bound so the caret points
        // at where the surface outgrew the budget.
        let over = publics[config.max_public_ecalls];
        diags.push(
            Diagnostic::new(
                "EDL-W006",
                Severity::Note,
                over.name_span,
                format!(
                    "interface declares {} public ecalls (configured bound: {}); every public ecall is attack surface",
                    publics.len(),
                    config.max_public_ecalls
                ),
            )
            .help("make internal entry points private and reach them through allow() lists")
            .on(&over.name),
        );
    }
}

impl ParamDecl {
    fn find_kind(&self, pred: impl Fn(&AttrKind) -> bool) -> Option<&crate::ast::Attr> {
        self.attrs.iter().find(|a| pred(&a.kind))
    }
}

/// Diagnostics produced by the trace cross-check layer use these codes;
/// re-exported constants keep the vocabulary in one place.
pub mod codes {
    /// `user_check` pointer.
    pub const USER_CHECK: &str = "EDL-W001";
    /// Sized pointer without `size=`/`count=`.
    pub const MISSING_SIZE: &str = "EDL-W002";
    /// Conflicting attributes.
    pub const CONFLICTING_ATTRS: &str = "EDL-W003";
    /// Re-entrancy cycle through `allow()`.
    pub const REENTRANCY: &str = "EDL-W004";
    /// `allow()` naming a public ecall.
    pub const ALLOW_PUBLIC: &str = "EDL-W005";
    /// Wide public surface.
    pub const WIDE_SURFACE: &str = "EDL-W006";
    /// Duplicate `allow()` entry.
    pub const DUPLICATE_ALLOW: &str = "EDL-W007";
    /// Large boundary copy.
    pub const LARGE_COPY: &str = "EDL-W008";
    /// Public ecall never exercised by the trace.
    pub const UNUSED_ECALL: &str = "EDL-W009";
    /// Switchless call carrying large boundary copies.
    pub const SWITCHLESS_COPY: &str = "EDL-W010";

    /// All statically-producible codes, in numeric order.
    pub const ALL: &[&str] = &[
        USER_CHECK,
        MISSING_SIZE,
        CONFLICTING_ATTRS,
        REENTRANCY,
        ALLOW_PUBLIC,
        WIDE_SURFACE,
        DUPLICATE_ALLOW,
        LARGE_COPY,
        UNUSED_ECALL,
        SWITCHLESS_COPY,
    ];
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::token::Pos;

    fn lint(src: &str) -> Vec<Diagnostic> {
        lint_source(src, &LintConfig::default()).unwrap()
    }

    fn codes_of(diags: &[Diagnostic]) -> Vec<&'static str> {
        diags.iter().map(|d| d.code).collect()
    }

    #[test]
    fn user_check_pointer_flagged_at_attribute() {
        let src = "enclave { trusted { public void e([user_check] void* p); }; };";
        let diags = lint(src);
        let w1 = diags.iter().find(|d| d.code == "EDL-W001").unwrap();
        assert_eq!(w1.severity, Severity::Warning);
        // `user_check` starts at column 36.
        assert_eq!(w1.span.start, Pos { line: 1, col: 36 });
        assert_eq!(w1.span.end, Pos { line: 1, col: 46 });
        assert_eq!(w1.function.as_deref(), Some("e"));
    }

    #[test]
    fn missing_size_flagged_on_directed_pointers_only() {
        let diags = lint("enclave { trusted { public void e([in] char* buf); }; };");
        assert!(codes_of(&diags).contains(&"EDL-W002"), "{diags:?}");
        // string and sized pointers are fine.
        let ok = lint(
            "enclave { trusted {
                public void f([in, string] const char* s);
                public void g([in, size=8] char* b);
            }; };",
        );
        assert!(!codes_of(&ok).contains(&"EDL-W002"), "{ok:?}");
    }

    #[test]
    fn conflicting_attrs_are_errors() {
        let diags = lint("enclave { trusted { public void e([string, user_check] char* s); }; };");
        let w3 = diags.iter().find(|d| d.code == "EDL-W003").unwrap();
        assert_eq!(w3.severity, Severity::Error);

        let out_string = lint("enclave { trusted { public void e([out, string] char* s); }; };");
        assert!(
            codes_of(&out_string).contains(&"EDL-W003"),
            "{out_string:?}"
        );

        let uc_in =
            lint("enclave { trusted { public void e([in, user_check, size=4] char* p); }; };");
        assert!(codes_of(&uc_in).contains(&"EDL-W003"), "{uc_in:?}");
    }

    #[test]
    fn reentrancy_cycle_found_by_graph_walk() {
        let diags = lint(
            "enclave { trusted { public void e(); void h(); };
                       untrusted { void o() allow(h); }; };",
        );
        let w4 = diags.iter().find(|d| d.code == "EDL-W004").unwrap();
        assert!(w4.message.contains("re-entrancy cycle"), "{w4:?}");
        assert_eq!(w4.function.as_deref(), Some("o"));
        // No allow() lists → no cycles.
        let none = lint("enclave { trusted { public void e(); }; untrusted { void o(); }; };");
        assert!(!codes_of(&none).contains(&"EDL-W004"));
    }

    #[test]
    fn allow_naming_public_ecall_flagged() {
        let diags = lint(
            "enclave { trusted { public void e(); };
                       untrusted { void o() allow(e); }; };",
        );
        let w5 = diags.iter().find(|d| d.code == "EDL-W005").unwrap();
        assert!(w5.message.contains("public ecall `e`"), "{w5:?}");
        // The span points at the entry inside allow(...), line 2.
        assert_eq!(w5.span.start.line, 2);
    }

    #[test]
    fn wide_public_surface_uses_configured_bound() {
        let src = "enclave { trusted { public void a(); public void b(); public void c(); }; };";
        let tight = LintConfig {
            max_public_ecalls: 2,
            ..LintConfig::default()
        };
        let diags = lint_source(src, &tight).unwrap();
        let w6 = diags.iter().find(|d| d.code == "EDL-W006").unwrap();
        assert!(w6.message.contains("3 public ecalls"), "{w6:?}");
        assert_eq!(w6.function.as_deref(), Some("c"));
        assert!(lint(src).iter().all(|d| d.code != "EDL-W006"));
    }

    #[test]
    fn duplicate_allow_entry_points_at_second_occurrence() {
        let diags = lint(
            "enclave { trusted { void h(); };
                       untrusted { void o() allow(h, h); }; };",
        );
        let w7 = diags.iter().find(|d| d.code == "EDL-W007").unwrap();
        assert_eq!(w7.severity, Severity::Error);
        assert!(w7.message.contains("twice"), "{w7:?}");
        // Both entries are on line 2; the flagged one is the second.
        let entries: Vec<_> = diags.iter().filter(|d| d.code == "EDL-W007").collect();
        assert_eq!(entries.len(), 1);
    }

    #[test]
    fn large_copy_priced_with_cost_model() {
        let diags = lint("enclave { untrusted { void o([in, size=65536] char* buf); }; };");
        let w8 = diags.iter().find(|d| d.code == "EDL-W008").unwrap();
        assert!(w8.message.contains("65536 bytes"), "{w8:?}");
        // 65536 B * 0.1 ns/B = 6553 ns.
        assert!(w8.message.contains("6553 ns"), "{w8:?}");
        // [in, out] doubles the crossing cost.
        let both = lint("enclave { untrusted { void o([in, out, size=65536] char* buf); }; };");
        let w8b = both.iter().find(|d| d.code == "EDL-W008").unwrap();
        assert!(w8b.message.contains("131072 bytes"), "{w8b:?}");
    }

    #[test]
    fn count_attribute_scales_by_type_width() {
        let diags = lint("enclave { untrusted { void o([in, count=4096] long* xs); }; };");
        let w8 = diags.iter().find(|d| d.code == "EDL-W008").unwrap();
        assert!(w8.message.contains("32768 bytes"), "{w8:?}");
    }

    #[test]
    fn clean_interface_produces_no_diagnostics() {
        let diags = lint(
            "enclave { trusted {
                public void ecall_work([in, size=64] char* req, size_t n);
            };
            untrusted {
                void ocall_log([in, string] const char* msg);
            }; };",
        );
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn diagnostics_sorted_by_position() {
        let diags = lint(
            "enclave { trusted {
                public void a([user_check] void* p);
                public void b([in] char* q);
            }; };",
        );
        let lines: Vec<u32> = diags.iter().map(|d| d.span.start.line).collect();
        let mut sorted = lines.clone();
        sorted.sort_unstable();
        assert_eq!(lines, sorted);
    }

    #[test]
    fn render_shows_excerpt_and_caret_underline() {
        let src = "enclave { trusted { public void e([user_check] void* p); }; };";
        let diags = lint(src);
        let rendered = diags[0].render(src, "demo.edl");
        assert!(rendered.contains("warning[EDL-W001]"), "{rendered}");
        assert!(rendered.contains("--> demo.edl:1:36"), "{rendered}");
        assert!(rendered.contains(src), "{rendered}");
        // 10 carets under `user_check`.
        assert!(
            rendered.contains(&format!("{}^^^^^^^^^^", " ".repeat(35))),
            "{rendered}"
        );
        assert!(rendered.contains("= help:"), "{rendered}");
    }

    #[test]
    fn render_survives_multiline_spans() {
        // Fabricate a span ending on a later line; underline runs to EOL.
        let src = "line one\nline two";
        let d = Diagnostic::new(
            "EDL-W001",
            Severity::Note,
            Span::new(Pos { line: 1, col: 6 }, Pos { line: 2, col: 3 }),
            "spans lines",
        );
        let rendered = d.render(src, "x.edl");
        assert!(rendered.contains("line one"), "{rendered}");
        assert!(rendered.contains("^^^"), "{rendered}");
    }

    #[test]
    fn severity_ordering_matches_escalation() {
        assert!(Severity::Note < Severity::Warning);
        assert!(Severity::Warning < Severity::Error);
    }

    #[test]
    fn codes_table_is_consistent() {
        assert_eq!(codes::ALL.len(), 10);
        assert!(codes::ALL.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn switchless_with_large_copy_flagged_at_attribute() {
        let src = "enclave { untrusted {
            void o([in, size=65536] char* buf) transition_using_threads;
        }; };";
        let diags = lint(src);
        let w10 = diags.iter().find(|d| d.code == "EDL-W010").unwrap();
        assert_eq!(w10.severity, Severity::Warning);
        assert!(w10.message.contains("65536 bytes"), "{w10:?}");
        assert_eq!(w10.function.as_deref(), Some("o"));
        // The caret lands on the attribute, not the declaration.
        assert_eq!(w10.span.start.line, 2);
        assert_eq!(w10.span.start.col, 48);
    }

    #[test]
    fn switchless_small_or_absent_copies_are_clean() {
        // Small buffer: fine.
        let small = lint(
            "enclave { untrusted { void o([in, size=64] char* b) transition_using_threads; }; };",
        );
        assert!(!codes_of(&small).contains(&"EDL-W010"), "{small:?}");
        // Large buffer without the attribute: W008 only.
        let sync_large = lint("enclave { untrusted { void o([in, size=65536] char* b); }; };");
        assert!(
            !codes_of(&sync_large).contains(&"EDL-W010"),
            "{sync_large:?}"
        );
        assert!(
            codes_of(&sync_large).contains(&"EDL-W008"),
            "{sync_large:?}"
        );
    }

    #[test]
    fn switchless_copy_sums_across_parameters() {
        // Two 4 KiB buffers sum past the 8 KiB default bound even though
        // neither alone trips EDL-W008.
        let diags = lint(
            "enclave { trusted {
                public void e([in, size=4096] char* a, [out, size=4096] char* b) transition_using_threads;
            }; };",
        );
        assert!(codes_of(&diags).contains(&"EDL-W010"), "{diags:?}");
        assert!(!codes_of(&diags).contains(&"EDL-W008"), "{diags:?}");
    }
}
