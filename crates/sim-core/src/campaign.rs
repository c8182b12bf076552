//! Declarative campaign specs: the grammar behind `sgxperf campaign`.
//!
//! A [`CampaignSpec`] names a scenario matrix — {workloads × hardware
//! profiles × fault plans × switchless configs × seeds} — plus the
//! baseline cell every other cell is diffed against. Like the
//! [`FaultPlan`] grammar it is hand-rolled (no
//! serde) and `Display` is the grammar's canonical fixpoint: parsing the
//! rendered form yields an equal spec, and rendering that spec yields the
//! same bytes. Defaults become explicit in the canonical form, so a spec
//! file round-tripped through `Display` documents every knob.
//!
//! The surface is a TOML-ish subset — `[section]` headers, `key = value`
//! lines, `"strings"`, integers and single-line `[lists]`, `#` comments:
//!
//! ```text
//! [campaign]
//! name = "stressors"        # required: campaign + output-dir name
//! jobs = 0                  # worker threads; 0 = all cores
//! threshold = 10            # diff-gate regression threshold, percent
//!
//! [matrix]
//! workloads = ["epc_thrash", "ecall_storm"]
//! profiles = ["unpatched", "spectre", "l1tf"]
//! switchless = ["off", "on:2"]      # optional; default ["off"]
//! seeds = [1, 2]
//!
//! [faults]                  # named fault plans (FaultPlan grammar);
//! none = ""                 # optional; default is this single entry
//! storm = "aex-storm@call=3:count=6"
//!
//! [baseline]                # the cell the others are diffed against,
//! faults = "none"           # per (workload, profile, switchless) group;
//! seed = 1                  # defaults: first plan name, first seed
//!
//! [robustness]              # cell supervision knobs (all optional)
//! cell_deadline = "5s"      # wall-clock kill deadline; "0ns" = none
//! retries = 1               # re-runs granted to a failed cell
//! event_budget = 0          # scheduling points per attempt; 0 = unlimited
//! ```
//!
//! [`CampaignSpec::expand`] flattens the axes into the deterministic cell
//! matrix; the sim layer knows nothing about what a workload name *means*
//! (the workloads crate resolves and executes them) — it owns only the
//! grammar and the matrix algebra, exactly like `FaultPlan` owns the
//! fault grammar while the SDK owns the injection sites.

use std::fmt;

use crate::fault::{fmt_duration, parse_duration, FaultPlan};
use crate::hw::HwProfile;
use crate::Nanos;

/// One point on the switchless axis.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SwitchlessAxis {
    /// Classic synchronous transitions only.
    Off,
    /// Switchless rings enabled with this many workers (per direction —
    /// the workload decides whether they serve ecalls, ocalls or both).
    On {
        /// Worker threads; at least 1.
        workers: u32,
    },
}

impl SwitchlessAxis {
    /// Parses an axis label: `off` or `on:N`.
    #[must_use]
    pub fn parse(s: &str) -> Option<SwitchlessAxis> {
        if s == "off" {
            return Some(SwitchlessAxis::Off);
        }
        let n = s.strip_prefix("on:")?;
        match n.parse::<u32>() {
            Ok(workers) if workers >= 1 => Some(SwitchlessAxis::On { workers }),
            _ => None,
        }
    }

    /// Filename-safe label (`off`, `on2`).
    #[must_use]
    pub fn file_label(self) -> String {
        match self {
            SwitchlessAxis::Off => "off".to_string(),
            SwitchlessAxis::On { workers } => format!("on{workers}"),
        }
    }
}

impl fmt::Display for SwitchlessAxis {
    /// The parseable label (`off`, `on:N`) — the grammar fixpoint form.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SwitchlessAxis::Off => f.write_str("off"),
            SwitchlessAxis::On { workers } => write!(f, "on:{workers}"),
        }
    }
}

/// A parsed, validated campaign spec. Field order mirrors the canonical
/// rendered form.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignSpec {
    /// Campaign name (identifier; also the default output-dir stem).
    pub name: String,
    /// Worker threads executing cells; 0 means "all cores".
    pub jobs: u32,
    /// Diff-gate regression threshold in percent (default 10).
    pub threshold_pct: u32,
    /// Workload names, resolved by the workloads layer.
    pub workloads: Vec<String>,
    /// Hardware profiles.
    pub profiles: Vec<HwProfile>,
    /// Switchless axis (default `[off]`).
    pub switchless: Vec<SwitchlessAxis>,
    /// Seeds; each perturbs fault-plan jitter and seed-aware workloads.
    pub seeds: Vec<u64>,
    /// Named fault plans, in declaration order (default `none = ""`).
    pub plans: Vec<(String, FaultPlan)>,
    /// Plan name of the baseline cell of each comparison group.
    pub baseline_plan: String,
    /// Seed of the baseline cell of each comparison group.
    pub baseline_seed: u64,
    /// Wall-clock deadline per cell attempt; zero disables the watchdog.
    pub cell_deadline: Nanos,
    /// Extra attempts granted to a failed cell before it is quarantined
    /// as broken (default 1; a cell that passes on a retry is `flaky`).
    pub retries: u32,
    /// Scheduling-point budget per cell attempt, enforced inside the
    /// simulation for engine-identical, deterministic timeouts; zero
    /// means unlimited.
    pub event_budget: u64,
}

/// One expanded cell of the campaign matrix. Axis values are carried as
/// indices into the owning [`CampaignSpec`]'s axis vectors so the cell
/// stays `Copy` and the spec stays the single source of truth.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CellCoord {
    /// Position in the expansion — the cell's identity in summaries.
    pub index: usize,
    /// Index into [`CampaignSpec::workloads`].
    pub workload: usize,
    /// The hardware profile.
    pub profile: HwProfile,
    /// Index into [`CampaignSpec::plans`].
    pub plan: usize,
    /// The switchless axis value.
    pub switchless: SwitchlessAxis,
    /// The seed.
    pub seed: u64,
    /// Index (into the same expansion) of the cell this one is diffed
    /// against. Baseline cells point at themselves.
    pub baseline: usize,
}

/// A malformed campaign spec.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpecError {
    /// 1-based source line, or 0 when the error is not tied to one line.
    pub line: usize,
    msg: String,
}

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.line == 0 {
            write!(f, "bad campaign spec: {}", self.msg)
        } else {
            write!(f, "bad campaign spec: line {}: {}", self.line, self.msg)
        }
    }
}

impl std::error::Error for SpecError {}

fn err<T>(line: usize, msg: impl Into<String>) -> Result<T, SpecError> {
    Err(SpecError {
        line,
        msg: msg.into(),
    })
}

/// Identifier charset shared by campaign, workload and plan names — they
/// all become path components of archived traces.
fn is_ident(s: &str) -> bool {
    !s.is_empty()
        && s.chars()
            .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_' || c == '-')
}

/// Strips a trailing `#` comment, honouring quoted strings.
fn strip_comment(line: &str) -> &str {
    let mut in_quote = false;
    for (i, c) in line.char_indices() {
        match c {
            '"' => in_quote = !in_quote,
            '#' if !in_quote => return &line[..i],
            _ => {}
        }
    }
    line
}

/// One raw value: string, integer, or single-line list of either.
#[derive(Debug)]
enum Value<'a> {
    Str(&'a str),
    Int(u64),
    List(Vec<Value<'a>>),
}

fn parse_scalar(line: usize, s: &str) -> Result<Value<'_>, SpecError> {
    let s = s.trim();
    if let Some(rest) = s.strip_prefix('"') {
        let Some(inner) = rest.strip_suffix('"') else {
            return err(line, format!("unterminated string `{s}`"));
        };
        if inner.contains('"') {
            return err(line, format!("stray quote inside string `{s}`"));
        }
        return Ok(Value::Str(inner));
    }
    match s.parse::<u64>() {
        Ok(n) => Ok(Value::Int(n)),
        Err(_) => err(
            line,
            format!("bad value `{s}` (want a \"string\", an integer or a [list])"),
        ),
    }
}

fn parse_value(line: usize, s: &str) -> Result<Value<'_>, SpecError> {
    let s = s.trim();
    let Some(rest) = s.strip_prefix('[') else {
        return parse_scalar(line, s);
    };
    let Some(inner) = rest.strip_suffix(']') else {
        return err(
            line,
            format!("unterminated list `{s}` (lists are single-line)"),
        );
    };
    let mut items = Vec::new();
    for item in inner.split(',') {
        let item = item.trim();
        if item.is_empty() {
            continue;
        }
        items.push(parse_scalar(line, item)?);
    }
    Ok(Value::List(items))
}

impl Value<'_> {
    fn as_str(&self, line: usize, key: &str) -> Result<&str, SpecError> {
        match self {
            Value::Str(s) => Ok(s),
            _ => err(line, format!("`{key}` wants a \"string\"")),
        }
    }

    fn as_int(&self, line: usize, key: &str) -> Result<u64, SpecError> {
        match self {
            Value::Int(n) => Ok(*n),
            _ => err(line, format!("`{key}` wants an integer")),
        }
    }

    fn as_str_list(&self, line: usize, key: &str) -> Result<Vec<&str>, SpecError> {
        let Value::List(items) = self else {
            return err(line, format!("`{key}` wants a [list of \"strings\"]"));
        };
        items.iter().map(|v| v.as_str(line, key)).collect()
    }

    fn as_int_list(&self, line: usize, key: &str) -> Result<Vec<u64>, SpecError> {
        let Value::List(items) = self else {
            return err(line, format!("`{key}` wants a [list of integers]"));
        };
        items.iter().map(|v| v.as_int(line, key)).collect()
    }
}

fn no_duplicates<T: PartialEq + fmt::Display>(
    line: usize,
    key: &str,
    items: &[T],
) -> Result<(), SpecError> {
    for (i, a) in items.iter().enumerate() {
        if items[..i].iter().any(|b| b == a) {
            return err(line, format!("duplicate `{a}` in `{key}`"));
        }
    }
    Ok(())
}

impl CampaignSpec {
    /// Parses a campaign spec. See the [module docs](self) for the
    /// grammar; `Display` renders the canonical form (defaults explicit),
    /// and parsing that form yields an equal spec.
    ///
    /// # Errors
    ///
    /// Unknown sections or keys, duplicate keys or axis entries, type
    /// mismatches, malformed fault plans and switchless labels, baselines
    /// naming undeclared plans or seeds — all with the offending line.
    pub fn parse(src: &str) -> Result<CampaignSpec, SpecError> {
        #[derive(Clone, Copy, PartialEq)]
        enum Section {
            None,
            Campaign,
            Matrix,
            Faults,
            Baseline,
            Robustness,
        }
        let mut section = Section::None;
        let mut name: Option<String> = None;
        let mut jobs: Option<u32> = None;
        let mut threshold: Option<u32> = None;
        let mut workloads: Option<Vec<String>> = None;
        let mut profiles: Option<Vec<HwProfile>> = None;
        let mut switchless: Option<Vec<SwitchlessAxis>> = None;
        let mut seeds: Option<Vec<u64>> = None;
        let mut plans: Vec<(String, FaultPlan)> = Vec::new();
        let mut faults_declared = false;
        let mut baseline_plan: Option<(usize, String)> = None;
        let mut baseline_seed: Option<(usize, u64)> = None;
        let mut cell_deadline: Option<Nanos> = None;
        let mut retries: Option<u32> = None;
        let mut event_budget: Option<u64> = None;

        for (i, raw) in src.lines().enumerate() {
            let ln = i + 1;
            let line = strip_comment(raw).trim();
            if line.is_empty() {
                continue;
            }
            if let Some(rest) = line.strip_prefix('[') {
                let Some(header) = rest.strip_suffix(']') else {
                    return err(ln, format!("unterminated section header `{line}`"));
                };
                section = match header.trim() {
                    "campaign" => Section::Campaign,
                    "matrix" => Section::Matrix,
                    "faults" => {
                        faults_declared = true;
                        Section::Faults
                    }
                    "baseline" => Section::Baseline,
                    "robustness" => Section::Robustness,
                    other => {
                        return err(
                            ln,
                            format!(
                                "unknown section `[{other}]` (want [campaign], \
                                 [matrix], [faults], [baseline] or [robustness])"
                            ),
                        )
                    }
                };
                continue;
            }
            let Some((key, value)) = line.split_once('=') else {
                return err(ln, format!("expected `key = value`, got `{line}`"));
            };
            let (key, value) = (key.trim(), parse_value(ln, value)?);
            macro_rules! set_once {
                ($slot:ident, $val:expr) => {{
                    if $slot.is_some() {
                        return err(ln, format!("duplicate key `{key}`"));
                    }
                    $slot = Some($val);
                }};
            }
            match section {
                Section::None => {
                    return err(ln, format!("`{key}` outside any [section]"));
                }
                Section::Campaign => match key {
                    "name" => {
                        let v = value.as_str(ln, key)?;
                        if !is_ident(v) {
                            return err(ln, format!("bad campaign name `{v}` (want [a-z0-9_-]+)"));
                        }
                        set_once!(name, v.to_string());
                    }
                    "jobs" => {
                        let v = value.as_int(ln, key)?;
                        let Ok(v) = u32::try_from(v) else {
                            return err(ln, format!("`jobs` out of range: {v}"));
                        };
                        set_once!(jobs, v);
                    }
                    "threshold" => {
                        let v = value.as_int(ln, key)?;
                        match u32::try_from(v) {
                            Ok(v) if v >= 1 => set_once!(threshold, v),
                            _ => {
                                return err(
                                    ln,
                                    format!("`threshold` wants a positive percentage, got {v}"),
                                )
                            }
                        }
                    }
                    other => {
                        return err(
                            ln,
                            format!(
                                "unknown key `{other}` in [campaign] \
                                 (want name, jobs or threshold)"
                            ),
                        )
                    }
                },
                Section::Matrix => match key {
                    "workloads" => {
                        let items = value.as_str_list(ln, key)?;
                        let mut out = Vec::new();
                        for w in items {
                            if !is_ident(w) {
                                return err(
                                    ln,
                                    format!("bad workload name `{w}` (want [a-z0-9_-]+)"),
                                );
                            }
                            out.push(w.to_string());
                        }
                        if out.is_empty() {
                            return err(ln, "`workloads` must not be empty");
                        }
                        no_duplicates(ln, key, &out)?;
                        set_once!(workloads, out);
                    }
                    "profiles" => {
                        let items = value.as_str_list(ln, key)?;
                        let mut out = Vec::new();
                        for p in items {
                            let Some(profile) = HwProfile::parse(p) else {
                                return err(
                                    ln,
                                    format!(
                                        "unknown profile `{p}` \
                                         (want unpatched, spectre or l1tf)"
                                    ),
                                );
                            };
                            out.push(profile);
                        }
                        if out.is_empty() {
                            return err(ln, "`profiles` must not be empty");
                        }
                        no_duplicates(ln, key, &out)?;
                        set_once!(profiles, out);
                    }
                    "switchless" => {
                        let items = value.as_str_list(ln, key)?;
                        let mut out = Vec::new();
                        for s in items {
                            let Some(axis) = SwitchlessAxis::parse(s) else {
                                return err(
                                    ln,
                                    format!("bad switchless axis `{s}` (want off or on:N)"),
                                );
                            };
                            out.push(axis);
                        }
                        if out.is_empty() {
                            return err(ln, "`switchless` must not be empty");
                        }
                        no_duplicates(ln, key, &out)?;
                        set_once!(switchless, out);
                    }
                    "seeds" => {
                        let out = value.as_int_list(ln, key)?;
                        if out.is_empty() {
                            return err(ln, "`seeds` must not be empty");
                        }
                        no_duplicates(ln, key, &out)?;
                        set_once!(seeds, out);
                    }
                    other => {
                        return err(
                            ln,
                            format!(
                                "unknown axis `{other}` in [matrix] \
                                 (want workloads, profiles, switchless or seeds)"
                            ),
                        )
                    }
                },
                Section::Faults => {
                    if !is_ident(key) {
                        return err(
                            ln,
                            format!("bad fault-plan name `{key}` (want [a-z0-9_-]+)"),
                        );
                    }
                    if plans.iter().any(|(n, _)| n == key) {
                        return err(ln, format!("duplicate fault plan `{key}`"));
                    }
                    let spec = value.as_str(ln, key)?;
                    let plan = match FaultPlan::parse(spec) {
                        Ok(plan) => plan,
                        Err(e) => return err(ln, format!("fault plan `{key}`: {e}")),
                    };
                    plans.push((key.to_string(), plan));
                }
                Section::Baseline => match key {
                    "faults" => {
                        set_once!(baseline_plan, (ln, value.as_str(ln, key)?.to_string()));
                    }
                    "seed" => set_once!(baseline_seed, (ln, value.as_int(ln, key)?)),
                    other => {
                        return err(
                            ln,
                            format!("unknown key `{other}` in [baseline] (want faults or seed)"),
                        )
                    }
                },
                Section::Robustness => match key {
                    "cell_deadline" => {
                        let v = value.as_str(ln, key)?;
                        match parse_duration(v) {
                            Ok(d) => set_once!(cell_deadline, d),
                            Err(e) => return err(ln, format!("`cell_deadline`: {e}")),
                        }
                    }
                    "retries" => {
                        let v = value.as_int(ln, key)?;
                        let Ok(v) = u32::try_from(v) else {
                            return err(ln, format!("`retries` out of range: {v}"));
                        };
                        set_once!(retries, v);
                    }
                    "event_budget" => {
                        set_once!(event_budget, value.as_int(ln, key)?);
                    }
                    other => {
                        return err(
                            ln,
                            format!(
                                "unknown key `{other}` in [robustness] \
                                 (want cell_deadline, retries or event_budget)"
                            ),
                        )
                    }
                },
            }
        }

        let Some(name) = name else {
            return err(0, "missing `name` in [campaign]");
        };
        let Some(workloads) = workloads else {
            return err(0, "missing `workloads` axis in [matrix]");
        };
        let Some(profiles) = profiles else {
            return err(0, "missing `profiles` axis in [matrix]");
        };
        let Some(seeds) = seeds else {
            return err(0, "missing `seeds` axis in [matrix]");
        };
        let switchless = switchless.unwrap_or_else(|| vec![SwitchlessAxis::Off]);
        if faults_declared && plans.is_empty() {
            return err(0, "[faults] section declares no plans");
        }
        if plans.is_empty() {
            plans.push(("none".to_string(), FaultPlan::default()));
        }
        let (baseline_plan_line, baseline_plan) = match baseline_plan {
            Some((ln, p)) => (ln, p),
            None => (0, plans[0].0.clone()),
        };
        if !plans.iter().any(|(n, _)| n == &baseline_plan) {
            return err(
                baseline_plan_line,
                format!("baseline names undeclared fault plan `{baseline_plan}`"),
            );
        }
        let (baseline_seed_line, baseline_seed) = match baseline_seed {
            Some((ln, s)) => (ln, s),
            None => (0, seeds[0]),
        };
        if !seeds.contains(&baseline_seed) {
            return err(
                baseline_seed_line,
                format!("baseline seed {baseline_seed} is not in the seeds axis"),
            );
        }
        Ok(CampaignSpec {
            name,
            jobs: jobs.unwrap_or(0),
            threshold_pct: threshold.unwrap_or(10),
            workloads,
            profiles,
            switchless,
            seeds,
            plans,
            baseline_plan,
            baseline_seed,
            cell_deadline: cell_deadline.unwrap_or(Nanos::from_nanos(0)),
            retries: retries.unwrap_or(1),
            event_budget: event_budget.unwrap_or(0),
        })
    }

    /// Total cell count of the matrix.
    #[must_use]
    pub fn cell_count(&self) -> usize {
        self.workloads.len()
            * self.profiles.len()
            * self.plans.len()
            * self.switchless.len()
            * self.seeds.len()
    }

    /// Expands the axes into the deterministic cell matrix, in (workload,
    /// profile, plan, switchless, seed) nesting order. Every cell carries
    /// the index of its baseline cell — same workload, profile and
    /// switchless value, with the declared baseline plan and seed.
    #[must_use]
    pub fn expand(&self) -> Vec<CellCoord> {
        let bp = self
            .plans
            .iter()
            .position(|(n, _)| n == &self.baseline_plan)
            .expect("validated at parse");
        let bs = self
            .seeds
            .iter()
            .position(|s| *s == self.baseline_seed)
            .expect("validated at parse");
        let (l, w, e) = (self.plans.len(), self.switchless.len(), self.seeds.len());
        let mut cells = Vec::with_capacity(self.cell_count());
        for (wi, _) in self.workloads.iter().enumerate() {
            for (pi, &profile) in self.profiles.iter().enumerate() {
                for (li, _) in self.plans.iter().enumerate() {
                    for (si, &switchless) in self.switchless.iter().enumerate() {
                        for (ei, &seed) in self.seeds.iter().enumerate() {
                            let group = (wi * self.profiles.len() + pi) * l;
                            let index = ((group + li) * w + si) * e + ei;
                            let baseline = ((group + bp) * w + si) * e + bs;
                            cells.push(CellCoord {
                                index,
                                workload: wi,
                                profile,
                                plan: li,
                                switchless,
                                seed,
                                baseline,
                            });
                        }
                    }
                }
            }
        }
        cells
    }
}

impl fmt::Display for CampaignSpec {
    /// Canonical spec form: `Display` then [`CampaignSpec::parse`] is the
    /// identity, and parse-then-`Display` canonicalises (defaults become
    /// explicit, comments and whitespace are dropped).
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "[campaign]")?;
        writeln!(f, "name = \"{}\"", self.name)?;
        writeln!(f, "jobs = {}", self.jobs)?;
        writeln!(f, "threshold = {}", self.threshold_pct)?;
        writeln!(f)?;
        writeln!(f, "[matrix]")?;
        let quoted: Vec<String> = self.workloads.iter().map(|w| format!("\"{w}\"")).collect();
        writeln!(f, "workloads = [{}]", quoted.join(", "))?;
        let quoted: Vec<String> = self
            .profiles
            .iter()
            .map(|p| format!("\"{}\"", p.file_label()))
            .collect();
        writeln!(f, "profiles = [{}]", quoted.join(", "))?;
        let quoted: Vec<String> = self.switchless.iter().map(|s| format!("\"{s}\"")).collect();
        writeln!(f, "switchless = [{}]", quoted.join(", "))?;
        let seeds: Vec<String> = self.seeds.iter().map(u64::to_string).collect();
        writeln!(f, "seeds = [{}]", seeds.join(", "))?;
        writeln!(f)?;
        writeln!(f, "[faults]")?;
        for (name, plan) in &self.plans {
            writeln!(f, "{name} = \"{plan}\"")?;
        }
        writeln!(f)?;
        writeln!(f, "[baseline]")?;
        writeln!(f, "faults = \"{}\"", self.baseline_plan)?;
        writeln!(f, "seed = {}", self.baseline_seed)?;
        writeln!(f)?;
        writeln!(f, "[robustness]")?;
        writeln!(
            f,
            "cell_deadline = \"{}\"",
            fmt_duration(self.cell_deadline)
        )?;
        writeln!(f, "retries = {}", self.retries)?;
        writeln!(f, "event_budget = {}", self.event_budget)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SPEC: &str = r#"
        # A full-surface spec: every section, every key, comments, noise.
        [campaign]
        name = "stressors"   # trailing comment
        jobs = 4
        threshold = 25

        [matrix]
        workloads = ["epc_thrash", "ecall_storm"]
        profiles = ["unpatched", "l1tf"]
        switchless = ["off", "on:2"]
        seeds = [1, 2]

        [faults]
        none = ""
        storm = "seed=7;aex-storm@call=3:count=6"

        [baseline]
        faults = "none"
        seed = 1

        [robustness]
        cell_deadline = "5s"
        retries = 2
        event_budget = 20000
    "#;

    #[test]
    fn parse_then_display_is_a_fixpoint() {
        let spec = CampaignSpec::parse(SPEC).unwrap();
        let canon = spec.to_string();
        let reparsed = CampaignSpec::parse(&canon).unwrap();
        assert_eq!(spec, reparsed);
        assert_eq!(canon, reparsed.to_string(), "Display must be a fixpoint");
    }

    #[test]
    fn defaults_become_explicit_in_canonical_form() {
        let spec = CampaignSpec::parse(
            "[campaign]\nname = \"tiny\"\n\
             [matrix]\nworkloads = [\"a\"]\nprofiles = [\"spectre\"]\nseeds = [3]\n",
        )
        .unwrap();
        assert_eq!(spec.jobs, 0);
        assert_eq!(spec.threshold_pct, 10);
        assert_eq!(spec.switchless, vec![SwitchlessAxis::Off]);
        assert_eq!(spec.plans, vec![("none".to_string(), FaultPlan::default())]);
        assert_eq!(spec.baseline_plan, "none");
        assert_eq!(spec.baseline_seed, 3);
        assert_eq!(spec.cell_deadline, Nanos::from_nanos(0));
        assert_eq!(spec.retries, 1);
        assert_eq!(spec.event_budget, 0);
        let canon = spec.to_string();
        assert!(canon.contains("jobs = 0"), "{canon}");
        assert!(canon.contains("threshold = 10"), "{canon}");
        assert!(canon.contains("switchless = [\"off\"]"), "{canon}");
        assert!(canon.contains("none = \"\""), "{canon}");
        assert!(canon.contains("cell_deadline = \"0ns\""), "{canon}");
        assert!(canon.contains("retries = 1"), "{canon}");
        assert!(canon.contains("event_budget = 0"), "{canon}");
        assert_eq!(CampaignSpec::parse(&canon).unwrap(), spec);
    }

    #[test]
    fn expansion_is_the_axis_product_with_self_pointing_baselines() {
        let spec = CampaignSpec::parse(SPEC).unwrap();
        let cells = spec.expand();
        assert_eq!(cells.len(), spec.cell_count());
        assert_eq!(cells.len(), 2 * 2 * 2 * 2 * 2);
        for (i, c) in cells.iter().enumerate() {
            assert_eq!(c.index, i);
            let b = &cells[c.baseline];
            assert_eq!(b.workload, c.workload);
            assert_eq!(b.profile, c.profile);
            assert_eq!(b.switchless, c.switchless);
            assert_eq!(spec.plans[b.plan].0, spec.baseline_plan);
            assert_eq!(b.seed, spec.baseline_seed);
            assert_eq!(b.baseline, b.index, "baselines point at themselves");
        }
    }

    #[test]
    fn bad_specs_are_rejected_with_line_context() {
        for (bad, needle) in [
            (
                "[campaign]\nname = \"x\"\nbogus = 1\n",
                "unknown key `bogus`",
            ),
            ("[frobnicate]\n", "unknown section `[frobnicate]`"),
            ("name = \"x\"\n", "outside any [section]"),
            (
                "[matrix]\nplatforms = [\"x\"]\n",
                "unknown axis `platforms`",
            ),
            (
                "[matrix]\nprofiles = [\"win32\"]\n",
                "unknown profile `win32`",
            ),
            (
                "[matrix]\nswitchless = [\"maybe\"]\n",
                "bad switchless axis `maybe`",
            ),
            ("[matrix]\nseeds = [1, 1]\n", "duplicate `1` in `seeds`"),
            ("[campaign]\nname = \"x\"\nname = \"y\"\n", "duplicate key"),
            ("[campaign]\nname = \"UPPER\"\n", "bad campaign name"),
            ("[campaign]\nname = \"x\n", "unterminated string"),
            ("[campaign]\njobs = \"many\"\n", "`jobs` wants an integer"),
            ("[campaign]\nthreshold = 0\n", "positive percentage"),
            (
                "[faults]\nboom = \"frobnicate@call=1\"\n",
                "unknown fault kind",
            ),
            ("[matrix]\nworkloads = [1]\n", "wants a \"string\""),
            ("[matrix]\nseeds = [1\n", "unterminated list"),
            (
                "[robustness]\ncell_deadline = \"soon\"\n",
                "`cell_deadline`: bad fault spec: bad duration `soon`",
            ),
            (
                "[robustness]\ncell_deadline = 5\n",
                "`cell_deadline` wants a \"string\"",
            ),
            (
                "[robustness]\nretries = \"lots\"\n",
                "`retries` wants an integer",
            ),
            (
                "[robustness]\nretries = 1\nretries = 2\n",
                "duplicate key `retries`",
            ),
            (
                "[robustness]\nbudget = 5\n",
                "unknown key `budget` in [robustness]",
            ),
        ] {
            let e = CampaignSpec::parse(bad).unwrap_err();
            assert!(
                e.to_string().contains(needle),
                "`{bad}` -> `{e}` (wanted `{needle}`)"
            );
            assert!(e.line > 0, "`{bad}` should name a line, got `{e}`");
        }
    }

    #[test]
    fn structural_errors_are_rejected_without_a_line() {
        for (bad, needle) in [
            ("", "missing `name`"),
            ("[campaign]\nname = \"x\"\n", "missing `workloads`"),
            (
                "[campaign]\nname = \"x\"\n[matrix]\nworkloads = [\"a\"]\n",
                "missing `profiles`",
            ),
            (
                "[campaign]\nname = \"x\"\n[matrix]\nworkloads = [\"a\"]\n\
                 profiles = [\"l1tf\"]\n",
                "missing `seeds`",
            ),
        ] {
            let e = CampaignSpec::parse(bad).unwrap_err();
            assert!(e.to_string().contains(needle), "`{bad}` -> `{e}`");
        }
    }

    #[test]
    fn baselines_must_name_declared_coordinates() {
        let base = "[campaign]\nname = \"x\"\n[matrix]\nworkloads = [\"a\"]\n\
                    profiles = [\"l1tf\"]\nseeds = [1, 2]\n";
        let e =
            CampaignSpec::parse(&format!("{base}[baseline]\nfaults = \"ghost\"\n")).unwrap_err();
        assert!(
            e.to_string().contains("undeclared fault plan `ghost`"),
            "{e}"
        );
        let e = CampaignSpec::parse(&format!("{base}[baseline]\nseed = 9\n")).unwrap_err();
        assert!(
            e.to_string().contains("seed 9 is not in the seeds axis"),
            "{e}"
        );
    }

    #[test]
    fn robustness_keys_parse_and_round_trip() {
        let spec = CampaignSpec::parse(SPEC).unwrap();
        assert_eq!(spec.cell_deadline, Nanos::from_nanos(5_000_000_000));
        assert_eq!(spec.retries, 2);
        assert_eq!(spec.event_budget, 20000);
        let canon = spec.to_string();
        assert!(canon.contains("cell_deadline = \"5s\""), "{canon}");
        // retries = 0 (fail fast, no second chances) is a legal corner.
        let none = CampaignSpec::parse(
            "[campaign]\nname = \"x\"\n[matrix]\nworkloads = [\"a\"]\n\
             profiles = [\"l1tf\"]\nseeds = [1]\n[robustness]\nretries = 0\n",
        )
        .unwrap();
        assert_eq!(none.retries, 0);
    }

    #[test]
    fn switchless_axis_labels_round_trip() {
        for axis in [SwitchlessAxis::Off, SwitchlessAxis::On { workers: 3 }] {
            assert_eq!(SwitchlessAxis::parse(&axis.to_string()), Some(axis));
        }
        assert_eq!(SwitchlessAxis::parse("on:0"), None);
        assert_eq!(SwitchlessAxis::parse("on"), None);
        assert_eq!(SwitchlessAxis::On { workers: 2 }.file_label(), "on2");
    }
}
