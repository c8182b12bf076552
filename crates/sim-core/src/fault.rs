//! Deterministic fault injection: seeded, schedulable fault plans.
//!
//! A [`FaultPlan`] describes *what* goes wrong and *when* — keyed on
//! virtual time or on a per-site call index — and a [`FaultInjector`]
//! answers the stack's poll questions ("does this enclave entry take an
//! AEX storm?", "does this ocall fail?") deterministically. Two injectors
//! built from the same plan answer every poll sequence identically, on
//! every hardware profile: the plan's seed is consumed *once*, at
//! construction, to jitter fault magnitudes, so no poll-order or
//! profile-dependent timing can perturb the RNG stream. An empty plan is
//! a structural no-op — it charges no virtual time and emits no events —
//! which keeps zero-fault runs byte-identical to runs with no plan at all.
//!
//! Plans have a compact text form for the `sgxperf report --faults` flag
//! (see [`FaultPlan::parse`]); parsing and [`Display`](fmt::Display) are
//! inverse up to canonicalisation.

use std::fmt;
use std::str::FromStr;

use crate::rng;
use crate::sync::Mutex;
use crate::time::Nanos;

/// When a scheduled fault fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultTrigger {
    /// On the n-th poll (1-based) of the fault's injection site: enclave
    /// entries for storms, ocall attempts for ocall faults, worker
    /// dispatch attempts for stalls, ring posts for ring-full bursts, TCS
    /// bind attempts for exhaustion.
    AtCall(u64),
    /// On the first poll of the fault's site at or after this virtual time.
    AtTime(Nanos),
}

/// What goes wrong. Magnitudes given here are *nominal*; the plan seed
/// jitters them deterministically at injector construction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// A burst of `count` asynchronous exits delivered back-to-back on one
    /// enclave entry (interrupt storm).
    AexStorm {
        /// Nominal number of extra AEXes in the burst.
        count: u32,
    },
    /// All resident EPC pages of the executing enclave are forcibly
    /// evicted (EPC pressure spike); the run pays the fault-in cost again.
    EvictStorm,
    /// A transient EWB/ELDU slowdown: paging costs are multiplied by
    /// `factor` for `duration` of virtual time after the trigger.
    PagingSlow {
        /// Cost multiplier applied to page-in/page-out while active.
        factor: u32,
        /// Nominal length of the slowdown window.
        duration: Nanos,
    },
    /// The next triggered ocall fails `times` times before succeeding.
    OcallFail {
        /// Failed attempts before the call goes through.
        times: u32,
    },
    /// The next triggered ocall times out — each failed attempt costs a
    /// full transition plus `delay` — `times` times before succeeding.
    OcallTimeout {
        /// Nominal extra wait per timed-out attempt.
        delay: Nanos,
        /// Timed-out attempts before the call goes through.
        times: u32,
    },
    /// A switchless worker stalls for `delay` before serving its next
    /// call, letting callers exhaust their spin budget and fall back.
    WorkerStall {
        /// Nominal stall length.
        delay: Nanos,
    },
    /// The switchless request ring reports full for the next `calls` post
    /// attempts, forcing synchronous fallbacks.
    RingFull {
        /// Number of rejected post attempts in the burst.
        calls: u32,
    },
    /// TCS binding fails `times` times (all TCS pages busy) before a slot
    /// frees up.
    TcsExhaust {
        /// Failed bind attempts before one succeeds.
        times: u32,
    },
    /// The enclave is destroyed at the trigger — the simulated analogue of
    /// a power transition or machine-check wiping the EPC. A `call=`
    /// trigger (counted per EENTER) fails that very entry; a `t=` trigger
    /// unwinds in-flight execution with an AEX-style exit whose ERESUME
    /// never happens. Every subsequent entry fails with `EnclaveLost`
    /// until the enclave is rebuilt. Not recoverable by retry/backoff —
    /// only a supervisor that rebuilds the enclave recovers from it.
    EnclaveLost,
    /// The EPC backing the enclave is poisoned at the trigger: in-flight
    /// and currently-entered execution still completes, but the enclave is
    /// marked lost on its *next* EENTER (the deferred-MCE flavour of
    /// [`FaultKind::EnclaveLost`]).
    EpcPoison,
}

impl FaultKind {
    /// Stable on-disk/event code for this kind.
    #[must_use]
    pub fn code(self) -> u8 {
        match self {
            FaultKind::AexStorm { .. } => 0,
            FaultKind::EvictStorm => 1,
            FaultKind::PagingSlow { .. } => 2,
            FaultKind::OcallFail { .. } => 3,
            FaultKind::OcallTimeout { .. } => 4,
            FaultKind::WorkerStall { .. } => 5,
            FaultKind::RingFull { .. } => 6,
            FaultKind::TcsExhaust { .. } => 7,
            FaultKind::EnclaveLost => 8,
            FaultKind::EpcPoison => 9,
        }
    }

    /// The spec-grammar name of this kind.
    #[must_use]
    pub fn label(self) -> &'static str {
        kind_label(self.code())
    }
}

/// The spec-grammar name for a [`FaultKind::code`]; `"?"` for unknown
/// codes (e.g. from a newer trace).
#[must_use]
pub fn kind_label(code: u8) -> &'static str {
    match code {
        0 => "aex-storm",
        1 => "evict-storm",
        2 => "paging-slow",
        3 => "ocall-fail",
        4 => "ocall-timeout",
        5 => "worker-stall",
        6 => "ring-full",
        7 => "tcs-exhaust",
        8 => "enclave_lost",
        9 => "epc_poison",
        _ => "?",
    }
}

/// What happened at an injection site — the event stream distinguishes
/// the injection itself from the SDK's recovery behaviour.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultAction {
    /// A fault was injected.
    Injected,
    /// The SDK retried after a transient fault (backoff charged).
    Retried,
    /// The operation completed despite the fault.
    Recovered,
    /// The retry budget was exhausted; the fault surfaced as an error.
    GaveUp,
}

impl FaultAction {
    /// Stable on-disk/event code for this action.
    #[must_use]
    pub fn code(self) -> u8 {
        match self {
            FaultAction::Injected => 0,
            FaultAction::Retried => 1,
            FaultAction::Recovered => 2,
            FaultAction::GaveUp => 3,
        }
    }

    /// Decodes an action code; `None` for unknown codes.
    #[must_use]
    pub fn from_code(code: u8) -> Option<FaultAction> {
        match code {
            0 => Some(FaultAction::Injected),
            1 => Some(FaultAction::Retried),
            2 => Some(FaultAction::Recovered),
            3 => Some(FaultAction::GaveUp),
            _ => None,
        }
    }
}

/// One scheduled fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fault {
    /// When it fires.
    pub trigger: FaultTrigger,
    /// What goes wrong.
    pub kind: FaultKind,
}

/// A seeded, schedulable fault plan. See the [module docs](self) for the
/// determinism contract and [`FaultPlan::parse`] for the text grammar.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    /// Seed for deterministic magnitude jitter (consumed at injector
    /// construction only).
    pub seed: u64,
    /// The scheduled faults, in declaration order.
    pub faults: Vec<Fault>,
}

/// A malformed fault spec string.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultSpecError(String);

impl fmt::Display for FaultSpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "bad fault spec: {}", self.0)
    }
}

impl std::error::Error for FaultSpecError {}

fn spec_err<T>(msg: impl Into<String>) -> Result<T, FaultSpecError> {
    Err(FaultSpecError(msg.into()))
}

/// Formats a duration so that [`parse_duration`] reads it back exactly.
/// Shared with the campaign grammar (`cell_deadline`) and its summary
/// renderer.
pub fn fmt_duration(d: Nanos) -> String {
    let n = d.as_nanos();
    if n != 0 && n.is_multiple_of(1_000_000_000) {
        format!("{}s", n / 1_000_000_000)
    } else if n != 0 && n.is_multiple_of(1_000_000) {
        format!("{}ms", n / 1_000_000)
    } else if n != 0 && n.is_multiple_of(1_000) {
        format!("{}us", n / 1_000)
    } else {
        format!("{n}ns")
    }
}

/// Parses `40us` / `2ms` / `1s` / `500ns` / bare-nanosecond durations.
///
/// # Errors
///
/// Returns an error when `s` is not a number with an optional
/// `ns`/`us`/`ms`/`s` suffix.
pub fn parse_duration(s: &str) -> Result<Nanos, FaultSpecError> {
    let s = s.trim();
    let (digits, mul) = if let Some(d) = s.strip_suffix("ns") {
        (d, 1)
    } else if let Some(d) = s.strip_suffix("us") {
        (d, 1_000)
    } else if let Some(d) = s.strip_suffix("ms") {
        (d, 1_000_000)
    } else if let Some(d) = s.strip_suffix('s') {
        (d, 1_000_000_000)
    } else {
        (s, 1)
    };
    match digits.trim().parse::<u64>() {
        Ok(n) => Ok(Nanos::from_nanos(n * mul)),
        Err(_) => spec_err(format!("bad duration `{s}` (want e.g. 40us, 2ms, 1s)")),
    }
}

/// Key=value parameter list of one spec clause.
struct Params<'a> {
    clause: &'a str,
    pairs: Vec<(&'a str, &'a str)>,
}

impl<'a> Params<'a> {
    fn parse(clause: &'a str, list: Option<&'a str>) -> Result<Self, FaultSpecError> {
        let mut pairs = Vec::new();
        if let Some(list) = list {
            for item in list.split(',') {
                let item = item.trim();
                if item.is_empty() {
                    continue;
                }
                let Some((k, v)) = item.split_once('=') else {
                    return spec_err(format!(
                        "bad parameter `{item}` in `{clause}` (want key=value)"
                    ));
                };
                pairs.push((k.trim(), v.trim()));
            }
        }
        Ok(Params { clause, pairs })
    }

    fn take(&mut self, key: &str) -> Option<&'a str> {
        let i = self.pairs.iter().position(|(k, _)| *k == key)?;
        Some(self.pairs.remove(i).1)
    }

    fn count(&mut self, key: &str, default: u32) -> Result<u32, FaultSpecError> {
        let Some(v) = self.take(key) else {
            return Ok(default);
        };
        match v.parse::<u32>() {
            Ok(n) if n >= 1 => Ok(n),
            _ => spec_err(format!(
                "`{key}` must be a positive integer in `{}`",
                self.clause
            )),
        }
    }

    fn duration(&mut self, key: &str, default: Nanos) -> Result<Nanos, FaultSpecError> {
        match self.take(key) {
            Some(v) => parse_duration(v),
            None => Ok(default),
        }
    }

    fn finish(self) -> Result<(), FaultSpecError> {
        match self.pairs.first() {
            Some((k, _)) => spec_err(format!("unknown parameter `{k}` in `{}`", self.clause)),
            None => Ok(()),
        }
    }
}

impl FaultPlan {
    /// An empty plan with a seed.
    #[must_use]
    pub fn seeded(seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            faults: Vec::new(),
        }
    }

    /// Appends a fault (builder-style, for tests and programmatic plans).
    #[must_use]
    pub fn with(mut self, trigger: FaultTrigger, kind: FaultKind) -> FaultPlan {
        self.faults.push(Fault { trigger, kind });
        self
    }

    /// Whether the plan schedules no faults at all.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }

    /// Parses the `--faults` spec grammar:
    ///
    /// ```text
    /// plan    := clause (';' clause)*
    /// clause  := 'seed=' u64 | kind '@' trigger [':' params]
    /// trigger := 'call=' u64 | 't=' duration        (1-based call index)
    /// params  := key '=' value (',' key '=' value)*
    /// duration:= u64 ['ns'|'us'|'ms'|'s']           (default ns)
    /// ```
    ///
    /// Kinds and their parameters (defaults in parentheses):
    ///
    /// | kind            | parameters                        |
    /// |-----------------|-----------------------------------|
    /// | `aex-storm`     | `count` (8)                       |
    /// | `evict-storm`   | —                                 |
    /// | `paging-slow`   | `factor` (4), `dur` (1ms); `t=` triggers only |
    /// | `ocall-fail`    | `times` (1)                       |
    /// | `ocall-timeout` | `delay` (50us), `times` (1)       |
    /// | `worker-stall`  | `delay` (500us)                   |
    /// | `ring-full`     | `calls` (4)                       |
    /// | `tcs-exhaust`   | `times` (1)                       |
    /// | `enclave_lost`  | —                                 |
    /// | `epc_poison`    | —                                 |
    ///
    /// Example: `seed=7;aex-storm@call=3:count=6;ocall-timeout@call=2:delay=40us,times=2`.
    ///
    /// # Errors
    ///
    /// Unknown kinds, malformed triggers/durations, unknown or invalid
    /// parameters, and `call=` triggers on `paging-slow`.
    pub fn parse(spec: &str) -> Result<FaultPlan, FaultSpecError> {
        let mut plan = FaultPlan::default();
        for clause in spec.split(';') {
            let clause = clause.trim();
            if clause.is_empty() {
                continue;
            }
            if let Some(v) = clause.strip_prefix("seed=") {
                plan.seed = match v.trim().parse() {
                    Ok(s) => s,
                    Err(_) => return spec_err(format!("bad seed `{v}`")),
                };
                continue;
            }
            let (head, list) = match clause.split_once(':') {
                Some((h, p)) => (h, Some(p)),
                None => (clause, None),
            };
            let Some((name, trig)) = head.split_once('@') else {
                return spec_err(format!("missing `@trigger` in `{clause}`"));
            };
            let trigger = if let Some(n) = trig.trim().strip_prefix("call=") {
                match n.trim().parse::<u64>() {
                    Ok(n) if n >= 1 => FaultTrigger::AtCall(n),
                    _ => return spec_err(format!("bad call index in `{clause}` (1-based)")),
                }
            } else if let Some(t) = trig.trim().strip_prefix("t=") {
                FaultTrigger::AtTime(parse_duration(t)?)
            } else {
                return spec_err(format!(
                    "bad trigger `{trig}` in `{clause}` (want call=N or t=T)"
                ));
            };
            let mut params = Params::parse(clause, list)?;
            let kind = match name.trim() {
                "aex-storm" => FaultKind::AexStorm {
                    count: params.count("count", 8)?,
                },
                "evict-storm" => FaultKind::EvictStorm,
                "paging-slow" => {
                    if matches!(trigger, FaultTrigger::AtCall(_)) {
                        return spec_err(format!(
                            "`paging-slow` takes a `t=` trigger, not `call=`, in `{clause}`"
                        ));
                    }
                    FaultKind::PagingSlow {
                        factor: params.count("factor", 4)?,
                        duration: params.duration("dur", Nanos::from_millis(1))?,
                    }
                }
                "ocall-fail" => FaultKind::OcallFail {
                    times: params.count("times", 1)?,
                },
                "ocall-timeout" => FaultKind::OcallTimeout {
                    delay: params.duration("delay", Nanos::from_micros(50))?,
                    times: params.count("times", 1)?,
                },
                "worker-stall" => FaultKind::WorkerStall {
                    delay: params.duration("delay", Nanos::from_micros(500))?,
                },
                "ring-full" => FaultKind::RingFull {
                    calls: params.count("calls", 4)?,
                },
                "tcs-exhaust" => FaultKind::TcsExhaust {
                    times: params.count("times", 1)?,
                },
                "enclave_lost" => FaultKind::EnclaveLost,
                "epc_poison" => FaultKind::EpcPoison,
                other => return spec_err(format!("unknown fault kind `{other}`")),
            };
            params.finish()?;
            plan.faults.push(Fault { trigger, kind });
        }
        Ok(plan)
    }
}

impl FromStr for FaultPlan {
    type Err = FaultSpecError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        FaultPlan::parse(s)
    }
}

impl fmt::Display for FaultTrigger {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultTrigger::AtCall(n) => write!(f, "call={n}"),
            FaultTrigger::AtTime(t) => write!(f, "t={}", fmt_duration(*t)),
        }
    }
}

impl fmt::Display for Fault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}@{}", self.kind.label(), self.trigger)?;
        match self.kind {
            FaultKind::AexStorm { count } => write!(f, ":count={count}"),
            FaultKind::EvictStorm => Ok(()),
            FaultKind::PagingSlow { factor, duration } => {
                write!(f, ":factor={factor},dur={}", fmt_duration(duration))
            }
            FaultKind::OcallFail { times } => write!(f, ":times={times}"),
            FaultKind::OcallTimeout { delay, times } => {
                write!(f, ":delay={},times={times}", fmt_duration(delay))
            }
            FaultKind::WorkerStall { delay } => write!(f, ":delay={}", fmt_duration(delay)),
            FaultKind::RingFull { calls } => write!(f, ":calls={calls}"),
            FaultKind::TcsExhaust { times } => write!(f, ":times={times}"),
            FaultKind::EnclaveLost | FaultKind::EpcPoison => Ok(()),
        }
    }
}

impl fmt::Display for FaultPlan {
    /// Canonical spec form: `Display` then [`FaultPlan::parse`] is the
    /// identity, and parse-then-`Display` canonicalises (defaults become
    /// explicit, whitespace is dropped).
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut sep = "";
        if self.seed != 0 {
            write!(f, "seed={}", self.seed)?;
            sep = ";";
        }
        for fault in &self.faults {
            write!(f, "{sep}{fault}")?;
            sep = ";";
        }
        Ok(())
    }
}

/// An injected fault or a recovery step, as observed by the logger.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultEvent {
    /// [`FaultKind::code`] of the fault.
    pub code: u8,
    /// Injection or recovery step.
    pub action: FaultAction,
    /// Affected enclave (0 when not tied to one).
    pub enclave: u32,
    /// Logical thread at the injection site.
    pub thread: u64,
    /// Ecall/ocall index at the site, when meaningful.
    pub call_index: Option<u32>,
    /// Kind-specific magnitude: AEX count, pages evicted, delay or
    /// backoff in nanoseconds, slowdown factor, failed attempts survived.
    pub magnitude: u64,
    /// Virtual time of the event.
    pub time: Nanos,
}

/// Faults due at one enclave-execution site poll.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExecFaults {
    /// Deliver this many extra AEXes back-to-back.
    pub aex_storm: Option<u32>,
    /// Forcibly evict the enclave's resident EPC pages.
    pub evict_storm: bool,
    /// The enclave is destroyed mid-execution (time-triggered
    /// [`FaultKind::EnclaveLost`]): unwind with an AEX-style exit whose
    /// ERESUME never happens and mark the enclave lost.
    pub lost: bool,
}

/// Faults due at one enclave-entry (EENTER) site poll.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EnterFaults {
    /// The enclave is destroyed at this entry: the EENTER itself fails.
    pub lost: bool,
    /// The EPC is poisoned from this entry on: this entry proceeds, the
    /// *next* one finds the enclave lost.
    pub poison: bool,
}

/// An active paging-cost slowdown.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PagingSlowdown {
    /// Multiplier to apply to the paging cost.
    pub factor: f64,
    /// Whether this poll opened the window (the caller emits the
    /// injection event exactly once, on the opening poll).
    pub opened: bool,
}

/// A fault taken by one ocall attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OcallFault {
    /// The ocall fails `times` times before succeeding.
    Fail {
        /// Failed attempts before success.
        times: u32,
    },
    /// The ocall times out `times` times, each attempt costing `delay`.
    Timeout {
        /// Extra wait per timed-out attempt (already jittered).
        delay: Nanos,
        /// Timed-out attempts before success.
        times: u32,
    },
}

#[derive(Debug)]
struct Armed {
    trigger: FaultTrigger,
    kind: FaultKind,
    fired: bool,
    /// Remaining uses for burst kinds (ring-full posts, TCS binds).
    remaining: u32,
    /// End of the active window for `paging-slow`.
    window_until: Nanos,
}

#[derive(Debug, Default)]
struct Counters {
    exec: u64,
    enter: u64,
    ocall: u64,
    worker: u64,
    post: u64,
    tcs: u64,
}

#[derive(Debug)]
struct State {
    counters: Counters,
    armed: Vec<Armed>,
}

fn due(trigger: FaultTrigger, calls: u64, now: Nanos) -> bool {
    match trigger {
        FaultTrigger::AtCall(n) => calls >= n,
        FaultTrigger::AtTime(t) => now >= t,
    }
}

/// ±50% around the nominal count, never below 1.
fn jitter_count(salt: u64, count: u32) -> u32 {
    if count <= 1 {
        return count.max(1);
    }
    let low = u64::from(count - count / 2);
    u32::try_from(low + salt % u64::from(count)).unwrap_or(count)
}

/// ±25% around the nominal duration.
fn jitter_duration(salt: u64, d: Nanos) -> Nanos {
    let n = d.as_nanos();
    if n == 0 {
        return d;
    }
    Nanos::from_nanos(n - n / 4 + salt % (n / 2 + 1))
}

/// The stack-facing side of a [`FaultPlan`]: each injection site polls it
/// and gets a deterministic answer. Construction consumes the plan's seed
/// to fix fault magnitudes; after that the injector is pure bookkeeping
/// (per-site call counters plus one-shot/burst arming state).
#[derive(Debug)]
pub struct FaultInjector {
    state: Mutex<State>,
}

impl FaultInjector {
    /// Arms a plan. One `u64` is drawn from the seeded RNG per fault, in
    /// declaration order, so magnitudes do not depend on poll order.
    #[must_use]
    pub fn new(plan: &FaultPlan) -> FaultInjector {
        let mut rng = rng::seeded(plan.seed);
        let armed = plan
            .faults
            .iter()
            .map(|f| {
                let salt = rng.gen::<u64>();
                let kind = match f.kind {
                    FaultKind::AexStorm { count } => FaultKind::AexStorm {
                        count: jitter_count(salt, count),
                    },
                    FaultKind::PagingSlow { factor, duration } => FaultKind::PagingSlow {
                        factor,
                        duration: jitter_duration(salt, duration),
                    },
                    FaultKind::OcallTimeout { delay, times } => FaultKind::OcallTimeout {
                        delay: jitter_duration(salt, delay),
                        times,
                    },
                    FaultKind::WorkerStall { delay } => FaultKind::WorkerStall {
                        delay: jitter_duration(salt, delay),
                    },
                    other => other,
                };
                Armed {
                    trigger: f.trigger,
                    kind,
                    fired: false,
                    remaining: 0,
                    window_until: Nanos::from_nanos(0),
                }
            })
            .collect();
        FaultInjector {
            state: Mutex::new(State {
                counters: Counters::default(),
                armed,
            }),
        }
    }

    /// Polls the enclave-execution site (one poll per `execute_in_enclave`
    /// invocation). Counts as one `call=` unit for storm triggers.
    pub fn on_enclave_exec(&self, now: Nanos) -> ExecFaults {
        let mut st = self.state.lock();
        st.counters.exec += 1;
        let at = st.counters.exec;
        let mut out = ExecFaults::default();
        for f in &mut st.armed {
            if f.fired || !due(f.trigger, at, now) {
                continue;
            }
            match f.kind {
                FaultKind::AexStorm { count } => {
                    f.fired = true;
                    out.aex_storm = Some(out.aex_storm.unwrap_or(0) + count);
                }
                FaultKind::EvictStorm => {
                    f.fired = true;
                    out.evict_storm = true;
                }
                // Call-triggered loss belongs to the EENTER site (the
                // failing entry is the observable event); only a time
                // trigger can destroy an enclave mid-execution.
                FaultKind::EnclaveLost if matches!(f.trigger, FaultTrigger::AtTime(_)) => {
                    f.fired = true;
                    out.lost = true;
                }
                _ => {}
            }
        }
        out
    }

    /// Polls the enclave-entry site (one poll per EENTER, i.e. per
    /// synchronous ecall dispatch). Counts as one `call=` unit for the
    /// enclave-loss triggers.
    pub fn on_eenter(&self, now: Nanos) -> EnterFaults {
        let mut st = self.state.lock();
        st.counters.enter += 1;
        let at = st.counters.enter;
        let mut out = EnterFaults::default();
        for f in &mut st.armed {
            if f.fired || !due(f.trigger, at, now) {
                continue;
            }
            match f.kind {
                FaultKind::EnclaveLost => {
                    f.fired = true;
                    out.lost = true;
                }
                FaultKind::EpcPoison => {
                    f.fired = true;
                    out.poison = true;
                }
                _ => {}
            }
        }
        out
    }

    /// Polls a paging (EWB/ELDU) site for an active cost slowdown.
    pub fn paging_slowdown(&self, now: Nanos) -> Option<PagingSlowdown> {
        let mut st = self.state.lock();
        let mut best: Option<PagingSlowdown> = None;
        for f in &mut st.armed {
            let FaultKind::PagingSlow { factor, duration } = f.kind else {
                continue;
            };
            let active = if !f.fired && due(f.trigger, 0, now) {
                f.fired = true;
                f.window_until = now + duration;
                Some(true)
            } else if f.fired && now < f.window_until {
                Some(false)
            } else {
                None
            };
            if let Some(opened) = active {
                let factor = f64::from(factor);
                best = Some(match best {
                    Some(b) => PagingSlowdown {
                        factor: b.factor.max(factor),
                        opened: b.opened || opened,
                    },
                    None => PagingSlowdown { factor, opened },
                });
            }
        }
        best
    }

    /// Polls the ocall site (one poll per application-level ocall, not
    /// per retry). A `Some` answer transfers the whole fault to the
    /// caller, which owns the retry loop.
    pub fn take_ocall_fault(&self, now: Nanos) -> Option<OcallFault> {
        let mut st = self.state.lock();
        st.counters.ocall += 1;
        let at = st.counters.ocall;
        for f in &mut st.armed {
            if f.fired || !due(f.trigger, at, now) {
                continue;
            }
            match f.kind {
                FaultKind::OcallFail { times } => {
                    f.fired = true;
                    return Some(OcallFault::Fail { times });
                }
                FaultKind::OcallTimeout { delay, times } => {
                    f.fired = true;
                    return Some(OcallFault::Timeout { delay, times });
                }
                _ => {}
            }
        }
        None
    }

    /// Polls the switchless-worker dispatch site; `Some(delay)` stalls
    /// the worker once.
    pub fn take_worker_stall(&self, now: Nanos) -> Option<Nanos> {
        let mut st = self.state.lock();
        st.counters.worker += 1;
        let at = st.counters.worker;
        for f in &mut st.armed {
            if f.fired || !due(f.trigger, at, now) {
                continue;
            }
            if let FaultKind::WorkerStall { delay } = f.kind {
                f.fired = true;
                return Some(delay);
            }
        }
        None
    }

    /// Polls the switchless post site; `true` means the ring reports
    /// full for this post attempt.
    pub fn take_ring_full(&self, now: Nanos) -> bool {
        let mut st = self.state.lock();
        st.counters.post += 1;
        let at = st.counters.post;
        for f in &mut st.armed {
            let FaultKind::RingFull { calls } = f.kind else {
                continue;
            };
            if !f.fired && due(f.trigger, at, now) {
                f.fired = true;
                f.remaining = calls;
            }
            if f.fired && f.remaining > 0 {
                f.remaining -= 1;
                return true;
            }
        }
        false
    }

    /// Polls the TCS bind site; `true` means this bind attempt finds all
    /// TCS pages busy. Retries poll again (and eventually succeed once
    /// the burst is exhausted).
    pub fn take_tcs_exhaust(&self, now: Nanos) -> bool {
        let mut st = self.state.lock();
        st.counters.tcs += 1;
        let at = st.counters.tcs;
        for f in &mut st.armed {
            let FaultKind::TcsExhaust { times } = f.kind else {
                continue;
            };
            if !f.fired && due(f.trigger, at, now) {
                f.fired = true;
                f.remaining = times;
            }
            if f.fired && f.remaining > 0 {
                f.remaining -= 1;
                return true;
            }
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SPEC: &str = "seed=7;aex-storm@call=3:count=6;evict-storm@t=2ms;\
                        paging-slow@t=1ms:factor=4,dur=500us;ocall-timeout@call=2:delay=40us,times=2;\
                        worker-stall@call=1:delay=200us;ring-full@call=2:calls=3;tcs-exhaust@call=1:times=2;\
                        enclave_lost@call=9;epc_poison@t=4ms";

    #[test]
    fn parse_then_display_is_canonical_and_stable() {
        let plan = FaultPlan::parse(SPEC).unwrap();
        let canon = plan.to_string();
        let reparsed = FaultPlan::parse(&canon).unwrap();
        assert_eq!(plan, reparsed);
        assert_eq!(canon, reparsed.to_string(), "Display must be a fixpoint");
        assert_eq!(plan.seed, 7);
        assert_eq!(plan.faults.len(), 9);
    }

    #[test]
    fn defaults_become_explicit_in_canonical_form() {
        let plan = FaultPlan::parse("ocall-fail@call=1").unwrap();
        assert_eq!(plan.to_string(), "ocall-fail@call=1:times=1");
        let plan = FaultPlan::parse(" aex-storm@t=1s ").unwrap();
        assert_eq!(plan.to_string(), "aex-storm@t=1s:count=8");
    }

    #[test]
    fn bad_specs_are_rejected_with_context() {
        for bad in [
            "aex-storm",                     // no trigger
            "aex-storm@soon",                // bad trigger
            "aex-storm@call=0",              // 1-based
            "frobnicate@call=1",             // unknown kind
            "aex-storm@call=1:verve=9",      // unknown param
            "aex-storm@call=1:count=0",      // zero count
            "paging-slow@call=3",            // needs t=
            "ocall-timeout@call=1:delay=4x", // bad duration
            "seed=banana",                   // bad seed
            "aex-storm@t=",                  // empty duration
            "enclave_lost@call=1:times=2",   // takes no params
            "epc_poison@t=1ms:count=1",      // takes no params
        ] {
            assert!(FaultPlan::parse(bad).is_err(), "`{bad}` must not parse");
        }
    }

    #[test]
    fn empty_specs_parse_to_the_empty_plan() {
        assert_eq!(FaultPlan::parse("").unwrap(), FaultPlan::default());
        assert_eq!(FaultPlan::parse(" ; ;").unwrap(), FaultPlan::default());
        let seeded = FaultPlan::parse("seed=9").unwrap();
        assert_eq!(seeded, FaultPlan::seeded(9));
        assert!(seeded.is_empty());
        assert_eq!(seeded.to_string(), "seed=9");
    }

    #[test]
    fn empty_plans_never_fire() {
        let inj = FaultInjector::new(&FaultPlan::seeded(1234));
        for i in 0..100 {
            let now = Nanos::from_micros(i);
            assert_eq!(inj.on_enclave_exec(now), ExecFaults::default());
            assert_eq!(inj.on_eenter(now), EnterFaults::default());
            assert!(inj.paging_slowdown(now).is_none());
            assert!(inj.take_ocall_fault(now).is_none());
            assert!(inj.take_worker_stall(now).is_none());
            assert!(!inj.take_ring_full(now));
            assert!(!inj.take_tcs_exhaust(now));
        }
    }

    #[test]
    fn call_triggers_fire_on_the_nth_site_poll_exactly_once() {
        let plan =
            FaultPlan::seeded(1).with(FaultTrigger::AtCall(3), FaultKind::AexStorm { count: 4 });
        let inj = FaultInjector::new(&plan);
        let now = Nanos::from_nanos(0);
        assert_eq!(inj.on_enclave_exec(now).aex_storm, None);
        assert_eq!(inj.on_enclave_exec(now).aex_storm, None);
        let burst = inj.on_enclave_exec(now).aex_storm.unwrap();
        assert!(
            (2..=6).contains(&burst),
            "jitter stays within ±50%: {burst}"
        );
        assert_eq!(inj.on_enclave_exec(now).aex_storm, None, "one-shot");
    }

    #[test]
    fn time_triggers_fire_on_the_first_poll_past_t() {
        let plan = FaultPlan::seeded(1).with(
            FaultTrigger::AtTime(Nanos::from_micros(5)),
            FaultKind::EvictStorm,
        );
        let inj = FaultInjector::new(&plan);
        assert!(!inj.on_enclave_exec(Nanos::from_micros(4)).evict_storm);
        assert!(inj.on_enclave_exec(Nanos::from_micros(6)).evict_storm);
        assert!(!inj.on_enclave_exec(Nanos::from_micros(7)).evict_storm);
    }

    #[test]
    fn paging_slowdown_window_opens_once_and_expires() {
        let plan = FaultPlan::seeded(0).with(
            FaultTrigger::AtTime(Nanos::from_micros(10)),
            FaultKind::PagingSlow {
                factor: 4,
                duration: Nanos::from_micros(100),
            },
        );
        let inj = FaultInjector::new(&plan);
        assert!(inj.paging_slowdown(Nanos::from_micros(9)).is_none());
        let open = inj.paging_slowdown(Nanos::from_micros(10)).unwrap();
        assert!(open.opened);
        assert!((open.factor - 4.0).abs() < f64::EPSILON);
        let mid = inj.paging_slowdown(Nanos::from_micros(50)).unwrap();
        assert!(!mid.opened);
        // The jittered window is 75..=125 us past the trigger.
        assert!(inj.paging_slowdown(Nanos::from_micros(200)).is_none());
    }

    #[test]
    fn burst_kinds_consume_their_budget_then_stop() {
        let plan = FaultPlan::seeded(3)
            .with(FaultTrigger::AtCall(2), FaultKind::RingFull { calls: 3 })
            .with(FaultTrigger::AtCall(1), FaultKind::TcsExhaust { times: 2 });
        let inj = FaultInjector::new(&plan);
        let now = Nanos::from_nanos(0);
        let posts: Vec<bool> = (0..6).map(|_| inj.take_ring_full(now)).collect();
        assert_eq!(posts, [false, true, true, true, false, false]);
        let binds: Vec<bool> = (0..4).map(|_| inj.take_tcs_exhaust(now)).collect();
        assert_eq!(binds, [true, true, false, false]);
    }

    #[test]
    fn enclave_lost_call_trigger_fires_on_the_nth_entry_once() {
        let inj = FaultInjector::new(&FaultPlan::parse("enclave_lost@call=3").unwrap());
        let now = Nanos::from_nanos(0);
        assert_eq!(inj.on_eenter(now), EnterFaults::default());
        assert_eq!(inj.on_eenter(now), EnterFaults::default());
        let hit = inj.on_eenter(now);
        assert!(hit.lost && !hit.poison);
        assert_eq!(inj.on_eenter(now), EnterFaults::default(), "one-shot");
        // Exec-site polls never consume a call-triggered loss.
        assert!(!inj.on_enclave_exec(now).lost);
    }

    #[test]
    fn time_triggered_loss_unwinds_at_the_first_site_past_t() {
        let plan = FaultPlan::parse("enclave_lost@t=5us").unwrap();
        let inj = FaultInjector::new(&plan);
        assert!(!inj.on_enclave_exec(Nanos::from_micros(4)).lost);
        assert!(inj.on_enclave_exec(Nanos::from_micros(6)).lost);
        assert!(!inj.on_enclave_exec(Nanos::from_micros(7)).lost, "one-shot");
        // An idle enclave takes the same fault at its next entry instead.
        let inj = FaultInjector::new(&plan);
        assert!(!inj.on_eenter(Nanos::from_micros(4)).lost);
        assert!(inj.on_eenter(Nanos::from_micros(6)).lost);
    }

    #[test]
    fn epc_poison_fires_only_at_the_entry_site() {
        let inj = FaultInjector::new(&FaultPlan::parse("epc_poison@call=2").unwrap());
        let now = Nanos::from_nanos(0);
        assert!(!inj.on_enclave_exec(now).lost);
        assert_eq!(inj.on_eenter(now), EnterFaults::default());
        let hit = inj.on_eenter(now);
        assert!(hit.poison && !hit.lost);
        assert_eq!(inj.on_eenter(now), EnterFaults::default());
    }

    #[test]
    fn same_plan_arms_identical_injectors() {
        let plan = FaultPlan::parse(SPEC).unwrap();
        let a = FaultInjector::new(&plan);
        let b = FaultInjector::new(&plan);
        for i in 0..50u64 {
            let now = Nanos::from_micros(i * 100);
            assert_eq!(a.on_enclave_exec(now), b.on_enclave_exec(now));
            assert_eq!(a.on_eenter(now), b.on_eenter(now));
            assert_eq!(a.paging_slowdown(now), b.paging_slowdown(now));
            assert_eq!(a.take_ocall_fault(now), b.take_ocall_fault(now));
            assert_eq!(a.take_worker_stall(now), b.take_worker_stall(now));
            assert_eq!(a.take_ring_full(now), b.take_ring_full(now));
            assert_eq!(a.take_tcs_exhaust(now), b.take_tcs_exhaust(now));
        }
    }

    #[test]
    fn seeds_change_magnitudes_but_not_schedules() {
        let base = "aex-storm@call=1:count=100;worker-stall@call=1:delay=100us";
        let a = FaultInjector::new(&FaultPlan::parse(&format!("seed=1;{base}")).unwrap());
        let b = FaultInjector::new(&FaultPlan::parse(&format!("seed=2;{base}")).unwrap());
        let now = Nanos::from_nanos(0);
        let (sa, sb) = (a.on_enclave_exec(now), b.on_enclave_exec(now));
        assert!(sa.aex_storm.is_some() && sb.aex_storm.is_some());
        assert_ne!(
            sa.aex_storm, sb.aex_storm,
            "different seeds, different burst sizes"
        );
        assert!(a.take_worker_stall(now).is_some());
        assert!(b.take_worker_stall(now).is_some());
    }
}
