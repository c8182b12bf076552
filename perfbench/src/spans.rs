//! In-memory span recorder for the traced run.
//!
//! Spans are recorded from the benchmark's own code around calls into each
//! layer's public functions; nothing inside the program is instrumented.
//! A span has a layer name, a kind tag (the session or trace kind, or ""),
//! the op it belongs to, its parent and its host-time interval. Exact
//! counters and distributions recorded at the same boundaries live here
//! too. When off, [`Tracer::span`] only runs its closure.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub layer: &'static str,
    pub kind: &'static str,
    pub op: u64,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }

    /// The metric name of this span's duration: `<layer>_ms[.<kind>]`.
    pub fn metric(&self) -> String {
        metric_name(self.layer, self.kind, "_ms")
    }
}

/// `<layer><suffix>` with `.<kind>` appended when the kind is not empty.
pub fn metric_name(layer: &str, kind: &str, suffix: &str) -> String {
    if kind.is_empty() {
        format!("{layer}{suffix}")
    } else {
        format!("{layer}{suffix}.{kind}")
    }
}

#[derive(Debug)]
pub struct Tracer {
    on: bool,
    epoch: Instant,
    op: u64,
    stack: Vec<usize>,
    pub spans: Vec<Span>,
    /// Distributions sampled at layer boundaries (e.g. host ns per ecall).
    pub samples: BTreeMap<String, Vec<f64>>,
    /// Exact counters: every recording of one name must be identical.
    pub counters: BTreeMap<String, f64>,
    /// Counters recorded with two different values.
    pub mismatches: Vec<String>,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            epoch: Instant::now(),
            op: 0,
            stack: Vec::new(),
            spans: Vec::new(),
            samples: BTreeMap::new(),
            counters: BTreeMap::new(),
            mismatches: Vec::new(),
        }
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Starts a new op: later spans share its identifier.
    pub fn next_op(&mut self) {
        self.op += 1;
    }

    /// Runs `f` inside a span (or just runs it when tracing is off).
    pub fn span<T>(
        &mut self,
        layer: &'static str,
        kind: &'static str,
        f: impl FnOnce(&mut Tracer) -> T,
    ) -> T {
        if !self.on {
            return f(self);
        }
        let idx = self.spans.len();
        self.spans.push(Span {
            layer,
            kind,
            op: self.op,
            parent: self.stack.last().copied(),
            start_ns: self.now_ns(),
            end_ns: 0,
        });
        self.stack.push(idx);
        let out = f(self);
        self.stack.pop();
        self.spans[idx].end_ns = self.now_ns();
        out
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Records an exact counter; a different value under the same name
    /// is a mismatch.
    pub fn count(&mut self, name: String, value: f64) {
        if !self.on {
            return;
        }
        match self.counters.get(&name) {
            Some(&old) if old.to_bits() != value.to_bits() => {
                self.mismatches.push(format!("{name}: {old} then {value}"));
            }
            Some(_) => {}
            None => {
                self.counters.insert(name, value);
            }
        }
    }

    pub fn sample(&mut self, name: String, values: impl IntoIterator<Item = f64>) {
        if self.on {
            self.samples.entry(name).or_default().extend(values);
        }
    }

    /// A span's duration minus the part of its interval covered by its
    /// direct children.
    pub fn self_ns(&self, idx: usize) -> u64 {
        let span = &self.spans[idx];
        let mut children: Vec<(u64, u64)> = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(idx))
            .map(|s| (s.start_ns.max(span.start_ns), s.end_ns.min(span.end_ns)))
            .filter(|(a, b)| a < b)
            .collect();
        children.sort_unstable();
        let mut covered = 0;
        let mut reach = span.start_ns;
        for (a, b) in children {
            let a = a.max(reach);
            if b > a {
                covered += b - a;
                reach = b;
            }
        }
        span.duration_ns() - covered
    }

    /// Span durations in ms grouped by metric name.
    pub fn durations_ms(&self) -> BTreeMap<String, Vec<f64>> {
        let mut out: BTreeMap<String, Vec<f64>> = BTreeMap::new();
        for s in &self.spans {
            out.entry(s.metric())
                .or_default()
                .push(s.duration_ns() as f64 / 1e6);
        }
        out
    }

    /// Self times in ms of every span of `layer`, grouped by metric name
    /// with suffix `_self_ms`.
    pub fn self_ms(&self, layer: &str) -> BTreeMap<String, Vec<f64>> {
        let mut out: BTreeMap<String, Vec<f64>> = BTreeMap::new();
        for (i, s) in self
            .spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.layer == layer)
        {
            out.entry(metric_name(s.layer, s.kind, "_self_ms"))
                .or_default()
                .push(self.self_ns(i) as f64 / 1e6);
        }
        out
    }

    /// The spans as a Chrome trace-event document (`chrome://tracing`,
    /// Perfetto): one complete event per span, `tid` = op.
    pub fn to_chrome_json(&self) -> String {
        let mut out = String::from("{\"traceEvents\": [\n");
        for (i, s) in self.spans.iter().enumerate() {
            let name = if s.kind.is_empty() {
                s.layer.to_string()
            } else {
                format!("{} {}", s.layer, s.kind)
            };
            let _ = writeln!(
                out,
                "{{\"name\": \"{name}\", \"ph\": \"X\", \"pid\": 1, \"tid\": {}, \"ts\": {:.3}, \"dur\": {:.3}, \"args\": {{\"span\": {i}, \"parent\": {}}}}}{}",
                s.op,
                s.start_ns as f64 / 1e3,
                s.duration_ns() as f64 / 1e3,
                s.parent.map_or(-1, |p| p as i64),
                if i + 1 == self.spans.len() { "" } else { "," }
            );
        }
        out.push_str("]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            layer: "l",
            kind: "",
            op: 1,
            parent,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_children_once() {
        let mut t = Tracer::new(true);
        t.spans = vec![
            span(None, 0, 100),
            span(Some(0), 10, 30),
            span(Some(0), 25, 50),  // overlaps the first child
            span(Some(1), 12, 20),  // grandchild: already inside child 1
            span(Some(0), 90, 120), // sticks out past the parent's end
        ];
        assert_eq!(t.self_ns(0), 100 - 40 - 10);
        assert_eq!(t.self_ns(1), 20 - 8);
        assert_eq!(t.self_ns(3), 8);
    }

    #[test]
    fn nested_spans_record_parents_and_ops() {
        let mut t = Tracer::new(true);
        t.next_op();
        let v = t.span("outer", "talos", |t| t.span("inner", "talos", |_| 7));
        assert_eq!(v, 7);
        assert_eq!(t.spans.len(), 2);
        assert_eq!(t.spans[1].parent, Some(0));
        assert_eq!(t.spans[0].op, 1);
        assert!(t.spans[0].start_ns <= t.spans[1].start_ns);
        assert!(t.spans[1].end_ns <= t.spans[0].end_ns);
        assert!(t.self_ns(0) <= t.spans[0].duration_ns());
        assert_eq!(t.spans[0].metric(), "outer_ms.talos");
        assert!(t.to_chrome_json().contains("\"name\": \"inner talos\""));
    }

    #[test]
    fn off_records_nothing() {
        let mut t = Tracer::new(false);
        assert_eq!(t.span("x", "", |_| 3), 3);
        t.count("c".into(), 1.0);
        t.sample("s".into(), [1.0]);
        assert!(t.spans.is_empty() && t.counters.is_empty() && t.samples.is_empty());
    }

    #[test]
    fn counters_must_repeat_exactly() {
        let mut t = Tracer::new(true);
        t.count("rows".into(), 10.0);
        t.count("rows".into(), 10.0);
        assert!(t.mismatches.is_empty());
        t.count("rows".into(), 11.0);
        assert_eq!(t.mismatches.len(), 1);
    }
}
