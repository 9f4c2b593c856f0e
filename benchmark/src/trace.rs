//! Spans recorded in the benchmark's own code, around each call into a
//! crate's public API. The engine is not instrumented: a span here is what
//! a caller of the facade can see.
//!
//! Spans nest workload → phase → op. They are kept in memory and written
//! out when the run ends. A span's *self time* is its duration minus the
//! part its child spans cover.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::json::Json;

/// Individual spans kept per tracer; totals keep counting beyond it, so a
/// million-request run neither exhausts memory nor writes a 100 MB file.
const MAX_STORED_SPANS: usize = 50_000;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, `None` for the root.
    pub parent: Option<usize>,
    /// Identifier shared by the spans of one operation (0 for phases).
    pub op: u64,
}

/// Per-name aggregate over every span, stored or not.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct SpanTotal {
    pub count: u64,
    pub total_ns: u64,
    pub child_ns: u64,
}

impl SpanTotal {
    pub fn self_ns(&self) -> u64 {
        self.total_ns.saturating_sub(self.child_ns)
    }
}

/// A span that has been entered and not yet left.
struct Open {
    name: &'static str,
    start_ns: u64,
    /// Index among the stored spans, if it was stored.
    stored: Option<usize>,
    child_ns: u64,
    /// `false` when tracing was off at entry: leaving it records nothing.
    recorded: bool,
}

pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    /// Open spans, innermost last.
    stack: Vec<Open>,
    totals: BTreeMap<&'static str, SpanTotal>,
}

impl Tracer {
    /// A tracer that records nothing.
    pub fn off() -> Tracer {
        Tracer::new(false, Instant::now())
    }

    pub fn on() -> Tracer {
        Tracer::new(true, Instant::now())
    }

    fn new(enabled: bool, origin: Instant) -> Tracer {
        Tracer {
            enabled,
            origin,
            spans: Vec::new(),
            stack: Vec::new(),
            totals: BTreeMap::new(),
        }
    }

    /// A tracer for another thread sharing this one's clock origin; merge
    /// it back with [`Tracer::absorb`].
    pub fn fork(&self) -> Tracer {
        Tracer::new(self.enabled, self.origin)
    }

    /// Switch recording on or off. Spans already open keep the setting
    /// they were entered under, so a traced run can alternate plain and
    /// traced ops inside one recorded phase.
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    /// Open a span under the innermost open one; pair with [`Tracer::exit`].
    pub fn enter(&mut self, name: &'static str, op: u64) {
        if !self.enabled {
            self.stack.push(Open {
                name,
                start_ns: 0,
                stored: None,
                child_ns: 0,
                recorded: false,
            });
            return;
        }
        let start_ns = self.origin.elapsed().as_nanos() as u64;
        let stored = (self.spans.len() < MAX_STORED_SPANS).then(|| {
            let parent = self.innermost_stored();
            self.spans.push(Span {
                name,
                start_ns,
                end_ns: start_ns,
                parent,
                op,
            });
            self.spans.len() - 1
        });
        self.stack.push(Open {
            name,
            start_ns,
            stored,
            child_ns: 0,
            recorded: true,
        });
    }

    /// Close the innermost open span.
    pub fn exit(&mut self) {
        let open = self.stack.pop().expect("exit without a matching enter");
        if !open.recorded {
            return;
        }
        let end_ns = self.origin.elapsed().as_nanos() as u64;
        if let Some(i) = open.stored {
            self.spans[i].end_ns = end_ns;
        }
        let duration = end_ns - open.start_ns;
        let total = self.totals.entry(open.name).or_default();
        total.count += 1;
        total.total_ns += duration;
        total.child_ns += open.child_ns;
        if let Some(parent) = self.stack.iter_mut().rev().find(|o| o.recorded) {
            parent.child_ns += duration;
        }
    }

    /// Run `f` inside a span.
    pub fn span<T>(&mut self, name: &'static str, op: u64, f: impl FnOnce() -> T) -> T {
        self.enter(name, op);
        let out = f();
        self.exit();
        out
    }

    /// Run `f` inside a span and also return the nanoseconds it took (the
    /// latency sample is taken whether or not the span is recorded).
    pub fn timed<T>(&mut self, name: &'static str, op: u64, f: impl FnOnce() -> T) -> (T, u64) {
        self.span(name, op, || crate::stats::timed(f))
    }

    fn innermost_stored(&self) -> Option<usize> {
        self.stack.iter().rev().find_map(|open| open.stored)
    }

    /// Merge a forked tracer's spans in as children of the innermost open
    /// span of `self` (the phase that spawned the thread).
    pub fn absorb(&mut self, other: Tracer) {
        let parent = self.innermost_stored();
        let base = self.spans.len();
        for mut span in other.spans {
            if self.spans.len() >= MAX_STORED_SPANS {
                break;
            }
            span.parent = span.parent.map(|p| p + base).or(parent);
            self.spans.push(span);
        }
        for (name, t) in other.totals {
            let total = self.totals.entry(name).or_default();
            total.count += t.count;
            total.total_ns += t.total_ns;
            total.child_ns += t.child_ns;
        }
    }

    pub fn totals(&self) -> &BTreeMap<&'static str, SpanTotal> {
        &self.totals
    }

    #[cfg(test)]
    pub fn total(&self, name: &str) -> SpanTotal {
        self.totals.get(name).copied().unwrap_or_default()
    }

    /// The stored spans as a JSON array (name, start, end, parent, op).
    pub fn to_json(&self) -> Json {
        Json::Arr(
            self.spans
                .iter()
                .map(|s| {
                    Json::obj([
                        ("name", Json::str(s.name)),
                        ("start_ns", Json::Int(s.start_ns)),
                        ("end_ns", Json::Int(s.end_ns)),
                        (
                            "parent",
                            s.parent.map_or(Json::Null, |p| Json::Int(p as u64)),
                        ),
                        ("op", Json::Int(s.op)),
                    ])
                })
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spin(micros: u64) {
        let t = Instant::now();
        while (t.elapsed().as_micros() as u64) < micros {
            std::hint::spin_loop();
        }
    }

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::on();
        t.enter("phase", 0);
        spin(200);
        for op in 1..=3 {
            t.span("op", op, || spin(100));
        }
        t.exit();
        let phase = t.total("phase");
        let op = t.total("op");
        assert_eq!((phase.count, op.count), (1, 3));
        assert_eq!(phase.child_ns, op.total_ns);
        assert!(phase.self_ns() >= 200_000 && phase.self_ns() < phase.total_ns);
        let Json::Arr(spans) = t.to_json() else {
            panic!("array")
        };
        assert_eq!(spans.len(), 4);
        assert!(
            spans[1].to_string().contains(r#""parent": 0, "op": 1"#),
            "{}",
            spans[1]
        );
    }

    #[test]
    fn a_disabled_tracer_records_nothing() {
        let mut t = Tracer::off();
        assert_eq!(t.span("x", 1, || 7), 7);
        assert!(t.totals().is_empty());
        assert_eq!(t.to_json(), Json::Arr(Vec::new()));
    }

    #[test]
    fn forked_spans_hang_under_the_open_phase() {
        let mut main = Tracer::on();
        main.enter("measure", 0);
        let mut worker = main.fork();
        worker.span("request", 9, || spin(50));
        main.absorb(worker);
        main.exit();
        assert_eq!(main.total("request").count, 1);
        let Json::Arr(spans) = main.to_json() else {
            panic!("array")
        };
        assert!(spans[1].to_string().contains(r#""parent": 0"#));
    }
}
