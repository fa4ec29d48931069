//! In-memory spans and counters for the traced run.
//!
//! Spans are recorded by the benchmark around its own calls into each layer's
//! public functions; nothing inside the program is instrumented.  A span has a
//! name, start and end (nanoseconds since the start of its unit of work), the
//! index of its parent span, and the unit it belongs to.  Counters are
//! deterministic work counts read from the outcomes the layers return.

use std::collections::BTreeMap;
use std::time::Instant;

/// One timed call into a layer.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer call, e.g. `ident.run`.
    pub name: String,
    /// Start, nanoseconds since the unit began.
    pub start_ns: u64,
    /// End, nanoseconds since the unit began.
    pub end_ns: u64,
    /// Index of the enclosing span within the same unit.
    pub parent: Option<usize>,
    /// The unit (session, or fleet run) the span belongs to.
    pub session: usize,
}

impl Span {
    /// Duration in milliseconds.
    pub fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

/// Collects the spans and counters of one unit of work.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    session: usize,
    /// Spans in the order they were opened.
    pub spans: Vec<Span>,
    /// Work counters, summed over the unit.
    pub counters: BTreeMap<String, f64>,
}

impl Tracer {
    /// Starts tracing unit `session`.
    pub fn new(session: usize) -> Self {
        Self {
            origin: Instant::now(),
            session,
            spans: Vec::new(),
            counters: BTreeMap::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span and returns its index.
    pub fn open(&mut self, name: &str, parent: Option<usize>) -> usize {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name: name.to_string(),
            start_ns,
            end_ns: start_ns,
            parent,
            session: self.session,
        });
        self.spans.len() - 1
    }

    /// Closes the span `id`.
    pub fn close(&mut self, id: usize) {
        self.spans[id].end_ns = self.now_ns();
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<T>(&mut self, name: &str, parent: Option<usize>, f: impl FnOnce() -> T) -> T {
        let id = self.open(name, parent);
        let out = f();
        self.close(id);
        out
    }

    /// Adds `value` to counter `name`.
    pub fn add(&mut self, name: &str, value: f64) {
        *self.counters.entry(name.to_string()).or_insert(0.0) += value;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_counters_sum() {
        let mut t = Tracer::new(7);
        let root = t.open("session", None);
        let v = t.time("child", Some(root), || 41 + 1);
        t.close(root);
        t.add("calls", 1.0);
        t.add("calls", 2.0);
        assert_eq!(v, 42);
        assert_eq!(t.spans.len(), 2);
        assert_eq!(t.spans[1].parent, Some(0));
        assert_eq!(t.spans[1].session, 7);
        assert!(t.spans[0].start_ns <= t.spans[1].start_ns);
        assert!(t.spans[1].end_ns <= t.spans[0].end_ns);
        assert_eq!(t.counters["calls"], 3.0);
    }
}
