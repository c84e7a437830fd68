//! In-memory spans around the benchmark's calls into each layer.
//!
//! A span records its layer name, start and end (ns since the run began),
//! its parent span and the operation it belongs to, plus one count measured
//! at the same boundary (tuples parsed, witnesses enumerated, bytes
//! rendered, ...). Spans stay in memory while the run measures and are
//! written out as JSON lines when it ends; `per_layer` in `main.rs` reduces
//! them to the per-layer metrics.

use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the parent span, `u32::MAX` for a root.
    pub parent: u32,
    pub op: u64,
    pub count: u64,
}

impl Span {
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

pub const ROOT: u32 = u32::MAX;

/// The span recorder; a disabled one records nothing and only runs the
/// wrapped calls.
pub struct Trace {
    on: bool,
    t0: Instant,
    pub spans: Vec<Span>,
}

impl Trace {
    pub fn new(on: bool) -> Trace {
        Trace {
            on,
            t0: Instant::now(),
            spans: Vec::new(),
        }
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    fn now(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Opens a span and returns its index (`ROOT` when tracing is off);
    /// close it with [`Trace::close`].
    pub fn open(&mut self, name: &'static str, op: u64, parent: u32) -> u32 {
        if !self.on {
            return ROOT;
        }
        let start_ns = self.now();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            op,
            count: 0,
        });
        (self.spans.len() - 1) as u32
    }

    /// Closes span `id` with its count.
    pub fn close(&mut self, id: u32, count: u64) {
        if id == ROOT {
            return;
        }
        let end = self.now();
        let s = &mut self.spans[id as usize];
        s.end_ns = end;
        s.count = count;
    }

    /// Runs `f` inside a span; `count` reads the span's count off the result.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        op: u64,
        parent: u32,
        f: impl FnOnce() -> R,
        count: impl FnOnce(&R) -> u64,
    ) -> R {
        if !self.on {
            return f();
        }
        let id = self.open(name, op, parent);
        let r = f();
        let n = count(&r);
        self.close(id, n);
        r
    }

    /// Records a span measured elsewhere (e.g. a duration reported by a
    /// layer's caller).
    pub fn record(&mut self, name: &'static str, op: u64, parent: u32, ns: u64, count: u64) {
        if !self.on {
            return;
        }
        let end_ns = self.now();
        self.spans.push(Span {
            name,
            start_ns: end_ns.saturating_sub(ns),
            end_ns,
            parent,
            op,
            count,
        });
    }

    /// Spans of one name.
    fn named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a Span> + 'a {
        self.spans.iter().filter(move |s| s.name == name)
    }

    /// Median duration of the spans named `name`, in µs (0 when none).
    pub fn median_us(&self, name: &str) -> f64 {
        let v: Vec<f64> = self.named(name).map(|s| s.ns() as f64 / 1e3).collect();
        crate::stats::median(&v)
    }

    /// Total ns of the spans named `name` over the total of their counts.
    pub fn ns_per_count(&self, name: &str) -> f64 {
        let (ns, n) = self
            .named(name)
            .fold((0u64, 0u64), |(a, b), s| (a + s.ns(), b + s.count));
        if n == 0 {
            0.0
        } else {
            ns as f64 / n as f64
        }
    }

    /// Mean count of the spans named `name` (0 when none).
    pub fn mean_count(&self, name: &str) -> f64 {
        let (sum, k) = self
            .named(name)
            .fold((0u64, 0u64), |(a, b), s| (a + s.count, b + 1));
        if k == 0 {
            0.0
        } else {
            sum as f64 / k as f64
        }
    }

    /// The first `limit` spans as JSON lines.
    pub fn to_jsonl(&self, limit: usize) -> String {
        let mut out = String::with_capacity(self.spans.len().min(limit) * 128);
        for (i, s) in self.spans.iter().take(limit).enumerate() {
            let parent = if s.parent == ROOT {
                "null".to_string()
            } else {
                s.parent.to_string()
            };
            let _ = writeln!(
                out,
                "{{\"id\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \
                 \"parent\": {parent}, \"op\": {}, \"count\": {}}}",
                s.name, s.start_ns, s.end_ns, s.op, s.count
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_trace_records_nothing() {
        let mut t = Trace::new(false);
        let v = t.span("x", 0, ROOT, || 7, |_| 1);
        assert_eq!(v, 7);
        assert!(t.spans.is_empty());
    }

    #[test]
    fn reductions_read_durations_and_counts() {
        let mut t = Trace::new(true);
        t.spans.push(Span {
            name: "op",
            start_ns: 0,
            end_ns: 100,
            parent: ROOT,
            op: 0,
            count: 0,
        });
        t.spans.push(Span {
            name: "child",
            start_ns: 10,
            end_ns: 40,
            parent: 0,
            op: 0,
            count: 3,
        });
        assert_eq!(t.median_us("op"), 0.1);
        assert_eq!(t.ns_per_count("child"), 10.0);
        assert_eq!(t.mean_count("child"), 3.0);
        assert!(t.to_jsonl(2).contains("\"parent\": 0"));
        assert_eq!(t.to_jsonl(1).lines().count(), 1);
    }
}
