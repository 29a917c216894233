//! In-memory span recorder for the traced run.
//!
//! Spans are recorded by the benchmark around its own calls into each
//! layer's public entry point, kept in memory while the run lasts, and
//! written out as JSONL when it ends.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// One timed call.
pub struct Span {
    pub name: &'static str,
    /// The closed-loop operation this span belongs to.
    pub op: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

pub struct Tracer {
    t0: Instant,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Self {
        // Room for a whole traced run, already resident, so recording a
        // span never reallocates or faults a page in inside a timed call.
        let mut spans = Vec::with_capacity(1 << 20);
        spans.resize_with(1 << 20, || Span {
            name: "",
            op: 0,
            parent: None,
            start_ns: 0,
            end_ns: 0,
        });
        spans.clear();
        Tracer {
            t0: Instant::now(),
            spans,
        }
    }

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Open a span; returns its index for [`Tracer::end`].
    pub fn begin(&mut self, name: &'static str, op: u64, parent: Option<usize>) -> usize {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            op,
            parent,
            start_ns,
            end_ns: start_ns,
        });
        self.spans.len() - 1
    }

    pub fn end(&mut self, id: usize) -> u64 {
        let now = self.now_ns();
        let span = &mut self.spans[id];
        span.end_ns = now;
        span.dur_ns()
    }

    /// Durations of every span called `name`, ascending.
    pub fn durations(&self, name: &str) -> Vec<u64> {
        let mut v: Vec<u64> = self
            .spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::dur_ns)
            .collect();
        v.sort_unstable();
        v
    }

    /// Self time of every span (its duration minus the part its children
    /// cover), grouped by span name; each list ascending.
    pub fn self_times(&self) -> BTreeMap<&'static str, Vec<u64>> {
        let mut covered = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                covered[p] += s.dur_ns();
            }
        }
        let mut out: BTreeMap<&'static str, Vec<u64>> = BTreeMap::new();
        for (s, c) in self.spans.iter().zip(covered) {
            out.entry(s.name)
                .or_default()
                .push(s.dur_ns().saturating_sub(c));
        }
        for v in out.values_mut() {
            v.sort_unstable();
        }
        out
    }

    /// Write one JSON object per span: id, name, op, parent, start and
    /// end in nanoseconds since the tracer was created.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                w,
                "{{\"id\":{id},\"name\":\"{}\",\"op\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}",
                s.name, s.op, s.start_ns, s.end_ns
            )?;
        }
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::new();
        t.spans.push(Span {
            name: "op",
            op: 0,
            parent: None,
            start_ns: 0,
            end_ns: 100,
        });
        for (a, b) in [(10, 30), (40, 70)] {
            t.spans.push(Span {
                name: "child",
                op: 0,
                parent: Some(0),
                start_ns: a,
                end_ns: b,
            });
        }
        let st = t.self_times();
        assert_eq!(st["op"], vec![50]);
        assert_eq!(st["child"], vec![20, 30]);
        assert_eq!(t.durations("child"), vec![20, 30]);
    }
}
