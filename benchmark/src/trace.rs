//! Spans of the traced pass: recorded only here in the benchmark, around
//! the calls into each layer, kept in memory, written as JSONL when the
//! workload ends. The untraced pass never touches this module.
//!
//! Callbacks that fire 10⁴–10⁵ times a run (`core.step`, `sim.adversary`)
//! are not given a span each — that would cost more than the calls. Their
//! wrappers sum busy time, and the sum enters the trace as one
//! *aggregate* child span per run, so self time = span − children still
//! holds.

use std::fs;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::time::Instant;

pub type SpanId = usize;

struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<SpanId>,
    run_id: u64,
    /// `Some(calls)` marks an aggregate: `end − start` is busy time summed
    /// over that many calls inside the parent, not one interval.
    calls: Option<u64>,
}

pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span and returns the span with `f`'s result.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        run_id: u64,
        f: impl FnOnce(&mut Tracer, SpanId) -> T,
    ) -> (SpanId, T) {
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            run_id,
            calls: None,
        });
        let out = f(self, id);
        self.spans[id].end_ns = self.now_ns();
        (id, out)
    }

    /// Records `busy_ns` summed over `calls` calls as one child of `parent`.
    pub fn aggregate(&mut self, name: &'static str, parent: SpanId, busy_ns: u64, calls: u64) {
        let (start_ns, run_id) = (self.spans[parent].start_ns, self.spans[parent].run_id);
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns + busy_ns,
            parent: Some(parent),
            run_id,
            calls: Some(calls),
        });
    }

    pub fn duration_ns(&self, id: SpanId) -> u64 {
        self.spans[id].end_ns - self.spans[id].start_ns
    }

    /// A span's duration minus what its direct children cover.
    pub fn self_ns(&self, id: SpanId) -> u64 {
        let children: u64 = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(id))
            .map(|s| s.end_ns - s.start_ns)
            .sum();
        self.duration_ns(id).saturating_sub(children)
    }

    /// Writes one JSON object per span to `path`, creating its directory.
    pub fn write_jsonl(&self, path: &Path) -> io::Result<()> {
        if let Some(dir) = path.parent() {
            fs::create_dir_all(dir)?;
        }
        let mut w = BufWriter::new(fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            write!(
                w,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":",
                s.name, s.start_ns, s.end_ns
            )?;
            match s.parent {
                Some(p) => write!(w, "{p}")?,
                None => write!(w, "null")?,
            }
            write!(w, ",\"run_id\":{}", s.run_id)?;
            if let Some(calls) = s.calls {
                write!(w, ",\"aggregate_of_calls\":{calls}")?;
            }
            writeln!(w, "}}")?;
        }
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_span_minus_direct_children() {
        let mut t = Tracer::new();
        let (root, inner) = t.span("run", None, 7, |t, root| {
            let (inner, ()) = t.span("layer", Some(root), 7, |t, layer| {
                t.aggregate("core.step", layer, 40, 3);
            });
            inner
        });
        // Pin the clock readings so the arithmetic is hand-checkable.
        t.spans[root].start_ns = 0;
        t.spans[root].end_ns = 1_000;
        t.spans[inner].start_ns = 100;
        t.spans[inner].end_ns = 700;
        assert_eq!(t.duration_ns(root), 1_000);
        assert_eq!(t.self_ns(root), 400);
        assert_eq!(t.self_ns(inner), 560);
        assert_eq!(t.spans[2].run_id, 7);
        assert_eq!(t.spans[2].calls, Some(3));
    }
}
