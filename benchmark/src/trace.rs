//! Spans recorded by the benchmark's own files around calls into each
//! layer: `{name, start_ns, end_ns, parent, op_id}`, kept in memory and
//! written as JSON lines when the traced run ends.
//!
//! A child span names the root call whose time it explains.  The replay
//! cannot see inside `HttpServer::respond` or `RmiServer::handle_frame`,
//! so it runs the real call as the root span and the same request's layer
//! calls one by one as its children; a child's interval therefore lies
//! beside its root's, not inside it.  Self time is a span's duration
//! minus its children's durations.

use crate::stats;
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

pub type SpanId = u32;

#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<SpanId>,
    pub op_id: u64,
}

pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    op_id: u64,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            op_id: 0,
        }
    }

    /// Spans recorded from here on belong to operation `op_id`.
    pub fn begin_op(&mut self, op_id: u64) {
        self.op_id = op_id;
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Times `f` as one span and returns its id with `f`'s result.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        f: impl FnOnce() -> R,
    ) -> (SpanId, R) {
        let start_ns = self.now_ns();
        let out = std::hint::black_box(f());
        let end_ns = self.now_ns();
        (self.push(name, parent, start_ns, end_ns), out)
    }

    /// Opens a span to be timed later by [`Tracer::fill`], so that spans
    /// recorded in between can already name it as their parent.
    pub fn reserve(&mut self, name: &'static str, parent: Option<SpanId>) -> SpanId {
        self.push(name, parent, 0, 0)
    }

    /// Times `f` into the span `id` reserved earlier.
    pub fn fill<R>(&mut self, id: SpanId, f: impl FnOnce() -> R) -> R {
        let start_ns = self.now_ns();
        let out = std::hint::black_box(f());
        let end_ns = self.now_ns();
        let span = &mut self.spans[id as usize];
        span.start_ns = start_ns;
        span.end_ns = end_ns;
        out
    }

    /// Records a span measured elsewhere (client-side timestamps).
    pub fn record(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        start: Instant,
        end: Instant,
    ) {
        let start_ns = start.saturating_duration_since(self.epoch).as_nanos() as u64;
        let end_ns = end.saturating_duration_since(self.epoch).as_nanos() as u64;
        self.push(name, parent, start_ns, end_ns);
    }

    fn push(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        start_ns: u64,
        end_ns: u64,
    ) -> SpanId {
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent,
            op_id: self.op_id,
        });
        (self.spans.len() - 1) as SpanId
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Appends another tracer's spans (a second client thread's), keeping
    /// parent links valid.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len() as SpanId;
        let shift = other.epoch.saturating_duration_since(self.epoch).as_nanos() as u64;
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s.start_ns += shift;
            s.end_ns += shift;
            s
        }));
    }

    /// One JSON object per span, in recording order.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"op_id\":{}}}",
                s.name, s.start_ns, s.end_ns, s.op_id
            )?;
        }
        out.flush()
    }

    /// For each span, the total duration of its direct children.
    fn child_ns(&self) -> Vec<u64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p as usize] += s.end_ns - s.start_ns;
            }
        }
        child_ns
    }

    /// Folds the spans into per-name statistics.
    pub fn summarize(&self) -> Summary {
        let child_ns = self.child_ns();
        let mut by_name: BTreeMap<&'static str, Vec<(f64, f64)>> = BTreeMap::new();
        for (s, children) in self.spans.iter().zip(&child_ns) {
            let total = (s.end_ns - s.start_ns) as f64;
            let own = (total - *children as f64).max(0.0);
            by_name.entry(s.name).or_default().push((total, own));
        }
        Summary {
            rows: by_name
                .into_iter()
                .map(|(name, v)| {
                    let totals: Vec<f64> = v.iter().map(|x| x.0).collect();
                    let selfs: Vec<f64> = v.iter().map(|x| x.1).collect();
                    let row = SpanStats {
                        calls: v.len(),
                        total_p50_ns: stats::median(&totals),
                        self_p50_ns: stats::median(&selfs),
                    };
                    (name, row)
                })
                .collect(),
        }
    }

    /// The share of a root call's time that the layer calls replayed as
    /// its children do not explain: `1 − Σ children ÷ root` for each span
    /// named in `roots`, and of those the median, so that a span inflated
    /// by a context switch moves one ratio and not the result.  Summing
    /// the direct children's durations equals summing every descendant's
    /// self time.
    pub fn unattributed_share(&self, roots: &[&str]) -> f64 {
        let child_ns = self.child_ns();
        let shares: Vec<f64> = self
            .spans
            .iter()
            .zip(&child_ns)
            .filter(|(s, _)| roots.contains(&s.name) && s.end_ns > s.start_ns)
            .map(|(s, children)| 1.0 - *children as f64 / (s.end_ns - s.start_ns) as f64)
            .collect();
        if shares.is_empty() {
            0.0
        } else {
            stats::median(&shares)
        }
    }
}

pub struct SpanStats {
    pub calls: usize,
    pub total_p50_ns: f64,
    pub self_p50_ns: f64,
}

pub struct Summary {
    pub rows: BTreeMap<&'static str, SpanStats>,
}

impl Summary {
    /// The metric value for span `name`, in µs: p50 total time for a root
    /// span, p50 self time otherwise, 0 when the layer was never called.
    pub fn metric_us(&self, name: &str) -> f64 {
        match self.rows.get(name) {
            None => 0.0,
            Some(r) if crate::spec::is_root_span(name) => r.total_p50_ns / 1e3,
            Some(r) => r.self_p50_ns / 1e3,
        }
    }

    pub fn calls(&self, name: &str) -> usize {
        self.rows.get(name).map_or(0, |r| r.calls)
    }
}
