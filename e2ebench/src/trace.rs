//! In-memory spans and counts recorded around the benchmark's calls into
//! each layer, written out once when the run ends.

use std::io::Write;
use std::path::Path;
use std::time::{Duration, Instant};

/// Identifier of a recorded span (0 = no span, the root).
pub type SpanId = u64;

/// One timed call into a layer.
#[derive(Debug, Clone)]
pub struct Span {
    /// This span's id; spans of one request share `root`.
    pub id: SpanId,
    /// The span that caused it (0 for a root).
    pub parent: SpanId,
    /// The request (root span) this span belongs to.
    pub root: SpanId,
    /// Layer-qualified name, e.g. `graph.splice`.
    pub name: &'static str,
    /// Start, in nanoseconds since the trace origin.
    pub start_ns: u64,
    /// End, in nanoseconds since the trace origin.
    pub end_ns: u64,
}

impl Span {
    /// Wall duration.
    pub fn duration(&self) -> Duration {
        Duration::from_nanos(self.end_ns - self.start_ns)
    }
}

/// A count recorded at a span's boundary.
#[derive(Debug, Clone)]
pub struct Count {
    /// The span it was measured in.
    pub span: SpanId,
    /// Counter name, e.g. `matching.instances`.
    pub name: &'static str,
    /// Value.
    pub value: f64,
}

/// A per-thread span recorder. Disabled, it records nothing and costs one
/// branch per call; [`Trace::merge`] joins the recorders of a run's
/// threads.
#[derive(Debug)]
pub struct Trace {
    on: bool,
    origin: Instant,
    next_id: SpanId,
    id_stride: SpanId,
    spans: Vec<Span>,
    counts: Vec<Count>,
}

impl Trace {
    /// A recorder; `lane` keeps the ids of concurrent recorders disjoint.
    pub fn new(on: bool, origin: Instant, lane: u64) -> Trace {
        Trace {
            on,
            origin,
            next_id: lane + 1,
            id_stride: 16,
            spans: Vec::new(),
            counts: Vec::new(),
        }
    }

    /// Whether spans are recorded.
    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Runs `f` inside a span named `name` under `parent`, returning its
    /// result and the span id (0 when disabled).
    pub fn span<T>(
        &mut self,
        name: &'static str,
        parent: Option<&Span>,
        f: impl FnOnce() -> T,
    ) -> (T, SpanId) {
        if !self.on {
            return (f(), 0);
        }
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        let id = self.record(name, parent, start, end);
        (out, id)
    }

    /// Records an already-timed interval as a span.
    pub fn record(
        &mut self,
        name: &'static str,
        parent: Option<&Span>,
        start: Instant,
        end: Instant,
    ) -> SpanId {
        if !self.on {
            return 0;
        }
        let id = self.next_id;
        self.next_id += self.id_stride;
        let (parent_id, root) = parent.map_or((0, id), |p| (p.id, p.root));
        self.spans.push(Span {
            id,
            parent: parent_id,
            root,
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
        });
        id
    }

    /// Opens a root span now; close it with [`Trace::close`].
    pub fn open(&mut self, name: &'static str) -> Option<Span> {
        if !self.on {
            return None;
        }
        let id = self.next_id;
        self.next_id += self.id_stride;
        let now = self.ns(Instant::now());
        Some(Span {
            id,
            parent: 0,
            root: id,
            name,
            start_ns: now,
            end_ns: now,
        })
    }

    /// Closes a span from [`Trace::open`].
    pub fn close(&mut self, span: Option<Span>) {
        if let Some(mut s) = span {
            s.end_ns = self.ns(Instant::now());
            self.spans.push(s);
        }
    }

    /// Records a count against a span.
    pub fn count(&mut self, span: SpanId, name: &'static str, value: f64) {
        if self.on {
            self.counts.push(Count { span, name, value });
        }
    }

    /// Absorbs another recorder's spans and counts.
    pub fn merge(&mut self, other: Trace) {
        self.spans.extend(other.spans);
        self.counts.extend(other.counts);
    }

    /// Durations, in milliseconds, of every span named `name`.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration().as_secs_f64() * 1e3)
            .collect()
    }

    /// Values of every count named `name`.
    pub fn counts(&self, name: &str) -> Vec<f64> {
        self.counts
            .iter()
            .filter(|c| c.name == name)
            .map(|c| c.value)
            .collect()
    }

    /// Spans recorded.
    pub fn n_spans(&self) -> usize {
        self.spans.len()
    }

    /// Writes every span and count as JSON lines.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            writeln!(
                w,
                "{{\"span\":{},\"parent\":{},\"root\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.id, s.parent, s.root, s.name, s.start_ns, s.end_ns
            )?;
        }
        for c in &self.counts {
            writeln!(
                w,
                "{{\"count\":\"{}\",\"span\":{},\"value\":{}}}",
                c.name, c.span, c.value
            )?;
        }
        w.flush()
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }
}
