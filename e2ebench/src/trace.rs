//! In-memory span recorder for the traced run.
//!
//! Spans are recorded from the benchmark's own files, around its calls into
//! each layer's public entry points. Each span holds a name, a start, an
//! end, its parent span and a request id; spans stay in memory and are
//! written out as JSON lines when the run ends. With tracing off every
//! scope is a direct call: no clock read, no lock.

use std::io::Write;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Identifier of a recorded span (`ROOT` for top-level spans).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(u32);

/// The parent of top-level spans: the run's sequential phases.
pub const ROOT: SpanId = SpanId(0);

/// The parent of spans of background work that overlaps the phases (the
/// swapper thread), kept out of the top-level sum.
pub const BACKGROUND: SpanId = SpanId(u32::MAX);

/// Request id of spans that belong to no request.
pub const NO_REQ: u64 = u64::MAX;

#[derive(Debug, Clone)]
struct Span {
    id: u32,
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: u32,
    req: u64,
}

/// The span store. `Tracer::off()` records nothing.
pub struct Tracer {
    on: bool,
    origin: Instant,
    next: AtomicU32,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    /// A recording tracer.
    pub fn on() -> Self {
        Tracer {
            on: true,
            origin: Instant::now(),
            next: AtomicU32::new(1),
            spans: Mutex::new(Vec::with_capacity(1 << 16)),
        }
    }

    /// A tracer that records nothing.
    pub fn off() -> Self {
        Tracer {
            on: false,
            origin: Instant::now(),
            next: AtomicU32::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Whether spans are recorded.
    pub fn enabled(&self) -> bool {
        self.on
    }

    /// Runs `f` inside a span named `name`; `f` receives the span's id so
    /// nested calls can name it as their parent.
    pub fn scope<T>(
        &self,
        name: &'static str,
        parent: SpanId,
        req: u64,
        f: impl FnOnce(SpanId) -> T,
    ) -> T {
        if !self.on {
            return f(ROOT);
        }
        let id = self.next.fetch_add(1, Ordering::Relaxed);
        let start = self.origin.elapsed();
        let out = f(SpanId(id));
        let end = self.origin.elapsed();
        self.spans.lock().expect("span store lock").push(Span {
            id,
            name,
            start_ns: start.as_nanos() as u64,
            end_ns: end.as_nanos() as u64,
            parent: parent.0,
            req,
        });
        out
    }

    /// Durations in microseconds of every span named `name`.
    pub fn durations_us(&self, name: &str) -> Vec<f64> {
        self.spans
            .lock()
            .expect("span store lock")
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e3)
            .collect()
    }

    /// Summed duration in microseconds of the spans named `name`.
    pub fn total_us(&self, name: &str) -> f64 {
        self.durations_us(name).iter().sum()
    }

    /// Summed duration in seconds of the top-level spans.
    pub fn top_level_s(&self) -> f64 {
        self.spans
            .lock()
            .expect("span store lock")
            .iter()
            .filter(|s| s.parent == ROOT.0)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e9)
            .sum()
    }

    /// Summed duration in seconds of the direct children of the spans
    /// named `parent_name`.
    pub fn children_s(&self, parent_name: &str) -> f64 {
        let spans = self.spans.lock().expect("span store lock");
        let parents: std::collections::BTreeSet<u32> = spans
            .iter()
            .filter(|s| s.name == parent_name)
            .map(|s| s.id)
            .collect();
        spans
            .iter()
            .filter(|s| parents.contains(&s.parent))
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e9)
            .sum()
    }

    /// Number of recorded spans.
    pub fn len(&self) -> usize {
        self.spans.lock().expect("span store lock").len()
    }

    /// Writes every span as one JSON line, sorted by start time.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut spans = self.spans.lock().expect("span store lock").clone();
        spans.sort_by_key(|s| (s.start_ns, s.id));
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &spans {
            let req = if s.req == NO_REQ {
                "null".to_string()
            } else {
                s.req.to_string()
            };
            writeln!(
                out,
                "{{\"id\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"req\":{}}}",
                s.id, s.name, s.start_ns, s.end_ns, s.parent, req
            )?;
        }
        out.flush()
    }
}
