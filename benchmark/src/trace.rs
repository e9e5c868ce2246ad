//! Spans around calls into the layers, recorded from outside the program.
//!
//! Spans are held in memory and written out when the workload ends. A
//! disabled tracer runs the closure and records nothing, so the untraced
//! run pays no clock reads inside an operation.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One timed call: `{id, parent, op, name, start_ns, end_ns}`.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u32,
    /// The enclosing span, `None` for an operation or the probe root.
    pub parent: Option<u32>,
    /// The operation the span belongs to, `None` under the probe root.
    pub op: Option<u64>,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    current: Option<u32>,
    op: Option<u64>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            current: None,
            op: None,
        }
    }

    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Runs `f` as a child span of the current one.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let id = self.spans.len() as u32;
        let parent = self.current.replace(id);
        self.spans.push(Span {
            id,
            parent,
            op: self.op,
            name,
            start_ns: self.epoch.elapsed().as_nanos() as u64,
            end_ns: 0,
        });
        let out = f(self);
        self.spans[id as usize].end_ns = self.epoch.elapsed().as_nanos() as u64;
        self.current = parent;
        out
    }

    /// Runs `f` as the root span of operation `op`.
    pub fn operation<T>(&mut self, op: u64, f: impl FnOnce(&mut Tracer) -> T) -> T {
        self.op = Some(op);
        let out = self.span("op", f);
        self.op = None;
        out
    }

    /// Runs `f` in a span and returns its result with the span's
    /// duration in milliseconds (the tracer must be enabled).
    pub fn timed<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> (T, f64) {
        assert!(self.enabled, "probes run only in the traced run");
        let id = self.spans.len();
        let out = self.span(name, f);
        (out, self.spans[id].ms())
    }

    /// Direct children of span `id`.
    pub fn children(&self, id: u32) -> impl Iterator<Item = &Span> {
        self.spans.iter().filter(move |s| s.parent == Some(id))
    }

    /// Writes one JSON object per span.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            let opt = |v: Option<u64>| v.map_or("null".to_owned(), |v| v.to_string());
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"op\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.id,
                opt(s.parent.map(u64::from)),
                opt(s.op),
                s.name,
                s.start_ns,
                s.end_ns
            )?;
        }
        out.flush()
    }
}
