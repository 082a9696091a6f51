//! In-memory spans recorded by the benchmark around its own calls into
//! each layer's public API. Spans are kept in memory while the run
//! measures, written out as JSON lines when it ends, and summarised into
//! the per-layer metrics. A disabled tracer records nothing, so the
//! untraced run executes the same code with the probes switched off.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One completed span.
#[derive(Clone, Debug)]
pub struct SpanRec {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in the same thread's recording.
    pub parent: Option<u32>,
    /// Recording thread (0 = main); spans of one request share it.
    pub thread: u32,
}

impl SpanRec {
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// A per-thread span recorder. Worker threads get a [`Tracer::fork`]
/// sharing the origin and are merged back with [`Tracer::join`].
pub struct Tracer {
    on: bool,
    origin: Instant,
    thread: u32,
    spans: Vec<SpanRec>,
    open: Vec<u32>,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            origin: Instant::now(),
            thread: 0,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// A recorder for another thread with the same clock origin.
    pub fn fork(&self, thread: u32) -> Tracer {
        Tracer {
            on: self.on,
            origin: self.origin,
            thread,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Folds a forked recorder's spans into this one (parents are
    /// re-based onto the merged vector).
    pub fn join(&mut self, other: Tracer) {
        let base = self.spans.len() as u32;
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// Runs `f` inside a span named `name`; spans opened inside `f` on
    /// the same tracer become its children.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        if !self.on {
            return f(self);
        }
        let idx = self.spans.len() as u32;
        let start_ns = self.now_ns();
        self.spans.push(SpanRec {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            thread: self.thread,
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        let end = self.now_ns();
        self.spans[idx as usize].end_ns = end;
        out
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Durations (ns) of every span called `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.ns() as f64)
            .collect()
    }

    /// Median duration of the spans called `name`, in milliseconds.
    pub fn median_ms(&self, name: &str) -> f64 {
        crate::stats::median(&self.durations(name)) / 1e6
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                w,
                "{{\"id\":{i},\"name\":\"{}\",\"thread\":{},\"start_ns\":{},\"end_ns\":{},\"parent\":{parent}}}",
                s.name, s.thread, s.start_ns, s.end_ns
            )?;
        }
        w.flush()
    }
}
