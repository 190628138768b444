//! In-memory span and per-op metric recording for the traced run.
//!
//! Spans wrap the benchmark's own calls into each layer (crate); the
//! library code itself is not instrumented. Spans stay in memory and
//! are written out as JSON lines once the run ends. A disabled tracer
//! records nothing and only pays a branch per call.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One timed interval: a layer call, or a whole op (`parent == None`).
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub op: u64,
}

impl Span {
    fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

/// Span recorder plus the per-op series each per-layer metric is the
/// median of.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    op: u64,
    spans: Vec<Span>,
    stack: Vec<usize>,
    /// Index of the current op's first span.
    op_first: usize,
    series: BTreeMap<&'static str, Vec<f64>>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            on: false,
            epoch: Instant::now(),
            op: 0,
            spans: Vec::new(),
            stack: Vec::new(),
            op_first: 0,
            series: BTreeMap::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.on
    }

    /// Turns recording on or off for the next op.
    pub fn set_enabled(&mut self, on: bool) {
        self.on = on;
    }

    /// Starts op `op`: later spans carry its id.
    pub fn start_op(&mut self, op: u64) {
        self.op = op;
        self.op_first = self.spans.len();
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span; close it with [`Tracer::end`].
    pub fn begin(&mut self, name: &'static str) -> Option<usize> {
        if !self.on {
            return None;
        }
        let idx = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.stack.last().copied(),
            op: self.op,
        });
        self.stack.push(idx);
        Some(idx)
    }

    pub fn end(&mut self, handle: Option<usize>) {
        if let Some(idx) = handle {
            self.spans[idx].end_ns = self.now_ns();
            self.stack.pop();
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let handle = self.begin(name);
        let out = f();
        self.end(handle);
        out
    }

    /// Total milliseconds the current op spent in spans named `name`.
    pub fn op_ms(&self, name: &str) -> f64 {
        self.spans[self.op_first..]
            .iter()
            .filter(|s| s.name == name)
            .map(Span::ms)
            .sum()
    }

    /// Share of the current op's root span covered by its direct
    /// children (1.0 = every nanosecond attributed to a layer call).
    pub fn op_coverage(&self, root: &str) -> f64 {
        let spans = &self.spans[self.op_first..];
        let Some(pos) = spans
            .iter()
            .position(|s| s.name == root && s.parent.is_none())
        else {
            return 0.0;
        };
        let root_idx = self.op_first + pos;
        let children: f64 = spans
            .iter()
            .filter(|s| s.parent == Some(root_idx))
            .map(Span::ms)
            .sum();
        children / spans[pos].ms()
    }

    /// Appends one per-op value to the series of metric `name`.
    pub fn record(&mut self, name: &'static str, value: f64) {
        self.series.entry(name).or_default().push(value);
    }

    pub fn series(&self, name: &str) -> Option<&[f64]> {
        self.series.get(name).map(Vec::as_slice)
    }

    /// Writes every span as one JSON object per line.
    pub fn write_spans(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"op\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent}}}",
                s.op, s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}
