//! In-memory span recorder and per-layer sample ledger.
//!
//! Spans are recorded around calls the benchmark makes into each layer's
//! public API (nothing inside the program is instrumented). Each span
//! carries its name, host start/end offsets from the tracer's origin, the
//! enclosing span and the op it belongs to; the whole trace is written as
//! JSON lines when the run ends.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::{Duration, Instant};

#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
    op: u32,
}

/// Records nested host-time spans while enabled; when disabled, `span`
/// only times the call.
#[derive(Debug)]
pub struct Tracer {
    enabled: Cell<bool>,
    origin: Instant,
    op: Cell<u32>,
    spans: RefCell<Vec<Span>>,
    stack: RefCell<Vec<usize>>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            enabled: Cell::new(false),
            origin: Instant::now(),
            op: Cell::new(0),
            spans: RefCell::new(Vec::new()),
            stack: RefCell::new(Vec::new()),
        }
    }

    /// Switches recording on or off for the following ops.
    pub fn set_enabled(&self, on: bool) {
        self.enabled.set(on);
    }

    /// Tags the following spans with op `id`.
    pub fn set_op(&self, id: u32) {
        self.op.set(id);
    }

    /// Runs `f`, returning its result and host duration; records a span
    /// named `name` under the innermost open span when enabled.
    pub fn span<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> (T, Duration) {
        if !self.enabled.get() {
            let t = Instant::now();
            let out = f();
            return (out, t.elapsed());
        }
        let index = {
            let mut spans = self.spans.borrow_mut();
            let parent = self.stack.borrow().last().copied();
            spans.push(Span {
                name,
                start_ns: 0,
                end_ns: 0,
                parent,
                op: self.op.get(),
            });
            spans.len() - 1
        };
        self.stack.borrow_mut().push(index);
        let t = Instant::now();
        let out = f();
        let elapsed = t.elapsed();
        self.stack.borrow_mut().pop();
        let start_ns = t.duration_since(self.origin).as_nanos() as u64;
        let mut spans = self.spans.borrow_mut();
        spans[index].start_ns = start_ns;
        spans[index].end_ns = start_ns + elapsed.as_nanos() as u64;
        (out, elapsed)
    }

    pub fn span_count(&self) -> usize {
        self.spans.borrow().len()
    }

    /// Writes the run's stamp, then every span, as one JSON object per
    /// line.
    pub fn write_jsonl(&self, path: &Path, stamp: &str) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "{{\"stamp\":{stamp}}}")?;
        for (id, s) in self.spans.borrow().iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"parent\":{parent},\"op\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.op, s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// Per-layer samples gathered over the traced ops; each metric reports
/// the median of its samples.
#[derive(Debug, Default)]
pub struct Ledger {
    samples: BTreeMap<&'static str, Vec<f64>>,
}

impl Ledger {
    pub fn record(&mut self, name: &'static str, value: f64) {
        self.samples.entry(name).or_default().push(value);
    }

    /// Records a host duration per unit of work, in nanoseconds.
    pub fn per_unit_ns(&mut self, name: &'static str, d: Duration, units: u64) {
        if units > 0 {
            self.record(name, d.as_nanos() as f64 / units as f64);
        }
    }

    pub fn median(&self, name: &str) -> Option<f64> {
        self.samples
            .get(name)
            .and_then(|xs| crate::stats::median(xs))
    }
}
