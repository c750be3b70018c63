//! The benchmark's own instrumentation: a per-pass [`Probe`] stamped at
//! each cell start, and, in traced passes, spans around every call the
//! benchmark makes into a layer.
//!
//! Spans are kept in memory and written out as JSON lines when the
//! benchmark ends. A span has a name, start and end (µs since the run
//! began), the span that caused it, and the pass (`trace`) it belongs to.

use simtrace::ProfSnapshot;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub trace: u64,
    pub name: &'static str,
    pub label: String,
    pub start_us: f64,
    pub end_us: f64,
}

/// Span store shared by every pass of one benchmark run.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new() -> Arc<Tracer> {
        Arc::new(Tracer {
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        })
    }

    pub fn now_us(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64() * 1e6
    }

    pub fn new_id(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Record a finished span whose id was taken with [`Tracer::new_id`].
    pub fn record(&self, span: Span) {
        self.spans.lock().expect("span store poisoned").push(span);
    }

    /// Time `f` as a span named `name` under `parent`.
    pub fn span<T>(
        &self,
        trace: u64,
        parent: u64,
        name: &'static str,
        label: impl Into<String>,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.new_id();
        let start_us = self.now_us();
        let out = f();
        self.record(Span {
            id,
            parent,
            trace,
            name,
            label: label.into(),
            start_us,
            end_us: self.now_us(),
        });
        out
    }

    /// Every span recorded so far, in start order.
    pub fn spans(&self) -> Vec<Span> {
        let mut v = self.spans.lock().expect("span store poisoned").clone();
        v.sort_by(|a, b| a.start_us.total_cmp(&b.start_us).then(a.id.cmp(&b.id)));
        v
    }

    /// Write every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in self.spans() {
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"trace\":{},\"name\":\"{}\",\"label\":\"{}\",\"start_us\":{:.3},\"end_us\":{:.3}}}",
                s.id,
                s.parent,
                s.trace,
                s.name,
                s.label.replace('\\', "\\\\").replace('"', "\\\""),
                s.start_us,
                s.end_us
            )?;
        }
        out.flush()
    }
}

/// The span profile of one computed cell, with the controller it ran.
#[derive(Debug, Clone)]
pub struct CellProfile {
    pub cc: &'static str,
    pub prof: ProfSnapshot,
}

/// Per-pass instrumentation handed into every cell closure.
///
/// Untraced passes only stamp the first cell start (one atomic `min` per
/// cell), which gives the set-up time. Traced passes also record a span
/// per cell and harvest the cell's span profile, keyed by controller, so
/// per-controller call counts survive the merge.
#[derive(Debug)]
pub struct Probe {
    t0: Instant,
    first_start_ns: AtomicU64,
    traced: Option<(Arc<Tracer>, u64, u64)>,
    profiles: Mutex<Vec<CellProfile>>,
}

impl Probe {
    /// A probe for one pass starting now. `traced` carries the tracer,
    /// the pass's trace id and the parent span of its cells.
    pub fn new(traced: Option<(Arc<Tracer>, u64, u64)>) -> Arc<Probe> {
        Arc::new(Probe {
            t0: Instant::now(),
            first_start_ns: AtomicU64::new(u64::MAX),
            traced,
            profiles: Mutex::new(Vec::new()),
        })
    }

    /// Run one cell's function under the probe.
    pub fn cell<T>(
        &self,
        cc: &'static str,
        label: impl FnOnce() -> String,
        f: impl FnOnce() -> T,
    ) -> T {
        let ns = self.t0.elapsed().as_nanos() as u64;
        self.first_start_ns.fetch_min(ns, Ordering::Relaxed);
        let Some((tracer, trace, parent)) = &self.traced else {
            return f();
        };
        let out = tracer.span(*trace, *parent, "cell", label(), f);
        // Harvest the profile here rather than from the manifest so it can
        // be split by controller.
        let prof = simtrace::prof::take();
        self.profiles
            .lock()
            .expect("profile store poisoned")
            .push(CellProfile { cc, prof });
        out
    }

    /// Seconds from the probe's creation to the first cell start, or
    /// `None` when no cell ran (a fully cached pass).
    pub fn setup_s(&self) -> Option<f64> {
        let ns = self.first_start_ns.load(Ordering::Relaxed);
        (ns != u64::MAX).then(|| ns as f64 / 1e9)
    }

    /// The cell profiles harvested so far.
    pub fn take_profiles(&self) -> Vec<CellProfile> {
        std::mem::take(&mut *self.profiles.lock().expect("profile store poisoned"))
    }
}
