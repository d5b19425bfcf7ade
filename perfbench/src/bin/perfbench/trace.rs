//! In-memory span recorder for the traced runs.
//!
//! A span is `(name, start, end, parent, step)`: times are nanoseconds
//! since the tracer was created, `parent` indexes the enclosing span, and
//! `step` identifies the training step, inference batch or request the
//! span belongs to. Spans are kept in a vector that is reserved up front
//! and written to disk only when the run ends.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

use crate::common::{err, median, Res};

/// Marks a span without a parent.
const ROOT: u32 = u32::MAX;

/// One recorded span.
#[derive(Clone, Copy)]
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: u32,
    step: u64,
}

impl Span {
    /// Duration in milliseconds.
    fn ms(&self) -> f64 {
        self.end_ns.saturating_sub(self.start_ns) as f64 / 1e6
    }
}

/// Records spans around calls into the program's layers.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    step: u64,
}

impl Tracer {
    /// A tracer whose clock starts now, with room for `capacity` spans.
    pub fn new(origin: Instant, capacity: usize) -> Tracer {
        Tracer {
            origin,
            spans: Vec::with_capacity(capacity),
            open: Vec::with_capacity(8),
            step: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Sets the step id stamped on spans opened from now on.
    pub fn set_step(&mut self, step: u64) {
        self.step = step;
    }

    /// Opens a span nested in the innermost open one.
    pub fn begin(&mut self, name: &'static str) {
        let parent = self.open.last().copied().unwrap_or(ROOT);
        let start_ns = self.now_ns();
        self.open.push(self.spans.len() as u32);
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            step: self.step,
        });
    }

    /// Closes the innermost open span.
    pub fn end(&mut self) {
        let end_ns = self.now_ns();
        if let Some(idx) = self.open.pop() {
            self.spans[idx as usize].end_ns = end_ns;
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.begin(name);
        let out = f();
        self.end();
        out
    }

    /// Records a span whose bounds were measured elsewhere (the serve load
    /// generator times its own calls on two threads) and returns its id.
    pub fn record(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<u32>,
        step: u64,
    ) -> u32 {
        let ns = |t: Instant| t.saturating_duration_since(self.origin).as_nanos() as u64;
        self.spans.push(Span {
            name,
            start_ns: ns(start),
            end_ns: ns(end),
            parent: parent.unwrap_or(ROOT),
            step,
        });
        self.spans.len() as u32 - 1
    }

    /// Median duration in milliseconds of the spans named `name` (0 when
    /// the layer was never called).
    pub fn median_ms(&self, name: &str) -> f64 {
        let ms: Vec<f64> = self
            .spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::ms)
            .collect();
        median(&ms)
    }

    /// Share of each root span's wall time covered by its direct
    /// children, one value per root span.
    pub fn coverage(&self) -> Vec<f64> {
        let mut covered: BTreeMap<u32, u64> = BTreeMap::new();
        for s in &self.spans {
            if s.parent != ROOT {
                *covered.entry(s.parent).or_default() += s.end_ns - s.start_ns;
            }
        }
        self.spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.parent == ROOT && s.end_ns > s.start_ns)
            .map(|(i, s)| {
                let c = covered.get(&(i as u32)).copied().unwrap_or(0);
                c as f64 / (s.end_ns - s.start_ns) as f64
            })
            .collect()
    }

    /// Writes every span as one JSON object per line.
    pub fn write(&self, path: &std::path::Path) -> Res<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir).map_err(err("creating the trace directory"))?;
        }
        let mut out = String::with_capacity(self.spans.len() * 96);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == ROOT {
                "null".to_string()
            } else {
                s.parent.to_string()
            };
            let _ = writeln!(
                out,
                "{{\"id\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \
                 \"parent\": {parent}, \"step\": {}}}",
                s.name, s.start_ns, s.end_ns, s.step
            );
        }
        std::fs::write(path, out).map_err(err("writing the trace"))
    }
}
