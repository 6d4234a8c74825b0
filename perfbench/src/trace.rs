//! Benchmark-side spans.
//!
//! Every call the benchmark makes into a layer is timed through a
//! [`Tracer`]. Timing always happens (the end-to-end metrics need it);
//! with tracing on, each timed call is also kept as a [`Span`] record
//! in memory and written once, at the end of the run, as JSON lines.
//! Spans are recorded from outside the program: the library code is
//! not instrumented.

use std::io::Write;
use std::time::Instant;

/// One finished span. `parent == 0` marks a root span.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

/// A span that has been opened but not closed yet.
pub struct Open {
    pub id: u64,
    parent: u64,
    name: &'static str,
    start: Instant,
}

pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    next_id: u64,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            epoch: Instant::now(),
            next_id: 1,
            spans: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Turn recording on or off; timing continues either way.
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    pub fn open(&mut self, name: &'static str, parent: u64) -> Open {
        let id = self.next_id;
        self.next_id += 1;
        Open {
            id,
            parent,
            name,
            start: Instant::now(),
        }
    }

    /// Close `open` and return its duration in seconds.
    pub fn close(&mut self, open: Open) -> f64 {
        let end = Instant::now();
        self.record(open.id, open.parent, open.name, open.start, end);
        (end - open.start).as_secs_f64()
    }

    /// Time `f` as one span under `parent`.
    pub fn time<R>(&mut self, name: &'static str, parent: u64, f: impl FnOnce() -> R) -> (R, f64) {
        let open = self.open(name, parent);
        let out = f();
        (out, self.close(open))
    }

    /// Record a span timed elsewhere (per-request spans on the load
    /// generator, whose start and end are taken around a socket call).
    pub fn record_leaf(&mut self, name: &'static str, parent: u64, start: Instant, end: Instant) {
        if self.enabled {
            let id = self.next_id;
            self.next_id += 1;
            self.record(id, parent, name, start, end);
        }
    }

    fn record(&mut self, id: u64, parent: u64, name: &'static str, start: Instant, end: Instant) {
        if self.enabled {
            let ns = |t: Instant| u64::try_from((t - self.epoch).as_nanos()).unwrap_or(u64::MAX);
            self.spans.push(Span {
                id,
                parent,
                name,
                start_ns: ns(start),
                end_ns: ns(end),
            });
        }
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations in seconds of every recorded span called `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::secs)
            .collect()
    }

    /// Write every span as one JSON object per line, all tagged with
    /// the run id.
    pub fn write_jsonl(&self, path: &std::path::Path, run_id: &str) -> std::io::Result<()> {
        let file = std::fs::File::create(path)?;
        let mut out = std::io::BufWriter::new(file);
        for s in &self.spans {
            writeln!(
                out,
                "{{\"run\":\"{run_id}\",\"id\":{},\"parent\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.id, s.parent, s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}
