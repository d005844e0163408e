//! Benchmark-side spans: name, start, end and parent of each call the
//! benchmark makes into the program, kept in memory and written out as
//! Chrome trace-event JSON when the run ends.

use std::fmt::Write as _;
use std::io;
use std::path::Path;
use std::time::{Duration, Instant};

/// One recorded span; times are nanoseconds since the tracer's origin.
struct Span {
    name: &'static str,
    start: u64,
    end: u64,
    parent: Option<usize>,
    args: Vec<(&'static str, f64)>,
}

impl Span {
    fn seconds(&self) -> f64 {
        (self.end - self.start) as f64 / 1e9
    }
}

fn nanos(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// Times every span it is handed; records them only while `recording`.
pub struct Tracer {
    origin: Instant,
    recording: bool,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A tracer whose origin is now. With `recording` off it only
    /// times spans, which is how the end-to-end runs use it.
    pub fn new(recording: bool) -> Tracer {
        Tracer {
            origin: Instant::now(),
            recording,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Seconds since the origin.
    pub fn elapsed(&self) -> f64 {
        self.origin.elapsed().as_secs_f64()
    }

    /// Run `f` inside a span named `name`; returns its result and the
    /// span's duration in seconds.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> (R, f64) {
        let start = Instant::now();
        let idx = self.recording.then(|| {
            self.spans.push(Span {
                name,
                start: nanos(start.duration_since(self.origin)),
                end: 0,
                parent: self.open.last().copied(),
                args: Vec::new(),
            });
            self.open.push(self.spans.len() - 1);
            self.spans.len() - 1
        });
        let out = f(self);
        let end = Instant::now();
        if let Some(idx) = idx {
            self.open.pop();
            self.spans[idx].end = nanos(end.duration_since(self.origin));
        }
        (out, end.duration_since(start).as_secs_f64())
    }

    /// Run `f` with recording off, so its inner spans are only timed.
    pub fn quiet<R>(&mut self, f: impl FnOnce(&mut Tracer) -> R) -> R {
        let was = std::mem::replace(&mut self.recording, false);
        let out = f(self);
        self.recording = was;
        out
    }

    /// Attach a number to the innermost open span.
    pub fn arg(&mut self, key: &'static str, value: f64) {
        if let Some(&idx) = self.open.last() {
            self.spans[idx].args.push((key, value));
        }
    }

    /// Summed duration of the recorded top-level spans.
    pub fn top_level_seconds(&self) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.parent.is_none())
            .map(Span::seconds)
            .sum()
    }

    /// Write the recorded spans as Chrome trace-event JSON ("X" events,
    /// microseconds), each carrying its parent's name and its args.
    pub fn write_chrome(&self, path: &Path) -> io::Result<()> {
        let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            let parent = s.parent.map_or("", |p| self.spans[p].name);
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"parent\":\"{}\"",
                s.name,
                s.start as f64 / 1e3,
                (s.end - s.start) as f64 / 1e3,
                parent
            );
            for (k, v) in &s.args {
                let _ = write!(out, ",\"{k}\":{}", crate::json_number(*v));
            }
            out.push_str("}}");
        }
        out.push_str("\n]}\n");
        std::fs::write(path, out)
    }
}
