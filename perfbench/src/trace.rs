//! In-memory span recorder for the traced run. Spans are taken in the
//! benchmark's own code around calls into the library's public functions,
//! kept in memory, and written out once the run ends.

use std::fmt::Write as _;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

/// One timed interval, in seconds since the recorder started.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: String,
    pub start_s: f64,
    pub end_s: f64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
}

/// Records nested spans of one workload run.
#[derive(Debug)]
pub struct Tracer {
    workload: &'static str,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(workload: &'static str) -> Self {
        Tracer {
            workload,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Runs `body` inside a span called `name` and returns its result with
    /// the span's duration in seconds. Spans opened by `body` nest under it.
    pub fn span<T>(&mut self, name: &str, body: impl FnOnce(&mut Self) -> T) -> (T, f64) {
        let index = self.spans.len();
        let start_s = self.origin.elapsed().as_secs_f64();
        self.spans.push(Span {
            name: name.to_string(),
            start_s,
            end_s: start_s,
            parent: self.open.last().copied(),
        });
        self.open.push(index);
        let out = body(self);
        self.open.pop();
        let end_s = self.origin.elapsed().as_secs_f64();
        self.spans[index].end_s = end_s;
        (out, end_s - start_s)
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Duration of `spans[index]` minus the time its direct children cover.
    pub fn self_time(&self, index: usize) -> f64 {
        let span = &self.spans[index];
        let children: f64 = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(index))
            .map(|s| s.end_s - s.start_s)
            .sum();
        (span.end_s - span.start_s) - children
    }

    /// The spans as JSON lines: name, start, end, self time, parent index
    /// (-1 for none) and workload.
    pub fn to_json_lines(&self) -> String {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or(-1, |p| p as i64);
            let _ = writeln!(
                out,
                "{{\"id\": {i}, \"name\": \"{}\", \"start_s\": {}, \"end_s\": {}, \"self_s\": {}, \"parent\": {parent}, \"workload\": \"{}\"}}",
                s.name,
                s.start_s,
                s.end_s,
                self.self_time(i),
                self.workload
            );
        }
        out
    }

    /// Writes [`Tracer::to_json_lines`] to `path`, creating its directory.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut file = std::io::BufWriter::new(std::fs::File::create(path)?);
        file.write_all(self.to_json_lines().as_bytes())?;
        file.flush()
    }
}
