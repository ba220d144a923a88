//! Vendored stand-in for `criterion` (offline build).
//!
//! Implements the API subset the workspace's benches use — benchmark groups,
//! [`BenchmarkId`], `bench_function` / `bench_with_input`, `Bencher::iter` —
//! with a simple mean-of-N timing loop instead of criterion's statistical
//! machinery. Output is one line per benchmark:
//!
//! ```text
//! group/id  time: 12.345 ms  (n = 10)
//! ```
//!
//! Swapping the real crates-io `criterion` back in is a manifest-only change.

#![forbid(unsafe_code)]

use std::fmt;
use std::hint;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// One completed benchmark measurement, as recorded by the driver.
#[derive(Debug, Clone, PartialEq)]
pub struct Record {
    /// The full benchmark label (`group/id`).
    pub label: String,
    /// Mean wall-clock seconds per iteration over the timed pass.
    pub mean_seconds: f64,
    /// Number of timed iterations averaged over.
    pub samples: u64,
}

/// Measurements accumulated by every [`Criterion`] run in this process, in
/// completion order, until drained by [`take_records`]. Lets bench harnesses
/// persist machine-readable results next to the human-readable lines.
static RECORDS: Mutex<Vec<Record>> = Mutex::new(Vec::new());

/// Drains and returns all measurements recorded since the last call (or
/// process start), in completion order.
pub fn take_records() -> Vec<Record> {
    std::mem::take(&mut RECORDS.lock().expect("criterion records"))
}

/// Re-export of the standard black box used to defeat dead-code elimination.
pub fn black_box<T>(x: T) -> T {
    hint::black_box(x)
}

/// A benchmark identifier: function name plus an optional parameter.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BenchmarkId {
    name: String,
}

impl BenchmarkId {
    /// An id with both a function name and a parameter, rendered `name/param`.
    pub fn new(function_name: impl Into<String>, parameter: impl fmt::Display) -> Self {
        BenchmarkId {
            name: format!("{}/{}", function_name.into(), parameter),
        }
    }

    /// An id carrying only a parameter value.
    pub fn from_parameter(parameter: impl fmt::Display) -> Self {
        BenchmarkId {
            name: parameter.to_string(),
        }
    }
}

impl fmt::Display for BenchmarkId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.name)
    }
}

/// Per-iteration timing state handed to bench closures.
#[derive(Debug, Default)]
pub struct Bencher {
    iters: u64,
    elapsed: Duration,
}

impl Bencher {
    /// Times `iters` calls of `routine`, black-boxing each result.
    pub fn iter<O, R: FnMut() -> O>(&mut self, mut routine: R) {
        let start = Instant::now();
        for _ in 0..self.iters {
            hint::black_box(routine());
        }
        self.elapsed = start.elapsed();
    }
}

/// A named collection of related benchmarks sharing a sample size.
#[derive(Debug)]
pub struct BenchmarkGroup<'a> {
    criterion: &'a mut Criterion,
    name: String,
    sample_size: u64,
}

impl BenchmarkGroup<'_> {
    /// Sets the number of timed samples (default 10).
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = (n as u64).max(1);
        self
    }

    /// Benchmarks `routine` under `id`.
    pub fn bench_function<F>(&mut self, id: impl fmt::Display, mut routine: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let label = format!("{}/{}", self.name, id);
        self.criterion
            .run_one(&label, self.sample_size, &mut routine);
        self
    }

    /// Benchmarks `routine` under `id`, passing `input` through.
    pub fn bench_with_input<I: ?Sized, F>(
        &mut self,
        id: impl fmt::Display,
        input: &I,
        mut routine: F,
    ) -> &mut Self
    where
        F: FnMut(&mut Bencher, &I),
    {
        let label = format!("{}/{}", self.name, id);
        self.criterion
            .run_one(&label, self.sample_size, &mut |b| routine(b, input));
        self
    }

    /// Ends the group (reporting already happened per benchmark).
    pub fn finish(self) {}
}

/// The benchmark driver.
#[derive(Debug, Default)]
pub struct Criterion {
    _private: (),
}

impl Criterion {
    /// Opens a named benchmark group.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            criterion: self,
            name: name.into(),
            sample_size: 10,
        }
    }

    /// Benchmarks a standalone function.
    pub fn bench_function<F>(&mut self, name: impl fmt::Display, mut routine: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let label = name.to_string();
        self.run_one(&label, 10, &mut routine);
        self
    }

    fn run_one(&mut self, label: &str, samples: u64, routine: &mut dyn FnMut(&mut Bencher)) {
        // One warm-up pass, then a single timed pass of `samples` iterations.
        let mut warmup = Bencher {
            iters: 1,
            elapsed: Duration::ZERO,
        };
        routine(&mut warmup);
        let mut bench = Bencher {
            iters: samples,
            elapsed: Duration::ZERO,
        };
        routine(&mut bench);
        let mean = bench.elapsed.as_secs_f64() / samples as f64;
        println!("{label}  time: {}  (n = {samples})", format_duration(mean));
        RECORDS.lock().expect("criterion records").push(Record {
            label: label.to_string(),
            mean_seconds: mean,
            samples,
        });
    }
}

fn format_duration(seconds: f64) -> String {
    if seconds >= 1.0 {
        format!("{seconds:.3} s")
    } else if seconds >= 1e-3 {
        format!("{:.3} ms", seconds * 1e3)
    } else if seconds >= 1e-6 {
        format!("{:.3} µs", seconds * 1e6)
    } else {
        format!("{:.1} ns", seconds * 1e9)
    }
}

/// Declares a group-runner function invoking each benchmark function in turn.
#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut criterion = $crate::Criterion::default();
            $( $target(&mut criterion); )+
        }
    };
}

/// Declares `main` running the listed groups (ignores harness CLI flags).
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $( $group(); )+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn group_runs_and_counts_iterations() {
        let mut c = Criterion::default();
        let mut calls = 0u64;
        {
            let mut group = c.benchmark_group("g");
            group.sample_size(5);
            group.bench_function("count", |b| b.iter(|| calls += 1));
            group.finish();
        }
        // One warm-up iteration + five timed.
        assert_eq!(calls, 6);
    }

    #[test]
    fn bench_with_input_passes_input() {
        let mut c = Criterion::default();
        let input = vec![1u64, 2, 3];
        let mut total = 0u64;
        c.benchmark_group("g")
            .bench_with_input(BenchmarkId::new("sum", 3), &input, |b, input| {
                b.iter(|| total += input.iter().sum::<u64>())
            });
        assert!(total >= 6);
    }

    #[test]
    fn records_are_captured() {
        let mut c = Criterion::default();
        c.bench_function("record-capture-probe", |b| b.iter(|| 1 + 1));
        // Other tests' records may be interleaved; find ours by label.
        let records = take_records();
        let probe = records
            .iter()
            .find(|r| r.label == "record-capture-probe")
            .expect("bench run must leave a record");
        assert_eq!(probe.samples, 10);
        assert!(probe.mean_seconds >= 0.0);
    }

    #[test]
    fn ids_render() {
        assert_eq!(BenchmarkId::new("f", 32).to_string(), "f/32");
        assert_eq!(BenchmarkId::from_parameter("x").to_string(), "x");
    }

    #[test]
    fn durations_format_by_magnitude() {
        assert!(format_duration(2.5).ends_with(" s"));
        assert!(format_duration(2.5e-3).ends_with(" ms"));
        assert!(format_duration(2.5e-6).ends_with(" µs"));
        assert!(format_duration(2.5e-9).ends_with(" ns"));
    }
}
