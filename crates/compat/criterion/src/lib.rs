//! Vendored stand-in for `criterion` (offline build).
//!
//! Implements the API subset the workspace's benches use — benchmark groups,
//! [`BenchmarkId`], `bench_function` / `bench_with_input`, `Bencher::iter` —
//! with a simple timing loop instead of criterion's statistical machinery:
//! one warm-up pass, then [`PASSES`] timed passes of `n` iterations each.
//! A pass reads as its mean time per iteration, and a benchmark reports the
//! median pass with the fastest and the slowest, so one preempted pass
//! widens the spread instead of moving the figure. Output is one line per
//! benchmark:
//!
//! ```text
//! group/id  time: 12.345 ms  [12.001 ms .. 13.210 ms]  (n = 10 x 7)
//! ```
//!
//! Swapping the real crates-io `criterion` back in is a manifest-only change.

#![forbid(unsafe_code)]

use std::fmt;
use std::hint;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Timed passes per benchmark after the warm-up. A constant, not a knob: an
/// odd count makes the median one of the passes.
pub const PASSES: usize = 7;

/// One completed benchmark measurement, as recorded by the driver. Each
/// figure is a pass's mean wall-clock seconds per iteration.
#[derive(Debug, Clone, PartialEq)]
pub struct Record {
    /// The full benchmark label (`group/id`).
    pub label: String,
    /// The median of the [`PASSES`] timed passes.
    pub median_seconds: f64,
    /// The fastest timed pass.
    pub min_seconds: f64,
    /// The slowest timed pass.
    pub max_seconds: f64,
    /// Timed iterations per pass.
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
        // One warm-up iteration, then PASSES timed passes of `samples`
        // iterations each, every pass read as its mean per iteration.
        let mut warmup = Bencher {
            iters: 1,
            elapsed: Duration::ZERO,
        };
        routine(&mut warmup);
        let mut passes = [0f64; PASSES];
        for pass in &mut passes {
            let mut bench = Bencher {
                iters: samples,
                elapsed: Duration::ZERO,
            };
            routine(&mut bench);
            *pass = bench.elapsed.as_secs_f64() / samples as f64;
        }
        passes.sort_by(f64::total_cmp);
        let record = Record {
            label: label.to_string(),
            median_seconds: passes[PASSES / 2],
            min_seconds: passes[0],
            max_seconds: passes[PASSES - 1],
            samples,
        };
        println!(
            "{label}  time: {}  [{} .. {}]  (n = {samples} x {PASSES})",
            format_duration(record.median_seconds),
            format_duration(record.min_seconds),
            format_duration(record.max_seconds),
        );
        RECORDS.lock().expect("criterion records").push(record);
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
        // One warm-up iteration + PASSES timed passes of five.
        assert_eq!(calls, 1 + PASSES as u64 * 5);
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
        assert!(probe.min_seconds >= 0.0);
        assert!(probe.min_seconds <= probe.median_seconds);
        assert!(probe.median_seconds <= probe.max_seconds);
    }

    #[test]
    fn one_slow_pass_widens_the_spread_not_the_median() {
        // The third timed pass (the fourth call, after the warm-up) sleeps
        // 20 ms, the others return at once: the slowest pass carries it, the
        // median stays with the fast ones.
        let mut c = Criterion::default();
        let mut calls = 0u32;
        c.bench_function("slow-pass-probe", |b| {
            calls += 1;
            let slow = calls == 4;
            b.iter(|| {
                if slow {
                    std::thread::sleep(Duration::from_millis(20));
                }
            })
        });
        let records = take_records();
        let probe = records
            .iter()
            .find(|r| r.label == "slow-pass-probe")
            .expect("bench run must leave a record");
        assert_eq!(calls as usize, 1 + PASSES);
        // 20 ms over 10 iterations: at least 2 ms per iteration.
        assert!(probe.max_seconds >= 2e-3, "{probe:?}");
        assert!(probe.median_seconds < 1e-3, "{probe:?}");
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
