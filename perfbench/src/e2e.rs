//! The untraced run: a closed loop (one client, next operation only after
//! the previous one returns) over set-up, orient, color and coreness until
//! each has used its share of the time budget ([`SHARES`]).
//!
//! The operations are deterministic, so a sample's time varies only with
//! the host. On a shared host the CPU is slowed in bursts: a pure spin loop
//! of 0.1 s per sample reads up to 1.7 times its fastest time, and the
//! median of a 50-s window swings by half from one window to the next,
//! while the fastest sample of each window stays within about a tenth. An
//! operation's time is therefore the fastest of its samples, which are
//! spread over the whole run. Set-up time and per-task peak memory are
//! medians. Median, range and sample count of every task go to standard
//! error.

use crate::ops::{self, Op, Outcome};
use crate::report::{median, peak_rss_mib, reset_peak_rss, Metric, RunReport};
use crate::workload::{generate, ingest, Workload};
use dgo_graph::coreness;
use std::hint::black_box;
use std::time::Instant;

/// Wall-clock seconds and resident-set peak (MiB) of each successful sample
/// of a task, and the time spent on all its attempts.
#[derive(Debug, Default)]
struct Samples {
    seconds: Vec<f64>,
    peak_mib: Vec<f64>,
    attempts: usize,
    spent: f64,
}

impl Samples {
    /// Times `body` with the resident-set high-water mark reset before it.
    fn measure<T>(&mut self, body: impl FnOnce() -> T) -> T {
        reset_peak_rss();
        let begin = Instant::now();
        let out = body();
        let elapsed = begin.elapsed().as_secs_f64();
        self.attempts += 1;
        self.spent += elapsed;
        self.seconds.push(elapsed);
        self.peak_mib.push(peak_rss_mib().unwrap_or(f64::NAN));
        out
    }

    /// Drops the last sample (its operation failed); its time stays spent.
    fn discard_last(&mut self) {
        self.seconds.pop();
        self.peak_mib.pop();
    }

    /// The fastest sample; `None` when there is none.
    fn fastest(&self) -> Option<f64> {
        self.seconds.iter().copied().reduce(f64::min)
    }

    fn summary(&self, name: &str) -> String {
        let lo = self.fastest().unwrap_or(f64::NAN);
        let hi = self.seconds.iter().copied().fold(0.0, f64::max);
        format!(
            "{name}: {} samples, median {:.4} s, min {lo:.4} s, max {hi:.4} s, median peak {:.1} MiB",
            self.seconds.len(),
            median(&self.seconds).unwrap_or(f64::NAN),
            median(&self.peak_mib).unwrap_or(f64::NAN)
        )
    }
}

/// Shares of the time budget of set-up and of orient, color and coreness.
/// Set-up is fast and reports a median, so it needs fewer seconds than the
/// operations, whose fastest sample improves with every sample taken.
pub const SHARES: [f64; 4] = [0.1, 0.3, 0.3, 0.3];

/// Runs workload `w` on the input of `seed` until set-up and every
/// operation have each run for their share of `seconds` (and at least once).
pub fn run(w: &Workload, seed: u64, seconds: f64) -> RunReport {
    let (generated, text) = generate(w, seed);
    let mut attempted = 1u64;
    let mut setup = Samples::default();
    let graph = match setup.measure(|| ingest(black_box(&text))) {
        Ok(g) if g == generated => g,
        other => {
            eprintln!("set-up failed or built the wrong graph: {:?}", other.err());
            return RunReport {
                attempted,
                failed: 1,
                metrics: Vec::new(),
            };
        }
    };
    drop(generated);

    let mut failed = 0u64;
    let exact = coreness(&graph);
    let params = w.params(graph.num_vertices());
    let mut samples: [Samples; 3] = Default::default();
    let mut first: [Option<Outcome>; 3] = Default::default();
    // The task that has used the least of its share runs next, so every
    // task's samples are spread over the whole run rather than bunched in
    // one stretch of it.
    loop {
        let next = std::iter::once(&setup)
            .chain(&samples)
            .zip(SHARES)
            .enumerate()
            .filter(|(_, (s, share))| s.attempts == 0 || s.spent < share * seconds)
            .min_by(|(_, (a, sa)), (_, (b, sb))| (a.spent / sa).total_cmp(&(b.spent / sb)))
            .map(|(task, _)| task);
        let Some(task) = next else { break };
        attempted += 1;
        if task == 0 {
            match setup.measure(|| ingest(black_box(&text))) {
                Ok(g) if g == graph => {}
                _ => {
                    eprintln!("set-up failed or built the wrong graph");
                    setup.discard_last();
                    failed += 1;
                }
            }
            continue;
        }
        let (i, op) = (task - 1, Op::ALL[task - 1]);
        let raw = samples[i].measure(|| ops::run(op, black_box(&graph), &params));
        match raw.and_then(|r| ops::certify(&r, &graph, &exact, w)) {
            Ok(outcome) => match &first[i] {
                Some(seen) if *seen != outcome => {
                    eprintln!(
                        "{} is not deterministic: {seen:?} then {outcome:?}",
                        op.name()
                    );
                    samples[i].discard_last();
                    failed += 1;
                }
                _ => first[i] = Some(outcome),
            },
            Err(msg) => {
                eprintln!("{msg}");
                samples[i].discard_last();
                failed += 1;
            }
        }
    }

    eprintln!("{}", setup.summary("setup"));
    for (op, s) in Op::ALL.iter().zip(&samples) {
        eprintln!("{}", s.summary(op.name()));
    }
    // The peak a user sees: the largest per-task median peak.
    let peak = std::iter::once(&setup)
        .chain(&samples)
        .filter_map(|s| median(&s.peak_mib))
        .reduce(f64::max);

    let mut metrics = Vec::new();
    let mut push = |name, unit, value: Option<f64>| {
        if let Some(value) = value {
            metrics.push(Metric { name, unit, value });
        }
    };
    push("setup_s", "s", median(&setup.seconds));
    push("orient_s", "s", samples[0].fastest());
    push("color_s", "s", samples[1].fastest());
    push("coreness_s", "s", samples[2].fastest());
    push("peak_rss_mib", "MiB", peak);
    for outcome in first.iter().flatten() {
        for (name, unit, value) in outcome_metrics(outcome) {
            push(name, unit, Some(value));
        }
    }
    push(
        "ops_ok_frac",
        "ratio",
        Some((attempted - failed) as f64 / attempted as f64),
    );
    RunReport {
        attempted,
        failed,
        metrics,
    }
}

/// The deterministic end-to-end metrics an operation's outcome gives.
pub fn outcome_metrics(outcome: &Outcome) -> Vec<(&'static str, &'static str, f64)> {
    match *outcome {
        Outcome::Orient {
            max_out_degree,
            rounds,
            comm_words,
            ..
        } => vec![
            ("orient_max_outdeg", "count", max_out_degree as f64),
            ("orient_rounds", "rounds", rounds as f64),
            ("orient_comm_words", "words", comm_words as f64),
        ],
        Outcome::Color {
            colors,
            rounds,
            comm_words,
        } => vec![
            ("colors_used", "count", colors as f64),
            ("color_rounds", "rounds", rounds as f64),
            ("color_comm_words", "words", comm_words as f64),
        ],
        Outcome::Coreness {
            exact_frac,
            mean_ratio,
            rounds,
            comm_words,
            ..
        } => vec![
            ("coreness_exact_frac", "ratio", exact_frac),
            ("coreness_mean_ratio", "ratio", mean_ratio),
            ("coreness_rounds", "rounds", rounds as f64),
            ("coreness_comm_words", "words", comm_words as f64),
        ],
    }
}
