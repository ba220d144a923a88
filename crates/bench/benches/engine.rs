//! Engine benchmark: the execution backend end-to-end, on the full
//! Theorem 1.1/1.2 pipelines. The legs keep the backend name
//! (`sequential`) for continuity of the persisted trajectory.
//!
//! Besides the human-readable timing lines, every run writes
//! `BENCH_engine.json` (see `dgo_bench::report`) into the working directory:
//! wall-clock per leg plus the leg's configuration and model-side costs, so
//! the perf trajectory persists across commits. `DGO_BENCH_QUICK=1` shrinks
//! the sweep to one small size per group (the CI smoke configuration).

use criterion::{BenchmarkId, Criterion};
use dgo_bench::report::{peak_rss_bytes, quick_mode, resolved_jobs, BenchLeg, BenchReport};
use dgo_core::{color, orient, Params};
use dgo_graph::generators::{gnm, Family};
use dgo_mpc::Metrics;

/// `DGO_BENCH_QUICK=1` shrinks every sweep to its smallest leg with few
/// samples — the CI smoke mode (seconds, not minutes).
fn quick() -> bool {
    quick_mode()
}

/// Converts the record of the just-finished bench call plus one metered run
/// into a report leg. Must be called immediately after the bench call, while
/// its record is the newest.
fn record_leg(report: &mut BenchReport, metrics: &Metrics) {
    let record = criterion::take_records()
        .pop()
        .expect("bench call leaves a record");
    report.push(BenchLeg {
        name: record.label,
        wall_seconds: record.median_seconds,
        wall_min_seconds: record.min_seconds,
        wall_max_seconds: record.max_seconds,
        passes: criterion::PASSES as u64,
        samples: record.samples,
        jobs: resolved_jobs(Params::practical(0).jobs),
        backend: "sequential".to_string(),
        comm_words: metrics.total_comm_words,
        peak_tree_bytes: metrics.peak_tree_bytes,
        peak_rss_bytes: peak_rss_bytes(),
    });
}

fn bench_orient(c: &mut Criterion, report: &mut BenchReport) {
    let mut group = c.benchmark_group("engine_orient");
    group.sample_size(if quick() { 3 } else { 10 });
    let sizes: &[usize] = if quick() {
        &[1024]
    } else {
        &[1024, 4096, 16384]
    };
    for &n in sizes {
        let g = gnm(n, 4 * n, 9);
        let params = Params::practical(n);
        group.bench_with_input(BenchmarkId::new("sequential", n), &g, |b, g| {
            b.iter(|| orient(g, &params).expect("orientation succeeds"))
        });
        let metrics = orient(&g, &params).unwrap().metrics;
        record_leg(report, &metrics);
    }
    group.finish();
}

/// Orientation on the tree family: λ = 1 sends `complete_layering` through
/// the exponentiation path, so these legs carry real view-tree traffic —
/// nonzero `peak_tree_bytes` and wire-coded bundle words in the report,
/// where the `gnm` legs above finish in initial peeling and genuinely hold
/// no trees.
fn bench_orient_tree_family(c: &mut Criterion, report: &mut BenchReport) {
    let mut group = c.benchmark_group("engine_orient_tree");
    group.sample_size(if quick() { 3 } else { 10 });
    let sizes: &[usize] = if quick() { &[1024] } else { &[1024, 4096] };
    for &n in sizes {
        let g = Family::Tree.generate(n, 9);
        let params = Params::practical(n);
        group.bench_with_input(BenchmarkId::new("sequential", n), &g, |b, g| {
            b.iter(|| orient(g, &params).expect("orientation succeeds"))
        });
        let metrics = orient(&g, &params).unwrap().metrics;
        assert!(
            metrics.peak_tree_bytes > 0,
            "tree-family orientation must exercise the view-tree path"
        );
        record_leg(report, &metrics);
    }
    group.finish();
}

fn bench_color(c: &mut Criterion, report: &mut BenchReport) {
    let mut group = c.benchmark_group("engine_color");
    group.sample_size(if quick() { 3 } else { 10 });
    let sizes: &[usize] = if quick() { &[1024] } else { &[1024, 4096] };
    for &n in sizes {
        let g = gnm(n, 4 * n, 9);
        let params = Params::practical(n);
        group.bench_with_input(BenchmarkId::new("sequential", n), &g, |b, g| {
            b.iter(|| color(g, &params).expect("coloring succeeds"))
        });
        let metrics = color(&g, &params).unwrap().metrics;
        record_leg(report, &metrics);
    }
    group.finish();
}

fn main() {
    let mut criterion = Criterion::default();
    let mut report = BenchReport::new("engine");
    criterion::take_records(); // drop any stale records
    bench_orient(&mut criterion, &mut report);
    bench_orient_tree_family(&mut criterion, &mut report);
    bench_color(&mut criterion, &mut report);
    // Workspace root: two levels above this package's manifest dir.
    match report.write_in(concat!(env!("CARGO_MANIFEST_DIR"), "/../..")) {
        Ok(path) => println!("wrote {}", path.display()),
        Err(e) => eprintln!("failed to write bench report: {e}"),
    }
}
