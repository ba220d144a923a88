//! Macrobenchmark: the vertex-parallel stage engine (`dgo_core::stage`) on a
//! large `G(n, m)` instance — sequential (`jobs = 1`) vs vertex-parallel
//! (`jobs = 0`, all cores) execution of the Algorithm 2 kernel and the full
//! Algorithm 4 stage. Outputs and metrics are bit-identical at any job
//! count, so the deltas here are pure host wall-clock. Note `jobs = 0`
//! resolves to the available parallelism: on a single-core host the two
//! legs coincide (the engine runs inline at one thread — no spawn overhead),
//! and the `jobs-all` win scales with the core count.
//!
//! Every run also writes `BENCH_stage.json` (see `dgo_bench::report`) into
//! the working directory — wall-clock per leg plus jobs and model-side costs
//! — so the perf trajectory persists across commits. `DGO_BENCH_QUICK=1`
//! shrinks the instance (the CI smoke configuration).

use criterion::{BenchmarkId, Criterion};
use dgo_bench::report::{peak_rss_bytes, quick_mode, BenchLeg, BenchReport};
use dgo_core::stage::StageExecutor;
use dgo_core::{
    combine_tree_layers, exponentiate_and_prune_staged, local_prune_batch, num_paths_in_staged,
    partial_layer_assignment_staged, partial_layer_assignment_trees, ViewTree,
};
use dgo_graph::generators::gnm;
use dgo_graph::UNASSIGNED;
use dgo_mpc::{Cluster, ClusterConfig};

const BUDGET: usize = 256;
const K: usize = 4;
const STEPS: u32 = 3;
const LAYERS: u32 = 4;

/// `DGO_BENCH_QUICK=1` shrinks the instance and sample count — the CI smoke
/// mode (seconds, not minutes).
fn quick() -> bool {
    quick_mode()
}

fn cluster_for(n: usize) -> Cluster {
    Cluster::new(ClusterConfig::new((n * BUDGET / 64).max(8), 1 << 15))
}

/// Converts the record of the just-finished bench call plus one metered run
/// into a report leg. Must be called immediately after the bench call, while
/// its record is the newest.
fn record_leg(report: &mut BenchReport, stage: &StageExecutor, metrics: &dgo_mpc::Metrics) {
    record_kernel_leg(
        report,
        stage.threads(),
        metrics.total_comm_words,
        metrics.peak_tree_bytes,
    );
}

/// [`record_leg`] for communication-free kernel legs (explicit word charge —
/// zero for pure host kernels, the encoded total for the wire-size leg).
fn record_kernel_leg(
    report: &mut BenchReport,
    jobs: usize,
    comm_words: usize,
    peak_tree_bytes: usize,
) {
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
        jobs,
        backend: "stage".to_string(),
        comm_words,
        peak_tree_bytes,
        peak_rss_bytes: peak_rss_bytes(),
    });
}

fn bench_stage(c: &mut Criterion, report: &mut BenchReport) {
    let n: usize = if quick() { 4_000 } else { 30_000 };
    let g = gnm(n, 5 * n, 17);
    let executors = [
        ("jobs1", StageExecutor::sequential()),
        ("jobs-all", StageExecutor::new(0)),
    ];

    let mut group = c.benchmark_group("stage");
    group.sample_size(if quick() { 2 } else { 5 });
    for (label, stage) in &executors {
        group.bench_with_input(
            BenchmarkId::new("exponentiate_and_prune", label),
            &g,
            |b, g| {
                b.iter(|| {
                    let mut cluster = cluster_for(n);
                    exponentiate_and_prune_staged(g, BUDGET, K, STEPS, &mut cluster, stage)
                        .expect("fits")
                })
            },
        );
        let metrics = {
            let mut cluster = cluster_for(n);
            exponentiate_and_prune_staged(&g, BUDGET, K, STEPS, &mut cluster, stage).expect("fits");
            cluster.into_metrics()
        };
        record_leg(report, stage, &metrics);
    }
    for (label, stage) in &executors {
        group.bench_with_input(
            BenchmarkId::new("partial_layer_assignment", label),
            &g,
            |b, g| {
                b.iter(|| {
                    let mut cluster = cluster_for(n);
                    partial_layer_assignment_staged(
                        g,
                        BUDGET,
                        K,
                        LAYERS,
                        STEPS,
                        &mut cluster,
                        stage,
                    )
                    .expect("fits")
                })
            },
        );
        let metrics = {
            let mut cluster = cluster_for(n);
            partial_layer_assignment_staged(&g, BUDGET, K, LAYERS, STEPS, &mut cluster, stage)
                .expect("fits");
            cluster.into_metrics()
        };
        record_leg(report, stage, &metrics);
    }
    group.finish();
}

/// The branch-light stage kernels in isolation — `LocalPrune` plan/project,
/// the Algorithm 3 peel, the per-layer path-count refill — plus the wire
/// size of a bundle (`ViewTree::wire_words`), so its overhead is metered as
/// its own leg instead of hiding inside the exponentiation step, and
/// Algorithm 4's min-combine of the trees' proposals.
fn bench_kernels(c: &mut Criterion, report: &mut BenchReport) {
    let n: usize = if quick() { 2_000 } else { 12_000 };
    let g = gnm(n, 5 * n, 17);
    let trees = {
        let mut cluster = cluster_for(n);
        exponentiate_and_prune_staged(
            &g,
            BUDGET,
            K,
            STEPS,
            &mut cluster,
            &StageExecutor::sequential(),
        )
        .expect("fits")
        .trees
    };
    let peel = dgo_local::be08_peeling(&g, 8, 0.5, 0);
    let layering = peel.layering;
    let executors = [
        ("jobs1", StageExecutor::sequential()),
        ("jobs-all", StageExecutor::new(0)),
    ];

    let mut group = c.benchmark_group("kernel");
    group.sample_size(if quick() { 2 } else { 10 });
    for (label, stage) in &executors {
        group.bench_with_input(
            BenchmarkId::new("local_prune", label),
            &trees,
            |b, trees| b.iter(|| local_prune_batch(trees, K, stage)),
        );
        record_kernel_leg(report, stage.threads(), 0, 0);
        group.bench_with_input(BenchmarkId::new("peel", label), &trees, |b, trees| {
            b.iter(|| partial_layer_assignment_trees(&g, trees, 2 * K, LAYERS, stage))
        });
        record_kernel_leg(report, stage.threads(), 0, 0);
        group.bench_with_input(
            BenchmarkId::new("num_paths", label),
            &layering,
            |b, layering| b.iter(|| num_paths_in_staged(&g, layering, stage)),
        );
        record_kernel_leg(report, stage.threads(), 0, 0);
    }

    // Wire-size leg: a single-threaded per-tree pass (it runs inside
    // per-vertex stages in production; here its raw cost stands alone).
    let wire_total: usize = trees.iter().map(ViewTree::wire_words).sum();
    group.bench_with_input(
        BenchmarkId::new("wire_words", "jobs1"),
        &trees,
        |b, trees| b.iter(|| -> usize { trees.iter().map(ViewTree::wire_words).sum() }),
    );
    record_kernel_leg(report, 1, wire_total, 0);

    // Min-combine leg: Algorithm 4's last step on the trees' Algorithm 3
    // proposals at its cap `(s+1)·k`, flattened tree by tree in node order.
    // The combine takes the proposals by value, so each pass copies them.
    let a = (STEPS as usize + 1) * K;
    let node_layers = partial_layer_assignment_trees(&g, &trees, a, LAYERS, &executors[0].1);
    let proposals: Vec<(u64, u32)> = trees
        .iter()
        .zip(&node_layers)
        .flat_map(|(tree, layers)| {
            tree.node_ids()
                .zip(layers)
                .filter(|&(_, &layer)| layer != UNASSIGNED)
                .map(|(x, &layer)| (tree.vertex(x) as u64, layer))
        })
        .collect();
    let combine_words = {
        let mut cluster = cluster_for(n);
        combine_tree_layers(n, proposals.clone(), &mut cluster).expect("fits");
        cluster.metrics().total_comm_words
    };
    group.bench_with_input(
        BenchmarkId::new("min_combine", "jobs1"),
        &proposals,
        |b, proposals| {
            b.iter(|| combine_tree_layers(n, proposals.clone(), &mut cluster_for(n)).expect("fits"))
        },
    );
    record_kernel_leg(report, 1, combine_words, 0);
    group.finish();
}

fn main() {
    let mut criterion = Criterion::default();
    let mut report = BenchReport::new("stage");
    criterion::take_records(); // drop any stale records
    bench_stage(&mut criterion, &mut report);
    bench_kernels(&mut criterion, &mut report);
    // Workspace root: two levels above this package's manifest dir.
    match report.write_in(concat!(env!("CARGO_MANIFEST_DIR"), "/../..")) {
        Ok(path) => println!("wrote {}", path.display()),
        Err(e) => eprintln!("failed to write bench report: {e}"),
    }
}
