//! Stage-engine contract tests (mirroring `instance_parallel.rs` one tier
//! down).
//!
//! The vertex-parallel stage engine (`dgo_core::stage`) promises that every
//! per-vertex map stage — Algorithm 1's batch prune, Algorithm 2's
//! attachment, Algorithm 3's per-tree peeling, Algorithm 4's proposal
//! collection, the per-layer path counts — produces **bit-identical trees,
//! layers, colors, and metrics at any `jobs` count**: per-vertex closures are
//! pure over a read-only snapshot, outputs land in index-ordered slots, and
//! metering reductions are exact, and flat per-chunk buffers concatenate in
//! chunk order. These tests pin that promise end-to-end,
//! from the raw Algorithm 2 kernel up through the full Theorem 1.1/1.2
//! drivers and the coreness application (which also exercises the
//! `split_jobs` budget sharing between the instance tier and the stage tier).
//!
//! Every workload here is above the stage engine's inline floor (1,024
//! items): below it a stage runs as one inline chunk at any `jobs`, so a
//! comparison across job counts would only compare the inline path with
//! itself and could not see a chunk that is split, ordered or rebased
//! wrongly.

use dgo::core::stage::StageExecutor;
use dgo::core::{
    approximate_coreness_on, color_on, combine_tree_layers, complete_layering_on,
    exponentiate_and_prune_staged, num_paths_in_staged, num_paths_out_staged, orient_on,
    partial_layer_assignment_staged, partial_layer_assignment_trees, Params,
};
use dgo::graph::generators::{
    barabasi_albert, core_onion_with_truth, gnm, ring_of_cliques, Family,
};
use dgo::graph::{Graph, LayerAssignment, UNASSIGNED};
use dgo::mpc::{Cluster, ClusterConfig, SequentialBackend};
use proptest::prelude::*;

/// The job counts every stage must reproduce the `jobs = 1` reference under:
/// a couple of fixed fan-outs plus `0` (all cores).
const JOB_COUNTS: [usize; 3] = [2, 8, 0];

fn kernel_cluster(n: usize) -> Cluster {
    Cluster::new(ClusterConfig::new((n * 8).max(64), 8192))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Algorithm 2's kernel: trees, activity flags, and backend metrics are
    /// bit-identical between the inline executor and any thread count, on
    /// arbitrary sparse instances.
    #[test]
    fn exponentiation_stages_bit_identical(seed in 0u64..500, density in 2usize..5) {
        let n = 1500;
        let g = gnm(n, density * n, seed);
        let mut reference_cluster = kernel_cluster(n);
        let reference = exponentiate_and_prune_staged(
            &g, 144, 2, 3, &mut reference_cluster, &StageExecutor::sequential(),
        )
        .unwrap();
        for jobs in JOB_COUNTS {
            let mut cluster = kernel_cluster(n);
            let r = exponentiate_and_prune_staged(
                &g, 144, 2, 3, &mut cluster, &StageExecutor::new(jobs),
            )
            .unwrap();
            prop_assert_eq!(&r.trees, &reference.trees);
            prop_assert_eq!(&r.active, &reference.active);
            prop_assert_eq!(cluster.metrics(), reference_cluster.metrics());
        }
    }

    /// The flat-buffer stage form (`StageExecutor::map_chunks`): items emit
    /// outputs of varying length into one buffer per chunk, with per-item end
    /// offsets, and the concatenation in chunk order is the inline result at
    /// every job count, on either side of the inline floor.
    #[test]
    fn flat_chunk_stages_bit_identical(len in 0usize..4000, seed in any::<u64>()) {
        let items: Vec<u64> = (0..len as u64)
            .map(|i| (i ^ seed).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 59)
            .collect();
        let flat = |offset: usize, chunk: &[u64]| {
            let (mut out, mut ends) = (Vec::new(), Vec::new());
            for (i, &copies) in (offset..).zip(chunk) {
                out.extend((0..copies).map(|c| (i, c)));
                ends.push(out.len());
            }
            (out, ends)
        };
        let concat = |(mut out, mut ends): (Vec<(usize, u64)>, Vec<usize>),
                      (later, later_ends): (Vec<(usize, u64)>, Vec<usize>)| {
            let base = out.len();
            out.extend(later);
            ends.extend(later_ends.iter().map(|&end| base + end));
            (out, ends)
        };
        let reference = StageExecutor::sequential().map_chunks(&items, flat, concat);
        prop_assert_eq!(reference.1.len(), len);
        for jobs in [1usize, 2, 8, 0] {
            let got = StageExecutor::new(jobs).map_chunks(&items, flat, concat);
            prop_assert_eq!(&got, &reference);
        }
    }

    /// Path counts per Definition 2.2: the per-layer stage decomposition
    /// matches the sequential scan on arbitrary complete layerings.
    #[test]
    fn path_count_stages_bit_identical(seed in 0u64..500) {
        let g = gnm(3000, 9000, seed);
        let peel = dgo::local::be08_peeling(&g, 3, 0.5, 0);
        let la = peel.layering;
        let sequential = StageExecutor::sequential();
        let reference_in = num_paths_in_staged(&g, &la, &sequential);
        let reference_out = num_paths_out_staged(&g, &la, &sequential);
        for jobs in JOB_COUNTS {
            let stage = StageExecutor::new(jobs);
            prop_assert_eq!(num_paths_in_staged(&g, &la, &stage), reference_in.clone());
            prop_assert_eq!(num_paths_out_staged(&g, &la, &stage), reference_out.clone());
        }
    }
}

#[test]
fn algorithm_4_stages_bit_identical_across_families() {
    // Algorithm 4 end-to-end (exponentiate + per-tree peel + min-combine) on
    // scenario-diverse workloads, including the two new families. The last
    // one is above the stage engine's inline floor (1,024 items), so at
    // jobs > 1 the attachment plans and proposals really are built per chunk
    // and concatenated. Algorithm 4 peels Algorithm 2's last attachments in
    // place, so at every job count it must also match the separate pipeline
    // over the materialized trees, on one cluster each.
    let workloads: Vec<(&str, Graph)> = vec![
        ("gnm", gnm(300, 1200, 5)),
        ("ring-of-cliques", ring_of_cliques(24, 6)),
        ("core-onion", Family::CoreOnion.generate(300, 5)),
        ("gnm-above-inline-floor", gnm(3000, 9000, 5)),
    ];
    for (label, g) in &workloads {
        let n = g.num_vertices();
        let mut reference_cluster = kernel_cluster(n);
        let sequential = StageExecutor::sequential();
        let reference =
            partial_layer_assignment_staged(g, 256, 3, 4, 3, &mut reference_cluster, &sequential)
                .unwrap();
        for jobs in std::iter::once(1).chain(JOB_COUNTS) {
            let stage = StageExecutor::new(jobs);
            let mut cluster = kernel_cluster(n);
            let r = partial_layer_assignment_staged(g, 256, 3, 4, 3, &mut cluster, &stage).unwrap();
            assert_eq!(r.layering, reference.layering, "{label}/jobs{jobs}");
            assert_eq!(
                cluster.metrics(),
                reference_cluster.metrics(),
                "{label}/jobs{jobs}"
            );
            let mut separate = kernel_cluster(n);
            let layering = separate_algorithm_4(g, 256, 3, 4, 3, &mut separate, &stage);
            assert_eq!(
                layering, r.layering,
                "{label}/jobs{jobs}: separate pipeline"
            );
            assert_eq!(
                separate.metrics(),
                cluster.metrics(),
                "{label}/jobs{jobs}: separate pipeline"
            );
        }
    }
}

/// Algorithm 4 as its three public pieces in turn on one cluster: Algorithm
/// 2 with its final trees materialized, Algorithm 3 per tree flattened in
/// node order, then the min-combine.
fn separate_algorithm_4(
    g: &Graph,
    budget: usize,
    k: usize,
    layers: u32,
    steps: u32,
    cluster: &mut Cluster,
    stage: &StageExecutor,
) -> LayerAssignment {
    let expo = exponentiate_and_prune_staged(g, budget, k, steps, cluster, stage).unwrap();
    let a = (steps as usize + 1) * k;
    let per_node = partial_layer_assignment_trees(g, &expo.trees, a, layers, stage);
    let proposals: Vec<(u64, u32)> = expo
        .trees
        .iter()
        .zip(&per_node)
        .flat_map(|(tree, node_layers)| {
            tree.node_ids()
                .zip(node_layers)
                .filter(|&(_, &l)| l != UNASSIGNED)
                .map(|(x, &l)| (tree.vertex(x) as u64, l))
        })
        .collect();
    combine_tree_layers(g.num_vertices(), proposals, cluster).unwrap()
}

fn assert_driver_bit_identical(graph: &Graph, label: &str, lambda_hint: usize) {
    // Single-instance drivers: Params::jobs goes entirely to vertex stages.
    let mut params = Params::practical(graph.num_vertices()).with_jobs(1);
    params.lambda_hint = lambda_hint;
    let layering_reference =
        complete_layering_on::<SequentialBackend>(graph, &params).expect("layering succeeds");
    let orient_reference = orient_on::<SequentialBackend>(graph, &params).expect("orient succeeds");
    let color_reference = color_on::<SequentialBackend>(graph, &params).expect("color succeeds");
    for jobs in JOB_COUNTS {
        let context = format!("{label}/jobs{jobs}");
        let tuned = params.clone().with_jobs(jobs);
        let layering =
            complete_layering_on::<SequentialBackend>(graph, &tuned).expect("layering succeeds");
        assert_eq!(
            layering.layering, layering_reference.layering,
            "{context}: layerings differ"
        );
        assert_eq!(
            layering.metrics, layering_reference.metrics,
            "{context}: layering metrics differ"
        );
        assert_eq!(
            layering.stats, layering_reference.stats,
            "{context}: layering stats differ"
        );
        let oriented = orient_on::<SequentialBackend>(graph, &tuned).expect("orient succeeds");
        assert_eq!(
            oriented.orientation, orient_reference.orientation,
            "{context}: orientations differ"
        );
        assert_eq!(
            oriented.metrics, orient_reference.metrics,
            "{context}: orientation metrics differ"
        );
        let colored = color_on::<SequentialBackend>(graph, &tuned).expect("color succeeds");
        assert_eq!(
            colored.coloring, color_reference.coloring,
            "{context}: colorings differ"
        );
        assert_eq!(
            colored.metrics, color_reference.metrics,
            "{context}: coloring metrics differ"
        );
    }
}

#[test]
fn drivers_bit_identical_across_jobs() {
    // λ̂ estimated on G(n, m): Stage 1 peels everything in rounds of more
    // than a thousand vertices. λ-hint 1 (k = 2) on the other two leaves
    // every vertex to boosted Stage-2 stages, so Algorithms 1–4 and the
    // coloring batches run on more than a thousand vertices.
    assert_driver_bit_identical(&gnm(3000, 12000, 7), "gnm", 0);
    assert_driver_bit_identical(&barabasi_albert(3000, 4, 7), "power-law", 1);
    assert_driver_bit_identical(&ring_of_cliques(200, 6), "ring-of-cliques", 1);
}

#[test]
fn two_tier_jobs_split_bit_identical_on_core_onion() {
    // The coreness ladder fans instances across the outer budget while each
    // guess's vertex stages use the inner budget (split_jobs); the estimate
    // must not depend on the split, and must stay sound against the onion's
    // exact ground truth.
    let (g, truth) = core_onion_with_truth(3000, 6, 3);
    let params = Params::practical(3000).with_jobs(1);
    let reference =
        approximate_coreness_on::<SequentialBackend>(&g, 0.5, &params).expect("coreness succeeds");
    for (v, &t) in truth.iter().enumerate() {
        assert!(
            reference.estimate[v] >= t,
            "v={v}: estimate {} below exact coreness {t}",
            reference.estimate[v]
        );
    }
    // Up to `jobs = guesses` every guess gets one inner thread; beyond it the
    // guesses' vertex stages fan out too.
    let beyond = 3 * reference.guesses.len();
    for jobs in JOB_COUNTS.into_iter().chain([beyond]) {
        let r =
            approximate_coreness_on::<SequentialBackend>(&g, 0.5, &params.clone().with_jobs(jobs))
                .expect("coreness succeeds");
        assert_eq!(
            r.estimate, reference.estimate,
            "jobs{jobs}: estimates differ"
        );
        assert_eq!(r.guesses, reference.guesses, "jobs{jobs}: ladders differ");
        assert_eq!(r.metrics, reference.metrics, "jobs{jobs}: metrics differ");
    }
}
