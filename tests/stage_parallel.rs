//! Stage-engine contract tests (mirroring `instance_parallel.rs` one tier
//! down).
//!
//! The vertex-parallel stage engine (`dgo_core::stage`) promises that every
//! per-vertex map stage — Algorithm 1's batch prune, Algorithm 2's
//! attachment, Algorithm 3's per-tree peeling, Algorithm 4's proposal
//! collection, the per-layer path counts — produces **bit-identical trees,
//! layers, colors, and metrics at any `jobs` count**: per-vertex closures are
//! pure over a read-only snapshot, outputs land in index-ordered slots, and
//! metering reductions are exact. These tests pin that promise end-to-end,
//! from the raw Algorithm 2 kernel up through the full Theorem 1.1/1.2
//! drivers and the coreness application (which also exercises the
//! `split_jobs` budget sharing between the instance tier and the stage tier).

use dgo::core::stage::StageExecutor;
use dgo::core::{
    approximate_coreness_on, color_on, complete_layering_on, exponentiate_and_prune,
    exponentiate_and_prune_staged, num_paths_in, num_paths_in_staged, num_paths_out,
    num_paths_out_staged, orient_on, partial_layer_assignment, partial_layer_assignment_staged,
    Params,
};
use dgo::graph::generators::{core_onion_with_truth, gnm, ring_of_cliques, Family};
use dgo::graph::Graph;
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
        let n = 150;
        let g = gnm(n, density * n, seed);
        let mut reference_cluster = kernel_cluster(n);
        let reference =
            exponentiate_and_prune(&g, 144, 2, 3, &mut reference_cluster).unwrap();
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

    /// Path counts per Definition 2.2: the per-layer stage decomposition
    /// matches the sequential scan on arbitrary complete layerings.
    #[test]
    fn path_count_stages_bit_identical(seed in 0u64..500) {
        let g = gnm(250, 900, seed);
        let peel = dgo::local::be08_peeling(&g, 3, 0.5, 0);
        let la = peel.layering;
        let reference_in = num_paths_in(&g, &la);
        let reference_out = num_paths_out(&g, &la);
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
    // scenario-diverse workloads, including the two new families.
    let workloads: Vec<(&str, Graph)> = vec![
        ("gnm", gnm(300, 1200, 5)),
        ("ring-of-cliques", ring_of_cliques(24, 6)),
        ("core-onion", Family::CoreOnion.generate(300, 5)),
    ];
    for (label, g) in &workloads {
        let n = g.num_vertices();
        let mut reference_cluster = kernel_cluster(n);
        let reference = partial_layer_assignment(g, 256, 3, 4, 3, &mut reference_cluster).unwrap();
        for jobs in JOB_COUNTS {
            let mut cluster = kernel_cluster(n);
            let r = partial_layer_assignment_staged(
                g,
                256,
                3,
                4,
                3,
                &mut cluster,
                &StageExecutor::new(jobs),
            )
            .unwrap();
            assert_eq!(r.layering, reference.layering, "{label}/jobs{jobs}");
            assert_eq!(
                r.exponentiation.trees, reference.exponentiation.trees,
                "{label}/jobs{jobs}"
            );
            assert_eq!(
                cluster.metrics(),
                reference_cluster.metrics(),
                "{label}/jobs{jobs}"
            );
        }
    }
}

fn assert_driver_bit_identical(graph: &Graph, label: &str) {
    // Single-instance drivers: Params::jobs goes entirely to vertex stages.
    let params = Params::practical(graph.num_vertices()).with_jobs(1);
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
    assert_driver_bit_identical(&gnm(400, 1600, 7), "gnm");
    assert_driver_bit_identical(&ring_of_cliques(40, 6), "ring-of-cliques");
}

#[test]
fn two_tier_jobs_split_bit_identical_on_core_onion() {
    // The coreness ladder fans instances across the outer budget while each
    // guess's vertex stages use the inner budget (split_jobs); the estimate
    // must not depend on the split, and must stay sound against the onion's
    // exact ground truth.
    let (g, truth) = core_onion_with_truth(400, 6, 3);
    let params = Params::practical(400).with_jobs(1);
    let reference =
        approximate_coreness_on::<SequentialBackend>(&g, 0.5, &params).expect("coreness succeeds");
    for (v, &t) in truth.iter().enumerate() {
        assert!(
            reference.estimate[v] >= t,
            "v={v}: estimate {} below exact coreness {t}",
            reference.estimate[v]
        );
    }
    for jobs in JOB_COUNTS {
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
