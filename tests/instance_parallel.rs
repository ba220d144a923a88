//! Instance-layer contract tests.
//!
//! The multi-instance execution layer (`dgo_mpc::instance`) promises two
//! things:
//!
//! 1. **Composition algebra** — [`Metrics::merge_parallel`] is the paper's
//!    parallel-composition semantics (max rounds, summed volume and memory),
//!    which must be commutative and associative with the all-zero metrics as
//!    identity, so composing a group of instances is order-independent.
//!    Property-tested on arbitrary metrics here.
//! 2. **Bit-identical concurrency** — the concurrent coreness guess ladder
//!    and the concurrent per-part orientation produce exactly the outputs of
//!    the sequential host loop at any `jobs` count.

use dgo::core::{
    approximate_coreness_on, color_on, layering_config, orient_on, partial_layering_bounded_in,
    Params,
};
use dgo::graph::generators::{clique, gnm, planted_dense};
use dgo::graph::{degeneracy, Graph};
use dgo::mpc::{ExecutionBackend, Metrics, SequentialBackend};
use proptest::prelude::*;

/// Arbitrary scalar metrics. `merge_parallel` composes the scalar counters
/// (the per-round log is a per-instance trace and is not merged), so the
/// algebra is stated on metrics with empty logs.
fn arb_metrics() -> impl Strategy<Value = Metrics> {
    (
        (0u64..1_000, 0u64..50),
        0usize..100_000,
        0usize..5_000,
        0usize..5_000,
        0usize..100_000,
    )
        .prop_map(
            |(
                (rounds, violations),
                total_comm_words,
                max_round_load,
                peak_machine,
                peak_global,
            )| {
                Metrics {
                    rounds,
                    total_comm_words,
                    max_round_load,
                    peak_machine_memory: peak_machine,
                    peak_global_memory: peak_global,
                    // Derived from the generated peaks so the max-merge
                    // algebra is exercised on this field too.
                    peak_tree_bytes: peak_machine / 2 + peak_global / 4,
                    // Derived from the generated volume so the summing-merge
                    // algebra is exercised on the bundle counters too.
                    bundle_wire_words: total_comm_words / 3,
                    bundle_flat_words: total_comm_words / 2,
                    violations,
                    round_log: Vec::new(),
                }
            },
        )
}

fn merged(a: &Metrics, b: &Metrics) -> Metrics {
    let mut out = a.clone();
    out.merge_parallel(b);
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn merge_parallel_is_commutative(a in arb_metrics(), b in arb_metrics()) {
        prop_assert_eq!(merged(&a, &b), merged(&b, &a));
    }

    #[test]
    fn merge_parallel_is_associative(
        a in arb_metrics(),
        b in arb_metrics(),
        c in arb_metrics(),
    ) {
        prop_assert_eq!(merged(&merged(&a, &b), &c), merged(&a, &merged(&b, &c)));
    }

    #[test]
    fn merge_parallel_has_zero_identity(a in arb_metrics()) {
        prop_assert_eq!(merged(&Metrics::new(), &a), a.clone());
        prop_assert_eq!(merged(&a, &Metrics::new()), a);
    }
}

/// The pre-refactor sequential guess ladder, reconstructed from public API:
/// one bounded certificate run per `(1+ε)^i` guess, estimates min-folded in
/// guess order, metrics parallel-merged in guess order. This is the
/// reference the concurrent `InstanceGroup` ladder must reproduce exactly.
fn sequential_reference_ladder(
    graph: &Graph,
    eps: f64,
    params: &Params,
) -> (Vec<u32>, Vec<usize>, Metrics) {
    let n = graph.num_vertices();
    let max_core = degeneracy(graph).value.max(1);
    let mut guesses: Vec<usize> = Vec::new();
    let mut g = 1.0f64;
    loop {
        let guess = g.ceil() as usize;
        if guesses.last() != Some(&guess) {
            guesses.push(guess);
        }
        if guess >= max_core {
            break;
        }
        g *= 1.0 + eps;
    }

    let mut estimate = vec![max_core as u32; n];
    let mut metrics = Metrics::new();
    for &guess in &guesses {
        let mut run_params = params.clone();
        run_params.lambda_hint = guess;
        let mut cluster = SequentialBackend::from_config(layering_config(graph, &run_params));
        let (layering, _) = partial_layering_bounded_in(graph, &run_params, 8, &mut cluster)
            .expect("bounded layering succeeds");
        if layering.num_assigned() > 0 {
            let witness = layering
                .out_degree_bound(graph)
                .expect("bound computes")
                .max(1) as u32;
            for (v, e) in estimate.iter_mut().enumerate() {
                if layering.is_assigned(v) {
                    *e = (*e).min(witness);
                }
            }
        }
        metrics.merge_parallel(&cluster.into_metrics());
    }
    (estimate, guesses, metrics)
}

fn assert_ladder_matches_reference(graph: &Graph, label: &str) {
    let params = Params::practical(graph.num_vertices());
    let (ref_estimate, ref_guesses, ref_metrics) = sequential_reference_ladder(graph, 0.5, &params);
    for jobs in [1usize, 2, 8, 0] {
        let context = format!("{label}/jobs{jobs}");
        let r = approximate_coreness_on::<SequentialBackend>(
            graph,
            0.5,
            &params.clone().with_jobs(jobs),
        )
        .expect("coreness succeeds");
        assert_eq!(r.estimate, ref_estimate, "{context}: estimates differ");
        assert_eq!(r.guesses, ref_guesses, "{context}: guess ladders differ");
        assert_eq!(r.metrics, ref_metrics, "{context}: merged metrics differ");
    }
}

#[test]
fn concurrent_ladder_bit_identical_to_sequential_loop() {
    for (label, g) in [
        ("gnm", gnm(400, 1600, 7)),
        ("planted_dense", planted_dense(600, 1200, 25, 3)),
        ("gnm-500", gnm(500, 2000, 11)),
    ] {
        assert_ladder_matches_reference(&g, label);
    }
}

#[test]
fn concurrent_coloring_parts_bit_identical_across_jobs() {
    // K80 forces the Lemma 2.2 vertex-partition path, so the per-part
    // coloring pipelines fan across host threads.
    let g = clique(80);
    let mut params = Params::practical(80);
    params.exact_arboricity_threshold = 100;

    let baseline = color_on::<SequentialBackend>(&g, &params).expect("color succeeds");
    assert!(
        baseline.stats.parts > 1,
        "expected the vertex-partition path"
    );
    for jobs in [2usize, 8, 0] {
        let r = color_on::<SequentialBackend>(&g, &params.clone().with_jobs(jobs))
            .expect("color succeeds");
        assert_eq!(
            r.coloring, baseline.coloring,
            "jobs{jobs}: colorings differ"
        );
        assert_eq!(r.metrics, baseline.metrics, "jobs{jobs}: metrics differ");
        assert_eq!(r.stats, baseline.stats, "jobs{jobs}: stats differ");
    }
}

#[test]
fn concurrent_orientation_parts_bit_identical_across_jobs() {
    // K64 forces the Theorem 1.1 edge-partition path (λ = 32 > log₂ 64), so
    // the per-part layerings run as a host-parallel instance group.
    let g = clique(64);
    let mut params = Params::practical(64);
    params.exact_arboricity_threshold = 100;

    let baseline = orient_on::<SequentialBackend>(&g, &params).expect("orient succeeds");
    assert!(baseline.parts > 1, "expected the edge-partition path");
    for jobs in [2usize, 8, 0] {
        let r = orient_on::<SequentialBackend>(&g, &params.clone().with_jobs(jobs))
            .expect("orient succeeds");
        assert_eq!(
            r.orientation, baseline.orientation,
            "jobs{jobs}: orientations differ"
        );
        assert_eq!(r.metrics, baseline.metrics, "jobs{jobs}: metrics differ");
        assert_eq!(r.stats, baseline.stats, "jobs{jobs}: stats differ");
    }
}
