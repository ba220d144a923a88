//! Backend-equivalence property tests.
//!
//! The contract of the execution-backend refactor: [`SequentialBackend`] and
//! [`ParallelBackend`] are *observationally identical*. Every property here
//! runs the same computation on both backends and asserts bit-identical
//! outputs — orientations, colorings, layerings, coreness estimates — and
//! bit-identical MPC metrics (rounds, communication volume, per-round loads,
//! memory peaks), across the gnm, Barabási–Albert, and planted-forest
//! workload families and many seeds. The parallel backend is additionally
//! swept across thread counts (1, 2, 7): the fan-out is purely a scheduling
//! decision and must never show in the results.

use dgo::core::{
    approximate_coreness_on, color_on, complete_layering_on, exponentiate_and_prune, orient_on,
    partial_layer_assignment, Params,
};
use dgo::graph::generators::{barabasi_albert, gnm, random_forest};
use dgo::graph::Graph;
use dgo::local::direct_peeling_mpc_on;
use dgo::mpc::{
    ClusterConfig, ExecutionBackend, Metrics, MpcError, ParallelBackend, PerMachine,
    SequentialBackend,
};
use proptest::prelude::*;

const SEEDS: [u64; 4] = [1, 7, 42, 0xD60];

/// The thread counts the acceptance contract sweeps (inline, an even split,
/// and a ragged odd split).
const THREAD_COUNTS: [usize; 3] = [1, 2, 7];

/// The three generator families the equivalence contract is checked on.
fn workloads(n: usize, seed: u64) -> Vec<(&'static str, Graph)> {
    vec![
        ("gnm", gnm(n, 3 * n, seed)),
        ("barabasi_albert", barabasi_albert(n, 3, seed)),
        (
            "planted_forest",
            random_forest(n, 1 + (seed as usize % 7), seed),
        ),
    ]
}

/// Asserts full metric equality with a readable context label.
fn assert_metrics_eq(context: &str, seq: &Metrics, par: &Metrics) {
    assert_eq!(seq.rounds, par.rounds, "{context}: rounds differ");
    assert_eq!(
        seq.total_comm_words, par.total_comm_words,
        "{context}: communication volume differs"
    );
    assert_eq!(
        seq.max_round_load, par.max_round_load,
        "{context}: round load differs"
    );
    assert_eq!(
        seq.peak_machine_memory, par.peak_machine_memory,
        "{context}: machine memory peak differs"
    );
    assert_eq!(
        seq.peak_global_memory, par.peak_global_memory,
        "{context}: global memory peak differs"
    );
    assert_eq!(
        seq.violations, par.violations,
        "{context}: violation counts differ"
    );
    assert_eq!(
        seq.round_log, par.round_log,
        "{context}: per-round logs differ"
    );
}

#[test]
fn orientations_bit_identical_across_families_and_seeds() {
    for seed in SEEDS {
        for (family, g) in workloads(600, seed) {
            let params = Params::practical(g.num_vertices());
            let context = format!("orient/{family}/seed{seed}");
            let seq = orient_on::<SequentialBackend>(&g, &params).expect("sequential orient");
            let par = orient_on::<ParallelBackend>(&g, &params).expect("parallel orient");
            seq.orientation.validate(&g).expect("valid orientation");
            assert_eq!(
                seq.orientation, par.orientation,
                "{context}: orientations differ"
            );
            assert_eq!(seq.layering, par.layering, "{context}: layerings differ");
            assert_eq!(seq.stats, par.stats, "{context}: stats differ");
            assert_metrics_eq(&context, &seq.metrics, &par.metrics);
        }
    }
}

#[test]
fn colorings_bit_identical_across_families_and_seeds() {
    for seed in SEEDS {
        for (family, g) in workloads(500, seed) {
            let params = Params::practical(g.num_vertices());
            let context = format!("color/{family}/seed{seed}");
            let seq = color_on::<SequentialBackend>(&g, &params).expect("sequential color");
            let par = color_on::<ParallelBackend>(&g, &params).expect("parallel color");
            seq.coloring.validate(&g).expect("proper coloring");
            assert_eq!(seq.coloring, par.coloring, "{context}: colorings differ");
            assert_eq!(seq.stats, par.stats, "{context}: stats differ");
            assert_metrics_eq(&context, &seq.metrics, &par.metrics);
        }
    }
}

#[test]
fn layerings_and_coreness_bit_identical() {
    for seed in [3u64, 11] {
        for (family, g) in workloads(400, seed) {
            let params = Params::practical(g.num_vertices());
            let context = format!("layering/{family}/seed{seed}");
            let seq = complete_layering_on::<SequentialBackend>(&g, &params).expect("layering");
            let par = complete_layering_on::<ParallelBackend>(&g, &params).expect("layering");
            assert_eq!(seq.layering, par.layering, "{context}: layerings differ");
            assert_metrics_eq(&context, &seq.metrics, &par.metrics);

            let context = format!("coreness/{family}/seed{seed}");
            let seq =
                approximate_coreness_on::<SequentialBackend>(&g, 0.5, &params).expect("coreness");
            let par =
                approximate_coreness_on::<ParallelBackend>(&g, 0.5, &params).expect("coreness");
            assert_eq!(seq.estimate, par.estimate, "{context}: estimates differ");
            assert_eq!(seq.guesses, par.guesses, "{context}: guess ladders differ");
            assert_metrics_eq(&context, &seq.metrics, &par.metrics);
        }
    }
}

#[test]
fn parallel_layerings_bit_identical_across_thread_counts() {
    for threads in THREAD_COUNTS {
        for (family, g) in workloads(400, 11) {
            let params = Params::practical(g.num_vertices());
            // Explicit construction pins the thread count per backend.
            let context = format!("layering/{family}/threads{threads}");
            let config = dgo::core::layering_config(&g, &params);
            let mut seq = SequentialBackend::new(config);
            let mut par = ParallelBackend::new(config).with_threads(threads);
            let seq_out = dgo::core::complete_layering_in(&g, &params, &mut seq).expect("layering");
            let par_out = dgo::core::complete_layering_in(&g, &params, &mut par).expect("layering");
            assert_eq!(seq_out.0, par_out.0, "{context}: layerings differ");
            assert_eq!(seq_out.1, par_out.1, "{context}: stats differ");
            assert_metrics_eq(&context, seq.metrics(), par.metrics());
        }
    }
}

#[test]
fn direct_baseline_bit_identical() {
    for seed in [5u64, 23] {
        let g = gnm(900, 2700, seed);
        let cfg = ClusterConfig::for_graph(g.num_vertices(), g.num_edges(), 0.6);
        let context = format!("direct_peeling/seed{seed}");
        let seq = direct_peeling_mpc_on::<SequentialBackend>(&g, 4, 0.5, cfg).expect("baseline");
        let par = direct_peeling_mpc_on::<ParallelBackend>(&g, 4, 0.5, cfg).expect("baseline");
        assert_eq!(seq.layering, par.layering, "{context}: layerings differ");
        assert_metrics_eq(&context, &seq.metrics, &par.metrics);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Raw exchange equivalence on arbitrary traffic: same inboxes (in the
    /// deterministic (source, production) order) and same metrics on both
    /// backends, the parallel one at an arbitrary thread count.
    #[test]
    fn exchange_equivalence(
        machines in 1usize..24,
        per_machine in 0usize..40,
        threads in 1usize..9,
        seed in any::<u64>(),
    ) {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let outbox: PerMachine<(usize, u64)> = (0..machines)
            .map(|_| {
                (0..per_machine)
                    .map(|_| (rng.random_range(0..machines), rng.random::<u64>() % 1000))
                    .collect()
            })
            .collect::<Vec<Vec<_>>>()
            .into();
        let config = ClusterConfig::new(machines, 1 << 16);
        let mut seq = SequentialBackend::new(config);
        let mut par = ParallelBackend::new(config).with_threads(threads);
        let seq_inbox = ExecutionBackend::exchange(&mut seq, outbox.clone()).unwrap();
        let par_inbox = par.exchange(outbox).unwrap();
        prop_assert_eq!(&seq_inbox, &par_inbox);
        prop_assert_eq!(seq.metrics(), par.metrics());
    }

    /// Error parity on starved clusters: both backends reject the same
    /// overloaded exchanges with the same error.
    #[test]
    fn exchange_error_parity(
        machines in 2usize..8,
        capacity in 1usize..6,
        threads in 1usize..9,
        seed in any::<u64>(),
    ) {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let outbox: PerMachine<(usize, u64)> = (0..machines)
            .map(|_| {
                (0..12).map(|_| (rng.random_range(0..machines), 1u64)).collect()
            })
            .collect::<Vec<Vec<_>>>()
            .into();
        let config = ClusterConfig::new(machines, capacity);
        let mut seq = SequentialBackend::new(config);
        let mut par = ParallelBackend::new(config).with_threads(threads);
        let seq_out: Result<_, MpcError> = ExecutionBackend::exchange(&mut seq, outbox.clone());
        let par_out = par.exchange(outbox);
        match (&seq_out, &par_out) {
            (Ok(a), Ok(b)) => prop_assert_eq!(a, b),
            (Err(a), Err(b)) => prop_assert_eq!(a, b),
            (a, b) => prop_assert!(false, "divergent outcomes: {a:?} vs {b:?}"),
        }
        prop_assert_eq!(seq.metrics(), par.metrics());
    }

    /// Algorithm-level equivalence on small random instances, including the
    /// exponentiation and partial-assignment building blocks.
    #[test]
    fn building_blocks_equivalence(
        n in 2usize..80,
        m in 0usize..200,
        k in 1usize..4,
        steps in 1u32..4,
        seed in any::<u64>(),
    ) {
        let g = gnm(n, m.min(n * (n - 1) / 2), seed);
        let mut seq = SequentialBackend::new(ClusterConfig::new(512, 4096));
        let mut par = ParallelBackend::new(ClusterConfig::new(512, 4096));
        let seq_exp = exponentiate_and_prune(&g, 64, k, steps, &mut seq).unwrap();
        let par_exp = exponentiate_and_prune(&g, 64, k, steps, &mut par).unwrap();
        prop_assert_eq!(&seq_exp.trees, &par_exp.trees);
        prop_assert_eq!(&seq_exp.active, &par_exp.active);
        prop_assert_eq!(seq.metrics(), par.metrics());

        let mut seq = SequentialBackend::new(ClusterConfig::new(512, 4096));
        let mut par = ParallelBackend::new(ClusterConfig::new(512, 4096));
        let seq_pla = partial_layer_assignment(&g, 64, k, 3, steps, &mut seq).unwrap();
        let par_pla = partial_layer_assignment(&g, 64, k, 3, steps, &mut par).unwrap();
        prop_assert_eq!(&seq_pla.layering, &par_pla.layering);
        prop_assert_eq!(seq.metrics(), par.metrics());
    }
}
