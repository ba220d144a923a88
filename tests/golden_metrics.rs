//! Golden metrics: the metering of fixed runs, pinned to recorded values.
//!
//! `backend_equivalence` checks the raw exchange against a model, and the
//! `instance_parallel` and `stage_parallel` suites compare job counts with
//! each other, so a metering drift in the algorithm layer — the Algorithm 4
//! min-combine, the Lemma 4.1 gather cost model — would pass them all.
//! These runs pin the absolute figures instead: rounds, communication
//! volume, the worst round load, the Lemma 4.1 bundle words, and a digest
//! of the per-round log. The layering, orientation and coloring runs also
//! pin every `LayeringStats` field and an output digest, so the Lemma 3.15
//! stage loop and the λ̂ plumbing around it cannot drift unnoticed. The
//! direct LOCAL→MPC baseline of experiment E1 and the host-side min-degree
//! peel behind λ̂ and exact coreness are pinned the same way. Any change to
//! them is a change to what the simulator certifies and must be deliberate.

use dgo::core::{
    approximate_coreness, color, complete_layering, orient, partial_layer_assignment,
    LayeringStats, Params,
};
use dgo::graph::generators::{barabasi_albert, gnm, planted_dense, random_tree, star};
use dgo::graph::{coreness, degeneracy};
use dgo::local::direct_peeling_mpc;
use dgo::mpc::{Cluster, ClusterConfig, Metrics};
use dgo::LayerAssignment;

/// FNV-1a over the little-endian bytes of `words`, in order.
fn fnv1a(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for word in words {
        for byte in word.to_le_bytes() {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0100_0000_01b3);
        }
    }
    hash
}

/// FNV-1a over every field of every round-log entry, in order.
fn round_log_digest(metrics: &Metrics) -> u64 {
    fnv1a(metrics.round_log.iter().flat_map(|entry| {
        [
            entry.round,
            entry.total_words as u64,
            entry.max_sent as u64,
            entry.max_received as u64,
        ]
    }))
}

/// The pinned figures of one run, in a form `assert_eq!` prints whole.
#[derive(Debug, PartialEq, Eq)]
struct Golden {
    rounds: u64,
    total_comm_words: usize,
    max_round_load: usize,
    bundle_wire_words: usize,
    bundle_flat_words: usize,
    round_log_len: usize,
    round_log_digest: u64,
}

fn golden(metrics: &Metrics) -> Golden {
    Golden {
        rounds: metrics.rounds,
        total_comm_words: metrics.total_comm_words,
        max_round_load: metrics.max_round_load,
        bundle_wire_words: metrics.bundle_wire_words,
        bundle_flat_words: metrics.bundle_flat_words,
        round_log_len: metrics.round_log.len(),
        round_log_digest: round_log_digest(metrics),
    }
}

#[test]
fn partial_layer_assignment_metrics_are_pinned() {
    // Algorithm 4 on G(1500, 4500): Algorithm 2's gathers, then the one
    // real exchange (the min-combine) on a cluster wider than the proposal
    // count.
    let g = gnm(1500, 4500, 17);
    let mut cluster = Cluster::new(ClusterConfig::new(4096, 8192));
    let r = partial_layer_assignment(&g, 256, 3, 4, 3, &mut cluster).expect("fits");
    let layer_sum: u64 = (0..g.num_vertices())
        .map(|v| u64::from(r.layering.layer(v)))
        .sum();
    assert_eq!(
        (r.layering.num_assigned(), layer_sum),
        (1500, 1510),
        "layering changed"
    );
    assert_eq!(
        golden(cluster.metrics()),
        Golden {
            rounds: 15,
            total_comm_words: 67_238,
            max_round_load: 38,
            bundle_wire_words: 11_665,
            bundle_flat_words: 49_294,
            round_log_len: 15,
            round_log_digest: 16_141_075_492_424_634_349,
        }
    );
}

#[test]
fn approximate_coreness_metrics_are_pinned() {
    // The coreness ladder on a planted dense core: the low guesses run
    // Stage-2 stages, so the min-combine exchange and the gathers meter.
    let g = planted_dense(3000, 9000, 40, 5);
    let params = Params::practical(g.num_vertices()).with_jobs(1);
    let r = approximate_coreness(&g, 0.5, &params).expect("coreness");
    let estimate_sum: u64 = r.estimate.iter().map(|&e| u64::from(e)).sum();
    assert_eq!(estimate_sum, 19_320, "estimate changed");
    assert_eq!(r.guesses, [1, 2, 3, 4, 6, 8, 12, 18, 26, 39]);
    // The ladder's result merges one backend per guess, and merged metrics
    // keep no per-round log, so the pinned log is the empty one.
    assert_eq!(
        golden(&r.metrics),
        Golden {
            rounds: 33,
            total_comm_words: 208_835,
            max_round_load: 14,
            bundle_wire_words: 3_573,
            bundle_flat_words: 12_380,
            round_log_len: 0,
            round_log_digest: 14_695_981_039_346_656_037,
        }
    );
}

fn layer_sum(layering: &LayerAssignment) -> u64 {
    (0..layering.len())
        .map(|v| u64::from(layering.layer(v)))
        .sum()
}

#[test]
fn complete_layering_with_fallback_is_pinned() {
    // λ-hint 1 on a planted dense core: Stage 1 peels the sparse
    // background, boosted Stage-2 stages run Algorithms 1-4, and the core
    // stalls them into escalating fallback peels.
    let g = planted_dense(3000, 9000, 40, 5);
    let mut params = Params::practical(g.num_vertices()).with_jobs(1);
    params.lambda_hint = 1;
    let out = complete_layering(&g, &params).expect("layering");
    assert_eq!(
        out.stats,
        LayeringStats {
            lambda_hat: 1,
            k: 2,
            initial_peel_rounds: 2,
            stages: 7,
            fallback_rounds: 5,
            layers: 7,
            final_budget: 16,
        }
    );
    assert_eq!(layer_sum(&out.layering), 10_345, "layering changed");
    assert_eq!(
        golden(&out.metrics),
        Golden {
            rounds: 71,
            total_comm_words: 25_615,
            max_round_load: 14,
            bundle_wire_words: 1_788,
            bundle_flat_words: 6_344,
            round_log_len: 71,
            round_log_digest: 606_813_836_435_427_324,
        }
    );
}

#[test]
fn orient_edge_partition_path_is_pinned() {
    // λ̂ estimated on the planted core: k / log₂ n exceeds 1, so Theorem
    // 1.1 splits the edges and lays out every part on its own.
    let g = planted_dense(3000, 9000, 40, 5);
    let params = Params::practical(g.num_vertices()).with_jobs(1);
    let r = orient(&g, &params).expect("orient");
    assert_eq!(r.parts, 4);
    assert_eq!(r.orientation.max_out_degree(), 45, "orientation changed");
    let part = |lambda_hat: usize| LayeringStats {
        lambda_hat,
        k: 2 * lambda_hat,
        initial_peel_rounds: 2,
        stages: 0,
        fallback_rounds: 0,
        layers: 2,
        final_budget: 16,
    };
    assert_eq!(r.stats, vec![part(7), part(7), part(6), part(7)]);
    assert_eq!(
        golden(&r.metrics),
        Golden {
            rounds: 4,
            total_comm_words: 31_252,
            max_round_load: 2,
            bundle_wire_words: 0,
            bundle_flat_words: 0,
            round_log_len: 0,
            round_log_digest: 14_695_981_039_346_656_037,
        }
    );
}

#[test]
fn color_single_graph_path_is_pinned() {
    // λ̂ = 4 on G(1500, 4500): one part, so the λ̂ estimate feeds the
    // single-graph layering directly.
    let g = gnm(1500, 4500, 17);
    let params = Params::practical(g.num_vertices()).with_jobs(1);
    let r = color(&g, &params).expect("color");
    assert_eq!(r.stats.parts, 1);
    assert_eq!(r.coloring.num_colors(), 24, "coloring changed");
    assert_eq!(
        r.stats.layering_stats,
        vec![LayeringStats {
            lambda_hat: 4,
            k: 8,
            initial_peel_rounds: 2,
            stages: 0,
            fallback_rounds: 0,
            layers: 2,
            final_budget: 16,
        }]
    );
    assert_eq!(
        golden(&r.metrics),
        Golden {
            rounds: 16,
            total_comm_words: 27_071,
            max_round_load: 12,
            bundle_wire_words: 0,
            bundle_flat_words: 0,
            round_log_len: 4,
            round_log_digest: 17_821_022_933_567_172_338,
        }
    );
}

#[test]
fn direct_peeling_mpc_is_pinned() {
    // E1's Θ(log n) baseline: per BE08 layer, one announcement round plus an
    // aggregation tree carrying the degree decrements.
    let tree = random_tree(4000, 2);
    let cfg = ClusterConfig::for_graph(tree.num_vertices(), tree.num_edges(), 0.6);
    let r = direct_peeling_mpc(&tree, 1, 0.5, cfg).expect("fits");
    assert_eq!(layer_sum(&r.layering), 4_287, "layering changed");
    assert_eq!(
        golden(&r.metrics),
        Golden {
            rounds: 6,
            total_comm_words: 18_436,
            max_round_load: 32,
            bundle_wire_words: 0,
            bundle_flat_words: 0,
            round_log_len: 6,
            round_log_digest: 1_066_088_911_025_988_819,
        }
    );

    let g = gnm(1000, 2000, 7);
    let cfg = ClusterConfig::for_graph(g.num_vertices(), g.num_edges(), 0.6);
    let r = direct_peeling_mpc(&g, 4, 0.5, cfg).expect("fits");
    assert_eq!(layer_sum(&r.layering), 1_004, "layering changed");
    assert_eq!(
        golden(&r.metrics),
        Golden {
            rounds: 6,
            total_comm_words: 6_924,
            max_round_load: 16,
            bundle_wire_words: 0,
            bundle_flat_words: 0,
            round_log_len: 6,
            round_log_digest: 7_026_151_544_184_869_321,
        }
    );

    // Two 16-word machines can hold neither the star nor its centre's 499
    // decrements; a relaxed cluster counts each violation strict mode would
    // raise.
    let cfg = ClusterConfig::new(2, 16).relaxed();
    let r = direct_peeling_mpc(&star(500), 1, 0.5, cfg).expect("relaxed");
    assert_eq!(r.metrics.violations, 3);
}

#[test]
fn degeneracy_and_coreness_are_pinned() {
    // The min-degree peel's tie order feeds λ̂ through the densest peeling
    // suffix, so the whole order is pinned, not only the degeneracy.
    let digest = |g: &dgo::Graph| {
        let d = degeneracy(g);
        (
            d.value,
            fnv1a(d.order.iter().map(|&v| v as u64)),
            fnv1a(coreness(g).into_iter().map(u64::from)),
        )
    };
    assert_eq!(
        digest(&planted_dense(3000, 9000, 40, 5)),
        (39, 258_658_135_846_995_285, 9_788_273_599_913_914_180)
    );
    assert_eq!(
        digest(&barabasi_albert(2000, 4, 3)),
        (4, 4_596_887_109_944_887_721, 16_658_179_998_097_379_621)
    );
}
