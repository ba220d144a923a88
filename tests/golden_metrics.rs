//! Golden metrics: the metering of fixed runs, pinned to recorded values.
//!
//! `backend_equivalence` checks the min-combine and residency checkpoints
//! against models, and the `instance_parallel` and `stage_parallel` suites
//! compare job counts with each other, so a metering drift in the algorithm
//! layer — the Algorithm 4 min-combine, the Lemma 4.1 gather cost model —
//! would pass them all.
//! These runs pin the absolute figures instead: rounds, communication
//! volume, the worst round load, the Lemma 4.1 bundle words, a digest of
//! the per-round log, and the residency the checkpoints record — the peak
//! machine and global memory, the peak tree-arena bytes, and the violation
//! count of relaxed clusters. The layering, orientation and coloring runs also
//! pin every `LayeringStats` field and an output digest, so the Lemma 3.15
//! stage loop and the λ̂ plumbing around it cannot drift unnoticed. The
//! direct LOCAL→MPC baseline of experiment E1 and the host-side min-degree
//! peel behind λ̂ and exact coreness are pinned the same way. Any change to
//! them is a change to what the simulator certifies and must be deliberate.

use dgo::core::{
    approximate_coreness, color, complete_layering, orient, partial_layer_assignment_staged,
    LayeringStats, Params, StageExecutor,
};
use dgo::graph::generators::{barabasi_albert, gnm, planted_dense, random_tree, star};
use dgo::graph::{coreness, degeneracy};
use dgo::local::direct_peeling_mpc;
use dgo::mpc::{Cluster, ClusterConfig, Metrics};
use dgo::{Graph, LayerAssignment, Orientation};

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
    peak_machine_memory: usize,
    peak_global_memory: usize,
    peak_tree_bytes: usize,
    violations: u64,
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
        peak_machine_memory: metrics.peak_machine_memory,
        peak_global_memory: metrics.peak_global_memory,
        peak_tree_bytes: metrics.peak_tree_bytes,
        violations: metrics.violations,
    }
}

#[test]
fn partial_layer_assignment_metrics_are_pinned() {
    // Algorithm 4 on G(1500, 4500): Algorithm 2's gathers, then the
    // min-combine's counted round on a cluster wider than the proposal
    // count.
    let g = gnm(1500, 4500, 17);
    let mut cluster = Cluster::new(ClusterConfig::new(4096, 8192));
    let stage = StageExecutor::sequential();
    let r = partial_layer_assignment_staged(&g, 256, 3, 4, 3, &mut cluster, &stage).expect("fits");
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
            peak_machine_memory: 133,
            peak_global_memory: 61_190,
            peak_tree_bytes: 520,
            violations: 0,
        }
    );
}

#[test]
fn approximate_coreness_metrics_are_pinned() {
    // The coreness ladder on a planted dense core: the low guesses run
    // Stage-2 stages, so the min-combine and the gathers meter.
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
            peak_machine_memory: 34,
            peak_global_memory: 279_630,
            peak_tree_bytes: 120,
            violations: 0,
        }
    );
}

/// FNV-1a over the direction of every edge of `graph`, in `graph.edges()`
/// order: 1 for `u -> v`, 0 for `v -> u`, 2 for an edge left unoriented.
fn direction_digest(graph: &Graph, orientation: &Orientation) -> u64 {
    fnv1a(
        graph
            .edges()
            .map(|(u, v)| match orientation.direction(graph, u, v) {
                Some(true) => 1,
                Some(false) => 0,
                None => 2,
            }),
    )
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
            peak_machine_memory: 34,
            peak_global_memory: 63_324,
            peak_tree_bytes: 120,
            violations: 0,
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
        direction_digest(&g, &r.orientation),
        1_444_104_092_522_987_908,
        "orientation changed"
    );
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
            peak_machine_memory: 2,
            peak_global_memory: 39_956,
            peak_tree_bytes: 0,
            violations: 0,
        }
    );
}

#[test]
fn orient_single_graph_path_with_stage_two_is_pinned() {
    // λ-hint 1 on BA(2000, 4): k = 2 stays below log₂ n, so one part, and
    // Stage 1 leaves the hubs to boosted Stage-2 stages.
    let g = barabasi_albert(2000, 4, 3);
    let mut params = Params::practical(g.num_vertices()).with_jobs(1);
    params.lambda_hint = 1;
    let r = orient(&g, &params).expect("orient");
    assert_eq!(r.parts, 1);
    assert_eq!(r.orientation.max_out_degree(), 6, "orientation changed");
    assert_eq!(
        direction_digest(&g, &r.orientation),
        15_526_342_045_731_027_333,
        "orientation changed"
    );
    assert_eq!(
        r.stats,
        vec![LayeringStats {
            lambda_hat: 1,
            k: 2,
            initial_peel_rounds: 0,
            stages: 4,
            fallback_rounds: 0,
            layers: 7,
            final_budget: 16,
        }]
    );
    assert_eq!(
        golden(&r.metrics),
        Golden {
            rounds: 39,
            total_comm_words: 20_024,
            max_round_load: 12,
            bundle_wire_words: 1_523,
            bundle_flat_words: 5_568,
            round_log_len: 39,
            round_log_digest: 13_605_105_197_559_445_424,
            peak_machine_memory: 37,
            peak_global_memory: 47_139,
            peak_tree_bytes: 128,
            violations: 0,
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
            peak_machine_memory: 4,
            peak_global_memory: 11_632,
            peak_tree_bytes: 0,
            violations: 0,
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
            peak_machine_memory: 52,
            peak_global_memory: 15_998,
            peak_tree_bytes: 0,
            violations: 0,
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
            peak_machine_memory: 22,
            peak_global_memory: 6_000,
            peak_tree_bytes: 0,
            violations: 0,
        }
    );

    // Two 16-word machines can hold neither the star nor its centre's 499
    // decrements; a relaxed cluster counts each violation strict mode would
    // raise.
    let cfg = ClusterConfig::new(2, 16).relaxed();
    let r = direct_peeling_mpc(&star(500), 1, 0.5, cfg).expect("relaxed");
    assert_eq!(
        golden(&r.metrics),
        Golden {
            rounds: 4,
            total_comm_words: 1_000,
            max_round_load: 499,
            bundle_wire_words: 0,
            bundle_flat_words: 0,
            round_log_len: 4,
            round_log_digest: 438_083_282_099_755_090,
            peak_machine_memory: 1_000,
            peak_global_memory: 1_998,
            peak_tree_bytes: 0,
            violations: 3,
        }
    );
}

#[test]
fn partial_layer_assignment_on_narrow_relaxed_clusters_is_pinned() {
    // Algorithm 4 on clusters with fewer machines than vertices: the tree
    // checkpoints deal more than one tree to each machine, and with 7
    // machines the residency and the rounds overflow `S`, so the relaxed
    // cluster counts violations instead of failing.
    let g = gnm(600, 1800, 23);
    let stage = StageExecutor::sequential();
    let mut pinned = Vec::new();
    for (machines, memory) in [(64, 4096), (7, 1024)] {
        let mut cluster = Cluster::new(ClusterConfig::new(machines, memory).relaxed());
        let r = partial_layer_assignment_staged(&g, 256, 3, 4, 3, &mut cluster, &stage)
            .expect("relaxed");
        pinned.push((layer_sum(&r.layering), golden(cluster.metrics())));
    }
    assert_eq!(
        pinned,
        [
            (
                606,
                Golden {
                    rounds: 15,
                    total_comm_words: 26_920,
                    max_round_load: 97,
                    bundle_wire_words: 4_705,
                    bundle_flat_words: 19_998,
                    round_log_len: 15,
                    round_log_digest: 5_711_466_140_278_851_155,
                    peak_machine_memory: 456,
                    peak_global_memory: 23_992,
                    peak_tree_bytes: 1_560,
                    violations: 0,
                }
            ),
            (
                606,
                Golden {
                    rounds: 15,
                    total_comm_words: 26_894,
                    max_round_load: 885,
                    bundle_wire_words: 4_705,
                    bundle_flat_words: 19_998,
                    round_log_len: 15,
                    round_log_digest: 13_786_699_049_205_869_251,
                    peak_machine_memory: 3_478,
                    peak_global_memory: 23_968,
                    peak_tree_bytes: 11_512,
                    violations: 21,
                }
            ),
        ]
    );
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
