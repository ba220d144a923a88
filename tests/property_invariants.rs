//! Property-based tests (proptest) over the paper's structural invariants.
//!
//! Each property corresponds to a numbered claim:
//! * Claim 2.3 — min-combination preserves partial-layer validity.
//! * Claim 3.1 — pruning increases missing counts by at most k.
//! * Claims 3.3/3.4 — exponentiation preserves valid mappings within budget.
//! * Claim 3.12 — Algorithm 4's out-degree cap.
//! * Lemma 2.4 — path-count double counting and the `n·d^L` bound.
//! * \[BE08\] — `be08_peeling` is exactly the synchronous threshold peel.
//! * Generators — structural invariants of every workload family.

use dgo::core::{
    estimate_lambda, exponentiate_and_prune, local_prune, num_paths_in, num_paths_out,
    partial_layer_assignment, partition_edges, partition_vertices, Params, ViewTree,
};
use dgo::graph::generators::{gnm, random_forest, random_tree, Family};
use dgo::graph::{Graph, LayerAssignment, UNASSIGNED};
use dgo::local::{be08_peeling, PeelingResult};
use dgo::mpc::{Cluster, ClusterConfig};
use proptest::prelude::*;

/// Strategy: a random graph with 2..=60 vertices and moderate density.
fn arb_graph() -> impl Strategy<Value = Graph> {
    (2usize..60, 0usize..150, any::<u64>())
        .prop_map(|(n, m, seed)| gnm(n, m.min(n * (n - 1) / 2), seed))
}

/// A seed-derived pseudo-random partial layering over `n` vertices.
fn derived_layering(n: usize, seed: u64) -> LayerAssignment {
    let layers: Vec<u32> = (0..n as u64)
        .map(|v| {
            let h = seed
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .wrapping_add(v)
                .wrapping_mul(0xBF58_476D_1CE4_E5B9);
            match h % 7 {
                6 => UNASSIGNED,
                x => x as u32 + 1,
            }
        })
        .collect();
    LayerAssignment::new(layers).expect("1-based layers")
}

/// Checks that `r` is the synchronous \[BE08\] peel it claims to be: in
/// round `ℓ` a vertex still alive (layer `≥ ℓ`, with `UNASSIGNED` above
/// every layer) takes layer exactly `ℓ` iff at most `r.threshold` of its
/// neighbours are still alive. The round after the last is checked too, so
/// a stall must be genuine, unless the layer cap (`max_layers`, or the
/// default `4·⌈log₂ n⌉ + 8`) stopped the run. Returns the first violating
/// `(round, vertex)`.
fn be08_peel_violation(g: &Graph, r: &PeelingResult, max_layers: u64) -> Option<(u32, usize)> {
    let n = g.num_vertices();
    let cap = match max_layers {
        0 => 4 * (n.max(2) as f64).log2().ceil() as u64 + 8,
        cap => cap,
    };
    let last = if r.local_rounds < cap {
        r.local_rounds + 1
    } else {
        r.local_rounds
    };
    for round in 1..=last as u32 {
        for v in 0..n {
            let layer = r.layering.layer(v);
            if layer < round {
                continue;
            }
            let alive = g
                .neighbors(v)
                .iter()
                .filter(|&&w| r.layering.layer(w as usize) >= round)
                .count();
            if (layer == round) != (alive <= r.threshold) {
                return Some((round, v));
            }
        }
    }
    None
}

#[test]
fn be08_layers_are_the_threshold_peel_on_every_family() {
    // A stalling threshold (λ̂ = 1) and the estimated one on every family.
    for family in Family::ALL {
        let g = family.generate(3000, 7);
        let estimated = estimate_lambda(&g, &Params::practical(g.num_vertices())).max(1);
        for lambda_hat in [1, estimated] {
            let r = be08_peeling(&g, lambda_hat, 0.5, 0);
            assert_eq!(
                be08_peel_violation(&g, &r, 0),
                None,
                "{family}, λ̂ = {lambda_hat}"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn claim_2_3_min_combination_preserves_validity(
        g in arb_graph(),
        seed in any::<u64>(),
    ) {
        let n = g.num_vertices();
        let la = derived_layering(n, seed);
        let lb = {
            // A second, structurally different layering: BE08 peeling.
            let peel = be08_peeling(&g, 2 + (seed % 3) as usize, 0.5, 0);
            peel.layering
        };
        let da = la.out_degree_bound(&g).unwrap();
        let db = lb.out_degree_bound(&g).unwrap();
        let d = da.max(db);
        let combined = la.combine_min(&lb).unwrap();
        prop_assert!(combined.out_degree_bound(&g).unwrap() <= d);
    }

    #[test]
    fn claim_3_1_prune_missing_increase_bounded(
        g in arb_graph(),
        k in 1usize..5,
        root in 0usize..60,
    ) {
        let root = root % g.num_vertices();
        let t = ViewTree::star(root, g.neighbors(root));
        let p = local_prune(&t, k);
        p.assert_valid(&g);
        // Root missing grows by at most k... unless the root collapsed to a
        // singleton, in which case missing = deg(root) trivially.
        let before = t.missing_count(ViewTree::ROOT, &g);
        let after = p.missing_count(ViewTree::ROOT, &g);
        if p.len() > 1 {
            prop_assert!(after <= before + k);
        }
        prop_assert!(p.len() <= t.len());
    }

    #[test]
    fn claims_3_3_and_3_4_exponentiation_invariants(
        g in arb_graph(),
        k in 1usize..4,
        steps in 0u32..4,
    ) {
        let budget = 64usize;
        let mut cluster = Cluster::new(ClusterConfig::new(512, 4096));
        let r = exponentiate_and_prune(&g, budget, k, steps, &mut cluster).unwrap();
        for (v, t) in r.trees.iter().enumerate() {
            t.assert_valid(&g);                 // Claim 3.3
            prop_assert!(t.len() <= budget);    // Claim 3.4
            prop_assert_eq!(t.root_vertex(), v);
        }
    }

    #[test]
    fn claim_3_12_partial_assignment_outdegree(
        g in arb_graph(),
        k in 1usize..4,
        layers in 1u32..5,
        steps in 1u32..4,
    ) {
        let mut cluster = Cluster::new(ClusterConfig::new(512, 4096));
        let r = partial_layer_assignment(&g, 64, k, layers, steps, &mut cluster).unwrap();
        let cap = (steps as usize + 1) * k;
        prop_assert!(r.layering.out_degree_bound(&g).unwrap() <= cap);
    }

    #[test]
    fn lemma_2_4_double_counting(g in arb_graph(), t in 2usize..6) {
        let peel = be08_peeling(&g, t, 0.5, 0);
        let la = peel.layering;
        prop_assume!(la.is_complete());
        let sum_in: u64 = num_paths_in(&g, &la).iter().sum();
        let sum_out: u64 = num_paths_out(&g, &la).iter().sum();
        prop_assert_eq!(sum_in, sum_out);
        let d = la.out_degree_bound(&g).unwrap();
        let layers = la.max_layer().unwrap();
        prop_assert!(sum_out <= dgo::core::lemma_2_4_bound(g.num_vertices(), d, layers));
    }

    #[test]
    fn be08_layers_are_the_threshold_peel(
        g in arb_graph(),
        lambda_hat in 1usize..5,
        eps_halves in 0u32..3,
        max_layers in 0u64..4,
    ) {
        let r = be08_peeling(&g, lambda_hat, 0.5 * f64::from(eps_halves), max_layers);
        let violation = be08_peel_violation(&g, &r, max_layers);
        prop_assert!(violation.is_none(), "(round, vertex) = {violation:?}");
    }

    #[test]
    fn lemma_2_1_edge_partition_is_a_partition(
        g in arb_graph(),
        parts in 1usize..5,
        seed in any::<u64>(),
    ) {
        let pieces = partition_edges(&g, parts, seed);
        prop_assert_eq!(pieces.len(), parts);
        let total: usize = pieces.iter().map(|p| p.num_edges()).sum();
        prop_assert_eq!(total, g.num_edges());
        for p in &pieces {
            for (u, v) in p.edges() {
                prop_assert!(g.has_edge(u, v));
            }
        }
    }

    #[test]
    fn lemma_2_2_vertex_partition_is_a_partition(
        g in arb_graph(),
        parts in 1usize..5,
        seed in any::<u64>(),
    ) {
        let pieces = partition_vertices(&g, parts, seed);
        let covered: usize = pieces.iter().map(|p| p.mapping.len()).sum();
        prop_assert_eq!(covered, g.num_vertices());
    }

    #[test]
    fn forests_are_forests(n in 2usize..200, trees in 1usize..8, seed in any::<u64>()) {
        let f = random_forest(n, trees, seed);
        prop_assert!(f.is_forest());
        prop_assert_eq!(f.num_vertices(), n);
    }

    #[test]
    fn trees_are_connected(n in 2usize..200, seed in any::<u64>()) {
        let t = random_tree(n, seed);
        prop_assert!(t.is_forest());
        prop_assert_eq!(t.connected_components(), 1);
        prop_assert_eq!(t.num_edges(), n - 1);
    }

    #[test]
    fn end_to_end_orientation_always_valid(g in arb_graph()) {
        let params = Params::practical(g.num_vertices());
        let r = dgo::core::orient(&g, &params).unwrap();
        prop_assert!(r.orientation.validate(&g).is_ok());
    }

    #[test]
    fn end_to_end_coloring_always_proper(g in arb_graph()) {
        let params = Params::practical(g.num_vertices());
        let r = dgo::core::color(&g, &params).unwrap();
        prop_assert!(r.coloring.validate(&g).is_ok());
    }
}
