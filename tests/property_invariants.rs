//! Property-based tests (proptest) over the paper's structural invariants.
//!
//! Each property corresponds to a numbered claim:
//! * Claim 2.3 — min-combination preserves partial-layer validity.
//! * Claim 3.1 — pruning increases missing counts by at most k.
//! * Claims 3.3/3.4 — exponentiation preserves valid mappings within budget.
//! * Claim 3.12 — Algorithm 4's out-degree cap.
//! * Lemma 2.4 — path-count double counting and the `n·d^L` bound.
//! * \[BE08\] — `be08_peeling` is exactly the synchronous threshold peel.
//! * `Orientation` — the CSR direction bits answer every query exactly as a
//!   naive edge-list model does.
//! * `ViewTree` layout — every constructor yields a valid one-block arena
//!   that clones, is determined by its two wire columns, and matches the
//!   same tree built another way.
//! * Generators — structural invariants of every workload family.

use dgo::core::{
    estimate_lambda, exponentiate_and_prune_staged, local_prune_batch, num_paths_in_staged,
    num_paths_out_staged, partial_layer_assignment_staged, partition_edges, partition_vertices,
    NodeId, Params, StageExecutor, ViewTree,
};
use dgo::graph::generators::{clique, gnm, random_forest, random_tree, Family};
use dgo::graph::{Graph, LayerAssignment, Orientation, UNASSIGNED};
use dgo::local::{be08_peeling, PeelingResult};
use dgo::mpc::{Cluster, ClusterConfig};
use proptest::prelude::*;

/// Strategy: a random graph with 2..=60 vertices and moderate density.
fn arb_graph() -> impl Strategy<Value = Graph> {
    (2usize..60, 0usize..150, any::<u64>())
        .prop_map(|(n, m, seed)| gnm(n, m.min(n * (n - 1) / 2), seed))
}

/// A seed-derived pseudo-random word for index `i`.
fn mix(seed: u64, i: u64) -> u64 {
    let h = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(i)
        .wrapping_mul(0xBF58_476D_1CE4_E5B9);
    h ^ h >> 31
}

/// Whether the directed graph with out-neighbour lists `out` is acyclic, by
/// repeatedly deleting a vertex with no remaining out-neighbour.
fn model_is_acyclic(out: &[Vec<usize>]) -> bool {
    let mut alive = vec![true; out.len()];
    for _ in 0..out.len() {
        let sink = (0..out.len()).find(|&v| alive[v] && out[v].iter().all(|&w| !alive[w]));
        match sink {
            Some(v) => alive[v] = false,
            None => return false,
        }
    }
    true
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

/// The layout contract every `ViewTree` constructor keeps: a valid mapping
/// and valid arena, one block of `8·len` bytes (the two wire columns,
/// `vertex` and `parent`), a clone equal to the original, and a shape that
/// those two columns determine: every depth is its parent's plus one, every
/// children range is the ascending, contiguous list of the ids whose parent
/// it is, and `leaves_at_depth` lists exactly the childless nodes at each
/// depth, none at a frontier depth past every tree (`2³¹`, `u32::MAX`).
fn assert_layout_contract(t: &ViewTree, g: &Graph) {
    t.assert_valid(g);
    let len = t.len();
    assert_eq!(t.arena_bytes(), 8 * len, "arena bytes");
    assert_eq!(&t.clone(), t, "clone");
    let mut children: Vec<Vec<NodeId>> = vec![Vec::new(); len];
    for x in t.node_ids().skip(1) {
        let p = t.parent(x).expect("only the root has no parent");
        assert!(p < x, "parent {p} of node {x} out of topological order");
        assert_eq!(t.depth(x), t.depth(p) + 1, "depth of node {x}");
        children[p as usize].push(x);
    }
    assert_eq!(t.depth(ViewTree::ROOT), 0, "root depth");
    for x in t.node_ids() {
        let range = t.children(x);
        let ids: Vec<NodeId> = range.clone().collect();
        assert_eq!(ids, children[x as usize], "children of node {x}");
        assert_eq!(t.num_children(x), range.len(), "child count of node {x}");
    }
    // Reference depths walk the parents up to the root.
    let walked: Vec<u32> = t
        .node_ids()
        .map(|x| std::iter::successors(t.parent(x), |&p| t.parent(p)).count() as u32)
        .collect();
    let deepest = walked.iter().copied().max().unwrap_or(0);
    for d in (0..=deepest).chain([1 << 31, u32::MAX]) {
        let reference: Vec<NodeId> = t
            .node_ids()
            .filter(|&x| walked[x as usize] == d && children[x as usize].is_empty())
            .collect();
        let leaves: Vec<NodeId> = t.leaves_at_depth(d).collect();
        assert_eq!(leaves, reference, "leaves at depth {d}");
    }
}

/// Algorithm 1 on one tree, on the inline executor: the pruned tree, or a
/// copy of a fixed point.
fn prune(t: &ViewTree, k: usize) -> ViewTree {
    let mut pruned = local_prune_batch(std::slice::from_ref(t), k, &StageExecutor::sequential());
    pruned.pop().flatten().unwrap_or_else(|| t.clone())
}

/// Builds `source` with `provider(leaf)` attached at every leaf in `leaves`
/// both through `ViewTree::attached_with` and through an in-place
/// `ViewTree::attach` on a clone, checks that the two agree and keep the
/// layout contract, and returns the result.
fn attach_both_ways<'t>(
    source: &ViewTree,
    leaves: &[NodeId],
    provider: impl Fn(NodeId) -> &'t ViewTree,
    g: &Graph,
) -> ViewTree {
    let built = ViewTree::attached_with(source, leaves, &provider);
    let replacements: Vec<(NodeId, &ViewTree)> =
        leaves.iter().map(|&leaf| (leaf, provider(leaf))).collect();
    let mut in_place = source.clone();
    in_place.attach(&replacements);
    assert_eq!(built, in_place, "attached_with and attach disagree");
    assert_layout_contract(&built, g);
    built
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
        let p = prune(&t, k);
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

    /// The `ViewTree` layout contract over every constructor: `singleton`,
    /// `star`, `attached_with`, `attach` and the pruning projection of
    /// `local_prune_batch`. Two levels of attachment, the second onto pruned
    /// trees, reach the deep sibling blocks an exponentiation step builds.
    #[test]
    fn view_tree_layout_contract(g in arb_graph(), k in 1usize..4) {
        let n = g.num_vertices();
        let stars: Vec<ViewTree> = (0..n).map(|v| ViewTree::star(v, g.neighbors(v))).collect();
        let mut pruned = Vec::with_capacity(n);
        for (v, star) in stars.iter().enumerate() {
            assert_layout_contract(&ViewTree::singleton(v), &g);
            assert_layout_contract(star, &g);
            let leaves: Vec<NodeId> = star.leaves_at_depth(1).collect();
            let attached = attach_both_ways(star, &leaves, |leaf| &stars[star.vertex(leaf)], &g);
            let p = prune(&attached, k);
            assert_layout_contract(&p, &g);
            pruned.push(p);
        }
        for p in &pruned {
            let leaves: Vec<NodeId> =
                p.node_ids().filter(|&x| x != ViewTree::ROOT && p.num_children(x) == 0).collect();
            attach_both_ways(p, &leaves, |leaf| &pruned[p.vertex(leaf)], &g);
        }
    }

    #[test]
    fn claims_3_3_and_3_4_exponentiation_invariants(
        g in arb_graph(),
        k in 1usize..4,
        steps in 0u32..4,
    ) {
        let budget = 64usize;
        let mut cluster = Cluster::new(ClusterConfig::new(512, 4096));
        let stage = StageExecutor::sequential();
        let r = exponentiate_and_prune_staged(&g, budget, k, steps, &mut cluster, &stage).unwrap();
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
        let stage = StageExecutor::sequential();
        let r = partial_layer_assignment_staged(&g, 64, k, layers, steps, &mut cluster, &stage)
            .unwrap();
        let cap = (steps as usize + 1) * k;
        prop_assert!(r.layering.out_degree_bound(&g).unwrap() <= cap);
    }

    #[test]
    fn lemma_2_4_double_counting(g in arb_graph(), t in 2usize..6) {
        let peel = be08_peeling(&g, t, 0.5, 0);
        let la = peel.layering;
        prop_assume!(la.is_complete());
        let stage = StageExecutor::sequential();
        let sum_in: u64 = num_paths_in_staged(&g, &la, &stage).iter().sum();
        let sum_out: u64 = num_paths_out_staged(&g, &la, &stage).iter().sum();
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
        let (pieces, part_of) = partition_edges(&g, parts, seed);
        prop_assert_eq!(pieces.len(), parts);
        let total: usize = pieces.iter().map(|p| p.num_edges()).sum();
        prop_assert_eq!(total, g.num_edges());
        for p in &pieces {
            for (u, v) in p.edges() {
                prop_assert!(g.has_edge(u, v));
            }
        }
        prop_assert_eq!(part_of.len(), g.num_edges());
        for ((u, v), &p) in g.edges().zip(&part_of) {
            prop_assert!(pieces[p as usize].has_edge(u, v));
        }
    }

    #[test]
    fn orientation_bits_match_the_edge_list_model(
        g in arb_graph(),
        seed in any::<u64>(),
        flip in any::<u64>(),
    ) {
        let n = g.num_vertices();
        let edges: Vec<(usize, usize)> = g.edges().collect();
        let toward_v: Vec<bool> = (0..edges.len() as u64).map(|i| mix(seed, i) & 1 == 1).collect();
        let build = |flipped: Option<usize>| {
            let mut i = 0;
            Orientation::from_fn(&g, |_, _| {
                i += 1;
                toward_v[i - 1] != (flipped == Some(i - 1))
            })
        };
        let o = build(None);
        // The model: each vertex's out-neighbours, from the edge list.
        let mut out = vec![Vec::new(); n];
        for (&(u, v), &t) in edges.iter().zip(&toward_v) {
            let (tail, head) = if t { (u, v) } else { (v, u) };
            out[tail].push(head);
            prop_assert_eq!(o.direction(&g, tail, head), Some(true));
            prop_assert_eq!(o.direction(&g, head, tail), Some(false));
        }
        prop_assert_eq!(o.num_vertices(), n);
        prop_assert_eq!(o.num_edges(), edges.len());
        for (v, heads) in out.iter_mut().enumerate() {
            heads.sort_unstable();
            prop_assert_eq!(o.out_degree(v), heads.len());
            prop_assert_eq!(&o.out_neighbors(&g, v), heads);
            for w in (0..n).filter(|&w| !g.has_edge(v, w)) {
                prop_assert_eq!(o.direction(&g, v, w), None);
            }
        }
        prop_assert_eq!(o.max_out_degree(), out.iter().map(Vec::len).max().unwrap_or(0));
        prop_assert_eq!(o.is_acyclic(&g), model_is_acyclic(&out));
        prop_assert!(o.validate(&g).is_ok());
        prop_assert_eq!(&build(None), &o);
        if !edges.is_empty() {
            let flipped = build(Some((flip % edges.len() as u64) as usize));
            prop_assert!(flipped != o);
        }
        let rank: Vec<u64> = (0..n as u64).map(|v| mix(seed, v) % 5).collect();
        prop_assert!(Orientation::from_ranking(&g, &rank).unwrap().is_acyclic(&g));
        // Beside `g`, a triangle directed n -> n+1 -> n+2 -> n is a cycle.
        let h = g.disjoint_union(&clique(3));
        let mut i = 0;
        let cyclic = Orientation::from_fn(&h, |u, v| {
            i += 1;
            if u >= n { (u, v) != (n, n + 2) } else { toward_v[i - 1] }
        });
        prop_assert!(!cyclic.is_acyclic(&h));
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
