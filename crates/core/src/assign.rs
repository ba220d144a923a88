//! `PartialLayerAssignment` — Algorithm 4 of the paper.
//!
//! Pipeline: run `ExponentiateAndLocalPrune` (Algorithm 2), peel every view
//! tree locally with `a = (s+1)·k` (Algorithm 3), then assign each graph
//! vertex the *minimum* layer any tree node mapping to it received. The
//! min-combination is a constant-round MPC aggregation; Claim 3.12 guarantees
//! the result is a partial layer assignment with out-degree `≤ (s+1)·k`, and
//! Lemma 3.13 shows the layer tails decay geometrically.
//!
//! Algorithm 2's final trees are read only by this peel, so they are never
//! built: Algorithm 2 stops in its pending state (the step-`s` pruned trees
//! plus step `s`'s attachment plan, already metered), and the peel splices
//! each attaching vertex's `vertex` and `parent` columns into reusable stage
//! scratch in the materialized tree's node order. Layerings, proposal order
//! and metrics are those of peeling the materialized trees.

use crate::assign_tree::layer_proposals;
use crate::error::{CoreError, Result};
use crate::exponentiate::exponentiate_pending;
use crate::stage::StageExecutor;
use dgo_graph::{Graph, LayerAssignment, UNASSIGNED};
use dgo_mpc::primitives::aggregate_by_key;
use dgo_mpc::{ExecutionBackend, PerMachine};

/// Min-combines per-tree layer assignments into a graph-wide partial layer
/// assignment (the final step of Algorithm 4), metered as one MPC
/// aggregation round.
///
/// `proposals` holds `(vertex, layer)` pairs: vertices below `n`, finite
/// layers `1..UNASSIGNED`. Proposal `i` starts on machine `i mod M`, so only
/// the first `min(P, M)` machines hold any, and the round's host cost
/// follows the `P` proposals rather than the machine count.
///
/// # Errors
///
/// * [`CoreError::InvalidProposal`] for the first proposal with a vertex
///   outside the graph or a layer that is 0 or [`UNASSIGNED`]; nothing is
///   charged then.
/// * Propagates MPC capacity violations.
pub fn combine_tree_layers<B: ExecutionBackend>(
    n: usize,
    proposals: Vec<(u64, u32)>,
    cluster: &mut B,
) -> Result<LayerAssignment> {
    let bad = proposals
        .iter()
        .position(|&(v, layer)| v >= n as u64 || layer == 0 || layer == UNASSIGNED);
    if let Some(index) = bad {
        let (vertex, layer) = proposals[index];
        return Err(CoreError::InvalidProposal {
            index,
            vertex,
            layer,
            vertices: n,
        });
    }
    let machines = cluster.num_machines();
    // Proposals originate wherever the owning tree lives; spread them
    // round-robin, proposal `i` on machine `i mod M`, straight into the flat
    // per-machine buffer. The machines past the first `P` stay implicit.
    let mut per_machine = PerMachine::with_capacity(machines, proposals.len());
    for machine in 0..machines.min(proposals.len()) {
        per_machine.push_machine(
            proposals
                .iter()
                .skip(machine)
                .step_by(machines)
                .map(|&(v, layer)| (v, u64::from(layer))),
        );
    }
    let combined = aggregate_by_key(cluster, per_machine, u64::min)?;
    let mut layering = LayerAssignment::unassigned(n);
    for &(v, layer) in combined.items() {
        layering.set_layer(v as usize, layer as u32);
    }
    Ok(layering)
}

/// Output of Algorithm 4.
#[derive(Debug, Clone)]
pub struct PartialAssignmentResult {
    /// The partial layer assignment (out-degree `≤ (s+1)·k` by Claim 3.12).
    pub layering: LayerAssignment,
    /// The out-degree bound `a = (s+1)·k` (saturating) that Claim 3.12
    /// certifies.
    pub out_degree_cap: usize,
}

/// Runs Algorithm 4 (`PartialLayerAssignment(G, B, k, L, s)`) under the
/// metering of any [`ExecutionBackend`], with the per-vertex passes —
/// Algorithm 2's steps, Algorithm 3's per-tree peeling, and the proposal
/// collection — running as data-parallel [`StageExecutor`] stages. The
/// proposals are peeled in parallel over the exponentiated trees into flat
/// per-chunk buffers, concatenated in vertex order before the min-combine
/// charges the backend, so layerings and metrics are bit-identical at any
/// thread count. The trees of Algorithm 2's last step are peeled in place
/// and never built (see the module docs); the result equals running
/// [`exponentiate_and_prune_staged`](crate::exponentiate_and_prune_staged),
/// [`partial_layer_assignment_trees`](crate::partial_layer_assignment_trees)
/// and [`combine_tree_layers`] in turn on one backend.
///
/// # Errors
///
/// * [`CoreError::InvalidParams`] if `k == 0` or `budget < 4` (checked by
///   Algorithm 2 before anything is charged).
/// * Propagates MPC capacity violations.
///
/// # Examples
///
/// ```
/// use dgo_core::{partial_layer_assignment_staged, StageExecutor};
/// use dgo_graph::generators::random_tree;
/// use dgo_mpc::{Cluster, ClusterConfig};
///
/// let g = random_tree(128, 3);
/// let mut cluster = Cluster::new(ClusterConfig::new(512, 4096));
/// let stage = StageExecutor::sequential();
/// let r = partial_layer_assignment_staged(&g, 256, 2, 4, 3, &mut cluster, &stage)?;
/// // Claim 3.12: out-degree at most (s+1)*k = 8.
/// assert!(r.layering.out_degree_bound(&g)? <= 8);
/// assert!(r.layering.num_assigned() > 0);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn partial_layer_assignment_staged<B: ExecutionBackend>(
    graph: &Graph,
    budget: usize,
    k: usize,
    layers: u32,
    steps: u32,
    cluster: &mut B,
    stage: &StageExecutor,
) -> Result<PartialAssignmentResult> {
    let n = graph.num_vertices();
    let pending = exponentiate_pending(graph, budget, k, steps, cluster, stage)?;
    let a = (steps as usize + 1).saturating_mul(k);
    // Algorithm 3 peel over all trees (one stage) yielding the finite-layer
    // proposals in vertex order, one flat buffer per chunk — the per-node
    // layer vectors and the last attachments are never materialized outside
    // the chunks' scratch.
    let proposals = layer_proposals(graph, &pending, a, layers, stage);
    // The trees are done with: free them before the min-combine allocates.
    drop(pending);
    let layering = combine_tree_layers(n, proposals, cluster)?;
    Ok(PartialAssignmentResult {
        layering,
        out_degree_cap: a,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exponentiate::exponentiate_pending;
    use dgo_graph::generators::{gnm, grid_2d, random_tree, star};
    use dgo_mpc::{Cluster, ClusterConfig};

    fn cluster_for(n: usize) -> Cluster {
        Cluster::new(ClusterConfig::new((n * 8).max(64), 8192))
    }

    /// Algorithm 4 with the per-vertex passes inline.
    fn assign(
        graph: &Graph,
        budget: usize,
        k: usize,
        layers: u32,
        steps: u32,
        cluster: &mut Cluster,
    ) -> Result<PartialAssignmentResult> {
        let stage = StageExecutor::sequential();
        partial_layer_assignment_staged(graph, budget, k, layers, steps, cluster, &stage)
    }

    #[test]
    fn claim_3_12_out_degree_bound() {
        for seed in 0..3 {
            let g = gnm(150, 450, seed);
            let mut cluster = cluster_for(150);
            let (k, layers, steps) = (4usize, 4u32, 3u32);
            let r = assign(&g, 256, k, layers, steps, &mut cluster).unwrap();
            let cap = (steps as usize + 1) * k;
            assert_eq!(r.out_degree_cap, cap);
            assert!(
                r.layering.out_degree_bound(&g).unwrap() <= cap,
                "seed {seed}: Claim 3.12 violated"
            );
        }
    }

    #[test]
    fn trees_get_fully_assigned() {
        let g = random_tree(300, 5);
        let mut cluster = cluster_for(300);
        let r = assign(&g, 256, 2, 6, 4, &mut cluster).unwrap();
        // Forests are so sparse that nearly everything lands in early layers;
        // at minimum, a large fraction must be assigned.
        assert!(
            r.layering.num_assigned() * 2 >= g.num_vertices(),
            "only {}/{} assigned",
            r.layering.num_assigned(),
            g.num_vertices()
        );
    }

    #[test]
    fn layer_tails_decay_lemma_3_13() {
        let g = gnm(400, 800, 6);
        let mut cluster = cluster_for(400);
        let r = assign(&g, 400, 4, 4, 3, &mut cluster).unwrap();
        let tails = r.layering.tail_sizes();
        if tails.len() >= 3 {
            // Later tails must be (weakly) under half the earlier tails,
            // with slack for the small-n regime: Lemma 3.13 promises
            // 0.5^{j-1} * n; we check 0.75 decay to absorb constants.
            assert!(
                (tails[2] as f64) <= 0.75 * tails[0] as f64 + 1.0,
                "tails do not decay: {tails:?}"
            );
        }
    }

    #[test]
    fn star_center_unassigned_with_tight_budget() {
        // The center starts inactive (degree >= B) and its singleton tree
        // has missing = n-1 > a, so only leaves get layers.
        let g = star(200);
        let mut cluster = cluster_for(200);
        let r = assign(&g, 64, 2, 3, 2, &mut cluster).unwrap();
        assert!(!r.layering.is_assigned(0));
        assert!(r.layering.is_assigned(1));
        assert!(r.layering.validate(&g, r.out_degree_cap).is_ok());
    }

    #[test]
    fn huge_k_saturates_the_cap() {
        // `(s+1)·k` would overflow `usize`: the cap saturates instead. Every
        // tree prunes to its root, which peels in layer 1.
        let g = gnm(100, 250, 9);
        let mut cluster = cluster_for(100);
        let r = assign(&g, 128, usize::MAX / 2, 3, 3, &mut cluster).unwrap();
        assert_eq!(r.out_degree_cap, usize::MAX);
        assert!(r.layering.is_complete());
    }

    #[test]
    fn grid_assigns_everything() {
        let g = grid_2d(15, 15);
        let mut cluster = cluster_for(225);
        let r = assign(&g, 256, 4, 4, 3, &mut cluster).unwrap();
        // Grids have degeneracy 2 << a: one stage should cover everything.
        assert!(r.layering.is_complete(), "grid should assign all vertices");
    }

    #[test]
    fn combine_min_takes_minimum() {
        let mut cluster = cluster_for(4);
        let proposals = vec![(0u64, 3u32), (0, 1), (2, 2), (0, 2)];
        let la = combine_tree_layers(4, proposals, &mut cluster).unwrap();
        assert_eq!(la.layer(0), 1);
        assert_eq!(la.layer(2), 2);
        assert!(!la.is_assigned(1));
        assert!(!la.is_assigned(3));
    }

    #[test]
    fn combine_wraps_proposals_around_the_machines() {
        // Ten proposals on three machines: proposal i starts on machine
        // i mod 3, so machine 0 holds proposals 0, 3, 6, 9 — three for the
        // hot vertex 4 and one for vertex 7 — machine 1 holds 1, 4, 7 (two
        // duplicates of vertex 2) and machine 2 holds 2, 5, 8.
        let proposals = vec![
            (4u64, 5u32), // machine 0
            (2, 3),       // machine 1
            (4, 6),       // machine 2
            (4, 2),       // machine 0
            (2, 3),       // machine 1
            (5, 1),       // machine 2
            (7, 9),       // machine 0
            (4, 4),       // machine 1
            (2, 8),       // machine 2
            (4, 7),       // machine 0
        ];
        let mut cluster = Cluster::new(ClusterConfig::new(3, 64));
        let la = combine_tree_layers(8, proposals, &mut cluster).unwrap();
        let layers: Vec<u32> = (0..8).map(|v| la.layer(v)).collect();
        let u = dgo_graph::UNASSIGNED;
        assert_eq!(layers, [u, u, 3, u, 2, 1, u, 9]);
        // Pre-combined, machine 0 sends {4, 7}, machine 1 {2, 4} and
        // machine 2 {2, 4, 5}: seven two-word records. Machine 1 is home to
        // vertices 4 and 7 and receives four records, machine 2 (home to 2
        // and 5) three.
        let m = cluster.metrics();
        assert_eq!(m.rounds, 1);
        let round = m.round_log[0];
        assert_eq!(
            (round.total_words, round.max_sent, round.max_received),
            (14, 6, 8)
        );
    }

    #[test]
    fn combine_rejects_hostile_proposals_before_charging() {
        // A vertex outside the graph, a zero layer and the UNASSIGNED
        // sentinel each name the first bad proposal, and no round is
        // charged.
        let u = UNASSIGNED;
        for (proposals, index, vertex, layer) in [
            (vec![(7u64, 1u32)], 0, 7, 1),
            (vec![(0, 2), (1, 0)], 1, 1, 0),
            (vec![(3, 1), (2, u), (9, 0)], 1, 2, u),
            (vec![(0, 1), (u64::MAX, 3)], 1, u64::MAX, 3),
        ] {
            let mut cluster = cluster_for(4);
            let err = combine_tree_layers(4, proposals, &mut cluster).unwrap_err();
            assert_eq!(
                err,
                CoreError::InvalidProposal {
                    index,
                    vertex,
                    layer,
                    vertices: 4
                }
            );
            assert_eq!(cluster.metrics().rounds, 0);
        }
    }

    #[test]
    fn combine_on_a_wide_cluster_stores_only_the_proposing_machines() {
        // More machines than proposals: with every vertex homed on the same
        // machine either way, the result and the metering match a cluster
        // exactly as wide as the proposal count.
        let proposals = vec![(3u64, 5u32), (2, 3), (3, 2), (0, 1)];
        let mut wide = Cluster::new(ClusterConfig::new(1 << 20, 64));
        let mut exact = Cluster::new(ClusterConfig::new(4, 64));
        let la = combine_tree_layers(4, proposals.clone(), &mut wide).unwrap();
        assert_eq!(la, combine_tree_layers(4, proposals, &mut exact).unwrap());
        assert_eq!(la.layer(3), 2);
        let (w, e) = (wide.metrics().round_log[0], exact.metrics().round_log[0]);
        assert_eq!(
            (w.total_words, w.max_sent, w.max_received),
            (e.total_words, e.max_sent, e.max_received)
        );
    }

    #[test]
    fn deterministic() {
        let g = gnm(100, 250, 9);
        let mut a = cluster_for(100);
        let mut b = cluster_for(100);
        let ra = assign(&g, 128, 3, 3, 2, &mut a).unwrap();
        let rb = assign(&g, 128, 3, 3, 2, &mut b).unwrap();
        assert_eq!(ra.layering, rb.layering);
    }

    #[test]
    fn staged_matches_sequential_bit_for_bit() {
        // Above the stage engine's inline floor, so jobs > 1 splits chunks.
        // Besides the layering and the metering, the proposals the in-place
        // peel sends to the min-combine match record for record. On this
        // graph step 2 attaches at 458 vertices and step 3 at none, so both
        // peel paths run.
        let g = gnm(1500, 5250, 12);
        let (budget, k, layers) = (256, 3, 4);
        for steps in [2u32, 3] {
            let a = (steps as usize + 1) * k;
            let proposals = |jobs: usize| {
                let stage = StageExecutor::new(jobs);
                let mut cluster = cluster_for(1500);
                let pending =
                    exponentiate_pending(&g, budget, k, steps, &mut cluster, &stage).unwrap();
                let attaching = (0..g.num_vertices())
                    .filter(|&v| !pending.last_leaves(v).is_empty())
                    .count();
                (layer_proposals(&g, &pending, a, layers, &stage), attaching)
            };
            let reference_proposals = proposals(1);
            assert!(!reference_proposals.0.is_empty());
            assert_eq!(reference_proposals.1 > 0, steps == 2, "steps = {steps}");
            let mut reference_cluster = cluster_for(1500);
            let reference = assign(&g, budget, k, layers, steps, &mut reference_cluster).unwrap();
            for jobs in [2usize, 8, 0] {
                let context = format!("steps = {steps}, jobs = {jobs}");
                let mut cluster = cluster_for(1500);
                let r = partial_layer_assignment_staged(
                    &g,
                    budget,
                    k,
                    layers,
                    steps,
                    &mut cluster,
                    &StageExecutor::new(jobs),
                )
                .unwrap();
                assert_eq!(r.layering, reference.layering, "{context}");
                assert_eq!(proposals(jobs), reference_proposals, "{context}");
                assert_eq!(cluster.metrics(), reference_cluster.metrics(), "{context}");
            }
        }
    }

    #[test]
    fn matches_the_separate_pipeline_on_one_cluster() {
        // Algorithm 4 peels Algorithm 2's last attachments in place. Running
        // the three public pieces in turn on one cluster — Algorithm 2 with
        // its trees materialized, Algorithm 3 per tree flattened in node
        // order, then the min-combine — gives the same layering and the
        // same metering, at every step count (s = 0 builds the stars).
        let g = gnm(400, 1400, 3);
        let (budget, k, layers) = (256, 3, 4);
        let stage = StageExecutor::sequential();
        for steps in [0u32, 1, 2, 3] {
            let mut cluster = cluster_for(400);
            let r = assign(&g, budget, k, layers, steps, &mut cluster).unwrap();

            let mut separate = cluster_for(400);
            let expo =
                crate::exponentiate_and_prune_staged(&g, budget, k, steps, &mut separate, &stage)
                    .unwrap();
            let a = (steps as usize + 1) * k;
            let per_node =
                crate::partial_layer_assignment_trees(&g, &expo.trees, a, layers, &stage);
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
            let layering = combine_tree_layers(g.num_vertices(), proposals, &mut separate).unwrap();

            assert!(r.layering.num_assigned() > 0, "steps = {steps}");
            assert_eq!(r.layering, layering, "steps = {steps}");
            assert_eq!(cluster.metrics(), separate.metrics(), "steps = {steps}");
        }
    }
}
