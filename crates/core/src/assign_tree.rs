//! `PartialLayerAssignmentTree` — Algorithm 3 of the paper.
//!
//! A single-machine peeling on one view tree: in round `j`, every surviving
//! tree node `x` whose surviving-children count plus missing-neighbor count
//! is at most `a` receives layer `j`. Lemma 3.8 shows that nodes which are
//! *strictly monotonically reachable* (Definition 2.7) receive a layer no
//! larger than their image's true layer; Lemma 3.10 shows that min-combining
//! the per-tree results yields a partial assignment with out-degree `≤ a`.
//!
//! The peel runs entirely in [`PeelScratch`] buffers over the flat tree
//! arena: the per-round "selected" set is never collected (round `j` marks
//! into the output, then compacts the survivor list in place), so peeling a
//! tree allocates nothing beyond its output. Batch stages hand one scratch
//! to each worker via [`StageExecutor::map_with`], or to each chunk of
//! [`StageExecutor::map_chunks`] when the chunk peels into one flat buffer.
//!
//! The peel reads a tree's `vertex` and `parent` columns and nothing else.
//! So Algorithm 4 peels Algorithm 2's last attachments in place
//! ([`layer_proposals`]): each chunk splices just those two columns of an
//! attaching vertex's tree into reusable buffers, and the tree itself is
//! never built.

use crate::exponentiate::PendingExponentiation;
use crate::stage::StageExecutor;
use crate::vtree::ViewTree;
use dgo_graph::{Graph, UNASSIGNED};

/// Reusable scratch for Algorithm 3: the live degree counters and the
/// survivor worklist. One scratch serves any number of peels; workers of a
/// batch stage each own one.
#[derive(Debug, Default)]
pub(crate) struct PeelScratch {
    /// `count[x]` = surviving children of `x` + missing neighbors of `x`
    /// (the two always sum to `deg(map(x))` minus selected children), plus
    /// one sentinel slot at index `len` absorbing the root's decrements.
    count: Vec<u32>,
    /// Ids not yet assigned a layer, in ascending order.
    remaining: Vec<u32>,
    /// Per-node parent index with the root redirected to the sentinel slot,
    /// so the round loop decrements unconditionally — no root branch.
    pidx: Vec<u32>,
}

impl PeelScratch {
    /// A fresh scratch (buffers grow to the largest tree peeled through them
    /// and are then reused).
    pub(crate) fn new() -> Self {
        PeelScratch::default()
    }

    /// Runs the peel on the tree with node columns `vertex` and `parent`
    /// (arena order, [`ViewTree::vertex_col`] and [`ViewTree::parent_col`]),
    /// writing each node's layer (`1..=layers`, or [`UNASSIGNED`] for the
    /// paper's `∞`) into `layer`, which is cleared and refilled.
    fn peel_into(
        &mut self,
        graph: &Graph,
        (vertex, parent): (&[u32], &[u32]),
        a: usize,
        layers: u32,
        layer: &mut Vec<u32>,
    ) {
        let t = vertex.len();
        layer.clear();
        layer.resize(t, UNASSIGNED);
        // Surviving-children + missing counts; the sum starts at the image's
        // graph degree (children map to distinct neighbors, Def 2.3) and only
        // drops as children get selected.
        self.count.clear();
        self.count
            .extend(vertex.iter().map(|&v| graph.degree(v as usize) as u32));
        // Sentinel slot: decrements through `pidx` never branch on the root.
        // Never read for selection (worklists only hold real ids), so it just
        // needs headroom for its at-most-one decrement per node.
        self.count.push(u32::MAX);
        // Parent values are always < t except the root's NO_PARENT
        // (u32::MAX), so `min` redirects exactly the root to the sentinel.
        self.pidx.clear();
        self.pidx.extend(parent.iter().map(|&p| p.min(t as u32)));
        self.remaining.clear();
        self.remaining.extend(0..t as u32);
        let a = a.min(u32::MAX as usize) as u32;
        for j in 1..=layers {
            // Select against the round-start counts: marking first, then
            // decrementing, keeps same-round selections independent. The mark
            // pass is a predicated scan — every survivor stores a layer
            // (selected → j, else the UNASSIGNED it already has), so there is
            // no branch for the selection itself.
            let mut selected = 0usize;
            for &x in &self.remaining {
                let sel = self.count[x as usize] <= a;
                layer[x as usize] = if sel { j } else { UNASSIGNED };
                selected += sel as usize;
            }
            if selected == 0 {
                // Counts can only drop when nodes are selected; no progress
                // now means no progress ever.
                break;
            }
            // Fused decrement + compaction: the selection is latched in
            // `layer`, so one pass both scatters the parent decrements
            // (unconditionally, via the sentinel) and compacts the survivor
            // list with a predicated write index.
            let count = &mut self.count;
            let pidx = &self.pidx;
            let mut w = 0usize;
            for i in 0..self.remaining.len() {
                let x = self.remaining[i] as usize;
                let sel = layer[x] == j;
                count[pidx[x] as usize] -= sel as u32;
                self.remaining[w] = x as u32;
                w += (!sel) as usize;
            }
            self.remaining.truncate(w);
            if self.remaining.is_empty() {
                break;
            }
        }
    }
}

/// Algorithm 3 on one tree through a caller-owned [`PeelScratch`]: the
/// layer of every tree node. Repeated calls allocate nothing beyond each
/// returned layer vector.
pub(crate) fn partial_layer_assignment_tree_with(
    graph: &Graph,
    tree: &ViewTree,
    a: usize,
    layers: u32,
    scratch: &mut PeelScratch,
) -> Vec<u32> {
    let mut out = Vec::new();
    scratch.peel_into(graph, columns(tree), a, layers, &mut out);
    out
}

/// The `vertex` and `parent` columns of `tree`, the peel's input.
fn columns(tree: &ViewTree) -> (&[u32], &[u32]) {
    (tree.vertex_col(), tree.parent_col())
}

/// Runs Algorithm 3 over a whole batch of trees as one vertex-parallel
/// stage: `result[v]` is the layer of every node of `trees[v]` (`1..=layers`,
/// or [`UNASSIGNED`] for the paper's `∞`).
///
/// Entirely local: each tree peels independently on the machine holding it
/// (the driver's per-vertex map), reading only the shared graph, so the
/// stage is bit-identical to the sequential per-tree loop at any thread
/// count; each worker reuses one scratch. The MPC driver combines the
/// results with [`crate::combine_tree_layers`].
///
/// # Examples
///
/// ```
/// use dgo_core::{partial_layer_assignment_trees, StageExecutor, ViewTree};
/// use dgo_graph::Graph;
///
/// // A star center with all 3 neighbors present: Missing = 0, children = 3.
/// let g = Graph::from_edges(4, &[(0, 1), (0, 2), (0, 3)])?;
/// let trees = [ViewTree::star(0, &[1, 2, 3])];
/// let layers = partial_layer_assignment_trees(&g, &trees, 3, 4, &StageExecutor::sequential());
/// // Leaf "1" maps to vertex 1, whose degree is 1 and which has 0 children
/// // in the tree: missing = 1 <= 3. The root has 3 children and missing 0,
/// // so every node lands in layer 1.
/// assert!(layers[0].iter().all(|&l| l == 1));
/// # Ok::<(), dgo_graph::GraphError>(())
/// ```
pub fn partial_layer_assignment_trees(
    graph: &Graph,
    trees: &[ViewTree],
    a: usize,
    layers: u32,
    stage: &StageExecutor,
) -> Vec<Vec<u32>> {
    stage.map_with(trees, PeelScratch::new, |scratch, _, tree| {
        partial_layer_assignment_tree_with(graph, tree, a, layers, scratch)
    })
}

/// Peels every tree of Algorithm 2's final state and returns the
/// Algorithm 4 layer proposals `(image vertex, layer)` for the finite-layer
/// nodes of every tree, in vertex order and node order within a tree —
/// exactly the records the min-combine aggregates. A vertex with pending
/// attachments is peeled in place: its tree's `vertex` and `parent` columns
/// are spliced into chunk scratch ([`ViewTree::attached_columns_into`]) in
/// the node order the materialized tree would have, so the proposals equal
/// those of the materialized trees. The per-node layer vectors live only in
/// each chunk's scratch, and each chunk peels into one flat buffer, not one
/// per tree.
pub(crate) fn layer_proposals(
    graph: &Graph,
    pending: &PendingExponentiation,
    a: usize,
    layers: u32,
    stage: &StageExecutor,
) -> Vec<(u64, u32)> {
    let trees = &pending.trees;
    stage.map_chunks(
        trees,
        |offset, chunk| {
            let mut scratch = PeelScratch::new();
            let (mut layer, mut vertex, mut parent) = (Vec::new(), Vec::new(), Vec::new());
            // Sized for one proposal per tree, so the buffer regrows a few
            // times, not once per doubling from empty.
            let mut proposals = Vec::with_capacity(chunk.len());
            for (v, tree) in (offset..).zip(chunk) {
                let leaves = pending.last_leaves(v);
                let cols = if leaves.is_empty() {
                    columns(tree)
                } else {
                    ViewTree::attached_columns_into(
                        tree,
                        leaves,
                        |leaf| &trees[tree.vertex(leaf)],
                        &mut vertex,
                        &mut parent,
                    );
                    (&vertex[..], &parent[..])
                };
                scratch.peel_into(graph, cols, a, layers, &mut layer);
                // Compact the finite-layer records with a predicated write
                // index: every node stores a candidate record, only assigned
                // ones advance the cursor (and survive the truncate) — same
                // node order, no per-node push branch.
                let mut w = proposals.len();
                proposals.resize(w + layer.len(), (0u64, 0u32));
                for (&img, &l) in cols.0.iter().zip(layer.iter()) {
                    proposals[w] = (img as u64, l);
                    w += (l != UNASSIGNED) as usize;
                }
                proposals.truncate(w);
            }
            proposals
        },
        |mut earlier, later| {
            earlier.extend(later);
            earlier
        },
    )
}

#[cfg(test)]
#[allow(clippy::needless_range_loop)]
mod tests {
    use super::*;
    use crate::exponentiate::{
        exponentiate_and_prune_staged, exponentiate_pending, ExponentiationResult,
    };
    use dgo_graph::generators::gnm;
    use dgo_mpc::{Cluster, ClusterConfig};

    /// Algorithm 3 on one tree.
    fn peel(graph: &Graph, tree: &ViewTree, a: usize, layers: u32) -> Vec<u32> {
        partial_layer_assignment_tree_with(graph, tree, a, layers, &mut PeelScratch::new())
    }

    /// Algorithm 2 on a cluster that fits every test instance.
    fn exponentiate(graph: &Graph, budget: usize, k: usize, steps: u32) -> ExponentiationResult {
        let mut cluster = Cluster::new(ClusterConfig::new(2048, 8192));
        let stage = StageExecutor::sequential();
        exponentiate_and_prune_staged(graph, budget, k, steps, &mut cluster, &stage).unwrap()
    }

    #[test]
    fn singleton_with_small_degree_gets_layer_one() {
        let g = Graph::from_edges(3, &[(0, 1), (0, 2)]).unwrap();
        let t = ViewTree::singleton(0); // missing = deg(0) = 2
        assert_eq!(peel(&g, &t, 2, 3), vec![1]);
        // With a = 1 the root can never be selected.
        assert_eq!(peel(&g, &t, 1, 3), vec![UNASSIGNED]);
    }

    #[test]
    fn peeling_proceeds_leaves_inward() {
        // Path 0-1-2 viewed from 1 with both children present.
        let g = Graph::from_edges(3, &[(0, 1), (1, 2)]).unwrap();
        let t = ViewTree::star(1, &[0, 2]);
        // a = 1: leaves (missing 0... leaf "0" maps to vertex 0 with degree
        // 1 and no children: missing = 1 <= 1 -> layer 1. Root has 2
        // children initially (> a counting missing 0), layer 2 after leaves
        // drop out.
        let layers = peel(&g, &t, 1, 5);
        assert_eq!(layers[0], 2);
        assert_eq!(layers[1], 1);
        assert_eq!(layers[2], 1);
    }

    #[test]
    fn layer_cap_respected() {
        // Long path tree needs many rounds; cap at 2 layers.
        let n = 8;
        let edges: Vec<(usize, usize)> = (0..n - 1).map(|i| (i, i + 1)).collect();
        let g = Graph::from_edges(n, &edges).unwrap();
        // Build the path as a degenerate tree 0 -> 1 -> ... -> 7 by chained
        // attachments.
        let mut t = ViewTree::star(0, &[1]);
        for v in 1..n - 1 {
            let leaf = t
                .leaves_at_depth(v as u32)
                .find(|&x| t.vertex(x) == v)
                .unwrap();
            t.attach(&[(leaf, &ViewTree::star(v, &[v as u32 - 1, v as u32 + 1]))]);
        }
        t.assert_valid(&g);
        // With a = 1... each internal tree node has 1-2 children. Use a = 1
        // and 2 layers: deepest nodes get 1, then their parents 2, rest inf.
        let layers = peel(&g, &t, 1, 2);
        assert!(layers.contains(&UNASSIGNED));
        assert!(layers.contains(&1));
    }

    #[test]
    fn lemma_3_9_root_layer_bounded_by_true_layer() {
        // For vertices satisfying Lemma 3.9's hypotheses (k >= d,
        // s > log2(L), NumPathsIn(v) <= sqrt(B)), the root of the
        // exponentiated tree receives a layer no larger than the vertex's
        // layer in the reference assignment.
        let g = gnm(60, 180, 4);
        let ref_layering = dgo_local::be08_peeling(&g, 3, 0.5, 0).layering;
        assert!(ref_layering.is_complete());
        let d = ref_layering.out_degree_bound(&g).unwrap();
        let k = d.max(1);
        let layers_l = ref_layering.max_layer().unwrap();
        let steps = 32 - u32::leading_zeros(layers_l.max(1)) + 1; // s > log2 L
        let budget = 1024usize;
        let sqrt_b = (budget as f64).sqrt() as u64;
        let paths_in =
            crate::paths::num_paths_in_staged(&g, &ref_layering, &StageExecutor::sequential());
        let r = exponentiate(&g, budget, k, steps);
        let a = (steps as usize + 1) * k;
        let mut checked = 0;
        for v in 0..g.num_vertices() {
            if paths_in[v] > sqrt_b {
                continue;
            }
            checked += 1;
            let layers = peel(&g, &r.trees[v], a, layers_l);
            let root_layer = layers[ViewTree::ROOT as usize];
            assert_ne!(root_layer, UNASSIGNED, "v={v} must be assigned (Lemma 3.9)");
            assert!(
                root_layer <= ref_layering.layer(v),
                "v={v}: tree layer {root_layer} > true layer {}",
                ref_layering.layer(v)
            );
        }
        assert!(checked > 0, "test vacuous: no vertex met the hypotheses");
    }

    #[test]
    fn generous_a_assigns_everything_layer_one() {
        let g = gnm(30, 90, 2);
        let t = ViewTree::star(5, g.neighbors(5));
        let a = g.max_degree() + 1;
        let layers = peel(&g, &t, a, 1);
        assert!(layers.iter().all(|&l| l == 1));
    }

    #[test]
    fn batch_matches_per_tree_loop_at_any_thread_count() {
        let g = gnm(100, 400, 2);
        let r = exponentiate(&g, 144, 3, 3);
        let reference: Vec<Vec<u32>> = r.trees.iter().map(|t| peel(&g, t, 12, 4)).collect();
        for jobs in [1usize, 2, 8, 0] {
            let batch =
                partial_layer_assignment_trees(&g, &r.trees, 12, 4, &StageExecutor::new(jobs));
            assert_eq!(batch, reference, "jobs = {jobs}");
        }
    }

    #[test]
    fn proposals_match_per_node_layers() {
        // Peeling Algorithm 2's pending state in place proposes exactly the
        // finite-layer nodes of the materialized trees, in tree order and
        // node order. Above the stage engine's inline floor (1,024 trees),
        // so jobs > 1 peels in several chunks whose flat buffers must
        // concatenate in tree order.
        let g = gnm(1500, 6000, 8);
        let (budget, k, steps) = (144, 2, 2);
        let r = exponentiate(&g, budget, k, steps);
        let (a, layers) = (8usize, 4u32);
        let stage = StageExecutor::sequential();
        let per_node = partial_layer_assignment_trees(&g, &r.trees, a, layers, &stage);
        let mut expected: Vec<(u64, u32)> = Vec::new();
        for (tree, node_layers) in r.trees.iter().zip(&per_node) {
            expected.extend(
                tree.node_ids()
                    .filter(|&x| node_layers[x as usize] != UNASSIGNED)
                    .map(|x| (tree.vertex(x) as u64, node_layers[x as usize])),
            );
        }
        let mut cluster = Cluster::new(ClusterConfig::new(2048, 8192));
        let pending = exponentiate_pending(&g, budget, k, steps, &mut cluster, &stage).unwrap();
        let attaching = (0..g.num_vertices())
            .filter(|&v| !pending.last_leaves(v).is_empty())
            .count();
        assert!(attaching > 0, "test vacuous: nothing attaches at step s");
        for jobs in [1usize, 2, 8, 0] {
            let got = layer_proposals(&g, &pending, a, layers, &StageExecutor::new(jobs));
            assert_eq!(got, expected, "jobs = {jobs}");
        }
    }

    #[test]
    fn zero_a_assigns_nothing_on_connected_graph() {
        let g = Graph::from_edges(2, &[(0, 1)]).unwrap();
        let t = ViewTree::star(0, &[1]);
        let layers = peel(&g, &t, 0, 5);
        assert!(layers.iter().all(|&l| l == UNASSIGNED));
    }
}
