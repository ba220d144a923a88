//! `LocalPrune` — Algorithm 1 of the paper.
//!
//! Recursively (here: iteratively, bottom-up) prunes a view tree: a node with
//! at most `k` children collapses to a leaf; otherwise its children's
//! subtrees are pruned first and the `k` *largest* pruned subtrees are
//! removed. Two facts drive the paper's analysis and are property-tested
//! here:
//!
//! * **Claim 3.1**: pruning increases any surviving node's missing-neighbor
//!   count by at most `k`.
//! * **Lemma 3.2**: if the root's image has a finite layer under a partial
//!   layer assignment with out-degree `d ≤ k`, the pruned tree has at most
//!   `NumPathsIn(map(root))` nodes — the size-control that lets
//!   exponentiation fit in `n^δ` memory.
//!
//! The whole pass runs in [`PruneScratch`] — each node's children run
//! (derived from the tree's `parent` column, since a tree stores no
//! children), bottom-up sizes, the kept-child selection (a CSR of per-node
//! kept runs, not a `Vec<Vec<u32>>`), the sort buffer, and the projection
//! stack are all reusable buffers, so pruning a tree allocates nothing
//! beyond the returned tree's own arena. Batch stages hand one scratch to
//! each worker via [`StageExecutor::map_with`].
//!
//! Algorithm 1 is local: the pruned size of a node, and which of its children
//! it keeps, depend only on its own subtree. So a tree with provider trees
//! attached at some of its leaves (Definition 2.5) prunes without being
//! built ([`prune_attached`]): each attachment leaf enters the plan with its
//! provider's pruned size, and the projection splices the pruned provider
//! wherever the plan keeps the leaf.

use crate::stage::StageExecutor;
use crate::vtree::{CsrRuns, NodeId, ViewTree};

/// Reusable scratch for Algorithm 1: the plans of the tree being pruned and
/// of a provider pruned inside it, and their projection stacks. One scratch
/// serves any number of [`local_prune_with`] and [`prune_attached`] calls;
/// workers of a batch stage each own one.
#[derive(Debug, Default)]
pub(crate) struct PruneScratch {
    /// The plan of the tree being pruned.
    own: Plan,
    /// The plan of a provider that [`prune_attached`] prunes where it is
    /// spliced.
    provider: Plan,
    /// Projection traversal stacks, the tree's own and a provider's.
    stack: Vec<(NodeId, NodeId)>,
    provider_stack: Vec<(NodeId, NodeId)>,
}

/// One tree's sizing and selection: bottom-up pruned-subtree sizes and the
/// children each node keeps.
#[derive(Debug, Default)]
struct Plan {
    /// Each node's children run `(first child, count)`: siblings are one
    /// ascending id range, derived from the tree's `parent` column.
    children: Vec<(u32, u32)>,
    /// Bottom-up pruned-subtree sizes.
    size: Vec<u64>,
    /// CSR runs over `kept_pool`: the children each node keeps.
    kept_start: Vec<u32>,
    kept_len: Vec<u32>,
    kept_pool: Vec<u32>,
    /// Child-ordering buffer for the size sort.
    order: Vec<u32>,
}

impl PruneScratch {
    /// A fresh scratch (all buffers empty; they grow to the largest tree
    /// pruned through them and are then reused).
    pub(crate) fn new() -> Self {
        PruneScratch::default()
    }
}

impl Plan {
    /// The sizing + selection pass: fills the kept-children CSR and returns
    /// the pruned size of the whole tree, without materializing anything.
    /// Ties among equal-size subtrees break by arena id (the algorithm
    /// permits arbitrary tie-breaking). Every `(leaf, size)` of `presets`
    /// counts as a subtree of `size` nodes rather than 1: a leaf has no
    /// children, so it keeps its preset.
    fn plan(
        &mut self,
        tree: &ViewTree,
        k: usize,
        presets: impl IntoIterator<Item = (NodeId, u64)>,
    ) -> u64 {
        let n = tree.len();
        // Counting every node into its parent's run, last node first, leaves
        // each node's first child as the last write.
        self.children.clear();
        self.children.resize(n, (0, 0));
        for (x, &p) in (1..n as u32).zip(&tree.parent_col()[1..]).rev() {
            let run = &mut self.children[p as usize];
            *run = (x, run.1 + 1);
        }
        // Bulk-initialize every column to the collapse outcome (size 1, empty
        // kept run) with straight fills the compiler vectorizes; the scan
        // below only revisits the > k nodes. In a pruned-to-fixpoint batch
        // the collapsing majority is then pure column traffic — no per-node
        // branchy writes.
        self.size.clear();
        self.size.resize(n, 1);
        for (leaf, size) in presets {
            debug_assert_eq!(
                self.children[leaf as usize].1, 0,
                "preset {leaf} is not a leaf"
            );
            self.size[leaf as usize] = size;
        }
        self.kept_start.clear();
        self.kept_start.resize(n, 0);
        self.kept_len.clear();
        self.kept_len.resize(n, 0);
        self.kept_pool.clear();
        // Arena ids are topologically ordered (parents precede children), so
        // a reverse scan is bottom-up.
        for x in (0..n).rev() {
            let (first, nc) = self.children[x];
            if nc as usize <= k {
                // Collapses to a single node — already the pre-filled state.
                continue;
            }
            // Remove the k largest pruned child subtrees (ties by id).
            self.order.clear();
            self.order.extend(first..first + nc);
            let size = &self.size;
            self.order
                .sort_unstable_by(|&a, &b| size[b as usize].cmp(&size[a as usize]).then(a.cmp(&b)));
            let kept = &self.order[k..];
            let mut total = 1u64;
            for &c in kept {
                total += self.size[c as usize];
            }
            self.size[x] = total;
            self.kept_start[x] = self.kept_pool.len() as u32;
            self.kept_len[x] = kept.len() as u32;
            self.kept_pool.extend_from_slice(kept);
        }
        self.size[ViewTree::ROOT as usize]
    }

    /// The planned kept-children runs, for the projection.
    fn kept(&self) -> CsrRuns<'_> {
        CsrRuns {
            start: &self.kept_start,
            len: &self.kept_len,
            pool: &self.kept_pool,
        }
    }
}

/// Runs `LocalPrune(tree, k)` (Algorithm 1) through a caller-owned
/// [`PruneScratch`]: the pruned tree, or `None` when `tree` is already a
/// fixed point. The sizing pass of the plan decides, so an unchanged tree is
/// never materialized, and the plan is computed once, not once for sizing
/// and again for materialization. Repeated calls allocate nothing beyond
/// each returned tree's own arena. `k ≥ 1` is checked by the caller.
pub(crate) fn local_prune_with(
    tree: &ViewTree,
    k: usize,
    scratch: &mut PruneScratch,
) -> Option<ViewTree> {
    let total = scratch.own.plan(tree, k, []);
    (total != tree.len() as u64).then(|| {
        tree.project_csr(
            &scratch.own.kept(),
            total as usize,
            &mut scratch.stack,
            |_, _, _, next| next,
        )
    })
}

/// `LocalPrune(ViewTree::attached_with(source, leaves, T_u), k)` without
/// building the attachment: `provider(leaf)` gives the tree `T_u` of the
/// provider attached at `leaf`. `leaves` must be ascending leaves of
/// `source`, as an attachment plan lists them, and at least one.
///
/// Algorithm 1 prunes a spliced provider subtree exactly as it prunes the
/// provider's own tree, so the plan runs on `source` alone with each of
/// `leaves` counted at its provider's pruned size, and the projection
/// splices the pruned provider wherever the plan keeps its leaf. The
/// attachment appends provider nodes after `source`'s, so `source`'s nodes
/// keep their ids there, and a provider's nodes keep their relative order:
/// every sibling tie breaks as in the attached tree, and the projection
/// numbers each kept provider's nodes as one block, in the order the
/// attached tree's projection gives them. The result equals the prune of the
/// attached tree node for node. That prune always removes nodes (only a
/// singleton is a fixed point of Algorithm 1, and an attaching tree has an
/// internal root), so a tree is always returned.
pub(crate) fn prune_attached<'t>(
    source: &ViewTree,
    leaves: &[NodeId],
    provider: impl Fn(NodeId) -> &'t ViewTree,
    k: usize,
    scratch: &mut PruneScratch,
) -> ViewTree {
    debug_assert!(!leaves.is_empty() && leaves.windows(2).all(|w| w[0] < w[1]));
    let PruneScratch {
        own,
        provider: nested,
        stack,
        provider_stack,
    } = scratch;
    let presets = leaves
        .iter()
        .map(|&leaf| (leaf, nested.plan(provider(leaf), k, [])));
    let total = own.plan(source, k, presets);
    source.project_csr(
        &own.kept(),
        total as usize,
        stack,
        |columns, old, new, next| {
            let Ok(i) = leaves.binary_search(&old) else {
                return next;
            };
            let tree = provider(leaves[i]);
            nested.plan(tree, k, []);
            columns.project(
                tree,
                &nested.kept(),
                new,
                next,
                provider_stack,
                |_, _, _, next| next,
            )
        },
    )
}

/// `LocalPrune(ViewTree::star(vertex, neighbors), k)` in closed form,
/// without building the star. Every leaf subtree has size 1 and ties break
/// by arena id, which is neighbour order, so Algorithm 1 removes the first
/// `k` leaves, and collapses the root when `vertex` has at most `k`
/// neighbours (a star over no leaves is the singleton).
pub(crate) fn pruned_star(vertex: usize, neighbors: &[u32], k: usize) -> ViewTree {
    ViewTree::star(vertex, neighbors.get(k..).unwrap_or(&[]))
}

/// Runs `LocalPrune` (Algorithm 1) over a whole batch of trees as one
/// vertex-parallel stage: `result[v]` is `Some` of the pruned `trees[v]`
/// when pruning actually removes nodes, `None` when `trees[v]` is already a
/// fixed point.
///
/// Entirely local — no communication; Algorithm 2 runs the same per-tree
/// prune on every machine between exponentiation rounds, on each
/// attachment through its splice plan. Ties among equal-size subtrees are
/// broken deterministically by arena id (the algorithm permits arbitrary
/// tie-breaking).
///
/// Each tree's pruning is an independent pure computation over the read-only
/// batch, so the stage is bit-identical to the sequential per-vertex loop at
/// any thread count; each worker reuses one scratch.
///
/// # Panics
///
/// Panics if `k == 0` (the paper requires `k ≥ 1`).
///
/// # Examples
///
/// ```
/// use dgo_core::{local_prune_batch, StageExecutor, ViewTree};
///
/// // Algorithm 1 collapses a node with ≤ k children to a leaf, and a node
/// // with more than k children loses exactly the k largest subtrees.
/// let trees = [ViewTree::star(0, &[1, 2, 3]), ViewTree::star(4, &[5, 6])];
/// let pruned = local_prune_batch(&trees, 2, &StageExecutor::sequential());
/// // Root 0's children had subtree size 1 each; the 2 largest are removed,
/// // 1 kept.
/// assert_eq!(pruned[0].as_ref().map(ViewTree::len), Some(2));
/// // Root 4 has k = 2 children, so it collapses to a leaf.
/// assert_eq!(pruned[1].as_ref().map(ViewTree::len), Some(1));
/// ```
pub fn local_prune_batch(
    trees: &[ViewTree],
    k: usize,
    stage: &StageExecutor,
) -> Vec<Option<ViewTree>> {
    assert!(k >= 1, "pruning parameter k must be at least 1");
    stage.map_with(trees, PruneScratch::new, |scratch, _, tree| {
        local_prune_with(tree, k, scratch)
    })
}

#[cfg(test)]
#[allow(clippy::needless_range_loop)]
mod tests {
    use super::*;
    use dgo_graph::generators::{clique, gnm};
    use dgo_graph::Graph;

    /// Builds the full (unpruned) exponentiation-style tree of radius 1
    /// around each vertex and checks prune invariants on random graphs.
    fn star_of(g: &Graph, v: usize) -> ViewTree {
        ViewTree::star(v, g.neighbors(v))
    }

    /// Algorithm 1 on one tree: the pruned tree, or a copy of a fixed point.
    fn prune(tree: &ViewTree, k: usize) -> ViewTree {
        local_prune_with(tree, k, &mut PruneScratch::new()).unwrap_or_else(|| tree.clone())
    }

    #[test]
    fn few_children_collapse_to_leaf() {
        let t = ViewTree::star(0, &[1, 2]);
        let p = prune(&t, 2);
        assert_eq!(p.len(), 1);
        assert_eq!(p.root_vertex(), 0);
    }

    #[test]
    fn many_children_lose_exactly_k() {
        let t = ViewTree::star(0, &[1, 2, 3, 4, 5]);
        let p = prune(&t, 2);
        // 5 children of size 1 each; 2 removed, 3 kept.
        assert_eq!(p.len(), 4);
    }

    #[test]
    fn removes_largest_subtrees() {
        // Root with 3 children; one child has a big subtree under it.
        let g = Graph::from_edges(6, &[(0, 1), (0, 2), (0, 3), (3, 4), (3, 5)]).unwrap();
        let mut t = ViewTree::star(0, &[1, 2, 3]);
        let leaf3 = t.leaves_at_depth(1).find(|&x| t.vertex(x) == 3).unwrap();
        t.attach(&[(leaf3, &ViewTree::star(3, &[0, 4, 5]))]);
        t.assert_valid(&g);
        // k = 1: child 3's subtree first prunes internally. Node 3 has 3
        // children (0,4,5) > k=1, so it drops the largest (all size 1 → tie
        // by id drops one) keeping 2 → size 3. Children 1, 2 stay size 1.
        // Root drops the largest = the subtree at 3.
        let p = prune(&t, 1);
        let images: Vec<usize> = p.node_ids().map(|x| p.vertex(x)).collect();
        assert!(
            !images.contains(&3),
            "largest subtree must be pruned: {images:?}"
        );
        assert_eq!(p.len(), 3); // root + children 1 and 2
    }

    #[test]
    fn pruned_size_matches_materialized() {
        let g = gnm(60, 200, 3);
        for v in 0..10 {
            let mut t = star_of(&g, v);
            // One round of attachments to get depth-2 trees.
            let leaves: Vec<NodeId> = t.leaves_at_depth(1).collect();
            let subs: Vec<ViewTree> = leaves.iter().map(|&x| star_of(&g, t.vertex(x))).collect();
            let reps: Vec<(NodeId, &ViewTree)> = leaves.iter().copied().zip(subs.iter()).collect();
            t.attach(&reps);
            for k in [1usize, 2, 3, 5] {
                assert_eq!(
                    PruneScratch::new().own.plan(&t, k, []),
                    prune(&t, k).len() as u64,
                    "v={v} k={k}"
                );
            }
        }
    }

    #[test]
    fn scratch_reuse_matches_fresh_scratch() {
        // One scratch across many trees and k values must match per-call
        // fresh scratches bit for bit — the per-worker reuse contract.
        let g = gnm(80, 320, 5);
        let mut scratch = PruneScratch::new();
        for v in 0..g.num_vertices() {
            let mut t = star_of(&g, v);
            let leaves: Vec<NodeId> = t.leaves_at_depth(1).collect();
            let subs: Vec<ViewTree> = leaves.iter().map(|&x| star_of(&g, t.vertex(x))).collect();
            let reps: Vec<(NodeId, &ViewTree)> = leaves.iter().copied().zip(subs.iter()).collect();
            t.attach(&reps);
            for k in [1usize, 3, 6] {
                assert_eq!(
                    local_prune_with(&t, k, &mut scratch),
                    local_prune_with(&t, k, &mut PruneScratch::new()),
                    "v={v} k={k}"
                );
            }
        }
    }

    #[test]
    fn claim_3_1_missing_increase_bounded_by_k() {
        // After pruning, every surviving node's missing count exceeds its
        // original by at most k. Surviving nodes are matched by their path
        // from the root (unique images per sibling set make this well
        // defined).
        let g = gnm(40, 140, 9);
        for v in 0..8 {
            let mut t = star_of(&g, v);
            let leaves: Vec<NodeId> = t.leaves_at_depth(1).collect();
            let subs: Vec<ViewTree> = leaves.iter().map(|&x| star_of(&g, t.vertex(x))).collect();
            let reps: Vec<(NodeId, &ViewTree)> = leaves.iter().copied().zip(subs.iter()).collect();
            t.attach(&reps);
            for k in [2usize, 4] {
                let p = prune(&t, k);
                // Walk both trees in parallel from the root.
                let mut stack = vec![(ViewTree::ROOT, ViewTree::ROOT)];
                while let Some((orig, pruned)) = stack.pop() {
                    let before = t.missing_count(orig, &g);
                    let after = p.missing_count(pruned, &g);
                    assert!(
                        after <= before + k,
                        "missing grew {before} -> {after} with k={k}"
                    );
                    // Match children by image.
                    for pc in p.children(pruned) {
                        let image = p.vertex(pc);
                        let oc = t
                            .children(orig)
                            .find(|&c| t.vertex(c) == image)
                            .expect("pruned child must exist in original");
                        stack.push((oc, pc));
                    }
                }
            }
        }
    }

    #[test]
    fn lemma_3_2_size_bounded_by_numpaths() {
        // Build a layered graph, a valid partial layer assignment with
        // out-degree d, and check |pruned| <= NumPathsIn(map(root)).
        use crate::paths::num_paths_in_staged;
        use dgo_graph::LayerAssignment;

        let g = gnm(50, 150, 5);
        // Layering by BE08-style peeling with threshold 6.
        let peel = dgo_local::be08_peeling(&g, 3, 0.0, 0);
        let layering: &LayerAssignment = &peel.layering;
        if !layering.is_complete() {
            return; // threshold too low for this seed; nothing to test
        }
        let d = layering.out_degree_bound(&g).unwrap();
        let k = d.max(1);
        let paths_in = num_paths_in_staged(&g, layering, &StageExecutor::sequential());
        for v in 0..g.num_vertices().min(12) {
            let mut t = star_of(&g, v);
            for _ in 0..2 {
                let max_depth = (0..t.len() as u32).map(|x| t.depth(x)).max().unwrap_or(0);
                let leaves: Vec<NodeId> = t.leaves_at_depth(max_depth).collect();
                let subs: Vec<ViewTree> =
                    leaves.iter().map(|&x| star_of(&g, t.vertex(x))).collect();
                let reps: Vec<(NodeId, &ViewTree)> =
                    leaves.iter().copied().zip(subs.iter()).collect();
                t.attach(&reps);
            }
            let p = prune(&t, k);
            assert!(
                (p.len() as u64) <= paths_in[v].max(1),
                "v={v}: pruned size {} > NumPathsIn {}",
                p.len(),
                paths_in[v]
            );
        }
    }

    #[test]
    fn prune_preserves_validity() {
        let g = clique(8);
        let mut t = star_of(&g, 0);
        let leaves: Vec<NodeId> = t.leaves_at_depth(1).collect();
        let subs: Vec<ViewTree> = leaves.iter().map(|&x| star_of(&g, t.vertex(x))).collect();
        let reps: Vec<(NodeId, &ViewTree)> = leaves.iter().copied().zip(subs.iter()).collect();
        t.attach(&reps);
        for k in 1..6 {
            let p = prune(&t, k);
            p.assert_valid(&g);
            assert_eq!(p.root_vertex(), 0);
        }
    }

    #[test]
    fn deterministic() {
        let g = gnm(30, 90, 1);
        let t = star_of(&g, 0);
        assert_eq!(prune(&t, 2), prune(&t, 2));
    }

    #[test]
    fn batch_matches_per_tree_loop_at_any_thread_count() {
        // Above the stage engine's inline floor, so jobs > 1 splits chunks.
        let g = gnm(1500, 6000, 4);
        let trees: Vec<ViewTree> = (0..g.num_vertices()).map(|v| star_of(&g, v)).collect();
        for k in [1usize, 3, 7] {
            let reference: Vec<Option<ViewTree>> = trees
                .iter()
                .map(|t| Some(prune(t, k)).filter(|p| p.len() != t.len()))
                .collect();
            for jobs in [1usize, 2, 8, 0] {
                let batch = local_prune_batch(&trees, k, &StageExecutor::new(jobs));
                assert_eq!(batch, reference, "k={k} jobs={jobs}");
            }
        }
    }

    #[test]
    fn batch_skips_fixed_points() {
        // Singletons are prune fixed points: the batch must not materialize
        // them.
        let trees = vec![ViewTree::singleton(0), ViewTree::star(1, &[0, 2, 3, 4])];
        let batch = local_prune_batch(&trees, 2, &StageExecutor::sequential());
        assert_eq!(batch[0], None);
        assert!(batch[1].is_some());
    }

    #[test]
    #[should_panic(expected = "at least 1")]
    fn zero_k_panics() {
        local_prune_batch(&[ViewTree::singleton(0)], 0, &StageExecutor::sequential());
    }

    #[test]
    fn pruned_star_matches_algorithm_1_on_the_star() {
        // Property over random graphs: the closed form equals the batch
        // prune of the star (or the star itself where the star is a fixed
        // point) for k below, at and above the degree.
        let stage = StageExecutor::sequential();
        for seed in 0..24u64 {
            let n = 40 + 7 * seed as usize;
            let g = gnm(n, (1 + seed as usize % 5) * n, seed);
            for v in 0..n {
                let star = star_of(&g, v);
                let deg = g.degree(v);
                for k in [1, 2, 3, deg.saturating_sub(1), deg, deg + 1] {
                    let k = k.max(1);
                    let pruned = local_prune_batch(std::slice::from_ref(&star), k, &stage);
                    let expected = pruned[0].as_ref().unwrap_or(&star);
                    let closed = pruned_star(v, g.neighbors(v), k);
                    assert_eq!(&closed, expected, "seed {seed}, v {v}, deg {deg}, k {k}");
                    assert_eq!(closed.wire_words(), expected.wire_words());
                    closed.assert_valid(&g);
                }
            }
        }
    }

    #[test]
    fn singleton_is_fixed_point() {
        let t = ViewTree::singleton(3);
        assert_eq!(local_prune_with(&t, 1, &mut PruneScratch::new()), None);
    }
}
