//! `ExponentiateAndLocalPrune` — Algorithm 2 of the paper.
//!
//! Every vertex `v` maintains a rooted view tree `T_v` with a valid mapping
//! (root ↦ `v`) within a node budget `B`. Each of the `s` steps:
//!
//! 1. **Local prune** (no communication): `T_v ← LocalPrune(T_v, k)`;
//!    vertices whose pruned tree still exceeds `√B` nodes go *inactive*.
//! 2. **Exponentiation / attachment**: each active `v` takes the leaves at
//!    distance exactly `2^{i-1}` that map to active vertices `u`, fetches
//!    `T_u` (pruned), and splices copies onto those leaves (Definition 2.5).
//!
//! Claim 3.4 keeps every tree within `B` nodes (`√B` self × `√B` attached);
//! Claim 3.5 implements the step in `O(1)` MPC rounds with `O(n^δ + B)`
//! local and `O(nB + m)` global memory — which is exactly how the cluster
//! meters it here (tree fetches via the Lemma 4.1 gather, per-step residency
//! checkpoints).
//!
//! Both per-step passes are *per-vertex maps over a read-only snapshot* — the
//! paper's vertices act independently between synchronization barriers — so
//! they execute as [`StageExecutor`] stages, double-buffered: each attaching
//! vertex builds its next tree from its own pruned tree plus *borrowed*
//! provider trees in the current buffer, then the new trees swap in by
//! index. The double buffer is also what makes providers borrowable at all:
//! consumers never mutate the snapshot, so no provider tree is ever cloned —
//! each consumer splices the borrowed providers into one exactly-sized
//! destination block ([`ViewTree::attached_with`]): one heap allocation per
//! consumer, none per spliced node. The attachment plan that drives it is
//! flat too ([`AttachPlan`]): one leaf list per stage chunk, concatenated in
//! vertex order, not a buffer per requesting vertex. The gather meters the
//! plan's requests as a stream, without collecting them.
//!
//! Algorithm 1 is local, so step `i + 1`'s prune of a vertex reads only that
//! vertex's step-`i` attachment: one stage splices each attachment and
//! prunes it at once ([`local_prune_with`]), and an attachment the prune
//! shrinks is freed as soon as it is pruned. Two of the up to `2s + 1` trees
//! per vertex are not even built, because nothing reads them as trees:
//!
//! * **The stars.** They exist only to be pruned by step 1, and Algorithm 1
//!   on a star removes its `k` lowest-id leaves (every child subtree has size
//!   1, ties break by neighbour order). Step 1 starts from those pruned stars
//!   ([`pruned_star`]); the first residency checkpoint reads the star lengths
//!   off the degrees. With `s = 0` nothing is pruned, and the stars are built
//!   and returned.
//! * **Step `s`'s attachments.** The step loop ends in a *pending* state
//!   ([`PendingExponentiation`]): the step-`s` pruned trees plus step `s`'s
//!   attachment plan, metered and checkpointed (every checkpoint after an
//!   attachment reads the attached lengths off the plan) but not spliced.
//!   [`exponentiate_and_prune_staged`] materializes it; Algorithm 4 peels it
//!   in place, filling only the two columns Algorithm 3 reads
//!   ([`ViewTree::attached_columns_into`]).

use crate::error::{CoreError, Result};
use crate::prune::{local_prune_with, pruned_star, PruneScratch};
use crate::stage::StageExecutor;
use crate::vtree::{NodeId, ViewTree};
use dgo_graph::Graph;
use dgo_mpc::primitives::gather_bundles;
use dgo_mpc::ExecutionBackend;

/// Output of [`exponentiate_and_prune_staged`]: the per-vertex view trees
/// after `s` steps, with their final activity flags.
#[derive(Debug, Clone)]
pub struct ExponentiationResult {
    /// `trees[v]` is `T_v^{(s)}` with its valid mapping.
    pub trees: Vec<ViewTree>,
    /// Whether `v` was still active at the end. An inactive vertex attaches
    /// nothing, so its tree is its step-`s` pruned tree: every step prunes
    /// every tree, inactive ones included.
    pub active: Vec<bool>,
    /// Exponentiation steps actually executed.
    pub steps: u32,
}

/// Runs Algorithm 2 on `graph` under the metering of any
/// [`ExecutionBackend`], with the per-vertex passes (prune, request
/// collection, attachment, residency sizing) running as data-parallel
/// [`StageExecutor`] stages. Trees, activity flags, and metrics are
/// bit-identical at any thread count.
///
/// # Errors
///
/// * [`CoreError::InvalidParams`] if `k == 0` or `budget < 4`; nothing is
///   charged then.
/// * Propagates MPC capacity violations (the strict cluster rejects steps
///   whose communication or residency exceeds `S`).
///
/// # Examples
///
/// ```
/// use dgo_core::{exponentiate_and_prune_staged, StageExecutor};
/// use dgo_graph::generators::random_tree;
/// use dgo_mpc::{Cluster, ClusterConfig};
///
/// let g = random_tree(64, 1);
/// let mut cluster = Cluster::new(ClusterConfig::new(64, 4096));
/// let stage = StageExecutor::sequential();
/// let r = exponentiate_and_prune_staged(&g, 256, 2, 3, &mut cluster, &stage)?;
/// assert_eq!(r.trees.len(), 64);
/// for (v, t) in r.trees.iter().enumerate() {
///     assert_eq!(t.root_vertex(), v);
///     assert!(t.len() <= 256); // Claim 3.4
/// }
/// # Ok::<(), dgo_core::CoreError>(())
/// ```
pub fn exponentiate_and_prune_staged<B: ExecutionBackend>(
    graph: &Graph,
    budget: usize,
    k: usize,
    steps: u32,
    cluster: &mut B,
    stage: &StageExecutor,
) -> Result<ExponentiationResult> {
    Ok(exponentiate_pending(graph, budget, k, steps, cluster, stage)?.materialize(stage))
}

/// Algorithm 2 up to, but not including, the splicing of its last
/// attachments: every step is metered and checkpointed as in full, and the
/// result is the [`PendingExponentiation`] the module docs describe.
///
/// # Errors
///
/// As [`exponentiate_and_prune_staged`].
pub(crate) fn exponentiate_pending<B: ExecutionBackend>(
    graph: &Graph,
    budget: usize,
    k: usize,
    steps: u32,
    cluster: &mut B,
    stage: &StageExecutor,
) -> Result<PendingExponentiation> {
    if k == 0 || budget < 4 {
        return Err(CoreError::InvalidParams {
            reason: format!(
                "Algorithm 2 needs k >= 1 and budget >= 4, got k = {k}, budget = {budget}"
            ),
        });
    }
    let n = graph.num_vertices();
    let sqrt_budget = (budget as f64).sqrt().floor() as usize;

    // Initialization (Algorithm 2 preamble): `v` starts active with the star
    // over its neighbourhood iff `deg(v) < B`, else inactive with its root
    // alone. The checkpoint reads the star lengths off the degrees.
    let mut active: Vec<bool> = (0..n).map(|v| graph.degree(v) < budget).collect();
    checkpoint(graph, cluster, |v| {
        if active[v] {
            graph.degree(v) + 1
        } else {
            1
        }
    })?;
    // With `s >= 1` the stars are read only by step 1's prune, so build its
    // result directly; with `s = 0` they are the result.
    let mut trees: Vec<ViewTree> = stage.map_indices(n, |v| {
        if !active[v] {
            ViewTree::singleton(v)
        } else if steps == 0 {
            ViewTree::star(v, graph.neighbors(v))
        } else {
            pruned_star(v, graph.neighbors(v), k)
        }
    });

    let mut last_plan = None;
    for i in 1..=steps {
        // ---- Local prune step (free: no communication). ----
        // The trees are pruned already: step 1's above, every later step's
        // in the previous step's attachment stage.
        for (is_active, tree) in active.iter_mut().zip(&trees) {
            if tree.len() > sqrt_budget {
                *is_active = false;
            }
        }

        // ---- Exponentiation / attachment step. ----
        // The true depth 2^(i-1) exceeds every tree's depth (< B) long before
        // it leaves u32, so saturating it attaches exactly the same nothing.
        let frontier_depth = 1u32.checked_shl(i - 1).unwrap_or(u32::MAX);
        // Collect the plan — the frontier leaves whose images are active —
        // as a stage over the pruned snapshot, one flat plan per chunk,
        // concatenated in vertex order (the exact order the sequential loop
        // produces).
        let plan = stage.map_chunks(
            &trees,
            |offset, chunk| {
                // Sized for one leaf per vertex up front, so a plan of a few
                // leaves per vertex regrows a few times, not once per
                // doubling from empty.
                let mut plan = AttachPlan {
                    leaves: Vec::with_capacity(chunk.len()),
                    ends: Vec::with_capacity(chunk.len()),
                };
                for (v, tree) in (offset..).zip(chunk) {
                    if active[v] {
                        plan.leaves.extend(
                            tree.leaves_at_depth(frontier_depth)
                                .filter(|&leaf| active[tree.vertex(leaf)]),
                        );
                    }
                    plan.ends.push(plan.leaves.len());
                }
                plan
            },
            AttachPlan::append,
        );
        meter_tree_transfer(cluster, &trees, plan.requests(&trees), stage)?;
        // The residency after the attachment, read off the plan: a spliced
        // provider adds all of its nodes but its root.
        checkpoint(graph, cluster, |v| {
            let len = trees[v].len()
                + plan
                    .leaves_of(v)
                    .iter()
                    .map(|&leaf| trees[trees[v].vertex(leaf)].len() - 1)
                    .sum::<usize>();
            debug_assert!(
                len <= budget,
                "Claim 3.4 violated: tree of {v} has {len} nodes > B = {budget}"
            );
            len
        })?;
        if i < steps {
            // Splice every attachment and run step i + 1's Algorithm 1 on it
            // in the same stage; fixed points of the prune stay as they are.
            let next = stage.map_with(&trees, PruneScratch::new, |scratch, v, source| {
                let leaves = plan.leaves_of(v);
                if leaves.is_empty() {
                    return local_prune_with(source, k, scratch);
                }
                let attached =
                    ViewTree::attached_with(source, leaves, |leaf| &trees[source.vertex(leaf)]);
                Some(local_prune_with(&attached, k, scratch).unwrap_or(attached))
            });
            replace(&mut trees, next);
        } else {
            last_plan = Some(plan);
        }
    }
    Ok(PendingExponentiation {
        trees,
        active,
        steps,
        last_plan,
    })
}

/// Algorithm 2 stopped before splicing its last attachments: the step-`s`
/// pruned trees (the stars when `s = 0`) plus step `s`'s attachment plan.
/// Every step, the last one included, is already metered and checkpointed.
#[derive(Debug)]
pub(crate) struct PendingExponentiation {
    /// The step-`s` pruned trees, which the last attachments splice onto and
    /// from.
    pub(crate) trees: Vec<ViewTree>,
    /// The final activity flags.
    active: Vec<bool>,
    /// Exponentiation steps executed.
    steps: u32,
    /// Step `s`'s attachment plan, `None` when `s = 0`.
    last_plan: Option<AttachPlan>,
}

impl PendingExponentiation {
    /// The leaves of `trees[v]` that step `s` attaches the providers'
    /// `trees` at, in splice order (none when `s = 0`).
    pub(crate) fn last_leaves(&self, v: usize) -> &[NodeId] {
        self.last_plan
            .as_ref()
            .map_or(&[], |plan| plan.leaves_of(v))
    }

    /// Splices the last attachments: the result of the full Algorithm 2.
    fn materialize(mut self, stage: &StageExecutor) -> ExponentiationResult {
        if let Some(plan) = &self.last_plan {
            attach(&mut self.trees, plan, stage);
        }
        ExponentiationResult {
            trees: self.trees,
            active: self.active,
            steps: self.steps,
        }
    }
}

/// Moves every `Some` replacement into its vertex's slot.
fn replace(trees: &mut [ViewTree], replacements: impl IntoIterator<Item = Option<ViewTree>>) {
    for (tree, replacement) in trees.iter_mut().zip(replacements) {
        if let Some(replacement) = replacement {
            *tree = replacement;
        }
    }
}

/// Materializes the last step's attachments (inactive vertices keep their
/// pruned trees) as a double-buffered stage: every attaching vertex splices
/// its own pruned tree and the *borrowed* provider trees in the read-only
/// current buffer into one exactly-sized fresh arena — attachment must use
/// this step's pruned versions even when provider == consumer, and the
/// snapshot is exactly that.
fn attach(trees: &mut [ViewTree], plan: &AttachPlan, stage: &StageExecutor) {
    let snapshot: &[ViewTree] = trees;
    let attached = stage.map(snapshot, |v, source| {
        let leaves = plan.leaves_of(v);
        (!leaves.is_empty())
            .then(|| ViewTree::attached_with(source, leaves, |leaf| &snapshot[source.vertex(leaf)]))
    });
    replace(trees, attached);
}

/// One step's attachment plan, flat over all vertices in vertex order:
/// vertex `v` attaches at `leaves[ends[v − 1]..ends[v]]` (from 0 for
/// `v = 0`).
#[derive(Debug)]
struct AttachPlan {
    leaves: Vec<NodeId>,
    ends: Vec<usize>,
}

impl AttachPlan {
    /// The frontier leaves vertex `v` attaches at.
    fn leaves_of(&self, v: usize) -> &[NodeId] {
        let start = if v == 0 { 0 } else { self.ends[v - 1] };
        &self.leaves[start..self.ends[v]]
    }

    /// `self` followed by `later`, the plan of the next vertices (the chunk
    /// combine of [`StageExecutor::map_chunks`]): `later`'s offsets rebase
    /// past `self`'s leaves.
    fn append(mut self, later: AttachPlan) -> AttachPlan {
        let base = self.leaves.len();
        self.leaves.extend(later.leaves);
        self.ends.extend(later.ends.iter().map(|&end| base + end));
        self
    }

    /// The `(consumer v, provider u)` pair of every planned leaf, in plan
    /// order: the requests the bundle gather meters, streamed rather than
    /// collected.
    fn requests<'a>(
        &'a self,
        trees: &'a [ViewTree],
    ) -> impl Iterator<Item = (u64, u64)> + Clone + 'a {
        trees.iter().enumerate().flat_map(move |(v, tree)| {
            self.leaves_of(v)
                .iter()
                .map(move |&leaf| (v as u64, tree.vertex(leaf) as u64))
        })
    }
}

/// Meters one step's tree transfer as a Lemma 4.1 gather: a bundle is the
/// provider's tree at its encoded size (`ViewTree::wire_words`), computed as
/// a stage over the vertices for the distinct providers only and looked up
/// per request in the resulting per-vertex table. Marking the providers
/// first deduplicates them without sorting the requests.
fn meter_tree_transfer<B: ExecutionBackend>(
    cluster: &mut B,
    trees: &[ViewTree],
    requests: impl Iterator<Item = (u64, u64)> + Clone,
    stage: &StageExecutor,
) -> Result<()> {
    let n = trees.len();
    let mut is_provider = vec![false; n];
    for (_, u) in requests.clone() {
        is_provider[u as usize] = true;
    }
    let wire_words = stage.map(&is_provider, |u, &provides| {
        if provides {
            trees[u].wire_words()
        } else {
            0
        }
    });
    drop(is_provider);
    // Book the bundle payloads (post-codec vs the flat baseline) once per
    // delivered copy. Recorded here in the algorithm layer — the encoding
    // is the algorithm's choice, so the totals are backend-independent by
    // construction.
    let (bundle_wire, bundle_flat) = requests.clone().fold((0usize, 0usize), |(w, f), (_, u)| {
        (
            w + wire_words[u as usize],
            f + trees[u as usize].flat_wire_words(),
        )
    });
    if requests.clone().next().is_some() {
        cluster
            .metrics_mut()
            .record_bundle_words(bundle_wire, bundle_flat);
    }
    gather_bundles(cluster, requests, n, |u| Some(wire_words[u as usize]))?;
    Ok(())
}

/// Residency checkpoint over the per-vertex trees, `len_of(v)` nodes each:
/// trees are balanced over machines (one tree is never split — Claim 3.5's
/// `O(n^δ + B)` local memory), the graph's edge share is uniform. Alongside
/// the word-accounting the checkpoint also meters the *host* footprint of
/// the tree arenas ([`ViewTree::arena_bytes`]) per machine — the
/// `peak_tree_bytes` component the experiment tables report next to the
/// certified words. It reads lengths only, so it meters trees that are never
/// built (the stars, the last attachments) exactly as built ones.
///
/// The balance deals the trees round-robin in size-descending order, which
/// is within 2x of optimal (largest-first onto the lightest machine would
/// be `O(n log n)`). Each slot's load then depends only on the sorted
/// sizes, so a counting sort over the sizes (each at most the tree budget)
/// replaces a sort of the trees, and only the first `min(n, M)` machines —
/// the ones that receive a tree — are listed on top of the uniform share:
/// `O(n + B)`, whatever the machine count. Slot `i` receives
/// `⌈(n − i) / min(n, M)⌉` trees, so its arena bytes follow from its words.
fn checkpoint<B: ExecutionBackend>(
    graph: &Graph,
    cluster: &mut B,
    len_of: impl Fn(usize) -> usize,
) -> Result<()> {
    let n = graph.num_vertices();
    let machines = cluster.num_machines();
    let graph_share = (2 * graph.num_edges() + n).div_ceil(machines);
    let largest = (0..n).map(&len_of).max().unwrap_or(0);
    let mut trees_of_len = vec![0usize; largest + 1];
    for v in 0..n {
        trees_of_len[len_of(v)] += 1;
    }
    let dealt = n.min(machines);
    let mut load = vec![0usize; dealt];
    let mut slot = 0;
    for (len, &count) in trees_of_len.iter().enumerate().rev() {
        for _ in 0..count {
            load[slot] += 2 * len;
            slot += 1;
            if slot == dealt {
                slot = 0;
            }
        }
    }
    drop(trees_of_len);
    cluster.checkpoint_residency(graph_share, &load)?;
    // Two words per node: the words become the slot's arena bytes in place.
    let mut tree_bytes = load;
    for (i, bytes) in tree_bytes.iter_mut().enumerate() {
        *bytes = ViewTree::arena_bytes_of(*bytes / 2, (n - i).div_ceil(dealt));
    }
    cluster.metrics_mut().record_tree_bytes(&tree_bytes);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use dgo_graph::generators::{clique, gnm, random_tree, star};
    use dgo_mpc::{Cluster, ClusterConfig};

    fn big_cluster(n: usize, budget: usize) -> Cluster {
        // Generous machine count so residency is never the binding constraint
        // in unit tests (driver-level tests exercise tight clusters).
        Cluster::new(ClusterConfig::new((n * budget / 64).max(8), 4096))
    }

    /// Algorithm 2 with the per-vertex passes inline.
    fn exponentiate(
        graph: &Graph,
        budget: usize,
        k: usize,
        steps: u32,
        cluster: &mut Cluster,
    ) -> Result<ExponentiationResult> {
        let stage = StageExecutor::sequential();
        exponentiate_and_prune_staged(graph, budget, k, steps, cluster, &stage)
    }

    #[test]
    fn claim_3_4_budget_respected() {
        let g = gnm(200, 800, 3);
        let budget = 144;
        let mut cluster = big_cluster(200, budget);
        let r = exponentiate(&g, budget, 3, 3, &mut cluster).unwrap();
        for t in &r.trees {
            assert!(t.len() <= budget);
        }
    }

    #[test]
    fn claim_3_3_valid_mappings_preserved() {
        let g = gnm(80, 240, 5);
        let mut cluster = big_cluster(80, 100);
        let r = exponentiate(&g, 100, 2, 3, &mut cluster).unwrap();
        for (v, t) in r.trees.iter().enumerate() {
            t.assert_valid(&g);
            assert_eq!(t.root_vertex(), v);
        }
    }

    #[test]
    fn high_degree_vertices_start_inactive() {
        let g = star(100); // center has degree 99
        let mut cluster = big_cluster(100, 50);
        let r = exponentiate(&g, 50, 2, 2, &mut cluster).unwrap();
        assert!(!r.active[0]);
        assert_eq!(r.trees[0].len(), 1); // singleton, pruned each step
    }

    #[test]
    fn tree_graph_views_grow_along_paths() {
        // On a path graph with k >= 2 nothing is ever pruned away
        // structurally... except Algorithm 1 collapses nodes with <= k
        // children. With k = 1, internal path nodes keep 1 child... they
        // have <= 1 child in the view tree, so they collapse. Use k = 1 and
        // verify trees stay small instead.
        let g = random_tree(64, 9);
        let mut cluster = big_cluster(64, 256);
        let r = exponentiate(&g, 256, 1, 3, &mut cluster).unwrap();
        for t in &r.trees {
            assert!(t.len() <= 256);
        }
    }

    #[test]
    fn rounds_charged_per_step() {
        let g = gnm(50, 150, 7);
        let mut a = big_cluster(50, 64);
        let mut b = big_cluster(50, 64);
        exponentiate(&g, 64, 2, 1, &mut a).unwrap();
        exponentiate(&g, 64, 2, 4, &mut b).unwrap();
        assert!(b.metrics().rounds > a.metrics().rounds);
        // O(s) scaling: 4 steps cost at most ~6x one step (constant-round
        // primitives per step, plus tree-depth-dependent gathers).
        assert!(b.metrics().rounds <= 6 * a.metrics().rounds.max(4));
    }

    #[test]
    fn zero_steps_returns_initial_views() {
        let g = gnm(30, 60, 1);
        let mut cluster = big_cluster(30, 64);
        let r = exponentiate(&g, 64, 2, 0, &mut cluster).unwrap();
        for (v, t) in r.trees.iter().enumerate() {
            assert_eq!(t.len(), 1 + g.degree(v));
        }
    }

    #[test]
    fn clique_deactivates_under_small_budget() {
        // K12: every view explodes; with B = 16 (sqrt = 4) everything with
        // degree 11 < 16 starts active but goes inactive after pruning can't
        // keep trees under 4 nodes... unless k >= 11 collapses to singleton.
        let g = clique(12);
        let mut cluster = big_cluster(12, 16);
        let r = exponentiate(&g, 16, 2, 2, &mut cluster).unwrap();
        for t in &r.trees {
            assert!(t.len() <= 16);
        }
        // With k = 2, pruning keeps 11 - 2 = 9 children > sqrt(16) = 4:
        // everyone deactivates at step 1.
        assert!(r.active.iter().all(|&a| !a));
    }

    #[test]
    fn deterministic() {
        let g = gnm(40, 120, 2);
        let mut a = big_cluster(40, 64);
        let mut b = big_cluster(40, 64);
        let ra = exponentiate(&g, 64, 2, 3, &mut a).unwrap();
        let rb = exponentiate(&g, 64, 2, 3, &mut b).unwrap();
        assert_eq!(ra.trees, rb.trees);
        assert_eq!(ra.active, rb.active);
    }

    #[test]
    fn staged_matches_sequential_bit_for_bit() {
        // Above the stage engine's inline floor, so jobs > 1 splits chunks.
        let g = gnm(1500, 6000, 6);
        let mut reference_cluster = big_cluster(1500, 100);
        let reference = exponentiate(&g, 100, 2, 3, &mut reference_cluster).unwrap();
        for jobs in [2usize, 8, 0] {
            let mut cluster = big_cluster(1500, 100);
            let r = exponentiate_and_prune_staged(
                &g,
                100,
                2,
                3,
                &mut cluster,
                &StageExecutor::new(jobs),
            )
            .unwrap();
            assert_eq!(r.trees, reference.trees, "jobs = {jobs}");
            assert_eq!(r.active, reference.active, "jobs = {jobs}");
            assert_eq!(
                cluster.metrics(),
                reference_cluster.metrics(),
                "jobs = {jobs}"
            );
        }
    }

    #[test]
    fn bundle_words_metered_against_flat_baseline() {
        let g = gnm(150, 600, 6);
        let mut cluster = big_cluster(150, 100);
        exponentiate(&g, 100, 2, 3, &mut cluster).unwrap();
        let m = cluster.metrics();
        assert!(m.bundle_flat_words > 0, "expected shipped bundles");
        assert!(m.bundle_wire_words > 0);
        // Every u32 varint is at most 5 bytes, so the encoded stream is
        // strictly below 2 words/node for every tree.
        assert!(m.bundle_wire_words < m.bundle_flat_words);
        // The charged gather traffic includes every bundle payload.
        assert!(m.bundle_wire_words <= m.total_comm_words);
    }

    #[test]
    fn tiny_budget_and_zero_k_are_invalid_params() {
        let g = Graph::empty(1);
        for (budget, k) in [(2, 1), (3, 2), (16, 0)] {
            let mut cluster = big_cluster(1, 4);
            let err = exponentiate(&g, budget, k, 1, &mut cluster).unwrap_err();
            assert!(
                matches!(err, CoreError::InvalidParams { .. }),
                "budget {budget}, k {k}: {err}"
            );
            assert_eq!(
                cluster.metrics(),
                big_cluster(1, 4).metrics(),
                "nothing is charged"
            );
        }
    }

    use dgo_graph::Graph;
}
