//! Strictly increasing path counts (Definition 2.2 and Lemma 2.4).
//!
//! For a partial layer assignment `ℓ`, a path `v₁, …, v_k` is *strictly
//! increasing* if `ℓ(v₁) < ℓ(v₂) < … < ℓ(v_k) < ∞`. `NumPathsIn(v)` counts
//! the strictly increasing paths ending at `v`; `NumPathsOut(v)` those
//! starting at `v`. Lemma 2.4 bounds `Σ_v NumPathsIn(v) = Σ_v NumPathsOut(v)
//! ≤ n·d^L` for a complete layering with out-degree `d` — the quantity that
//! controls which vertices survive exponentiation with in-budget view trees
//! (Lemma 3.7), and therefore the layer-tail decay of Lemma 3.13.
//!
//! Counts saturate at `u64::MAX` (the analysis only ever compares them
//! against budgets far below that).

use crate::stage::StageExecutor;
use dgo_graph::{Graph, LayerAssignment, UNASSIGNED};

/// `NumPathsIn(v)` for every vertex: strictly increasing paths *ending* at
/// `v`. Unassigned vertices (`ℓ = ∞`) have count 0 by Definition 2.2 (the
/// final vertex must have a finite layer).
///
/// Each layer's vertices are counted as one data-parallel [`StageExecutor`]
/// stage. Strict monotonicity means same-layer vertices never read each
/// other's counts — a layer is a pure per-vertex map over the counts of
/// strictly lower layers — so results are bit-identical to the sequential
/// scan at any thread count.
///
/// # Panics
///
/// Panics if the assignment does not cover `graph`'s vertex set.
///
/// # Examples
///
/// ```
/// use dgo_core::{num_paths_in_staged, StageExecutor};
/// use dgo_graph::{Graph, LayerAssignment};
///
/// // Path 0-1-2 with layers 1 < 2 < 3: vertex 2 collects paths
/// // (2), (1,2), (0,1,2).
/// let g = Graph::from_edges(3, &[(0, 1), (1, 2)])?;
/// let la = LayerAssignment::new(vec![1, 2, 3])?;
/// let stage = StageExecutor::sequential();
/// assert_eq!(num_paths_in_staged(&g, &la, &stage), vec![1, 2, 3]);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn num_paths_in_staged(
    graph: &Graph,
    layering: &LayerAssignment,
    stage: &StageExecutor,
) -> Vec<u64> {
    counts(graph, layering, Direction::In, stage)
}

/// `NumPathsOut(v)` for every vertex: strictly increasing paths *starting*
/// at `v` (0 for unassigned vertices), with per-layer vertex-parallel
/// stages; see [`num_paths_in_staged`].
///
/// # Panics
///
/// Panics if the assignment does not cover `graph`'s vertex set.
pub fn num_paths_out_staged(
    graph: &Graph,
    layering: &LayerAssignment,
    stage: &StageExecutor,
) -> Vec<u64> {
    counts(graph, layering, Direction::Out, stage)
}

#[derive(Clone, Copy, PartialEq)]
enum Direction {
    In,
    Out,
}

fn counts(
    graph: &Graph,
    layering: &LayerAssignment,
    dir: Direction,
    stage: &StageExecutor,
) -> Vec<u64> {
    let n = graph.num_vertices();
    assert_eq!(layering.len(), n, "layering must cover the graph");
    // Order vertices by layer: In-counts propagate upward (process ascending
    // layers), Out-counts downward (process descending layers).
    let mut order: Vec<usize> = (0..n).filter(|&v| layering.is_assigned(v)).collect();
    order.sort_unstable_by_key(|&v| layering.layer(v));
    if dir == Direction::Out {
        order.reverse();
    }
    let mut count = vec![0u64; n];
    // Process one layer at a time: within a layer, every count depends only
    // on strictly lower (In) / higher (Out) layers — already final in
    // `count` — so the layer is a pure per-vertex map over a read-only
    // snapshot, and the batched writes land in index-ordered slots. The
    // totals buffer is reused across layers (one allocation per call, not
    // one per layer).
    let mut totals: Vec<u64> = Vec::new();
    let mut start = 0usize;
    while start < order.len() {
        let layer = layering.layer(order[start]);
        debug_assert_ne!(layer, UNASSIGNED);
        let mut end = start + 1;
        while end < order.len() && layering.layer(order[end]) == layer {
            end += 1;
        }
        let batch = &order[start..end];
        // The neighbor refill runs branch-free: unassigned neighbors always
        // carry count 0 (they are never processed), so multiplying each
        // neighbor's count by the layer predicate both masks them out and
        // drops the explicit UNASSIGNED test — for In because ∞ (`u32::MAX`)
        // never sits strictly below a finite `lv`, for Out because adding the
        // zero count is a no-op. Direction is hoisted out of the scan.
        match dir {
            Direction::In => stage.map_into(batch, &mut totals, |_, &v| {
                let lv = layering.layer(v);
                let mut total = 1u64; // the single-vertex path
                for &w in graph.neighbors(v) {
                    let lw = layering.layer(w as usize);
                    // Paths arrive from strictly lower layers.
                    total = total.saturating_add(count[w as usize] * (lw < lv) as u64);
                }
                total
            }),
            Direction::Out => stage.map_into(batch, &mut totals, |_, &v| {
                let lv = layering.layer(v);
                let mut total = 1u64;
                for &w in graph.neighbors(v) {
                    let lw = layering.layer(w as usize);
                    // Paths leave toward strictly higher layers.
                    total = total.saturating_add(count[w as usize] * (lw > lv) as u64);
                }
                total
            }),
        }
        for (&v, &total) in batch.iter().zip(&totals) {
            count[v] = total;
        }
        start = end;
    }
    count
}

/// The upper bound of Lemma 2.4: `n · Σ_{j=0}^{L-1} d^j` (saturating).
pub fn lemma_2_4_bound(n: usize, d: usize, layers: u32) -> u64 {
    let mut sum = 0u64;
    let mut term = 1u64;
    for _ in 0..layers {
        sum = sum.saturating_add(term);
        term = term.saturating_mul(d.max(1) as u64);
    }
    (n as u64).saturating_mul(sum)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dgo_graph::generators::gnm;

    /// `NumPathsIn` on the inline executor.
    fn paths_in(graph: &Graph, layering: &LayerAssignment) -> Vec<u64> {
        num_paths_in_staged(graph, layering, &StageExecutor::sequential())
    }

    /// `NumPathsOut` on the inline executor.
    fn paths_out(graph: &Graph, layering: &LayerAssignment) -> Vec<u64> {
        num_paths_out_staged(graph, layering, &StageExecutor::sequential())
    }

    #[test]
    fn single_vertex_paths() {
        let g = Graph::empty(3);
        let la = LayerAssignment::new(vec![1, 2, 3]).unwrap();
        assert_eq!(paths_in(&g, &la), vec![1, 1, 1]);
        assert_eq!(paths_out(&g, &la), vec![1, 1, 1]);
    }

    #[test]
    fn unassigned_vertices_count_zero() {
        let g = Graph::from_edges(2, &[(0, 1)]).unwrap();
        let la = LayerAssignment::new(vec![1, UNASSIGNED]).unwrap();
        assert_eq!(paths_in(&g, &la), vec![1, 0]);
        assert_eq!(paths_out(&g, &la), vec![1, 0]);
    }

    #[test]
    fn same_layer_edges_do_not_extend_paths() {
        let g = Graph::from_edges(2, &[(0, 1)]).unwrap();
        let la = LayerAssignment::new(vec![4, 4]).unwrap();
        assert_eq!(paths_in(&g, &la), vec![1, 1]);
    }

    #[test]
    fn double_counting_identity_lemma_2_4() {
        // Sum of In equals sum of Out (Lemma 2.4's first equality).
        let g = gnm(200, 600, 11);
        let peel = dgo_local::be08_peeling(&g, 3, 0.5, 0);
        let la = peel.layering;
        assert!(la.is_complete());
        let sum_in: u64 = paths_in(&g, &la).iter().sum();
        let sum_out: u64 = paths_out(&g, &la).iter().sum();
        assert_eq!(sum_in, sum_out);
    }

    #[test]
    fn lemma_2_4_upper_bound_holds() {
        let g = gnm(150, 450, 2);
        let peel = dgo_local::be08_peeling(&g, 3, 0.5, 0);
        let la = peel.layering;
        assert!(la.is_complete());
        let d = la.out_degree_bound(&g).unwrap();
        let layers = la.max_layer().unwrap();
        let bound = lemma_2_4_bound(g.num_vertices(), d, layers);
        let sum_out: u64 = paths_out(&g, &la).iter().sum();
        assert!(sum_out <= bound, "{sum_out} > {bound}");
    }

    #[test]
    fn diamond_counts() {
        //   0 (layer 1)
        //  / \
        // 1   2 (layer 2)
        //  \ /
        //   3 (layer 3)
        let g = Graph::from_edges(4, &[(0, 1), (0, 2), (1, 3), (2, 3)]).unwrap();
        let la = LayerAssignment::new(vec![1, 2, 2, 3]).unwrap();
        let inn = paths_in(&g, &la);
        // v3: (3), (1,3), (2,3), (0,1,3), (0,2,3) = 5.
        assert_eq!(inn, vec![1, 2, 2, 5]);
        let out = paths_out(&g, &la);
        // v0: (0), (0,1), (0,2), (0,1,3), (0,2,3) = 5.
        assert_eq!(out, vec![5, 2, 2, 1]);
    }

    #[test]
    fn staged_counts_match_sequential_at_any_thread_count() {
        let g = gnm(300, 1200, 13);
        let peel = dgo_local::be08_peeling(&g, 4, 0.5, 0);
        let la = peel.layering;
        let reference_in = paths_in(&g, &la);
        let reference_out = paths_out(&g, &la);
        for jobs in [1usize, 2, 8, 0] {
            let stage = StageExecutor::new(jobs);
            assert_eq!(num_paths_in_staged(&g, &la, &stage), reference_in);
            assert_eq!(num_paths_out_staged(&g, &la, &stage), reference_out);
        }
    }

    #[test]
    fn saturation_does_not_panic() {
        assert_eq!(lemma_2_4_bound(usize::MAX, usize::MAX, 64), u64::MAX);
    }

    #[test]
    #[should_panic(expected = "cover")]
    fn length_mismatch_panics() {
        let g = Graph::empty(3);
        let la = LayerAssignment::new(vec![1]).unwrap();
        paths_in(&g, &la);
    }
}
