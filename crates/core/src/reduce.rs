//! Arboricity-reduction by random partitioning (Lemmas 2.1 and 2.2).
//!
//! When `λ(G) ≫ log n`, both theorems first split the instance so each part
//! has arboricity `O(log n)`: Theorem 1.1 partitions the *edges* uniformly at
//! random into `⌈k/log n⌉` parts (Lemma 2.1), Theorem 1.2 partitions the
//! *vertices* (Lemma 2.2). The parts are processed in parallel on disjoint
//! sections of the cluster and their outputs combine trivially (each edge
//! takes its direction from its own part's layering; colorings take disjoint
//! palettes).

use dgo_graph::Graph;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Random edge partitioning (Lemma 2.1): splits the edges of `graph`
/// uniformly into `parts` graphs over the same vertex set, and returns them
/// with each edge's part, in [`Graph::edges`] order. With
/// `parts = ⌈k/log n⌉` and `k ≥ λ(G)`, each part has arboricity `O(log n)`
/// with high probability.
///
/// Every part is a subsequence of `graph.edges()`, so its bucket is already
/// normalized and duplicate-free and goes straight to
/// [`Graph::from_normalized_unsorted`], with no re-sort and no
/// re-normalization. Deterministic in `seed`.
///
/// # Panics
///
/// Panics if `parts == 0` or `parts > u32::MAX`.
///
/// # Examples
///
/// ```
/// use dgo_core::partition_edges;
/// use dgo_graph::generators::clique;
///
/// let g = clique(20);
/// let (parts, part_of) = partition_edges(&g, 4, 7);
/// assert_eq!(parts.len(), 4);
/// let total: usize = parts.iter().map(|p| p.num_edges()).sum();
/// assert_eq!(total, g.num_edges());
/// // Edge i of `g.edges()` lives in part `part_of[i]`.
/// for ((u, v), &p) in g.edges().zip(&part_of) {
///     assert!(parts[p as usize].has_edge(u, v));
/// }
/// ```
pub fn partition_edges(graph: &Graph, parts: usize, seed: u64) -> (Vec<Graph>, Vec<u32>) {
    assert!(parts > 0, "parts must be positive");
    assert!(u32::try_from(parts).is_ok(), "parts must fit in u32");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut buckets: Vec<Vec<(u32, u32)>> = vec![Vec::new(); parts];
    let part_of = graph
        .edges()
        .map(|(u, v)| {
            let p = rng.random_range(0..parts);
            buckets[p].push((u as u32, v as u32));
            p as u32
        })
        .collect();
    let n = graph.num_vertices();
    let graphs = buckets
        .iter()
        .map(|edges| Graph::from_normalized_unsorted(n, edges, 1))
        .collect();
    (graphs, part_of)
}

/// A vertex-partition part: the induced subgraph and its `new -> old` vertex
/// mapping.
#[derive(Debug, Clone)]
pub struct VertexPart {
    /// The induced subgraph (vertices relabeled `0..part_size`).
    pub graph: Graph,
    /// `mapping[new_id] = old_id` back into the original graph.
    pub mapping: Vec<usize>,
}

/// Random vertex partitioning (Lemma 2.2): splits the vertices uniformly
/// into `parts` induced subgraphs. With `parts = ⌈k/log n⌉` and `k ≥ λ(G)`,
/// each part has arboricity `O(log n)` with high probability. Cross-part
/// edges are dropped from the parts; they are handled by coloring the parts
/// with *disjoint palettes* (as Theorem 1.2 does — [`crate::color`] enforces
/// this), which makes cross-part monochromatic edges impossible.
/// Deterministic in `seed`.
///
/// # Panics
///
/// Panics if `parts == 0`.
pub fn partition_vertices(graph: &Graph, parts: usize, seed: u64) -> Vec<VertexPart> {
    assert!(parts > 0, "parts must be positive");
    let n = graph.num_vertices();
    let mut rng = StdRng::seed_from_u64(seed);
    let assignment: Vec<usize> = (0..n).map(|_| rng.random_range(0..parts)).collect();
    let mut groups: Vec<Vec<usize>> = vec![Vec::new(); parts];
    for v in 0..n {
        groups[assignment[v]].push(v);
    }
    groups
        .into_iter()
        .map(|keep| {
            let (graph, mapping) = graph.induced_subgraph(&keep);
            VertexPart { graph, mapping }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use dgo_graph::generators::{clique, gnm};
    use dgo_graph::{arboricity_bounds, degeneracy};

    #[test]
    fn edge_partition_preserves_edges() {
        let g = gnm(100, 400, 3);
        let (parts, part_of) = partition_edges(&g, 5, 9);
        assert_eq!(part_of.len(), 400);
        let total: usize = parts.iter().map(|p| p.num_edges()).sum();
        assert_eq!(total, 400);
        for p in &parts {
            assert_eq!(p.num_vertices(), 100);
        }
    }

    #[test]
    fn edge_partition_reduces_arboricity() {
        // K40 has arboricity 20; 4 parts should each be far sparser.
        let g = clique(40);
        let before = arboricity_bounds(&g, 100).lower;
        let (parts, _) = partition_edges(&g, 4, 5);
        for p in &parts {
            let after = arboricity_bounds(p, 100).upper;
            assert!(
                after < before,
                "part arboricity {after} not below original {before}"
            );
        }
    }

    #[test]
    fn edge_partition_deterministic() {
        let g = gnm(50, 200, 1);
        let a = partition_edges(&g, 3, 42);
        let b = partition_edges(&g, 3, 42);
        assert_eq!(a, b);
    }

    #[test]
    fn edge_partition_single_part_is_identity() {
        let g = gnm(30, 60, 2);
        let (parts, part_of) = partition_edges(&g, 1, 0);
        assert_eq!(parts[0], g);
        assert!(part_of.iter().all(|&p| p == 0));
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_parts_panics() {
        partition_edges(&Graph::empty(2), 0, 0);
    }

    #[test]
    fn vertex_partition_covers_all_vertices() {
        let g = gnm(120, 300, 8);
        let parts = partition_vertices(&g, 4, 11);
        let mut seen = [false; 120];
        for part in &parts {
            for &old in &part.mapping {
                assert!(!seen[old], "vertex {old} in two parts");
                seen[old] = true;
            }
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn vertex_partition_keeps_only_internal_edges() {
        let g = clique(12);
        let parts = partition_vertices(&g, 3, 2);
        for part in &parts {
            let k = part.graph.num_vertices();
            assert_eq!(part.graph.num_edges(), k * k.saturating_sub(1) / 2);
        }
    }

    #[test]
    fn vertex_partition_reduces_degeneracy() {
        let g = clique(36);
        let before = degeneracy(&g).value;
        let parts = partition_vertices(&g, 6, 3);
        for part in &parts {
            assert!(degeneracy(&part.graph).value < before);
        }
    }
}
