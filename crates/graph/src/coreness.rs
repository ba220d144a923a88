//! Exact coreness (k-core) decomposition.
//!
//! The coreness of `v` is the largest `k` such that `v` belongs to the
//! `k`-core (the maximal subgraph of minimum degree `≥ k`). Coreness is the
//! per-vertex refinement of degeneracy (`max coreness = degeneracy`) and the
//! quantity the density-based clustering application of [GLM19] estimates;
//! `dgo_core::approximate_coreness` reproduces that application, with this
//! exact `O(m)` computation as ground truth.

use crate::degeneracy::min_degree_peel;
use crate::graph::Graph;

/// Computes the exact coreness of every vertex (Matula–Beck bucket peeling,
/// the same peel as [`degeneracy`](fn@crate::degeneracy)).
///
/// Runs in `O(n + m)` time.
///
/// # Examples
///
/// ```
/// use dgo_graph::{coreness, Graph};
///
/// // A triangle with a pendant: triangle vertices have coreness 2, the
/// // pendant has coreness 1.
/// let g = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 0), (2, 3)])?;
/// assert_eq!(coreness(&g), vec![2, 2, 2, 1]);
/// # Ok::<(), dgo_graph::GraphError>(())
/// ```
pub fn coreness(graph: &Graph) -> Vec<u32> {
    min_degree_peel(graph).1
}

#[cfg(test)]
#[allow(clippy::needless_range_loop)]
mod tests {
    use super::*;
    use crate::degeneracy::degeneracy;
    use crate::generators::{clique, cycle, gnm, star};

    #[test]
    fn empty_graph() {
        assert!(coreness(&Graph::empty(0)).is_empty());
        assert_eq!(coreness(&Graph::empty(3)), vec![0, 0, 0]);
    }

    #[test]
    fn star_coreness_one() {
        let g = star(10);
        let c = coreness(&g);
        assert!(c.iter().all(|&x| x == 1));
    }

    #[test]
    fn clique_coreness() {
        let g = clique(6);
        assert!(coreness(&g).iter().all(|&c| c == 5));
    }

    #[test]
    fn cycle_coreness_two() {
        let g = cycle(7);
        assert!(coreness(&g).iter().all(|&c| c == 2));
    }

    #[test]
    fn mixed_structure() {
        // K4 (coreness 3) with a path tail (coreness 1).
        let g = Graph::from_edges(
            7,
            &[
                (0, 1),
                (0, 2),
                (0, 3),
                (1, 2),
                (1, 3),
                (2, 3),
                (3, 4),
                (4, 5),
                (5, 6),
            ],
        )
        .unwrap();
        let c = coreness(&g);
        assert_eq!(&c[..4], &[3, 3, 3, 3]);
        assert_eq!(&c[4..], &[1, 1, 1]);
    }

    #[test]
    fn max_coreness_equals_degeneracy() {
        for seed in 0..4 {
            let g = gnm(120, 420, seed);
            let c = coreness(&g);
            let d = degeneracy(&g).value;
            assert_eq!(
                c.iter().copied().max().unwrap_or(0) as usize,
                d,
                "seed {seed}"
            );
        }
    }

    #[test]
    fn coreness_defines_valid_cores() {
        // Every vertex of coreness >= k must have >= k neighbors of
        // coreness >= k (the defining property of the k-core).
        let g = gnm(100, 350, 9);
        let c = coreness(&g);
        for v in 0..g.num_vertices() {
            let k = c[v];
            let inside = g
                .neighbors(v)
                .iter()
                .filter(|&&w| c[w as usize] >= k)
                .count();
            assert!(inside as u32 >= k, "vertex {v} violates its own core");
        }
    }

    #[test]
    fn coreness_bounded_by_degree() {
        let g = gnm(80, 200, 3);
        let c = coreness(&g);
        for v in 0..g.num_vertices() {
            assert!(c[v] as usize <= g.degree(v));
        }
    }
}
