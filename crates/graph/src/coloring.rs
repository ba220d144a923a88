//! Vertex colorings and proper-coloring validation.
//!
//! Theorem 1.2 of the paper produces a proper coloring with `O(λ log log n)`
//! colors. This module supplies the output type, validity checking, and a
//! sequential greedy reference used as ground truth in tests.

use crate::error::{GraphError, Result};
use crate::graph::Graph;
use serde::{Deserialize, Serialize};

/// A vertex coloring: `color(v)` for every vertex of a specific [`Graph`].
///
/// # Examples
///
/// ```
/// use dgo_graph::{Graph, Coloring};
///
/// let g = Graph::from_edges(3, &[(0, 1), (1, 2)])?;
/// let c = Coloring::new(vec![0, 1, 0]);
/// c.validate(&g)?;
/// assert_eq!(c.num_colors(), 2);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Coloring {
    colors: Vec<u32>,
}

impl Coloring {
    /// Wraps a color vector (entry `v` is the color of vertex `v`). Any
    /// vector is a coloring; [`validate`](Coloring::validate) checks that it
    /// is proper for a graph.
    pub fn new(colors: Vec<u32>) -> Self {
        Coloring { colors }
    }

    /// The color assigned to vertex `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    pub fn color(&self, v: usize) -> u32 {
        self.colors[v]
    }

    /// Number of vertices covered.
    pub fn len(&self) -> usize {
        self.colors.len()
    }

    /// Whether the coloring covers zero vertices.
    pub fn is_empty(&self) -> bool {
        self.colors.is_empty()
    }

    /// Number of *distinct* colors used.
    pub fn num_colors(&self) -> usize {
        let mut seen: Vec<u32> = self.colors.clone();
        seen.sort_unstable();
        seen.dedup();
        seen.len()
    }

    /// The largest color value used plus one (palette size upper bound).
    pub fn palette_bound(&self) -> usize {
        self.colors
            .iter()
            .copied()
            .max()
            .map_or(0, |c| c as usize + 1)
    }

    /// Access the raw color slice.
    pub fn as_slice(&self) -> &[u32] {
        &self.colors
    }

    /// Checks that the coloring is *proper* for `graph`: it covers every
    /// vertex and no edge is monochromatic.
    ///
    /// # Errors
    ///
    /// [`GraphError::LengthMismatch`] if sizes differ, or
    /// [`GraphError::InvalidParameter`] naming the first monochromatic edge.
    pub fn validate(&self, graph: &Graph) -> Result<()> {
        if self.colors.len() != graph.num_vertices() {
            return Err(GraphError::LengthMismatch {
                expected: graph.num_vertices(),
                found: self.colors.len(),
            });
        }
        for (u, v) in graph.edges() {
            if self.colors[u] == self.colors[v] {
                return Err(GraphError::InvalidParameter {
                    reason: format!(
                        "edge ({u}, {v}) is monochromatic with color {}",
                        self.colors[u]
                    ),
                });
            }
        }
        Ok(())
    }

    /// Sequential greedy coloring in the given vertex order: each vertex takes
    /// the smallest color unused by already-colored neighbors.
    ///
    /// With a degeneracy order this uses at most `degeneracy + 1` colors; used
    /// as the reference point in tests and experiments.
    pub fn greedy(graph: &Graph, order: &[usize]) -> Self {
        let n = graph.num_vertices();
        let mut colors = vec![u32::MAX; n];
        let mut forbidden: Vec<u32> = Vec::new();
        for &v in order {
            forbidden.clear();
            for &w in graph.neighbors(v) {
                let c = colors[w as usize];
                if c != u32::MAX {
                    forbidden.push(c);
                }
            }
            forbidden.sort_unstable();
            forbidden.dedup();
            let mut pick = 0u32;
            for &c in &forbidden {
                if c == pick {
                    pick += 1;
                } else if c > pick {
                    break;
                }
            }
            colors[v] = pick;
        }
        Coloring { colors }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proper_coloring_validates() {
        let g = Graph::from_edges(3, &[(0, 1), (1, 2), (0, 2)]).unwrap();
        let c = Coloring::new(vec![0, 1, 2]);
        assert!(c.validate(&g).is_ok());
        assert_eq!(c.num_colors(), 3);
        assert_eq!(c.palette_bound(), 3);
    }

    #[test]
    fn monochromatic_edge_rejected() {
        let g = Graph::from_edges(2, &[(0, 1)]).unwrap();
        let c = Coloring::new(vec![5, 5]);
        let err = c.validate(&g).unwrap_err();
        assert!(err.to_string().contains("monochromatic"));
    }

    #[test]
    fn length_mismatch_rejected() {
        let g = Graph::from_edges(2, &[(0, 1)]).unwrap();
        let c = Coloring::new(vec![0]);
        assert!(c.validate(&g).is_err());
    }

    #[test]
    fn greedy_path_uses_two_colors() {
        let g = Graph::from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4)]).unwrap();
        let order: Vec<usize> = (0..5).collect();
        let c = Coloring::greedy(&g, &order);
        assert!(c.validate(&g).is_ok());
        assert_eq!(c.num_colors(), 2);
    }

    #[test]
    fn greedy_clique_uses_k_colors() {
        let mut edges = Vec::new();
        for u in 0..4 {
            for v in (u + 1)..4 {
                edges.push((u, v));
            }
        }
        let g = Graph::from_edges(4, &edges).unwrap();
        let order: Vec<usize> = (0..4).collect();
        let c = Coloring::greedy(&g, &order);
        assert!(c.validate(&g).is_ok());
        assert_eq!(c.num_colors(), 4);
    }

    #[test]
    fn greedy_skips_over_forbidden_gaps() {
        // Star center colored last must skip leaf colors {0} and take 1.
        let g = Graph::from_edges(4, &[(0, 1), (0, 2), (0, 3)]).unwrap();
        let c = Coloring::greedy(&g, &[1, 2, 3, 0]);
        assert!(c.validate(&g).is_ok());
        assert_eq!(c.color(0), 1);
        assert_eq!(c.num_colors(), 2);
    }

    #[test]
    fn empty_coloring() {
        let c = Coloring::new(vec![]);
        assert!(c.is_empty());
        assert_eq!(c.num_colors(), 0);
        assert_eq!(c.palette_bound(), 0);
        assert!(c.validate(&Graph::empty(0)).is_ok());
    }
}
