//! (Partial) layer assignments, a.k.a. H-partitions (paper Definition 2.1).
//!
//! A partial layer assignment with `L` layers and out-degree `d` is a function
//! `ℓ : V → [1, L] ∪ {∞}` such that every vertex `v` with `ℓ(v) ≠ ∞` has at
//! most `d` neighbors `u` with `ℓ(u) ≥ ℓ(v)`. Orienting each edge toward the
//! higher layer (ties by id) then yields an orientation with max outdegree
//! `≤ d`, which is how Theorem 1.1 derives its result.

use crate::error::{GraphError, Result};
use crate::graph::Graph;
use crate::orientation::Orientation;
use serde::{Deserialize, Serialize};

/// Layer value of an unassigned vertex (the paper's `∞`).
pub const UNASSIGNED: u32 = u32::MAX;

/// A (partial) layer assignment of the vertices of a [`Graph`]
/// (paper Definition 2.1).
///
/// Layers are `1..=L`; [`UNASSIGNED`] encodes `∞`.
///
/// # Examples
///
/// ```
/// use dgo_graph::{Graph, LayerAssignment};
///
/// let g = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3)])?;
/// // Peel the path from the outside in: ends in layer 1, middle in layer 2.
/// let la = LayerAssignment::new(vec![1, 2, 2, 1])?;
/// assert!(la.is_complete());
/// assert_eq!(la.out_degree_bound(&g)?, 1);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct LayerAssignment {
    layers: Vec<u32>,
}

impl LayerAssignment {
    /// Wraps a layer vector; entry `v` is the layer of vertex `v`
    /// ([`UNASSIGNED`] for `∞`).
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::InvalidParameter`] if any finite layer is `0`
    /// (layers are 1-based, matching the paper's `[L]`).
    pub fn new(layers: Vec<u32>) -> Result<Self> {
        if layers.contains(&0) {
            return Err(GraphError::InvalidParameter {
                reason: "layer 0 is invalid; layers are 1-based".to_string(),
            });
        }
        Ok(LayerAssignment { layers })
    }

    /// An all-unassigned assignment over `n` vertices.
    pub fn unassigned(n: usize) -> Self {
        LayerAssignment {
            layers: vec![UNASSIGNED; n],
        }
    }

    /// Layer of vertex `v` ([`UNASSIGNED`] if `∞`).
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    pub fn layer(&self, v: usize) -> u32 {
        self.layers[v]
    }

    /// Whether vertex `v` has a finite layer.
    pub fn is_assigned(&self, v: usize) -> bool {
        self.layers[v] != UNASSIGNED
    }

    /// Sets the layer of vertex `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range or `layer == 0`.
    pub fn set_layer(&mut self, v: usize, layer: u32) {
        assert_ne!(layer, 0, "layers are 1-based");
        self.layers[v] = layer;
    }

    /// Number of vertices covered.
    pub fn len(&self) -> usize {
        self.layers.len()
    }

    /// Whether the assignment covers zero vertices.
    pub fn is_empty(&self) -> bool {
        self.layers.is_empty()
    }

    /// Whether every vertex has a finite layer (a *complete* assignment).
    pub fn is_complete(&self) -> bool {
        self.layers.iter().all(|&l| l != UNASSIGNED)
    }

    /// Number of vertices with a finite layer.
    pub fn num_assigned(&self) -> usize {
        self.layers.iter().filter(|&&l| l != UNASSIGNED).count()
    }

    /// The vertices with `ℓ(v) = ∞`.
    pub fn unassigned_vertices(&self) -> Vec<usize> {
        (0..self.layers.len())
            .filter(|&v| self.layers[v] == UNASSIGNED)
            .collect()
    }

    /// Largest finite layer used, or `None` if nothing is assigned.
    pub fn max_layer(&self) -> Option<u32> {
        self.layers
            .iter()
            .copied()
            .filter(|&l| l != UNASSIGNED)
            .max()
    }

    /// Access the raw layer slice.
    pub fn as_slice(&self) -> &[u32] {
        &self.layers
    }

    /// The *measured* out-degree `d` of this assignment on `graph`: the
    /// maximum over assigned `v` of `|{u ∈ N(v) : ℓ(u) ≥ ℓ(v)}|`
    /// (Definition 2.1). Unassigned neighbors count as `ℓ(u) = ∞ ≥ ℓ(v)`.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::LengthMismatch`] if the assignment does not
    /// cover `graph`'s vertex set.
    pub fn out_degree_bound(&self, graph: &Graph) -> Result<usize> {
        if self.layers.len() != graph.num_vertices() {
            return Err(GraphError::LengthMismatch {
                expected: graph.num_vertices(),
                found: self.layers.len(),
            });
        }
        let mut worst = 0usize;
        for v in 0..graph.num_vertices() {
            let lv = self.layers[v];
            if lv == UNASSIGNED {
                continue;
            }
            let up = graph
                .neighbors(v)
                .iter()
                .filter(|&&u| self.layers[u as usize] >= lv)
                .count();
            worst = worst.max(up);
        }
        Ok(worst)
    }

    /// Verifies Definition 2.1: every assigned vertex has at most `d`
    /// neighbors in the same-or-higher layer.
    ///
    /// # Errors
    ///
    /// [`GraphError::InvalidParameter`] naming the first violating vertex.
    pub fn validate(&self, graph: &Graph, d: usize) -> Result<()> {
        let measured = self.out_degree_bound(graph)?;
        if measured > d {
            // Locate a witness for the error message.
            for v in 0..graph.num_vertices() {
                let lv = self.layers[v];
                if lv == UNASSIGNED {
                    continue;
                }
                let up = graph
                    .neighbors(v)
                    .iter()
                    .filter(|&&u| self.layers[u as usize] >= lv)
                    .count();
                if up > d {
                    return Err(GraphError::InvalidParameter {
                        reason: format!(
                            "vertex {v} in layer {lv} has {up} same-or-higher neighbors, bound is {d}"
                        ),
                    });
                }
            }
        }
        Ok(())
    }

    /// Pointwise minimum with `other` (paper Claim 2.3): the result is again
    /// a valid partial layer assignment with the same `L` and `d`.
    ///
    /// # Errors
    ///
    /// [`GraphError::LengthMismatch`] if the two assignments differ in length.
    pub fn combine_min(&self, other: &LayerAssignment) -> Result<LayerAssignment> {
        if self.layers.len() != other.layers.len() {
            return Err(GraphError::LengthMismatch {
                expected: self.layers.len(),
                found: other.layers.len(),
            });
        }
        let layers = self
            .layers
            .iter()
            .zip(&other.layers)
            .map(|(&a, &b)| a.min(b))
            .collect();
        Ok(LayerAssignment { layers })
    }

    /// Sizes of the layer tails: entry `j-1` is `|{v : ℓ(v) ≥ j}|` for
    /// `j = 1..=max_layer` (unassigned vertices count in every tail).
    ///
    /// Lemma 3.15(2) promises `tail(j) ≤ 0.5^(j-1) · n`; experiment E4
    /// measures exactly this vector.
    pub fn tail_sizes(&self) -> Vec<usize> {
        let max = match self.max_layer() {
            Some(m) => m,
            None => return Vec::new(),
        };
        let mut tails = vec![0usize; max as usize];
        for &l in &self.layers {
            let top = if l == UNASSIGNED { max } else { l };
            for t in tails.iter_mut().take(top as usize) {
                *t += 1;
            }
        }
        tails
    }

    /// Orientation induced by this assignment: each edge points toward the
    /// higher layer, ties broken toward the higher id (paper §1.3).
    ///
    /// If the assignment is valid with out-degree `d`, the resulting
    /// orientation has max outdegree `≤ d`.
    ///
    /// # Errors
    ///
    /// [`GraphError::LengthMismatch`] if lengths differ.
    pub fn to_orientation(&self, graph: &Graph) -> Result<Orientation> {
        Orientation::from_ranking(graph, &self.layers)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejects_layer_zero() {
        assert!(LayerAssignment::new(vec![0]).is_err());
        assert!(LayerAssignment::new(vec![1, UNASSIGNED]).is_ok());
    }

    #[test]
    fn out_degree_bound_on_path() {
        let g = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3)]).unwrap();
        let la = LayerAssignment::new(vec![1, 2, 2, 1]).unwrap();
        assert_eq!(la.out_degree_bound(&g).unwrap(), 1);
        assert!(la.validate(&g, 1).is_ok());
        assert!(la.validate(&g, 0).is_err());
    }

    #[test]
    fn unassigned_neighbors_count_as_higher() {
        let g = Graph::from_edges(2, &[(0, 1)]).unwrap();
        let la = LayerAssignment::new(vec![1, UNASSIGNED]).unwrap();
        // Vertex 0 sees its unassigned neighbor as >= its layer.
        assert_eq!(la.out_degree_bound(&g).unwrap(), 1);
        // The unassigned vertex imposes no constraint.
        assert!(la.validate(&g, 1).is_ok());
    }

    #[test]
    fn combine_min_is_pointwise() {
        let a = LayerAssignment::new(vec![1, UNASSIGNED, 3]).unwrap();
        let b = LayerAssignment::new(vec![2, 5, UNASSIGNED]).unwrap();
        let c = a.combine_min(&b).unwrap();
        assert_eq!(c.as_slice(), &[1, 5, 3]);
    }

    #[test]
    fn combine_min_preserves_validity_claim_2_3() {
        // Hand-built instance of Claim 2.3 on a 4-cycle.
        let g = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3), (3, 0)]).unwrap();
        let a = LayerAssignment::new(vec![1, 2, UNASSIGNED, 2]).unwrap();
        let b = LayerAssignment::new(vec![2, 1, 2, UNASSIGNED]).unwrap();
        let d = a
            .out_degree_bound(&g)
            .unwrap()
            .max(b.out_degree_bound(&g).unwrap());
        let c = a.combine_min(&b).unwrap();
        assert!(c.out_degree_bound(&g).unwrap() <= d);
    }

    #[test]
    fn combine_min_length_mismatch() {
        let a = LayerAssignment::unassigned(2);
        let b = LayerAssignment::unassigned(3);
        assert!(a.combine_min(&b).is_err());
    }

    #[test]
    fn tail_sizes_monotone_and_correct() {
        let la = LayerAssignment::new(vec![1, 1, 2, 3, UNASSIGNED]).unwrap();
        let tails = la.tail_sizes();
        assert_eq!(tails, vec![5, 3, 2]); // >=1: all 5; >=2: {2,3,∞}; >=3: {3,∞}
        assert!(tails.windows(2).all(|w| w[0] >= w[1]));
    }

    #[test]
    fn tail_sizes_empty_when_nothing_assigned() {
        let la = LayerAssignment::unassigned(4);
        assert!(la.tail_sizes().is_empty());
        assert_eq!(la.num_assigned(), 0);
        assert_eq!(la.unassigned_vertices(), vec![0, 1, 2, 3]);
    }

    #[test]
    fn to_orientation_respects_layers() {
        let g = Graph::from_edges(3, &[(0, 1), (1, 2)]).unwrap();
        let la = LayerAssignment::new(vec![1, 2, 1]).unwrap();
        let o = la.to_orientation(&g).unwrap();
        assert_eq!(o.direction(&g, 0, 1), Some(true)); // toward layer 2
        assert_eq!(o.direction(&g, 2, 1), Some(true));
        assert_eq!(o.max_out_degree(), 1);
        assert!(o.is_acyclic(&g));
    }

    #[test]
    fn complete_detection() {
        let mut la = LayerAssignment::unassigned(2);
        assert!(!la.is_complete());
        la.set_layer(0, 1);
        la.set_layer(1, 4);
        assert!(la.is_complete());
        assert_eq!(la.max_layer(), Some(4));
    }

    #[test]
    #[should_panic(expected = "1-based")]
    fn set_layer_zero_panics() {
        let mut la = LayerAssignment::unassigned(1);
        la.set_layer(0, 0);
    }
}
