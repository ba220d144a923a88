//! Edge orientations and their quality measures.
//!
//! An *orientation* assigns a direction to every undirected edge. The paper's
//! central object (Theorem 1.1) is an orientation whose maximum outdegree is
//! close to the arboricity `λ`: any orientation has max outdegree `≥ α ≥ λ-1`,
//! and the paper achieves `O(λ log log n)`.

use crate::error::{GraphError, Result};
use crate::graph::Graph;
use serde::{Deserialize, Serialize};

/// An orientation of the edges of a specific [`Graph`].
///
/// Stored as one bit per CSR slot of that graph: slot `s` holds one
/// neighbor of its owner vertex, and its bit is set when that slot's edge
/// leaves the owner. Each edge owns two slots, one per endpoint, and exactly
/// one of their bits is set. The orientation also keeps the out-degrees and
/// a word-wise fingerprint of the graph's CSR columns (offsets and neighbor
/// ids). Methods that need the endpoints, such as
/// [`direction`](Self::direction), take the graph, and
/// [`validate`](Self::validate) uses the fingerprint to reject a graph other
/// than the one the orientation was built for, even one of the same shape.
///
/// # Examples
///
/// ```
/// use dgo_graph::{Graph, Orientation};
///
/// let g = Graph::from_edges(3, &[(0, 1), (1, 2), (0, 2)])?;
/// // Orient every edge toward the higher id: an acyclic orientation.
/// let o = Orientation::towards_higher_id(&g);
/// assert_eq!(o.out_degree(0), 2);
/// assert_eq!(o.out_degree(2), 0);
/// assert_eq!(o.max_out_degree(), 2);
/// assert_eq!(o.direction(&g, 2, 0), Some(false));
/// o.validate(&g)?;
/// # Ok::<(), dgo_graph::GraphError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Orientation {
    /// Bit `s % 64` of word `s / 64` is slot `s`'s direction bit.
    slots: Vec<u64>,
    out_degrees: Vec<u32>,
    num_edges: usize,
    /// [`csr_fingerprint`] of the graph the orientation was built for.
    fingerprint: u64,
}

impl Orientation {
    /// Creates an orientation for `graph` from a per-edge decision function.
    ///
    /// `decide(u, v)` is called exactly once per edge, with `u < v`, in
    /// [`Graph::edges`] order, and must return `true` to direct the edge
    /// `u -> v`, `false` for `v -> u`. Callers may rely on that order, for
    /// instance to read a per-edge array alongside the calls.
    pub fn from_fn<F: FnMut(usize, usize) -> bool>(graph: &Graph, mut decide: F) -> Self {
        let num_slots = graph.csr().1.len();
        let mut slots = vec![0u64; num_slots.div_ceil(64)];
        let mut out_degrees = vec![0u32; graph.num_vertices()];
        for_each_edge_slot(graph, |u, v, slot, mirror| {
            let (tail, tail_slot) = if decide(u, v) { (u, slot) } else { (v, mirror) };
            slots[tail_slot / 64] |= 1 << (tail_slot % 64);
            out_degrees[tail] += 1;
        });
        Orientation {
            slots,
            out_degrees,
            num_edges: graph.num_edges(),
            fingerprint: csr_fingerprint(graph),
        }
    }

    /// The trivial acyclic orientation directing every edge toward the
    /// endpoint with the larger id.
    pub fn towards_higher_id(graph: &Graph) -> Self {
        Orientation::from_fn(graph, |_, _| true)
    }

    /// Orientation induced by a vertex ranking: each edge points toward the
    /// endpoint with *higher* rank, ties broken toward the higher id.
    ///
    /// This is exactly how the paper turns a layer assignment into an
    /// orientation ("orienting edges toward the higher layer, breaking ties
    /// according to identifiers", §1.3).
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::LengthMismatch`] if `rank.len() != n`.
    pub fn from_ranking<R: Ord>(graph: &Graph, rank: &[R]) -> Result<Self> {
        if rank.len() != graph.num_vertices() {
            return Err(GraphError::LengthMismatch {
                expected: graph.num_vertices(),
                found: rank.len(),
            });
        }
        Ok(Orientation::from_fn(graph, |u, v| {
            Orientation::ranked_direction(rank, u, v)
        }))
    }

    /// The rule behind [`from_ranking`](Self::from_ranking): whether `rank`
    /// directs the edge `{u, v}` as `u -> v`, that is, whether
    /// `(rank[u], u) < (rank[v], v)`.
    ///
    /// # Panics
    ///
    /// Panics if `u` or `v` is out of range of `rank`.
    #[inline]
    pub fn ranked_direction<R: Ord>(rank: &[R], u: usize, v: usize) -> bool {
        (&rank[u], u) < (&rank[v], v)
    }

    /// Number of vertices of the underlying graph.
    pub fn num_vertices(&self) -> usize {
        self.out_degrees.len()
    }

    /// Number of oriented edges.
    pub fn num_edges(&self) -> usize {
        self.num_edges
    }

    /// Outdegree of vertex `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v >= n`.
    pub fn out_degree(&self, v: usize) -> usize {
        self.out_degrees[v] as usize
    }

    /// Maximum outdegree over all vertices — the paper's quality measure.
    pub fn max_out_degree(&self) -> usize {
        self.out_degrees.iter().copied().max().unwrap_or(0) as usize
    }

    /// Direction of edge `{u, v}` of `graph`, the graph this orientation was
    /// built for: `Some(true)` if directed `u -> v` (for `u`, `v` in either
    /// order), `None` if `{u, v}` is not an edge.
    pub fn direction(&self, graph: &Graph, u: usize, v: usize) -> Option<bool> {
        if u >= graph.num_vertices() || v >= graph.num_vertices() {
            return None;
        }
        let at = graph.neighbors(u).binary_search(&(v as u32)).ok()?;
        Some(self.leaves(graph.csr().0[u] + at))
    }

    /// Out-neighbors of `v` in the orientation, in ascending order; `graph`
    /// is the graph this orientation was built for.
    pub fn out_neighbors(&self, graph: &Graph, v: usize) -> Vec<usize> {
        let (offsets, neighbors) = graph.csr();
        (offsets[v]..offsets[v + 1])
            .filter(|&slot| self.leaves(slot))
            .map(|slot| neighbors[slot] as usize)
            .collect()
    }

    /// Checks that this orientation was built for `graph`: same vertex
    /// count, same edge count, same CSR fingerprint.
    ///
    /// # Errors
    ///
    /// * [`GraphError::LengthMismatch`] if the vertex counts differ, else if
    ///   the edge counts differ.
    /// * [`GraphError::ForeignOrientation`] if the counts match but the
    ///   fingerprint does not, naming the first edge of `graph` that the
    ///   orientation's bits do not direct exactly one way, if there is one.
    pub fn validate(&self, graph: &Graph) -> Result<()> {
        if self.num_vertices() != graph.num_vertices() {
            return Err(GraphError::LengthMismatch {
                expected: graph.num_vertices(),
                found: self.num_vertices(),
            });
        }
        if self.num_edges != graph.num_edges() {
            return Err(GraphError::LengthMismatch {
                expected: graph.num_edges(),
                found: self.num_edges,
            });
        }
        if self.fingerprint == csr_fingerprint(graph) {
            return Ok(());
        }
        let mut edge = None;
        for_each_edge_slot(graph, |u, v, slot, mirror| {
            if edge.is_none() && self.leaves(slot) == self.leaves(mirror) {
                edge = Some((u, v));
            }
        });
        Err(GraphError::ForeignOrientation { edge })
    }

    /// Whether the oriented graph is acyclic (Kahn's algorithm); `graph` is
    /// the graph this orientation was built for.
    ///
    /// Orientations from rankings/layerings are always acyclic; orientations
    /// with arbitrary tie-breaking need not be.
    pub fn is_acyclic(&self, graph: &Graph) -> bool {
        let n = self.num_vertices();
        let (offsets, neighbors) = graph.csr();
        let mut indeg: Vec<usize> = (0..n)
            .map(|v| graph.degree(v) - self.out_degree(v))
            .collect();
        let mut queue: Vec<usize> = (0..n).filter(|&v| indeg[v] == 0).collect();
        let mut removed = 0;
        while let Some(v) = queue.pop() {
            removed += 1;
            let start = offsets[v];
            for (slot, &w) in (start..).zip(&neighbors[start..offsets[v + 1]]) {
                let w = w as usize;
                if self.leaves(slot) {
                    indeg[w] -= 1;
                    if indeg[w] == 0 {
                        queue.push(w);
                    }
                }
            }
        }
        removed == n
    }

    /// Whether slot `slot`'s edge leaves the slot's owner.
    fn leaves(&self, slot: usize) -> bool {
        self.slots[slot / 64] >> (slot % 64) & 1 == 1
    }
}

/// Calls `visit(u, v, slot, mirror)` for every edge `(u, v)`, `u < v`, in
/// [`Graph::edges`] order, where `slot` holds `v` in `u`'s list and `mirror`
/// holds `u` in `v`'s list. No search is needed: each sorted list starts
/// with its lower neighbors, and their edges arrive in ascending order of
/// that neighbor, so a per-vertex cursor walks them in step. By the time the
/// walk reaches `u`, its cursor has passed all of `u`'s lower neighbors.
fn for_each_edge_slot(graph: &Graph, mut visit: impl FnMut(usize, usize, usize, usize)) {
    let (offsets, neighbors) = graph.csr();
    let n = graph.num_vertices();
    let mut cursor: Vec<usize> = offsets[..n].to_vec();
    for u in 0..n {
        let first_upper = cursor[u];
        for (slot, &v) in (first_upper..).zip(&neighbors[first_upper..offsets[u + 1]]) {
            let v = v as usize;
            visit(u, v, slot, cursor[v]);
            cursor[v] += 1;
        }
    }
}

/// A word-wise digest (the FxHash mix) of `graph`'s CSR columns: every
/// offset, then the neighbor ids two to a word. Orientations store it so
/// [`Orientation::validate`] can tell their graph from another graph of the
/// same shape, which a bare bit array cannot.
fn csr_fingerprint(graph: &Graph) -> u64 {
    let mix =
        |hash: u64, word: u64| (hash.rotate_left(5) ^ word).wrapping_mul(0x517c_c1b7_2722_0a95);
    let (offsets, neighbors) = graph.csr();
    let hash = offsets.iter().fold(0, |hash, &o| mix(hash, o as u64));
    // The neighbor column holds 2m ids, so it splits into whole pairs.
    neighbors.chunks_exact(2).fold(hash, |hash, pair| {
        mix(hash, u64::from(pair[0]) | u64::from(pair[1]) << 32)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triangle() -> Graph {
        Graph::from_edges(3, &[(0, 1), (1, 2), (0, 2)]).unwrap()
    }

    #[test]
    fn higher_id_orientation_is_acyclic() {
        let g = triangle();
        let o = Orientation::towards_higher_id(&g);
        assert!(o.is_acyclic(&g));
        assert_eq!(o.max_out_degree(), 2);
        assert_eq!(o.out_degree(2), 0);
    }

    #[test]
    fn cyclic_orientation_detected() {
        let g = triangle();
        // 0->1, 1->2, 2->0 is a directed cycle.
        let o = Orientation::from_fn(&g, |u, v| (u, v) != (0, 2));
        assert!(!o.is_acyclic(&g));
        assert_eq!(o.max_out_degree(), 1);
    }

    #[test]
    fn from_ranking_orients_upward() {
        let g = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3)]).unwrap();
        let o = Orientation::from_ranking(&g, &[3, 2, 1, 0]).unwrap();
        // Higher rank wins: 0 has rank 3, so 1 -> 0.
        assert_eq!(o.direction(&g, 1, 0), Some(true));
        assert_eq!(o.direction(&g, 0, 1), Some(false));
        assert!(o.is_acyclic(&g));
    }

    #[test]
    fn from_ranking_ties_break_by_id() {
        let g = Graph::from_edges(2, &[(0, 1)]).unwrap();
        let o = Orientation::from_ranking(&g, &[7, 7]).unwrap();
        assert_eq!(o.direction(&g, 0, 1), Some(true)); // toward higher id
    }

    #[test]
    fn from_ranking_rejects_bad_length() {
        let g = Graph::from_edges(2, &[(0, 1)]).unwrap();
        assert!(Orientation::from_ranking(&g, &[1]).is_err());
    }

    #[test]
    fn from_fn_decides_in_edges_order() {
        let g = Graph::from_edges(4, &[(2, 3), (0, 2), (1, 3), (0, 1)]).unwrap();
        let mut calls = Vec::new();
        Orientation::from_fn(&g, |u, v| {
            calls.push((u, v));
            true
        });
        assert_eq!(calls, g.edges().collect::<Vec<_>>());
    }

    #[test]
    fn validate_against_wrong_graph_fails() {
        let g = triangle();
        let o = Orientation::towards_higher_id(&g);
        let other = Graph::from_edges(3, &[(0, 1)]).unwrap();
        assert!(o.validate(&other).is_err());
        assert!(o.validate(&g).is_ok());
    }

    #[test]
    fn validate_reports_wrong_vertex_count() {
        let o = Orientation::towards_higher_id(&triangle());
        let wider = Graph::from_edges(4, &[(0, 1), (1, 2), (0, 2)]).unwrap();
        assert_eq!(
            o.validate(&wider),
            Err(GraphError::LengthMismatch {
                expected: 4,
                found: 3
            })
        );
    }

    #[test]
    fn validate_reports_wrong_edge_count() {
        let o = Orientation::towards_higher_id(&triangle());
        let path = Graph::from_edges(3, &[(0, 1), (1, 2)]).unwrap();
        assert_eq!(
            o.validate(&path),
            Err(GraphError::LengthMismatch {
                expected: 2,
                found: 3
            })
        );
    }

    #[test]
    fn validate_rejects_same_shape_graph() {
        // 0-1-2-3 and 0-2-1-3 share n, m, the degrees and the CSR offsets,
        // and the first path's bits read as a consistent orientation of the
        // second: only the fingerprint tells them apart.
        let path = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3)]).unwrap();
        let shuffled = Graph::from_edges(4, &[(0, 2), (1, 2), (1, 3)]).unwrap();
        let o = Orientation::towards_higher_id(&path);
        assert_eq!(
            o.validate(&shuffled),
            Err(GraphError::ForeignOrientation { edge: None })
        );
        // With 2 -> 1 instead, both slots of the second path's edge (0, 2)
        // read as leaving their owner, so that edge is named.
        let o = Orientation::from_fn(&path, |u, v| (u, v) != (1, 2));
        assert_eq!(
            o.validate(&shuffled),
            Err(GraphError::ForeignOrientation { edge: Some((0, 2)) })
        );
    }

    #[test]
    fn direction_of_missing_edge_is_none() {
        let g = Graph::from_edges(3, &[(0, 1)]).unwrap();
        let o = Orientation::towards_higher_id(&g);
        assert_eq!(o.direction(&g, 1, 2), None);
        assert_eq!(o.direction(&g, 0, 7), None);
    }

    #[test]
    fn out_neighbors_match_out_degree() {
        let g = triangle();
        let o = Orientation::towards_higher_id(&g);
        for v in 0..3 {
            assert_eq!(o.out_neighbors(&g, v).len(), o.out_degree(v));
        }
    }

    #[test]
    fn empty_graph_orientation() {
        let g = Graph::empty(3);
        let o = Orientation::towards_higher_id(&g);
        assert_eq!(o.max_out_degree(), 0);
        assert!(o.is_acyclic(&g));
        assert!(o.validate(&g).is_ok());
    }
}
