//! Exact subgraph-density and arboricity machinery.
//!
//! The paper parameterizes everything by the maximum subgraph density
//! `α(G) = max_S |E(S)|/|S|` and the arboricity `λ(G)`, with
//! `α ≤ λ ≤ α + 1` (§1.1). This module provides ground truth for the
//! experiment harness:
//!
//! * [`exact_max_density`] / [`densest_subgraph`] — Goldberg's reduction to
//!   minimum cut, exact via integer-scaled binary search (intended for
//!   `n ≲ 2000`; workloads needing ground truth are generated at that scale).
//! * [`pseudoarboricity`] — the minimum max-outdegree of any orientation,
//!   which equals `⌈α⌉`; computed by a max-flow feasibility binary search.
//! * [`arboricity_bounds`] — two-sided bounds on `λ` combining the above
//!   with degeneracy, with a cheap degeneracy-only path for large graphs.

use crate::degeneracy::{degeneracy, densest_suffix_density};
use crate::flow::FlowNetwork;
use crate::graph::Graph;

/// A densest subgraph together with its exact density.
#[derive(Debug, Clone, PartialEq)]
pub struct DensestSubgraph {
    /// Vertices of a maximum-density subgraph (empty iff the graph has no
    /// edges).
    pub vertices: Vec<usize>,
    /// The density `|E(S)|/|S|` of that subgraph (0.0 for edgeless graphs).
    pub density: f64,
}

/// Computes the exact maximum subgraph density `α(G)` (Goldberg's algorithm).
///
/// Runs `O(log(m n^2))` max-flow computations on a network with `n + 2` nodes;
/// exact for all graphs but intended for moderate sizes (`n ≲ 2000`).
///
/// # Examples
///
/// ```
/// use dgo_graph::{Graph, exact_max_density};
///
/// // K4 has density 6/4 = 1.5 and no denser subgraph.
/// let g = Graph::from_edges(4, &[(0,1),(0,2),(0,3),(1,2),(1,3),(2,3)])?;
/// assert!((exact_max_density(&g) - 1.5).abs() < 1e-9);
/// # Ok::<(), dgo_graph::GraphError>(())
/// ```
pub fn exact_max_density(graph: &Graph) -> f64 {
    densest_subgraph(graph).density
}

/// Computes a maximum-density subgraph and its exact density.
///
/// See [`exact_max_density`] for the method and intended scale.
pub fn densest_subgraph(graph: &Graph) -> DensestSubgraph {
    let n = graph.num_vertices();
    let m = graph.num_edges();
    if m == 0 {
        return DensestSubgraph {
            vertices: Vec::new(),
            density: 0.0,
        };
    }
    // Distinct densities p/q with q <= n differ by more than 1/n^2 (for
    // distinct subgraphs), so searching numerators over denominator n^2
    // isolates the exact optimum.
    let den = (n as i64) * (n as i64);
    // Predicate P(num): exists nonempty S with den*|E(S)| > num*|S|.
    // Monotone decreasing in num; find the largest num where it holds.
    let mut lo = 0i64; // P(0) holds because m > 0.
    let mut hi = (m as i64) * den + 1; // density <= m, so P(m*den+1) fails.
    debug_assert!(goldberg_exceeds(graph, lo, den).is_some());
    while hi - lo > 1 {
        let mid = lo + (hi - lo) / 2;
        if goldberg_exceeds(graph, mid, den).is_some() {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    let vertices =
        goldberg_exceeds(graph, lo, den).expect("P(lo) holds by binary-search invariant");
    let edges_inside = count_inside_edges(graph, &vertices);
    let density = edges_inside as f64 / vertices.len() as f64;
    DensestSubgraph { vertices, density }
}

/// Min-cut test: returns a nonempty vertex set `S` with
/// `den * |E(S)| > num * |S|` (density strictly above `num/den`), or `None`.
fn goldberg_exceeds(graph: &Graph, num: i64, den: i64) -> Option<Vec<usize>> {
    let n = graph.num_vertices();
    let m = graph.num_edges() as i64;
    let source = n;
    let sink = n + 1;
    let mut net = FlowNetwork::new(n + 2);
    for v in 0..n {
        net.add_edge(source, v, m * den);
        let cap = m * den + 2 * num - den * graph.degree(v) as i64;
        debug_assert!(cap >= 0, "Goldberg sink capacity must be nonnegative");
        net.add_edge(v, sink, cap);
    }
    for (u, v) in graph.edges() {
        net.add_edge(u, v, den);
        net.add_edge(v, u, den);
    }
    let cut = net.max_flow(source, sink);
    // cut = n*m*den + 2*(num*|S| - den*|E(S)|) minimized over S; the empty
    // set gives exactly n*m*den.
    if cut < n as i64 * m * den {
        let side = net.min_cut_source_side(source);
        let s: Vec<usize> = (0..n).filter(|&v| side[v]).collect();
        debug_assert!(!s.is_empty());
        Some(s)
    } else {
        None
    }
}

fn count_inside_edges(graph: &Graph, vertices: &[usize]) -> usize {
    let mut inside = vec![false; graph.num_vertices()];
    for &v in vertices {
        inside[v] = true;
    }
    graph
        .edges()
        .filter(|&(u, v)| inside[u] && inside[v])
        .count()
}

/// Computes the pseudoarboricity: the minimum over all orientations of the
/// maximum outdegree. Equals `⌈α(G)⌉` for graphs with at least one edge.
///
/// Binary-searches the feasibility of an outdegree-`k` orientation via a
/// bipartite edge-to-endpoint max-flow; intended for moderate sizes.
///
/// # Examples
///
/// ```
/// use dgo_graph::{Graph, pseudoarboricity};
///
/// // A cycle orients with outdegree 1 (round-robin).
/// let g = Graph::from_edges(4, &[(0,1),(1,2),(2,3),(3,0)])?;
/// assert_eq!(pseudoarboricity(&g), 1);
/// # Ok::<(), dgo_graph::GraphError>(())
/// ```
pub fn pseudoarboricity(graph: &Graph) -> usize {
    let m = graph.num_edges();
    if m == 0 {
        return 0;
    }
    let mut lo = 1usize;
    let mut hi = degeneracy(graph).value.max(1); // outdeg <= degeneracy is feasible
    debug_assert!(orientation_feasible(graph, hi));
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if orientation_feasible(graph, mid) {
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    lo
}

/// Whether an orientation with maximum outdegree `<= k` exists
/// (max-flow feasibility: every edge must route one unit to an endpoint,
/// endpoints accept at most `k`).
fn orientation_feasible(graph: &Graph, k: usize) -> bool {
    let n = graph.num_vertices();
    let m = graph.num_edges();
    let source = n + m;
    let sink = n + m + 1;
    let mut net = FlowNetwork::new(n + m + 2);
    for (i, (u, v)) in graph.edges().enumerate() {
        let enode = n + i;
        net.add_edge(source, enode, 1);
        net.add_edge(enode, u, 1);
        net.add_edge(enode, v, 1);
    }
    for v in 0..n {
        net.add_edge(v, sink, k as i64);
    }
    net.max_flow(source, sink) == m as i64
}

/// Two-sided bounds on the arboricity `λ(G)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ArboricityBounds {
    /// Lower bound: `λ >= lower`.
    pub lower: usize,
    /// Upper bound: `λ <= upper`.
    pub upper: usize,
    /// Whether the bounds came from the exact flow machinery (`true`) or the
    /// cheap degeneracy/peeling estimates (`false`).
    pub exact: bool,
}

impl ArboricityBounds {
    /// A single representative value: the lower bound (never below 1 for
    /// graphs with an edge). Experiments normalize by this.
    pub fn representative(&self) -> usize {
        self.lower
    }
}

/// Bounds `λ(G)` from both sides.
///
/// For graphs with at most `exact_threshold` vertices the exact flow
/// machinery pins `λ ∈ {⌈α⌉, ⌈α⌉+1}`; larger graphs fall back to
/// `⌈peeling density⌉ ≤ λ ≤ degeneracy` in `O(m)` time, both read off one
/// [`degeneracy`] peel (the upper bound follows from the acyclic
/// outdegree-`k` orientation of a `k`-degenerate graph).
///
/// # Examples
///
/// ```
/// use dgo_graph::{Graph, arboricity_bounds};
///
/// let g = Graph::from_edges(3, &[(0,1),(1,2),(2,0)])?;
/// let b = arboricity_bounds(&g, 100);
/// assert!(b.lower <= 2 && 2 <= b.upper); // λ(K3) = ⌈3/2⌉ = 2
/// # Ok::<(), dgo_graph::GraphError>(())
/// ```
pub fn arboricity_bounds(graph: &Graph, exact_threshold: usize) -> ArboricityBounds {
    if graph.num_edges() == 0 {
        return ArboricityBounds {
            lower: 0,
            upper: 0,
            exact: true,
        };
    }
    if graph.num_vertices() <= exact_threshold {
        let p = pseudoarboricity(graph); // p = ceil(alpha) <= lambda <= alpha+1 <= p+1
        ArboricityBounds {
            lower: p,
            upper: p + 1,
            exact: true,
        }
    } else {
        let peel = degeneracy(graph);
        let lower = densest_suffix_density(graph, &peel.order).ceil() as usize;
        ArboricityBounds {
            lower: lower.max(1),
            upper: peel.value.max(1),
            exact: false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn clique(k: usize) -> Graph {
        let mut edges = Vec::new();
        for u in 0..k {
            for v in (u + 1)..k {
                edges.push((u, v));
            }
        }
        Graph::from_edges(k, &edges).unwrap()
    }

    #[test]
    fn density_of_edgeless() {
        let g = Graph::empty(5);
        assert_eq!(exact_max_density(&g), 0.0);
        assert!(densest_subgraph(&g).vertices.is_empty());
    }

    #[test]
    fn density_of_single_edge() {
        let g = Graph::from_edges(2, &[(0, 1)]).unwrap();
        assert!((exact_max_density(&g) - 0.5).abs() < 1e-9);
    }

    #[test]
    fn density_of_cliques() {
        for k in 2..7 {
            let g = clique(k);
            let expected = (k * (k - 1) / 2) as f64 / k as f64;
            assert!(
                (exact_max_density(&g) - expected).abs() < 1e-9,
                "K{k} density mismatch"
            );
        }
    }

    #[test]
    fn densest_subgraph_finds_planted_clique() {
        // K5 plus a long pendant path: the densest subgraph is exactly the K5.
        let mut edges = Vec::new();
        for u in 0..5 {
            for v in (u + 1)..5 {
                edges.push((u, v));
            }
        }
        for i in 5..15 {
            edges.push((i - 1, i));
        }
        let g = Graph::from_edges(15, &edges).unwrap();
        let ds = densest_subgraph(&g);
        assert!((ds.density - 2.0).abs() < 1e-9);
        assert_eq!(ds.vertices, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn density_at_least_peeling_bound() {
        let g = Graph::from_edges(
            8,
            &[
                (0, 1),
                (1, 2),
                (2, 0),
                (2, 3),
                (3, 4),
                (4, 5),
                (5, 6),
                (6, 7),
                (7, 5),
            ],
        )
        .unwrap();
        let exact = exact_max_density(&g);
        let lb = crate::degeneracy::peeling_density_lower_bound(&g);
        assert!(exact + 1e-9 >= lb);
        assert!(exact <= lb * 2.0 + 1e-9, "peeling is a 2-approximation");
    }

    #[test]
    fn pseudoarboricity_matches_ceil_density() {
        let graphs = vec![
            clique(4),
            clique(6),
            Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3), (3, 0)]).unwrap(),
            Graph::from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4)]).unwrap(),
        ];
        for g in graphs {
            let p = pseudoarboricity(&g);
            let alpha = exact_max_density(&g);
            assert_eq!(p, alpha.ceil() as usize, "pseudoarboricity = ceil(alpha)");
        }
    }

    #[test]
    fn pseudoarboricity_of_forest_is_one() {
        let g = Graph::from_edges(5, &[(0, 1), (0, 2), (2, 3), (2, 4)]).unwrap();
        assert_eq!(pseudoarboricity(&g), 1);
    }

    #[test]
    fn pseudoarboricity_of_empty_is_zero() {
        assert_eq!(pseudoarboricity(&Graph::empty(3)), 0);
    }

    #[test]
    fn arboricity_bounds_bracket_known_values() {
        // K4: lambda = 2; cycle: lambda = 2 per Nash-Williams? A cycle C_n
        // has arboricity 2 (a single cycle is not a forest). alpha = 1.
        let g = clique(4);
        let b = arboricity_bounds(&g, 100);
        assert!(b.exact);
        assert!(b.lower <= 2 && 2 <= b.upper);

        let c = Graph::from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]).unwrap();
        let bc = arboricity_bounds(&c, 100);
        assert!(bc.lower <= 2 && 2 <= bc.upper);
    }

    #[test]
    fn arboricity_bounds_fallback_path() {
        let g = clique(6);
        let b = arboricity_bounds(&g, 3); // force the cheap path
        assert!(!b.exact);
        assert!(b.lower <= b.upper);
        assert!(b.lower >= 1);
        // Degeneracy of K6 is 5.
        assert_eq!(b.upper, 5);
        // Both bounds come off one peel: the lower bound is the densest
        // peeling suffix (15/6 for K6), the upper bound the degeneracy.
        let lower = crate::degeneracy::peeling_density_lower_bound(&g).ceil() as usize;
        assert_eq!((b.lower, b.upper), (lower, degeneracy(&g).value));
        assert_eq!(b.lower, 3);
    }

    #[test]
    fn orientation_feasibility_monotone() {
        let g = clique(5);
        let p = pseudoarboricity(&g);
        assert!(orientation_feasible(&g, p));
        assert!(!orientation_feasible(&g, p - 1));
        assert!(orientation_feasible(&g, p + 3));
    }
}
