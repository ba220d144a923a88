//! Degeneracy ordering and peeling-based density estimates.
//!
//! The degeneracy `k` of a graph satisfies `α ≤ k ≤ 2α` where `α` is the
//! maximum subgraph density (and `λ ≤ k + 1` for the arboricity `λ`), so the
//! classic `O(m)` bucket-peeling computation provides cheap two-sided bounds
//! used to seed the algorithms' arboricity estimates on large inputs.

use crate::graph::Graph;

/// Result of a degeneracy (minimum-degree peeling) computation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Degeneracy {
    /// The degeneracy: max over the peeling of the minimum remaining degree.
    pub value: usize,
    /// Peeling order: vertex removed first comes first. Coloring greedily in
    /// the *reverse* of this order uses at most `value + 1` colors.
    pub order: Vec<usize>,
}

/// Computes the degeneracy and a degeneracy ordering via bucket peeling.
///
/// Runs in `O(n + m)` time.
///
/// # Examples
///
/// ```
/// use dgo_graph::{Graph, degeneracy};
///
/// // A tree has degeneracy 1.
/// let g = Graph::from_edges(4, &[(0, 1), (1, 2), (1, 3)])?;
/// assert_eq!(degeneracy(&g).value, 1);
/// # Ok::<(), dgo_graph::GraphError>(())
/// ```
pub fn degeneracy(graph: &Graph) -> Degeneracy {
    let (order, core) = min_degree_peel(graph);
    // The running max is largest at the last removal.
    let value = order.last().map_or(0, |&v| core[v] as usize);
    Degeneracy { value, order }
}

/// The min-degree bucket peel behind [`degeneracy`] and
/// [`coreness`](fn@crate::coreness): the removal order, and every vertex's
/// coreness — the running max of the removal degree along that order.
///
/// The tie order (last pushed, first popped) is part of the contract: the
/// densest peeling suffix, and with it λ̂, is read off this order.
pub(crate) fn min_degree_peel(graph: &Graph) -> (Vec<usize>, Vec<u32>) {
    let n = graph.num_vertices();
    let mut degree: Vec<usize> = (0..n).map(|v| graph.degree(v)).collect();
    let max_deg = degree.iter().copied().max().unwrap_or(0);
    // Bucket queue on current degree.
    let mut buckets: Vec<Vec<usize>> = vec![Vec::new(); max_deg + 1];
    for v in 0..n {
        buckets[degree[v]].push(v);
    }
    let mut removed = vec![false; n];
    let mut order = Vec::with_capacity(n);
    let mut core = vec![0u32; n];
    let mut current = 0usize;
    let mut cursor = 0usize;
    for _ in 0..n {
        // Find the smallest non-empty bucket at or after `cursor`; degrees
        // only decrease by one at a time, so cursor only needs to back up by
        // one per removal.
        while buckets[cursor].is_empty() {
            cursor += 1;
        }
        let v = loop {
            match buckets[cursor].pop() {
                Some(v) if !removed[v] && degree[v] == cursor => break v,
                Some(_) => continue, // stale entry
                None => {
                    cursor += 1;
                    while buckets[cursor].is_empty() {
                        cursor += 1;
                    }
                }
            }
        };
        removed[v] = true;
        current = current.max(cursor);
        core[v] = current as u32;
        order.push(v);
        for &w in graph.neighbors(v) {
            let w = w as usize;
            if !removed[w] {
                degree[w] -= 1;
                buckets[degree[w]].push(w);
            }
        }
        cursor = cursor.saturating_sub(1);
    }
    (order, core)
}

/// Lower bound on the maximum subgraph density `α` from the peeling suffixes:
/// the density of the densest suffix `{v_i, ..., v_n}` of a degeneracy order.
///
/// This is the standard 2-approximation: `peeling_density(G) ≥ α(G) / 2`.
pub fn peeling_density_lower_bound(graph: &Graph) -> f64 {
    densest_suffix_density(graph, &degeneracy(graph).order)
}

/// The density of the densest suffix of the peeling `order` (a permutation
/// of the vertices): the suffix pass of [`peeling_density_lower_bound`], for
/// callers that already hold a [`degeneracy`] order.
pub(crate) fn densest_suffix_density(graph: &Graph, order: &[usize]) -> f64 {
    let n = graph.num_vertices();
    if n == 0 {
        return 0.0;
    }
    let mut in_suffix = vec![true; n];
    // Process the peeling order forward, maintaining the number of edges in
    // the remaining suffix.
    let mut edges_left = graph.num_edges();
    let mut best = edges_left as f64 / n as f64;
    let mut remaining = n;
    for &v in order {
        let still: usize = graph
            .neighbors(v)
            .iter()
            .filter(|&&w| in_suffix[w as usize])
            .count();
        edges_left -= still;
        in_suffix[v] = false;
        remaining -= 1;
        if remaining > 0 {
            best = best.max(edges_left as f64 / remaining as f64);
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_graph_degeneracy_zero() {
        let g = Graph::empty(3);
        let d = degeneracy(&g);
        assert_eq!(d.value, 0);
        assert_eq!(d.order.len(), 3);
    }

    #[test]
    fn zero_vertices() {
        let d = degeneracy(&Graph::empty(0));
        assert_eq!(d.value, 0);
        assert!(d.order.is_empty());
    }

    #[test]
    fn tree_degeneracy_one() {
        let g = Graph::from_edges(5, &[(0, 1), (1, 2), (2, 3), (2, 4)]).unwrap();
        assert_eq!(degeneracy(&g).value, 1);
    }

    #[test]
    fn clique_degeneracy() {
        let mut edges = Vec::new();
        for u in 0..5 {
            for v in (u + 1)..5 {
                edges.push((u, v));
            }
        }
        let g = Graph::from_edges(5, &edges).unwrap();
        assert_eq!(degeneracy(&g).value, 4);
    }

    #[test]
    fn cycle_degeneracy_two() {
        let g = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3), (3, 0)]).unwrap();
        assert_eq!(degeneracy(&g).value, 2);
    }

    #[test]
    fn order_is_permutation() {
        let g = Graph::from_edges(6, &[(0, 1), (1, 2), (3, 4), (4, 5), (0, 5)]).unwrap();
        let d = degeneracy(&g);
        let mut sorted = d.order.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..6).collect::<Vec<_>>());
    }

    #[test]
    fn reverse_order_greedy_uses_degeneracy_plus_one_colors() {
        use crate::coloring::Coloring;
        let g = Graph::from_edges(6, &[(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 5)]).unwrap();
        let d = degeneracy(&g);
        let mut rev = d.order.clone();
        rev.reverse();
        let c = Coloring::greedy(&g, &rev);
        assert!(c.validate(&g).is_ok());
        assert!(c.num_colors() <= d.value + 1);
    }

    #[test]
    fn peeling_density_on_clique() {
        // K5 has density 10/5 = 2.0 and the full graph is the densest suffix.
        let mut edges = Vec::new();
        for u in 0..5 {
            for v in (u + 1)..5 {
                edges.push((u, v));
            }
        }
        let g = Graph::from_edges(5, &edges).unwrap();
        let d = peeling_density_lower_bound(&g);
        assert!((d - 2.0).abs() < 1e-9);
    }

    #[test]
    fn peeling_density_on_empty() {
        assert_eq!(peeling_density_lower_bound(&Graph::empty(0)), 0.0);
        assert_eq!(peeling_density_lower_bound(&Graph::empty(5)), 0.0);
    }

    #[test]
    fn star_degeneracy_one() {
        let g = Graph::from_edges(6, &[(0, 1), (0, 2), (0, 3), (0, 4), (0, 5)]).unwrap();
        assert_eq!(degeneracy(&g).value, 1);
        // Density of the star is 5/6 < 1.
        assert!(peeling_density_lower_bound(&g) < 1.0);
    }
}
