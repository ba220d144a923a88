//! Randomized degree+1 list coloring in the LOCAL model.
//!
//! The paper's coloring (Theorem 1.2) repeatedly solves *degree+1 list
//! coloring* on layer-induced subgraphs, citing [HKNT22, GG24b] for a
//! `Õ(log^{5/3} log n)`-round LOCAL subroutine. We substitute the classic
//! randomized trial algorithm — each round every uncolored node proposes a
//! uniformly random color from its remaining list and keeps it unless a
//! neighbor proposed the same color — which terminates in `O(log n)` rounds
//! with high probability and produces an identical artifact (a proper
//! coloring from the given lists). The substitution leaves the reproduced
//! behaviour intact: Theorem 1.2's pipeline runs it on neighbourhoods it
//! has already gathered, so its rounds are local work reported apart from
//! the metered MPC rounds, and any proper list coloring stays inside the
//! `3d` palette the color count is measured by.

use dgo_graph::Graph;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Sentinel for "not yet colored".
pub const UNCOLORED: u32 = u32::MAX;

/// Result of a list-coloring run.
#[derive(Debug, Clone)]
pub struct ListColoringResult {
    /// `colors[v]` for every vertex ([`UNCOLORED`] only if the round cap was
    /// hit, which has negligible probability at the default cap).
    pub colors: Vec<u32>,
    /// LOCAL rounds used.
    pub local_rounds: u64,
}

/// Colors `active` vertices of `graph`, giving vertex `v` a color from
/// `lists[v]`. Inactive vertices are ignored entirely (they are "other
/// layers" from the caller's perspective; the caller is responsible for
/// having already removed their colors from the lists).
///
/// Requires `lists[v].len() ≥ (active degree of v) + 1` for termination —
/// the degree+1 list coloring precondition. Deterministic in `seed`.
///
/// `max_rounds = 0` selects the default cap `8·log₂ n + 32`.
///
/// # Panics
///
/// Panics if an active vertex has an empty list.
///
/// # Examples
///
/// ```
/// use dgo_graph::generators::cycle;
/// use dgo_local::randomized_list_coloring;
///
/// let g = cycle(64);
/// let lists: Vec<Vec<u32>> = (0..64).map(|_| vec![0, 1, 2]).collect();
/// let active = vec![true; 64];
/// let r = randomized_list_coloring(&g, &lists, &active, 7, 0);
/// for (u, v) in g.edges() {
///     assert_ne!(r.colors[u], r.colors[v]);
/// }
/// ```
pub fn randomized_list_coloring(
    graph: &Graph,
    lists: &[Vec<u32>],
    active: &[bool],
    seed: u64,
    max_rounds: u64,
) -> ListColoringResult {
    let n = graph.num_vertices();
    assert_eq!(lists.len(), n, "one list per vertex");
    assert_eq!(active.len(), n, "one active flag per vertex");
    let cap = if max_rounds == 0 {
        8 * (n.max(2) as f64).log2().ceil() as u64 + 32
    } else {
        max_rounds
    };
    let mut rng = StdRng::seed_from_u64(seed);
    let mut colors = vec![UNCOLORED; n];
    let mut uncolored: Vec<usize> = (0..n).filter(|&v| active[v]).collect();
    for &v in &uncolored {
        assert!(!lists[v].is_empty(), "vertex {v} has an empty color list");
    }
    // The colors fixed neighbours hold are marked in a table indexed by
    // color and stamped per (vertex, round), so it is never cleared. The
    // table covers the list colors up to the largest one, but never more
    // entries than the lists have: a color past it (lists sparse in a huge
    // color range) is checked against the neighbours directly.
    let (mut entries, mut largest) = (0usize, 0usize);
    for &v in &uncolored {
        entries += lists[v].len();
        largest = largest.max(lists[v].iter().map(|&c| c as usize + 1).max().unwrap_or(0));
    }
    let marked = largest.min(entries);
    let mut held = vec![0usize; marked];
    let mut stamp = 0usize;
    let mut rounds = 0u64;
    let mut proposals = vec![UNCOLORED; n];
    while !uncolored.is_empty() && rounds < cap {
        rounds += 1;
        // Propose phase: pick a random color from the list that no *already
        // fixed* neighbor holds — count the free colors, draw a rank, take
        // the free color of that rank in list order.
        for &v in &uncolored {
            stamp += 1;
            for &w in graph.neighbors(v) {
                let c = colors[w as usize] as usize;
                if c < marked {
                    held[c] = stamp;
                }
            }
            let free = |&c: &u32| {
                if (c as usize) < marked {
                    held[c as usize] != stamp
                } else {
                    graph.neighbors(v).iter().all(|&w| colors[w as usize] != c)
                }
            };
            let available = lists[v].iter().filter(|c| free(c)).count();
            // Degree+1 lists guarantee availability.
            debug_assert!(
                available > 0,
                "list of vertex {v} exhausted; degree+1 precondition violated"
            );
            let rank = rng.random_range(0..available);
            proposals[v] = *lists[v]
                .iter()
                .filter(|c| free(c))
                .nth(rank)
                .expect("the rank is below the free count");
        }
        // Resolve phase: keep the proposal unless an uncolored neighbor
        // proposed the same color.
        let mut next_uncolored = Vec::new();
        for &v in &uncolored {
            let conflict = graph.neighbors(v).iter().any(|&w| {
                let w = w as usize;
                colors[w] == UNCOLORED && active[w] && proposals[w] == proposals[v]
            });
            if conflict {
                next_uncolored.push(v);
            }
        }
        // Commit phase (two-phase so resolution is symmetric). The survivors
        // are an in-order subsequence of `uncolored`, so one walk finds them.
        let mut survivors = next_uncolored.iter().peekable();
        for &v in &uncolored {
            if survivors.next_if_eq(&&v).is_none() {
                colors[v] = proposals[v];
            }
        }
        uncolored = next_uncolored;
    }
    ListColoringResult {
        colors,
        local_rounds: rounds,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dgo_graph::generators::{clique, gnm, star};

    fn degree_plus_one_lists(graph: &Graph) -> Vec<Vec<u32>> {
        (0..graph.num_vertices())
            .map(|v| (0..=graph.degree(v) as u32).collect())
            .collect()
    }

    #[test]
    fn colors_a_clique() {
        let g = clique(12);
        let lists = degree_plus_one_lists(&g);
        let r = randomized_list_coloring(&g, &lists, &[true; 12], 1, 0);
        for (u, v) in g.edges() {
            assert_ne!(r.colors[u], r.colors[v]);
        }
        assert!(r.colors.iter().all(|&c| c != UNCOLORED));
    }

    #[test]
    fn colors_random_graph_with_degree_plus_one() {
        let g = gnm(500, 2000, 3);
        let lists = degree_plus_one_lists(&g);
        let r = randomized_list_coloring(&g, &lists, &vec![true; 500], 9, 0);
        for (u, v) in g.edges() {
            assert_ne!(r.colors[u], r.colors[v]);
        }
        // O(log n) rounds: log2(500) ~ 9, generous cap check.
        assert!(r.local_rounds <= 72, "rounds = {}", r.local_rounds);
    }

    #[test]
    fn respects_inactive_vertices() {
        let g = star(10);
        let mut active = vec![true; 10];
        active[0] = false; // center inactive
        let lists: Vec<Vec<u32>> = (0..10).map(|_| vec![5]).collect();
        let r = randomized_list_coloring(&g, &lists, &active, 2, 0);
        assert_eq!(r.colors[0], UNCOLORED);
        // Leaves are mutually nonadjacent: all can take color 5.
        for v in 1..10 {
            assert_eq!(r.colors[v], 5);
        }
    }

    #[test]
    fn deterministic_in_seed() {
        let g = gnm(100, 300, 4);
        let lists = degree_plus_one_lists(&g);
        let a = randomized_list_coloring(&g, &lists, &[true; 100], 11, 0);
        let b = randomized_list_coloring(&g, &lists, &[true; 100], 11, 0);
        assert_eq!(a.colors, b.colors);
        assert_eq!(a.local_rounds, b.local_rounds);
    }

    #[test]
    fn single_round_when_lists_disjoint() {
        let g = clique(4);
        let lists: Vec<Vec<u32>> = (0..4).map(|v| vec![v as u32 * 10]).collect();
        let r = randomized_list_coloring(&g, &lists, &[true; 4], 0, 0);
        assert_eq!(r.local_rounds, 1);
        assert_eq!(r.colors, vec![0, 10, 20, 30]);
    }

    #[test]
    fn empty_graph_zero_rounds() {
        let r = randomized_list_coloring(&Graph::empty(0), &[], &[], 0, 0);
        assert_eq!(r.local_rounds, 0);
    }

    #[test]
    fn huge_colors_need_no_color_sized_scratch() {
        // Colors near u32::MAX take the direct neighbour check instead of a
        // table indexed by color; the result is still a proper coloring
        // from the lists.
        let g = clique(5);
        let lists: Vec<Vec<u32>> = (0..5)
            .map(|v| vec![u32::MAX - 1 - v, 3, u32::MAX - 7, 1, 0, 2])
            .collect();
        let r = randomized_list_coloring(&g, &lists, &[true; 5], 4, 0);
        for (u, v) in g.edges() {
            assert_ne!(r.colors[u], r.colors[v]);
        }
        for (v, list) in lists.iter().enumerate() {
            assert!(list.contains(&r.colors[v]));
        }
    }

    #[test]
    #[should_panic(expected = "empty color list")]
    fn empty_list_panics() {
        let g = Graph::from_edges(2, &[(0, 1)]).unwrap();
        randomized_list_coloring(&g, &[vec![], vec![0]], &[true, true], 0, 0);
    }
}
