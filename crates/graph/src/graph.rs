//! Compressed-sparse-row representation of simple undirected graphs.
//!
//! [`Graph`] is the workhorse type of the whole workspace: generators produce
//! it, the MPC simulator and the LOCAL baselines consume it, and all
//! algorithm outputs (orientations, colorings, layerings) are validated
//! against it.

use crate::error::{GraphError, Result};
use serde::{Deserialize, Serialize};
use std::sync::OnceLock;

/// The host-thread budget for graph ingestion and CSR construction, resolved
/// once from `DGO_JOBS` (`0`, unset, or unparsable = all cores). Ingestion is
/// pure host-side work with thread-count-independent output, so unlike the
/// simulation presets it defaults to the machine's full parallelism.
pub(crate) fn ingest_jobs() -> usize {
    static JOBS: OnceLock<usize> = OnceLock::new();
    *JOBS.get_or_init(|| {
        // dgo_graph is a leaf crate and cannot reach dgo_mpc::tuning; this
        // reads the same DGO_JOBS knob with the same once-per-process cache.
        // dgo-lint: allow(R2)
        match std::env::var("DGO_JOBS")
            .ok()
            .and_then(|s| s.trim().parse::<usize>().ok())
        {
            Some(0) | None => rayon::current_num_threads(),
            Some(jobs) => jobs,
        }
    })
}

/// A simple undirected graph in CSR (compressed sparse row) form.
///
/// Vertices are `0..n`. Parallel edges and self-loops are rejected at
/// construction. Neighbor lists are sorted, enabling `O(log deg)` adjacency
/// queries and deterministic iteration order.
///
/// # Examples
///
/// ```
/// use dgo_graph::Graph;
///
/// let g = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3), (3, 0)])?;
/// assert_eq!(g.num_vertices(), 4);
/// assert_eq!(g.num_edges(), 4);
/// assert_eq!(g.degree(1), 2);
/// assert!(g.has_edge(0, 3));
/// # Ok::<(), dgo_graph::GraphError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Graph {
    /// `offsets[v]..offsets[v+1]` indexes `neighbors` for vertex `v`.
    offsets: Vec<usize>,
    /// Concatenated sorted neighbor lists.
    neighbors: Vec<u32>,
    /// Number of undirected edges.
    num_edges: usize,
}

impl Graph {
    /// Builds a graph with `n` vertices from an undirected edge list.
    ///
    /// Duplicate edges (in either orientation) are collapsed to one edge.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::VertexOutOfRange`] if an endpoint is `>= n`, and
    /// [`GraphError::SelfLoop`] for an edge `(v, v)`.
    ///
    /// # Examples
    ///
    /// ```
    /// use dgo_graph::Graph;
    /// let g = Graph::from_edges(3, &[(0, 1), (1, 0), (1, 2)])?;
    /// assert_eq!(g.num_edges(), 2); // duplicate (0,1)/(1,0) collapsed
    /// # Ok::<(), dgo_graph::GraphError>(())
    /// ```
    pub fn from_edges(n: usize, edges: &[(usize, usize)]) -> Result<Self> {
        let normalized = normalize_edges(n, edges)?;
        Ok(Self::from_normalized_unsorted(
            n,
            &normalized,
            ingest_jobs(),
        ))
    }

    /// [`Graph::from_edges`] via the original full-list `sort_unstable +
    /// dedup` pipeline — O(m log m) regardless of degree distribution.
    ///
    /// Kept as the reference builder: the conformance suite asserts the
    /// counting-sort build behind [`Graph::from_edges`] is bit-identical to
    /// this one, and the scale harness (`exp_scale`) times both so the
    /// before/after ingestion trajectory persists in `BENCH_scale.json`.
    ///
    /// # Errors
    ///
    /// Identical to [`Graph::from_edges`].
    pub fn from_edges_by_sort(n: usize, edges: &[(usize, usize)]) -> Result<Self> {
        let mut normalized = normalize_edges(n, edges)?;
        normalized.sort_unstable();
        normalized.dedup();
        Ok(Self::from_normalized(n, &normalized))
    }

    /// Counting-sort CSR build from normalized `(u, v)` pairs (`u < v < n` as
    /// `u32`) in **any order, duplicates allowed**: per-vertex degree tallies
    /// → prefix offsets → scatter of both endpoints → per-list
    /// `sort_unstable` + dedup + forward compaction. O(m + Σ deg·log deg)
    /// instead of the full-list O(m log m). The tally and scatter run on the
    /// calling thread; the per-list sort + dedup splits the vertices into
    /// `jobs` (0 = all cores) contiguous ranges, one thread each.
    ///
    /// The per-list sort + dedup canonicalizes away the input order, so the
    /// resulting `offsets`/`neighbors` columns are bit-identical to
    /// [`Graph::from_edges`]/[`Graph::from_edges_by_sort`] on the same edge
    /// set at any thread count.
    ///
    /// # Panics
    ///
    /// Endpoints must be normalized and in range (`u < v < n`); self-loops
    /// and out-of-range ids panic (debug assert or out-of-bounds index)
    /// rather than error — validated callers ([`Graph::from_edges`], the
    /// edge-list reader, the generators) have already rejected them.
    pub fn from_normalized_unsorted(n: usize, edges: &[(u32, u32)], jobs: usize) -> Self {
        debug_assert!(edges
            .iter()
            .all(|&(u, v)| u < v && (v as usize) < n && n <= u32::MAX as usize));
        let threads = if jobs == 0 {
            rayon::current_num_threads()
        } else {
            jobs
        };
        let (mut offsets, mut neighbors) = scatter(n, edges);
        let deduped = sort_dedup_lists(&offsets, &mut neighbors, threads);
        // Forward-compact the deduped lists, rewriting offsets in place.
        let mut write = 0usize;
        let mut next_start = 0usize;
        for v in 0..n {
            let start = next_start;
            next_start = offsets[v + 1];
            let len = deduped[v] as usize;
            if write != start {
                neighbors.copy_within(start..start + len, write);
            }
            write += len;
            offsets[v + 1] = write;
        }
        neighbors.truncate(write);
        Graph {
            offsets,
            neighbors,
            num_edges: write / 2,
        }
    }

    /// Builds a graph from edges already normalized (u < v), sorted, deduped.
    ///
    /// Used internally by generators that produce canonical edge lists.
    pub(crate) fn from_normalized(n: usize, edges: &[(u32, u32)]) -> Self {
        let (offsets, mut neighbors) = scatter(n, edges);
        for v in 0..n {
            neighbors[offsets[v]..offsets[v + 1]].sort_unstable();
        }
        Graph {
            offsets,
            neighbors,
            num_edges: edges.len(),
        }
    }

    /// An empty graph on `n` vertices (no edges).
    ///
    /// ```
    /// use dgo_graph::Graph;
    /// let g = Graph::empty(5);
    /// assert_eq!(g.num_edges(), 0);
    /// assert_eq!(g.degree(0), 0);
    /// ```
    pub fn empty(n: usize) -> Self {
        Graph {
            offsets: vec![0; n + 1],
            neighbors: Vec::new(),
            num_edges: 0,
        }
    }

    /// Number of vertices `n`.
    pub fn num_vertices(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of undirected edges `m`.
    pub fn num_edges(&self) -> usize {
        self.num_edges
    }

    /// Degree of vertex `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v >= n`.
    pub fn degree(&self, v: usize) -> usize {
        self.offsets[v + 1] - self.offsets[v]
    }

    /// Maximum degree Δ over all vertices (0 for the empty graph).
    pub fn max_degree(&self) -> usize {
        (0..self.num_vertices())
            .map(|v| self.degree(v))
            .max()
            .unwrap_or(0)
    }

    /// Average degree `2m / n` (0.0 for `n == 0`).
    pub fn average_degree(&self) -> f64 {
        let n = self.num_vertices();
        if n == 0 {
            0.0
        } else {
            2.0 * self.num_edges as f64 / n as f64
        }
    }

    /// The CSR columns: `offsets` (length `n + 1`) and the concatenated
    /// sorted neighbor lists, whose entry `s` is *slot* `s`.
    pub(crate) fn csr(&self) -> (&[usize], &[u32]) {
        (&self.offsets, &self.neighbors)
    }

    /// Sorted neighbor list of `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v >= n`.
    pub fn neighbors(&self, v: usize) -> &[u32] {
        &self.neighbors[self.offsets[v]..self.offsets[v + 1]]
    }

    /// Whether the undirected edge `{u, v}` is present (binary search).
    pub fn has_edge(&self, u: usize, v: usize) -> bool {
        if u >= self.num_vertices() || v >= self.num_vertices() {
            return false;
        }
        self.neighbors(u).binary_search(&(v as u32)).is_ok()
    }

    /// Iterator over all undirected edges as `(u, v)` with `u < v`.
    ///
    /// ```
    /// use dgo_graph::Graph;
    /// let g = Graph::from_edges(3, &[(2, 0), (1, 2)])?;
    /// let edges: Vec<_> = g.edges().collect();
    /// assert_eq!(edges, vec![(0, 2), (1, 2)]);
    /// # Ok::<(), dgo_graph::GraphError>(())
    /// ```
    pub fn edges(&self) -> Edges<'_> {
        Edges {
            graph: self,
            vertex: 0,
            pos: 0,
        }
    }

    /// Vertex-induced subgraph on `keep`, relabeling kept vertices `0..k` in
    /// ascending original order. Returns the subgraph and the mapping
    /// `new_id -> old_id`.
    ///
    /// Vertices in `keep` that are out of range are ignored; duplicates are
    /// collapsed.
    ///
    /// The relabeling is monotone and every neighbor list is sorted, so each
    /// new list is its vertex's old list, filtered and relabeled in one pass:
    /// no edge list, no sort.
    pub fn induced_subgraph(&self, keep: &[usize]) -> (Graph, Vec<usize>) {
        let n = self.num_vertices();
        let mut sorted: Vec<usize> = keep.iter().copied().filter(|&v| v < n).collect();
        sorted.sort_unstable();
        sorted.dedup();
        const DROPPED: u32 = u32::MAX;
        let mut old_to_new = vec![DROPPED; n];
        for (new, &old) in sorted.iter().enumerate() {
            old_to_new[old] = new as u32;
        }
        let mut offsets = Vec::with_capacity(sorted.len() + 1);
        offsets.push(0);
        // The kept degrees bound the kept slots from above; the slots of
        // edges to dropped vertices are given back once the lists are built.
        let mut neighbors = Vec::with_capacity(sorted.iter().map(|&v| self.degree(v)).sum());
        for &old in &sorted {
            neighbors.extend(
                self.neighbors(old)
                    .iter()
                    .map(|&w| old_to_new[w as usize])
                    .filter(|&w| w != DROPPED),
            );
            offsets.push(neighbors.len());
        }
        neighbors.shrink_to_fit();
        let num_edges = neighbors.len() / 2;
        let sub = Graph {
            offsets,
            neighbors,
            num_edges,
        };
        (sub, sorted)
    }

    /// Edge-induced subgraph: keeps all `n` vertices but only the edges for
    /// which `pred(u, v)` returns `true` (called once per edge with `u < v`).
    pub fn filter_edges<F: FnMut(usize, usize) -> bool>(&self, mut pred: F) -> Graph {
        let kept: Vec<(u32, u32)> = self
            .edges()
            .filter(|&(u, v)| pred(u, v))
            .map(|(u, v)| (u as u32, v as u32))
            .collect();
        Graph::from_normalized(self.num_vertices(), &kept)
    }

    /// Disjoint union with `other`: vertices of `other` are shifted by
    /// `self.num_vertices()`.
    pub fn disjoint_union(&self, other: &Graph) -> Graph {
        let shift = self.num_vertices() as u32;
        let mut edges: Vec<(u32, u32)> = self.edges().map(|(u, v)| (u as u32, v as u32)).collect();
        edges.extend(
            other
                .edges()
                .map(|(u, v)| (u as u32 + shift, v as u32 + shift)),
        );
        edges.sort_unstable();
        Graph::from_normalized(self.num_vertices() + other.num_vertices(), &edges)
    }

    /// Whether the graph contains no cycle (i.e. is a forest), via union-find.
    pub fn is_forest(&self) -> bool {
        let mut parent: Vec<usize> = (0..self.num_vertices()).collect();
        fn find(parent: &mut [usize], mut x: usize) -> usize {
            while parent[x] != x {
                parent[x] = parent[parent[x]];
                x = parent[x];
            }
            x
        }
        for (u, v) in self.edges() {
            let ru = find(&mut parent, u);
            let rv = find(&mut parent, v);
            if ru == rv {
                return false;
            }
            parent[ru] = rv;
        }
        true
    }

    /// Number of connected components.
    pub fn connected_components(&self) -> usize {
        let n = self.num_vertices();
        let mut seen = vec![false; n];
        let mut components = 0;
        let mut stack = Vec::new();
        for start in 0..n {
            if seen[start] {
                continue;
            }
            components += 1;
            seen[start] = true;
            stack.push(start);
            while let Some(v) = stack.pop() {
                for &w in self.neighbors(v) {
                    let w = w as usize;
                    if !seen[w] {
                        seen[w] = true;
                        stack.push(w);
                    }
                }
            }
        }
        components
    }
}

/// Validates an edge list against `n` and normalizes to `(u32, u32)` with
/// `u < v`, preserving input order. The per-edge check order (first endpoint,
/// second endpoint, self-loop; first offending edge in list order wins) is
/// the error contract of [`Graph::from_edges`].
fn normalize_edges(n: usize, edges: &[(usize, usize)]) -> Result<Vec<(u32, u32)>> {
    let mut normalized: Vec<(u32, u32)> = Vec::with_capacity(edges.len());
    for &(u, v) in edges {
        if u >= n {
            return Err(GraphError::VertexOutOfRange { vertex: u, n });
        }
        if v >= n {
            return Err(GraphError::VertexOutOfRange { vertex: v, n });
        }
        if u == v {
            return Err(GraphError::SelfLoop { vertex: u });
        }
        let (a, b) = if u < v { (u, v) } else { (v, u) };
        normalized.push((a as u32, b as u32));
    }
    Ok(normalized)
}

/// The CSR scatter: degree counts into `offsets[v + 1]`, prefix sum, then
/// both endpoints of every edge written at their vertices' cursors. Lists
/// come out in input order, so unsorted (and duplicated) if the input is.
fn scatter(n: usize, edges: &[(u32, u32)]) -> (Vec<usize>, Vec<u32>) {
    let mut offsets = vec![0usize; n + 1];
    for &(u, v) in edges {
        offsets[u as usize + 1] += 1;
        offsets[v as usize + 1] += 1;
    }
    for v in 0..n {
        offsets[v + 1] += offsets[v];
    }
    let mut cursor: Vec<usize> = offsets[..n].to_vec();
    let mut neighbors = vec![0u32; offsets[n]];
    for &(u, v) in edges {
        let (u, v) = (u as usize, v as usize);
        neighbors[cursor[u]] = v as u32;
        cursor[u] += 1;
        neighbors[cursor[v]] = u as u32;
        cursor[v] += 1;
    }
    (offsets, neighbors)
}

/// Sorts and dedups every vertex's list in place and returns the per-vertex
/// deduped length; the kept prefix of each range holds the canonical list,
/// the caller compacts. The vertices split into `threads` contiguous ranges,
/// and each thread gets its range's lists as one disjoint `&mut` slice.
fn sort_dedup_lists(offsets: &[usize], neighbors: &mut [u32], threads: usize) -> Vec<u32> {
    let n = offsets.len() - 1;
    let mut kept = vec![0u32; n];
    if n == 0 {
        return kept;
    }
    let chunk = n.div_ceil(threads.clamp(1, n));
    let mut parts = Vec::with_capacity(n.div_ceil(chunk));
    let mut rest = neighbors;
    for (c, lens) in kept.chunks_mut(chunk).enumerate() {
        let (start, end) = (c * chunk, c * chunk + lens.len());
        let (lists, tail) = std::mem::take(&mut rest).split_at_mut(offsets[end] - offsets[start]);
        rest = tail;
        parts.push((start, lens, lists));
    }
    rayon::fork_join(parts, |(start, lens, mut lists)| {
        for (len, bounds) in lens.iter_mut().zip(offsets[start..].windows(2)) {
            let (list, rest) = std::mem::take(&mut lists).split_at_mut(bounds[1] - bounds[0]);
            lists = rest;
            list.sort_unstable();
            let mut distinct = 0usize;
            for i in 0..list.len() {
                if distinct == 0 || list[distinct - 1] != list[i] {
                    list[distinct] = list[i];
                    distinct += 1;
                }
            }
            *len = distinct as u32;
        }
    });
    kept
}

impl Default for Graph {
    fn default() -> Self {
        Graph::empty(0)
    }
}

/// Iterator over the undirected edges of a [`Graph`], yielded as `(u, v)`
/// with `u < v` in lexicographic order. Created by [`Graph::edges`].
#[derive(Debug, Clone)]
pub struct Edges<'a> {
    graph: &'a Graph,
    vertex: usize,
    pos: usize,
}

impl Iterator for Edges<'_> {
    type Item = (usize, usize);

    fn next(&mut self) -> Option<Self::Item> {
        let g = self.graph;
        let n = g.num_vertices();
        while self.vertex < n {
            let nbrs = g.neighbors(self.vertex);
            while self.pos < nbrs.len() {
                let w = nbrs[self.pos] as usize;
                self.pos += 1;
                if w > self.vertex {
                    return Some((self.vertex, w));
                }
            }
            self.vertex += 1;
            self.pos = 0;
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_triangle() {
        let g = Graph::from_edges(3, &[(0, 1), (1, 2), (0, 2)]).unwrap();
        assert_eq!(g.num_vertices(), 3);
        assert_eq!(g.num_edges(), 3);
        assert_eq!(g.degree(0), 2);
        assert_eq!(g.neighbors(0), &[1, 2]);
        assert!(g.has_edge(2, 1));
        assert!(!g.has_edge(0, 0));
    }

    #[test]
    fn rejects_out_of_range() {
        let err = Graph::from_edges(2, &[(0, 5)]).unwrap_err();
        assert_eq!(err, GraphError::VertexOutOfRange { vertex: 5, n: 2 });
    }

    #[test]
    fn rejects_self_loop() {
        let err = Graph::from_edges(2, &[(1, 1)]).unwrap_err();
        assert_eq!(err, GraphError::SelfLoop { vertex: 1 });
    }

    #[test]
    fn dedups_parallel_edges() {
        let g = Graph::from_edges(2, &[(0, 1), (1, 0), (0, 1)]).unwrap();
        assert_eq!(g.num_edges(), 1);
        assert_eq!(g.degree(0), 1);
    }

    #[test]
    fn empty_graph() {
        let g = Graph::empty(4);
        assert_eq!(g.num_vertices(), 4);
        assert_eq!(g.num_edges(), 0);
        assert_eq!(g.max_degree(), 0);
        assert!(g.is_forest());
        assert_eq!(g.connected_components(), 4);
    }

    #[test]
    fn zero_vertex_graph() {
        let g = Graph::empty(0);
        assert_eq!(g.num_vertices(), 0);
        assert_eq!(g.average_degree(), 0.0);
        assert_eq!(g.edges().count(), 0);
    }

    #[test]
    fn edges_iterator_is_sorted_and_complete() {
        let g = Graph::from_edges(4, &[(3, 1), (0, 2), (2, 3), (0, 1)]).unwrap();
        let edges: Vec<_> = g.edges().collect();
        assert_eq!(edges, vec![(0, 1), (0, 2), (1, 3), (2, 3)]);
    }

    #[test]
    fn induced_subgraph_relabels() {
        let g = Graph::from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]).unwrap();
        let (sub, map) = g.induced_subgraph(&[1, 3, 2]);
        assert_eq!(map, vec![1, 2, 3]);
        assert_eq!(sub.num_vertices(), 3);
        // Edges (1,2) and (2,3) survive as (0,1) and (1,2).
        let edges: Vec<_> = sub.edges().collect();
        assert_eq!(edges, vec![(0, 1), (1, 2)]);
    }

    #[test]
    fn induced_subgraph_ignores_out_of_range_and_dupes() {
        let g = Graph::from_edges(3, &[(0, 1)]).unwrap();
        let (sub, map) = g.induced_subgraph(&[0, 0, 1, 99]);
        assert_eq!(map, vec![0, 1]);
        assert_eq!(sub.num_edges(), 1);
    }

    /// The edge-list build `induced_subgraph` replaced: the kept edges as
    /// relabeled pairs, sorted, then scattered into a fresh CSR whose lists
    /// are sorted again.
    fn induced_subgraph_by_edges(g: &Graph, keep: &[usize]) -> (Graph, Vec<usize>) {
        let n = g.num_vertices();
        let mut sorted: Vec<usize> = keep.iter().copied().filter(|&v| v < n).collect();
        sorted.sort_unstable();
        sorted.dedup();
        let mut old_to_new = vec![usize::MAX; n];
        for (new, &old) in sorted.iter().enumerate() {
            old_to_new[old] = new;
        }
        let mut edges: Vec<(u32, u32)> = Vec::new();
        for &old_u in &sorted {
            let new_u = old_to_new[old_u];
            for &w in g.neighbors(old_u) {
                let old_v = w as usize;
                if old_v > old_u && old_to_new[old_v] != usize::MAX {
                    edges.push((new_u as u32, old_to_new[old_v] as u32));
                }
            }
        }
        edges.sort_unstable();
        (Graph::from_normalized(sorted.len(), &edges), sorted)
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        /// The CSR filter equals the edge-list build on random graphs and
        /// random `keep` lists: unsorted, with duplicates and out-of-range
        /// entries, from empty to every vertex.
        #[test]
        fn induced_subgraph_matches_the_edge_list_build(
            n in 0usize..120,
            density in 0usize..6,
            keep_len in 0usize..200,
            seed in proptest::prelude::any::<u64>(),
        ) {
            use rand::{Rng, SeedableRng};
            let g = crate::generators::gnm(n, density * n, seed);
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed ^ 0x5EED);
            let keep: Vec<usize> = (0..keep_len).map(|_| rng.random_range(0..n + 8)).collect();
            let induced = g.induced_subgraph(&keep);
            // The subgraph holds no slot for an edge to a dropped vertex.
            proptest::prop_assert_eq!(induced.0.neighbors.capacity(), induced.0.neighbors.len());
            proptest::prop_assert_eq!(induced, induced_subgraph_by_edges(&g, &keep));
            let every: Vec<usize> = (0..n).rev().collect();
            let (whole, map) = g.induced_subgraph(&every);
            proptest::prop_assert_eq!(&whole, &g);
            proptest::prop_assert_eq!(map, (0..n).collect::<Vec<_>>());
        }
    }

    #[test]
    fn filter_edges_keeps_predicate() {
        let g = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3)]).unwrap();
        let odd = g.filter_edges(|u, v| (u + v) % 2 == 1);
        assert_eq!(odd.num_vertices(), 4);
        assert_eq!(odd.num_edges(), 3); // all of 0+1, 1+2, 2+3 are odd sums
        let none = g.filter_edges(|_, _| false);
        assert_eq!(none.num_edges(), 0);
    }

    #[test]
    fn disjoint_union_shifts() {
        let a = Graph::from_edges(2, &[(0, 1)]).unwrap();
        let b = Graph::from_edges(3, &[(0, 2)]).unwrap();
        let u = a.disjoint_union(&b);
        assert_eq!(u.num_vertices(), 5);
        assert_eq!(u.num_edges(), 2);
        assert!(u.has_edge(0, 1));
        assert!(u.has_edge(2, 4));
    }

    #[test]
    fn forest_detection() {
        let path = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3)]).unwrap();
        assert!(path.is_forest());
        let cycle = Graph::from_edges(3, &[(0, 1), (1, 2), (2, 0)]).unwrap();
        assert!(!cycle.is_forest());
    }

    #[test]
    fn connected_components_counts() {
        let g = Graph::from_edges(6, &[(0, 1), (2, 3), (3, 4)]).unwrap();
        assert_eq!(g.connected_components(), 3); // {0,1}, {2,3,4}, {5}
    }

    #[test]
    fn counting_and_sort_builders_agree() {
        let edges = [(3usize, 1), (0, 2), (2, 3), (0, 1), (1, 3), (0, 2)];
        assert_eq!(
            Graph::from_edges(4, &edges).unwrap(),
            Graph::from_edges_by_sort(4, &edges).unwrap(),
        );
    }

    #[test]
    fn sort_builder_reports_same_errors() {
        assert_eq!(
            Graph::from_edges_by_sort(2, &[(0, 5)]).unwrap_err(),
            GraphError::VertexOutOfRange { vertex: 5, n: 2 },
        );
        assert_eq!(
            Graph::from_edges_by_sort(2, &[(1, 1)]).unwrap_err(),
            GraphError::SelfLoop { vertex: 1 },
        );
    }

    #[test]
    fn unsorted_builder_identical_at_any_jobs() {
        // Unsorted input with duplicates in both orders of discovery; the
        // canonical CSR must not depend on order or thread count, including
        // more threads than vertices.
        let edges: Vec<(u32, u32)> = vec![(2, 4), (0, 1), (1, 4), (0, 1), (2, 4), (0, 3)];
        let reference = Graph::from_edges_by_sort(
            5,
            &edges
                .iter()
                .map(|&(u, v)| (u as usize, v as usize))
                .collect::<Vec<_>>(),
        )
        .unwrap();
        for jobs in [1, 2, 3, 8, 0] {
            assert_eq!(
                Graph::from_normalized_unsorted(5, &edges, jobs),
                reference,
                "jobs = {jobs}"
            );
        }
    }

    #[test]
    fn clone_preserves_equality() {
        let g = Graph::from_edges(3, &[(0, 1), (1, 2)]).unwrap();
        assert_eq!(g, g.clone());
    }

    #[test]
    fn default_is_empty() {
        let g = Graph::default();
        assert_eq!(g.num_vertices(), 0);
    }
}
