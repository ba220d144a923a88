//! Compressed-sparse-row representation of simple undirected graphs.
//!
//! [`Graph`] is the workhorse type of the whole workspace: generators produce
//! it, the MPC simulator and the LOCAL baselines consume it, and all
//! algorithm outputs (orientations, colorings, layerings) are validated
//! against it.

use crate::error::{GraphError, Result};
use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicU32, AtomicUsize, Ordering};
use std::sync::OnceLock;

/// Below this edge count the unsorted CSR builder always runs inline:
/// pool-task bookkeeping would cost more than the build itself.
const PARALLEL_BUILD_MIN_EDGES: usize = 1 << 16;

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

/// Shared-pointer wrapper for disjoint-range writes from pool tasks: every
/// task writes a distinct set of indices, so no two writes alias.
struct SendPtr<T>(*mut T);
// SAFETY: the wrapper only crosses threads inside fork-joins whose tasks
// write disjoint indices of a buffer the caller keeps alive until the join.
#[allow(unsafe_code)]
unsafe impl<T: Send> Send for SendPtr<T> {}
// SAFETY: shared references only copy the pointer; every write through it
// targets a task-exclusive index, never a shared cell.
#[allow(unsafe_code)]
unsafe impl<T: Send> Sync for SendPtr<T> {}

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
    /// instead of the full-list O(m log m), and the tally/scatter/sort phases
    /// run chunk-parallel on the pool when `jobs` (0 = all cores) exceeds 1.
    ///
    /// The per-list sort + dedup canonicalizes away both the input order and
    /// any scatter-order nondeterminism of the parallel path, so the
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
        assert!(
            edges.len() <= u32::MAX as usize / 2,
            "edge list too large for u32 degree counters"
        );
        let threads = if jobs == 0 {
            rayon::current_num_threads()
        } else {
            jobs
        };
        let (mut offsets, mut neighbors) = if threads > 1 && edges.len() >= PARALLEL_BUILD_MIN_EDGES
        {
            scatter_parallel(n, edges, threads)
        } else {
            scatter_sequential(n, edges)
        };
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
        let mut degrees = vec![0usize; n];
        for &(u, v) in edges {
            degrees[u as usize] += 1;
            degrees[v as usize] += 1;
        }
        let mut offsets = Vec::with_capacity(n + 1);
        offsets.push(0);
        for v in 0..n {
            offsets.push(offsets[v] + degrees[v]);
        }
        let mut neighbors = vec![0u32; offsets[n]];
        let mut cursor = offsets.clone();
        for &(u, v) in edges {
            neighbors[cursor[u as usize]] = v;
            cursor[u as usize] += 1;
            neighbors[cursor[v as usize]] = u;
            cursor[v as usize] += 1;
        }
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
    pub fn induced_subgraph(&self, keep: &[usize]) -> (Graph, Vec<usize>) {
        let n = self.num_vertices();
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
            for &w in self.neighbors(old_u) {
                let old_v = w as usize;
                if old_v > old_u && old_to_new[old_v] != usize::MAX {
                    edges.push((new_u as u32, old_to_new[old_v] as u32));
                }
            }
        }
        edges.sort_unstable();
        (Graph::from_normalized(sorted.len(), &edges), sorted)
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

/// Inline tally + scatter: degree counts into `offsets[v + 1]`, prefix sum,
/// then both endpoints of every edge written at their vertices' cursors.
/// Lists come out unsorted and possibly duplicated.
fn scatter_sequential(n: usize, edges: &[(u32, u32)]) -> (Vec<usize>, Vec<u32>) {
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

/// [`scatter_sequential`] with the tally and scatter fanned out over edge
/// chunks: relaxed atomic degree counters, then atomic per-vertex cursors
/// claiming unique slots. Slot order within a list depends on scheduling,
/// which is fine — the per-list sort + dedup canonicalizes it away.
#[allow(unsafe_code)]
fn scatter_parallel(n: usize, edges: &[(u32, u32)], threads: usize) -> (Vec<usize>, Vec<u32>) {
    let degrees: Vec<AtomicU32> = (0..n).map(|_| AtomicU32::new(0)).collect();
    rayon::chunk_map_reduce(
        edges,
        threads,
        |_, chunk| {
            for &(u, v) in chunk {
                degrees[u as usize].fetch_add(1, Ordering::Relaxed);
                degrees[v as usize].fetch_add(1, Ordering::Relaxed);
            }
        },
        |(), ()| (),
    );
    let mut offsets = Vec::with_capacity(n + 1);
    offsets.push(0usize);
    let mut acc = 0usize;
    for d in &degrees {
        acc += d.load(Ordering::Relaxed) as usize;
        offsets.push(acc);
    }
    let cursor: Vec<AtomicUsize> = offsets[..n].iter().map(|&o| AtomicUsize::new(o)).collect();
    let mut neighbors = vec![0u32; offsets[n]];
    let base = SendPtr(neighbors.as_mut_ptr());
    let base = &base;
    rayon::chunk_map_reduce(
        edges,
        threads,
        move |_, chunk| {
            for &(u, v) in chunk {
                let slot_u = cursor[u as usize].fetch_add(1, Ordering::Relaxed);
                let slot_v = cursor[v as usize].fetch_add(1, Ordering::Relaxed);
                // SAFETY: each fetch_add claims a unique slot inside the
                // vertex's degree-sized range of a buffer that outlives the
                // fork-join, so no two writes alias.
                unsafe {
                    *base.0.add(slot_u) = v;
                    *base.0.add(slot_v) = u;
                }
            }
        },
        |(), ()| (),
    );
    (offsets, neighbors)
}

/// Sorts and dedups every vertex's list in place (vertex-chunk-parallel) and
/// returns the per-vertex deduped length; the kept prefix of each range holds
/// the canonical list, the caller compacts.
#[allow(unsafe_code)]
fn sort_dedup_lists(offsets: &[usize], neighbors: &mut [u32], threads: usize) -> Vec<u32> {
    let n = offsets.len() - 1;
    let base = SendPtr(neighbors.as_mut_ptr());
    let base = &base;
    rayon::chunk_map_collect_range(n, threads, move |v| {
        // SAFETY: the ranges `[offsets[v], offsets[v + 1])` are disjoint
        // across vertices and the buffer outlives the fork-join.
        let list = unsafe {
            std::slice::from_raw_parts_mut(base.0.add(offsets[v]), offsets[v + 1] - offsets[v])
        };
        list.sort_unstable();
        let mut kept = 0usize;
        for i in 0..list.len() {
            if kept == 0 || list[kept - 1] != list[i] {
                list[kept] = list[i];
                kept += 1;
            }
        }
        kept as u32
    })
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
        // canonical CSR must not depend on order or thread count.
        let edges: Vec<(u32, u32)> = vec![(2, 4), (0, 1), (1, 4), (0, 1), (2, 4), (0, 3)];
        let reference = Graph::from_edges_by_sort(
            5,
            &edges
                .iter()
                .map(|&(u, v)| (u as usize, v as usize))
                .collect::<Vec<_>>(),
        )
        .unwrap();
        for jobs in [1, 2, 0] {
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
