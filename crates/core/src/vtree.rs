//! Rooted view trees with valid mappings (paper Definitions 2.3–2.7).
//!
//! During graph exponentiation each vertex `v` maintains a rooted tree `T_v`
//! whose nodes map to graph vertices (possibly with repeats along different
//! branches — one tree node per distinct path). A mapping is *valid*
//! (Def 2.3) when every tree edge maps to a graph edge and the children of
//! any node map to pairwise distinct vertices. The tree-attachment operation
//! (Def 2.5) splices a neighbor's pruned tree onto a leaf; *missing
//! neighbors* (Def 2.6) of a tree node are the graph neighbors of its image
//! not represented among its children.
//!
//! # Arena layout
//!
//! The tree is a flat struct-of-arrays arena: `vertex`, `parent`, and `depth`
//! are parallel `u32` columns indexed by [`NodeId`], and the children of every
//! node are one contiguous run in a shared `pool`, addressed CSR-style by
//! `(child_start, child_len)`. There is no per-node heap allocation — a tree
//! is exactly six `Vec`s, so cloning is six `memcpy`s and the wire content
//! is just the `vertex` and `parent` columns (depths and children runs are
//! reconstructible from parents in arena order). On the wire those two
//! columns ship delta/varint-compressed by [`crate::wire`] — the topological
//! order makes `parent` near-sorted, so the encoded stream is far smaller
//! than the flat two words per node.
//!
//! Invariants maintained by every constructor ([`ViewTree::star`],
//! [`ViewTree::attach`], and the pruning projection):
//!
//! * **Topological node order**: a parent's id is smaller than all of its
//!   children's ids, so reverse index scans are bottom-up traversals
//!   ([`ViewTree::subtree_sizes`]) and forward scans are top-down.
//! * **Contiguous sibling blocks**: the children of a node occupy one
//!   contiguous id range *and* one contiguous pool run, appended in
//!   construction order. Linear scans over the arena therefore visit whole
//!   sibling groups in cache order — no pointer chasing.
//! * **Live pool**: pool runs are written once per node and never shrunk in
//!   place; `pool.len()` equals the total child count (`len() - 1` plus
//!   nothing, since every non-root node is exactly one parent's child).
//!
//! Mutating operations only ever append (splicing replaces a leaf's *empty*
//! run with a fresh run at the pool tail), which is what keeps the hot
//! attach/prune/peel loops allocation-free apart from O(1) buffer growth.

use dgo_graph::Graph;

/// Index of a node within a [`ViewTree`] arena.
pub type NodeId = u32;

/// Sentinel parent for the root.
const NO_PARENT: u32 = u32::MAX;

/// A rooted tree with a valid mapping into a graph (Definition 2.3).
///
/// Node 0 is always the root. The structure maintains the valid-mapping
/// invariants in debug builds; [`ViewTree::assert_valid`] checks them
/// explicitly against a graph.
///
/// # Examples
///
/// ```
/// use dgo_core::ViewTree;
/// use dgo_graph::Graph;
///
/// let g = Graph::from_edges(3, &[(0, 1), (1, 2)])?;
/// // The initial view of vertex 1: a star over its neighborhood.
/// let t = ViewTree::star(1, &[0, 2]);
/// assert_eq!(t.len(), 3);
/// assert_eq!(t.root_vertex(), 1);
/// assert_eq!(t.missing_count(ViewTree::ROOT, &g), 0);
/// t.assert_valid(&g);
/// # Ok::<(), dgo_graph::GraphError>(())
/// ```
#[derive(Debug, Clone, Eq)]
pub struct ViewTree {
    /// Image of each node under the valid mapping (a graph vertex).
    vertex: Vec<u32>,
    /// Parent node id (`NO_PARENT` for the root).
    parent: Vec<u32>,
    /// Depth of each node (root is 0).
    depth: Vec<u32>,
    /// First pool index of each node's children run.
    child_start: Vec<u32>,
    /// Length of each node's children run.
    child_len: Vec<u32>,
    /// Concatenated children runs (node ids).
    pool: Vec<u32>,
}

/// Trees compare by logical structure — per-node images, parents, depths, and
/// children runs — independent of where runs happen to sit in the pool, so
/// equal trees built through different operation sequences compare equal.
impl PartialEq for ViewTree {
    fn eq(&self, other: &Self) -> bool {
        self.vertex == other.vertex
            && self.parent == other.parent
            && self.depth == other.depth
            && self.child_len == other.child_len
            && self
                .node_ids()
                .all(|x| self.children(x) == other.children(x))
    }
}

impl ViewTree {
    /// The root's node id.
    pub const ROOT: NodeId = 0;

    /// An empty arena with capacity for `nodes` nodes and `pool` child slots:
    /// exactly six heap allocations, regardless of the tree size.
    pub(crate) fn with_capacity(nodes: usize, pool: usize) -> Self {
        ViewTree {
            vertex: Vec::with_capacity(nodes),
            parent: Vec::with_capacity(nodes),
            depth: Vec::with_capacity(nodes),
            child_start: Vec::with_capacity(nodes),
            child_len: Vec::with_capacity(nodes),
            pool: Vec::with_capacity(pool),
        }
    }

    /// Appends a childless node, returning its id. The children run can be
    /// claimed later with [`ViewTree::set_run`]; until then the node is a
    /// leaf with an empty run at the current pool tail.
    fn push_node(&mut self, vertex: u32, parent: u32, depth: u32) -> NodeId {
        let id = self.vertex.len() as u32;
        self.vertex.push(vertex);
        self.parent.push(parent);
        self.depth.push(depth);
        self.child_start.push(self.pool.len() as u32);
        self.child_len.push(0);
        id
    }

    /// Points node `x`'s children run at the pool tail, ready for `len`
    /// subsequent `pool` pushes. Only valid while `x`'s run is empty (leaves
    /// never shrink, so no pool slot ever goes dead).
    fn set_run(&mut self, x: NodeId, len: u32) {
        debug_assert_eq!(self.child_len[x as usize], 0, "run of {x} already set");
        self.child_start[x as usize] = self.pool.len() as u32;
        self.child_len[x as usize] = len;
    }

    /// Single-node tree mapping the root to `vertex`.
    pub fn singleton(vertex: usize) -> Self {
        let mut t = ViewTree::with_capacity(1, 0);
        t.push_node(vertex as u32, NO_PARENT, 0);
        t
    }

    /// Initial exponentiation view: the root maps to `vertex`, with one child
    /// per (distinct) neighbor. The leaf images are copied straight from the
    /// caller's adjacency slice — no intermediate buffers.
    pub fn star(vertex: usize, neighbors: &[u32]) -> Self {
        let deg = neighbors.len();
        let mut t = ViewTree::with_capacity(deg + 1, deg);
        t.vertex.push(vertex as u32);
        t.vertex.extend_from_slice(neighbors);
        t.parent.push(NO_PARENT);
        t.parent.resize(deg + 1, 0);
        t.depth.push(0);
        t.depth.resize(deg + 1, 1);
        t.pool.extend(1..=deg as u32);
        t.child_start.push(0);
        t.child_len.push(deg as u32);
        // Leaves: empty runs at the pool tail.
        t.child_start.resize(deg + 1, deg as u32);
        t.child_len.resize(deg + 1, 0);
        t
    }

    /// Number of tree nodes.
    pub fn len(&self) -> usize {
        self.vertex.len()
    }

    /// Whether the tree is empty (never true: a tree always has its root).
    pub fn is_empty(&self) -> bool {
        self.vertex.is_empty()
    }

    /// Graph vertex the root maps to.
    pub fn root_vertex(&self) -> usize {
        self.vertex[0] as usize
    }

    /// Graph vertex that node `x` maps to (the valid mapping).
    ///
    /// # Panics
    ///
    /// Panics if `x` is out of range.
    pub fn vertex(&self, x: NodeId) -> usize {
        self.vertex[x as usize] as usize
    }

    /// Children of node `x`: one contiguous run of the shared pool.
    pub fn children(&self, x: NodeId) -> &[u32] {
        let start = self.child_start[x as usize] as usize;
        &self.pool[start..start + self.child_len[x as usize] as usize]
    }

    /// Number of children of node `x`, without touching the pool.
    pub fn num_children(&self, x: NodeId) -> usize {
        self.child_len[x as usize] as usize
    }

    /// Parent of node `x`, or `None` for the root.
    pub fn parent(&self, x: NodeId) -> Option<NodeId> {
        let p = self.parent[x as usize];
        (p != NO_PARENT).then_some(p)
    }

    /// Depth of node `x` (root has depth 0).
    pub fn depth(&self, x: NodeId) -> u32 {
        self.depth[x as usize]
    }

    /// Ids of all nodes, root first, in topological (parents-first) order —
    /// the arena order all constructors maintain.
    pub fn node_ids(&self) -> std::ops::Range<NodeId> {
        0..self.vertex.len() as u32
    }

    /// Leaves (childless nodes) whose depth is exactly `d`, in id order, as a
    /// borrowing iterator — one linear scan over two arena columns, no
    /// allocation. Collect into a reusable buffer when a materialized list is
    /// needed.
    pub fn leaves_at_depth(&self, d: u32) -> impl Iterator<Item = NodeId> + '_ {
        self.depth
            .iter()
            .zip(&self.child_len)
            .enumerate()
            .filter(move |&(_, (&depth, &nc))| depth == d && nc == 0)
            .map(|(x, _)| x as u32)
    }

    /// Number of *missing neighbors* of node `x` (Definition 2.6):
    /// `|N(map(x))| - |children(x)|`. Valid mappings make children map to
    /// distinct neighbors, so the count is pure arithmetic.
    ///
    /// # Panics
    ///
    /// Panics if `x` or its image is out of range for `graph`.
    pub fn missing_count(&self, x: NodeId, graph: &Graph) -> usize {
        graph.degree(self.vertex[x as usize] as usize) - self.num_children(x)
    }

    /// Sizes of all subtrees: `sizes[x]` = number of nodes in the subtree
    /// rooted at `x`. Computed as one reverse linear scan — children always
    /// have larger arena indices than their parent, so a reverse index scan
    /// is a valid bottom-up order.
    pub fn subtree_sizes(&self) -> Vec<u32> {
        let n = self.len();
        let mut sizes = vec![1u32; n];
        for x in (0..n).rev() {
            for &c in self.children(x as u32) {
                sizes[x] += sizes[c as usize];
            }
        }
        sizes
    }

    /// The `vertex` column: image of each node under the valid mapping, in
    /// arena (topological) order. Crate-internal raw view for the wire codec
    /// and the branch-light stage kernels.
    pub(crate) fn vertex_col(&self) -> &[u32] {
        &self.vertex
    }

    /// The `parent` column in arena order (`NO_PARENT` at index 0).
    /// Topological order makes every entry past the root smaller than its
    /// index — the near-sorted shape the delta codec exploits.
    pub(crate) fn parent_col(&self) -> &[u32] {
        &self.parent
    }

    /// The CSR children structure `(child_start, child_len, pool)` as raw
    /// columns, for kernels that scan whole sibling groups without the
    /// per-node [`ViewTree::children`] slice construction.
    pub(crate) fn child_cols(&self) -> (&[u32], &[u32], &[u32]) {
        (&self.child_start, &self.child_len, &self.pool)
    }

    /// Rebuilds a full arena from the two wire columns. `parent[0]` must be
    /// `NO_PARENT` and every later entry must point at a smaller index (the
    /// topological invariant — the decoder validates before calling). Depths
    /// come from one forward pass; the children CSR from a count/prefix-sum/
    /// fill sequence that lays sibling runs in ascending id order, which is
    /// exactly the run content every constructor produces (sibling blocks are
    /// contiguous ascending id ranges), so the result compares equal to the
    /// originally encoded tree.
    pub(crate) fn from_wire_columns(vertex: Vec<u32>, parent: Vec<u32>) -> ViewTree {
        let n = vertex.len();
        debug_assert!(n >= 1, "a tree always has its root");
        debug_assert_eq!(parent.len(), n);
        debug_assert_eq!(parent[0], NO_PARENT);
        let mut depth = vec![0u32; n];
        let mut child_len = vec![0u32; n];
        for i in 1..n {
            let p = parent[i] as usize;
            debug_assert!(p < i, "topological order violated at node {i}");
            depth[i] = depth[p] + 1;
            child_len[p] += 1;
        }
        let mut child_start = vec![0u32; n];
        let mut acc = 0u32;
        for x in 0..n {
            child_start[x] = acc;
            acc += child_len[x];
        }
        let mut pool = vec![0u32; n - 1];
        let mut cursor = child_start.clone();
        for (i, &p) in parent.iter().enumerate().skip(1) {
            let p = p as usize;
            pool[cursor[p] as usize] = i as u32;
            cursor[p] += 1;
        }
        ViewTree {
            vertex,
            parent,
            depth,
            child_start,
            child_len,
            pool,
        }
    }

    /// Words this tree costs on the wire under the *flat* model: two per node
    /// (vertex image + parent pointer — the `vertex` and `parent` columns
    /// verbatim; depths and children runs are reconstructible from parents in
    /// arena order). The baseline [`ViewTree::wire_words`] is compared
    /// against.
    pub fn flat_wire_words(&self) -> usize {
        2 * self.len()
    }

    /// Words this tree actually costs on the wire: the exact encoded length
    /// of the delta/varint codec ([`crate::wire::encode`]). Everything that
    /// meters tree shipment (bundle payload charging, capacity checks) goes
    /// through this single point, so the certified communication reflects
    /// what the encoded representation really moves.
    pub fn wire_words(&self) -> usize {
        crate::wire::encoded_words(self)
    }

    /// Resident heap bytes of the arena (by length, not capacity, so the
    /// figure is deterministic across allocator behavior): five `u32` columns
    /// per node plus one `u32` pool slot per child.
    pub fn arena_bytes(&self) -> usize {
        5 * std::mem::size_of::<u32>() * self.len() + std::mem::size_of::<u32>() * self.pool.len()
    }

    /// Attaches pruned subtrees at the given leaves (Definition 2.5): each
    /// `leaf` is *replaced* by a fresh copy of the corresponding tree, whose
    /// root must map to the same graph vertex as the leaf did.
    ///
    /// The arena grows by exactly the spliced node and child counts in one
    /// reservation — O(1) heap allocations per call, never per node.
    ///
    /// # Panics
    ///
    /// Panics (debug) if a designated node is not a leaf or maps to a
    /// different vertex than the replacement's root.
    pub fn attach(&mut self, replacements: &[(NodeId, &ViewTree)]) {
        let mut extra_nodes = 0usize;
        let mut extra_pool = 0usize;
        for &(_, subtree) in replacements {
            extra_nodes += subtree.len() - 1;
            extra_pool += subtree.pool.len();
        }
        self.vertex.reserve(extra_nodes);
        self.parent.reserve(extra_nodes);
        self.depth.reserve(extra_nodes);
        self.child_start.reserve(extra_nodes);
        self.child_len.reserve(extra_nodes);
        self.pool.reserve(extra_pool);
        for &(leaf, subtree) in replacements {
            self.splice(leaf, subtree);
        }
    }

    /// Builds `source` with `provider(leaf)`'s tree attached at every node in
    /// `leaves`, into a single exactly-sized fresh arena: the six columns are
    /// allocated once, `source` is block-copied, and the providers splice in
    /// borrowed — the O(1)-allocations form of `clone` + [`ViewTree::attach`]
    /// the exponentiation hot loop uses (providers live in the read-only
    /// current buffer of the double-buffered step, so they are never cloned).
    ///
    /// Equivalent to `source.clone()` followed by
    /// `attach(&[(leaf, provider(leaf)), ...])`, including the Def 2.5 debug
    /// guards.
    ///
    /// `provider` is called twice per leaf — once by the sizing pass, once by
    /// the splice pass — so it must be cheap and return the same tree both
    /// times (in the hot loop it is a slice index into the read-only current
    /// buffer).
    pub fn attached_with<'t, F>(source: &ViewTree, leaves: &[NodeId], provider: F) -> Self
    where
        F: Fn(NodeId) -> &'t ViewTree,
    {
        let mut nodes = source.len();
        let mut pool = source.pool.len();
        for &leaf in leaves {
            let subtree = provider(leaf);
            nodes += subtree.len() - 1;
            pool += subtree.pool.len();
        }
        let mut out = ViewTree::with_capacity(nodes, pool);
        out.vertex.extend_from_slice(&source.vertex);
        out.parent.extend_from_slice(&source.parent);
        out.depth.extend_from_slice(&source.depth);
        out.child_start.extend_from_slice(&source.child_start);
        out.child_len.extend_from_slice(&source.child_len);
        out.pool.extend_from_slice(&source.pool);
        for &leaf in leaves {
            out.splice(leaf, provider(leaf));
        }
        out
    }

    /// Splices `subtree` onto `leaf` (which is the copy of the subtree's
    /// root: same image, same parent edge): appends the subtree's nodes in
    /// arena order with ids remapped by a fixed offset, then points the leaf
    /// at the remapped run of the subtree root. Append-only — no per-node
    /// allocation, no pool slot goes dead (the leaf's run was empty).
    fn splice(&mut self, leaf: NodeId, subtree: &ViewTree) {
        debug_assert_eq!(
            self.child_len[leaf as usize], 0,
            "attachment target {leaf} is not a leaf"
        );
        debug_assert_eq!(
            self.vertex[leaf as usize], subtree.vertex[0],
            "replacement root must map to the leaf's vertex (Def 2.5)"
        );
        let base = self.vertex.len() as u32;
        let base_depth = self.depth[leaf as usize];
        // Subtree ids are topological (parents first) and remap affinely:
        // subtree node i (i >= 1) becomes arena node `base + i - 1`; the
        // subtree root is the leaf itself.
        let remap = |x: u32| if x == 0 { leaf } else { base + x - 1 };
        self.vertex.extend_from_slice(&subtree.vertex[1..]);
        for i in 1..subtree.len() {
            self.parent.push(remap(subtree.parent[i]));
            self.depth.push(base_depth + subtree.depth[i]);
        }
        // Run columns for the new nodes; every entry is assigned below.
        let grown = self.vertex.len();
        self.child_start.resize(grown, 0);
        self.child_len.resize(grown, 0);
        // Children runs, in subtree node order: the root's run lands on the
        // leaf, every other node gets a fresh run at the pool tail.
        self.set_run(leaf, subtree.child_len[0]);
        for &c in subtree.children(0) {
            self.pool.push(remap(c));
        }
        for i in 1..subtree.len() as u32 {
            let id = remap(i);
            self.child_start[id as usize] = self.pool.len() as u32;
            self.child_len[id as usize] = subtree.child_len[i as usize];
            for &c in subtree.children(i) {
                self.pool.push(remap(c));
            }
        }
    }

    /// Builds the subtree rooted at `keep_root`, retaining only the child
    /// edges in `kept`'s run for every node. Used by the pruning algorithm to
    /// materialize its result in one pass into an exactly-sized arena
    /// (`total` nodes — the pruned size the caller already computed);
    /// `stack` is caller-provided scratch, cleared here.
    pub(crate) fn project_csr(
        &self,
        keep_root: NodeId,
        kept: &CsrRuns,
        total: usize,
        stack: &mut Vec<(NodeId, NodeId)>,
    ) -> ViewTree {
        let mut out = ViewTree::with_capacity(total, total.saturating_sub(1));
        out.push_node(self.vertex[keep_root as usize], NO_PARENT, 0);
        stack.clear();
        stack.push((keep_root, 0)); // (old id, new id)
        while let Some((old, new)) = stack.pop() {
            let run = kept.run(old);
            if run.is_empty() {
                continue;
            }
            let depth = out.depth[new as usize] + 1;
            let first = out.len() as u32;
            out.set_run(new, run.len() as u32);
            for (offset, &c) in run.iter().enumerate() {
                let new_child = first + offset as u32;
                out.pool.push(new_child);
                stack.push((c, new_child));
            }
            for &c in run {
                out.push_node(self.vertex[c as usize], new, depth);
            }
        }
        out
    }

    /// Verifies the valid-mapping invariants (Definition 2.3) plus the arena
    /// invariants (parent/child symmetry, depths, topological order, live
    /// pool). Intended for tests.
    ///
    /// # Panics
    ///
    /// Panics with a description of the first violated invariant.
    pub fn assert_valid(&self, graph: &Graph) {
        assert!(!self.is_empty(), "tree must have a root");
        assert_eq!(self.parent[0], NO_PARENT, "root has no parent");
        assert_eq!(self.depth[0], 0, "root depth is 0");
        let total_children: usize = self.child_len.iter().map(|&c| c as usize).sum();
        assert_eq!(
            total_children,
            self.len() - 1,
            "every non-root node is exactly one parent's child"
        );
        assert_eq!(
            self.pool.len(),
            total_children,
            "pool must hold exactly the live children runs"
        );
        let mut images: Vec<u32> = Vec::new();
        for x in self.node_ids() {
            // Children: larger ids (topological order), distinct images,
            // adjacency in the graph.
            images.clear();
            for &c in self.children(x) {
                assert!(c > x, "child {c} must follow its parent {x}");
                assert_eq!(self.parent[c as usize], x, "parent/child symmetry at {c}");
                assert_eq!(
                    self.depth[c as usize],
                    self.depth[x as usize] + 1,
                    "depth bookkeeping at {c}"
                );
                assert!(
                    graph.has_edge(
                        self.vertex[x as usize] as usize,
                        self.vertex[c as usize] as usize
                    ),
                    "tree edge ({}, {}) maps to a non-edge ({}, {})",
                    x,
                    c,
                    self.vertex[x as usize],
                    self.vertex[c as usize]
                );
                images.push(self.vertex[c as usize]);
            }
            images.sort_unstable();
            let len_before = images.len();
            images.dedup();
            assert_eq!(
                images.len(),
                len_before,
                "children of {x} map to duplicate vertices"
            );
        }
    }
}

/// Borrowed CSR view of per-node id runs (`run(x)` = the ids kept for node
/// `x`), used to hand the pruning algorithm's reusable kept-children scratch
/// to [`ViewTree::project_csr`] without materializing `Vec<Vec<u32>>`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct CsrRuns<'a> {
    pub start: &'a [u32],
    pub len: &'a [u32],
    pub pool: &'a [u32],
}

impl CsrRuns<'_> {
    fn run(&self, x: NodeId) -> &[u32] {
        let start = self.start[x as usize] as usize;
        &self.pool[start..start + self.len[x as usize] as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn path_graph(n: usize) -> Graph {
        Graph::from_edges(n, &(0..n - 1).map(|i| (i, i + 1)).collect::<Vec<_>>()).unwrap()
    }

    fn leaves(t: &ViewTree, d: u32) -> Vec<NodeId> {
        t.leaves_at_depth(d).collect()
    }

    #[test]
    fn singleton_shape() {
        let t = ViewTree::singleton(4);
        assert_eq!(t.len(), 1);
        assert_eq!(t.root_vertex(), 4);
        assert_eq!(t.depth(ViewTree::ROOT), 0);
        assert!(t.parent(ViewTree::ROOT).is_none());
        assert!(!t.is_empty());
    }

    #[test]
    fn star_shape_and_validity() {
        let g = Graph::from_edges(4, &[(0, 1), (0, 2), (0, 3)]).unwrap();
        let t = ViewTree::star(0, &[1, 2, 3]);
        assert_eq!(t.len(), 4);
        assert_eq!(t.children(ViewTree::ROOT).len(), 3);
        assert_eq!(leaves(&t, 1).len(), 3);
        assert_eq!(t.missing_count(ViewTree::ROOT, &g), 0);
        t.assert_valid(&g);
    }

    #[test]
    fn missing_count_arithmetic() {
        let g = Graph::from_edges(4, &[(0, 1), (0, 2), (0, 3)]).unwrap();
        let t = ViewTree::star(0, &[1]); // only one of three neighbors present
        assert_eq!(t.missing_count(ViewTree::ROOT, &g), 2);
    }

    #[test]
    fn attach_replaces_leaf() {
        let g = path_graph(4); // 0-1-2-3
        let mut t = ViewTree::star(1, &[0, 2]);
        let leaf_for_2 = t.leaves_at_depth(1).find(|&x| t.vertex(x) == 2).unwrap();
        let sub = ViewTree::star(2, &[1, 3]);
        t.attach(&[(leaf_for_2, &sub)]);
        t.assert_valid(&g);
        assert_eq!(t.len(), 5); // root(1), 0, 2, then 2's children {1, 3}
                                // Depths: the spliced children sit at depth 2.
        assert_eq!(leaves(&t, 2).len(), 2);
        // Vertex 1 appears twice (root and as grandchild) — allowed by
        // Def 2.3: repeats happen across branches, one per distinct path.
        let images: Vec<usize> = t.node_ids().map(|x| t.vertex(x)).collect();
        assert_eq!(images.iter().filter(|&&v| v == 1).count(), 2);
    }

    #[test]
    #[cfg(debug_assertions)] // attach() guards Def 2.5 with debug_assert
    #[should_panic(expected = "Def 2.5")]
    fn attach_wrong_vertex_panics() {
        let mut t = ViewTree::star(1, &[0, 2]);
        let leaf = leaves(&t, 1)[0];
        let wrong = ViewTree::singleton(99);
        t.attach(&[(leaf, &wrong)]);
    }

    #[test]
    fn subtree_sizes_bottom_up() {
        let g = path_graph(4);
        let mut t = ViewTree::star(1, &[0, 2]);
        let leaf_for_2 = t.leaves_at_depth(1).find(|&x| t.vertex(x) == 2).unwrap();
        t.attach(&[(leaf_for_2, &ViewTree::star(2, &[1, 3]))]);
        let sizes = t.subtree_sizes();
        assert_eq!(sizes[ViewTree::ROOT as usize], 5);
        assert_eq!(sizes[leaf_for_2 as usize], 3);
        let _ = g;
    }

    #[test]
    fn multiple_attachments_in_one_call() {
        let g = Graph::from_edges(5, &[(0, 1), (0, 2), (1, 3), (2, 4)]).unwrap();
        let mut t = ViewTree::star(0, &[1, 2]);
        let sub1 = ViewTree::star(1, &[0, 3]);
        let sub2 = ViewTree::star(2, &[0, 4]);
        let reps: Vec<(NodeId, &ViewTree)> = leaves(&t, 1)
            .iter()
            .map(|&x| (x, if t.vertex(x) == 1 { &sub1 } else { &sub2 }))
            .collect();
        t.attach(&reps);
        t.assert_valid(&g);
        assert_eq!(t.len(), 7);
        assert_eq!(leaves(&t, 2).len(), 4);
    }

    #[test]
    fn attached_with_matches_clone_plus_attach() {
        let g = Graph::from_edges(5, &[(0, 1), (0, 2), (1, 3), (2, 4)]).unwrap();
        let source = ViewTree::star(0, &[1, 2]);
        let providers = [
            ViewTree::singleton(0),
            ViewTree::star(1, &[0, 3]),
            ViewTree::star(2, &[0, 4]),
        ];
        let targets = leaves(&source, 1);
        let reps: Vec<(NodeId, &ViewTree)> = targets
            .iter()
            .map(|&x| (x, &providers[source.vertex(x)]))
            .collect();
        let mut reference = source.clone();
        reference.attach(&reps);
        let built =
            ViewTree::attached_with(&source, &targets, |leaf| &providers[source.vertex(leaf)]);
        assert_eq!(built, reference);
        built.assert_valid(&g);
    }

    #[test]
    fn attach_onto_attached_depths() {
        // Chain two attachments: depths must accumulate.
        let g = path_graph(5);
        let mut t = ViewTree::star(0, &[1]);
        let l1 = leaves(&t, 1)[0];
        t.attach(&[(l1, &ViewTree::star(1, &[0, 2]))]);
        let l2 = t.leaves_at_depth(2).find(|&x| t.vertex(x) == 2).unwrap();
        t.attach(&[(l2, &ViewTree::star(2, &[1, 3]))]);
        t.assert_valid(&g);
        assert_eq!(leaves(&t, 3).len(), 2);
    }

    #[test]
    fn equality_across_construction_paths() {
        // The same logical tree built via clone-free splicing
        // (`attached_with`) and via in-place `attach` must compare equal —
        // equality is the logical per-node structure, per the documented
        // `PartialEq` contract (pool offsets are excluded from the
        // comparison; current constructors happen to place runs identically
        // for identical splice sequences, so the exclusion is
        // future-proofing) — and unequal trees must not.
        let g = path_graph(3);
        let sub = ViewTree::star(1, &[0, 2]);
        let mut a = ViewTree::star(0, &[1]);
        let l = leaves(&a, 1)[0];
        a.attach(&[(l, &sub)]);
        let source = ViewTree::star(0, &[1]);
        let b = ViewTree::attached_with(&source, &[l], |_| &sub);
        assert_eq!(a, b);
        assert_ne!(a, ViewTree::star(0, &[1]));
        assert_ne!(a, ViewTree::star(2, &[1]));
        a.assert_valid(&g);
    }

    #[test]
    fn arena_accounting() {
        let t = ViewTree::star(3, &[0, 1, 2]);
        assert_eq!(t.flat_wire_words(), 8);
        // Encoded: count(1B) + 4 vertex varints + 3 parent deltas = 8 bytes
        // = 1 word. wire_words() charges the codec, and can never exceed
        // the flat figure.
        assert_eq!(t.wire_words(), 1);
        assert!(t.wire_words() <= t.flat_wire_words());
        // 4 nodes × 5 columns × 4 bytes + 3 pool slots × 4 bytes.
        assert_eq!(t.arena_bytes(), 4 * 5 * 4 + 3 * 4);
        assert_eq!(t.num_children(ViewTree::ROOT), 3);
        assert_eq!(t.num_children(1), 0);
    }

    #[test]
    fn from_wire_columns_reconstructs() {
        let g = path_graph(4);
        let mut t = ViewTree::star(1, &[0, 2]);
        let leaf_for_2 = t.leaves_at_depth(1).find(|&x| t.vertex(x) == 2).unwrap();
        t.attach(&[(leaf_for_2, &ViewTree::star(2, &[1, 3]))]);
        let rebuilt = ViewTree::from_wire_columns(t.vertex_col().to_vec(), t.parent_col().to_vec());
        assert_eq!(rebuilt, t);
        rebuilt.assert_valid(&g);
    }
}
