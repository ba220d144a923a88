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
//! A tree is its two wire columns in **one exactly-sized heap block** of
//! `u32`s: `vertex | parent`, each `len` long and indexed by [`NodeId`].
//! Every constructor knows its final node count before it writes a node, so
//! a tree costs one heap allocation whatever its size, cloning is one
//! `memcpy`, equality is block equality, and [`ViewTree::arena_bytes`] is
//! exactly `8·len` bytes — the two words per node the residency checkpoints
//! and the Lemma 4.1 gather meter. On the wire the same two columns ship
//! delta/varint-compressed ([`ViewTree::wire_words`]): the topological order
//! makes `parent` near-sorted, so the encoded stream is far smaller than the
//! flat two words per node.
//!
//! Invariants maintained by every constructor ([`ViewTree::star`],
//! [`ViewTree::attached_with`] and [`ViewTree::attach`], and the pruning
//! projection):
//!
//! * **Topological node order**: a parent's id is smaller than all of its
//!   children's ids, so reverse index scans are bottom-up traversals
//!   ([`ViewTree::subtree_sizes`]) and forward scans are top-down.
//! * **Contiguous sibling blocks**: the children of a node occupy one
//!   contiguous, ascending id range, laid out in construction order.
//!
//! So the shape follows from `parent` and is not stored: a node's depth is
//! its parent's plus one, and its children are the run of ids whose parent
//! it is. The kernels that read the shape derive it in scratch they own —
//! Algorithm 1's plan the children runs, Algorithm 2's frontier collection
//! depth and leafness ([`ViewTree::shape_into`]). The per-node accessors
//! ([`ViewTree::children`], [`ViewTree::depth`],
//! [`ViewTree::leaves_at_depth`], ...) scan or walk `parent` and are meant
//! for tests and benches.
//!
//! Attachment never grows a block in place: it sizes the result first and
//! splices into a fresh block (an attachment target is a leaf, so the
//! spliced nodes append after the source's and keep their relative order).
//! The pruning projection grafts pruned subtrees onto kept leaves while it
//! writes its result ([`ViewTree::project_csr`]), so an attachment that is
//! only pruned is never built.

use dgo_graph::Graph;
use std::ops::Range;

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
#[derive(Clone, PartialEq, Eq)]
pub struct ViewTree {
    /// `vertex | parent`, `len` entries each (`parent` is `NO_PARENT` at the
    /// root). Its length is always `2·len`.
    block: Box<[u32]>,
}

/// Mutable views of a block's two columns, for the constructors and for the
/// grafts of a pruning projection ([`ViewTree::project_csr`]).
pub(crate) struct Columns<'a> {
    vertex: &'a mut [u32],
    parent: &'a mut [u32],
}

impl std::fmt::Debug for ViewTree {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ViewTree")
            .field("vertex", &self.vertex_col())
            .field("parent", &self.parent_col())
            .finish()
    }
}

impl ViewTree {
    /// The root's node id.
    pub const ROOT: NodeId = 0;

    /// A zero-filled tree of `len ≥ 1` nodes: the one heap allocation every
    /// constructor makes, sized before any node is written.
    fn zeroed(len: usize) -> Self {
        debug_assert!(len >= 1, "a tree always has its root");
        ViewTree {
            block: vec![0; 2 * len].into_boxed_slice(),
        }
    }

    /// Both columns, mutably.
    fn columns_mut(&mut self) -> Columns<'_> {
        let (vertex, parent) = self.block.split_at_mut(self.block.len() / 2);
        Columns { vertex, parent }
    }

    /// Single-node tree mapping the root to `vertex`.
    pub fn singleton(vertex: usize) -> Self {
        ViewTree::star(vertex, &[])
    }

    /// Initial exponentiation view: the root maps to `vertex`, with one child
    /// per (distinct) neighbor. The leaf images are copied straight from the
    /// caller's adjacency slice — no intermediate buffers.
    pub fn star(vertex: usize, neighbors: &[u32]) -> Self {
        let mut t = ViewTree::zeroed(neighbors.len() + 1);
        let c = t.columns_mut();
        c.vertex[0] = vertex as u32;
        c.vertex[1..].copy_from_slice(neighbors);
        c.parent[0] = NO_PARENT; // the leaves' parent, 0, is the zero fill
        t
    }

    /// Number of tree nodes.
    pub fn len(&self) -> usize {
        self.block.len() / 2
    }

    /// Whether the tree is empty (never true: a tree always has its root).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Graph vertex the root maps to.
    pub fn root_vertex(&self) -> usize {
        self.block[0] as usize
    }

    /// Graph vertex that node `x` maps to (the valid mapping).
    ///
    /// # Panics
    ///
    /// Panics if `x` is out of range.
    pub fn vertex(&self, x: NodeId) -> usize {
        self.vertex_col()[x as usize] as usize
    }

    /// Children of node `x`: one contiguous, ascending id range (empty for
    /// a leaf). Found by scanning `parent` past `x`, so it costs `O(len)`.
    ///
    /// # Panics
    ///
    /// Panics if `x` is out of range.
    pub fn children(&self, x: NodeId) -> Range<NodeId> {
        let after = &self.parent_col()[x as usize + 1..];
        let skipped = after.iter().take_while(|&&p| p != x).count();
        let run = after[skipped..].iter().take_while(|&&p| p == x).count();
        let first = x + 1 + skipped as u32;
        first..first + run as u32
    }

    /// Number of children of node `x`: the length of
    /// [`ViewTree::children`], at its `O(len)` cost.
    pub fn num_children(&self, x: NodeId) -> usize {
        self.children(x).len()
    }

    /// Parent of node `x`, or `None` for the root.
    pub fn parent(&self, x: NodeId) -> Option<NodeId> {
        let p = self.parent_col()[x as usize];
        (p != NO_PARENT).then_some(p)
    }

    /// Depth of node `x` (root has depth 0), by walking `parent` up to the
    /// root: `O(depth)`.
    pub fn depth(&self, x: NodeId) -> u32 {
        std::iter::successors(self.parent(x), |&p| self.parent(p)).count() as u32
    }

    /// Ids of all nodes, root first, in topological (parents-first) order —
    /// the arena order all constructors maintain.
    pub fn node_ids(&self) -> Range<NodeId> {
        0..self.len() as u32
    }

    /// Leaves (childless nodes) whose depth is exactly `d`, in id order. The
    /// depths and leafness are derived first, in one pass over `parent` into
    /// a fresh `len`-entry buffer, so each call costs `O(len)` time and one
    /// allocation.
    pub fn leaves_at_depth(&self, d: u32) -> impl Iterator<Item = NodeId> {
        let mut shape = Vec::new();
        self.shape_into(&mut shape);
        (0..)
            .zip(shape)
            .filter_map(move |(x, s)| (s == (d, true)).then_some(x))
    }

    /// The shape of every node, `(depth, is_leaf)` in id order, written into
    /// `shape` (cleared and refilled): one pass over `parent`, which lists
    /// every parent before its children. The scratch form of
    /// [`ViewTree::leaves_at_depth`], for kernels that own a reusable
    /// buffer.
    pub(crate) fn shape_into(&self, shape: &mut Vec<(u32, bool)>) {
        shape.clear();
        shape.resize(self.len(), (0, true));
        for (x, &p) in (1..).zip(&self.parent_col()[1..]) {
            let p = p as usize;
            shape[p].1 = false;
            shape[x].0 = shape[p].0 + 1;
        }
    }

    /// Number of *missing neighbors* of node `x` (Definition 2.6):
    /// `|N(map(x))| - |children(x)|`. Valid mappings make children map to
    /// distinct neighbors, so the count is arithmetic on
    /// [`ViewTree::num_children`], at its `O(len)` cost.
    ///
    /// # Panics
    ///
    /// Panics if `x` or its image is out of range for `graph`.
    pub fn missing_count(&self, x: NodeId, graph: &Graph) -> usize {
        graph.degree(self.vertex(x)) - self.num_children(x)
    }

    /// Sizes of all subtrees: `sizes[x]` = number of nodes in the subtree
    /// rooted at `x`. Computed as one reverse linear scan — children always
    /// have larger arena indices than their parent, so a reverse index scan
    /// is a valid bottom-up order.
    pub fn subtree_sizes(&self) -> Vec<u32> {
        let parent = self.parent_col();
        let mut sizes = vec![1u32; self.len()];
        for x in (1..parent.len()).rev() {
            sizes[parent[x] as usize] += sizes[x];
        }
        sizes
    }

    /// The `vertex` column: image of each node under the valid mapping, in
    /// arena (topological) order. Crate-internal raw view for the wire size
    /// and the branch-light stage kernels.
    pub(crate) fn vertex_col(&self) -> &[u32] {
        &self.block[..self.len()]
    }

    /// The `parent` column in arena order (`NO_PARENT` at index 0).
    /// Topological order makes every entry past the root smaller than its
    /// index — the near-sorted shape the delta codec exploits.
    pub(crate) fn parent_col(&self) -> &[u32] {
        &self.block[self.len()..]
    }

    /// Words this tree costs on the wire under the *flat* model: two per node
    /// (vertex image + parent pointer — the block's two columns verbatim).
    /// The baseline [`ViewTree::wire_words`] is compared against.
    pub fn flat_wire_words(&self) -> usize {
        2 * self.len()
    }

    /// Words this tree actually costs on the wire: the exact length of its
    /// delta/varint encoding — `varint(len)`, the `vertex` column as
    /// varints, then the zigzag-varint deltas of the `parent` column past
    /// the root, packed eight bytes per word. Everything that meters tree
    /// shipment (bundle payload charging, capacity checks) goes through this
    /// single point, so the certified communication reflects what the
    /// encoded representation really moves.
    pub fn wire_words(&self) -> usize {
        crate::wire::encoded_words(self)
    }

    /// Resident heap bytes of the arena (by length, so the figure is
    /// deterministic across allocator behavior): the two `u32` columns,
    /// `8·len`.
    pub fn arena_bytes(&self) -> usize {
        std::mem::size_of::<u32>() * self.block.len()
    }

    /// The summed [`arena_bytes`](ViewTree::arena_bytes) of trees with
    /// `nodes` nodes altogether.
    pub(crate) fn arena_bytes_of(nodes: usize) -> usize {
        2 * std::mem::size_of::<u32>() * nodes
    }

    /// Attaches pruned subtrees at the given leaves (Definition 2.5): each
    /// `leaf` is *replaced* by a fresh copy of the corresponding tree, whose
    /// root must map to the same graph vertex as the leaf did.
    ///
    /// The tree is rebuilt into one exactly-sized block, splicing in the
    /// order of `replacements` — one heap allocation per call, never per
    /// node.
    ///
    /// # Panics
    ///
    /// Panics (debug) if a designated node is not a leaf or maps to a
    /// different vertex than the replacement's root.
    pub fn attach(&mut self, replacements: &[(NodeId, &ViewTree)]) {
        *self = ViewTree::attached(self, replacements.iter().copied());
    }

    /// Builds `source` with `provider(leaf)`'s tree attached at every node in
    /// `leaves`, into a single exactly-sized fresh block: `source` is
    /// block-copied and the providers splice in borrowed — the
    /// one-allocation form of `clone` + [`ViewTree::attach`] that Algorithm
    /// 2 materializes its last attachments with (providers live in the
    /// read-only current buffer of the double-buffered step, so they are
    /// never cloned).
    ///
    /// Equivalent to `source.clone()` followed by
    /// `attach(&[(leaf, provider(leaf)), ...])`, including the Def 2.5 debug
    /// guards.
    ///
    /// `provider` is called twice per leaf — once by the sizing pass, once by
    /// the splice pass — so it must be cheap and return the same tree both
    /// times (in Algorithm 2 it is a slice index into the read-only current
    /// buffer).
    pub fn attached_with<'t, F>(source: &ViewTree, leaves: &[NodeId], provider: F) -> Self
    where
        F: Fn(NodeId) -> &'t ViewTree,
    {
        let provider = &provider;
        ViewTree::attached(source, leaves.iter().map(|&leaf| (leaf, provider(leaf))))
    }

    /// The shared body of [`ViewTree::attach`] and
    /// [`ViewTree::attached_with`]: one sizing pass over `replacements`, one
    /// block, and the splice ([`splice_into`]) into its two columns.
    fn attached<'t, I>(source: &ViewTree, replacements: I) -> Self
    where
        I: Iterator<Item = (NodeId, &'t ViewTree)> + Clone,
    {
        let mut out = ViewTree::zeroed(attached_len(source, replacements.clone()));
        let c = out.columns_mut();
        splice_into(source, replacements, c.vertex, c.parent);
        out
    }

    /// The `vertex` and `parent` columns of
    /// [`ViewTree::attached_with`]`(source, leaves, provider)`, written into
    /// `vertex` and `parent` (cleared and refilled) without building the
    /// tree: the same splice into reusable buffers. These are the only
    /// columns Algorithm 3 reads, so a last attachment that only gets peeled
    /// fills these two buffers instead of allocating a tree.
    pub(crate) fn attached_columns_into<'t, F>(
        source: &ViewTree,
        leaves: &[NodeId],
        provider: F,
        vertex: &mut Vec<u32>,
        parent: &mut Vec<u32>,
    ) where
        F: Fn(NodeId) -> &'t ViewTree,
    {
        let replacements = leaves.iter().map(|&leaf| (leaf, provider(leaf)));
        let len = attached_len(source, replacements.clone());
        for column in [&mut *vertex, &mut *parent] {
            column.clear();
            column.resize(len, 0);
        }
        splice_into(source, replacements, vertex, parent);
    }

    /// Builds the tree, retaining only the child edges in `kept`'s run for
    /// every node. Used by the pruning algorithm to materialize its result
    /// in one pass into an exactly-sized block (`total` nodes — the pruned
    /// size the caller already computed); `stack` is caller-provided
    /// scratch.
    ///
    /// `graft(columns, old, new, next)` is called for every output node
    /// whose kept run is empty (a leaf of the result), with the source node
    /// `old`, its output id `new` and the next free id. It may splice a
    /// subtree onto `new` with descendants from `next` on, and returns the
    /// next free id after it. A node's descendants are numbered as one
    /// contiguous block, so a graft lands exactly where the projection of
    /// the same subtree would have put it.
    pub(crate) fn project_csr(
        &self,
        kept: &CsrRuns,
        total: usize,
        stack: &mut Vec<(NodeId, NodeId)>,
        graft: impl FnMut(&mut Columns<'_>, NodeId, NodeId, u32) -> u32,
    ) -> ViewTree {
        let mut out = ViewTree::zeroed(total);
        let mut c = out.columns_mut();
        c.vertex[0] = self.block[0];
        c.parent[0] = NO_PARENT;
        let next = c.project(self, kept, ViewTree::ROOT, 1, stack, graft);
        debug_assert_eq!(next as usize, total, "pruned size and projection disagree");
        out
    }

    /// Verifies the valid-mapping invariants (Definition 2.3) plus the arena
    /// invariants (block size, a single root, every parent before its
    /// children, every children run one contiguous id range). The runs are
    /// derived once, in linear time. Intended for tests.
    ///
    /// # Panics
    ///
    /// Panics with a description of the first violated invariant.
    pub fn assert_valid(&self, graph: &Graph) {
        let n = self.len();
        assert!(n >= 1, "tree must have a root");
        assert_eq!(self.block.len(), 2 * n, "the block holds the two columns");
        let (vertex, parent) = (self.vertex_col(), self.parent_col());
        assert_eq!(parent[0], NO_PARENT, "root has no parent");
        // Each node's children run `(first, len)`, in one forward pass.
        let mut runs = vec![(0u32, 0u32); n];
        for (x, &p) in (1..).zip(&parent[1..]) {
            assert!(p < x, "parent {p} of node {x} must precede it");
            let (first, len) = &mut runs[p as usize];
            if *len == 0 {
                *first = x;
            }
            assert_eq!(*first + *len, x, "children of {p} are not one id range");
            *len += 1;
            let (u, w) = (vertex[p as usize] as usize, vertex[x as usize] as usize);
            assert!(
                graph.has_edge(u, w),
                "tree edge ({p}, {x}) maps to a non-edge ({u}, {w})"
            );
        }
        let mut images: Vec<u32> = Vec::new();
        for (x, &(first, len)) in runs.iter().enumerate() {
            images.clear();
            images.extend_from_slice(&vertex[first as usize..(first + len) as usize]);
            images.sort_unstable();
            images.dedup();
            assert_eq!(
                images.len(),
                len as usize,
                "children of {x} map to duplicate vertices"
            );
        }
    }
}

/// Node count of `source` with every `(leaf, subtree)` of `replacements`
/// spliced in: a spliced subtree adds all of its nodes but its root.
fn attached_len<'t>(
    source: &ViewTree,
    replacements: impl Iterator<Item = (NodeId, &'t ViewTree)>,
) -> usize {
    source.len() + replacements.map(|(_, t)| t.len() - 1).sum::<usize>()
}

/// Writes `source` with every `(leaf, subtree)` of `replacements` attached
/// (Definition 2.5) into `vertex` and `parent`, which are exactly as long as
/// the result: `source`'s two columns, then each subtree's non-root nodes in
/// arena order, in the order of `replacements`. The leaf is the copy of the
/// subtree's root (same image, same parent edge), so the subtree's other
/// ids shift by one constant ([`spliced_id`]).
fn splice_into<'t>(
    source: &ViewTree,
    replacements: impl Iterator<Item = (NodeId, &'t ViewTree)>,
    vertex: &mut [u32],
    parent: &mut [u32],
) {
    let n = source.len();
    vertex[..n].copy_from_slice(source.vertex_col());
    parent[..n].copy_from_slice(source.parent_col());
    let mut next = n;
    for (leaf, subtree) in replacements {
        debug_assert!(
            !source.parent_col().contains(&leaf),
            "attachment target {leaf} is not a leaf"
        );
        debug_assert_eq!(
            source.vertex(leaf),
            subtree.root_vertex(),
            "replacement root must map to the leaf's vertex (Def 2.5)"
        );
        let end = next + subtree.len() - 1;
        vertex[next..end].copy_from_slice(&subtree.vertex_col()[1..]);
        for (slot, &p) in parent[next..end].iter_mut().zip(&subtree.parent_col()[1..]) {
            *slot = spliced_id(p, leaf, next as u32);
        }
        next = end;
    }
    debug_assert_eq!(next, vertex.len(), "sizing pass and splices disagree");
}

impl Columns<'_> {
    /// Projects `source` through `kept` onto the written node `root`, whose
    /// image is `source`'s root image: `root`'s kept descendants get ids
    /// `next..` in expansion order, as [`ViewTree::project_csr`] describes
    /// (it is this loop with `root` the output root). Returns the next free
    /// id. `stack` is caller-provided scratch, cleared here.
    pub(crate) fn project(
        &mut self,
        source: &ViewTree,
        kept: &CsrRuns,
        root: NodeId,
        mut next: u32,
        stack: &mut Vec<(NodeId, NodeId)>,
        mut graft: impl FnMut(&mut Self, NodeId, NodeId, u32) -> u32,
    ) -> u32 {
        let vertex = source.vertex_col();
        // Nodes are numbered in expansion order; each expansion fills the
        // next ids with one node's kept children, so siblings stay one
        // contiguous id range.
        stack.clear();
        stack.push((ViewTree::ROOT, root)); // (old id, new id)
        while let Some((old, new)) = stack.pop() {
            let run = kept.run(old);
            if run.is_empty() {
                next = graft(self, old, new, next);
                continue;
            }
            let first = next;
            next += run.len() as u32;
            for (new_child, &old_child) in (first..next).zip(run) {
                let i = new_child as usize;
                self.vertex[i] = vertex[old_child as usize];
                self.parent[i] = new;
                stack.push((old_child, new_child));
            }
        }
        next
    }
}

/// The id subtree node `x` gets when the subtree is spliced onto `leaf` with
/// its non-root nodes from id `next` on. Subtree ids are topological
/// (parents first) and remap affinely: node `x ≥ 1` becomes `next + x − 1`,
/// and the subtree root is the leaf itself.
fn spliced_id(x: u32, leaf: NodeId, next: u32) -> u32 {
    if x == 0 {
        leaf
    } else {
        next + x - 1
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
    fn attached_columns_match_the_attached_tree() {
        // The two columns spliced without building the tree equal the
        // attached tree's own, node for node: no leaves, the depth-1 leaf,
        // and the three depth-2 leaves (star and singleton providers). The
        // buffers start dirty and are refilled, not appended to.
        let g = Graph::from_edges(5, &[(0, 1), (0, 2), (1, 3), (2, 4), (1, 2)]).unwrap();
        let providers = [
            ViewTree::singleton(0),
            ViewTree::star(1, &[0, 2, 3]),
            ViewTree::star(2, &[0, 1, 4]),
            ViewTree::singleton(3),
            ViewTree::singleton(4),
        ];
        let mut source = ViewTree::star(0, &[1, 2]);
        let l2 = source
            .leaves_at_depth(1)
            .find(|&x| source.vertex(x) == 2)
            .unwrap();
        source.attach(&[(l2, &providers[2])]);
        let (mut vertex, mut parent) = (vec![7; 3], vec![7; 9]);
        for targets in [vec![], leaves(&source, 1), leaves(&source, 2)] {
            let built =
                ViewTree::attached_with(&source, &targets, |leaf| &providers[source.vertex(leaf)]);
            built.assert_valid(&g);
            ViewTree::attached_columns_into(
                &source,
                &targets,
                |leaf| &providers[source.vertex(leaf)],
                &mut vertex,
                &mut parent,
            );
            assert_eq!(vertex, built.vertex_col(), "targets {targets:?}");
            assert_eq!(parent, built.parent_col(), "targets {targets:?}");
        }
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
        // The same tree built via clone-free splicing (`attached_with`) and
        // via in-place `attach` must compare equal — equality is equality of
        // the two columns — and unequal trees must not.
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
        // 4 nodes × 2 columns × 4 bytes.
        assert_eq!(t.arena_bytes(), 4 * 2 * 4);
        assert_eq!(t.num_children(ViewTree::ROOT), 3);
        assert_eq!(t.num_children(1), 0);
    }
}
