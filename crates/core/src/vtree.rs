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
//! The tree is a flat struct-of-arrays arena in **one exactly-sized heap
//! block** of `u32`s: five node columns indexed by [`NodeId`] — `vertex`,
//! `parent`, `depth`, `child_start`, `child_len`, each `len` long — followed
//! by the `len − 1` slots of the children `pool`. The children of every node
//! are one contiguous run of the pool, addressed CSR-style by
//! `(child_start, child_len)`. Every constructor knows its final node count
//! before it writes a node, so a tree costs one heap allocation whatever its
//! size, cloning is one `memcpy`, and [`ViewTree::arena_bytes`] is exactly
//! `4·(6·len − 1)` bytes. The wire content is just the `vertex` and `parent`
//! columns (depths and children runs are reconstructible from parents in
//! arena order); on the wire those two columns ship delta/varint-compressed
//! ([`ViewTree::wire_words`]) — the topological order makes `parent`
//! near-sorted, so the encoded stream is far smaller than the flat two words
//! per node.
//!
//! Invariants maintained by every constructor ([`ViewTree::star`],
//! [`ViewTree::attached_with`] and [`ViewTree::attach`], and the pruning
//! projection):
//!
//! * **Topological node order**: a parent's id is smaller than all of its
//!   children's ids, so reverse index scans are bottom-up traversals
//!   ([`ViewTree::subtree_sizes`]) and forward scans are top-down.
//! * **Contiguous sibling blocks**: the children of a node occupy one
//!   contiguous id range *and* one contiguous pool run, laid out in
//!   construction order. Linear scans over the arena therefore visit whole
//!   sibling groups in cache order — no pointer chasing.
//! * **Live pool**: every pool slot belongs to exactly one node's run; the
//!   pool holds exactly the `len − 1` non-root nodes, once each.
//!
//! Attachment never grows a block in place: it sizes the result first and
//! builds it into a fresh block (an attachment target is a leaf, whose run
//! is empty, so the source's runs copy over unchanged and the spliced runs
//! fill the pool tail). The pruning projection grafts pruned subtrees onto
//! kept leaves while it writes its result ([`ViewTree::project_csr`]), so an
//! attachment that is only pruned is never built.

use dgo_graph::Graph;

/// Index of a node within a [`ViewTree`] arena.
pub type NodeId = u32;

/// Sentinel parent for the root.
const NO_PARENT: u32 = u32::MAX;

/// Block position of each node column (in units of `len`); the pool follows
/// the last one.
const VERTEX: usize = 0;
const PARENT: usize = 1;
const DEPTH: usize = 2;
const CHILD_START: usize = 3;
const CHILD_LEN: usize = 4;
/// Number of node columns before the pool.
const NODE_COLUMNS: usize = 5;

/// Block length of a tree with `len ≥ 1` nodes: five node columns plus the
/// `len − 1` pool slots.
fn block_len(len: usize) -> usize {
    (NODE_COLUMNS + 1) * len - 1
}

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
#[derive(Clone, Eq)]
pub struct ViewTree {
    /// `vertex | parent | depth | child_start | child_len | pool`: the five
    /// node columns, `len` entries each (`parent` is `NO_PARENT` at the
    /// root), then the `len − 1` pool slots holding the concatenated
    /// children runs. Its length is always `6·len − 1`.
    block: Box<[u32]>,
}

/// Mutable views of a block's six columns, for the constructors and for
/// the grafts of a pruning projection ([`ViewTree::project_csr`]).
pub(crate) struct Columns<'a> {
    vertex: &'a mut [u32],
    parent: &'a mut [u32],
    depth: &'a mut [u32],
    child_start: &'a mut [u32],
    child_len: &'a mut [u32],
    pool: &'a mut [u32],
}

/// Trees compare by logical structure — per-node images, parents, depths, and
/// children runs — independent of where runs happen to sit in the pool, so
/// equal trees built through different operation sequences compare equal.
impl PartialEq for ViewTree {
    fn eq(&self, other: &Self) -> bool {
        let n = self.len();
        // vertex | parent | depth are the block's first three columns.
        n == other.len()
            && self.block[..CHILD_START * n] == other.block[..CHILD_START * n]
            && self.column(CHILD_LEN) == other.column(CHILD_LEN)
            && self
                .node_ids()
                .all(|x| self.children(x) == other.children(x))
    }
}

impl std::fmt::Debug for ViewTree {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ViewTree")
            .field("vertex", &self.column(VERTEX))
            .field("parent", &self.column(PARENT))
            .field("depth", &self.column(DEPTH))
            .field("child_start", &self.column(CHILD_START))
            .field("child_len", &self.column(CHILD_LEN))
            .field("pool", &self.pool())
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
            block: vec![0; block_len(len)].into_boxed_slice(),
        }
    }

    /// Node column `c` (one of the column constants), `len` entries.
    fn column(&self, c: usize) -> &[u32] {
        let n = self.len();
        &self.block[c * n..(c + 1) * n]
    }

    /// The children pool: the `len − 1` slots after the node columns.
    fn pool(&self) -> &[u32] {
        &self.block[NODE_COLUMNS * self.len()..]
    }

    /// All six columns, mutably.
    fn columns_mut(&mut self) -> Columns<'_> {
        let n = self.len();
        let (vertex, rest) = self.block.split_at_mut(n);
        let (parent, rest) = rest.split_at_mut(n);
        let (depth, rest) = rest.split_at_mut(n);
        let (child_start, rest) = rest.split_at_mut(n);
        let (child_len, pool) = rest.split_at_mut(n);
        Columns {
            vertex,
            parent,
            depth,
            child_start,
            child_len,
            pool,
        }
    }

    /// Single-node tree mapping the root to `vertex`.
    pub fn singleton(vertex: usize) -> Self {
        let mut t = ViewTree::zeroed(1);
        let c = t.columns_mut();
        c.vertex[0] = vertex as u32;
        c.parent[0] = NO_PARENT;
        t
    }

    /// Initial exponentiation view: the root maps to `vertex`, with one child
    /// per (distinct) neighbor. The leaf images are copied straight from the
    /// caller's adjacency slice — no intermediate buffers.
    pub fn star(vertex: usize, neighbors: &[u32]) -> Self {
        let deg = neighbors.len();
        let mut t = ViewTree::zeroed(deg + 1);
        let c = t.columns_mut();
        c.vertex[0] = vertex as u32;
        c.vertex[1..].copy_from_slice(neighbors);
        c.parent[0] = NO_PARENT; // the leaves' parent, 0, is the zero fill
        c.depth[1..].fill(1);
        c.child_len[0] = deg as u32;
        // Leaves: empty runs at the pool tail.
        c.child_start[1..].fill(deg as u32);
        for (slot, id) in c.pool.iter_mut().zip(1..) {
            *slot = id;
        }
        t
    }

    /// Number of tree nodes.
    pub fn len(&self) -> usize {
        (self.block.len() + 1) / (NODE_COLUMNS + 1)
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
        self.column(VERTEX)[x as usize] as usize
    }

    /// Children of node `x`: one contiguous run of the shared pool.
    pub fn children(&self, x: NodeId) -> &[u32] {
        let start = self.column(CHILD_START)[x as usize] as usize;
        &self.pool()[start..start + self.num_children(x)]
    }

    /// Number of children of node `x`, without touching the pool.
    pub fn num_children(&self, x: NodeId) -> usize {
        self.column(CHILD_LEN)[x as usize] as usize
    }

    /// Parent of node `x`, or `None` for the root.
    pub fn parent(&self, x: NodeId) -> Option<NodeId> {
        let p = self.column(PARENT)[x as usize];
        (p != NO_PARENT).then_some(p)
    }

    /// Depth of node `x` (root has depth 0).
    pub fn depth(&self, x: NodeId) -> u32 {
        self.column(DEPTH)[x as usize]
    }

    /// Ids of all nodes, root first, in topological (parents-first) order —
    /// the arena order all constructors maintain.
    pub fn node_ids(&self) -> std::ops::Range<NodeId> {
        0..self.len() as u32
    }

    /// Leaves (childless nodes) whose depth is exactly `d`, in id order, as a
    /// borrowing iterator — one linear scan over two arena columns, no
    /// allocation. Collect into a reusable buffer when a materialized list is
    /// needed.
    pub fn leaves_at_depth(&self, d: u32) -> impl Iterator<Item = NodeId> + '_ {
        self.column(DEPTH)
            .iter()
            .zip(self.column(CHILD_LEN))
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
        graph.degree(self.vertex(x)) - self.num_children(x)
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
    /// arena (topological) order. Crate-internal raw view for the wire size
    /// and the branch-light stage kernels.
    pub(crate) fn vertex_col(&self) -> &[u32] {
        self.column(VERTEX)
    }

    /// The `parent` column in arena order (`NO_PARENT` at index 0).
    /// Topological order makes every entry past the root smaller than its
    /// index — the near-sorted shape the delta codec exploits.
    pub(crate) fn parent_col(&self) -> &[u32] {
        self.column(PARENT)
    }

    /// The CSR children structure `(child_start, child_len, pool)` as raw
    /// columns, for kernels that scan whole sibling groups without the
    /// per-node [`ViewTree::children`] slice construction.
    pub(crate) fn child_cols(&self) -> (&[u32], &[u32], &[u32]) {
        (
            self.column(CHILD_START),
            self.column(CHILD_LEN),
            self.pool(),
        )
    }

    /// Words this tree costs on the wire under the *flat* model: two per node
    /// (vertex image + parent pointer — the `vertex` and `parent` columns
    /// verbatim; depths and children runs are reconstructible from parents in
    /// arena order). The baseline [`ViewTree::wire_words`] is compared
    /// against.
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
    /// deterministic across allocator behavior): five `u32` columns per node
    /// plus one `u32` pool slot per child — the whole block, `20·len +
    /// 4·(len − 1)`.
    pub fn arena_bytes(&self) -> usize {
        std::mem::size_of::<u32>() * self.block.len()
    }

    /// The summed [`arena_bytes`](ViewTree::arena_bytes) of `trees` trees
    /// with `nodes` nodes altogether: the figure is affine in the node
    /// count, so it depends on the two totals alone.
    pub(crate) fn arena_bytes_of(nodes: usize, trees: usize) -> usize {
        std::mem::size_of::<u32>() * ((NODE_COLUMNS + 1) * nodes - trees)
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
    /// block, `source` copied column by column, then every replacement
    /// spliced in order.
    fn attached<'t, I>(source: &ViewTree, replacements: I) -> Self
    where
        I: Iterator<Item = (NodeId, &'t ViewTree)> + Clone,
    {
        let n = source.len();
        let grown: usize = replacements.clone().map(|(_, t)| t.len() - 1).sum();
        let mut out = ViewTree::zeroed(n + grown);
        let mut c = out.columns_mut();
        for (dst, c_id) in [
            (&mut *c.vertex, VERTEX),
            (&mut *c.parent, PARENT),
            (&mut *c.depth, DEPTH),
            (&mut *c.child_start, CHILD_START),
            (&mut *c.child_len, CHILD_LEN),
        ] {
            dst[..n].copy_from_slice(source.column(c_id));
        }
        c.pool[..n - 1].copy_from_slice(source.pool());
        let mut next = n as u32;
        for (leaf, subtree) in replacements {
            next = c.splice(next, leaf, subtree);
        }
        debug_assert_eq!(next as usize, n + grown, "sizing pass and splices disagree");
        out
    }

    /// The `vertex` and `parent` columns of
    /// [`ViewTree::attached_with`]`(source, leaves, provider)`, written into
    /// `vertex` and `parent` (cleared and refilled) without building the
    /// tree: same node order, same remapped parents. These are the only
    /// columns Algorithm 3 reads, so a last attachment that only gets peeled
    /// fills these two reusable buffers instead of allocating a tree.
    pub(crate) fn attached_columns_into<'t, F>(
        source: &ViewTree,
        leaves: &[NodeId],
        provider: F,
        vertex: &mut Vec<u32>,
        parent: &mut Vec<u32>,
    ) where
        F: Fn(NodeId) -> &'t ViewTree,
    {
        vertex.clear();
        parent.clear();
        vertex.extend_from_slice(source.vertex_col());
        parent.extend_from_slice(source.parent_col());
        for &leaf in leaves {
            let subtree = provider(leaf);
            let next = vertex.len() as u32;
            vertex.extend_from_slice(&subtree.vertex_col()[1..]);
            parent.extend(
                subtree.parent_col()[1..]
                    .iter()
                    .map(|&p| spliced_id(p, leaf, next)),
            );
        }
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
    /// invariants (parent/child symmetry, depths, topological order, live
    /// pool). Intended for tests.
    ///
    /// # Panics
    ///
    /// Panics with a description of the first violated invariant.
    pub fn assert_valid(&self, graph: &Graph) {
        assert!(!self.is_empty(), "tree must have a root");
        assert_eq!(
            self.block.len(),
            block_len(self.len()),
            "the block holds five node columns and the pool"
        );
        assert_eq!(self.column(PARENT)[0], NO_PARENT, "root has no parent");
        assert_eq!(self.depth(ViewTree::ROOT), 0, "root depth is 0");
        let total_children: usize = self.column(CHILD_LEN).iter().map(|&c| c as usize).sum();
        assert_eq!(
            total_children,
            self.len() - 1,
            "every non-root node is exactly one parent's child"
        );
        assert_eq!(
            self.pool().len(),
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
                assert_eq!(self.parent(c), Some(x), "parent/child symmetry at {c}");
                assert_eq!(self.depth(c), self.depth(x) + 1, "depth bookkeeping at {c}");
                assert!(
                    graph.has_edge(self.vertex(x), self.vertex(c)),
                    "tree edge ({}, {}) maps to a non-edge ({}, {})",
                    x,
                    c,
                    self.vertex(x),
                    self.vertex(c)
                );
                images.push(self.vertex(c) as u32);
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

impl Columns<'_> {
    /// Splices `subtree` onto `leaf` (which is the copy of the subtree's
    /// root: same image, same parent edge), writing the subtree's non-root
    /// nodes at ids `next..` in arena order and their runs at the pool tail
    /// (`next − 1`), then points the leaf at the remapped run of the subtree
    /// root. Returns the next free node id. No pool slot goes dead: the
    /// leaf's run was empty.
    fn splice(&mut self, next: u32, leaf: NodeId, subtree: &ViewTree) -> u32 {
        debug_assert_eq!(
            self.child_len[leaf as usize], 0,
            "attachment target {leaf} is not a leaf"
        );
        debug_assert_eq!(
            self.vertex[leaf as usize] as usize,
            subtree.root_vertex(),
            "replacement root must map to the leaf's vertex (Def 2.5)"
        );
        let base = next as usize;
        let added = subtree.len() - 1;
        let base_depth = self.depth[leaf as usize];
        // Children are never the subtree root, so pool entries remap
        // without the root case.
        let remap = |x: u32| spliced_id(x, leaf, next);
        self.vertex[base..base + added].copy_from_slice(&subtree.vertex_col()[1..]);
        let parents = &subtree.parent_col()[1..];
        let depths = &subtree.column(DEPTH)[1..];
        for (i, (&p, &d)) in parents.iter().zip(depths).enumerate() {
            self.parent[base + i] = remap(p);
            self.depth[base + i] = base_depth + d;
        }
        // Children runs, in subtree node order: the root's run lands on the
        // leaf, every other node gets a fresh run at the pool tail.
        let (starts, lens, pool) = subtree.child_cols();
        let mut tail = base - 1;
        for (x, (&start, &len)) in (0..).zip(starts.iter().zip(lens)) {
            let id = remap(x) as usize;
            let run = &pool[start as usize..(start + len) as usize];
            self.child_start[id] = tail as u32;
            self.child_len[id] = len;
            for (slot, &child) in self.pool[tail..tail + run.len()].iter_mut().zip(run) {
                *slot = next + child - 1;
            }
            tail += run.len();
        }
        next + added as u32
    }

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
        // next ids and the matching pool slots, so the pool tail is always
        // one behind the node count.
        stack.clear();
        stack.push((ViewTree::ROOT, root)); // (old id, new id)
        while let Some((old, new)) = stack.pop() {
            let run = kept.run(old);
            if run.is_empty() {
                next = graft(self, old, new, next);
                continue;
            }
            let depth = self.depth[new as usize] + 1;
            let first = next;
            next += run.len() as u32;
            self.child_start[new as usize] = first - 1;
            self.child_len[new as usize] = run.len() as u32;
            for (new_child, &old_child) in (first..next).zip(run) {
                let i = new_child as usize;
                self.pool[i - 1] = new_child;
                self.vertex[i] = vertex[old_child as usize];
                self.parent[i] = new;
                self.depth[i] = depth;
                // Leaves: empty runs at the pool tail.
                self.child_start[i] = next - 1;
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
}
