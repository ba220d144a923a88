//! Vertex-parallel stage engine: data-parallel per-vertex map stages inside
//! one MPC instance.
//!
//! Every per-vertex loop of Algorithms 1–4 — `LocalPrune` over all trees, the
//! exponentiation attachment step, the per-tree peeling of Algorithm 3,
//! Algorithm 4's proposal collection, the per-layer path counts — applies an
//! *independent* local computation to each vertex and then combines results
//! synchronously. The simulator meters those steps as constant-round MPC
//! primitives, but until this module existed it *executed* them as
//! host-sequential `for v in 0..n` loops.
//!
//! [`StageExecutor`] turns each such loop into a data-parallel stage over the
//! host threads budgeted by [`Params::jobs`](crate::Params::jobs):
//!
//! * the per-vertex closure is **pure over a read-only snapshot** (typically
//!   `&[ViewTree]` and `&Graph`) — it never mutates shared state;
//! * outputs land in **index-ordered per-vertex slots**
//!   ([`StageExecutor::map`]), so the collected result is the exact vector
//!   the sequential loop would have produced;
//! * metering totals (communication words, loads) are computed as a
//!   **deterministic parallel reduction** ([`StageExecutor::sum_by`]) and
//!   charged once on the backend by the caller;
//! * outputs of varying length per vertex (attachment plans, Algorithm 3
//!   proposals) go into **one flat buffer per chunk**, concatenated in chunk
//!   order ([`StageExecutor::map_chunks`]), not one heap buffer per vertex.
//!
//! Chunk boundaries depend only on `(len, threads)` and per-chunk results are
//! combined in index order, so stage outputs — and therefore trees, layers,
//! colors, and metrics — are **bit-identical at any thread count**. The
//! `tests/stage_parallel.rs` suite is the conformance bar, mirroring
//! `tests/instance_parallel.rs` for the instance tier.
//!
//! This is the second of the workspace's two parallelism tiers: instance
//! fan-out (`dgo_mpc::InstanceGroup`), then vertex stages inside each
//! instance. Both draw on the one [`Params::jobs`](crate::Params::jobs)
//! budget: outer instance fan-outs subdivide it via
//! [`dgo_mpc::split_jobs`] instead of oversubscribing the host. A stage that
//! fans out forks one scoped thread per chunk beyond the first, which runs
//! on the calling thread (`rayon::fork_join`), and joins them before it
//! returns; a panic in any chunk reaches the caller with its original
//! payload, the lowest chunk's first.
//!
//! ```
//! use dgo_core::stage::StageExecutor;
//!
//! let stage = StageExecutor::new(4);
//! let squares = stage.map_indices(8, |v| (v * v) as u64);
//! assert_eq!(squares, vec![0, 1, 4, 9, 16, 25, 36, 49]);
//! assert_eq!(stage.sum_by(&squares, |_, &s| s as usize), 140);
//! ```

use dgo_mpc::resolve_jobs;

/// Minimum number of items before a stage fans out to other threads; smaller
/// stages run inline on the calling thread.
const INLINE_THRESHOLD: usize = 1024;

/// Executes index-ordered data-parallel map stages over a fixed host-thread
/// budget.
///
/// Cheap to construct (one resolved integer) and freely shareable by
/// reference; a budget of `1` runs every stage inline, which is exactly the
/// sequential loop the engine replaced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StageExecutor {
    threads: usize,
}

impl StageExecutor {
    /// Creates an executor running stages on up to `jobs` host threads
    /// (`0` = all available cores, as for [`Params::jobs`](crate::Params::jobs)).
    pub fn new(jobs: usize) -> Self {
        StageExecutor {
            threads: resolve_jobs(jobs).max(1),
        }
    }

    /// The inline executor: every stage runs on the calling thread. This is
    /// the reference behavior all thread counts must reproduce bit-exactly.
    pub fn sequential() -> Self {
        StageExecutor { threads: 1 }
    }

    /// The resolved host-thread budget.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// The thread count a stage over `len` items actually fans to: the full
    /// budget, or 1 below the inline floor ([`INLINE_THRESHOLD`] — trivially
    /// small stages, a residency sizing pass, a near-empty peel layer, cost
    /// more to schedule than to run). The floor depends only on the item
    /// count, so outputs stay bit-identical (inline == one chunk).
    fn threads_for(&self, len: usize) -> usize {
        if len < INLINE_THRESHOLD {
            1
        } else {
            self.threads
        }
    }

    /// Maps `f(index, &item)` over `items` in parallel, collecting outputs in
    /// index order: `result[i] == f(i, &items[i])`. `f` must be pure over its
    /// inputs — the engine guarantees nothing about execution order across
    /// indices, only about output placement.
    pub fn map<T, R, F>(&self, items: &[T], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(usize, &T) -> R + Sync,
    {
        rayon::chunk_map_collect(items, self.threads_for(items.len()), f)
    }

    /// [`StageExecutor::map`] with per-worker scratch: each parallel chunk
    /// calls `init()` once and passes the scratch mutably to every `f` call
    /// in that chunk. This is the tier-2 scratch-reuse contract of the
    /// Algorithm 1/3 hot loops: `f` must fully (re)initialize whatever
    /// scratch state it reads, so outputs are independent of how chunks
    /// share a scratch — the scratch only recycles allocations, and results
    /// stay bit-identical at any thread count.
    pub fn map_with<T, S, R, I, F>(&self, items: &[T], init: I, f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        I: Fn() -> S + Sync,
        F: Fn(&mut S, usize, &T) -> R + Sync,
    {
        rayon::chunk_map_collect_with(items, self.threads_for(items.len()), init, f)
    }

    /// [`StageExecutor::map`] into a caller-provided buffer: `out` is cleared
    /// and refilled with `out[i] = f(i, &items[i])`, reusing its capacity —
    /// for per-round stages (e.g. the per-layer path counts) that would
    /// otherwise allocate a fresh result vector every round.
    pub fn map_into<T, R, F>(&self, items: &[T], out: &mut Vec<R>, f: F)
    where
        T: Sync,
        R: Send + Default,
        F: Fn(usize, &T) -> R + Sync,
    {
        rayon::chunk_map_fill(items, self.threads_for(items.len()), out, f);
    }

    /// Maps `f(v)` over `0..n` (the vertex-id form of [`StageExecutor::map`]),
    /// collecting outputs in vertex order.
    pub fn map_indices<R, F>(&self, n: usize, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(usize) -> R + Sync,
    {
        rayon::chunk_map_collect_range(n, self.threads_for(n), f)
    }

    /// Sums `f(index, &item)` over `items` as a parallel reduction. Integer
    /// addition is associative, and chunks fold left-to-right, so the total
    /// is exact (not merely approximately equal) at any thread count — which
    /// is what lets callers charge precomputed metering words once on the
    /// backend.
    pub fn sum_by<T, F>(&self, items: &[T], f: F) -> usize
    where
        T: Sync,
        F: Fn(usize, &T) -> usize + Sync,
    {
        self.map_chunks(
            items,
            |offset, chunk| {
                chunk
                    .iter()
                    .enumerate()
                    .map(|(i, item)| f(offset + i, item))
                    .sum()
            },
            |a, b| a + b,
        )
    }

    /// Maps `f(offset, chunk)` over the contiguous chunks a stage splits
    /// `items` into (`offset` is the index of the chunk's first item) and
    /// folds the per-chunk results left to right with `combine`; an empty
    /// `items` is one empty chunk, `f(0, &[])`.
    ///
    /// This is the stage form for per-item outputs of varying length: each
    /// chunk appends its items' outputs to one flat buffer instead of
    /// allocating a buffer per item, and `combine` concatenates the buffers
    /// in chunk order. Whenever `combine(f(0, a), f(a.len(), b))` equals
    /// `f(0, ab)` for adjacent chunks `a` and `b` (concatenation, exact
    /// sums), the result is the inline one at any thread count.
    pub fn map_chunks<T, R, F, C>(&self, items: &[T], f: F, combine: C) -> R
    where
        T: Sync,
        R: Send,
        F: Fn(usize, &[T]) -> R + Sync,
        C: Fn(R, R) -> R,
    {
        rayon::chunk_map_reduce(items, self.threads_for(items.len()), &f, combine)
            .unwrap_or_else(|| f(0, items))
    }
}

impl Default for StageExecutor {
    /// The sequential executor — stages are opt-in parallel.
    fn default() -> Self {
        StageExecutor::sequential()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_is_index_ordered_at_any_thread_count() {
        // Above the inline floor so jobs > 1 genuinely fans out.
        let items: Vec<u32> = (0..5_000).rev().collect();
        let reference = StageExecutor::sequential().map(&items, |i, &v| (i as u32, v * 2));
        for jobs in [2usize, 3, 8, 0] {
            let stage = StageExecutor::new(jobs);
            assert_eq!(
                stage.map(&items, |i, &v| (i as u32, v * 2)),
                reference,
                "jobs = {jobs}"
            );
        }
    }

    #[test]
    fn map_indices_matches_map_over_ids() {
        let stage = StageExecutor::new(3);
        assert_eq!(stage.map_indices(5, |v| v * 10), vec![0, 10, 20, 30, 40]);
        assert!(stage.map_indices(0, |v| v).is_empty());
        // Parallel path (above the floor) matches the inline reference.
        let n = 6_000;
        let reference = StageExecutor::sequential().map_indices(n, |v| v * 7);
        assert_eq!(stage.map_indices(n, |v| v * 7), reference);
    }

    #[test]
    fn map_with_matches_map_at_any_thread_count() {
        let items: Vec<u32> = (0..5_000).collect();
        let reference = StageExecutor::sequential().map(&items, |i, &v| v as u64 * i as u64);
        for jobs in [1usize, 2, 8, 0] {
            let stage = StageExecutor::new(jobs);
            let got = stage.map_with(&items, Vec::<u64>::new, |scratch, i, &v| {
                scratch.clear(); // scratch must be re-initialized per item
                scratch.push(v as u64 * i as u64);
                scratch[0]
            });
            assert_eq!(got, reference, "jobs = {jobs}");
        }
    }

    #[test]
    fn map_into_reuses_buffer_and_matches_map() {
        let items: Vec<u32> = (0..4_000).collect();
        let reference = StageExecutor::sequential().map(&items, |_, &v| v as u64 + 3);
        let mut out: Vec<u64> = Vec::new();
        for jobs in [1usize, 2, 8, 0] {
            let stage = StageExecutor::new(jobs);
            stage.map_into(&items, &mut out, |_, &v| v as u64 + 3);
            assert_eq!(out, reference, "jobs = {jobs}");
        }
        let capacity = out.capacity();
        StageExecutor::sequential().map_into(&items[..10], &mut out, |_, &v| v as u64);
        assert_eq!(out.len(), 10);
        assert_eq!(out.capacity(), capacity);
    }

    #[test]
    fn sum_by_is_exact_reduction() {
        let items: Vec<usize> = (0..10_000).collect();
        let expected: usize = items.iter().map(|&v| 2 * v + 1).sum();
        for jobs in [1usize, 2, 7, 0] {
            let stage = StageExecutor::new(jobs);
            assert_eq!(stage.sum_by(&items, |_, &v| 2 * v + 1), expected);
        }
        assert_eq!(StageExecutor::new(4).sum_by(&[] as &[usize], |_, &v| v), 0);
    }

    #[test]
    fn map_chunks_concatenates_flat_outputs_at_any_thread_count() {
        // Item i emits i % 4 copies of itself; per-item end offsets rebase
        // when chunks concatenate. Above the inline floor, so jobs > 1 fans
        // out.
        let items: Vec<u32> = (0..5_000).collect();
        let flat = |offset: usize, chunk: &[u32]| {
            let mut out = (Vec::new(), Vec::new());
            for (i, &v) in chunk.iter().enumerate() {
                out.0.extend(std::iter::repeat_n(v, (offset + i) % 4));
                out.1.push(out.0.len());
            }
            out
        };
        let concat = |mut a: (Vec<u32>, Vec<usize>), b: (Vec<u32>, Vec<usize>)| {
            let base = a.0.len();
            a.0.extend(b.0);
            a.1.extend(b.1.iter().map(|&end| base + end));
            a
        };
        let reference = flat(0, &items);
        for jobs in [1usize, 2, 3, 8, 0] {
            let stage = StageExecutor::new(jobs);
            assert_eq!(
                stage.map_chunks(&items, flat, concat),
                reference,
                "jobs = {jobs}"
            );
        }
        // Items 0..=5 emit 0, 1, 2, 3, 0 and 1 copies.
        assert_eq!(reference.1[5], 7);
        // An empty input is one empty chunk.
        let empty = StageExecutor::new(4).map_chunks(&[] as &[u32], flat, concat);
        assert_eq!(empty, (Vec::new(), Vec::new()));
    }

    #[test]
    fn small_stages_run_inline() {
        // Below the floor the executor must not spawn (observable only as
        // identical output here; the floor itself is the contract).
        let items: Vec<usize> = (0..10).collect();
        let stage = StageExecutor::new(8);
        assert_eq!(stage.threads_for(items.len()), 1);
        assert_eq!(
            stage.map(&items, |_, &v| v + 1),
            (1..=10).collect::<Vec<_>>()
        );
        assert_eq!(stage.threads_for(INLINE_THRESHOLD), 8);
    }

    #[test]
    fn outputs_identical_across_inline_cutoff() {
        // One item on either side of the inline floor: the inline and
        // fanned-out paths must produce identical outputs.
        let stage = StageExecutor::new(4);
        for len in [INLINE_THRESHOLD - 1, INLINE_THRESHOLD, INLINE_THRESHOLD + 1] {
            let items: Vec<u64> = (0..len as u64).rev().collect();
            let reference = StageExecutor::sequential().map(&items, |i, &v| v * 5 + i as u64);
            assert_eq!(
                stage.map(&items, |i, &v| v * 5 + i as u64),
                reference,
                "len = {len}"
            );
            assert_eq!(
                stage.sum_by(&items, |i, &v| (v as usize) ^ i),
                StageExecutor::sequential().sum_by(&items, |i, &v| (v as usize) ^ i),
                "len = {len}"
            );
        }
    }

    #[test]
    fn zero_resolves_to_all_cores() {
        assert!(StageExecutor::new(0).threads() >= 1);
        assert_eq!(StageExecutor::new(5).threads(), 5);
        assert_eq!(StageExecutor::sequential().threads(), 1);
        assert_eq!(StageExecutor::default(), StageExecutor::sequential());
    }
}
