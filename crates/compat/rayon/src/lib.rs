//! Vendored stand-in for `rayon` (offline build): fork-join on
//! `std::thread::scope`.
//!
//! Provides the subset the workspace's parallel execution substrate uses —
//! [`current_num_threads`], the fork-join primitive [`fork_join`], and the
//! slice helpers built on it: [`chunk_map_reduce`] / [`chunk_map_collect`] /
//! [`chunk_map_collect_with`] / [`chunk_map_collect_range`] /
//! [`chunk_map_fill`]. The helper signatures mirror the real crate where they
//! overlap, so swapping crates-io `rayon` back in only requires replacing
//! `chunk_map_reduce` call sites with `par_chunks().map().reduce(...)` and
//! `chunk_map_collect` call sites with `par_iter().enumerate().map().collect()`.
//!
//! # Fork-join
//!
//! [`fork_join`] runs its first item on the calling thread and every other
//! item on its own scoped thread, then joins them all, so tasks may borrow the
//! caller's data. A panicking task is re-thrown in the caller with its
//! original payload; when several panic, the lowest-index one wins, whatever
//! order they finished in. Threads are spawned per call: there is no
//! persistent pool, no task queue and no `unsafe`. Nested use (an instance
//! fan-out whose instances run vertex-stage maps) nests scopes, and
//! `dgo_mpc::split_jobs` keeps the two tiers' threads within one budget.
//!
//! **Determinism contract:** chunk boundaries of the `chunk_map_*` helpers
//! depend only on `(items.len(), threads)`, outputs are collected by index,
//! and per-chunk reductions fold left-to-right in chunk order — identical
//! results at any thread count and any schedule.

#![forbid(unsafe_code)]

use std::num::NonZeroUsize;
use std::panic;
use std::sync::OnceLock;
use std::thread;

/// Number of threads parallel operations fan out to when asked for "all
/// cores": the machine's available parallelism, read once per process.
pub fn current_num_threads() -> usize {
    static THREADS: OnceLock<usize> = OnceLock::new();
    *THREADS.get_or_init(|| {
        thread::available_parallelism()
            .map(NonZeroUsize::get)
            .unwrap_or(1)
    })
}

/// Runs `task` on every item and returns the results in item order.
///
/// Item 0 runs on the calling thread and every other item on its own scoped
/// thread, so `task` may borrow from the caller; every thread is joined
/// before this returns. If tasks panic, the panic of the lowest-index one is
/// re-thrown with its original payload once all threads have finished. This
/// is the crate's one thread-creation site.
pub fn fork_join<I, R, F>(items: I, task: F) -> Vec<R>
where
    I: IntoIterator,
    I::Item: Send,
    R: Send,
    F: Fn(I::Item) -> R + Sync,
{
    let mut items = items.into_iter();
    let Some(first) = items.next() else {
        return Vec::new();
    };
    let task = &task;
    thread::scope(|s| {
        let handles: Vec<_> = items.map(|item| s.spawn(move || task(item))).collect();
        // A panic of item 0 unwinds out of the scope, which joins every
        // thread first and then re-throws this lowest-index payload.
        let mut results = Vec::with_capacity(1 + handles.len());
        results.push(task(first));
        // Joining in index order claims each payload; the first one found is
        // re-thrown, again only after the scope has joined the rest.
        for handle in handles {
            results.push(handle.join().unwrap_or_else(|p| panic::resume_unwind(p)));
        }
        results
    })
}

/// The deterministic chunk split shared by every `chunk_map_*` helper:
/// `threads` is clamped to `[1, len]` and chunks are `⌈len/threads⌉`-sized,
/// so boundaries depend only on `(len, threads)`.
fn chunk_len(len: usize, threads: usize) -> usize {
    len.div_ceil(threads.max(1).min(len))
}

/// Concatenates per-chunk outputs in chunk order.
fn concat<R>(parts: Vec<Vec<R>>, len: usize) -> Vec<R> {
    let mut out = Vec::with_capacity(len);
    for part in parts {
        out.extend(part);
    }
    out
}

/// Maps `map` over near-equal contiguous chunks of `items` in parallel (one
/// [`fork_join`] task per chunk) and folds the per-chunk results
/// left-to-right with `reduce`. Chunk boundaries are deterministic in
/// `(items.len(), threads)`, and the left-to-right fold keeps the result
/// order-deterministic, so callers get identical outputs for identical
/// inputs regardless of scheduling.
///
/// Stand-in for `items.par_chunks(n).map(map).reduce(...)`; falls back to a
/// single inline call when `items` is small or one thread is requested.
pub fn chunk_map_reduce<T, R, M, F>(items: &[T], threads: usize, map: M, reduce: F) -> Option<R>
where
    T: Sync,
    R: Send,
    M: Fn(usize, &[T]) -> R + Sync,
    F: Fn(R, R) -> R,
{
    if items.is_empty() {
        return None;
    }
    let chunk = chunk_len(items.len(), threads);
    if chunk == items.len() {
        return Some(map(0, items));
    }
    fork_join(items.chunks(chunk).enumerate(), |(t, part)| {
        map(t * chunk, part)
    })
    .into_iter()
    .reduce(reduce)
}

/// Maps `map` over near-equal contiguous chunks of `items` in parallel (one
/// [`fork_join`] task per chunk) and concatenates the per-chunk outputs in
/// chunk order, so `result[i]` is `map`'s output for `items[i]`. The chunk
/// boundaries are the same deterministic split as [`chunk_map_reduce`], and
/// outputs are collected by index, so the result is identical at any thread
/// count.
///
/// Stand-in for `items.par_iter().enumerate().map(map).collect()`; falls back
/// to a single inline pass when one thread suffices.
///
/// The scratch-free special case of [`chunk_map_collect_with`] — one
/// implementation of the chunk split, so the "identical chunk boundaries"
/// determinism contract between the two can never diverge.
pub fn chunk_map_collect<T, R, M>(items: &[T], threads: usize, map: M) -> Vec<R>
where
    T: Sync,
    R: Send,
    M: Fn(usize, &T) -> R + Sync,
{
    chunk_map_collect_with(items, threads, || (), |(), i, item| map(i, item))
}

/// [`chunk_map_collect`] with per-chunk scratch: each chunk task calls
/// `init()` once and threads the scratch mutably through its items. The
/// chunk split and index-ordered collection are identical to
/// [`chunk_map_collect`], so results are the same at any thread count
/// provided `map` is pure given a fresh-or-reset scratch (the scratch is an
/// allocation-reuse optimization, never a communication channel). Stand-in
/// for `items.par_iter().enumerate().map_init(init, map).collect()`.
pub fn chunk_map_collect_with<T, S, R, I, M>(items: &[T], threads: usize, init: I, map: M) -> Vec<R>
where
    T: Sync,
    R: Send,
    I: Fn() -> S + Sync,
    M: Fn(&mut S, usize, &T) -> R + Sync,
{
    let run_chunk = |offset: usize, slice: &[T]| -> Vec<R> {
        let mut scratch = init();
        slice
            .iter()
            .enumerate()
            .map(|(i, item)| map(&mut scratch, offset + i, item))
            .collect()
    };
    if items.is_empty() {
        return Vec::new();
    }
    let chunk = chunk_len(items.len(), threads);
    if chunk == items.len() {
        return run_chunk(0, items);
    }
    let parts = fork_join(items.chunks(chunk).enumerate(), |(t, part)| {
        run_chunk(t * chunk, part)
    });
    concat(parts, items.len())
}

/// [`chunk_map_collect`] writing into a caller-provided buffer instead of
/// returning a fresh `Vec`: `out` is cleared, resized to `items.len()`, and
/// `out[i] = map(i, &items[i])` with the same deterministic chunk split —
/// each chunk task fills its own `out.chunks_mut` slice, so no intermediate
/// per-chunk vectors are allocated and the buffer's capacity is reused across
/// calls. Stand-in for collecting a `par_iter` into a recycled buffer.
pub fn chunk_map_fill<T, R, M>(items: &[T], threads: usize, out: &mut Vec<R>, map: M)
where
    T: Sync,
    R: Send + Default,
    M: Fn(usize, &T) -> R + Sync,
{
    out.clear();
    out.resize_with(items.len(), R::default);
    if items.is_empty() {
        return;
    }
    let fill = |offset: usize, dst: &mut [R], src: &[T]| {
        for (i, (slot, item)) in dst.iter_mut().zip(src).enumerate() {
            *slot = map(offset + i, item);
        }
    };
    let chunk = chunk_len(items.len(), threads);
    if chunk == items.len() {
        fill(0, out, items);
        return;
    }
    let parts = out.chunks_mut(chunk).zip(items.chunks(chunk)).enumerate();
    fork_join(parts, |(t, (dst, src))| fill(t * chunk, dst, src));
}

/// [`chunk_map_collect`] over the index range `0..n` instead of a slice:
/// `result[i] == map(i)`, with the same deterministic chunk split and
/// index-ordered collection, but no materialized input. Stand-in for
/// `(0..n).into_par_iter().map(map).collect()`.
pub fn chunk_map_collect_range<R, M>(n: usize, threads: usize, map: M) -> Vec<R>
where
    R: Send,
    M: Fn(usize) -> R + Sync,
{
    if n == 0 {
        return Vec::new();
    }
    let chunk = chunk_len(n, threads);
    if chunk == n {
        return (0..n).map(map).collect();
    }
    let parts = fork_join((0..n).step_by(chunk), |start| {
        (start..(start + chunk).min(n)).map(&map).collect()
    });
    concat(parts, n)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::AssertUnwindSafe;
    use std::sync::{mpsc, Mutex};
    use std::time::Duration;

    /// How long a test thread waits for a sibling's signal before giving
    /// up, so a broken fork-join fails the test instead of hanging it.
    const WAIT: Duration = Duration::from_secs(10);

    #[test]
    fn fork_join_returns_results_in_item_order() {
        // Tasks borrow the caller's data; item 0 runs on the caller.
        let data = [1u64, 2, 3, 4, 5];
        let caller = thread::current().id();
        let out = fork_join(data.chunks(2), |part| {
            (part.iter().sum::<u64>(), thread::current().id())
        });
        let sums: Vec<u64> = out.iter().map(|&(sum, _)| sum).collect();
        assert_eq!(sums, vec![3, 7, 5]);
        assert_eq!(out[0].1, caller, "item 0 runs on the calling thread");
        assert!(out[1..].iter().all(|&(_, id)| id != caller));
        assert!(fork_join(Vec::<u8>::new(), |b| b).is_empty());
    }

    #[test]
    fn chunk_map_reduce_matches_sequential() {
        let items: Vec<u64> = (0..10_000).collect();
        for threads in [1, 2, 3, 8, 64] {
            let sum = chunk_map_reduce(
                &items,
                threads,
                |_, chunk| chunk.iter().sum::<u64>(),
                |a, b| a + b,
            );
            assert_eq!(sum, Some(items.iter().sum()));
        }
    }

    #[test]
    fn chunk_map_reduce_offsets_are_global() {
        let items: Vec<u64> = (0..1000).collect();
        // Each chunk checks its own global offset alignment.
        let ok = chunk_map_reduce(
            &items,
            7,
            |offset, chunk| {
                chunk
                    .iter()
                    .enumerate()
                    .all(|(i, &v)| v == (offset + i) as u64)
            },
            |a, b| a && b,
        );
        assert_eq!(ok, Some(true));
    }

    #[test]
    fn chunk_map_collect_is_index_ordered() {
        let items: Vec<u64> = (0..5_000).collect();
        let expected: Vec<u64> = items.iter().map(|&v| v * 3 + 1).collect();
        for threads in [1, 2, 3, 8, 64] {
            let got = chunk_map_collect(&items, threads, |i, &v| {
                assert_eq!(i as u64, v, "global index must match item");
                v * 3 + 1
            });
            assert_eq!(got, expected, "threads = {threads}");
        }
    }

    #[test]
    fn chunk_map_collect_with_reuses_scratch_per_chunk() {
        let items: Vec<u64> = (0..5_000).collect();
        let expected: Vec<u64> = items.iter().map(|&v| v * 2).collect();
        for threads in [1, 2, 3, 8] {
            // The scratch is reset per item by the closure; outputs must be
            // independent of how chunks share it.
            let got = chunk_map_collect_with(&items, threads, Vec::<u64>::new, |scratch, i, &v| {
                scratch.clear();
                scratch.push(v);
                assert_eq!(i as u64, v);
                scratch[0] * 2
            });
            assert_eq!(got, expected, "threads = {threads}");
        }
    }

    #[test]
    fn chunk_map_fill_matches_collect_and_reuses_buffer() {
        let items: Vec<u64> = (0..3_000).collect();
        let expected: Vec<u64> = items.iter().map(|&v| v + 7).collect();
        let mut out: Vec<u64> = Vec::new();
        for threads in [1, 2, 5, 16] {
            chunk_map_fill(&items, threads, &mut out, |_, &v| v + 7);
            assert_eq!(out, expected, "threads = {threads}");
        }
        let capacity = out.capacity();
        chunk_map_fill(&items[..100], 4, &mut out, |_, &v| v);
        assert_eq!(out.len(), 100);
        assert_eq!(out.capacity(), capacity, "buffer must be reused");
        chunk_map_fill(&[] as &[u64], 4, &mut out, |_, &v| v);
        assert!(out.is_empty());
    }

    #[test]
    fn chunk_map_collect_empty_is_empty() {
        let out: Vec<u8> = chunk_map_collect(&[] as &[u8], 4, |_, &b| b);
        assert!(out.is_empty());
    }

    #[test]
    fn chunk_map_collect_range_matches_slice_form() {
        let items: Vec<usize> = (0..4_321).collect();
        for threads in [1, 2, 5, 16] {
            let via_slice = chunk_map_collect(&items, threads, |i, &v| i * 2 + v);
            let via_range = chunk_map_collect_range(items.len(), threads, |i| i * 3);
            assert_eq!(via_slice, via_range, "threads = {threads}");
        }
        assert!(chunk_map_collect_range(0, 4, |i| i).is_empty());
    }

    #[test]
    fn empty_input_is_none() {
        let none = chunk_map_reduce(&[] as &[u8], 4, |_, _| 0u32, |a, b| a + b);
        assert_eq!(none, None);
    }

    #[test]
    fn threads_reported_positive() {
        assert!(current_num_threads() >= 1);
    }

    #[test]
    fn panic_in_chunk_task_propagates() {
        let items: Vec<u64> = (0..2_000).collect();
        let caught = panic::catch_unwind(AssertUnwindSafe(|| {
            chunk_map_collect(&items, 8, |i, &v| {
                if i == 1_234 {
                    panic!("chunk task panic at {i}");
                }
                v
            })
        }));
        let payload = caught.expect_err("panic must propagate");
        let msg = payload
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_default();
        assert!(msg.contains("chunk task panic"), "got: {msg}");
    }

    /// Sends on its channel when dropped, so a waiting thread learns that
    /// the owner has started unwinding from its panic.
    struct SignalOnDrop(mpsc::Sender<()>);

    impl Drop for SignalOnDrop {
        fn drop(&mut self) {
            let _ = self.0.send(());
        }
    }

    #[test]
    fn earliest_spawned_panic_wins_at_scope_end() {
        // Items 1 and 3 panic; item 1 (spawned first) waits until item 3 is
        // unwinding, yet its payload is the one re-thrown once every thread
        // has joined.
        let (tx, rx) = mpsc::channel();
        let rx = Mutex::new(rx);
        let caught = panic::catch_unwind(AssertUnwindSafe(|| {
            fork_join(0..4, |i| {
                if i == 1 {
                    let unwinding = rx.lock().expect("receiver").recv_timeout(WAIT);
                    assert!(unwinding.is_ok(), "item 3 never panicked");
                    panic!("first");
                }
                if i == 3 {
                    let _signal = SignalOnDrop(tx.clone());
                    panic!("second");
                }
                i
            })
        }));
        let payload = caught.expect_err("panic must propagate");
        let msg = payload.downcast_ref::<&str>().copied().unwrap_or_default();
        assert_eq!(msg, "first");
    }

    #[test]
    fn nested_scopes_do_not_deadlock() {
        // Every task forks again: nested scopes must join cleanly and keep
        // outputs in index order.
        let totals: Vec<u64> = chunk_map_collect_range(16, 8, |i| {
            let inner: Vec<u64> = (0..512).collect();
            chunk_map_reduce(&inner, 4, |_, c| c.iter().sum::<u64>(), |a, b| a + b).unwrap_or(0)
                + i as u64
        });
        let inner_sum: u64 = (0..512).sum();
        let expected: Vec<u64> = (0..16).map(|i| inner_sum + i).collect();
        assert_eq!(totals, expected);
    }
}
