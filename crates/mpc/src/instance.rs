//! Multi-instance execution: host-parallel composition of independent MPC
//! instances.
//!
//! Several places in the paper compose *independent* runs of the same
//! machinery that execute concurrently on disjoint sections of the cluster:
//! footnote 2 runs the layering for every coreness guess `(1+ε)^i` "in
//! parallel", Theorem 1.1's large-`λ` path layers every edge part of the
//! Lemma 2.1 partition in parallel, and Lemma 3.15's boosting is a bundle of
//! independent repetitions. The simulator models that composition with
//! [`Metrics::merge_parallel`] (max rounds, summed words and memory) — but a
//! purely metered composition still executes one instance after another on
//! the host.
//!
//! [`InstanceGroup`] turns the metered parallelism into wall-clock
//! parallelism: it owns one [`ExecutionBackend`] per logical instance, fans a
//! caller closure across them on up to `jobs` host threads, and composes the
//! per-instance metrics with the paper's parallel-composition semantics,
//! including an aggregate global-memory check across the whole group.
//! Because every instance runs on its own private backend and outputs are
//! collected by instance index, results are **bit-identical to the
//! sequential host loop at any job count** — thread count is purely a
//! wall-clock decision.
//!
//! The backend itself is single-threaded, so the group's threads are the
//! only host parallelism it adds: each fan-out forks scoped threads for its
//! call, with the calling thread running one of the workers, and joins them
//! before returning. The vertex stages running inside each instance take
//! their share of the same budget through [`split_jobs`] instead of
//! multiplying into oversubscription.
//!
//! ```
//! use dgo_mpc::primitives::min_by_key;
//! use dgo_mpc::{ClusterConfig, InstanceGroup, SequentialBackend};
//!
//! // Three independent instances, two host threads.
//! let mut group =
//!     InstanceGroup::<SequentialBackend>::uniform(ClusterConfig::new(2, 64), 3, 2);
//! let least = group.run_all(|i, backend| {
//!     // One round: each of the two machines sends a two-word record.
//!     let value = i as u32;
//!     Ok::<u32, dgo_mpc::MpcError>(min_by_key(backend, &[(1, value + 5), (1, value)], 2)?[1])
//! })?;
//! assert_eq!(least, vec![0, 1, 2]);
//! let metrics = group.into_metrics()?;
//! assert_eq!(metrics.rounds, 1); // parallel composition: max, not sum
//! assert_eq!(metrics.total_comm_words, 12); // volume sums
//! # Ok::<(), dgo_mpc::MpcError>(())
//! ```

use crate::backend::ExecutionBackend;
use crate::config::ClusterConfig;
use crate::error::{MpcError, Result};
use crate::metrics::Metrics;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;

/// Resolves a caller-facing `jobs` knob to a concrete host thread count:
/// `0` selects all available cores, any other value is
/// taken literally. The result never affects computed outputs — only
/// wall-clock.
pub fn resolve_jobs(jobs: usize) -> usize {
    if jobs == 0 {
        rayon::current_num_threads()
    } else {
        jobs
    }
}

/// Divides one host-thread budget between an outer instance fan-out and the
/// data-parallel stages running *inside* each instance, so the two tiers
/// share one budget instead of multiplying into oversubscription: with
/// `instances` independent instances, the outer tier gets
/// `min(resolve_jobs(jobs), max(instances, 1))` threads and the remaining
/// budget factor goes to each instance's inner stages.
///
/// The inner budgets are *per instance* ([`JobSplit::inner`]): the division
/// remainder is distributed one extra thread to the first
/// `budget mod outer` instances instead of being floored away (the old
/// `(outer, inner)` tuple idled `budget − outer·⌊budget/outer⌋` threads —
/// a third of the budget at `jobs = 6, instances = 4`). At most `outer`
/// instances run concurrently and at most `budget mod outer < outer` of
/// them are boosted, so every concurrent set stays within
/// `Σ inner ≤ resolve_jobs(jobs)`. Purely a wall-clock decision — like
/// `jobs` itself, the split never affects computed outputs.
pub fn split_jobs(jobs: usize, instances: usize) -> JobSplit {
    let budget = resolve_jobs(jobs).max(1);
    let outer = budget.min(instances.max(1));
    JobSplit {
        outer,
        base: budget / outer,
        boosted: budget % outer,
    }
}

/// The two-tier thread-budget split computed by [`split_jobs`]: `outer`
/// host threads fan the instances, and instance `i` budgets
/// [`inner(i)`](JobSplit::inner) threads for its internal stages.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JobSplit {
    outer: usize,
    base: usize,
    boosted: usize,
}

impl JobSplit {
    /// Host threads for the outer instance fan-out.
    pub fn outer(&self) -> usize {
        self.outer
    }

    /// Inner thread budget of instance `instance`: the floored factor, plus
    /// one remainder thread for the first `budget mod outer` instances.
    /// Fewer than `outer` instances are boosted, so any `outer` instances
    /// running concurrently fit the overall budget.
    pub fn inner(&self, instance: usize) -> usize {
        self.base + usize::from(instance < self.boosted)
    }

    /// The worst-case concurrent thread use: `outer` instances live at once,
    /// all boosted ones among them — exactly the resolved budget.
    pub fn max_concurrent(&self) -> usize {
        self.outer * self.base + self.boosted
    }
}

/// Applies the aggregate group-memory check of the parallel composition:
/// the summed global-memory peak of `instances` composed instances must fit
/// their aggregate `capacity` (the union cluster hosting every disjoint
/// section). Shared by [`InstanceGroup::into_metrics`] and host-side
/// compositions that manage backends internally, so the semantics cannot
/// drift.
///
/// # Errors
///
/// [`MpcError::GroupMemoryExceeded`] when over capacity and `strict`;
/// relaxed groups record a violation instead.
pub fn check_group_capacity(
    metrics: &mut Metrics,
    instances: usize,
    capacity: usize,
    strict: bool,
) -> Result<()> {
    if metrics.peak_global_memory > capacity {
        if strict {
            return Err(MpcError::GroupMemoryExceeded {
                instances,
                words: metrics.peak_global_memory,
                capacity,
            });
        }
        metrics.record_violations(1);
    }
    Ok(())
}

/// Sets an abort flag when dropped during a panic unwind (disarmed with
/// `mem::forget` on the normal path), so sibling workers stop claiming work.
struct AbortOnPanic<'a>(&'a AtomicBool);

impl Drop for AbortOnPanic<'_> {
    fn drop(&mut self) {
        self.0.store(true, Ordering::Release);
    }
}

/// Fans `run(i)` over `0..len` across up to `jobs` host threads and returns
/// the outputs in index order. The deterministic-concurrency building block
/// under [`InstanceGroup::run_all`], usable directly by compositions whose
/// instances manage their own backends internally.
///
/// The calling thread runs one of the worker loops and scoped threads run
/// the others (`rayon::fork_join`). Workers claim indices dynamically (next
/// unclaimed, via one shared counter), so skewed per-index costs balance
/// across threads without affecting outputs. A panic in `run` stops further
/// claims and is re-thrown with its original payload after every worker has
/// finished.
///
/// # Errors
///
/// Returns the error of the *lowest-index* failing call — the same error a
/// sequential loop stopping at the first failure would surface — and stops
/// claiming further indices. Because indices are claimed in order, every
/// index below the lowest failing one always completes first; which higher
/// indices ran is timing-dependent but unobservable in the result.
pub fn run_indexed<T, E, F>(len: usize, jobs: usize, run: F) -> std::result::Result<Vec<T>, E>
where
    F: Fn(usize) -> std::result::Result<T, E> + Sync,
    T: Send,
    E: Send,
{
    let mut slots: Vec<Option<std::result::Result<T, E>>> = (0..len).map(|_| None).collect();
    let threads = resolve_jobs(jobs).max(1).min(len.max(1));
    if threads <= 1 {
        for (i, slot) in slots.iter_mut().enumerate() {
            let result = run(i);
            let failed = result.is_err();
            *slot = Some(result);
            if failed {
                break;
            }
        }
    } else {
        let cells: Vec<Mutex<&mut Option<std::result::Result<T, E>>>> =
            slots.iter_mut().map(Mutex::new).collect();
        let next = AtomicUsize::new(0);
        let abort = AtomicBool::new(false);
        // One worker loop per thread; the calling thread runs the first.
        rayon::fork_join(0..threads, |_| loop {
            if abort.load(Ordering::Acquire) {
                break;
            }
            let i = next.fetch_add(1, Ordering::Relaxed);
            if i >= cells.len() {
                break;
            }
            // A panicking `run` must also stop the siblings; the panic
            // itself resurfaces once `fork_join` has joined them.
            let panic_guard = AbortOnPanic(&abort);
            let result = run(i);
            std::mem::forget(panic_guard);
            if result.is_err() {
                abort.store(true, Ordering::Release);
            }
            **cells[i].lock().expect("slot claimed by one worker") = Some(result);
        });
    }
    let mut outputs = Vec::with_capacity(len);
    for slot in slots {
        // Indices run in claim order until an error, so the slots form a
        // filled prefix: every `None` sits behind some earlier `Err`.
        match slot.expect("indices below the first error always ran") {
            Ok(output) => outputs.push(output),
            Err(error) => return Err(error),
        }
    }
    Ok(outputs)
}

/// A group of independent MPC instances that execute host-parallel and
/// compose as the paper's parallel composition (disjoint cluster sections:
/// max rounds, summed communication and memory).
///
/// Construct with one [`ClusterConfig`] per instance ([`InstanceGroup::new`])
/// or a shared shape ([`InstanceGroup::uniform`]), fan work across the
/// instances with [`run_all`](InstanceGroup::run_all), then collect the
/// composed [`Metrics`] with [`into_metrics`](InstanceGroup::into_metrics).
#[derive(Debug)]
pub struct InstanceGroup<B> {
    backends: Vec<B>,
    jobs: usize,
}

impl<B: ExecutionBackend> InstanceGroup<B> {
    /// Creates a group with one backend per configuration, running on up to
    /// `jobs` host threads (`0` = all available cores).
    pub fn new<I>(configs: I, jobs: usize) -> Self
    where
        I: IntoIterator<Item = ClusterConfig>,
    {
        InstanceGroup {
            backends: configs.into_iter().map(B::from_config).collect(),
            jobs: resolve_jobs(jobs),
        }
    }

    /// Creates a group of `instances` identically-shaped backends.
    pub fn uniform(config: ClusterConfig, instances: usize, jobs: usize) -> Self {
        Self::new(std::iter::repeat_n(config, instances), jobs)
    }

    /// Number of instances in the group.
    pub fn len(&self) -> usize {
        self.backends.len()
    }

    /// Whether the group has no instances.
    pub fn is_empty(&self) -> bool {
        self.backends.is_empty()
    }

    /// The resolved host thread budget.
    pub fn jobs(&self) -> usize {
        self.jobs
    }

    /// Runs `run(i, backend_i)` for every instance `i`, fanned across up to
    /// [`jobs`](InstanceGroup::jobs) host threads, and returns the outputs in
    /// instance order.
    ///
    /// Instances are independent: each closure invocation gets exclusive
    /// access to its own backend, so outputs and per-instance metrics are
    /// bit-identical to running the instances in a sequential host loop,
    /// regardless of the thread count. Worker threads claim instances
    /// dynamically (next unclaimed index), so skewed per-instance costs
    /// balance across threads without affecting outputs.
    ///
    /// # Errors
    ///
    /// If any instance fails, the error of the *lowest-index* failing
    /// instance is returned — the same error a sequential loop that stops at
    /// the first failure would surface — and no further instances are
    /// started. Instances are claimed in index order, so every instance
    /// below the lowest failing one always completes; which later instances
    /// ran is timing-dependent but unobservable in the result.
    pub fn run_all<T, E, F>(&mut self, run: F) -> std::result::Result<Vec<T>, E>
    where
        B: Send,
        F: Fn(usize, &mut B) -> std::result::Result<T, E> + Sync,
        T: Send,
        E: Send,
    {
        // One cell per instance; each index is claimed by exactly one
        // run_indexed worker, so every lock is uncontended.
        let cells: Vec<Mutex<&mut B>> = self.backends.iter_mut().map(Mutex::new).collect();
        run_indexed(cells.len(), self.jobs, |i| {
            let mut backend = cells[i].lock().expect("backend claimed by one worker");
            run(i, &mut **backend)
        })
    }

    /// Consumes the group and composes the per-instance metrics with the
    /// parallel-composition semantics ([`Metrics::merge_parallel`], folded in
    /// instance order): rounds are the max over instances, communication and
    /// global memory sum.
    ///
    /// The summed global-memory peak is checked against the group's aggregate
    /// capacity (the sum of every instance's `M · S`): the composed run must
    /// fit the union cluster that hosts all the disjoint sections.
    ///
    /// # Errors
    ///
    /// [`MpcError::GroupMemoryExceeded`] if the aggregate peak overshoots the
    /// aggregate capacity and any instance is strict; relaxed groups record a
    /// violation instead.
    pub fn into_metrics(self) -> Result<Metrics> {
        let instances = self.backends.len();
        let mut merged = Metrics::new();
        let mut capacity = 0usize;
        let mut strict = false;
        for backend in self.backends {
            let config = *backend.config();
            capacity = capacity.saturating_add(config.global_memory());
            strict |= config.strict;
            merged.merge_parallel(&backend.into_metrics());
        }
        check_group_capacity(&mut merged, instances, capacity, strict)?;
        Ok(merged)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::SequentialBackend;
    use crate::primitives::min_by_key;

    /// One metered round on instance-specific data, returning `10·i`.
    fn ping(i: usize, backend: &mut SequentialBackend) -> Result<u64> {
        let value = i as u32 * 10;
        let minima = min_by_key(backend, &[(1, value + 1), (1, value)], 2)?;
        Ok(u64::from(minima[1]))
    }

    #[test]
    fn outputs_in_instance_order_at_any_job_count() {
        for jobs in [1usize, 2, 3, 8, 64] {
            let mut group =
                InstanceGroup::<SequentialBackend>::uniform(ClusterConfig::new(2, 64), 5, jobs);
            let out = group.run_all(ping).unwrap();
            assert_eq!(out, vec![0, 10, 20, 30, 40], "jobs = {jobs}");
        }
    }

    #[test]
    fn metrics_compose_in_parallel() {
        let mut group =
            InstanceGroup::<SequentialBackend>::uniform(ClusterConfig::new(2, 64), 4, 2);
        group
            .run_all(|i, backend| {
                // Instance i charges i+1 rounds of one word each.
                backend.charge_rounds(i as u64 + 1, i + 1, 1)
            })
            .unwrap();
        let metrics = group.into_metrics().unwrap();
        assert_eq!(metrics.rounds, 4); // max over instances
        assert_eq!(metrics.total_comm_words, 1 + 2 + 3 + 4); // volume sums
    }

    #[test]
    fn composition_matches_sequential_fold() {
        // The group's composed metrics equal a hand-rolled sequential loop
        // folding merge_parallel in instance order.
        let configs: Vec<ClusterConfig> = (1..5).map(|m| ClusterConfig::new(m, 64)).collect();
        let mut expected = Metrics::new();
        for (i, &config) in configs.iter().enumerate() {
            let mut backend = SequentialBackend::new(config);
            ping_any(i, &mut backend).unwrap();
            expected.merge_parallel(&backend.into_metrics());
        }
        let mut group = InstanceGroup::<SequentialBackend>::new(configs, 3);
        group.run_all(ping_any).unwrap();
        assert_eq!(group.into_metrics().unwrap(), expected);
    }

    fn ping_any(i: usize, backend: &mut SequentialBackend) -> Result<()> {
        backend.charge_rounds(1 + i as u64 % 3, 4 * (i + 1), 2)?;
        backend.checkpoint_residency(3, &[])?;
        Ok(())
    }

    #[test]
    fn lowest_index_error_wins() {
        for jobs in [1usize, 4] {
            let mut group =
                InstanceGroup::<SequentialBackend>::uniform(ClusterConfig::new(2, 64), 6, jobs);
            let out: std::result::Result<Vec<()>, usize> =
                group.run_all(|i, _| if i >= 2 { Err(i) } else { Ok(()) });
            assert_eq!(out.unwrap_err(), 2, "jobs = {jobs}");
        }
    }

    #[test]
    fn error_short_circuits_remaining_instances() {
        // jobs = 1 must stop at the first error like the sequential loops it
        // replaced; threaded runs must stop claiming new instances.
        for jobs in [1usize, 3] {
            let ran = AtomicUsize::new(0);
            let mut group =
                InstanceGroup::<SequentialBackend>::uniform(ClusterConfig::new(2, 64), 64, jobs);
            let out: std::result::Result<Vec<()>, usize> = group.run_all(|i, _| {
                ran.fetch_add(1, Ordering::Relaxed);
                if i >= 2 {
                    Err(i)
                } else {
                    Ok(())
                }
            });
            assert_eq!(out.unwrap_err(), 2, "jobs = {jobs}");
            // Sequential: exactly instances 0, 1, 2. Threaded: the abort flag
            // stops claiming well short of all 64.
            let ran = ran.load(Ordering::Relaxed);
            if jobs == 1 {
                assert_eq!(ran, 3);
            } else {
                assert!(ran < 64, "threaded run claimed every instance");
            }
        }
    }

    #[test]
    fn dynamic_claiming_keeps_outputs_ordered_under_skew() {
        // Wildly skewed per-instance costs: dynamic claiming reorders the
        // *execution*, never the outputs.
        let mut group =
            InstanceGroup::<SequentialBackend>::uniform(ClusterConfig::new(2, 64), 12, 4);
        let out = group
            .run_all(|i, backend| {
                if i == 0 {
                    // One expensive instance pinned on one worker.
                    for _ in 0..200 {
                        backend.charge_rounds(1, 1, 1)?;
                    }
                }
                ping(i, backend)
            })
            .unwrap();
        assert_eq!(out, (0..12).map(|i| i as u64 * 10).collect::<Vec<_>>());
    }

    #[test]
    fn empty_group_is_fine() {
        let mut group = InstanceGroup::<SequentialBackend>::new(std::iter::empty(), 4);
        assert!(group.is_empty());
        let out: Vec<u8> = group.run_all(|_, _| Ok::<_, MpcError>(1)).unwrap();
        assert!(out.is_empty());
        assert_eq!(group.into_metrics().unwrap(), Metrics::new());
    }

    #[test]
    fn aggregate_memory_check_strict_errors() {
        // One relaxed instance overshoots its residency (allowed locally, the
        // aggregate sum then overshoots the group capacity); a strict sibling
        // makes the group check hard-fail.
        let configs = vec![ClusterConfig::new(1, 8).relaxed(), ClusterConfig::new(1, 8)];
        let mut group = InstanceGroup::<SequentialBackend>::new(configs, 1);
        group
            .run_all(|i, backend| backend.checkpoint_residency(0, &[if i == 0 { 100 } else { 1 }]))
            .unwrap();
        let err = group.into_metrics().unwrap_err();
        assert!(matches!(
            err,
            MpcError::GroupMemoryExceeded {
                instances: 2,
                words: 101,
                capacity: 16,
            }
        ));
    }

    #[test]
    fn aggregate_memory_check_relaxed_records_violation() {
        let configs = vec![
            ClusterConfig::new(1, 8).relaxed(),
            ClusterConfig::new(1, 8).relaxed(),
        ];
        let mut group = InstanceGroup::<SequentialBackend>::new(configs, 2);
        group
            .run_all(|_, backend| backend.checkpoint_residency(0, &[100]))
            .unwrap();
        let metrics = group.into_metrics().unwrap();
        assert_eq!(metrics.peak_global_memory, 200);
        // Two local residency violations plus the aggregate one.
        assert_eq!(metrics.violations, 3);
    }

    /// The first `instances` inner budgets of a split, for readable asserts.
    fn inner_budgets(split: JobSplit, instances: usize) -> Vec<usize> {
        (0..instances).map(|i| split.inner(i)).collect()
    }

    #[test]
    fn split_jobs_shares_the_budget() {
        // More instances than threads: all threads go to the outer tier.
        let split = split_jobs(4, 16);
        assert_eq!(split.outer(), 4);
        assert_eq!(inner_budgets(split, 4), vec![1, 1, 1, 1]);
        // Fewer instances than threads: the leftover factor goes inward.
        let split = split_jobs(8, 2);
        assert_eq!((split.outer(), split.inner(0), split.inner(1)), (2, 4, 4));
        // One instance: everything goes to the vertex stages.
        let split = split_jobs(6, 1);
        assert_eq!((split.outer(), split.inner(0)), (1, 6));
        // Degenerate shapes floor at one thread each.
        assert_eq!(split_jobs(1, 5).outer(), 1);
        assert_eq!(split_jobs(1, 5).inner(0), 1);
        let split = split_jobs(3, 0);
        assert_eq!((split.outer(), split.inner(0)), (1, 3));
    }

    #[test]
    fn split_jobs_distributes_the_remainder() {
        // Regression: the floored split used to idle the remainder —
        // jobs=6, instances=4 yielded (outer=4, inner=1), wasting a third
        // of the budget. The first `6 mod 4 = 2` instances now get the
        // extra threads.
        let split = split_jobs(6, 4);
        assert_eq!(split.outer(), 4);
        assert_eq!(inner_budgets(split, 4), vec![2, 2, 1, 1]);
        assert_eq!(split.max_concurrent(), 6);
        // jobs=8, instances=3: 8 = 3·2 + 2 → two boosted instances.
        let split = split_jobs(8, 3);
        assert_eq!(split.outer(), 3);
        assert_eq!(inner_budgets(split, 3), vec![3, 3, 2]);
        assert_eq!(split.max_concurrent(), 8);
        // Boosted instances beyond the first `remainder` stay at the base
        // budget even when there are more instances than outer threads.
        let split = split_jobs(7, 5);
        assert_eq!(split.outer(), 5);
        assert_eq!(inner_budgets(split, 5), vec![2, 2, 1, 1, 1]);
    }

    #[test]
    fn split_jobs_concurrent_use_never_exceeds_budget() {
        for jobs in 1..=16usize {
            for instances in 1..=16usize {
                let split = split_jobs(jobs, instances);
                // The worst concurrent set: `outer` instances at once,
                // including every boosted one (there are fewer boosted
                // instances than outer slots by construction).
                let worst: usize = (0..split.outer().min(instances))
                    .map(|i| split.inner(i))
                    .sum();
                assert!(worst <= jobs, "jobs={jobs} instances={instances}");
                assert!(
                    split.max_concurrent() <= jobs,
                    "jobs={jobs} instances={instances}"
                );
                // And the budget is used fully when instances allow it.
                assert_eq!(
                    split.max_concurrent(),
                    jobs,
                    "jobs={jobs} instances={instances}: budget left idle"
                );
            }
        }
    }

    #[test]
    fn jobs_resolution() {
        assert!(resolve_jobs(0) >= 1);
        assert_eq!(resolve_jobs(1), 1);
        assert_eq!(resolve_jobs(7), 7);
        let group = InstanceGroup::<SequentialBackend>::uniform(ClusterConfig::new(1, 8), 2, 5);
        assert_eq!(group.jobs(), 5);
        assert_eq!(group.len(), 2);
    }
}
