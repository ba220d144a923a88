//! Approximate coreness decomposition in MPC — the \[GLM19\] application.
//!
//! Footnote 2 of the paper notes that \[GLM19\] state their result for
//! *coreness decomposition*, obtained "by simply running the algorithm for
//! every `k = (1+ε)^i` coreness/arboricity estimate in parallel". This module
//! reproduces that application on top of the paper's machinery:
//!
//! For each guess `g_i = ⌈(1+ε)^i⌉` up to the degeneracy, a layering run with
//! `λ-hint = g_i` executes on its own section of the cluster — and, since the
//! instances are independent, *actually in parallel on the host* via
//! [`dgo_mpc::InstanceGroup`] (metrics merge with max-rounds semantics;
//! [`Params::jobs`] picks the host thread budget). If vertex `v`
//! receives a layer in run `i`, the partial layer assignment is a *witness*
//! that `v` can be eliminated with at most `a_i = O(g_i log log n)`
//! same-or-higher neighbors, i.e. `coreness(v) ≤ a_i` (a valid partial layer
//! assignment restricted to its assigned vertices is an elimination order).
//! The estimate of `v` is the smallest such witness value, giving a sound
//! upper bound within an `O((1+ε) · log log n)` factor of the truth.

use crate::error::{CoreError, Result};
use crate::orient::{layering_config, partial_layering_bounded_in, LayeringStats};
use crate::params::Params;
use dgo_graph::{degeneracy, Graph};
use dgo_mpc::{split_jobs, ExecutionBackend, InstanceGroup, Metrics, SequentialBackend};
use std::sync::Mutex;

/// Result of [`approximate_coreness`].
#[derive(Debug, Clone)]
pub struct CorenessResult {
    /// Per-vertex upper-bound estimate of the coreness
    /// (`estimate[v] ≥ coreness(v)`, within `O((1+ε)·log log n)`).
    pub estimate: Vec<u32>,
    /// The guess ladder `g_0 < g_1 < …` that was run.
    pub guesses: Vec<usize>,
    /// Merged metering: guesses run in parallel (max rounds, summed volume).
    pub metrics: Metrics,
    /// Layering statistics per guess.
    pub stats: Vec<LayeringStats>,
}

/// Computes a per-vertex coreness estimate by running the Theorem 1.1
/// layering for every `(1+eps)^i` guess in parallel (the \[GLM19\]
/// application, paper footnote 2).
///
/// The estimate is a certified upper bound: `estimate[v] ≥ coreness(v)` for
/// every vertex. Estimates start at the degeneracy (itself a sound global
/// bound) and are refined downward by every guess's certificate, landing at
/// `O(coreness(v) · (1+eps) · log log n)` for the vertices each guess's
/// geometric layer decay reaches.
///
/// # Errors
///
/// * [`CoreError::InvalidParams`] if `eps` is not finite and positive.
/// * Propagates layering errors.
///
/// # Examples
///
/// ```
/// use dgo_core::{approximate_coreness, Params};
/// use dgo_graph::{coreness, generators::gnm};
///
/// let g = gnm(400, 1200, 3);
/// let r = approximate_coreness(&g, 0.5, &Params::practical(400))?;
/// let exact = coreness(&g);
/// for v in 0..g.num_vertices() {
///     assert!(r.estimate[v] >= exact[v], "estimates are upper bounds");
/// }
/// # Ok::<(), dgo_core::CoreError>(())
/// ```
pub fn approximate_coreness(graph: &Graph, eps: f64, params: &Params) -> Result<CorenessResult> {
    approximate_coreness_on::<SequentialBackend>(graph, eps, params)
}

/// [`approximate_coreness`] on a caller-chosen [`ExecutionBackend`].
///
/// The guess ladder executes as a host-parallel [`InstanceGroup`] across
/// [`Params::jobs`] threads: one backend per guess, each guess's layering
/// *and* its witness (measured out-degree bound) computed inside the
/// instance, metrics composed with the paper's parallel semantics. Outputs
/// are bit-identical to the sequential host loop at any job count.
///
/// # Errors
///
/// See [`approximate_coreness`].
pub fn approximate_coreness_on<B: ExecutionBackend + Send>(
    graph: &Graph,
    eps: f64,
    params: &Params,
) -> Result<CorenessResult> {
    if !(eps.is_finite() && eps > 0.0) {
        return Err(CoreError::InvalidParams {
            reason: format!("eps must be finite and positive, got {eps}"),
        });
    }
    params.validate()?;
    let n = graph.num_vertices();
    let max_core = degeneracy(graph).value.max(1);
    let guesses = guess_ladder(max_core, eps);

    // Deterministic per-instance parameter derivation: guess i runs with its
    // ladder value as the λ-hint. The thread budget splits between the
    // ladder fan-out and each guess's vertex stages (the instances and the
    // stages share one budget instead of multiplying).
    let split = split_jobs(params.jobs, guesses.len());
    let instance_params: Vec<Params> = guesses
        .iter()
        .enumerate()
        .map(|(i, &guess)| {
            let mut run_params = params.clone();
            run_params.lambda_hint = guess;
            run_params.jobs = split.inner(i);
            run_params
        })
        .collect();
    let mut group = InstanceGroup::<B>::new(
        instance_params
            .iter()
            .map(|run_params| layering_config(graph, run_params)),
        split.outer(),
    );
    // Estimate-combine: every guess's certificate folds into the per-vertex
    // minimum, starting from the sound degeneracy bound (coreness never
    // exceeds the degeneracy). The min-fold is commutative, so folding as
    // instances complete (under a lock, inside each instance) matches the
    // sequential loop exactly while holding at most `jobs` layerings live
    // instead of one per guess.
    let estimate = Mutex::new(vec![max_core as u32; n]);
    let stats = group.run_all(|i, backend| {
        // Bounded (no-fallback) runs: assignment is then a genuine
        // elimination certificate at this guess's out-degree bound.
        let (layering, stats) =
            partial_layering_bounded_in(graph, &instance_params[i], 8, backend)?;
        if layering.num_assigned() == 0 {
            return Ok::<_, CoreError>(stats);
        }
        // Witness value of this run: the layering's *measured* out-degree
        // bound certifies coreness ≤ that bound for every assigned vertex
        // (eliminate assigned vertices in (layer, id) order; the first
        // vertex of any k-core eliminated still has all its core neighbors
        // counted in its same-or-higher degree).
        let witness = layering.out_degree_bound(graph)?.max(1) as u32;
        let mut estimate = estimate.lock().expect("no panic holds the fold lock");
        for (v, e) in estimate.iter_mut().enumerate() {
            if layering.is_assigned(v) {
                *e = (*e).min(witness);
            }
        }
        Ok(stats)
    })?;
    let metrics = group.into_metrics()?;
    let estimate = estimate.into_inner().expect("no panic holds the fold lock");
    Ok(CorenessResult {
        estimate,
        guesses,
        metrics,
        stats,
    })
}

/// The guess ladder `1, ⌈(1+ε)⌉, ⌈(1+ε)²⌉, …` up to its first value
/// `≥ max_core`, without repeats, for a finite `eps > 0`.
///
/// While a guess is below `max_core`, one step adds less than
/// `eps · max_core` to it. At `eps · max_core ≤ 1/2` the ceiling therefore
/// never skips an integer, and the ladder is exactly `1..=max_core`. That
/// range is built directly, because the multiplication stalls where
/// `1 + eps` rounds to 1 and crawls where it barely exceeds it.
fn guess_ladder(max_core: usize, eps: f64) -> Vec<usize> {
    if eps * max_core as f64 <= 0.5 {
        return (1..=max_core).collect();
    }
    geometric_ladder(max_core, eps)
}

/// The ladder by repeated multiplication with `1 + eps`.
fn geometric_ladder(max_core: usize, eps: f64) -> Vec<usize> {
    let mut guesses: Vec<usize> = Vec::new();
    let mut g = 1.0f64;
    loop {
        let guess = g.ceil() as usize;
        if guesses.last() != Some(&guess) {
            guesses.push(guess);
        }
        if guess >= max_core {
            return guesses;
        }
        g *= 1.0 + eps;
    }
}

#[cfg(test)]
#[allow(clippy::needless_range_loop)]
mod tests {
    use super::*;
    use dgo_graph::coreness;
    use dgo_graph::generators::{clique, gnm, planted_dense, random_tree, star};

    fn check_upper_bound(graph: &Graph, eps: f64) -> CorenessResult {
        let params = Params::practical(graph.num_vertices());
        let r = approximate_coreness(graph, eps, &params).unwrap();
        let exact = coreness(graph);
        for v in 0..graph.num_vertices() {
            assert!(
                r.estimate[v] >= exact[v],
                "v={v}: estimate {} < exact coreness {}",
                r.estimate[v],
                exact[v]
            );
        }
        r
    }

    #[test]
    fn sound_on_random_graphs() {
        for seed in 0..3 {
            let g = gnm(300, 900, seed);
            check_upper_bound(&g, 0.5);
        }
    }

    #[test]
    fn approximation_factor_bounded() {
        let n = 2000;
        let g = planted_dense(n, 2 * n, 40, 7);
        let r = check_upper_bound(&g, 0.5);
        let exact = coreness(&g);
        let loglog = (n as f64).log2().log2();
        for v in 0..n {
            let truth = exact[v].max(1) as f64;
            assert!(
                (r.estimate[v] as f64) <= 24.0 * (1.5) * truth * loglog,
                "v={v}: estimate {} vs exact {truth}",
                r.estimate[v]
            );
        }
    }

    #[test]
    fn separates_core_from_periphery() {
        // Planted dense core: core vertices must get estimates well above
        // the tree-like background.
        let g = planted_dense(1000, 1000, 30, 3);
        let r = check_upper_bound(&g, 0.5);
        let core_min = (0..30).map(|v| r.estimate[v]).min().unwrap();
        let bg_median = {
            let mut bg: Vec<u32> = (30..1000).map(|v| r.estimate[v]).collect();
            bg.sort_unstable();
            bg[bg.len() / 2]
        };
        assert!(
            core_min > bg_median,
            "core min {core_min} should exceed background median {bg_median}"
        );
    }

    #[test]
    fn guess_ladder_is_geometric_and_covers() {
        let g = clique(40); // degeneracy 39
        let params = Params::practical(40);
        let r = approximate_coreness(&g, 1.0, &params).unwrap();
        assert!(r.guesses.windows(2).all(|w| w[0] < w[1]));
        assert!(*r.guesses.last().unwrap() >= 39);
        // Doubling ladder: at most log2(39) + 2 guesses.
        assert!(r.guesses.len() <= 8);
    }

    #[test]
    fn forest_estimates_small() {
        let g = random_tree(800, 5);
        let r = check_upper_bound(&g, 0.5);
        // Coreness of a tree is 1 everywhere; estimate stays O(log log n).
        assert!(
            r.estimate.iter().all(|&e| e <= 16),
            "max = {:?}",
            r.estimate.iter().max()
        );
    }

    #[test]
    fn star_estimates_tiny() {
        let g = star(500);
        let r = check_upper_bound(&g, 0.5);
        assert!(r.estimate.iter().all(|&e| e <= 4));
    }

    #[test]
    fn parallel_metrics_do_not_scale_with_ladder_length() {
        // Guesses run in parallel: a 3x finer ladder must not cost 3x the
        // rounds (max-merge semantics).
        let g = gnm(400, 1600, 2);
        let params = Params::practical(400);
        let coarse = approximate_coreness(&g, 1.0, &params).unwrap();
        let fine = approximate_coreness(&g, 0.25, &params).unwrap();
        assert!(fine.guesses.len() > coarse.guesses.len());
        assert!(
            fine.metrics.rounds <= 2 * coarse.metrics.rounds + 16,
            "fine {} vs coarse {}",
            fine.metrics.rounds,
            coarse.metrics.rounds
        );
    }

    #[test]
    fn invalid_eps_is_invalid_params() {
        let g = Graph::empty(2);
        for eps in [0.0, -0.5, f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let err = approximate_coreness(&g, eps, &Params::practical(2)).unwrap_err();
            assert!(
                matches!(err, CoreError::InvalidParams { .. }),
                "eps {eps}: {err}"
            );
        }
    }

    #[test]
    fn guess_ladder_matches_the_loop() {
        // The direct range must be the loop's ladder wherever it is taken
        // (`eps · max_core ≤ 1/2`, the boundary included at (5, 0.1)), at
        // eps values the loop finishes quickly. Above it the ladder is the
        // loop itself.
        let mut shortcuts = 0;
        for max_core in [1usize, 2, 3, 5, 8, 39, 64, 100, 1000] {
            for eps in [1e-4, 1e-3, 0.01, 0.05, 0.1, 0.25, 0.5] {
                if eps * max_core as f64 <= 0.5 {
                    shortcuts += 1;
                    assert_eq!(
                        guess_ladder(max_core, eps),
                        geometric_ladder(max_core, eps),
                        "max_core {max_core}, eps {eps}"
                    );
                }
            }
        }
        assert!(shortcuts >= 20, "only {shortcuts} pairs take the range");
    }

    #[test]
    fn tiny_eps_ladder_is_every_integer() {
        // `1 + 1e-17 == 1` in f64, so `geometric_ladder` never advances; at
        // 1e-9 it takes about 1.6·10⁹ steps to reach 5.
        for eps in [1e-17, 1e-9] {
            assert_eq!(guess_ladder(5, eps), vec![1, 2, 3, 4, 5]);
        }
        let g = clique(6); // degeneracy 5
        let r = approximate_coreness(&g, 1e-17, &Params::practical(6)).unwrap();
        assert_eq!(r.guesses, vec![1, 2, 3, 4, 5]);
    }

    #[test]
    fn huge_eps_runs_a_two_guess_ladder() {
        // eps = 1e10 makes the top guess's `k²` overflow `usize`, and
        // eps = 2³² − 1 makes its `k` 2³³, past `u32`.
        let g = gnm(200, 800, 4);
        for eps in [1e10, f64::from(u32::MAX)] {
            let r = check_upper_bound(&g, eps);
            assert_eq!(r.guesses, vec![1, (1.0 + eps) as usize], "eps {eps}");
        }
    }

    use dgo_graph::Graph;
}
