//! Complete layering and orientation — Lemmas 3.14–3.15 and Theorem 1.1.
//!
//! The drivers assemble the partial-assignment stage (Algorithm 4 /
//! Lemma 3.13) into a complete layering:
//!
//! * **Stage 1 (peeling)**: `O(log k)` rounds of degree-`≤ k` peeling shrink
//!   the vertex set so later stages afford a large per-vertex budget
//!   (Lemma 3.15 Stage 1).
//! * **Stage 2 (boosted partial assignments)**: repeatedly run Algorithm 4 on
//!   the still-unassigned vertices, appending each stage's layers after the
//!   previous ones and *boosting* the budget `B ← min(B², n^δ)` between
//!   stages (Lemma 3.15 Stage 2; the paper boosts `B^100`, which clamps to
//!   the same `n^δ` ceiling immediately).
//! * **Fallback**: a stage that assigns nothing triggers one peeling round
//!   with an escalating threshold — the same guaranteed-progress mechanism
//!   as Stage 1, keeping termination parameter-independent. Every fallback
//!   round is metered and reported.
//!
//! Theorem 1.1 wraps the layering: when `k = Θ(λ) ≫ log n`, the edge set is
//! first split by Lemma 2.1 so each part has arboricity `O(log n)`; parts
//! run (conceptually in parallel) and their orientations union.

use crate::assign::partial_layer_assignment_staged;
use crate::error::{CoreError, Result};
use crate::params::Params;
use crate::reduce::partition_edges;
use crate::stage::StageExecutor;
use dgo_graph::{arboricity_bounds, degeneracy, Graph, LayerAssignment, Orientation};
use dgo_mpc::{
    split_jobs, ClusterConfig, ExecutionBackend, InstanceGroup, Metrics, SequentialBackend,
};
use std::collections::HashMap; // dgo-lint: allow(R4) — lookup-only use below, never iterated

/// Per-layering execution statistics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LayeringStats {
    /// Arboricity estimate used.
    pub lambda_hat: usize,
    /// Pruning parameter `k`.
    pub k: usize,
    /// Initial peeling rounds (Lemma 3.15 Stage 1).
    pub initial_peel_rounds: u32,
    /// Partial-assignment stages executed (Lemma 3.15 Stage 2).
    pub stages: u32,
    /// Guaranteed-progress fallback peeling rounds taken.
    pub fallback_rounds: u32,
    /// Total layers in the final assignment.
    pub layers: u32,
    /// Final (largest) view-tree budget used.
    pub final_budget: usize,
}

/// A complete layering with its metering and statistics.
#[derive(Debug, Clone)]
pub struct LayeringOutcome {
    /// The complete layer assignment.
    pub layering: LayerAssignment,
    /// MPC metering for the whole computation.
    pub metrics: Metrics,
    /// Execution statistics.
    pub stats: LayeringStats,
}

/// Result of Theorem 1.1's orientation pipeline.
#[derive(Debug, Clone)]
pub struct OrientResult {
    /// The orientation with max outdegree `O(λ log log n)`.
    pub orientation: Orientation,
    /// The underlying layering (`None` when the large-`λ` edge-partition path
    /// ran — parts have separate layerings that do not merge).
    pub layering: Option<LayerAssignment>,
    /// Merged MPC metering (parts merge in parallel).
    pub metrics: Metrics,
    /// Statistics of every layering executed (one per edge part).
    pub stats: Vec<LayeringStats>,
    /// Number of edge parts (1 = single-graph path).
    pub parts: usize,
}

/// Estimates the arboricity for parameterization: explicit hint, exact flow
/// machinery on small graphs, degeneracy on large ones.
pub fn estimate_lambda(graph: &Graph, params: &Params) -> usize {
    if params.lambda_hint > 0 {
        return params.lambda_hint;
    }
    arboricity_bounds(graph, params.exact_arboricity_threshold)
        .lower
        .max(1)
}

/// Builds the cluster configuration for a layering run on an `n`-vertex,
/// `m`-edge instance: `S = n^δ` local words, global memory `Θ(n·B + m)`
/// (Lemma 3.13's requirement), with constant slack.
fn layering_cluster(n: usize, m: usize, s: usize, budget_cap: usize) -> ClusterConfig {
    // 6·n·B tree headroom keeps the balanced per-machine residency below
    // S/3 average + S/2 max-tree < S even in the worst tree distribution.
    let global = 4 * (2 * m + n) + 6 * n * budget_cap + s;
    ClusterConfig::new(global.div_ceil(s).max(1), s)
}

/// Hard cap on the view-tree budget at local memory `s`: trees cost 2 words
/// per node, so capping `B` at `S/4` keeps any single tree at `S/2` words and
/// one tree plus its machine's base share fits in `S`. Shared by the cluster
/// sizing and the layering drivers so they cannot drift apart.
fn budget_cap(s: usize) -> usize {
    (s / 4).max(16)
}

/// The cluster configuration [`complete_layering_in`] /
/// [`partial_layering_bounded_in`] expect their backend to be sized for.
/// Callers composing several layering instances (e.g. via
/// [`InstanceGroup`]) build one backend per instance from this.
pub fn layering_config(graph: &Graph, params: &Params) -> ClusterConfig {
    let n = graph.num_vertices();
    let s = params.local_memory(n);
    layering_cluster(n, graph.num_edges(), s, budget_cap(s))
}

/// Computes a complete layer assignment with out-degree `O(k log log n)`
/// (Lemma 3.15).
///
/// # Errors
///
/// * [`CoreError::InvalidParams`] for bad parameters.
/// * [`CoreError::Mpc`] if metering rejects a phase in strict mode.
/// * [`CoreError::StageBudgetExhausted`] if `max_stages` elapse with
///   vertices unassigned (practically unreachable thanks to the fallback).
///
/// # Examples
///
/// ```
/// use dgo_core::{complete_layering, Params};
/// use dgo_graph::generators::gnm;
///
/// let g = gnm(500, 1500, 3);
/// let out = complete_layering(&g, &Params::practical(500))?;
/// assert!(out.layering.is_complete());
/// let d = out.layering.out_degree_bound(&g)?;
/// assert!(d >= 3); // can't beat density
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn complete_layering(graph: &Graph, params: &Params) -> Result<LayeringOutcome> {
    complete_layering_on::<SequentialBackend>(graph, params)
}

/// [`complete_layering`] on a caller-chosen [`ExecutionBackend`].
///
/// # Errors
///
/// See [`complete_layering`].
pub fn complete_layering_on<B: ExecutionBackend>(
    graph: &Graph,
    params: &Params,
) -> Result<LayeringOutcome> {
    let mut cluster = B::from_config(layering_config(graph, params));
    let (layering, stats) = complete_layering_in(graph, params, &mut cluster)?;
    Ok(LayeringOutcome {
        layering,
        metrics: cluster.into_metrics(),
        stats,
    })
}

/// [`complete_layering`] on a caller-*managed* backend, sized via
/// [`layering_config`]: the metering accumulates in `cluster`, so several
/// layering instances can run on backends owned by one [`InstanceGroup`] and
/// compose their metrics with the parallel semantics.
///
/// The Algorithm 1–4 per-vertex passes inside each stage execute as
/// vertex-parallel [`StageExecutor`] stages over [`Params::jobs`] host
/// threads; callers fanning several layering instances subdivide the budget
/// (via [`split_jobs`]) before cloning it into the per-instance params.
///
/// # Errors
///
/// See [`complete_layering`].
pub fn complete_layering_in<B: ExecutionBackend>(
    graph: &Graph,
    params: &Params,
    cluster: &mut B,
) -> Result<(LayerAssignment, LayeringStats)> {
    params.validate()?;
    let stage = StageExecutor::new(params.jobs);
    let n = graph.num_vertices();
    let m = graph.num_edges();
    let lambda_hat = estimate_lambda(graph, params);
    let k = params.k(lambda_hat);
    let s = params.local_memory(n);
    let budget_cap = budget_cap(s);
    let mut budget = params.effective_budget(n, k).min(budget_cap);

    // Input residency: the graph (2m edge-endpoint words + n vertex records)
    // spread evenly, as §1.1 allows arbitrary initial distribution.
    let machines = cluster.num_machines();
    let input_share = (2 * m + n).div_ceil(machines);
    cluster.checkpoint_residency(&vec![input_share; machines])?;

    let mut layering = LayerAssignment::unassigned(n);
    let mut offset = 0u32;
    let mut stats = LayeringStats {
        lambda_hat,
        k,
        initial_peel_rounds: 0,
        stages: 0,
        fallback_rounds: 0,
        layers: 0,
        final_budget: budget,
    };

    // Residual degrees for the peeling phases.
    let mut degree: Vec<usize> = (0..n).map(|v| graph.degree(v)).collect();
    let mut alive: Vec<bool> = vec![true; n];

    // ---- Stage 1: initial peeling, O(log k) rounds (Lemma 3.15). ----
    let peel_target = 2 * (32 - u32::leading_zeros(k.max(2) as u32 - 1)).max(1);
    for _ in 0..peel_target {
        if !peel_round(
            graph,
            &mut degree,
            &mut alive,
            k,
            &mut layering,
            &mut offset,
            cluster,
            &stage,
        )? {
            break;
        }
        stats.initial_peel_rounds += 1;
    }

    // ---- Stage 2: boosted partial assignments (Lemma 3.15). ----
    let mut stall_threshold = k;
    loop {
        let unassigned: Vec<usize> = (0..n).filter(|&v| alive[v]).collect();
        if unassigned.is_empty() {
            break;
        }
        if stats.stages >= params.max_stages {
            return Err(CoreError::StageBudgetExhausted {
                unassigned: unassigned.len(),
                stages: stats.stages,
            });
        }
        stats.stages += 1;
        let (sub, mapping) = graph.induced_subgraph(&unassigned);
        let layers_i = params.stage_layers(budget, k);
        let steps_i = params.effective_steps(layers_i);
        let partial =
            partial_layer_assignment_staged(&sub, budget, k, layers_i, steps_i, cluster, &stage)?;
        let newly = partial.layering.num_assigned();
        if newly > 0 {
            for (v_new, &v_old) in mapping.iter().enumerate() {
                if partial.layering.is_assigned(v_new) {
                    let layer = offset + partial.layering.layer(v_new);
                    layering.set_layer(v_old, layer);
                    alive[v_old] = false;
                }
            }
            // Keep residual degrees consistent for any later fallback.
            for (v_new, &v_old) in mapping.iter().enumerate() {
                if partial.layering.is_assigned(v_new) {
                    for &w in graph.neighbors(v_old) {
                        let w = w as usize;
                        if alive[w] {
                            degree[w] -= 1;
                        }
                    }
                }
            }
            offset += layers_i;
            stall_threshold = k;
        } else {
            // Guaranteed-progress fallback: escalate the peel threshold until
            // something comes off (doubling reaches the max degree quickly).
            stall_threshold = stall_threshold.saturating_mul(2);
            let progressed = peel_round(
                graph,
                &mut degree,
                &mut alive,
                stall_threshold,
                &mut layering,
                &mut offset,
                cluster,
                &stage,
            )?;
            stats.fallback_rounds += 1;
            if !progressed {
                continue; // threshold keeps doubling next iteration
            }
        }
        budget = budget.saturating_mul(budget).min(budget_cap);
        stats.final_budget = stats.final_budget.max(budget);
    }

    stats.layers = layering.max_layer().unwrap_or(0);
    Ok((layering, stats))
}

/// One metered peeling round: assigns every alive vertex with residual degree
/// `≤ threshold` to a fresh layer. Returns whether anything was peeled.
/// The communication volume is a [`StageExecutor::sum_by`] reduction over the
/// peeled set, charged once on the backend.
#[allow(clippy::too_many_arguments)]
fn peel_round<B: ExecutionBackend>(
    graph: &Graph,
    degree: &mut [usize],
    alive: &mut [bool],
    threshold: usize,
    layering: &mut LayerAssignment,
    offset: &mut u32,
    cluster: &mut B,
    stage: &StageExecutor,
) -> Result<bool> {
    let n = graph.num_vertices();
    let peel: Vec<usize> = (0..n)
        .filter(|&v| alive[v] && degree[v] <= threshold)
        .collect();
    if peel.is_empty() {
        return Ok(false);
    }
    // Announcement + aggregated decrements, as in the direct baseline.
    let volume: usize = peel.len() + stage.sum_by(&peel, |_, &v| degree[v]);
    let machines = cluster.num_machines();
    let load = volume.div_ceil(machines).max(1);
    cluster.charge_rounds(2, volume, load)?;
    *offset += 1;
    for &v in &peel {
        layering.set_layer(v, *offset);
        alive[v] = false;
    }
    for &v in &peel {
        for &w in graph.neighbors(v) {
            let w = w as usize;
            if alive[w] {
                degree[w] -= 1;
            }
        }
    }
    Ok(true)
}

/// Bounded layering variant used for *certificate generation* (the coreness
/// application): identical to [`complete_layering`] but without the
/// guaranteed-progress fallback — the stage loop simply stops when a stage
/// makes no progress or `stages_cap` is reached, returning a (possibly
/// partial) layering whose measured out-degree bound certifies
/// `coreness(v) ≤ bound` for every *assigned* vertex.
///
/// # Errors
///
/// Same as [`complete_layering`] (except stage exhaustion, which is the
/// expected stopping mode here and returns the partial result).
pub fn partial_layering_bounded(
    graph: &Graph,
    params: &Params,
    stages_cap: u32,
) -> Result<LayeringOutcome> {
    partial_layering_bounded_on::<SequentialBackend>(graph, params, stages_cap)
}

/// [`partial_layering_bounded`] on a caller-chosen [`ExecutionBackend`].
///
/// # Errors
///
/// Same as [`partial_layering_bounded`].
pub fn partial_layering_bounded_on<B: ExecutionBackend>(
    graph: &Graph,
    params: &Params,
    stages_cap: u32,
) -> Result<LayeringOutcome> {
    let mut cluster = B::from_config(layering_config(graph, params));
    let (layering, stats) = partial_layering_bounded_in(graph, params, stages_cap, &mut cluster)?;
    Ok(LayeringOutcome {
        layering,
        metrics: cluster.into_metrics(),
        stats,
    })
}

/// [`partial_layering_bounded`] on a caller-*managed* backend (sized via
/// [`layering_config`]), for composing certificate runs in an
/// [`InstanceGroup`] — the coreness guess ladder runs one of these per guess.
///
/// # Errors
///
/// Same as [`partial_layering_bounded`].
pub fn partial_layering_bounded_in<B: ExecutionBackend>(
    graph: &Graph,
    params: &Params,
    stages_cap: u32,
    cluster: &mut B,
) -> Result<(LayerAssignment, LayeringStats)> {
    params.validate()?;
    let stage = StageExecutor::new(params.jobs);
    let n = graph.num_vertices();
    let m = graph.num_edges();
    let lambda_hat = estimate_lambda(graph, params);
    let k = params.k(lambda_hat);
    let s = params.local_memory(n);
    let budget_cap = budget_cap(s);
    let mut budget = params.effective_budget(n, k).min(budget_cap);
    let machines = cluster.num_machines();
    cluster.checkpoint_residency(&vec![(2 * m + n).div_ceil(machines); machines])?;

    let mut layering = LayerAssignment::unassigned(n);
    let mut offset = 0u32;
    let mut stats = LayeringStats {
        lambda_hat,
        k,
        initial_peel_rounds: 0,
        stages: 0,
        fallback_rounds: 0,
        layers: 0,
        final_budget: budget,
    };
    let mut degree: Vec<usize> = (0..n).map(|v| graph.degree(v)).collect();
    let mut alive: Vec<bool> = vec![true; n];

    let peel_target = 2 * (32 - u32::leading_zeros(k.max(2) as u32 - 1)).max(1);
    for _ in 0..peel_target {
        if !peel_round(
            graph,
            &mut degree,
            &mut alive,
            k,
            &mut layering,
            &mut offset,
            cluster,
            &stage,
        )? {
            break;
        }
        stats.initial_peel_rounds += 1;
    }

    while stats.stages < stages_cap {
        let unassigned: Vec<usize> = (0..n).filter(|&v| alive[v]).collect();
        if unassigned.is_empty() {
            break;
        }
        stats.stages += 1;
        let (sub, mapping) = graph.induced_subgraph(&unassigned);
        let layers_i = params.stage_layers(budget, k);
        let steps_i = params.effective_steps(layers_i);
        let partial =
            partial_layer_assignment_staged(&sub, budget, k, layers_i, steps_i, cluster, &stage)?;
        if partial.layering.num_assigned() == 0 {
            break; // no fallback in bounded mode
        }
        for (v_new, &v_old) in mapping.iter().enumerate() {
            if partial.layering.is_assigned(v_new) {
                layering.set_layer(v_old, offset + partial.layering.layer(v_new));
                alive[v_old] = false;
            }
        }
        for (v_new, &v_old) in mapping.iter().enumerate() {
            if partial.layering.is_assigned(v_new) {
                for &w in graph.neighbors(v_old) {
                    let w = w as usize;
                    if alive[w] {
                        degree[w] -= 1;
                    }
                }
            }
        }
        offset += layers_i;
        budget = budget.saturating_mul(budget).min(budget_cap);
        stats.final_budget = stats.final_budget.max(budget);
    }
    stats.layers = layering.max_layer().unwrap_or(0);
    Ok((layering, stats))
}

/// Theorem 1.1: computes an orientation with max outdegree `O(λ log log n)`
/// in `poly(log log n)` metered MPC rounds.
///
/// # Errors
///
/// See [`complete_layering`].
///
/// # Examples
///
/// ```
/// use dgo_core::{orient, Params};
/// use dgo_graph::generators::barabasi_albert;
///
/// let g = barabasi_albert(800, 3, 11);
/// let r = orient(&g, &Params::practical(800))?;
/// r.orientation.validate(&g)?;
/// assert!(r.orientation.max_out_degree() < g.max_degree());
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn orient(graph: &Graph, params: &Params) -> Result<OrientResult> {
    orient_on::<SequentialBackend>(graph, params)
}

/// [`orient`] on a caller-chosen [`ExecutionBackend`] implementation (the
/// workspace ships one, `dgo_mpc::SequentialBackend`). On the large-`λ`
/// edge-partition path the per-part layerings execute as a host-parallel
/// [`InstanceGroup`] across [`Params::jobs`] threads, with outputs and
/// metrics bit-identical at any job count.
///
/// # Errors
///
/// See [`orient`].
pub fn orient_on<B: ExecutionBackend + Send>(
    graph: &Graph,
    params: &Params,
) -> Result<OrientResult> {
    params.validate()?;
    let n = graph.num_vertices();
    let lambda_hat = estimate_lambda(graph, params);
    let k = params.k(lambda_hat);
    let log_n = (n.max(2) as f64).log2();
    let parts_needed = (k as f64 / log_n).ceil() as usize;

    if parts_needed <= 1 {
        let outcome = complete_layering_on::<B>(graph, params)?;
        let orientation = outcome.layering.to_orientation(graph)?;
        return Ok(OrientResult {
            orientation,
            layering: Some(outcome.layering),
            metrics: outcome.metrics,
            stats: vec![outcome.stats],
            parts: 1,
        });
    }

    // Large-λ path (Theorem 1.1's proof): random edge partition, per-part
    // layering, union of orientations. Parts execute on disjoint cluster
    // sections — host-parallel as an instance group, metrics merge in
    // parallel. The thread budget splits between the two tiers: `outer`
    // threads fan the instances, each instance's vertex stages get the
    // remaining `inner` factor, so the tiers never oversubscribe the pool.
    let parts = partition_edges(graph, parts_needed, params.seed);
    let instances: Vec<&Graph> = parts.iter().filter(|part| part.num_edges() > 0).collect();
    let split = split_jobs(params.jobs, instances.len());
    // The cluster shape is λ-independent, so the per-part degeneracy (the
    // λ-hint) is computed inside each instance, host-parallel with the rest.
    let mut group = InstanceGroup::<B>::new(
        instances.iter().map(|part| layering_config(part, params)),
        split.outer(),
    );
    let outcomes = group.run_all(|i, backend| {
        let part = instances[i];
        let mut part_params = params.clone();
        part_params.jobs = split.inner(i);
        part_params.lambda_hint = degeneracy(part).value.max(1);
        let (layering, stats) = complete_layering_in(part, &part_params, backend)?;
        let orientation = layering.to_orientation(part)?;
        let directions: Vec<((u32, u32), bool)> = part
            .edges()
            .map(|(u, v)| {
                let toward_v = orientation.direction(u, v) == Some(true);
                ((u as u32, v as u32), toward_v)
            })
            .collect();
        Ok::<_, CoreError>((directions, stats))
    })?;
    let metrics = group.into_metrics()?;
    // A hash map is safe here because it is only ever probed by `get` in
    // `Orientation::from_fn` — its iteration order is never observed — and
    // at 10⁷-edge scale an ordered map would tax the hot merge path.
    // dgo-lint: allow(R4)
    let mut directions: HashMap<(u32, u32), bool> = HashMap::with_capacity(graph.num_edges());
    let mut stats = Vec::with_capacity(outcomes.len());
    for (part_directions, part_stats) in outcomes {
        directions.extend(part_directions);
        stats.push(part_stats);
    }
    let orientation = Orientation::from_fn(graph, |u, v| {
        *directions
            .get(&(u as u32, v as u32))
            .expect("every edge was assigned to exactly one part")
    });
    Ok(OrientResult {
        orientation,
        layering: None,
        metrics,
        stats,
        parts: parts_needed,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dgo_graph::generators::{barabasi_albert, clique, gnm, grid_2d, random_tree, star};

    #[test]
    fn complete_layering_on_random_graph() {
        let g = gnm(600, 1800, 1);
        let out = complete_layering(&g, &Params::practical(600)).unwrap();
        assert!(out.layering.is_complete());
        assert!(out.metrics.rounds > 0);
        assert!(out.stats.layers > 0);
    }

    #[test]
    fn out_degree_stays_near_k_log_log() {
        let g = gnm(1000, 4000, 2); // density 4
        let params = Params::practical(1000);
        let out = complete_layering(&g, &params).unwrap();
        let d = out.layering.out_degree_bound(&g).unwrap();
        let lambda = estimate_lambda(&g, &params);
        let loglog = (1000f64).log2().log2();
        // O(λ log log n) with a generous constant: the paper's bound modulo
        // implementation constants.
        assert!(
            (d as f64) <= 8.0 * lambda as f64 * loglog,
            "outdegree {d} too far above λ̂={lambda} · loglog n={loglog:.1}"
        );
    }

    #[test]
    fn forest_layering_low_outdegree() {
        let g = random_tree(2000, 4);
        let out = complete_layering(&g, &Params::practical(2000)).unwrap();
        assert!(out.layering.is_complete());
        let d = out.layering.out_degree_bound(&g).unwrap();
        assert!(d <= 12, "forest outdegree {d} too large");
    }

    #[test]
    fn star_layering() {
        let g = star(3000);
        let out = complete_layering(&g, &Params::practical(3000)).unwrap();
        assert!(out.layering.is_complete());
        // Star: leaves peel first, the center after; outdegree stays tiny.
        let d = out.layering.out_degree_bound(&g).unwrap();
        assert!(d <= 2, "star outdegree {d}");
    }

    #[test]
    fn tail_decay_property() {
        let g = gnm(2000, 6000, 7);
        let out = complete_layering(&g, &Params::practical(2000)).unwrap();
        let tails = out.layering.tail_sizes();
        // Geometric-ish decay overall: the tail at 2j is well below the tail
        // at j for the early layers (Lemma 3.15 property 2 up to constants).
        if tails.len() >= 8 {
            assert!(tails[7] * 2 < tails[0], "no decay: {tails:?}");
        }
    }

    #[test]
    fn orientation_path_small_lambda() {
        let g = grid_2d(30, 30);
        let r = orient(&g, &Params::practical(900)).unwrap();
        assert_eq!(r.parts, 1);
        r.orientation.validate(&g).unwrap();
        assert!(r.layering.is_some());
        assert!(r.orientation.max_out_degree() <= 16);
    }

    #[test]
    fn orientation_path_large_lambda_partitions() {
        // K64 on 64 vertices: λ = 32 > log2(64) = 6 → multiple parts.
        let g = clique(64);
        let mut params = Params::practical(64);
        params.exact_arboricity_threshold = 100;
        let r = orient(&g, &params).unwrap();
        assert!(r.parts > 1, "expected edge-partition path");
        r.orientation.validate(&g).unwrap();
        assert!(r.layering.is_none());
        // Outdegree must be sublinear in n: well below the trivial 63.
        assert!(r.orientation.max_out_degree() < 60);
    }

    #[test]
    fn power_law_orientation_beats_max_degree() {
        let g = barabasi_albert(1500, 3, 9);
        let r = orient(&g, &Params::practical(1500)).unwrap();
        r.orientation.validate(&g).unwrap();
        assert!(
            r.orientation.max_out_degree() * 2 < g.max_degree(),
            "outdegree {} vs Δ {}",
            r.orientation.max_out_degree(),
            g.max_degree()
        );
    }

    #[test]
    fn rounds_grow_slowly_with_n() {
        let params = Params::practical(0);
        let small = complete_layering(&gnm(500, 1500, 3), &params).unwrap();
        let large = complete_layering(&gnm(8000, 24000, 3), &params).unwrap();
        // 16x the instance must cost far less than 16x the rounds
        // (poly(log log n) scaling; allow 4x for constant noise).
        assert!(
            large.metrics.rounds < 4 * small.metrics.rounds.max(8),
            "rounds grew too fast: {} -> {}",
            small.metrics.rounds,
            large.metrics.rounds
        );
    }

    #[test]
    fn empty_and_tiny_graphs() {
        let out = complete_layering(&Graph::empty(5), &Params::practical(5)).unwrap();
        assert!(out.layering.is_complete());
        let r = orient(&Graph::empty(0), &Params::practical(0)).unwrap();
        assert_eq!(r.orientation.num_edges(), 0);
    }

    #[test]
    fn lambda_hint_respected() {
        let g = gnm(300, 900, 5);
        let mut params = Params::practical(300);
        params.lambda_hint = 7;
        let out = complete_layering(&g, &params).unwrap();
        assert_eq!(out.stats.lambda_hat, 7);
        assert_eq!(out.stats.k, 14);
    }

    #[test]
    fn deterministic_end_to_end() {
        let g = gnm(400, 1200, 8);
        let p = Params::practical(400);
        let a = complete_layering(&g, &p).unwrap();
        let b = complete_layering(&g, &p).unwrap();
        assert_eq!(a.layering, b.layering);
        assert_eq!(a.metrics.rounds, b.metrics.rounds);
    }

    use dgo_graph::Graph;
}
