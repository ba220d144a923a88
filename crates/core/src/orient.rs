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
//! [`complete_layering_in`] and the coreness ladder's fallback-free
//! [`partial_layering_bounded_in`] are two short loops over one private
//! stage loop, so both always run the same prelude, Stage 1 and stages.
//!
//! Theorem 1.1 wraps the layering: when `k = Θ(λ) ≫ log n`, the edge set is
//! first split by Lemma 2.1 so each part has arboricity `O(log n)`; parts
//! run (conceptually in parallel), and their orientations union. The union
//! is built in one [`Orientation::from_fn`] pass over the input graph: each
//! edge `{u, v}` of part `p` points toward the larger of `(ℓ_p(u), u)` and
//! `(ℓ_p(v), v)` ([`Orientation::ranked_direction`] on `ℓ_p`), exactly as
//! part `p`'s own orientation would direct it.

use crate::assign::partial_layer_assignment_staged;
use crate::error::{CoreError, Result};
use crate::params::Params;
use crate::reduce::partition_edges;
use crate::stage::StageExecutor;
use dgo_graph::{arboricity_bounds, degeneracy, Graph, LayerAssignment, Orientation};
use dgo_mpc::{
    split_jobs, ClusterConfig, ExecutionBackend, InstanceGroup, Metrics, SequentialBackend,
};

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

/// Estimates the arboricity for parameterization: the explicit hint when
/// set, else [`arboricity_bounds`]`(..).lower` — `⌈α⌉` from the exact flow
/// machinery on graphs of at most [`Params::exact_arboricity_threshold`]
/// vertices, and `⌈density⌉` of the densest peeling suffix (at least `α/2`)
/// above it.
pub fn estimate_lambda(graph: &Graph, params: &Params) -> usize {
    if params.lambda_hint > 0 {
        return params.lambda_hint;
    }
    arboricity_bounds(graph, params.exact_arboricity_threshold)
        .lower
        .max(1)
}

/// λ̂ and the part count `⌈k / log₂ n⌉` of Theorem 1.1's edge partition
/// (Lemma 2.1) and Theorem 1.2's vertex partition (Lemma 2.2): the one λ̂
/// estimate each pipeline makes on its input graph.
pub(crate) fn lambda_and_parts(graph: &Graph, params: &Params) -> (usize, usize) {
    let lambda_hat = estimate_lambda(graph, params);
    let log_n = (graph.num_vertices().max(2) as f64).log2();
    let parts = (params.k(lambda_hat) as f64 / log_n).ceil() as usize;
    (lambda_hat, parts)
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

/// The cluster configuration a layering backend is sized for, such as the
/// one [`partial_layering_bounded_in`] runs on. Callers composing several
/// layering instances (e.g. via [`InstanceGroup`]) build one backend per
/// instance from this.
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
pub(crate) fn complete_layering_in<B: ExecutionBackend>(
    graph: &Graph,
    params: &Params,
    cluster: &mut B,
) -> Result<(LayerAssignment, LayeringStats)> {
    let mut state = LayeringState::start(graph, params, cluster)?;
    let k = state.stats.k;
    // Guaranteed-progress fallback: after a stage that assigns nothing, a
    // peel round whose threshold doubles until something comes off
    // (doubling reaches the max degree quickly).
    let mut threshold = k;
    while state.remaining > 0 {
        if state.stats.stages >= params.max_stages {
            return Err(CoreError::StageBudgetExhausted {
                unassigned: state.remaining,
                stages: state.stats.stages,
            });
        }
        if state.stage()? {
            threshold = k;
        } else {
            threshold = threshold.saturating_mul(2);
            state.fallback_round(threshold)?;
        }
    }
    Ok(state.finish())
}

/// Bounded layering for *certificate generation* (the coreness
/// application), on a caller-*managed* backend sized via
/// [`layering_config`]: the stage loop of [`complete_layering`] without
/// the guaranteed-progress fallback. It stops at the first stage that
/// assigns nothing or after `stages_cap` stages (`0` leaves Stage 1 alone),
/// returning a (possibly partial) layering whose measured out-degree bound
/// certifies `coreness(v) ≤ bound` for every *assigned* vertex. The coreness
/// guess ladder runs one of these per guess in an [`InstanceGroup`].
///
/// # Errors
///
/// Same as [`complete_layering`], except stage exhaustion: stopping is the
/// expected mode here and returns the partial result.
pub fn partial_layering_bounded_in<B: ExecutionBackend>(
    graph: &Graph,
    params: &Params,
    stages_cap: u32,
    cluster: &mut B,
) -> Result<(LayerAssignment, LayeringStats)> {
    let mut state = LayeringState::start(graph, params, cluster)?;
    while state.remaining > 0 && state.stats.stages < stages_cap {
        if !state.stage()? {
            break;
        }
    }
    Ok(state.finish())
}

/// Lemma 3.15's layering in progress: the one stage loop that
/// [`complete_layering_in`] and [`partial_layering_bounded_in`] step.
/// Building it runs the prelude and Stage 1; the two loops then take boosted
/// Stage-2 stages and fallback peel rounds until they [`finish`](Self::finish).
struct LayeringState<'a, B> {
    graph: &'a Graph,
    params: &'a Params,
    cluster: &'a mut B,
    executor: StageExecutor,
    layering: LayerAssignment,
    /// Layers used so far: the next step appends after them.
    offset: u32,
    /// Residual degrees for the peel rounds.
    degree: Vec<usize>,
    alive: Vec<bool>,
    /// Vertices still unassigned.
    remaining: usize,
    budget: usize,
    budget_cap: usize,
    stats: LayeringStats,
}

impl<'a, B: ExecutionBackend> LayeringState<'a, B> {
    /// Validates `params`, estimates λ̂, checkpoints the input residency and
    /// runs Stage 1: `O(log k)` rounds of degree-`≤ k` peeling (Lemma 3.15).
    fn start(graph: &'a Graph, params: &'a Params, cluster: &'a mut B) -> Result<Self> {
        params.validate()?;
        let n = graph.num_vertices();
        let m = graph.num_edges();
        let lambda_hat = estimate_lambda(graph, params);
        let k = params.k(lambda_hat);
        let budget_cap = budget_cap(params.local_memory(n));
        let budget = params.effective_budget(n, k).min(budget_cap);
        // Input residency: the graph (2m edge-endpoint words + n vertex
        // records) spread evenly, as §1.1 allows arbitrary initial
        // distribution — a uniform share with no per-machine prefix.
        let machines = cluster.num_machines();
        cluster.checkpoint_residency((2 * m + n).div_ceil(machines), &[])?;
        let mut state = LayeringState {
            graph,
            params,
            cluster,
            executor: StageExecutor::new(params.jobs),
            layering: LayerAssignment::unassigned(n),
            offset: 0,
            degree: (0..n).map(|v| graph.degree(v)).collect(),
            alive: vec![true; n],
            remaining: n,
            budget,
            budget_cap,
            stats: LayeringStats {
                lambda_hat,
                k,
                initial_peel_rounds: 0,
                stages: 0,
                fallback_rounds: 0,
                layers: 0,
                final_budget: budget,
            },
        };
        // `2·⌈log₂ k⌉` rounds, in `usize` so no `k` wraps.
        let peel_target = 2 * (usize::BITS - (k.max(2) - 1).leading_zeros());
        while state.stats.initial_peel_rounds < peel_target && state.peel_round(k)? {
            state.stats.initial_peel_rounds += 1;
        }
        Ok(state)
    }

    /// One boosted Stage-2 stage (Lemma 3.15): Algorithm 4 on the subgraph
    /// induced by the unassigned vertices, its layers appended after the
    /// current ones. Returns whether it assigned anything; only progress
    /// boosts the budget `B ← min(B², cap)`.
    fn stage(&mut self) -> Result<bool> {
        self.stats.stages += 1;
        let unassigned: Vec<usize> = (0..self.alive.len()).filter(|&v| self.alive[v]).collect();
        let (sub, mapping) = self.graph.induced_subgraph(&unassigned);
        let (budget, k) = (self.budget, self.stats.k);
        let layers = self.params.stage_layers(budget, k);
        let steps = self.params.effective_steps(layers);
        let partial = partial_layer_assignment_staged(
            &sub,
            budget,
            k,
            layers,
            steps,
            &mut *self.cluster,
            &self.executor,
        )?;
        let mut assigned = Vec::with_capacity(partial.layering.num_assigned());
        for (v_new, &v_old) in mapping.iter().enumerate() {
            if partial.layering.is_assigned(v_new) {
                let layer = self.offset + partial.layering.layer(v_new);
                self.layering.set_layer(v_old, layer);
                assigned.push(v_old);
            }
        }
        if assigned.is_empty() {
            return Ok(false);
        }
        self.retire(&assigned);
        self.offset += layers;
        self.boost();
        Ok(true)
    }

    /// The guaranteed-progress fallback after a stage that assigned nothing:
    /// one peel round at `threshold`, boosting the budget if it peeled.
    fn fallback_round(&mut self, threshold: usize) -> Result<()> {
        self.stats.fallback_rounds += 1;
        if self.peel_round(threshold)? {
            self.boost();
        }
        Ok(())
    }

    /// Ends the loop: records the layer count and hands back the layering.
    fn finish(mut self) -> (LayerAssignment, LayeringStats) {
        self.stats.layers = self.layering.max_layer().unwrap_or(0);
        (self.layering, self.stats)
    }

    /// One metered peeling round: assigns every alive vertex with residual
    /// degree `≤ threshold` to a fresh layer. Returns whether anything was
    /// peeled. The communication volume is a [`StageExecutor::sum_by`]
    /// reduction over the peeled set, charged once on the backend.
    fn peel_round(&mut self, threshold: usize) -> Result<bool> {
        let peel: Vec<usize> = (0..self.alive.len())
            .filter(|&v| self.alive[v] && self.degree[v] <= threshold)
            .collect();
        if peel.is_empty() {
            return Ok(false);
        }
        // Announcement + aggregated decrements, as in the direct baseline.
        let volume = peel.len() + self.executor.sum_by(&peel, |_, &v| self.degree[v]);
        let load = volume.div_ceil(self.cluster.num_machines()).max(1);
        self.cluster.charge_rounds(2, volume, load)?;
        self.offset += 1;
        for &v in &peel {
            self.layering.set_layer(v, self.offset);
        }
        self.retire(&peel);
        Ok(true)
    }

    /// Marks `vertices` (already given their layers) assigned, then takes
    /// them out of their alive neighbors' residual degrees.
    fn retire(&mut self, vertices: &[usize]) {
        for &v in vertices {
            self.alive[v] = false;
        }
        self.remaining -= vertices.len();
        for &v in vertices {
            for &w in self.graph.neighbors(v) {
                let w = w as usize;
                if self.alive[w] {
                    self.degree[w] -= 1;
                }
            }
        }
    }

    /// `B ← min(B², cap)`, after a step that made progress.
    fn boost(&mut self) {
        self.budget = self.budget.saturating_mul(self.budget).min(self.budget_cap);
        self.stats.final_budget = self.stats.final_budget.max(self.budget);
    }
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
    let (lambda_hat, parts_needed) = lambda_and_parts(graph, params);

    if parts_needed <= 1 {
        // The layering takes this λ̂ as its hint instead of estimating again.
        let mut single = params.clone();
        single.lambda_hint = lambda_hat;
        let outcome = complete_layering_on::<B>(graph, &single)?;
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
    // remaining `inner` factor, so the tiers never oversubscribe the host.
    let (parts, part_of) = partition_edges(graph, parts_needed, params.seed);
    let instances: Vec<usize> = (0..parts.len())
        .filter(|&p| parts[p].num_edges() > 0)
        .collect();
    let split = split_jobs(params.jobs, instances.len());
    // The cluster shape is λ-independent, so the per-part degeneracy (the
    // λ-hint) is computed inside each instance, host-parallel with the rest.
    let mut group = InstanceGroup::<B>::new(
        instances
            .iter()
            .map(|&p| layering_config(&parts[p], params)),
        split.outer(),
    );
    let outcomes = group.run_all(|i, backend| {
        let part = &parts[instances[i]];
        let mut part_params = params.clone();
        part_params.jobs = split.inner(i);
        part_params.lambda_hint = degeneracy(part).value.max(1);
        complete_layering_in(part, &part_params, backend)
    })?;
    let metrics = group.into_metrics()?;
    // Part `p`'s layers; an edgeless part ran no instance and owns no edge.
    let mut layers: Vec<&[u32]> = vec![&[]; parts.len()];
    for (&p, (layering, _)) in instances.iter().zip(&outcomes) {
        layers[p] = layering.as_slice();
    }
    // `from_fn` visits the edges in `graph.edges()` order, the order of
    // `part_of`.
    let mut edge_parts = part_of.iter();
    let orientation = Orientation::from_fn(graph, |u, v| {
        let layer = layers[*edge_parts.next().expect("one part per edge") as usize];
        Orientation::ranked_direction(layer, u, v)
    });
    let stats = outcomes.into_iter().map(|(_, stats)| stats).collect();
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
    use dgo_graph::generators::{
        barabasi_albert, clique, gnm, grid_2d, planted_dense, random_tree, star,
    };

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
    fn non_finite_k_factor_is_invalid_params() {
        let g = gnm(200, 800, 1);
        for k_factor in [f64::NAN, f64::INFINITY] {
            let mut params = Params::practical(200);
            params.k_factor = k_factor;
            assert!(
                matches!(orient(&g, &params), Err(CoreError::InvalidParams { .. })),
                "k_factor {k_factor} must be rejected"
            );
        }
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

    /// λ-hint 1 parameters, so Stage 1 leaves work for boosted stages.
    fn low_hint(n: usize) -> Params {
        let mut params = Params::practical(n).with_jobs(1);
        params.lambda_hint = 1;
        params
    }

    /// [`partial_layering_bounded_in`] on a fresh backend sized by
    /// [`layering_config`], returning the backend's metrics too.
    fn bounded(
        g: &Graph,
        params: &Params,
        stages_cap: u32,
    ) -> (LayerAssignment, LayeringStats, Metrics) {
        let mut cluster = SequentialBackend::from_config(layering_config(g, params));
        let (layering, stats) =
            partial_layering_bounded_in(g, params, stages_cap, &mut cluster).unwrap();
        (layering, stats, cluster.into_metrics())
    }

    #[test]
    fn bounded_matches_complete_without_fallback() {
        for g in [barabasi_albert(2000, 4, 3), gnm(1500, 4500, 17)] {
            let params = low_hint(g.num_vertices());
            let complete = complete_layering(&g, &params).unwrap();
            assert!(complete.stats.stages > 0, "Stage 2 must run");
            assert_eq!(complete.stats.fallback_rounds, 0);
            let (layering, stats, metrics) = bounded(&g, &params, params.max_stages);
            assert_eq!(layering, complete.layering);
            assert_eq!(stats, complete.stats);
            assert_eq!(metrics, complete.metrics);
        }
    }

    #[test]
    fn bounded_at_cap_zero_is_stage_one_alone() {
        let g = planted_dense(3000, 9000, 40, 5);
        let params = low_hint(g.num_vertices());
        let complete = complete_layering(&g, &params).unwrap();
        let (layering, stats, metrics) = bounded(&g, &params, 0);
        assert_eq!(stats.stages, 0);
        assert!(stats.initial_peel_rounds > 0);
        assert_eq!(
            stats.initial_peel_rounds,
            complete.stats.initial_peel_rounds
        );
        assert_eq!(stats.layers, stats.initial_peel_rounds);
        // Stage 1's layers are the first layers of the complete layering.
        for v in 0..g.num_vertices() {
            if complete.layering.layer(v) <= stats.initial_peel_rounds {
                assert_eq!(layering.layer(v), complete.layering.layer(v));
            } else {
                assert!(!layering.is_assigned(v), "vertex {v} assigned past Stage 1");
            }
        }
        // Each peel round is one announcement and one decrement round.
        assert_eq!(metrics.rounds, 2 * u64::from(stats.initial_peel_rounds));
    }

    #[test]
    fn stage_budget_exhaustion_is_reported() {
        let g = planted_dense(3000, 9000, 40, 5);
        let mut params = low_hint(g.num_vertices());
        params.max_stages = 1;
        assert_eq!(
            complete_layering(&g, &params).unwrap_err(),
            CoreError::StageBudgetExhausted {
                unassigned: 498,
                stages: 1,
            }
        );
    }

    use dgo_graph::Graph;
}
