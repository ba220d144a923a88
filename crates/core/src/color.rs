//! Coloring with `O(λ log log n)` colors — Theorem 1.2.
//!
//! Pipeline (§4 of the paper):
//!
//! 1. **Vertex partition** (Lemma 2.2) when `λ ≫ log n`: split vertices into
//!    `⌈k / log n⌉` parts of arboricity `O(log n)` each, color the parts with
//!    *disjoint palettes* (so dropped cross-part edges can never clash), in
//!    parallel.
//! 2. **Layering**: compute the `Θ(log n)`-layer H-partition with out-degree
//!    `d = O(λ log log n)` (Lemma 3.15 / [`crate::complete_layering`]).
//! 3. **Top-down batched coloring**: process layers from highest to lowest
//!    in `poly(log log n)` batches. Within a batch, every vertex learns the
//!    colors along its outgoing (toward-higher-layer) edges via *directed
//!    graph exponentiation* (Lemma 4.1 — metered by the
//!    [`dgo_mpc::primitives::gather_bundles`] cost model plus the
//!    exponentiation tree depth), after which each machine simulates the
//!    LOCAL degree+1 list coloring of its batch locally. Each layer is a
//!    degree+1 list-coloring instance with palette `3d`: at most `d`
//!    strictly-higher neighbors are already colored and the within-layer
//!    degree is at most `d`, leaving `≥ 2d ≥ d+1` free colors — the paper's
//!    "at least 2d available colors".
//!
//! The within-layer subroutine is the randomized trial coloring of
//! [`dgo_local::randomized_list_coloring`], substituting for [HKNT22]: it
//! runs on the gathered neighbourhoods, so it adds no MPC round, and any
//! proper list coloring stays inside the `3d` palette. Its simulated LOCAL
//! rounds are reported separately in [`ColorStats::simulated_local_rounds`].

use crate::error::Result;
use crate::orient::{complete_layering_on, lambda_and_parts, layering_config, LayeringStats};
use crate::params::Params;
use crate::reduce::{partition_vertices, VertexPart};
use dgo_graph::{Coloring, Graph};
use dgo_local::randomized_list_coloring;
use dgo_mpc::instance::{check_group_capacity, run_indexed, split_jobs};
use dgo_mpc::primitives::gather_bundles;
use dgo_mpc::{ClusterConfig, ExecutionBackend, Metrics, SequentialBackend};

/// Execution statistics of the coloring pipeline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ColorStats {
    /// Palette size used (per part): `3d`.
    pub palette: usize,
    /// Layering out-degree `d` the palette is based on.
    pub layering_out_degree: usize,
    /// Top-down layer batches executed.
    pub batches: u32,
    /// Total LOCAL rounds simulated inside gathered neighborhoods (these are
    /// *not* MPC rounds — they run on local data after the gathers).
    pub simulated_local_rounds: u64,
    /// Statistics of the underlying layering(s).
    pub layering_stats: Vec<LayeringStats>,
    /// Vertex parts (1 = no Lemma 2.2 split).
    pub parts: usize,
}

/// Result of Theorem 1.2's coloring pipeline.
#[derive(Debug, Clone)]
pub struct ColorResult {
    /// A proper coloring with `O(λ log log n)` colors.
    pub coloring: Coloring,
    /// Merged MPC metering.
    pub metrics: Metrics,
    /// Execution statistics.
    pub stats: ColorStats,
}

/// Theorem 1.2: colors `graph` with `O(λ log log n)` colors in
/// `poly(log log n)` metered MPC rounds.
///
/// # Errors
///
/// * [`CoreError::InvalidParams`](crate::CoreError::InvalidParams) for bad
///   parameters, a [`Params::lambda_hint`] above the vertex count included.
/// * Propagates layering errors and MPC capacity violations.
///
/// # Examples
///
/// ```
/// use dgo_core::{color, Params};
/// use dgo_graph::generators::star;
///
/// // Star: Δ = n-1 but λ = 1 — density-dependent coloring shines.
/// let g = star(1000);
/// let r = color(&g, &Params::practical(1000))?;
/// r.coloring.validate(&g)?;
/// assert!(r.coloring.num_colors() <= 8); // O(λ log log n), λ = 1
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn color(graph: &Graph, params: &Params) -> Result<ColorResult> {
    color_on::<SequentialBackend>(graph, params)
}

/// [`color`] on a caller-chosen [`ExecutionBackend`] implementation (the
/// workspace ships one, `dgo_mpc::SequentialBackend`). On the Lemma 2.2
/// vertex-partition path, the independent per-part pipelines execute
/// host-parallel across [`Params::jobs`] threads; the disjoint-palette
/// combine folds in part order, so outputs are bit-identical to the
/// sequential loop at any job count.
///
/// # Errors
///
/// See [`color`].
pub fn color_on<B: ExecutionBackend>(graph: &Graph, params: &Params) -> Result<ColorResult> {
    params.validate()?;
    let n = graph.num_vertices();
    let (lambda_hat, parts_needed) = lambda_and_parts(graph, params)?;

    if parts_needed <= 1 {
        // The layering takes this λ̂ as its hint instead of estimating again.
        let mut single = params.clone();
        single.lambda_hint = lambda_hat;
        return color_single::<B>(graph, &single);
    }

    // Lemma 2.2 path: vertex partition, disjoint palettes, parallel parts.
    // Each part's pipeline is self-contained (own scratch clusters, λ
    // re-estimated on the sparser part), so parts fan across host threads;
    // only the palette-offset fold below is order-sensitive and runs on the
    // host in part order. The thread budget splits between the part fan-out
    // and each part's vertex stages so the tiers share one budget. An empty
    // part colors nothing, so it is dropped before the fan-out and never
    // takes one of the inner budgets.
    let parts: Vec<VertexPart> = partition_vertices(graph, parts_needed, params.seed)
        .into_iter()
        .filter(|part| part.graph.num_vertices() > 0)
        .collect();
    let split = split_jobs(params.jobs, parts.len());
    let part_results: Vec<ColorResult> = run_indexed(parts.len(), split.outer(), |i| {
        let mut part_params = params.clone();
        part_params.jobs = split.inner(i);
        part_params.lambda_hint = 0; // re-estimate on the sparser part
        color_single::<B>(&parts[i].graph, &part_params)
    })?;

    let mut colors = vec![0u32; n];
    let mut metrics = Metrics::new();
    let mut palette_offset = 0u32;
    let mut stats = ColorStats {
        palette: 0,
        layering_out_degree: 0,
        batches: 0,
        simulated_local_rounds: 0,
        layering_stats: Vec::new(),
        parts: parts_needed,
    };
    let mut capacity = 0usize;
    for (part, sub) in parts.iter().zip(part_results) {
        capacity = capacity
            .saturating_add(layering_config(&part.graph, params).global_memory())
            .saturating_add(coloring_config(&part.graph, params).global_memory());
        for (v_new, &v_old) in part.mapping.iter().enumerate() {
            colors[v_old] = palette_offset + sub.coloring.color(v_new);
        }
        palette_offset += sub.coloring.palette_bound() as u32;
        metrics.merge_parallel(&sub.metrics);
        stats.palette += sub.stats.palette;
        stats.layering_out_degree = stats.layering_out_degree.max(sub.stats.layering_out_degree);
        stats.batches = stats.batches.max(sub.stats.batches);
        stats.simulated_local_rounds += sub.stats.simulated_local_rounds;
        stats.layering_stats.extend(sub.stats.layering_stats);
    }
    // The disjoint-section composition must fit the union cluster hosting
    // every part's sections — the same aggregate check InstanceGroup
    // enforces for the layering compositions (each part runs two strict
    // clusters, so the group semantics are strict).
    check_group_capacity(&mut metrics, parts.len(), capacity, true)?;
    Ok(ColorResult {
        coloring: Coloring::new(colors)?,
        metrics,
        stats,
    })
}

/// Cluster configuration for the coloring phase (sized like the layering
/// cluster minus the view-tree headroom). Shared by [`color_single`] and the
/// aggregate-capacity accounting in [`color_on`] so they cannot drift.
fn coloring_config(graph: &Graph, params: &Params) -> ClusterConfig {
    let n = graph.num_vertices();
    let m = graph.num_edges();
    let s = params.local_memory(n);
    let global = 4 * (2 * m + n) + s;
    ClusterConfig::new(global.div_ceil(s).max(1), s)
}

/// The single-part pipeline: layering + batched top-down list coloring.
fn color_single<B: ExecutionBackend>(graph: &Graph, params: &Params) -> Result<ColorResult> {
    let n = graph.num_vertices();
    let outcome = complete_layering_on::<B>(graph, params)?;
    let layering = &outcome.layering;
    let d = layering.out_degree_bound(graph)?.max(1);
    let palette = 3 * d;
    let total_layers = layering.max_layer().unwrap_or(0);

    // Batching: split 1..=L into `batches` contiguous ranges, processed from
    // the top (highest layers first).
    let batches = params
        .effective_color_batches(n)
        .clamp(1, total_layers.max(1));

    // A dedicated cluster for the coloring phase (the layering metered its
    // own); sized like the layering cluster.
    let mut cluster = B::from_config(coloring_config(graph, params));

    let mut colors: Vec<u32> = vec![u32::MAX; n];
    let mut simulated_local_rounds = 0u64;
    let mut seed = params.seed;

    // Precompute the members of each layer.
    let mut layer_members: Vec<Vec<usize>> = vec![Vec::new(); total_layers as usize + 1];
    for v in 0..n {
        layer_members[layering.layer(v) as usize].push(v);
    }
    // Per-layer scratch, allocated once: activity flags and color lists
    // (set for a layer's members, reset after its run), and a palette-sized
    // table marking the colors a vertex's neighbours hold, stamped per
    // vertex so it is never cleared.
    let mut active = vec![false; n];
    let mut lists: Vec<Vec<u32>> = vec![Vec::new(); n];
    let mut held = vec![0usize; palette];
    let mut stamp = 0usize;

    let mut hi = total_layers;
    for b in 0..batches {
        // Batch covers layers (lo..=hi], sized to spread evenly.
        let remaining_batches = batches - b;
        let lo = hi - hi.div_ceil(remaining_batches).min(hi);
        // --- Lemma 4.1 gather: batch vertices learn the colors of their
        // strictly-higher (already colored) neighbors. ---
        let mut requests: Vec<(u64, u64)> = Vec::new();
        for layer in (lo + 1)..=hi {
            for &v in &layer_members[layer as usize] {
                for &w in graph.neighbors(v) {
                    if layering.layer(w as usize) > hi {
                        requests.push((v as u64, u64::from(w)));
                    }
                }
            }
        }
        // Every requested bundle is one neighbor's color: one word.
        gather_bundles(&mut cluster, &requests, n, |_| Some(1))?;
        // --- Directed exponentiation cost: learning the within-batch
        // reachable sets costs O(log(batch depth)) additional rounds. ---
        let batch_depth = (hi - lo) as usize;
        let expo_rounds = (usize::BITS - batch_depth.max(1).leading_zeros()) as u64;
        let expo_volume = requests.len().max(1);
        cluster.charge_rounds(
            expo_rounds,
            expo_volume,
            expo_volume.div_ceil(cluster.num_machines()).max(1),
        )?;

        // --- Local simulation of the per-layer list coloring (top-down
        // within the batch; no further MPC rounds). ---
        for layer in ((lo + 1)..=hi).rev() {
            let members = &layer_members[layer as usize];
            if members.is_empty() {
                continue;
            }
            for &v in members {
                active[v] = true;
                // Colors come from the palette, so they index the table.
                stamp += 1;
                let mut taken = 0;
                for &w in graph.neighbors(v) {
                    let c = colors[w as usize];
                    if c != u32::MAX && held[c as usize] != stamp {
                        held[c as usize] = stamp;
                        taken += 1;
                    }
                }
                let mut list = Vec::with_capacity(palette - taken);
                list.extend((0..palette as u32).filter(|&c| held[c as usize] != stamp));
                debug_assert!(
                    !list.is_empty(),
                    "palette 3d must leave free colors (vertex {v})"
                );
                lists[v] = list;
            }
            seed = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let run = randomized_list_coloring(graph, &lists, &active, seed, 0);
            simulated_local_rounds += run.local_rounds;
            for &v in members {
                debug_assert_ne!(run.colors[v], u32::MAX, "list coloring must complete");
                colors[v] = run.colors[v];
                active[v] = false;
                lists[v] = Vec::new();
            }
        }
        hi = lo;
        if hi == 0 {
            break;
        }
    }
    debug_assert_eq!(hi, 0, "all layers must be processed");

    // Isolated/empty corner: vertices of an edgeless graph may have layer
    // assignments but no colors if total_layers == 0 paths; give color 0.
    for c in colors.iter_mut() {
        if *c == u32::MAX {
            *c = 0;
        }
    }

    let mut metrics = outcome.metrics;
    metrics.merge_sequential(cluster.metrics());
    Ok(ColorResult {
        coloring: Coloring::new(colors)?,
        metrics,
        stats: ColorStats {
            palette,
            layering_out_degree: d,
            batches,
            simulated_local_rounds,
            layering_stats: vec![outcome.stats],
            parts: 1,
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dgo_graph::generators::{
        barabasi_albert, clique, gnm, grid_2d, random_forest, random_tree, star,
    };

    fn check(graph: &Graph, params: &Params) -> ColorResult {
        let r = color(graph, params).unwrap();
        r.coloring.validate(graph).unwrap();
        r
    }

    #[test]
    fn colors_random_graphs_properly() {
        for seed in 0..3 {
            let g = gnm(500, 1500, seed);
            let r = check(&g, &Params::practical(500));
            assert!(r.coloring.num_colors() <= r.stats.palette);
        }
    }

    #[test]
    fn star_needs_few_colors_despite_huge_delta() {
        let g = star(2000);
        let r = check(&g, &Params::practical(2000));
        assert!(g.max_degree() >= 1999);
        assert!(
            r.coloring.num_colors() <= 8,
            "star took {} colors",
            r.coloring.num_colors()
        );
    }

    #[test]
    fn forest_coloring_near_constant() {
        let g = random_forest(1500, 10, 3);
        let r = check(&g, &Params::practical(1500));
        assert!(
            r.coloring.num_colors() <= 16,
            "forest took {} colors",
            r.coloring.num_colors()
        );
    }

    #[test]
    fn power_law_beats_delta_plus_one() {
        let g = barabasi_albert(2000, 3, 5);
        let r = check(&g, &Params::practical(2000));
        assert!(
            r.coloring.num_colors() < g.max_degree() / 2,
            "{} colors vs Δ+1 = {}",
            r.coloring.num_colors(),
            g.max_degree() + 1
        );
    }

    #[test]
    fn palette_scales_with_lambda_loglog() {
        let g = gnm(1000, 8000, 2); // density 8
        let params = Params::practical(1000);
        let r = check(&g, &params);
        let lambda = crate::estimate_lambda(&g, &params);
        let loglog = (1000f64).log2().log2();
        assert!(
            (r.stats.palette as f64) <= 24.0 * lambda as f64 * loglog,
            "palette {} too large for λ̂ {lambda}",
            r.stats.palette
        );
    }

    #[test]
    fn clique_uses_vertex_partition_path() {
        let g = clique(80); // λ = 40 > log2(80)
        let mut params = Params::practical(80);
        params.exact_arboricity_threshold = 100;
        let r = check(&g, &params);
        assert!(r.stats.parts > 1, "expected Lemma 2.2 split");
        // A clique needs >= 80 colors no matter what.
        assert!(r.coloring.num_colors() >= 80);
    }

    #[test]
    fn grid_coloring_constant_palette() {
        let g = grid_2d(25, 25);
        let r = check(&g, &Params::practical(625));
        assert!(r.coloring.num_colors() <= 20);
    }

    #[test]
    fn batches_bound_respected() {
        let g = random_tree(800, 1);
        let mut params = Params::practical(800);
        params.color_batches = 2;
        let r = check(&g, &params);
        assert!(r.stats.batches <= 2);
    }

    #[test]
    fn empty_and_edgeless() {
        // Isolated vertices draw random colors from the minimal palette.
        let r = check(&Graph::empty(10), &Params::practical(10));
        assert!(r.coloring.num_colors() <= r.stats.palette);
        let r = color(&Graph::empty(0), &Params::practical(0)).unwrap();
        assert!(r.coloring.is_empty());
    }

    #[test]
    fn deterministic() {
        let g = gnm(300, 900, 4);
        let p = Params::practical(300);
        let a = color(&g, &p).unwrap();
        let b = color(&g, &p).unwrap();
        assert_eq!(a.coloring, b.coloring);
    }

    #[test]
    fn simulated_local_rounds_reported() {
        let g = gnm(400, 1200, 6);
        let r = check(&g, &Params::practical(400));
        assert!(r.stats.simulated_local_rounds > 0);
    }

    use dgo_graph::Graph;
}
