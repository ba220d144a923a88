//! Direct LOCAL→MPC simulation baseline.
//!
//! The natural way to run \[BE08\] peeling in MPC is one-LOCAL-round-per-
//! MPC-phase: each phase, removed vertices announce themselves to the
//! machines holding their edges, and aggregated degree decrements flow back
//! to the vertex owners through a constant-depth aggregation tree. This uses
//! `Θ(log n)` MPC phases — the curve the paper's `poly(log log n)` algorithm
//! is measured against in experiment E1 (§1.2 calls this the state of the
//! art before \[GLM19\] and, apart from the `2^Θ(√log n)` sparsification route,
//! the only executable comparator).

use crate::peeling::be08_peeling;
use dgo_graph::{Graph, LayerAssignment};
use dgo_mpc::{Cluster, ClusterConfig, Metrics, Result};

/// Result of the direct LOCAL→MPC peeling simulation.
#[derive(Debug, Clone)]
pub struct DirectMpcResult {
    /// The computed H-partition: [`be08_peeling`]'s layering.
    pub layering: LayerAssignment,
    /// Metered MPC execution statistics.
    pub metrics: Metrics,
    /// Degree threshold used.
    pub threshold: usize,
}

/// Runs \[BE08\] peeling as a metered MPC computation.
///
/// Computes [`be08_peeling`] at `max(λ̂, 1)` with its default layer cap and
/// meters each of its rounds on a [`Cluster`]. Vertices and edges are
/// distributed over machines (vertices by home placement, edges
/// round-robin); each peeling round costs one announcement exchange plus an
/// aggregation tree of depth `⌈log_S M⌉` for the degree decrements.
///
/// # Errors
///
/// Propagates [`dgo_mpc::MpcError`] if a round's communication exceeds the
/// per-machine capacity in strict mode.
///
/// # Panics
///
/// Panics if `eps` is negative.
///
/// # Examples
///
/// ```
/// use dgo_graph::generators::gnm;
/// use dgo_mpc::ClusterConfig;
/// use dgo_local::direct_peeling_mpc;
///
/// let g = gnm(2000, 4000, 1);
/// let cfg = ClusterConfig::for_graph(2000, 4000, 0.6);
/// let r = direct_peeling_mpc(&g, 4, 0.5, cfg)?;
/// assert!(r.layering.is_complete());
/// assert!(r.metrics.rounds >= 5); // Θ(log n) behaviour
/// # Ok::<(), dgo_mpc::MpcError>(())
/// ```
pub fn direct_peeling_mpc(
    graph: &Graph,
    lambda_hat: usize,
    eps: f64,
    config: ClusterConfig,
) -> Result<DirectMpcResult> {
    let peeling = be08_peeling(graph, lambda_hat.max(1), eps, 0);
    let layering = peeling.layering;
    let n = graph.num_vertices();
    let mut cluster = Cluster::new(config);
    let machines = cluster.num_machines();
    let s = cluster.local_memory();

    // Input layout: vertex records (id, degree) at home(v); edges round-robin.
    let mut residency = vec![0usize; machines];
    for v in 0..n {
        residency[cluster.home(v as u64)] += 2;
    }
    for i in 0..graph.num_edges() {
        residency[i % machines] += 2;
    }
    cluster.checkpoint_residency(&residency)?;

    // Aggregation-tree depth for fan-in S over M machines.
    let agg_rounds = if machines <= 1 {
        1
    } else {
        ((machines as f64).ln() / (s.max(2) as f64).ln())
            .ceil()
            .max(1.0) as u64
    };

    // Round ℓ peels layer ℓ, and `w` is still alive in round ℓ iff
    // `layer(w) ≥ ℓ`: UNASSIGNED sits above every layer, so no round peels it.
    let mut layers = vec![Vec::new(); peeling.local_rounds as usize];
    for v in 0..n {
        if let Some(peeled) = layers.get_mut(layering.layer(v) as usize - 1) {
            peeled.push(v);
        }
    }
    // The last round that counted `w`'s decrement record, and each
    // machine's count of distinct records this round.
    let mut counted = vec![0u32; n];
    let mut records = vec![0usize; machines];
    for (round, peeled) in (1u32..).zip(&layers) {
        // Phase A: removed vertices announce to the machines holding their
        // edges. Volume = sum of remaining degrees of peeled vertices; edge
        // copies are balanced round-robin, so per-machine load is the
        // balanced share (plus one announcement word per peeled vertex).
        let mut announce_volume = peeled.len();
        records.fill(0);
        for &v in peeled {
            for &w in graph.neighbors(v) {
                let w = w as usize;
                if layering.layer(w) >= round {
                    announce_volume += 1;
                    if counted[w] != round {
                        counted[w] = round;
                        records[cluster.home(w as u64)] += 1;
                    }
                }
            }
        }
        let announce_load = announce_volume.div_ceil(machines).max(1);
        cluster.charge_rounds(1, announce_volume, announce_load)?;

        // Phase B: aggregated decrements flow to vertex owners through the
        // tree; each alive touched vertex receives exactly one record.
        let max_records = records.iter().copied().max().unwrap_or(0);
        let decrement_volume: usize = records.iter().sum();
        let tree_load = max_records.max(decrement_volume.div_ceil(machines)).max(1);
        cluster.charge_rounds(
            agg_rounds,
            decrement_volume * agg_rounds as usize,
            tree_load,
        )?;
    }
    Ok(DirectMpcResult {
        layering,
        metrics: cluster.into_metrics(),
        threshold: peeling.threshold,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dgo_graph::generators::{gnm, random_tree, star};

    #[test]
    fn matches_local_peeling_artifact() {
        let g = gnm(1000, 2000, 7);
        let cfg = ClusterConfig::for_graph(1000, 2000, 0.6);
        let mpc = direct_peeling_mpc(&g, 4, 0.5, cfg).unwrap();
        let local = crate::peeling::be08_peeling(&g, 4, 0.5, 0);
        assert_eq!(mpc.layering, local.layering);
    }

    #[test]
    fn rounds_scale_with_layers() {
        let g = random_tree(4000, 2);
        let cfg = ClusterConfig::for_graph(4000, 3999, 0.6);
        let r = direct_peeling_mpc(&g, 1, 0.5, cfg).unwrap();
        assert!(r.layering.is_complete());
        let layers = r.layering.max_layer().unwrap() as u64;
        // Each layer costs at least 2 MPC rounds (announce + aggregate).
        assert!(r.metrics.rounds >= 2 * layers);
    }

    #[test]
    fn star_fits_capacity_via_aggregation() {
        // The star center receives n-1 decrements; the aggregation tree must
        // keep this within capacity.
        let g = star(5000);
        let cfg = ClusterConfig::for_graph(5000, 4999, 0.5);
        let r = direct_peeling_mpc(&g, 1, 0.5, cfg).unwrap();
        assert!(r.layering.is_complete());
    }

    #[test]
    fn strict_capacity_violation_surfaces() {
        // A deliberately starved cluster: 2 machines with tiny memory.
        let g = gnm(500, 1500, 1);
        let cfg = ClusterConfig::new(2, 16);
        assert!(direct_peeling_mpc(&g, 3, 0.5, cfg).is_err());
    }

    #[test]
    fn empty_graph() {
        let cfg = ClusterConfig::new(2, 64);
        let r = direct_peeling_mpc(&Graph::empty(4), 1, 0.0, cfg).unwrap();
        assert!(r.layering.is_complete());
    }
}
