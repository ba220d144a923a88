//! Cross-algorithm comparisons: the paper's algorithm against the baselines
//! it is measured against in §1.2 — quality and round-count shape.

use dgo::core::{estimate_lambda, orient, Params};
use dgo::graph::generators::{gnm, Family};
use dgo::local::{be08_peeling, direct_peeling_mpc};
use dgo::mpc::ClusterConfig;

#[test]
fn be08_wins_on_outdegree_we_win_on_rounds_shape() {
    // The paper's §1.3 Discussion: our outdegree is worse by O(log log n),
    // but the round complexity breaks the Θ(log n) simulation barrier.
    let n = 8192;
    let g = gnm(n, 4 * n, 17);
    let params = Params::practical(n);
    let lambda = estimate_lambda(&g, &params).max(1);

    let ours = orient(&g, &params).unwrap();
    let be08 = be08_peeling(&g, lambda, 0.5, 0);
    let be08_out = be08.orientation(&g).unwrap().max_out_degree();

    // BE08's outdegree is at most (2.5)λ̂ (+ceil); ours may exceed it...
    assert!(be08_out <= (2.5 * lambda as f64).ceil() as usize);
    // ...but never by more than the log log n factor (with constant slack).
    let loglog = (n as f64).log2().log2();
    assert!(
        ours.orientation.max_out_degree() as f64 <= 8.0 * lambda as f64 * loglog,
        "ours = {} vs λ̂ = {lambda}",
        ours.orientation.max_out_degree()
    );
}

#[test]
fn round_scaling_direct_grows_ours_flattens() {
    // Measured E1 shape on trees (the workload where peeling takes its full
    // Θ(log n) course at a tight threshold): direct simulation rounds grow
    // with log n; ours stay near-flat across a 64x size increase.
    use dgo::graph::generators::random_tree;
    let params = Params::practical(0);
    let mut ours_rounds = Vec::new();
    let mut direct_rounds = Vec::new();
    for &n in &[1024usize, 8192, 65536] {
        let g = random_tree(n, 3);
        let r = orient(&g, &params).unwrap();
        ours_rounds.push(r.metrics.rounds);
        let cfg = ClusterConfig::for_graph(n, n - 1, 0.5);
        let d = direct_peeling_mpc(&g, 1, 0.0, cfg).unwrap();
        direct_rounds.push(d.metrics.rounds);
    }
    // Direct baseline grows measurably from 1k to 64k.
    assert!(
        direct_rounds[2] > direct_rounds[0],
        "direct baseline should grow: {direct_rounds:?}"
    );
    // Ours grows by far less than the instance-size factor (64x):
    // poly(log log n) flatness.
    assert!(
        ours_rounds[2] < 3 * ours_rounds[0].max(8),
        "our rounds should stay near-flat: {ours_rounds:?}"
    );
}

#[test]
fn direct_baseline_matches_local_artifact_everywhere() {
    // The MPC baseline must compute exactly the LOCAL peeling's H-partition.
    for family in [Family::SparseGnm, Family::Tree, Family::Grid] {
        let g = family.generate(2000, 7);
        let cfg = ClusterConfig::for_graph(g.num_vertices(), g.num_edges(), 0.6);
        let mpc = direct_peeling_mpc(&g, 4, 0.5, cfg).unwrap();
        let local = be08_peeling(&g, 4, 0.5, 0);
        assert_eq!(mpc.layering, local.layering, "{family}");
    }
}
