//! Runs the pipeline under the *paper preset* — the proofs' parameter forms
//! with constants clamped only where machine arithmetic forces it — to check
//! that correctness is genuinely parameter-independent: the out-degree bound
//! of any produced layering holds structurally (Claim 3.12; see "What the
//! reproduction checks" in PAPER.md).

use dgo::core::{
    color, complete_layering, exponentiate_and_prune_staged, orient, Params, StageExecutor,
    ViewTree,
};
use dgo::graph::generators::{clique, gnm, random_tree, star};
use dgo::mpc::{Cluster, ClusterConfig};

#[test]
fn paper_preset_orients_correctly() {
    let n = 600;
    let g = gnm(n, 3 * n, 4);
    let params = Params::paper(n);
    params.validate().unwrap();
    let r = orient(&g, &params).unwrap();
    r.orientation.validate(&g).unwrap();
    // k_factor = 100 makes k huge: the initial peeling handles everything,
    // which is exactly what the paper's Stage 1 does at ⌈100 log k⌉ rounds.
    assert!(r.metrics.rounds > 0);
}

#[test]
fn paper_preset_colors_properly() {
    let n = 500;
    let g = random_tree(n, 8);
    let params = Params::paper(n);
    let r = color(&g, &params).unwrap();
    r.coloring.validate(&g).unwrap();
}

#[test]
fn paper_steps_scale_with_loglog() {
    // s = 10·⌈log log n⌉ per the paper.
    let small = Params::paper(1 << 10); // loglog = ceil(log2 10) = 4
    let large = Params::paper(1 << 16); // loglog = 4
    let huge = Params::paper(usize::MAX); // loglog = 6
    assert_eq!(small.steps, 40);
    assert_eq!(large.steps, 40);
    assert_eq!(huge.steps, 60);
}

#[test]
fn paper_and_practical_agree_on_artifact_validity() {
    let n = 400;
    let g = gnm(n, 1200, 6);
    for params in [Params::paper(n), Params::practical(n)] {
        let o = orient(&g, &params).unwrap();
        o.orientation.validate(&g).unwrap();
        let c = color(&g, &params).unwrap();
        c.coloring.validate(&g).unwrap();
    }
}

#[test]
fn paper_steps_past_32_keep_the_frontier_depth_in_range() {
    // `Params::paper` sets s = 40 for 256 < n ≤ 65,536, and step i's
    // frontier depth is 2^(i−1), past u32 from step 33 on: a plain u32
    // shift panics in debug builds and wraps in release. At λ-hint 1 Stage
    // 1 peels nothing on a 300-clique, so Stage 2 runs all 40 steps.
    let g = clique(300);
    let mut params = Params::paper(300);
    params.lambda_hint = 1;
    assert_eq!(params.steps, 40);
    let out = complete_layering(&g, &params).unwrap();
    assert!(out.stats.stages > 0, "Stage 2 must run");
    assert!(out.layering.is_complete());
    out.layering
        .validate(&g, out.layering.out_degree_bound(&g).unwrap())
        .unwrap();
}

#[test]
fn paper_steps_past_32_keep_a_live_tree_off_the_frontier() {
    // The test above ends with singleton trees long before step 32. Here
    // the hub of star(200) at k = 1 and B = 2¹⁶ stays active through all 40
    // steps: each prune drops one of its leaves, and its leaves' trees are
    // singletons, so only step 1 attaches anything (at depth 1). From step
    // 32 on the frontier depth is 2³¹ or saturated, and the hub's internal
    // root must still not count as a frontier leaf.
    let g = star(200);
    let run = |steps| {
        let mut cluster = Cluster::new(ClusterConfig::new(256, 1 << 12));
        let stage = StageExecutor::sequential();
        let r = exponentiate_and_prune_staged(&g, 1 << 16, 1, steps, &mut cluster, &stage).unwrap();
        (r, cluster.metrics().bundle_flat_words)
    };
    let (r, bundle_words) = run(40);
    assert!(r.active[0], "the hub stays active");
    assert_eq!(r.trees[0], ViewTree::star(0, &g.neighbors(0)[40..]));
    assert_eq!(bundle_words, run(2).1, "nothing attaches after step 1");
}
