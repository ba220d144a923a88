//! Runs the pipeline under the *paper preset* — the proofs' parameter forms
//! with constants clamped only where machine arithmetic forces it — to check
//! that correctness is genuinely parameter-independent: the out-degree bound
//! of any produced layering holds structurally (Claim 3.12; see "What the
//! reproduction checks" in PAPER.md).

use dgo::core::{color, complete_layering, orient, Params};
use dgo::graph::generators::{clique, gnm, random_tree};

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
