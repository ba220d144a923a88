//! Allocation-profile fence for the flat-arena `ViewTree` hot loops and the
//! flat message rounds.
//!
//! A counting global allocator wraps `System` and tallies every
//! allocation/reallocation. The assertions pin the arena's allocation
//! discipline: every tree a star, an attachment or a prune builds is one
//! heap block, whatever its degree, its node count or the number of
//! provider trees spliced into it. Before the arena refactor every spliced
//! internal node allocated its own `children` vector, and before the
//! one-block layout every tree took six column allocations, so these bounds
//! are the regression fence for both. A whole Algorithm 2–4 stage makes one
//! acquisition per tree it builds plus a constant per step: its attachment
//! plans and Algorithm 3 proposals are flat buffers, not one per vertex or
//! per tree, and it builds neither the stars (step 1 starts from the pruned
//! stars) nor the last step's attachments (Algorithm 3 peels them in place). Algorithm 4's min-combine makes a constant number of
//! allocations however many machines and proposals it has: its rounds are
//! flat per-machine buffers, not a heap buffer per machine. The allocator
//! also tallies requested bytes, which fence the metering's independence
//! of the machine count: on a 2²⁰-machine cluster a small min-combine,
//! Algorithm 2 and the layering prelude each request under 1 MiB, where one
//! word per machine would be 8 MiB.
//!
//! Everything runs in one `#[test]` (the harness would otherwise interleave
//! allocations of concurrently running tests into the measured windows) and
//! on the sequential stage executor (worker threads would do the same).

#![cfg(target_has_atomic = "ptr")] // the counter is an atomic

use dgo::core::{
    combine_tree_layers, exponentiate_and_prune_staged, local_prune_batch,
    partial_layer_assignment_staged, StageExecutor, ViewTree,
};
use dgo::graph::generators::Family;
use dgo::mpc::{ClusterConfig, ExecutionBackend, SequentialBackend};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Counts every heap acquisition (alloc, alloc_zeroed, and realloc — a
/// realloc may move, so it is an acquisition for this fence's purposes) and
/// the bytes each one requests (a realloc requests its new size).
struct CountingAlloc;

static ACQUISITIONS: AtomicUsize = AtomicUsize::new(0);
static REQUESTED_BYTES: AtomicUsize = AtomicUsize::new(0);

// SAFETY: pure pass-through to `System` plus a relaxed counter bump; every
// GlobalAlloc contract obligation (layout validity, pointer provenance) is
// delegated unchanged to the system allocator.
unsafe impl GlobalAlloc for CountingAlloc {
    // SAFETY: caller upholds GlobalAlloc's contract; forwarded verbatim.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ACQUISITIONS.fetch_add(1, Ordering::Relaxed);
        REQUESTED_BYTES.fetch_add(layout.size(), Ordering::Relaxed);
        // SAFETY: same layout the caller vouched for.
        unsafe { System.alloc(layout) }
    }

    // SAFETY: caller upholds GlobalAlloc's contract; forwarded verbatim.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: same pointer/layout pair the caller vouched for.
        unsafe { System.dealloc(ptr, layout) }
    }

    // SAFETY: caller upholds GlobalAlloc's contract; forwarded verbatim.
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ACQUISITIONS.fetch_add(1, Ordering::Relaxed);
        REQUESTED_BYTES.fetch_add(layout.size(), Ordering::Relaxed);
        // SAFETY: same layout the caller vouched for.
        unsafe { System.alloc_zeroed(layout) }
    }

    // SAFETY: caller upholds GlobalAlloc's contract; forwarded verbatim.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ACQUISITIONS.fetch_add(1, Ordering::Relaxed);
        REQUESTED_BYTES.fetch_add(new_size, Ordering::Relaxed);
        // SAFETY: same pointer/layout/size triple the caller vouched for.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

fn measure<R>(f: impl FnOnce() -> R) -> (usize, R) {
    let before = ACQUISITIONS.load(Ordering::Relaxed);
    let result = f();
    (ACQUISITIONS.load(Ordering::Relaxed) - before, result)
}

/// The bytes `f` requests from the allocator, summed over its acquisitions.
fn measure_bytes<R>(f: impl FnOnce() -> R) -> (usize, R) {
    let before = REQUESTED_BYTES.load(Ordering::Relaxed);
    let result = f();
    (REQUESTED_BYTES.load(Ordering::Relaxed) - before, result)
}

#[test]
fn attach_is_o1_allocations_per_consumed_tree() {
    // A mid-sized RingOfCliques instance: dense enough that provider trees
    // have real internal structure (every clique vertex sees its whole
    // block), the family the vtree benches use.
    let g = Family::RingOfCliques.generate(512, 7);
    let n = g.num_vertices();

    // --- Star construction: one block per star, any degree. ---
    let (star_allocs, trees): (usize, Vec<ViewTree>) = measure(|| {
        let mut trees = Vec::with_capacity(n);
        for v in 0..n {
            trees.push(ViewTree::star(v, g.neighbors(v)));
        }
        trees
    });
    // One block per arena plus the collecting vector's growth; anything
    // per-node or per-column would blow far past this.
    assert!(
        star_allocs <= n + 16,
        "star construction allocated {star_allocs} times for {n} trees"
    );

    // --- Algorithm 2 attachment: splice every depth-1 leaf's provider. ---
    let leaf_plans: Vec<Vec<u32>> = trees
        .iter()
        .map(|t| t.leaves_at_depth(1).collect())
        .collect();
    let consumed: usize = leaf_plans.iter().map(Vec::len).sum();
    let mut total_spliced_nodes = 0usize;
    for (v, plan) in leaf_plans.iter().enumerate() {
        for &leaf in plan {
            total_spliced_nodes += trees[trees[v].vertex(leaf)].len() - 1;
        }
    }
    let (attach_allocs, attached): (usize, Vec<ViewTree>) = measure(|| {
        (0..n)
            .map(|v| {
                ViewTree::attached_with(&trees[v], &leaf_plans[v], |leaf| {
                    &trees[trees[v].vertex(leaf)]
                })
            })
            .collect()
    });
    assert!(consumed >= n, "fence needs real attachment volume");
    assert!(
        total_spliced_nodes >= 4 * consumed,
        "fence needs multi-node providers to distinguish per-node allocation"
    );
    // One block per *consumer* plus the collecting vector, however many
    // providers it consumes — nowhere near one per spliced node (the
    // pre-arena layout paid >= one per internal node, i.e. more than
    // `total_spliced_nodes / 2` here).
    assert!(
        attach_allocs <= n + 16,
        "attachment allocated {attach_allocs} times for {consumed} consumed trees \
         ({total_spliced_nodes} spliced nodes) — not O(1) per tree"
    );
    assert!(
        attach_allocs < total_spliced_nodes / 2,
        "attachment allocations ({attach_allocs}) scale with spliced nodes \
         ({total_spliced_nodes}): the per-node regression is back"
    );

    // --- LocalPrune as its batch stage (sequential executor): one scratch
    // per worker, reused across trees, so allocations are only the pruned
    // trees' own blocks and the result vector, not per node or per scratch
    // rebuild. ---
    let stage = StageExecutor::sequential();
    let (prune_allocs, pruned) = measure(|| local_prune_batch(&attached, 3, &stage));
    let scratch_warmup = 16; // the scratch's own buffers, acquired once
    let materialized = pruned.iter().flatten().count();
    assert!(
        materialized * 2 >= n,
        "fence needs real pruning volume ({materialized} of {n} trees pruned)"
    );
    assert!(
        prune_allocs <= materialized + scratch_warmup,
        "pruning allocated {prune_allocs} times for {materialized} pruned trees"
    );

    // --- A whole Algorithm 2–4 stage: the pruned stars, then at most one
    // pruned tree per vertex in each of steps 2..=s and one attached tree
    // per vertex in each of steps 1..s, plus a constant per step for the
    // plan, metering and checkpoint buffers and for the proposals and the
    // min-combine. Building the stars or the last attachments would add `n`
    // each, and so would one buffer per vertex or per tree anywhere in the
    // stage. ---
    let (budget, k, layers, steps) = (256, 3, 4, 3);
    let mut cluster = SequentialBackend::from_config(ClusterConfig::new(4 * n, 1 << 16));
    let (stage_allocs, assigned) = measure(|| {
        partial_layer_assignment_staged(&g, budget, k, layers, steps, &mut cluster, &stage)
    });
    let assigned = assigned.expect("the stage fits the cluster");
    assert!(
        assigned.layering.num_assigned() > 0,
        "fence needs a real stage"
    );
    let stage_bound = (2 * steps as usize - 1) * n + 64;
    assert!(
        stage_allocs <= stage_bound,
        "one Algorithm 2–4 stage allocated {stage_allocs} times for {n} vertices \
         and {steps} steps (bound {stage_bound})"
    );

    // --- Algorithm 4's min-combine: a constant number of acquisitions,
    // independent of the machine count and the proposal count. Vertex
    // `i % vertices` proposes layer `i % 7 + 1`, so hot vertices collect
    // many proposals. ---
    for (machines, proposal_count) in [(100_000usize, 10_000usize), (50_000, 20_000)] {
        let vertices = proposal_count / 4;
        let proposals: Vec<(u64, u32)> = (0..proposal_count)
            .map(|i| ((i % vertices) as u64, (i % 7 + 1) as u32))
            .collect();
        let mut cluster = SequentialBackend::from_config(ClusterConfig::new(machines, 1 << 16));
        let (combine_allocs, layering) =
            measure(|| combine_tree_layers(vertices, proposals, &mut cluster));
        let layering = layering.expect("the min-combine fits");
        assert!(layering.is_complete());
        assert_eq!(cluster.metrics().rounds, 1);
        assert!(
            combine_allocs <= 16,
            "the min-combine of {proposal_count} proposals on {machines} machines \
             allocated {combine_allocs} times — not a constant"
        );
    }

    // --- Machine-count independence: on a 2^20-machine cluster, metering
    // a small instance touches only the machines that hold something. A
    // min-combine of 64 proposals, Algorithm 2 on a 64-vertex graph and
    // the Lemma 3.15 prelude (input checkpoint and Stage 1) each request
    // well under 1 MiB; one word per machine would be 8 MiB. ---
    let machines = 1usize << 20;
    let wide = || SequentialBackend::from_config(ClusterConfig::new(machines, 1 << 16));
    let small = dgo::graph::generators::gnm(64, 192, 3);
    let proposals: Vec<(u64, u32)> = (0..64).map(|i| (i % 48, (i % 5 + 1) as u32)).collect();
    let mut cluster = wide();
    let (combine_bytes, combined) =
        measure_bytes(|| combine_tree_layers(48, proposals, &mut cluster));
    assert!(combined.expect("the min-combine fits").is_complete());
    let mut cluster = wide();
    let (expo_bytes, expo) =
        measure_bytes(|| exponentiate_and_prune_staged(&small, 256, 2, 3, &mut cluster, &stage));
    assert!(expo.expect("Algorithm 2 fits").steps == 3 && cluster.metrics().rounds > 0);
    let params = dgo::core::Params::practical(small.num_vertices()).with_jobs(1);
    let mut cluster = wide();
    let (prelude_bytes, prelude) =
        measure_bytes(|| dgo::core::partial_layering_bounded_in(&small, &params, 0, &mut cluster));
    assert_eq!(prelude.expect("the prelude fits").1.stages, 0);
    assert!(cluster.metrics().peak_global_memory > 0);
    let measured = [
        ("combine_tree_layers", combine_bytes),
        ("exponentiate_and_prune_staged", expo_bytes),
        ("partial_layering_bounded_in", prelude_bytes),
    ];
    assert!(
        measured.iter().all(|&(_, bytes)| bytes < 1 << 20),
        "requested bytes on {machines} machines: {measured:?}"
    );
}
