//! Conformance tests for the persistent work-stealing pool under the full
//! parallelism stack: nested tier-2 (instance fan-out) → tier-3 (vertex
//! stages) use on one pool, panic propagation through stolen tasks,
//! `chunk_map_*` determinism across job counts, and the spawn-count fence
//! proving steady-state stage loops create zero new OS threads.

use dgo_core::stage::StageExecutor;
use dgo_mpc::instance::InstanceGroup;
use dgo_mpc::{ClusterConfig, MpcError, PerMachine, SequentialBackend};

/// A small per-instance workload that exercises tier-3 stages inside a
/// tier-2 instance: one metered exchange plus a vertex-stage map and
/// reduction, all on instance-specific data.
fn staged_workload(
    instance: usize,
    backend: &mut SequentialBackend,
    stage: &StageExecutor,
) -> Result<(Vec<u64>, usize), MpcError> {
    let machines = backend.num_machines();
    let mut outbox: Vec<Vec<(usize, u64)>> = vec![Vec::new(); machines];
    for (m, box_m) in outbox.iter_mut().enumerate() {
        box_m.push(((m + 1) % machines, (instance * 100 + m) as u64));
    }
    let inbox = backend.exchange(PerMachine::from(outbox))?;
    let items: Vec<u64> = (0..2_000u64).map(|v| v + instance as u64).collect();
    let mapped = stage.map(&items, |i, &v| v * 3 + i as u64 + inbox[0][0]);
    let total = stage.sum_by(&mapped, |_, &v| v as usize);
    Ok((mapped, total))
}

#[test]
fn nested_instance_and_stage_tiers_share_one_pool() {
    // Tier-2 fans instances across the pool; each instance runs tier-3
    // stage maps on the same pool. Cooperative waiting must drain the
    // nested stage tasks even when every worker is inside an instance —
    // this test hanging (not failing) is the deadlock regression signal.
    let config = ClusterConfig::new(4, 1 << 16);
    let reference: Vec<(Vec<u64>, usize)> = {
        let mut group = InstanceGroup::<SequentialBackend>::uniform(config, 6, 1);
        let stage = StageExecutor::sequential();
        group
            .run_all(|i, backend| staged_workload(i, backend, &stage))
            .expect("workload fits")
    };
    for jobs in [2usize, 7, 0] {
        let mut group = InstanceGroup::<SequentialBackend>::uniform(config, 6, jobs);
        let stage = StageExecutor::new(jobs);
        let got = group
            .run_all(|i, backend| staged_workload(i, backend, &stage))
            .expect("workload fits");
        assert_eq!(got, reference, "jobs = {jobs}");
    }
}

#[test]
fn chunk_map_family_is_deterministic_across_job_counts() {
    let items: Vec<u64> = (0..10_000).rev().collect();
    let reference_collect = rayon::chunk_map_collect(&items, 1, |i, &v| v ^ i as u64);
    let reference_range = rayon::chunk_map_collect_range(items.len(), 1, |i| i * 7);
    let reference_reduce = rayon::chunk_map_reduce(
        &items,
        1,
        |offset, chunk| {
            chunk
                .iter()
                .enumerate()
                .map(|(i, &v)| v.wrapping_mul((offset + i) as u64 + 1))
                .fold(0u64, u64::wrapping_add)
        },
        u64::wrapping_add,
    );
    let mut reference_fill = Vec::new();
    rayon::chunk_map_fill(&items, 1, &mut reference_fill, |i, &v| v + i as u64);
    for jobs in [1usize, 2, 7, 0] {
        let threads = dgo_mpc::resolve_jobs(jobs).max(1);
        assert_eq!(
            rayon::chunk_map_collect(&items, threads, |i, &v| v ^ i as u64),
            reference_collect,
            "jobs = {jobs}"
        );
        assert_eq!(
            rayon::chunk_map_collect_range(items.len(), threads, |i| i * 7),
            reference_range,
            "jobs = {jobs}"
        );
        assert_eq!(
            rayon::chunk_map_reduce(
                &items,
                threads,
                |offset, chunk| {
                    chunk
                        .iter()
                        .enumerate()
                        .map(|(i, &v)| v.wrapping_mul((offset + i) as u64 + 1))
                        .fold(0u64, u64::wrapping_add)
                },
                u64::wrapping_add,
            ),
            reference_reduce,
            "jobs = {jobs}"
        );
        let mut fill = Vec::new();
        rayon::chunk_map_fill(&items, threads, &mut fill, |i, &v| v + i as u64);
        assert_eq!(fill, reference_fill, "jobs = {jobs}");
    }
}

#[test]
fn panics_in_stolen_tasks_propagate_to_the_caller() {
    let items: Vec<u64> = (0..4_000).collect();
    let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        let stage = StageExecutor::new(0);
        stage.map(&items, |i, &v| {
            if i == 3_777 {
                panic!("vertex stage panic at {i}");
            }
            v
        })
    }));
    let payload = caught.expect_err("stage panic must reach the caller");
    let message = payload
        .downcast_ref::<String>()
        .cloned()
        .unwrap_or_default();
    assert!(
        message.contains("vertex stage panic"),
        "unexpected payload: {message}"
    );
    // The pool must stay healthy after a panicked task.
    assert_eq!(
        StageExecutor::new(0).sum_by(&items, |_, &v| v as usize),
        items.iter().map(|&v| v as usize).sum::<usize>()
    );
}

#[test]
fn steady_state_stage_loops_spawn_no_os_threads() {
    // Warm the pool (first parallel call spawns the workers), snapshot the
    // lifetime spawn counter, then run many stage loops at several job
    // counts: the counter must not move — steady-state parallel execution
    // reuses the persistent workers instead of spawning per call.
    let items: Vec<u64> = (0..5_000).collect();
    let warm_stage = StageExecutor::new(0);
    let _ = warm_stage.map(&items, |_, &v| v);
    let spawned = rayon::pool_thread_spawn_count();
    assert!(
        spawned <= rayon::current_num_threads(),
        "pool spawns at most one worker per hardware thread"
    );
    let mut buffer = Vec::new();
    for round in 0..50 {
        for jobs in [2usize, 7, 0] {
            let stage = StageExecutor::new(jobs);
            let _ = stage.map(&items, |i, &v| v + i as u64 + round);
            let _ = stage.map_indices(items.len(), |i| i * 2);
            stage.map_into(&items, &mut buffer, |_, &v| v);
            let _ = stage.sum_by(&items, |_, &v| v as usize);
        }
    }
    assert_eq!(
        rayon::pool_thread_spawn_count(),
        spawned,
        "steady-state stage loops must not spawn OS threads"
    );
}
