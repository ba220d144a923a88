//! Conformance tests for compat-rayon's scoped fork-join under the full
//! parallelism stack: nested tier-1 (instance fan-out) → tier-2 (vertex
//! stages) use, `chunk_map_*` determinism across job counts, and panic
//! propagation — a panicking chunk or instance reaches the caller with its
//! original payload, the lowest-index one first.

use dgo_core::stage::StageExecutor;
use dgo_mpc::instance::InstanceGroup;
use dgo_mpc::primitives::min_by_key;
use dgo_mpc::{ClusterConfig, MpcError, SequentialBackend};
use std::panic::{self, AssertUnwindSafe};
use std::sync::{mpsc, Barrier, Mutex};
use std::time::Duration;

/// How long a test thread waits for a sibling's signal before giving up, so
/// a broken fan-out fails the test instead of hanging it.
const WAIT: Duration = Duration::from_secs(10);

/// A small per-instance workload that exercises tier-2 stages inside a
/// tier-1 instance: one metered min-combine plus a vertex-stage map and
/// reduction, all on instance-specific data.
fn staged_workload(
    instance: usize,
    backend: &mut SequentialBackend,
    stage: &StageExecutor,
) -> Result<(Vec<u64>, usize), MpcError> {
    // Machine m holds `100·instance + m + 1` under key 0.
    let held: Vec<(u64, u32)> = (0..backend.num_machines())
        .map(|m| (0, (instance * 100 + m + 1) as u32))
        .collect();
    let least = u64::from(min_by_key(backend, &held, 1)?[0]);
    let items: Vec<u64> = (0..2_000u64).map(|v| v + instance as u64).collect();
    let mapped = stage.map(&items, |i, &v| v * 3 + i as u64 + least);
    let total = stage.sum_by(&mapped, |_, &v| v as usize);
    Ok((mapped, total))
}

#[test]
fn nested_instance_and_stage_tiers_share_one_pool() {
    // Tier-1 fans instances across scoped threads; each instance forks its
    // tier-2 stage maps from inside its own thread. Outputs must match the
    // sequential loop at every job count, and this test hanging (not
    // failing) is the deadlock regression signal.
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

/// A panic in any chunk of a stage, not only the one the calling thread
/// runs, reaches the caller; later stages run normally.
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
    // Later fork-joins must run normally after a panicked one.
    assert_eq!(
        StageExecutor::new(0).sum_by(&items, |_, &v| v as usize),
        items.iter().map(|&v| v as usize).sum::<usize>()
    );
}

/// The message of a caught panic payload (`panic!` with arguments yields a
/// `String`, a bare literal a `&str`).
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    payload
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
        .unwrap_or_default()
}

/// Sends on its channel when dropped, so a waiting thread learns that the
/// owner has started unwinding from its panic.
struct SignalOnDrop(mpsc::Sender<()>);

impl Drop for SignalOnDrop {
    fn drop(&mut self) {
        let _ = self.0.send(());
    }
}

#[test]
fn lowest_chunk_panic_wins_in_one_stage() {
    // Two chunks of one stage map panic with different messages. The lower
    // chunk waits until the higher one is unwinding before it panics, so the
    // re-thrown payload is chosen by chunk index, not by completion order.
    // Item 600 sits in the calling thread's chunk at jobs 2 and in a spawned
    // thread's chunk at jobs 8.
    let items: Vec<u64> = (0..4_096).collect();
    let last = items.len() - 1;
    for jobs in [2usize, 8] {
        let (tx, rx) = mpsc::channel();
        let rx = Mutex::new(rx);
        let caught = panic::catch_unwind(AssertUnwindSafe(|| {
            StageExecutor::new(jobs).map(&items, |i, &v| {
                if i == 600 {
                    let unwinding = rx.lock().expect("receiver").recv_timeout(WAIT);
                    assert!(unwinding.is_ok(), "the high chunk never panicked");
                    panic!("low chunk panic at {i}");
                }
                if i == last {
                    let _signal = SignalOnDrop(tx.clone());
                    panic!("high chunk panic at {i}");
                }
                v
            })
        }));
        let payload = caught.expect_err("stage panic must reach the caller");
        assert_eq!(
            panic_message(payload.as_ref()),
            "low chunk panic at 600",
            "jobs = {jobs}"
        );
    }
}

#[test]
fn instance_panic_keeps_its_payload() {
    // A panicking instance surfaces its own message, never a generic
    // "a scoped thread panicked" from the fan-out machinery. Instances 0 and
    // 1 meet at a barrier, so they run on two different threads, and each
    // takes a turn as the panicking one: one of the two runs is a spawned
    // thread's panic.
    let config = ClusterConfig::new(2, 64);
    for jobs in [2usize, 4] {
        for bad in [0usize, 1] {
            let barrier = Barrier::new(2);
            let caught = panic::catch_unwind(AssertUnwindSafe(|| {
                let mut group = InstanceGroup::<SequentialBackend>::uniform(config, 6, jobs);
                group.run_all(|i, _| {
                    if i < 2 {
                        barrier.wait();
                    }
                    if i == bad {
                        panic!("instance {i} panicked");
                    }
                    Ok::<usize, MpcError>(i)
                })
            }));
            let payload = caught.expect_err("instance panic must reach the caller");
            assert_eq!(
                panic_message(payload.as_ref()),
                format!("instance {bad} panicked"),
                "jobs = {jobs}"
            );
        }
    }
}
