//! Golden metrics: the metering of two fixed runs, pinned to recorded
//! values.
//!
//! `backend_equivalence` checks the raw exchange against a model, and the
//! `instance_parallel` and `stage_parallel` suites compare job counts with
//! each other, so a metering drift in the algorithm layer — the Algorithm 4
//! min-combine, the Lemma 4.1 gather cost model — would pass them all.
//! These runs pin the absolute figures instead: rounds, communication
//! volume, the worst round load, the Lemma 4.1 bundle words, and a digest
//! of the per-round log. Any change to them is a change to what the
//! simulator certifies and must be deliberate.

use dgo::core::{approximate_coreness, partial_layer_assignment, Params};
use dgo::graph::generators::{gnm, planted_dense};
use dgo::mpc::{Cluster, ClusterConfig, Metrics};

/// FNV-1a over every field of every round-log entry, in order.
fn round_log_digest(metrics: &Metrics) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for entry in &metrics.round_log {
        for word in [
            entry.round,
            entry.total_words as u64,
            entry.max_sent as u64,
            entry.max_received as u64,
        ] {
            for byte in word.to_le_bytes() {
                hash ^= u64::from(byte);
                hash = hash.wrapping_mul(0x0100_0000_01b3);
            }
        }
    }
    hash
}

/// The pinned figures of one run, in a form `assert_eq!` prints whole.
#[derive(Debug, PartialEq, Eq)]
struct Golden {
    rounds: u64,
    total_comm_words: usize,
    max_round_load: usize,
    bundle_wire_words: usize,
    bundle_flat_words: usize,
    round_log_len: usize,
    round_log_digest: u64,
}

fn golden(metrics: &Metrics) -> Golden {
    Golden {
        rounds: metrics.rounds,
        total_comm_words: metrics.total_comm_words,
        max_round_load: metrics.max_round_load,
        bundle_wire_words: metrics.bundle_wire_words,
        bundle_flat_words: metrics.bundle_flat_words,
        round_log_len: metrics.round_log.len(),
        round_log_digest: round_log_digest(metrics),
    }
}

#[test]
fn partial_layer_assignment_metrics_are_pinned() {
    // Algorithm 4 on G(1500, 4500): Algorithm 2's gathers, then the one
    // real exchange (the min-combine) on a cluster wider than the proposal
    // count.
    let g = gnm(1500, 4500, 17);
    let mut cluster = Cluster::new(ClusterConfig::new(4096, 8192));
    let r = partial_layer_assignment(&g, 256, 3, 4, 3, &mut cluster).expect("fits");
    let layer_sum: u64 = (0..g.num_vertices())
        .map(|v| u64::from(r.layering.layer(v)))
        .sum();
    assert_eq!(
        (r.layering.num_assigned(), layer_sum),
        (1500, 1510),
        "layering changed"
    );
    assert_eq!(
        golden(cluster.metrics()),
        Golden {
            rounds: 15,
            total_comm_words: 67_238,
            max_round_load: 38,
            bundle_wire_words: 11_665,
            bundle_flat_words: 49_294,
            round_log_len: 15,
            round_log_digest: 16_141_075_492_424_634_349,
        }
    );
}

#[test]
fn approximate_coreness_metrics_are_pinned() {
    // The coreness ladder on a planted dense core: the low guesses run
    // Stage-2 stages, so the min-combine exchange and the gathers meter.
    let g = planted_dense(3000, 9000, 40, 5);
    let params = Params::practical(g.num_vertices()).with_jobs(1);
    let r = approximate_coreness(&g, 0.5, &params).expect("coreness");
    let estimate_sum: u64 = r.estimate.iter().map(|&e| u64::from(e)).sum();
    assert_eq!(estimate_sum, 19_320, "estimate changed");
    assert_eq!(r.guesses, [1, 2, 3, 4, 6, 8, 12, 18, 26, 39]);
    // The ladder's result merges one backend per guess, and merged metrics
    // keep no per-round log, so the pinned log is the empty one.
    assert_eq!(
        golden(&r.metrics),
        Golden {
            rounds: 33,
            total_comm_words: 208_835,
            max_round_load: 14,
            bundle_wire_words: 3_573,
            bundle_flat_words: 12_380,
            round_log_len: 0,
            round_log_digest: 14_695_981_039_346_656_037,
        }
    );
}
