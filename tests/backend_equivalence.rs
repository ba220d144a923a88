//! Exchange conformance: [`SequentialBackend::exchange`] against a naive
//! model of the §1.1 round.
//!
//! The backend routes a round with one counting sort over a flat outbox and
//! tallies loads in machine order. The model below does the same job the
//! obvious way — one `Vec` per destination, pushed in `(source, production)`
//! order, and per-machine word sums — so a routing, tally, precedence or
//! metering bug in the backend shows up as a disagreement. Payloads are
//! variable-length `Vec<u64>`s, so a machine's words differ from its message
//! count. Every case runs several exchanges on one strict or relaxed
//! backend and compares each inbox or error, and the metrics after each.
//! Outboxes store a random prefix of their sources — at least up to the
//! last one that sends — and leave the rest implicitly empty, as the
//! algorithm layer does on clusters wider than a round's traffic.
//!
//! Residency checkpoints get the same treatment: `checkpoint_residency(base,
//! head)` (a uniform share plus a per-machine prefix) against the dense
//! per-machine layout it stands for — the peaks, the first offender in
//! strict mode, and the violation count in relaxed mode.

use dgo::mpc::{ClusterConfig, Metrics, MpcError, PerMachine, RoundStats, SequentialBackend};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// `outbox[src]` lists machine `src`'s `(destination, payload)` messages.
type Outbox = Vec<Vec<(usize, Vec<u64>)>>;

/// The round as the model sees it: one list per destination, or the error
/// the exchange must report. On success it records the round, and in
/// relaxed mode one violation per offense, into `metrics`.
fn model_exchange(
    config: ClusterConfig,
    metrics: &mut Metrics,
    outbox: &Outbox,
) -> Result<Vec<Vec<Vec<u64>>>, MpcError> {
    let machines = config.num_machines;
    let mut inbox = vec![Vec::new(); machines];
    let (mut sent, mut received) = (vec![0; machines], vec![0; machines]);
    for (src, messages) in outbox.iter().enumerate() {
        for (dst, payload) in messages {
            if *dst >= machines {
                return Err(MpcError::UnknownMachine {
                    machine: *dst,
                    num_machines: machines,
                });
            }
            sent[src] += payload.len();
            received[*dst] += payload.len();
            inbox[*dst].push(payload.clone());
        }
    }
    for machine in 0..machines {
        for (words, direction) in [(sent[machine], "send"), (received[machine], "receive")] {
            if words <= config.local_memory {
                continue;
            }
            if config.strict {
                return Err(MpcError::CapacityExceeded {
                    machine: Some(machine),
                    round: metrics.rounds + 1,
                    words,
                    capacity: config.local_memory,
                    direction,
                });
            }
            metrics.violations += 1;
        }
    }
    let total_words = sent.iter().sum();
    let max_sent = sent.iter().copied().max().unwrap_or(0);
    let max_received = received.iter().copied().max().unwrap_or(0);
    metrics.rounds += 1;
    metrics.total_comm_words += total_words;
    metrics.max_round_load = metrics.max_round_load.max(max_sent).max(max_received);
    metrics.round_log.push(RoundStats {
        round: metrics.rounds,
        total_words,
        max_sent,
        max_received,
    });
    Ok(inbox)
}

/// Up to six messages per source with 0–4 word payloads. With probability
/// `stray` a message goes to one of the two machines just past the cluster.
fn random_outbox(rng: &mut StdRng, machines: usize, stray: f64) -> Outbox {
    (0..machines)
        .map(|_| {
            (0..rng.random_range(0..7usize))
                .map(|_| {
                    let dst = if rng.random_bool(stray) {
                        machines + rng.random_range(0..2usize)
                    } else {
                        rng.random_range(0..machines)
                    };
                    let payload = (0..rng.random_range(0..5usize))
                        .map(|_| rng.random::<u64>())
                        .collect();
                    (dst, payload)
                })
                .collect()
        })
        .collect()
}

/// `outbox` as the backend's flat buffer, storing only the first `stored`
/// sources (at least up to the last one that sends) and declaring the rest.
fn flat_outbox(outbox: Outbox, stored: usize) -> PerMachine<(usize, Vec<u64>)> {
    let machines = outbox.len();
    let senders = outbox
        .iter()
        .rposition(|list| !list.is_empty())
        .map_or(0, |i| i + 1);
    let mut flat = PerMachine::with_capacity(machines, outbox.iter().map(Vec::len).sum());
    for list in outbox.into_iter().take(stored.max(senders)) {
        flat.push_machine(list);
    }
    flat
}

/// The checkpoint as the model sees it: machine `i` holds `base + head[i]`
/// words, or `base` past the head, recorded and then checked in index
/// order.
fn model_checkpoint(
    config: ClusterConfig,
    metrics: &mut Metrics,
    base: usize,
    head: &[usize],
) -> Result<(), MpcError> {
    let machines = config.num_machines;
    if head.len() > machines {
        return Err(MpcError::WrongClusterWidth {
            expected: machines,
            found: head.len(),
        });
    }
    let loads: Vec<usize> = (0..machines)
        .map(|i| base + head.get(i).copied().unwrap_or(0))
        .collect();
    metrics.peak_machine_memory = metrics
        .peak_machine_memory
        .max(loads.iter().copied().max().unwrap_or(0));
    metrics.peak_global_memory = metrics.peak_global_memory.max(loads.iter().sum());
    for (machine, &words) in loads.iter().enumerate() {
        if words <= config.local_memory {
            continue;
        }
        if config.strict {
            return Err(MpcError::MemoryExceeded {
                machine,
                words,
                capacity: config.local_memory,
            });
        }
        metrics.violations += 1;
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Four exchanges on one backend: a quarter of them carry strays, and
    /// the capacity range makes some machines send or receive more than `S`.
    #[test]
    fn exchange_matches_naive_model(
        machines in 1usize..10,
        capacity in 1usize..24,
        strict in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let config = ClusterConfig::new(machines, capacity);
        let config = if strict { config } else { config.relaxed() };
        let mut rng = StdRng::seed_from_u64(seed);
        let mut backend = SequentialBackend::new(config);
        let mut expected = Metrics::new();
        for _ in 0..4 {
            let stray = if rng.random_bool(0.25) { 0.1 } else { 0.0 };
            let outbox = random_outbox(&mut rng, machines, stray);
            let want = model_exchange(config, &mut expected, &outbox);
            let stored = rng.random_range(0..machines + 1);
            let got = backend
                .exchange(flat_outbox(outbox, stored))
                .map(|inbox| {
                    assert_eq!(inbox.num_machines(), machines);
                    inbox.iter().map(<[_]>::to_vec).collect::<Vec<_>>()
                });
            prop_assert_eq!(got, want);
            prop_assert_eq!(backend.metrics(), &expected);
        }
    }

    /// Six checkpoints on one backend, with heads from empty to one machine
    /// longer than the cluster, and shares and loads on both sides of `S`.
    #[test]
    fn checkpoint_residency_matches_dense_model(
        machines in 1usize..10,
        capacity in 1usize..24,
        strict in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let config = ClusterConfig::new(machines, capacity);
        let config = if strict { config } else { config.relaxed() };
        let mut rng = StdRng::seed_from_u64(seed);
        let mut backend = SequentialBackend::new(config);
        let mut expected = Metrics::new();
        for _ in 0..6 {
            let base = rng.random_range(0..capacity + 4);
            let head: Vec<usize> = (0..rng.random_range(0..machines + 2))
                .map(|_| rng.random_range(0..capacity))
                .collect();
            let want = model_checkpoint(config, &mut expected, base, &head);
            prop_assert_eq!(backend.checkpoint_residency(base, &head), want);
            prop_assert_eq!(backend.metrics(), &expected);
        }
    }
}
