//! Metering conformance: the counted min-combine and the residency
//! checkpoints against naive models of what they meter.
//!
//! Algorithm 4's min-combine counts its round instead of routing it. Its
//! oracle is the routed combine on a model exchange: every machine
//! pre-combines the proposals it starts with to one record per vertex, the
//! model routes the records to their home machines the obvious way — one
//! `Vec` per destination and per-machine word sums under the §1.1 capacity
//! rule — and each home keeps the least layer per vertex.
//! `combine_tree_layers` must give the same layering, or the same capacity
//! error, and the same metrics.
//!
//! Residency checkpoints get the same treatment: `checkpoint_residency(base,
//! head)` (a uniform share plus a per-machine prefix) against the dense
//! per-machine layout it stands for — the peaks, the first offender in
//! strict mode, and the violation count in relaxed mode.

use dgo::core::{combine_tree_layers, CoreError};
use dgo::graph::{LayerAssignment, UNASSIGNED};
use dgo::mpc::{ClusterConfig, Metrics, MpcError, RoundStats, SequentialBackend};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;

/// `outbox[src]` lists machine `src`'s `(destination, payload)` messages.
type Outbox = Vec<Vec<(usize, Vec<u64>)>>;

/// The round as the model sees it, every destination below `M`: one list
/// per destination, or the capacity error the round must report. On success
/// it records the round, and in relaxed mode one violation per offense.
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

/// Algorithm 4's min-combine as a routed round: proposal `i` starts on
/// machine `i mod M`, which sends one `[vertex, layer]` record per distinct
/// vertex it holds, with its least layer, to the vertex's home machine
/// `vertex mod M`; the model exchange routes the records, and the homes
/// keep the least layer per vertex.
fn routed_min_combine(
    config: ClusterConfig,
    metrics: &mut Metrics,
    n: usize,
    proposals: &[(u64, u32)],
) -> Result<LayerAssignment, MpcError> {
    let machines = config.num_machines;
    let mut held = vec![BTreeMap::new(); machines];
    for (i, &(vertex, layer)) in proposals.iter().enumerate() {
        let least: &mut u32 = held[i % machines].entry(vertex).or_insert(layer);
        *least = (*least).min(layer);
    }
    let outbox: Outbox = held
        .into_iter()
        .map(|records| {
            records
                .into_iter()
                .map(|(vertex, layer)| {
                    let home = (vertex % machines as u64) as usize;
                    (home, vec![vertex, u64::from(layer)])
                })
                .collect()
        })
        .collect();
    let mut layers = vec![UNASSIGNED; n];
    for record in model_exchange(config, metrics, &outbox)?
        .into_iter()
        .flatten()
    {
        let vertex = record[0] as usize;
        layers[vertex] = layers[vertex].min(record[1] as u32);
    }
    Ok(LayerAssignment::new(layers).expect("layers are nonzero"))
}

/// `count` proposals over `n` vertices with layers `1..=8`; with
/// probability `hot` a proposal names vertex 0, so a hot vertex collects
/// many of them.
fn random_proposals(rng: &mut StdRng, n: usize, count: usize, hot: f64) -> Vec<(u64, u32)> {
    (0..count)
        .map(|_| {
            let vertex = if rng.random_bool(hot) {
                0
            } else {
                rng.random_range(0..n as u64)
            };
            (vertex, rng.random_range(1..9u32))
        })
        .collect()
}

#[test]
fn min_combine_of_no_proposals_is_one_empty_round() {
    let config = ClusterConfig::new(1 << 20, 4);
    let mut backend = SequentialBackend::new(config);
    let layering = combine_tree_layers(5, Vec::new(), &mut backend).unwrap();
    assert_eq!(layering, LayerAssignment::unassigned(5));
    let mut expected = Metrics::new();
    routed_min_combine(config, &mut expected, 5, &[]).unwrap();
    assert_eq!(backend.metrics(), &expected);
    assert_eq!(
        backend.metrics().round_log,
        [RoundStats {
            round: 1,
            total_words: 0,
            max_sent: 0,
            max_received: 0
        }]
    );
}

#[test]
fn hot_vertex_fits_only_through_the_pre_combine() {
    // 400 proposals for vertex 3 on four machines of S = 8 words: each
    // machine sends one two-word record and vertex 3's home receives four,
    // where routing every proposal would send 200 words from each machine.
    let config = ClusterConfig::new(4, 8);
    let proposals: Vec<(u64, u32)> = (0..400).map(|i| (3, 400 - i)).collect();
    let mut backend = SequentialBackend::new(config);
    let layering = combine_tree_layers(10, proposals.clone(), &mut backend).unwrap();
    assert_eq!(layering.layer(3), 1);
    let mut expected = Metrics::new();
    assert_eq!(
        routed_min_combine(config, &mut expected, 10, &proposals),
        Ok(layering)
    );
    assert_eq!(backend.metrics(), &expected);
    let unmerged: Outbox = (0..4)
        .map(|src| {
            proposals[src..]
                .iter()
                .step_by(4)
                .map(|&(vertex, layer)| (3, vec![vertex, u64::from(layer)]))
                .collect()
        })
        .collect();
    assert!(matches!(
        model_exchange(config, &mut Metrics::new(), &unmerged),
        Err(MpcError::CapacityExceeded {
            machine: Some(0),
            words: 200,
            ..
        })
    ));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Three combines on one backend, each after up to two charged rounds:
    /// fewer and more proposals than machines, more vertices than machines,
    /// a hot vertex in a third of them, and capacities tight enough that
    /// some machines send or receive more than `S`.
    #[test]
    fn min_combine_matches_the_routed_model(
        machines in 1usize..12,
        n in 1usize..40,
        capacity in 1usize..24,
        strict in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let config = ClusterConfig::new(machines, capacity);
        let config = if strict { config } else { config.relaxed() };
        let mut rng = StdRng::seed_from_u64(seed);
        let mut backend = SequentialBackend::new(config);
        for _ in 0..3 {
            for _ in 0..rng.random_range(0..3usize) {
                let words = rng.random_range(0..20usize);
                backend.charge_rounds(1, words, capacity.min(words)).unwrap();
            }
            let mut expected = backend.metrics().clone();
            let hot = if rng.random_bool(0.3) { 0.7 } else { 0.0 };
            let count = rng.random_range(0..3 * machines + 4);
            let proposals = random_proposals(&mut rng, n, count, hot);
            let want = routed_min_combine(config, &mut expected, n, &proposals);
            let got = combine_tree_layers(n, proposals, &mut backend);
            prop_assert_eq!(got, want.map_err(CoreError::Mpc));
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
