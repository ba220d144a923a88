//! Bundle replication and gathering (the paper's Lemma 4.1).
//!
//! Lemma 4.1 ("directed exponentiation" support): every node `v` holds an
//! information bundle `B_v`, every node `u` wants the bundles of a list
//! `L_u`; provided the per-consumer volume fits in `n^δ` and the total volume
//! is `O(m + n)`, the task completes in `O(1)` MPC rounds via (1) a sort to
//! count requested copies, (2) a broadcast tree that replicates each bundle
//! `k_v` times growing by an `n^{δ/2}` fan-out per round, and (3) a
//! rank-matching delivery. [`gather_bundles`] implements exactly that cost
//! model: the payloads never move, because callers already hold them
//! host-side, so only their sizes enter the charge.

use crate::backend::ExecutionBackend;
use crate::error::{MpcError, Result};
use std::borrow::Borrow;

/// Rounds charged per distributed sort: the constant-round sample sort of
/// Goodrich–Sitchinava–Zhang \[GSZ11\] (sample, partition, route, local
/// sort — a constant independent of data size). [`gather_bundles`] charges
/// one for its copy count.
pub const SORT_ROUNDS: u64 = 3;

/// Rounds a broadcast tree needs to make `copies` copies with the given
/// per-round `fanout` (at least 1 round once any copying happens).
///
/// # Examples
///
/// ```
/// use dgo_mpc::primitives::broadcast_tree_rounds;
/// assert_eq!(broadcast_tree_rounds(1, 10), 0);
/// assert_eq!(broadcast_tree_rounds(10, 10), 1);
/// assert_eq!(broadcast_tree_rounds(101, 10), 3);
/// ```
pub fn broadcast_tree_rounds(copies: usize, fanout: usize) -> u64 {
    if copies <= 1 {
        return 0;
    }
    let fanout = fanout.max(2) as u128;
    let mut have: u128 = 1;
    let mut rounds = 0u64;
    while have < copies as u128 {
        have = have.saturating_mul(fanout);
        rounds += 1;
    }
    rounds
}

/// Charges the delivery of requested bundles to their consumers
/// (Lemma 4.1).
///
/// * `requests`: `(consumer, bundle_key)` pairs, both ids below `keys`,
///   read once, by value or by reference (a slice works too), so a caller
///   can stream them without collecting them first.
/// * `bundle_words(key)`: the payload words of `key`'s bundle, or `None`
///   when `key` has no bundle; such requests enter the copy-counting sort
///   but deliver nothing.
///
/// Cost charged: one sort (copy counting), a broadcast tree of depth
/// `log_{√S}(max copies)`, and one delivery round. Every delivered copy
/// costs its key word plus the payload. The host side counts the copies
/// per key and the words per consumer in two `keys`-long tables, so it
/// costs `O(requests + keys)`: no sort, and nothing per machine.
///
/// # Errors
///
/// * [`MpcError::UnknownKey`](crate::MpcError::UnknownKey) for the first
///   request, in order, whose consumer or key is `keys` or more (its
///   consumer checked first); nothing is charged then.
/// * Capacity errors if the per-consumer volume or balanced per-machine
///   volume exceeds `S` (the preconditions (A)/(B) of Lemma 4.1 are
///   violated).
///
/// # Examples
///
/// ```
/// use dgo_mpc::primitives::{gather_bundles, SORT_ROUNDS};
/// use dgo_mpc::{Cluster, ClusterConfig};
///
/// let mut cluster = Cluster::new(ClusterConfig::new(2, 1024));
/// // Consumers 0 and 1 both want bundle 10 (two words); 0 also wants 20.
/// let words = |key: u64| match key {
///     10 => Some(2),
///     20 => Some(1),
///     _ => None,
/// };
/// gather_bundles(&mut cluster, &[(0, 20), (0, 10), (1, 10)], 21, words)?;
/// // The sort, a one-round broadcast tree for bundle 10's two copies, and
/// // the delivery of 2 + 3 + 3 words.
/// assert_eq!(cluster.metrics().rounds, SORT_ROUNDS + 2);
/// assert_eq!(cluster.metrics().total_comm_words, 3 * 6 + 8 + 8);
/// # Ok::<(), dgo_mpc::MpcError>(())
/// ```
pub fn gather_bundles<B: ExecutionBackend>(
    cluster: &mut B,
    requests: impl IntoIterator<Item = impl Borrow<(u64, u64)>>,
    keys: usize,
    bundle_words: impl Fn(u64) -> Option<usize>,
) -> Result<()> {
    let m = cluster.num_machines();
    let s = cluster.local_memory();

    // Phase 1: count copies per bundle (sorting-based, SORT_ROUNDS). The
    // host tallies copies per key and delivered words per consumer in
    // place, keeping the largest of each as it goes.
    let mut copies = vec![0usize; keys];
    let mut consumer_words = vec![0usize; keys];
    let (mut max_copies, mut max_consumer, mut total_delivered) = (0, 0, 0usize);
    let in_range = |role, id: u64| {
        if id < keys as u64 {
            Ok(id as usize)
        } else {
            Err(MpcError::UnknownKey {
                role,
                key: id,
                keys,
            })
        }
    };
    let mut count = 0usize;
    for request in requests {
        let &(consumer, key) = request.borrow();
        count += 1;
        let consumer = in_range("consumer", consumer)?;
        let slot = in_range("bundle key", key)?;
        if let Some(words) = bundle_words(key) {
            copies[slot] += 1;
            max_copies = max_copies.max(copies[slot]);
            consumer_words[consumer] += 1 + words;
            max_consumer = max_consumer.max(consumer_words[consumer]);
            total_delivered += 1 + words;
        }
    }
    let count_volume = 2 * count; // (key, consumer) pairs
    let count_load = count_volume.div_ceil(m).max(1).min(count_volume.max(1));
    cluster.charge_rounds(SORT_ROUNDS, count_volume * SORT_ROUNDS as usize, count_load)?;

    // Phase 2: broadcast-tree replication with fan-out sqrt(S) (the paper's
    // n^{δ/2} growth factor).
    let fanout = ((s as f64).sqrt().floor() as usize).max(2);
    let tree_rounds = broadcast_tree_rounds(max_copies, fanout);
    if tree_rounds > 0 {
        let per_round_load = total_delivered.div_ceil(m).max(1);
        cluster.charge_rounds(tree_rounds, total_delivered, per_round_load)?;
    }

    // Phase 3: rank-matched delivery; the binding constraint is each
    // consumer's own inbox volume (precondition (A) of Lemma 4.1).
    let delivery_load = max_consumer.max(total_delivered.div_ceil(m)).max(1);
    cluster.charge_rounds(1, total_delivered, delivery_load)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::Cluster;
    use crate::config::ClusterConfig;

    fn cluster(machines: usize, memory: usize) -> Cluster {
        Cluster::new(ClusterConfig::new(machines, memory))
    }

    #[test]
    fn tree_rounds_edge_cases() {
        assert_eq!(broadcast_tree_rounds(0, 4), 0);
        assert_eq!(broadcast_tree_rounds(1, 4), 0);
        assert_eq!(broadcast_tree_rounds(2, 4), 1);
        assert_eq!(broadcast_tree_rounds(16, 4), 2);
        assert_eq!(broadcast_tree_rounds(17, 4), 3);
        // Fanout below 2 is clamped to 2.
        assert_eq!(broadcast_tree_rounds(8, 0), 3);
    }

    /// Bundle sizes of the tests: keys 10 and 20 hold two words and one.
    fn two_bundles(key: u64) -> Option<usize> {
        match key {
            10 => Some(2),
            20 => Some(1),
            _ => None,
        }
    }

    #[test]
    fn gather_charges_each_consumers_inbox() {
        // Consumer 0 gathers both bundles (3 + 2 words), consumer 1 one
        // (3 words), out of order and ungrouped: the delivery round's load
        // is consumer 0's inbox, the tree replicates bundle 10 twice.
        let mut c = cluster(2, 1024);
        let requests = [(0u64, 20u64), (1, 10), (0, 10)];
        gather_bundles(&mut c, requests, 21, two_bundles).unwrap();
        let log = &c.metrics().round_log;
        assert_eq!(log.len() as u64, SORT_ROUNDS + 2);
        assert!(log[..SORT_ROUNDS as usize]
            .iter()
            .all(|r| r.total_words == 6 && r.max_sent == 3));
        let tree = log[SORT_ROUNDS as usize];
        assert_eq!((tree.total_words, tree.max_sent), (8, 4));
        let delivery = log[SORT_ROUNDS as usize + 1];
        assert_eq!((delivery.total_words, delivery.max_sent), (8, 5));
    }

    #[test]
    fn missing_keys_ignored() {
        // The request is sorted, but nothing is replicated or delivered.
        let mut c = cluster(2, 1024);
        gather_bundles(&mut c, [(0, 99)], 100, two_bundles).unwrap();
        assert_eq!(c.metrics().rounds, SORT_ROUNDS + 1);
        assert_eq!(c.metrics().total_comm_words, 2 * SORT_ROUNDS as usize);
    }

    #[test]
    fn consumer_overload_errors() {
        let mut c = cluster(2, 8);
        // A 20-word bundle > S = 8.
        let err = gather_bundles(&mut c, [(1, 0)], 2, |_| Some(20)).unwrap_err();
        assert!(err.to_string().contains("capacity"));
    }

    #[test]
    fn replication_rounds_grow_with_copies() {
        // Fanout sqrt(64) = 8; 40 copies of one bundle force a deeper
        // broadcast tree than a single copy.
        let mut single = cluster(4, 64);
        let mut many = cluster(4, 64);
        gather_bundles(&mut single, [(1, 0)], 40, |_| Some(1)).unwrap();
        let reqs: Vec<(u64, u64)> = (0..40).map(|i| (i, 0)).collect();
        gather_bundles(&mut many, &reqs, 40, |_| Some(1)).unwrap();
        assert!(many.metrics().rounds > single.metrics().rounds);
    }

    #[test]
    fn empty_requests() {
        let mut c = cluster(2, 64);
        gather_bundles(&mut c, Vec::<(u64, u64)>::new(), 0, two_bundles).unwrap();
        assert_eq!(c.metrics().rounds, SORT_ROUNDS + 1);
        assert_eq!(c.metrics().total_comm_words, 0);
    }

    #[test]
    fn out_of_range_ids_are_typed_errors() {
        // The first bad request wins, its consumer checked before its key,
        // and nothing is charged.
        let mut c = cluster(2, 64);
        let requests = [(0u64, 10u64), (3, 99), (21, 10)];
        assert_eq!(
            gather_bundles(&mut c, requests, 21, two_bundles),
            Err(MpcError::UnknownKey {
                role: "bundle key",
                key: 99,
                keys: 21
            })
        );
        assert_eq!(
            gather_bundles(&mut c, [(u64::MAX, u64::MAX)], 21, two_bundles),
            Err(MpcError::UnknownKey {
                role: "consumer",
                key: u64::MAX,
                keys: 21
            })
        );
        assert_eq!(c.metrics().rounds, 0);
    }
}
