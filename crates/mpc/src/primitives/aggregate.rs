//! Key-wise aggregation with combiner pre-reduction, counted.
//!
//! Min-combining values by key (Algorithm 4's layer proposals) is a
//! constant-round MPC primitive: each machine first combines locally (the
//! MapReduce "combiner" trick), then sends one record per distinct key to
//! the key's home machine, which combines what it receives. The pre-combine
//! is what keeps hot keys (e.g. a star center receiving `n-1` proposals)
//! within the per-machine load cap: at most `M` records per key cross the
//! network. The caller already holds every item, and only per-machine word
//! counts enter the metering, so [`min_by_key`] counts the round instead of
//! routing it, as [`gather_bundles`](super::gather_bundles) does for
//! Lemma 4.1.

use crate::backend::{record_round, ExecutionBackend, Tally};
use crate::error::{MpcError, Result};

/// Words of one pre-combined record: its key and its value.
const RECORD_WORDS: usize = 2;

/// Min-combines `(key, value)` items by key in one metered round. Item `i`
/// starts on machine `i mod M`; every machine sends one record per distinct
/// key it holds to the key's home machine
/// ([`home`](ExecutionBackend::home)), and the round is charged from the
/// words each machine sends and receives in those two-word records.
/// Returns `minima`, `keys` long: `minima[key]` is the least value of
/// `key`'s items, or `u32::MAX` if it has none.
///
/// Nothing moves: one pass over the items, machine by machine, counts each
/// machine's distinct keys (its sent records) and each home machine's
/// received records with a last-source marker per key, and keeps each
/// key's minimum. The host cost is `O(items + keys)` in three arrays of at
/// most `keys` entries, whatever the machine count.
///
/// # Errors
///
/// * [`MpcError::UnknownKey`] for the first item, in order, whose key is
///   `keys` or more; nothing is charged then.
/// * [`MpcError::CapacityExceeded`] in strict mode for the first machine,
///   in index order, that sends or receives more than `S` words (its send
///   checked before its receive).
///
/// # Examples
///
/// ```
/// use dgo_mpc::primitives::min_by_key;
/// use dgo_mpc::{Cluster, ClusterConfig};
///
/// let mut cluster = Cluster::new(ClusterConfig::new(2, 64));
/// // Machine 0 holds the first and third items, machine 1 the second.
/// let minima = min_by_key(&mut cluster, &[(1, 3), (1, 2), (0, 1)], 3)?;
/// assert_eq!(minima, [1, 2, u32::MAX]);
/// // Three two-word records: machine 0 sends keys 0 and 1, machine 1 key 1.
/// assert_eq!(cluster.metrics().total_comm_words, 6);
/// # Ok::<(), dgo_mpc::MpcError>(())
/// ```
pub fn min_by_key<B: ExecutionBackend>(
    cluster: &mut B,
    items: &[(u64, u32)],
    keys: usize,
) -> Result<Vec<u32>> {
    let machines = cluster.num_machines();
    let mut minima = vec![u32::MAX; keys];
    // The last machine found holding each key: a machine's first item of a
    // key opens its record.
    let mut last_source = vec![usize::MAX; keys];
    let mut received = vec![0usize; machines.min(keys)];
    let capacity = cluster.local_memory();
    let mut sent = Tally::default();
    let mut first_bad = items.len();
    for src in 0..machines.min(items.len()) {
        let mut records = 0;
        for i in (src..items.len()).step_by(machines) {
            let (key, value) = items[i];
            if key >= keys as u64 {
                first_bad = first_bad.min(i);
                continue;
            }
            let slot = key as usize;
            if last_source[slot] != src {
                last_source[slot] = src;
                records += 1;
                received[cluster.home(key)] += 1;
            }
            minima[slot] = minima[slot].min(value);
        }
        sent.add(src, RECORD_WORDS * records, capacity);
    }
    if let Some(&(key, _)) = items.get(first_bad) {
        return Err(MpcError::UnknownKey {
            role: "key",
            key,
            keys,
        });
    }
    let mut homes = Tally::default();
    for (home, &records) in received.iter().enumerate() {
        homes.add(home, RECORD_WORDS * records, capacity);
    }
    record_round(cluster, &sent, &homes)?;
    Ok(minima)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::Cluster;
    use crate::config::ClusterConfig;

    #[test]
    fn min_aggregation() {
        // Items 0, 3, 6 start on machine 0, items 1, 4 on machine 1 and
        // item 2 on machine 2.
        let mut c = Cluster::new(ClusterConfig::new(3, 64));
        let items = [(0u64, 5u32), (0, 3), (0, 6), (1, 7), (1, 8), (2, 9), (2, 4)];
        let minima = min_by_key(&mut c, &items, 4).unwrap();
        assert_eq!(minima, [3, 7, 4, u32::MAX]);
        // Machine 0 sends keys {0, 1, 2}, machine 1 {0, 1}, machine 2
        // {0, 2}: seven records. Key k homes on machine k, which receives
        // one record per machine holding k.
        let round = c.metrics().round_log[0];
        assert_eq!(
            (round.total_words, round.max_sent, round.max_received),
            (14, 6, 6)
        );
    }

    #[test]
    fn hot_key_fits_thanks_to_precombine() {
        // 2 machines, S = 8: 200 values for one key would blow the receive
        // cap without pre-combining; with it only 2 records cross.
        let mut c = Cluster::new(ClusterConfig::new(2, 8));
        let items: Vec<(u64, u32)> = (0..200).map(|i| (5, 200 - i)).collect();
        let minima = min_by_key(&mut c, &items, 6).unwrap();
        assert_eq!(minima[5], 1);
        assert_eq!(c.metrics().round_log[0].max_received, 4);
    }

    #[test]
    fn empty_input() {
        let mut c = Cluster::new(ClusterConfig::new(2, 8));
        let minima = min_by_key(&mut c, &[], 3).unwrap();
        assert_eq!(minima, [u32::MAX; 3]);
        assert_eq!(c.metrics().rounds, 1);
        assert_eq!(c.metrics().total_comm_words, 0);
    }

    #[test]
    fn output_sorted_by_key() {
        // Whatever order the items arrive in, entry k holds key k.
        let mut c = Cluster::new(ClusterConfig::new(1, 64));
        let items = [(9u64, 1u32), (3, 2), (6, 3), (0, 4)];
        let minima = min_by_key(&mut c, &items, 10).unwrap();
        let keyed: Vec<(usize, u32)> = (0..10)
            .filter(|&k| minima[k] != u32::MAX)
            .map(|k| (k, minima[k]))
            .collect();
        assert_eq!(keyed, [(0, 4), (3, 2), (6, 3), (9, 1)]);
    }

    /// The `(machine, round, words, direction)` of the strict capacity
    /// error that `items` raise on `c`, checked to report `c`'s `S`.
    fn offense(
        c: &mut Cluster,
        items: &[(u64, u32)],
        keys: usize,
    ) -> (usize, u64, usize, &'static str) {
        match min_by_key(c, items, keys) {
            Err(MpcError::CapacityExceeded {
                machine: Some(machine),
                round,
                words,
                capacity,
                direction,
            }) if capacity == c.local_memory() => (machine, round, words, direction),
            other => panic!("expected a capacity error, got {other:?}"),
        }
    }

    #[test]
    fn strict_send_capacity_enforced() {
        // S = 8: machine 0 holds five keys and sends 10 words, while
        // machine 0 as a home receives exactly S, which fits.
        let mut c = Cluster::new(ClusterConfig::new(3, 8));
        let items: Vec<(u64, u32)> = (0..13u64)
            .map(|i| (if i % 3 == 0 { i / 3 } else { 0 }, 1))
            .collect();
        assert_eq!(offense(&mut c, &items, 5), (0, 1, 10, "send"));
        assert_eq!(c.metrics().rounds, 0);
    }

    #[test]
    fn strict_receive_capacity_enforced() {
        // S = 8. Four records home on machine 2 (keys 2 and 5): exactly S,
        // which fits. Six records there do not, though every machine sends
        // only 4 words; the error names the round after the recorded one.
        let mut c = Cluster::new(ClusterConfig::new(3, 8));
        min_by_key(&mut c, &[(2, 1), (2, 1), (2, 1), (5, 1)], 6).unwrap();
        assert_eq!(c.metrics().round_log[0].max_received, 8);
        let items = [(2, 1), (2, 1), (2, 1), (5, 1), (5, 1), (5, 1)];
        assert_eq!(offense(&mut c, &items, 6), (2, 2, 12, "receive"));
        assert_eq!(c.metrics().rounds, 1);
    }

    #[test]
    fn send_reported_before_receive_on_one_machine() {
        // S = 4: machine 0 sends keys 0, 2 and 4 (6 words) and, as their
        // home, receives four records (8 words).
        let mut c = Cluster::new(ClusterConfig::new(2, 4));
        let items = [(0, 1), (0, 1), (2, 1), (0, 1), (4, 1)];
        assert_eq!(offense(&mut c, &items, 5), (0, 1, 6, "send"));
    }

    #[test]
    fn relaxed_mode_records_violation() {
        // S = 4: machine 0 sends keys 1, 3 and 5 (6 words), and machine 1
        // receives their three records (6 words). The round still runs,
        // with one violation per offense.
        let mut c = Cluster::new(ClusterConfig::new(2, 4).relaxed());
        let items = [(1, 7), (0, 2), (3, 8), (0, 1), (5, 9), (0, 3)];
        let minima = min_by_key(&mut c, &items, 6).unwrap();
        assert_eq!(minima, [1, 7, u32::MAX, 8, u32::MAX, 9]);
        assert_eq!(c.metrics().violations, 2);
        let round = c.metrics().round_log[0];
        assert_eq!(
            (round.total_words, round.max_sent, round.max_received),
            (8, 6, 6)
        );
    }

    #[test]
    fn out_of_range_keys_are_typed_errors() {
        // The first bad item in index order wins, though machine 0, counted
        // first, holds a later one; nothing is charged.
        let mut c = Cluster::new(ClusterConfig::new(2, 64));
        let err = min_by_key(&mut c, &[(0, 1), (8, 1), (9, 1)], 4);
        assert_eq!(
            err,
            Err(MpcError::UnknownKey {
                role: "key",
                key: 8,
                keys: 4
            })
        );
        assert_eq!(c.metrics().rounds, 0);
    }
}
