//! Key-wise aggregation with combiner pre-reduction.
//!
//! Aggregating values by key (min-combining layer proposals in Algorithm 4,
//! summing counters, ...) is a constant-round MPC primitive: each machine
//! first combines locally (the MapReduce "combiner" trick), then sends one
//! record per distinct key to the key's home machine. The pre-combine is what
//! keeps hot keys (e.g. a star center receiving `n-1` proposals) within the
//! per-machine load cap: at most `M` records per key cross the network.

use crate::backend::ExecutionBackend;
use crate::error::Result;
use crate::per_machine::PerMachine;
use crate::word::WordSized;

/// Aggregates `(key, value)` items by key with the associative, commutative
/// `combine` function. `items[i]` lists the items machine `i` holds. Returns,
/// per machine, the combined record for every key homed there (sorted by key
/// for determinism).
///
/// Costs one exchange round (after free local pre-combining). Both combines
/// work on each machine's list in place — a stable sort by key, then one
/// fold over each run of equal keys in list order — instead of building a
/// map per machine.
///
/// # Errors
///
/// [`MpcError::WrongClusterWidth`](crate::MpcError::WrongClusterWidth) if
/// `items` does not list every machine; otherwise propagates capacity errors
/// from the exchange.
///
/// # Examples
///
/// ```
/// use dgo_mpc::{Cluster, ClusterConfig, PerMachine};
/// use dgo_mpc::primitives::aggregate_by_key;
///
/// let mut cluster = Cluster::new(ClusterConfig::new(2, 64));
/// let items = PerMachine::from(vec![vec![(7u64, 3u64), (8, 1)], vec![(7, 2)]]);
/// let out = aggregate_by_key(&mut cluster, items, u64::min)?;
/// // Key 7 homes on machine 7 % 2 = 1; min(3, 2) = 2.
/// assert_eq!(out[1], [(7, 2)]);
/// assert_eq!(out[0], [(8, 1)]);
/// # Ok::<(), dgo_mpc::MpcError>(())
/// ```
pub fn aggregate_by_key<B, V, F>(
    cluster: &mut B,
    mut items: PerMachine<(u64, V)>,
    mut combine: F,
) -> Result<PerMachine<(u64, V)>>
where
    B: ExecutionBackend,
    V: WordSized + Copy,
    F: FnMut(V, V) -> V,
{
    items.retain_prefixes(|list| combine_runs(list, &mut combine));
    let outbox = items.map(|(key, value)| (cluster.home(key), (key, value)));
    let mut inbox = cluster.exchange(outbox)?;
    inbox.retain_prefixes(|list| combine_runs(list, &mut combine));
    Ok(inbox)
}

/// Sorts `list` stably by key and folds every run of equal keys, in list
/// order, into one record at the front; returns the number of records.
fn combine_runs<V: Copy>(list: &mut [(u64, V)], combine: &mut impl FnMut(V, V) -> V) -> usize {
    list.sort_by_key(|&(key, _)| key);
    let mut kept = 0;
    for i in 0..list.len() {
        let (key, value) = list[i];
        if kept > 0 && list[kept - 1].0 == key {
            list[kept - 1].1 = combine(list[kept - 1].1, value);
        } else {
            list[kept] = (key, value);
            kept += 1;
        }
    }
    kept
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::Cluster;
    use crate::config::ClusterConfig;

    #[test]
    fn min_aggregation() {
        let mut c = Cluster::new(ClusterConfig::new(3, 64));
        let items = PerMachine::from(vec![
            vec![(0u64, 5u64), (1, 7), (2, 9)],
            vec![(0, 3), (1, 8)],
            vec![(0, 6)],
        ]);
        let out = aggregate_by_key(&mut c, items, u64::min).unwrap();
        assert_eq!(out[0], [(0, 3)]); // 0 % 3 = 0
        assert_eq!(out[1], [(1, 7)]);
        assert_eq!(out[2], [(2, 9)]);
    }

    #[test]
    fn hot_key_fits_thanks_to_precombine() {
        // 2 machines, S = 8: 100 values for one key would blow the receive
        // cap without pre-combining; with it only 2 records cross.
        let mut c = Cluster::new(ClusterConfig::new(2, 8));
        let items = PerMachine::from(vec![
            (0..100).map(|i| (5u64, i as u64)).collect::<Vec<_>>(),
            (0..100)
                .map(|i| (5u64, (100 + i) as u64))
                .collect::<Vec<_>>(),
        ]);
        let out = aggregate_by_key(&mut c, items, u64::min).unwrap();
        assert_eq!(out[1], [(5, 0)]);
    }

    #[test]
    fn sum_aggregation_counts_every_record() {
        // A sum is not idempotent: a record folded twice, or dropped by the
        // pre-combine, changes the count.
        let mut c = Cluster::new(ClusterConfig::new(2, 64));
        let items = PerMachine::from(vec![
            vec![(4u64, 1u64), (4, 1), (5, 1)],
            vec![(4, 1), (5, 1), (6, 1)],
        ]);
        let out = aggregate_by_key(&mut c, items, |a, b| a + b).unwrap();
        assert_eq!(out[0], [(4, 3), (6, 1)]);
        assert_eq!(out[1], [(5, 2)]);
    }

    #[test]
    fn empty_input() {
        let mut c = Cluster::new(ClusterConfig::new(2, 8));
        let empty = PerMachine::from(vec![vec![], vec![]]);
        let out = aggregate_by_key::<_, u64, _>(&mut c, empty, u64::min).unwrap();
        assert!(out.iter().all(<[_]>::is_empty));
        assert_eq!(c.metrics().rounds, 1);
    }

    #[test]
    fn output_sorted_by_key() {
        let mut c = Cluster::new(ClusterConfig::new(1, 64));
        let items = PerMachine::from(vec![vec![(9u64, 1u64), (3, 1), (6, 1), (0, 1)]]);
        let out = aggregate_by_key(&mut c, items, u64::min).unwrap();
        let keys: Vec<u64> = out[0].iter().map(|&(k, _)| k).collect();
        assert_eq!(keys, vec![0, 3, 6, 9]);
    }
}
