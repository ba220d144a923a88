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
use crate::word::WordSized;
use std::collections::BTreeMap;

/// Aggregates `(key, value)` items by key with the associative, commutative
/// `combine` function. Returns, per machine, the combined record for every
/// key homed there (sorted by key for determinism).
///
/// Costs one exchange round (after free local pre-combining).
///
/// # Errors
///
/// Propagates capacity errors from the exchange.
///
/// # Examples
///
/// ```
/// use dgo_mpc::{Cluster, ClusterConfig};
/// use dgo_mpc::primitives::aggregate_by_key;
///
/// let mut cluster = Cluster::new(ClusterConfig::new(2, 64));
/// let items = vec![vec![(7u64, 3u64), (8, 1)], vec![(7, 2)]];
/// let out = aggregate_by_key(&mut cluster, items, u64::min)?;
/// // Key 7 homes on machine 7 % 2 = 1; min(3, 2) = 2.
/// assert_eq!(out[1], vec![(7, 2)]);
/// assert_eq!(out[0], vec![(8, 1)]);
/// # Ok::<(), dgo_mpc::MpcError>(())
/// ```
pub fn aggregate_by_key<B, V, F>(
    cluster: &mut B,
    items: Vec<Vec<(u64, V)>>,
    mut combine: F,
) -> Result<Vec<Vec<(u64, V)>>>
where
    B: ExecutionBackend,
    V: WordSized + Copy + Send + Sync,
    F: FnMut(V, V) -> V,
{
    let m = cluster.num_machines();
    // Local pre-combine on each machine.
    let mut outbox: Vec<Vec<(usize, (u64, V))>> = (0..m).map(|_| Vec::new()).collect();
    for (machine, local) in items.into_iter().enumerate() {
        // A BTreeMap both pre-combines and yields records already
        // key-sorted, keeping the outbox order deterministic.
        let mut combined: BTreeMap<u64, V> = BTreeMap::new();
        for (key, value) in local {
            combined
                .entry(key)
                .and_modify(|acc| *acc = combine(*acc, value))
                .or_insert(value);
        }
        for (key, value) in combined {
            outbox[machine].push((cluster.home(key), (key, value)));
        }
    }
    let inbox = cluster.exchange(outbox)?;
    let mut out: Vec<Vec<(u64, V)>> = Vec::with_capacity(m);
    for received in inbox {
        let mut combined: BTreeMap<u64, V> = BTreeMap::new();
        for (key, value) in received {
            combined
                .entry(key)
                .and_modify(|acc| *acc = combine(*acc, value))
                .or_insert(value);
        }
        out.push(combined.into_iter().collect());
    }
    Ok(out)
}

/// Counts occurrences of each key. Convenience wrapper over
/// [`aggregate_by_key`] with unit counts.
///
/// # Errors
///
/// Propagates capacity errors from the exchange.
pub fn count_by_key<B: ExecutionBackend>(
    cluster: &mut B,
    keys: Vec<Vec<u64>>,
) -> Result<Vec<Vec<(u64, u64)>>> {
    let items = keys
        .into_iter()
        .map(|ks| ks.into_iter().map(|k| (k, 1u64)).collect())
        .collect();
    aggregate_by_key(cluster, items, |a, b| a + b)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::Cluster;
    use crate::config::ClusterConfig;

    #[test]
    fn min_aggregation() {
        let mut c = Cluster::new(ClusterConfig::new(3, 64));
        let items = vec![
            vec![(0u64, 5u64), (1, 7), (2, 9)],
            vec![(0, 3), (1, 8)],
            vec![(0, 6)],
        ];
        let out = aggregate_by_key(&mut c, items, u64::min).unwrap();
        assert_eq!(out[0], vec![(0, 3)]); // 0 % 3 = 0
        assert_eq!(out[1], vec![(1, 7)]);
        assert_eq!(out[2], vec![(2, 9)]);
    }

    #[test]
    fn hot_key_fits_thanks_to_precombine() {
        // 2 machines, S = 8: 100 values for one key would blow the receive
        // cap without pre-combining; with it only 2 records cross.
        let mut c = Cluster::new(ClusterConfig::new(2, 8));
        let items = vec![
            (0..100).map(|i| (5u64, i as u64)).collect::<Vec<_>>(),
            (0..100)
                .map(|i| (5u64, (100 + i) as u64))
                .collect::<Vec<_>>(),
        ];
        let out = aggregate_by_key(&mut c, items, u64::min).unwrap();
        assert_eq!(out[1], vec![(5, 0)]);
    }

    #[test]
    fn count_by_key_counts() {
        let mut c = Cluster::new(ClusterConfig::new(2, 64));
        let keys = vec![vec![4u64, 4, 5], vec![4, 5, 6]];
        let out = count_by_key(&mut c, keys).unwrap();
        assert_eq!(out[0], vec![(4, 3), (6, 1)]);
        assert_eq!(out[1], vec![(5, 2)]);
    }

    #[test]
    fn empty_input() {
        let mut c = Cluster::new(ClusterConfig::new(2, 8));
        let out = aggregate_by_key::<_, u64, _>(&mut c, vec![vec![], vec![]], u64::min).unwrap();
        assert!(out.iter().all(Vec::is_empty));
        assert_eq!(c.metrics().rounds, 1);
    }

    #[test]
    fn output_sorted_by_key() {
        let mut c = Cluster::new(ClusterConfig::new(1, 64));
        let items = vec![vec![(9u64, 1u64), (3, 1), (6, 1), (0, 1)]];
        let out = aggregate_by_key(&mut c, items, u64::min).unwrap();
        let keys: Vec<u64> = out[0].iter().map(|&(k, _)| k).collect();
        assert_eq!(keys, vec![0, 3, 6, 9]);
    }
}
