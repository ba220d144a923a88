//! The sequential (reference) execution backend.
//!
//! [`SequentialBackend`] is the deterministic single-threaded metering
//! simulator: operations compute their results in-process while the backend
//! faithfully accounts rounds, per-machine communication loads, and resident
//! memory against the model constraints of the paper's §1.1 — per round, no
//! machine may send or receive more than its memory capacity `S`, and
//! resident data must fit in `S`.
//!
//! In `strict` mode a violation aborts the computation with an error (the
//! algorithm does not fit the machine); in relaxed mode it is recorded in the
//! metrics so parameter sweeps can chart how far out of budget a
//! configuration is.
//!
//! Every other backend is defined by equivalence to this one: identical
//! inboxes, errors, and metrics for identical call sequences.

use crate::backend::{metered_exchange, ExecutionBackend};
use crate::config::ClusterConfig;
use crate::error::Result;
use crate::metrics::Metrics;
use crate::per_machine::PerMachine;
use crate::word::WordSized;

/// Backwards-compatible name for the reference backend: the original
/// simulator type was called `Cluster` before the backend trait existed.
pub type Cluster = SequentialBackend;

/// A simulated MPC cluster: `M` machines with `S` words of memory each,
/// executed sequentially and deterministically.
///
/// # Examples
///
/// ```
/// use dgo_mpc::{ClusterConfig, PerMachine, SequentialBackend};
///
/// let mut cluster = SequentialBackend::new(ClusterConfig::new(4, 1024));
/// // Machine 0 sends one word to machine 3.
/// let mut outbox: Vec<Vec<(usize, u64)>> = vec![vec![]; 4];
/// outbox[0].push((3, 99));
/// let inbox = cluster.exchange(PerMachine::from(outbox))?;
/// assert_eq!(inbox[3], [99]);
/// assert_eq!(cluster.metrics().rounds, 1);
/// # Ok::<(), dgo_mpc::MpcError>(())
/// ```
#[derive(Debug, Clone)]
pub struct SequentialBackend {
    config: ClusterConfig,
    metrics: Metrics,
}

impl SequentialBackend {
    /// Creates a backend from a configuration.
    pub fn new(config: ClusterConfig) -> Self {
        SequentialBackend {
            config,
            metrics: Metrics::new(),
        }
    }

    /// The configuration this backend runs under.
    pub fn config(&self) -> &ClusterConfig {
        &self.config
    }

    /// Number of machines `M`.
    pub fn num_machines(&self) -> usize {
        self.config.num_machines
    }

    /// Per-machine memory capacity `S` in words.
    pub fn local_memory(&self) -> usize {
        self.config.local_memory
    }

    /// Metrics accumulated so far.
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// Consumes the backend, returning its metrics.
    pub fn into_metrics(self) -> Metrics {
        self.metrics
    }

    /// The home machine of an integer key: round-robin `key mod M`, so
    /// range-structured data (vertex ids) spreads evenly; the mapping is
    /// deterministic.
    pub fn home(&self, key: u64) -> usize {
        ExecutionBackend::home(self, key)
    }

    /// Executes one synchronous communication round; see
    /// [`ExecutionBackend::exchange`]. Every machine's loads are tallied in
    /// one pass on the calling thread.
    ///
    /// # Errors
    ///
    /// * [`MpcError::WrongClusterWidth`](crate::MpcError::WrongClusterWidth)
    ///   if `outbox.num_machines() != M`.
    /// * [`MpcError::UnknownMachine`](crate::MpcError::UnknownMachine) for an
    ///   out-of-range destination.
    /// * [`MpcError::CapacityExceeded`](crate::MpcError::CapacityExceeded) in
    ///   strict mode if any machine sends or receives more than `S` words.
    pub fn exchange<T: WordSized + Send + Sync>(
        &mut self,
        outbox: PerMachine<(usize, T)>,
    ) -> Result<PerMachine<T>> {
        metered_exchange(self, outbox, |machines, tally| tally(0..machines))
    }

    /// Charges `rounds` synchronous rounds for an unmaterialized primitive;
    /// see [`ExecutionBackend::charge_rounds`].
    ///
    /// # Errors
    ///
    /// [`MpcError::CapacityExceeded`] in strict mode if `max_load > S`.
    pub fn charge_rounds(
        &mut self,
        rounds: u64,
        total_words: usize,
        max_load: usize,
    ) -> Result<()> {
        ExecutionBackend::charge_rounds(self, rounds, total_words, max_load)
    }

    /// Residency checkpoint; see [`ExecutionBackend::checkpoint_residency`].
    ///
    /// # Errors
    ///
    /// [`MpcError::MemoryExceeded`] in strict mode on the first over-budget
    /// machine.
    pub fn checkpoint_residency(&mut self, per_machine: &[usize]) -> Result<()> {
        ExecutionBackend::checkpoint_residency(self, per_machine)
    }

    /// Distributes `count` keyed items (`0..count`) over machines by home
    /// placement, returning per-machine key lists. Helper for loading inputs.
    pub fn scatter_keys(&self, count: u64) -> Vec<Vec<u64>> {
        ExecutionBackend::scatter_keys(self, count)
    }
}

impl ExecutionBackend for SequentialBackend {
    fn from_config(config: ClusterConfig) -> Self {
        SequentialBackend::new(config)
    }

    fn config(&self) -> &ClusterConfig {
        &self.config
    }

    fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    fn metrics_mut(&mut self) -> &mut Metrics {
        &mut self.metrics
    }

    fn into_metrics(self) -> Metrics {
        self.metrics
    }

    fn exchange<T: WordSized + Send + Sync>(
        &mut self,
        outbox: PerMachine<(usize, T)>,
    ) -> Result<PerMachine<T>> {
        SequentialBackend::exchange(self, outbox)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::MpcError;

    fn small() -> SequentialBackend {
        SequentialBackend::new(ClusterConfig::new(3, 8))
    }

    #[test]
    fn exchange_routes_messages() {
        let mut c = small();
        let outbox: Vec<Vec<(usize, u32)>> = vec![vec![(1, 10), (2, 20)], vec![(0, 30)], vec![]];
        let inbox = c.exchange(PerMachine::from(outbox)).unwrap();
        assert_eq!(inbox[0], [30]);
        assert_eq!(inbox[1], [10]);
        assert_eq!(inbox[2], [20]);
        assert_eq!(c.metrics().rounds, 1);
        assert_eq!(c.metrics().total_comm_words, 3);
    }

    #[test]
    fn exchange_rejects_wrong_width() {
        let mut c = small();
        let outbox: Vec<Vec<(usize, u32)>> = vec![vec![]];
        assert!(matches!(
            c.exchange(PerMachine::from(outbox)),
            Err(MpcError::WrongClusterWidth {
                expected: 3,
                found: 1
            })
        ));
    }

    #[test]
    fn exchange_rejects_unknown_destination() {
        let mut c = small();
        let outbox: Vec<Vec<(usize, u32)>> = vec![vec![(7, 1)], vec![], vec![]];
        assert!(matches!(
            c.exchange(PerMachine::from(outbox)),
            Err(MpcError::UnknownMachine { machine: 7, .. })
        ));
    }

    #[test]
    fn strict_send_capacity_enforced() {
        let mut c = small(); // S = 8
        let outbox: Vec<Vec<(usize, u64)>> =
            vec![(0..9).map(|i| (1usize, i)).collect(), vec![], vec![]];
        let err = c.exchange(PerMachine::from(outbox)).unwrap_err();
        assert!(matches!(
            err,
            MpcError::CapacityExceeded {
                direction: "send",
                ..
            }
        ));
    }

    #[test]
    fn strict_receive_capacity_enforced() {
        let mut c = small(); // S = 8; two senders each send 5 words to machine 2
        let outbox: Vec<Vec<(usize, u64)>> = vec![
            (0..5).map(|i| (2usize, i)).collect(),
            (0..5).map(|i| (2usize, i)).collect(),
            vec![],
        ];
        let err = c.exchange(PerMachine::from(outbox)).unwrap_err();
        assert!(matches!(
            err,
            MpcError::CapacityExceeded {
                machine: Some(2),
                direction: "receive",
                ..
            }
        ));
    }

    #[test]
    fn relaxed_mode_records_violation() {
        let mut c = SequentialBackend::new(ClusterConfig::new(2, 4).relaxed());
        let outbox: Vec<Vec<(usize, u64)>> = vec![(0..9).map(|i| (1usize, i)).collect(), vec![]];
        let inbox = c.exchange(PerMachine::from(outbox)).unwrap();
        assert_eq!(inbox[1].len(), 9);
        assert!(c.metrics().violations >= 1);
    }

    #[test]
    fn charge_rounds_accumulates() {
        let mut c = small();
        c.charge_rounds(3, 12, 4).unwrap();
        assert_eq!(c.metrics().rounds, 3);
        assert_eq!(c.metrics().total_comm_words, 12);
        assert_eq!(c.metrics().max_round_load, 4);
    }

    #[test]
    fn charge_rounds_capacity_checked() {
        let mut c = small(); // S = 8
        assert!(c.charge_rounds(1, 100, 100).is_err());
    }

    #[test]
    fn residency_checkpoint() {
        let mut c = small();
        c.checkpoint_residency(&[1, 8, 0]).unwrap();
        assert_eq!(c.metrics().peak_machine_memory, 8);
        let err = c.checkpoint_residency(&[9, 0, 0]).unwrap_err();
        assert!(matches!(
            err,
            MpcError::MemoryExceeded {
                machine: 0,
                words: 9,
                capacity: 8
            }
        ));
    }

    #[test]
    fn residency_wrong_width() {
        let mut c = small();
        assert!(c.checkpoint_residency(&[1, 2]).is_err());
    }

    #[test]
    fn scatter_keys_covers_all() {
        let c = small();
        let scattered = c.scatter_keys(10);
        let total: usize = scattered.iter().map(Vec::len).sum();
        assert_eq!(total, 10);
        for (machine, keys) in scattered.iter().enumerate() {
            for &k in keys {
                assert_eq!(c.home(k), machine);
            }
        }
    }

    #[test]
    fn home_is_deterministic_and_in_range() {
        let c = small();
        for k in 0..100u64 {
            assert!(c.home(k) < 3);
            assert_eq!(c.home(k), c.home(k));
        }
    }

    #[test]
    fn cluster_alias_still_works() {
        // Downstream code and docs predating the backend trait use `Cluster`.
        let mut c: Cluster = Cluster::new(ClusterConfig::new(2, 16));
        let inbox = c
            .exchange(PerMachine::from(vec![vec![(1usize, 5u64)], vec![]]))
            .unwrap();
        assert_eq!(inbox[1], [5]);
    }
}
