//! The sequential execution backend.
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

use crate::backend::{record_round, ExecutionBackend, Tally};
use crate::config::ClusterConfig;
use crate::error::{MpcError, Result};
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
    /// [`ExecutionBackend::exchange`]. One pass tallies what every stored
    /// source list sends (checking each destination), one counting sort
    /// routes the messages, one pass tallies what every stored destination
    /// list receives; then the capacity is enforced and the round recorded.
    /// Machines past the stored lists send and receive nothing, and a
    /// 0-word load changes no total, maximum or offender, so neither pass
    /// visits them.
    ///
    /// # Errors
    ///
    /// * [`MpcError::WrongClusterWidth`] if `outbox.num_machines() != M`.
    /// * [`MpcError::UnknownMachine`] for the first out-of-range destination
    ///   in `(source, production)` order.
    /// * [`MpcError::CapacityExceeded`] in strict mode for the first machine,
    ///   in index order, that sends or receives more than `S` words (its
    ///   send checked before its receive).
    pub fn exchange<T: WordSized>(
        &mut self,
        outbox: PerMachine<(usize, T)>,
    ) -> Result<PerMachine<T>> {
        let machines = self.config.num_machines;
        if outbox.num_machines() != machines {
            return Err(MpcError::WrongClusterWidth {
                expected: machines,
                found: outbox.num_machines(),
            });
        }
        let capacity = self.config.local_memory;
        let (mut sent, mut received) = (Tally::default(), Tally::default());
        // One more than the largest destination: the inbox stores that many.
        let mut used = 0;
        for (src, messages) in outbox.stored_lists().enumerate() {
            let mut words = 0;
            for (dst, payload) in messages {
                if *dst >= machines {
                    return Err(MpcError::UnknownMachine {
                        machine: *dst,
                        num_machines: machines,
                    });
                }
                used = used.max(dst + 1);
                words += payload.words();
            }
            sent.add(src, words, capacity);
        }
        let inbox = outbox.route(machines, used);
        for (dst, messages) in inbox.stored_lists().enumerate() {
            received.add(dst, messages.iter().map(WordSized::words).sum(), capacity);
        }
        record_round(self, &sent, &received)?;
        Ok(inbox)
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

    /// Residency checkpoint: every machine holds `base` words and machine
    /// `i < head.len()` holds `head[i]` more; see
    /// [`ExecutionBackend::checkpoint_residency`].
    ///
    /// # Errors
    ///
    /// [`MpcError::MemoryExceeded`] in strict mode on the first over-budget
    /// machine; [`MpcError::WrongClusterWidth`] if `head` is longer than the
    /// cluster.
    pub fn checkpoint_residency(&mut self, base: usize, head: &[usize]) -> Result<()> {
        ExecutionBackend::checkpoint_residency(self, base, head)
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

    fn exchange<T: WordSized>(&mut self, outbox: PerMachine<(usize, T)>) -> Result<PerMachine<T>> {
        SequentialBackend::exchange(self, outbox)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        c.checkpoint_residency(0, &[1, 8, 0]).unwrap();
        assert_eq!(c.metrics().peak_machine_memory, 8);
        assert_eq!(c.metrics().peak_global_memory, 9);
        // A uniform share plus a prefix: machines 0..3 hold 3 + [4, 1, 0].
        c.checkpoint_residency(3, &[4, 1]).unwrap();
        assert_eq!(c.metrics().peak_machine_memory, 8);
        assert_eq!(c.metrics().peak_global_memory, 14);
        let err = c.checkpoint_residency(0, &[9, 0, 0]).unwrap_err();
        assert!(matches!(
            err,
            MpcError::MemoryExceeded {
                machine: 0,
                words: 9,
                capacity: 8
            }
        ));
        // The first offender may lie in the uniform tail.
        let err = c.checkpoint_residency(9, &[]).unwrap_err();
        assert!(matches!(
            err,
            MpcError::MemoryExceeded {
                machine: 0,
                words: 9,
                ..
            }
        ));
        let err = c.checkpoint_residency(5, &[1, 4]).unwrap_err();
        assert!(matches!(
            err,
            MpcError::MemoryExceeded {
                machine: 1,
                words: 9,
                ..
            }
        ));
    }

    #[test]
    fn relaxed_residency_counts_every_offender() {
        let mut c = SequentialBackend::new(ClusterConfig::new(5, 8).relaxed());
        // Machines 0 and 2 of the head offend.
        c.checkpoint_residency(2, &[7, 0, 9]).unwrap();
        assert_eq!(c.metrics().violations, 2);
        // A base over capacity: every one of the five machines offends.
        c.checkpoint_residency(9, &[1]).unwrap();
        assert_eq!(c.metrics().violations, 7);
        assert_eq!(c.metrics().peak_machine_memory, 11);
        assert_eq!(c.metrics().peak_global_memory, 46);
    }

    #[test]
    fn residency_wrong_width() {
        let mut c = small();
        assert!(matches!(
            c.checkpoint_residency(0, &[1, 2, 3, 4]),
            Err(MpcError::WrongClusterWidth {
                expected: 3,
                found: 4
            })
        ));
        // A short head is a prefix, not a width error.
        c.checkpoint_residency(0, &[1, 2]).unwrap();
    }

    #[test]
    fn exchange_with_implicit_trailing_machines() {
        // Three sources declared, only the first stored; the inbox stores
        // destinations up to the largest one used.
        let mut c = small();
        let mut outbox = PerMachine::with_capacity(3, 2);
        outbox.push_machine([(1usize, 7u32), (0, 8)]);
        let inbox = c.exchange(outbox).unwrap();
        assert_eq!(inbox.num_machines(), 3);
        assert_eq!(inbox, PerMachine::from(vec![vec![8], vec![7], vec![]]));
        assert_eq!(c.metrics().round_log[0].max_received, 1);
        assert!(c
            .exchange(PerMachine::<(usize, u32)>::with_capacity(3, 0))
            .unwrap()
            .is_empty());
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
