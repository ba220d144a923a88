//! The sequential execution backend.
//!
//! [`SequentialBackend`] is the deterministic single-threaded metering
//! ledger: algorithms compute their results in-process on data the host
//! already holds, and the backend faithfully accounts rounds, per-machine
//! communication loads, and resident memory against the model constraints
//! of the paper's §1.1 — per round, no machine may send or receive more than
//! its memory capacity `S`, and resident data must fit in `S`.
//!
//! In `strict` mode a violation aborts the computation with an error (the
//! algorithm does not fit the machine); in relaxed mode it is recorded in the
//! metrics so parameter sweeps can chart how far out of budget a
//! configuration is.

use crate::backend::ExecutionBackend;
use crate::config::ClusterConfig;
use crate::error::Result;
use crate::metrics::Metrics;

/// Backwards-compatible name for the reference backend: the original
/// simulator type was called `Cluster` before the backend trait existed.
pub type Cluster = SequentialBackend;

/// A simulated MPC cluster: `M` machines with `S` words of memory each,
/// executed sequentially and deterministically.
///
/// # Examples
///
/// ```
/// use dgo_mpc::primitives::min_by_key;
/// use dgo_mpc::{ClusterConfig, SequentialBackend};
///
/// let mut cluster = SequentialBackend::new(ClusterConfig::new(4, 1024));
/// // Machine 0 sends key 3's two-word record to its home, machine 3.
/// let minima = min_by_key(&mut cluster, &[(3, 99)], 4)?;
/// assert_eq!(minima[3], 99);
/// assert_eq!(cluster.metrics().rounds, 1);
/// assert_eq!(cluster.metrics().total_comm_words, 2);
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

    /// Charges `rounds` synchronous rounds for an unmaterialized primitive;
    /// see [`ExecutionBackend::charge_rounds`].
    ///
    /// # Errors
    ///
    /// [`CapacityExceeded`](crate::MpcError::CapacityExceeded) in strict
    /// mode if `max_load > S`.
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
    /// [`MemoryExceeded`](crate::MpcError::MemoryExceeded) in strict mode on
    /// the first over-budget machine;
    /// [`WrongClusterWidth`](crate::MpcError::WrongClusterWidth) if `head` is
    /// longer than the cluster.
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::MpcError;

    fn small() -> SequentialBackend {
        SequentialBackend::new(ClusterConfig::new(3, 8))
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
        c.charge_rounds(1, 5, 5).unwrap();
        assert_eq!(c.metrics().total_comm_words, 5);
    }
}
