//! The execution backend.
//!
//! Every MPC algorithm in the workspace runs against the [`ExecutionBackend`]
//! trait, implemented by [`SequentialBackend`] (alias [`Cluster`]): the
//! deterministic single-threaded metering simulator. Round charging,
//! residency checkpoints and key homing are the trait's default methods;
//! only the exchange — one metering pass, one counting-sort scatter into a
//! flat [`PerMachine`] inbox, the capacity check — is the implementation's.

mod sequential;

pub use sequential::{Cluster, SequentialBackend};

use crate::config::ClusterConfig;
use crate::error::{MpcError, Result};
use crate::metrics::Metrics;
use crate::per_machine::PerMachine;
use crate::word::WordSized;

/// The execution substrate of the MPC simulator: synchronous message
/// exchange plus faithful round/load/memory accounting.
///
/// Implementations must be *observationally deterministic*: identical call
/// sequences produce identical inboxes (messages to machine `d` arrive in
/// `(source, production)` order), identical errors, and identical
/// [`Metrics`].
///
/// The capacity- and residency-accounting methods have default
/// implementations over [`config`](ExecutionBackend::config) and
/// [`metrics_mut`](ExecutionBackend::metrics_mut); only
/// [`exchange`](ExecutionBackend::exchange) — the part with real routing
/// work — is the implementation's.
pub trait ExecutionBackend {
    /// Creates a backend for the given cluster shape.
    fn from_config(config: ClusterConfig) -> Self
    where
        Self: Sized;

    /// The configuration this backend runs under.
    fn config(&self) -> &ClusterConfig;

    /// Metrics accumulated so far.
    fn metrics(&self) -> &Metrics;

    /// Mutable access to the metrics, for the metering defaults and for
    /// backend implementations recording rounds.
    fn metrics_mut(&mut self) -> &mut Metrics;

    /// Consumes the backend, returning its metrics.
    fn into_metrics(self) -> Metrics
    where
        Self: Sized;

    /// Executes one synchronous communication round.
    ///
    /// `outbox[src]` holds the `(destination, message)` pairs machine `src`
    /// produced. Returns the inbox: `inbox[dst]` holds the messages delivered
    /// to machine `dst`, in deterministic `(source, production)` order. Both
    /// sides are flat [`PerMachine`] buffers, so a round costs one offset per
    /// machine and a constant number of moves per message.
    ///
    /// # Errors
    ///
    /// * [`MpcError::WrongClusterWidth`] if `outbox.num_machines() != M`.
    /// * [`MpcError::UnknownMachine`] for the first out-of-range destination
    ///   in `(source, production)` order.
    /// * [`MpcError::CapacityExceeded`] in strict mode for the first machine,
    ///   in index order, that sends or receives more than `S` words (its
    ///   send checked before its receive).
    fn exchange<T: WordSized>(&mut self, outbox: PerMachine<(usize, T)>) -> Result<PerMachine<T>>;

    /// Number of machines `M`.
    fn num_machines(&self) -> usize {
        self.config().num_machines
    }

    /// Per-machine memory capacity `S` in words.
    fn local_memory(&self) -> usize {
        self.config().local_memory
    }

    /// The home machine of an integer key: round-robin `key mod M`
    /// (deterministic placement).
    fn home(&self, key: u64) -> usize {
        (key % self.config().num_machines as u64) as usize
    }

    /// Charges `rounds` synchronous rounds for a primitive whose internal
    /// message schedule is not materialized (e.g. the constant-round sorting
    /// network of \[GSZ11\]); `total_words` is the overall volume moved and
    /// `max_load` the worst per-machine load in any of those rounds.
    ///
    /// The volume is spread across the rounds with the division remainder
    /// distributed one word per round from the front, so the recorded
    /// `total_comm_words` equals `total_words` exactly. With `rounds == 0`
    /// nothing is recorded (the capacity check still runs) — callers
    /// charging a nonzero volume must charge at least one round.
    ///
    /// # Errors
    ///
    /// [`MpcError::CapacityExceeded`] in strict mode if `max_load > S`.
    fn charge_rounds(&mut self, rounds: u64, total_words: usize, max_load: usize) -> Result<()> {
        debug_assert!(
            rounds > 0 || total_words == 0,
            "charging {total_words} words over zero rounds drops them from the metrics"
        );
        let capacity = self.config().local_memory;
        if max_load > capacity {
            if self.config().strict {
                // Aggregate charges know only the worst per-machine load, not
                // which machine carries it.
                return Err(MpcError::CapacityExceeded {
                    machine: None,
                    round: self.metrics().rounds + 1,
                    words: max_load,
                    capacity,
                    direction: "send",
                });
            }
            self.metrics_mut().record_violation();
        }
        let spread = rounds.max(1) as usize;
        let base = total_words / spread;
        let remainder = total_words % spread;
        for i in 0..rounds as usize {
            let words = base + usize::from(i < remainder);
            self.metrics_mut().record_round(words, max_load, max_load);
        }
        Ok(())
    }

    /// Residency checkpoint: asserts that `per_machine[i]` words fit in `S`
    /// on every machine, and records peaks in the metrics.
    ///
    /// # Errors
    ///
    /// [`MpcError::MemoryExceeded`] in strict mode on the first over-budget
    /// machine; [`MpcError::WrongClusterWidth`] on a mis-sized slice.
    fn checkpoint_residency(&mut self, per_machine: &[usize]) -> Result<()> {
        let machines = self.config().num_machines;
        if per_machine.len() != machines {
            return Err(MpcError::WrongClusterWidth {
                expected: machines,
                found: per_machine.len(),
            });
        }
        self.metrics_mut().record_residency(per_machine);
        let capacity = self.config().local_memory;
        let strict = self.config().strict;
        for (machine, &words) in per_machine.iter().enumerate() {
            if words > capacity {
                if strict {
                    return Err(MpcError::MemoryExceeded {
                        machine,
                        words,
                        capacity,
                    });
                }
                self.metrics_mut().record_violation();
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn charge_rounds_distributes_remainder_exactly() {
        // Regression: integer division used to drop `total_words % rounds`,
        // under-counting total_comm_words (13 words over 3 rounds recorded
        // as 12). The remainder now spreads one word per round from the
        // front.
        let mut backend = SequentialBackend::from_config(ClusterConfig::new(2, 64));
        backend.charge_rounds(3, 13, 8).unwrap();
        assert_eq!(backend.metrics().rounds, 3);
        assert_eq!(backend.metrics().total_comm_words, 13);
        let words: Vec<usize> = backend
            .metrics()
            .round_log
            .iter()
            .map(|r| r.total_words)
            .collect();
        assert_eq!(words, vec![5, 4, 4]);
    }

    #[test]
    fn charge_rounds_zero_rounds_records_nothing() {
        let mut backend = SequentialBackend::from_config(ClusterConfig::new(2, 64));
        backend.charge_rounds(0, 0, 4).unwrap();
        assert_eq!(backend.metrics().rounds, 0);
        assert_eq!(backend.metrics().total_comm_words, 0);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "zero rounds")]
    fn charge_rounds_zero_rounds_with_volume_is_a_bug() {
        let mut backend = SequentialBackend::from_config(ClusterConfig::new(2, 64));
        let _ = backend.charge_rounds(0, 10, 4);
    }

    #[test]
    fn charge_rounds_exact_division_unchanged() {
        let mut backend = SequentialBackend::from_config(ClusterConfig::new(2, 64));
        backend.charge_rounds(3, 12, 4).unwrap();
        assert_eq!(backend.metrics().total_comm_words, 12);
        let words: Vec<usize> = backend
            .metrics()
            .round_log
            .iter()
            .map(|r| r.total_words)
            .collect();
        assert_eq!(words, vec![4, 4, 4]);
    }
}
