//! The execution backend.
//!
//! Every MPC algorithm in the workspace runs against the [`ExecutionBackend`]
//! trait, implemented by [`SequentialBackend`] (alias [`Cluster`]): the
//! deterministic single-threaded metering ledger. Round charging, residency
//! checkpoints and key homing are the trait's default methods. A round
//! counted machine by machine goes through the capacity rule
//! [`record_round`].

mod sequential;

pub use sequential::{Cluster, SequentialBackend};

use crate::config::ClusterConfig;
use crate::error::{MpcError, Result};
use crate::metrics::Metrics;

/// The metering ledger of the MPC simulator: faithful round, load and
/// memory accounting against the §1.1 model.
///
/// Implementations must be *observationally deterministic*: identical call
/// sequences produce identical errors and identical [`Metrics`].
///
/// The capacity- and residency-accounting methods have default
/// implementations over [`config`](ExecutionBackend::config) and
/// [`metrics_mut`](ExecutionBackend::metrics_mut).
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
            self.metrics_mut().record_violations(1);
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

    /// Residency checkpoint: every machine holds `base` words and machine
    /// `i < head.len()` holds `head[i]` more, and the peaks go into the
    /// metrics — machine peak `base + max(head)`, global total
    /// `base·M + Σ head`. A uniform share (the input graph spread evenly)
    /// plus a short per-machine prefix (trees dealt to the first machines)
    /// is what the algorithm layer holds, and this form costs `O(head)`
    /// instead of `O(M)`; a fully per-machine layout passes `(0, &loads)`.
    ///
    /// # Errors
    ///
    /// * [`MpcError::WrongClusterWidth`] if `head` is longer than `M`.
    /// * [`MpcError::MemoryExceeded`] in strict mode for the first machine,
    ///   in index order, over `S`. Relaxed mode records one violation per
    ///   machine over `S`, the uniform tail's in one step.
    fn checkpoint_residency(&mut self, base: usize, head: &[usize]) -> Result<()> {
        let machines = self.config().num_machines;
        if head.len() > machines {
            return Err(MpcError::WrongClusterWidth {
                expected: machines,
                found: head.len(),
            });
        }
        let head_max = head.iter().copied().max().unwrap_or(0);
        let head_total = head
            .iter()
            .fold(0usize, |sum, &words| sum.saturating_add(words));
        let total = base.saturating_mul(machines).saturating_add(head_total);
        self.metrics_mut()
            .record_residency(base.saturating_add(head_max), total);
        let capacity = self.config().local_memory;
        let strict = self.config().strict;
        let mut over = 0u64;
        for (machine, &words) in head.iter().enumerate() {
            let words = base.saturating_add(words);
            if words > capacity {
                if strict {
                    return Err(MpcError::MemoryExceeded {
                        machine,
                        words,
                        capacity,
                    });
                }
                over += 1;
            }
        }
        if base > capacity && head.len() < machines {
            if strict {
                return Err(MpcError::MemoryExceeded {
                    machine: head.len(),
                    words: base,
                    capacity,
                });
            }
            over += (machines - head.len()) as u64;
        }
        if over > 0 {
            self.metrics_mut().record_violations(over);
        }
        Ok(())
    }
}

/// One side of a round's per-machine word loads — what machines send, or
/// what they receive — added in machine index order. A machine that moves
/// 0 words changes no total, maximum or offender, so it may be left out.
#[derive(Debug, Default)]
pub(crate) struct Tally {
    total: usize,
    max: usize,
    /// The first machine over capacity, with its load.
    first_over: Option<(usize, usize)>,
    /// Machines over capacity.
    over: u64,
}

impl Tally {
    pub(crate) fn add(&mut self, machine: usize, words: usize, capacity: usize) {
        self.total += words;
        self.max = self.max.max(words);
        if words > capacity {
            self.first_over.get_or_insert((machine, words));
            self.over += 1;
        }
    }
}

/// Records one round from what its machines send and receive, tallied
/// machine by machine: the capacity rule of a counted round. Machines are
/// checked in index order, each one's send before its receive; strict mode
/// stops at the first offense and records nothing, relaxed mode records one
/// violation per offense. Then the round's total words, largest send and
/// largest receive go into the metrics.
///
/// # Errors
///
/// [`MpcError::CapacityExceeded`] in strict mode for the first offense, at
/// round `rounds + 1`.
pub(crate) fn record_round<B: ExecutionBackend>(
    backend: &mut B,
    sent: &Tally,
    received: &Tally,
) -> Result<()> {
    let offense = match (sent.first_over, received.first_over) {
        (Some((src, words)), Some((dst, _))) if src <= dst => Some((src, words, "send")),
        (Some((src, words)), None) => Some((src, words, "send")),
        (_, Some((dst, words))) => Some((dst, words, "receive")),
        (None, None) => None,
    };
    if let Some((machine, words, direction)) = offense {
        if backend.config().strict {
            return Err(MpcError::CapacityExceeded {
                machine: Some(machine),
                round: backend.metrics().rounds + 1,
                words,
                capacity: backend.local_memory(),
                direction,
            });
        }
        backend
            .metrics_mut()
            .record_violations(sent.over + received.over);
    }
    backend
        .metrics_mut()
        .record_round(sent.total, sent.max, received.max);
    Ok(())
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
