//! Pluggable execution backends.
//!
//! Every MPC algorithm in the workspace runs against the [`ExecutionBackend`]
//! trait rather than a concrete simulator, so the execution substrate can be
//! swapped without touching algorithm code:
//!
//! * [`SequentialBackend`] — the deterministic single-threaded reference
//!   implementation (the original `Cluster`);
//! * [`ParallelBackend`] — identical semantics and metrics, with
//!   counting-sort message routing into flat pre-counted per-destination
//!   buffers and rayon-parallel per-machine metering.
//!
//! Both are observationally equivalent: same inbox contents in the same
//! deterministic `(source, production)` order, same errors, same metrics —
//! property-tested in the workspace's `backend_equivalence` suite. Picking a
//! backend is therefore purely a host-performance decision; [`BackendKind`]
//! names the choices for configuration surfaces (CLI flags, configs).
//!
//! Shared metering semantics (round charging, residency checkpoints, key
//! homing) live in this trait's default methods so backends cannot drift.

mod parallel;
mod sequential;

pub use parallel::ParallelBackend;
pub use sequential::{Cluster, SequentialBackend};

use crate::config::ClusterConfig;
use crate::error::{MpcError, Result};
use crate::metrics::Metrics;
use crate::word::WordSized;
use std::fmt;
use std::str::FromStr;

/// The execution substrate of the MPC simulator: synchronous message
/// exchange plus faithful round/load/memory accounting.
///
/// Implementations must be *observationally deterministic*: identical call
/// sequences produce identical inboxes (messages to machine `d` arrive in
/// `(source, production)` order), identical errors, and identical
/// [`Metrics`]. Algorithms may then be written once and executed on any
/// backend.
///
/// The capacity- and residency-accounting methods have default
/// implementations over [`config`](ExecutionBackend::config) and
/// [`metrics_mut`](ExecutionBackend::metrics_mut) so every backend meters
/// identically; only [`exchange`](ExecutionBackend::exchange) — the part
/// with real routing work — is backend-specific.
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
    /// `outbox[src]` holds `(destination, message)` pairs produced by machine
    /// `src`. Returns `inbox[dst]` = messages delivered to machine `dst`, in
    /// deterministic `(source, production)` order.
    ///
    /// # Errors
    ///
    /// * [`MpcError::WrongClusterWidth`] if `outbox.len() != M`.
    /// * [`MpcError::UnknownMachine`] for an out-of-range destination.
    /// * [`MpcError::CapacityExceeded`] in strict mode if any machine sends
    ///   or receives more than `S` words.
    fn exchange<T: WordSized + Send + Sync>(
        &mut self,
        outbox: Vec<Vec<(usize, T)>>,
    ) -> Result<Vec<Vec<T>>>;

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

    /// Enforces the per-round communication constraint after an exchange's
    /// loads are tallied: machines are checked in order, send before
    /// receive; strict mode errors on the first offense, relaxed mode
    /// records one violation per offense.
    ///
    /// Backend-implementor API: `exchange` implementations call this so the
    /// constraint semantics cannot drift between backends.
    ///
    /// # Errors
    ///
    /// [`MpcError::CapacityExceeded`] in strict mode.
    fn check_round_capacity(
        &mut self,
        sent: &[usize],
        received: &[usize],
        round: u64,
    ) -> Result<()> {
        let capacity = self.config().local_memory;
        let strict = self.config().strict;
        for machine in 0..sent.len() {
            if sent[machine] > capacity {
                if strict {
                    return Err(MpcError::CapacityExceeded {
                        machine: Some(machine),
                        round,
                        words: sent[machine],
                        capacity,
                        direction: "send",
                    });
                }
                self.metrics_mut().record_violation();
            }
            if received[machine] > capacity {
                if strict {
                    return Err(MpcError::CapacityExceeded {
                        machine: Some(machine),
                        round,
                        words: received[machine],
                        capacity,
                        direction: "receive",
                    });
                }
                self.metrics_mut().record_violation();
            }
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

    /// Distributes `count` keyed items (`0..count`) over machines by home
    /// placement, returning per-machine key lists. Helper for loading inputs.
    fn scatter_keys(&self, count: u64) -> Vec<Vec<u64>> {
        let mut out: Vec<Vec<u64>> = (0..self.config().num_machines)
            .map(|_| Vec::new())
            .collect();
        for key in 0..count {
            out[self.home(key)].push(key);
        }
        out
    }
}

/// Names the built-in backends for configuration surfaces (CLI flags,
/// experiment configs). Dispatch to the concrete type with
/// [`dispatch_backend!`](crate::dispatch_backend).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BackendKind {
    /// The single-threaded reference backend ([`SequentialBackend`]).
    #[default]
    Sequential,
    /// The rayon-parallel backend ([`ParallelBackend`]).
    Parallel,
}

impl BackendKind {
    /// Every selectable backend.
    pub const ALL: [BackendKind; 2] = [BackendKind::Sequential, BackendKind::Parallel];

    /// The flag/config name of this backend.
    pub fn name(self) -> &'static str {
        match self {
            BackendKind::Sequential => "sequential",
            BackendKind::Parallel => "parallel",
        }
    }

    /// Quoted, comma-separated list of every backend name, for error
    /// messages. Derived from [`BackendKind::ALL`] so it cannot drift when
    /// backends are added.
    pub fn name_list() -> String {
        Self::ALL
            .map(|kind| format!("{:?}", kind.name()))
            .join(", ")
    }
}

impl fmt::Display for BackendKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl FromStr for BackendKind {
    type Err = String;

    fn from_str(s: &str) -> std::result::Result<Self, Self::Err> {
        match s {
            "sequential" | "seq" => Ok(BackendKind::Sequential),
            "parallel" | "par" => Ok(BackendKind::Parallel),
            other => Err(format!(
                "unknown backend {other:?} (expected one of {})",
                BackendKind::name_list()
            )),
        }
    }
}

/// Expands the body once per [`BackendKind`] match arm, binding the chosen
/// concrete backend type to the given identifier:
///
/// ```
/// use dgo_mpc::{dispatch_backend, BackendKind, ClusterConfig, ExecutionBackend};
///
/// let kind: BackendKind = "parallel".parse().unwrap();
/// let machines = dispatch_backend!(kind, B => {
///     let backend = B::from_config(ClusterConfig::new(4, 64));
///     backend.num_machines()
/// });
/// assert_eq!(machines, 4);
/// ```
#[macro_export]
macro_rules! dispatch_backend {
    ($kind:expr, $backend:ident => $body:block) => {
        match $kind {
            $crate::BackendKind::Sequential => {
                type $backend = $crate::SequentialBackend;
                $body
            }
            $crate::BackendKind::Parallel => {
                type $backend = $crate::ParallelBackend;
                $body
            }
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_parses_and_displays() {
        assert_eq!(
            "sequential".parse::<BackendKind>().unwrap(),
            BackendKind::Sequential
        );
        assert_eq!("par".parse::<BackendKind>().unwrap(), BackendKind::Parallel);
        assert!("threads".parse::<BackendKind>().is_err());
        assert_eq!(BackendKind::Parallel.to_string(), "parallel");
        assert_eq!(BackendKind::default(), BackendKind::Sequential);
        // Retired backend names fail loudly, listing the live choices.
        for retired in ["sharded", "sharded:4", "process", "process:3"] {
            let err = retired.parse::<BackendKind>().unwrap_err();
            assert!(
                err.ends_with(r#"(expected one of "sequential", "parallel")"#),
                "{retired}: {err}"
            );
        }
    }

    #[test]
    fn name_list_covers_every_backend() {
        let list = BackendKind::name_list();
        for kind in BackendKind::ALL {
            assert!(list.contains(kind.name()), "{list} missing {}", kind.name());
        }
    }

    #[test]
    fn dispatch_selects_concrete_type() {
        for kind in BackendKind::ALL {
            let machines = dispatch_backend!(kind, B => {
                let backend = B::from_config(ClusterConfig::new(3, 32));
                backend.num_machines()
            });
            assert_eq!(machines, 3);
        }
    }

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
