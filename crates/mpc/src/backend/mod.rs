//! Pluggable execution backends.
//!
//! Every MPC algorithm in the workspace runs against the [`ExecutionBackend`]
//! trait rather than a concrete simulator, so the execution substrate can be
//! swapped without touching algorithm code:
//!
//! * [`SequentialBackend`] — the deterministic single-threaded reference
//!   implementation (the original `Cluster`);
//! * [`ParallelBackend`] — identical semantics and metrics, with the
//!   per-machine metering of each round split into machine ranges on the
//!   rayon pool.
//!
//! Both are observationally equivalent: same inbox contents in the same
//! deterministic `(source, production)` order, same errors, same metrics —
//! property-tested in the workspace's `backend_equivalence` suite. Picking a
//! backend is therefore purely a host-performance decision; [`BackendKind`]
//! names the choices for configuration surfaces (CLI flags, configs).
//!
//! Shared semantics live here so backends cannot drift: round charging,
//! residency checkpoints and key homing in the trait's default methods, and
//! the exchange itself — one metering pass, one counting-sort scatter into
//! a flat [`PerMachine`] inbox, the capacity check — in one function both
//! backends call, differing only in how they split the metering.

mod parallel;
mod sequential;

pub use parallel::ParallelBackend;
pub use sequential::{Cluster, SequentialBackend};

use crate::config::ClusterConfig;
use crate::error::{MpcError, Result};
use crate::metrics::Metrics;
use crate::per_machine::PerMachine;
use crate::word::WordSized;
use std::fmt;
use std::ops::Range;
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
/// with real routing work — is backend-specific, and both built-in
/// backends implement it with the same routing and differ only in how they
/// split its metering.
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
    fn exchange<T: WordSized + Send + Sync>(
        &mut self,
        outbox: PerMachine<(usize, T)>,
    ) -> Result<PerMachine<T>>;

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

/// One side of a round's per-machine word loads — what machines send, or
/// what they receive — folded over a range of machines in index order.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Tally {
    total: usize,
    max: usize,
    /// The first machine over capacity, with its load.
    first_over: Option<(usize, usize)>,
    /// Machines over capacity.
    over: u64,
    /// The first out-of-range destination, in `(source, production)` order
    /// (send side only).
    unknown: Option<usize>,
}

impl Tally {
    fn add(&mut self, machine: usize, words: usize, capacity: usize) {
        self.total += words;
        self.max = self.max.max(words);
        if words > capacity {
            self.first_over.get_or_insert((machine, words));
            self.over += 1;
        }
    }

    /// Folds `self` with the tally of the machines that follow it.
    pub(crate) fn then(self, later: Tally) -> Tally {
        Tally {
            total: self.total + later.total,
            max: self.max.max(later.max),
            first_over: self.first_over.or(later.first_over),
            over: self.over + later.over,
            unknown: self.unknown.or(later.unknown),
        }
    }
}

/// The exchange both backends run: validate the width, tally the sources
/// (checking every destination), route by counting sort, tally the
/// destinations, then enforce the per-round capacity and record the round.
///
/// `split(machines, tally)` must cover `0..machines` with consecutive ranges,
/// call `tally` on each and fold the results left to right with
/// [`Tally::then`]; the result is then the same for every split, which is all
/// that distinguishes the backends.
pub(crate) fn metered_exchange<B, T, S>(
    backend: &mut B,
    outbox: PerMachine<(usize, T)>,
    split: S,
) -> Result<PerMachine<T>>
where
    B: ExecutionBackend + ?Sized,
    T: WordSized + Sync,
    S: Fn(usize, &(dyn Fn(Range<usize>) -> Tally + Sync)) -> Tally,
{
    let machines = backend.num_machines();
    if outbox.num_machines() != machines {
        return Err(MpcError::WrongClusterWidth {
            expected: machines,
            found: outbox.num_machines(),
        });
    }
    let capacity = backend.local_memory();
    let sent = split(machines, &|sources| {
        let mut tally = Tally::default();
        for src in sources {
            let mut words = 0;
            for (dst, payload) in &outbox[src] {
                if *dst >= machines && tally.unknown.is_none() {
                    tally.unknown = Some(*dst);
                }
                words += payload.words();
            }
            tally.add(src, words, capacity);
        }
        tally
    });
    if let Some(machine) = sent.unknown {
        return Err(MpcError::UnknownMachine {
            machine,
            num_machines: machines,
        });
    }
    let inbox = outbox.route(machines);
    let received = split(machines, &|destinations| {
        let mut tally = Tally::default();
        for dst in destinations {
            let words = inbox[dst].iter().map(WordSized::words).sum();
            tally.add(dst, words, capacity);
        }
        tally
    });
    // Machines are checked in index order, each one's send before its
    // receive; strict mode stops at the first offense, relaxed mode records
    // one violation per offense.
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
                capacity,
                direction,
            });
        }
        for _ in 0..sent.over + received.over {
            backend.metrics_mut().record_violation();
        }
    }
    backend
        .metrics_mut()
        .record_round(sent.total, sent.max, received.max);
    Ok(inbox)
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
