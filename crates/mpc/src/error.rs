//! Error types for the MPC simulator.

use std::error::Error as StdError;
use std::fmt;

/// Errors surfaced by the cluster when the strongly-sublinear-memory
/// constraints of the model are violated.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum MpcError {
    /// A machine tried to send or receive more than its memory capacity `S`
    /// within one round (the communication constraint of §1.1).
    CapacityExceeded {
        /// Machine that violated the constraint, or `None` when the offending
        /// load is a per-machine *maximum* not attributed to a specific
        /// machine (unmaterialized primitives charged via `charge_rounds`).
        machine: Option<usize>,
        /// Round in which the violation occurred (1-based, global counter).
        round: u64,
        /// Words the machine attempted to move.
        words: usize,
        /// The per-machine capacity `S`.
        capacity: usize,
        /// `"send"` or `"receive"`.
        direction: &'static str,
    },
    /// A machine's resident data exceeded its local memory `S` at a
    /// checkpoint.
    MemoryExceeded {
        /// Machine over budget.
        machine: usize,
        /// Resident words at the checkpoint.
        words: usize,
        /// The per-machine capacity `S`.
        capacity: usize,
    },
    /// A primitive was handed a key or consumer id outside the key range it
    /// was sized for.
    UnknownKey {
        /// `"consumer"`, `"bundle key"` or `"key"`.
        role: &'static str,
        /// The out-of-range id.
        key: u64,
        /// The declared key range: valid ids are `0..keys`.
        keys: usize,
    },
    /// An operation received per-machine input of the wrong width.
    WrongClusterWidth {
        /// Expected number of machines.
        expected: usize,
        /// Number of per-machine entries supplied.
        found: usize,
    },
    /// The summed global-memory peak of a parallel instance group exceeded
    /// the group's aggregate capacity (the union cluster hosting every
    /// instance's disjoint section cannot fit the composition).
    GroupMemoryExceeded {
        /// Number of instances composed in the group.
        instances: usize,
        /// Aggregate peak resident words across all instances.
        words: usize,
        /// Aggregate capacity: the sum of every instance's `M · S`.
        capacity: usize,
    },
}

impl fmt::Display for MpcError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MpcError::CapacityExceeded { machine: Some(machine), round, words, capacity, direction } => write!(
                f,
                "machine {machine} would {direction} {words} words in round {round}, capacity is {capacity}"
            ),
            MpcError::CapacityExceeded { machine: None, round, words, capacity, direction } => write!(
                f,
                "worst-loaded machine would {direction} {words} words in round {round}, capacity is {capacity}"
            ),
            MpcError::MemoryExceeded { machine, words, capacity } => write!(
                f,
                "machine {machine} holds {words} words, local memory is {capacity}"
            ),
            MpcError::UnknownKey { role, key, keys } => {
                write!(f, "{role} {key} out of range (keys are below {keys})")
            }
            MpcError::WrongClusterWidth { expected, found } => {
                write!(f, "per-machine input has {found} entries, cluster has {expected} machines")
            }
            MpcError::GroupMemoryExceeded { instances, words, capacity } => write!(
                f,
                "instance group of {instances} holds {words} words combined, aggregate capacity is {capacity}"
            ),
        }
    }
}

impl StdError for MpcError {}

/// Convenience result alias for cluster operations.
pub type Result<T> = std::result::Result<T, MpcError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_capacity() {
        let e = MpcError::CapacityExceeded {
            machine: Some(2),
            round: 9,
            words: 100,
            capacity: 64,
            direction: "send",
        };
        let s = e.to_string();
        assert!(s.contains("machine 2"));
        assert!(s.contains("send 100 words"));
        assert!(s.contains("round 9"));
    }

    #[test]
    fn display_capacity_unattributed() {
        // Aggregate charges (charge_rounds) know only the worst per-machine
        // load, not which machine carries it — no sentinel machine id.
        let e = MpcError::CapacityExceeded {
            machine: None,
            round: 3,
            words: 70,
            capacity: 64,
            direction: "send",
        };
        let s = e.to_string();
        assert!(s.contains("worst-loaded machine"));
        assert!(!s.contains("18446744073709551615"), "sentinel leaked: {s}");
    }

    #[test]
    fn display_group_memory() {
        let e = MpcError::GroupMemoryExceeded {
            instances: 4,
            words: 900,
            capacity: 512,
        };
        assert_eq!(
            e.to_string(),
            "instance group of 4 holds 900 words combined, aggregate capacity is 512"
        );
    }

    #[test]
    fn error_is_send_sync_static() {
        fn check<T: Send + Sync + 'static>() {}
        check::<MpcError>();
    }

    #[test]
    fn display_unknown_key() {
        let e = MpcError::UnknownKey {
            role: "consumer",
            key: 70,
            keys: 64,
        };
        assert_eq!(
            e.to_string(),
            "consumer 70 out of range (keys are below 64)"
        );
    }

    #[test]
    fn display_memory() {
        let e = MpcError::MemoryExceeded {
            machine: 0,
            words: 10,
            capacity: 5,
        };
        assert_eq!(e.to_string(), "machine 0 holds 10 words, local memory is 5");
    }
}
