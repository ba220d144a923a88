//! Standard constant-round MPC primitives.
//!
//! The paper's implementation claims (Claims 3.5 and 3.11, Lemma 4.1) defer
//! to "standard MPC primitives developed in previous works, e.g.
//! [ASS+18, Gha]": constant-round sorting, broadcast trees, and key-wise
//! aggregation. This module provides the two the algorithms use — key-wise
//! aggregation (Algorithm 4's min-combine) and the Lemma 4.1 bundle gather,
//! whose sort and broadcast tree are charged as a cost model — with faithful
//! round/load metering.

mod aggregate;
mod broadcast;

pub use aggregate::aggregate_by_key;
pub use broadcast::{broadcast_tree_rounds, gather_bundles, SORT_ROUNDS};
