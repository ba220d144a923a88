//! Standard constant-round MPC primitives.
//!
//! The paper's implementation claims (Claims 3.5 and 3.11, Lemma 4.1) defer
//! to "standard MPC primitives developed in previous works, e.g.
//! [ASS+18, Gha]": constant-round sorting, broadcast trees, and key-wise
//! aggregation. This module provides the two the algorithms use — the
//! key-wise min-combine (Algorithm 4) and the Lemma 4.1 bundle gather — as
//! faithful round and load metering over data the caller already holds:
//! [`min_by_key`] counts its one round's per-machine records, and
//! [`gather_bundles`] charges its sort and broadcast tree as a cost model.
//! Neither moves a payload.

mod aggregate;
mod broadcast;

pub use aggregate::min_by_key;
pub use broadcast::{broadcast_tree_rounds, gather_bundles, SORT_ROUNDS};
