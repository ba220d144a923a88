//! # dgo-mpc — a metering simulator for scalable MPC
//!
//! The Massively Parallel Computation model (§1.1 of the paper;
//! [KSV10, GSZ11, BKS17, ANOY14]) has `M` machines with `S` words of local
//! memory each; computation proceeds in synchronous rounds, and per round no
//! machine may send or receive more than `S` words. The *strongly sublinear*
//! (scalable) regime sets `S = n^δ` for constant `δ ∈ (0, 1)`.
//!
//! No reusable MPC runtime exists in the Rust ecosystem, so this crate
//! provides one as a *metering ledger*: algorithms execute in-process and
//! deterministically on data the host already holds, and the backend
//! accounts every round, every per-machine communication load, and resident
//! memory against the model's constraints. Nothing is routed or serialized:
//! an algorithm charges the word counts its rounds would move. Strict mode
//! turns violations into hard [`MpcError`]s — an algorithm that completes
//! under strict metering is a certificate that it fits the model at that
//! `(M, S)`.
//!
//! ## The execution backend
//!
//! The ledger sits behind the [`ExecutionBackend`] trait (`charge_rounds` /
//! `checkpoint_residency` / metrics), and every algorithm crate in the
//! workspace is generic over it. Its one implementation is
//! [`SequentialBackend`] ([`Cluster`] is an alias): the deterministic
//! single-threaded reference simulator.
//!
//! The §1.1 clusters sized for `Θ(n·B + m)` global memory have more
//! machines than a typical round has messages, so every metering step costs
//! what it meters, not `M`: a constant-round primitive is charged from its
//! volume and worst load ([`ExecutionBackend::charge_rounds`]), a residency
//! checkpoint takes a uniform share plus a per-machine prefix
//! ([`ExecutionBackend::checkpoint_residency`]), and the Lemma 4.1 gather
//! and Algorithm 4's min-combine count in tables over their key ranges
//! ([`primitives::gather_bundles`], [`primitives::min_by_key`]).
//!
//! Algorithms are written once against the trait and handed a backend:
//!
//! ```
//! use dgo_mpc::primitives::min_by_key;
//! use dgo_mpc::{Cluster, ClusterConfig, ExecutionBackend, MpcError};
//!
//! // A sort charged as three rounds moving 600 words, at most 40 per
//! // machine in any round, then a min-combine round over two items.
//! fn sort_then_combine<B: ExecutionBackend>(backend: &mut B) -> dgo_mpc::Result<u32> {
//!     backend.charge_rounds(3, 600, 40)?;
//!     Ok(min_by_key(backend, &[(1, 42), (1, 7)], 2)?[1])
//! }
//! // n = 10_000-vertex graph, δ = 0.5 → S = 100 words/machine.
//! let mut cluster = Cluster::new(ClusterConfig::for_graph(10_000, 40_000, 0.5));
//! assert_eq!(sort_then_combine(&mut cluster)?, 7);
//! assert_eq!(cluster.metrics().rounds, 4);
//! assert_eq!(cluster.metrics().total_comm_words, 604);
//! // A round that loads some machine past S does not fit the model.
//! let err = cluster.charge_rounds(1, 500, 101).unwrap_err();
//! assert!(matches!(err, MpcError::CapacityExceeded { round: 5, .. }));
//! # Ok::<(), MpcError>(())
//! ```
//!
//! ## Multi-instance execution
//!
//! Algorithm compositions that the paper runs "in parallel" on disjoint
//! cluster sections (the coreness guess ladder of footnote 2, Theorem 1.1's
//! per-part layerings) execute host-parallel through [`InstanceGroup`]: one
//! backend per logical instance, a caller closure fanned across `jobs` host
//! threads, and metrics composed with [`Metrics::merge_parallel`] plus an
//! aggregate global-memory check. Outputs are bit-identical to a sequential
//! host loop at any job count.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]

mod backend;
mod config;
mod error;
pub mod instance;
mod metrics;
pub mod primitives;
pub mod tuning;
mod word;

pub use backend::{Cluster, ExecutionBackend, SequentialBackend};
pub use config::ClusterConfig;
pub use error::{MpcError, Result};
pub use instance::{resolve_jobs, split_jobs, InstanceGroup, JobSplit};
pub use metrics::{Metrics, RoundStats};
pub use word::{packed_words, BYTES_PER_WORD};
