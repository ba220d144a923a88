//! # dgo-mpc — a metering simulator for scalable MPC
//!
//! The Massively Parallel Computation model (§1.1 of the paper;
//! [KSV10, GSZ11, BKS17, ANOY14]) has `M` machines with `S` words of local
//! memory each; computation proceeds in synchronous rounds, and per round no
//! machine may send or receive more than `S` words. The *strongly sublinear*
//! (scalable) regime sets `S = n^δ` for constant `δ ∈ (0, 1)`.
//!
//! No reusable MPC runtime exists in the Rust ecosystem, so this crate
//! provides one as a *metering simulator*: algorithms execute in-process and
//! deterministically, while the backend accounts every round, every
//! per-machine communication load, and resident memory against the model's
//! constraints. Strict mode turns violations into hard [`MpcError`]s —
//! an algorithm that completes under strict metering is a certificate that
//! it fits the model at that `(M, S)`.
//!
//! ## The execution backend
//!
//! All simulator operations live behind the [`ExecutionBackend`] trait
//! (`exchange` / `charge_rounds` / `checkpoint_residency` / metrics), and
//! every algorithm crate in the workspace is generic over it. Its one
//! implementation is [`SequentialBackend`] ([`Cluster`] is an alias): the
//! deterministic single-threaded reference simulator.
//!
//! A round's outbox and inbox are flat [`PerMachine`] buffers: one offset per
//! machine plus one array of messages, routed by one counting sort. A round
//! therefore costs `O(M)` integers and a constant number of moves per
//! message, never a heap buffer per machine — the §1.1 clusters sized for
//! `Θ(n·B + m)` global memory have more machines than a typical round has
//! messages.
//!
//! Algorithms are written once against the trait and handed a backend:
//!
//! ```
//! use dgo_mpc::{ClusterConfig, ExecutionBackend, PerMachine, SequentialBackend};
//!
//! fn ping<B: ExecutionBackend>(backend: &mut B) -> dgo_mpc::Result<u64> {
//!     let mut outbox: Vec<Vec<(usize, u64)>> = vec![vec![]; backend.num_machines()];
//!     outbox[0].push((1, 42));
//!     Ok(backend.exchange(PerMachine::from(outbox))?[1][0])
//! }
//! assert_eq!(ping(&mut SequentialBackend::new(ClusterConfig::new(4, 1024)))?, 42);
//! # Ok::<(), dgo_mpc::MpcError>(())
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
//!
//! # Example: a round of communication under metering
//!
//! ```
//! use dgo_mpc::{Cluster, ClusterConfig, PerMachine};
//!
//! // n = 10_000-vertex graph, δ = 0.5 → S ≈ 100 words/machine.
//! let cfg = ClusterConfig::for_graph(10_000, 40_000, 0.5);
//! let mut cluster = Cluster::new(cfg);
//!
//! let mut outbox: Vec<Vec<(usize, u64)>> = vec![vec![]; cluster.num_machines()];
//! outbox[0].push((1, 42));
//! let inbox = cluster.exchange(PerMachine::from(outbox))?;
//! assert_eq!(inbox[1], [42]);
//! assert_eq!(cluster.metrics().rounds, 1);
//! # Ok::<(), dgo_mpc::MpcError>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]

mod backend;
mod config;
mod error;
pub mod instance;
mod metrics;
mod per_machine;
pub mod primitives;
pub mod tuning;
mod word;

pub use backend::{Cluster, ExecutionBackend, SequentialBackend};
pub use config::ClusterConfig;
pub use error::{MpcError, Result};
pub use instance::{resolve_jobs, split_jobs, InstanceGroup, JobSplit};
pub use metrics::{Metrics, RoundStats};
pub use per_machine::PerMachine;
pub use word::{packed_words, total_words, WordSized, BYTES_PER_WORD};
