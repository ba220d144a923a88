//! # dgo-bench — the experiment harness
//!
//! Regenerates every claim-derived table and figure of the reproduction
//! (DESIGN.md §6): the binaries `exp_rounds`, `exp_outdegree`, `exp_colors`,
//! `exp_decay`, `exp_memory`, and `exp_ablation` each print one experiment;
//! `exp_all` runs the full suite (this is what EXPERIMENTS.md records).
//! Criterion microbenchmarks for the core kernels live under `benches/`.
//!
//! ```bash
//! cargo run -p dgo-bench --release --bin exp_all          # full suite
//! cargo run -p dgo-bench --release --bin exp_rounds -- --big
//! cargo run -p dgo-bench --release --bin exp_all -- --backend parallel
//! cargo bench -p dgo-bench                                 # kernels
//! ```
//!
//! Every experiment binary accepts `--backend <sequential|parallel>` to pick
//! the [`ExecutionBackend`] the simulation runs on (default: sequential) and
//! `--jobs <n>` to budget `n` host threads (`0` = all cores, default: 1) for
//! the two algorithmic parallelism tiers: composed parallel instances (the
//! coreness guess ladder, orientation edge parts, coloring vertex parts) and
//! the vertex-parallel stages inside every instance (`dgo_core::stage`).
//! Backends and job counts are observationally equivalent — identical
//! tables — so both flags only change host wall-clock; the `engine`,
//! `coreness`, and `stage` criterion benches measure the difference.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]

pub mod experiments;
pub mod report;
pub mod table;

pub use experiments::{
    e1_rounds, e2_outdegree, e3_colors, e4_decay, e5_memory, e5_wire, e6_ablation, e7_coreness,
    BIG_SIZES, DEFAULT_SIZES, SEED,
};
pub use table::Table;

// Re-exported so the experiment binaries can dispatch on a backend without a
// direct dgo-mpc dependency in their imports.
pub use dgo_mpc::{
    dispatch_backend, BackendKind, ExecutionBackend, ParallelBackend, SequentialBackend,
};

/// Parses the common `--big` flag shared by the experiment binaries and
/// returns the size sweep to use.
pub fn sizes_from_args() -> Vec<usize> {
    if std::env::args().any(|a| a == "--big") {
        BIG_SIZES.to_vec()
    } else {
        DEFAULT_SIZES.to_vec()
    }
}

/// Parses an optional `--n <value>` argument with a default.
pub fn n_from_args(default: usize) -> usize {
    let args: Vec<String> = std::env::args().collect();
    args.iter()
        .position(|a| a == "--n")
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// Parses the optional `--backend <sequential|parallel>` flag shared by the
/// experiment binaries (default: sequential).
///
/// # Panics
///
/// Panics with the parse error message on an unknown backend name.
pub fn backend_from_args() -> BackendKind {
    let args: Vec<String> = std::env::args().collect();
    match args.iter().position(|a| a == "--backend") {
        None => BackendKind::default(),
        Some(i) => match args.get(i + 1) {
            None => panic!(
                "--backend requires a value (one of {})",
                BackendKind::name_list()
            ),
            Some(value) => value.parse().unwrap_or_else(|e| panic!("{e}")),
        },
    }
}

/// Parses the optional `--jobs <n>` flag shared by the experiment binaries:
/// the host-thread budget shared by composed parallel instances and the
/// vertex-parallel stages inside them (`0` = all available cores; default: 1,
/// the sequential host loops). Tables are identical at any value.
///
/// # Panics
///
/// Panics if the flag is present without a non-negative integer value.
pub fn jobs_from_args() -> usize {
    let args: Vec<String> = std::env::args().collect();
    match args.iter().position(|a| a == "--jobs") {
        None => 1,
        Some(i) => match args.get(i + 1).and_then(|v| v.parse().ok()) {
            None => panic!("--jobs requires a non-negative integer (0 = all cores)"),
            Some(jobs) => jobs,
        },
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn default_sizes_ascend() {
        assert!(crate::DEFAULT_SIZES.windows(2).all(|w| w[0] < w[1]));
        assert!(crate::BIG_SIZES.windows(2).all(|w| w[0] < w[1]));
    }
}
