//! Benchmark of the dgo pipelines: Theorem 1.1's orientation, Theorem 1.2's
//! coloring and footnote 2's coreness ladder, run through their public
//! entry points on `SequentialBackend`, with every output certified.
//!
//! An untraced run ([`e2e::run`]) prints the end-to-end metrics; a traced
//! run ([`layers::run`]) times each layer's public functions in isolation
//! and writes its spans to a file. `run.py` beside this crate builds it and
//! is the command `BENCHMARK.json` names.

pub mod e2e;
pub mod layers;
pub mod ops;
pub mod report;
pub mod trace;
pub mod workload;
