//! # dgo-core — the Ghaffari–Grunau algorithms
//!
//! Implementation of *"Density-Dependent Graph Orientation and Coloring in
//! Scalable MPC"* (PODC 2025): `poly(log log n)`-round scalable MPC
//! algorithms for low-outdegree orientation ([`orient`], Theorem 1.1) and
//! vertex coloring ([`color`], Theorem 1.2), both parameterized by the
//! arboricity `λ`.
//!
//! ## Paper-to-module map
//!
//! | Paper item | API |
//! |---|---|
//! | Defs 2.3–2.7 (valid mappings, attachment, missing neighbors) | [`ViewTree`] |
//! | Algorithm 1 `LocalPrune` | [`local_prune_batch`] |
//! | Algorithm 2 `ExponentiateAndLocalPrune` | [`exponentiate_and_prune_staged`] |
//! | Algorithm 3 `PartialLayerAssignmentTree` | [`partial_layer_assignment_trees`] |
//! | Algorithm 4 `PartialLayerAssignment` | [`partial_layer_assignment_staged`] (min-combine: [`combine_tree_layers`]) |
//! | Lemmas 2.1 / 2.2 (random partitioning) | [`partition_edges`] / [`partition_vertices`] |
//! | Definition 2.2 / Lemma 2.4 (path counts) | [`num_paths_in_staged`] / [`num_paths_out_staged`], [`lemma_2_4_bound`] |
//! | Lemmas 3.14–3.15 (iterated + boosted layering) | [`complete_layering`], [`partial_layering_bounded_in`] (one shared stage loop) |
//! | Theorem 1.1 | [`orient`] |
//! | Theorem 1.2 (+ Lemma 4.1) | [`color`] |
//! | Lemma 4.1 bundle size (delta/varint wire encoding) | [`ViewTree::wire_words`] |
//! | Footnote 2: coreness decomposition via parallel guesses (\[GLM19\]) | [`approximate_coreness`] |
//!
//! Each of Algorithms 1–4 and the path counts is a per-vertex map that the
//! model runs over every vertex (Claim 3.5), so each is public once, as a
//! stage over a [`StageExecutor`]: pass [`StageExecutor::sequential`] to run
//! it inline.
//!
//! ## Quickstart
//!
//! ```
//! use dgo_core::{color, orient, Params};
//! use dgo_graph::generators::gnm;
//!
//! let g = gnm(2_000, 8_000, 42);
//! let params = Params::practical(g.num_vertices());
//!
//! let oriented = orient(&g, &params)?;
//! oriented.orientation.validate(&g)?;
//!
//! let colored = color(&g, &params)?;
//! colored.coloring.validate(&g)?;
//! println!(
//!     "outdegree {} / colors {} in {} + {} MPC rounds",
//!     oriented.orientation.max_out_degree(),
//!     colored.coloring.num_colors(),
//!     oriented.metrics.rounds,
//!     colored.metrics.rounds,
//! );
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]

mod assign;
mod assign_tree;
mod color;
mod coreness;
mod error;
mod exponentiate;
mod orient;
mod params;
mod paths;
mod prune;
mod reduce;
pub mod stage;
mod vtree;
mod wire;

pub use assign::{combine_tree_layers, partial_layer_assignment_staged, PartialAssignmentResult};
pub use assign_tree::partial_layer_assignment_trees;
pub use color::{color, color_on, ColorResult, ColorStats};
pub use coreness::{approximate_coreness, approximate_coreness_on, CorenessResult};
pub use error::{CoreError, Result};
pub use exponentiate::{exponentiate_and_prune_staged, ExponentiationResult};
pub use orient::{
    complete_layering, complete_layering_on, estimate_lambda, layering_config, orient, orient_on,
    partial_layering_bounded_in, LayeringOutcome, LayeringStats, OrientResult,
};
pub use params::Params;
pub use paths::{lemma_2_4_bound, num_paths_in_staged, num_paths_out_staged};
pub use prune::local_prune_batch;
pub use reduce::{partition_edges, partition_vertices, VertexPart};
pub use stage::StageExecutor;
pub use vtree::{NodeId, ViewTree};
