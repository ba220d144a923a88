//! # dgo — Density-dependent Graph Orientation and coloring in scalable MPC
//!
//! Umbrella crate for the reproduction of Ghaffari–Grunau, *"Density-Dependent
//! Graph Orientation and Coloring in Scalable MPC"* (PODC 2025). It re-exports
//! the public API of the four member crates:
//!
//! * [`graph`] — graph substrate: [`Graph`], generators, density machinery,
//!   and the output types [`Orientation`], [`Coloring`], [`LayerAssignment`];
//! * [`mpc`] — the metering MPC cluster simulator;
//! * [`local`] — the §1.4 baselines the paper compares against (\[BE08\]
//!   peeling and its direct LOCAL→MPC simulation) and Theorem 1.2's degree+1
//!   list-coloring subroutine;
//! * [`core`] — the paper's algorithms: `orient` (Theorem 1.1) and `color`
//!   (Theorem 1.2) with all their machinery.
//!
//! # Quickstart
//!
//! ```
//! use dgo::graph::generators::barabasi_albert;
//! use dgo::core::{orient, color, Params};
//!
//! let g = barabasi_albert(1_000, 3, 42);
//! let params = Params::practical(g.num_vertices());
//!
//! let oriented = orient(&g, &params)?;
//! oriented.orientation.validate(&g)?;
//! println!("max outdegree {} in {} MPC rounds",
//!          oriented.orientation.max_out_degree(), oriented.metrics.rounds);
//!
//! let colored = color(&g, &params)?;
//! colored.coloring.validate(&g)?;
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

pub use dgo_core as core;
pub use dgo_graph as graph;
pub use dgo_local as local;
pub use dgo_mpc as mpc;

pub use dgo_graph::{Coloring, Graph, LayerAssignment, Orientation};
