//! # dgo-graph — graph substrate for the Ghaffari–Grunau reproduction
//!
//! This crate supplies everything the MPC/LOCAL algorithm crates need to talk
//! about graphs:
//!
//! * [`Graph`] — simple undirected graphs in CSR form;
//! * [`Orientation`], [`Coloring`], [`LayerAssignment`] — the three output
//!   artifacts of the paper's algorithms, each with validity checkers that
//!   the test-suite and experiment harness use as ground truth;
//! * density machinery — [`degeneracy`], exact [`densest_subgraph`] via
//!   Goldberg's flow reduction, [`pseudoarboricity`] (`= ⌈α⌉`), and
//!   [`arboricity_bounds`];
//! * [`generators`] — seeded deterministic workload families spanning the
//!   density spectrum (forests to planted dense cores).
//!
//! # Quick example
//!
//! ```
//! use dgo_graph::{arboricity_bounds, generators, Coloring, Graph};
//!
//! let g = generators::barabasi_albert(500, 3, 42);
//! let bounds = arboricity_bounds(&g, 1000);
//! assert!(bounds.lower >= 1);
//!
//! // Greedy coloring in reverse degeneracy order: ≤ degeneracy + 1 colors.
//! let deg = dgo_graph::degeneracy(&g);
//! let mut order = deg.order.clone();
//! order.reverse();
//! let coloring = Coloring::greedy(&g, &order);
//! coloring.validate(&g)?;
//! assert!(coloring.num_colors() <= deg.value + 1);
//! # Ok::<(), dgo_graph::GraphError>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]

mod coloring;
mod coreness;
mod degeneracy;
mod density;
mod error;
pub mod flow;
pub mod generators;
mod graph;
mod hpartition;
pub mod io;
mod orientation;

pub use coloring::Coloring;
pub use coreness::coreness;
pub use degeneracy::{degeneracy, peeling_density_lower_bound, Degeneracy};
pub use density::{
    arboricity_bounds, densest_subgraph, exact_max_density, pseudoarboricity, ArboricityBounds,
    DensestSubgraph,
};
pub use error::{GraphError, Result};
pub use graph::{Edges, Graph};
pub use hpartition::{LayerAssignment, UNASSIGNED};
pub use orientation::Orientation;
