//! # dgo-local — the §1.4 baselines and Theorem 1.2's list-coloring subroutine
//!
//! The paper's reference points live here:
//!
//! * [`be08_peeling`] — the Barenboim–Elkin `(2+ε)λ` orientation /
//!   H-partition via `O(log n)`-round peeling \[BE08\], the algorithm the
//!   paper's MPC algorithm "approximately simulates" (§1.4);
//! * [`direct_peeling_mpc`] — the `Θ(log n)`-round direct LOCAL→MPC
//!   simulation of that peeling, fully metered on a [`dgo_mpc::Cluster`]:
//!   the baseline experiment E1 measures the paper's round counts against;
//! * [`randomized_list_coloring`] — degree+1 list coloring in `O(log n)`
//!   LOCAL rounds whp, the within-layer subroutine of Theorem 1.2
//!   (substituting for \[HKNT22\]; the module docs say why the substitute
//!   changes neither the palette nor any metered MPC round).

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]

mod baseline_mpc;
mod list_coloring;
mod peeling;

pub use baseline_mpc::{direct_peeling_mpc, DirectMpcResult};
pub use list_coloring::{randomized_list_coloring, ListColoringResult, UNCOLORED};
pub use peeling::{be08_peeling, PeelingResult};
