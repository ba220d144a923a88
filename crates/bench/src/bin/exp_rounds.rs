//! E1: round-complexity comparison — ours vs the direct simulation baseline.
//!
//! Usage: `cargo run -p dgo-bench --release --bin exp_rounds [-- --big] [-- --jobs 8]`

use dgo_bench::{e1_rounds, jobs_from_args, sizes_from_args};
use dgo_graph::generators::Family;

fn main() {
    let sizes = sizes_from_args();
    let jobs = jobs_from_args();
    for family in [Family::SparseGnm, Family::Tree, Family::PowerLaw] {
        println!("{}", e1_rounds(&sizes, family, jobs));
    }
}
