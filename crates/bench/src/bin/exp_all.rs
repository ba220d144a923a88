//! The full experiment suite (E1–E7, listed under "What the reproduction
//! checks" in PAPER.md).
//!
//! Usage: `cargo run -p dgo-bench --release --bin exp_all [-- --big] [-- --jobs 8]`

use dgo_bench::{
    e1_rounds, e2_outdegree, e3_colors, e4_decay, e5_memory, e5_wire, e6_ablation, e7_coreness,
    jobs_from_args, sizes_from_args,
};
use dgo_graph::generators::Family;

fn main() {
    let sizes = sizes_from_args();
    let n_mid = sizes[sizes.len() / 2];
    let jobs = jobs_from_args();

    println!("# dgo experiment suite (jobs: {jobs})\n");
    for family in [Family::SparseGnm, Family::Tree, Family::PowerLaw] {
        println!("{}", e1_rounds(&sizes, family, jobs));
    }
    println!("{}", e2_outdegree(n_mid, jobs));
    println!("{}", e3_colors(n_mid, jobs));
    for family in [Family::SparseGnm, Family::PowerLaw] {
        println!("{}", e4_decay(n_mid, family, jobs));
    }
    println!("{}", e5_memory(&sizes[..sizes.len().min(3)], jobs));
    println!("{}", e5_wire(&sizes[..sizes.len().min(3)], jobs));
    for table in e6_ablation(n_mid, jobs) {
        println!("{table}");
    }
    println!("{}", e7_coreness(n_mid, jobs));
}
