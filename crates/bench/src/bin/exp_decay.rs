//! E4: layer-tail decay — Lemma 3.15 property 2, plus path-count mass.
//!
//! Usage: `cargo run -p dgo-bench --release --bin exp_decay [-- --n 16384] [-- --jobs 8]`

use dgo_bench::{e4_decay, jobs_from_args, n_from_args};
use dgo_graph::generators::Family;

fn main() {
    let n = n_from_args(1 << 14);
    let jobs = jobs_from_args();
    for family in [Family::SparseGnm, Family::PowerLaw] {
        println!("{}", e4_decay(n, family, jobs));
    }
}
