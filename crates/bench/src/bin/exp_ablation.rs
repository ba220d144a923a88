//! E6: parameter ablations — k_factor, budget, and step-count sweeps.
//!
//! Usage: `cargo run -p dgo-bench --release --bin exp_ablation [-- --n 8192] [-- --jobs 8]`

use dgo_bench::{e6_ablation, jobs_from_args, n_from_args};

fn main() {
    let n = n_from_args(1 << 13);
    for table in e6_ablation(n, jobs_from_args()) {
        println!("{table}");
    }
}
