//! E7: approximate coreness (paper footnote 2 / GLM19) vs exact.
//!
//! Usage: `cargo run -p dgo-bench --release --bin exp_coreness [-- --n 8192] [-- --jobs 8]`

use dgo_bench::{e7_coreness, jobs_from_args, n_from_args};

fn main() {
    println!("{}", e7_coreness(n_from_args(1 << 13), jobs_from_args()));
}
