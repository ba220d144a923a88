//! E2: orientation quality — max outdegree vs arboricity, ours vs BE08.
//!
//! Usage: `cargo run -p dgo-bench --release --bin exp_outdegree [-- --n 8192] [-- --jobs 8]`

use dgo_bench::{e2_outdegree, jobs_from_args, n_from_args};

fn main() {
    println!("{}", e2_outdegree(n_from_args(1 << 13), jobs_from_args()));
}
