//! E5: memory compliance — peak machine words vs S = n^δ.
//!
//! Usage: `cargo run -p dgo-bench --release --bin exp_memory [-- --big] [-- --jobs 8]`

use dgo_bench::{e5_memory, e5_wire, jobs_from_args, sizes_from_args};

fn main() {
    let sizes = sizes_from_args();
    let jobs = jobs_from_args();
    println!("{}", e5_memory(&sizes, jobs));
    println!("{}", e5_wire(&sizes, jobs));
}
