//! E3: coloring quality — palette size vs Δ+1 vs the λ·loglog budget.
//!
//! Usage: `cargo run -p dgo-bench --release --bin exp_colors [-- --n 8192] [-- --jobs 8]`

use dgo_bench::{e3_colors, jobs_from_args, n_from_args};

fn main() {
    println!("{}", e3_colors(n_from_args(1 << 13), jobs_from_args()));
}
