//! Quickstart: orient and color a random graph, print every statistic the
//! library reports.
//!
//! ```bash
//! cargo run --release --example quickstart
//! ```

use dgo::core::{color, estimate_lambda, orient, Params};
use dgo::graph::generators::gnm;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A random graph with n = 10_000 vertices and average degree 8.
    let n = 10_000;
    let g = gnm(n, 4 * n, 42);
    let params = Params::practical(n);
    println!(
        "graph: n = {}, m = {}, Δ = {}",
        g.num_vertices(),
        g.num_edges(),
        g.max_degree()
    );
    println!("arboricity estimate λ̂ = {}", estimate_lambda(&g, &params));

    // --- Theorem 1.1: low-outdegree orientation. ---
    let oriented = orient(&g, &params)?;
    oriented.orientation.validate(&g)?;
    println!("\n== orientation (Theorem 1.1) ==");
    println!(
        "max outdegree        : {}",
        oriented.orientation.max_out_degree()
    );
    println!("MPC rounds           : {}", oriented.metrics.rounds);
    println!(
        "peak machine memory  : {} words",
        oriented.metrics.peak_machine_memory
    );
    println!(
        "total communication  : {} words",
        oriented.metrics.total_comm_words
    );
    if let Some(layering) = &oriented.layering {
        println!(
            "layers               : {}",
            layering.max_layer().unwrap_or(0)
        );
    }
    for stats in &oriented.stats {
        println!(
            "k = {}, stages = {}, initial peel rounds = {}, fallbacks = {}",
            stats.k, stats.stages, stats.initial_peel_rounds, stats.fallback_rounds
        );
    }

    // --- Theorem 1.2: density-dependent coloring. ---
    let colored = color(&g, &params)?;
    colored.coloring.validate(&g)?;
    println!("\n== coloring (Theorem 1.2) ==");
    println!("colors used          : {}", colored.coloring.num_colors());
    println!("palette budget       : {}", colored.stats.palette);
    println!("Δ+1 reference        : {}", g.max_degree() + 1);
    println!("MPC rounds           : {}", colored.metrics.rounds);
    println!(
        "simulated LOCAL rnds : {}",
        colored.stats.simulated_local_rounds
    );

    Ok(())
}
