//! Quickstart: orient and color a random graph, print every statistic the
//! library reports.
//!
//! ```bash
//! cargo run --release --example quickstart
//! cargo run --release --example quickstart -- --backend parallel
//! ```
//!
//! `--backend <sequential|parallel>` picks the execution backend (default:
//! sequential). Both backends print identical numbers — the choice is
//! purely a host-performance decision.

use dgo::core::{color_on, estimate_lambda, orient_on, Params};
use dgo::graph::generators::gnm;
use dgo::mpc::{dispatch_backend, BackendKind, ExecutionBackend};

/// Minimal `--backend` parsing (the experiment binaries share the same flag
/// through `dgo-bench`; examples depend only on the umbrella crate).
fn backend_from_args() -> BackendKind {
    let args: Vec<String> = std::env::args().collect();
    args.iter()
        .position(|a| a == "--backend")
        .and_then(|i| args.get(i + 1))
        .map(|v| v.parse().unwrap_or_else(|e| panic!("{e}")))
        .unwrap_or_default()
}

fn run<B: ExecutionBackend + Send>() -> Result<(), Box<dyn std::error::Error>> {
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
    let oriented = orient_on::<B>(&g, &params)?;
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
    let colored = color_on::<B>(&g, &params)?;
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

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let kind = backend_from_args();
    println!("backend: {kind}");
    dispatch_backend!(kind, B => { run::<B>() })
}
