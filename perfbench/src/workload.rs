//! The benchmark's workloads: which graph each one generates from the seed,
//! at which job budget it runs, and which guard keeps it measuring the
//! layer it was chosen for.

use dgo_core::Params;
use dgo_graph::generators::{barabasi_albert, planted_dense};
use dgo_graph::io::{parse_edge_list, write_edge_list};
use dgo_graph::{Graph, GraphError};

/// Host threads of every end-to-end run (`Params::jobs` and `DGO_JOBS`).
/// On a shared two-core host, wall-clock at two threads spreads too much
/// from run to run to hold a regression bound, so the end-to-end runs are
/// single-threaded and the traced run measures the parallel tiers.
pub const JOBS: usize = 1;

/// Threads the traced run gives the stage executor and the instance
/// fan-out when it measures their speed-ups.
pub const PROBE_JOBS: usize = 2;

/// ε of the coreness guess ladder `(1+ε)^i`.
pub const CORENESS_EPS: f64 = 0.5;

/// The stage cap `approximate_coreness_on` gives each guess's bounded
/// layering; the per-guess probes replay the guesses with the same cap.
pub const CORENESS_STAGES_CAP: u32 = 8;

/// Graph family and size of a workload's input.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Input {
    /// `barabasi_albert(n, attach, seed)`.
    BarabasiAlbert { n: usize, attach: usize },
    /// `planted_dense(n, background_m, core, seed)`.
    PlantedDense {
        n: usize,
        background_m: usize,
        core: usize,
    },
}

impl Input {
    /// The graph this input describes for `seed`.
    pub fn generate(&self, seed: u64) -> Graph {
        match *self {
            Input::BarabasiAlbert { n, attach } => barabasi_albert(n, attach, seed),
            Input::PlantedDense {
                n,
                background_m,
                core,
            } => planted_dense(n, background_m, core, seed),
        }
    }
}

/// Input sizes: `Full` is what the benchmark measures, `Smoke` keeps every
/// code path of the same workloads under a second for the tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    Full,
    Smoke,
}

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Workload {
    pub name: &'static str,
    pub input: Input,
    /// `Params::lambda_hint`: 0 estimates λ from the graph.
    pub lambda_hint: usize,
    /// Guard: orientation must run Stage 2 (Algorithms 1–4) and hold trees.
    pub needs_stage2: bool,
    /// Guard: the coreness ladder must run more than one guess.
    pub needs_ladder: bool,
}

/// Workload names, in the order `BENCHMARK.json` lists them.
pub const NAMES: [&str; 2] = ["powerlaw-lowhint", "planted-coreness"];

/// The workload called `name` at `size`, if there is one.
pub fn find(name: &str, size: Size) -> Option<Workload> {
    let smoke = size == Size::Smoke;
    let w = match name {
        // λ-hint 1 (k = 2) peels nothing in Stage 1, so boosted Stage-2
        // stages run Algorithms 1–4 on every vertex, with hub-skewed trees.
        "powerlaw-lowhint" => Workload {
            name: "powerlaw-lowhint",
            input: if smoke {
                Input::BarabasiAlbert {
                    n: 2_000,
                    attach: 4,
                }
            } else {
                Input::BarabasiAlbert {
                    n: 20_000,
                    attach: 4,
                }
            },
            lambda_hint: 1,
            needs_stage2: true,
            needs_ladder: false,
        },
        // A dense core on a sparse background: the coreness ladder runs
        // many guesses through dgo_mpc::instance. λ is estimated and
        // Stage-1 peeling orients every vertex, so orientation and coloring
        // run the large-λ partition paths and bypass Algorithms 1–4.
        "planted-coreness" => Workload {
            name: "planted-coreness",
            input: if smoke {
                Input::PlantedDense {
                    n: 2_000,
                    background_m: 8_000,
                    core: 32,
                }
            } else {
                Input::PlantedDense {
                    n: 50_000,
                    background_m: 200_000,
                    core: 64,
                }
            },
            lambda_hint: 0,
            needs_stage2: false,
            needs_ladder: true,
        },
        _ => return None,
    };
    Some(w)
}

impl Workload {
    /// The practical preset at this workload's λ-hint and [`JOBS`].
    pub fn params(&self, n: usize) -> Params {
        let mut params = Params::practical(n).with_jobs(JOBS);
        params.lambda_hint = self.lambda_hint;
        params
    }
}

/// The generated graph and its edge-list text, the benchmark's raw input.
pub fn generate(w: &Workload, seed: u64) -> (Graph, Vec<u8>) {
    let graph = w.input.generate(seed);
    let mut text = Vec::with_capacity(graph.num_edges() * 16);
    write_edge_list(&graph, &mut text).expect("writing to memory cannot fail");
    (graph, text)
}

/// Set-up: edge-list bytes to CSR. `parse_edge_list` takes its thread
/// count from `DGO_JOBS`, which must be [`JOBS`]; the build takes [`JOBS`].
pub fn ingest(text: &[u8]) -> Result<Graph, GraphError> {
    let (n, pairs) = parse_edge_list(text)?;
    Ok(Graph::from_normalized_unsorted(n, &pairs, JOBS))
}
