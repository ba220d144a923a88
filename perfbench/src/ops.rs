//! The three public entry points the benchmark times, each followed by a
//! certificate check of its output. A check that fails, or an `Err`, is a
//! failed operation: the run goes on and counts it.

use crate::workload::{Workload, CORENESS_EPS};
use dgo_core::{approximate_coreness_on, color_on, orient_on, Params};
use dgo_graph::Graph;
use dgo_mpc::SequentialBackend;

/// An algorithm operation of a workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    Orient,
    Color,
    Coreness,
}

impl Op {
    pub const ALL: [Op; 3] = [Op::Orient, Op::Color, Op::Coreness];

    pub fn name(self) -> &'static str {
        match self {
            Op::Orient => "orient",
            Op::Color => "color",
            Op::Coreness => "coreness",
        }
    }
}

/// The deterministic outputs of one certified operation: backends and job
/// counts are contractually bit-identical, so every repetition of an
/// operation in a run, traced or not, must reproduce them exactly.
#[derive(Debug, Clone, PartialEq)]
pub enum Outcome {
    Orient {
        max_out_degree: usize,
        rounds: u64,
        comm_words: usize,
        stages: u32,
        peak_tree_bytes: usize,
    },
    Color {
        colors: usize,
        rounds: u64,
        comm_words: usize,
    },
    Coreness {
        exact_frac: f64,
        mean_ratio: f64,
        rounds: u64,
        comm_words: usize,
        guesses: usize,
    },
}

/// Runs `op` on `graph` without checking anything.
pub fn run(op: Op, graph: &Graph, params: &Params) -> Result<Raw, String> {
    let err = |e: dgo_core::CoreError| format!("{} failed: {e}", op.name());
    Ok(match op {
        Op::Orient => Raw::Orient(orient_on::<SequentialBackend>(graph, params).map_err(err)?),
        Op::Color => Raw::Color(color_on::<SequentialBackend>(graph, params).map_err(err)?),
        Op::Coreness => Raw::Coreness(
            approximate_coreness_on::<SequentialBackend>(graph, CORENESS_EPS, params)
                .map_err(err)?,
        ),
    })
}

/// The untouched result of an operation.
pub enum Raw {
    Orient(dgo_core::OrientResult),
    Color(dgo_core::ColorResult),
    Coreness(dgo_core::CorenessResult),
}

/// Certifies `raw` against `graph` and the workload's guards; `exact` is
/// the exact coreness of `graph`.
pub fn certify(raw: &Raw, graph: &Graph, exact: &[u32], w: &Workload) -> Result<Outcome, String> {
    match raw {
        Raw::Orient(r) => {
            r.orientation
                .validate(graph)
                .map_err(|e| format!("orientation invalid: {e}"))?;
            let stages = r.stats.first().map_or(0, |s| s.stages);
            if w.needs_stage2 && (stages == 0 || r.metrics.peak_tree_bytes == 0) {
                return Err(format!(
                    "guard: {} needs Stage 2, got {stages} stages and {} tree bytes",
                    w.name, r.metrics.peak_tree_bytes
                ));
            }
            Ok(Outcome::Orient {
                max_out_degree: r.orientation.max_out_degree(),
                rounds: r.metrics.rounds,
                comm_words: r.metrics.total_comm_words,
                stages,
                peak_tree_bytes: r.metrics.peak_tree_bytes,
            })
        }
        Raw::Color(r) => {
            r.coloring
                .validate(graph)
                .map_err(|e| format!("coloring invalid: {e}"))?;
            if let Some(v) =
                (0..graph.num_vertices()).find(|&v| r.coloring.color(v) as usize >= r.stats.palette)
            {
                return Err(format!(
                    "color {} of vertex {v} is outside the palette of {}",
                    r.coloring.color(v),
                    r.stats.palette
                ));
            }
            Ok(Outcome::Color {
                colors: r.coloring.num_colors(),
                rounds: r.metrics.rounds,
                comm_words: r.metrics.total_comm_words,
            })
        }
        Raw::Coreness(r) => {
            if r.estimate.len() != exact.len() {
                return Err("coreness estimate has the wrong length".to_string());
            }
            if let Some(v) = (0..exact.len()).find(|&v| r.estimate[v] < exact[v]) {
                return Err(format!(
                    "estimate {} of vertex {v} is below its coreness {}",
                    r.estimate[v], exact[v]
                ));
            }
            if w.needs_ladder && r.guesses.len() <= 1 {
                return Err(format!(
                    "guard: {} needs a guess ladder, got {} guesses",
                    w.name,
                    r.guesses.len()
                ));
            }
            let n = exact.len().max(1) as f64;
            let exact_count = exact
                .iter()
                .zip(&r.estimate)
                .filter(|(x, e)| x == e)
                .count();
            let ratio_sum: f64 = exact
                .iter()
                .zip(&r.estimate)
                .map(|(&x, &e)| f64::from(e) / f64::from(x.max(1)))
                .sum();
            Ok(Outcome::Coreness {
                exact_frac: exact_count as f64 / n,
                mean_ratio: ratio_sum / n,
                rounds: r.metrics.rounds,
                comm_words: r.metrics.total_comm_words,
                guesses: r.guesses.len(),
            })
        }
    }
}
