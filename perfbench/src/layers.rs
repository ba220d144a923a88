//! The traced run: per-layer numbers from public functions of each layer,
//! called in isolation under spans. Nothing here copies a driver loop, so
//! the drivers can be rewritten without breaking the probes.
//!
//! The run also executes each end-to-end operation twice, untraced and
//! traced: their deterministic outputs must agree, and the difference of
//! their times is the tracing overhead.

use crate::ops::{self, Op, Raw};
use crate::report::{reset_peak_rss, Metric, RunReport};
use crate::trace::Tracer;
use crate::workload::{generate, Workload, CORENESS_EPS, CORENESS_STAGES_CAP, JOBS, PROBE_JOBS};
use dgo_core::stage::StageExecutor;
use dgo_core::{
    approximate_coreness_on, color_on, combine_tree_layers, complete_layering_on, estimate_lambda,
    exponentiate_and_prune_staged, layering_config, partial_layer_assignment_staged,
    partial_layer_assignment_trees, partial_layering_bounded_in, Params,
};
use dgo_graph::io::parse_edge_list;
use dgo_graph::{coreness, degeneracy, Graph, UNASSIGNED};
use dgo_mpc::{split_jobs, ClusterConfig, ExecutionBackend, SequentialBackend};
use std::path::Path;
use std::time::Instant;

/// Collects metrics and failures of the traced run.
struct Sink {
    attempted: u64,
    failed: u64,
    metrics: Vec<Metric>,
}

impl Sink {
    fn put(&mut self, name: &'static str, unit: &'static str, value: f64) {
        self.metrics.push(Metric { name, unit, value });
    }

    /// Counts one attempted operation and returns its value, or logs the
    /// failure and returns `None`.
    fn check<T>(&mut self, what: &str, result: Result<T, String>) -> Option<T> {
        self.attempted += 1;
        match result {
            Ok(v) => Some(v),
            Err(e) => {
                eprintln!("{what}: {e}");
                self.failed += 1;
                None
            }
        }
    }

    fn report(self) -> RunReport {
        RunReport {
            attempted: self.attempted,
            failed: self.failed,
            metrics: self.metrics,
        }
    }
}

/// Runs the traced pass of `w` on the input of `seed` and writes its spans
/// to `trace_out`.
pub fn run(w: &Workload, seed: u64, trace_out: &Path) -> RunReport {
    let mut tr = Tracer::new(w.name);
    let mut sink = Sink {
        attempted: 0,
        failed: 0,
        metrics: Vec::new(),
    };
    let (generated, text) = generate(w, seed);
    reset_peak_rss();
    if let Some(graph) = ingest(&mut tr, &mut sink, &generated, &text) {
        drop((generated, text));
        probe(&mut tr, &mut sink, w, &graph);
    }
    let written = tr.write(trace_out).map_err(|e| e.to_string());
    sink.check("writing the trace", written);
    sink.report()
}

/// `dgo_graph::io` and `dgo_graph::graph`: the two halves of set-up.
fn ingest(tr: &mut Tracer, sink: &mut Sink, generated: &Graph, text: &[u8]) -> Option<Graph> {
    let (parsed, parse_s) = tr.span("io.parse", |_| parse_edge_list(text));
    let (n, pairs) = sink.check("set-up parse", parsed.map_err(|e| e.to_string()))?;
    let (graph, build_s) = tr.span("graph.build", |_| {
        Graph::from_normalized_unsorted(n, &pairs, JOBS)
    });
    let same = if graph == *generated {
        Ok(())
    } else {
        Err("built graph differs from the generated one".to_string())
    };
    sink.check("set-up build", same);
    sink.put("io.parse_s", "s", parse_s);
    sink.put("graph.build_s", "s", build_s);
    sink.put("io.input_mib", "MiB", text.len() as f64 / (1 << 20) as f64);
    Some(graph)
}

fn probe(tr: &mut Tracer, sink: &mut Sink, w: &Workload, graph: &Graph) {
    let n = graph.num_vertices();
    let params = w.params(n);
    let exact = coreness(graph);

    // End-to-end operations, untraced then traced.
    let mut guesses: Vec<usize> = Vec::new();
    let mut library_estimate: Vec<u32> = Vec::new();
    for op in Op::ALL {
        let begin = Instant::now();
        let plain = ops::run(op, graph, &params).and_then(|r| ops::certify(&r, graph, &exact, w));
        let plain_s = begin.elapsed().as_secs_f64();
        let (raw, traced_s) = tr.span(op.name(), |_| ops::run(op, graph, &params));
        let traced = raw.and_then(|r| {
            let outcome = ops::certify(&r, graph, &exact, w)?;
            if let Raw::Coreness(c) = r {
                guesses = c.guesses;
                library_estimate = c.estimate;
            }
            Ok(outcome)
        });
        let agree = match (plain, traced) {
            (Ok(a), Ok(b)) if a == b => Ok(()),
            (Ok(a), Ok(b)) => Err(format!("untraced {a:?} but traced {b:?}")),
            (Err(e), _) | (_, Err(e)) => Err(e),
        };
        sink.check(op.name(), agree);
        let name = match op {
            Op::Orient => "trace.orient_overhead_s",
            Op::Color => "trace.color_overhead_s",
            Op::Coreness => "trace.coreness_overhead_s",
        };
        sink.put(name, "s", traced_s - plain_s);
    }

    // dgo_graph::density and degeneracy.
    let (lambda_hat, estimate_s) = tr.span("density.estimate_lambda", |_| {
        estimate_lambda(graph, &params)
    });
    sink.put("density.estimate_lambda_s", "s", estimate_s);
    sink.put("density.lambda_hat", "count", lambda_hat as f64);
    let (degen, degen_s) = tr.span("degeneracy", |_| degeneracy(graph));
    sink.put("degeneracy.s", "s", degen_s);

    // dgo_core::orient with λ̂ preset, so λ is not estimated again.
    let mut preset = params.clone();
    preset.lambda_hint = lambda_hat;
    let config = layering_config(graph, &preset);
    sink.put("mpc.machines", "count", config.num_machines as f64);
    let (stage1, peel_s) = tr.span("orient.stage1_peel", |_| {
        partial_layering_bounded_in(
            graph,
            &preset,
            0,
            &mut SequentialBackend::from_config(config),
        )
    });
    sink.put("orient.stage1_peel_s", "s", peel_s);
    let (outcome, layering_s) = tr.span("orient.layering", |_| {
        complete_layering_on::<SequentialBackend>(graph, &preset)
    });
    sink.put("orient.layering_s", "s", layering_s);
    if let Some(outcome) = sink.check("layering", outcome.map_err(|e| e.to_string())) {
        let stats = &outcome.stats;
        sink.put("orient.stages", "count", f64::from(stats.stages));
        sink.put(
            "orient.peel_rounds",
            "rounds",
            f64::from(stats.initial_peel_rounds),
        );
        sink.put(
            "orient.fallback_rounds",
            "rounds",
            f64::from(stats.fallback_rounds),
        );
        sink.put("orient.layers", "count", f64::from(stats.layers));
        // dgo_graph::hpartition on the complete layering.
        let (oriented, orient_s) = tr.span("hpartition.to_orientation", |_| {
            outcome.layering.to_orientation(graph)
        });
        sink.check(
            "to_orientation",
            oriented.map(drop).map_err(|e| e.to_string()),
        );
        sink.put("hpartition.to_orientation_s", "s", orient_s);
        let (bound, bound_s) = tr.span("hpartition.out_degree_bound", |_| {
            outcome.layering.out_degree_bound(graph)
        });
        sink.check(
            "out_degree_bound",
            bound.map(drop).map_err(|e| e.to_string()),
        );
        sink.put("hpartition.out_degree_bound_s", "s", bound_s);
    }

    // dgo_core::color: the batches are what color_on adds to the layering.
    let (colored, color_s) = tr.span("color.with_layering", |_| {
        color_on::<SequentialBackend>(graph, &preset)
    });
    if let Some(c) = sink.check("color", colored.map_err(|e| e.to_string())) {
        sink.put("color.batches_s", "s", color_s - layering_s);
        sink.put("color.batches", "count", f64::from(c.stats.batches));
        sink.put("color.palette", "count", c.stats.palette as f64);
        sink.put(
            "color.local_rounds",
            "rounds",
            c.stats.simulated_local_rounds as f64,
        );
    }

    if let Some((layering, stats)) = sink.check("stage-1 peel", stage1.map_err(|e| e.to_string())) {
        let residual = layering.unassigned_vertices();
        sink.put("orient.stage1_residual", "count", residual.len() as f64);
        // The first Stage-2 stage's parameters: B is the bounded run's
        // starting budget, L and s follow from the public helpers.
        let (k, budget) = (stats.k, stats.final_budget);
        algorithms(tr, sink, graph, &preset, config, &residual, k, budget);
    }

    ladder(
        tr,
        sink,
        graph,
        &params,
        &guesses,
        &library_estimate,
        degen.value,
    );
}

/// Algorithms 2–4 on the Stage-1 residual, each on a fresh backend sized
/// like the driver's.
#[allow(clippy::too_many_arguments)]
fn algorithms(
    tr: &mut Tracer,
    sink: &mut Sink,
    graph: &Graph,
    preset: &Params,
    config: ClusterConfig,
    residual: &[usize],
    k: usize,
    budget: usize,
) {
    let ((sub, _), induced_s) = tr.span("graph.induced_subgraph", |_| {
        graph.induced_subgraph(residual)
    });
    sink.put("graph.induced_subgraph_s", "s", induced_s);
    let layers = preset.stage_layers(budget, k);
    let steps = preset.effective_steps(layers);
    let a = (steps as usize + 1) * k;
    let stage = StageExecutor::new(JOBS);

    // Algorithms 1–2, then again at 1 and at PROBE_JOBS threads for the
    // stage executor's speed-up on this residual.
    let (expo, expo_s) = tr.span("alg2.exponentiate", |_| {
        let mut c = SequentialBackend::from_config(config);
        exponentiate_and_prune_staged(&sub, budget, k, steps, &mut c, &stage)
            .map(|r| (r, c.into_metrics()))
    });
    let mut timed = |jobs: usize| {
        let (r, s) = tr.span(&format!("alg2.exponentiate_jobs{jobs}"), |_| {
            let stage = StageExecutor::new(jobs);
            exponentiate_and_prune_staged(
                &sub,
                budget,
                k,
                steps,
                &mut SequentialBackend::from_config(config),
                &stage,
            )
        });
        r.map(|_| s).map_err(|e| e.to_string())
    };
    let speedup = timed(1).and_then(|one| Ok(one / timed(PROBE_JOBS)?.max(1e-9)));
    if let Some(s) = sink.check("alg2 at 1 and PROBE_JOBS jobs", speedup) {
        sink.put("stage.alg2_speedup", "ratio", s);
    }
    sink.put("alg2.exponentiate_s", "s", expo_s);
    let Some((expo, metrics)) = sink.check("alg2", expo.map_err(|e| e.to_string())) else {
        return;
    };
    let tree_nodes: usize = expo.trees.iter().map(|t| t.len()).sum();
    sink.put("alg2.trees", "count", expo.trees.len() as f64);
    sink.put("alg2.tree_nodes", "count", tree_nodes as f64);
    sink.put(
        "alg2.bundle_wire_words",
        "words",
        metrics.bundle_wire_words as f64,
    );
    sink.put(
        "alg2.peak_tree_bytes",
        "bytes",
        metrics.peak_tree_bytes as f64,
    );
    sink.put("alg2.rounds", "rounds", metrics.rounds as f64);

    // Algorithm 3: per-tree peeling; a proposal is a finite-layer node.
    let (per_node, peel_s) = tr.span("alg3.tree_peel", |_| {
        partial_layer_assignment_trees(&sub, &expo.trees, a, layers, &stage)
    });
    sink.put("alg3.tree_peel_s", "s", peel_s);
    let proposals: Vec<(u64, u32)> = expo
        .trees
        .iter()
        .zip(&per_node)
        .flat_map(|(tree, layer)| {
            tree.node_ids()
                .zip(layer)
                .filter(|&(_, &l)| l != UNASSIGNED)
                .map(|(x, &l)| (tree.vertex(x) as u64, l))
        })
        .collect();
    drop(per_node);
    sink.put(
        "alg3.proposal_yield",
        "ratio",
        proposals.len() as f64 / tree_nodes.max(1) as f64,
    );
    sink.put("alg4.proposals", "count", proposals.len() as f64);
    drop(expo);

    // Algorithm 4: the min-combine exchange alone, then the whole stage.
    let (combined, combine_s) = tr.span("alg4.combine", |_| {
        combine_tree_layers(
            sub.num_vertices(),
            proposals,
            &mut SequentialBackend::from_config(config),
        )
    });
    sink.put("alg4.combine_s", "s", combine_s);
    let (staged, stage_s) = tr.span("alg4.stage", |_| {
        let mut c = SequentialBackend::from_config(config);
        partial_layer_assignment_staged(&sub, budget, k, layers, steps, &mut c, &stage)
            .map(|r| (r, c.into_metrics()))
    });
    sink.put("alg4.stage_s", "s", stage_s);
    let staged = combined
        .and_then(|combined| staged.map(|(r, metrics)| (combined == r.layering, r, metrics)));
    if let Some((same, r, metrics)) = sink.check("alg4", staged.map_err(|e| e.to_string())) {
        let same = if same {
            Ok(())
        } else {
            Err("the separate Alg 2-3-combine pipeline disagrees with Alg 4".to_string())
        };
        sink.check("alg4 consistency", same);
        let assigned = r.layering.num_assigned() as f64 / sub.num_vertices().max(1) as f64;
        sink.put("alg4.assigned_frac", "ratio", assigned);
        sink.put("mpc.max_round_load", "words", metrics.max_round_load as f64);
    }
}

/// dgo_core::coreness and dgo_mpc::instance: each guess of the ladder run
/// alone at the inner job budget a [`PROBE_JOBS`]-thread fan-out gives it,
/// folded in ladder order, then the whole ladder fanned out over
/// [`PROBE_JOBS`] threads. Both must reproduce the library's estimate.
fn ladder(
    tr: &mut Tracer,
    sink: &mut Sink,
    graph: &Graph,
    params: &Params,
    guesses: &[usize],
    library_estimate: &[u32],
    degeneracy: usize,
) {
    let split = split_jobs(PROBE_JOBS, guesses.len());
    let mut estimate = vec![degeneracy.max(1) as u32; graph.num_vertices()];
    let (mut sum_s, mut max_s, mut useful) = (0.0f64, 0.0f64, 0usize);
    for (i, &guess) in guesses.iter().enumerate() {
        let mut run_params = params.clone();
        run_params.lambda_hint = guess;
        run_params.jobs = split.inner(i);
        let (witness, guess_s) = tr.span("coreness.guess", |_| {
            let mut c = SequentialBackend::from_config(layering_config(graph, &run_params));
            let (layering, _) =
                partial_layering_bounded_in(graph, &run_params, CORENESS_STAGES_CAP, &mut c)
                    .map_err(|e| e.to_string())?;
            if layering.num_assigned() == 0 {
                return Ok(None);
            }
            let bound = layering
                .out_degree_bound(graph)
                .map_err(|e| e.to_string())?;
            Ok(Some((layering, bound.max(1) as u32)))
        });
        sum_s += guess_s;
        max_s = max_s.max(guess_s);
        if let Some(Some((layering, bound))) = sink.check("coreness guess", witness) {
            let mut lowered = false;
            for (v, e) in estimate.iter_mut().enumerate() {
                if layering.is_assigned(v) && *e > bound {
                    *e = bound;
                    lowered = true;
                }
            }
            useful += usize::from(lowered);
        }
    }
    let same = if estimate == library_estimate {
        Ok(())
    } else {
        Err("the per-guess fold disagrees with approximate_coreness_on".to_string())
    };
    sink.check("coreness ladder", same);
    sink.put("coreness.guesses", "count", guesses.len() as f64);
    sink.put("coreness.guess_sum_s", "s", sum_s);
    sink.put("coreness.guess_max_s", "s", max_s);
    sink.put(
        "coreness.useful_guesses_frac",
        "ratio",
        useful as f64 / guesses.len().max(1) as f64,
    );

    let fanned = params.clone().with_jobs(PROBE_JOBS);
    let (result, fanout_s) = tr.span("instance.ladder_fanout", |_| {
        approximate_coreness_on::<SequentialBackend>(graph, CORENESS_EPS, &fanned)
    });
    let same = match result {
        Ok(r) if r.estimate == library_estimate => Ok(()),
        Ok(_) => Err("the fanned-out ladder disagrees with the single-threaded one".to_string()),
        Err(e) => Err(e.to_string()),
    };
    if sink.check("coreness ladder fan-out", same).is_some() {
        sink.put(
            "instance.fanout_speedup",
            "ratio",
            sum_s / fanout_s.max(1e-9),
        );
    }
}
