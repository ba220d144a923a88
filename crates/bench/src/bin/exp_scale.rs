//! Scale harness: ingestion and end-to-end orientation at the 10⁷–10⁸-edge
//! regime, persisted as `BENCH_scale.json`.
//!
//! Generates (or reads with `--input`) an edge-list text buffer, then times
//! every phase separately and records one report leg each:
//!
//! * `scale/parse/{seed,fast}` — edge-list text → normalized pairs. `seed`
//!   is the original line-by-line `String` path kept verbatim below; `fast`
//!   is [`dgo_graph::io::parse_edge_list`], the chunk-parallel byte parser.
//! * `scale/build/{seed,fast}` — pairs → CSR. `seed` is the full-list
//!   sort+dedup ([`Graph::from_edges_by_sort`]); `fast` is the counting-sort
//!   build ([`Graph::from_normalized_unsorted`]). The two graphs are
//!   asserted bit-identical before anything else runs.
//! * `scale/orient/sequential` and `scale/coreness/sequential` — end-to-end
//!   `orient` + approximate coreness on the parsed graph, on
//!   `SequentialBackend` (the leg names keep the backend for continuity of
//!   the persisted trajectory). The orient leg runs three times and records
//!   the median run with the fastest and the slowest; every other leg is
//!   one run.
//!
//! Every leg carries `peak_rss_bytes` (the kernel's `VmHWM` high-water mark
//! — monotonic, so read legs in order) next to the usual wall-clock, comm
//! words, and peak tree bytes, making memory claims machine-checkable per
//! PR.
//!
//! Usage:
//!
//! ```bash
//! cargo run -p dgo-bench --release --bin exp_scale                 # 10⁷ edges
//! cargo run -p dgo-bench --release --bin exp_scale -- --edges 100000000
//! cargo run -p dgo-bench --release --bin exp_scale -- --input soc-live.txt
//! cargo run -p dgo-bench --release --bin exp_scale -- --jobs 0
//! DGO_SCALE_SMOKE=1 cargo run -p dgo-bench --release --bin exp_scale  # ~10⁵ edges (CI)
//! ```

use dgo_bench::jobs_from_args;
use dgo_bench::report::{
    env_ingest_jobs, peak_rss_bytes, resolved_jobs, scale_smoke, BenchLeg, BenchReport,
};
use dgo_core::{approximate_coreness, orient, Params};
use dgo_graph::generators::gnm;
use dgo_graph::io::{parse_edge_list, write_edge_list};
use dgo_graph::Graph;
use std::time::Instant;

/// Coreness approximation quality used by the harness (matches E7's default
/// regime: a (2+ε)-approximation ladder at ε = 0.5).
const EPS: f64 = 0.5;

/// Average degree of the generated G(n, m) instance: `n = m / 4` gives
/// `2m/n = 8`, the sparse SNAP-like regime where ingestion, not density,
/// is the bottleneck.
const AVG_DEGREE: usize = 8;

/// Runs of the orient leg: a few seconds each at 10⁷ edges, so three give
/// its median and spread. The ingestion and coreness legs run once (the
/// coreness ladder takes most of a minute).
const ORIENT_PASSES: u64 = 3;

fn flag_value<T: std::str::FromStr>(flag: &str) -> Option<T> {
    let args: Vec<String> = std::env::args().collect();
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
}

/// Times `passes` runs of `body` and pushes their leg: the median run with
/// the fastest and the slowest, `samples: 1` — at this scale one end-to-end
/// run is one sample. Each run's output is dropped before the next starts,
/// so the peak RSS is one run's; the last output is returned. The leg's
/// comm words and peak tree bytes start at 0 for the caller to fill in.
fn leg<T>(
    report: &mut BenchReport,
    name: &str,
    jobs: usize,
    backend: &str,
    passes: u64,
    mut body: impl FnMut() -> T,
) -> T {
    let mut walls = Vec::new();
    let mut out = None;
    for _ in 0..passes {
        drop(out.take());
        let start = Instant::now();
        out = Some(body());
        walls.push(start.elapsed().as_secs_f64());
    }
    walls.sort_by(f64::total_cmp);
    let (wall, fastest, slowest) = (walls[walls.len() / 2], walls[0], walls[walls.len() - 1]);
    println!("{name:<32} {wall:>10.3}s ({passes} passes, {fastest:.3}..{slowest:.3}s)");
    report.push(BenchLeg {
        name: name.to_string(),
        wall_seconds: wall,
        wall_min_seconds: fastest,
        wall_max_seconds: slowest,
        passes,
        samples: 1,
        jobs,
        backend: backend.to_string(),
        comm_words: 0,
        peak_tree_bytes: 0,
        peak_rss_bytes: peak_rss_bytes(),
    });
    out.expect("at least one pass")
}

/// The pre-counting-sort ingestion pipeline, kept verbatim as the baseline
/// the `scale/{parse,build}/seed` legs measure: `BufRead::lines` with one
/// heap `String` per line into `(usize, usize)` staging pairs, then the
/// full-list sort+dedup CSR build.
mod seed_path {
    use dgo_graph::{Graph, GraphError};
    use std::io::{BufRead, Read};

    pub fn parse(reader: impl Read) -> Result<(usize, Vec<(usize, usize)>), GraphError> {
        const NODES_TAG: &str = "nodes:";
        let buffered = std::io::BufReader::new(reader);
        let mut edges: Vec<(usize, usize)> = Vec::new();
        let mut declared_nodes: Option<usize> = None;
        let mut max_id = 0usize;
        let mut saw_vertex = false;
        for (line_no, line) in buffered.lines().enumerate() {
            let line = line.map_err(|e| GraphError::InvalidParameter {
                reason: format!("i/o error on line {}: {e}", line_no + 1),
            })?;
            let trimmed = line.trim();
            if trimmed.is_empty() {
                continue;
            }
            if let Some(comment) = trimmed.strip_prefix('#') {
                let comment = comment.trim();
                if comment
                    .get(..NODES_TAG.len())
                    .is_some_and(|tag| tag.eq_ignore_ascii_case(NODES_TAG))
                {
                    let count = comment[NODES_TAG.len()..]
                        .split_whitespace()
                        .next()
                        .unwrap_or("");
                    declared_nodes =
                        Some(count.parse().map_err(|_| GraphError::InvalidParameter {
                            reason: format!("bad nodes header on line {}", line_no + 1),
                        })?);
                }
                continue;
            }
            let mut parts = trimmed.split_whitespace();
            let (u, v) = match (parts.next(), parts.next()) {
                (Some(u), Some(v)) => (u, v),
                _ => {
                    return Err(GraphError::InvalidParameter {
                        reason: format!("line {} is not an edge: {trimmed:?}", line_no + 1),
                    })
                }
            };
            let parse = |s: &str| -> Result<usize, GraphError> {
                s.parse().map_err(|_| GraphError::InvalidParameter {
                    reason: format!("bad vertex id {s:?} on line {}", line_no + 1),
                })
            };
            let (u, v) = (parse(u)?, parse(v)?);
            max_id = max_id.max(u).max(v);
            saw_vertex = true;
            edges.push((u, v));
        }
        let n = declared_nodes.unwrap_or(if saw_vertex { max_id + 1 } else { 0 });
        Ok((n, edges))
    }

    pub fn build(n: usize, edges: &[(usize, usize)]) -> Result<Graph, GraphError> {
        Graph::from_edges_by_sort(n, edges)
    }
}

fn main() {
    let smoke = scale_smoke();
    let default_edges: usize = if smoke { 100_000 } else { 10_000_000 };
    let target_edges: usize = flag_value("--edges").unwrap_or(default_edges);
    let seed: u64 = flag_value("--seed").unwrap_or(97);
    let jobs = jobs_from_args();
    let input: Option<String> = flag_value("--input");
    let mut report = BenchReport::new("scale");
    let ingest = env_ingest_jobs();

    // ---- The edge-list text buffer ----------------------------------------
    let text: Vec<u8> = match &input {
        Some(path) => {
            std::fs::read(path).unwrap_or_else(|e| panic!("cannot read edge list {path:?}: {e}"))
        }
        None => {
            let n = (target_edges / (AVG_DEGREE / 2)).max(2);
            let start = Instant::now();
            let g = gnm(n, target_edges, seed);
            println!(
                "generated G({n}, {}) in {:.3}s",
                g.num_edges(),
                start.elapsed().as_secs_f64()
            );
            let mut buffer = Vec::with_capacity(target_edges * 16);
            write_edge_list(&g, &mut buffer).expect("in-memory write");
            buffer
        }
    };
    println!(
        "edge-list buffer: {:.1} MiB, ingest threads: {ingest}, algorithm jobs: {jobs}",
        text.len() as f64 / (1 << 20) as f64
    );

    // ---- Ingestion: seed path vs fast path --------------------------------
    let (n_seed, pairs_seed) = leg(&mut report, "scale/parse/seed", 1, "host", 1, || {
        seed_path::parse(text.as_slice()).expect("seed parse")
    });
    let seed_parse_s = report.legs.last().expect("pushed").wall_seconds;
    let g_seed = leg(&mut report, "scale/build/seed", 1, "host", 1, || {
        seed_path::build(n_seed, &pairs_seed).expect("seed build")
    });
    let seed_build_s = report.legs.last().expect("pushed").wall_seconds;
    drop(pairs_seed);

    let (n_fast, pairs_fast) = leg(&mut report, "scale/parse/fast", ingest, "host", 1, || {
        parse_edge_list(&text).expect("fast parse")
    });
    let fast_parse_s = report.legs.last().expect("pushed").wall_seconds;
    let graph = leg(&mut report, "scale/build/fast", ingest, "host", 1, || {
        Graph::from_normalized_unsorted(n_fast, &pairs_fast, ingest)
    });
    let fast_build_s = report.legs.last().expect("pushed").wall_seconds;
    drop(pairs_fast);

    assert_eq!(
        graph, g_seed,
        "fast ingestion must be bit-identical to the seed path"
    );
    drop(g_seed);
    let speedup = (seed_parse_s + seed_build_s) / (fast_parse_s + fast_build_s).max(1e-12);
    println!(
        "ingestion (parse + build): seed {:.3}s, fast {:.3}s — {speedup:.2}x",
        seed_parse_s + seed_build_s,
        fast_parse_s + fast_build_s
    );
    println!(
        "graph: n = {}, m = {}",
        graph.num_vertices(),
        graph.num_edges()
    );

    // ---- End-to-end algorithms ---------------------------------------------
    let mut params = Params::practical(graph.num_vertices());
    params.jobs = jobs;
    let result = leg(
        &mut report,
        "scale/orient/sequential",
        resolved_jobs(jobs),
        "sequential",
        ORIENT_PASSES,
        || orient(&graph, &params).expect("orient"),
    );
    let last = report.legs.last_mut().expect("pushed");
    last.comm_words = result.metrics.total_comm_words;
    last.peak_tree_bytes = result.metrics.peak_tree_bytes;
    println!(
        "  orient: max out-degree {}, rounds {}, comm words {}",
        result.orientation.max_out_degree(),
        result.metrics.rounds,
        result.metrics.total_comm_words
    );
    drop(result);

    let coreness = leg(
        &mut report,
        "scale/coreness/sequential",
        resolved_jobs(jobs),
        "sequential",
        1,
        || approximate_coreness(&graph, EPS, &params).expect("coreness"),
    );
    let last = report.legs.last_mut().expect("pushed");
    last.comm_words = coreness.metrics.total_comm_words;
    last.peak_tree_bytes = coreness.metrics.peak_tree_bytes;
    println!(
        "  coreness: ladder of {} guesses, comm words {}",
        coreness.stats.len(),
        coreness.metrics.total_comm_words
    );

    // Workspace root: two levels above this package's manifest dir.
    match report.write_in(concat!(env!("CARGO_MANIFEST_DIR"), "/../..")) {
        Ok(path) => println!("wrote {}", path.display()),
        Err(e) => eprintln!("failed to write bench report: {e}"),
    }
}
