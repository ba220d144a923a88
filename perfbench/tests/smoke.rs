//! Runs every workload at smoke size through both the untraced and the
//! traced path, and checks the metric output against `BENCHMARK.json`.

use dgo_perfbench::report::RunReport;
use dgo_perfbench::workload::{self, Size, Workload};
use dgo_perfbench::{e2e, layers};
use std::path::PathBuf;

const SEED: u64 = 3;

fn smoke(name: &str) -> Workload {
    workload::find(name, Size::Smoke).expect("known workload")
}

fn benchmark_json() -> String {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root")
}

/// The `name` values of one top-level list of `BENCHMARK.json`.
fn listed(json: &str, key: &str) -> Vec<String> {
    let start = json
        .find(&format!("\"{key}\""))
        .unwrap_or_else(|| panic!("{key} missing"));
    let body = &json[start..];
    let body = &body[..body.find(']').expect("list closes")];
    body.split("\"name\": \"")
        .skip(1)
        .map(|s| s[..s.find('"').expect("name closes")].to_string())
        .collect()
}

fn value(report: &RunReport, name: &str) -> f64 {
    report
        .metrics
        .iter()
        .find(|m| m.name == name)
        .unwrap_or_else(|| panic!("metric {name} missing"))
        .value
}

fn names(report: &RunReport) -> Vec<String> {
    let mut names: Vec<String> = report.metrics.iter().map(|m| m.name.to_string()).collect();
    names.sort();
    names
}

fn sorted(mut v: Vec<String>) -> Vec<String> {
    v.sort();
    v
}

#[test]
fn workloads_match_benchmark_json() {
    let json = benchmark_json();
    assert_eq!(listed(&json, "workloads"), workload::NAMES.to_vec());
    for name in workload::NAMES {
        assert!(workload::find(name, Size::Full).is_some());
    }
}

#[test]
fn untraced_runs_print_every_end_to_end_metric() {
    let expected = sorted(listed(&benchmark_json(), "end_to_end"));
    for name in workload::NAMES {
        let report = e2e::run(&smoke(name), SEED, 0.0);
        assert_eq!(report.failed, 0, "{name}: {report:?}");
        assert_eq!(names(&report), expected, "{name}");
        for m in &report.metrics {
            assert!(m.value.is_finite() && m.value > 0.0, "{name}: {m:?}");
        }
        let json = report.to_json();
        assert!(
            json.starts_with("{\"correct\": true, \"attempted\": "),
            "{json}"
        );
        assert!(!json.contains('\n'));
    }
}

#[test]
fn traced_runs_print_every_layer_metric_and_write_spans() {
    let expected = sorted(listed(&benchmark_json(), "per_layer"));
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"));
    for name in workload::NAMES {
        let w = smoke(name);
        let out = dir.join(format!("trace-{name}.jsonl"));
        let report = layers::run(&w, SEED, &out);
        // Failures include traced/untraced disagreements and the probes'
        // cross-checks against the library's own results.
        assert_eq!(report.failed, 0, "{name}: {report:?}");
        assert_eq!(names(&report), expected, "{name}");
        let spans = std::fs::read_to_string(&out).expect("trace written");
        assert!(spans.lines().count() > 10, "{name}: {spans}");
        for (i, line) in spans.lines().enumerate() {
            assert!(
                line.starts_with(&format!("{{\"id\": {i}, \"name\": ")),
                "{line}"
            );
            assert!(
                line.ends_with(&format!("\"workload\": \"{name}\"}}")),
                "{line}"
            );
        }

        // Each workload stresses the layers it was chosen for.
        match name {
            "powerlaw-lowhint" => {
                assert!(value(&report, "orient.stages") > 0.0);
                assert!(value(&report, "alg2.peak_tree_bytes") > 0.0);
                assert_eq!(value(&report, "density.lambda_hat"), 1.0);
            }
            _ => {
                assert!(value(&report, "coreness.guesses") > 1.0);
                assert_eq!(value(&report, "orient.stages"), 0.0);
                assert_eq!(value(&report, "orient.stage1_residual"), 0.0);
                assert_eq!(value(&report, "alg4.proposals"), 0.0);
            }
        }
    }
}

#[test]
fn span_nesting_gives_self_time() {
    let mut tr = dgo_perfbench::trace::Tracer::new("test");
    let ((), outer) = tr.span("outer", |tr| {
        tr.span("inner", |_| {
            std::thread::sleep(std::time::Duration::from_millis(5))
        });
    });
    let spans = tr.spans();
    assert_eq!(spans[1].parent, Some(0));
    assert!(outer >= 0.005);
    assert!(tr.self_time(0) < outer);
    assert!((tr.self_time(0) + tr.self_time(1) - outer).abs() < 1e-9);
}
