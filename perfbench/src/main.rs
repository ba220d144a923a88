//! Command line of the benchmark:
//!
//! ```text
//! DGO_JOBS=1 dgo-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!                          [--size full|smoke] [--trace-out <file>]
//! ```
//!
//! The last line of standard output is the run's JSON result. `DGO_JOBS`
//! must equal [`workload::JOBS`], because edge-list parsing takes its
//! thread count from there; `run.py` sets it.

use dgo_perfbench::workload::{self, Size};
use dgo_perfbench::{e2e, layers};
use std::path::PathBuf;
use std::process::ExitCode;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    size: Size,
    trace_out: Option<PathBuf>,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let value = |flag: &str| -> Option<&str> {
        let i = args.iter().position(|a| a == flag)?;
        args.get(i + 1).map(String::as_str)
    };
    let required = |flag: &str| value(flag).ok_or_else(|| format!("missing {flag} <value>"));
    let number = |flag: &str| -> Result<f64, String> {
        let raw = required(flag)?;
        raw.parse::<f64>()
            .ok()
            .filter(|v| v.is_finite() && *v >= 0.0)
            .ok_or_else(|| format!("{flag} needs a non-negative number, got {raw:?}"))
    };
    let seed_raw = required("--seed")?;
    Ok(Args {
        workload: required("--workload")?.to_string(),
        seed: seed_raw
            .parse()
            .map_err(|_| format!("--seed needs an unsigned integer, got {seed_raw:?}"))?,
        seconds: number("--seconds")?,
        trace: match required("--trace")? {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace needs 0 or 1, got {other:?}")),
        },
        size: match value("--size").unwrap_or("full") {
            "full" => Size::Full,
            "smoke" => Size::Smoke,
            other => return Err(format!("--size needs full or smoke, got {other:?}")),
        },
        trace_out: value("--trace-out").map(PathBuf::from),
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    let Some(w) = workload::find(&args.workload, args.size) else {
        eprintln!(
            "unknown workload {:?}; known: {:?}",
            args.workload,
            workload::NAMES
        );
        return ExitCode::from(2);
    };
    if dgo_mpc::tuning::env_jobs() != Some(workload::JOBS) {
        eprintln!(
            "set DGO_JOBS={} so ingestion runs at the benchmark's thread count",
            workload::JOBS
        );
        return ExitCode::from(2);
    }
    let report = if args.trace {
        let out = args
            .trace_out
            .unwrap_or_else(|| PathBuf::from(format!("trace-{}-seed{}.jsonl", w.name, args.seed)));
        let report = layers::run(&w, args.seed, &out);
        eprintln!("trace written to {}", out.display());
        report
    } else {
        e2e::run(&w, args.seed, args.seconds)
    };
    println!("{}", report.to_json());
    ExitCode::SUCCESS
}
