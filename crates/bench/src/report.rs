//! Machine-readable bench reports: `BENCH_<name>.json`.
//!
//! The criterion benches under `benches/` print human-readable timing lines;
//! this module persists the same measurements — plus the leg's configuration
//! (jobs, backend) and its model-side cost (communication
//! words, peak tree bytes from one metered run) — as a JSON file in the
//! working directory (the workspace root under `cargo bench`), so the
//! performance trajectory survives across commits instead of scrolling away
//! in CI logs. The JSON is hand-rolled: the workspace builds offline and the
//! report shape is flat enough that a serializer dependency isn't warranted.

use std::io::Write as _;
use std::path::PathBuf;

/// One benchmark leg: a timed workload at one configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchLeg {
    /// The criterion label (`group/function/param`).
    pub name: String,
    /// Mean wall-clock seconds per iteration.
    pub wall_seconds: f64,
    /// Timed iterations averaged over.
    pub samples: u64,
    /// Host-thread budget the leg ran with (resolved; 1 = sequential host).
    pub jobs: usize,
    /// Execution backend (`sequential` / `parallel` / `stage`).
    pub backend: String,
    /// Total communication words one run of the workload charges.
    pub comm_words: usize,
    /// Peak view-tree arena bytes one run of the workload reaches.
    pub peak_tree_bytes: usize,
    /// Process-wide peak resident set (bytes) when the leg was recorded —
    /// [`peak_rss_bytes`] at record time. Monotonic over a run (the kernel
    /// high-water mark), so per-leg deltas need leg ordering; `0` where the
    /// platform offers no `/proc/self/status`.
    pub peak_rss_bytes: usize,
}

/// The run's peak resident set size in bytes: the process's own `VmHWM`
/// from `/proc/self/status`, `0` on platforms without procfs. Monotonic: it
/// is the kernel's high-water mark, so it never decreases within a run.
pub fn peak_rss_bytes() -> usize {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0;
    };
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        .map_or(0, |kib: usize| kib * 1024)
}

/// A full bench report: every leg of one bench binary's run.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchReport {
    /// Report name; the file is written as `BENCH_<name>.json`.
    pub name: String,
    /// Legs in execution order.
    pub legs: Vec<BenchLeg>,
}

impl BenchReport {
    /// An empty report named `name`.
    pub fn new(name: impl Into<String>) -> Self {
        BenchReport {
            name: name.into(),
            legs: Vec::new(),
        }
    }

    /// Appends one leg.
    pub fn push(&mut self, leg: BenchLeg) {
        self.legs.push(leg);
    }

    /// The report as a JSON document.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        out.push_str(&format!("  \"name\": {},\n", json_string(&self.name)));
        out.push_str("  \"legs\": [\n");
        for (i, leg) in self.legs.iter().enumerate() {
            out.push_str("    {");
            out.push_str(&format!("\"name\": {}, ", json_string(&leg.name)));
            out.push_str(&format!(
                "\"wall_seconds\": {}, ",
                json_f64(leg.wall_seconds)
            ));
            out.push_str(&format!("\"samples\": {}, ", leg.samples));
            out.push_str(&format!("\"jobs\": {}, ", leg.jobs));
            out.push_str(&format!("\"backend\": {}, ", json_string(&leg.backend)));
            out.push_str(&format!("\"comm_words\": {}, ", leg.comm_words));
            out.push_str(&format!("\"peak_tree_bytes\": {}, ", leg.peak_tree_bytes));
            out.push_str(&format!("\"peak_rss_bytes\": {}", leg.peak_rss_bytes));
            out.push_str(if i + 1 == self.legs.len() {
                "}\n"
            } else {
                "},\n"
            });
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// Writes `BENCH_<name>.json` into `dir` and returns its path.
    ///
    /// Bench binaries pass the workspace root (two levels above their
    /// `CARGO_MANIFEST_DIR`) — cargo runs them with the *package* directory
    /// as working directory, and the report belongs at the repo top level
    /// where successive commits can diff it.
    pub fn write_in(&self, dir: impl Into<PathBuf>) -> std::io::Result<PathBuf> {
        let path = dir.into().join(format!("BENCH_{}.json", self.name));
        let mut file = std::fs::File::create(&path)?;
        file.write_all(self.to_json().as_bytes())?;
        Ok(path)
    }

    /// [`write_in`](Self::write_in) targeting the current working directory.
    pub fn write(&self) -> std::io::Result<PathBuf> {
        self.write_in(PathBuf::new())
    }
}

/// The *resolved* host-thread count a leg actually ran with: `0` (the "all
/// cores" knob) resolves to the machine's thread count, anything else passes
/// through. [`BenchLeg::jobs`] must record this figure, not the raw knob —
/// a `jobs-all` leg that stored `0` (or a hardcoded `1`) would be
/// indistinguishable from a sequential leg when reports from different
/// machines are compared.
pub fn resolved_jobs(jobs: usize) -> usize {
    dgo_mpc::resolve_jobs(jobs)
}

/// Whether `DGO_BENCH_QUICK=1` asked the criterion benches to shrink every
/// sweep to its smallest leg with few samples (the CI smoke configuration).
/// This is the bench crate's single sanctioned read of the knob (dgo-lint
/// R2); read once per process, like `DGO_JOBS` in `dgo_mpc::tuning`.
pub fn quick_mode() -> bool {
    static QUICK: std::sync::OnceLock<bool> = std::sync::OnceLock::new();
    *QUICK.get_or_init(|| std::env::var("DGO_BENCH_QUICK").is_ok_and(|v| v == "1"))
}

/// Whether `DGO_SCALE_SMOKE=1` asked `exp_scale` for the ~10⁵-edge CI
/// configuration instead of the full scale ladder. Read once per process.
pub fn scale_smoke() -> bool {
    static SMOKE: std::sync::OnceLock<bool> = std::sync::OnceLock::new();
    *SMOKE.get_or_init(|| std::env::var("DGO_SCALE_SMOKE").is_ok_and(|v| v == "1"))
}

/// The ingestion thread budget `dgo_graph` resolves from `DGO_JOBS`
/// (`0`/unset = all cores), mirrored here so report legs can record the real
/// figure. Reads the knob through the cached [`dgo_mpc::tuning::env_jobs`].
pub fn env_ingest_jobs() -> usize {
    match dgo_mpc::tuning::env_jobs() {
        Some(0) | None => resolved_jobs(0),
        Some(jobs) => jobs,
    }
}

/// JSON string literal with the escapes the label alphabet can need.
fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A finite float as a JSON number (JSON has no NaN/inf; clamp to 0).
fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn leg(name: &str) -> BenchLeg {
        BenchLeg {
            name: name.to_string(),
            wall_seconds: 0.25,
            samples: 10,
            jobs: 2,
            backend: "parallel".to_string(),
            comm_words: 1234,
            peak_tree_bytes: 5678,
            peak_rss_bytes: 9999,
        }
    }

    #[test]
    fn json_shape_is_stable() {
        let mut report = BenchReport::new("engine");
        report.push(leg("engine_orient/sequential/1024"));
        report.push(leg("engine_orient/parallel/1024"));
        let json = report.to_json();
        assert!(json.starts_with("{\n  \"name\": \"engine\""));
        assert!(json.contains("\"wall_seconds\": 0.25"));
        assert!(json.contains("\"comm_words\": 1234"));
        assert!(json.contains("\"peak_tree_bytes\": 5678"));
        assert!(json.contains("\"peak_rss_bytes\": 9999"));
        // Exactly one trailing comma structure: two legs, one separator.
        assert_eq!(json.matches("},\n").count(), 1);
        assert!(json.ends_with("  ]\n}\n"));
    }

    #[test]
    fn strings_are_escaped() {
        assert_eq!(json_string("a\"b\\c"), "\"a\\\"b\\\\c\"");
        assert_eq!(json_string("x\ny"), "\"x\\ny\"");
        assert_eq!(json_f64(f64::NAN), "0");
        assert_eq!(json_f64(1.5), "1.5");
    }

    #[test]
    fn empty_report_is_valid() {
        let json = BenchReport::new("empty").to_json();
        assert!(json.contains("\"legs\": [\n  ]"));
    }

    #[test]
    fn peak_rss_is_positive_where_procfs_exists() {
        if cfg!(target_os = "linux") {
            // A running test binary has resident pages; VmHWM can't be 0.
            assert!(peak_rss_bytes() > 0);
        } else {
            assert_eq!(peak_rss_bytes(), 0);
        }
    }

    #[test]
    fn resolved_jobs_resolves_the_all_cores_knob() {
        assert_eq!(resolved_jobs(1), 1);
        assert_eq!(resolved_jobs(3), 3);
        // 0 means "all cores": at least one, and what the executors resolve.
        assert!(resolved_jobs(0) >= 1);
        assert_eq!(resolved_jobs(0), dgo_mpc::resolve_jobs(0));
    }
}
