//! The job-count knob.
//!
//! The one environment variable the libraries read is `DGO_JOBS`
//! ([`env_jobs`]), read here once per process.

use std::sync::OnceLock;

/// The raw `DGO_JOBS` parallelism knob, read once per process: `None` when
/// unset or unparsable, otherwise the parsed value (`0` conventionally means
/// "all cores"; interpreting that is the caller's business — presets treat
/// unset as 1, host-side ingestion as full parallelism).
pub fn env_jobs() -> Option<usize> {
    static JOBS: OnceLock<Option<usize>> = OnceLock::new();
    *JOBS.get_or_init(|| {
        std::env::var("DGO_JOBS")
            .ok()
            .and_then(|s| s.trim().parse().ok())
    })
}
