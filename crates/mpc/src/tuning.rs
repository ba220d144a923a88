//! Inline-execution cutoffs and the job-count knob, in one place.
//!
//! Parallel fan-out is only worth its scheduling overhead above some input
//! size; below it, running inline on the calling thread is faster. This
//! module is the single source of truth for both cutoffs.
//!
//! Two distinct cutoffs remain because the work units differ by orders of
//! magnitude: an exchange processes whole per-machine outboxes per item,
//! a stage map processes one vertex per item.
//!
//! Crossing a cutoff never changes results — only where the work runs.
//! The conformance tests in this module's users pin that down by comparing
//! outputs just below and just above each cutoff.
//!
//! The one environment variable this module reads is `DGO_JOBS`
//! ([`env_jobs`]).

use std::sync::OnceLock;

/// Default minimum number of exchange messages (outbox entries in flight)
/// before a backend's metering loop fans out to the pool.
pub const DEFAULT_EXCHANGE_INLINE_THRESHOLD: usize = 4096;

/// Default minimum number of per-vertex items before a
/// `dgo_core::stage::StageExecutor` map fans out to the pool.
pub const DEFAULT_STAGE_INLINE_THRESHOLD: usize = 1024;

/// Messages-per-exchange cutoff: below this, backend exchanges run inline.
pub fn exchange_inline_threshold() -> usize {
    DEFAULT_EXCHANGE_INLINE_THRESHOLD
}

/// Items-per-stage cutoff: below this, stage maps run inline.
pub fn stage_inline_threshold() -> usize {
    DEFAULT_STAGE_INLINE_THRESHOLD
}

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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_apply_without_override() {
        assert_eq!(
            exchange_inline_threshold(),
            DEFAULT_EXCHANGE_INLINE_THRESHOLD
        );
        assert_eq!(stage_inline_threshold(), DEFAULT_STAGE_INLINE_THRESHOLD);
    }
}
