//! Algorithm parameters.
//!
//! The paper's proofs pick constants for analytical convenience
//! (`k ≥ 100·λ`, `B = k^100`, `s = ⌈10 log log n⌉`, ...) that are unusable at
//! laptop scale: `k^100` overflows any machine. The implementation keeps the
//! *forms* of all parameters and exposes two presets:
//!
//! * [`Params::paper`] — the paper's forms with constants scaled down only as
//!   far as machine arithmetic requires (budgets clamp at `n^δ`);
//! * [`Params::practical`] — small constants tuned so the algorithms make
//!   progress on graphs with `n` in the thousands-to-millions range.
//!
//! Crucially, *correctness never depends on the constants*: the out-degree
//! bound of any produced layering holds structurally (Lemma 3.10 /
//! Claim 3.12), and the drivers guarantee termination via the peeling
//! fallback of Lemma 3.15 Stage 1. Constants only trade rounds against the
//! `O(λ log log n)` out-degree factor — experiment E6 sweeps them.

use crate::error::{CoreError, Result};

/// Tunable parameters for the orientation and coloring pipelines.
#[derive(Debug, Clone, PartialEq)]
pub struct Params {
    /// Memory exponent `δ ∈ (0, 1)`: machines get `S = n^δ` words.
    pub delta: f64,
    /// Pruning parameter factor: `k = max(2, ⌈k_factor · λ̂⌉)` (paper: 100).
    pub k_factor: f64,
    /// Exponentiation step count `s`; `0` selects `⌈log₂ L⌉ + 1`
    /// (paper: `⌈10 log log n⌉`).
    pub steps: u32,
    /// View-tree budget `B`; `0` selects `min(n^δ, budget_cap)`.
    pub budget: usize,
    /// Hard cap on `B` regardless of `n^δ` (keeps simulation memory sane).
    pub budget_cap: usize,
    /// Layers per partial stage `L`; `0` selects `max(2, ⌈0.1·log_k B⌉)`.
    pub layers_per_stage: u32,
    /// Maximum boosted stages before the drivers declare failure.
    pub max_stages: u32,
    /// Number of top-down layer batches in the coloring; `0` selects
    /// `⌈(log₂ log₂ n)²⌉` clamped to the layer count (paper:
    /// `O(log^{3.67} log n)` repetitions).
    pub color_batches: u32,
    /// Palette multiplier: the coloring uses `palette_factor · d` colors where
    /// `d` is the layering out-degree (paper's proof uses `3d`).
    pub palette_factor: usize,
    /// Threshold (in vertices) under which arboricity is computed exactly via
    /// flows; above it the degeneracy estimate is used.
    pub exact_arboricity_threshold: usize,
    /// Arboricity estimate override; `0` means estimate from the graph.
    pub lambda_hint: usize,
    /// Seed for all randomized subroutines.
    pub seed: u64,
    /// Host threads for the workspace's two parallelism tiers: composed
    /// parallel *instances* (the coreness guess ladder, Theorem 1.1's
    /// per-part layerings, Lemma 2.2's per-part colorings) and the
    /// vertex-parallel *stages* inside every instance (the Algorithm 1–4
    /// per-vertex maps, via [`dgo_core::stage`](crate::stage)). The tiers
    /// share this one budget — instance fan-outs subdivide it with
    /// `dgo_mpc::split_jobs` instead of multiplying. `1` runs everything in
    /// sequential host loops, `0` uses every available core. Results and
    /// metrics are bit-identical at any value — this knob only trades host
    /// wall-clock.
    ///
    /// Presets default this to the `DGO_JOBS` environment variable when set
    /// (CI runs the test suite under both `DGO_JOBS=1` and `DGO_JOBS=0`),
    /// and `1` otherwise.
    pub jobs: usize,
}

/// The preset default for [`Params::jobs`]: `DGO_JOBS` when set to a valid
/// count, else 1. Callers wanting an explicit value use
/// [`Params::with_jobs`].
fn default_jobs() -> usize {
    dgo_mpc::tuning::env_jobs().unwrap_or(1)
}

impl Params {
    /// Practical preset: small constants, suitable for `n` up to millions.
    ///
    /// # Examples
    ///
    /// ```
    /// use dgo_core::Params;
    /// let p = Params::practical(10_000);
    /// assert!(p.delta > 0.0 && p.delta < 1.0);
    /// p.validate().unwrap();
    /// ```
    pub fn practical(_n: usize) -> Self {
        Params {
            delta: 0.5,
            k_factor: 2.0,
            steps: 0,
            budget: 0,
            budget_cap: 4096,
            layers_per_stage: 0,
            max_stages: 64,
            color_batches: 0,
            palette_factor: 3,
            exact_arboricity_threshold: 600,
            lambda_hint: 0,
            seed: 0xD60_C0DE,
            jobs: default_jobs(),
        }
    }

    /// Paper preset: the proofs' parameter forms, clamped only where machine
    /// arithmetic forces it (`B = k^100` clamps to `n^δ`).
    pub fn paper(n: usize) -> Self {
        let loglog = (n.max(4) as f64).log2().log2().ceil().max(1.0) as u32;
        Params {
            delta: 0.5,
            k_factor: 100.0,
            steps: 10 * loglog,
            budget: 0, // k^100 always clamps to n^δ at feasible n
            budget_cap: usize::MAX,
            layers_per_stage: 0,
            max_stages: 64,
            color_batches: 0,
            palette_factor: 3,
            exact_arboricity_threshold: 600,
            lambda_hint: 0,
            seed: 0xD60_C0DE,
            jobs: default_jobs(),
        }
    }

    /// Returns a copy running composed parallel instances and the
    /// vertex-parallel stages inside them on `jobs` host threads (`0` = all
    /// available cores). Purely a wall-clock knob; see [`Params::jobs`].
    #[must_use]
    pub fn with_jobs(mut self, jobs: usize) -> Self {
        self.jobs = jobs;
        self
    }

    /// Checks parameter sanity.
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidParams`] describing the first violated requirement.
    pub fn validate(&self) -> Result<()> {
        if !(self.delta > 0.0 && self.delta < 1.0) {
            return Err(CoreError::InvalidParams {
                reason: format!("delta must be in (0,1), got {}", self.delta),
            });
        }
        if self.k_factor < 1.0 {
            return Err(CoreError::InvalidParams {
                reason: format!("k_factor must be >= 1, got {}", self.k_factor),
            });
        }
        if self.palette_factor < 3 {
            return Err(CoreError::InvalidParams {
                reason: format!(
                    "palette_factor must be >= 3 for list-coloring feasibility, got {}",
                    self.palette_factor
                ),
            });
        }
        if self.max_stages == 0 {
            return Err(CoreError::InvalidParams {
                reason: "max_stages must be positive".to_string(),
            });
        }
        Ok(())
    }

    /// The per-machine memory `S = max(64, ⌈n^δ⌉)` for instance size `n`.
    pub fn local_memory(&self, n: usize) -> usize {
        ((n.max(2) as f64).powf(self.delta).ceil() as usize).max(64)
    }

    /// The pruning parameter `k` for arboricity estimate `lambda_hat`.
    pub fn k(&self, lambda_hat: usize) -> usize {
        ((self.k_factor * lambda_hat.max(1) as f64).ceil() as usize).max(2)
    }

    /// The view-tree budget `B` for instance size `n`: explicit `budget` if
    /// set, else `min(S, budget_cap)`, but never below `k²` so at least one
    /// expansion survives pruning, and never below 16.
    pub fn effective_budget(&self, n: usize, k: usize) -> usize {
        let base = if self.budget > 0 {
            self.budget
        } else {
            self.local_memory(n).min(self.budget_cap)
        };
        base.max(k * k).max(16)
    }

    /// Layers per partial stage: explicit if set, else `max(2, ⌈0.1·log_k B⌉)`
    /// (Lemma 3.13's `⌈0.1 log_k(B)⌉`, floored at 2 for practicality).
    pub fn stage_layers(&self, budget: usize, k: usize) -> u32 {
        if self.layers_per_stage > 0 {
            return self.layers_per_stage;
        }
        let lk = (budget.max(2) as f64).ln() / (k.max(2) as f64).ln();
        ((0.1 * lk).ceil() as u32).max(2)
    }

    /// Exponentiation steps: explicit if set, else `⌈log₂ L⌉ + 1` (the
    /// `s > log₂ L` requirement of Lemma 3.7).
    pub fn effective_steps(&self, stage_layers: u32) -> u32 {
        if self.steps > 0 {
            return self.steps;
        }
        (32 - u32::leading_zeros(stage_layers.max(2) - 1)) + 1
    }

    /// Coloring batch count: explicit if set, else `⌈(log₂ log₂ n)²⌉`,
    /// at least 1.
    pub fn effective_color_batches(&self, n: usize) -> u32 {
        if self.color_batches > 0 {
            return self.color_batches;
        }
        let ll = (n.max(4) as f64).log2().log2().max(1.0);
        (ll * ll).ceil() as u32
    }
}

impl Default for Params {
    fn default() -> Self {
        Params::practical(1 << 16)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn practical_validates() {
        Params::practical(1000).validate().unwrap();
        Params::paper(1000).validate().unwrap();
        Params::default().validate().unwrap();
    }

    #[test]
    fn invalid_delta_rejected() {
        let mut p = Params::practical(100);
        p.delta = 1.5;
        assert!(p.validate().is_err());
        p.delta = 0.0;
        assert!(p.validate().is_err());
    }

    #[test]
    fn invalid_palette_rejected() {
        let mut p = Params::practical(100);
        p.palette_factor = 2;
        assert!(p.validate().is_err());
    }

    #[test]
    fn local_memory_scales() {
        let p = Params::practical(0);
        assert_eq!(p.local_memory(1_000_000), 1000);
        assert_eq!(p.local_memory(4), 64); // floor
    }

    #[test]
    fn k_respects_factor_and_floor() {
        let p = Params::practical(100);
        assert_eq!(p.k(5), 10);
        assert_eq!(p.k(0), 2); // lambda floored at 1, k floored at 2
    }

    #[test]
    fn budget_floors_at_k_squared() {
        let p = Params::practical(100);
        let k = 50;
        assert!(p.effective_budget(100, k) >= k * k);
    }

    #[test]
    fn budget_cap_applies() {
        let mut p = Params::practical(1 << 20);
        p.budget_cap = 100;
        assert_eq!(p.effective_budget(1 << 20, 2), 100);
    }

    #[test]
    fn stage_layers_from_lemma_3_13() {
        let p = Params::practical(100);
        // 0.1 * log_2(1024) = 1.0 -> ceil 1 -> floored to 2.
        assert_eq!(p.stage_layers(1024, 2), 2);
        // 0.1 * log_2(2^40) = 4.
        assert_eq!(p.stage_layers(1 << 40, 2), 4);
    }

    #[test]
    fn steps_exceed_log_layers() {
        let p = Params::practical(100);
        for layers in [2u32, 3, 4, 7, 8, 9, 100] {
            let s = p.effective_steps(layers);
            assert!(
                (1u64 << s) > u64::from(layers),
                "2^{s} must exceed L={layers}"
            );
        }
    }

    #[test]
    fn explicit_overrides_win() {
        let mut p = Params::practical(100);
        p.steps = 7;
        p.layers_per_stage = 9;
        p.color_batches = 3;
        p.budget = 333;
        assert_eq!(p.effective_steps(100), 7);
        assert_eq!(p.stage_layers(1 << 40, 2), 9);
        assert_eq!(p.effective_color_batches(1 << 30), 3);
        assert_eq!(p.effective_budget(1 << 30, 2), 333);
    }

    #[test]
    fn with_jobs_only_touches_jobs() {
        let base = Params::practical(100);
        let tuned = base.clone().with_jobs(8);
        assert_eq!(tuned.jobs, 8);
        // The preset default tracks DGO_JOBS (the CI matrix knob), so compare
        // against whatever this run's default resolved to.
        assert_eq!(
            Params {
                jobs: base.jobs,
                ..tuned
            },
            base
        );
    }

    #[test]
    fn color_batches_grow_slowly() {
        let p = Params::practical(100);
        let small = p.effective_color_batches(1 << 10);
        let large = p.effective_color_batches(1 << 30);
        assert!(large >= small);
        assert!(large <= 30);
    }
}
