//! Model parameters with the paper's defaults (Table 3).

use crate::objective::Objective;
pub use revmax_par::Threads;

/// Maximum bundle size constraint `k` (Problem 1/2's size parameter).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SizeCap {
    /// No limit — the paper's default ("∞ (no size limit)").
    Unlimited,
    /// Bundles may contain at most this many items (`k ≥ 1`).
    AtMost(usize),
}

impl SizeCap {
    /// Can a bundle of `size` items exist under this cap?
    pub fn allows(&self, size: usize) -> bool {
        match *self {
            SizeCap::Unlimited => true,
            SizeCap::AtMost(k) => size <= k,
        }
    }

    /// The numeric cap, if any.
    pub fn limit(&self) -> Option<usize> {
        match *self {
            SizeCap::Unlimited => None,
            SizeCap::AtMost(k) => Some(k),
        }
    }
}

/// All tunables of the framework, defaulted per Table 3 of the paper.
///
/// | notation | field | default |
/// |----------|-------|---------|
/// | λ  | `lambda` | 1.25 |
/// | θ  | `theta` | 0 |
/// | k  | `size_cap` | unlimited |
/// | γ  | `gamma` | 10⁶ (step function) |
/// | α  | `adoption_bias` | 1 (unbiased) |
/// | ε  | `epsilon` | 10⁻⁶ |
/// | T  | `price_levels` | 100 |
///
/// Note: the prose under Figure 4 says "we set α = 0" but Table 3 and the
/// model (α multiplies WTP) make clear the default is α = 1; α = 0 would
/// zero every consumer's effective WTP.
///
/// Four extension knobs beyond the paper's table: `objective_alpha` is the
/// profit-vs-surplus weight of the §1 utility `α·profit + (1−α)·surplus`
/// (the paper fixes it to 1 "without loss of generality"), `unit_cost`
/// is the per-unit variable cost (the paper assumes 0 for information
/// goods), `objective` selects the revenue statistic a solve maximizes
/// (mean / lower quantile / CVaR — `DESIGN.md` §13), and `threads` is the
/// degree of parallelism used by the hot paths (pricing, subset
/// enumeration, gain-matrix scoring). Thread count never affects results —
/// see `DESIGN.md` §6 for the determinism contract.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Params {
    /// Rating→WTP conversion factor λ (≥ 1).
    pub lambda: f64,
    /// Bundling coefficient θ (> -1): substitutes < 0 < complements.
    pub theta: f64,
    /// Maximum bundle size k.
    pub size_cap: SizeCap,
    /// Stochastic price sensitivity γ (> 0); ≥ `Params::STEP_GAMMA` is
    /// treated as the deterministic step function.
    pub gamma: f64,
    /// Adoption bias α (> 0); multiplies WTP inside the sigmoid.
    pub adoption_bias: f64,
    /// Tie-break noise ε added to the sigmoid margin.
    pub epsilon: f64,
    /// Number of discretized price levels T.
    pub price_levels: usize,
    /// Weight of profit vs consumer surplus in the pricing objective.
    pub objective_alpha: f64,
    /// Per-unit variable cost subtracted from price in the profit term.
    pub unit_cost: f64,
    /// Revenue statistic the solve maximizes (default: the paper's mean).
    pub objective: Objective,
    /// Worker threads for the parallel hot paths (default: auto — the
    /// `REVMAX_THREADS` env var, else the machine's available parallelism).
    // audit: allow(fingerprint-coverage) results are thread-count invariant (§6), so threads must NOT split the cache
    pub threads: Threads,
}

impl Params {
    /// γ at or above this is treated as the exact step function.
    pub const STEP_GAMMA: f64 = 1e5;

    /// Paper defaults (Table 3).
    pub fn paper_defaults() -> Self {
        Params {
            lambda: 1.25,
            theta: 0.0,
            size_cap: SizeCap::Unlimited,
            gamma: 1e6,
            adoption_bias: 1.0,
            epsilon: 1e-6,
            price_levels: 100,
            objective_alpha: 1.0,
            unit_cost: 0.0,
            objective: Objective::Mean,
            threads: Threads::Auto,
        }
    }

    /// Validate invariants; called by [`crate::market::Market::new`].
    pub fn validate(&self) {
        assert!(self.lambda >= 1.0, "lambda must be >= 1, got {}", self.lambda);
        assert!(self.theta > -1.0, "theta must be > -1, got {}", self.theta);
        assert!(self.gamma > 0.0, "gamma must be positive, got {}", self.gamma);
        assert!(self.adoption_bias > 0.0, "adoption bias must be positive");
        assert!(self.epsilon >= 0.0, "epsilon must be non-negative");
        assert!(self.price_levels >= 1, "at least one price level required");
        assert!(
            (0.0..=1.0).contains(&self.objective_alpha),
            "objective alpha must be in [0,1], got {}",
            self.objective_alpha
        );
        assert!(self.unit_cost >= 0.0, "unit cost must be non-negative");
        self.objective.validate();
        self.threads.validate();
        if let SizeCap::AtMost(k) = self.size_cap {
            assert!(k >= 1, "size cap must be >= 1");
        }
    }

    /// Builder-style override for θ.
    pub fn with_theta(mut self, theta: f64) -> Self {
        self.theta = theta;
        self
    }

    /// Builder-style override for γ.
    pub fn with_gamma(mut self, gamma: f64) -> Self {
        self.gamma = gamma;
        self
    }

    /// Builder-style override for the size cap k.
    // audit: allow(dead-pub) test-only member of the documented Params builder family; tests build configs through it
    pub fn with_size_cap(mut self, cap: SizeCap) -> Self {
        self.size_cap = cap;
        self
    }

    /// Builder-style override for λ.
    // audit: allow(dead-pub) test-only member of the documented Params builder family; tests build configs through it
    pub fn with_lambda(mut self, lambda: f64) -> Self {
        self.lambda = lambda;
        self
    }

    /// Builder-style override for the number of price levels T.
    // audit: allow(dead-pub) test-only member of the documented Params builder family; tests build configs through it
    pub fn with_price_levels(mut self, t: usize) -> Self {
        self.price_levels = t;
        self
    }

    /// Builder-style override for the profit/surplus weight.
    pub fn with_objective_alpha(mut self, a: f64) -> Self {
        self.objective_alpha = a;
        self
    }

    /// Builder-style override for the pricing objective.
    // audit: allow(dead-pub) test-only member of the documented Params builder family; tests build configs through it
    pub fn with_objective(mut self, objective: Objective) -> Self {
        self.objective = objective;
        self
    }

    /// Builder-style override for the worker-thread knob.
    pub fn with_threads(mut self, threads: Threads) -> Self {
        self.threads = threads;
        self
    }

    /// Stable 64-bit fingerprint of every **solve-relevant** parameter —
    /// the raw bits of λ, θ, γ, α, ε, the size cap, `T`, the objective
    /// weight, the unit cost, and the pricing objective (tagged per
    /// variant so a CVaR solve can never collide with a mean solve —
    /// the solve cache keys on this digest).
    ///
    /// `threads` is deliberately **excluded**: the determinism contract
    /// (`DESIGN.md` §6) guarantees bit-identical results at any thread
    /// count, so the thread knob must not split solve-cache keys — a sweep
    /// run under `REVMAX_THREADS=1` and one under `=8` see the very same
    /// fingerprints (pinned by `tests/engine_determinism.rs`).
    pub fn fingerprint(&self) -> u64 {
        let mut fp = crate::fingerprint::Fingerprinter::new("params");
        fp.write_f64(self.lambda);
        fp.write_f64(self.theta);
        match self.size_cap {
            SizeCap::Unlimited => fp.write_u64(u64::MAX),
            SizeCap::AtMost(k) => fp.write_usize(k),
        }
        fp.write_f64(self.gamma);
        fp.write_f64(self.adoption_bias);
        fp.write_f64(self.epsilon);
        fp.write_usize(self.price_levels);
        fp.write_f64(self.objective_alpha);
        fp.write_f64(self.unit_cost);
        self.objective.write_fingerprint(&mut fp);
        fp.finish()
    }

    /// WTP of a set of items given the raw per-item sum and the set size:
    /// Eq. 1 applies θ only to genuine bundles, not singletons.
    #[inline]
    pub fn set_wtp(&self, raw_sum: f64, size: usize) -> f64 {
        if size >= 2 {
            (1.0 + self.theta) * raw_sum
        } else {
            raw_sum
        }
    }
}

impl Default for Params {
    fn default() -> Self {
        Self::paper_defaults()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_table3() {
        let p = Params::default();
        assert_eq!(p.lambda, 1.25);
        assert_eq!(p.theta, 0.0);
        assert_eq!(p.size_cap, SizeCap::Unlimited);
        assert_eq!(p.gamma, 1e6);
        assert!(p.gamma >= Params::STEP_GAMMA, "the default is the step regime");
        assert_eq!(p.adoption_bias, 1.0);
        assert_eq!(p.epsilon, 1e-6);
        assert_eq!(p.price_levels, 100);
        assert_eq!(p.objective_alpha, 1.0);
        assert_eq!(p.threads, Threads::Auto);
        p.validate();
    }

    #[test]
    fn size_cap_semantics() {
        assert!(SizeCap::Unlimited.allows(1_000_000));
        assert!(SizeCap::AtMost(3).allows(3));
        assert!(!SizeCap::AtMost(3).allows(4));
        assert_eq!(SizeCap::AtMost(2).limit(), Some(2));
        assert_eq!(SizeCap::Unlimited.limit(), None);
    }

    #[test]
    fn theta_only_hits_real_bundles() {
        let p = Params::default().with_theta(-0.05);
        assert_eq!(p.set_wtp(10.0, 1), 10.0);
        assert!((p.set_wtp(16.0, 2) - 15.2).abs() < 1e-12); // Table 1's u1
    }

    #[test]
    #[should_panic(expected = "theta")]
    fn rejects_theta_at_minus_one() {
        Params::default().with_theta(-1.0).validate();
    }

    #[test]
    #[should_panic(expected = "gamma")]
    fn rejects_zero_gamma() {
        Params::default().with_gamma(0.0).validate();
    }

    #[test]
    fn fingerprint_tracks_solve_relevant_fields_only() {
        let base = Params::default();
        assert_eq!(base.fingerprint(), Params::default().fingerprint());
        assert_ne!(base.fingerprint(), base.with_theta(0.05).fingerprint());
        assert_ne!(base.fingerprint(), base.with_lambda(1.5).fingerprint());
        assert_ne!(base.fingerprint(), base.with_price_levels(50).fingerprint());
        assert_ne!(base.fingerprint(), base.with_size_cap(SizeCap::AtMost(3)).fingerprint());
        // The thread knob is outside the fingerprint (DESIGN.md §6: thread
        // count never affects results, so it must not split cache keys).
        assert_eq!(base.fingerprint(), base.with_threads(Threads::Fixed(8)).fingerprint());
        // The pricing objective is inside it (a CVaR solve must never hit
        // a cached mean solve), including the Cvar(1.0)-vs-Mean pair whose
        // *solves* coincide — distinct keys only cost a cache miss.
        assert_ne!(base.fingerprint(), base.with_objective(Objective::Cvar(0.9)).fingerprint());
        assert_ne!(base.fingerprint(), base.with_objective(Objective::Cvar(1.0)).fingerprint());
    }

    #[test]
    #[should_panic(expected = "quantile level")]
    fn rejects_out_of_range_quantile_objective() {
        Params::default().with_objective(Objective::Quantile(0.0)).validate();
    }

    #[test]
    fn threads_knob_round_trips() {
        let p = Params::default().with_threads(Threads::Fixed(4));
        p.validate();
        assert_eq!(p.threads.get(), 4);
    }

    #[test]
    #[should_panic(expected = "thread count")]
    fn rejects_zero_threads() {
        Params::default().with_threads(Threads::Fixed(0)).validate();
    }
}
