//! Optimal single-bundle pricing (Section 4.2).
//!
//! Given the positive bundle WTPs of the consumers, find the price that
//! maximizes the expected objective
//!
//! ```text
//!   U(p) = α_obj · (p − c) · F(p)  +  (1 − α_obj) · Surplus(p)
//! ```
//!
//! where `F(p) = Σ_u P(adopt | p, w_u)` is the expected number of adopters
//! (Eq. 5) and `Surplus(p) = Σ_u P(adopt)·(w_u − p)`. With the paper's
//! defaults (`α_obj = 1`, `c = 0`) this is plain expected revenue
//! `p · F(p)` (Eq. 2).
//!
//! Price search modes:
//!
//! * [`PriceMode::Exact`] — candidates at the distinct consumer valuations
//!   `α·w_u`. Under the step adoption rule the optimum is always at one of
//!   these, so this mode is exact (the limit `T → ∞` of the paper's
//!   discretization). Under a soft sigmoid it falls back to the grid.
//! * [`PriceMode::Grid`] — the paper's `T` equi-spaced levels spanning
//!   `(0, max α·w]`, consumers bucketed once (`O(M)`), each level scored
//!   from bucket aggregates (`O(T²)`, constant for fixed `T`).
//!
//! [`Candidates::List`] scores an arbitrary price list instead (the
//! "binary search (if arbitrary price levels)" variant §4.2 mentions).
//!
//! [`optimize`] is a thin wrapper over [`optimize_with`], which takes
//! the candidate source ([`Candidates`]) and the revenue statistic to
//! maximize ([`Objective`]) as parameters: mean vs lower-quantile vs CVaR
//! is a knob, not a function family. Robust objectives re-score each
//! candidate price against the per-user revenue distribution (see
//! [`crate::objective`]); the exact mode stays exact because, within a
//! constant-buyer-set price interval, every objective's utility is
//! monotone in the price, so the optimum remains at a consumer valuation.

use crate::adoption::AdoptionModel;
use crate::objective::Objective;
use revmax_par::par_index_map;

/// Below this many candidate price levels (or price-list entries) the
/// search stays sequential: thread-spawn overhead would dominate. The
/// threshold depends only on the workload, never on the thread count, so
/// it cannot perturb determinism.
const PAR_LEVELS_MIN: usize = 128;

/// How candidate prices are generated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PriceMode {
    /// Candidate prices at consumer valuations (exact for step adoption).
    Exact,
    /// `T` equi-spaced levels, the paper's default discretization.
    Grid,
}

/// The result of pricing one bundle.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PricedOutcome {
    /// The chosen price.
    pub price: f64,
    /// Expected number of adopters at that price.
    pub expected_buyers: f64,
    /// Expected revenue `price × buyers`.
    pub revenue: f64,
    /// Expected consumer surplus `Σ P(adopt)(w − price)`.
    pub surplus: f64,
    /// The maximized objective (equals `revenue` at the paper defaults).
    pub utility: f64,
}

impl PricedOutcome {
    /// The "no sale" outcome (no consumers, or nothing worth charging).
    pub fn zero() -> Self {
        PricedOutcome { price: 0.0, expected_buyers: 0.0, revenue: 0.0, surplus: 0.0, utility: 0.0 }
    }
}

/// Knobs shared by every pricing call; bundled to keep signatures sane.
#[derive(Debug, Clone, Copy)]
pub struct PricingCtx {
    pub adoption: AdoptionModel,
    pub mode: PriceMode,
    /// Grid size `T` when `mode == Grid` (or as sigmoid fallback).
    pub levels: usize,
    /// Profit weight `α_obj` of the utility objective.
    pub objective_alpha: f64,
    /// Per-unit variable cost `c`.
    pub unit_cost: f64,
    /// Revenue statistic to maximize (`DESIGN.md` §13). [`Objective::Mean`]
    /// reproduces the paper's expected-revenue objective bit for bit.
    pub objective: Objective,
    /// Resolved worker-thread count for the price search (≥ 1). Results
    /// are bit-identical at any value (`DESIGN.md` §6).
    pub threads: usize,
}

impl PricingCtx {
    /// Context from [`crate::params::Params`] with [`PriceMode::Exact`].
    pub fn from_params(p: &crate::params::Params) -> Self {
        PricingCtx {
            adoption: AdoptionModel::from_params(p),
            mode: PriceMode::Exact,
            levels: p.price_levels,
            objective_alpha: p.objective_alpha,
            unit_cost: p.unit_cost,
            objective: p.objective,
            threads: p.threads.get(),
        }
    }

    /// The scored utility of one candidate price. `m` is the count of
    /// interested users (finite positive WTP); the objective pools the
    /// two-point per-user payment distribution (`buyers` pay `price`,
    /// `m − buyers` pay 0) into an effective buyer base. For
    /// [`Objective::Mean`], `base == buyers` and this is exactly the
    /// pre-objective expression — bit-identical arithmetic.
    #[inline]
    fn utility(&self, price: f64, buyers: f64, surplus: f64, m: f64) -> f64 {
        let base = self.objective.base_buyers(buyers, m);
        self.objective_alpha * (price - self.unit_cost) * base
            + (1.0 - self.objective_alpha) * surplus
    }
}

/// Streaming ordered argmax with the lowest-price tie-break. Candidates
/// must arrive in their canonical order (level/list order) so tie-breaks —
/// and therefore parallel-vs-sequential agreement — are exact.
fn fold_best(
    mut best: PricedOutcome,
    outcomes: impl Iterator<Item = PricedOutcome>,
) -> PricedOutcome {
    for out in outcomes {
        if out.utility > best.utility || (out.utility == best.utility && out.price < best.price) {
            best = out;
        }
    }
    best
}

/// Where candidate prices come from: the mode-driven machinery (consumer
/// valuations or the `T`-level grid per [`PricingCtx::mode`]) or an
/// explicit arbitrary price list.
#[derive(Debug, Clone, Copy)]
pub enum Candidates<'a> {
    /// Candidates per `ctx.mode`: valuations (exact) or the equi-spaced
    /// grid.
    Auto,
    /// Score exactly these prices (must be positive and finite).
    List(&'a [f64]),
}

/// The one objective-aware pricing entry point: optimize the price for
/// consumers with bundle WTPs `values` under an explicit [`Objective`]
/// (overriding `ctx.objective`) and candidate source. Only finite
/// positive WTP entries matter; zero/negative/non-finite entries are
/// ignored — non-finite WTPs cannot enter through
/// [`crate::wtp::CsrBuilder`], but this free-standing entry point accepts
/// arbitrary slices. [`optimize`] is the thin wrapper that passes
/// `ctx.objective` through with [`Candidates::Auto`].
pub fn optimize_with(
    values: &[f64],
    ctx: &PricingCtx,
    objective: Objective,
    candidates: Candidates<'_>,
) -> PricedOutcome {
    let ctx = PricingCtx { objective, ..*ctx };
    let positive: Vec<f64> = values.iter().copied().filter(|&w| w.is_finite() && w > 0.0).collect();
    if positive.is_empty() {
        return PricedOutcome::zero();
    }
    match candidates {
        Candidates::Auto => match (ctx.mode, ctx.adoption.is_step()) {
            (PriceMode::Exact, true) => optimize_exact_step(&positive, &ctx),
            _ => optimize_grid(&positive, &ctx),
        },
        Candidates::List(prices) => optimize_price_list(&positive, &ctx, prices),
    }
}

/// Optimize under the context's own objective with mode-driven candidates.
pub fn optimize(values: &[f64], ctx: &PricingCtx) -> PricedOutcome {
    optimize_with(values, ctx, ctx.objective, Candidates::Auto)
}

/// Exact optimum under step adoption: the optimal price is at some
/// consumer valuation `α·w` (raising the price further loses that buyer
/// with no compensation; lowering it gains nobody new until the next
/// valuation).
fn optimize_exact_step(values: &[f64], ctx: &PricingCtx) -> PricedOutcome {
    let alpha = ctx.adoption.alpha;
    // Sort raw WTPs descending; candidate k charges the k-th valuation.
    // `total_cmp` (not `partial_cmp().unwrap()`): the solve must never
    // panic on a stray NaN reaching a pricing call — non-finite WTPs are
    // rejected at ingestion (`CsrBuilder::push`), and any NaN slipping in
    // through the public `optimize` entry points is filtered there, but a
    // sort comparator is the wrong place to enforce either.
    let mut sorted = values.to_vec();
    sorted.sort_unstable_by(|a, b| b.total_cmp(a));
    // Prefix sums of raw WTP for O(1) surplus.
    let mut prefix = Vec::with_capacity(sorted.len() + 1);
    prefix.push(0.0);
    for &w in &sorted {
        prefix.push(prefix.last().unwrap() + w);
    }
    let m = sorted.len() as f64;
    let mut best = PricedOutcome::zero();
    let mut k = 0usize;
    while k < sorted.len() {
        // Group ties so `buyers` counts every consumer at this valuation.
        let mut end = k + 1;
        while end < sorted.len() && sorted[end] == sorted[k] {
            end += 1;
        }
        let price = alpha * sorted[k];
        let buyers = end as f64;
        let surplus = prefix[end] - price * buyers;
        let utility = ctx.utility(price, buyers, surplus, m);
        if utility > best.utility || (utility == best.utility && price < best.price) {
            best = PricedOutcome {
                price,
                expected_buyers: buyers,
                revenue: price * buyers,
                surplus,
                utility,
            };
        }
        k = end;
    }
    best
}

/// The paper's discretization: `T` equi-spaced levels over `(0, max α·w]`,
/// consumers bucketed once, every level scored against bucket aggregates.
/// Exact for step adoption (within the grid); for soft sigmoids each bucket
/// is represented by its mean valuation.
fn optimize_grid(values: &[f64], ctx: &PricingCtx) -> PricedOutcome {
    let t = ctx.levels.max(1);
    let m = values.len() as f64;
    let alpha = ctx.adoption.alpha;
    let vmax = values.iter().fold(0.0f64, |m, &w| m.max(alpha * w));
    if vmax <= 0.0 {
        // Every α·w ≤ 0 (e.g. a non-positive adoption bias constructed
        // directly on the ctx): nothing can be charged.
        return PricedOutcome::zero();
    }
    let step = vmax / t as f64;
    if step <= 0.0 || !step.is_finite() {
        // Degenerate grid: `vmax / t` underflowed to zero (subnormal
        // valuations with a large T) or overflowed. Without this guard the
        // `v / step` bucket indices below would be NaN/∞ and the outcome
        // garbage; the honest answer for a market whose valuations cannot
        // even span one grid step is the zero outcome.
        return PricedOutcome::zero();
    }
    // Bucket b (1-based) holds consumers with valuation in [p_b, p_{b+1});
    // p_b = b*step. Bucket 0 holds valuations below p_1.
    let mut count = vec![0.0f64; t + 1];
    let mut sum_val = vec![0.0f64; t + 1]; // Σ α·w per bucket
    let mut sum_raw = vec![0.0f64; t + 1]; // Σ w per bucket (for surplus)
    for &w in values {
        let v = alpha * w;
        let b = ((v / step).floor() as usize).min(t);
        count[b] += 1.0;
        sum_val[b] += v;
        sum_raw[b] += w;
    }
    let mut best = PricedOutcome::zero();
    if ctx.adoption.is_step() {
        // Suffix aggregates: buyers at level b = everyone in buckets >= b.
        let (mut buyers, mut raw) = (0.0, 0.0);
        let mut suffix: Vec<(f64, f64)> = vec![(0.0, 0.0); t + 2];
        for b in (1..=t).rev() {
            buyers += count[b];
            raw += sum_raw[b];
            suffix[b] = (buyers, raw);
        }
        for (b, &(buyers, raw)) in suffix.iter().enumerate().take(t + 1).skip(1) {
            let price = b as f64 * step;
            if buyers == 0.0 {
                continue;
            }
            let surplus = raw - price * buyers;
            let utility = ctx.utility(price, buyers, surplus, m);
            if utility > best.utility || (utility == best.utility && price < best.price) {
                best = PricedOutcome {
                    price,
                    expected_buyers: buyers,
                    revenue: price * buyers,
                    surplus,
                    utility,
                };
            }
        }
    } else {
        // O(T²) sigmoid scoring: every level scans every bucket. Levels
        // are scored independently (parallel over candidate price levels)
        // and the argmax scan below runs in level order, so the winner and
        // its tie-breaks are identical at any thread count.
        let score_level = |b: usize| {
            let price = b as f64 * step;
            let mut buyers = 0.0;
            let mut surplus = 0.0;
            for c in 0..=t {
                if count[c] == 0.0 {
                    continue;
                }
                let mean_val = sum_val[c] / count[c];
                let mean_raw = sum_raw[c] / count[c];
                let p_adopt =
                    ctx.adoption.probability_of_margin(mean_val - price + ctx.adoption.epsilon);
                buyers += count[c] * p_adopt;
                surplus += count[c] * p_adopt * (mean_raw - price);
            }
            let utility = ctx.utility(price, buyers, surplus, m);
            PricedOutcome {
                price,
                expected_buyers: buyers,
                revenue: price * buyers,
                surplus,
                utility,
            }
        };
        best = if ctx.threads > 1 && t >= PAR_LEVELS_MIN {
            fold_best(best, par_index_map(ctx.threads, t, |k| score_level(k + 1)).into_iter())
        } else {
            // Sequential fast path: stream, no per-call allocation.
            fold_best(best, (1..=t).map(score_level))
        };
    }
    best
}

/// Price search over an explicit, arbitrary price list (sorted or not):
/// scores every listed price exactly (no bucketing), `O(M · |list|)`.
/// `positive` is already filtered to finite positive WTPs by
/// [`optimize_with`].
fn optimize_price_list(positive: &[f64], ctx: &PricingCtx, prices: &[f64]) -> PricedOutcome {
    if prices.is_empty() {
        return PricedOutcome::zero();
    }
    let m = positive.len() as f64;
    // Each listed price is scored independently; the argmax scan keeps the
    // list order, so parallelism cannot change the winner or tie-breaks.
    let score_price = |price: f64| {
        assert!(price.is_finite() && price > 0.0, "price list entries must be positive");
        let mut buyers = 0.0;
        let mut surplus = 0.0;
        for &w in positive {
            let p_adopt = ctx.adoption.probability(w, price);
            buyers += p_adopt;
            surplus += p_adopt * (w - price);
        }
        let utility = ctx.utility(price, buyers, surplus, m);
        PricedOutcome { price, expected_buyers: buyers, revenue: price * buyers, surplus, utility }
    };
    if ctx.threads > 1 && prices.len() >= PAR_LEVELS_MIN {
        let scored = par_index_map(ctx.threads, prices.len(), |k| score_price(prices[k]));
        fold_best(PricedOutcome::zero(), scored.into_iter())
    } else {
        // Sequential fast path: stream, no per-call allocation.
        fold_best(PricedOutcome::zero(), prices.iter().map(|&p| score_price(p)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::Params;

    fn step_ctx() -> PricingCtx {
        PricingCtx::from_params(&Params::default())
    }

    #[test]
    fn table1_item_a() {
        // WTPs {12, 8, 5}: optimal price $8 → two buyers, revenue $16,
        // u1's surplus $4 (Section 1's worked example).
        let out = optimize(&[12.0, 8.0, 5.0], &step_ctx());
        assert!((out.price - 8.0).abs() < 1e-9);
        assert_eq!(out.expected_buyers, 2.0);
        assert!((out.revenue - 16.0).abs() < 1e-9);
        assert!((out.surplus - 4.0).abs() < 1e-9);
    }

    #[test]
    fn table1_item_b() {
        // WTPs {4, 2, 11}: optimal price $11 → one buyer, revenue $11.
        let out = optimize(&[4.0, 2.0, 11.0], &step_ctx());
        assert!((out.price - 11.0).abs() < 1e-9);
        assert!((out.revenue - 11.0).abs() < 1e-9);
    }

    #[test]
    fn table1_pure_bundle() {
        // Bundle WTPs {15.2, 9.5, 15.2}: optimal price 15.2, revenue 30.4.
        let out = optimize(&[15.2, 9.5, 15.2], &step_ctx());
        assert!((out.price - 15.2).abs() < 1e-9);
        assert!((out.revenue - 30.4).abs() < 1e-9);
    }

    #[test]
    fn empty_and_zero_values() {
        assert_eq!(optimize(&[], &step_ctx()), PricedOutcome::zero());
        assert_eq!(optimize(&[0.0, 0.0], &step_ctx()), PricedOutcome::zero());
    }

    #[test]
    fn grid_approximates_exact() {
        let values: Vec<f64> = (1..=200).map(|k| (k % 37) as f64 + 1.0).collect();
        let exact = optimize(&values, &step_ctx());
        let grid = optimize(&values, &PricingCtx { mode: PriceMode::Grid, ..step_ctx() });
        assert!(grid.revenue <= exact.revenue + 1e-9);
        assert!(
            grid.revenue >= 0.95 * exact.revenue,
            "grid {} vs exact {}",
            grid.revenue,
            exact.revenue
        );
    }

    #[test]
    fn grid_level_count_one_charges_max() {
        let ctx = PricingCtx { mode: PriceMode::Grid, levels: 1, ..step_ctx() };
        let out = optimize(&[10.0, 6.0], &ctx);
        assert!((out.price - 10.0).abs() < 1e-9);
        assert_eq!(out.expected_buyers, 1.0);
    }

    #[test]
    fn adoption_bias_scales_prices() {
        // α = 1.25 lets the seller charge 1.25× each valuation.
        let mut ctx = step_ctx();
        ctx.adoption.alpha = 1.25;
        let out = optimize(&[8.0, 8.0], &ctx);
        assert!((out.price - 10.0).abs() < 1e-9);
        assert_eq!(out.expected_buyers, 2.0);
    }

    #[test]
    fn sigmoid_prices_below_step() {
        // Soft adoption forces lower prices / revenue than the step rule.
        let values = vec![10.0; 50];
        let mut soft_ctx = step_ctx();
        soft_ctx.adoption.gamma = 0.5;
        soft_ctx.mode = PriceMode::Grid;
        let soft = optimize(&values, &soft_ctx);
        let hard = optimize(&values, &step_ctx());
        assert!(soft.revenue < hard.revenue);
        assert!(soft.revenue > 0.0);
    }

    #[test]
    fn surplus_objective_lowers_price() {
        // α_obj = 0 maximizes surplus alone → charge the lowest level.
        let ctx = PricingCtx { objective_alpha: 0.0, ..step_ctx() };
        let out = optimize(&[10.0, 6.0, 3.0], &ctx);
        assert!(out.price <= 3.0 + 1e-9);
        assert!(out.surplus >= 10.0 + 6.0 + 3.0 - 3.0 * out.price - 1e-9);
    }

    #[test]
    fn unit_cost_raises_price() {
        let cheap = optimize(&[10.0, 7.0, 4.0, 2.0], &step_ctx());
        let costly = optimize(&[10.0, 7.0, 4.0, 2.0], &PricingCtx { unit_cost: 6.0, ..step_ctx() });
        assert!(costly.price >= cheap.price);
        // Profit accounting: utility = (p - c) * buyers.
        assert!((costly.utility - (costly.price - 6.0) * costly.expected_buyers).abs() < 1e-9);
    }

    #[test]
    fn price_list_mode() {
        let ctx = step_ctx();
        let out = optimize_with(
            &[12.0, 8.0, 5.0],
            &ctx,
            ctx.objective,
            Candidates::List(&[5.0, 9.99, 11.99]),
        );
        // At 5.00: 3 buyers → 15; at 9.99: 1 buyer → 9.99; at 11.99: 11.99.
        assert!((out.price - 5.0).abs() < 1e-12);
        assert!((out.revenue - 15.0).abs() < 1e-9);
        assert_eq!(out.expected_buyers, 3.0);
    }

    #[test]
    fn grid_sigmoid_bucketing_tracks_exact_sigmoid() {
        // The grid mode represents each bucket by its mean valuation; the
        // error vs scoring every consumer exactly must stay small.
        let values: Vec<f64> = (0..500).map(|k| 1.0 + (k % 83) as f64 * 0.37).collect();
        let mut ctx = step_ctx();
        ctx.adoption.gamma = 1.5;
        ctx.mode = PriceMode::Grid;
        let bucketed = optimize(&values, &ctx);
        // Exact reference: score the same price via the full per-consumer
        // sum at the chosen price.
        let exact_buyers: f64 =
            values.iter().map(|&w| ctx.adoption.probability(w, bucketed.price)).sum();
        let exact_rev = bucketed.price * exact_buyers;
        assert!(
            (bucketed.revenue - exact_rev).abs() < 0.01 * exact_rev,
            "bucketed {} vs exact {}",
            bucketed.revenue,
            exact_rev
        );
    }

    #[test]
    fn exact_step_handles_many_ties() {
        // All consumers share one valuation: charge it, sell to everyone.
        let values = vec![7.5; 400];
        let out = optimize(&values, &step_ctx());
        assert!((out.price - 7.5).abs() < 1e-12);
        assert_eq!(out.expected_buyers, 400.0);
        assert!((out.revenue - 3000.0).abs() < 1e-9);
        assert_eq!(out.surplus, 0.0);
    }

    #[test]
    fn parallel_price_search_is_bit_identical() {
        // Sigmoid grid with T ≥ PAR_LEVELS_MIN exercises the parallel
        // level scoring; the winner must match 1-thread bit for bit.
        let values: Vec<f64> = (0..700).map(|k| 1.0 + (k % 97) as f64 * 0.41).collect();
        let mut base = step_ctx();
        base.adoption.gamma = 1.5;
        base.mode = PriceMode::Grid;
        base.levels = 256;
        let seq = optimize(&values, &PricingCtx { threads: 1, ..base });
        for threads in [2, 4, 7] {
            let par = optimize(&values, &PricingCtx { threads, ..base });
            assert_eq!(par.price.to_bits(), seq.price.to_bits(), "threads={threads}");
            assert_eq!(par.revenue.to_bits(), seq.revenue.to_bits(), "threads={threads}");
            assert_eq!(par.surplus.to_bits(), seq.surplus.to_bits(), "threads={threads}");
        }
        // Same for the explicit price-list search.
        let prices: Vec<f64> = (1..=300).map(|k| k as f64 * 0.13).collect();
        let list = |ctx: PricingCtx| {
            optimize_with(&values, &ctx, ctx.objective, Candidates::List(&prices))
        };
        let seq = list(PricingCtx { threads: 1, ..base });
        for threads in [2, 4, 7] {
            let par = list(PricingCtx { threads, ..base });
            assert_eq!(par.price.to_bits(), seq.price.to_bits(), "threads={threads}");
            assert_eq!(par.revenue.to_bits(), seq.revenue.to_bits(), "threads={threads}");
        }
    }

    #[test]
    fn nan_wtp_entries_are_ignored_not_fatal() {
        // Regression: `optimize_exact_step` used to sort with
        // `partial_cmp(..).unwrap()`, so a single NaN reaching the pricing
        // call panicked the whole solve. NaNs (and infinities) are now
        // filtered at the entry point and the sort itself is total.
        let out = optimize(&[f64::NAN, 5.0, 3.0], &step_ctx());
        assert!((out.price - 3.0).abs() < 1e-12);
        assert!((out.revenue - 6.0).abs() < 1e-12);
        assert_eq!(out.expected_buyers, 2.0);
        // All-NaN degenerates to the zero outcome, both modes.
        for mode in [PriceMode::Exact, PriceMode::Grid] {
            let out = optimize(&[f64::NAN, f64::NAN], &PricingCtx { mode, ..step_ctx() });
            assert_eq!(out, PricedOutcome::zero());
        }
        // Infinite WTPs must not produce an infinite price either.
        let out = optimize(&[f64::INFINITY, 4.0], &step_ctx());
        assert!((out.price - 4.0).abs() < 1e-12);
    }

    #[test]
    fn grid_matches_exact_on_all_nonpositive_market() {
        // Regression: with every α·w ≤ 0 the grid's `step = vmax / t` was
        // 0 and `v / step` produced NaN bucket indices. Both modes must
        // agree on the zero outcome instead.
        let values = [0.0, -2.0, -7.5];
        let exact = optimize(&values, &step_ctx());
        let grid = optimize(&values, &PricingCtx { mode: PriceMode::Grid, ..step_ctx() });
        assert_eq!(exact, PricedOutcome::zero());
        assert_eq!(grid, exact);
        // Same degeneracy via a non-positive adoption bias constructed
        // directly on the ctx (bypassing Params::validate).
        let mut anti = step_ctx();
        anti.adoption.alpha = -1.0;
        anti.mode = PriceMode::Grid;
        assert_eq!(optimize(&[3.0, 9.0], &anti), PricedOutcome::zero());
    }

    #[test]
    fn grid_subnormal_underflow_returns_zero_outcome() {
        // `vmax / t` can underflow to 0.0 for subnormal valuations and a
        // large T; the guard must return the zero outcome, not NaN fields.
        let ctx = PricingCtx { mode: PriceMode::Grid, levels: 1_000_000, ..step_ctx() };
        let out = optimize(&[1e-320], &ctx);
        assert_eq!(out, PricedOutcome::zero());
        assert!(out.price.is_finite() && out.revenue.is_finite());
    }

    #[test]
    fn cvar_objective_charges_defensively() {
        // One whale at 100, nine users at 5. Mean pricing charges the
        // whale; CVaR 0.5 scores revenue by the worst half of users, so
        // it must serve the crowd at 5 instead.
        let mut values = vec![5.0; 9];
        values.push(100.0);
        let mean = optimize(&values, &step_ctx());
        assert!((mean.price - 100.0).abs() < 1e-9);
        let cvar = optimize_with(&values, &step_ctx(), Objective::Cvar(0.5), Candidates::Auto);
        assert!((cvar.price - 5.0).abs() < 1e-9, "cvar price {}", cvar.price);
        // 10 buyers at 5, lowest 5 units all paid → base 5/0.5... the
        // utility reflects the robust statistic, revenue the mean one.
        assert!((cvar.revenue - 50.0).abs() < 1e-9);
        assert!((cvar.utility - 50.0).abs() < 1e-9);
    }

    #[test]
    fn quantile_objective_serves_the_quantile() {
        // Quantile 0.5 pays only when more than half the interested users
        // buy: price must drop to the median valuation or below.
        let values = [10.0, 8.0, 6.0, 4.0, 2.0];
        let out = optimize_with(&values, &step_ctx(), Objective::Quantile(0.5), Candidates::Auto);
        // rank-3 user (of 5) must buy: price ≤ 6, and 6 maximizes m·p.
        assert!((out.price - 6.0).abs() < 1e-9, "price {}", out.price);
        assert_eq!(out.expected_buyers, 3.0);
        assert!((out.utility - 5.0 * 6.0).abs() < 1e-9);
    }

    #[test]
    fn cvar_at_one_is_mean_bit_for_bit() {
        let values: Vec<f64> = (0..300).map(|k| 0.5 + (k % 61) as f64 * 0.73).collect();
        for mode in [PriceMode::Exact, PriceMode::Grid] {
            for gamma in [1e6, 1.5] {
                let mut ctx = step_ctx();
                ctx.mode = mode;
                ctx.adoption.gamma = gamma;
                let mean = optimize_with(&values, &ctx, Objective::Mean, Candidates::Auto);
                let cvar = optimize_with(&values, &ctx, Objective::Cvar(1.0), Candidates::Auto);
                assert_eq!(mean.price.to_bits(), cvar.price.to_bits());
                assert_eq!(mean.utility.to_bits(), cvar.utility.to_bits());
                assert_eq!(mean.revenue.to_bits(), cvar.revenue.to_bits());
            }
        }
        let prices: Vec<f64> = (1..=40).map(|k| k as f64 * 0.9).collect();
        let ctx = step_ctx();
        let mean = optimize_with(&values, &ctx, Objective::Mean, Candidates::List(&prices));
        let cvar = optimize_with(&values, &ctx, Objective::Cvar(1.0), Candidates::List(&prices));
        assert_eq!(mean, cvar);
    }

    #[test]
    fn robust_parallel_search_is_bit_identical() {
        // Robust objectives through the parallel sigmoid grid and price
        // list: winner must match single-threaded bit for bit.
        let values: Vec<f64> = (0..650).map(|k| 1.0 + (k % 89) as f64 * 0.43).collect();
        let mut base = step_ctx();
        base.adoption.gamma = 1.5;
        base.mode = PriceMode::Grid;
        base.levels = 256;
        for obj in [Objective::Cvar(0.7), Objective::Quantile(0.4)] {
            let seq =
                optimize_with(&values, &PricingCtx { threads: 1, ..base }, obj, Candidates::Auto);
            for threads in [2, 8] {
                let par =
                    optimize_with(&values, &PricingCtx { threads, ..base }, obj, Candidates::Auto);
                assert_eq!(par.price.to_bits(), seq.price.to_bits(), "{obj:?} threads={threads}");
                assert_eq!(
                    par.utility.to_bits(),
                    seq.utility.to_bits(),
                    "{obj:?} threads={threads}"
                );
            }
        }
    }

    #[test]
    fn list_path_ignores_nonfinite_values_too() {
        // The unified filter drops non-finite WTPs in list mode as well
        // (the pre-unification list path admitted +∞ into the sums).
        let ctx = step_ctx();
        let out = optimize_with(
            &[f64::INFINITY, f64::NAN, 6.0],
            &ctx,
            ctx.objective,
            Candidates::List(&[5.0]),
        );
        assert_eq!(out.expected_buyers, 1.0);
        assert!((out.revenue - 5.0).abs() < 1e-12);
    }

    #[test]
    fn revenue_never_exceeds_total_wtp() {
        let values = vec![3.0, 9.0, 1.5, 7.2, 8.8];
        let total: f64 = values.iter().sum();
        for mode in [PriceMode::Exact, PriceMode::Grid] {
            let out = optimize(&values, &PricingCtx { mode, ..step_ctx() });
            assert!(out.revenue <= total + 1e-9);
        }
    }
}
