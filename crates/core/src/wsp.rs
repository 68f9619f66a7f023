//! The weighted-set-packing comparators of Sections 5.2 / 6.4: `Optimal`
//! (enumerate all `2^N − 1` bundles, solve packing exactly) and
//! `Greedy WSP` (the `√N`-approximation). Pure bundling only — "the
//! reduction to weighted set packing is only defined for pure bundling".
//!
//! Enumeration notes: only consumers with positive WTP on at least one of
//! the `N` items can ever affect a bundle's revenue, so the per-subset
//! pricing loops run over that (much smaller) consumer subset. This is a
//! pure optimization — revenues are identical — and is what makes the
//! paper's `N = 25` protocol tractable without their 70 GB machine.

use crate::bundle::Bundle;
use crate::config::{BundleConfig, OfferNode, Outcome, Strategy};
use crate::market::Market;
use crate::pricing::{self, PricingCtx};
use crate::trace::IterationTrace;
use revmax_par::par_index_map;
use std::time::{Duration, Instant};

/// How many of the low item bits are pre-branched into independent
/// enumeration tasks: `2^prebranch` tasks, each owning the mask stride
/// `{p | (high << prebranch)}`. A pure function of `n` — never of the
/// thread count — so the task decomposition, the per-consumer WTP
/// accumulation order, and therefore every table entry are bit-identical
/// at any parallelism (`DESIGN.md` §6). Small instances (`n ≤ 6`) stay
/// sequential.
fn prebranch_bits(n: usize) -> usize {
    n.saturating_sub(6).min(8)
}

/// Revenues of every nonempty subset of the market's items
/// (`table[mask]`, `table[0] = 0`), plus the matching optimal prices.
#[derive(Debug, Clone)]
pub struct SubsetRevenues {
    pub n_items: usize,
    pub revenue: Vec<f64>,
    pub price: Vec<f64>,
    /// Wall time spent enumerating (the paper reports this separately:
    /// "the enumeration and revenue computation ... require 0.8 seconds for
    /// 10 items ... 15 hours for 25 items").
    pub enumeration_time: Duration,
}

/// Enumerate all `2^N − 1` candidate bundles and price each one. Panics if
/// `N > 26` (the table would not fit in memory).
pub fn enumerate_subset_revenues(market: &Market) -> SubsetRevenues {
    let n = market.n_items();
    assert!(n <= 26, "subset enumeration limited to 26 items, got {n}");
    let start = Instant::now(); // audit: allow(wall-clock) enumeration_time is reported timing, never a result input
    let full = 1usize << n;

    // Consumers with any interest in these items, with dense re-indexing
    // (a flat rank vector — no hashing on the enumeration's build path).
    let mut relevant: Vec<u32> = Vec::new();
    let mut rank = vec![usize::MAX; market.n_users()];
    {
        let mut seen = vec![false; market.n_users()];
        for i in 0..n as u32 {
            for &u in market.wtp().col(i).ids {
                if !seen[u as usize] {
                    seen[u as usize] = true;
                    relevant.push(u);
                }
            }
        }
        relevant.sort_unstable();
        for (k, &u) in relevant.iter().enumerate() {
            rank[u as usize] = k;
        }
    }
    // Dense per-item columns over the relevant consumers, read straight off
    // the CSR column slices.
    let cols: Vec<Vec<(usize, f64)>> = (0..n as u32)
        .map(|i| market.wtp().col(i).iter().map(|(u, w)| (rank[u as usize], w)).collect())
        .collect();

    let params = *market.params();
    // Per-subset pricing runs sequentially inside each task: the outer
    // mask-range fan-out already saturates the pool.
    let ctx = PricingCtx { threads: 1, ..*market.pricing_ctx() };
    let threads = market.threads();
    let m_rel = relevant.len();

    // DFS over the subset lattice: at depth `item` branch on item
    // excluded/included, maintaining the per-consumer sums incrementally.
    // Writes table slots indexed by the bits above `shift` (the bits below
    // are fixed per task).
    #[allow(clippy::too_many_arguments)]
    fn rec(
        item: usize,
        n: usize,
        mask: &mut usize,
        sums: &mut [f64],
        values: &mut Vec<f64>,
        cols: &[Vec<(usize, f64)>],
        params: &crate::params::Params,
        ctx: &PricingCtx,
        revenue: &mut [f64],
        price: &mut [f64],
        shift: usize,
    ) {
        if item == n {
            if *mask != 0 {
                let size = mask.count_ones() as usize;
                values.clear();
                for &s in sums.iter() {
                    if s > 0.0 {
                        values.push(params.set_wtp(s, size));
                    }
                }
                let out = pricing::optimize(values, ctx);
                revenue[*mask >> shift] = out.revenue;
                price[*mask >> shift] = out.price;
            }
            return;
        }
        // Exclude `item`.
        rec(item + 1, n, mask, sums, values, cols, params, ctx, revenue, price, shift);
        // Include `item`. The undo log restores previous values bitwise —
        // `sums[u] -= w` would leave 1-ulp drift, and ratings-derived WTPs
        // sit exactly on grid-level boundaries, where any drift flips a
        // buyer across a price level.
        *mask |= 1 << item;
        let undo: Vec<f64> = cols[item].iter().map(|&(u, _)| sums[u]).collect();
        for &(u, w) in &cols[item] {
            sums[u] += w;
        }
        rec(item + 1, n, mask, sums, values, cols, params, ctx, revenue, price, shift);
        for (&(u, _), &old) in cols[item].iter().zip(&undo) {
            sums[u] = old;
        }
        *mask &= !(1 << item);
    }

    // Parallel over mask ranges: task `p` fixes the low `pb` item bits to
    // `p` (their WTP contributions pre-accumulated in increasing item
    // order, exactly as the DFS would) and enumerates the high bits. Each
    // task owns the stride `{p | (high << pb)}`, so tasks write disjoint
    // table slots; each task scatters its stride into the shared tables as
    // soon as it finishes (a short lock per task) instead of materializing
    // all 2^pb partial tables — at N = 25 that keeps peak memory at the
    // 2 × 2^N table itself plus one in-flight stride per worker, instead
    // of double the table. Slot values are independent of scatter order,
    // so results stay bit-identical at any thread count.
    let pb = prebranch_bits(n);
    let high_len = 1usize << (n - pb);
    let tables = std::sync::Mutex::new((vec![0.0f64; full], vec![0.0f64; full]));
    par_index_map(threads, 1usize << pb, |p| {
        let mut sums = vec![0.0f64; m_rel];
        for (i, col) in cols.iter().enumerate().take(pb) {
            if p & (1 << i) != 0 {
                for &(u, w) in col {
                    sums[u] += w;
                }
            }
        }
        let mut revenue = vec![0.0f64; high_len];
        let mut price = vec![0.0f64; high_len];
        let mut values: Vec<f64> = Vec::with_capacity(m_rel);
        let mut mask = p;
        rec(
            pb,
            n,
            &mut mask,
            &mut sums,
            &mut values,
            &cols,
            &params,
            &ctx,
            &mut revenue,
            &mut price,
            pb,
        );
        let mut guard = tables.lock().unwrap_or_else(|p| p.into_inner());
        for (k, (r, q)) in revenue.into_iter().zip(price).enumerate() {
            guard.0[p | (k << pb)] = r;
            guard.1[p | (k << pb)] = q;
        }
    });
    let (revenue, price) = tables.into_inner().unwrap_or_else(|p| p.into_inner());

    SubsetRevenues { n_items: n, revenue, price, enumeration_time: start.elapsed() }
}

/// Build an [`Outcome`] from chosen subset masks.
fn outcome_from_masks(
    name: &'static str,
    market: &Market,
    table: &SubsetRevenues,
    masks: &[u32],
    solve_time: Duration,
) -> Outcome {
    let mut roots = Vec::new();
    let mut revenue = 0.0;
    let mut covered = 0u32;
    for &m in masks {
        let items: Vec<u32> = (0..table.n_items as u32).filter(|&i| m & (1 << i) != 0).collect();
        roots.push(OfferNode::leaf(Bundle::new(items), table.price[m as usize]));
        revenue += table.revenue[m as usize];
        covered |= m;
    }
    // Packing may leave worthless items unsold; configurations must still
    // cover them (condition 1 of Problem 1), so list them at price 0...
    // except a zero-revenue singleton keeps its (meaningless) price anyway.
    for i in 0..table.n_items as u32 {
        if covered & (1 << i) == 0 {
            let m = 1u32 << i;
            roots.push(OfferNode::leaf(Bundle::single(i), table.price[m as usize]));
            revenue += table.revenue[m as usize];
        }
    }
    let components_revenue =
        (0..table.n_items).map(|i| table.revenue[1usize << i]).fold(0.0, |a, x| a + x);
    let mut trace = IterationTrace::new();
    trace.push(revenue, solve_time, roots.len());
    let config = BundleConfig { strategy: Strategy::Pure, roots };
    debug_assert!({
        config.validate(table.n_items);
        true
    });
    Outcome::assemble(name, config, revenue, components_revenue, market, trace)
}

/// Result of [`solve_all_subsets`].
#[derive(Debug, Clone, PartialEq)]
pub struct SubsetDpResult {
    /// Optimal total weight over pairwise-disjoint subsets of the full set.
    pub total_weight: f64,
    /// The chosen subsets (as item bitmasks), a partition of the covered
    /// items.
    pub chosen: Vec<u32>,
}

/// Solve weighted set packing where every nonempty subset of `n` items is a
/// candidate with weight `weights[mask]` (`weights.len() == 1 << n`,
/// `weights[0]` ignored). Non-positive weights are never selected.
///
/// This is the exact packing behind [`optimal`] (the role Gurobi plays in
/// the paper). When the candidate family is literally "all subsets", the
/// packing optimum satisfies a clean recurrence over item masks:
///
/// ```text
///   best(∅)    = 0
///   best(mask) = max( best(mask \ {low}),                    — leave `low` unsold
///                     max_{s ⊆ mask, low ∈ s} w(s) + best(mask \ s) )
/// ```
///
/// where `low` is the lowest item of `mask`. Anchoring every considered
/// subset at `low` avoids counting the same partition once per permutation.
/// Total work is `Σ_mask 2^|mask|` = `O(3^N)`; at the paper's N = 20 this is
/// ~3.5·10⁹ cheap operations, versus hours for a generic ILP on 2²⁰
/// variables.
///
/// Memory: two `O(2^n)` tables. Panics if `n > 26` to avoid surprise
/// multi-gigabyte allocations; the paper's regime is `n ≤ 25`.
pub fn solve_all_subsets(n: usize, weights: &[f64]) -> SubsetDpResult {
    assert!(n <= 26, "subset DP limited to 26 items (got {n})");
    assert_eq!(weights.len(), 1usize << n, "weights must have 2^n entries");
    let full = 1usize << n;
    let mut best = vec![0.0f64; full];
    // choice[mask] = the subset anchored at the lowest bit selected at this
    // state, or 0 when the lowest item is left uncovered.
    let mut choice = vec![0u32; full];
    for mask in 1..full {
        let low = mask.trailing_zeros();
        let low_bit = 1usize << low;
        let rest = mask & !low_bit;
        // Leave `low` unsold.
        let mut b = best[rest];
        let mut c = 0u32;
        // Try every subset s ⊆ mask with low ∈ s: enumerate t ⊆ rest and
        // set s = t | low_bit.
        let mut t = rest;
        loop {
            let s = t | low_bit;
            let w = weights[s];
            if w > 0.0 {
                let cand = w + best[mask ^ s];
                if cand > b {
                    b = cand;
                    c = s as u32;
                }
            }
            if t == 0 {
                break;
            }
            t = (t - 1) & rest;
        }
        best[mask] = b;
        choice[mask] = c;
    }
    // Reconstruct the chosen partition.
    let mut chosen = Vec::new();
    let mut mask = full - 1;
    while mask != 0 {
        let c = choice[mask];
        if c == 0 {
            mask &= mask - 1; // drop the lowest bit (item left unsold)
        } else {
            chosen.push(c);
            mask ^= c as usize;
        }
    }
    SubsetDpResult { total_weight: best[full - 1], chosen }
}

/// `Optimal`: exact pure-bundling configuration via the subset DP over the
/// enumerated revenue table (the role Gurobi plays in the paper).
pub fn optimal(market: &Market, table: &SubsetRevenues) -> Outcome {
    let start = Instant::now(); // audit: allow(wall-clock) solve_time is reported timing, never a result input
    let dp = solve_all_subsets(table.n_items, &table.revenue);
    outcome_from_masks("Optimal", market, table, &dp.chosen, start.elapsed())
}

/// `Greedy WSP`: the √N-approximate packing, selecting by the norm-scaled
/// score `w/√|S|`. The paper describes "a greedy approach that repeatedly
/// selects the next set with the highest average weight per item" and
/// attributes a `√N` guarantee to it, citing Gonen & Lehmann (EC'00) and
/// Chandra & Halldórsson (SODA'99). The average-weight rule `w/|S|` is only
/// `Θ(N)`-approximate (a dense singleton can block one huge set); the `√N`
/// guarantee belongs to `w/√|S|`, the rule used here. The test
/// `per_item_rule_misses_sqrt_bound` below gives a 3-item counterexample.
pub fn greedy_wsp(market: &Market, table: &SubsetRevenues) -> Outcome {
    let start = Instant::now(); // audit: allow(wall-clock) solve_time is reported timing, never a result input
    let chosen = greedy_selection(table.n_items, &table.revenue);
    outcome_from_masks("Greedy WSP", market, table, &chosen, start.elapsed())
}

/// The disjoint subsets [`greedy_wsp`] packs, in pick order: every positive
/// `revenue[mask]` by descending `w/√|S|` (ties by ascending mask), each
/// taken if it misses the items already covered.
fn greedy_selection(n: usize, revenue: &[f64]) -> Vec<u32> {
    // Sort subset ids by score descending. (Materializing 2^N ids is the
    // dominant memory cost; fine for N ≤ 26.)
    let mut order: Vec<u32> = (1..(1u32 << n)).collect();
    order.sort_by(|&a, &b| {
        let da = revenue[a as usize] / (a.count_ones() as f64).sqrt();
        let db = revenue[b as usize] / (b.count_ones() as f64).sqrt();
        db.total_cmp(&da).then(a.cmp(&b))
    });
    let mut covered = 0u32;
    let mut chosen = Vec::new();
    for s in order {
        if revenue[s as usize] <= 0.0 {
            break;
        }
        if covered & s == 0 {
            covered |= s;
            chosen.push(s);
            if covered == (1u32 << n) - 1 {
                break;
            }
        }
    }
    chosen
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::{Components, Configurator, PureGreedy, PureMatching};
    use crate::params::Params;
    use crate::wtp::WtpMatrix;

    fn market() -> Market {
        let w = WtpMatrix::from_rows(vec![
            vec![12.0, 4.0, 0.0],
            vec![8.0, 2.0, 3.0],
            vec![5.0, 11.0, 7.0],
            vec![0.0, 6.0, 9.0],
        ]);
        Market::new(w, Params::default())
    }

    #[test]
    fn enumeration_matches_direct_pricing() {
        let m = market();
        let t = enumerate_subset_revenues(&m);
        let mut s = m.scratch();
        for mask in 1u32..(1 << 3) {
            let items: Vec<u32> = (0..3).filter(|&i| mask & (1 << i) != 0).collect();
            let direct = m.price_pure(&items, &mut s);
            assert!(
                (t.revenue[mask as usize] - direct.revenue).abs() < 1e-9,
                "mask {mask}: {} vs {}",
                t.revenue[mask as usize],
                direct.revenue
            );
            assert!((t.price[mask as usize] - direct.price).abs() < 1e-9);
        }
    }

    #[test]
    fn optimal_at_least_as_good_as_heuristics() {
        let m = market();
        let t = enumerate_subset_revenues(&m);
        let opt = optimal(&m, &t);
        let gw = greedy_wsp(&m, &t);
        let pm = PureMatching::default().run(&m);
        let pg = PureGreedy::default().run(&m);
        let c = Components::optimal().run(&m);
        assert!(opt.revenue >= gw.revenue - 1e-9);
        assert!(opt.revenue >= pm.revenue - 1e-9);
        assert!(opt.revenue >= pg.revenue - 1e-9);
        assert!(opt.revenue >= c.revenue - 1e-9);
        opt.config.validate(3);
        gw.config.validate(3);
        // √N bound for the greedy.
        assert!(gw.revenue + 1e-9 >= opt.revenue / 3f64.sqrt());
    }

    #[test]
    #[should_panic(expected = "revenue must be non-negative")]
    fn nan_table_entry_dies_at_the_metrics_guard_not_in_the_sort() {
        // Regression (PR 5 class, mechanized by the audit's
        // float-partial-cmp rule): the score sort used
        // `partial_cmp(..).unwrap()`, so one NaN revenue entry aborted
        // inside std's sort with an unrelated `Option::unwrap` message.
        // total_cmp keeps the sort total; the NaN now flows to the
        // explicit invariant guard in `metrics::revenue_coverage`, which
        // names the actual problem.
        let m = market();
        let mut t = enumerate_subset_revenues(&m);
        t.revenue[0b101] = f64::NAN;
        let _ = greedy_wsp(&m, &t);
    }

    #[test]
    fn greedy_wsp_is_bitwise_deterministic_after_total_cmp() {
        // The comparator change must preserve the finite-input ordering.
        let m = market();
        let t = enumerate_subset_revenues(&m);
        let a = greedy_wsp(&m, &t);
        let b = greedy_wsp(&m, &t);
        assert_eq!(a.revenue.to_bits(), b.revenue.to_bits());
        assert!(a.revenue > 0.0);
    }

    #[test]
    fn enumeration_respects_theta() {
        // θ > 0 inflates multi-item subsets only; the singles row of the
        // table must be unchanged while pairs grow.
        let build = |theta: f64| {
            let w = WtpMatrix::from_rows(vec![vec![6.0, 4.0], vec![3.0, 7.0]]);
            Market::new(w, Params::default().with_theta(theta))
        };
        let t0 = enumerate_subset_revenues(&build(0.0));
        let tp = enumerate_subset_revenues(&build(0.2));
        assert_eq!(t0.revenue[0b01], tp.revenue[0b01]);
        assert_eq!(t0.revenue[0b10], tp.revenue[0b10]);
        assert!(tp.revenue[0b11] > t0.revenue[0b11]);
    }

    #[test]
    fn greedy_wsp_covers_all_items() {
        let m = market();
        let t = enumerate_subset_revenues(&m);
        let gw = greedy_wsp(&m, &t);
        gw.config.validate(3);
        let covered: usize = gw.config.roots.iter().map(|r| r.bundle.len()).sum();
        assert_eq!(covered, 3);
    }

    #[test]
    fn enumeration_bit_identical_across_thread_counts() {
        // n = 10 → 16 pre-branched tasks, exercising the parallel path.
        use crate::params::Threads;
        let rows: Vec<Vec<f64>> = (0..30u32)
            .map(|u| (0..10u32).map(|i| ((u * 7 + i * 13) % 11) as f64 * 0.7).collect())
            .collect();
        let build = |t: usize| {
            Market::new(
                WtpMatrix::from_rows(rows.clone()),
                Params::default().with_theta(0.05).with_threads(Threads::Fixed(t)),
            )
        };
        let base = enumerate_subset_revenues(&build(1));
        let base_opt = optimal(&build(1), &base);
        let base_gw = greedy_wsp(&build(1), &base);
        for t in [2, 4, 7] {
            let tab = enumerate_subset_revenues(&build(t));
            assert_eq!(tab.revenue.len(), base.revenue.len());
            for mask in 0..tab.revenue.len() {
                assert_eq!(
                    tab.revenue[mask].to_bits(),
                    base.revenue[mask].to_bits(),
                    "revenue differs at mask {mask} with {t} threads"
                );
                assert_eq!(
                    tab.price[mask].to_bits(),
                    base.price[mask].to_bits(),
                    "price differs at mask {mask} with {t} threads"
                );
            }
            let opt = optimal(&build(t), &tab);
            let gw = greedy_wsp(&build(t), &tab);
            assert_eq!(opt.revenue.to_bits(), base_opt.revenue.to_bits());
            assert_eq!(gw.revenue.to_bits(), base_gw.revenue.to_bits());
        }
    }

    #[test]
    fn enumeration_time_is_recorded() {
        let m = market();
        let t = enumerate_subset_revenues(&m);
        assert!(t.enumeration_time > Duration::ZERO);
        assert_eq!(t.revenue.len(), 8);
        assert_eq!(t.revenue[0], 0.0);
    }

    /// Build the all-subsets weight table from an additive-with-synergy toy
    /// model so optima are easy to reason about.
    fn table(n: usize, f: impl Fn(u32) -> f64) -> Vec<f64> {
        (0..(1u32 << n)).map(|m| if m == 0 { 0.0 } else { f(m) }).collect()
    }

    #[test]
    fn single_item() {
        let w = table(1, |_| 5.0);
        let r = solve_all_subsets(1, &w);
        assert_eq!(r.total_weight, 5.0);
        assert_eq!(r.chosen, vec![0b1]);
    }

    #[test]
    fn additive_weights_prefer_singletons_or_anything() {
        // Purely additive: any partition of all items scores the same.
        let w = table(3, |m| m.count_ones() as f64);
        let r = solve_all_subsets(3, &w);
        assert_eq!(r.total_weight, 3.0);
        let union: u32 = r.chosen.iter().fold(0, |a, &s| {
            assert_eq!(a & s, 0, "overlap in chosen sets");
            a | s
        });
        assert_eq!(union, 0b111);
    }

    #[test]
    fn superadditive_prefers_grand_bundle() {
        let w = table(4, |m| {
            let k = m.count_ones() as f64;
            k * k // strictly superadditive
        });
        let r = solve_all_subsets(4, &w);
        assert_eq!(r.total_weight, 16.0);
        assert_eq!(r.chosen, vec![0b1111]);
    }

    #[test]
    fn subadditive_prefers_singletons() {
        let w = table(4, |m| (m.count_ones() as f64).sqrt());
        let r = solve_all_subsets(4, &w);
        assert!((r.total_weight - 4.0).abs() < 1e-12);
        assert_eq!(r.chosen.len(), 4);
    }

    #[test]
    fn negative_weights_leave_items_unsold() {
        let w = table(3, |m| if m == 0b011 { 4.0 } else { -1.0 });
        let r = solve_all_subsets(3, &w);
        assert_eq!(r.total_weight, 4.0);
        assert_eq!(r.chosen, vec![0b011]);
    }

    #[test]
    #[should_panic(expected = "2^n entries")]
    fn rejects_wrong_table_size() {
        solve_all_subsets(3, &[0.0; 4]);
    }

    #[test]
    fn per_item_rule_misses_sqrt_bound() {
        // The counterexample to the paper's "average weight per item" rule:
        // {0} w=57 vs {0,1,2} w=98.8 on 3 items. Per item, the singleton
        // wins (57 > 32.9) and packs 57 < opt/√3 ≈ 57.04; by w/√|S| the
        // triple wins (57.04 > 57), and the greedy packs the optimum.
        let w = table(3, |m| match m {
            0b001 => 57.0,
            0b111 => 98.8,
            _ => 0.0,
        });
        let opt = solve_all_subsets(3, &w).total_weight;
        assert_eq!(opt, 98.8);
        assert!(w[0b001] / 1.0 > w[0b111] / 3.0 && w[0b001] < opt / 3f64.sqrt());
        assert_eq!(greedy_selection(3, &w), vec![0b111]);
    }

    /// Random all-subsets table over `n` items with weights in
    /// [-20, 180) in steps of 0.5, about one in ten non-positive.
    fn random_table(n: usize, seed: u64) -> Vec<f64> {
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(7);
        let mut w = vec![0.0; 1 << n];
        for x in w.iter_mut().skip(1) {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            *x = ((state >> 33) % 400) as f64 / 2.0 - 20.0;
        }
        w
    }

    /// Brute-force packing optimum: every set partition of the `n` items
    /// (restricted-growth strings), each block scoring `max(0, w)` — a
    /// block of non-positive weight stands for its items left unsold.
    fn best_partition(n: usize, weights: &[f64]) -> f64 {
        fn rec(item: usize, n: usize, blocks: &mut Vec<u32>, weights: &[f64], best: &mut f64) {
            if item == n {
                let total = blocks.iter().map(|&b| weights[b as usize].max(0.0)).sum::<f64>();
                *best = best.max(total);
                return;
            }
            for k in 0..=blocks.len() {
                if k == blocks.len() {
                    blocks.push(0);
                }
                blocks[k] |= 1 << item;
                rec(item + 1, n, blocks, weights, best);
                blocks[k] &= !(1 << item);
                if blocks[k] == 0 {
                    blocks.pop();
                }
            }
        }
        let mut best = 0.0;
        rec(0, n, &mut Vec::new(), weights, &mut best);
        best
    }

    #[test]
    fn agrees_with_the_best_partition_on_8_items() {
        // One step past the proptest's 7 items: 4140 set partitions.
        let n = 8;
        let mut weights = vec![0.0; 1 << n];
        let mut state = 0x1234_5678_9abc_def0u64;
        for w in weights.iter_mut().skip(1) {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            *w = ((state >> 33) % 1000) as f64 / 10.0;
        }
        let dp = solve_all_subsets(n, &weights);
        let brute = best_partition(n, &weights);
        assert!(
            (dp.total_weight - brute).abs() < 1e-9,
            "dp {} vs brute force {brute}",
            dp.total_weight
        );
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(300))]

        #[test]
        fn subset_dp_equals_the_best_partition(n in 1usize..=7, seed in 0u64..1_000_000) {
            let w = random_table(n, seed);
            let dp = solve_all_subsets(n, &w);
            let brute = best_partition(n, &w);
            proptest::prop_assert!((dp.total_weight - brute).abs() < 1e-9,
                "dp {} vs brute force {brute}", dp.total_weight);
            // The chosen sets are disjoint, positive, and sum to the total.
            let mut union = 0u32;
            let mut total = 0.0;
            for &s in &dp.chosen {
                proptest::prop_assert_eq!(union & s, 0);
                proptest::prop_assert!(w[s as usize] > 0.0);
                union |= s;
                total += w[s as usize];
            }
            proptest::prop_assert!((total - dp.total_weight).abs() < 1e-9);
        }

        #[test]
        fn greedy_selection_is_within_sqrt_n_of_optimal(n in 1usize..=7, seed in 0u64..1_000_000) {
            let w = random_table(n, seed);
            let opt = solve_all_subsets(n, &w).total_weight;
            let mut union = 0u32;
            let mut total = 0.0;
            for s in greedy_selection(n, &w) {
                proptest::prop_assert_eq!(union & s, 0);
                union |= s;
                total += w[s as usize];
            }
            proptest::prop_assert!(total <= opt + 1e-9, "greedy {total} above opt {opt}");
            proptest::prop_assert!(total + 1e-9 >= opt / (n as f64).sqrt(),
                "greedy {total} below opt/√{n} (opt {opt})");
        }
    }

    #[test]
    fn k2_matching_equals_optimal_when_optimal_pairs() {
        // With size cap 2, PureMatching is provably optimal (Section 5.1);
        // cross-check against the DP restricted to sizes ≤ 2.
        use crate::params::SizeCap;
        let w = WtpMatrix::from_rows(vec![
            vec![12.0, 4.0, 0.0],
            vec![8.0, 2.0, 3.0],
            vec![5.0, 11.0, 7.0],
            vec![0.0, 6.0, 9.0],
        ]);
        let m = Market::new(w, Params::default().with_size_cap(SizeCap::AtMost(2)));
        let t = enumerate_subset_revenues(&m);
        // Zero out revenues of subsets larger than 2 for the capped DP.
        let mut capped = t.revenue.clone();
        for (mask, r) in capped.iter_mut().enumerate().skip(1) {
            if (mask as u32).count_ones() > 2 {
                *r = 0.0;
            }
        }
        let dp = solve_all_subsets(3, &capped);
        let pm = PureMatching::default().run(&m);
        assert!(
            (dp.total_weight - pm.revenue).abs() < 1e-9,
            "2-sized optimal {} vs matching {}",
            dp.total_weight,
            pm.revenue
        );
    }
}
