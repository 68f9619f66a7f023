//! The market: a WTP matrix plus model parameters, with the scratch-buffer
//! machinery that makes repeated bundle-revenue queries cheap, and the
//! [`MarketView`] sub-markets of per-segment solves (`DESIGN.md` §7).
//!
//! The WTP storage is a shared dual-CSR arena ([`crate::wtp`]), so a
//! market's hot query — [`Market::bundle_user_sums`], a scatter loop over
//! the contiguous column slices of the bundle's items — never chases
//! per-row heap pointers. A [`MarketView`] (per-genre, per-cohort,
//! per-shard user subset) is a fresh arena of its users' rows, so it
//! answers the very same queries through the very same code.

use crate::params::Params;
use crate::pricing::{self, Candidates, PriceMode, PricedOutcome, PricingCtx};
use crate::wtp::WtpMatrix;

/// A market instance: `M` consumers, `N` items, WTP, and parameters.
#[derive(Debug, Clone)]
pub struct Market {
    wtp: WtpMatrix,
    params: Params,
    pricing: PricingCtx,
}

impl Market {
    /// User-id block width of the [`Market::bundle_user_sums`] merge
    /// scatter. The accumulator lives on the stack (one cache line ×
    /// `SUM_BLOCK / 8`), so the scatter never touches a market-sized
    /// buffer; 64 matches the serve-side tile width (`DESIGN.md` §12).
    pub const SUM_BLOCK: usize = 64;

    /// Create a market; validates the parameters. Pricing defaults to
    /// [`PriceMode::Exact`] (see `DESIGN.md`: exact is the `T→∞` limit of
    /// the paper's discretization and is used for headline numbers).
    pub fn new(wtp: WtpMatrix, params: Params) -> Self {
        params.validate();
        let pricing = PricingCtx::from_params(&params);
        Market { wtp, params, pricing }
    }

    /// Switch to the paper's `T`-level grid discretization.
    pub fn with_grid_pricing(mut self) -> Self {
        self.pricing.mode = PriceMode::Grid;
        self
    }

    /// The same market economics (params, resolved pricing context) over a
    /// different WTP matrix — how [`crate::marketlog::MarketLog`] turns a
    /// churned snapshot back into a solvable market without re-resolving
    /// threads or price mode.
    pub fn with_wtp(&self, wtp: WtpMatrix) -> Market {
        Market { wtp, params: self.params, pricing: self.pricing }
    }

    pub fn wtp(&self) -> &WtpMatrix {
        &self.wtp
    }

    pub fn params(&self) -> &Params {
        &self.params
    }

    pub fn pricing_ctx(&self) -> &PricingCtx {
        &self.pricing
    }

    /// Resolved worker-thread count (≥ 1) from [`Params::threads`], fixed
    /// at construction so one market never mixes resolutions (the env var
    /// is read once). Thread count never affects results (`DESIGN.md` §6).
    pub fn threads(&self) -> usize {
        self.pricing.threads
    }

    pub fn n_users(&self) -> usize {
        self.wtp.n_users()
    }

    pub fn n_items(&self) -> usize {
        self.wtp.n_items()
    }

    /// Σ of all WTP entries: the revenue upper bound (coverage denominator).
    pub fn total_wtp(&self) -> f64 {
        self.wtp.total_wtp()
    }

    /// Fresh scratch buffers sized for this market.
    pub fn scratch(&self) -> Scratch {
        Scratch::new(self.n_users())
    }

    /// Stable 64-bit fingerprint of everything a solve on this market
    /// depends on: the WTP content (including any view restriction —
    /// [`crate::wtp::WtpMatrix::fingerprint`]), the solve-relevant
    /// [`Params`] ([`Params::fingerprint`]; the thread knob is excluded),
    /// and the price-search mode. Two markets with equal fingerprints
    /// produce bit-identical solves for any configurator, which is the
    /// invariant the sweep engine's solve cache relies on (`DESIGN.md`
    /// §8). Accessible on a [`MarketView`] through deref.
    pub fn fingerprint(&self) -> u64 {
        let mut fp = crate::fingerprint::Fingerprinter::new("market");
        fp.write_u64(self.wtp.fingerprint());
        fp.write_u64(self.params.fingerprint());
        fp.write_u32(match self.pricing.mode {
            PriceMode::Exact => 0,
            PriceMode::Grid => 1,
        });
        fp.finish()
    }

    /// Per-user raw WTP sums over `items` (only users with a positive sum),
    /// sorted by user id. Blocked merge-scatter over the contiguous CSR
    /// column slices (`DESIGN.md` §12): user ids are processed in fixed
    /// [`Market::SUM_BLOCK`]-sized blocks, each column's segment scattered
    /// into a stack-resident block accumulator, then the block is emitted
    /// in ascending order — O(Σ nnz + touched blocks × block), with no
    /// market-sized accumulator and no sort of the touched set. Per user
    /// the contributions still accumulate in item order from `+0.0`, and
    /// `acc != 0.0 ⟺ touched` because every stored WTP is strictly
    /// positive ([`crate::wtp::CsrBuilder`]'s ingestion invariant), so the
    /// emitted pairs are bit-identical to the historical touched-set
    /// scatter.
    pub fn bundle_user_sums<'a>(
        &self,
        items: &[u32],
        scratch: &'a mut Scratch,
    ) -> &'a [(u32, f64)] {
        scratch.pairs.clear();
        if let [item] = items {
            // Single-column bundle (leaf offers, the configurators' most
            // frequent call): the column is already ascending with
            // strictly positive values — it *is* the answer.
            let col = self.wtp.col(*item);
            scratch.pairs.extend(col.ids.iter().zip(col.values).map(|(&u, &w)| (u, w)));
            return &scratch.pairs;
        }
        let cols: Vec<crate::wtp::SparseSlice<'_>> =
            items.iter().map(|&i| self.wtp.col(i)).collect();
        scratch.cursors.clear();
        scratch.cursors.resize(cols.len(), 0);
        let mut acc = [0.0f64; Market::SUM_BLOCK];
        loop {
            // Skip ahead to the next block any column still has entries in.
            let mut next = usize::MAX;
            for (&c, col) in scratch.cursors.iter().zip(&cols) {
                if c < col.ids.len() {
                    next = next.min(col.ids[c] as usize / Market::SUM_BLOCK);
                }
            }
            if next == usize::MAX {
                break;
            }
            let base = next * Market::SUM_BLOCK;
            let end = (base + Market::SUM_BLOCK) as u32;
            // Scatter each column's block segment in item order, so every
            // user's sum accumulates in exactly the historical order.
            for (c, col) in scratch.cursors.iter_mut().zip(&cols) {
                while *c < col.ids.len() && col.ids[*c] < end {
                    acc[col.ids[*c] as usize - base] += col.values[*c];
                    *c += 1;
                }
            }
            for (j, slot) in acc.iter_mut().enumerate() {
                if *slot != 0.0 {
                    scratch.pairs.push(((base + j) as u32, *slot));
                    *slot = 0.0;
                }
            }
        }
        &scratch.pairs
    }

    /// θ-adjusted bundle WTPs (`w_{u,b}`, Eq. 1) of the interested users.
    pub fn bundle_wtps<'a>(&self, items: &[u32], scratch: &'a mut Scratch) -> &'a [f64] {
        let size = items.len();
        let theta_params = self.params;
        // Split borrows: fill `values` from `pairs` computed first.
        self.bundle_user_sums(items, scratch);
        scratch.values.clear();
        for k in 0..scratch.pairs.len() {
            let sum = scratch.pairs[k].1;
            scratch.values.push(theta_params.set_wtp(sum, size));
        }
        &scratch.values
    }

    /// Revenue-optimal pure-bundling price of a bundle (Eq. 2 + Eq. 5).
    pub fn price_pure(&self, items: &[u32], scratch: &mut Scratch) -> PricedOutcome {
        self.bundle_wtps(items, scratch);
        pricing::optimize(&scratch.values, &self.pricing)
    }

    /// Outcome of selling `item` at its listed price (the "Amazon's
    /// pricing" baseline of Table 2). `None` when the matrix has no listed
    /// prices.
    pub fn price_listed(&self, item: u32) -> Option<PricedOutcome> {
        let price = self.wtp.listed_price(item)?;
        let values: Vec<f64> = self.wtp.col(item).values.to_vec();
        let ctx = &self.pricing;
        Some(pricing::optimize_with(&values, ctx, ctx.objective, Candidates::List(&[price])))
    }

    /// All unordered item pairs co-rated by at least one consumer — the
    /// first-iteration pruning of Algorithm 1 ("we only consider pairs of
    /// items for which at least one customer has non-zero willingness to
    /// pay for both").
    pub fn co_rated_pairs(&self) -> Vec<(u32, u32)> {
        // Dedup on the fly: heavy raters contribute O(degree²) pairs each,
        // so buffering duplicates before a sort would blow memory up from
        // O(unique pairs) to O(Σ degree²).
        let mut seen = std::collections::HashSet::new();
        for u in 0..self.n_users() as u32 {
            let row = self.wtp.row(u).ids;
            for (a_idx, &i) in row.iter().enumerate() {
                for &j in &row[a_idx + 1..] {
                    seen.insert((i, j));
                }
            }
        }
        // audit: allow(unordered-iter) hash order is erased by the sort_unstable below
        let mut out: Vec<(u32, u32)> = seen.into_iter().collect();
        out.sort_unstable();
        out
    }

    /// Rater bitmap of a single item (users with positive WTP), set
    /// directly from the item's CSR column.
    pub fn item_raters(&self, item: u32) -> revmax_fim::Bitmap {
        let mut bm = revmax_fim::Bitmap::zeros(self.n_users());
        for &u in self.wtp.col(item).ids {
            bm.set(u as usize);
        }
        bm
    }

    /// Sub-market of a user subset (every item kept): a fresh arena of
    /// the kept users' rows, renumbered densely in ascending order of the
    /// original ids, sharing this market's parameters and resolved pricing
    /// context. Any configurator run on the view is bit-identical to one
    /// run on a market rebuilt from the kept triples.
    pub fn view(&self, users: &[u32]) -> MarketView {
        let mut users = users.to_vec();
        users.sort_unstable();
        users.dedup();
        if let Some(&last) = users.last() {
            assert!((last as usize) < self.n_users(), "user {last} out of range");
        }
        let wtp = self.wtp.select_users(&users);
        MarketView { market: self.with_wtp(wtp), label: None }
    }

    /// Partition the consumers into labeled segments: one [`MarketView`]
    /// per distinct label (ascending), each holding every item but only
    /// that label's users. `labels[u]` is user `u`'s segment. The gateway
    /// to per-genre / per-cohort / per-shard solves: every configurator
    /// runs unchanged on each returned view.
    pub fn partition_by(&self, labels: &[u32]) -> Vec<MarketView> {
        assert_eq!(labels.len(), self.n_users(), "one label per consumer");
        // One bucketing pass: users land in their segment's list in
        // ascending user order, so each view's id remap is already sorted.
        let mut distinct: Vec<u32> = labels.to_vec();
        distinct.sort_unstable();
        distinct.dedup();
        let slot: std::collections::HashMap<u32, usize> =
            distinct.iter().enumerate().map(|(k, &lab)| (lab, k)).collect();
        let mut buckets: Vec<Vec<u32>> = vec![Vec::new(); distinct.len()];
        for (u, &lab) in labels.iter().enumerate() {
            buckets[slot[&lab]].push(u as u32);
        }
        distinct
            .into_iter()
            .zip(buckets)
            .map(|(lab, users)| {
                let mut v = self.view(&users);
                v.label = Some(lab);
                v
            })
            .collect()
    }
}

/// A [`Market`] restricted to a user subset ([`Market::view`]).
///
/// Dereferences to [`Market`], so every [`crate::algorithms::Configurator`]
/// — and any other consumer of the market query API (`bundle_user_sums`,
/// `bundle_wtps`, `price_pure`, …) — runs on a view unchanged.
#[derive(Debug, Clone)]
pub struct MarketView {
    market: Market,
    label: Option<u32>,
}

impl MarketView {
    /// The restricted market itself (what `Deref` returns).
    pub fn market(&self) -> &Market {
        &self.market
    }

    /// Segment label, when produced by [`Market::partition_by`].
    pub fn label(&self) -> Option<u32> {
        self.label
    }
}

impl std::ops::Deref for MarketView {
    type Target = Market;

    fn deref(&self) -> &Market {
        &self.market
    }
}

/// Reusable buffers for bundle WTP aggregation; one per thread of work.
#[derive(Debug, Clone)]
pub struct Scratch {
    /// Per-column merge cursors of the blocked `bundle_user_sums` scatter.
    cursors: Vec<usize>,
    /// Last `bundle_user_sums` result.
    pub pairs: Vec<(u32, f64)>,
    /// Last `bundle_wtps` result.
    pub values: Vec<f64>,
}

impl Scratch {
    /// Buffers for a market of `n_users` consumers. The blocked scatter
    /// keeps its accumulator on the stack, so the buffers no longer scale
    /// with the market; the consumer count only pre-sizes the result
    /// vectors.
    pub fn new(n_users: usize) -> Self {
        Scratch {
            cursors: Vec::new(),
            pairs: Vec::with_capacity(n_users.min(1 << 12)),
            values: Vec::with_capacity(n_users.min(1 << 12)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Table 1's market (θ = −0.05).
    pub(crate) fn table1() -> Market {
        let w = WtpMatrix::from_rows(vec![vec![12.0, 4.0], vec![8.0, 2.0], vec![5.0, 11.0]]);
        Market::new(w, Params::default().with_theta(-0.05))
    }

    #[test]
    fn bundle_user_sums_aggregates() {
        let m = table1();
        let mut s = m.scratch();
        let sums = m.bundle_user_sums(&[0, 1], &mut s);
        assert_eq!(sums, &[(0, 16.0), (1, 10.0), (2, 16.0)]);
    }

    #[test]
    fn bundle_wtps_apply_theta_to_bundles_only() {
        let m = table1();
        let mut s = m.scratch();
        let single = m.bundle_wtps(&[0], &mut s).to_vec();
        assert_eq!(single, vec![12.0, 8.0, 5.0]);
        let pair = m.bundle_wtps(&[0, 1], &mut s).to_vec();
        // (16, 10, 16) × 0.95 = (15.2, 9.5, 15.2).
        assert!((pair[0] - 15.2).abs() < 1e-12);
        assert!((pair[1] - 9.5).abs() < 1e-12);
        assert!((pair[2] - 15.2).abs() < 1e-12);
    }

    #[test]
    fn table1_component_and_bundle_revenues() {
        let m = table1();
        let mut s = m.scratch();
        let a = m.price_pure(&[0], &mut s);
        assert!((a.revenue - 16.0).abs() < 1e-9);
        let b = m.price_pure(&[1], &mut s);
        assert!((b.revenue - 11.0).abs() < 1e-9);
        let ab = m.price_pure(&[0, 1], &mut s);
        assert!((ab.price - 15.2).abs() < 1e-9);
        assert!((ab.revenue - 30.4).abs() < 1e-9);
    }

    #[test]
    fn co_rated_pairs_found() {
        let m = table1();
        // Every user rated both items.
        assert_eq!(m.co_rated_pairs(), vec![(0, 1)]);
    }

    #[test]
    fn scratch_reuse_is_clean() {
        let m = table1();
        let mut s = m.scratch();
        let first = m.bundle_user_sums(&[0], &mut s).to_vec();
        let _ = m.bundle_user_sums(&[1], &mut s);
        let again = m.bundle_user_sums(&[0], &mut s).to_vec();
        assert_eq!(first, again, "scratch must reset between calls");
    }

    #[test]
    fn item_raters_bitmap() {
        let m = table1();
        let bm = m.item_raters(0);
        assert_eq!(bm.count(), 3);
    }

    #[test]
    fn listed_price_requires_price_data() {
        let m = table1();
        assert!(m.price_listed(0).is_none());
    }

    #[test]
    fn grid_pricing_mode_switch_changes_search() {
        // Exact pricing hits $8 for item A; a 100-level grid over (0, 12]
        // lands within one step of it but not exactly on 8.
        let exact = table1();
        let grid = table1().with_grid_pricing();
        let mut s = exact.scratch();
        let pe = exact.price_pure(&[0], &mut s);
        let pg = grid.price_pure(&[0], &mut s);
        assert!((pe.price - 8.0).abs() < 1e-12);
        assert!(pg.revenue <= pe.revenue + 1e-12);
        assert!(pg.revenue >= 0.95 * pe.revenue, "grid {} vs exact {}", pg.revenue, pe.revenue);
    }

    #[test]
    fn empty_bundle_items_yield_zero() {
        let m = table1();
        let mut s = m.scratch();
        let out = m.price_pure(&[], &mut s);
        assert_eq!(out.revenue, 0.0);
        assert_eq!(out.expected_buyers, 0.0);
    }

    #[test]
    fn user_view_answers_queries_locally() {
        let m = table1();
        // Users 0 and 2 only.
        let v = m.view(&[2, 0]);
        assert_eq!(v.n_users(), 2);
        assert_eq!(v.n_items(), 2);
        let mut s = v.scratch();
        let sums = v.bundle_user_sums(&[0, 1], &mut s);
        assert_eq!(sums, &[(0, 16.0), (1, 16.0)]);
        // Optimal pure bundle price over {u1, u3}: both at 15.2 → 30.4.
        let priced = v.price_pure(&[0, 1], &mut s);
        assert!((priced.revenue - 30.4).abs() < 1e-9);
    }

    #[test]
    fn view_equals_market_rebuilt_from_restricted_triples() {
        let m = table1();
        let v = m.view(&[1, 2]);
        let rebuilt = Market::new(
            WtpMatrix::from_rows(vec![vec![8.0, 2.0], vec![5.0, 11.0]]),
            Params::default().with_theta(-0.05),
        );
        let mut sv = v.scratch();
        let mut sr = rebuilt.scratch();
        let pv = v.price_pure(&[0, 1], &mut sv);
        let pr = rebuilt.price_pure(&[0, 1], &mut sr);
        assert_eq!(pv.price.to_bits(), pr.price.to_bits());
        assert_eq!(pv.revenue.to_bits(), pr.revenue.to_bits());
        assert_eq!(v.total_wtp().to_bits(), rebuilt.total_wtp().to_bits());
        assert_eq!(v.wtp(), rebuilt.wtp());
    }

    #[test]
    fn partition_by_covers_all_users_once() {
        let m = table1();
        let views = m.partition_by(&[7, 3, 7]);
        assert_eq!(views.len(), 2);
        assert_eq!(views[0].label(), Some(3));
        assert_eq!(views[0].wtp(), m.view(&[1]).wtp());
        assert_eq!(views[1].label(), Some(7));
        assert_eq!(views[1].wtp(), m.view(&[0, 2]).wtp());
        let total: usize = views.iter().map(|v| v.n_users()).sum();
        assert_eq!(total, m.n_users());
        // Views share the parent's resolved thread count.
        for v in &views {
            assert_eq!(v.threads(), m.threads());
        }
    }

    #[test]
    fn market_fingerprint_tracks_wtp_params_and_mode() {
        let m = table1();
        assert_eq!(m.fingerprint(), table1().fingerprint());
        // Each ingredient moves the digest: WTP content, params, mode.
        let other_wtp = Market::new(
            WtpMatrix::from_rows(vec![vec![12.0, 4.0], vec![8.0, 2.0], vec![5.0, 11.5]]),
            Params::default().with_theta(-0.05),
        );
        assert_ne!(m.fingerprint(), other_wtp.fingerprint());
        let other_theta = Market::new(
            WtpMatrix::from_rows(vec![vec![12.0, 4.0], vec![8.0, 2.0], vec![5.0, 11.0]]),
            Params::default().with_theta(-0.10),
        );
        assert_ne!(m.fingerprint(), other_theta.fingerprint());
        assert_ne!(m.fingerprint(), table1().with_grid_pricing().fingerprint());
        // Thread resolution stays outside the digest (DESIGN.md §6).
        let threaded = Market::new(
            WtpMatrix::from_rows(vec![vec![12.0, 4.0], vec![8.0, 2.0], vec![5.0, 11.0]]),
            Params::default().with_theta(-0.05).with_threads(crate::params::Threads::Fixed(7)),
        );
        assert_eq!(m.fingerprint(), threaded.fingerprint());
    }

    #[test]
    fn view_fingerprint_equals_rebuilt_market() {
        let m = table1();
        let v = m.view(&[1, 2]);
        let rebuilt = Market::new(
            WtpMatrix::from_rows(vec![vec![8.0, 2.0], vec![5.0, 11.0]]),
            Params::default().with_theta(-0.05),
        );
        assert_eq!(v.fingerprint(), rebuilt.fingerprint());
        assert_ne!(v.fingerprint(), m.fingerprint());
    }

    #[test]
    fn configurator_runs_unchanged_on_a_view() {
        use crate::algorithms::{Components, Configurator};
        let m = table1();
        let v = m.view(&[0, 2]);
        // Deref coercion: a &MarketView is a &Market to any configurator.
        let out = Components::optimal().run(&v);
        // u1 and u3 alone: item A sells at 12 or 5x2=10 → 12; B at 11 or 4
        // … optimal per-item prices over {12, 5} and {4, 11}.
        assert!((out.revenue - (12.0 + 11.0)).abs() < 1e-9);
    }
}
