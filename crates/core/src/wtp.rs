//! The willingness-to-pay matrix `W` and the ratings→WTP conversion.
//!
//! Storage is a **flat dual-CSR arena** (`DESIGN.md` §7): one contiguous
//! `indptr`/`indices`/`values` triple per orientation (item-major columns
//! and user-major rows), built once from `(user, item, wtp)` triples by
//! [`CsrBuilder`] and shared behind an [`std::sync::Arc`]. It is the only
//! representation: a per-cohort sub-market ([`crate::market::Market::view`])
//! and a churned snapshot ([`crate::marketlog::MarketLog::snapshot`]) are
//! each a fresh arena, built by pushing their rows in ascending
//! `(user, item)` order.
//!
//! Iteration order over a column (ascending user) and a row (ascending
//! item), the total, and the fingerprint are therefore the builder's own
//! output for the content, whatever path produced it — which is what
//! preserves the bit-identical determinism contract of `DESIGN.md` §6
//! across sub-market solves, and what makes a churned snapshot solve
//! bit-identically to a cold rebuild ([`WtpMatrix::compact`]).

use std::sync::{Arc, OnceLock};

/// One CSR orientation: entries of major index `k` live in
/// `indices[indptr[k]..indptr[k+1]]` / `values[..]`, minor ids ascending.
#[derive(Debug, Clone, PartialEq)]
struct CsrHalf {
    indptr: Vec<usize>,
    indices: Vec<u32>,
    values: Vec<f64>,
}

impl CsrHalf {
    fn slice(&self, major: usize) -> SparseSlice<'_> {
        let (lo, hi) = (self.indptr[major], self.indptr[major + 1]);
        SparseSlice { ids: &self.indices[lo..hi], values: &self.values[lo..hi] }
    }
}

/// The immutable dual-CSR arena: both orientations over one entry set.
#[derive(Debug)]
struct WtpStore {
    n_users: usize,
    n_items: usize,
    /// Item-major: per item, the (user, wtp) entries sorted by user.
    cols: CsrHalf,
    /// User-major: per user, the (item, wtp) entries sorted by item.
    rows: CsrHalf,
    /// Σ of all entries — the upper bound of revenue and the denominator of
    /// the revenue-coverage metric (§6.1.2).
    total_wtp: f64,
    /// Listed per-item prices when constructed from ratings data (used by
    /// the "Amazon's pricing" baseline of Table 2).
    listed_prices: Option<Vec<f64>>,
    /// Lazily computed content fingerprint of the whole arena
    /// ([`WtpMatrix::fingerprint`]).
    fingerprint: OnceLock<u64>,
}

/// A borrowed sparse vector: parallel id/value slices, ids strictly
/// ascending. The lending type of [`WtpMatrix::col`] / [`WtpMatrix::row`].
#[derive(Debug, Clone, Copy)]
pub struct SparseSlice<'a> {
    /// Minor ids (users of a column, items of a row), ascending.
    pub ids: &'a [u32],
    /// WTP entries, parallel to `ids`.
    pub values: &'a [f64],
}

impl<'a> SparseSlice<'a> {
    /// Number of stored entries.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// True when no entries are stored.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// Iterate `(id, wtp)` pairs in ascending id order.
    pub fn iter(&self) -> impl Iterator<Item = (u32, f64)> + 'a {
        self.ids.iter().copied().zip(self.values.iter().copied())
    }

    /// Stored value at `id`, `0.0` if absent (binary search).
    pub fn get(&self, id: u32) -> f64 {
        self.ids.binary_search(&id).map(|k| self.values[k]).unwrap_or(0.0)
    }
}

impl<'a> IntoIterator for SparseSlice<'a> {
    type Item = (u32, f64);
    type IntoIter = std::iter::Zip<
        std::iter::Copied<std::slice::Iter<'a, u32>>,
        std::iter::Copied<std::slice::Iter<'a, f64>>,
    >;

    fn into_iter(self) -> Self::IntoIter {
        self.ids.iter().copied().zip(self.values.iter().copied())
    }
}

/// Sparse `M × N` willingness-to-pay matrix over a shared dual-CSR arena.
/// Zero entries (consumer has no interest in the item) are not stored; both
/// the item-major and the user-major orientation are kept because the
/// algorithms need both. Cloning is cheap (the arena is shared).
#[derive(Debug, Clone)]
pub struct WtpMatrix {
    store: Arc<WtpStore>,
}

/// Logical equality: same dimensions, same stored entries (compared
/// column by column, so separately built arenas with identical content
/// compare equal), and same listed prices per item.
impl PartialEq for WtpMatrix {
    fn eq(&self, other: &Self) -> bool {
        if self.n_users() != other.n_users() || self.n_items() != other.n_items() {
            return false;
        }
        (0..self.n_items() as u32).all(|i| {
            let (a, b) = (self.col(i), other.col(i));
            a.ids == b.ids && a.values == b.values && self.listed_price(i) == other.listed_price(i)
        })
    }
}

/// Streaming builder for the dual-CSR arena: push `(user, item, wtp)`
/// triples (any order), then [`CsrBuilder::finish`]. Duplicate
/// `(user, item)` pairs are rejected here with a clear panic naming the
/// offending pair.
///
/// While pushes arrive strictly ascending in `(user, item)` — as every
/// `RatingsData` stream, churn snapshot, cohort sub-market and
/// [`WtpMatrix::compact`] replay does —
/// each entry is appended straight to the finished rows (12 B per entry),
/// and a repeat of the previous pair panics on the spot. The first push
/// below its predecessor **spills**: the rows written so far are unpacked
/// into a `(user, item, wtp)` triple buffer (16 B per entry), and every
/// later push lands there too; `finish` then pays one global sort and an
/// adjacent-duplicate scan before it refills the rows. Either way both
/// fronts end in one back half (column scatter from the rows in user
/// order, total summed in row order), so the arena's bits do not depend
/// on arrival order.
#[derive(Debug)]
pub struct CsrBuilder {
    n_users: usize,
    n_items: usize,
    /// Entries per user at `row_indptr[u + 1]` (prefix-summed by `finish`).
    row_indptr: Vec<usize>,
    /// Entries per item at `col_indptr[i + 1]` (prefix-summed by `finish`).
    col_indptr: Vec<usize>,
    /// The rows in arrival order: final while pushes ascend, empty after a
    /// spill until `finish` refills them from the sorted triples.
    row_indices: Vec<u32>,
    row_values: Vec<f64>,
    /// `(user << 32) | item` of the previous push (ascending front only).
    last: Option<u64>,
    /// Every entry so far, once a push arrived out of order.
    spill: Option<Vec<(u32, u32, f64)>>,
    listed_prices: Option<Vec<f64>>,
}

impl CsrBuilder {
    /// Builder for an `n_users × n_items` matrix.
    pub fn new(n_users: usize, n_items: usize) -> Self {
        CsrBuilder {
            n_users,
            n_items,
            row_indptr: vec![0; n_users + 1],
            col_indptr: vec![0; n_items + 1],
            row_indices: Vec::new(),
            row_values: Vec::new(),
            last: None,
            spill: None,
            listed_prices: None,
        }
    }

    /// Pre-size the entry buffer (the rows, or the triples after a spill).
    pub fn reserve(&mut self, nnz: usize) {
        match &mut self.spill {
            Some(triples) => triples.reserve(nnz),
            None => {
                self.row_indices.reserve(nnz);
                self.row_values.reserve(nnz);
            }
        }
    }

    /// Attach listed per-item prices (one per item).
    pub fn with_listed_prices(mut self, prices: Vec<f64>) -> Self {
        assert_eq!(prices.len(), self.n_items, "one listed price per item");
        self.listed_prices = Some(prices);
        self
    }

    /// Add one entry. Panics on out-of-range ids or a non-finite /
    /// non-positive WTP — this is the single ingestion point of the whole
    /// store, so a NaN can never reach the pricing hot paths, and the
    /// error names the offending `(user, item)` pair. A repeat of the
    /// previous pair panics here; other duplicates are caught by `finish`.
    #[inline]
    pub fn push(&mut self, user: u32, item: u32, wtp: f64) {
        assert!((user as usize) < self.n_users, "user {user} out of range");
        assert!((item as usize) < self.n_items, "item {item} out of range");
        assert!(
            wtp.is_finite() && wtp > 0.0,
            "WTP for (user {user}, item {item}) must be finite and positive, got {wtp}"
        );
        let key = (u64::from(user) << 32) | u64::from(item);
        if self.spill.is_none() && self.last.is_none_or(|prev| key > prev) {
            self.last = Some(key);
            self.row_indices.push(item);
            self.row_values.push(wtp);
        } else {
            self.push_unordered(user, item, wtp, key);
        }
        self.row_indptr[user as usize + 1] += 1;
        self.col_indptr[item as usize + 1] += 1;
    }

    /// A push off the ascending front: a repeat of the previous pair
    /// panics, the first push below it spills, and every push after a
    /// spill lands in the triple buffer.
    #[cold]
    fn push_unordered(&mut self, user: u32, item: u32, wtp: f64, key: u64) {
        if self.spill.is_none() {
            if self.last == Some(key) {
                duplicate(user, item);
            }
            self.spill_rows();
        }
        self.spill.as_mut().expect("spilled").push((user, item, wtp));
    }

    /// Leave the ascending front: unpack the rows written so far into the
    /// triple buffer, recovering each entry's user from the row counts.
    fn spill_rows(&mut self) {
        let indices = std::mem::take(&mut self.row_indices);
        let values = std::mem::take(&mut self.row_values);
        let mut triples = Vec::with_capacity(indices.capacity().max(indices.len() + 1));
        let mut entries = indices.into_iter().zip(values);
        for (u, &count) in self.row_indptr[1..].iter().enumerate() {
            triples.extend(entries.by_ref().take(count).map(|(i, w)| (u as u32, i, w)));
        }
        self.spill = Some(triples);
    }

    /// Assemble both CSR orientations (sorting and checking spilled
    /// triples for duplicates first).
    pub fn finish(self) -> WtpMatrix {
        let CsrBuilder {
            n_users,
            n_items,
            mut row_indptr,
            mut col_indptr,
            mut row_indices,
            mut row_values,
            spill,
            listed_prices,
            ..
        } = self;
        if let Some(mut triples) = spill {
            // One global (user, item) sort gives the rows their order; the
            // per-user and per-item counts are order-free and already kept.
            triples.sort_unstable_by_key(|&(u, i, _)| (u, i));
            for w in triples.windows(2) {
                if (w[0].0, w[0].1) == (w[1].0, w[1].1) {
                    duplicate(w[1].0, w[1].1);
                }
            }
            row_indices = triples.iter().map(|t| t.1).collect();
            row_values = triples.iter().map(|t| t.2).collect();
        }
        let nnz = row_indices.len();
        for k in 0..n_users {
            row_indptr[k + 1] += row_indptr[k];
        }
        for k in 0..n_items {
            col_indptr[k + 1] += col_indptr[k];
        }
        // Columns: counting scatter from the rows in user order, so each
        // column receives its users in ascending order. The same walk sums
        // the total in (user, item) order.
        let mut total = 0.0;
        let mut cursor = col_indptr[..n_items].to_vec();
        let mut col_indices = vec![0u32; nnz];
        let mut col_values = vec![0f64; nnz];
        for u in 0..n_users {
            let (lo, hi) = (row_indptr[u], row_indptr[u + 1]);
            for (&i, &w) in row_indices[lo..hi].iter().zip(&row_values[lo..hi]) {
                let slot = &mut cursor[i as usize];
                col_indices[*slot] = u as u32;
                col_values[*slot] = w;
                *slot += 1;
                total += w;
            }
        }

        WtpMatrix {
            store: Arc::new(WtpStore {
                n_users,
                n_items,
                cols: CsrHalf { indptr: col_indptr, indices: col_indices, values: col_values },
                rows: CsrHalf { indptr: row_indptr, indices: row_indices, values: row_values },
                total_wtp: total,
                listed_prices,
                fingerprint: OnceLock::new(),
            }),
        }
    }
}

/// The builder's one duplicate-pair panic.
fn duplicate(user: u32, item: u32) -> ! {
    panic!("duplicate (user, item) entry: user {user}, item {item}")
}

impl WtpMatrix {
    /// Streaming entry point: push triples, then finish.
    pub fn builder(n_users: usize, n_items: usize) -> CsrBuilder {
        CsrBuilder::new(n_users, n_items)
    }

    /// Build from dense rows (`rows[u][i] = w_{u,i}`); all rows must share
    /// one length. Entries must be finite and ≥ 0; zeros are dropped.
    pub fn from_rows(dense: Vec<Vec<f64>>) -> Self {
        let n_users = dense.len();
        let n_items = dense.first().map_or(0, Vec::len);
        let mut b = Self::builder(n_users, n_items);
        for (u, row) in dense.iter().enumerate() {
            assert_eq!(row.len(), n_items, "ragged WTP rows");
            for (i, &w) in row.iter().enumerate() {
                assert!(
                    w.is_finite() && w >= 0.0,
                    "WTP for (user {u}, item {i}) must be finite and >= 0, got {w}"
                );
                if w > 0.0 {
                    b.push(u as u32, i as u32, w);
                }
            }
        }
        b.finish()
    }

    /// Build from sparse `(user, item, wtp)` triples.
    pub fn from_triples(
        n_users: usize,
        n_items: usize,
        triples: Vec<(u32, u32, f64)>,
        listed_prices: Option<Vec<f64>>,
    ) -> Self {
        let mut b = Self::builder(n_users, n_items);
        if let Some(p) = listed_prices {
            b = b.with_listed_prices(p);
        }
        b.reserve(triples.len());
        for (u, i, w) in triples {
            b.push(u, i, w);
        }
        b.finish()
    }

    /// The paper's ratings→WTP map (§6.1.1): a consumer who rated `r` stars
    /// (of `r_max = 5`) an item listed at price `p` is willing to pay
    /// `(r / r_max) · λ · p`. Ratings stream straight into the CSR builder.
    ///
    /// `ratings` yields `(user, item, stars 1..=5)`.
    pub fn from_ratings(
        n_users: usize,
        n_items: usize,
        ratings: impl IntoIterator<Item = (u32, u32, u8)>,
        prices: &[f64],
        lambda: f64,
    ) -> Self {
        assert_eq!(prices.len(), n_items, "one listed price per item");
        assert!(lambda >= 1.0, "lambda must be >= 1");
        const R_MAX: f64 = 5.0;
        let ratings = ratings.into_iter();
        let mut b = Self::builder(n_users, n_items).with_listed_prices(prices.to_vec());
        b.reserve(ratings.size_hint().0);
        for (u, i, stars) in ratings {
            assert!((1..=5).contains(&stars), "stars {stars} out of 1..=5");
            b.push(u, i, (stars as f64 / R_MAX) * lambda * prices[i as usize]);
        }
        b.finish()
    }

    /// Number of consumers `M`.
    pub fn n_users(&self) -> usize {
        self.store.n_users
    }

    /// Number of items `N`.
    pub fn n_items(&self) -> usize {
        self.store.n_items
    }

    /// Non-zero entries of item `i`'s column as parallel `(users, wtps)`
    /// slices, users ascending; zero-copy into the arena.
    pub fn col(&self, item: u32) -> SparseSlice<'_> {
        self.store.cols.slice(item as usize)
    }

    /// Non-zero entries of user `u`'s row as parallel `(items, wtps)`
    /// slices, items ascending; zero-copy into the arena.
    pub fn row(&self, user: u32) -> SparseSlice<'_> {
        self.store.rows.slice(user as usize)
    }

    /// Σ of the stored WTP entries (the coverage denominator), summed by
    /// the builder in `(user, item)` order.
    pub fn total_wtp(&self) -> f64 {
        self.store.total_wtp
    }

    /// Listed price of an item, if the matrix came from ratings data.
    pub fn listed_price(&self, item: u32) -> Option<f64> {
        self.store.listed_prices.as_ref().map(|p| p[item as usize])
    }

    /// A single entry (zero if not stored).
    pub fn get(&self, user: u32, item: u32) -> f64 {
        self.col(item).get(user)
    }

    /// Number of stored (non-zero) entries.
    pub fn nnz(&self) -> usize {
        self.store.cols.indices.len()
    }

    /// True when the matrix carries listed per-item prices.
    pub fn has_listed_prices(&self) -> bool {
        self.store.listed_prices.is_some()
    }

    /// Stable 64-bit **content fingerprint** of this matrix: dimensions,
    /// every stored `(user, item, wtp)` entry (ids and value bits, in
    /// column iteration order), and the listed prices. Logically equal
    /// matrices fingerprint equal — a cohort sub-market or a churned
    /// snapshot shares one digest with a matrix built cold from the same
    /// triples — which is what lets the sweep engine's solve cache
    /// (`DESIGN.md` §8) recognize repeated sub-markets across sweep axes.
    /// Computed once per arena and cached (`OnceLock`).
    pub fn fingerprint(&self) -> u64 {
        *self.store.fingerprint.get_or_init(|| {
            let mut fp = crate::fingerprint::Fingerprinter::new("wtp");
            fp.write_usize(self.n_users());
            fp.write_usize(self.n_items());
            for i in 0..self.n_items() as u32 {
                let col = self.col(i);
                fp.write_usize(col.len());
                for (u, w) in col.iter() {
                    fp.write_u32(u);
                    fp.write_f64(w);
                }
                match self.listed_price(i) {
                    Some(p) => {
                        fp.write_u32(1);
                        fp.write_f64(p);
                    }
                    None => fp.write_u32(0),
                }
            }
            fp.finish()
        })
    }

    /// Rebuild a fresh arena holding this matrix's exact content — the
    /// "cold rebuild" oracle the churn parity checks compare against.
    /// Every read, total, and fingerprint of the result is bit-identical
    /// to `self`'s.
    pub fn compact(&self) -> WtpMatrix {
        let all: Vec<u32> = (0..self.n_users() as u32).collect();
        self.select_users(&all)
    }

    /// A fresh arena over every item and the rows of `users` (strictly
    /// ascending ids of `self`), renumbered densely in that order. The
    /// rows are pushed through [`CsrBuilder`]'s ascending front, so the
    /// result is bit-identical to a matrix built from the kept triples.
    pub(crate) fn select_users(&self, users: &[u32]) -> WtpMatrix {
        let mut b = CsrBuilder::new(users.len(), self.n_items());
        if let Some(p) = &self.store.listed_prices {
            b = b.with_listed_prices(p.clone());
        }
        b.reserve(users.iter().map(|&u| self.row(u).len()).sum());
        for (local, &u) in users.iter().enumerate() {
            for (i, w) in self.row(u).iter() {
                b.push(local as u32, i, w);
            }
        }
        b.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_rows_basic() {
        let w = WtpMatrix::from_rows(vec![vec![12.0, 4.0], vec![8.0, 2.0], vec![5.0, 11.0]]);
        assert_eq!(w.n_users(), 3);
        assert_eq!(w.n_items(), 2);
        assert_eq!(w.get(0, 0), 12.0);
        assert_eq!(w.get(2, 1), 11.0);
        assert_eq!(w.total_wtp(), 42.0);
        assert_eq!(w.nnz(), 6);
        assert_eq!(w.col(0).len(), 3);
        assert_eq!(w.row(1).ids, &[0, 1]);
        assert_eq!(w.row(1).values, &[8.0, 2.0]);
        let pairs: Vec<(u32, f64)> = w.row(1).iter().collect();
        assert_eq!(pairs, vec![(0, 8.0), (1, 2.0)]);
    }

    #[test]
    fn zeros_are_dropped() {
        let w = WtpMatrix::from_rows(vec![vec![0.0, 3.0]]);
        assert_eq!(w.nnz(), 1);
        assert_eq!(w.get(0, 0), 0.0);
    }

    #[test]
    fn ratings_conversion_matches_paper_example() {
        // λ=1.25, price $10: stars 5,4,3,2,1 → 12.50, 10, 7.50, 5, 2.50.
        let prices = vec![10.0];
        let ratings = vec![(0u32, 0u32, 5u8), (1, 0, 4), (2, 0, 3), (3, 0, 2), (4, 0, 1)];
        let w = WtpMatrix::from_ratings(5, 1, ratings, &prices, 1.25);
        assert!((w.get(0, 0) - 12.5).abs() < 1e-12);
        assert!((w.get(1, 0) - 10.0).abs() < 1e-12);
        assert!((w.get(2, 0) - 7.5).abs() < 1e-12);
        assert!((w.get(3, 0) - 5.0).abs() < 1e-12);
        assert!((w.get(4, 0) - 2.5).abs() < 1e-12);
        assert_eq!(w.listed_price(0), Some(10.0));
    }

    #[test]
    #[should_panic(expected = "duplicate")]
    fn rejects_duplicate_entries() {
        WtpMatrix::from_triples(1, 1, vec![(0, 0, 1.0), (0, 0, 2.0)], None);
    }

    #[test]
    #[should_panic(expected = "duplicate (user, item) entry: user 3, item 7")]
    fn duplicate_panic_names_the_pair() {
        let mut b = WtpMatrix::builder(5, 9);
        b.push(3, 7, 1.0);
        b.push(2, 7, 1.0);
        b.push(3, 7, 2.5);
        b.finish();
    }

    #[test]
    #[should_panic(expected = "duplicate (user, item) entry: user 3, item 7")]
    fn duplicate_in_a_sorted_stream_panics_at_the_push() {
        let mut b = WtpMatrix::builder(5, 9);
        b.push(0, 8, 1.0);
        b.push(3, 7, 1.0);
        b.push(3, 7, 2.5);
    }

    #[test]
    #[should_panic(expected = "duplicate (user, item) entry: user 1, item 2")]
    fn duplicate_after_a_spill_panics_naming_the_pair() {
        // Both copies arrive after the spill; neither is the previous push.
        let mut b = WtpMatrix::builder(4, 4);
        b.push(2, 0, 1.0);
        b.push(0, 3, 1.0);
        b.push(1, 2, 1.5);
        b.push(3, 3, 1.0);
        b.push(1, 2, 2.0);
        b.finish();
    }

    #[test]
    #[should_panic(expected = "WTP for (user 0, item 1) must be finite and positive, got 0")]
    fn zero_wtp_rejected_in_a_sorted_stream() {
        let mut b = WtpMatrix::builder(1, 2);
        b.push(0, 0, 1.0);
        b.push(0, 1, 0.0);
    }

    #[test]
    #[should_panic(expected = "WTP for (user 0, item 1) must be finite and positive, got -2")]
    fn negative_wtp_rejected_after_a_spill() {
        let mut b = WtpMatrix::builder(2, 2);
        b.push(1, 0, 1.0);
        b.push(0, 0, 1.0);
        b.push(0, 1, -2.0);
    }

    #[test]
    fn spilled_build_equals_sorted_build_bit_for_bit() {
        // Non-dyadic values: any change of summation order would show in
        // the total's low bits.
        let sorted: Vec<(u32, u32, f64)> = (0..5u32)
            .flat_map(|u| (0..4u32).filter(move |i| (u + i) % 3 != 1).map(move |i| (u, i, 0.1)))
            .enumerate()
            .map(|(k, (u, i, w))| (u, i, w * (k as f64 + 1.3)))
            .collect();
        let mut late = sorted.clone();
        let early = late.remove(2);
        late.push(early);
        let a = WtpMatrix::from_triples(5, 4, sorted, None);
        let b = WtpMatrix::from_triples(5, 4, late, None);
        assert_eq!(a, b);
        assert_eq!(a.total_wtp().to_bits(), b.total_wtp().to_bits());
        assert_eq!(a.fingerprint(), b.fingerprint());
        for u in 0..5 {
            assert_eq!(a.row(u).ids, b.row(u).ids);
            assert_eq!(a.row(u).values, b.row(u).values);
        }
    }

    #[test]
    #[should_panic(expected = "WTP for (user 4, item 2) must be finite and positive, got NaN")]
    fn nan_wtp_rejected_at_ingestion_names_the_pair() {
        // Regression: a NaN slipping past ingestion used to survive all
        // the way to the pricing sort and panic the solve from deep inside
        // `optimize_exact_step`. The builder is the single ingestion point
        // and must reject it immediately, naming the offending pair.
        let mut b = WtpMatrix::builder(6, 4);
        b.push(1, 0, 3.0);
        b.push(4, 2, f64::NAN);
    }

    #[test]
    #[should_panic(expected = "WTP for (user 0, item 1) must be finite and positive")]
    fn infinite_wtp_rejected_at_ingestion() {
        let mut b = WtpMatrix::builder(1, 2);
        b.push(0, 1, f64::INFINITY);
    }

    #[test]
    #[should_panic(expected = "ragged")]
    fn rejects_ragged_rows() {
        WtpMatrix::from_rows(vec![vec![1.0], vec![1.0, 2.0]]);
    }

    #[test]
    fn empty_matrix() {
        let w = WtpMatrix::from_rows(vec![]);
        assert_eq!(w.n_users(), 0);
        assert_eq!(w.total_wtp(), 0.0);
    }

    #[test]
    fn builder_order_does_not_matter() {
        let a = WtpMatrix::from_triples(
            3,
            2,
            vec![(2, 1, 5.0), (0, 0, 1.0), (1, 1, 2.0), (0, 1, 3.0)],
            None,
        );
        let b = WtpMatrix::from_triples(
            3,
            2,
            vec![(0, 0, 1.0), (0, 1, 3.0), (1, 1, 2.0), (2, 1, 5.0)],
            None,
        );
        assert_eq!(a, b);
        assert_eq!(a.col(1).ids, &[0, 1, 2]);
    }

    #[test]
    fn restrict_users_remaps_columns() {
        let w = WtpMatrix::from_rows(vec![vec![12.0, 4.0], vec![8.0, 2.0], vec![5.0, 11.0]]);
        let v = w.select_users(&[0, 2]);
        assert_eq!(v.n_users(), 2);
        assert_eq!(v.col(0).ids, &[0, 1]); // local ids for users 0, 2
        assert_eq!(v.col(0).values, &[12.0, 5.0]);
        assert_eq!(v.row(1).values, &[5.0, 11.0]); // local user 1 = user 2
        assert_eq!(v.total_wtp(), 32.0);
        assert_eq!(v.nnz(), 4);
    }

    #[test]
    fn view_equals_rebuilt_matrix() {
        let w = WtpMatrix::from_rows(vec![
            vec![1.0, 0.0, 3.0, 4.0],
            vec![0.0, 5.0, 6.0, 0.0],
            vec![7.0, 8.0, 0.0, 9.0],
        ]);
        let v = w.select_users(&[0, 2]);
        let rebuilt =
            WtpMatrix::from_rows(vec![vec![1.0, 0.0, 3.0, 4.0], vec![7.0, 8.0, 0.0, 9.0]]);
        assert_eq!(v, rebuilt);
        assert_eq!(v.total_wtp(), rebuilt.total_wtp());
        // The cold-rebuild oracle is identity on reads, totals and digests.
        let c = w.compact();
        assert_eq!(c, w);
        assert_eq!(c.total_wtp().to_bits(), w.total_wtp().to_bits());
        assert_eq!(c.fingerprint(), w.fingerprint());
    }

    #[test]
    fn view_total_wtp_bit_identical_to_rebuild() {
        // Non-dyadic ratings-derived values (λ·stars/5·$x.99): any
        // accumulation-order difference between the sub-market's total and
        // a cold build's shows up as 1-ulp drift.
        let ratings: Vec<(u32, u32, u8)> = (0..6u32)
            .flat_map(|u| {
                (0..4u32)
                    .filter(move |i| (u + i) % 3 != 0)
                    .map(move |i| (u, i, ((u + i) % 5 + 1) as u8))
            })
            .collect();
        let prices = [9.99, 14.99, 3.33, 7.77];
        let w = WtpMatrix::from_ratings(6, 4, ratings.clone(), &prices, 1.1);
        let v = w.select_users(&[0, 2, 5]);
        let rebuilt = WtpMatrix::from_ratings(
            3,
            4,
            ratings.iter().filter_map(|&(u, i, s)| {
                let lu = [0u32, 2, 5].iter().position(|&x| x == u)?;
                Some((lu as u32, i, s))
            }),
            &prices,
            1.1,
        );
        assert_eq!(v.total_wtp().to_bits(), rebuilt.total_wtp().to_bits());
        assert_eq!(v, rebuilt);
    }

    #[test]
    fn equality_includes_listed_prices() {
        let triples = vec![(0u32, 0u32, 5.0)];
        let plain = WtpMatrix::from_triples(1, 1, triples.clone(), None);
        let priced = WtpMatrix::from_triples(1, 1, triples.clone(), Some(vec![9.99]));
        let repriced = WtpMatrix::from_triples(1, 1, triples, Some(vec![4.99]));
        assert_ne!(plain, priced);
        assert_ne!(priced, repriced);
        assert_eq!(priced.clone(), priced);
    }

    #[test]
    fn fingerprint_is_content_based() {
        let a = WtpMatrix::from_rows(vec![vec![12.0, 4.0], vec![8.0, 2.0], vec![5.0, 11.0]]);
        let b = WtpMatrix::from_rows(vec![vec![12.0, 4.0], vec![8.0, 2.0], vec![5.0, 11.0]]);
        // Separately built arenas with identical content agree.
        assert_eq!(a.fingerprint(), b.fingerprint());
        // Any entry change shows.
        let c = WtpMatrix::from_rows(vec![vec![12.0, 4.0], vec![8.0, 2.0], vec![5.0, 11.5]]);
        assert_ne!(a.fingerprint(), c.fingerprint());
        // Dimensions matter even when the stored entries coincide.
        let d = WtpMatrix::from_triples(4, 2, vec![(0, 0, 12.0)], None);
        let e = WtpMatrix::from_triples(5, 2, vec![(0, 0, 12.0)], None);
        assert_ne!(d.fingerprint(), e.fingerprint());
    }

    #[test]
    fn view_fingerprint_equals_rebuilt_matrix() {
        let w = WtpMatrix::from_rows(vec![
            vec![1.0, 0.0, 3.0, 4.0],
            vec![0.0, 5.0, 6.0, 0.0],
            vec![7.0, 8.0, 0.0, 9.0],
        ]);
        let v = w.select_users(&[0, 2]);
        let rebuilt =
            WtpMatrix::from_rows(vec![vec![1.0, 0.0, 3.0, 4.0], vec![7.0, 8.0, 0.0, 9.0]]);
        assert_eq!(v.fingerprint(), rebuilt.fingerprint());
        // ... and differs from both the whole matrix and another subset.
        assert_ne!(v.fingerprint(), w.fingerprint());
        assert_ne!(v.fingerprint(), w.select_users(&[0, 1]).fingerprint());
    }

    #[test]
    fn fingerprint_includes_listed_prices() {
        let triples = vec![(0u32, 0u32, 5.0)];
        let plain = WtpMatrix::from_triples(1, 1, triples.clone(), None);
        let priced = WtpMatrix::from_triples(1, 1, triples.clone(), Some(vec![9.99]));
        let repriced = WtpMatrix::from_triples(1, 1, triples, Some(vec![4.99]));
        assert_ne!(plain.fingerprint(), priced.fingerprint());
        assert_ne!(priced.fingerprint(), repriced.fingerprint());
    }

    #[test]
    fn view_listed_prices_remap() {
        let w = WtpMatrix::from_ratings(
            2,
            3,
            vec![(0u32, 0u32, 5u8), (0, 1, 4), (1, 2, 3)],
            &[10.0, 20.0, 30.0],
            1.25,
        );
        // A user subset keeps every item, so every listed price carries over.
        let v = w.select_users(&[1]);
        assert_eq!(v.listed_price(0), Some(10.0));
        assert_eq!(v.listed_price(2), Some(30.0));
        assert_eq!(v.row(0).ids, &[2]);
    }
}
