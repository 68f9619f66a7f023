//! The willingness-to-pay matrix `W` and the ratings→WTP conversion.
//!
//! Storage is a **flat dual-CSR arena** (`DESIGN.md` §7): one contiguous
//! `indptr`/`indices`/`values` triple per orientation (item-major columns
//! and user-major rows), built once from `(user, item, wtp)` triples and
//! shared behind an [`std::sync::Arc`]. A [`WtpMatrix`] stacks up to three
//! layers over that arena (`DESIGN.md` §10):
//!
//! 1. the immutable **arena** itself;
//! 2. an optional **delta overlay** ([`crate::marketlog::MarketLog`]'s
//!    snapshot of net churn): touched rows/columns carry merged slices,
//!    untouched slices read the arena zero-copy;
//! 3. an optional **zero-copy view** restricting the (possibly churned)
//!    base to an item and/or user subset with dense remapped ids;
//!    restricted slices are materialized lazily, once, on first access.
//!
//! Iteration order over a column (ascending user) and a row (ascending
//! item) is identical for the arena, every overlay, and every view, which
//! is what preserves the bit-identical determinism contract of `DESIGN.md`
//! §6 across sub-market solves — and what makes a churned snapshot solve
//! bit-identically to a cold rebuild ([`WtpMatrix::compact`]).

use std::sync::{Arc, OnceLock};

/// The shared empty slice (a column/row of an added-but-unrated id).
const EMPTY_SLICE: SparseSlice<'static> = SparseSlice { ids: &[], values: &[] };

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

/// Net churn layered over one arena (`DESIGN.md` §10): dimensions may have
/// grown, touched rows/columns carry fully merged `(ids, values)` slices,
/// and every untouched slice still reads the arena zero-copy. Built by
/// [`crate::marketlog::MarketLog::snapshot`]; immutable once built (the
/// log accumulates further churn and snapshots again).
#[derive(Debug)]
struct DeltaOverlay {
    /// Post-churn dimensions, ≥ the arena's (ids are stable; axes only
    /// grow — retirement tombstones, it never renumbers).
    n_users: usize,
    n_items: usize,
    /// User id → index into `rows` (`u32::MAX` = untouched, read arena).
    /// Every id ≥ the arena's user count is touched by construction.
    row_rank: Vec<u32>,
    /// Merged `(items, wtps)` of each touched row, items ascending.
    rows: Vec<(Vec<u32>, Vec<f64>)>,
    /// Item id → index into `cols` (`u32::MAX` = untouched).
    col_rank: Vec<u32>,
    /// Merged `(users, wtps)` of each touched column, users ascending.
    cols: Vec<(Vec<u32>, Vec<f64>)>,
    /// Σ over all post-churn entries, accumulated in (user, item) order —
    /// bit-identical to [`CsrBuilder::finish`] on the rebuilt triples.
    total_wtp: f64,
    /// Stored entries after churn.
    nnz: usize,
    /// Listed prices of the churned matrix (present iff the base has
    /// them; covers grown items too).
    listed_prices: Option<Vec<f64>>,
    /// Lazily computed content fingerprint ([`WtpMatrix::fingerprint`]).
    fingerprint: OnceLock<u64>,
}

/// A restriction of the arena to an item and/or user subset.
///
/// Slices that survive unfiltered stay zero-copy (a column of a
/// user-unrestricted view is the arena's column slice verbatim); slices
/// that need filtering or id remapping are materialized lazily, once, on
/// first access and cached here.
#[derive(Debug)]
struct ViewState {
    /// Local item id → arena item id, strictly ascending.
    item_map: Vec<u32>,
    /// Local user id → arena user id, strictly ascending. Empty sentinel
    /// never occurs: a user restriction always carries the kept ids.
    user_map: Option<Vec<u32>>,
    /// Arena user id → local user id (`u32::MAX` = excluded). Present iff
    /// `user_map` is.
    user_rank: Vec<u32>,
    /// Arena item id → local item id (`u32::MAX` = excluded). Present iff
    /// the item set is restricted.
    item_rank: Vec<u32>,
    /// True when `item_map` is a proper subset / remap of the arena items.
    items_restricted: bool,
    /// Lazily materialized filtered columns (only when users restricted).
    lazy_cols: Vec<OnceLock<(Vec<u32>, Vec<f64>)>>,
    /// Lazily materialized filtered rows (only when items restricted).
    lazy_rows: Vec<OnceLock<(Vec<u32>, Vec<f64>)>>,
    /// Σ of the entries inside the restriction.
    total_wtp: f64,
    /// Lazily computed content fingerprint of the restriction
    /// ([`WtpMatrix::fingerprint`]).
    fingerprint: OnceLock<u64>,
}

/// Sparse `M × N` willingness-to-pay matrix over a shared dual-CSR arena.
/// Zero entries (consumer has no interest in the item) are not stored; both
/// the item-major and the user-major orientation are kept because the
/// algorithms need both. Cloning is cheap (the arena is shared),
/// [`WtpMatrix::restrict`] produces zero-copy sub-matrix views, and a
/// [`crate::marketlog::MarketLog`] snapshot layers a `DeltaOverlay` of
/// net churn between the arena and any view (`DESIGN.md` §10).
#[derive(Debug, Clone)]
pub struct WtpMatrix {
    store: Arc<WtpStore>,
    /// Net churn over the arena; `None` for a pristine arena. Always
    /// applied *before* `view` (a view restricts the churned base).
    delta: Option<Arc<DeltaOverlay>>,
    view: Option<Arc<ViewState>>,
}

/// Logical equality: same dimensions, same stored entries (compared
/// through the column views, so an arena and a view with identical
/// content compare equal), and same listed prices per item.
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
/// `RatingsData` stream and every [`WtpMatrix::compact`] replay does —
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
            delta: None,
            view: None,
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

    /// Consumer count of the (possibly churned) base under any view.
    fn base_n_users(&self) -> usize {
        self.delta.as_ref().map_or(self.store.n_users, |d| d.n_users)
    }

    /// Item count of the (possibly churned) base under any view.
    fn base_n_items(&self) -> usize {
        self.delta.as_ref().map_or(self.store.n_items, |d| d.n_items)
    }

    /// Column of the churned base in arena/base ids: the merged overlay
    /// slice when touched, the arena slice otherwise.
    fn base_col(&self, item: usize) -> SparseSlice<'_> {
        if let Some(d) = &self.delta {
            let rank = d.col_rank[item];
            if rank != u32::MAX {
                let (ids, values) = &d.cols[rank as usize];
                return SparseSlice { ids, values };
            }
            // Defensive: snapshot construction marks every beyond-arena id
            // touched, so an untouched grown id can only be empty.
            if item >= self.store.n_items {
                return EMPTY_SLICE;
            }
        }
        self.store.cols.slice(item)
    }

    /// Row of the churned base in arena/base ids (see [`Self::base_col`]).
    fn base_row(&self, user: usize) -> SparseSlice<'_> {
        if let Some(d) = &self.delta {
            let rank = d.row_rank[user];
            if rank != u32::MAX {
                let (ids, values) = &d.rows[rank as usize];
                return SparseSlice { ids, values };
            }
            if user >= self.store.n_users {
                return EMPTY_SLICE;
            }
        }
        self.store.rows.slice(user)
    }

    /// Listed price of a base-id item through the overlay, if priced.
    fn base_listed_price(&self, item: usize) -> Option<f64> {
        match &self.delta {
            Some(d) => d.listed_prices.as_ref().map(|p| p[item]),
            None => self.store.listed_prices.as_ref().map(|p| p[item]),
        }
    }

    /// Number of consumers `M` (of the view, if restricted).
    pub fn n_users(&self) -> usize {
        match &self.view {
            Some(v) => v.user_map.as_ref().map_or(self.base_n_users(), Vec::len),
            None => self.base_n_users(),
        }
    }

    /// Number of items `N` (of the view, if restricted).
    pub fn n_items(&self) -> usize {
        match &self.view {
            Some(v) => v.item_map.len(),
            None => self.base_n_items(),
        }
    }

    /// Non-zero entries of item `i`'s column as parallel `(users, wtps)`
    /// slices, users ascending. Zero-copy into the arena unless the view
    /// restricts users, in which case the filtered slice is materialized
    /// once and cached.
    pub fn col(&self, item: u32) -> SparseSlice<'_> {
        match &self.view {
            None => self.base_col(item as usize),
            Some(v) => {
                let arena_item = v.item_map[item as usize] as usize;
                if v.user_map.is_none() {
                    return self.base_col(arena_item);
                }
                let (ids, values) = v.lazy_cols[item as usize].get_or_init(|| {
                    let full = self.base_col(arena_item);
                    let mut ids = Vec::new();
                    let mut vals = Vec::new();
                    for (u, w) in full.iter() {
                        let local = v.user_rank[u as usize];
                        if local != u32::MAX {
                            ids.push(local);
                            vals.push(w);
                        }
                    }
                    (ids, vals)
                });
                SparseSlice { ids, values }
            }
        }
    }

    /// Non-zero entries of user `u`'s row as parallel `(items, wtps)`
    /// slices, items ascending. Zero-copy into the arena unless the view
    /// restricts items, in which case the filtered slice is materialized
    /// once and cached.
    pub fn row(&self, user: u32) -> SparseSlice<'_> {
        match &self.view {
            None => self.base_row(user as usize),
            Some(v) => {
                let arena_user = match &v.user_map {
                    Some(m) => m[user as usize] as usize,
                    None => user as usize,
                };
                if !v.items_restricted {
                    return self.base_row(arena_user);
                }
                let (ids, values) = v.lazy_rows[user as usize].get_or_init(|| {
                    let full = self.base_row(arena_user);
                    let mut ids = Vec::new();
                    let mut vals = Vec::new();
                    for (i, w) in full.iter() {
                        let local = v.item_rank[i as usize];
                        if local != u32::MAX {
                            ids.push(local);
                            vals.push(w);
                        }
                    }
                    (ids, vals)
                });
                SparseSlice { ids, values }
            }
        }
    }

    /// Σ of the stored WTP entries (the coverage denominator) — of the
    /// restriction when this matrix is a view.
    pub fn total_wtp(&self) -> f64 {
        match &self.view {
            Some(v) => v.total_wtp,
            None => self.delta.as_ref().map_or(self.store.total_wtp, |d| d.total_wtp),
        }
    }

    /// Listed price of an item, if the matrix came from ratings data.
    pub fn listed_price(&self, item: u32) -> Option<f64> {
        let arena_item = match &self.view {
            Some(v) => v.item_map[item as usize] as usize,
            None => item as usize,
        };
        self.base_listed_price(arena_item)
    }

    /// A single entry (zero if not stored).
    pub fn get(&self, user: u32, item: u32) -> f64 {
        self.col(item).get(user)
    }

    /// Number of stored (non-zero) entries. O(1) for the arena, O(N) touch
    /// of cached columns for a user-restricted view.
    pub fn nnz(&self) -> usize {
        match &self.view {
            None => self.delta.as_ref().map_or(self.store.cols.indices.len(), |d| d.nnz),
            Some(_) => (0..self.n_items() as u32).map(|i| self.col(i).len()).sum(),
        }
    }

    /// True when this matrix is a restriction of a larger arena.
    pub fn is_view(&self) -> bool {
        self.view.is_some()
    }

    /// True when a delta overlay is layered over the arena.
    pub fn has_delta(&self) -> bool {
        self.delta.is_some()
    }

    /// True when the matrix carries listed per-item prices (a base
    /// property: views and overlays pass it through).
    pub fn has_listed_prices(&self) -> bool {
        match &self.delta {
            Some(d) => d.listed_prices.is_some(),
            None => self.store.listed_prices.is_some(),
        }
    }

    /// Zero-copy restriction to an item subset and/or user subset (arena
    /// ids of `self`; `None` keeps the axis whole). Ids are remapped
    /// densely in ascending order of the original ids, so iteration order
    /// — hence every downstream result — matches a matrix rebuilt from the
    /// restricted triples bit for bit.
    ///
    /// Restricting a view composes: ids are interpreted in the view's
    /// coordinates and resolved back to the arena.
    pub fn restrict(&self, items: Option<&[u32]>, users: Option<&[u32]>) -> WtpMatrix {
        let resolve =
            |subset: Option<&[u32]>, bound: usize, map: &dyn Fn(u32) -> u32| -> Option<Vec<u32>> {
                subset.map(|s| {
                    let mut ids: Vec<u32> = s
                        .iter()
                        .map(|&x| {
                            assert!((x as usize) < bound, "subset id {x} out of range ({bound})");
                            map(x)
                        })
                        .collect();
                    ids.sort_unstable();
                    ids.dedup();
                    ids
                })
            };
        // Resolve the subset through the current view into arena ids.
        let (cur_items, cur_users): (Option<&[u32]>, Option<&[u32]>) = match &self.view {
            Some(v) => (Some(&v.item_map), v.user_map.as_deref()),
            None => (None, None),
        };
        let item_map: Vec<u32> = match resolve(items, self.n_items(), &|x| match cur_items {
            Some(m) => m[x as usize],
            None => x,
        }) {
            Some(m) => m,
            None => match cur_items {
                Some(m) => m.to_vec(),
                None => (0..self.base_n_items() as u32).collect(),
            },
        };
        let user_map: Option<Vec<u32>> =
            match resolve(users, self.n_users(), &|x| match cur_users {
                Some(m) => m[x as usize],
                None => x,
            }) {
                Some(m) => Some(m),
                None => cur_users.map(|m| m.to_vec()),
            };

        let items_restricted = item_map.len() != self.base_n_items()
            || item_map.iter().enumerate().any(|(k, &i)| k as u32 != i);
        let mut item_rank = vec![u32::MAX; self.base_n_items()];
        for (local, &arena) in item_map.iter().enumerate() {
            item_rank[arena as usize] = local as u32;
        }
        let mut user_rank = vec![u32::MAX; self.base_n_users()];
        match &user_map {
            Some(m) => {
                for (local, &arena) in m.iter().enumerate() {
                    user_rank[arena as usize] = local as u32;
                }
            }
            None => {
                for (u, r) in user_rank.iter_mut().enumerate() {
                    *r = u as u32;
                }
            }
        }

        // Σ WTP inside the restriction, accumulated in (user, item) order —
        // the exact order `CsrBuilder::finish` sums a matrix rebuilt from
        // the restricted triples, so the view's total (hence the coverage
        // metric) is bit-identical to the rebuilt market's, not just close.
        let mut total = 0.0;
        let mut add_row = |arena_user: usize| {
            let full = self.base_row(arena_user);
            if items_restricted {
                for (i, w) in full.iter() {
                    if item_rank[i as usize] != u32::MAX {
                        total += w;
                    }
                }
            } else {
                for &w in full.values {
                    total += w;
                }
            }
        };
        match &user_map {
            Some(m) => m.iter().for_each(|&u| add_row(u as usize)),
            None => (0..self.base_n_users()).for_each(&mut add_row),
        }

        let n_local_items = item_map.len();
        let n_local_users = user_map.as_ref().map_or(self.base_n_users(), Vec::len);
        WtpMatrix {
            store: Arc::clone(&self.store),
            delta: self.delta.clone(),
            view: Some(Arc::new(ViewState {
                lazy_cols: if user_map.is_some() {
                    (0..n_local_items).map(|_| OnceLock::new()).collect()
                } else {
                    Vec::new()
                },
                lazy_rows: if items_restricted {
                    (0..n_local_users).map(|_| OnceLock::new()).collect()
                } else {
                    Vec::new()
                },
                item_map,
                user_map,
                user_rank,
                item_rank,
                items_restricted,
                total_wtp: total,
                fingerprint: OnceLock::new(),
            })),
        }
    }

    /// Stable 64-bit **content fingerprint** of this matrix: dimensions,
    /// every stored `(user, item, wtp)` entry (ids and value bits, in
    /// column iteration order), and the listed prices. Logically equal
    /// matrices fingerprint equal — an arena and a view with identical
    /// content, or a view and a matrix rebuilt from the restricted triples,
    /// share one digest — which is what lets the sweep engine's solve cache
    /// (`DESIGN.md` §8) recognize repeated sub-markets across sweep axes.
    ///
    /// Computed once per arena/view and cached (`OnceLock`); for a
    /// user-restricted view the first call materializes every lazy column,
    /// which a subsequent solve would do anyway.
    pub fn fingerprint(&self) -> u64 {
        let slot = match (&self.view, &self.delta) {
            (Some(v), _) => &v.fingerprint,
            (None, Some(d)) => &d.fingerprint,
            (None, None) => &self.store.fingerprint,
        };
        *slot.get_or_init(|| {
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

    /// Rebuild a fresh pristine arena holding this matrix's exact content,
    /// folding in any delta overlay and/or view. Entries are replayed in
    /// (user, item) order through [`CsrBuilder`], so every read, total,
    /// and fingerprint of the result is bit-identical to `self`'s — this
    /// is the compaction step of `DESIGN.md` §10 and the "cold rebuild"
    /// the churn parity tests compare against.
    pub fn compact(&self) -> WtpMatrix {
        let (m, n) = (self.n_users(), self.n_items());
        let mut b = CsrBuilder::new(m, n);
        b.reserve(self.nnz());
        for u in 0..m as u32 {
            for (i, w) in self.row(u).iter() {
                b.push(u, i, w);
            }
        }
        if self.has_listed_prices() {
            let prices = (0..n as u32).map(|i| self.listed_price(i).unwrap()).collect();
            b = b.with_listed_prices(prices);
        }
        b.finish()
    }

    /// Layer a fully merged delta overlay over a pristine arena — the
    /// snapshot constructor of [`crate::marketlog::MarketLog`]. The
    /// touched rows/columns carry the complete *post-churn* slices of
    /// every churned id (ascending id, ascending minor ids inside, the
    /// two orientations mutually consistent), and every id beyond the
    /// arena's dimensions must appear as touched in both orientations.
    /// The overlay's total is accumulated here in (user, item) order so a
    /// snapshot read is bit-identical to [`Self::compact`] of itself.
    pub(crate) fn with_overlay(
        &self,
        n_users: usize,
        n_items: usize,
        touched_rows: Vec<(u32, Vec<u32>, Vec<f64>)>,
        touched_cols: Vec<(u32, Vec<u32>, Vec<f64>)>,
        listed_prices: Option<Vec<f64>>,
    ) -> WtpMatrix {
        assert!(
            self.view.is_none() && self.delta.is_none(),
            "overlay base must be a pristine arena"
        );
        assert!(n_users >= self.store.n_users, "user axis only grows");
        assert!(n_items >= self.store.n_items, "item axis only grows");
        match (&self.store.listed_prices, &listed_prices) {
            (Some(_), Some(p)) => assert_eq!(p.len(), n_items, "one listed price per item"),
            (None, None) => {}
            _ => panic!("overlay listed prices must match the base's presence"),
        }

        let mut row_rank = vec![u32::MAX; n_users];
        let mut rows = Vec::with_capacity(touched_rows.len());
        for (u, ids, vals) in touched_rows {
            debug_assert_eq!(ids.len(), vals.len());
            row_rank[u as usize] = rows.len() as u32;
            rows.push((ids, vals));
        }
        let mut col_rank = vec![u32::MAX; n_items];
        let mut cols = Vec::with_capacity(touched_cols.len());
        for (i, ids, vals) in touched_cols {
            debug_assert_eq!(ids.len(), vals.len());
            col_rank[i as usize] = cols.len() as u32;
            cols.push((ids, vals));
        }
        for (u, &r) in row_rank.iter().enumerate().skip(self.store.n_users) {
            assert!(r != u32::MAX, "grown user {u} must be in the touched set");
        }
        for (i, &r) in col_rank.iter().enumerate().skip(self.store.n_items) {
            assert!(r != u32::MAX, "grown item {i} must be in the touched set");
        }

        // Post-churn Σ and nnz, in the builder's (user, item) order.
        let mut total = 0.0;
        let mut nnz = 0usize;
        for (u, &r) in row_rank.iter().enumerate() {
            let vals: &[f64] =
                if r != u32::MAX { &rows[r as usize].1 } else { self.store.rows.slice(u).values };
            nnz += vals.len();
            for &w in vals {
                total += w;
            }
        }

        WtpMatrix {
            store: Arc::clone(&self.store),
            delta: Some(Arc::new(DeltaOverlay {
                n_users,
                n_items,
                row_rank,
                rows,
                col_rank,
                cols,
                total_wtp: total,
                nnz,
                listed_prices,
                fingerprint: OnceLock::new(),
            })),
            view: None,
        }
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
    fn restrict_items_is_zero_copy_on_columns() {
        let w = WtpMatrix::from_rows(vec![vec![12.0, 4.0, 7.0], vec![8.0, 2.0, 0.0]]);
        let v = w.restrict(Some(&[2, 0]), None);
        assert_eq!(v.n_items(), 2);
        assert_eq!(v.n_users(), 2);
        // Local item 0 = arena item 0, local item 1 = arena item 2 (sorted).
        assert_eq!(v.col(0).values, w.col(0).values);
        assert_eq!(v.col(1).values, w.col(2).values);
        assert_eq!(v.total_wtp(), 12.0 + 8.0 + 7.0);
        // Rows are remapped to local item ids.
        assert_eq!(v.row(0).ids, &[0, 1]);
        assert_eq!(v.row(0).values, &[12.0, 7.0]);
        assert_eq!(v.row(1).ids, &[0]);
    }

    #[test]
    fn restrict_users_remaps_columns() {
        let w = WtpMatrix::from_rows(vec![vec![12.0, 4.0], vec![8.0, 2.0], vec![5.0, 11.0]]);
        let v = w.restrict(None, Some(&[2, 0]));
        assert_eq!(v.n_users(), 2);
        assert_eq!(v.col(0).ids, &[0, 1]); // local ids for arena users 0, 2
        assert_eq!(v.col(0).values, &[12.0, 5.0]);
        assert_eq!(v.row(1).values, &[5.0, 11.0]); // local user 1 = arena 2
        assert_eq!(v.total_wtp(), 32.0);
        assert_eq!(v.nnz(), 4);
        assert!(v.is_view());
    }

    #[test]
    fn restrict_composes() {
        let w = WtpMatrix::from_rows(vec![
            vec![1.0, 2.0, 3.0],
            vec![4.0, 5.0, 6.0],
            vec![7.0, 8.0, 9.0],
        ]);
        let v1 = w.restrict(Some(&[1, 2]), Some(&[0, 2]));
        // v1 local item 1 = arena item 2; v1 local user 1 = arena user 2.
        let v2 = v1.restrict(Some(&[1]), Some(&[1]));
        assert_eq!(v2.n_items(), 1);
        assert_eq!(v2.n_users(), 1);
        assert_eq!(v2.get(0, 0), 9.0);
        assert_eq!(v2.total_wtp(), 9.0);
    }

    #[test]
    fn view_equals_rebuilt_matrix() {
        let w = WtpMatrix::from_rows(vec![
            vec![1.0, 0.0, 3.0, 4.0],
            vec![0.0, 5.0, 6.0, 0.0],
            vec![7.0, 8.0, 0.0, 9.0],
        ]);
        let v = w.restrict(Some(&[0, 2, 3]), Some(&[0, 2]));
        let rebuilt = WtpMatrix::from_rows(vec![vec![1.0, 3.0, 4.0], vec![7.0, 0.0, 9.0]]);
        assert_eq!(v, rebuilt);
        assert_eq!(v.total_wtp(), rebuilt.total_wtp());
    }

    #[test]
    fn view_total_wtp_bit_identical_to_rebuild() {
        // Non-dyadic ratings-derived values (λ·stars/5·$x.99): any
        // accumulation-order difference between the view's total and the
        // builder's shows up as 1-ulp drift. The view must sum in the
        // builder's (user, item) order exactly.
        let ratings: Vec<(u32, u32, u8)> = (0..6u32)
            .flat_map(|u| {
                (0..4u32)
                    .filter(move |i| (u + i) % 3 != 0)
                    .map(move |i| (u, i, ((u + i) % 5 + 1) as u8))
            })
            .collect();
        let prices = [9.99, 14.99, 3.33, 7.77];
        let w = WtpMatrix::from_ratings(6, 4, ratings.clone(), &prices, 1.1);
        let v = w.restrict(Some(&[1, 3]), Some(&[0, 2, 5]));
        let rebuilt = WtpMatrix::from_ratings(
            3,
            2,
            ratings.iter().filter_map(|&(u, i, s)| {
                let lu = [0u32, 2, 5].iter().position(|&x| x == u)?;
                let li = [1u32, 3].iter().position(|&x| x == i)?;
                Some((lu as u32, li as u32, s))
            }),
            &[14.99, 7.77],
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
        let v = w.restrict(Some(&[0, 2, 3]), Some(&[0, 2]));
        let rebuilt = WtpMatrix::from_rows(vec![vec![1.0, 3.0, 4.0], vec![7.0, 0.0, 9.0]]);
        assert_eq!(v.fingerprint(), rebuilt.fingerprint());
        // ... and differs from both the arena and a different restriction.
        assert_ne!(v.fingerprint(), w.fingerprint());
        assert_ne!(v.fingerprint(), w.restrict(Some(&[0, 2, 3]), Some(&[0, 1])).fingerprint());
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
    fn overlay_merges_base_and_touched_slices() {
        let w = WtpMatrix::from_rows(vec![vec![12.0, 4.0], vec![8.0, 2.0], vec![5.0, 11.0]]);
        // Churn: (user 1, item 0) 8 → 9, and a new user 3 rating item 1 at 6.
        let d = w.with_overlay(
            4,
            2,
            vec![(1, vec![0, 1], vec![9.0, 2.0]), (3, vec![1], vec![6.0])],
            vec![
                (0, vec![0, 1, 2], vec![12.0, 9.0, 5.0]),
                (1, vec![0, 1, 2, 3], vec![4.0, 2.0, 11.0, 6.0]),
            ],
            None,
        );
        assert!(d.has_delta());
        assert_eq!(d.n_users(), 4);
        assert_eq!(d.get(1, 0), 9.0);
        assert_eq!(d.get(3, 1), 6.0);
        assert_eq!(d.get(0, 0), 12.0); // untouched row reads the arena
        assert_eq!(d.nnz(), 7);
        let rebuilt = WtpMatrix::from_rows(vec![
            vec![12.0, 4.0],
            vec![9.0, 2.0],
            vec![5.0, 11.0],
            vec![0.0, 6.0],
        ]);
        assert_eq!(d, rebuilt);
        assert_eq!(d.total_wtp().to_bits(), rebuilt.total_wtp().to_bits());
        assert_eq!(d.fingerprint(), rebuilt.fingerprint());
        // Compaction is identity on reads and fingerprints.
        let c = d.compact();
        assert!(!c.has_delta());
        assert_eq!(c, rebuilt);
        assert_eq!(c.fingerprint(), d.fingerprint());
        // A view over the churned base reads through the overlay.
        let v = d.restrict(Some(&[0]), Some(&[1, 3]));
        assert_eq!(v.get(0, 0), 9.0);
        assert_eq!(v.n_users(), 2);
        let cold = c.restrict(Some(&[0]), Some(&[1, 3]));
        assert_eq!(v.fingerprint(), cold.fingerprint());
        assert_eq!(v.total_wtp().to_bits(), cold.total_wtp().to_bits());
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
        let v = w.restrict(Some(&[2, 1]), None);
        assert_eq!(v.listed_price(0), Some(20.0));
        assert_eq!(v.listed_price(1), Some(30.0));
    }
}
