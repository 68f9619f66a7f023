//! `MarketLog` — event-sourced churn over an immutable market
//! (`DESIGN.md` §10).
//!
//! A live market is not rebuilt, it *drifts*: users arrive, ratings
//! change, items launch and retire. [`MarketLog`] captures that drift as
//! typed [`Event`]s over a **base** market whose WTP matrix is a pristine
//! dual-CSR arena, and folds each accepted event into a **canonical net
//! overlay** — a `BTreeMap` of per-cell overrides plus grown dimensions
//! and retirement tombstones. The events themselves are not kept: the
//! log's memory depends on the overlay, never on how many events built
//! it. Two consequences fall out of keeping the overlay canonical:
//!
//! * [`MarketLog::snapshot`] materializes a [`Market`] whose matrix
//!   layers the overlay over the shared arena without copying it
//!   (touched rows/columns are merged, untouched slices read the arena
//!   zero-copy), and every read, total, and content fingerprint of the
//!   snapshot is **bit-identical** to a market cold-rebuilt from the
//!   post-churn triples;
//! * [`MarketLog::fingerprint`] yields a
//!   [`DeltaFingerprint`] `(base, delta)` pair under which equivalent
//!   histories collide (an upsert later deleted cancels; re-upserting
//!   the base value cancels) and every effective event separates.
//!
//! Compaction ([`MarketLog::compact`], [`MarketLog::maybe_compact`])
//! folds the overlay into a fresh arena once churn crosses a size
//! threshold; reads are unchanged, only the `(base, delta)` split moves.
//! The engine's solve cache keys on the *content* fingerprint of each
//! (sub-)market, so a snapshot after churn invalidates exactly the sweep
//! cells whose cohorts contain touched users/items — the
//! cache-invalidation invariant the churn CI leg pins.

use std::collections::{BTreeMap, BTreeSet};

use crate::fingerprint::{DeltaFingerprint, Fingerprinter};
use crate::market::Market;
use crate::wtp::SparseSlice;

/// One typed churn event. Ids are stable across the log's lifetime: axes
/// only grow ([`Event::AddUser`] / [`Event::AddItem`] append ids),
/// retirement tombstones a row/column empty but never renumbers.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Event {
    /// Set `w[user][item]` (insert or overwrite). WTP must be finite and
    /// positive — the same ingestion invariant as the CSR builder.
    UpsertWtp { user: u32, item: u32, wtp: f64 },
    /// Remove the `(user, item)` entry; deleting an absent cell is a no-op.
    DeleteWtp { user: u32, item: u32 },
    /// Append a new consumer (id = current user count).
    AddUser,
    /// Append a new item (id = current item count). `listed_price` must be
    /// present iff the base market carries listed prices.
    AddItem { listed_price: Option<f64> },
    /// Drop every entry of the user's row and refuse further ratings for
    /// the id. Idempotent.
    RetireUser { user: u32 },
    /// Drop every entry of the item's column and refuse further ratings
    /// for the id. Idempotent.
    RetireItem { item: u32 },
}

/// Churn overlay over a base [`Market`] (module docs). Cheap to clone
/// (the base arena is shared).
#[derive(Debug, Clone)]
pub struct MarketLog {
    /// Base market; its matrix is always a pristine arena (no view, no
    /// overlay) — [`MarketLog::new`] compacts anything else.
    base: Market,
    /// Canonical net per-cell overrides vs the base arena:
    /// `Some(w)` = upsert, `None` = delete. An override equal to the base
    /// content is removed, so equivalent histories share one overlay.
    overrides: BTreeMap<(u32, u32), Option<f64>>,
    /// Post-churn dimensions (≥ the base's).
    n_users: usize,
    n_items: usize,
    /// Listed prices of grown items (present entries iff the base is
    /// priced); `new_listed[k]` prices item `base_n_items + k`.
    new_listed: Vec<f64>,
    retired_users: BTreeSet<u32>,
    retired_items: BTreeSet<u32>,
}

/// Merge one base slice with its ascending `(minor, override)` list:
/// overrides win (`Some` replaces, `None` drops), untouched base entries
/// pass through, output minor ids ascending.
fn merge_axis(base: SparseSlice<'_>, ovr: &[(u32, Option<f64>)]) -> (Vec<u32>, Vec<f64>) {
    let mut ids = Vec::with_capacity(base.len() + ovr.len());
    let mut vals = Vec::with_capacity(base.len() + ovr.len());
    let mut b = 0usize;
    for &(id, v) in ovr {
        while b < base.ids.len() && base.ids[b] < id {
            ids.push(base.ids[b]);
            vals.push(base.values[b]);
            b += 1;
        }
        if b < base.ids.len() && base.ids[b] == id {
            b += 1; // overridden
        }
        if let Some(w) = v {
            ids.push(id);
            vals.push(w);
        }
    }
    while b < base.ids.len() {
        ids.push(base.ids[b]);
        vals.push(base.values[b]);
        b += 1;
    }
    (ids, vals)
}

impl MarketLog {
    /// Start a log over `base`. If the base matrix is a view or already
    /// carries an overlay it is compacted into a fresh arena first, so
    /// the log's overlay always layers over pristine storage.
    pub fn new(base: Market) -> Self {
        let base = if base.wtp().is_view() || base.wtp().has_delta() {
            let compacted = base.wtp().compact();
            base.with_wtp(compacted)
        } else {
            base
        };
        let n_users = base.n_users();
        let n_items = base.n_items();
        MarketLog {
            base,
            overrides: BTreeMap::new(),
            n_users,
            n_items,
            new_listed: Vec::new(),
            retired_users: BTreeSet::new(),
            retired_items: BTreeSet::new(),
        }
    }

    /// The (compacted) base market the overlay layers over.
    pub fn base(&self) -> &Market {
        &self.base
    }

    /// Post-churn consumer count.
    pub fn n_users(&self) -> usize {
        self.n_users
    }

    /// Post-churn item count.
    pub fn n_items(&self) -> usize {
        self.n_items
    }

    /// Base-arena content of one cell (0.0 when absent or beyond the
    /// base's dimensions).
    fn base_get(&self, user: u32, item: u32) -> f64 {
        let bw = self.base.wtp();
        if (user as usize) < bw.n_users() && (item as usize) < bw.n_items() {
            bw.get(user, item)
        } else {
            0.0
        }
    }

    /// Canonical delete of one cell: override with `None` when the base
    /// stores the cell, drop any pending override otherwise.
    fn delete_cell(&mut self, user: u32, item: u32) {
        if self.base_get(user, item) > 0.0 {
            self.overrides.insert((user, item), None);
        } else {
            self.overrides.remove(&(user, item));
        }
    }

    /// Current (post-churn) row of a user as `(item, wtp)` pairs, items
    /// ascending.
    fn current_row(&self, user: u32) -> (Vec<u32>, Vec<f64>) {
        let bw = self.base.wtp();
        let base = if (user as usize) < bw.n_users() {
            bw.row(user)
        } else {
            SparseSlice { ids: &[], values: &[] }
        };
        let ovr: Vec<(u32, Option<f64>)> = self
            .overrides
            .range((user, 0)..=(user, u32::MAX))
            .map(|(&(_, i), &v)| (i, v))
            .collect();
        merge_axis(base, &ovr)
    }

    /// Current (post-churn) column of an item as `(user, wtp)` pairs,
    /// users ascending. O(overrides) — fine for log maintenance; bulk
    /// reads go through [`Self::snapshot`].
    fn current_col(&self, item: u32) -> (Vec<u32>, Vec<f64>) {
        let bw = self.base.wtp();
        let base = if (item as usize) < bw.n_items() {
            bw.col(item)
        } else {
            SparseSlice { ids: &[], values: &[] }
        };
        let ovr: Vec<(u32, Option<f64>)> = self
            .overrides
            .iter()
            .filter(|(&(_, i), _)| i == item)
            .map(|(&(u, _), &v)| (u, v))
            .collect();
        merge_axis(base, &ovr)
    }

    /// Apply one event to the overlay. Errors (out-of-range or retired
    /// ids, invalid WTP/price) leave the log untouched.
    pub fn apply(&mut self, event: Event) -> Result<(), String> {
        match event {
            Event::UpsertWtp { user, item, wtp } => {
                if !(wtp.is_finite() && wtp > 0.0) {
                    return Err(format!(
                        "WTP for (user {user}, item {item}) must be finite and positive, got {wtp}"
                    ));
                }
                self.check_user(user)?;
                self.check_item(item)?;
                if self.retired_users.contains(&user) {
                    return Err(format!("user {user} is retired"));
                }
                if self.retired_items.contains(&item) {
                    return Err(format!("item {item} is retired"));
                }
                // Canonical form: re-upserting the base content (bit-equal)
                // cancels any pending override for the cell.
                if self.base_get(user, item).to_bits() == wtp.to_bits() {
                    self.overrides.remove(&(user, item));
                } else {
                    self.overrides.insert((user, item), Some(wtp));
                }
            }
            Event::DeleteWtp { user, item } => {
                self.check_user(user)?;
                self.check_item(item)?;
                self.delete_cell(user, item);
            }
            Event::AddUser => {
                self.n_users += 1;
            }
            Event::AddItem { listed_price } => {
                match (self.base.wtp().has_listed_prices(), listed_price) {
                    (true, Some(p)) => {
                        if !(p.is_finite() && p > 0.0) {
                            return Err(format!(
                                "listed price must be finite and positive, got {p}"
                            ));
                        }
                        self.new_listed.push(p);
                    }
                    (false, None) => {}
                    (true, None) => {
                        return Err("base market is priced: AddItem needs a listed price".into())
                    }
                    (false, Some(_)) => {
                        return Err("base market is unpriced: AddItem must not carry a price".into())
                    }
                }
                self.n_items += 1;
            }
            Event::RetireUser { user } => {
                self.check_user(user)?;
                if self.retired_users.insert(user) {
                    let (items, _) = self.current_row(user);
                    for i in items {
                        self.delete_cell(user, i);
                    }
                }
            }
            Event::RetireItem { item } => {
                self.check_item(item)?;
                if self.retired_items.insert(item) {
                    let (users, _) = self.current_col(item);
                    for u in users {
                        self.delete_cell(u, item);
                    }
                }
            }
        }
        Ok(())
    }

    /// Apply a batch in order; stops at (and reports) the first error,
    /// keeping every event applied before it.
    pub fn apply_batch(&mut self, events: impl IntoIterator<Item = Event>) -> Result<(), String> {
        for e in events {
            self.apply(e)?;
        }
        Ok(())
    }

    fn check_user(&self, user: u32) -> Result<(), String> {
        if (user as usize) < self.n_users {
            Ok(())
        } else {
            Err(format!("user {user} out of range ({} users)", self.n_users))
        }
    }

    fn check_item(&self, item: u32) -> Result<(), String> {
        if (item as usize) < self.n_items {
            Ok(())
        } else {
            Err(format!("item {item} out of range ({} items)", self.n_items))
        }
    }

    /// Materialize the post-churn market: the base arena plus a merged
    /// delta overlay, zero-copy on every untouched row/column. Reads,
    /// totals, and content fingerprints are bit-identical to a market
    /// rebuilt cold from the post-churn triples.
    pub fn snapshot(&self) -> Market {
        // No pending churn (fresh or just-compacted log): the base IS the
        // snapshot — no overlay to layer.
        if self.overrides.is_empty()
            && self.n_users == self.base.n_users()
            && self.n_items == self.base.n_items()
        {
            return self.base.clone();
        }
        let bw = self.base.wtp();
        let (bnu, bni) = (bw.n_users(), bw.n_items());

        let mut row_ovr: BTreeMap<u32, Vec<(u32, Option<f64>)>> = BTreeMap::new();
        let mut col_ovr: BTreeMap<u32, Vec<(u32, Option<f64>)>> = BTreeMap::new();
        // BTreeMap iterates (user, item) ascending, so each row list is
        // ascending in item and each column list ascending in user.
        for (&(u, i), &v) in &self.overrides {
            row_ovr.entry(u).or_default().push((i, v));
            col_ovr.entry(i).or_default().push((u, v));
        }

        let mut touched_u: BTreeSet<u32> = row_ovr.keys().copied().collect();
        touched_u.extend(bnu as u32..self.n_users as u32);
        let touched_rows: Vec<(u32, Vec<u32>, Vec<f64>)> = touched_u
            .iter()
            .map(|&u| {
                let base = if (u as usize) < bnu {
                    bw.row(u)
                } else {
                    SparseSlice { ids: &[], values: &[] }
                };
                let ovr = row_ovr.get(&u).map_or(&[][..], Vec::as_slice);
                let (ids, vals) = merge_axis(base, ovr);
                (u, ids, vals)
            })
            .collect();

        let mut touched_i: BTreeSet<u32> = col_ovr.keys().copied().collect();
        touched_i.extend(bni as u32..self.n_items as u32);
        let touched_cols: Vec<(u32, Vec<u32>, Vec<f64>)> = touched_i
            .iter()
            .map(|&i| {
                let base = if (i as usize) < bni {
                    bw.col(i)
                } else {
                    SparseSlice { ids: &[], values: &[] }
                };
                let ovr = col_ovr.get(&i).map_or(&[][..], Vec::as_slice);
                let (ids, vals) = merge_axis(base, ovr);
                (i, ids, vals)
            })
            .collect();

        let listed = if bw.has_listed_prices() {
            Some(
                (0..self.n_items)
                    .map(|i| {
                        if i < bni {
                            bw.listed_price(i as u32).expect("base is priced")
                        } else {
                            self.new_listed[i - bni]
                        }
                    })
                    .collect(),
            )
        } else {
            None
        };

        let wtp = bw.with_overlay(self.n_users, self.n_items, touched_rows, touched_cols, listed);
        self.base.with_wtp(wtp)
    }

    /// Fold the pending overlay into a fresh arena. Reads are unchanged
    /// (bit-identical before and after); the `(base, delta)` fingerprint
    /// moves churn from the delta half into the base half. The retirement
    /// tombstones are kept.
    pub fn compact(&mut self) {
        let snap = self.snapshot();
        let compacted = snap.wtp().compact();
        self.base = self.base.with_wtp(compacted);
        self.overrides.clear();
        self.new_listed.clear();
    }

    /// Compact when pending churn (overrides + grown ids) reaches
    /// `max_delta_frac` of the base arena's stored entries (at least 1).
    /// Returns whether compaction ran.
    pub fn maybe_compact(&mut self, max_delta_frac: f64) -> bool {
        let grown = (self.n_users - self.base.n_users()) + (self.n_items - self.base.n_items());
        let pending = self.overrides.len() + grown;
        let threshold = (self.base.wtp().nnz() as f64 * max_delta_frac).max(1.0);
        if (pending as f64) >= threshold {
            self.compact();
            true
        } else {
            false
        }
    }

    /// The `(base, delta)` content identity of this log (`DESIGN.md`
    /// §10): the base half is the base market's content fingerprint, the
    /// delta half digests the canonical overlay (dimensions, overrides in
    /// cell order, grown-item prices, tombstones). Equivalent histories
    /// collide; every effective event separates.
    pub fn fingerprint(&self) -> DeltaFingerprint {
        let mut fp = Fingerprinter::new("marketlog-delta");
        fp.write_usize(self.n_users);
        fp.write_usize(self.n_items);
        fp.write_usize(self.overrides.len());
        for (&(u, i), v) in &self.overrides {
            fp.write_u32(u);
            fp.write_u32(i);
            match v {
                Some(w) => {
                    fp.write_u32(1);
                    fp.write_f64(*w);
                }
                None => fp.write_u32(0),
            }
        }
        fp.write_usize(self.new_listed.len());
        for &p in &self.new_listed {
            fp.write_f64(p);
        }
        fp.write_usize(self.retired_users.len());
        for &u in &self.retired_users {
            fp.write_u32(u);
        }
        fp.write_usize(self.retired_items.len());
        for &i in &self.retired_items {
            fp.write_u32(i);
        }
        DeltaFingerprint { base: self.base.fingerprint(), delta: fp.finish() }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::Params;
    use crate::wtp::WtpMatrix;

    fn table1() -> Market {
        let w = WtpMatrix::from_rows(vec![vec![12.0, 4.0], vec![8.0, 2.0], vec![5.0, 11.0]]);
        Market::new(w, Params::default().with_theta(-0.05))
    }

    /// Cold rebuild of the log's current content from dense rows.
    fn cold(log: &MarketLog) -> Market {
        let snap = log.snapshot();
        let mut dense = vec![vec![0.0; log.n_items()]; log.n_users()];
        for u in 0..log.n_users() as u32 {
            for (i, w) in snap.wtp().row(u).iter() {
                dense[u as usize][i as usize] = w;
            }
        }
        log.base().with_wtp(WtpMatrix::from_rows(dense))
    }

    #[test]
    fn snapshot_matches_cold_rebuild_bit_for_bit() {
        let mut log = MarketLog::new(table1());
        log.apply_batch([
            Event::UpsertWtp { user: 1, item: 0, wtp: 9.5 },
            Event::DeleteWtp { user: 0, item: 1 },
            Event::AddUser,
            Event::UpsertWtp { user: 3, item: 1, wtp: 6.0 },
        ])
        .unwrap();
        let snap = log.snapshot();
        let rebuilt = cold(&log);
        assert_eq!(snap.wtp(), rebuilt.wtp());
        assert_eq!(snap.fingerprint(), rebuilt.fingerprint());
        assert_eq!(snap.total_wtp().to_bits(), rebuilt.total_wtp().to_bits());
        assert_eq!(snap.n_users(), 4);
        assert!(snap.wtp().has_delta());
    }

    #[test]
    fn compaction_is_identity_on_reads_and_fingerprints() {
        let mut log = MarketLog::new(table1());
        log.apply(Event::UpsertWtp { user: 2, item: 0, wtp: 7.25 }).unwrap();
        log.apply(Event::RetireUser { user: 0 }).unwrap();
        let before = log.snapshot();
        let fp_before = log.fingerprint();
        log.compact();
        let after = log.snapshot();
        assert!(log.overrides.is_empty());
        assert!(!after.wtp().has_delta(), "compacted snapshot has no overlay");
        assert_eq!(before.wtp(), after.wtp());
        assert_eq!(before.fingerprint(), after.fingerprint());
        // The (base, delta) split moved, the combined content did not.
        let fp_after = log.fingerprint();
        assert_ne!(fp_before.base, fp_after.base);
        assert_ne!(fp_before, fp_after);
    }

    #[test]
    fn equivalent_histories_collide_and_effective_events_separate() {
        let base = table1();
        let empty = MarketLog::new(base.clone()).fingerprint();

        // Upsert then delete cancels (cell absent in base).
        let mut log = MarketLog::new(base.clone());
        log.apply(Event::UpsertWtp { user: 1, item: 0, wtp: 3.0 }).unwrap();
        assert_ne!(log.fingerprint(), empty);
        log.apply(Event::UpsertWtp { user: 1, item: 0, wtp: 8.0 }).unwrap(); // base value
        assert_eq!(log.fingerprint(), empty);

        // Delete then re-upsert of the base value cancels too.
        let mut log = MarketLog::new(base.clone());
        log.apply(Event::DeleteWtp { user: 0, item: 1 }).unwrap();
        assert_ne!(log.fingerprint(), empty);
        log.apply(Event::UpsertWtp { user: 0, item: 1, wtp: 4.0 }).unwrap();
        assert_eq!(log.fingerprint(), empty);

        // Every event type separates from the empty log.
        for e in [
            Event::UpsertWtp { user: 0, item: 0, wtp: 1.0 },
            Event::DeleteWtp { user: 0, item: 0 },
            Event::AddUser,
            Event::AddItem { listed_price: None },
            Event::RetireUser { user: 1 },
            Event::RetireItem { item: 1 },
        ] {
            let mut log = MarketLog::new(base.clone());
            log.apply(e).unwrap();
            assert_ne!(log.fingerprint(), empty, "{e:?} must separate");
        }
    }

    #[test]
    fn retirement_tombstones_and_refuses_new_ratings() {
        let mut log = MarketLog::new(table1());
        log.apply(Event::RetireUser { user: 1 }).unwrap();
        let snap = log.snapshot();
        assert!(snap.wtp().row(1).is_empty());
        assert_eq!(snap.n_users(), 3, "retirement never renumbers");
        let err = log.apply(Event::UpsertWtp { user: 1, item: 0, wtp: 2.0 }).unwrap_err();
        assert!(err.contains("retired"), "{err}");
        // Idempotent.
        let fp = log.fingerprint();
        log.apply(Event::RetireUser { user: 1 }).unwrap();
        assert_eq!(log.fingerprint(), fp);

        log.apply(Event::RetireItem { item: 0 }).unwrap();
        let snap = log.snapshot();
        assert!(snap.wtp().col(0).is_empty());
        assert_eq!(snap.wtp().nnz(), 2); // (0,1) and (2,1) survive
    }

    #[test]
    fn replay_equals_incremental_application() {
        let events = [
            Event::AddUser,
            Event::UpsertWtp { user: 3, item: 0, wtp: 2.5 },
            Event::UpsertWtp { user: 0, item: 0, wtp: 11.0 },
            Event::RetireItem { item: 1 },
        ];
        let mut a = MarketLog::new(table1());
        for e in events {
            a.apply(e).unwrap();
        }
        let mut b = MarketLog::new(table1());
        b.apply_batch(events).unwrap();
        assert_eq!(a.fingerprint(), b.fingerprint());
        assert_eq!(a.snapshot().wtp(), b.snapshot().wtp());
    }

    #[test]
    fn priced_base_requires_priced_additions() {
        let w = WtpMatrix::from_ratings(2, 1, vec![(0u32, 0u32, 5u8), (1, 0, 3)], &[10.0], 1.25);
        let mut log = MarketLog::new(Market::new(w, Params::default()));
        assert!(log.apply(Event::AddItem { listed_price: None }).is_err());
        log.apply(Event::AddItem { listed_price: Some(19.99) }).unwrap();
        assert_eq!(log.n_items(), 2);
        let snap = log.snapshot();
        assert_eq!(snap.wtp().listed_price(1), Some(19.99));

        let mut unpriced = MarketLog::new(table1());
        assert!(unpriced.apply(Event::AddItem { listed_price: Some(1.0) }).is_err());
    }

    #[test]
    fn errors_leave_the_log_untouched() {
        let mut log = MarketLog::new(table1());
        let fp = log.fingerprint();
        assert!(log.apply(Event::UpsertWtp { user: 9, item: 0, wtp: 1.0 }).is_err());
        assert!(log.apply(Event::UpsertWtp { user: 0, item: 9, wtp: 1.0 }).is_err());
        assert!(log.apply(Event::UpsertWtp { user: 0, item: 0, wtp: f64::NAN }).is_err());
        assert!(log.apply(Event::UpsertWtp { user: 0, item: 0, wtp: -1.0 }).is_err());
        assert!(log.apply(Event::DeleteWtp { user: 9, item: 0 }).is_err());
        assert!(log.apply(Event::RetireUser { user: 9 }).is_err());
        assert!(log.apply(Event::RetireItem { item: 9 }).is_err());
        assert_eq!(log.fingerprint(), fp);
    }

    #[test]
    fn maybe_compact_uses_the_delta_fraction() {
        let mut log = MarketLog::new(table1()); // 6 stored entries
        log.apply(Event::UpsertWtp { user: 0, item: 0, wtp: 1.0 }).unwrap();
        assert!(!log.maybe_compact(0.5), "1 of 6 entries churned, below 50%");
        log.apply(Event::UpsertWtp { user: 1, item: 1, wtp: 1.0 }).unwrap();
        log.apply(Event::UpsertWtp { user: 2, item: 0, wtp: 1.0 }).unwrap();
        assert!(log.maybe_compact(0.5), "3 of 6 reaches 50%");
        assert!(log.overrides.is_empty());
    }
}
