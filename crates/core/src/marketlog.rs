//! `MarketLog` — event-sourced churn over an immutable market
//! (`DESIGN.md` §10).
//!
//! A live market is not rebuilt, it *drifts*: users arrive, ratings
//! change, items launch and retire. [`MarketLog`] captures that drift as
//! typed [`Event`]s over a **base** market and folds each accepted event
//! into **canonical net churn** — a `BTreeMap` of per-cell overrides
//! plus grown dimensions and retirement tombstones. The events themselves
//! are not kept, and an override equal to the base content is dropped, so
//! the log's memory is bounded by the distinct cells churn touched, never
//! by how many events touched them.
//!
//! [`MarketLog::snapshot`] materializes the post-churn [`Market`] as a
//! fresh arena: every user's base row is merged with that user's
//! overrides, in ascending `(user, item)` order, through the CSR
//! builder's ascending front. Every read, total, and content fingerprint
//! of the snapshot is therefore the builder's own output for the
//! post-churn triples — **bit-identical** to a market cold-rebuilt from
//! them. The engine's solve cache keys on the *content* fingerprint of
//! each (sub-)market, so a snapshot after churn invalidates exactly the
//! sweep cells whose cohorts contain touched users/items — the
//! cache-invalidation invariant the churn CI leg pins.

use std::collections::{BTreeMap, BTreeSet};

use crate::market::Market;
use crate::wtp::{CsrBuilder, SparseSlice};

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

/// Net churn over a base [`Market`] (module docs). Cheap to clone (the
/// base arena is shared).
#[derive(Debug, Clone)]
pub struct MarketLog {
    /// The market the log started from; never rebuilt.
    base: Market,
    /// Canonical net per-cell overrides vs the base arena:
    /// `Some(w)` = upsert, `None` = delete. An override equal to the base
    /// content is removed, so equivalent histories share one map.
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
    /// Start a log over `base`.
    pub fn new(base: Market) -> Self {
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

    /// The market the log started from.
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

    /// Apply one event to the pending churn. Errors (out-of-range or retired
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

    /// Materialize the post-churn market as a fresh arena: users in
    /// ascending order, each base row merged with that user's overrides,
    /// pushed through [`CsrBuilder`]'s ascending front. Reads, totals, and
    /// content fingerprints are bit-identical to a market rebuilt cold
    /// from the post-churn triples.
    pub fn snapshot(&self) -> Market {
        // No pending churn: the base IS the snapshot.
        if self.overrides.is_empty()
            && self.n_users == self.base.n_users()
            && self.n_items == self.base.n_items()
        {
            return self.base.clone();
        }
        let bw = self.base.wtp();
        let (bnu, bni) = (bw.n_users(), bw.n_items());
        let mut b = CsrBuilder::new(self.n_users, self.n_items);
        if bw.has_listed_prices() {
            let listed = (0..bni as u32)
                .map(|i| bw.listed_price(i).expect("base is priced"))
                .chain(self.new_listed.iter().copied())
                .collect();
            b = b.with_listed_prices(listed);
        }
        b.reserve(bw.nnz() + self.overrides.len());
        // BTreeMap iterates (user, item) ascending: each user's overrides
        // are one contiguous, item-ascending run.
        let mut pending = self.overrides.iter().peekable();
        let mut ovr: Vec<(u32, Option<f64>)> = Vec::new();
        for u in 0..self.n_users as u32 {
            let base =
                if (u as usize) < bnu { bw.row(u) } else { SparseSlice { ids: &[], values: &[] } };
            ovr.clear();
            while let Some((&(_, i), &v)) = pending.next_if(|(&(ou, _), _)| ou == u) {
                ovr.push((i, v));
            }
            if ovr.is_empty() {
                for (i, w) in base.iter() {
                    b.push(u, i, w);
                }
            } else {
                let (ids, vals) = merge_axis(base, &ovr);
                for (i, w) in ids.into_iter().zip(vals) {
                    b.push(u, i, w);
                }
            }
        }
        self.base.with_wtp(b.finish())
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
    }

    #[test]
    fn compaction_is_identity_on_reads_and_fingerprints() {
        let mut log = MarketLog::new(table1());
        log.apply(Event::UpsertWtp { user: 2, item: 0, wtp: 7.25 }).unwrap();
        log.apply(Event::RetireUser { user: 0 }).unwrap();
        let snap = log.snapshot();
        // The cold-rebuild oracle reads the snapshot back unchanged.
        let cold = snap.wtp().compact();
        assert_eq!(snap.wtp(), &cold);
        assert_eq!(snap.wtp().fingerprint(), cold.fingerprint());
        assert_eq!(snap.total_wtp().to_bits(), cold.total_wtp().to_bits());
        // Snapshotting again changes nothing, and the tombstone holds.
        assert_eq!(log.snapshot().fingerprint(), snap.fingerprint());
        assert!(log.apply(Event::UpsertWtp { user: 0, item: 0, wtp: 1.0 }).is_err());
    }

    #[test]
    fn equivalent_histories_collide_and_effective_events_separate() {
        let base = table1();
        let empty = MarketLog::new(base.clone()).snapshot().fingerprint();

        // Upsert then re-upsert of the base value cancels.
        let mut log = MarketLog::new(base.clone());
        log.apply(Event::UpsertWtp { user: 1, item: 0, wtp: 3.0 }).unwrap();
        assert_ne!(log.snapshot().fingerprint(), empty);
        log.apply(Event::UpsertWtp { user: 1, item: 0, wtp: 8.0 }).unwrap(); // base value
        assert_eq!(log.snapshot().fingerprint(), empty);

        // Delete then re-upsert of the base value cancels too.
        let mut log = MarketLog::new(base.clone());
        log.apply(Event::DeleteWtp { user: 0, item: 1 }).unwrap();
        assert_ne!(log.snapshot().fingerprint(), empty);
        log.apply(Event::UpsertWtp { user: 0, item: 1, wtp: 4.0 }).unwrap();
        assert_eq!(log.snapshot().fingerprint(), empty);

        // Every event type on table 1's full matrix changes the content.
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
            assert_ne!(log.snapshot().fingerprint(), empty, "{e:?} must separate");
        }

        // Retiring an empty row changes no content; its effect is that a
        // later rating for the id is refused.
        let mut log = MarketLog::new(base);
        log.apply(Event::AddUser).unwrap();
        let grown = log.snapshot().fingerprint();
        log.apply(Event::RetireUser { user: 3 }).unwrap();
        assert_eq!(log.snapshot().fingerprint(), grown);
        assert!(log.apply(Event::UpsertWtp { user: 3, item: 0, wtp: 1.0 }).is_err());
    }

    #[test]
    fn cancelling_histories_leave_no_overrides() {
        // The canonical form is what bounds the log's memory: a history
        // whose net effect is nil leaves nothing behind, however long.
        let mut log = MarketLog::new(table1());
        for round in 0..50 {
            let w = 1.0 + round as f64;
            log.apply(Event::UpsertWtp { user: 1, item: 0, wtp: w }).unwrap();
            log.apply(Event::UpsertWtp { user: 1, item: 0, wtp: 8.0 }).unwrap();
            log.apply(Event::DeleteWtp { user: 2, item: 1 }).unwrap();
            log.apply(Event::UpsertWtp { user: 2, item: 1, wtp: 11.0 }).unwrap();
        }
        assert!(log.overrides.is_empty());
        assert_eq!(log.snapshot().fingerprint(), table1().fingerprint());

        // Upsert-then-delete of a cell the base lacks cancels as well.
        log.apply(Event::AddItem { listed_price: None }).unwrap();
        log.apply(Event::UpsertWtp { user: 0, item: 2, wtp: 3.0 }).unwrap();
        assert_eq!(log.overrides.len(), 1);
        log.apply(Event::DeleteWtp { user: 0, item: 2 }).unwrap();
        assert!(log.overrides.is_empty());
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
        let (fp, overrides) = (snap.fingerprint(), log.overrides.clone());
        log.apply(Event::RetireUser { user: 1 }).unwrap();
        assert_eq!(log.snapshot().fingerprint(), fp);
        assert_eq!(log.overrides, overrides);

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
        assert_eq!(a.overrides, b.overrides);
        assert_eq!(a.snapshot().fingerprint(), b.snapshot().fingerprint());
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
        let fp = log.snapshot().fingerprint();
        assert!(log.apply(Event::UpsertWtp { user: 9, item: 0, wtp: 1.0 }).is_err());
        assert!(log.apply(Event::UpsertWtp { user: 0, item: 9, wtp: 1.0 }).is_err());
        assert!(log.apply(Event::UpsertWtp { user: 0, item: 0, wtp: f64::NAN }).is_err());
        assert!(log.apply(Event::UpsertWtp { user: 0, item: 0, wtp: -1.0 }).is_err());
        assert!(log.apply(Event::DeleteWtp { user: 9, item: 0 }).is_err());
        assert!(log.apply(Event::RetireUser { user: 9 }).is_err());
        assert!(log.apply(Event::RetireItem { item: 9 }).is_err());
        assert!(log.overrides.is_empty() && log.retired_users.is_empty());
        assert_eq!(log.snapshot().fingerprint(), fp);
    }
}
