//! Hot-swapping the serving index under live traffic (`DESIGN.md` §10).
//!
//! A [`MenuIndex`] is immutable once compiled; churn produces a *new*
//! index, a fresh [`MenuIndex::compile`] of the re-solved menu against
//! the churned market. The
//! [`ServeHandle`] is the indirection serving threads read through: they
//! grab an `Arc` snapshot per batch ([`ServeHandle::current`]) and keep
//! serving it even while a writer [`ServeHandle::swap`]s in the successor
//! — no query is ever torn across two menu generations, and a swap never
//! blocks readers for longer than one `RwLock` clone of an `Arc`.

use crate::index::MenuIndex;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

/// A shared, swappable slot holding the currently-served [`MenuIndex`].
///
/// Clone the handle freely (clones share the slot); call
/// [`ServeHandle::current`] once per query batch and use that snapshot for
/// the whole batch.
#[derive(Debug, Clone)]
pub struct ServeHandle {
    slot: Arc<RwLock<Arc<MenuIndex>>>,
    generation: Arc<AtomicU64>,
}

impl ServeHandle {
    /// Start serving `index` as generation 0.
    pub fn new(index: MenuIndex) -> ServeHandle {
        ServeHandle {
            slot: Arc::new(RwLock::new(Arc::new(index))),
            generation: Arc::new(AtomicU64::new(0)),
        }
    }

    /// Snapshot the currently-served index. The snapshot stays valid (and
    /// bit-stable) for as long as the caller holds it, across any number
    /// of concurrent swaps.
    ///
    /// Lock poisoning is recovered, not propagated: the slot holds a
    /// single `Arc` that is only ever replaced wholesale under the write
    /// guard, so even if a writer panicked mid-[`ServeHandle::swap`] the
    /// stored value is internally consistent (either the old index or the
    /// new one) — a daemon must not let one panicking deploy thread kill
    /// every subsequent reader.
    pub fn current(&self) -> Arc<MenuIndex> {
        Arc::clone(&self.slot.read().unwrap_or_else(|poisoned| poisoned.into_inner()))
    }

    /// Atomically replace the served index with its successor and bump the
    /// generation. In-flight readers keep their snapshot; new readers see
    /// `index`. Returns the new generation number. Recovers a poisoned
    /// slot the same way [`ServeHandle::current`] does.
    pub fn swap(&self, index: MenuIndex) -> u64 {
        let mut slot = self.slot.write().unwrap_or_else(|poisoned| poisoned.into_inner());
        *slot = Arc::new(index);
        self.generation.fetch_add(1, Ordering::AcqRel) + 1
    }

    /// How many swaps have happened (0 = still serving the initial index).
    pub fn generation(&self) -> u64 {
        self.generation.load(Ordering::Acquire)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use revmax_core::prelude::*;

    /// Table 1's market with every WTP scaled — distinct scales give
    /// distinct optimal prices, hence distinguishable served revenues.
    fn table1_index(scale: f64) -> (Market, MenuIndex) {
        let w = WtpMatrix::from_rows(vec![
            vec![12.0 * scale, 4.0 * scale],
            vec![8.0 * scale, 2.0 * scale],
            vec![5.0 * scale, 11.0 * scale],
        ]);
        let market = Market::new(w, Params::default().with_theta(-0.05));
        let solved = MixedMatching::default().run(&market);
        let index = MenuIndex::compile(&market, &solved.config);
        (market, index)
    }

    #[test]
    fn swap_replaces_the_served_index_and_bumps_generation() {
        let (_, a) = table1_index(1.0);
        let (_, b) = table1_index(2.0);
        let handle = ServeHandle::new(a);
        assert_eq!(handle.generation(), 0);
        let rev_a = handle.current().expected_revenue_all();

        let held = handle.current(); // in-flight reader
        assert_eq!(handle.swap(b), 1);
        assert_eq!(handle.generation(), 1);

        // The held snapshot is bit-stable across the swap; new readers see
        // the successor.
        assert_eq!(held.expected_revenue_all().to_bits(), rev_a.to_bits());
        assert_ne!(handle.current().expected_revenue_all().to_bits(), rev_a.to_bits());
    }

    #[test]
    fn clones_share_the_slot() {
        let (_, a) = table1_index(1.0);
        let (_, b) = table1_index(2.0);
        let handle = ServeHandle::new(a);
        let clone = handle.clone();
        handle.swap(b);
        assert_eq!(clone.generation(), 1);
        assert_eq!(
            clone.current().expected_revenue_all().to_bits(),
            handle.current().expected_revenue_all().to_bits()
        );
    }

    #[test]
    fn poisoned_slot_recovers_for_readers_and_writers() {
        let (_, a) = table1_index(1.0);
        let (_, b) = table1_index(2.0);
        let rev_a = a.expected_revenue_all();
        let rev_b = b.expected_revenue_all();
        let handle = ServeHandle::new(a);

        // Poison the slot: a thread panics while holding the write guard.
        // (Poisoning is set by the guard dropping during the panic, so the
        // recovery-form acquisition poisons just the same — and keeps this
        // test itself clean under the lock-unwrap audit rule.)
        let writer = handle.clone();
        let t = std::thread::spawn(move || {
            let _guard = writer.slot.write().unwrap_or_else(|p| p.into_inner());
            panic!("deploy thread dies mid-swap");
        });
        assert!(t.join().is_err());
        assert!(handle.slot.is_poisoned());

        // Readers recover the (still-consistent) stored index...
        assert_eq!(handle.current().expected_revenue_all().to_bits(), rev_a.to_bits());
        // ...and writers can still deploy successors over the poison.
        assert_eq!(handle.swap(b), 1);
        assert_eq!(handle.current().expected_revenue_all().to_bits(), rev_b.to_bits());
    }

    #[test]
    fn swaps_are_visible_across_threads() {
        let (_, a) = table1_index(1.0);
        let (_, b) = table1_index(2.0);
        let rev_b = b.expected_revenue_all();
        let handle = ServeHandle::new(a);
        let writer = handle.clone();
        let t = std::thread::spawn(move || writer.swap(b));
        assert_eq!(t.join().unwrap(), 1);
        assert_eq!(handle.generation(), 1);
        assert_eq!(handle.current().expected_revenue_all().to_bits(), rev_b.to_bits());
    }
}
