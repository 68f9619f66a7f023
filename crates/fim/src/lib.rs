//! # revmax-fim — maximal frequent itemset mining
//!
//! The `FreqItemset` baselines of *Mining Revenue-Maximizing Bundling
//! Configuration* (VLDB'15, Section 6.1.3) simulate Amazon's "Frequently
//! Bought Together" by mining **maximal frequent itemsets** from the
//! consumers-as-transactions view of the data (a consumer's transaction is
//! the set of items she has non-zero willingness to pay for). The paper uses
//! MAFIA (Burdick, Calimlim, Gehrke — ICDM'01); this crate implements the
//! same vertical-bitmap depth-first miner from scratch:
//!
//! * [`TransactionDb`] — vertical layout: one transaction bitmap per item.
//! * [`mine_maximal`] — MAFIA-style DFS over the set-enumeration tree with
//!   dynamic tail reordering, parent-equivalence pruning (PEP), FHUT
//!   (frequent head-union-tail shortcut) and HUTMFI (subsumption-based
//!   subtree pruning). At absolute support 1 — where the paper's 0.1%
//!   lands on every market under 1000 consumers — no search is needed:
//!   the maximal sets are the inclusion-maximal distinct transactions.
//!
//! The miner's tests check it against a maximality filter over a textbook
//! Apriori (Agrawal & Srikant, VLDB'94), a test-only module.
//!
//! ```
//! use revmax_fim::{TransactionDb, mine_maximal};
//!
//! let db = TransactionDb::from_transactions(4, &[
//!     vec![0, 1, 2],
//!     vec![0, 1, 2],
//!     vec![0, 1],
//!     vec![3],
//! ]);
//! let maximal = mine_maximal(&db, 2);
//! // {0,1,2} is frequent at support 2 and subsumes {0,1}.
//! assert_eq!(maximal.len(), 1);
//! assert_eq!(maximal[0].items, vec![0, 1, 2]);
//! assert_eq!(maximal[0].support, 2);
//! ```

#[cfg(test)]
mod apriori;
mod bitmap;
mod db;
mod maximal;

pub use bitmap::Bitmap;
pub use db::TransactionDb;
pub use maximal::{mine_maximal, mine_maximal_with_threads};

/// A mined itemset: sorted item ids plus its transaction support.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Itemset {
    /// Item ids, strictly increasing.
    pub items: Vec<u32>,
    /// Number of transactions containing every item of the set.
    pub support: u32,
}

/// Subset test on strictly-increasing id slices (merge scan).
pub(crate) fn is_subset(a: &[u32], b: &[u32]) -> bool {
    let mut it = b.iter();
    'outer: for &x in a {
        for &y in it.by_ref() {
            match y.cmp(&x) {
                std::cmp::Ordering::Less => continue,
                std::cmp::Ordering::Equal => continue 'outer,
                std::cmp::Ordering::Greater => return false,
            }
        }
        return false;
    }
    true
}

/// Convert a relative minimum support (fraction of transactions) to an
/// absolute transaction count, the form the miners take. Always at least 1.
///
/// The paper's default for the baselines is 0.1%: `relative_minsup(0.001, m)`.
pub fn relative_minsup(fraction: f64, n_transactions: usize) -> u32 {
    assert!((0.0..=1.0).contains(&fraction), "fraction must be in [0,1], got {fraction}");
    ((fraction * n_transactions as f64).ceil() as u32).max(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn subset_merge_scan() {
        assert!(is_subset(&[], &[]));
        assert!(is_subset(&[], &[1, 2]));
        assert!(is_subset(&[2], &[1, 2, 3]));
        assert!(is_subset(&[1, 3], &[1, 2, 3]));
        assert!(!is_subset(&[1, 4], &[1, 2, 3]));
        assert!(!is_subset(&[0], &[1]));
        assert!(!is_subset(&[1, 2], &[2]));
    }

    #[test]
    fn relative_minsup_rounds_up_and_floors_at_one() {
        assert_eq!(relative_minsup(0.001, 4449), 5); // the paper's setting
        assert_eq!(relative_minsup(0.0, 100), 1);
        assert_eq!(relative_minsup(1.0, 100), 100);
        assert_eq!(relative_minsup(0.5, 3), 2);
    }

    #[test]
    #[should_panic(expected = "fraction")]
    fn relative_minsup_rejects_out_of_range() {
        relative_minsup(1.5, 10);
    }
}
