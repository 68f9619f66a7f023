//! Property tests of the maximal miner on random databases: it must equal
//! a maximality filter over every itemset of the database, enumerated by
//! brute force, and its sets must be frequent and pairwise unrelated.

use proptest::prelude::*;
use revmax_fim::{mine_maximal, Itemset, TransactionDb};

fn arb_db(max_items: usize, max_tx: usize) -> impl Strategy<Value = TransactionDb> {
    (2usize..=max_items).prop_flat_map(move |n| {
        let tx = proptest::collection::vec(0u32..n as u32, 0..=n);
        proptest::collection::vec(tx, 0..=max_tx).prop_map(move |mut txs| {
            for tx in &mut txs {
                tx.sort_unstable();
                tx.dedup();
            }
            TransactionDb::from_transactions(n, &txs)
        })
    })
}

/// Reference: every itemset of the `2^n` with support ≥ `minsup` that no
/// one-item extension keeps frequent (support is anti-monotone, so that
/// makes it maximal), sorted by items.
fn filtered_frequent(db: &TransactionDb, minsup: u32) -> Vec<Itemset> {
    let n = db.n_items() as u32;
    let items_of = |mask: u32| (0..n).filter(|&i| mask & (1 << i) != 0).collect::<Vec<u32>>();
    let frequent = |mask: u32| db.support(&items_of(mask)) >= minsup;
    let mut out: Vec<Itemset> = (1..1u32 << n)
        .filter(|&m| frequent(m) && (0..n).all(|i| m & (1 << i) != 0 || !frequent(m | 1 << i)))
        .map(|m| Itemset { items: items_of(m), support: db.support(&items_of(m)) })
        .collect();
    out.sort_by(|a, b| a.items.cmp(&b.items));
    out
}

/// `a ⊆ b` for strictly increasing item lists.
fn subset(a: &[u32], b: &[u32]) -> bool {
    a.iter().all(|i| b.binary_search(i).is_ok())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(150))]

    #[test]
    fn maximal_equals_filtered_frequent(db in arb_db(9, 30), minsup in 1u32..6) {
        prop_assert_eq!(mine_maximal(&db, minsup), filtered_frequent(&db, minsup));
    }

    #[test]
    fn maximal_sets_are_frequent_and_pairwise_unrelated(db in arb_db(10, 25), minsup in 1u32..5) {
        let got = mine_maximal(&db, minsup);
        for s in &got {
            prop_assert!(s.support >= minsup);
            prop_assert_eq!(s.support, db.support(&s.items));
        }
        for (i, a) in got.iter().enumerate() {
            for b in got.iter().skip(i + 1) {
                prop_assert!(!subset(&a.items, &b.items) && !subset(&b.items, &a.items),
                    "maximal sets related: {:?} vs {:?}", a.items, b.items);
            }
        }
    }
}
