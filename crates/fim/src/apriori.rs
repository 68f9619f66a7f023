//! Textbook Apriori (Agrawal & Srikant, VLDB'94), a test-only,
//! slow-but-simple reference: the maximal miner's tests filter its output
//! down to the maximal sets.

use crate::{Itemset, TransactionDb};

/// Mine all frequent itemsets levelwise. Returns sets sorted by
/// (length, items). Intended for test-sized inputs: support counting is a
/// full scan per level.
pub fn apriori(db: &TransactionDb, minsup: u32) -> Vec<Itemset> {
    assert!(minsup >= 1, "minsup must be >= 1");
    let mut out: Vec<Itemset> = Vec::new();
    // L1.
    let mut level: Vec<Vec<u32>> = (0..db.n_items() as u32)
        .filter(|&i| db.item_support(i) >= minsup)
        .map(|i| vec![i])
        .collect();
    while !level.is_empty() {
        for items in &level {
            out.push(Itemset { items: items.clone(), support: db.support(items) });
        }
        // Candidate generation: join sets sharing the first k-1 items.
        let mut candidates: Vec<Vec<u32>> = Vec::new();
        for (a_idx, a) in level.iter().enumerate() {
            for b in &level[a_idx + 1..] {
                let k = a.len();
                if a[..k - 1] != b[..k - 1] {
                    continue;
                }
                let mut cand = a.clone();
                cand.push(b[k - 1]);
                debug_assert!(cand.windows(2).all(|w| w[0] < w[1]));
                // Prune: all k-subsets must be frequent (present in level).
                let all_subsets_frequent = (0..cand.len()).all(|skip| {
                    let sub: Vec<u32> = cand
                        .iter()
                        .enumerate()
                        .filter_map(|(i, &x)| (i != skip).then_some(x))
                        .collect();
                    level.binary_search(&sub).is_ok()
                });
                if all_subsets_frequent {
                    candidates.push(cand);
                }
            }
        }
        // Support filtering.
        level = candidates.into_iter().filter(|c| db.support(c) >= minsup).collect();
        level.sort();
    }
    out.sort_by(|a, b| (a.items.len(), &a.items).cmp(&(b.items.len(), &b.items)));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classic_example() {
        let db = TransactionDb::from_transactions(
            5,
            &[vec![0, 1, 4], vec![1, 3], vec![1, 2], vec![0, 1, 3], vec![0, 2]],
        );
        let got = apriori(&db, 2);
        let sets: Vec<(Vec<u32>, u32)> = got.into_iter().map(|s| (s.items, s.support)).collect();
        assert_eq!(
            sets,
            vec![
                (vec![0], 3),
                (vec![1], 4),
                (vec![2], 2),
                (vec![3], 2),
                (vec![0, 1], 2),
                (vec![1, 3], 2),
            ]
        );
    }

    #[test]
    fn empty_and_extreme_minsup() {
        let db = TransactionDb::from_transactions(3, &[vec![0], vec![1]]);
        assert!(apriori(&db, 3).is_empty());
        assert_eq!(apriori(&db, 1).len(), 2);
    }
}
