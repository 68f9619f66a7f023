//! MAFIA-style maximal frequent itemset mining.
//!
//! Depth-first search over the set-enumeration tree with the three classic
//! MAFIA prunings (Burdick, Calimlim, Gehrke — ICDM'01):
//!
//! * **PEP** (parent equivalence pruning): a tail item whose conditional
//!   support equals the prefix's support belongs to *every* maximal superset
//!   of the prefix, so it is moved into the prefix unconditionally.
//! * **FHUT** (frequent head-union-tail): if prefix ∪ tail is itself
//!   frequent, it is the unique candidate from this subtree.
//! * **HUTMFI**: if prefix ∪ tail is a subset of an already-found maximal
//!   set, the whole subtree is subsumed and is skipped.
//!
//! Tails are dynamically reordered by increasing conditional support, which
//! empirically keeps the search tree small (failing extensions first).
//! Correctness of emission-time subsumption checking follows from the
//! left-to-right exploration order: any maximal superset of an emitted
//! candidate lives in an earlier subtree (see the module tests, which
//! cross-check against a maximality filter over Apriori's full output).

use crate::{Bitmap, Itemset, TransactionDb};
use revmax_par::par_index_map;

/// Minimum tail length before one node's conditional-bitmap intersections
/// fan out across worker threads. The threshold depends only on the data,
/// never on the thread count, so output is identical at any parallelism
/// (`DESIGN.md` §6).
const PAR_FANOUT_MIN: usize = 32;

/// Mine the maximal frequent itemsets at absolute support `minsup ≥ 1`.
///
/// Output is sorted lexicographically by items; every set carries its exact
/// support. Singletons that are frequent but extendable never appear — only
/// maximal sets do. Single-threaded; see [`mine_maximal_with_threads`].
pub fn mine_maximal(db: &TransactionDb, minsup: u32) -> Vec<Itemset> {
    mine_maximal_with_threads(db, minsup, 1)
}

/// [`mine_maximal`] with each DFS node's tidset intersections spread over
/// up to `threads` workers. Output is bit-identical to the sequential
/// miner at any thread count: the intersections are independent, their
/// tail order is preserved, and the PEP/emission logic stays sequential
/// (`DESIGN.md` §6).
///
/// At `minsup = 1` every transaction is frequent, so the maximal sets are
/// read off the transactions without a search: they are the
/// inclusion-maximal distinct transactions, each supported by its copies.
/// The output is the same as the search's.
pub fn mine_maximal_with_threads(db: &TransactionDb, minsup: u32, threads: usize) -> Vec<Itemset> {
    assert!(minsup >= 1, "minsup must be >= 1");
    if minsup == 1 {
        return maximal_baskets(db);
    }
    mine_dfs(db, minsup, threads)
}

/// The maximal frequent itemsets at `minsup = 1`: the inclusion-maximal
/// distinct non-empty transactions ("baskets"). A transaction containing
/// a maximal basket is that basket, so each set's support is its number
/// of copies. Baskets are taken longest first, so any strict superset of
/// a basket has been kept (or subsumed by a kept set) before it is seen.
fn maximal_baskets(db: &TransactionDb) -> Vec<Itemset> {
    // Transpose the vertical layout; items ascend, so each basket is sorted.
    let mut baskets = vec![Vec::new(); db.n_transactions()];
    for i in 0..db.n_items() as u32 {
        for t in db.item_bitmap(i).iter_ones() {
            baskets[t].push(i);
        }
    }
    baskets.retain(|b| !b.is_empty());
    baskets.sort_unstable_by(|a, b| b.len().cmp(&a.len()).then_with(|| a.cmp(b)));
    let mut miner = Miner { minsup: 1, threads: 1, found: Vec::new(), index: Default::default() };
    for copies in baskets.chunk_by(|a, b| a == b) {
        miner.emit(copies[0].clone(), copies.len() as u32);
    }
    let mut out = miner.found;
    out.sort_by(|a, b| a.items.cmp(&b.items));
    out
}

/// The bitmap DFS miner, at any `minsup`.
fn mine_dfs(db: &TransactionDb, minsup: u32, threads: usize) -> Vec<Itemset> {
    let roots: Vec<(u32, Bitmap, u32)> = (0..db.n_items() as u32)
        .filter_map(|i| {
            let bm = db.item_bitmap(i);
            let sup = bm.count();
            (sup >= minsup).then(|| (i, bm.clone(), sup))
        })
        .collect();
    let mut miner = Miner {
        minsup,
        threads: threads.max(1),
        found: Vec::new(),
        index: InvertedIndex::default(),
    };
    // Root: empty prefix with full-transaction "bitmap" (represented lazily:
    // each root already carries its own bitmap, so recursion starts per-root
    // the same way inner nodes do).
    let mut ordered = roots;
    ordered.sort_by_key(|r| r.2); // increasing support
    miner.search(&mut Vec::new(), None, ordered);
    let mut out = miner.found;
    out.sort_by(|a, b| a.items.cmp(&b.items));
    out
}

#[derive(Default)]
struct InvertedIndex {
    /// For each item id, the indices of found maximal sets containing it.
    by_item: Vec<Vec<u32>>,
}

impl InvertedIndex {
    fn ensure(&mut self, item: u32) {
        if self.by_item.len() <= item as usize {
            self.by_item.resize(item as usize + 1, Vec::new());
        }
    }

    fn insert(&mut self, set_idx: u32, items: &[u32]) {
        for &i in items {
            self.ensure(i);
            self.by_item[i as usize].push(set_idx);
        }
    }

    /// Candidate set ids that contain `item` (empty if none).
    fn sets_with(&self, item: u32) -> &[u32] {
        self.by_item.get(item as usize).map(Vec::as_slice).unwrap_or(&[])
    }
}

struct Miner {
    minsup: u32,
    threads: usize,
    found: Vec<Itemset>,
    index: InvertedIndex,
}

impl Miner {
    /// Is `candidate` (sorted) a subset of any found maximal set?
    fn subsumed(&self, candidate: &[u32]) -> bool {
        let Some(&probe) = candidate.first() else { return !self.found.is_empty() };
        // Scan only the sets containing the first item (fewest on average
        // after reordering, and any superset must contain it).
        self.index
            .sets_with(probe)
            .iter()
            .any(|&si| crate::is_subset(candidate, &self.found[si as usize].items))
    }

    fn emit(&mut self, items: Vec<u32>, support: u32) {
        debug_assert!(items.windows(2).all(|w| w[0] < w[1]));
        if !self.subsumed(&items) {
            let idx = self.found.len() as u32;
            self.index.insert(idx, &items);
            self.found.push(Itemset { items, support });
        }
    }

    /// DFS. `prefix` is the current head (sorted), `pbm` its bitmap (None at
    /// the artificial root), `tail` the frequent extensions with their
    /// conditional bitmaps and supports, in increasing-support order.
    fn search(
        &mut self,
        prefix: &mut Vec<u32>,
        pbm: Option<&Bitmap>,
        tail: Vec<(u32, Bitmap, u32)>,
    ) {
        if tail.is_empty() {
            if let Some(bm) = pbm {
                let mut items = prefix.clone();
                items.sort_unstable();
                self.emit(items, bm.count());
            }
            return;
        }
        // HUTMFI: prefix ∪ tail already covered by a known maximal set?
        let mut hut: Vec<u32> = prefix.iter().copied().chain(tail.iter().map(|t| t.0)).collect();
        hut.sort_unstable();
        if self.subsumed(&hut) {
            return;
        }
        // FHUT: is prefix ∪ tail itself frequent?
        {
            let mut acc = tail[0].1.clone();
            for (_, bm, _) in &tail[1..] {
                acc.and_assign(bm);
            }
            // Tail bitmaps are already conditioned on the prefix.
            let sup = acc.count();
            if sup >= self.minsup {
                self.emit(hut, sup);
                return;
            }
        }
        for idx in 0..tail.len() {
            let (item, bm, _sup) = &tail[idx];
            let item = *item;
            prefix.push(item);
            // Build the child's tail from strictly later entries, applying
            // PEP: equal-support extensions join the prefix immediately.
            let parent_sup = bm.count();
            let mut pep_moved: Vec<u32> = Vec::new();
            let mut child_tail: Vec<(u32, Bitmap, u32)> = Vec::new();
            let mut child_bm = bm.clone();
            // The independent tidset intersections of this node, fanned out
            // over workers for wide tails; PEP classification stays
            // sequential in tail order, so the child tail is identical to
            // the sequential construction.
            let exts = &tail[idx + 1..];
            let intersected: Vec<(u32, Bitmap, u32)> =
                if self.threads > 1 && exts.len() >= PAR_FANOUT_MIN {
                    par_index_map(self.threads, exts.len(), |j| {
                        let (jtem, jbm, _) = &exts[j];
                        let nbm = bm.and(jbm);
                        let nsup = nbm.count();
                        (*jtem, nbm, nsup)
                    })
                } else {
                    exts.iter()
                        .map(|(jtem, jbm, _)| {
                            let nbm = bm.and(jbm);
                            let nsup = nbm.count();
                            (*jtem, nbm, nsup)
                        })
                        .collect()
                };
            for (jtem, nbm, nsup) in intersected {
                if nsup < self.minsup {
                    continue;
                }
                if nsup == parent_sup {
                    // PEP: jtem occurs in every transaction of the prefix.
                    pep_moved.push(jtem);
                    child_bm.and_assign(&nbm); // no-op on support, keeps bitmap consistent
                } else {
                    child_tail.push((jtem, nbm, nsup));
                }
            }
            prefix.extend_from_slice(&pep_moved);
            child_tail.sort_by_key(|t| t.2);
            // PEP items' bitmaps equal the prefix bitmap, but child_tail
            // bitmaps were conditioned on `bm` only; re-condition on the PEP
            // items is a no-op because their tid-sets contain bm's.
            self.search(prefix, Some(&child_bm), child_tail);
            prefix.truncate(prefix.len() - 1 - pep_moved.len());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::apriori::apriori;

    /// Reference: maximal sets = frequent sets with no frequent strict
    /// superset (filter over Apriori's complete output).
    fn reference_maximal(db: &TransactionDb, minsup: u32) -> Vec<Itemset> {
        let all = apriori(db, minsup);
        let mut out: Vec<Itemset> = all
            .iter()
            .filter(|s| {
                !all.iter()
                    .any(|t| t.items.len() > s.items.len() && crate::is_subset(&s.items, &t.items))
            })
            .cloned()
            .collect();
        out.sort_by(|a, b| a.items.cmp(&b.items));
        out
    }

    fn check(db: &TransactionDb, minsup: u32) {
        let got = mine_maximal(db, minsup);
        let want = reference_maximal(db, minsup);
        assert_eq!(got, want, "maximal mismatch at minsup {minsup}");
    }

    #[test]
    fn textbook_example() {
        let db = TransactionDb::from_transactions(
            5,
            &[vec![0, 1, 4], vec![1, 3], vec![1, 2], vec![0, 1, 3], vec![0, 2]],
        );
        for minsup in 1..=5 {
            check(&db, minsup);
        }
    }

    #[test]
    fn single_maximal_superset() {
        let db = TransactionDb::from_transactions(
            4,
            &[vec![0, 1, 2], vec![0, 1, 2], vec![0, 1], vec![3]],
        );
        let got = mine_maximal(&db, 2);
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].items, vec![0, 1, 2]);
        assert_eq!(got[0].support, 2);
    }

    #[test]
    fn pep_merges_equal_support_items() {
        // Items 0 and 1 always co-occur: PEP should fuse them.
        let db =
            TransactionDb::from_transactions(3, &[vec![0, 1], vec![0, 1], vec![0, 1, 2], vec![2]]);
        let got = mine_maximal(&db, 2);
        assert!(got.iter().any(|s| s.items == vec![0, 1] && s.support == 3));
        for minsup in 1..=4 {
            check(&db, minsup);
        }
    }

    #[test]
    fn empty_db_yields_nothing() {
        let db = TransactionDb::from_transactions(3, &[]);
        assert!(mine_maximal(&db, 1).is_empty());
    }

    #[test]
    fn disjoint_transactions() {
        let db = TransactionDb::from_transactions(
            6,
            &[vec![0, 1], vec![0, 1], vec![2, 3], vec![2, 3], vec![4, 5]],
        );
        let got = mine_maximal(&db, 2);
        let sets: Vec<Vec<u32>> = got.iter().map(|s| s.items.clone()).collect();
        assert_eq!(sets, vec![vec![0, 1], vec![2, 3]]);
        check(&db, 2);
    }

    #[test]
    fn dense_random_cross_check() {
        // Pseudo-random database, all minsups, vs the Apriori filter.
        let mut state = 42u64;
        let mut txs = Vec::new();
        for _ in 0..40 {
            let mut tx = Vec::new();
            for item in 0..10u32 {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                if (state >> 33) % 10 < 4 {
                    tx.push(item);
                }
            }
            txs.push(tx);
        }
        let db = TransactionDb::from_transactions(10, &txs);
        for minsup in [1, 2, 3, 5, 8, 12, 20] {
            check(&db, minsup);
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(200))]

        #[test]
        fn basket_path_equals_the_miner_at_minsup_one(
            txs in proptest::collection::vec(proptest::collection::vec(0u32..12, 0..=8), 0..=40),
        ) {
            // Few items and short baskets: repeated baskets and nested
            // baskets are both common.
            let db = TransactionDb::from_transactions(12, &txs);
            proptest::prop_assert_eq!(maximal_baskets(&db), mine_dfs(&db, 1, 1));
        }
    }

    #[test]
    fn basket_supports_count_copies() {
        let db = TransactionDb::from_transactions(
            4,
            &[vec![0, 1], vec![2], vec![0, 1], vec![0], vec![], vec![1, 2, 3], vec![2, 3, 1]],
        );
        let got = maximal_baskets(&db);
        let sets: Vec<(Vec<u32>, u32)> = got.into_iter().map(|s| (s.items, s.support)).collect();
        assert_eq!(sets, vec![(vec![0, 1], 2), (vec![1, 2, 3], 2)]);
        assert_eq!(mine_dfs(&db, 1, 1), mine_maximal(&db, 1));
    }

    #[test]
    fn parallel_maximal_identical_to_sequential() {
        // 64 items so root tails exceed PAR_FANOUT_MIN and the parallel
        // intersection path actually runs.
        let n_items = 64usize;
        let txs: Vec<Vec<u32>> = (0..150u32)
            .map(|t| (0..n_items as u32).filter(|&i| (t * 13 + i * 7) % 6 < 2).collect())
            .collect();
        let db = TransactionDb::from_transactions(n_items, &txs);
        let seq = mine_maximal_with_threads(&db, 20, 1);
        assert!(!seq.is_empty());
        assert_eq!(seq, mine_maximal(&db, 20));
        for threads in [2, 4, 7] {
            assert_eq!(mine_maximal_with_threads(&db, 20, threads), seq, "threads={threads}");
        }
    }
}
