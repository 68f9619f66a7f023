//! Transaction database in vertical (per-item bitmap) layout.

use crate::Bitmap;

/// A transaction database over `n_items` items, stored vertically: for each
/// item, the bitmap of transactions containing it.
#[derive(Debug, Clone)]
pub struct TransactionDb {
    n_items: usize,
    n_transactions: usize,
    bitmaps: Vec<Bitmap>,
}

impl TransactionDb {
    /// Build from horizontal transactions (each a list of item ids).
    /// Duplicate items within one transaction are tolerated.
    // audit: allow(dead-pub) test oracle: the fim proptests, bench_fim and the crate example build reference databases with it
    pub fn from_transactions(n_items: usize, transactions: &[Vec<u32>]) -> Self {
        let n_transactions = transactions.len();
        let mut bitmaps = vec![Bitmap::zeros(n_transactions); n_items];
        for (t, tx) in transactions.iter().enumerate() {
            for &i in tx {
                assert!((i as usize) < n_items, "item {i} out of range (n_items={n_items})");
                bitmaps[i as usize].set(t);
            }
        }
        TransactionDb { n_items, n_transactions, bitmaps }
    }

    /// Build directly from per-item transaction bitmaps (the vertical
    /// layout itself) — the zero-intermediate path used when the caller
    /// already holds columnar data, e.g. the CSR item columns of a WTP
    /// matrix. All bitmaps must span `n_transactions` slots.
    pub fn from_item_bitmaps(n_transactions: usize, bitmaps: Vec<Bitmap>) -> Self {
        for (i, bm) in bitmaps.iter().enumerate() {
            assert_eq!(
                bm.len(),
                n_transactions,
                "item {i} bitmap spans {} transactions, expected {n_transactions}",
                bm.len()
            );
        }
        TransactionDb { n_items: bitmaps.len(), n_transactions, bitmaps }
    }

    /// Number of items in the universe.
    pub fn n_items(&self) -> usize {
        self.n_items
    }

    /// Number of transactions.
    pub fn n_transactions(&self) -> usize {
        self.n_transactions
    }

    /// The transaction bitmap of one item.
    pub fn item_bitmap(&self, item: u32) -> &Bitmap {
        &self.bitmaps[item as usize]
    }

    /// Support (transaction count) of a single item.
    pub fn item_support(&self, item: u32) -> u32 {
        self.bitmaps[item as usize].count()
    }

    /// Support of an arbitrary itemset, by intersecting bitmaps.
    /// The empty set's support is the number of transactions.
    pub fn support(&self, items: &[u32]) -> u32 {
        match items {
            [] => self.n_transactions as u32,
            [i] => self.item_support(*i),
            [first, rest @ ..] => {
                let mut acc = self.bitmaps[*first as usize].clone();
                for &i in rest {
                    acc.and_assign(&self.bitmaps[i as usize]);
                }
                acc.count()
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> TransactionDb {
        TransactionDb::from_transactions(
            4,
            &[vec![0, 1, 2], vec![0, 1], vec![0, 2], vec![3], vec![0, 1, 2, 3]],
        )
    }

    #[test]
    fn supports() {
        let db = sample();
        assert_eq!(db.n_transactions(), 5);
        assert_eq!(db.item_support(0), 4);
        assert_eq!(db.item_support(3), 2);
        assert_eq!(db.support(&[0, 1]), 3);
        assert_eq!(db.support(&[0, 1, 2]), 2);
        assert_eq!(db.support(&[1, 3]), 1);
        assert_eq!(db.support(&[]), 5);
    }

    #[test]
    fn duplicate_items_in_transaction_ok() {
        let db = TransactionDb::from_transactions(2, &[vec![0, 0, 1]]);
        assert_eq!(db.item_support(0), 1);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_item() {
        TransactionDb::from_transactions(2, &[vec![2]]);
    }

    #[test]
    fn from_item_bitmaps_equals_horizontal_build() {
        let horizontal = sample();
        let bitmaps: Vec<Bitmap> = (0..4u32).map(|i| horizontal.item_bitmap(i).clone()).collect();
        let vertical = TransactionDb::from_item_bitmaps(5, bitmaps);
        assert_eq!(vertical.n_items(), 4);
        assert_eq!(vertical.n_transactions(), 5);
        for i in 0..4u32 {
            assert_eq!(vertical.item_support(i), horizontal.item_support(i));
        }
        assert_eq!(vertical.support(&[0, 1, 2]), 2);
    }

    #[test]
    #[should_panic(expected = "expected 5")]
    fn from_item_bitmaps_rejects_length_mismatch() {
        TransactionDb::from_item_bitmaps(5, vec![Bitmap::zeros(4)]);
    }

    #[test]
    fn empty_db() {
        let db = TransactionDb::from_transactions(3, &[]);
        assert_eq!(db.n_transactions(), 0);
        assert_eq!(db.support(&[0]), 0);
    }
}
