//! Fixed-width transaction bitmaps (the "vertical" representation).

/// A bitset over transaction ids, `len` bits packed into `u64` words.
///
/// All bitmaps produced from one [`crate::TransactionDb`] share the same
/// length, so binary operations assert equal word counts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Bitmap {
    words: Vec<u64>,
    len: usize,
}

impl Bitmap {
    /// All-zero bitmap over `len` transaction slots.
    pub fn zeros(len: usize) -> Self {
        Bitmap { words: vec![0; len.div_ceil(64)], len }
    }

    /// Number of addressable bits.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if no addressable bits exist.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Set bit `i`.
    pub fn set(&mut self, i: usize) {
        assert!(i < self.len, "bit {i} out of range (len {})", self.len);
        self.words[i / 64] |= 1u64 << (i % 64);
    }

    /// Read bit `i` (the unit tests' view of a bitmap; the miners only
    /// combine and count whole bitmaps).
    #[cfg(test)]
    pub(crate) fn get(&self, i: usize) -> bool {
        assert!(i < self.len, "bit {i} out of range (len {})", self.len);
        self.words[i / 64] & (1u64 << (i % 64)) != 0
    }

    /// Population count.
    pub fn count(&self) -> u32 {
        self.words.iter().map(|w| w.count_ones()).sum()
    }

    /// `self & other` as a new bitmap.
    pub fn and(&self, other: &Bitmap) -> Bitmap {
        assert_eq!(self.len, other.len, "bitmap length mismatch");
        Bitmap {
            words: self.words.iter().zip(&other.words).map(|(a, b)| a & b).collect(),
            len: self.len,
        }
    }

    /// In-place `self &= other`.
    pub fn and_assign(&mut self, other: &Bitmap) {
        assert_eq!(self.len, other.len, "bitmap length mismatch");
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a &= b;
        }
    }

    /// True iff the two bitmaps share at least one set bit (early-exit).
    pub fn intersects(&self, other: &Bitmap) -> bool {
        assert_eq!(self.len, other.len, "bitmap length mismatch");
        self.words.iter().zip(&other.words).any(|(a, b)| a & b != 0)
    }

    /// In-place `self |= other`.
    pub fn or_assign(&mut self, other: &Bitmap) {
        assert_eq!(self.len, other.len, "bitmap length mismatch");
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a |= b;
        }
    }

    /// Iterate over the indices of set bits, ascending.
    pub fn iter_ones(&self) -> impl Iterator<Item = usize> + '_ {
        self.words.iter().enumerate().flat_map(|(wi, &w)| {
            let mut w = w;
            std::iter::from_fn(move || {
                if w == 0 {
                    None
                } else {
                    let b = w.trailing_zeros() as usize;
                    w &= w - 1;
                    Some(wi * 64 + b)
                }
            })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_get_count() {
        let mut b = Bitmap::zeros(130);
        assert_eq!(b.count(), 0);
        b.set(0);
        b.set(64);
        b.set(129);
        assert_eq!(b.count(), 3);
        assert!(b.get(64));
        assert!(!b.get(63));
    }

    #[test]
    fn and_and_count_agree() {
        let mut a = Bitmap::zeros(100);
        let mut b = Bitmap::zeros(100);
        for i in (0..100).step_by(2) {
            a.set(i);
        }
        for i in (0..100).step_by(3) {
            b.set(i);
        }
        let c = a.and(&b);
        assert_eq!(c.count(), 17); // multiples of 6 in 0..100
        assert!((0..100).all(|i| c.get(i) == (i % 6 == 0)));
        let mut d = a.clone();
        d.and_assign(&b);
        assert_eq!(d, c);
    }

    #[test]
    fn intersects_and_or() {
        let mut a = Bitmap::zeros(70);
        let mut b = Bitmap::zeros(70);
        a.set(3);
        b.set(65);
        assert!(!a.intersects(&b));
        b.set(3);
        assert!(a.intersects(&b));
        a.or_assign(&b);
        assert!(a.get(65));
        assert_eq!(a.count(), 2);
    }

    #[test]
    fn subset_relation() {
        let mut a = Bitmap::zeros(70);
        let mut b = Bitmap::zeros(70);
        a.set(3);
        a.set(65);
        b.set(3);
        b.set(65);
        b.set(10);
        // `a ⊆ b` iff `a & b == a`.
        assert_eq!(a.and(&b), a);
        assert_ne!(b.and(&a), b);
    }

    #[test]
    fn iter_ones_ascending() {
        let mut a = Bitmap::zeros(200);
        for i in [5usize, 63, 64, 127, 128, 199] {
            a.set(i);
        }
        let got: Vec<usize> = a.iter_ones().collect();
        assert_eq!(got, vec![5, 63, 64, 127, 128, 199]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn set_out_of_range_panics() {
        Bitmap::zeros(10).set(10);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn and_length_mismatch_panics() {
        Bitmap::zeros(10).and(&Bitmap::zeros(11));
    }
}
