//! Bundles: sorted, duplicate-free item sets.

/// A bundle of items, kept sorted and duplicate-free. Size-1 bundles
/// represent individual components on sale.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Bundle {
    items: Vec<u32>,
}

impl Bundle {
    /// Singleton bundle.
    pub fn single(item: u32) -> Self {
        Bundle { items: vec![item] }
    }

    /// Build from arbitrary item ids (sorted and deduplicated; must end up
    /// non-empty).
    pub fn new(mut items: Vec<u32>) -> Self {
        items.sort_unstable();
        items.dedup();
        assert!(!items.is_empty(), "bundles must contain at least one item");
        Bundle { items }
    }

    /// Union of two bundles (the merge operation of both algorithms).
    pub fn union(&self, other: &Bundle) -> Bundle {
        let mut items = Vec::with_capacity(self.items.len() + other.items.len());
        let (mut a, mut b) = (self.items.iter().peekable(), other.items.iter().peekable());
        loop {
            match (a.peek(), b.peek()) {
                (Some(&&x), Some(&&y)) => {
                    if x < y {
                        items.push(x);
                        a.next();
                    } else if y < x {
                        items.push(y);
                        b.next();
                    } else {
                        items.push(x);
                        a.next();
                        b.next();
                    }
                }
                (Some(&&x), None) => {
                    items.push(x);
                    a.next();
                }
                (None, Some(&&y)) => {
                    items.push(y);
                    b.next();
                }
                (None, None) => break,
            }
        }
        Bundle { items }
    }

    /// Item ids, strictly increasing.
    pub fn items(&self) -> &[u32] {
        &self.items
    }

    /// Number of items.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Bundles are never empty; this exists for clippy's sake.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Membership test (binary search).
    pub fn contains(&self, item: u32) -> bool {
        self.items.binary_search(&item).is_ok()
    }

    /// Is `self` a subset of `other`?
    pub fn is_subset_of(&self, other: &Bundle) -> bool {
        let mut j = 0;
        for &x in &self.items {
            while j < other.items.len() && other.items[j] < x {
                j += 1;
            }
            if j >= other.items.len() || other.items[j] != x {
                return false;
            }
        }
        true
    }
}

impl std::fmt::Display for Bundle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{{")?;
        for (k, i) in self.items.iter().enumerate() {
            if k > 0 {
                write!(f, ",")?;
            }
            write!(f, "{i}")?;
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_sorts_and_dedups() {
        let b = Bundle::new(vec![3, 1, 3, 2]);
        assert_eq!(b.items(), &[1, 2, 3]);
        assert_eq!(b.len(), 3);
    }

    #[test]
    fn union_merges() {
        let a = Bundle::new(vec![1, 3, 5]);
        let b = Bundle::new(vec![2, 3, 6]);
        assert_eq!(a.union(&b).items(), &[1, 2, 3, 5, 6]);
    }

    #[test]
    fn intersects_and_subset() {
        let a = Bundle::new(vec![1, 3]);
        let b = Bundle::new(vec![3, 4]);
        let c = Bundle::new(vec![4, 5]);
        // Intersecting bundles union to fewer items than their sizes add to.
        assert_eq!(a.union(&b).len(), 3);
        assert_eq!(a.union(&c).len(), 4);
        assert!(Bundle::single(3).is_subset_of(&a));
        assert!(!a.is_subset_of(&b));
        assert!(a.is_subset_of(&Bundle::new(vec![1, 2, 3])));
    }

    #[test]
    fn display() {
        assert_eq!(Bundle::new(vec![2, 1]).to_string(), "{1,2}");
    }

    #[test]
    #[should_panic(expected = "at least one item")]
    fn rejects_empty() {
        Bundle::new(vec![]);
    }
}
