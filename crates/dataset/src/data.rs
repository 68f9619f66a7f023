//! Core data types: ratings, prices, and summary statistics.

/// One star rating: user `u` rated item `i` with `stars` in 1..=5.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Rating {
    pub user: u32,
    pub item: u32,
    pub stars: u8,
}

/// A ratings dataset with per-item listed prices.
///
/// Invariants (enforced by [`RatingsData::try_new`]): user/item ids are dense in
/// `0..n_users` / `0..n_items`, stars are in 1..=5, prices are finite and
/// positive with one entry per item, and (user, item) pairs are unique.
#[derive(Debug, Clone, PartialEq)]
pub struct RatingsData {
    n_users: usize,
    n_items: usize,
    ratings: Vec<Rating>,
    prices: Vec<f64>,
}

impl RatingsData {
    /// Construct and validate, panicking with [`RatingsData::try_new`]'s
    /// message on any invariant violation.
    pub fn new(n_users: usize, n_items: usize, ratings: Vec<Rating>, prices: Vec<f64>) -> Self {
        // Checked here too so the panic keeps `assert_eq!`'s message.
        assert_eq!(prices.len(), n_items, "one price per item required");
        Self::try_new(n_users, n_items, ratings, prices).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Construct and validate. Ratings are sorted (user, item) for
    /// determinism. Returns the first invariant violation found as an
    /// error message.
    ///
    /// One pass checks every rating and whether the list already ascends
    /// strictly in (user, item), as `clone_users`' output does; such input
    /// is kept as it is. Input out of order costs a stable sort and an
    /// adjacent-duplicate scan on top.
    pub fn try_new(
        n_users: usize,
        n_items: usize,
        mut ratings: Vec<Rating>,
        prices: Vec<f64>,
    ) -> Result<Self, String> {
        if prices.len() != n_items {
            return Err(format!(
                "one price per item required: {} prices for {n_items} items",
                prices.len()
            ));
        }
        if let Some(p) = prices.iter().find(|p| !(p.is_finite() && **p > 0.0)) {
            return Err(format!("prices must be positive and finite, got {p}"));
        }
        let mut ascending = true;
        let mut prev: Option<(u32, u32)> = None;
        for r in &ratings {
            if r.user as usize >= n_users {
                return Err(format!("user {} out of range", r.user));
            }
            if r.item as usize >= n_items {
                return Err(format!("item {} out of range", r.item));
            }
            if !(1..=5).contains(&r.stars) {
                return Err(format!("stars {} out of 1..=5", r.stars));
            }
            let key = (r.user, r.item);
            ascending &= prev.is_none_or(|p| p < key);
            prev = Some(key);
        }
        if !ascending {
            ratings.sort_by_key(|r| (r.user, r.item));
            let key = |r: &Rating| (r.user, r.item);
            if let Some(w) = ratings.windows(2).find(|w| key(&w[0]) == key(&w[1])) {
                return Err(format!(
                    "duplicate rating for (user {}, item {})",
                    w[0].user, w[0].item
                ));
            }
        }
        Ok(RatingsData { n_users, n_items, ratings, prices })
    }

    pub fn n_users(&self) -> usize {
        self.n_users
    }

    pub fn n_items(&self) -> usize {
        self.n_items
    }

    /// All ratings, sorted by (user, item).
    pub fn ratings(&self) -> &[Rating] {
        &self.ratings
    }

    /// Ratings as `(user, item, stars)` triples, sorted by (user, item):
    /// the exact-size stream `WtpMatrix::from_ratings` feeds straight into
    /// its CSR builder.
    pub fn triples(&self) -> impl ExactSizeIterator<Item = (u32, u32, u8)> + '_ {
        self.ratings.iter().map(|r| (r.user, r.item, r.stars))
    }

    /// Listed price of each item.
    pub fn prices(&self) -> &[f64] {
        &self.prices
    }

    /// Listed price of one item.
    pub fn price(&self, item: u32) -> f64 {
        self.prices[item as usize]
    }

    /// Per-user item lists (the "transactions" view used by the frequent
    /// itemset baselines).
    pub fn user_items(&self) -> Vec<Vec<u32>> {
        let mut out = vec![Vec::new(); self.n_users];
        for r in &self.ratings {
            out[r.user as usize].push(r.item);
        }
        out
    }

    /// Summary statistics (used to validate the generator against the
    /// paper's published marginals).
    pub fn summary(&self) -> DatasetSummary {
        let mut star_hist = [0usize; 5];
        let mut user_deg = vec![0usize; self.n_users];
        let mut item_deg = vec![0usize; self.n_items];
        for r in &self.ratings {
            star_hist[(r.stars - 1) as usize] += 1;
            user_deg[r.user as usize] += 1;
            item_deg[r.item as usize] += 1;
        }
        let price_hist = {
            let mut h = [0usize; 3];
            for &p in &self.prices {
                if p < 10.0 {
                    h[0] += 1;
                } else if p <= 20.0 {
                    h[1] += 1;
                } else {
                    h[2] += 1;
                }
            }
            h
        };
        DatasetSummary {
            n_users: self.n_users,
            n_items: self.n_items,
            n_ratings: self.ratings.len(),
            star_hist,
            price_hist,
            min_user_degree: user_deg.iter().copied().min().unwrap_or(0),
            min_item_degree: item_deg.iter().copied().min().unwrap_or(0),
            mean_user_degree: self.ratings.len() as f64 / self.n_users.max(1) as f64,
            mean_item_degree: self.ratings.len() as f64 / self.n_items.max(1) as f64,
        }
    }
}

/// Aggregate statistics of a [`RatingsData`].
#[derive(Debug, Clone, PartialEq)]
pub struct DatasetSummary {
    pub n_users: usize,
    pub n_items: usize,
    pub n_ratings: usize,
    /// Counts of 1..5 star ratings.
    pub star_hist: [usize; 5],
    /// Item counts by price bucket: `< $10`, `$10–20`, `> $20`.
    pub price_hist: [usize; 3],
    pub min_user_degree: usize,
    pub min_item_degree: usize,
    pub mean_user_degree: f64,
    pub mean_item_degree: f64,
}

impl DatasetSummary {
    /// Star histogram as fractions.
    pub fn star_fractions(&self) -> [f64; 5] {
        let n = self.n_ratings.max(1) as f64;
        std::array::from_fn(|k| self.star_hist[k] as f64 / n)
    }

    /// Price histogram as fractions.
    pub fn price_fractions(&self) -> [f64; 3] {
        let n = self.n_items.max(1) as f64;
        std::array::from_fn(|k| self.price_hist[k] as f64 / n)
    }
}

impl std::fmt::Display for DatasetSummary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let sf = self.star_fractions();
        let pf = self.price_fractions();
        writeln!(
            f,
            "users: {}  items: {}  ratings: {}",
            self.n_users, self.n_items, self.n_ratings
        )?;
        writeln!(
            f,
            "stars 1..5: {:.1}% {:.1}% {:.1}% {:.1}% {:.1}%",
            sf[0] * 100.0,
            sf[1] * 100.0,
            sf[2] * 100.0,
            sf[3] * 100.0,
            sf[4] * 100.0
        )?;
        writeln!(
            f,
            "prices: {:.1}% < $10, {:.1}% $10-20, {:.1}% > $20",
            pf[0] * 100.0,
            pf[1] * 100.0,
            pf[2] * 100.0
        )?;
        write!(
            f,
            "degrees: user >= {} (mean {:.1}), item >= {} (mean {:.1})",
            self.min_user_degree,
            self.mean_user_degree,
            self.min_item_degree,
            self.mean_item_degree
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> RatingsData {
        RatingsData::new(
            2,
            2,
            vec![
                Rating { user: 0, item: 0, stars: 5 },
                Rating { user: 0, item: 1, stars: 3 },
                Rating { user: 1, item: 1, stars: 1 },
            ],
            vec![9.99, 15.0],
        )
    }

    #[test]
    fn summary_counts() {
        let s = tiny().summary();
        assert_eq!(s.n_ratings, 3);
        assert_eq!(s.star_hist, [1, 0, 1, 0, 1]);
        assert_eq!(s.price_hist, [1, 1, 0]);
        assert_eq!(s.min_user_degree, 1);
        assert_eq!(s.mean_user_degree, 1.5);
    }

    #[test]
    fn user_items_view() {
        assert_eq!(tiny().user_items(), vec![vec![0, 1], vec![1]]);
    }

    #[test]
    #[should_panic(expected = "duplicate rating")]
    fn rejects_duplicates() {
        RatingsData::new(
            1,
            1,
            vec![Rating { user: 0, item: 0, stars: 5 }, Rating { user: 0, item: 0, stars: 4 }],
            vec![1.0],
        );
    }

    fn rating(user: u32, item: u32, stars: u8) -> Rating {
        Rating { user, item, stars }
    }

    #[test]
    fn new_sorts_unsorted_input() {
        let d = RatingsData::new(
            3,
            2,
            vec![rating(2, 0, 1), rating(0, 1, 3), rating(1, 1, 4), rating(0, 0, 5)],
            vec![1.0, 2.0],
        );
        let order: Vec<(u32, u32)> = d.ratings().iter().map(|r| (r.user, r.item)).collect();
        assert_eq!(order, vec![(0, 0), (0, 1), (1, 1), (2, 0)]);
        assert_eq!(d.ratings()[0].stars, 5);
    }

    #[test]
    #[should_panic(expected = "duplicate rating for (user 0, item 1)")]
    fn rejects_a_duplicate_in_sorted_input() {
        RatingsData::new(
            2,
            2,
            vec![rating(0, 0, 5), rating(0, 1, 3), rating(0, 1, 4), rating(1, 0, 2)],
            vec![1.0, 2.0],
        );
    }

    #[test]
    #[should_panic(expected = "duplicate rating for (user 1, item 0)")]
    fn rejects_a_duplicate_in_unsorted_input() {
        RatingsData::new(
            2,
            2,
            vec![rating(1, 0, 5), rating(0, 1, 3), rating(1, 0, 4)],
            vec![1.0, 2.0],
        );
    }

    #[test]
    #[should_panic(expected = "stars")]
    fn rejects_bad_stars() {
        RatingsData::new(1, 1, vec![Rating { user: 0, item: 0, stars: 6 }], vec![1.0]);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn rejects_bad_price() {
        RatingsData::new(1, 1, vec![], vec![0.0]);
    }

    #[test]
    fn try_new_returns_each_violation_as_an_error() {
        let r = |user, item, stars| Rating { user, item, stars };
        let build = |n_users, ratings, prices| RatingsData::try_new(n_users, 2, ratings, prices);
        let ok_prices = || vec![1.0, 2.0];
        assert_eq!(build(1, vec![r(1, 0, 3)], ok_prices()).unwrap_err(), "user 1 out of range");
        assert_eq!(build(1, vec![r(0, 2, 3)], ok_prices()).unwrap_err(), "item 2 out of range");
        assert_eq!(build(1, vec![r(0, 0, 0)], ok_prices()).unwrap_err(), "stars 0 out of 1..=5");
        assert_eq!(
            build(1, vec![], vec![1.0, f64::NAN]).unwrap_err(),
            "prices must be positive and finite, got NaN"
        );
        assert_eq!(
            build(1, vec![], vec![1.0]).unwrap_err(),
            "one price per item required: 1 prices for 2 items"
        );
        assert_eq!(
            build(1, vec![r(0, 0, 3), r(0, 0, 4)], ok_prices()).unwrap_err(),
            "duplicate rating for (user 0, item 0)"
        );
        assert_eq!(
            build(1, vec![r(0, 1, 3), r(0, 0, 4), r(0, 1, 5)], ok_prices()).unwrap_err(),
            "duplicate rating for (user 0, item 1)"
        );
        let good = build(1, vec![r(0, 1, 3), r(0, 0, 4)], ok_prices()).unwrap();
        assert_eq!(good, RatingsData::new(1, 2, vec![r(0, 0, 4), r(0, 1, 3)], ok_prices()));
    }
}
