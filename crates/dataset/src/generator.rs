//! Seeded synthetic generator reproducing the paper's published marginals.
//!
//! Pipeline (a bipartite configuration model):
//!
//! 1. Draw user degrees `min_degree + Exp(mean_extra_degree)` (heavy-ish
//!    activity tail) and item degrees proportional to Zipf weights with a
//!    floor of `min_degree`, rebalanced so both sides have equal stubs.
//! 2. Match stubs uniformly at random; duplicate (user, item) pairs are
//!    dropped.
//! 3. Apply the paper's iterative k-core trim (degree ≥ `min_degree`).
//! 4. Assign each item a rating profile drawn from a Dirichlet centred on
//!    the paper's global star histogram (3/5/13/29/49%), then sample each
//!    rating's stars from its item's profile. Per-item heterogeneity is what
//!    makes optimal pricing differ across items.
//! 5. Assign listed prices from the paper's bucket histogram
//!    (~50% < $10, ~45% $10–20, remainder above $20).

use crate::stats::{dirichlet, exponential, zipf_weights, WeightedSampler};
use crate::{kcore, Rating, RatingsData};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// Configuration for the Amazon-Books-like synthetic dataset.
#[derive(Debug, Clone)]
pub struct AmazonBooksConfig {
    /// Users to generate before trimming.
    pub n_users: usize,
    /// Items to generate before trimming.
    pub n_items: usize,
    /// k-core threshold (the paper uses 10).
    pub min_degree: usize,
    /// Mean of the exponential activity tail above `min_degree`.
    pub mean_extra_degree: f64,
    /// Zipf exponent for item popularity (0 = uniform).
    pub zipf_exponent: f64,
    /// Global star histogram for ratings 1..=5 (fractions, sum 1).
    pub rating_histogram: [f64; 5],
    /// Dirichlet concentration: higher = items closer to the global
    /// histogram; lower = more heterogeneous items.
    pub rating_concentration: f64,
    /// Fractions of items per price bucket.
    pub price_bucket_fractions: [f64; 3],
    /// Price ranges (low, high) per bucket, dollars.
    pub price_bucket_ranges: [(f64, f64); 3],
}

impl AmazonBooksConfig {
    /// The paper's scale: targets 4,449 users × 5,028 items × 108,291
    /// ratings after the 10-core trim. Degrees are padded a little so the
    /// post-trim counts land near the targets.
    pub fn paper() -> Self {
        AmazonBooksConfig {
            n_users: 4_550,
            n_items: 5_150,
            min_degree: 10,
            mean_extra_degree: 14.6,
            zipf_exponent: 0.62,
            rating_histogram: [0.03, 0.05, 0.13, 0.29, 0.49],
            rating_concentration: 9.0,
            price_bucket_fractions: [0.51, 0.45, 0.04],
            price_bucket_ranges: [(2.99, 9.99), (10.0, 19.99), (20.0, 34.99)],
        }
    }

    /// A fast, small instance with the same shape, for unit tests and
    /// examples (4-core, a few hundred ratings).
    pub fn small() -> Self {
        AmazonBooksConfig {
            n_users: 120,
            n_items: 60,
            min_degree: 4,
            mean_extra_degree: 5.0,
            zipf_exponent: 0.62,
            ..Self::paper()
        }
    }

    /// A mid-size instance: large enough for the shapes of the paper's
    /// figures to show, small enough for debug-build tests.
    pub fn medium() -> Self {
        AmazonBooksConfig {
            n_users: 900,
            n_items: 500,
            min_degree: 6,
            mean_extra_degree: 9.0,
            ..Self::paper()
        }
    }

    /// Generate a dataset. Deterministic in (config, seed).
    pub fn generate(&self, seed: u64) -> RatingsData {
        assert!(self.n_users > 0 && self.n_items > 0, "empty config");
        // The paper's published histogram (3/5/13/29/49%) sums to 99% due to
        // rounding; normalize rather than reject.
        let hist_total: f64 = self.rating_histogram.iter().sum();
        assert!(hist_total > 0.0, "rating histogram must have positive mass");
        let hist: [f64; 5] = std::array::from_fn(|k| self.rating_histogram[k] / hist_total);
        let mut rng = StdRng::seed_from_u64(seed);

        // --- 1. Degree sequences -------------------------------------------------
        let user_deg: Vec<usize> = (0..self.n_users)
            .map(|_| {
                self.min_degree + exponential(&mut rng, self.mean_extra_degree).round() as usize
            })
            .collect();
        let total_stubs: usize = user_deg.iter().sum();
        assert!(
            total_stubs >= self.n_items * self.min_degree,
            "config infeasible: {} user stubs cannot give {} items degree {}",
            total_stubs,
            self.n_items,
            self.min_degree
        );
        let zipf = zipf_weights(self.n_items, self.zipf_exponent);
        let zipf_total: f64 = zipf.iter().sum();
        let mut item_deg: Vec<usize> = zipf
            .iter()
            .map(|w| ((w / zipf_total * total_stubs as f64).round() as usize).max(self.min_degree))
            .collect();
        // Rebalance item stubs to exactly match user stubs.
        let mut diff = item_deg.iter().sum::<usize>() as i64 - total_stubs as i64;
        while diff != 0 {
            let i = rng.random_range(0..self.n_items);
            if diff > 0 {
                if item_deg[i] > self.min_degree {
                    item_deg[i] -= 1;
                    diff -= 1;
                }
            } else {
                item_deg[i] += 1;
                diff += 1;
            }
        }

        // --- 2. Stub matching ----------------------------------------------------
        let mut user_stubs: Vec<u32> = Vec::with_capacity(total_stubs);
        for (u, &d) in user_deg.iter().enumerate() {
            user_stubs.extend(std::iter::repeat_n(u as u32, d));
        }
        let mut item_stubs: Vec<u32> = Vec::with_capacity(total_stubs);
        for (i, &d) in item_deg.iter().enumerate() {
            item_stubs.extend(std::iter::repeat_n(i as u32, d));
        }
        user_stubs.shuffle(&mut rng);
        item_stubs.shuffle(&mut rng);
        let mut seen = std::collections::HashSet::with_capacity(total_stubs);
        let mut edges: Vec<(u32, u32)> = Vec::with_capacity(total_stubs);
        for (&u, &i) in user_stubs.iter().zip(&item_stubs) {
            if seen.insert((u, i)) {
                edges.push((u, i));
            }
        }

        // --- 3. k-core trim ------------------------------------------------------
        let raw: Vec<Rating> =
            edges.iter().map(|&(u, i)| Rating { user: u, item: i, stars: 5 }).collect();
        let core = kcore::trim(self.n_users, self.n_items, &raw, self.min_degree);
        let n_users = core.kept_users.len();
        let n_items = core.kept_items.len();

        // --- 4. Stars from per-item Dirichlet profiles ---------------------------
        let alpha: Vec<f64> = hist.iter().map(|h| h * self.rating_concentration).collect();
        let profiles: Vec<WeightedSampler> =
            (0..n_items).map(|_| WeightedSampler::new(&dirichlet(&mut rng, &alpha))).collect();
        let ratings: Vec<Rating> = core
            .ratings
            .iter()
            .map(|r| Rating {
                user: r.user,
                item: r.item,
                stars: profiles[r.item as usize].sample(&mut rng) as u8 + 1,
            })
            .collect();

        // --- 5. Prices -----------------------------------------------------------
        let bucket_sampler = WeightedSampler::new(&self.price_bucket_fractions);
        let prices: Vec<f64> = (0..n_items)
            .map(|_| {
                let b = bucket_sampler.sample(&mut rng);
                let (lo, hi) = self.price_bucket_ranges[b];
                // Round to cents for realistic price points.
                (rng.random_range(lo..=hi) * 100.0).round() / 100.0
            })
            .collect();

        RatingsData::new(n_users, n_items, ratings, prices)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_under_seed() {
        let a = AmazonBooksConfig::small().generate(123);
        let b = AmazonBooksConfig::small().generate(123);
        assert_eq!(a, b);
        let c = AmazonBooksConfig::small().generate(124);
        assert_ne!(a.ratings(), c.ratings());
    }

    #[test]
    fn small_respects_min_degree() {
        let d = AmazonBooksConfig::small().generate(1);
        let s = d.summary();
        assert!(s.min_user_degree >= 4, "min user degree {}", s.min_user_degree);
        assert!(s.min_item_degree >= 4, "min item degree {}", s.min_item_degree);
    }

    #[test]
    fn star_histogram_tracks_target() {
        let d = AmazonBooksConfig::medium().generate(7);
        let f = d.summary().star_fractions();
        let target = [0.03, 0.05, 0.13, 0.29, 0.49];
        for k in 0..5 {
            assert!(
                (f[k] - target[k]).abs() < 0.04,
                "star {k}: got {:.3}, want {:.3}",
                f[k],
                target[k]
            );
        }
    }

    #[test]
    fn price_buckets_track_target() {
        let d = AmazonBooksConfig::medium().generate(9);
        let f = d.summary().price_fractions();
        assert!((f[0] - 0.51).abs() < 0.08, "bucket0 {}", f[0]);
        assert!((f[1] - 0.45).abs() < 0.08, "bucket1 {}", f[1]);
        assert!(f[2] < 0.12, "bucket2 {}", f[2]);
        assert!(d.prices().iter().all(|&p| p > 0.0 && p < 35.0));
    }

    #[test]
    fn items_are_heterogeneous() {
        // With finite concentration, per-item mean stars must vary: that is
        // the property giving per-item price discrimination any bite.
        let d = AmazonBooksConfig::medium().generate(11);
        let mut sum = vec![0.0f64; d.n_items()];
        let mut cnt = vec![0usize; d.n_items()];
        for r in d.ratings() {
            sum[r.item as usize] += r.stars as f64;
            cnt[r.item as usize] += 1;
        }
        let means: Vec<f64> =
            sum.iter().zip(&cnt).filter(|(_, &c)| c > 0).map(|(s, &c)| s / c as f64).collect();
        let lo = means.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = means.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        assert!(hi - lo > 0.5, "item mean stars range too narrow: {lo}..{hi}");
    }

    #[test]
    #[should_panic(expected = "infeasible")]
    fn infeasible_config_panics() {
        let cfg = AmazonBooksConfig {
            n_users: 2,
            n_items: 100,
            min_degree: 10,
            mean_extra_degree: 0.1,
            ..AmazonBooksConfig::small()
        };
        cfg.generate(0);
    }
}
