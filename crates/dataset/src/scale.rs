//! Dataset scaling utilities for the scalability experiments (Figure 7) and
//! the weighted-set-packing comparison (Tables 4–5).

use crate::{Rating, RatingsData};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// Checked id-space scaling: `count × factor` must stay addressable by
/// `u32` ids. Verified **before** any allocation, so an absurd factor
/// fails with a clear message naming it instead of attempting a
/// multi-terabyte reserve (or, worse, the silent `as u32` truncation this
/// replaces — cloned ids used to wrap past `u32::MAX` and collide at
/// exactly the scales the serving benchmarks target).
fn checked_scaled_ids(what: &str, count: usize, factor: usize) -> usize {
    count.checked_mul(factor).filter(|&total| total <= u32::MAX as usize).unwrap_or_else(|| {
        panic!(
            "clone factor {factor} overflows u32 {what} ids: \
                 {count} {what}s x {factor} copies > u32::MAX"
        )
    })
}

/// Clone every user `factor` times (Figure 7a's "multiplication factor":
/// factor 2 = 200% = twice as many users, identical ratings per clone).
/// `factor` must be ≥ 1; factor 1 returns an identical dataset. Panics —
/// before allocating — when the scaled user ids would not fit in `u32`.
pub fn clone_users(data: &RatingsData, factor: usize) -> RatingsData {
    assert!(factor >= 1, "factor must be >= 1");
    let n_users = checked_scaled_ids("user", data.n_users(), factor);
    // Copy k's users follow copy k-1's, so the (user, item) order of
    // `data` carries over and `RatingsData::new` keeps it without a sort.
    let mut ratings = Vec::with_capacity(data.ratings().len() * factor);
    for copy in 0..factor {
        let offset = (copy * data.n_users()) as u32;
        ratings.extend(data.ratings().iter().map(|r| Rating { user: r.user + offset, ..*r }));
    }
    RatingsData::new(n_users, data.n_items(), ratings, data.prices().to_vec())
}

/// Clone every item `factor` times (used for item-axis scalability beyond
/// the base size; clones keep their price and their raters). Panics —
/// before allocating — when the scaled item ids would not fit in `u32`.
pub fn clone_items(data: &RatingsData, factor: usize) -> RatingsData {
    assert!(factor >= 1, "factor must be >= 1");
    let n_items = checked_scaled_ids("item", data.n_items(), factor);
    let mut ratings = Vec::with_capacity(data.ratings().len() * factor);
    for copy in 0..factor {
        let offset = (copy * data.n_items()) as u32;
        for r in data.ratings() {
            ratings.push(Rating { user: r.user, item: r.item + offset, stars: r.stars });
        }
    }
    let mut prices = Vec::with_capacity(n_items);
    for _ in 0..factor {
        prices.extend_from_slice(data.prices());
    }
    RatingsData::new(data.n_users(), n_items, ratings, prices)
}

/// Keep a uniformly random subset of `n` items (all users retained, as in
/// the paper's Tables 4–5 protocol: "we randomly select N items from the
/// universal set of 5,028 items, but include all the users").
///
/// Users who rated none of the sampled items simply have empty rows.
pub fn sample_items(data: &RatingsData, n: usize, seed: u64) -> RatingsData {
    assert!(n <= data.n_items(), "cannot sample {n} of {} items", data.n_items());
    let mut rng = StdRng::seed_from_u64(seed);
    let mut ids: Vec<u32> = (0..data.n_items() as u32).collect();
    ids.shuffle(&mut rng);
    ids.truncate(n);
    ids.sort_unstable();
    keep_items(data, &ids)
}

/// Sample `n` items by growing a co-rating neighbourhood: start from a
/// random seed item, then repeatedly draw the next item from those sharing
/// at least one rater with the current sample (falling back to uniform when
/// the frontier is exhausted). All users are retained.
///
/// Rationale: the paper's Tables 4–5 protocol draws N random items and
/// keeps only samples where bundles of size ≥ 3 form. On the real Amazon
/// data random items still share genre communities; on a synthetic
/// catalogue with Zipf-random co-rating, uniformly random tuples almost
/// never co-rate, so the protocol needs locality-aware sampling to produce
/// comparable substructure (a "related inventory", as a real seller would
/// bundle). See EXPERIMENTS.md.
pub fn sample_items_correlated(data: &RatingsData, n: usize, seed: u64) -> RatingsData {
    assert!(n <= data.n_items(), "cannot sample {n} of {} items", data.n_items());
    let mut rng = StdRng::seed_from_u64(seed);
    // user -> items, item -> users.
    let user_items = data.user_items();
    let mut item_users: Vec<Vec<u32>> = vec![Vec::new(); data.n_items()];
    for r in data.ratings() {
        item_users[r.item as usize].push(r.user);
    }
    let mut selected: Vec<u32> = Vec::with_capacity(n);
    let mut in_sample = vec![false; data.n_items()];
    let mut frontier: Vec<u32> = Vec::new(); // co-rated, not yet selected
    let mut in_frontier = vec![false; data.n_items()];
    let seed_item = rng.random_range(0..data.n_items() as u32);
    let add = |item: u32,
               selected: &mut Vec<u32>,
               frontier: &mut Vec<u32>,
               in_sample: &mut Vec<bool>,
               in_frontier: &mut Vec<bool>| {
        selected.push(item);
        in_sample[item as usize] = true;
        for &u in &item_users[item as usize] {
            for &other in &user_items[u as usize] {
                if !in_sample[other as usize] && !in_frontier[other as usize] {
                    in_frontier[other as usize] = true;
                    frontier.push(other);
                }
            }
        }
    };
    add(seed_item, &mut selected, &mut frontier, &mut in_sample, &mut in_frontier);
    while selected.len() < n {
        // Drop already-selected entries lazily.
        while let Some(&last) = frontier.last() {
            if in_sample[last as usize] {
                frontier.pop();
            } else {
                break;
            }
        }
        let next = if frontier.is_empty() {
            // Uniform fallback.
            loop {
                let cand = rng.random_range(0..data.n_items() as u32);
                if !in_sample[cand as usize] {
                    break cand;
                }
            }
        } else {
            let k = rng.random_range(0..frontier.len());
            let cand = frontier.swap_remove(k);
            if in_sample[cand as usize] {
                continue;
            }
            cand
        };
        add(next, &mut selected, &mut frontier, &mut in_sample, &mut in_frontier);
    }
    selected.sort_unstable();
    keep_items(data, &selected)
}

/// Keep only the listed (original-id) items, remapping them densely in the
/// given order. All users are retained.
pub fn keep_items(data: &RatingsData, keep: &[u32]) -> RatingsData {
    let mut map = std::collections::HashMap::with_capacity(keep.len());
    for (new, &old) in keep.iter().enumerate() {
        assert!((old as usize) < data.n_items(), "item {old} out of range");
        let prev = map.insert(old, new as u32);
        assert!(prev.is_none(), "duplicate item {old} in keep list");
    }
    let ratings: Vec<Rating> = data
        .ratings()
        .iter()
        .filter_map(|r| {
            map.get(&r.item).map(|&ni| Rating { user: r.user, item: ni, stars: r.stars })
        })
        .collect();
    let prices: Vec<f64> = keep.iter().map(|&i| data.price(i)).collect();
    RatingsData::new(data.n_users(), keep.len(), ratings, prices)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::AmazonBooksConfig;

    fn base() -> RatingsData {
        AmazonBooksConfig::small().generate(5)
    }

    #[test]
    fn clone_users_scales_counts() {
        let d = base();
        let c = clone_users(&d, 3);
        assert_eq!(c.n_users(), 3 * d.n_users());
        assert_eq!(c.n_items(), d.n_items());
        assert_eq!(c.ratings().len(), 3 * d.ratings().len());
        // Clone 2's ratings mirror the originals.
        let orig = d.ratings()[0];
        let shifted =
            Rating { user: orig.user + d.n_users() as u32, item: orig.item, stars: orig.stars };
        assert!(c.ratings().contains(&shifted));
    }

    #[test]
    fn clone_users_factor_one_is_identity() {
        let d = base();
        assert_eq!(clone_users(&d, 1), d);
    }

    #[test]
    fn clone_users_equals_the_push_loop_reference() {
        let d = base();
        let mut ratings = Vec::new();
        for copy in 0..3u32 {
            for r in d.ratings() {
                let user = r.user + copy * d.n_users() as u32;
                ratings.push(Rating { user, item: r.item, stars: r.stars });
            }
        }
        let reference =
            RatingsData::new(3 * d.n_users(), d.n_items(), ratings.clone(), d.prices().to_vec());
        assert_eq!(clone_users(&d, 3), reference);
        // The same ratings arriving in reverse take the sort path to the same data.
        ratings.reverse();
        assert_eq!(
            RatingsData::new(3 * d.n_users(), d.n_items(), ratings, d.prices().to_vec()),
            reference
        );
    }

    #[test]
    fn clone_items_scales_counts() {
        let d = base();
        let c = clone_items(&d, 2);
        assert_eq!(c.n_items(), 2 * d.n_items());
        assert_eq!(c.ratings().len(), 2 * d.ratings().len());
        assert_eq!(c.prices()[d.n_items()], d.prices()[0]);
    }

    #[test]
    fn sample_items_keeps_all_users() {
        let d = base();
        let s = sample_items(&d, 10, 42);
        assert_eq!(s.n_items(), 10);
        assert_eq!(s.n_users(), d.n_users());
        assert!(s.ratings().len() < d.ratings().len());
        // Deterministic.
        assert_eq!(sample_items(&d, 10, 42), s);
    }

    #[test]
    fn correlated_sampling_is_denser_than_uniform() {
        let d = AmazonBooksConfig::medium().generate(21);
        let corr = sample_items_correlated(&d, 12, 7);
        assert_eq!(corr.n_items(), 12);
        assert_eq!(corr.n_users(), d.n_users());
        // Deterministic.
        assert_eq!(sample_items_correlated(&d, 12, 7), corr);
        // Averaged over seeds, the correlated sample retains more ratings
        // (co-rated neighbourhoods) than the uniform sample. Per-seed
        // outcomes are noisy (either sampler can win on a single draw), so
        // average over enough seeds for the directional claim to be stable.
        let mut corr_total = 0usize;
        let mut unif_total = 0usize;
        for seed in 0..32 {
            corr_total += sample_items_correlated(&d, 12, seed).ratings().len();
            unif_total += sample_items(&d, 12, seed).ratings().len();
        }
        assert!(
            corr_total > unif_total,
            "correlated {corr_total} not denser than uniform {unif_total}"
        );
    }

    #[test]
    #[should_panic(expected = "clone factor 4294967295 overflows u32 user ids")]
    fn clone_users_rejects_id_overflow_before_allocating() {
        // Regression: the id offset was computed as `(copy * n) as u32`,
        // silently truncating past u32::MAX and colliding clone ids. The
        // check is pure id arithmetic and fires before any allocation, so
        // this test is cheap despite the absurd factor.
        let d = RatingsData::new(2, 1, vec![Rating { user: 0, item: 0, stars: 5 }], vec![1.0]);
        let _ = clone_users(&d, u32::MAX as usize);
    }

    #[test]
    #[should_panic(expected = "clone factor 2147483648 overflows u32 item ids")]
    fn clone_items_rejects_id_overflow_before_allocating() {
        let d = RatingsData::new(1, 3, vec![Rating { user: 0, item: 2, stars: 4 }], vec![1.0; 3]);
        let _ = clone_items(&d, (u32::MAX as usize).div_ceil(2));
    }

    #[test]
    fn clone_users_accepts_the_largest_in_range_factor_check() {
        // The guard is exact: count × factor == u32::MAX is still legal.
        assert_eq!(checked_scaled_ids("user", 3, u32::MAX as usize / 3), 4_294_967_295);
    }

    #[test]
    fn keep_items_remaps_in_order() {
        let d = base();
        let keep = vec![3u32, 7, 11];
        let s = keep_items(&d, &keep);
        assert_eq!(s.n_items(), 3);
        assert_eq!(s.price(0), d.price(3));
        assert_eq!(s.price(2), d.price(11));
    }

    #[test]
    #[should_panic(expected = "duplicate item")]
    fn keep_items_rejects_duplicates() {
        keep_items(&base(), &[1, 1]);
    }
}
