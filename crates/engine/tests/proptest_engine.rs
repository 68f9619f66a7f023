//! Property suite for the sweep engine's solve cache (`DESIGN.md` §8):
//!
//! 1. A **cached sweep is bit-identical to a cold sweep** of the same
//!    spec — canonical `to_bits` serialization of every cell (revenues,
//!    prices, bundle trees, fingerprints) — across random grids with
//!    deliberately duplicated axis values.
//! 2. **Fingerprints separate solves**: two markets differing in any of
//!    (view restriction, θ, other params, dataset seed) fingerprint
//!    differently, and markets agreeing in all of them fingerprint
//!    equally — the exact invariant that makes a cache hit safe.

use proptest::prelude::*;
use revmax_core::market::Market;
use revmax_core::params::{Params, SizeCap, Threads};
use revmax_core::wtp::WtpMatrix;
use revmax_engine::{run_sweep, SweepSpec};

/// A random sweep spec over the tiny scale: 1–2 methods, θ and seed axes
/// with possible duplicates, 0–2 cohorts.
fn arb_spec() -> impl Strategy<Value = SweepSpec> {
    let method = (0usize..4).prop_map(|k| {
        ["Components", "Pure Matching", "Mixed Greedy", "Pure FreqItemset"][k].to_string()
    });
    (
        proptest::collection::vec(method, 1..=2),
        proptest::collection::vec(0u64..3, 1..=2), // seed pool: repeats likely
        proptest::collection::vec(0i32..=2, 1..=2), // θ in {0, 0.05, 0.10}
        0usize..=2,
    )
        .prop_map(|(methods, seeds, theta_raw, cohorts)| {
            let mut spec = SweepSpec {
                methods,
                seeds,
                cohorts,
                threads: Threads::Fixed(2),
                ..SweepSpec::default()
            };
            let thetas: Vec<String> =
                theta_raw.into_iter().map(|t| (t as f64 * 0.05).to_string()).collect();
            spec.apply("thetas", &thetas.join(",")).unwrap();
            spec.apply("scales", "tiny").unwrap();
            spec
        })
}

/// A small dense market derived from (seed, θ, params knobs, restriction):
/// the fingerprint test bed. All entries positive so any user/item subset
/// change is a content change.
fn market_for(seed: u64, theta: f64, lambda: f64, levels: usize, cap: SizeCap) -> Market {
    let rows: Vec<Vec<f64>> = (0..8u64)
        .map(|u| {
            (0..5u64)
                .map(|i| {
                    let h = seed
                        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                        .wrapping_add(u * 131 + i * 17)
                        .wrapping_mul(0xD134_2543_DE82_EF95);
                    ((h >> 32) % 1000 + 1) as f64 / 50.0
                })
                .collect()
        })
        .collect();
    let params = Params::default()
        .with_theta(theta)
        .with_lambda(lambda)
        .with_price_levels(levels)
        .with_size_cap(cap);
    Market::new(WtpMatrix::from_rows(rows), params)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn cached_sweep_bit_identical_to_cold_sweep(spec in arb_spec()) {
        let mut cached = spec.clone();
        cached.cache = true;
        let mut cold = spec;
        cold.cache = false;
        let warm_report = run_sweep(&cached).unwrap();
        let cold_report = run_sweep(&cold).unwrap();
        // Same cells, same bit-exact content; only cache placement and
        // wall clock may differ.
        prop_assert_eq!(warm_report.canonical(), cold_report.canonical());
        prop_assert_eq!(cold_report.cache.hits, 0);
        prop_assert_eq!(cold_report.cache.misses, cold_report.cells.len());
        // Every cell the warm run served from cache has a bit-identical
        // cold twin at the same grid position (canonical() already proves
        // this cell-by-cell; spot-check the revenue bits too).
        for (w, c) in warm_report.cells.iter().zip(&cold_report.cells) {
            prop_assert_eq!(w.revenue.to_bits(), c.revenue.to_bits());
            prop_assert_eq!(w.fingerprint, c.fingerprint);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn fingerprints_separate_solve_inputs(
        seed in 0u64..50,
        theta_raw in 0i32..=3,
        lambda_raw in 0i32..=2,
        levels in 1usize..=3,
        capped_raw in 0u32..2,
        drop_user in 0u32..8,
    ) {
        let theta = theta_raw as f64 * 0.05;
        let lambda = 1.0 + lambda_raw as f64 * 0.25;
        let levels = levels * 50;
        let capped = capped_raw == 1;
        let cap = if capped { SizeCap::AtMost(3) } else { SizeCap::Unlimited };
        let m = market_for(seed, theta, lambda, levels, cap);
        let fp = m.fingerprint();

        // Identical inputs → identical fingerprint (rebuilt from scratch).
        prop_assert_eq!(fp, market_for(seed, theta, lambda, levels, cap).fingerprint());

        // Different dataset seed → different WTP content → different fp.
        prop_assert_ne!(fp, market_for(seed + 50, theta, lambda, levels, cap).fingerprint());

        // Different θ / λ / T / size cap → different fp.
        prop_assert_ne!(fp, market_for(seed, theta + 0.01, lambda, levels, cap).fingerprint());
        prop_assert_ne!(fp, market_for(seed, theta, lambda + 0.01, levels, cap).fingerprint());
        prop_assert_ne!(fp, market_for(seed, theta, lambda, levels + 1, cap).fingerprint());
        let flipped = if capped { SizeCap::Unlimited } else { SizeCap::AtMost(3) };
        prop_assert_ne!(fp, market_for(seed, theta, lambda, levels, flipped).fingerprint());

        // User subsets: dropping any user changes the fp, and different
        // drops differ from each other.
        let users: Vec<u32> = (0..8u32).filter(|&u| u != drop_user).collect();
        let user_view = m.view(&users);
        prop_assert_ne!(fp, user_view.fingerprint());
        let other_users: Vec<u32> = (0..8u32).filter(|&u| u != (drop_user + 1) % 8).collect();
        prop_assert_ne!(user_view.fingerprint(), m.view(&other_users).fingerprint());
        // The thread knob never splits fingerprints (DESIGN.md §6).
        let threaded = Market::new(
            m.wtp().clone(),
            m.params().with_threads(Threads::Fixed(7)),
        );
        prop_assert_eq!(fp, threaded.fingerprint());
    }
}
