//! Integration tests: the paper's worked examples, end to end through the
//! public facade.

use revmax::core::prelude::*;

/// Table 1's WTP matrix.
fn table1_market(theta: f64) -> Market {
    let w = WtpMatrix::from_rows(vec![vec![12.0, 4.0], vec![8.0, 2.0], vec![5.0, 11.0]]);
    Market::new(w, Params::default().with_theta(theta))
}

#[test]
fn table1_components_is_27_dollars() {
    let out = Components::optimal().run(&table1_market(-0.05));
    assert!((out.revenue - 27.0).abs() < 1e-9);
    // pA = 8 (u1, u2), pB = 11 (u3).
    let prices: Vec<f64> = out.config.roots.iter().map(|r| r.price).collect();
    assert!(prices.contains(&8.0));
    assert!(prices.contains(&11.0));
}

#[test]
fn table1_pure_bundling_is_30_40_dollars() {
    let out = PureMatching::default().run(&table1_market(-0.05));
    assert!((out.revenue - 30.4).abs() < 1e-9);
    assert_eq!(out.config.roots.len(), 1);
    assert!((out.config.roots[0].price - 15.2).abs() < 1e-9);
}

#[test]
fn table1_bundle_wtps_match_paper() {
    // wu1,AB = wu3,AB = 15.20, wu2,AB = 9.50 at θ = −0.05.
    let m = table1_market(-0.05);
    let mut s = m.scratch();
    let wtps = m.bundle_wtps(&[0, 1], &mut s).to_vec();
    let mut sorted = wtps;
    sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
    assert!((sorted[0] - 9.5).abs() < 1e-9);
    assert!((sorted[1] - 15.2).abs() < 1e-9);
    assert!((sorted[2] - 15.2).abs() < 1e-9);
}

#[test]
fn section1_consumer_surplus_example() {
    // "u1 obtains a consumer surplus of $12 − $8 = $4."
    let m = table1_market(-0.05);
    let mut s = m.scratch();
    let priced = m.price_pure(&[0], &mut s);
    assert!((priced.price - 8.0).abs() < 1e-9);
    assert!((priced.surplus - 4.0).abs() < 1e-9);
}

#[test]
fn section42_upgrade_counterexample() {
    // pA=8, pB=8, pAB=15.2: u1 buys A alone even though w_AB >= p_AB.
    // Verified through a hand-built mixed configuration.
    use revmax::core::bundle::Bundle;
    use revmax::core::config::{BundleConfig, OfferNode, Strategy};
    let m = table1_market(-0.05);
    let config = BundleConfig {
        strategy: Strategy::Mixed,
        roots: vec![OfferNode {
            bundle: Bundle::new(vec![0, 1]),
            price: 15.2,
            children: vec![
                OfferNode::leaf(Bundle::single(0), 8.0),
                OfferNode::leaf(Bundle::single(1), 8.0),
            ],
        }],
    };
    config.validate(2);
    // u1 pays 8 (A), u2 pays 8 (A), u3 upgrades: held B at 8, add-on A
    // implicit price 7.2 > wA=5 → u3 keeps B only. Total = 8 + 8 + 8 = 24.
    let rev = config.expected_revenue(&m);
    assert!((rev - 24.0).abs() < 1e-9, "revenue {rev}");
}

#[test]
fn ratings_conversion_matches_section_611() {
    // "if λ = 1.25 and the listed price is $10, a 5-star rater is willing
    // to pay $12.50 … ratings 4,3,2,1 map to $10, $7.50, $5, $2.50."
    let w = WtpMatrix::from_ratings(
        5,
        1,
        vec![(0, 0, 5), (1, 0, 4), (2, 0, 3), (3, 0, 2), (4, 0, 1)],
        &[10.0],
        1.25,
    );
    let expect = [12.5, 10.0, 7.5, 5.0, 2.5];
    for (u, e) in expect.iter().enumerate() {
        assert!((w.get(u as u32, 0) - e).abs() < 1e-12);
    }
}

#[test]
fn table1_and_section42_numbers_hold_at_four_threads() {
    // Golden regression for the parallel execution layer: the paper's
    // headline numbers must hold under `--threads 4` exactly as they do at
    // the default, down to the usual tolerance — Table 1's $27 Components
    // / $30.40 pure bundling, and §4.2's $32 mixed bundling with the
    // bundle at $15.20 over components at $8 and $8.
    let w = WtpMatrix::from_rows(vec![vec![12.0, 4.0], vec![8.0, 2.0], vec![5.0, 11.0]]);
    let m = Market::new(w, Params::default().with_theta(-0.05).with_threads(Threads::Fixed(4)));
    assert_eq!(m.threads(), 4);

    let components = Components::optimal().run(&m);
    assert!((components.revenue - 27.0).abs() < 1e-9);

    let pure = PureMatching::default().run(&m);
    assert!((pure.revenue - 30.4).abs() < 1e-9);
    assert_eq!(pure.config.roots.len(), 1);
    assert!((pure.config.roots[0].price - 15.2).abs() < 1e-9);

    // Mixed bundling (§4.2 incremental policy): components at $8 / $11,
    // bundle offer at $12 — u1 upgrades (add-on B implicitly $4 = w_B),
    // u3 upgrades (add-on A implicitly $1 ≤ $5), u2 keeps A →
    // $12 + $8 + $12 = $32.
    let mixed = MixedMatching::default().run(&m);
    assert!((mixed.revenue - 32.0).abs() < 1e-9);
    assert_eq!(mixed.config.roots.len(), 1);
    assert!((mixed.config.roots[0].price - 12.0).abs() < 1e-9);
    let mut child_prices: Vec<f64> =
        mixed.config.roots[0].children.iter().map(|c| c.price).collect();
    child_prices.sort_by(|a, b| a.partial_cmp(b).unwrap());
    assert_eq!(child_prices.len(), 2);
    assert!((child_prices[0] - 8.0).abs() < 1e-9);
    assert!((child_prices[1] - 11.0).abs() < 1e-9);
    assert!((mixed.config.expected_revenue(&m) - 32.0).abs() < 1e-9);

    // §4.2's exact pricing building blocks, still intact at 4 threads.
    let mut s = m.scratch();
    let a = m.price_pure(&[0], &mut s);
    assert!((a.price - 8.0).abs() < 1e-9);
    assert!((a.revenue - 16.0).abs() < 1e-9);
    let ab = m.price_pure(&[0, 1], &mut s);
    assert!((ab.price - 15.2).abs() < 1e-9);
    assert!((ab.revenue - 30.4).abs() < 1e-9);
}

#[test]
fn all_methods_never_lose_to_components() {
    // "Bundling outperforms, or at least equals, Components, because it
    // reverts to Components if it cannot find a better solution."
    for theta in [-0.3, -0.05, 0.0, 0.05, 0.3] {
        let m = table1_market(theta);
        let base = Components::optimal().run(&m).revenue;
        let methods: Vec<Box<dyn Configurator>> = vec![
            Box::new(PureMatching::default()),
            Box::new(PureGreedy::default()),
            Box::new(MixedMatching::default()),
            Box::new(MixedGreedy::default()),
            Box::new(PureFreqItemset),
            Box::new(MixedFreqItemset),
        ];
        for method in methods {
            let out = method.run(&m);
            assert!(
                out.revenue >= base - 1e-9,
                "{} lost to components at theta {theta}: {} < {base}",
                out.algorithm,
                out.revenue
            );
        }
    }
}
