//! Failure injection: degenerate markets, hostile inputs, and boundary
//! configurations must either work sensibly or fail loudly — never return
//! silently-wrong revenue.

use revmax::core::prelude::*;

fn all_configurators() -> Vec<Box<dyn Configurator>> {
    vec![
        Box::new(Components::optimal()),
        Box::new(PureMatching::default()),
        Box::new(PureGreedy::default()),
        Box::new(MixedMatching::default()),
        Box::new(MixedGreedy::default()),
        Box::new(PureFreqItemset),
        Box::new(MixedFreqItemset),
    ]
}

#[test]
fn single_user_market() {
    let m = Market::new(WtpMatrix::from_rows(vec![vec![5.0, 3.0, 0.0]]), Params::default());
    for c in all_configurators() {
        let out = c.run(&m);
        out.config.validate(3);
        // One consumer: sell her everything she values, at her valuation.
        assert!((out.revenue - 8.0).abs() < 1e-9, "{}: {}", out.algorithm, out.revenue);
    }
}

#[test]
fn all_zero_wtp_market() {
    let m = Market::new(WtpMatrix::from_rows(vec![vec![0.0, 0.0]; 4]), Params::default());
    for c in all_configurators() {
        let out = c.run(&m);
        out.config.validate(2);
        assert_eq!(out.revenue, 0.0, "{}", out.algorithm);
        assert_eq!(out.coverage, 0.0);
        assert_eq!(out.gain, 0.0);
    }
}

#[test]
fn single_item_market() {
    let m = Market::new(
        WtpMatrix::from_rows(vec![vec![10.0], vec![6.0], vec![2.0]]),
        Params::default(),
    );
    for c in all_configurators() {
        let out = c.run(&m);
        out.config.validate(1);
        // Best single price: 6 × 2 = 12 beats 10 and 3×2.
        assert!((out.revenue - 12.0).abs() < 1e-9, "{}", out.algorithm);
        assert_eq!(out.config.max_bundle_size(), 1);
    }
}

#[test]
fn no_users_market() {
    let m = Market::new(WtpMatrix::from_triples(0, 3, vec![], None), Params::default());
    for c in all_configurators() {
        let out = c.run(&m);
        out.config.validate(3);
        assert_eq!(out.revenue, 0.0, "{}", out.algorithm);
    }
}

#[test]
fn identical_users_never_gain_from_bundling_at_theta_zero() {
    // With identical consumers there is no valuation heterogeneity to
    // smooth: bundling cannot beat components (θ = 0).
    let m = Market::new(WtpMatrix::from_rows(vec![vec![7.0, 3.0, 5.0]; 10]), Params::default());
    for c in all_configurators() {
        let out = c.run(&m);
        assert!((out.gain).abs() < 1e-12, "{} gained {}", out.algorithm, out.gain);
        assert!((out.revenue - 150.0).abs() < 1e-9);
    }
}

#[test]
#[should_panic(expected = "finite")]
fn nan_wtp_rejected() {
    WtpMatrix::from_rows(vec![vec![f64::NAN]]);
}

#[test]
#[should_panic(expected = ">= 0")]
fn negative_wtp_rejected() {
    WtpMatrix::from_rows(vec![vec![-1.0]]);
}

#[test]
#[should_panic(expected = "size cap")]
fn zero_size_cap_rejected() {
    Market::new(
        WtpMatrix::from_rows(vec![vec![1.0]]),
        Params::default().with_size_cap(SizeCap::AtMost(0)),
    );
}

#[test]
fn k_equals_one_is_components_everywhere() {
    let m = Market::new(
        WtpMatrix::from_rows(vec![vec![9.0, 2.0, 4.0], vec![3.0, 8.0, 1.0], vec![5.0, 5.0, 5.0]]),
        Params::default().with_size_cap(SizeCap::AtMost(1)),
    );
    let base = Components::optimal().run(&m).revenue;
    for c in all_configurators() {
        let out = c.run(&m);
        assert!((out.revenue - base).abs() < 1e-9, "{}", out.algorithm);
        assert_eq!(out.config.max_bundle_size(), 1, "{}", out.algorithm);
    }
}

#[test]
fn extreme_theta_substitutes_degenerate_to_components() {
    let m = Market::new(
        WtpMatrix::from_rows(vec![vec![10.0, 10.0], vec![8.0, 9.0]]),
        Params::default().with_theta(-0.99),
    );
    for c in all_configurators() {
        let out = c.run(&m);
        assert_eq!(out.gain, 0.0, "{}", out.algorithm);
    }
}

#[test]
fn tiny_sigmoid_gamma_still_prices_positively() {
    let m = Market::new(
        WtpMatrix::from_rows(vec![vec![10.0, 5.0]; 20]),
        Params::default().with_gamma(0.01),
    );
    let out = Components::optimal().run(&m);
    assert!(out.revenue > 0.0);
    assert!(out.revenue <= m.total_wtp());
}

#[test]
fn sampled_revenue_requires_runs() {
    let m = Market::new(WtpMatrix::from_rows(vec![vec![5.0]]), Params::default());
    let out = Components::optimal().run(&m);
    let mut rng = rand::rngs::StdRng::seed_from_u64(0);
    use rand::SeedableRng;
    let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        out.config.sampled_revenue(&m, &mut rng, 0)
    }));
    assert!(r.is_err(), "runs = 0 must be rejected");
}
