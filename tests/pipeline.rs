//! Integration tests: the full synthetic pipeline across crates —
//! generator → k-core → WTP → algorithms → metrics, plus determinism and
//! WSP parity checks.

use rand::rngs::StdRng;
use rand::SeedableRng;
use revmax::core::prelude::*;
use revmax::core::wsp;
use revmax::dataset::{scale, AmazonBooksConfig};

fn small_market(seed: u64) -> Market {
    let data = AmazonBooksConfig::small().generate(seed);
    let params = Params::default();
    let wtp = WtpMatrix::from_ratings(
        data.n_users(),
        data.n_items(),
        data.ratings().iter().map(|r| (r.user, r.item, r.stars)),
        data.prices(),
        params.lambda,
    );
    Market::new(wtp, params)
}

#[test]
fn full_pipeline_is_deterministic() {
    let a = MixedMatching::default().run(&small_market(3));
    let b = MixedMatching::default().run(&small_market(3));
    assert_eq!(a.revenue, b.revenue);
    assert_eq!(a.config, b.config);
}

#[test]
fn configurations_validate_and_reevaluate() {
    let m = small_market(5);
    let methods: Vec<Box<dyn Configurator>> = vec![
        Box::new(Components::optimal()),
        Box::new(PureMatching::default()),
        Box::new(PureGreedy::default()),
        Box::new(MixedMatching::default()),
        Box::new(MixedGreedy::default()),
        Box::new(PureFreqItemset),
        Box::new(MixedFreqItemset),
    ];
    for method in methods {
        let out = method.run(&m);
        out.config.validate(m.n_items());
        // Search-time accounting equals evaluation of the final menu.
        let ev = out.config.expected_revenue(&m);
        assert!(
            (ev - out.revenue).abs() < 1e-6 * out.revenue.max(1.0),
            "{}: evaluation {} != reported {}",
            out.algorithm,
            ev,
            out.revenue
        );
        // Coverage in (0, 1]; revenue bounded by total WTP.
        assert!(out.revenue <= m.total_wtp() + 1e-6);
        assert!(out.coverage > 0.0 && out.coverage <= 1.0);
    }
}

#[test]
fn sampled_revenue_equals_expected_in_step_mode() {
    let m = small_market(7);
    let out = MixedGreedy::default().run(&m);
    let mut rng = StdRng::seed_from_u64(1);
    let sampled = out.config.sampled_revenue(&m, &mut rng, 2);
    assert!((sampled - out.revenue).abs() < 1e-6);
}

#[test]
fn wsp_optimal_dominates_heuristics_on_sampled_items() {
    let data = AmazonBooksConfig::small().generate(11);
    let sub = scale::sample_items(&data, 9, 42);
    let params = Params::default();
    let wtp = WtpMatrix::from_ratings(
        sub.n_users(),
        sub.n_items(),
        sub.ratings().iter().map(|r| (r.user, r.item, r.stars)),
        sub.prices(),
        params.lambda,
    );
    let m = Market::new(wtp, params).with_grid_pricing();
    let table = wsp::enumerate_subset_revenues(&m);
    let opt = wsp::optimal(&m, &table);
    let gw = wsp::greedy_wsp(&m, &table);
    let pm = PureMatching::default().run(&m);
    let pg = PureGreedy::default().run(&m);
    assert!(opt.revenue >= pm.revenue - 1e-6);
    assert!(opt.revenue >= pg.revenue - 1e-6);
    assert!(opt.revenue >= gw.revenue - 1e-6);
    // √N approximation bound.
    assert!(gw.revenue + 1e-9 >= opt.revenue / (9.0f64).sqrt());
    // Heuristics beat the √N-greedy in practice (the paper's Table 4
    // finding); allow equality.
    assert!(pm.revenue >= gw.revenue - 1e-6);
}

#[test]
fn user_cloning_scales_revenue_linearly() {
    // Cloning users doubles every bundle's buyer count at unchanged
    // optimal prices, so Components' revenue exactly doubles.
    let data = AmazonBooksConfig::small().generate(13);
    let params = Params::default();
    let build = |d: &revmax::dataset::RatingsData| {
        let wtp = WtpMatrix::from_ratings(
            d.n_users(),
            d.n_items(),
            d.ratings().iter().map(|r| (r.user, r.item, r.stars)),
            d.prices(),
            params.lambda,
        );
        Market::new(wtp, params)
    };
    let base = Components::optimal().run(&build(&data)).revenue;
    let doubled = Components::optimal().run(&build(&scale::clone_users(&data, 2))).revenue;
    assert!((doubled - 2.0 * base).abs() < 1e-6 * base);
}

#[test]
fn csv_roundtrip_preserves_results() {
    let data = AmazonBooksConfig::small().generate(17);
    // Unique per-process dir so concurrent `cargo test` invocations (and
    // stale files from aborted runs) cannot collide on the CSV paths.
    let dir = std::env::temp_dir().join(format!(
        "revmax_integration_csv_{}_{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    std::fs::create_dir_all(&dir).unwrap();
    let rp = dir.join("ratings.csv");
    let pp = dir.join("prices.csv");
    revmax::dataset::io::save(&data, &rp, &pp).unwrap();
    let back = revmax::dataset::io::load(&rp, &pp).unwrap();
    assert_eq!(data, back);
    let params = Params::default();
    let mk = |d: &revmax::dataset::RatingsData| {
        let wtp = WtpMatrix::from_ratings(
            d.n_users(),
            d.n_items(),
            d.ratings().iter().map(|r| (r.user, r.item, r.stars)),
            d.prices(),
            params.lambda,
        );
        Market::new(wtp, params)
    };
    assert_eq!(
        PureGreedy::default().run(&mk(&data)).revenue,
        PureGreedy::default().run(&mk(&back)).revenue
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn k_sweep_is_monotone_for_matching() {
    // Larger k can only help (k=1 equals components) — Figure 5's premise.
    let m = small_market(19);
    let mut last = 0.0;
    for k in [1usize, 2, 3, 5] {
        let params = Params::default().with_size_cap(SizeCap::AtMost(k));
        let m2 = Market::new(m.wtp().clone(), params);
        let out = PureMatching::default().run(&m2);
        assert!(
            out.revenue >= last - 1e-6,
            "revenue dropped when k grew to {k}: {} < {last}",
            out.revenue
        );
        if k == 1 {
            assert!((out.revenue - Components::optimal().run(&m2).revenue).abs() < 1e-9);
        }
        last = out.revenue;
    }
}
