//! Cross-crate property tests on random small markets: structural
//! invariants of every configuration algorithm.

use proptest::prelude::*;
use revmax::core::config::Strategy as BundlingStrategy;
use revmax::core::prelude::{
    Components, Configurator, Market, MixedFreqItemset, MixedGreedy, MixedMatching, Params,
    PureFreqItemset, PureGreedy, PureMatching, SizeCap, WtpMatrix,
};

/// Random dense WTP matrix (small).
fn arb_market(
    max_users: usize,
    max_items: usize,
) -> impl proptest::strategy::Strategy<Value = Market> {
    (2usize..=max_users, 2usize..=max_items, -20i32..=20).prop_flat_map(|(m, n, theta_c)| {
        proptest::collection::vec(proptest::collection::vec(0u32..200, n), m).prop_map(
            move |grid| {
                let rows: Vec<Vec<f64>> = grid
                    .into_iter()
                    .map(|r| r.into_iter().map(|x| x as f64 / 10.0).collect())
                    .collect();
                let theta = theta_c as f64 / 100.0;
                Market::new(WtpMatrix::from_rows(rows), Params::default().with_theta(theta))
            },
        )
    })
}

fn check_outcome(m: &Market, out: &revmax::core::config::Outcome) {
    // Structural validity (partition / subsumption).
    out.config.validate(m.n_items());
    // Revenue within bounds: aggregate WTP, inflated by complementarity
    // (θ > 0 raises every bundle's WTP by (1+θ)) and the adoption bias.
    assert!(out.revenue >= -1e-9, "{}: negative revenue", out.algorithm);
    let bound = m.total_wtp() * (1.0 + m.params().theta.max(0.0)) * m.params().adoption_bias;
    assert!(
        out.revenue <= bound + 1e-6,
        "{}: revenue {} above aggregate WTP bound {}",
        out.algorithm,
        out.revenue,
        bound
    );
    // Reported metrics consistent.
    let cov = revmax::core::metrics::revenue_coverage(out.revenue, m.total_wtp());
    assert!((cov - out.coverage).abs() < 1e-12);
    // Re-evaluation agrees with the search's accounting.
    let ev = out.config.expected_revenue(m);
    assert!(
        (ev - out.revenue).abs() < 1e-6 * out.revenue.max(1.0),
        "{}: re-evaluation {} vs reported {}",
        out.algorithm,
        ev,
        out.revenue
    );
    // Mixed menus respect Guiltinan's constraints w.r.t. their children.
    if out.config.strategy == BundlingStrategy::Mixed {
        for root in &out.config.roots {
            let mut stack = vec![root];
            while let Some(node) = stack.pop() {
                if !node.children.is_empty() {
                    let max_child = node.children.iter().map(|c| c.price).fold(f64::MIN, f64::max);
                    let sum_child: f64 = node.children.iter().map(|c| c.price).sum();
                    assert!(
                        node.price > max_child - 1e-9,
                        "{}: bundle priced below a component",
                        out.algorithm
                    );
                    assert!(
                        node.price < sum_child + 1e-9,
                        "{}: bundle priced above the component sum",
                        out.algorithm
                    );
                    stack.extend(node.children.iter());
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn all_algorithms_produce_valid_configs(m in arb_market(12, 7)) {
        let base = Components::optimal().run(&m);
        check_outcome(&m, &base);
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
            check_outcome(&m, &out);
            prop_assert!(out.revenue >= base.revenue - 1e-9,
                "{} below components", out.algorithm);
        }
    }

    #[test]
    fn size_caps_are_respected(m in arb_market(10, 6), k in 1usize..4) {
        let capped = Market::new(
            m.wtp().clone(),
            (*m.params()).with_size_cap(SizeCap::AtMost(k)),
        );
        for method in [
            Box::new(PureMatching::default()) as Box<dyn Configurator>,
            Box::new(MixedGreedy::default()),
        ] {
            let out = method.run(&capped);
            prop_assert!(out.config.max_bundle_size() <= k,
                "{} built a bundle of {} > k = {k}", out.algorithm, out.config.max_bundle_size());
        }
    }

    #[test]
    fn pure_matching_is_optimal_at_k2(m in arb_market(8, 6)) {
        // Section 5.1: for k = 2 the matching formulation is exact. Check
        // against the subset DP restricted to sizes <= 2.
        let capped = Market::new(
            m.wtp().clone(),
            (*m.params()).with_size_cap(SizeCap::AtMost(2)),
        );
        let out = PureMatching::default().run(&capped);
        let table = revmax::core::wsp::enumerate_subset_revenues(&capped);
        let n = capped.n_items();
        let mut weights = table.revenue.clone();
        for (mask, w) in weights.iter_mut().enumerate().skip(1) {
            if (mask as u32).count_ones() > 2 {
                *w = 0.0;
            }
        }
        let dp = revmax::core::wsp::solve_all_subsets(n, &weights);
        prop_assert!((dp.total_weight - out.revenue).abs() < 1e-6,
            "matching {} vs 2-sized optimal {}", out.revenue, dp.total_weight);
    }
}
