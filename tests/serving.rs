//! Acceptance tests for the batched serving layer (`DESIGN.md` §9): a
//! `clone_users`-scaled market served through a compiled `MenuIndex` must
//! be bit-identical across 1/2/8 serve threads, linear in the clone
//! factor, and equal core's solver-side menu evaluation to the bit. (The full
//! ≥10⁶-user sweep of the same checks runs in CI's `serve-smoke` leg via
//! the release-mode `serve_bench` binary; this debug-mode test keeps the
//! scale at ~10⁴ so `cargo test` stays fast.)

use revmax::core::algorithms::by_name;
use revmax::dataset::scale::clone_users;
use revmax::dataset::AmazonBooksConfig;
use revmax::engine::market_from_data;
use revmax::serve::MenuIndex;

#[test]
fn scaled_serving_is_deterministic_linear_and_solver_faithful() {
    let base_data = AmazonBooksConfig::small().generate(2015);
    let base_market = market_from_data(&base_data, 0.0);
    const FACTOR: usize = 100;
    let data = clone_users(&base_data, FACTOR);
    let market = market_from_data(&data, 0.0);
    assert!(market.n_users() >= 10_000, "scaled market too small for the acceptance check");

    for method in ["Components", "Mixed Greedy"] {
        let outcome = by_name(method).unwrap().run(&base_market);
        let index = MenuIndex::compile(&market, &outcome.config);
        let users = index.all_users();

        // Bit-identical batched revenue at 1/2/8 serve threads.
        let served = index.clone().with_threads(1).expected_revenue(&users);
        for threads in [2usize, 8] {
            let t = index.clone().with_threads(threads).expected_revenue(&users);
            assert_eq!(t.to_bits(), served.to_bits(), "{method} diverged at {threads} threads");
        }

        // Identical clones ⇒ revenue is exactly linear in the factor (up
        // to summation reassociation).
        let base_rev = MenuIndex::compile(&base_market, &outcome.config).expected_revenue_all();
        let expect = base_rev * FACTOR as f64;
        assert!(
            (served - expect).abs() <= 1e-8 * expect.abs().max(1.0),
            "{method}: served {served} vs {FACTOR} x {base_rev} = {expect}"
        );

        // Core's solver-side menu evaluation of the whole scaled market
        // is the same evaluator, so it is the served total to the bit.
        let solver = outcome.config.expected_revenue(&market);
        for threads in [1usize, 2, 8] {
            let t = MenuIndex::compile(&market, &outcome.config).with_threads(threads);
            assert_eq!(
                solver.to_bits(),
                t.expected_revenue_all().to_bits(),
                "{method}: solver-side {solver} vs served at {threads} threads"
            );
        }

        // Clones of the same base user get identical assignments.
        let n_base = base_market.n_users() as u32;
        let a = index.assign(&[3, 3 + n_base, 3 + 7 * n_base]);
        assert_eq!(a[0].payment.to_bits(), a[1].payment.to_bits());
        assert_eq!(a[0].offers, a[2].offers);
    }
}
