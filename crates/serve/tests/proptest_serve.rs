//! Property tests for the serving layer (`DESIGN.md` §9):
//!
//! 1. For random markets and solver-produced menus (pure and mixed,
//!    step and sigmoid γ), every consumer's served payment is
//!    **bit-identical** to the solver-side menu evaluation of that
//!    consumer (`BundleConfig::expected_revenue` on a single-user
//!    [`revmax_core::market::Market::view`]).
//! 2. Batched `expected_revenue(all_users)` is **bit-identical at 1/2/8
//!    serve threads** and equals the fixed-chunk ordered fold of the
//!    per-user solver-side payments — the §6 contract applied to serving.
//! 3. The batched total agrees with the solver's whole-market menu
//!    evaluation up to summation reassociation (tolerance-checked).

use proptest::prelude::*;
use revmax_core::algorithms::{by_name, registry};
use revmax_core::config::{BundleConfig, OfferNode};
use revmax_core::market::Market;
use revmax_core::params::{Params, Threads};
use revmax_core::wtp::WtpMatrix;
use revmax_par::effective_chunk_size;
use revmax_serve::{solver_user_revenue, KernelKind, MenuIndex};

/// A random dense WTP matrix (entries 0 with ~3/8 probability) plus θ.
fn arb_dense() -> impl Strategy<Value = (Vec<Vec<f64>>, f64)> {
    fn cell() -> impl Strategy<Value = f64> {
        (0u32..80u32).prop_map(|raw| if raw < 30 { 0.0 } else { raw as f64 * 0.25 })
    }
    let dims = (2usize..8, 1usize..7);
    dims.prop_flat_map(move |(m, n)| {
        (proptest::collection::vec(proptest::collection::vec(cell(), n..=n), m..=m), -20i32..=20)
            .prop_map(|(rows, theta)| (rows, theta as f64 / 100.0))
    })
}

fn market_of(dense: &[Vec<f64>], theta: f64, gamma: f64) -> Option<Market> {
    if dense.iter().all(|row| row.iter().all(|&w| w == 0.0)) {
        return None; // empty markets have no menu to serve
    }
    let params =
        Params::default().with_theta(theta).with_gamma(gamma).with_threads(Threads::Fixed(1));
    Some(Market::new(WtpMatrix::from_rows(dense.to_vec()), params))
}

/// The configurators exercised per case: a pure and a mixed method so
/// both serving semantics (independent offers, upgrade trees) run.
const METHODS: [&str; 3] = ["Components", "Pure Greedy", "Mixed Greedy"];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn served_payments_equal_solver_side_evaluation_bitwise(
        (dense, theta) in arb_dense(),
        sigmoid in 0u8..2,
    ) {
        // Step regime by default; soft sigmoid on half the cases.
        let gamma = if sigmoid == 1 { 1.5 } else { 1e6 };
        let Some(market) = market_of(&dense, theta, gamma) else { return };
        for method in METHODS {
            let outcome = by_name(method).unwrap().run(&market);
            let index = MenuIndex::compile(&market, &outcome.config);
            let users = index.all_users();
            let assignments = index.assign(&users);
            prop_assert_eq!(assignments.len(), users.len());

            // (1) Per-user bitwise parity with the solver-side menu
            // evaluation of that single consumer.
            for a in &assignments {
                let solver = solver_user_revenue(&market, &outcome.config, a.user);
                prop_assert_eq!(
                    a.payment.to_bits(),
                    solver.to_bits(),
                    "{}: user {} served {} vs solver {}",
                    method, a.user, a.payment, solver
                );
            }

            // (2) The batched total is the fixed-chunk ordered fold of the
            // per-user payments, bit-identical at 1/2/8 serve threads.
            let chunk = effective_chunk_size(users.len(), 0);
            let reference: f64 = assignments
                .chunks(chunk)
                .map(|c| c.iter().map(|a| a.payment).sum::<f64>())
                .fold(0.0f64, |acc, s| acc + s);
            for threads in [1usize, 2, 8] {
                let served = index.clone().with_threads(threads).expected_revenue(&users);
                prop_assert_eq!(
                    served.to_bits(),
                    reference.to_bits(),
                    "{} at {} threads: {} vs chunked fold {}",
                    method, threads, served, reference
                );
            }

            // (3) ... and agrees with the solver's whole-market menu
            // evaluation up to summation reassociation.
            let solver_total = outcome.config.expected_revenue(&market);
            let tol = 1e-9 * solver_total.abs().max(1.0);
            prop_assert!(
                (index.expected_revenue(&users) - solver_total).abs() <= tol,
                "{}: served {} vs solver {}",
                method, index.expected_revenue(&users), solver_total
            );
        }
    }

    #[test]
    fn subset_batches_serve_any_user_mix(
        (dense, theta) in arb_dense(),
        mask in 1u32..255,
    ) {
        let Some(market) = market_of(&dense, theta, 1e6) else { return };
        let outcome = by_name("Mixed Greedy").unwrap().run(&market);
        let index = MenuIndex::compile(&market, &outcome.config);
        // An arbitrary (non-contiguous, possibly repeating) batch.
        let mut users: Vec<u32> =
            (0..market.n_users() as u32).filter(|u| mask & (1 << (u % 8)) != 0).collect();
        users.extend(users.clone()); // repeats are legal
        let total = index.expected_revenue(&users);
        for threads in [2usize, 8] {
            let t = index.clone().with_threads(threads);
            prop_assert_eq!(t.expected_revenue(&users).to_bits(), total.to_bits());
        }
        // Assignments line up one-to-one with the queried batch.
        let assignments = index.assign(&users);
        prop_assert_eq!(assignments.len(), users.len());
        for (a, &u) in assignments.iter().zip(&users) {
            prop_assert_eq!(a.user, u);
            prop_assert_eq!(
                a.payment.to_bits(),
                solver_user_revenue(&market, &outcome.config, u).to_bits()
            );
        }
    }

    /// The tile kernel is bit-identical to the row-walk — payments AND
    /// held-offer lists — for every registry configurator (all seven
    /// methods, pure and mixed), at degenerate (1), ragged (3), default
    /// (64), and whole-batch (n) block sizes, at 1/2/8 threads. Every
    /// query sink is compared, not just `assign`: `try_payments` and
    /// `expected_revenue` bits across kernels, and on both kernels the
    /// whole-market `_all` paths against their id-batch forms.
    /// `arb_dense` routinely produces all-zero consumer rows, so the
    /// empty/uninterested-lane paths are exercised throughout.
    #[test]
    fn tile_kernel_is_bit_identical_to_row_walk(
        (dense, theta) in arb_dense(),
        sigmoid in 0u8..2,
    ) {
        let gamma = if sigmoid == 1 { 1.5 } else { 1e6 };
        let Some(market) = market_of(&dense, theta, gamma) else { return };
        let n = market.n_users();
        for (method, configurator) in registry() {
            let outcome = configurator.run(&market);
            let index = MenuIndex::compile(&market, &outcome.config);
            let users = index.all_users();
            let rows_index = index.clone().with_kernel(KernelKind::Rows);
            let rows = rows_index.assign(&users);
            let rows_payments: Vec<u64> =
                rows_index.try_payments(&users).unwrap().iter().map(|p| p.to_bits()).collect();
            let rows_total = rows_index.expected_revenue(&users);
            for block in [1usize, 3, 64, n] {
                let tiled_index =
                    index.clone().with_kernel(KernelKind::Tiled).with_block(block);
                let tiled = tiled_index.assign(&users);
                prop_assert_eq!(tiled.len(), rows.len());
                for (t, r) in tiled.iter().zip(&rows) {
                    prop_assert_eq!(t.user, r.user);
                    prop_assert_eq!(
                        t.payment.to_bits(), r.payment.to_bits(),
                        "{} block {}: user {} tiled {} vs rows {}",
                        method, block, t.user, t.payment, r.payment
                    );
                    prop_assert_eq!(
                        &t.offers, &r.offers,
                        "{} block {}: user {} offer lists diverge", method, block, t.user
                    );
                    // ... and both equal the solver-side bits.
                    prop_assert_eq!(
                        t.payment.to_bits(),
                        solver_user_revenue(&market, &outcome.config, t.user).to_bits()
                    );
                }
                let total = tiled_index.expected_revenue(&users);
                for threads in [2usize, 8] {
                    let t = tiled_index.clone().with_threads(threads);
                    prop_assert_eq!(t.expected_revenue(&users).to_bits(), total.to_bits());
                }
                // The payment and revenue sinks agree across kernels too.
                let tiled_payments: Vec<u64> =
                    tiled_index.try_payments(&users).unwrap().iter().map(|p| p.to_bits()).collect();
                prop_assert_eq!(
                    &tiled_payments, &rows_payments,
                    "{} block {}: payments diverge", method, block
                );
                prop_assert_eq!(
                    total.to_bits(), rows_total.to_bits(),
                    "{} block {}: tiled revenue {} vs rows {}", method, block, total, rows_total
                );
                // On both kernels, the whole-market paths reproduce the
                // id-batch forms.
                for (kernel, k_index) in
                    [("tiled", &tiled_index), ("rows", &rows_index.clone().with_block(block))]
                {
                    prop_assert_eq!(
                        k_index.expected_revenue_all().to_bits(),
                        k_index.expected_revenue(&users).to_bits(),
                        "{} {} block {}: expected_revenue_all diverges", method, kernel, block
                    );
                    prop_assert_eq!(
                        k_index.assign_all(), k_index.assign(&users),
                        "{} {} block {}: assign_all diverges", method, kernel, block
                    );
                }
            }
        }
    }

    /// `try_marginal_revenue` against ground truth: its `base` is the
    /// unperturbed batched revenue bit-for-bit, and its `perturbed` total
    /// is bit-identical to serving an index compiled from a config whose
    /// corresponding offer price was actually moved — the walk runs the
    /// same code over the same table either way. Thread count and the
    /// `_all` path change nothing.
    #[test]
    fn marginal_revenue_matches_a_perturbed_recompile(
        (dense, theta) in arb_dense(),
        pick in 0usize..64,
        dp in -40i32..=40,
    ) {
        let Some(market) = market_of(&dense, theta, 1e6) else { return };
        let outcome = by_name("Mixed Greedy").unwrap().run(&market);
        let index = MenuIndex::compile(&market, &outcome.config);
        let users = index.all_users();

        // Perturb the k-th offer (pre-order) of the solved config.
        let n_offers: usize = outcome.config.roots.iter().map(OfferNode::node_count).sum();
        let k = pick % n_offers;
        let mut perturbed_cfg = outcome.config.clone();
        let slot = nth_offer_mut(&mut perturbed_cfg, k).expect("k < n_offers");
        let mut dprice = dp as f64 * 0.05;
        if slot.price + dprice < 0.0 {
            dprice = -slot.price; // clamp to the validity boundary
        }
        slot.price += dprice;
        let perturbed_index = MenuIndex::compile(&market, &perturbed_cfg);

        // Locate the node the mutation landed on by diffing price tables.
        let moved: Vec<u32> = (0..index.n_nodes() as u32)
            .filter(|&nd| index.price(nd).to_bits() != perturbed_index.price(nd).to_bits())
            .collect();

        let base = index.expected_revenue(&users);
        if moved.is_empty() {
            // dprice == 0 (or clamped to 0): the query is still legal and
            // must report a bitwise no-op.
            let m = index.try_marginal_revenue(0, dprice, &users).unwrap();
            prop_assert_eq!(m.base.to_bits(), base.to_bits());
            prop_assert_eq!(m.perturbed.to_bits(), base.to_bits());
            prop_assert_eq!(m.delta, 0.0);
            return;
        }
        prop_assert_eq!(moved.len(), 1, "one offer moved ⇒ one node moved");
        let offer = moved[0];

        let m = index.try_marginal_revenue(offer, dprice, &users).unwrap();
        prop_assert_eq!(m.base.to_bits(), base.to_bits());
        let truth = perturbed_index.expected_revenue(&users);
        prop_assert_eq!(
            m.perturbed.to_bits(), truth.to_bits(),
            "marginal perturbed {} vs recompiled {}", m.perturbed, truth
        );
        prop_assert_eq!(m.delta.to_bits(), (m.perturbed - m.base).to_bits());

        // The `_all` path and any thread count answer identically.
        let all = index.try_marginal_revenue_all(offer, dprice).unwrap();
        prop_assert_eq!(all.perturbed.to_bits(), m.perturbed.to_bits());
        prop_assert_eq!(all.base.to_bits(), m.base.to_bits());
        for threads in [2usize, 8] {
            let t = index.clone().with_threads(threads);
            let mt = t.try_marginal_revenue(offer, dprice, &users).unwrap();
            prop_assert_eq!(mt.perturbed.to_bits(), m.perturbed.to_bits());
        }

        // Out-of-range offers and price-invalidating nudges are typed
        // errors, not panics.
        prop_assert!(index.try_marginal_revenue(index.n_nodes() as u32, 0.1, &users).is_err());
        prop_assert!(index
            .try_marginal_revenue(offer, -(index.price(offer) + 1.0), &users)
            .is_err());
    }
}

/// The `k`-th offer of `cfg` in pre-order (roots left to right, each
/// followed by its subtree).
fn nth_offer_mut(cfg: &mut BundleConfig, k: usize) -> Option<&mut OfferNode> {
    fn walk<'a>(nodes: &'a mut [OfferNode], k: &mut usize) -> Option<&'a mut OfferNode> {
        for n in nodes {
            if *k == 0 {
                return Some(n);
            }
            *k -= 1;
            if let Some(hit) = walk(&mut n.children, k) {
                return Some(hit);
            }
        }
        None
    }
    let mut k = k;
    walk(&mut cfg.roots, &mut k)
}
