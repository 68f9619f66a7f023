//! Property tests for the serving layer (`DESIGN.md` §9). Per-user
//! parity with core's per-user tree walk is core's to check (the eval
//! proptests compare both kernels against that test-only oracle); these
//! properties are the serving layer's own:
//!
//! 1. Any batch — non-contiguous, repeating — serves every consumer the
//!    payment of a single-consumer evaluation, at any thread count.
//! 2. The tile kernel is bit-identical to the row-walk, for every query
//!    sink, block width and thread count, and a served whole-market
//!    total is the solver-side `BundleConfig::expected_revenue` to the
//!    bit (pure and mixed menus, step and sigmoid γ, 1/2/8 threads).
//! 3. Marginal revenue is an exact finite difference: it matches a
//!    recompile at the perturbed price bit for bit.

use proptest::prelude::*;
use revmax_core::algorithms::{by_name, registry};
use revmax_core::config::{BundleConfig, OfferNode};
use revmax_core::market::Market;
use revmax_core::params::{Params, Threads};
use revmax_core::wtp::WtpMatrix;
use revmax_serve::{KernelKind, MenuIndex};

/// A random dense WTP matrix (entries 0 with ~3/8 probability) plus θ.
/// An all-zero matrix has no menu to serve, so it is drawn again: the
/// proptest macro runs every case in one function body, where a skipping
/// `return` would end the whole test.
fn arb_dense() -> impl Strategy<Value = (Vec<Vec<f64>>, f64)> {
    fn cell() -> impl Strategy<Value = f64> {
        (0u32..80u32).prop_map(|raw| if raw < 30 { 0.0 } else { raw as f64 * 0.25 })
    }
    let dims = (2usize..8, 1usize..7);
    dims.prop_flat_map(move |(m, n)| {
        (proptest::collection::vec(proptest::collection::vec(cell(), n..=n), m..=m), -20i32..=20)
            .prop_map(|(rows, theta)| (rows, theta as f64 / 100.0))
    })
    .prop_filter("a menu needs a rating", |(rows, _)| rows.iter().flatten().any(|&w| w != 0.0))
}

fn market_of(dense: &[Vec<f64>], theta: f64, gamma: f64) -> Market {
    let params =
        Params::default().with_theta(theta).with_gamma(gamma).with_threads(Threads::Fixed(1));
    Market::new(WtpMatrix::from_rows(dense.to_vec()), params)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn subset_batches_serve_any_user_mix(
        (dense, theta) in arb_dense(),
        mask in 1u32..255,
    ) {
        let market = market_of(&dense, theta, 1e6);
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
            let single = outcome.config.expected_revenue(&market.view(&[u]));
            prop_assert_eq!(a.payment.to_bits(), single.to_bits());
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
        let market = market_of(&dense, theta, gamma);
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
            let solver_total = outcome.config.expected_revenue(&market);
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
                }
                // One evaluator: the served total is the solver-side
                // evaluation to the bit, at every thread count.
                let total = tiled_index.expected_revenue(&users);
                prop_assert_eq!(
                    total.to_bits(), solver_total.to_bits(),
                    "{} block {}: served {} vs solver-side {}", method, block, total, solver_total
                );
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
        let market = market_of(&dense, theta, 1e6);
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
            .filter(|&nd| index.prices()[nd as usize].to_bits() != perturbed_index.prices()[nd as usize].to_bits())
            .collect();

        let base = index.expected_revenue(&users);
        // No early `return` (see `arb_dense`).
        if moved.is_empty() {
            // dprice == 0 (or clamped to 0): the query is still legal and
            // must report a bitwise no-op.
            let m = index.try_marginal_revenue(0, dprice, &users).unwrap();
            prop_assert_eq!(m.base.to_bits(), base.to_bits());
            prop_assert_eq!(m.perturbed.to_bits(), base.to_bits());
            prop_assert_eq!(m.delta, 0.0);
        } else {
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
                .try_marginal_revenue(offer, -(index.prices()[offer as usize] + 1.0), &users)
                .is_err());
        }
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
