//! Deterministic cases for the tile walk and the query driver
//! (`DESIGN.md` §9.3, §12):
//!
//! 1. **Driver boundaries** — batch lengths around the block width and
//!    the §6 chunk size, at several block widths and thread counts: blocks
//!    that straddle chunk boundaries must keep every bit — the revenue
//!    fold, the payment vector, assignments and marginal revenue.
//! 2. **Pinned add-on counts** — a mixed tree where the held-item count
//!    decides an upgrade at θ ≠ 0, served at θ ∈ {−0.05, 0, +0.05}.
//! 3. **Large trees** — a hand-built mixed tree of more than 128 nodes
//!    (adoption rows spanning several words) served through `assign`.
//!
//! Per-user payments on cases 2 and 3 are checked against core's
//! per-user tree walk by core's eval tests; here the served totals must
//! equal `BundleConfig::expected_revenue` to the bit.

use revmax_core::algorithms::by_name;
use revmax_core::bundle::Bundle;
use revmax_core::config::{BundleConfig, OfferNode, Strategy};
use revmax_core::market::Market;
use revmax_core::params::{Params, Threads};
use revmax_core::wtp::WtpMatrix;
use revmax_serve::{chunked_payment_fold, Assignment, KernelKind, MenuIndex};

/// A seeded `n_users × n_items` WTP matrix: each consumer rates `per_user`
/// items (repeats collapse) at values in `[1, 11)`.
fn random_rows(seed: u64, n_users: usize, n_items: usize, per_user: usize) -> Vec<Vec<f64>> {
    let mut state = seed;
    let mut next = move || {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        (state >> 33) as usize
    };
    (0..n_users)
        .map(|_| {
            let mut row = vec![0.0; n_items];
            for _ in 0..per_user {
                row[next() % n_items] = 1.0 + (next() % 1000) as f64 / 100.0;
            }
            row
        })
        .collect()
}

fn market(rows: Vec<Vec<f64>>, theta: f64) -> Market {
    let params = Params::default().with_theta(theta).with_threads(Threads::Fixed(1));
    Market::new(WtpMatrix::from_rows(rows), params)
}

/// `index`'s assignments of `users` equal `expect`, payment bits
/// included.
fn assert_assignments(index: &MenuIndex, users: &[u32], expect: &[Assignment], what: &str) {
    let got = index.assign(users);
    assert_eq!(got.len(), expect.len(), "{what}");
    for (s, t) in got.iter().zip(expect) {
        assert_eq!(s.user, t.user, "{what}");
        assert_eq!(s.payment.to_bits(), t.payment.to_bits(), "{what}: user {}", s.user);
        assert_eq!(s.offers, t.offers, "{what}: user {}", s.user);
    }
}

#[test]
fn blocks_straddling_chunk_boundaries_keep_every_bit() {
    const N_ITEMS: usize = 10;
    for theta in [0.0, 0.05] {
        // Solve on a small base market; serve the menu to a larger one
        // over the same items.
        let base = market(random_rows(7, 160, N_ITEMS, 4), theta);
        let config = by_name("Mixed Greedy").unwrap().run(&base).config;
        let served = market(random_rows(11, 5000, N_ITEMS, 4), theta);
        let index = MenuIndex::compile(&served, &config).with_threads(1);
        let n = served.n_users();

        // Perturb the largest tree's root, in the config and as a query.
        let k = (0..config.roots.len()).max_by_key(|&k| config.roots[k].node_count()).unwrap();
        let (offer, dprice) = (index.roots()[k], 0.35);
        let mut moved = config.clone();
        moved.roots[k].price += dprice;
        let recompiled = MenuIndex::compile(&served, &moved).with_kernel(KernelKind::Rows);
        let rows = index.clone().with_kernel(KernelKind::Rows);

        for len in [1usize, 15, 16, 17, 63, 64, 65, 257, 16_391] {
            let users: Vec<u32> = (0..len).map(|i| ((i * 7919 + 13) % n) as u32).collect();
            let rows_revenue = rows.expected_revenue(&users);
            let rows_assigned = rows.assign(&users);
            let perturbed = recompiled.expected_revenue(&users);
            for block in [1usize, 3, 64, 512] {
                for threads in [1usize, 2, 3] {
                    let what = format!("θ={theta} len={len} block={block} threads={threads}");
                    let tiled = index.clone().with_block(block).with_threads(threads);
                    let revenue = tiled.expected_revenue(&users);
                    let payments = tiled.try_payments(&users).unwrap();
                    assert_eq!(payments.len(), len, "{what}");
                    assert_eq!(
                        revenue.to_bits(),
                        chunked_payment_fold(&payments).to_bits(),
                        "{what}: revenue vs fold of payments"
                    );
                    assert_eq!(revenue.to_bits(), rows_revenue.to_bits(), "{what}: vs rows");
                    assert_assignments(&tiled, &users, &rows_assigned, &what);
                    let m = tiled.try_marginal_revenue(offer, dprice, &users).unwrap();
                    assert_eq!(m.base.to_bits(), revenue.to_bits(), "{what}: marginal base");
                    assert_eq!(m.perturbed.to_bits(), perturbed.to_bits(), "{what}: perturbed");
                }
            }
        }
    }
}

/// `{0,1,2}` at $25.20 over the pair `{0,1}` at $15 and the singleton
/// `{2}` at $12, with two consumers whose upgrade to the triple turns on
/// the held-item count:
///
/// * `x = [10, 10, 10]` holds the pair; its add-on is one item (count
///   3 − 2 = 1), priced at factor 1.0 whatever θ: 10 < 25.20 − 15 =
///   10.20, so it never upgrades — a walk that priced its add-on at
///   `1 + θ` would upgrade it at θ = +0.05 (10.5 ≥ 10.2).
/// * `y = [6.5, 6.5, 12.5]` holds the singleton; its add-on is two items
///   (count 3 − 1 = 2), priced at `1 + θ`: 13·(1 + θ) against
///   25.20 − 12 = 13.20 upgrades only at θ = +0.05 (13.65).
#[test]
fn the_held_item_count_decides_pinned_upgrades() {
    let config = BundleConfig {
        strategy: Strategy::Mixed,
        roots: vec![OfferNode {
            bundle: Bundle::new(vec![0, 1, 2]),
            price: 25.2,
            children: vec![
                OfferNode::leaf(Bundle::new(vec![0, 1]), 15.0),
                OfferNode::leaf(Bundle::single(2), 12.0),
            ],
        }],
    };
    // Node ids are post-order: pair 0, singleton 1, triple 2.
    let (pair, single, triple) = (0u32, 1u32, 2u32);
    for (theta, y_upgrades) in [(-0.05, false), (0.0, false), (0.05, true)] {
        let m = market(vec![vec![10.0, 10.0, 10.0], vec![6.5, 6.5, 12.5]], theta);
        let index = MenuIndex::compile(&m, &config);
        let rows = index.clone().with_kernel(KernelKind::Rows);
        let users = index.all_users();
        let a = index.assign(&users);
        assert_eq!(a[0].offers, vec![pair], "θ={theta}: x stays on the pair");
        assert_eq!(a[0].payment, 15.0, "θ={theta}");
        if y_upgrades {
            assert_eq!(a[1].offers, vec![triple], "θ={theta}: y upgrades");
            assert_eq!(a[1].payment, 25.2, "θ={theta}");
        } else {
            assert_eq!(a[1].offers, vec![single], "θ={theta}: y stays on the singleton");
            assert_eq!(a[1].payment, 12.0, "θ={theta}");
        }
        assert_assignments(&index, &users, &rows.assign(&users), &format!("θ={theta}"));
        // The bare root walk agrees too (the count flows through the
        // revenue walk, not only the collect walk), and so does the
        // solver-side evaluation.
        let total = index.expected_revenue(&users);
        assert_eq!(total.to_bits(), rows.expected_revenue(&users).to_bits());
        assert_eq!(total.to_bits(), config.expected_revenue(&m).to_bits(), "θ={theta}");
    }
}

/// A balanced binary offer tree over `items`, priced at a fraction of
/// the consumers' mean WTP so that adoption varies across levels.
fn binary_tree(items: &[u32]) -> OfferNode {
    let price = 4.2 * items.len() as f64 * (1.0 - 0.02 * items.len().min(20) as f64);
    if items.len() == 1 {
        return OfferNode::leaf(Bundle::single(items[0]), price);
    }
    let (lo, hi) = items.split_at(items.len() / 2);
    OfferNode {
        bundle: Bundle::new(items.to_vec()),
        price,
        children: vec![binary_tree(lo), binary_tree(hi)],
    }
}

#[test]
fn trees_past_128_nodes_serve_the_row_walk_offers() {
    const N_ITEMS: usize = 80;
    let items: Vec<u32> = (0..N_ITEMS as u32).collect();
    let tree = binary_tree(&items);
    assert!(tree.node_count() > 128, "{} nodes", tree.node_count());
    let config = BundleConfig { strategy: Strategy::Mixed, roots: vec![tree] };
    for theta in [0.0, 0.05] {
        let m = market(random_rows(5, 300, N_ITEMS, 40), theta);
        let index = MenuIndex::compile(&m, &config);
        let rows = index.clone().with_kernel(KernelKind::Rows);
        let users = index.all_users();
        let rows_assigned = rows.assign(&users);
        for block in [1usize, 3, 64, 512] {
            let tiled = index.clone().with_block(block);
            assert_assignments(&tiled, &users, &rows_assigned, &format!("θ={theta} block={block}"));
        }
        // The held offers reach past node 128 and past lane 64, so the
        // adoption rows span several words both ways.
        let a = index.assign(&users);
        let held: Vec<u32> = a.iter().flat_map(|s| s.offers.iter().copied()).collect();
        assert!(held.iter().any(|&o| o >= 128), "θ={theta}: no held offer past node 128");
        assert!(held.iter().any(|&o| o < 64), "θ={theta}: no held offer below node 64");
        assert!(a[64..].iter().any(|s| !s.offers.is_empty()), "θ={theta}");
        let served = index.expected_revenue_all();
        assert_eq!(served.to_bits(), config.expected_revenue(&m).to_bits(), "θ={theta}");
    }
}
