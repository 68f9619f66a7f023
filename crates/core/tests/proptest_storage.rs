//! Property tests for the dual-CSR storage layer (`DESIGN.md` §7):
//!
//! 1. Both CSR orientations (row and column views) agree entry-for-entry
//!    with a dense reference matrix, whatever order the triples arrive in.
//! 2. The arena's bits do not depend on arrival order: sorted, shuffled
//!    and late-out-of-order (spilling) pushes of the same triples give the
//!    same `total_wtp` bits, fingerprint, and row/column slices.
//! 3. Any [`MarketView`] of a user subset answers every solve
//!    **bit-identically** to a `Market` built from scratch on the kept
//!    triples: same revenue, same prices, same bundles, for every
//!    configurator in the registry.

use proptest::prelude::*;
use revmax_core::algorithms::registry;
use revmax_core::market::Market;
use revmax_core::params::{Params, Threads};
use revmax_core::wtp::WtpMatrix;

/// A random dense WTP matrix (entries 0 with ~40% probability) plus θ.
fn arb_dense() -> impl Strategy<Value = (Vec<Vec<f64>>, f64)> {
    // ~3/8 of cells are zero, the rest positive quarter-dollar amounts.
    fn cell() -> impl Strategy<Value = f64> {
        (0u32..80u32).prop_map(|raw| if raw < 30 { 0.0 } else { raw as f64 * 0.25 })
    }
    let dims = (1usize..7, 1usize..7);
    dims.prop_flat_map(move |(m, n)| {
        (proptest::collection::vec(proptest::collection::vec(cell(), n..=n), m..=m), -20i32..=20)
            .prop_map(|(rows, theta)| (rows, theta as f64 / 100.0))
    })
}

/// Dense → sorted nonzero triples.
fn triples_of(dense: &[Vec<f64>]) -> Vec<(u32, u32, f64)> {
    let mut t = Vec::new();
    for (u, row) in dense.iter().enumerate() {
        for (i, &w) in row.iter().enumerate() {
            if w > 0.0 {
                t.push((u as u32, i as u32, w));
            }
        }
    }
    t
}

/// Sorted nonzero triples with non-dyadic values (~3/8 of cells empty):
/// summing them in any other order than (user, item) would change the
/// low bits of the total.
fn arb_triples() -> impl Strategy<Value = (usize, usize, Vec<(u32, u32, f64)>)> {
    (1usize..9, 1usize..9).prop_flat_map(|(m, n)| {
        proptest::collection::vec(0u32..80u32, m * n..=m * n).prop_map(move |raw| {
            let triples = raw
                .iter()
                .enumerate()
                .filter(|&(_, &r)| r >= 30)
                .map(|(k, &r)| ((k / n) as u32, (k % n) as u32, r as f64 * 0.1 + 0.013))
                .collect();
            (m, n, triples)
        })
    })
}

/// Canonical bit-exact serialization of an outcome (prices, revenues,
/// bundle structure) for cross-checking two solves.
fn canon(o: &revmax_core::config::Outcome) -> String {
    use std::fmt::Write as _;
    let mut s = String::new();
    write!(s, "{}|{:016x}|{:016x}|", o.algorithm, o.revenue.to_bits(), o.gain.to_bits()).unwrap();
    fn node(n: &revmax_core::config::OfferNode, out: &mut String) {
        use std::fmt::Write as _;
        write!(out, "[{:?}@{:016x}", n.bundle.items(), n.price.to_bits()).unwrap();
        for c in &n.children {
            node(c, out);
        }
        out.push(']');
    }
    for r in &o.config.roots {
        node(r, &mut s);
    }
    s
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(120))]

    #[test]
    fn csr_orientations_agree_with_dense_reference((dense, _) in arb_dense(), seed in 0u64..1000) {
        // Shuffle the triples deterministically: the builder must not care
        // about arrival order.
        let mut triples = triples_of(&dense);
        let k = triples.len();
        for idx in 0..k {
            let j = (seed as usize).wrapping_mul(31).wrapping_add(idx * 7) % k;
            triples.swap(idx, j);
        }
        let (m, n) = (dense.len(), dense[0].len());
        let w = WtpMatrix::from_triples(m, n, triples, None);

        // Entry-wise agreement through both orientations.
        for (u, row) in dense.iter().enumerate() {
            for (i, &want) in row.iter().enumerate() {
                prop_assert_eq!(w.get(u as u32, i as u32), want);
                prop_assert_eq!(w.row(u as u32).get(i as u32), want);
            }
        }
        // Row/col slices are sorted, consistent, and cover exactly nnz.
        let mut nnz = 0usize;
        for i in 0..n as u32 {
            let col = w.col(i);
            prop_assert!(col.ids.windows(2).all(|p| p[0] < p[1]), "col ids not ascending");
            for (u, val) in col.iter() {
                prop_assert_eq!(val, dense[u as usize][i as usize]);
            }
            nnz += col.len();
        }
        prop_assert_eq!(nnz, w.nnz());
        let mut row_nnz = 0usize;
        for u in 0..m as u32 {
            let row = w.row(u);
            prop_assert!(row.ids.windows(2).all(|p| p[0] < p[1]), "row ids not ascending");
            row_nnz += row.len();
        }
        prop_assert_eq!(row_nnz, w.nnz());
    }

    #[test]
    fn arrival_order_changes_no_bit((m, n, sorted) in arb_triples(), seed in 0u64..1000) {
        let k = sorted.len();
        let mut shuffled = sorted.clone();
        for idx in 0..k {
            let j = (seed as usize).wrapping_mul(31).wrapping_add(idx * 7) % k;
            shuffled.swap(idx, j);
        }
        // Sorted but for one entry pushed last, after many in order: the
        // builder spills mid-stream.
        let mut late = sorted.clone();
        if k >= 2 {
            let early = late.remove(seed as usize % (k - 1));
            late.push(early);
        }
        let mut want = 0.0;
        for &(_, _, w) in &sorted {
            want += w;
        }
        let a = WtpMatrix::from_triples(m, n, sorted, None);
        prop_assert_eq!(a.total_wtp().to_bits(), f64::to_bits(want));
        for other in [shuffled, late] {
            let b = WtpMatrix::from_triples(m, n, other, None);
            prop_assert_eq!(a.total_wtp().to_bits(), b.total_wtp().to_bits());
            prop_assert_eq!(a.fingerprint(), b.fingerprint());
            prop_assert_eq!(a.nnz(), b.nnz());
            for u in 0..m as u32 {
                prop_assert_eq!(a.row(u).ids, b.row(u).ids);
                prop_assert_eq!(a.row(u).values, b.row(u).values);
            }
            for i in 0..n as u32 {
                prop_assert_eq!(a.col(i).ids, b.col(i).ids);
                prop_assert_eq!(a.col(i).values, b.col(i).values);
            }
        }
    }

    #[test]
    fn market_view_solves_equal_from_scratch_markets(
        (dense, theta) in arb_dense(),
        user_mask in 1u32..64,
    ) {
        let (m, n) = (dense.len(), dense[0].len());
        // A non-empty subset carved from the mask.
        let mut users: Vec<u32> =
            (0..m as u32).filter(|u| user_mask & (1 << (u % 6)) != 0).collect();
        if users.is_empty() {
            users.push(0);
        }

        let params = Params::default().with_theta(theta).with_threads(Threads::Fixed(1));
        let whole = Market::new(
            WtpMatrix::from_triples(m, n, triples_of(&dense), None),
            params,
        );
        let view = whole.view(&users);

        // From-scratch market over the kept triples with remapped user ids.
        let restricted: Vec<(u32, u32, f64)> = triples_of(&dense)
            .into_iter()
            .filter_map(|(u, i, w)| {
                let lu = users.iter().position(|&x| x == u)?;
                Some((lu as u32, i, w))
            })
            .collect();
        let scratch_market = Market::new(
            WtpMatrix::from_triples(users.len(), n, restricted, None),
            params,
        );

        prop_assert_eq!(view.total_wtp().to_bits(), scratch_market.total_wtp().to_bits());
        for (name, c) in registry() {
            let via_view = c.run(&view);
            let via_scratch = c.run(&scratch_market);
            prop_assert_eq!(
                canon(&via_view),
                canon(&via_scratch),
                "{} diverged between view and from-scratch market",
                name
            );
        }
    }
}
