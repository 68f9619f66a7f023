//! Property tests: the blossom solver must agree with the brute-force
//! reference matcher on random small graphs, and always return a valid
//! matching.

use proptest::prelude::*;
use revmax_matching::reference::brute_force_max_weight;
use revmax_matching::{max_weight_matching, Matching};

/// A random graph: vertex count plus an edge list of (u, v, w).
fn arb_graph(max_n: usize, max_w: i64) -> impl Strategy<Value = (usize, Vec<(usize, usize, i64)>)> {
    (2usize..=max_n).prop_flat_map(move |n| {
        let edge = (0..n, 0..n, 0..=max_w)
            .prop_filter_map("self-loop", |(u, v, w)| (u != v).then_some((u, v, w)));
        (Just(n), proptest::collection::vec(edge, 0..=(n * (n - 1) / 2 + 4)))
    })
}

fn assert_valid(n: usize, edges: &[(usize, usize, i64)], m: &Matching) {
    // Symmetry of the mate array.
    for v in 0..n {
        if let Some(w) = m.mate[v] {
            assert_eq!(m.mate[w], Some(v), "mate not symmetric at {v}-{w}");
            assert_ne!(v, w);
        }
    }
    // Each reported edge must exist in the input.
    for &(u, v) in &m.edges {
        assert!(u < v);
        assert!(
            edges.iter().any(|&(a, b, _)| (a == u && b == v) || (a == v && b == u)),
            "matched pair ({u},{v}) not an input edge"
        );
    }
    // Weight equals the sum of the best parallel edge per matched pair.
    let mut total = 0i64;
    for &(u, v) in &m.edges {
        let best = edges
            .iter()
            .filter(|&&(a, b, _)| (a == u && b == v) || (a == v && b == u))
            .map(|&(_, _, w)| w)
            .max()
            .unwrap();
        total += best;
    }
    assert_eq!(total, m.weight);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(300))]

    #[test]
    fn matches_brute_force_small((n, edges) in arb_graph(9, 50)) {
        let m = max_weight_matching(n, &edges);
        assert_valid(n, &edges, &m);
        let (bf, _) = brute_force_max_weight(n, &edges);
        prop_assert_eq!(m.weight, bf, "blossom {} != brute force {}", m.weight, bf);
    }

    #[test]
    fn matches_brute_force_medium((n, edges) in arb_graph(13, 1000)) {
        let m = max_weight_matching(n, &edges);
        assert_valid(n, &edges, &m);
        let (bf, _) = brute_force_max_weight(n, &edges);
        prop_assert_eq!(m.weight, bf);
    }

    #[test]
    fn negative_weights_allowed((n, mut edges) in arb_graph(8, 40)) {
        // Shift some weights negative; optimum still matches brute force.
        for (i, e) in edges.iter_mut().enumerate() {
            if i % 3 == 0 { e.2 -= 60; }
        }
        let m = max_weight_matching(n, &edges);
        assert_valid(n, &edges, &m);
        let (bf, _) = brute_force_max_weight(n, &edges);
        prop_assert_eq!(m.weight, bf);
    }

    #[test]
    fn dense_complete_graphs(n in 2usize..9, seed in 0u64..1000) {
        // Deterministic pseudo-random complete graph from the seed.
        let mut edges = Vec::new();
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1);
        for u in 0..n {
            for v in (u + 1)..n {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                let w = (state >> 33) as i64 % 100;
                edges.push((u, v, w));
            }
        }
        let m = max_weight_matching(n, &edges);
        assert_valid(n, &edges, &m);
        let (bf, _) = brute_force_max_weight(n, &edges);
        prop_assert_eq!(m.weight, bf);
    }

    #[test]
    fn f64_scaling_consistent((n, edges) in arb_graph(8, 1000)) {
        let fedges: Vec<(usize, usize, f64)> =
            edges.iter().map(|&(u, v, w)| (u, v, w as f64 * 0.25)).collect();
        let (m, w) = revmax_matching::max_weight_matching_f64(n, &fedges);
        assert_valid(n, &edges, &Matching {
            mate: m.mate.clone(),
            // rebuild integer weight for validity check
            weight: m.edges.iter().map(|&(u, v)| {
                edges.iter()
                    .filter(|&&(a, b, _)| (a == u && b == v) || (a == v && b == u))
                    .map(|&(_, _, w)| w).max().unwrap()
            }).sum(),
            edges: m.edges.clone(),
        });
        // Quarter-unit weights are exactly representable; the f64 total must
        // be exactly 0.25 * the integer optimum of the original instance.
        let (bf, _) = brute_force_max_weight(n, &edges);
        prop_assert!((w - bf as f64 * 0.25).abs() < 1e-9);
    }
}
