//! Brute-force reference matcher used to validate the blossom solver.
//!
//! [`brute_force_max_weight`] enumerates matchings with a bitmask dynamic
//! program over vertex subsets (`O(2^n · n)` time, `O(2^n)` memory), which
//! is exact and fast enough for the `n ≤ 16` instances used in tests. It is
//! exported (rather than hidden behind `#[cfg(test)]`) so downstream crates'
//! property tests can cross-check against it too.

/// Exact maximum-weight matching by subset DP. Panics if `n > 24` (memory).
///
/// Returns `(weight, mate)` where `mate[v]` is `Some(w)` for matched pairs.
// audit: allow(dead-pub) test oracle: the blossom proptests compare the solver against it
pub fn brute_force_max_weight(
    n: usize,
    edges: &[(usize, usize, i64)],
) -> (i64, Vec<Option<usize>>) {
    assert!(n <= 24, "brute force matcher limited to 24 vertices (got {n})");
    if n == 0 {
        return (0, Vec::new());
    }
    // adj[u][v] = best weight among parallel edges, only if positive gainful
    // to consider; negative edges can never improve a matching.
    let mut best_w = vec![vec![i64::MIN; n]; n];
    for &(u, v, w) in edges {
        assert!(u != v && u < n && v < n, "bad edge ({u},{v})");
        let (a, b) = (u.min(v), u.max(v));
        if w > best_w[a][b] {
            best_w[a][b] = w;
        }
    }
    let full = 1usize << n;
    // dp[mask] = best matching weight using only vertices in `mask`.
    let mut dp = vec![0i64; full];
    // choice[mask] = (u, v) matched on the optimal step, or (usize::MAX, _)
    // if the lowest vertex stays single.
    let mut choice = vec![(usize::MAX, usize::MAX); full];
    for mask in 1..full {
        let u = mask.trailing_zeros() as usize;
        let without_u = mask & !(1 << u);
        // Option 1: leave u single.
        let mut best = dp[without_u];
        let mut pick = (usize::MAX, usize::MAX);
        // Option 2: match u with some v in the mask.
        let mut rest = without_u;
        while rest != 0 {
            let v = rest.trailing_zeros() as usize;
            rest &= rest - 1;
            let w = best_w[u][v];
            if w >= 0 {
                let cand = dp[without_u & !(1 << v)] + w;
                if cand > best {
                    best = cand;
                    pick = (u, v);
                }
            }
        }
        dp[mask] = best;
        choice[mask] = pick;
    }
    // Reconstruct.
    let mut mate = vec![None; n];
    let mut mask = full - 1;
    while mask != 0 {
        let u = mask.trailing_zeros() as usize;
        let (a, b) = choice[mask];
        if a == usize::MAX {
            mask &= !(1 << u);
        } else {
            mate[a] = Some(b);
            mate[b] = Some(a);
            mask &= !(1 << a);
            mask &= !(1 << b);
        }
    }
    (dp[full - 1], mate)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty() {
        assert_eq!(brute_force_max_weight(0, &[]), (0, vec![]));
    }

    #[test]
    fn single_edge() {
        let (w, mate) = brute_force_max_weight(2, &[(0, 1, 5)]);
        assert_eq!(w, 5);
        assert_eq!(mate, vec![Some(1), Some(0)]);
    }

    #[test]
    fn path_three() {
        let (w, _) = brute_force_max_weight(3, &[(0, 1, 5), (1, 2, 6)]);
        assert_eq!(w, 6);
    }

    #[test]
    fn skips_negative() {
        let (w, mate) = brute_force_max_weight(2, &[(0, 1, -5)]);
        assert_eq!(w, 0);
        assert_eq!(mate, vec![None, None]);
    }

    #[test]
    fn two_disjoint_beat_one_heavy() {
        let (w, _) = brute_force_max_weight(4, &[(0, 1, 5), (1, 2, 9), (2, 3, 5)]);
        assert_eq!(w, 10);
    }
}
