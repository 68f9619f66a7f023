//! Algorithm 1: the matching-based configurator.
//!
//! Each iteration builds a graph whose vertices are the current top-level
//! bundles, scores candidate pairwise merges, and commits the
//! maximum-weight matching of the positive-gain edges (computed by the
//! blossom engine in `revmax-matching` through the gain-graph reduction).
//! Merged bundles become single vertices for the next round, so bundle
//! sizes can double every iteration. Stops when no matching improves
//! revenue or when the size cap `k` forbids further growth.
//!
//! The two pruning rules of Section 5.3.1 are on by default and
//! individually switchable for ablation:
//!
//! * **co-rater pruning** (first iteration): only item pairs co-rated by at
//!   least one consumer are candidate edges;
//! * **new-vertex pruning** (later iterations): only edges touching a
//!   vertex formed in the previous iteration are (re)considered.

use crate::algorithms::pool::{Pool, PureOffer, SearchOffer};
use crate::algorithms::Configurator;
use crate::config::Outcome;
use crate::market::Market;
use crate::mixed::{MergePlan, TopOffer};
use revmax_matching::max_weight_matching_f64;
use revmax_par::par_chunks_map_reduce;

/// Candidate pairs per scoring chunk. Each chunk allocates one fresh
/// [`Scratch`](crate::market::Scratch), so chunks are sized to amortize
/// that; a pure constant (thread-count independent) keeps chunk boundaries
/// — and thus the scored-edge order — deterministic (`DESIGN.md` §6).
const SCORING_CHUNK: usize = 64;

/// Hard cap on iterations (safety valve; the diminishing-returns argument
/// of §5.3.1 bounds it in practice).
const MAX_ITERATIONS: usize = 64;

/// Pruning switches for [`PureMatching`] and [`MixedMatching`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MatchingOptions {
    /// First-iteration pruning: only co-rated item pairs.
    pub co_rater_pruning: bool,
    /// Later-iteration pruning: only edges involving a new vertex.
    pub new_vertex_pruning: bool,
}

impl Default for MatchingOptions {
    fn default() -> Self {
        MatchingOptions { co_rater_pruning: true, new_vertex_pruning: true }
    }
}

fn run<S: SearchOffer>(opts: MatchingOptions, market: &Market, name: &'static str) -> Outcome {
    let mut scratch = market.scratch();
    let mut pool = Pool::<S>::new(market, &mut scratch);
    // Vertices formed in the previous iteration (all, initially).
    let mut fresh: Vec<usize> = (0..market.n_items()).collect();

    for round in 0..MAX_ITERATIONS {
        // ---- candidate generation -----------------------------------------------
        let candidate_pairs: Vec<(usize, usize)> = if round == 0 {
            pool.first_round(opts.co_rater_pruning)
        } else {
            let alive: Vec<usize> = pool.alive().collect();
            let mut pairs = Vec::new();
            if opts.new_vertex_pruning {
                let fresh_set: std::collections::HashSet<usize> = fresh.iter().copied().collect();
                for &i in &fresh {
                    for &j in &alive {
                        if j != i && (!fresh_set.contains(&j) || j > i) {
                            pairs.push((i.min(j), i.max(j)));
                        }
                    }
                }
            } else {
                for (ai, &i) in alive.iter().enumerate() {
                    for &j in &alive[ai + 1..] {
                        pairs.push((i, j));
                    }
                }
            }
            pairs
        };

        // ---- scoring -------------------------------------------------------------
        // The gain matrix: every candidate pair is priced independently
        // against the read-only pool. With threads > 1 the pairs fan out
        // over fixed-size chunks (each with its own scratch), reduced in
        // chunk order; at 1 thread the loop streams through the engine's
        // scratch with no extra allocation. Either way the scored-edge
        // sequence is identical.
        let pool_ref = &pool;
        let score_pair = |i: usize, j: usize, scratch: &mut crate::market::Scratch| {
            pool_ref.quote(i, j, opts.co_rater_pruning, scratch).map(|q| (i, j, q))
        };
        let scored: Vec<(usize, usize, MergePlan)> = if market.threads() <= 1 {
            candidate_pairs.iter().filter_map(|&(i, j)| score_pair(i, j, &mut scratch)).collect()
        } else {
            par_chunks_map_reduce(
                market.threads(),
                &candidate_pairs,
                SCORING_CHUNK,
                |chunk| {
                    let mut scratch = market.scratch();
                    chunk
                        .iter()
                        .filter_map(|&(i, j)| score_pair(i, j, &mut scratch))
                        .collect::<Vec<_>>()
                },
                Vec::new(),
                |mut acc: Vec<(usize, usize, MergePlan)>, mut part| {
                    acc.append(&mut part);
                    acc
                },
            )
        };
        let mut edges: Vec<(usize, usize, f64)> = Vec::with_capacity(scored.len());
        let mut quotes: std::collections::HashMap<(usize, usize), MergePlan> =
            std::collections::HashMap::new();
        for (i, j, q) in scored {
            edges.push((i, j, q.gain));
            quotes.insert((i, j), q);
        }
        if edges.is_empty() {
            break;
        }

        // ---- maximum-weight matching on the gain graph ---------------------------
        // Compact the vertex set to the endpoints of gainful edges; all
        // other offers keep their self-loops (stay as they are).
        let mut vmap: std::collections::HashMap<usize, usize> = std::collections::HashMap::new();
        let mut vback: Vec<usize> = Vec::new();
        let mut cedges = Vec::with_capacity(edges.len());
        for &(i, j, w) in &edges {
            let a = *vmap.entry(i).or_insert_with(|| {
                vback.push(i);
                vback.len() - 1
            });
            let b = *vmap.entry(j).or_insert_with(|| {
                vback.push(j);
                vback.len() - 1
            });
            cedges.push((a, b, w));
        }
        let (matching, gain_total) = max_weight_matching_f64(vback.len(), &cedges);
        if gain_total <= 0.0 || matching.edges.is_empty() {
            break;
        }

        // ---- commit the matched merges -------------------------------------------
        fresh.clear();
        for &(ca, cb) in &matching.edges {
            let (i, j) = (vback[ca].min(vback[cb]), vback[ca].max(vback[cb]));
            fresh.push(pool.commit(&[i, j], quotes[&(i, j)], &mut scratch));
        }
        pool.record();
    }
    pool.finish(name)
}

/// `Pure Matching` (Algorithm 1 under pure bundling).
#[derive(Debug, Clone, Copy, Default)]
pub struct PureMatching {
    pub opts: MatchingOptions,
}

impl Configurator for PureMatching {
    fn name(&self) -> &'static str {
        "Pure Matching"
    }

    fn run(&self, market: &Market) -> Outcome {
        run::<PureOffer>(self.opts, market, self.name())
    }
}

/// `Mixed Matching` (Algorithm 1 under mixed bundling).
#[derive(Debug, Clone, Copy, Default)]
pub struct MixedMatching {
    pub opts: MatchingOptions,
}

impl Configurator for MixedMatching {
    fn name(&self) -> &'static str {
        "Mixed Matching"
    }

    fn run(&self, market: &Market) -> Outcome {
        run::<TopOffer>(self.opts, market, self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::test_support::{complementary, substitutes, table1, table1_theta_zero};
    use crate::algorithms::Components;
    use crate::params::{Params, SizeCap};
    use crate::wtp::WtpMatrix;

    #[test]
    fn pure_matching_on_table1() {
        let out = PureMatching::default().run(&table1());
        // Bundle {A,B} at 15.2 nets 30.4 > 27 → single bundle.
        assert!((out.revenue - 30.4).abs() < 1e-9);
        assert_eq!(out.config.roots.len(), 1);
        assert!((out.gain - 3.4 / 27.0).abs() < 1e-9);
        out.config.validate(2);
    }

    #[test]
    fn mixed_matching_on_table1() {
        let m = table1();
        let out = MixedMatching::default().run(&m);
        assert!((out.revenue - 32.0).abs() < 1e-9);
        // The root offers the bundle AND keeps both components on sale.
        assert_eq!(out.config.roots.len(), 1);
        assert_eq!(out.config.roots[0].children.len(), 2);
        out.config.validate(2);
        // Re-evaluating the final configuration reproduces the reported
        // revenue (search accounting is consistent with evaluation).
        assert!((out.config.expected_revenue(&m) - out.revenue).abs() < 1e-9);
    }

    #[test]
    fn reverts_to_components_on_substitutes() {
        let m = substitutes();
        for out in [PureMatching::default().run(&m), MixedMatching::default().run(&m)] {
            assert!((out.revenue - out.components_revenue).abs() < 1e-9, "{}", out.algorithm);
            assert_eq!(out.gain, 0.0);
            assert_eq!(out.config.roots.len(), 2);
        }
    }

    #[test]
    fn size_cap_enforced() {
        // Each user loves one item (10) and mildly wants the rest (2):
        // the grand bundle flattens WTP to 16 for everyone, the classic
        // case where large bundles dominate (Bakos–Brynjolfsson).
        let rows = || {
            WtpMatrix::from_rows(vec![
                vec![10.0, 2.0, 2.0, 2.0],
                vec![2.0, 10.0, 2.0, 2.0],
                vec![2.0, 2.0, 10.0, 2.0],
                vec![2.0, 2.0, 2.0, 10.0],
            ])
        };
        let m = Market::new(rows(), Params::default().with_size_cap(SizeCap::AtMost(2)));
        let out = PureMatching::default().run(&m);
        assert!(out.config.max_bundle_size() <= 2);
        out.config.validate(4);
        // Without the cap the grand bundle forms: price 16 × 4 users = 64
        // vs components 4 × 10 = 40.
        let m2 = Market::new(rows(), Params::default());
        let out2 = PureMatching::default().run(&m2);
        assert_eq!(out2.config.max_bundle_size(), 4);
        assert!((out2.revenue - 64.0).abs() < 1e-9);
        assert!(out2.revenue >= out.revenue - 1e-9);
    }

    #[test]
    fn complementary_market_bundles_up() {
        let out = PureMatching::default().run(&complementary());
        assert!(out.gain > 0.0);
        assert!(out.config.max_bundle_size() >= 2);
    }

    #[test]
    fn disabling_pruning_cannot_reduce_revenue_at_theta_zero() {
        // With θ=0, co-rater pruning is lossless: revenue must match.
        let m = table1_theta_zero();
        let pruned = PureMatching::default().run(&m);
        let full = PureMatching {
            opts: MatchingOptions { co_rater_pruning: false, new_vertex_pruning: false },
        }
        .run(&m);
        assert!((pruned.revenue - full.revenue).abs() < 1e-9);
    }

    #[test]
    fn trace_is_recorded() {
        let out = PureMatching::default().run(&table1());
        assert_eq!(out.trace.iterations(), 1);
        assert!((out.trace.points()[0].revenue - 30.4).abs() < 1e-9);
    }

    #[test]
    fn matching_beats_or_equals_components_always() {
        for m in [table1(), table1_theta_zero(), complementary(), substitutes()] {
            let c = Components::optimal().run(&m);
            let pm = PureMatching::default().run(&m);
            let mm = MixedMatching::default().run(&m);
            assert!(pm.revenue >= c.revenue - 1e-9);
            assert!(mm.revenue >= c.revenue - 1e-9);
        }
    }
}
