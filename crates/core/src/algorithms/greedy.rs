//! Algorithm 2: the greedy configurator.
//!
//! Each iteration merges the single pair of current bundles with the
//! highest absolute revenue gain, then requotes only the merges involving
//! the newly formed bundle (O(N) per iteration after the O(N²) first
//! round). A max-heap with lazy invalidation (offers are versioned; stale
//! entries are discarded at pop time) keeps each iteration at
//! O(log candidates).
//!
//! Stopping: by default, when the best gain is no longer positive ("One
//! natural stopping condition, which we adopt in this paper, is when there
//! is no more revenue gain"). The paper's alternative — merge all the way
//! to a single bundle and return the best intermediate configuration — is
//! available via [`GreedyOptions::merge_to_single`] and exercised by the
//! ablation bench.

use crate::algorithms::pool::{Net, Pool, PureOffer, SearchOffer};
use crate::algorithms::Configurator;
use crate::config::Outcome;
use crate::market::{Market, Scratch};
use crate::mixed::{MergePlan, TopOffer};
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Options for [`PureGreedy`] and [`MixedGreedy`]. Candidate pairs are
/// always restricted to bundles sharing at least one rater (lossless for
/// θ ≤ 0; the same heuristic the matching engine uses).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct GreedyOptions {
    /// Keep merging (accepting negative gains) until one bundle remains,
    /// then return the best configuration seen (§5.3.2's alternative
    /// stopping condition).
    pub merge_to_single: bool,
}

/// Heap entry: a quoted merge between two specific offer versions.
struct HeapEntry {
    gain: f64,
    price: f64,
    i: usize,
    j: usize,
    vi: u64,
    vj: u64,
}

impl PartialEq for HeapEntry {
    fn eq(&self, other: &Self) -> bool {
        self.gain == other.gain
    }
}
impl Eq for HeapEntry {}
impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        // Max-heap on gain; deterministic tie-break on indices. total_cmp
        // keeps the heap total even if a NaN gain ever slips in (a NaN
        // sorts above +inf here, surfacing the bad quote immediately
        // instead of panicking mid-solve).
        self.gain.total_cmp(&other.gain).then_with(|| (other.i, other.j).cmp(&(self.i, self.j)))
    }
}

/// Quote the merge of `i` and `j` into the heap, tagged with both
/// offers' versions. Under merge-to-single a loss-making merge is quoted
/// too, so the search can keep going.
fn push_quote<S: SearchOffer>(
    pool: &Pool<'_, S>,
    versions: &[u64],
    heap: &mut BinaryHeap<HeapEntry>,
    (i, j): (usize, usize),
    merge_to_single: bool,
    scratch: &mut Scratch,
) {
    let Some(parts) = pool.admits(i, j, true) else { return };
    let quote = match S::plan_merge(pool.market, &parts, Net::EachPart, scratch) {
        Some(q) => q,
        None if merge_to_single => S::force_merge(pool.market, &parts, scratch),
        None => return,
    };
    heap.push(HeapEntry {
        gain: quote.gain,
        price: quote.price,
        i,
        j,
        vi: versions[i],
        vj: versions[j],
    });
}

fn run<S: SearchOffer>(opts: GreedyOptions, market: &Market, name: &'static str) -> Outcome {
    let mut scratch = market.scratch();
    let mut pool = Pool::<S>::new(market, &mut scratch);
    let mut versions = vec![0u64; market.n_items()];

    // First round: all co-rated pairs.
    let mut heap = BinaryHeap::new();
    for pair in pool.first_round(true) {
        push_quote(&pool, &versions, &mut heap, pair, opts.merge_to_single, &mut scratch);
    }

    // Best configuration snapshot (merge_to_single mode only). After the
    // first dip into loss territory, every new revenue peak is snapshotted
    // (a valley can be followed by a higher peak, which a first-dip-only
    // snapshot would miss).
    let mut best_snapshot: Option<(f64, Vec<Option<S>>)> = None;
    let mut dipped = false;
    while let Some(entry) = heap.pop() {
        // Lazy invalidation: both endpoints must be unchanged.
        if pool.offers[entry.i].is_none()
            || pool.offers[entry.j].is_none()
            || versions[entry.i] != entry.vi
            || versions[entry.j] != entry.vj
        {
            continue;
        }
        if entry.gain <= 0.0 && !opts.merge_to_single {
            break; // natural stopping condition
        }
        if entry.gain <= 0.0 && !dipped {
            // Crossing into loss territory: remember the peak.
            dipped = true;
            best_snapshot = Some((pool.revenue, pool.offers.clone()));
        }
        versions[entry.i] += 1;
        versions[entry.j] += 1;
        let plan = MergePlan { price: entry.price, gain: entry.gain };
        let new_idx = pool.commit(&[entry.i, entry.j], plan, &mut scratch);
        versions.push(0);
        pool.record();
        if dipped && best_snapshot.as_ref().is_some_and(|(b, _)| pool.revenue > *b) {
            // New post-valley peak: update the rollback point.
            best_snapshot = Some((pool.revenue, pool.offers.clone()));
        }
        // Requote the new bundle against every other alive offer.
        let others: Vec<usize> = pool.alive().filter(|&x| x != new_idx).collect();
        for x in others {
            let pair = (x.min(new_idx), x.max(new_idx));
            push_quote(&pool, &versions, &mut heap, pair, opts.merge_to_single, &mut scratch);
        }
        if pool.n_alive() == 1 {
            break;
        }
    }

    // merge_to_single: roll back to the best configuration seen.
    if let Some((best_rev, snapshot)) = best_snapshot {
        if best_rev > pool.revenue {
            pool.offers = snapshot;
            pool.revenue = best_rev;
        }
    }
    pool.finish(name)
}

/// `Pure Greedy` (Algorithm 2 under pure bundling).
#[derive(Debug, Clone, Copy, Default)]
pub struct PureGreedy {
    pub opts: GreedyOptions,
}

impl Configurator for PureGreedy {
    fn name(&self) -> &'static str {
        "Pure Greedy"
    }

    fn run(&self, market: &Market) -> Outcome {
        run::<PureOffer>(self.opts, market, self.name())
    }
}

/// `Mixed Greedy` (Algorithm 2 under mixed bundling).
#[derive(Debug, Clone, Copy, Default)]
pub struct MixedGreedy {
    pub opts: GreedyOptions,
}

impl Configurator for MixedGreedy {
    fn name(&self) -> &'static str {
        "Mixed Greedy"
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

    #[test]
    fn heap_ordering_is_total_even_with_nan_gains() {
        // Regression (PR 5 class): `HeapEntry::cmp` used
        // `partial_cmp(..).expect("gains are never NaN")` — one NaN quote
        // panicked the heap. total_cmp makes the order total: a NaN sorts
        // above +inf (surfacing the bad quote first) instead of aborting.
        let e = |gain: f64, i: usize, j: usize| HeapEntry { gain, price: 0.0, i, j, vi: 0, vj: 0 };
        let mut heap = std::collections::BinaryHeap::new();
        heap.push(e(1.0, 0, 1));
        heap.push(e(f64::NAN, 0, 2));
        heap.push(e(f64::INFINITY, 1, 2));
        assert!(heap.pop().unwrap().gain.is_nan());
        assert_eq!(heap.pop().unwrap().gain, f64::INFINITY);
        assert_eq!(heap.pop().unwrap().gain, 1.0);
        // Finite ties still break on indices, low pair first.
        let mut heap = std::collections::BinaryHeap::new();
        heap.push(e(2.0, 3, 4));
        heap.push(e(2.0, 0, 1));
        let top = heap.pop().unwrap();
        assert_eq!((top.i, top.j), (0, 1));
    }

    #[test]
    fn pure_greedy_on_table1() {
        let out = PureGreedy::default().run(&table1());
        assert!((out.revenue - 30.4).abs() < 1e-9);
        assert_eq!(out.config.roots.len(), 1);
        out.config.validate(2);
    }

    #[test]
    fn mixed_greedy_on_table1() {
        let m = table1();
        let out = MixedGreedy::default().run(&m);
        assert!((out.revenue - 32.0).abs() < 1e-9);
        assert!((out.config.expected_revenue(&m) - out.revenue).abs() < 1e-9);
    }

    #[test]
    fn greedy_never_below_components() {
        for m in [table1(), table1_theta_zero(), complementary(), substitutes()] {
            let c = Components::optimal().run(&m);
            assert!(PureGreedy::default().run(&m).revenue >= c.revenue - 1e-9);
            assert!(MixedGreedy::default().run(&m).revenue >= c.revenue - 1e-9);
        }
    }

    #[test]
    fn one_merge_per_iteration() {
        let out = PureGreedy::default().run(&complementary());
        // Every iteration collapses exactly two bundles into one.
        let pts = out.trace.points();
        assert!(!pts.is_empty());
        for w in pts.windows(2) {
            assert_eq!(w[0].n_bundles, w[1].n_bundles + 1);
            assert!(w[1].revenue >= w[0].revenue);
        }
    }

    #[test]
    fn merge_to_single_never_worse_than_default() {
        for m in [table1(), table1_theta_zero(), complementary(), substitutes()] {
            let plain = PureGreedy::default().run(&m);
            let deep = PureGreedy { opts: GreedyOptions { merge_to_single: true } }.run(&m);
            assert!(
                deep.revenue >= plain.revenue - 1e-9,
                "merge_to_single lost revenue: {} vs {}",
                deep.revenue,
                plain.revenue
            );
        }
    }

    #[test]
    fn greedy_matches_matching_on_two_items() {
        // With two items both algorithms solve the same 1-merge decision.
        use crate::algorithms::{MixedMatching, PureMatching};
        for m in [table1(), table1_theta_zero(), substitutes()] {
            let pg = PureGreedy::default().run(&m).revenue;
            let pm = PureMatching::default().run(&m).revenue;
            assert!((pg - pm).abs() < 1e-9);
            let mg = MixedGreedy::default().run(&m).revenue;
            let mm = MixedMatching::default().run(&m).revenue;
            assert!((mg - mm).abs() < 1e-9);
        }
    }
}
