//! The merge search shared by the matching, greedy and FreqItemset
//! configurators.
//!
//! All three start from one offer per item and repeatedly merge disjoint
//! offers into bundles; they differ only in which merges they pick.
//! [`Pool`] owns everything else: the offers, the running revenue, the
//! trace and its clock, the admissibility check, commits and the final
//! [`Outcome`]. Pure and mixed bundling differ only in *how a merge is
//! priced and accounted* (Section 5.3.3: "the key difference between the
//! two is how the revenue of a bundle is computed"); [`SearchOffer`]
//! abstracts exactly that, so each selection policy is written once.

use crate::bundle::Bundle;
use crate::config::{BundleConfig, OfferNode, Outcome, Strategy};
use crate::market::{Market, Scratch};
use crate::mixed::{self, MergePlan, TopOffer};
use crate::trace::IterationTrace;
use std::time::Instant;

/// The floating-point order in which a pure quote nets the parts' revenue
/// out of the union's. Recorded outcomes pin each caller's order bit for
/// bit; a mixed quote prices the add-on directly and has no such step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Net {
    /// `r − a − b − …`: the pair merges of matching and greedy.
    EachPart,
    /// `r − (a + b + …)`: FreqItemset's candidate bundles.
    PartSum,
}

/// One top-level offer during configuration search. `Send + Sync` so the
/// matching engine can score candidate merges from a read-only pool
/// across worker threads.
pub(crate) trait SearchOffer: Sized + Clone + Send + Sync {
    /// Which problem variant this offer type solves.
    const STRATEGY: Strategy;

    /// The items covered.
    fn bundle(&self) -> &Bundle;
    /// Current expected revenue attributed to this offer.
    fn revenue(&self) -> f64;
    /// Users with positive WTP on any covered item.
    fn raters(&self) -> &revmax_fim::Bitmap;
    /// Convert into the final offer tree.
    fn into_node(self) -> OfferNode;

    /// Initial singleton offer for one item.
    fn init(market: &Market, item: u32, scratch: &mut Scratch) -> Self;
    /// Price the merge of disjoint `parts`; `None` when the gain is not
    /// positive.
    fn plan_merge(
        market: &Market,
        parts: &[&Self],
        net: Net,
        scratch: &mut Scratch,
    ) -> Option<MergePlan>;
    /// Quote a merge the search makes even at a loss (greedy's
    /// merge-to-single): the union at its best stand-alone price, with the
    /// revenue change that committing it at that price makes.
    fn force_merge(market: &Market, parts: &[&Self], scratch: &mut Scratch) -> MergePlan;
    /// Execute a quoted merge.
    fn commit_merge(
        market: &Market,
        parts: Vec<Self>,
        plan: MergePlan,
        scratch: &mut Scratch,
    ) -> Self;
}

fn union<S: SearchOffer>(parts: &[&S]) -> Bundle {
    let (first, rest) = parts.split_first().expect("a merge needs parts");
    rest.iter().fold(first.bundle().clone(), |acc, p| acc.union(p.bundle()))
}

/// Pure-bundling offer: a bundle at a single price, no sub-offers.
#[derive(Debug, Clone)]
pub(crate) struct PureOffer {
    pub bundle: Bundle,
    pub price: f64,
    pub revenue: f64,
    pub raters: revmax_fim::Bitmap,
}

impl SearchOffer for PureOffer {
    const STRATEGY: Strategy = Strategy::Pure;

    fn bundle(&self) -> &Bundle {
        &self.bundle
    }

    fn revenue(&self) -> f64 {
        self.revenue
    }

    fn raters(&self) -> &revmax_fim::Bitmap {
        &self.raters
    }

    fn into_node(self) -> OfferNode {
        OfferNode::leaf(self.bundle, self.price)
    }

    fn init(market: &Market, item: u32, scratch: &mut Scratch) -> Self {
        let priced = market.price_pure(&[item], scratch);
        PureOffer {
            bundle: Bundle::single(item),
            price: priced.price,
            revenue: priced.revenue,
            raters: market.item_raters(item),
        }
    }

    fn plan_merge(
        market: &Market,
        parts: &[&Self],
        net: Net,
        scratch: &mut Scratch,
    ) -> Option<MergePlan> {
        let priced = market.price_pure(union(parts).items(), scratch);
        let gain = match net {
            Net::EachPart => parts.iter().fold(priced.revenue, |g, p| g - p.revenue),
            Net::PartSum => priced.revenue - parts.iter().fold(0.0, |a, p| a + p.revenue),
        };
        (gain > 0.0).then_some(MergePlan { price: priced.price, gain })
    }

    fn force_merge(market: &Market, parts: &[&Self], scratch: &mut Scratch) -> MergePlan {
        let priced = market.price_pure(union(parts).items(), scratch);
        MergePlan {
            price: priced.price,
            gain: parts.iter().fold(priced.revenue, |g, p| g - p.revenue),
        }
    }

    fn commit_merge(_: &Market, parts: Vec<Self>, plan: MergePlan, _: &mut Scratch) -> Self {
        let bundle = union(&parts.iter().collect::<Vec<_>>());
        let mut parts = parts.into_iter();
        let first = parts.next().expect("a merge needs parts");
        let (mut revenue, mut raters) = (first.revenue, first.raters);
        for p in parts {
            revenue += p.revenue;
            raters.or_assign(&p.raters);
        }
        PureOffer { bundle, price: plan.price, revenue: revenue + plan.gain, raters }
    }
}

/// Mixed-bundling offer: the offer tree plus consumer holdings.
impl SearchOffer for TopOffer {
    const STRATEGY: Strategy = Strategy::Mixed;

    fn bundle(&self) -> &Bundle {
        &self.node.bundle
    }

    fn revenue(&self) -> f64 {
        self.revenue
    }

    fn raters(&self) -> &revmax_fim::Bitmap {
        &self.raters
    }

    fn into_node(self) -> OfferNode {
        self.node
    }

    fn init(market: &Market, item: u32, scratch: &mut Scratch) -> Self {
        mixed::init_component(market, item, scratch)
    }

    fn plan_merge(
        market: &Market,
        parts: &[&Self],
        _: Net,
        scratch: &mut Scratch,
    ) -> Option<MergePlan> {
        mixed::price_merge(market, parts, scratch)
    }

    fn force_merge(market: &Market, parts: &[&Self], scratch: &mut Scratch) -> MergePlan {
        let price = market.price_pure(union(parts).items(), scratch).price;
        let owned = parts.iter().map(|&p| p.clone()).collect();
        let merged = mixed::commit_merge(market, owned, price, scratch);
        MergePlan { price, gain: parts.iter().fold(merged.revenue, |g, p| g - p.revenue) }
    }

    fn commit_merge(
        market: &Market,
        parts: Vec<Self>,
        plan: MergePlan,
        scratch: &mut Scratch,
    ) -> Self {
        mixed::commit_merge(market, parts, plan.price, scratch)
    }
}

/// The offer pool of one configuration search.
pub(crate) struct Pool<'m, S> {
    pub market: &'m Market,
    /// Top-level offers: the items first, then merged offers in commit
    /// order; `None` = consumed by a merge.
    pub offers: Vec<Option<S>>,
    /// Expected revenue of the current offers.
    pub revenue: f64,
    components_revenue: f64,
    n_alive: usize,
    trace: IterationTrace,
    start: Instant,
}

impl<'m, S: SearchOffer> Pool<'m, S> {
    /// One offer per item, and the clock for the trace.
    pub fn new(market: &'m Market, scratch: &mut Scratch) -> Self {
        let start = Instant::now(); // audit: allow(wall-clock) trace timings are reported stats, never a result input
        let offers: Vec<Option<S>> =
            (0..market.n_items() as u32).map(|i| Some(S::init(market, i, scratch))).collect();
        let revenue = offers.iter().flatten().map(S::revenue).fold(0.0, |a, x| a + x);
        Pool {
            market,
            n_alive: offers.len(),
            offers,
            revenue,
            components_revenue: revenue,
            trace: IterationTrace::new(),
            start,
        }
    }

    /// Indices of the offers still on the menu.
    pub fn alive(&self) -> impl Iterator<Item = usize> + '_ {
        (0..self.offers.len()).filter(|&i| self.offers[i].is_some())
    }

    /// Number of offers still on the menu.
    pub fn n_alive(&self) -> usize {
        self.n_alive
    }

    /// First-round candidate pairs: item pairs co-rated by at least one
    /// consumer under co-rater pruning, else every item pair.
    pub fn first_round(&self, co_rater_pruning: bool) -> Vec<(usize, usize)> {
        let n = self.market.n_items();
        if co_rater_pruning {
            let pairs = self.market.co_rated_pairs().into_iter();
            pairs.map(|(a, b)| (a as usize, b as usize)).collect()
        } else {
            (0..n).flat_map(|i| ((i + 1)..n).map(move |j| (i, j))).collect()
        }
    }

    /// The alive offers `i` and `j` when their merge is admissible: within
    /// the size cap and, under co-rater pruning, sharing a rater (a cheap
    /// bitmap intersection).
    pub fn admits(&self, i: usize, j: usize, co_rater_pruning: bool) -> Option<[&S; 2]> {
        let (Some(a), Some(b)) = (&self.offers[i], &self.offers[j]) else { return None };
        if !self.market.params().size_cap.allows(a.bundle().len() + b.bundle().len()) {
            return None;
        }
        if co_rater_pruning && !a.raters().intersects(b.raters()) {
            return None;
        }
        Some([a, b])
    }

    /// Quote the merge of `i` and `j` if it is admissible and gains.
    pub fn quote(
        &self,
        i: usize,
        j: usize,
        co_rater_pruning: bool,
        scratch: &mut Scratch,
    ) -> Option<MergePlan> {
        let parts = self.admits(i, j, co_rater_pruning)?;
        S::plan_merge(self.market, &parts, Net::EachPart, scratch)
    }

    /// Merge the alive offers at `parts` as quoted; returns the index of
    /// the merged offer.
    pub fn commit(&mut self, parts: &[usize], plan: MergePlan, scratch: &mut Scratch) -> usize {
        let taken = parts.iter().map(|&i| self.offers[i].take().expect("merged offer alive"));
        let merged = S::commit_merge(self.market, taken.collect(), plan, scratch);
        self.offers.push(Some(merged));
        self.revenue += plan.gain;
        self.n_alive -= parts.len() - 1;
        self.offers.len() - 1
    }

    /// Append the current revenue and bundle count to the trace.
    pub fn record(&mut self) {
        self.trace.push(self.revenue, self.start.elapsed(), self.n_alive);
    }

    /// The configuration of the alive offers, in pool order.
    pub fn finish(self, name: &'static str) -> Outcome {
        let n = self.market.n_items();
        let roots = self.offers.into_iter().flatten().map(S::into_node).collect();
        let config = BundleConfig { strategy: S::STRATEGY, roots };
        debug_assert!({
            config.validate(n);
            true
        });
        Outcome::assemble(
            name,
            config,
            self.revenue,
            self.components_revenue,
            self.market,
            self.trace,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::test_support::table1;

    #[test]
    fn pure_offer_init_and_merge() {
        let m = table1();
        let mut s = m.scratch();
        let a = PureOffer::init(&m, 0, &mut s);
        let b = PureOffer::init(&m, 1, &mut s);
        assert!((a.revenue - 16.0).abs() < 1e-9);
        assert!((b.revenue - 11.0).abs() < 1e-9);
        // Pure merge: bundle revenue 30.4 > 27 → gain 3.4.
        let q = PureOffer::plan_merge(&m, &[&a, &b], Net::EachPart, &mut s).expect("gain");
        assert!((q.gain - 3.4).abs() < 1e-9);
        assert!((q.price - 15.2).abs() < 1e-9);
        let merged = PureOffer::commit_merge(&m, vec![a, b], q, &mut s);
        assert!((merged.revenue - 30.4).abs() < 1e-9);
        assert_eq!(merged.bundle.items(), &[0, 1]);
    }

    #[test]
    fn mixed_offer_matches_mixed_module() {
        let m = table1();
        let mut s = m.scratch();
        let a = TopOffer::init(&m, 0, &mut s);
        let b = TopOffer::init(&m, 1, &mut s);
        let q = TopOffer::plan_merge(&m, &[&a, &b], Net::EachPart, &mut s).expect("gain");
        assert!((q.gain - 5.0).abs() < 1e-9);
        let merged = TopOffer::commit_merge(&m, vec![a, b], q, &mut s);
        assert!((merged.revenue() - 32.0).abs() < 1e-9);
        // The mixed node keeps its components as children.
        assert_eq!(merged.node.children.len(), 2);
    }

    #[test]
    fn plan_merge_none_when_no_gain() {
        use crate::algorithms::test_support::substitutes;
        let m = substitutes();
        let mut s = m.scratch();
        let a = PureOffer::init(&m, 0, &mut s);
        let b = PureOffer::init(&m, 1, &mut s);
        // Heavy substitutes (θ=-0.5): merging loses revenue.
        assert!(PureOffer::plan_merge(&m, &[&a, &b], Net::EachPart, &mut s).is_none());
    }
}
