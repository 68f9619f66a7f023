//! The frequent-itemset bundling baseline (Section 6.1.3).
//!
//! Simulates "Frequently Bought Together": consumers are transactions (a
//! consumer's transaction is her positive-WTP item set), maximal frequent
//! itemsets mined MAFIA-style are the candidate bundles, and a greedy pass
//! picks non-overlapping candidates by absolute revenue gain over their
//! components, completing the configuration with singletons. "Individual
//! items are used as candidates even if they do not meet the minimum
//! support (this favors the frequent itemset approach)."
//!
//! The paper's tuned minimum support is 0.1% ("We experimented with various
//! minimum supports and found 0.1% to produce the highest revenue").

use crate::algorithms::pool::{Net, Pool, PureOffer, SearchOffer};
use crate::algorithms::Configurator;
use crate::bundle::Bundle;
use crate::config::Outcome;
use crate::market::Market;
use crate::mixed::TopOffer;
use revmax_fim::{mine_maximal_with_threads, relative_minsup, TransactionDb};

/// Relative minimum support (fraction of consumers): the paper's tuned 0.1%.
const MINSUP: f64 = 0.001;

/// Candidate bundles: the maximal frequent itemsets of two or more items
/// within the size cap.
fn candidates(market: &Market) -> Vec<Bundle> {
    // Vertical construction straight from the CSR item columns: each
    // item's rater bitmap IS its transaction bitmap (consumers are the
    // transactions), so no per-user item lists are materialized.
    let bitmaps: Vec<revmax_fim::Bitmap> =
        (0..market.n_items() as u32).map(|i| market.item_raters(i)).collect();
    let db = TransactionDb::from_item_bitmaps(market.n_users(), bitmaps);
    let minsup = relative_minsup(MINSUP, market.n_users());
    let size_cap = market.params().size_cap;
    mine_maximal_with_threads(&db, minsup, market.threads())
        .into_iter()
        .filter(|s| s.items.len() >= 2 && size_cap.allows(s.items.len()))
        .map(|s| Bundle::new(s.items))
        .collect()
}

fn run<S: SearchOffer>(market: &Market, name: &'static str) -> Outcome {
    let mut scratch = market.scratch();
    let mut pool = Pool::<S>::new(market, &mut scratch);

    // Score candidates by absolute gain over their components.
    let mut scored: Vec<_> = candidates(market)
        .into_iter()
        .filter_map(|b| {
            let parts: Vec<&S> =
                b.items().iter().map(|&i| pool.offers[i as usize].as_ref().unwrap()).collect();
            S::plan_merge(market, &parts, Net::PartSum, &mut scratch).map(|plan| (b, plan))
        })
        .collect();
    scored.sort_by(|a, b| b.1.gain.total_cmp(&a.1.gain).then(a.0.cmp(&b.0)));

    // Greedy non-overlapping selection.
    for (bundle, plan) in scored {
        let parts: Vec<usize> = bundle.items().iter().map(|&i| i as usize).collect();
        if parts.iter().all(|&i| pool.offers[i].is_some()) {
            pool.commit(&parts, plan, &mut scratch);
            pool.record();
        }
    }
    // The menu lists the selected bundles first, then the unselected items.
    let unselected = pool.offers[..market.n_items()].iter().flatten().count();
    let mut outcome = pool.finish(name);
    outcome.config.roots.rotate_left(unselected);
    outcome
}

/// `Pure FreqItemset` baseline.
#[derive(Debug, Clone, Copy, Default)]
pub struct PureFreqItemset;

impl Configurator for PureFreqItemset {
    fn name(&self) -> &'static str {
        "Pure FreqItemset"
    }

    fn run(&self, market: &Market) -> Outcome {
        run::<PureOffer>(market, self.name())
    }
}

/// `Mixed FreqItemset` baseline.
#[derive(Debug, Clone, Copy, Default)]
pub struct MixedFreqItemset;

impl Configurator for MixedFreqItemset {
    fn name(&self) -> &'static str {
        "Mixed FreqItemset"
    }

    fn run(&self, market: &Market) -> Outcome {
        run::<TopOffer>(market, self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::test_support::{substitutes, table1, table1_theta_zero};
    use crate::algorithms::Components;

    #[test]
    fn pure_freqitemset_on_table1() {
        // All three consumers rate both items → {0,1} is maximal frequent.
        let out = PureFreqItemset.run(&table1());
        assert!((out.revenue - 30.4).abs() < 1e-9);
        assert_eq!(out.config.roots.len(), 1);
        out.config.validate(2);
    }

    #[test]
    fn mixed_freqitemset_on_table1() {
        let m = table1();
        let out = MixedFreqItemset.run(&m);
        assert!((out.revenue - 32.0).abs() < 1e-9);
        assert!((out.config.expected_revenue(&m) - out.revenue).abs() < 1e-9);
        out.config.validate(2);
    }

    #[test]
    fn never_below_components() {
        for m in [table1(), table1_theta_zero(), substitutes()] {
            let c = Components::optimal().run(&m);
            assert!(PureFreqItemset.run(&m).revenue >= c.revenue - 1e-9);
            assert!(MixedFreqItemset.run(&m).revenue >= c.revenue - 1e-9);
        }
    }

    #[test]
    fn no_co_rated_pair_degenerates_to_components() {
        let w = crate::wtp::WtpMatrix::from_rows(vec![vec![10.0, 0.0], vec![0.0, 10.0]]);
        let m = Market::new(w, crate::params::Params::default());
        let out = PureFreqItemset.run(&m);
        assert_eq!(out.gain, 0.0);
        assert_eq!(out.config.roots.len(), 2);
    }
}
