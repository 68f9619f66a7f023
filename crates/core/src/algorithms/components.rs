//! The non-bundling baseline: sell every item individually (Section 6.1.3).

use crate::algorithms::Configurator;
use crate::bundle::Bundle;
use crate::config::{BundleConfig, OfferNode, Outcome, Strategy};
use crate::market::Market;
use crate::trace::IterationTrace;

/// How component prices are set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ComponentPricing {
    /// Revenue-optimal per-item price (§4.2) — the stronger baseline the
    /// paper compares against ("Optimal pricing is stronger baseline than
    /// Amazon's pricing … It is sufficient to compare to optimal pricing").
    Optimal,
    /// The item's listed price from the dataset ("Amazon's pricing",
    /// Table 2). Requires listed prices on the WTP matrix.
    Listed,
}

/// `Components`: each item sold separately.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Components {
    pricing: ComponentPricing,
}

impl Components {
    /// Optimal per-item pricing (the paper's default baseline).
    pub fn optimal() -> Self {
        Components { pricing: ComponentPricing::Optimal }
    }

    /// Listed ("Amazon's") pricing, for the Table 2 comparison.
    pub fn listed() -> Self {
        Components { pricing: ComponentPricing::Listed }
    }
}

impl Default for Components {
    fn default() -> Self {
        Self::optimal()
    }
}

impl Configurator for Components {
    fn name(&self) -> &'static str {
        match self.pricing {
            ComponentPricing::Optimal => "Components",
            ComponentPricing::Listed => "Components (listed prices)",
        }
    }

    fn run(&self, market: &Market) -> Outcome {
        let mut scratch = market.scratch();
        let mut roots = Vec::with_capacity(market.n_items());
        let mut revenue = 0.0;
        for item in 0..market.n_items() as u32 {
            let p = match self.pricing {
                ComponentPricing::Optimal => market.price_pure(&[item], &mut scratch),
                ComponentPricing::Listed => market
                    .price_listed(item)
                    .expect("listed pricing requires a matrix built from ratings data"),
            };
            revenue += p.revenue;
            // Items nobody wants still need a price on the menu; use the
            // listed price or zero.
            let price = if p.price > 0.0 {
                p.price
            } else {
                market.wtp().listed_price(item).unwrap_or(0.0)
            };
            roots.push(OfferNode::leaf(Bundle::single(item), price));
        }
        let config = BundleConfig { strategy: Strategy::Pure, roots };
        Outcome::assemble(self.name(), config, revenue, revenue, market, IterationTrace::new())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::test_support::table1;
    use crate::params::Params;
    use crate::wtp::WtpMatrix;

    #[test]
    fn table1_components_revenue() {
        let out = Components::optimal().run(&table1());
        assert!((out.revenue - 27.0).abs() < 1e-9);
        assert_eq!(out.gain, 0.0);
        assert_eq!(out.config.roots.len(), 2);
        out.config.validate(2);
        // Coverage = 27 / 42.
        assert!((out.coverage - 27.0 / 42.0).abs() < 1e-12);
    }

    #[test]
    fn listed_pricing_uses_dataset_prices() {
        // One item at listed price 10; raters at stars 5 and 2 (λ=1.25):
        // WTP 12.5 and 5. Listed price 10 sells to the 5-star user only.
        let w = WtpMatrix::from_ratings(2, 1, vec![(0, 0, 5), (1, 0, 2)], &[10.0], 1.25);
        let m = Market::new(w, Params::default());
        let out = Components::listed().run(&m);
        assert!((out.revenue - 10.0).abs() < 1e-9);
        assert_eq!(out.config.roots[0].price, 10.0);
        // Optimal pricing does better: charge 12.5 (12.5) or 5 (10)... 12.5.
        let opt = Components::optimal().run(&m);
        assert!((opt.revenue - 12.5).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "listed pricing requires")]
    fn listed_without_prices_panics() {
        Components::listed().run(&table1());
    }

    #[test]
    fn expected_revenue_of_config_matches_reported() {
        let m = table1();
        let out = Components::optimal().run(&m);
        assert!((out.config.expected_revenue(&m) - out.revenue).abs() < 1e-9);
    }
}
