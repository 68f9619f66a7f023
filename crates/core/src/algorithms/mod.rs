//! The configuration algorithms (Section 5) and baselines (Section 6.1.3).

mod components;
mod freq_itemset;
mod greedy;
mod matching;
mod pool;

pub use components::Components;
pub use freq_itemset::{MixedFreqItemset, PureFreqItemset};
pub use greedy::{GreedyOptions, MixedGreedy, PureGreedy};
pub use matching::{MatchingOptions, MixedMatching, PureMatching};

use crate::config::Outcome;
use crate::market::Market;

/// A bundle-configuration algorithm: consumes a market, produces a priced
/// configuration with metrics and a per-iteration trace.
pub trait Configurator {
    /// Paper nomenclature ("Components", "Pure Matching", …).
    fn name(&self) -> &'static str;
    /// Run on a market.
    fn run(&self, market: &Market) -> Outcome;
}

/// The seven comparative methods of Section 6.2 in the paper's order, each
/// paired with its canonical name and built with the paper's default
/// options. **The** single place the configurator list is defined — the
/// experiment harness, the determinism suite, and the examples all draw
/// from here. The pricing objective is not an option here: it rides the
/// market's [`crate::params::Params`].
pub fn registry() -> Vec<(&'static str, Box<dyn Configurator>)> {
    vec![
        ("Components", Box::new(Components::optimal()) as Box<dyn Configurator>),
        ("Pure Matching", Box::new(PureMatching::default())),
        ("Pure Greedy", Box::new(PureGreedy::default())),
        ("Mixed Matching", Box::new(MixedMatching::default())),
        ("Mixed Greedy", Box::new(MixedGreedy::default())),
        ("Pure FreqItemset", Box::new(PureFreqItemset)),
        ("Mixed FreqItemset", Box::new(MixedFreqItemset)),
    ]
}

/// Look one configurator up by name (default options): a [`registry`]
/// method, or the listed-price `Components` baseline of Table 2, which
/// stays out of the registry so "all seven methods" keeps meaning the
/// paper's seven.
pub fn by_name(name: &str) -> Option<Box<dyn Configurator>> {
    let listed = Components::listed();
    if name == listed.name() {
        return Some(Box::new(listed));
    }
    registry().into_iter().find(|(n, _)| *n == name).map(|(_, c)| c)
}

#[cfg(test)]
pub(crate) mod test_support {
    use crate::market::Market;
    use crate::params::Params;
    use crate::wtp::WtpMatrix;

    /// Table 1's market (θ = −0.05).
    pub fn table1() -> Market {
        let w = WtpMatrix::from_rows(vec![vec![12.0, 4.0], vec![8.0, 2.0], vec![5.0, 11.0]]);
        Market::new(w, Params::default().with_theta(-0.05))
    }

    /// Same WTP, θ = 0 (independent items).
    pub fn table1_theta_zero() -> Market {
        let w = WtpMatrix::from_rows(vec![vec![12.0, 4.0], vec![8.0, 2.0], vec![5.0, 11.0]]);
        Market::new(w, Params::default())
    }

    /// A complementary market where bundling clearly wins: two items,
    /// anti-correlated WTP, θ > 0.
    pub fn complementary() -> Market {
        let w = WtpMatrix::from_rows(vec![
            vec![10.0, 2.0],
            vec![2.0, 10.0],
            vec![6.0, 6.0],
            vec![9.0, 3.0],
        ]);
        Market::new(w, Params::default().with_theta(0.10))
    }

    /// A market of substitutes (θ < 0) where bundling cannot help and every
    /// algorithm must fall back to Components.
    pub fn substitutes() -> Market {
        let w = WtpMatrix::from_rows(vec![vec![10.0, 10.0], vec![10.0, 10.0], vec![10.0, 10.0]]);
        Market::new(w, Params::default().with_theta(-0.5))
    }
}

#[cfg(test)]
mod registry_tests {
    use super::*;

    #[test]
    fn registry_has_the_seven_methods_in_paper_order() {
        let names: Vec<&str> = registry().iter().map(|(n, _)| *n).collect();
        assert_eq!(
            names,
            vec![
                "Components",
                "Pure Matching",
                "Pure Greedy",
                "Mixed Matching",
                "Mixed Greedy",
                "Pure FreqItemset",
                "Mixed FreqItemset",
            ]
        );
    }

    #[test]
    fn registry_keys_agree_with_configurator_names() {
        for (key, c) in registry() {
            assert_eq!(key, c.name());
        }
    }

    #[test]
    fn by_name_round_trips() {
        let c = by_name("Mixed Matching").expect("known name");
        assert_eq!(c.name(), "Mixed Matching");
        assert!(by_name("No Such Method").is_none());
        let listed = by_name("Components (listed prices)").expect("listed baseline");
        assert_eq!(listed.name(), "Components (listed prices)");
        assert!(registry().iter().all(|(n, _)| *n != listed.name()));
    }
}

#[cfg(test)]
mod doc_claim_tests {
    //! Pins the two numeric claims the crate-level docs make (the
    //! `lib.rs` quickstart): the Table 1 Components baseline is exactly
    //! $27, and mixed bundling never falls below Components — not just on
    //! Table 1 but across randomly generated markets.

    use super::test_support::table1;
    use super::{Components, Configurator, MixedMatching};
    use crate::market::Market;
    use crate::params::Params;
    use crate::wtp::WtpMatrix;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn table1_components_is_27_and_mixed_is_32() {
        let m = table1();
        let components = Components::optimal().run(&m);
        assert!(
            (components.revenue - 27.0).abs() < 1e-6,
            "Components on Table 1 must be $27, got {}",
            components.revenue
        );
        let mixed = MixedMatching::default().run(&m);
        // $32.00 under the §4.2 upgrade semantics (see EXPERIMENTS.md).
        assert!(
            (mixed.revenue - 32.0).abs() < 1e-6,
            "Mixed Matching on Table 1 must be $32, got {}",
            mixed.revenue
        );
        assert!(mixed.revenue > components.revenue);
    }

    #[test]
    fn mixed_matching_never_below_components_across_seeds() {
        // §6's guarantee: every configurator reverts to Components when
        // bundling cannot help, so revenue never drops below the baseline.
        for seed in 0..12u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let n_users = rng.random_range(3..12usize);
            let n_items = rng.random_range(2..7usize);
            let rows: Vec<Vec<f64>> = (0..n_users)
                .map(|_| (0..n_items).map(|_| rng.random_range(0.0..20.0)).collect())
                .collect();
            let theta = rng.random_range(-0.2..=0.2);
            let m = Market::new(WtpMatrix::from_rows(rows), Params::default().with_theta(theta));
            let base = Components::optimal().run(&m).revenue;
            let mixed = MixedMatching::default().run(&m).revenue;
            assert!(
                mixed >= base - 1e-9,
                "seed {seed} (theta {theta:.3}): mixed {mixed} below components {base}"
            );
        }
    }
}
