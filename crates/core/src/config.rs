//! Bundle configurations: the output of every algorithm, plus evaluation.
//!
//! A configuration is a forest of [`OfferNode`]s. Under **pure bundling**
//! (Problem 1) the forest is flat: the roots partition the item set and only
//! roots are on sale. Under **mixed bundling** (Problem 2) every node of
//! every tree is on sale; children partition their parent (the subsumption
//! condition `b1∩b2≠∅ ⇒ b1⊆b2 ∨ b2⊆b1`), and consumers may upgrade from
//! held sub-offers to an ancestor bundle.

use crate::bundle::Bundle;
use crate::eval::{CompiledMenu, KernelKind, Users, DEFAULT_BLOCK};
use crate::market::Market;
use crate::mixed;
use crate::trace::IterationTrace;
use rand::Rng;

/// The two bundling strategies of Section 3.2.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Strategy {
    /// Strict partition; only top-level bundles on sale.
    Pure,
    /// Subsumption family; bundles and their components both on sale.
    Mixed,
}

/// One sellable offer: a bundle at a price, with the offers it subsumes.
#[derive(Debug, Clone, PartialEq)]
pub struct OfferNode {
    /// The items covered by this offer.
    pub bundle: Bundle,
    /// The (single, per §3.2 assumptions) price of this offer.
    pub price: f64,
    /// Subsumed offers (empty for components; populated under mixed
    /// bundling where replaced bundles stay on sale).
    pub children: Vec<OfferNode>,
}

impl OfferNode {
    /// A leaf offer.
    pub fn leaf(bundle: Bundle, price: f64) -> Self {
        OfferNode { bundle, price, children: Vec::new() }
    }

    /// Pre-order traversal over this offer and everything it subsumes.
    pub fn iter(&self) -> impl Iterator<Item = &OfferNode> {
        let mut stack = vec![self];
        std::iter::from_fn(move || {
            let node = stack.pop()?;
            stack.extend(node.children.iter());
            Some(node)
        })
    }

    /// Number of nodes in this subtree.
    pub fn node_count(&self) -> usize {
        1 + self.children.iter().map(OfferNode::node_count).sum::<usize>()
    }

    fn validate(&self, strategy: Strategy) {
        assert!(self.price.is_finite() && self.price >= 0.0, "offer price must be >= 0");
        if strategy == Strategy::Pure {
            assert!(self.children.is_empty(), "pure bundling offers cannot subsume others");
            return;
        }
        if self.children.is_empty() {
            return;
        }
        // Children must partition the parent.
        let mut covered: Vec<u32> = Vec::new();
        for c in &self.children {
            assert!(
                c.bundle.is_subset_of(&self.bundle),
                "child {} not within parent {}",
                c.bundle,
                self.bundle
            );
            covered.extend_from_slice(c.bundle.items());
            c.validate(strategy);
        }
        covered.sort_unstable();
        assert!(covered.windows(2).all(|w| w[0] != w[1]), "children of {} overlap", self.bundle);
        assert_eq!(covered, self.bundle.items(), "children of {} do not cover it", self.bundle);
    }
}

/// A complete bundle configuration `X_I` (plus, under mixed bundling, the
/// subsumed offers `X'_I` as tree children).
#[derive(Debug, Clone, PartialEq)]
pub struct BundleConfig {
    pub strategy: Strategy,
    /// Top-level offers; their bundles partition the item set.
    pub roots: Vec<OfferNode>,
}

impl BundleConfig {
    /// Validate the conditions of Problem 1 / Problem 2 against a market of
    /// `n_items` items: roots partition `I`; (mixed) children partition
    /// parents; prices are sane.
    pub fn validate(&self, n_items: usize) {
        let mut covered: Vec<u32> = Vec::new();
        for r in &self.roots {
            covered.extend_from_slice(r.bundle.items());
            r.validate(self.strategy);
        }
        covered.sort_unstable();
        assert!(covered.windows(2).all(|w| w[0] != w[1]), "top-level bundles overlap");
        let expect: Vec<u32> = (0..n_items as u32).collect();
        assert_eq!(covered, expect, "configuration does not cover all items exactly once");
    }

    /// All offers on sale (roots only for pure; every node for mixed).
    pub fn offers(&self) -> Vec<&OfferNode> {
        match self.strategy {
            Strategy::Pure => self.roots.iter().collect(),
            Strategy::Mixed => self.roots.iter().flat_map(|r| r.iter()).collect(),
        }
    }

    /// Number of top-level bundles.
    pub fn n_bundles(&self) -> usize {
        self.roots.len()
    }

    /// Size of the largest top-level bundle.
    pub fn max_bundle_size(&self) -> usize {
        self.roots.iter().map(|r| r.bundle.len()).max().unwrap_or(0)
    }

    /// Expected total revenue at the stored prices: the menu compiled and
    /// evaluated by [`crate::eval`] over every consumer — the same block
    /// loop, kernel and §6 fold the serving layer runs, so this is
    /// bit-identical to a served whole-market total at any thread count.
    /// Panics when the configuration does not [`BundleConfig::validate`]
    /// against `market`.
    ///
    /// Exact for pure bundling (any adoption model) and for mixed bundling
    /// under step adoption. For mixed bundling with a soft sigmoid the
    /// consumers' sequential upgrade decisions make the exact expectation
    /// exponential; this evaluates the modal (threshold) outcome — use
    /// [`BundleConfig::sampled_revenue`] there (as the paper does: "we
    /// average revenues across ten runs").
    pub fn expected_revenue(&self, market: &Market) -> f64 {
        let menu = CompiledMenu::compile(market, self);
        let all = Users::All(menu.n_users());
        menu.revenue(market.threads(), DEFAULT_BLOCK, KernelKind::Tiled, all)
    }

    /// Monte-Carlo revenue: draw every adoption decision, sum the payments,
    /// average over `runs`. Matches [`BundleConfig::expected_revenue`]
    /// exactly in the step regime.
    pub fn sampled_revenue<R: Rng>(&self, market: &Market, rng: &mut R, runs: usize) -> f64 {
        assert!(runs >= 1, "at least one run required");
        let mut scratch = market.scratch();
        let mut total = 0.0;
        for _ in 0..runs {
            match self.strategy {
                Strategy::Pure => {
                    let adoption = market.pricing_ctx().adoption;
                    for r in &self.roots {
                        let wtps = market.bundle_wtps(r.bundle.items(), &mut scratch);
                        for &w in wtps.iter() {
                            if adoption.sample(rng, w, r.price) {
                                total += r.price;
                            }
                        }
                    }
                }
                Strategy::Mixed => {
                    for r in &self.roots {
                        total += mixed::evaluate_tree_sampled(market, r, &mut scratch, rng);
                    }
                }
            }
        }
        total / runs as f64
    }
}

impl std::fmt::Display for BundleConfig {
    /// Menu rendering: one line per offer, children indented, large item
    /// lists abbreviated.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        fn brief(b: &crate::bundle::Bundle) -> String {
            if b.len() <= 8 {
                b.to_string()
            } else {
                let head: Vec<String> = b.items().iter().take(6).map(u32::to_string).collect();
                format!("{{{},... +{} more}}", head.join(","), b.len() - 6)
            }
        }
        fn rec(
            f: &mut std::fmt::Formatter<'_>,
            node: &OfferNode,
            depth: usize,
        ) -> std::fmt::Result {
            writeln!(
                f,
                "{:indent$}{} @ {:.2}",
                "",
                brief(&node.bundle),
                node.price,
                indent = depth * 2
            )?;
            for c in &node.children {
                rec(f, c, depth + 1)?;
            }
            Ok(())
        }
        writeln!(
            f,
            "{} bundling, {} top-level offers:",
            match self.strategy {
                Strategy::Pure => "pure",
                Strategy::Mixed => "mixed",
            },
            self.roots.len()
        )?;
        for r in &self.roots {
            rec(f, r, 1)?;
        }
        Ok(())
    }
}

/// The result of running a configuration algorithm on a market.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Algorithm name (paper nomenclature, e.g. "Mixed Matching").
    pub algorithm: &'static str,
    /// The configuration produced.
    pub config: BundleConfig,
    /// Expected revenue of `config`.
    pub revenue: f64,
    /// Expected revenue of the `Components` baseline on the same market.
    pub components_revenue: f64,
    /// Revenue coverage (revenue / total WTP).
    pub coverage: f64,
    /// Revenue gain over components.
    pub gain: f64,
    /// Per-iteration trace (empty for single-shot algorithms).
    pub trace: IterationTrace,
}

impl Outcome {
    /// Total expected revenue.
    pub fn revenue(&self) -> f64 {
        self.revenue
    }

    /// Assemble an outcome, computing metrics from the market.
    pub fn assemble(
        algorithm: &'static str,
        config: BundleConfig,
        revenue: f64,
        components_revenue: f64,
        market: &Market,
        trace: IterationTrace,
    ) -> Self {
        Outcome {
            algorithm,
            config,
            revenue,
            components_revenue,
            coverage: crate::metrics::revenue_coverage(revenue, market.total_wtp()),
            gain: crate::metrics::revenue_gain(revenue, components_revenue),
            trace,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::Params;
    use crate::wtp::WtpMatrix;

    fn market() -> Market {
        let w = WtpMatrix::from_rows(vec![vec![12.0, 4.0], vec![8.0, 2.0], vec![5.0, 11.0]]);
        Market::new(w, Params::default().with_theta(-0.05))
    }

    fn pure_components() -> BundleConfig {
        BundleConfig {
            strategy: Strategy::Pure,
            roots: vec![
                OfferNode::leaf(Bundle::single(0), 8.0),
                OfferNode::leaf(Bundle::single(1), 11.0),
            ],
        }
    }

    #[test]
    fn validates_partition() {
        pure_components().validate(2);
    }

    #[test]
    #[should_panic(expected = "cover all items")]
    fn rejects_missing_item() {
        let c = BundleConfig {
            strategy: Strategy::Pure,
            roots: vec![OfferNode::leaf(Bundle::single(0), 8.0)],
        };
        c.validate(2);
    }

    #[test]
    #[should_panic(expected = "overlap")]
    fn rejects_overlap() {
        let c = BundleConfig {
            strategy: Strategy::Pure,
            roots: vec![
                OfferNode::leaf(Bundle::new(vec![0, 1]), 15.2),
                OfferNode::leaf(Bundle::single(1), 11.0),
            ],
        };
        c.validate(2);
    }

    #[test]
    #[should_panic(expected = "cannot subsume")]
    fn pure_rejects_children() {
        let c = BundleConfig {
            strategy: Strategy::Pure,
            roots: vec![OfferNode {
                bundle: Bundle::new(vec![0, 1]),
                price: 15.2,
                children: vec![OfferNode::leaf(Bundle::single(0), 8.0)],
            }],
        };
        c.validate(2);
    }

    #[test]
    fn expected_revenue_components() {
        // Components: $16 from A + $11 from B = $27 (Table 1).
        let m = market();
        let r = pure_components().expected_revenue(&m);
        assert!((r - 27.0).abs() < 1e-9);
    }

    #[test]
    fn expected_revenue_pure_bundle() {
        // Pure bundling at $15.20 → $30.40 (Table 1).
        let m = market();
        let c = BundleConfig {
            strategy: Strategy::Pure,
            roots: vec![OfferNode::leaf(Bundle::new(vec![0, 1]), 15.2)],
        };
        c.validate(2);
        assert!((c.expected_revenue(&m) - 30.4).abs() < 1e-9);
    }

    #[test]
    fn sampled_equals_expected_in_step_regime() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let m = market();
        let c = pure_components();
        let mut rng = StdRng::seed_from_u64(5);
        let s = c.sampled_revenue(&m, &mut rng, 3);
        assert!((s - c.expected_revenue(&m)).abs() < 1e-9);
    }

    #[test]
    fn uninterested_market_evaluates_to_positive_zero() {
        // Regression: `Iterator::sum` for f64 folds from -0.0, so a menu
        // nobody is interested in once evaluated to -0.0 — a sign wart
        // bitwise parity checks exposed. Every fold starts from +0.0.
        let m = Market::new(WtpMatrix::from_rows(vec![vec![0.0], vec![0.0]]), Params::default());
        for strategy in [Strategy::Pure, Strategy::Mixed] {
            let c = BundleConfig { strategy, roots: vec![OfferNode::leaf(Bundle::single(0), 9.0)] };
            let r = c.expected_revenue(&m);
            assert_eq!(r.to_bits(), 0.0f64.to_bits(), "{strategy:?} yielded {r:?} (-0.0 wart)");
        }
    }

    #[test]
    fn offers_listing() {
        let c = pure_components();
        assert_eq!(c.offers().len(), 2);
        assert_eq!(c.n_bundles(), 2);
        assert_eq!(c.max_bundle_size(), 1);
    }

    #[test]
    fn display_renders_menu() {
        let c = BundleConfig {
            strategy: Strategy::Mixed,
            roots: vec![OfferNode {
                bundle: Bundle::new(vec![0, 1]),
                price: 15.2,
                children: vec![
                    OfferNode::leaf(Bundle::single(0), 8.0),
                    OfferNode::leaf(Bundle::single(1), 11.0),
                ],
            }],
        };
        let s = c.to_string();
        assert!(s.contains("mixed bundling, 1 top-level offers:"), "{s}");
        assert!(s.contains("{0,1} @ 15.20"), "{s}");
        assert!(s.contains("    {0} @ 8.00"), "{s}");
    }

    #[test]
    fn display_abbreviates_large_bundles() {
        let big = Bundle::new((0..30).collect());
        let c = BundleConfig { strategy: Strategy::Pure, roots: vec![OfferNode::leaf(big, 99.0)] };
        let s = c.to_string();
        assert!(s.contains("+24 more"), "{s}");
    }

    #[test]
    fn three_level_mixed_tree_evaluates_bottom_up() {
        // ((A,B),C): the case-study shape. A consumer holding only C can
        // upgrade straight to the triple.
        let w = WtpMatrix::from_rows(vec![
            vec![10.0, 10.0, 2.0], // buys {A,B} tier
            vec![1.0, 1.0, 9.0],   // holds C, upgrades if add-on cheap
        ]);
        let m = Market::new(w, Params::default());
        let tree = OfferNode {
            bundle: Bundle::new(vec![0, 1, 2]),
            price: 11.0,
            children: vec![
                OfferNode {
                    bundle: Bundle::new(vec![0, 1]),
                    price: 10.0,
                    children: vec![
                        OfferNode::leaf(Bundle::single(0), 8.0),
                        OfferNode::leaf(Bundle::single(1), 8.0),
                    ],
                },
                OfferNode::leaf(Bundle::single(2), 7.0),
            ],
        };
        let c = BundleConfig { strategy: Strategy::Mixed, roots: vec![tree] };
        c.validate(3);
        // u0: buys A(8)+B(8)=16 → consolidates to {A,B} at 10 (cheaper),
        //     then to the triple at 11? add-on C worth 2, implicit price
        //     11-10=1 ≤ 2 → upgrades → pays 11.
        // u1: buys C at 7; upgrade to triple: add-on {A,B} worth 2,
        //     implicit price 11-7=4 > 2 → stays at 7.
        let rev = c.expected_revenue(&m);
        assert!((rev - 18.0).abs() < 1e-9, "revenue {rev}");
    }
}
