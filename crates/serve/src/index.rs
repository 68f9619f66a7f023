//! The servable index: a compiled menu ([`CompiledMenu`], `DESIGN.md`
//! §9.1) plus how batched queries run it — worker threads, block
//! evaluator and block width — and, on the daemon's serving index, the
//! answer table.
//!
//! Compilation, the node tables and the postings live in
//! [`revmax_core::eval`]; a [`MenuIndex`] dereferences to its
//! [`CompiledMenu`], so the menu's accessors (`n_users`, `roots`,
//! `items`, `prices`, …) read straight through.

use crate::query::AnswerTable;
use revmax_core::config::BundleConfig;
use revmax_core::eval::{CompiledMenu, KernelKind, DEFAULT_BLOCK};
use revmax_core::market::Market;
use std::ops::Deref;
use std::sync::Arc;

/// A read-optimized, `Arc`-shared index over one solved menu
/// ([`BundleConfig`]) and the market it was solved on. Cloning is cheap;
/// clones share all storage. Queries live in [`crate::query`]:
/// [`MenuIndex::assign`] and [`MenuIndex::expected_revenue`].
#[derive(Debug, Clone)]
pub struct MenuIndex {
    pub(crate) store: Arc<CompiledMenu>,
    /// Worker threads for batched queries (§6 contract: never affects
    /// results). Defaults to the compiled market's resolved count.
    pub(crate) threads: usize,
    /// Batched-query evaluation kernel (`DESIGN.md` §12). Results are
    /// bit-identical either way; defaults to the tile kernel.
    pub(crate) kernel: KernelKind,
    /// Tile-kernel user-block width (0 ⇒ [`DEFAULT_BLOCK`]). Never
    /// affects results, only cache behavior.
    pub(crate) block: usize,
    /// Every consumer's answer, filled by the daemon's serving index only
    /// (`DESIGN.md` §11.6); `compile` leaves it `None`, and the public
    /// query methods never read it.
    pub(crate) answers: Option<Arc<AnswerTable>>,
}

impl Deref for MenuIndex {
    type Target = CompiledMenu;

    fn deref(&self) -> &CompiledMenu {
        &self.store
    }
}

impl MenuIndex {
    /// Compile a solved configuration against the market it was solved on
    /// (or any market with the same item universe) —
    /// [`CompiledMenu::compile`] — served by the tile kernel on the
    /// market's resolved thread count. The WTP store is shared, never
    /// copied.
    pub fn compile(market: &Market, config: &BundleConfig) -> MenuIndex {
        MenuIndex {
            threads: market.threads(),
            kernel: KernelKind::Tiled,
            block: 0,
            answers: None,
            store: Arc::new(CompiledMenu::compile(market, config)),
        }
    }

    /// Override the worker-thread count used by batched queries. Results
    /// are bit-identical at any value (`DESIGN.md` §6/§9); this only
    /// changes who computes what.
    pub fn with_threads(mut self, threads: usize) -> MenuIndex {
        self.threads = threads.max(1);
        self
    }

    /// Select the batched-query evaluation kernel (`DESIGN.md` §12).
    /// Results are bit-identical for any choice — [`KernelKind::Rows`] is
    /// the row-at-a-time reference, [`KernelKind::Tiled`] (the default)
    /// the cache-blocked tile kernel.
    pub fn with_kernel(mut self, kernel: KernelKind) -> MenuIndex {
        self.kernel = kernel;
        self
    }

    /// Override the tile kernel's user-block width (0 restores
    /// [`DEFAULT_BLOCK`]); each query caps it at its batch length, and
    /// blocks run across §6 chunk boundaries. Never affects results, only
    /// cache behavior; the [`KernelKind::Rows`] reference walks one user
    /// at a time anyway.
    pub fn with_block(mut self, block: usize) -> MenuIndex {
        self.block = block;
        self
    }

    /// The resolved tile block width.
    pub fn block(&self) -> usize {
        if self.block == 0 {
            DEFAULT_BLOCK
        } else {
            self.block
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use revmax_core::bundle::Bundle;
    use revmax_core::config::{OfferNode, Strategy};
    use revmax_core::params::Params;
    use revmax_core::wtp::WtpMatrix;

    fn table1() -> Market {
        let w = WtpMatrix::from_rows(vec![vec![12.0, 4.0], vec![8.0, 2.0], vec![5.0, 11.0]]);
        Market::new(w, Params::default().with_theta(-0.05))
    }

    fn mixed_config() -> BundleConfig {
        BundleConfig {
            strategy: Strategy::Mixed,
            roots: vec![OfferNode {
                bundle: Bundle::new(vec![0, 1]),
                price: 12.0,
                children: vec![
                    OfferNode::leaf(Bundle::single(0), 8.0),
                    OfferNode::leaf(Bundle::single(1), 11.0),
                ],
            }],
        }
    }

    #[test]
    fn flattening_is_postorder_with_contiguous_subtrees() {
        let m = table1();
        let idx = MenuIndex::compile(&m, &mixed_config());
        assert_eq!(idx.n_nodes(), 3);
        assert_eq!(idx.roots(), &[2]); // children 0, 1 come first
        assert_eq!(idx.items(0), &[0]);
        assert_eq!(idx.items(1), &[1]);
        assert_eq!(idx.items(2), &[0, 1]);
        assert_eq!(idx.prices(), &[8.0, 11.0, 12.0]);
        assert_eq!(idx.n_offers(), 3); // mixed: every node on sale
    }

    #[test]
    fn postings_invert_the_node_item_map() {
        let m = table1();
        let idx = MenuIndex::compile(&m, &mixed_config());
        assert_eq!(idx.postings(0), &[0, 2]); // item 0 ∈ leaf 0 and the bundle
        assert_eq!(idx.postings(1), &[1, 2]);
    }

    #[test]
    fn pure_menu_counts_roots_as_offers() {
        let m = table1();
        let config = BundleConfig {
            strategy: Strategy::Pure,
            roots: vec![
                OfferNode::leaf(Bundle::single(0), 8.0),
                OfferNode::leaf(Bundle::single(1), 11.0),
            ],
        };
        let idx = MenuIndex::compile(&m, &config);
        assert_eq!(idx.n_offers(), 2);
        assert_eq!(idx.n_nodes(), 2);
        assert_eq!(idx.roots(), &[0, 1]);
        assert_eq!(idx.all_users(), vec![0, 1, 2]);
    }

    #[test]
    #[should_panic(expected = "cover all items")]
    fn compile_validates_the_configuration() {
        let m = table1();
        let config = BundleConfig {
            strategy: Strategy::Pure,
            roots: vec![OfferNode::leaf(Bundle::single(0), 8.0)],
        };
        MenuIndex::compile(&m, &config);
    }

    #[test]
    fn clones_share_the_store() {
        let m = table1();
        let idx = MenuIndex::compile(&m, &mixed_config());
        let clone = idx.clone().with_threads(7);
        assert!(Arc::ptr_eq(&idx.store, &clone.store));
        assert_eq!(clone.threads, 7);
        assert_eq!(MenuIndex::compile(&m, &mixed_config()).with_threads(0).threads, 1);
    }
}
