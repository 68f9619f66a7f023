//! The compiled menu: a flat, read-optimized structure-of-arrays layout of
//! a solved [`BundleConfig`] (`DESIGN.md` §9).
//!
//! A [`MenuIndex`] freezes everything a query needs — the offer tree
//! flattened post-order into parallel arrays, per-item → offer postings,
//! the adoption model, and the (`Arc`-shared, zero-copy) WTP store — so
//! batched queries touch only contiguous memory and never chase the
//! pointer-y [`OfferNode`] trees the solvers produce.
//!
//! ## Layout
//!
//! Nodes are numbered in **post-order per root** (children before parents,
//! roots in configuration order), which gives two load-bearing properties:
//!
//! * a node's whole subtree is the contiguous range
//!   `subtree_start[n] ..= n`, so one forward scan with a small state
//!   stack evaluates a tree bottom-up without recursion;
//! * the children of node `n` are the top `n_children[n]` states on that
//!   stack, **in original child order**, so the holdings-combine step
//!   reproduces the solver's left-to-right `merge_states` fold exactly.
//!
//! The per-item postings CSR (`post_indptr`/`post_nodes`) inverts the
//! node→items map: scattering one consumer's WTP row through it fills the
//! per-node bundle sums in `O(row nnz × containing offers)` — the row is
//! item-ascending and every node's item list is ascending, so each node's
//! sum accumulates in exactly the order the solver's column-scatter
//! ([`Market::bundle_user_sums`]) uses, which is what makes per-user
//! results bit-identical to solver-side evaluation.

use crate::kernel::KernelKind;
use crate::query::AnswerTable;
use revmax_core::adoption::AdoptionModel;
use revmax_core::config::{BundleConfig, OfferNode, Strategy};
use revmax_core::market::Market;
use revmax_core::params::Params;
use revmax_core::wtp::WtpMatrix;
use std::sync::Arc;

/// The frozen read-side state shared by every clone of a [`MenuIndex`]:
/// the flattened offer forest and its postings, plus the market they
/// were compiled against.
#[derive(Debug)]
pub(crate) struct MenuStore {
    pub(crate) strategy: Strategy,
    pub(crate) n_items: usize,
    /// Node `n`'s items are `node_items[node_indptr[n]..node_indptr[n+1]]`,
    /// strictly ascending.
    pub(crate) node_indptr: Vec<usize>,
    pub(crate) node_items: Vec<u32>,
    /// Offer price per node.
    pub(crate) prices: Vec<f64>,
    /// Number of direct children per node (0 = leaf offer).
    pub(crate) n_children: Vec<u32>,
    /// First node index of `n`'s post-order subtree range.
    pub(crate) subtree_start: Vec<u32>,
    /// Top-level offers, in configuration root order (each is the last
    /// node of its subtree range).
    pub(crate) roots: Vec<u32>,
    /// Item `i`'s containing nodes are
    /// `post_nodes[post_indptr[i]..post_indptr[i+1]]`, ascending node ids.
    pub(crate) post_indptr: Vec<usize>,
    pub(crate) post_nodes: Vec<u32>,
    pub(crate) n_users: usize,
    /// Solve parameters (θ for set WTPs; everything else rides along).
    pub(crate) params: Params,
    /// The resolved §4.1 adoption model (γ, α, ε) of the compiled market.
    pub(crate) adoption: AdoptionModel,
    /// The market's WTP store — an `Arc`-shared arena (or zero-copy view
    /// or delta overlay), so binding an index never copies the matrix.
    pub(crate) wtp: WtpMatrix,
}

/// A read-optimized, `Arc`-shared index over one solved menu
/// ([`BundleConfig`]) and the market it was solved on. Cloning is cheap;
/// clones share all storage. Queries live in [`crate::query`]:
/// [`MenuIndex::assign`] and [`MenuIndex::expected_revenue`].
#[derive(Debug, Clone)]
pub struct MenuIndex {
    pub(crate) store: Arc<MenuStore>,
    /// Worker threads for batched queries (§6 contract: never affects
    /// results). Defaults to the compiled market's resolved count.
    pub(crate) threads: usize,
    /// Batched-query evaluation kernel (`DESIGN.md` §12). Results are
    /// bit-identical either way; defaults to the tile kernel.
    pub(crate) kernel: KernelKind,
    /// Tile-kernel user-block width (0 ⇒ [`crate::kernel::DEFAULT_BLOCK`]).
    /// Never affects results, only cache behavior.
    pub(crate) block: usize,
    /// Every consumer's answer, filled by the daemon's serving index only
    /// (`DESIGN.md` §11.6); `compile` leaves it `None`, and the public
    /// query methods never read it.
    pub(crate) answers: Option<Arc<AnswerTable>>,
}

impl MenuIndex {
    /// Compile a solved configuration against the market it was solved on
    /// (or any market with the same item universe). Validates the
    /// configuration, flattens the offer forest, and builds the item
    /// postings; the WTP store is shared, never copied.
    pub fn compile(market: &Market, config: &BundleConfig) -> MenuIndex {
        config.validate(market.n_items());
        let n_items = market.n_items();
        let mut store = MenuStore {
            strategy: config.strategy,
            n_items,
            node_indptr: vec![0],
            node_items: Vec::new(),
            prices: Vec::new(),
            n_children: Vec::new(),
            subtree_start: Vec::new(),
            roots: Vec::new(),
            post_indptr: vec![0; n_items + 1],
            post_nodes: Vec::new(),
            n_users: market.n_users(),
            params: *market.params(),
            adoption: market.pricing_ctx().adoption,
            wtp: market.wtp().clone(),
        };

        // Flatten post-order per root (children before parents, original
        // child order preserved).
        fn flatten(node: &OfferNode, s: &mut MenuStore) -> u32 {
            let start = s.prices.len() as u32;
            for c in &node.children {
                flatten(c, s);
            }
            s.node_items.extend_from_slice(node.bundle.items());
            s.node_indptr.push(s.node_items.len());
            s.prices.push(node.price);
            s.n_children.push(node.children.len() as u32);
            s.subtree_start.push(start);
            s.prices.len() as u32 - 1
        }
        for r in &config.roots {
            let root = flatten(r, &mut store);
            store.roots.push(root);
        }

        // Item → containing nodes, counting scatter. Nodes are visited in
        // ascending id order, so each item's posting list is ascending.
        let MenuStore { node_indptr, node_items, post_indptr, post_nodes, .. } = &mut store;
        for &i in node_items.iter() {
            post_indptr[i as usize + 1] += 1;
        }
        for i in 0..n_items {
            post_indptr[i + 1] += post_indptr[i];
        }
        let mut cursor = post_indptr[..n_items].to_vec();
        *post_nodes = vec![0u32; node_items.len()];
        for n in 0..node_indptr.len() - 1 {
            for &i in &node_items[node_indptr[n]..node_indptr[n + 1]] {
                let slot = &mut cursor[i as usize];
                post_nodes[*slot] = n as u32;
                *slot += 1;
            }
        }
        MenuIndex {
            threads: market.threads(),
            kernel: KernelKind::Tiled,
            block: 0,
            answers: None,
            store: Arc::new(store),
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
    /// [`crate::kernel::DEFAULT_BLOCK`]); each query caps it at its batch
    /// length, and blocks run across §6 chunk boundaries. Never affects
    /// results, only cache behavior; the [`KernelKind::Rows`] reference
    /// walks one user at a time anyway.
    pub fn with_block(mut self, block: usize) -> MenuIndex {
        self.block = block;
        self
    }

    /// The resolved tile block width.
    pub fn block(&self) -> usize {
        if self.block == 0 {
            crate::kernel::DEFAULT_BLOCK
        } else {
            self.block
        }
    }

    /// The compiled configuration's strategy.
    pub fn strategy(&self) -> Strategy {
        self.store.strategy
    }

    /// Number of consumers in the compiled market.
    pub fn n_users(&self) -> usize {
        self.store.n_users
    }

    /// Number of items in the compiled market.
    pub fn n_items(&self) -> usize {
        self.store.n_items
    }

    /// Total number of offer nodes (all tree nodes; under pure bundling
    /// every node is a root).
    pub fn n_nodes(&self) -> usize {
        self.store.prices.len()
    }

    /// Number of offers actually on sale: roots under pure bundling,
    /// every node under mixed bundling.
    pub fn n_offers(&self) -> usize {
        match self.store.strategy {
            Strategy::Pure => self.store.roots.len(),
            Strategy::Mixed => self.n_nodes(),
        }
    }

    /// Top-level offer node ids, in configuration root order.
    pub fn roots(&self) -> &[u32] {
        &self.store.roots
    }

    /// Item ids of offer node `node`, strictly ascending.
    pub fn items(&self, node: u32) -> &[u32] {
        let (lo, hi) =
            (self.store.node_indptr[node as usize], self.store.node_indptr[node as usize + 1]);
        &self.store.node_items[lo..hi]
    }

    /// Price of offer node `node`.
    pub fn price(&self, node: u32) -> f64 {
        self.store.prices[node as usize]
    }

    /// Every user id of the compiled market, ascending — the canonical
    /// "all users" batch.
    pub fn all_users(&self) -> Vec<u32> {
        (0..self.store.n_users as u32).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use revmax_core::bundle::Bundle;
    use revmax_core::config::OfferNode;

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
        assert_eq!(idx.price(0), 8.0);
        assert_eq!(idx.price(1), 11.0);
        assert_eq!(idx.price(2), 12.0);
        assert_eq!(idx.store.subtree_start, vec![0, 1, 0]);
        assert_eq!(idx.store.n_children, vec![0, 0, 2]);
        assert_eq!(idx.n_offers(), 3); // mixed: every node on sale
    }

    #[test]
    fn postings_invert_the_node_item_map() {
        let m = table1();
        let idx = MenuIndex::compile(&m, &mixed_config());
        let post = |i: usize| {
            &idx.store.post_nodes[idx.store.post_indptr[i]..idx.store.post_indptr[i + 1]]
        };
        assert_eq!(post(0), &[0, 2]); // item 0 ∈ leaf 0 and the bundle
        assert_eq!(post(1), &[1, 2]);
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
        assert_eq!(idx.strategy(), Strategy::Pure);
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
