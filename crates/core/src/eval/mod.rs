//! The menu evaluator: what a consumer pays for a priced menu
//! (`DESIGN.md` §9, §12).
//!
//! Everything that evaluates a solved [`BundleConfig`] per consumer runs
//! here — [`BundleConfig::expected_revenue`] and every batched query of
//! the serving layer alike. A menu is compiled once into a flat
//! [`CompiledMenu`]; one block loop ([`CompiledMenu::drive`]) hands user
//! blocks to a block evaluator (the tile kernel, or the row-at-a-time
//! reference, chosen by [`KernelKind`]) and folds per-user payments under
//! the §6 contract ([`fold_chunks`], [`chunked_payment_fold`]). Solver-side
//! and served revenue are therefore the same bits at any thread count.
//!
//! ## Semantics
//!
//! * **Pure** menus: a consumer considers each top-level offer
//!   independently; their expected payment for offer `r` is
//!   `p_r · P(adopt | w_{u,r}, p_r)` — exact under step adoption, the
//!   expectation under a soft sigmoid. The held-offer set is the
//!   threshold (modal) adoption set `{r : α·w − p + ε ≥ 0}`.
//! * **Mixed** menus: §4.2's incremental-upgrade rule
//!   ([`crate::mixed`]): leaves adopt bottom-up, holdings combine in child
//!   order, and a consumer upgrades to a parent exactly when the implicit
//!   add-on price does not exceed the add-on WTP — exact under step
//!   adoption, the modal outcome under a soft sigmoid.
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
//!   reproduces the mixed search's left-to-right holdings merge exactly.
//!
//! The per-item postings CSR (`post_indptr`/`post_nodes`) inverts the
//! node→items map: scattering one consumer's WTP row through it fills the
//! per-node bundle sums in `O(row nnz × containing offers)` — the row is
//! item-ascending and every node's item list is ascending, so each node's
//! sum accumulates in exactly the order the solver's column scatter
//! ([`Market::bundle_user_sums`]) uses. That is what makes each
//! consumer's payment bit-identical to the per-user tree walk the module's
//! tests keep as an oracle.
//!
//! ## Determinism
//!
//! Totals follow the §6 contract: users are split at **fixed chunk
//! boundaries** (a pure function of the batch length, via
//! [`revmax_par::effective_chunk_size`]) and chunk partials reduce **in
//! chunk order** on the calling thread — so a revenue is bit-identical at
//! any thread count and block width, equal to [`chunked_payment_fold`] of
//! the per-user payments.

mod kernel;
mod rows;

pub use kernel::{BlockEval, KernelKind, TileScratch, DEFAULT_BLOCK, LANES};

use crate::adoption::AdoptionModel;
use crate::config::{BundleConfig, OfferNode, Strategy};
use crate::market::Market;
use crate::params::Params;
use crate::wtp::WtpMatrix;
use revmax_par::effective_chunk_size;

/// A solved menu flattened for evaluation: the offer forest as
/// structure-of-arrays node tables, per-item → offer postings, the
/// adoption model, and the market's (`Arc`-shared) WTP arena —
/// so evaluation touches only contiguous memory and never chases the
/// pointer-y [`OfferNode`] trees the solvers produce.
#[derive(Debug)]
pub struct CompiledMenu {
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
    /// The market's WTP arena — `Arc`-shared, so compiling never copies
    /// the matrix.
    pub(crate) wtp: WtpMatrix,
}

/// The consumers an evaluation covers.
#[derive(Debug, Clone, Copy)]
pub enum Users<'a> {
    /// An explicit, already validated id batch.
    Ids(&'a [u32]),
    /// Every consumer `0..n`: block ids are generated on the fly into a
    /// per-worker buffer, so no id batch is ever materialized.
    All(usize),
}

impl Users<'_> {
    fn len(&self) -> usize {
        match *self {
            Users::Ids(ids) => ids.len(),
            Users::All(n) => n,
        }
    }
}

impl CompiledMenu {
    /// Compile a solved configuration against the market it was solved on
    /// (or any market with the same item universe). Validates the
    /// configuration, flattens the offer forest, and builds the item
    /// postings; the WTP store is shared, never copied.
    pub fn compile(market: &Market, config: &BundleConfig) -> CompiledMenu {
        config.validate(market.n_items());
        let n_items = market.n_items();
        let mut menu = CompiledMenu {
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
        fn flatten(node: &OfferNode, s: &mut CompiledMenu) -> u32 {
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
            let root = flatten(r, &mut menu);
            menu.roots.push(root);
        }

        // Item → containing nodes, counting scatter. Nodes are visited in
        // ascending id order, so each item's posting list is ascending.
        let CompiledMenu { node_indptr, node_items, post_indptr, post_nodes, .. } = &mut menu;
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
        menu
    }

    /// Number of consumers in the compiled market.
    pub fn n_users(&self) -> usize {
        self.n_users
    }

    /// Number of items in the compiled market.
    pub fn n_items(&self) -> usize {
        self.n_items
    }

    /// Total number of offer nodes (all tree nodes; under pure bundling
    /// every node is a root).
    pub fn n_nodes(&self) -> usize {
        self.prices.len()
    }

    /// Number of offers actually on sale: roots under pure bundling,
    /// every node under mixed bundling.
    pub fn n_offers(&self) -> usize {
        match self.strategy {
            Strategy::Pure => self.roots.len(),
            Strategy::Mixed => self.n_nodes(),
        }
    }

    /// Top-level offer node ids, in configuration root order.
    pub fn roots(&self) -> &[u32] {
        &self.roots
    }

    /// Item ids of offer node `node`, strictly ascending.
    pub fn items(&self, node: u32) -> &[u32] {
        let (lo, hi) = (self.node_indptr[node as usize], self.node_indptr[node as usize + 1]);
        &self.node_items[lo..hi]
    }

    /// The offer nodes containing item `item`, ascending — the postings
    /// every scatter walks.
    #[inline]
    pub fn postings(&self, item: u32) -> &[u32] {
        let (lo, hi) = (self.post_indptr[item as usize], self.post_indptr[item as usize + 1]);
        &self.post_nodes[lo..hi]
    }

    /// Offer prices, indexed by node id.
    pub fn prices(&self) -> &[f64] {
        &self.prices
    }

    /// Every user id of the compiled market, ascending — the canonical
    /// "all users" batch.
    pub fn all_users(&self) -> Vec<u32> {
        (0..self.n_users as u32).collect()
    }

    /// Expected revenue of the menu over `users`, evaluated by `kernel`
    /// in blocks of up to `block` lanes on `threads` workers: per chunk,
    /// the payments summed left to right from `+0.0` (lanes are in user
    /// order, blocks run front to back, and a chunk never spans two
    /// tasks), then the chunk partials folded in chunk order — the
    /// sequential [`chunked_payment_fold`], at any thread count, block
    /// width and kernel.
    pub fn revenue(
        &self,
        threads: usize,
        block: usize,
        kernel: KernelKind,
        users: Users<'_>,
    ) -> f64 {
        let parts = self.drive(
            threads,
            block,
            users,
            |menu, width| kernel.evaluator(menu, width),
            |menu, eval, blk, cuts, parts: &mut Vec<f64>| {
                eval.eval_block(menu, blk, false);
                fold_chunks(parts, &eval.payments()[..blk.len()], cuts);
            },
        );
        parts.into_iter().flatten().fold(0.0f64, |a, s| a + s)
    }

    /// The block loop every evaluation runs. The block width is `block`
    /// capped at the batch length (a 16-id point query runs one 16-lane
    /// block). The batch is cut into **tasks** — each the shortest run of
    /// whole §6 chunks (`effective_chunk_size(len, 0)`) at least one block
    /// wide — fanned out once on `threads` workers; each worker builds one
    /// evaluator, `make(menu, width)`, and hands every block of its tasks,
    /// front to back, to `sink` along with the task's partial and the
    /// block's **cuts**: the lane offsets at which a new chunk starts
    /// inside the block (a task's first block always opens with `0`).
    /// Blocks are independent of chunks, so one block may end a chunk and
    /// open the next; a chunk never spans two tasks, so a sink that folds
    /// lanes into per-chunk partials ([`fold_chunks`]) sees every chunk's
    /// lanes in order. Partials return in task order. Reusing one
    /// evaluator across tasks is bit-safe: block width never changes a
    /// lane's bits, and every evaluation overwrites the lanes it reports
    /// (the tile consumes itself back to all-zero).
    pub fn drive<E, P: Default + Send>(
        &self,
        threads: usize,
        block: usize,
        users: Users<'_>,
        make: impl Fn(&CompiledMenu, usize) -> E + Sync,
        sink: impl Fn(&CompiledMenu, &mut E, &[u32], &[usize], &mut P) + Sync,
    ) -> Vec<P> {
        let len = users.len();
        let chunk = effective_chunk_size(len, 0);
        let width = block.min(len).max(1);
        let task = width.div_ceil(chunk) * chunk;
        let init = || (make(self, width), Vec::new(), Vec::new());
        let run = |(eval, buf, cuts): &mut (E, Vec<u32>, Vec<usize>), t: usize| {
            let (lo, hi) = (t * task, (t * task + task).min(len));
            let mut part = P::default();
            for start in (lo..hi).step_by(width) {
                let end = (start + width).min(hi);
                cuts.clear();
                cuts.extend((start.next_multiple_of(chunk)..end).step_by(chunk).map(|c| c - start));
                let blk = match users {
                    Users::Ids(ids) => &ids[start..end],
                    Users::All(_) => {
                        buf.clear();
                        buf.extend(start as u32..end as u32);
                        &buf[..]
                    }
                };
                sink(self, eval, blk, cuts, &mut part);
            }
            part
        };
        revmax_par::par_index_map_with(threads, len.div_ceil(task), init, run)
    }
}

/// Fold a block's per-lane values, in order, into a task's per-chunk
/// partials: lanes before the first cut continue the open partial, and
/// every cut opens a fresh one from `+0.0`.
pub fn fold_chunks(parts: &mut Vec<f64>, lanes: &[f64], cuts: &[usize]) {
    let mut lo = 0;
    for &cut in cuts.iter().chain([&lanes.len()]) {
        if lo < cut {
            let open = parts.last_mut().expect("a task's first block opens a chunk");
            *open = lanes[lo..cut].iter().fold(*open, |a, &p| a + p);
        }
        if cut < lanes.len() {
            parts.push(0.0);
        }
        lo = cut;
    }
}

/// The exact reduction [`CompiledMenu::revenue`] applies to the per-user
/// payments of a batch: fixed [`effective_chunk_size`] blocks, each summed
/// left to right from `+0.0`, block partials folded left to right from
/// `+0.0`. Given a batch's per-user payments, this returns the batch's
/// revenue to the bit — which is what lets the serving daemon answer
/// revenue requests from stored per-user payments with the kernel's bits.
pub fn chunked_payment_fold(payments: &[f64]) -> f64 {
    if payments.is_empty() {
        return 0.0;
    }
    let chunk = effective_chunk_size(payments.len(), 0);
    payments.chunks(chunk).map(|c| c.iter().fold(0.0f64, |a, &p| a + p)).fold(0.0f64, |a, s| a + s)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bundle::Bundle;
    use crate::params::Threads;

    fn table1() -> Market {
        let w = WtpMatrix::from_rows(vec![vec![12.0, 4.0], vec![8.0, 2.0], vec![5.0, 11.0]]);
        Market::new(w, Params::default().with_theta(-0.05))
    }

    /// Table 1's §4.2 mixed menu: components at $8/$11, bundle at $12.
    fn mixed_table1() -> BundleConfig {
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
    fn flattening_lays_subtrees_out_postorder() {
        let menu = CompiledMenu::compile(&table1(), &mixed_table1());
        assert_eq!(menu.roots(), &[2]); // children 0, 1 come first
        assert_eq!(menu.subtree_start, vec![0, 1, 0]);
        assert_eq!(menu.n_children, vec![0, 0, 2]);
        assert_eq!(menu.items(2), &[0, 1]);
    }

    /// The per-user oracle: the per-root tree walk `expected_revenue` ran
    /// before this module — pure roots by the closed form over the bundle
    /// WTPs, mixed roots by [`crate::mixed::evaluate_tree_deterministic`],
    /// every sum folded from `+0.0` in root and user order. On a
    /// single-consumer view it is that consumer's payment.
    fn walk_revenue(config: &BundleConfig, market: &Market) -> f64 {
        let mut scratch = market.scratch();
        let adoption = market.pricing_ctx().adoption;
        let mut revenue = 0.0;
        for r in &config.roots {
            revenue += match config.strategy {
                Strategy::Pure => {
                    let wtps = market.bundle_wtps(r.bundle.items(), &mut scratch);
                    let buyers = wtps.iter().map(|&w| adoption.probability(w, r.price));
                    r.price * buyers.fold(0.0, |a, p| a + p)
                }
                Strategy::Mixed => {
                    crate::mixed::evaluate_tree_deterministic(market, r, &mut scratch)
                }
            };
        }
        revenue
    }

    /// Every consumer's payment under `kernel` at block width `block`.
    fn payments(menu: &CompiledMenu, kernel: KernelKind, block: usize) -> Vec<f64> {
        let parts = menu.drive(
            1,
            block,
            Users::All(menu.n_users()),
            |m, width| kernel.evaluator(m, width),
            |m, eval, blk, _, out: &mut Vec<f64>| {
                eval.eval_block(m, blk, false);
                out.extend_from_slice(&eval.payments()[..blk.len()]);
            },
        );
        parts.concat()
    }

    /// Both kernels against the per-user walk, bit for bit, and
    /// `expected_revenue` against the chunked fold of the walk's payments
    /// at 1/2/8 threads.
    fn check_against_the_walk(config: &BundleConfig, market: &Market, what: &str) {
        let menu = CompiledMenu::compile(market, config);
        let oracle: Vec<f64> = (0..market.n_users() as u32)
            .map(|u| walk_revenue(config, &market.view(&[u])))
            .collect();
        for kernel in [KernelKind::Rows, KernelKind::Tiled] {
            for block in [3, DEFAULT_BLOCK] {
                let got = payments(&menu, kernel, block);
                for (u, (g, o)) in got.iter().zip(&oracle).enumerate() {
                    assert_eq!(
                        g.to_bits(),
                        o.to_bits(),
                        "{what}: {} block {block}: user {u} pays {g} vs walk {o}",
                        kernel.name()
                    );
                }
            }
        }
        let total = chunked_payment_fold(&oracle);
        assert_eq!(config.expected_revenue(market).to_bits(), total.to_bits(), "{what}");
        for threads in [1, 2, 8] {
            let all = Users::All(menu.n_users());
            let r = menu.revenue(threads, DEFAULT_BLOCK, KernelKind::Tiled, all);
            assert_eq!(r.to_bits(), total.to_bits(), "{what}: {threads} threads");
        }
    }

    /// `{0,1,2}` at $25.20 over the pair `{0,1}` at $15 and the singleton
    /// `{2}` at $12: one consumer's upgrade turns on the held-item count
    /// (add-on factor 1.0 for one item, `1 + θ` for two), so the walks
    /// must carry it exactly at θ ≠ 0.
    #[test]
    fn the_held_item_count_matches_the_walk() {
        let config = BundleConfig {
            strategy: Strategy::Mixed,
            roots: vec![OfferNode {
                bundle: Bundle::new(vec![0, 1, 2]),
                price: 25.2,
                children: vec![
                    OfferNode::leaf(Bundle::new(vec![0, 1]), 15.0),
                    OfferNode::leaf(Bundle::single(2), 12.0),
                ],
            }],
        };
        for theta in [-0.05, 0.0, 0.05] {
            let rows = vec![vec![10.0, 10.0, 10.0], vec![6.5, 6.5, 12.5], vec![0.0; 3]];
            let market =
                Market::new(WtpMatrix::from_rows(rows), Params::default().with_theta(theta));
            check_against_the_walk(&config, &market, &format!("θ={theta}"));
        }
    }

    /// A balanced binary tree of more than 128 nodes (adoption rows span
    /// several words) against the walk, 300 seeded consumers.
    #[test]
    fn trees_past_128_nodes_match_the_walk() {
        fn binary_tree(items: &[u32]) -> OfferNode {
            let price = 4.2 * items.len() as f64 * (1.0 - 0.02 * items.len().min(20) as f64);
            if items.len() == 1 {
                return OfferNode::leaf(Bundle::single(items[0]), price);
            }
            let (lo, hi) = items.split_at(items.len() / 2);
            let children = vec![binary_tree(lo), binary_tree(hi)];
            OfferNode { bundle: Bundle::new(items.to_vec()), price, children }
        }
        const N_ITEMS: usize = 80;
        let tree = binary_tree(&(0..N_ITEMS as u32).collect::<Vec<_>>());
        assert!(tree.node_count() > 128);
        let config = BundleConfig { strategy: Strategy::Mixed, roots: vec![tree] };
        let mut state = 5u64;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (state >> 33) as usize
        };
        let rows: Vec<Vec<f64>> = (0..300)
            .map(|_| {
                let mut row = vec![0.0; N_ITEMS];
                for _ in 0..40 {
                    row[next() % N_ITEMS] = 1.0 + (next() % 1000) as f64 / 100.0;
                }
                row
            })
            .collect();
        for theta in [0.0, 0.05] {
            let params = Params::default().with_theta(theta);
            let market = Market::new(WtpMatrix::from_rows(rows.clone()), params);
            check_against_the_walk(&config, &market, &format!("θ={theta}"));
        }
    }

    /// A random dense WTP matrix (entries 0 with ~3/8 probability) plus θ.
    /// An all-zero matrix has no menu, so it is drawn again: the proptest
    /// macro runs every case in one function body, where a skipping
    /// `return` would end the whole test.
    fn arb_dense() -> impl proptest::strategy::Strategy<Value = (Vec<Vec<f64>>, f64)> {
        use proptest::prelude::*;
        fn cell() -> impl Strategy<Value = f64> {
            (0u32..80u32).prop_map(|raw| if raw < 30 { 0.0 } else { raw as f64 * 0.25 })
        }
        (2usize..8, 1usize..7)
            .prop_flat_map(move |(m, n)| {
                (
                    proptest::collection::vec(proptest::collection::vec(cell(), n..=n), m..=m),
                    -20i32..=20,
                )
                    .prop_map(|(rows, theta)| (rows, theta as f64 / 100.0))
            })
            .prop_filter("a menu needs a rating", |(rows, _)| {
                rows.iter().flatten().any(|&w| w != 0.0)
            })
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(48))]

        /// For random markets and solver-produced menus — pure and mixed,
        /// step and sigmoid γ, θ ∈ [−0.2, 0.2] — every consumer's tile and
        /// row payment is the per-user walk's to the bit, and
        /// `expected_revenue` is the chunked fold of those payments at any
        /// thread count.
        #[test]
        fn tile_and_row_payments_equal_the_tree_walk_bitwise(
            (dense, theta) in arb_dense(),
            sigmoid in 0u8..2,
        ) {
            let gamma = if sigmoid == 1 { 1.5 } else { 1e6 };
            let params = Params::default()
                .with_theta(theta)
                .with_gamma(gamma)
                .with_threads(Threads::Fixed(1));
            let market = Market::new(WtpMatrix::from_rows(dense), params);
            for method in ["Components", "Pure Greedy", "Mixed Greedy"] {
                let config = crate::algorithms::by_name(method).unwrap().run(&market).config;
                check_against_the_walk(&config, &market, method);
            }
        }
    }
}
