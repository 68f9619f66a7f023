//! The cache-blocked user×offer tile kernel (`DESIGN.md` §12).
//!
//! The reference evaluation (`rows.rs`, [`KernelKind::Rows`]) is
//! row-at-a-time: scatter one consumer's WTP row into a per-node
//! accumulator, walk the offer tables, reset, repeat. Every node's
//! metadata (price, size, child count,
//! subtree range) is re-loaded per user, the mixed walk allocates a
//! holdings `Vec` per adopted node, and nothing vectorizes. This module
//! evaluates a **block** of users at once instead:
//!
//! * **Tile accumulator** — `acc[node × stride + lane]`, node-major, so
//!   the walk loads one contiguous lane row per node and the whole tile
//!   (`n_nodes × block × 8` bytes) stays cache-resident across the walk.
//! * **Lane determinism** — lane assignment is a pure function of index
//!   (lane `l` of a block holds the block's `l`-th user, blocks cut a
//!   batch front to back, across §6 chunk boundaries), and every lane's
//!   arithmetic is exactly the row-walk's: per-user results are
//!   bit-identical to [`KernelKind::Rows`] at any block size and thread
//!   count.
//! * **Branchless step adoption** — in the step regime (γ ≥
//!   `Params::STEP_GAMMA`) adoption decisions become sign masks and the
//!   per-lane state updates compile to selects, with two bit-safety
//!   guards: an adoption mask always includes `s != 0.0` (a zero-sum lane
//!   must not adopt a zero-priced offer through the ε tie-break), and
//!   skipped lanes contribute `price * 0.0 = +0.0` to payment folds that
//!   start at `+0.0` and only ever add non-negative terms — so "evaluate
//!   everything, mask the result" produces the very bits the row-walk's
//!   `continue` produces. The soft-sigmoid pure path keeps its zero-skip
//!   branch (an *included* zero-WTP lane would contribute a positive
//!   probability).
//! * **Structural tile stack** — the mixed walk's stack evolution (push a
//!   leaf, drain `k` children, push the parent) is the same for every
//!   lane, so one stack of SoA entries (`sum/paid/count` per lane) serves
//!   the whole block; a lane with no holdings is the all-zero state,
//!   which makes the child combine an unconditional add (`x + 0.0 = x`
//!   bitwise for the non-negative sums involved).
//! * **One walk body, four monomorphs** — `walk::<COLLECT, COUNT>` carries
//!   only the state its query reads: `COLLECT` (only `assign`) records
//!   adoption decisions, `COUNT` (only when `1 + θ != 1.0`) carries the
//!   held-item count, which at θ = 0 cannot change any add-on factor.
//! * **Node-major adoption bits** — the lane loops write each node's
//!   decisions as a 0/1 byte row, packed eight lanes per multiply into
//!   `adopt[n × words + lane / 64]`. After the walk, a rootward-first
//!   cover pass per visited tree (`cov[n] = cov[parent] | adopt[parent]`,
//!   children found from the post-order layout)
//!   keeps the adopted nodes without an adopted ancestor — adopting a
//!   node wipes every holding in its subtree — and two passes over those
//!   bits build the block's held-offer CSR, which `offers` slices.
//!   No tree-size limit: rows are per node, not per tree.
//!
//! The walk is price-parameterized (`TileScratch::walk_block` takes the
//! price table as a slice) so a marginal-revenue query can re-walk the
//! same scattered tile under a perturbed price without re-scattering —
//! the scatter is the only part that touches the WTP matrix.

use super::rows::RowScratch;
use super::CompiledMenu;
use crate::config::Strategy;

/// Which block evaluator a menu evaluation uses. Results are
/// bit-identical either way (pinned by the proptest parity suites and the
/// `serve_bench kernel=both` CI leg); the knob exists for A/B timing and
/// as a reference implementation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KernelKind {
    /// Row-at-a-time reference evaluation (one user per pass).
    Rows,
    /// Cache-blocked tile kernel (this module) — the default.
    Tiled,
}

impl KernelKind {
    /// Lower-case knob name (bench CLI, logs).
    pub fn name(&self) -> &'static str {
        match self {
            KernelKind::Rows => "rows",
            KernelKind::Tiled => "tiled",
        }
    }

    /// Parse a knob value.
    pub fn parse(s: &str) -> Result<Self, String> {
        match s.trim() {
            "rows" => Ok(KernelKind::Rows),
            "tiled" => Ok(KernelKind::Tiled),
            other => Err(format!("unknown kernel '{other}' (rows|tiled)")),
        }
    }

    /// A block evaluator of this kind for `store`, `width` lanes wide —
    /// the one place an evaluation dispatches on the kernel.
    pub fn evaluator(self, store: &CompiledMenu, width: usize) -> Box<dyn BlockEval> {
        match self {
            KernelKind::Rows => Box::new(RowScratch::new(store, width)),
            KernelKind::Tiled => Box::new(TileScratch::new(store, width)),
        }
    }
}

/// A block evaluator: the unit the block loop
/// ([`CompiledMenu::drive`]) builds once per worker and hands every user
/// block of an evaluation to. Implemented by the tile kernel
/// ([`TileScratch`]) and the row-walk reference ([`KernelKind::Rows`]);
/// both give every lane the same bits.
pub trait BlockEval {
    /// Evaluate one block of users (no wider than the evaluator was built
    /// for). Per-lane payments land in `payments()[..users.len()]`; with
    /// `collect`, per-lane held offers are readable via `offers`.
    fn eval_block(&mut self, store: &CompiledMenu, users: &[u32], collect: bool);
    /// Per-lane expected payments of the last evaluated block.
    fn payments(&self) -> &[f64];
    /// One lane's held offer node ids (menu order) from the last collect
    /// evaluation.
    fn offers(&self, lane: usize) -> &[u32];
}

/// Default user-block width. 512 lanes × 8 bytes = 4 KiB per node row —
/// a ~100-node tile is ~430 KiB, past L1 but L2-resident, and the sweep
/// in `EXPERIMENTS.md` shows throughput climbing to a plateau at
/// 512–1024 lanes (node metadata and per-root dispatch amortize over
/// more lanes) before collapsing at 2048 when the tile spills L2.
pub const DEFAULT_BLOCK: usize = 512;

/// Unroll width of the lane loops: the inner loops process lanes in
/// chunks of 4 independent accumulators (`chunks_exact(LANES)`), which
/// the compiler turns into SIMD blends; the remainder lanes run scalar.
/// Lane math is identical either way, so the unroll never affects bits.
pub const LANES: usize = 4;

/// One level of the tile stack: every lane's holdings at this tree
/// position, SoA. "No holding" is the all-zero state (`sum == 0.0`,
/// `paid == 0.0`, `count == 0`), so combining children is an
/// unconditional lane-wise add.
struct TileEntry {
    /// Raw Σ of item WTPs over held items, per lane.
    sum: Vec<f64>,
    /// Amount paid, per lane.
    paid: Vec<f64>,
    /// Held item count, per lane — read and written only by the walks
    /// whose add-on factor depends on it (θ ≠ 0, see [`TileScratch::walk`]).
    count: Vec<u32>,
}

impl TileEntry {
    fn new(width: usize) -> Self {
        TileEntry { sum: vec![0.0; width], paid: vec![0.0; width], count: vec![0; width] }
    }
}

/// Run `$body` once per lane of the current block with `$l` bound to the
/// lane: every lane `0..$b` when `$dense` (a contiguous loop over `[..b]`
/// slices — bounds-check-free, so it vectorizes; uninterested lanes walk
/// to the all-zero state and contribute `+0.0`, the same bits as being
/// skipped), else only the compacted `$active` lanes. One body for both
/// traversals, so they do the same per-lane arithmetic by construction.
macro_rules! for_lanes {
    ($dense:expr, $b:expr, $active:expr, |$l:ident| $body:block) => {
        if $dense {
            for $l in 0..$b $body
        } else {
            for &lane in $active.iter() {
                let $l = lane as usize;
                $body
            }
        }
    };
}

/// Reusable per-worker tile state. One `TileScratch` serves every block
/// a worker evaluates during a query, since every consuming walk leaves
/// the tile all-zero again. Nothing here escapes; results are read out
/// through [`BlockEval`].
pub struct TileScratch {
    /// Lane capacity (the block width).
    block: usize,
    /// Row pitch of `acc` in `f64`s: `block` rounded up so each node row
    /// spans an **odd** number of cache lines. A power-of-two pitch (e.g.
    /// 64 lanes × 8 B = 8 lines) would map every node's row for a given
    /// lane into the same handful of L1 sets — the scatter's
    /// fixed-lane/varying-node writes then conflict-miss on ~4 sets
    /// instead of using the whole cache. Layout only; never affects bits.
    stride: usize,
    /// Node-major bundle-sum tile: `acc[n * stride + lane]`.
    acc: Vec<f64>,
    /// Per-lane expected payment of the last walk.
    payments: Vec<f64>,
    /// Words per node row of `adopt` and `cov`: `⌈block / 64⌉`.
    words: usize,
    /// Collect mode: node-major adoption bits of the last walk — lane `l`
    /// adopted node `n` iff bit `l % 64` of `adopt[n * words + l / 64]`.
    /// Only the rows of visited trees are written; after the readout
    /// they hold the *held* bits (adopted and not covered).
    adopt: Vec<u64>,
    /// Readout scratch, same layout: the lanes that adopted a proper
    /// ancestor of `n` (`cov[n] = cov[parent] | adopt[parent]`).
    cov: Vec<u64>,
    /// Collect mode: the current node's adoption decision per lane as a
    /// 0/1 byte, written by the lane loops and packed into `adopt`.
    flags: Vec<u8>,
    /// Subtree ranges `(first, root)` of the trees the last collect walk
    /// visited (pure menus: `(root, root)`), in root order.
    visited: Vec<(u32, u32)>,
    /// Held-offer CSR of the last collect walk: lane `l` holds
    /// `offers[offer_ptr[l]..offer_ptr[l + 1]]`, in menu order.
    offer_ptr: Vec<usize>,
    offers: Vec<u32>,
    /// Stack arena, reused across nodes/blocks (`sp` live entries).
    entries: Vec<TileEntry>,
    sp: usize,
    /// Lanes of the current block interested in the current root
    /// (compacted per root: interest per block is sparse, and a 64-lane
    /// union would otherwise walk every tree for every block).
    active: Vec<u32>,
}

impl TileScratch {
    /// Scratch for `store` at block width `block` (≥ 1).
    pub fn new(store: &CompiledMenu, block: usize) -> Self {
        // Odd number of 64-byte lines per row (see `stride`): round up to
        // a whole line, then pad one more if the line count came out even.
        let mut stride = block.next_multiple_of(8);
        if (stride / 8).is_multiple_of(2) {
            stride += 8;
        }
        let n_nodes = store.prices.len();
        let words = block.div_ceil(64);
        TileScratch {
            block,
            stride,
            acc: vec![0.0; n_nodes * stride],
            payments: vec![0.0; block],
            words,
            adopt: vec![0; n_nodes * words],
            cov: vec![0; n_nodes * words],
            flags: vec![0; block],
            visited: Vec::new(),
            offer_ptr: vec![0; block + 1],
            offers: Vec::new(),
            entries: Vec::new(),
            sp: 0,
            active: Vec::with_capacity(block),
        }
    }

    /// Scatter each lane's WTP row through the item→offer postings into
    /// the node-major tile. Per lane, each node's bundle sum accumulates
    /// in ascending item order — exactly the row-walk's (and the
    /// solver's) accumulation order, which is what keeps lane results
    /// bit-identical to [`KernelKind::Rows`].
    ///
    /// The tile is **not** cleared here: a consuming walk
    /// ([`TileScratch::walk_block`] with `consume`) zeroes every lane it
    /// read, and lanes it never visits are provably still zero (a root
    /// with no interested lane has an all-zero subtree, since validated
    /// child bundles nest in their parents) — so the tile re-zeroes
    /// itself for free instead of paying a `n_nodes × block` memset per
    /// block.
    pub fn scatter_block(&mut self, store: &CompiledMenu, users: &[u32]) {
        let stride = self.stride;
        debug_assert!(users.len() <= self.block);
        debug_assert!(self.acc.iter().all(|&x| x == 0.0), "tile not consumed by prior walk");
        for (lane, &u) in users.iter().enumerate() {
            debug_assert!((u as usize) < store.n_users);
            let row = store.wtp.row(u);
            for (i, w) in row.iter() {
                for &n in store.postings(i) {
                    self.acc[n as usize * stride + lane] += w;
                }
            }
        }
    }

    /// Walk the already-scattered tile against a price table (the
    /// compiled `store.prices`, or a perturbed copy for marginal-revenue
    /// queries — same code path, so perturbed results are bit-identical
    /// to a recompile at the perturbed price). Fills `payments[..b]` and,
    /// with `collect`, the held-offer lists behind [`BlockEval::offers`].
    ///
    /// With `consume`, every tile lane the walk reads is zeroed behind
    /// it, restoring the all-zero tile for the next scatter (see
    /// [`TileScratch::scatter_block`]); pass `false` to keep the tile for
    /// a second walk at a different price table (marginal queries).
    pub fn walk_block(
        &mut self,
        store: &CompiledMenu,
        prices: &[f64],
        b: usize,
        collect: bool,
        consume: bool,
    ) {
        // The held-item count only feeds the add-on factor, which is
        // `1 + θ` or `1.0` by count — the same `1.0` whatever the count
        // when `1 + θ == 1.0`, so that walk drops the count stream.
        let count = 1.0 + store.params.theta != 1.0;
        match (collect, count) {
            (false, false) => self.walk::<false, false>(store, prices, b, consume),
            (false, true) => self.walk::<false, true>(store, prices, b, consume),
            (true, false) => self.walk::<true, false>(store, prices, b, consume),
            (true, true) => self.walk::<true, true>(store, prices, b, consume),
        }
        if collect {
            self.read_offers(store, b);
        }
    }

    /// The walk, monomorphized on what its query needs: `COLLECT` records
    /// every (node, lane) adoption decision into `adopt` (only `assign`
    /// reads them), `COUNT` carries the per-lane held-item count (only
    /// θ ≠ 0 reads it). Dropping either part never changes a payment bit.
    ///
    /// Every offer (pure) / tree (mixed) is walked only for the compacted
    /// list of lanes interested in it — per-block interest is sparse, and
    /// the union of all lanes' interests would otherwise visit nearly
    /// every node for nearly every block. Skipped lanes contribute the
    /// same bits as the row-walk's skipped users (`+0.0` payments, no
    /// offers), so compaction never shows up in results.
    fn walk<const COLLECT: bool, const COUNT: bool>(
        &mut self,
        store: &CompiledMenu,
        prices: &[f64],
        b: usize,
        consume: bool,
    ) {
        let TileScratch {
            block,
            stride,
            acc,
            payments,
            words,
            adopt,
            flags,
            visited,
            entries,
            sp,
            active,
            ..
        } = self;
        let (block, stride, words) = (*block, *stride, *words);
        debug_assert!(b <= block);
        let adoption = &store.adoption;
        let alpha = adoption.alpha;
        let eps = adoption.epsilon;
        let bundle_factor = 1.0 + store.params.theta;
        let node_size = |n: u32| store.node_indptr[n as usize + 1] - store.node_indptr[n as usize];
        let flags = &mut flags[..b];
        payments[..b].fill(0.0);
        visited.clear();

        match store.strategy {
            Strategy::Pure => {
                let step = adoption.is_step();
                for &root in store.roots.iter() {
                    let rbase = root as usize * stride;
                    active.clear();
                    for l in 0..b {
                        if acc[rbase + l] != 0.0 {
                            active.push(l as u32);
                        }
                    }
                    if active.is_empty() {
                        continue;
                    }
                    let price = prices[root as usize];
                    // `set_wtp` bitwise: (1+θ)·s for bundles, 1.0·s == s
                    // for singletons — one hoisted factor either way.
                    let factor = if node_size(root) >= 2 { bundle_factor } else { 1.0 };
                    if step {
                        // Branchless over the active lanes, in unrolled
                        // 4-wide groups of independent accumulators. An
                        // `adopt` mask always includes `s != 0.0` (here
                        // by construction of `active`), and a declining
                        // lane adds `price * 0.0 = +0.0` — the very bits
                        // the row-walk's skip produces.
                        let mut it = active.chunks_exact(LANES);
                        for l4 in &mut it {
                            for &l in l4 {
                                let l = l as usize;
                                let s = acc[rbase + l];
                                let margin = alpha * (factor * s) - price + eps;
                                payments[l] += price * ((margin >= 0.0) as u32 as f64);
                            }
                        }
                        for &l in it.remainder() {
                            let l = l as usize;
                            let s = acc[rbase + l];
                            let margin = alpha * (factor * s) - price + eps;
                            payments[l] += price * ((margin >= 0.0) as u32 as f64);
                        }
                    } else {
                        // Soft sigmoid: only interested lanes contribute
                        // (an *included* zero-WTP lane would add a
                        // positive probability), exactly as in the
                        // row-walk — `active` is that restriction.
                        for &l in active.iter() {
                            let l = l as usize;
                            let w = factor * acc[rbase + l];
                            payments[l] += price * adoption.probability(w, price);
                        }
                    }
                    if COLLECT {
                        // The modal offer set, in either regime.
                        visited.push((root, root));
                        let bits = &mut adopt[root as usize * words..][..words];
                        bits.fill(0);
                        for &l in active.iter() {
                            let l = l as usize;
                            let a = adoption.margin(factor * acc[rbase + l], price) >= 0.0;
                            bits[l >> 6] |= (a as u64) << (l & 63);
                        }
                    }
                    if consume {
                        for &l in active.iter() {
                            acc[rbase + l as usize] = 0.0;
                        }
                    }
                }
            }
            Strategy::Mixed => {
                for &root in store.roots.iter() {
                    let rbase = root as usize * stride;
                    // Compact the lanes interested in this tree. For any
                    // *validated* menu, child bundles nest in their
                    // parents, so a lane with a zero root sum has zero
                    // sums across the subtree and would walk to the
                    // all-zero state contributing +0.0 — restricting the
                    // walk to interested lanes is therefore bit-identical
                    // to the row-walk's per-user skip.
                    active.clear();
                    for l in 0..b {
                        if acc[rbase + l] != 0.0 {
                            active.push(l as u32);
                        }
                    }
                    if active.is_empty() {
                        continue;
                    }
                    // Adaptive lane traversal (`for_lanes!`): a
                    // mostly-interested block runs the full-width loops,
                    // a sparse block the compacted ones. Pure perf
                    // dispatch — both run the same body.
                    let dense = active.len() * 2 >= b;
                    let first = store.subtree_start[root as usize];
                    if COLLECT {
                        visited.push((first, root));
                    }
                    debug_assert_eq!(*sp, 0);
                    for n in first..=root {
                        let k = store.n_children[n as usize] as usize;
                        let price = prices[n as usize];
                        let size = node_size(n);
                        let nbase = n as usize * stride;
                        let row = &acc[nbase..nbase + b];
                        if k == 0 {
                            // Leaf offer: plain take-it-or-leave-it per
                            // lane; a declined/uninterested lane is the
                            // all-zero state.
                            if *sp == entries.len() {
                                entries.push(TileEntry::new(block));
                            }
                            let e = &mut entries[*sp];
                            *sp += 1;
                            let factor = if size >= 2 { bundle_factor } else { 1.0 };
                            let (sums, paid) = (&mut e.sum[..b], &mut e.paid[..b]);
                            let count = &mut e.count[..b];
                            for_lanes!(dense, b, active, |l| {
                                let s = row[l];
                                let margin = alpha * (factor * s) - price + eps;
                                let adopt = (margin >= 0.0) & (s != 0.0);
                                sums[l] = if adopt { s } else { 0.0 };
                                paid[l] = if adopt { price } else { 0.0 };
                                if COUNT {
                                    count[l] = if adopt { size as u32 } else { 0 };
                                }
                                if COLLECT {
                                    flags[l] = adopt as u8;
                                }
                            });
                        } else {
                            // Combine the top k children into the base
                            // entry, lane-wise, in child order — the
                            // solver's left-to-right merge fold. Unheld
                            // children are all-zero, so the add is
                            // unconditional and bit-preserving. One loop
                            // per stream: fusing the f64 and u32 adds
                            // vectorized worse (medium menus, θ ≠ 0).
                            let base = *sp - k;
                            let (head, tail) = entries.split_at_mut(base + 1);
                            let dst = &mut head[base];
                            let (sums, paid) = (&mut dst.sum[..b], &mut dst.paid[..b]);
                            let count = &mut dst.count[..b];
                            for src in &tail[..k - 1] {
                                let (src_sum, src_paid) = (&src.sum[..b], &src.paid[..b]);
                                let src_count = &src.count[..b];
                                for_lanes!(dense, b, active, |l| {
                                    sums[l] += src_sum[l];
                                });
                                for_lanes!(dense, b, active, |l| {
                                    paid[l] += src_paid[l];
                                });
                                if COUNT {
                                    for_lanes!(dense, b, active, |l| {
                                        count[l] += src_count[l];
                                    });
                                }
                            }
                            // Upgrade decision per lane. The combined
                            // holdings already sit in `dst`, so "keep
                            // holdings" and "no holdings" are no-ops;
                            // only adoption rewrites the lane, via
                            // branchless selects.
                            for_lanes!(dense, b, active, |l| {
                                let s_b = row[l];
                                let s_held = sums[l];
                                let q = paid[l];
                                let afactor = if COUNT {
                                    let addon_count = size.saturating_sub(count[l] as usize).max(1);
                                    if addon_count >= 2 {
                                        bundle_factor
                                    } else {
                                        1.0
                                    }
                                } else {
                                    bundle_factor
                                };
                                let addon_wtp = afactor * (s_b - s_held).max(0.0);
                                let margin = alpha * addon_wtp - (price - q) + eps;
                                let adopt = (margin >= 0.0) & (s_b != 0.0);
                                sums[l] = if adopt { s_b } else { s_held };
                                paid[l] = if adopt { price } else { q };
                                if COUNT {
                                    count[l] = if adopt { size as u32 } else { count[l] };
                                }
                                if COLLECT {
                                    flags[l] = adopt as u8;
                                }
                            });
                            *sp = base + 1;
                        }
                        if COLLECT {
                            let bits = &mut adopt[n as usize * words..][..words];
                            if dense {
                                pack_flags(flags, bits);
                            } else {
                                bits.fill(0);
                                for &l in active.iter() {
                                    let l = l as usize;
                                    bits[l >> 6] |= u64::from(flags[l]) << (l & 63);
                                }
                            }
                        }
                        if consume {
                            if dense {
                                acc[nbase..nbase + b].fill(0.0);
                            } else {
                                for &l in active.iter() {
                                    acc[nbase + l as usize] = 0.0;
                                }
                            }
                        }
                    }
                    // Pop the root: lanes with no holdings pay +0.0
                    // (bit-preserving).
                    *sp -= 1;
                    let paid = &entries[*sp].paid[..b];
                    for_lanes!(dense, b, active, |l| {
                        payments[l] += paid[l];
                    });
                }
            }
        }
    }

    /// Turn the last collect walk's adoption bits into the per-lane
    /// held-offer CSR. Adopting an offer node drops every holding inside
    /// its subtree, so a lane holds exactly the nodes it adopted without
    /// adopting an ancestor. Per visited tree, a rootward-first pass
    /// (post-order ids grow rootward) hands each node `p`'s cover to its
    /// children — `cov[n] = cov[p] | adopt[p]` — and masks
    /// `adopt[n] &= !cov[n]` in place; masking `p` first is harmless,
    /// since `cov[p] | (adopt[p] & !cov[p]) == cov[p] | adopt[p]`.
    /// Two passes over the held bits then count and place each lane's
    /// offers; nodes are visited in ascending id order, which is menu
    /// order.
    fn read_offers(&mut self, store: &CompiledMenu, b: usize) {
        let TileScratch { words, adopt, cov, visited, offer_ptr, offers, .. } = self;
        let words = *words;
        let used = b.div_ceil(64);
        for &(first, root) in visited.iter() {
            cov[root as usize * words..][..used].fill(0);
            for p in (first as usize..=root as usize).rev() {
                // `p`'s children are the subtrees ending right below it,
                // last child first.
                let mut end = p;
                for _ in 0..store.n_children[p] {
                    let n = end - 1;
                    for w in 0..used {
                        let c = cov[p * words + w] | adopt[p * words + w];
                        cov[n * words + w] = c;
                        adopt[n * words + w] &= !c;
                    }
                    end = store.subtree_start[n] as usize;
                }
            }
        }
        // Count into `offer_ptr[l + 1]`, prefix-sum to each lane's start,
        // place (advancing `offer_ptr[l]` to lane `l`'s end), then shift
        // the ends back into place.
        offer_ptr[..=b].fill(0);
        for_held(adopt, words, used, visited, |l, _| offer_ptr[l + 1] += 1);
        for l in 0..b {
            offer_ptr[l + 1] += offer_ptr[l];
        }
        offers.resize(offer_ptr[b], 0);
        for_held(adopt, words, used, visited, |l, n| {
            offers[offer_ptr[l]] = n;
            offer_ptr[l] += 1;
        });
        offer_ptr.copy_within(0..b, 1);
        offer_ptr[0] = 0;
    }
}

/// Call `f(lane, node)` for every set bit of the visited trees' rows of
/// `bits` (`words` per node, the first `used` of them live), nodes in
/// ascending id order.
fn for_held(
    bits: &[u64],
    words: usize,
    used: usize,
    visited: &[(u32, u32)],
    mut f: impl FnMut(usize, u32),
) {
    for &(first, root) in visited {
        for n in first..=root {
            for (w, &word) in bits[n as usize * words..][..used].iter().enumerate() {
                let mut rest = word;
                while rest != 0 {
                    f(w * 64 + rest.trailing_zeros() as usize, n);
                    rest &= rest - 1;
                }
            }
        }
    }
}

/// Pack a row of 0/1 lane bytes into adoption bits — lane `l` to bit
/// `l % 64` of `bits[l / 64]` — eight lanes per multiply: the magic
/// constant gathers byte `i`'s low bit into bit `56 + i` with no carries,
/// so the top byte is the eight lanes' bits in order. A ragged tail
/// packs bit by bit.
fn pack_flags(flags: &[u8], bits: &mut [u64]) {
    for (word, lanes) in bits.iter_mut().zip(flags.chunks(64)) {
        let mut w = 0u64;
        let mut eights = lanes.chunks_exact(8);
        for (g, e) in (&mut eights).enumerate() {
            let x = u64::from_le_bytes([e[0], e[1], e[2], e[3], e[4], e[5], e[6], e[7]]);
            w |= (x.wrapping_mul(0x0102_0408_1020_4080) >> 56) << (8 * g);
        }
        let tail = lanes.len() & !7;
        for (i, &f) in eights.remainder().iter().enumerate() {
            w |= u64::from(f) << (tail + i);
        }
        *word = w;
    }
}

impl BlockEval for TileScratch {
    /// Scatter the lanes' WTP rows into the tile, then walk the menu at
    /// its compiled prices, consuming the tile.
    fn eval_block(&mut self, store: &CompiledMenu, users: &[u32], collect: bool) {
        self.scatter_block(store, users);
        self.walk_block(store, &store.prices, users.len(), collect, true);
    }

    fn payments(&self) -> &[f64] {
        &self.payments
    }

    /// One lane's held offers (menu order): its row of the last collect
    /// walk's held-offer CSR.
    fn offers(&self, lane: usize) -> &[u32] {
        &self.offers[self.offer_ptr[lane]..self.offer_ptr[lane + 1]]
    }
}

#[cfg(test)]
mod profiling {
    use super::*;
    use crate::algorithms::MixedGreedy;
    use crate::market::Market;
    use crate::params::Params;
    use crate::wtp::WtpMatrix;

    /// Scatter-vs-walk phase split on a bench-shaped market. Not a test of
    /// behavior — run on demand with
    /// `cargo test --release -p revmax-core -- --ignored profile_tile --nocapture`.
    #[test]
    #[ignore]
    fn profile_tile_phases() {
        let n_users = 200_000usize;
        let n_items = 60usize;
        let mut state = 0x2015_2015u64;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (state >> 33) as u32
        };
        let mut gen_rows = |n: usize| -> Vec<Vec<f64>> {
            (0..n)
                .map(|_| {
                    let mut row = vec![0.0; n_items];
                    for _ in 0..8 {
                        row[next() as usize % n_items] = 1.0 + (next() % 1000) as f64 / 100.0;
                    }
                    row
                })
                .collect()
        };
        // Solve the menu on a small base market (like serve_bench does),
        // then serve a large independently-drawn consumer population.
        let base = Market::new(WtpMatrix::from_rows(gen_rows(120)), Params::default());
        let outcome = crate::algorithms::Configurator::run(&MixedGreedy::default(), &base);
        let market = Market::new(WtpMatrix::from_rows(gen_rows(n_users)), Params::default());
        let store = &CompiledMenu::compile(&market, &outcome.config);
        println!("menu: {} nodes, {} roots", store.prices.len(), store.roots.len());
        let users: Vec<u32> = (0..n_users as u32).collect();
        for &block in &[64usize, 128, 256] {
            let mut tile = TileScratch::new(store, block);
            // Scatter + manual un-consumed clear (walk skipped).
            let t = std::time::Instant::now();
            for blk in users.chunks(block) {
                tile.scatter_block(store, blk);
                tile.acc.iter_mut().for_each(|x| *x = 0.0);
            }
            let scatter_clear = t.elapsed();
            // memset-only baseline, to subtract the clear cost.
            let t = std::time::Instant::now();
            for _ in users.chunks(block) {
                tile.acc.iter_mut().for_each(|x| *x = 0.0);
            }
            let clear = t.elapsed();
            // Full eval (scatter + consuming walk), no collect.
            let t = std::time::Instant::now();
            let mut total = 0.0;
            for blk in users.chunks(block) {
                tile.eval_block(store, blk, false);
                for &p in &tile.payments[..blk.len()] {
                    total += p;
                }
            }
            let full = t.elapsed();
            println!(
                "block={block:>4}: scatter {:>7.1?} (clear {clear:.1?})  full {full:>7.1?}  walk ≈ {:?}  [total {total:.2}]",
                scatter_clear - clear,
                full - (scatter_clear - clear),
            );
        }
    }
}
