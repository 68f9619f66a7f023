//! The cache-blocked user×offer tile kernel (`DESIGN.md` §12).
//!
//! The reference evaluation (`serve/src/reference.rs`) is row-at-a-time: scatter one
//! consumer's WTP row into a per-node accumulator, walk the offer tables,
//! reset, repeat. Every node's metadata (price, size, child count,
//! subtree range) is re-loaded per user, the mixed walk allocates a
//! holdings `Vec` per adopted node, and nothing vectorizes. This module
//! evaluates a **block** of users at once instead:
//!
//! * **Tile accumulator** — `acc[node × stride + lane]`, node-major, so
//!   the walk loads one contiguous lane row per node and the whole tile
//!   (`n_nodes × block × 8` bytes) stays cache-resident across the walk.
//! * **Lane determinism** — lane assignment is a pure function of index
//!   (lane `l` of a block holds the block's `l`-th user, blocks split a
//!   §6 chunk front to back), and every lane's arithmetic is exactly the
//!   row-walk's: per-user results are bit-identical to [`KernelKind::Rows`]
//!   at any block size and thread count.
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
//! * **Adoption bitmaps** — collect mode records each (node, lane)
//!   adoption decision as one branchless OR into a per-lane bitmap
//!   (`⌈n_nodes/64⌉` words), so the collect walk stays as tight as the
//!   payment-only walk. The held-offer list is reconstructed afterwards
//!   by `take_offers`: adopting a node wipes every
//!   holding in its subtree, so the final list is exactly the adopted
//!   nodes without an adopted ancestor — a descending bit-scan that
//!   masks off each emitted node's subtree in O(held) word ops.
//!
//! The walk is price-parameterized (`TileScratch::walk_block` takes the
//! price table as a slice) so a marginal-revenue query can re-walk the
//! same scattered tile under a perturbed price without re-scattering —
//! the scatter is the only part that touches the WTP matrix.

use crate::index::MenuStore;
use revmax_core::config::Strategy;

/// Which batched-query evaluation the index uses. Results are
/// bit-identical either way (pinned by the proptest parity suite and the
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
}

/// A block evaluator: the unit [`crate::query`]'s driver builds once per
/// worker and hands every user block of a query to. Implemented by the
/// tile kernel ([`TileScratch`]) and the row-walk reference
/// ([`crate::reference::RowScratch`]); both give every lane the same bits.
pub(crate) trait BlockEval {
    /// Evaluate one block of users (no wider than the evaluator was built
    /// for). Per-lane payments land in `payments()[..users.len()]`; with
    /// `collect`, per-lane held offers are readable via `take_offers`.
    fn eval_block(&mut self, store: &MenuStore, users: &[u32], collect: bool);
    /// Per-lane expected payments of the last evaluated block.
    fn payments(&self) -> &[f64];
    /// One lane's held offer node ids (menu order) from the last collect
    /// evaluation.
    fn take_offers(&mut self, store: &MenuStore, lane: usize) -> Vec<u32>;
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
/// position, SoA. "No holding" is the all-zero state (`count == 0`), so
/// combining children is an unconditional lane-wise add.
struct TileEntry {
    /// Raw Σ of item WTPs over held items, per lane.
    sum: Vec<f64>,
    /// Amount paid, per lane.
    paid: Vec<f64>,
    /// Held item count, per lane (0 = no holding).
    count: Vec<u32>,
}

impl TileEntry {
    fn new(stride: usize) -> Self {
        TileEntry { sum: vec![0.0; stride], paid: vec![0.0; stride], count: vec![0; stride] }
    }
}

/// Reusable per-worker tile state. One `TileScratch` serves every block
/// a worker evaluates during a query — across §6 chunks, since every
/// consuming walk leaves the tile all-zero again. Nothing here escapes;
/// results are read out through [`BlockEval`].
pub(crate) struct TileScratch {
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
    /// Words per lane of `flag_words`: `⌈n_nodes / 64⌉`.
    wpl: usize,
    /// Collect mode: per-lane adoption bitmap of the last walk,
    /// lane-major — node `n`'s decision for lane `l` is bit `n % 64` of
    /// `flag_words[l * wpl + n / 64]`. Recording a decision is one
    /// branchless OR, so the collect walk stays as tight as the
    /// payment-only walk, and a lane's whole outcome sits in `wpl` words
    /// for [`BlockEval::take_offers`]. Cleared per collect walk.
    flag_words: Vec<u64>,
    /// Readout scratch: one lane's `wpl` flag words, consumed bit by bit.
    readout: Vec<u64>,
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
    pub(crate) fn new(store: &MenuStore, block: usize) -> Self {
        // Odd number of 64-byte lines per row (see `stride`): round up to
        // a whole line, then pad one more if the line count came out even.
        let mut stride = block.next_multiple_of(8);
        if (stride / 8).is_multiple_of(2) {
            stride += 8;
        }
        let wpl = store.shape.prices.len().div_ceil(64);
        TileScratch {
            block,
            stride,
            acc: vec![0.0; store.shape.prices.len() * stride],
            payments: vec![0.0; block],
            wpl,
            flag_words: vec![0; block * wpl],
            readout: vec![0; wpl],
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
    pub(crate) fn scatter_block(&mut self, store: &MenuStore, users: &[u32]) {
        let shape = &store.shape;
        let stride = self.stride;
        debug_assert!(users.len() <= self.block);
        debug_assert!(self.acc.iter().all(|&x| x == 0.0), "tile not consumed by prior walk");
        for (lane, &u) in users.iter().enumerate() {
            debug_assert!((u as usize) < store.n_users);
            let row = store.wtp.row(u);
            for (i, w) in row.iter() {
                let (lo, hi) = (shape.post_indptr[i as usize], shape.post_indptr[i as usize + 1]);
                for &n in &shape.post_nodes[lo..hi] {
                    self.acc[n as usize * stride + lane] += w;
                }
            }
        }
    }

    /// Walk the already-scattered tile against a price table (the
    /// compiled `shape.prices`, or a perturbed copy for marginal-revenue
    /// queries — same code path, so perturbed results are bit-identical
    /// to a recompile at the perturbed price). Fills `payments[..b]` and,
    /// with `collect`, the per-(node, lane) adoption flags behind
    /// [`BlockEval::take_offers`].
    ///
    /// Every offer (pure) / tree (mixed) is walked only for the compacted
    /// list of lanes interested in it — per-block interest is sparse, and
    /// the union of 64 lanes' interests would otherwise visit nearly
    /// every node for nearly every block. Skipped lanes contribute the
    /// same bits as the row-walk's skipped users (`+0.0` payments, no
    /// offers), so compaction never shows up in results.
    ///
    /// With `consume`, every tile lane the walk reads is zeroed behind
    /// it, restoring the all-zero tile for the next scatter (see
    /// [`TileScratch::scatter_block`]); pass `false` to keep the tile for
    /// a second walk at a different price table (marginal queries).
    pub(crate) fn walk_block(
        &mut self,
        store: &MenuStore,
        prices: &[f64],
        b: usize,
        collect: bool,
        consume: bool,
    ) {
        let TileScratch {
            block, stride, acc, payments, wpl, flag_words, entries, sp, active, ..
        } = self;
        let (block, stride, wpl) = (*block, *stride, *wpl);
        debug_assert!(b <= block);
        let shape = &store.shape;
        let adoption = &store.adoption;
        let alpha = adoption.alpha;
        let eps = adoption.epsilon;
        let bundle_factor = 1.0 + store.params.theta;
        let node_size = |n: u32| shape.node_indptr[n as usize + 1] - shape.node_indptr[n as usize];
        payments[..b].fill(0.0);
        if collect {
            flag_words.fill(0);
        }

        match shape.strategy {
            Strategy::Pure => {
                let step = adoption.is_step();
                for &root in shape.roots.iter() {
                    let rbase = root as usize * stride;
                    let (rw, rb) = (root as usize >> 6, root as usize & 63);
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
                        if collect {
                            for &l in active.iter() {
                                let l = l as usize;
                                let s = acc[rbase + l];
                                let a = (alpha * (factor * s) - price + eps >= 0.0) as u64;
                                flag_words[l * wpl + rw] |= a << rb;
                            }
                        }
                    } else {
                        // Soft sigmoid: only interested lanes contribute
                        // (an *included* zero-WTP lane would add a
                        // positive probability), exactly as in the
                        // row-walk — `active` is that restriction.
                        for &l in active.iter() {
                            let l = l as usize;
                            let s = acc[rbase + l];
                            let w = factor * s;
                            payments[l] += price * adoption.probability(w, price);
                            if collect {
                                let a = (adoption.margin(w, price) >= 0.0) as u64;
                                flag_words[l * wpl + rw] |= a << rb;
                            }
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
                for &root in shape.roots.iter() {
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
                    // Adaptive lane traversal: a mostly-interested block
                    // runs the full-width loops (contiguous, bounds-free,
                    // auto-vectorizable; uninterested lanes walk to the
                    // all-zero state and contribute `+0.0`, the same bits
                    // as being skipped), a sparse block the compacted
                    // gather loops. Pure perf dispatch — both bodies do
                    // the row-walk's arithmetic verbatim.
                    let dense = active.len() * 2 >= b;
                    debug_assert_eq!(*sp, 0);
                    for n in shape.subtree_start[root as usize]..=root {
                        let k = shape.n_children[n as usize] as usize;
                        let price = prices[n as usize];
                        let size = node_size(n);
                        let nbase = n as usize * stride;
                        let (nw, nb) = (n as usize >> 6, n as usize & 63);
                        if k == 0 {
                            // Leaf offer: plain take-it-or-leave-it per
                            // lane; a declined/uninterested lane is the
                            // all-zero state. Collect mode records the
                            // adoption mask as a flag byte — still
                            // branchless.
                            if *sp == entries.len() {
                                entries.push(TileEntry::new(block));
                            }
                            let e = &mut entries[*sp];
                            *sp += 1;
                            let factor = if size >= 2 { bundle_factor } else { 1.0 };
                            if dense {
                                let row = &acc[nbase..nbase + b];
                                let sums = &mut e.sum[..b];
                                let paid = &mut e.paid[..b];
                                let count = &mut e.count[..b];
                                for l in 0..b {
                                    let s = row[l];
                                    let margin = alpha * (factor * s) - price + eps;
                                    let adopt = (margin >= 0.0) & (s != 0.0);
                                    sums[l] = if adopt { s } else { 0.0 };
                                    paid[l] = if adopt { price } else { 0.0 };
                                    count[l] = if adopt { size as u32 } else { 0 };
                                }
                                if collect {
                                    // Re-derive the mask (same pure
                                    // arithmetic, same bits) in a second
                                    // pass so the hot loop above keeps
                                    // vectorizing without the strided
                                    // bitmap read-modify-write.
                                    for l in 0..b {
                                        let s = row[l];
                                        let margin = alpha * (factor * s) - price + eps;
                                        let adopt = (margin >= 0.0) & (s != 0.0);
                                        flag_words[l * wpl + nw] |= (adopt as u64) << nb;
                                    }
                                }
                            } else {
                                for &l in active.iter() {
                                    let l = l as usize;
                                    let s = acc[nbase + l];
                                    let margin = alpha * (factor * s) - price + eps;
                                    let adopt = (margin >= 0.0) & (s != 0.0);
                                    e.sum[l] = if adopt { s } else { 0.0 };
                                    e.paid[l] = if adopt { price } else { 0.0 };
                                    e.count[l] = if adopt { size as u32 } else { 0 };
                                    if collect {
                                        flag_words[l * wpl + nw] |= (adopt as u64) << nb;
                                    }
                                }
                            }
                        } else {
                            // Combine the top k children into the base
                            // entry, lane-wise, in child order — the
                            // solver's left-to-right merge fold. Unheld
                            // children are all-zero, so the add is
                            // unconditional and bit-preserving.
                            let base = *sp - k;
                            let (head, tail) = entries.split_at_mut(base + 1);
                            let dst = &mut head[base];
                            for src in &tail[..k - 1] {
                                if dense {
                                    let (ds, ss) = (&mut dst.sum[..b], &src.sum[..b]);
                                    for l in 0..b {
                                        ds[l] += ss[l];
                                    }
                                    let (dp, sq) = (&mut dst.paid[..b], &src.paid[..b]);
                                    for l in 0..b {
                                        dp[l] += sq[l];
                                    }
                                    let (dc, sc) = (&mut dst.count[..b], &src.count[..b]);
                                    for l in 0..b {
                                        dc[l] += sc[l];
                                    }
                                } else {
                                    for &l in active.iter() {
                                        let l = l as usize;
                                        dst.sum[l] += src.sum[l];
                                        dst.paid[l] += src.paid[l];
                                        dst.count[l] += src.count[l];
                                    }
                                }
                            }
                            // Upgrade decision per lane. The combined
                            // holdings already sit in `dst`, so "keep
                            // holdings" and "no holdings" are no-ops;
                            // only adoption rewrites the lane, via
                            // branchless selects.
                            if dense && !collect {
                                let row = &acc[nbase..nbase + b];
                                let sums = &mut dst.sum[..b];
                                let paid = &mut dst.paid[..b];
                                let count = &mut dst.count[..b];
                                for l in 0..b {
                                    let s_b = row[l];
                                    let s_held = sums[l];
                                    let q = paid[l];
                                    let c_held = count[l] as usize;
                                    let addon_count = size.saturating_sub(c_held).max(1);
                                    let afactor =
                                        if addon_count >= 2 { bundle_factor } else { 1.0 };
                                    let addon_wtp = afactor * (s_b - s_held).max(0.0);
                                    let margin = alpha * addon_wtp - (price - q) + eps;
                                    let adopt = (margin >= 0.0) & (s_b != 0.0);
                                    sums[l] = if adopt { s_b } else { s_held };
                                    paid[l] = if adopt { price } else { q };
                                    count[l] = if adopt { size as u32 } else { c_held as u32 };
                                }
                            } else {
                                // Collect-mode bodies also stay
                                // branchless — the decision lands in a
                                // flag byte; only the lane source
                                // differs between dense and compact.
                                macro_rules! decide {
                                    ($l:expr, $record:literal) => {{
                                        let l = $l;
                                        let s_b = acc[nbase + l];
                                        let s_held = dst.sum[l];
                                        let q = dst.paid[l];
                                        let c_held = dst.count[l] as usize;
                                        let addon_count = size.saturating_sub(c_held).max(1);
                                        let afactor =
                                            if addon_count >= 2 { bundle_factor } else { 1.0 };
                                        let addon_wtp = afactor * (s_b - s_held).max(0.0);
                                        let margin = alpha * addon_wtp - (price - q) + eps;
                                        let adopt = (margin >= 0.0) & (s_b != 0.0);
                                        dst.sum[l] = if adopt { s_b } else { s_held };
                                        dst.paid[l] = if adopt { price } else { q };
                                        dst.count[l] =
                                            if adopt { size as u32 } else { c_held as u32 };
                                        if $record {
                                            flag_words[l * wpl + nw] |= (adopt as u64) << nb;
                                        }
                                    }};
                                }
                                if dense {
                                    // dense ∧ ¬collect took the arm above.
                                    for l in 0..b {
                                        decide!(l, true);
                                    }
                                } else if collect {
                                    for &l in active.iter() {
                                        decide!(l as usize, true);
                                    }
                                } else {
                                    for &l in active.iter() {
                                        decide!(l as usize, false);
                                    }
                                }
                            }
                            *sp = base + 1;
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
                    let e = &entries[*sp];
                    if dense {
                        let paid = &e.paid[..b];
                        for l in 0..b {
                            payments[l] += paid[l];
                        }
                    } else {
                        for &l in active.iter() {
                            payments[l as usize] += e.paid[l as usize];
                        }
                    }
                }
            }
        }
    }
}

impl BlockEval for TileScratch {
    /// Scatter the lanes' WTP rows into the tile, then walk the menu at
    /// its compiled prices, consuming the tile.
    fn eval_block(&mut self, store: &MenuStore, users: &[u32], collect: bool) {
        self.scatter_block(store, users);
        self.walk_block(store, &store.shape.prices, users.len(), collect, true);
    }

    fn payments(&self) -> &[f64] {
        &self.payments
    }

    /// Reconstruct one lane's held-offer list (menu order) from the last
    /// collect walk's adoption bitmap. Adopting an offer node drops
    /// every holding inside its subtree, so the final list is exactly
    /// the adopted nodes without an adopted ancestor. Scanning set bits
    /// highest-first visits ancestors before descendants (post-order ids
    /// grow rootward) and later trees before earlier ones; each emitted
    /// node masks off its whole subtree `[subtree_start[n], n]` in O(1)
    /// word ops, so what survives is the maximal adopted set. Emitted
    /// subtree intervals are pairwise disjoint and ids are tree-segment
    /// ordered, so one global reverse yields the row-walk's menu-order
    /// list.
    fn take_offers(&mut self, store: &MenuStore, lane: usize) -> Vec<u32> {
        let shape = &store.shape;
        let wpl = self.wpl;
        self.readout.copy_from_slice(&self.flag_words[lane * wpl..(lane + 1) * wpl]);
        let buf = &mut self.readout[..];
        let mut out = Vec::new();
        let mut wi = wpl;
        while wi > 0 {
            wi -= 1;
            while buf[wi] != 0 {
                let bit = 63 - buf[wi].leading_zeros() as usize;
                let n = wi * 64 + bit;
                out.push(n as u32);
                let s = shape.subtree_start[n] as usize;
                let sw = s >> 6;
                if sw == wi {
                    buf[wi] &= !((!0u64 << (s & 63)) & (!0u64 >> (63 - bit)));
                } else {
                    buf[wi] &= !(!0u64 >> (63 - bit));
                    for w in &mut buf[sw + 1..wi] {
                        *w = 0;
                    }
                    buf[sw] &= !(!0u64 << (s & 63));
                }
            }
        }
        out.reverse();
        out
    }
}

#[cfg(test)]
mod profiling {
    use super::*;
    use revmax_core::algorithms::MixedGreedy;
    use revmax_core::market::Market;
    use revmax_core::params::Params;
    use revmax_core::wtp::WtpMatrix;

    /// Scatter-vs-walk phase split on a bench-shaped market. Not a test of
    /// behavior — run on demand with
    /// `cargo test --release -p revmax-serve -- --ignored profile_tile --nocapture`.
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
        let outcome = revmax_core::algorithms::Configurator::run(&MixedGreedy::default(), &base);
        let market = Market::new(WtpMatrix::from_rows(gen_rows(n_users)), Params::default());
        let index = crate::MenuIndex::compile(&market, &outcome.config);
        let store = &index.store;
        println!("menu: {} nodes, {} roots", store.shape.prices.len(), store.shape.roots.len());
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
