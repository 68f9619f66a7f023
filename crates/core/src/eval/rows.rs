//! The row-at-a-time reference evaluator (`DESIGN.md` §12): one consumer
//! per pass — scatter their WTP row into a per-node accumulator, walk the
//! offer tables, reset. It is the oracle the tile kernel
//! ([`super::TileScratch`]) is bit-compared against by the proptests,
//! `serve_bench kernel=both` and the benchmark's kernel-parity check, and
//! it answers evaluations run with [`super::KernelKind::Rows`].
//!
//! The arithmetic mirrors the per-user tree walk of [`crate::mixed`]
//! operation for operation (see [`super`]'s module docs for why that
//! yields bit-identical results).

use super::{BlockEval, CompiledMenu};
use crate::config::Strategy;

/// One consumer's holdings while walking a mixed offer tree — the
/// single-user mirror of [`crate::mixed::UserState`].
#[derive(Debug, Clone, Copy)]
struct Hold {
    /// Raw Σ of item WTPs over held items.
    sum: f64,
    /// Amount paid.
    paid: f64,
    /// Number of held items.
    count: u32,
}

/// Reusable per-worker buffers of the row-walk: the per-node bundle-sum
/// accumulator, the touched-node reset list, the tree-walk state stack,
/// and the per-lane results of the last block.
pub(crate) struct RowScratch {
    acc: Vec<f64>,
    touched: Vec<u32>,
    stack: Vec<(Option<Hold>, Vec<u32>)>,
    payments: Vec<f64>,
    offers: Vec<Vec<u32>>,
}

impl RowScratch {
    /// Scratch for `store`, evaluating blocks of up to `width` users.
    pub(crate) fn new(store: &CompiledMenu, width: usize) -> Self {
        RowScratch {
            acc: vec![0.0; store.prices.len()],
            touched: Vec::new(),
            stack: Vec::new(),
            payments: vec![0.0; width],
            offers: vec![Vec::new(); width],
        }
    }

    /// Evaluate one consumer against the menu. Returns their expected
    /// payment and (when `collect` is set) the threshold-held offer node
    /// ids.
    fn eval_user(&mut self, store: &CompiledMenu, user: u32, collect: bool) -> (f64, Vec<u32>) {
        // Public entry points validate the batch up front (`validate_users`),
        // so the hot loop carries no per-user bounds branch in release builds.
        debug_assert!(
            (user as usize) < store.n_users,
            "user {user} out of range for a {}-consumer market",
            store.n_users
        );
        // Scatter the user's WTP row through the item→offer postings: each
        // touched node's bundle sum accumulates in ascending item order,
        // matching the solver's column scatter exactly.
        let row = store.wtp.row(user);
        for (i, w) in row.iter() {
            for &n in store.postings(i) {
                let slot = &mut self.acc[n as usize];
                if *slot == 0.0 {
                    self.touched.push(n);
                }
                *slot += w;
            }
        }

        let adoption = &store.adoption;
        let params = &store.params;
        let node_size = |n: u32| store.node_indptr[n as usize + 1] - store.node_indptr[n as usize];
        let mut payment = 0.0f64;
        let mut offers: Vec<u32> = Vec::new();
        match store.strategy {
            Strategy::Pure => {
                // Independent take-it-or-leave-it offers. The zero-sum skip
                // is bit-safe because the solver never sees zero-sum users
                // either: `bundle_user_sums` excludes them from an offer's
                // consumer list outright (crucial under a soft sigmoid, where
                // an *included* zero-WTP consumer would contribute a positive
                // probability, not 0.0), and a single-user view of an
                // uninterested consumer yields `price * 0.0 = +0.0`, which
                // `x + 0.0 = x` makes equivalent to skipping.
                for &root in &store.roots {
                    let s = self.acc[root as usize];
                    if s == 0.0 {
                        continue;
                    }
                    let price = store.prices[root as usize];
                    let w = params.set_wtp(s, node_size(root));
                    payment += price * adoption.probability(w, price);
                    if collect && adoption.margin(w, price) >= 0.0 {
                        offers.push(root);
                    }
                }
            }
            Strategy::Mixed => {
                // Bottom-up incremental-upgrade walk of each interested tree.
                // Post-order layout: one forward scan per subtree range, the
                // stack holding each node's (holdings, held-offer) state.
                for &root in &store.roots {
                    if self.acc[root as usize] == 0.0 {
                        continue; // no WTP on any item of this tree
                    }
                    debug_assert!(self.stack.is_empty());
                    for n in store.subtree_start[root as usize]..=root {
                        let k = store.n_children[n as usize] as usize;
                        let price = store.prices[n as usize];
                        let size = node_size(n);
                        let state = if k == 0 {
                            let s = self.acc[n as usize];
                            if s != 0.0 && adoption.margin(params.set_wtp(s, size), price) >= 0.0 {
                                let held = Hold { sum: s, paid: price, count: size as u32 };
                                (Some(held), if collect { vec![n] } else { Vec::new() })
                            } else {
                                (None, Vec::new())
                            }
                        } else {
                            // Combine the children's holdings in child order —
                            // the solver's left-to-right merge_states fold. With
                            // nothing held, `combined` stays the all-zero state.
                            let base = self.stack.len() - k;
                            let mut combined = Hold { sum: 0.0, paid: 0.0, count: 0 };
                            let mut any = false;
                            let mut held_offers: Vec<u32> = Vec::new();
                            for (h, v) in self.stack.drain(base..) {
                                if let Some(h) = h {
                                    combined.sum += h.sum;
                                    combined.paid += h.paid;
                                    combined.count += h.count;
                                    any = true;
                                    if collect {
                                        held_offers.extend(v);
                                    }
                                }
                            }
                            let s_b = self.acc[n as usize];
                            if s_b == 0.0 {
                                (None, Vec::new())
                            } else {
                                let addon_count = size.saturating_sub(combined.count as usize);
                                let addon_wtp = params
                                    .set_wtp((s_b - combined.sum).max(0.0), addon_count.max(1));
                                let margin = adoption.alpha * addon_wtp - (price - combined.paid)
                                    + adoption.epsilon;
                                if margin >= 0.0 {
                                    let held = Hold { sum: s_b, paid: price, count: size as u32 };
                                    (Some(held), if collect { vec![n] } else { Vec::new() })
                                } else if any {
                                    (Some(combined), held_offers)
                                } else {
                                    (None, Vec::new())
                                }
                            }
                        };
                        self.stack.push(state);
                    }
                    let (state, held_offers) = self.stack.pop().expect("root state");
                    if let Some(h) = state {
                        payment += h.paid;
                        if collect {
                            offers.extend(held_offers);
                        }
                    }
                }
            }
        }

        // Reset the accumulator for the next user.
        for &n in &self.touched {
            self.acc[n as usize] = 0.0;
        }
        self.touched.clear();
        (payment, offers)
    }
}

impl BlockEval for RowScratch {
    fn eval_block(&mut self, store: &CompiledMenu, users: &[u32], collect: bool) {
        for (lane, &u) in users.iter().enumerate() {
            (self.payments[lane], self.offers[lane]) = self.eval_user(store, u, collect);
        }
    }

    fn payments(&self) -> &[f64] {
        &self.payments
    }

    fn offers(&self, lane: usize) -> &[u32] {
        &self.offers[lane]
    }
}
