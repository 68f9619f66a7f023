//! Batched menu queries: per-user adoption assignment and expected
//! revenue, evaluated user-major against the compiled [`MenuIndex`].
//!
//! ## Semantics and determinism (`DESIGN.md` §9)
//!
//! Every query evaluates the §4.1 adoption model with §4.2's upgrade rule
//! through [`revmax_core::eval`], the one menu evaluator: the same
//! compiled menu, block loop, kernels and §6 fold
//! [`revmax_core::config::BundleConfig::expected_revenue`] runs. So a
//! whole-market query total equals the solver-side evaluation to the bit,
//! at any thread count, block width and kernel; each consumer's payment
//! equals core's per-user tree walk, the test oracle core's eval
//! proptests compare both kernels against bit for bit.
//!
//! ## One driver (`DESIGN.md` §9.3)
//!
//! Every batch method is validate → drive → ordered fold or flatten. The
//! driver ([`revmax_core::eval::CompiledMenu::drive`]) takes a user
//! source (an id batch, or the whole market with block ids generated on
//! the fly), cuts it into tasks of whole §6 chunks, fans them out with
//! one block evaluator per worker, and hands each block — which may
//! straddle chunk boundaries — to the method's sink with its chunk cut
//! points; the sink decides what a block contributes (payments,
//! assignments, per-chunk revenue folds, a marginal double walk).
//!
//! ## The answer table (`DESIGN.md` §11.6)
//!
//! A consumer's payment and held offers depend only on the menu and
//! their WTP row, so for a frozen index they can be computed once. The
//! daemon fills an `AnswerTable` with one kernel pass over every
//! consumer and answers `Assign` / `ExpectedRevenue` from it. The
//! public query methods never read it: they stay kernel evaluations, so
//! every benchmark and oracle built on them still measures the kernel.

use crate::index::MenuIndex;
pub use revmax_core::eval::chunked_payment_fold;
use revmax_core::eval::{fold_chunks, BlockEval, CompiledMenu, TileScratch, Users};
use std::sync::Arc;

/// A query rejected before evaluation. The serving daemon turns these
/// into protocol error responses; nothing in the query path panics on
/// malformed input (`DESIGN.md` §11).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueryError {
    /// A queried user id is not a consumer of the compiled market.
    UserOutOfRange {
        /// The first offending id of the batch.
        user: u32,
        /// Consumer count of the compiled market.
        n_users: usize,
    },
    /// A marginal-revenue query named an offer node the menu doesn't have.
    OfferOutOfRange {
        /// The offending offer node id.
        offer: u32,
        /// Offer node count of the compiled menu.
        n_nodes: usize,
    },
    /// A marginal-revenue perturbation would make the offer price
    /// non-finite or negative — outside the model's price domain.
    PerturbedPriceInvalid,
}

impl std::fmt::Display for QueryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            QueryError::UserOutOfRange { user, n_users } => {
                write!(f, "user {user} out of range for a {n_users}-consumer market")
            }
            QueryError::OfferOutOfRange { offer, n_nodes } => {
                write!(f, "offer {offer} out of range for a {n_nodes}-node menu")
            }
            QueryError::PerturbedPriceInvalid => {
                write!(f, "perturbed offer price must be finite and non-negative")
            }
        }
    }
}

impl std::error::Error for QueryError {}

/// Expected revenue of the menu with one offer's price perturbed, next
/// to the unperturbed baseline — the marginal-analysis view of a price
/// move ("A Tale of Two Monopolies"): `delta / dprice` approximates
/// ∂R/∂p at the offer. Computed by [`MenuIndex::try_marginal_revenue`]
/// from a single WTP scatter per user block (the tile is walked twice,
/// once per price table), so `perturbed` is bit-identical to recompiling
/// the menu at the perturbed price and `base` to
/// [`MenuIndex::try_expected_revenue`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MarginalRevenue {
    /// Expected revenue at the compiled prices.
    pub base: f64,
    /// Expected revenue with the offer's price moved by `dprice`.
    pub perturbed: f64,
    /// `perturbed - base`.
    pub delta: f64,
}

/// One consumer's menu outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct Assignment {
    /// The queried consumer.
    pub user: u32,
    /// Expected payment across the menu (exact in the step regime; the
    /// expectation for pure / modal outcome for mixed under a sigmoid).
    pub payment: f64,
    /// Offer node ids held under the threshold (modal) outcome, in menu
    /// order. Resolve them via the compiled menu's
    /// [`CompiledMenu::items`] / [`CompiledMenu::prices`].
    pub offers: Vec<u32>,
}

/// Every consumer's answer under one compiled menu: the kernel's own
/// per-lane outputs of one pass over `0..n_users`, stored flat. Consumer
/// `u` pays `payments[u]` and holds `offers[offer_ptr[u]..offer_ptr[u +
/// 1]]`, in menu order — 16 bytes per consumer plus 4 per held offer.
/// Lane bits do not depend on block composition or width (§12.1), so a
/// row is exactly what `try_assign(&[u])` returns.
#[derive(Debug, Default)]
pub(crate) struct AnswerTable {
    payments: Vec<f64>,
    offer_ptr: Vec<usize>,
    offers: Vec<u32>,
}

impl AnswerTable {
    /// Consumer `user`'s row as an [`Assignment`].
    fn assignment(&self, user: u32) -> Assignment {
        let u = user as usize;
        let offers = self.offers[self.offer_ptr[u]..self.offer_ptr[u + 1]].to_vec();
        Assignment { user, payment: self.payments[u], offers }
    }
}

impl MenuIndex {
    /// Reject any queried id that is not a consumer of the compiled
    /// market, naming the first offender. The scan is separate from the
    /// evaluation loops (which stay branch-free for valid batches): a
    /// single branch-free max-fold over the batch, and only on failure a
    /// second pass to find the first offending id for the error.
    pub fn validate_users(&self, users: &[u32]) -> Result<(), QueryError> {
        let n_users = self.n_users();
        let max = users.iter().copied().fold(0u32, u32::max);
        if users.is_empty() || (max as usize) < n_users {
            return Ok(());
        }
        let user = users.iter().copied().find(|&u| u as usize >= n_users).unwrap_or(max);
        Err(QueryError::UserOutOfRange { user, n_users })
    }

    /// Batched assignment: for every queried user, which menu entries they
    /// adopt (threshold outcome) and their expected payment. Users are
    /// evaluated independently over fixed-size blocks
    /// ([`revmax_par::effective_chunk_size`]) fanned out on `revmax-par`;
    /// results are returned in query order and are bit-identical at any
    /// thread count. Out-of-range ids are rejected up front as a typed
    /// [`QueryError`] — a malformed batch never panics the serving path.
    pub fn try_assign(&self, users: &[u32]) -> Result<Vec<Assignment>, QueryError> {
        self.validate_users(users)?;
        Ok(self.assignments(Users::Ids(users)))
    }

    /// [`MenuIndex::try_assign`], panicking on an invalid batch. Prefer
    /// the fallible variant anywhere input is not trusted.
    pub fn assign(&self, users: &[u32]) -> Vec<Assignment> {
        self.try_assign(users).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Per-user expected payments of the queried users, in query order —
    /// [`MenuIndex::try_assign`] without materializing the held-offer
    /// lists. `try_expected_revenue(users)` is exactly
    /// [`chunked_payment_fold`] over this vector; the daemon's
    /// answer-table revenue path relies on that identity (`DESIGN.md`
    /// §11.6).
    pub fn try_payments(&self, users: &[u32]) -> Result<Vec<f64>, QueryError> {
        self.validate_users(users)?;
        let parts =
            self.query_blocks(Users::Ids(users), |store, eval, blk, _, out: &mut Vec<f64>| {
                eval.eval_block(store, blk, false);
                out.extend_from_slice(&eval.payments()[..blk.len()]);
            });
        Ok(parts.concat())
    }

    /// Batched expected revenue of the menu over the queried users: the
    /// fixed-chunk ordered fold of the per-user expected payments (each
    /// bit-identical to solver-side evaluation of that single consumer).
    /// Bit-identical at any thread count (`DESIGN.md` §6/§9); rejects
    /// out-of-range ids as a typed [`QueryError`] instead of panicking.
    pub fn try_expected_revenue(&self, users: &[u32]) -> Result<f64, QueryError> {
        self.validate_users(users)?;
        Ok(self.revenue(Users::Ids(users)))
    }

    /// [`MenuIndex::try_expected_revenue`], panicking on an invalid
    /// batch. Prefer the fallible variant anywhere input is not trusted.
    pub fn expected_revenue(&self, users: &[u32]) -> f64 {
        self.try_expected_revenue(users).unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`MenuIndex::expected_revenue`] over every consumer of the
    /// compiled market — the daemon's hottest whole-market path. No id
    /// batch is materialized (block ids are generated per worker), and the
    /// chunk boundaries and fold are those of `expected_revenue` over the
    /// `0..n_users` batch, so the result matches it bit for bit.
    pub fn expected_revenue_all(&self) -> f64 {
        self.revenue(Users::All(self.n_users()))
    }

    /// [`MenuIndex::assign`] over every consumer of the compiled market,
    /// without materializing the id batch (same boundary/fold identity as
    /// [`MenuIndex::expected_revenue_all`]).
    pub fn assign_all(&self) -> Vec<Assignment> {
        self.assignments(Users::All(self.n_users()))
    }

    /// Marginal revenue of moving offer node `offer`'s price by `dprice`,
    /// over the queried users: one tile scatter per user block, two walks
    /// (compiled and perturbed price tables). `base` is bit-identical to
    /// [`MenuIndex::try_expected_revenue`] on the same batch, `perturbed`
    /// to recompiling the menu with the single price changed and querying
    /// that — so `delta` is an *exact* finite difference, not an estimate.
    /// Always evaluated by the tile kernel (the perturbation reuses its
    /// retained surplus state); the kernel knob only affects which kernel
    /// answers the ordinary query paths, whose bits agree anyway.
    pub fn try_marginal_revenue(
        &self,
        offer: u32,
        dprice: f64,
        users: &[u32],
    ) -> Result<MarginalRevenue, QueryError> {
        self.validate_users(users)?;
        self.marginal(offer, dprice, Users::Ids(users))
    }

    /// [`MenuIndex::try_marginal_revenue`] over every consumer of the
    /// compiled market, without materializing the id batch (same §6 chunk
    /// boundaries and ordered fold as
    /// [`MenuIndex::expected_revenue_all`], so `base` matches its bits).
    pub fn try_marginal_revenue_all(
        &self,
        offer: u32,
        dprice: f64,
    ) -> Result<MarginalRevenue, QueryError> {
        self.marginal(offer, dprice, Users::All(self.n_users()))
    }

    /// This index with its [`AnswerTable`] filled — the daemon's serving
    /// index. The table costs one kernel pass; the public query methods
    /// ignore it.
    pub(crate) fn with_answer_table(mut self) -> MenuIndex {
        self.answers = Some(Arc::new(self.answer_table()));
        self
    }

    /// One collect pass over every consumer. Each task's partial keeps its
    /// rows' offer ends relative to its own `offers`; the partials are
    /// then stitched in task order, which is consumer order.
    fn answer_table(&self) -> AnswerTable {
        let n = self.n_users();
        let parts =
            self.query_blocks(Users::All(n), |store, eval, blk, _, part: &mut AnswerTable| {
                eval.eval_block(store, blk, true);
                part.payments.extend_from_slice(&eval.payments()[..blk.len()]);
                for lane in 0..blk.len() {
                    part.offers.extend_from_slice(eval.offers(lane));
                    part.offer_ptr.push(part.offers.len());
                }
            });
        let mut table = AnswerTable {
            payments: Vec::with_capacity(n),
            offer_ptr: Vec::with_capacity(n + 1),
            offers: Vec::with_capacity(parts.iter().map(|p| p.offers.len()).sum()),
        };
        table.offer_ptr.push(0);
        for part in parts {
            let base = table.offers.len();
            table.offer_ptr.extend(part.offer_ptr.iter().map(|&end| base + end));
            table.payments.extend(part.payments);
            table.offers.extend(part.offers);
        }
        table
    }

    /// The daemon's `Assign`: `ids`, or every consumer for `None`. Read
    /// from the answer table when the index carries one, else evaluated —
    /// the same bits either way.
    pub(crate) fn serve_assign(&self, ids: Option<&[u32]>) -> Result<Vec<Assignment>, QueryError> {
        let Some(table) = self.answers.as_deref() else {
            return match ids {
                Some(ids) => self.try_assign(ids),
                None => Ok(self.assign_all()),
            };
        };
        Ok(match ids {
            Some(ids) => {
                self.validate_users(ids)?;
                ids.iter().map(|&u| table.assignment(u)).collect()
            }
            None => (0..self.n_users() as u32).map(|u| table.assignment(u)).collect(),
        })
    }

    /// The daemon's `ExpectedRevenue`, like [`MenuIndex::serve_assign`]:
    /// a table read folds the gathered payments with
    /// [`chunked_payment_fold`], the reduction `try_expected_revenue` and
    /// `expected_revenue_all` apply to the same payments.
    pub(crate) fn serve_revenue(&self, ids: Option<&[u32]>) -> Result<f64, QueryError> {
        let Some(table) = self.answers.as_deref() else {
            return match ids {
                Some(ids) => self.try_expected_revenue(ids),
                None => Ok(self.expected_revenue_all()),
            };
        };
        Ok(match ids {
            Some(ids) => {
                self.validate_users(ids)?;
                let payments: Vec<f64> = ids.iter().map(|&u| table.payments[u as usize]).collect();
                chunked_payment_fold(&payments)
            }
            None => chunked_payment_fold(&table.payments),
        })
    }

    /// Assignments of a validated source, in source order.
    fn assignments(&self, users: Users<'_>) -> Vec<Assignment> {
        let parts = self.query_blocks(users, |store, eval, blk, _, out: &mut Vec<_>| {
            eval.eval_block(store, blk, true);
            for (lane, &user) in blk.iter().enumerate() {
                let offers = eval.offers(lane).to_vec();
                out.push(Assignment { user, payment: eval.payments()[lane], offers });
            }
        });
        let mut out = Vec::with_capacity(parts.iter().map(Vec::len).sum());
        for part in parts {
            out.extend(part);
        }
        out
    }

    /// Expected revenue of a validated source: [`CompiledMenu::revenue`]
    /// with this index's threads, block width and kernel.
    fn revenue(&self, users: Users<'_>) -> f64 {
        self.store.revenue(self.threads, self.block(), self.kernel, users)
    }

    /// Marginal revenue over a validated source. The sink always uses the
    /// tile evaluator: per block it scatters once, walks the compiled
    /// prices keeping the tile, then walks the perturbed table consuming
    /// it. Both totals fold exactly as [`CompiledMenu::revenue`] does,
    /// each into its own list of chunk partials.
    fn marginal(
        &self,
        offer: u32,
        dprice: f64,
        users: Users<'_>,
    ) -> Result<MarginalRevenue, QueryError> {
        let perturbed = self.perturbed_prices(offer, dprice)?;
        let parts = self.store.drive(
            self.threads,
            self.block(),
            users,
            TileScratch::new,
            |store, tile, blk, cuts, (base, pert): &mut (Vec<f64>, Vec<f64>)| {
                let b = blk.len();
                tile.scatter_block(store, blk);
                tile.walk_block(store, store.prices(), b, false, false);
                fold_chunks(base, &tile.payments()[..b], cuts);
                tile.walk_block(store, &perturbed, b, false, true);
                fold_chunks(pert, &tile.payments()[..b], cuts);
            },
        );
        let base = parts.iter().flat_map(|p| &p.0).fold(0.0f64, |a, &s| a + s);
        let perturbed = parts.iter().flat_map(|p| &p.1).fold(0.0f64, |a, &s| a + s);
        Ok(MarginalRevenue { base, perturbed, delta: perturbed - base })
    }

    /// [`CompiledMenu::drive`] with this index's threads, block width and
    /// kernel — the one place the query path dispatches on the kernel.
    fn query_blocks<P: Default + Send>(
        &self,
        users: Users<'_>,
        sink: impl Fn(&CompiledMenu, &mut Box<dyn BlockEval>, &[u32], &[usize], &mut P) + Sync,
    ) -> Vec<P> {
        let kernel = self.kernel;
        let make = move |store: &CompiledMenu, width| kernel.evaluator(store, width);
        self.store.drive(self.threads, self.block(), users, make, sink)
    }

    /// The perturbed price table of a marginal-revenue query, or the
    /// typed error when the offer id or resulting price is out of domain.
    fn perturbed_prices(&self, offer: u32, dprice: f64) -> Result<Vec<f64>, QueryError> {
        let n_nodes = self.n_nodes();
        if offer as usize >= n_nodes {
            return Err(QueryError::OfferOutOfRange { offer, n_nodes });
        }
        let moved = self.prices()[offer as usize] + dprice;
        if !(moved.is_finite() && moved >= 0.0) {
            return Err(QueryError::PerturbedPriceInvalid);
        }
        let mut prices = self.prices().to_vec();
        prices[offer as usize] = moved;
        Ok(prices)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use revmax_core::bundle::Bundle;
    use revmax_core::config::{BundleConfig, OfferNode, Strategy};
    use revmax_core::market::Market;
    use revmax_core::params::Params;
    use revmax_core::wtp::WtpMatrix;

    fn table1() -> Market {
        let w = WtpMatrix::from_rows(vec![vec![12.0, 4.0], vec![8.0, 2.0], vec![5.0, 11.0]]);
        Market::new(w, Params::default().with_theta(-0.05))
    }

    fn components() -> BundleConfig {
        BundleConfig {
            strategy: Strategy::Pure,
            roots: vec![
                OfferNode::leaf(Bundle::single(0), 8.0),
                OfferNode::leaf(Bundle::single(1), 11.0),
            ],
        }
    }

    fn mixed_tree() -> BundleConfig {
        // Table 1's §4.2 mixed menu: components at $8/$11, bundle at $12.
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
    fn pure_assignments_match_table1() {
        let m = table1();
        let idx = MenuIndex::compile(&m, &components());
        let assignments = idx.assign(&idx.all_users());
        // u1 and u2 buy A at $8; u3 buys B at $11 (Table 1, Components).
        assert_eq!(assignments.len(), 3);
        assert_eq!(assignments[0].offers, vec![0]);
        assert!((assignments[0].payment - 8.0).abs() < 1e-12);
        assert_eq!(assignments[1].offers, vec![0]);
        assert!((assignments[1].payment - 8.0).abs() < 1e-12);
        assert_eq!(assignments[2].offers, vec![1]);
        assert!((assignments[2].payment - 11.0).abs() < 1e-12);
        assert!((idx.expected_revenue_all() - 27.0).abs() < 1e-9);
    }

    #[test]
    fn mixed_assignments_follow_the_upgrade_policy() {
        let m = table1();
        let idx = MenuIndex::compile(&m, &mixed_tree());
        let a = idx.assign(&idx.all_users());
        // u1: holds A ($8), add-on B worth 4 ≥ implicit price 4 → upgrades
        // to the $12 bundle. u2: holds A, add-on worth 2 < 4 → stays at $8.
        // u3: holds B ($11), add-on A worth 5 ≥ implicit price 1 → upgrades.
        assert_eq!(a[0].offers, vec![2]);
        assert!((a[0].payment - 12.0).abs() < 1e-12);
        assert_eq!(a[1].offers, vec![0]);
        assert!((a[1].payment - 8.0).abs() < 1e-12);
        assert_eq!(a[2].offers, vec![2]);
        assert!((a[2].payment - 12.0).abs() < 1e-12);
        // Σ = 32, the §4.2 mixed revenue of Table 1.
        assert!((idx.expected_revenue_all() - 32.0).abs() < 1e-9);
    }

    #[test]
    fn per_user_payments_equal_solver_side_evaluation_bitwise() {
        let m = table1();
        for config in [components(), mixed_tree()] {
            let idx = MenuIndex::compile(&m, &config);
            for u in 0..3u32 {
                let serve = idx.assign(&[u])[0].payment;
                let solver = config.expected_revenue(&m.view(&[u]));
                assert_eq!(serve.to_bits(), solver.to_bits(), "user {u}");
            }
            // One evaluator: the whole-batch total is the solver's
            // whole-market menu evaluation, to the bit.
            let total = idx.expected_revenue_all();
            assert_eq!(total.to_bits(), config.expected_revenue(&m).to_bits());
        }
    }

    #[test]
    fn batched_revenue_is_bit_identical_at_any_thread_count() {
        let m = table1();
        let idx = MenuIndex::compile(&m, &mixed_tree());
        let users = idx.all_users();
        let base = idx.clone().with_threads(1).expected_revenue(&users);
        for threads in [2, 3, 8] {
            let t = idx.clone().with_threads(threads);
            assert_eq!(t.expected_revenue(&users).to_bits(), base.to_bits(), "threads={threads}");
            assert_eq!(t.assign(&users), idx.clone().with_threads(1).assign(&users));
        }
    }

    #[test]
    fn uninterested_and_repeated_users_are_fine() {
        let w = WtpMatrix::from_triples(4, 2, vec![(0, 0, 9.0), (2, 1, 6.0)], None);
        let m = Market::new(w, Params::default());
        let idx = MenuIndex::compile(&m, &components());
        // Users 1 and 3 rated nothing: zero payment, no offers.
        let a = idx.assign(&[1, 3]);
        assert!(a.iter().all(|x| x.payment == 0.0 && x.offers.is_empty()));
        // Batches may repeat users; each occurrence is evaluated afresh.
        let r = idx.expected_revenue(&[0, 0, 2]);
        let one = idx.expected_revenue(&[0]);
        assert!((r - (2.0 * one + idx.expected_revenue(&[2]))).abs() < 1e-9);
        assert_eq!(idx.expected_revenue(&[]), 0.0);
        assert!(idx.assign(&[]).is_empty());
    }

    #[test]
    fn sigmoid_pure_payments_are_expectations() {
        let w = WtpMatrix::from_rows(vec![vec![10.0, 0.0], vec![0.0, 10.0]]);
        let m = Market::new(w, Params::default().with_gamma(1.0));
        let config = BundleConfig {
            strategy: Strategy::Pure,
            roots: vec![
                OfferNode::leaf(Bundle::single(0), 10.0),
                OfferNode::leaf(Bundle::single(1), 5.0),
            ],
        };
        let idx = MenuIndex::compile(&m, &config);
        let a = idx.assign(&idx.all_users());
        // u0 at p = w = 10: P ≈ 0.5 (ε nudges it just above) → expected
        // payment ≈ 5; still a modal adopter.
        assert!((a[0].payment - 5.0).abs() < 0.01);
        assert_eq!(a[0].offers, vec![0]);
        // u1 at p 5 < w 10: P ≈ 0.993 → expected payment ≈ 4.97.
        assert!(a[1].payment < 5.0 && a[1].payment > 4.9);
        for u in 0..2u32 {
            let solver = config.expected_revenue(&m.view(&[u]));
            assert_eq!(idx.assign(&[u])[0].payment.to_bits(), solver.to_bits());
        }
    }

    #[test]
    fn deep_tree_evaluates_bottom_up() {
        // The ((A,B),C) case-study shape from core's config tests.
        let w = WtpMatrix::from_rows(vec![vec![10.0, 10.0, 2.0], vec![1.0, 1.0, 9.0]]);
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
        let config = BundleConfig { strategy: Strategy::Mixed, roots: vec![tree] };
        let idx = MenuIndex::compile(&m, &config);
        let a = idx.assign(&idx.all_users());
        // u0 consolidates {A,B} then upgrades to the triple at $11;
        // u1 stays on C at $7 (see config.rs::three_level_mixed_tree...).
        assert!((a[0].payment - 11.0).abs() < 1e-9);
        assert_eq!(a[0].offers, vec![idx.roots()[0]]);
        assert!((a[1].payment - 7.0).abs() < 1e-9);
        assert_eq!(a[1].offers.len(), 1);
        assert_eq!(idx.items(a[1].offers[0]), &[2]);
        assert!((idx.expected_revenue_all() - 18.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "user 9 out of range")]
    fn out_of_range_user_is_rejected() {
        let idx = MenuIndex::compile(&table1(), &components());
        idx.expected_revenue(&[9]);
    }

    #[test]
    fn out_of_range_user_is_a_typed_error_not_a_panic() {
        let idx = MenuIndex::compile(&table1(), &components());
        // The daemon's edge: a malformed batch must come back as a value.
        let err = idx.try_assign(&[0, 2, 9, 11]).unwrap_err();
        assert_eq!(err, QueryError::UserOutOfRange { user: 9, n_users: 3 });
        assert_eq!(err.to_string(), "user 9 out of range for a 3-consumer market");
        assert_eq!(
            idx.try_expected_revenue(&[3]),
            Err(QueryError::UserOutOfRange { user: 3, n_users: 3 })
        );
        assert_eq!(
            idx.try_payments(&[u32::MAX]).unwrap_err(),
            QueryError::UserOutOfRange { user: u32::MAX, n_users: 3 }
        );
        // Valid batches (including empty) still pass.
        assert!(idx.validate_users(&[]).is_ok());
        assert!(idx.validate_users(&[2, 0, 1]).is_ok());
        assert_eq!(idx.try_expected_revenue(&[0]).unwrap(), idx.expected_revenue(&[0]));
    }

    #[test]
    fn whole_market_paths_skip_the_id_batch_but_keep_the_bits() {
        let m = table1();
        for config in [components(), mixed_tree()] {
            let idx = MenuIndex::compile(&m, &config);
            let users = idx.all_users();
            assert_eq!(
                idx.expected_revenue_all().to_bits(),
                idx.expected_revenue(&users).to_bits()
            );
            assert_eq!(idx.assign_all(), idx.assign(&users));
            assert_eq!(
                idx.try_marginal_revenue_all(0, 0.5).unwrap(),
                idx.try_marginal_revenue(0, 0.5, &users).unwrap()
            );
        }
        // Degenerate: a zero-consumer market serves zero revenue.
        let empty = Market::new(
            revmax_core::wtp::WtpMatrix::from_triples(0, 2, vec![], None),
            Params::default(),
        );
        let idx = MenuIndex::compile(&empty, &components());
        assert_eq!(idx.expected_revenue_all(), 0.0);
        assert!(idx.assign_all().is_empty());
        assert!(idx.try_payments(&idx.all_users()).unwrap().is_empty());
        let zero = MarginalRevenue { base: 0.0, perturbed: 0.0, delta: 0.0 };
        assert_eq!(idx.try_marginal_revenue_all(0, 0.5).unwrap(), zero);
    }

    /// Bit-compare two assignment lists (payments by their bits).
    fn same_assignments(got: &[Assignment], want: &[Assignment]) -> bool {
        got.len() == want.len()
            && got.iter().zip(want).all(|(g, w)| {
                g.user == w.user
                    && g.payment.to_bits() == w.payment.to_bits()
                    && g.offers == w.offers
            })
    }

    #[test]
    fn public_queries_never_read_the_answer_table() {
        let m = table1();
        for config in [components(), mixed_tree()] {
            let plain = MenuIndex::compile(&m, &config);
            assert!(plain.answers.is_none(), "compile leaves the table empty");
            let served = plain.clone().with_answer_table();
            assert!(same_assignments(&served.serve_assign(None).unwrap(), &plain.assign_all()));
            // A bad id is the same typed error on the table path.
            let oor = QueryError::UserOutOfRange { user: 3, n_users: 3 };
            assert_eq!(served.serve_assign(Some(&[0, 3])), Err(oor));
            assert_eq!(served.serve_revenue(Some(&[3])), Err(oor));

            // Swap in a table of wrong answers: the daemon's reads show
            // it, every public query still answers from the kernel.
            let mut poisoned = served.clone();
            poisoned.answers = Some(Arc::new(AnswerTable {
                payments: vec![-1.0; 3],
                offer_ptr: vec![0; 4],
                offers: Vec::new(),
            }));
            assert_eq!(poisoned.serve_revenue(None), Ok(-3.0));
            let users = plain.all_users();
            assert!(same_assignments(&poisoned.assign_all(), &plain.assign_all()));
            assert!(same_assignments(&poisoned.assign(&users), &plain.assign(&users)));
            assert_eq!(
                poisoned.expected_revenue_all().to_bits(),
                plain.expected_revenue_all().to_bits()
            );
            assert_eq!(
                poisoned.expected_revenue(&users).to_bits(),
                plain.expected_revenue(&users).to_bits()
            );
            assert_eq!(poisoned.try_payments(&users), plain.try_payments(&users));
            assert_eq!(
                poisoned.try_marginal_revenue_all(0, 0.5),
                plain.try_marginal_revenue_all(0, 0.5)
            );
        }
    }

    #[test]
    fn an_index_without_a_table_serves_from_the_kernel() {
        let idx = MenuIndex::compile(&table1(), &mixed_tree());
        let ids = [2, 0, 2];
        assert!(same_assignments(&idx.serve_assign(Some(&ids)).unwrap(), &idx.assign(&ids)));
        assert_eq!(idx.serve_revenue(Some(&ids)), idx.try_expected_revenue(&ids));
        assert_eq!(idx.serve_revenue(None), Ok(idx.expected_revenue_all()));
        assert!(same_assignments(&idx.serve_assign(None).unwrap(), &idx.assign_all()));
    }

    /// A random dense WTP matrix with at least one rating (entries 0 with
    /// ~3/8 probability), 2–89 consumers × 1–6 items: past 64 consumers
    /// the §6 chunks of `All` hold more than one payment.
    fn arb_rows() -> impl proptest::strategy::Strategy<Value = Vec<Vec<f64>>> {
        use proptest::prelude::*;
        fn cell() -> impl Strategy<Value = f64> {
            (0u32..80).prop_map(|raw| if raw < 30 { 0.0 } else { raw as f64 * 0.25 })
        }
        (2usize..90, 1usize..7)
            .prop_flat_map(|(m, n)| {
                proptest::collection::vec(proptest::collection::vec(cell(), n), m)
            })
            .prop_filter("a menu needs a rating", |rows| rows.iter().flatten().any(|&w| w != 0.0))
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(48))]

        /// The answer table ≡ the kernel: every row is `try_assign(&[u])`,
        /// and table answers to id batches (repeats, any order, empty; past
        /// 64 ids a §6 chunk folds several payments) and to `All` carry the
        /// kernel's bits, for pure and mixed solver menus at θ ∈ {0,
        /// ±0.05}, step and sigmoid γ, filled at 1 or 4 threads and any
        /// block width.
        #[test]
        fn answer_table_is_bit_identical_to_the_kernel(
            rows in arb_rows(),
            theta in 0usize..3,
            sigmoid in 0u8..2,
            threads in 0usize..2,
            block in 0usize..4,
            batches in proptest::collection::vec(proptest::collection::vec(0u32..1000, 0..200), 1..4),
        ) {
            use revmax_core::params::Threads;
            let theta = [0.0, 0.05, -0.05][theta];
            let gamma = if sigmoid == 1 { 1.5 } else { 1e6 };
            let (threads, block) = ([1, 4][threads], [1, 3, 16, 0][block]);
            let params = Params::default()
                .with_theta(theta)
                .with_gamma(gamma)
                .with_threads(Threads::Fixed(1));
            let market = Market::new(WtpMatrix::from_rows(rows), params);
            let n = market.n_users() as u32;
            for method in ["Components", "Pure Greedy", "Mixed Greedy"] {
                let config = revmax_core::algorithms::by_name(method).unwrap().run(&market).config;
                let kernel = MenuIndex::compile(&market, &config).with_threads(1);
                let served =
                    kernel.clone().with_threads(threads).with_block(block).with_answer_table();
                let table = served.answers.as_deref().expect("filled");
                for u in 0..n {
                    proptest::prop_assert!(
                        same_assignments(&[table.assignment(u)], &kernel.try_assign(&[u]).unwrap()),
                        "{}: row {} differs from try_assign", method, u
                    );
                }
                let all = served.serve_assign(None).unwrap();
                proptest::prop_assert!(same_assignments(&all, &kernel.assign_all()), "{}", method);
                proptest::prop_assert_eq!(
                    served.serve_revenue(None).unwrap().to_bits(),
                    kernel.expected_revenue_all().to_bits()
                );
                for ids in batches.iter().map(|b| b.iter().map(|&u| u % n).collect::<Vec<_>>())
                    .chain([Vec::new()])
                {
                    let got = served.serve_assign(Some(&ids)).unwrap();
                    proptest::prop_assert!(
                        same_assignments(&got, &kernel.try_assign(&ids).unwrap()),
                        "{}: batch {:?}", method, ids
                    );
                    proptest::prop_assert_eq!(
                        served.serve_revenue(Some(&ids)).unwrap().to_bits(),
                        kernel.try_expected_revenue(&ids).unwrap().to_bits(),
                        "{}: batch {:?}", method, ids
                    );
                }
            }
        }
    }

    #[test]
    fn payment_fold_reproduces_expected_revenue_bitwise() {
        let w = WtpMatrix::from_rows(
            (0..257).map(|k| vec![(k % 13) as f64 + 0.25, (k % 7) as f64 * 0.5]).collect(),
        );
        let m = Market::new(w, Params::default().with_gamma(1.5));
        let idx = MenuIndex::compile(&m, &mixed_tree());
        let users = idx.all_users();
        let payments = idx.try_payments(&users).unwrap();
        assert_eq!(payments.len(), users.len());
        assert_eq!(
            chunked_payment_fold(&payments).to_bits(),
            idx.expected_revenue(&users).to_bits()
        );
        // Sub-batch identity: any batch's revenue folds from its own slice
        // of per-user payments, however those were computed.
        let sub = &users[19..193];
        let sub_payments = &payments[19..193];
        assert_eq!(
            chunked_payment_fold(sub_payments).to_bits(),
            idx.expected_revenue(sub).to_bits()
        );
        assert_eq!(chunked_payment_fold(&[]), 0.0);
    }
}
