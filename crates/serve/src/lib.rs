//! # revmax-serve — the batched menu-serving layer
//!
//! The solvers end at a priced bundle *menu*; production starts at the
//! question "given this consumer, which menu entry do they adopt and at
//! what expected revenue?" asked millions of times. This crate answers it
//! (`DESIGN.md` §9) on top of core's one menu evaluator,
//! [`revmax_core::eval`]:
//!
//! * [`MenuIndex`] — an `Arc`-shared **compiled menu**
//!   ([`CompiledMenu`](revmax_core::eval::CompiledMenu): the solved
//!   [`BundleConfig`](revmax_core::config::BundleConfig) flattened into
//!   structure-of-arrays node tables plus per-item → offer postings, next
//!   to the market's `Arc`-shared dual-CSR WTP arena) with the query
//!   settings — worker threads, kernel, block width — and, on the
//!   daemon's serving index, an answer table.
//! * [`MenuIndex::assign`] / [`MenuIndex::expected_revenue`] — batched
//!   queries evaluating the §4.1 adoption model (step and sigmoid γ)
//!   user-major from [`SparseSlice`](revmax_core::wtp::SparseSlice) rows,
//!   fanned out on [`revmax_par`] under the §6 determinism contract:
//!   fixed chunks, ordered reduction, **bit-identical at any thread
//!   count**. A whole-market total is the solver-side
//!   `BundleConfig::expected_revenue` to the bit (the same evaluator), and
//!   each consumer's payment equals core's per-user tree walk, the test
//!   oracle of core's eval proptests.
//! * [`ServeHandle`] — the churn path (`DESIGN.md` §10): compile the
//!   re-solved menu against the churned market and hot-swap it under
//!   live traffic without tearing in-flight query batches.
//! * [`compile_sweep_cell`] — one call from any sweep cell of a
//!   [`SweepReport`] (whole-market or
//!   cohort) to a servable index: the engine rebuilds the cell's exact
//!   (fingerprint-checked) market and the winning configuration compiles
//!   against it.
//!
//! ```
//! use revmax_core::prelude::*;
//! use revmax_serve::MenuIndex;
//!
//! // Solve Table 1's market, then serve the menu.
//! let w = WtpMatrix::from_rows(vec![
//!     vec![12.0, 4.0],
//!     vec![8.0, 2.0],
//!     vec![5.0, 11.0],
//! ]);
//! let market = Market::new(w, Params::default().with_theta(-0.05));
//! let solved = MixedMatching::default().run(&market);
//!
//! let index = MenuIndex::compile(&market, &solved.config);
//! let assignments = index.assign(&index.all_users());
//! assert_eq!(assignments.len(), 3);
//! let revenue = index.expected_revenue_all();
//! assert!((revenue - solved.revenue).abs() < 1e-9);
//! assert_eq!(revenue.to_bits(), solved.config.expected_revenue(&market).to_bits());
//! ```

pub mod daemon;
pub mod index;
pub mod proto;
pub mod query;
pub mod swap;

/// The block evaluators, re-exported from [`revmax_core::eval`], where
/// they moved with the rest of the menu evaluator.
pub mod kernel {
    pub use revmax_core::eval::{KernelKind, DEFAULT_BLOCK, LANES};
}

pub use daemon::{Daemon, DaemonConfig, LatencyHistogram};
pub use index::MenuIndex;
pub use kernel::{KernelKind, DEFAULT_BLOCK};
pub use proto::{DaemonStats, ErrorCode, ProtoError, Request, Response, UserSel};
pub use query::{chunked_payment_fold, Assignment, MarginalRevenue, QueryError};
pub use swap::ServeHandle;

use revmax_core::market::Market;
use revmax_engine::report::SweepReport;
use revmax_engine::spec::SweepSpec;

/// Compile one sweep cell's winning configuration into a servable
/// [`MenuIndex`], in one call: the engine regenerates the cell's dataset
/// and (sub-)market — verifying the rebuilt market's content fingerprint
/// against the one recorded in the cell — and the cell's solved
/// configuration compiles against it. Returns the rebuilt market too, so
/// callers can keep solving / inspecting it.
///
/// `spec` must be the spec the report was produced from (the cohort
/// partitioning is a function of its `cohorts` knob).
pub fn compile_sweep_cell(
    spec: &SweepSpec,
    report: &SweepReport,
    cell: usize,
) -> Result<(Market, MenuIndex), String> {
    let cell = report
        .cells
        .get(cell)
        .ok_or_else(|| format!("cell {cell} out of range ({} cells)", report.cells.len()))?;
    let market = revmax_engine::rebuild_cell_market(spec, cell)?;
    let index = MenuIndex::compile(&market, &cell.config);
    Ok((market, index))
}

#[cfg(test)]
mod tests {
    use super::*;
    use revmax_engine::{run_sweep, Cohort};

    #[test]
    fn sweep_cell_compiles_into_a_servable_index() {
        let mut spec = SweepSpec::default();
        spec.apply("methods", "components,mixed_greedy").unwrap();
        spec.apply("scales", "tiny").unwrap();
        spec.apply("cohorts", "2").unwrap();
        spec.apply("threads", "1").unwrap();
        let report = run_sweep(&spec).unwrap();

        // Every cell — whole-market and cohorts alike — round-trips into
        // an index whose batched revenue matches the cell's solve.
        for (k, cell) in report.cells.iter().enumerate() {
            let (market, index) = compile_sweep_cell(&spec, &report, k).unwrap();
            assert_eq!(market.fingerprint(), cell.fingerprint);
            assert_eq!(index.n_users(), cell.n_users);
            assert_eq!(index.n_items(), cell.n_items);
            let served = index.expected_revenue_all();
            assert!(
                (served - cell.revenue).abs() <= 1e-9 * cell.revenue.abs().max(1.0),
                "cell {k} ({} {}): served {served} vs solved {}",
                cell.method,
                cell.cohort,
                cell.revenue
            );
        }
        assert!(report.cells.iter().any(|c| c.cohort != Cohort::Whole));
    }

    #[test]
    fn out_of_range_cell_is_an_error() {
        let mut spec = SweepSpec::default();
        spec.apply("methods", "components").unwrap();
        spec.apply("scales", "tiny").unwrap();
        spec.apply("threads", "1").unwrap();
        let report = run_sweep(&spec).unwrap();
        let err = compile_sweep_cell(&spec, &report, 99).unwrap_err();
        assert!(err.contains("out of range"), "{err}");
    }
}
