//! Live incremental re-solving over a churned market (`DESIGN.md` §10).
//!
//! The sweep engine answers "solve this grid once"; a live market asks
//! "the market moved a little — what changed?". [`LiveEngine`] retains the
//! sweep's own cell cache ([`crate::cache::solve_key`] over content
//! fingerprints) across churn batches, and each [`LiveEngine::resolve`]
//! runs the sweep's cell stage over the same deterministic cell axis
//! ([`crate::dag::cell_axis`]: whole market first, then activity cohorts,
//! methods inner) — single-threaded, one repetition, no timing budget.
//! Every snapshot and every cohort is a fresh arena, and the cache keys on
//! its content fingerprint, so a delta batch leaves the key of every
//! cohort whose rows it did not touch unchanged (cohort membership is a
//! pure function of row activity): only the cells a batch actually
//! invalidates miss the cache and re-solve — and a miss solves the exact
//! sub-market a cold engine would, so the resulting report is
//! **bit-identical** to a from-scratch resolve ([`LiveReport::canonical`]
//! pins this in the churn parity suites). After each resolve the cache
//! keeps only what that resolve used, so it never outgrows one resolve's
//! cell count.

use crate::cache::{self, CacheStats, CellCache};
use crate::dag::{cell_axis, Cohort};
use crate::{cohort_views, solve_cells, spec};
use revmax_core::config::Outcome;
use revmax_core::market::Market;
use revmax_core::prelude::Objective;
use std::fmt::Write as _;
use std::sync::Arc;

/// One solve cell of a live resolve.
#[derive(Debug, Clone)]
pub struct LiveCell {
    pub method: String,
    pub cohort: Cohort,
    /// The pricing objective the cell's market carries — surfaced so a
    /// serving diagnostic can tell a robust (CVaR/quantile) menu from a
    /// mean-revenue one at a glance.
    pub objective: Objective,
    pub n_users: usize,
    pub n_items: usize,
    /// Content fingerprint of the cell's (sub-)market.
    pub fingerprint: u64,
    pub revenue: f64,
    pub gain: f64,
    /// Kupfer bundle-vs-separate diagnostic of the cell's sub-market.
    pub kupfer: f64,
    /// True when the retained cache already held this solve.
    pub cached: bool,
    /// The full solved outcome (shared with the cache).
    pub outcome: Arc<Outcome>,
}

/// The result of one [`LiveEngine::resolve`].
#[derive(Debug, Clone)]
pub struct LiveReport {
    /// One row per cell, in [`cell_axis`] order.
    pub cells: Vec<LiveCell>,
    /// Indices (into `cells`) whose solve key changed since the previous
    /// resolve — the cells the last delta batch invalidated. Every index
    /// on the first resolve.
    pub invalidated: Vec<usize>,
    /// Cache hits/misses of this resolve only.
    pub stats: CacheStats,
}

impl LiveReport {
    /// Bit-exact serialization of every cell (fingerprints, diagnostics,
    /// full configuration; no wall clock, no cache placement): an
    /// incremental resolve and a cold resolve of the same market must
    /// render identically.
    pub fn canonical(&self) -> String {
        let mut s = String::new();
        writeln!(s, "cells:{}", self.cells.len()).unwrap();
        for c in &self.cells {
            writeln!(
                s,
                "{}|live|{}|{}|{}x{}|fp:{:016x}|bvs:{:016x}|{}",
                c.method,
                c.objective.id_fragment(),
                c.cohort,
                c.n_users,
                c.n_items,
                c.fingerprint,
                c.kupfer.to_bits(),
                crate::report::canon_outcome(&c.outcome),
            )
            .unwrap();
        }
        s
    }

    /// Total revenue across the whole-market cells of one method (the
    /// serve layer's headline number).
    pub fn whole_revenue(&self, method: &str) -> Option<f64> {
        self.cells
            .iter()
            .find(|c| c.cohort == Cohort::Whole && c.method == method)
            .map(|c| c.revenue)
    }

    /// The primary whole-market cell — first method, whole cohort: the
    /// cell whose winning configuration the serving daemon compiles and
    /// hot-swaps after every churn batch (`DESIGN.md` §11). `None` only
    /// for an empty report.
    pub fn whole_cell(&self) -> Option<&LiveCell> {
        self.cells.iter().find(|c| c.cohort == Cohort::Whole)
    }
}

/// A retained incremental solver: construct once, [`LiveEngine::resolve`]
/// after every churn batch.
#[derive(Debug)]
pub struct LiveEngine {
    /// Canonical (registry-spelled) method names.
    methods: Vec<String>,
    /// Activity-cohort count (`0` = whole market only).
    cohorts: usize,
    cache: CellCache,
    /// Solve keys of the previous resolve, in cell order.
    prev_keys: Vec<u64>,
}

impl LiveEngine {
    /// Build an engine for the given methods (any registry spelling) and
    /// cohort count.
    pub fn new(methods: &[&str], cohorts: usize) -> Result<Self, String> {
        if methods.is_empty() {
            return Err("at least one method required".into());
        }
        let methods =
            methods.iter().map(|m| spec::resolve_method(m)).collect::<Result<Vec<_>, _>>()?;
        Ok(LiveEngine { methods, cohorts, cache: CellCache::new(true), prev_keys: Vec::new() })
    }

    /// Canonical (registry-spelled) method names this engine solves, in
    /// cell-axis order.
    pub fn methods(&self) -> &[String] {
        &self.methods
    }

    /// Activity-cohort count (`0` = whole market only).
    pub fn cohorts(&self) -> usize {
        self.cohorts
    }

    /// Solved outcomes currently retained — at most the cell count of the
    /// latest resolve.
    pub fn cached_solves(&self) -> usize {
        self.cache.outcomes.len()
    }

    /// Solve every cell of `market` (whole market plus activity cohorts,
    /// every method), reusing retained outcomes wherever the cell's
    /// content fingerprint is unchanged. Deterministic: cells are probed
    /// and solved in [`cell_axis`] order.
    pub fn resolve(&mut self, market: &Market) -> Result<LiveReport, String> {
        let views = cohort_views(market, self.cohorts)?;
        let axis = cell_axis(self.cohorts, &self.methods);
        let cell_markets: Vec<(&Market, &str)> = axis
            .iter()
            .map(|(cohort, method)| {
                let m: &Market = match cohort {
                    Cohort::Whole => market,
                    Cohort::Seg(k) => &views[*k as usize],
                };
                (m, method.as_str())
            })
            .collect();
        let solved = solve_cells(&mut self.cache, &cell_markets, 1, 1, 0);
        let keys: Vec<u64> = solved
            .iter()
            .zip(&axis)
            .map(|(s, (_, m))| cache::solve_key(s.fingerprint, m))
            .collect();
        let invalidated: Vec<usize> = keys
            .iter()
            .enumerate()
            .filter(|&(i, &k)| self.prev_keys.get(i) != Some(&k))
            .map(|(i, _)| i)
            .collect();
        self.prev_keys = keys;
        let cells: Vec<LiveCell> = axis
            .iter()
            .zip(&cell_markets)
            .zip(solved)
            .map(|((&(cohort, _), &(m, method)), s)| LiveCell {
                method: method.to_string(),
                cohort,
                objective: m.params().objective,
                n_users: m.n_users(),
                n_items: m.n_items(),
                fingerprint: s.fingerprint,
                revenue: s.outcome.revenue,
                gain: s.outcome.gain,
                kupfer: s.kupfer,
                cached: s.timing.is_none(),
                outcome: s.outcome,
            })
            .collect();
        let hits = cells.iter().filter(|c| c.cached).count();
        let stats = CacheStats { hits, misses: cells.len() - hits };
        Ok(LiveReport { cells, invalidated, stats })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{market_from_data, ScaleSpec};
    use revmax_core::marketlog::{Event, MarketLog};

    fn tiny_market() -> Market {
        market_from_data(&ScaleSpec::Tiny.config().generate(2015), 0.05)
    }

    #[test]
    fn first_resolve_misses_everything_and_marks_all_invalidated() {
        let mut eng = LiveEngine::new(&["components", "pure_greedy"], 2).unwrap();
        let report = eng.resolve(&tiny_market()).unwrap();
        assert_eq!(report.cells.len(), 2 * 3); // methods × (whole + 2 cohorts)
        assert_eq!(report.stats.misses, 6);
        assert_eq!(report.stats.hits, 0);
        assert_eq!(report.invalidated.len(), 6);
        assert!(report.cells.iter().all(|c| !c.cached && c.revenue > 0.0));
        // Diagnostics are per-sub-market: both methods of one cohort agree.
        assert_eq!(report.cells[0].kupfer.to_bits(), report.cells[1].kupfer.to_bits());
    }

    #[test]
    fn unchanged_market_is_all_hits() {
        let market = tiny_market();
        let mut eng = LiveEngine::new(&["components"], 2).unwrap();
        eng.resolve(&market).unwrap();
        let again = eng.resolve(&market).unwrap();
        assert_eq!(again.stats.hits, 3);
        assert_eq!(again.stats.misses, 0);
        assert!(again.invalidated.is_empty());
    }

    #[test]
    fn churn_invalidates_only_touched_cohorts_and_matches_cold() {
        let market = tiny_market();
        let mut eng = LiveEngine::new(&["components", "pure_greedy"], 2).unwrap();
        eng.resolve(&market).unwrap();

        // Upsert one existing cell's value: exactly one user's row moves.
        let mut log = MarketLog::new(market);
        let (user, item, old) = {
            let bw = log.base().wtp();
            let row = bw.row(0);
            (0u32, row.ids[0], row.values[0])
        };
        log.apply(Event::UpsertWtp { user, item, wtp: old * 1.5 }).unwrap();
        let churned = log.snapshot();

        let inc = eng.resolve(&churned).unwrap();
        // Whole market always invalidates; exactly one cohort holds the
        // touched user, so of 3 sub-markets × 2 methods, 4 cells miss.
        assert_eq!(inc.stats.misses, 4, "invalidated: {:?}", inc.invalidated);
        assert_eq!(inc.stats.hits, 2);
        assert_eq!(inc.invalidated.len(), 4);

        // Bit-identical to a cold engine on the same churned market.
        let mut cold_eng = LiveEngine::new(&["components", "pure_greedy"], 2).unwrap();
        let cold = cold_eng.resolve(&churned).unwrap();
        assert_eq!(inc.canonical(), cold.canonical());
    }

    #[test]
    fn retained_cache_stays_bounded_across_churn() {
        let mut log = MarketLog::new(tiny_market());
        let mut eng = LiveEngine::new(&["components", "pure_greedy"], 2).unwrap();
        let mut report = eng.resolve(&log.snapshot()).unwrap();
        for b in 0..20u32 {
            // Each batch moves a different user's row, so superseded
            // outcomes can never hit again.
            let user = b % log.base().n_users() as u32;
            let row = log.base().wtp().row(user);
            let (item, wtp) = (row.ids[0], row.values[0] * (1.1 + f64::from(b)));
            log.apply(Event::UpsertWtp { user, item, wtp }).unwrap();
            report = eng.resolve(&log.snapshot()).unwrap();
            assert!(report.stats.misses > 0, "batch {b} must invalidate cells");
        }
        assert!(
            eng.cached_solves() <= report.cells.len(),
            "{} retained outcomes for a {}-cell resolve",
            eng.cached_solves(),
            report.cells.len()
        );
    }

    #[test]
    fn cold_resolve_agrees_with_a_sweep_cell_by_cell() {
        let methods = "components,pure_greedy,mixed_greedy";
        let mut spec = crate::SweepSpec::default();
        for (key, value) in
            [("methods", methods), ("scales", "tiny"), ("thetas", "0.05"), ("cohorts", "3")]
        {
            spec.apply(key, value).unwrap();
        }
        let sweep = crate::run_sweep(&spec).unwrap();
        let methods: Vec<&str> = methods.split(',').collect();
        let live = LiveEngine::new(&methods, 3).unwrap().resolve(&tiny_market()).unwrap();
        assert_eq!(live.cells.len(), sweep.cells.len());
        assert_eq!(live.cells.len(), 3 * 4);
        for (l, c) in live.cells.iter().zip(&sweep.cells) {
            assert_eq!((l.cohort, l.method.as_str()), (c.cohort, c.method.as_str()));
            assert_eq!(l.fingerprint, c.fingerprint, "{} {}", c.method, c.cohort);
            assert_eq!(l.kupfer.to_bits(), c.kupfer.to_bits(), "{} {}", c.method, c.cohort);
            assert_eq!(crate::report::canon_outcome(&l.outcome), c.config_canon);
            assert_eq!(l.cached, c.cached);
        }
        assert_eq!(live.stats, sweep.cache);
    }

    #[test]
    fn unknown_method_is_an_error() {
        assert!(LiveEngine::new(&["not_a_method"], 0).is_err());
        assert!(LiveEngine::new(&[], 0).is_err());
    }

    #[test]
    fn whole_revenue_finds_the_headline_cell() {
        let mut eng = LiveEngine::new(&["components"], 1).unwrap();
        assert_eq!(eng.methods(), &["Components".to_string()]);
        assert_eq!(eng.cohorts(), 1);
        let report = eng.resolve(&tiny_market()).unwrap();
        assert!(report.cells.iter().all(|c| c.objective == Objective::Mean));
        assert_eq!(report.whole_revenue("Components"), Some(report.cells[0].revenue));
        assert_eq!(report.whole_revenue("nope"), None);
        let whole = report.whole_cell().unwrap();
        assert_eq!(whole.cohort, Cohort::Whole);
        assert_eq!(whole.method, "Components");
        assert_eq!(whole.revenue, report.cells[0].revenue);
    }
}
