//! The fingerprint-keyed cell cache.
//!
//! A solve cell's cache key combines the market's content fingerprint
//! ([`revmax_core::market::Market::fingerprint`] — WTP content including
//! any view restriction, resolved solve-relevant params, price mode) with
//! the configurator's registry name. Two cells with equal keys are
//! guaranteed bit-identical solves, so the engine runs the first and
//! reuses its outcome for the rest. The Kupfer diagnostic is a pure
//! function of the sub-market, so it is keyed by the fingerprint alone.
//!
//! One `CellCache` serves both entry points: a sweep probes a fresh one
//! and drops it, a [`crate::LiveEngine`] keeps one across churn batches.
//! Either way it is filled by the engine's single cell stage
//! (`DESIGN.md` §8.3), which probes every cell in cell order *before* any
//! solve runs — so which cell is the miss and which cells are hits is a
//! pure function of the input, never of thread scheduling — and which
//! afterwards keeps only the entries the call's own cells used, so a
//! retained cache is bounded by one resolve's cell count.

use revmax_core::config::Outcome;
use revmax_core::fingerprint::{combine, fingerprint_str};
use std::collections::HashMap;
use std::sync::Arc;

/// Build the cache key for (market fingerprint, configurator name).
pub fn solve_key(market_fingerprint: u64, method: &str) -> u64 {
    combine(market_fingerprint, fingerprint_str(method))
}

/// Hit/miss counters, surfaced in the sweep and live reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    pub hits: usize,
    pub misses: usize,
}

impl CacheStats {
    /// Hits over total lookups (0 when nothing was looked up).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// Solved outcomes by [`solve_key`] and Kupfer diagnostics by sub-market
/// fingerprint, plus cumulative hit/miss counters.
#[derive(Debug)]
pub(crate) struct CellCache {
    /// `false` = every probe misses and nothing is stored (each cell
    /// solves independently — the cold-sweep reference, `cache=off`).
    pub enabled: bool,
    pub outcomes: HashMap<u64, Arc<Outcome>>,
    pub kupfer: HashMap<u64, f64>,
    pub stats: CacheStats,
}

impl CellCache {
    pub fn new(enabled: bool) -> Self {
        CellCache {
            enabled,
            outcomes: HashMap::new(),
            kupfer: HashMap::new(),
            stats: CacheStats::default(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{market_from_data, solve_cells, ScaleSpec};

    /// One tiny market solved as the cells [Components, Pure Greedy,
    /// Components, Components] through the engine's cell stage.
    fn probe_repeats(enabled: bool) -> (CellCache, Vec<bool>) {
        let market = market_from_data(&ScaleSpec::Tiny.config().generate(7), 0.0);
        let cells = [
            (&market, "Components"),
            (&market, "Pure Greedy"),
            (&market, "Components"),
            (&market, "Components"),
        ];
        let mut cache = CellCache::new(enabled);
        let solved = solve_cells(&mut cache, &cells, 2, 1, 0);
        (cache, solved.iter().map(|s| s.timing.is_none()).collect())
    }

    #[test]
    fn repeated_keys_hit() {
        let (cache, cached) = probe_repeats(true);
        assert_eq!(cached, [false, false, true, true]);
        assert_eq!(cache.stats, CacheStats { hits: 2, misses: 2 });
        assert!((cache.stats.hit_rate() - 0.5).abs() < 1e-12);
        assert_eq!(cache.outcomes.len(), 2, "one retained outcome per distinct key");
        assert_eq!(cache.kupfer.len(), 1, "one Kupfer value per sub-market");
    }

    #[test]
    fn disabled_cache_misses_everything() {
        let (cache, cached) = probe_repeats(false);
        assert_eq!(cached, [false; 4]);
        assert_eq!(cache.stats, CacheStats { hits: 0, misses: 4 });
        assert_eq!(cache.stats.hit_rate(), 0.0);
        assert!(cache.outcomes.is_empty(), "a disabled cache stores nothing");
    }

    #[test]
    fn key_separates_method_and_market() {
        let a = solve_key(1, "Components");
        assert_ne!(a, solve_key(1, "Pure Greedy"));
        assert_ne!(a, solve_key(2, "Components"));
        assert_eq!(a, solve_key(1, "Components"));
    }
}
