//! # revmax-engine — the sharded multi-market sweep engine
//!
//! The [`revmax_core::market::MarketView`] partitioning and
//! [`revmax_core::algorithms::registry`] give per-cohort solves; this
//! crate orchestrates them at fleet scale (`DESIGN.md` §8). A
//! [`SweepSpec`] — a grid over configurators, market partitions, scales,
//! seeds, and the market axes of [`spec::AXES`] — expands into a job
//! DAG ([`dag::JobDag`]: dataset → market → partition → solve), and the
//! jobs execute on [`revmax_par`] under the existing determinism
//! contract: **results are assembled in job-index order and are
//! bit-identical regardless of the thread count** (`DESIGN.md` §6,
//! enforced end to end by `tests/engine_determinism.rs`).
//!
//! Repeated cells across sweep axes are solved once: every solve cell is
//! keyed by a content fingerprint of its sub-market and configurator
//! ([`cache::solve_key`] over [`revmax_core::market::Market::fingerprint`])
//! and probed against the cell cache *before* execution, so the hit/miss
//! counters in the [`report::SweepReport`] are a pure function of the
//! spec, never of scheduling. The same cell stage, over a retained cache,
//! is the [`LiveEngine`]'s incremental re-solve.
//!
//! ```no_run
//! use revmax_engine::{run_sweep, SweepSpec};
//!
//! let mut spec = SweepSpec::default();
//! spec.apply("thetas", "0,0.05").unwrap();
//! spec.apply("seeds", "2015,2015").unwrap(); // repeat → cache hits
//! spec.apply("cohorts", "3").unwrap();
//! let report = run_sweep(&spec).unwrap();
//! println!("{}", report.render_table());
//! assert!(report.hit_rate() > 0.0);
//! ```

pub mod cache;
pub mod dag;
pub mod gate;
pub mod live;
pub mod report;
pub mod spec;

pub use cache::CacheStats;
pub use dag::{Cohort, DagSummary, JobDag};
pub use live::{LiveCell, LiveEngine, LiveReport};
pub use report::{BenchEntry, CellResult, SolveTiming, SweepReport};
pub use spec::{Recipe, ScaleSpec, SweepSpec, WtpDist};

use cache::CellCache;
use revmax_core::algorithms;
use revmax_core::config::Outcome;
use revmax_core::market::{Market, MarketView};
use revmax_core::prelude::WtpMatrix;
use revmax_core::pricing::PriceMode;
use revmax_par::par_index_map;
use std::collections::{HashMap, HashSet};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Hard cap on timing repetitions per unique solve when
/// [`SweepSpec::budget_ms`] keeps extending a microsecond-scale solve.
pub const MAX_TIMED_REPS: usize = 20_000;

/// Balanced activity cohort labels: users ranked by rating count (ties by
/// id) and split into `k` contiguous rank groups, so every label
/// `0..k` is populated whenever `n_users ≥ k`. Pure function of the
/// market content — the partition is part of the sweep's deterministic
/// surface.
pub fn activity_labels(market: &Market, k: usize) -> Vec<u32> {
    let n = market.n_users();
    assert!(k >= 1 && n >= k, "cannot split {n} consumers into {k} cohorts");
    let mut order: Vec<u32> = (0..n as u32).collect();
    order.sort_by_key(|&u| (market.wtp().row(u).len(), u));
    let mut labels = vec![0u32; n];
    for (rank, &u) in order.iter().enumerate() {
        labels[u as usize] = (rank * k / n) as u32;
    }
    labels
}

/// The activity-cohort views of `market` ([`activity_labels`] into
/// `cohorts` groups; none when `cohorts == 0`).
fn cohort_views(market: &Market, cohorts: usize) -> Result<Vec<MarketView>, String> {
    match market.n_users() {
        _ if cohorts == 0 => Ok(Vec::new()),
        n if n < cohorts => Err(format!("cannot split {n} consumers into {cohorts} cohorts")),
        _ => Ok(market.partition_by(&activity_labels(market, cohorts))),
    }
}

/// Build the engine's canonical market over a ratings dataset: the
/// default [`Recipe`] (paper defaults, inner solves pinned to 1 thread —
/// `DESIGN.md` §8's no-nested-fan-out rule — rating-mapped WTPs, exact
/// pricing) with the given θ. Delegates to [`market_from_recipe`] — the
/// **single** construction recipe shared by the sweep executor's Market
/// stage, [`rebuild_cell_market`], and the serving benches/tests; the §8.2
/// fingerprint check in `rebuild_cell_market` relies on every producer
/// and consumer of a cell market using exactly this.
pub fn market_from_data(data: &revmax_dataset::RatingsData, theta: f64) -> Market {
    let mut recipe = Recipe::default();
    recipe.params.theta = theta;
    market_from_recipe(data, 0, &recipe)
}

/// Build one sweep cell's market: `data`'s rating structure with WTPs
/// from the recipe's dist (the λ-linear rating map, or a seeded
/// heavy-tailed redraw — `seed` is the cell's dataset seed, so the
/// magnitudes are as reproducible as the dataset itself and ignored for
/// [`WtpDist::Rating`]), the recipe's params, and its price-search mode.
pub fn market_from_recipe(
    data: &revmax_dataset::RatingsData,
    seed: u64,
    recipe: &Recipe,
) -> Market {
    let wtp = match recipe.dist.tail_dist() {
        None => WtpMatrix::from_ratings(
            data.n_users(),
            data.n_items(),
            data.triples(),
            data.prices(),
            recipe.params.lambda,
        ),
        Some(td) => WtpMatrix::from_triples(
            data.n_users(),
            data.n_items(),
            revmax_dataset::heavy_tail_wtps(data, td, seed),
            Some(data.prices().to_vec()),
        ),
    };
    let market = Market::new(wtp, recipe.params);
    match recipe.pricing {
        PriceMode::Exact => market,
        PriceMode::Grid => market.with_grid_pricing(),
    }
}

/// Rebuild the exact (sub-)market a sweep cell was solved on: regenerate
/// the cell's dataset from its `(scale, seed)`, apply its recipe, and — for a
/// cohort cell — re-partition with [`activity_labels`] under the spec's
/// `cohorts` knob. The rebuilt market's content fingerprint is verified
/// against the one recorded in the cell, so a drifted spec (or a report
/// from a different generator version) fails loudly instead of serving
/// the wrong consumers. This is the market half of the serve layer's
/// "sweep cell → `MenuIndex` in one call" wiring (`DESIGN.md` §9).
pub fn rebuild_cell_market(spec: &SweepSpec, cell: &CellResult) -> Result<Market, String> {
    let data = cell.scale.config().generate(cell.seed);
    let market = market_from_recipe(&data, cell.seed, &cell.recipe);
    let market = match cell.cohort {
        Cohort::Whole => market,
        Cohort::Seg(k) => cohort_views(&market, spec.cohorts)?
            .get(k as usize)
            .ok_or_else(|| format!("cohort c{k} out of range for a {}-cohort spec", spec.cohorts))?
            .market()
            .clone(),
    };
    if market.fingerprint() != cell.fingerprint {
        return Err(format!(
            "rebuilt market fingerprint {:016x} does not match the cell's {:016x} \
             (spec/report mismatch?)",
            market.fingerprint(),
            cell.fingerprint
        ));
    }
    Ok(market)
}

/// Run a sweep: expand the DAG, execute its stages on `revmax-par`, and
/// assemble the report in cell order. See the crate docs for the
/// determinism and caching guarantees.
pub fn run_sweep(spec: &SweepSpec) -> Result<SweepReport, String> {
    spec.validate()?;
    // Canonicalize method names up front: a directly-constructed spec may
    // carry aliases (`pure_matching`), and everything downstream — the
    // registry lookup, the cache key, the report rows — must see one
    // spelling per method.
    let spec = {
        let mut s = spec.clone();
        for m in &mut s.methods {
            *m = spec::resolve_method(m)?;
        }
        s
    };
    let spec = &spec;
    let threads = spec.threads.get();
    let t0 = Instant::now(); // audit: allow(wall-clock) report wall_time is a stat, never a result input
    let dag = JobDag::expand(spec);

    // Stage 1 — datasets: one generator run per distinct (scale, seed).
    let dataset_params: Vec<(ScaleSpec, u64)> = dag
        .datasets
        .iter()
        .map(|&j| match dag.jobs[j].kind {
            dag::JobKind::Dataset { scale, seed } => (scale, seed),
            _ => unreachable!("dataset stage holds dataset jobs"),
        })
        .collect();
    let datasets = par_index_map(threads, dataset_params.len(), |k| {
        let (scale, seed) = dataset_params[k];
        scale.config().generate(seed)
    });

    // Stage 2 — markets: one per distinct (dataset, recipe).
    let market_params: Vec<(usize, Recipe)> = dag
        .markets
        .iter()
        .map(|&j| match dag.jobs[j].kind {
            dag::JobKind::Market { dataset, recipe } => (dataset, recipe),
            _ => unreachable!("market stage holds market jobs"),
        })
        .collect();
    let markets: Vec<Market> = par_index_map(threads, market_params.len(), |k| {
        let (ds, recipe) = &market_params[k];
        market_from_recipe(&datasets[*ds], dataset_params[*ds].1, recipe)
    });

    // Stage 3 — partitions: the activity-cohort views of every market.
    let views = par_index_map(threads, markets.len(), |k| cohort_views(&markets[k], spec.cohorts))
        .into_iter()
        .collect::<Result<Vec<_>, _>>()?;

    // Stage 4 — the cell stage over a fresh cache.
    let cell_markets: Vec<(&Market, &str)> = dag
        .cells
        .iter()
        .map(|cell| {
            let market: &Market = match cell.cohort {
                Cohort::Whole => &markets[cell.market],
                Cohort::Seg(k) => &views[cell.market][k as usize],
            };
            (market, cell.method.as_str())
        })
        .collect();
    let mut cache = CellCache::new(spec.cache);
    let solved = solve_cells(&mut cache, &cell_markets, threads, spec.repeat, spec.budget_ms);

    // Stage 5 — assemble the report in cell order. The canonical
    // serialization is computed once per unique outcome (a full
    // bundle-tree walk); cells sharing that outcome clone the string.
    let mut canons: HashMap<*const Outcome, String> = HashMap::new();
    let cells: Vec<CellResult> = dag
        .cells
        .iter()
        .zip(&cell_markets)
        .zip(&solved)
        .map(|((cell, &(market, _)), s)| CellResult {
            method: cell.method.clone(),
            scale: cell.scale,
            seed: cell.seed,
            recipe: cell.recipe,
            cohort: cell.cohort,
            n_users: market.n_users(),
            n_items: market.n_items(),
            fingerprint: s.fingerprint,
            revenue: s.outcome.revenue,
            components_revenue: s.outcome.components_revenue,
            coverage: s.outcome.coverage,
            gain: s.outcome.gain,
            kupfer: s.kupfer,
            n_bundles: s.outcome.config.n_bundles(),
            config: s.outcome.config.clone(),
            config_canon: canons
                .entry(Arc::as_ptr(&s.outcome))
                .or_insert_with(|| report::canon_outcome(&s.outcome))
                .clone(),
            cached: s.timing.is_none(),
            timing: s.timing,
        })
        .collect();

    Ok(SweepReport { cells, cache: cache.stats, dag: dag.summary(), threads, wall: t0.elapsed() })
}

/// One cell's result from [`solve_cells`].
struct SolvedCell {
    /// Content fingerprint of the cell's (sub-)market.
    fingerprint: u64,
    /// Kupfer diagnostic of the cell's (sub-)market.
    kupfer: f64,
    /// The solved outcome, shared with the cache and with every cell of
    /// the same solve key.
    outcome: Arc<Outcome>,
    /// Present iff this cell ran its own solve (`None` = cache hit).
    timing: Option<SolveTiming>,
}

/// The engine's one cell stage, shared by [`run_sweep`] (a fresh cache
/// per sweep) and [`LiveEngine::resolve`] (a cache retained across churn
/// batches): probe → solve → assemble over `(sub-market, method)` cells
/// given in cell order.
///
/// 1. **Probe.** Every cell is looked up in cell order before any solve
///    runs: a key already retained in `cache`, or already claimed by an
///    earlier cell of this call, is a hit; the first sighting of any other
///    key is a miss. The counters are thus a pure function of the input
///    and the cache contents (`DESIGN.md` §8.3). A disabled cache misses
///    every cell.
/// 2. **Solve.** The misses run on [`par_index_map`] at `threads`, each at
///    least `repeat` times and, with a `budget_ms` measurement budget,
///    until the budget accumulates (every repetition yields the identical
///    outcome — only the timing statistics improve). Kupfer diagnostics of
///    sub-markets the cache has not seen are computed the same way.
/// 3. **Assemble** the per-cell results in cell order, then keep in
///    `cache` only the entries these cells used, which bounds a retained
///    cache by one call's cell count.
fn solve_cells(
    cache: &mut CellCache,
    cells: &[(&Market, &str)],
    threads: usize,
    repeat: usize,
    budget_ms: u64,
) -> Vec<SolvedCell> {
    // Fingerprinting a view materializes its lazy columns — done here,
    // in parallel and outside the timed solves.
    let fps = par_index_map(threads, cells.len(), |i| cells[i].0.fingerprint());
    let keys: Vec<u64> =
        cells.iter().zip(&fps).map(|(&(_, method), &fp)| cache::solve_key(fp, method)).collect();

    // 1. Probe. A slot is one distinct key of this call: its first cell
    // plus the outcome the cache retains for it, if any. A cell is a hit
    // unless it is the first cell of a slot with nothing retained.
    let mut slot_of: HashMap<u64, usize> = HashMap::new();
    let mut slots: Vec<(usize, Option<Arc<Outcome>>)> = Vec::new();
    let mut cell_slots: Vec<(usize, bool)> = Vec::with_capacity(cells.len()); // (slot, cached)
    for (i, key) in keys.iter().enumerate() {
        let slot = match slot_of.get(key).filter(|_| cache.enabled) {
            Some(&slot) => slot,
            None => {
                slot_of.insert(*key, slots.len());
                slots.push((i, cache.outcomes.get(key).cloned()));
                slots.len() - 1
            }
        };
        let cached = slots[slot].0 != i || slots[slot].1.is_some();
        cache.stats.hits += usize::from(cached);
        cache.stats.misses += usize::from(!cached);
        cell_slots.push((slot, cached));
    }

    // 2. Solve the misses, and the Kupfer values of unseen sub-markets.
    let misses: Vec<usize> = slots.iter().filter(|s| s.1.is_none()).map(|s| s.0).collect();
    let budget = Duration::from_millis(budget_ms);
    let mut solved = par_index_map(threads, misses.len(), |k| {
        let (market, method) = cells[misses[k]];
        let configurator = algorithms::by_name(method).expect("validated method name");
        let mut outcome = None;
        let mut durations = Vec::with_capacity(repeat);
        let mut spent = Duration::ZERO;
        while durations.len() < repeat || (spent < budget && durations.len() < MAX_TIMED_REPS) {
            let t = Instant::now(); // audit: allow(wall-clock) repeat budget varies timing stats only; every repeat yields the identical outcome
            outcome = Some(configurator.run(market));
            let d = t.elapsed();
            spent += d;
            durations.push(d);
        }
        (Arc::new(outcome.expect("repeat >= 1")), Some(SolveTiming::from_durations(&durations)))
    })
    .into_iter();
    let slots: Vec<(Arc<Outcome>, Option<SolveTiming>)> = slots
        .into_iter()
        .map(|(_, retained)| match retained {
            Some(outcome) => (outcome, None),
            None => solved.next().expect("one solve per miss"),
        })
        .collect();

    let mut seen = HashSet::new();
    let unseen: Vec<usize> =
        (0..cells.len()) // first cell of each new sub-market
            .filter(|&i| !cache.kupfer.contains_key(&fps[i]) && seen.insert(fps[i]))
            .collect();
    let values = par_index_map(threads, unseen.len(), |k| {
        revmax_core::metrics::kupfer_ratio(cells[unseen[k]].0)
    });
    for (&i, v) in unseen.iter().zip(values) {
        cache.kupfer.insert(fps[i], v);
    }

    // 3. Assemble in cell order, then bound the cache to what it used.
    let out: Vec<SolvedCell> = cell_slots
        .iter()
        .zip(&fps)
        .map(|(&(slot, cached), &fp)| SolvedCell {
            fingerprint: fp,
            kupfer: cache.kupfer[&fp],
            outcome: Arc::clone(&slots[slot].0),
            timing: if cached { None } else { slots[slot].1 },
        })
        .collect();
    if cache.enabled {
        cache.outcomes =
            keys.iter().zip(&out).map(|(&key, s)| (key, Arc::clone(&s.outcome))).collect();
    }
    cache.kupfer = out.iter().map(|s| (s.fingerprint, s.kupfer)).collect();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use revmax_core::prelude::{Objective, Params, SizeCap};

    fn tiny_spec() -> SweepSpec {
        let mut spec = SweepSpec::default();
        spec.apply("methods", "components,pure_greedy").unwrap();
        spec.apply("scales", "tiny").unwrap();
        spec.apply("threads", "2").unwrap();
        spec
    }

    #[test]
    fn whole_market_sweep_runs() {
        let report = run_sweep(&tiny_spec()).unwrap();
        assert_eq!(report.cells.len(), 2);
        assert_eq!(report.cache.misses, 2);
        assert_eq!(report.cache.hits, 0);
        assert!(report.cells.iter().all(|c| c.revenue > 0.0 && !c.cached));
        assert!(report.cells.iter().all(|c| c.timing.is_some()));
    }

    #[test]
    fn repeated_seed_hits_the_cache() {
        let mut spec = tiny_spec();
        spec.apply("seeds", "2015,2015").unwrap();
        let report = run_sweep(&spec).unwrap();
        assert_eq!(report.cells.len(), 4);
        assert_eq!(report.cache.hits, 2, "the duplicated seed's cells must hit");
        assert_eq!(report.cache.misses, 2);
        assert!(report.hit_rate() > 0.0);
        // The DAG collapsed the upstream jobs too.
        assert_eq!(report.dag.datasets, 1);
        assert_eq!(report.dag.markets, 1);
        // Cached cells mirror their source bit for bit.
        assert_eq!(report.cells[0].config_canon, report.cells[2].config_canon);
        assert!(report.cells[2].cached && report.cells[2].timing.is_none());
    }

    #[test]
    fn cache_off_solves_every_cell() {
        let mut spec = tiny_spec();
        spec.apply("seeds", "2015,2015").unwrap();
        spec.apply("cache", "off").unwrap();
        let report = run_sweep(&spec).unwrap();
        assert_eq!(report.cache.hits, 0);
        assert_eq!(report.cache.misses, 4);
        assert!(report.cells.iter().all(|c| !c.cached));
    }

    #[test]
    fn cohort_cells_sum_to_whole_market_users() {
        let mut spec = tiny_spec();
        spec.apply("cohorts", "3").unwrap();
        let report = run_sweep(&spec).unwrap();
        assert_eq!(report.cells.len(), 2 * 4);
        let whole_users = report.cells[0].n_users;
        let cohort_users: usize = report
            .cells
            .iter()
            .filter(|c| c.method == "Components" && c.cohort != Cohort::Whole)
            .map(|c| c.n_users)
            .sum();
        assert_eq!(cohort_users, whole_users);
        // Distinct sub-markets fingerprint differently.
        let mut fps: Vec<u64> = report
            .cells
            .iter()
            .filter(|c| c.method == "Components")
            .map(|c| c.fingerprint)
            .collect();
        fps.dedup();
        assert_eq!(fps.len(), 4);
    }

    #[test]
    fn activity_labels_are_balanced_and_deterministic() {
        let data = ScaleSpec::Tiny.config().generate(3);
        let params = Params::default();
        let wtp = WtpMatrix::from_ratings(
            data.n_users(),
            data.n_items(),
            data.triples(),
            data.prices(),
            params.lambda,
        );
        let market = Market::new(wtp, params);
        let labels = activity_labels(&market, 3);
        assert_eq!(labels, activity_labels(&market, 3));
        let mut counts = [0usize; 3];
        for &l in &labels {
            counts[l as usize] += 1;
        }
        assert!(counts.iter().all(|&c| c > 0), "every cohort populated: {counts:?}");
        assert!(counts.iter().max().unwrap() - counts.iter().min().unwrap() <= 1);
    }

    #[test]
    fn alias_method_names_are_canonicalized() {
        // A directly-constructed spec may carry aliases; the sweep must
        // resolve them (same cache keys, same report names) rather than
        // panic at the registry lookup.
        let mut spec = tiny_spec();
        spec.methods = vec!["pure_matching".into(), "Pure Matching".into()];
        let report = run_sweep(&spec).unwrap();
        assert!(report.cells.iter().all(|c| c.method == "Pure Matching"));
        assert_eq!(report.cache.hits, 1, "both spellings must share one cache key");
    }

    #[test]
    fn too_many_cohorts_is_an_error() {
        let mut spec = tiny_spec();
        spec.apply("cohorts", "10000").unwrap();
        let err = run_sweep(&spec).unwrap_err();
        assert!(err.contains("cohorts"), "{err}");
    }

    #[test]
    fn cells_carry_their_winning_config() {
        let mut spec = tiny_spec();
        spec.apply("seeds", "2015,2015").unwrap();
        let report = run_sweep(&spec).unwrap();
        for c in &report.cells {
            c.config.validate(c.n_items);
            assert!(!c.config.roots.is_empty());
        }
        // A cached cell's config is a faithful clone of its source's.
        assert_eq!(report.cells[2].config, report.cells[0].config);
    }

    #[test]
    fn rebuild_cell_market_round_trips_whole_and_cohort_cells() {
        let mut spec = tiny_spec();
        spec.apply("cohorts", "2").unwrap();
        let report = run_sweep(&spec).unwrap();
        for cell in &report.cells {
            let market = rebuild_cell_market(&spec, cell).unwrap();
            assert_eq!(market.fingerprint(), cell.fingerprint);
            assert_eq!(market.n_users(), cell.n_users);
            assert_eq!(market.n_items(), cell.n_items);
        }
    }

    #[test]
    fn rebuild_cell_market_rejects_a_drifted_spec() {
        let mut spec = tiny_spec();
        spec.apply("cohorts", "2").unwrap();
        let report = run_sweep(&spec).unwrap();
        let cohort_cell =
            report.cells.iter().find(|c| c.cohort != Cohort::Whole).expect("cohort cell");
        // Re-partitioning under a different cohort count yields a
        // different sub-market; the fingerprint check must catch it.
        let mut drifted = spec.clone();
        drifted.apply("cohorts", "3").unwrap();
        let err = rebuild_cell_market(&drifted, cohort_cell).unwrap_err();
        assert!(err.contains("fingerprint"), "{err}");
    }

    #[test]
    fn objective_and_dist_separate_fingerprints_and_cache_keys() {
        // Satellite bugfix: a CVaR solve must never hit a cached mean
        // solve — the objective (and the dataset distribution knobs) are
        // part of the market fingerprint, hence of the solve-cache key.
        let data = ScaleSpec::Tiny.config().generate(5);
        let mean = market_from_recipe(&data, 5, &Recipe::default());
        let mut recipe = Recipe::default();
        recipe.params.objective = Objective::Cvar(0.9);
        let cvar = market_from_recipe(&data, 5, &recipe);
        let pareto = market_from_recipe(
            &data,
            5,
            &Recipe { dist: WtpDist::Pareto { alpha: 2.0 }, ..Recipe::default() },
        );
        assert_ne!(mean.fingerprint(), cvar.fingerprint());
        assert_ne!(mean.fingerprint(), pareto.fingerprint());
        assert_ne!(cvar.fingerprint(), pareto.fingerprint());
        assert_ne!(
            cache::solve_key(mean.fingerprint(), "Components"),
            cache::solve_key(cvar.fingerprint(), "Components"),
        );
        // And the default construction is the pre-objective one, bit for
        // bit (same fingerprint as the delegating market_from_data).
        assert_eq!(mean.fingerprint(), market_from_data(&data, 0.0).fingerprint());
    }

    #[test]
    fn objective_axis_solves_cells_separately_not_via_cache() {
        let mut spec = tiny_spec();
        spec.apply("objectives", "mean,cvar:0.5").unwrap();
        let report = run_sweep(&spec).unwrap();
        assert_eq!(report.cells.len(), 4);
        assert_eq!(report.cache.hits, 0, "mean and cvar cells must not share solves");
        assert_eq!(report.cache.misses, 4);
        assert_eq!(report.dag.markets, 2);
        // The objective rides the report rows and the bench ids.
        assert!(report.cells.iter().any(|c| c.recipe.params.objective == Objective::Cvar(0.5)));
        let entries = report.bench_entries();
        assert!(entries.iter().any(|e| e.id == "sweep_tiny/theta0/components"));
        assert!(entries.iter().any(|e| e.id == "sweep_tiny/theta0/cvar0.5/components"));
    }

    #[test]
    fn heavy_tail_sweep_runs_and_rebuilds() {
        let mut spec = tiny_spec();
        spec.apply("dists", "rating,pareto,lognormal").unwrap();
        spec.apply("tails", "2").unwrap();
        spec.apply("cohorts", "2").unwrap();
        let report = run_sweep(&spec).unwrap();
        assert_eq!(report.cells.len(), 2 * 3 * 3); // methods x dists x (whole+2)
        assert!(report.cells.iter().all(|c| c.revenue.is_finite() && c.revenue > 0.0));
        // Heavy-tail cells rebuild to the same fingerprint (seeded redraw).
        for cell in report.cells.iter().filter(|c| c.recipe.dist != WtpDist::Rating) {
            let market = rebuild_cell_market(&spec, cell).unwrap();
            assert_eq!(market.fingerprint(), cell.fingerprint);
        }
        let entries = report.bench_entries();
        assert!(entries.iter().any(|e| e.id == "sweep_tiny/theta0/pareto2/components"));
        assert!(entries.iter().any(|e| e.id == "sweep_tiny/theta0/lognormal2/components"));
    }

    #[test]
    fn caps_axis_bounds_every_bundle_of_every_method_and_cohort() {
        let mut spec = tiny_spec();
        spec.apply("methods", "all").unwrap();
        spec.apply("caps", "1,2,3,unlimited").unwrap();
        spec.apply("cohorts", "2").unwrap();
        let report = run_sweep(&spec).unwrap();
        assert_eq!(report.cells.len(), 4 * 3 * 7);
        for c in &report.cells {
            let cap = c.recipe.params.size_cap;
            assert!(
                cap.limit().is_none_or(|k| c.config.max_bundle_size() <= k),
                "{} on {} violated size cap {cap:?}",
                c.method,
                c.cohort
            );
        }
        assert!(report
            .cells
            .iter()
            .any(|c| c.recipe.params.size_cap == SizeCap::Unlimited
                && c.config.max_bundle_size() > 3));
    }

    #[test]
    fn bench_entries_cover_whole_market_cells_only() {
        let mut spec = tiny_spec();
        spec.apply("cohorts", "2").unwrap();
        spec.apply("repeat", "2").unwrap();
        let report = run_sweep(&spec).unwrap();
        let entries = report.bench_entries();
        assert_eq!(entries.len(), 2);
        assert!(entries.iter().any(|e| e.id == "sweep_tiny/theta0/components"));
        assert!(entries.iter().all(|e| e.iters == 2));
    }
}
