//! # revmax-engine — the sharded multi-market sweep engine
//!
//! PR 3's zero-copy [`revmax_core::market::MarketView`] partitioning and
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
//! and deduplicated through the [`cache::SolveCache`] *before* execution,
//! so the hit/miss counters in the [`report::SweepReport`] are a pure
//! function of the spec, never of scheduling.
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

pub use cache::{CacheStats, OutcomeCache, SolveCache};
pub use dag::{Cohort, DagSummary, JobDag};
pub use live::{LiveCell, LiveEngine, LiveReport};
pub use report::{BenchEntry, CellResult, SolveTiming, SweepReport};
pub use spec::{Recipe, ScaleSpec, SweepSpec, WtpDist};

use revmax_core::algorithms;
use revmax_core::market::{Market, MarketView};
use revmax_core::prelude::WtpMatrix;
use revmax_core::pricing::PriceMode;
use revmax_par::par_index_map;
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
        Cohort::Seg(k) => {
            if spec.cohorts < 1 || market.n_users() < spec.cohorts {
                return Err(format!(
                    "cell is cohort c{k} but the spec partitions {} consumers into {} cohorts",
                    market.n_users(),
                    spec.cohorts
                ));
            }
            let views = market.partition_by(&activity_labels(&market, spec.cohorts));
            views
                .get(k as usize)
                .ok_or_else(|| {
                    format!("cohort c{k} out of range for a {}-cohort spec", spec.cohorts)
                })?
                .market()
                .clone()
        }
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

    if spec.cohorts >= 1 {
        if let Some(m) = markets.iter().find(|m| m.n_users() < spec.cohorts) {
            return Err(format!(
                "cannot split {} consumers into {} cohorts (scale too small)",
                m.n_users(),
                spec.cohorts
            ));
        }
    }

    // Stage 3 — partitions + fingerprints + diagnostics: per market, the
    // cohort views, the content fingerprint of every solvable sub-market,
    // and the Kupfer bundle-vs-separate ratio (a per-sub-market structural
    // diagnostic, independent of the method axis). Computing fingerprints
    // here also materializes the views' lazy columns once, outside the
    // timed solves.
    struct Partitioned {
        views: Vec<MarketView>,
        whole_fp: u64,
        view_fps: Vec<u64>,
        whole_kupfer: f64,
        view_kupfers: Vec<f64>,
    }
    let partitioned: Vec<Partitioned> = par_index_map(threads, markets.len(), |k| {
        let market = &markets[k];
        let views = if spec.cohorts >= 1 {
            market.partition_by(&activity_labels(market, spec.cohorts))
        } else {
            Vec::new()
        };
        Partitioned {
            whole_fp: market.fingerprint(),
            view_fps: views.iter().map(|v| v.fingerprint()).collect(),
            whole_kupfer: revmax_core::metrics::kupfer_ratio(market),
            view_kupfers: views.iter().map(|v| revmax_core::metrics::kupfer_ratio(v)).collect(),
            views,
        }
    });

    // Stage 4 — deterministic cache pass over the cells, in cell order:
    // assign each cell either a fresh unique-solve slot or the slot of an
    // earlier cell with the same (sub-market, method) fingerprint key.
    let mut solve_cache = SolveCache::new(spec.cache);
    let mut assignment: Vec<(usize, bool)> = Vec::with_capacity(dag.cells.len()); // (slot, cached)
    let mut uniques: Vec<usize> = Vec::new(); // slot → cell index
    for (idx, cell) in dag.cells.iter().enumerate() {
        let p = &partitioned[cell.market];
        let fp = match cell.cohort {
            Cohort::Whole => p.whole_fp,
            Cohort::Seg(k) => p.view_fps[k as usize],
        };
        match solve_cache.probe(cache::solve_key(fp, &cell.method), uniques.len()) {
            cache::Probe::Hit(slot) => assignment.push((slot, true)),
            cache::Probe::Miss => {
                assignment.push((uniques.len(), false));
                uniques.push(idx);
            }
        }
    }

    // Stage 5 — the unique solves, in parallel, results in slot order.
    struct Solved {
        outcome: revmax_core::config::Outcome,
        timing: SolveTiming,
    }
    let solved: Vec<Solved> = par_index_map(threads, uniques.len(), |slot| {
        let cell = &dag.cells[uniques[slot]];
        let p = &partitioned[cell.market];
        let market: &Market = match cell.cohort {
            Cohort::Whole => &markets[cell.market],
            Cohort::Seg(k) => &p.views[k as usize],
        };
        let configurator = algorithms::by_name(&cell.method).expect("validated method name");
        // At least `repeat` timed repetitions; with a measurement budget,
        // short solves keep repeating until the budget accumulates (the
        // outcome is bit-identical every repetition — only the wall-clock
        // statistics improve).
        let budget = Duration::from_millis(spec.budget_ms);
        let mut outcome = None;
        let mut durations = Vec::with_capacity(spec.repeat);
        let mut spent = Duration::ZERO;
        while durations.len() < spec.repeat || (spent < budget && durations.len() < MAX_TIMED_REPS)
        {
            let t = Instant::now(); // audit: allow(wall-clock) repeat budget varies timing stats only; every repeat yields the identical outcome
            outcome = Some(configurator.run(market));
            let d = t.elapsed();
            spent += d;
            durations.push(d);
        }
        Solved {
            outcome: outcome.expect("repeat >= 1"),
            timing: SolveTiming::from_durations(&durations),
        }
    });

    // Stage 6 — assemble the report in cell order. The canonical
    // serialization is computed once per unique solve (a full bundle-tree
    // walk); cached cells clone the string.
    let canons: Vec<String> = solved.iter().map(|s| report::canon_outcome(&s.outcome)).collect();
    let cells: Vec<CellResult> = dag
        .cells
        .iter()
        .zip(&assignment)
        .map(|(cell, &(slot, cached))| {
            let p = &partitioned[cell.market];
            let (fp, kupfer, n_users, n_items) = match cell.cohort {
                Cohort::Whole => {
                    let m = &markets[cell.market];
                    (p.whole_fp, p.whole_kupfer, m.n_users(), m.n_items())
                }
                Cohort::Seg(k) => {
                    let v = &p.views[k as usize];
                    (p.view_fps[k as usize], p.view_kupfers[k as usize], v.n_users(), v.n_items())
                }
            };
            let s = &solved[slot];
            CellResult {
                method: cell.method.clone(),
                scale: cell.scale,
                seed: cell.seed,
                recipe: cell.recipe,
                cohort: cell.cohort,
                n_users,
                n_items,
                fingerprint: fp,
                revenue: s.outcome.revenue,
                components_revenue: s.outcome.components_revenue,
                coverage: s.outcome.coverage,
                gain: s.outcome.gain,
                kupfer,
                n_bundles: s.outcome.config.n_bundles(),
                config: s.outcome.config.clone(),
                config_canon: canons[slot].clone(),
                cached,
                timing: if cached { None } else { Some(s.timing) },
            }
        })
        .collect();

    Ok(SweepReport {
        cells,
        cache: solve_cache.stats,
        dag: dag.summary(),
        threads,
        wall: t0.elapsed(),
    })
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
