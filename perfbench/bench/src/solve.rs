//! `solve`: one `run_sweep` over all 7 configurators on the `medium`
//! market, whole market plus 3 activity cohorts, cache on, 1 engine
//! thread — the seller's wait for a menu. Algorithm-bound: the solver
//! layers do the work and `serve` does none. Its timings spread too widely
//! on a shared 2-core host to gate on, so it runs on request only; the
//! `serve` traced run takes its per-layer figures through [`layers`].

use crate::report::{median, ms_since, Run};
use crate::trace::Tracer;
use crate::Cfg;
use revmax_core::algorithms::by_name;
use revmax_core::market::Market;
use revmax_engine::report::canon_outcome;
use revmax_engine::SweepSpec;
use revmax_engine::{activity_labels, market_from_data, run_sweep, Cohort, ScaleSpec, SweepReport};
use std::hint::black_box;
use std::time::Instant;

const COHORTS: usize = 3;

fn scale(cfg: &Cfg) -> ScaleSpec {
    if cfg.tiny {
        ScaleSpec::Small
    } else {
        ScaleSpec::Medium
    }
}

/// The registry name in snake case (`Pure FreqItemset` → `pure_freqitemset`).
fn snake(method: &str) -> String {
    method.to_lowercase().replace(' ', "_")
}

fn spec(cfg: &Cfg, threads: usize) -> SweepSpec {
    let mut spec = SweepSpec::default();
    let seed = cfg.seed.to_string();
    for (k, v) in [
        ("methods", "all"),
        ("scales", scale(cfg).name()),
        ("seeds", seed.as_str()),
        ("cohorts", "3"),
        ("cache", "on"),
        ("repeat", "1"),
        ("threads", &threads.to_string()),
    ] {
        spec.apply(k, v).expect("valid sweep spec");
    }
    spec
}

/// Generate the dataset and build the market — the set-up a sweep's
/// caller pays before it can ask for one.
/// Returns the market and the generate and CSR-build times in ms.
fn setup(cfg: &Cfg, tracer: &Tracer, rep: u64) -> (Market, f64, f64) {
    let _s = tracer.span("bench", "setup", rep);
    let t = Instant::now();
    let data = {
        let _g = tracer.span("dataset", "dataset.generate", rep);
        scale(cfg).config().generate(cfg.seed)
    };
    let t1 = Instant::now();
    let market = {
        let _b = tracer.span("core", "core.csr_build", rep);
        market_from_data(&data, 0.0)
    };
    (market, (t1 - t).as_secs_f64() * 1e3, ms_since(t1))
}

/// One timed sweep inside an `engine` span. With `spans` off nothing is
/// recorded while it runs; the span is added afterwards (the untraced
/// comparison of the traced run).
fn sweep(cfg: &Cfg, tracer: &Tracer, threads: usize, rep: u64, spans: bool) -> (SweepReport, f64) {
    let name = format!("engine.run_sweep_t{threads}");
    let span = spans.then(|| tracer.span("engine", &name, rep));
    let t = Instant::now();
    let report = run_sweep(&spec(cfg, threads)).expect("the benchmark's sweep spec is valid");
    let ms = ms_since(t);
    if span.is_none() {
        tracer.record(tracer.current(), "engine", &name, rep, t, Instant::now());
    }
    (report, ms)
}

/// The median sweep time composed per cell: each cell's median solve time
/// across the sweeps plus the median engine time outside the solves. A
/// host stall of a few seconds slows a few cells of one sweep, which the
/// per-cell medians drop, where it would slow that whole sweep's wall.
fn composed_sweep_ms(sweeps: &[(SweepReport, f64)]) -> f64 {
    let solve_ms = |r: &SweepReport, k: usize| {
        r.cells[k].timing.map_or(0.0, |t| t.mean_ns as f64 * t.reps as f64 / 1e6)
    };
    let n = sweeps[0].0.cells.len();
    let cells: f64 = (0..n)
        .map(|k| median(&sweeps.iter().map(|(r, _)| solve_ms(r, k)).collect::<Vec<_>>()))
        .sum();
    let outside: Vec<f64> =
        sweeps.iter().map(|(r, wall)| wall - (0..n).map(|k| solve_ms(r, k)).sum::<f64>()).collect();
    cells + median(&outside)
}

/// Canonical serialization of every cell of a sweep (configs, revenues,
/// fingerprints) — two sweeps agree iff these are equal.
fn canon(report: &SweepReport) -> Vec<String> {
    report
        .cells
        .iter()
        .map(|c| format!("{}|{}|{:016x}|{}", c.method, c.cohort, c.fingerprint, c.config_canon))
        .collect()
}

pub fn run(cfg: &Cfg, tracer: &Tracer, run: &mut Run) {
    let reps = if cfg.tiny { 2 } else { 25 };
    let (mut setup_s, mut gen_ms, mut csr_ms) = (Vec::new(), Vec::new(), Vec::new());
    let mut market = None;
    for rep in 0..reps {
        let t = Instant::now();
        let (m, g, c) = setup(cfg, tracer, rep);
        setup_s.push(ms_since(t) / 1e3);
        gen_ms.push(g);
        csr_ms.push(c);
        market = Some(m);
    }
    let market = market.expect("at least one set-up");
    run.metric("setup_s", median(&setup_s), "s");
    if tracer.enabled() {
        run.metric("dataset.generate_ms", median(&gen_ms), "ms");
        run.metric("core.csr_build_ms", median(&csr_ms), "ms");
    }

    // The measured sweeps (untraced run), or one untraced and one traced
    // sweep whose ratio is the tracing overhead (traced run).
    let mut sweeps: Vec<(SweepReport, f64)> = Vec::new();
    let start = Instant::now();
    if tracer.enabled() {
        sweeps.push(sweep(cfg, tracer, 1, 0, false));
        sweeps.push(sweep(cfg, tracer, 1, 1, true));
        run.metric("trace.overhead_frac", sweeps[1].1 / sweeps[0].1 - 1.0, "fraction");
        run.metric("engine.sweep_self_ms", engine_self_ms(&sweeps[1].0), "ms");
    } else {
        let min_sweeps = if cfg.tiny { 1 } else { 3 };
        while sweeps.len() < min_sweeps || start.elapsed().as_secs_f64() < cfg.seconds {
            sweeps.push(sweep(cfg, tracer, 1, sweeps.len() as u64, true));
        }
    }
    run.ops(sweeps.len() as u64, 0);
    let sweep_ms = composed_sweep_ms(&sweeps);
    let first = &sweeps[0].0;
    let n_cells = first.cells.len() as f64;
    run.metric("latency_ms", sweep_ms, "ms");
    run.metric("rate_per_s", n_cells / (sweep_ms / 1e3), "1/s");
    let whole = || first.cells.iter().filter(|c| c.cohort == Cohort::Whole);
    let best = whole().map(|c| c.revenue).fold(f64::NEG_INFINITY, f64::max);
    let components = whole().find(|c| c.method == "Components").map_or(f64::NAN, |c| c.revenue);
    run.metric("revenue_lift", best / components, "x");
    run.note(format!(
        "solve: {} cells x {} sweeps, sweep_s {:.3} (walls {:.3?} s), best_revenue {best:.2}",
        first.cells.len(),
        sweeps.len(),
        sweep_ms / 1e3,
        sweeps.iter().map(|s| s.1 / 1e3).collect::<Vec<_>>()
    ));

    let reference = canon(first);
    let same = sweeps.iter().all(|(r, _)| canon(r) == reference);
    run.check("solve.sweeps_bit_identical", same, || "repeated sweeps diverged".into());
    check_cells(tracer, run, first, &market);

    if tracer.enabled() {
        let (_, t2_ms) = sweep(cfg, tracer, 2, 2, false);
        run.metric("par.sweep_speedup_t2", sweeps[0].1 / t2_ms, "x");
        solver_layers(tracer, run, &market);
    }
}

/// The solver layers' traced figures on the `medium` market, taken inside
/// another workload's traced run: one sweep (its engine self time, and
/// again at 2 threads for the scaling figure), every cell checked against
/// a direct solve (timed per method), and the solver's building blocks.
pub fn layers(cfg: &Cfg, tracer: &Tracer, run: &mut Run) {
    let _s = tracer.span("bench", "solve.layers", 0);
    let (market, _, _) = setup(cfg, tracer, 0);
    let (report, t1_ms) = sweep(cfg, tracer, 1, 0, true);
    run.ops(1, 0);
    run.metric("engine.sweep_self_ms", engine_self_ms(&report), "ms");
    check_cells(tracer, run, &report, &market);
    let (_, t2_ms) = sweep(cfg, tracer, 2, 1, true);
    run.metric("par.sweep_speedup_t2", t1_ms / t2_ms, "x");
    solver_layers(tracer, run, &market);
}

/// `run_sweep` wall time minus its per-cell solves.
fn engine_self_ms(report: &SweepReport) -> f64 {
    let solves_ms: f64 = report
        .cells
        .iter()
        .filter_map(|c| c.timing)
        .map(|t| t.mean_ns as f64 * t.reps as f64 / 1e6)
        .sum();
    report.wall.as_secs_f64() * 1e3 - solves_ms
}

/// §6: every method's revenue is at least Components' on the same
/// (sub-)market, and every sweep cell is bit-identical to a direct
/// `by_name(m).run` on the same market (timed per method in the traced run).
fn check_cells(tracer: &Tracer, run: &mut Run, report: &SweepReport, market: &Market) {
    let views = market.partition_by(&activity_labels(market, COHORTS));
    let mut mismatches = Vec::new();
    let mut below = Vec::new();
    for cell in &report.cells {
        let sub: &Market = match cell.cohort {
            Cohort::Whole => market,
            Cohort::Seg(k) => &views[k as usize],
        };
        let comps = report
            .cells
            .iter()
            .find(|c| c.cohort == cell.cohort && c.method == "Components")
            .map_or(f64::NAN, |c| c.revenue);
        let at_least_components = cell.revenue >= comps - 1e-9 * comps.abs();
        if !at_least_components {
            below.push(format!("{} {}: {} < {comps}", cell.method, cell.cohort, cell.revenue));
        }
        let m = by_name(&cell.method).expect("sweep cells name registry methods");
        let t = Instant::now();
        let outcome = {
            let _s = tracer.span("core", &format!("core.solve.{}", snake(&cell.method)), 0);
            m.run(sub)
        };
        if cell.cohort == Cohort::Whole {
            run.metric(&format!("core.solve.{}_ms", snake(&cell.method)), ms_since(t), "ms");
        }
        if canon_outcome(&outcome) != cell.config_canon || sub.fingerprint() != cell.fingerprint {
            mismatches.push(format!("{} {}", cell.method, cell.cohort));
        }
    }
    run.ops(report.cells.len() as u64, 0);
    run.check("solve.revenue_ge_components", below.is_empty(), || below.join("; "));
    run.check("solve.cells_match_direct_runs", mismatches.is_empty(), || mismatches.join("; "));
}

/// Per-layer timings of the solver's building blocks on the whole market:
/// co-rated pair generation, pure pricing of every pair, the matching on
/// the resulting gain graph, and maximal-itemset mining.
fn solver_layers(tracer: &Tracer, run: &mut Run, market: &Market) {
    let t = Instant::now();
    let pairs = {
        let _s = tracer.span("core", "core.co_rated_pairs", 0);
        market.co_rated_pairs()
    };
    run.metric("core.co_rated_pairs_ms", ms_since(t), "ms");
    run.metric("core.pairs", pairs.len() as f64, "count");

    let mut scratch = market.scratch();
    let singles: Vec<f64> = (0..market.n_items() as u32)
        .map(|i| market.price_pure(&[i], &mut scratch).revenue)
        .collect();
    let t = Instant::now();
    let pair_rev: Vec<f64> = {
        let _s = tracer.span("core", "core.price_pure", 0);
        pairs.iter().map(|&(a, b)| market.price_pure(&[a, b], &mut scratch).revenue).collect()
    };
    let us = ms_since(t) * 1e3;
    run.metric("core.price_pure_us", us / pairs.len().max(1) as f64, "us");
    run.metric("core.price_pure_calls", pairs.len() as f64, "count");

    let scale = revmax_matching::F64_SCALE;
    let mut graph = revmax_matching::gain::GainGraph::new(
        singles.iter().map(|r| (r * scale).round() as i64).collect(),
    );
    for (&(a, b), r) in pairs.iter().zip(&pair_rev) {
        graph.add_pair(a as usize, b as usize, (r * scale).round() as i64);
    }
    let t = Instant::now();
    let solution = {
        let _s = tracer.span("matching", "matching.solve", 0);
        graph.solve()
    };
    run.metric("matching.solve_ms", ms_since(t), "ms");
    black_box(solution);

    let bitmaps: Vec<revmax_fim::Bitmap> = {
        let _s = tracer.span("core", "core.item_raters", 0);
        (0..market.n_items() as u32).map(|i| market.item_raters(i)).collect()
    };
    let db = revmax_fim::TransactionDb::from_item_bitmaps(market.n_users(), bitmaps);
    let minsup = revmax_fim::relative_minsup(0.001, market.n_users());
    let t = Instant::now();
    let itemsets = {
        let _s = tracer.span("fim", "fim.mine_maximal", 0);
        revmax_fim::mine_maximal_with_threads(&db, minsup, 1)
    };
    run.metric("fim.mine_maximal_ms", ms_since(t), "ms");
    run.metric("fim.itemsets", itemsets.len() as f64, "count");
}
