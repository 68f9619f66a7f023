//! Per-predicate gate fixtures: every gate kind must pass on a minimal
//! hand-built report that has the claimed shape and fail on one that
//! breaks it — no solver in the loop, so a fixture pins the predicate
//! alone.

use revmax_core::config::{BundleConfig, Strategy};
use revmax_engine::gate::Gate;
use revmax_engine::{
    CacheStats, CellResult, Cohort, DagSummary, ScaleSpec, SweepReport, SweepSpec,
};
use std::time::Duration;

/// A whole-market cell of `method` at the given spec values, with every
/// metric (coverage, gain, revenue, kupfer) set to `metric`.
fn cell(method: &str, axes: &[(&str, &str)], metric: f64) -> CellResult {
    let mut spec = SweepSpec::default();
    for (k, v) in axes {
        spec.apply(k, v).unwrap();
    }
    CellResult {
        method: method.into(),
        scale: ScaleSpec::Tiny,
        seed: 1,
        recipe: spec.recipes().unwrap()[0],
        cohort: Cohort::Whole,
        n_users: 1,
        n_items: 1,
        fingerprint: 0,
        revenue: metric,
        components_revenue: metric,
        coverage: metric,
        gain: metric,
        kupfer: metric,
        n_bundles: 0,
        config: BundleConfig { strategy: Strategy::Pure, roots: Vec::new() },
        config_canon: String::new(),
        cached: false,
        timing: None,
    }
}

fn report(cells: Vec<CellResult>) -> SweepReport {
    SweepReport {
        cells,
        cache: CacheStats::default(),
        dag: DagSummary { datasets: 0, markets: 0, partitions: 0, solves: 0, edges: 0 },
        threads: 1,
        wall: Duration::ZERO,
    }
}

/// Components and Pure Matching along θ ∈ {0, 0.05, 0.1}, interleaved in
/// report (grid) order, so each gate must group cells by method.
fn thetas(components: [f64; 3], pure: [f64; 3]) -> SweepReport {
    let mut cells = Vec::new();
    for (k, t) in ["0", "0.05", "0.1"].into_iter().enumerate() {
        cells.push(cell("Components", &[("thetas", t)], components[k]));
        cells.push(cell("Pure Matching", &[("thetas", t)], pure[k]));
    }
    report(cells)
}

/// Both Components baselines at λ ∈ {1, 2}.
fn lambdas(listed: [f64; 2], optimal: [f64; 2]) -> SweepReport {
    let mut cells = Vec::new();
    for (k, l) in ["1", "2"].into_iter().enumerate() {
        cells.push(cell("Components", &[("lambdas", l)], optimal[k]));
        cells.push(cell("Components (listed prices)", &[("lambdas", l)], listed[k]));
    }
    report(cells)
}

/// Components and Pure Matching at k ∈ {1, 2}.
fn caps(at_one: [f64; 2], at_two: [f64; 2]) -> SweepReport {
    let mut cells = Vec::new();
    for (c, v) in [("1", at_one), ("2", at_two)] {
        cells.push(cell("Components", &[("caps", c)], v[0]));
        cells.push(cell("Pure Matching", &[("caps", c)], v[1]));
    }
    report(cells)
}

/// A Pareto tail curve over α ∈ {4, 2.5, 1.7}.
fn tails(kupfer: [f64; 3]) -> SweepReport {
    let cells = ["4", "2.5", "1.7"]
        .into_iter()
        .zip(kupfer)
        .map(|(t, v)| cell("Components", &[("dists", "pareto"), ("tails", t)], v))
        .collect();
    report(cells)
}

/// `(gate, report with the shape, report without it)`.
fn cases() -> Vec<(&'static str, SweepReport, SweepReport)> {
    vec![
        (
            "up:coverage:thetas",
            thetas([0.5, 0.5, 0.5], [0.5, 0.6, 0.6]),
            thetas([0.5, 0.5, 0.5], [0.5, 0.7, 0.6]),
        ),
        (
            "down:gain:thetas",
            thetas([0.5, 0.5, 0.5], [0.7, 0.6, 0.6]),
            thetas([0.5, 0.4, 0.5], [0.7, 0.6, 0.6]),
        ),
        (
            // A dip in another method's curve is outside the filter.
            "flat:revenue:thetas@methods=components",
            thetas([9.0, 9.0, 9.0], [9.0, 8.0, 10.0]),
            thetas([9.0, 9.0, 9.001], [9.0, 9.0, 9.0]),
        ),
        (
            "le:coverage:methods:components_listed_prices:components",
            lambdas([0.55, 0.56], [0.79, 0.79]),
            lambdas([0.55, 0.80], [0.79, 0.79]),
        ),
        (
            // Only k = 1 is constrained; k = 2 may differ.
            "eq:coverage:methods:pure_matching:components@caps=1",
            caps([0.8, 0.8], [0.8, 0.9]),
            caps([0.8, 0.81], [0.8, 0.8]),
        ),
        ("tail", tails([0.65, 0.74, 0.86]), tails([0.65, 0.74, 0.73])),
    ]
}

#[test]
fn each_gate_passes_its_shape_and_fails_without_it() {
    for (text, good, bad) in cases() {
        let gate = Gate::parse(text).unwrap();
        if let Err(e) = gate.check(&good) {
            panic!("{text}: passing fixture failed: {e}");
        }
        let err = gate.check(&bad).expect_err(text);
        assert!(err.contains(&format!("gate '{text}' FAILED")), "{err}");
    }
}

#[test]
fn a_failure_names_the_axis_values_and_both_cells() {
    let gate = Gate::parse("up:coverage:thetas").unwrap();
    let err = gate.check(&thetas([0.5, 0.5, 0.5], [0.5, 0.7, 0.6])).unwrap_err();
    assert!(err.contains("0.7 at thetas=0.05 [Pure Matching tiny seed=1 theta0.05]"), "{err}");
    assert!(err.contains("0.6 at thetas=0.1 [Pure Matching tiny seed=1 theta0.1]"), "{err}");
}

#[test]
fn a_gate_that_compares_nothing_fails() {
    // No cell sits at k = 3, and a single-cell curve has no pair.
    let gate = Gate::parse("eq:coverage:methods:pure_matching:components@caps=3").unwrap();
    assert!(gate.check(&caps([0.8, 0.8], [0.8, 0.8])).unwrap_err().contains("no pair"));
    let gate = Gate::parse("up:kupfer:tails").unwrap();
    assert!(gate.check(&report(vec![cell("Components", &[], 1.0)])).is_err());
    // Cohort cells are outside every gate.
    let mut cohort_only = tails([0.65, 0.74, 0.73]);
    cohort_only.cells.iter_mut().for_each(|c| c.cohort = Cohort::Seg(0));
    assert!(gate.check(&cohort_only).unwrap_err().contains("no pair"));
}

#[test]
fn malformed_gates_are_rejected() {
    for bad in [
        "bogus",
        "up:coverage",
        "up:margin:thetas",
        "up:coverage:gammas",
        "le:coverage:methods:components",
        "eq:coverage:methods:no_such_method:components",
        "up:coverage:thetas@caps",
        "up:coverage:thetas@caps=zero",
    ] {
        assert!(Gate::parse(bad).is_err(), "{bad} parsed");
    }
}
