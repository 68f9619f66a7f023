//! Every committed paper-figure spec (`specs/*.spec`) parses, validates,
//! runs, and passes its shape gates, so renaming an axis key or breaking
//! a claimed shape fails `cargo test` and not only the CI `paper-shapes`
//! leg. The specs run as committed, at small scale (about a second for
//! all six): the heavy-tail gate needs more consumers than the tiny
//! preset's 48, where the seed-2015 Kupfer curve dips from 0.752 to 0.743
//! between α = 2.5 and 1.7.

use revmax_engine::{gate, run_sweep, SweepSpec};
use std::path::PathBuf;

fn committed_specs() -> Vec<(PathBuf, SweepSpec)> {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../specs");
    let mut paths: Vec<PathBuf> = std::fs::read_dir(dir)
        .expect("specs directory")
        .map(|e| e.expect("spec entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "spec"))
        .collect();
    paths.sort();
    paths
        .into_iter()
        .map(|path| {
            let text = std::fs::read_to_string(&path).expect("readable spec");
            let mut spec = SweepSpec::default();
            spec.apply_text(&text).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
            spec.validate().unwrap_or_else(|e| panic!("{}: {e}", path.display()));
            (path, spec)
        })
        .collect()
}

#[test]
fn every_committed_spec_runs_and_passes_its_gates() {
    let specs = committed_specs();
    assert!(specs.len() >= 6, "expected the six paper specs, found {}", specs.len());
    for (path, spec) in specs {
        assert!(!spec.gates.is_empty(), "{} gates nothing", path.display());
        let report = run_sweep(&spec).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        if let Err(e) = gate::check_all(&spec.gates, &report) {
            panic!("{}: {e}", path.display());
        }
    }
}

#[test]
fn every_market_axis_beyond_the_originals_has_a_committed_spec() {
    let specs = committed_specs();
    for key in ["lambdas", "caps", "biases", "levels", "pricing"] {
        let k = revmax_engine::spec::axis_index(key).unwrap();
        assert!(
            specs.iter().any(|(_, s)| !s.axes[k].is_empty()),
            "no committed spec sweeps '{key}'"
        );
    }
}
