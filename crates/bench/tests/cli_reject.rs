//! Behavioral check of the bench binaries' `key=value` front doors: an
//! unknown key must be a hard error (exit 2) that names the key — never a
//! silently ignored flag benchmarking the wrong shape — and a violated
//! sweep gate exits 1 naming the gate.

use std::process::Command;

fn run(bin: &str, args: &[&str]) -> (i32, String) {
    let out = Command::new(bin).args(args).output().expect("binary runs");
    (out.status.code().unwrap_or(-1), String::from_utf8_lossy(&out.stderr).into_owned())
}

#[test]
fn serve_bench_rejects_unknown_keys_by_name() {
    let (code, stderr) = run(env!("CARGO_BIN_EXE_serve_bench"), &["targetusers=1000"]);
    assert_eq!(code, 2, "stderr: {stderr}");
    assert!(stderr.contains("unknown key 'targetusers'"), "stderr: {stderr}");
    assert!(stderr.contains("did you mean 'target_users'?"), "stderr: {stderr}");
}

#[test]
fn serve_bench_rejects_non_key_value_arguments() {
    let (code, stderr) = run(env!("CARGO_BIN_EXE_serve_bench"), &["--scale"]);
    assert_eq!(code, 2, "stderr: {stderr}");
    assert!(stderr.contains("expected key=value"), "stderr: {stderr}");
}

#[test]
fn sweep_rejects_unknown_keys_with_a_suggestion() {
    let (code, stderr) = run(env!("CARGO_BIN_EXE_sweep"), &["objektives=mean"]);
    assert_eq!(code, 2, "stderr: {stderr}");
    assert!(stderr.contains("unknown spec key 'objektives'"), "stderr: {stderr}");
    assert!(stderr.contains("did you mean 'objectives'?"), "stderr: {stderr}");
}

#[test]
fn sweep_rejects_bad_objective_values_and_gates() {
    let (code, stderr) = run(env!("CARGO_BIN_EXE_sweep"), &["objective=cvar:1.5"]);
    assert_eq!(code, 2, "stderr: {stderr}");
    assert!(stderr.contains("CVaR level"), "stderr: {stderr}");
    let (code, stderr) = run(env!("CARGO_BIN_EXE_sweep"), &["gate=bogus"]);
    assert_eq!(code, 2, "stderr: {stderr}");
    assert!(stderr.contains("unknown gate 'bogus'"), "stderr: {stderr}");
}

#[test]
fn sweep_exits_1_on_a_false_gate_naming_it() {
    let spec = concat!(env!("CARGO_MANIFEST_DIR"), "/../../specs/table2.spec");
    let gate = "gate=le:coverage:methods:components:components_listed_prices";
    let (code, stderr) = run(env!("CARGO_BIN_EXE_sweep"), &["--spec", spec, gate]);
    assert_eq!(code, 1, "stderr: {stderr}");
    assert!(stderr.contains(&format!("gate '{}' FAILED", &gate[5..])), "stderr: {stderr}");
    assert!(stderr.contains("at methods=Components [Components small"), "stderr: {stderr}");
}

#[test]
fn churn_bench_rejects_unknown_keys_by_name() {
    let (code, stderr) = run(env!("CARGO_BIN_EXE_churn_bench"), &["cohort=3"]);
    assert_eq!(code, 2, "stderr: {stderr}");
    assert!(stderr.contains("unknown key 'cohort'"), "stderr: {stderr}");
    assert!(stderr.contains("did you mean 'cohorts'?"), "stderr: {stderr}");
}

#[test]
fn churn_bench_rejects_bad_values_naming_the_key() {
    let (code, stderr) = run(env!("CARGO_BIN_EXE_churn_bench"), &["batch=2.0"]);
    assert_eq!(code, 2, "stderr: {stderr}");
    assert!(stderr.contains("batch must be in (0, 1]"), "stderr: {stderr}");
}
