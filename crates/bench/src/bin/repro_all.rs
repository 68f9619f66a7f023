//! **repro_all** — run every experiment binary with its defaults and every
//! committed sweep spec (`specs/*.spec`, through `sweep`), capture stdout
//! under `results/`, and print Table 3 (the default parameters).
//!
//! Sibling binaries are located next to this executable (same cargo target
//! directory), so run via `cargo run --release -p revmax-bench --bin
//! repro_all` after `cargo build --release`. `--flag value` arguments go
//! to the binaries, `key=value` arguments to every `sweep` run (e.g.
//! `scales=medium`).

use revmax_core::prelude::*;
use std::io::Write;
use std::process::Command;

const BINARIES: &[&str] = &[
    "table1_example",
    "fig1_adoption_curves",
    "fig3_gamma_sweep",
    "fig6_revenue_vs_time",
    "fig7_scalability",
    "table45_wsp",
    "table6_case_study",
    "ablation_pruning",
    "ablation_greedy_stop",
    "ablation_objective",
];

/// The committed paper-figure specs.
const SPECS: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../specs");

fn print_table3() {
    let p = Params::default();
    println!("== Table 3 — default parameter settings ==");
    println!("lambda (conversion factor)        = {}", p.lambda);
    println!("theta  (bundling coefficient)     = {}", p.theta);
    println!("k      (max bundle size)          = {:?}", p.size_cap);
    println!("gamma  (price sensitivity)        = {:e}  (step function)", p.gamma);
    println!("alpha  (adoption bias)            = {}  (unbiased)", p.adoption_bias);
    println!("epsilon                           = {:e}", p.epsilon);
    println!("T      (price levels)             = {}", p.price_levels);
    println!();
}

fn main() {
    print_table3();
    let exe = std::env::current_exe().expect("current_exe");
    let dir = exe.parent().expect("target dir").to_path_buf();
    let (sweep_args, bin_args): (Vec<String>, Vec<String>) =
        std::env::args().skip(1).partition(|a| !a.starts_with("--") && a.contains('='));
    std::fs::create_dir_all("results").expect("results dir");

    let mut runs: Vec<(String, String, Vec<String>)> =
        BINARIES.iter().map(|b| (b.to_string(), b.to_string(), bin_args.clone())).collect();
    let mut specs: Vec<_> = std::fs::read_dir(SPECS)
        .expect("specs dir")
        .map(|e| e.expect("spec entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "spec"))
        .collect();
    specs.sort();
    for spec in specs {
        let name = spec.file_stem().expect("spec name").to_string_lossy().into_owned();
        let mut args = vec!["--spec".to_string(), spec.display().to_string()];
        args.extend(sweep_args.iter().cloned());
        runs.push((format!("spec_{name}"), "sweep".into(), args));
    }

    let mut failures = Vec::new();
    for (label, bin, args) in &runs {
        let path = dir.join(bin);
        if !path.exists() {
            eprintln!("skipping {label}: {bin} not built (run `cargo build --release` first)");
            failures.push(label.clone());
            continue;
        }
        println!(">>> {bin} {}", args.join(" "));
        let t0 = std::time::Instant::now();
        let output = Command::new(&path).args(args).output().expect("spawn");
        let log = std::path::Path::new("results").join(format!("{label}.txt"));
        let mut f = std::fs::File::create(&log).expect("log file");
        f.write_all(&output.stdout).unwrap();
        f.write_all(&output.stderr).unwrap();
        print!("{}", String::from_utf8_lossy(&output.stdout));
        if !output.status.success() {
            eprintln!("!!! {label} FAILED: {}", String::from_utf8_lossy(&output.stderr));
            failures.push(label.clone());
        }
        println!("<<< {label} finished in {:?}\n", t0.elapsed());
    }
    if failures.is_empty() {
        println!("all {} experiments completed; outputs in results/", runs.len());
    } else {
        println!("completed with failures: {failures:?}");
        std::process::exit(1);
    }
}
