//! Batch multi-market sweep runner over the `revmax-engine` job DAG.
//!
//! The spec is a tiny hand-rolled `key=value` format (values CSV; see
//! `revmax_engine::spec`): every CLI argument is one assignment, and
//! `--spec <file>` loads a file of one-per-line assignments first (CLI
//! assignments override it, in order).
//!
//! ```sh
//! sweep methods=all scales=small cohorts=3 thetas=0,0.05 seeds=2015,2015 repeat=5
//! sweep --spec specs/fig2.spec scales=small
//! sweep --spec specs/tail.spec repeat=5 budget_ms=40 json=tail_ci.json
//! ```
//!
//! Prints the per-cell table with cache hit/miss counters and the job-DAG
//! summary. When `json=<path>` is given — or the `BENCH_JSON` environment
//! variable is set, matching the vendored criterion's export — the
//! whole-market solve timings are written there in the `BENCH_JSON`
//! interchange format (`sweep_<scale>/<recipe id>/<method>` ids, merged
//! with any entries already in the file), ready for `perf_check` to
//! compare against a committed baseline.
//!
//! Then every `gate=` of the spec is checked (`revmax_engine::gate`): a
//! violated gate prints the gate, the axis values and the two cells, and
//! exits 1. Bad arguments exit 2.

use revmax_engine::{gate, report, run_sweep, SweepSpec};

fn main() {
    let mut spec = SweepSpec::default();
    let mut json_path = std::env::var("BENCH_JSON").ok().filter(|p| !p.is_empty());
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--help" | "-h" => {
                eprintln!(
                    "usage: sweep [--spec FILE] [key=value ...]\n\
                     (see crates/engine/src/spec.rs for the keys, crates/engine/src/gate.rs \
                     for gate=; json=PATH exports timings)"
                );
                return;
            }
            "--spec" => {
                let path = args.next().unwrap_or_else(|| fail("--spec requires a file path"));
                let text = std::fs::read_to_string(&path)
                    .unwrap_or_else(|e| fail(&format!("cannot read spec '{path}': {e}")));
                spec.apply_text(&text).unwrap_or_else(|e| fail(&format!("spec '{path}': {e}")));
            }
            other => {
                let (key, value) = other
                    .split_once('=')
                    .unwrap_or_else(|| fail(&format!("expected key=value, got '{other}'")));
                match key {
                    "json" => json_path = Some(value.to_string()),
                    _ => spec.apply(key, value).unwrap_or_else(|e| fail(&e)),
                }
            }
        }
    }

    let report = run_sweep(&spec).unwrap_or_else(|e| fail(&e));
    print!("{}", report.render_table());

    if let Some(path) = json_path {
        let entries = report.bench_entries();
        report::write_bench_json(&path, &entries)
            .unwrap_or_else(|e| fail(&format!("cannot write '{path}': {e}")));
        println!("wrote {} timing entries to {path}", entries.len());
    }

    match gate::check_all(&spec.gates, &report) {
        Ok(summary) => print!("{summary}"),
        Err(e) => {
            eprintln!("sweep: {e}");
            std::process::exit(1);
        }
    }
}

fn fail(msg: &str) -> ! {
    eprintln!("sweep: {msg}");
    std::process::exit(2);
}
