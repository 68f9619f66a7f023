//! The revmax benchmark: one command, three workloads, end-to-end metrics
//! (untraced run) or per-layer metrics from spans (traced run).
//!
//! ```sh
//! cargo run --release --manifest-path perfbench/bench/Cargo.toml -- \
//!     --workload solve|serve|daemon --seed N --seconds S --trace 0|1
//! cargo run --release --manifest-path perfbench/bench/Cargo.toml -- --selfcheck
//! ```
//!
//! Run from the repository root. The last line of standard output is one
//! JSON object: `correct`, `attempted`, `failed` and `metrics`. The traced
//! run also writes `perfbench/out/trace_<workload>_<seed>.json`. See
//! `perfbench/README.md` for what each workload and metric means.

mod daemon;
mod report;
mod serve;
mod solve;
mod trace;

use report::Run;
use trace::Tracer;

/// One run's settings.
pub struct Cfg {
    pub seed: u64,
    /// How long the measured section runs.
    pub seconds: f64,
    /// Tiny inputs and short phases, for the self-check.
    pub tiny: bool,
}

/// The seed of segment `k` of a workload that spreads its consumers over
/// several independently generated markets; segment 0 uses the run's seed.
pub fn segment_seed(seed: u64, k: u64) -> u64 {
    seed ^ k.wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

pub const WORKLOADS: [&str; 3] = ["solve", "serve", "daemon"];

/// The workloads `BENCHMARK.json` lists (`solve` runs on request only).
const RUNNER_WORKLOADS: [&str; 2] = ["serve", "daemon"];

/// End-to-end metrics (untraced run): every workload reports every one.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("revenue_lift", "x"),
    ("latency_ms", "ms"),
    ("rate_per_s", "1/s"),
];

/// Per-layer metrics (traced run). A workload whose traced run makes no
/// such call reports 0.
pub const PER_LAYER: [(&str, &str); 58] = [
    ("dataset.generate_ms", "ms"),
    ("dataset.clone_users_ms", "ms"),
    ("core.csr_build_ms", "ms"),
    ("core.nnz", "count"),
    ("core.solve.components_ms", "ms"),
    ("core.solve.pure_matching_ms", "ms"),
    ("core.solve.pure_greedy_ms", "ms"),
    ("core.solve.mixed_matching_ms", "ms"),
    ("core.solve.mixed_greedy_ms", "ms"),
    ("core.solve.pure_freqitemset_ms", "ms"),
    ("core.solve.mixed_freqitemset_ms", "ms"),
    ("core.co_rated_pairs_ms", "ms"),
    ("core.pairs", "count"),
    ("core.price_pure_us", "us"),
    ("core.price_pure_calls", "count"),
    ("fim.mine_maximal_ms", "ms"),
    ("fim.itemsets", "count"),
    ("matching.solve_ms", "ms"),
    ("engine.sweep_self_ms", "ms"),
    ("core.config_eval_ms", "ms"),
    ("serve.compile_us", "us"),
    ("serve.expected_revenue_ms", "ms"),
    ("serve.assign_ms", "ms"),
    ("serve.held_offers", "count"),
    ("serve.payments_ms", "ms"),
    ("serve.marginal_ms", "ms"),
    ("serve.point_assign_us", "us"),
    ("serve.point_revenue_us", "us"),
    ("proto.encode_us", "us"),
    ("proto.decode_us", "us"),
    ("daemon.wire_queue_us", "us"),
    ("daemon.coalesced_frac", "fraction"),
    ("daemon.shed", "count"),
    ("daemon.query_p50_ms", "ms"),
    ("daemon.query_p99_ms", "ms"),
    ("daemon.mutate_ack_p50_ms", "ms"),
    ("daemon.fresh_p50_ms", "ms"),
    ("daemon.gen_late_p99_ms", "ms"),
    ("daemon.client_bound", "flag"),
    ("core.marketlog.apply_us", "us"),
    ("core.snapshot_ms", "ms"),
    ("engine.resolve_ms", "ms"),
    ("engine.resolve_hit_frac", "fraction"),
    ("engine.invalidated_cells", "count"),
    ("serve.swap_us", "us"),
    ("par.serve_speedup_t2", "x"),
    ("par.sweep_speedup_t2", "x"),
    ("bench.error_frac", "fraction"),
    ("trace.child_coverage", "fraction"),
    ("trace.overhead_frac", "fraction"),
    ("self.dataset_ms", "ms"),
    ("self.core_ms", "ms"),
    ("self.matching_ms", "ms"),
    ("self.fim_ms", "ms"),
    ("self.par_ms", "ms"),
    ("self.engine_ms", "ms"),
    ("self.serve_ms", "ms"),
    ("self.bench_ms", "ms"),
];

/// Run one workload; returns the run and the traced report's path.
fn run_workload(name: &str, cfg: &Cfg, traced: bool) -> (Run, Option<std::path::PathBuf>) {
    let tracer = Tracer::new(traced);
    let mut run = Run::default();
    let root = tracer.span("bench", &format!("workload.{name}"), 0);
    let root_id = root.id();
    match name {
        "solve" => solve::run(cfg, &tracer, &mut run),
        "serve" => serve::run(cfg, &tracer, &mut run),
        "daemon" => daemon::run(cfg, &tracer, &mut run),
        other => unreachable!("workload '{other}' was validated"),
    }
    drop(root);
    run.metric("peak_rss_mb", report::peak_rss_mb(), "MB");
    let error_frac = run.failed as f64 / run.attempted.max(1) as f64;
    run.note(format!(
        "{name}: error_frac {error_frac} ({} failed of {} attempted)",
        run.failed, run.attempted
    ));
    if !traced {
        return (run, None);
    }
    run.metric("bench.error_frac", error_frac, "fraction");
    let spans = tracer.spans();
    let root_id = root_id.expect("traced root span");
    run.metric("trace.child_coverage", trace::child_coverage(&spans, root_id), "fraction");
    for (layer, ms) in trace::layer_self_ms(&spans) {
        run.metric(&format!("self.{layer}_ms"), ms, "ms");
    }
    // A per-layer metric this workload's traced run does not measure
    // reads 0: the workload makes no such call.
    for (metric, unit) in PER_LAYER {
        if !run.metrics.iter().any(|(n, _, _)| n == metric) {
            run.metric(metric, 0.0, unit);
        }
    }
    let path = std::path::PathBuf::from(format!("perfbench/out/trace_{name}_{}.json", cfg.seed));
    if let Err(e) = report::write_trace(&path, name, cfg.seed, &tracer, root_id, &run) {
        run.note(format!("cannot write {}: {e}", path.display()));
        run.ops(1, 1);
    }
    (run, Some(path))
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    selfcheck: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args =
        Args { workload: String::new(), seed: 2015, seconds: 10.0, trace: false, selfcheck: false };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--selfcheck" {
            args.selfcheck = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("bad {what} '{value}'");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| bad("seed"))?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|_| bad("seconds"))?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err(bad("seconds"));
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("trace")),
                }
            }
            other => return Err(format!("unknown flag '{other}'")),
        }
    }
    if !args.selfcheck && !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!("--workload must be one of {WORKLOADS:?}"));
    }
    Ok(args)
}

fn main() {
    let args = parse_args().unwrap_or_else(|e| {
        eprintln!("perfbench: {e}");
        eprintln!(
            "usage: perfbench --workload solve|serve|daemon --seed N --seconds S --trace 0|1\n       \
             perfbench --selfcheck"
        );
        std::process::exit(2);
    });
    if args.selfcheck {
        std::process::exit(match selfcheck() {
            Ok(()) => {
                println!("selfcheck: ok");
                0
            }
            Err(e) => {
                eprintln!("selfcheck FAILED: {e}");
                1
            }
        });
    }
    let cfg = Cfg { seed: args.seed, seconds: args.seconds, tiny: false };
    let (run, path) = run_workload(&args.workload, &cfg, args.trace);
    for n in &run.notes {
        println!("{n}");
    }
    if let Some(p) = path {
        println!("trace written to {}", p.display());
    }
    let keep: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    if let Some((m, _)) = keep.iter().find(|(m, _)| !run.metrics.iter().any(|(n, _, _)| n == m)) {
        eprintln!("perfbench: metric {m} was not measured");
        std::process::exit(1);
    }
    println!("{}", run.result_line(keep));
}

/// Every correctness check each workload runs, by name; the `serve`
/// traced run also makes the solver-layer checks.
const CHECKS: [(&str, &[&str]); 3] =
    [("solve", &SOLVE_CHECKS), ("serve", &SERVE_CHECKS), ("daemon", &DAEMON_CHECKS)];
const SOLVE_CHECKS: [&str; 3] =
    ["solve.sweeps_bit_identical", "solve.revenue_ge_components", "solve.cells_match_direct_runs"];
const SERVE_CHECKS: [&str; 4] = [
    "serve.rounds_bit_identical",
    "serve.tiled_matches_rows_reference",
    "serve.clone_linearity",
    "serve.solver_parity",
];
const DAEMON_CHECKS: [&str; 7] = [
    "daemon.no_request_dropped",
    "daemon.answers_well_formed",
    "daemon.mutations_acked",
    "daemon.malformed_frame_typed_error",
    "daemon.out_of_range_typed_error",
    "daemon.churn_drained",
    "daemon.all_matches_cold_rebuild",
];

/// Run every workload at tiny scale, untraced and traced; fail if a
/// check fails or is skipped, or a metric is missing or not finite, or
/// the metric lists disagree with `BENCHMARK.json`.
fn selfcheck() -> Result<(), String> {
    let manifest = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("BENCHMARK.json (run from the repository root): {e}"))?;
    for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
        let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
        if !manifest.contains(&entry) {
            return Err(format!("BENCHMARK.json lacks {entry}"));
        }
    }
    let listed = manifest.matches("\"unit\":").count();
    if listed != END_TO_END.len() + PER_LAYER.len() {
        return Err(format!(
            "BENCHMARK.json lists {listed} metrics, the benchmark measures {}",
            END_TO_END.len() + PER_LAYER.len()
        ));
    }
    for w in RUNNER_WORKLOADS {
        if !manifest.contains(&format!("\"name\": \"{w}\"")) {
            return Err(format!("BENCHMARK.json lacks workload {w}"));
        }
    }
    let cfg = Cfg { seed: 7, seconds: 1.0, tiny: true };
    for (w, checks) in CHECKS {
        for traced in [false, true] {
            let t = std::time::Instant::now();
            let (run, _) = run_workload(w, &cfg, traced);
            let keep: &[(&str, &str)] = if traced { &PER_LAYER } else { &END_TO_END };
            for (m, _) in keep {
                match run.metrics.iter().find(|(n, _, _)| n == m) {
                    Some((_, v, _)) if v.is_finite() => {}
                    Some((_, v, _)) => return Err(format!("{w}: metric {m} = {v}")),
                    None => return Err(format!("{w}: metric {m} skipped")),
                }
            }
            if !traced {
                if let Some((m, _)) = END_TO_END
                    .iter()
                    .find(|(m, _)| run.metrics.iter().any(|(n, v, _)| n == m && *v <= 0.0))
                {
                    return Err(format!("{w}: end-to-end metric {m} is not positive"));
                }
            }
            let traced_extra: &[&str] =
                if traced && w == "serve" { &SOLVE_CHECKS[1..] } else { &[] };
            for c in checks.iter().chain(traced_extra) {
                match run.checks.iter().find(|(n, _)| n == c) {
                    Some((_, true)) => {}
                    Some((_, false)) => {
                        return Err(format!("{w}: check {c} failed: {:?}", run.notes))
                    }
                    None => return Err(format!("{w}: check {c} skipped")),
                }
            }
            if !run.correct() {
                return Err(format!("{w}: {} failed operations: {:?}", run.failed, run.notes));
            }
            println!(
                "selfcheck: {w} trace={} ok in {:.1}s ({} checks, {} metrics)",
                u8::from(traced),
                t.elapsed().as_secs_f64(),
                run.checks.len(),
                keep.len()
            );
        }
    }
    Ok(())
}
