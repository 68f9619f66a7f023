//! Serving-layer load generator: solve a menu on a base market, scale the
//! consumer axis with `clone_users` to the millions, compile a
//! `MenuIndex`, and drive batched `expected_revenue` / `assign` queries
//! against it — verifying the serving determinism contract on the way.
//!
//! ```sh
//! serve_bench scale=small target_users=1000000 method=mixed_greedy \
//!             threads=1,2,8 repeat=3 json=serve_ci.json
//! ```
//!
//! Keys (all `key=value`): `scale` (tiny|small|medium), `seed`, `theta`,
//! `method` (registry name/alias), `factor` or `target_users` (clone
//! multiplier — `target_users` picks the smallest factor reaching it),
//! `threads` (CSV of serve fan-outs), `kernel` (tiled|rows|both — `both`
//! times each and cross-checks them bit-for-bit), `block` (tile block
//! width, 0 = default), `repeat` (timing repetitions), `json` (BENCH_JSON
//! export path; the `BENCH_JSON` env var works too).
//!
//! Verification (always on, exit 1 on violation):
//!
//! * **kernel determinism** — `expected_revenue(all)` and `assign(all)`
//!   must be bit-identical across every requested thread count (§6) *and*
//!   across kernels (`DESIGN.md` §12): with `kernel=both`, every user's
//!   payment bits and held-offer list are compared between the tile
//!   kernel and the row-walk reference;
//! * **clone linearity** — cloned consumers are identical, so the scaled
//!   revenue must equal `factor ×` the base-market revenue (up to
//!   summation reassociation);
//! * **solver parity** — core's solver-side menu evaluation on the
//!   scaled market runs the same evaluator, so it must equal the served
//!   total (itself bit-identical across the requested thread counts) to
//!   the bit.
//!
//! Timings export in the `BENCH_JSON` interchange format with ids
//! `serve_<scale>/x<factor>/{expected_revenue_t<N>, assign_t<N>,
//! solver_eval, compile}` — the same flow `perf_check` gates (CI's
//! `serve-smoke` leg).

use revmax_core::algorithms::by_name;
use revmax_dataset::scale::clone_users;
use revmax_engine::report::{write_bench_json, BenchEntry};
use revmax_engine::ScaleSpec;
use revmax_serve::{KernelKind, MenuIndex};
use std::time::Instant;

struct Args {
    scale: ScaleSpec,
    seed: u64,
    theta: f64,
    method: String,
    factor: Option<usize>,
    target_users: usize,
    threads: Vec<usize>,
    kernels: Vec<KernelKind>,
    block: usize,
    repeat: usize,
    json: Option<String>,
}

fn parse_args() -> Args {
    let mut args = Args {
        scale: ScaleSpec::Small,
        seed: 2015,
        theta: 0.0,
        method: "mixed_greedy".into(),
        factor: None,
        target_users: 1_000_000,
        threads: vec![1, 2, 8],
        kernels: vec![KernelKind::Tiled],
        block: 0,
        repeat: 3,
        json: std::env::var("BENCH_JSON").ok().filter(|p| !p.is_empty()),
    };
    for arg in std::env::args().skip(1) {
        if arg == "--help" || arg == "-h" {
            eprintln!(
                "usage: serve_bench [scale=small] [seed=2015] [theta=0] [method=mixed_greedy] \
                 [factor=N | target_users=1000000] [threads=1,2,8] [kernel=tiled|rows|both] \
                 [block=N] [repeat=3] [json=FILE]"
            );
            std::process::exit(0);
        }
        let (key, value) = arg
            .split_once('=')
            .unwrap_or_else(|| fail(&format!("expected key=value, got '{arg}'")));
        match key {
            "scale" => {
                args.scale = ScaleSpec::parse(value).unwrap_or_else(|e| fail(&e));
            }
            "seed" => args.seed = parse_num(key, value),
            "theta" => {
                args.theta =
                    value.parse().unwrap_or_else(|_| fail(&format!("bad theta '{value}'")));
            }
            "method" => args.method = value.into(),
            "factor" => args.factor = Some(parse_num::<usize>(key, value).max(1)),
            "target_users" => args.target_users = parse_num::<usize>(key, value).max(1),
            "threads" => {
                args.threads = value
                    .split(',')
                    .filter(|s| !s.is_empty())
                    .map(|s| parse_num::<usize>("threads", s).max(1))
                    .collect();
                if args.threads.is_empty() {
                    fail("threads list is empty");
                }
            }
            "kernel" => {
                args.kernels = match value.trim() {
                    "both" => vec![KernelKind::Tiled, KernelKind::Rows],
                    other => vec![KernelKind::parse(other).unwrap_or_else(|_| {
                        fail(&format!("bad kernel '{value}' (tiled|rows|both)"))
                    })],
                };
            }
            "block" => args.block = parse_num(key, value),
            "repeat" => args.repeat = parse_num::<usize>(key, value).max(1),
            "json" => args.json = Some(value.into()),
            other => fail(&revmax_bench::cli::unknown_key_msg(
                other,
                &[
                    "scale",
                    "seed",
                    "theta",
                    "method",
                    "factor",
                    "target_users",
                    "threads",
                    "kernel",
                    "block",
                    "repeat",
                    "json",
                ],
            )),
        }
    }
    args
}

fn parse_num<T: std::str::FromStr>(key: &str, value: &str) -> T {
    value.parse().unwrap_or_else(|_| fail(&format!("bad {key} '{value}'")))
}

/// Time `f` over `repeat` repetitions; returns (last result, min/mean/max ns).
fn timed<R>(repeat: usize, mut f: impl FnMut() -> R) -> (R, u128, u128, u128) {
    let mut ns: Vec<u128> = Vec::with_capacity(repeat);
    let mut out = None;
    for _ in 0..repeat {
        let t = Instant::now();
        out = Some(f());
        ns.push(t.elapsed().as_nanos());
    }
    let (min, max) = (*ns.iter().min().unwrap(), *ns.iter().max().unwrap());
    let mean = ns.iter().sum::<u128>() / ns.len() as u128;
    (out.unwrap(), min, mean, max)
}

fn entry(id: String, min: u128, mean: u128, max: u128, iters: u64) -> BenchEntry {
    BenchEntry { id, mean_ns: mean, min_ns: min, max_ns: max, iters }
}

fn main() {
    let args = parse_args();
    // Accept the sweep spec's aliases (`mixed_greedy`) as well as the
    // canonical registry names.
    let canonical = revmax_engine::spec::resolve_method(&args.method).unwrap_or_else(|e| fail(&e));
    let method =
        by_name(&canonical).unwrap_or_else(|| fail(&format!("unknown method '{}'", args.method)));

    // Base market + solve (the menu is configured at base scale; cloned
    // consumers change the load, not the item universe).
    let t0 = Instant::now();
    let base_data = args.scale.config().generate(args.seed);
    let base_market = revmax_engine::market_from_data(&base_data, args.theta);
    let outcome = method.run(&base_market);
    println!(
        "base:    {} users x {} items, {} ratings — {} solved to revenue {:.2} in {:.2?}",
        base_data.n_users(),
        base_data.n_items(),
        base_data.ratings().len(),
        outcome.algorithm,
        outcome.revenue,
        t0.elapsed()
    );

    // Scale the consumer axis.
    let factor = args
        .factor
        .unwrap_or_else(|| args.target_users.div_ceil(base_data.n_users().max(1)).max(1));
    let t0 = Instant::now();
    let data = clone_users(&base_data, factor);
    let market = revmax_engine::market_from_data(&data, args.theta);
    println!(
        "scaled:  x{} -> {} users, {} ratings (built in {:.2?})",
        factor,
        data.n_users(),
        data.ratings().len(),
        t0.elapsed()
    );

    let prefix = format!("serve_{}/x{}", args.scale.name(), factor);
    let mut entries: Vec<BenchEntry> = Vec::new();

    // Compile the index (timed; the store is Arc-shared, so this is the
    // flattening + postings cost, not a matrix copy). Compilation is
    // microsecond-scale, so it repeats more than the queries do — a
    // perf_check `stat=min` gate needs the minimum of enough repetitions
    // to be timer-noise-free.
    let compile_reps = args.repeat.max(50);
    let (index, min, mean, max) =
        timed(compile_reps, || MenuIndex::compile(&market, &outcome.config));
    entries.push(entry(format!("{prefix}/compile"), min, mean, max, compile_reps as u64));
    println!(
        "compile: {} offer nodes in {} trees, {} on sale ({:.3} ms)",
        index.n_nodes(),
        index.roots().len(),
        index.n_offers(),
        mean as f64 / 1e6
    );

    let users = index.all_users();
    let n = users.len();
    let mut failures = 0usize;

    // Batched expected revenue and assignment at every requested kernel ×
    // fan-out. All combinations must agree bit-for-bit: across thread
    // counts (§6) and across kernels (`DESIGN.md` §12) — with
    // `kernel=both` this is the tile-vs-rows parity gate CI runs.
    let mut revenue_bits: Option<u64> = None;
    let mut assign_baseline: Option<Vec<revmax_serve::Assignment>> = None;
    for &kernel in &args.kernels {
        // The tile kernel keeps the unsuffixed bench ids (`perf_check`
        // gates those); the row-walk reference exports alongside.
        let suffix = match kernel {
            KernelKind::Tiled => "",
            KernelKind::Rows => "_rows",
        };
        for &t in &args.threads {
            let idx = index.clone().with_threads(t).with_kernel(kernel).with_block(args.block);
            let (rev, min, mean, max) = timed(args.repeat, || idx.expected_revenue(&users));
            entries.push(entry(
                format!("{prefix}/expected_revenue_t{t}{suffix}"),
                min,
                mean,
                max,
                args.repeat as u64,
            ));
            println!(
                "expected_revenue {:>5} t={t}: {:.2} in {:.1} ms (min) — {:.2}M users/s",
                kernel.name(),
                rev,
                min as f64 / 1e6,
                n as f64 / (min as f64 / 1e9) / 1e6
            );
            match revenue_bits {
                None => revenue_bits = Some(rev.to_bits()),
                Some(bits) if bits != rev.to_bits() => {
                    eprintln!(
                        "FAIL: expected_revenue ({} kernel, {t} threads) diverged: {rev} vs {}",
                        kernel.name(),
                        f64::from_bits(bits)
                    );
                    failures += 1;
                }
                Some(_) => {}
            }

            // Batched assignment at the same combination. Per-user parity
            // is the strong check: payment bits and the held-offer list
            // must match the first combination exactly.
            let (assignments, min, mean, max) = timed(args.repeat, || idx.assign(&users));
            entries.push(entry(
                format!("{prefix}/assign_t{t}{suffix}"),
                min,
                mean,
                max,
                args.repeat as u64,
            ));
            let offered: usize = assignments.iter().map(|a| a.offers.len()).sum();
            println!(
                "assign           {:>5} t={t}: {} assignments, {} held offers in {:.1} ms (min) — {:.2}M users/s",
                kernel.name(),
                assignments.len(),
                offered,
                min as f64 / 1e6,
                n as f64 / (min as f64 / 1e9) / 1e6
            );
            match &assign_baseline {
                None => assign_baseline = Some(assignments),
                Some(base) => {
                    let diverged = base
                        .iter()
                        .zip(&assignments)
                        .filter(|(a, b)| {
                            a.payment.to_bits() != b.payment.to_bits() || a.offers != b.offers
                        })
                        .count();
                    if diverged > 0 {
                        eprintln!(
                            "FAIL: assign ({} kernel, {t} threads) diverged from the first \
                             combination on {diverged} user(s)",
                            kernel.name()
                        );
                        failures += 1;
                    }
                }
            }
        }
    }
    let served = f64::from_bits(revenue_bits.expect("at least one thread count"));

    // Clone linearity: identical clones ⇒ revenue scales exactly with the
    // factor (up to summation reassociation).
    let base_index = MenuIndex::compile(&base_market, &outcome.config);
    let base_rev = base_index.expected_revenue_all();
    let expect = base_rev * factor as f64;
    let tol = 1e-8 * expect.abs().max(1.0);
    if (served - expect).abs() > tol {
        eprintln!("FAIL: clone linearity: served {served} vs {factor} x {base_rev} = {expect}");
        failures += 1;
    }

    // Solver parity: core's menu evaluation on the full scaled market
    // (repeated like the serve queries — a single-rep minimum is too
    // noisy for the perf gate). One evaluator, so the bits must match.
    let (solver, min, mean, max) = timed(args.repeat, || outcome.config.expected_revenue(&market));
    entries.push(entry(format!("{prefix}/solver_eval"), min, mean, max, args.repeat as u64));
    println!(
        "solver-side evaluation: {:.2} in {:.1} ms — bit-identical to serving: {}",
        solver,
        min as f64 / 1e6,
        solver.to_bits() == served.to_bits()
    );
    if solver.to_bits() != served.to_bits() {
        eprintln!("FAIL: solver parity: served {served} vs solver-side {solver}");
        failures += 1;
    }

    if let Some(path) = &args.json {
        write_bench_json(path, &entries)
            .unwrap_or_else(|e| fail(&format!("cannot write '{path}': {e}")));
        println!("wrote {} timing entries to {path}", entries.len());
    }

    if failures > 0 {
        eprintln!("serve_bench: {failures} verification failure(s)");
        std::process::exit(1);
    }
    println!("serve_bench: ok — {} users served bit-identically at {:?} threads", n, args.threads);
}

fn fail(msg: &str) -> ! {
    eprintln!("serve_bench: {msg}");
    std::process::exit(2);
}
