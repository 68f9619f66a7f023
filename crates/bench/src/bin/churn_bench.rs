//! Churn-path benchmark and verifier (`DESIGN.md` §10): apply delta
//! batches through the `MarketLog` and race the **incremental** path
//! (log snapshot → `LiveEngine` re-solve with its retained outcome
//! cache → recompile + hot-swap the serving index) against the **cold**
//! path (rebuild the arena → solve every cell from scratch → compile a
//! fresh index).
//!
//! ```sh
//! churn_bench scale=small batch=0.01 batches=5 gate=on json=churn_ci.json
//! ```
//!
//! Keys (all `key=value`): `scale` (tiny|small|medium), `seed`, `theta`,
//! `methods` (CSV of registry names/aliases), `cohorts`, `batch` (fraction
//! of consumers churned per batch), `batches` (number of delta batches),
//! `max_ratio` (gate: total incremental wall-clock must be ≤
//! this fraction of cold), `gate` (on|off), `json` (BENCH_JSON export; the
//! `BENCH_JSON` env var works too).
//!
//! Verification (always on, exit 1 on violation): after **every** batch
//! the incremental resolve must render a [`canonical`] report bit-identical
//! to the cold resolve of the same market, and the swapped serving index
//! must answer `expected_revenue_all` bit-identically to the cold-compiled
//! index — the tentpole parity guarantee. The `gate=on` wall-clock check
//! backs the CI `churn-smoke` leg together with `perf_check` (ids
//! `churn_<scale>/b<batches>/{incremental, cold}`).
//!
//! [`canonical`]: revmax_engine::LiveReport::canonical

use revmax_bench::cli::unknown_key_msg;
use revmax_core::market::Market;
use revmax_core::marketlog::{Event, MarketLog};
use revmax_engine::report::{write_bench_json, BenchEntry};
use revmax_engine::{LiveEngine, ScaleSpec};
use revmax_serve::{MenuIndex, ServeHandle};
use std::time::Instant;

struct Args {
    scale: ScaleSpec,
    seed: u64,
    theta: f64,
    methods: Vec<String>,
    cohorts: usize,
    batch: f64,
    batches: usize,
    max_ratio: f64,
    gate: bool,
    json: Option<String>,
}

const KEYS: [&str; 10] = [
    "scale",
    "seed",
    "theta",
    "methods",
    "cohorts",
    "batch",
    "batches",
    "max_ratio",
    "gate",
    "json",
];

fn parse_args() -> Args {
    let mut args = Args {
        scale: ScaleSpec::Small,
        seed: 2015,
        theta: 0.05,
        methods: vec!["components".into(), "mixed_greedy".into()],
        cohorts: 4,
        batch: 0.01,
        batches: 5,
        max_ratio: 0.8,
        gate: false,
        json: std::env::var("BENCH_JSON").ok().filter(|p| !p.is_empty()),
    };
    for arg in std::env::args().skip(1) {
        if arg == "--help" || arg == "-h" {
            eprintln!(
                "usage: churn_bench [scale=small] [seed=2015] [theta=0.05] \
                 [methods=components,mixed_greedy] [cohorts=4] [batch=0.01] [batches=5] \
                 [max_ratio=0.8] [gate=off] [json=FILE]"
            );
            std::process::exit(0);
        }
        let (key, value) = arg
            .split_once('=')
            .unwrap_or_else(|| fail(&format!("expected key=value, got '{arg}'")));
        match key {
            "scale" => args.scale = ScaleSpec::parse(value).unwrap_or_else(|e| fail(&e)),
            "seed" => args.seed = parse_num(key, value),
            "theta" => args.theta = parse_num(key, value),
            "methods" => {
                args.methods =
                    value.split(',').filter(|s| !s.is_empty()).map(String::from).collect();
                if args.methods.is_empty() {
                    fail("methods list is empty");
                }
            }
            "cohorts" => args.cohorts = parse_num(key, value),
            "batch" => {
                args.batch = parse_num(key, value);
                if !(args.batch > 0.0 && args.batch <= 1.0) {
                    fail(&format!("batch must be in (0, 1], got {}", args.batch));
                }
            }
            "batches" => args.batches = parse_num::<usize>(key, value).max(1),
            "max_ratio" => args.max_ratio = parse_num(key, value),
            "gate" => {
                args.gate = match value {
                    "on" | "true" | "1" => true,
                    "off" | "false" | "0" => false,
                    _ => fail(&format!("bad gate '{value}' (on|off)")),
                }
            }
            "json" => args.json = Some(value.into()),
            other => fail(&unknown_key_msg(other, &KEYS)),
        }
    }
    args
}

fn parse_num<T: std::str::FromStr>(key: &str, value: &str) -> T {
    value.parse().unwrap_or_else(|_| fail(&format!("bad {key} '{value}'")))
}

/// The deterministic delta batch `b`: upsert the churned fraction of
/// consumers (stride over the user axis, offset by the batch number so
/// consecutive batches touch different rows) and delete one rated cell —
/// every event type the hot path serves, reproducible from the CLI args
/// alone.
fn churn_batch(market: &Market, frac: f64, b: usize) -> Vec<Event> {
    let w = market.wtp();
    let n = market.n_users();
    let step = ((1.0 / frac).round() as usize).clamp(1, n.max(1));
    let bump = 1.0 + 0.05 * (b + 1) as f64;
    let mut events: Vec<Event> = (0..n)
        .skip(b % step)
        .step_by(step)
        .filter_map(|u| {
            let row = w.row(u as u32);
            row.ids.first().map(|&item| Event::UpsertWtp {
                user: u as u32,
                item,
                wtp: row.values[0] * bump,
            })
        })
        .collect();
    // One delete per batch (from the tail of the stride, so it does not
    // collide with the upserts above).
    if let Some(u) = (0..n).rev().find(|&u| w.row(u as u32).ids.len() > 1) {
        let row = w.row(u as u32);
        events.push(Event::DeleteWtp { user: u as u32, item: row.ids[row.ids.len() - 1] });
    }
    events
}

fn main() {
    let args = parse_args();
    let t0 = Instant::now();
    let data = args.scale.config().generate(args.seed);
    let base = revmax_engine::market_from_data(&data, args.theta);
    let methods: Vec<&str> = args.methods.iter().map(String::as_str).collect();

    // Warm path state: the retained engine, the event log, the serve slot.
    let mut live = LiveEngine::new(&methods, args.cohorts).unwrap_or_else(|e| fail(&e));
    let initial = live.resolve(&base).unwrap_or_else(|e| fail(&e));
    let handle = ServeHandle::new(MenuIndex::compile(&base, &initial.cells[0].outcome.config));
    let mut log = MarketLog::new(base);
    println!(
        "base:    {} users x {} items — {} cells solved in {:.2?}",
        log.base().n_users(),
        log.base().n_items(),
        initial.cells.len(),
        t0.elapsed()
    );

    let mut failures = 0usize;
    let mut incr_ns: Vec<u128> = Vec::new();
    let mut cold_ns: Vec<u128> = Vec::new();

    for b in 0..args.batches {
        let batch = churn_batch(log.base(), args.batch, b);
        log.apply_batch(batch.iter().copied()).unwrap_or_else(|e| fail(&e));

        // Incremental: log snapshot → retained re-solve → recompile the
        // served menu from the churned market → hot-swap.
        let t = Instant::now();
        let churned = log.snapshot();
        let inc = live.resolve(&churned).unwrap_or_else(|e| fail(&e));
        handle.swap(MenuIndex::compile(&churned, &inc.cells[0].outcome.config));
        let t_incr = t.elapsed().as_nanos();

        // Cold: rebuilt arena, fresh engine, fresh index.
        let t = Instant::now();
        let cold_market = churned.with_wtp(churned.wtp().compact());
        let mut cold_engine = LiveEngine::new(&methods, args.cohorts).unwrap_or_else(|e| fail(&e));
        let cold = cold_engine.resolve(&cold_market).unwrap_or_else(|e| fail(&e));
        let cold_index = MenuIndex::compile(&cold_market, &cold.cells[0].outcome.config);
        let t_cold = t.elapsed().as_nanos();

        // Parity: the tentpole guarantee, checked every batch.
        if inc.canonical() != cold.canonical() {
            eprintln!("FAIL: batch {b}: incremental resolve diverged from cold rebuild");
            failures += 1;
        }
        let served = handle.current().expected_revenue_all();
        if served.to_bits() != cold_index.expected_revenue_all().to_bits() {
            eprintln!("FAIL: batch {b}: served revenue diverged from cold-compiled index");
            failures += 1;
        }

        println!(
            "batch {b}: {} events, {} of {} cells re-solved — incr {:.2} ms vs cold {:.2} ms ({:.0}%)",
            batch.len(),
            inc.stats.misses,
            inc.cells.len(),
            t_incr as f64 / 1e6,
            t_cold as f64 / 1e6,
            100.0 * t_incr as f64 / t_cold as f64
        );
        incr_ns.push(t_incr);
        cold_ns.push(t_cold);
    }

    let sum = |v: &[u128]| v.iter().sum::<u128>();
    let stats =
        |v: &[u128]| (*v.iter().min().unwrap(), sum(v) / v.len() as u128, *v.iter().max().unwrap());
    let (imin, imean, imax) = stats(&incr_ns);
    let (cmin, cmean, cmax) = stats(&cold_ns);
    let prefix = format!("churn_{}/b{}", args.scale.name(), args.batches);
    let entries = vec![
        BenchEntry {
            id: format!("{prefix}/incremental"),
            mean_ns: imean,
            min_ns: imin,
            max_ns: imax,
            iters: args.batches as u64,
        },
        BenchEntry {
            id: format!("{prefix}/cold"),
            mean_ns: cmean,
            min_ns: cmin,
            max_ns: cmax,
            iters: args.batches as u64,
        },
    ];

    let ratio = sum(&incr_ns) as f64 / sum(&cold_ns) as f64;
    println!(
        "total: incremental {:.2} ms vs cold {:.2} ms — ratio {:.2} ({} retained solves)",
        sum(&incr_ns) as f64 / 1e6,
        sum(&cold_ns) as f64 / 1e6,
        ratio,
        live.cached_solves()
    );

    if let Some(path) = &args.json {
        write_bench_json(path, &entries)
            .unwrap_or_else(|e| fail(&format!("cannot write '{path}': {e}")));
        println!("wrote {} timing entries to {path}", entries.len());
    }

    if args.gate && ratio > args.max_ratio {
        eprintln!(
            "FAIL: incremental/cold wall-clock ratio {ratio:.2} exceeds max_ratio {}",
            args.max_ratio
        );
        failures += 1;
    }
    if failures > 0 {
        eprintln!("churn_bench: {failures} failure(s)");
        std::process::exit(1);
    }
    println!(
        "churn_bench: ok — {} batches bit-identical to cold rebuild at {:.0}% of its cost",
        args.batches,
        100.0 * ratio
    );
}

fn fail(msg: &str) -> ! {
    eprintln!("churn_bench: {msg}");
    std::process::exit(2);
}
