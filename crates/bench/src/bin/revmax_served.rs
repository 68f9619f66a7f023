//! `revmax-served` — stand up the serving daemon (`DESIGN.md` §11) on a
//! generated market and run until a `Shutdown` frame arrives.
//!
//! ```sh
//! revmax-served addr=127.0.0.1:7411 scale=tiny workers=2 &
//! loadgen addr=127.0.0.1:7411 scale=tiny shutdown=on
//! ```
//!
//! Keys (all `key=value`): `addr` (bind address; port 0 picks an
//! ephemeral port, which is printed), `scale` (tiny|small|medium),
//! `seed`, `theta`, `methods` (CSV of registry names/aliases; the first
//! method's whole-market cell is the served menu), `cohorts`, `workers`
//! (how many queries may execute at once; connection threads run them,
//! there are no worker threads), `queue` (bounded request-queue capacity
//! — the admission-control knob; it also caps the mutation batches
//! waiting for the churn thread), `coalesce` (max extra same-kind
//! requests per drained run; 0 disables), `query_threads`
//! (`revmax-par` threads per kernel call; results are bit-identical at
//! any value), `compact_at` (`MarketLog` compaction threshold; 0
//! disables).
//!
//! The daemon solves once up front, prints `listening on <addr>`, and
//! from then on every swap happens off the request path in the churn
//! thread. The process exits 0 after a clean `Shutdown` drain.

use revmax_bench::cli::unknown_key_msg;
use revmax_engine::ScaleSpec;
use revmax_serve::{Daemon, DaemonConfig};

struct Args {
    addr: String,
    scale: ScaleSpec,
    seed: u64,
    theta: f64,
    cfg: DaemonConfig,
}

const KEYS: [&str; 11] = [
    "addr",
    "scale",
    "seed",
    "theta",
    "methods",
    "cohorts",
    "workers",
    "queue",
    "coalesce",
    "query_threads",
    "compact_at",
];

fn parse_args() -> Args {
    let mut args = Args {
        addr: "127.0.0.1:0".into(),
        scale: ScaleSpec::Tiny,
        seed: 2015,
        theta: 0.05,
        cfg: DaemonConfig::default(),
    };
    for arg in std::env::args().skip(1) {
        if arg == "--help" || arg == "-h" {
            eprintln!(
                "usage: revmax-served [addr=127.0.0.1:0] [scale=tiny] [seed=2015] \
                 [theta=0.05] [methods=components] [cohorts=0] [workers=2] [queue=1024] \
                 [coalesce=16] [query_threads=1] [compact_at=0.1]"
            );
            std::process::exit(0);
        }
        let (key, value) = arg
            .split_once('=')
            .unwrap_or_else(|| fail(&format!("expected key=value, got '{arg}'")));
        match key {
            "addr" => args.addr = value.into(),
            "scale" => args.scale = ScaleSpec::parse(value).unwrap_or_else(|e| fail(&e)),
            "seed" => args.seed = parse_num(key, value),
            "theta" => args.theta = parse_num(key, value),
            "methods" => {
                args.cfg.methods =
                    value.split(',').filter(|s| !s.is_empty()).map(String::from).collect();
                if args.cfg.methods.is_empty() {
                    fail("methods list is empty");
                }
            }
            "cohorts" => args.cfg.cohorts = parse_num(key, value),
            "workers" => args.cfg.workers = parse_num::<usize>(key, value).max(1),
            "queue" => args.cfg.queue_cap = parse_num::<usize>(key, value).max(1),
            "coalesce" => args.cfg.coalesce = parse_num(key, value),
            "query_threads" => args.cfg.query_threads = parse_num::<usize>(key, value).max(1),
            "compact_at" => args.cfg.compact_at = parse_num(key, value),
            other => fail(&unknown_key_msg(other, &KEYS)),
        }
    }
    args
}

fn parse_num<T: std::str::FromStr>(key: &str, value: &str) -> T {
    value.parse().unwrap_or_else(|_| fail(&format!("bad {key} '{value}'")))
}

fn main() {
    let args = parse_args();
    let data = args.scale.config().generate(args.seed);
    let market = revmax_engine::market_from_data(&data, args.theta);
    println!(
        "revmax-served: {} users x {} items (scale={} seed={} theta={}), solving...",
        market.n_users(),
        market.n_items(),
        args.scale.name(),
        args.seed,
        args.theta
    );

    let daemon =
        Daemon::spawn(args.addr.as_str(), market, args.cfg.clone()).unwrap_or_else(|e| fail(&e));
    println!(
        "revmax-served: listening on {} ({} workers, queue {}, coalesce {})",
        daemon.addr(),
        args.cfg.workers,
        args.cfg.queue_cap,
        args.cfg.coalesce
    );
    daemon.join();
    println!("revmax-served: drained and stopped");
}

fn fail(msg: &str) -> ! {
    eprintln!("revmax-served: {msg}");
    std::process::exit(2);
}
