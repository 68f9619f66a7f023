//! Load generator and end-to-end verifier for `revmax-served`
//! (`DESIGN.md` §11): hammer a live daemon with concurrent query
//! connections while a mutation client churns the market through
//! `MutateMarket` frames, then prove the served state is **bit-identical**
//! to a cold rebuild of the same event history.
//!
//! ```sh
//! revmax-served addr=127.0.0.1:7411 scale=tiny &
//! loadgen addr=127.0.0.1:7411 scale=tiny conns=4 requests=200 shutdown=on
//! ```
//!
//! The market keys (`scale`, `seed`, `theta`, `methods`, `cohorts`) must
//! match the daemon's — loadgen regenerates the same base market locally,
//! applies the exact churn events it sent, and cold-rebuilds
//! (compact → fresh [`LiveEngine`] solve → fresh compile) the expected
//! serving state.
//!
//! Verification (exit 1 on violation):
//!
//! * **Zero dropped queries**: every request on every connection gets a
//!   response — a shed ([`ErrorCode::Overloaded`]) counts as answered,
//!   a connection reset or protocol error does not.
//! * **Crash-proof edges** (`probe=on`): a garbage opcode and an
//!   out-of-range user id each come back as typed errors on a connection
//!   that keeps serving; a hostile length prefix is answered then hung
//!   up on — the daemon never dies.
//! * **Churn parity** (`check=on`): after the daemon has drained every
//!   mutation, `ExpectedRevenue(All)` and `Assign(All)` are bit-identical
//!   to the local cold rebuild, across however many hot swaps happened
//!   mid-flight.
//! * **Load-shed budget** (`max_shed`): the shed fraction stays within
//!   budget (default 1.0 = no gate; the CI leg sizes queue and load so
//!   sheds stay rare).
//!
//! Client-observed latency quantiles export as BENCH_JSON entries
//! `daemon_<scale>/{assign,revenue}_{p50,p99}` for the `perf_check` gate.

use revmax_bench::cli::unknown_key_msg;
use revmax_core::market::Market;
use revmax_core::marketlog::{Event, MarketLog};
use revmax_engine::report::{write_bench_json, BenchEntry};
use revmax_engine::{LiveEngine, ScaleSpec};
use revmax_serve::proto::{self, Request, Response, UserSel};
use revmax_serve::{ErrorCode, LatencyHistogram, MenuIndex};
use std::io::Write as _;
use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

struct Args {
    addr: String,
    scale: ScaleSpec,
    seed: u64,
    theta: f64,
    methods: Vec<String>,
    cohorts: usize,
    conns: usize,
    requests: usize,
    batch: usize,
    mix: f64,
    all_every: usize,
    mutate_batches: usize,
    mutate_frac: f64,
    probe: bool,
    check: bool,
    shutdown: bool,
    max_shed: f64,
    connect_timeout_s: u64,
    json: Option<String>,
}

const KEYS: [&str; 18] = [
    "addr",
    "scale",
    "seed",
    "theta",
    "methods",
    "cohorts",
    "conns",
    "requests",
    "batch",
    "mix",
    "all_every",
    "mutate_batches",
    "mutate_frac",
    "probe",
    "check",
    "shutdown",
    "max_shed",
    "json",
];

fn parse_args() -> Args {
    let mut args = Args {
        addr: String::new(),
        scale: ScaleSpec::Tiny,
        seed: 2015,
        theta: 0.05,
        methods: vec!["components".into()],
        cohorts: 0,
        conns: 4,
        requests: 200,
        batch: 16,
        mix: 0.5,
        all_every: 50,
        mutate_batches: 3,
        mutate_frac: 0.01,
        probe: true,
        check: true,
        shutdown: false,
        max_shed: 1.0,
        connect_timeout_s: 30,
        json: std::env::var("BENCH_JSON").ok().filter(|p| !p.is_empty()),
    };
    for arg in std::env::args().skip(1) {
        if arg == "--help" || arg == "-h" {
            eprintln!(
                "usage: loadgen addr=HOST:PORT [scale=tiny] [seed=2015] [theta=0.05] \
                 [methods=components] [cohorts=0] [conns=4] [requests=200] [batch=16] \
                 [mix=0.5] [all_every=50] [mutate_batches=3] [mutate_frac=0.01] \
                 [probe=on] [check=on] [shutdown=off] [max_shed=1.0] [json=FILE]"
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
                args.methods =
                    value.split(',').filter(|s| !s.is_empty()).map(String::from).collect();
                if args.methods.is_empty() {
                    fail("methods list is empty");
                }
            }
            "cohorts" => args.cohorts = parse_num(key, value),
            "conns" => args.conns = parse_num::<usize>(key, value).max(1),
            "requests" => args.requests = parse_num::<usize>(key, value).max(1),
            "batch" => args.batch = parse_num::<usize>(key, value).max(1),
            "mix" => {
                args.mix = parse_num(key, value);
                if !(0.0..=1.0).contains(&args.mix) {
                    fail(&format!("mix must be in [0, 1], got {}", args.mix));
                }
            }
            "all_every" => args.all_every = parse_num(key, value),
            "mutate_batches" => args.mutate_batches = parse_num(key, value),
            "mutate_frac" => {
                args.mutate_frac = parse_num(key, value);
                if !(args.mutate_frac > 0.0 && args.mutate_frac <= 1.0) {
                    fail(&format!("mutate_frac must be in (0, 1], got {}", args.mutate_frac));
                }
            }
            "probe" => args.probe = parse_switch(value),
            "check" => args.check = parse_switch(value),
            "shutdown" => args.shutdown = parse_switch(value),
            "max_shed" => args.max_shed = parse_num(key, value),
            "json" => args.json = Some(value.into()),
            other => fail(&unknown_key_msg(other, &KEYS)),
        }
    }
    if args.addr.is_empty() {
        fail("addr is required (e.g. addr=127.0.0.1:7411)");
    }
    args
}

fn parse_switch(value: &str) -> bool {
    match value {
        "on" | "true" | "1" => true,
        "off" | "false" | "0" => false,
        _ => fail(&format!("bad switch '{value}' (on|off)")),
    }
}

fn parse_num<T: std::str::FromStr>(key: &str, value: &str) -> T {
    value.parse().unwrap_or_else(|_| fail(&format!("bad {key} '{value}'")))
}

/// Connect with retries — the daemon prints `listening` only after its
/// initial solve, so CI starts it in the background and loadgen waits.
fn connect(addr: &str, timeout: Duration) -> TcpStream {
    let start = Instant::now();
    loop {
        match TcpStream::connect(addr) {
            Ok(s) => {
                // Symmetric with the daemon: tiny request frames must not
                // sit in Nagle's buffer waiting for a delayed ACK.
                let _ = s.set_nodelay(true);
                return s;
            }
            Err(e) => {
                if start.elapsed() > timeout {
                    fail(&format!("cannot connect to {addr} after {timeout:?}: {e}"));
                }
                std::thread::sleep(Duration::from_millis(100));
            }
        }
    }
}

/// splitmix64 — a tiny deterministic stream per connection, so reruns
/// replay the identical request mix without threading a rand PRNG
/// through every worker.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The deterministic churn batch `b` — same construction as
/// `churn_bench`: upsert a stride of consumers' first-rated items with a
/// batch-dependent bump, plus one tail delete.
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
    if let Some(u) = (0..n).rev().find(|&u| w.row(u as u32).ids.len() > 1) {
        let row = w.row(u as u32);
        events.push(Event::DeleteWtp { user: u as u32, item: row.ids[row.ids.len() - 1] });
    }
    events
}

/// One query connection's outcome.
struct ConnReport {
    answered: u64,
    shed: u64,
    violations: Vec<String>,
}

/// Drive `requests` point queries over one connection, recording
/// client-observed latency and structural sanity of every response.
#[allow(clippy::too_many_arguments)]
fn query_conn(
    addr: String,
    conn_id: usize,
    args_seed: u64,
    n_users: usize,
    requests: usize,
    batch: usize,
    mix: f64,
    all_every: usize,
    timeout: Duration,
    assign_hist: Arc<LatencyHistogram>,
    revenue_hist: Arc<LatencyHistogram>,
) -> ConnReport {
    let mut stream = connect(&addr, timeout);
    let mut rng = args_seed ^ (0xC0FF_EE00 + conn_id as u64);
    let mut report = ConnReport { answered: 0, shed: 0, violations: Vec::new() };
    for r in 0..requests {
        let revenue = (splitmix(&mut rng) as f64 / u64::MAX as f64) < mix;
        let sel = if all_every > 0 && r % all_every == all_every - 1 {
            UserSel::All
        } else {
            let ids: Vec<u32> =
                (0..batch).map(|_| (splitmix(&mut rng) % n_users as u64) as u32).collect();
            UserSel::Ids(ids)
        };
        let expected_len = match &sel {
            UserSel::All => n_users,
            UserSel::Ids(ids) => ids.len(),
        };
        let req = if revenue { Request::ExpectedRevenue(sel) } else { Request::Assign(sel) };
        let t = Instant::now();
        let resp = match proto::roundtrip(&mut stream, &req) {
            Ok(resp) => resp,
            Err(e) => {
                // A dropped query is the violation the tentpole forbids.
                report.violations.push(format!("conn {conn_id} req {r}: dropped: {e}"));
                return report;
            }
        };
        let ns = t.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64;
        if revenue { &revenue_hist } else { &assign_hist }.record(ns);
        report.answered += 1;
        match resp {
            Response::Assignments(a) if !revenue => {
                if a.len() != expected_len {
                    report.violations.push(format!(
                        "conn {conn_id} req {r}: {} assignments for {expected_len} users",
                        a.len()
                    ));
                }
            }
            Response::Revenue(x) if revenue => {
                if !x.is_finite() {
                    report
                        .violations
                        .push(format!("conn {conn_id} req {r}: non-finite revenue {x}"));
                }
            }
            Response::Error { code: ErrorCode::Overloaded, .. } => report.shed += 1,
            other => report
                .violations
                .push(format!("conn {conn_id} req {r}: unexpected response {other:?}")),
        }
    }
    report
}

/// The crash-proof-edges probe: malformed and hostile frames come back as
/// typed errors, in-range service continues, and the process stays up.
fn probe_edges(addr: &str, n_users: usize, timeout: Duration) -> Vec<String> {
    let mut violations = Vec::new();

    // (1) A garbage opcode inside a well-formed frame: typed Malformed
    // error, connection keeps serving.
    let mut stream = connect(addr, timeout);
    if proto::write_frame(&mut stream, &[0xEE, 1, 2, 3]).is_ok() {
        match proto::read_frame(&mut stream, proto::MAX_FRAME) {
            Ok(Some(p)) => match proto::decode_response(&p) {
                Ok(Response::Error { code: ErrorCode::Malformed, .. }) => {}
                other => {
                    violations.push(format!("garbage opcode: expected Malformed, got {other:?}"))
                }
            },
            other => violations.push(format!("garbage opcode: no response ({other:?})")),
        }
        match proto::roundtrip(&mut stream, &Request::SwapStats) {
            Ok(Response::Stats(_)) => {}
            other => {
                violations.push(format!("connection did not survive a malformed frame: {other:?}"))
            }
        }
    }

    // (2) An out-of-range user id: typed Query error, connection keeps
    // serving.
    let mut stream = connect(addr, timeout);
    match proto::roundtrip(&mut stream, &Request::Assign(UserSel::Ids(vec![n_users as u32]))) {
        Ok(Response::Error { code: ErrorCode::Query, message }) => {
            if !message.contains("out of range") {
                violations.push(format!("out-of-range id: unexpected message '{message}'"));
            }
        }
        other => violations.push(format!("out-of-range id: expected Query error, got {other:?}")),
    }
    match proto::roundtrip(&mut stream, &Request::ExpectedRevenue(UserSel::Ids(vec![0]))) {
        Ok(Response::Revenue(_)) => {}
        other => {
            violations.push(format!("connection did not survive an out-of-range id: {other:?}"))
        }
    }

    // (3) A hostile length prefix (2 GiB): the daemon answers Malformed
    // and hangs up — the stream offset is unrecoverable — but the
    // process must keep serving fresh connections.
    let mut stream = connect(addr, timeout);
    if stream.write_all(&0x7FFF_FFFFu32.to_le_bytes()).is_ok() {
        match proto::read_frame(&mut stream, proto::MAX_FRAME) {
            Ok(Some(p)) => match proto::decode_response(&p) {
                Ok(Response::Error { code: ErrorCode::Malformed, .. }) => {}
                other => {
                    violations.push(format!("hostile prefix: expected Malformed, got {other:?}"))
                }
            },
            other => violations.push(format!("hostile prefix: no response ({other:?})")),
        }
    }
    let mut fresh = connect(addr, timeout);
    match proto::roundtrip(&mut fresh, &Request::SwapStats) {
        Ok(Response::Stats(_)) => {}
        other => violations.push(format!("daemon died after hostile prefix: {other:?}")),
    }
    violations
}

fn main() {
    let args = parse_args();
    let timeout = Duration::from_secs(args.connect_timeout_s);
    let data = args.scale.config().generate(args.seed);
    let base = revmax_engine::market_from_data(&data, args.theta);
    let n_users = base.n_users();
    let mut violations: Vec<String> = Vec::new();

    // Sanity: the daemon must serve the market we think it serves.
    let mut stream = connect(&args.addr, timeout);
    match proto::roundtrip(&mut stream, &Request::SwapStats) {
        Ok(Response::Stats(s)) => {
            if s.n_users as usize != n_users {
                fail(&format!(
                    "daemon serves {} users but scale={} seed={} generates {n_users} — \
                     market keys must match the daemon's",
                    s.n_users,
                    args.scale.name(),
                    args.seed
                ));
            }
        }
        other => fail(&format!("SwapStats probe failed: {other:?}")),
    }

    if args.probe {
        violations.extend(probe_edges(&args.addr, n_users, timeout));
        println!("probes:  malformed / out-of-range / hostile-prefix edges checked");
    }

    // Concurrent query connections...
    let assign_hist = Arc::new(LatencyHistogram::new());
    let revenue_hist = Arc::new(LatencyHistogram::new());
    let t0 = Instant::now();
    let threads: Vec<_> = (0..args.conns)
        .map(|c| {
            let addr = args.addr.clone();
            let (ah, rh) = (Arc::clone(&assign_hist), Arc::clone(&revenue_hist));
            let (seed, requests, batch, mix, all_every) =
                (args.seed, args.requests, args.batch, args.mix, args.all_every);
            std::thread::spawn(move || {
                query_conn(addr, c, seed, n_users, requests, batch, mix, all_every, timeout, ah, rh)
            })
        })
        .collect();

    // ...while the mutation client churns the market through the same
    // wire, mirroring every event into a local MarketLog.
    let mut log = MarketLog::new(base);
    let mut events_sent = 0u64;
    let mut applied_local = 0u64;
    let mut mutate_stream = connect(&args.addr, timeout);
    for b in 0..args.mutate_batches {
        let events = churn_batch(log.base(), args.mutate_frac, b);
        events_sent += events.len() as u64;
        match proto::roundtrip(&mut mutate_stream, &Request::MutateMarket(events.clone())) {
            Ok(Response::MutateAck { accepted, .. }) => {
                if accepted != events.len() as u64 {
                    violations
                        .push(format!("batch {b}: acked {accepted} of {} events", events.len()));
                }
            }
            other => violations.push(format!("batch {b}: expected MutateAck, got {other:?}")),
        }
        for ev in events {
            if log.apply(ev).is_ok() {
                applied_local += 1;
            }
        }
        std::thread::sleep(Duration::from_millis(30)); // interleave with queries
    }

    let shed = AtomicU64::new(0);
    let mut answered = 0u64;
    for t in threads {
        let report = t.join().unwrap_or_else(|_| {
            fail("query thread panicked");
        });
        answered += report.answered;
        shed.fetch_add(report.shed, Ordering::Relaxed);
        violations.extend(report.violations);
    }
    let elapsed = t0.elapsed();
    let shed = shed.into_inner();
    let total = (args.conns * args.requests) as u64;
    println!(
        "queries: {answered}/{total} answered ({shed} shed) over {} conns in {:.2?} — \
         {:.0} req/s",
        args.conns,
        elapsed,
        answered as f64 / elapsed.as_secs_f64()
    );
    if answered != total {
        violations.push(format!("{} queries dropped", total - answered));
    }
    if total > 0 && shed as f64 / total as f64 > args.max_shed {
        violations.push(format!(
            "shed fraction {:.3} exceeds max_shed {}",
            shed as f64 / total as f64,
            args.max_shed
        ));
    }

    // Quiesce: wait until the churn thread has drained every event we
    // sent, then the served state is a pure function of the history.
    let mut stats = None;
    if args.mutate_batches > 0 {
        let deadline = Instant::now() + Duration::from_secs(60);
        loop {
            match proto::roundtrip(&mut stream, &Request::SwapStats) {
                Ok(Response::Stats(s)) => {
                    if s.mutations_applied + s.mutations_rejected >= events_sent {
                        stats = Some(s);
                        break;
                    }
                    if Instant::now() > deadline {
                        violations.push(format!(
                            "churn did not drain: {} applied + {} rejected of {events_sent} sent",
                            s.mutations_applied, s.mutations_rejected
                        ));
                        stats = Some(s);
                        break;
                    }
                }
                other => {
                    violations.push(format!("SwapStats poll failed: {other:?}"));
                    break;
                }
            }
            std::thread::sleep(Duration::from_millis(25));
        }
    }
    if let Some(s) = &stats {
        println!(
            "churn:   generation {} after {} applied / {} rejected events ({} shed)",
            s.generation, s.mutations_applied, s.mutations_rejected, s.shed
        );
        if applied_local > 0 && s.generation == 0 {
            violations.push("events applied but the served index never swapped".into());
        }
    }

    // Churn parity: served answers vs the cold rebuild of the identical
    // event history — the tentpole's bit-identity guarantee.
    if args.check {
        let churned = log.snapshot();
        let cold_market = churned.with_wtp(churned.wtp().compact());
        let methods: Vec<&str> = args.methods.iter().map(String::as_str).collect();
        let mut engine = LiveEngine::new(&methods, args.cohorts).unwrap_or_else(|e| fail(&e));
        let cold = engine.resolve(&cold_market).unwrap_or_else(|e| fail(&e));
        let cell = cold.whole_cell().unwrap_or_else(|| fail("cold resolve has no whole cell"));
        let cold_index = MenuIndex::compile(&cold_market, &cell.outcome.config);
        let cold_rev = cold_index.expected_revenue_all();

        match proto::roundtrip(&mut stream, &Request::ExpectedRevenue(UserSel::All)) {
            Ok(Response::Revenue(served)) => {
                if served.to_bits() != cold_rev.to_bits() {
                    violations.push(format!(
                        "served revenue {served} != cold rebuild {cold_rev} (bitwise)"
                    ));
                } else {
                    println!("parity:  served revenue {served} bit-identical to cold rebuild");
                }
            }
            other => violations.push(format!("parity revenue query failed: {other:?}")),
        }
        match proto::roundtrip(&mut stream, &Request::Assign(UserSel::All)) {
            Ok(Response::Assignments(served)) => {
                if served != cold_index.assign_all() {
                    violations.push("served assignments diverged from cold rebuild".into());
                }
            }
            other => violations.push(format!("parity assign query failed: {other:?}")),
        }
    }

    if args.shutdown {
        match proto::roundtrip(&mut stream, &Request::Shutdown) {
            Ok(Response::Bye) => println!("daemon acknowledged shutdown"),
            other => violations.push(format!("expected Bye, got {other:?}")),
        }
    }

    // Client-observed latency for the perf gate.
    let entries: Vec<BenchEntry> = [("assign", &assign_hist), ("revenue", &revenue_hist)]
        .iter()
        .flat_map(|(kind, hist)| {
            [("p50", 0.50), ("p99", 0.99)].map(|(tag, q)| {
                let ns = hist.quantile(q) as u128;
                BenchEntry {
                    id: format!("daemon_{}/{kind}_{tag}", args.scale.name()),
                    mean_ns: ns,
                    min_ns: ns,
                    max_ns: ns,
                    iters: hist.count(),
                }
            })
        })
        .collect();
    for e in &entries {
        println!("latency: {} = {:.3} ms ({} obs)", e.id, e.mean_ns as f64 / 1e6, e.iters);
    }
    if let Some(path) = &args.json {
        write_bench_json(path, &entries)
            .unwrap_or_else(|e| fail(&format!("cannot write '{path}': {e}")));
        println!("wrote {} latency entries to {path}", entries.len());
    }

    if !violations.is_empty() {
        for v in &violations {
            eprintln!("FAIL: {v}");
        }
        eprintln!("loadgen: {} violation(s)", violations.len());
        std::process::exit(1);
    }
    println!("loadgen: ok — {answered} queries answered, served state bit-identical to history");
}

fn fail(msg: &str) -> ! {
    eprintln!("loadgen: {msg}");
    std::process::exit(2);
}
