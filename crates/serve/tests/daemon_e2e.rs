//! End-to-end daemon test (`DESIGN.md` §11): a real `Daemon` on an
//! ephemeral port, concurrent query clients over real sockets, a mutation
//! client churning the market mid-flight — and the tentpole guarantees
//! checked at the wire:
//!
//! * zero dropped queries across however many hot swaps happen,
//! * post-churn `ExpectedRevenue` / `Assign` answers, `All` and 16-id
//!   point queries alike, **bit-identical** to a cold rebuild (compact →
//!   fresh solve → fresh compile) of the same event history, on a mixed
//!   menu,
//! * malformed frames and out-of-range ids answer typed errors and never
//!   kill the process,
//! * `Shutdown` drains and `Daemon::join` returns, with queries in flight,
//! * with one permit and eight connections, queries that wait their turn
//!   for the permit answer bit-identically to direct in-process calls.

use revmax_core::config::Strategy;
use revmax_core::market::Market;
use revmax_core::marketlog::{Event, MarketLog};
use revmax_engine::{LiveEngine, ScaleSpec};
use revmax_serve::proto::{self, Request, Response, UserSel};
use revmax_serve::{Daemon, DaemonConfig, ErrorCode, MenuIndex};
use std::io::Write as _;
use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

fn tiny_market() -> Market {
    let data = ScaleSpec::Tiny.config().generate(2015);
    revmax_engine::market_from_data(&data, 0.05)
}

fn spawn_daemon(cfg: DaemonConfig) -> Daemon {
    Daemon::spawn("127.0.0.1:0", tiny_market(), cfg).expect("daemon spawns")
}

fn connect(daemon: &Daemon) -> TcpStream {
    let s = TcpStream::connect(daemon.addr()).expect("connect to daemon");
    s.set_nodelay(true).unwrap();
    s
}

/// Deterministic churn: bump every `stride`-th consumer's first-rated
/// item by `bump`.
fn bump_events(market: &Market, stride: usize, bump: f64) -> Vec<Event> {
    let w = market.wtp();
    (0..market.n_users())
        .step_by(stride)
        .filter_map(|u| {
            let row = w.row(u as u32);
            row.ids.first().map(|&item| Event::UpsertWtp {
                user: u as u32,
                item,
                wtp: row.values[0] * bump,
            })
        })
        .collect()
}

/// Wait until the daemon has drained `events` mutations (applied or
/// rejected), so the served state is a pure function of the history.
fn quiesce(stream: &mut TcpStream, events: u64) {
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        match proto::roundtrip(stream, &Request::SwapStats).expect("stats poll") {
            Response::Stats(s) if s.mutations_applied + s.mutations_rejected >= events => return,
            Response::Stats(_) => {
                assert!(Instant::now() < deadline, "churn did not drain within 30s");
                std::thread::sleep(Duration::from_millis(20));
            }
            other => panic!("expected Stats, got {other:?}"),
        }
    }
}

/// The served menu is the first method's: a mixed menu, whose held-offer
/// rows include bundles and the components under them.
const MIXED_METHODS: [&str; 2] = ["mixed_greedy", "components"];

#[test]
fn served_state_is_bit_identical_to_a_cold_rebuild_across_hot_swaps() {
    let daemon = spawn_daemon(DaemonConfig {
        workers: 2,
        queue_cap: 64,
        methods: MIXED_METHODS.iter().map(|m| m.to_string()).collect(),
        ..DaemonConfig::default()
    });
    let base = tiny_market();
    let n_users = base.n_users() as u32;

    // Concurrent query clients hammer point queries over real sockets
    // while the mutations land. Every request must get a response.
    let addr = daemon.addr();
    let clients: Vec<_> = (0..3)
        .map(|c| {
            std::thread::spawn(move || {
                let mut stream = TcpStream::connect(addr).expect("client connect");
                stream.set_nodelay(true).unwrap();
                let mut answered = 0u64;
                for r in 0..120u32 {
                    let ids: Vec<u32> = (0..8).map(|k| (r * 13 + k * 7 + c) % n_users).collect();
                    let req = if r % 2 == 0 {
                        Request::ExpectedRevenue(UserSel::Ids(ids))
                    } else {
                        Request::Assign(UserSel::Ids(ids))
                    };
                    match proto::roundtrip(&mut stream, &req).expect("query answered") {
                        Response::Revenue(x) => assert!(x.is_finite()),
                        Response::Assignments(a) => assert_eq!(a.len(), 8),
                        Response::Error { code: ErrorCode::Overloaded, .. } => {}
                        other => panic!("unexpected response {other:?}"),
                    }
                    answered += 1;
                }
                answered
            })
        })
        .collect();

    // The mutation client: two batches, mirrored into a local log.
    let mut log = MarketLog::new(base);
    let mut stream = connect(&daemon);
    let mut sent = 0u64;
    for (stride, bump) in [(5usize, 1.10), (3usize, 1.25)] {
        let events = bump_events(log.base(), stride, bump);
        assert!(!events.is_empty());
        sent += events.len() as u64;
        match proto::roundtrip(&mut stream, &Request::MutateMarket(events.clone())).unwrap() {
            Response::MutateAck { accepted, .. } => assert_eq!(accepted, events.len() as u64),
            other => panic!("expected MutateAck, got {other:?}"),
        }
        for ev in events {
            log.apply(ev).expect("events valid on both sides");
        }
    }

    for c in clients {
        assert_eq!(c.join().expect("client thread"), 120, "zero dropped queries");
    }
    quiesce(&mut stream, sent);
    assert!(daemon.handle().generation() >= 1, "mutations must hot-swap the index");

    // Cold rebuild of the identical history: compact arena, fresh engine,
    // fresh compile — the daemon's answers must match it bit for bit.
    let churned = log.snapshot();
    let cold_market = churned.with_wtp(churned.wtp().compact());
    let mut engine = LiveEngine::new(&MIXED_METHODS, 0).unwrap();
    let report = engine.resolve(&cold_market).unwrap();
    let cold_config = &report.whole_cell().unwrap().outcome.config;
    assert_eq!(cold_config.strategy, Strategy::Mixed);
    let cold_index = MenuIndex::compile(&cold_market, cold_config);
    let held_below_a_root = cold_index
        .assign_all()
        .iter()
        .any(|a| a.offers.iter().any(|o| !cold_index.roots().contains(o)));
    assert!(held_below_a_root, "some consumer holds a component under a bundle");

    match proto::roundtrip(&mut stream, &Request::ExpectedRevenue(UserSel::All)).unwrap() {
        Response::Revenue(served) => assert_eq!(
            served.to_bits(),
            cold_index.expected_revenue_all().to_bits(),
            "served revenue must be bit-identical to the cold rebuild"
        ),
        other => panic!("expected Revenue, got {other:?}"),
    }
    match proto::roundtrip(&mut stream, &Request::Assign(UserSel::All)).unwrap() {
        Response::Assignments(served) => assert_same_assignments(&served, &cold_index.assign_all()),
        other => panic!("expected Assignments, got {other:?}"),
    }
    // Point queries too: 16-id `Assign` / `ExpectedRevenue`, checked
    // against the cold index's kernel.
    for r in 0..32 {
        let req = point_query(0, r, n_users);
        let resp = proto::roundtrip(&mut stream, &req).unwrap();
        check_answer(&cold_index, &req, resp);
    }

    // Clean wire-driven shutdown: Bye, then every thread joins.
    match proto::roundtrip(&mut stream, &Request::Shutdown).unwrap() {
        Response::Bye => {}
        other => panic!("expected Bye, got {other:?}"),
    }
    daemon.join();
}

#[test]
fn hostile_frames_and_bad_ids_get_typed_errors_not_a_dead_process() {
    let daemon = spawn_daemon(DaemonConfig::default());
    let n_users = daemon.handle().current().n_users() as u32;

    // Garbage opcode inside a valid frame: typed Malformed, connection
    // keeps serving.
    let mut stream = connect(&daemon);
    proto::write_frame(&mut stream, &[0xEE, 7, 7]).unwrap();
    match proto::decode_response(
        &proto::read_frame(&mut stream, proto::MAX_FRAME).unwrap().unwrap(),
    )
    .unwrap()
    {
        Response::Error { code: ErrorCode::Malformed, .. } => {}
        other => panic!("expected Malformed, got {other:?}"),
    }
    match proto::roundtrip(&mut stream, &Request::SwapStats).unwrap() {
        Response::Stats(s) => assert!(s.malformed >= 1),
        other => panic!("connection should survive: {other:?}"),
    }

    // Out-of-range user id: typed Query error naming the id, and the
    // connection keeps serving in-range queries.
    match proto::roundtrip(&mut stream, &Request::Assign(UserSel::Ids(vec![0, n_users]))).unwrap() {
        Response::Error { code: ErrorCode::Query, message } => {
            assert!(message.contains("out of range"), "{message}");
        }
        other => panic!("expected Query error, got {other:?}"),
    }
    match proto::roundtrip(&mut stream, &Request::ExpectedRevenue(UserSel::Ids(vec![0]))).unwrap() {
        Response::Revenue(x) => assert!(x.is_finite()),
        other => panic!("expected Revenue, got {other:?}"),
    }

    // Hostile 2 GiB length prefix: answered with Malformed, then hung up
    // (the stream offset is unrecoverable) — but the daemon lives on.
    let mut hostile = connect(&daemon);
    hostile.write_all(&0x7FFF_FFFFu32.to_le_bytes()).unwrap();
    match proto::decode_response(
        &proto::read_frame(&mut hostile, proto::MAX_FRAME).unwrap().unwrap(),
    )
    .unwrap()
    {
        Response::Error { code: ErrorCode::Malformed, message } => {
            assert!(message.contains("exceeds"), "{message}");
        }
        other => panic!("expected Malformed, got {other:?}"),
    }
    assert!(
        proto::read_frame(&mut hostile, proto::MAX_FRAME).unwrap().is_none(),
        "daemon hangs up after an unrecoverable frame"
    );

    let mut fresh = connect(&daemon);
    match proto::roundtrip(&mut fresh, &Request::SwapStats).unwrap() {
        Response::Stats(s) => assert!(s.malformed >= 2),
        other => panic!("daemon must still serve fresh connections: {other:?}"),
    }

    daemon.request_shutdown();
    daemon.join();
}

#[test]
fn marginal_revenue_opcode_answers_bit_exactly_over_the_wire() {
    let daemon = spawn_daemon(DaemonConfig::default());
    let index = daemon.handle().current();
    let users = index.all_users();
    let offer = *index.roots().last().expect("menu has offers");
    let dprice = 0.75;
    let expect = index.try_marginal_revenue(offer, dprice, &users).expect("in-process answer");

    let mut stream = connect(&daemon);
    // Both selector shapes answer with the in-process bits.
    for sel in [UserSel::All, UserSel::Ids(users.clone())] {
        match proto::roundtrip(&mut stream, &Request::MarginalRevenue { offer, dprice, sel })
            .unwrap()
        {
            Response::Marginal(m) => {
                assert_eq!(m.base.to_bits(), expect.base.to_bits());
                assert_eq!(m.perturbed.to_bits(), expect.perturbed.to_bits());
                assert_eq!(m.delta.to_bits(), expect.delta.to_bits());
            }
            other => panic!("expected Marginal, got {other:?}"),
        }
    }

    // Bad offer ids and price-invalidating nudges come back as typed
    // Query errors on a connection that keeps serving.
    let bad =
        Request::MarginalRevenue { offer: index.n_nodes() as u32, dprice: 0.0, sel: UserSel::All };
    match proto::roundtrip(&mut stream, &bad).unwrap() {
        Response::Error { code: ErrorCode::Query, .. } => {}
        other => panic!("expected Query error, got {other:?}"),
    }
    let negative = Request::MarginalRevenue {
        offer,
        dprice: -(index.prices()[offer as usize] + 1.0),
        sel: UserSel::All,
    };
    match proto::roundtrip(&mut stream, &negative).unwrap() {
        Response::Error { code: ErrorCode::Query, .. } => {}
        other => panic!("expected Query error, got {other:?}"),
    }
    match proto::roundtrip(&mut stream, &Request::SwapStats).unwrap() {
        Response::Stats(s) => assert_eq!(s.served_marginal, 2),
        other => panic!("expected Stats, got {other:?}"),
    }

    daemon.request_shutdown();
    daemon.join();
}

/// Bit-compare two assignment lists (payments by their bits).
fn assert_same_assignments(got: &[revmax_serve::Assignment], want: &[revmax_serve::Assignment]) {
    assert_eq!(got.len(), want.len());
    for (g, w) in got.iter().zip(want) {
        assert_eq!(g.user, w.user);
        assert_eq!(g.payment.to_bits(), w.payment.to_bits(), "user {}", g.user);
        assert_eq!(g.offers, w.offers, "user {}", g.user);
    }
}

/// Check one answer to an `Assign` / `ExpectedRevenue` query against the
/// in-process index.
fn check_answer(index: &MenuIndex, req: &Request, resp: Response) {
    match (req, resp) {
        (Request::ExpectedRevenue(UserSel::All), Response::Revenue(got)) => {
            assert_eq!(got.to_bits(), index.expected_revenue_all().to_bits());
        }
        (Request::Assign(UserSel::Ids(ids)), Response::Assignments(got)) => {
            assert_same_assignments(&got, &index.try_assign(ids).unwrap());
        }
        (Request::ExpectedRevenue(UserSel::Ids(ids)), Response::Revenue(got)) => {
            assert_eq!(got.to_bits(), index.try_expected_revenue(ids).unwrap().to_bits());
        }
        (req, resp) => panic!("{req:?} answered {resp:?}"),
    }
}

/// Interleaved 16-id `Assign` / `ExpectedRevenue` query `r` of client `c`.
fn point_query(c: u32, r: u32, n_users: u32) -> Request {
    let ids: Vec<u32> = (0..16).map(|k| (r * 31 + k * 7 + c * 11) % n_users).collect();
    if (r + c).is_multiple_of(2) {
        Request::Assign(UserSel::Ids(ids))
    } else {
        Request::ExpectedRevenue(UserSel::Ids(ids))
    }
}

#[test]
fn one_permit_eight_connections_wait_their_turn_bit_exactly() {
    // One permit, eight closed-loop connections: many queries find the
    // permit held, wait in line for it, and are then answered by the
    // connection thread that read them.
    const CONNS: u32 = 8;
    const QUERIES: u32 = 150;
    let daemon = spawn_daemon(DaemonConfig { workers: 1, ..DaemonConfig::default() });
    let index = daemon.handle().current();
    let n_users = index.n_users() as u32;
    let addr = daemon.addr();
    std::thread::scope(|s| {
        for c in 0..CONNS {
            let index = &index;
            s.spawn(move || {
                let mut stream = TcpStream::connect(addr).expect("client connect");
                stream.set_nodelay(true).unwrap();
                for r in 0..QUERIES {
                    let req = point_query(c, r, n_users);
                    let resp = proto::roundtrip(&mut stream, &req).expect("query answered");
                    check_answer(index, &req, resp);
                }
            });
        }
    });

    let stats = daemon.stats();
    assert_eq!(stats.generation, 0, "no churn: every answer came from one index");
    assert_eq!(stats.shed, 0);
    assert_eq!(stats.coalesced, 0, "no query rides along in another's run");
    assert_eq!(
        stats.served_assign + stats.served_revenue,
        u64::from(CONNS * QUERIES),
        "every query served exactly once"
    );
    daemon.request_shutdown();
    daemon.join();
}

#[test]
fn process_side_shutdown_drains_and_joins() {
    // Four connections keep queries in flight on a one-permit daemon
    // while shutdown is requested: every query gets its correct answer
    // or ShuttingDown, and `join` returns only once no permit is held
    // and nobody waits for one.
    const CONNS: u32 = 4;
    let daemon = spawn_daemon(DaemonConfig { workers: 1, ..DaemonConfig::default() });
    let index = daemon.handle().current();
    let n_users = index.n_users() as u32;
    let answered: [AtomicU64; CONNS as usize] = Default::default();
    let mut streams: Vec<TcpStream> = (0..CONNS).map(|_| connect(&daemon)).collect();
    std::thread::scope(|s| {
        let clients: Vec<_> = streams
            .iter_mut()
            .enumerate()
            .map(|(c, stream)| {
                let (index, answered) = (&index, &answered[c]);
                s.spawn(move || {
                    for r in 0.. {
                        let req = if r % 5 == 4 {
                            Request::ExpectedRevenue(UserSel::All)
                        } else {
                            point_query(c as u32, r, n_users)
                        };
                        match proto::roundtrip(stream, &req).expect("query answered") {
                            Response::Error { code: ErrorCode::ShuttingDown, .. } => return r,
                            resp => check_answer(index, &req, resp),
                        }
                        answered.fetch_add(1, Ordering::Relaxed);
                    }
                    unreachable!()
                })
            })
            .collect();
        // Shut down mid-stream, once every client is under way.
        let deadline = Instant::now() + Duration::from_secs(30);
        while answered.iter().any(|a| a.load(Ordering::Relaxed) < 20) {
            if Instant::now() > deadline {
                daemon.request_shutdown(); // release the other clients first
                panic!("clients stalled before shutdown");
            }
            std::thread::yield_now();
        }
        daemon.request_shutdown();
        daemon.join();
        for c in clients {
            assert!(c.join().expect("client thread") >= 20, "client was under way at shutdown");
        }
    });

    // A new query on an old connection either fails outright (the
    // connection thread exited) or answers ShuttingDown — it is never
    // silently executed against a drained daemon.
    let followup = proto::roundtrip(&mut streams[0], &Request::ExpectedRevenue(UserSel::All));
    match followup {
        Err(_) => {}
        Ok(Response::Error { code: ErrorCode::ShuttingDown, .. }) => {}
        Ok(other) => panic!("drained daemon answered a query: {other:?}"),
    }
}
