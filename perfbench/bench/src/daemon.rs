//! `daemon`: in-process `Daemon::spawn`s on loopback, each serving a
//! `small` market (methods `mixed_greedy,components`, 3 activity cohorts).
//! A client sends 16-id `Assign` / `ExpectedRevenue` point queries, mixed
//! with occasional `All` and `MarginalRevenue` queries, while 1%-churn
//! `MutateMarket` batches arrive on a fixed schedule. `proto`, the queue,
//! and the churn pipeline do the work; the serve kernel does little per
//! request.
//!
//! The untraced run measures closed loop, one client thread: query
//! latency with one request in flight, then throughput with a window of
//! requests in flight on one connection, churn riding a second connection.
//! It cycles in short slices over [`SEGMENTS`] daemons, each over its own
//! seeded market, so that one 120-consumer market does not decide the
//! figures and a slow stretch of the host hits every daemon alike.
//! The traced run also drives one daemon open loop at a fixed rate (a
//! sender and a receiver thread over two connections, latency timed from
//! each request's due time) and reports how late the sender ran.

use crate::report::{median, ms_since, quantile, Run};
use crate::segment_seed;
use crate::trace::Tracer;
use crate::Cfg;
use revmax_core::config::BundleConfig;
use revmax_core::market::Market;
use revmax_core::marketlog::{Event, MarketLog};
use revmax_engine::{market_from_data, LiveEngine, ScaleSpec};
use revmax_serve::proto::{self, Request, Response, UserSel};
use revmax_serve::{Daemon, DaemonConfig, DaemonStats, ErrorCode, MenuIndex, ServeHandle};
use std::collections::VecDeque;
use std::hint::black_box;
use std::net::TcpStream;
use std::sync::Mutex;
use std::time::{Duration, Instant};

const METHODS: [&str; 2] = ["mixed_greedy", "components"];
const COHORTS: usize = 3;
/// Daemons the untraced run measures in turn, each on its own market.
const SEGMENTS: u64 = 16;
/// Ids per point query.
const BATCH: usize = 16;
/// Requests in flight in a throughput slice: enough that the daemon never
/// waits for the client.
const WINDOW: usize = 4;
/// Queries per measured slice.
const SLICE: usize = 64;
/// The quantile over a daemon's slices that its figures are taken at: the
/// fastest (lowest latency, highest throughput). Neighbours on the shared
/// host slow every thread by up to 50% for seconds to minutes at a time;
/// the fastest of ~50 slices is what the code costs when the host leaves
/// it alone.
const SLICE_QUANTILE: f64 = 0.0;
/// The fixed rate of the traced run's open-loop phase.
const NOMINAL_RPS: f64 = 1000.0;
/// One churn batch per this many milliseconds.
const MUTATE_EVERY_MS: u64 = 200;
/// Share of consumers one churn batch touches.
const CHURN_FRAC: f64 = 0.01;
/// How long to wait for outstanding answers after the last send.
const DRAIN: Duration = Duration::from_secs(20);

fn daemon_config() -> DaemonConfig {
    DaemonConfig {
        methods: METHODS.iter().map(|m| m.to_string()).collect(),
        cohorts: COHORTS,
        query_threads: 1,
        ..DaemonConfig::default()
    }
}

/// splitmix64: the request mix is a pure function of the seed.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Churn batch `b`: upsert a stride of consumers' first-rated items with a
/// batch-dependent bump, plus one tail delete.
fn churn_batch(market: &Market, b: usize) -> Vec<Event> {
    let w = market.wtp();
    let n = market.n_users();
    let step = ((1.0 / CHURN_FRAC).round() as usize).clamp(1, n.max(1));
    let bump = 1.0 + 0.05 * ((b % 20) + 1) as f64;
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

#[derive(Clone, Copy, PartialEq, Eq)]
enum Kind {
    Assign(usize),
    Revenue,
    Marginal,
    Mutate,
}

/// One scheduled request.
struct Item {
    at: Duration,
    req: Request,
    kind: Kind,
    /// Events sent through this batch, cumulative (`Mutate` only).
    cum_events: u64,
}

struct Pending {
    id: u64,
    due: Instant,
    sent: Instant,
    kind: Kind,
    cum_events: u64,
}

/// What the client saw in one phase.
#[derive(Default)]
struct PhaseResult {
    /// Query latency from due time (open loop) or from sending (closed
    /// loop), ms.
    latency_ms: Vec<f64>,
    /// How late each request was written, ms.
    late_ms: Vec<f64>,
    ack_ms: Vec<f64>,
    fresh_ms: Vec<f64>,
    queries: u64,
    failed: u64,
    mutations: u64,
    mutations_failed: u64,
    /// Answers never received.
    dropped: u64,
    malformed_answers: Vec<String>,
    /// Closed loop: answers per second, first answer to last.
    rate: f64,
}

/// Wait until a stream is readable or `timeout` passes (Linux `ppoll`).
/// Returns one readiness flag per stream.
fn wait_readable(streams: &[&TcpStream], timeout: Duration) -> std::io::Result<Vec<bool>> {
    use std::os::fd::AsRawFd;
    #[repr(C)]
    struct PollFd {
        fd: std::os::raw::c_int,
        events: std::os::raw::c_short,
        revents: std::os::raw::c_short,
    }
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn ppoll(
            fds: *mut PollFd,
            nfds: std::os::raw::c_ulong,
            timeout: *const Timespec,
            sigmask: *const std::ffi::c_void,
        ) -> std::os::raw::c_int;
    }
    const POLLIN: std::os::raw::c_short = 0x1;
    let mut fds: Vec<PollFd> =
        streams.iter().map(|s| PollFd { fd: s.as_raw_fd(), events: POLLIN, revents: 0 }).collect();
    let ts = Timespec { tv_sec: timeout.as_secs() as i64, tv_nsec: timeout.subsec_nanos() as i64 };
    // SAFETY: `fds` is a live, properly laid-out `struct pollfd` array of
    // `fds.len()` entries that ppoll may write `revents` into; `ts` is a
    // valid `struct timespec` for the duration of the call; a null signal
    // mask leaves the mask unchanged.
    let rc = unsafe { ppoll(fds.as_mut_ptr(), fds.len() as _, &ts, std::ptr::null()) };
    if rc < 0 {
        let e = std::io::Error::last_os_error();
        return if e.kind() == std::io::ErrorKind::Interrupted {
            Ok(vec![false; fds.len()])
        } else {
            Err(e)
        };
    }
    Ok(fds.iter().map(|f| f.revents != 0).collect())
}

fn lock(q: &Mutex<VecDeque<Pending>>) -> std::sync::MutexGuard<'_, VecDeque<Pending>> {
    q.lock().expect("pending queue poisoned by a panicking client thread")
}

/// Run one open-loop phase over the two connections.
fn drive(
    conns: &[TcpStream; 2],
    items: &[Item],
    daemon: &Daemon,
    tracer: &Tracer,
    phase_span: Option<u32>,
    first_id: u64,
) -> PhaseResult {
    let queues: [Mutex<VecDeque<Pending>>; 2] = Default::default();
    let done_sending = std::sync::atomic::AtomicBool::new(false);
    let start = Instant::now() + Duration::from_millis(2);
    std::thread::scope(|s| {
        let sender = s.spawn(|| {
            let mut writers = [
                conns[0].try_clone().expect("clone connection"),
                conns[1].try_clone().expect("clone connection"),
            ];
            let mut late = Vec::with_capacity(items.len());
            for (k, item) in items.iter().enumerate() {
                let due = start + item.at;
                let now = Instant::now();
                if due > now {
                    std::thread::sleep(due - now);
                }
                let id = first_id + k as u64;
                // Mutations ride connection 0, queries alternate.
                let c = if item.kind == Kind::Mutate { 0 } else { k % 2 };
                let t_enc = Instant::now();
                let payload = proto::encode_request(&item.req);
                let sent = Instant::now();
                tracer.record(phase_span, "serve", "proto.encode_request", id, t_enc, sent);
                lock(&queues[c]).push_back(Pending {
                    id,
                    due,
                    sent,
                    kind: item.kind,
                    cum_events: item.cum_events,
                });
                late.push((sent - due).as_secs_f64() * 1e3);
                if proto::write_frame(&mut writers[c], &payload).is_err() {
                    break;
                }
            }
            done_sending.store(true, std::sync::atomic::Ordering::SeqCst);
            late
        });

        let receiver = s.spawn(|| {
            let mut readers = [
                conns[0].try_clone().expect("clone connection"),
                conns[1].try_clone().expect("clone connection"),
            ];
            let mut r = PhaseResult::default();
            let mut watches: VecDeque<(Instant, u64)> = VecDeque::new();
            let mut drain_deadline: Option<Instant> = None;
            let mut dead = false;
            loop {
                if let Some(&(acked, cum)) = watches.front() {
                    let st: DaemonStats = daemon.stats();
                    if st.mutations_applied + st.mutations_rejected >= cum {
                        r.fresh_ms.push(ms_since(acked));
                        watches.pop_front();
                        continue;
                    }
                }
                if done_sending.load(std::sync::atomic::Ordering::SeqCst) {
                    let idle = lock(&queues[0]).is_empty() && lock(&queues[1]).is_empty();
                    let deadline = *drain_deadline.get_or_insert_with(|| Instant::now() + DRAIN);
                    if (idle && watches.is_empty()) || Instant::now() > deadline {
                        break;
                    }
                }
                let timeout = if watches.is_empty() {
                    Duration::from_millis(2)
                } else {
                    Duration::from_micros(200)
                };
                let ready = match wait_readable(&[&readers[0], &readers[1]], timeout) {
                    Ok(ready) => ready,
                    Err(_) => break,
                };
                for c in 0..2 {
                    if !ready[c] || dead {
                        continue;
                    }
                    let frame = proto::read_frame(&mut readers[c], proto::MAX_FRAME);
                    let recv = Instant::now();
                    let Some(p) = lock(&queues[c]).pop_front() else {
                        r.malformed_answers.push("answer without a request".into());
                        continue;
                    };
                    let resp = match frame {
                        Ok(Some(bytes)) => {
                            let t = Instant::now();
                            let resp = proto::decode_response(&bytes);
                            tracer.record(
                                phase_span,
                                "serve",
                                "proto.decode_response",
                                p.id,
                                t,
                                Instant::now(),
                            );
                            resp.map_err(|e| e.to_string())
                        }
                        Ok(None) => Err("connection closed".to_string()),
                        Err(e) => Err(e.to_string()),
                    };
                    // A closed or broken connection answers nothing more:
                    // what is still pending counts as dropped.
                    dead |= resp.is_err();
                    tracer.record(phase_span, "serve", "daemon.request", p.id, p.due, recv);
                    account(&mut r, &p, resp, recv, &mut watches);
                }
                if dead {
                    break;
                }
            }
            r.dropped = (lock(&queues[0]).len() + lock(&queues[1]).len()) as u64;
            r
        });

        let late = sender.join().expect("sender thread panicked");
        let mut r = receiver.join().expect("receiver thread panicked");
        r.late_ms = late;
        r
    })
}

/// Book one answer: latency, kind check, shed and failure counts.
fn account(
    r: &mut PhaseResult,
    p: &Pending,
    resp: Result<Response, String>,
    recv: Instant,
    watches: &mut VecDeque<(Instant, u64)>,
) {
    let from_due = (recv - p.due).as_secs_f64() * 1e3;
    let ok = match (&p.kind, &resp) {
        (Kind::Mutate, Ok(Response::MutateAck { .. })) => {
            r.ack_ms.push((recv - p.sent).as_secs_f64() * 1e3);
            watches.push_back((recv, p.cum_events));
            true
        }
        (Kind::Assign(n), Ok(Response::Assignments(a))) => a.len() == *n,
        (Kind::Revenue, Ok(Response::Revenue(x))) => x.is_finite(),
        (Kind::Marginal, Ok(Response::Marginal(m))) => {
            m.base.is_finite() && m.perturbed.is_finite()
        }
        // A shed is a failed operation, not a malformed answer.
        (_, Ok(Response::Error { code: ErrorCode::Overloaded, .. })) => false,
        _ => {
            r.malformed_answers.push(format!("request {}: unexpected answer {resp:?}", p.id));
            false
        }
    };
    if p.kind == Kind::Mutate {
        r.mutations += 1;
        r.mutations_failed += u64::from(!ok);
    } else {
        r.queries += 1;
        r.failed += u64::from(!ok);
        r.latency_ms.push(from_due);
    }
}

/// The request-stream state shared by every phase of one daemon: the
/// seeded id stream and everything sent so far (for the cold rebuild).
struct Client {
    rng: u64,
    n_users: usize,
    /// Queries generated so far: the mix is a function of this count.
    queries: u64,
    batch_no: usize,
    events_sent: u64,
    sent_batches: Vec<Vec<Event>>,
    next_id: u64,
}

impl Client {
    fn new(seed: u64, n_users: usize) -> Client {
        Client {
            rng: seed ^ 0xC0FF_EE00,
            n_users,
            queries: 0,
            batch_no: 0,
            events_sent: 0,
            sent_batches: Vec::new(),
            next_id: 0,
        }
    }

    /// The next query. Every 50th addresses `All`, every 100th is a
    /// `MarginalRevenue` what-if; the rest are 16-id `Assign` or
    /// `ExpectedRevenue` queries, by a seeded coin.
    fn next_query(&mut self) -> (Request, Kind) {
        let k = self.queries;
        self.queries += 1;
        let n_users = self.n_users as u64;
        let ids = |rng: &mut u64| -> Vec<u32> {
            (0..BATCH).map(|_| (splitmix(rng) % n_users) as u32).collect()
        };
        if k % 100 == 99 {
            let sel = if k % 200 == 199 { UserSel::All } else { UserSel::Ids(ids(&mut self.rng)) };
            return (Request::MarginalRevenue { offer: 0, dprice: 0.01, sel }, Kind::Marginal);
        }
        let sel = if k % 50 == 49 { UserSel::All } else { UserSel::Ids(ids(&mut self.rng)) };
        let len = if sel == UserSel::All { self.n_users } else { BATCH };
        if splitmix(&mut self.rng).is_multiple_of(2) {
            (Request::Assign(sel), Kind::Assign(len))
        } else {
            (Request::ExpectedRevenue(sel), Kind::Revenue)
        }
    }

    /// The next churn batch, and the events sent through it, cumulative.
    fn next_mutation(&mut self, base: &Market) -> (Request, u64) {
        let events = churn_batch(base, self.batch_no);
        self.batch_no += 1;
        self.events_sent += events.len() as u64;
        self.sent_batches.push(events.clone());
        (Request::MutateMarket(events), self.events_sent)
    }

    /// The open-loop request stream of one phase at `rate` queries/s for
    /// `secs`, churn batches every [`MUTATE_EVERY_MS`].
    fn phase(&mut self, base: &Market, rate: f64, secs: f64) -> Vec<Item> {
        let n = (rate * secs).round().max(1.0) as usize;
        let mut items: Vec<Item> = (0..n)
            .map(|k| {
                let (req, kind) = self.next_query();
                Item { at: Duration::from_secs_f64(k as f64 / rate), req, kind, cum_events: 0 }
            })
            .collect();
        let mut t = 0u64;
        while (t as f64) < secs * 1e3 {
            let (req, cum_events) = self.next_mutation(base);
            items.push(Item {
                at: Duration::from_millis(t) + Duration::from_micros(250),
                req,
                kind: Kind::Mutate,
                cum_events,
            });
            t += MUTATE_EVERY_MS;
        }
        items.sort_by_key(|i| i.at);
        items
    }

    /// Drive one open-loop phase inside a `serve` span; with `per_request`
    /// off, no span is recorded while the phase runs (the untraced
    /// comparison).
    fn open(
        &mut self,
        conns: &[TcpStream; 2],
        items: &[Item],
        daemon: &Daemon,
        tracer: &Tracer,
        name: &str,
        per_request: bool,
    ) -> PhaseResult {
        let id = self.next_id;
        self.next_id += items.len() as u64;
        if per_request {
            let span = tracer.span("serve", name, id);
            drive(conns, items, daemon, tracer, span.id(), id)
        } else {
            let t = Instant::now();
            let r = drive(conns, items, daemon, &Tracer::new(false), None, id);
            tracer.record(tracer.current(), "serve", name, id, t, Instant::now());
            r
        }
    }

    /// One closed-loop slice of `n` queries from one thread on
    /// `conns[0]`, `window` in flight (the next is written as soon as an
    /// answer comes back). With `mutate`, a churn batch goes out on
    /// `conns[1]` after the first answer, and the slice runs on until the
    /// daemon shows the batch applied.
    #[allow(clippy::too_many_arguments)]
    fn closed(
        &mut self,
        conns: &[TcpStream; 2],
        daemon: &Daemon,
        base: &Market,
        tracer: &Tracer,
        name: &str,
        window: usize,
        n: usize,
        mutate: bool,
    ) -> PhaseResult {
        let span = tracer.span("serve", name, self.next_id);
        let span = span.id();
        let mut r = PhaseResult::default();
        let mut inflight: VecDeque<Pending> = VecDeque::with_capacity(window);
        let mut watches: VecDeque<(Instant, u64)> = VecDeque::new();
        let (mut answered, mut first, mut last) = (0usize, None, Instant::now());
        let (mut q, mut m) = (&conns[0], &conns[1]);
        let deadline = Instant::now() + DRAIN;
        let mut mutate = mutate;
        loop {
            let more = answered + inflight.len() < n || !watches.is_empty() || mutate;
            while inflight.len() < window && more && Instant::now() < deadline {
                let (req, kind) = self.next_query();
                let id = self.next_id;
                self.next_id += 1;
                let t = Instant::now();
                let payload = proto::encode_request(&req);
                let sent = Instant::now();
                tracer.record(span, "serve", "proto.encode_request", id, t, sent);
                if proto::write_frame(&mut q, &payload).is_err() {
                    break;
                }
                inflight.push_back(Pending { id, due: sent, sent, kind, cum_events: 0 });
            }
            let Some(p) = inflight.pop_front() else { break };
            let frame = proto::read_frame(&mut q, proto::MAX_FRAME);
            let recv = Instant::now();
            let resp = match frame {
                Ok(Some(bytes)) => {
                    let t = Instant::now();
                    let resp = proto::decode_response(&bytes);
                    tracer.record(span, "serve", "proto.decode_response", p.id, t, Instant::now());
                    resp.map_err(|e| e.to_string())
                }
                Ok(None) => Err("connection closed".to_string()),
                Err(e) => Err(e.to_string()),
            };
            let dead = resp.is_err();
            tracer.record(span, "serve", "daemon.request", p.id, p.sent, recv);
            account(&mut r, &p, resp, recv, &mut watches);
            answered += 1;
            first.get_or_insert(recv);
            last = recv;
            if dead {
                r.dropped += inflight.len() as u64;
                break;
            }
            if mutate {
                mutate = false;
                let (req, cum_events) = self.next_mutation(base);
                let id = self.next_id;
                self.next_id += 1;
                let sent = Instant::now();
                let ack = proto::write_frame(&mut m, &proto::encode_request(&req))
                    .and_then(|()| proto::read_frame(&mut m, proto::MAX_FRAME));
                let recv = Instant::now();
                let resp = match ack {
                    Ok(Some(bytes)) => proto::decode_response(&bytes).map_err(|e| e.to_string()),
                    Ok(None) => Err("connection closed".to_string()),
                    Err(e) => Err(e.to_string()),
                };
                let p = Pending { id, due: sent, sent, kind: Kind::Mutate, cum_events };
                account(&mut r, &p, resp, recv, &mut watches);
            }
            if let Some(&(acked, cum)) = watches.front() {
                let st: DaemonStats = daemon.stats();
                if st.mutations_applied + st.mutations_rejected >= cum {
                    r.fresh_ms.push(ms_since(acked));
                    watches.pop_front();
                }
            }
        }
        if let Some(first) = first.filter(|_| answered > 1) {
            r.rate = (answered - 1) as f64 / (last - first).as_secs_f64().max(1e-9);
        }
        r
    }
}

fn connect(daemon: &Daemon) -> TcpStream {
    let s = TcpStream::connect(daemon.addr()).expect("connect to the in-process daemon");
    s.set_nodelay(true).expect("set TCP_NODELAY");
    s
}

/// Whether the client, rather than the daemon, fell behind: the sender's
/// own lateness accounts for more than half of the latency tail.
fn client_behind(r: &PhaseResult) -> bool {
    !r.late_ms.is_empty() && quantile(&r.late_ms, 0.99) > 0.5 * quantile(&r.latency_ms, 0.99)
}

/// Generate a segment's market and spawn its daemon `reps` times,
/// keeping the last. Returns the market, the daemon, and the median
/// set-up, generate and CSR-build times (s, ms, ms).
fn spawn(tracer: &Tracer, scale: ScaleSpec, seed: u64, reps: u64) -> (Market, Daemon, [f64; 3]) {
    let (mut setup_s, mut gen_ms, mut csr_ms) = (Vec::new(), Vec::new(), Vec::new());
    let mut spawned: Option<(Market, Daemon)> = None;
    for rep in 0..reps {
        if let Some((_, d)) = spawned.take() {
            d.request_shutdown();
            d.join();
        }
        let _s = tracer.span("bench", "setup", rep);
        let t = Instant::now();
        let data = {
            let _g = tracer.span("dataset", "dataset.generate", rep);
            scale.config().generate(seed)
        };
        gen_ms.push(ms_since(t));
        let t1 = Instant::now();
        let market = {
            let _b = tracer.span("core", "core.csr_build", rep);
            market_from_data(&data, 0.0)
        };
        csr_ms.push(ms_since(t1));
        let daemon = {
            let _d = tracer.span("serve", "serve.daemon_spawn", rep);
            Daemon::spawn("127.0.0.1:0", market.clone(), daemon_config())
                .expect("the daemon spawns on loopback")
        };
        setup_s.push(ms_since(t) / 1e3);
        spawned = Some((market, daemon));
    }
    let (market, daemon) = spawned.expect("at least one set-up");
    (market, daemon, [median(&setup_s), median(&gen_ms), median(&csr_ms)])
}

/// One daemon of the fleet and what the client measured on it.
struct Member {
    base: Market,
    daemon: Daemon,
    client: Client,
    conns: [TcpStream; 2],
    /// Per slice: median latency (ms) and throughput (1/s).
    latency: Vec<f64>,
    rate: Vec<f64>,
}

pub fn run(cfg: &Cfg, tracer: &Tracer, run: &mut Run) {
    let scale = if cfg.tiny { ScaleSpec::Tiny } else { ScaleSpec::Small };
    let reps = if cfg.tiny { 2 } else { 6 };
    // The traced run measures one daemon, and drives it open loop too.
    let segments = if tracer.enabled() {
        1
    } else if cfg.tiny {
        2
    } else {
        SEGMENTS
    };
    let mut setup_s = 0.0;
    let mut fleet: Vec<Member> = (0..segments)
        .map(|k| {
            let seed = segment_seed(cfg.seed, k);
            let (base, daemon, [setup, gen_ms, csr_ms]) = spawn(tracer, scale, seed, reps);
            setup_s += setup;
            if tracer.enabled() {
                run.metric("dataset.generate_ms", gen_ms, "ms");
                run.metric("core.csr_build_ms", csr_ms, "ms");
            }
            let conns = [connect(&daemon), connect(&daemon)];
            let client = Client::new(seed, base.n_users());
            Member { base, daemon, client, conns, latency: Vec::new(), rate: Vec::new() }
        })
        .collect();
    run.metric("setup_s", setup_s, "s");
    if tracer.enabled() {
        let m = &mut fleet[0];
        open_loop(cfg, tracer, run, &mut m.client, &m.conns, &m.daemon, &m.base);
    }

    // Round-robin over the fleet, one latency slice (one request in
    // flight) and one throughput slice (a window in flight) per daemon per
    // cycle, so a slow stretch of the host hits every daemon alike. Churn
    // goes to whichever daemon is up next once a batch is due.
    let (mut ack_ms, mut fresh_ms) = (Vec::new(), Vec::new());
    let measure = Duration::from_secs_f64(if cfg.tiny || tracer.enabled() {
        0.2 * cfg.seconds
    } else {
        0.9 * cfg.seconds
    });
    let start = Instant::now();
    let mut next_mutation = start;
    let mut cycle = 0;
    while cycle < 3 || start.elapsed() < measure {
        for m in &mut fleet {
            let mutate = Instant::now() >= next_mutation;
            if mutate {
                next_mutation += Duration::from_millis(MUTATE_EVERY_MS);
            }
            let (c, d, b) = (&m.conns, &m.daemon, &m.base);
            let lat = m.client.closed(c, d, b, tracer, "daemon.latency", 1, SLICE, mutate);
            let thr = m.client.closed(c, d, b, tracer, "daemon.throughput", WINDOW, SLICE, false);
            book(run, &lat);
            book(run, &thr);
            ack_ms.extend_from_slice(&lat.ack_ms);
            fresh_ms.extend_from_slice(&lat.fresh_ms);
            // The first cycle warms up.
            if cycle > 0 {
                m.latency.push(median(&lat.latency_ms));
                m.rate.push(thr.rate);
            }
        }
        cycle += 1;
    }
    let mean = |xs: Vec<f64>| xs.iter().sum::<f64>() / xs.len().max(1) as f64;
    let latency = mean(fleet.iter().map(|m| quantile(&m.latency, SLICE_QUANTILE)).collect());
    let rate = mean(fleet.iter().map(|m| quantile(&m.rate, 1.0 - SLICE_QUANTILE)).collect());
    run.metric("latency_ms", latency, "ms");
    run.metric("rate_per_s", rate, "1/s");
    let (ack_p50, fresh_p50) = (median_or_zero(&ack_ms), median_or_zero(&fresh_ms));
    if tracer.enabled() {
        run.metric("daemon.mutate_ack_p50_ms", ack_p50, "ms");
        run.metric("daemon.fresh_p50_ms", fresh_p50, "ms");
    }
    run.note(format!(
        "daemon: {segments} daemons x{} cycles: closed-loop latency {latency:.4} ms, \
         throughput {rate:.0}/s; mutate_ack_p50 {ack_p50:.4} ms, fresh_p50 {fresh_p50:.3} ms \
         ({} batches)",
        cycle - 1,
        fresh_ms.len()
    ));

    let (mut revenue, mut components) = (0.0, 0.0);
    for m in fleet {
        drop(m.conns);
        let (rev, comp) = finish(cfg, tracer, run, &m.base, m.daemon, &m.client);
        revenue += rev;
        components += comp;
    }
    run.metric("revenue_lift", revenue / components, "x");
}

/// The traced run's open-loop phase at [`NOMINAL_RPS`], driven untraced
/// and then traced (their p50 ratio is the tracing overhead): query p50
/// and p99 from due time, and how late the sender ran.
fn open_loop(
    cfg: &Cfg,
    tracer: &Tracer,
    run: &mut Run,
    client: &mut Client,
    conns: &[TcpStream; 2],
    daemon: &Daemon,
    base: &Market,
) {
    let secs = if cfg.tiny { 0.5 } else { 0.4 * cfg.seconds };
    let items = client.phase(base, NOMINAL_RPS, secs);
    let plain = client.open(conns, &items, daemon, tracer, "daemon.nominal_untraced", false);
    book(run, &plain);
    let items = client.phase(base, NOMINAL_RPS, secs);
    let nominal = client.open(conns, &items, daemon, tracer, "daemon.nominal", true);
    book(run, &nominal);
    let p50 = median(&nominal.latency_ms);
    let p99 = windowed_p99(&nominal.latency_ms);
    let gen_late_p99 = quantile(&nominal.late_ms, 0.99);
    let client_bound = client_behind(&nominal);
    run.metric("trace.overhead_frac", p50 / median(&plain.latency_ms) - 1.0, "fraction");
    run.metric("daemon.query_p50_ms", p50, "ms");
    run.metric("daemon.query_p99_ms", p99, "ms");
    run.metric("daemon.gen_late_p99_ms", gen_late_p99, "ms");
    run.metric("daemon.client_bound", f64::from(u8::from(client_bound)), "flag");
    run.note(format!(
        "daemon: {} open-loop queries at {NOMINAL_RPS}/s: p50 {p50:.4} ms, p99 {p99:.4} ms; \
         generator late p99 {gen_late_p99:.4} ms{}",
        nominal.latency_ms.len(),
        if client_bound {
            " — CLIENT-BOUND: the client, not the daemon, fell behind"
        } else {
            ""
        }
    ));
}

/// The median over consecutive windows of [`NOMINAL_RPS`] answers (one
/// second each) of each window's p99 — ten samples beyond the p99 per
/// window, and one host stall moves one window, not the whole figure.
fn windowed_p99(latency_ms: &[f64]) -> f64 {
    let p99s: Vec<f64> =
        latency_ms.chunks(NOMINAL_RPS as usize).map(|w| quantile(w, 0.99)).collect();
    median(&p99s)
}

fn median_or_zero(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        median(xs)
    }
}

/// Count a phase's operations into the run.
fn book(run: &mut Run, r: &PhaseResult) {
    run.ops(r.queries + r.mutations + r.dropped, r.failed + r.mutations_failed + r.dropped);
    for m in r.malformed_answers.iter().take(3) {
        run.note(m.clone());
    }
    if r.dropped > 0 || !r.malformed_answers.is_empty() {
        run.check("daemon.no_request_dropped", r.dropped == 0, || format!("{} dropped", r.dropped));
        run.check("daemon.answers_well_formed", r.malformed_answers.is_empty(), || {
            r.malformed_answers.first().cloned().unwrap_or_default()
        });
    }
    if r.mutations_failed > 0 {
        run.check("daemon.mutations_acked", false, || format!("{} not acked", r.mutations_failed));
    }
}

/// After the load: typed errors for malformed frames, churn drained,
/// `All` answers bit-identical to a cold rebuild of the sent history,
/// counters over the wire, in-process layer replays (traced run), and
/// shutdown.
fn finish(
    cfg: &Cfg,
    tracer: &Tracer,
    run: &mut Run,
    base: &Market,
    daemon: Daemon,
    client: &Client,
) -> (f64, f64) {
    for name in
        ["daemon.no_request_dropped", "daemon.answers_well_formed", "daemon.mutations_acked"]
    {
        if !run.checks.iter().any(|(n, _)| n == name) {
            run.check(name, true, String::new);
        }
    }
    let mut conn = connect(&daemon);
    let n_users = base.n_users();

    // A garbage opcode gets a typed Malformed error and the connection
    // keeps serving; an out-of-range id gets a typed Query error.
    let garbage = proto::write_frame(&mut conn, &[0xEE, 1, 2, 3])
        .and_then(|()| proto::read_frame(&mut conn, proto::MAX_FRAME));
    let typed =
        matches!(
            garbage.ok().flatten().map(|p| proto::decode_response(&p)),
            Some(Ok(Response::Error { code: ErrorCode::Malformed, .. }))
        ) && matches!(proto::roundtrip(&mut conn, &Request::SwapStats), Ok(Response::Stats(_)));
    run.check("daemon.malformed_frame_typed_error", typed, || "no typed Malformed error".into());
    let oor = proto::roundtrip(&mut conn, &Request::Assign(UserSel::Ids(vec![n_users as u32])));
    run.check(
        "daemon.out_of_range_typed_error",
        matches!(oor, Ok(Response::Error { code: ErrorCode::Query, .. })),
        || format!("got {oor:?}"),
    );

    // Churn drained: every sent event applied or rejected.
    let deadline = Instant::now() + Duration::from_secs(60);
    let stats = loop {
        match proto::roundtrip(&mut conn, &Request::SwapStats) {
            Ok(Response::Stats(s)) => {
                if s.mutations_applied + s.mutations_rejected >= client.events_sent
                    || Instant::now() > deadline
                {
                    break Some(s);
                }
            }
            _ => break None,
        }
        std::thread::sleep(Duration::from_millis(5));
    };
    let drained = stats.is_some_and(|s| {
        s.mutations_applied + s.mutations_rejected >= client.events_sent
            && s.mutations_rejected == 0
    });
    run.check("daemon.churn_drained", drained, || {
        format!("stats {stats:?}, sent {}", client.events_sent)
    });
    if let Some(s) = stats {
        let served = (s.served_assign + s.served_revenue).max(1);
        run.metric("daemon.coalesced_frac", s.coalesced as f64 / served as f64, "fraction");
        run.metric("daemon.shed", s.shed as f64, "count");
    }

    // Cold rebuild of the sent history vs the served `All` answers.
    let mut log = MarketLog::new(base.clone());
    let mut replay_ok = true;
    for b in &client.sent_batches {
        replay_ok &= log.apply_batch(b.iter().copied()).is_ok();
    }
    let churned = log.snapshot();
    let cold_market = churned.with_wtp(churned.wtp().compact());
    let mut engine = LiveEngine::new(&METHODS, COHORTS).expect("valid methods");
    let cold = engine.resolve(&cold_market).expect("cold resolve");
    let cell = cold.whole_cell().expect("whole-market cell");
    let cold_index = MenuIndex::compile(&cold_market, &cell.outcome.config);
    let cold_rev = cold_index.expected_revenue_all();
    let rev = proto::roundtrip(&mut conn, &Request::ExpectedRevenue(UserSel::All));
    let asg = proto::roundtrip(&mut conn, &Request::Assign(UserSel::All));
    let same_rev = matches!(rev, Ok(Response::Revenue(x)) if x.to_bits() == cold_rev.to_bits());
    let same_asg = matches!(&asg, Ok(Response::Assignments(a)) if *a == cold_index.assign_all());
    run.check("daemon.all_matches_cold_rebuild", replay_ok && same_rev && same_asg, || {
        format!("served {rev:?} vs cold {cold_rev}; assignments equal: {same_asg}")
    });
    run.ops(6, 0);
    let components = cold.whole_revenue("Components").unwrap_or(f64::NAN);
    run.note(format!(
        "daemon: best_revenue {cold_rev:.2} after {} churn batches",
        client.sent_batches.len()
    ));
    drop(conn);

    if tracer.enabled() {
        replay_layers(cfg, tracer, run, base, client, &cold_market, &cell.outcome.config);
    }
    daemon.request_shutdown();
    daemon.join();
    (cold_rev, components)
}

/// Mean microseconds per call of `f` over `n` calls, inside one span.
fn mean_us(
    tracer: &Tracer,
    layer: &'static str,
    name: &str,
    n: usize,
    mut f: impl FnMut(usize),
) -> f64 {
    let _s = tracer.span(layer, name, 0);
    let t = Instant::now();
    for k in 0..n {
        f(k);
    }
    ms_since(t) * 1e3 / n.max(1) as f64
}

/// In-process replays of the daemon's layers on the workload's own
/// inputs: the point-query kernel, the codec, the coalesced revenue and
/// what-if paths, and the churn pipeline over the sent batches.
fn replay_layers(
    cfg: &Cfg,
    tracer: &Tracer,
    run: &mut Run,
    base: &Market,
    client: &Client,
    market: &Market,
    config: &BundleConfig,
) {
    let index = &MenuIndex::compile(market, config);
    let calls = if cfg.tiny { 50 } else { 2000 };
    let mut rng = cfg.seed ^ 0xC0FF_EE00;
    let batches: Vec<Vec<u32>> = (0..calls)
        .map(|_| (0..BATCH).map(|_| (splitmix(&mut rng) % client.n_users as u64) as u32).collect())
        .collect();
    let point_assign = mean_us(tracer, "serve", "serve.try_assign", calls, |k| {
        black_box(index.try_assign(&batches[k]).expect("valid ids"));
    });
    let point_revenue = mean_us(tracer, "serve", "serve.try_expected_revenue", calls, |k| {
        black_box(index.try_expected_revenue(&batches[k]).expect("valid ids"));
    });
    run.metric("serve.point_assign_us", point_assign, "us");
    run.metric("serve.point_revenue_us", point_revenue, "us");
    let pairs: Vec<Vec<u32>> = batches.chunks(2).map(|c| c.concat()).collect();
    let payments = mean_us(tracer, "serve", "serve.try_payments", pairs.len(), |k| {
        black_box(index.try_payments(&pairs[k]).expect("valid ids"));
    });
    run.metric("serve.payments_ms", payments / 1e3, "ms");
    let marginal = mean_us(tracer, "serve", "serve.try_marginal_revenue_all", calls / 10, |_| {
        black_box(index.try_marginal_revenue_all(0, 0.01).expect("offer 0 exists"));
    });
    run.metric("serve.marginal_ms", marginal / 1e3, "ms");

    // Codec: each sampled request and its answer, encoded and decoded.
    let answers = tracer.span("serve", "serve.answers_for_codec", 0);
    let frames: Vec<(Request, Response)> = batches
        .iter()
        .enumerate()
        .map(|(k, ids)| {
            if k % 2 == 0 {
                let a = index.try_assign(ids).expect("valid ids");
                (Request::Assign(UserSel::Ids(ids.clone())), Response::Assignments(a))
            } else {
                let x = index.try_expected_revenue(ids).expect("valid ids");
                (Request::ExpectedRevenue(UserSel::Ids(ids.clone())), Response::Revenue(x))
            }
        })
        .collect();
    drop(answers);
    let mut encoded = Vec::with_capacity(frames.len());
    let encode = mean_us(tracer, "serve", "proto.encode", frames.len(), |k| {
        encoded.push((proto::encode_request(&frames[k].0), proto::encode_response(&frames[k].1)));
    });
    let decode = mean_us(tracer, "serve", "proto.decode", encoded.len(), |k| {
        black_box(proto::decode_request(&encoded[k].0).expect("round-trips"));
        black_box(proto::decode_response(&encoded[k].1).expect("round-trips"));
    });
    run.metric("proto.encode_us", encode, "us");
    run.metric("proto.decode_us", decode, "us");
    let p50_us = run.metrics.iter().find(|(n, _, _)| n == "latency_ms").map_or(0.0, |m| m.1 * 1e3);
    let execute = (point_assign + point_revenue) / 2.0;
    run.metric("daemon.wire_queue_us", p50_us - execute - encode - decode, "us");

    // Churn pipeline: apply → snapshot → resolve → compile → swap, per
    // sent batch, as the daemon's churn thread runs it.
    let mut log = MarketLog::new(base.clone());
    let mut engine = LiveEngine::new(&METHODS, COHORTS).expect("valid methods");
    let first = engine.resolve(base).expect("initial resolve");
    let handle = ServeHandle::new(MenuIndex::compile(
        base,
        &first.whole_cell().expect("cell").outcome.config,
    ));
    let batches = if cfg.tiny {
        &client.sent_batches[..client.sent_batches.len().min(3)]
    } else {
        &client.sent_batches[..]
    };
    let (mut apply, mut snap, mut resolve, mut swap) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let (mut hits, mut lookups, mut invalidated) = (0usize, 0usize, 0usize);
    for (k, b) in batches.iter().enumerate() {
        let k = k as u64;
        let t = Instant::now();
        {
            let _s = tracer.span("core", "core.marketlog.apply_batch", k);
            log.apply_batch(b.iter().copied()).expect("sent events are valid");
        }
        apply.push(ms_since(t) * 1e3);
        let t = Instant::now();
        let churned = {
            let _s = tracer.span("core", "core.marketlog.snapshot", k);
            log.snapshot()
        };
        snap.push(ms_since(t));
        let t = Instant::now();
        let report = {
            let _s = tracer.span("engine", "engine.resolve", k);
            engine.resolve(&churned).expect("resolve")
        };
        resolve.push(ms_since(t));
        hits += report.stats.hits;
        lookups += report.stats.hits + report.stats.misses;
        invalidated += report.invalidated.len();
        let index = {
            let _s = tracer.span("serve", "serve.compile", k);
            MenuIndex::compile(&churned, &report.whole_cell().expect("cell").outcome.config)
        };
        let t = Instant::now();
        {
            let _s = tracer.span("serve", "serve.swap", k);
            handle.swap(index);
        }
        swap.push(ms_since(t) * 1e3);
    }
    if !batches.is_empty() {
        run.metric("core.marketlog.apply_us", median(&apply), "us");
        run.metric("core.snapshot_ms", median(&snap), "ms");
        run.metric("engine.resolve_ms", median(&resolve), "ms");
        run.metric("engine.resolve_hit_frac", hits as f64 / lookups.max(1) as f64, "fraction");
        run.metric("engine.invalidated_cells", invalidated as f64 / batches.len() as f64, "count");
        run.metric("serve.swap_us", median(&swap), "us");
    }
    let compile_us = mean_us(tracer, "serve", "serve.compile", 50, |_| {
        black_box(MenuIndex::compile(market, config));
    });
    run.metric("serve.compile_us", compile_us, "us");
}
