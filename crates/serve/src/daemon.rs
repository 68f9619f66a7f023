//! `revmax-served` — the long-running serving daemon (`DESIGN.md` §11).
//!
//! Everything below is `std`-only (`std::net` blocking sockets,
//! `std::thread`, `Mutex`/`Condvar`), matching the workspace's `vendor/`
//! philosophy. The process is three kinds of thread around two shared
//! structures:
//!
//! * **Connection threads** (one per accepted socket) read
//!   [`proto`] frames, decode them totally (a malformed
//!   frame gets an error response, never a panic), and either answer
//!   inline (`SwapStats`, `MutateMarket` enqueue, `Shutdown`) or run the
//!   query themselves. There are no worker threads: every query is
//!   answered by the thread that decoded it, once it holds one of
//!   [`DaemonConfig::workers`] **permits**. With a permit free the thread
//!   runs at once; otherwise it joins the **wait line** and runs when a
//!   freed permit passes to it, in admission order.
//! * **The churn thread** owns the [`MarketLog`] and the retained
//!   [`LiveEngine`]: mutation batches are applied off the request path,
//!   re-solved incrementally, compiled, given their answer table, and
//!   [`ServeHandle::swap`]ped in atomically — queries never wait on a
//!   solve, and the churn parity guarantees hold end to end. The churn
//!   channel is bounded by the same `queue_cap`.
//! * **The accept thread** hands sockets to connection threads until
//!   shutdown.
//!
//! **Answers are table reads.** Every served index carries an answer
//! table (`DESIGN.md` §11.6): each consumer's payment and held offers,
//! filled by one kernel pass when the index is built. `Assign` and
//! `ExpectedRevenue` read it — a revenue total is
//! [`chunked_payment_fold`](crate::query::chunked_payment_fold) over the
//! gathered payments, bit-identical to
//! [`MenuIndex::try_expected_revenue`] — so the tile kernel runs only for
//! that fill and for `MarginalRevenue`.
//!
//! **Admission control:** the wait line and the churn channel are
//! bounded ([`DaemonConfig::queue_cap`] each). When one is full the
//! connection thread answers [`ErrorCode::Overloaded`] immediately
//! instead of queueing unbounded latency or memory — the client retries;
//! the daemon's tail stays flat.
//! Per-endpoint latency (admission → answer) lands in a log₂-bucketed
//! [`LatencyHistogram`] whose quantiles export through
//! [`Request::SwapStats`] and, in the `loadgen` bin, BENCH_JSON.

use crate::index::MenuIndex;
use crate::proto::{self, DaemonStats, ErrorCode, Request, Response, UserSel, MAX_FRAME};
use crate::swap::ServeHandle;
use revmax_core::config::BundleConfig;
use revmax_core::market::Market;
use revmax_core::marketlog::{Event, MarketLog};
use revmax_engine::{CacheStats, LiveEngine};
use std::collections::VecDeque;
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::{JoinHandle, Thread};
use std::time::Instant;

/// Tile block width of the daemon's indexes. Tiles are built only to
/// fill a generation's answer table and for `MarginalRevenue` queries;
/// both can run at once across a fleet of daemons and their many
/// connection threads, each holding its own tile, so a narrow tile keeps
/// peak RSS low (`DESIGN.md` §9.3).
const QUERY_BLOCK: usize = 16;

/// The daemon's index over a solved menu: its per-query thread fan-out,
/// [`QUERY_BLOCK`], and its answer table, filled before any reader can
/// see the index.
fn serving_index(market: &Market, config: &BundleConfig, cfg: &DaemonConfig) -> MenuIndex {
    MenuIndex::compile(market, config)
        .with_threads(cfg.query_threads)
        .with_block(QUERY_BLOCK)
        .with_answer_table()
}

/// Knobs of a [`Daemon`]. `Default` is sized for tests and small hosts;
/// the `revmax-served` bin maps its CLI keys onto these.
#[derive(Debug, Clone)]
pub struct DaemonConfig {
    /// How many queries may execute at once: the number of permits a
    /// connection thread must hold to run its own query. There are no
    /// worker threads.
    pub workers: usize,
    /// Admission-control capacity: how many connection threads may wait
    /// for a permit. A query that finds every permit taken and this many
    /// threads already waiting is shed with [`ErrorCode::Overloaded`]. It
    /// also caps the mutation batches waiting for the churn thread.
    pub queue_cap: usize,
    /// `revmax-par` threads per kernel call: the answer-table fill and
    /// marginal queries (the permits are the daemon's parallelism, so 1
    /// is the right default; results are bit-identical at any value).
    pub query_threads: usize,
    /// Configurator methods for the churn thread's incremental re-solves
    /// (registry names/aliases; the first method's whole-market cell is
    /// the served menu).
    pub methods: Vec<String>,
    /// Activity-cohort count of the churn thread's resolves.
    pub cohorts: usize,
    /// Per-frame payload cap for this daemon's connections.
    pub max_frame: usize,
}

impl Default for DaemonConfig {
    fn default() -> DaemonConfig {
        DaemonConfig {
            workers: 2,
            queue_cap: 1024,
            query_threads: 1,
            methods: vec!["components".into()],
            cohorts: 0,
            max_frame: MAX_FRAME,
        }
    }
}

/// A fixed 64-bucket log₂ latency histogram on atomics: `record` is one
/// `fetch_add`, wait-free from any thread; quantiles resolve to the upper
/// bound of the containing power-of-two bucket (≤ 2× overestimate, which
/// is the right bias for a latency gate).
#[derive(Debug)]
pub struct LatencyHistogram {
    buckets: [AtomicU64; 64],
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        LatencyHistogram::new()
    }
}

impl LatencyHistogram {
    pub fn new() -> LatencyHistogram {
        LatencyHistogram { buckets: std::array::from_fn(|_| AtomicU64::new(0)) }
    }

    /// Record one observation in nanoseconds.
    pub fn record(&self, ns: u64) {
        let bucket = 63 - (ns | 1).leading_zeros() as usize;
        self.buckets[bucket].fetch_add(1, Ordering::Relaxed);
    }

    /// Total observations recorded.
    pub fn count(&self) -> u64 {
        self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).sum()
    }

    /// The `q`-quantile (`0.0..=1.0`) in nanoseconds: the upper bound of
    /// the first bucket whose cumulative count reaches `ceil(q · total)`.
    /// 0 when nothing was recorded.
    pub fn quantile(&self, q: f64) -> u64 {
        let total = self.count();
        if total == 0 {
            return 0;
        }
        let target = ((q.clamp(0.0, 1.0) * total as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (k, b) in self.buckets.iter().enumerate() {
            seen += b.load(Ordering::Relaxed);
            if seen >= target {
                return if k >= 63 { u64::MAX } else { (1u64 << (k + 1)) - 1 };
            }
        }
        u64::MAX
    }
}

#[derive(Debug, Clone, Copy)]
enum QueryKind {
    Assign,
    Revenue,
    /// A marginal what-if with its perturbation.
    Marginal {
        offer: u32,
        dprice: f64,
    },
}

/// What [`Gate`]'s lock guards.
struct GateState {
    /// Permits held: queries executing right now.
    running: usize,
    /// Threads waiting for a permit, in admission order.
    waiting: VecDeque<Thread>,
    /// Permits passed to waiting threads so far. Grants follow admission
    /// order, so a thread that joined the line when `granted +
    /// waiting.len()` read `t` holds its permit once `granted > t`.
    granted: u64,
    /// Set by shutdown; admission refuses from then on.
    closed: bool,
}

/// The execution permits and the bounded wait line, under one lock.
///
/// Invariant: a freed permit passes straight to the longest waiter, so a
/// permit is free only while nobody waits, and `running > 0` whenever
/// someone does. Each grant wakes exactly the thread it goes to.
struct Gate {
    state: Mutex<GateState>,
    /// Signalled when a closed gate goes idle ([`Gate::wait_idle`]).
    idle: Condvar,
    cap: usize,
    permits: usize,
}

/// The right to execute one query. Dropping it — after the answer, or
/// while its holder unwinds from a panicking query — passes it to the
/// next waiter or returns it.
struct Permit<'g> {
    gate: &'g Gate,
}

impl Drop for Permit<'_> {
    fn drop(&mut self) {
        let mut st = self.gate.lock();
        if let Some(next) = st.waiting.pop_front() {
            st.granted += 1;
            drop(st);
            next.unpark();
        } else {
            st.running -= 1;
            self.gate.notify_if_idle(&st);
        }
    }
}

impl Gate {
    fn new(cap: usize, permits: usize) -> Gate {
        Gate {
            state: Mutex::new(GateState {
                running: 0,
                waiting: VecDeque::new(),
                granted: 0,
                closed: false,
            }),
            idle: Condvar::new(),
            cap: cap.max(1),
            permits: permits.max(1),
        }
    }

    /// The lock is never held while a query executes, so poisoning can
    /// only come from a panic inside this module's own bookkeeping; the
    /// state stays consistent either way.
    fn lock(&self) -> MutexGuard<'_, GateState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Take a permit for one query: at once if one is free, else after
    /// waiting in line for it. Refuses with `ShuttingDown` once closed and
    /// with `Overloaded` when `cap` threads already wait.
    fn admit(&self) -> Result<Permit<'_>, ErrorCode> {
        let mut st = self.lock();
        if st.closed {
            return Err(ErrorCode::ShuttingDown);
        }
        if st.running < self.permits {
            st.running += 1;
            return Ok(Permit { gate: self });
        }
        if st.waiting.len() >= self.cap {
            return Err(ErrorCode::Overloaded);
        }
        let ticket = st.granted + st.waiting.len() as u64;
        st.waiting.push_back(std::thread::current());
        // The grant unparks this thread; a spurious or early wake-up
        // just rechecks.
        while st.granted <= ticket {
            drop(st);
            std::thread::park();
            st = self.lock();
        }
        Ok(Permit { gate: self })
    }

    /// Refuse admission from now on. Threads already waiting keep their
    /// place and still run.
    fn close(&self) {
        let mut st = self.lock();
        st.closed = true;
        self.notify_if_idle(&st);
    }

    fn is_closed(&self) -> bool {
        self.lock().closed
    }

    /// Only [`Gate::wait_idle`] waits, and only on a closed gate, so open
    /// gates skip the wake-up.
    fn notify_if_idle(&self, st: &GateState) {
        if st.closed && st.running == 0 {
            self.idle.notify_all();
        }
    }

    /// Block until the gate is closed and no permit is held — so nobody
    /// waits either: every admitted query has been executed.
    fn wait_idle(&self) {
        let mut st = self.lock();
        while !st.closed || st.running > 0 {
            st = self.idle.wait(st).unwrap_or_else(PoisonError::into_inner);
        }
    }
}

/// Monotonic counters shared by every thread (one cache line each is not
/// worth chasing at these rates; plain relaxed adds).
#[derive(Debug, Default)]
struct Counters {
    served_assign: AtomicU64,
    served_revenue: AtomicU64,
    served_marginal: AtomicU64,
    shed: AtomicU64,
    malformed: AtomicU64,
    mutations_applied: AtomicU64,
    mutations_rejected: AtomicU64,
    resolve_hits: AtomicU64,
    resolve_misses: AtomicU64,
}

impl Counters {
    /// Fold one incremental resolve's cache statistics into the counters.
    fn record_resolve(&self, stats: &CacheStats) {
        self.resolve_hits.fetch_add(stats.hits as u64, Ordering::Relaxed);
        self.resolve_misses.fetch_add(stats.misses as u64, Ordering::Relaxed);
    }
}

struct Shared {
    handle: ServeHandle,
    gate: Gate,
    counters: Counters,
    assign_hist: LatencyHistogram,
    revenue_hist: LatencyHistogram,
    /// Mutation batches sent to the churn thread and not yet taken by it,
    /// at most the gate's `cap`. Counting bounds the churn channel
    /// without the `cap` slots per daemon a `sync_channel` preallocates.
    churn_backlog: AtomicUsize,
}

impl Shared {
    /// The churn thread took `msg` off its channel: a batch frees its
    /// backlog slot.
    fn churn_took(&self, msg: &ChurnMsg) {
        if let ChurnMsg::Batch(_) = msg {
            self.churn_backlog.fetch_sub(1, Ordering::AcqRel);
        }
    }

    fn stats(&self) -> DaemonStats {
        let index = self.handle.current();
        let c = &self.counters;
        let load = |a: &AtomicU64| a.load(Ordering::Relaxed);
        DaemonStats {
            generation: self.handle.generation(),
            n_users: index.n_users() as u64,
            n_items: index.n_items() as u64,
            served_assign: load(&c.served_assign),
            served_revenue: load(&c.served_revenue),
            served_marginal: load(&c.served_marginal),
            // Every query runs alone; the 17-field frame keeps the field
            // until named stat records retire it.
            coalesced: 0,
            shed: load(&c.shed),
            malformed: load(&c.malformed),
            mutations_applied: load(&c.mutations_applied),
            mutations_rejected: load(&c.mutations_rejected),
            resolve_hits: load(&c.resolve_hits),
            resolve_misses: load(&c.resolve_misses),
            assign_p50_ns: self.assign_hist.quantile(0.50),
            assign_p99_ns: self.assign_hist.quantile(0.99),
            revenue_p50_ns: self.revenue_hist.quantile(0.50),
            revenue_p99_ns: self.revenue_hist.quantile(0.99),
        }
    }
}

enum ChurnMsg {
    Batch(Vec<Event>),
    Stop,
}

/// A running serving daemon. Construct with [`Daemon::spawn`]; it serves
/// until a [`Request::Shutdown`] frame arrives (or
/// [`Daemon::request_shutdown`] is called) and [`Daemon::join`] returns.
pub struct Daemon {
    addr: SocketAddr,
    shared: Arc<Shared>,
    churn_tx: mpsc::Sender<ChurnMsg>,
    accept: JoinHandle<()>,
    churn: JoinHandle<()>,
}

impl Daemon {
    /// Solve `market` with the configured methods, compile the winning
    /// whole-market menu, bind `bind_addr` (use port 0 for an ephemeral
    /// port), and start serving. Blocks for the initial solve only; once
    /// this returns the daemon answers queries.
    pub fn spawn(
        bind_addr: impl ToSocketAddrs,
        market: Market,
        cfg: DaemonConfig,
    ) -> Result<Daemon, String> {
        let methods: Vec<&str> = cfg.methods.iter().map(String::as_str).collect();
        let mut live = LiveEngine::new(&methods, cfg.cohorts)?;
        let initial = live.resolve(&market)?;
        let cell = initial.whole_cell().ok_or("initial resolve produced no cells")?;
        let handle = ServeHandle::new(serving_index(&market, &cell.outcome.config, &cfg));

        let listener = TcpListener::bind(bind_addr).map_err(|e| format!("bind: {e}"))?;
        let addr = listener.local_addr().map_err(|e| format!("local_addr: {e}"))?;

        let shared = Arc::new(Shared {
            handle: handle.clone(),
            gate: Gate::new(cfg.queue_cap, cfg.workers),
            counters: Counters::default(),
            assign_hist: LatencyHistogram::new(),
            revenue_hist: LatencyHistogram::new(),
            churn_backlog: AtomicUsize::new(0),
        });
        shared.counters.record_resolve(&initial.stats);

        let (churn_tx, churn_rx) = mpsc::channel::<ChurnMsg>();
        let churn = {
            let shared = Arc::clone(&shared);
            let cfg = cfg.clone();
            std::thread::spawn(move || churn_loop(market, live, churn_rx, shared, cfg))
        };

        let accept = {
            let shared = Arc::clone(&shared);
            let churn_tx = churn_tx.clone();
            let max_frame = cfg.max_frame;
            std::thread::spawn(move || {
                for conn in listener.incoming() {
                    if shared.gate.is_closed() {
                        break;
                    }
                    let Ok(stream) = conn else { continue };
                    // One request per frame: Nagle would hold every
                    // sub-MSS response hostage to the client's delayed ACK.
                    let _ = stream.set_nodelay(true);
                    let shared = Arc::clone(&shared);
                    let churn_tx = churn_tx.clone();
                    std::thread::spawn(move || {
                        connection_loop(stream, addr, shared, churn_tx, max_frame)
                    });
                }
            })
        };

        Ok(Daemon { addr, shared, churn_tx, accept, churn })
    }

    /// The bound address (resolves port 0 to the actual ephemeral port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The hot-swap slot the daemon serves through (e.g. for in-process
    /// inspection in tests).
    pub fn handle(&self) -> &ServeHandle {
        &self.shared.handle
    }

    /// Snapshot the daemon's counters — the same numbers a
    /// [`Request::SwapStats`] frame returns.
    pub fn stats(&self) -> DaemonStats {
        self.shared.stats()
    }

    /// Trigger shutdown from the process side (equivalent to a
    /// [`Request::Shutdown`] frame).
    pub fn request_shutdown(&self) {
        initiate_shutdown(&self.shared, &self.churn_tx, self.addr);
    }

    /// Block until the daemon has shut down (a [`Request::Shutdown`]
    /// frame arrived or [`Daemon::request_shutdown`] was called), every
    /// admitted query has been executed — no permit is held and nobody
    /// waits — and the churn and accept threads have exited.
    pub fn join(self) {
        let _ = self.accept.join();
        self.shared.gate.wait_idle();
        let _ = self.churn.join();
    }
}

/// Close admission and unblock every parked thread: [`Daemon::join`] (via
/// the gate's idle condvar), the churn thread (via a `Stop` message,
/// which the churn backlog bound never refuses), and the accept loop (via
/// a wake-up connection to ourselves).
fn initiate_shutdown(shared: &Shared, churn_tx: &mpsc::Sender<ChurnMsg>, addr: SocketAddr) {
    shared.gate.close();
    let _ = churn_tx.send(ChurnMsg::Stop);
    drop(TcpStream::connect(addr));
}

// ---------------------------------------------------------------------
// Connection threads
// ---------------------------------------------------------------------

fn send(stream: &mut TcpStream, resp: &Response) -> bool {
    proto::write_frame(stream, &proto::encode_response(resp)).is_ok()
}

/// A typed error response.
fn error(code: ErrorCode, message: impl ToString) -> Response {
    Response::Error { code, message: message.to_string() }
}

const SHUTTING_DOWN: &str = "daemon is shutting down";

fn connection_loop(
    mut stream: TcpStream,
    daemon_addr: SocketAddr,
    shared: Arc<Shared>,
    churn_tx: mpsc::Sender<ChurnMsg>,
    max_frame: usize,
) {
    loop {
        let payload = match proto::read_frame(&mut stream, max_frame) {
            Ok(Some(p)) => p,
            Ok(None) => return, // peer closed cleanly
            Err(e) if e.kind() == std::io::ErrorKind::InvalidData => {
                // Oversized length prefix: the stream offset is gone, so
                // answer and hang up.
                shared.counters.malformed.fetch_add(1, Ordering::Relaxed);
                send(&mut stream, &error(ErrorCode::Malformed, e));
                return;
            }
            Err(_) => return,
        };
        let req = match proto::decode_request(&payload) {
            Ok(r) => r,
            Err(e) => {
                // Frame boundaries are intact — report and keep serving
                // this connection.
                shared.counters.malformed.fetch_add(1, Ordering::Relaxed);
                if !send(&mut stream, &error(ErrorCode::Malformed, e)) {
                    return;
                }
                continue;
            }
        };
        let keep_going = match req {
            Request::Assign(sel) => handle_query(&mut stream, &shared, QueryKind::Assign, sel),
            Request::ExpectedRevenue(sel) => {
                handle_query(&mut stream, &shared, QueryKind::Revenue, sel)
            }
            Request::MarginalRevenue { offer, dprice, sel } => {
                handle_query(&mut stream, &shared, QueryKind::Marginal { offer, dprice }, sel)
            }
            Request::MutateMarket(events) => {
                send(&mut stream, &enqueue_mutation(&shared, &churn_tx, events))
            }
            Request::SwapStats => send(&mut stream, &Response::Stats(shared.stats())),
            Request::Shutdown => {
                // Bye goes out BEFORE the teardown starts: once the flag
                // flips, the main thread may join and exit the process
                // ahead of this (detached) connection thread's write.
                send(&mut stream, &Response::Bye);
                initiate_shutdown(&shared, &churn_tx, daemon_addr);
                return;
            }
        };
        if !keep_going {
            return;
        }
    }
}

/// Hand one mutation batch to the churn thread and ack it, or refuse it:
/// `Overloaded` (counted as shed) when `queue_cap` batches already wait
/// for the churn thread, `ShuttingDown` once shutdown has begun.
fn enqueue_mutation(
    shared: &Shared,
    churn_tx: &mpsc::Sender<ChurnMsg>,
    events: Vec<Event>,
) -> Response {
    let accepted = events.len() as u64;
    let generation = shared.handle.generation();
    if shared.gate.is_closed() {
        return error(ErrorCode::ShuttingDown, SHUTTING_DOWN);
    }
    if shared.churn_backlog.fetch_add(1, Ordering::AcqRel) >= shared.gate.cap {
        shared.churn_backlog.fetch_sub(1, Ordering::AcqRel);
        shared.counters.shed.fetch_add(1, Ordering::Relaxed);
        return error(ErrorCode::Overloaded, "churn queue full, retry");
    }
    if churn_tx.send(ChurnMsg::Batch(events)).is_err() {
        shared.churn_backlog.fetch_sub(1, Ordering::AcqRel);
        return error(ErrorCode::ShuttingDown, SHUTTING_DOWN);
    }
    Response::MutateAck { accepted, generation }
}

/// Admit one point query (or shed it), answer it on this thread, and
/// write the answer back. Returns false when the connection died.
///
/// No socket is written while a permit is held: the permit goes back
/// before the write, so a client that stops reading stalls only its own
/// connection, never the daemon's capacity.
fn handle_query(stream: &mut TcpStream, shared: &Shared, kind: QueryKind, sel: UserSel) -> bool {
    let ids = match &sel {
        UserSel::All => None,
        UserSel::Ids(ids) => Some(ids.as_slice()),
    };
    // audit: allow(wall-clock) latency-histogram timestamp; responses never read it
    let admitted = Instant::now();
    let resp = match shared.gate.admit() {
        Ok(permit) => {
            let resp = answer(shared, kind, ids);
            record_latency(shared, kind, admitted);
            drop(permit);
            resp
        }
        Err(ErrorCode::Overloaded) => {
            shared.counters.shed.fetch_add(1, Ordering::Relaxed);
            error(ErrorCode::Overloaded, "every permit busy and the wait line full, retry")
        }
        Err(code) => error(code, SHUTTING_DOWN),
    };
    send(stream, &resp)
}

// ---------------------------------------------------------------------
// Query execution (on the connection thread, under its permit)
// ---------------------------------------------------------------------

/// Answer one query against the served index: an id batch or the whole
/// market, for any kind. A query error becomes a typed `Query` response.
/// `Assign` and `ExpectedRevenue` read the index's answer table;
/// `MarginalRevenue` runs the kernel.
fn answer(shared: &Shared, kind: QueryKind, ids: Option<&[u32]>) -> Response {
    let index = shared.handle.current();
    let result = match (kind, ids) {
        (QueryKind::Assign, ids) => index.serve_assign(ids).map(Response::Assignments),
        (QueryKind::Revenue, ids) => index.serve_revenue(ids).map(Response::Revenue),
        (QueryKind::Marginal { offer, dprice }, Some(ids)) => {
            index.try_marginal_revenue(offer, dprice, ids).map(Response::Marginal)
        }
        (QueryKind::Marginal { offer, dprice }, None) => {
            index.try_marginal_revenue_all(offer, dprice).map(Response::Marginal)
        }
    };
    match result {
        Ok(resp) => {
            served(shared, kind);
            resp
        }
        Err(e) => error(ErrorCode::Query, e),
    }
}

fn served(shared: &Shared, kind: QueryKind) {
    match kind {
        QueryKind::Assign => shared.counters.served_assign.fetch_add(1, Ordering::Relaxed),
        QueryKind::Revenue => shared.counters.served_revenue.fetch_add(1, Ordering::Relaxed),
        QueryKind::Marginal { .. } => {
            shared.counters.served_marginal.fetch_add(1, Ordering::Relaxed)
        }
    };
}

/// Record one query's endpoint latency (admission → answer). Marginal
/// requests keep no exported histogram — the 17-field stats frame
/// carries only the two steady-state endpoints' quantiles.
fn record_latency(shared: &Shared, kind: QueryKind, admitted: Instant) {
    let ns = admitted.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64;
    match kind {
        QueryKind::Assign => shared.assign_hist.record(ns),
        QueryKind::Revenue => shared.revenue_hist.record(ns),
        QueryKind::Marginal { .. } => {}
    }
}

// ---------------------------------------------------------------------
// Churn thread
// ---------------------------------------------------------------------

fn churn_loop(
    market: Market,
    mut live: LiveEngine,
    rx: mpsc::Receiver<ChurnMsg>,
    shared: Arc<Shared>,
    cfg: DaemonConfig,
) {
    let mut log = MarketLog::new(market);
    'outer: while let Ok(msg) = rx.recv() {
        shared.churn_took(&msg);
        let mut batches = match msg {
            ChurnMsg::Stop => break,
            ChurnMsg::Batch(events) => vec![events],
        };
        // Coalesce whatever else is already queued into one re-solve.
        let mut stop_after = false;
        while let Ok(more) = rx.try_recv() {
            shared.churn_took(&more);
            match more {
                ChurnMsg::Stop => {
                    stop_after = true;
                    break;
                }
                ChurnMsg::Batch(events) => batches.push(events),
            }
        }

        // Per-event application: an invalid event is counted and skipped,
        // the rest of the batch still lands (the MarketLog validates each
        // event against the current post-churn dimensions).
        let mut applied = 0u64;
        for ev in batches.into_iter().flatten() {
            match log.apply(ev) {
                Ok(()) => applied += 1,
                Err(_) => {
                    shared.counters.mutations_rejected.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
        if applied > 0 {
            let churned = log.snapshot();
            match live.resolve(&churned) {
                Ok(report) => {
                    shared.counters.record_resolve(&report.stats);
                    let Some(cell) = report.whole_cell() else {
                        continue;
                    };
                    // The answer table is filled here, before the swap
                    // publishes the index to readers.
                    shared.handle.swap(serving_index(&churned, &cell.outcome.config, &cfg));
                    shared.counters.mutations_applied.fetch_add(applied, Ordering::Relaxed);
                }
                Err(e) => {
                    // Leave the previous generation serving; the events
                    // stay in the log for the next batch's resolve.
                    eprintln!("revmax-served: churn resolve failed: {e}");
                    shared.counters.mutations_rejected.fetch_add(applied, Ordering::Relaxed);
                }
            }
        }
        if stop_after {
            break 'outer;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_records_and_quantiles() {
        let h = LatencyHistogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.quantile(0.5), 0);
        for ns in [1u64, 2, 3, 1000, 1000, 1_000_000] {
            h.record(ns);
        }
        h.record(0); // degenerate observation lands in bucket 0
        assert_eq!(h.count(), 7);
        // Median of {0,1,2,3,1000,1000,1e6}: the 4th observation (3) sits
        // in bucket ⌊log2 3⌋ = 1, upper bound 3.
        assert_eq!(h.quantile(0.5), 3);
        // p99 resolves to the top observation's bucket upper bound.
        let p99 = h.quantile(0.99);
        assert!((1_000_000..2_097_152).contains(&p99), "p99 = {p99}");
        // Quantiles are monotone in q.
        assert!(h.quantile(0.1) <= h.quantile(0.5));
        assert!(h.quantile(0.5) <= h.quantile(0.99));
        // The extreme bucket saturates rather than overflowing.
        h.record(u64::MAX);
        assert_eq!(h.quantile(1.0), u64::MAX);
    }

    use std::sync::atomic::AtomicBool;

    /// Poll `cond` until it holds; fail the test, rather than hang it,
    /// after about ten seconds.
    fn eventually(what: &str, cond: impl Fn() -> bool) {
        for _ in 0..10_000 {
            if cond() {
                return;
            }
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        panic!("timed out waiting until {what}");
    }

    fn waiting(gate: &Gate) -> usize {
        gate.lock().waiting.len()
    }

    /// Admit a query on `gate`, expecting a free permit.
    fn run_direct(gate: &Gate) -> Permit<'_> {
        gate.admit().expect("a free permit")
    }

    /// Spawn a thread that admits one query on `gate` and, while it holds
    /// the permit, runs `query`; wait until it is in line behind `ahead`
    /// others. Gates are shared by `Arc` so that a thread a broken gate
    /// never wakes fails the test instead of hanging it.
    fn spawn_waiter(
        gate: &Arc<Gate>,
        ahead: usize,
        query: impl FnOnce() + Send + 'static,
    ) -> JoinHandle<()> {
        let g = Arc::clone(gate);
        let waiter = std::thread::spawn(move || {
            let _permit = g.admit().expect("a waiter below the cap is admitted");
            query();
        });
        eventually("the waiter joins the line", || {
            waiting(gate) == ahead + 1 || waiter.is_finished()
        });
        assert!(!waiter.is_finished(), "the waiter did not wait in line");
        waiter
    }

    #[test]
    fn queue_sheds_beyond_capacity_and_pops_fifo() {
        const CAP: usize = 6;
        let gate = Arc::new(Gate::new(CAP, 1));
        let order = Arc::new(Mutex::new(Vec::new()));
        let held = run_direct(&gate);
        // One waiter at a time, so admission order is known, and none is
        // shed below the cap.
        let waiters: Vec<_> = (0..CAP)
            .map(|k| {
                let order = Arc::clone(&order);
                spawn_waiter(&gate, k, move || order.lock().unwrap().push(k))
            })
            .collect();
        // Admission control: the line is full, so the next is refused (on
        // its own thread, so that a gate that lets it wait fails the test).
        let over = std::thread::spawn({
            let gate = Arc::clone(&gate);
            move || gate.admit().err()
        });
        eventually("the query past the cap is answered", || over.is_finished());
        assert_eq!(over.join().expect("thread"), Some(ErrorCode::Overloaded));
        drop(held);
        for w in waiters {
            w.join().expect("waiter thread");
        }
        assert_eq!(*order.lock().unwrap(), (0..CAP).collect::<Vec<_>>(), "grants out of order");
        // Every permit came back: the next query runs at once.
        drop(run_direct(&gate));
    }

    #[test]
    fn a_closed_gate_refuses_with_shutting_down() {
        let gate = Gate::new(4, 2);
        let held = run_direct(&gate);
        gate.close();
        // A permit is free, yet admission refuses.
        assert!(matches!(gate.admit(), Err(ErrorCode::ShuttingDown)));
        drop(held);
        assert!(matches!(gate.admit(), Err(ErrorCode::ShuttingDown)));
        // An idle closed gate does not block.
        gate.wait_idle();
    }

    #[test]
    fn permit_comes_back_when_its_holder_panics() {
        let gate = Arc::new(Gate::new(4, 1));
        let answered = Arc::new(AtomicBool::new(false));
        let held = run_direct(&gate);
        let flag = Arc::clone(&answered);
        let waiter = spawn_waiter(&gate, 0, move || flag.store(true, Ordering::SeqCst));
        let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(move || {
            let _held = held;
            panic!("query panicked");
        }));
        assert!(unwound.is_err());
        // The unwinding holder passed its permit on: the waiter ran.
        eventually("the waiter runs its query", || answered.load(Ordering::SeqCst));
        waiter.join().expect("waiter thread");
        drop(run_direct(&gate));
    }

    #[test]
    fn a_full_churn_channel_sheds_mutations_with_overloaded() {
        use revmax_core::bundle::Bundle;
        use revmax_core::config::{OfferNode, Strategy};
        use revmax_core::params::Params;
        use revmax_core::wtp::WtpMatrix;
        let market = Market::new(
            WtpMatrix::from_rows(vec![vec![12.0, 4.0], vec![8.0, 2.0]]),
            Params::default(),
        );
        let config = BundleConfig {
            strategy: Strategy::Pure,
            roots: vec![
                OfferNode::leaf(Bundle::single(0), 8.0),
                OfferNode::leaf(Bundle::single(1), 4.0),
            ],
        };
        let shared = Shared {
            handle: ServeHandle::new(MenuIndex::compile(&market, &config)),
            gate: Gate::new(1, 1),
            counters: Counters::default(),
            assign_hist: LatencyHistogram::new(),
            revenue_hist: LatencyHistogram::new(),
            churn_backlog: AtomicUsize::new(0),
        };
        let batch = || vec![Event::UpsertWtp { user: 0, item: 1, wtp: 5.0 }];
        // A cap of 1, with nothing draining the channel.
        let (tx, rx) = mpsc::channel();
        assert!(matches!(
            enqueue_mutation(&shared, &tx, batch()),
            Response::MutateAck { accepted: 1, generation: 0 }
        ));
        match enqueue_mutation(&shared, &tx, batch()) {
            Response::Error { code: ErrorCode::Overloaded, .. } => {}
            other => panic!("expected Overloaded, got {other:?}"),
        }
        assert_eq!(shared.counters.shed.load(Ordering::Relaxed), 1);
        let taken = rx.try_recv().expect("the accepted batch");
        assert!(rx.try_recv().is_err(), "the refused batch never reached the channel");
        // Once the churn thread takes a batch, the next one is accepted.
        shared.churn_took(&taken);
        assert!(matches!(enqueue_mutation(&shared, &tx, batch()), Response::MutateAck { .. }));
        // A gone churn thread, or a closed gate, answers ShuttingDown.
        shared.churn_took(&rx.try_recv().expect("the accepted batch"));
        drop(rx);
        match enqueue_mutation(&shared, &tx, batch()) {
            Response::Error { code: ErrorCode::ShuttingDown, .. } => {}
            other => panic!("expected ShuttingDown, got {other:?}"),
        }
        assert_eq!(shared.churn_backlog.load(Ordering::Acquire), 0, "a failed send is not queued");
        shared.gate.close();
        let (tx, _rx) = mpsc::channel();
        match enqueue_mutation(&shared, &tx, batch()) {
            Response::Error { code: ErrorCode::ShuttingDown, .. } => {}
            other => panic!("expected ShuttingDown, got {other:?}"),
        }
        assert_eq!(shared.counters.shed.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn wait_idle_returns_only_after_the_last_permit() {
        let gate = Arc::new(Gate::new(4, 1));
        let ran = Arc::new(AtomicBool::new(false));
        let held = run_direct(&gate);
        let flag = Arc::clone(&ran);
        let waiter = spawn_waiter(&gate, 0, move || {
            // The sleep only makes it likely that `wait_idle` is already
            // blocked; the check below holds either way.
            std::thread::sleep(std::time::Duration::from_millis(50));
            flag.store(true, Ordering::SeqCst);
        });
        // The waiter was admitted before the close: it keeps its place.
        gate.close();
        drop(held);
        gate.wait_idle();
        assert!(ran.load(Ordering::SeqCst), "wait_idle returned before the waiter ran");
        waiter.join().expect("waiter thread");
    }
}
