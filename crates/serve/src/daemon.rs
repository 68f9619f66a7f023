//! `revmax-served` — the long-running serving daemon (`DESIGN.md` §11).
//!
//! Everything below is `std`-only (`std::net` blocking sockets,
//! `std::thread`, `Mutex`/`Condvar`), matching the workspace's `vendor/`
//! philosophy. The process is four kinds of thread around two shared
//! structures:
//!
//! * **Connection threads** (one per accepted socket) read
//!   [`proto`] frames, decode them totally (a malformed
//!   frame gets an error response, never a panic), and either answer
//!   inline (`SwapStats`, `MutateMarket` enqueue, `Shutdown`) or push a
//!   query job into the **bounded request queue** and relay the reply.
//! * **Worker threads** drain the queue. A worker pops one job and then
//!   **coalesces**: it keeps popping while the queue front is the same
//!   kind of point query, concatenates the id batches, executes ONE
//!   batched [`MenuIndex`] call in the shapes `serve_bench` proves fast,
//!   and splits the results back per request. Coalescing is invisible in
//!   the results: per-user evaluation is independent, and a revenue
//!   request's fold is re-applied per request via
//!   [`chunked_payment_fold`], which is bit-identical to
//!   [`MenuIndex::try_expected_revenue`] on that request alone.
//! * **The churn thread** owns the [`MarketLog`] and the retained
//!   [`LiveEngine`]: mutation batches are applied off the request path,
//!   re-solved incrementally, compiled, and [`ServeHandle::swap`]ped in
//!   atomically — queries never wait on a solve, and the PR-6 churn
//!   parity guarantees hold end to end.
//! * **The accept thread** hands sockets to connection threads until
//!   shutdown.
//!
//! **Admission control:** the request queue is bounded
//! ([`DaemonConfig::queue_cap`]). When it is full the connection thread
//! answers [`ErrorCode::Overloaded`] immediately instead of queueing
//! unbounded latency — the client retries; the daemon's tail stays flat.
//! Per-endpoint latency (enqueue → reply) lands in a log₂-bucketed
//! [`LatencyHistogram`] whose quantiles export through
//! [`Request::SwapStats`] and, in the `loadgen` bin, BENCH_JSON.

use crate::index::MenuIndex;
use crate::proto::{self, DaemonStats, ErrorCode, Request, Response, UserSel, MAX_FRAME};
use crate::query::chunked_payment_fold;
use crate::swap::ServeHandle;
use revmax_core::config::BundleConfig;
use revmax_core::market::Market;
use revmax_core::marketlog::{Event, MarketLog};
use revmax_engine::{CacheStats, LiveEngine};
use std::collections::VecDeque;
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

/// Tile block width of the daemon's indexes. Its queries are tens to a
/// few hundred ids (a point query, a coalesced run, an `All` over a
/// served market), answered by many workers that each build a tile per
/// query. Sixteen lanes hold a typical point query in one block; wider
/// tiles for `All` and coalesced runs bought no throughput and raised
/// the fleet's peak RSS (`DESIGN.md` §9.3).
const QUERY_BLOCK: usize = 16;

/// The daemon's index over a solved menu: its worker fan-out and
/// [`QUERY_BLOCK`].
fn serving_index(market: &Market, config: &BundleConfig, cfg: &DaemonConfig) -> MenuIndex {
    MenuIndex::compile(market, config).with_threads(cfg.query_threads).with_block(QUERY_BLOCK)
}

/// Knobs of a [`Daemon`]. `Default` is sized for tests and small hosts;
/// the `revmax-served` bin maps its CLI keys onto these.
#[derive(Debug, Clone)]
pub struct DaemonConfig {
    /// Query worker threads draining the request queue.
    pub workers: usize,
    /// Bounded request-queue capacity — the admission-control knob.
    /// Requests beyond it are shed with [`ErrorCode::Overloaded`].
    pub queue_cap: usize,
    /// Maximum number of *extra* same-kind requests a worker folds into
    /// one batched call (0 disables coalescing).
    pub coalesce: usize,
    /// `revmax-par` threads per batched query (workers are the daemon's
    /// parallelism, so 1 is the right default; results are bit-identical
    /// at any value).
    pub query_threads: usize,
    /// Configurator methods for the churn thread's incremental re-solves
    /// (registry names/aliases; the first method's whole-market cell is
    /// the served menu).
    pub methods: Vec<String>,
    /// Activity-cohort count of the churn thread's resolves.
    pub cohorts: usize,
    /// `MarketLog::maybe_compact` threshold (0 disables compaction).
    pub compact_at: f64,
    /// Per-frame payload cap for this daemon's connections.
    pub max_frame: usize,
}

impl Default for DaemonConfig {
    fn default() -> DaemonConfig {
        DaemonConfig {
            workers: 2,
            queue_cap: 1024,
            coalesce: 16,
            query_threads: 1,
            methods: vec!["components".into()],
            cohorts: 0,
            compact_at: 0.10,
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

#[derive(Debug, Clone, Copy, PartialEq)]
enum QueryKind {
    Assign,
    Revenue,
    /// A marginal what-if with its perturbation. Marginal jobs never
    /// coalesce — two what-ifs rarely share a perturbation, and a mixed
    /// batch would need one tile re-walk per distinct price table.
    Marginal {
        offer: u32,
        dprice: f64,
    },
}

/// One admitted point query waiting for a worker.
struct Job {
    kind: QueryKind,
    /// `None` = whole market (the `*_all` paths, which materialize no id
    /// batch); `Some` = an explicit id batch.
    ids: Option<Vec<u32>>,
    reply: mpsc::Sender<Response>,
    enqueued: Instant,
}

impl Job {
    /// Whether this job may share a batched call: explicit-id assign and
    /// revenue queries only.
    fn coalesces(&self) -> bool {
        self.ids.is_some() && !matches!(self.kind, QueryKind::Marginal { .. })
    }
}

/// Bounded MPMC queue on `Mutex<VecDeque>` + `Condvar`. `try_push` is the
/// admission decision; `pop_coalesced` is the worker side, returning a
/// same-kind run of jobs from the queue front.
struct JobQueue {
    jobs: Mutex<VecDeque<Job>>,
    ready: Condvar,
    cap: usize,
}

impl JobQueue {
    fn new(cap: usize) -> JobQueue {
        JobQueue { jobs: Mutex::new(VecDeque::new()), ready: Condvar::new(), cap: cap.max(1) }
    }

    /// Admit `job` unless the queue is at capacity. Returns the job back
    /// on refusal so the caller can answer `Overloaded`.
    fn try_push(&self, job: Job) -> Result<(), Job> {
        let mut q = self.jobs.lock().unwrap_or_else(|p| p.into_inner());
        if q.len() >= self.cap {
            return Err(job);
        }
        q.push_back(job);
        drop(q);
        self.ready.notify_one();
        Ok(())
    }

    /// Pop the front job plus up to `max_extra` directly-following jobs
    /// that can share one batched call: same kind, and only explicit-id
    /// batches coalesce (an `All` query runs alone on the whole-market
    /// path). Blocks until a job arrives; returns `None` once
    /// the queue is empty *and* `stop` is set — pending jobs are always
    /// drained before workers exit.
    fn pop_coalesced(&self, max_extra: usize, stop: &AtomicBool) -> Option<Vec<Job>> {
        let mut q = self.jobs.lock().unwrap_or_else(|p| p.into_inner());
        loop {
            if let Some(first) = q.pop_front() {
                let mut batch = vec![first];
                while batch[0].coalesces() && batch.len() <= max_extra {
                    match q.front() {
                        Some(j) if j.kind == batch[0].kind && j.coalesces() => {
                            batch.push(q.pop_front().expect("front just probed"));
                        }
                        _ => break,
                    }
                }
                return Some(batch);
            }
            if stop.load(Ordering::Acquire) {
                return None;
            }
            q = self.ready.wait(q).unwrap_or_else(|p| p.into_inner());
        }
    }

    fn wake_all(&self) {
        self.ready.notify_all();
    }
}

/// Monotonic counters shared by every thread (one cache line each is not
/// worth chasing at these rates; plain relaxed adds).
#[derive(Debug, Default)]
struct Counters {
    served_assign: AtomicU64,
    served_revenue: AtomicU64,
    served_marginal: AtomicU64,
    coalesced: AtomicU64,
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
    queue: JobQueue,
    shutdown: AtomicBool,
    counters: Counters,
    assign_hist: LatencyHistogram,
    revenue_hist: LatencyHistogram,
}

impl Shared {
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
            coalesced: load(&c.coalesced),
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
    workers: Vec<JoinHandle<()>>,
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
            queue: JobQueue::new(cfg.queue_cap),
            shutdown: AtomicBool::new(false),
            counters: Counters::default(),
            assign_hist: LatencyHistogram::new(),
            revenue_hist: LatencyHistogram::new(),
        });
        shared.counters.record_resolve(&initial.stats);

        let (churn_tx, churn_rx) = mpsc::channel::<ChurnMsg>();
        let churn = {
            let shared = Arc::clone(&shared);
            let cfg = cfg.clone();
            std::thread::spawn(move || churn_loop(market, live, churn_rx, shared, cfg))
        };

        let workers = (0..cfg.workers.max(1))
            .map(|_| {
                let shared = Arc::clone(&shared);
                let coalesce = cfg.coalesce;
                std::thread::spawn(move || worker_loop(shared, coalesce))
            })
            .collect();

        let accept = {
            let shared = Arc::clone(&shared);
            let churn_tx = churn_tx.clone();
            let max_frame = cfg.max_frame;
            std::thread::spawn(move || {
                for conn in listener.incoming() {
                    if shared.shutdown.load(Ordering::Acquire) {
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

        Ok(Daemon { addr, shared, churn_tx, accept, workers, churn })
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
    /// frame arrived or [`Daemon::request_shutdown`] was called) and all
    /// worker/churn/accept threads have drained and exited.
    pub fn join(self) {
        let _ = self.accept.join();
        for w in self.workers {
            let _ = w.join();
        }
        let _ = self.churn.join();
    }
}

/// Flip the shutdown flag and unblock every parked thread: workers (via
/// the queue condvar), the churn thread (via a `Stop` message), and the
/// accept loop (via a wake-up connection to ourselves).
fn initiate_shutdown(shared: &Shared, churn_tx: &mpsc::Sender<ChurnMsg>, addr: SocketAddr) {
    shared.shutdown.store(true, Ordering::Release);
    shared.queue.wake_all();
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
                let n = events.len() as u64;
                let generation = shared.handle.generation();
                if shared.shutdown.load(Ordering::Acquire)
                    || churn_tx.send(ChurnMsg::Batch(events)).is_err()
                {
                    send(&mut stream, &error(ErrorCode::ShuttingDown, SHUTTING_DOWN))
                } else {
                    send(&mut stream, &Response::MutateAck { accepted: n, generation })
                }
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

/// Admit one point query (or shed it), wait for the worker's reply, and
/// write it back. Returns false when the connection died.
fn handle_query(stream: &mut TcpStream, shared: &Shared, kind: QueryKind, sel: UserSel) -> bool {
    if shared.shutdown.load(Ordering::Acquire) {
        return send(stream, &error(ErrorCode::ShuttingDown, SHUTTING_DOWN));
    }
    let (tx, rx) = mpsc::channel();
    let ids = match sel {
        UserSel::All => None,
        UserSel::Ids(ids) => Some(ids),
    };
    // audit: allow(wall-clock) queue-latency histogram timestamp; responses never read it
    let job = Job { kind, ids, reply: tx, enqueued: Instant::now() };
    if shared.queue.try_push(job).is_err() {
        shared.counters.shed.fetch_add(1, Ordering::Relaxed);
        return send(stream, &error(ErrorCode::Overloaded, "request queue full, retry"));
    }
    match rx.recv() {
        Ok(resp) => send(stream, &resp),
        Err(_) => false, // workers dropped the job during shutdown drain
    }
}

// ---------------------------------------------------------------------
// Worker threads
// ---------------------------------------------------------------------

fn worker_loop(shared: Arc<Shared>, coalesce: usize) {
    while let Some(jobs) = shared.queue.pop_coalesced(coalesce, &shared.shutdown) {
        execute_batch(&shared, jobs);
    }
}

/// Execute one coalesced run of same-kind jobs against a single snapshot
/// of the served index, split the results back per request, reply, and
/// record per-endpoint latency.
///
/// Coalescing is result-invisible: per-user evaluation is independent, so
/// a combined `assign` batch answers every constituent request with
/// exactly the assignments a solo call would produce, and a revenue
/// request's total is re-folded from the shared per-user payments with
/// [`chunked_payment_fold`] — bit-identical to
/// [`MenuIndex::try_expected_revenue`] on that request alone.
fn execute_batch(shared: &Shared, mut jobs: Vec<Job>) {
    let index = shared.handle.current();
    let kind = jobs[0].kind;
    if jobs.len() > 1 {
        shared.counters.coalesced.fetch_add(jobs.len() as u64 - 1, Ordering::Relaxed);
    }

    // Marginal what-ifs and whole-market queries run alone (they never
    // coalesce): one call validates and answers either selector shape.
    if !jobs[0].coalesces() {
        debug_assert_eq!(jobs.len(), 1);
        let job = jobs.pop().expect("one solo job");
        let result = match (kind, job.ids.as_deref()) {
            (QueryKind::Marginal { offer, dprice }, Some(ids)) => {
                index.try_marginal_revenue(offer, dprice, ids).map(Response::Marginal)
            }
            (QueryKind::Marginal { offer, dprice }, None) => {
                index.try_marginal_revenue_all(offer, dprice).map(Response::Marginal)
            }
            // A non-marginal solo job is a whole-market (`All`) query.
            (QueryKind::Assign, _) => Ok(Response::Assignments(index.assign_all())),
            (QueryKind::Revenue, _) => Ok(Response::Revenue(index.expected_revenue_all())),
        };
        let resp = match result {
            Ok(resp) => {
                served(shared, kind);
                resp
            }
            Err(e) => error(ErrorCode::Query, e),
        };
        finish(shared, job, resp);
        return;
    }

    // Validate every id batch up front so one bad request cannot spoil
    // the shared evaluation: invalid jobs answer a typed Query error,
    // valid ones proceed into the combined call.
    let mut valid: Vec<(Job, Vec<u32>)> = Vec::with_capacity(jobs.len());
    for mut job in jobs {
        let ids = job.ids.take().expect("only id batches coalesce");
        match index.validate_users(&ids) {
            Ok(()) => valid.push((job, ids)),
            Err(e) => finish(shared, job, error(ErrorCode::Query, e)),
        }
    }
    if valid.is_empty() {
        return;
    }
    let combined: Vec<u32> = valid.iter().flat_map(|(_, ids)| ids.iter().copied()).collect();
    match kind {
        QueryKind::Assign => {
            let all = index.try_assign(&combined).expect("batches validated above");
            let mut results = all.into_iter();
            for (job, ids) in valid {
                let part: Vec<_> = results.by_ref().take(ids.len()).collect();
                served(shared, kind);
                finish(shared, job, Response::Assignments(part));
            }
        }
        QueryKind::Revenue => {
            let payments = index.try_payments(&combined).expect("batches validated above");
            let mut offset = 0usize;
            for (job, ids) in valid {
                let total = chunked_payment_fold(&payments[offset..offset + ids.len()]);
                offset += ids.len();
                served(shared, kind);
                finish(shared, job, Response::Revenue(total));
            }
        }
        QueryKind::Marginal { .. } => unreachable!("handled above"),
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

/// Reply to one job and record its endpoint latency (enqueue → reply).
/// Marginal requests keep no exported histogram — the 17-field stats
/// frame carries only the two steady-state endpoints' quantiles.
fn finish(shared: &Shared, job: Job, resp: Response) {
    let ns = job.enqueued.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64;
    match job.kind {
        QueryKind::Assign => shared.assign_hist.record(ns),
        QueryKind::Revenue => shared.revenue_hist.record(ns),
        QueryKind::Marginal { .. } => {}
    }
    let _ = job.reply.send(resp);
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
        let mut batches = match msg {
            ChurnMsg::Stop => break,
            ChurnMsg::Batch(events) => vec![events],
        };
        // Coalesce whatever else is already queued into one re-solve.
        let mut stop_after = false;
        while let Ok(more) = rx.try_recv() {
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
            if cfg.compact_at > 0.0 {
                log.maybe_compact(cfg.compact_at);
            }
            let churned = log.snapshot();
            match live.resolve(&churned) {
                Ok(report) => {
                    shared.counters.record_resolve(&report.stats);
                    let Some(cell) = report.whole_cell() else {
                        continue;
                    };
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

    fn job(kind: QueryKind, ids: Option<Vec<u32>>) -> (Job, mpsc::Receiver<Response>) {
        let (tx, rx) = mpsc::channel();
        (Job { kind, ids, reply: tx, enqueued: Instant::now() }, rx)
    }

    #[test]
    fn queue_sheds_beyond_capacity_and_pops_fifo() {
        let q = JobQueue::new(2);
        let stop = AtomicBool::new(false);
        let (a, _ra) = job(QueryKind::Assign, Some(vec![1]));
        let (b, _rb) = job(QueryKind::Assign, Some(vec![2]));
        let (c, _rc) = job(QueryKind::Assign, Some(vec![3]));
        assert!(q.try_push(a).is_ok());
        assert!(q.try_push(b).is_ok());
        // Admission control: the third is refused, not queued.
        assert!(q.try_push(c).is_err());
        let batch = q.pop_coalesced(0, &stop).unwrap(); // coalescing off
        assert_eq!(batch.len(), 1);
        assert_eq!(batch[0].ids, Some(vec![1]));
        let batch = q.pop_coalesced(0, &stop).unwrap();
        assert_eq!(batch[0].ids, Some(vec![2]));
        // Empty + stop => workers exit.
        stop.store(true, Ordering::Release);
        assert!(q.pop_coalesced(0, &stop).is_none());
    }

    #[test]
    fn queue_coalesces_same_kind_id_runs_only() {
        let q = JobQueue::new(16);
        let stop = AtomicBool::new(false);
        let keep: Vec<_> = [
            (QueryKind::Revenue, Some(vec![1u32])),
            (QueryKind::Revenue, Some(vec![2])),
            (QueryKind::Revenue, Some(vec![3])),
            (QueryKind::Assign, Some(vec![4])), // kind change breaks the run
            (QueryKind::Assign, None),          // All never joins a batch
            (QueryKind::Assign, Some(vec![5])),
        ]
        .into_iter()
        .map(|(kind, ids)| {
            let (j, rx) = job(kind, ids);
            assert!(q.try_push(j).is_ok());
            rx
        })
        .collect();

        let batch = q.pop_coalesced(16, &stop).unwrap();
        assert_eq!(batch.len(), 3, "three revenue id-jobs coalesce");
        assert!(batch.iter().all(|j| j.kind == QueryKind::Revenue));
        let batch = q.pop_coalesced(16, &stop).unwrap();
        assert_eq!(batch.len(), 1, "assign job stops at the All job");
        assert_eq!(batch[0].ids, Some(vec![4]));
        let batch = q.pop_coalesced(16, &stop).unwrap();
        assert_eq!(batch.len(), 1, "All runs alone");
        assert!(batch[0].ids.is_none());
        let batch = q.pop_coalesced(16, &stop).unwrap();
        assert_eq!(batch[0].ids, Some(vec![5]));
        drop(keep);
    }

    #[test]
    fn coalesce_budget_caps_the_run() {
        let q = JobQueue::new(16);
        let stop = AtomicBool::new(false);
        let keep: Vec<_> = (0..5)
            .map(|k| {
                let (j, rx) = job(QueryKind::Assign, Some(vec![k]));
                assert!(q.try_push(j).is_ok());
                rx
            })
            .collect();
        let batch = q.pop_coalesced(2, &stop).unwrap();
        assert_eq!(batch.len(), 3, "1 + max_extra");
        let batch = q.pop_coalesced(2, &stop).unwrap();
        assert_eq!(batch.len(), 2);
        drop(keep);
    }
}
