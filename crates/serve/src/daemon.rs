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
//!   query themselves. A query first takes one of
//!   [`DaemonConfig::workers`] **permits**. With a permit free and
//!   nothing queued, the thread that read the query executes it: no
//!   job, no channel, no thread handoff. Otherwise the query waits in the
//!   **bounded request queue**, and whichever thread holds a permit
//!   **drains** it before giving the permit back. Draining
//!   **coalesces**: it pops a same-kind run of point queries and answers
//!   them all against one snapshot of the served index.
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
//! **Admission control:** the request queue and the churn channel are
//! bounded ([`DaemonConfig::queue_cap`] each). When one is full the
//! connection thread answers [`ErrorCode::Overloaded`] immediately
//! instead of queueing unbounded latency or memory — the client retries;
//! the daemon's tail stays flat.
//! Per-endpoint latency (admission → reply) lands in a log₂-bucketed
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
use std::thread::JoinHandle;
use std::time::Instant;

/// Tile block width of the daemon's indexes. Tiles are built only to
/// fill a generation's answer table and for `MarginalRevenue` queries,
/// which may run on many connection threads at once. Sixteen lanes kept
/// the fleet's peak RSS down when every point query built a tile; wider
/// tiles bought no throughput then (`DESIGN.md` §9.3).
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
    /// How many queries may execute at once: the number of permits
    /// connection threads take to run a query (their own, or a queued
    /// run they drain). There are no worker threads.
    pub workers: usize,
    /// Bounded request-queue capacity — the admission-control knob.
    /// Requests that find every permit taken wait here; beyond the cap
    /// they are shed with [`ErrorCode::Overloaded`]. It also caps the
    /// mutation batches waiting for the churn thread.
    pub queue_cap: usize,
    /// Maximum number of *extra* same-kind requests a drain answers in
    /// one run against one index snapshot (0 disables coalescing).
    pub coalesce: usize,
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

/// One admitted point query waiting in the queue for a permit holder.
struct Job {
    kind: QueryKind,
    /// `None` = whole market (the `*_all` paths, which materialize no id
    /// batch); `Some` = an explicit id batch.
    ids: Option<Vec<u32>>,
    reply: mpsc::Sender<Response>,
    admitted: Instant,
}

impl Job {
    /// Whether this job may join a coalesced run: explicit-id assign and
    /// revenue queries only.
    fn coalesces(&self) -> bool {
        self.ids.is_some() && !matches!(self.kind, QueryKind::Marginal { .. })
    }
}

/// What [`JobQueue`]'s lock guards.
struct QueueState {
    jobs: VecDeque<Job>,
    /// Permits held: queries executing (or runs being drained) right now.
    running: usize,
    /// Set by shutdown; admission refuses from then on.
    closed: bool,
}

/// The bounded request queue and the execution permits, under one lock.
///
/// Invariant: a job is only ever queued while some thread holds a
/// permit, and a holder returns its permit only under the lock that sees
/// the queue empty ([`JobQueue::drain`]). So no admitted job is left
/// without a thread to run it.
struct JobQueue {
    state: Mutex<QueueState>,
    /// Signalled when a closed queue goes idle ([`JobQueue::wait_idle`]).
    idle: Condvar,
    cap: usize,
    permits: usize,
    /// Extra same-kind jobs a drain folds into one run.
    coalesce: usize,
}

/// The right to execute queries, taken at admission. Returned by
/// [`JobQueue::drain`] once the queue is empty, or on drop — which only
/// happens while a holder unwinds from a panicking query.
struct Permit<'q> {
    queue: &'q JobQueue,
}

impl Drop for Permit<'_> {
    fn drop(&mut self) {
        self.queue.release(&mut self.queue.lock());
    }
}

/// The outcome of [`JobQueue::admit`].
enum Admission<'q> {
    /// Nothing queued and a permit was free: run the query on this thread
    /// (its ids handed back), then [`JobQueue::drain`].
    Run(Permit<'q>, Option<Vec<u32>>),
    /// The query was queued; its reply arrives on the receiver. With a
    /// permit, this thread took a free one and drains (its own job
    /// included) before it waits for the reply.
    Queued(mpsc::Receiver<Response>, Option<Permit<'q>>),
    /// The queue is at capacity.
    Overloaded,
    /// Shutdown has begun.
    ShuttingDown,
}

impl JobQueue {
    fn new(cap: usize, permits: usize, coalesce: usize) -> JobQueue {
        JobQueue {
            state: Mutex::new(QueueState { jobs: VecDeque::new(), running: 0, closed: false }),
            idle: Condvar::new(),
            cap: cap.max(1),
            permits: permits.max(1),
            coalesce,
        }
    }

    /// The lock is never held while a query executes, so poisoning can
    /// only come from a panic inside this module's own bookkeeping; the
    /// state stays consistent either way.
    fn lock(&self) -> MutexGuard<'_, QueueState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The admission decision for one query, in one critical section.
    fn admit(&self, kind: QueryKind, ids: Option<Vec<u32>>, admitted: Instant) -> Admission<'_> {
        let mut st = self.lock();
        if st.closed {
            return Admission::ShuttingDown;
        }
        let permit_free = st.running < self.permits;
        if permit_free && st.jobs.is_empty() {
            st.running += 1;
            return Admission::Run(Permit { queue: self }, ids);
        }
        if st.jobs.len() >= self.cap {
            return Admission::Overloaded;
        }
        let (reply, rx) = mpsc::channel();
        st.jobs.push_back(Job { kind, ids, reply, admitted });
        let permit = if permit_free {
            st.running += 1;
            Some(Permit { queue: self })
        } else {
            None
        };
        Admission::Queued(rx, permit)
    }

    /// Run queued work with `permit` until the queue is empty, then return
    /// the permit under the same lock that saw it empty. Each run is the
    /// front job plus up to `coalesce` directly-following jobs that can
    /// join it: same kind, and only explicit-id batches coalesce (an
    /// `All` or marginal query runs alone). Never blocks.
    fn drain(&self, permit: Permit<'_>, mut run: impl FnMut(Vec<Job>)) {
        loop {
            let mut st = self.lock();
            let Some(first) = st.jobs.pop_front() else {
                std::mem::forget(permit);
                self.release(&mut st);
                return;
            };
            let mut batch = vec![first];
            while batch[0].coalesces() && batch.len() <= self.coalesce {
                match st.jobs.front() {
                    Some(j) if j.kind == batch[0].kind && j.coalesces() => {
                        batch.push(st.jobs.pop_front().expect("front just probed"));
                    }
                    _ => break,
                }
            }
            drop(st);
            run(batch);
        }
    }

    /// Refuse admission from now on.
    fn close(&self) {
        let mut st = self.lock();
        st.closed = true;
        self.notify_if_idle(&st);
    }

    fn is_closed(&self) -> bool {
        self.lock().closed
    }

    /// Give one permit back under the lock.
    fn release(&self, st: &mut QueueState) {
        st.running -= 1;
        if st.running == 0 {
            // Empty unless the last holder unwound mid-drain: no thread is
            // left to run these jobs, so drop them and let their connection
            // threads see the reply channel close, not wait forever.
            st.jobs.clear();
        }
        self.notify_if_idle(st);
    }

    /// Only [`JobQueue::wait_idle`] waits, and only on a closed queue, so
    /// open queues skip the wake-up.
    fn notify_if_idle(&self, st: &QueueState) {
        if st.closed && st.running == 0 && st.jobs.is_empty() {
            self.idle.notify_all();
        }
    }

    /// Block until the queue is closed, no permit is held and nothing is
    /// queued: every admitted query has been executed.
    fn wait_idle(&self) {
        let mut st = self.lock();
        while !st.closed || st.running > 0 || !st.jobs.is_empty() {
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
    counters: Counters,
    assign_hist: LatencyHistogram,
    revenue_hist: LatencyHistogram,
    /// Mutation batches sent to the churn thread and not yet taken by it,
    /// at most the queue's `cap`. Counting bounds the churn channel
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
            queue: JobQueue::new(cfg.queue_cap, cfg.workers, cfg.coalesce),
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
                    if shared.queue.is_closed() {
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
    /// admitted query has been executed — no permit is held and nothing
    /// is queued — and the churn and accept threads have exited.
    pub fn join(self) {
        let _ = self.accept.join();
        self.shared.queue.wait_idle();
        let _ = self.churn.join();
    }
}

/// Close admission and unblock every parked thread: [`Daemon::join`] (via
/// the queue's idle condvar), the churn thread (via a `Stop` message,
/// which the churn backlog bound never refuses), and the accept loop (via
/// a wake-up connection to ourselves).
fn initiate_shutdown(shared: &Shared, churn_tx: &mpsc::Sender<ChurnMsg>, addr: SocketAddr) {
    shared.queue.close();
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
    if shared.queue.is_closed() {
        return error(ErrorCode::ShuttingDown, SHUTTING_DOWN);
    }
    if shared.churn_backlog.fetch_add(1, Ordering::AcqRel) >= shared.queue.cap {
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

/// Admit one point query (or shed it), get its answer, and write it
/// back. Returns false when the connection died.
///
/// No socket is written while a permit is held: the answer goes out
/// after the drain has returned the permit, so a client that stops
/// reading stalls only its own connection, never the daemon's capacity.
fn handle_query(stream: &mut TcpStream, shared: &Shared, kind: QueryKind, sel: UserSel) -> bool {
    let ids = match sel {
        UserSel::All => None,
        UserSel::Ids(ids) => Some(ids),
    };
    // audit: allow(wall-clock) queue-latency histogram timestamp; responses never read it
    let admitted = Instant::now();
    let drain = |permit| shared.queue.drain(permit, |jobs| execute_batch(shared, jobs));
    let resp = match shared.queue.admit(kind, ids, admitted) {
        Admission::Run(permit, ids) => {
            let resp = answer(shared, &shared.handle.current(), kind, ids.as_deref());
            record_latency(shared, kind, admitted);
            drain(permit);
            resp
        }
        Admission::Queued(rx, permit) => {
            if let Some(permit) = permit {
                drain(permit);
            }
            match rx.recv() {
                Ok(resp) => resp,
                Err(_) => return false, // its drain unwound from a panic
            }
        }
        Admission::Overloaded => {
            shared.counters.shed.fetch_add(1, Ordering::Relaxed);
            error(ErrorCode::Overloaded, "request queue full, retry")
        }
        Admission::ShuttingDown => error(ErrorCode::ShuttingDown, SHUTTING_DOWN),
    };
    send(stream, &resp)
}

// ---------------------------------------------------------------------
// Query execution (on whichever connection thread holds the permit)
// ---------------------------------------------------------------------

/// Answer one query against `index`: an id batch or the whole market,
/// for any kind. The direct path and every drained job call this; a query
/// error becomes a typed `Query` response. `Assign` and `ExpectedRevenue`
/// read the index's answer table; `MarginalRevenue` runs the kernel.
fn answer(shared: &Shared, index: &MenuIndex, kind: QueryKind, ids: Option<&[u32]>) -> Response {
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

/// Answer one drained run of same-kind jobs against a single snapshot of
/// the served index, replying to each. Each job is answered exactly as
/// it would be alone: its ids are validated on their own, so one bad
/// request cannot spoil its run-mates.
fn execute_batch(shared: &Shared, jobs: Vec<Job>) {
    let index = shared.handle.current();
    shared.counters.coalesced.fetch_add(jobs.len() as u64 - 1, Ordering::Relaxed);
    for job in jobs {
        let resp = answer(shared, &index, job.kind, job.ids.as_deref());
        finish(shared, job, resp);
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

/// Reply to one queued job and record its endpoint latency.
fn finish(shared: &Shared, job: Job, resp: Response) {
    record_latency(shared, job.kind, job.admitted);
    let _ = job.reply.send(resp);
}

/// Record one query's endpoint latency (admission → reply). Marginal
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

    /// Admit a query on `q`, expecting it to run directly.
    fn run_direct(q: &JobQueue) -> Permit<'_> {
        match q.admit(QueryKind::Assign, Some(vec![0]), Instant::now()) {
            Admission::Run(permit, _) => permit,
            _ => panic!("expected the direct path"),
        }
    }

    /// Admit a query on `q` while every permit is held, expecting it to
    /// queue; returns its reply receiver.
    fn queue(q: &JobQueue, kind: QueryKind, ids: Option<Vec<u32>>) -> mpsc::Receiver<Response> {
        match q.admit(kind, ids, Instant::now()) {
            Admission::Queued(rx, None) => rx,
            _ => panic!("expected the job to queue behind a held permit"),
        }
    }

    /// Drain `q` with `permit`, returning each run's `(kind, ids)` shape.
    fn drained(q: &JobQueue, permit: Permit<'_>) -> Vec<Vec<(QueryKind, Option<Vec<u32>>)>> {
        let mut runs = Vec::new();
        q.drain(permit, |jobs| runs.push(jobs.into_iter().map(|j| (j.kind, j.ids)).collect()));
        runs
    }

    #[test]
    fn queue_sheds_beyond_capacity_and_pops_fifo() {
        let q = JobQueue::new(2, 1, 0); // coalescing off
        let permit = run_direct(&q);
        let _ra = queue(&q, QueryKind::Assign, Some(vec![1]));
        let _rb = queue(&q, QueryKind::Assign, Some(vec![2]));
        // Admission control: the third is refused, not queued.
        assert!(matches!(
            q.admit(QueryKind::Assign, Some(vec![3]), Instant::now()),
            Admission::Overloaded
        ));
        // One job per run, front to back.
        let runs = drained(&q, permit);
        let ids: Vec<_> = runs.iter().map(|r| r[0].1.clone()).collect();
        assert_eq!(ids, [Some(vec![1]), Some(vec![2])]);
        // The drain found the queue empty and gave the permit back: the
        // next query runs directly again.
        drop(run_direct(&q));
        // Closed: admission refuses, and the idle queue does not block.
        q.close();
        assert!(matches!(
            q.admit(QueryKind::Revenue, None, Instant::now()),
            Admission::ShuttingDown
        ));
        q.wait_idle();
    }

    #[test]
    fn queue_coalesces_same_kind_id_runs_only() {
        let q = JobQueue::new(16, 1, 16);
        let permit = run_direct(&q);
        let _keep: Vec<_> = [
            (QueryKind::Revenue, Some(vec![1u32])),
            (QueryKind::Revenue, Some(vec![2])),
            (QueryKind::Revenue, Some(vec![3])),
            (QueryKind::Assign, Some(vec![4])), // kind change breaks the run
            (QueryKind::Assign, None),          // All never joins a batch
            (QueryKind::Assign, Some(vec![5])),
        ]
        .into_iter()
        .map(|(kind, ids)| queue(&q, kind, ids))
        .collect();

        let runs = drained(&q, permit);
        let lens: Vec<usize> = runs.iter().map(Vec::len).collect();
        assert_eq!(lens, [3, 1, 1, 1], "three revenue id-jobs coalesce; All runs alone");
        assert!(runs[0].iter().all(|(k, _)| *k == QueryKind::Revenue));
        assert_eq!(runs[1][0].1, Some(vec![4]), "assign job stops at the All job");
        assert!(runs[2][0].1.is_none());
        assert_eq!(runs[3][0].1, Some(vec![5]));
    }

    #[test]
    fn coalesce_budget_caps_the_run() {
        let q = JobQueue::new(16, 1, 2);
        let permit = run_direct(&q);
        let _keep: Vec<_> = (0..5).map(|k| queue(&q, QueryKind::Assign, Some(vec![k]))).collect();
        let lens: Vec<usize> = drained(&q, permit).iter().map(Vec::len).collect();
        assert_eq!(lens, [3, 2], "1 + coalesce, then the rest");
    }

    #[test]
    fn a_free_permit_is_taken_by_the_thread_that_queues() {
        // Two permits, one held. A job queued behind the held one (only
        // possible once a holder has unwound) takes the free permit in the
        // same critical section and drains its own job.
        let q = JobQueue::new(4, 2, 16);
        let held = run_direct(&q);
        let second = run_direct(&q);
        let rx = queue(&q, QueryKind::Revenue, Some(vec![7]));
        drop(second); // as if unwound: one permit free, one job queued
        let Admission::Queued(_rx, Some(permit)) =
            q.admit(QueryKind::Revenue, Some(vec![8]), Instant::now())
        else {
            panic!("expected to queue and take the free permit");
        };
        let runs = drained(&q, permit);
        assert_eq!(runs.len(), 1);
        assert_eq!(
            runs[0].iter().map(|(_, ids)| ids.clone()).collect::<Vec<_>>(),
            [Some(vec![7]), Some(vec![8])]
        );
        drop(rx);
        drop(held);
    }

    #[test]
    fn permit_comes_back_when_its_holder_panics() {
        let q = JobQueue::new(4, 1, 16);
        let permit = run_direct(&q);
        let rx = queue(&q, QueryKind::Assign, Some(vec![1]));
        let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            q.drain(permit, |_| panic!("query panicked"));
        }));
        assert!(unwound.is_err());
        // The permit is back, and the job that panicked was dropped, so
        // its connection thread sees the reply channel close.
        assert!(rx.recv().is_err());
        let permit = run_direct(&q);
        // A job still queued when the last holder unwinds is dropped too,
        // rather than waiting for a thread that will never come.
        let rx = queue(&q, QueryKind::Revenue, Some(vec![2]));
        let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(move || {
            let _held = permit;
            panic!("query panicked");
        }));
        assert!(unwound.is_err());
        assert!(rx.recv().is_err());
        drop(run_direct(&q));
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
            queue: JobQueue::new(1, 1, 0),
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
        // A gone churn thread, or a closed queue, answers ShuttingDown.
        shared.churn_took(&rx.try_recv().expect("the accepted batch"));
        drop(rx);
        match enqueue_mutation(&shared, &tx, batch()) {
            Response::Error { code: ErrorCode::ShuttingDown, .. } => {}
            other => panic!("expected ShuttingDown, got {other:?}"),
        }
        assert_eq!(shared.churn_backlog.load(Ordering::Acquire), 0, "a failed send is not queued");
        shared.queue.close();
        let (tx, _rx) = mpsc::channel();
        match enqueue_mutation(&shared, &tx, batch()) {
            Response::Error { code: ErrorCode::ShuttingDown, .. } => {}
            other => panic!("expected ShuttingDown, got {other:?}"),
        }
        assert_eq!(shared.counters.shed.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn wait_idle_returns_only_after_the_last_permit() {
        let q = JobQueue::new(4, 1, 16);
        let released = std::sync::atomic::AtomicBool::new(false);
        std::thread::scope(|s| {
            let permit = run_direct(&q);
            q.close();
            s.spawn(|| {
                // The sleep only makes it likely that `wait_idle` is
                // already blocked; the check below holds either way.
                std::thread::sleep(std::time::Duration::from_millis(50));
                released.store(true, Ordering::SeqCst);
                q.drain(permit, |_| {});
            });
            q.wait_idle();
            assert!(released.load(Ordering::SeqCst), "wait_idle returned while a permit was held");
        });
    }
}
