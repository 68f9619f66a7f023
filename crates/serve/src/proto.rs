//! The `revmax-served` wire protocol: length-prefixed binary frames over
//! TCP (`DESIGN.md` §11).
//!
//! Zero-dep by design (hand-rolled little-endian encoding on `std` only,
//! matching the workspace's `vendor/` philosophy). Every frame is
//!
//! ```text
//! [u32 LE payload length][payload]
//! payload = [u8 opcode][body…]
//! ```
//!
//! Requests carry opcodes `0x01..=0x06`, responses `0x81..=0x87`. The
//! decoders are **total**: truncated, oversized, or garbage payloads come
//! back as a typed [`ProtoError`] — never a panic and never an
//! attacker-controlled allocation (element counts are validated against
//! the bytes actually present before any `Vec` is sized). The daemon
//! turns decode failures into [`Response::Error`] frames; a malformed
//! client cannot take the process down.
//!
//! Floating-point values travel as IEEE-754 bit patterns
//! ([`f64::to_bits`], little-endian), so a served revenue crosses the
//! wire bit-exactly — the end-to-end parity suites compare
//! `to_bits()` equality straight through a socket.

use crate::query::{Assignment, MarginalRevenue};
use revmax_core::marketlog::Event;
use std::io::{self, Read, Write};

/// Default cap on a single frame's payload (16 MiB — comfortably above a
/// 4M-user id batch, far below anything that could exhaust the host).
pub const MAX_FRAME: usize = 16 << 20;

// Wire opcodes. Requests live below 0x80, responses at or above it, and
// every `REQ_<NAME>` has its `RESP_<NAME>` counterpart (`RESP_ERROR` is
// the unpaired extra: any request can fail). The audit's `opcode-totality`
// rule parses these tables and fails the build if a new opcode ships
// half-wired — missing from a codec arm, unpaired, or on the wrong side
// of 0x80. The decode test-vectors below intentionally keep raw bytes, so
// the on-wire values stay pinned independently of these names.
pub const REQ_ASSIGN: u8 = 0x01;
pub const REQ_REVENUE: u8 = 0x02;
pub const REQ_MUTATE: u8 = 0x03;
pub const REQ_STATS: u8 = 0x04;
pub const REQ_SHUTDOWN: u8 = 0x05;
pub const REQ_MARGINAL: u8 = 0x06;
pub const RESP_ASSIGN: u8 = 0x81;
pub const RESP_REVENUE: u8 = 0x82;
pub const RESP_MUTATE: u8 = 0x83;
pub const RESP_STATS: u8 = 0x84;
pub const RESP_ERROR: u8 = 0x85;
pub const RESP_SHUTDOWN: u8 = 0x86;
pub const RESP_MARGINAL: u8 = 0x87;

/// A frame that failed to decode. Carries a human-readable reason; the
/// daemon echoes it inside a [`Response::Error`] with
/// [`ErrorCode::Malformed`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProtoError(pub String);

impl std::fmt::Display for ProtoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "malformed frame: {}", self.0)
    }
}

impl std::error::Error for ProtoError {}

fn err<T>(msg: impl Into<String>) -> Result<T, ProtoError> {
    Err(ProtoError(msg.into()))
}

/// Which consumers a query addresses: an explicit id batch, or every
/// consumer of the currently-served market (`All` keeps million-user
/// whole-market queries off the wire — and lets the daemon use the
/// `*_all` paths, which materialize no id batch).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum UserSel {
    /// Every consumer of the currently-served index.
    All,
    /// An explicit batch of user ids (any order, repeats allowed).
    Ids(Vec<u32>),
}

/// A client → server frame.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Per-user menu assignments ([`crate::MenuIndex::try_assign`]).
    Assign(UserSel),
    /// Expected revenue over the selection
    /// ([`crate::MenuIndex::try_expected_revenue`]).
    ExpectedRevenue(UserSel),
    /// Marginal revenue of nudging one offer's price by `dprice` over the
    /// selection ([`crate::MenuIndex::try_marginal_revenue`]) — the
    /// repricing what-if, answered from the already-scattered tiles
    /// without recompiling the menu.
    MarginalRevenue { offer: u32, dprice: f64, sel: UserSel },
    /// Append churn events to the daemon's `MarketLog`; applied off the
    /// request path by the churn thread, which re-solves incrementally
    /// and hot-swaps the served index.
    MutateMarket(Vec<Event>),
    /// Snapshot the daemon's counters, generation, and latency quantiles.
    SwapStats,
    /// Drain and stop the daemon. Acknowledged with [`Response::Bye`].
    Shutdown,
}

/// Machine-readable reason on a [`Response::Error`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCode {
    /// The frame failed to decode; the connection stays up.
    Malformed = 1,
    /// The query was well-formed but invalid (e.g. user id out of range).
    Query = 2,
    /// A mutation event was rejected by the `MarketLog`.
    Mutation = 3,
    /// Admission control shed the request (queue full). Retry later;
    /// nothing was executed.
    Overloaded = 4,
    /// The daemon is shutting down.
    ShuttingDown = 5,
}

impl ErrorCode {
    fn from_u16(v: u16) -> Result<ErrorCode, ProtoError> {
        Ok(match v {
            1 => ErrorCode::Malformed,
            2 => ErrorCode::Query,
            3 => ErrorCode::Mutation,
            4 => ErrorCode::Overloaded,
            5 => ErrorCode::ShuttingDown,
            other => return err(format!("unknown error code {other}")),
        })
    }
}

/// One snapshot of the daemon's counters (the [`Response::Stats`] body,
/// 17 `u64`s on the wire, field order below).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DaemonStats {
    /// Swap generation of the served index (0 = initial solve).
    pub generation: u64,
    /// Consumers of the currently-served index.
    pub n_users: u64,
    /// Items of the currently-served index.
    pub n_items: u64,
    /// Assign requests answered (not counting shed ones).
    pub served_assign: u64,
    /// Expected-revenue requests answered.
    pub served_revenue: u64,
    /// Marginal-revenue requests answered.
    pub served_marginal: u64,
    /// Requests that rode along in another request's coalesced run.
    pub coalesced: u64,
    /// Requests refused by admission control (request queue or churn
    /// backlog full).
    pub shed: u64,
    /// Frames that failed to decode.
    pub malformed: u64,
    /// Churn events applied to the `MarketLog`.
    pub mutations_applied: u64,
    /// Churn events rejected by the `MarketLog`.
    pub mutations_rejected: u64,
    /// Retained-cache hits across the churn thread's incremental resolves.
    pub resolve_hits: u64,
    /// Retained-cache misses (cells actually re-solved).
    pub resolve_misses: u64,
    /// Server-side p50 latency of assign requests, ns (queue + execute).
    pub assign_p50_ns: u64,
    /// Server-side p99 latency of assign requests, ns.
    pub assign_p99_ns: u64,
    /// Server-side p50 latency of expected-revenue requests, ns.
    pub revenue_p50_ns: u64,
    /// Server-side p99 latency of expected-revenue requests, ns.
    pub revenue_p99_ns: u64,
}

impl DaemonStats {
    fn fields(&self) -> [u64; 17] {
        [
            self.generation,
            self.n_users,
            self.n_items,
            self.served_assign,
            self.served_revenue,
            self.served_marginal,
            self.coalesced,
            self.shed,
            self.malformed,
            self.mutations_applied,
            self.mutations_rejected,
            self.resolve_hits,
            self.resolve_misses,
            self.assign_p50_ns,
            self.assign_p99_ns,
            self.revenue_p50_ns,
            self.revenue_p99_ns,
        ]
    }

    fn from_fields(f: [u64; 17]) -> DaemonStats {
        DaemonStats {
            generation: f[0],
            n_users: f[1],
            n_items: f[2],
            served_assign: f[3],
            served_revenue: f[4],
            served_marginal: f[5],
            coalesced: f[6],
            shed: f[7],
            malformed: f[8],
            mutations_applied: f[9],
            mutations_rejected: f[10],
            resolve_hits: f[11],
            resolve_misses: f[12],
            assign_p50_ns: f[13],
            assign_p99_ns: f[14],
            revenue_p50_ns: f[15],
            revenue_p99_ns: f[16],
        }
    }
}

/// A server → client frame.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Answer to [`Request::Assign`].
    Assignments(Vec<Assignment>),
    /// Answer to [`Request::ExpectedRevenue`] (bit-exact f64).
    Revenue(f64),
    /// Answer to [`Request::MarginalRevenue`] (all three f64s bit-exact).
    Marginal(MarginalRevenue),
    /// Mutation batch accepted for off-request-path application.
    /// `generation` is the served generation at enqueue time — poll
    /// [`Request::SwapStats`] until it moves past this to observe the
    /// resulting hot swap.
    MutateAck { accepted: u64, generation: u64 },
    /// Answer to [`Request::SwapStats`].
    Stats(DaemonStats),
    /// The request was refused or failed; nothing (for queries) was
    /// executed. The connection stays usable.
    Error { code: ErrorCode, message: String },
    /// Shutdown acknowledged; the daemon is draining.
    Bye,
}

// ---------------------------------------------------------------------
// Frame IO
// ---------------------------------------------------------------------

/// Write one `[u32 LE length][payload]` frame.
///
/// Prefix and payload go out in a **single** write: two small writes per
/// frame make Nagle's algorithm and delayed ACKs conspire into ~40 ms
/// stalls per request on loopback, which is the difference between a
/// µs-scale and a ms-scale daemon.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> io::Result<()> {
    if payload.len() > MAX_FRAME {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("frame of {} bytes exceeds MAX_FRAME ({MAX_FRAME})", payload.len()),
        ));
    }
    let mut buf = Vec::with_capacity(4 + payload.len());
    buf.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    buf.extend_from_slice(payload);
    w.write_all(&buf)?;
    w.flush()
}

/// Read one frame's payload. `Ok(None)` on clean EOF at a frame boundary
/// (the peer hung up); `ErrorKind::InvalidData` when the announced length
/// exceeds `max_frame` (the connection is unrecoverable after that — the
/// stream offset is unknown); `UnexpectedEof` on a truncated frame.
pub fn read_frame(r: &mut impl Read, max_frame: usize) -> io::Result<Option<Vec<u8>>> {
    let mut len_buf = [0u8; 4];
    let mut got = 0usize;
    while got < 4 {
        match r.read(&mut len_buf[got..])? {
            0 if got == 0 => return Ok(None),
            0 => {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "EOF inside a frame length prefix",
                ))
            }
            n => got += n,
        }
    }
    let len = u32::from_le_bytes(len_buf) as usize;
    if len > max_frame {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("announced frame length {len} exceeds the {max_frame}-byte cap"),
        ));
    }
    let mut payload = vec![0u8; len];
    r.read_exact(&mut payload)?;
    Ok(Some(payload))
}

// ---------------------------------------------------------------------
// Payload encoding
// ---------------------------------------------------------------------

struct Enc(Vec<u8>);

impl Enc {
    fn u8(&mut self, v: u8) {
        self.0.push(v);
    }
    fn u16(&mut self, v: u16) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }
    fn u32(&mut self, v: u32) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }
    fn u64(&mut self, v: u64) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }
    fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }
    fn ids(&mut self, ids: &[u32]) {
        self.u32(ids.len() as u32);
        for &id in ids {
            self.u32(id);
        }
    }
    fn user_sel(&mut self, sel: &UserSel) {
        match sel {
            UserSel::All => self.u8(1),
            UserSel::Ids(ids) => {
                self.u8(0);
                self.ids(ids);
            }
        }
    }
}

/// Cursor over a payload with bounds-checked reads — the decoding side
/// never indexes past the buffer, whatever the bytes claim.
struct Dec<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Dec<'a> {
    fn new(buf: &'a [u8]) -> Dec<'a> {
        Dec { buf, pos: 0 }
    }
    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }
    fn bytes(&mut self, n: usize) -> Result<&'a [u8], ProtoError> {
        if self.remaining() < n {
            return err(format!("truncated: wanted {n} bytes, {} left", self.remaining()));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }
    fn u8(&mut self) -> Result<u8, ProtoError> {
        Ok(self.bytes(1)?[0])
    }
    fn u16(&mut self) -> Result<u16, ProtoError> {
        Ok(u16::from_le_bytes(self.bytes(2)?.try_into().unwrap()))
    }
    fn u32(&mut self) -> Result<u32, ProtoError> {
        Ok(u32::from_le_bytes(self.bytes(4)?.try_into().unwrap()))
    }
    fn u64(&mut self) -> Result<u64, ProtoError> {
        Ok(u64::from_le_bytes(self.bytes(8)?.try_into().unwrap()))
    }
    fn f64(&mut self) -> Result<f64, ProtoError> {
        Ok(f64::from_bits(self.u64()?))
    }
    /// An element count that claims at least `min_bytes` per element:
    /// rejected unless the bytes are actually present, so garbage counts
    /// can never size an allocation.
    fn count(&mut self, min_bytes: usize, what: &str) -> Result<usize, ProtoError> {
        let n = self.u32()? as usize;
        if n.saturating_mul(min_bytes) > self.remaining() {
            return err(format!(
                "{what} count {n} needs {} bytes but only {} remain",
                n * min_bytes,
                self.remaining()
            ));
        }
        Ok(n)
    }
    fn ids(&mut self) -> Result<Vec<u32>, ProtoError> {
        let n = self.count(4, "user id")?;
        (0..n).map(|_| self.u32()).collect()
    }
    fn user_sel(&mut self) -> Result<UserSel, ProtoError> {
        match self.u8()? {
            1 => Ok(UserSel::All),
            0 => Ok(UserSel::Ids(self.ids()?)),
            other => err(format!("bad user selector tag {other}")),
        }
    }
    fn finish(self) -> Result<(), ProtoError> {
        if self.remaining() != 0 {
            return err(format!("{} trailing bytes after the message", self.remaining()));
        }
        Ok(())
    }
}

fn encode_event(e: &mut Enc, ev: &Event) {
    match *ev {
        Event::UpsertWtp { user, item, wtp } => {
            e.u8(0);
            e.u32(user);
            e.u32(item);
            e.f64(wtp);
        }
        Event::DeleteWtp { user, item } => {
            e.u8(1);
            e.u32(user);
            e.u32(item);
        }
        Event::AddUser => e.u8(2),
        Event::AddItem { listed_price } => {
            e.u8(3);
            match listed_price {
                Some(p) => {
                    e.u8(1);
                    e.f64(p);
                }
                None => e.u8(0),
            }
        }
        Event::RetireUser { user } => {
            e.u8(4);
            e.u32(user);
        }
        Event::RetireItem { item } => {
            e.u8(5);
            e.u32(item);
        }
    }
}

fn decode_event(d: &mut Dec<'_>) -> Result<Event, ProtoError> {
    Ok(match d.u8()? {
        0 => Event::UpsertWtp { user: d.u32()?, item: d.u32()?, wtp: d.f64()? },
        1 => Event::DeleteWtp { user: d.u32()?, item: d.u32()? },
        2 => Event::AddUser,
        3 => Event::AddItem {
            listed_price: match d.u8()? {
                1 => Some(d.f64()?),
                0 => None,
                other => return err(format!("bad AddItem price tag {other}")),
            },
        },
        4 => Event::RetireUser { user: d.u32()? },
        5 => Event::RetireItem { item: d.u32()? },
        other => err(format!("unknown event tag {other}"))?,
    })
}

/// Encode a request payload (prefix it with [`write_frame`]).
pub fn encode_request(req: &Request) -> Vec<u8> {
    let mut e = Enc(Vec::new());
    match req {
        Request::Assign(sel) => {
            e.u8(REQ_ASSIGN);
            e.user_sel(sel);
        }
        Request::ExpectedRevenue(sel) => {
            e.u8(REQ_REVENUE);
            e.user_sel(sel);
        }
        Request::MutateMarket(events) => {
            e.u8(REQ_MUTATE);
            e.u32(events.len() as u32);
            for ev in events {
                encode_event(&mut e, ev);
            }
        }
        Request::SwapStats => e.u8(REQ_STATS),
        Request::Shutdown => e.u8(REQ_SHUTDOWN),
        Request::MarginalRevenue { offer, dprice, sel } => {
            e.u8(REQ_MARGINAL);
            e.u32(*offer);
            e.f64(*dprice);
            e.user_sel(sel);
        }
    }
    e.0
}

/// Decode a request payload. Total: any byte sequence yields `Ok` or a
/// [`ProtoError`], never a panic.
pub fn decode_request(payload: &[u8]) -> Result<Request, ProtoError> {
    let mut d = Dec::new(payload);
    let req = match d.u8().map_err(|_| ProtoError("empty payload".into()))? {
        REQ_ASSIGN => Request::Assign(d.user_sel()?),
        REQ_REVENUE => Request::ExpectedRevenue(d.user_sel()?),
        REQ_MUTATE => {
            let n = d.count(1, "event")?;
            let events = (0..n).map(|_| decode_event(&mut d)).collect::<Result<Vec<_>, _>>()?;
            Request::MutateMarket(events)
        }
        REQ_STATS => Request::SwapStats,
        REQ_SHUTDOWN => Request::Shutdown,
        REQ_MARGINAL => {
            Request::MarginalRevenue { offer: d.u32()?, dprice: d.f64()?, sel: d.user_sel()? }
        }
        other => return err(format!("unknown request opcode {other:#04x}")),
    };
    d.finish()?;
    Ok(req)
}

/// Encode a response payload (prefix it with [`write_frame`]).
pub fn encode_response(resp: &Response) -> Vec<u8> {
    let mut e = Enc(Vec::new());
    match resp {
        Response::Assignments(assignments) => {
            e.u8(RESP_ASSIGN);
            e.u32(assignments.len() as u32);
            for a in assignments {
                e.u32(a.user);
                e.f64(a.payment);
                e.ids(&a.offers);
            }
        }
        Response::Revenue(r) => {
            e.u8(RESP_REVENUE);
            e.f64(*r);
        }
        Response::Marginal(m) => {
            e.u8(RESP_MARGINAL);
            e.f64(m.base);
            e.f64(m.perturbed);
            e.f64(m.delta);
        }
        Response::MutateAck { accepted, generation } => {
            e.u8(RESP_MUTATE);
            e.u64(*accepted);
            e.u64(*generation);
        }
        Response::Stats(stats) => {
            e.u8(RESP_STATS);
            for v in stats.fields() {
                e.u64(v);
            }
        }
        Response::Error { code, message } => {
            e.u8(RESP_ERROR);
            e.u16(*code as u16);
            let bytes = message.as_bytes();
            e.u32(bytes.len() as u32);
            e.0.extend_from_slice(bytes);
        }
        Response::Bye => e.u8(RESP_SHUTDOWN),
    }
    e.0
}

/// Decode a response payload. Total, like [`decode_request`].
pub fn decode_response(payload: &[u8]) -> Result<Response, ProtoError> {
    let mut d = Dec::new(payload);
    let resp = match d.u8().map_err(|_| ProtoError("empty payload".into()))? {
        RESP_ASSIGN => {
            // Each assignment is ≥ 16 bytes (user + payment + offer count).
            let n = d.count(16, "assignment")?;
            let assignments = (0..n)
                .map(|_| Ok(Assignment { user: d.u32()?, payment: d.f64()?, offers: d.ids()? }))
                .collect::<Result<Vec<_>, ProtoError>>()?;
            Response::Assignments(assignments)
        }
        RESP_REVENUE => Response::Revenue(d.f64()?),
        RESP_MARGINAL => Response::Marginal(MarginalRevenue {
            base: d.f64()?,
            perturbed: d.f64()?,
            delta: d.f64()?,
        }),
        RESP_MUTATE => Response::MutateAck { accepted: d.u64()?, generation: d.u64()? },
        RESP_STATS => {
            let mut f = [0u64; 17];
            for slot in &mut f {
                *slot = d.u64()?;
            }
            Response::Stats(DaemonStats::from_fields(f))
        }
        RESP_ERROR => {
            let code = ErrorCode::from_u16(d.u16()?)?;
            let n = d.count(1, "message byte")?;
            let message = String::from_utf8(d.bytes(n)?.to_vec())
                .map_err(|_| ProtoError("error message is not UTF-8".into()))?;
            Response::Error { code, message }
        }
        RESP_SHUTDOWN => Response::Bye,
        other => return err(format!("unknown response opcode {other:#04x}")),
    };
    d.finish()?;
    Ok(resp)
}

/// One blocking request/response exchange over a stream — the client-side
/// helper `loadgen` and the integration suites use.
pub fn roundtrip(stream: &mut (impl Read + Write), req: &Request) -> io::Result<Response> {
    write_frame(stream, &encode_request(req))?;
    let payload = read_frame(stream, MAX_FRAME)?
        .ok_or_else(|| io::Error::new(io::ErrorKind::UnexpectedEof, "server closed"))?;
    decode_response(&payload).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn requests() -> Vec<Request> {
        vec![
            Request::Assign(UserSel::All),
            Request::Assign(UserSel::Ids(vec![3, 1, 1, 0, u32::MAX])),
            Request::ExpectedRevenue(UserSel::Ids(Vec::new())),
            Request::ExpectedRevenue(UserSel::All),
            Request::MutateMarket(vec![
                Event::UpsertWtp { user: 7, item: 2, wtp: 12.5 },
                Event::DeleteWtp { user: 0, item: 0 },
                Event::AddUser,
                Event::AddItem { listed_price: Some(3.25) },
                Event::AddItem { listed_price: None },
                Event::RetireUser { user: 9 },
                Event::RetireItem { item: 4 },
            ]),
            Request::SwapStats,
            Request::Shutdown,
            Request::MarginalRevenue { offer: 5, dprice: -0.25, sel: UserSel::All },
            Request::MarginalRevenue { offer: 0, dprice: 0.0, sel: UserSel::Ids(vec![2, 2, 0]) },
        ]
    }

    fn responses() -> Vec<Response> {
        vec![
            Response::Assignments(vec![
                Assignment { user: 0, payment: 12.0, offers: vec![2] },
                Assignment { user: 9, payment: 0.0, offers: Vec::new() },
                Assignment { user: 1, payment: -0.0, offers: vec![0, 1, 5] },
            ]),
            Response::Assignments(Vec::new()),
            Response::Revenue(1234.5678e-3),
            Response::Revenue(f64::NAN),
            Response::Marginal(MarginalRevenue { base: 100.0, perturbed: 99.25, delta: -0.75 }),
            Response::MutateAck { accepted: 42, generation: 7 },
            Response::Stats(DaemonStats {
                generation: 3,
                n_users: 1_000_000,
                served_assign: 17,
                assign_p99_ns: u64::MAX,
                ..DaemonStats::default()
            }),
            Response::Error { code: ErrorCode::Overloaded, message: "queue full".into() },
            Response::Error { code: ErrorCode::Malformed, message: String::new() },
            Response::Bye,
        ]
    }

    #[test]
    fn requests_round_trip() {
        for req in requests() {
            let bytes = encode_request(&req);
            assert_eq!(decode_request(&bytes).unwrap(), req, "{req:?}");
        }
    }

    #[test]
    fn responses_round_trip() {
        for resp in responses() {
            let bytes = encode_response(&resp);
            let back = decode_response(&bytes).unwrap();
            // NaN payloads compare by bits, not PartialEq.
            assert_eq!(format!("{back:?}"), format!("{resp:?}"));
            if let (Response::Revenue(a), Response::Revenue(b)) = (&back, &resp) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
        }
    }

    #[test]
    fn truncations_are_errors_not_panics() {
        for req in requests() {
            let bytes = encode_request(&req);
            for cut in 0..bytes.len() {
                assert!(decode_request(&bytes[..cut]).is_err(), "{req:?} cut at {cut}");
            }
        }
        for resp in responses() {
            let bytes = encode_response(&resp);
            for cut in 0..bytes.len() {
                assert!(decode_response(&bytes[..cut]).is_err(), "{resp:?} cut at {cut}");
            }
        }
    }

    #[test]
    fn trailing_garbage_is_rejected() {
        for req in requests() {
            let mut bytes = encode_request(&req);
            bytes.push(0);
            assert!(decode_request(&bytes).is_err(), "{req:?}");
        }
    }

    #[test]
    fn hostile_counts_cannot_size_allocations() {
        // Assign with an id count claiming 2^32-1 entries but no bytes.
        let mut bytes = vec![0x01, 0x00];
        bytes.extend_from_slice(&u32::MAX.to_le_bytes());
        let e = decode_request(&bytes).unwrap_err();
        assert!(e.0.contains("count"), "{e}");
        // MutateMarket claiming a billion events backed by one byte.
        let mut bytes = vec![0x03];
        bytes.extend_from_slice(&1_000_000_000u32.to_le_bytes());
        bytes.push(0);
        assert!(decode_request(&bytes).is_err());
    }

    #[test]
    fn unknown_opcodes_and_tags_are_errors() {
        assert!(decode_request(&[]).is_err());
        assert!(decode_request(&[0x77]).is_err());
        assert!(decode_response(&[0x01]).is_err()); // request opcode to decode_response
        assert!(decode_request(&[0x01, 9]).is_err()); // bad selector tag
        let mut bad_event = vec![0x03];
        bad_event.extend_from_slice(&1u32.to_le_bytes());
        bad_event.push(99);
        assert!(decode_request(&bad_event).is_err());
        // Error response with a bad code.
        let mut bytes = vec![0x85];
        bytes.extend_from_slice(&999u16.to_le_bytes());
        bytes.extend_from_slice(&0u32.to_le_bytes());
        assert!(decode_response(&bytes).is_err());
    }

    #[test]
    fn frame_io_round_trips_and_rejects_oversize() {
        let mut buf: Vec<u8> = Vec::new();
        write_frame(&mut buf, b"hello").unwrap();
        write_frame(&mut buf, b"").unwrap();
        let mut r = &buf[..];
        assert_eq!(read_frame(&mut r, MAX_FRAME).unwrap().unwrap(), b"hello");
        assert_eq!(read_frame(&mut r, MAX_FRAME).unwrap().unwrap(), b"");
        assert!(read_frame(&mut r, MAX_FRAME).unwrap().is_none()); // clean EOF

        // An announced length beyond the cap is InvalidData, not an
        // attempted allocation.
        let mut hostile = Vec::new();
        hostile.extend_from_slice(&u32::MAX.to_le_bytes());
        let e = read_frame(&mut &hostile[..], MAX_FRAME).unwrap_err();
        assert_eq!(e.kind(), io::ErrorKind::InvalidData);

        // A truncated frame is UnexpectedEof.
        let mut cut = Vec::new();
        write_frame(&mut cut, b"abcdef").unwrap();
        cut.truncate(7);
        let e = read_frame(&mut &cut[..], MAX_FRAME).unwrap_err();
        assert_eq!(e.kind(), io::ErrorKind::UnexpectedEof);
        // EOF inside the length prefix itself.
        let e = read_frame(&mut &cut[..2], MAX_FRAME).unwrap_err();
        assert_eq!(e.kind(), io::ErrorKind::UnexpectedEof);
    }
}
