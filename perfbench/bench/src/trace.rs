//! In-memory span tracer for the traced run.
//!
//! A span is a named interval around one call the benchmark makes into a
//! layer's public functions: name, layer, start, end, parent span and
//! request id. Spans are kept in memory and written out when the run
//! ends. With tracing off, [`Tracer::span`] records nothing and costs one
//! branch.

use std::cell::RefCell;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// The layers spans are attributed to: the workspace crates on a request
/// path, plus `bench` for the benchmark's own phases.
pub const LAYERS: [&str; 8] =
    ["dataset", "core", "matching", "fim", "par", "engine", "serve", "bench"];

#[derive(Debug, Clone)]
pub struct Span {
    pub id: u32,
    pub parent: Option<u32>,
    pub layer: &'static str,
    pub name: String,
    pub req: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    next_id: AtomicU32,
    spans: Mutex<Vec<Span>>,
}

thread_local! {
    /// Open spans of the current thread, innermost last.
    static OPEN: RefCell<Vec<u32>> = const { RefCell::new(Vec::new()) };
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            epoch: Instant::now(),
            next_id: AtomicU32::new(0),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Nanoseconds since the tracer was created.
    fn now_ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Open a span on this thread; it closes when the guard drops. Its
    /// parent is the innermost span still open on this thread.
    pub fn span(&self, layer: &'static str, name: &str, req: u64) -> SpanGuard<'_> {
        if !self.enabled {
            return SpanGuard { tracer: self, open: None };
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let parent = OPEN.with(|o| {
            let mut o = o.borrow_mut();
            let parent = o.last().copied();
            o.push(id);
            parent
        });
        let open =
            OpenSpan { id, parent, layer, name: name.to_string(), req, start: Instant::now() };
        SpanGuard { tracer: self, open: Some(open) }
    }

    /// The id of the innermost span open on this thread.
    pub fn current(&self) -> Option<u32> {
        OPEN.with(|o| o.borrow().last().copied())
    }

    /// Record a finished span measured elsewhere (e.g. on a client thread),
    /// under an explicit parent.
    pub fn record(
        &self,
        parent: Option<u32>,
        layer: &'static str,
        name: &str,
        req: u64,
        start: Instant,
        end: Instant,
    ) {
        if !self.enabled {
            return;
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        self.push(Span {
            id,
            parent,
            layer,
            name: name.to_string(),
            req,
            start_ns: self.now_ns(start),
            end_ns: self.now_ns(end),
        });
    }

    fn push(&self, span: Span) {
        self.spans.lock().expect("span store poisoned by a panicking thread").push(span);
    }

    /// Every recorded span, sorted by start time.
    pub fn spans(&self) -> Vec<Span> {
        let mut spans =
            self.spans.lock().expect("span store poisoned by a panicking thread").clone();
        spans.sort_by_key(|s| (s.start_ns, s.id));
        spans
    }
}

struct OpenSpan {
    id: u32,
    parent: Option<u32>,
    layer: &'static str,
    name: String,
    req: u64,
    start: Instant,
}

pub struct SpanGuard<'a> {
    tracer: &'a Tracer,
    open: Option<OpenSpan>,
}

impl SpanGuard<'_> {
    /// This span's id (`None` with tracing off).
    pub fn id(&self) -> Option<u32> {
        self.open.as_ref().map(|o| o.id)
    }
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        let Some(o) = self.open.take() else { return };
        let end = Instant::now();
        OPEN.with(|stack| {
            let mut stack = stack.borrow_mut();
            if let Some(pos) = stack.iter().rposition(|&id| id == o.id) {
                stack.remove(pos);
            }
        });
        let t = self.tracer;
        t.push(Span {
            id: o.id,
            parent: o.parent,
            layer: o.layer,
            name: o.name,
            req: o.req,
            start_ns: t.now_ns(o.start),
            end_ns: t.now_ns(end),
        });
    }
}

/// Total length of the union of `intervals` clipped to `[lo, hi]`.
pub fn covered_ns(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut total = 0u64;
    let mut cur: Option<(u64, u64)> = None;
    for &(s, e) in intervals.iter() {
        let (s, e) = (s.max(lo), e.min(hi));
        if e <= s {
            continue;
        }
        match cur {
            Some((cs, ce)) if s <= ce => cur = Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                cur = Some((s, e));
            }
            None => cur = Some((s, e)),
        }
    }
    if let Some((cs, ce)) = cur {
        total += ce - cs;
    }
    total
}

/// Per-layer self time in ms: each span's duration minus the part of it
/// its direct children cover, summed by layer (in [`LAYERS`] order).
pub fn layer_self_ms(spans: &[Span]) -> Vec<(&'static str, f64)> {
    let mut children: std::collections::HashMap<u32, Vec<(u64, u64)>> =
        std::collections::HashMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    let mut out: Vec<(&'static str, f64)> = LAYERS.iter().map(|&l| (l, 0.0)).collect();
    for s in spans {
        let dur = s.end_ns.saturating_sub(s.start_ns);
        let covered =
            children.get_mut(&s.id).map(|c| covered_ns(c, s.start_ns, s.end_ns)).unwrap_or(0);
        if let Some(slot) = out.iter_mut().find(|(l, _)| *l == s.layer) {
            slot.1 += (dur - covered.min(dur)) as f64 / 1e6;
        }
    }
    out
}

/// Share of the root span that layer spans (any layer but `bench`, at any
/// depth below the root) cover — how much of the workload's wall time the
/// measured layer calls explain.
pub fn child_coverage(spans: &[Span], root: u32) -> f64 {
    let Some(r) = spans.iter().find(|s| s.id == root) else { return 0.0 };
    let parent_of: std::collections::HashMap<u32, Option<u32>> =
        spans.iter().map(|s| (s.id, s.parent)).collect();
    let under_root = |mut id: u32| loop {
        match parent_of.get(&id).copied().flatten() {
            Some(p) if p == root => return true,
            Some(p) => id = p,
            None => return false,
        }
    };
    let mut intervals: Vec<(u64, u64)> = spans
        .iter()
        .filter(|s| s.layer != "bench" && under_root(s.id))
        .map(|s| (s.start_ns, s.end_ns))
        .collect();
    let dur = r.end_ns.saturating_sub(r.start_ns).max(1);
    covered_ns(&mut intervals, r.start_ns, r.end_ns) as f64 / dur as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn union_merges_overlaps_and_clips() {
        let mut iv = vec![(5, 10), (0, 3), (8, 12), (20, 30)];
        assert_eq!(covered_ns(&mut iv, 0, 25), 3 + 7 + 5);
    }

    #[test]
    fn self_time_subtracts_children() {
        let t = Tracer::new(true);
        {
            let _root = t.span("bench", "root", 0);
            let _c = t.span("core", "child", 0);
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        let root = spans.iter().find(|s| s.name == "root").unwrap();
        let child = spans.iter().find(|s| s.name == "child").unwrap();
        assert_eq!(child.parent, Some(root.id));
        let cov = child_coverage(&spans, root.id);
        assert!(cov > 0.5 && cov <= 1.0, "{cov}");
        let selfs = layer_self_ms(&spans);
        let core = selfs.iter().find(|(l, _)| *l == "core").unwrap().1;
        assert!(core >= 2.0, "{core}");
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::new(false);
        drop(t.span("core", "x", 0));
        assert!(t.spans().is_empty());
    }
}
