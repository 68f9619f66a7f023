//! What one run reports: operation counts, correctness checks, metrics,
//! and (traced run) the span file.

use crate::trace::{self, Tracer};
use std::fmt::Write as _;
use std::time::Instant;

/// The accumulating result of one workload run.
#[derive(Default)]
pub struct Run {
    /// Operations attempted (solves, queries, mutations, checks).
    pub attempted: u64,
    /// Operations that failed, were refused or shed, or checks that failed.
    pub failed: u64,
    /// `(check name, passed)` in execution order.
    pub checks: Vec<(String, bool)>,
    /// `(name, value, unit)` in insertion order.
    pub metrics: Vec<(String, f64, String)>,
    /// Human-readable notes printed before the result line.
    pub notes: Vec<String>,
}

impl Run {
    /// Record one correctness check; a failed check counts as a failed
    /// operation.
    pub fn check(&mut self, name: &str, ok: bool, detail: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.notes.push(format!("CHECK FAILED {name}: {}", detail()));
        }
        self.checks.push((name.to_string(), ok));
    }

    /// Count `n` operations of which `failed` failed.
    pub fn ops(&mut self, n: u64, failed: u64) {
        self.attempted += n;
        self.failed += failed;
    }

    pub fn metric(&mut self, name: &str, value: f64, unit: &str) {
        self.metrics.retain(|(n, _, _)| n != name);
        self.metrics.push((name.to_string(), value, unit.to_string()));
    }

    pub fn note(&mut self, s: impl Into<String>) {
        self.notes.push(s.into());
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.checks.iter().all(|(_, ok)| *ok)
    }

    /// The result line: one JSON object with exactly the keys the runner
    /// reads, restricted to the metric names in `keep`.
    pub fn result_line(&self, keep: &[(&str, &str)]) -> String {
        let mut m = String::new();
        for (i, (name, unit)) in keep.iter().enumerate() {
            let value = self
                .metrics
                .iter()
                .find(|(n, _, _)| n == name)
                .map(|(_, v, _)| *v)
                .expect("every listed metric is measured (checked before printing)");
            if i > 0 {
                m.push_str(", ");
            }
            write!(m, "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}", num(value)).unwrap();
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{m}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed
        )
    }
}

/// A JSON number with all its digits (non-finite values become -1, which
/// no metric can legitimately take).
pub fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "-1.0".into()
    }
}

pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of no samples");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank quantile of unsorted samples.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    assert!(!xs.is_empty(), "quantile of no samples");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

pub fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// The process's peak resident set in MB (`VmHWM`), or 0 where
/// `/proc/self/status` is unavailable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Spans written to the trace file at most; the summary covers all.
const MAX_WRITTEN_SPANS: usize = 50_000;

/// Write the traced run's report: each layer's self time, the root's
/// child coverage, every per-layer metric, and the spans.
pub fn write_trace(
    path: &std::path::Path,
    workload: &str,
    seed: u64,
    tracer: &Tracer,
    root: u32,
    run: &Run,
) -> std::io::Result<()> {
    let spans = tracer.spans();
    let mut s = String::new();
    write!(s, "{{\n  \"workload\": \"{workload}\",\n  \"seed\": {seed},\n").unwrap();
    writeln!(s, "  \"child_coverage\": {},", num(trace::child_coverage(&spans, root))).unwrap();
    s.push_str("  \"layer_self_ms\": {");
    for (i, (layer, ms)) in trace::layer_self_ms(&spans).iter().enumerate() {
        write!(s, "{}\"{layer}\": {}", if i > 0 { ", " } else { "" }, num(*ms)).unwrap();
    }
    s.push_str("},\n  \"metrics\": {");
    for (i, (name, v, unit)) in run.metrics.iter().enumerate() {
        write!(
            s,
            "{}\n    \"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            if i > 0 { "," } else { "" },
            num(*v)
        )
        .unwrap();
    }
    write!(s, "\n  }},\n  \"spans_total\": {},\n  \"spans\": [", spans.len()).unwrap();
    for (i, sp) in spans.iter().take(MAX_WRITTEN_SPANS).enumerate() {
        write!(
            s,
            "{}\n    {{\"id\": {}, \"parent\": {}, \"layer\": \"{}\", \"name\": \"{}\", \"req\": {}, \
             \"start_ns\": {}, \"end_ns\": {}}}",
            if i > 0 { "," } else { "" },
            sp.id,
            sp.parent.map_or("null".to_string(), |p| p.to_string()),
            sp.layer,
            sp.name,
            sp.req,
            sp.start_ns,
            sp.end_ns
        )
        .unwrap();
    }
    s.push_str("\n  ]\n}\n");
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, s)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_quantile() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&xs, 0.99), 99.0);
        assert_eq!(quantile(&xs, 0.5), 50.0);
    }

    #[test]
    fn result_line_has_exactly_the_runner_keys() {
        let mut run = Run::default();
        run.ops(3, 0);
        run.metric("setup_s", 0.25, "s");
        let line = run.result_line(&[("setup_s", "s")]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}}}"
        );
    }
}
