//! Sweep results: per-cell rows, cache statistics, a human table, a
//! bit-exact canonical serialization (the determinism suites compare
//! these), and a machine-readable export in the `BENCH_JSON` format the
//! vendored criterion harness writes (`BENCH_*.json` trajectory files) so
//! sweep timings and bench timings share one tooling path.

use crate::cache::CacheStats;
use crate::dag::{Cohort, DagSummary};
use crate::spec::{Recipe, ScaleSpec};
use revmax_core::config::{BundleConfig, OfferNode, Outcome};
use std::fmt::Write as _;
use std::time::Duration;

/// Wall-clock statistics of one unique (uncached) solve over the spec's
/// `repeat` repetitions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SolveTiming {
    pub min_ns: u128,
    pub mean_ns: u128,
    pub max_ns: u128,
    pub reps: u64,
}

impl SolveTiming {
    /// Summarize raw per-repetition durations.
    pub fn from_durations(durations: &[Duration]) -> Self {
        assert!(!durations.is_empty(), "at least one repetition required");
        let ns: Vec<u128> = durations.iter().map(Duration::as_nanos).collect();
        SolveTiming {
            min_ns: *ns.iter().min().unwrap(),
            mean_ns: ns.iter().sum::<u128>() / ns.len() as u128,
            max_ns: *ns.iter().max().unwrap(),
            reps: ns.len() as u64,
        }
    }
}

/// One grid cell's result. Everything except `cached` and `timing` is
/// part of the canonical serialization (wall clock is the one thing the
/// execution layout is allowed to change — `DESIGN.md` §6).
#[derive(Debug, Clone)]
pub struct CellResult {
    pub method: String,
    pub scale: ScaleSpec,
    pub seed: u64,
    /// The market recipe (params, WTP distribution, price mode) the cell
    /// was solved under.
    pub recipe: Recipe,
    pub cohort: Cohort,
    pub n_users: usize,
    pub n_items: usize,
    /// The sub-market's content fingerprint (cache key sans method).
    pub fingerprint: u64,
    pub revenue: f64,
    pub components_revenue: f64,
    pub coverage: f64,
    pub gain: f64,
    /// Kupfer bundle-vs-separate revenue ratio of this cell's sub-market
    /// ([`revmax_core::metrics::kupfer_ratio`]) — a structural diagnostic
    /// independent of the method axis, so every method cell of one
    /// sub-market reports the same value (the `b/s` column).
    pub kupfer: f64,
    pub n_bundles: usize,
    /// The winning configuration itself — what the serving layer compiles
    /// into a `MenuIndex` (`revmax-serve`, `DESIGN.md` §9). Cached cells
    /// carry a clone of their source cell's configuration.
    pub config: BundleConfig,
    /// Bit-exact serialization of the solved configuration
    /// ([`canon_outcome`]).
    pub config_canon: String,
    /// True when this cell reused another cell's solve.
    pub cached: bool,
    /// Present iff this cell ran its own solve.
    pub timing: Option<SolveTiming>,
}

/// The result of [`crate::run_sweep`].
#[derive(Debug, Clone)]
pub struct SweepReport {
    /// One row per grid cell, in the DAG's deterministic cell order.
    pub cells: Vec<CellResult>,
    pub cache: CacheStats,
    pub dag: DagSummary,
    /// Resolved engine fan-out width.
    pub threads: usize,
    pub wall: Duration,
}

/// Canonical bit-exact serialization of an offer tree (ids, raw price
/// bits, child structure) — the same shape the determinism suites use.
fn canon_node(n: &OfferNode, out: &mut String) {
    write!(out, "[{:?}@{:016x}", n.bundle.items(), n.price.to_bits()).unwrap();
    for c in &n.children {
        canon_node(c, out);
    }
    out.push(']');
}

/// Canonical bit-exact serialization of a solve outcome: revenues,
/// metrics, per-iteration trace, and the full configuration. Wall-clock
/// fields are excluded.
pub fn canon_outcome(o: &Outcome) -> String {
    let mut s = String::new();
    write!(
        s,
        "{}|rev:{:016x}|comp:{:016x}|cov:{:016x}|gain:{:016x}|",
        o.algorithm,
        o.revenue.to_bits(),
        o.components_revenue.to_bits(),
        o.coverage.to_bits(),
        o.gain.to_bits()
    )
    .unwrap();
    for p in o.trace.points() {
        write!(s, "it{}:{:016x}:{}|", p.iteration, p.revenue.to_bits(), p.n_bundles).unwrap();
    }
    for r in &o.config.roots {
        canon_node(r, &mut s);
    }
    s
}

impl SweepReport {
    /// Shorthand for the cache hit rate.
    pub fn hit_rate(&self) -> f64 {
        self.cache.hit_rate()
    }

    /// Bit-exact serialization of every cell **excluding wall clock and
    /// cache placement** (`cached`/`timing`): two sweeps of the same spec
    /// — at any thread count, cache on or off — must render identically.
    pub fn canonical(&self) -> String {
        let mut s = String::new();
        writeln!(s, "cells:{}", self.cells.len()).unwrap();
        for c in &self.cells {
            writeln!(
                s,
                "{}|{}|seed:{}|{}|{}|{}x{}|fp:{:016x}|bvs:{:016x}|{}",
                c.method,
                c.scale.name(),
                c.seed,
                c.recipe.id(),
                c.cohort,
                c.n_users,
                c.n_items,
                c.fingerprint,
                c.kupfer.to_bits(),
                c.config_canon,
            )
            .unwrap();
        }
        s
    }

    /// Column-aligned human table plus cache/DAG footer.
    pub fn render_table(&self) -> String {
        let header = [
            "method", "scale", "seed", "market", "cohort", "users", "revenue", "cov", "gain",
            "b/s", "time", "",
        ];
        let mut rows: Vec<Vec<String>> = vec![header.iter().map(|s| s.to_string()).collect()];
        for c in &self.cells {
            rows.push(vec![
                c.method.clone(),
                c.scale.name().into(),
                format!("{}", c.seed),
                c.recipe.id(),
                c.cohort.to_string(),
                format!("{}", c.n_users),
                format!("{:.2}", c.revenue),
                format!("{:.2}%", c.coverage * 100.0),
                format!("{:+.2}%", c.gain * 100.0),
                format!("{:.3}", c.kupfer),
                match &c.timing {
                    Some(t) => format!("{:.3} ms", t.mean_ns as f64 / 1e6),
                    None => "-".into(),
                },
                if c.cached { "cached".into() } else { String::new() },
            ]);
        }
        let widths: Vec<usize> = (0..rows[0].len())
            .map(|k| rows.iter().map(|r| r[k].len()).max().unwrap_or(0))
            .collect();
        let mut out = String::new();
        for (i, row) in rows.iter().enumerate() {
            let line: Vec<String> =
                row.iter().zip(&widths).map(|(c, w)| format!("{c:>w$}")).collect();
            out.push_str(line.join("  ").trim_end());
            out.push('\n');
            if i == 0 {
                out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
                out.push('\n');
            }
        }
        writeln!(
            out,
            "cache: {} hits / {} misses ({:.1}% hit rate)",
            self.cache.hits,
            self.cache.misses,
            self.hit_rate() * 100.0
        )
        .unwrap();
        writeln!(
            out,
            "dag: {} datasets -> {} markets -> {} partitions -> {} solves ({} edges)",
            self.dag.datasets,
            self.dag.markets,
            self.dag.partitions,
            self.dag.solves,
            self.dag.edges
        )
        .unwrap();
        writeln!(out, "threads: {}   wall: {:.2}s", self.threads, self.wall.as_secs_f64()).unwrap();
        out
    }

    /// Timing export in the `BENCH_JSON` entry shape. One entry per
    /// distinct `sweep_<scale>/<recipe id>/<method>` id — the recipe id
    /// ([`Recipe::id`]) carries `theta<θ>` plus a segment for each
    /// **non-default** market axis (heavy-tailed dists, non-mean
    /// objectives, …), so default ids stay byte-identical to what
    /// `perf_check`'s committed baselines map (`BENCH_pr3.json`'s
    /// `endtoend_small/<method>`). Entries aggregate over the
    /// **whole-market, uncached** cells of their id (cohort solves are a
    /// different workload and cached cells have no timing of their own).
    pub fn bench_entries(&self) -> Vec<BenchEntry> {
        let mut entries: Vec<BenchEntry> = Vec::new();
        for c in &self.cells {
            let Some(t) = &c.timing else { continue };
            if c.cohort != Cohort::Whole {
                continue;
            }
            let id = format!(
                "sweep_{}/{}/{}",
                c.scale.name(),
                c.recipe.id(),
                c.method.to_lowercase().replace(' ', "_")
            );
            match entries.iter_mut().find(|e| e.id == id) {
                Some(e) => {
                    // Weighted mean over all repetitions of all cells.
                    let total = e.mean_ns * e.iters as u128 + t.mean_ns * t.reps as u128;
                    e.iters += t.reps;
                    e.mean_ns = total / e.iters as u128;
                    e.min_ns = e.min_ns.min(t.min_ns);
                    e.max_ns = e.max_ns.max(t.max_ns);
                }
                None => entries.push(BenchEntry {
                    id,
                    mean_ns: t.mean_ns,
                    min_ns: t.min_ns,
                    max_ns: t.max_ns,
                    iters: t.reps,
                }),
            }
        }
        entries
    }
}

/// One benchmark estimate in the `BENCH_JSON` interchange format (the
/// shape the vendored criterion harness exports and the `BENCH_*.json`
/// trajectory files commit).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BenchEntry {
    pub id: String,
    pub mean_ns: u128,
    pub min_ns: u128,
    pub max_ns: u128,
    pub iters: u64,
}

/// Serialize entries as the `BENCH_JSON` array (byte-compatible with the
/// vendored criterion's writer).
pub fn render_bench_json(entries: &[BenchEntry]) -> String {
    let mut out = String::from("[\n");
    for (k, e) in entries.iter().enumerate() {
        if k > 0 {
            out.push_str(",\n");
        }
        write!(
            out,
            "  {{\"id\": \"{}\", \"mean_ns\": {}, \"min_ns\": {}, \"max_ns\": {}, \"iters\": {}}}",
            e.id, e.mean_ns, e.min_ns, e.max_ns, e.iters
        )
        .unwrap();
    }
    out.push_str("\n]\n");
    out
}

/// Parse a `BENCH_JSON` file (the exact line-oriented format
/// [`render_bench_json`] and the vendored criterion emit; anything else is
/// dropped, best effort).
pub fn parse_bench_json(body: &str) -> Vec<BenchEntry> {
    let field = |line: &str, key: &str| -> Option<u128> {
        let tail = &line[line.find(key)? + key.len()..];
        let digits: String = tail
            .chars()
            .skip_while(|c| !c.is_ascii_digit())
            .take_while(char::is_ascii_digit)
            .collect();
        digits.parse().ok()
    };
    body.lines()
        .filter_map(|line| {
            let line = line.trim().trim_end_matches(',');
            let id = line.strip_prefix("{\"id\": \"")?.split('"').next()?.to_string();
            Some(BenchEntry {
                id,
                mean_ns: field(line, "\"mean_ns\"")?,
                min_ns: field(line, "\"min_ns\"")?,
                max_ns: field(line, "\"max_ns\"")?,
                iters: field(line, "\"iters\"")? as u64,
            })
        })
        .collect()
}

/// Write entries to `path`, merging with whatever valid entries the file
/// already holds (same-id entries are superseded) — the same adoption
/// semantics the vendored criterion uses, so a sweep export and a
/// `cargo bench` export can accumulate into one trajectory file.
pub fn write_bench_json(path: &str, entries: &[BenchEntry]) -> std::io::Result<()> {
    let mut merged: Vec<BenchEntry> = match std::fs::read_to_string(path) {
        Ok(existing) => parse_bench_json(&existing),
        Err(_) => Vec::new(),
    };
    merged.retain(|e| entries.iter().all(|n| n.id != e.id));
    merged.extend(entries.iter().cloned());
    std::fs::write(path, render_bench_json(&merged))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(id: &str, mean: u128) -> BenchEntry {
        BenchEntry { id: id.into(), mean_ns: mean, min_ns: mean - 1, max_ns: mean + 1, iters: 3 }
    }

    #[test]
    fn bench_json_round_trips() {
        let entries = vec![entry("sweep_small/theta0/components", 24_500), entry("g/b", 9)];
        let parsed = parse_bench_json(&render_bench_json(&entries));
        assert_eq!(parsed, entries);
        assert!(parse_bench_json("garbage").is_empty());
    }

    #[test]
    fn bench_json_parses_committed_baseline_shape() {
        // The exact line shape BENCH_pr3.json commits.
        let body = "[\n  {\"id\": \"endtoend_small/components\", \"mean_ns\": 24602, \
                    \"min_ns\": 23566, \"max_ns\": 26211, \"iters\": 15370}\n]\n";
        let parsed = parse_bench_json(body);
        assert_eq!(parsed.len(), 1);
        assert_eq!(parsed[0].id, "endtoend_small/components");
        assert_eq!(parsed[0].mean_ns, 24602);
        assert_eq!(parsed[0].iters, 15370);
    }

    #[test]
    fn write_merges_and_supersedes() {
        let dir = std::env::temp_dir().join(format!("revmax_engine_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("bench.json");
        let path = path.to_str().unwrap();
        write_bench_json(path, &[entry("a", 10), entry("b", 20)]).unwrap();
        write_bench_json(path, &[entry("b", 25), entry("c", 30)]).unwrap();
        let merged = parse_bench_json(&std::fs::read_to_string(path).unwrap());
        assert_eq!(merged.len(), 3);
        assert_eq!(merged.iter().find(|e| e.id == "b").unwrap().mean_ns, 25);
        assert_eq!(merged.iter().find(|e| e.id == "a").unwrap().mean_ns, 10);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn timing_summary() {
        let t = SolveTiming::from_durations(&[
            Duration::from_nanos(10),
            Duration::from_nanos(30),
            Duration::from_nanos(20),
        ]);
        assert_eq!(t, SolveTiming { min_ns: 10, mean_ns: 20, max_ns: 30, reps: 3 });
    }
}
