//! Minimal flag parser for the experiment binaries (no external deps).
//!
//! Recognized flags, shared across all binaries:
//!
//! * `--scale tiny|small|medium|paper` — dataset size (per-binary default);
//! * `--seed <u64>` — generator seed (default 2015, the venue year);
//! * `--runs <usize>` — repetitions for stochastic experiments (default 10);
//! * `--full` — run the expensive variants (e.g. N = 25 in Tables 4–5);
//! * `--threads <usize>` — worker threads for the parallel hot paths
//!   (default: the `REVMAX_THREADS` env var, else available parallelism;
//!   results are bit-identical at any value, `DESIGN.md` §6);
//! * `--out <dir>` — results directory (default `results`).

use revmax_core::prelude::{Params, Threads};
use std::collections::HashMap;

/// Parsed command-line arguments.
#[derive(Debug, Clone)]
pub struct BenchArgs {
    pub scale: Scale,
    pub seed: u64,
    pub runs: usize,
    pub full: bool,
    pub threads: Threads,
    pub out_dir: std::path::PathBuf,
}

/// Dataset scale presets — the sweep engine's, so a binary's `--scale`
/// and a sweep's `scales=` name the same generator configurations.
pub use revmax_engine::ScaleSpec as Scale;

impl BenchArgs {
    /// Parse `std::env::args`, with a per-binary default scale.
    pub fn parse(default_scale: Scale) -> Self {
        Self::from_iter(std::env::args().skip(1), default_scale)
    }

    /// Parse from an explicit iterator (testable).
    pub fn from_iter(args: impl IntoIterator<Item = String>, default_scale: Scale) -> Self {
        let mut flags: HashMap<String, String> = HashMap::new();
        let mut full = false;
        let mut it = args.into_iter().peekable();
        while let Some(a) = it.next() {
            match a.as_str() {
                "--full" => full = true,
                "--help" | "-h" => {
                    eprintln!(
                        "flags: --scale tiny|small|medium|paper  --seed <u64>  --runs <n>  --full  --threads <n>  --out <dir>"
                    );
                    std::process::exit(0);
                }
                key if key.starts_with("--") => {
                    let val = it.next().unwrap_or_else(|| {
                        panic!("flag {key} requires a value");
                    });
                    flags.insert(key.trim_start_matches("--").to_string(), val);
                }
                other => panic!("unrecognized argument '{other}'"),
            }
        }
        let scale = flags
            .get("scale")
            .map_or(default_scale, |s| Scale::parse(s).unwrap_or_else(|e| panic!("{e}")));
        let threads = flags.get("threads").map_or(Threads::Auto, |s| {
            let n: usize = s.parse().expect("--threads must be a positive integer");
            assert!(n >= 1, "--threads must be >= 1");
            Threads::Fixed(n)
        });
        BenchArgs {
            scale,
            seed: flags.get("seed").map_or(2015, |s| s.parse().expect("--seed must be a u64")),
            runs: flags.get("runs").map_or(10, |s| s.parse().expect("--runs must be a usize")),
            full,
            threads,
            out_dir: flags.get("out").map_or_else(|| "results".into(), |s| s.into()),
        }
    }

    /// Paper-default [`Params`] carrying this invocation's thread knob —
    /// the base every experiment binary should build its markets from so
    /// `--threads` (and `REVMAX_THREADS`) reach the hot paths.
    pub fn params(&self) -> Params {
        Params::default().with_threads(self.threads)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sv(items: &[&str]) -> Vec<String> {
        items.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn defaults() {
        let a = BenchArgs::from_iter(sv(&[]), Scale::Medium);
        assert_eq!(a.scale, Scale::Medium);
        assert_eq!(a.seed, 2015);
        assert_eq!(a.runs, 10);
        assert!(!a.full);
        assert_eq!(a.threads, Threads::Auto);
        assert_eq!(a.params().threads, Threads::Auto);
    }

    #[test]
    fn parses_threads_flag() {
        let a = BenchArgs::from_iter(sv(&["--threads", "4"]), Scale::Small);
        assert_eq!(a.threads, Threads::Fixed(4));
        assert_eq!(a.params().threads.get(), 4);
    }

    #[test]
    #[should_panic(expected = "--threads must be")]
    fn rejects_zero_threads() {
        BenchArgs::from_iter(sv(&["--threads", "0"]), Scale::Small);
    }

    #[test]
    fn parses_flags() {
        let a = BenchArgs::from_iter(
            sv(&["--scale", "paper", "--seed", "7", "--runs", "3", "--full", "--out", "/tmp/x"]),
            Scale::Small,
        );
        assert_eq!(a.scale, Scale::Paper);
        assert_eq!(a.seed, 7);
        assert_eq!(a.runs, 3);
        assert!(a.full);
        assert_eq!(a.out_dir, std::path::PathBuf::from("/tmp/x"));
    }

    #[test]
    #[should_panic(expected = "unknown scale")]
    fn rejects_bad_scale() {
        BenchArgs::from_iter(sv(&["--scale", "galactic"]), Scale::Small);
    }
}
