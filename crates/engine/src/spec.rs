//! The sweep specification: a grid over configurators, scales, seeds, the
//! market axes of [`AXES`], and a cohort-partition axis, plus execution
//! knobs and shape gates.
//!
//! Specs parse from a tiny hand-rolled `key=value` format (values CSV) so
//! the `sweep` binary needs no external dependencies (vendor policy):
//!
//! ```text
//! # one key=value per line (or per CLI argument); '#' starts a comment
//! methods=all            # or CSV of method names / snake aliases; also
//!                        # `proposed` and the listed-price baseline
//!                        # `components_listed_prices` (Table 2)
//! scales=small           # tiny|small|medium|paper (CSV)
//! seeds=2015,2015        # generator seeds; repeats are legal — the solve
//!                        # cache collapses the duplicate cells
//! thetas=0,0.05          # bundling coefficients θ
//! dists=rating,pareto    # WTP magnitudes: rating|pareto|lognormal
//! tails=4,2,1.5          # tail knobs (α for pareto, σ for lognormal),
//!                        # crossed with every heavy-tailed dist
//! objectives=mean,cvar:0.9  # pricing objective (mean|cvar:Q|quantile:Q)
//! lambdas=1,1.25         # rating→WTP conversion factor λ
//! caps=1,2,unlimited     # maximum bundle size k
//! biases=0.9,1.1         # adoption bias α
//! levels=10,100          # grid price levels T
//! pricing=exact,grid     # price search: exact candidates or the T-level grid
//! cohorts=3              # 0 = whole market only; k ≥ 1 adds k activity
//!                        # cohorts alongside the whole-market cell
//! repeat=5               # timing repetitions per unique solve
//! budget_ms=40           # keep repeating short solves until this much
//!                        # measured time accumulates (0 = off) — wall
//!                        # clock only, results are unaffected
//! cache=on               # on|off — fingerprint-keyed solve cache
//! threads=auto           # engine fan-out (auto = REVMAX_THREADS / cores)
//! gate=up:coverage:caps  # a shape gate, one per line (see `gate.rs`)
//! ```
//!
//! A market axis left unset keeps the paper default (Table 3).

use crate::gate::Gate;
use revmax_core::algorithms::{self, Components, Configurator};
use revmax_core::prelude::{Objective, Params, SizeCap, Threads};
use revmax_core::pricing::PriceMode;
use revmax_dataset::{AmazonBooksConfig, TailDist};

/// Dataset scale presets for the sweep axes. `Tiny` is an
/// engine-test-only preset (a few dozen consumers, fast in debug builds);
/// the other three mirror the experiment harness presets.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ScaleSpec {
    Tiny,
    Small,
    Medium,
    Paper,
}

impl ScaleSpec {
    /// Lower-case name (spec syntax and report rendering).
    pub fn name(&self) -> &'static str {
        match self {
            ScaleSpec::Tiny => "tiny",
            ScaleSpec::Small => "small",
            ScaleSpec::Medium => "medium",
            ScaleSpec::Paper => "paper",
        }
    }

    /// Parse a spec-syntax scale name.
    pub fn parse(s: &str) -> Result<Self, String> {
        match s.trim() {
            "tiny" => Ok(ScaleSpec::Tiny),
            "small" => Ok(ScaleSpec::Small),
            "medium" => Ok(ScaleSpec::Medium),
            "paper" => Ok(ScaleSpec::Paper),
            other => Err(format!("unknown scale '{other}' (tiny|small|medium|paper)")),
        }
    }

    /// The generator configuration behind this preset.
    pub fn config(&self) -> AmazonBooksConfig {
        match self {
            ScaleSpec::Tiny => AmazonBooksConfig {
                n_users: 48,
                n_items: 24,
                min_degree: 3,
                mean_extra_degree: 4.0,
                ..AmazonBooksConfig::small()
            },
            ScaleSpec::Small => AmazonBooksConfig::small(),
            ScaleSpec::Medium => AmazonBooksConfig::medium(),
            ScaleSpec::Paper => AmazonBooksConfig::paper(),
        }
    }
}

/// A fully-resolved WTP distribution of one sweep cell: the rating map or
/// a heavy-tailed magnitude redraw with its tail knob bound
/// ([`revmax_dataset::heavytail`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum WtpDist {
    /// λ-linear rating→WTP map (the paper's default).
    Rating,
    /// Pareto magnitudes with tail index `alpha` (smaller = heavier).
    Pareto { alpha: f64 },
    /// Lognormal magnitudes with log-scale `sigma` (larger = heavier).
    LogNormal { sigma: f64 },
}

impl WtpDist {
    /// Parse a spec-syntax dist kind. A heavy-tailed kind's knob is NaN
    /// until the `tails` axis binds it.
    fn parse_kind(s: &str) -> Result<Self, String> {
        match s {
            "rating" => Ok(WtpDist::Rating),
            "pareto" => Ok(WtpDist::Pareto { alpha: f64::NAN }),
            "lognormal" => Ok(WtpDist::LogNormal { sigma: f64::NAN }),
            other => Err(format!("unknown dist '{other}' (rating|pareto|lognormal)")),
        }
    }

    /// Spec-syntax kind name.
    fn kind(&self) -> &'static str {
        match self {
            WtpDist::Rating => "rating",
            WtpDist::Pareto { .. } => "pareto",
            WtpDist::LogNormal { .. } => "lognormal",
        }
    }

    /// The tail knob (`None` for the rating map).
    fn tail(&self) -> Option<f64> {
        match *self {
            WtpDist::Rating => None,
            WtpDist::Pareto { alpha } => Some(alpha),
            WtpDist::LogNormal { sigma } => Some(sigma),
        }
    }

    /// Filesystem/bench-id safe fragment (no separators): `rating`,
    /// `pareto2`, `lognormal1.5`. Doubles as the report-table label.
    pub fn id_fragment(&self) -> String {
        match self.tail() {
            None => self.kind().to_string(),
            Some(t) => format!("{}{t}", self.kind()),
        }
    }

    /// The heavy-tail sampler behind this dist (`None` for the rating map).
    pub fn tail_dist(&self) -> Option<TailDist> {
        match *self {
            WtpDist::Rating => None,
            WtpDist::Pareto { alpha } => Some(TailDist::Pareto { alpha }),
            WtpDist::LogNormal { sigma } => Some(TailDist::LogNormal { sigma }),
        }
    }
}

/// Everything the Market stage needs besides the dataset: the model
/// parameters, the WTP distribution, and the price-search mode. Every
/// sweep cell's market is built from one recipe
/// ([`crate::market_from_recipe`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Recipe {
    pub params: Params,
    pub dist: WtpDist,
    pub pricing: PriceMode,
}

impl Default for Recipe {
    /// Paper defaults with inner solves pinned to 1 thread (the engine
    /// owns the fan-out — `DESIGN.md` §8), rating WTPs, exact pricing.
    fn default() -> Self {
        Recipe {
            params: Params::default().with_threads(Threads::Fixed(1)),
            dist: WtpDist::Rating,
            pricing: PriceMode::Exact,
        }
    }
}

impl Recipe {
    /// Separator-joined bench-id path of the recipe: the θ fragment, then
    /// the fragment of every other axis whose value differs from the
    /// default — so rating/mean/paper-default ids stay byte-identical to
    /// the committed `perf_check` baselines (`sweep_small/theta0/…`).
    /// Distinct recipes have distinct ids (the DAG's market key).
    pub fn id(&self) -> String {
        let default = Recipe::default();
        let mut parts = Vec::new();
        for (k, axis) in AXES.iter().enumerate() {
            let fragment = (axis.fragment)(self);
            if k == 0 || fragment != (axis.fragment)(&default) {
                parts.push(fragment);
            }
        }
        parts.join("/")
    }
}

/// One market axis of the spec: its key, how one value token sets the
/// recipe, the recipe's value in spec syntax (gate matching and
/// grouping), and its bench-id fragment.
pub struct Axis {
    pub key: &'static str,
    /// Parse one value token onto a recipe (range-checked).
    pub set: fn(&mut Recipe, &str) -> Result<(), String>,
    /// The recipe's value on this axis; empty when the axis does not apply
    /// (a tail knob on the rating map).
    pub value: fn(&Recipe) -> String,
    /// Separator-free bench-id fragment of the recipe's value.
    pub fragment: fn(&Recipe) -> String,
}

fn num<T: std::str::FromStr>(what: &str, s: &str) -> Result<T, String> {
    s.parse().map_err(|_| format!("{what} '{s}' is not a number"))
}

/// Parse a number that must satisfy `ok`.
fn knob<T: std::str::FromStr + Copy>(what: &str, s: &str, ok: fn(T) -> bool) -> Result<T, String> {
    let v = num(what, s)?;
    if ok(v) {
        Ok(v)
    } else {
        Err(format!("{what} '{s}' is out of range"))
    }
}

/// The market axes in grid order, outermost first. The first three rows
/// and `objectives` are the original sweep axes, so every spec written
/// before the table existed expands to the same cells in the same order.
pub static AXES: [Axis; 9] = [
    Axis {
        key: "thetas",
        set: |r, s| knob("theta", s, |t: f64| t > -1.0).map(|t| r.params.theta = t),
        value: |r| r.params.theta.to_string(),
        fragment: |r| format!("theta{}", r.params.theta),
    },
    Axis {
        key: "dists",
        set: |r, s| WtpDist::parse_kind(s).map(|d| r.dist = d),
        value: |r| r.dist.kind().to_string(),
        fragment: |r| r.dist.id_fragment(),
    },
    Axis {
        key: "tails",
        set: |r, s| {
            let t = num("tail", s)?;
            r.dist = match r.dist {
                WtpDist::Rating => WtpDist::Rating,
                WtpDist::Pareto { .. } => WtpDist::Pareto { alpha: t },
                WtpDist::LogNormal { .. } => WtpDist::LogNormal { sigma: t },
            };
            r.dist.tail_dist().map_or(Ok(()), |td| td.validate())
        },
        value: |r| r.dist.tail().map_or(String::new(), |t| t.to_string()),
        // Carried by the dist fragment (`pareto2`).
        fragment: |_| String::new(),
    },
    Axis {
        key: "objectives",
        set: |r, s| Objective::parse(s).map(|o| r.params.objective = o),
        value: |r| r.params.objective.id_fragment(),
        fragment: |r| r.params.objective.id_fragment(),
    },
    Axis {
        key: "lambdas",
        set: |r, s| knob("lambda", s, |l: f64| l >= 1.0).map(|l| r.params.lambda = l),
        value: |r| r.params.lambda.to_string(),
        fragment: |r| format!("lambda{}", r.params.lambda),
    },
    Axis {
        key: "caps",
        set: |r, s| {
            r.params.size_cap = match s {
                "unlimited" => SizeCap::Unlimited,
                _ => SizeCap::AtMost(knob("cap", s, |k: usize| k >= 1)?),
            };
            Ok(())
        },
        value: |r| r.params.size_cap.limit().map_or("unlimited".into(), |k| k.to_string()),
        fragment: |r| format!("k{}", (AXES[5].value)(r)),
    },
    Axis {
        key: "biases",
        set: |r, s| {
            knob("bias", s, |b: f64| b > 0.0 && b.is_finite()).map(|b| r.params.adoption_bias = b)
        },
        value: |r| r.params.adoption_bias.to_string(),
        fragment: |r| format!("bias{}", r.params.adoption_bias),
    },
    Axis {
        key: "levels",
        set: |r, s| knob("levels", s, |t: usize| t >= 1).map(|t| r.params.price_levels = t),
        value: |r| r.params.price_levels.to_string(),
        fragment: |r| format!("T{}", r.params.price_levels),
    },
    Axis {
        key: "pricing",
        set: |r, s| {
            r.pricing = match s {
                "exact" => PriceMode::Exact,
                "grid" => PriceMode::Grid,
                other => return Err(format!("pricing '{other}' (expected exact|grid)")),
            };
            Ok(())
        },
        value: |r| if r.pricing == PriceMode::Grid { "grid" } else { "exact" }.into(),
        fragment: |r| (AXES[8].value)(r),
    },
];

/// Index into [`AXES`] of a key (or its singular spelling, e.g. `theta`).
pub fn axis_index(key: &str) -> Option<usize> {
    AXES.iter().position(|a| a.key == key || a.key.strip_suffix('s') == Some(key))
}

/// A batch sweep: the grid axes plus execution knobs. Axis values are
/// kept verbatim — **duplicates are legal** (e.g. a repeated seed) and are
/// collapsed by the job DAG and the solve cache rather than rejected, so a
/// spec can deliberately exercise the cache.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepSpec {
    /// Canonical method names ([`resolve_method`]).
    pub methods: Vec<String>,
    /// Dataset scales.
    pub scales: Vec<ScaleSpec>,
    /// Generator seeds.
    pub seeds: Vec<u64>,
    /// Value tokens of each market axis, parallel to [`AXES`]; an empty
    /// list keeps that knob at its default ([`SweepSpec::recipes`]).
    pub axes: Vec<Vec<String>>,
    /// `0` solves the whole market only; `k ≥ 1` additionally partitions
    /// each market into `k` activity cohorts (balanced by rating count)
    /// and solves every cohort, so per-segment menus can be compared
    /// against the whole-market menu.
    pub cohorts: usize,
    /// Timing repetitions per unique solve (the report keeps min/mean/max).
    pub repeat: usize,
    /// Measurement budget per unique solve, in milliseconds. When > 0, a
    /// solve keeps repeating beyond `repeat` until this much measured time
    /// accumulates (capped at [`crate::MAX_TIMED_REPS`]), criterion-style,
    /// so microsecond-scale solves report warm means a `perf_check`
    /// comparison against a criterion baseline can trust. Wall clock only
    /// — the solved outcomes are bit-identical with the budget on or off.
    pub budget_ms: u64,
    /// Fingerprint-keyed solve cache on/off.
    pub cache: bool,
    /// Engine fan-out (the per-solve inner thread count is pinned to 1 —
    /// `DESIGN.md` §8's no-nested-fan-out rule).
    pub threads: Threads,
    /// Shape gates checked over the finished report ([`crate::gate`]).
    pub gates: Vec<Gate>,
}

impl Default for SweepSpec {
    /// All seven registry methods, small scale, seed 2015, every market
    /// axis at its default (θ = 0, rating WTPs, mean objective, …), whole
    /// market only, one repetition, cache on, auto fan-out, no gates.
    fn default() -> Self {
        SweepSpec {
            methods: algorithms::registry().iter().map(|(n, _)| n.to_string()).collect(),
            scales: vec![ScaleSpec::Small],
            seeds: vec![2015],
            axes: vec![Vec::new(); AXES.len()],
            cohorts: 0,
            repeat: 1,
            budget_ms: 0,
            cache: true,
            threads: Threads::Auto,
            gates: Vec::new(),
        }
    }
}

/// Lower-case alphanumeric normal form used to match method aliases
/// (`pure_matching`, `Pure Matching`, `pure-matching` all agree).
fn norm(s: &str) -> String {
    s.chars().filter(|c| c.is_alphanumeric()).flat_map(char::to_lowercase).collect()
}

/// Resolve one method name (canonical or snake/kebab alias) to its
/// canonical name: a registry method, or the listed-price `Components`
/// baseline that [`algorithms::by_name`] resolves outside the registry.
pub fn resolve_method(name: &str) -> Result<String, String> {
    let mut known: Vec<&str> = algorithms::registry().iter().map(|(n, _)| *n).collect();
    known.push(Components::listed().name());
    match known.iter().find(|k| norm(k) == norm(name)) {
        Some(k) => Ok(k.to_string()),
        None => Err(format!("unknown method '{name}' (known: {})", known.join(", "))),
    }
}

/// The spec's non-axis keys, for [`unknown_key`]'s listing.
const OTHER_KEYS: [&str; 9] =
    ["methods", "scales", "seeds", "cohorts", "repeat", "budget_ms", "cache", "threads", "gate"];

impl SweepSpec {
    /// Apply one `key=value` assignment (spec-file line or CLI argument).
    /// `gate` appends a gate (`gate=none` clears them); every other key
    /// replaces its axis or knob.
    pub fn apply(&mut self, key: &str, value: &str) -> Result<(), String> {
        let csv = || value.split(',').map(str::trim).filter(|s| !s.is_empty());
        if let Some(k) = axis_index(key) {
            let tokens: Vec<String> = csv().map(String::from).collect();
            if tokens.is_empty() {
                return Err(format!("{} needs at least one value", AXES[k].key));
            }
            for t in &tokens {
                (AXES[k].set)(&mut Recipe::default(), t)?;
            }
            self.axes[k] = tokens;
            return Ok(());
        }
        match key {
            "methods" => {
                let mut out = Vec::new();
                for m in csv() {
                    match m {
                        "all" => {
                            out.extend(algorithms::registry().iter().map(|(n, _)| n.to_string()))
                        }
                        "proposed" => out.extend(
                            ["Pure Matching", "Pure Greedy", "Mixed Matching", "Mixed Greedy"]
                                .iter()
                                .map(|s| s.to_string()),
                        ),
                        other => out.push(resolve_method(other)?),
                    }
                }
                self.methods = out;
            }
            "scale" | "scales" => {
                self.scales = csv().map(ScaleSpec::parse).collect::<Result<_, _>>()?;
            }
            "seed" | "seeds" => {
                self.seeds = csv().map(|s| num("seed", s)).collect::<Result<_, _>>()?;
            }
            "cohorts" => self.cohorts = num("cohorts", value)?,
            "repeat" => self.repeat = num("repeat", value)?,
            "budget_ms" => self.budget_ms = num("budget_ms", value)?,
            "cache" => {
                self.cache = match value {
                    "on" | "true" | "1" => true,
                    "off" | "false" | "0" => false,
                    other => return Err(format!("cache '{other}' (expected on|off)")),
                };
            }
            "threads" => {
                self.threads = if value == "auto" {
                    Threads::Auto
                } else {
                    let n: usize = num("threads", value)?;
                    if n == 0 {
                        return Err("threads must be >= 1".into());
                    }
                    Threads::Fixed(n)
                };
            }
            "gate" if value == "none" => self.gates.clear(),
            "gate" => self.gates.push(Gate::parse(value)?),
            other => {
                let known: Vec<&str> =
                    OTHER_KEYS.iter().chain(AXES.iter().map(|a| &a.key)).copied().collect();
                return Err(unknown_key("spec key", other, &known));
            }
        }
        Ok(())
    }

    /// Apply a whole spec text: one `key=value` per line, `#` comments and
    /// blank lines ignored.
    pub fn apply_text(&mut self, text: &str) -> Result<(), String> {
        for (lineno, raw) in text.lines().enumerate() {
            let line = raw.split('#').next().unwrap_or("").trim();
            if line.is_empty() {
                continue;
            }
            let (key, value) = line
                .split_once('=')
                .ok_or_else(|| format!("line {}: expected key=value, got '{line}'", lineno + 1))?;
            self.apply(key.trim(), value.trim())
                .map_err(|e| format!("line {}: {e}", lineno + 1))?;
        }
        Ok(())
    }

    /// The grid's market recipes: the product of the [`AXES`] in table
    /// order (first axis outermost, tokens in spec order), starting from
    /// [`Recipe::default`]. A token that does not apply to a recipe (a
    /// tail knob on the rating map) leaves it alone instead of
    /// multiplying it, so `dists=rating,pareto tails=4,2` yields
    /// `rating, pareto4, pareto2`.
    pub fn recipes(&self) -> Result<Vec<Recipe>, String> {
        let mut out = vec![Recipe::default()];
        for (axis, tokens) in AXES.iter().zip(&self.axes) {
            let mut next = Vec::new();
            for &r in &out {
                let before = next.len();
                for t in tokens {
                    let mut c = r;
                    (axis.set)(&mut c, t)?;
                    if !(axis.value)(&c).is_empty() {
                        next.push(c);
                    }
                }
                if next.len() == before {
                    next.push(r);
                }
            }
            out = next;
        }
        Ok(out)
    }

    /// Check the spec is runnable: non-empty axes, valid recipes,
    /// `repeat ≥ 1`.
    pub fn validate(&self) -> Result<(), String> {
        if self.methods.is_empty() {
            return Err("no methods selected".into());
        }
        for m in &self.methods {
            resolve_method(m)?;
        }
        if self.scales.is_empty() || self.seeds.is_empty() {
            return Err("every axis (scales, seeds) needs at least one value".into());
        }
        for r in self.recipes()? {
            if r.dist.tail().is_some_and(f64::is_nan) {
                return Err(
                    "heavy-tailed dists (pareto, lognormal) need at least one tail value".into()
                );
            }
        }
        if self.repeat == 0 {
            return Err("repeat must be >= 1".into());
        }
        self.threads.validate();
        Ok(())
    }
}

/// Edit (Levenshtein) distance between two keys.
pub fn edit_distance(a: &str, b: &str) -> usize {
    let a: Vec<char> = a.chars().collect();
    let b: Vec<char> = b.chars().collect();
    let mut prev: Vec<usize> = (0..=b.len()).collect();
    let mut cur = vec![0usize; b.len() + 1];
    for (i, &ca) in a.iter().enumerate() {
        cur[0] = i + 1;
        for (j, &cb) in b.iter().enumerate() {
            let sub = prev[j] + usize::from(ca != cb);
            cur[j + 1] = sub.min(prev[j + 1] + 1).min(cur[j] + 1);
        }
        std::mem::swap(&mut prev, &mut cur);
    }
    prev[b.len()]
}

/// Error text for an unrecognized key (`what` is e.g. `"spec key"`):
/// names the key, lists the accepted keys, and suggests the closest known
/// key within edit distance 2 (dropped letters and near-miss spellings,
/// never nonsense suggestions for garbage input). Shared by the sweep
/// spec and every bench binary's `key=value` front door.
pub fn unknown_key(what: &str, key: &str, known: &[&str]) -> String {
    let suggestion = known
        .iter()
        .map(|k| (edit_distance(key, k), *k))
        .min()
        .filter(|&(d, _)| d <= 2)
        .map(|(_, k)| format!(" (did you mean '{k}'?)"))
        .unwrap_or_default();
    format!("unknown {what} '{key}'{suggestion}; known keys: {}", known.join(", "))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The recipes' values on one axis.
    fn values(spec: &SweepSpec, key: &str) -> Vec<String> {
        let a = &AXES[axis_index(key).unwrap()];
        spec.recipes().unwrap().iter().map(|r| (a.value)(r)).collect()
    }

    #[test]
    fn defaults_cover_all_seven_methods() {
        let spec = SweepSpec::default();
        assert_eq!(spec.methods.len(), 7);
        spec.validate().unwrap();
        assert_eq!(spec.recipes().unwrap(), vec![Recipe::default()]);
    }

    #[test]
    fn method_aliases_resolve() {
        assert_eq!(resolve_method("pure_matching").unwrap(), "Pure Matching");
        assert_eq!(resolve_method("Mixed Greedy").unwrap(), "Mixed Greedy");
        assert_eq!(resolve_method("mixed-freqitemset").unwrap(), "Mixed FreqItemset");
        assert_eq!(
            resolve_method("components_listed_prices").unwrap(),
            "Components (listed prices)"
        );
        assert!(resolve_method("no such").is_err());
    }

    #[test]
    fn apply_parses_every_key() {
        let mut spec = SweepSpec::default();
        spec.apply("methods", "components,pure_matching").unwrap();
        spec.apply("scales", "tiny,small").unwrap();
        spec.apply("thetas", "0,-0.05,0.1").unwrap();
        spec.apply("seeds", "2015,2015").unwrap();
        spec.apply("lambdas", "1,2").unwrap();
        spec.apply("caps", "2,unlimited").unwrap();
        spec.apply("biases", "0.9").unwrap();
        spec.apply("levels", "25").unwrap();
        spec.apply("pricing", "grid").unwrap();
        spec.apply("cohorts", "3").unwrap();
        spec.apply("repeat", "5").unwrap();
        spec.apply("budget_ms", "40").unwrap();
        spec.apply("cache", "off").unwrap();
        spec.apply("threads", "4").unwrap();
        spec.apply("gate", "up:coverage:caps").unwrap();
        assert_eq!(spec.methods, vec!["Components", "Pure Matching"]);
        assert_eq!(spec.scales, vec![ScaleSpec::Tiny, ScaleSpec::Small]);
        assert_eq!(spec.seeds, vec![2015, 2015]); // duplicates preserved
        assert_eq!(spec.cohorts, 3);
        assert_eq!(spec.repeat, 5);
        assert_eq!(spec.budget_ms, 40);
        assert!(!spec.cache);
        assert_eq!(spec.threads, Threads::Fixed(4));
        assert_eq!(spec.gates.len(), 1);
        spec.validate().unwrap();
        // θ outermost, then λ, then k (table order); singleton axes inert.
        let r = spec.recipes().unwrap();
        assert_eq!(r.len(), 3 * 2 * 2);
        assert_eq!(r[1].params.size_cap, SizeCap::Unlimited);
        assert_eq!(r[2].params.lambda, 2.0);
        assert_eq!(r[4].params.theta, -0.05);
        assert!(r.iter().all(|r| r.params.adoption_bias == 0.9
            && r.params.price_levels == 25
            && r.pricing == PriceMode::Grid));
        assert_eq!(r[0].id(), "theta0/lambda1/k2/bias0.9/T25/grid");
        assert_eq!(r[1].id(), "theta0/lambda1/bias0.9/T25/grid"); // unlimited is the default
        spec.apply("gate", "none").unwrap();
        assert!(spec.gates.is_empty());
    }

    #[test]
    fn spec_text_with_comments_parses() {
        let mut spec = SweepSpec::default();
        spec.apply_text("# demo sweep\nmethods=all\n\nthetas=0,0.05 # complements too\ncache=on\n")
            .unwrap();
        assert_eq!(spec.methods.len(), 7);
        assert_eq!(values(&spec, "thetas"), vec!["0", "0.05"]);
    }

    #[test]
    fn bad_inputs_error_with_context() {
        let mut spec = SweepSpec::default();
        assert!(spec.apply("thetas", "abc").is_err());
        assert!(spec.apply("thetas", "-1.5").is_err());
        assert!(spec.apply("caps", "0").is_err());
        assert!(spec.apply("lambdas", "0.5").is_err());
        assert!(spec.apply("biases", "0").is_err());
        assert!(spec.apply("levels", "0").is_err());
        assert!(spec.apply("pricing", "fuzzy").is_err());
        assert!(spec.apply("nope", "1").is_err());
        assert!(spec.apply_text("methods").is_err());
        assert!(spec.apply("threads", "0").is_err());
        // A directly-edited axis is still checked when expanded.
        spec.axes[0] = vec!["-1.5".into()];
        assert!(spec.validate().is_err());
    }

    #[test]
    fn dist_tail_and_objective_axes_parse_and_expand() {
        let mut spec = SweepSpec::default();
        spec.apply("dists", "rating,pareto,lognormal").unwrap();
        spec.apply("tails", "4,1.5").unwrap();
        spec.apply("objectives", "mean,cvar:0.9,quantile:0.25").unwrap();
        let recipes = spec.recipes().unwrap();
        let dists: Vec<WtpDist> = recipes.iter().step_by(3).map(|r| r.dist).collect();
        assert_eq!(
            dists,
            vec![
                WtpDist::Rating,
                WtpDist::Pareto { alpha: 4.0 },
                WtpDist::Pareto { alpha: 1.5 },
                WtpDist::LogNormal { sigma: 4.0 },
                WtpDist::LogNormal { sigma: 1.5 },
            ]
        );
        assert_eq!(
            recipes[..3].iter().map(|r| r.params.objective).collect::<Vec<_>>(),
            vec![Objective::Mean, Objective::Cvar(0.9), Objective::Quantile(0.25)]
        );
        assert_eq!(recipes[4].id(), "theta0/pareto4/cvar0.9");
        spec.validate().unwrap();
    }

    #[test]
    fn heavy_dists_require_tails_and_valid_knobs() {
        let mut spec = SweepSpec::default();
        spec.apply("dists", "pareto").unwrap();
        assert!(spec.validate().unwrap_err().contains("tail"));
        spec.apply("tails", "-2").unwrap();
        assert!(spec.validate().is_err());
        spec.apply("tails", "2").unwrap();
        spec.validate().unwrap();
        // Defaults carry no tails, and that must stay valid (rating only).
        assert!(SweepSpec::default().axes[2].is_empty());
        SweepSpec::default().validate().unwrap();
    }

    #[test]
    fn bad_objectives_are_rejected_at_parse_and_validate() {
        let mut spec = SweepSpec::default();
        assert!(spec.apply("objective", "cvar:1.5").is_err());
        assert!(spec.apply("objective", "median").is_err());
        assert!(spec.apply("objectives", "").unwrap_err().contains("objectives"));
        spec.axes[3] = vec!["quantile:0".into()];
        assert!(spec.validate().is_err());
    }

    #[test]
    fn unknown_keys_get_a_did_you_mean_suggestion() {
        let mut spec = SweepSpec::default();
        let err = spec.apply("objektives", "mean").unwrap_err();
        assert!(err.contains("unknown spec key 'objektives'"), "{err}");
        assert!(err.contains("did you mean 'objectives'?"), "{err}");
        assert!(err.contains("known keys:"), "{err}");
        let err = spec.apply("completely_bogus_xyz", "1").unwrap_err();
        assert!(!err.contains("did you mean"), "{err}");
    }

    #[test]
    fn dist_fragments_are_separator_free() {
        assert_eq!(WtpDist::Rating.id_fragment(), "rating");
        assert_eq!(WtpDist::Pareto { alpha: 2.0 }.id_fragment(), "pareto2");
        assert_eq!(WtpDist::LogNormal { sigma: 1.5 }.id_fragment(), "lognormal1.5");
        assert!(WtpDist::Rating.tail_dist().is_none());
        assert_eq!(
            WtpDist::Pareto { alpha: 2.0 }.tail_dist(),
            Some(TailDist::Pareto { alpha: 2.0 })
        );
    }

    #[test]
    fn tiny_scale_generates_quickly_and_nonempty() {
        let data = ScaleSpec::Tiny.config().generate(7);
        assert!(data.n_users() >= ScaleSpec::Tiny.config().min_degree);
        assert!(data.n_items() > 0);
    }
}
