//! Shape gates: the paper's qualitative claims as checks over a finished
//! sweep, so a figure's "expected shape" fails CI instead of only being
//! printed.
//!
//! One gate per `gate=` spec line:
//!
//! ```text
//! up|down|flat:<metric>:<axis>           monotone along <axis>, in spec order
//! le|eq:<metric>:<axis>:<a>:<b>          cell at <a> ≤ / = cell at <b>
//! ...@<axis>=<v>[|<v>…]                  only cells at these values (repeatable)
//! tail                                   = up:kupfer:tails
//! ```
//!
//! `<metric>` is `coverage`, `gain`, `revenue` or `kupfer`; `<axis>` is
//! `methods` or a market axis key ([`crate::spec::AXES`]); `<a>`/`<b>`
//! accept `|`-separated alternatives and the spec's value syntax
//! (objectives in their colon-free form, `cvar0.9`). Gates look at
//! whole-market cells only. A comparison runs between cells equal on
//! every other axis (scale, seed, method, every other market axis), with
//! a relative tolerance of 1e-9. A gate that compares nothing fails.

use crate::dag::Cohort;
use crate::report::{CellResult, SweepReport};
use crate::spec::{axis_index, resolve_method, Recipe, WtpDist, AXES};

/// Reads one metric off a cell.
type Metric = fn(&CellResult) -> f64;

/// The metrics a gate can compare, by name.
const METRICS: [(&str, Metric); 4] = [
    ("coverage", |c| c.coverage),
    ("gain", |c| c.gain),
    ("revenue", |c| c.revenue),
    ("kupfer", |c| c.kupfer),
];

/// One parsed shape gate.
#[derive(Debug, Clone, PartialEq)]
pub struct Gate {
    /// The gate as written (failure messages name it).
    pub text: String,
    /// `up`, `down`, `flat`, `le` or `eq`.
    kind: &'static str,
    /// Index into [`METRICS`].
    metric: usize,
    axis: String,
    a: Vec<String>,
    b: Vec<String>,
    filters: Vec<(String, Vec<String>)>,
}

/// The value of `cell` on `axis` (`methods` or a market axis key).
fn value(cell: &CellResult, axis: &str) -> String {
    match axis_index(axis) {
        Some(k) => (AXES[k].value)(&cell.recipe),
        None => cell.method.clone(),
    }
}

/// Normalize a `|`-separated value list to the form [`value`] renders.
fn values(axis: &str, list: &str) -> Result<Vec<String>, String> {
    let Some(k) = axis_index(axis) else {
        return list.split('|').map(|m| resolve_method(m.trim())).collect();
    };
    // A heavy-tailed probe, so a `tails` token has a knob to bind.
    let probe = Recipe { dist: WtpDist::Pareto { alpha: 1.0 }, ..Recipe::default() };
    list.split('|')
        .map(|t| {
            let mut r = probe;
            (AXES[k].set)(&mut r, t.trim())?;
            Ok((AXES[k].value)(&r))
        })
        .collect()
}

/// The canonical key of a gate axis.
fn check_axis(axis: &str) -> Result<String, String> {
    match axis_index(axis) {
        Some(k) => Ok(AXES[k].key.to_string()),
        None if axis == "methods" => Ok(axis.to_string()),
        None => Err(format!("gate axis '{axis}' is not methods or a market axis")),
    }
}

impl Gate {
    /// Parse one gate (see the module docs for the syntax).
    pub fn parse(text: &str) -> Result<Gate, String> {
        let text = text.trim();
        if text == "tail" {
            return Ok(Gate { text: text.into(), ..Gate::parse("up:kupfer:tails")? });
        }
        let bad = || {
            format!(
                "unknown gate '{text}' (expected tail, none, up|down|flat:<metric>:<axis>, or \
                 le|eq:<metric>:<axis>:<a>:<b>, each optionally @<axis>=<v>|<v>)"
            )
        };
        let mut sections = text.split('@');
        let head: Vec<&str> = sections.next().unwrap_or("").split(':').map(str::trim).collect();
        let kind = ["up", "down", "flat", "le", "eq"].into_iter().find(|k| *k == head[0]);
        let metric = METRICS.iter().position(|(name, _)| Some(name) == head.get(1));
        let (Some(kind), Some(metric)) = (kind, metric) else { return Err(bad()) };
        let axis = check_axis(head.get(2).ok_or_else(bad)?)?;
        let (a, b) = match (kind, head.len()) {
            ("le" | "eq", 5) => (values(&axis, head[3])?, values(&axis, head[4])?),
            ("up" | "down" | "flat", 3) => (Vec::new(), Vec::new()),
            _ => return Err(bad()),
        };
        let filters = sections
            .map(|f| {
                let (ax, list) = f.split_once('=').ok_or_else(bad)?;
                let ax = check_axis(ax.trim())?;
                Ok((ax.clone(), values(&ax, list)?))
            })
            .collect::<Result<_, String>>()?;
        Ok(Gate { text: text.into(), kind, metric, axis, a, b, filters })
    }

    /// Cells equal on every axis but the gate's share a key.
    fn group_key(&self, c: &CellResult) -> String {
        let mut key = format!("{} {}", c.scale.name(), c.seed);
        if self.axis != "methods" {
            key += &format!(" {}", c.method);
        }
        for a in AXES.iter().filter(|a| a.key != self.axis) {
            key += &format!(" {}", (a.value)(&c.recipe));
        }
        key
    }

    /// Check the gate over `report`: a one-line summary, or the first
    /// violation naming the gate, the axis values and the two cells.
    pub fn check(&self, report: &SweepReport) -> Result<String, String> {
        let mut groups: Vec<(String, Vec<&CellResult>)> = Vec::new();
        for c in report.cells.iter().filter(|c| c.cohort == Cohort::Whole) {
            if !self.filters.iter().all(|(ax, vs)| vs.contains(&value(c, ax))) {
                continue;
            }
            let key = self.group_key(c);
            match groups.iter_mut().find(|(k, _)| *k == key) {
                Some((_, g)) => g.push(c),
                None => groups.push((key, vec![c])),
            }
        }
        let (name, metric) = METRICS[self.metric];
        let le = |x: f64, y: f64| x <= y + 1e-9 * x.abs().max(y.abs());
        let mut compared = 0usize;
        for (_, g) in &groups {
            // Monotone gates walk the curve; le/eq pair every a-cell with every b-cell.
            let pairs: Vec<(&CellResult, &CellResult)> = if self.a.is_empty() {
                g.windows(2).map(|w| (w[0], w[1])).collect()
            } else {
                let at = |vs: &Vec<String>| -> Vec<&CellResult> {
                    g.iter().copied().filter(|c| vs.contains(&value(c, &self.axis))).collect()
                };
                let bs = at(&self.b);
                at(&self.a).into_iter().flat_map(|x| bs.iter().map(move |&y| (x, y))).collect()
            };
            for (x, y) in pairs {
                compared += 1;
                let (u, v) = (metric(x), metric(y));
                let ok = match self.kind {
                    "up" | "le" => le(u, v),
                    "down" => le(v, u),
                    _ => le(u, v) && le(v, u),
                };
                if !ok {
                    let cell = |c: &CellResult| {
                        format!(
                            "{} at {}={} [{} {} seed={} {}]",
                            metric(c),
                            self.axis,
                            value(c, &self.axis),
                            c.method,
                            c.scale.name(),
                            c.seed,
                            c.recipe.id()
                        )
                    };
                    return Err(format!(
                        "gate '{}' FAILED: {} {} vs {}",
                        self.text,
                        name,
                        cell(x),
                        cell(y)
                    ));
                }
            }
        }
        if compared == 0 {
            return Err(format!("gate '{}' FAILED: it matched no pair of cells", self.text));
        }
        Ok(format!("gate OK: {} ({compared} comparisons)\n", self.text))
    }
}

/// Check every gate; all summaries on success, every failure otherwise.
pub fn check_all(gates: &[Gate], report: &SweepReport) -> Result<String, String> {
    let results: Vec<Result<String, String>> = gates.iter().map(|g| g.check(report)).collect();
    let failed: Vec<String> = results.iter().filter_map(|r| r.clone().err()).collect();
    if failed.is_empty() {
        Ok(results.into_iter().flatten().collect())
    } else {
        Err(failed.join("\n"))
    }
}
