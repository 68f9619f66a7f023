//! Pricing objectives: what statistic of the per-user revenue
//! distribution a solve maximizes.
//!
//! Classical bundle pricing (and the source paper) maximizes **expected**
//! revenue. Heavy-tailed markets (van Eck–Kleer–van Leeuwaarden 2025) make
//! that fragile: with infinite-variance valuations the mean is dominated
//! by a handful of extreme consumers, so a robust seller may prefer a
//! lower **quantile** or **CVaR** of revenue instead. [`Objective`] makes
//! that choice a first-class parameter threaded through pricing
//! ([`crate::pricing::optimize_with`]) and — as a field of
//! [`crate::params::Params`], hence of
//! [`crate::params::Params::fingerprint`] — every configurator's market
//! and every solve-cache key.
//!
//! # Scoring model
//!
//! Fix a bundle at price `p` with `m` interested users (finite positive
//! WTP) of whom `buyers` adopt (expected adopters under the adoption
//! model). Pool the per-user payment into the two-point empirical
//! distribution `X ∈ {p w.p. buyers/m, 0 otherwise}` and score the bundle
//! by `m · stat(X)` so every objective lives on the same revenue scale:
//!
//! * `Mean` — `m·E[X] = p·buyers`, exactly the paper's Eq. 2.
//! * `Cvar(q)` — `m` times the average of the **lowest** `q`-fraction of
//!   payments: `p · max(0, buyers − (1−q)·m) / q`. A pessimist's revenue:
//!   the zeros of the non-adopters are charged against the bundle first.
//! * `Quantile(q)` — `m` times the lower `q`-quantile of `X`: `p·m` when
//!   strictly more than a `(1−q)` fraction adopt (`m − buyers < q·m`),
//!   else `0`. Maximizing it maximizes price subject to serving at least
//!   a `(1−q)` share of the interested users.
//!
//! `Cvar(1.0)` reduces to `Mean` **bit-for-bit** (`(buyers − 0.0)/1.0` is
//! an f64 identity), pinned by proptest; the mean-revenue arm of every
//! scorer is textually today's expression, so `Objective::Mean` solves
//! are bit-identical to the pre-objective API.

/// The revenue statistic a pricing solve maximizes. See the module docs
/// for exact semantics; the default is [`Objective::Mean`].
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum Objective {
    /// Expected revenue (the paper's objective). The default.
    #[default]
    Mean,
    /// Lower `q`-quantile of the per-user revenue distribution, scaled by
    /// the interested-user count; `q ∈ (0, 1)`.
    Quantile(f64),
    /// Conditional value-at-risk: the mean of the **worst** `q`-fraction
    /// of per-user payments, scaled by the interested-user count;
    /// `q ∈ (0, 1]`. `Cvar(1.0)` is bit-identical to `Mean`.
    Cvar(f64),
}

impl Objective {
    /// Validate the quantile level; called from
    /// [`crate::params::Params::validate`].
    pub fn validate(&self) {
        match *self {
            Objective::Mean => {}
            Objective::Quantile(q) => {
                assert!(
                    q.is_finite() && q > 0.0 && q < 1.0,
                    "quantile level must be in (0,1), got {q}"
                );
            }
            Objective::Cvar(q) => {
                assert!(
                    q.is_finite() && q > 0.0 && q <= 1.0,
                    "CVaR level must be in (0,1], got {q}"
                );
            }
        }
    }

    /// Canonical spelling, parseable by [`Objective::parse`]:
    /// `mean`, `quantile:0.25`, `cvar:0.9`.
    pub fn name(&self) -> String {
        match *self {
            Objective::Mean => "mean".to_string(),
            Objective::Quantile(q) => format!("quantile:{q}"),
            Objective::Cvar(q) => format!("cvar:{q}"),
        }
    }

    /// Filesystem/bench-id safe fragment (no colon): `mean`, `cvar0.9`,
    /// `quantile0.25`.
    pub fn id_fragment(&self) -> String {
        match *self {
            Objective::Mean => "mean".to_string(),
            Objective::Quantile(q) => format!("quantile{q}"),
            Objective::Cvar(q) => format!("cvar{q}"),
        }
    }

    /// Parse `mean` / `cvar:Q` / `quantile:Q` (also accepts the
    /// colon-free [`Objective::id_fragment`] spellings).
    pub fn parse(text: &str) -> Result<Objective, String> {
        let t = text.trim();
        if t.eq_ignore_ascii_case("mean") {
            return Ok(Objective::Mean);
        }
        let (kind, rest) = match t.split_once(':') {
            Some((k, r)) => (k, r),
            None if t.len() > 4 && t[..4].eq_ignore_ascii_case("cvar") => ("cvar", &t[4..]),
            None if t.len() > 8 && t[..8].eq_ignore_ascii_case("quantile") => ("quantile", &t[8..]),
            None => {
                return Err(format!("unknown objective '{t}' (try mean, cvar:0.9, quantile:0.25)"))
            }
        };
        let q: f64 =
            rest.trim().parse().map_err(|_| format!("bad objective level '{rest}' in '{t}'"))?;
        let obj = match kind.to_ascii_lowercase().as_str() {
            "cvar" => Objective::Cvar(q),
            "quantile" => Objective::Quantile(q),
            other => {
                return Err(format!(
                    "unknown objective '{other}' (try mean, cvar:0.9, quantile:0.25)"
                ))
            }
        };
        obj.check()?;
        Ok(obj)
    }

    /// Non-panicking validation (parse paths, spec validation).
    pub fn check(&self) -> Result<(), String> {
        match *self {
            Objective::Mean => Ok(()),
            Objective::Quantile(q) if q.is_finite() && q > 0.0 && q < 1.0 => Ok(()),
            Objective::Quantile(q) => Err(format!("quantile level must be in (0,1), got {q}")),
            Objective::Cvar(q) if q.is_finite() && q > 0.0 && q <= 1.0 => Ok(()),
            Objective::Cvar(q) => Err(format!("CVaR level must be in (0,1], got {q}")),
        }
    }

    /// Fold this objective into a fingerprint. A distinct tag per variant
    /// plus the raw level bits: distinct objectives can never collide, so
    /// a CVaR solve can never hit a cached mean solve
    /// (`crate::params::Params::fingerprint` calls this).
    pub fn write_fingerprint(&self, fp: &mut crate::fingerprint::Fingerprinter) {
        match *self {
            Objective::Mean => fp.write_u32(0),
            Objective::Quantile(q) => {
                fp.write_u32(1);
                fp.write_f64(q);
            }
            Objective::Cvar(q) => {
                fp.write_u32(2);
                fp.write_f64(q);
            }
        }
    }

    /// The effective buyer multiplier: scoring charges `price × base`
    /// where `base` pools the two-point per-user payment distribution
    /// (`m` interested users, `buyers` adopters) through this objective.
    /// For `Mean` this returns `buyers` unchanged — callers that multiply
    /// `price * base` reproduce today's mean-revenue arithmetic bit for
    /// bit — and `Cvar(1.0)` reduces to `buyers` by f64 identities.
    #[inline]
    pub fn base_buyers(&self, buyers: f64, m: f64) -> f64 {
        match *self {
            Objective::Mean => buyers,
            Objective::Cvar(q) => (buyers - (1.0 - q) * m).max(0.0) / q,
            Objective::Quantile(q) => {
                if m - buyers < q * m {
                    m
                } else {
                    0.0
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_round_trips() {
        for obj in [Objective::Mean, Objective::Cvar(0.9), Objective::Quantile(0.25)] {
            assert_eq!(Objective::parse(&obj.name()).unwrap(), obj);
            assert_eq!(Objective::parse(&obj.id_fragment()).unwrap(), obj);
        }
        assert_eq!(Objective::parse("MEAN").unwrap(), Objective::Mean);
        assert_eq!(Objective::parse(" cvar:1 ").unwrap(), Objective::Cvar(1.0));
        assert!(Objective::parse("cvar:0").is_err());
        assert!(Objective::parse("quantile:1").is_err());
        assert!(Objective::parse("median").is_err());
        assert!(Objective::parse("cvar:abc").is_err());
    }

    #[test]
    fn cvar_at_one_is_mean_bitwise() {
        for buyers in [0.0, 1.0, 2.5, 317.0] {
            for m in [1.0, 10.0, 1e6] {
                let mean = Objective::Mean.base_buyers(buyers, m);
                let cvar = Objective::Cvar(1.0).base_buyers(buyers, m);
                assert_eq!(mean.to_bits(), cvar.to_bits());
            }
        }
    }

    #[test]
    fn base_buyers_two_point_semantics() {
        // 10 interested, 4 buy. CVaR 0.8: lowest 8 units hold 6 zeros +
        // 2 payments → 2p/0.8 = 2.5p worth of base.
        let b = Objective::Cvar(0.8).base_buyers(4.0, 10.0);
        assert!((b - 2.5).abs() < 1e-12);
        // CVaR 0.5: lowest 5 units are all zeros (6 non-buyers) → 0.
        assert_eq!(Objective::Cvar(0.5).base_buyers(4.0, 10.0), 0.0);
        // Quantile 0.7: 6 zeros, rank 7 is a payment → base m = 10.
        assert_eq!(Objective::Quantile(0.7).base_buyers(4.0, 10.0), 10.0);
        // Quantile 0.6: rank 6 is still a zero → 0.
        assert_eq!(Objective::Quantile(0.6).base_buyers(4.0, 10.0), 0.0);
    }

    #[test]
    fn fingerprints_separate_variants() {
        let fps: Vec<u64> = [
            Objective::Mean,
            Objective::Cvar(1.0),
            Objective::Cvar(0.9),
            Objective::Quantile(0.9),
            Objective::Quantile(0.5),
        ]
        .iter()
        .map(|o| {
            let mut fp = crate::fingerprint::Fingerprinter::new("obj-test");
            o.write_fingerprint(&mut fp);
            fp.finish()
        })
        .collect();
        for i in 0..fps.len() {
            for j in (i + 1)..fps.len() {
                assert_ne!(fps[i], fps[j], "objectives {i} and {j} collide");
            }
        }
    }

    #[test]
    #[should_panic(expected = "CVaR level")]
    fn validate_rejects_zero_cvar() {
        Objective::Cvar(0.0).validate();
    }

    #[test]
    #[should_panic(expected = "quantile level")]
    fn validate_rejects_unit_quantile() {
        Objective::Quantile(1.0).validate();
    }
}
