//! Market construction shared by all experiment binaries.

use crate::args::Scale;
use revmax_core::prelude::*;
use revmax_dataset::RatingsData;

/// Generate the ratings dataset for a scale/seed.
pub fn dataset(scale: Scale, seed: u64) -> RatingsData {
    scale.config().generate(seed)
}

/// Build the WTP matrix from ratings data under `params` (λ applied per
/// §6.1.1) and wrap it in a market. The ratings stream straight into the
/// dual-CSR builder — no intermediate per-row/per-column vectors.
pub fn market_from(data: &RatingsData, params: Params) -> Market {
    let wtp = WtpMatrix::from_ratings(
        data.n_users(),
        data.n_items(),
        data.triples(),
        data.prices(),
        params.lambda,
    );
    Market::new(wtp, params)
}

/// One-call market for a scale/seed with given params.
pub fn market(scale: Scale, seed: u64, params: Params) -> Market {
    market_from(&dataset(scale, seed), params)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_market_builds() {
        let m = market(Scale::Small, 1, Params::default());
        assert!(m.n_users() > 0);
        assert!(m.n_items() > 0);
        assert!(m.total_wtp() > 0.0);
    }

    #[test]
    fn deterministic() {
        let a = market(Scale::Small, 9, Params::default());
        let b = market(Scale::Small, 9, Params::default());
        assert_eq!(a.total_wtp(), b.total_wtp());
        assert_eq!(a.n_items(), b.n_items());
    }
}
