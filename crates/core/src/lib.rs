//! # revmax-core — revenue-maximizing bundle configuration
//!
//! From-scratch Rust implementation of *Mining Revenue-Maximizing Bundling
//! Configuration* (Do, Lauw, Wang — PVLDB 8(5), 2015): given a matrix of
//! consumers' willingness to pay (WTP) mined from preference data, find the
//! partition (pure bundling) or subsumption family (mixed bundling) of the
//! item set that maximizes total revenue, where each bundle is priced
//! optimally against a (possibly stochastic) adoption model.
//!
//! ## Model (Sections 3–4 of the paper)
//!
//! * **WTP**: [`wtp::WtpMatrix`] holds `w[u][i] ≥ 0`, either given
//!   directly or mined from star ratings via the λ-linear map of §6.1.1
//!   ([`wtp::WtpMatrix::from_ratings`]). Storage is a flat dual-CSR arena
//!   shared across clones; per-segment sub-markets
//!   ([`market::MarketView`], `DESIGN.md` §7) are arenas of their own.
//! * **Bundle WTP** (Eq. 1): `w_{u,b} = (1+θ)·Σ_{i∈b} w_{u,i}` for
//!   `|b| ≥ 2`; singletons are the raw item WTP.
//! * **Adoption** (Eq. 6): [`adoption::AdoptionModel`] — sigmoid
//!   `σ(γ(α·w − p + ε))`; `γ → ∞` recovers the classical step rule
//!   "buy iff `w ≥ p`".
//! * **Pricing** (§4.2): [`pricing`] searches `T` discretized price levels
//!   (default 100) against a bucketed consumer histogram, `O(M)` per bundle.
//! * **Mixed bundling** (§4.2): incremental policy — components are priced
//!   first, a bundle's price is confined to
//!   `(max component price, Σ component prices)` and consumers upgrade only
//!   when the implicit price of the add-on does not exceed its WTP.
//! * **Evaluation**: [`eval`] compiles a priced menu into flat node
//!   tables and evaluates what every consumer pays, block by block under
//!   the §6 determinism contract. It is the one menu evaluator:
//!   [`config::BundleConfig::expected_revenue`] and every serving query
//!   run it, so their revenues agree to the bit.
//!
//! ## Algorithms (Section 5)
//!
//! | paper name | type |
//! |------------|------|
//! | Components | [`algorithms::Components`] |
//! | Pure/Mixed Matching (Alg. 1) | [`algorithms::PureMatching`], [`algorithms::MixedMatching`] |
//! | Pure/Mixed Greedy (Alg. 2) | [`algorithms::PureGreedy`], [`algorithms::MixedGreedy`] |
//! | Pure/Mixed FreqItemset (§6.1.3 baseline) | [`algorithms::PureFreqItemset`], [`algorithms::MixedFreqItemset`] |
//! | Optimal / Greedy WSP (§5.2) | [`wsp`] |
//!
//! All seven comparative methods are listed — once — by
//! [`algorithms::registry`], with by-name lookup via
//! [`algorithms::by_name`].
//!
//! All configurators revert to `Components` when bundling cannot help, so
//! their revenue never drops below the non-bundling baseline — the
//! guarantee the paper leans on throughout §6.
//!
//! ## Quickstart
//!
//! ```
//! use revmax_core::prelude::*;
//!
//! // Table 1 of the paper: 3 consumers, 2 items, theta = -0.05.
//! let w = WtpMatrix::from_rows(vec![
//!     vec![12.0, 4.0],
//!     vec![8.0, 2.0],
//!     vec![5.0, 11.0],
//! ]);
//! let market = Market::new(w, Params::default().with_theta(-0.05));
//!
//! let components = Components::optimal().run(&market);
//! let mixed = MixedMatching::default().run(&market);
//! assert!((components.revenue() - 27.0).abs() < 1e-6);
//! // Mixed bundling beats Components ($32.00 under the paper's §4.2
//! // upgrade semantics; see EXPERIMENTS.md for the Table 1 discussion).
//! assert!(mixed.revenue() > components.revenue());
//! ```

pub mod adoption;
pub mod algorithms;
pub mod bundle;
pub mod config;
pub mod eval;
pub mod fingerprint;
pub mod market;
pub mod marketlog;
pub mod metrics;
pub mod mixed;
pub mod objective;
pub mod params;
pub mod pricing;
pub mod trace;
pub mod wsp;
pub mod wtp;

/// One-stop imports for typical use.
pub mod prelude {
    pub use crate::adoption::AdoptionModel;
    pub use crate::algorithms::{
        registry, Components, Configurator, MixedFreqItemset, MixedGreedy, MixedMatching,
        PureFreqItemset, PureGreedy, PureMatching,
    };
    pub use crate::bundle::Bundle;
    pub use crate::config::{BundleConfig, Outcome, Strategy};
    pub use crate::market::{Market, MarketView};
    pub use crate::marketlog::{Event, MarketLog};
    pub use crate::metrics::{revenue_coverage, revenue_gain};
    pub use crate::objective::Objective;
    pub use crate::params::{Params, SizeCap, Threads};
    pub use crate::wtp::WtpMatrix;
}
