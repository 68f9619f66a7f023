//! # revmax — revenue-maximizing bundle configuration
//!
//! Facade crate re-exporting the `revmax` workspace: a from-scratch Rust
//! reproduction of *Mining Revenue-Maximizing Bundling Configuration*
//! (Do, Lauw, Wang — PVLDB 8(5), 2015).
//!
//! The workspace is organised as one crate per subsystem:
//!
//! * [`core`] ([`revmax_core`]) — the paper's contribution: willingness-to-pay
//!   modelling, the stochastic adoption model, optimal single-bundle pricing,
//!   and the pure/mixed bundle-configuration algorithms (matching-based and
//!   greedy) plus every baseline the paper evaluates against, including
//!   the `Optimal` and `Greedy WSP` weighted-set-packing comparators of
//!   Section 5.2/6.4 (`core::wsp`), and the one menu evaluator
//!   (`core::eval`) behind solver-side and served revenue.
//! * [`matching`] ([`revmax_matching`]) — maximum-weight matching on general
//!   graphs (Edmonds' blossom algorithm), the substrate behind the optimal
//!   2-sized configuration and Algorithm 1.
//! * [`fim`] ([`revmax_fim`]) — maximal frequent itemset mining
//!   (MAFIA-style), the substrate behind the `FreqItemset` baselines.
//! * [`dataset`] ([`revmax_dataset`]) — a seeded synthetic stand-in for the
//!   paper's (unavailable) Amazon Books ratings crawl, plus loaders for real
//!   data.
//! * [`par`] ([`revmax_par`]) — deterministic parallel execution primitives
//!   (`std::thread::scope`, no dependencies); results are bit-identical
//!   regardless of the thread count (`DESIGN.md` §6).
//! * [`engine`] ([`revmax_engine`]) — the sharded multi-market sweep
//!   engine: grids over (configurator × partition × θ × scale × seed)
//!   expand into a job DAG, execute on `par` under the same determinism
//!   contract, and collapse repeated cells through a fingerprint-keyed
//!   solve cache (`DESIGN.md` §8).
//! * [`serve`] ([`revmax_serve`]) — the batched menu-serving layer: a
//!   solved configuration compiles (through `core::eval`) into a flat,
//!   `Arc`-shared `MenuIndex` answering `assign` / `expected_revenue` queries for millions of
//!   consumers, bit-identically at any thread count (`DESIGN.md` §9).
//!
//! ## Quickstart
//!
//! ```
//! use revmax::core::prelude::*;
//!
//! // Table 1 of the paper: two items, three consumers, theta = -0.05.
//! let w = WtpMatrix::from_rows(vec![
//!     vec![12.0, 4.0],
//!     vec![8.0, 2.0],
//!     vec![5.0, 11.0],
//! ]);
//! let params = Params::default().with_theta(-0.05);
//! let market = Market::new(w, params);
//!
//! let mixed = MixedMatching::default().run(&market);
//! assert!(mixed.revenue() > 27.0); // beats the $27 Components baseline
//! ```
pub use revmax_core as core;
pub use revmax_dataset as dataset;
pub use revmax_engine as engine;
pub use revmax_fim as fim;
pub use revmax_matching as matching;
pub use revmax_par as par;
pub use revmax_serve as serve;

/// Library version, mirroring the workspace version.
pub const VERSION: &str = env!("CARGO_PKG_VERSION");
