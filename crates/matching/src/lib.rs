//! # revmax-matching — maximum-weight matching on general graphs
//!
//! The optimal 2-sized bundle configuration of *Mining Revenue-Maximizing
//! Bundling Configuration* (VLDB'15, Section 5.1) reduces to maximum-weight
//! matching: items are vertices, candidate size-2 bundles are edges weighted
//! by bundle revenue, and singleton bundles are self-loops. The paper uses
//! the LEMON library's Edmonds implementation; this crate provides the same
//! capability from scratch.
//!
//! The solver is a port of the O(V³) formulation of Edmonds' blossom
//! algorithm described in Galil's survey (*Efficient algorithms for finding
//! maximum matching in graphs*, ACM Computing Surveys 1986), following the
//! well-known reference implementation by Joris van Rantwijk
//! (`mwmatching.py`, also the basis of NetworkX's `max_weight_matching`).
//!
//! ## Exactness
//!
//! Edge weights are `i64`. Internally every weight is doubled and dual
//! variables are kept as `f64`; because all intermediate quantities are
//! dyadic rationals with denominators ≤ 4 and magnitudes far below 2⁵²,
//! every addition, subtraction, halving, and comparison the algorithm
//! performs is **exact** — there is no floating-point drift. Callers with
//! `f64` revenues use [`max_weight_matching_f64`], which scales to integer
//! micro-units first.
//!
//! ## Self-loops and "gain graphs"
//!
//! A matching never contains self-loops, but the bundling reduction needs
//! them (a vertex may keep its singleton bundle). [`gain::GainGraph`]
//! implements the standard transformation: score each pair edge by its
//! *gain* over the two self-loops and add the self-loop mass back after
//! matching. Vertices left unmatched keep their self-loop.
//!
//! ```
//! use revmax_matching::max_weight_matching;
//!
//! // A triangle plus a pendant: the best matching picks the two disjoint
//! // edges 0-1 (weight 6) and 2-3 (weight 5), not the heavy edge 1-2.
//! let m = max_weight_matching(4, &[(0, 1, 6), (1, 2, 8), (0, 2, 1), (2, 3, 5)]);
//! assert_eq!(m.weight, 11);
//! assert_eq!(m.mate[0], Some(1));
//! assert_eq!(m.mate[2], Some(3));
//! ```

mod blossom;
pub mod gain;
pub mod reference;

pub use blossom::{max_weight_matching, max_weight_matching_f64, Matching};

/// Scale factor used by [`max_weight_matching_f64`]: weights are rounded to
/// micro-units, so revenues agree with the exact integer optimum to 1e-6.
pub const F64_SCALE: f64 = 1_000_000.0;
