//! Property suite for the unified `Objective` API (DESIGN.md §13):
//!
//! * `Objective::Mean` is **bit-identical** to the pre-objective solver —
//!   a market built from `Params` that never name an objective and one
//!   built with `Params::with_objective(Mean)` agree bit for bit across
//!   all seven configurators and thread counts 1/2/8;
//! * `Cvar(1.0)` degenerates to the mean bit for bit on finite markets
//!   (the `(buyers − 0)·max/1.0` identities, pinned end to end);
//! * robust (CVaR/quantile) solves are thread-count invariant — the §6
//!   determinism contract extends to every objective;
//! * distinct objectives separate `Params` fingerprints pairwise, so a
//!   CVaR solve can never hit a cached mean solve.

use proptest::prelude::*;
use revmax_core::algorithms::registry;
use revmax_core::market::Market;
use revmax_core::objective::Objective;
use revmax_core::params::Params;
use revmax_core::prelude::Threads;
use revmax_core::wtp::WtpMatrix;

/// Random dense markets with at least one positive WTP, θ ∈ [−0.1, 0.15].
fn arb_market() -> impl Strategy<Value = (Vec<Vec<f64>>, f64)> {
    fn cell() -> impl Strategy<Value = f64> {
        (0u32..60u32).prop_map(|raw| if raw < 20 { 0.0 } else { raw as f64 * 0.5 })
    }
    (2usize..7, 1usize..5)
        .prop_flat_map(move |(m, n)| {
            (
                proptest::collection::vec(proptest::collection::vec(cell(), n..=n), m..=m),
                -10i32..=15,
            )
                .prop_map(|(rows, theta)| (rows, theta as f64 / 100.0))
        })
        .prop_filter("needs sellable content", |(rows, _)| rows.iter().flatten().any(|&w| w > 0.0))
}

/// Quantile levels safely inside (0, 1).
fn arb_q() -> impl Strategy<Value = f64> {
    (1u32..=19).prop_map(|k| k as f64 / 20.0)
}

fn market(rows: &[Vec<f64>], theta: f64, threads: usize, objective: Objective) -> Market {
    Market::new(
        WtpMatrix::from_rows(rows.to_vec()),
        Params::default()
            .with_theta(theta)
            .with_threads(Threads::Fixed(threads))
            .with_objective(objective),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn mean_objective_is_bit_identical_to_the_legacy_path((rows, theta) in arb_market()) {
        for threads in [1usize, 2, 8] {
            let legacy = Market::new(
                WtpMatrix::from_rows(rows.clone()),
                Params::default().with_theta(theta).with_threads(Threads::Fixed(threads)),
            );
            let mean = market(&rows, theta, threads, Objective::Mean);
            prop_assert_eq!(legacy.fingerprint(), mean.fingerprint());
            for (name, c) in registry() {
                let a = c.run(&legacy);
                let b = c.run(&mean);
                prop_assert_eq!(
                    a.revenue.to_bits(), b.revenue.to_bits(),
                    "{} at {} threads", name, threads
                );
                prop_assert_eq!(&a.config, &b.config, "{} at {} threads", name, threads);
            }
        }
    }

    #[test]
    fn cvar_at_one_degenerates_to_mean_bit_for_bit((rows, theta) in arb_market()) {
        for threads in [1usize, 2, 8] {
            let mean = market(&rows, theta, threads, Objective::Mean);
            let cvar1 = market(&rows, theta, threads, Objective::Cvar(1.0));
            for (name, c) in registry() {
                let a = c.run(&mean);
                let b = c.run(&cvar1);
                prop_assert_eq!(
                    a.revenue.to_bits(), b.revenue.to_bits(),
                    "{} at {} threads", name, threads
                );
                prop_assert_eq!(&a.config, &b.config, "{} at {} threads", name, threads);
            }
        }
    }

    #[test]
    fn robust_solves_are_thread_count_invariant((rows, theta) in arb_market(), q in arb_q()) {
        for objective in [Objective::Cvar(q), Objective::Quantile(q)] {
            let reference = market(&rows, theta, 1, objective);
            let reference: Vec<_> =
                registry().into_iter().map(|(n, c)| (n, c.run(&reference))).collect();
            for threads in [2usize, 8] {
                let m = market(&rows, theta, threads, objective);
                for ((name, base), (_, c)) in reference.iter().zip(registry()) {
                    let again = c.run(&m);
                    prop_assert_eq!(
                        base.revenue.to_bits(), again.revenue.to_bits(),
                        "{} under {:?} at {} threads", name, objective, threads
                    );
                    prop_assert_eq!(
                        &base.config, &again.config,
                        "{} under {:?} at {} threads", name, objective, threads
                    );
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn objectives_separate_fingerprints_pairwise(qa in arb_q(), qb in arb_q()) {
        let mut objectives = vec![
            Objective::Mean,
            Objective::Cvar(1.0),
            Objective::Cvar(qa),
            Objective::Quantile(qa),
        ];
        if qb != qa {
            objectives.push(Objective::Cvar(qb));
            objectives.push(Objective::Quantile(qb));
        }
        let fps: Vec<u64> = objectives
            .iter()
            .map(|&o| Params::default().with_objective(o).fingerprint())
            .collect();
        for i in 0..objectives.len() {
            for j in (i + 1)..objectives.len() {
                prop_assert_ne!(
                    fps[i], fps[j],
                    "{:?} and {:?} must fingerprint apart", objectives[i], objectives[j]
                );
            }
        }
    }
}
