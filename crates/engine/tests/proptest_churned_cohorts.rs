//! The production churn composition (`DESIGN.md` §10.5): `LiveEngine`
//! partitions a churned [`MarketLog`] snapshot into activity cohorts. For
//! random churn, every cohort of the snapshot must equal — `==`, content
//! fingerprint, and Mixed Greedy's canonical outcome — the same cohort of
//! a market built cold from the post-churn dense rows.

use proptest::prelude::*;
use revmax_core::algorithms::{Configurator, MixedGreedy};
use revmax_core::market::Market;
use revmax_core::marketlog::{Event, MarketLog};
use revmax_core::params::{Params, Threads};
use revmax_core::wtp::WtpMatrix;
use revmax_engine::activity_labels;
use revmax_engine::report::canon_outcome;

/// A random dense base matrix (2–6 users, 1–4 items, ~3/8 zeros) plus θ.
fn arb_base() -> impl Strategy<Value = (Vec<Vec<f64>>, f64)> {
    fn cell() -> impl Strategy<Value = f64> {
        (0u32..80u32).prop_map(|raw| if raw < 30 { 0.0 } else { raw as f64 * 0.25 })
    }
    (2usize..7, 1usize..5).prop_flat_map(move |(m, n)| {
        (proptest::collection::vec(proptest::collection::vec(cell(), n..=n), m..=m), -10i32..=10)
            .prop_map(|(rows, theta)| (rows, theta as f64 / 100.0))
    })
}

/// Churn ops as seeds resolved modulo the current dimensions: `(selector,
/// user seed, item seed, wtp step)`.
fn arb_ops() -> impl Strategy<Value = Vec<(u32, usize, usize, u32)>> {
    proptest::collection::vec((0u32..10, 0usize..64, 0usize..64, 1u32..60), 0..16)
}

/// Apply one op to the dense model and the log alike; an upsert to a
/// retired id is skipped on both sides.
fn step(
    rows: &mut Vec<Vec<f64>>,
    retired: &mut (Vec<bool>, Vec<bool>),
    log: &mut MarketLog,
    (sel, u, i, w): (u32, usize, usize, u32),
) {
    let (nu, ni) = (rows.len(), rows[0].len());
    let (u, i, w) = (u % nu, i % ni, w as f64 * 0.5);
    let event = match sel {
        0..=3 => {
            if retired.0[u] || retired.1[i] {
                return;
            }
            rows[u][i] = w;
            Event::UpsertWtp { user: u as u32, item: i as u32, wtp: w }
        }
        4..=5 => {
            rows[u][i] = 0.0;
            Event::DeleteWtp { user: u as u32, item: i as u32 }
        }
        6 => {
            rows.push(vec![0.0; ni]);
            retired.0.push(false);
            Event::AddUser
        }
        7 => {
            rows.iter_mut().for_each(|r| r.push(0.0));
            retired.1.push(false);
            Event::AddItem { listed_price: None }
        }
        8 => {
            rows[u].iter_mut().for_each(|x| *x = 0.0);
            retired.0[u] = true;
            Event::RetireUser { user: u as u32 }
        }
        _ => {
            rows.iter_mut().for_each(|r| r[i] = 0.0);
            retired.1[i] = true;
            Event::RetireItem { item: i as u32 }
        }
    };
    log.apply(event).unwrap();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn cohorts_of_a_churned_snapshot_equal_cold_cohorts(
        (rows, theta) in arb_base(),
        ops in arb_ops(),
        k in 1usize..4,
    ) {
        let params = Params::default().with_theta(theta).with_threads(Threads::Fixed(1));
        let mut log = MarketLog::new(Market::new(WtpMatrix::from_rows(rows.clone()), params));
        let mut model = rows.clone();
        let mut retired = (vec![false; rows.len()], vec![false; rows[0].len()]);
        for op in ops {
            step(&mut model, &mut retired, &mut log, op);
        }

        let snapshot = log.snapshot();
        let cold = Market::new(WtpMatrix::from_rows(model), params);
        let k = k.min(cold.n_users());
        let labels = activity_labels(&cold, k);
        prop_assert_eq!(&activity_labels(&snapshot, k), &labels);

        let (warm, cold) = (snapshot.partition_by(&labels), cold.partition_by(&labels));
        prop_assert_eq!(warm.len(), cold.len());
        for (w, c) in warm.iter().zip(&cold) {
            prop_assert_eq!(w.label(), c.label());
            prop_assert!(w.wtp() == c.wtp(), "cohort {:?} content differs", w.label());
            prop_assert_eq!(w.fingerprint(), c.fingerprint());
            prop_assert_eq!(w.total_wtp().to_bits(), c.total_wtp().to_bits());
            prop_assert_eq!(
                canon_outcome(&MixedGreedy::default().run(w)),
                canon_outcome(&MixedGreedy::default().run(c))
            );
        }
    }
}
