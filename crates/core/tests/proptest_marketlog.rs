//! Property tests for the event-sourced churn log (`DESIGN.md` §10):
//!
//! 1. **Replay ≡ rebuild**: a random event stream applied through a
//!    [`MarketLog`] snapshots bit-for-bit like a `Market` rebuilt from
//!    scratch on the stream's net content — every row, every column, the
//!    totals, and the content fingerprint. Re-applying the events the
//!    test recorded onto the same base reproduces the snapshot exactly.
//! 2. **Rebuild identity**: the cold-rebuild oracle
//!    ([`WtpMatrix::compact`]) of a snapshot changes no read and no
//!    content fingerprint.
//! 3. **Separation/collision**: every effective event either changes the
//!    snapshot's content or (retiring an empty row or column) makes a
//!    later upsert to it refused, and equivalent histories (same net
//!    effect through different event sequences) snapshot to equal content.

use proptest::prelude::*;
use revmax_core::market::Market;
use revmax_core::marketlog::{Event, MarketLog};
use revmax_core::params::Params;
use revmax_core::wtp::WtpMatrix;

/// A random dense base matrix (unpriced) plus θ.
fn arb_base() -> impl Strategy<Value = (Vec<Vec<f64>>, f64)> {
    fn cell() -> impl Strategy<Value = f64> {
        (0u32..80u32).prop_map(|raw| if raw < 30 { 0.0 } else { raw as f64 * 0.25 })
    }
    (1usize..5, 1usize..5).prop_flat_map(move |(m, n)| {
        (proptest::collection::vec(proptest::collection::vec(cell(), n..=n), m..=m), -10i32..=10)
            .prop_map(|(rows, theta)| (rows, theta as f64 / 100.0))
    })
}

/// An abstract churn op; indices are seeds resolved modulo the current
/// dimensions at apply time, so every generated stream is valid.
#[derive(Debug, Clone, Copy)]
enum Op {
    Upsert { u: usize, i: usize, w: f64 },
    Delete { u: usize, i: usize },
    AddUser,
    AddItem,
    RetireUser { u: usize },
    RetireItem { i: usize },
}

fn arb_ops() -> impl Strategy<Value = Vec<Op>> {
    // Weighted selector: upserts most common, structural events rarer.
    let op = (0u32..10, 0usize..64, 0usize..64, 1u32..60).prop_map(|(sel, u, i, w)| match sel {
        0..=3 => Op::Upsert { u, i, w: w as f64 * 0.5 },
        4..=5 => Op::Delete { u, i },
        6 => Op::AddUser,
        7 => Op::AddItem,
        8 => Op::RetireUser { u },
        _ => Op::RetireItem { i },
    });
    proptest::collection::vec(op, 0..12)
}

/// Dense reference model mirroring what the log's snapshot must read,
/// plus the events it applied, in order (the log keeps no history).
struct Model {
    rows: Vec<Vec<f64>>,
    retired_users: Vec<bool>,
    retired_items: Vec<bool>,
    applied: Vec<Event>,
}

impl Model {
    fn new(rows: &[Vec<f64>]) -> Model {
        Model {
            retired_users: vec![false; rows.len()],
            retired_items: vec![false; rows[0].len()],
            rows: rows.to_vec(),
            applied: Vec::new(),
        }
    }

    /// Apply `op` to both the model and the log, recording the event;
    /// returns false if the op had no valid target (retired id) and was
    /// skipped.
    fn step(&mut self, log: &mut MarketLog, op: Op) -> Result<bool, String> {
        let (nu, ni) = (self.rows.len(), self.rows[0].len());
        let event = match op {
            Op::Upsert { u, i, w } => {
                let (u, i) = (u % nu, i % ni);
                if self.retired_users[u] || self.retired_items[i] {
                    return Ok(false);
                }
                self.rows[u][i] = w;
                Event::UpsertWtp { user: u as u32, item: i as u32, wtp: w }
            }
            Op::Delete { u, i } => {
                let (u, i) = (u % nu, i % ni);
                self.rows[u][i] = 0.0;
                Event::DeleteWtp { user: u as u32, item: i as u32 }
            }
            Op::AddUser => {
                self.rows.push(vec![0.0; ni]);
                self.retired_users.push(false);
                Event::AddUser
            }
            Op::AddItem => {
                for r in &mut self.rows {
                    r.push(0.0);
                }
                self.retired_items.push(false);
                Event::AddItem { listed_price: None }
            }
            Op::RetireUser { u } => {
                let u = u % nu;
                self.rows[u].iter_mut().for_each(|w| *w = 0.0);
                self.retired_users[u] = true;
                Event::RetireUser { user: u as u32 }
            }
            Op::RetireItem { i } => {
                let i = i % ni;
                self.rows.iter_mut().for_each(|r| r[i] = 0.0);
                self.retired_items[i] = true;
                Event::RetireItem { item: i as u32 }
            }
        };
        log.apply(event)?;
        self.applied.push(event);
        Ok(true)
    }
}

/// Every read of `a` must be bit-identical to `b`: dimensions, totals,
/// every row, every column, and the content fingerprint.
fn assert_reads_identical(a: &Market, b: &Market) {
    let (wa, wb) = (a.wtp(), b.wtp());
    prop_assert_eq!(wa.n_users(), wb.n_users());
    prop_assert_eq!(wa.n_items(), wb.n_items());
    prop_assert_eq!(wa.nnz(), wb.nnz());
    prop_assert_eq!(wa.total_wtp().to_bits(), wb.total_wtp().to_bits());
    for u in 0..wa.n_users() as u32 {
        let (ra, rb) = (wa.row(u), wb.row(u));
        prop_assert_eq!(ra.ids, rb.ids, "row {} ids", u);
        let (va, vb): (Vec<u64>, Vec<u64>) = (
            ra.values.iter().map(|w| w.to_bits()).collect(),
            rb.values.iter().map(|w| w.to_bits()).collect(),
        );
        prop_assert_eq!(va, vb, "row {} values", u);
    }
    for i in 0..wa.n_items() as u32 {
        let (ca, cb) = (wa.col(i), wb.col(i));
        prop_assert_eq!(ca.ids, cb.ids, "col {} ids", i);
        let (va, vb): (Vec<u64>, Vec<u64>) = (
            ca.values.iter().map(|w| w.to_bits()).collect(),
            cb.values.iter().map(|w| w.to_bits()).collect(),
        );
        prop_assert_eq!(va, vb, "col {} values", i);
    }
    prop_assert_eq!(a.fingerprint(), b.fingerprint());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn replay_reads_like_a_from_scratch_rebuild((rows, theta) in arb_base(), ops in arb_ops()) {
        let base = Market::new(WtpMatrix::from_rows(rows.clone()), Params::default().with_theta(theta));
        let mut log = MarketLog::new(base.clone());
        let mut model = Model::new(&rows);
        for op in ops {
            model.step(&mut log, op).unwrap();
        }

        // The snapshot reads bit-for-bit like a market rebuilt from the
        // model's dense content.
        let snapshot = log.snapshot();
        let rebuilt = Market::new(
            WtpMatrix::from_rows(model.rows.clone()),
            Params::default().with_theta(theta),
        );
        assert_reads_identical(&snapshot, &rebuilt);

        // Re-applying the recorded events onto the same base reproduces
        // the snapshot exactly.
        let mut replayed = MarketLog::new(base);
        replayed.apply_batch(model.applied.iter().copied()).unwrap();
        assert_reads_identical(&replayed.snapshot(), &snapshot);
    }

    #[test]
    fn compaction_is_identity_on_reads((rows, theta) in arb_base(), ops in arb_ops()) {
        let base = Market::new(WtpMatrix::from_rows(rows.clone()), Params::default().with_theta(theta));
        let mut log = MarketLog::new(base);
        let mut model = Model::new(&rows);
        for op in ops {
            model.step(&mut log, op).unwrap();
        }
        let snapshot = log.snapshot();
        let rebuilt = snapshot.with_wtp(snapshot.wtp().compact());
        assert_reads_identical(&rebuilt, &snapshot);
    }

    #[test]
    fn every_effective_event_changes_the_snapshot_or_refuses_upserts(
        (rows, theta) in arb_base(),
    ) {
        let base = Market::new(WtpMatrix::from_rows(rows.clone()), Params::default().with_theta(theta));
        let log = MarketLog::new(base);
        let fp0 = log.snapshot().fingerprint();

        // Each event type, applied to a fresh clone, changes the content.
        let (nu, ni) = (rows.len() as u32, rows[0].len() as u32);
        let mut variants: Vec<(&str, Event)> = vec![
            ("add_user", Event::AddUser),
            ("add_item", Event::AddItem { listed_price: None }),
            ("upsert", Event::UpsertWtp { user: 0, item: 0, wtp: rows[0][0] + 1.0 }),
        ];
        // A delete only takes effect when the cell exists.
        if let Some((u, i)) = (0..nu)
            .flat_map(|u| (0..ni).map(move |i| (u, i)))
            .find(|&(u, i)| rows[u as usize][i as usize] > 0.0)
        {
            variants.push(("delete", Event::DeleteWtp { user: u, item: i }));
        }
        let mut fps: Vec<(&str, u64)> = vec![("untouched", fp0)];
        for (name, event) in variants {
            let mut l = log.clone();
            l.apply(event).unwrap();
            let fp = l.snapshot().fingerprint();
            for (other, prev) in &fps {
                prop_assert_ne!(fp, *prev, "{} must separate from {}", name, other);
            }
            fps.push((name, fp));
        }

        // A retirement drops a non-empty row/column from the content; on
        // an empty one the content stays and a later upsert is refused.
        let (u, i) = (nu - 1, ni - 1);
        let row_empty = rows[u as usize].iter().all(|&w| w == 0.0);
        let col_empty = rows.iter().all(|r| r[i as usize] == 0.0);
        for (name, event, empty) in [
            ("retire_user", Event::RetireUser { user: u }, row_empty),
            ("retire_item", Event::RetireItem { item: i }, col_empty),
        ] {
            let mut l = log.clone();
            l.apply(event).unwrap();
            let fp = l.snapshot().fingerprint();
            if empty {
                prop_assert_eq!(fp, fp0, "{} of an empty slice keeps the content", name);
            } else {
                prop_assert_ne!(fp, fp0, "{} must change the content", name);
            }
            let upsert = Event::UpsertWtp { user: u, item: i, wtp: 1.0 };
            prop_assert!(l.apply(upsert).is_err(), "{}: a later upsert must be refused", name);
        }
    }

    #[test]
    fn equivalent_histories_collide(
        (rows, theta) in arb_base(),
        w1 in 1u32..40,
        w2 in 41u32..80,
    ) {
        let base = Market::new(WtpMatrix::from_rows(rows.clone()), Params::default().with_theta(theta));
        let (w1, w2) = (w1 as f64 * 0.5, w2 as f64 * 0.5);

        // Overwriting an override ≡ writing the final value directly: the
        // histories differ, the content agrees.
        let history_a = [
            Event::UpsertWtp { user: 0, item: 0, wtp: w1 },
            Event::UpsertWtp { user: 0, item: 0, wtp: w2 },
        ];
        let history_b = [Event::UpsertWtp { user: 0, item: 0, wtp: w2 }];
        let mut a = MarketLog::new(base.clone());
        a.apply_batch(history_a).unwrap();
        let mut b = MarketLog::new(base.clone());
        b.apply_batch(history_b).unwrap();
        let untouched = MarketLog::new(base.clone()).snapshot().fingerprint();
        prop_assert_eq!(a.snapshot().fingerprint(), b.snapshot().fingerprint());
        prop_assert_ne!(history_a.len(), history_b.len(), "histories differ, content agrees");

        // Upserting the base's own content (bit-equal) cancels: ≡ untouched.
        if rows[0][0] > 0.0 {
            let mut c = MarketLog::new(base.clone());
            c.apply(Event::UpsertWtp { user: 0, item: 0, wtp: w1 }).unwrap();
            c.apply(Event::UpsertWtp { user: 0, item: 0, wtp: rows[0][0] }).unwrap();
            prop_assert_eq!(c.snapshot().fingerprint(), untouched);
        }

        // Upsert-then-delete of a base-absent cell ≡ untouched.
        if rows[0][0] == 0.0 {
            let mut d = MarketLog::new(base.clone());
            d.apply(Event::UpsertWtp { user: 0, item: 0, wtp: w1 }).unwrap();
            d.apply(Event::DeleteWtp { user: 0, item: 0 }).unwrap();
            prop_assert_eq!(d.snapshot().fingerprint(), untouched);
        }
    }
}
