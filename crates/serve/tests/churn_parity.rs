//! End-to-end churn parity (`DESIGN.md` §10, the PR's tentpole guarantee):
//! apply a ~1% churn batch through the `MarketLog`, re-solve incrementally
//! (`LiveEngine` over the log's snapshot), compile the serving index and
//! hot-swap it — and get **bit-identical** serving results to the cold
//! path (rebuild the arena, solve everything from scratch, compile a
//! fresh index).

use revmax_core::marketlog::{Event, MarketLog};
use revmax_core::prelude::*;
use revmax_engine::{market_from_data, Cohort, LiveEngine, ScaleSpec};
use revmax_serve::{MenuIndex, ServeHandle};

fn tiny_market() -> Market {
    market_from_data(&ScaleSpec::Tiny.config().generate(2015), 0.05)
}

/// A deterministic ~1% churn batch: bump the first-rated item of every
/// 100th consumer (at least one).
fn churn_batch(market: &Market) -> Vec<Event> {
    let w = market.wtp();
    let n = market.n_users();
    let step = 100.min(n).max(1);
    (0..n)
        .step_by(step)
        .filter_map(|u| {
            let row = w.row(u as u32);
            row.ids.first().map(|&item| Event::UpsertWtp {
                user: u as u32,
                item,
                wtp: row.values[0] * 1.25,
            })
        })
        .collect()
}

#[test]
fn incremental_churn_serves_bit_identical_to_cold_rebuild() {
    let market = tiny_market();
    let methods = &["components", "mixed_greedy"];

    // Warm path: retained engine + live serve handle.
    let mut live = LiveEngine::new(methods, 2).unwrap();
    let initial = live.resolve(&market).unwrap();
    let initial_whole = &initial.cells[0];
    assert_eq!(initial_whole.cohort, Cohort::Whole);
    let handle = ServeHandle::new(MenuIndex::compile(&market, &initial_whole.outcome.config));
    let gen0 = handle.generation();

    // Churn ~1% of consumers through the log.
    let mut log = MarketLog::new(market);
    let batch = churn_batch(log.base());
    assert!(!batch.is_empty());
    log.apply_batch(batch.iter().copied()).unwrap();
    let churned = log.snapshot();

    // Incremental re-solve: untouched cohorts must hit the retained cache.
    let inc = live.resolve(&churned).unwrap();
    assert!(inc.stats.hits + inc.stats.misses == inc.cells.len());
    let inc_whole = &inc.cells[0];
    let inc_index = MenuIndex::compile(&churned, &inc_whole.outcome.config);
    handle.swap(inc_index);
    assert_eq!(handle.generation(), gen0 + 1);

    // Cold path: rebuild the arena, solve everything from scratch.
    let cold_market = churned.with_wtp(churned.wtp().compact());
    assert_eq!(
        cold_market.fingerprint(),
        churned.fingerprint(),
        "a rebuild must preserve the content fingerprint"
    );
    let mut cold_engine = LiveEngine::new(methods, 2).unwrap();
    let cold = cold_engine.resolve(&cold_market).unwrap();
    assert_eq!(cold.stats.hits, 0);

    // Engine parity: every cell bit-identical (fingerprints, revenues,
    // diagnostics, full configurations).
    assert_eq!(inc.canonical(), cold.canonical());

    // Serve parity: the swapped index answers every query bit-identically
    // to a cold-compiled index over the rebuilt market.
    let cold_index = MenuIndex::compile(&cold_market, &cold.cells[0].outcome.config);
    let served = handle.current();
    assert_eq!(
        served.expected_revenue_all().to_bits(),
        cold_index.expected_revenue_all().to_bits()
    );
    let users: Vec<u32> = (0..churned.n_users() as u32).collect();
    let a = served.assign(&users);
    let b = cold_index.assign(&users);
    assert_eq!(a.len(), b.len());
    for (x, y) in a.iter().zip(&b) {
        assert_eq!(format!("{x:?}"), format!("{y:?}"));
    }
}
