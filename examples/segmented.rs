//! Per-segment bundling: partition the market into consumer cohorts with
//! `Market::partition_by`, solve each `MarketView` with the same
//! configurators as the whole market, and compare.
//!
//! Segment-tailored configurations can only help: each segment gets its
//! own bundle menu and prices, so the summed revenue dominates the single
//! whole-market menu (third-degree price discrimination on top of
//! bundling). Each view is a small arena of its segment's rows, so a
//! segment solve reads exactly what a market built for it would.
//!
//! ```sh
//! cargo run --release --example segmented
//! ```

use revmax::core::prelude::*;
use revmax::dataset::AmazonBooksConfig;

fn main() {
    let data = AmazonBooksConfig::small().generate(2015);
    let params = Params::default().with_theta(0.05);
    let wtp = WtpMatrix::from_ratings(
        data.n_users(),
        data.n_items(),
        data.triples(),
        data.prices(),
        params.lambda,
    );
    let market = Market::new(wtp, params);
    println!(
        "market: {} consumers x {} items, total WTP ${:.2}",
        market.n_users(),
        market.n_items(),
        market.total_wtp()
    );

    // Cohort labels: three behavioural segments by activity (row length) —
    // light, regular, and heavy raters. Any labelling works; this one is
    // cheap to compute and splits the market unevenly on purpose.
    let labels: Vec<u32> = (0..market.n_users() as u32)
        .map(|u| match market.wtp().row(u).len() {
            0..=4 => 0, // light
            5..=8 => 1, // regular
            _ => 2,     // heavy
        })
        .collect();
    let views = market.partition_by(&labels);
    let names = ["light", "regular", "heavy"];
    println!("segments:");
    for v in &views {
        println!(
            "  {:<8} {:>4} consumers  total WTP ${:>9.2}",
            names[v.label().unwrap() as usize],
            v.n_users(),
            v.total_wtp()
        );
    }
    println!();

    for (name, configurator) in registry() {
        let whole = configurator.run(&market);
        // Every configurator runs unchanged on each view (deref coercion:
        // &MarketView → &Market), solving each cohort independently.
        let per_segment: f64 = views.iter().map(|v| configurator.run(v).revenue).sum();
        println!(
            "{:<18} whole-market ${:>9.2}   per-segment ${:>9.2}   lift {:>5.2}%",
            name,
            whole.revenue,
            per_segment,
            (per_segment / whole.revenue - 1.0) * 100.0
        );
    }
}
