//! **Table 6** — the mixed-bundling case study: three books, their
//! individually-priced menu, the three candidate 2-bundles with their
//! *additional* buyers/revenue, the selected pair, and the 3-bundle built
//! on top of it.
//!
//! The triple is discovered by running Mixed Greedy on the dataset and
//! taking a 3-item root (the paper picked its example from real output the
//! same way); the menu is then replayed step by step to regenerate the
//! table's structure.

use revmax_bench::args::{BenchArgs, Scale};
use revmax_bench::data;
use revmax_bench::report::Table;
use revmax_core::mixed;
use revmax_core::prelude::*;

fn main() {
    let args = BenchArgs::parse(Scale::Medium);
    let market = data::market(args.scale, args.seed, args.params());

    // Find a 3-item mixed bundle produced by the actual algorithm.
    let out = MixedGreedy::default().run(&market);
    let triple: Vec<u32> = out
        .config
        .roots
        .iter()
        .find(|r| r.bundle.len() == 3)
        .map(|r| r.bundle.items().to_vec())
        .unwrap_or_else(|| {
            // Fall back: first three items of the largest bundle.
            let mut roots: Vec<_> = out.config.roots.iter().collect();
            roots.sort_by_key(|r| std::cmp::Reverse(r.bundle.len()));
            roots[0].bundle.items().iter().take(3).copied().collect()
        });
    assert_eq!(triple.len(), 3, "dataset produced no 3-item bundle to study");
    let (x, y, z) = (triple[0], triple[1], triple[2]);
    eprintln!("case-study items: {x}, {y}, {z}");

    let mut scratch = market.scratch();
    let singles: Vec<mixed::TopOffer> =
        triple.iter().map(|&i| mixed::init_component(&market, i, &mut scratch)).collect();

    let mut t = Table::new(
        format!("Table 6 — case study: mixed bundling (items {x}, {y}, {z})"),
        &["bundle", "price", "add. buyers", "add. revenue", "selected?"],
    );
    for s in &singles {
        t.row(vec![
            s.node.bundle.to_string(),
            format!("{:.2}", s.node.price),
            s.states.len().to_string(),
            format!("{:.2}", s.revenue),
            "yes".into(),
        ]);
    }

    // All three candidate pairs, with additional buyers/revenue.
    let pairs = [(0usize, 1usize), (0, 2), (1, 2)];
    let mut best: Option<(usize, usize, f64, f64)> = None; // (i, j, price, gain)
    for &(i, j) in &pairs {
        let plan = mixed::price_merge(&market, &[&singles[i], &singles[j]], &mut scratch);
        let (price, gain) = plan.map_or((f64::NAN, 0.0), |p| (p.price, p.gain));
        if gain > best.map_or(0.0, |b| b.3) {
            best = Some((i, j, price, gain));
        }
        t.row(vec![
            format!("({}, {})", singles[i].node.bundle, singles[j].node.bundle),
            if price.is_nan() { "-".into() } else { format!("{price:.2}") },
            "-".into(),
            format!("{gain:.2}"),
            "tbd".into(),
        ]);
    }

    // Commit the best pair (if any), then try the 3-bundle on top.
    if let Some((i, j, price, gain)) = best {
        let k = (0..3).find(|&k| k != i && k != j).unwrap();
        let mut parts = singles;
        // Order: remove higher index first.
        let (hi, lo) = (i.max(j), i.min(j));
        let b_hi = parts.remove(hi);
        let b_lo = parts.remove(lo);
        let third = parts.pop().unwrap();
        let pair_offer = mixed::commit_merge(&market, vec![b_lo, b_hi], price, &mut scratch);
        println!(
            "selected pair {} at {:.2} (additional revenue {:.2})",
            pair_offer.node.bundle, price, gain
        );
        if let Some(plan3) = mixed::price_merge(&market, &[&pair_offer, &third], &mut scratch) {
            t.row(vec![
                format!("({}, {})", pair_offer.node.bundle, third.node.bundle),
                format!("{:.2}", plan3.price),
                "-".into(),
                format!("{:.2}", plan3.gain),
                "yes".into(),
            ]);
            let full =
                mixed::commit_merge(&market, vec![pair_offer, third], plan3.price, &mut scratch);
            println!(
                "3-bundle {} at {:.2}; tree revenue {:.2}",
                full.node.bundle, plan3.price, full.revenue
            );
        } else {
            println!("3-bundle adds no revenue over the selected pair (item {k} stays separate)");
        }
    } else {
        println!("no pair adds revenue for this triple");
    }

    t.print();
    if let Ok(p) = t.save_csv(&args.out_dir, "table6_case_study") {
        println!("saved {}", p.display());
    }
}
