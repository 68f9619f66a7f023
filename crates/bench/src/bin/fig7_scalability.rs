//! **Figure 7** — scalability of the four proposed algorithms:
//! (a) running time vs the number of users (clone factor ×1..×8 — the
//! paper's "multiplication factor" protocol), expected linear;
//! (b) running time vs the number of items (×½, ×1, ×2, ×4 via sampling /
//! cloning), expected polynomial (linear in log-log).

use revmax_bench::args::{BenchArgs, Scale};
use revmax_bench::report::{secs, Table};
use revmax_bench::{data, proposed_methods};
use revmax_dataset::scale as dscale;
use std::time::Instant;

fn main() {
    let args = BenchArgs::parse(Scale::Medium);
    let base = data::dataset(args.scale, args.seed);
    let names: Vec<&'static str> = proposed_methods().iter().map(|m| m.name()).collect();

    // ---- (a) users ---------------------------------------------------------
    let factors: &[usize] = if args.full { &[1, 2, 4, 8] } else { &[1, 2, 4] };
    let mut ta = Table::new(
        format!("Figure 7(a) — running time vs users ({} scale base)", args.scale.name()),
        &std::iter::once("users").chain(names.iter().copied()).collect::<Vec<_>>(),
    );
    for &f in factors {
        let d = dscale::clone_users(&base, f);
        let market = data::market_from(&d, args.params());
        let mut row = vec![format!("{} (x{f})", d.n_users())];
        for method in proposed_methods() {
            let t = Instant::now();
            let _outcome = method.run(&market); // dropped after the clock stops
            row.push(secs(t.elapsed()));
        }
        ta.row(row);
        eprintln!("users x{f} done");
    }
    ta.print();
    println!();

    // ---- (b) items ---------------------------------------------------------
    let mut tb = Table::new(
        "Figure 7(b) — running time vs items (log2 axes in the paper)".to_string(),
        &std::iter::once("items").chain(names.iter().copied()).collect::<Vec<_>>(),
    );
    let item_variants: Vec<(String, revmax_dataset::RatingsData)> = {
        let half = dscale::sample_items(&base, base.n_items() / 2, args.seed);
        let x2 = dscale::clone_items(&base, 2);
        let mut v = vec![
            (format!("{} (x0.5)", half.n_items()), half),
            (format!("{} (x1)", base.n_items()), base.clone()),
            (format!("{} (x2)", x2.n_items()), x2),
        ];
        if args.full {
            let x4 = dscale::clone_items(&base, 4);
            v.push((format!("{} (x4)", x4.n_items()), x4));
        }
        v
    };
    for (label, d) in item_variants {
        let market = data::market_from(&d, args.params());
        let mut row = vec![label.clone()];
        for method in proposed_methods() {
            let t = Instant::now();
            let _outcome = method.run(&market); // dropped after the clock stops
            row.push(secs(t.elapsed()));
        }
        tb.row(row);
        eprintln!("items {label} done");
    }
    tb.print();

    for (t, name) in [(&ta, "fig7a_users"), (&tb, "fig7b_items")] {
        if let Ok(p) = t.save_csv(&args.out_dir, name) {
            println!("saved {}", p.display());
        }
    }
}
