//! **Figure 6** — revenue gain vs cumulative running time, iteration by
//! iteration: (a) Mixed Matching vs Mixed Greedy, (b) Pure Matching vs
//! Pure Greedy.
//!
//! Expected shape (paper §6.3): the matching algorithms converge in a
//! handful of iterations (10 mixed / 6 pure on the paper's data) while the
//! greedy ones take thousands (4347 / 2131) and more wall time for the same
//! or lower final gain.

use revmax_bench::args::{BenchArgs, Scale};
use revmax_bench::report::{pct2, secs, Table};
use revmax_bench::{data, proposed_methods};
use revmax_core::prelude::*;

fn main() {
    let args = BenchArgs::parse(Scale::Paper);
    let market = data::market(args.scale, args.seed, args.params());
    let components = Components::optimal().run(&market).revenue;

    let mut summary = Table::new(
        format!("Figure 6 — convergence summary ({} scale)", args.scale.name()),
        &["method", "iterations", "total time (s)", "final gain"],
    );
    let mut series = Table::new(
        "Figure 6 — full iteration series".to_string(),
        &["method", "iteration", "cumulative seconds", "revenue gain"],
    );

    for method in proposed_methods() {
        let out = method.run(&market);
        summary.row(vec![
            out.algorithm.into(),
            out.trace.iterations().to_string(),
            secs(out.trace.total_time()),
            pct2(out.gain),
        ]);
        for p in out.trace.points() {
            let g = revmax_core::metrics::revenue_gain(p.revenue, components);
            series.row(vec![
                out.algorithm.into(),
                p.iteration.to_string(),
                format!("{:.3}", p.elapsed.as_secs_f64()),
                pct2(g),
            ]);
        }
        eprintln!("{} done ({} iterations)", out.algorithm, out.trace.iterations());
    }
    summary.print();
    if let Ok(p) = series.save_csv(&args.out_dir, "fig6_revenue_vs_time") {
        println!("saved {}", p.display());
    }
    if let Ok(p) = summary.save_csv(&args.out_dir, "fig6_summary") {
        println!("saved {}", p.display());
    }
}
