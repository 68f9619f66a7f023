//! **Ablation** — the two pruning rules of Algorithm 1 (§5.3.1).
//!
//! Co-rater pruning is provably lossless at θ ≤ 0 (no consumer can pay for
//! the second half of a bundle nobody co-rates) but heuristic for θ > 0;
//! new-vertex pruning is heuristic everywhere ("edges in previous
//! iterations ... will never form a bundle" is an empirical claim). This
//! bench measures both flags' effect on revenue and time, at θ = 0 and at
//! θ = +0.05.

use revmax_bench::args::{BenchArgs, Scale};
use revmax_bench::data;
use revmax_bench::report::{pct2, secs, Table};
use revmax_core::algorithms::MatchingOptions;
use revmax_core::prelude::*;
use std::time::Instant;

fn main() {
    let args = BenchArgs::parse(Scale::Medium);
    let dataset = data::dataset(args.scale, args.seed);

    let mut t = Table::new(
        format!("Ablation — Algorithm 1 pruning rules ({} scale)", args.scale.name()),
        &["theta", "co-rater", "new-vertex", "coverage", "gain", "time (s)"],
    );
    for theta in [0.0, 0.05] {
        let market = data::market_from(&dataset, args.params().with_theta(theta));
        for (cr, nv) in [(true, true), (true, false), (false, true), (false, false)] {
            let algo = PureMatching {
                opts: MatchingOptions { co_rater_pruning: cr, new_vertex_pruning: nv },
            };
            let t0 = Instant::now();
            let out = algo.run(&market);
            t.row(vec![
                format!("{theta:+.2}"),
                cr.to_string(),
                nv.to_string(),
                pct2(out.coverage),
                pct2(out.gain),
                secs(t0.elapsed()),
            ]);
            eprintln!("theta {theta:+.2} co-rater={cr} new-vertex={nv} done");
        }
    }
    t.print();
    if let Ok(p) = t.save_csv(&args.out_dir, "ablation_pruning") {
        println!("saved {}", p.display());
    }
}
