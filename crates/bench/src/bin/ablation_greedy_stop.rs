//! **Ablation** — Algorithm 2's stopping condition (§5.3.2).
//!
//! The paper adopts "stop when there is no more revenue gain" and claims
//! the alternative (merge all the way to one bundle, return the best
//! intermediate configuration) "would increase running time significantly
//! without producing meaningful revenue gain". This bench measures both.

use revmax_bench::args::{BenchArgs, Scale};
use revmax_bench::data;
use revmax_bench::report::{pct2, secs, Table};
use revmax_core::algorithms::GreedyOptions;
use revmax_core::prelude::*;
use std::time::Instant;

fn main() {
    let args = BenchArgs::parse(Scale::Medium);
    let market = data::market(args.scale, args.seed, args.params());

    let mut t = Table::new(
        format!("Ablation — greedy stopping condition ({} scale)", args.scale.name()),
        &["method", "stop rule", "coverage", "gain", "iterations", "time (s)"],
    );
    for merge_to_single in [false, true] {
        let rule = if merge_to_single { "merge-to-single" } else { "no-gain (paper)" };
        let opts = GreedyOptions { merge_to_single };
        for (name, out, dt) in [
            {
                let t0 = Instant::now();
                let o = PureGreedy { opts }.run(&market);
                ("Pure Greedy", o, t0.elapsed())
            },
            {
                let t0 = Instant::now();
                let o = MixedGreedy { opts }.run(&market);
                ("Mixed Greedy", o, t0.elapsed())
            },
        ] {
            t.row(vec![
                name.into(),
                rule.into(),
                pct2(out.coverage),
                pct2(out.gain),
                out.trace.iterations().to_string(),
                secs(dt),
            ]);
            eprintln!("{name} ({rule}) done");
        }
    }
    t.print();
    if let Ok(p) = t.save_csv(&args.out_dir, "ablation_greedy_stop") {
        println!("saved {}", p.display());
    }
}
