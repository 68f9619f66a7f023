//! Golden outcome digests: pins the bits of every configurator's outcome
//! **across code versions**, not just across thread counts. Each entry is
//! `fingerprint_str(canon_outcome(..))` — revenues, metrics, trace
//! revenues and bundle counts, and the full offer trees — for one method
//! on one market. A refactor of the search engines must leave every digest
//! unchanged; a deliberate behaviour change re-records only the entries it
//! names.
//!
//! A second table, [`WSP_GOLDEN`], pins the two weighted-set-packing
//! comparators (`Optimal`, `Greedy WSP`) on 10-item markets, small enough
//! for their `2^N` enumeration.
//!
//! On a mismatch a test prints its full recomputed table, ready to paste
//! over [`GOLDEN`] or [`WSP_GOLDEN`].

use revmax::core::algorithms::{GreedyOptions, MatchingOptions};
use revmax::core::fingerprint::fingerprint_str;
use revmax::core::prelude::*;
use revmax::core::wsp;
use revmax::engine::report::canon_outcome;
use revmax::engine::ScaleSpec;

/// Tiny generated market (48 consumers × 24 items) at one seed, with
/// `params` applied on top of the paper defaults.
fn tiny_market(seed: u64, params: Params) -> Market {
    let data = ScaleSpec::Tiny.config().generate(seed);
    let wtp = WtpMatrix::from_ratings(
        data.n_users(),
        data.n_items(),
        data.triples(),
        data.prices(),
        params.lambda,
    );
    Market::new(wtp, params)
}

/// The pinned markets: seeds {2015, 7, 42} × θ {0, +0.05}, plus one market
/// each with a finite γ, a size cap of 2 and a CVaR objective, and one at
/// θ = +0.50, where Pure FreqItemset selects bundles (it selects none on
/// the others).
fn markets(threads: usize) -> Vec<(String, Market)> {
    let base = Params::default().with_threads(Threads::Fixed(threads));
    let mut out = Vec::new();
    for seed in [2015u64, 7, 42] {
        for theta in [0.0, 0.05] {
            out.push((
                format!("seed{seed}/theta{theta:+.2}"),
                tiny_market(seed, base.with_theta(theta)),
            ));
        }
    }
    out.push(("seed2015/gamma2".into(), tiny_market(2015, base.with_theta(0.05).with_gamma(2.0))));
    out.push((
        "seed7/cap2".into(),
        tiny_market(7, base.with_theta(0.05).with_size_cap(SizeCap::AtMost(2))),
    ));
    out.push((
        "seed42/cvar0.9".into(),
        tiny_market(42, base.with_theta(0.05).with_objective(Objective::Cvar(0.9))),
    ));
    out.push(("seed7/theta+0.50".into(), tiny_market(7, base.with_theta(0.5))));
    out
}

/// The pinned methods: every registry method, the listed-price baseline,
/// Pure Matching with each pruning rule off, and both greedy variants
/// under the merge-to-single stopping rule.
fn methods() -> Vec<(String, Box<dyn Configurator>)> {
    let mut out: Vec<(String, Box<dyn Configurator>)> =
        registry().into_iter().map(|(n, c)| (n.to_string(), c)).collect();
    out.push(("Components (listed prices)".into(), Box::new(Components::listed())));
    let no_co_rater = MatchingOptions { co_rater_pruning: false, ..Default::default() };
    out.push(("Pure Matching/no-co-rater".into(), Box::new(PureMatching { opts: no_co_rater })));
    let no_new_vertex = MatchingOptions { new_vertex_pruning: false, ..Default::default() };
    out.push((
        "Pure Matching/no-new-vertex".into(),
        Box::new(PureMatching { opts: no_new_vertex }),
    ));
    let to_single = GreedyOptions { merge_to_single: true };
    out.push(("Pure Greedy/merge-to-single".into(), Box::new(PureGreedy { opts: to_single })));
    out.push(("Mixed Greedy/merge-to-single".into(), Box::new(MixedGreedy { opts: to_single })));
    out
}

fn digests(threads: usize) -> Vec<(String, u64)> {
    let mut out = Vec::new();
    for (market_id, market) in markets(threads) {
        for (method_id, method) in methods() {
            let digest = fingerprint_str(&canon_outcome(&method.run(&market)));
            out.push((format!("{market_id}|{method_id}"), digest));
        }
    }
    out
}

/// 40 consumers × 10 items of hashed WTP in [0, 12) with ~35% zeros,
/// built like `tests/parallel_determinism.rs`'s WSP market.
fn wsp_market(seed: u64, theta: f64, threads: usize) -> Market {
    let rows: Vec<Vec<f64>> = (0..40u64)
        .map(|u| {
            (0..10u64)
                .map(|i| {
                    let h = (seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ (u * 131 + i * 17))
                        .wrapping_mul(0xD134_2543_DE82_EF95);
                    if h % 100 < 35 {
                        0.0
                    } else {
                        ((h >> 32) % 1200) as f64 / 100.0
                    }
                })
                .collect()
        })
        .collect();
    Market::new(
        WtpMatrix::from_rows(rows),
        Params::default().with_theta(theta).with_threads(Threads::Fixed(threads)),
    )
}

fn wsp_digests(threads: usize) -> Vec<(String, u64)> {
    let mut out = Vec::new();
    for seed in [2015u64, 7, 42] {
        for theta in [0.0, 0.05] {
            let market = wsp_market(seed, theta, threads);
            let table = wsp::enumerate_subset_revenues(&market);
            for outcome in [wsp::optimal(&market, &table), wsp::greedy_wsp(&market, &table)] {
                let id = format!("seed{seed}/theta{theta:+.2}|{}", outcome.algorithm);
                out.push((id, fingerprint_str(&canon_outcome(&outcome))));
            }
        }
    }
    out
}

/// Compare `got` with the pinned table; on a mismatch panic with the
/// recomputed table.
fn assert_table(what: &str, threads: usize, got: Vec<(String, u64)>, golden: &[(&str, u64)]) {
    let want: Vec<(String, u64)> =
        golden.iter().map(|&(id, digest)| (id.to_string(), digest)).collect();
    if got != want {
        let table: String =
            got.iter().map(|(id, d)| format!("    (\"{id}\", 0x{d:016x}),\n")).collect();
        let diff: Vec<&str> =
            got.iter().filter(|g| !want.contains(g)).map(|(id, _)| id.as_str()).collect();
        panic!(
            "{what} digests diverged at {threads} threads ({} of {} entries: {diff:?}); \
             recomputed table:\n{table}",
            diff.len(),
            got.len()
        );
    }
}

#[test]
fn outcome_digests_match_the_recorded_table() {
    for threads in [1, 4] {
        assert_table("outcome", threads, digests(threads), GOLDEN);
    }
}

#[test]
fn wsp_digests_match_the_recorded_table() {
    for threads in [1, 4] {
        assert_table("WSP", threads, wsp_digests(threads), WSP_GOLDEN);
    }
}

const WSP_GOLDEN: &[(&str, u64)] = &[
    ("seed2015/theta+0.00|Optimal", 0x2b092222de852f3e),
    ("seed2015/theta+0.00|Greedy WSP", 0x0ca2b929df4b4eb3),
    ("seed2015/theta+0.05|Optimal", 0x1d0854fa65ecc30b),
    ("seed2015/theta+0.05|Greedy WSP", 0x940c06bcd0e8adb1),
    ("seed7/theta+0.00|Optimal", 0xff0fe300cf2c1e62),
    ("seed7/theta+0.00|Greedy WSP", 0xe22387ac78e44779),
    ("seed7/theta+0.05|Optimal", 0xde7cfe2dedc7c906),
    ("seed7/theta+0.05|Greedy WSP", 0x02ad15166fe8f134),
    ("seed42/theta+0.00|Optimal", 0x8b3e2f38b5a60923),
    ("seed42/theta+0.00|Greedy WSP", 0x11392bb17de6b573),
    ("seed42/theta+0.05|Optimal", 0x0b4f8272e7cc16c4),
    ("seed42/theta+0.05|Greedy WSP", 0x891e8d16570bb29f),
];

const GOLDEN: &[(&str, u64)] = &[
    ("seed2015/theta+0.00|Components", 0x4cdf8c715cc893df),
    ("seed2015/theta+0.00|Pure Matching", 0xe717c42db5e7b469),
    ("seed2015/theta+0.00|Pure Greedy", 0x81f7f7e843a5a954),
    ("seed2015/theta+0.00|Mixed Matching", 0xc4ae0d75923916c4),
    ("seed2015/theta+0.00|Mixed Greedy", 0x97f80de103690237),
    ("seed2015/theta+0.00|Pure FreqItemset", 0xee98ece466e7de63),
    ("seed2015/theta+0.00|Mixed FreqItemset", 0x1c3fbd91371dac45),
    ("seed2015/theta+0.00|Components (listed prices)", 0xfdc1cdd0dc88baa8),
    ("seed2015/theta+0.00|Pure Matching/no-co-rater", 0xe717c42db5e7b469),
    ("seed2015/theta+0.00|Pure Matching/no-new-vertex", 0xe717c42db5e7b469),
    ("seed2015/theta+0.00|Pure Greedy/merge-to-single", 0xca598889d74d527c),
    ("seed2015/theta+0.00|Mixed Greedy/merge-to-single", 0x62582c69e7d451b6),
    ("seed2015/theta+0.05|Components", 0x4cdf8c715cc893df),
    ("seed2015/theta+0.05|Pure Matching", 0xc51582760343c2dd),
    ("seed2015/theta+0.05|Pure Greedy", 0x2a093e4286d6e7b1),
    ("seed2015/theta+0.05|Mixed Matching", 0x66741dbd769b2add),
    ("seed2015/theta+0.05|Mixed Greedy", 0x262518c6a6172761),
    ("seed2015/theta+0.05|Pure FreqItemset", 0xee98ece466e7de63),
    ("seed2015/theta+0.05|Mixed FreqItemset", 0xca87d6a395e96e66),
    ("seed2015/theta+0.05|Components (listed prices)", 0xfdc1cdd0dc88baa8),
    ("seed2015/theta+0.05|Pure Matching/no-co-rater", 0x33f174832b07a811),
    ("seed2015/theta+0.05|Pure Matching/no-new-vertex", 0xc51582760343c2dd),
    ("seed2015/theta+0.05|Pure Greedy/merge-to-single", 0x2db3209a8928ddd8),
    ("seed2015/theta+0.05|Mixed Greedy/merge-to-single", 0x8229425a173e6418),
    ("seed7/theta+0.00|Components", 0xfe68da3fd0b37c27),
    ("seed7/theta+0.00|Pure Matching", 0x96a209b5d4da35ef),
    ("seed7/theta+0.00|Pure Greedy", 0xfc7f3873a11880c8),
    ("seed7/theta+0.00|Mixed Matching", 0xa1972488a5c6ff3c),
    ("seed7/theta+0.00|Mixed Greedy", 0xbc6421e3f0f2b861),
    ("seed7/theta+0.00|Pure FreqItemset", 0x7b9b5be56b776e1a),
    ("seed7/theta+0.00|Mixed FreqItemset", 0xbedb07777d1f492a),
    ("seed7/theta+0.00|Components (listed prices)", 0xcee06174aaf4637c),
    ("seed7/theta+0.00|Pure Matching/no-co-rater", 0x96a209b5d4da35ef),
    ("seed7/theta+0.00|Pure Matching/no-new-vertex", 0x96a209b5d4da35ef),
    ("seed7/theta+0.00|Pure Greedy/merge-to-single", 0x50f7f50eb3027d4a),
    ("seed7/theta+0.00|Mixed Greedy/merge-to-single", 0x6bf01a6d8f676fc8),
    ("seed7/theta+0.05|Components", 0xfe68da3fd0b37c27),
    ("seed7/theta+0.05|Pure Matching", 0x44a7071394310c53),
    ("seed7/theta+0.05|Pure Greedy", 0x094ffa9184373875),
    ("seed7/theta+0.05|Mixed Matching", 0xf50bdd26ecbc6fc3),
    ("seed7/theta+0.05|Mixed Greedy", 0x7b0d7825b0639409),
    ("seed7/theta+0.05|Pure FreqItemset", 0x7b9b5be56b776e1a),
    ("seed7/theta+0.05|Mixed FreqItemset", 0xfa34f338b8e7ee4d),
    ("seed7/theta+0.05|Components (listed prices)", 0xcee06174aaf4637c),
    ("seed7/theta+0.05|Pure Matching/no-co-rater", 0xa758ee21558bbfdf),
    ("seed7/theta+0.05|Pure Matching/no-new-vertex", 0x44a7071394310c53),
    ("seed7/theta+0.05|Pure Greedy/merge-to-single", 0x1d4e6e060dbcc7d5),
    ("seed7/theta+0.05|Mixed Greedy/merge-to-single", 0x4805181ac6b8a933),
    ("seed42/theta+0.00|Components", 0x2fc4b8aaab87c64e),
    ("seed42/theta+0.00|Pure Matching", 0xebc6b879ae2706cd),
    ("seed42/theta+0.00|Pure Greedy", 0x101f3c4cc9dd3339),
    ("seed42/theta+0.00|Mixed Matching", 0x7a9202703d0eb274),
    ("seed42/theta+0.00|Mixed Greedy", 0x4366e0d5720db0a5),
    ("seed42/theta+0.00|Pure FreqItemset", 0xafc7b8be059fedec),
    ("seed42/theta+0.00|Mixed FreqItemset", 0xf2603bbf7d94690b),
    ("seed42/theta+0.00|Components (listed prices)", 0x3c4fbf8c91a9f27d),
    ("seed42/theta+0.00|Pure Matching/no-co-rater", 0xebc6b879ae2706cd),
    ("seed42/theta+0.00|Pure Matching/no-new-vertex", 0xebc6b879ae2706cd),
    ("seed42/theta+0.00|Pure Greedy/merge-to-single", 0x5321597dbba7bf58),
    ("seed42/theta+0.00|Mixed Greedy/merge-to-single", 0x5333c1d70de28f88),
    ("seed42/theta+0.05|Components", 0x2fc4b8aaab87c64e),
    ("seed42/theta+0.05|Pure Matching", 0x22bf6e43883152a7),
    ("seed42/theta+0.05|Pure Greedy", 0x9d3d0536980879a7),
    ("seed42/theta+0.05|Mixed Matching", 0x7b15e93819bd002f),
    ("seed42/theta+0.05|Mixed Greedy", 0x48f34094ef9a4e8f),
    ("seed42/theta+0.05|Pure FreqItemset", 0xafc7b8be059fedec),
    ("seed42/theta+0.05|Mixed FreqItemset", 0xe9f1c4609d61bf73),
    ("seed42/theta+0.05|Components (listed prices)", 0x3c4fbf8c91a9f27d),
    ("seed42/theta+0.05|Pure Matching/no-co-rater", 0xa7269ab2cacbe358),
    ("seed42/theta+0.05|Pure Matching/no-new-vertex", 0x22bf6e43883152a7),
    ("seed42/theta+0.05|Pure Greedy/merge-to-single", 0x00fd004c1edfaad1),
    ("seed42/theta+0.05|Mixed Greedy/merge-to-single", 0xc9ef01a2b3778bdc),
    ("seed2015/gamma2|Components", 0xdc69ec0f0cd9a909),
    ("seed2015/gamma2|Pure Matching", 0x3c848271403eb126),
    ("seed2015/gamma2|Pure Greedy", 0xe9bdcea2961765df),
    ("seed2015/gamma2|Mixed Matching", 0x6c9348d841266d2e),
    ("seed2015/gamma2|Mixed Greedy", 0xfdb498eae351b4b1),
    ("seed2015/gamma2|Pure FreqItemset", 0x38b33914a0947ada),
    ("seed2015/gamma2|Mixed FreqItemset", 0xa0fadc49e8663838),
    ("seed2015/gamma2|Components (listed prices)", 0xc760d3e2ff0eceaa),
    ("seed2015/gamma2|Pure Matching/no-co-rater", 0x9c69f751f92eefc2),
    ("seed2015/gamma2|Pure Matching/no-new-vertex", 0x3c848271403eb126),
    ("seed2015/gamma2|Pure Greedy/merge-to-single", 0xbdff9145f7538767),
    ("seed2015/gamma2|Mixed Greedy/merge-to-single", 0xfdb498eae351b4b1),
    ("seed7/cap2|Components", 0xfe68da3fd0b37c27),
    ("seed7/cap2|Pure Matching", 0x30b91afc6d73afd3),
    ("seed7/cap2|Pure Greedy", 0x445baa3170e1542d),
    ("seed7/cap2|Mixed Matching", 0x08a02d36d4b8bb4d),
    ("seed7/cap2|Mixed Greedy", 0xf40e28af7086443d),
    ("seed7/cap2|Pure FreqItemset", 0x7b9b5be56b776e1a),
    ("seed7/cap2|Mixed FreqItemset", 0x9b5c48bf9c5ce400),
    ("seed7/cap2|Components (listed prices)", 0xcee06174aaf4637c),
    ("seed7/cap2|Pure Matching/no-co-rater", 0xa758ee21558bbfdf),
    ("seed7/cap2|Pure Matching/no-new-vertex", 0x30b91afc6d73afd3),
    ("seed7/cap2|Pure Greedy/merge-to-single", 0x7f73fa0e19cadbcb),
    ("seed7/cap2|Mixed Greedy/merge-to-single", 0x799112fbd0a8a90d),
    ("seed42/cvar0.9|Components", 0x2fc4b8aaab87c64e),
    ("seed42/cvar0.9|Pure Matching", 0x22bf6e43883152a7),
    ("seed42/cvar0.9|Pure Greedy", 0x9d3d0536980879a7),
    ("seed42/cvar0.9|Mixed Matching", 0x7b15e93819bd002f),
    ("seed42/cvar0.9|Mixed Greedy", 0x48f34094ef9a4e8f),
    ("seed42/cvar0.9|Pure FreqItemset", 0xafc7b8be059fedec),
    ("seed42/cvar0.9|Mixed FreqItemset", 0xe9f1c4609d61bf73),
    ("seed42/cvar0.9|Components (listed prices)", 0x5a038ee014d11d20),
    ("seed42/cvar0.9|Pure Matching/no-co-rater", 0xa7269ab2cacbe358),
    ("seed42/cvar0.9|Pure Matching/no-new-vertex", 0x22bf6e43883152a7),
    ("seed42/cvar0.9|Pure Greedy/merge-to-single", 0xc28f2c5c33d40f5e),
    ("seed42/cvar0.9|Mixed Greedy/merge-to-single", 0x22b5c2e221686687),
    ("seed7/theta+0.50|Components", 0xfe68da3fd0b37c27),
    ("seed7/theta+0.50|Pure Matching", 0x5c45ccd6058f5546),
    ("seed7/theta+0.50|Pure Greedy", 0xad96dc65147b3f26),
    ("seed7/theta+0.50|Mixed Matching", 0x5a681a84476117ce),
    ("seed7/theta+0.50|Mixed Greedy", 0x3775ea89c5d2bcd7),
    ("seed7/theta+0.50|Pure FreqItemset", 0x8c98e2c43b8c2755),
    ("seed7/theta+0.50|Mixed FreqItemset", 0xc8139f5a57888466),
    ("seed7/theta+0.50|Components (listed prices)", 0xcee06174aaf4637c),
    ("seed7/theta+0.50|Pure Matching/no-co-rater", 0x732cbdd2f2d3943d),
    ("seed7/theta+0.50|Pure Matching/no-new-vertex", 0x5c45ccd6058f5546),
    ("seed7/theta+0.50|Pure Greedy/merge-to-single", 0x0e7e34fcd7fb797b),
    ("seed7/theta+0.50|Mixed Greedy/merge-to-single", 0x179057f5d1b28439),
];

#[test]
fn merge_to_single_mixed_greedy_reports_the_revenue_its_menu_earns() {
    // A forced (loss-making) merge must add the revenue change its commit
    // actually makes, so the reported revenue is the menu's revenue.
    let to_single = GreedyOptions { merge_to_single: true };
    for (market_id, market) in markets(1).into_iter().take(6) {
        let out = MixedGreedy { opts: to_single }.run(&market);
        let menu = out.config.expected_revenue(&market);
        assert!(
            (out.revenue - menu).abs() < 1e-6 * out.revenue,
            "{market_id}: reported {} but the menu earns {menu}",
            out.revenue
        );
    }
}

#[test]
fn last_trace_point_counts_the_configuration_bundles() {
    for (market_id, market) in markets(1) {
        for (name, method) in registry() {
            let out = method.run(&market);
            if let Some(last) = out.trace.points().last() {
                assert_eq!(
                    last.n_bundles,
                    out.config.n_bundles(),
                    "{market_id}|{name}: last trace point disagrees with the configuration"
                );
            }
        }
    }
}
