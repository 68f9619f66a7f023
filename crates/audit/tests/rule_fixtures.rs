//! Per-rule fixture tables: every textual and structural rule must fire
//! on a minimal positive fixture and stay silent on the fixed form. The
//! fixtures are in-crate string tables (no files), fed straight through
//! [`revmax_audit::audit_sources`] — the same pipeline the CLI uses.

use revmax_audit::audit_sources;

/// `(rule, display path, positive fixture, fixed fixture)`.
const CASES: &[(&str, &str, &str, &str)] = &[
    (
        "float-partial-cmp",
        "crates/core/src/fix.rs",
        "pub fn f(v: &mut [f64]) {\n    v.sort_by(|a, b| a.partial_cmp(b).unwrap());\n}\n",
        "pub fn f(v: &mut [f64]) {\n    v.sort_by(|a, b| a.total_cmp(b));\n}\n",
    ),
    (
        // The chain may span lines and use expect — still one statement.
        "float-partial-cmp",
        "crates/ilp/src/fix.rs",
        "pub fn f(v: &mut [f64]) {\n    v.sort_by(|a, b| {\n        a.partial_cmp(b)\n            .expect(\"finite\")\n    });\n}\n",
        "pub fn f(v: &mut [f64]) {\n    v.sort_by(|a, b| a.total_cmp(b));\n}\n",
    ),
    (
        "float-sum",
        "crates/core/src/fix.rs",
        "pub fn f(v: &[f64]) -> f64 {\n    v.iter().sum::<f64>()\n}\n",
        "pub fn f(v: &[f64]) -> f64 {\n    v.iter().fold(0.0, |a, x| a + x)\n}\n",
    ),
    (
        // Turbofish-free: the f64 type must be picked up from the binding.
        "float-sum",
        "crates/engine/src/fix.rs",
        "pub fn f(v: &[f64]) -> f64 {\n    let total: f64 = v.iter().sum();\n    total\n}\n",
        "pub fn f(v: &[f64]) -> f64 {\n    let total = v.iter().fold(0.0, |a, x| a + x);\n    total\n}\n",
    ),
    (
        "lock-unwrap",
        "crates/serve/src/fix.rs",
        "use std::sync::Mutex;\npub fn f(m: &Mutex<u32>) -> u32 {\n    *m.lock().unwrap()\n}\n",
        "use std::sync::Mutex;\npub fn f(m: &Mutex<u32>) -> u32 {\n    *m.lock().unwrap_or_else(|p| p.into_inner())\n}\n",
    ),
    (
        "lock-unwrap",
        "crates/serve/src/fix.rs",
        "use std::sync::RwLock;\npub fn f(m: &RwLock<u32>) -> u32 {\n    *m.read().expect(\"poisoned\")\n}\n",
        "use std::sync::RwLock;\npub fn f(m: &RwLock<u32>) -> u32 {\n    *m.read().unwrap_or_else(|p| p.into_inner())\n}\n",
    ),
    (
        "unordered-iter",
        "crates/core/src/fix.rs",
        "use std::collections::HashMap;\npub fn f() -> f64 {\n    let m: HashMap<u32, f64> = HashMap::new();\n    m.values().fold(0.0, |a, x| a + x)\n}\n",
        "use std::collections::BTreeMap;\npub fn f() -> f64 {\n    let m: BTreeMap<u32, f64> = BTreeMap::new();\n    m.values().fold(0.0, |a, x| a + x)\n}\n",
    ),
    (
        "unordered-iter",
        "crates/engine/src/fix.rs",
        "use std::collections::HashSet;\npub fn f() {\n    let s: HashSet<u32> = HashSet::new();\n    for x in &s {\n        let _ = x;\n    }\n}\n",
        "use std::collections::HashSet;\npub fn f() {\n    let s: HashSet<u32> = HashSet::new();\n    let mut v: Vec<u32> = (0..4).filter(|x| s.contains(x)).collect();\n    v.sort_unstable();\n    for x in &v {\n        let _ = x;\n    }\n}\n",
    ),
    (
        "wall-clock",
        "crates/core/src/fix.rs",
        "use std::time::Instant;\npub fn f() -> u64 {\n    Instant::now().elapsed().as_nanos() as u64\n}\n",
        "pub fn f() -> u64 {\n    0\n}\n",
    ),
    (
        "env-read",
        "crates/dataset/src/fix.rs",
        "pub fn f() -> Option<String> {\n    std::env::var(\"REVMAX_SECRET_KNOB\").ok()\n}\n",
        "pub fn f() -> Option<String> {\n    None\n}\n",
    ),
    (
        "fingerprint-coverage",
        "crates/core/src/params.rs",
        "pub struct Params {\n    pub lambda: f64,\n    pub theta: f64,\n}\n\nimpl Params {\n    pub fn fingerprint(&self) -> u64 {\n        self.lambda.to_bits()\n    }\n}\n",
        "pub struct Params {\n    pub lambda: f64,\n    pub theta: f64,\n}\n\nimpl Params {\n    pub fn fingerprint(&self) -> u64 {\n        self.lambda.to_bits() ^ self.theta.to_bits()\n    }\n}\n",
    ),
    (
        "event-totality",
        "crates/core/src/marketlog.rs",
        "pub enum Event {\n    UpsertWtp,\n    DeleteWtp,\n}\n\npub struct MarketLog {\n    n: u32,\n}\n\nimpl MarketLog {\n    pub fn fingerprint(&self) -> u64 {\n        self.n as u64\n    }\n    pub fn apply(&mut self, event: Event) {\n        match event {\n            Event::UpsertWtp => self.n += 1,\n            _ => {}\n        }\n    }\n}\n",
        "pub enum Event {\n    UpsertWtp,\n    DeleteWtp,\n}\n\npub struct MarketLog {\n    n: u32,\n}\n\nimpl MarketLog {\n    pub fn fingerprint(&self) -> u64 {\n        self.n as u64\n    }\n    pub fn apply(&mut self, event: Event) {\n        match event {\n            Event::UpsertWtp => self.n += 1,\n            Event::DeleteWtp => self.n -= 1,\n        }\n    }\n}\n",
    ),
];

#[test]
fn each_rule_fires_on_its_positive_fixture_and_not_on_the_fix() {
    for (rule, path, positive, fixed) in CASES {
        let report = audit_sources(&[(path.to_string(), positive.to_string())], None);
        assert!(
            report.unwaived().any(|f| f.rule == *rule),
            "{rule}: positive fixture at {path} produced no finding; got {:?}",
            report.findings
        );
        let report = audit_sources(&[(path.to_string(), fixed.to_string())], None);
        assert!(
            !report.findings.iter().any(|f| f.rule == *rule),
            "{rule}: fixed fixture at {path} still fires: {:?}",
            report.findings
        );
    }
}

#[test]
fn opcode_totality_half_wired_and_unpaired_opcodes() {
    let good = "pub const REQ_PING: u8 = 0x01;\n\
                pub const RESP_PING: u8 = 0x81;\n\
                pub fn encode_request(op: u8) -> u8 {\n    REQ_PING\n}\n\
                pub fn decode_request(op: u8) -> u8 {\n    match op {\n        REQ_PING => 0,\n        _ => 1,\n    }\n}\n\
                pub fn encode_response(op: u8) -> u8 {\n    RESP_PING\n}\n\
                pub fn decode_response(op: u8) -> u8 {\n    match op {\n        RESP_PING => 0,\n        _ => 1,\n    }\n}\n";
    let path = "crates/serve/src/proto.rs".to_string();
    let report = audit_sources(&[(path.clone(), good.to_string())], None);
    assert!(
        !report.findings.iter().any(|f| f.rule == "opcode-totality"),
        "clean protocol flagged: {:?}",
        report.findings
    );

    // Unpaired request opcode.
    let unpaired =
        good.replace("pub const RESP_PING: u8 = 0x81;", "pub const RESP_PONG: u8 = 0x81;");
    let report = audit_sources(&[(path.clone(), unpaired)], None);
    assert!(report
        .unwaived()
        .any(|f| f.rule == "opcode-totality" && f.message.contains("RESP_PING")));

    // Wired into the encoder but missing from the decoder.
    let half = good.replace("        REQ_PING => 0,\n", "        0x01 => 0,\n");
    let report = audit_sources(&[(path.clone(), half)], None);
    assert!(report
        .unwaived()
        .any(|f| f.rule == "opcode-totality" && f.message.contains("decode_request")));

    // Request opcode in the response range.
    let wrong_side =
        good.replace("pub const REQ_PING: u8 = 0x01;", "pub const REQ_PING: u8 = 0x90;");
    let report = audit_sources(&[(path.clone(), wrong_side)], None);
    assert!(report
        .unwaived()
        .any(|f| f.rule == "opcode-totality" && f.message.contains("response range")));

    // Duplicate opcode value on one side.
    let dup = format!("{good}pub const REQ_PING2: u8 = 0x01;\npub const RESP_PING2: u8 = 0x82;\n");
    let report = audit_sources(&[(path, dup)], None);
    assert!(report.unwaived().any(|f| f.rule == "opcode-totality" && f.message.contains("reuses")));
}

#[test]
fn fingerprint_coverage_fires_per_missing_field_at_its_line() {
    let src = "pub struct Params {\n    pub a: f64,\n    pub b: f64,\n    pub c: f64,\n}\n\nimpl Params {\n    pub fn fingerprint(&self) -> u64 {\n        self.a.to_bits()\n    }\n}\n";
    let report = audit_sources(&[("crates/core/src/params.rs".to_string(), src.to_string())], None);
    let lines: Vec<usize> =
        report.unwaived().filter(|f| f.rule == "fingerprint-coverage").map(|f| f.line).collect();
    // `b` on line 3, `c` on line 4.
    assert_eq!(lines, vec![3, 4], "{:?}", report.findings);
}

#[test]
fn structural_parse_failure_is_a_finding_not_a_skip() {
    // A params.rs whose struct was renamed out from under the gate.
    let src = "pub struct Config {\n    pub a: f64,\n}\n";
    let report = audit_sources(&[("crates/core/src/params.rs".to_string(), src.to_string())], None);
    assert!(report
        .unwaived()
        .any(|f| f.rule == "fingerprint-coverage" && f.message.contains("could not parse")));
}

#[test]
fn waiver_semantics() {
    let path = "crates/core/src/fix.rs".to_string();
    // Reasoned waiver on the line above suppresses the finding.
    let above = "pub fn f(v: &mut [f64]) {\n    // audit: allow(float-partial-cmp) fixture proves trailing and above placement\n    v.sort_by(|a, b| a.partial_cmp(b).unwrap());\n}\n";
    let report = audit_sources(&[(path.clone(), above.to_string())], None);
    assert_eq!(report.unwaived().count(), 0, "{:?}", report.findings);
    assert!(report.findings.iter().any(|f| f.waived));

    // Trailing waiver on the same line suppresses too.
    let trailing = "pub fn f(v: &mut [f64]) {\n    v.sort_by(|a, b| a.partial_cmp(b).unwrap()); // audit: allow(float-partial-cmp) comparator fixture\n}\n";
    let report = audit_sources(&[(path.clone(), trailing.to_string())], None);
    assert_eq!(report.unwaived().count(), 0, "{:?}", report.findings);

    // A waiver with no reason does NOT suppress, and is itself a finding.
    let bare = "pub fn f(v: &mut [f64]) {\n    v.sort_by(|a, b| a.partial_cmp(b).unwrap()); // audit: allow(float-partial-cmp)\n}\n";
    let report = audit_sources(&[(path.clone(), bare.to_string())], None);
    assert!(report.unwaived().any(|f| f.rule == "float-partial-cmp"));
    assert!(report.unwaived().any(|f| f.rule == "waiver" && f.message.contains("no reason")));

    // A waiver that matches nothing is stale.
    let stale = "// audit: allow(float-partial-cmp) nothing here needs this\npub fn f() {}\n";
    let report = audit_sources(&[(path.clone(), stale.to_string())], None);
    assert!(report.unwaived().any(|f| f.rule == "waiver" && f.message.contains("stale")));

    // A waiver naming an unknown rule is a finding (typo protection).
    let typo = "pub fn f(v: &mut [f64]) {\n    v.sort_by(|a, b| a.partial_cmp(b).unwrap()); // audit: allow(float-partial-cpm) oops\n}\n";
    let report = audit_sources(&[(path, typo.to_string())], None);
    assert!(report.unwaived().any(|f| f.rule == "waiver" && f.message.contains("unknown rule")));
}

#[test]
fn test_code_is_exempt_from_scoped_rules() {
    // The same float-sum body inside #[cfg(test)] or a tests/ dir is fine.
    let in_cfg_test = "pub fn live() {}\n\n#[cfg(test)]\nmod tests {\n    pub fn f(v: &[f64]) -> f64 {\n        v.iter().sum::<f64>()\n    }\n}\n";
    let report =
        audit_sources(&[("crates/core/src/fix.rs".to_string(), in_cfg_test.to_string())], None);
    assert_eq!(report.unwaived().count(), 0, "{:?}", report.findings);

    let in_tests_dir = "pub fn f(v: &[f64]) -> f64 {\n    v.iter().sum::<f64>()\n}\n";
    let report =
        audit_sources(&[("crates/core/tests/fix.rs".to_string(), in_tests_dir.to_string())], None);
    assert_eq!(report.unwaived().count(), 0, "{:?}", report.findings);
}

#[test]
fn patterns_inside_literals_and_comments_never_fire() {
    let src = "pub fn f() -> &'static str {\n    // a.partial_cmp(b).unwrap() in a comment\n    /* m.lock().unwrap() Instant::now() */\n    \"v.iter().sum::<f64>() env::var Instant::now\"\n}\n";
    let report = audit_sources(&[("crates/core/src/fix.rs".to_string(), src.to_string())], None);
    assert_eq!(report.unwaived().count(), 0, "{:?}", report.findings);
}

#[test]
fn bench_and_examples_may_use_wall_clock_and_env() {
    let src = "use std::time::Instant;\npub fn f() -> u64 {\n    let _ = std::env::var(\"BENCH_KNOB\");\n    Instant::now().elapsed().as_nanos() as u64\n}\n";
    for path in ["crates/bench/src/bin/fix.rs", "crates/core/examples/fix.rs"] {
        let report = audit_sources(&[(path.to_string(), src.to_string())], None);
        assert!(
            !report.unwaived().any(|f| f.rule == "wall-clock" || f.rule == "env-read"),
            "{path}: {:?}",
            report.findings
        );
    }
}

#[test]
fn rule_filter_restricts_the_report() {
    let src = "use std::time::Instant;\npub fn f(v: &mut [f64]) -> u64 {\n    v.sort_by(|a, b| a.partial_cmp(b).unwrap());\n    Instant::now().elapsed().as_nanos() as u64\n}\n";
    let files = [("crates/core/src/fix.rs".to_string(), src.to_string())];
    let all = audit_sources(&files, None);
    assert!(all.unwaived().count() >= 2);
    let only = audit_sources(&files, Some("wall-clock"));
    assert!(only.findings.iter().all(|f| f.rule == "wall-clock"));
    assert_eq!(only.unwaived().count(), 1);
}

/// A tree carrying the real workspace's marker files (`dead-pub` runs
/// only there) plus `extra`.
fn marked_tree(extra: &[(&str, &str)]) -> Vec<(String, String)> {
    let mut files = vec![
        ("crates/core/src/lib.rs".to_string(), "pub mod x;\n".to_string()),
        ("crates/serve/src/lib.rs".to_string(), "fn main_loop() {}\n".to_string()),
    ];
    files.extend(extra.iter().map(|(p, s)| (p.to_string(), s.to_string())));
    files
}

fn dead_pub_names(files: &[(String, String)]) -> Vec<String> {
    audit_sources(files, Some("dead-pub"))
        .unwaived()
        .map(|f| format!("{}:{}", f.path, f.line))
        .collect()
}

#[test]
fn dead_pub_fires_only_when_no_non_test_code_names_the_item() {
    let item = ("crates/core/src/x.rs", "pub fn live_one() {}\n\npub fn orphan() {}\n");
    let caller = "fn main() {\n    revmax_core::x::live_one();\n}\n";

    // Nothing names either item: both fire, at their declaration lines.
    let got = dead_pub_names(&marked_tree(&[item]));
    assert_eq!(got, ["crates/core/src/x.rs:1", "crates/core/src/x.rs:3"]);

    // A bin, an example or the benchmark naming it keeps it live.
    for user in ["crates/bench/src/bin/b.rs", "examples/e.rs", "perfbench/bench/src/main.rs"] {
        let got = dead_pub_names(&marked_tree(&[item, (user, caller)]));
        assert_eq!(got, ["crates/core/src/x.rs:3"], "named from {user}");
    }

    // Test code does not: `tests/`, a `#[cfg(test)]` module, and a file
    // whose `mod` is declared under `#[cfg(test)]`.
    let cfg_test = "pub fn helper() {}\n\n#[cfg(test)]\nmod tests {\n    fn t() {\n        super::live_one();\n    }\n}\n";
    let test_mod_decl = "#[cfg(test)]\nmod oracle;\n";
    let test_mod_file = "fn t() {\n    crate::x::live_one();\n}\n";
    for extra in [
        vec![("crates/core/tests/t.rs", caller)],
        vec![("crates/core/src/y.rs", cfg_test)],
        vec![
            ("crates/core/src/y.rs", test_mod_decl),
            ("crates/core/src/y/oracle.rs", test_mod_file),
        ],
    ] {
        let mut files = vec![item];
        files.extend(extra.iter().copied());
        let got = dead_pub_names(&marked_tree(&files));
        assert!(got.contains(&"crates/core/src/x.rs:1".to_string()), "{extra:?}: {got:?}");
    }

    // A reasoned waiver suppresses it; bins and `pub(crate)` are out of scope.
    let waived =
        "// audit: allow(dead-pub) fixture oracle for the waiver path\npub fn orphan() {}\n";
    let bin = "pub fn in_a_bin() {}\n";
    let private = "pub(crate) fn in_crate() {}\n";
    let files = marked_tree(&[
        ("crates/core/src/x.rs", waived),
        ("crates/bench/src/bin/b.rs", bin),
        ("crates/core/src/z.rs", private),
    ]);
    let report = audit_sources(&files, None);
    assert_eq!(report.unwaived().count(), 0, "{:?}", report.findings);
    assert!(report.findings.iter().any(|f| f.rule == "dead-pub" && f.waived));

    // Without the marker files (fixture trees, the audit's self-scan) the
    // rule stays silent.
    let bare = [(item.0.to_string(), item.1.to_string())];
    assert!(dead_pub_names(&bare).is_empty());
}
