//! The structural rule tier: cross-file invariants that parse real
//! declarations out of the tree instead of pattern-matching lines.
//!
//! * `fingerprint-coverage` — every field of `Params` must be folded
//!   into its `fingerprint()` body, or carry a reasoned waiver.
//!   This turns the PR-9 bug (a new `Params::objective` field missing
//!   from `fingerprint()`, letting a CVaR solve hit a cached Mean solve)
//!   into a compile-gate.
//! * `opcode-totality` — every `REQ_*` opcode constant in
//!   `serve/src/proto.rs` must have a paired `RESP_*` constant and appear
//!   in both the encoder and the decoder; response opcodes likewise. A
//!   new opcode cannot ship half-wired.
//! * `event-totality` — every `MarketLog` `Event` variant must be
//!   handled by `MarketLog::apply` and by the wire codec
//!   (`encode_event`/`decode_event`), so churn events can neither be
//!   silently unapplied nor undecodable.
//! * `dead-pub` — a bare-`pub` item of a library crate whose name no
//!   non-test code anywhere in the tree names: public surface nothing
//!   calls. Names match as text, so a dead item whose name collides with
//!   a live one is missed, but a live item is never flagged.
//!
//! Parse failures are findings, not skips: renaming `Params` or moving
//! `fn fingerprint` without updating the audit fails the run instead of
//! silently disabling the gate.

use std::collections::HashMap;

use crate::context::FileCtx;
use crate::rules::Finding;

/// The files a structural rule wants, matched by path suffix against the
/// walked set. `marker` is a sibling that proves we are scanning the real
/// tree (so fixture trees and `crates/audit` self-scans skip cleanly,
/// but a missing target file in the real tree is a finding).
pub struct Targets<'a> {
    /// `(suffix, masked source, display path)` of every walked file.
    pub files: &'a [(String, String)],
}

impl<'a> Targets<'a> {
    fn find(&self, suffix: &str) -> Option<&(String, String)> {
        self.files.iter().find(|(path, _)| path.ends_with(suffix))
    }

    fn have(&self, suffix: &str) -> bool {
        self.files.iter().any(|(path, _)| path.ends_with(suffix))
    }
}

/// Run every structural rule over the walked files.
pub fn scan_structural(targets: &Targets<'_>) -> Vec<Finding> {
    let mut out = Vec::new();

    // fingerprint-coverage over Params.
    run_target(
        targets,
        "crates/core/src/params.rs",
        "crates/core/src/pricing.rs",
        &mut out,
        |path, masked, out| {
            fingerprint_coverage(path, masked, "Params", out);
        },
    );
    // event-totality: Event variants handled by MarketLog::apply…
    if let Some((path, masked)) = targets.find("crates/core/src/marketlog.rs") {
        let variants = enum_variants(masked, "Event");
        match &variants {
            Some(vs) => check_variants_in_fn(path, masked, "apply", vs, &mut out),
            None => out.push(parse_failure(path, "event-totality", "enum Event")),
        }
        // …and by the wire codec on the serve side.
        if let Some((ppath, pmasked)) = targets.find("crates/serve/src/proto.rs") {
            if let Some(vs) = &variants {
                check_variants_in_fn(ppath, pmasked, "encode_event", vs, &mut out);
                check_variants_in_fn(ppath, pmasked, "decode_event", vs, &mut out);
            }
        }
    }
    // opcode-totality over the wire protocol.
    run_target(
        targets,
        "crates/serve/src/proto.rs",
        "crates/serve/src/daemon.rs",
        &mut out,
        opcode_totality,
    );
    dead_pub(targets, &mut out);

    out
}

/// Run `check` on `suffix` when present; if absent but `marker` (another
/// file of the same crate) was walked, the target has been moved or
/// deleted out from under the gate — that is a finding.
fn run_target(
    targets: &Targets<'_>,
    suffix: &str,
    marker: &str,
    out: &mut Vec<Finding>,
    check: impl Fn(&str, &str, &mut Vec<Finding>),
) {
    if let Some((path, masked)) = targets.find(suffix) {
        check(path, masked, out);
    } else if targets.have(marker) {
        out.push(Finding {
            path: suffix.to_string(),
            line: 1,
            rule: "fingerprint-coverage",
            message: format!("structural target `{suffix}` not found in the scanned tree"),
            waived: false,
        });
    }
}

fn parse_failure(path: &str, rule: &'static str, what: &str) -> Finding {
    Finding {
        path: path.to_string(),
        line: 1,
        rule,
        message: format!("could not parse `{what}` — structural gate would be silently disabled"),
        waived: false,
    }
}

// ---------------------------------------------------------------------
// fingerprint-coverage

/// Fields of `struct <name>` must each appear as `self.<field>` in the
/// file's `fn fingerprint` body.
fn fingerprint_coverage(path: &str, masked: &str, struct_name: &str, out: &mut Vec<Finding>) {
    let Some(fields) = struct_fields(masked, struct_name) else {
        out.push(parse_failure(path, "fingerprint-coverage", &format!("struct {struct_name}")));
        return;
    };
    let Some(body) = fn_body(masked, "fingerprint") else {
        out.push(parse_failure(path, "fingerprint-coverage", "fn fingerprint"));
        return;
    };
    for (line, field) in fields {
        if !token_present(&body, &format!("self.{field}")) {
            out.push(Finding {
                path: path.to_string(),
                line,
                rule: "fingerprint-coverage",
                message: format!(
                    "field `{field}` of `{struct_name}` is not folded into fingerprint() — \
                     two configs differing only here would collide in the solve cache (PR 9)"
                ),
                waived: false,
            });
        }
    }
}

/// `(1-based line, name)` of each field of `struct <name> {…}`.
fn struct_fields(masked: &str, name: &str) -> Option<Vec<(usize, String)>> {
    // Token-exact: `struct Params` must not match `struct ParamsBuilder`.
    let decl = format!("struct {name}");
    let mut pos = None;
    let mut from = 0usize;
    while let Some(k) = masked[from..].find(&decl) {
        let at = from + k;
        let end = at + decl.len();
        let next = masked.as_bytes().get(end).copied().unwrap_or(b' ');
        if !(next.is_ascii_alphanumeric() || next == b'_') {
            pos = Some(at);
            break;
        }
        from = end;
    }
    let pos = pos?;
    let open = masked[pos..].find('{')? + pos;
    let body = brace_span(masked, open)?;
    let base_line = line_at(masked, open);
    let mut fields = Vec::new();
    let mut depth = 0i32;
    for (k, raw_line) in body.lines().enumerate() {
        let line = raw_line.trim();
        if depth == 0 {
            let line = line.strip_prefix("pub ").unwrap_or(line);
            if let Some(colon) = line.find(':') {
                let head = line[..colon].trim();
                if !head.is_empty()
                    && head
                        .bytes()
                        .all(|b| b.is_ascii_lowercase() || b.is_ascii_digit() || b == b'_')
                {
                    fields.push((base_line + k, head.to_string()));
                }
            }
        }
        for b in raw_line.bytes() {
            match b {
                b'{' | b'(' | b'<' => depth += 1,
                b'}' | b')' | b'>' => depth -= 1,
                _ => {}
            }
        }
    }
    Some(fields)
}

// ---------------------------------------------------------------------
// enum / fn parsing shared by the totality rules

/// Variant names of `pub enum <name> {…}`.
fn enum_variants(masked: &str, name: &str) -> Option<Vec<String>> {
    let pos = masked.find(&format!("enum {name} "))?;
    let open = masked[pos..].find('{')? + pos;
    let body = brace_span(masked, open)?;
    let mut vars = Vec::new();
    let mut depth = 0i32;
    for raw_line in body.lines() {
        let line = raw_line.trim();
        if depth == 0 {
            let head: String = line
                .bytes()
                .take_while(|b| b.is_ascii_alphanumeric() || *b == b'_')
                .map(char::from)
                .collect();
            if !head.is_empty() && head.as_bytes()[0].is_ascii_uppercase() {
                vars.push(head);
            }
        }
        for b in raw_line.bytes() {
            match b {
                b'{' | b'(' => depth += 1,
                b'}' | b')' => depth -= 1,
                _ => {}
            }
        }
    }
    if vars.is_empty() {
        None
    } else {
        Some(vars)
    }
}

fn check_variants_in_fn(
    path: &str,
    masked: &str,
    fn_name: &str,
    variants: &[String],
    out: &mut Vec<Finding>,
) {
    let Some(body) = fn_body(masked, fn_name) else {
        out.push(parse_failure(path, "event-totality", &format!("fn {fn_name}")));
        return;
    };
    for v in variants {
        if !token_present(&body, &format!("Event::{v}")) {
            out.push(Finding {
                path: path.to_string(),
                line: line_at(masked, masked.find(&format!("fn {fn_name}")).unwrap_or(0)),
                rule: "event-totality",
                message: format!(
                    "`Event::{v}` is not handled in `{fn_name}` — churn events must \
                                  be total across apply and the wire codec"
                ),
                waived: false,
            });
        }
    }
}

/// Body text of `fn <name>(…) {…}` (first occurrence of the definition).
fn fn_body(masked: &str, name: &str) -> Option<String> {
    let pat = format!("fn {name}(");
    let pos = masked.find(&pat)?;
    let open = masked[pos..].find('{')? + pos;
    brace_span(masked, open).map(|s| s.to_string())
}

/// The text between the brace at `open` and its match (exclusive).
fn brace_span(masked: &str, open: usize) -> Option<&str> {
    let bytes = masked.as_bytes();
    debug_assert_eq!(bytes[open], b'{');
    let mut depth = 0usize;
    for (k, &b) in bytes.iter().enumerate().skip(open) {
        match b {
            b'{' => depth += 1,
            b'}' => {
                depth -= 1;
                if depth == 0 {
                    return Some(&masked[open + 1..k]);
                }
            }
            _ => {}
        }
    }
    // Unbalanced (masked mid-edit): take the rest.
    Some(&masked[open + 1..])
}

fn line_at(s: &str, pos: usize) -> usize {
    s[..pos].bytes().filter(|&b| b == b'\n').count() + 1
}

/// Token-boundary `contains`.
fn token_present(hay: &str, token: &str) -> bool {
    let mut from = 0usize;
    let bytes = hay.as_bytes();
    while let Some(k) = hay[from..].find(token) {
        let at = from + k;
        let end = at + token.len();
        let ok_before =
            at == 0 || !(bytes[at - 1].is_ascii_alphanumeric() || bytes[at - 1] == b'_');
        let ok_after =
            end >= bytes.len() || !(bytes[end].is_ascii_alphanumeric() || bytes[end] == b'_');
        if ok_before && ok_after {
            return true;
        }
        from = at + token.len();
    }
    false
}

// ---------------------------------------------------------------------
// opcode-totality

fn opcode_totality(path: &str, masked: &str, out: &mut Vec<Finding>) {
    let reqs = opcode_consts(masked, "REQ_");
    let resps = opcode_consts(masked, "RESP_");
    if reqs.is_empty() || resps.is_empty() {
        out.push(parse_failure(path, "opcode-totality", "REQ_/RESP_ opcode constant tables"));
        return;
    }
    let enc_req = fn_body(masked, "encode_request");
    let dec_req = fn_body(masked, "decode_request");
    let enc_resp = fn_body(masked, "encode_response");
    let dec_resp = fn_body(masked, "decode_response");
    for (body, what) in [
        (&enc_req, "encode_request"),
        (&dec_req, "decode_request"),
        (&enc_resp, "encode_response"),
        (&dec_resp, "decode_response"),
    ] {
        if body.is_none() {
            out.push(parse_failure(path, "opcode-totality", &format!("fn {what}")));
        }
    }

    let mut push = |line: usize, message: String| {
        out.push(Finding {
            path: path.to_string(),
            line,
            rule: "opcode-totality",
            message,
            waived: false,
        });
    };

    for (line, name, value) in &reqs {
        if *value >= 0x80 {
            push(
                *line,
                format!("request opcode {name} = {value:#04x} is in the response range (≥ 0x80)"),
            );
        }
        let suffix = name.trim_start_matches("REQ_");
        if !resps.iter().any(|(_, n, _)| n.trim_start_matches("RESP_") == suffix) {
            push(
                *line,
                format!(
                    "{name} has no paired RESP_{suffix} — every request needs a response opcode"
                ),
            );
        }
        for (body, what) in [(&enc_req, "encode_request"), (&dec_req, "decode_request")] {
            if let Some(b) = body {
                if !token_present(b, name) {
                    push(*line, format!("{name} is not used in {what} — a request opcode cannot ship half-wired"));
                }
            }
        }
    }
    for (line, name, value) in &resps {
        if *value < 0x80 {
            push(
                *line,
                format!("response opcode {name} = {value:#04x} is in the request range (< 0x80)"),
            );
        }
        for (body, what) in [(&enc_resp, "encode_response"), (&dec_resp, "decode_response")] {
            if let Some(b) = body {
                if !token_present(b, name) {
                    push(*line, format!("{name} is not used in {what} — a response opcode cannot ship half-wired"));
                }
            }
        }
    }
    // Duplicate opcode values within a side are ambiguous on the wire.
    for side in [&reqs, &resps] {
        for (i, (line, name, value)) in side.iter().enumerate() {
            if side[..i].iter().any(|(_, _, v)| v == value) {
                push(*line, format!("{name} reuses opcode value {value:#04x}"));
            }
        }
    }
}

/// `(line, name, value)` of each `pub const <prefix>NAME: u8 = <value>;`.
fn opcode_consts(masked: &str, prefix: &str) -> Vec<(usize, String, u32)> {
    let mut out = Vec::new();
    for (k, raw_line) in masked.lines().enumerate() {
        let line = raw_line.trim();
        let Some(rest) = line.strip_prefix("pub const ") else { continue };
        if !rest.starts_with(prefix) {
            continue;
        }
        let Some(colon) = rest.find(':') else { continue };
        let name = rest[..colon].trim().to_string();
        let Some(eq) = rest.find('=') else { continue };
        let value_text = rest[eq + 1..].trim().trim_end_matches(';').trim();
        let value = if let Some(hex) = value_text.strip_prefix("0x") {
            u32::from_str_radix(hex, 16).ok()
        } else {
            value_text.parse::<u32>().ok()
        };
        if let Some(v) = value {
            out.push((k + 1, name, v));
        }
    }
    out
}

// ---------------------------------------------------------------------
// dead-pub

/// Files only the real workspace carries. Single-file fixtures and the
/// `crates/audit` self-scan, full of unnamed `pub fn f`, lack them.
const DEAD_PUB_MARKERS: [&str; 2] = ["crates/core/src/lib.rs", "crates/serve/src/lib.rs"];

/// Every bare-`pub` item under `crates/*/src` (bins excluded) must be
/// named by non-test code besides its own declaration. Test code is what
/// the textual rules exempt — `tests/`, `benches/`, `#[cfg(test)]` spans
/// — plus the files of modules declared under `#[cfg(test)]`.
fn dead_pub(targets: &Targets<'_>, out: &mut Vec<Finding>) {
    if !DEAD_PUB_MARKERS.iter().all(|m| targets.have(m)) {
        return;
    }
    let test_mods = cfg_test_modules(targets.files);
    let mut uses: HashMap<&str, usize> = HashMap::new();
    let mut decls = Vec::new();
    for (path, masked) in targets.files {
        let ctx = FileCtx::classify(path, masked);
        let in_test_mod = |m: &String| {
            path.strip_prefix(m.as_str()).is_some_and(|r| r == ".rs" || r.starts_with('/'))
        };
        if test_mods.iter().any(in_test_mod) {
            continue;
        }
        for (line, text) in (1..).zip(masked.lines()).filter(|(k, _)| !ctx.is_test_line(*k)) {
            idents(text).for_each(|id| *uses.entry(id).or_default() += 1);
            if let Some(name) = pub_item(text).filter(|_| library_source(path)) {
                decls.push((path, line, name));
            }
        }
    }
    for (path, line, name) in decls {
        // The declaration itself is one use.
        if uses[name] == 1 {
            out.push(Finding {
                path: path.clone(),
                line,
                rule: "dead-pub",
                message: format!(
                    "pub item `{name}` is named by no non-test code — delete it, make it \
                     #[cfg(test)], or waive it with the test oracle it serves"
                ),
                waived: false,
            });
        }
    }
}

/// `crates/<name>/src/…` outside `src/bin/` and `src/main.rs`.
fn library_source(path: &str) -> bool {
    let Some((_, rest)) = path.split_once("crates/") else { return false };
    let mut comps = rest.split('/').skip(1);
    comps.next() == Some("src") && !matches!(comps.next(), None | Some("bin" | "main.rs"))
}

/// Path stems (`…/src/m`) of the modules declared `#[cfg(test)]` then
/// `mod m;` on the next non-attribute line.
fn cfg_test_modules(files: &[(String, String)]) -> Vec<String> {
    let mut out = Vec::new();
    for (path, masked) in files {
        let mut lines = masked.lines().map(str::trim);
        while let Some(line) = lines.next() {
            if line != "#[cfg(test)]" {
                continue;
            }
            let decl = lines.find(|l| !l.starts_with("#[")).unwrap_or("");
            let decl = decl.strip_prefix("pub(crate) ").unwrap_or(decl);
            let Some(name) = decl.strip_prefix("mod ").and_then(|d| d.strip_suffix(';')) else {
                continue;
            };
            // `lib.rs`, `main.rs` and `mod.rs` own their directory; `x.rs` owns `x/`.
            let (dir, file) = path.rsplit_once('/').unwrap_or(("", path));
            let owner = match file {
                "lib.rs" | "main.rs" | "mod.rs" => dir,
                _ => path.trim_end_matches(".rs"),
            };
            out.push(format!("{owner}/{}", name.trim()));
        }
    }
    out
}

/// Identifiers in a masked line (number literals skipped).
fn idents(line: &str) -> impl Iterator<Item = &str> {
    line.split(|c: char| !(c.is_ascii_alphanumeric() || c == '_'))
        .filter(|w| w.as_bytes().first().is_some_and(|b| !b.is_ascii_digit()))
}

/// The name of a bare-`pub` fn/struct/enum/trait/type/const/static
/// declared on `line`; `pub(crate)`, `pub mod` and `pub use` are not items
/// of this rule.
fn pub_item(line: &str) -> Option<&str> {
    let rest = line.trim_start().strip_prefix("pub ")?;
    let mut words = idents(rest).skip_while(|w| matches!(*w, "unsafe" | "async" | "extern"));
    match words.next()? {
        "fn" | "struct" | "enum" | "trait" | "type" => words.next(),
        // `const fn f`, `const unsafe fn f`, `const N`, `static mut S`.
        "const" | "static" => match words.find(|w| !matches!(*w, "unsafe" | "mut"))? {
            "fn" => words.next(),
            name => Some(name),
        },
        _ => None,
    }
}
