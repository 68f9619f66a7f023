//! The textual rule tier: each rule mechanizes one bug class this repo
//! has actually shipped and fixed (`DESIGN.md` §14 maps rule → PR). All
//! patterns run over the *masked* source ([`crate::lexer::mask_source`]),
//! so occurrences inside comments and string literals never fire.

use crate::context::FileCtx;
use crate::lexer::Lexed;

/// One reported rule violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    pub path: String,
    /// 1-based line.
    pub line: usize,
    pub rule: &'static str,
    pub message: String,
    /// Suppressed by a reasoned inline waiver. Waived findings are kept
    /// (they feed the stale-waiver check and the JSON export) but do not
    /// fail the run.
    pub waived: bool,
}

/// Every rule name the engine knows, for `rule=` validation and docs.
pub const RULES: &[&str] = &[
    "float-partial-cmp",
    "float-sum",
    "lock-unwrap",
    "unordered-iter",
    "wall-clock",
    "env-read",
    "fingerprint-coverage",
    "opcode-totality",
    "event-totality",
    "dead-pub",
    "waiver",
];

/// A parsed `// audit: allow(<rule>) <reason>` comment.
#[derive(Debug, Clone)]
pub struct Waiver {
    pub line: usize,
    pub rule: String,
    pub reason: String,
    pub used: bool,
}

pub const WAIVER_TOKEN: &str = "audit: allow(";

/// Parse waivers out of the lexer's comment list. A waiver must *start*
/// the comment (`// audit: allow(rule) why`) — mentioning the syntax
/// mid-sentence (docs, this file) does not create one.
pub fn parse_waivers(lexed: &Lexed) -> Vec<Waiver> {
    let mut out = Vec::new();
    for c in &lexed.comments {
        let text = c.text.trim_start();
        if !text.starts_with(WAIVER_TOKEN) {
            continue;
        }
        let rest = &text[WAIVER_TOKEN.len()..];
        let Some(close) = rest.find(')') else { continue };
        let rule = rest[..close].trim().to_string();
        let reason = rest[close + 1..].trim().to_string();
        out.push(Waiver { line: c.line, rule, reason, used: false });
    }
    out
}

/// Apply waivers to `findings` (a waiver on line `L` covers findings on
/// `L` and `L+1`, i.e. trailing comments and own-line comments directly
/// above). Then emit the waiver-hygiene findings: a waiver without a
/// reason, and a waiver that suppressed nothing (stale), are themselves
/// findings — waivers must stay justified and live.
pub fn apply_waivers(path: &str, findings: &mut Vec<Finding>, waivers: &mut [Waiver]) {
    for f in findings.iter_mut() {
        if let Some(w) = waivers
            .iter_mut()
            .find(|w| w.rule == f.rule && (w.line == f.line || w.line + 1 == f.line))
        {
            w.used = true;
            if !w.reason.is_empty() {
                f.waived = true;
            }
        }
    }
    for w in waivers.iter() {
        if !RULES.contains(&w.rule.as_str()) {
            findings.push(Finding {
                path: path.to_string(),
                line: w.line,
                rule: "waiver",
                message: format!("waiver names unknown rule `{}`", w.rule),
                waived: false,
            });
        } else if w.reason.is_empty() {
            findings.push(Finding {
                path: path.to_string(),
                line: w.line,
                rule: "waiver",
                message: format!(
                    "waiver for `{}` has no reason — write `// audit: allow({}) <why>`",
                    w.rule, w.rule
                ),
                waived: false,
            });
        } else if !w.used {
            findings.push(Finding {
                path: path.to_string(),
                line: w.line,
                rule: "waiver",
                message: format!("stale waiver: no `{}` finding on this or the next line", w.rule),
                waived: false,
            });
        }
    }
}

/// Run every textual rule over one masked file.
pub fn scan_file(ctx: &FileCtx, masked: &str) -> Vec<Finding> {
    let mut out = Vec::new();
    let line_starts = line_starts(masked);
    let hash_idents = collect_hash_idents(masked);

    let mut push = |pos: usize, rule: &'static str, message: String| {
        let line = line_of(&line_starts, pos);
        if !ctx.is_test_line(line) {
            out.push(Finding { path: ctx.rel.clone(), line, rule, message, waived: false });
        }
    };

    // --- float-partial-cmp (PR 5: NaN panicked the solve) --------------
    // `partial_cmp` whose result is force-unwrapped in the same
    // statement. Applies everywhere: a NaN reaching a comparator panics
    // the process no matter which crate it lives in.
    for pos in occurrences(masked, "partial_cmp") {
        let span = forward_span(masked, pos + "partial_cmp".len());
        if span.contains(".unwrap()") || span.contains(".expect(") {
            push(
                pos,
                "float-partial-cmp",
                "partial_cmp + unwrap/expect panics on NaN; sort/compare floats with total_cmp"
                    .into(),
            );
        }
    }

    if ctx.determinism_crate() {
        // --- float-sum (PR 5: f64 Iterator::sum folds from -0.0) -------
        for pos in occurrences(masked, ".sum") {
            let after = &masked[pos + 4..];
            let explicit_f64 = after.starts_with("::<f64>()");
            let plain = after.starts_with("()");
            if explicit_f64 || (plain && backward_span(masked, pos).contains("f64")) {
                push(
                    pos,
                    "float-sum",
                    "f64 Iterator::sum starts from -0.0; fold explicitly from +0.0 \
                     (`.fold(0.0, |a, x| a + x)`)"
                        .into(),
                );
            }
        }

        // --- lock-unwrap (PR 7: one poisoned lock killed every reader) -
        for pat in [".lock()", ".read()", ".write()"] {
            for pos in occurrences(masked, pat) {
                let span = forward_span(masked, pos + pat.len());
                if span.starts_with(".unwrap()") || span.starts_with(".expect(") {
                    push(
                        pos,
                        "lock-unwrap",
                        format!(
                            "{pat} + unwrap/expect propagates lock poisoning; recover with \
                             `.unwrap_or_else(|p| p.into_inner())` (DESIGN.md §11)"
                        ),
                    );
                }
            }
        }

        // --- unordered-iter (order nondeterminism in result paths) -----
        for pat in [".iter()", ".keys()", ".values()", ".into_iter()", ".drain(", ".retain("] {
            for pos in occurrences(masked, pat) {
                if let Some(recv) = receiver_ident(masked, pos) {
                    if hash_idents.contains(&recv) {
                        push(
                            pos,
                            "unordered-iter",
                            format!(
                                "`{recv}` is a HashMap/HashSet — iteration order is \
                                 nondeterministic; use a BTree collection or sort the output"
                            ),
                        );
                    }
                }
            }
        }
        for (line_idx, line) in masked.lines().enumerate() {
            if let Some(ident) = for_loop_hash_target(line, &hash_idents) {
                let pos = line_starts[line_idx];
                push(
                    pos,
                    "unordered-iter",
                    format!(
                        "`for` over HashMap/HashSet `{ident}` observes nondeterministic order; \
                         use a BTree collection or sort first"
                    ),
                );
            }
        }
    }

    // --- wall-clock (results must be a pure function of inputs) --------
    if !ctx.bench_crate() && !ctx.example {
        for pat in ["Instant::now", "SystemTime"] {
            for pos in occurrences(masked, pat) {
                push(
                    pos,
                    "wall-clock",
                    format!(
                        "{pat} outside bench/histogram code — wall-clock must never reach results"
                    ),
                );
            }
        }
    }

    // --- env-read (hidden global inputs) --------------------------------
    if !ctx.bench_crate() && !ctx.example {
        for pos in occurrences(masked, "env::var") {
            push(
                pos,
                "env-read",
                "std::env::var outside the sanctioned knobs — environment must not steer results"
                    .into(),
            );
        }
    }

    out
}

// ---------------------------------------------------------------------
// helpers

/// Byte offsets of each line start.
fn line_starts(s: &str) -> Vec<usize> {
    let mut v = vec![0usize];
    for (i, b) in s.bytes().enumerate() {
        if b == b'\n' {
            v.push(i + 1);
        }
    }
    v
}

/// 1-based line of byte offset `pos`.
fn line_of(starts: &[usize], pos: usize) -> usize {
    starts.partition_point(|&s| s <= pos)
}

/// All byte offsets where `pat` occurs as a whole token (the byte before
/// and after must not extend an identifier).
fn occurrences(hay: &str, pat: &str) -> Vec<usize> {
    let mut out = Vec::new();
    let bytes = hay.as_bytes();
    let pb = pat.as_bytes();
    let boundary_before = pb[0].is_ascii_alphanumeric() || pb[0] == b'_';
    let boundary_after = {
        let last = pb[pb.len() - 1];
        last.is_ascii_alphanumeric() || last == b'_'
    };
    let mut from = 0usize;
    while let Some(k) = hay[from..].find(pat) {
        let at = from + k;
        let ok_before = !boundary_before
            || at == 0
            || !(bytes[at - 1].is_ascii_alphanumeric() || bytes[at - 1] == b'_');
        let end = at + pat.len();
        let ok_after = !boundary_after
            || end >= bytes.len()
            || !(bytes[end].is_ascii_alphanumeric() || bytes[end] == b'_');
        if ok_before && ok_after {
            out.push(at);
        }
        from = at + pat.len();
    }
    out
}

/// The statement tail from `pos`: up to the next `;`, `{` or `}` (or 240
/// bytes), whitespace collapsed so chains split across lines still match.
fn forward_span(s: &str, pos: usize) -> String {
    let end = (pos + 240).min(s.len());
    let tail = &s[pos..floor_char_boundary(s, end)];
    let cut = tail.find([';', '{', '}']).unwrap_or(tail.len());
    tail[..cut].split_whitespace().collect::<Vec<_>>().join("")
}

/// The statement head before `pos`: back to the previous `;`, `{`, `}`
/// or match-arm `=>` (or 240 bytes). `=>` is a boundary so a match arm
/// never drags the previous arm's text into its span; `,` is not, so
/// closure parameter lists stay intact.
fn backward_span(s: &str, pos: usize) -> String {
    let start = pos.saturating_sub(240);
    let head = &s[ceil_char_boundary(s, start)..pos];
    let cut = head
        .rfind([';', '{', '}'])
        .map(|k| k + 1)
        .into_iter()
        .chain(head.rfind("=>").map(|k| k + 2))
        .max()
        .unwrap_or(0);
    head[cut..].to_string()
}

fn floor_char_boundary(s: &str, mut i: usize) -> usize {
    while i > 0 && !s.is_char_boundary(i) {
        i -= 1;
    }
    i
}

fn ceil_char_boundary(s: &str, mut i: usize) -> usize {
    while i < s.len() && !s.is_char_boundary(i) {
        i += 1;
    }
    i
}

/// Identifiers bound to `HashMap`/`HashSet` in this file: `let` bindings
/// and struct fields whose declared statement names the type.
fn collect_hash_idents(masked: &str) -> Vec<String> {
    let mut out: Vec<String> = Vec::new();
    for pat in ["HashMap", "HashSet"] {
        for pos in occurrences(masked, pat) {
            let head = backward_span(masked, pos);
            let trimmed = head.trim_start();
            // `let [mut] name[: Type] = …` — name is the token after let.
            if let Some(rest) = trimmed.strip_prefix("let ") {
                let rest = rest.trim_start().strip_prefix("mut ").unwrap_or(rest.trim_start());
                if let Some(name) = leading_ident(rest.trim_start()) {
                    out.push(name);
                    continue;
                }
            }
            // Struct field `name: …HashMap<…>` — head is everything after
            // the previous `,`/`{`; take the token before the first `:`.
            let field_head = trimmed.rsplit(',').next().unwrap_or(trimmed).trim_start();
            let field_head = field_head.strip_prefix("pub ").unwrap_or(field_head);
            if let Some(colon) = field_head.find(':') {
                if let Some(name) = leading_ident(field_head[..colon].trim()) {
                    if field_head[..colon].trim() == name {
                        out.push(name);
                    }
                }
            }
        }
    }
    out.sort();
    out.dedup();
    out
}

/// The identifier starting at the head of `s`, if any.
fn leading_ident(s: &str) -> Option<String> {
    let end = s.bytes().position(|b| !(b.is_ascii_alphanumeric() || b == b'_')).unwrap_or(s.len());
    if end == 0 || s.as_bytes()[0].is_ascii_digit() {
        None
    } else {
        Some(s[..end].to_string())
    }
}

/// For a method occurrence at `pos` (the `.`), walk back over the
/// receiver chain and return its final path segment (`self.map.retain` →
/// `map`).
fn receiver_ident(masked: &str, pos: usize) -> Option<String> {
    let bytes = masked.as_bytes();
    let mut i = pos;
    while i > 0 {
        let b = bytes[i - 1];
        if b.is_ascii_alphanumeric() || b == b'_' || b == b'.' {
            i -= 1;
        } else {
            break;
        }
    }
    let chain = &masked[i..pos];
    let last = chain.rsplit('.').next()?;
    if last.is_empty() || last.as_bytes()[0].is_ascii_digit() {
        None
    } else {
        Some(last.to_string())
    }
}

/// `for … in <ident> {` / `for … in &<ident> {` where `<ident>` is a
/// hash collection — the iterated expression must be exactly the ident.
fn for_loop_hash_target(line: &str, hash_idents: &[String]) -> Option<String> {
    let trimmed = line.trim_start();
    let rest = trimmed.strip_prefix("for ")?;
    let in_at = rest.find(" in ")?;
    let mut expr = rest[in_at + 4..].trim();
    if let Some(brace) = expr.find('{') {
        expr = expr[..brace].trim();
    }
    expr = expr.strip_prefix('&').unwrap_or(expr);
    expr = expr.strip_prefix("mut ").unwrap_or(expr).trim();
    expr = expr.strip_prefix("self.").unwrap_or(expr);
    if hash_idents.iter().any(|h| h == expr) {
        Some(expr.to_string())
    } else {
        None
    }
}
