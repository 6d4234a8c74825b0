//! The audit rule set and per-file rule engine.
//!
//! Rules (see DESIGN.md "Determinism invariants & enforcement"):
//!
//! * **DET01** — no `HashMap`/`HashSet` in determinism-critical crates:
//!   their iteration order depends on a randomly seeded hasher, so any
//!   loop over one silently breaks bit-for-bit reproducibility. Use
//!   `BTreeMap`/`BTreeSet`.
//! * **DET02** — no wall-clock or OS-entropy sources (`Instant::now`,
//!   `SystemTime`, `thread_rng`, `from_entropy`) outside `crates/bench`
//!   and `crates/svc`: every random draw must come from a named seeded
//!   nonce stream. Sockets (`UdpSocket`, `TcpListener`, `TcpStream`)
//!   are DET02 hazards too, and for them **only** `crates/svc` is
//!   sanctioned — the service daemon is the one place real network I/O
//!   may exist; even `crates/bench` must drive it through `ices-svc`.
//! * **DET03** — no raw `thread::spawn`/`thread::scope`/`thread::Builder`
//!   outside `crates/par` and `crates/svc`: simulation parallelism goes
//!   through `ices-par`, whose entry points are order-preserving by
//!   construction (the persistent worker pool included — its named
//!   `Builder` spawns live in par). The svc daemon's socket loop (its
//!   loopback tests run it on a thread of its own) is real concurrency
//!   by design and never touches simulation state.
//! * **PANIC01** — no `.unwrap()`/`.expect(` in non-test library code
//!   (tests, examples, and binaries are exempt): probe/detector paths
//!   must degrade through `Result`s, not abort a simulation.
//! * **SAFE01** — every crate root carries `#![forbid(unsafe_code)]`.
//!   Sole exception: `crates/par` may carry `#![deny(unsafe_code)]`
//!   instead — its worker pool erases closure lifetimes behind a
//!   completion barrier, and that one audited module opts in with
//!   `#[allow(unsafe_code)]` while the rest of the crate stays denied.
//! * **OBS01** — no wall-clock or entropy source anywhere in
//!   `crates/obs`: observability time flows exclusively through the
//!   `ices_obs::Clock` trait, and the only wall-clock impl of it lives
//!   in `crates/svc` (`ServiceClock`). Inside `crates/obs` this
//!   rule supersedes DET02 — same triggers, sharper message.
//! * **ALLOW01** — a malformed `audit:allow` (unknown rule or missing
//!   reason). Never suppressible: the reason *is* the audit trail.
//!
//! A finding is suppressed only by an inline
//! `// audit:allow(RULE): reason` comment on the same line or the line
//! above; the mandatory reason feeds the allowlist inventory.

use crate::lexer::{lex, Comment, TokKind, Token};
use crate::tree::{self, Tree};
use serde::Serialize;
use std::collections::BTreeSet;

/// Rule identifiers in report order.
pub const RULE_IDS: [&str; 11] = [
    "DET01", "DET02", "DET03", "PANIC01", "PANIC02", "SAFE01", "OBS01", "OBS02", "STREAM01",
    "ALLOW01", "ALLOW02",
];

/// The parallel entry points whose closures OBS02 polices: everything
/// dispatched through them runs inside the parallel phase, where obs
/// writes are forbidden (DESIGN.md "Observability architecture").
pub const PAR_ENTRY_POINTS: [&str; 4] = ["par_map", "par_map_mut", "par_for_indices", "broadcast"];

/// Obs mutation surface: registry writes plus journal record methods.
/// A call to any of these inside a parallel closure is an OBS02 finding.
pub const OBS_MUTATORS: [&str; 10] = [
    "inc",
    "add",
    "set",
    "observe",
    "meta",
    "tick",
    "phase",
    "node_event",
    "pair_event",
    "summary",
];

/// Seeded-stream constructors STREAM01 watches the argument lists of
/// (for 4-char string/byte-string tags; ASCII-hex tag literals are
/// flagged wherever they appear).
pub const STREAM_CTORS: [&str; 6] = [
    "stream_rng",
    "stream_rng2",
    "from_stream",
    "derive",
    "derive2",
    "splitmix64",
];

/// Crates whose simulation state must stay bit-for-bit reproducible.
/// (`stats` is the seeded-RNG substrate itself and `bench` is wall-clock
/// territory by design; `adhoc` is the context explicit CLI paths get,
/// which arms every rule.)
pub const DETERMINISM_CRITICAL: [&str; 11] = [
    "coord", "netsim", "vivaldi", "nps", "core", "attack", "sim", "par", "obs", "ices", "adhoc",
];

/// How a file participates in its crate (decides PANIC01 exemptions).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FileKind {
    /// Library code: every rule applies.
    Lib,
    /// `src/bin/*` or `src/main.rs`: PANIC01 exempt.
    Bin,
}

/// Where a file sits in the workspace, for rule applicability.
#[derive(Debug, Clone)]
pub struct FileContext {
    /// Workspace-relative path, forward slashes (used in findings).
    pub path: String,
    /// Crate directory name (`core`, `sim`, ...; `ices` for the root
    /// facade crate, `adhoc` for explicit CLI paths).
    pub crate_name: String,
    pub kind: FileKind,
    /// Is this a crate root (`src/lib.rs`), where SAFE01 applies?
    pub is_crate_root: bool,
    /// Is this the stream-tag registry (`crates/stats/src/streams.rs`),
    /// the one file allowed to declare 4-byte tag literals?
    pub is_registry: bool,
}

/// How severe a finding is: errors fail the audit, warnings are
/// advisory (ALLOW02 by default, and baselined findings).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Severity {
    /// Fails the audit (exit 1) unless suppressed.
    Error,
    /// Reported but never fails the audit.
    Warn,
}

impl Severity {
    /// Lowercase wire/report name.
    pub fn as_str(self) -> &'static str {
        match self {
            Severity::Error => "error",
            Severity::Warn => "warn",
        }
    }
}

impl Serialize for Severity {
    fn to_value(&self) -> serde::Value {
        serde::Value::Str(self.as_str().to_string())
    }
}

/// One rule violation.
#[derive(Debug, Clone, Serialize)]
pub struct Finding {
    pub file: String,
    pub line: u32,
    pub rule: String,
    pub message: String,
    /// True when an `audit:allow` covers this finding.
    pub suppressed: bool,
    /// The allow's reason when suppressed (empty otherwise).
    pub reason: String,
    /// Error findings gate the exit code; warnings are advisory.
    pub severity: Severity,
}

/// One `audit:allow(RULE): reason` comment, for the inventory.
#[derive(Debug, Clone, Serialize)]
pub struct AllowEntry {
    pub file: String,
    pub line: u32,
    pub rule: String,
    pub reason: String,
    /// Did any finding actually use this suppression?
    pub used: bool,
    /// First line this allow covers (its own first line).
    pub cover_from: u32,
    /// Last line this allow covers (the line after its last line, so
    /// both trailing and standalone comment placements work).
    pub cover_to: u32,
}

/// Everything the engine learned about one file.
#[derive(Debug, Default)]
pub struct FileReport {
    pub findings: Vec<Finding>,
    pub allows: Vec<AllowEntry>,
    /// Raw material for the cross-crate STREAM01 pass.
    pub streams: StreamFacts,
}

/// One 4-byte stream-tag literal occurrence (outside the registry).
#[derive(Debug, Clone)]
pub struct TagSite {
    /// 1-based line of the literal.
    pub line: u32,
    /// The decoded tag value.
    pub value: u64,
    /// The literal as written (`0x5649_4354`, `"VICT"`, `b"VICT"`).
    pub text: String,
}

/// One `pub const NAME: u64 = 0x...;` declaration in the registry.
#[derive(Debug, Clone)]
pub struct TagDecl {
    /// 1-based line of the declaration.
    pub line: u32,
    /// The constant's name.
    pub name: String,
    /// The declared tag value.
    pub value: u64,
}

/// Per-file raw material for the cross-crate STREAM01 analysis.
#[derive(Debug, Default)]
pub struct StreamFacts {
    /// Tag literals minted in this file (empty for the registry).
    pub sites: Vec<TagSite>,
    /// Registry declarations (empty unless `ctx.is_registry`).
    pub decls: Vec<TagDecl>,
    /// Every identifier spelled in this file — the usage side of the
    /// dead-registry-constant check.
    pub idents: BTreeSet<String>,
}

fn ident_at(tokens: &[Token], i: usize) -> Option<&str> {
    match tokens.get(i).map(|t| &t.kind) {
        Some(TokKind::Ident(w)) => Some(w.as_str()),
        _ => None,
    }
}

fn punct_at(tokens: &[Token], i: usize) -> Option<char> {
    match tokens.get(i).map(|t| &t.kind) {
        Some(TokKind::Punct(c)) => Some(*c),
        _ => None,
    }
}

/// Parse the attribute starting at `tokens[i]` (`#` `[` ...): returns
/// (index after the closing `]`, compact rendering like `cfg(test)`).
fn parse_attr(tokens: &[Token], i: usize) -> (usize, String) {
    let mut rendered = String::new();
    let mut j = i + 2; // past '#' '['
    let mut depth = 1usize;
    while j < tokens.len() {
        match &tokens[j].kind {
            TokKind::Punct('[') => {
                depth += 1;
                rendered.push('[');
            }
            TokKind::Punct(']') => {
                depth -= 1;
                if depth == 0 {
                    return (j + 1, rendered);
                }
                rendered.push(']');
            }
            TokKind::Punct(c) => rendered.push(*c),
            TokKind::Ident(w) => rendered.push_str(w),
            TokKind::Literal(_) => rendered.push('"'),
        }
        j += 1;
    }
    (j, rendered)
}

/// Does this attribute gate its item to test builds? `#[test]`,
/// `#[cfg(test)]`, and any `cfg(...)` mentioning `test` positively
/// (e.g. `cfg(all(test, unix))`) count; `cfg(not(test))` and
/// `cfg_attr(test, ...)` do not.
fn attr_is_test(attr: &str) -> bool {
    if attr == "test" {
        return true;
    }
    attr.starts_with("cfg(") && attr.contains("test") && !attr.contains("not(test")
}

/// Line spans (inclusive) of items gated to test builds: an attribute
/// recognised by [`attr_is_test`] exempts the whole following item —
/// to its closing brace, or to the `;` of a braceless item.
fn test_spans(tokens: &[Token]) -> Vec<(u32, u32)> {
    let mut spans = Vec::new();
    let mut i = 0usize;
    while i < tokens.len() {
        // `#[...]` (skip inner attributes `#![...]`).
        if punct_at(tokens, i) == Some('#') && punct_at(tokens, i + 1) == Some('[') {
            let start_line = tokens[i].line;
            let (after, attr) = parse_attr(tokens, i);
            if !attr_is_test(&attr) {
                i = after;
                continue;
            }
            // Skip any further attributes on the same item.
            let mut j = after;
            while punct_at(tokens, j) == Some('#') && punct_at(tokens, j + 1) == Some('[') {
                j = parse_attr(tokens, j).0;
            }
            // Consume the item: first `;` before a brace ends it, else
            // the matching `}` of its first brace.
            let mut depth = 0i64;
            let mut end_line = start_line;
            while j < tokens.len() {
                end_line = tokens[j].line;
                match tokens[j].kind {
                    TokKind::Punct('{') => depth += 1,
                    TokKind::Punct('}') => {
                        depth -= 1;
                        if depth == 0 {
                            j += 1;
                            break;
                        }
                    }
                    TokKind::Punct(';') if depth == 0 => {
                        j += 1;
                        break;
                    }
                    _ => {}
                }
                j += 1;
            }
            spans.push((start_line, end_line));
            i = j;
            continue;
        }
        i += 1;
    }
    spans
}

fn in_spans(spans: &[(u32, u32)], line: u32) -> bool {
    spans.iter().any(|&(lo, hi)| lo <= line && line <= hi)
}

/// Extract `audit:allow(RULE): reason` suppressions from comments.
/// Malformed allows (unknown rule, missing reason) become ALLOW01
/// findings instead of suppressions. Each allow covers its own line(s)
/// and the line after, so both trailing and standalone comments work.
fn parse_allows(ctx: &FileContext, comments: &[Comment]) -> (Vec<AllowEntry>, Vec<Finding>) {
    const MARKER: &str = "audit:allow(";
    let mut allows = Vec::new();
    let mut malformed = Vec::new();
    for comment in comments {
        // The suppression must be the comment's entire content (leading
        // whitespace aside): `// audit:allow(RULE): reason`. Mentions of
        // the syntax in the middle of prose (like this one) stay inert.
        let rest = comment.text.trim_start();
        if let Some(after) = rest.strip_prefix(MARKER) {
            let Some(close) = after.find(')') else {
                malformed.push(Finding {
                    file: ctx.path.clone(),
                    line: comment.line,
                    rule: "ALLOW01".into(),
                    message: "unterminated audit:allow(...)".into(),
                    suppressed: false,
                    reason: String::new(),
                    severity: Severity::Error,
                });
                continue;
            };
            let rule = after[..close].trim().to_string();
            let tail = &after[close + 1..];
            if !RULE_IDS.contains(&rule.as_str()) || rule == "ALLOW01" {
                malformed.push(Finding {
                    file: ctx.path.clone(),
                    line: comment.line,
                    rule: "ALLOW01".into(),
                    message: format!("audit:allow names unknown rule `{rule}`"),
                    suppressed: false,
                    reason: String::new(),
                    severity: Severity::Error,
                });
                continue;
            }
            // Mandatory `: reason` — the reason is the audit trail.
            let trimmed = tail.trim_start();
            let reason = trimmed
                .strip_prefix(':')
                .map(|r| r.lines().next().unwrap_or("").trim().to_string())
                .unwrap_or_default();
            if reason.is_empty() {
                malformed.push(Finding {
                    file: ctx.path.clone(),
                    line: comment.line,
                    rule: "ALLOW01".into(),
                    message: format!("audit:allow({rule}) is missing its mandatory `: reason`"),
                    suppressed: false,
                    reason: String::new(),
                    severity: Severity::Error,
                });
                continue;
            }
            allows.push(AllowEntry {
                file: ctx.path.clone(),
                line: comment.line,
                rule,
                reason,
                used: false,
                cover_from: comment.line,
                cover_to: comment.end_line + 1,
            });
        }
    }
    (allows, malformed)
}

/// Keywords that may directly precede a `[` without making it an index
/// expression (`return [..]`, `else [..]`, `in [..]`, ...).
fn is_expr_keyword(w: &str) -> bool {
    matches!(
        w,
        "return"
            | "break"
            | "continue"
            | "in"
            | "if"
            | "else"
            | "match"
            | "mut"
            | "ref"
            | "move"
            | "as"
            | "let"
            | "const"
            | "static"
            | "dyn"
            | "impl"
            | "where"
            | "loop"
            | "while"
            | "for"
            | "unsafe"
            | "async"
            | "await"
            | "yield"
            | "use"
            | "pub"
            | "fn"
            | "struct"
            | "enum"
            | "type"
            | "trait"
            | "mod"
            | "box"
    )
}

/// Is `text` an integer literal (decimal or hex; underscores and type
/// suffixes welcome)?
fn is_int_literal(text: &str) -> bool {
    text.chars().next().is_some_and(|c| c.is_ascii_digit()) && !text.contains('.')
}

/// PANIC02: find `expr[N]` — a `[...]` group whose only child is an
/// integer literal, directly preceded by an expression (identifier or
/// `(..)`/`[..]` group). Array literals (`= [0]`), attributes
/// (`#[...]`), and slice patterns are shaped differently and stay
/// invisible.
fn panic02_walk(nodes: &[Tree], hits: &mut Vec<(u32, String)>) {
    for i in 0..nodes.len() {
        if let Some(g) = nodes[i].group() {
            if g.delim == '[' && i > 0 {
                let prev = &nodes[i - 1];
                let indexes = prev
                    .ident()
                    .map(|w| !is_expr_keyword(w))
                    .unwrap_or_else(|| {
                        prev.group()
                            .map(|pg| pg.delim == '(' || pg.delim == '[')
                            .unwrap_or(false)
                    });
                if indexes {
                    if let [child] = g.children.as_slice() {
                        if let Some(text) = child.literal() {
                            if is_int_literal(text) {
                                hits.push((g.open_line, text.to_string()));
                            }
                        }
                    }
                }
            }
            panic02_walk(&g.children, hits);
        }
    }
}

/// OBS02 driver: find `par_map(...)` / `broadcast(...)` call groups and
/// scan the closures among their arguments.
fn obs02_walk(nodes: &[Tree], hits: &mut Vec<(u32, &'static str, String)>) {
    for i in 0..nodes.len() {
        if let (Some(name), Some(g)) = (nodes[i].ident(), nodes.get(i + 1).and_then(|n| n.group()))
        {
            if g.delim == '(' {
                if let Some(&entry) = PAR_ENTRY_POINTS.iter().find(|&&e| e == name) {
                    scan_closures(&g.children, entry, hits);
                }
            }
        }
        if let Some(g) = nodes[i].group() {
            obs02_walk(&g.children, hits);
        }
    }
}

/// Within a call's argument children, find closures (a `|` or `move |`
/// at argument-initial position) and scan each closure's body — which
/// extends to the next top-level `,` — for obs mutators.
fn scan_closures(args: &[Tree], entry: &'static str, hits: &mut Vec<(u32, &'static str, String)>) {
    let mut arg_start = true;
    let mut i = 0usize;
    while i < args.len() {
        if args[i].punct() == Some(',') {
            arg_start = true;
            i += 1;
            continue;
        }
        let bar_at = if args[i].punct() == Some('|') {
            Some(i)
        } else if args[i].ident() == Some("move")
            && args.get(i + 1).and_then(|n| n.punct()) == Some('|')
        {
            Some(i + 1)
        } else {
            None
        };
        if let (true, Some(bar)) = (arg_start, bar_at) {
            // Past the parameter list's closing `|`...
            let mut j = bar + 1;
            while j < args.len() && args[j].punct() != Some('|') {
                j += 1;
            }
            j += 1;
            // ...the body runs to the next top-level `,`.
            let body_start = j.min(args.len());
            while j < args.len() && args[j].punct() != Some(',') {
                j += 1;
            }
            scan_mutators(&args[body_start..j], entry, hits);
            i = j;
            arg_start = false;
            continue;
        }
        arg_start = false;
        i += 1;
    }
}

/// Find `.mutator(` method calls anywhere under `nodes`.
fn scan_mutators(nodes: &[Tree], entry: &'static str, hits: &mut Vec<(u32, &'static str, String)>) {
    for i in 0..nodes.len() {
        if nodes[i].punct() == Some('.') {
            if let Some(m) = nodes.get(i + 1).and_then(|n| n.ident()) {
                if OBS_MUTATORS.contains(&m)
                    && nodes
                        .get(i + 2)
                        .and_then(|n| n.group())
                        .map(|g| g.delim == '(')
                        .unwrap_or(false)
                {
                    hits.push((nodes[i + 1].line(), entry, m.to_string()));
                }
            }
        }
        if let Some(g) = nodes[i].group() {
            scan_mutators(&g.children, entry, hits);
        }
    }
}

/// Decode a hex literal as a 4-byte stream tag: exactly 8 hex digits
/// (underscores aside) whose big-endian bytes are all printable ASCII.
fn tag_hex_value(text: &str) -> Option<u64> {
    let rest = text
        .strip_prefix("0x")
        .or_else(|| text.strip_prefix("0X"))?;
    let mut digits = String::new();
    let mut suffix = "";
    for (pos, c) in rest.char_indices() {
        if c.is_ascii_hexdigit() {
            digits.push(c);
        } else if c != '_' {
            suffix = &rest[pos..];
            break;
        }
    }
    if !(suffix.is_empty() || suffix.starts_with('u') || suffix.starts_with('i'))
        || digits.len() != 8
    {
        return None;
    }
    let value = u64::from_str_radix(&digits, 16).ok()?;
    let bytes = (value as u32).to_be_bytes();
    bytes
        .iter()
        .all(|&b| (0x21..=0x7E).contains(&b))
        .then_some(value)
}

/// Decode a 4-char string/byte-string literal (`"VICT"`, `b"VICT"`,
/// raw forms included) as a stream-tag value.
fn str_tag_value(text: &str) -> Option<u64> {
    let mut s = text;
    if let Some(rest) = s.strip_prefix('b') {
        s = rest;
    }
    if let Some(rest) = s.strip_prefix('r') {
        s = rest.trim_start_matches('#');
    }
    let s = s.strip_prefix('"')?;
    let s = s.trim_end_matches('#').strip_suffix('"')?;
    if s.len() != 4 || s.contains('\\') {
        return None;
    }
    let b = s.as_bytes();
    if !b.iter().all(|&x| (0x21..=0x7E).contains(&x)) {
        return None;
    }
    Some(u64::from(u32::from_be_bytes([b[0], b[1], b[2], b[3]])))
}

/// Find 4-char string/byte-string tags inside the argument lists of
/// stream constructors (anywhere else a 4-char string is just a string).
fn str_tags_in_ctor_args(nodes: &[Tree], sites: &mut Vec<TagSite>) {
    for i in 0..nodes.len() {
        if let (Some(name), Some(g)) = (nodes[i].ident(), nodes.get(i + 1).and_then(|n| n.group()))
        {
            if g.delim == '(' && STREAM_CTORS.contains(&name) {
                collect_str_tags(&g.children, sites);
            }
        }
        if let Some(g) = nodes[i].group() {
            str_tags_in_ctor_args(&g.children, sites);
        }
    }
}

fn collect_str_tags(nodes: &[Tree], sites: &mut Vec<TagSite>) {
    for node in nodes {
        if let Some(text) = node.literal() {
            if let Some(value) = str_tag_value(text) {
                sites.push(TagSite {
                    line: node.line(),
                    value,
                    text: text.to_string(),
                });
            }
        }
        if let Some(g) = node.group() {
            collect_str_tags(&g.children, sites);
        }
    }
}

/// Parse a `u64` literal (hex or decimal, underscores/suffix ok).
fn parse_u64_literal(text: &str) -> Option<u64> {
    let (radix, digits) = match text.strip_prefix("0x").or_else(|| text.strip_prefix("0X")) {
        Some(hex) => (16, hex),
        None => (10, text),
    };
    let cleaned: String = digits
        .chars()
        .take_while(|c| c.is_ascii_hexdigit() || *c == '_')
        .filter(|c| *c != '_')
        .collect();
    u64::from_str_radix(&cleaned, radix).ok()
}

/// Extract `pub const NAME: u64 = <literal>;` declarations — the only
/// form the registry may use, precisely so this extractor and rustc see
/// the same registry.
fn registry_decls(tokens: &[Token]) -> Vec<TagDecl> {
    let mut decls = Vec::new();
    for i in 0..tokens.len() {
        if ident_at(tokens, i) == Some("pub")
            && ident_at(tokens, i + 1) == Some("const")
            && punct_at(tokens, i + 3) == Some(':')
            && ident_at(tokens, i + 4) == Some("u64")
            && punct_at(tokens, i + 5) == Some('=')
            && punct_at(tokens, i + 7) == Some(';')
        {
            let (Some(name), Some(TokKind::Literal(lit))) =
                (ident_at(tokens, i + 2), tokens.get(i + 6).map(|t| &t.kind))
            else {
                continue;
            };
            let Some(value) = parse_u64_literal(lit) else {
                continue;
            };
            decls.push(TagDecl {
                line: tokens[i].line,
                name: name.to_string(),
                value,
            });
        }
    }
    decls
}

/// Audit one file's source under the given context.
pub fn audit_source(ctx: &FileContext, src: &str) -> FileReport {
    let lexed = lex(src);
    let tokens = &lexed.tokens;
    let spans = test_spans(tokens);
    let (mut allows, mut findings) = parse_allows(ctx, &lexed.comments);

    let critical = DETERMINISM_CRITICAL.contains(&ctx.crate_name.as_str());
    // `crates/svc` is the sanctioned home for real time, real threads
    // and real sockets (ISSUE 10); `crates/bench` keeps its historical
    // wall-clock license but NOT a socket one — benches drive the
    // daemon through ices-svc rather than opening sockets of their own.
    let det02_applies = !matches!(ctx.crate_name.as_str(), "bench" | "svc");
    let det03_applies = !matches!(ctx.crate_name.as_str(), "par" | "svc");
    let sockets_apply = ctx.crate_name != "svc";
    let panic01_applies = ctx.kind == FileKind::Lib;
    // Inside crates/obs the wall-clock rule carries the observability
    // contract's name and message (and supersedes DET02 so one hazard
    // never produces two findings).
    let obs01 = ctx.crate_name == "obs";

    let push = |rule: &str, line: u32, message: String, out: &mut Vec<Finding>| {
        out.push(Finding {
            file: ctx.path.clone(),
            line,
            rule: rule.into(),
            message,
            suppressed: false,
            reason: String::new(),
            severity: Severity::Error,
        });
    };

    // SAFE01: crate roots must forbid unsafe code via the inner
    // attribute `#![forbid(unsafe_code)]`. `crates/par` alone may use
    // `#![deny(unsafe_code)]` — the worker pool's lifetime erasure is
    // the workspace's one sanctioned unsafe block, and deny (unlike
    // forbid) lets exactly that module opt in with `#[allow]` while
    // every other file in the crate stays refused.
    if ctx.is_crate_root {
        let par_deny_ok = ctx.crate_name == "par";
        let mut found = false;
        for i in 0..tokens.len() {
            let level_ok = match ident_at(tokens, i + 3) {
                Some("forbid") => true,
                Some("deny") => par_deny_ok,
                _ => false,
            };
            if punct_at(tokens, i) == Some('#')
                && punct_at(tokens, i + 1) == Some('!')
                && punct_at(tokens, i + 2) == Some('[')
                && level_ok
                && punct_at(tokens, i + 4) == Some('(')
                && ident_at(tokens, i + 5) == Some("unsafe_code")
            {
                found = true;
                break;
            }
        }
        if !found {
            let wanted = if par_deny_ok {
                "crate root is missing `#![forbid(unsafe_code)]` \
                 (or, for `crates/par` only, `#![deny(unsafe_code)]`)"
            } else {
                "crate root is missing `#![forbid(unsafe_code)]`"
            };
            push("SAFE01", 1, wanted.into(), &mut findings);
        }
    }

    for i in 0..tokens.len() {
        let Some(word) = ident_at(tokens, i) else {
            continue;
        };
        let line = tokens[i].line;
        match word {
            "HashMap" | "HashSet" if critical => {
                let alt = if word == "HashMap" {
                    "BTreeMap"
                } else {
                    "BTreeSet"
                };
                push(
                    "DET01",
                    line,
                    format!(
                        "`{word}` has seed-dependent iteration order in a \
                         determinism-critical crate; use `{alt}`"
                    ),
                    &mut findings,
                );
            }
            "SystemTime" | "thread_rng" | "from_entropy" if det02_applies => {
                if obs01 {
                    push(
                        "OBS01",
                        line,
                        format!(
                            "`{word}` in ices-obs; observability time must flow \
                             through the `Clock` trait (the daemon's `ServiceClock` \
                             is the only wall-clock impl)"
                        ),
                        &mut findings,
                    );
                } else {
                    push(
                        "DET02",
                        line,
                        format!(
                            "`{word}` is a wall-clock/entropy source; draw from a \
                             named seeded nonce stream instead"
                        ),
                        &mut findings,
                    );
                }
            }
            "Instant"
                if det02_applies
                    && punct_at(tokens, i + 1) == Some(':')
                    && punct_at(tokens, i + 2) == Some(':')
                    && ident_at(tokens, i + 3) == Some("now") =>
            {
                if obs01 {
                    push(
                        "OBS01",
                        line,
                        "`Instant::now` in ices-obs; observability time must \
                         flow through the `Clock` trait (the daemon's `ServiceClock` \
                         is the only wall-clock impl)"
                            .into(),
                        &mut findings,
                    );
                } else {
                    push(
                        "DET02",
                        line,
                        "`Instant::now` is a wall-clock source; only `crates/bench` \
                         may time things"
                            .into(),
                        &mut findings,
                    );
                }
            }
            "UdpSocket" | "TcpListener" | "TcpStream" if sockets_apply => {
                if obs01 {
                    push(
                        "OBS01",
                        line,
                        format!(
                            "`{word}` in ices-obs; observability never does \
                             network I/O — sockets live in `crates/svc` only"
                        ),
                        &mut findings,
                    );
                } else {
                    push(
                        "DET02",
                        line,
                        format!(
                            "`{word}` is real network I/O; only `crates/svc` \
                             may open sockets — simulations talk through \
                             `ices-netsim`, benches through `ices-svc`"
                        ),
                        &mut findings,
                    );
                }
            }
            "thread"
                if det03_applies
                    && punct_at(tokens, i + 1) == Some(':')
                    && punct_at(tokens, i + 2) == Some(':')
                    && matches!(
                        ident_at(tokens, i + 3),
                        Some("spawn") | Some("scope") | Some("Builder")
                    ) =>
            {
                let what = ident_at(tokens, i + 3).unwrap_or("spawn");
                push(
                    "DET03",
                    line,
                    format!(
                        "raw `thread::{what}` outside `crates/par`; all \
                         parallelism must go through ices-par's \
                         order-preserving entry points"
                    ),
                    &mut findings,
                );
            }
            "unwrap" | "expect" if panic01_applies => {
                let is_call = punct_at(tokens, i - 1_usize.min(i)) == Some('.')
                    && i > 0
                    && punct_at(tokens, i + 1) == Some('(')
                    && (word == "expect" || punct_at(tokens, i + 2) == Some(')'));
                if is_call && !in_spans(&spans, line) {
                    push(
                        "PANIC01",
                        line,
                        format!(
                            "`.{word}(` in non-test library code; return a typed \
                             error (or justify with `// audit:allow(PANIC01): reason`)"
                        ),
                        &mut findings,
                    );
                }
            }
            _ => {}
        }
    }

    // ---- Dataflow rules: the token-tree layer ----
    let forest = tree::build(tokens);

    // PANIC02 — `expr[N]` with a literal index panics the moment the
    // container is shorter than expected (the `&candidates[0]` class).
    // Same scope as PANIC01: non-test library code of critical crates.
    if critical && panic01_applies {
        let mut hits = Vec::new();
        panic02_walk(&forest, &mut hits);
        for (line, lit) in hits {
            if !in_spans(&spans, line) {
                push(
                    "PANIC02",
                    line,
                    format!(
                        "literal index `[{lit}]` panics if the container is \
                         short; use `.get({lit})`/destructuring (or justify \
                         with `// audit:allow(PANIC02): reason`)"
                    ),
                    &mut findings,
                );
            }
        }
    }

    // OBS02 — obs mutations inside closures passed to parallel entry
    // points: the parallel phase must stay observation-silent, or
    // worker interleaving leaks into journal order.
    {
        let mut hits = Vec::new();
        obs02_walk(&forest, &mut hits);
        for (line, entry, mutator) in hits {
            if !in_spans(&spans, line) {
                push(
                    "OBS02",
                    line,
                    format!(
                        "obs mutation `.{mutator}(` inside a closure passed \
                         to `{entry}`; return per-item results and fold them \
                         into obs after the parallel join"
                    ),
                    &mut findings,
                );
            }
        }
    }

    // STREAM01 (per-file half) — collect the facts the cross-crate
    // pass consumes, and flag bare tag literals outside the registry.
    let mut streams = StreamFacts::default();
    for t in tokens {
        if let TokKind::Ident(w) = &t.kind {
            streams.idents.insert(w.clone());
        }
    }
    if ctx.is_registry {
        streams.decls = registry_decls(tokens);
    } else {
        for t in tokens {
            if let TokKind::Literal(text) = &t.kind {
                if let Some(value) = tag_hex_value(text) {
                    if !in_spans(&spans, t.line) {
                        streams.sites.push(TagSite {
                            line: t.line,
                            value,
                            text: text.clone(),
                        });
                    }
                }
            }
        }
        let mut str_sites = Vec::new();
        str_tags_in_ctor_args(&forest, &mut str_sites);
        streams
            .sites
            .extend(str_sites.into_iter().filter(|s| !in_spans(&spans, s.line)));
        streams.sites.sort_by_key(|a| (a.line, a.text.clone()));
        streams
            .sites
            .dedup_by(|a, b| a.line == b.line && a.text == b.text);
        for site in &streams.sites {
            push(
                "STREAM01",
                site.line,
                format!(
                    "bare 4-byte stream tag `{}`; declare it once in \
                     `crates/stats/src/streams.rs` and reference \
                     `streams::NAME` instead",
                    site.text
                ),
                &mut findings,
            );
        }
    }

    // Apply suppressions. ALLOW01 findings are never suppressible.
    for finding in &mut findings {
        if finding.rule == "ALLOW01" {
            continue;
        }
        for allow in &mut allows {
            if allow.rule == finding.rule
                && (allow.cover_from..=allow.cover_to).contains(&finding.line)
            {
                finding.suppressed = true;
                finding.reason = allow.reason.clone();
                allow.used = true;
                break;
            }
        }
    }

    findings.sort_by_key(|a| (a.line, a.rule.clone()));
    FileReport {
        findings,
        allows,
        streams,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lib_ctx() -> FileContext {
        FileContext {
            path: "adhoc/lib.rs".into(),
            crate_name: "adhoc".into(),
            kind: FileKind::Lib,
            is_crate_root: false,
            is_registry: false,
        }
    }

    fn rules_of(report: &FileReport) -> Vec<(&str, u32, bool)> {
        report
            .findings
            .iter()
            .map(|f| (f.rule.as_str(), f.line, f.suppressed))
            .collect()
    }

    #[test]
    fn unwrap_in_lib_is_flagged_with_line() {
        let src = "pub fn f(x: Option<u8>) -> u8 {\n    x.unwrap()\n}\n";
        let r = audit_source(&lib_ctx(), src);
        assert_eq!(rules_of(&r), [("PANIC01", 2, false)]);
    }

    #[test]
    fn unwrap_inside_cfg_test_mod_is_exempt() {
        let src = "pub fn f() {}\n#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() { Some(1).unwrap(); }\n}\n";
        let r = audit_source(&lib_ctx(), src);
        assert!(r.findings.is_empty(), "{:?}", r.findings);
    }

    #[test]
    fn cfg_not_test_is_not_exempt() {
        let src = "#[cfg(not(test))]\npub fn f(x: Option<u8>) -> u8 { x.unwrap() }\n";
        let r = audit_source(&lib_ctx(), src);
        assert_eq!(rules_of(&r), [("PANIC01", 2, false)]);
    }

    #[test]
    fn unwrap_or_else_is_not_unwrap() {
        let src = "pub fn f(x: Option<u8>) -> u8 { x.unwrap_or_else(|| 3) }\n";
        let r = audit_source(&lib_ctx(), src);
        assert!(r.findings.is_empty());
    }

    #[test]
    fn allow_on_same_line_suppresses_and_is_inventoried() {
        let src = "pub fn f(x: Option<u8>) -> u8 {\n    x.unwrap() // audit:allow(PANIC01): index proven in bounds above\n}\n";
        let r = audit_source(&lib_ctx(), src);
        assert_eq!(rules_of(&r), [("PANIC01", 2, true)]);
        assert_eq!(r.allows.len(), 1);
        assert!(r.allows[0].used);
        assert_eq!(r.allows[0].reason, "index proven in bounds above");
    }

    #[test]
    fn allow_on_line_above_suppresses() {
        let src = "pub fn f(x: Option<u8>) -> u8 {\n    // audit:allow(PANIC01): caller guarantees Some\n    x.unwrap()\n}\n";
        let r = audit_source(&lib_ctx(), src);
        assert_eq!(rules_of(&r), [("PANIC01", 3, true)]);
    }

    #[test]
    fn allow_without_reason_is_malformed() {
        let src = "pub fn f(x: Option<u8>) -> u8 {\n    x.unwrap() // audit:allow(PANIC01)\n}\n";
        let r = audit_source(&lib_ctx(), src);
        let rules: Vec<&str> = r.findings.iter().map(|f| f.rule.as_str()).collect();
        assert!(rules.contains(&"ALLOW01"), "{rules:?}");
        // And the original finding stays unsuppressed.
        assert!(r
            .findings
            .iter()
            .any(|f| f.rule == "PANIC01" && !f.suppressed));
    }

    #[test]
    fn allow_for_wrong_rule_does_not_suppress() {
        let src = "pub fn f(x: Option<u8>) -> u8 {\n    x.unwrap() // audit:allow(DET01): wrong rule\n}\n";
        let r = audit_source(&lib_ctx(), src);
        assert!(r
            .findings
            .iter()
            .any(|f| f.rule == "PANIC01" && !f.suppressed));
        assert!(!r.allows[0].used);
    }

    #[test]
    fn det01_only_in_critical_crates() {
        let src = "use std::collections::HashMap;\n";
        let mut ctx = lib_ctx();
        let r = audit_source(&ctx, src);
        assert_eq!(rules_of(&r), [("DET01", 1, false)]);
        ctx.crate_name = "stats".into();
        let r = audit_source(&ctx, src);
        assert!(r.findings.is_empty());
    }

    #[test]
    fn det02_exempts_bench() {
        let src = "let t = Instant::now();\nlet r = thread_rng();\n";
        let r = audit_source(&lib_ctx(), src);
        assert_eq!(rules_of(&r), [("DET02", 1, false), ("DET02", 2, false)]);
        let mut bench = lib_ctx();
        bench.crate_name = "bench".into();
        assert!(audit_source(&bench, src).findings.is_empty());
    }

    #[test]
    fn det02_exempts_svc_wallclock_but_not_sim_crates() {
        let src = "let t = Instant::now();\nlet s = SystemTime::now();\n";
        let mut svc = lib_ctx();
        svc.crate_name = "svc".into();
        assert!(audit_source(&svc, src).findings.is_empty());
        assert_eq!(
            rules_of(&audit_source(&lib_ctx(), src)),
            [("DET02", 1, false), ("DET02", 2, false)]
        );
    }

    #[test]
    fn sockets_are_det02_everywhere_but_svc() {
        let src = "let sock = std::net::UdpSocket::bind(addr);\nlet l = TcpListener::bind(addr);\nlet c = TcpStream::connect(addr);\n";
        let r = audit_source(&lib_ctx(), src);
        assert_eq!(
            rules_of(&r),
            [
                ("DET02", 1, false),
                ("DET02", 2, false),
                ("DET02", 3, false)
            ]
        );
        assert!(r.findings.iter().all(|f| f.message.contains("crates/svc")));
        // bench keeps its wall-clock license but gets no socket license.
        let mut bench = lib_ctx();
        bench.crate_name = "bench".into();
        assert_eq!(
            rules_of(&audit_source(&bench, src)),
            [
                ("DET02", 1, false),
                ("DET02", 2, false),
                ("DET02", 3, false)
            ]
        );
        let mut svc = lib_ctx();
        svc.crate_name = "svc".into();
        assert!(audit_source(&svc, src).findings.is_empty());
    }

    #[test]
    fn sockets_in_obs_report_as_obs01() {
        let src = "let sock = UdpSocket::bind(addr);\n";
        let mut obs = lib_ctx();
        obs.crate_name = "obs".into();
        let r = audit_source(&obs, src);
        assert_eq!(rules_of(&r), [("OBS01", 1, false)]);
        assert!(r.findings.iter().all(|f| f.message.contains("network I/O")));
    }

    #[test]
    fn det03_exempts_par() {
        let src = "std::thread::scope(|s| { s.spawn(|| {}); });\n";
        let r = audit_source(&lib_ctx(), src);
        assert_eq!(rules_of(&r), [("DET03", 1, false)]);
        let mut par = lib_ctx();
        par.crate_name = "par".into();
        assert!(audit_source(&par, src).findings.is_empty());
    }

    #[test]
    fn det03_exempts_svc() {
        let src = "std::thread::spawn(|| {});\nthread::Builder::new();\n";
        let r = audit_source(&lib_ctx(), src);
        assert_eq!(rules_of(&r), [("DET03", 1, false), ("DET03", 2, false)]);
        let mut svc = lib_ctx();
        svc.crate_name = "svc".into();
        assert!(audit_source(&svc, src).findings.is_empty());
    }

    #[test]
    fn obs_crate_reports_wallclock_as_obs01_not_det02() {
        let src = "let t = Instant::now();\nlet s = SystemTime::now();\n";
        let mut obs = lib_ctx();
        obs.crate_name = "obs".into();
        let r = audit_source(&obs, src);
        assert_eq!(rules_of(&r), [("OBS01", 1, false), ("OBS01", 2, false)]);
        assert!(r.findings.iter().all(|f| f.message.contains("Clock")));
        // Elsewhere the same triggers stay DET02 — no double reporting.
        let r = audit_source(&lib_ctx(), src);
        assert_eq!(rules_of(&r), [("DET02", 1, false), ("DET02", 2, false)]);
    }

    #[test]
    fn obs_crate_is_determinism_critical() {
        let src = "use std::collections::HashMap;\n";
        let mut obs = lib_ctx();
        obs.crate_name = "obs".into();
        assert_eq!(rules_of(&audit_source(&obs, src)), [("DET01", 1, false)]);
    }

    #[test]
    fn safe01_checks_crate_roots_only() {
        let src = "pub fn f() {}\n";
        let mut ctx = lib_ctx();
        assert!(audit_source(&ctx, src).findings.is_empty());
        ctx.is_crate_root = true;
        assert_eq!(rules_of(&audit_source(&ctx, src)), [("SAFE01", 1, false)]);
        let good = "#![forbid(unsafe_code)]\npub fn f() {}\n";
        assert!(audit_source(&ctx, good).findings.is_empty());
    }

    #[test]
    fn safe01_accepts_deny_for_par_crate_root_only() {
        let deny = "#![deny(unsafe_code)]\npub fn f() {}\n";
        let mut par = lib_ctx();
        par.crate_name = "par".into();
        par.is_crate_root = true;
        assert!(
            audit_source(&par, deny).findings.is_empty(),
            "par may deny instead of forbid"
        );
        // Everyone else must still forbid — deny is not enough.
        let mut other = lib_ctx();
        other.is_crate_root = true;
        assert_eq!(
            rules_of(&audit_source(&other, deny)),
            [("SAFE01", 1, false)]
        );
        // And par with neither attribute is still flagged.
        let bare = "pub fn f() {}\n";
        assert_eq!(rules_of(&audit_source(&par, bare)), [("SAFE01", 1, false)]);
    }

    #[test]
    fn det03_flags_thread_builder_outside_par() {
        let src = "let h = std::thread::Builder::new().spawn(|| {});\n";
        let r = audit_source(&lib_ctx(), src);
        assert_eq!(rules_of(&r), [("DET03", 1, false)]);
        assert!(r.findings[0].message.contains("thread::Builder"));
        let mut par = lib_ctx();
        par.crate_name = "par".into();
        assert!(audit_source(&par, src).findings.is_empty());
    }

    #[test]
    fn bins_are_panic01_exempt_but_not_det_exempt() {
        let src = "fn main() { Some(1).unwrap(); let m: HashMap<u8, u8> = HashMap::new(); }\n";
        let mut ctx = lib_ctx();
        ctx.kind = FileKind::Bin;
        let report = audit_source(&ctx, src);
        let rules: Vec<&str> = report.findings.iter().map(|f| f.rule.as_str()).collect();
        assert_eq!(rules, ["DET01", "DET01"]);
    }

    #[test]
    fn panic02_flags_literal_indexing_with_line() {
        let src = "pub fn f(v: &[f64]) -> f64 {\n    v[0]\n}\n";
        let r = audit_source(&lib_ctx(), src);
        assert_eq!(rules_of(&r), [("PANIC02", 2, false)]);
    }

    #[test]
    fn panic02_ignores_array_literals_macros_and_variable_indices() {
        let src = "pub fn f(v: &[f64], i: usize) -> f64 {\n    let _a = [0.0; 4];\n    let _b = vec![0];\n    let _c: [u8; 2] = [1, 2];\n    v[i]\n}\n";
        let r = audit_source(&lib_ctx(), src);
        assert!(r.findings.is_empty(), "{:?}", r.findings);
    }

    #[test]
    fn panic02_exempts_test_code_and_honors_allows() {
        let test_src = "#[cfg(test)]\nmod tests {\n    fn g(v: &[u8]) -> u8 { v[0] }\n}\n";
        assert!(audit_source(&lib_ctx(), test_src).findings.is_empty());
        let allowed = "pub fn f(v: &[f64]) -> f64 {\n    v[0] // audit:allow(PANIC02): caller guarantees non-empty\n}\n";
        let r = audit_source(&lib_ctx(), allowed);
        assert_eq!(rules_of(&r), [("PANIC02", 2, true)]);
    }

    #[test]
    fn panic02_flags_indexing_after_call_and_nested_index() {
        let src = "pub fn f(v: &[Vec<f64>]) -> f64 {\n    v.to_vec()[0][1]\n}\n";
        let r = audit_source(&lib_ctx(), src);
        assert_eq!(rules_of(&r), [("PANIC02", 2, false), ("PANIC02", 2, false)]);
    }

    #[test]
    fn obs02_flags_obs_mutation_inside_par_closure() {
        let src = "pub fn f(reg: &Registry, xs: &[u8]) {\n    par_map(xs, |x| {\n        reg.inc(\"k\", 1);\n        x + 1\n    });\n}\n";
        let r = audit_source(&lib_ctx(), src);
        assert_eq!(rules_of(&r), [("OBS02", 3, false)]);
        assert!(r.findings[0].message.contains("par_map"));
    }

    #[test]
    fn obs02_move_closures_and_broadcast_are_covered() {
        let src = "pub fn f(j: &Journal, pool: &Pool) {\n    pool.broadcast(move |w| {\n        j.node_event(w, 0);\n    });\n}\n";
        let r = audit_source(&lib_ctx(), src);
        assert_eq!(rules_of(&r), [("OBS02", 3, false)]);
    }

    #[test]
    fn obs02_ignores_mutations_outside_the_closure() {
        let src = "pub fn f(reg: &Registry, xs: &[u8]) {\n    reg.inc(\"before\", 1);\n    par_map(xs, |x| x + 1);\n    reg.observe(\"after\", 2.0);\n}\n";
        let r = audit_source(&lib_ctx(), src);
        assert!(r.findings.is_empty(), "{:?}", r.findings);
    }

    #[test]
    fn obs02_non_closure_arguments_are_not_closure_bodies() {
        // The mutation happens *before* the parallel phase, while the
        // argument is evaluated — only closure bodies are policed.
        let src =
            "pub fn f(reg: &Registry, xs: &[u8]) {\n    par_map(reg.snapshot(), |x| x + 1);\n}\n";
        let r = audit_source(&lib_ctx(), src);
        assert!(r.findings.is_empty(), "{:?}", r.findings);
    }

    #[test]
    fn stream01_flags_bare_hex_tags_and_ctor_strings() {
        let src = "pub fn f(seed: u64) {\n    let _a = stream_rng(seed, 0x5649_4354, 0);\n    let _b = SimRng::from_stream(seed, \"VICT\", 1);\n}\n";
        let r = audit_source(&lib_ctx(), src);
        assert_eq!(
            rules_of(&r),
            [("STREAM01", 2, false), ("STREAM01", 3, false)]
        );
        let values: Vec<u64> = r.streams.sites.iter().map(|s| s.value).collect();
        assert_eq!(values, [0x5649_4354, 0x5649_4354]);
    }

    #[test]
    fn stream01_hex_tags_are_flagged_even_outside_ctors() {
        let src = "pub const MY_STREAM: u64 = 0x4641_4C54;\n";
        let r = audit_source(&lib_ctx(), src);
        assert_eq!(rules_of(&r), [("STREAM01", 1, false)]);
    }

    #[test]
    fn stream01_ignores_non_tag_hex_and_strings_outside_ctors() {
        // Masks with non-printable bytes, wide tags, and 4-char strings
        // that never reach a stream constructor are all fine.
        let src = "pub const MASK: u64 = 0xFFFF_FFFF;\npub const GOLD: u64 = 0x9E37_79B9;\npub const WIDE: u64 = 0x6B6D_6561_6E73;\npub const NAME: &str = \"VICT\";\n";
        let r = audit_source(&lib_ctx(), src);
        assert!(r.findings.is_empty(), "{:?}", r.findings);
    }

    #[test]
    fn registry_file_declarations_are_extracted_not_flagged() {
        let mut ctx = lib_ctx();
        ctx.is_registry = true;
        let src = "pub const VICT: u64 = 0x5649_4354;\npub const NPSV: u64 = 0x4E50_5356;\n";
        let r = audit_source(&ctx, src);
        assert!(r.findings.is_empty(), "{:?}", r.findings);
        let decls: Vec<(&str, u64, u32)> = r
            .streams
            .decls
            .iter()
            .map(|d| (d.name.as_str(), d.value, d.line))
            .collect();
        assert_eq!(decls, [("VICT", 0x5649_4354, 1), ("NPSV", 0x4E50_5356, 2)]);
    }

    #[test]
    fn triggers_inside_literals_and_comments_are_invisible() {
        let src = r#"
pub fn f() -> String {
    // x.unwrap() and HashMap in a comment
    /* thread::spawn in a block comment */
    format!("{} {}", "Instant::now()", "thread_rng() from_entropy()")
}
"#;
        let r = audit_source(&lib_ctx(), src);
        assert!(r.findings.is_empty(), "{:?}", r.findings);
    }
}
