//! The rule set: each rule walks a file's token stream and reports
//! violations of one workspace invariant.
//!
//! | id | name | scope | invariant |
//! |----|------|-------|-----------|
//! | R1 | nondeterministic-collections | order-sensitive crates (incl. tests) | no `HashMap`/`HashSet` — iteration order breaks golden traces |
//! | R2 | wall-clock | every crate except the exempt list | no `Instant`/`SystemTime` — sim time is kernel-owned |
//! | R3 | stringly-errors | all crates | no `Result<_, String>` — errors are typed enums |
//! | R4 | unchecked-panic | all crates, non-test | no `.unwrap()`/`.expect()`/`panic!` family without an allow |
//! | R5 | raw-float-accumulation | simcore | no bare `+=`/`-=` on `remaining`/`residual` fields without an allow |
//! | R6 | event-variant-coverage | workspace | every `SimEvent` variant appears in the report fold and the trace codec |
//! | R7 | unseeded-rng | all crates (incl. tests) | no `thread_rng`/`from_entropy`/`OsRng`/`rand::random` |
//! | R8 | nan-passing-check | all crates, non-test | a `fn validate*` that rejects `x < 0.0`/`x <= 0.0` also checks `x.is_finite()`/`x.is_nan()` |
//!
//! Scopes are crate-directory names, configured by [`ScopeConfig`]
//! (single source of truth, documented in DESIGN.md). R2 is an
//! *exempt*-list: a crate that legitimately reads host clocks must be
//! listed **with a written reason**, and every crate added to the
//! workspace later is checked by default.

use crate::findings::Finding;
use crate::lexer::{Lexed, Tok, TokKind};
use std::collections::BTreeMap;

/// Static description of a rule.
#[derive(Debug, Clone, Copy)]
pub struct RuleInfo {
    /// Short id (`R1`).
    pub id: &'static str,
    /// Kebab-case name (`nondeterministic-collections`).
    pub name: &'static str,
    /// One-line summary for `--rules` output.
    pub summary: &'static str,
}

/// Every rule simlint implements, in id order.
pub const RULES: [RuleInfo; 8] = [
    RuleInfo {
        id: "R1",
        name: "nondeterministic-collections",
        summary:
            "no HashMap/HashSet in order-sensitive crates (iteration order breaks golden traces)",
    },
    RuleInfo {
        id: "R2",
        name: "wall-clock",
        summary: "no Instant/SystemTime in simulation crates (sim time is kernel-owned)",
    },
    RuleInfo {
        id: "R3",
        name: "stringly-errors",
        summary: "no Result<_, String>: errors are typed enums",
    },
    RuleInfo {
        id: "R4",
        name: "unchecked-panic",
        summary: "no unwrap/expect/panic!/unreachable!/todo! in non-test code without an allow",
    },
    RuleInfo {
        id: "R5",
        name: "raw-float-accumulation",
        summary: "no bare +=/-= on remaining/residual fields in media (drift must be controlled)",
    },
    RuleInfo {
        id: "R6",
        name: "event-variant-coverage",
        summary: "every SimEvent variant is handled by the report fold and the trace codec",
    },
    RuleInfo {
        id: "R7",
        name: "unseeded-rng",
        summary: "no thread_rng/from_entropy/OsRng/rand::random: randomness must be seeded",
    },
    RuleInfo {
        id: "R8",
        name: "nan-passing-check",
        summary: "a validate* bound like `x <= 0.0` that returns Err must also check x.is_finite()",
    },
];

/// Resolves a rule reference (id or name) to its canonical info.
pub fn rule_by_ref(r: &str) -> Option<&'static RuleInfo> {
    RULES.iter().find(|info| info.id == r || info.name == r)
}

/// Which crates each crate-scoped rule covers.
///
/// R1 and R5 are *include*-lists (the property they protect only exists
/// in specific crates). R2 is deliberately the inverse — an
/// *exempt*-list with a mandatory written reason per entry — because
/// "reads the host clock" is a property a new crate should have to
/// argue for, not one it silently gets by being absent from a list.
#[derive(Debug, Clone)]
pub struct ScopeConfig {
    /// R1: crates whose event schedules feed golden-trace hashes — any
    /// observable iteration-order nondeterminism is a reproducibility
    /// bug, and test code that iterates a hash map flakes the suite, so
    /// R1 covers tests too.
    pub order_sensitive: Vec<String>,
    /// R2: `(crate, reason)` pairs exempt from the wall-clock rule.
    /// Every crate *not* listed here executes under simulated time as
    /// far as simlint is concerned.
    pub wall_clock_exempt: Vec<(String, String)>,
    /// R5: crates holding `Medium` implementations whose byte
    /// integration must not regress the PR 6 drift fix.
    pub float_accum: Vec<String>,
}

impl ScopeConfig {
    /// The workspace's real configuration.
    pub fn workspace_default() -> Self {
        let own = |names: &[&str]| names.iter().map(|n| n.to_string()).collect();
        ScopeConfig {
            order_sensitive: own(&[
                "simcore",
                "core",
                "pfs",
                "mpiio",
                "iobench",
                "simlint",
                // serve promises byte-identical response bodies for
                // identical requests; hash-order iteration would leak
                // into JSON rendering.
                "serve",
                // workloads generates scenarios (MachineMix/ClusterMix)
                // whose app order feeds golden-trace determinism.
                "workloads",
            ]),
            wall_clock_exempt: vec![
                (
                    "iobench".to_string(),
                    "measures host wall-clock for scale-trajectory throughput".to_string(),
                ),
                (
                    "bench".to_string(),
                    "figure/scale binaries report host wall-clock runtimes".to_string(),
                ),
                (
                    "serve".to_string(),
                    "HTTP service: request-log latency, socket timeouts, and the \
                     reactor/connection idle, slow-loris, and shutdown deadlines \
                     are host time"
                        .to_string(),
                ),
            ],
            float_accum: own(&["simcore"]),
        }
    }

    /// Whether R1 covers `crate_name`.
    pub fn is_order_sensitive(&self, crate_name: &str) -> bool {
        self.order_sensitive.iter().any(|c| c == crate_name)
    }

    /// Whether R2 covers `crate_name` (i.e. it is *not* exempt).
    pub fn is_wall_clock_checked(&self, crate_name: &str) -> bool {
        self.wall_clock_exempt_reason(crate_name).is_none()
    }

    /// The written justification for a crate's R2 exemption, if any.
    pub fn wall_clock_exempt_reason(&self, crate_name: &str) -> Option<&str> {
        self.wall_clock_exempt
            .iter()
            .find(|(c, _)| c == crate_name)
            .map(|(_, reason)| reason.as_str())
    }

    /// Whether R5 covers `crate_name`.
    pub fn is_float_accum(&self, crate_name: &str) -> bool {
        self.float_accum.iter().any(|c| c == crate_name)
    }
}

/// Per-file input to the per-file rules.
pub struct FileInput {
    /// Workspace-relative path with forward slashes.
    pub path: String,
    /// Crate directory name (`simcore`, `core`, …; the root umbrella
    /// crate is `calciom-stack`).
    pub crate_name: String,
    /// Lexed source.
    pub lexed: Lexed,
}

/// Runs every per-file rule over one file under the given scope
/// configuration, returning raw findings (before allow resolution).
pub fn scan_file(input: &FileInput, scope: &ScopeConfig) -> Vec<Finding> {
    let mut out = Vec::new();

    if scope.is_order_sensitive(&input.crate_name) {
        r1_nondeterministic_collections(input, &mut out);
    }
    if scope.is_wall_clock_checked(&input.crate_name) {
        r2_wall_clock(input, &mut out);
    }
    r3_stringly_errors(input, &mut out);
    r4_unchecked_panic(input, &mut out);
    if scope.is_float_accum(&input.crate_name) {
        r5_raw_float_accumulation(input, &mut out);
    }
    r7_unseeded_rng(input, &mut out);
    r8_nan_passing_check(input, &mut out);
    out
}

fn finding(rule: &'static RuleInfo, input: &FileInput, line: u32, message: String) -> Finding {
    Finding {
        rule: rule.id,
        name: rule.name,
        file: input.path.clone(),
        line,
        message,
    }
}

/// R1: `HashMap`/`HashSet` anywhere in an order-sensitive crate,
/// including tests (a test that iterates one flakes the suite).
fn r1_nondeterministic_collections(input: &FileInput, out: &mut Vec<Finding>) {
    for t in &input.lexed.tokens {
        if t.is_ident("HashMap") || t.is_ident("HashSet") {
            out.push(finding(
                &RULES[0],
                input,
                t.line,
                format!(
                    "`{}` iterates in nondeterministic order; use BTreeMap/BTreeSet \
                     or an index-keyed structure (crate `{}` feeds golden traces)",
                    t.text, input.crate_name
                ),
            ));
        }
    }
}

/// R2: `Instant` / `SystemTime` in non-test code of a simulation crate.
fn r2_wall_clock(input: &FileInput, out: &mut Vec<Finding>) {
    for t in &input.lexed.tokens {
        if input.lexed.is_test_line(t.line) {
            continue;
        }
        if t.is_ident("Instant") || t.is_ident("SystemTime") {
            out.push(finding(
                &RULES[1],
                input,
                t.line,
                format!(
                    "wall-clock type `{}` in a simulation crate; simulated time \
                     is owned by the kernel (`simcore::SimTime`)",
                    t.text
                ),
            ));
        }
    }
}

/// R3: `Result<_, String>` in non-test code (any crate).
fn r3_stringly_errors(input: &FileInput, out: &mut Vec<Finding>) {
    let toks = &input.lexed.tokens;
    let mut i = 0usize;
    while i < toks.len() {
        if toks[i].is_ident("Result") && !input.lexed.is_test_line(toks[i].line) {
            // Optional turbofish `::` then `<`.
            let mut j = i + 1;
            if toks.get(j).is_some_and(|t| t.is_punct(":"))
                && toks.get(j + 1).is_some_and(|t| t.is_punct(":"))
            {
                j += 2;
            }
            if toks.get(j).is_some_and(|t| t.is_punct("<")) {
                if let Some(err_ty) = stringly_error_type(toks, j) {
                    out.push(finding(
                        &RULES[2],
                        input,
                        toks[i].line,
                        format!(
                            "`Result<_, {err_ty}>` breaks the typed-error contract; \
                             use (or extend) the crate's error enum"
                        ),
                    ));
                }
            }
        }
        i += 1;
    }
}

/// Scans a `Result<…>` generic list starting at the `<` token and returns
/// the error type's rendered text when it is `String`. Gives up (returns
/// `None`) on anything that stops looking like a type.
fn stringly_error_type(toks: &[Tok], open: usize) -> Option<String> {
    let mut angle = 0i32;
    let mut paren = 0i32;
    let mut err_start: Option<usize> = None;
    // Bounded scan: generic argument lists in this workspace are short;
    // 120 tokens is far beyond any real signature.
    for (k, t) in toks.iter().enumerate().skip(open).take(120) {
        if t.kind == TokKind::Punct {
            match t.text.as_str() {
                "<" => angle += 1,
                ">" => {
                    angle -= 1;
                    if angle == 0 {
                        let start = err_start?;
                        let err: Vec<&str> =
                            toks[start..k].iter().map(|t| t.text.as_str()).collect();
                        return match err.as_slice() {
                            ["String"]
                            | ["std", ":", ":", "string", ":", ":", "String"]
                            | ["alloc", ":", ":", "string", ":", ":", "String"] => {
                                Some("String".to_string())
                            }
                            _ => None,
                        };
                    }
                }
                "(" | "[" => paren += 1,
                ")" | "]" => paren -= 1,
                "," if angle == 1 && paren == 0 => err_start = Some(k + 1),
                ";" | "{" => return None, // ran out of the type position
                _ => {}
            }
        }
    }
    None
}

/// R4: `.unwrap()` / `.expect(…)` / `panic!` / `unreachable!` / `todo!` /
/// `unimplemented!` in non-test code.
fn r4_unchecked_panic(input: &FileInput, out: &mut Vec<Finding>) {
    let toks = &input.lexed.tokens;
    for (i, t) in toks.iter().enumerate() {
        if t.kind != TokKind::Ident || input.lexed.is_test_line(t.line) {
            continue;
        }
        let hit = match t.text.as_str() {
            "unwrap" | "expect" => i > 0 && toks[i - 1].is_punct("."),
            "panic" | "unreachable" | "todo" | "unimplemented" => {
                toks.get(i + 1).is_some_and(|n| n.is_punct("!"))
            }
            _ => false,
        };
        if hit {
            let call = if t.text == "unwrap" || t.text == "expect" {
                format!(".{}()", t.text)
            } else {
                format!("{}!", t.text)
            };
            out.push(finding(
                &RULES[3],
                input,
                t.line,
                format!(
                    "`{call}` in non-test library code; return a typed error, or \
                     justify with `// simlint: allow(R4, reason)`"
                ),
            ));
        }
    }
}

/// R5: bare `+=` / `-=` on a `remaining`/`residual`-named field in a
/// crate that hosts `Medium` implementations.
fn r5_raw_float_accumulation(input: &FileInput, out: &mut Vec<Finding>) {
    let toks = &input.lexed.tokens;
    for (i, t) in toks.iter().enumerate() {
        if t.kind != TokKind::Ident || input.lexed.is_test_line(t.line) {
            continue;
        }
        let name = t.text.as_str();
        let accum_field = name == "remaining"
            || name == "residual"
            || name.starts_with("remaining_")
            || name.starts_with("residual_");
        if !accum_field {
            continue;
        }
        if let Some(op) = toks.get(i + 1) {
            if op.is_punct("+=") || op.is_punct("-=") {
                out.push(finding(
                    &RULES[4],
                    input,
                    t.line,
                    format!(
                        "bare `{} {}` accumulation drifts; clamp or compensate, and \
                         state the scheme in `// simlint: allow(R5, reason)`",
                        t.text, op.text
                    ),
                ));
            }
        }
    }
}

/// R7: unseeded randomness anywhere (tests included — an unseeded test is
/// a flaky test).
fn r7_unseeded_rng(input: &FileInput, out: &mut Vec<Finding>) {
    let toks = &input.lexed.tokens;
    for (i, t) in toks.iter().enumerate() {
        if t.kind != TokKind::Ident {
            continue;
        }
        let hit = match t.text.as_str() {
            "thread_rng" | "from_entropy" | "OsRng" => true,
            "random" => {
                // `rand::random` only; a field or method named `random`
                // elsewhere is fine.
                i >= 3
                    && toks[i - 1].is_punct(":")
                    && toks[i - 2].is_punct(":")
                    && toks[i - 3].is_ident("rand")
            }
            _ => false,
        };
        if hit {
            out.push(finding(
                &RULES[6],
                input,
                t.line,
                format!(
                    "`{}` draws unseeded randomness; use a seeded generator \
                     (`simcore::rng`) so runs reproduce",
                    t.text
                ),
            ));
        }
    }
}

/// R8: inside a non-test `fn validate*`, an `if` whose condition
/// compares a path with `<`/`<=` against a float literal and whose
/// branch returns `Err` — when the function never asks that path
/// `is_finite()`/`is_nan()`. Every comparison with NaN is false, so
/// such a check waves NaN (and, against a lower bound, +∞) through.
fn r8_nan_passing_check(input: &FileInput, out: &mut Vec<Finding>) {
    let toks = &input.lexed.tokens;
    let mut i = 0usize;
    while i + 1 < toks.len() {
        let name = &toks[i + 1];
        let is_validate = toks[i].is_ident("fn")
            && name.kind == TokKind::Ident
            && name.text.starts_with("validate")
            && !input.lexed.is_test_line(name.line);
        let body = if is_validate {
            fn_body(toks, i + 2)
        } else {
            None
        };
        let Some((open, close)) = body else {
            i += 1;
            continue;
        };
        for (path, line) in nan_passing_bounds(&toks[open..=close]) {
            let shown = path.join(".");
            out.push(finding(
                &RULES[7],
                input,
                line,
                format!(
                    "`{shown}` is bounded with `<`/`<=` in `fn {}`, which NaN passes; \
                     reject `!{shown}.is_finite()` first",
                    name.text
                ),
            ));
        }
        i = close + 1;
    }
}

/// The `{ … }` token range of the function whose signature starts at
/// `from`, or `None` for a bodiless declaration.
fn fn_body(toks: &[Tok], from: usize) -> Option<(usize, usize)> {
    let mut depth = 0i32;
    let mut k = from;
    while k < toks.len() {
        let t = &toks[k];
        if t.is_punct("(") || t.is_punct("[") {
            depth += 1;
        } else if t.is_punct(")") || t.is_punct("]") {
            depth -= 1;
        } else if depth == 0 && t.is_punct(";") {
            return None;
        } else if depth == 0 && t.is_punct("{") {
            return Some((k, matching_brace(toks, k)?));
        }
        k += 1;
    }
    None
}

/// Index of the `}` closing the `{` at `open`.
fn matching_brace(toks: &[Tok], open: usize) -> Option<usize> {
    let mut depth = 0i32;
    for (k, t) in toks.iter().enumerate().skip(open) {
        if t.is_punct("{") {
            depth += 1;
        } else if t.is_punct("}") {
            depth -= 1;
            if depth == 0 {
                return Some(k);
            }
        }
    }
    None
}

/// `(path, line)` for every `if <path> <[=] <float> { … Err … }` in a
/// function body whose path is never asked `is_finite()`/`is_nan()`.
/// Bounds inside a negated group, `if !(x > 0.0 && x <= 1.0)`, already
/// reject NaN and are not reported.
fn nan_passing_bounds(body: &[Tok]) -> Vec<(Vec<&str>, u32)> {
    let mut out: Vec<(Vec<&str>, u32)> = Vec::new();
    for (k, t) in body.iter().enumerate() {
        if !t.is_ident("if") {
            continue;
        }
        let Some(open) = (k + 1..body.len()).find(|&j| body[j].is_punct("{")) else {
            continue;
        };
        let Some(close) = matching_brace(body, open) else {
            continue;
        };
        if !body[open..close].iter().any(|t| t.is_ident("Err")) {
            continue;
        }
        // One entry per open `(`: whether it is negated (`!(…)`). A
        // bound inside a negated group rejects NaN — `!(x > 0.0)` is true
        // for NaN — so only un-negated bounds count.
        let mut groups: Vec<bool> = Vec::new();
        for c in k + 1..open {
            if body[c].is_punct("(") {
                groups.push(body[c - 1].is_punct("!"));
            } else if body[c].is_punct(")") {
                groups.pop();
            }
            if !body[c].is_punct("<")
                || groups.contains(&true)
                || !compares_with_float(&body[c + 1..open])
            {
                continue;
            }
            let path = path_ending_at(body, c);
            if !path.is_empty()
                && !has_finiteness_check(body, &path)
                && !out.iter().any(|(p, _)| *p == path)
            {
                out.push((path, body[c].line));
            }
        }
    }
    out
}

/// True when `rest` (the tokens after a `<`) is `[=] [-] <float literal>`.
fn compares_with_float(rest: &[Tok]) -> bool {
    let mut rest = rest;
    for skip in ["=", "-"] {
        if rest.first().is_some_and(|t| t.is_punct(skip)) {
            rest = &rest[1..];
        }
    }
    rest.first()
        .is_some_and(|t| t.kind == TokKind::Literal && is_float_literal(&t.text))
}

fn is_float_literal(text: &str) -> bool {
    let radix = ["0x", "0o", "0b"].iter().any(|p| text.starts_with(p));
    text.starts_with(|c: char| c.is_ascii_digit())
        && !radix
        && (text.contains(['.', 'e', 'E']) || text.ends_with("f64") || text.ends_with("f32"))
}

/// The dotted identifier path (`self.buffer_bytes`) that ends just
/// before index `end`; empty when the operand is not a plain path
/// (a call, an index, a field of a call, the type of an `as` cast).
fn path_ending_at(toks: &[Tok], end: usize) -> Vec<&str> {
    let mut start = end;
    while start > 0 && toks[start - 1].kind == TokKind::Ident {
        start -= 1;
        if start >= 2 && toks[start - 1].is_punct(".") && toks[start - 2].kind == TokKind::Ident {
            start -= 1;
        } else {
            break;
        }
    }
    let qualified = start > 0 && (toks[start - 1].is_punct(".") || toks[start - 1].is_ident("as"));
    if start == end || qualified {
        return Vec::new();
    }
    toks[start..end]
        .iter()
        .filter(|t| t.kind == TokKind::Ident)
        .map(|t| t.text.as_str())
        .collect()
}

/// True when `path.is_finite` or `path.is_nan` appears in `toks`.
fn has_finiteness_check(toks: &[Tok], path: &[&str]) -> bool {
    let n = path.len() * 2 + 1;
    toks.windows(n).any(|w| {
        w.iter().step_by(2).zip(path).all(|(t, p)| t.is_ident(p))
            && w.iter().skip(1).step_by(2).all(|t| t.is_punct("."))
            && (w[n - 1].is_ident("is_finite") || w[n - 1].is_ident("is_nan"))
    })
}

/// Configuration of the workspace-level R6 check.
#[derive(Debug, Clone)]
pub struct EventCoverageConfig {
    /// Enum whose variants are checked (`SimEvent`).
    pub enum_name: String,
    /// File holding the enum definition.
    pub def_path: String,
    /// Files in which every variant must appear as `Enum::Variant`
    /// (the report fold and the trace codec).
    pub coverage_paths: Vec<String>,
}

impl EventCoverageConfig {
    /// The workspace's real configuration: `SimEvent` must be folded by
    /// `ReportBuilder` (observe.rs) and encoded/decoded by the trace
    /// codec (trace.rs).
    pub fn workspace_default() -> Self {
        EventCoverageConfig {
            enum_name: "SimEvent".to_string(),
            def_path: "crates/core/src/observe.rs".to_string(),
            coverage_paths: vec![
                "crates/core/src/observe.rs".to_string(),
                "crates/core/src/trace.rs".to_string(),
            ],
        }
    }
}

/// R6: every variant of the configured enum appears as `Enum::Variant`
/// in each coverage file. Inside the enum definition variants are bare
/// idents, so the definition itself never satisfies coverage.
pub fn check_event_coverage(
    cfg: &EventCoverageConfig,
    files: &BTreeMap<String, Lexed>,
) -> Vec<Finding> {
    let rule = &RULES[5];
    let mut out = Vec::new();
    let Some(def) = files.get(&cfg.def_path) else {
        out.push(Finding {
            rule: rule.id,
            name: rule.name,
            file: cfg.def_path.clone(),
            line: 1,
            message: format!(
                "enum `{}` definition file not found in scan set",
                cfg.enum_name
            ),
        });
        return out;
    };
    let variants = enum_variants(&def.tokens, &cfg.enum_name);
    if variants.is_empty() {
        out.push(Finding {
            rule: rule.id,
            name: rule.name,
            file: cfg.def_path.clone(),
            line: 1,
            message: format!("enum `{}` not found or has no variants", cfg.enum_name),
        });
        return out;
    }
    for path in &cfg.coverage_paths {
        let Some(lexed) = files.get(path) else {
            out.push(Finding {
                rule: rule.id,
                name: rule.name,
                file: path.clone(),
                line: 1,
                message: format!(
                    "coverage file for `{}` not found in scan set",
                    cfg.enum_name
                ),
            });
            continue;
        };
        for (variant, def_line) in &variants {
            if !mentions_variant(&lexed.tokens, &cfg.enum_name, variant) {
                out.push(Finding {
                    rule: rule.id,
                    name: rule.name,
                    file: cfg.def_path.clone(),
                    line: *def_line,
                    message: format!(
                        "`{}::{}` is not handled in {} — report fold and trace \
                         codec must cover every variant",
                        cfg.enum_name, variant, path
                    ),
                });
            }
        }
    }
    out
}

/// Extracts `(variant, line)` pairs from `enum <name> { … }`.
fn enum_variants(toks: &[Tok], enum_name: &str) -> Vec<(String, u32)> {
    let mut variants = Vec::new();
    let mut i = 0usize;
    while i < toks.len() {
        if toks[i].is_ident("enum") && toks.get(i + 1).is_some_and(|t| t.is_ident(enum_name)) {
            // Skip to the opening brace (no generics on event enums, but
            // tolerate them).
            let mut j = i + 2;
            while j < toks.len() && !toks[j].is_punct("{") {
                j += 1;
            }
            let mut depth = 0i32;
            while j < toks.len() {
                let t = &toks[j];
                if t.is_punct("{") || t.is_punct("(") || t.is_punct("[") {
                    depth += 1;
                } else if t.is_punct("}") || t.is_punct(")") || t.is_punct("]") {
                    depth -= 1;
                    if depth == 0 {
                        return variants; // closed the enum body
                    }
                } else if depth == 1 && t.kind == TokKind::Ident {
                    // First ident at depth 1 after `{` or `,` is the
                    // variant name; skip its payload to the next `,`.
                    variants.push((t.text.clone(), t.line));
                    let mut k = j + 1;
                    let mut inner = 0i32;
                    while k < toks.len() {
                        let u = &toks[k];
                        if u.is_punct("{") || u.is_punct("(") || u.is_punct("[") {
                            inner += 1;
                        } else if u.is_punct("}") || u.is_punct(")") || u.is_punct("]") {
                            if inner == 0 {
                                return variants; // enum body closed
                            }
                            inner -= 1;
                        } else if u.is_punct(",") && inner == 0 {
                            break;
                        }
                        k += 1;
                    }
                    j = k;
                }
                j += 1;
            }
            return variants;
        }
        i += 1;
    }
    variants
}

/// True when `Enum::Variant` appears in the token stream.
fn mentions_variant(toks: &[Tok], enum_name: &str, variant: &str) -> bool {
    toks.windows(4).any(|w| {
        w[0].is_ident(enum_name)
            && w[1].is_punct(":")
            && w[2].is_punct(":")
            && w[3].is_ident(variant)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn input(crate_name: &str, src: &str) -> FileInput {
        FileInput {
            path: format!("crates/{crate_name}/src/test_input.rs"),
            crate_name: crate_name.to_string(),
            lexed: lex(src),
        }
    }

    fn scan_file(input: &FileInput) -> Vec<Finding> {
        super::scan_file(input, &ScopeConfig::workspace_default())
    }

    #[test]
    fn r1_only_fires_in_order_sensitive_crates() {
        let src = "use std::collections::HashMap;\nfn f(m: HashMap<u32, u32>) {}";
        assert_eq!(scan_file(&input("simcore", src)).len(), 2);
        assert_eq!(scan_file(&input("workloads", src)).len(), 2);
        assert!(scan_file(&input("bench", src)).is_empty());
    }

    #[test]
    fn r1_covers_test_code_too() {
        let src = "#[cfg(test)]\nmod tests {\n    use std::collections::HashSet;\n}";
        let found = scan_file(&input("core", src));
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].rule, "R1");
        assert_eq!(found[0].line, 3);
    }

    #[test]
    fn r2_skips_tests_and_exempt_crates() {
        let src = "fn f() { let t = Instant::now(); }";
        assert_eq!(scan_file(&input("pfs", src)).len(), 1);
        assert!(scan_file(&input("iobench", src)).is_empty());
        let test_src = "#[test]\nfn t() { let t = Instant::now(); }";
        assert!(scan_file(&input("pfs", test_src)).is_empty());
    }

    #[test]
    fn r2_exemptions_are_reasoned_and_new_crates_are_checked_by_default() {
        let scope = ScopeConfig::workspace_default();
        // Every exemption carries a written justification.
        for (krate, reason) in &scope.wall_clock_exempt {
            assert!(
                !reason.trim().is_empty(),
                "{krate} exemption needs a reason"
            );
        }
        let src = "fn f() { let t = Instant::now(); }";
        // serve is exempt (host-time request logs) …
        assert!(scope.wall_clock_exempt_reason("serve").is_some());
        assert!(scan_file(&input("serve", src)).is_empty());
        // … but a crate added to the workspace tomorrow is checked until
        // someone argues its exemption here.
        assert!(scope.is_wall_clock_checked("some-future-crate"));
        assert_eq!(scan_file(&input("some-future-crate", src)).len(), 1);
    }

    #[test]
    fn serve_stays_covered_by_r3_and_r4() {
        let bad = "pub fn f(x: Option<u32>) -> Result<u32, String> { Ok(x.unwrap()) }";
        let found = scan_file(&input("serve", bad));
        assert!(found.iter().any(|f| f.rule == "R3"), "{found:?}");
        assert!(found.iter().any(|f| f.rule == "R4"), "{found:?}");
    }

    #[test]
    fn r3_matches_string_error_types_only() {
        let bad = "pub fn f() -> Result<u32, String> { Ok(1) }";
        let found = scan_file(&input("workloads", bad));
        assert!(found.iter().any(|f| f.rule == "R3"), "{found:?}");
        let nested = "pub fn g() -> Result<Vec<(u32, String)>, Error> { todo() }";
        assert!(!scan_file(&input("workloads", nested))
            .iter()
            .any(|f| f.rule == "R3"));
        let qualified = "pub fn h() -> Result<(), std::string::String> { Ok(()) }";
        assert!(scan_file(&input("workloads", qualified))
            .iter()
            .any(|f| f.rule == "R3"));
    }

    #[test]
    fn r4_catches_the_panic_family_outside_tests() {
        let src = "\
fn f(x: Option<u32>) -> u32 {
    let a = x.unwrap();
    let b = x.expect(\"msg\");
    if a > b { panic!(\"boom\") }
    unreachable!()
}
#[cfg(test)]
mod tests {
    #[test]
    fn t() { Some(1).unwrap(); }
}";
        let found = scan_file(&input("core", src));
        let r4: Vec<_> = found.iter().filter(|f| f.rule == "R4").collect();
        assert_eq!(r4.len(), 4, "{r4:?}");
        assert!(r4.iter().all(|f| f.line <= 5));
    }

    #[test]
    fn r4_does_not_fire_on_unwrap_or_variants() {
        let src = "fn f(x: Option<u32>) -> u32 { x.unwrap_or(0) + x.unwrap_or_default() }";
        assert!(!scan_file(&input("core", src))
            .iter()
            .any(|f| f.rule == "R4"));
    }

    #[test]
    fn r5_fires_on_remaining_accumulation_in_simcore_only() {
        let src = "fn advance(&mut self) { self.remaining -= moved; self.other += 1.0; }";
        let found = scan_file(&input("simcore", src));
        assert_eq!(found.iter().filter(|f| f.rule == "R5").count(), 1);
        assert!(!scan_file(&input("core", src))
            .iter()
            .any(|f| f.rule == "R5"));
    }

    #[test]
    fn r7_fires_on_unseeded_rng_even_in_tests() {
        let src = "#[test]\nfn t() { let x: u8 = rand::random(); let r = thread_rng(); }";
        let found = scan_file(&input("workloads", src));
        assert_eq!(found.iter().filter(|f| f.rule == "R7").count(), 2);
        // A method merely *named* random is fine.
        let ok = "fn f(d: &Dist) -> f64 { d.random() }";
        assert!(scan_file(&input("workloads", ok)).is_empty());
    }

    #[test]
    fn r6_reports_missing_variant_coverage() {
        let def = "pub enum Ev { A { x: u32 }, B(u8), C, }";
        let codec_missing_c =
            "fn enc(e: &Ev) { match e { Ev::A { .. } => {}, Ev::B(_) => {}, _ => {} } }";
        let mut files = BTreeMap::new();
        files.insert("def.rs".to_string(), lex(def));
        files.insert("codec.rs".to_string(), lex(codec_missing_c));
        let cfg = EventCoverageConfig {
            enum_name: "Ev".to_string(),
            def_path: "def.rs".to_string(),
            coverage_paths: vec!["codec.rs".to_string()],
        };
        let found = check_event_coverage(&cfg, &files);
        assert_eq!(found.len(), 1, "{found:?}");
        assert!(found[0].message.contains("Ev::C"));
    }

    #[test]
    fn r6_passes_on_full_coverage() {
        let def = "pub enum Ev { A, B, }";
        let codec = "fn enc(e: &Ev) { match e { Ev::A => {}, Ev::B => {} } }";
        let mut files = BTreeMap::new();
        files.insert("def.rs".to_string(), lex(def));
        files.insert("codec.rs".to_string(), lex(codec));
        let cfg = EventCoverageConfig {
            enum_name: "Ev".to_string(),
            def_path: "def.rs".to_string(),
            coverage_paths: vec!["codec.rs".to_string()],
        };
        assert!(check_event_coverage(&cfg, &files).is_empty());
    }

    #[test]
    fn enum_variants_parses_payload_shapes() {
        let toks = lex("enum E { Unit, Tuple(u8, Vec<u32>), Struct { a: u8, b: B }, Last }").tokens;
        let names: Vec<String> = enum_variants(&toks, "E")
            .into_iter()
            .map(|(n, _)| n)
            .collect();
        assert_eq!(names, vec!["Unit", "Tuple", "Struct", "Last"]);
    }
}
