//! The concurrency-safety audit (`XT0901`–`XT0905`).
//!
//! A panicking or deadlocking worker breaks the engine's determinism
//! contract, so the engine crates (see `AnalyzerConfig::engine_crates`)
//! get five lexical checks on top of the workspace-wide rules:
//!
//! * `XT0901` — an `unsafe` token whose nearest preceding non-trivia
//!   neighbour is not a comment containing `SAFETY:`;
//! * `XT0902` — a lock acquired (`.lock()`, `.read()`, `.write()`)
//!   while a *let-bound* guard from an earlier acquisition is still in
//!   scope (temporaries consumed within their own statement do not
//!   count);
//! * `XT0903` — `Ordering::Relaxed` outside tests: every relaxed
//!   atomic must be audited through the allowlist;
//! * `XT0904` / `XT0905` — `.unwrap()`/`.expect()` and slice indexing
//!   in functions reachable from a worker-closure seed, workspace-wide
//!   via the call graph (the static counterparts of the engine's
//!   panic-containment wrapper).

use std::collections::BTreeSet;

use crate::callgraph::CallGraph;
use crate::codes;
use crate::findings::{Finding, Severity};
use crate::items::{code_indices, ident_in, ident_is, in_ranges, is_punct};
use crate::lexer::{Token, TokenKind};
use crate::model::CrateData;

/// Token-anchored finding constructor shared by every rule here.
fn at(code: &'static str, f: &crate::model::FileData, t: &Token, message: String) -> Finding {
    Finding {
        code,
        severity: Severity::Error,
        file: f.rel.clone(),
        line: t.line,
        col_start: t.col,
        col_end: t.col + u32::try_from(t.end - t.start).unwrap_or(0),
        message,
    }
}

/// Runs the audit: per-file rules over the engine crates plus
/// graph-reachability rules over the whole workspace.
#[must_use]
pub fn check(
    crates: &[CrateData],
    graph: &CallGraph,
    engine_crates: &BTreeSet<String>,
) -> Vec<Finding> {
    let mut findings = Vec::new();
    for c in crates {
        if !engine_crates.contains(&c.dir_name) {
            continue;
        }
        for f in &c.files {
            scan_engine_file(f, &mut findings);
        }
    }
    worker_reach_rules(crates, graph, &mut findings);
    findings
}

/// `XT0901`–`XT0903` over one engine-crate file.
fn scan_engine_file(f: &crate::model::FileData, findings: &mut Vec<Finding>) {
    let src = &f.src;
    let tokens = &f.tokens;
    let code = code_indices(tokens);

    // Live let-bound lock guards seen so far: (acquisition byte
    // position, scope-end byte, line of the acquisition).
    let mut guards: Vec<(usize, usize, u32)> = Vec::new();

    for (ci, &idx) in code.iter().enumerate() {
        let t = &tokens[idx];
        if in_ranges(t.start, &f.test_ranges) || in_ranges(t.start, &f.macro_ranges) {
            continue;
        }
        if ident_is(t, src, "unsafe") && !safety_comment_before(src, tokens, idx) {
            findings.push(at(
                codes::UNSAFE_NO_SAFETY_COMMENT,
                f,
                t,
                "`unsafe` without an adjacent `// SAFETY:` comment explaining the proof"
                    .to_string(),
            ));
        }
        if ident_is(t, src, "Relaxed")
            && ci >= 3
            && is_punct(&tokens[code[ci - 1]], src, ':')
            && is_punct(&tokens[code[ci - 2]], src, ':')
            && ident_is(&tokens[code[ci - 3]], src, "Ordering")
        {
            findings.push(at(
                codes::RELAXED_ORDERING,
                f,
                t,
                "`Ordering::Relaxed` must be audited: justify via the allowlist or strengthen"
                    .to_string(),
            ));
        }
        // Lock acquisitions: `.lock()`, `.read()`, `.write()`.
        let after_dot = ci >= 1 && is_punct(&tokens[code[ci - 1]], src, '.');
        let opens_call = code
            .get(ci + 1)
            .is_some_and(|&k| is_punct(&tokens[k], src, '('));
        if after_dot && opens_call && ident_in(t, src, &["lock", "read", "write"]) {
            if let Some(&(_, _, line)) = guards
                .iter()
                .find(|&&(acq, end, _)| t.start > acq && t.start < end)
            {
                findings.push(at(
                    codes::NESTED_LOCK,
                    f,
                    t,
                    format!(
                        "lock acquired while the guard bound at line {line} is still in scope \
                         (lock-order hazard)"
                    ),
                ));
            }
            if is_live_guard_binding(src, tokens, &code, ci) {
                let scope_end = enclosing_block_end(src, tokens, &code, ci);
                guards.push((t.start, scope_end, t.line));
            }
        }
    }
}

/// `true` when the nearest non-whitespace token before raw index `idx`
/// is a comment mentioning `SAFETY:`.
fn safety_comment_before(src: &str, tokens: &[Token], idx: usize) -> bool {
    for t in tokens[..idx].iter().rev() {
        match t.kind {
            TokenKind::Whitespace => continue,
            TokenKind::LineComment
            | TokenKind::BlockComment
            | TokenKind::DocLineComment
            | TokenKind::DocBlockComment => return t.text(src).contains("SAFETY:"),
            _ => return false,
        }
    }
    false
}

/// `true` when the acquisition at code index `ci` produces a guard
/// that outlives its statement: the statement starts with `let` (or
/// `if let`/`while let`) and the only methods chained after the
/// acquisition are `unwrap`/`expect` (anything else consumes the
/// guard as a temporary).
fn is_live_guard_binding(src: &str, tokens: &[Token], code: &[usize], ci: usize) -> bool {
    // Statement start: scan back to `;`, `{`, or `}`.
    let mut first = None;
    for p in (0..ci).rev() {
        let t = &tokens[code[p]];
        if is_punct(t, src, ';') || is_punct(t, src, '{') || is_punct(t, src, '}') {
            break;
        }
        first = Some(p);
    }
    let Some(first) = first else { return false };
    let head = &tokens[code[first]];
    let is_let = ident_is(head, src, "let")
        || (ident_in(head, src, &["if", "while"])
            && code
                .get(first + 1)
                .is_some_and(|&k| ident_is(&tokens[k], src, "let")));
    if !is_let {
        return false;
    }
    // Walk the chain after the acquisition's argument list.
    let Some(mut j) = skip_call(src, tokens, code, ci + 1) else {
        return false;
    };
    loop {
        let Some(&dot) = code.get(j) else { return true };
        if !is_punct(&tokens[dot], src, '.') {
            return true; // `;`, `)` … — the binding holds the guard
        }
        let Some(&m) = code.get(j + 1) else {
            return true;
        };
        if !ident_in(&tokens[m], src, &["expect", "unwrap"]) {
            return false; // chained into something else: temporary
        }
        match skip_call(src, tokens, code, j + 2) {
            Some(next) => j = next,
            None => return true,
        }
    }
}

/// If code index `at` opens a `(`, returns the index after its
/// matching `)`.
fn skip_call(src: &str, tokens: &[Token], code: &[usize], at: usize) -> Option<usize> {
    let &k = code.get(at)?;
    if !is_punct(&tokens[k], src, '(') {
        return None;
    }
    let mut depth = 0i64;
    let mut j = at;
    while j < code.len() {
        let t = &tokens[code[j]];
        if is_punct(t, src, '(') {
            depth += 1;
        } else if is_punct(t, src, ')') {
            depth -= 1;
            if depth == 0 {
                return Some(j + 1);
            }
        }
        j += 1;
    }
    None
}

/// Byte offset where the block enclosing code index `ci` closes.
fn enclosing_block_end(src: &str, tokens: &[Token], code: &[usize], ci: usize) -> usize {
    let mut depth = 0i64;
    for &idx in &code[ci..] {
        let t = &tokens[idx];
        if is_punct(t, src, '{') {
            depth += 1;
        } else if is_punct(t, src, '}') {
            depth -= 1;
            if depth < 0 {
                return t.start;
            }
        }
    }
    src.len()
}

/// `XT0904`/`XT0905` over every function reachable from a worker seed.
fn worker_reach_rules(crates: &[CrateData], graph: &CallGraph, findings: &mut Vec<Finding>) {
    let reached = graph.reachable(&graph.seeds_worker);
    for (ni, node) in graph.nodes.iter().enumerate() {
        let Some(seed) = reached[ni] else { continue };
        let seed_name = &graph.nodes[seed].name;
        let f = &crates[node.crate_idx].files[node.file_idx];
        let src = &f.src;
        let tokens = &f.tokens;
        let code = code_indices(tokens);
        for (ci, &idx) in code.iter().enumerate() {
            let t = &tokens[idx];
            if t.start < node.body.0
                || t.start >= node.body.1
                || in_ranges(t.start, &f.test_ranges)
                || in_ranges(t.start, &f.macro_ranges)
                || graph.owner(node.crate_idx, node.file_idx, t.start) != Some(ni)
            {
                continue;
            }
            let after_dot = ci >= 1 && is_punct(&tokens[code[ci - 1]], src, '.');
            let opens_call = code
                .get(ci + 1)
                .is_some_and(|&k| is_punct(&tokens[k], src, '('));
            if after_dot && opens_call && ident_in(t, src, &["expect", "unwrap"]) {
                findings.push(at(
                    codes::WORKER_PANIC_CALL,
                    f,
                    t,
                    format!(
                        "`.{}()` in `{}`, reachable from worker seed `{seed_name}`: a panicking \
                         worker breaks the engine contract",
                        t.text(src),
                        node.name
                    ),
                ));
            }
            // Indexing: `expr[…]` — the `[` directly after an
            // identifier or a closing `)`/`]`.
            if is_punct(t, src, '[') && ci >= 1 {
                let p = &tokens[code[ci - 1]];
                let indexable =
                    p.kind == TokenKind::Ident || is_punct(p, src, ')') || is_punct(p, src, ']');
                if indexable && !ident_in(p, src, &["else", "in", "match", "return"]) {
                    findings.push(at(
                        codes::WORKER_INDEXING,
                        f,
                        t,
                        format!(
                            "slice indexing in `{}`, reachable from worker seed `{seed_name}`: \
                             an out-of-bounds panic propagates into the engine",
                            node.name
                        ),
                    ));
                }
            }
        }
    }
}
