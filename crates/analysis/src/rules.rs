//! The five lint rules, each a pass over the token stream.
//!
//! Every rule takes the token stream plus a `skip` mask (true = token is
//! inside a test region and the rule should not fire there) and returns
//! raw findings as `(line, message)` pairs; the engine attaches rule ids,
//! applies `lint:allow`, and formats diagnostics.

use crate::config::{Manifest, NameManifest};
use crate::lexer::{Token, TokenKind};

/// A raw finding: 1-based line plus human-readable message. For
/// `lock_order` findings the engine also needs the offending pair, so it
/// rides along (None for every other rule).
pub struct Finding {
    pub line: u32,
    pub message: String,
    pub pair: Option<(String, String)>,
}

impl Finding {
    fn new(line: u32, message: String) -> Finding {
        Finding {
            line,
            message,
            pair: None,
        }
    }
}

/// Index of the next non-comment token at or after `i`.
fn next_code(tokens: &[Token], mut i: usize) -> Option<usize> {
    while i < tokens.len() {
        if !tokens[i].is_comment() {
            return Some(i);
        }
        i += 1;
    }
    None
}

/// Index of the previous non-comment token strictly before `i`.
fn prev_code(tokens: &[Token], i: usize) -> Option<usize> {
    let mut j = i;
    while j > 0 {
        j -= 1;
        if !tokens[j].is_comment() {
            return Some(j);
        }
    }
    None
}

/// L1 `no_panic`: flags `.unwrap()`, `.expect(...)`, `panic!`, `todo!`,
/// and `unimplemented!` outside test code.
pub fn no_panic(tokens: &[Token], skip: &[bool]) -> Vec<Finding> {
    let mut out = Vec::new();
    for (i, t) in tokens.iter().enumerate() {
        if skip[i] || t.kind != TokenKind::Ident {
            continue;
        }
        match t.text {
            "unwrap" | "expect" => {
                let method_call = prev_code(tokens, i).is_some_and(|p| tokens[p].is_punct('.'))
                    && next_code(tokens, i + 1).is_some_and(|n| tokens[n].is_punct('('));
                if method_call {
                    out.push(Finding::new(
                        t.line,
                        format!(".{}() can panic; return a typed error instead", t.text),
                    ));
                }
            }
            "panic" | "todo" | "unimplemented"
                if next_code(tokens, i + 1).is_some_and(|n| tokens[n].is_punct('!')) =>
            {
                out.push(Finding::new(
                    t.line,
                    format!(
                        "{}! is forbidden here; return a typed error instead",
                        t.text
                    ),
                ));
            }
            _ => {}
        }
    }
    out
}

/// L2 `safety_comment`: every `unsafe` block must have a `// SAFETY:`
/// comment immediately above it (or as the first token inside the block).
pub fn safety_comment(tokens: &[Token], skip: &[bool]) -> Vec<Finding> {
    let mut out = Vec::new();
    for (i, t) in tokens.iter().enumerate() {
        if skip[i] || !t.is_ident("unsafe") {
            continue;
        }
        // Only unsafe *blocks*: the next code token is `{`. (`unsafe fn`
        // signatures are governed at the call site, where the block is.)
        let Some(open) = next_code(tokens, i + 1) else {
            continue;
        };
        if !tokens[open].is_punct('{') {
            continue;
        }
        // A SAFETY comment anywhere between the start of the enclosing
        // statement and the `unsafe` keyword counts — this accepts both
        // `// SAFETY: ...\nunsafe { .. }` and the equally common
        // `// SAFETY: ...\nlet x = unsafe { .. }`.
        let mut justified = false;
        let mut j = i;
        while j > 0 {
            j -= 1;
            let back = &tokens[j];
            if back.is_comment() {
                if back.text.contains("SAFETY:") {
                    justified = true;
                    break;
                }
                continue;
            }
            if back.is_punct(';') || back.is_punct('{') || back.is_punct('}') {
                break;
            }
        }
        // ...or the first token inside the block.
        if !justified {
            if let Some(inner) = tokens.get(open + 1) {
                if inner.is_comment() && inner.text.contains("SAFETY:") {
                    justified = true;
                }
            }
        }
        if !justified {
            out.push(Finding::new(
                t.line,
                "unsafe block without a `// SAFETY:` comment".to_string(),
            ));
        }
    }
    out
}

const INT_TYPES: [&str; 12] = [
    "u8", "u16", "u32", "u64", "u128", "usize", "i8", "i16", "i32", "i64", "i128", "isize",
];

/// L3 `truncation`: flags every `as <int-type>` cast. In the binary
/// format modules a silent truncation corrupts bytes on disk or on the
/// wire; use `From`/`TryFrom` instead, or carry a `lint:allow(truncation)`
/// with the widening/masking argument.
pub fn truncation(tokens: &[Token], skip: &[bool]) -> Vec<Finding> {
    let mut out = Vec::new();
    for (i, t) in tokens.iter().enumerate() {
        if skip[i] || !t.is_ident("as") {
            continue;
        }
        let Some(n) = next_code(tokens, i + 1) else {
            continue;
        };
        if tokens[n].kind == TokenKind::Ident && INT_TYPES.contains(&tokens[n].text) {
            out.push(Finding::new(
                t.line,
                format!(
                    "`as {}` cast in a binary-format module; use From/TryFrom",
                    tokens[n].text
                ),
            ));
        }
    }
    out
}

/// L4 `wallclock`: flags `Instant::now` / `SystemTime::now` outside the
/// designated clock modules.
pub fn wallclock(tokens: &[Token], skip: &[bool]) -> Vec<Finding> {
    let mut out = Vec::new();
    for (i, t) in tokens.iter().enumerate() {
        if skip[i] || t.kind != TokenKind::Ident {
            continue;
        }
        if t.text != "Instant" && t.text != "SystemTime" {
            continue;
        }
        let Some(c1) = next_code(tokens, i + 1) else {
            continue;
        };
        let Some(c2) = next_code(tokens, c1 + 1) else {
            continue;
        };
        let Some(m) = next_code(tokens, c2 + 1) else {
            continue;
        };
        if tokens[c1].is_punct(':') && tokens[c2].is_punct(':') && tokens[m].is_ident("now") {
            out.push(Finding::new(
                t.line,
                format!(
                    "{}::now() outside a clock module; take time through obs::clock",
                    t.text
                ),
            ));
        }
    }
    out
}

/// A lock guard known to be live: the variable it is bound to (None for
/// an unbound temporary that we still track until end of statement), the
/// lock field it came from, and the brace depth it was bound at.
struct Guard {
    var: Option<String>,
    lock: String,
    depth: usize,
}

/// L5 `lock_order`: flags an acquisition of one lock while a guard from a
/// *different* lock is held, unless the `held -> acquired` pair is vetted
/// in the lock-order manifest.
///
/// Heuristics, tuned for this workspace:
/// - Only `.read()`, `.write()`, and `.lock()` calls with *empty*
///   argument lists count as acquisitions (this filters `io::Read::read`
///   and `io::Write::write`, which always take a buffer).
/// - The lock name is the field identifier before the final dot
///   (`shared.state.read()` → `state`). Calls whose receiver ends in
///   something other than an identifier (e.g. `f().lock()`) are skipped —
///   name them through a let binding to bring them under the lint.
/// - A `let g = <acq>` binding keeps the guard live until its brace scope
///   closes or `drop(g)` is seen; an unbound acquisition is live only to
///   the end of the statement (`;`).
pub fn lock_order(tokens: &[Token], skip: &[bool], manifest: &Manifest) -> Vec<Finding> {
    let mut out = Vec::new();
    let mut held: Vec<Guard> = Vec::new();
    let mut depth = 0usize;

    let mut i = 0;
    while i < tokens.len() {
        let t = &tokens[i];
        if t.is_comment() {
            i += 1;
            continue;
        }
        if t.is_punct('{') {
            depth += 1;
            i += 1;
            continue;
        }
        if t.is_punct('}') {
            held.retain(|g| g.depth < depth);
            depth = depth.saturating_sub(1);
            i += 1;
            continue;
        }
        if t.is_punct(';') {
            // Statement end: unbound temporaries die here.
            held.retain(|g| g.var.is_some());
            i += 1;
            continue;
        }
        // drop(guard) releases.
        if t.is_ident("drop") {
            if let Some(p1) = next_code(tokens, i + 1) {
                if tokens[p1].is_punct('(') {
                    if let Some(a) = next_code(tokens, p1 + 1) {
                        if tokens[a].kind == TokenKind::Ident {
                            if let Some(close) = next_code(tokens, a + 1) {
                                if tokens[close].is_punct(')') {
                                    let name = tokens[a].text;
                                    held.retain(|g| g.var.as_deref() != Some(name));
                                }
                            }
                        }
                    }
                }
            }
            i += 1;
            continue;
        }
        // Acquisition: Ident(lock) . (read|write|lock) ( )
        let is_acq_method = t.kind == TokenKind::Ident
            && matches!(t.text, "read" | "write" | "lock")
            && prev_code(tokens, i).is_some_and(|p| tokens[p].is_punct('.'));
        if is_acq_method {
            let open = next_code(tokens, i + 1);
            let close = open.and_then(|o| next_code(tokens, o + 1));
            let empty_call = matches!((open, close), (Some(o), Some(c))
                if tokens[o].is_punct('(') && tokens[c].is_punct(')'));
            if empty_call {
                // Name the lock: identifier before the final dot.
                let dot = prev_code(tokens, i).unwrap_or(0);
                let recv = prev_code(tokens, dot);
                if let Some(r) = recv {
                    if tokens[r].kind == TokenKind::Ident && tokens[r].text != "self" {
                        let lock = tokens[r].text.to_string();
                        if !skip[i] {
                            for g in &held {
                                if g.lock != lock && !manifest.allows(&g.lock, &lock) {
                                    out.push(Finding {
                                        line: t.line,
                                        message: format!(
                                            "acquired lock `{lock}` while holding `{}`; \
                                             vet the order in lock-order.manifest",
                                            g.lock
                                        ),
                                        pair: Some((g.lock.clone(), lock.clone())),
                                    });
                                }
                            }
                        }
                        // Bound to a let? Walk left over the receiver chain.
                        let mut b = r;
                        while let Some(p) = prev_code(tokens, b) {
                            if tokens[p].is_punct('.') {
                                if let Some(pp) = prev_code(tokens, p) {
                                    if tokens[pp].kind == TokenKind::Ident {
                                        b = pp;
                                        continue;
                                    }
                                }
                            }
                            break;
                        }
                        let var = prev_code(tokens, b).and_then(|eq| {
                            if !tokens[eq].is_punct('=') {
                                return None;
                            }
                            let v = prev_code(tokens, eq)?;
                            if tokens[v].kind != TokenKind::Ident {
                                return None;
                            }
                            let kw = prev_code(tokens, v)?;
                            let is_let = tokens[kw].is_ident("let")
                                || (tokens[kw].is_ident("mut")
                                    && prev_code(tokens, kw)
                                        .is_some_and(|k| tokens[k].is_ident("let")));
                            is_let.then(|| tokens[v].text.to_string())
                        });
                        held.push(Guard { var, lock, depth });
                        i = close.map(|c| c + 1).unwrap_or(i + 1);
                        continue;
                    }
                }
            }
        }
        i += 1;
    }
    out
}

/// L7 `ffi_retcheck`: every call to a function declared in an
/// `unsafe extern "C"` block in the same file must consume its return
/// value. Discarded results — statement-position calls (including
/// `unsafe { call(..) };` wrappers) and `let _ = ..` bindings — drop an
/// errno on the floor.
pub fn ffi_retcheck(tokens: &[Token], skip: &[bool]) -> Vec<Finding> {
    // Pass 1: names declared in extern "C" blocks.
    let mut decls: Vec<&str> = Vec::new();
    let mut decl_spans: Vec<(usize, usize)> = Vec::new();
    let mut i = 0;
    while i < tokens.len() {
        if tokens[i].is_ident("extern")
            && next_code(tokens, i + 1)
                .is_some_and(|n| tokens[n].kind == TokenKind::Literal && tokens[n].text == "\"C\"")
        {
            let Some(open) = next_code(tokens, i + 1).and_then(|n| next_code(tokens, n + 1)) else {
                break;
            };
            if tokens[open].is_punct('{') {
                let mut depth = 1usize;
                let mut j = open + 1;
                while j < tokens.len() && depth > 0 {
                    if tokens[j].is_punct('{') {
                        depth += 1;
                    } else if tokens[j].is_punct('}') {
                        depth -= 1;
                    } else if tokens[j].is_ident("fn") {
                        if let Some(n) = next_code(tokens, j + 1) {
                            if tokens[n].kind == TokenKind::Ident {
                                decls.push(tokens[n].text);
                            }
                        }
                    }
                    j += 1;
                }
                decl_spans.push((open, j));
                i = j;
                continue;
            }
        }
        i += 1;
    }
    if decls.is_empty() {
        return Vec::new();
    }
    // Pass 2: call sites of declared names with a discarded result.
    let mut out = Vec::new();
    for (i, t) in tokens.iter().enumerate() {
        if skip[i] || t.kind != TokenKind::Ident || !decls.contains(&t.text) {
            continue;
        }
        // Skip the declarations themselves.
        if decl_spans.iter().any(|&(a, b)| i > a && i < b) {
            continue;
        }
        let Some(open) = next_code(tokens, i + 1) else {
            continue;
        };
        if !tokens[open].is_punct('(') {
            continue;
        }
        // Matching close paren.
        let mut depth = 1usize;
        let mut j = open + 1;
        while j < tokens.len() && depth > 0 {
            if tokens[j].is_punct('(') {
                depth += 1;
            } else if tokens[j].is_punct(')') {
                depth -= 1;
            }
            j += 1;
        }
        // After the call: skip closing braces of `unsafe { .. }` wrappers.
        let mut after = j;
        while let Some(n) = next_code(tokens, after) {
            if tokens[n].is_punct('}') {
                after = n + 1;
            } else {
                break;
            }
        }
        let stmt_end = next_code(tokens, after).is_some_and(|n| tokens[n].is_punct(';'));
        if !stmt_end {
            continue; // result flows somewhere: `cvt(..)`, `==`, `.`, return position
        }
        // Walk left over `unsafe {` wrappers (only those — a bare `{` is
        // the enclosing block, not a wrapper) to what consumes the value.
        let mut b = i;
        while let Some(p) = prev_code(tokens, b) {
            if tokens[p].is_punct('{')
                && prev_code(tokens, p).is_some_and(|u| tokens[u].is_ident("unsafe"))
            {
                b = prev_code(tokens, p).unwrap_or(p);
            } else {
                break;
            }
        }
        let discarded = match prev_code(tokens, b) {
            // `let _ = unsafe { call(..) };` discards deliberately — still
            // flagged: check the value and surface the error instead.
            Some(eq) if tokens[eq].is_punct('=') => {
                prev_code(tokens, eq).is_some_and(|v| tokens[v].is_ident("_"))
            }
            // Statement start: nothing consumes the value.
            Some(p) => {
                tokens[p].is_punct(';') || tokens[p].is_punct('}') || tokens[p].is_punct('{')
            }
            None => true,
        };
        if discarded {
            out.push(Finding::new(
                t.line,
                format!(
                    "return value of FFI call `{}` discarded; check it and surface errno",
                    t.text
                ),
            ));
        }
    }
    out
}

/// Atomic RMW/load/store method names whose argument list can carry an
/// `Ordering`.
const ATOMIC_METHODS: [&str; 10] = [
    "load",
    "store",
    "swap",
    "fetch_add",
    "fetch_sub",
    "fetch_and",
    "fetch_or",
    "fetch_xor",
    "compare_exchange",
    "compare_exchange_weak",
];

/// L8 `atomic_audit`: an atomic access with `Ordering::Relaxed` must be
/// justified — an `// ordering:` comment within the statement (or
/// trailing on the same line), or the atomic's field name vetted in the
/// atomic-ordering manifest. The rule cannot see threads, so it
/// over-approximates: *every* Relaxed site needs one of the two.
pub fn atomic_audit(tokens: &[Token], skip: &[bool], atomics: &NameManifest) -> Vec<Finding> {
    let mut out = Vec::new();
    for (i, t) in tokens.iter().enumerate() {
        if skip[i]
            || t.kind != TokenKind::Ident
            || !ATOMIC_METHODS.contains(&t.text)
            || !prev_code(tokens, i).is_some_and(|p| tokens[p].is_punct('.'))
        {
            continue;
        }
        let Some(open) = next_code(tokens, i + 1) else {
            continue;
        };
        if !tokens[open].is_punct('(') {
            continue;
        }
        // Scan the argument list for `Relaxed`.
        let mut depth = 1usize;
        let mut j = open + 1;
        let mut relaxed = false;
        let mut last_line = t.line;
        while j < tokens.len() && depth > 0 {
            if tokens[j].is_punct('(') {
                depth += 1;
            } else if tokens[j].is_punct(')') {
                depth -= 1;
            } else if tokens[j].is_ident("Relaxed") {
                relaxed = true;
            }
            last_line = tokens[j].line;
            j += 1;
        }
        if !relaxed {
            continue;
        }
        // The atomic's name: field ident before the method's dot.
        let name = prev_code(tokens, i)
            .and_then(|dot| prev_code(tokens, dot))
            .filter(|&r| tokens[r].kind == TokenKind::Ident && tokens[r].text != "self")
            .map(|r| tokens[r].text.to_string());
        if let Some(n) = &name {
            if atomics.vetted(n) {
                continue;
            }
        }
        // `// ordering:` within the statement (walk back over comments to
        // the previous `;`/`{`/`}`) or trailing on any line of the call.
        let mut justified = false;
        let mut b = i;
        while b > 0 {
            b -= 1;
            let back = &tokens[b];
            if back.is_comment() {
                if back.text.contains("ordering:") {
                    justified = true;
                    break;
                }
                continue;
            }
            if back.is_punct(';') || back.is_punct('{') || back.is_punct('}') {
                break;
            }
        }
        if !justified {
            justified = tokens[j..]
                .iter()
                .take_while(|n| n.line <= last_line)
                .any(|n| n.is_comment() && n.text.contains("ordering:"));
        }
        if !justified {
            let shown = name.as_deref().unwrap_or("<unnamed>");
            out.push(Finding::new(
                t.line,
                format!(
                    "Ordering::Relaxed on `{shown}` without an `// ordering:` comment \
                     or an atomic-ordering.manifest entry"
                ),
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn run<F>(src: &str, f: F) -> Vec<Finding>
    where
        F: Fn(&[Token], &[bool]) -> Vec<Finding>,
    {
        let toks = lex(src);
        let skip = vec![false; toks.len()];
        f(&toks, &skip)
    }

    #[test]
    fn no_panic_catches_method_calls_only() {
        let f = run(
            "fn f() { x.unwrap(); let unwrap = 1; y.expect(\"m\"); }",
            no_panic,
        );
        assert_eq!(f.len(), 2);
        let f = run("fn f() { panic!(\"boom\"); todo!() }", no_panic);
        assert_eq!(f.len(), 2);
        // Words inside strings/comments never fire.
        let f = run("// call .unwrap() here\nlet s = \".unwrap()\";", no_panic);
        assert!(f.is_empty());
    }

    #[test]
    fn safety_comment_above_or_inside() {
        assert_eq!(run("fn f() { unsafe { g() } }", safety_comment).len(), 1);
        // A SAFETY comment on the enclosing fn is not adjacent to the block.
        assert_eq!(
            run(
                "// SAFETY: g is fine\nfn f() { unsafe { g() } }",
                safety_comment
            )
            .len(),
            1
        );
        assert!(run(
            "fn f() {\n  // SAFETY: g is fine\n  unsafe { g() } }",
            safety_comment
        )
        .is_empty());
        // The statement form: comment above `let x = unsafe { ... }`.
        assert!(run(
            "fn f() {\n  // SAFETY: g is fine\n  let x = unsafe { g() };\n}",
            safety_comment
        )
        .is_empty());
        // ...but a SAFETY comment before the *previous* statement does
        // not leak forward across the `;`.
        assert_eq!(
            run(
                "fn f() {\n  // SAFETY: stale\n  let a = 1;\n  let x = unsafe { g() };\n}",
                safety_comment
            )
            .len(),
            1
        );
        assert!(run(
            "fn f() { unsafe { // SAFETY: g is fine\n g() } }",
            safety_comment
        )
        .is_empty());
        // `unsafe fn` signature alone is not a block.
        assert!(run("unsafe fn f() {}", safety_comment).is_empty());
    }

    #[test]
    fn truncation_flags_int_casts() {
        let f = run(
            "let x = y as u32; let z = w as f64; use a as b;",
            truncation,
        );
        assert_eq!(f.len(), 1);
        assert!(f[0].message.contains("u32"));
    }

    #[test]
    fn wallclock_matches_path_calls() {
        let f = run(
            "let t = Instant::now(); let s = std::time::SystemTime::now();",
            wallclock,
        );
        assert_eq!(f.len(), 2);
        assert!(run("let d = Instant::elapsed(&t);", wallclock).is_empty());
    }

    fn run_l5(src: &str, manifest: &str) -> Vec<Finding> {
        let toks = lex(src);
        let skip = vec![false; toks.len()];
        lock_order(&toks, &skip, &Manifest::parse(manifest))
    }

    #[test]
    fn lock_order_flags_unvetted_nesting() {
        let src = "fn f(s: &S) { let a = s.state.write(); let b = s.storage.lock(); }";
        assert_eq!(run_l5(src, "").len(), 1);
        assert!(run_l5(src, "state -> storage").is_empty());
        // Reverse order is not vetted by the forward edge.
        let rev = "fn f(s: &S) { let b = s.storage.lock(); let a = s.state.write(); }";
        assert_eq!(run_l5(rev, "state -> storage").len(), 1);
    }

    #[test]
    fn lock_order_scope_and_drop_release() {
        let scoped = "fn f(s: &S) { { let a = s.state.write(); } let b = s.storage.lock(); }";
        assert!(run_l5(scoped, "").is_empty());
        let dropped = "fn f(s: &S) { let a = s.state.write(); drop(a); let b = s.storage.lock(); }";
        assert!(run_l5(dropped, "").is_empty());
    }

    #[test]
    fn lock_order_ignores_buffered_io_reads() {
        let src = "fn f(r: &mut R, buf: &mut [u8]) { let g = s.state.read(); r.read(buf); }";
        assert!(run_l5(src, "").is_empty());
    }

    const EXTERN_DECL: &str = "unsafe extern \"C\" { fn close(fd: i32) -> i32; }\n";

    #[test]
    fn ffi_retcheck_flags_discarded_results() {
        // Statement-position call inside an unsafe block: discarded.
        let bad = format!("{EXTERN_DECL}fn f(fd: i32) {{ unsafe {{ close(fd) }}; }}");
        assert_eq!(run(&bad, ffi_retcheck).len(), 1);
        // `let _ =` is a deliberate discard: still flagged.
        let underscore =
            format!("{EXTERN_DECL}fn f(fd: i32) {{ let _ = unsafe {{ close(fd) }}; }}");
        assert_eq!(run(&underscore, ffi_retcheck).len(), 1);
        // Consumed through cvt(): fine.
        let wrapped = format!("{EXTERN_DECL}fn f(fd: i32) -> R {{ cvt(unsafe {{ close(fd) }}) }}");
        assert!(run(&wrapped, ffi_retcheck).is_empty());
        // Bound and checked: fine.
        let bound = format!(
            "{EXTERN_DECL}fn f(fd: i32) {{ let rc = unsafe {{ close(fd) }}; if rc < 0 {{ g(); }} }}"
        );
        assert!(run(&bound, ffi_retcheck).is_empty());
        // Calls to undeclared names never fire.
        assert!(run("fn f() { other(1); }", ffi_retcheck).is_empty());
    }

    fn run_l8(src: &str, manifest: &str) -> Vec<Finding> {
        let toks = lex(src);
        let skip = vec![false; toks.len()];
        atomic_audit(&toks, &skip, &NameManifest::parse(manifest))
    }

    #[test]
    fn atomic_audit_requires_justification() {
        let bare = "fn f(c: &C) { c.hits.fetch_add(1, Ordering::Relaxed); }";
        let diags = run_l8(bare, "");
        assert_eq!(diags.len(), 1);
        assert!(diags[0].message.contains("`hits`"));
        // Vetted by manifest (justification required by the parser).
        assert!(run_l8(bare, "hits # monotonic metrics counter").is_empty());
        // Justified by a preceding `// ordering:` comment.
        let commented = "fn f(c: &C) {\n  // ordering: counter, no consumer orders on it\n  \
                         c.hits.fetch_add(1, Ordering::Relaxed);\n}";
        assert!(run_l8(commented, "").is_empty());
        // Trailing comment on the same line also counts.
        let trailing = "fn f(c: &C) { c.hits.load(Ordering::Relaxed); // ordering: heuristic\n}";
        assert!(run_l8(trailing, "").is_empty());
        // Non-Relaxed orderings need no justification.
        let rel = "fn f(c: &C) { c.head.store(1, Ordering::Release); }";
        assert!(run_l8(rel, "").is_empty());
        // A bare `Relaxed` import is still caught.
        let imported = "fn f(c: &C) { c.hits.fetch_add(1, Relaxed); }";
        assert_eq!(run_l8(imported, "").len(), 1);
    }

    #[test]
    fn atomic_audit_unnamed_receiver_needs_a_comment() {
        // Tuple-field receiver: no name to vet, so only a comment helps.
        let src = "fn f(&self) { self.0.fetch_add(1, Ordering::Relaxed); }";
        let diags = run_l8(src, "0 # not reachable by name");
        assert_eq!(diags.len(), 1);
        assert!(diags[0].message.contains("<unnamed>"));
    }

    #[test]
    fn lock_order_temporary_dies_at_statement_end() {
        let src = "fn f(s: &S) { s.state.read().len(); let b = s.storage.lock(); }";
        assert!(run_l5(src, "").is_empty());
        // ...but two temporaries in one statement do nest.
        let nested = "fn f(s: &S) { g(s.state.read(), s.storage.lock()); }";
        assert_eq!(run_l5(nested, "").len(), 1);
    }
}
