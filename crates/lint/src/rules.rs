//! The rule engine: each rule walks the lexed views of a [`SourceFile`]
//! and reports [`Violation`]s, which are then filtered through the
//! allowlists (inline markers and `lint.toml` entries).
//!
//! Rules are deliberately *textual* — they run on the comment-stripped,
//! literal-blanked code view from [`crate::lexer`], scoped to non-test
//! lines. That is cheap, dependency-free, and sound for the invariants
//! here, all of which are "token X must not appear in context Y" or
//! "token X must be accompanied by comment Y" shaped.

use crate::config::{parse_inline, Config};
use crate::lexer::{Line, SourceFile};

/// A single finding. Ordered for stable output.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Violation {
    pub path: String,
    pub line: usize,
    pub rule: &'static str,
    pub msg: String,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.path, self.line, self.rule, self.msg
        )
    }
}

pub const RULE_DETERMINISM: &str = "determinism";
pub const RULE_UNSAFE_HYGIENE: &str = "unsafe-hygiene";
pub const RULE_PANIC_PATH: &str = "panic-path";
pub const RULE_EFFECT_ORDERING: &str = "effect-ordering";
pub const RULE_SANS_IO: &str = "sans-io";
/// Meta-rule: an allow marker that carries no justification.
pub const RULE_ALLOW_NEEDS_REASON: &str = "allow-needs-reason";

/// Every rule id, for `--rules` and the self-test.
pub const ALL_RULES: &[&str] = &[
    RULE_DETERMINISM,
    RULE_UNSAFE_HYGIENE,
    RULE_PANIC_PATH,
    RULE_EFFECT_ORDERING,
    RULE_SANS_IO,
    RULE_ALLOW_NEEDS_REASON,
];

/// The crate a workspace-relative path belongs to (`crates/core/…` →
/// `core`), or `None` outside `crates/`.
fn crate_of(path: &str) -> Option<&str> {
    let rest = path.strip_prefix("crates/")?;
    rest.split('/').next()
}

/// Crates whose engine state must be reproducible from a seed: anything
/// that runs under the deterministic simulator or feeds the chaos
/// engine's "every violation names a reproducing seed" guarantee.
const DETERMINISTIC_CRATES: &[&str] = &["core", "sim", "ba", "vid"];
/// Crates whose non-test code must not take a panic path: the engine, the
/// two sub-protocols that parse hostile peers' messages under it, and the
/// two drivers that host it in production.
const PANIC_FREE_CRATES: &[&str] = &["core", "vid", "ba", "store", "net"];
/// Crates where the write-ahead `persist`-before-`send` ordering applies.
const EFFECT_ORDERED_CRATES: &[&str] = &["core", "sim", "net", "store"];

/// Does `needle` occur in `hay` as a standalone token (not embedded in a
/// longer identifier)? Returns every match position.
fn token_positions(hay: &str, needle: &str) -> Vec<usize> {
    let bytes = hay.as_bytes();
    let is_ident = |b: u8| b.is_ascii_alphanumeric() || b == b'_';
    let first = needle.as_bytes().first().copied().unwrap_or(b' ');
    let last = needle.as_bytes().last().copied().unwrap_or(b' ');
    let mut out = Vec::new();
    let mut from = 0usize;
    while let Some(rel) = hay[from..].find(needle) {
        let pos = from + rel;
        let ok_before = !is_ident(first) || pos == 0 || !is_ident(bytes[pos - 1]);
        let end = pos + needle.len();
        let ok_after = !is_ident(last) || end >= bytes.len() || !is_ident(bytes[end]);
        if ok_before && ok_after {
            out.push(pos);
        }
        from = pos + 1;
    }
    out
}

fn has_token(hay: &str, needle: &str) -> bool {
    !token_positions(hay, needle).is_empty()
}

/// determinism: banned sources of run-to-run nondeterminism in the
/// seed-reproducible crates. `HashMap`/`HashSet` iteration order is
/// randomized per process; wall clocks and `thread_rng` escape the
/// simulator's virtual time and seeds.
fn check_determinism(file: &SourceFile, out: &mut Vec<Violation>) {
    const BANNED: &[(&str, &str)] = &[
        (
            "HashMap",
            "randomized iteration order; use BTreeMap or a seeded hasher",
        ),
        (
            "HashSet",
            "randomized iteration order; use BTreeSet or a seeded hasher",
        ),
        (
            "thread_rng",
            "unseeded RNG; thread a seeded Rng through instead",
        ),
        ("Instant::now", "wall clock; use the driver's virtual `now`"),
        ("SystemTime", "wall clock; use the driver's virtual `now`"),
    ];
    let Some(krate) = crate_of(&file.path) else {
        return;
    };
    if !DETERMINISTIC_CRATES.contains(&krate) {
        return;
    }
    for line in non_test(file) {
        for (tok, why) in BANNED {
            if has_token(&line.code, tok) {
                out.push(Violation {
                    path: file.path.clone(),
                    line: line.number,
                    rule: RULE_DETERMINISM,
                    msg: format!("`{tok}` in deterministic crate `dl-{krate}`: {why}"),
                });
            }
        }
    }
}

/// sans-io: `dl-core` is a sans-IO engine — all IO and real time belong
/// to drivers. Any direct socket, filesystem, or sleep use in the engine
/// would make the same engine behave differently under sim and TCP.
fn check_sans_io(file: &SourceFile, out: &mut Vec<Violation>) {
    const BANNED: &[&str] = &["std::net", "std::fs", "std::thread::sleep", "thread::sleep"];
    if crate_of(&file.path) != Some("core") {
        return;
    }
    for line in non_test(file) {
        for tok in BANNED {
            if line.code.contains(tok) {
                out.push(Violation {
                    path: file.path.clone(),
                    line: line.number,
                    rule: RULE_SANS_IO,
                    msg: format!(
                        "`{tok}` in sans-IO engine crate `dl-core`: IO and time belong to drivers"
                    ),
                });
                break; // one report per line is enough
            }
        }
    }
}

/// panic-path: no `unwrap`/`expect`/`panic!`-family calls in non-test
/// engine code. Deliberate invariant panics are allowlisted with a
/// justification (inline or in `lint.toml`).
fn check_panic_path(file: &SourceFile, out: &mut Vec<Violation>) {
    const BANNED: &[&str] = &[
        ".unwrap()",
        ".expect(",
        "panic!(",
        "unreachable!(",
        "todo!(",
        "unimplemented!(",
    ];
    let Some(krate) = crate_of(&file.path) else {
        return;
    };
    if !PANIC_FREE_CRATES.contains(&krate) || file.path.contains("/src/bin/") {
        return;
    }
    for line in non_test(file) {
        for tok in BANNED {
            if line.code.contains(tok) {
                out.push(Violation {
                    path: file.path.clone(),
                    line: line.number,
                    rule: RULE_PANIC_PATH,
                    msg: format!(
                        "`{}` in engine crate `dl-{krate}`: return an error or allowlist \
                         the invariant with a justification",
                        tok.trim_matches(|c| c == '.' || c == '(')
                    ),
                });
            }
        }
    }
}

/// unsafe-hygiene: every `unsafe` token in non-test code must be
/// accompanied by a `SAFETY` comment — on the same line, or in the
/// contiguous comment/attribute block immediately above (which covers
/// `/// # Safety` doc sections on `unsafe fn`).
fn check_unsafe_hygiene(file: &SourceFile, out: &mut Vec<Violation>) {
    for (idx, line) in file.lines.iter().enumerate() {
        if line.in_test || !has_token(&line.code, "unsafe") {
            continue;
        }
        if comment_mentions_safety(&line.comment) || preceded_by_safety(&file.lines, idx) {
            continue;
        }
        out.push(Violation {
            path: file.path.clone(),
            line: line.number,
            rule: RULE_UNSAFE_HYGIENE,
            msg: "`unsafe` without an immediately preceding `// SAFETY:` comment \
                  stating the upheld invariant"
                .to_string(),
        });
    }
}

fn comment_mentions_safety(comment: &str) -> bool {
    comment.contains("SAFETY") || comment.contains("# Safety")
}

/// Walk upward from the line holding the `unsafe` token, looking for a
/// `SAFETY` marker in the comments directly attached to it. The scan
/// crosses comment lines, attribute lines, and *continuation* lines of
/// the same statement (rustfmt splits long `let x = unsafe { … }`
/// statements, leaving `let x =` above the `unsafe` keyword); it stops
/// at a blank line or at the end of the previous statement/item (a code
/// line ending in `;`, `{`, or `}`), so a comment can never vouch for a
/// later `unsafe` than the one it was written for.
fn preceded_by_safety(lines: &[Line], idx: usize) -> bool {
    for line in lines[..idx].iter().rev() {
        if comment_mentions_safety(&line.comment) {
            return true;
        }
        let code = line.code.trim();
        let is_attr = code.starts_with("#[") || code.starts_with("#![");
        let ends_statement = code.ends_with(';') || code.ends_with('{') || code.ends_with('}');
        if !code.is_empty() && !is_attr && ends_statement {
            return false; // previous statement reached, no SAFETY found
        }
        if code.is_empty() && line.comment.is_empty() {
            return false; // blank line breaks "immediately preceding"
        }
    }
    false
}

/// effect-ordering: the write-ahead rule. In any non-test function body
/// that both persists a [`StoreRecord`] and sends on the wire, the first
/// `persist` must textually precede the first `send` — a send flushed
/// before its record is durable can "un-say" state after a crash.
fn check_effect_ordering(file: &SourceFile, out: &mut Vec<Violation>) {
    let Some(krate) = crate_of(&file.path) else {
        return;
    };
    if !EFFECT_ORDERED_CRATES.contains(&krate) {
        return;
    }
    let lines = &file.lines;
    let mut i = 0usize;
    while i < lines.len() {
        let Some(fn_pos) = token_positions(&lines[i].code, "fn").first().copied() else {
            i += 1;
            continue;
        };
        if lines[i].in_test {
            i += 1;
            continue;
        }
        // Find the body's opening brace (or `;` for bodiless trait fns),
        // starting at the `fn` token.
        let Some((open_line, open_col)) = find_body_open(lines, i, fn_pos) else {
            i += 1;
            continue;
        };
        let (first_persist, first_send, end_line) = scan_body(lines, open_line, open_col);
        if let (Some(p), Some(s)) = (first_persist, first_send) {
            if s < p {
                out.push(Violation {
                    path: file.path.clone(),
                    line: s.0,
                    rule: RULE_EFFECT_ORDERING,
                    msg: format!(
                        "`send` at line {} textually precedes the first `persist` at line {}: \
                         write-ahead records must be persisted before the sends they justify",
                        s.0, p.0
                    ),
                });
            }
        }
        // Resume after this fn's signature; nested fns are revisited via
        // the normal scan (cheap, and duplicates are deduped by sort).
        i = i.max(open_line).max(1);
        let _ = end_line;
        i += 1;
    }
}

/// From the `fn` keyword at `(line, col)`, locate the `{` that opens the
/// body. Returns `None` for bodiless declarations (trait methods).
fn find_body_open(lines: &[Line], line: usize, col: usize) -> Option<(usize, usize)> {
    let mut l = line;
    let mut start = col;
    // Parenthesis depth: a `{` inside the parameter list (closure default,
    // `impl Fn` bounds) never opens the body.
    let mut paren = 0i32;
    while l < lines.len() {
        for (c_idx, c) in lines[l]
            .code
            .char_indices()
            .skip(if l == line { start } else { 0 })
        {
            match c {
                '(' | '<' => paren += 1,
                ')' | '>' => paren -= 1,
                '{' if paren <= 0 => return Some((l, c_idx)),
                ';' if paren <= 0 => return None,
                _ => {}
            }
        }
        l += 1;
        start = 0;
        if l > line + 40 {
            return None; // pathological signature; bail out
        }
    }
    None
}

/// Walk the body opened at `(line, col)`; return the positions of the
/// first `.persist(` and first `.send(`/`push_send(` calls and the body's
/// last line.
#[allow(clippy::type_complexity)]
fn scan_body(
    lines: &[Line],
    line: usize,
    col: usize,
) -> (Option<(usize, usize)>, Option<(usize, usize)>, usize) {
    let mut depth = 0i32;
    let mut first_persist: Option<(usize, usize)> = None;
    let mut first_send: Option<(usize, usize)> = None;
    let mut l = line;
    while l < lines.len() {
        let code = &lines[l].code;
        let from = if l == line { col } else { 0 };
        if depth > 0 || l == line {
            for tok in [".persist(", ".persists("] {
                if let Some(p) = code[from..].find(tok) {
                    let pos = (lines[l].number, from + p);
                    if first_persist.is_none_or(|cur| pos < cur) {
                        first_persist = Some(pos);
                    }
                }
            }
            for tok in [".send(", "push_send("] {
                for p in token_positions(&code[from..], tok) {
                    let pos = (lines[l].number, from + p);
                    if first_send.is_none_or(|cur| pos < cur) {
                        first_send = Some(pos);
                    }
                }
            }
        }
        for c in code.chars().skip(from) {
            match c {
                '{' => depth += 1,
                '}' => {
                    depth -= 1;
                    if depth == 0 {
                        return (first_persist, first_send, l);
                    }
                }
                _ => {}
            }
        }
        l += 1;
    }
    (first_persist, first_send, lines.len().saturating_sub(1))
}

fn non_test(file: &SourceFile) -> impl Iterator<Item = &Line> {
    file.lines.iter().filter(|l| !l.in_test)
}

/// Run every rule over `file`, then apply the inline and `lint.toml`
/// allowlists. Unjustified inline allows surface as
/// [`RULE_ALLOW_NEEDS_REASON`] violations.
pub fn check_file(file: &SourceFile, cfg: &Config) -> Vec<Violation> {
    let mut raw = Vec::new();
    check_determinism(file, &mut raw);
    check_sans_io(file, &mut raw);
    check_panic_path(file, &mut raw);
    check_unsafe_hygiene(file, &mut raw);
    check_effect_ordering(file, &mut raw);

    // Inline allows: a justified marker suppresses its rule on its own
    // line and on the next line (for standalone marker comments).
    let mut allowed: Vec<(usize, String)> = Vec::new();
    let mut out = Vec::new();
    for line in &file.lines {
        for marker in parse_inline(&line.comment) {
            if !marker.justified {
                out.push(Violation {
                    path: file.path.clone(),
                    line: line.number,
                    rule: RULE_ALLOW_NEEDS_REASON,
                    msg: format!(
                        "`dl-lint: allow({})` without a justification — write \
                         `allow({}): <why this is sound>`",
                        marker.rule, marker.rule
                    ),
                });
                continue;
            }
            allowed.push((line.number, marker.rule.clone()));
            // A standalone marker comment covers the next line too.
            if line.code.trim().is_empty() {
                allowed.push((line.number + 1, marker.rule));
            }
        }
    }
    for v in raw {
        let line_text = &file.lines[v.line - 1].code;
        if allowed.iter().any(|(n, r)| *n == v.line && r == v.rule) {
            continue;
        }
        if cfg.allows(v.rule, &v.path, line_text) {
            continue;
        }
        out.push(v);
    }
    out.sort();
    out.dedup();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn run(path: &str, text: &str) -> Vec<Violation> {
        check_file(&lex(path, text), &Config::default())
    }

    fn rules_fired(v: &[Violation]) -> Vec<&'static str> {
        v.iter().map(|x| x.rule).collect()
    }

    #[test]
    fn determinism_flags_hashmap_in_core_only() {
        let bad = "use std::collections::HashMap;\n";
        assert_eq!(
            rules_fired(&run("crates/core/src/x.rs", bad)),
            vec![RULE_DETERMINISM]
        );
        // Out-of-scope crate: the decode cache in dl-erasure may hash.
        assert!(run("crates/erasure/src/x.rs", bad).is_empty());
        // In a string or comment: never fires.
        assert!(run("crates/core/src/x.rs", "let s = \"HashMap\"; // HashMap\n").is_empty());
        // In a test module: never fires.
        assert!(run(
            "crates/core/src/x.rs",
            "#[cfg(test)]\nmod tests {\n use std::collections::HashMap;\n}\n"
        )
        .is_empty());
    }

    #[test]
    fn determinism_word_boundary() {
        assert!(run("crates/core/src/x.rs", "struct MyHashMapLike;\n").is_empty());
    }

    #[test]
    fn sans_io_flags_fs_in_core_only() {
        let bad = "use std::fs::File;\n";
        assert_eq!(
            rules_fired(&run("crates/core/src/x.rs", bad)),
            vec![RULE_SANS_IO]
        );
        assert!(run("crates/store/src/x.rs", bad).is_empty());
    }

    #[test]
    fn panic_path_flags_unwrap_in_engine_crates() {
        let bad = "let v = m.get(&k).unwrap();\n";
        for krate in ["core", "vid", "ba", "store", "net"] {
            assert_eq!(
                rules_fired(&run(&format!("crates/{krate}/src/x.rs"), bad)),
                vec![RULE_PANIC_PATH],
                "{krate}"
            );
        }
        assert!(
            run("crates/sim/src/x.rs", bad).is_empty(),
            "sim is not panic-scoped"
        );
        assert!(
            run("crates/net/src/bin/dl-node.rs", bad).is_empty(),
            "bins are harnesses"
        );
        // `unwrap_or` is not `unwrap()`.
        assert!(run("crates/store/src/x.rs", "let v = m.get(&k).unwrap_or(0);\n").is_empty());
    }

    #[test]
    fn unsafe_hygiene_requires_safety_comment() {
        let bad = "let p = unsafe { *q };\n";
        assert_eq!(
            rules_fired(&run("crates/pool/src/x.rs", bad)),
            vec![RULE_UNSAFE_HYGIENE]
        );
        assert!(run(
            "crates/pool/src/x.rs",
            "// SAFETY: q is valid\nlet p = unsafe { *q };\n"
        )
        .is_empty());
        assert!(run(
            "crates/pool/src/x.rs",
            "let p = unsafe { *q }; // SAFETY: q is valid\n"
        )
        .is_empty());
        // A doc `# Safety` section over an attribute still counts.
        assert!(run(
            "crates/pool/src/x.rs",
            "/// # Safety\n/// q must be valid.\n#[inline]\npub unsafe fn f() {}\n"
        )
        .is_empty());
        // A blank line breaks adjacency.
        assert_eq!(
            rules_fired(&run(
                "crates/pool/src/x.rs",
                "// SAFETY: stale\n\nlet p = unsafe { *q };\n"
            )),
            vec![RULE_UNSAFE_HYGIENE]
        );
        // The comment may sit above a split statement (rustfmt layout).
        assert!(run(
            "crates/pool/src/x.rs",
            "// SAFETY: ranges are disjoint per job.\nlet dst =\n    unsafe { w.slice_mut(a..b) };\n"
        )
        .is_empty());
        // But a comment attached to the *previous* statement never vouches.
        assert_eq!(
            rules_fired(&run(
                "crates/pool/src/x.rs",
                "// SAFETY: for the call below\ndo_something();\nlet p = unsafe { *q };\n"
            )),
            vec![RULE_UNSAFE_HYGIENE]
        );
        // `unsafe` inside a string literal never fires.
        assert!(run("crates/pool/src/x.rs", "let s = \"unsafe\";\n").is_empty());
        // `forbid(unsafe_code)` is not an unsafe token.
        assert!(run("crates/wire/src/x.rs", "#![forbid(unsafe_code)]\n").is_empty());
    }

    #[test]
    fn effect_ordering_flags_send_before_persist() {
        let bad = "\
fn emit(out: &mut dyn EffectSink) {
    out.send(to, env);
    out.persist(rec);
}
";
        assert_eq!(
            rules_fired(&run("crates/core/src/x.rs", bad)),
            vec![RULE_EFFECT_ORDERING]
        );
        let good = "\
fn emit(out: &mut dyn EffectSink) {
    out.persist(rec);
    out.send(to, env);
}
";
        assert!(run("crates/core/src/x.rs", good).is_empty());
        // A body with only sends, or only persists, is fine.
        assert!(run(
            "crates/core/src/x.rs",
            "fn s(o: &mut S) { o.send(t, e); }\n"
        )
        .is_empty());
        // `push_send` counts as a send.
        let wrapped = "\
fn emit(&mut self, out: &mut dyn EffectSink) {
    self.push_send(to, env, out);
    out.persist(rec);
}
";
        assert_eq!(
            rules_fired(&run("crates/core/src/x.rs", wrapped)),
            vec![RULE_EFFECT_ORDERING]
        );
    }

    #[test]
    fn inline_allow_suppresses_with_justification_only() {
        let justified =
            "use std::collections::HashMap; // dl-lint: allow(determinism): order never observed\n";
        assert!(run("crates/core/src/x.rs", justified).is_empty());
        let standalone = "\
// dl-lint: allow(determinism): keyed lookups only, iteration order never observed
use std::collections::HashMap;
";
        assert!(run("crates/core/src/x.rs", standalone).is_empty());
        let unjustified = "use std::collections::HashMap; // dl-lint: allow(determinism)\n";
        let fired = rules_fired(&run("crates/core/src/x.rs", unjustified));
        assert!(
            fired.contains(&RULE_DETERMINISM),
            "unjustified allow must not suppress"
        );
        assert!(fired.contains(&RULE_ALLOW_NEEDS_REASON));
    }

    #[test]
    fn toml_allowlist_suppresses_by_path_and_pattern() {
        let cfg = Config::parse(
            "[[allow]]\nrule = \"panic-path\"\npath = \"crates/core/src/\"\n\
             pattern = \".expect(\"\nreason = \"documented invariants\"\n",
        )
        .expect("cfg");
        let text = "let v = m.get(&k).expect(\"just ensured\");\nlet w = n.unwrap();\n";
        let v = check_file(&lex("crates/core/src/x.rs", text), &cfg);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].line, 2, "only the unwrap survives the allowlist");
    }
}
