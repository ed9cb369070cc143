//! The self-test corpus: known-bad snippets (one per rule, each of which
//! the pass **must** flag) and known-good traps (each of which it must
//! **not** flag). `dl-lint --self-test` runs the full rule set over every
//! snippet; any rule that goes blind — or any trap that fires — fails the
//! run. This protects the lint from bit-rotting into a no-op: a lexer
//! regression that starts swallowing `unsafe` tokens, say, turns CI red
//! via the self-test rather than silently passing the tree.

/// A corpus entry: lint `text` as if it lived at `path`, expect exactly
/// `expect` rule ids to fire (empty = must stay silent).
pub struct Snippet {
    pub name: &'static str,
    pub path: &'static str,
    pub text: &'static str,
    pub expect: &'static [&'static str],
}

use crate::rules::{
    RULE_ALLOW_NEEDS_REASON, RULE_DETERMINISM, RULE_EFFECT_ORDERING, RULE_PANIC_PATH, RULE_SANS_IO,
    RULE_UNSAFE_HYGIENE,
};

pub const CORPUS: &[Snippet] = &[
    // --- known-bad: every rule must fire on its snippet -----------------
    Snippet {
        name: "bad-determinism-hashmap",
        path: "crates/core/src/selftest.rs",
        text: "use std::collections::HashMap;\npub fn f() { let m: HashMap<u8, u8> = HashMap::new(); }\n",
        expect: &[RULE_DETERMINISM],
    },
    Snippet {
        name: "bad-determinism-wall-clock",
        path: "crates/sim/src/selftest.rs",
        text: "pub fn now_ms() -> u128 { std::time::Instant::now().elapsed().as_millis() }\n",
        expect: &[RULE_DETERMINISM],
    },
    Snippet {
        name: "bad-unsafe-without-safety",
        path: "crates/pool/src/selftest.rs",
        text: "pub fn f(q: *const u8) -> u8 {\n    unsafe { *q }\n}\n",
        expect: &[RULE_UNSAFE_HYGIENE],
    },
    Snippet {
        name: "bad-panic-path-unwrap",
        path: "crates/store/src/selftest.rs",
        text: "pub fn f(v: Option<u8>) -> u8 { v.unwrap() }\n",
        expect: &[RULE_PANIC_PATH],
    },
    Snippet {
        name: "bad-panic-path-decode-error-in-vid",
        path: "crates/vid/src/selftest.rs",
        text: "pub fn f(r: Result<u8, E>) -> u8 {\n    match r {\n        Ok(b) => b,\n        Err(e) => panic!(\"retriever invariant violated: {e}\"),\n    }\n}\n",
        expect: &[RULE_PANIC_PATH],
    },
    Snippet {
        name: "bad-effect-ordering-send-first",
        path: "crates/core/src/selftest.rs",
        text: "fn emit(out: &mut dyn EffectSink) {\n    out.send(to, env);\n    out.persist(rec);\n}\n",
        expect: &[RULE_EFFECT_ORDERING],
    },
    Snippet {
        name: "bad-sans-io-fs",
        path: "crates/core/src/selftest.rs",
        text: "pub fn f() { let _ = std::fs::read(\"x\"); }\n",
        expect: &[RULE_SANS_IO],
    },
    Snippet {
        name: "bad-allow-without-reason",
        path: "crates/core/src/selftest.rs",
        text: "use std::collections::HashSet; // dl-lint: allow(determinism)\n",
        expect: &[RULE_DETERMINISM, RULE_ALLOW_NEEDS_REASON],
    },
    // --- known-good traps: the false positives a text pass must dodge ---
    Snippet {
        name: "good-banned-tokens-in-literals-and-comments",
        path: "crates/core/src/selftest.rs",
        text: "// HashMap in a comment, unsafe too\npub fn f() -> &'static str { \"HashMap unsafe .unwrap() std::fs\" }\n",
        expect: &[],
    },
    Snippet {
        name: "good-banned-tokens-in-raw-string",
        path: "crates/core/src/selftest.rs",
        text: "pub fn f() -> &'static str { r#\"HashMap \"quoted\" unsafe\"# }\n",
        expect: &[],
    },
    Snippet {
        name: "good-cfg-test-module-is-exempt",
        path: "crates/core/src/selftest.rs",
        text: "pub fn live() {}\n#[cfg(test)]\nmod tests {\n    use std::collections::HashMap;\n    fn t(v: Option<u8>) -> u8 { v.unwrap() }\n}\n",
        expect: &[],
    },
    Snippet {
        name: "good-unsafe-with-safety-comment",
        path: "crates/pool/src/selftest.rs",
        text: "pub fn f(q: *const u8) -> u8 {\n    // SAFETY: q is valid for reads by contract.\n    unsafe { *q }\n}\n",
        expect: &[],
    },
    Snippet {
        name: "good-unsafe-fn-with-safety-doc",
        path: "crates/pool/src/selftest.rs",
        text: "/// # Safety\n/// `q` must be valid for reads.\npub unsafe fn f(q: *const u8) -> u8 {\n    // SAFETY: forwarded to our caller's contract.\n    unsafe { *q }\n}\n",
        expect: &[],
    },
    Snippet {
        name: "good-persist-before-send",
        path: "crates/core/src/selftest.rs",
        text: "fn emit(out: &mut dyn EffectSink) {\n    out.persist(rec);\n    out.send(to, env);\n}\n",
        expect: &[],
    },
    Snippet {
        name: "good-hashmap-outside-deterministic-crates",
        path: "crates/erasure/src/selftest.rs",
        text: "use std::collections::HashMap;\npub type Cache = HashMap<Vec<u8>, u8>;\n",
        expect: &[],
    },
    Snippet {
        name: "good-justified-inline-allow",
        path: "crates/core/src/selftest.rs",
        text: "// dl-lint: allow(determinism): keyed lookups only; iteration order never observed\nuse std::collections::HashMap;\n",
        expect: &[],
    },
    Snippet {
        name: "good-nested-block-comment",
        path: "crates/core/src/selftest.rs",
        text: "/* outer /* nested unsafe HashMap */ still comment .unwrap() */\npub fn f() {}\n",
        expect: &[],
    },
];
