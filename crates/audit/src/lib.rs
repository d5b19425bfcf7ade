//! `leca-audit` — workspace-specific static analysis the compiler can't do.
//!
//! The LeCA workspace concentrates all of its trust into a small amount of
//! `unsafe` (the AVX2 kernels, the worker pool) and a handful of
//! *conventions* (zero-allocation `_into` kernels, seeded randomness,
//! pool-only parallelism). `rustc` and clippy enforce none of those
//! conventions, so this crate parses every `.rs` file in the workspace
//! with a comment/string-aware scanner and checks repo-specific
//! invariants:
//!
//! | Rule | Invariant |
//! |---|---|
//! | [`rules::UNSAFE_COMMENT`] | every `unsafe` block / fn / impl is preceded by a `// SAFETY:` comment |
//! | [`rules::UNSAFE_ALLOWLIST`] | `unsafe` only appears in the explicit module allowlist |
//! | [`rules::THREAD_SPAWN`] | no thread spawning in library code outside the explicit spawn allowlist |
//! | [`rules::JOINED_SPAWN`] | spawn-allowlisted library files keep `JoinHandle`s — no detached threads |
//! | [`rules::HOT_PATH_ALLOC`] | no allocation calls inside `_into` kernel bodies (error/panic arms exempt) |
//! | [`rules::NONDETERMINISM`] | no wall-clock / OS-entropy randomness outside the bench harness |
//! | [`rules::LINT_HEADER`] | `#![forbid(unsafe_code)]` / `#![deny(unsafe_op_in_unsafe_fn)]` headers present |
//! | [`rules::ISA_CONFINEMENT`] | ISA intrinsics / feature detection only inside `crates/tensor/src/backend/` |
//!
//! The binary (`cargo run -p leca-audit`) walks the workspace, prints
//! `file:line: [rule] message` diagnostics and exits non-zero on any
//! violation — it runs as a required CI job, so a future kernel PR cannot
//! silently regress the soundness story. The scanner is deliberately
//! lexical (no `syn`, no dependencies): it strips comments, string/char
//! literals and raw strings with a small state machine, then runs
//! line-oriented token checks. That is exact for every construct this
//! workspace uses, and a false positive can always be fixed by making the
//! code more explicit — which is the point of the gate.

// The audit gate must hold itself to the strictest standard.
#![forbid(unsafe_code)]
// This crate's documentation is *about* safety comments, so the literal
// marker text appears next to perfectly safe items — which is exactly the
// pattern that lint's heuristic flags.
#![allow(clippy::unnecessary_safety_comment)]

use std::fmt;
use std::path::{Path, PathBuf};

pub mod engine;

pub mod rules {
    //! Stable rule identifiers, used in diagnostics and tests.

    /// `unsafe` block/fn/impl without a preceding `// SAFETY:` comment.
    pub const UNSAFE_COMMENT: &str = "unsafe-safety-comment";
    /// `unsafe` outside the allowlisted modules.
    pub const UNSAFE_ALLOWLIST: &str = "unsafe-allowlist";
    /// Thread spawning outside the worker pool.
    pub const THREAD_SPAWN: &str = "thread-spawn";
    /// Spawn-allowlisted library file with no `JoinHandle` in sight —
    /// a detached thread the shutdown path cannot join.
    pub const JOINED_SPAWN: &str = "joined-spawn";
    /// Allocation inside a zero-alloc `_into` kernel body.
    pub const HOT_PATH_ALLOC: &str = "hot-path-alloc";
    /// Wall-clock / OS-entropy nondeterminism outside seeded entry points.
    pub const NONDETERMINISM: &str = "nondeterminism";
    /// Required crate-level lint header missing.
    pub const LINT_HEADER: &str = "lint-header";
    /// ISA intrinsics or CPU-feature detection outside the backend layer.
    pub const ISA_CONFINEMENT: &str = "isa-confinement";
    /// Iterator float reduction (`.sum::<f32>()`, float-seeded `.fold`)
    /// outside the sanctioned reduction modules (AST engine only).
    pub const FLOAT_REDUCTION_ORDER: &str = "float-reduction-order";
    /// `unwrap`/`expect`/panic-macro/slice-index in the serve steady-state
    /// path or a `_into` kernel body (AST engine only).
    pub const PANIC_FREEDOM: &str = "panic-freedom";
    /// `std::env` access outside `runtime_env` and the sanctioned writers
    /// (AST engine only).
    pub const ENV_READ_CONFINEMENT: &str = "env-read-confinement";
    /// A file the AST engine could not lex/parse — nothing was audited,
    /// which is itself a violation (AST engine only).
    pub const PARSE_ERROR: &str = "parse-error";
}

/// The rules implemented by **both** engines; `--diff-engines` compares
/// exactly these (the AST-only rules have no lexical counterpart).
pub const SHARED_RULES: &[&str] = &[
    rules::UNSAFE_COMMENT,
    rules::UNSAFE_ALLOWLIST,
    rules::THREAD_SPAWN,
    rules::JOINED_SPAWN,
    rules::HOT_PATH_ALLOC,
    rules::NONDETERMINISM,
    rules::LINT_HEADER,
    rules::ISA_CONFINEMENT,
];

/// Files allowed to contain `unsafe` (workspace-relative paths), with the
/// reason they are trusted. Everything else must be safe Rust — the safe
/// crates additionally carry `#![forbid(unsafe_code)]`.
pub const UNSAFE_ALLOWLIST: &[(&str, &str)] = &[
    (
        "crates/tensor/src/backend/avx2.rs",
        "AVX2 kernel bodies (bounds argued per load/store, Miri-exempt via cfg)",
    ),
    (
        "crates/tensor/src/backend/mod.rs",
        "runtime dispatch into target_feature functions after CPUID detection",
    ),
    (
        "crates/tensor/src/parallel.rs",
        "worker pool: lifetime-erased job closures and disjoint row slices",
    ),
    (
        "tests/alloc_regression.rs",
        "counting GlobalAlloc delegating verbatim to System",
    ),
    (
        "tests/activation_alloc.rs",
        "counting GlobalAlloc delegating verbatim to System",
    ),
    (
        "tests/serve_alloc.rs",
        "counting GlobalAlloc delegating verbatim to System",
    ),
    (
        "tests/quant_alloc.rs",
        "counting GlobalAlloc delegating verbatim to System",
    ),
    (
        "tests/capture_alloc.rs",
        "counting GlobalAlloc delegating verbatim to System",
    ),
    (
        "crates/tensor/src/backend/qavx2.rs",
        "int8 AVX2 qgemm microkernel (bounds argued per load/store, Miri-exempt via cfg)",
    ),
    (
        "crates/tensor/src/backend/fastmath.rs",
        "FMA kernel bodies + vectorized exp (bounds argued per load/store, Miri-exempt via cfg)",
    ),
    (
        "shims/loom/src/lib.rs",
        "model-checking shim: one pointer round-trip in Condvar::wait (guard lifetime argued)",
    ),
];

/// Files allowed to spawn threads directly. All other library code must
/// route parallelism through the `LECA_THREADS` pool so thread counts (and
/// the determinism contract) stay centrally controlled.
pub const SPAWN_ALLOWLIST: &[(&str, &str)] = &[
    (
        "crates/tensor/src/parallel.rs",
        "the worker pool itself — the one sanctioned spawn site",
    ),
    (
        "crates/serve/src/supervisor.rs",
        "supervised serving shards: long-lived named threads, every handle joined on shutdown",
    ),
    (
        "shims/loom/src/lib.rs",
        "the model checker spawns the threads it schedules; every handle is joined at model exit",
    ),
];

/// Path prefixes allowed to read wall clocks / OS entropy. Everything else
/// must take a seeded `Rng` or an explicit timestamp argument.
pub const NONDET_ALLOWLIST_PREFIXES: &[&str] = &["crates/bench/", "shims/"];

/// The one directory allowed to name an ISA: intrinsics
/// (`core::arch`/`std::arch`), `#[target_feature]` attributes and CPUID
/// probes (`is_x86_feature_detected!`) live exclusively under the backend
/// layer. Everything above it dispatches through the `KernelBackend`
/// trait, so porting to a new ISA (or GPU tier) touches exactly one
/// directory.
pub const ISA_ALLOWED_PREFIX: &str = "crates/tensor/src/backend/";

/// Crate-level lint headers the workspace promises. The audit fails when a
/// listed file exists without its header (or is missing entirely while its
/// crate directory exists).
pub const REQUIRED_HEADERS: &[(&str, &str)] = &[
    ("src/lib.rs", "#![forbid(unsafe_code)]"),
    ("crates/nn/src/lib.rs", "#![forbid(unsafe_code)]"),
    ("crates/data/src/lib.rs", "#![forbid(unsafe_code)]"),
    ("crates/circuit/src/lib.rs", "#![forbid(unsafe_code)]"),
    ("crates/sensor/src/lib.rs", "#![forbid(unsafe_code)]"),
    ("crates/baselines/src/lib.rs", "#![forbid(unsafe_code)]"),
    ("crates/core/src/lib.rs", "#![forbid(unsafe_code)]"),
    ("crates/bench/src/lib.rs", "#![forbid(unsafe_code)]"),
    ("crates/audit/src/lib.rs", "#![forbid(unsafe_code)]"),
    ("crates/serve/src/lib.rs", "#![forbid(unsafe_code)]"),
    (
        "crates/tensor/src/lib.rs",
        "#![deny(unsafe_op_in_unsafe_fn)]",
    ),
];

/// One audit finding, printed as `file:line: [rule] message`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Workspace-relative path.
    pub file: String,
    /// 1-based line number (0 for whole-file findings).
    pub line: usize,
    /// Rule identifier from [`rules`].
    pub rule: &'static str,
    /// Human-readable explanation.
    pub message: String,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file, self.line, self.rule, self.message
        )
    }
}

// ---------------------------------------------------------------------
// Lexical scanner
// ---------------------------------------------------------------------

/// One source line after lexical stripping: `code` has comments and the
/// contents of string/char literals blanked out; `comment` holds the
/// comment text that appeared on the line (line, doc or block comments).
#[derive(Debug, Default, Clone)]
pub struct Line {
    /// Code with literals/comments removed (quotes retained as `""`).
    pub code: String,
    /// Concatenated comment text on this line.
    pub comment: String,
}

impl Line {
    fn is_comment_only(&self) -> bool {
        self.code.trim().is_empty() && !self.comment.trim().is_empty()
    }

    fn is_attr_only(&self) -> bool {
        let t = self.code.trim();
        (t.starts_with("#[") || t.starts_with("#![")) && self.comment.trim().is_empty()
    }
}

/// Strips `src` into per-line code/comment channels with a small state
/// machine. Handles nested block comments, string escapes, raw strings
/// (`r#".."#`, any hash count), byte strings and char-vs-lifetime
/// disambiguation — everything the workspace's sources actually contain.
pub fn strip_source(src: &str) -> Vec<Line> {
    enum St {
        Code,
        LineComment,
        BlockComment(u32),
        Str,
        RawStr(u32),
        Char,
    }
    let mut st = St::Code;
    let mut out: Vec<Line> = vec![Line::default()];
    let chars: Vec<char> = src.chars().collect();
    let mut i = 0;
    while i < chars.len() {
        let c = chars[i];
        if c == '\n' {
            if matches!(st, St::LineComment) {
                st = St::Code;
            }
            out.push(Line::default());
            i += 1;
            continue;
        }
        let cur = out.last_mut().expect("line stack never empty");
        match st {
            St::Code => {
                let next = chars.get(i + 1).copied();
                if c == '/' && next == Some('/') {
                    st = St::LineComment;
                    i += 2;
                } else if c == '/' && next == Some('*') {
                    st = St::BlockComment(1);
                    i += 2;
                } else if c == '"' {
                    cur.code.push('"');
                    st = St::Str;
                    i += 1;
                } else if (c == 'r' || c == 'b') && !prev_is_ident(&chars, i) {
                    // Possible raw / byte / raw-byte string: b" r" r#" br#"
                    let mut j = i + 1;
                    if c == 'b' && chars.get(j) == Some(&'r') {
                        j += 1;
                    }
                    let mut hashes = 0u32;
                    while chars.get(j) == Some(&'#') {
                        hashes += 1;
                        j += 1;
                    }
                    let is_raw = (c == 'r' || chars.get(i + 1) == Some(&'r')) || hashes == 0;
                    if chars.get(j) == Some(&'"') && (is_raw || c == 'b') {
                        cur.code.push('"');
                        if c == 'b' && chars.get(i + 1) != Some(&'r') && hashes == 0 {
                            st = St::Str; // plain byte string: escapes apply
                        } else {
                            st = St::RawStr(hashes);
                        }
                        i = j + 1;
                    } else {
                        cur.code.push(c);
                        i += 1;
                    }
                } else if c == '\'' {
                    // Lifetime (`'a`) vs char literal (`'a'`, `'\n'`).
                    let n1 = chars.get(i + 1).copied();
                    let n2 = chars.get(i + 2).copied();
                    let lifetime = matches!(n1, Some(x) if x.is_alphanumeric() || x == '_')
                        && n2 != Some('\'');
                    if lifetime {
                        cur.code.push('\'');
                        i += 1;
                    } else {
                        cur.code.push('\'');
                        st = St::Char;
                        i += 1;
                    }
                } else {
                    cur.code.push(c);
                    i += 1;
                }
            }
            St::LineComment => {
                cur.comment.push(c);
                i += 1;
            }
            St::BlockComment(d) => {
                let next = chars.get(i + 1).copied();
                if c == '/' && next == Some('*') {
                    st = St::BlockComment(d + 1);
                    i += 2;
                } else if c == '*' && next == Some('/') {
                    st = if d == 1 {
                        St::Code
                    } else {
                        St::BlockComment(d - 1)
                    };
                    i += 2;
                } else {
                    cur.comment.push(c);
                    i += 1;
                }
            }
            St::Str => {
                if c == '\\' {
                    // The escaped char may itself be a literal newline (a
                    // string line-continuation); it still ends a source
                    // line, so the line channel must advance or every
                    // diagnostic after it drifts up by one.
                    if chars.get(i + 1) == Some(&'\n') {
                        out.push(Line::default());
                    }
                    i += 2;
                } else if c == '"' {
                    cur.code.push('"');
                    st = St::Code;
                    i += 1;
                } else {
                    i += 1;
                }
            }
            St::RawStr(h) => {
                if c == '"' {
                    let mut k = 0u32;
                    while chars.get(i + 1 + k as usize) == Some(&'#') && k < h {
                        k += 1;
                    }
                    if k == h {
                        cur.code.push('"');
                        st = St::Code;
                        i += 1 + h as usize;
                        continue;
                    }
                }
                i += 1;
            }
            St::Char => {
                if c == '\\' {
                    if chars.get(i + 1) == Some(&'\n') {
                        out.push(Line::default());
                    }
                    i += 2;
                } else if c == '\'' {
                    cur.code.push('\'');
                    st = St::Code;
                    i += 1;
                } else {
                    i += 1;
                }
            }
        }
    }
    out
}

fn prev_is_ident(chars: &[char], i: usize) -> bool {
    i > 0 && (chars[i - 1].is_alphanumeric() || chars[i - 1] == '_')
}

/// Byte offsets of word-boundary occurrences of `word` in `code`.
fn word_occurrences(code: &str, word: &str) -> Vec<usize> {
    let bytes = code.as_bytes();
    let is_ident = |b: u8| b.is_ascii_alphanumeric() || b == b'_';
    let mut found = Vec::new();
    let mut from = 0;
    while let Some(pos) = code[from..].find(word) {
        let at = from + pos;
        let before_ok = at == 0 || !is_ident(bytes[at - 1]);
        let end = at + word.len();
        let after_ok = end >= bytes.len() || !is_ident(bytes[end]);
        if before_ok && after_ok {
            found.push(at);
        }
        from = at + word.len().max(1);
    }
    found
}

// ---------------------------------------------------------------------
// Rules
// ---------------------------------------------------------------------

/// Audits one already-read file. `rel` is its workspace-relative path with
/// `/` separators (used for allowlist decisions and diagnostics).
pub fn audit_file(rel: &str, src: &str) -> Vec<Diagnostic> {
    let lines = strip_source(src);
    let mut diags = Vec::new();
    check_unsafe(rel, &lines, &mut diags);
    check_thread_spawn(rel, &lines, &mut diags);
    check_hot_path_allocs(rel, &lines, &mut diags);
    check_nondeterminism(rel, &lines, &mut diags);
    check_isa_confinement(rel, &lines, &mut diags);
    diags
}

/// True when `rel` is library code (compiled into a crate), as opposed to
/// tests, benches or examples — the spawn rule only binds library code
/// (tests may spawn threads *to test* the pool).
pub(crate) fn is_library_code(rel: &str) -> bool {
    let in_src = rel.starts_with("src/") || rel.contains("/src/");
    in_src && !rel.contains("/bin/")
}

pub(crate) fn allowlisted(list: &[(&str, &str)], rel: &str) -> bool {
    list.iter().any(|(p, _)| *p == rel)
}

fn check_unsafe(rel: &str, lines: &[Line], diags: &mut Vec<Diagnostic>) {
    let allowed = allowlisted(UNSAFE_ALLOWLIST, rel);
    for (idx, line) in lines.iter().enumerate() {
        for at in word_occurrences(&line.code, "unsafe") {
            let lineno = idx + 1;
            if !allowed {
                diags.push(Diagnostic {
                    file: rel.to_string(),
                    line: lineno,
                    rule: rules::UNSAFE_ALLOWLIST,
                    message: format!(
                        "`unsafe` outside the audited allowlist ({} trusted modules); \
                         either keep this file safe or extend UNSAFE_ALLOWLIST with a rationale",
                        UNSAFE_ALLOWLIST.len()
                    ),
                });
            }
            let kind = unsafe_kind(lines, idx, at);
            if !has_safety_comment(lines, idx) {
                diags.push(Diagnostic {
                    file: rel.to_string(),
                    line: lineno,
                    rule: rules::UNSAFE_COMMENT,
                    message: format!(
                        "`unsafe` {kind} without a `// SAFETY:` comment on the preceding lines"
                    ),
                });
            }
        }
    }
}

/// Classifies the token following `unsafe` for the diagnostic message.
fn unsafe_kind(lines: &[Line], idx: usize, at: usize) -> &'static str {
    let mut rest: String = lines[idx].code[at + "unsafe".len()..].to_string();
    let mut look = idx + 1;
    while rest.trim().is_empty() && look < lines.len() && look <= idx + 2 {
        rest = lines[look].code.clone();
        look += 1;
    }
    let rest = rest.trim_start();
    if rest.starts_with("fn") {
        "fn"
    } else if rest.starts_with("impl") {
        "impl"
    } else if rest.starts_with('{') {
        "block"
    } else {
        "item"
    }
}

/// Accepts a `SAFETY:` comment on the same line (trailing) or on the
/// contiguous run of comment-only / attribute-only lines directly above.
fn has_safety_comment(lines: &[Line], idx: usize) -> bool {
    has_marker_comment(lines, idx, "SAFETY:")
}

/// Shared adjacency rule for escape-hatch comments (`SAFETY:`,
/// `PANIC-OK:`): the marker counts when it appears trailing on the flagged
/// line or on the contiguous run of comment-only / attribute-only lines
/// directly above it.
pub(crate) fn has_marker_comment(lines: &[Line], idx: usize, marker: &str) -> bool {
    if lines[idx].comment.contains(marker) {
        return true;
    }
    let mut i = idx;
    while i > 0 {
        i -= 1;
        let l = &lines[i];
        if l.is_comment_only() {
            if l.comment.contains(marker) {
                return true;
            }
        } else if !l.is_attr_only() {
            return false;
        }
    }
    false
}

/// Tokens that start a thread, in either the free-function or builder
/// form.
const SPAWN_TOKENS: &[&str] = &["thread::spawn", "thread::Builder"];

/// First line index of an embedded `#[cfg(test)] mod …` block, if any.
/// Unit-test modules sit at the end of library files by convention, so
/// everything from this line on is test code and exempt from the
/// library-only rules (tests may spawn threads *to test* the pool).
fn first_test_mod_line(lines: &[Line]) -> Option<usize> {
    for (idx, line) in lines.iter().enumerate() {
        if normalize_ws(&line.code) != "#[cfg(test)]" {
            continue;
        }
        // The attribute must introduce a module (not a lone fn/use).
        for follow in lines.iter().skip(idx + 1).take(2) {
            let t = follow.code.trim();
            if t.is_empty() || follow.is_attr_only() {
                continue;
            }
            if t.starts_with("mod ") || t.starts_with("pub mod ") {
                return Some(idx);
            }
            break;
        }
    }
    None
}

fn check_thread_spawn(rel: &str, lines: &[Line], diags: &mut Vec<Diagnostic>) {
    if !is_library_code(rel) {
        return;
    }
    let test_mod_at = first_test_mod_line(lines).unwrap_or(lines.len());
    if allowlisted(SPAWN_ALLOWLIST, rel) {
        // Allowlisted spawners still must not detach: a spawn site with
        // no `JoinHandle` anywhere in the library portion of the file is
        // a thread the shutdown path cannot join.
        let spawns = lines[..test_mod_at]
            .iter()
            .any(|l| SPAWN_TOKENS.iter().any(|t| l.code.contains(t)));
        let joined = lines[..test_mod_at]
            .iter()
            .any(|l| l.code.contains("JoinHandle"));
        if spawns && !joined {
            diags.push(Diagnostic {
                file: rel.to_string(),
                line: 0,
                rule: rules::JOINED_SPAWN,
                message: "spawns threads but never names a `JoinHandle` — every spawned \
                          thread must be joined on shutdown (no detached threads)"
                    .to_string(),
            });
        }
        return;
    }
    for (idx, line) in lines.iter().enumerate().take(test_mod_at) {
        for needle in SPAWN_TOKENS {
            if line.code.contains(needle) {
                diags.push(Diagnostic {
                    file: rel.to_string(),
                    line: idx + 1,
                    rule: rules::THREAD_SPAWN,
                    message: format!(
                        "`{needle}` in library code — route parallelism through \
                         `leca_tensor::parallel` so LECA_THREADS and the determinism \
                         contract stay in force"
                    ),
                });
            }
        }
    }
}

/// Allocation tokens banned inside `_into` kernel bodies. `.clone()` is
/// matched with parens so `Arc::clone(&x)` call-sites written in the
/// idiomatic form are still caught via `clone()` while field names like
/// `cloned` are not.
const ALLOC_TOKENS: &[&str] = &[
    "Vec::new",
    "vec!",
    "to_vec",
    "Box::new",
    "with_capacity",
    ".clone()",
    ".collect",
    "String::new",
    "to_string",
    "format!",
];

/// Calls whose argument lists are cold paths (diagnostics for the error /
/// panic arm); allocations inside them are exempt.
const COLD_CALLS: &[&str] = &[
    "Err(",
    "panic!(",
    "assert!(",
    "assert_eq!(",
    "assert_ne!(",
    "debug_assert!(",
    "debug_assert_eq!(",
    "debug_assert_ne!(",
    "unreachable!(",
];

fn check_hot_path_allocs(rel: &str, lines: &[Line], diags: &mut Vec<Diagnostic>) {
    // Flatten code into one string, remembering line starts.
    let mut code = String::new();
    let mut starts = Vec::with_capacity(lines.len());
    for l in lines {
        starts.push(code.len());
        code.push_str(&l.code);
        code.push('\n');
    }
    let line_of = |off: usize| match starts.binary_search(&off) {
        Ok(i) => i + 1,
        Err(i) => i, // i >= 1 since starts[0] == 0
    };

    for fn_at in word_occurrences(&code, "fn") {
        let after = &code[fn_at + 2..];
        let name: String = after
            .trim_start()
            .chars()
            .take_while(|c| c.is_alphanumeric() || *c == '_')
            .collect();
        if !name.ends_with("_into") {
            continue;
        }
        // Body = first brace-balanced region after the signature.
        let Some(open_rel) = after.find('{') else {
            continue;
        };
        let open = fn_at + 2 + open_rel;
        let Some(close) = matching_brace(&code, open) else {
            continue;
        };
        let body = &code[open..close];
        let cold = cold_spans(body);
        for tok in ALLOC_TOKENS {
            let mut from = 0;
            while let Some(pos) = body[from..].find(tok) {
                let at = from + pos;
                from = at + tok.len();
                if cold.iter().any(|&(s, e)| at >= s && at < e) {
                    continue;
                }
                diags.push(Diagnostic {
                    file: rel.to_string(),
                    line: line_of(open + at),
                    rule: rules::HOT_PATH_ALLOC,
                    message: format!(
                        "`{tok}` inside zero-alloc kernel `{name}` — `_into` bodies must \
                         reuse caller buffers (allocations in Err(..)/panic! arms are exempt)"
                    ),
                });
            }
        }
    }
}

/// Index of the `}` matching the `{` at `open`.
fn matching_brace(code: &str, open: usize) -> Option<usize> {
    let mut depth = 0usize;
    for (i, c) in code[open..].char_indices() {
        match c {
            '{' => depth += 1,
            '}' => {
                depth -= 1;
                if depth == 0 {
                    return Some(open + i);
                }
            }
            _ => {}
        }
    }
    None
}

/// Spans (byte ranges into `body`) covering the argument lists of
/// [`COLD_CALLS`] — paren-balanced from each call's `(`.
fn cold_spans(body: &str) -> Vec<(usize, usize)> {
    let mut spans = Vec::new();
    for call in COLD_CALLS {
        let mut from = 0;
        while let Some(pos) = body[from..].find(call) {
            let at = from + pos;
            let open = at + call.len() - 1; // the '(' ending the needle
            let mut depth = 0i64;
            let mut end = body.len();
            for (i, c) in body[open..].char_indices() {
                match c {
                    '(' => depth += 1,
                    ')' => {
                        depth -= 1;
                        if depth == 0 {
                            end = open + i + 1;
                            break;
                        }
                    }
                    _ => {}
                }
            }
            spans.push((at, end));
            from = open + 1;
        }
    }
    spans
}

/// Nondeterminism sources banned outside [`NONDET_ALLOWLIST_PREFIXES`]:
/// results must be reproducible from a seed, never from the wall clock or
/// OS entropy.
const NONDET_TOKENS: &[&str] = &[
    "SystemTime::now",
    "thread_rng",
    "from_entropy",
    "rand::random",
];

fn check_nondeterminism(rel: &str, lines: &[Line], diags: &mut Vec<Diagnostic>) {
    if NONDET_ALLOWLIST_PREFIXES.iter().any(|p| rel.starts_with(p)) {
        return;
    }
    for (idx, line) in lines.iter().enumerate() {
        for tok in NONDET_TOKENS {
            if line.code.contains(tok) {
                diags.push(Diagnostic {
                    file: rel.to_string(),
                    line: idx + 1,
                    rule: rules::NONDETERMINISM,
                    message: format!(
                        "`{tok}` outside the bench harness — take a seeded `Rng` (or an \
                         explicit timestamp) so results stay reproducible"
                    ),
                });
            }
        }
    }
}

/// ISA tokens matched as path substrings (module paths compose, so a bare
/// `contains` is right: `use core::arch::x86_64::*` and
/// `::core::arch::...` both hit).
const ISA_PATH_TOKENS: &[&str] = &["core::arch", "std::arch"];

/// ISA tokens matched at word boundaries (attribute / macro names).
const ISA_WORD_TOKENS: &[&str] = &["target_feature", "is_x86_feature_detected"];

fn check_isa_confinement(rel: &str, lines: &[Line], diags: &mut Vec<Diagnostic>) {
    if rel.starts_with(ISA_ALLOWED_PREFIX) {
        return;
    }
    for (idx, line) in lines.iter().enumerate() {
        let hit = ISA_PATH_TOKENS
            .iter()
            .find(|t| line.code.contains(*t))
            .or_else(|| {
                ISA_WORD_TOKENS
                    .iter()
                    .find(|t| !word_occurrences(&line.code, t).is_empty())
            });
        if let Some(tok) = hit {
            diags.push(Diagnostic {
                file: rel.to_string(),
                line: idx + 1,
                rule: rules::ISA_CONFINEMENT,
                message: format!(
                    "`{tok}` outside `{ISA_ALLOWED_PREFIX}` — ISA-specific code lives \
                     behind the `KernelBackend` trait; dispatch through \
                     `leca_tensor::backend` instead of naming an ISA here"
                ),
            });
        }
    }
}

/// Checks the crate-level lint headers listed in [`REQUIRED_HEADERS`]
/// against files under `root`. Missing files are flagged when their crate
/// directory exists (so the check ports to partial fixture trees).
pub fn check_required_headers(root: &Path) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    for (rel, header) in REQUIRED_HEADERS {
        let path = root.join(rel);
        if !path.exists() {
            if let Some(crate_dir) = path.parent().and_then(Path::parent) {
                if crate_dir.exists() && crate_dir != root {
                    diags.push(Diagnostic {
                        file: (*rel).to_string(),
                        line: 0,
                        rule: rules::LINT_HEADER,
                        message: format!("required file missing (must declare `{header}`)"),
                    });
                }
            }
            continue;
        }
        let src = match std::fs::read_to_string(&path) {
            Ok(s) => s,
            Err(e) => {
                diags.push(Diagnostic {
                    file: (*rel).to_string(),
                    line: 0,
                    rule: rules::LINT_HEADER,
                    message: format!("unreadable: {e}"),
                });
                continue;
            }
        };
        let lines = strip_source(&src);
        let has = lines
            .iter()
            .any(|l| normalize_ws(&l.code).contains(&normalize_ws(header)));
        if !has {
            diags.push(Diagnostic {
                file: (*rel).to_string(),
                line: 1,
                rule: rules::LINT_HEADER,
                message: format!("missing crate header `{header}`"),
            });
        }
    }
    diags
}

fn normalize_ws(s: &str) -> String {
    s.chars().filter(|c| !c.is_whitespace()).collect()
}

// ---------------------------------------------------------------------
// Workspace walking
// ---------------------------------------------------------------------

/// Directory names never descended into.
const SKIP_DIRS: &[&str] = &[".git", "target", "fixtures", ".leca-cache"];

/// Collects every `.rs` file under `root` (sorted, workspace-relative),
/// skipping build output, VCS metadata and the audit's own violation
/// fixtures.
pub fn collect_rs_files(root: &Path) -> std::io::Result<Vec<PathBuf>> {
    let mut out = Vec::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        for entry in std::fs::read_dir(&dir)? {
            let entry = entry?;
            let path = entry.path();
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if path.is_dir() {
                if !SKIP_DIRS.contains(&name.as_ref()) {
                    stack.push(path);
                }
            } else if name.ends_with(".rs") {
                out.push(path);
            }
        }
    }
    out.sort();
    Ok(out)
}

/// Point-in-time audit summary counters.
#[derive(Debug, Default, Clone, Copy)]
pub struct AuditStats {
    /// `.rs` files scanned.
    pub files: usize,
    /// `unsafe` occurrences audited.
    pub unsafe_sites: usize,
    /// `_into` kernels whose bodies were checked.
    pub into_kernels: usize,
}

/// Runs every rule over the workspace rooted at `root`. Returns all
/// diagnostics plus scan statistics.
pub fn audit_workspace(root: &Path) -> std::io::Result<(Vec<Diagnostic>, AuditStats)> {
    let mut diags = Vec::new();
    let mut stats = AuditStats::default();
    for path in collect_rs_files(root)? {
        let rel = path
            .strip_prefix(root)
            .unwrap_or(&path)
            .to_string_lossy()
            .replace('\\', "/");
        let src = std::fs::read_to_string(&path)?;
        let lines = strip_source(&src);
        stats.files += 1;
        stats.unsafe_sites += lines
            .iter()
            .map(|l| word_occurrences(&l.code, "unsafe").len())
            .sum::<usize>();
        stats.into_kernels += lines
            .iter()
            .flat_map(|l| {
                word_occurrences(&l.code, "fn").into_iter().map(|at| {
                    l.code[at + 2..]
                        .trim_start()
                        .chars()
                        .take_while(|c| c.is_alphanumeric() || *c == '_')
                        .collect::<String>()
                })
            })
            .filter(|n| n.ends_with("_into"))
            .count();
        diags.extend(audit_file(&rel, &src));
    }
    diags.extend(check_required_headers(root));
    diags.sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
    Ok((diags, stats))
}

/// Locates the workspace root: walks up from `start` until a `Cargo.toml`
/// containing a `[workspace]` table is found.
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = Some(start.to_path_buf());
    while let Some(d) = dir {
        let manifest = d.join("Cargo.toml");
        if manifest.is_file() {
            if let Ok(s) = std::fs::read_to_string(&manifest) {
                if s.contains("[workspace]") {
                    return Some(d);
                }
            }
        }
        dir = d.parent().map(Path::to_path_buf);
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    fn codes(src: &str) -> Vec<String> {
        strip_source(src).into_iter().map(|l| l.code).collect()
    }

    #[test]
    fn scanner_strips_line_and_doc_comments() {
        let lines = strip_source("let x = 1; // unsafe in a comment\n/// unsafe doc\nfn f() {}\n");
        assert!(!lines[0].code.contains("unsafe"));
        assert!(lines[0].comment.contains("unsafe in a comment"));
        assert!(!lines[1].code.contains("unsafe"));
        assert_eq!(lines[2].code, "fn f() {}");
    }

    #[test]
    fn scanner_strips_strings_and_raw_strings() {
        let c = codes("let s = \"unsafe { }\"; let r = r#\"vec![unsafe]\"#; go();\n");
        assert!(!c[0].contains("unsafe"));
        assert!(!c[0].contains("vec!"));
        assert!(c[0].contains("go()"));
    }

    #[test]
    fn scanner_handles_nested_block_comments_and_chars() {
        let src =
            "/* outer /* unsafe */ still comment */ let c = '\\''; let l: &'static str = \"\";\n";
        let c = codes(src);
        assert!(!c[0].contains("unsafe"));
        assert!(c[0].contains("'static"));
    }

    #[test]
    fn scanner_string_escapes_do_not_terminate_early() {
        let c = codes(r#"let s = "a\"unsafe\""; tail();"#);
        assert!(!c[0].contains("unsafe"));
        assert!(c[0].contains("tail()"));
    }

    #[test]
    fn safety_comment_walks_past_attributes() {
        let src = "// SAFETY: fine\n#[inline]\nunsafe { x() };\n";
        let lines = strip_source(src);
        assert!(has_safety_comment(&lines, 2));
    }

    #[test]
    fn safety_comment_blocked_by_code_line() {
        let src = "// SAFETY: stale\nlet y = 1;\nunsafe { x() };\n";
        let lines = strip_source(src);
        assert!(!has_safety_comment(&lines, 2));
    }

    #[test]
    fn undocumented_unsafe_is_flagged_with_line() {
        let src = "fn f() {\n    let p = unsafe { *q };\n}\n";
        let d = audit_file("crates/tensor/src/parallel.rs", src);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].rule, rules::UNSAFE_COMMENT);
        assert_eq!(d[0].line, 2);
    }

    #[test]
    fn unsafe_outside_allowlist_is_flagged() {
        let src = "// SAFETY: documented but misplaced\nunsafe { q() };\n";
        let d = audit_file("crates/nn/src/layer.rs", src);
        assert!(d.iter().any(|d| d.rule == rules::UNSAFE_ALLOWLIST));
        assert!(!d.iter().any(|d| d.rule == rules::UNSAFE_COMMENT));
    }

    #[test]
    fn unsafe_in_comment_or_string_is_not_flagged() {
        let src = "// this fn would be unsafe if...\nlet s = \"unsafe\";\n";
        assert!(audit_file("crates/nn/src/layer.rs", src).is_empty());
    }

    #[test]
    fn spawn_flagged_in_library_code_only() {
        let src = "std::thread::spawn(|| {});\n";
        assert!(audit_file("crates/nn/src/layer.rs", src)
            .iter()
            .any(|d| d.rule == rules::THREAD_SPAWN));
        // Tests may spawn freely; allowlisted spawners must keep handles.
        assert!(audit_file("tests/pool_stress.rs", src).is_empty());
        let joined = "let h: std::thread::JoinHandle<()> = std::thread::spawn(|| {});\n";
        assert!(audit_file("crates/tensor/src/parallel.rs", joined).is_empty());
    }

    #[test]
    fn allowlisted_spawner_must_keep_join_handles() {
        let src = "pub fn go() { std::thread::Builder::new().spawn(f).unwrap(); }\n";
        let d = audit_file("crates/serve/src/supervisor.rs", src);
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].rule, rules::JOINED_SPAWN);
        // Naming the handle (so shutdown can join it) clears the rule.
        let joined = "pub fn go() -> std::thread::JoinHandle<()> {\n\
                          std::thread::Builder::new().spawn(f).unwrap()\n\
                      }\n";
        assert!(audit_file("crates/serve/src/supervisor.rs", joined).is_empty());
    }

    #[test]
    fn unit_test_module_spawns_are_exempt() {
        let src = "pub fn lib_code() {}\n\
                   #[cfg(test)]\n\
                   mod tests {\n\
                       #[test]\n\
                       fn t() { std::thread::spawn(|| {}).join().unwrap(); }\n\
                   }\n";
        assert!(audit_file("crates/serve/src/queue.rs", src).is_empty());
        // The same spawn above the test module is still flagged.
        let src = "pub fn lib_code() { std::thread::spawn(|| {}); }\n\
                   #[cfg(test)]\n\
                   mod tests {}\n";
        assert!(audit_file("crates/serve/src/queue.rs", src)
            .iter()
            .any(|d| d.rule == rules::THREAD_SPAWN));
    }

    #[test]
    fn cfg_test_on_a_method_does_not_start_the_test_region() {
        let src = "pub struct Q;\n\
                   impl Q {\n\
                       #[cfg(test)]\n\
                       pub fn len(&self) -> usize { 0 }\n\
                   }\n\
                   pub fn later() { std::thread::spawn(|| {}); }\n";
        assert!(audit_file("crates/serve/src/queue.rs", src)
            .iter()
            .any(|d| d.rule == rules::THREAD_SPAWN));
    }

    #[test]
    fn hot_path_alloc_flagged_inside_into_kernel() {
        let src = "fn add_into(out: &mut [f32]) {\n    let t = Vec::new();\n}\n\
                   fn add(out: &mut [f32]) {\n    let t = Vec::new();\n}\n";
        let d = audit_file("crates/tensor/src/tensor.rs", src);
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].rule, rules::HOT_PATH_ALLOC);
        assert_eq!(d[0].line, 2);
    }

    #[test]
    fn hot_path_alloc_exempts_error_arms() {
        let src = "fn add_into(out: &mut [f32]) -> Result<(), E> {\n\
                       if bad {\n\
                           return Err(E::Shape { lhs: a.shape().to_vec(), rhs: vec![m, n] });\n\
                       }\n\
                       debug_assert!(ok, \"{}\", msg.to_string());\n\
                       Ok(())\n\
                   }\n";
        let d = audit_file("crates/tensor/src/ops/matmul.rs", src);
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn nondeterminism_flagged_outside_bench() {
        let src = "let t = std::time::SystemTime::now();\nlet mut rng = thread_rng();\n";
        let d = audit_file("crates/core/src/trainer.rs", src);
        assert_eq!(d.len(), 2);
        assert!(d.iter().all(|d| d.rule == rules::NONDETERMINISM));
        assert!(audit_file("crates/bench/src/lib.rs", src).is_empty());
    }

    #[test]
    fn isa_tokens_flagged_outside_backend_layer() {
        let src = "use core::arch::x86_64::_mm256_add_ps;\n\
                   #[target_feature(enable = \"avx2\")]\n\
                   fn f() { if std::is_x86_feature_detected!(\"avx2\") {} }\n";
        let d = audit_file("crates/nn/src/layers/linear.rs", src);
        assert_eq!(d.len(), 3, "{d:?}");
        assert!(d.iter().all(|d| d.rule == rules::ISA_CONFINEMENT));
        assert_eq!(d[0].line, 1);
        // The same source inside the backend layer is the sanctioned home.
        assert!(audit_file("crates/tensor/src/backend/avx2.rs", src)
            .iter()
            .all(|d| d.rule != rules::ISA_CONFINEMENT));

        // The fast-math tier's FMA spellings are confined identically:
        // fused-multiply intrinsics, the two-feature attribute and the
        // fma CPUID probe.
        let fma = "use core::arch::x86_64::_mm256_fmadd_ps;\n\
                   #[target_feature(enable = \"avx2\", enable = \"fma\")]\n\
                   fn f() { if std::is_x86_feature_detected!(\"fma\") {} }\n";
        let d = audit_file("crates/core/src/session.rs", fma);
        assert_eq!(d.len(), 3, "{d:?}");
        assert!(d.iter().all(|d| d.rule == rules::ISA_CONFINEMENT));
        assert!(audit_file("crates/tensor/src/backend/fastmath.rs", fma)
            .iter()
            .all(|d| d.rule != rules::ISA_CONFINEMENT));
    }

    #[test]
    fn isa_tokens_in_comments_strings_and_idents_are_not_flagged() {
        // Comment and string mentions are stripped; identifiers merely
        // *containing* a word token don't match at a word boundary.
        let src = "// talk about core::arch and target_feature here\n\
                   let s = \"std::arch\";\n\
                   let my_target_features = 3;\n";
        assert!(audit_file("crates/nn/src/layer.rs", src).is_empty());
    }

    #[test]
    fn escaped_newline_in_string_keeps_line_numbers() {
        // `\` at end of line inside a string literal is a line
        // continuation: the literal spans two source lines and the line
        // channel must account for both, or every diagnostic below the
        // string drifts up by one.
        let src = "let s = \"head \\\n  tail\";\nlet t = 'x';\nunsafe { q() };\n";
        let lines = strip_source(src);
        assert_eq!(lines.len(), strip_source("a\nb\nc\nd\n").len());
        let d = audit_file("crates/nn/src/layer.rs", src);
        assert!(
            d.iter()
                .any(|d| d.rule == rules::UNSAFE_ALLOWLIST && d.line == 4),
            "unsafe must be reported on line 4, got {d:?}"
        );
    }

    #[test]
    fn escaped_newline_in_char_position_keeps_line_numbers() {
        // Not valid Rust, but the scanner must stay line-accurate even on
        // torn input rather than silently drifting.
        let src = "let c = '\\\n';\nunsafe { q() };\n";
        let d = audit_file("crates/nn/src/layer.rs", src);
        assert!(d.iter().any(|d| d.line == 3), "{d:?}");
    }

    #[test]
    fn braces_in_char_literals_do_not_unbalance_kernel_bodies() {
        // A `'{'` char literal (or `'\u{7F}'` escape) inside an `_into`
        // body must not shift the body's closing brace: the allocation on
        // the line after the literal is still inside the kernel.
        let src = "fn pack_into(out: &mut [u8]) {\n\
                       let open = '{';\n\
                       let esc = '\\u{7F}';\n\
                       let v = Vec::new();\n\
                   }\n";
        let d = audit_file("crates/tensor/src/tensor.rs", src);
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].rule, rules::HOT_PATH_ALLOC);
        assert_eq!(d[0].line, 4);
    }

    #[test]
    fn braces_in_raw_strings_do_not_unbalance_kernel_bodies() {
        let src = "fn pack_into(out: &mut [u8]) {\n\
                       let tpl = r#\"{ \"k\": } } }\"#;\n\
                       let v = Vec::new();\n\
                   }\n\
                   fn after() { let w = Vec::new(); }\n";
        let d = audit_file("crates/tensor/src/tensor.rs", src);
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].line, 3);
    }

    #[test]
    fn matching_brace_spans_char_and_raw_string_braces() {
        let stripped = strip_source("{ let a = '{'; let b = r\"}}}\"; done() }");
        let code = &stripped[0].code;
        let open = code.find('{').expect("open brace");
        let close = matching_brace(code, open).expect("must match");
        assert_eq!(close, code.rfind('}').expect("close brace"));
    }

    #[test]
    fn diagnostic_formats_file_line_rule() {
        let d = Diagnostic {
            file: "crates/x/src/lib.rs".into(),
            line: 7,
            rule: rules::UNSAFE_COMMENT,
            message: "m".into(),
        };
        assert_eq!(
            d.to_string(),
            "crates/x/src/lib.rs:7: [unsafe-safety-comment] m"
        );
    }
}
