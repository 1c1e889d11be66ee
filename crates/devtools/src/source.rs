//! Source rules: L3 determinism, L4 panic budget, L5 unsafe hygiene,
//! L6 print hygiene and L8 shard isolation.
//!
//! All of them operate on one file at a time so they are trivially
//! testable on string fixtures. L3 and L4 consider only *non-test* code:
//! anything under a `#[cfg(test)]` item is exempt, as are files outside
//! a crate's `src/` tree (integration tests, benches).

use crate::allow::Allow;
use crate::lex::{has_token, in_spans, is_ident, scrub, test_spans};
use crate::report::{Rule, Violation};

/// A file presented to the source rules. `path` is repo-relative with
/// forward slashes — allowlists match on it exactly.
pub struct SourceFile<'a> {
    pub path: &'a str,
    pub text: &'a str,
}

/// Pre-lexed view shared by the rules.
pub struct Lexed {
    scrubbed: String,
    spans: Vec<(usize, usize)>,
}

impl Lexed {
    pub fn new(text: &str) -> Lexed {
        let scrubbed = scrub(text);
        let spans = test_spans(&scrubbed);
        Lexed { scrubbed, spans }
    }

    /// Non-test scrubbed lines with 1-based numbers.
    fn live_lines(&self) -> impl Iterator<Item = (usize, &str)> {
        self.scrubbed
            .lines()
            .enumerate()
            .map(|(i, l)| (i + 1, l))
            .filter(|(n, _)| !in_spans(&self.spans, *n))
    }
}

/// Wall-clock and entropy sources. `Instant`/`SystemTime` are banned
/// wholesale: simulated time comes from the event loop, and the only
/// sanctioned real clock is the bench stopwatch (allowlisted).
const WALL_CLOCK: [&str; 4] = ["Instant", "SystemTime", "UNIX_EPOCH", "SystemTimeError"];

/// Entropy-seeded randomness — banned everywhere, no allowlist. The
/// workspace's only generator is seeded explicitly.
const ENTROPY: [&str; 4] = ["thread_rng", "from_entropy", "OsRng", "getrandom"];

/// Iteration-order hazards: results must not depend on hash order.
const HASH_ORDER: [&str; 2] = ["HashMap", "HashSet"];

/// RNG constructors — allowed only in seed-plumbing files, so every
/// random stream is traceable to a top-level seed.
const RNG_CONSTRUCT: [&str; 2] = ["seed_from_u64", "from_seed"];

/// Thread primitives — scheduling order is nondeterministic, so thread
/// use is confined to the scheduler whose merge discipline makes a
/// determinism argument ([`THREAD_HOMES`]). No allowlist: new thread
/// use goes through that pool or not at all.
const THREADING: [&str; 3] = ["std::thread", "thread::spawn", "thread::scope"];

/// The only sanctioned home of `std::thread`: the bench shard
/// scheduler (merges results in submission order).
const THREAD_HOMES: [&str; 1] = ["crates/bench/src/shard.rs"];

/// L3: scan non-test code for determinism hazards.
pub fn check_determinism(file: &SourceFile, lexed: &Lexed, allow: &Allow) -> Vec<Violation> {
    let mut v = Vec::new();
    let clock_ok = allow.allows_wall_clock(file.path);
    let rng_ok = allow.allows_rng_construction(file.path);
    for (n, line) in lexed.live_lines() {
        for tok in ENTROPY {
            if has_token(line, tok) {
                v.push(Violation::at(
                    Rule::Determinism,
                    file.path,
                    n,
                    format!("entropy source `{tok}` — all randomness must be seeded"),
                ));
            }
        }
        if !clock_ok {
            for tok in WALL_CLOCK {
                if has_token(line, tok) {
                    v.push(Violation::at(
                        Rule::Determinism,
                        file.path,
                        n,
                        format!("wall clock `{tok}` — use simulated time or the bench stopwatch"),
                    ));
                }
            }
        }
        for tok in HASH_ORDER {
            if has_token(line, tok) {
                v.push(Violation::at(
                    Rule::Determinism,
                    file.path,
                    n,
                    format!("`{tok}` iteration order is nondeterministic — use the BTree variant"),
                ));
            }
        }
        if !THREAD_HOMES.contains(&file.path) {
            for tok in THREADING {
                if has_token(line, tok) {
                    v.push(Violation::at(
                        Rule::Determinism,
                        file.path,
                        n,
                        format!(
                            "thread primitive `{tok}` outside the sanctioned shard scheduler \
                             ({}) — submit a shard job instead",
                            THREAD_HOMES.join(", ")
                        ),
                    ));
                    break; // `std::thread::spawn` matches two tokens; report once
                }
            }
        }
        if !rng_ok {
            for tok in RNG_CONSTRUCT {
                if has_token(line, tok) {
                    v.push(Violation::at(
                        Rule::Determinism,
                        file.path,
                        n,
                        format!(
                            "RNG construction `{tok}` outside the seed-plumbing allowlist — \
                             take a `&mut SimRng` instead"
                        ),
                    ));
                }
            }
        }
    }
    v
}

/// Panic-site tokens for L4. `.expect(` keeps the dot so field or
/// method names like `expected` never match.
const PANIC_SITES: [&str; 4] = [".unwrap()", ".expect(", "panic!", "unreachable!"];

/// A receiver that makes `.expect(` the type's own method rather than
/// `Option::expect`/`Result::expect` (e.g. a parser's `self.expect(b':')?`).
const OWN_EXPECT: &str = "self.expect(";

/// 1-based lines of every panic site in non-test code, one entry per
/// site (a line with two `.unwrap()`s appears twice).
fn panic_site_lines(lexed: &Lexed) -> Vec<usize> {
    let mut out = Vec::new();
    for (n, line) in lexed.live_lines() {
        let count: usize = PANIC_SITES.iter().map(|tok| line.match_indices(tok).count()).sum();
        let own = line
            .match_indices(OWN_EXPECT)
            .filter(|&(i, _)| i == 0 || !is_ident(line.as_bytes()[i - 1]))
            .count();
        out.extend(std::iter::repeat_n(n, count - own));
    }
    out
}

/// L4: non-test library code has no panic sites at all. Each site is
/// one violation at its line; there is no allowlist.
pub fn check_panic_budget(file: &SourceFile, lexed: &Lexed) -> Vec<Violation> {
    panic_site_lines(lexed)
        .into_iter()
        .map(|n| {
            Violation::at(
                Rule::PanicBudget,
                file.path,
                n,
                "panic site (`unwrap`/`expect`/`panic!`/`unreachable!`) in non-test code — \
                 return an error instead",
            )
        })
        .collect()
}

/// Console-print macros for L6. Library code must route diagnostics
/// through `lucent-obs`; stdout/stderr belong to the sanctioned sinks.
const PRINT_MACROS: [&str; 4] = ["println!", "eprintln!", "print!", "eprint!"];

/// Files allowed to print: the `repro` CLI (the workspace's one
/// user-facing binary) and the lint CLI itself.
const PRINT_SINKS: [&str; 2] =
    ["crates/bench/src/bin/repro.rs", "crates/devtools/src/bin/lucent-lint.rs"];

/// L6: no console prints in non-test library code outside the sanctioned
/// sinks.
pub fn check_print_hygiene(file: &SourceFile, lexed: &Lexed) -> Vec<Violation> {
    if PRINT_SINKS.contains(&file.path) {
        return Vec::new();
    }
    let mut v = Vec::new();
    for (n, line) in lexed.live_lines() {
        for tok in PRINT_MACROS {
            if has_token(line, tok) {
                v.push(Violation::at(
                    Rule::PrintHygiene,
                    file.path,
                    n,
                    format!("console print `{tok}` outside a sanctioned sink — emit a \
                             lucent-obs event or return the string to the caller"),
                ));
            }
        }
    }
    v
}

/// L5: every `unsafe` token in non-test code needs a `// SAFETY:`
/// comment on the same line or within the three raw lines above it.
pub fn check_unsafe(file: &SourceFile, lexed: &Lexed) -> Vec<Violation> {
    let raw_lines: Vec<&str> = file.text.lines().collect();
    let mut v = Vec::new();
    for (n, line) in lexed.live_lines() {
        if !has_token(line, "unsafe") {
            continue;
        }
        let justified = (n.saturating_sub(4)..n)
            .filter_map(|i| raw_lines.get(i))
            .any(|l| l.contains("// SAFETY:"))
            || raw_lines.get(n - 1).is_some_and(|l| l.contains("// SAFETY:"));
        if !justified {
            v.push(Violation::at(
                Rule::UnsafeHygiene,
                file.path,
                n,
                "`unsafe` without a `// SAFETY:` justification".to_string(),
            ));
        }
    }
    v
}

/// Interior-mutability wrappers that make a `static` shared mutable
/// state. Shard workers are replayed deterministically only if their
/// inputs are explicit, so these live exclusively in `[shared_state]`
/// allowlisted files.
const SHARED_STATE: [&str; 21] = [
    "Mutex",
    "RwLock",
    "RefCell",
    "Cell",
    "UnsafeCell",
    "OnceCell",
    "OnceLock",
    "LazyLock",
    "Once",
    "AtomicBool",
    "AtomicU8",
    "AtomicU16",
    "AtomicU32",
    "AtomicU64",
    "AtomicUsize",
    "AtomicI8",
    "AtomicI16",
    "AtomicI32",
    "AtomicI64",
    "AtomicIsize",
    "AtomicPtr",
];

/// Find a `static` *keyword* on the line — rejecting the `'static`
/// lifetime and identifier substrings — and report whether it declares
/// a `static mut`.
fn static_decl(line: &str) -> Option<bool> {
    let b = line.as_bytes();
    let mut from = 0;
    while let Some(pos) = line[from..].find("static") {
        let i = from + pos;
        let j = i + "static".len();
        from = j;
        let prev_ok = i == 0 || {
            let c = b[i - 1];
            c != b'\'' && !(c as char).is_alphanumeric() && c != b'_'
        };
        let next_ok = j >= b.len() || !((b[j] as char).is_alphanumeric() || b[j] == b'_');
        if prev_ok && next_ok {
            let rest = line[j..].trim_start();
            let is_mut = rest.starts_with("mut")
                && rest[3..].chars().next().is_none_or(|c| !c.is_alphanumeric() && c != '_');
            return Some(is_mut);
        }
    }
    None
}

/// L8: shard isolation. `static mut` is forbidden everywhere;
/// interior-mutability statics and `thread_local!` state are confined
/// to `[shared_state]` allowlisted files.
pub fn check_shared_state(file: &SourceFile, lexed: &Lexed, allow: &Allow) -> Vec<Violation> {
    let mut v = Vec::new();
    let allowed = allow.allows_shared_state(file.path);
    for (n, line) in lexed.live_lines() {
        let decl = static_decl(line);
        if decl == Some(true) {
            v.push(Violation::at(
                Rule::SharedState,
                file.path,
                n,
                "`static mut` is forbidden everywhere — shard workers must not share \
                 mutable state; pass it explicitly or use a [shared_state] allowlisted \
                 interior-mutability static"
                    .to_string(),
            ));
            continue;
        }
        if allowed {
            continue;
        }
        let tls = has_token(line, "thread_local");
        if decl == Some(false) || tls {
            if let Some(tok) = SHARED_STATE.iter().find(|t| has_token(line, t)) {
                v.push(Violation::at(
                    Rule::SharedState,
                    file.path,
                    n,
                    format!(
                        "interior-mutability static `{tok}` outside the [shared_state] \
                         allowlist — shared mutable state breaks shard replay"
                    ),
                ));
            } else if tls {
                v.push(Violation::at(
                    Rule::SharedState,
                    file.path,
                    n,
                    "`thread_local!` state outside the [shared_state] allowlist — \
                     per-thread state breaks shard replay"
                        .to_string(),
                ));
            }
        }
    }
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_l3(path: &str, text: &str, allow: &Allow) -> Vec<Violation> {
        let lexed = Lexed::new(text);
        check_determinism(&SourceFile { path, text }, &lexed, allow)
    }

    #[test]
    fn wall_clocks_are_flagged() {
        let v = run_l3("crates/x/src/a.rs", "let t = std::time::Instant::now();\n", &Allow::default());
        assert_eq!(v.len(), 1);
        assert!(v[0].msg.contains("wall clock"), "{}", v[0].msg);
        assert_eq!(v[0].line, 1);
    }

    #[test]
    fn allowlisted_bench_file_may_read_the_clock() {
        let mut allow = Allow::default();
        allow.wall_clock.push("crates/support/src/bench.rs".into());
        let v = run_l3("crates/support/src/bench.rs", "let t = Instant::now();\n", &allow);
        assert!(v.is_empty());
    }

    #[test]
    fn entropy_sources_are_flagged_even_in_allowlisted_files() {
        let mut allow = Allow::default();
        allow.wall_clock.push("crates/support/src/bench.rs".into());
        let v = run_l3("crates/support/src/bench.rs", "let r = rand::thread_rng();\n", &allow);
        assert_eq!(v.len(), 1);
        assert!(v[0].msg.contains("entropy"), "{}", v[0].msg);
    }

    #[test]
    fn hash_collections_are_flagged_outside_tests_only() {
        let src = "use std::collections::HashMap;\n#[cfg(test)]\nmod tests {\n    use std::collections::HashSet;\n}\n";
        let v = run_l3("crates/x/src/a.rs", src, &Allow::default());
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].line, 1);
    }

    #[test]
    fn banned_names_in_strings_and_comments_do_not_trip() {
        let src = "// HashMap would be wrong here\nlet s = \"Instant::now\";\n";
        assert!(run_l3("crates/x/src/a.rs", src, &Allow::default()).is_empty());
    }

    #[test]
    fn thread_primitives_are_confined_to_the_shard_scheduler() {
        let src = "std::thread::spawn(|| {});\n";
        let v = run_l3("crates/x/src/a.rs", src, &Allow::default());
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].msg.contains("sanctioned shard scheduler"), "{}", v[0].msg);
        // The scheduler itself is exempt — no allowlist entry needed.
        for home in super::THREAD_HOMES {
            assert!(run_l3(home, src, &Allow::default()).is_empty(), "{home}");
        }
        // `use std::thread;` + bare `thread::scope` is still caught.
        let aliased = "use std::thread;\nfn f() { thread::scope(|_| {}); }\n";
        assert_eq!(run_l3("crates/x/src/b.rs", aliased, &Allow::default()).len(), 2);
        // Mentions in comments and strings stay clean.
        let doc = "// std::thread is banned here\nlet s = \"thread::spawn\";\n";
        assert!(run_l3("crates/x/src/c.rs", doc, &Allow::default()).is_empty());
    }

    #[test]
    fn rng_construction_outside_allowlist_is_flagged() {
        let src = "let rng = SimRng::seed_from_u64(7);\n";
        let v = run_l3("crates/x/src/a.rs", src, &Allow::default());
        assert_eq!(v.len(), 1);
        assert!(v[0].msg.contains("seed-plumbing"), "{}", v[0].msg);
        let mut allow = Allow::default();
        allow.rng_construction.push("crates/x/src/a.rs".into());
        assert!(run_l3("crates/x/src/a.rs", src, &allow).is_empty());
    }

    #[test]
    fn panic_sites_are_counted_in_live_code_only() {
        let src = "fn f(x: Option<u8>) -> u8 { x.unwrap() }\nfn g() { panic!(\"boom\") }\n#[cfg(test)]\nmod tests {\n    fn t() { None::<u8>.unwrap(); }\n}\n";
        assert_eq!(panic_site_lines(&Lexed::new(src)), [1, 2]);
    }

    #[test]
    fn panic_budget_enforces_the_ceiling() {
        // The ceiling is zero: every site is a violation pinned at its line.
        let text = "fn f() {}\nfn g() { x.unwrap(); y.expect(\"m\") }\n";
        let file = SourceFile { path: "crates/x/src/a.rs", text };
        let v = check_panic_budget(&file, &Lexed::new(text));
        assert_eq!(v.len(), 2, "{v:?}");
        assert!(v.iter().all(|v| v.to_string().starts_with("L4-panic-budget: crates/x/src/a.rs:2: ")), "{v:?}");
        assert!(check_panic_budget(&file, &Lexed::new("fn f() {}\n")).is_empty());
    }

    #[test]
    fn expected_identifiers_do_not_count_as_expect() {
        let src = "let expected = 3; assert_eq!(expected, got);\n";
        assert_eq!(panic_site_lines(&Lexed::new(src)).len(), 0);
    }

    #[test]
    fn a_types_own_expect_method_is_not_a_panic_site() {
        // A parser's `Result`-returning helper called on `self`.
        assert_eq!(panic_site_lines(&Lexed::new("self.expect(b':')?;\n")).len(), 0);
        assert_eq!(panic_site_lines(&Lexed::new("x.expect(\"m\");\n")).len(), 1);
        // Only the receiver `self` is exempt, not an identifier ending in it.
        assert_eq!(panic_site_lines(&Lexed::new("myself.expect(\"m\");\n")).len(), 1);
        assert_eq!(panic_site_lines(&Lexed::new("self.expect(b'[')?; y.expect(\"m\");\n")).len(), 1);
    }

    #[test]
    fn prints_in_library_code_are_flagged() {
        let text = "fn f() { println!(\"dbg\"); eprintln!(\"warn\"); }\n";
        let lexed = Lexed::new(text);
        let v = check_print_hygiene(&SourceFile { path: "crates/x/src/a.rs", text }, &lexed);
        assert_eq!(v.len(), 2, "{v:?}");
        assert!(v[0].msg.contains("sanctioned sink"), "{}", v[0].msg);
        assert_eq!(v[0].rule.code(), "L6-print");
    }

    #[test]
    fn sanctioned_sinks_may_print() {
        let text = "fn report() { println!(\"{}\", 1); }\n";
        let lexed = Lexed::new(text);
        for path in super::PRINT_SINKS {
            assert!(check_print_hygiene(&SourceFile { path, text }, &lexed).is_empty());
        }
    }

    #[test]
    fn the_repro_binary_is_a_sanctioned_sink() {
        // `repro` prints its tables on stdout by design; the driver and
        // stopwatch modules it fronts must not.
        let text = "fn verdict() { println!(\"FAIL {}\", f); eprintln!(\"usage\"); }\n";
        let lexed = Lexed::new(text);
        let sink = SourceFile { path: "crates/bench/src/bin/repro.rs", text };
        assert!(check_print_hygiene(&sink, &lexed).is_empty());
        for path in
            ["crates/bench/src/drive.rs", "crates/bench/src/shard.rs", "crates/support/src/bench.rs"]
        {
            let v = check_print_hygiene(&SourceFile { path, text }, &lexed);
            assert_eq!(v.len(), 2, "library files behind the CLI stay under L6: {v:?}");
        }
    }

    #[test]
    fn no_check_file_is_a_sanctioned_sink() {
        // lucent-check reports through test failures, never the console.
        let text = "fn emit() { print!(\"{}\", t); eprintln!(\"usage\"); }\n";
        let lexed = Lexed::new(text);
        for path in ["crates/check/src/runner.rs", "crates/check/src/bin/tool.rs"] {
            let v = check_print_hygiene(&SourceFile { path, text }, &lexed);
            assert_eq!(v.len(), 2, "check files stay under L6: {path}: {v:?}");
        }
    }

    #[test]
    fn prints_in_test_code_and_strings_do_not_trip_l6() {
        let text = "// println! is banned here\nlet s = \"println!\";\n#[cfg(test)]\nmod tests {\n    fn t() { println!(\"ok in tests\"); }\n}\n";
        let lexed = Lexed::new(text);
        assert!(check_print_hygiene(&SourceFile { path: "crates/x/src/a.rs", text }, &lexed).is_empty());
    }

    #[test]
    fn eprintln_does_not_shadow_println_token() {
        // `eprintln!` must not double-count as `println!` (identifier
        // boundary check in the lexer).
        let text = "fn f() { eprintln!(\"x\"); }\n";
        let lexed = Lexed::new(text);
        let v = check_print_hygiene(&SourceFile { path: "crates/x/src/a.rs", text }, &lexed);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].msg.contains("eprintln!"), "{}", v[0].msg);
    }

    #[test]
    fn unjustified_unsafe_is_flagged() {
        let text = "fn f() { unsafe { core::hint::unreachable_unchecked() } }\n";
        let lexed = Lexed::new(text);
        let v = check_unsafe(&SourceFile { path: "crates/x/src/a.rs", text }, &lexed);
        assert_eq!(v.len(), 1);
    }

    #[test]
    fn safety_comment_satisfies_l5() {
        let text = "// SAFETY: guarded by the bounds check above.\nfn f() { unsafe { g() } }\n";
        let lexed = Lexed::new(text);
        let v = check_unsafe(&SourceFile { path: "crates/x/src/a.rs", text }, &lexed);
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn forbid_unsafe_code_attribute_does_not_trip_l5() {
        let text = "#![forbid(unsafe_code)]\nfn f() {}\n";
        let lexed = Lexed::new(text);
        assert!(check_unsafe(&SourceFile { path: "crates/x/src/a.rs", text }, &lexed).is_empty());
    }

    fn run_l8(path: &str, text: &str, allow: &Allow) -> Vec<Violation> {
        let lexed = Lexed::new(text);
        check_shared_state(&SourceFile { path, text }, &lexed, allow)
    }

    #[test]
    fn static_mut_is_forbidden_even_in_allowlisted_files() {
        let src = "pub static mut HITS: u32 = 0;\n";
        let v = run_l8("crates/x/src/a.rs", src, &Allow::default());
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].msg.contains("static mut"), "{}", v[0].msg);
        let mut allow = Allow::default();
        allow.shared_state.push("crates/x/src/a.rs".into());
        assert_eq!(run_l8("crates/x/src/a.rs", src, &allow).len(), 1, "no allowlist escape");
    }

    #[test]
    fn interior_mutability_statics_need_the_allowlist() {
        let src = "static REGISTRY: Mutex<Vec<u32>> = Mutex::new(Vec::new());\n";
        let v = run_l8("crates/x/src/a.rs", src, &Allow::default());
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].msg.contains("Mutex"), "{}", v[0].msg);
        let mut allow = Allow::default();
        allow.shared_state.push("crates/x/src/a.rs".into());
        assert!(run_l8("crates/x/src/a.rs", src, &allow).is_empty());
    }

    #[test]
    fn thread_local_state_needs_the_allowlist() {
        let src = "thread_local! {\n    static DEPTH: Cell<u32> = const { Cell::new(0) };\n}\n";
        let v = run_l8("crates/x/src/a.rs", src, &Allow::default());
        assert!(!v.is_empty(), "{v:?}");
        let mut allow = Allow::default();
        allow.shared_state.push("crates/x/src/a.rs".into());
        assert!(run_l8("crates/x/src/a.rs", src, &allow).is_empty());
    }

    #[test]
    fn immutable_statics_and_lifetimes_stay_clean() {
        let src = "static NAMES: [&str; 2] = [\"a\", \"b\"];\nfn f() -> &'static str { \"x\" }\nfn g<T: 'static>(t: T) {}\nlet staticky = 1;\n";
        assert!(run_l8("crates/x/src/a.rs", src, &Allow::default()).is_empty());
    }

    #[test]
    fn statics_in_test_code_are_exempt_from_l8() {
        let src = "#[cfg(test)]\nmod tests {\n    static HIT: AtomicBool = AtomicBool::new(false);\n}\n";
        assert!(run_l8("crates/x/src/a.rs", src, &Allow::default()).is_empty());
    }
}
