//! `lucent-devtools`: in-tree static analysis for the lucent workspace.
//!
//! The `lucent-lint` binary (and the `run_root` library entry point the
//! tier-1 gate calls) enforces seven rule families, L1–L6 and L8. The
//! numbers L7 (panic reachability, which L4 at zero subsumes), L9/L10
//! (static allocation estimates, replaced by `benchmark/`'s measured
//! counts) and L11/L12 (a symbolic analyzer for policy features no
//! censor program used; the policy compiler now rejects those features
//! and `tests/it_policy.rs` compiles every committed program) are
//! retired:
//!
//! - **L1 hermeticity** — every dependency is a path dependency; the
//!   workspace builds with the network unplugged.
//! - **L2 layering** — crate dependencies respect the layer DAG
//!   `packet → netsim → tcp → dns → {web, middlebox} → topology →
//!   core → bench`, with `support` underneath everything.
//! - **L3 determinism** — no wall clocks outside the bench stopwatch, no
//!   entropy-seeded randomness, no hash-ordered collections, and RNG
//!   construction only in allowlisted seed-plumbing files.
//! - **L4 panic budget** — non-test library code has no panic sites
//!   (`unwrap`/`expect`/`panic!`/`unreachable!`) at all; each one is a
//!   violation at its line, with no allowlist.
//! - **L5 unsafe hygiene** — every `unsafe` carries a `// SAFETY:`
//!   justification (most crates simply `#![forbid(unsafe_code)]`).
//! - **L6 print hygiene** — no `println!`/`eprintln!` in non-test library
//!   code outside the sanctioned sinks (the `repro` CLI, the lint CLI,
//!   and the `lucent-check` campaign reporter with its `fuzz-smoke`
//!   binary); diagnostics go through `lucent-obs`.
//! - **L8 shard isolation** — `static mut` is forbidden everywhere, and
//!   interior-mutability statics (`Mutex`/`RefCell`/atomics/… at static
//!   scope, `thread_local!`) are confined to `[shared_state]`
//!   allowlisted files so shard workers never share mutable state.
//!
//! The lint is dependency-free by construction: it ships its own Rust
//! scrubbing lexer ([`lex`]) and reads `lint-allow.toml` and the
//! manifests with `lucent-support`'s TOML reader — its only workspace
//! dependency — so the gate itself cannot violate L1.

#![forbid(unsafe_code)]

pub mod allow;
pub mod lex;
pub mod manifest;
pub mod report;
pub mod source;

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use lucent_support::toml::{self, Section};

use allow::Allow;
use report::{Report, Rule, Violation};
use source::{Lexed, SourceFile};

/// Name of the allowlist file at the workspace root.
pub const ALLOW_FILE: &str = "lint-allow.toml";

/// Run the whole gate against a workspace root. I/O errors (an
/// unreadable tree) surface as `Err`; rule findings land in the report.
pub fn run_root(root: &Path) -> io::Result<Report> {
    let mut report = Report::default();
    let allow = load_allow(root, &mut report);

    // L1 + L2 over the root and member manifests.
    let root_doc = parse_manifest(root, "Cargo.toml", &mut report);
    let workspace_path_deps = match &root_doc {
        Some(doc) => {
            let (v, names) = manifest::check_workspace_deps(doc);
            report.merge(v);
            names
        }
        None => Vec::new(),
    };
    for rel in member_manifests(root)? {
        if let Some(doc) = parse_manifest(root, &rel, &mut report) {
            let m = manifest::extract(&doc, &rel);
            report.merge(manifest::check_hermetic(&m, &workspace_path_deps));
            report.merge(manifest::check_layering(&m));
        }
    }

    // L3, L4, L6 and L8 over library source trees, in path order; L5
    // additionally over test and bench code (unsafe needs a
    // justification wherever it appears).
    for rel in rust_sources(root)? {
        scan_file(root, &rel, &allow, &mut report)?;
    }

    // Allowlist hygiene: entries for files that no longer exist are
    // violations — a stale entry looks live while guarding nothing.
    let lists: [(&str, Rule, &[String]); 3] = [
        ("wall_clock", Rule::Determinism, &allow.wall_clock),
        ("rng_construction", Rule::Determinism, &allow.rng_construction),
        ("shared_state", Rule::SharedState, &allow.shared_state),
    ];
    for (section, rule, files) in lists {
        for path in files {
            if !root.join(path).is_file() {
                report.violations.push(Violation::file(
                    rule,
                    ALLOW_FILE,
                    format!("stale [{section}] entry for missing file {path} — remove it"),
                ));
            }
        }
    }

    report.violations.sort();
    Ok(report)
}

/// Read the allowlist. A missing file is a warning (every list is
/// empty); an unparseable one is a violation, so the gate does not
/// proceed as if it were empty. It is filed under L3, the first rule
/// the allowlist configures.
fn load_allow(root: &Path, report: &mut Report) -> Allow {
    match fs::read_to_string(root.join(ALLOW_FILE)) {
        Ok(text) => Allow::parse(&text).unwrap_or_else(|e| {
            report.violations.push(Violation::at(
                Rule::Determinism,
                ALLOW_FILE,
                e.line,
                format!("unparseable allowlist: {}", e.msg),
            ));
            Allow::default()
        }),
        Err(_) => {
            report.warnings.push(format!("{ALLOW_FILE} missing — every list defaults to empty"));
            Allow::default()
        }
    }
}

/// The per-file pass over one source file, merged into `report`.
fn scan_file(root: &Path, rel: &str, allow: &Allow, report: &mut Report) -> io::Result<()> {
    let text = fs::read_to_string(root.join(rel))?;
    let file = SourceFile { path: rel, text: &text };
    let lexed = Lexed::new(&text);
    report.files_scanned += 1;
    if in_library_tree(rel) {
        report.merge(source::check_determinism(&file, &lexed, allow));
        report.merge(source::check_print_hygiene(&file, &lexed));
        report.merge(source::check_shared_state(&file, &lexed, allow));
        // Panic sites in non-test library code, each also an L4
        // violation.
        let panics = source::check_panic_budget(&file, &lexed);
        if !panics.is_empty() {
            report.panic_by_file.insert(rel.to_string(), panics.len());
            report.panic_total += panics.len();
        }
        report.merge(panics);
    }
    report.merge(source::check_unsafe(&file, &lexed));
    Ok(())
}

/// Locate the workspace root by walking up from `start` until a
/// `Cargo.toml` containing `[workspace]` appears.
pub fn find_root(start: &Path) -> Option<PathBuf> {
    let mut dir = start.to_path_buf();
    loop {
        let manifest = dir.join("Cargo.toml");
        if let Ok(text) = fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Some(dir);
            }
        }
        if !dir.pop() {
            return None;
        }
    }
}

fn parse_manifest(root: &Path, rel: &str, report: &mut Report) -> Option<Vec<Section>> {
    let text = match fs::read_to_string(root.join(rel)) {
        Ok(t) => t,
        Err(e) => {
            report.violations.push(Violation::file(
                Rule::Hermeticity,
                rel,
                format!("unreadable manifest: {e}"),
            ));
            return None;
        }
    };
    match toml::parse(&text) {
        Ok(doc) => Some(doc),
        Err(e) => {
            report.violations.push(Violation::at(
                Rule::Hermeticity,
                rel,
                e.line,
                format!("manifest outside the supported TOML subset: {}", e.msg),
            ));
            None
        }
    }
}

/// Member manifest paths relative to the root, in sorted order.
fn member_manifests(root: &Path) -> io::Result<Vec<String>> {
    let mut out = Vec::new();
    let crates = root.join("crates");
    if crates.is_dir() {
        let mut entries: Vec<_> = fs::read_dir(&crates)?.collect::<Result<_, _>>()?;
        entries.sort_by_key(std::fs::DirEntry::file_name);
        for e in entries {
            let m = e.path().join("Cargo.toml");
            if m.is_file() {
                out.push(format!("crates/{}/Cargo.toml", e.file_name().to_string_lossy()));
            }
        }
    }
    for extra in ["tests", "examples"] {
        if root.join(extra).join("Cargo.toml").is_file() {
            out.push(format!("{extra}/Cargo.toml"));
        }
    }
    Ok(out)
}

/// Every `.rs` file under `crates/`, `tests/` and `examples/`, sorted,
/// repo-relative with forward slashes. `target/` and rule-fixture
/// trees (`fixtures/`, which hold deliberately-violating code for the
/// lint's own self-tests) are never entered.
fn rust_sources(root: &Path) -> io::Result<Vec<String>> {
    let mut out = Vec::new();
    for top in ["crates", "tests", "examples"] {
        let dir = root.join(top);
        if dir.is_dir() {
            walk(&dir, root, &mut out)?;
        }
    }
    out.sort();
    Ok(out)
}

fn walk(dir: &Path, root: &Path, out: &mut Vec<String>) -> io::Result<()> {
    let mut entries: Vec<_> = fs::read_dir(dir)?.collect::<Result<_, _>>()?;
    entries.sort_by_key(std::fs::DirEntry::file_name);
    for e in entries {
        let path = e.path();
        let name = e.file_name();
        if path.is_dir() {
            if name != "target" && name != "fixtures" && !name.to_string_lossy().starts_with('.') {
                walk(&path, root, out)?;
            }
        } else if path.extension().is_some_and(|x| x == "rs") {
            if let Ok(rel) = path.strip_prefix(root) {
                out.push(rel.to_string_lossy().replace('\\', "/"));
            }
        }
    }
    Ok(())
}

/// L3/L4 apply to crate library/bin code only: `crates/<name>/src/…`.
/// Integration tests, benches and examples are measurement harnesses,
/// not result paths.
fn in_library_tree(rel: &str) -> bool {
    let mut parts = rel.split('/');
    parts.next() == Some("crates") && {
        let _crate_name = parts.next();
        parts.next() == Some("src")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn library_tree_classification() {
        assert!(in_library_tree("crates/packet/src/dns.rs"));
        assert!(in_library_tree("crates/bench/src/bin/repro.rs"));
        assert!(!in_library_tree("crates/packet/tests/garbage.rs"));
        assert!(!in_library_tree("crates/bench/tests/cli.rs"));
        assert!(!in_library_tree("tests/it_end_to_end.rs"));
        assert!(!in_library_tree("examples/quickstart.rs"));
    }
}
