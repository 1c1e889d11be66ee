//! `lucent-devtools`: in-tree static analysis for the lucent workspace.
//!
//! The `lucent-lint` binary (and the `run_root` library entry point the
//! tier-1 gate calls) enforces nine rule families, L1–L6, L8, L11 and
//! L12. The numbers L7 (panic reachability, which L4 at zero subsumes)
//! and L9/L10 (static allocation estimates, replaced by `benchmark/`'s
//! measured counts) are retired:
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
//! - **L11 policy anomalies** — committed censor-policy programs
//!   (`crates/*/policies/*.toml`) are compiled to the middlebox rule IR
//!   and symbolically analyzed ([`policycheck`]): dead rules,
//!   conflicting overlaps, unreachable `after` gates, and
//!   probability-mass errors are capped per file by the shrink-only
//!   `[policy_anomaly]` baseline.
//! - **L12 policy coverage** — the policy set is cross-checked against
//!   the simulator's ground truth: both mechanism families present,
//!   emitted telemetry labels known, literal host sets resolvable
//!   against the blocklist corpus, every program compilable.
//!
//! The lint's *language frontend* is dependency-free by construction:
//! it ships its own Rust scrubbing lexer ([`lex`]) and a TOML subset
//! parser ([`toml`]), so the gate itself cannot violate L1. The one
//! workspace dependency is `lucent-middlebox`, linked so L11/L12
//! analyze the *compiled* policy IR — the exact programs the
//! interpreter executes — rather than re-parsing policy TOML with a
//! second grammar.
//!
//! The per-file pass runs on the deterministic [`pool`]: files are
//! partitioned round-robin and merged in path order, so the report —
//! including its `--json` form — is byte-identical at any thread count.

#![forbid(unsafe_code)]

pub mod allow;
pub mod lex;
pub mod manifest;
pub mod policycheck;
pub mod pool;
pub mod report;
pub mod source;
pub mod toml;

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use allow::Allow;
use report::{Report, Rule, Violation};
use source::{Lexed, SourceFile};

/// Name of the allowlist file at the workspace root.
pub const ALLOW_FILE: &str = "lint-allow.toml";

/// Gate options.
#[derive(Debug, Clone)]
pub struct Options {
    /// Worker threads for the per-file scan. The output is identical at
    /// any value; >1 only changes wall-clock time.
    pub threads: usize,
}

impl Default for Options {
    fn default() -> Options {
        Options { threads: 1 }
    }
}

/// Run the whole gate against a workspace root with default options.
pub fn run_root(root: &Path) -> io::Result<Report> {
    run_root_with(root, &Options::default())
}

/// Run the whole gate against a workspace root. I/O errors (an
/// unreadable tree) surface as `Err`; rule findings land in the report.
pub fn run_root_with(root: &Path, opts: &Options) -> io::Result<Report> {
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

    // L3, L4, L6 and L8 over library source trees, on the
    // deterministic pool; L5 additionally over test and bench code
    // (unsafe needs a justification wherever it appears).
    let paths = rust_sources(root)?;
    let mut scans = pool::map_indexed(paths.len(), opts.threads, |i| scan_file(root, &paths[i], &allow));
    for s in &mut scans {
        if let Some(e) = s.read_err.take() {
            return Err(e);
        }
        report.files_scanned += 1;
        report.merge(std::mem::take(&mut s.violations));
        if s.panic_sites > 0 {
            report.panic_by_file.insert(s.rel.clone(), s.panic_sites);
        }
        report.panic_total += s.panic_sites;
    }

    // L11/L12: compile and symbolically analyze the committed censor
    // policies. The pass is single-threaded and file-order
    // deterministic, so `opts.threads` cannot perturb the report.
    let policy_paths = policy_sources(root)?;
    report.policy_files = policy_paths.len();
    let policy_out = policycheck::check_policy_files(root, &policy_paths, &allow)?;
    report.merge(policy_out.violations);
    report.warnings.extend(policy_out.warnings);
    report.policy_anomaly = policy_out.anomaly_counts;

    // Baseline hygiene: entries for files that no longer exist are
    // violations — a stale ceiling looks live while guarding nothing.
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
    for path in allow.policy_anomaly.keys() {
        if !root.join(path).is_file() {
            report.violations.push(Violation::file(
                Rule::PolicyAnomaly,
                ALLOW_FILE,
                format!("stale [policy_anomaly] entry for missing file {path} — remove it"),
            ));
        }
    }

    report.violations.sort();
    Ok(report)
}

/// Read the allowlist. A missing file is a warning (every ceiling is
/// zero); an unparseable one is a violation, so neither the gate nor
/// `--update-baseline` proceeds as if it were empty.
fn load_allow(root: &Path, report: &mut Report) -> Allow {
    match fs::read_to_string(root.join(ALLOW_FILE)) {
        Ok(text) => Allow::parse(&text).unwrap_or_else(|e| {
            report.violations.push(Violation::file(
                Rule::PanicBudget,
                ALLOW_FILE,
                format!("unparseable allowlist: {e}"),
            ));
            Allow::default()
        }),
        Err(_) => {
            report.warnings.push(format!("{ALLOW_FILE} missing — all ceilings default to zero"));
            Allow::default()
        }
    }
}

/// Everything the per-file pass extracts; merged in path order.
struct FileScan {
    rel: String,
    read_err: Option<io::Error>,
    violations: Vec<Violation>,
    /// Panic sites in non-test library code (each also an L4 violation).
    panic_sites: usize,
}

fn scan_file(root: &Path, rel: &str, allow: &Allow) -> FileScan {
    let mut scan =
        FileScan { rel: rel.to_string(), read_err: None, violations: Vec::new(), panic_sites: 0 };
    let text = match fs::read_to_string(root.join(rel)) {
        Ok(t) => t,
        Err(e) => {
            scan.read_err = Some(e);
            return scan;
        }
    };
    let file = SourceFile { path: rel, text: &text };
    let lexed = Lexed::new(&text);
    if in_library_tree(rel) {
        scan.violations.extend(source::check_determinism(&file, &lexed, allow));
        scan.violations.extend(source::check_print_hygiene(&file, &lexed));
        scan.violations.extend(source::check_shared_state(&file, &lexed, allow));
        let panics = source::check_panic_budget(&file, &lexed);
        scan.panic_sites = panics.len();
        scan.violations.extend(panics);
    }
    scan.violations.extend(source::check_unsafe(&file, &lexed));
    scan
}

/// Rewrite `lint-allow.toml` with current per-policy anomaly counts —
/// `[policy_anomaly]`, the one generated table — in one deterministic
/// sorted pass. Ceilings only ever move down: an attempt to raise a
/// prior ceiling is refused (the prior value is kept and a violation
/// recorded) and nothing is written.
pub fn update_baseline(root: &Path) -> io::Result<Report> {
    let mut report = Report::default();
    let old = load_allow(root, &mut report);
    let policy_paths = policy_sources(root)?;
    report.policy_files = policy_paths.len();
    let counts = policycheck::check_policy_files(root, &policy_paths, &old)?.anomaly_counts;

    let mut new = old.clone();
    new.policy_anomaly.clear();
    for (path, &count) in &counts {
        let ceiling = match old.policy_anomaly.get(path) {
            Some(&prior) if count > prior => {
                report.violations.push(Violation::file(
                    Rule::PolicyAnomaly,
                    path,
                    format!(
                        "refusing to raise the [policy_anomaly] baseline for `{path}` from \
                         {prior} to {count} — shrink the count or edit {ALLOW_FILE} \
                         explicitly in review"
                    ),
                ));
                prior
            }
            _ => count,
        };
        new.policy_anomaly.insert(path.clone(), ceiling);
    }
    report.policy_anomaly = counts;
    if report.ok() {
        fs::write(root.join(ALLOW_FILE), new.to_toml())?;
    }
    Ok(report)
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

fn parse_manifest(root: &Path, rel: &str, report: &mut Report) -> Option<toml::Doc> {
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
            report.violations.push(Violation::file(
                Rule::Hermeticity,
                rel,
                format!("manifest outside the supported TOML subset: {e}"),
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

/// Every committed censor-policy file: `crates/<name>/policies/*.toml`,
/// sorted, repo-relative. Deliberately non-recursive — the `fixtures/`
/// subtree under a policies directory holds malformed and
/// deliberately-anomalous programs for the analyzer's own tests and is
/// never part of the committed set.
fn policy_sources(root: &Path) -> io::Result<Vec<String>> {
    let mut out = Vec::new();
    let crates = root.join("crates");
    if crates.is_dir() {
        let mut entries: Vec<_> = fs::read_dir(&crates)?.collect::<Result<_, _>>()?;
        entries.sort_by_key(std::fs::DirEntry::file_name);
        for e in entries {
            let dir = e.path().join("policies");
            if !dir.is_dir() {
                continue;
            }
            let mut files: Vec<_> = fs::read_dir(&dir)?.collect::<Result<_, _>>()?;
            files.sort_by_key(std::fs::DirEntry::file_name);
            for f in files {
                let path = f.path();
                if path.is_file() && path.extension().is_some_and(|x| x == "toml") {
                    if let Ok(rel) = path.strip_prefix(root) {
                        out.push(rel.to_string_lossy().replace('\\', "/"));
                    }
                }
            }
        }
    }
    out.sort();
    Ok(out)
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
