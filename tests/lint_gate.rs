//! Tier-1 gate: `cargo test` fails if the workspace violates the
//! lucent-lint rules (hermeticity, layering, determinism, panic budget,
//! unsafe hygiene, print hygiene, shard isolation, policy anomaly,
//! policy coverage). Equivalent to running the binary:
//! `cargo run -p lucent-devtools --bin lucent-lint`.
//!
//! Also pins the machine-readable report: `--json` output must be
//! byte-identical across runs and to `tests/golden/lint-report.json`,
//! the L4/L8/L11 and
//! allowlist fixtures under `crates/devtools/fixtures/` must go
//! red/green exactly as designed, and a retired allowlist table must be
//! an error.

use std::path::{Path, PathBuf};

use lucent_devtools::run_root;

fn workspace_root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR")).parent().expect("workspace root")
}

fn fixture(name: &str) -> PathBuf {
    workspace_root().join("crates/devtools/fixtures").join(name)
}

#[test]
fn workspace_passes_the_lint_gate() {
    let report = run_root(workspace_root()).expect("lint scan");
    for v in &report.violations {
        eprintln!("{v}");
    }
    assert!(report.ok(), "{} lint violation(s) — see stderr", report.violations.len());
    // Sanity: the scan actually covered the tree, and L4 holds at zero
    // panic sites (seed was 142).
    assert!(report.files_scanned > 60, "only {} files scanned", report.files_scanned);
    assert_eq!(report.panic_total, 0, "panic sites: {:?}", report.panic_by_file);
}

#[test]
fn json_report_is_byte_identical_across_runs() {
    let root = workspace_root();
    let serial = run_root(root).expect("scan").to_json();
    let again = run_root(root).expect("scan").to_json();
    assert_eq!(serial, again, "two runs diverged");
    assert_eq!(serial, include_str!("golden/lint-report.json"), "the report left its golden");
    assert!(serial.contains("\"schema\": \"lucent-lint/6\""));
    assert!(!serial.contains("\"alloc_"), "schema 6 carries no allocation estimates");
    assert!(!serial.contains("\"call_edges\""), "schema 6 carries no call graph");
    assert!(serial.contains("\"policy_files\""), "schema 6 carries the policy census");
    assert!(serial.contains("\"policy_anomaly\""), "schema 6 carries the policy census");
}

#[test]
fn l4_fixture_goes_red_on_one_unallowlisted_unwrap() {
    let report = run_root(&fixture("panic-red")).expect("fixture scan");
    // L4 alone turns the gate red, once, at the site's line; the
    // `unwrap` in the fixture's test module is not counted.
    assert_eq!(report.violations.len(), 1, "{:?}", report.violations);
    let v = &report.violations[0];
    assert_eq!(v.rule.code(), "L4-panic-budget", "{v}");
    assert_eq!((v.path.as_str(), v.line), ("crates/app/src/lib.rs", 4), "{v}");
    assert_eq!(report.panic_total, 1);
}

#[test]
fn l11_fixture_goes_red_on_a_seeded_dead_rule() {
    let report = run_root(&fixture("policy-red")).expect("fixture scan");
    let l11: Vec<_> = report
        .violations
        .iter()
        .filter(|v| v.rule.code() == "L11-policy-anomaly")
        .collect();
    assert_eq!(l11.len(), 1, "{:?}", report.violations);
    assert!(l11[0].msg.contains("dead rule: fully shadowed by rule #1"), "{}", l11[0].msg);
    assert!(
        format!("{}", l11[0]).contains("shadowed.toml:19"),
        "finding must pin the shadowed [[rule]] header line: {}",
        l11[0]
    );
    // Both families are present, so nothing else goes red: the single
    // violation above is the whole report.
    assert_eq!(report.violations.len(), 1, "{:?}", report.violations);
    assert_eq!(report.policy_files, 2);
}

#[test]
fn l11_fixture_goes_green_without_the_dead_rule() {
    let report = run_root(&fixture("policy-green")).expect("fixture scan");
    assert!(report.ok(), "{:?}", report.violations);
    assert_eq!(report.policy_files, 2);
    assert!(report.policy_anomaly.is_empty(), "{:?}", report.policy_anomaly);
}

#[test]
fn l8_fixture_goes_red_on_static_mut_and_unallowlisted_statics() {
    let report = run_root(&fixture("shared-red")).expect("fixture scan");
    let shared: Vec<_> = report
        .violations
        .iter()
        .filter(|v| v.rule.code() == "L8-shared-state")
        .collect();
    assert_eq!(shared.len(), 2, "{:?}", report.violations);
    assert!(shared.iter().any(|v| v.msg.contains("static mut")), "{shared:?}");
    assert!(shared.iter().any(|v| v.msg.contains("Mutex")), "{shared:?}");
}

#[test]
fn l8_fixture_goes_green_when_allowlisted() {
    let report = run_root(&fixture("shared-green")).expect("fixture scan");
    assert!(report.ok(), "{:?}", report.violations);
}

/// The `policy-red` fixture's policy file with one dead rule.
const SHADOWED: &str = "crates/isp/policies/shadowed.toml";

/// Copy `src` into `dst`, recursively.
fn copy_tree(src: &Path, dst: &Path) {
    std::fs::create_dir_all(dst).expect("mkdir");
    for e in std::fs::read_dir(src).expect("read fixture dir") {
        let e = e.expect("dir entry");
        let to = dst.join(e.file_name());
        if e.path().is_dir() {
            copy_tree(&e.path(), &to);
        } else {
            std::fs::copy(e.path(), &to).expect("copy");
        }
    }
}

/// A throwaway copy of the `policy-red` workspace — one anomaly in
/// `shadowed.toml` — under the cargo-managed tmpdir, with a
/// caller-chosen allowlist.
fn scratch_workspace(name: &str, allow: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = std::fs::remove_dir_all(&dir);
    copy_tree(&fixture("policy-red"), &dir);
    std::fs::write(dir.join("lint-allow.toml"), allow).expect("write");
    dir
}

#[test]
fn a_leftover_policy_anomaly_table_is_an_unknown_section() {
    // L11 has no allowlist. A leftover ceiling table is an error, not a
    // silent empty section, and it excuses nothing: the anomaly it
    // names still surfaces at its rule line.
    let allow = format!("[policy_anomaly]\n\"{SHADOWED}\" = 1\n");
    let dir = scratch_workspace("retired-policy-anomaly", &allow);
    let report = run_root(&dir).expect("scan");
    let v = report
        .violations
        .iter()
        .find(|v| v.msg.contains("unknown section [policy_anomaly]"))
        .unwrap_or_else(|| panic!("{:?}", report.violations));
    // Filed under L3, a rule the allowlist configures (L11 has none).
    assert_eq!((v.rule.code(), v.path.as_str(), v.line), ("L3-determinism", "lint-allow.toml", 1));
    let excused = !report.violations.iter().any(|v| v.rule.code() == "L11-policy-anomaly");
    assert!(!excused, "the anomaly in {SHADOWED} must still surface: {:?}", report.violations);
}

#[test]
fn allowlist_fixture_goes_red_on_a_repeated_key() {
    // A repeated key is an error at its line, not a silent
    // last-one-wins overwrite.
    let report = run_root(&fixture("allow-red")).expect("fixture scan");
    assert_eq!(report.violations.len(), 1, "{:?}", report.violations);
    assert_eq!(
        report.violations[0].to_string(),
        "L3-determinism: lint-allow.toml:5: unparseable allowlist: duplicate key `files`"
    );
}

#[test]
fn the_real_gate_never_scans_fixture_trees() {
    // The fixtures seed deliberate violations; if the workspace walk
    // ever descends into them the main gate test above would go red in
    // a confusing place. Pin the exclusion directly.
    // `panic-red`'s `unwrap` would surface here as an L4 violation.
    let report = run_root(workspace_root()).expect("lint scan");
    let leaked: Vec<_> = report.violations.iter().filter(|v| v.path.contains("fixtures/")).collect();
    assert!(leaked.is_empty(), "fixture files leaked into the workspace scan: {leaked:?}");
}
