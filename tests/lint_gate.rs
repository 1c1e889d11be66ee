//! Tier-1 gate: `cargo test` fails if the workspace violates the
//! lucent-lint rules (hermeticity, layering, determinism, panic budget,
//! unsafe hygiene, print hygiene, shard isolation). Equivalent to
//! running the binary: `cargo run -p lucent-devtools --bin lucent-lint`,
//! which `crates/devtools/tests/lint_cli.rs` runs itself.
//!
//! Also pins the machine-readable report: `--json` output must be
//! byte-identical across runs and to `tests/golden/lint-report.json`,
//! the L4/L8 and allowlist fixtures under `crates/devtools/fixtures/`
//! must go red/green exactly as designed, and a retired allowlist table
//! must be an error. The seeded dead-rule policy fixture the retired L11
//! rule flagged must fail to compile.

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
    assert!(serial.contains("\"schema\": \"lucent-lint/7\""));
    assert!(!serial.contains("\"alloc_"), "schema 7 carries no allocation estimates");
    assert!(!serial.contains("\"call_edges\""), "schema 7 carries no call graph");
    assert!(!serial.contains("\"policy_"), "schema 7 carries no policy census");
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

#[test]
fn a_leftover_policy_anomaly_table_is_an_unknown_section() {
    // The retired L11 analyzer's ceiling table is an error, not a
    // silent empty section: a copy of the member-less `allow-red`
    // workspace whose allowlist holds only that table goes red at it,
    // and at nothing else.
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("retired-policy-anomaly");
    let _ = std::fs::remove_dir_all(&dir);
    copy_tree(&fixture("allow-red"), &dir);
    let allow = "[policy_anomaly]\n\"crates/isp/policies/shadowed.toml\" = 1\n";
    std::fs::write(dir.join("lint-allow.toml"), allow).expect("write");
    let report = run_root(&dir).expect("scan");
    assert_eq!(report.violations.len(), 1, "{:?}", report.violations);
    let v = &report.violations[0];
    assert!(v.msg.contains("unknown section [policy_anomaly]"), "{v}");
    // Filed under L3, the first rule the allowlist configures.
    assert_eq!((v.rule.code(), v.path.as_str(), v.line), ("L3-determinism", "lint-allow.toml", 1));
}

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

#[test]
fn l11_fixture_goes_red_on_a_seeded_dead_rule() {
    // The dead-rule check the retired L11 rule made over policy files is
    // now the policy compiler's own, so the lint no longer reads them:
    // the seeded fixture (a second rule repeating the first one's
    // matcher) fails to compile at the dead rule's `[[rule]]` header, and
    // the same program without that rule compiles.
    let path = workspace_root().join("crates/middlebox/policies/fixtures/bad/bad-rule-order.toml");
    let text = std::fs::read_to_string(path).expect("read fixture");
    let err = lucent_middlebox::compile::compile(&text).expect_err("a dead rule must not compile");
    assert_eq!(err.to_string(), "line 11: rule can never fire: rule #1 already has the same matcher");
    let live: String = text.lines().take(err.line - 1).map(|l| format!("{l}\n")).collect();
    let policy = lucent_middlebox::compile::compile(&live).expect("the live rule alone compiles");
    assert_eq!(policy.rules.len(), 1);
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
