//! Tier-1 gate: `cargo test` fails if the workspace violates the
//! lucent-lint rules (hermeticity, layering, determinism, panic budget,
//! unsafe hygiene, print hygiene, shard isolation, policy anomaly,
//! policy coverage). Equivalent to running the binary:
//! `cargo run -p lucent-devtools --bin lucent-lint`.
//!
//! Also pins the machine-readable report: `--json` output must be
//! byte-identical across runs and across `--threads` values (CI diffs
//! it against `tests/golden/lint-report.json`), the L4/L8/L11
//! rule fixtures under `crates/devtools/fixtures/` must go red/green
//! exactly as designed, and `--update-baseline` must refuse to raise
//! a generated ceiling.

use std::path::{Path, PathBuf};

use lucent_devtools::{run_root, run_root_with, Options};

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
fn json_report_is_byte_identical_across_runs_and_thread_counts() {
    let root = workspace_root();
    let serial = run_root_with(root, &Options { threads: 1 }).expect("scan").to_json();
    let again = run_root_with(root, &Options { threads: 1 }).expect("scan").to_json();
    assert_eq!(serial, again, "two serial runs diverged");
    let wide = run_root_with(root, &Options { threads: 4 }).expect("scan").to_json();
    assert_eq!(serial, wide, "threads=1 and threads=4 diverged");
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
/// caller-chosen allowlist, for exercising `--update-baseline` (which
/// rewrites the allowlist in place).
fn scratch_workspace(name: &str, allow: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = std::fs::remove_dir_all(&dir);
    copy_tree(&fixture("policy-red"), &dir);
    std::fs::write(dir.join("lint-allow.toml"), allow).expect("write");
    dir
}

#[test]
fn update_baseline_refuses_to_raise_a_generated_ceiling() {
    let allow = format!("[policy_anomaly]\n\"{SHADOWED}\" = 0\n");
    let dir = scratch_workspace("ratchet-raise", &allow);
    let report = lucent_devtools::update_baseline(&dir).expect("update");
    assert!(
        report
            .violations
            .iter()
            .any(|v| v.msg.contains("refusing to raise the [policy_anomaly] baseline")),
        "{:?}",
        report.violations
    );
    let after = std::fs::read_to_string(dir.join("lint-allow.toml")).expect("read");
    assert_eq!(after, allow, "a refused update must not rewrite the allowlist");
}

#[test]
fn update_baseline_leaves_an_allowlist_with_a_retired_table_alone() {
    // A leftover `[panic_sites]` table is an error, not an empty
    // section: the rewrite must not silently drop it.
    let allow = "[panic_sites]\n\"crates/isp/src/lib.rs\" = 1\n";
    let dir = scratch_workspace("ratchet-retired", allow);
    let report = lucent_devtools::update_baseline(&dir).expect("update");
    assert!(
        report.violations.iter().any(|v| v.msg.contains("unknown section [panic_sites]")),
        "{:?}",
        report.violations
    );
    let after = std::fs::read_to_string(dir.join("lint-allow.toml")).expect("read");
    assert_eq!(after, allow, "an unparseable allowlist must not be rewritten");
}

#[test]
fn update_baseline_emits_all_generated_tables_in_one_pass() {
    let allow = format!(
        "[shared_state]\nfiles = [\"crates/isp/src/lib.rs\"]\n\n\
         [policy_anomaly]\n\"{SHADOWED}\" = 5\n"
    );
    let dir = scratch_workspace("ratchet-shrink", &allow);
    let report = lucent_devtools::update_baseline(&dir).expect("update");
    assert!(report.ok(), "{:?}", report.violations);
    let after = std::fs::read_to_string(dir.join("lint-allow.toml")).expect("read");
    // `[policy_anomaly]`, the one generated table, ratcheted down to the
    // real count, and the [shared_state] configuration survived.
    assert!(after.contains(&format!("[policy_anomaly]\n\"{SHADOWED}\" = 1\n")), "{after}");
    assert!(after.contains("files = [\"crates/isp/src/lib.rs\"]"), "shared_state lost: {after}");
    assert!(!after.contains("= 5"), "stale ceiling survived: {after}");
    // Idempotent: a second pass writes the same bytes.
    let report2 = lucent_devtools::update_baseline(&dir).expect("update");
    assert!(report2.ok(), "{:?}", report2.violations);
    let again = std::fs::read_to_string(dir.join("lint-allow.toml")).expect("read");
    assert_eq!(after, again);
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
