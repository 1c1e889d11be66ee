//! Tier-1 gate: `cargo test` fails if the workspace violates the
//! lucent-lint rules (hermeticity, layering, determinism, panic budget,
//! unsafe hygiene, print hygiene, panic provenance, shard isolation,
//! policy anomaly, policy coverage). Equivalent to running the binary:
//! `cargo run -p lucent-devtools --bin lucent-lint`.
//!
//! Also pins the machine-readable report: `--json` output must be
//! byte-identical across runs and across `--threads` values (CI diffs
//! it against `tests/golden/lint-report.json`), the L7/L8/L11
//! rule fixtures under `crates/devtools/fixtures/` must go red/green
//! exactly as designed, and `--update-baseline` must refuse to raise
//! any generated ceiling.

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
    // Sanity: the scan actually covered the tree, the symbol graph is
    // populated, and the panic-site ratchet stays at or below its one
    // remaining site (seed was 142).
    assert!(report.files_scanned > 60, "only {} files scanned", report.files_scanned);
    assert!(report.functions > 400, "only {} fns indexed", report.functions);
    assert!(report.call_edges > 1000, "only {} call edges", report.call_edges);
    assert!(report.panic_total <= 1, "panic ratchet regressed: {}", report.panic_total);
}

#[test]
fn json_report_is_byte_identical_across_runs_and_thread_counts() {
    let root = workspace_root();
    let serial = run_root_with(root, &Options { threads: 1 }).expect("scan").to_json();
    let again = run_root_with(root, &Options { threads: 1 }).expect("scan").to_json();
    assert_eq!(serial, again, "two serial runs diverged");
    let wide = run_root_with(root, &Options { threads: 4 }).expect("scan").to_json();
    assert_eq!(serial, wide, "threads=1 and threads=4 diverged");
    assert!(serial.contains("\"schema\": \"lucent-lint/5\""));
    assert!(!serial.contains("\"alloc_"), "schema 5 carries no allocation estimates");
    assert!(serial.contains("\"policy_files\""), "schema 5 carries the policy census");
    assert!(serial.contains("\"policy_anomaly\""), "schema 5 carries the policy census");
}

#[test]
fn l7_fixture_goes_red_without_a_reach_baseline() {
    let report = run_root(&fixture("reach-red")).expect("fixture scan");
    let reach: Vec<_> = report
        .violations
        .iter()
        .filter(|v| v.rule.code() == "L7-panic-reach")
        .collect();
    assert_eq!(reach.len(), 1, "{:?}", report.violations);
    assert!(reach[0].msg.contains("run_isp"), "{}", reach[0].msg);
    assert!(reach[0].msg.contains("exp.rs:8"), "{}", reach[0].msg);
}

#[test]
fn l7_fixture_goes_green_with_the_reach_baseline() {
    let report = run_root(&fixture("reach-green")).expect("fixture scan");
    assert!(report.ok(), "{:?}", report.violations);
    assert_eq!(
        report.panic_reach["crates/core/src/experiments/exp.rs::run_isp"],
        vec!["crates/core/src/experiments/exp.rs:9"]
    );
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

/// The scratch tree's one panic site and the entry point reaching it.
const EXP: &str = "crates/core/src/experiments/exp.rs";
const RUN_ISP: &str = "crates/core/src/experiments/exp.rs::run_isp";

/// Build a throwaway workspace under the cargo-managed tmpdir — one
/// experiment entry point reaching one `unwrap` — with a caller-chosen
/// allowlist, for exercising `--update-baseline` (which rewrites the
/// allowlist in place).
fn scratch_workspace(name: &str, allow: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    let experiments = dir.join("crates/core/src/experiments");
    std::fs::create_dir_all(&experiments).expect("mkdir");
    std::fs::write(dir.join("Cargo.toml"), "[workspace]\nmembers = [\"crates/core\"]\n")
        .expect("write");
    std::fs::write(
        dir.join("crates/core/Cargo.toml"),
        "[package]\nname = \"fixture-core\"\nversion = \"0.0.0\"\nedition = \"2021\"\n",
    )
    .expect("write");
    std::fs::write(
        experiments.join("exp.rs"),
        "pub fn run_isp(sample: Option<u32>) -> u32 {\n    helper(sample)\n}\n\n\
         fn helper(sample: Option<u32>) -> u32 {\n    sample.unwrap()\n}\n",
    )
    .expect("write");
    std::fs::write(dir.join("lint-allow.toml"), allow).expect("write");
    dir
}

#[test]
fn update_baseline_refuses_to_raise_a_generated_ceiling() {
    let allow = format!("[panic_sites]\n\"{EXP}\" = 0\n");
    let dir = scratch_workspace("ratchet-raise", &allow);
    let report = lucent_devtools::update_baseline(&dir).expect("update");
    assert!(
        report
            .violations
            .iter()
            .any(|v| v.msg.contains("refusing to raise the [panic_sites] baseline")),
        "{:?}",
        report.violations
    );
    let after = std::fs::read_to_string(dir.join("lint-allow.toml")).expect("read");
    assert_eq!(after, allow, "a refused update must not rewrite the allowlist");
}

#[test]
fn update_baseline_emits_all_generated_tables_in_one_pass() {
    let allow = format!(
        "[shared_state]\nfiles = [\"{EXP}\"]\n\n\
         [panic_sites]\n\"{EXP}\" = 5\n\n\
         [panic_reach]\n\"{RUN_ISP}\" = 4\n"
    );
    let dir = scratch_workspace("ratchet-shrink", &allow);
    let report = lucent_devtools::update_baseline(&dir).expect("update");
    assert!(report.ok(), "{:?}", report.violations);
    let after = std::fs::read_to_string(dir.join("lint-allow.toml")).expect("read");
    // One deterministic pass rewrote every generated table — both panic
    // ceilings ratcheted down to the real count, the policy table is
    // present (empty), and the [shared_state] configuration survived.
    assert!(after.contains(&format!("[panic_sites]\n\"{EXP}\" = 1\n")), "{after}");
    assert!(after.contains(&format!("[panic_reach]\n\"{RUN_ISP}\" = 1\n")), "{after}");
    assert!(after.contains("[policy_anomaly]"), "{after}");
    assert!(after.contains(&format!("files = [\"{EXP}\"]")), "shared_state config lost: {after}");
    assert!(!after.contains("= 5"), "stale ceiling survived: {after}");
    assert!(!after.contains("= 4"), "stale ceiling survived: {after}");
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
    let report = run_root(workspace_root()).expect("lint scan");
    assert!(
        !report.panic_by_file.keys().any(|p| p.contains("fixtures/")),
        "fixture files leaked into the workspace scan"
    );
}
