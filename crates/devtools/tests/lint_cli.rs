//! The `lucent-lint` binary's exit contract: a clean workspace exits 0,
//! and a seeded violation exits non-zero naming the offending line. The
//! rule logic itself is pinned through `run_root` by the workspace's
//! `tests/lint_gate.rs`; this runs the shipped binary end to end.

use std::path::Path;
use std::process::{Command, Output};

fn lint(root: &Path) -> Output {
    Command::new(env!("CARGO_BIN_EXE_lucent-lint"))
        .arg("--root")
        .arg(root)
        .output()
        .expect("spawn lucent-lint")
}

fn manifest_dir() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

#[test]
fn the_workspace_is_clean_and_a_seeded_panic_site_is_not() {
    let workspace = manifest_dir().join("../..");
    let out = lint(&workspace);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(0), "{stdout}{}", String::from_utf8_lossy(&out.stderr));
    assert!(stdout.starts_with("lucent-lint: clean"), "{stdout}");

    let out = lint(&manifest_dir().join("fixtures/panic-red"));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(!out.status.success(), "the seeded unwrap must fail the gate: {stdout}");
    assert!(stdout.contains("L4-panic-budget: crates/app/src/lib.rs:4:"), "{stdout}");
}
