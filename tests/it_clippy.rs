//! The static gate. Tier-1 runs exactly CI's clippy command on the
//! workspace, `cargo clippy --offline --workspace --all-targets -- -D
//! warnings`, so a determinism, shard-isolation, panic, print or
//! `unsafe` finding fails `cargo test` as it fails CI. The rules live in
//! `clippy.toml` and the root manifest's `[workspace.lints]` tables; a
//! sanctioned use carries an item-level `#[expect(lint, reason = "…")]`.
//!
//! The negative control lints `tests/fixtures/clippy-red.rs`, one
//! violation per rule family, as a crate of its own under a copy of that
//! same configuration; it must fail and name every lint.
//!
//! A missing clippy fails both tests rather than skipping them.

use std::path::Path;
use std::process::{Command, Output};

use lucent_support::toml::{self, Value};

fn workspace_root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR")).parent().expect("workspace root")
}

/// `cargo clippy --offline ARGS -- -D warnings` in `dir`, building into
/// a target directory of its own; stdout and stderr as one text.
fn clippy(dir: &Path, target: &str, args: &[&str]) -> (Output, String) {
    let cargo = || {
        let mut c = Command::new(env!("CARGO"));
        c.current_dir(dir).env("CARGO_TARGET_DIR", Path::new(env!("CARGO_TARGET_TMPDIR")).join(target));
        c
    };
    let version = cargo().args(["clippy", "--version"]).output().expect("spawn cargo");
    assert!(
        version.status.success(),
        "clippy is not installed; run `rustup component add clippy`\n{}",
        String::from_utf8_lossy(&version.stderr)
    );
    let out = cargo().args(["clippy", "--offline"]).args(args).args(["--", "-D", "warnings"]).output();
    let out = out.expect("spawn cargo clippy");
    let text = format!("{}{}", String::from_utf8_lossy(&out.stdout), String::from_utf8_lossy(&out.stderr));
    (out, text)
}

#[test]
fn the_workspace_passes_clippy() {
    let (out, text) = clippy(workspace_root(), "clippy-gate", &["--workspace", "--all-targets"]);
    assert!(out.status.success(), "clippy found something:\n{text}");
}

/// The root manifest's `[workspace.lints.*]` tables as a package's
/// `[lints.*]` tables.
fn lint_tables() -> String {
    let text = std::fs::read_to_string(workspace_root().join("Cargo.toml")).expect("read Cargo.toml");
    let mut out = String::new();
    for section in toml::parse(&text).expect("parse Cargo.toml") {
        let Some(tool) = section.name.strip_prefix("workspace.lints.") else { continue };
        out.push_str(&format!("\n[lints.{tool}]\n"));
        for e in &section.entries {
            let Value::Str(level) = &e.value else { panic!("lint `{}` is not a level", e.key) };
            out.push_str(&format!("{} = \"{level}\"\n", e.key));
        }
    }
    out
}

/// A fresh crate at `dir` around the fixture, under the workspace's
/// `clippy.toml` and lint tables.
fn red_crate(dir: &Path) {
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir.join("src")).expect("mkdir");
    let root = workspace_root();
    std::fs::copy(root.join("clippy.toml"), dir.join("clippy.toml")).expect("copy clippy.toml");
    std::fs::copy(root.join("tests/fixtures/clippy-red.rs"), dir.join("src/lib.rs")).expect("copy fixture");
    let manifest = format!(
        "[package]\nname = \"clippy-red\"\nversion = \"0.0.0\"\nedition = \"2021\"\npublish = false\n\n\
         [workspace]\n\n[dependencies]\nlucent-support = {{ path = \"{}\" }}\n{}",
        root.join("crates/support").display(),
        lint_tables()
    );
    std::fs::write(dir.join("Cargo.toml"), manifest).expect("write manifest");
}

#[test]
fn the_fixture_fails_clippy_naming_every_lint() {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("clippy-red");
    red_crate(&dir);
    let (out, text) = clippy(&dir, "clippy-red-target", &[]);
    assert!(!out.status.success(), "the fixture passed clippy:\n{text}");
    for finding in [
        "use of a disallowed type `std::collections::HashMap`",
        "use of a disallowed type `std::time::Instant`",
        "use of a disallowed type `std::thread::LocalKey`",
        "use of a disallowed method `std::thread::spawn`",
        "use of a disallowed method `lucent_support::rng::Rng64::seed_from_u64`",
        "#unwrap_used",
        "#print_stdout",
        "`-F unsafe-code`",
    ] {
        assert!(text.contains(finding), "clippy did not report {finding:?}:\n{text}");
    }
}
