//! CLI contract tests for the `repro` binary: flag validation exits 2
//! with usage, `--help` exits 0, and `--json` creates its output
//! directory (nested paths included) before writing result files.

use std::path::PathBuf;
use std::process::Command;

fn repro() -> Command {
    Command::new(env!("CARGO_BIN_EXE_repro"))
}

/// A per-test scratch directory under the target tree.
fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("lucent-repro-cli-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn unknown_flags_exit_2_with_usage() {
    let out = repro().arg("--frobnicate").output().expect("spawn repro");
    assert_eq!(out.status.code(), Some(2), "unknown flag must exit 2");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown flag"), "{stderr}");
    assert!(stderr.contains("usage:"), "{stderr}");
}

#[test]
fn unknown_experiments_exit_2() {
    let out =
        repro().args(["definitely-not-an-experiment", "--scale", "tiny"]).output().expect("spawn");
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown experiment"), "{stderr}");
}

#[test]
fn zero_threads_is_rejected() {
    let out = repro().args(["--threads", "0"]).output().expect("spawn repro");
    assert_eq!(out.status.code(), Some(2), "--threads 0 must exit 2");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("positive integer"), "{stderr}");
}

#[test]
fn help_exits_0_with_usage() {
    let out = repro().arg("--help").output().expect("spawn repro");
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("repro ["), "{stdout}");
}

#[test]
fn json_dir_is_created_on_demand() {
    // A nested, non-existent directory: emit_json must create the whole
    // chain rather than fail or scatter files.
    let dir = scratch("json").join("deeply").join("nested");
    let out = repro()
        .args(["fig1", "--scale", "tiny", "--json"])
        .arg(&dir)
        .output()
        .expect("spawn repro");
    assert_eq!(out.status.code(), Some(0), "{}", String::from_utf8_lossy(&out.stderr));
    let files: Vec<_> = std::fs::read_dir(&dir)
        .expect("json dir")
        .map(|e| e.expect("dir entry").file_name().into_string().expect("utf-8 name"))
        .collect();
    assert_eq!(files, ["fig1.json"], "only the experiment's result lands in the JSON directory");
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn profile_needs_a_path_and_writes_both_views() {
    let out = repro().args(["race", "--scale", "tiny", "--profile"]).output().expect("spawn");
    assert_eq!(out.status.code(), Some(2), "--profile without a path must exit 2");

    let root = scratch("profile");
    std::fs::create_dir_all(&root).expect("scratch dir");
    let path = root.join("prof").join("profile.json");
    let out = repro()
        .args(["race", "--scale", "tiny", "--threads", "2", "--profile"])
        .arg(&path)
        .current_dir(&root)
        .output()
        .expect("spawn repro");
    assert_eq!(out.status.code(), Some(0), "{}", String::from_utf8_lossy(&out.stderr));
    let text = std::fs::read_to_string(&path).expect("profile written");
    assert!(text.contains("\"schema\": \"lucent-prof/1\""), "{text}");
    assert!(text.contains("\"deterministic\""), "{text}");
    assert!(text.contains("\"wall\""), "{text}");
    assert!(text.contains("\"events_per_sec\""), "{text}");
    let phases = std::fs::read_to_string(path.with_extension("phases.json"))
        .expect("phase view written next to the profile");
    assert!(phases.contains("traceEvents"), "{phases}");
    let _ = std::fs::remove_dir_all(root);
}

#[test]
fn metrics_out_creates_parent_directories() {
    let root = scratch("metrics");
    std::fs::create_dir_all(&root).expect("scratch dir");
    let path = root.join("a").join("b").join("metrics.json");
    let out = repro()
        .args(["world", "--scale", "tiny", "--metrics-out"])
        .arg(&path)
        .output()
        .expect("spawn repro");
    assert_eq!(out.status.code(), Some(0), "{}", String::from_utf8_lossy(&out.stderr));
    assert!(path.is_file(), "metrics snapshot must appear under the new parents");
    let _ = std::fs::remove_dir_all(root);
}
