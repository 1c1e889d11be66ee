//! CLI contract tests for the `repro` binary: flag validation exits 2
//! with usage, a flag is never read as another flag's value, `--help`
//! exits 0, `--json` creates its output directory (nested paths
//! included) before writing result files, and an output that cannot be
//! written exits 1.

use std::path::PathBuf;
use std::process::Command;

use lucent_support::Json;

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
fn a_flag_is_never_taken_as_the_previous_flags_value() {
    for flag in ["--json", "--trace", "--metrics-out", "--profile", "--scale"] {
        let out = repro().args(["fig1", flag, "--threads", "1"]).output().expect("spawn repro");
        assert_eq!(out.status.code(), Some(2), "{flag} swallowed the next flag");
        let stderr = String::from_utf8_lossy(&out.stderr);
        let want = format!("{flag} needs a value, got flag \"--threads\"");
        assert!(stderr.contains(&want), "{stderr}");
        assert!(out.stdout.is_empty(), "nothing may run: {}", String::from_utf8_lossy(&out.stdout));
    }
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
fn unwritable_json_dir_exits_1() {
    let root = scratch("json-file");
    std::fs::create_dir_all(&root).expect("scratch dir");
    let file = root.join("results");
    std::fs::write(&file, "").expect("plain file");
    let out = repro()
        .args(["fig1", "--scale", "tiny", "--json"])
        .arg(&file)
        .output()
        .expect("spawn repro");
    assert_eq!(out.status.code(), Some(1), "a --json DIR that is a file must fail the run");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("cannot write"), "{stderr}");
    let _ = std::fs::remove_dir_all(root);
}

#[test]
fn profile_needs_a_path_and_writes_only_the_deterministic_profile() {
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
    let Ok(Json::Obj(top)) = Json::parse(&text) else { panic!("profile is not a JSON object: {text}") };
    let keys: Vec<&str> = top.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(keys, ["deterministic", "schema"], "{text}");
    assert!(text.contains("\"schema\": \"lucent-prof/1\""), "{text}");
    let files: Vec<_> = std::fs::read_dir(root.join("prof"))
        .expect("profile dir")
        .map(|e| e.expect("dir entry").file_name().into_string().expect("utf-8 name"))
        .collect();
    assert_eq!(files, ["profile.json"], "the profile is the only file written");
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
