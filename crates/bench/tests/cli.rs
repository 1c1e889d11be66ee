//! CLI contract tests for the `repro` binary: flag validation exits 2
//! with usage, a flag is never read as another flag's value, `--help`
//! exits 0 listing exactly the suite's experiments, `--json` creates its
//! output directory (nested paths included) before writing result files,
//! an output that cannot be written exits 1, the closing line's totals
//! count every world of the run at any thread count, span drops are
//! reported like event drops, and the profile and `dns-mechanism`'s
//! outputs match their committed goldens at `--threads 1` and `4`.

use std::path::{Path, PathBuf};
use std::process::Command;

use lucent_bench::suite;
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
    assert_eq!(experiments_listed(&stderr), suite_names(), "{stderr}");
    assert!(out.stdout.is_empty(), "nothing may run: {}", String::from_utf8_lossy(&out.stdout));
}

/// The experiment names on the usage text's `EXPERIMENT:` line.
fn experiments_listed(usage: &str) -> Vec<String> {
    let line = usage.lines().find_map(|l| l.strip_prefix("EXPERIMENT: ")).unwrap_or_default();
    line.split(" | ").map(str::to_string).collect()
}

fn suite_names() -> Vec<String> {
    suite::SUITE.iter().map(|e| e.name.to_string()).collect()
}

#[test]
fn help_lists_exactly_the_suites_experiments() {
    let out = repro().arg("--help").output().expect("spawn repro");
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(experiments_listed(&stdout), suite_names(), "{stdout}");
}

#[test]
fn json_without_a_directory_exits_2_and_writes_nothing() {
    let root = scratch("json-bare");
    std::fs::create_dir_all(&root).expect("scratch dir");
    let out = repro()
        .args(["fig1", "--scale", "tiny", "--json"])
        .current_dir(&root)
        .output()
        .expect("spawn repro");
    assert_eq!(out.status.code(), Some(2), "a trailing --json must not default to the cwd");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("--json needs a directory"), "{stderr}");
    assert!(out.stdout.is_empty(), "nothing may run: {}", String::from_utf8_lossy(&out.stdout));
    let files = std::fs::read_dir(&root).expect("scratch dir").count();
    assert_eq!(files, 0, "repro wrote into the working directory");
    let _ = std::fs::remove_dir_all(root);
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

/// The committed golden `file` under the workspace's `tests/golden/`.
fn golden(file: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/golden").join(file);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

#[test]
fn profile_needs_a_path_and_writes_only_the_deterministic_profile() {
    let out = repro().args(["race", "--scale", "tiny", "--profile"]).output().expect("spawn");
    assert_eq!(out.status.code(), Some(2), "--profile without a path must exit 2");

    let want = golden("race-tiny-profile.json");
    let root = scratch("profile");
    std::fs::create_dir_all(&root).expect("scratch dir");
    for threads in ["1", "4"] {
        let dir = root.join(format!("prof-t{threads}"));
        let path = dir.join("profile.json");
        let out = repro()
            .args(["race", "--scale", "tiny", "--threads", threads, "--profile"])
            .arg(&path)
            .current_dir(&root)
            .output()
            .expect("spawn repro");
        assert_eq!(out.status.code(), Some(0), "{}", String::from_utf8_lossy(&out.stderr));
        let text = std::fs::read_to_string(&path).expect("profile written");
        assert!(
            text == want,
            "the profile at --threads {threads} differs from tests/golden/race-tiny-profile.json:\n{text}"
        );
        let files: Vec<_> = std::fs::read_dir(&dir)
            .expect("profile dir")
            .map(|e| e.expect("dir entry").file_name().into_string().expect("utf-8 name"))
            .collect();
        assert_eq!(files, ["profile.json"], "the profile is the only file written");
    }
    let _ = std::fs::remove_dir_all(root);
}

#[test]
fn dns_mechanism_reproduces_its_goldens_at_any_thread_count() {
    let root = scratch("dns-mechanism");
    for threads in ["1", "4"] {
        let dir = root.join(format!("t{threads}"));
        let out = repro()
            .args(["dns-mechanism", "--scale", "tiny", "--threads", threads])
            .args(["--trace", "dns=debug", "--json"])
            .arg(&dir)
            .arg("--metrics-out")
            .arg(dir.join("metrics.json"))
            .output()
            .expect("spawn repro");
        assert_eq!(out.status.code(), Some(0), "{}", String::from_utf8_lossy(&out.stderr));
        for (written, committed) in [
            ("trace-events.jsonl", "dns-mechanism-tiny-events.jsonl"),
            ("dns_mechanism.json", "dns_mechanism-tiny.json"),
            ("metrics.json", "dns-mechanism-tiny-metrics.json"),
        ] {
            let text = std::fs::read_to_string(dir.join(written)).expect("output written");
            // `assert!`, not `assert_eq!`: the event log runs long.
            assert!(
                text == golden(committed),
                "{written} at --threads {threads} differs from tests/golden/{committed}"
            );
        }
    }
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

#[test]
fn ablate_race_reports_the_telemetry_of_its_own_worlds() {
    let root = scratch("ablate-race");
    std::fs::create_dir_all(&root).expect("scratch dir");
    let path = root.join("metrics.json");
    let out = repro()
        .args(["ablate-race", "--scale", "tiny", "--threads", "1", "--metrics-out"])
        .arg(&path)
        .output()
        .expect("spawn repro");
    assert_eq!(out.status.code(), Some(0), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    let events: u64 = totals(&stdout)
        .split(" simulator events")
        .next()
        .and_then(|n| n.parse().ok())
        .unwrap_or_else(|| panic!("no event count printed:\n{stdout}"));
    assert!(events > 0, "the ablation's worlds ran no events:\n{stdout}");
    let snap = Json::parse(&std::fs::read_to_string(&path).expect("snapshot written"))
        .expect("snapshot is JSON");
    let forwarded = snap.get("counters").and_then(|c| c.get("netsim.router.forwarded"));
    assert!(
        matches!(forwarded, Some(Json::Obj(family)) if !family.is_empty()),
        "no router hops in the snapshot: {snap:?}"
    );
    let _ = std::fs::remove_dir_all(root);
}

/// The closing line's run totals, after its wall seconds: `N simulator
/// events, virtual time T`.
fn totals(stdout: &str) -> String {
    stdout
        .lines()
        .find_map(|l| l.strip_prefix("done in ")?.split(" wall, ").nth(1))
        .unwrap_or_else(|| panic!("no closing line:\n{stdout}"))
        .to_string()
}

#[test]
fn the_closing_line_sums_every_worlds_clock_at_any_thread_count() {
    let run = |threads: &str| {
        let out = repro()
            .args(["race", "--scale", "tiny", "--threads", threads])
            .output()
            .expect("spawn repro");
        assert_eq!(out.status.code(), Some(0), "{}", String::from_utf8_lossy(&out.stderr));
        totals(&String::from_utf8_lossy(&out.stdout))
    };
    let one = run("1");
    let seconds: f64 = one
        .split("virtual time ")
        .nth(1)
        .and_then(|t| t.strip_suffix('s')?.parse().ok())
        .unwrap_or_else(|| panic!("no virtual time in {one:?}"));
    // `race` runs only on per-ISP shards; the hub's clock never moves.
    assert!(seconds > 0.0, "the shards' clocks are missing from {one:?}");
    assert_eq!(one, run("4"), "the run's totals depend on the thread count");
}

#[test]
fn a_bad_trace_spec_exits_2() {
    let out = repro()
        .args(["world", "--scale", "tiny", "--trace", "wiretap=loud"])
        .output()
        .expect("spawn repro");
    assert_eq!(out.status.code(), Some(2), "an invalid --trace spec must exit 2");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("bad --trace spec \"wiretap=loud\""), "{stderr}");
}

#[test]
fn span_drops_are_reported_like_event_drops() {
    let root = scratch("span-drops");
    let out = repro()
        .args(["table2", "--scale", "tiny", "--trace", "wiretap=debug", "--json"])
        .arg(&root)
        .arg("--metrics-out")
        .arg(root.join("metrics.json"))
        .output()
        .expect("spawn repro");
    assert_eq!(out.status.code(), Some(0), "{}", String::from_utf8_lossy(&out.stderr));
    let snap = Json::parse(&std::fs::read_to_string(root.join("metrics.json")).expect("snapshot"))
        .expect("snapshot is JSON");
    let dropped = snap
        .get("ring")
        .and_then(|r| r.get("spans_dropped"))
        .and_then(Json::as_i64)
        .expect("ring.spans_dropped");
    assert!(dropped > 0, "table2 overflows the span ring at tiny scale");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let trace_line = stdout.lines().find(|l| l.starts_with("trace: ")).unwrap_or_default();
    assert!(trace_line.contains(&format!("span(s) ({dropped} dropped)")), "{stdout}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains(&format!("warn: {dropped} telemetry span(s) dropped")), "{stderr}");
    let _ = std::fs::remove_dir_all(root);
}
