//! The `fuzz-smoke` command line: bad input exits 2 with a one-line
//! reason before any campaign runs.

use std::process::{Command, Output};

fn fuzz_smoke(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_fuzz-smoke")).args(args).output().expect("run fuzz-smoke")
}

fn assert_usage_error(out: &Output, msg: &str) {
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "stderr: {stderr}");
    assert!(stderr.starts_with(msg), "stderr: {stderr}");
    assert!(out.stdout.is_empty(), "no campaign may run: {}", String::from_utf8_lossy(&out.stdout));
}

#[test]
fn case_counts_outside_1_to_u32_max_exit_2() {
    // 2^32 + 1 must not wrap to a 1-case campaign; zero runs nothing.
    for n in ["4294967297", "0"] {
        let out = fuzz_smoke(&["--cases", n]);
        assert_usage_error(&out, &format!("--cases needs an integer from 1 to 4294967295, got {n}\n"));
    }
}

#[test]
fn help_lists_exactly_the_three_flags() {
    // The synopsis lists `--cases` and `--seed`; `--help` is the third.
    // Every campaign runs the simulation invariants: there is no flag to
    // skip them.
    let out = fuzz_smoke(&["--help"]);
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8_lossy(&out.stdout);
    let synopsis = stdout.lines().next().unwrap_or_default();
    let flags: Vec<&str> = synopsis.split(['[', ' ']).filter(|w| w.starts_with("--")).collect();
    assert_eq!(flags, ["--cases", "--seed"], "{stdout}");
}
