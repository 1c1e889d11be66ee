//! The harness self-test: plant a known bug, prove the runner *finds*
//! it, *shrinks* it to the known minimal counterexample, and that the
//! printed seed/tape *replays* the identical case on a second run. This
//! is the negative control for the oracle catalogue — a harness that
//! cannot fail here could not fail on a real defect either.
//!
//! The planted bug: `cap_with(bug, v)` forgets to clamp values above
//! `CAP` when `bug` is true. Its minimal counterexample is exactly
//! `CAP + 1 = 1001` — one tape word, hex `3e9`.

use lucent_check::{parse_tape, replay, run, Config, Source};

/// The cap the planted SUT must never exceed.
const CAP: u64 = 1000;

/// Clamp `v` to [`CAP`] — unless the bug is switched on, in which case
/// values above the cap leak through unchanged.
fn cap_with(bug: bool, v: u64) -> u64 {
    if bug && v > CAP {
        v
    } else {
        v.min(CAP)
    }
}

#[test]
fn the_correct_path_clamps() {
    assert_eq!(cap_with(false, 0), 0);
    assert_eq!(cap_with(false, CAP), CAP);
    assert_eq!(cap_with(false, u64::MAX), CAP);
}

#[test]
fn the_bug_leaks_above_the_cap_only() {
    assert_eq!(cap_with(true, CAP), CAP);
    assert_eq!(cap_with(true, CAP + 1), CAP + 1);
}

/// The buggy property: with the bug forced on, capping must still bound
/// the result — it does not for `v > CAP`.
fn buggy(s: &mut Source) {
    let v = s.any_u64();
    let capped = cap_with(true, v);
    assert!(capped <= CAP, "cap_with let {capped} through");
}

#[test]
fn the_harness_finds_and_shrinks_the_planted_bug() {
    let cfg = Config::cases(64).with_seed(0xBAD_5EED);
    let finding = run(&cfg, buggy).expect("the planted bug must be found");
    // Shrinking must land on the exact boundary counterexample.
    assert_eq!(finding.minimal, vec![CAP + 1], "minimal counterexample is CAP + 1");
    assert_eq!(finding.minimal_hex(), "3e9");
    assert_eq!(finding.minimal_message, format!("cap_with let {} through", CAP + 1));
    // The report must carry the seed and a replayable tape.
    let report = finding.report();
    assert!(report.contains("seed 0x0000000"), "report names the seed: {report}");
    assert!(report.contains("assert_replay(\"3e9\""), "report is replayable: {report}");
}

#[test]
fn the_printed_seed_replays_the_identical_minimal_case() {
    let cfg = Config::cases(64).with_seed(0xBAD_5EED);
    let first = run(&cfg, buggy).expect("must fail");
    let second = run(&cfg, buggy).expect("must fail");
    // Same seed, same config → byte-identical finding, twice.
    assert_eq!(first.report(), second.report());
    // The hex tape from the report round-trips and still fails with the
    // same message — the reproduce-from-a-CI-log loop.
    let tape = parse_tape(&first.minimal_hex()).expect("report tape parses");
    let err = replay(&tape, buggy).expect_err("minimal tape must still fail");
    assert_eq!(err, first.minimal_message);
}

#[test]
fn the_fixed_code_passes_the_same_property() {
    // With the bug off, the identical property holds at every seed the
    // buggy variant failed under — the find was real, not flaky.
    let ok = run(&Config::cases(256).with_seed(0xBAD_5EED), |s| {
        let v = s.any_u64();
        assert!(cap_with(false, v) <= CAP);
    });
    assert!(ok.is_none(), "the fixed cap must hold");
}
