//! The declarative policy engine at system level.
//!
//! Every censor in the topology is a [`lucent_middlebox::PolicyBox`]
//! interpreting a compiled program; the hardcoded reference middleboxes
//! are gone. What holds the interpreter to the retired behaviour is a
//! pair of *recorded transcripts* (`tests/golden/mb-*.transcript`):
//! canonical renderings of everything a censor device does — state
//! after every scripted packet, the exact bytes it injects on both
//! sides, and its final telemetry — captured while the reference
//! implementations were still alive. This suite proves:
//!
//! 1. the committed tiny goldens (`tests/golden/*-tiny-metrics.json`),
//!    the first three produced before the policy engine existed, still
//!    reproduce byte-for-byte at `--threads 1` and `4`, each run through
//!    its suite entry on a [`Driver`] exactly as `repro` runs it;
//! 2. the committed Airtel and Idea programs replay their recorded
//!    transcripts byte-for-byte — one recording per middlebox family;
//! 3. the planted `wrong-airtel.toml` fixture (one flipped action) must
//!    diverge from the Airtel recording, and its byte-equivalent green
//!    twin must match — proving the suite detects what it claims to;
//! 4. every program in `crates/middlebox/policies/` compiles to its
//!    builtin, and both mechanism families are present;
//! 5. the seeded dead-rule fixture (`bad-rule-order.toml`) fails to
//!    compile at the dead rule, and its live rule alone compiles.
//!
//! To re-record after an *intentional* behaviour change, run with
//! `LUCENT_REGEN_TRANSCRIPTS=1` and commit the diff.

use std::path::{Path, PathBuf};

use lucent_bench::drive::Driver;
use lucent_bench::{suite, Scale};
use lucent_check::diffmb::{airtel_spec, canned_script, idea_spec, render_transcript, run_diff, MbSpec};
use lucent_middlebox::compile::{builtin, builtin_names, compile};
use lucent_middlebox::policy::Family;

/// Every committed tiny metrics golden: the suite entry that produces
/// it and the `--trace` spec it was recorded with.
const GOLDENS: [(&str, Option<&str>, &str); 5] = [
    ("race", Some("wiretap=debug"), include_str!("golden/race-tiny-metrics.json")),
    ("table1", Some("wiretap=debug"), include_str!("golden/table1-tiny-metrics.json")),
    ("fig2", Some("wiretap=debug"), include_str!("golden/fig2-tiny-metrics.json")),
    ("dns-mechanism", Some("dns=debug"), include_str!("golden/dns-mechanism-tiny-metrics.json")),
    ("ablate-race", None, include_str!("golden/ablate-race-tiny-metrics.json")),
];

#[test]
fn policy_engine_reproduces_the_committed_goldens() {
    for (name, trace, golden) in GOLDENS {
        let entry = suite::entry(name).unwrap_or_else(|| panic!("the suite has no `{name}`"));
        for threads in [1usize, 4] {
            let mut drv = Driver::new(Scale::Tiny, threads, trace, false).expect("valid spec");
            entry.run(&mut drv, |_| {});
            assert_eq!(
                drv.telemetry().metrics_snapshot_pretty(),
                golden,
                "{name} metrics under the policy engine at --threads {threads} \
                 diverged from the committed golden"
            );
        }
    }
}

fn transcript_path(file: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("golden").join(file)
}

/// Read a recorded transcript — or, under `LUCENT_REGEN_TRANSCRIPTS`,
/// re-record it from the named committed program. A regeneration run
/// can never pass as a test: [`regen_mode_always_fails`] goes red
/// whenever the variable is set.
fn recorded_transcript(file: &str, program: &str, spec: &MbSpec) -> String {
    let path = transcript_path(file);
    if std::env::var_os("LUCENT_REGEN_TRANSCRIPTS").is_some() {
        let live =
            render_transcript(builtin(program).unwrap(), spec, &canned_script(spec)).unwrap();
        std::fs::write(&path, &live).unwrap();
        return live;
    }
    std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing recording {}: {e}", path.display()))
}

#[test]
fn regen_mode_always_fails() {
    assert!(
        std::env::var_os("LUCENT_REGEN_TRANSCRIPTS").is_none(),
        "LUCENT_REGEN_TRANSCRIPTS re-recorded tests/golden/mb-*.transcript; \
         inspect the diff, commit it, and rerun without the variable"
    );
}

#[test]
fn the_committed_programs_replay_their_recorded_transcripts() {
    let cases = [
        ("mb-airtel.transcript", "airtel-wm", airtel_spec()),
        ("mb-idea.transcript", "idea-im", idea_spec()),
    ];
    for (file, program, spec) in cases {
        let recorded = recorded_transcript(file, program, &spec);
        run_diff(builtin(program).unwrap(), &spec, &canned_script(&spec), &recorded)
            .unwrap_or_else(|e| panic!("{program} no longer replays {file}: {e}"));
    }
}

#[test]
fn the_planted_wrong_policy_diverges_from_the_recording() {
    let spec = airtel_spec();
    let steps = canned_script(&spec);
    let recorded = recorded_transcript("mb-airtel.transcript", "airtel-wm", &spec);
    let wrong =
        compile(include_str!("../crates/middlebox/policies/fixtures/wrong-airtel.toml")).unwrap();
    let msg = run_diff(wrong, &spec, &steps, &recorded)
        .expect_err("wrong-airtel.toml (one flipped action) must diverge from the recording");
    assert!(msg.contains("diverged"), "the failure names the divergence: {msg}");
    // The green twin is the same program with the action restored:
    // passing proves the red above is the flip's fault, not the rig's.
    let right =
        compile(include_str!("../crates/middlebox/policies/fixtures/right-airtel.toml")).unwrap();
    run_diff(right, &spec, &steps, &recorded).unwrap();
}

#[test]
fn every_committed_isp_policy_compiles_to_its_family() {
    // Every program in the directory, not a hand-kept list: a file the
    // builtins do not know, one that does not compile, or one that no
    // longer compiles to its builtin fails here at its name.
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../crates/middlebox/policies");
    let mut paths: Vec<PathBuf> = std::fs::read_dir(&dir)
        .expect("read the committed policies")
        .map(|e| e.expect("policy dir entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "toml"))
        .collect();
    paths.sort();
    let mut families = Vec::new();
    for path in &paths {
        let stem = path.file_stem().and_then(|s| s.to_str()).expect("utf-8 policy name");
        let text = std::fs::read_to_string(path).expect("read policy");
        let p = compile(&text).unwrap_or_else(|e| panic!("{stem}.toml: {e}"));
        assert_eq!(Ok(&p), builtin(stem).as_ref(), "{stem}.toml is not its builtin");
        let want = if stem.ends_with("-wm") { Family::Wiretap } else { Family::Interceptive };
        assert_eq!(p.family, want, "{stem}");
        families.push(p.family);
    }
    assert_eq!(paths.len(), builtin_names().len() + 1, "the four access ISPs' and TATA's");
    for family in [Family::Wiretap, Family::Interceptive] {
        assert!(families.contains(&family), "no committed {family:?} program");
    }
}

fn workspace_root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR")).parent().expect("workspace root")
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
