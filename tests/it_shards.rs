//! Cross-thread-count determinism: every experiment of the suite must
//! produce byte-identical text, JSON results and metrics snapshots at
//! `--threads 1`, `2`, and `4` for the same seed. This is the contract
//! that lets one committed record stand for every thread count: `all`
//! must write `results/tiny`, and every entry must give the same steps
//! alone as inside `all`, at `--threads 1` and `4`. Steps and shard jobs
//! run on clones of a template world, so the clone contract is pinned
//! here too.

use lucent_bench::drive::Driver;
use lucent_bench::{suite, Scale};
use lucent_core::experiments::race;
use lucent_core::lab::Lab;
use lucent_integration::{record_dir, record_mismatches};
use lucent_middlebox::PolicyBox;
use lucent_support::json::to_string_pretty;
use lucent_tcp::{SocketId, TcpHost};
use lucent_topology::{India, IspId};

/// One finished step: its file stem, its text and its result JSON.
type Step = (&'static str, String, Option<String>);

/// Walk the suite entry `name` at tiny scale on `threads` threads:
/// every step, and the run's metrics snapshot afterwards.
fn run_at(name: &str, threads: usize) -> (Vec<Step>, String) {
    let mut drv = Driver::new(Scale::Tiny, threads, None, false).expect("no trace spec to reject");
    let mut steps = Vec::new();
    let entry = suite::entry(name).unwrap_or_else(|| panic!("the suite has no `{name}`"));
    entry.run(&mut drv, |done| {
        steps.push((
            done.file,
            done.text,
            done.value.map(|v| to_string_pretty(&*v)),
        ));
    });
    (steps, drv.telemetry().metrics_snapshot_pretty())
}

/// Assert that `name` runs byte-identically at `--threads 1, 2, 4`,
/// and return its steps at `--threads 1`.
fn assert_thread_invariant(name: &str) -> Vec<Step> {
    let (steps1, metrics1) = run_at(name, 1);
    for (file, _, json) in &steps1 {
        assert!(json.is_some(), "{file}: no result at tiny scale");
    }
    for threads in [2, 4] {
        let (steps, metrics) = run_at(name, threads);
        assert_eq!(steps.len(), steps1.len());
        for (one, many) in steps1.iter().zip(&steps) {
            assert!(
                one == many,
                "{}: differs between --threads 1 and --threads {threads}",
                one.0
            );
        }
        assert!(
            metrics1 == metrics,
            "{name}: metrics differ between --threads 1 and --threads {threads}"
        );
    }
    steps1
}

/// `all`'s steps at `--threads 1`, checked once at `--threads 1, 2, 4`
/// and shared by every test below.
#[allow(clippy::disallowed_types, reason = "the tests share one run of the suite")]
fn all_steps() -> &'static [Step] {
    static ALL: std::sync::OnceLock<Vec<Step>> = std::sync::OnceLock::new();
    ALL.get_or_init(|| assert_thread_invariant("all"))
}

#[test]
fn the_whole_suite_is_byte_identical_across_thread_counts() {
    assert_eq!(all_steps().len(), 16, "`all` runs sixteen experiments");
}

#[test]
fn the_tiny_record_matches_the_run_of_all() {
    let results: Vec<(&str, String)> = all_steps()
        .iter()
        .filter_map(|(file, _, json)| Some((*file, json.clone()?)))
        .collect();
    let report = record_mismatches(&record_dir("tiny"), &results);
    assert!(
        report.is_empty(),
        "results/tiny differs from a fresh run; if the moves are meant, re-record with \
         `repro all --scale tiny --threads 1 --json results/tiny`:\n{report}"
    );
}

/// Every step runs on worlds of its own (DESIGN §10), so an entry runs
/// alone exactly as inside `all`, at any thread count: run `name` alone
/// at `--threads 1` and `4`, hold both to its steps in `all` and their
/// metrics snapshots to each other.
fn assert_alone_matches_all(name: &str) {
    let steps = all_steps();
    let (one, metrics1) = run_at(name, 1);
    let (four, metrics4) = run_at(name, 4);
    assert!(!one.is_empty() && one.len() == four.len(), "{name}: step counts differ");
    for step in one.iter().chain(&four) {
        assert!(steps.contains(step), "{name}: alone differs from its step in `all`");
    }
    assert!(
        metrics1 == metrics4,
        "{name}: metrics differ between --threads 1 and --threads 4"
    );
}

#[test]
fn race_is_byte_identical_across_thread_counts() {
    assert_alone_matches_all("race");
}

#[test]
fn table1_is_byte_identical_across_thread_counts() {
    assert_alone_matches_all("table1");
}

#[test]
fn fig2_is_byte_identical_across_thread_counts() {
    assert_alone_matches_all("fig2");
}

#[test]
fn triggers_is_byte_identical_across_thread_counts() {
    assert_alone_matches_all("triggers");
}

#[test]
fn evasion_is_byte_identical_across_thread_counts() {
    assert_alone_matches_all("evasion");
}

#[test]
fn anonymity_is_byte_identical_across_thread_counts() {
    assert_alone_matches_all("anonymity");
}

#[test]
fn fig1_alone_matches_all() {
    assert_alone_matches_all("fig1");
}

#[test]
fn threshold_audit_alone_matches_all() {
    assert_alone_matches_all("threshold-audit");
}

#[test]
fn table2_alone_matches_all() {
    assert_alone_matches_all("table2");
}

/// Table 2 then Figure 5.
#[test]
fn fig5_alone_matches_all() {
    assert_alone_matches_all("fig5");
}

#[test]
fn table3_alone_matches_all() {
    assert_alone_matches_all("table3");
}

#[test]
fn fig3_alone_matches_all() {
    assert_alone_matches_all("fig3");
}

#[test]
fn fig4_alone_matches_all() {
    assert_alone_matches_all("fig4");
}

#[test]
fn dns_mechanism_alone_matches_all() {
    assert_alone_matches_all("dns-mechanism");
}

#[test]
fn https_alone_matches_all() {
    assert_alone_matches_all("https");
}

/// One Airtel race on `india` with every event target at `trace`, so
/// the telemetry holds each packet's TCP sequence numbers: the
/// injection count, the row, the drained telemetry and the event count.
fn airtel_race(india: India) -> (u64, String, String, u64) {
    let mut lab = Lab::new(india);
    let obs = lab.india.net.telemetry();
    obs.set_filter_spec("trace").expect("valid filter");
    obs.enable_spans(true);
    let row = race::run_isp(&mut lab, IspId::Airtel, &race::RaceOptions::default());
    let dump = format!("{:?}", obs.drain_dump());
    (
        row.injections,
        to_string_pretty(&row),
        dump,
        lab.india.net.events_processed(),
    )
}

#[test]
fn clone_is_indistinguishable_from_a_fresh_build() {
    let fresh = airtel_race(India::build(Scale::Tiny.config()));
    assert!(fresh.0 > 0, "the race must exercise the wiretap");
    let template = India::build(Scale::Tiny.config());
    let a = airtel_race(template.clone());
    let b = airtel_race(template.clone());
    // `assert!`, not `assert_eq!`: the telemetry runs to megabytes.
    assert!(fresh == a, "a clone ran differently from a fresh build");
    assert!(fresh == b, "a second clone saw the first clone's writes");

    // Neither job wrote through to the template: its clock never ran,
    // its client never opened a socket and its devices never fired.
    assert_eq!(template.net.events_processed(), 0);
    let airtel = &template.isps[&IspId::Airtel];
    let client = template
        .net
        .node_ref::<TcpHost>(airtel.client)
        .expect("client host");
    assert_eq!(
        client.local_addr(SocketId(0)),
        None,
        "the template's client has a socket"
    );
    assert!(!airtel.devices.is_empty());
    for &(_, node, _) in &airtel.devices {
        let device = template
            .net
            .node_ref::<PolicyBox>(node)
            .expect("policy box");
        assert_eq!(device.triggers, 0, "a clone's trigger reached the template");
    }
}
