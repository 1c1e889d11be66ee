//! Cross-thread-count determinism: the sharded driver must produce
//! byte-identical JSON results and metrics snapshots at `--threads 1`,
//! `2`, and `4` for the same seed. This is the contract that lets CI
//! diff golden artifacts produced at any thread count against each
//! other. Shard jobs run on clones of a per-worker template world, so
//! the clone contract is pinned here too.

use lucent_bench::drive::Driver;
use lucent_bench::Scale;
use lucent_core::experiments::{evasion, fig2, race, table1};
use lucent_core::lab::Lab;
use lucent_middlebox::PolicyBox;
use lucent_obs::Telemetry;
use lucent_support::json::to_string_pretty;
use lucent_tcp::{SocketId, TcpHost};
use lucent_topology::{India, IspId};

/// Run `f` under a fresh driver + hub at each thread count and return
/// the (result JSON, metrics snapshot) pairs.
fn at_thread_counts<F>(f: F) -> Vec<(String, String)>
where
    F: Fn(&Driver, &Telemetry) -> String,
{
    [1usize, 2, 4]
        .into_iter()
        .map(|threads| {
            let drv = Driver::new(Scale::Tiny, threads, None);
            let hub = Telemetry::new();
            let json = f(&drv, &hub);
            (json, hub.metrics_snapshot_pretty())
        })
        .collect()
}

fn assert_all_identical(runs: &[(String, String)], what: &str) {
    let (json1, metrics1) = &runs[0];
    for (i, (json, metrics)) in runs.iter().enumerate().skip(1) {
        let threads = [1, 2, 4][i];
        assert_eq!(
            json1, json,
            "{what}: JSON differs between --threads 1 and --threads {threads}"
        );
        assert_eq!(
            metrics1, metrics,
            "{what}: metrics snapshot differs between --threads 1 and --threads {threads}"
        );
    }
    assert!(!json1.is_empty() && !metrics1.is_empty(), "{what}: empty artifacts");
}

#[test]
fn race_is_byte_identical_across_thread_counts() {
    let runs = at_thread_counts(|drv, hub| {
        to_string_pretty(&drv.race(hub, &race::RaceOptions::default()))
    });
    assert_all_identical(&runs, "race");
}

#[test]
fn table1_is_byte_identical_across_thread_counts() {
    let runs = at_thread_counts(|drv, hub| {
        to_string_pretty(&drv.table1(hub, &table1::Table1Options::default()))
    });
    assert_all_identical(&runs, "table1");
}

#[test]
fn fig2_is_byte_identical_across_thread_counts() {
    let runs = at_thread_counts(|drv, hub| {
        to_string_pretty(&drv.fig2(hub, &fig2::Fig2Options::default()))
    });
    assert_all_identical(&runs, "fig2");
}

/// The ISPs `repro` characterizes in the triggers and anonymity runs.
const HTTP_CENSORS: [IspId; 4] = [IspId::Airtel, IspId::Idea, IspId::Vodafone, IspId::Jio];

#[test]
fn triggers_is_byte_identical_across_thread_counts() {
    let runs = at_thread_counts(|drv, hub| to_string_pretty(&drv.triggers(hub, &HTTP_CENSORS)));
    assert_all_identical(&runs, "triggers");
}

#[test]
fn evasion_is_byte_identical_across_thread_counts() {
    let runs = at_thread_counts(|drv, hub| {
        to_string_pretty(&drv.evasion(hub, &evasion::EvasionOptions::default()))
    });
    assert_all_identical(&runs, "evasion");
}

#[test]
fn anonymity_is_byte_identical_across_thread_counts() {
    let runs =
        at_thread_counts(|drv, hub| to_string_pretty(&drv.anonymity(hub, &HTTP_CENSORS, 30)));
    assert_all_identical(&runs, "anonymity");
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
    (row.injections, to_string_pretty(&row), dump, lab.india.net.events_processed())
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
    let client = template.net.node_ref::<TcpHost>(airtel.client).expect("client host");
    assert_eq!(client.local_addr(SocketId(0)), None, "the template's client has a socket");
    assert!(!airtel.devices.is_empty());
    for &(_, node, _) in &airtel.devices {
        let device = template.net.node_ref::<PolicyBox>(node).expect("policy box");
        assert_eq!(device.triggers, 0, "a clone's trigger reached the template");
    }
}
