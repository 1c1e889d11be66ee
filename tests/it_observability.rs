//! Telemetry determinism: the observability layer must neither perturb
//! experiment results nor itself vary between same-seed runs.

use lucent_bench::drive::Driver;
use lucent_bench::{suite, Scale};
use lucent_core::experiments::{mechanism, race};
use lucent_core::lab::Lab;
use lucent_support::ToJson;
use lucent_topology::{India, IndiaConfig, IspId};

fn lab() -> Lab {
    Lab::new(India::build(IndiaConfig::tiny()))
}

fn race_opts() -> race::RaceOptions {
    race::RaceOptions {
        isps: vec![IspId::Airtel, IspId::Idea],
        attempts: 4,
        sites_per_isp: 2,
    }
}

/// A one-thread run whose worlds trace with `spec`, as `repro --trace
/// SPEC` runs them.
fn driver(trace: Option<&str>) -> Driver {
    Driver::new(Scale::Tiny, 1, trace, false).expect("valid spec")
}

/// Run the Figure 4 step on `drv`, as `repro fig4` does; its result
/// JSON.
fn fig4(drv: &mut Driver) -> String {
    let mut results = Vec::new();
    let entry = suite::entry("fig4").expect("the suite has `fig4`");
    entry.run(drv, |done| results.extend(done.value.map(|v| v.to_json().to_string_pretty())));
    results.pop().expect("fig4 path exists")
}

/// Run fig4 on its own world + a small race on shards with full tracing
/// on and hand back the deterministic exporter artifacts.
fn traced_run() -> (String, String, String) {
    let mut drv = driver(Some("trace"));
    fig4(&mut drv);
    drv.race(&race_opts());
    let obs = drv.telemetry();
    (obs.event_log(), obs.metrics_snapshot_pretty(), obs.chrome_trace())
}

#[test]
fn same_seed_runs_produce_byte_identical_telemetry() {
    let (log_a, metrics_a, chrome_a) = traced_run();
    let (log_b, metrics_b, chrome_b) = traced_run();
    assert!(!log_a.is_empty(), "a traced fig4 run must record events");
    assert_eq!(log_a, log_b, "event log must be byte-identical across same-seed runs");
    assert_eq!(metrics_a, metrics_b, "metrics snapshot must be byte-identical");
    assert_eq!(chrome_a, chrome_b, "chrome trace must be byte-identical");
}

#[test]
fn telemetry_on_or_off_does_not_change_experiment_results() {
    // Quiet run: default telemetry (events off, spans off).
    let mut quiet = driver(None);
    let quiet_fig4 = fig4(&mut quiet);
    let quiet_race = quiet.race(&race_opts());

    // Loud run: everything on.
    let mut loud = driver(Some("trace"));
    let loud_fig4 = fig4(&mut loud);
    let loud_race = loud.race(&race_opts());

    assert!(loud.telemetry().event_count() > 0, "the loud run must actually have traced");
    assert_eq!(quiet_fig4, loud_fig4, "fig4 result JSON must not depend on tracing");
    assert_eq!(
        quiet_race.to_json().to_string_pretty(),
        loud_race.to_json().to_string_pretty(),
        "race result JSON must not depend on tracing"
    );
}

#[test]
fn event_ring_cap_is_honoured_under_blanket_tracing() {
    let mut lab = lab();
    let obs = lab.india.net.telemetry();
    obs.set_filter_spec("trace").expect("blanket spec parses");
    obs.set_event_cap(8);
    mechanism::figure4(&mut lab);
    assert!(obs.event_count() <= 8, "ring must never exceed its cap");
    assert!(obs.events_dropped() > 0, "a full fig4 trace overflows a cap of 8");
    // The log renders exactly the retained events, one JSON line each.
    assert_eq!(obs.event_log().lines().count(), obs.event_count());
}
