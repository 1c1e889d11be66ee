//! The profiler's contract, end to end:
//!
//! 1. the **deterministic profile** (scheduler dwell histograms, pop
//!    counts, middlebox paths, per-shard totals) is byte-identical at
//!    `--threads 1`, `2`, and `4`;
//! 2. profiling is **observation only** — results with the profiler on
//!    are byte-identical to results with it off;
//! 3. the dwell histograms **conserve events**: every popped event
//!    lands in exactly one bucket of its kind's histogram.

use lucent_bench::drive::Driver;
use lucent_bench::Scale;
use lucent_core::experiments::race;
use lucent_obs::{prof, Telemetry};
use lucent_support::json::to_string_pretty;

fn race_opts() -> race::RaceOptions {
    race::RaceOptions::default()
}

/// Run the race experiment under a profiled driver; return the result
/// JSON, the deterministic profile, and the hub for further inspection.
fn profiled_race(threads: usize) -> (String, String, Telemetry) {
    let drv = Driver::new(Scale::Tiny, threads, None).with_prof(true);
    let hub = Telemetry::new();
    let json = to_string_pretty(&drv.race(&hub, &race_opts()));
    let det = prof::deterministic_json(&hub, 0).to_string_pretty();
    (json, det, hub)
}

#[test]
fn deterministic_plane_is_byte_identical_across_thread_counts() {
    let (json1, det1, _) = profiled_race(1);
    for threads in [2usize, 4] {
        let (json, det) = {
            let (j, d, _) = profiled_race(threads);
            (j, d)
        };
        assert_eq!(json1, json, "results differ between --threads 1 and --threads {threads}");
        assert_eq!(
            det1, det,
            "deterministic profile differs between --threads 1 and --threads {threads}"
        );
    }
    // The profile actually carries data, not just an empty skeleton.
    assert!(det1.contains("prof.sched.pops") || det1.contains("pops"), "{det1}");
    assert!(det1.contains("race/shard-00"), "{det1}");
}

#[test]
fn profiling_is_observation_only() {
    let plain = {
        let drv = Driver::new(Scale::Tiny, 2, None);
        let hub = Telemetry::new();
        to_string_pretty(&drv.race(&hub, &race_opts()))
    };
    let (profiled, _, _) = profiled_race(2);
    assert_eq!(plain, profiled, "turning the profiler on changed an experiment result");
}

#[test]
fn dwell_histograms_conserve_popped_events() {
    let scale = Scale::Tiny;
    let mut lab = scale.lab();
    let obs = lab.india.net.telemetry();
    obs.enable_prof(true);
    let before = lab.india.net.events_processed();
    // One lab, so its own scheduler counters see every pop.
    let opts = race_opts();
    for &isp in &opts.isps {
        race::run_isp(&mut lab, isp, &opts);
    }
    let after = lab.india.net.events_processed();
    let popped = obs.counter_total(prof::SCHED_POPS);
    assert_eq!(popped, after - before, "every pop while profiling must be counted");
    let mut bucketed = 0u64;
    for kind in prof::KINDS {
        if let Some(buckets) = obs.histogram_buckets(prof::dwell_metric(kind)) {
            bucketed += buckets.iter().sum::<u64>();
        }
    }
    assert_eq!(bucketed, popped, "every popped event lands in exactly one dwell bucket");
}
