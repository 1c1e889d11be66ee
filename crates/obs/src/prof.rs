//! The event-engine profiler: samples recorded *in virtual time* by the
//! instrumented subsystems (scheduler pops and dwell histograms,
//! middlebox `on_packet` path counts, per-shard event totals). They
//! live in the ordinary [`crate::Metrics`] registry under `prof.*`
//! names, so they drain, ship and merge across shards exactly like any
//! other metric — which is why [`deterministic_json`] is byte-identical
//! across same-seed runs at any `--threads N`. Dwell time in particular
//! is virtual-time arithmetic (`at - queued_at` on the event queue):
//! how long an event *logically* waited, not how long the host CPU took
//! to get to it.
//!
//! Nothing here reads a clock: wall-clock performance is measured by
//! the `benchmark/` workspace, never by the profiler.

use lucent_support::Json;

use crate::Telemetry;

/// Schema tag stamped into every profile file.
pub const SCHEMA: &str = "lucent-prof/1";

/// Counter: scheduler pops by event kind (`deliver`/`timer`/`wake`).
pub const SCHED_POPS: &str = "prof.sched.pops";

/// Counter: middlebox `on_packet` outcome paths (static labels like
/// `wm.inject`, `im.forward`).
pub const MB_PATH: &str = "prof.mb.path";

/// Counter: simulator events per shard, labelled `tag/shard-NN`.
pub const SHARD_EVENTS: &str = "prof.shard.events";

/// Gauge: event-queue high-water mark per shard, labelled
/// `tag/shard-NN`.
pub const SHARD_QUEUE_HWM: &str = "prof.shard.queue_hwm";

/// Event kinds the scheduler reports, in the order the deterministic
/// section lists their dwell histograms.
pub const KINDS: [&str; 4] = ["deliver", "other", "timer", "wake"];

/// The dwell-histogram name for a pop of `kind`. Static on both sides
/// so the scheduler's per-event call allocates nothing.
pub fn dwell_metric(kind: &str) -> &'static str {
    match kind {
        "deliver" => "prof.sched.dwell_us.deliver",
        "timer" => "prof.sched.dwell_us.timer",
        "wake" => "prof.sched.dwell_us.wake",
        _ => "prof.sched.dwell_us.other",
    }
}

/// Assemble the deterministic plane from a run's registry that has
/// absorbed every world's dump; each world's queue high-water mark is
/// under its shard label. Key order is fixed by construction; the whole
/// tree is byte-identical across same-seed runs at any thread count.
pub fn deterministic_json(t: &Telemetry) -> Json {
    let counter_obj = |name: &str| {
        Json::Obj(
            t.counter_family(name).into_iter().map(|(k, v)| (k, Json::UInt(v))).collect(),
        )
    };
    let dwell = Json::Obj(
        KINDS
            .iter()
            .filter_map(|kind| {
                t.histogram_json(dwell_metric(kind)).map(|h| (kind.to_string(), h))
            })
            .collect(),
    );
    let shard_hwm = Json::Obj(
        t.gauge_family(SHARD_QUEUE_HWM).into_iter().map(|(k, v)| (k, Json::Int(v))).collect(),
    );
    Json::Obj(vec![
        (
            "middlebox".to_string(),
            Json::Obj(vec![("paths".to_string(), counter_obj(MB_PATH))]),
        ),
        (
            "scheduler".to_string(),
            Json::Obj(vec![
                ("dwell_us".to_string(), dwell),
                ("pops".to_string(), counter_obj(SCHED_POPS)),
            ]),
        ),
        (
            "shards".to_string(),
            Json::Obj(vec![
                ("events".to_string(), counter_obj(SHARD_EVENTS)),
                ("queue_depth_hwm".to_string(), shard_hwm),
            ]),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dwell_metric_is_total_and_static() {
        assert_eq!(dwell_metric("deliver"), "prof.sched.dwell_us.deliver");
        assert_eq!(dwell_metric("wake"), "prof.sched.dwell_us.wake");
        assert_eq!(dwell_metric("timer"), "prof.sched.dwell_us.timer");
        assert_eq!(dwell_metric("anything-else"), "prof.sched.dwell_us.other");
        for kind in KINDS {
            assert!(dwell_metric(kind).starts_with("prof.sched.dwell_us."));
        }
    }

    #[test]
    fn prof_samples_respect_the_gate_and_land_in_the_registry() {
        let t = Telemetry::new();
        t.prof_pop("deliver", 10);
        t.prof_path("wm.inject");
        assert_eq!(t.counter_total(SCHED_POPS), 0, "off by default");
        t.enable_prof(true);
        assert!(t.prof_enabled());
        t.prof_pop("deliver", 10);
        t.prof_pop("deliver", 2_000_000);
        t.prof_pop("timer", 99);
        t.prof_path("wm.inject");
        assert_eq!(t.counter(SCHED_POPS, "deliver"), 2);
        assert_eq!(t.counter(SCHED_POPS, "timer"), 1);
        assert_eq!(t.counter(MB_PATH, "wm.inject"), 1);
        let buckets = t.histogram_buckets(dwell_metric("deliver")).unwrap();
        assert_eq!(buckets.iter().sum::<u64>(), 2, "bucket counts conserve pops");
    }

    #[test]
    fn deterministic_json_shape_and_stability() {
        let sample = || {
            let t = Telemetry::new();
            t.enable_prof(true);
            t.prof_pop("deliver", 10);
            t.prof_pop("wake", 0);
            t.prof_path("im.forward");
            t.counter_add(SHARD_EVENTS, "race/shard-00", 42);
            t.gauge_set(SHARD_QUEUE_HWM, "race/shard-00", 17);
            deterministic_json(&t).to_string_pretty()
        };
        let a = sample();
        assert_eq!(a, sample(), "same samples, same bytes");
        let parsed = Json::parse(&a).unwrap();
        assert_eq!(
            parsed.get("scheduler").and_then(|s| s.get("pops")).and_then(|p| p.get("deliver")),
            Some(&Json::Int(1))
        );
        assert_eq!(parsed.get("scheduler").and_then(|s| s.get("queue_depth_hwm")), None);
        assert_eq!(
            parsed
                .get("shards")
                .and_then(|s| s.get("queue_depth_hwm"))
                .and_then(|h| h.get("race/shard-00")),
            Some(&Json::Int(17))
        );
        assert_eq!(
            parsed.get("shards").and_then(|s| s.get("events")).and_then(|e| e.get("race/shard-00")),
            Some(&Json::Int(42))
        );
        assert_eq!(
            parsed.get("middlebox").and_then(|m| m.get("paths")).and_then(|p| p.get("im.forward")),
            Some(&Json::Int(1))
        );
        // Dwell histograms only list kinds that actually occurred.
        let dwell = parsed.get("scheduler").and_then(|s| s.get("dwell_us")).unwrap();
        assert!(dwell.get("deliver").is_some() && dwell.get("wake").is_some());
        assert!(dwell.get("timer").is_none());
    }
}
