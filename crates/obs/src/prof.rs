//! The two-plane event-engine profiler.
//!
//! **Deterministic plane** — samples recorded *in virtual time* by the
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
//! **Wall-clock plane** — explicitly nondeterministic timings
//! ([`WallPlane`]): phase timers, per-shard busy seconds and the
//! run's events/sec. The planes never mix:
//! profile files carry them under separate top-level keys, and nothing
//! in this module reads a clock (callers time with
//! `lucent_support::bench::Stopwatch` and hand the numbers in), keeping
//! lint rule L3 intact.

use std::collections::BTreeMap;

use lucent_support::{Json, ToJson};

use crate::event::Span;
use crate::{export, Telemetry};

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

/// Assemble the deterministic plane from a hub registry that has
/// absorbed every shard dump, plus the hub network's own queue
/// high-water mark (the hub never shards, so its scheduler state is not
/// in the registry). Key order is fixed by construction; the whole
/// tree is byte-identical across same-seed runs at any thread count.
pub fn deterministic_json(t: &Telemetry, hub_queue_hwm: u64) -> Json {
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
                ("queue_depth_hwm".to_string(), Json::UInt(hub_queue_hwm)),
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

/// One named wall-clock phase of a run (`prepare`/`run`/`assemble`),
/// offsets relative to process start.
#[derive(Debug, Clone)]
pub struct WallPhase {
    /// Phase name.
    pub name: String,
    /// Start offset, µs of wall time.
    pub start_us: u64,
    /// Duration, µs of wall time.
    pub dur_us: u64,
}

/// Wall accounting for one sharded pool invocation: how long the pool
/// took end to end and how busy each shard slot was.
#[derive(Debug, Clone)]
pub struct PoolWall {
    /// The pool's experiment tag (`race`, `fig2.survey`, …).
    pub tag: String,
    /// End-to-end pool wall time, seconds.
    pub wall_secs: f64,
    /// Per-shard busy seconds, in submission order.
    pub busy_secs: Vec<f64>,
}

impl PoolWall {
    /// Load-imbalance ratio: the busiest shard's time over the mean
    /// (1.0 = perfectly balanced; 1.0 for empty pools).
    pub fn imbalance(&self) -> f64 {
        let n = self.busy_secs.len();
        if n == 0 {
            return 1.0;
        }
        let max = self.busy_secs.iter().fold(0.0f64, |a, &b| a.max(b));
        let mean = self.busy_secs.iter().sum::<f64>() / n as f64;
        if mean > 0.0 {
            max / mean
        } else {
            1.0
        }
    }
}

impl ToJson for PoolWall {
    fn to_json(&self) -> Json {
        Json::Obj(vec![
            (
                "busy_secs".to_string(),
                Json::Arr(self.busy_secs.iter().map(|s| s.to_json()).collect()),
            ),
            ("imbalance".to_string(), self.imbalance().to_json()),
            ("tag".to_string(), Json::Str(self.tag.clone())),
            ("wall_secs".to_string(), self.wall_secs.to_json()),
        ])
    }
}

/// The wall-clock plane: nondeterministic by nature, kept strictly
/// apart from the deterministic section of a profile file.
#[derive(Debug, Clone)]
pub struct WallPlane {
    /// Phase timers, in run order.
    pub phases: Vec<WallPhase>,
    /// One entry per sharded pool invocation, in run order.
    pub pools: Vec<PoolWall>,
    /// The `--threads` value of the run.
    pub threads: usize,
    /// Total simulator events processed (hub + shards).
    pub events: u64,
    /// End-to-end run wall time, seconds.
    pub wall_secs: f64,
}

impl WallPlane {
    /// Simulator events per wall second.
    pub fn events_per_sec(&self) -> f64 {
        if self.wall_secs > 0.0 {
            self.events as f64 / self.wall_secs
        } else {
            0.0
        }
    }

    /// The phase timers as a Chrome trace-event file (one named track
    /// per phase), reusing the span exporter.
    pub fn phases_chrome(&self) -> String {
        let mut names = BTreeMap::new();
        let spans: Vec<Span> = self
            .phases
            .iter()
            .enumerate()
            .map(|(i, p)| {
                names.insert(i as u64, p.name.clone());
                Span { name: "phase", cat: "wall", ts_us: p.start_us, dur_us: p.dur_us, tid: i as u64 }
            })
            .collect();
        export::chrome_trace(spans.iter(), &names)
    }
}

/// The wall plane as JSON, keys sorted.
impl ToJson for WallPlane {
    fn to_json(&self) -> Json {
        let phases = Json::Arr(
            self.phases
                .iter()
                .map(|p| {
                    Json::Obj(vec![
                        ("dur_us".to_string(), Json::UInt(p.dur_us)),
                        ("name".to_string(), Json::Str(p.name.clone())),
                        ("start_us".to_string(), Json::UInt(p.start_us)),
                    ])
                })
                .collect(),
        );
        Json::Obj(vec![
            ("events".to_string(), Json::UInt(self.events)),
            ("events_per_sec".to_string(), self.events_per_sec().to_json()),
            ("phases".to_string(), phases),
            ("pools".to_string(), Json::Arr(self.pools.iter().map(PoolWall::to_json).collect())),
            ("threads".to_string(), Json::UInt(self.threads as u64)),
            ("wall_secs".to_string(), self.wall_secs.to_json()),
        ])
    }
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
            deterministic_json(&t, 5).to_string_pretty()
        };
        let a = sample();
        assert_eq!(a, sample(), "same samples, same bytes");
        let parsed = Json::parse(&a).unwrap();
        assert_eq!(
            parsed.get("scheduler").and_then(|s| s.get("pops")).and_then(|p| p.get("deliver")),
            Some(&Json::Int(1))
        );
        assert_eq!(
            parsed.get("scheduler").and_then(|s| s.get("queue_depth_hwm")),
            Some(&Json::Int(5))
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

    #[test]
    fn wall_plane_rates_imbalance_and_chrome_view() {
        let plane = WallPlane {
            phases: vec![
                WallPhase { name: "prepare".into(), start_us: 0, dur_us: 100 },
                WallPhase { name: "run".into(), start_us: 100, dur_us: 900 },
            ],
            pools: vec![PoolWall {
                tag: "race".into(),
                wall_secs: 0.4,
                busy_secs: vec![0.1, 0.3],
            }],
            threads: 2,
            events: 500,
            wall_secs: 2.0,
        };
        assert_eq!(plane.events_per_sec(), 250.0);
        assert!((plane.pools[0].imbalance() - 1.5).abs() < 1e-9);
        let j = plane.to_json();
        assert_eq!(j.get("events"), Some(&Json::UInt(500)));
        assert_eq!(j.get("events_per_sec").and_then(Json::as_f64), Some(250.0));
        let chrome = Json::parse(&plane.phases_chrome()).unwrap();
        let events = chrome.get("traceEvents").and_then(Json::as_arr).unwrap();
        assert_eq!(events.len(), 4, "two thread_name metadata + two slices");
    }

    #[test]
    fn degenerate_wall_inputs_stay_finite() {
        let empty = PoolWall { tag: "t".into(), wall_secs: 0.0, busy_secs: vec![] };
        assert_eq!(empty.imbalance(), 1.0);
        let idle = PoolWall { tag: "t".into(), wall_secs: 0.0, busy_secs: vec![0.0, 0.0] };
        assert_eq!(idle.imbalance(), 1.0);
        let plane =
            WallPlane { phases: vec![], pools: vec![], threads: 1, events: 9, wall_secs: 0.0 };
        assert_eq!(plane.events_per_sec(), 0.0);
    }
}
