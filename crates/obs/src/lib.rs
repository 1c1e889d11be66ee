//! # lucent-obs
//!
//! Deterministic telemetry for the simulator: structured events, a
//! metrics registry, and exporters — all keyed to **virtual time**.
//! Nothing in this crate reads a wall clock (`clippy.toml` disallows
//! them), so telemetry output is byte-identical across same-seed runs
//! and collecting it can never perturb an experiment.
//!
//! The front door is [`Telemetry`]: a cheaply-clonable handle over
//! shared state, mirroring `netsim`'s `TraceHandle` idiom. One handle
//! lives inside the simulator core; instrumented subsystems reach it
//! through their node context and emit:
//!
//! * **events** — `(virtual time, level, target, name, fields)` tuples
//!   admitted by a `target=level` [`FilterSpec`] and held in a bounded
//!   ring ([`event::Ring`]);
//! * **metrics** — counters, gauges and virtual-time histograms in the
//!   always-on [`metrics::Metrics`] registry;
//! * **spans** — completed virtual-time intervals destined for the
//!   Chrome trace-event export (off by default; enabled for `--trace`
//!   runs).
//!
//! Exports ([`export`]) are pure string builders; the `repro` binary
//! owns all file and console I/O.

#![deny(missing_docs)]

pub mod event;
pub mod export;
pub mod level;
pub mod metrics;
pub mod prof;

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

pub use event::{Event, Ring, Span, DEFAULT_RING_CAP};
pub use level::{FilterError, FilterSpec, Level};
pub use metrics::Metrics;

// Re-exported so instrumented crates can build event fields without
// naming `lucent-support` themselves.
pub use lucent_support::Json;

#[derive(Debug, Clone, Default)]
struct State {
    filter: FilterSpec,
    events: Ring<Event>,
    spans: Ring<Span>,
    spans_on: bool,
    prof_on: bool,
    metrics: Metrics,
    /// Copied on write: a world names one track per node at build
    /// time, and its forks share the names until one is renamed.
    thread_names: Rc<BTreeMap<u64, String>>,
}

/// The telemetry handle. Cloning is cheap and every clone shares the
/// same state, so the simulator core and each instrumented subsystem
/// can hold one without plumbing.
#[derive(Debug, Clone, Default)]
pub struct Telemetry {
    state: Rc<RefCell<State>>,
}

/// Everything a [`Telemetry`] collected, detached from its `Rc` state so
/// it can cross a thread boundary (`Telemetry` itself cannot: it is
/// deliberately single-threaded). A worker shard drains its private
/// telemetry into a dump and ships it back; the run absorbs dumps **in
/// submission order** so the merged registry, event log and span list
/// are identical no matter how many threads produced them.
#[derive(Debug, Default)]
pub struct TelemetryDump {
    /// The full metrics registry.
    pub metrics: Metrics,
    /// Retained events, oldest first.
    pub events: Vec<Event>,
    /// Events the shard's ring evicted before the drain.
    pub events_dropped: u64,
    /// Retained spans, oldest first.
    pub spans: Vec<Span>,
    /// Spans the shard's ring evicted before the drain.
    pub spans_dropped: u64,
}

impl Telemetry {
    /// A fresh handle: filter off, spans off, empty registry.
    pub fn new() -> Self {
        Telemetry::default()
    }

    /// A new, independent registry holding a copy of this one's state
    /// (filter, rings, switches, metrics, track names). Unlike `clone`,
    /// which shares the registry, nothing recorded on one reaches the
    /// other.
    pub fn fork(&self) -> Telemetry {
        Telemetry { state: Rc::new(RefCell::new(self.state.borrow().clone())) }
    }

    // --- tracing --------------------------------------------------------

    /// Install a parsed event filter.
    pub fn set_filter(&self, filter: FilterSpec) {
        self.state.borrow_mut().filter = filter;
    }

    /// Parse and install a `target=level` spec string.
    pub fn set_filter_spec(&self, spec: &str) -> Result<(), FilterError> {
        let filter = FilterSpec::parse(spec)?;
        self.set_filter(filter);
        Ok(())
    }

    /// Whether an event at `level` for `target` would be admitted.
    pub fn enabled(&self, target: &str, level: Level) -> bool {
        self.state.borrow().filter.enabled(target, level)
    }

    /// Emit an event; a no-op unless the filter admits it.
    pub fn event(
        &self,
        at_us: u64,
        level: Level,
        target: &'static str,
        name: &'static str,
        fields: Vec<(String, Json)>,
    ) {
        let mut st = self.state.borrow_mut();
        if !st.filter.enabled(target, level) {
            return;
        }
        st.events.push(Event { at_us, level, target, name, fields });
    }

    /// Cap the event ring (oldest entries evict first).
    pub fn set_event_cap(&self, cap: usize) {
        self.state.borrow_mut().events.set_cap(cap);
    }

    /// Number of events currently held.
    pub fn event_count(&self) -> usize {
        self.state.borrow().events.len()
    }

    /// Events evicted from the ring so far.
    pub fn events_dropped(&self) -> u64 {
        self.state.borrow().events.dropped()
    }

    // --- spans ----------------------------------------------------------

    /// Turn span collection on or off (off by default).
    pub fn enable_spans(&self, on: bool) {
        self.state.borrow_mut().spans_on = on;
    }

    /// Whether spans are currently collected.
    pub fn spans_enabled(&self) -> bool {
        self.state.borrow().spans_on
    }

    /// Number of spans currently held.
    pub fn span_count(&self) -> usize {
        self.state.borrow().spans.len()
    }

    /// Spans evicted from the ring so far.
    pub fn spans_dropped(&self) -> u64 {
        self.state.borrow().spans.dropped()
    }

    /// Record a completed virtual-time interval; a no-op when spans are
    /// off.
    pub fn span(&self, name: &'static str, cat: &'static str, ts_us: u64, dur_us: u64, tid: u64) {
        let mut st = self.state.borrow_mut();
        if !st.spans_on {
            return;
        }
        st.spans.push(Span { name, cat, ts_us, dur_us, tid });
    }

    /// Name the track a `tid` renders on in the Chrome trace export.
    pub fn set_thread_name(&self, tid: u64, name: &str) {
        Rc::make_mut(&mut self.state.borrow_mut().thread_names).insert(tid, name.to_string());
    }

    // --- profiling ------------------------------------------------------

    /// Turn the deterministic profiler plane on or off (off by
    /// default). Profiler samples land in the ordinary metrics registry
    /// under `prof.*` names, so they shard, merge and export exactly
    /// like every other metric.
    pub fn enable_prof(&self, on: bool) {
        self.state.borrow_mut().prof_on = on;
    }

    /// Whether the profiler plane is collecting.
    pub fn prof_enabled(&self) -> bool {
        self.state.borrow().prof_on
    }

    /// Record one scheduler pop: the event kind and its virtual-time
    /// dwell (enqueue → dispatch, µs). A no-op when profiling is off.
    /// Allocation-free on the hot path: `kind` is a static label and
    /// the dwell histogram name is resolved by a static match.
    pub fn prof_pop(&self, kind: &'static str, dwell_us: u64) {
        let mut st = self.state.borrow_mut();
        if !st.prof_on {
            return;
        }
        st.metrics.counter_add(prof::SCHED_POPS, kind, 1);
        st.metrics.histogram_record(prof::dwell_metric(kind), dwell_us);
    }

    /// Count one middlebox `on_packet` path outcome (a static label
    /// like `"wm.inject"`). A no-op when profiling is off.
    pub fn prof_path(&self, path: &'static str) {
        let mut st = self.state.borrow_mut();
        if st.prof_on {
            st.metrics.counter_add(prof::MB_PATH, path, 1);
        }
    }

    // --- metrics --------------------------------------------------------

    /// Add `delta` to the counter `name{label}`.
    pub fn counter_add(&self, name: &str, label: &str, delta: u64) {
        self.state.borrow_mut().metrics.counter_add(name, label, delta);
    }

    /// Increment the counter `name{label}` by one.
    pub fn counter_inc(&self, name: &str, label: &str) {
        self.counter_add(name, label, 1);
    }

    /// Set the gauge `name{label}`.
    pub fn gauge_set(&self, name: &str, label: &str, value: i64) {
        self.state.borrow_mut().metrics.gauge_set(name, label, value);
    }

    /// Record a virtual-time value (µs) into histogram `name`.
    pub fn histogram_record(&self, name: &str, value_us: u64) {
        self.state.borrow_mut().metrics.histogram_record(name, value_us);
    }

    /// Fold a histogram recorded elsewhere into histogram `name`, as if
    /// each of its values had been recorded here.
    pub fn absorb_histogram(&self, name: &str, h: &metrics::Histogram) {
        self.state.borrow_mut().metrics.merge_histogram(name, h);
    }

    /// Current value of a counter, zero if never touched.
    pub fn counter(&self, name: &str, label: &str) -> u64 {
        self.state.borrow().metrics.counter(name, label)
    }

    /// Sum of a counter family across all labels.
    pub fn counter_total(&self, name: &str) -> u64 {
        self.state.borrow().metrics.counter_total(name)
    }

    /// All labels and values of a counter family, in label order.
    pub fn counter_family(&self, name: &str) -> Vec<(String, u64)> {
        self.state.borrow().metrics.counter_family(name)
    }

    /// Current value of a gauge, if ever set.
    pub fn gauge(&self, name: &str, label: &str) -> Option<i64> {
        self.state.borrow().metrics.gauge(name, label)
    }

    /// All labels and values of a gauge family, in label order.
    pub fn gauge_family(&self, name: &str) -> Vec<(String, i64)> {
        self.state.borrow().metrics.gauge_family(name)
    }

    /// A histogram's snapshot JSON (`count`/`sum_us`/`buckets`), if the
    /// histogram was ever recorded.
    pub fn histogram_json(&self, name: &str) -> Option<Json> {
        self.state.borrow().metrics.histogram(name).map(metrics::Histogram::to_json)
    }

    /// A histogram's per-bucket counts (overflow bucket last), if the
    /// histogram was ever recorded.
    pub fn histogram_buckets(&self, name: &str) -> Option<Vec<u64>> {
        self.state.borrow().metrics.histogram(name).map(|h| h.bucket_counts().to_vec())
    }

    // --- shard merge ----------------------------------------------------

    /// Detach everything collected so far as a [`TelemetryDump`],
    /// leaving this handle's registry and rings empty. The dump owns
    /// plain data (no `Rc`), so it may be sent across threads.
    pub fn drain_dump(&self) -> TelemetryDump {
        let mut st = self.state.borrow_mut();
        let events_dropped = st.events.dropped();
        let spans_dropped = st.spans.dropped();
        TelemetryDump {
            metrics: std::mem::take(&mut st.metrics),
            events: st.events.drain(),
            events_dropped,
            spans: st.spans.drain(),
            spans_dropped,
        }
    }

    /// Fold a dump into this handle: counters saturating-add, gauges
    /// last-writer-wins, histograms merge bucket-for-bucket, and events
    /// and spans append in the dump's order (this ring's cap still
    /// applies; shard-side drops carry over into the drop counters).
    /// Absorbing dumps in submission order is what makes a sharded run
    /// byte-identical to the single-threaded one.
    pub fn absorb(&self, dump: TelemetryDump) {
        let mut st = self.state.borrow_mut();
        st.metrics.merge_from(&dump.metrics);
        st.events.add_dropped(dump.events_dropped);
        for e in dump.events {
            st.events.push(e);
        }
        st.spans.add_dropped(dump.spans_dropped);
        for s in dump.spans {
            st.spans.push(s);
        }
    }

    // --- exporters ------------------------------------------------------

    /// The event ring as a JSON-lines log (oldest first).
    pub fn event_log(&self) -> String {
        export::event_log(self.state.borrow().events.iter())
    }

    /// The span ring as a Chrome trace-event file.
    pub fn chrome_trace(&self) -> String {
        let st = self.state.borrow();
        export::chrome_trace(st.spans.iter(), &st.thread_names)
    }

    /// The metrics registry as one deterministic JSON tree, plus a
    /// `ring` section reporting how many events and spans the bounded
    /// rings evicted — so a profile or trace run can never *silently*
    /// lose telemetry.
    pub fn metrics_snapshot(&self) -> Json {
        let st = self.state.borrow();
        let mut snap = st.metrics.snapshot();
        if let Json::Obj(entries) = &mut snap {
            entries.push((
                "ring".to_string(),
                Json::Obj(vec![
                    ("events_dropped".to_string(), Json::UInt(st.events.dropped())),
                    ("spans_dropped".to_string(), Json::UInt(st.spans.dropped())),
                ]),
            ));
        }
        snap
    }

    /// The metrics registry, pretty-printed (the `--metrics-out` file
    /// format; ends with a newline).
    pub fn metrics_snapshot_pretty(&self) -> String {
        let mut s = self.metrics_snapshot().to_string_pretty();
        s.push('\n');
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clones_share_state() {
        let t = Telemetry::new();
        let u = t.clone();
        u.counter_inc("c", "l");
        assert_eq!(t.counter("c", "l"), 1);
    }

    #[test]
    fn events_respect_the_filter() {
        let t = Telemetry::new();
        t.event(1, Level::Info, "tcp", "x", vec![]);
        assert_eq!(t.event_count(), 0, "default filter is off");
        t.set_filter_spec("tcp=debug").unwrap();
        t.event(2, Level::Debug, "tcp", "x", vec![]);
        t.event(3, Level::Debug, "dns", "y", vec![]);
        t.event(4, Level::Trace, "tcp", "z", vec![]);
        assert_eq!(t.event_count(), 1);
        assert!(t.enabled("tcp", Level::Debug));
        assert!(!t.enabled("dns", Level::Debug));
    }

    #[test]
    fn event_ring_is_bounded() {
        let t = Telemetry::new();
        t.set_filter_spec("trace").unwrap();
        t.set_event_cap(2);
        for i in 0..5 {
            t.event(i, Level::Info, "a", "e", vec![]);
        }
        assert_eq!(t.event_count(), 2);
        assert_eq!(t.events_dropped(), 3);
        let log = t.event_log();
        assert!(log.contains("\"at_us\":3") && log.contains("\"at_us\":4"));
        assert!(!log.contains("\"at_us\":0"));
    }

    #[test]
    fn spans_are_gated_and_exported() {
        let t = Telemetry::new();
        t.span("deliver", "netsim", 0, 1, 1);
        t.enable_spans(true);
        t.set_thread_name(1, "client");
        t.span("deliver", "netsim", 5, 2, 1);
        let trace = t.chrome_trace();
        let parsed = Json::parse(&trace).unwrap();
        let events = parsed.get("traceEvents").and_then(Json::as_arr).unwrap();
        assert_eq!(events.len(), 2, "one metadata + one slice: {trace}");
    }

    #[test]
    fn dumps_cross_threads_and_absorb_in_order() {
        fn assert_send<T: Send>(_: &T) {}
        // Two "shards", drained on the main thread but shippable.
        let shard = |base: u64| {
            let t = Telemetry::new();
            t.set_filter_spec("trace").unwrap();
            t.counter_add("pkts", "shared", base);
            for i in 0..3 {
                t.event(base * 100 + i, Level::Info, "shard", "tick", vec![]);
            }
            t.drain_dump()
        };
        let (a, b) = (shard(1), shard(2));
        assert_send(&a);

        let hub = Telemetry::new();
        hub.set_filter_spec("trace").unwrap();
        hub.absorb(a);
        hub.absorb(b);
        assert_eq!(hub.counter("pkts", "shared"), 3);
        // Events keep submission order: all of shard 1, then shard 2.
        let ats: Vec<u64> = hub.event_log().lines().map(|l| {
            Json::parse(l).unwrap().get("at_us").and_then(Json::as_i64).unwrap() as u64
        }).collect();
        assert_eq!(ats, vec![100, 101, 102, 200, 201, 202]);
    }

    #[test]
    fn merged_metrics_snapshot_is_merge_order_independent() {
        let shard = |n: u64| {
            let t = Telemetry::new();
            t.counter_add("c", "l", n);
            t.histogram_record("h", n);
            t.drain_dump()
        };
        let fwd = Telemetry::new();
        fwd.absorb(shard(1));
        fwd.absorb(shard(2));
        let rev = Telemetry::new();
        rev.absorb(shard(2));
        rev.absorb(shard(1));
        assert_eq!(fwd.metrics_snapshot_pretty(), rev.metrics_snapshot_pretty());
    }

    #[test]
    fn an_absorbed_histogram_equals_recording_in_place() {
        let values = [0, 10, 11, 5_000, 10_000_000, 10_000_001];
        let direct = Telemetry::new();
        let absorbed = Telemetry::new();
        let mut local = metrics::Histogram::default();
        for (i, &v) in values.iter().enumerate() {
            direct.histogram_record("h", v);
            local.record(v);
            // Publish in two parts, as the engine does between calls.
            if i == 2 || i + 1 == values.len() {
                absorbed.absorb_histogram("h", &local);
                local.clear();
            }
        }
        assert_eq!(local.count(), 0);
        assert_eq!(absorbed.metrics_snapshot_pretty(), direct.metrics_snapshot_pretty());
    }

    #[test]
    fn drain_leaves_the_handle_empty_and_absorb_respects_the_cap() {
        let t = Telemetry::new();
        t.set_filter_spec("trace").unwrap();
        t.counter_inc("c", "l");
        t.event(1, Level::Info, "a", "e", vec![]);
        let dump = t.drain_dump();
        assert_eq!(t.event_count(), 0);
        assert_eq!(t.counter("c", "l"), 0);
        assert_eq!(dump.events.len(), 1);

        let hub = Telemetry::new();
        hub.set_event_cap(0);
        hub.absorb(dump);
        assert_eq!(hub.event_count(), 0);
        assert_eq!(hub.events_dropped(), 1, "refused events count as drops");
        assert_eq!(hub.counter("c", "l"), 1, "metrics merge regardless of ring caps");
    }

    #[test]
    fn snapshot_reports_ring_drops() {
        let t = Telemetry::new();
        t.set_filter_spec("trace").unwrap();
        t.set_event_cap(1);
        for i in 0..3 {
            t.event(i, Level::Info, "a", "e", vec![]);
        }
        let snap = t.metrics_snapshot();
        assert_eq!(snap.get("ring").and_then(|r| r.get("events_dropped")), Some(&Json::UInt(2)));
        assert_eq!(snap.get("ring").and_then(|r| r.get("spans_dropped")), Some(&Json::UInt(0)));
        // Shard-side drops survive the dump/absorb round trip.
        let hub = Telemetry::new();
        hub.absorb(t.drain_dump());
        let merged = hub.metrics_snapshot();
        assert_eq!(merged.get("ring").and_then(|r| r.get("events_dropped")), Some(&Json::UInt(2)));
    }

    #[test]
    fn snapshot_exports_all_instrument_kinds() {
        let t = Telemetry::new();
        t.counter_add("tcp.rst_rx", "client", 2);
        t.gauge_set("mb.flow.size", "wm", 9);
        t.histogram_record("netsim.link.latency_us", 1_500);
        let snap = t.metrics_snapshot();
        assert_eq!(
            snap.get("counters").and_then(|c| c.get("tcp.rst_rx")).and_then(|f| f.get("client")),
            Some(&Json::UInt(2))
        );
        assert_eq!(
            snap.get("gauges").and_then(|g| g.get("mb.flow.size")).and_then(|f| f.get("wm")),
            Some(&Json::Int(9))
        );
        let h = snap.get("histograms").and_then(|h| h.get("netsim.link.latency_us")).unwrap();
        assert_eq!(h.get("count"), Some(&Json::UInt(1)));
        assert!(t.metrics_snapshot_pretty().ends_with('\n'));
    }
}
