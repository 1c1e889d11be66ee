//! The metrics registry: counters, gauges, and virtual-time histograms.
//!
//! Everything is `BTreeMap`-backed so a snapshot serializes in a single
//! deterministic order regardless of the order instruments were touched.
//! Instruments are named `subsystem.noun` (for example
//! `netsim.router.forwarded`) and carry one free-form label — typically
//! a node label or a drop reason — so one name holds a whole family.

use std::collections::BTreeMap;

use lucent_support::Json;

/// Default histogram bucket upper bounds, in microseconds of virtual
/// time: 10 µs … 10 s in decades, plus an implicit overflow bucket.
pub const DEFAULT_BUCKETS_US: [u64; 7] =
    [10, 100, 1_000, 10_000, 100_000, 1_000_000, 10_000_000];

/// A fixed-bucket histogram over microsecond values.
#[derive(Debug, Clone)]
pub struct Histogram {
    /// Inclusive upper bounds of each bucket, ascending.
    bounds: Vec<u64>,
    /// One count per bound, plus a trailing overflow bucket.
    counts: Vec<u64>,
    sum: u64,
    count: u64,
}

/// An empty histogram over [`DEFAULT_BUCKETS_US`], the buckets every
/// registry histogram has.
impl Default for Histogram {
    fn default() -> Self {
        Histogram::new(&DEFAULT_BUCKETS_US)
    }
}

impl Histogram {
    fn new(bounds: &[u64]) -> Self {
        Histogram {
            bounds: bounds.to_vec(),
            counts: vec![0; bounds.len() + 1],
            sum: 0,
            count: 0,
        }
    }

    /// Record one value.
    pub fn record(&mut self, value_us: u64) {
        let slot = self
            .bounds
            .iter()
            .position(|&b| value_us <= b)
            .unwrap_or(self.bounds.len());
        if let Some(c) = self.counts.get_mut(slot) {
            *c += 1;
        }
        self.sum = self.sum.saturating_add(value_us);
        self.count += 1;
    }

    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of recorded values, saturating.
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Forget every recorded value, keeping the buckets.
    pub fn clear(&mut self) {
        self.counts.iter_mut().for_each(|c| *c = 0);
        self.sum = 0;
        self.count = 0;
    }

    /// Per-bucket counts: one per bound, plus the trailing overflow
    /// bucket. Their sum always equals [`Histogram::count`] — the
    /// conservation law the profiler's dwell accounting (and the
    /// lucent-check merge oracle) lean on.
    pub fn bucket_counts(&self) -> &[u64] {
        &self.counts
    }

    /// Fold another histogram into this one. Matching bucket bounds
    /// merge count-for-count; on a bounds mismatch (never produced by
    /// this registry, which only builds default-bucket histograms) the
    /// other side's totals still accumulate and its per-bucket counts
    /// land in the overflow bucket rather than being lost.
    fn merge_from(&mut self, other: &Histogram) {
        if self.bounds == other.bounds {
            for (c, o) in self.counts.iter_mut().zip(&other.counts) {
                *c = c.saturating_add(*o);
            }
        } else if let Some(last) = self.counts.last_mut() {
            let total: u64 = other.counts.iter().fold(0, |a, c| a.saturating_add(*c));
            *last = last.saturating_add(total);
        }
        self.sum = self.sum.saturating_add(other.sum);
        self.count = self.count.saturating_add(other.count);
    }

    /// The histogram as its snapshot JSON form: `count`, `sum_us`, and
    /// the `buckets` array of `{le, n}` pairs.
    pub fn to_json(&self) -> Json {
        let buckets: Vec<Json> = self
            .bounds
            .iter()
            .map(|b| Json::UInt(*b))
            .chain(std::iter::once(Json::Str("inf".to_string())))
            .zip(self.counts.iter())
            .map(|(le, n)| Json::Obj(vec![("le".into(), le), ("n".into(), Json::UInt(*n))]))
            .collect();
        Json::Obj(vec![
            ("count".into(), Json::UInt(self.count)),
            ("sum_us".into(), Json::UInt(self.sum)),
            ("buckets".into(), Json::Arr(buckets)),
        ])
    }
}

/// The registry. Owned by [`crate::Telemetry`]; not usually constructed
/// directly.
#[derive(Debug, Clone, Default)]
pub struct Metrics {
    counters: BTreeMap<String, BTreeMap<String, u64>>,
    gauges: BTreeMap<String, BTreeMap<String, i64>>,
    histograms: BTreeMap<String, Histogram>,
}

impl Metrics {
    /// Add `delta` to the counter `name{label}`.
    pub fn counter_add(&mut self, name: &str, label: &str, delta: u64) {
        let family = match self.counters.get_mut(name) {
            Some(f) => f,
            None => self.counters.entry(name.to_string()).or_default(),
        };
        match family.get_mut(label) {
            Some(v) => *v = v.saturating_add(delta),
            None => {
                family.insert(label.to_string(), delta);
            }
        }
    }

    /// Set the gauge `name{label}` to `value`.
    pub fn gauge_set(&mut self, name: &str, label: &str, value: i64) {
        let family = match self.gauges.get_mut(name) {
            Some(f) => f,
            None => self.gauges.entry(name.to_string()).or_default(),
        };
        family.insert(label.to_string(), value);
    }

    /// Record `value_us` into the histogram `name` (created with the
    /// default decade buckets on first use).
    pub fn histogram_record(&mut self, name: &str, value_us: u64) {
        match self.histograms.get_mut(name) {
            Some(h) => h.record(value_us),
            None => {
                let mut h = Histogram::default();
                h.record(value_us);
                self.histograms.insert(name.to_string(), h);
            }
        }
    }

    /// Current value of a counter, zero if never touched.
    pub fn counter(&self, name: &str, label: &str) -> u64 {
        self.counters
            .get(name)
            .and_then(|f| f.get(label))
            .copied()
            .unwrap_or(0)
    }

    /// Sum of a counter family across all labels.
    pub fn counter_total(&self, name: &str) -> u64 {
        self.counters
            .get(name)
            .map(|f| f.values().fold(0u64, |a, v| a.saturating_add(*v)))
            .unwrap_or(0)
    }

    /// All labels and values of a counter family, in label order.
    pub fn counter_family(&self, name: &str) -> Vec<(String, u64)> {
        self.counters
            .get(name)
            .map(|f| f.iter().map(|(k, v)| (k.clone(), *v)).collect())
            .unwrap_or_default()
    }

    /// Current value of a gauge, if ever set.
    pub fn gauge(&self, name: &str, label: &str) -> Option<i64> {
        self.gauges.get(name).and_then(|f| f.get(label)).copied()
    }

    /// All labels and values of a gauge family, in label order.
    pub fn gauge_family(&self, name: &str) -> Vec<(String, i64)> {
        self.gauges
            .get(name)
            .map(|f| f.iter().map(|(k, v)| (k.clone(), *v)).collect())
            .unwrap_or_default()
    }

    /// A histogram by name, if ever recorded.
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms.get(name)
    }

    /// Union another registry into this one, deterministically:
    /// counters saturating-add label-for-label, gauges overwrite (the
    /// incoming registry wins, so absorbing dumps in submission order
    /// gives last-writer-wins in that order), histograms merge
    /// bucket-for-bucket. Because every map is a `BTreeMap`, the merged
    /// snapshot depends only on the *multiset* of counter updates, not
    /// on the order registries are merged in.
    pub fn merge_from(&mut self, other: &Metrics) {
        for (name, family) in &other.counters {
            for (label, v) in family {
                self.counter_add(name, label, *v);
            }
        }
        for (name, family) in &other.gauges {
            for (label, v) in family {
                self.gauge_set(name, label, *v);
            }
        }
        for (name, h) in &other.histograms {
            self.merge_histogram(name, h);
        }
    }

    /// Fold `h` into the histogram `name`, bucket for bucket.
    pub(crate) fn merge_histogram(&mut self, name: &str, h: &Histogram) {
        match self.histograms.get_mut(name) {
            Some(mine) => mine.merge_from(h),
            None => {
                self.histograms.insert(name.to_string(), h.clone());
            }
        }
    }

    /// The full registry as one deterministic JSON tree.
    pub fn snapshot(&self) -> Json {
        let counters = Json::Obj(
            self.counters
                .iter()
                .map(|(name, family)| {
                    (
                        name.clone(),
                        Json::Obj(
                            family.iter().map(|(k, v)| (k.clone(), Json::UInt(*v))).collect(),
                        ),
                    )
                })
                .collect(),
        );
        let gauges = Json::Obj(
            self.gauges
                .iter()
                .map(|(name, family)| {
                    (
                        name.clone(),
                        Json::Obj(
                            family.iter().map(|(k, v)| (k.clone(), Json::Int(*v))).collect(),
                        ),
                    )
                })
                .collect(),
        );
        let histograms = Json::Obj(
            self.histograms
                .iter()
                .map(|(name, h)| (name.clone(), h.to_json()))
                .collect(),
        );
        Json::Obj(vec![
            ("counters".into(), counters),
            ("gauges".into(), gauges),
            ("histograms".into(), histograms),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_per_label() {
        let mut m = Metrics::default();
        m.counter_add("pkts", "r1", 2);
        m.counter_add("pkts", "r1", 3);
        m.counter_add("pkts", "r2", 1);
        assert_eq!(m.counter("pkts", "r1"), 5);
        assert_eq!(m.counter("pkts", "r2"), 1);
        assert_eq!(m.counter("pkts", "r3"), 0);
        assert_eq!(m.counter_total("pkts"), 6);
        assert_eq!(m.counter_family("pkts"), vec![("r1".into(), 5), ("r2".into(), 1)]);
    }

    #[test]
    fn gauges_overwrite() {
        let mut m = Metrics::default();
        m.gauge_set("flows", "wm", 7);
        m.gauge_set("flows", "wm", 3);
        assert_eq!(m.gauge("flows", "wm"), Some(3));
        assert_eq!(m.gauge("flows", "other"), None);
    }

    #[test]
    fn histogram_buckets_values_by_decade() {
        let mut m = Metrics::default();
        for v in [5, 50, 5_000, 50_000_000] {
            m.histogram_record("lat", v);
        }
        let h = m.histogram("lat").unwrap();
        assert_eq!(h.count(), 4);
        assert_eq!(h.sum(), 50_005_055);
        assert_eq!(h.counts, vec![1u64, 1, 0, 1, 0, 0, 0, 1]);
    }

    #[test]
    fn snapshot_is_deterministic_regardless_of_touch_order() {
        let mut a = Metrics::default();
        a.counter_add("z", "x", 1);
        a.counter_add("a", "y", 2);
        let mut b = Metrics::default();
        b.counter_add("a", "y", 2);
        b.counter_add("z", "x", 1);
        assert_eq!(a.snapshot().to_string(), b.snapshot().to_string());
        assert!(a.snapshot().to_string().find("\"a\"") < a.snapshot().to_string().find("\"z\""));
    }

    #[test]
    fn merge_is_order_independent_for_counters_and_histograms() {
        let shard = |seed: u64| {
            let mut m = Metrics::default();
            m.counter_add("pkts", "r1", seed);
            m.counter_add("pkts", &format!("only-{seed}"), 1);
            m.histogram_record("lat", seed * 100);
            m
        };
        let (a, b, c) = (shard(1), shard(2), shard(3));
        let mut fwd = Metrics::default();
        for m in [&a, &b, &c] {
            fwd.merge_from(m);
        }
        let mut rev = Metrics::default();
        for m in [&c, &b, &a] {
            rev.merge_from(m);
        }
        assert_eq!(fwd.snapshot().to_string(), rev.snapshot().to_string());
        assert_eq!(fwd.counter("pkts", "r1"), 6);
        assert_eq!(fwd.counter("pkts", "only-2"), 1);
        assert_eq!(fwd.histogram("lat").unwrap().count(), 3);
        assert_eq!(fwd.histogram("lat").unwrap().sum(), 600);
    }

    #[test]
    fn merge_saturates_and_overwrites_gauges_in_merge_order() {
        let mut a = Metrics::default();
        a.counter_add("c", "l", u64::MAX - 1);
        a.gauge_set("g", "l", 1);
        let mut b = Metrics::default();
        b.counter_add("c", "l", 10);
        b.gauge_set("g", "l", 2);
        a.merge_from(&b);
        assert_eq!(a.counter("c", "l"), u64::MAX);
        assert_eq!(a.gauge("g", "l"), Some(2), "later merge wins the gauge");
    }

    #[test]
    fn merging_into_an_empty_registry_copies_histograms() {
        let mut src = Metrics::default();
        for v in [5, 50_000_000] {
            src.histogram_record("lat", v);
        }
        let mut dst = Metrics::default();
        dst.merge_from(&src);
        assert_eq!(dst.snapshot().to_string(), src.snapshot().to_string());
    }

    #[test]
    fn counters_saturate_instead_of_wrapping() {
        let mut m = Metrics::default();
        m.counter_add("c", "l", u64::MAX);
        m.counter_add("c", "l", 10);
        assert_eq!(m.counter("c", "l"), u64::MAX);
    }
}
