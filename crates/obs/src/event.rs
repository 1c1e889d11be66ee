//! Structured events and spans, held in bounded rings.
//!
//! Both stores are capped: when a ring is full the *oldest* entry is
//! evicted and a drop counter ticks, so paper-scale runs hold memory
//! flat while the tail of the run — usually what a failing assertion
//! needs — stays available.

use std::collections::VecDeque;

use lucent_support::Json;

use crate::level::Level;

/// Default ring capacity for events and spans alike.
pub const DEFAULT_RING_CAP: usize = 65_536;

/// One structured event at an instant of virtual time.
#[derive(Debug, Clone)]
pub struct Event {
    /// Virtual time, microseconds since simulation start.
    pub at_us: u64,
    /// Verbosity level it was emitted at.
    pub level: Level,
    /// Subsystem target (`netsim`, `tcp`, `wiretap`, …).
    pub target: &'static str,
    /// Event name within the target.
    pub name: &'static str,
    /// Free-form payload, serialized in insertion order.
    pub fields: Vec<(String, Json)>,
}

impl Event {
    /// One JSON-lines record: a single-line, deterministic object.
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("at_us".into(), Json::UInt(self.at_us)),
            ("level".into(), Json::Str(self.level.name().to_string())),
            ("target".into(), Json::Str(self.target.to_string())),
            ("name".into(), Json::Str(self.name.to_string())),
            ("fields".into(), Json::Obj(self.fields.clone())),
        ])
    }
}

/// One completed interval over virtual time, destined for the Chrome
/// trace-event export (`ph: "X"`).
#[derive(Debug, Clone)]
pub struct Span {
    /// Slice name.
    pub name: &'static str,
    /// Category (`cat` in the trace-event format).
    pub cat: &'static str,
    /// Start, microseconds of virtual time.
    pub ts_us: u64,
    /// Duration, microseconds of virtual time.
    pub dur_us: u64,
    /// Track the slice renders on — we use the destination node id.
    pub tid: u64,
}

/// A bounded FIFO that evicts the oldest entry when full.
#[derive(Debug, Clone)]
pub struct Ring<T> {
    entries: VecDeque<T>,
    cap: usize,
    dropped: u64,
}

impl<T> Ring<T> {
    /// A ring holding at most `cap` entries (`cap` 0 drops everything).
    pub fn new(cap: usize) -> Self {
        Ring { entries: VecDeque::new(), cap, dropped: 0 }
    }

    /// Push, evicting the oldest entry when at capacity.
    pub fn push(&mut self, entry: T) {
        if self.cap == 0 {
            self.dropped += 1;
            return;
        }
        if self.entries.len() >= self.cap {
            self.entries.pop_front();
            self.dropped += 1;
        }
        self.entries.push_back(entry);
    }

    /// Change the capacity, evicting oldest entries if shrinking.
    pub fn set_cap(&mut self, cap: usize) {
        self.cap = cap;
        while self.entries.len() > cap {
            self.entries.pop_front();
            self.dropped += 1;
        }
    }

    /// Entries, oldest first.
    pub fn iter(&self) -> impl Iterator<Item = &T> {
        self.entries.iter()
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when nothing is held.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// How many entries have been evicted or refused so far.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Credit drops that happened elsewhere (a shard ring whose
    /// contents were absorbed into this one), so the merged drop count
    /// stays honest.
    pub fn add_dropped(&mut self, n: u64) {
        self.dropped = self.dropped.saturating_add(n);
    }

    /// Take every entry, oldest first, leaving the ring empty (cap and
    /// drop counter unchanged).
    pub fn drain(&mut self) -> Vec<T> {
        self.entries.drain(..).collect()
    }

    /// Drop all entries (the drop counter is unaffected).
    pub fn clear(&mut self) {
        self.entries.clear();
    }
}

impl<T> Default for Ring<T> {
    fn default() -> Self {
        Ring::new(DEFAULT_RING_CAP)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_evicts_oldest_at_capacity() {
        let mut r = Ring::new(3);
        for i in 0..5 {
            r.push(i);
        }
        assert_eq!(r.iter().copied().collect::<Vec<i32>>(), vec![2, 3, 4]);
        assert_eq!(r.len(), 3);
        assert_eq!(r.dropped(), 2);
    }

    #[test]
    fn shrinking_cap_evicts() {
        let mut r = Ring::new(4);
        for i in 0..4 {
            r.push(i);
        }
        r.set_cap(2);
        assert_eq!(r.iter().copied().collect::<Vec<i32>>(), vec![2, 3]);
        assert_eq!(r.dropped(), 2);
    }

    #[test]
    fn zero_cap_refuses_everything() {
        let mut r = Ring::new(0);
        r.push(1);
        assert!(r.is_empty());
        assert_eq!(r.dropped(), 1);
    }

    #[test]
    fn event_serializes_one_line() {
        let e = Event {
            at_us: 1_500,
            level: Level::Debug,
            target: "wiretap",
            name: "inject",
            fields: vec![("delay_us".into(), Json::Int(120))],
        };
        assert_eq!(
            e.to_json().to_string(),
            r#"{"at_us":1500,"level":"debug","target":"wiretap","name":"inject","fields":{"delay_us":120}}"#
        );
    }
}
