//! The event scheduler: a calendar queue (bucketed timing wheel) keyed
//! on [`SimTime`] with strict `(time, seq)` ordering.
//!
//! The engine's event mix is dominated by near-future work — link
//! latencies of microseconds to tens of milliseconds — with a thin tail
//! of far-future flow timers (the 2–3 minute middlebox flow timeouts).
//! A binary heap pays `O(log n)` per operation on every event; a
//! calendar queue pays `O(1)` amortized for the dense near-future mass
//! and only falls back to heap ordering for the sparse tail.
//!
//! Layout: three tiers, partitioned by the event's *slot*
//! (`at.micros() >> SLOT_LOG2`, i.e. 1024 µs per slot by default)
//! relative to the wheel's `base_slot`:
//!
//! * **due** — every item with `slot <= base_slot`, held as a *sorted
//!   run* plus a small *late heap*. The run is the bucket the wheel
//!   last advanced to, sorted once by `(at, seq)`; pushes that land at
//!   or before `base_slot` after that sort (same-instant work at the
//!   current time) go to the late heap. A pop takes the smaller of the
//!   two heads, so ordering within a slot is exact `(at, seq)`.
//! * **ring** — `SLOTS` unsorted buckets covering
//!   `base_slot < slot <= base_slot + SLOTS` (about one virtual second).
//!   The slot range is exactly one wheel revolution, so `slot & mask`
//!   is collision-free.
//! * **overflow** — a heap of everything beyond the ring horizon.
//!
//! Why a sorted run: a bucket is often large and almost always already
//! in order. The Figure 2 survey sends a resolver's queries at one
//! instant, so they cross the topology as a wave, and a single 1 ms
//! bucket can hold thousands of items, pushed in `(at, seq)` order.
//! Sorting an ordered bucket takes one pass and a reversal, where a
//! heap paid `O(log n)` per push and per pop (numbers in DESIGN §15).
//!
//! Advancing: when `due` drains, the wheel scans forward from
//! `base_slot + 1` to the first non-empty bucket, moves its items into
//! the run, releases the bucket's buffer down to [`BUCKET_KEEP`] items
//! and sorts the run; if the whole ring is empty it jumps straight
//! to the earliest overflow slot. After *every* advance the overflow
//! heap is drained of items that now fall inside the horizon — skipping
//! this would let a later ring push overtake an earlier overflow item.
//! `base_slot` is monotone, and each empty bucket is scanned past at
//! most once per virtual second of simulated time, so scanning
//! amortizes to a few comparisons per event.
//!
//! Determinism: `(at, seq)` is a *strict* total order over live items
//! (`seq` is unique), and every tier respects the slot partition, so
//! pop order is identical to a single binary heap's — the scheduler
//! swap is invisible to the event stream, which the deterministic-plane
//! profile golden pins down.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::time::SimTime;

/// Default log2 of the slot width in microseconds (1024 µs ≈ 1 ms).
pub const SLOT_LOG2: u32 = 10;
/// Default number of ring buckets (horizon ≈ 1.05 virtual seconds).
pub const SLOTS: usize = 1024;
/// The most items' worth of buffer a drained ring bucket keeps. Most
/// buckets never hold more than 16 items, so they never reallocate;
/// a Figure 2 wave of thousands gives its buffer back once the bucket
/// drains, instead of every bucket keeping the largest wave it held.
const BUCKET_KEEP: usize = 16;

/// One scheduled item: the engine's `(time, seq)` key plus payload.
#[derive(Debug, Clone)]
pub struct Scheduled<T> {
    /// When the item fires.
    pub at: SimTime,
    /// When it was enqueued (virtual time) — dwell = `at - queued_at`.
    pub queued_at: SimTime,
    /// FIFO tiebreak within an instant; unique per queue.
    pub seq: u64,
    /// The caller's event.
    pub payload: T,
}

impl<T> PartialEq for Scheduled<T> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<T> Eq for Scheduled<T> {}
impl<T> PartialOrd for Scheduled<T> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<T> Ord for Scheduled<T> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.at, self.seq).cmp(&(other.at, other.seq))
    }
}

/// A calendar queue over [`Scheduled`] items. See the module docs for
/// the tier invariants.
#[derive(Clone)]
pub struct CalendarQueue<T> {
    /// The sorted run of the `due` tier, latest item first, so the head
    /// pops off the end.
    run: Vec<Scheduled<T>>,
    /// The late heap of the `due` tier: pushes at or before `base_slot`
    /// made after the run was sorted.
    late: BinaryHeap<Reverse<Scheduled<T>>>,
    ring: Vec<Vec<Scheduled<T>>>,
    overflow: BinaryHeap<Reverse<Scheduled<T>>>,
    /// Highest slot whose items live in `due`; monotone.
    base_slot: u64,
    len: usize,
    slot_log2: u32,
    mask: u64,
}

impl<T> CalendarQueue<T> {
    /// A queue with the default geometry (1024 µs slots, 1024 buckets).
    pub fn fresh() -> Self {
        Self::with_geometry(SLOT_LOG2, SLOTS)
    }

    /// A queue with `2^slot_log2` µs slots and `slots` ring buckets
    /// (`slots` must be a power of two). Exposed so the equivalence
    /// oracle can shrink the horizon and force overflow traffic.
    pub fn with_geometry(slot_log2: u32, slots: usize) -> Self {
        assert!(slots.is_power_of_two(), "ring size must be a power of two");
        let mut ring = Vec::new();
        ring.resize_with(slots, Vec::default);
        CalendarQueue {
            run: Vec::new(),
            late: BinaryHeap::default(),
            ring,
            overflow: BinaryHeap::default(),
            base_slot: 0,
            len: 0,
            slot_log2,
            mask: (slots - 1) as u64,
        }
    }

    fn slot_of(&self, at: SimTime) -> u64 {
        at.micros() >> self.slot_log2
    }

    /// Number of ring buckets (the wheel horizon in slots).
    fn horizon(&self) -> u64 {
        self.mask + 1
    }

    /// Live items.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the queue holds no items.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Insert an item. `O(1)` amortized for items inside the wheel
    /// horizon, `O(log overflow)` beyond it.
    pub fn schedule(&mut self, item: Scheduled<T>) {
        let slot = self.slot_of(item.at);
        self.len += 1;
        if slot <= self.base_slot {
            self.late.push(Reverse(item));
        } else if slot - self.base_slot <= self.horizon() {
            self.ring[(slot & self.mask) as usize].push(item);
        } else {
            self.overflow.push(Reverse(item));
        }
    }

    /// Remove and return the earliest item by `(at, seq)`.
    pub fn pop_next(&mut self) -> Option<Scheduled<T>> {
        self.pop_next_before(SimTime(u64::MAX))
    }

    /// Remove and return the earliest item if it fires at or before
    /// `deadline`. The wheel advances eagerly even on a `None` return,
    /// parking the earliest items in the `due` tier — so a caller
    /// polling in small time slices pays the bucket scan once, not per
    /// slice.
    pub fn pop_next_before(&mut self, deadline: SimTime) -> Option<Scheduled<T>> {
        if self.len == 0 {
            return None;
        }
        if self.run.is_empty() && self.late.is_empty() {
            self.advance();
        }
        debug_assert!(
            !(self.run.is_empty() && self.late.is_empty()),
            "len > 0 but no tier produced an item"
        );
        let from_run = match (self.run.last(), self.late.peek()) {
            (Some(r), Some(Reverse(l))) => r < l,
            (r, _) => r.is_some(),
        };
        let head = if from_run { self.run.last() } else { self.late.peek().map(|Reverse(i)| i) };
        if head.is_none_or(|i| i.at > deadline) {
            return None;
        }
        self.len -= 1;
        if from_run {
            self.run.pop()
        } else {
            self.late.pop().map(|Reverse(i)| i)
        }
    }

    /// The `at` of the earliest item, without removing it.
    pub fn next_at(&self) -> Option<SimTime> {
        // Tier order is total: every `due` time precedes every ring
        // time (slot <= base_slot vs slot > base_slot), and every ring
        // time precedes every overflow time (inside vs beyond horizon).
        let run = self.run.last().map(|i| i.at);
        let late = self.late.peek().map(|Reverse(i)| i.at);
        if let Some(at) = run.into_iter().chain(late).min() {
            return Some(at);
        }
        for s in self.base_slot + 1..=self.base_slot + self.horizon() {
            let bucket = &self.ring[(s & self.mask) as usize];
            if let Some(min) = bucket.iter().map(|i| (i.at, i.seq)).min() {
                return Some(min.0);
            }
        }
        self.overflow.peek().map(|Reverse(i)| i.at)
    }

    /// Move `base_slot` forward to the next occupied slot and refill
    /// the run. Caller guarantees `len > 0` and the `due` tier is empty.
    fn advance(&mut self) {
        let mut found = false;
        for s in self.base_slot + 1..=self.base_slot + self.horizon() {
            let idx = (s & self.mask) as usize;
            if !self.ring[idx].is_empty() {
                self.base_slot = s;
                // Moves the items, not the buffers: a swap would strand
                // the run's large buffer in the bucket. The bucket then
                // gives back all but `BUCKET_KEEP` items' worth.
                self.run.append(&mut self.ring[idx]);
                self.ring[idx].shrink_to(BUCKET_KEEP);
                found = true;
                break;
            }
        }
        if !found {
            // Whole ring empty: jump to the earliest overflow slot.
            if let Some(Reverse(min)) = self.overflow.peek() {
                self.base_slot = self.slot_of(min.at);
            }
        }
        // Restore the tier invariant: anything in overflow that now
        // falls inside the horizon moves into the wheel (or straight
        // into the run for the slot we just advanced to). Without this,
        // a ring push made after the advance could be popped before an
        // earlier overflow item.
        while let Some(Reverse(head)) = self.overflow.peek() {
            let slot = self.slot_of(head.at);
            if slot > self.base_slot + self.horizon() {
                break;
            }
            let Some(Reverse(item)) = self.overflow.pop() else {
                break;
            };
            if slot <= self.base_slot {
                self.run.push(item);
            } else {
                self.ring[(slot & self.mask) as usize].push(item);
            }
        }
        // Latest first, so the earliest item pops off the end.
        self.run.sort_unstable_by(|a, b| b.cmp(a));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn item(at_us: u64, seq: u64) -> Scheduled<u64> {
        Scheduled { at: SimTime(at_us), queued_at: SimTime::ZERO, seq, payload: seq }
    }

    fn drain_order(q: &mut CalendarQueue<u64>) -> Vec<(u64, u64)> {
        let mut out = Vec::new();
        while let Some(i) = q.pop_next() {
            out.push((i.at.micros(), i.seq));
        }
        out
    }

    #[test]
    fn pops_in_time_then_seq_order() {
        let mut q = CalendarQueue::fresh();
        q.schedule(item(5_000, 0));
        q.schedule(item(1_000, 1));
        q.schedule(item(1_000, 2));
        q.schedule(item(0, 3));
        assert_eq!(q.len(), 4);
        assert_eq!(drain_order(&mut q), vec![(0, 3), (1_000, 1), (1_000, 2), (5_000, 0)]);
        assert!(q.is_empty());
    }

    #[test]
    fn far_future_items_route_through_overflow() {
        // 180 s flow timeout vs millisecond traffic, default horizon ~1 s.
        let mut q = CalendarQueue::fresh();
        q.schedule(item(180_000_000, 0));
        q.schedule(item(2_000, 1));
        assert_eq!(drain_order(&mut q), vec![(2_000, 1), (180_000_000, 0)]);
    }

    #[test]
    fn overflow_drains_before_later_ring_pushes() {
        // Regression shape for the advance() invariant: an overflow
        // item must not be overtaken by a ring item pushed after the
        // wheel advanced past the original horizon.
        let mut q = CalendarQueue::with_geometry(4, 8); // 16 µs slots, 128 µs horizon
        q.schedule(item(10, 0));
        q.schedule(item(500, 1)); // beyond the 128 µs horizon: overflow
        assert_eq!(q.pop_next().map(|i| i.seq), Some(0));
        // The wheel will jump to slot(500); a push landing just before
        // 500 µs must still come out first.
        q.schedule(item(499, 2));
        q.schedule(item(501, 3));
        assert_eq!(drain_order(&mut q), vec![(499, 2), (500, 1), (501, 3)]);
    }

    #[test]
    fn same_instant_pushes_at_base_go_to_due() {
        let mut q = CalendarQueue::fresh();
        q.schedule(item(0, 0));
        assert_eq!(q.pop_next().map(|i| i.seq), Some(0));
        // Injected "now" work while the wheel sits at slot 0.
        q.schedule(item(0, 1));
        q.schedule(item(0, 2));
        assert_eq!(drain_order(&mut q), vec![(0, 1), (0, 2)]);
    }

    #[test]
    fn a_bucket_pushed_out_of_order_pops_in_time_then_seq_order() {
        // Every item lands in slot 1 (1024..2048 µs), in scrambled time
        // and seq order; the run is sorted once when the wheel reaches it.
        let mut q = CalendarQueue::fresh();
        for (at, seq) in [(1_500, 5), (1_100, 7), (1_500, 2), (2_047, 0), (1_024, 9), (1_100, 3)] {
            q.schedule(item(at, seq));
        }
        assert_eq!(
            drain_order(&mut q),
            vec![(1_024, 9), (1_100, 3), (1_100, 7), (1_500, 2), (1_500, 5), (2_047, 0)]
        );
    }

    #[test]
    fn pushes_into_a_half_consumed_run_interleave() {
        let mut q = CalendarQueue::fresh();
        for (seq, at) in [1_100, 1_300, 1_500, 1_700].into_iter().enumerate() {
            q.schedule(item(at, seq as u64));
        }
        // The first pop sorts slot 1 into the run and takes its head.
        assert_eq!(q.pop_next().map(|i| (i.at.micros(), i.seq)), Some((1_100, 0)));
        // Pushes into the current slot, now at 1 100 µs: at the current
        // instant, ahead of the run's head, tied with a run item, and
        // between two run items.
        q.schedule(item(1_300, 4));
        q.schedule(item(1_200, 5));
        q.schedule(item(1_600, 6));
        q.schedule(item(1_100, 7));
        assert_eq!(q.next_at(), Some(SimTime(1_100)));
        assert_eq!(q.pop_next().map(|i| (i.at.micros(), i.seq)), Some((1_100, 7)));
        // A push into the next slot waits for the whole current one.
        q.schedule(item(2_100, 8));
        let got = drain_order(&mut q);
        assert_eq!(
            got[..6],
            [(1_200, 5), (1_300, 1), (1_300, 4), (1_500, 2), (1_600, 6), (1_700, 3)]
        );
        assert_eq!(got[6..], [(2_100, 8)]);
    }

    #[test]
    fn next_at_sees_every_tier() {
        let mut q = CalendarQueue::with_geometry(4, 8);
        assert_eq!(q.next_at(), None);
        q.schedule(item(10_000, 0)); // overflow
        assert_eq!(q.next_at(), Some(SimTime(10_000)));
        q.schedule(item(40, 1)); // ring
        assert_eq!(q.next_at(), Some(SimTime(40)));
        q.schedule(item(0, 2)); // due
        assert_eq!(q.next_at(), Some(SimTime(0)));
        // Peeking never consumes.
        assert_eq!(q.len(), 3);
        assert_eq!(drain_order(&mut q), vec![(0, 2), (40, 1), (10_000, 0)]);
    }

    #[test]
    fn a_drained_wave_leaves_every_bucket_small() {
        // A Figure-2-sized wave: 3,000 items in each of four
        // consecutive 1 ms slots.
        let wave = |q: &mut CalendarQueue<u64>, first_slot: u64, seq: &mut u64| {
            let mut want = Vec::new();
            for slot in first_slot..first_slot + 4 {
                for k in 0..3_000 {
                    let at = (slot << SLOT_LOG2) + k % 1_000;
                    want.push((at, *seq));
                    q.schedule(item(at, *seq));
                    *seq += 1;
                }
            }
            want.sort_unstable();
            want
        };
        let all_small = |q: &CalendarQueue<u64>| q.ring.iter().all(|b| b.capacity() <= BUCKET_KEEP);
        let mut q = CalendarQueue::fresh();
        let mut seq = 0;
        let want = wave(&mut q, 3, &mut seq);
        assert_eq!(drain_order(&mut q), want);
        assert!(all_small(&q), "a drained bucket kept the first wave");
        // After the wheel wraps, the same buckets fill again and still
        // pop in `(at, seq)` order.
        let want = wave(&mut q, 3 + SLOTS as u64, &mut seq);
        assert_eq!(drain_order(&mut q), want);
        assert!(all_small(&q), "a drained bucket kept the second wave");
    }

    #[test]
    fn matches_a_heap_model_on_a_mixed_burst() {
        // Dense same-tick bursts + sparse tail, tiny geometry so every
        // tier is exercised; the check-crate oracle does the randomized
        // version of this against the same model.
        let mut q = CalendarQueue::with_geometry(2, 4);
        let mut model = std::collections::BinaryHeap::new();
        let times = [0u64, 0, 3, 3, 3, 17, 17, 40, 1_000, 1_000, 7, 0, 999];
        for (seq, &t) in times.iter().enumerate() {
            q.schedule(item(t, seq as u64));
            model.push(Reverse((t, seq as u64)));
        }
        let mut want = Vec::new();
        while let Some(Reverse(pair)) = model.pop() {
            want.push(pair);
        }
        assert_eq!(drain_order(&mut q), want);
    }
}
