//! The [`Network`]: nodes, links, the event queue and the virtual clock.

use std::any::Any;
use std::collections::BTreeMap;
use std::rc::Rc;

use lucent_obs::metrics::Histogram;
use lucent_obs::Telemetry;
use lucent_packet::Packet;

use crate::node::{IfaceId, Node, NodeCtx, NodeId, WAKE};
use crate::sched::{CalendarQueue, Scheduled};
use crate::slab::{PacketSlab, PacketSlot};
use crate::time::{SimDuration, SimTime};
use crate::trace::{Dir, TraceHandle};

// The per-hop instruments the engine holds between publishes (see
// `Network`).
const FORWARDED: &str = "netsim.router.forwarded";
const LINK_LATENCY: &str = "netsim.link.latency_us";

/// Why the engine itself discarded a packet (node-level drops are traced by
/// the nodes; these are wiring-level).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum DropReason {
    /// Sent out an interface with no link attached.
    UnconnectedIface,
}

#[derive(Debug, Clone, Copy)]
struct Endpoint {
    peer: NodeId,
    peer_iface: IfaceId,
    latency: SimDuration,
}

#[derive(Clone)]
enum EventKind {
    /// Delivery of a packet held in the slab; the event owns the slot
    /// and exactly one `reclaim` happens when it pops.
    Deliver { node: NodeId, iface: IfaceId, slot: PacketSlot },
    Timer { node: NodeId, token: u64 },
}

/// Engine internals shared with [`NodeCtx`]; lives in its own struct so a
/// node callback can enqueue effects while the node itself is borrowed
/// from the node table.
pub(crate) struct Inner {
    pub(crate) now: SimTime,
    sched: CalendarQueue<EventKind>,
    packets: PacketSlab,
    seq: u64,
    /// Wiring, fixed once the world is built; clones share it.
    links: Rc<Vec<Vec<Option<Endpoint>>>>,
    pub(crate) trace: TraceHandle,
    pub(crate) telemetry: Telemetry,
    drops: BTreeMap<DropReason, u64>,
    events_processed: u64,
    queue_hwm: u64,
    /// `netsim.router.forwarded` per node since the last publish, and
    /// the nodes whose count is nonzero.
    forwarded: Vec<u64>,
    forwarded_nodes: Vec<usize>,
    /// `netsim.link.latency_us` since the last publish.
    latency: Histogram,
}

impl Inner {
    fn push(&mut self, at: SimTime, kind: EventKind) {
        let seq = self.seq;
        self.seq += 1;
        self.sched.schedule(Scheduled { at, queued_at: self.now, seq, payload: kind });
        // Track the high-water mark unconditionally: one compare per
        // push, and the profiler can report it without having been
        // enabled before the world was built.
        let depth = self.sched.len() as u64;
        if depth > self.queue_hwm {
            self.queue_hwm = depth;
        }
    }

    pub(crate) fn transmit(
        &mut self,
        from: NodeId,
        label: &str,
        iface: IfaceId,
        pkt: Packet,
        extra_delay: SimDuration,
    ) {
        self.trace.record(self.now, from, label, Dir::Tx, &pkt);
        let ep = self
            .links
            .get(from.0 as usize)
            .and_then(|ifaces| ifaces.get(usize::from(iface.0)))
            .copied()
            .flatten();
        match ep {
            Some(ep) => {
                let delay = ep.latency + extra_delay;
                self.latency.record(delay.micros());
                let at = self.now + delay;
                let slot = self.packets.stash(pkt);
                self.push(at, EventKind::Deliver { node: ep.peer, iface: ep.peer_iface, slot });
            }
            None => {
                *self.drops.entry(DropReason::UnconnectedIface).or_insert(0) += 1;
                self.telemetry.counter_inc("netsim.dropped", "unconnected-iface");
            }
        }
    }

    pub(crate) fn count_forwarded(&mut self, node: NodeId) {
        let i = node.0 as usize;
        if let Some(n) = self.forwarded.get_mut(i) {
            if *n == 0 {
                self.forwarded_nodes.push(i);
            }
            *n += 1;
        }
    }

    pub(crate) fn schedule_timer(&mut self, node: NodeId, delay: SimDuration, token: u64) {
        let at = self.now + delay;
        self.push(at, EventKind::Timer { node, token });
    }
}

/// A simulated network: a set of [`Node`]s wired by point-to-point links,
/// advanced one event at a time.
///
/// `clone` is copy-on-write: the clone shares every node (and the
/// wiring) with the original, and the first mutable access to a node —
/// an event dispatched to it, or [`Network::node_mut`] — gives that
/// network its own copy. The clock, sequence counter, event queue,
/// packet slab, counters and telemetry are copied outright, so a clone
/// behaves exactly like the network it was taken from, and nothing
/// either one does afterwards is visible to the other.
///
/// Two per-hop instruments are held by the engine rather than updated
/// in the registry on every hop: the `netsim.router.forwarded{router}`
/// counter ([`NodeCtx::count_forwarded`]) and the
/// `netsim.link.latency_us` histogram. Every event-processing call
/// ([`Network::step`], [`Network::step_before`], [`Network::run_until`],
/// [`Network::run_until_idle`], [`Network::run_for`]) publishes them to
/// the telemetry registry before it returns, so between calls nothing is
/// pending and every reader of the registry sees exact values.
///
/// ```
/// use lucent_netsim::{Network, RouterNode, SimDuration, IfaceId};
/// use lucent_netsim::routing::Cidr;
/// use std::net::Ipv4Addr;
///
/// let mut net = Network::new();
/// let r = net.add_node(Box::new(RouterNode::new(Ipv4Addr::new(10, 0, 0, 1), "r1")));
/// assert_eq!(net.node_count(), 1);
/// net.node_mut::<RouterNode>(r).unwrap().table.add(Cidr::new(Ipv4Addr::new(10, 0, 0, 0), 8), IfaceId(0));
/// net.run_for(SimDuration::from_millis(5));
/// assert_eq!(net.now().millis(), 5);
/// ```
pub struct Network {
    inner: Inner,
    nodes: Vec<Rc<dyn Node>>,
    labels: Rc<Vec<String>>,
}

impl Clone for Network {
    fn clone(&self) -> Network {
        let telemetry = self.inner.telemetry.fork();
        let trace = self.inner.trace.fork(Telemetry::clone(&telemetry));
        Network {
            inner: Inner {
                now: self.inner.now,
                sched: self.inner.sched.clone(),
                packets: self.inner.packets.clone(),
                seq: self.inner.seq,
                links: Rc::clone(&self.inner.links),
                trace,
                telemetry,
                drops: self.inner.drops.clone(),
                events_processed: self.inner.events_processed,
                queue_hwm: self.inner.queue_hwm,
                forwarded: self.inner.forwarded.clone(),
                forwarded_nodes: self.inner.forwarded_nodes.clone(),
                latency: self.inner.latency.clone(),
            },
            nodes: self.nodes.clone(),
            labels: Rc::clone(&self.labels),
        }
    }
}

/// The node in `slot`, made private to this network first: a node still
/// shared with another clone is replaced by a copy of its own.
fn unshare(slot: &mut Rc<dyn Node>) -> Option<&mut dyn Node> {
    if Rc::get_mut(slot).is_none() {
        *slot = (**slot).clone_node();
    }
    Rc::get_mut(slot)
}

/// An event's destination node, private to this network, and its label.
/// Takes the two tables rather than the network so the caller can lend
/// the engine internals to the node at the same time.
fn target<'a>(
    nodes: &'a mut [Rc<dyn Node>],
    labels: &'a [String],
    node: NodeId,
) -> Option<(&'a mut dyn Node, &'a str)> {
    let i = node.0 as usize;
    Some((unshare(nodes.get_mut(i)?)?, labels.get(i)?))
}

impl Default for Network {
    fn default() -> Self {
        Self::new()
    }
}

impl Network {
    /// An empty network at time zero.
    pub fn new() -> Self {
        let telemetry = Telemetry::new();
        let trace = TraceHandle::new();
        // UFCS spells out that this is a cheap shared-state handle, not
        // a deep copy — same convention as `Rc::clone(&x)`.
        trace.attach_bus(Telemetry::clone(&telemetry));
        Network {
            inner: Inner {
                now: SimTime::ZERO,
                sched: CalendarQueue::fresh(),
                packets: PacketSlab::default(),
                seq: 0,
                links: Rc::default(),
                trace,
                telemetry,
                drops: BTreeMap::new(),
                events_processed: 0,
                queue_hwm: 0,
                forwarded: Vec::new(),
                forwarded_nodes: Vec::new(),
                latency: Histogram::default(),
            },
            nodes: Vec::new(),
            labels: Rc::default(),
        }
    }

    /// Add a node; returns its id.
    ///
    /// Panics if the node table outgrows the 32-bit id space: like
    /// [`Network::connect`], topology-construction bugs fail loudly at
    /// build time instead of silently aliasing ids later.
    pub fn add_node(&mut self, node: Box<dyn Node>) -> NodeId {
        let count = self.nodes.len();
        assert!(
            u32::try_from(count).is_ok(),
            "node table overflow: {count} nodes exhausts the u32 id space"
        );
        let id = NodeId(count as u32);
        self.inner.telemetry.set_thread_name(u64::from(id.0), node.label());
        Rc::make_mut(&mut self.labels).push(node.label().to_string());
        self.nodes.push(Rc::from(node));
        Rc::make_mut(&mut self.inner.links).push(Vec::new());
        self.inner.forwarded.push(0);
        id
    }

    /// Connect `(a, ai)` to `(b, bi)` with symmetric latency.
    ///
    /// Panics if either interface is already connected: topology bugs must
    /// fail loudly at build time, not silently misroute packets later.
    pub fn connect(&mut self, a: NodeId, ai: IfaceId, b: NodeId, bi: IfaceId, latency: SimDuration) {
        let links = Rc::make_mut(&mut self.inner.links);
        let slot_a = Self::iface_slot(links, a, ai);
        assert!(slot_a.is_none(), "iface {ai:?} of node {a:?} already connected");
        *slot_a = Some(Endpoint { peer: b, peer_iface: bi, latency });
        let slot_b = Self::iface_slot(links, b, bi);
        assert!(slot_b.is_none(), "iface {bi:?} of node {b:?} already connected");
        *slot_b = Some(Endpoint { peer: a, peer_iface: ai, latency });
    }

    fn iface_slot(
        links: &mut [Vec<Option<Endpoint>>],
        n: NodeId,
        i: IfaceId,
    ) -> &mut Option<Endpoint> {
        let ifaces = &mut links[n.0 as usize];
        let idx = usize::from(i.0);
        if ifaces.len() <= idx {
            ifaces.resize(idx + 1, None);
        }
        &mut ifaces[idx]
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.inner.now
    }

    /// The shared packet trace.
    pub fn trace(&self) -> TraceHandle {
        self.inner.trace.clone()
    }

    /// The shared telemetry handle (events, metrics, spans).
    pub fn telemetry(&self) -> Telemetry {
        self.inner.telemetry.clone()
    }

    /// The label a node was added with.
    pub fn label_of(&self, id: NodeId) -> &str {
        self.labels.get(id.0 as usize).map(String::as_str).unwrap_or("")
    }

    /// Number of nodes in the network.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of point-to-point links (each `connect` call is one link).
    pub fn link_count(&self) -> usize {
        self.inner
            .links
            .iter()
            .map(|ifaces| ifaces.iter().filter(|e| e.is_some()).count())
            .sum::<usize>()
            / 2
    }

    /// Total events processed so far.
    pub fn events_processed(&self) -> u64 {
        self.inner.events_processed
    }

    /// Deepest the event queue has ever been — a deterministic function
    /// of the event stream, profiled as scheduler back-pressure.
    pub fn queue_depth_hwm(&self) -> u64 {
        self.inner.queue_hwm
    }

    /// Wiring-level drop counters.
    pub fn drops(&self, reason: DropReason) -> u64 {
        self.inner.drops.get(&reason).copied().unwrap_or(0)
    }

    /// Borrow a node, downcast to its concrete type. `None` when the id
    /// is unknown or the node is not a `T`.
    pub fn node_ref<T: Node>(&self, id: NodeId) -> Option<&T> {
        let node: &dyn Any = &**self.nodes.get(id.0 as usize)?;
        node.downcast_ref::<T>()
    }

    /// Borrow a node mutably, downcast to its concrete type. `None`
    /// under the same conditions as [`Network::node_ref`]. A node still
    /// shared with a clone of this network is copied first.
    pub fn node_mut<T: Node>(&mut self, id: NodeId) -> Option<&mut T> {
        let slot = self.nodes.get_mut(id.0 as usize)?;
        if !(&**slot as &dyn Any).is::<T>() {
            return None;
        }
        let node: &mut dyn Any = unshare(slot)?;
        node.downcast_mut::<T>()
    }

    /// Enqueue a [`crate::WAKE`] timer for `node` at the current instant —
    /// the driver-side kick after mutating application state through
    /// [`Network::node_mut`].
    pub fn wake(&mut self, node: NodeId) {
        self.inner.schedule_timer(node, SimDuration::ZERO, WAKE);
    }

    /// Deliver `pkt` to `node` on `iface` at the current instant, as if it
    /// had arrived from a link. Used by tests and fault injection.
    pub fn inject(&mut self, node: NodeId, iface: IfaceId, pkt: Packet) {
        let slot = self.inner.packets.stash(pkt);
        self.inner.push(self.inner.now, EventKind::Deliver { node, iface, slot });
    }

    /// The time of the next pending event, if any.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.inner.sched.next_at()
    }

    /// Most packets ever simultaneously in flight — the packet slab's
    /// resident footprint.
    pub fn packets_in_flight_hwm(&self) -> usize {
        self.inner.packets.live_hwm()
    }

    /// Process one event. Returns `false` when the queue is empty.
    pub fn step(&mut self) -> bool {
        let stepped = self.process_next();
        self.publish();
        stepped
    }

    /// Process one event without publishing the engine-held instruments.
    fn process_next(&mut self) -> bool {
        let Some(ev) = self.inner.sched.pop_next() else {
            return false;
        };
        self.dispatch(ev);
        true
    }

    /// Move the engine-held instruments into the telemetry registry.
    fn publish(&mut self) {
        let inner = &mut self.inner;
        for i in inner.forwarded_nodes.drain(..) {
            let (Some(n), Some(label)) = (inner.forwarded.get_mut(i), self.labels.get(i)) else {
                continue;
            };
            inner.telemetry.counter_add(FORWARDED, label, std::mem::take(n));
        }
        if inner.latency.count() > 0 {
            inner.telemetry.absorb_histogram(LINK_LATENCY, &inner.latency);
            inner.latency.clear();
        }
    }

    fn dispatch(&mut self, ev: Scheduled<EventKind>) {
        debug_assert!(ev.at >= self.inner.now, "time went backwards");
        self.inner.now = ev.at;
        self.inner.events_processed += 1;
        if self.inner.telemetry.spans_enabled() {
            // One slice per event-loop dispatch, spanning the virtual
            // time the event spent in flight, on the destination node's
            // track — the Chrome-trace view of the event loop.
            let (name, tid) = match &ev.payload {
                EventKind::Deliver { node, .. } => ("deliver", u64::from(node.0)),
                EventKind::Timer { node, token } if *token == WAKE => {
                    ("wake", u64::from(node.0))
                }
                EventKind::Timer { node, .. } => ("timer", u64::from(node.0)),
            };
            let ts = ev.queued_at.micros();
            self.inner.telemetry.span(name, "netsim", ts, ev.at.micros() - ts, tid);
        }
        if self.inner.telemetry.prof_enabled() {
            // The profiler's per-kind pop counter and virtual-time
            // dwell (enqueue → dispatch) histogram. Static labels only:
            // this path runs once per simulator event.
            let kind = match &ev.payload {
                EventKind::Deliver { .. } => "deliver",
                EventKind::Timer { token, .. } if *token == WAKE => "wake",
                EventKind::Timer { .. } => "timer",
            };
            let dwell = ev.at.micros() - ev.queued_at.micros();
            self.inner.telemetry.prof_pop(kind, dwell);
        }
        match ev.payload {
            EventKind::Deliver { node, iface, slot } => {
                // Reclaim before the node lookup so the slot is freed
                // even when the destination was removed mid-flight.
                let Some(pkt) = self.inner.packets.reclaim(slot) else {
                    return; // not live: already treated as dropped
                };
                let Some((target, label)) = target(&mut self.nodes, &self.labels, node) else {
                    return; // unknown node: drop
                };
                self.inner.trace.record(self.inner.now, node, label, Dir::Rx, &pkt);
                let mut ctx = NodeCtx { inner: &mut self.inner, node, label };
                target.on_packet(&mut ctx, iface, pkt);
            }
            EventKind::Timer { node, token } => {
                let Some((target, label)) = target(&mut self.nodes, &self.labels, node) else {
                    return;
                };
                let mut ctx = NodeCtx { inner: &mut self.inner, node, label };
                target.on_timer(&mut ctx, token);
            }
        }
    }

    /// Process the next event only if it is due at or before `deadline`.
    ///
    /// Returns `true` if an event was processed. When the next event lies
    /// beyond the deadline (or the queue is empty), the clock is advanced
    /// to `deadline` and `false` is returned — the driver's virtual
    /// timeout primitive. Goes through the scheduler's deadline-aware
    /// pop rather than a read-only peek, so slice-polling drivers never
    /// rescan the wheel.
    pub fn step_before(&mut self, deadline: SimTime) -> bool {
        let stepped = self.process_next_before(deadline);
        self.publish();
        stepped
    }

    /// [`Network::step_before`] without publishing the engine-held
    /// instruments.
    fn process_next_before(&mut self, deadline: SimTime) -> bool {
        match self.inner.sched.pop_next_before(deadline) {
            Some(ev) => {
                self.dispatch(ev);
                true
            }
            None => {
                if self.inner.now < deadline {
                    self.inner.now = deadline;
                }
                false
            }
        }
    }

    /// Run until the queue is empty or `max_events` have been processed.
    /// Returns the number of events processed.
    pub fn run_until_idle(&mut self, max_events: u64) -> u64 {
        let mut n = 0;
        while n < max_events && self.process_next() {
            n += 1;
        }
        self.publish();
        n
    }

    /// Run all events due at or before `deadline`, then advance the clock
    /// to `deadline`.
    pub fn run_until(&mut self, deadline: SimTime) {
        while self.process_next_before(deadline) {}
        self.publish();
    }

    /// Run for `d` of virtual time from now.
    pub fn run_for(&mut self, d: SimDuration) {
        let deadline = self.inner.now + d;
        self.run_until(deadline);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lucent_packet::{Packet, UdpHeader};
    use std::net::Ipv4Addr;

    /// Echoes every UDP packet back out the interface it came from, after
    /// a configurable think time.
    #[derive(Clone)]
    struct Echo {
        think: SimDuration,
        seen: u32,
    }

    impl Node for Echo {
        fn on_packet(&mut self, ctx: &mut NodeCtx<'_>, iface: IfaceId, pkt: Packet) {
            self.seen += 1;
            let reply = Packet::udp(pkt.dst(), pkt.src(), UdpHeader::new(7, 7), &b"echo"[..]);
            ctx.send_delayed(iface, reply, self.think);
        }
        fn label(&self) -> &str {
            "echo"
        }
    }

    /// Counts deliveries; on WAKE sends one probe.
    #[derive(Clone)]
    struct Probe {
        target_iface: IfaceId,
        got: Vec<SimTime>,
    }

    impl Node for Probe {
        fn on_packet(&mut self, ctx: &mut NodeCtx<'_>, _iface: IfaceId, _pkt: Packet) {
            self.got.push(ctx.now());
        }
        fn on_timer(&mut self, ctx: &mut NodeCtx<'_>, token: u64) {
            if token == WAKE {
                let p = Packet::udp(
                    Ipv4Addr::new(10, 0, 0, 1),
                    Ipv4Addr::new(10, 0, 0, 2),
                    UdpHeader::new(7, 7),
                    &b"ping"[..],
                );
                ctx.send(self.target_iface, p);
            }
        }
        fn label(&self) -> &str {
            "probe"
        }
    }

    fn two_node_net(latency_ms: u64, think_ms: u64) -> (Network, NodeId, NodeId) {
        let mut net = Network::new();
        let a = net.add_node(Box::new(Probe { target_iface: IfaceId::PRIMARY, got: vec![] }));
        let b = net.add_node(Box::new(Echo { think: SimDuration::from_millis(think_ms), seen: 0 }));
        net.connect(a, IfaceId::PRIMARY, b, IfaceId::PRIMARY, SimDuration::from_millis(latency_ms));
        (net, a, b)
    }

    #[test]
    fn round_trip_latency_is_symmetric() {
        let (mut net, a, b) = two_node_net(5, 2);
        net.wake(a);
        net.run_until_idle(100);
        assert_eq!(net.node_ref::<Echo>(b).unwrap().seen, 1);
        let got = &net.node_ref::<Probe>(a).unwrap().got;
        assert_eq!(got.len(), 1);
        // 5ms there + 2ms think + 5ms back.
        assert_eq!(got[0], SimTime::ZERO + SimDuration::from_millis(12));
    }

    #[test]
    fn unconnected_iface_counts_drop() {
        let mut net = Network::new();
        let a = net.add_node(Box::new(Probe { target_iface: IfaceId(3), got: vec![] }));
        net.wake(a);
        net.run_until_idle(10);
        assert_eq!(net.drops(DropReason::UnconnectedIface), 1);
    }

    #[test]
    fn step_before_respects_deadline_and_advances_clock() {
        let (mut net, a, _) = two_node_net(50, 0);
        net.wake(a);
        // Only the wake timer (t=0) and the transmit fit before t=10ms.
        let deadline = SimTime::ZERO + SimDuration::from_millis(10);
        net.run_until(deadline);
        assert_eq!(net.now(), deadline);
        assert!(net.node_ref::<Probe>(a).unwrap().got.is_empty());
        // Finishing the run delivers the echo at 100ms.
        net.run_until_idle(100);
        assert_eq!(net.node_ref::<Probe>(a).unwrap().got.len(), 1);
        assert_eq!(net.now(), SimTime::ZERO + SimDuration::from_millis(100));
    }

    #[test]
    fn events_at_same_instant_preserve_fifo_order() {
        // Two wakes at t=0 must fire in the order they were enqueued.
        let (mut net, a, _) = two_node_net(1, 0);
        net.wake(a);
        net.wake(a);
        net.run_until_idle(100);
        assert_eq!(net.node_ref::<Probe>(a).unwrap().got.len(), 2);
        assert_eq!(net.events_processed(), 2 + 2 + 2); // 2 wakes, 2 delivers at echo, 2 replies
    }

    #[test]
    #[should_panic(expected = "already connected")]
    fn double_connect_panics() {
        let (mut net, a, b) = two_node_net(1, 0);
        net.connect(a, IfaceId::PRIMARY, b, IfaceId(1), SimDuration::ZERO);
    }

    #[test]
    fn inject_delivers_immediately() {
        let (mut net, _, b) = two_node_net(1, 0);
        let p = Packet::udp(
            Ipv4Addr::new(1, 1, 1, 1),
            Ipv4Addr::new(2, 2, 2, 2),
            UdpHeader::new(9, 9),
            &b"inj"[..],
        );
        net.inject(b, IfaceId::PRIMARY, p);
        net.run_until_idle(10);
        assert_eq!(net.node_ref::<Echo>(b).unwrap().seen, 1);
    }

    #[test]
    fn run_until_idle_respects_event_budget() {
        let (mut net, a, _) = two_node_net(1, 1);
        net.wake(a);
        let n = net.run_until_idle(2);
        assert_eq!(n, 2);
        assert!(net.peek_time().is_some());
    }

    #[test]
    fn profiler_counts_pops_dwell_and_queue_hwm() {
        let (mut net, a, _) = two_node_net(5, 2);
        net.telemetry().enable_prof(true);
        net.wake(a);
        net.run_until_idle(100);
        let t = net.telemetry();
        assert_eq!(
            t.counter_total("prof.sched.pops"),
            net.events_processed(),
            "every pop is profiled"
        );
        assert_eq!(t.counter("prof.sched.pops", "wake"), 1);
        assert!(t.counter("prof.sched.pops", "deliver") >= 2);
        assert!(net.queue_depth_hwm() >= 1);
        let dwell: u64 = t
            .histogram_buckets("prof.sched.dwell_us.deliver")
            .unwrap()
            .iter()
            .sum();
        assert_eq!(dwell, t.counter("prof.sched.pops", "deliver"), "dwell counts conserve pops");
    }

    #[test]
    fn profiling_leaves_results_untouched() {
        let run = |prof: bool| {
            let (mut net, a, b) = two_node_net(5, 2);
            net.telemetry().enable_prof(prof);
            net.wake(a);
            net.run_until_idle(100);
            (
                net.node_ref::<Echo>(b).unwrap().seen,
                net.node_ref::<Probe>(a).unwrap().got.clone(),
                net.events_processed(),
                net.queue_depth_hwm(),
            )
        };
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn writes_to_a_clone_never_reach_the_original() {
        let (mut net, a, b) = two_node_net(5, 2);
        net.telemetry().counter_inc("built", "x");
        let mut copy = net.clone();
        copy.node_mut::<Echo>(b).unwrap().think = SimDuration::from_millis(9);
        copy.trace().enable_all();
        copy.telemetry().counter_inc("built", "x");
        copy.wake(a);
        copy.run_until_idle(100);
        // 5 ms there, the clone's 9 ms think time, 5 ms back.
        let at = |ms| vec![SimTime::ZERO + SimDuration::from_millis(ms)];
        assert_eq!(copy.node_ref::<Probe>(a).unwrap().got, at(19));
        assert_eq!(copy.trace().len(), 4);

        // The original's nodes, clock, queue, trace and registry are as
        // they were before the clone ran.
        assert_eq!(net.node_ref::<Echo>(b).unwrap().think, SimDuration::from_millis(2));
        assert_eq!(net.node_ref::<Echo>(b).unwrap().seen, 0);
        assert!(net.node_ref::<Probe>(a).unwrap().got.is_empty());
        assert_eq!((net.events_processed(), net.now(), net.peek_time()), (0, SimTime::ZERO, None));
        assert!(net.trace().is_empty());
        assert_eq!(net.telemetry().counter("built", "x"), 1);
        assert_eq!(copy.telemetry().counter("built", "x"), 2);
        net.wake(a);
        net.run_until_idle(100);
        assert_eq!(net.node_ref::<Probe>(a).unwrap().got, at(12));
    }

    /// probe -- 1 ms -- router "r" -- 2 ms -- echo (no think time).
    fn routed_net() -> (Network, NodeId) {
        use crate::routing::Cidr;
        use crate::RouterNode;
        let mut net = Network::new();
        let a = net.add_node(Box::new(Probe { target_iface: IfaceId::PRIMARY, got: vec![] }));
        let mut r = RouterNode::new(Ipv4Addr::new(10, 0, 0, 254), "r");
        r.table.add(Cidr::host(Ipv4Addr::new(10, 0, 0, 1)), IfaceId(0));
        r.table.add(Cidr::host(Ipv4Addr::new(10, 0, 0, 2)), IfaceId(1));
        let r = net.add_node(Box::new(r));
        let b = net.add_node(Box::new(Echo { think: SimDuration::ZERO, seen: 0 }));
        net.connect(a, IfaceId::PRIMARY, r, IfaceId(0), SimDuration::from_millis(1));
        net.connect(r, IfaceId(1), b, IfaceId::PRIMARY, SimDuration::from_millis(2));
        (net, a)
    }

    /// The two engine-held instruments as the registry shows them:
    /// forwarded count at "r", latency sample count and sum.
    fn instruments(net: &Network) -> (u64, u64, u64) {
        let t = net.telemetry();
        let h = t.histogram_json(LINK_LATENCY);
        let field = |k: &str| match h.as_ref().and_then(|h| h.get(k)) {
            Some(lucent_obs::Json::UInt(v)) => *v,
            _ => 0,
        };
        (t.counter(FORWARDED, "r"), field("count"), field("sum_us"))
    }

    #[test]
    fn hop_instruments_are_published_by_every_processing_call() {
        // Per event, by hand: the wake sends (1 000 µs link); the router
        // forwards (2 000 µs link + 50 µs forwarding delay); the echo
        // replies (2 000 µs); the router forwards (1 000 + 50 µs); the
        // probe receives.
        let want = [(0, 1, 1_000), (1, 2, 3_050), (1, 3, 5_050), (2, 4, 6_100), (2, 4, 6_100)];
        let far = SimTime::ZERO + SimDuration::from_millis(1_000);
        let calls: [fn(&mut Network, SimTime) -> bool; 3] = [
            |net, _| net.step(),
            |net, far| net.step_before(far),
            |net, _| net.run_until_idle(1) == 1,
        ];
        for (c, call) in calls.iter().enumerate() {
            let (mut net, a) = routed_net();
            net.wake(a);
            for (i, &w) in want.iter().enumerate() {
                assert!(call(&mut net, far), "call {c}: event {i} missing");
                assert_eq!(instruments(&net), w, "call {c}, after event {i}");
            }
            assert!(net.peek_time().is_none());
        }
    }

    #[test]
    fn a_clone_publishes_only_its_own_hops() {
        let (mut net, a) = routed_net();
        net.wake(a);
        net.run_until_idle(2);
        assert_eq!(instruments(&net), (1, 2, 3_050));
        let mut copy = net.clone();
        copy.run_until_idle(100);
        assert_eq!(instruments(&copy), (2, 4, 6_100));
        assert_eq!(instruments(&net), (1, 2, 3_050), "the clone's hops reached the original");
        net.run_until_idle(100);
        assert_eq!(instruments(&net), (2, 4, 6_100));
    }

    #[test]
    fn trace_records_tx_and_rx() {
        let (mut net, a, _) = two_node_net(1, 0);
        net.trace().enable_all();
        net.wake(a);
        net.run_until_idle(100);
        let entries = net.trace().entries();
        // probe tx, echo rx, echo tx, probe rx
        assert_eq!(entries.len(), 4);
        assert!(matches!(entries[0].dir, Dir::Tx));
        assert!(matches!(entries[1].dir, Dir::Rx));
        assert_eq!(entries[0].label, "probe");
        assert_eq!(entries[1].label, "echo");
    }
}
