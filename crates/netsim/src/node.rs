//! The [`Node`] trait every simulated element implements, and the
//! [`NodeCtx`] handle through which a node interacts with the network
//! during a callback.

use std::any::Any;
use std::net::Ipv4Addr;
use std::rc::Rc;

use lucent_obs::Telemetry;
use lucent_packet::Packet;

use crate::network::Inner;
use crate::time::{SimDuration, SimTime};
use crate::trace::Dir;

/// Identifies a node within one [`crate::Network`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u32);

/// Identifies an interface of a node (small dense index).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct IfaceId(pub u8);

impl IfaceId {
    /// Interface 0 — the only interface of single-homed hosts.
    pub const PRIMARY: IfaceId = IfaceId(0);
}

/// Timer token conventionally used by [`crate::Network::wake`] to ask a
/// node to examine externally-mutated application state.
pub const WAKE: u64 = u64::MAX;

/// A simulated network element.
///
/// Implementations must be deterministic: any randomness comes from an RNG
/// the node owns, seeded at construction. They must also be `Clone` (see
/// [`CloneNode`]), with no interior mutability behind anything a clone
/// shares: a cloned [`crate::Network`] shares every node until its first
/// write to it.
pub trait Node: Any + CloneNode {
    /// A packet has arrived on `iface`.
    fn on_packet(&mut self, ctx: &mut NodeCtx<'_>, iface: IfaceId, pkt: Packet);

    /// A timer set via [`NodeCtx::set_timer`] (or [`crate::Network::wake`])
    /// has fired.
    fn on_timer(&mut self, _ctx: &mut NodeCtx<'_>, _token: u64) {}

    /// Short human-readable label for traces.
    fn label(&self) -> &str {
        "node"
    }
}

/// Copy-on-write support for [`Node`]: a deep copy of the node in its
/// own allocation. Implemented for every `Node + Clone`.
pub trait CloneNode {
    /// A copy of this node that shares no mutable state with it.
    fn clone_node(&self) -> Rc<dyn Node>;
}

impl<T: Node + Clone> CloneNode for T {
    fn clone_node(&self) -> Rc<dyn Node> {
        Rc::new(self.clone())
    }
}

/// The capabilities a node has while handling an event.
///
/// Borrowed from the [`crate::Network`] for the duration of one callback;
/// all effects (sends, timers) are enqueued, never synchronous, which is
/// what keeps the simulation deterministic and re-entrancy-free.
pub struct NodeCtx<'a> {
    pub(crate) inner: &'a mut Inner,
    pub(crate) node: NodeId,
    pub(crate) label: &'a str,
}

impl NodeCtx<'_> {
    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.inner.now
    }

    /// The id of the node being called.
    pub fn id(&self) -> NodeId {
        self.node
    }

    /// Transmit `pkt` out of `iface`. Delivery is enqueued after the link
    /// latency; if the interface is unconnected the packet is counted as
    /// dropped.
    pub fn send(&mut self, iface: IfaceId, pkt: Packet) {
        self.inner.transmit(self.node, self.label, iface, pkt, SimDuration::ZERO);
    }

    /// Transmit after an extra node-local delay (processing time), on top
    /// of the link latency. Wiretap middleboxes use this to model the
    /// injection race.
    pub fn send_delayed(&mut self, iface: IfaceId, pkt: Packet, delay: SimDuration) {
        self.inner.transmit(self.node, self.label, iface, pkt, delay);
    }

    /// Count one packet forwarded by this node in
    /// `netsim.router.forwarded{label}`. The engine holds the count and
    /// publishes it before the event-processing call returns.
    pub fn count_forwarded(&mut self) {
        self.inner.count_forwarded(self.node);
    }

    /// Arrange for [`Node::on_timer`] with `token` after `delay`.
    pub fn set_timer(&mut self, delay: SimDuration, token: u64) {
        self.inner.schedule_timer(self.node, delay, token);
    }

    /// Record an Rx trace entry for a packet this node consumed. Tx entries
    /// are recorded automatically by [`NodeCtx::send`]; nodes that *drop* a
    /// packet can call this to leave evidence for debugging. Every drop
    /// also ticks the `netsim.dropped` counter, labelled by reason.
    pub fn trace_drop(&mut self, pkt: &Packet, why: &'static str) {
        self.inner.telemetry.counter_inc("netsim.dropped", why);
        self.inner.trace.record(self.inner.now, self.node, self.label, Dir::Drop(why), pkt);
    }

    /// The node's label (as registered with the network).
    pub fn label(&self) -> &str {
        self.label
    }

    /// The shared telemetry handle, for emitting events and metrics from
    /// inside a node callback.
    pub fn obs(&self) -> &Telemetry {
        &self.inner.telemetry
    }
}

/// Convenience: the address a single-homed node uses, carried by several
/// node implementations. Defined here so every crate agrees on the shape.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct HostAddr {
    /// The node's IPv4 address.
    pub ip: Ipv4Addr,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn iface_primary_is_zero() {
        assert_eq!(IfaceId::PRIMARY, IfaceId(0));
    }

    #[test]
    #[allow(clippy::disallowed_types, reason = "checks that ids hash")]
    fn ids_are_ordered_and_hashable() {
        use std::collections::HashSet;
        let mut s = HashSet::new();
        s.insert(NodeId(1));
        s.insert(NodeId(2));
        assert!(s.contains(&NodeId(1)));
        assert!(NodeId(1) < NodeId(2));
    }
}
