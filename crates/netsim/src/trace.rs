//! Packet tracing — the simulator's `pcap`.
//!
//! The paper's methodology leans on inspecting captures ("Inspecting the
//! network traffic for the said message exchanges through pcap ...");
//! [`TraceHandle`] is the equivalent: a shared, filterable record of every
//! packet a selected set of nodes sent, received or dropped.
//!
//! The capture buffer is a bounded ring (oldest entries evict first), and
//! every recorded packet is also offered to the `lucent-obs` event bus
//! under target `pkttrace` at [`Level::Trace`] — one trace pipeline, two
//! consumers: the structured event log and the legacy in-memory capture.

use std::cell::RefCell;
use std::collections::{BTreeSet, VecDeque};
use std::fmt;
use std::rc::Rc;

use lucent_obs::{Json, Level, Telemetry};
use lucent_packet::Packet;

use crate::node::NodeId;
use crate::time::SimTime;

/// Default capture-ring capacity. Paper-scale runs stream millions of
/// packets; the ring keeps memory flat while retaining the recent past.
pub const DEFAULT_TRACE_CAP: usize = 262_144;

/// Direction of a traced packet relative to the recording node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Dir {
    /// Transmitted by the node.
    Tx,
    /// Delivered to the node.
    Rx,
    /// Dropped by the node, with a reason.
    Drop(&'static str),
}

/// One captured packet.
#[derive(Debug, Clone)]
pub struct TraceEntry {
    /// Virtual capture time.
    pub time: SimTime,
    /// The node at which the packet was captured.
    pub node: NodeId,
    /// The node's label at capture time.
    pub label: String,
    /// Direction relative to `node`.
    pub dir: Dir,
    /// The packet itself.
    pub packet: Packet,
}

/// One-line transport summary used by both the transcript and the event
/// bus.
fn proto_summary(p: &Packet) -> String {
    match &p.transport {
        lucent_packet::Transport::Tcp(h, body) => {
            format!("TCP {}→{} [{}] seq={} ack={} len={}", h.src_port, h.dst_port, h.flags, h.seq, h.ack, body.len())
        }
        lucent_packet::Transport::Udp(h, body) => {
            format!("UDP {}→{} len={}", h.src_port, h.dst_port, body.len())
        }
        lucent_packet::Transport::Icmp(m) => format!("ICMP {:?}", m.type_code()),
    }
}

impl fmt::Display for TraceEntry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let dir = match self.dir {
            Dir::Tx => "tx".to_string(),
            Dir::Rx => "rx".to_string(),
            Dir::Drop(r) => format!("drop({r})"),
        };
        let p = &self.packet;
        write!(
            f,
            "{} {}#{} {} {} ttl={} {} → {}",
            self.time,
            self.label,
            self.node.0,
            dir,
            proto_summary(p),
            p.ip.ttl,
            p.src(),
            p.dst()
        )
    }
}

#[derive(Default)]
struct TraceState {
    enabled: bool,
    /// When `Some`, only these nodes are recorded; `None` records all.
    filter: Option<BTreeSet<NodeId>>,
    entries: VecDeque<TraceEntry>,
    cap: usize,
    evicted: u64,
    /// The obs event bus; every recorded packet is offered to it.
    bus: Option<Telemetry>,
}

/// Shared handle to the capture buffer. Cheap to clone; single-threaded
/// (the simulator itself is single-threaded by design).
#[derive(Clone, Default)]
pub struct TraceHandle {
    state: Rc<RefCell<TraceState>>,
}

impl TraceHandle {
    /// New, disabled trace with the default ring capacity.
    pub fn new() -> Self {
        let t = TraceHandle::default();
        t.state.borrow_mut().cap = DEFAULT_TRACE_CAP;
        t
    }

    /// Start recording every node.
    pub fn enable_all(&self) {
        let mut s = self.state.borrow_mut();
        s.enabled = true;
        s.filter = None;
    }

    /// Start recording only the given nodes.
    pub fn enable_nodes(&self, nodes: impl IntoIterator<Item = NodeId>) {
        let mut s = self.state.borrow_mut();
        s.enabled = true;
        s.filter = Some(nodes.into_iter().collect());
    }

    /// Bound the capture ring to `cap` entries, evicting oldest first.
    pub fn set_cap(&self, cap: usize) {
        let mut s = self.state.borrow_mut();
        s.cap = cap;
        while s.entries.len() > cap {
            s.entries.pop_front();
            s.evicted += 1;
        }
    }

    /// How many entries have been evicted from the ring so far.
    pub fn evicted(&self) -> u64 {
        self.state.borrow().evicted
    }

    /// Discard all captured entries.
    pub fn clear(&self) {
        self.state.borrow_mut().entries.clear();
    }

    /// Copy out the capture, oldest first.
    pub fn entries(&self) -> Vec<TraceEntry> {
        self.state.borrow().entries.iter().cloned().collect()
    }

    /// Number of captured entries.
    pub fn len(&self) -> usize {
        self.state.borrow().entries.len()
    }

    /// True when no entries are captured.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Route recorded packets into the given telemetry handle's event
    /// stream (target `pkttrace`, level `trace`).
    pub(crate) fn attach_bus(&self, bus: Telemetry) {
        self.state.borrow_mut().bus = Some(bus);
    }

    pub(crate) fn record(&self, time: SimTime, node: NodeId, label: &str, dir: Dir, pkt: &Packet) {
        let mut s = self.state.borrow_mut();
        // The event bus sees every packet the obs filter asks for,
        // independent of the legacy capture's enable/filter state.
        if let Some(bus) = &s.bus {
            if bus.enabled("pkttrace", Level::Trace) {
                // One exact-capacity field vector per event: 6 common
                // fields plus the drop reason.
                let mut fields = Vec::with_capacity(7);
                let name = match dir {
                    Dir::Tx => "tx",
                    Dir::Rx => "rx",
                    Dir::Drop(why) => {
                        fields.push(("reason".to_string(), Json::Str(why.to_string())));
                        "drop"
                    }
                };
                fields.extend([
                    ("node".to_string(), Json::UInt(u64::from(node.0))),
                    ("label".to_string(), Json::Str(label.to_string())),
                    ("proto".to_string(), Json::Str(proto_summary(pkt))),
                    ("ttl".to_string(), Json::UInt(u64::from(pkt.ip.ttl))),
                    ("src".to_string(), Json::Str(pkt.src().to_string())),
                    ("dst".to_string(), Json::Str(pkt.dst().to_string())),
                ]);
                bus.event(time.micros(), Level::Trace, "pkttrace", name, fields);
            }
        }
        if !s.enabled {
            return;
        }
        if let Some(filter) = &s.filter {
            if !filter.contains(&node) {
                return;
            }
        }
        if s.cap == 0 {
            s.evicted += 1;
            return;
        }
        if s.entries.len() >= s.cap {
            s.entries.pop_front();
            s.evicted += 1;
        }
        s.entries.push_back(TraceEntry {
            time,
            node,
            label: label.to_string(),
            dir,
            // Under wire fidelity the payloads are `Bytes` views into
            // one shared buffer, so this capture clone is a handful of
            // `Arc` bumps, not a deep copy of the packet body.
            packet: pkt.clone(),
        });
    }

    /// Render the capture as a multi-line text transcript, one packet per
    /// line — the artifact Figures 3 and 4 of the paper are drawn from.
    pub fn transcript(&self) -> String {
        self.entries()
            .iter()
            .map(|e| e.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lucent_packet::{Packet, UdpHeader};
    use std::net::Ipv4Addr;

    fn pkt() -> Packet {
        Packet::udp(
            Ipv4Addr::new(10, 0, 0, 1),
            Ipv4Addr::new(10, 0, 0, 2),
            UdpHeader::new(1, 2),
            &b"x"[..],
        )
    }

    #[test]
    fn disabled_trace_records_nothing() {
        let t = TraceHandle::new();
        t.record(SimTime::ZERO, NodeId(0), "n", Dir::Tx, &pkt());
        assert!(t.is_empty());
    }

    #[test]
    fn filter_restricts_nodes() {
        let t = TraceHandle::new();
        t.enable_nodes([NodeId(1)]);
        t.record(SimTime::ZERO, NodeId(0), "a", Dir::Tx, &pkt());
        t.record(SimTime::ZERO, NodeId(1), "b", Dir::Rx, &pkt());
        assert_eq!(t.len(), 1);
        assert_eq!(t.entries()[0].node, NodeId(1));
    }

    #[test]
    fn enable_all_then_clear() {
        let t = TraceHandle::new();
        t.enable_all();
        t.record(SimTime::ZERO, NodeId(7), "n", Dir::Drop("why"), &pkt());
        assert_eq!(t.len(), 1);
        let line = t.transcript();
        assert!(line.contains("drop(why)"), "{line}");
        assert!(line.contains("UDP 1→2"), "{line}");
        t.clear();
        assert!(t.is_empty());
    }

    #[test]
    fn clones_share_state() {
        let t = TraceHandle::new();
        let t2 = t.clone();
        t.enable_all();
        t2.record(SimTime::ZERO, NodeId(0), "n", Dir::Tx, &pkt());
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn ring_cap_evicts_oldest() {
        let t = TraceHandle::new();
        t.enable_all();
        t.set_cap(2);
        for i in 0..5 {
            t.record(SimTime(i), NodeId(0), "n", Dir::Tx, &pkt());
        }
        assert_eq!(t.len(), 2);
        assert_eq!(t.evicted(), 3);
        let kept: Vec<u64> = t.entries().iter().map(|e| e.time.0).collect();
        assert_eq!(kept, vec![3, 4]);
    }

    #[test]
    fn recorded_packets_reach_the_event_bus() {
        let bus = Telemetry::new();
        bus.set_filter_spec("pkttrace=trace").expect("spec");
        let t = TraceHandle::new();
        t.attach_bus(bus.clone());
        // The bus sees packets even while the legacy capture is disabled.
        t.record(SimTime(9), NodeId(3), "client", Dir::Drop("firewall"), &pkt());
        assert!(t.is_empty());
        assert_eq!(bus.event_count(), 1);
        let log = bus.event_log();
        assert!(log.contains("\"target\":\"pkttrace\""), "{log}");
        assert!(log.contains("\"reason\":\"firewall\""), "{log}");
        assert!(log.contains("\"label\":\"client\""), "{log}");
    }

    #[test]
    fn bus_respects_the_obs_filter() {
        let bus = Telemetry::new();
        let t = TraceHandle::new();
        t.attach_bus(bus.clone());
        t.record(SimTime::ZERO, NodeId(0), "n", Dir::Tx, &pkt());
        assert_eq!(bus.event_count(), 0, "filter off: nothing routed");
    }
}
