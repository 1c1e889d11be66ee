//! Stateful flow tracking shared by both middlebox families.
//!
//! Section 4.2.1 ("Caveat") establishes that the deployed middleboxes
//! begin inspecting a flow **only after observing a complete TCP 3-way
//! handshake**, hold per-flow state for 2–3 minutes, and refresh the
//! timer on any flow traffic. This module is that machine.

use std::collections::BTreeMap;
use std::net::Ipv4Addr;

use lucent_netsim::{SimDuration, SimTime};
use lucent_packet::tcp::TcpFlags;
use lucent_packet::Packet;

/// Canonical flow key: the SYN sender is the client.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FlowKey {
    /// Client (address, port).
    pub client: (Ipv4Addr, u16),
    /// Server (address, port).
    pub server: (Ipv4Addr, u16),
}

/// Handshake progress of a tracked flow.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    /// SYN seen client→server.
    SynSeen,
    /// SYN-ACK seen server→client.
    SynAckSeen,
    /// Final ACK seen: inspection active.
    Established,
}

#[derive(Debug, Clone)]
struct FlowState {
    stage: Stage,
    last_seen: SimTime,
    /// Next sequence number the server would use toward the client —
    /// what a forged server response must carry to be in-window.
    server_next_seq: u32,
}

/// Direction of a packet relative to a tracked flow.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlowDir {
    /// Client → server.
    ToServer,
    /// Server → client.
    ToClient,
}

/// Everything a middlebox needs to inspect (and forge responses for) one
/// client→server payload.
#[derive(Debug, Clone)]
pub struct Inspectable {
    /// The flow.
    pub key: FlowKey,
    /// Sequence number a forged server→client packet must carry.
    pub forge_seq: u32,
    /// Acknowledgment number for the forged packet (client's data fully
    /// acked, making the forgery indistinguishable from a real response).
    pub forge_ack: u32,
}

/// The flow table.
#[derive(Debug, Clone)]
pub struct FlowTable {
    flows: BTreeMap<FlowKey, FlowState>,
    /// Idle timeout (the paper observes 2–3 minutes).
    pub timeout: SimDuration,
    /// Number of flows that completed a handshake under observation.
    pub established_total: u64,
}

impl FlowTable {
    /// A table with the given idle timeout.
    pub fn new(timeout: SimDuration) -> Self {
        FlowTable { flows: BTreeMap::new(), timeout, established_total: 0 }
    }

    /// Number of currently tracked flows.
    pub fn len(&self) -> usize {
        self.flows.len()
    }

    /// True when no flows are tracked.
    pub fn is_empty(&self) -> bool {
        self.flows.is_empty()
    }

    /// The stage of a flow, if tracked.
    pub fn stage(&self, key: &FlowKey) -> Option<Stage> {
        self.flows.get(key).map(|f| f.stage)
    }

    /// Ordered (key, stage) view of every tracked flow. The transcript
    /// harness records table evolution after every scripted step and
    /// diffs it against the committed recordings.
    pub fn flow_rows(&self) -> Vec<(FlowKey, Stage)> {
        self.flows.iter().map(|(k, f)| (*k, f.stage)).collect()
    }

    /// Feed one packet; returns an [`Inspectable`] when the packet is a
    /// client→server payload on an established flow.
    pub fn observe(&mut self, pkt: &Packet, now: SimTime) -> Option<Inspectable> {
        let (h, payload) = pkt.as_tcp()?;
        let fwd = FlowKey { client: (pkt.src(), h.src_port), server: (pkt.dst(), h.dst_port) };
        let rev = FlowKey { client: (pkt.dst(), h.dst_port), server: (pkt.src(), h.src_port) };

        // A fresh SYN (no ACK) begins tracking; everything else must
        // match an existing flow or is invisible to the middlebox.
        if h.flags.contains(TcpFlags::SYN) && !h.flags.contains(TcpFlags::ACK) {
            self.flows.insert(
                fwd,
                FlowState { stage: Stage::SynSeen, last_seen: now, server_next_seq: 0 },
            );
            return None;
        }

        let (key, dir) = if self.flows.contains_key(&fwd) {
            (fwd, FlowDir::ToServer)
        } else if self.flows.contains_key(&rev) {
            (rev, FlowDir::ToClient)
        } else {
            return None;
        };
        // A RST ends the conversation; a stateful device purges the flow
        // immediately (it cannot afford to track dead connections). This
        // is also the opening the INTANG-style TCB-teardown evasion
        // exploits: a RST crafted to expire before the server desyncs the
        // middlebox without touching the real connection.
        if h.flags.contains(TcpFlags::RST) {
            self.flows.remove(&key);
            return None;
        }
        let state = self.flows.get_mut(&key)?;
        state.last_seen = now; // any traffic refreshes the timer

        match (state.stage, dir) {
            (Stage::SynSeen, FlowDir::ToClient)
                if h.flags.contains(TcpFlags::SYN) && h.flags.contains(TcpFlags::ACK) =>
            {
                state.stage = Stage::SynAckSeen;
                state.server_next_seq = h.seq.wrapping_add(1);
                None
            }
            (Stage::SynAckSeen, FlowDir::ToServer) if h.flags.contains(TcpFlags::ACK) => {
                state.stage = Stage::Established;
                self.established_total += 1;
                if payload.is_empty() {
                    None
                } else {
                    // GET piggybacked on the handshake ACK.
                    Some(Inspectable {
                        key,
                        forge_seq: state.server_next_seq,
                        forge_ack: h.seq.wrapping_add(payload.len() as u32),
                    })
                }
            }
            (Stage::Established, FlowDir::ToClient) => {
                // Track the server's stream position so later forgeries
                // stay in-window.
                let advance = payload.len() as u32
                    + u32::from(h.flags.contains(TcpFlags::FIN));
                if advance > 0 {
                    state.server_next_seq = h.seq.wrapping_add(advance);
                }
                None
            }
            (Stage::Established, FlowDir::ToServer) if !payload.is_empty() => Some(Inspectable {
                key,
                forge_seq: state.server_next_seq,
                forge_ack: h.seq.wrapping_add(payload.len() as u32),
            }),
            _ => None,
        }
    }

    /// Drop a flow (e.g. after the middlebox reset it).
    pub fn remove(&mut self, key: &FlowKey) {
        self.flows.remove(key);
    }

    /// Purge flows idle longer than the timeout; returns how many died.
    pub fn sweep(&mut self, now: SimTime) -> usize {
        let timeout = self.timeout;
        let before = self.flows.len();
        self.flows.retain(|_, f| now.since(f.last_seen) < timeout);
        before - self.flows.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lucent_support::Bytes;
    use lucent_packet::tcp::TcpHeader;

    const C: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 2);
    const S: Ipv4Addr = Ipv4Addr::new(203, 0, 113, 2);

    fn t(secs: u64) -> SimTime {
        SimTime(secs * 1_000_000)
    }

    fn seg(src_is_client: bool, flags: TcpFlags, seq: u32, ack: u32, payload: &[u8]) -> Packet {
        let (src, dst, sp, dp) = if src_is_client {
            (C, S, 4000u16, 80u16)
        } else {
            (S, C, 80, 4000)
        };
        let mut h = TcpHeader::new(sp, dp, flags);
        h.seq = seq;
        h.ack = ack;
        Packet::tcp(src, dst, h, Bytes::copy_from_slice(payload))
    }

    fn handshake(table: &mut FlowTable, at: SimTime) {
        assert!(table.observe(&seg(true, TcpFlags::SYN, 100, 0, b""), at).is_none());
        assert!(table
            .observe(&seg(false, TcpFlags::SYN | TcpFlags::ACK, 500, 101, b""), at)
            .is_none());
        assert!(table.observe(&seg(true, TcpFlags::ACK, 101, 501, b""), at).is_none());
    }

    #[test]
    fn payload_after_full_handshake_is_inspectable() {
        let mut table = FlowTable::new(SimDuration::from_secs(150));
        handshake(&mut table, t(0));
        let get = seg(true, TcpFlags::ACK | TcpFlags::PSH, 101, 501, b"GET ...");
        let insp = table.observe(&get, t(1)).expect("inspectable");
        assert_eq!(insp.forge_seq, 501, "server's next seq after SYN-ACK");
        assert_eq!(insp.forge_ack, 101 + 7, "client's payload fully acked");
        assert_eq!(table.established_total, 1);
    }

    #[test]
    fn payload_without_handshake_is_invisible() {
        let mut table = FlowTable::new(SimDuration::from_secs(150));
        let get = seg(true, TcpFlags::ACK | TcpFlags::PSH, 101, 501, b"GET ...");
        assert!(table.observe(&get, t(0)).is_none());
        assert!(table.is_empty());
    }

    #[test]
    fn syn_only_then_payload_is_invisible() {
        // The paper's TTL-limited-SYN experiment: SYN seen but no SYN-ACK
        // ever returns; the later GET must not trigger.
        let mut table = FlowTable::new(SimDuration::from_secs(150));
        table.observe(&seg(true, TcpFlags::SYN, 100, 0, b""), t(0));
        let get = seg(true, TcpFlags::ACK | TcpFlags::PSH, 101, 501, b"GET ...");
        assert!(table.observe(&get, t(1)).is_none());
        assert_eq!(table.stage(&FlowKey { client: (C, 4000), server: (S, 80) }), Some(Stage::SynSeen));
    }

    #[test]
    fn syn_ack_first_is_invisible() {
        // Starting with SYN+ACK (no prior SYN) creates no state.
        let mut table = FlowTable::new(SimDuration::from_secs(150));
        table.observe(&seg(true, TcpFlags::SYN | TcpFlags::ACK, 100, 1, b""), t(0));
        assert!(table.is_empty());
    }

    #[test]
    fn get_piggybacked_on_final_ack_triggers() {
        let mut table = FlowTable::new(SimDuration::from_secs(150));
        table.observe(&seg(true, TcpFlags::SYN, 100, 0, b""), t(0));
        table.observe(&seg(false, TcpFlags::SYN | TcpFlags::ACK, 500, 101, b""), t(0));
        let combined = seg(true, TcpFlags::ACK | TcpFlags::PSH, 101, 501, b"GET /");
        assert!(table.observe(&combined, t(0)).is_some());
    }

    #[test]
    fn server_data_advances_forge_seq() {
        let mut table = FlowTable::new(SimDuration::from_secs(150));
        handshake(&mut table, t(0));
        table.observe(&seg(false, TcpFlags::ACK | TcpFlags::PSH, 501, 110, b"0123456789"), t(1));
        let get = seg(true, TcpFlags::ACK | TcpFlags::PSH, 110, 511, b"GET again");
        let insp = table.observe(&get, t(2)).unwrap();
        assert_eq!(insp.forge_seq, 511);
    }

    #[test]
    fn idle_flows_expire_but_traffic_refreshes() {
        let mut table = FlowTable::new(SimDuration::from_secs(150));
        handshake(&mut table, t(0));
        // Keep-alive traffic at t=100 refreshes the timer.
        table.observe(&seg(true, TcpFlags::ACK, 101, 501, b""), t(100));
        assert_eq!(table.sweep(t(200)), 0, "refreshed at t=100, deadline t=250");
        assert_eq!(table.sweep(t(251)), 1, "expired");
        // Post-expiry payloads are invisible.
        let get = seg(true, TcpFlags::ACK | TcpFlags::PSH, 101, 501, b"GET late");
        assert!(table.observe(&get, t(252)).is_none());
    }

    #[test]
    fn remove_forgets_flow() {
        let mut table = FlowTable::new(SimDuration::from_secs(150));
        handshake(&mut table, t(0));
        let key = FlowKey { client: (C, 4000), server: (S, 80) };
        table.remove(&key);
        assert!(table.is_empty());
    }

    #[test]
    fn rst_purges_flow_state() {
        let mut table = FlowTable::new(SimDuration::from_secs(150));
        handshake(&mut table, t(0));
        // A client RST (e.g. crafted with a short TTL so the server never
        // sees it) removes the flow…
        table.observe(&seg(true, TcpFlags::RST, 101, 0, b""), t(1));
        assert!(table.is_empty());
        // …after which payloads on the same 4-tuple are invisible.
        let get = seg(true, TcpFlags::ACK | TcpFlags::PSH, 101, 501, b"GET /");
        assert!(table.observe(&get, t(2)).is_none());
    }

    #[test]
    fn non_tcp_packets_are_ignored() {
        let mut table = FlowTable::new(SimDuration::from_secs(150));
        let udp = Packet::udp(C, S, lucent_packet::UdpHeader::new(1, 2), &b"x"[..]);
        assert!(table.observe(&udp, t(0)).is_none());
    }
}
