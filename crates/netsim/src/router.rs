//! The router node: longest-prefix forwarding, TTL handling, ICMP
//! generation, optional anonymity, and wiretap mirror ports.

use lucent_packet::{IcmpMessage, Packet, Transport};

use crate::node::{IfaceId, Node, NodeCtx};
use crate::routing::RouteTable;
use crate::time::SimDuration;

/// A router.
///
/// Besides plain forwarding this models the behaviours the paper's
/// tooling depends on:
///
/// * **TTL expiry** → ICMP Time Exceeded back to the source — unless the
///   router is *anonymized* ("asterisked" in traceroute output; Section 6.1
///   observes that routers hosting middleboxes never respond).
/// * **Mirror ports**: a set of interfaces that receive a copy of every
///   forwarded packet — the wiretap attachment for WM middleboxes. The
///   copy is taken *after* TTL decrement, i.e. the tap sits on the output
///   link, which gives wiretap and inline middleboxes identical TTL
///   visibility semantics.
/// * **Echo replies** to pings addressed to the router itself, and ICMP
///   port-unreachable for stray UDP to the router.
#[derive(Debug, Clone)]
pub struct RouterNode {
    /// The router's own address, used as the source of ICMP it originates.
    pub ip: std::net::Ipv4Addr,
    /// Forwarding table.
    pub table: RouteTable,
    /// When true the router never originates ICMP (time exceeded or
    /// unreachable): it appears as `*` in traceroutes.
    pub anonymized: bool,
    /// Interfaces that receive a copy of every forwarded packet.
    pub mirrors: Vec<IfaceId>,
    /// Per-packet forwarding latency added on top of link latency.
    pub forward_delay: SimDuration,
    label: String,
}

impl RouterNode {
    /// A responsive router with an empty table.
    pub fn new(ip: std::net::Ipv4Addr, label: impl Into<String>) -> Self {
        RouterNode {
            ip,
            table: RouteTable::new(),
            anonymized: false,
            mirrors: Vec::new(),
            forward_delay: SimDuration::from_micros(50),
            label: label.into(),
        }
    }

    /// Builder: mark anonymized.
    pub fn anonymized(mut self) -> Self {
        self.anonymized = true;
        self
    }

    fn icmp_back(&self, ctx: &mut NodeCtx<'_>, to: std::net::Ipv4Addr, msg: IcmpMessage) {
        if self.anonymized {
            return;
        }
        let kind = match &msg {
            IcmpMessage::TimeExceeded { .. } => "time-exceeded",
            IcmpMessage::DestUnreachable { .. } => "dest-unreachable",
            IcmpMessage::EchoReply { .. } => "echo-reply",
            IcmpMessage::EchoRequest { .. } => "echo-request",
        };
        if let Some(iface) = self.table.lookup(to) {
            ctx.obs().counter_inc("netsim.icmp_tx", kind);
            let pkt = Packet::icmp(self.ip, to, msg);
            ctx.send(iface, pkt);
        }
    }
}

impl Node for RouterNode {
    fn on_packet(&mut self, ctx: &mut NodeCtx<'_>, in_iface: IfaceId, mut pkt: Packet) {
        // Addressed to the router itself?
        if pkt.dst() == self.ip {
            match &pkt.transport {
                Transport::Icmp(IcmpMessage::EchoRequest { ident, seq }) => {
                    let reply = IcmpMessage::EchoReply { ident: *ident, seq: *seq };
                    self.icmp_back(ctx, pkt.src(), reply);
                }
                Transport::Udp(..) => {
                    let msg = IcmpMessage::DestUnreachable { code: 3, original: pkt.icmp_quote() };
                    self.icmp_back(ctx, pkt.src(), msg);
                }
                _ => ctx.trace_drop(&pkt, "router-no-service"),
            }
            return;
        }
        // Transit: TTL check.
        if pkt.ip.ttl <= 1 {
            ctx.trace_drop(&pkt, "ttl-expired");
            ctx.obs().counter_inc("netsim.router.ttl_expired", ctx.label());
            let msg = IcmpMessage::TimeExceeded { original: pkt.icmp_quote() };
            self.icmp_back(ctx, pkt.src(), msg);
            return;
        }
        pkt.ip.ttl -= 1;
        let Some(out) = self.table.lookup_flow(pkt.src(), pkt.dst()) else {
            ctx.trace_drop(&pkt, "no-route");
            let msg = IcmpMessage::DestUnreachable { code: 0, original: pkt.icmp_quote() };
            self.icmp_back(ctx, pkt.src(), msg);
            return;
        };
        // Never hairpin a packet back out the interface it arrived on;
        // that indicates a routing loop in the topology under test.
        if out == in_iface {
            ctx.trace_drop(&pkt, "hairpin");
            return;
        }
        ctx.count_forwarded();
        for &m in &self.mirrors {
            ctx.send(m, pkt.clone());
        }
        ctx.send_delayed(out, pkt, self.forward_delay);
    }

    fn label(&self) -> &str {
        &self.label
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::Network;
    use crate::node::WAKE;
    use crate::routing::Cidr;
    use crate::time::SimDuration;
    use lucent_packet::{TcpFlags, TcpHeader, UdpHeader};
    use std::net::Ipv4Addr;

    /// A sink host that remembers everything it receives and can send one
    /// prepared packet on WAKE.
    #[derive(Clone)]
    struct Sink {
        outbox: Option<Packet>,
        inbox: Vec<Packet>,
    }

    impl Sink {
        fn new() -> Self {
            Sink { outbox: None, inbox: Vec::new() }
        }
    }

    impl Node for Sink {
        fn on_packet(&mut self, _ctx: &mut NodeCtx<'_>, _iface: IfaceId, pkt: Packet) {
            self.inbox.push(pkt);
        }
        fn on_timer(&mut self, ctx: &mut NodeCtx<'_>, token: u64) {
            if token == WAKE {
                if let Some(p) = self.outbox.take() {
                    ctx.send(IfaceId::PRIMARY, p);
                }
            }
        }
        fn label(&self) -> &str {
            "sink"
        }
    }

    const CLIENT: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 2);
    const SERVER: Ipv4Addr = Ipv4Addr::new(203, 0, 113, 2);
    const R1: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 1);
    const R2: Ipv4Addr = Ipv4Addr::new(203, 0, 113, 1);

    /// client -- r1 -- r2 -- server, optional tap host on r2.
    fn chain(tap: bool) -> (Network, crate::node::NodeId, crate::node::NodeId, Option<crate::node::NodeId>) {
        let mut net = Network::new();
        let client = net.add_node(Box::new(Sink::new()));
        let server = net.add_node(Box::new(Sink::new()));
        let mut r1 = RouterNode::new(R1, "r1");
        r1.table.add(Cidr::new(CLIENT, 24), IfaceId(0));
        r1.table.add(Cidr::new(SERVER, 24), IfaceId(1));
        let mut r2 = RouterNode::new(R2, "r2");
        r2.table.add(Cidr::new(CLIENT, 24), IfaceId(0));
        r2.table.add(Cidr::new(SERVER, 24), IfaceId(1));
        if tap {
            r2.mirrors.push(IfaceId(2));
        }
        let r1 = net.add_node(Box::new(r1));
        let r2 = net.add_node(Box::new(r2));
        let ms = SimDuration::from_millis(1);
        net.connect(client, IfaceId::PRIMARY, r1, IfaceId(0), ms);
        net.connect(r1, IfaceId(1), r2, IfaceId(0), ms);
        net.connect(r2, IfaceId(1), server, IfaceId::PRIMARY, ms);
        let tap_node = tap.then(|| {
            let t = net.add_node(Box::new(Sink::new()));
            net.connect(r2, IfaceId(2), t, IfaceId::PRIMARY, SimDuration::from_micros(100));
            t
        });
        (net, client, server, tap_node)
    }

    fn udp_probe(ttl: u8) -> Packet {
        let mut p = Packet::udp(CLIENT, SERVER, UdpHeader::new(33434, 33434), &b"probe"[..]);
        p.ip.ttl = ttl;
        p
    }

    fn send_from_client(net: &mut Network, client: crate::node::NodeId, pkt: Packet) {
        net.node_mut::<Sink>(client).unwrap().outbox = Some(pkt);
        net.wake(client);
        net.run_until_idle(1000);
    }

    #[test]
    fn forwards_end_to_end_and_decrements_ttl() {
        let (mut net, client, server, _) = chain(false);
        send_from_client(&mut net, client, udp_probe(64));
        let inbox = &net.node_ref::<Sink>(server).unwrap().inbox;
        assert_eq!(inbox.len(), 1);
        assert_eq!(inbox[0].ip.ttl, 62);
    }

    #[test]
    fn ttl_expiry_elicits_time_exceeded_from_correct_hop() {
        let (mut net, client, _, _) = chain(false);
        send_from_client(&mut net, client, udp_probe(1));
        let inbox = &net.node_ref::<Sink>(client).unwrap().inbox;
        assert_eq!(inbox.len(), 1);
        assert_eq!(inbox[0].src(), R1);
        assert!(matches!(inbox[0].as_icmp(), Some(IcmpMessage::TimeExceeded { .. })));

        let (mut net, client, _, _) = chain(false);
        send_from_client(&mut net, client, udp_probe(2));
        let inbox = &net.node_ref::<Sink>(client).unwrap().inbox;
        assert_eq!(inbox[0].src(), R2);
    }

    #[test]
    fn time_exceeded_quotes_original_packet() {
        let (mut net, client, _, _) = chain(false);
        send_from_client(&mut net, client, udp_probe(1));
        let inbox = &net.node_ref::<Sink>(client).unwrap().inbox;
        let Some(IcmpMessage::TimeExceeded { original }) = inbox[0].as_icmp() else {
            panic!("expected time exceeded");
        };
        // The quote clips the payload, so the IP total-length check would
        // fail a full parse; read the address fields straight from the
        // quoted header bytes like real traceroute does.
        assert_eq!(original.len(), 28);
        assert_eq!(Ipv4Addr::new(original[12], original[13], original[14], original[15]), CLIENT);
        assert_eq!(Ipv4Addr::new(original[16], original[17], original[18], original[19]), SERVER);
        // The first 4 transport bytes are the UDP ports.
        assert_eq!(u16::from_be_bytes([original[20], original[21]]), 33434);
    }

    #[test]
    fn anonymized_router_is_silent() {
        let (mut net, client, _, _) = chain(false);
        // Anonymize r1 after construction.
        let r1_id = crate::node::NodeId(2);
        net.node_mut::<RouterNode>(r1_id).unwrap().anonymized = true;
        send_from_client(&mut net, client, udp_probe(1));
        assert!(net.node_ref::<Sink>(client).unwrap().inbox.is_empty());
    }

    #[test]
    fn router_replies_to_ping_and_udp_to_self() {
        let (mut net, client, _, _) = chain(false);
        let ping = Packet::icmp(CLIENT, R2, IcmpMessage::EchoRequest { ident: 1, seq: 1 });
        send_from_client(&mut net, client, ping);
        let inbox = &net.node_ref::<Sink>(client).unwrap().inbox;
        assert!(matches!(inbox[0].as_icmp(), Some(IcmpMessage::EchoReply { ident: 1, seq: 1 })));

        let (mut net, client, _, _) = chain(false);
        let udp = Packet::udp(CLIENT, R1, UdpHeader::new(1, 33434), &b"x"[..]);
        send_from_client(&mut net, client, udp);
        let inbox = &net.node_ref::<Sink>(client).unwrap().inbox;
        assert!(matches!(
            inbox[0].as_icmp(),
            Some(IcmpMessage::DestUnreachable { code: 3, .. })
        ));
    }

    #[test]
    fn mirror_iface_receives_copy_and_server_still_gets_packet() {
        let (mut net, client, server, tap) = chain(true);
        let tcp = Packet::tcp(
            CLIENT,
            SERVER,
            TcpHeader::new(4000, 80, TcpFlags::SYN),
            &b""[..],
        );
        send_from_client(&mut net, client, tcp);
        assert_eq!(net.node_ref::<Sink>(server).unwrap().inbox.len(), 1);
        let tap_inbox = &net.node_ref::<Sink>(tap.unwrap()).unwrap().inbox;
        assert_eq!(tap_inbox.len(), 1);
        // Tap sees the post-decrement TTL (output-link semantics).
        assert_eq!(tap_inbox[0].ip.ttl, 62);
    }

    #[test]
    fn no_route_elicits_net_unreachable() {
        let (mut net, client, _, _) = chain(false);
        let stray = Packet::udp(CLIENT, Ipv4Addr::new(8, 8, 8, 8), UdpHeader::new(1, 2), &b""[..]);
        send_from_client(&mut net, client, stray);
        let inbox = &net.node_ref::<Sink>(client).unwrap().inbox;
        assert!(matches!(
            inbox[0].as_icmp(),
            Some(IcmpMessage::DestUnreachable { code: 0, .. })
        ));
    }
}
