//! A DNS-injection middlebox — the mechanism the paper *tests for* with
//! the Iterative Network Tracer and rules out in Indian ISPs (Section 3.2
//! finds poisoning only).
//!
//! The discriminating experiment only means something if the detector can
//! tell the two mechanisms apart, so the simulator must be able to deploy
//! an injector. It sits inline on a path; queries for blocked names
//! elicit a forged response *from the middlebox's position* while the
//! original query continues to the resolver (whose honest answer arrives
//! later and loses).

use std::collections::BTreeSet;
use std::net::Ipv4Addr;

use lucent_netsim::{IfaceId, Node, NodeCtx, SimDuration};
use lucent_packet::dns::{Name, QueryView};
use lucent_packet::{Packet, Transport, UdpHeader};

/// Interface toward the clients (queries arrive here).
pub const CLIENT_SIDE: IfaceId = IfaceId(0);
/// Interface toward the resolvers.
pub const RESOLVER_SIDE: IfaceId = IfaceId(1);

/// An inline DNS injector with a per-device blocklist.
#[derive(Clone)]
pub struct DnsInjectorNode {
    blocklist: BTreeSet<Name>,
    /// Address placed in forged A records.
    pub forged_ip: Ipv4Addr,
    /// Injection processing delay (the forged answer still beats the real
    /// one because it skips the resolver round-trip).
    pub delay: SimDuration,
    label: String,
    /// Number of forged responses sent.
    pub injections: u64,
}

impl DnsInjectorNode {
    /// Build an injector.
    pub fn new(
        blocklist: impl IntoIterator<Item = Name>,
        forged_ip: Ipv4Addr,
        label: impl Into<String>,
    ) -> Self {
        DnsInjectorNode {
            blocklist: blocklist.into_iter().collect(),
            forged_ip,
            delay: SimDuration::from_micros(200),
            label: label.into(),
            injections: 0,
        }
    }

    fn inspect(&mut self, ctx: &mut NodeCtx<'_>, pkt: &Packet) {
        let Transport::Udp(udp, payload) = &pkt.transport else {
            return;
        };
        if udp.dst_port != 53 {
            return;
        }
        let Some(query) = QueryView::parse(payload) else {
            return;
        };
        if !query.name().is_some_and(|name| self.blocklist.contains(name)) {
            return;
        }
        self.injections += 1;
        let mut bytes = Vec::new();
        if query.answer_a(&[self.forged_ip], 60, &mut bytes).is_err() {
            return;
        }
        // Forge the resolver as source so the client's stub accepts it.
        let reply = Packet::udp(
            pkt.dst(),
            pkt.src(),
            UdpHeader::new(udp.dst_port, udp.src_port),
            bytes,
        );
        ctx.send_delayed(CLIENT_SIDE, reply, self.delay);
    }
}

impl Node for DnsInjectorNode {
    fn on_packet(&mut self, ctx: &mut NodeCtx<'_>, iface: IfaceId, pkt: Packet) {
        if iface == CLIENT_SIDE {
            self.inspect(ctx, &pkt);
            // Injection does not suppress the original query.
            ctx.send(RESOLVER_SIDE, pkt);
        } else {
            ctx.send(CLIENT_SIDE, pkt);
        }
    }

    fn label(&self) -> &str {
        &self.label
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::{shared, DnsCatalog};
    use lucent_packet::dns::DnsMessage;
    use crate::resolver::ResolverApp;
    use lucent_netsim::Network;
    use lucent_tcp::{TcpHost, UdpDatagram};

    const CLIENT: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 2);
    const RESOLVER: Ipv4Addr = Ipv4Addr::new(10, 0, 53, 53);
    const FORGED: Ipv4Addr = Ipv4Addr::new(59, 144, 9, 9);

    /// client -- injector -- resolver (direct, no routers needed).
    fn build(blocked: &[&str]) -> (Network, lucent_netsim::NodeId, lucent_netsim::NodeId) {
        let mut net = Network::new();
        let client = net.add_node(Box::new(TcpHost::new(CLIENT, "client", 1)));
        let mut resolver_host = TcpHost::new(RESOLVER, "resolver", 2);
        let mut catalog = DnsCatalog::new();
        catalog.add_global("blocked.example", vec![Ipv4Addr::new(198, 51, 100, 1)]);
        catalog.add_global("ok.example", vec![Ipv4Addr::new(198, 51, 100, 2)]);
        resolver_host.set_udp_app(53, Box::new(ResolverApp::honest(shared(catalog), 0)));
        let resolver = net.add_node(Box::new(resolver_host));
        let injector = net.add_node(Box::new(DnsInjectorNode::new(
            blocked.iter().map(|s| Name::new(s)),
            FORGED,
            "injector",
        )));
        let ms = SimDuration::from_millis(1);
        net.connect(client, IfaceId::PRIMARY, injector, CLIENT_SIDE, ms);
        net.connect(injector, RESOLVER_SIDE, resolver, IfaceId::PRIMARY, ms);
        (net, client, resolver)
    }

    /// Every datagram the client receives after asking for `name`.
    fn query_datagrams(net: &mut Network, client: lucent_netsim::NodeId, name: &str) -> Vec<UdpDatagram> {
        let mut bytes = Vec::new();
        DnsMessage::query_a(7, name).emit(&mut bytes).unwrap();
        wire_datagrams(net, client, &bytes)
    }

    /// Every datagram the client receives after sending the query bytes
    /// `wire`.
    fn wire_datagrams(net: &mut Network, client: lucent_netsim::NodeId, wire: &[u8]) -> Vec<UdpDatagram> {
        {
            let c = net.node_mut::<TcpHost>(client).unwrap();
            c.udp_bind(5353);
            c.udp_send(5353, RESOLVER, 53, wire);
        }
        net.wake(client);
        net.run_for(SimDuration::from_millis(50));
        net.node_mut::<TcpHost>(client).unwrap().take_udp_inbox()
    }

    fn query(net: &mut Network, client: lucent_netsim::NodeId, name: &str) -> Vec<DnsMessage> {
        query_datagrams(net, client, name).into_iter().map(|d| DnsMessage::parse(&d.payload).unwrap()).collect()
    }

    #[test]
    fn the_forged_reply_is_pinned_byte_for_byte() {
        let (mut net, client, _) = build(&["blocked.example"]);
        let first = query_datagrams(&mut net, client, "blocked.example").remove(0);
        assert_eq!((first.src, first.src_port, first.dst_port), (RESOLVER, 53, 5353), "spoofs the resolver");
        let name: &[u8] = b"\x07blocked\x07example\x00";
        let expected = [
            &[0, 7, 0x81, 0x80, 0, 1, 0, 1, 0, 0, 0, 0][..], // id 7, response + RD + RA, 1 question, 1 answer
            name, &[0, 1, 0, 1], // TYPE A, CLASS IN
            name, &[0, 1, 0, 1, 0, 0, 0, 60, 0, 4], // TTL 60, RDLENGTH 4
            &FORGED.octets(),
        ]
        .concat();
        assert_eq!(first.payload.as_ref(), &expected[..]);
    }

    #[test]
    fn odd_queries_get_pinned_forged_replies() {
        let (mut net, client, _) = build(&["blocked.example"]);
        let name: &[u8] = b"\x07blocked\x07example\x00";
        let forged = [
            &[0, 7, 0x81, 0x80, 0, 1, 0, 1, 0, 0, 0, 0][..],
            name, &[0, 1, 0, 1],
            name, &[0, 1, 0, 1, 0, 0, 0, 60, 0, 4],
            &FORGED.octets(),
        ]
        .concat();
        let header: &[u8] = &[0, 7, 1, 0, 0, 1, 0, 0, 0, 0, 0, 0];
        // An uppercase question, and one compressed into a pointer to
        // bytes past the question: both are forged in canonical form.
        let upper = [header, b"\x07BLOCKED\x07Example\x00", &[0, 1, 0, 1]].concat();
        let compressed = [header, &[0xc0, 18, 0, 1, 0, 1], b"\x07blocKED\x07example\x00"].concat();
        for query in [upper, compressed] {
            let first = wire_datagrams(&mut net, client, &query).remove(0);
            assert_eq!(first.payload.as_ref(), &forged[..], "{query:?}");
        }
    }

    #[test]
    fn blocked_query_gets_two_answers_forged_first() {
        let (mut net, client, _) = build(&["blocked.example"]);
        let answers = query(&mut net, client, "blocked.example");
        assert_eq!(answers.len(), 2, "forged + real");
        assert_eq!(answers[0].a_records(), vec![FORGED], "injection wins the race");
        assert_eq!(answers[1].a_records(), vec![Ipv4Addr::new(198, 51, 100, 1)]);
    }

    #[test]
    fn unblocked_query_gets_single_honest_answer() {
        let (mut net, client, _) = build(&["blocked.example"]);
        let answers = query(&mut net, client, "ok.example");
        assert_eq!(answers.len(), 1);
        assert_eq!(answers[0].a_records(), vec![Ipv4Addr::new(198, 51, 100, 2)]);
    }

    #[test]
    fn responses_transit_unmolested() {
        let (mut net, client, _) = build(&[]);
        let answers = query(&mut net, client, "blocked.example");
        assert_eq!(answers.len(), 1, "empty blocklist injector is a plain wire");
    }
}
