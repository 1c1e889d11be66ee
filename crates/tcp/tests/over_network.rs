//! End-to-end tests of the TCP host over a simulated routed network:
//! handshake, HTTP-ish exchange, RST behaviour, raw sockets, firewall.

use std::net::Ipv4Addr;

use lucent_netsim::routing::Cidr;
use lucent_netsim::{IfaceId, Network, NodeId, RouterNode, SimDuration};
use lucent_packet::tcp::{TcpFlags, TcpHeader};
use lucent_packet::{Packet, Transport};
use lucent_tcp::{FilterRule, FixedResponder, SocketEvent, TcpHost, TcpState};

const CLIENT_IP: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 2);
const SERVER_IP: Ipv4Addr = Ipv4Addr::new(203, 0, 113, 2);

struct Net {
    net: Network,
    client: NodeId,
    server: NodeId,
}

/// client -- r1 -- r2 -- server
fn build() -> Net {
    let mut net = Network::new();
    let client = net.add_node(Box::new(TcpHost::new(CLIENT_IP, "client", 1)));
    let server = net.add_node(Box::new(TcpHost::new(SERVER_IP, "server", 2)));
    let mut r1 = RouterNode::new(Ipv4Addr::new(10, 0, 0, 1), "r1");
    r1.table.add(Cidr::new(CLIENT_IP, 24), IfaceId(0));
    r1.table.add(Cidr::new(SERVER_IP, 24), IfaceId(1));
    let mut r2 = RouterNode::new(Ipv4Addr::new(203, 0, 113, 1), "r2");
    r2.table.add(Cidr::new(CLIENT_IP, 24), IfaceId(0));
    r2.table.add(Cidr::new(SERVER_IP, 24), IfaceId(1));
    let r1 = net.add_node(Box::new(r1));
    let r2 = net.add_node(Box::new(r2));
    let ms = SimDuration::from_millis(2);
    net.connect(client, IfaceId::PRIMARY, r1, IfaceId(0), ms);
    net.connect(r1, IfaceId(1), r2, IfaceId(0), ms);
    net.connect(r2, IfaceId(1), server, IfaceId::PRIMARY, ms);
    Net { net, client, server }
}

fn run(net: &mut Network, ms: u64) {
    let deadline = net.now() + SimDuration::from_millis(ms);
    net.run_until(deadline);
}

#[test]
fn connect_exchange_close() {
    let mut t = build();
    t.net
        .node_mut::<TcpHost>(t.server).unwrap()
        .listen(80, || Box::new(FixedResponder::new(b"HTTP/1.1 200 OK\r\n\r\nhello".to_vec())));
    let sock = t.net.node_mut::<TcpHost>(t.client).unwrap().connect(SERVER_IP, 80);
    t.net.wake(t.client);
    run(&mut t.net, 100);
    assert_eq!(t.net.node_ref::<TcpHost>(t.client).unwrap().state(sock), TcpState::Established);

    t.net.node_mut::<TcpHost>(t.client).unwrap().send(sock, b"GET / HTTP/1.1\r\nHost: x\r\n\r\n");
    t.net.wake(t.client);
    run(&mut t.net, 200);
    let got = t.net.node_mut::<TcpHost>(t.client).unwrap().take_received(sock);
    assert_eq!(got, b"HTTP/1.1 200 OK\r\n\r\nhello");
    // Server closed after responding; client auto-closed in return.
    let events = t.net.node_ref::<TcpHost>(t.client).unwrap().events(sock);
    assert!(events.iter().any(|e| e.event == SocketEvent::PeerFin));
    // After TIME-WAIT expiry everything reaches Closed.
    run(&mut t.net, 20_000);
    assert_eq!(t.net.node_ref::<TcpHost>(t.client).unwrap().state(sock), TcpState::Closed);
}

#[test]
fn syn_to_closed_port_draws_rst() {
    let mut t = build();
    let sock = t.net.node_mut::<TcpHost>(t.client).unwrap().connect(SERVER_IP, 8080);
    t.net.wake(t.client);
    run(&mut t.net, 100);
    let client = t.net.node_ref::<TcpHost>(t.client).unwrap();
    assert_eq!(client.state(sock), TcpState::Closed);
    assert!(client.events(sock).iter().any(|e| e.event == SocketEvent::Reset));
}

#[test]
fn syn_to_unreachable_host_times_out() {
    let mut t = build();
    // 203.0.113.77 is routed (same /24) but no host answers: packets die
    // on the unconnected leaf. SYN retries then exhaust.
    let sock = t.net.node_mut::<TcpHost>(t.client).unwrap().connect(Ipv4Addr::new(203, 0, 113, 77), 80);
    t.net.wake(t.client);
    run(&mut t.net, 30_000);
    let client = t.net.node_ref::<TcpHost>(t.client).unwrap();
    assert_eq!(client.state(sock), TcpState::Closed);
    assert!(client.events(sock).iter().any(|e| e.event == SocketEvent::TimedOut));
}

#[test]
fn late_segment_after_close_draws_rst() {
    // Forge a data segment for a connection the client has never had;
    // the client must answer RST — the Figure 4 behaviour.
    let mut t = build();
    t.net.node_mut::<TcpHost>(t.server).unwrap().enable_pcap();
    let mut h = TcpHeader::new(4999, 80, TcpFlags::ACK | TcpFlags::PSH);
    h.seq = 12345;
    h.ack = 999;
    let stray = Packet::tcp(SERVER_IP, CLIENT_IP, TcpHeader { src_port: 80, dst_port: 4999, ..h }, &b"late"[..]);
    t.net.inject(t.client, IfaceId::PRIMARY, stray);
    run(&mut t.net, 100);
    let pcap = t.net.node_mut::<TcpHost>(t.server).unwrap().disable_pcap();
    assert_eq!(pcap.len(), 1);
    let (hdr, _) = pcap[0].1.as_tcp().unwrap();
    assert!(hdr.flags.contains(TcpFlags::RST));
    assert_eq!(hdr.src_port, 4999);
}

#[test]
fn aged_client_still_aborts_rejects_and_keeps_logs() {
    // A long-lived client (the paper's per-ISP vantage point) accumulates
    // hundreds of closed sockets. Wakes skip them, which must change
    // nothing a driver or the wire can observe. The server closes first,
    // so its side of each connection sits in TIME-WAIT.
    const FETCHES: usize = 300;
    let mut t = build();
    t.net
        .node_mut::<TcpHost>(t.server).unwrap()
        .listen(80, || Box::new(FixedResponder::new(b"HTTP/1.1 200 OK\r\n\r\nhi".to_vec())));
    let mut socks = Vec::with_capacity(FETCHES);
    let mut first_log = Vec::new();
    for i in 0..FETCHES {
        let c = t.net.node_mut::<TcpHost>(t.client).unwrap();
        let sock = c.connect(SERVER_IP, 80);
        c.send(sock, b"GET / HTTP/1.1\r\nHost: x\r\n\r\n");
        t.net.wake(t.client);
        run(&mut t.net, 50);
        let c = t.net.node_ref::<TcpHost>(t.client).unwrap();
        assert_eq!(c.received(sock), b"HTTP/1.1 200 OK\r\n\r\nhi", "fetch {i}");
        assert_eq!(c.state(sock), TcpState::Closed, "fetch {i}");
        if i == 0 {
            first_log = c.events(sock).to_vec();
        }
        socks.push(sock);
    }
    // Every server-side TIME-WAIT expires.
    run(&mut t.net, 11_000);
    let c = t.net.node_ref::<TcpHost>(t.client).unwrap();
    assert!(socks.iter().all(|&s| c.state(s) == TcpState::Closed));

    // The first socket still reads Closed, with its whole log.
    let first = socks[0];
    assert_eq!(c.state(first), TcpState::Closed);
    assert_eq!(c.events(first), &first_log[..]);
    let kinds: Vec<_> = first_log.iter().map(|e| e.event.clone()).collect();
    assert_eq!(
        kinds,
        [
            SocketEvent::Established,
            SocketEvent::Data { len: 21 },
            SocketEvent::PeerFin,
            SocketEvent::Closed
        ]
    );
    let first_port = c.local_addr(first).unwrap().1;

    // A driver abort on a fresh live socket puts exactly one RST on the
    // wire.
    let fresh = t.net.node_mut::<TcpHost>(t.client).unwrap().connect(SERVER_IP, 80);
    t.net.wake(t.client);
    run(&mut t.net, 50);
    assert_eq!(t.net.node_ref::<TcpHost>(t.client).unwrap().state(fresh), TcpState::Established);
    t.net.node_mut::<TcpHost>(t.server).unwrap().enable_pcap();
    t.net.node_mut::<TcpHost>(t.client).unwrap().abort(fresh);
    t.net.wake(t.client);
    run(&mut t.net, 50);
    let pcap = t.net.node_mut::<TcpHost>(t.server).unwrap().disable_pcap();
    let rsts = pcap
        .iter()
        .filter(|(_, p)| p.as_tcp().is_some_and(|(h, _)| h.flags.contains(TcpFlags::RST)))
        .count();
    assert_eq!(rsts, 1, "abort must emit exactly one RST: {pcap:?}");

    // A forged segment to the first socket's old 4-tuple draws a RST (the
    // Figure 4 behaviour), and the old log is untouched.
    let mut h = TcpHeader::new(80, first_port, TcpFlags::ACK | TcpFlags::PSH);
    h.seq = 777;
    h.ack = 888;
    t.net.node_mut::<TcpHost>(t.server).unwrap().enable_pcap();
    t.net.inject(t.client, IfaceId::PRIMARY, Packet::tcp(SERVER_IP, CLIENT_IP, h, &b"late"[..]));
    run(&mut t.net, 50);
    let pcap = t.net.node_mut::<TcpHost>(t.server).unwrap().disable_pcap();
    assert_eq!(pcap.len(), 1);
    let (hdr, _) = pcap[0].1.as_tcp().unwrap();
    assert!(hdr.flags.contains(TcpFlags::RST));
    assert_eq!((hdr.src_port, hdr.seq), (first_port, 888));
    let c = t.net.node_ref::<TcpHost>(t.client).unwrap();
    assert_eq!(c.state(first), TcpState::Closed);
    assert_eq!(c.events(first), &first_log[..]);
}

#[test]
fn raw_port_bypasses_stack_and_collects_packets() {
    let mut t = build();
    t.net.node_mut::<TcpHost>(t.server).unwrap().listen(80, || {
        Box::new(FixedResponder::new(b"resp".to_vec()))
    });
    // Claim port 5555 raw on the client and hand-run a SYN.
    {
        let c = t.net.node_mut::<TcpHost>(t.client).unwrap();
        c.raw_claim_port(5555);
        let mut syn = TcpHeader::new(5555, 80, TcpFlags::SYN);
        syn.seq = 100;
        c.raw_send(Packet::tcp(CLIENT_IP, SERVER_IP, syn, &b""[..]));
    }
    t.net.wake(t.client);
    run(&mut t.net, 100);
    let inbox = t.net.node_mut::<TcpHost>(t.client).unwrap().raw_take_inbox();
    assert_eq!(inbox.len(), 1, "exactly the SYN-ACK, no stack interference");
    let (h, _) = inbox[0].1.as_tcp().unwrap();
    assert!(h.flags.contains(TcpFlags::SYN) && h.flags.contains(TcpFlags::ACK));
    assert_eq!(h.ack, 101);
}

#[test]
fn firewall_drops_forged_fin_but_passes_data() {
    let mut t = build();
    t.net
        .node_mut::<TcpHost>(t.server).unwrap()
        .listen(80, || Box::new(FixedResponder::new(b"CONTENT".to_vec())));
    let sock = t.net.node_mut::<TcpHost>(t.client).unwrap().connect(SERVER_IP, 80);
    t.net.wake(t.client);
    run(&mut t.net, 100);

    // Install the evasion rule, then inject a forged FIN "from the server".
    {
        let c = t.net.node_mut::<TcpHost>(t.client).unwrap();
        c.firewall.add(FilterRule::drop_fin_rst_with_ip_id(242));
    }
    let (snd_nxt, rcv_nxt) = t.net.node_ref::<TcpHost>(t.client).unwrap().seq_cursors(sock).unwrap();
    let local_port = t.net.node_ref::<TcpHost>(t.client).unwrap().local_addr(sock).unwrap().1;
    let mut forged = TcpHeader::new(80, local_port, TcpFlags::FIN | TcpFlags::PSH | TcpFlags::ACK);
    forged.seq = rcv_nxt;
    forged.ack = snd_nxt;
    let forged_pkt =
        Packet::tcp(SERVER_IP, CLIENT_IP, forged, &b"BLOCKED"[..]).with_ip_id(242);
    t.net.inject(t.client, IfaceId::PRIMARY, forged_pkt);
    run(&mut t.net, 50);
    // Connection survives; the forged notification never reached the TCB.
    assert_eq!(t.net.node_ref::<TcpHost>(t.client).unwrap().state(sock), TcpState::Established);
    assert!(t.net.node_ref::<TcpHost>(t.client).unwrap().received(sock).is_empty());

    // Real request/response still works through the firewall.
    t.net.node_mut::<TcpHost>(t.client).unwrap().send(sock, b"GET /");
    t.net.wake(t.client);
    run(&mut t.net, 200);
    assert_eq!(t.net.node_mut::<TcpHost>(t.client).unwrap().take_received(sock), b"CONTENT");
}

#[test]
fn udp_roundtrip_and_icmp_unreachable() {
    let mut t = build();
    t.net.node_mut::<TcpHost>(t.server).unwrap().udp_bind(53);
    t.net.node_mut::<TcpHost>(t.client).unwrap().udp_bind(5353);
    t.net.node_mut::<TcpHost>(t.client).unwrap().udp_send(5353, SERVER_IP, 53, b"query");
    t.net.wake(t.client);
    run(&mut t.net, 100);
    let inbox = t.net.node_mut::<TcpHost>(t.server).unwrap().take_udp_inbox();
    assert_eq!(inbox.len(), 1);
    assert_eq!(&inbox[0].payload[..], b"query");
    assert_eq!(inbox[0].src, CLIENT_IP);

    // Datagram to a closed port draws ICMP port-unreachable.
    t.net.node_mut::<TcpHost>(t.client).unwrap().udp_send(5353, SERVER_IP, 999, b"stray");
    t.net.wake(t.client);
    run(&mut t.net, 100);
    let icmp = t.net.node_mut::<TcpHost>(t.client).unwrap().take_icmp_inbox();
    assert_eq!(icmp.len(), 1);
    match icmp[0].1.as_icmp() {
        Some(lucent_packet::IcmpMessage::DestUnreachable { code: 3, .. }) => {}
        other => panic!("expected port unreachable, got {other:?}"),
    }
}

#[test]
fn pcap_sees_packets_firewall_drops() {
    let mut t = build();
    {
        let c = t.net.node_mut::<TcpHost>(t.client).unwrap();
        c.enable_pcap();
        c.firewall.add(FilterRule::drop_fin_rst_from(SERVER_IP));
    }
    let mut fin = TcpHeader::new(80, 6000, TcpFlags::FIN | TcpFlags::ACK);
    fin.seq = 1;
    let pkt = Packet::tcp(SERVER_IP, CLIENT_IP, fin, &b""[..]);
    t.net.inject(t.client, IfaceId::PRIMARY, pkt);
    run(&mut t.net, 10);
    let c = t.net.node_mut::<TcpHost>(t.client).unwrap();
    assert_eq!(c.disable_pcap().len(), 1, "tcpdump-style capture precedes the filter");
    assert_eq!(c.firewall.dropped, 1);
}

#[test]
fn two_concurrent_connections_do_not_interfere() {
    let mut t = build();
    t.net.node_mut::<TcpHost>(t.server).unwrap().listen(80, || {
        Box::new(FixedResponder::new(b"A".to_vec()))
    });
    t.net.node_mut::<TcpHost>(t.server).unwrap().listen(81, || {
        Box::new(FixedResponder::new(b"B".to_vec()))
    });
    let s1 = t.net.node_mut::<TcpHost>(t.client).unwrap().connect(SERVER_IP, 80);
    let s2 = t.net.node_mut::<TcpHost>(t.client).unwrap().connect(SERVER_IP, 81);
    t.net.wake(t.client);
    run(&mut t.net, 100);
    t.net.node_mut::<TcpHost>(t.client).unwrap().send(s1, b"one");
    t.net.node_mut::<TcpHost>(t.client).unwrap().send(s2, b"two");
    t.net.wake(t.client);
    run(&mut t.net, 300);
    assert_eq!(t.net.node_mut::<TcpHost>(t.client).unwrap().take_received(s1), b"A");
    assert_eq!(t.net.node_mut::<TcpHost>(t.client).unwrap().take_received(s2), b"B");
}

#[test]
fn deterministic_replay_same_seed() {
    let trace_a = {
        let mut t = build();
        t.net.trace().enable_all();
        t.net.node_mut::<TcpHost>(t.server).unwrap().listen(80, || {
            Box::new(FixedResponder::new(b"x".to_vec()))
        });
        let s = t.net.node_mut::<TcpHost>(t.client).unwrap().connect(SERVER_IP, 80);
        t.net.wake(t.client);
        run(&mut t.net, 50);
        t.net.node_mut::<TcpHost>(t.client).unwrap().send(s, b"req");
        t.net.wake(t.client);
        run(&mut t.net, 200);
        t.net.trace().transcript()
    };
    let trace_b = {
        let mut t = build();
        t.net.trace().enable_all();
        t.net.node_mut::<TcpHost>(t.server).unwrap().listen(80, || {
            Box::new(FixedResponder::new(b"x".to_vec()))
        });
        let s = t.net.node_mut::<TcpHost>(t.client).unwrap().connect(SERVER_IP, 80);
        t.net.wake(t.client);
        run(&mut t.net, 50);
        t.net.node_mut::<TcpHost>(t.client).unwrap().send(s, b"req");
        t.net.wake(t.client);
        run(&mut t.net, 200);
        t.net.trace().transcript()
    };
    assert_eq!(trace_a, trace_b);
    assert!(trace_a.contains("SYN"));
}

#[test]
fn wire_fidelity_all_segments_serialize() {
    // Every packet of a full HTTP-over-TCP exchange must survive
    // emit→parse roundtripping (structured mode hides nothing).
    let mut t = build();
    t.net.trace().enable_all();
    t.net.node_mut::<TcpHost>(t.server).unwrap().listen(80, || {
        Box::new(FixedResponder::new(b"HTTP/1.1 200 OK\r\n\r\nbody".to_vec()))
    });
    let s = t.net.node_mut::<TcpHost>(t.client).unwrap().connect(SERVER_IP, 80);
    t.net.wake(t.client);
    run(&mut t.net, 50);
    t.net.node_mut::<TcpHost>(t.client).unwrap().send(s, b"GET / HTTP/1.1\r\nHost: h\r\n\r\n");
    t.net.wake(t.client);
    run(&mut t.net, 300);
    let entries = t.net.trace().entries();
    assert!(entries.len() > 10);
    for e in entries {
        if matches!(e.packet.transport, Transport::Tcp(..)) {
            let wire = e.packet.emit();
            let parsed = Packet::parse(&wire).expect("wire roundtrip");
            assert_eq!(parsed, e.packet);
        }
    }
}
