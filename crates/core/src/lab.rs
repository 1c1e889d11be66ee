//! The measurement driver: synchronous operations over the simulated
//! India. Probe code reads like the paper's scripts — connect, send a
//! crafted request, observe — while the lab advances virtual time
//! underneath.

use std::net::Ipv4Addr;

use lucent_netsim::{NodeId, SimDuration, SimTime};
use lucent_packet::dns::DnsMessage;
use lucent_packet::http::{find_head_end, RequestBuilder};
use lucent_packet::tcp::{TcpFlags, TcpHeader};
use lucent_packet::{HttpResponse, Packet, UdpHeader};
use lucent_tcp::{SocketEvent, SocketId, TcpHost, TcpState};
use lucent_topology::{India, IspId};

/// Default virtual timeout for connection establishment.
pub const CONNECT_TIMEOUT_MS: u64 = 4_000;
/// Default virtual timeout for a fetch after the request is sent.
pub const FETCH_TIMEOUT_MS: u64 = 4_000;
/// Window to wait for DNS answers.
pub const DNS_WINDOW_MS: u64 = 1_500;
/// Per-hop traceroute wait.
pub const HOP_WINDOW_MS: u64 = 600;

/// Outcome of a full-stack HTTP fetch.
#[derive(Debug, Clone)]
pub struct Fetch {
    /// Socket used.
    pub sock: SocketId,
    /// Raw bytes received (may contain several pipelined responses).
    pub bytes: Vec<u8>,
    /// The first parsed response, if any.
    pub response: Option<HttpResponse>,
    /// The socket's event log.
    pub events: Vec<SocketEvent>,
    /// TCP connection never established.
    pub connect_failed: bool,
}

impl Fetch {
    /// Did a RST tear the connection down?
    pub fn was_reset(&self) -> bool {
        self.events.contains(&SocketEvent::Reset)
    }

    /// Did retransmissions exhaust (black-holed traffic)?
    pub fn hit_timeout(&self) -> bool {
        self.events.contains(&SocketEvent::TimedOut)
    }

    /// Did the peer (or a forger) send FIN?
    pub fn peer_fin(&self) -> bool {
        self.events.contains(&SocketEvent::PeerFin)
    }

    /// True when a complete response (per Content-Length) arrived.
    pub fn complete(&self) -> bool {
        self.response.is_some()
    }

}

/// Outcome of a DNS resolution attempt.
#[derive(Debug, Clone)]
pub struct ResolveOutcome {
    /// Every response that arrived in the window (injection produces >1).
    pub responses: Vec<DnsMessage>,
    /// A records of the *first* response (what a stub resolver would use).
    pub ips: Vec<Ipv4Addr>,
    /// True when no response arrived at all.
    pub timed_out: bool,
}

impl ResolveOutcome {
    /// NXDOMAIN or empty answer in the first response.
    pub fn failed(&self) -> bool {
        self.timed_out || self.ips.is_empty()
    }
}

/// A traceroute result.
#[derive(Debug, Clone)]
pub struct Traceroute {
    /// Responding router per TTL (None = `*`, an anonymized hop).
    pub hops: Vec<Option<Ipv4Addr>>,
    /// True when the destination answered (port unreachable).
    pub reached: bool,
}

impl Traceroute {
    /// Number of hops to the destination, if reached.
    pub fn hop_count(&self) -> Option<u8> {
        self.reached.then_some(self.hops.len() as u8)
    }
}

/// A raw (stack-bypassing) TCP connection, as the paper's crafted-packet
/// scripts used.
#[derive(Debug, Clone)]
pub struct RawConn {
    /// Client node.
    pub client: NodeId,
    /// Client address.
    pub client_ip: Ipv4Addr,
    /// Local port (claimed raw).
    pub local_port: u16,
    /// Server address.
    pub dst: Ipv4Addr,
    /// Server port.
    pub dst_port: u16,
    /// Next sequence number we will send.
    pub seq: u32,
    /// Next sequence number we expect from the server.
    pub ack: u32,
    /// Whether the 3-way handshake completed.
    pub established: bool,
}

/// The lab: owns the world and a virtual clock.
pub struct Lab {
    /// The built India.
    pub india: India,
    udp_port: u16,
    raw_seq: u32,
}

impl Lab {
    /// Wrap a built world.
    pub fn new(india: India) -> Self {
        Lab { india, udp_port: 50_000, raw_seq: 0x2000_0000 }
    }

    /// The measurement client inside `isp`.
    pub fn client_of(&self, isp: IspId) -> NodeId {
        self.india.isps[&isp].client
    }

    /// Advance virtual time.
    pub fn run_ms(&mut self, ms: u64) {
        self.india.net.run_for(SimDuration::from_millis(ms));
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.india.net.now()
    }

    /// The TCP host behind `node`, if it is one. Lab callers always pass
    /// ids taken from the built [`India`] handles, so a miss means the
    /// probe is aimed at a router — the callers degrade to the same
    /// observable outcome as a dead host (nothing sent, nothing heard).
    fn host_mut(&mut self, node: NodeId) -> Option<&mut TcpHost> {
        self.india.net.node_mut::<TcpHost>(node)
    }

    fn host_ip(&mut self, node: NodeId) -> Ipv4Addr {
        self.india
            .net
            .node_ref::<TcpHost>(node)
            .map(|h| h.ip)
            .unwrap_or(Ipv4Addr::UNSPECIFIED)
    }

    /// Run in small slices until `pred` is true or `timeout_ms` elapses.
    ///
    /// The 10 ms slicing makes deadline-bounded popping the simulator's
    /// hottest entry point, which is why `netsim`'s calendar queue
    /// amortizes `pop_next_before` by advancing its wheel eagerly
    /// instead of re-scanning on every poll (DESIGN §15).
    fn run_until_ms<F: FnMut(&mut Self) -> bool>(&mut self, timeout_ms: u64, mut pred: F) -> bool {
        let deadline = self.now() + SimDuration::from_millis(timeout_ms);
        loop {
            if pred(self) {
                return true;
            }
            if self.now() >= deadline {
                return false;
            }
            let slice = SimDuration::from_millis(10);
            let next = self.now() + slice;
            self.india.net.run_until(next.min(deadline));
        }
    }

    // ------------------------------------------------------------------
    // Full-stack HTTP
    // ------------------------------------------------------------------

    /// Open a connection, send `request`, and collect the outcome.
    pub fn http_fetch(
        &mut self,
        from: NodeId,
        dst: Ipv4Addr,
        port: u16,
        request: Vec<u8>,
        timeout_ms: u64,
    ) -> Fetch {
        let Some(sock) = self.host_mut(from).map(|h| h.connect(dst, port)) else {
            return Fetch {
                sock: SocketId(u32::MAX),
                bytes: Vec::new(),
                response: None,
                events: Vec::new(),
                connect_failed: true,
            };
        };
        self.india.net.wake(from);
        let state_of = |lab: &Lab| {
            lab.india
                .net
                .node_ref::<TcpHost>(from)
                .map(|h| h.state(sock))
                .unwrap_or(TcpState::Closed)
        };
        let established =
            self.run_until_ms(CONNECT_TIMEOUT_MS, |lab| state_of(lab) != TcpState::SynSent);
        let state = state_of(self);
        if !established || state != TcpState::Established {
            let events = self
                .india
                .net
                .node_ref::<TcpHost>(from)
                .map(|h| h.events(sock).to_vec())
                .unwrap_or_default();
            return Fetch {
                sock,
                bytes: Vec::new(),
                response: None,
                events: events.into_iter().map(|e| e.event).collect(),
                connect_failed: true,
            };
        }
        if let Some(h) = self.host_mut(from) {
            h.send(sock, &request);
        }
        self.india.net.wake(from);
        self.run_until_ms(timeout_ms, |lab| {
            let Some(host) = lab.india.net.node_ref::<TcpHost>(from) else {
                return true;
            };
            let st = host.state(sock);
            if matches!(st, TcpState::Closed | TcpState::TimeWait | TcpState::LastAck) {
                return true;
            }
            response_complete(host.received(sock))
        });
        // Give in-flight tail packets (e.g. the post-FIN RST) a moment.
        self.run_ms(30);
        let bytes = self.host_mut(from).map(|h| h.take_received(sock)).unwrap_or_default();
        let events: Vec<SocketEvent> = self
            .india
            .net
            .node_ref::<TcpHost>(from)
            .map(|h| h.events(sock).iter().map(|e| e.event.clone()).collect())
            .unwrap_or_default();
        let response = HttpResponse::parse(&bytes).ok();
        Fetch { sock, bytes, response, events, connect_failed: false }
    }

    /// Browser-like GET for `host_header` at `dst`.
    pub fn http_get(&mut self, from: NodeId, dst: Ipv4Addr, host_header: &str, timeout_ms: u64) -> Fetch {
        let request = RequestBuilder::browser(host_header, "/").build();
        self.http_fetch(from, dst, 80, request, timeout_ms)
    }

    // ------------------------------------------------------------------
    // DNS
    // ------------------------------------------------------------------

    /// Resolve `domain` through `resolver`, from `from`.
    pub fn resolve(&mut self, from: NodeId, resolver: Ipv4Addr, domain: &str) -> ResolveOutcome {
        self.resolve_ttl(from, resolver, domain, None)
    }

    /// Resolve with an explicit IP TTL on the query (tracer variant).
    pub fn resolve_ttl(
        &mut self,
        from: NodeId,
        resolver: Ipv4Addr,
        domain: &str,
        ttl: Option<u8>,
    ) -> ResolveOutcome {
        self.udp_port = if self.udp_port >= 64_000 { 50_000 } else { self.udp_port + 1 };
        let port = self.udp_port;
        let id = (u32::from(port) % 0xffff) as u16;
        let query = DnsMessage::query_a(id, domain);
        let mut bytes = Vec::new();
        if query.emit(&mut bytes).is_err() {
            return ResolveOutcome { responses: Vec::new(), ips: Vec::new(), timed_out: true };
        }
        let from_ip = self.host_ip(from);
        if let Some(host) = self.host_mut(from) {
            host.udp_bind(port);
            let mut pkt = Packet::udp(from_ip, resolver, UdpHeader::new(port, 53), bytes);
            if let Some(t) = ttl {
                pkt.ip.ttl = t;
            }
            host.raw_send(pkt);
        }
        self.india.net.wake(from);
        let mut responses: Vec<DnsMessage> = Vec::new();
        self.run_until_ms(DNS_WINDOW_MS, |lab| {
            let inbox = lab.host_mut(from).map(|h| h.take_udp_inbox()).unwrap_or_default();
            for d in inbox {
                if d.dst_port == port {
                    if let Ok(msg) = DnsMessage::parse(&d.payload) {
                        if msg.id == id {
                            responses.push(msg);
                        }
                    }
                }
            }
            !responses.is_empty()
        });
        if !responses.is_empty() {
            // Grace window: catch a trailing second answer (injection).
            self.run_ms(80);
            for d in self.host_mut(from).map(|h| h.take_udp_inbox()).unwrap_or_default() {
                if d.dst_port == port {
                    if let Ok(msg) = DnsMessage::parse(&d.payload) {
                        if msg.id == id {
                            responses.push(msg);
                        }
                    }
                }
            }
        }
        let ips = responses.first().map(|r| r.a_records()).unwrap_or_default();
        let timed_out = responses.is_empty();
        ResolveOutcome { responses, ips, timed_out }
    }

    /// Send many DNS queries at once and collect answers for `window_ms`.
    ///
    /// Returns, per query, the A records of the first response (None =
    /// no response). The result always holds exactly one slot per query
    /// — dropped or unanswered probes pad with `None` rather than
    /// shrinking the list, so callers may index- or zip-align it with
    /// `queries` safely. Used by the open-resolver scans, where waiting
    /// a full window per probe would be wasteful.
    pub fn bulk_resolve(
        &mut self,
        from: NodeId,
        queries: &[(Ipv4Addr, &str)],
        window_ms: u64,
    ) -> Vec<Option<Vec<Ipv4Addr>>> {
        let from_ip = self.host_ip(from);
        let mut results: Vec<Option<Vec<Ipv4Addr>>> = vec![None; queries.len()];
        for chunk_start in (0..queries.len()).step_by(8_000) {
            let chunk = &queries[chunk_start..queries.len().min(chunk_start + 8_000)];
            let base_port = 40_000u16;
            if let Some(host) = self.host_mut(from) {
                for (i, (resolver, domain)) in chunk.iter().enumerate() {
                    let port = base_port + i as u16;
                    host.udp_bind(port);
                    let query = DnsMessage::query_a(port, domain);
                    let mut bytes = Vec::new();
                    if query.emit(&mut bytes).is_err() {
                        continue;
                    }
                    host.raw_send(Packet::udp(from_ip, *resolver, UdpHeader::new(port, 53), bytes));
                }
            }
            self.india.net.wake(from);
            let deadline = self.now() + SimDuration::from_millis(window_ms);
            let mut pending = chunk.len();
            while self.now() < deadline && pending > 0 {
                let next = self.now() + SimDuration::from_millis(20);
                self.india.net.run_until(next.min(deadline));
                for d in self.host_mut(from).map(|h| h.take_udp_inbox()).unwrap_or_default() {
                    let idx = usize::from(d.dst_port.wrapping_sub(base_port));
                    if idx >= chunk.len() {
                        continue;
                    }
                    let Ok(msg) = DnsMessage::parse(&d.payload) else { continue };
                    if d.src == chunk[idx].0 && results[chunk_start + idx].is_none() {
                        results[chunk_start + idx] = Some(msg.a_records());
                        pending -= 1;
                    }
                }
            }
        }
        debug_assert_eq!(results.len(), queries.len());
        results
    }

    // ------------------------------------------------------------------
    // Traceroute
    // ------------------------------------------------------------------

    /// Classic UDP traceroute from `from` to `dst`.
    pub fn traceroute(&mut self, from: NodeId, dst: Ipv4Addr, max_ttl: u8) -> Traceroute {
        let from_ip = self.host_ip(from);
        let mut hops = Vec::new();
        let mut reached = false;
        for ttl in 1..=max_ttl {
            let sport = 33_000 + u16::from(ttl);
            if let Some(host) = self.host_mut(from) {
                let mut probe =
                    Packet::udp(from_ip, dst, UdpHeader::new(sport, 33_434), vec![0u8; 8]);
                probe.ip.ttl = ttl;
                host.raw_send(probe);
            }
            self.india.net.wake(from);
            let mut hop: Option<Option<Ipv4Addr>> = None;
            self.run_until_ms(HOP_WINDOW_MS, |lab| {
                for (_, pkt) in lab.host_mut(from).map(|h| h.take_icmp_inbox()).unwrap_or_default()
                {
                    let Some(msg) = pkt.as_icmp() else { continue };
                    let (quoted_sport, quoted_dst) = match msg {
                        lucent_packet::IcmpMessage::TimeExceeded { original }
                        | lucent_packet::IcmpMessage::DestUnreachable { original, .. } => {
                            parse_quote(original)
                        }
                        _ => continue,
                    };
                    if quoted_dst != Some(dst) || quoted_sport != Some(sport) {
                        continue;
                    }
                    match msg {
                        lucent_packet::IcmpMessage::TimeExceeded { .. } => {
                            hop = Some(Some(pkt.src()));
                        }
                        lucent_packet::IcmpMessage::DestUnreachable { .. } => {
                            hop = Some(Some(pkt.src()));
                            reached = pkt.src() == dst;
                        }
                        _ => {}
                    }
                    return true;
                }
                false
            });
            match hop {
                Some(h) => {
                    hops.push(h);
                    if reached {
                        break;
                    }
                }
                None => hops.push(None), // `*` — anonymized or black-holed
            }
            if hops.len() >= usize::from(max_ttl) {
                break;
            }
        }
        Traceroute { hops, reached }
    }

    /// Hop count to `dst` (traceroute convenience).
    pub fn hops_to(&mut self, from: NodeId, dst: Ipv4Addr, max_ttl: u8) -> Option<u8> {
        self.traceroute(from, dst, max_ttl).hop_count()
    }

    // ------------------------------------------------------------------
    // Raw TCP
    // ------------------------------------------------------------------

    fn next_raw_seq(&mut self) -> u32 {
        self.raw_seq = self.raw_seq.wrapping_add(0x0001_0000);
        self.raw_seq
    }

    /// Hand-run a 3-way handshake on a raw port. `syn_ttl` limits the SYN
    /// (for the stateful-middlebox experiments); with a limited SYN the
    /// handshake cannot complete and the returned connection has
    /// `established == false`.
    pub fn raw_connect(
        &mut self,
        from: NodeId,
        dst: Ipv4Addr,
        dst_port: u16,
        syn_ttl: Option<u8>,
    ) -> RawConn {
        let client_ip = self.host_ip(from);
        let iss = self.next_raw_seq();
        let local_port = match self.host_mut(from) {
            Some(host) => {
                let p = host.alloc_port();
                host.raw_claim_port(p);
                let mut syn = TcpHeader::new(p, dst_port, TcpFlags::SYN);
                syn.seq = iss;
                syn.mss = Some(1400);
                let mut pkt = Packet::tcp(client_ip, dst, syn, lucent_support::Bytes::new());
                if let Some(t) = syn_ttl {
                    pkt.ip.ttl = t;
                }
                host.raw_send(pkt);
                p
            }
            // No host behind `from`: the SYN is never sent and the
            // handshake below times out, which is exactly what a caller
            // probing a dead address observes.
            None => 0,
        };
        self.india.net.wake(from);
        let mut conn = RawConn {
            client: from,
            client_ip,
            local_port,
            dst,
            dst_port,
            seq: iss.wrapping_add(1),
            ack: 0,
            established: false,
        };
        let mut synack: Option<TcpHeader> = None;
        self.run_until_ms(CONNECT_TIMEOUT_MS, |lab| {
            for (_, pkt) in lab.host_mut(from).map(|h| h.raw_take_inbox()).unwrap_or_default() {
                let Some((h, _)) = pkt.as_tcp() else { continue };
                if h.dst_port == local_port
                    && h.src_port == dst_port
                    && h.flags.contains(TcpFlags::SYN)
                    && h.flags.contains(TcpFlags::ACK)
                    && h.ack == iss.wrapping_add(1)
                {
                    synack = Some(h.clone());
                    return true;
                }
            }
            false
        });
        if let Some(sa) = synack {
            conn.ack = sa.seq.wrapping_add(1);
            conn.established = true;
            // Final ACK of the handshake.
            let mut ack = TcpHeader::new(local_port, dst_port, TcpFlags::ACK);
            ack.seq = conn.seq;
            ack.ack = conn.ack;
            let pkt = Packet::tcp(client_ip, dst, ack, lucent_support::Bytes::new());
            if let Some(h) = self.host_mut(from) {
                h.raw_send(pkt);
            }
            self.india.net.wake(from);
            self.run_ms(1);
        }
        conn
    }

    /// Send payload bytes on a raw connection, optionally TTL-limited.
    /// Advances the connection's send cursor.
    pub fn raw_send(&mut self, conn: &mut RawConn, payload: &[u8], ttl: Option<u8>) {
        let mut h = TcpHeader::new(conn.local_port, conn.dst_port, TcpFlags::ACK | TcpFlags::PSH);
        h.seq = conn.seq;
        h.ack = conn.ack;
        conn.seq = conn.seq.wrapping_add(payload.len() as u32);
        let mut pkt = Packet::tcp(conn.client_ip, conn.dst, h, payload.to_vec());
        if let Some(t) = ttl {
            pkt.ip.ttl = t;
        }
        if let Some(host) = self.host_mut(conn.client) {
            host.raw_send(pkt);
        }
        self.india.net.wake(conn.client);
    }

    /// Send an arbitrary crafted packet from a node.
    pub fn raw_packet(&mut self, from: NodeId, pkt: Packet) {
        if let Some(host) = self.host_mut(from) {
            host.raw_send(pkt);
        }
        self.india.net.wake(from);
    }

    /// Collect raw-port arrivals for `conn` during `window_ms`, acking
    /// received data (to suppress server retransmissions).
    pub fn raw_observe(&mut self, conn: &mut RawConn, window_ms: u64) -> Vec<Packet> {
        let mut got = Vec::new();
        let deadline = self.now() + SimDuration::from_millis(window_ms);
        loop {
            let inbox =
                self.host_mut(conn.client).map(|h| h.raw_take_inbox()).unwrap_or_default();
            for (_, pkt) in inbox {
                let Some((h, payload)) = pkt.as_tcp() else { continue };
                if h.dst_port != conn.local_port {
                    continue;
                }
                let advance =
                    payload.len() as u32 + u32::from(h.flags.contains(TcpFlags::FIN));
                if advance > 0 && h.seq == conn.ack {
                    conn.ack = conn.ack.wrapping_add(advance);
                    let mut ack = TcpHeader::new(conn.local_port, conn.dst_port, TcpFlags::ACK);
                    ack.seq = conn.seq;
                    ack.ack = conn.ack;
                    let out = Packet::tcp(conn.client_ip, conn.dst, ack, lucent_support::Bytes::new());
                    if let Some(host) = self.host_mut(conn.client) {
                        host.raw_send(out);
                    }
                    self.india.net.wake(conn.client);
                }
                got.push(pkt);
            }
            if self.now() >= deadline {
                break;
            }
            let next = self.now() + SimDuration::from_millis(10);
            self.india.net.run_until(next.min(deadline));
        }
        got
    }

    /// Abort a raw connection (RST) and release the port.
    pub fn raw_close(&mut self, conn: &RawConn) {
        let mut rst = TcpHeader::new(conn.local_port, conn.dst_port, TcpFlags::RST);
        rst.seq = conn.seq;
        let pkt = Packet::tcp(conn.client_ip, conn.dst, rst, lucent_support::Bytes::new());
        if let Some(host) = self.host_mut(conn.client) {
            host.raw_send(pkt);
            host.raw_release_port(conn.local_port);
        }
        self.india.net.wake(conn.client);
        self.run_ms(2);
    }
}

/// Does `bytes` contain at least one complete HTTP response (head plus
/// Content-Length worth of body)?
fn response_complete(bytes: &[u8]) -> bool {
    let Some(end) = find_head_end(bytes) else {
        return false;
    };
    match HttpResponse::parse(bytes) {
        Ok(resp) => {
            let want: usize = resp
                .header("content-length")
                .and_then(|v| v.parse().ok())
                .unwrap_or(0);
            bytes.len() >= end + want
        }
        Err(_) => false,
    }
}

/// Extract (source port, destination IP) from an ICMP-quoted datagram.
fn parse_quote(original: &[u8]) -> (Option<u16>, Option<Ipv4Addr>) {
    if original.len() < 24 {
        return (None, None);
    }
    let dst = Ipv4Addr::new(original[16], original[17], original[18], original[19]);
    let sport = u16::from_be_bytes([original[20], original[21]]);
    (Some(sport), Some(dst))
}

#[cfg(test)]
mod tests {
    use super::*;
    use lucent_topology::IndiaConfig;

    fn lab() -> Lab {
        Lab::new(India::build(IndiaConfig::tiny()))
    }

    #[test]
    fn response_completeness_logic() {
        assert!(!response_complete(b"HTTP/1.1 200 OK\r\nContent-Length: 5\r\n\r\n123"));
        assert!(response_complete(b"HTTP/1.1 200 OK\r\nContent-Length: 5\r\n\r\n12345"));
        assert!(!response_complete(b"HTTP/1.1 200 OK\r\nConte"));
        assert!(response_complete(b"HTTP/1.1 200 OK\r\n\r\n"));
    }

    #[test]
    fn quote_parsing() {
        let pkt = Packet::udp(
            Ipv4Addr::new(1, 2, 3, 4),
            Ipv4Addr::new(5, 6, 7, 8),
            UdpHeader::new(33_007, 33_434),
            &b"x"[..],
        );
        let quote = pkt.icmp_quote();
        let (sport, dst) = parse_quote(&quote);
        assert_eq!(sport, Some(33_007));
        assert_eq!(dst, Some(Ipv4Addr::new(5, 6, 7, 8)));
        assert_eq!(parse_quote(&[1, 2, 3]), (None, None));
    }

    #[test]
    fn resolve_and_fetch_unblocked_site_from_nkn() {
        // NKN is non-censorious; an ordinary site must resolve and fetch.
        let mut lab = lab();
        let client = lab.client_of(IspId::Nkn);
        let resolver = lab.india.isps[&IspId::Nkn].default_resolver;
        // Find a healthy, unblocked-for-NKN site.
        let site = lab
            .india
            .corpus
            .pbw
            .iter()
            .copied()
            .find(|&s| {
                let st = lab.india.corpus.site(s);
                st.is_alive()
                    && st.kind == lucent_web::SiteKind::Normal
                    && !lab.india.truth.blocked_for_client(IspId::Nkn, s)
            })
            .expect("an unblocked healthy site exists");
        let domain = lab.india.corpus.site(site).domain.clone();
        let dns = lab.resolve(client, resolver, &domain);
        assert!(!dns.failed(), "{domain} must resolve: {dns:?}");
        let fetch = lab.http_get(client, dns.ips[0], &domain, FETCH_TIMEOUT_MS);
        let resp = fetch.response.expect("got a response");
        assert_eq!(resp.status, 200);
        assert!(resp.title().unwrap_or_default().contains(&domain));
    }

    #[test]
    fn traceroute_reaches_external_host() {
        let mut lab = lab();
        let client = lab.client_of(IspId::Airtel);
        let (vp_ip, _) = lab.india.external_vps[0];
        let tr = lab.traceroute(client, vp_ip, 16);
        assert!(tr.reached, "{:?}", tr.hops);
        // leaf, core (maybe anonymized), gateway, exchange, vp router, host.
        assert!(tr.hops.len() >= 5 && tr.hops.len() <= 10, "{:?}", tr.hops);
        assert_eq!(tr.hops.last().copied().flatten(), Some(vp_ip));
    }

    #[test]
    fn raw_handshake_against_edge_host() {
        let mut lab = lab();
        let client = lab.client_of(IspId::Nkn);
        let (edge_ip, _) = lab.india.isps[&IspId::Nkn].edge_hosts[0];
        let mut conn = lab.raw_connect(client, edge_ip, 80, None);
        assert!(conn.established);
        // A GET draws the edge host's 404.
        let req = RequestBuilder::browser("nosuch.example", "/").build();
        lab.raw_send(&mut conn, &req, None);
        let pkts = lab.raw_observe(&mut conn, 500);
        let any_payload = pkts.iter().any(|p| p.as_tcp().map(|(_, b)| !b.is_empty()).unwrap_or(false));
        assert!(any_payload, "edge host answered");
        lab.raw_close(&conn);
    }

    #[test]
    fn ttl_limited_syn_never_establishes() {
        let mut lab = lab();
        let client = lab.client_of(IspId::Airtel);
        let (edge_ip, _) = lab.india.isps[&IspId::Airtel].edge_hosts.last().copied().unwrap();
        let conn = lab.raw_connect(client, edge_ip, 80, Some(2));
        assert!(!conn.established);
    }
}
