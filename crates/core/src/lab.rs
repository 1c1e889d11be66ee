//! The measurement driver: synchronous operations over the simulated
//! India. Probe code reads like the paper's scripts — connect, send a
//! crafted request, observe — while the lab advances virtual time
//! underneath.

use std::net::Ipv4Addr;

use lucent_middlebox::notice::looks_like_notice;
use lucent_netsim::{NodeId, SimDuration, SimTime};
use lucent_packet::dns::{self, DnsMessage};
use lucent_packet::http::{find_head_end, RequestBuilder};
use lucent_packet::tcp::{TcpFlags, TcpHeader};
use lucent_packet::{Bytes, HttpResponse, IcmpMessage, Packet, UdpHeader};
use lucent_tcp::{FilterRule, SocketEvent, SocketId, TcpHost, TcpState};
use lucent_topology::{India, IspId};

/// Default virtual timeout for connection establishment.
pub const CONNECT_TIMEOUT_MS: u64 = 4_000;
/// Default virtual timeout for a fetch after the request is sent.
pub const FETCH_TIMEOUT_MS: u64 = 4_000;
/// Window to wait for DNS answers.
pub const DNS_WINDOW_MS: u64 = 1_500;
/// Per-hop traceroute wait.
pub const HOP_WINDOW_MS: u64 = 600;
/// The port every raw connection targets.
const HTTP_PORT: u16 = 80;
/// Queries per round of a bulk resolve; query `i` of a round takes the
/// client port, and DNS id, `BULK_BASE_PORT + i`.
const BULK_ROUND: usize = 8_000;
/// See [`BULK_ROUND`].
const BULK_BASE_PORT: u16 = 40_000;

/// The client port, and DNS id, of bulk query `i`.
fn bulk_port(i: usize) -> u16 {
    BULK_BASE_PORT + (i % BULK_ROUND) as u16
}

/// Bulk query `i`, an A query for `domain`, encoded; `None` when the
/// name cannot be encoded.
fn bulk_query(i: usize, domain: &str) -> Option<Vec<u8>> {
    let mut bytes = Vec::new();
    DnsMessage::query_a(bulk_port(i), domain).emit(&mut bytes).ok()?;
    Some(bytes)
}

/// The A queries for `domains`, each encoded once as
/// [`Lab::bulk_resolve`] encodes the query at its index, for
/// [`Lab::bulk_resolve_at`].
pub fn bulk_queries<'a>(domains: impl IntoIterator<Item = &'a str>) -> Vec<Option<Vec<u8>>> {
    domains.into_iter().enumerate().map(|(i, domain)| bulk_query(i, domain)).collect()
}

/// What a host captured: every inbound packet with its arrival time,
/// oldest first.
pub type Capture = Vec<(SimTime, Packet)>;

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

    /// Did the first response carry a censorship notification page?
    pub fn shows_notice(&self) -> bool {
        self.response.as_ref().is_some_and(looks_like_notice)
    }

    /// Did this fetch show a block: a reset, a black-holed timeout or a
    /// notification page?
    pub fn censored(&self) -> bool {
        self.was_reset() || self.hit_timeout() || self.shows_notice()
    }

    /// Did the fetch die without a response: reset, timed out or never
    /// connected?
    pub fn killed(&self) -> bool {
        self.response.is_none() && (self.was_reset() || self.hit_timeout() || self.connect_failed)
    }

    /// Did a complete response arrive with no reset?
    pub fn clean(&self) -> bool {
        self.complete() && !self.was_reset()
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

/// A raw (stack-bypassing) TCP connection to port 80, as the paper's
/// crafted-packet scripts used.
#[derive(Debug, Clone)]
pub struct RawConn {
    /// Client node.
    pub client: NodeId,
    /// Client address.
    pub client_ip: Ipv4Addr,
    /// Local port (claimed raw, or a stack socket's: see
    /// [`Lab::tcp_as_raw`]).
    pub local_port: u16,
    /// Server address.
    pub dst: Ipv4Addr,
    /// Next sequence number we will send.
    pub seq: u32,
    /// Next sequence number we expect from the server.
    pub ack: u32,
    /// Whether the 3-way handshake completed.
    pub established: bool,
}

impl RawConn {
    /// A header on this connection's ports carrying its cursors.
    fn header(&self, flags: TcpFlags) -> TcpHeader {
        let mut h = TcpHeader::new(self.local_port, HTTP_PORT, flags);
        h.seq = self.seq;
        h.ack = self.ack;
        h
    }
}

/// What a crafted request drew within its observation window.
///
/// Pick the verdict by the request's TTL. Below the destination only a
/// middlebox can answer, so [`RawReply::answered`] is the test; at full
/// TTL the origin answers too, so ask [`RawReply::censored`].
#[derive(Debug, Clone)]
pub struct RawReply {
    /// TCP arrivals on the connection's raw port, in arrival order.
    pub packets: Vec<Packet>,
    /// Source of the first ICMP Time-Exceeded that arrived between the
    /// request going out and the end of the window.
    pub expired_at: Option<Ipv4Addr>,
}

impl RawReply {
    /// The first RST or payload-bearing segment.
    pub(crate) fn first_answer(&self) -> Option<&Packet> {
        self.packets.iter().find(|p| {
            p.as_tcp().is_some_and(|(h, b)| h.flags.contains(TcpFlags::RST) || !b.is_empty())
        })
    }

    /// Did anything answer the request: a RST or any payload?
    pub fn answered(&self) -> bool {
        self.first_answer().is_some()
    }

    /// Did a censor answer the request: a RST or a notification page?
    pub fn censored(&self) -> bool {
        self.packets.iter().any(|p| {
            p.as_tcp().is_some_and(|(h, b)| {
                h.flags.contains(TcpFlags::RST)
                    || HttpResponse::parse(b).is_ok_and(|r| looks_like_notice(&r))
            })
        })
    }
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

    fn host_ref(&self, node: NodeId) -> Option<&TcpHost> {
        self.india.net.node_ref::<TcpHost>(node)
    }

    fn host_ip(&self, node: NodeId) -> Ipv4Addr {
        self.host_ref(node).map(|h| h.ip).unwrap_or(Ipv4Addr::UNSPECIFIED)
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
        let unconnected = |sock, events| Fetch {
            sock,
            bytes: Vec::new(),
            response: None,
            events,
            connect_failed: true,
        };
        let Some(sock) = self.tcp_connect(from, dst, port) else {
            return unconnected(SocketId(u32::MAX), Vec::new());
        };
        let established = self.run_until_ms(CONNECT_TIMEOUT_MS, |lab| {
            lab.tcp_state(from, sock) != TcpState::SynSent
        });
        if !established || self.tcp_state(from, sock) != TcpState::Established {
            return unconnected(sock, self.tcp_events(from, sock));
        }
        self.tcp_send(from, sock, &request);
        self.run_until_ms(timeout_ms, |lab| {
            let Some(host) = lab.host_ref(from) else {
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
        self.tcp_collect(from, sock)
    }

    /// Browser-like GET for `host_header` at `dst`.
    pub fn http_get(&mut self, from: NodeId, dst: Ipv4Addr, host_header: &str, timeout_ms: u64) -> Fetch {
        let request = RequestBuilder::browser(host_header, "/").build();
        self.http_fetch(from, dst, 80, request, timeout_ms)
    }

    // ------------------------------------------------------------------
    // Host sockets
    //
    // The steps every socket-level probe is made of, `http_fetch` and the
    // evasion techniques' hand-timed scripts alike. Each wake follows
    // the write it announces; none of them advances virtual time.
    // ------------------------------------------------------------------

    /// Open a connection from `from` to `dst:port` and wake the host.
    /// `None` when `from` is not a TCP host.
    pub(crate) fn tcp_connect(&mut self, from: NodeId, dst: Ipv4Addr, port: u16) -> Option<SocketId> {
        let sock = self.host_mut(from)?.connect(dst, port);
        self.india.net.wake(from);
        Some(sock)
    }

    /// The socket's state (`Closed` when there is no such socket).
    pub(crate) fn tcp_state(&self, from: NodeId, sock: SocketId) -> TcpState {
        self.host_ref(from).map_or(TcpState::Closed, |h| h.state(sock))
    }

    /// Queue `bytes` on the socket and wake the host.
    pub(crate) fn tcp_send(&mut self, from: NodeId, sock: SocketId, bytes: &[u8]) {
        if let Some(host) = self.host_mut(from) {
            host.send(sock, bytes);
        }
        self.india.net.wake(from);
    }

    /// The socket's event log so far.
    pub(crate) fn tcp_events(&self, from: NodeId, sock: SocketId) -> Vec<SocketEvent> {
        self.host_ref(from)
            .map(|h| h.events(sock).iter().map(|e| e.event.clone()).collect())
            .unwrap_or_default()
    }

    /// Drain what the socket received and return it, parsed, with the
    /// event log: the outcome of an established connection.
    pub(crate) fn tcp_collect(&mut self, from: NodeId, sock: SocketId) -> Fetch {
        let bytes = self.host_mut(from).map(|h| h.take_received(sock)).unwrap_or_default();
        let events = self.tcp_events(from, sock);
        let response = HttpResponse::parse(&bytes).ok();
        Fetch { sock, bytes, response, events, connect_failed: false }
    }

    /// A raw view of the stack socket `sock` toward `dst`, at its current
    /// cursors, for crafting in-window segments with
    /// [`Lab::raw_segment`]. Nothing is claimed: the port stays the
    /// stack's. `None` when there is no such socket.
    pub(crate) fn tcp_as_raw(&self, from: NodeId, sock: SocketId, dst: Ipv4Addr) -> Option<RawConn> {
        let host = self.host_ref(from)?;
        let (seq, ack) = host.seq_cursors(sock)?;
        let (_, local_port) = host.local_addr(sock)?;
        let client_ip = host.ip;
        Some(RawConn { client: from, client_ip, local_port, dst, seq, ack, established: true })
    }

    /// Run `f` with `rule` on `host`'s firewall and return its value with
    /// the packets the firewall dropped meanwhile. Every rule is off
    /// again on return. A node that is not a TCP host drops nothing.
    pub(crate) fn firewalled<R>(
        &mut self,
        host: NodeId,
        rule: FilterRule,
        f: impl FnOnce(&mut Lab) -> R,
    ) -> (R, u64) {
        let before = self.host_mut(host).map_or(0, |h| {
            h.firewall.add(rule);
            h.firewall.dropped
        });
        let value = f(self);
        let after = self.host_mut(host).map_or(before, |h| {
            h.firewall.clear();
            h.firewall.dropped
        });
        (value, after - before)
    }

    // ------------------------------------------------------------------
    // Capture
    // ------------------------------------------------------------------

    /// Run `f` with a fresh capture at each of `hosts` and return its
    /// value with what each host received meanwhile, in `hosts` order.
    /// Every capture is off again on return, so nothing outside `f` is
    /// captured. A node that is not a TCP host captures nothing.
    pub(crate) fn captured<R, const N: usize>(
        &mut self,
        hosts: [NodeId; N],
        f: impl FnOnce(&mut Lab) -> R,
    ) -> (R, [Capture; N]) {
        for host in hosts {
            if let Some(h) = self.host_mut(host) {
                h.enable_pcap();
            }
        }
        let value = f(self);
        let captures =
            hosts.map(|host| self.host_mut(host).map(TcpHost::disable_pcap).unwrap_or_default());
        (value, captures)
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
        // Move the answers to our query from the UDP inbox to `responses`.
        let drain = |lab: &mut Lab, responses: &mut Vec<DnsMessage>| {
            let inbox = lab.host_mut(from).map(|h| h.take_udp_inbox()).unwrap_or_default();
            responses.extend(
                inbox
                    .into_iter()
                    .filter(|d| d.dst_port == port)
                    .filter_map(|d| DnsMessage::parse(&d.payload).ok())
                    .filter(|msg| msg.id == id),
            );
        };
        let mut responses: Vec<DnsMessage> = Vec::new();
        self.run_until_ms(DNS_WINDOW_MS, |lab| {
            drain(lab, &mut responses);
            !responses.is_empty()
        });
        if !responses.is_empty() {
            // Grace window: catch a trailing second answer (injection).
            self.run_ms(80);
            drain(self, &mut responses);
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
    /// a full window per probe would be wasteful. Each query is encoded
    /// as it is sent.
    pub fn bulk_resolve(
        &mut self,
        from: NodeId,
        queries: &[(Ipv4Addr, &str)],
        window_ms: u64,
    ) -> Vec<Option<Vec<Ipv4Addr>>> {
        let payload = |i: usize| bulk_query(i, queries[i].1).map(Bytes::from);
        self.bulk_exchange(from, queries.len(), window_ms, |i| queries[i].0, payload)
    }

    /// [`Lab::bulk_resolve`] with every query sent to `resolver`, the
    /// queries already encoded by [`bulk_queries`]: a scan of many
    /// resolvers encodes its names once and sends each a copy of the
    /// same bytes. (Sharing one buffer across every send left the
    /// Figure 2 survey with the same live bytes but a larger, more
    /// fragmented heap.)
    pub fn bulk_resolve_at(
        &mut self,
        from: NodeId,
        resolver: Ipv4Addr,
        queries: &[Option<Vec<u8>>],
        window_ms: u64,
    ) -> Vec<Option<Vec<Ipv4Addr>>> {
        let payload = |i: usize| queries[i].as_deref().map(Bytes::from);
        self.bulk_exchange(from, queries.len(), window_ms, |_| resolver, payload)
    }

    /// The exchange behind both bulk resolves: query `i` goes to `dst(i)`
    /// from port [`bulk_port`]`(i)`, carrying `payload(i)` (nothing is
    /// sent for `None`), in rounds of [`BULK_ROUND`] queries. A reply
    /// counts only from the query's own destination, and only the first.
    fn bulk_exchange(
        &mut self,
        from: NodeId,
        n: usize,
        window_ms: u64,
        dst: impl Fn(usize) -> Ipv4Addr,
        mut payload: impl FnMut(usize) -> Option<Bytes>,
    ) -> Vec<Option<Vec<Ipv4Addr>>> {
        let from_ip = self.host_ip(from);
        let mut results: Vec<Option<Vec<Ipv4Addr>>> = vec![None; n];
        for round_start in (0..n).step_by(BULK_ROUND) {
            let round = round_start..n.min(round_start + BULK_ROUND);
            if let Some(host) = self.host_mut(from) {
                for i in round.clone() {
                    let port = bulk_port(i);
                    host.udp_bind(port);
                    if let Some(bytes) = payload(i) {
                        host.raw_send(Packet::udp(from_ip, dst(i), UdpHeader::new(port, 53), bytes));
                    }
                }
            }
            self.india.net.wake(from);
            let deadline = self.now() + SimDuration::from_millis(window_ms);
            let mut pending = round.len();
            while self.now() < deadline && pending > 0 {
                let next = self.now() + SimDuration::from_millis(20);
                self.india.net.run_until(next.min(deadline));
                for d in self.host_mut(from).map(|h| h.take_udp_inbox()).unwrap_or_default() {
                    let i = round_start + usize::from(d.dst_port.wrapping_sub(BULK_BASE_PORT));
                    if !round.contains(&i) || d.src != dst(i) || results[i].is_some() {
                        continue;
                    }
                    let Ok(ips) = dns::a_records(&d.payload) else { continue };
                    results[i] = Some(ips);
                    pending -= 1;
                }
            }
        }
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
    //
    // The paper's crafted-packet scripts. `crafted` is the one
    // crafted-request probe: a full-TTL handshake, one request at a
    // chosen TTL, an observation window, a close. Probes that need their
    // own pre-send work (a TTL-limited SYN, a bare SYN+ACK opener, an
    // idle wait, a keep-alive) open the connection themselves and share
    // its tail, `raw_request`. Which `RawReply` verdict fits depends on
    // the request's TTL; see its doc.
    // ------------------------------------------------------------------

    fn next_raw_seq(&mut self) -> u32 {
        self.raw_seq = self.raw_seq.wrapping_add(0x0001_0000);
        self.raw_seq
    }

    /// Queue one segment on `conn` with `payload`, optionally
    /// TTL-limited, and wake the client.
    fn raw_emit(
        &mut self,
        conn: &RawConn,
        h: TcpHeader,
        payload: impl Into<Bytes>,
        ttl: Option<u8>,
    ) {
        let mut pkt = Packet::tcp(conn.client_ip, conn.dst, h, payload);
        if let Some(t) = ttl {
            pkt.ip.ttl = t;
        }
        if let Some(host) = self.host_mut(conn.client) {
            host.raw_send(pkt);
        }
        self.india.net.wake(conn.client);
    }

    /// Claim a raw port on `from` toward `dst` with the given cursors and
    /// send nothing: the start of a connection whose opening the caller
    /// crafts by hand (or skips).
    pub(crate) fn raw_unopened(&mut self, from: NodeId, dst: Ipv4Addr, seq: u32, ack: u32) -> RawConn {
        let client_ip = self.host_ip(from);
        // No host behind `from`: nothing is claimed or sent, and every
        // later observation window stays silent, which is exactly what a
        // caller probing a dead address observes.
        let local_port = self
            .host_mut(from)
            .map(|host| {
                let p = host.alloc_port();
                host.raw_claim_port(p);
                p
            })
            .unwrap_or(0);
        RawConn { client: from, client_ip, local_port, dst, seq, ack, established: false }
    }

    /// Hand-run a 3-way handshake on a raw port. `syn_ttl` limits the SYN
    /// (for the stateful-middlebox experiments); with a limited SYN the
    /// handshake cannot complete and the returned connection has
    /// `established == false`.
    pub fn raw_connect(&mut self, from: NodeId, dst: Ipv4Addr, syn_ttl: Option<u8>) -> RawConn {
        let iss = self.next_raw_seq();
        let mut conn = self.raw_unopened(from, dst, iss, 0);
        let mut syn = conn.header(TcpFlags::SYN);
        syn.mss = Some(1400);
        self.raw_emit(&conn, syn, Bytes::new(), syn_ttl);
        conn.seq = iss.wrapping_add(1);
        let local_port = conn.local_port;
        let mut synack: Option<TcpHeader> = None;
        self.run_until_ms(CONNECT_TIMEOUT_MS, |lab| {
            for (_, pkt) in lab.host_mut(from).map(|h| h.raw_take_inbox()).unwrap_or_default() {
                let Some((h, _)) = pkt.as_tcp() else { continue };
                if h.dst_port == local_port
                    && h.src_port == HTTP_PORT
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
            self.raw_segment(&conn, TcpFlags::ACK, None);
            self.run_ms(1);
        }
        conn
    }

    /// A full-TTL handshake to `dst`; `None` when it fails, in which case
    /// the claimed port is released and nothing more is sent.
    pub(crate) fn raw_open(&mut self, from: NodeId, dst: Ipv4Addr) -> Option<RawConn> {
        let conn = self.raw_connect(from, dst, None);
        if !conn.established {
            if let Some(host) = self.host_mut(from) {
                host.raw_release_port(conn.local_port);
            }
            return None;
        }
        Some(conn)
    }

    /// The crafted-request probe: open a connection to `dst` at full
    /// TTL, send `request` at `ttl`, observe for `window_ms` and close.
    /// `None` when the handshake fails.
    pub fn crafted(
        &mut self,
        from: NodeId,
        dst: Ipv4Addr,
        request: &[u8],
        ttl: Option<u8>,
        window_ms: u64,
    ) -> Option<RawReply> {
        let conn = self.raw_open(from, dst)?;
        Some(self.raw_request(conn, request, ttl, window_ms))
    }

    /// Send `request` on `conn` at `ttl`, observe for `window_ms`, and
    /// close: the tail every crafted-request probe shares.
    pub(crate) fn raw_request(
        &mut self,
        mut conn: RawConn,
        request: &[u8],
        ttl: Option<u8>,
        window_ms: u64,
    ) -> RawReply {
        self.raw_send(&mut conn, request, ttl);
        let reply = self.raw_observe(&mut conn, window_ms);
        self.raw_close(&conn);
        reply
    }

    /// Send one bare segment with `flags` on `conn` at its cursors,
    /// optionally TTL-limited: a hand-crafted opener or keep-alive.
    pub(crate) fn raw_segment(&mut self, conn: &RawConn, flags: TcpFlags, ttl: Option<u8>) {
        self.raw_emit(conn, conn.header(flags), Bytes::new(), ttl);
    }

    /// Send payload bytes on a raw connection, optionally TTL-limited.
    /// Advances the connection's send cursor. ICMP that arrived earlier
    /// is drained first, so the reply's `expired_at` belongs to this
    /// request.
    pub fn raw_send(&mut self, conn: &mut RawConn, payload: &[u8], ttl: Option<u8>) {
        if let Some(host) = self.host_mut(conn.client) {
            host.take_icmp_inbox();
        }
        let h = conn.header(TcpFlags::ACK | TcpFlags::PSH);
        conn.seq = conn.seq.wrapping_add(payload.len() as u32);
        self.raw_emit(conn, h, payload.to_vec(), ttl);
    }

    /// Collect raw-port arrivals for `conn` during `window_ms`, acking
    /// received data (to suppress server retransmissions), and the first
    /// ICMP Time-Exceeded heard by the end of the window.
    pub fn raw_observe(&mut self, conn: &mut RawConn, window_ms: u64) -> RawReply {
        let mut packets = Vec::new();
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
                    self.raw_segment(conn, TcpFlags::ACK, None);
                }
                packets.push(pkt);
            }
            if self.now() >= deadline {
                break;
            }
            let next = self.now() + SimDuration::from_millis(10);
            self.india.net.run_until(next.min(deadline));
        }
        let expired_at = self
            .host_mut(conn.client)
            .map(|h| h.take_icmp_inbox())
            .unwrap_or_default()
            .into_iter()
            .find(|(_, p)| matches!(p.as_icmp(), Some(IcmpMessage::TimeExceeded { .. })))
            .map(|(_, p)| p.src());
        RawReply { packets, expired_at }
    }

    /// Abort a raw connection (RST) and release the port.
    pub fn raw_close(&mut self, conn: &RawConn) {
        let rst = TcpHeader { ack: 0, ..conn.header(TcpFlags::RST) };
        self.raw_emit(conn, rst, Bytes::new(), None);
        if let Some(host) = self.host_mut(conn.client) {
            host.raw_release_port(conn.local_port);
        }
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
    use crate::probe::classify::censored_sites;
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
        // A GET draws the edge host's 404.
        let req = RequestBuilder::browser("nosuch.example", "/").build();
        let reply = lab.crafted(client, edge_ip, &req, None, 500).expect("handshake completes");
        let any_payload =
            reply.packets.iter().any(|p| p.as_tcp().is_some_and(|(_, b)| !b.is_empty()));
        assert!(any_payload, "edge host answered");
    }

    #[test]
    fn answered_and_censored_differ_only_at_full_ttl() {
        let mut lab = lab();
        let client = lab.client_of(IspId::Idea);
        // Full TTL, unlisted Host at a live popular site: the origin
        // answers, and nothing about that answer is a censor's.
        let ip = lab
            .india
            .corpus
            .popular
            .iter()
            .map(|&s| lab.india.corpus.site(s))
            .find(|s| s.is_alive())
            .expect("a live popular site")
            .replicas[0];
        let req = RequestBuilder::browser("definitely-not-blocked.example", "/").build();
        let reply = lab.crafted(client, ip, &req, None, 800).expect("handshake completes");
        assert!(reply.answered(), "{reply:?}");
        assert!(!reply.censored(), "{reply:?}");

        // Penultimate TTL, Idea-blocked Host: only the middlebox can
        // answer, and its answer is a censor's.
        let site = censored_sites(&mut lab, IspId::Idea, 1, lucent_web::Site::is_alive)[0];
        let s = lab.india.corpus.site(site);
        let (domain, ip) = (s.domain.clone(), s.replicas[0]);
        let penultimate = lab.hops_to(client, ip, 30).expect("path measured") - 1;
        let req = RequestBuilder::browser(&domain, "/").build();
        let reply =
            lab.crafted(client, ip, &req, Some(penultimate), 800).expect("handshake completes");
        assert!(reply.answered(), "{reply:?}");
        assert!(reply.censored(), "{reply:?}");
    }

    #[test]
    fn ttl_limited_syn_never_establishes() {
        let mut lab = lab();
        let client = lab.client_of(IspId::Airtel);
        let (edge_ip, _) = lab.india.isps[&IspId::Airtel].edge_hosts.last().copied().unwrap();
        let conn = lab.raw_connect(client, edge_ip, Some(2));
        assert!(!conn.established);
    }
}
