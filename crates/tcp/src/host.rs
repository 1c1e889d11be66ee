//! [`TcpHost`]: a single-homed end host node combining the TCP socket
//! table, listeners, UDP, ICMP plumbing, raw sockets and the client-side
//! firewall.

use std::collections::{BTreeMap, BTreeSet};
use std::net::Ipv4Addr;
use std::ops::Bound::{Excluded, Unbounded};
use std::rc::Rc;

use lucent_obs::{Level, Telemetry};
use lucent_support::{Bytes, ToJson};
use lucent_netsim::SimRng;

use lucent_netsim::{IfaceId, Node, NodeCtx, SimTime, WAKE};
use lucent_packet::tcp::{TcpFlags, TcpHeader};
use lucent_packet::{IcmpMessage, Packet, Transport, UdpHeader};

use crate::app::{SocketApp, SocketIo};
use crate::firewall::Firewall;
use crate::socket::{LoggedEvent, SocketId, TcpState};
use crate::tcb::{Tcb, TimerAsk};

/// A received UDP datagram, queued for a driver-bound port.
#[derive(Debug, Clone)]
pub struct UdpDatagram {
    /// Arrival time.
    pub at: SimTime,
    /// Sender address.
    pub src: Ipv4Addr,
    /// Sender port.
    pub src_port: u16,
    /// Local destination port.
    pub dst_port: u16,
    /// Payload bytes.
    pub payload: Bytes,
}

/// Reply channel handed to [`UdpApp`] callbacks.
pub struct UdpIo {
    /// (destination address, destination port, payload) triples to send
    /// when the callback returns.
    pub out: Vec<(Ipv4Addr, u16, Vec<u8>)>,
    /// Virtual time of the datagram being handled.
    pub now: SimTime,
    /// Telemetry handle for the app to count verdicts and emit events.
    pub obs: Telemetry,
}

/// An in-node UDP service (DNS resolvers implement this). Like
/// [`SocketApp`], a `UdpApp` is `Clone` (see [`CloneUdpApp`]).
pub trait UdpApp: CloneUdpApp {
    /// Handle one datagram; queue replies on `io`.
    fn on_datagram(&mut self, io: &mut UdpIo, src: Ipv4Addr, src_port: u16, payload: &[u8]);
}

/// Copy support for [`UdpApp`]: implemented for every `UdpApp + Clone`.
pub trait CloneUdpApp {
    /// A copy of this app in its own box.
    fn clone_app(&self) -> Box<dyn UdpApp>;
}

impl<T: UdpApp + Clone + 'static> CloneUdpApp for T {
    fn clone_app(&self) -> Box<dyn UdpApp> {
        Box::new(self.clone())
    }
}

impl Clone for Box<dyn UdpApp> {
    fn clone(&self) -> Self {
        (**self).clone_app()
    }
}

const TIMER_KIND_RTX: u64 = 1;
const TIMER_KIND_TIMEWAIT: u64 = 2;

fn encode_timer(kind: u64, socket: SocketId, gen: u64) -> u64 {
    // 8 bits kind | 24 bits socket | 32 bits generation. The socket width
    // must match `decode_timer`; a host would need 16.7M live sockets to
    // overflow it, which the assert turns from silent misdelivery into a
    // loud failure.
    debug_assert!(socket.0 < (1 << 24), "socket index exceeds timer-token width");
    (kind << 56) | (u64::from(socket.0 & 0x00ff_ffff) << 32) | (gen & 0xffff_ffff)
}

fn decode_timer(token: u64) -> (u64, SocketId, u64) {
    (token >> 56, SocketId(((token >> 32) & 0x00ff_ffff) as u32), token & 0xffff_ffff)
}

/// A general-purpose end host.
#[derive(Clone)]
pub struct TcpHost {
    /// The host's address.
    pub ip: Ipv4Addr,
    label: String,
    rng: SimRng,
    /// Every socket this host has opened, indexed by [`SocketId`].
    ///
    /// Note on lifetime: closed sockets are retained (with drained
    /// buffers) so drivers can inspect their event logs after the fact;
    /// a host's memory therefore grows with its total connection count,
    /// which is bounded by the experiment driving it.
    sockets: Vec<Tcb>,
    /// The sockets that may still emit: all of `sockets` except those
    /// that reached `Closed` and have since been polled. A closed TCB
    /// with no RST pending polls empty forever (no call, segment or
    /// timer revives it), so a `WAKE` walks only this set and costs
    /// O(live sockets), not O(sockets ever opened).
    live: BTreeSet<SocketId>,
    apps: BTreeMap<SocketId, Box<dyn SocketApp>>,
    dispatched: BTreeMap<SocketId, usize>,
    /// (local port, remote ip, remote port) → socket.
    tuples: BTreeMap<(u16, Ipv4Addr, u16), SocketId>,
    listeners: BTreeMap<u16, Rc<dyn Fn() -> Box<dyn SocketApp>>>,
    next_port: u16,
    /// Inbound packet filter (the `iptables` model).
    pub firewall: Firewall,
    /// The inbound capture while one runs.
    pcap: Option<Vec<(SimTime, Packet)>>,
    raw_ports: BTreeSet<u16>,
    raw_tcp_inbox: Vec<(SimTime, Packet)>,
    raw_outbox: Vec<Packet>,
    udp_ports: BTreeSet<u16>,
    udp_inbox: Vec<UdpDatagram>,
    udp_apps: BTreeMap<u16, Box<dyn UdpApp>>,
    outbox: Vec<Packet>,
    icmp_inbox: Vec<(SimTime, Packet)>,
    /// TTL stamped on packets this host originates.
    pub default_ttl: u8,
}

impl TcpHost {
    /// A host with the given address; `seed` drives ISS generation.
    #[expect(clippy::disallowed_methods, reason = "seed plumbing: a host draws from its seed")]
    pub fn new(ip: Ipv4Addr, label: impl Into<String>, seed: u64) -> Self {
        TcpHost {
            ip,
            label: label.into(),
            rng: SimRng::seed_from_u64(seed ^ u64::from(u32::from(ip))),
            sockets: Vec::new(),
            live: BTreeSet::new(),
            apps: BTreeMap::new(),
            dispatched: BTreeMap::new(),
            tuples: BTreeMap::new(),
            listeners: BTreeMap::new(),
            next_port: 40_000,
            firewall: Firewall::new(),
            pcap: None,
            raw_ports: BTreeSet::new(),
            raw_tcp_inbox: Vec::new(),
            raw_outbox: Vec::new(),
            udp_ports: BTreeSet::new(),
            udp_inbox: Vec::new(),
            udp_apps: BTreeMap::new(),
            outbox: Vec::new(),
            icmp_inbox: Vec::new(),
            default_ttl: 64,
        }
    }

    // ------------------------------------------------------------------
    // Driver API: TCP
    // ------------------------------------------------------------------

    /// Allocate an ephemeral local port.
    pub fn alloc_port(&mut self) -> u16 {
        let p = self.next_port;
        self.next_port = self.next_port.checked_add(1).unwrap_or(40_000);
        p
    }

    /// Begin an active open to `(dst, dst_port)`. The SYN is sent on the
    /// next wake ([`lucent_netsim::Network::wake`]).
    pub fn connect(&mut self, dst: Ipv4Addr, dst_port: u16) -> SocketId {
        let port = self.alloc_port();
        self.connect_from(port, dst, dst_port)
    }

    /// Active open from a specific local port.
    pub fn connect_from(&mut self, local_port: u16, dst: Ipv4Addr, dst_port: u16) -> SocketId {
        let iss: u32 = self.rng.gen();
        let tcb = Tcb::connect((self.ip, local_port), (dst, dst_port), iss, SimTime::ZERO);
        let id = SocketId(self.sockets.len() as u32);
        self.sockets.push(tcb);
        self.live.insert(id);
        self.tuples.insert((local_port, dst, dst_port), id);
        id
    }

    /// Install a listener whose factory creates one app per accepted
    /// connection.
    pub fn listen(&mut self, port: u16, factory: impl Fn() -> Box<dyn SocketApp> + 'static) {
        self.listeners.insert(port, Rc::new(factory));
    }

    /// Queue bytes on a socket (flushed on next wake or inbound event).
    pub fn send(&mut self, id: SocketId, bytes: &[u8]) {
        if let Some(tcb) = self.tcb_mut(id) {
            tcb.send(bytes);
        }
    }

    /// Orderly close.
    pub fn close(&mut self, id: SocketId) {
        if let Some(tcb) = self.tcb_mut(id) {
            tcb.close();
        }
    }

    /// Abort with RST.
    pub fn abort(&mut self, id: SocketId) {
        if let Some(tcb) = self.tcb_mut(id) {
            tcb.abort();
        }
    }

    /// Connection state (Closed if the socket never existed).
    pub fn state(&self, id: SocketId) -> TcpState {
        self.tcb(id).map(|t| t.state).unwrap_or(TcpState::Closed)
    }

    /// The socket's event log.
    pub fn events(&self, id: SocketId) -> &[LoggedEvent] {
        self.tcb(id).map(|t| t.events.as_slice()).unwrap_or(&[])
    }

    /// Received bytes so far (without draining).
    pub fn received(&self, id: SocketId) -> &[u8] {
        self.tcb(id).map(|t| t.recv_buf.as_slice()).unwrap_or(&[])
    }

    /// Drain received bytes.
    pub fn take_received(&mut self, id: SocketId) -> Vec<u8> {
        self.tcb_mut(id).map(|t| t.take_received()).unwrap_or_default()
    }

    /// Local (ip, port) of a socket.
    pub fn local_addr(&self, id: SocketId) -> Option<(Ipv4Addr, u16)> {
        self.tcb(id).map(|t| t.local)
    }

    /// Current send/receive sequence cursors `(snd_nxt, rcv_nxt)` — raw
    /// probe tooling uses these to craft in-window packets.
    pub fn seq_cursors(&self, id: SocketId) -> Option<(u32, u32)> {
        self.tcb(id).map(|t| (t.snd_nxt(), t.rcv_nxt()))
    }

    fn tcb(&self, id: SocketId) -> Option<&Tcb> {
        self.sockets.get(id.0 as usize)
    }

    fn tcb_mut(&mut self, id: SocketId) -> Option<&mut Tcb> {
        self.sockets.get_mut(id.0 as usize)
    }

    // ------------------------------------------------------------------
    // Driver API: pcap / raw / UDP / ICMP
    // ------------------------------------------------------------------

    /// Start a fresh capture of every inbound packet (pre-firewall, like
    /// tcpdump), dropping anything an earlier capture still held.
    pub fn enable_pcap(&mut self) {
        self.pcap = Some(Vec::new());
    }

    /// Stop capturing and return what was captured, oldest first (empty
    /// when no capture was running).
    pub fn disable_pcap(&mut self) -> Vec<(SimTime, Packet)> {
        self.pcap.take().unwrap_or_default()
    }

    /// Claim a local TCP port for raw use: inbound segments to it bypass
    /// the stack (no RST generation) and queue in the raw inbox.
    pub fn raw_claim_port(&mut self, port: u16) {
        self.raw_ports.insert(port);
    }

    /// Release a raw port claim.
    pub fn raw_release_port(&mut self, port: u16) {
        self.raw_ports.remove(&port);
    }

    /// Drain raw-port TCP arrivals.
    pub fn raw_take_inbox(&mut self) -> Vec<(SimTime, Packet)> {
        std::mem::take(&mut self.raw_tcp_inbox)
    }

    /// Queue an arbitrary crafted packet for transmission on next wake.
    pub fn raw_send(&mut self, pkt: Packet) {
        self.raw_outbox.push(pkt);
    }

    /// Bind a UDP port for driver use.
    pub fn udp_bind(&mut self, port: u16) {
        self.udp_ports.insert(port);
    }

    /// Queue a UDP datagram for transmission on next wake.
    pub fn udp_send(&mut self, src_port: u16, dst: Ipv4Addr, dst_port: u16, payload: &[u8]) {
        let mut pkt = Packet::udp(self.ip, dst, UdpHeader::new(src_port, dst_port), payload.to_vec());
        pkt.ip.ttl = self.default_ttl;
        self.outbox.push(pkt);
    }

    /// Drain received datagrams on driver-bound ports.
    pub fn take_udp_inbox(&mut self) -> Vec<UdpDatagram> {
        std::mem::take(&mut self.udp_inbox)
    }

    /// Install an in-node UDP service on `port`.
    pub fn set_udp_app(&mut self, port: u16, app: Box<dyn UdpApp>) {
        self.udp_apps.insert(port, app);
    }

    /// Drain ICMP arrivals (time-exceeded, unreachable, echo replies).
    pub fn take_icmp_inbox(&mut self) -> Vec<(SimTime, Packet)> {
        std::mem::take(&mut self.icmp_inbox)
    }

    // ------------------------------------------------------------------
    // Internals
    // ------------------------------------------------------------------

    fn poll_socket(&mut self, ctx: &mut NodeCtx<'_>, id: SocketId) {
        let ip = self.ip;
        let ttl = self.default_ttl;
        let Some(tcb) = self.tcb_mut(id) else { return };
        let remote_ip = tcb.remote.0;
        let (segs, ask) = tcb.poll(ctx.now());
        for (h, payload) in segs {
            if h.flags.contains(TcpFlags::RST) {
                ctx.obs().counter_inc("tcp.rst_tx", ctx.label());
            }
            let mut pkt = Packet::tcp(ip, remote_ip, h, payload);
            pkt.ip.ttl = ttl;
            // Ordinary hosts stamp a varying IP-Identifier. Deriving it
            // from the sequence number keeps it deterministic; 242 is
            // avoided so the Airtel middlebox signature stays unique to
            // the middlebox.
            let mut id16 = (pkt.as_tcp().map(|(h, _)| h.seq).unwrap_or(0) & 0xffff) as u16;
            if id16 == 242 {
                id16 = 243;
            }
            pkt.ip.identification = id16;
            ctx.send(IfaceId::PRIMARY, pkt);
        }
        match ask {
            TimerAsk::None => {}
            TimerAsk::Retransmit { ms, gen } => {
                ctx.set_timer(
                    lucent_netsim::SimDuration::from_millis(ms),
                    encode_timer(TIMER_KIND_RTX, id, gen),
                );
            }
            TimerAsk::TimeWait { ms, gen } => {
                ctx.set_timer(
                    lucent_netsim::SimDuration::from_millis(ms),
                    encode_timer(TIMER_KIND_TIMEWAIT, id, gen),
                );
            }
        }
        // Unmap fully closed connections so late segments draw RSTs. The
        // poll above sent any pending RST, so the socket is now silent for
        // good: it leaves the live set and its app is dropped.
        let Some(tcb) = self.tcb(id) else { return };
        if tcb.state == TcpState::Closed {
            let key = (tcb.local.1, tcb.remote.0, tcb.remote.1);
            if self.tuples.get(&key) == Some(&id) {
                self.tuples.remove(&key);
            }
            self.live.remove(&id);
            self.apps.remove(&id);
            self.dispatched.remove(&id);
        }
    }

    fn dispatch_app_events(&mut self, ctx: &mut NodeCtx<'_>, id: SocketId) {
        let Some(mut app) = self.apps.remove(&id) else { return };
        let cursor = self.dispatched.entry(id).or_insert(0);
        let start = *cursor;
        let now = ctx.now();
        if let Some(tcb) = self.tcb_mut(id) {
            let events: Vec<_> = tcb.events[start..].iter().map(|e| e.event.clone()).collect();
            let mut io = SocketIo { tcb, now };
            for ev in &events {
                app.on_event(&mut io, ev);
            }
        }
        if let Some(tcb) = self.tcb(id) {
            self.dispatched.insert(id, tcb.events.len());
        }
        self.apps.insert(id, app);
    }

    fn handle_tcp(&mut self, ctx: &mut NodeCtx<'_>, pkt: &Packet) {
        let Some((h, payload)) = pkt.as_tcp() else { return };
        if self.raw_ports.contains(&h.dst_port) {
            self.raw_tcp_inbox.push((ctx.now(), pkt.clone()));
            return;
        }
        if h.flags.contains(TcpFlags::RST) {
            ctx.obs().counter_inc("tcp.rst_rx", ctx.label());
        }
        let key = (h.dst_port, pkt.src(), h.src_port);
        if let Some(&id) = self.tuples.get(&key) {
            let now = ctx.now();
            if let Some(tcb) = self.tcb_mut(id) {
                let was = tcb.state;
                let buffered = tcb.recv_buf.len();
                tcb.on_segment(h, payload, now);
                // In-order payload the stack *accepted* — distinct from
                // bytes merely seen on the wire. Figure 3's "the server
                // never receives the GET" claim is asserted on this.
                let accepted = tcb.recv_buf.len().saturating_sub(buffered);
                if accepted > 0 {
                    ctx.obs().counter_add("tcp.payload_bytes_rx", ctx.label(), accepted as u64);
                }
                if was != TcpState::Established && tcb.state == TcpState::Established {
                    ctx.obs().counter_inc("tcp.established", ctx.label());
                }
                if was != tcb.state && ctx.obs().enabled("tcp", Level::Debug) {
                    let fields = vec![
                        ("host".to_string(), ctx.label().to_json()),
                        ("from".to_string(), format!("{was:?}").to_json()),
                        ("to".to_string(), format!("{:?}", tcb.state).to_json()),
                        ("port".to_string(), u64::from(h.dst_port).to_json()),
                    ];
                    ctx.obs().event(now.micros(), Level::Debug, "tcp", "state", fields);
                }
            }
            self.dispatch_app_events(ctx, id);
            self.poll_socket(ctx, id);
            // Apps may have queued more output in their callbacks.
            self.poll_socket(ctx, id);
            return;
        }
        // No connection. New SYN to a listening port?
        if h.flags.contains(TcpFlags::SYN) && !h.flags.contains(TcpFlags::ACK) {
            if let Some(factory) = self.listeners.get(&h.dst_port) {
                let app = factory();
                let iss: u32 = self.rng.gen();
                let tcb =
                    Tcb::accept((self.ip, h.dst_port), (pkt.src(), h.src_port), iss, h, ctx.now());
                let id = SocketId(self.sockets.len() as u32);
                self.sockets.push(tcb);
                self.live.insert(id);
                self.tuples.insert(key, id);
                self.apps.insert(id, app);
                self.dispatched.insert(id, 0);
                self.poll_socket(ctx, id); // emits the SYN-ACK
                return;
            }
        }
        // Otherwise: RST, per RFC 793 — this is the behaviour that makes a
        // client reject the *real* response arriving after a forged FIN
        // already closed the connection (Figure 4 of the paper).
        if !h.flags.contains(TcpFlags::RST) {
            let seg_len = payload.len() as u32
                + u32::from(h.flags.contains(TcpFlags::SYN))
                + u32::from(h.flags.contains(TcpFlags::FIN));
            let mut rst = if h.flags.contains(TcpFlags::ACK) {
                let mut r = TcpHeader::new(h.dst_port, h.src_port, TcpFlags::RST);
                r.seq = h.ack;
                r
            } else {
                let mut r = TcpHeader::new(h.dst_port, h.src_port, TcpFlags::RST | TcpFlags::ACK);
                r.ack = h.seq.wrapping_add(seg_len);
                r
            };
            rst.window = 0;
            ctx.obs().counter_inc("tcp.rst_tx", ctx.label());
            let mut out = Packet::tcp(self.ip, pkt.src(), rst, Bytes::new());
            out.ip.ttl = self.default_ttl;
            ctx.send(IfaceId::PRIMARY, out);
        }
    }

    fn handle_udp(&mut self, ctx: &mut NodeCtx<'_>, pkt: &Packet) {
        let Some((h, payload)) = pkt.as_udp() else { return };
        if let Some(app) = self.udp_apps.get_mut(&h.dst_port) {
            let mut io = UdpIo { out: Vec::new(), now: ctx.now(), obs: ctx.obs().clone() };
            app.on_datagram(&mut io, pkt.src(), h.src_port, payload);
            for (dst, dst_port, bytes) in io.out {
                let mut reply =
                    Packet::udp(self.ip, dst, UdpHeader::new(h.dst_port, dst_port), bytes);
                reply.ip.ttl = self.default_ttl;
                ctx.send(IfaceId::PRIMARY, reply);
            }
            return;
        }
        if self.udp_ports.contains(&h.dst_port) {
            self.udp_inbox.push(UdpDatagram {
                at: ctx.now(),
                src: pkt.src(),
                src_port: h.src_port,
                dst_port: h.dst_port,
                payload: payload.clone(),
            });
            return;
        }
        // Closed UDP port: ICMP port unreachable (what UDP traceroute
        // relies on when its probe finally reaches the destination).
        let msg = IcmpMessage::DestUnreachable { code: 3, original: pkt.icmp_quote() };
        let mut out = Packet::icmp(self.ip, pkt.src(), msg);
        out.ip.ttl = self.default_ttl;
        ctx.send(IfaceId::PRIMARY, out);
    }

    fn handle_icmp(&mut self, ctx: &mut NodeCtx<'_>, pkt: &Packet) {
        let Some(msg) = pkt.as_icmp() else { return };
        match msg {
            IcmpMessage::EchoRequest { ident, seq } => {
                let reply = IcmpMessage::EchoReply { ident: *ident, seq: *seq };
                let mut out = Packet::icmp(self.ip, pkt.src(), reply);
                out.ip.ttl = self.default_ttl;
                ctx.send(IfaceId::PRIMARY, out);
            }
            _ => self.icmp_inbox.push((ctx.now(), pkt.clone())),
        }
    }
}

impl Node for TcpHost {
    fn on_packet(&mut self, ctx: &mut NodeCtx<'_>, _iface: IfaceId, pkt: Packet) {
        if let Some(pcap) = &mut self.pcap {
            pcap.push((ctx.now(), pkt.clone()));
        }
        if self.firewall.check(&pkt).is_some() {
            ctx.trace_drop(&pkt, "firewall");
            return;
        }
        if pkt.dst() != self.ip {
            ctx.trace_drop(&pkt, "not-mine");
            return;
        }
        match pkt.transport {
            Transport::Tcp(..) => self.handle_tcp(ctx, &pkt),
            Transport::Udp(..) => self.handle_udp(ctx, &pkt),
            Transport::Icmp(..) => self.handle_icmp(ctx, &pkt),
        }
    }

    fn on_timer(&mut self, ctx: &mut NodeCtx<'_>, token: u64) {
        if token == WAKE {
            for pkt in std::mem::take(&mut self.raw_outbox) {
                ctx.send(IfaceId::PRIMARY, pkt);
            }
            for pkt in std::mem::take(&mut self.outbox) {
                ctx.send(IfaceId::PRIMARY, pkt);
            }
            // Ascending-id cursor over the live set: the same order as a
            // walk of every socket, minus the closed ones that would poll
            // empty. Polling may shrink the set, never grow it.
            let mut next = self.live.first().copied();
            while let Some(id) = next {
                self.poll_socket(ctx, id);
                next = self.live.range((Excluded(id), Unbounded)).next().copied();
            }
            return;
        }
        let (kind, id, gen) = decode_timer(token);
        let now = ctx.now();
        let Some(tcb) = self.tcb_mut(id) else { return };
        if tcb.timer_gen & 0xffff_ffff != gen {
            return; // stale timer
        }
        match kind {
            TIMER_KIND_RTX => {
                tcb.on_retransmit_timeout(now);
                ctx.obs().counter_inc("tcp.retransmissions", ctx.label());
            }
            TIMER_KIND_TIMEWAIT => tcb.on_time_wait_timeout(now),
            _ => return,
        }
        self.dispatch_app_events(ctx, id);
        self.poll_socket(ctx, id);
    }

    fn label(&self) -> &str {
        &self.label
    }
}
