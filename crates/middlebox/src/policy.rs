//! The declarative censor-policy engine.
//!
//! The paper's nine ISPs run two mechanism families — wiretap injection
//! and interceptive filtering — that differ only in match triggers,
//! state handling, and injected actions (Section 4.2). That is the shape
//! of a policy *program*, not four hardcoded structs: a [`Policy`] is a
//! list of [`Rule`]s, each a Host-header match against the device's own
//! blocklist (a [`HostMatcher`] extracts the domain) that fires a
//! [`FireSpec`] — inject a notice and/or RSTs with an IP-ID stamp and,
//! on a wiretap, a race delay; reset the server and black-hole the flow
//! inline — over flow-table state reused from [`crate::flow`]. A single
//! generic [`PolicyBox`] interprets a compiled policy behind the same
//! [`Node`] surface the netsim engine already drives.
//!
//! Policies are compiled from TOML files by [`crate::compile`]; the
//! five committed programs (the four access ISPs' and TATA's border
//! wiretap) live under `crates/middlebox/policies/`, and every censor
//! device the topology builds runs one of them.
//! The hardcoded `WiretapMiddlebox` / `InterceptiveMiddlebox` structs
//! this engine replaced are gone; their behaviour survives as recorded
//! transcripts (`tests/golden/mb-*.transcript`) that the
//! `lucent-check::diffmb` harness holds `PolicyBox` to byte-for-byte.
//!
//! # Determinism
//!
//! The interpreter draws from one derived RNG stream in a fixed order:
//! the generator is seeded `seed ^ 0x77aa_77aa`, and each wiretap firing
//! draws its delay jitter (slow-path coin before range draw). The rule
//! scan itself never draws. The recorded transcripts pin this draw
//! sequence — a reordered draw diverges from the goldens.

use std::collections::{BTreeMap, BTreeSet};
use std::net::Ipv4Addr;

use lucent_obs::Level;
use lucent_support::{Bytes, Json, ToJson};
use lucent_netsim::SimRng;

use lucent_netsim::{IfaceId, Node, NodeCtx, SimDuration, SimTime};
use lucent_packet::tcp::{TcpFlags, TcpHeader};
use lucent_packet::{Packet, Transport};

use crate::config::Instance;
use crate::flow::{FlowKey, FlowTable, Inspectable, Stage};
use crate::matcher::HostMatcher;
use crate::notice::NoticeStyle;

const SWEEP: u64 = 1;
const SWEEP_EVERY: SimDuration = SimDuration(30_000_000);

/// Which mechanism family a policy programs (Section 4.2). The family
/// fixes the packet plumbing — mirror-port tap vs. inline pair — while
/// the rules fix everything else.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Family {
    /// Mirror-port device: sees copies, can only inject (Airtel, Jio).
    Wiretap,
    /// Inline device: consumes, answers, resets, black-holes
    /// (Idea, Vodafone).
    Interceptive,
}

/// How the IP-Identifier of forged packets is chosen.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IpIdSpec {
    /// A constant stamp (Airtel: 242).
    Fixed(u16),
    /// Derived from the forged sequence number, avoiding the Airtel
    /// signature value (the Jio wiretap behaviour).
    SeqHash,
    /// The interceptive devices' default mark, 0x4d49 ("MI").
    DeviceMark,
}

/// Injection timing: wiretaps race the real response; `base` is the
/// normal processing-delay range and `slow` the occasional slow path
/// that loses the race (§4.2.1). `base == None` answers inline with no
/// RNG draw at all (interceptive devices).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DelaySpec {
    /// Normal injection delay range in microseconds.
    pub base: Option<(u64, u64)>,
    /// With probability `.0`, draw the delay from range `.1` instead.
    pub slow: Option<(f64, (u64, u64))>,
}

/// What a firing rule injects and transitions.
#[derive(Debug, Clone, PartialEq)]
pub struct FireSpec {
    /// Forge a notification page (FIN|PSH|ACK) toward the client.
    pub notice: Option<NoticeStyle>,
    /// Forge a RST toward the client. On a wiretap this is the
    /// follow-up teardown RST 120 µs behind the notice; on an
    /// interceptive device it is the covert answer used when there is
    /// no notice.
    pub rst: bool,
    /// Reset the server side with a RST forged as the client
    /// (interceptive only).
    pub reset_server: bool,
    /// Consume the trigger and black-hole the rest of the flow
    /// (interceptive only).
    pub drop_flow: bool,
    /// IP-Identifier discipline for forged packets.
    pub ip_id: IpIdSpec,
    /// Injection timing.
    pub delay: DelaySpec,
}

/// One rule: a Host-header match against the device's blocklist that
/// fires on a hit.
#[derive(Debug, Clone, PartialEq)]
pub struct Rule {
    /// How the domain is extracted from the request.
    pub matcher: HostMatcher,
    /// What the rule injects and transitions when the extracted domain
    /// is on the device's blocklist.
    pub fire: FireSpec,
}

/// A compiled censor program: device-wide match gates plus the rule
/// list, scanned in order per inspectable request.
#[derive(Debug, Clone, PartialEq)]
pub struct Policy {
    /// Program name (diagnostics; builtins use it for lookup).
    pub name: String,
    /// Mechanism family.
    pub family: Family,
    /// Destination ports inspected at SYN time; `None` inspects all.
    pub ports: Option<BTreeSet<u16>>,
    /// Flow-state idle timeout.
    pub flow_timeout: SimDuration,
    /// The rules, scanned first-match-wins.
    pub rules: Vec<Rule>,
}

impl Policy {
    /// Is destination `port` subject to inspection?
    pub fn inspects_port(&self, port: u16) -> bool {
        self.ports.as_ref().map(|p| p.contains(&port)).unwrap_or(true)
    }

    /// The notice page this program forges: the first one its rules
    /// name. `None` for a covert program that only answers with RSTs.
    pub fn notice(&self) -> Option<&NoticeStyle> {
        self.rules.iter().find_map(|rule| rule.fire.notice.as_ref())
    }

    /// Give every rule the slow path `(p, range_us)`: with probability
    /// `p` an injection takes a delay drawn from `range_us` instead of
    /// the normal range. Only timed (wiretap) rules draw, so an
    /// interceptive program is unaffected. The race ablation sweeps this
    /// knob.
    pub fn set_slow_path(&mut self, p: f64, range_us: (u64, u64)) {
        for rule in &mut self.rules {
            rule.fire.delay.slow = Some((p, range_us));
        }
    }
}

/// Outcome of one rule scan over an inspectable request.
enum Scan {
    /// Rule `usize` fired on the extracted domain.
    Fire(usize, String),
    /// A domain was extracted but no rule's blocklist held it.
    Clean,
    /// No rule's matcher extracted a domain.
    NoDomain,
}

/// How a firing is narrated in the debug event stream: the wiretap race
/// fields vs. the interceptive covert flag.
enum FireNote {
    Race { delay_us: u64, slow: bool },
    Intercept { covert: bool },
}

fn forge_ip_id(spec: &IpIdSpec, seq: u32) -> u16 {
    match spec {
        IpIdSpec::Fixed(v) => *v,
        IpIdSpec::DeviceMark => 0x4d49, // "MI"
        IpIdSpec::SeqHash => {
            let mut id = (seq.wrapping_mul(2654435761) >> 16) as u16;
            if id == 242 {
                id = 241; // never collide with the Airtel signature
            }
            id
        }
    }
}

/// The recorded draw order: slow-path coin (only when a slow tail is
/// configured), then the range draw. No `base` → no draws at all.
fn jitter_draw(spec: &DelaySpec, rng: &mut SimRng) -> (u64, bool) {
    let Some(base) = spec.base else { return (0, false) };
    let (range, slow) = match spec.slow {
        Some((p, slow_range)) if rng.gen_bool(p) => (slow_range, true),
        _ => (base, false),
    };
    (rng.gen_range(range.0..=range.1), slow)
}

fn trigger_event(
    ctx: &mut NodeCtx<'_>,
    target: &'static str,
    name: &'static str,
    domain: &str,
    client: Ipv4Addr,
    note: &FireNote,
) {
    if !ctx.obs().enabled(target, Level::Debug) {
        return;
    }
    let mut fields: Vec<(String, Json)> = Vec::new();
    fields.push(("device".to_string(), ctx.label().to_json()));
    fields.push(("domain".to_string(), domain.to_json()));
    fields.push(("client".to_string(), client.to_json()));
    match note {
        FireNote::Race { delay_us, slow } => {
            fields.push(("delay_us".to_string(), delay_us.to_json()));
            fields.push(("slow".to_string(), slow.to_json()));
        }
        FireNote::Intercept { covert } => {
            fields.push(("covert".to_string(), covert.to_json()));
        }
    }
    ctx.obs().event(ctx.now().micros(), Level::Debug, target, name, fields);
}

fn flip(iface: IfaceId) -> IfaceId {
    if iface == IfaceId(0) {
        IfaceId(1)
    } else {
        IfaceId(0)
    }
}

/// The generic policy interpreter node. One struct serves both
/// families: a [`Family::Wiretap`] box is wired to a router mirror port
/// (single interface), a [`Family::Interceptive`] box sits inline with
/// two interfaces, packets arriving on one leaving on the other.
#[derive(Clone)]
pub struct PolicyBox {
    /// The compiled program.
    pub policy: Policy,
    /// Per-device instantiation.
    pub inst: Instance,
    flows: FlowTable,
    /// Black-holed flows → when they were reset (interceptive state;
    /// stays empty under a wiretap program).
    blackholed: BTreeMap<FlowKey, SimTime>,
    rng: SimRng,
    label: String,
    sweep_armed: bool,
    /// Number of rule firings (injections/interceptions) performed.
    pub triggers: u64,
    /// (time, client, domain) trigger log.
    pub trigger_log: Vec<(SimTime, Ipv4Addr, String)>,
}

impl PolicyBox {
    /// Instantiate a program for one device.
    #[expect(clippy::disallowed_methods, reason = "seed plumbing: a device draws from its seed")]
    pub fn new(policy: Policy, inst: Instance, label: impl Into<String>) -> Self {
        let flows = FlowTable::new(policy.flow_timeout);
        let rng = SimRng::seed_from_u64(inst.seed ^ 0x77aa_77aa);
        PolicyBox {
            policy,
            inst,
            flows,
            blackholed: BTreeMap::new(),
            rng,
            label: label.into(),
            sweep_armed: false,
            triggers: 0,
            trigger_log: Vec::new(),
        }
    }

    /// Ordered (key, stage) view of the tracked flows, for the
    /// differential equivalence suite.
    pub fn flow_rows(&self) -> Vec<(FlowKey, Stage)> {
        self.flows.flow_rows()
    }

    /// Ordered view of the black-holed flow keys.
    pub fn blackhole_rows(&self) -> Vec<FlowKey> {
        let mut rows = Vec::new();
        for k in self.blackholed.keys() {
            rows.push(*k);
        }
        rows
    }

    fn maybe_arm_sweep(&mut self, ctx: &mut NodeCtx<'_>) {
        if !self.sweep_armed && (!self.flows.is_empty() || !self.blackholed.is_empty()) {
            self.sweep_armed = true;
            ctx.set_timer(SWEEP_EVERY, SWEEP);
        }
    }

    /// Scan the rules in order; the first rule whose extracted domain is
    /// on the device's blocklist wins. The scan never draws from the RNG.
    fn scan_rules(&self, payload: &[u8]) -> Scan {
        let mut saw_domain = false;
        for (i, rule) in self.policy.rules.iter().enumerate() {
            let Some(domain) = rule.matcher.extract(payload) else { continue };
            saw_domain = true;
            if self.inst.blocks(&domain) {
                return Scan::Fire(i, domain);
            }
        }
        if saw_domain {
            Scan::Clean
        } else {
            Scan::NoDomain
        }
    }

    /// Wiretap firing: delayed notice + follow-up RST racing the real
    /// response, telemetry in the recorded order.
    fn fire_mirror(
        &mut self,
        ctx: &mut NodeCtx<'_>,
        insp: &Inspectable,
        domain: &str,
        rule_idx: usize,
    ) {
        let PolicyBox { policy, rng, triggers, trigger_log, .. } = self;
        let act = &policy.rules[rule_idx].fire;
        *triggers += 1;
        trigger_log.push((ctx.now(), insp.key.client.0, domain.to_string()));
        let (client_ip, client_port) = insp.key.client;
        let (server_ip, server_port) = insp.key.server;
        let (delay_us, slow) = jitter_draw(&act.delay, rng);
        let delay = SimDuration::from_micros(delay_us);
        ctx.obs().counter_inc("wm.injections", ctx.label());
        ctx.obs().counter_inc(if slow { "wm.race.slow" } else { "wm.race.fast" }, ctx.label());
        trigger_event(
            ctx,
            "wiretap",
            "inject",
            domain,
            client_ip,
            &FireNote::Race { delay_us, slow },
        );

        let notice_len = if let Some(style) = &act.notice {
            let body = style.render().emit();
            let mut h = TcpHeader::new(
                server_port,
                client_port,
                TcpFlags::FIN | TcpFlags::PSH | TcpFlags::ACK,
            );
            h.seq = insp.forge_seq;
            h.ack = insp.forge_ack;
            let len = body.len() as u32;
            let id = forge_ip_id(&act.ip_id, h.seq);
            let mut pkt = Packet::tcp(server_ip, client_ip, h, Bytes::from(body));
            pkt.ip.ttl = 57; // plausible residual TTL on a forged packet
            pkt.ip.identification = id;
            ctx.send_delayed(IfaceId::PRIMARY, pkt, delay);
            len + 1 // FIN occupies one sequence number
        } else {
            0
        };

        if act.rst {
            // The follow-up RST that forces immediate teardown even if
            // the FIN handshake is still in flight (Figure 4).
            let mut rst = TcpHeader::new(server_port, client_port, TcpFlags::RST);
            rst.seq = insp.forge_seq.wrapping_add(notice_len);
            let id = forge_ip_id(&act.ip_id, rst.seq);
            let mut pkt = Packet::tcp(server_ip, client_ip, rst, Bytes::new());
            pkt.ip.ttl = 57;
            pkt.ip.identification = id;
            ctx.send_delayed(IfaceId::PRIMARY, pkt, delay + SimDuration::from_micros(120));
        }
    }

    /// Interceptive firing: answer the client inline, reset the server,
    /// black-hole the flow — the Figure 3 sequence.
    fn fire_inline(
        &mut self,
        ctx: &mut NodeCtx<'_>,
        in_iface: IfaceId,
        insp: &Inspectable,
        get_header: &TcpHeader,
        domain: &str,
        rule_idx: usize,
    ) {
        let PolicyBox { policy, flows, blackholed, triggers, trigger_log, .. } = self;
        let act = &policy.rules[rule_idx].fire;
        *triggers += 1;
        trigger_log.push((ctx.now(), insp.key.client.0, domain.to_string()));
        let (client_ip, client_port) = insp.key.client;
        let (server_ip, server_port) = insp.key.server;
        ctx.obs().counter_inc("im.interceptions", ctx.label());
        trigger_event(
            ctx,
            "interceptive",
            "trigger",
            domain,
            client_ip,
            &FireNote::Intercept { covert: act.notice.is_none() },
        );

        // (2) Answer the client ourselves, forged as the server.
        if let Some(style) = &act.notice {
            let body = style.render().emit();
            let mut h = TcpHeader::new(
                server_port,
                client_port,
                TcpFlags::FIN | TcpFlags::PSH | TcpFlags::ACK,
            );
            h.seq = insp.forge_seq;
            h.ack = insp.forge_ack;
            let id = forge_ip_id(&act.ip_id, h.seq);
            let mut pkt = Packet::tcp(server_ip, client_ip, h, Bytes::from(body));
            pkt.ip.ttl = 57;
            pkt.ip.identification = id;
            ctx.send(in_iface, pkt);
        } else if act.rst {
            let mut rst = TcpHeader::new(server_port, client_port, TcpFlags::RST);
            rst.seq = insp.forge_seq;
            let id = forge_ip_id(&act.ip_id, rst.seq);
            let mut pkt = Packet::tcp(server_ip, client_ip, rst, Bytes::new());
            pkt.ip.ttl = 57;
            pkt.ip.identification = id;
            ctx.send(in_iface, pkt);
        }

        if act.reset_server {
            // (3) Reset the server side, forged as the client: the
            // sequence number equals the server's rcv_nxt — the GET's
            // own sequence — the paper's tell that the RST the remote
            // host received was not the client's.
            let mut rst = TcpHeader::new(client_port, server_port, TcpFlags::RST);
            rst.seq = get_header.seq;
            let mut pkt = Packet::tcp(client_ip, server_ip, rst, Bytes::new());
            pkt.ip.ttl = 57;
            ctx.send(flip(in_iface), pkt);
        }

        if act.drop_flow {
            // (4) Black-hole the rest of the flow.
            blackholed.insert(insp.key, ctx.now());
            flows.remove(&insp.key);
        }
    }

    /// Mirror-port packet path (wiretap family): the early-exit
    /// profiler labels are part of the recorded transcript surface.
    fn on_mirror(&mut self, ctx: &mut NodeCtx<'_>, pkt: Packet) {
        let Some((h, payload)) = pkt.as_tcp() else {
            ctx.obs().prof_path("wm.not-tcp");
            return; // a wiretap discards what it does not understand
        };
        if h.flags.contains(TcpFlags::SYN)
            && !h.flags.contains(TcpFlags::ACK)
            && (!self.policy.inspects_port(h.dst_port) || !self.inst.inspects_client(pkt.src()))
        {
            ctx.obs().prof_path("wm.syn-filtered");
            return;
        }
        let Some(insp) = self.flows.observe(&pkt, ctx.now()) else {
            ctx.obs().prof_path("wm.untracked");
            self.maybe_arm_sweep(ctx);
            return;
        };
        self.maybe_arm_sweep(ctx);
        match self.scan_rules(payload) {
            Scan::Fire(i, domain) => {
                ctx.obs().prof_path("wm.inject");
                self.fire_mirror(ctx, &insp, &domain, i);
            }
            Scan::Clean => ctx.obs().prof_path("wm.clean"),
            Scan::NoDomain => ctx.obs().prof_path("wm.no-domain"),
        }
    }

    /// Inline packet path (interceptive family): exit labels and
    /// black-hole semantics are part of the recorded transcript
    /// surface.
    fn on_inline(&mut self, ctx: &mut NodeCtx<'_>, iface: IfaceId, pkt: Packet) {
        let out = flip(iface);
        let Transport::Tcp(h, payload) = &pkt.transport else {
            ctx.obs().prof_path("im.forward-other");
            ctx.send(out, pkt); // ICMP, UDP: pass through untouched
            return;
        };

        let as_client_key =
            FlowKey { client: (pkt.src(), h.src_port), server: (pkt.dst(), h.dst_port) };
        if self.blackholed.contains_key(&as_client_key) {
            ctx.obs().prof_path("im.blackhole");
            ctx.trace_drop(&pkt, "im-blackhole");
            return;
        }

        let track = !(h.flags.contains(TcpFlags::SYN)
            && !h.flags.contains(TcpFlags::ACK)
            && (!self.policy.inspects_port(h.dst_port) || !self.inst.inspects_client(pkt.src())));

        if track {
            if let Some(insp) = self.flows.observe(&pkt, ctx.now()) {
                if let Scan::Fire(i, domain) = self.scan_rules(payload) {
                    ctx.obs().prof_path("im.intercept");
                    self.fire_inline(ctx, iface, &insp, h, &domain, i);
                    self.maybe_arm_sweep(ctx);
                    return; // (1) the request is consumed
                }
            }
            self.maybe_arm_sweep(ctx);
        }
        ctx.obs().prof_path("im.forward");
        ctx.send(out, pkt);
    }
}

impl Node for PolicyBox {
    fn on_packet(&mut self, ctx: &mut NodeCtx<'_>, iface: IfaceId, pkt: Packet) {
        match self.policy.family {
            Family::Wiretap => self.on_mirror(ctx, pkt),
            Family::Interceptive => self.on_inline(ctx, iface, pkt),
        }
    }

    fn on_timer(&mut self, ctx: &mut NodeCtx<'_>, token: u64) {
        if token == SWEEP {
            self.sweep_armed = false;
            let evicted = self.flows.sweep(ctx.now());
            if evicted > 0 {
                ctx.obs().counter_add("mb.flow.evictions", ctx.label(), evicted as u64);
            }
            ctx.obs().gauge_set("mb.flow.size", ctx.label(), self.flows.len() as i64);
            let timeout = self.flows.timeout;
            let now = ctx.now();
            self.blackholed.retain(|_, at| now.since(*at) < timeout);
            self.maybe_arm_sweep(ctx);
        }
    }

    fn label(&self) -> &str {
        &self.label
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::builtin;
    use crate::notice::looks_like_notice;
    use lucent_netsim::{Network, NodeId};
    use lucent_packet::http::RequestBuilder;

    const CLIENT: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 2);
    const SERVER: Ipv4Addr = Ipv4Addr::new(93, 184, 216, 34);

    /// A sink node that records every packet it receives.
    #[derive(Clone)]
    struct Sink {
        got: Vec<Packet>,
    }

    impl Node for Sink {
        fn on_packet(&mut self, _ctx: &mut NodeCtx<'_>, _iface: IfaceId, pkt: Packet) {
            self.got.push(pkt);
        }
        fn label(&self) -> &str {
            "sink"
        }
    }

    fn get_for(host: &str, seq: u32) -> Packet {
        request(RequestBuilder::browser(host, "/").build(), seq)
    }

    fn request(body: Vec<u8>, seq: u32) -> Packet {
        let mut h = TcpHeader::new(40000, 80, TcpFlags::ACK | TcpFlags::PSH);
        h.seq = seq;
        h.ack = 2001;
        Packet::tcp(CLIENT, SERVER, h, Bytes::from(body))
    }

    fn handshake(net: &mut Network, mb: NodeId, iface: IfaceId) {
        handshake_on(net, mb, iface, 80);
    }

    fn handshake_on(net: &mut Network, mb: NodeId, iface: IfaceId, port: u16) {
        let mut syn = TcpHeader::new(40000, port, TcpFlags::SYN);
        syn.seq = 999;
        net.inject(mb, iface, Packet::tcp(CLIENT, SERVER, syn, Bytes::new()));
        let mut synack = TcpHeader::new(port, 40000, TcpFlags::SYN | TcpFlags::ACK);
        synack.seq = 2000;
        synack.ack = 1000;
        net.inject(mb, IfaceId(1), Packet::tcp(SERVER, CLIENT, synack, Bytes::new()));
        let mut ack = TcpHeader::new(40000, port, TcpFlags::ACK);
        ack.seq = 1000;
        ack.ack = 2001;
        net.inject(mb, iface, Packet::tcp(CLIENT, SERVER, ack, Bytes::new()));
        net.run_for(SimDuration::from_millis(5));
    }

    /// Wiretap rig: PolicyBox on a mirror port, sink on the box's
    /// primary interface would be loopy — instead mb iface 0 connects
    /// to the sink, and packets are injected straight into the box.
    fn mirror_rig(policy: Policy, inst: Instance) -> (Network, NodeId, NodeId) {
        let mut net = Network::new();
        let mb = net.add_node(Box::new(PolicyBox::new(policy, inst, "pb-test")));
        let sink = net.add_node(Box::new(Sink { got: Vec::new() }));
        net.connect(mb, IfaceId(0), sink, IfaceId(0), SimDuration::from_micros(10));
        (net, mb, sink)
    }

    fn inline_rig(policy: Policy, inst: Instance) -> (Network, NodeId, NodeId, NodeId) {
        let mut net = Network::new();
        let mb = net.add_node(Box::new(PolicyBox::new(policy, inst, "pb-test")));
        let a = net.add_node(Box::new(Sink { got: Vec::new() }));
        let b = net.add_node(Box::new(Sink { got: Vec::new() }));
        net.connect(mb, IfaceId(0), a, IfaceId(0), SimDuration::from_micros(10));
        net.connect(mb, IfaceId(1), b, IfaceId(0), SimDuration::from_micros(10));
        (net, mb, a, b)
    }

    /// Airtel's committed program without its slow tail, so every
    /// injection lands within the 5 ms the tests run for.
    fn airtel_policy() -> Policy {
        let mut policy = builtin("airtel-wm").unwrap();
        policy.rules[0].fire.delay.slow = None;
        policy
    }

    fn inst(domains: &[&str]) -> Instance {
        Instance::of(domains.iter().map(|d| d.to_string()), None, 7)
    }

    #[test]
    fn wiretap_policy_injects_notice_and_rst() {
        let (mut net, mb, sink) = mirror_rig(airtel_policy(), inst(&["blocked.example"]));
        handshake(&mut net, mb, IfaceId(0));
        net.inject(mb, IfaceId(0), get_for("blocked.example", 1000));
        net.run_for(SimDuration::from_millis(5));
        let got = &net.node_ref::<Sink>(sink).unwrap().got;
        assert_eq!(got.len(), 2, "notice + follow-up RST");
        let (h0, body) = got[0].as_tcp().unwrap();
        assert!(h0.flags.contains(TcpFlags::FIN));
        let resp = lucent_packet::HttpResponse::parse(body).unwrap();
        assert!(looks_like_notice(&resp));
        assert_eq!(got[0].ip.identification, 242);
        assert_eq!(got[0].ip.ttl, 57);
        let (h1, _) = got[1].as_tcp().unwrap();
        assert!(h1.flags.contains(TcpFlags::RST));
        assert_eq!(net.node_ref::<PolicyBox>(mb).unwrap().triggers, 1);
    }

    #[test]
    fn clean_domain_passes_a_wiretap_policy() {
        let (mut net, mb, sink) = mirror_rig(airtel_policy(), inst(&["blocked.example"]));
        handshake(&mut net, mb, IfaceId(0));
        net.inject(mb, IfaceId(0), get_for("fine.example", 1000));
        net.run_for(SimDuration::from_millis(5));
        assert!(net.node_ref::<Sink>(sink).unwrap().got.is_empty());
        assert_eq!(net.node_ref::<PolicyBox>(mb).unwrap().triggers, 0);
    }

    #[test]
    fn interceptive_policy_answers_resets_and_blackholes() {
        let policy = builtin("vodafone-im").unwrap();
        let (mut net, mb, a, b) = inline_rig(policy, inst(&["blocked.example"]));
        handshake(&mut net, mb, IfaceId(0));
        net.inject(mb, IfaceId(0), get_for("blocked.example", 1000));
        net.run_for(SimDuration::from_millis(5));
        // Client side (iface 0) got the covert bare RST.
        let client_side = &net.node_ref::<Sink>(a).unwrap().got;
        let covert = client_side.last().unwrap();
        let (h, _) = covert.as_tcp().unwrap();
        assert!(h.flags.contains(TcpFlags::RST));
        assert_eq!(covert.ip.identification, 0x4d49);
        // Server side (iface 1) got a forged client RST, not the GET.
        let server_side = &net.node_ref::<Sink>(b).unwrap().got;
        let rst = server_side.last().unwrap();
        let (h, _) = rst.as_tcp().unwrap();
        assert!(h.flags.contains(TcpFlags::RST));
        assert_eq!(h.seq, 1000);
        // Follow-up client packet is black-holed.
        let before = net.node_ref::<Sink>(b).unwrap().got.len();
        net.inject(mb, IfaceId(0), get_for("blocked.example", 1400));
        net.run_for(SimDuration::from_millis(5));
        assert_eq!(net.node_ref::<Sink>(b).unwrap().got.len(), before);
        assert_eq!(net.node_ref::<PolicyBox>(mb).unwrap().blackhole_rows().len(), 1);
    }

    #[test]
    fn a_clean_extraction_falls_through_to_the_next_matcher() {
        // A second Host line after the terminator: last-host sees only
        // the clean decoy, exact-token sees the blocked host. With the
        // last-host rule first, the scan moves on to the exact-token
        // rule, which fires.
        let mut policy = airtel_policy();
        let mut decoy_first = policy.rules[0].clone();
        decoy_first.matcher = HostMatcher::LastHost;
        policy.rules.insert(0, decoy_first);
        let mut body = RequestBuilder::browser("blocked.example", "/").build();
        body.extend_from_slice(b"Host: fine.example\r\n\r\n");
        let (mut net, mb, sink) = mirror_rig(policy, inst(&["blocked.example"]));
        handshake(&mut net, mb, IfaceId(0));
        net.inject(mb, IfaceId(0), request(body, 1000));
        net.run_for(SimDuration::from_millis(5));
        assert_eq!(net.node_ref::<Sink>(sink).unwrap().got.len(), 2, "notice + follow-up RST");
        assert_eq!(net.node_ref::<PolicyBox>(mb).unwrap().triggers, 1);
    }

    #[test]
    fn flow_rows_track_the_handshake() {
        let (mut net, mb, _sink) = mirror_rig(airtel_policy(), inst(&["blocked.example"]));
        handshake(&mut net, mb, IfaceId(0));
        let rows = net.node_ref::<PolicyBox>(mb).unwrap().flow_rows();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].1, Stage::Established);

        // Only inspected ports and clients are tracked: the committed
        // port-80 program skips 8080, `ports = None` (the "ideal
        // middlebox" of §6.3) tracks it, and a client filter tracks
        // exactly the clients inside its prefixes.
        let mut any_port = airtel_policy();
        any_port.ports = None;
        let filtered = |prefix: &str| {
            let client_filter = Some(vec![prefix.parse().unwrap()]);
            Instance::of(["blocked.example".to_string()], client_filter, 7)
        };
        for (policy, inst, port, tracked) in [
            (airtel_policy(), inst(&["blocked.example"]), 8080, 0),
            (any_port, inst(&["blocked.example"]), 8080, 1),
            (airtel_policy(), filtered("10.50.0.0/16"), 80, 0),
            (airtel_policy(), filtered("10.0.0.0/24"), 80, 1),
        ] {
            let (mut net, mb, _sink) = mirror_rig(policy, inst);
            handshake_on(&mut net, mb, IfaceId(0), port);
            let rows = net.node_ref::<PolicyBox>(mb).unwrap().flow_rows();
            assert_eq!(rows.len(), tracked, "port {port}");
        }
    }
}
