//! The policy-engine transcript harness.
//!
//! The hardcoded `WiretapMiddlebox` / `InterceptiveMiddlebox` reference
//! structs are gone: every censor is a [`PolicyBox`] interpreting a
//! compiled program. What replaces the live legacy twin is a *recorded*
//! one — [`render_transcript`] runs a policy device through a packet
//! script in a single-device rig and renders everything observable into
//! one canonical text:
//!
//! - after every step, the device state ([`Snap`]: trigger counter, the
//!   `(time, client, domain)` trigger log, flow-table rows, black-hole
//!   set) and the packets newly arrived on both taps (arrival time and
//!   exact wire bytes, hex);
//! - at the end of the run, the pretty metrics snapshot and the debug
//!   event log of the telemetry registry — so profiler path counters,
//!   injection events, and sweep accounting stay inside the
//!   equivalence claim, not just the packets.
//!
//! The transcripts recorded while the legacy structs were still alive
//! are committed under `tests/golden/mb-*.transcript`; [`run_diff`]
//! holds today's interpreter to them byte-for-byte, and
//! [`spec_self_diff`] holds any spec to *replay determinism* (two fresh
//! rigs, identical transcripts) — the invariant the recordings rest on.
//!
//! [`run_diff`] takes the compiled policy as a parameter on purpose:
//! `tests/it_policy.rs` feeds it the planted `wrong-airtel.toml`
//! fixture to prove the suite *can* go red, and its green twin to prove
//! the red is the fixture's fault.

use std::net::Ipv4Addr;

use lucent_middlebox::compile::compile;
use lucent_middlebox::flow::{FlowKey, Stage};
use lucent_middlebox::policy::Policy;
use lucent_middlebox::{HostMatcher, Instance, PolicyBox};
use lucent_netsim::routing::Cidr;
use lucent_netsim::{IfaceId, Network, Node, NodeCtx, NodeId, SimDuration, SimTime};
use lucent_packet::http::RequestBuilder;
use lucent_packet::{IcmpMessage, Packet, TcpFlags, TcpHeader, UdpHeader};
use lucent_support::Bytes;

use crate::source::Source;

/// The three host matchers, in draw order.
const MATCHERS: [HostMatcher; 3] =
    [HostMatcher::ExactToken, HostMatcher::StrictPattern, HostMatcher::LastHost];

/// Slow-tail probabilities as literals, so the rendered TOML pins the
/// exact `f64` the interpreter draws against.
const SLOW_P: [&str; 4] = ["0.1", "0.25", "0.5", "0.9"];

/// A randomly drawn middlebox specification — the seed both the policy
/// program and the packet script are derived from.
#[derive(Debug, Clone)]
pub struct MbSpec {
    /// Wiretap (mirror tap) or interceptive (inline) family.
    pub wiretap: bool,
    /// Host extraction discipline.
    pub matcher: HostMatcher,
    /// Notice preset name (`airtel` / `idea` / `jio`); `None` renders
    /// no page — covert on an interceptive device, bare-RST wiretap.
    pub notice: Option<&'static str>,
    /// Fixed IP-Identifier; `None` means hashed (WM) / device mark (IM).
    pub fixed_ip_id: Option<u16>,
    /// Wiretap injection delay range, microseconds.
    pub delay_us: (u64, u64),
    /// Wiretap slow tail: (probability literal, delay range).
    pub slow: Option<(&'static str, (u64, u64))>,
    /// Inspect every port rather than only 80.
    pub any_ports: bool,
    /// Restrict inspection to clients inside 10.0.0.0/8.
    pub filtered_clients: bool,
    /// Flow-state idle timeout, seconds.
    pub flow_timeout_secs: u64,
    /// Domains the device censors.
    pub blocklist: Vec<String>,
    /// Device RNG seed.
    pub seed: u64,
}

fn matcher_word(m: HostMatcher) -> &'static str {
    match m {
        HostMatcher::ExactToken => "exact-token",
        HostMatcher::StrictPattern => "strict-pattern",
        HostMatcher::LastHost => "last-host",
    }
}

impl MbSpec {
    /// The specification rendered as a policy-TOML program — the text
    /// [`spec_self_diff`] feeds through [`compile`], so the compiler is
    /// exercised by every differential case.
    pub fn policy_toml(&self) -> String {
        let mut t = String::from("[policy]\nname = \"diff-spec\"\n");
        t.push_str(if self.wiretap {
            "family = \"wiretap\"\n"
        } else {
            "family = \"interceptive\"\n"
        });
        t.push_str("\n[match]\n");
        t.push_str(if self.any_ports { "ports = \"any\"\n" } else { "ports = [80]\n" });
        t.push_str("\n[state]\n");
        t.push_str(&format!("flow_timeout_secs = {}\n", self.flow_timeout_secs));
        t.push_str("\n[[rule]]\ntrigger = \"host-header\"\n");
        t.push_str(&format!("matcher = \"{}\"\n", matcher_word(self.matcher)));
        let verbs: &str = match (self.wiretap, self.notice.is_some()) {
            (true, true) => "[\"inject-notice\", \"inject-rst\"]",
            (true, false) => "[\"inject-rst\"]",
            (false, true) => "[\"inject-notice\", \"reset-server\", \"drop\"]",
            (false, false) => "[\"inject-rst\", \"reset-server\", \"drop\"]",
        };
        t.push_str(&format!("action = {verbs}\n"));
        if let Some(preset) = self.notice {
            t.push_str(&format!("notice = \"{preset}\"\n"));
        }
        match (self.fixed_ip_id, self.wiretap) {
            (Some(v), _) => t.push_str(&format!("ip_id = {v}\n")),
            (None, true) => t.push_str("ip_id = \"hashed\"\n"),
            (None, false) => t.push_str("ip_id = \"device\"\n"),
        }
        if self.wiretap {
            let (lo, hi) = self.delay_us;
            t.push_str(&format!("delay_us = {{ lo = {lo}, hi = {hi} }}\n"));
            if let Some((p, (slo, shi))) = self.slow {
                t.push_str(&format!("slow = {{ p = {p}, lo = {slo}, hi = {shi} }}\n"));
            }
        }
        t
    }

    /// The specification as a [`PolicyBox`] device instance.
    pub fn device_instance(&self) -> Instance {
        Instance::of(self.blocklist.iter().cloned(), self.client_cidrs(), self.seed)
    }

    fn client_cidrs(&self) -> Option<Vec<Cidr>> {
        if self.filtered_clients {
            Some(vec![Cidr::new(Ipv4Addr::new(10, 0, 0, 0), 8)])
        } else {
            None
        }
    }
}

/// Draw a random middlebox specification.
pub fn diff_spec(s: &mut Source) -> MbSpec {
    let wiretap = s.any_bool();
    let notice = if s.chance(2, 3) { Some(*s.pick(&["airtel", "idea", "jio"])) } else { None };
    let lo = s.range_u64(50, 2_000);
    let n = s.len_in(1, 3);
    let mut blocklist = Vec::new();
    for i in 0..n {
        blocklist.push(format!("blocked-{i}.example"));
    }
    MbSpec {
        wiretap,
        matcher: *s.pick(&MATCHERS),
        notice,
        fixed_ip_id: if s.any_bool() { Some(s.range_u64(1, 65_000) as u16) } else { None },
        delay_us: (lo, lo + s.range_u64(0, 5_000)),
        slow: if wiretap && s.any_bool() {
            Some((*s.pick(&SLOW_P), (150_000, 400_000)))
        } else {
            None
        },
        any_ports: s.chance(1, 4),
        filtered_clients: s.chance(1, 3),
        flow_timeout_secs: s.range_u64(30, 300),
        blocklist,
        seed: s.range_u64(0, 1 << 48),
    }
}

/// The Airtel wiretap specification — the spec behind the recorded
/// `tests/golden/mb-airtel.transcript` that `tests/it_policy.rs` diffs
/// the planted `wrong-airtel.toml` fixture (and its green twin)
/// against.
pub fn airtel_spec() -> MbSpec {
    MbSpec {
        wiretap: true,
        matcher: HostMatcher::ExactToken,
        notice: Some("airtel"),
        fixed_ip_id: Some(242),
        delay_us: (300, 900),
        slow: Some(("0.3", (150_000, 400_000))),
        any_ports: false,
        filtered_clients: false,
        flow_timeout_secs: 150,
        blocklist: vec!["blocked-0.example".to_string()],
        seed: 7,
    }
}

/// The Idea interceptive specification — covers the inline family
/// (consume, answer overtly, reset the server, black-hole) in the
/// recorded `tests/golden/mb-idea.transcript`.
pub fn idea_spec() -> MbSpec {
    MbSpec {
        wiretap: false,
        matcher: HostMatcher::StrictPattern,
        notice: Some("idea"),
        fixed_ip_id: None,
        delay_us: (300, 900),
        slow: None,
        any_ports: false,
        filtered_clients: false,
        flow_timeout_secs: 150,
        blocklist: vec!["blocked-0.example".to_string()],
        seed: 11,
    }
}

/// One scripted action against the rig.
#[derive(Debug, Clone)]
pub enum Step {
    /// Deliver a packet to the device on `iface` at the current instant.
    Inject(IfaceId, Packet),
    /// Let simulated time pass (sweeps, flow timeouts, black-hole expiry).
    Skip(SimDuration),
}

const SERVER: Ipv4Addr = Ipv4Addr::new(93, 184, 216, 34);

/// Per-flow sequence bookkeeping for the script generator.
struct FlowGen {
    client: (Ipv4Addr, u16),
    dst_port: u16,
    seq: u32,
    sisn: u32,
    shook: bool,
}

impl FlowGen {
    fn fresh(client: (Ipv4Addr, u16), dst_port: u16, isn: u32) -> FlowGen {
        FlowGen { client, dst_port, seq: isn, sisn: isn.wrapping_mul(3).wrapping_add(777), shook: false }
    }

    fn tcp_in(&self, flags: TcpFlags, seq: u32, ack: u32, payload: Bytes) -> Step {
        let mut h = TcpHeader::new(self.client.1, self.dst_port, flags);
        h.seq = seq;
        h.ack = ack;
        Step::Inject(IfaceId(0), Packet::tcp(self.client.0, SERVER, h, payload))
    }

    fn tcp_back(&self, flags: TcpFlags, seq: u32, ack: u32) -> Step {
        let mut h = TcpHeader::new(self.dst_port, self.client.1, flags);
        h.seq = seq;
        h.ack = ack;
        Step::Inject(IfaceId(1), Packet::tcp(SERVER, self.client.0, h, Bytes::new()))
    }

    /// The three-way handshake as seen by the device.
    fn hs_steps(&mut self, out: &mut Vec<Step>) {
        out.push(self.tcp_in(TcpFlags::SYN, self.seq, 0, Bytes::new()));
        out.push(self.tcp_back(TcpFlags::SYN | TcpFlags::ACK, self.sisn, self.seq.wrapping_add(1)));
        self.seq = self.seq.wrapping_add(1);
        out.push(self.tcp_in(TcpFlags::ACK, self.seq, self.sisn.wrapping_add(1), Bytes::new()));
        self.shook = true;
    }

    /// A data segment carrying `body`, advancing the sequence space.
    fn data_step(&mut self, body: Vec<u8>) -> Step {
        let len = body.len() as u32;
        let st = self.tcp_in(
            TcpFlags::ACK | TcpFlags::PSH,
            self.seq,
            self.sisn.wrapping_add(1),
            Bytes::from(body),
        );
        self.seq = self.seq.wrapping_add(len);
        st
    }
}

/// Request-image variants: canonical, double-Host, lowercase header
/// name, Host-less, and raw garbage — the §5 evasion shapes the
/// matchers must treat identically run over run.
fn request_image(s: &mut Source, host: &str) -> Vec<u8> {
    match s.below(5) {
        0 | 1 => RequestBuilder::browser(host, "/").build(),
        2 => format!("GET / HTTP/1.1\r\nHost: decoy.example\r\nHost: {host}\r\n\r\n").into_bytes(),
        3 => format!("GET / HTTP/1.1\r\nhost: {host}\r\nAccept: */*\r\n\r\n").into_bytes(),
        _ => b"GET / HTTP/1.1\r\nX-Pad: 1\r\n\r\n".to_vec(),
    }
}

/// Draw a random packet script for `spec`: handshakes on up to three
/// flows (one outside the 10/8 client filter), blocked and clean GETs
/// in evasion variants, teardown RSTs, UDP/ICMP noise, off-port SYNs,
/// and time skips long enough to cross the sweep and timeout horizons.
pub fn diff_script(s: &mut Source, spec: &MbSpec) -> Vec<Step> {
    let mut steps = Vec::new();
    let mut a = FlowGen::fresh((Ipv4Addr::new(10, 0, 0, 2), 40_000), 80, 1_000);
    let mut b = FlowGen::fresh((Ipv4Addr::new(10, 0, 7, 9), 41_000), 80, 50_000);
    // Outside the 10/8 filter: exercises the client-eligibility gate.
    let mut c = FlowGen::fresh((Ipv4Addr::new(172, 16, 0, 9), 42_000), 80, 90_000);
    a.hs_steps(&mut steps);
    let blocked = spec.blocklist[0].clone();
    let n = s.len_in(4, 10);
    for _ in 0..n {
        match s.below(10) {
            0 | 1 => {
                let img = request_image(s, &blocked);
                steps.push(a.data_step(img));
            }
            2 => {
                let img = request_image(s, "fine.example");
                steps.push(a.data_step(img));
            }
            3 => {
                if !b.shook {
                    b.hs_steps(&mut steps);
                }
                let img = request_image(s, &blocked);
                steps.push(b.data_step(img));
            }
            4 => {
                if !c.shook {
                    c.hs_steps(&mut steps);
                }
                let img = request_image(s, &blocked);
                steps.push(c.data_step(img));
            }
            5 => {
                // Client teardown RST mid-flow.
                let st = a.tcp_in(TcpFlags::RST, a.seq, 0, Bytes::new());
                steps.push(st);
            }
            6 => {
                let h = UdpHeader::new(5353, 53);
                steps.push(Step::Inject(
                    IfaceId(0),
                    Packet::udp(a.client.0, SERVER, h, Bytes::from(s.bytes(0, 24))),
                ));
            }
            7 => {
                let msg = IcmpMessage::EchoRequest { ident: 7, seq: 1 };
                steps.push(Step::Inject(IfaceId(0), Packet::icmp(a.client.0, SERVER, msg)));
            }
            8 => {
                // SYN to a port outside the inspection set (unless
                // `any_ports`, where it opens a tracked flow instead).
                let mut d = FlowGen::fresh((Ipv4Addr::new(10, 0, 0, 2), 43_000), 8_080, 5_000);
                d.hs_steps(&mut steps);
            }
            _ => {
                let secs = if s.any_bool() { s.range_u64(5, 40) } else { s.range_u64(160, 200) };
                steps.push(Step::Skip(SimDuration::from_secs(secs)));
            }
        }
    }
    // Always end with a blocked request on the primary flow, so every
    // case exercises the firing path at least twice.
    steps.push(a.data_step(RequestBuilder::browser(&blocked, "/").build()));
    steps
}

/// A short deterministic script (no [`Source`]) for the recorded
/// goldens and the planted-policy negative control: handshake, blocked GET, clean
/// GET, sweep-crossing skip, second blocked GET.
pub fn canned_script(spec: &MbSpec) -> Vec<Step> {
    let mut steps = Vec::new();
    let mut a = FlowGen::fresh((Ipv4Addr::new(10, 0, 0, 2), 40_000), 80, 1_000);
    a.hs_steps(&mut steps);
    let blocked = spec.blocklist[0].clone();
    steps.push(a.data_step(RequestBuilder::browser(&blocked, "/").build()));
    steps.push(a.data_step(RequestBuilder::browser("fine.example", "/").build()));
    steps.push(Step::Skip(SimDuration::from_secs(35)));
    let mut b = FlowGen::fresh((Ipv4Addr::new(10, 0, 7, 9), 41_000), 80, 50_000);
    b.hs_steps(&mut steps);
    steps.push(b.data_step(RequestBuilder::browser(&blocked, "/").build()));
    steps
}

/// A recording tap: every packet's arrival instant and exact wire bytes.
#[derive(Clone)]
struct Tap {
    rows: Vec<(u64, Vec<u8>)>,
    tag: &'static str,
}

impl Node for Tap {
    fn on_packet(&mut self, ctx: &mut NodeCtx<'_>, _iface: IfaceId, pkt: Packet) {
        self.rows.push((ctx.now().micros(), pkt.emit()));
    }
    fn label(&self) -> &str {
        self.tag
    }
}

struct Rig {
    net: Network,
    mb: NodeId,
    a: NodeId,
    b: NodeId,
}

fn build_rig(device: Box<dyn Node>) -> Result<Rig, String> {
    let mut net = Network::new();
    net.telemetry().enable_prof(true);
    net.telemetry()
        .set_filter_spec("wiretap=debug,interceptive=debug")
        .map_err(|e| format!("filter spec rejected: {e:?}"))?;
    let mb = net.add_node(device);
    let a = net.add_node(Box::new(Tap { rows: Vec::new(), tag: "tap-client" }));
    let b = net.add_node(Box::new(Tap { rows: Vec::new(), tag: "tap-server" }));
    net.connect(mb, IfaceId(0), a, IfaceId(0), SimDuration::from_micros(10));
    net.connect(mb, IfaceId(1), b, IfaceId(0), SimDuration::from_micros(10));
    Ok(Rig { net, mb, a, b })
}

/// Everything state-shaped the device exposes, captured after each step.
#[derive(Debug, PartialEq)]
struct Snap {
    triggers: u64,
    log: Vec<(SimTime, Ipv4Addr, String)>,
    flows: Vec<(FlowKey, Stage)>,
    black: Vec<FlowKey>,
}

fn mb_snap(net: &Network, mb: NodeId) -> Result<Snap, String> {
    let d = net.node_ref::<PolicyBox>(mb).ok_or_else(|| "policy node missing".to_string())?;
    Ok(Snap {
        triggers: d.triggers,
        log: d.trigger_log.clone(),
        flows: d.flow_rows(),
        black: d.blackhole_rows(),
    })
}

fn tap_rows(net: &Network, id: NodeId) -> Result<Vec<(u64, Vec<u8>)>, String> {
    Ok(net.node_ref::<Tap>(id).ok_or_else(|| "tap node missing".to_string())?.rows.clone())
}

/// Longest slow-tail injection is 400 ms; give every step half a second
/// of virtual time so all pending forgeries land before the snapshot.
const SETTLE: SimDuration = SimDuration(500_000);

fn apply_step(r: &mut Rig, step: &Step) {
    match step {
        Step::Inject(iface, pkt) => {
            r.net.inject(r.mb, *iface, pkt.clone());
            r.net.run_for(SETTLE);
        }
        Step::Skip(d) => r.net.run_for(*d),
    }
}

/// One tap row as a transcript line: arrival microsecond and the exact
/// wire bytes, lowercase hex.
fn hex_row(at: u64, bytes: &[u8]) -> String {
    let mut line = format!("  @{at} ");
    for b in bytes {
        line.push_str(&format!("{b:02x}"));
    }
    line
}

/// Run `policy` through `steps` in a fresh single-device rig and render
/// the canonical transcript: per-step device state and newly tapped
/// packets, then the final metrics snapshot and telemetry event log.
pub fn render_transcript(policy: Policy, spec: &MbSpec, steps: &[Step]) -> Result<String, String> {
    let mut out =
        format!("lucent-mb-transcript/1 name={} family={:?}\n", policy.name, policy.family);
    let mut rig = build_rig(Box::new(PolicyBox::new(policy, spec.device_instance(), "mb")))?;
    let mut seen = [0usize; 2];
    for (i, step) in steps.iter().enumerate() {
        match step {
            Step::Inject(iface, _) => out.push_str(&format!("= step {i}: inject iface={}\n", iface.0)),
            Step::Skip(d) => out.push_str(&format!("= step {i}: skip {}us\n", d.micros())),
        }
        apply_step(&mut rig, step);
        let snap = mb_snap(&rig.net, rig.mb)?;
        out.push_str(&format!("state: {snap:?}\n"));
        for (tag, id, slot) in [("client", rig.a, 0usize), ("server", rig.b, 1)] {
            let rows = tap_rows(&rig.net, id)?;
            out.push_str(&format!("tap {tag}:\n"));
            for (at, bytes) in &rows[seen[slot]..] {
                out.push_str(&hex_row(*at, bytes));
                out.push('\n');
            }
            seen[slot] = rows.len();
        }
    }
    out.push_str("= final\nmetrics:\n");
    out.push_str(&rig.net.telemetry().metrics_snapshot_pretty());
    if !out.ends_with('\n') {
        out.push('\n');
    }
    out.push_str("events:\n");
    out.push_str(&rig.net.telemetry().event_log());
    if !out.ends_with('\n') {
        out.push('\n');
    }
    Ok(out)
}

/// Diff a live transcript against a recording, pinpointing the first
/// divergent line. The messages say "diverged" — the planted-policy
/// negative control in `tests/it_policy.rs` asserts it.
pub fn diff_transcripts(live: &str, recorded: &str) -> Result<(), String> {
    if live == recorded {
        return Ok(());
    }
    let mut l = live.lines();
    let mut r = recorded.lines();
    let mut n = 1usize;
    loop {
        match (l.next(), r.next()) {
            (Some(a), Some(b)) if a == b => n += 1,
            (a, b) => {
                return Err(format!(
                    "transcript diverged from the recording at line {n}:\n live: {}\n gold: {}",
                    a.unwrap_or("<end of transcript>"),
                    b.unwrap_or("<end of recording>"),
                ));
            }
        }
    }
}

/// Run `policy` through `steps` and hold the transcript to `recorded`
/// byte-for-byte. `Ok(())` means behaviour identical to the recording;
/// `Err` pinpoints the first divergence.
pub fn run_diff(
    policy: Policy,
    spec: &MbSpec,
    steps: &[Step],
    recorded: &str,
) -> Result<(), String> {
    diff_transcripts(&render_transcript(policy, spec, steps)?, recorded)
}

/// Compile `spec`'s own rendered policy text and replay it through two
/// fresh rigs: the transcripts must be byte-identical. This replay
/// determinism is the invariant every recorded golden rests on (and the
/// everyday entry point of [`crate::oracles::policy_replay_deterministic`]).
pub fn spec_self_diff(spec: &MbSpec, steps: &[Step]) -> Result<(), String> {
    let policy =
        compile(&spec.policy_toml()).map_err(|e| format!("rendered policy rejected: {e}"))?;
    let first = render_transcript(policy.clone(), spec, steps)?;
    let second = render_transcript(policy, spec, steps)?;
    diff_transcripts(&second, &first)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::{check, Config};

    #[test]
    fn airtel_spec_renders_a_compilable_program() {
        let spec = airtel_spec();
        let p = compile(&spec.policy_toml()).unwrap();
        assert_eq!(p.rules.len(), 1);
    }

    #[test]
    fn the_canned_script_replays_deterministically() {
        for spec in [airtel_spec(), idea_spec()] {
            spec_self_diff(&spec, &canned_script(&spec)).unwrap();
        }
    }

    #[test]
    fn random_specs_and_scripts_replay_deterministically() {
        check(&Config::cases(24), |s| {
            let spec = diff_spec(s);
            let steps = diff_script(s, &spec);
            if let Err(e) = spec_self_diff(&spec, &steps) {
                panic!("{e}");
            }
        });
    }

    #[test]
    fn a_flipped_action_is_caught() {
        // The planted-policy negative control in miniature: record the
        // Airtel reference, then replay airtel minus the notice page
        // against the recording — it must diverge.
        let spec = airtel_spec();
        let steps = canned_script(&spec);
        let reference = compile(&spec.policy_toml()).unwrap();
        let recorded = render_transcript(reference, &spec, &steps).unwrap();
        let mut covert = spec.clone();
        covert.notice = None;
        let wrong = compile(&covert.policy_toml()).unwrap();
        let out = run_diff(wrong, &spec, &steps, &recorded);
        let msg = out.expect_err("the transcript diff must catch a flipped action");
        assert!(msg.contains("diverged"), "CI greps for 'diverged': {msg}");
    }

    #[test]
    fn transcripts_carry_state_taps_metrics_and_events() {
        let spec = airtel_spec();
        let steps = canned_script(&spec);
        let policy = compile(&spec.policy_toml()).unwrap();
        let t = render_transcript(policy, &spec, &steps).unwrap();
        assert!(t.starts_with("lucent-mb-transcript/1 name=diff-spec family=Wiretap\n"));
        for needle in ["= step 0", "state: Snap", "tap client:", "tap server:", "= final", "metrics:", "events:"] {
            assert!(t.contains(needle), "transcript lost its {needle:?} section:\n{t}");
        }
    }
}
