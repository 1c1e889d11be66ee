//! Differential and round-trip oracles over `lucent-packet`,
//! `lucent-tcp`, `lucent-middlebox` and the lint's readers.
//!
//! Every oracle is a property `fn(&mut Source)` that panics on
//! violation, so the same function runs under [`crate::runner::check`]
//! in a crate's test suite and inside the bounded `fuzz-smoke` campaign.
//! The catalogue:
//!
//! | oracle | claim |
//! |---|---|
//! | `checksum_split` | one-shot and incremental checksums agree |
//! | `ipv4_roundtrip` / `tcp_roundtrip` / `udp_roundtrip` / `icmp_roundtrip` | decode ∘ encode = id |
//! | `full_packet_roundtrip` | `Packet` emit→parse→emit is byte-stable (checksum repair is idempotent) |
//! | `ipv4_corruption_detected` | any single-bit header flip is rejected |
//! | `parsers_survive_garbage` | no parser panics on arbitrary bytes |
//! | `parsers_survive_corruption` | no parser panics on corrupted valid images; re-accepted images re-emit parseably |
//! | `dns_roundtrip` / `http_roundtrips` | DNS and HTTP emitters agree with their parsers |
//! | `tcb_arbitrary_segments_safe` | the TCP state machine never panics, receive buffer never shrinks |
//! | `flow_table_invariants` | flow tracking: len moves by ≤1 per packet, sweep reports exactly what it evicts |
//! | `planted_cap_is_bounded` | the planted SUT respects its cap (fails under `--features planted-bug`) |
//! | `lint_lexer_total` | the devtools scrubbing lexer preserves length and newlines on Rust-ish soup |
//! | `obs_histogram_merge` | telemetry merge is order/grouping-insensitive and conserves histogram buckets under shard splits |
//! | `sched_matches_heap_model` | the netsim calendar queue pops in exactly the reference binary-heap order, deadline pops included |
//! | `route_lookup_matches_linear_model` | the netsim route table's indexed longest-prefix match picks the route a linear scan picks |
//! | `policy_replay_deterministic` | a compiled policy program renders a byte-identical transcript on every replay — the invariant the recorded `tests/golden/mb-*.transcript` goldens rest on |
//! | `policy_compile_total` | the policy compiler, the lint's allowlist reader and its manifest extraction never panic and are deterministic on soup, garbage, and corrupted programs |

use std::net::Ipv4Addr;

use lucent_netsim::{SimDuration, SimTime};
use lucent_packet::{
    checksum, DnsMessage, HttpRequest, HttpResponse, IcmpMessage, Ipv4Header, Packet,
    TcpFlags, TcpHeader, UdpHeader,
};
use lucent_packet::http::RequestBuilder;
use lucent_support::Bytes;
use lucent_tcp::tcb::Tcb;
use lucent_tcp::TcpState;
use lucent_middlebox::flow::FlowTable;

use crate::corrupt::corrupt;
use crate::packets;
use crate::planted;
use crate::source::Source;

/// Unwrap a parse result without spending the L4 panic budget: oracle
/// failures must abort the case (the runner catches the unwind), and
/// `panic_any` carries the message without being a panic-site token.
fn ok<T, E: std::fmt::Debug>(r: Result<T, E>, what: &str) -> T {
    match r {
        Ok(v) => v,
        Err(e) => std::panic::panic_any(format!("{what}: {e:?}")),
    }
}

/// One-shot and split incremental checksums agree at any split point.
pub fn checksum_split(s: &mut Source) {
    let data = s.bytes(0, 511);
    let split = s.len_in(0, data.len());
    let whole = checksum::of(&data);
    let mut c = checksum::Checksum::new();
    c.add(&data[..split]);
    c.add(&data[split..]);
    assert_eq!(c.finish(), whole);
}

/// IPv4 header decode ∘ encode = id.
pub fn ipv4_roundtrip(s: &mut Source) {
    let h = packets::ipv4_header(s);
    let payload = s.bytes(0, 255);
    let mut wire = Vec::new();
    h.emit(&payload, &mut wire);
    let (parsed, body) = ok(Ipv4Header::parse(&wire), "valid header must parse");
    assert_eq!(parsed, h);
    assert_eq!(body, &payload[..]);
}

/// Any single-bit flip in the 20-byte IPv4 header is rejected.
pub fn ipv4_corruption_detected(s: &mut Source) {
    let h = packets::ipv4_header(s);
    let byte = s.len_in(0, 19);
    let bit = s.below(8) as u8;
    let mut wire = Vec::new();
    h.emit(&[], &mut wire);
    wire[byte] ^= 1 << bit;
    assert!(Ipv4Header::parse(&wire).is_err(), "flipped bit {bit} of byte {byte} accepted");
}

/// TCP header decode ∘ encode = id.
pub fn tcp_roundtrip(s: &mut Source) {
    let src = packets::ipv4_addr(s);
    let dst = packets::ipv4_addr(s);
    let h = packets::tcp_header(s);
    let payload = s.bytes(0, 511);
    let mut wire = Vec::new();
    h.emit(src, dst, &payload, &mut wire);
    let (parsed, body) = ok(TcpHeader::parse(src, dst, &wire), "valid segment must parse");
    assert_eq!(parsed, h);
    assert_eq!(body, &payload[..]);
}

/// UDP header decode ∘ encode = id.
pub fn udp_roundtrip(s: &mut Source) {
    let src = packets::ipv4_addr(s);
    let dst = packets::ipv4_addr(s);
    let h = packets::udp_header(s);
    let payload = s.bytes(0, 511);
    let mut wire = Vec::new();
    h.emit(src, dst, &payload, &mut wire);
    let (parsed, body) = ok(UdpHeader::parse(src, dst, &wire), "valid datagram must parse");
    assert_eq!(parsed, h);
    assert_eq!(body, &payload[..]);
}

/// ICMP decode ∘ encode = id for all four message shapes.
pub fn icmp_roundtrip(s: &mut Source) {
    let msg = packets::icmp_message(s);
    let mut wire = Vec::new();
    msg.emit(&mut wire);
    assert_eq!(ok(IcmpMessage::parse(&wire), "valid message must parse"), msg);
}

/// Full `Packet` emit → parse = id, and parse → emit reproduces the
/// exact wire bytes: checksum repair on emission is idempotent.
pub fn full_packet_roundtrip(s: &mut Source) {
    let pkt = packets::tcp_packet(s);
    let wire = pkt.emit();
    let parsed = ok(Packet::parse(&wire), "own emission must parse");
    assert_eq!(parsed, pkt);
    assert_eq!(parsed.emit(), wire, "re-emission must be byte-stable");
}

fn feed_all_parsers(bytes: &[u8]) {
    let _ = Ipv4Header::parse(bytes);
    let _ = Packet::parse(bytes);
    let _ = DnsMessage::parse(bytes);
    let _ = HttpRequest::parse(bytes);
    let _ = HttpResponse::parse(bytes);
}

/// No parser panics on arbitrary bytes.
pub fn parsers_survive_garbage(s: &mut Source) {
    let bytes = s.bytes(0, 255);
    feed_all_parsers(&bytes);
}

/// No parser panics on a corrupted valid wire image; and when a
/// corrupted packet is still accepted, re-emitting it yields an image
/// the parser accepts again (checksum repair is idempotent even on
/// mutated inputs).
pub fn parsers_survive_corruption(s: &mut Source) {
    let mut wire = packets::wire_image(s);
    corrupt(s, &mut wire);
    feed_all_parsers(&wire);
    if let Ok(pkt) = Packet::parse(&wire) {
        let repaired = pkt.emit();
        let reparsed = ok(Packet::parse(&repaired), "repaired image must parse");
        assert_eq!(reparsed, pkt, "repair must preserve the parsed value");
    }
}

/// DNS query and answer emit → parse = id.
pub fn dns_roundtrip(s: &mut Source) {
    let msg = packets::dns_message(s);
    let mut wire = Vec::new();
    ok(msg.emit(&mut wire), "generated names must fit");
    assert_eq!(ok(DnsMessage::parse(&wire), "own emission must parse"), msg);
}

/// HTTP request builder and response emitter agree with their parsers.
pub fn http_roundtrips(s: &mut Source) {
    let host = packets::host_name(s);
    let path = packets::url_path(s);
    let bytes = RequestBuilder::browser(&host, &path).build();
    let (req, used) =
        ok(HttpRequest::parse(&bytes), "browser request must parse");
    assert_eq!(used, bytes.len());
    assert_eq!(req.host(), Some(host.as_str()));
    assert_eq!(req.target, path);

    let resp = packets::http_response(s);
    let parsed = ok(HttpResponse::parse(&resp.emit()), "own emission must parse");
    assert_eq!(parsed.status, resp.status);
    assert_eq!(parsed.body, resp.body);
}

const A_IP: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 1);
const B_IP: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 2);

fn t(ms: u64) -> SimTime {
    SimTime(ms * 1_000)
}

/// Drive two fresh TCBs through the 3-way handshake — the shared rig
/// the `tcp` property suite used to hand-roll.
pub fn established_pair() -> (Tcb, Tcb) {
    let mut a = Tcb::connect((A_IP, 4000), (B_IP, 80), 1_000, t(0));
    let (syn_out, _) = a.poll(t(0));
    let (syn, _) = &syn_out[0];
    let mut b = Tcb::accept((B_IP, 80), (A_IP, 4000), 9_000, syn, t(0));
    for _ in 0..8 {
        let (fa, _) = a.poll(t(1));
        let (fb, _) = b.poll(t(1));
        if fa.is_empty() && fb.is_empty() {
            break;
        }
        for (h, p) in fa {
            b.on_segment(&h, &p, t(1));
        }
        for (h, p) in fb {
            a.on_segment(&h, &p, t(1));
        }
    }
    assert_eq!(a.state, TcpState::Established);
    assert_eq!(b.state, TcpState::Established);
    (a, b)
}

/// Arbitrary segments never panic the TCP state machine and never
/// shrink the receive buffer.
pub fn tcb_arbitrary_segments_safe(s: &mut Source) {
    let n = s.len_in(0, 32);
    let segs: Vec<(u8, u32, u32, Vec<u8>)> = (0..n)
        .map(|_| (s.below(0x40) as u8, s.any_u32(), s.any_u32(), s.bytes(0, 63)))
        .collect();
    let (mut a, _b) = established_pair();
    let mut last_len = 0usize;
    for (i, (flags, seq, ack, payload)) in segs.into_iter().enumerate() {
        let mut h = TcpHeader::new(80, 4000, TcpFlags(flags));
        h.seq = seq;
        h.ack = ack;
        a.on_segment(&h, &payload, t(10 + i as u64));
        let _ = a.poll(t(10 + i as u64));
        assert!(a.recv_buf.len() >= last_len || a.recv_buf.is_empty());
        last_len = a.recv_buf.len();
    }
}

/// The flow table under an arbitrary packet storm over a small endpoint
/// pool: tracked-flow count moves by at most one per packet,
/// `established_total` is monotone, and `sweep` returns exactly the
/// number of flows it evicted.
pub fn flow_table_invariants(s: &mut Source) {
    let timeout_secs = s.range_u64(1, 180);
    let mut table = FlowTable::new(SimDuration::from_secs(timeout_secs));
    let hosts = [
        Ipv4Addr::new(10, 0, 0, 1),
        Ipv4Addr::new(10, 0, 0, 2),
        Ipv4Addr::new(203, 0, 113, 1),
    ];
    let ports = [80u16, 443, 4000, 4001];
    let mut now_us: u64 = 0;
    let mut established_seen = 0u64;
    let steps = s.len_in(0, 64);
    for _ in 0..steps {
        now_us += s.range_u64(0, 2_000_000);
        if s.chance(1, 8) {
            let before = table.len();
            let evicted = table.sweep(SimTime(now_us));
            assert_eq!(
                before - table.len(),
                evicted,
                "sweep must report exactly the flows it removed"
            );
            continue;
        }
        let src = *s.pick(&hosts);
        let dst = *s.pick(&hosts);
        let mut h = TcpHeader::new(*s.pick(&ports), *s.pick(&ports), TcpFlags(s.below(0x40) as u8));
        h.seq = s.any_u32();
        h.ack = s.any_u32();
        let payload = s.bytes(0, 32);
        let pkt = Packet::tcp(src, dst, h, Bytes::from(payload));
        let before = table.len();
        let _ = table.observe(&pkt, SimTime(now_us));
        let after = table.len();
        assert!(
            after <= before + 1 && before <= after + 1,
            "one packet moved the flow count from {before} to {after}"
        );
        assert!(
            table.established_total >= established_seen,
            "established_total went backwards"
        );
        established_seen = table.established_total;
    }
}

/// The planted SUT respects its cap. Correct under default features;
/// fails (and must be found + shrunk) under `--features planted-bug`.
pub fn planted_cap_is_bounded(s: &mut Source) {
    let v = s.any_u64();
    let capped = planted::cap(v);
    assert!(
        capped <= planted::CAP,
        "planted::cap({v}) returned {capped}, above the cap {}",
        planted::CAP
    );
}

/// The devtools scrubbing lexer is total on arbitrary Rust-ish soup
/// and keeps its contract: output has the same byte length and the
/// same newline positions as the input, and `has_token` never panics.
pub fn lint_lexer_total(s: &mut Source) {
    let text = crate::rustish::soup(s);
    let scrubbed = lucent_devtools::lex::scrub(&text);
    assert_eq!(scrubbed.len(), text.len(), "scrub must preserve byte length");
    let newlines = |t: &str| -> Vec<usize> {
        t.bytes().enumerate().filter(|&(_, c)| c == b'\n').map(|(i, _)| i).collect()
    };
    assert_eq!(newlines(&scrubbed), newlines(&text), "scrub must preserve newline positions");
    let _ = lucent_devtools::lex::has_token(&scrubbed, "fn");
    let _ = lucent_devtools::lex::test_spans(&scrubbed);
}

/// Telemetry merge — the operation the profiler's thread-count
/// invariance claim rests on — is commutative and associative, and
/// conserves histogram buckets under shard splits: absorbing shard
/// dumps in any order or grouping yields a registry byte-identical to
/// one that recorded every sample directly, and the merged bucket
/// counts are the element-wise sum of the per-shard bucket counts.
pub fn obs_histogram_merge(s: &mut Source) {
    use lucent_obs::Telemetry;
    const METRIC: &str = "check.merge.dwell_us";
    const COUNTER: &str = "check.merge.samples";
    let k = s.len_in(2, 5);
    let n = s.len_in(0, 64);
    let samples: Vec<(usize, u64)> =
        (0..n).map(|_| (s.len_in(0, k - 1), s.range_u64(0, 30_000_000))).collect();
    let shard = |id: usize| -> Telemetry {
        let t = Telemetry::new();
        for &(sh, v) in &samples {
            if sh == id {
                t.histogram_record(METRIC, v);
                t.counter_inc(COUNTER, "all");
            }
        }
        t
    };
    let flat = Telemetry::new();
    for &(_, v) in &samples {
        flat.histogram_record(METRIC, v);
        flat.counter_inc(COUNTER, "all");
    }

    // Element-wise sum of the per-shard bucket counts, captured before
    // any dump is drained.
    let shards: Vec<Telemetry> = (0..k).map(shard).collect();
    let mut summed: Vec<u64> = Vec::new();
    for t in &shards {
        if let Some(buckets) = t.histogram_buckets(METRIC) {
            if summed.is_empty() {
                summed = vec![0; buckets.len()];
            }
            for (acc, b) in summed.iter_mut().zip(buckets) {
                *acc += b;
            }
        }
    }

    // Forward order, reverse order, and a grouped (associativity)
    // absorb through two intermediate hubs.
    let fwd = Telemetry::new();
    for t in &shards {
        fwd.absorb(t.drain_dump());
    }
    let rev = Telemetry::new();
    for t in (0..k).map(shard).collect::<Vec<_>>().iter().rev() {
        rev.absorb(t.drain_dump());
    }
    let split = s.len_in(0, k);
    let (left, right) = (Telemetry::new(), Telemetry::new());
    for (i, t) in (0..k).map(shard).enumerate() {
        if i < split { &left } else { &right }.absorb(t.drain_dump());
    }
    let grouped = Telemetry::new();
    grouped.absorb(left.drain_dump());
    grouped.absorb(right.drain_dump());

    let want = flat.metrics_snapshot_pretty();
    assert_eq!(fwd.metrics_snapshot_pretty(), want, "shard split changed the merged registry");
    assert_eq!(rev.metrics_snapshot_pretty(), want, "absorb order changed the merged registry");
    assert_eq!(grouped.metrics_snapshot_pretty(), want, "absorb grouping changed the merged registry");

    let merged = fwd.histogram_buckets(METRIC).unwrap_or_default();
    assert_eq!(merged, summed, "merged buckets must be the per-shard element-wise sum");
    let total: u64 = merged.iter().sum();
    assert_eq!(total, n as u64, "every sample must land in exactly one bucket");
}

/// The netsim calendar-queue scheduler pops in exactly the order a
/// reference binary heap does — the strict `(time, seq)` total order —
/// on random event streams with same-tick bursts, at-now injects and
/// far-future overflow timers, across random wheel geometries. This is
/// the scheduler-swap equivalence claim the deterministic profile
/// golden pins at the system level, checked here at the structure
/// level with tiny horizons so overflow and wheel wrap are hammered.
pub fn sched_matches_heap_model(s: &mut Source) {
    use lucent_netsim::{CalendarQueue, Scheduled};
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    let slot_log2 = s.len_in(0, 6) as u32;
    let slots = 1usize << s.len_in(2, 4); // 4..=16 buckets
    let mut q = CalendarQueue::with_geometry(slot_log2, slots);
    let mut model: BinaryHeap<Reverse<(u64, u64)>> = BinaryHeap::new();
    let mut seq = 0u64;
    let mut now = 0u64;
    let steps = s.len_in(1, 96);
    for _ in 0..steps {
        // Every tier must agree on the frontier before each operation.
        assert_eq!(
            q.next_at().map(|t| t.micros()),
            model.peek().map(|&Reverse((at, _))| at),
            "next_at diverged from the model's min"
        );
        if s.chance(3, 5) {
            // A burst of pushes relative to `now`, like a node callback.
            for _ in 0..s.len_in(1, 4) {
                let delta = match s.below(4) {
                    0 => 0,                                        // inject at now
                    1 => s.range_u64(0, 40),                       // same-tick burst
                    2 => s.range_u64(0, 1 << (slot_log2 + 3)),     // in-ring latency
                    _ => s.range_u64(180_000_000, 200_000_000),    // flow-timeout tail
                };
                let at = now + delta;
                q.schedule(Scheduled {
                    at: SimTime(at),
                    queued_at: SimTime(now),
                    seq,
                    payload: seq,
                });
                model.push(Reverse((at, seq)));
                seq += 1;
            }
        } else if s.chance(1, 2) {
            // Deadline-bounded pop — the `step_before` path.
            let deadline = now + s.range_u64(0, 1 << (slot_log2 + 4));
            let got = q.pop_next_before(SimTime(deadline)).map(|i| (i.at.micros(), i.seq));
            let want = match model.peek() {
                Some(&Reverse((at, sq))) if at <= deadline => {
                    model.pop();
                    Some((at, sq))
                }
                _ => None,
            };
            assert_eq!(got, want, "pop_next_before({deadline}) diverged");
            match got {
                Some((at, _)) => now = at,
                None => now = now.max(deadline), // the driver's clock advance
            }
        } else {
            let got = q.pop_next().map(|i| (i.at.micros(), i.seq));
            let want = model.pop().map(|Reverse(p)| p);
            assert_eq!(got, want, "pop_next diverged");
            if let Some((at, _)) = got {
                now = at;
            }
        }
        assert_eq!(q.len(), model.len(), "live-count drift");
    }
    // Drain the tail: order must agree to the very last item.
    loop {
        let got = q.pop_next().map(|i| (i.at.micros(), i.seq));
        let want = model.pop().map(|Reverse(p)| p);
        assert_eq!(got, want, "drain order diverged");
        if got.is_none() {
            break;
        }
    }
    assert_eq!(q.next_at(), None, "drained queue must have no frontier");
}

/// The netsim route table's indexed longest-prefix match agrees with a
/// linear scan of its routes, `filter(contains).max_by_key(len)` — the
/// lookup the index replaced, kept here only as the model — on random
/// tables with `/0` and `/32` routes, prefixes nested around a few
/// anchor addresses, re-added prefixes (the later route replaces the
/// earlier), ECMP routes, and the odd prefix built field by field with
/// host bits left set (which matches nothing). Every route gets next
/// hops no other route uses, so the interface a lookup returns names
/// the route it matched.
pub fn route_lookup_matches_linear_model(s: &mut Source) {
    use lucent_netsim::routing::{Cidr, RouteTable};
    use lucent_netsim::IfaceId;

    // Addresses near an anchor share its high bits, so prefixes nest.
    let anchors: Vec<u32> = (0..s.len_in(1, 4)).map(|_| s.any_u32()).collect();
    let near = |s: &mut Source| {
        let low = s.any_u32().checked_shr(s.range_u64(0, 32) as u32).unwrap_or(0);
        *s.pick(&anchors) ^ low
    };
    let mut table = RouteTable::new();
    let mut model: Vec<(Cidr, Vec<IfaceId>)> = Vec::new();
    let mut next_iface = 0u8;
    for _ in 0..s.len_in(0, 40) {
        let prefix = if !model.is_empty() && s.chance(1, 5) {
            s.pick(&model).0
        } else {
            let len = match s.below(4) {
                0 => 0,
                1 => 32,
                _ => s.range_u64(0, 32) as u8,
            };
            let addr = Ipv4Addr::from(near(s));
            if s.chance(1, 10) {
                Cidr { addr, len }
            } else {
                Cidr::new(addr, len)
            }
        };
        let ifaces: Vec<IfaceId> = (0..s.len_in(1, 3))
            .map(|_| {
                next_iface += 1;
                IfaceId(next_iface)
            })
            .collect();
        table.add_multi(prefix, ifaces.clone());
        match model.iter_mut().find(|(p, _)| *p == prefix) {
            Some(route) => route.1 = ifaces,
            None => model.push((prefix, ifaces)),
        }
    }
    let routes: Vec<(Cidr, Vec<IfaceId>)> = table.iter().cloned().collect();
    assert_eq!(routes, model, "route order or replacement diverged");
    for _ in 0..s.len_in(1, 24) {
        let dst = match s.below(3) {
            0 => s.ipv4(),
            1 if !model.is_empty() => s.pick(&model).0.addr,
            _ => Ipv4Addr::from(near(s)),
        };
        let src = s.ipv4();
        let want = model
            .iter()
            .filter(|(p, _)| p.contains(dst))
            .max_by_key(|(p, _)| p.len)
            .map(|(_, ifaces)| ifaces);
        let got = table.lookup_flow(src, dst);
        let agrees = match (got, want) {
            (None, None) => true,
            (Some(hop), Some(ifaces)) => ifaces.contains(&hop),
            _ => false,
        };
        assert!(agrees, "lookup_flow({src}, {dst}) = {got:?}, the linear model matched {want:?}");
        let first = want.and_then(|ifaces| ifaces.first().copied());
        assert_eq!(table.lookup(dst), first, "lookup({dst}) must take the first member");
    }
}

/// The declarative policy engine replays deterministically: a random
/// middlebox specification, rendered to policy TOML, compiled, and
/// instantiated as a [`lucent_middlebox::PolicyBox`], must render the
/// same transcript — packets, flow rows, metrics and event logs — from
/// two fresh rigs over the same random packet script (see
/// [`crate::diffmb`]). This is the invariant that makes the recorded
/// `tests/golden/mb-*.transcript` goldens a sound stand-in for the
/// retired hardcoded middleboxes.
pub fn policy_replay_deterministic(s: &mut Source) {
    let spec = crate::diffmb::diff_spec(s);
    let steps = crate::diffmb::diff_script(s, &spec);
    if let Err(e) = crate::diffmb::spec_self_diff(&spec, &steps) {
        std::panic::panic_any(e);
    }
}

/// The policy compiler is total and deterministic: it never panics —
/// not on Rust-ish token soup, not on arbitrary bytes, not on a
/// corrupted image of a valid policy — and compiling the same text
/// twice yields identical results (policies compare equal, errors
/// pin the same line and message). The same inputs go through the
/// lint's allowlist parser and manifest extraction, which share the
/// compiler's TOML reader.
pub fn policy_compile_total(s: &mut Source) {
    use lucent_middlebox::compile::compile;
    let text = match s.below(3) {
        0 => crate::rustish::soup(s),
        1 => String::from_utf8_lossy(&s.bytes(0, 400)).into_owned(),
        _ => {
            // Mutate a valid program: splice random bytes into the
            // rendered Airtel policy.
            let mut img = crate::diffmb::airtel_spec().policy_toml().into_bytes();
            for _ in 0..s.len_in(1, 8) {
                let at = s.len_in(0, img.len() - 1);
                img[at] = img[at].wrapping_add(s.below(255) as u8 + 1);
            }
            String::from_utf8_lossy(&img).into_owned()
        }
    };
    let first = compile(&text);
    let second = compile(&text);
    match (&first, &second) {
        (Ok(a), Ok(b)) => assert_eq!(a, b, "recompilation changed the policy"),
        (Err(a), Err(b)) => {
            assert_eq!((a.line, &a.msg), (b.line, &b.msg), "recompilation changed the error")
        }
        _ => std::panic::panic_any("recompilation flipped between Ok and Err".to_string()),
    }
    // The lint reads `lint-allow.toml` and the manifests with the same
    // TOML reader: both consumers must be total and deterministic too.
    let allow = || format!("{:?}", lucent_devtools::allow::Allow::parse(&text));
    assert_eq!(allow(), allow(), "re-reading the allowlist changed it");
    let manifest = || {
        let doc = lucent_support::toml::parse(&text);
        format!("{:?}", doc.map(|d| lucent_devtools::manifest::extract(&d, "Cargo.toml")))
    };
    assert_eq!(manifest(), manifest(), "re-reading the manifest changed it");
}

/// A named oracle, as listed by [`all`].
pub type NamedOracle = (&'static str, fn(&mut Source));

/// The full catalogue, in deterministic report order.
pub fn all() -> Vec<NamedOracle> {
    vec![
        ("checksum_split", checksum_split),
        ("ipv4_roundtrip", ipv4_roundtrip),
        ("ipv4_corruption_detected", ipv4_corruption_detected),
        ("tcp_roundtrip", tcp_roundtrip),
        ("udp_roundtrip", udp_roundtrip),
        ("icmp_roundtrip", icmp_roundtrip),
        ("full_packet_roundtrip", full_packet_roundtrip),
        ("parsers_survive_garbage", parsers_survive_garbage),
        ("parsers_survive_corruption", parsers_survive_corruption),
        ("dns_roundtrip", dns_roundtrip),
        ("http_roundtrips", http_roundtrips),
        ("tcb_arbitrary_segments_safe", tcb_arbitrary_segments_safe),
        ("flow_table_invariants", flow_table_invariants),
        ("planted_cap_is_bounded", planted_cap_is_bounded),
        ("lint_lexer_total", lint_lexer_total),
        ("obs_histogram_merge", obs_histogram_merge),
        ("sched_matches_heap_model", sched_matches_heap_model),
        ("route_lookup_matches_linear_model", route_lookup_matches_linear_model),
        ("policy_replay_deterministic", policy_replay_deterministic),
        ("policy_compile_total", policy_compile_total),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::{check, Config};

    #[test]
    fn the_catalogue_holds_at_a_fixed_seed() {
        for (name, oracle) in all() {
            if name == "planted_cap_is_bounded" && cfg!(feature = "planted-bug") {
                continue; // exercised by the planted-bug self-test instead
            }
            check(&Config::cases(48).with_seed(0xA11CE), oracle);
        }
    }
}
