//! Metamorphic simulation invariants, run through the *real* simulation
//! stack rather than unit fixtures:
//!
//! - **Header-permutation invariance** (paper §5: middleboxes trigger
//!   solely on the `Host` header) — a request's censorship verdict must
//!   not change when censorship-irrelevant headers are added, renamed or
//!   reordered. Checked at the matcher level, the blocklist level, and
//!   end-to-end through a client–router–server rig with a live
//!   policy-interpreted wiretap ([`PolicyBox`]) on a mirror port.
//! - **Blocklist monotonicity** — growing a blocklist can only grow the
//!   set of censored domains, never unblock one.

use std::net::Ipv4Addr;

use lucent_middlebox::notice::looks_like_notice;
use lucent_middlebox::compile::compile;
use lucent_middlebox::{HostMatcher, Instance, PolicyBox};
use lucent_netsim::routing::Cidr;
use lucent_netsim::{IfaceId, Network, NodeId, RouterNode, SimDuration};
use lucent_packet::http::RequestBuilder;
use lucent_packet::HttpResponse;
use lucent_tcp::{FixedResponder, TcpHost};

use crate::packets;
use crate::source::Source;

const MATCHERS: [HostMatcher; 3] =
    [HostMatcher::ExactToken, HostMatcher::StrictPattern, HostMatcher::LastHost];

/// Unwrap an `Option`; a miss aborts the case.
#[expect(clippy::panic, reason = "a failed property aborts its case")]
fn must<T>(v: Option<T>, what: &str) -> T {
    match v {
        Some(x) => x,
        None => panic!("{what}: unexpectedly absent"),
    }
}

/// A request carrying the same `Host` and request line as the canonical
/// browser request, but with 0–5 arbitrary innocuous (`x-…`) headers
/// shuffled around it — the censorship-irrelevant permutation of §5.
pub fn permuted_request(s: &mut Source, host: &str, path: &str) -> Vec<u8> {
    let mut headers: Vec<(String, String)> = vec![("Host".to_string(), host.to_string())];
    let extras = s.len_in(0, 5);
    for i in 0..extras {
        // `x-` prefixed names can never collide with any matcher's idea
        // of a Host line; values stay on their own line so they cannot
        // either.
        let name = format!("x-{}-{i}", s.string(packets::ALNUM_LOWER, 1, 8));
        let value = s.string("abcdefghijklmnopqrstuvwxyz0123456789._-", 0, 12);
        headers.push((name, value));
    }
    s.shuffle(&mut headers);
    let mut b = RequestBuilder::get(path);
    for (name, value) in &headers {
        b = b.header(name, value);
    }
    b.build()
}

/// Matcher- and blocklist-level §5 invariance: every matcher extracts
/// the same domain from the canonical and the permuted request, and any
/// matcher over a device blocklist reaches the same verdict on both.
pub fn header_permutation_verdicts(s: &mut Source) {
    let host = packets::host_name(s);
    let path = packets::url_path(s);
    let canonical = RequestBuilder::browser(&host, &path).build();
    let permuted = permuted_request(s, &host, &path);
    for m in MATCHERS {
        let a = m.extract(&canonical);
        let b = m.extract(&permuted);
        assert_eq!(a, b, "{m:?} changed its extraction under header permutation");
        assert_eq!(a.as_deref(), Some(host.as_str()), "{m:?} must see the host");
    }
    let blocked = s.any_bool();
    let target = if blocked { host.clone() } else { format!("not-{host}") };
    let inst = Instance::of([target], None, 0);
    let matcher = *s.pick(&MATCHERS);
    let verdict =
        |req: &[u8]| matcher.extract(req).is_some_and(|d| inst.blocklist.contains(&d));
    assert_eq!(
        verdict(&canonical),
        verdict(&permuted),
        "verdict changed under header permutation ({matcher:?})"
    );
    assert_eq!(verdict(&canonical), blocked);
}

/// Blocklist monotonicity: `d ∈ B` implies `d ∈ B ∪ {x}` for every
/// extra domain `x`, over the lowercased device blocklist.
pub fn blocklist_monotonicity(s: &mut Source) {
    let n = s.len_in(1, 4);
    let base: Vec<String> = (0..n).map(|_| packets::dns_name(s)).collect();
    let extra = packets::dns_name(s);
    let probe = if s.any_bool() {
        base[s.len_in(0, n - 1)].clone()
    } else {
        packets::dns_name(s)
    };
    let small = Instance::of(base.clone(), None, 0).blocklist;
    let big = Instance::of(base.into_iter().chain([extra.clone()]), None, 0).blocklist;
    if small.contains(&probe) {
        assert!(big.contains(&probe), "adding {extra:?} to the blocklist unblocked {probe:?}");
    }
    assert!(big.contains(&extra), "a listed domain must be blocked");
}

const CLIENT: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 2);
const SERVER: Ipv4Addr = Ipv4Addr::new(203, 0, 113, 2);

struct Rig {
    net: Network,
    client: NodeId,
    wm: NodeId,
}

/// Airtel's committed rule without its slow tail, so the injection
/// always wins the rig's race.
const RIG_POLICY: &str = r#"
[policy]
name = "rig-wm"
family = "wiretap"

[[rule]]
trigger = "host-header"
matcher = "exact-token"
action = ["inject-notice", "inject-rst"]
notice = "airtel"
ip_id = 242
delay_us = { lo = 300, hi = 900 }
"#;

/// client — router (mirror → WM) — server, with the server 30 ms away so
/// the wiretap's injection deterministically wins the race. The device
/// is a [`PolicyBox`] running [`RIG_POLICY`] over `blocklist`.
fn build_rig(blocklist: &[String]) -> Rig {
    let mut net = Network::new();
    let client = net.add_node(Box::new(TcpHost::new(CLIENT, "client", 1)));
    let mut server_host = TcpHost::new(SERVER, "server", 2);
    server_host.listen(80, move || {
        Box::new(FixedResponder::new(
            HttpResponse::new(
                200,
                "OK",
                b"<html><head><title>Real</title></head><body>content</body></html>".to_vec(),
            )
            .emit(),
        ))
    });
    let server = net.add_node(Box::new(server_host));
    let mut r = RouterNode::new(Ipv4Addr::new(10, 0, 0, 1), "r");
    r.table.add(Cidr::new(CLIENT, 24), IfaceId(0));
    r.table.add(Cidr::new(SERVER, 24), IfaceId(1));
    r.mirrors.push(IfaceId(2));
    let r = net.add_node(Box::new(r));
    let policy = must(compile(RIG_POLICY).ok(), "rig policy");
    let inst = Instance::of(blocklist.iter().cloned(), None, 0);
    let wm = net.add_node(Box::new(PolicyBox::new(policy, inst, "wm")));
    net.connect(client, IfaceId::PRIMARY, r, IfaceId(0), SimDuration::from_millis(1));
    net.connect(r, IfaceId(1), server, IfaceId::PRIMARY, SimDuration::from_millis(31));
    net.connect(r, IfaceId(2), wm, IfaceId::PRIMARY, SimDuration::from_micros(80));
    Rig { net, client, wm }
}

/// Open a connection, send `request` verbatim, and return what the
/// client ends up receiving.
fn fetch_raw(rig: &mut Rig, request: &[u8]) -> Vec<u8> {
    let sock = must(rig.net.node_mut::<TcpHost>(rig.client), "client node").connect(SERVER, 80);
    rig.net.wake(rig.client);
    rig.net.run_for(SimDuration::from_millis(100));
    must(rig.net.node_mut::<TcpHost>(rig.client), "client node").send(sock, request);
    rig.net.wake(rig.client);
    rig.net.run_for(SimDuration::from_millis(2000));
    must(rig.net.node_mut::<TcpHost>(rig.client), "client node").take_received(sock)
}

fn injections(rig: &Rig) -> u64 {
    must(rig.net.node_ref::<PolicyBox>(rig.wm), "wm node").triggers
}

/// End-to-end §5 invariance and monotonicity through a live wiretap
/// middlebox: the injection count and the client-visible outcome
/// (notice page vs real content) are identical for the canonical and
/// permuted request, and growing the blocklist never changes a blocked
/// domain's fate.
pub fn wiretap_verdicts_are_header_invariant(s: &mut Source) {
    let host = packets::host_name(s);
    let path = packets::url_path(s);
    let blocked = s.any_bool();
    let target = if blocked { host.clone() } else { format!("not-{host}") };
    let canonical = RequestBuilder::browser(&host, &path).build();
    let permuted = permuted_request(s, &host, &path);
    let extra = packets::dns_name(s);

    let observe = |blocklist: &[String], req: &[u8]| {
        let mut rig = build_rig(blocklist);
        let got = fetch_raw(&mut rig, req);
        let notice = HttpResponse::parse(&got).ok().map(|r| looks_like_notice(&r));
        (injections(&rig), notice)
    };

    let (inj_canon, notice_canon) = observe(std::slice::from_ref(&target), &canonical);
    let (inj_perm, notice_perm) = observe(std::slice::from_ref(&target), &permuted);
    assert_eq!(inj_canon, inj_perm, "injection count changed under header permutation");
    assert_eq!(notice_canon, notice_perm, "client outcome changed under header permutation");
    assert_eq!(inj_canon > 0, blocked, "the wiretap fired iff the host was listed");
    assert_eq!(notice_canon, Some(blocked), "the client saw the notice iff blocked");

    let (inj_big, notice_big) = observe(&[target, format!("extra-{extra}")], &canonical);
    assert_eq!(inj_big, inj_canon, "growing the blocklist changed the injection count");
    assert_eq!(notice_big, notice_canon, "growing the blocklist changed the outcome");
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::{check, Config};

    #[test]
    fn matcher_and_config_verdicts_ignore_innocuous_headers() {
        check(&Config::cases(96), header_permutation_verdicts);
    }

    #[test]
    fn blocklists_are_monotone() {
        check(&Config::cases(96), blocklist_monotonicity);
    }

    #[test]
    fn the_live_wiretap_rig_is_permutation_invariant() {
        check(&Config::cases(6), wiretap_verdicts_are_header_invariant);
    }
}
