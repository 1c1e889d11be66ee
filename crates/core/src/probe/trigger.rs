//! What triggers the middleboxes (§3.4-III/IV) and how stateful they are
//! (§4.2.1 "Caveat"): the TTL-twin experiment, Host-field fudging, and
//! the handshake ladder.

use std::net::Ipv4Addr;


use lucent_netsim::NodeId;
use lucent_packet::http::RequestBuilder;
use lucent_packet::tcp::{TcpFlags, TcpHeader};
use lucent_packet::Packet;

use crate::lab::Lab;

/// Did a crafted request draw a censorship response in the window?
fn censored(packets: &[Packet]) -> bool {
    packets.iter().any(|p| {
        p.as_tcp()
            .map(|(h, payload)| h.flags.contains(TcpFlags::RST) || !payload.is_empty())
            .unwrap_or(false)
    })
}

/// §3.4-III: the request-vs-response discrimination experiment.
#[derive(Debug, Clone)]
pub struct TwinResult {
    /// Hops to the destination.
    pub path_len: u8,
    /// Censorship for the TTL n−1 request (which cannot reach the site).
    pub censored_short: bool,
    /// Censorship for the TTL n request.
    pub censored_full: bool,
}

impl TwinResult {
    /// "Possibility 2" (middlebox inspects only responses) requires the
    /// short request to be clean; observing censorship on it rules that
    /// out (§3.4-III).
    pub fn rules_out_response_inspection(&self) -> bool {
        self.censored_short
    }
}

/// Run the twin experiment toward `dst` for `blocked_domain`. Each rung
/// uses a fresh connection (interceptive devices black-hole flows).
pub fn ttl_twin(lab: &mut Lab, client: NodeId, dst: Ipv4Addr, blocked_domain: &str) -> Option<TwinResult> {
    let n = lab.hops_to(client, dst, 30)?;
    let mut run = |ttl: u8| -> bool {
        let mut conn = lab.raw_connect(client, dst, 80, None);
        if !conn.established {
            return false;
        }
        let req = RequestBuilder::browser(blocked_domain, "/").build();
        lab.raw_send(&mut conn, &req, Some(ttl));
        let got = censored(&lab.raw_observe(&mut conn, 800));
        lab.raw_close(&conn);
        got
    };
    let censored_short = run(n - 1);
    let censored_full = run(n);
    Some(TwinResult { path_len: n, censored_short, censored_full })
}

/// §3.4-IV: confirm the trigger is the `Host` field and nothing else.
#[derive(Debug, Clone)]
pub struct HostFieldResult {
    /// Blocked domain in `Host` (TTL-limited to the penultimate hop) —
    /// must be censored.
    pub host_blocked: bool,
    /// Blocked domain fudged into the path and a random header, `Host`
    /// pointing at an allowed site — must NOT be censored.
    pub domain_elsewhere: bool,
    /// Allowed domain everywhere (control) — must not be censored.
    pub control: bool,
}

/// Run the Host-field experiment.
pub fn host_field_only(
    lab: &mut Lab,
    client: NodeId,
    dst: Ipv4Addr,
    blocked_domain: &str,
    allowed_domain: &str,
) -> Option<HostFieldResult> {
    let n = lab.hops_to(client, dst, 30)?;
    let penultimate = n - 1;
    let mut run = |req: Vec<u8>| -> bool {
        let mut conn = lab.raw_connect(client, dst, 80, None);
        if !conn.established {
            return false;
        }
        lab.raw_send(&mut conn, &req, Some(penultimate));
        let got = censored(&lab.raw_observe(&mut conn, 800));
        lab.raw_close(&conn);
        got
    };
    let host_blocked = run(RequestBuilder::browser(blocked_domain, "/").build());
    let domain_elsewhere = run(
        RequestBuilder::get(&format!("/{blocked_domain}/index.html"))
            .header("Host", allowed_domain)
            .header("X-Original-Site", blocked_domain)
            .build(),
    );
    let control = run(RequestBuilder::browser(allowed_domain, "/").build());
    Some(HostFieldResult { host_blocked, domain_elsewhere, control })
}

/// §4.2.1 "Caveat": the statefulness ladder.
#[derive(Debug, Clone)]
pub struct StatefulLadder {
    /// Full handshake + GET → censored (the baseline).
    pub full_handshake: bool,
    /// TTL-limited SYN (never answered) + GET → censored?
    pub syn_only: bool,
    /// Leading SYN+ACK instead of SYN, then GET → censored?
    pub syn_ack_first: bool,
    /// GET with no preceding handshake at all → censored?
    pub no_handshake: bool,
}

impl StatefulLadder {
    /// The paper's conclusion: only the full handshake triggers.
    pub fn is_stateful(&self) -> bool {
        self.full_handshake && !self.syn_only && !self.syn_ack_first && !self.no_handshake
    }
}

/// Run the ladder toward `dst` with `blocked_domain`.
pub fn stateful_ladder(
    lab: &mut Lab,
    client: NodeId,
    dst: Ipv4Addr,
    blocked_domain: &str,
) -> Option<StatefulLadder> {
    let n = lab.hops_to(client, dst, 30)?;
    let penultimate = n - 1;
    let req = RequestBuilder::browser(blocked_domain, "/").build();
    let client_ip = lab
        .india
        .net
        .node_ref::<lucent_tcp::TcpHost>(client)
        .map(|h| h.ip)
        .unwrap_or(std::net::Ipv4Addr::UNSPECIFIED);

    // Baseline: full handshake, TTL-limited GET (so only the middlebox
    // can answer).
    let full_handshake = {
        let mut conn = lab.raw_connect(client, dst, 80, None);
        if !conn.established {
            return None;
        }
        lab.raw_send(&mut conn, &req, Some(penultimate));
        let got = censored(&lab.raw_observe(&mut conn, 800));
        lab.raw_close(&conn);
        got
    };

    // SYN never answered (TTL-limited), then the GET.
    let syn_only = {
        let mut conn = lab.raw_connect(client, dst, 80, Some(penultimate));
        debug_assert!(!conn.established);
        lab.raw_send(&mut conn, &req, Some(penultimate));
        let got = censored(&lab.raw_observe(&mut conn, 800));
        lab.raw_close(&conn);
        got
    };

    // A bare SYN+ACK opener (no SYN ever), then the GET.
    let syn_ack_first = {
        let port = match lab.india.net.node_mut::<lucent_tcp::TcpHost>(client) {
            Some(host) => {
                let port = host.alloc_port();
                host.raw_claim_port(port);
                let mut synack = TcpHeader::new(port, 80, TcpFlags::SYN | TcpFlags::ACK);
                synack.seq = 0x4000_0000;
                synack.ack = 0x1111_1111;
                let mut pkt = Packet::tcp(client_ip, dst, synack, lucent_support::Bytes::new());
                pkt.ip.ttl = penultimate;
                host.raw_send(pkt);
                port
            }
            // No host: nothing goes on the wire and the observation
            // window below stays silent.
            None => 0,
        };
        let mut conn = crate::lab::RawConn {
            client,
            client_ip,
            local_port: port,
            dst,
            dst_port: 80,
            seq: 0x4000_0001,
            ack: 0x1111_1111,
            established: false,
        };
        lab.india.net.wake(client);
        lab.run_ms(50);
        lab.raw_send(&mut conn, &req, Some(penultimate));
        let got = censored(&lab.raw_observe(&mut conn, 800));
        lab.raw_close(&conn);
        got
    };

    // No handshake at all.
    let no_handshake = {
        let port = match lab.india.net.node_mut::<lucent_tcp::TcpHost>(client) {
            Some(host) => {
                let port = host.alloc_port();
                host.raw_claim_port(port);
                port
            }
            None => 0,
        };
        let mut conn = crate::lab::RawConn {
            client,
            client_ip,
            local_port: port,
            dst,
            dst_port: 80,
            seq: 0x5000_0000,
            ack: 0x2222_2222,
            established: false,
        };
        lab.raw_send(&mut conn, &req, Some(penultimate));
        let got = censored(&lab.raw_observe(&mut conn, 800));
        lab.raw_close(&conn);
        got
    };

    Some(StatefulLadder { full_handshake, syn_only, syn_ack_first, no_handshake })
}

/// §6.3: flow-state lifetime. Returns (censored after plain idle,
/// censored after idle with keep-alive refreshes).
pub fn timeout_probe(
    lab: &mut Lab,
    client: NodeId,
    dst: Ipv4Addr,
    blocked_domain: &str,
    idle_secs: u64,
) -> Option<(bool, bool)> {
    let n = lab.hops_to(client, dst, 30)?;
    let penultimate = n - 1;
    let req = RequestBuilder::browser(blocked_domain, "/").build();

    // Plain idle: handshake, wait, GET.
    let after_idle = {
        let mut conn = lab.raw_connect(client, dst, 80, None);
        if !conn.established {
            return None;
        }
        lab.run_ms(idle_secs * 1_000);
        lab.raw_send(&mut conn, &req, Some(penultimate));
        let got = censored(&lab.raw_observe(&mut conn, 800));
        lab.raw_close(&conn);
        got
    };

    // Refreshed: send a keep-alive ACK halfway through the idle period.
    let after_refresh = {
        let mut conn = lab.raw_connect(client, dst, 80, None);
        if !conn.established {
            return None;
        }
        lab.run_ms(idle_secs * 500);
        let mut ka = TcpHeader::new(conn.local_port, 80, TcpFlags::ACK);
        ka.seq = conn.seq;
        ka.ack = conn.ack;
        lab.raw_packet(client, Packet::tcp(conn.client_ip, dst, ka, lucent_support::Bytes::new()));
        lab.run_ms(idle_secs * 500);
        lab.raw_send(&mut conn, &req, Some(penultimate));
        let got = censored(&lab.raw_observe(&mut conn, 800));
        lab.raw_close(&conn);
        got
    };

    Some((after_idle, after_refresh))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::probe::classify::censored_sites;
    use lucent_topology::{India, IndiaConfig, IspId};
    use lucent_web::Site;

    #[test]
    fn twin_experiment_rules_out_response_inspection() {
        let mut lab = Lab::new(India::build(IndiaConfig::tiny()));
        let site = censored_sites(&mut lab, IspId::Idea, 1, Site::is_alive)[0];
        let s = lab.india.corpus.site(site);
        let (domain, ip) = (s.domain.clone(), s.replicas[0]);
        let client = lab.client_of(IspId::Idea);
        let twin = ttl_twin(&mut lab, client, ip, &domain).expect("path measurable");
        assert!(twin.censored_short, "{twin:?}");
        assert!(twin.censored_full, "{twin:?}");
        assert!(twin.rules_out_response_inspection());
    }

    #[test]
    fn only_the_host_field_triggers() {
        let mut lab = Lab::new(India::build(IndiaConfig::tiny()));
        let site = censored_sites(&mut lab, IspId::Idea, 1, Site::is_alive)[0];
        let s = lab.india.corpus.site(site);
        let (domain, ip) = (s.domain.clone(), s.replicas[0]);
        let allowed = lab.india.corpus.site(lab.india.corpus.popular[0]).domain.clone();
        let client = lab.client_of(IspId::Idea);
        let res = host_field_only(&mut lab, client, ip, &domain, &allowed).unwrap();
        assert!(res.host_blocked, "{res:?}");
        assert!(!res.domain_elsewhere, "{res:?}");
        assert!(!res.control, "{res:?}");
    }

    #[test]
    fn middleboxes_are_stateful() {
        let mut lab = Lab::new(India::build(IndiaConfig::tiny()));
        let site = censored_sites(&mut lab, IspId::Idea, 1, Site::is_alive)[0];
        let s = lab.india.corpus.site(site);
        let (domain, ip) = (s.domain.clone(), s.replicas[0]);
        let client = lab.client_of(IspId::Idea);
        let ladder = stateful_ladder(&mut lab, client, ip, &domain).unwrap();
        assert!(ladder.is_stateful(), "{ladder:?}");
    }

    #[test]
    fn flow_state_times_out_but_refreshes() {
        let mut lab = Lab::new(India::build(IndiaConfig::tiny()));
        let site = censored_sites(&mut lab, IspId::Idea, 1, Site::is_alive)[0];
        let s = lab.india.corpus.site(site);
        let (domain, ip) = (s.domain.clone(), s.replicas[0]);
        let client = lab.client_of(IspId::Idea);
        // 150 s timeout: idle 200 s kills state; refresh at 100 s keeps it.
        let (after_idle, after_refresh) =
            timeout_probe(&mut lab, client, ip, &domain, 200).unwrap();
        assert!(!after_idle, "state should have been purged");
        assert!(after_refresh, "keep-alive should have refreshed the state");
    }
}

lucent_support::json_object!(TwinResult { path_len, censored_short, censored_full });
lucent_support::json_object!(HostFieldResult { host_blocked, domain_elsewhere, control });
lucent_support::json_object!(StatefulLadder { full_handshake, syn_only, syn_ack_first, no_handshake });
