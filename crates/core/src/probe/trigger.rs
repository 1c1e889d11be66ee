//! What triggers the middleboxes (§3.4-III/IV) and how stateful they are
//! (§4.2.1 "Caveat"): the TTL-twin experiment, Host-field fudging, and
//! the handshake ladder.

use std::net::Ipv4Addr;

use lucent_netsim::NodeId;
use lucent_packet::http::RequestBuilder;
use lucent_packet::tcp::TcpFlags;

use crate::lab::Lab;

/// Observation window after each crafted request.
const WINDOW_MS: u64 = 800;

/// Did a crafted `request` at `ttl` draw any answer? A failed handshake
/// counts as none. Below the destination only a middlebox can answer;
/// the twin experiment's TTL-n rung reports the same any-answer test.
fn answered(lab: &mut Lab, client: NodeId, dst: Ipv4Addr, request: &[u8], ttl: u8) -> bool {
    lab.crafted(client, dst, request, Some(ttl), WINDOW_MS).is_some_and(|r| r.answered())
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
    let req = RequestBuilder::browser(blocked_domain, "/").build();
    let censored_short = answered(lab, client, dst, &req, n - 1);
    let censored_full = answered(lab, client, dst, &req, n);
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
    let penultimate = lab.hops_to(client, dst, 30)? - 1;
    let mut run = |req: Vec<u8>| answered(lab, client, dst, &req, penultimate);
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
    let penultimate = lab.hops_to(client, dst, 30)? - 1;
    let req = RequestBuilder::browser(blocked_domain, "/").build();

    // Baseline: full handshake, TTL-limited GET (so only the middlebox
    // can answer).
    let full_handshake = lab.crafted(client, dst, &req, Some(penultimate), WINDOW_MS)?.answered();

    // SYN never answered (TTL-limited), then the GET.
    let syn_only = {
        let conn = lab.raw_connect(client, dst, Some(penultimate));
        debug_assert!(!conn.established);
        lab.raw_request(conn, &req, Some(penultimate), WINDOW_MS).answered()
    };

    // A bare SYN+ACK opener (no SYN ever), then the GET.
    let syn_ack_first = {
        let mut conn = lab.raw_unopened(client, dst, 0x4000_0000, 0x1111_1111);
        lab.raw_segment(&conn, TcpFlags::SYN | TcpFlags::ACK, Some(penultimate));
        conn.seq += 1;
        lab.run_ms(50);
        lab.raw_request(conn, &req, Some(penultimate), WINDOW_MS).answered()
    };

    // No handshake at all.
    let no_handshake = {
        let conn = lab.raw_unopened(client, dst, 0x5000_0000, 0x2222_2222);
        lab.raw_request(conn, &req, Some(penultimate), WINDOW_MS).answered()
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
    let penultimate = lab.hops_to(client, dst, 30)? - 1;
    let req = RequestBuilder::browser(blocked_domain, "/").build();

    // Plain idle: handshake, wait, GET.
    let conn = lab.raw_open(client, dst)?;
    lab.run_ms(idle_secs * 1_000);
    let after_idle = lab.raw_request(conn, &req, Some(penultimate), WINDOW_MS).answered();

    // Refreshed: send a keep-alive ACK halfway through the idle period.
    let conn = lab.raw_open(client, dst)?;
    lab.run_ms(idle_secs * 500);
    lab.raw_segment(&conn, TcpFlags::ACK, None);
    lab.run_ms(idle_secs * 500);
    let after_refresh = lab.raw_request(conn, &req, Some(penultimate), WINDOW_MS).answered();

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
