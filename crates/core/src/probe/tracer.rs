//! Iterative Network Tracing (Figure 1): send censorship-triggering
//! messages with increasing IP TTL until the malicious network element
//! reveals itself.

use std::net::Ipv4Addr;

use lucent_netsim::NodeId;
use lucent_packet::http::RequestBuilder;
use lucent_packet::Packet;

use crate::lab::Lab;

/// What the client observed for one TTL rung.
#[derive(Debug, Clone, PartialEq)]
pub enum Rung {
    /// ICMP Time Exceeded from this router (None = silent/anonymized).
    IcmpExpired(Option<Ipv4Addr>),
    /// A censorship response (payload / FIN / RST forged from the
    /// destination) arrived even though the request could not have
    /// reached the destination.
    Censored {
        /// A notification payload was present (vs a bare RST).
        notice: bool,
    },
    /// A genuine destination response (TTL reached the server).
    ServerResponse,
    /// Nothing within the window.
    Silent,
}

/// Result of an HTTP trace toward one destination.
#[derive(Debug, Clone)]
pub struct HttpTrace {
    /// Observation per TTL (index 0 = TTL 1).
    pub rungs: Vec<Rung>,
    /// First TTL at which censorship appeared.
    pub censored_at_ttl: Option<u8>,
    /// Hop count to the destination (from plain traceroute).
    pub path_len: Option<u8>,
}

/// Run the Iterative Network Tracer with crafted HTTP GETs toward
/// `dst`, requesting `host_header` (§3.4-V).
///
/// Each rung uses a fresh raw connection (interceptive middleboxes
/// black-hole a flow after triggering) whose handshake runs at full TTL;
/// only the crafted GET is TTL-limited.
pub fn http_tracer(
    lab: &mut Lab,
    client: NodeId,
    dst: Ipv4Addr,
    host_header: &str,
    max_ttl: u8,
) -> HttpTrace {
    let path_len = lab.hops_to(client, dst, max_ttl);
    let limit = path_len.map(|n| n.saturating_add(1)).unwrap_or(max_ttl).min(max_ttl);
    let request = RequestBuilder::browser(host_header, "/").build();
    let mut rungs = Vec::new();
    let mut censored_at_ttl = None;
    for ttl in 1..=limit {
        let Some(reply) = lab.crafted(client, dst, &request, Some(ttl), 700) else {
            rungs.push(Rung::Silent);
            continue;
        };
        // Injected packets forge the destination as source, so source
        // filtering cannot help; what gives the middlebox away is a TCP
        // answer to a request whose TTL could not have reached the
        // destination.
        let below_dst = path_len.is_some_and(|n| ttl < n);
        let rung = match reply.first_answer().and_then(Packet::as_tcp) {
            Some((_, payload)) if below_dst => Rung::Censored { notice: !payload.is_empty() },
            Some(_) => Rung::ServerResponse,
            None => reply.expired_at.map_or(Rung::Silent, |router| Rung::IcmpExpired(Some(router))),
        };
        let located = matches!(rung, Rung::Censored { .. });
        rungs.push(rung);
        if located {
            censored_at_ttl = Some(ttl);
            break; // located — the paper stops here too
        }
    }
    HttpTrace { rungs, censored_at_ttl, path_len }
}

/// The DNS mechanism question (§3.2-III): poisoned resolver or on-path
/// injector?
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DnsMechanism {
    /// Manipulated answers only from the final hop: the resolver itself.
    Poisoning,
    /// Manipulated answer from an earlier hop.
    Injection {
        /// The TTL at which the forged answer appeared.
        at_ttl: u8,
    },
    /// No manipulated answer observed at all.
    NotCensored,
}

impl DnsMechanism {
    /// The verdict on a manipulated answer drawn by a query sent at
    /// `ttl`: a query that reached the resolver (`ttl` ≥ `path_len`, or
    /// the path length is unknown) means poisoning; one that expired on
    /// the way means an on-path injector.
    pub fn manipulated_at(ttl: u8, path_len: Option<u8>) -> Self {
        if path_len.is_none_or(|n| ttl >= n) {
            DnsMechanism::Poisoning
        } else {
            DnsMechanism::Injection { at_ttl: ttl }
        }
    }
}

/// Run the DNS variant of the tracer: the query for `domain` is sent to
/// `resolver` with increasing TTL; a manipulated answer arriving while
/// the query cannot yet have reached the resolver betrays an injector.
pub fn dns_tracer(
    lab: &mut Lab,
    client: NodeId,
    resolver: Ipv4Addr,
    domain: &str,
    manipulated: impl Fn(&[Ipv4Addr]) -> bool,
    max_ttl: u8,
) -> DnsMechanism {
    let path_len = lab.hops_to(client, resolver, max_ttl);
    let limit = path_len.unwrap_or(max_ttl).min(max_ttl);
    for ttl in 1..=limit {
        let out = lab.resolve_ttl(client, resolver, domain, Some(ttl));
        for resp in &out.responses {
            if manipulated(&resp.a_records()) {
                return DnsMechanism::manipulated_at(ttl, path_len);
            }
        }
    }
    DnsMechanism::NotCensored
}

#[cfg(test)]
mod tests {
    use super::*;
    use lucent_topology::{India, IndiaConfig, IspId};
    use crate::probe::classify::censored_sites;
    use lucent_web::Site;

    fn lab() -> Lab {
        Lab::new(India::build(IndiaConfig::tiny()))
    }

    #[test]
    fn tracer_locates_interceptive_middlebox_in_idea() {
        let mut lab = lab();
        let site = censored_sites(&mut lab, IspId::Idea, 1, Site::is_alive)
            .into_iter()
            .next()
            .expect("a blocked path in Idea");
        let s = lab.india.corpus.site(site);
        let (domain, ip) = (s.domain.clone(), s.replicas[0]);
        let client = lab.client_of(IspId::Idea);
        let trace = http_tracer(&mut lab, client, ip, &domain, 24);
        let at = trace.censored_at_ttl.expect("censorship located");
        let n = trace.path_len.expect("path measured");
        assert!(at < n, "middlebox strictly before the destination: {trace:?}");
        // The Idea IM sits on the gateway↔core link: leaf is hop 1, the
        // core hop 2, so the trigger appears by TTL 3.
        assert!(at <= 3, "{trace:?}");
    }

    #[test]
    fn tracer_sees_only_icmp_for_unblocked_host() {
        let mut lab = lab();
        let client = lab.client_of(IspId::Idea);
        let site = lab
            .india
            .corpus
            .popular
            .iter()
            .map(|&s| lab.india.corpus.site(s))
            .find(|s| s.is_alive())
            .unwrap();
        let ip = site.replicas[0];
        let trace = http_tracer(&mut lab, client, ip, "definitely-not-blocked.example", 24);
        assert!(trace.censored_at_ttl.is_none(), "{trace:?}");
        // Every rung strictly before the destination is ICMP or silent
        // (anonymized cores); at and past the destination the server
        // itself answers.
        let n = usize::from(trace.path_len.expect("path measured"));
        for rung in &trace.rungs[..n - 1] {
            assert!(
                matches!(rung, Rung::IcmpExpired(_) | Rung::Silent),
                "{trace:?}"
            );
        }
        for rung in &trace.rungs[n - 1..] {
            assert_eq!(*rung, Rung::ServerResponse, "{trace:?}");
        }
    }

    #[test]
    fn dns_tracer_reports_poisoning_in_mtnl() {
        let mut lab = lab();
        let client = lab.client_of(IspId::Mtnl);
        let (resolver, blocklist) = lab.india.truth.dns_resolvers[&IspId::Mtnl]
            .iter()
            .find(|(_, bl)| !bl.is_empty())
            .cloned()
            .expect("a poisoned resolver with sites");
        let site = *blocklist.iter().next().unwrap();
        let domain = lab.india.corpus.site(site).domain.clone();
        let notice_ip = lab.india.isps[&IspId::Mtnl].notice_ip;
        let prefix = lab.india.isps[&IspId::Mtnl].prefix;
        let mech = dns_tracer(
            &mut lab,
            client,
            resolver,
            &domain,
            |ips| ips.iter().any(|&ip| ip == notice_ip || prefix.contains(ip) || lucent_packet::ipv4::is_bogon(ip)),
            24,
        );
        assert_eq!(mech, DnsMechanism::Poisoning);
    }
}

lucent_support::json_object!(HttpTrace { rungs, censored_at_ttl, path_len });

impl lucent_support::ToJson for Rung {
    fn to_json(&self) -> lucent_support::Json {
        use lucent_support::Json;
        // Externally tagged, matching serde's default enum representation.
        match self {
            Rung::IcmpExpired(router) => {
                Json::Obj(vec![("IcmpExpired".to_string(), router.to_json())])
            }
            Rung::Censored { notice } => Json::Obj(vec![(
                "Censored".to_string(),
                Json::Obj(vec![("notice".to_string(), notice.to_json())]),
            )]),
            Rung::ServerResponse => Json::Str("ServerResponse".to_string()),
            Rung::Silent => Json::Str("Silent".to_string()),
        }
    }
}

impl lucent_support::ToJson for DnsMechanism {
    fn to_json(&self) -> lucent_support::Json {
        use lucent_support::Json;
        match self {
            DnsMechanism::Poisoning => Json::Str("Poisoning".to_string()),
            DnsMechanism::Injection { at_ttl } => Json::Obj(vec![(
                "Injection".to_string(),
                Json::Obj(vec![("at_ttl".to_string(), at_ttl.to_json())]),
            )]),
            DnsMechanism::NotCensored => Json::Str("NotCensored".to_string()),
        }
    }
}
