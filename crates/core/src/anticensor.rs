//! The anti-censorship techniques of Section 5 and their evaluation.
//!
//! None of them relies on third-party infrastructure (proxies, VPNs,
//! Tor): they either craft requests the middlebox misparses but the
//! server accepts, or filter the middlebox's injected packets at the
//! client.

use std::net::Ipv4Addr;

use lucent_middlebox::notice::looks_like_notice;
use lucent_netsim::NodeId;
use lucent_packet::http::RequestBuilder;
use lucent_packet::tcp::TcpFlags;
use lucent_packet::HttpResponse;
use lucent_tcp::{FilterRule, SocketEvent, SocketId, TcpState};
use lucent_topology::IspId;
use lucent_web::SiteId;

use crate::lab::{Lab, FETCH_TIMEOUT_MS};

/// An evasion technique.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Technique {
    /// Change the case of the `Host` keyword (`HOst:`).
    HostKeywordCase,
    /// Extra space between `Host:` and the value.
    ExtraSpaceBeforeValue,
    /// A tab instead of the single space.
    TabBeforeValue,
    /// Trailing whitespace after the domain.
    TrailingSpace,
    /// Prefix the domain with `www.`.
    PrependWww,
    /// Append a decoy `Host: allowed` after the request terminator
    /// (covert-IM evasion).
    DuplicateHostDecoy,
    /// Split the GET across two TCP segments.
    SegmentedRequest,
    /// Use an `HTTP/2.0` version token.
    Http2Version,
    /// Drop FIN/RST packets whose IP-ID is the middlebox signature
    /// (Airtel's 242) at the client firewall.
    FirewallByIpId,
    /// Drop all FIN/RST from the blocked site's address at the client
    /// firewall.
    FirewallBySource,
    /// Resolve through a public resolver instead of the ISP's (DNS
    /// poisoning evasion).
    PublicResolver,
    /// TCB teardown (INTANG-style, after Khattak et al. / Wang et al.,
    /// whom the paper builds on): inject a RST whose TTL expires past the
    /// middlebox but before the server. The stateful device purges its
    /// flow record; the subsequent GET travels an "untracked" connection.
    TcbTeardownRst,
}

impl Technique {
    /// Every technique, in presentation order.
    pub const ALL: [Technique; 12] = [
        Technique::HostKeywordCase,
        Technique::ExtraSpaceBeforeValue,
        Technique::TabBeforeValue,
        Technique::TrailingSpace,
        Technique::PrependWww,
        Technique::DuplicateHostDecoy,
        Technique::SegmentedRequest,
        Technique::Http2Version,
        Technique::FirewallByIpId,
        Technique::FirewallBySource,
        Technique::PublicResolver,
        Technique::TcbTeardownRst,
    ];

    /// Short label.
    pub fn name(self) -> &'static str {
        match self {
            Technique::HostKeywordCase => "host-case",
            Technique::ExtraSpaceBeforeValue => "extra-space",
            Technique::TabBeforeValue => "tab",
            Technique::TrailingSpace => "trailing-space",
            Technique::PrependWww => "www-prefix",
            Technique::DuplicateHostDecoy => "dup-host",
            Technique::SegmentedRequest => "segmented",
            Technique::Http2Version => "http2",
            Technique::FirewallByIpId => "fw-ipid",
            Technique::FirewallBySource => "fw-src",
            Technique::PublicResolver => "alt-dns",
            Technique::TcbTeardownRst => "tcb-teardown",
        }
    }

    /// Build the crafted request for request-level techniques.
    pub fn request(self, domain: &str) -> Option<Vec<u8>> {
        let req = match self {
            Technique::HostKeywordCase => {
                RequestBuilder::get("/").raw_line(&format!("HOst: {domain}")).build()
            }
            Technique::ExtraSpaceBeforeValue => {
                RequestBuilder::get("/").raw_line(&format!("Host:  {domain}")).build()
            }
            Technique::TabBeforeValue => {
                RequestBuilder::get("/").raw_line(&format!("Host:\t{domain}")).build()
            }
            Technique::TrailingSpace => {
                RequestBuilder::get("/").raw_line(&format!("Host: {domain} ")).build()
            }
            Technique::PrependWww => RequestBuilder::browser(&format!("www.{domain}"), "/").build(),
            Technique::DuplicateHostDecoy => {
                let mut req = RequestBuilder::browser(domain, "/").build();
                req.extend_from_slice(b"Host: www.google.com\r\n\r\n");
                req
            }
            Technique::Http2Version => RequestBuilder::get("/")
                .version("HTTP/2.0")
                .header("Host", domain)
                .build(),
            _ => return None,
        };
        Some(req)
    }
}

/// Outcome of one evasion attempt.
#[derive(Debug, Clone)]
pub struct Attempt {
    /// Technique used.
    pub technique: Technique,
    /// Real content was retrieved.
    pub success: bool,
}

/// Try `technique` against `site` from inside `isp`. Success means the
/// actual site content rendered (not a notice, not a reset).
pub fn attempt(lab: &mut Lab, isp: IspId, site: SiteId, technique: Technique) -> Attempt {
    let s = lab.india.corpus.site(site);
    let domain = s.domain.clone();
    let client = lab.client_of(isp);
    let public_dns = lab.india.public_dns_ip;

    // Resolve honestly (HTTP techniques target HTTP filtering; the DNS
    // technique is exercised separately below).
    let ip = match technique {
        Technique::PublicResolver => {
            let out = lab.resolve(client, public_dns, &domain);
            match out.ips.first() {
                Some(&ip) => ip,
                None => return Attempt { technique, success: false },
            }
        }
        _ => match s.replicas.first() {
            Some(&ip) => ip,
            None => return Attempt { technique, success: false },
        },
    };

    let success = match technique {
        Technique::SegmentedRequest => fetch_segmented(lab, client, ip, &domain),
        Technique::FirewallByIpId | Technique::FirewallBySource => {
            let rule = if technique == Technique::FirewallByIpId {
                FilterRule::drop_fin_rst_with_ip_id(242)
            } else {
                FilterRule::drop_fin_rst_from(ip)
            };
            let req = RequestBuilder::browser(&domain, "/").build();
            let (ok, dropped) =
                lab.firewalled(client, rule, |lab| run_attempts(lab, client, ip, req, false));
            // The rule must actually be what saved the fetches: content
            // rendering while injected teardown packets sailed past the
            // filter is a race win, not an evasion. The wire inspection
            // inside run_attempts is disabled for firewall techniques
            // (pcap is pre-filter), so check the filter's own counter.
            ok && dropped > 0
        }
        Technique::PublicResolver => {
            let req = RequestBuilder::browser(&domain, "/").build();
            run_attempts(lab, client, ip, req, true)
        }
        Technique::TcbTeardownRst => tcb_teardown(lab, client, ip, &domain),
        _ => match technique.request(&domain) {
            Some(req) => run_attempts(lab, client, ip, req, true),
            None => false,
        },
    };
    Attempt { technique, success }
}

/// Did `resp` render the site: real content (200) or its redirect
/// (302), not a notification page?
fn renders(resp: &HttpResponse) -> bool {
    !looks_like_notice(resp) && (resp.status == 200 || resp.status == 302)
}

/// Repeated fetches must all render real content with *no injected
/// packet on the wire at all*: a wiretap that lost the race still fires
/// its notification-FIN and RST after the content, so the client's pcap
/// (not just the socket outcome) is what separates a lucky render from a
/// true evasion. `inspect_wire` is false for the firewall techniques,
/// whose whole mechanism is that injected packets exist but get dropped.
fn run_attempts(
    lab: &mut Lab,
    client: NodeId,
    ip: Ipv4Addr,
    req: Vec<u8>,
    inspect_wire: bool,
) -> bool {
    (0..2).all(|_| {
        let ((f, rendered), [wire]) = lab.captured([client], |lab| {
            let f = lab.http_fetch(client, ip, 80, req.clone(), FETCH_TIMEOUT_MS);
            let rendered = f.response.as_ref().is_some_and(renders);
            if rendered {
                // Wait out any slow injection tail before judging.
                lab.run_ms(600);
            }
            (f, rendered)
        });
        if !rendered {
            return false;
        }
        if inspect_wire {
            // An orderly server close is a bare FIN; the middlebox notice
            // is FIN-with-payload, and nothing legitimate RSTs a healthy
            // exchange.
            !wire.iter().any(|(_, p)| {
                p.src() == ip
                    && p.as_tcp().is_some_and(|(h, payload)| {
                        (h.flags.contains(TcpFlags::FIN) && !payload.is_empty())
                            || h.flags.contains(TcpFlags::RST)
                    })
            })
        } else {
            !lab.tcp_events(client, f.sock).contains(&SocketEvent::Reset)
        }
    })
}

/// Connect to `ip:80` and wait `settle_ms`: the socket, if it is
/// established by then.
fn settled(lab: &mut Lab, client: NodeId, ip: Ipv4Addr, settle_ms: u64) -> Option<SocketId> {
    let sock = lab.tcp_connect(client, ip, 80)?;
    lab.run_ms(settle_ms);
    (lab.tcp_state(client, sock) == TcpState::Established).then_some(sock)
}

/// The TCB-teardown evasion: locate the middlebox with the tracer, then
/// for each fetch inject a TTL-limited RST that desyncs only the device.
fn tcb_teardown(lab: &mut Lab, client: NodeId, ip: Ipv4Addr, domain: &str) -> bool {
    let Some(mb_ttl) = crate::probe::tracer::http_tracer(lab, client, ip, domain, 24).censored_at_ttl
    else {
        return false; // nothing to desync (or nothing censoring this path)
    };
    let req = RequestBuilder::browser(domain, "/").build();
    (0..3).all(|_| {
        let Some(sock) = settled(lab, client, ip, 400) else {
            return false;
        };
        // The socket we just watched establish; a miss means it raced
        // closed — no teardown to attempt.
        let Some(conn) = lab.tcp_as_raw(client, sock, ip) else {
            return false;
        };
        // The desync RST: in-window for the middlebox, dead before the
        // server.
        lab.raw_segment(&conn, TcpFlags::RST, Some(mb_ttl));
        lab.run_ms(60);
        // Now the ordinary browser request on the (still live) connection.
        lab.tcp_send(client, sock, &req);
        lab.run_ms(3_000);
        let f = lab.tcp_collect(client, sock);
        !f.was_reset() && f.response.as_ref().is_some_and(renders)
    })
}

/// The segmented-request evasion: each fetch sends the browser GET in
/// two segments split inside the `Host:` keyword.
fn fetch_segmented(lab: &mut Lab, client: NodeId, ip: Ipv4Addr, domain: &str) -> bool {
    let req = RequestBuilder::browser(domain, "/").build();
    let split = req.windows(5).position(|w| w == b"Host:").map(|i| i + 2).unwrap_or(10);
    (0..3).all(|_| {
        let Some(sock) = settled(lab, client, ip, 300) else {
            return false;
        };
        lab.tcp_send(client, sock, &req[..split]);
        lab.run_ms(60);
        lab.tcp_send(client, sock, &req[split..]);
        lab.run_ms(2_000);
        let f = lab.tcp_collect(client, sock);
        // Only a 200 counts here, where every other technique also
        // counts a 302 (`renders`): a redirect-only site never renders
        // segmented. Counting the 302 moves a published `evasion.json`
        // cell, so the rule stays until those outputs are re-recorded.
        !f.was_reset() && f.response.is_some_and(|r| !looks_like_notice(&r) && r.status == 200)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::race::raceable;
    use crate::probe::classify::censored_sites;
    use lucent_topology::{India, IndiaConfig};

    #[test]
    fn extra_space_and_dup_host_evade_idea_but_case_change_does_not() {
        let mut lab = Lab::new(India::build(IndiaConfig::tiny()));
        let site = censored_sites(&mut lab, IspId::Idea, 1, raceable)
            .into_iter()
            .next()
            .expect("censored site in Idea");
        // Overt IM (StrictPattern): whitespace fudging works.
        assert!(attempt(&mut lab, IspId::Idea, site, Technique::ExtraSpaceBeforeValue).success);
        assert!(attempt(&mut lab, IspId::Idea, site, Technique::TabBeforeValue).success);
        assert!(attempt(&mut lab, IspId::Idea, site, Technique::Http2Version).success);
        // Case fudging does NOT evade a case-insensitive matcher.
        assert!(!attempt(&mut lab, IspId::Idea, site, Technique::HostKeywordCase).success);
        // Segmentation always works (no reassembly in any middlebox).
        assert!(attempt(&mut lab, IspId::Idea, site, Technique::SegmentedRequest).success);
    }

    #[test]
    fn case_change_and_firewall_evade_airtel() {
        let mut lab = Lab::new(India::build(IndiaConfig::tiny()));
        let Some(&site) = censored_sites(&mut lab, IspId::Airtel, 1, raceable).first() else {
            return; // tiny world: the client's paths may dodge all devices
        };
        assert!(attempt(&mut lab, IspId::Airtel, site, Technique::HostKeywordCase).success);
        assert!(attempt(&mut lab, IspId::Airtel, site, Technique::FirewallByIpId).success);
        assert!(attempt(&mut lab, IspId::Airtel, site, Technique::FirewallBySource).success);
    }

    #[test]
    fn dup_host_evades_covert_vodafone() {
        let mut lab = Lab::new(India::build(IndiaConfig::tiny()));
        let Some(&site) = censored_sites(&mut lab, IspId::Vodafone, 1, raceable).first() else {
            return; // Vodafone's 11% coverage may miss the tiny client
        };
        assert!(attempt(&mut lab, IspId::Vodafone, site, Technique::DuplicateHostDecoy).success);
        // The strict-pattern trick does nothing against LastHost.
        assert!(!attempt(&mut lab, IspId::Vodafone, site, Technique::ExtraSpaceBeforeValue).success);
    }

    #[test]
    fn segmented_counts_only_a_200_as_rendered() {
        // Every other technique renders on a 200 or a 302; `segmented`
        // keeps a 200-only rule, so a redirect-only site that renders for
        // the plain GET does not render split, even uncensored.
        let mut lab = Lab::new(India::build(IndiaConfig::tiny()));
        let client = lab.client_of(IspId::Nkn);
        let site = lab
            .india
            .corpus
            .sites()
            .iter()
            .find(|s| {
                s.kind == lucent_web::SiteKind::RedirectOnly
                    && !lab.india.truth.blocked_for_client(IspId::Nkn, s.id)
            })
            .expect("an unblocked redirect-only site");
        let (domain, ip) = (site.domain.clone(), site.replicas[0]);
        let req = RequestBuilder::browser(&domain, "/").build();
        assert!(run_attempts(&mut lab, client, ip, req, true));
        assert!(!fetch_segmented(&mut lab, client, ip, &domain));
    }

    #[test]
    fn public_resolver_evades_mtnl_dns_poisoning() {
        let mut lab = Lab::new(India::build(IndiaConfig::tiny()));
        // A site the default resolver poisons.
        let default = lab.india.isps[&IspId::Mtnl].default_resolver;
        let site = lab.india.truth.dns_resolvers[&IspId::Mtnl]
            .iter()
            .find(|(ip, _)| *ip == default)
            .and_then(|(_, bl)| {
                bl.iter().copied().find(|&s| {
                    let site = lab.india.corpus.site(s);
                    // Alive, and not ALSO collaterally blocked over HTTP by
                    // MTNL's transit providers (the DNS fix can't help there).
                    site.is_alive()
                        && !lab
                            .india
                            .truth
                            .borders
                            .iter()
                            .any(|((v, _), sites)| *v == IspId::Mtnl && sites.contains(&s))
                })
            });
        let Some(site) = site else { return };
        let a = attempt(&mut lab, IspId::Mtnl, site, Technique::PublicResolver);
        assert!(a.success, "{a:?}");
    }
}

lucent_support::json_enum!(Technique { HostKeywordCase, ExtraSpaceBeforeValue, TabBeforeValue, TrailingSpace, PrependWww, DuplicateHostDecoy, SegmentedRequest, Http2Version, FirewallByIpId, FirewallBySource, PublicResolver, TcbTeardownRst });
lucent_support::json_object!(Attempt { technique, success });
