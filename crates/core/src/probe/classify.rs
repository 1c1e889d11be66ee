//! Interceptive vs wiretap classification (§4.2.1): the controlled
//! remote-host experiment, the render-rate race, and the
//! ICMP-consumption test. [`remote_host_experiment`] is the only code
//! that runs the remote-host experiment; Table 2's classifier and
//! Figures 3–4 read their verdicts off what it returns.
//!
//! It also holds the direct-path check every experiment runs first:
//! is this site censored on the client's own path? [`censored_on_path`]
//! is the only copy of that check, and [`censored_sites`] scans an
//! ISP's blocklist with it. The check fetches twice and stops at the
//! first block. A wiretap loses about 3/10 injection races, so one
//! clean fetch proves nothing. Table 2's and Table 3's site scans retry
//! through [`blocked_on_retries`] instead, which also requires every
//! fetch to fail when none shows a notice.

use std::net::Ipv4Addr;

use lucent_middlebox::notice::looks_like_notice;
use lucent_netsim::NodeId;
use lucent_packet::http::RequestBuilder;
use lucent_packet::tcp::TcpFlags;
use lucent_packet::HttpResponse;
use lucent_topology::IspId;
use lucent_web::{Site, SiteId};

use crate::lab::{Capture, Fetch, Lab, FETCH_TIMEOUT_MS};

/// What the classifier concluded about an ISP's middleboxes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MeasuredKind {
    /// Wiretap: the request still reaches the destination.
    Wiretap,
    /// Interceptive: the request is consumed.
    Interceptive,
}

/// What one run of the controlled-remote-host experiment saw; see
/// [`remote_host_experiment`].
#[derive(Debug, Clone)]
pub struct RemoteHostObservation {
    /// The controlled remote.
    pub remote: Ipv4Addr,
    /// The client's fetch.
    pub fetch: Fetch,
    /// Packets that reached the client during the fetch and teardown.
    pub client_capture: Capture,
    /// Packets that reached the remote.
    pub remote_capture: Capture,
    /// The client's send cursor after the teardown.
    pub client_snd_nxt: u32,
    /// Payload bytes the remote's TCP stack accepted: the delta of its
    /// `tcp.payload_bytes_rx` counter.
    pub payload_bytes_at_remote: u64,
}

impl RemoteHostObservation {
    /// A RST reached the remote whose sequence number differs from the
    /// client's own cursor: the middlebox sent it, not the client.
    pub fn forged_rst_at_remote(&self) -> bool {
        self.remote_capture.iter().any(|(_, p)| {
            p.as_tcp().is_some_and(|(h, _)| {
                h.flags.contains(TcpFlags::RST) && h.seq != self.client_snd_nxt
            })
        })
    }
}

/// The controlled-remote-host experiment (§4.2.1): from inside `isp`, a
/// browser GET for `blocked_domain` to the controlled host `remote`
/// (node `remote_node`), with both ends captured through the fetch and
/// a 30 s window in which a black-holed teardown plays out. Table 2's
/// classifier ([`classify_by_remote_hosts`]) and Figures 3–4
/// (`experiments::mechanism`) are two verdicts over what it returns.
pub fn remote_host_experiment(
    lab: &mut Lab,
    isp: IspId,
    remote: Ipv4Addr,
    remote_node: NodeId,
    blocked_domain: &str,
) -> RemoteHostObservation {
    let client = lab.client_of(isp);
    let obs = lab.india.net.telemetry();
    let remote_label = lab.india.net.label_of(remote_node).to_string();
    let payload_before = obs.counter("tcp.payload_bytes_rx", &remote_label);
    let (fetch, [client_capture, remote_capture]) = lab.captured([client, remote_node], |lab| {
        let fetch = lab.http_get(client, remote, blocked_domain, FETCH_TIMEOUT_MS);
        lab.run_ms(30_000);
        fetch
    });
    let client_snd_nxt = lab.tcp_as_raw(client, fetch.sock, remote).map_or(0, |c| c.seq);
    RemoteHostObservation {
        remote,
        fetch,
        client_capture,
        remote_capture,
        client_snd_nxt,
        payload_bytes_at_remote: obs
            .counter("tcp.payload_bytes_rx", &remote_label)
            .saturating_sub(payload_before),
    }
}

/// Table 2's verdict from the remote-host experiment against one remote.
#[derive(Debug, Clone)]
pub struct RemoteHostReport {
    /// The crafted GET arrived at the remote (wiretap signature).
    pub get_reached_remote: bool,
    /// The client saw a notification page (overt) vs a bare reset.
    pub client_saw_notice: bool,
    /// A RST arrived at the remote whose sequence number differs from
    /// the client's own cursor (the interceptive middlebox's forged
    /// reset).
    pub forged_rst_at_remote: bool,
}

/// Run the remote-host experiment against every external VP until the
/// client's fetch shows a block (the path is covered); classify from
/// that run: wiretap when the GET reached the remote, else interceptive.
pub fn classify_by_remote_hosts(
    lab: &mut Lab,
    isp: IspId,
    blocked_domain: &str,
) -> Option<(MeasuredKind, RemoteHostReport)> {
    let vps = lab.india.external_vps.clone();
    for (ip, node) in vps {
        let seen = remote_host_experiment(lab, isp, ip, node, blocked_domain);
        if !seen.fetch.censored() {
            continue;
        }
        let report = RemoteHostReport {
            get_reached_remote: seen
                .remote_capture
                .iter()
                .any(|(_, p)| p.as_tcp().is_some_and(|(_, b)| !b.is_empty())),
            client_saw_notice: seen.fetch.shows_notice(),
            forged_rst_at_remote: seen.forged_rst_at_remote(),
        };
        let kind = if report.get_reached_remote {
            MeasuredKind::Wiretap
        } else {
            MeasuredKind::Interceptive
        };
        return Some((kind, report));
    }
    None
}

/// Is `site` censored on the `isp` client's direct path to its first
/// replica? Two fetches at 3 s each, stopping at the first that shows a
/// block (see the module doc for why one is not enough). A site with no
/// replica is not censored, and no fetch is issued.
pub fn censored_on_path(lab: &mut Lab, isp: IspId, site: SiteId) -> bool {
    let s = lab.india.corpus.site(site);
    let Some(&ip) = s.replicas.first() else { return false };
    let domain = s.domain.clone();
    let client = lab.client_of(isp);
    (0..2).any(|_| lab.http_get(client, ip, &domain, 3_000).censored())
}

/// Why [`blocked_on_retries`] judged a site blocked.
#[derive(Debug, Clone)]
pub enum Blocked {
    /// A try drew this notification page.
    Notice(HttpResponse),
    /// Every try was killed: reset or timed out, and for
    /// [`crate::probe::manual::confirm`] also refused.
    Killed,
}

/// Fetch `domain` at `ip` from `client` up to `tries` times, the way a
/// person retries a page a wiretap may fail to block (it loses about
/// 3/10 races, so one rendered page does not clear a site). A notice
/// page stops the tries and blocks; otherwise the site is blocked only
/// if every try was reset or timed out after connecting.
///
/// This stays apart from [`crate::probe::manual::confirm`], which counts
/// a refused connection as a kill, because the scans that call it fetch
/// no Tor reference. Only a page Tor loads tells a refused connection
/// from a dead site, so counting refusals here would block dead sites.
pub fn blocked_on_retries(
    lab: &mut Lab,
    client: NodeId,
    ip: Ipv4Addr,
    domain: &str,
    tries: usize,
) -> Option<Blocked> {
    let mut kills = 0;
    for _ in 0..tries {
        let f = lab.http_get(client, ip, domain, FETCH_TIMEOUT_MS);
        if f.shows_notice() {
            return f.response.map(Blocked::Notice);
        }
        if !f.connect_failed && (f.was_reset() || f.hit_timeout()) {
            kills += 1;
        }
    }
    (kills == tries).then_some(Blocked::Killed)
}

/// The first `want` sites (at least one) of `isp`'s blocklist, in
/// blocklist order, that pass `keep` and are censored on the client's
/// direct path; fewer when the blocklist runs out.
pub fn censored_sites(
    lab: &mut Lab,
    isp: IspId,
    want: usize,
    keep: impl Fn(&Site) -> bool,
) -> Vec<SiteId> {
    let master = lab.india.truth.http_master.get(&isp).cloned().unwrap_or_default();
    let mut out = Vec::new();
    for site in master {
        if keep(lab.india.corpus.site(site)) && censored_on_path(lab, isp, site) {
            out.push(site);
            if out.len() >= want {
                break;
            }
        }
    }
    out
}

/// The render-rate race (§4.2.1): fraction of attempts on which the real
/// site renders despite censorship. Wiretaps lose ~3/10 races;
/// interceptive devices never do. A site with no replica gets `(0, 0)`,
/// and no fetch is issued.
pub fn render_rate(lab: &mut Lab, isp: IspId, site: SiteId, attempts: usize) -> (usize, usize) {
    let s = lab.india.corpus.site(site);
    let Some(&ip) = s.replicas.first() else { return (0, 0) };
    let domain = s.domain.clone();
    let client = lab.client_of(isp);
    let mut rendered = 0;
    for _ in 0..attempts {
        let f = lab.http_get(client, ip, &domain, FETCH_TIMEOUT_MS);
        if let Some(resp) = &f.response {
            if !looks_like_notice(resp) && resp.status == 200 {
                rendered += 1;
            }
        }
    }
    (rendered, attempts)
}

/// The ICMP-consumption test (§4.2.1 "Interceptive middleboxes"): send
/// crafted GETs with TTLs beyond the middlebox hop. A wiretap lets them
/// through (ICMP Time-Exceeded still arrives from downstream routers); an
/// interceptive device consumes them (censored responses, no ICMP).
#[derive(Debug, Clone)]
pub struct IcmpConsumption {
    /// TTL rungs past the device that elicited ICMP expiries for the
    /// *blocked* domain.
    pub blocked_icmp: usize,
    /// Rungs eliciting censored responses for the blocked domain.
    pub blocked_censored: usize,
    /// Rungs eliciting ICMP for the control (allowed) domain.
    pub control_icmp: usize,
}

impl IcmpConsumption {
    /// Interceptive devices consume the request: ICMP only for controls.
    pub fn verdict(&self) -> Option<MeasuredKind> {
        if self.blocked_censored == 0 {
            None
        } else if self.blocked_icmp == 0 && self.control_icmp > 0 {
            Some(MeasuredKind::Interceptive)
        } else if self.blocked_icmp > 0 {
            Some(MeasuredKind::Wiretap)
        } else {
            None
        }
    }
}

/// Run the ICMP-consumption test toward a censored destination.
pub fn icmp_consumption(
    lab: &mut Lab,
    isp: IspId,
    dst: Ipv4Addr,
    blocked_domain: &str,
    allowed_domain: &str,
    mb_ttl: u8,
) -> IcmpConsumption {
    let client = lab.client_of(isp);
    let path_len = lab.hops_to(client, dst, 30).unwrap_or(12);
    let mut out = IcmpConsumption { blocked_icmp: 0, blocked_censored: 0, control_icmp: 0 };
    for domain_is_blocked in [true, false] {
        let domain = if domain_is_blocked { blocked_domain } else { allowed_domain };
        let req = RequestBuilder::browser(domain, "/").build();
        // The ladder stops below the measured path length, so any
        // answer is the middlebox's.
        for ttl in (mb_ttl + 1)..path_len {
            let Some(reply) = lab.crafted(client, dst, &req, Some(ttl), 700) else { continue };
            let icmp = usize::from(reply.expired_at.is_some());
            if domain_is_blocked {
                out.blocked_censored += usize::from(reply.answered());
                out.blocked_icmp += icmp;
            } else {
                out.control_icmp += icmp;
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use lucent_tcp::TcpHost;
    use lucent_topology::{India, IndiaConfig};

    #[test]
    fn idea_classified_interceptive_by_icmp_consumption() {
        let mut lab = Lab::new(India::build(IndiaConfig::tiny()));
        let site = censored_sites(&mut lab, IspId::Idea, 1, Site::is_alive)
            .into_iter()
            .next()
            .expect("censored path");
        let s = lab.india.corpus.site(site);
        let (domain, ip) = (s.domain.clone(), s.replicas[0]);
        // The Idea IM sits right past the core (hop 2).
        let res = icmp_consumption(&mut lab, IspId::Idea, ip, &domain, "top0000.com", 3);
        assert_eq!(res.verdict(), Some(MeasuredKind::Interceptive), "{res:?}");
    }

    #[test]
    fn airtel_classified_wiretap_by_icmp_consumption() {
        let mut lab = Lab::new(India::build(IndiaConfig::tiny()));
        let Some(&site) = censored_sites(&mut lab, IspId::Airtel, 1, Site::is_alive).first() else {
            // In a tiny world the client's paths may dodge every device.
            return;
        };
        let s = lab.india.corpus.site(site);
        let (domain, ip) = (s.domain.clone(), s.replicas[0]);
        let res = icmp_consumption(&mut lab, IspId::Airtel, ip, &domain, "top0000.com", 3);
        assert_eq!(res.verdict(), Some(MeasuredKind::Wiretap), "{res:?}");
    }

    #[test]
    fn a_dead_site_is_neither_censored_nor_rendered() {
        let mut lab = Lab::new(India::build(IndiaConfig::tiny()));
        let dead = *lab.india.truth.http_master[&IspId::Idea].first().expect("a blocklist");
        assert!(lab.india.corpus.site(dead).replicas.is_empty(), "the first entry must be dead");
        let found = censored_sites(&mut lab, IspId::Idea, 1, |_| true);
        assert_eq!(found.len(), 1, "{found:?}");
        assert_ne!(found[0], dead);
        assert_eq!(render_rate(&mut lab, IspId::Idea, dead, 10), (0, 0));
    }

    /// The domain of the first site on Idea's blocklist.
    fn idea_blocked_domain(lab: &Lab) -> String {
        let first = lab.india.truth.http_master[&IspId::Idea].first().expect("a blocklist");
        lab.india.corpus.site(*first).domain.clone()
    }

    #[test]
    fn remote_host_distinguishes_kinds_when_paths_are_covered() {
        let mut lab = Lab::new(India::build(IndiaConfig::tiny()));
        // Idea: 92% coverage means the VP paths are nearly surely covered.
        let blocked = idea_blocked_domain(&lab);
        let got = classify_by_remote_hosts(&mut lab, IspId::Idea, &blocked);
        let (kind, report) = got.expect("some VP path is covered in Idea");
        assert_eq!(kind, MeasuredKind::Interceptive);
        assert!(!report.get_reached_remote);
        assert!(report.forged_rst_at_remote, "{report:?}");
    }

    /// Packets the Idea client and the VPs capture during five later
    /// fetches from the client to each VP.
    fn captured_by_later_fetches(lab: &mut Lab) -> usize {
        let client = lab.client_of(IspId::Idea);
        let vps = lab.india.external_vps.clone();
        for &(ip, _) in &vps {
            for _ in 0..5 {
                lab.http_get(client, ip, "top0000.com", FETCH_TIMEOUT_MS);
            }
        }
        std::iter::once(client)
            .chain(vps.iter().map(|&(_, node)| node))
            .map(|node| {
                lab.india.net.node_mut::<TcpHost>(node).map_or(0, |h| h.disable_pcap().len())
            })
            .sum()
    }

    #[test]
    fn the_remote_host_experiment_leaves_no_capture_running() {
        let mut lab = Lab::new(India::build(IndiaConfig::tiny()));
        crate::experiments::mechanism::figure3(&mut lab).expect("a covered Idea path to some VP");
        assert_eq!(captured_by_later_fetches(&mut lab), 0, "capture left on by Figure 3");
        let blocked = idea_blocked_domain(&lab);
        classify_by_remote_hosts(&mut lab, IspId::Idea, &blocked).expect("a covered Idea path");
        assert_eq!(captured_by_later_fetches(&mut lab), 0, "capture left on by the classifier");
    }
}

lucent_support::json_enum!(MeasuredKind { Wiretap, Interceptive });
lucent_support::json_object!(IcmpConsumption { blocked_icmp, blocked_censored, control_icmp });
