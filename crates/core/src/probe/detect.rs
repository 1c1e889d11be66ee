//! The paper's own detection pipelines (§3.2 DNS, §3.3 TCP/IP, §3.4
//! HTTP) — the replacement for OONI after §3.1 discredits it.

use std::net::Ipv4Addr;

use lucent_topology::IspId;
use lucent_web::SiteId;

use crate::diff;
use crate::lab::{Lab, FETCH_TIMEOUT_MS};
use crate::probe::dns_scan::{judge_answer, Answer};
use crate::probe::{manual, CensorKind};

/// Result of running the full §3 pipeline on one site.
#[derive(Debug, Clone)]
pub struct Detection {
    /// Site tested.
    pub site: u32,
    /// Final verdict.
    pub blocked: bool,
    /// Mechanism.
    pub kind: Option<CensorKind>,
    /// The diff threshold flagged this site (before manual confirmation).
    pub flagged_by_threshold: bool,
    /// Manual inspection confirmed the flag (None = never flagged).
    pub confirmed: Option<bool>,
}

/// §3.3: five TCP handshake attempts with ~2 s spacing; filtering is
/// claimed only if all fail while Tor connects fine.
pub fn tcp_ip_filtered(lab: &mut Lab, isp: IspId, site: SiteId) -> bool {
    let Some(&ip) = lab.india.corpus.site(site).replicas.first() else {
        return false;
    };
    let tor = lab.india.tor;
    let tor_conn = lab.raw_connect(tor, ip, None);
    let tor_ok = tor_conn.established;
    lab.raw_close(&tor_conn);
    if !tor_ok {
        return false; // site itself is down
    }
    let client = lab.client_of(isp);
    for _ in 0..5 {
        let conn = lab.raw_connect(client, ip, None);
        let ok = conn.established;
        lab.raw_close(&conn);
        if ok {
            return false;
        }
        lab.run_ms(2_000);
    }
    true
}

/// §3.2: DNS filtering detection via Tor-vs-ISP answer comparison plus
/// the bogon / client-AS heuristics ([`judge_answer`]).
pub fn dns_filtered(lab: &mut Lab, isp: IspId, site: SiteId) -> Option<Detection> {
    let domain = lab.india.corpus.site(site).domain.clone();
    let client = lab.client_of(isp);
    let prefix = lab.india.isps[&isp].prefix;
    let resolver = lab.india.isps[&isp].default_resolver;
    let tor = lab.india.tor;
    let public_dns = lab.india.public_dns_ip;

    let tor_dns = lab.resolve(tor, public_dns, &domain);
    if tor_dns.failed() {
        return None; // cannot establish a reference resolution
    }
    let isp_dns = lab.resolve(client, resolver, &domain);
    let blocked = match judge_answer(&isp_dns.ips, &tor_dns.ips, prefix) {
        Answer::Consistent => false,
        Answer::Manipulated => true,
        // Disjoint but plausible answers: fetch through Tor from the
        // ISP-resolved address; real content means a CDN artifact, not
        // censorship.
        Answer::Unexplained => {
            let f = lab.http_get(tor, isp_dns.ips[0], &domain, FETCH_TIMEOUT_MS);
            !f.response.is_some_and(|r| r.status == 200 || r.status == 302)
        }
    };
    blocked.then_some(Detection {
        site: site.0,
        blocked: true,
        kind: Some(CensorKind::Dns),
        flagged_by_threshold: false,
        confirmed: Some(true),
    })
}

/// §3.4: HTTP filtering detection — Tor fetch vs direct fetch, diff
/// threshold 0.3, manual confirmation of flagged sites.
pub fn http_filtered(lab: &mut Lab, isp: IspId, site: SiteId, resolved_ip: Ipv4Addr) -> Detection {
    let domain = lab.india.corpus.site(site).domain.clone();
    let client = lab.client_of(isp);
    let tor = lab.india.tor;

    let tor_fetch = lab.http_get(tor, resolved_ip, &domain, FETCH_TIMEOUT_MS);
    let direct = lab.http_get(client, resolved_ip, &domain, FETCH_TIMEOUT_MS);

    let tor_body = tor_fetch.response.as_ref().map(|r| r.body.clone()).unwrap_or_default();
    let direct_body = direct.response.as_ref().map(|r| r.body.clone()).unwrap_or_default();

    let flagged = direct.killed() || !diff::below_threshold(&tor_body, &direct_body);
    if !flagged {
        return Detection { site: site.0, blocked: false, kind: None, flagged_by_threshold: false, confirmed: None };
    }
    // Manual confirmation: the direct fetch is the person's first try.
    let retries = std::iter::repeat_with(|| lab.http_get(client, resolved_ip, &domain, FETCH_TIMEOUT_MS));
    let confirmed = manual::confirm(std::iter::once(direct).chain(retries), tor_fetch.clean()).is_some();
    Detection {
        site: site.0,
        blocked: confirmed,
        kind: confirmed.then_some(CensorKind::Http),
        flagged_by_threshold: true,
        confirmed: Some(confirmed),
    }
}

/// The full §3 pipeline for one site: DNS, then TCP/IP, then HTTP.
pub fn detect_site(lab: &mut Lab, isp: IspId, site: SiteId) -> Detection {
    if let Some(d) = dns_filtered(lab, isp, site) {
        return d;
    }
    // Resolve an address to probe over HTTP. Prefer the ISP answer (it
    // was just validated as honest); fall back to a Tor answer.
    let domain = lab.india.corpus.site(site).domain.clone();
    let client = lab.client_of(isp);
    let resolver = lab.india.isps[&isp].default_resolver;
    let dns = lab.resolve(client, resolver, &domain);
    let ip = dns.ips.first().copied().or_else(|| {
        let tor = lab.india.tor;
        let public_dns = lab.india.public_dns_ip;
        lab.resolve(tor, public_dns, &domain).ips.first().copied()
    });
    let Some(ip) = ip else {
        return Detection { site: site.0, blocked: false, kind: None, flagged_by_threshold: false, confirmed: None };
    };
    http_filtered(lab, isp, site, ip)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lucent_topology::{India, IndiaConfig};

    #[test]
    fn no_tcp_ip_filtering_anywhere() {
        // §3.3's finding: no ISP does TCP/IP filtering; every handshake
        // to an alive site must succeed even in heavily-censored Idea.
        let mut lab = Lab::new(India::build(IndiaConfig::tiny()));
        let site = lab.india.truth.http_master[&IspId::Idea]
            .iter()
            .copied()
            .find(|&s| lab.india.corpus.site(s).is_alive())
            .unwrap();
        assert!(!tcp_ip_filtered(&mut lab, IspId::Idea, site));
    }

    #[test]
    fn cdn_disjoint_answers_are_not_dns_censorship() {
        // A regional site resolves differently from the ISP and from Tor,
        // but the pipeline's final Tor-fetch check must clear it.
        let mut lab = Lab::new(India::build(IndiaConfig::tiny()));
        let cdn_site = lab
            .india
            .corpus
            .pbw
            .iter()
            .copied()
            .find(|&s| {
                let site = lab.india.corpus.site(s);
                site.regional_dns && site.is_alive()
                    && !lab.india.truth.dns_blocked(IspId::Bsnl, s)
            })
            .expect("a CDN site exists");
        assert!(dns_filtered(&mut lab, IspId::Bsnl, cdn_site).is_none());
    }

    #[test]
    fn http_detection_confirms_idea_blocked_site() {
        let mut lab = Lab::new(India::build(IndiaConfig::tiny()));
        // Idea blocks on ~92% of paths; a master-list site that is alive
        // will almost surely be blocked on the client's path to its
        // replica. Find one which manual fetch shows blocked.
        let master: Vec<SiteId> =
            lab.india.truth.http_master[&IspId::Idea].iter().copied().collect();
        // A master-list site is censored on the client's direct path only
        // when that path's device holds it (~0.8 per site in Idea), so
        // sample enough sites for the expectation to dominate.
        let mut confirmed = 0;
        let mut tested = 0;
        for &s in master.iter() {
            if !lab.india.corpus.site(s).is_alive() {
                continue;
            }
            tested += 1;
            let d = detect_site(&mut lab, IspId::Idea, s);
            if d.blocked {
                confirmed += 1;
                assert_eq!(d.kind, Some(CensorKind::Http));
            }
            if tested >= 10 {
                break;
            }
        }
        assert!(confirmed >= 3, "{confirmed}/{tested} confirmed");
    }
}

lucent_support::json_object!(Detection { site, blocked, kind, flagged_by_threshold, confirmed });
