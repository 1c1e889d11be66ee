//! The "manual inspection" procedure.
//!
//! The paper corroborates every automated verdict by hand: a human fetches
//! the site, looks at what renders, retries, and decides. This module is
//! that human, mechanized — it uses only information a person at the
//! client could see (never the simulator's ground truth): the rendered
//! page, the ISP's DNS answer, a Tor-side fetch for comparison, and
//! well-known block-page fingerprints.


use lucent_middlebox::notice::looks_like_notice;
use lucent_packet::ipv4::is_bogon;
use lucent_topology::IspId;
use lucent_web::SiteId;

use crate::lab::{Fetch, Lab, FETCH_TIMEOUT_MS};
use crate::probe::CensorKind;

/// How many times the human retries a flaky fetch (wiretap races make
/// single observations unreliable).
pub const MANUAL_RETRIES: usize = 3;

/// A manual verdict for one (ISP, site) pair.
#[derive(Debug, Clone)]
pub struct ManualVerdict {
    /// Site inspected.
    pub site: u32,
    /// Censored, as a human would conclude.
    pub blocked: bool,
    /// The mechanism the human attributes it to.
    pub kind: Option<CensorKind>,
    /// A statutory block page was visibly rendered.
    pub notice_seen: bool,
    /// The site was dead even from Tor (unavailable ≠ censored).
    pub dead_from_tor: bool,
}

/// Inspect one site from inside `isp`.
pub fn inspect(lab: &mut Lab, isp: IspId, site: SiteId) -> ManualVerdict {
    let domain = lab.india.corpus.site(site).domain.clone();
    let client = lab.client_of(isp);
    let client_prefix = lab.india.isps[&isp].prefix;
    let resolver = lab.india.isps[&isp].default_resolver;
    let tor = lab.india.tor;
    let public_dns = lab.india.public_dns_ip;

    // Tor-side ground reference (an uncensored vantage, not an oracle).
    let tor_dns = lab.resolve(tor, public_dns, &domain);
    let tor_fetch: Option<Fetch> = tor_dns
        .ips
        .first()
        .copied()
        .map(|ip| lab.http_get(tor, ip, &domain, FETCH_TIMEOUT_MS));
    let tor_ok = tor_fetch
        .as_ref()
        .map(|f| f.complete() && !f.was_reset())
        .unwrap_or(false);

    // Step 1: the ISP's DNS answer.
    let isp_dns = lab.resolve(client, resolver, &domain);
    let dns_manipulated = if isp_dns.failed() {
        // NXDOMAIN while Tor resolves fine is manipulation; NXDOMAIN for a
        // dead site is just a dead site.
        !tor_dns.failed()
    } else {
        let overlap = isp_dns.ips.iter().any(|ip| tor_dns.ips.contains(ip));
        if overlap {
            false
        } else {
            // Disjoint answers: CDN artifact or poisoning? A human checks
            // whether the address is nonsense (bogon) or suspiciously
            // inside the access ISP itself.
            isp_dns.ips.iter().any(|&ip| is_bogon(ip) || client_prefix.contains(ip))
        }
    };
    if dns_manipulated {
        // Confirm by looking at what the poisoned address serves.
        let notice_seen = isp_dns.ips.first().is_some_and(|&ip| {
            !is_bogon(ip) && lab.http_get(client, ip, &domain, FETCH_TIMEOUT_MS).shows_notice()
        });
        return ManualVerdict {
            site: site.0,
            blocked: true,
            kind: Some(CensorKind::Dns),
            notice_seen,
            dead_from_tor: !tor_ok,
        };
    }

    // Step 2: fetch over HTTP, retrying for injection races. Resolve via
    // the (honest-answering) path we just validated.
    let Some(&ip) = isp_dns.ips.first().or(tor_dns.ips.first()) else {
        // Unresolvable everywhere: dead, not censored.
        return ManualVerdict {
            site: site.0,
            blocked: false,
            kind: None,
            notice_seen: false,
            dead_from_tor: true,
        };
    };
    let mut notice_seen = false;
    let mut rendered = false;
    let mut killed = 0usize;
    for _ in 0..MANUAL_RETRIES {
        let f = lab.http_get(client, ip, &domain, FETCH_TIMEOUT_MS);
        if let Some(resp) = &f.response {
            if looks_like_notice(resp) {
                notice_seen = true;
            } else if resp.status < 500 {
                rendered = true;
            }
        } else if f.was_reset() || f.hit_timeout() || f.connect_failed {
            killed += 1;
        }
        if notice_seen {
            break;
        }
    }
    let covert_block = killed == MANUAL_RETRIES && tor_ok;
    // `rendered` intentionally does not veto `notice_seen`: a wiretap that
    // loses some races still censors — exactly the human's reading.
    let _ = rendered;
    let blocked = notice_seen || covert_block;
    ManualVerdict {
        site: site.0,
        blocked,
        kind: blocked.then_some(CensorKind::Http),
        notice_seen,
        dead_from_tor: !tor_ok,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lucent_topology::{India, IndiaConfig};

    #[test]
    fn manual_inspection_agrees_with_ground_truth_in_idea() {
        // Idea has ~92% coverage interceptive devices: a blocked site is
        // blocked on nearly every path, so manual inspection must find a
        // decent sample of the master list and produce no false claims on
        // healthy unblocked sites.
        let mut lab = Lab::new(India::build(IndiaConfig::tiny()));
        let master: Vec<SiteId> =
            lab.india.truth.http_master[&IspId::Idea].iter().copied().collect();
        let mut hits = 0;
        for &site in master.iter().take(4) {
            if !lab.india.corpus.site(site).is_alive() {
                continue;
            }
            let v = inspect(&mut lab, IspId::Idea, site);
            if v.blocked {
                hits += 1;
                assert_eq!(v.kind, Some(CensorKind::Http));
            }
        }
        assert!(hits >= 1, "at least one blocked site visibly censored");

        // An unblocked healthy site must not be flagged.
        let clean = lab
            .india
            .corpus
            .pbw
            .iter()
            .copied()
            .find(|&s| {
                lab.india.corpus.site(s).is_alive()
                    && lab.india.corpus.site(s).kind == lucent_web::SiteKind::Normal
                    && !lab.india.truth.blocked_for_client(IspId::Idea, s)
            })
            .unwrap();
        let v = inspect(&mut lab, IspId::Idea, clean);
        assert!(!v.blocked, "{v:?}");
    }

    #[test]
    fn dns_poisoning_is_attributed_to_dns_in_mtnl() {
        let mut lab = Lab::new(India::build(IndiaConfig::tiny()));
        // Pick a site poisoned by the client's default resolver
        // specifically (the first poisoned resolver).
        let default = lab.india.isps[&IspId::Mtnl].default_resolver;
        let poisoned = lab.india.truth.dns_resolvers[&IspId::Mtnl]
            .iter()
            .find(|(ip, _)| *ip == default)
            .map(|(_, bl)| bl.clone())
            .expect("default resolver is poisoned in MTNL");
        let site = poisoned
            .iter()
            .copied()
            .find(|&s| lab.india.corpus.site(s).is_alive())
            .expect("an alive poisoned site");
        let v = inspect(&mut lab, IspId::Mtnl, site);
        assert!(v.blocked, "{v:?}");
        assert_eq!(v.kind, Some(CensorKind::Dns));
    }
}

lucent_support::json_object!(ManualVerdict { site, blocked, kind, notice_seen, dead_from_tor });
