//! The "manual inspection" procedure.
//!
//! The paper corroborates every automated verdict by hand: a human fetches
//! the site, looks at what renders, retries, and decides. This module is
//! that human, mechanized — it uses only information a person at the
//! client could see (never the simulator's ground truth): the rendered
//! page, the ISP's DNS answer, a Tor-side fetch for comparison, and
//! well-known block-page fingerprints.


use lucent_packet::ipv4::is_bogon;
use lucent_topology::IspId;
use lucent_web::SiteId;

use crate::lab::{Fetch, Lab, FETCH_TIMEOUT_MS};
use crate::probe::classify::Blocked;
use crate::probe::dns_scan::{judge_answer, Answer};
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

/// A person's reading of a page they retry: take up to
/// [`MANUAL_RETRIES`] fetches from `fetches`, stopping at the first
/// notice page, which blocks the page. Without a notice the page is
/// blocked only if all [`MANUAL_RETRIES`] fetches were killed
/// ([`Fetch::killed`]) while Tor loads it (`tor_loads`). A wiretap
/// that loses some races still censors, so a rendered page never clears
/// one that drew a notice. `fetches` is pulled lazily: every fetch
/// advances the simulation, so none is made after the reading is
/// decided.
pub fn confirm(fetches: impl IntoIterator<Item = Fetch>, tor_loads: bool) -> Option<Blocked> {
    let mut killed = 0;
    for f in fetches.into_iter().take(MANUAL_RETRIES) {
        if f.shows_notice() {
            return f.response.map(Blocked::Notice);
        }
        killed += usize::from(f.killed());
    }
    (killed == MANUAL_RETRIES && tor_loads).then_some(Blocked::Killed)
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
    let tor_ok = tor_dns
        .ips
        .first()
        .is_some_and(|&ip| lab.http_get(tor, ip, &domain, FETCH_TIMEOUT_MS).clean());

    // Step 1: the ISP's DNS answer. NXDOMAIN for a dead site is just a
    // dead site; a disjoint answer is a CDN artifact unless the address
    // is nonsense (bogon) or suspiciously inside the access ISP itself.
    let isp_dns = lab.resolve(client, resolver, &domain);
    if judge_answer(&isp_dns.ips, &tor_dns.ips, client_prefix) == Answer::Manipulated {
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
    let fetches = std::iter::repeat_with(|| lab.http_get(client, ip, &domain, FETCH_TIMEOUT_MS));
    let reading = confirm(fetches, tor_ok);
    ManualVerdict {
        site: site.0,
        blocked: reading.is_some(),
        kind: reading.is_some().then_some(CensorKind::Http),
        notice_seen: matches!(reading, Some(Blocked::Notice(_))),
        dead_from_tor: !tor_ok,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lucent_middlebox::notice::NoticeStyle;
    use lucent_packet::HttpResponse;
    use lucent_tcp::{SocketEvent, SocketId};
    use lucent_topology::{India, IndiaConfig};

    fn fetch(response: Option<HttpResponse>, events: Vec<SocketEvent>) -> Fetch {
        Fetch { sock: SocketId(0), bytes: Vec::new(), response, events, connect_failed: false }
    }

    #[test]
    fn confirm_pulls_one_fetch_on_a_notice_and_three_otherwise() {
        let notice = fetch(Some(NoticeStyle::airtel_like().render()), Vec::new());
        let page = HttpResponse::new(200, "OK", b"<html><title>Hello there</title></html>".to_vec());
        let rendered = fetch(Some(page), Vec::new());
        let reset = fetch(None, vec![SocketEvent::Reset]);
        let refused = Fetch { connect_failed: true, ..fetch(None, Vec::new()) };
        // (script, Tor loads the page, fetches pulled, blocked, by notice)
        let table = [
            (vec![&notice; 4], true, 1, true, true),
            (vec![&rendered, &notice, &rendered, &rendered], true, 2, true, true),
            (vec![&reset, &reset, &notice, &rendered], false, 3, true, true),
            (vec![&rendered; 4], true, 3, false, false),
            (vec![&reset, &refused, &reset, &rendered], true, 3, true, false),
            (vec![&reset; 4], false, 3, false, false),
            (vec![&reset, &rendered, &reset, &reset], true, 3, false, false),
        ];
        for (i, (script, tor_loads, pulls, blocked, by_notice)) in table.into_iter().enumerate() {
            let mut pulled = 0;
            let fetches = std::iter::from_fn(|| {
                pulled += 1;
                script.get(pulled - 1).map(|&f| f.clone())
            });
            let reading = confirm(fetches, tor_loads);
            assert_eq!(pulled, pulls, "row {i}: fetches pulled");
            assert_eq!(reading.is_some(), blocked, "row {i}: {reading:?}");
            assert_eq!(matches!(reading, Some(Blocked::Notice(_))), by_notice, "row {i}");
        }
    }

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
