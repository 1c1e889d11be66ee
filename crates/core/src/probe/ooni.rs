//! A faithful model of OONI web-connectivity's decision logic.
//!
//! Per §3.1/§6.2 of the paper, OONI compares a probe-side measurement
//! with a control-side one and flags a site as censored only when every
//! match signal fails:
//!
//! 1. *body length match* — min/max body-length ratio above 0.7;
//! 2. *header names match* — the response header-name sets are equal;
//! 3. *title match* — compared only when the first word of both titles is
//!    at least five characters long.
//!
//! DNS consistency is "answers overlap"; CDNs violate it routinely, which
//! is one of the false-positive sources the paper documents. The point of
//! reproducing the logic (rather than the published accuracy numbers) is
//! that Table 1's precision/recall then *emerge* from content phenomena.


use lucent_topology::IspId;
use lucent_web::SiteId;

use crate::lab::{Fetch, Lab, FETCH_TIMEOUT_MS};
use crate::probe::CensorKind;

/// OONI's body-length proportion threshold.
pub const BODY_PROPORTION: f64 = 0.7;

/// One web-connectivity measurement.
#[derive(Debug, Clone)]
pub struct OoniMeasurement {
    /// Site measured.
    pub site: u32,
    /// OONI's verdict (None = accessible / anomaly-free).
    pub verdict: Option<CensorKind>,
    /// The three match signals, for diagnostics.
    pub body_length_match: Option<bool>,
    /// Header-name sets equal.
    pub headers_match: Option<bool>,
    /// Title comparison outcome (None = not comparable).
    pub title_match: Option<bool>,
    /// DNS answers overlapped.
    pub dns_consistent: bool,
}

fn title_word_ok(title: &str) -> bool {
    title.split_whitespace().next().map(|w| w.len() >= 5).unwrap_or(false)
}

/// Run web-connectivity for one site from inside `isp`, at OONI's stock
/// body-proportion threshold.
pub fn web_connectivity(lab: &mut Lab, isp: IspId, site: SiteId) -> OoniMeasurement {
    web_connectivity_with(lab, isp, site, BODY_PROPORTION)
}

/// Run web-connectivity with an explicit body-proportion threshold — the
/// ablation knob: lowering it trades recall for precision.
pub fn web_connectivity_with(
    lab: &mut Lab,
    isp: IspId,
    site: SiteId,
    body_proportion: f64,
) -> OoniMeasurement {
    let domain = lab.india.corpus.site(site).domain.clone();
    let client = lab.client_of(isp);
    let resolver = lab.india.isps[&isp].default_resolver;
    let control = lab.india.control;
    let public_dns = lab.india.public_dns_ip;

    // DNS step.
    let probe_dns = lab.resolve(client, resolver, &domain);
    let control_dns = lab.resolve(control, public_dns, &domain);
    let same_slash16 = |a: std::net::Ipv4Addr, b: std::net::Ipv4Addr| {
        a.octets()[0] == b.octets()[0] && a.octets()[1] == b.octets()[1]
    };
    let dns_consistent = if probe_dns.failed() && control_dns.failed() {
        true // both NXDOMAIN: consistent (dead site)
    } else if probe_dns.failed() != control_dns.failed() {
        false
    } else {
        // OONI's consistency test: overlapping answers, or answers that
        // at least look like the same network. CDNs that scatter replicas
        // across providers defeat this — the §3.1 false-positive source.
        probe_dns.ips.iter().any(|ip| control_dns.ips.contains(ip))
            || matches!(
                (probe_dns.ips.first(), control_dns.ips.first()),
                (Some(&a), Some(&b)) if same_slash16(a, b)
            )
    };

    // HTTP step.
    let probe_fetch: Option<Fetch> = probe_dns
        .ips
        .first()
        .copied()
        .map(|ip| lab.http_get(client, ip, &domain, FETCH_TIMEOUT_MS));
    let control_fetch: Option<Fetch> = control_dns
        .ips
        .first()
        .copied()
        .map(|ip| lab.http_get(control, ip, &domain, FETCH_TIMEOUT_MS));

    let probe_resp = probe_fetch.as_ref().and_then(|f| f.response.clone());
    let control_resp = control_fetch.as_ref().and_then(|f| f.response.clone());

    let (body_length_match, headers_match, title_match) = match (&probe_resp, &control_resp) {
        (Some(p), Some(c)) => {
            let (a, b) = (p.body.len() as f64, c.body.len() as f64);
            let blm = if a.max(b) == 0.0 { true } else { a.min(b) / a.max(b) > body_proportion };
            let hm = p.header_names() == c.header_names();
            let tm = match (p.title(), c.title()) {
                (Some(pt), Some(ct)) if title_word_ok(&pt) && title_word_ok(&ct) => {
                    Some(pt == ct)
                }
                _ => None, // not comparable — contributes no match signal
            };
            (Some(blm), Some(hm), tm)
        }
        _ => (None, None, None),
    };

    let probe_failed = probe_fetch.as_ref().is_none_or(Fetch::killed);
    let control_ok = control_fetch.as_ref().map(|f| f.complete()).unwrap_or(false);

    // Per the paper's reading of OONI (§3.1): "if the two IP addresses of
    // the same website are different they assume it to be censorship" —
    // inconsistent resolution is flagged as DNS blocking outright.
    let verdict = if !dns_consistent
        || (probe_dns.ips.is_empty() && !control_dns.ips.is_empty())
    {
        Some(CensorKind::Dns)
    } else if probe_failed && control_ok {
        if probe_fetch.as_ref().map(|f| f.connect_failed).unwrap_or(true) {
            Some(CensorKind::TcpIp)
        } else {
            Some(CensorKind::Http)
        }
    } else if let (Some(blm), Some(hm)) = (body_length_match, headers_match) {
        // Blocking only when *no* match signal holds (§6.2).
        let any_match = blm || hm || title_match == Some(true);
        if control_ok && !any_match {
            Some(CensorKind::Http)
        } else {
            None
        }
    } else {
        None
    };

    OoniMeasurement {
        site: site.0,
        verdict,
        body_length_match,
        headers_match,
        title_match,
        dns_consistent,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lucent_topology::{India, IndiaConfig};

    #[test]
    fn title_word_rule() {
        assert!(title_word_ok("Portal of things"));
        assert!(!title_word_ok("of things"));
        assert!(!title_word_ok(""));
    }

    #[test]
    fn ooni_misses_wiretap_notice_pages() {
        // Airtel: the notice copies server-ish header names and has no
        // title; OONI's headers_match signal then suppresses the flag —
        // the paper's false-negative mechanism.
        let mut lab = Lab::new(India::build(IndiaConfig::tiny()));
        let master: Vec<SiteId> =
            lab.india.truth.http_master[&IspId::Airtel].iter().copied().collect();
        let mut fn_seen = false;
        for &site in master.iter().take(6) {
            if !lab.india.corpus.site(site).is_alive() {
                continue;
            }
            let m = web_connectivity(&mut lab, IspId::Airtel, site);
            if m.verdict.is_none() && m.headers_match == Some(true) {
                fn_seen = true;
                break;
            }
        }
        // At tiny scale OONI clears at least one of the first six alive
        // master-list sites on matching header names.
        assert!(fn_seen, "no OONI false negative among Airtel's first master-list sites");
    }

    #[test]
    fn ooni_flags_nothing_on_a_static_unblocked_site() {
        let mut lab = Lab::new(India::build(IndiaConfig::tiny()));
        let clean = lab
            .india
            .corpus
            .pbw
            .iter()
            .copied()
            .find(|&s| {
                let site = lab.india.corpus.site(s);
                site.is_alive()
                    && site.kind == lucent_web::SiteKind::Normal
                    && !site.dynamic
                    && !site.regional_dns
                    && site.replicas.len() == 1
                    && !lab.india.truth.blocked_for_client(IspId::Nkn, s)
            })
            .unwrap();
        let m = web_connectivity(&mut lab, IspId::Nkn, clean);
        assert!(m.verdict.is_none(), "{m:?}");
        assert!(m.dns_consistent);
    }
}

lucent_support::json_object!(OoniMeasurement { site, verdict, body_length_match, headers_match, title_match, dns_consistent });
