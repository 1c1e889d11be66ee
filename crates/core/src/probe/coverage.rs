//! Coverage and consistency probing of HTTP middleboxes (§4.2.2).
//!
//! Inside view: from the ISP's client, open connections to popular
//! (Alexa-like) destinations and replay PBW Host headers until one
//! triggers — the destination-hashed ECMP fabric makes each destination a
//! distinct router-level path. Outside view: from an external vantage
//! point, the same probing toward hosts with open port 80 inside the ISP
//! (two per live prefix).

use std::net::Ipv4Addr;

use lucent_netsim::NodeId;
use lucent_packet::http::RequestBuilder;
use lucent_topology::IspId;
use lucent_web::SiteId;

use crate::lab::Lab;

/// One probed router-level path.
#[derive(Debug, Clone)]
pub struct PathProbe {
    /// The destination that selects this path.
    pub target: Ipv4Addr,
    /// A censorship response was observed for at least one Host.
    pub poisoned: bool,
    /// How many Hosts were tried before the first trigger (diagnostics).
    pub tried: usize,
}

/// A full coverage scan.
#[derive(Debug, Clone)]
pub struct CoverageScan {
    /// ISP scanned.
    pub isp: String,
    /// Whether the scan ran from inside the ISP.
    pub inside: bool,
    /// Per-path outcomes.
    pub paths: Vec<PathProbe>,
}

impl CoverageScan {
    /// Fraction of probed paths that are poisoned.
    pub fn coverage(&self) -> f64 {
        crate::metrics::coverage(
            self.paths.iter().filter(|p| p.poisoned).count(),
            self.paths.len(),
        )
    }

    /// The poisoned targets.
    pub fn poisoned_targets(&self) -> Vec<Ipv4Addr> {
        self.paths.iter().filter(|p| p.poisoned).map(|p| p.target).collect()
    }
}

/// Observation window after each replayed Host.
const PER_HOST_WINDOW_MS: u64 = 120;

/// Probe one path: raw-connect to `target`, replay `hosts` on the one
/// connection until a censorship response appears or the list is
/// exhausted, then wait `tail_ms` more for slow wiretap injections still
/// in flight (0 skips the wait).
pub fn probe_path(
    lab: &mut Lab,
    from: NodeId,
    target: Ipv4Addr,
    hosts: &[String],
    tail_ms: u64,
) -> PathProbe {
    let Some(mut conn) = lab.raw_open(from, target) else {
        return PathProbe { target, poisoned: false, tried: 0 };
    };
    let mut poisoned = false;
    let mut tried = 0;
    for host in hosts {
        tried += 1;
        let req = RequestBuilder::browser(host, "/").build();
        lab.raw_send(&mut conn, &req, None);
        if lab.raw_observe(&mut conn, PER_HOST_WINDOW_MS).censored() {
            poisoned = true;
            break;
        }
    }
    if !poisoned && tail_ms > 0 {
        poisoned = lab.raw_observe(&mut conn, tail_ms).censored();
    }
    lab.raw_close(&conn);
    PathProbe { target, poisoned, tried }
}

/// Scan from inside the ISP toward up to `max_targets` popular sites,
/// replaying up to `max_hosts` PBW domains per path.
pub fn inside_scan(lab: &mut Lab, isp: IspId, max_targets: usize, max_hosts: usize) -> CoverageScan {
    let client = lab.client_of(isp);
    let targets: Vec<Ipv4Addr> = lab
        .india
        .corpus
        .popular
        .iter()
        .take(max_targets)
        .map(|&s| lab.india.corpus.site(s).replicas[0])
        .collect();
    let hosts: Vec<String> = lab
        .india
        .corpus
        .pbw
        .iter()
        .take(max_hosts)
        .map(|&s| lab.india.corpus.site(s).domain.clone())
        .collect();
    let mut paths = Vec::new();
    for target in targets {
        paths.push(probe_path(lab, client, target, &hosts, 500));
    }
    CoverageScan { isp: isp.name().to_string(), inside: true, paths }
}

/// Scan from an external vantage point toward the ISP's open-port-80
/// hosts (two per prefix, as the paper sampled).
pub fn outside_scan(lab: &mut Lab, isp: IspId, vp_index: usize, max_hosts: usize) -> CoverageScan {
    let (_, vp_node) = lab.india.external_vps[vp_index % lab.india.external_vps.len()];
    let targets: Vec<Ipv4Addr> =
        lab.india.isps[&isp].edge_hosts.iter().map(|(ip, _)| *ip).collect();
    let hosts: Vec<String> = lab
        .india
        .corpus
        .pbw
        .iter()
        .take(max_hosts)
        .map(|&s| lab.india.corpus.site(s).domain.clone())
        .collect();
    let mut paths = Vec::new();
    for target in targets {
        paths.push(probe_path(lab, vp_node, target, &hosts, 500));
    }
    CoverageScan { isp: isp.name().to_string(), inside: false, paths }
}

/// Per-path blocklist measurement for the consistency analysis (Figure
/// 5): on each poisoned path, test each candidate site with a fresh
/// connection and a generous window.
pub fn per_path_blocklists(
    lab: &mut Lab,
    from: NodeId,
    poisoned_targets: &[Ipv4Addr],
    candidates: &[(SiteId, String)],
) -> Vec<(Ipv4Addr, Vec<SiteId>)> {
    let mut out = Vec::new();
    for &target in poisoned_targets {
        let mut blocked = Vec::new();
        for (site, domain) in candidates {
            let req = RequestBuilder::browser(domain, "/").build();
            if lab.crafted(from, target, &req, None, 600).is_some_and(|r| r.censored()) {
                blocked.push(*site);
            }
        }
        out.push((target, blocked));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use lucent_topology::{India, IndiaConfig};

    #[test]
    fn idea_inside_coverage_is_high_and_jio_outside_is_zero() {
        let mut lab = Lab::new(India::build(IndiaConfig::tiny()));
        let idea = inside_scan(&mut lab, IspId::Idea, 10, 40);
        assert!(idea.coverage() > 0.5, "Idea inside coverage {}", idea.coverage());

        let jio_out = outside_scan(&mut lab, IspId::Jio, 0, 40);
        assert_eq!(jio_out.coverage(), 0.0, "Jio invisible from outside");
    }

    #[test]
    fn jio_inside_coverage_is_nonzero_but_low() {
        let mut lab = Lab::new(India::build(IndiaConfig::tiny()));
        let jio = inside_scan(&mut lab, IspId::Jio, 16, 40);
        let c = jio.coverage();
        assert!(c < 0.5, "Jio inside coverage should be low: {c}");
    }

    #[test]
    fn nkn_scan_sees_only_border_collateral() {
        // NKN deploys nothing itself, but all its egress transits
        // Vodafone/TATA border devices — an inside scan with PBW Hosts
        // legitimately reports those as poisoned paths (the
        // collateral-damage phenomenon of §4.3). What distinguishes NKN
        // from a censoring ISP is that the blocklist behind the trigger
        // is the *border* list, and NKN's own device list is empty.
        let mut lab = Lab::new(India::build(IndiaConfig::tiny()));
        assert!(lab.india.isps[&IspId::Nkn].devices.is_empty());
        let nkn = inside_scan(&mut lab, IspId::Nkn, 6, 40);
        let c = nkn.coverage();
        assert!((0.0..=1.0).contains(&c), "{c}");
    }
}

lucent_support::json_object!(PathProbe { target, poisoned, tried });
lucent_support::json_object!(CoverageScan { isp, inside, paths });
