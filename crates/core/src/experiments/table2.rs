//! **Table 2** — HTTP filtering per ISP: coverage from a vantage point
//! inside the ISP, coverage from vantage points outside, middlebox type,
//! and the number of blocked sites.

use std::fmt;

use lucent_topology::IspId;
use lucent_web::SiteId;

use crate::lab::{Lab, FETCH_TIMEOUT_MS};
use crate::probe::classify::{blocked_on_retries, classify_by_remote_hosts, MeasuredKind};
use crate::probe::coverage::{inside_scan, outside_scan, CoverageScan};
use crate::report;

/// Options for the Table 2 run.
#[derive(Debug, Clone)]
pub struct Table2Options {
    /// ISPs to scan (the paper's four HTTP censors).
    pub isps: Vec<IspId>,
    /// Popular-site targets for the inside scan.
    pub inside_targets: usize,
    /// PBW Hosts replayed per path.
    pub hosts_per_path: usize,
    /// Cap on PBWs for blocked-set discovery (None = all).
    pub max_sites: Option<usize>,
    /// Poisoned paths on which per-path blocklists are enumerated (the
    /// matrix behind both the blocked counts and Figure 5).
    pub consistency_paths: usize,
}

impl Default for Table2Options {
    fn default() -> Self {
        Table2Options {
            isps: vec![IspId::Airtel, IspId::Idea, IspId::Vodafone, IspId::Jio],
            inside_targets: 200,
            hosts_per_path: 400,
            max_sites: None,
            consistency_paths: 40,
        }
    }
}

/// Everything one ISP's HTTP scan produced (reused by Figure 5).
#[derive(Debug, Clone)]
pub struct HttpScan {
    /// ISP scanned.
    pub isp: String,
    /// Sites observed blocked from the inside client.
    pub blocked_sites: Vec<u32>,
    /// Inside coverage scan.
    pub inside: CoverageScan,
    /// Outside coverage scan.
    pub outside: CoverageScan,
    /// Per-poisoned-path blocklists (target, blocked site ids) — the
    /// matrix Figure 5's consistency is computed from.
    pub path_blocklists: Vec<(std::net::Ipv4Addr, Vec<u32>)>,
    /// Measured middlebox kind (None = could not classify).
    pub kind: Option<MeasuredKind>,
    /// Whether a notification page was observed (overt) vs bare resets.
    pub overt: bool,
}

/// Sites blocked on the client's own direct paths: fetches by
/// honestly-resolved address, judged on block-page signatures and
/// reproducible resets (two attempts absorb the wiretap race). This is
/// a *lower bound* on the ISP's list — each site is only ever tested on
/// the one path its server address hashes to; the per-path enumeration
/// below recovers the rest, as the paper's path scans did.
pub fn direct_blocked_set(lab: &mut Lab, isp: IspId, max_sites: Option<usize>) -> Vec<SiteId> {
    let sites = lab.india.corpus.pbw_sample(max_sites);
    let client = lab.client_of(isp);
    let public_dns = lab.india.public_dns_ip;
    let mut blocked = Vec::new();
    for site in sites {
        let domain = lab.india.corpus.site(site).domain.clone();
        let dns = lab.resolve(client, public_dns, &domain);
        let Some(&ip) = dns.ips.first() else { continue };
        if blocked_on_retries(lab, client, ip, &domain, 2).is_some() {
            blocked.push(site);
        }
    }
    blocked
}

/// Scan one ISP fully.
pub fn scan_isp(lab: &mut Lab, isp: IspId, opts: &Table2Options) -> HttpScan {
    let direct = direct_blocked_set(lab, isp, opts.max_sites);
    let inside = inside_scan(lab, isp, opts.inside_targets, opts.hosts_per_path);
    let outside = outside_scan(lab, isp, 0, opts.hosts_per_path);
    // Enumerate per-path blocklists on a sample of poisoned paths; the
    // ISP's observed blocked set is the union across paths plus the
    // direct finds.
    let client = lab.client_of(isp);
    let targets: Vec<std::net::Ipv4Addr> = inside
        .poisoned_targets()
        .into_iter()
        .take(opts.consistency_paths)
        .collect();
    let candidates: Vec<(SiteId, String)> = lab
        .india
        .corpus
        .pbw_sample(opts.max_sites)
        .into_iter()
        .map(|s| (s, lab.india.corpus.site(s).domain.clone()))
        .collect();
    let path_blocklists_raw =
        crate::probe::coverage::per_path_blocklists(lab, client, &targets, &candidates);
    let direct_confirmed = direct.clone();
    let mut blocked: std::collections::BTreeSet<SiteId> = direct.into_iter().collect();
    for (_, sites) in &path_blocklists_raw {
        blocked.extend(sites.iter().copied());
    }
    let blocked: Vec<SiteId> = blocked.into_iter().collect();
    let path_blocklists: Vec<(std::net::Ipv4Addr, Vec<u32>)> = path_blocklists_raw
        .into_iter()
        .map(|(t, sites)| (t, sites.into_iter().map(|s| s.0).collect()))
        .collect();
    // Classify with a blocked domain (fall back across the set — the
    // remote path's device needs the domain in its list).
    let mut kind = None;
    let mut overt = false;
    for &site in blocked.iter().take(6) {
        let domain = lab.india.corpus.site(site).domain.clone();
        if let Some((k, report)) = classify_by_remote_hosts(lab, isp, &domain) {
            kind = Some(k);
            overt = report.client_saw_notice;
            break;
        }
    }
    // When no controlled-remote path is covered (Jio's middleboxes only
    // watch inside-sourced flows toward few cores), fall back to the race
    // and ICMP-consumption tests — preferring sites already confirmed
    // censored on the client's own direct paths.
    if kind.is_none() {
        let fallback: Vec<SiteId> = direct_confirmed
            .iter()
            .copied()
            .chain(blocked.iter().copied())
            .take(24)
            .collect();
        for site in fallback {
            let s = lab.india.corpus.site(site);
            if !s.is_alive() {
                continue;
            }
            let (domain, ip) = (s.domain.clone(), s.replicas[0]);
            // Confirm this path is actually censored before classifying
            // (two tries absorb the wiretap race).
            let censored = (0..2).any(|_| {
                let probe = lab.http_get(client, ip, &domain, FETCH_TIMEOUT_MS);
                overt |= probe.shows_notice();
                probe.censored()
            });
            if !censored {
                continue;
            }
            let (rendered, _) = crate::probe::classify::render_rate(lab, isp, site, 10);
            if rendered > 0 {
                kind = Some(MeasuredKind::Wiretap);
            } else {
                let allowed = lab
                    .india
                    .corpus
                    .popular
                    .first()
                    .map(|&p| lab.india.corpus.site(p).domain.clone())
                    .unwrap_or_default();
                let icmp =
                    crate::probe::classify::icmp_consumption(lab, isp, ip, &domain, &allowed, 3);
                kind = icmp.verdict();
            }
            if kind.is_some() {
                break;
            }
        }
    }
    HttpScan {
        isp: isp.name().to_string(),
        blocked_sites: blocked.iter().map(|s| s.0).collect(),
        inside,
        outside,
        path_blocklists,
        kind,
        overt,
    }
}

/// The full Table 2.
#[derive(Debug, Clone)]
pub struct Table2 {
    /// Per-ISP scans.
    pub scans: Vec<HttpScan>,
}

/// Run the experiment.
pub fn run(lab: &mut Lab, opts: &Table2Options) -> Table2 {
    let scans = opts.isps.iter().map(|&isp| scan_isp(lab, isp, opts)).collect();
    Table2 { scans }
}

impl fmt::Display for Table2 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let rows: Vec<Vec<String>> = self
            .scans
            .iter()
            .map(|s| {
                let kind = match (s.kind, s.overt) {
                    (Some(MeasuredKind::Wiretap), _) => "WM",
                    (Some(MeasuredKind::Interceptive), true) => "IM (overt)",
                    (Some(MeasuredKind::Interceptive), false) => "IM (covert)",
                    (None, _) => "?",
                };
                vec![
                    s.isp.clone(),
                    report::pct(s.inside.coverage()),
                    report::pct(s.outside.coverage()),
                    kind.to_string(),
                    format!("{}", s.blocked_sites.len()),
                ]
            })
            .collect();
        writeln!(f, "Table 2: HTTP filtering in different ISPs")?;
        write!(
            f,
            "{}",
            report::table(
                &["ISP", "Coverage (inside VP)", "Coverage (outside VPs)", "Middlebox", "Blocked"],
                &rows
            )
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lucent_topology::{India, IndiaConfig};

    #[test]
    fn table2_orderings_hold_in_a_small_world() {
        let mut lab = Lab::new(India::build(IndiaConfig::small()));
        let opts = Table2Options {
            isps: vec![IspId::Idea, IspId::Jio],
            inside_targets: 24,
            hosts_per_path: 60,
            max_sites: Some(60),
            consistency_paths: 8,
        };
        let t = run(&mut lab, &opts);
        let idea = &t.scans[0];
        let jio = &t.scans[1];
        // Idea's coverage dwarfs Jio's, inside and out.
        assert!(idea.inside.coverage() > 0.6, "{}", idea.inside.coverage());
        assert!(jio.inside.coverage() < idea.inside.coverage());
        assert_eq!(jio.outside.coverage(), 0.0, "Jio invisible from outside");
        assert!(idea.outside.coverage() > 0.5);
        // Both found blocked sites.
        assert!(!idea.blocked_sites.is_empty());
        // Display renders.
        assert!(t.to_string().contains("Idea"));
    }
}

lucent_support::json_object!(HttpScan { isp, blocked_sites, inside, outside, path_blocklists, kind, overt });
lucent_support::json_object!(Table2 { scans });
