//! **Figure 2** — consistency of DNS resolvers in MTNL and BSNL: the
//! percentage of poisoned resolvers blocking each website, plus the
//! coverage numbers (MTNL 383/448 ≈ 77%, BSNL 17/182 ≈ 9.3%) and
//! consistency averages (≈42.4% vs ≈7.5%).

use std::collections::BTreeMap;
use std::fmt;
use std::net::Ipv4Addr;
use std::num::NonZeroU32;

use lucent_topology::IspId;
use lucent_web::SiteId;

use crate::lab::Lab;
use crate::metrics;
use crate::probe::dns_scan::{find_open_resolvers, reference_answers, ResolverScan};
use crate::report;

/// Options for the Figure 2 run.
#[derive(Debug, Clone)]
pub struct Fig2Options {
    /// ISPs to survey.
    pub isps: Vec<IspId>,
    /// Stride when scanning prefixes for open resolvers (1 = every
    /// address, as the paper scanned the whole IPv4 space of the ISP).
    pub scan_stride: NonZeroU32,
    /// Cap on PBWs queried per resolver (None = all 1200).
    pub max_sites: Option<usize>,
}

impl Default for Fig2Options {
    fn default() -> Self {
        Fig2Options { isps: vec![IspId::Mtnl, IspId::Bsnl], scan_stride: NonZeroU32::MIN, max_sites: None }
    }
}

/// One ISP's DNS survey summary.
#[derive(Debug, Clone)]
pub struct DnsRow {
    /// ISP surveyed.
    pub isp: String,
    /// Open resolvers found.
    pub open: usize,
    /// Poisoned resolvers found.
    pub poisoned: usize,
    /// Coverage = poisoned / open.
    pub coverage: f64,
    /// Average fraction of poisoned resolvers blocking a blocked site.
    pub consistency: f64,
    /// Per-site blocking fractions (the figure's Y values), sorted
    /// descending.
    pub series: Vec<f64>,
}

/// The full Figure 2 data.
#[derive(Debug, Clone)]
pub struct Fig2 {
    /// Per-ISP rows.
    pub rows: Vec<DnsRow>,
}

/// The PBW sample a Figure 2 run queries, as a function of the cap
/// alone — every shard derives the same list from its own corpus.
pub fn pbw_sample(lab: &Lab, max_sites: Option<usize>) -> Vec<SiteId> {
    match max_sites {
        Some(n) => lab.india.corpus.pbw.iter().copied().take(n).collect(),
        None => lab.india.corpus.pbw.clone(),
    }
}

/// Phase A output for one ISP: its open resolvers plus the uncensored
/// reference answers (one slot per PBW, `None` where the reference
/// itself timed out).
pub type IspPrep = (Vec<Ipv4Addr>, Vec<Option<Vec<Ipv4Addr>>>);

/// Phase A of one ISP's survey: open-resolver discovery plus the
/// uncensored reference answers. The returned lists are plain data, so
/// phase B can run on different labs (resolver chunks on shards).
pub fn prepare_isp(lab: &mut Lab, isp: IspId, opts: &Fig2Options) -> IspPrep {
    let pbw = pbw_sample(lab, opts.max_sites);
    let resolvers = find_open_resolvers(lab, isp, opts.scan_stride);
    let reference = reference_answers(lab, &pbw);
    (resolvers, reference)
}

/// Assemble one ISP's row from its open-resolver list and the
/// concatenated (submission-order) chunk scans: coverage (§4.1 metric
/// 1), consistency (metric 2) and the per-site blocking fractions
/// behind the figure (share of poisoned resolvers blocking each site,
/// one entry per site blocked anywhere).
pub fn assemble_row(isp: IspId, open: Vec<Ipv4Addr>, poisoned: Vec<ResolverScan>) -> DnsRow {
    let mut counts: BTreeMap<u32, usize> = BTreeMap::new();
    for scan in &poisoned {
        for &site in &scan.manipulated {
            *counts.entry(site).or_insert(0) += 1;
        }
    }
    let n = poisoned.len();
    let counts: Vec<usize> = counts.into_values().collect();
    let mut series: Vec<f64> = counts.iter().map(|&c| c as f64 / n.max(1) as f64).collect();
    series.sort_by(|a, b| b.partial_cmp(a).unwrap_or(std::cmp::Ordering::Equal));
    DnsRow {
        isp: isp.name().to_string(),
        open: open.len(),
        poisoned: n,
        coverage: metrics::coverage(n, open.len()),
        consistency: metrics::consistency(&counts, n),
        series,
    }
}

impl fmt::Display for Fig2 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let rows: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|r| {
                vec![
                    r.isp.clone(),
                    format!("{}", r.open),
                    format!("{}", r.poisoned),
                    report::pct(r.coverage),
                    report::pct(r.consistency),
                    format!("{}", r.series.len()),
                ]
            })
            .collect();
        writeln!(f, "Figure 2: DNS resolver coverage & consistency")?;
        write!(
            f,
            "{}",
            report::table(
                &["ISP", "Open", "Poisoned", "Coverage", "Consistency", "Blocked sites"],
                &rows
            )
        )
    }
}

lucent_support::json_object!(DnsRow { isp, open, poisoned, coverage, consistency, series });
lucent_support::json_object!(Fig2 { rows });
