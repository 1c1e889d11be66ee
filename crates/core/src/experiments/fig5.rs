//! **Figure 5** — consistency of middleboxes: for each site blocked in an
//! ISP, the percentage of poisoned paths blocking it (Idea ≈76.8% ≫
//! Airtel ≈12.3% ≈ Vodafone ≈11.6%).

use std::fmt;

use lucent_topology::IspId;
use lucent_web::SiteId;

use crate::lab::Lab;
use crate::metrics;
use crate::probe::coverage::per_path_blocklists;
use crate::report;

use super::table2::HttpScan;

/// One ISP's consistency measurement.
#[derive(Debug, Clone)]
pub struct IspConsistency {
    /// ISP measured.
    pub isp: String,
    /// Average fraction of poisoned paths blocking a blocked site.
    pub consistency: f64,
    /// Per-site blocking fractions (the figure's Y values), sorted
    /// descending.
    pub series: Vec<f64>,
    /// Number of poisoned paths tested.
    pub paths: usize,
}

/// The full Figure 5 data.
#[derive(Debug, Clone)]
pub struct Fig5 {
    /// Per-ISP series.
    pub rows: Vec<IspConsistency>,
}

/// Compute consistency from a prior Table 2 scan. The scan already
/// enumerated per-path blocklists on its poisoned paths; when present
/// they are reused directly, otherwise (or when `max_paths` exceeds the
/// stored matrix) fresh paths are probed.
pub fn from_scan(lab: &mut Lab, isp: IspId, scan: &HttpScan, max_paths: usize) -> IspConsistency {
    let lists: Vec<(std::net::Ipv4Addr, Vec<SiteId>)> = if !scan.path_blocklists.is_empty() {
        scan.path_blocklists
            .iter()
            .take(max_paths)
            .map(|(t, sites)| (*t, sites.iter().map(|&s| SiteId(s)).collect()))
            .collect()
    } else {
        let client = lab.client_of(isp);
        let targets: Vec<_> = scan.inside.poisoned_targets().into_iter().take(max_paths).collect();
        let candidates: Vec<(SiteId, String)> = scan
            .blocked_sites
            .iter()
            .map(|&s| (SiteId(s), lab.india.corpus.site(SiteId(s)).domain.clone()))
            .collect();
        per_path_blocklists(lab, client, &targets, &candidates)
    };
    let (consistency, series) = metrics::consistency(lists.iter().map(|(_, sites)| sites.as_slice()));
    IspConsistency {
        isp: isp.name().to_string(),
        consistency,
        series,
        paths: lists.len(),
    }
}

impl fmt::Display for Fig5 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let rows: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|r| {
                vec![
                    r.isp.clone(),
                    report::pct(r.consistency),
                    format!("{}", r.paths),
                    format!("{}", r.series.len()),
                ]
            })
            .collect();
        writeln!(f, "Figure 5: Consistency of middleboxes (avg % of poisoned paths blocking a site)")?;
        write!(
            f,
            "{}",
            report::table(&["ISP", "Consistency", "Paths", "Sites"], &rows)
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::table2::{scan_isp, Table2Options};
    use lucent_topology::{India, IndiaConfig};

    #[test]
    fn idea_is_far_more_consistent_than_vodafone_would_be() {
        let mut lab = Lab::new(India::build(IndiaConfig::small()));
        let opts = Table2Options {
            isps: vec![IspId::Idea],
            inside_targets: 20,
            hosts_per_path: 60,
            max_sites: Some(60),
            consistency_paths: 8,
        };
        let scan = scan_isp(&mut lab, IspId::Idea, &opts);
        let cons = from_scan(&mut lab, IspId::Idea, &scan, 8);
        // Idea's per-site q is drawn from (0.56, 0.98): the measured
        // consistency must land high.
        assert!(cons.consistency > 0.5, "{}", cons.consistency);
        assert!(!cons.series.is_empty());
        // Sorted descending.
        assert!(cons.series.windows(2).all(|w| w[0] >= w[1]));
    }
}

lucent_support::json_object!(IspConsistency { isp, consistency, series, paths });
lucent_support::json_object!(Fig5 { rows });
