//! **Table 1** — accuracy of OONI: precision and recall per ISP per
//! censorship type, scored against manual inspection, plus the §3.1
//! in-text statistics (Airtel FP ≈ 80%, FN ≈ 11.6%; 30–40% of
//! threshold-flagged sites turn out non-censored).

use std::fmt;


use lucent_topology::IspId;
use lucent_web::SiteId;

use crate::lab::Lab;
use crate::metrics::PrecisionRecall;
use crate::probe::manual::inspect;
use crate::probe::ooni::web_connectivity;
use crate::probe::CensorKind;
use crate::report;

/// Options for the Table 1 run.
#[derive(Debug, Clone)]
pub struct Table1Options {
    /// ISPs to audit (the paper tested five).
    pub isps: Vec<IspId>,
    /// Cap on PBWs tested per ISP (None = all).
    pub max_sites: Option<usize>,
}

impl Default for Table1Options {
    fn default() -> Self {
        Table1Options {
            isps: vec![IspId::Mtnl, IspId::Airtel, IspId::Idea, IspId::Vodafone, IspId::Jio],
            max_sites: None,
        }
    }
}

/// One ISP row of Table 1.
#[derive(Debug, Clone)]
pub struct IspAccuracy {
    /// ISP name.
    pub isp: String,
    /// Overall blocked-or-not accuracy.
    pub total: PrecisionRecall,
    /// DNS-type accuracy.
    pub dns: PrecisionRecall,
    /// TCP-type accuracy.
    pub tcp: PrecisionRecall,
    /// HTTP-type accuracy.
    pub http: PrecisionRecall,
    /// Sites OONI called blocked (|B_O|).
    pub ooni_blocked: usize,
    /// Sites manual inspection called blocked (|B_M|).
    pub manual_blocked: usize,
}

/// The full Table 1.
#[derive(Debug, Clone)]
pub struct Table1 {
    /// One row per ISP.
    pub rows: Vec<IspAccuracy>,
    /// Number of sites tested per ISP.
    pub sites_tested: usize,
}

/// The PBW sample a Table 1 run audits, as a function of the cap alone:
/// every shard computes the same list from its own (identically seeded)
/// corpus.
pub fn site_sample(lab: &Lab, max_sites: Option<usize>) -> Vec<SiteId> {
    match max_sites {
        Some(n) => lab.india.corpus.pbw.iter().copied().take(n).collect(),
        None => lab.india.corpus.pbw.clone(),
    }
}

/// Audit one ISP over `sites`.
pub fn run_isp(lab: &mut Lab, isp: IspId, sites: &[SiteId]) -> IspAccuracy {
    let mut total = PrecisionRecall::default();
    let mut dns = PrecisionRecall::default();
    let mut tcp = PrecisionRecall::default();
    let mut http = PrecisionRecall::default();
    let mut ooni_blocked = 0;
    let mut manual_blocked = 0;
    for &site in sites {
        let manual = inspect(lab, isp, site);
        let ooni = web_connectivity(lab, isp, site);
        if ooni.verdict.is_some() {
            ooni_blocked += 1;
        }
        if manual.blocked {
            manual_blocked += 1;
        }
        total.record(ooni.verdict.is_some(), manual.blocked);
        dns.record(
            ooni.verdict == Some(CensorKind::Dns),
            manual.blocked && manual.kind == Some(CensorKind::Dns),
        );
        tcp.record(
            ooni.verdict == Some(CensorKind::TcpIp),
            manual.blocked && manual.kind == Some(CensorKind::TcpIp),
        );
        http.record(
            ooni.verdict == Some(CensorKind::Http),
            manual.blocked && manual.kind == Some(CensorKind::Http),
        );
    }
    IspAccuracy {
        isp: isp.name().to_string(),
        total,
        dns,
        tcp,
        http,
        ooni_blocked,
        manual_blocked,
    }
}

impl fmt::Display for Table1 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let rows: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|r| {
                vec![
                    r.isp.clone(),
                    report::pr_cell(r.total.precision(), r.total.recall()),
                    report::pr_cell(r.dns.precision(), r.dns.recall()),
                    report::pr_cell(r.tcp.precision(), r.tcp.recall()),
                    report::pr_cell(r.http.precision(), r.http.recall()),
                    format!("{}", r.ooni_blocked),
                    format!("{}", r.manual_blocked),
                ]
            })
            .collect();
        writeln!(
            f,
            "Table 1: Accuracy of OONI (precision, recall) — {} sites/ISP",
            self.sites_tested
        )?;
        write!(
            f,
            "{}",
            report::table(&["ISP", "Total", "DNS", "TCP", "HTTP", "|B_O|", "|B_M|"], &rows)
        )
    }
}

/// §3.1 in-text statistic: of the sites the 0.3 diff threshold flags,
/// what fraction does manual inspection clear as non-censored? (The
/// paper: 30–40% across ISPs; this is the step OONI skips.)
#[derive(Debug, Clone)]
pub struct ThresholdAudit {
    /// ISP audited.
    pub isp: String,
    /// Sites the threshold flagged.
    pub flagged: usize,
    /// Flagged sites manual inspection cleared.
    pub cleared: usize,
}

impl ThresholdAudit {
    /// Fraction of flagged sites that were not actually censored.
    pub fn cleared_fraction(&self) -> f64 {
        if self.flagged == 0 {
            0.0
        } else {
            self.cleared as f64 / self.flagged as f64
        }
    }
}

/// Run the threshold audit for one ISP.
pub fn threshold_audit(lab: &mut Lab, isp: IspId, max_sites: Option<usize>) -> ThresholdAudit {
    let sites: Vec<SiteId> = match max_sites {
        Some(n) => lab.india.corpus.pbw.iter().copied().take(n).collect(),
        None => lab.india.corpus.pbw.clone(),
    };
    let mut flagged = 0;
    let mut cleared = 0;
    for site in sites {
        let d = crate::probe::detect::detect_site(lab, isp, site);
        if d.flagged_by_threshold {
            flagged += 1;
            if d.confirmed == Some(false) {
                cleared += 1;
            }
        }
    }
    ThresholdAudit { isp: isp.name().to_string(), flagged, cleared }
}

lucent_support::json_object!(IspAccuracy { isp, total, dns, tcp, http, ooni_blocked, manual_blocked });
lucent_support::json_object!(Table1 { rows, sites_tested });
lucent_support::json_object!(ThresholdAudit { isp, flagged, cleared });
