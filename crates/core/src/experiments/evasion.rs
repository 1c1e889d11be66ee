//! **X4 (§5)** — the anti-censorship evaluation: every technique against
//! every censoring ISP's blocked sites, without proxies, VPNs or Tor.

use std::collections::BTreeMap;
use std::fmt;


use lucent_topology::IspId;
use lucent_web::{SiteId, SiteKind};

use crate::anticensor::{attempt, Technique};
use crate::lab::Lab;
use crate::probe::classify::censored_sites;
use crate::report;

/// Options for the evasion evaluation.
#[derive(Debug, Clone)]
pub struct EvasionOptions {
    /// ISPs to evaluate (HTTP censors + DNS censors).
    pub isps: Vec<IspId>,
    /// Blocked sites sampled per ISP.
    pub sites_per_isp: usize,
    /// Techniques to try.
    pub techniques: Vec<Technique>,
}

impl Default for EvasionOptions {
    fn default() -> Self {
        EvasionOptions {
            isps: vec![
                IspId::Airtel,
                IspId::Idea,
                IspId::Vodafone,
                IspId::Jio,
                IspId::Mtnl,
                IspId::Bsnl,
            ],
            sites_per_isp: 5,
            techniques: Technique::ALL.to_vec(),
        }
    }
}

/// One (ISP, technique) cell.
#[derive(Debug, Clone)]
pub struct EvasionCell {
    /// Successful evasions.
    pub success: usize,
    /// Sites attempted.
    pub attempts: usize,
}

/// The evasion matrix.
#[derive(Debug, Clone)]
pub struct Evasion {
    /// ISP → technique name → cell.
    pub matrix: BTreeMap<String, BTreeMap<String, EvasionCell>>,
    /// Per ISP: whether at least one technique achieved 100% evasion
    /// (the paper: "we managed to anti-censor all blocked websites in
    /// all ISPs").
    pub fully_evaded: BTreeMap<String, bool>,
}

/// HTTP-censored sample: sites actually censored on the client's direct
/// path. DNS censors use their poisoned default resolver's list instead.
fn sample_sites(lab: &mut Lab, isp: IspId, want: usize) -> Vec<SiteId> {
    if let Some(resolvers) = lab.india.truth.dns_resolvers.get(&isp) {
        let default = lab.india.isps[&isp].default_resolver;
        if let Some((_, bl)) = resolvers.iter().find(|(ip, _)| *ip == default) {
            let borders: Vec<SiteId> = lab
                .india
                .truth
                .borders
                .iter()
                .filter(|((v, _), _)| *v == isp)
                .flat_map(|(_, s)| s.iter().copied())
                .collect();
            return bl
                .iter()
                .copied()
                .filter(|&s| lab.india.corpus.site(s).is_alive() && !borders.contains(&s))
                .take(want)
                .collect();
        }
    }
    // Single-replica sites only: a CDN name resolves to different
    // replicas (and thus different paths) per resolver, which would let
    // the DNS technique "evade" path-based HTTP filtering by accident
    // and confound the matrix.
    censored_sites(lab, isp, want, |s| {
        s.is_alive() && s.kind == SiteKind::Normal && !s.regional_dns
    })
}

/// Evaluate one ISP: its technique → cell map, plus the
/// fully-evaded flag.
pub fn run_isp(
    lab: &mut Lab,
    isp: IspId,
    opts: &EvasionOptions,
) -> (BTreeMap<String, EvasionCell>, bool) {
    let sites = sample_sites(lab, isp, opts.sites_per_isp);
    let mut per_technique: BTreeMap<String, EvasionCell> = BTreeMap::new();
    for &tech in &opts.techniques {
        let mut cell = EvasionCell { success: 0, attempts: 0 };
        for &site in &sites {
            cell.attempts += 1;
            if attempt(lab, isp, site, tech).success {
                cell.success += 1;
            }
        }
        per_technique.insert(tech.name().to_string(), cell);
    }
    let full = !sites.is_empty()
        && per_technique
            .values()
            .any(|c| c.attempts > 0 && c.success == c.attempts);
    (per_technique, full)
}

impl fmt::Display for Evasion {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let technique_names: Vec<String> = self
            .matrix
            .values()
            .next()
            .map(|m| m.keys().cloned().collect())
            .unwrap_or_default();
        let mut headers: Vec<&str> = vec!["ISP"];
        for t in &technique_names {
            headers.push(t);
        }
        headers.push("fully evaded");
        let rows: Vec<Vec<String>> = self
            .matrix
            .iter()
            .map(|(isp, cells)| {
                let mut row = vec![isp.clone()];
                for t in &technique_names {
                    let c = &cells[t];
                    row.push(if c.attempts == 0 {
                        "-".into()
                    } else {
                        format!("{}/{}", c.success, c.attempts)
                    });
                }
                row.push(format!("{}", self.fully_evaded.get(isp).copied().unwrap_or(false)));
                row
            })
            .collect();
        writeln!(f, "Anti-censorship evaluation (successes/attempts per technique)")?;
        write!(f, "{}", report::table(&headers, &rows))
    }
}

lucent_support::json_object!(EvasionCell { success, attempts });
lucent_support::json_object!(Evasion { matrix, fully_evaded });
