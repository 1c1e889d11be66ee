//! **X4 (§5)** — the anti-censorship evaluation: every technique against
//! every censoring ISP's blocked sites, without proxies, VPNs or Tor.

use std::collections::BTreeMap;
use std::fmt;


use lucent_middlebox::notice::looks_like_notice;
use lucent_topology::IspId;
use lucent_web::SiteId;

use crate::anticensor::{attempt, Technique};
use crate::lab::Lab;
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
    let master: Vec<SiteId> = lab
        .india
        .truth
        .http_master
        .get(&isp)
        .map(|m| m.iter().copied().collect())
        .unwrap_or_default();
    let client = lab.client_of(isp);
    let mut out = Vec::new();
    for site in master {
        let s = lab.india.corpus.site(site);
        // Single-replica sites only: a CDN name resolves to different
        // replicas (and thus different paths) per resolver, which would
        // let the DNS technique "evade" path-based HTTP filtering by
        // accident and confound the matrix.
        if !s.is_alive() || s.kind != lucent_web::SiteKind::Normal || s.regional_dns {
            continue;
        }
        let (domain, ip) = (s.domain.clone(), s.replicas[0]);
        let mut censored = false;
        for _ in 0..2 {
            let f = lab.http_get(client, ip, &domain, 3_000);
            if f.was_reset()
                || f.hit_timeout()
                || f.response.as_ref().map(looks_like_notice).unwrap_or(false)
            {
                censored = true;
                break;
            }
        }
        if censored {
            out.push(site);
            if out.len() >= want {
                break;
            }
        }
    }
    out
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
