//! **Table 3** — collateral damage within the country: non-censorious
//! ISPs whose transit providers censor their traffic, with per-censor
//! attribution (NKN ← Vodafone/TATA, Sify ← TATA/Airtel, Siti ← Airtel,
//! MTNL ← TATA/Airtel, BSNL ← TATA/Airtel).

use std::collections::BTreeMap;
use std::fmt;
use std::net::Ipv4Addr;

use lucent_packet::HttpResponse;
use lucent_topology::IspId;

use crate::lab::Lab;
use crate::probe::classify::{blocked_on_retries, Blocked};
use crate::probe::tracer::http_tracer;
use crate::report;

/// Options for the Table 3 run.
#[derive(Debug, Clone)]
pub struct Table3Options {
    /// Victim ISPs to audit.
    pub victims: Vec<IspId>,
    /// Cap on PBWs tested (None = all).
    pub max_sites: Option<usize>,
}

impl Default for Table3Options {
    fn default() -> Self {
        Table3Options {
            victims: vec![IspId::Nkn, IspId::Sify, IspId::Siti, IspId::Mtnl, IspId::Bsnl],
            max_sites: None,
        }
    }
}

/// One victim's measurements: censor → blocked-site count.
#[derive(Debug, Clone)]
pub struct VictimRow {
    /// The victim ISP.
    pub victim: String,
    /// Attributed blocked counts per censor name (plus "?" if the censor
    /// could not be identified).
    pub by_censor: BTreeMap<String, usize>,
}

/// The full Table 3.
#[derive(Debug, Clone)]
pub struct Table3 {
    /// One row per victim.
    pub rows: Vec<VictimRow>,
}

/// Attribute a censorship notice to an ISP by its block-page signature
/// (§6.1 heuristic 3): every censor's iframe URL is distinctive.
fn attribute_by_notice(lab: &Lab, resp: &HttpResponse) -> Option<IspId> {
    for (isp, profile) in &lab.india.cfg.http {
        if let Some(style) = profile.policy.notice() {
            if style.matches(resp) {
                return Some(*isp);
            }
        }
    }
    None
}

/// Attribute by path position (§6.1 heuristic 2): run the iterative
/// tracer, then identify the AS of the first traceroute-visible hop at or
/// after the triggering TTL.
fn attribute_by_path(lab: &mut Lab, victim: IspId, ip: Ipv4Addr, domain: &str) -> Option<IspId> {
    let client = lab.client_of(victim);
    let trace = http_tracer(lab, client, ip, domain, 24);
    let at = trace.censored_at_ttl?;
    let route = lab.traceroute(client, ip, 24);
    for hop in route.hops.iter().skip(usize::from(at) - 1) {
        let Some(hop_ip) = hop else { continue };
        for isp in IspId::ALL {
            if isp.prefix().contains(*hop_ip) {
                return Some(isp);
            }
        }
    }
    None
}

/// Run the experiment.
pub fn run(lab: &mut Lab, opts: &Table3Options) -> Table3 {
    let sites = lab.india.corpus.pbw_sample(opts.max_sites);
    let public_dns = lab.india.public_dns_ip;
    let mut rows = Vec::new();
    for &victim in &opts.victims {
        let client = lab.client_of(victim);
        let mut by_censor: BTreeMap<String, usize> = BTreeMap::new();
        for &site in &sites {
            let domain = lab.india.corpus.site(site).domain.clone();
            // Resolve via the public resolver: Table 3 isolates *HTTP*
            // collateral, so the victim's own DNS poisoning (MTNL/BSNL)
            // must not interfere.
            let dns = lab.resolve(client, public_dns, &domain);
            let Some(&ip) = dns.ips.first() else { continue };
            let censor = match blocked_on_retries(lab, client, ip, &domain, 3) {
                None => continue,
                Some(Blocked::Killed) => attribute_by_path(lab, victim, ip, &domain),
                // A notice no censor's signature matches is not counted.
                Some(Blocked::Notice(resp)) => match attribute_by_notice(lab, &resp) {
                    None => continue,
                    found => found,
                },
            };
            let name = censor.map(|c| c.name().to_string()).unwrap_or_else(|| "?".into());
            *by_censor.entry(name).or_insert(0) += 1;
        }
        rows.push(VictimRow { victim: victim.name().to_string(), by_censor });
    }
    Table3 { rows }
}

impl fmt::Display for Table3 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let rows: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|r| {
                let detail = r
                    .by_censor
                    .iter()
                    .map(|(c, n)| format!("{c} ({n})"))
                    .collect::<Vec<_>>()
                    .join(", ");
                vec![r.victim.clone(), detail]
            })
            .collect();
        writeln!(f, "Table 3: Collateral damage (victim ← censoring neighbours)")?;
        write!(f, "{}", report::table(&["ISP (censored)", "Neighbours causing censorship"], &rows))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lucent_topology::{India, IndiaConfig};

    #[test]
    fn nkn_collateral_attributed_to_vodafone_and_not_to_nkn() {
        let mut lab = Lab::new(India::build(IndiaConfig::tiny()));
        let t = run(
            &mut lab,
            &Table3Options { victims: vec![IspId::Nkn], max_sites: None },
        );
        let row = &t.rows[0];
        // In the tiny config the NKN←Vodafone border blocks 2 sites and
        // NKN←TATA rounds to 0; every attributed censor must be a transit,
        // never NKN itself.
        assert!(!row.by_censor.contains_key("NKN"), "{row:?}");
        let voda = row.by_censor.get("Vodafone").copied().unwrap_or(0);
        let truth = lab.india.truth.border_blocklist(IspId::Nkn, IspId::Vodafone)
            .map(|s| s.len())
            .unwrap_or(0);
        assert!(voda > 0, "{row:?} (truth {truth})");
        assert!(voda <= truth, "{row:?} (truth {truth})");
    }
}

lucent_support::json_object!(VictimRow { victim, by_censor });
lucent_support::json_object!(Table3 { rows });
