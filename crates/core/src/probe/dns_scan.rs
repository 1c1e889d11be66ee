//! Open-resolver discovery and censorious-resolver identification
//! (§3.2-III): scan the ISP's address space with a known-good query, then
//! hit every responder with the full PBW list.

use std::net::Ipv4Addr;
use std::num::NonZeroU32;

use lucent_packet::ipv4::is_bogon;
use lucent_topology::IspId;
use lucent_web::SiteId;

use crate::lab::Lab;

/// Per-resolver scan outcome.
#[derive(Debug, Clone)]
pub struct ResolverScan {
    /// The resolver's address.
    pub resolver: Ipv4Addr,
    /// Sites it answered with a manipulated address.
    pub manipulated: Vec<u32>,
}

/// Discover open resolvers by querying every address of the ISP's leaf
/// prefixes for a well-known uncensored name (§3.2-III "our own
/// institution's website" — here a popular site with a known answer).
/// Probes host offsets 2, 2 + `stride`, 2 + 2·`stride`, … of each prefix.
pub fn find_open_resolvers(lab: &mut Lab, isp: IspId, stride: NonZeroU32) -> Vec<Ipv4Addr> {
    let probe_site = lab.india.corpus.popular[0];
    let domain = lab.india.corpus.site(probe_site).domain.clone();
    let expected: Vec<Ipv4Addr> = lab.india.corpus.site(probe_site).replicas.clone();
    let client = lab.client_of(isp);
    let prefixes = lab.india.isps[&isp].leaf_prefixes.clone();
    let mut queries = Vec::new();
    for prefix in &prefixes {
        let mut host = 2u32;
        while host < prefix.size() as u32 - 1 {
            queries.push((prefix.nth(host), domain.as_str()));
            host += stride.get();
        }
    }
    let answers = lab.bulk_resolve(client, &queries, 2_500);
    queries
        .iter()
        .zip(answers)
        .filter_map(|((ip, _), ans)| {
            let ans = ans?;
            // A responder that answers the known-good name with a real
            // replica is a (correctly configured) resolver.
            ans.iter().any(|a| expected.contains(a)).then_some(*ip)
        })
        .collect()
}

/// Reference answers for every PBW from the public resolver (via Tor —
/// an uncensored path), one bulk pass. Shard-safe: any lab built from
/// the same config produces the same reference, so the survey phase can
/// receive it precomputed instead of re-resolving per batch.
pub fn reference_answers(lab: &mut Lab, pbw: &[SiteId]) -> Vec<Option<Vec<Ipv4Addr>>> {
    let tor = lab.india.tor;
    let public = lab.india.public_dns_ip;
    let domains = pbw_domains(lab, pbw);
    let ref_queries: Vec<(Ipv4Addr, &str)> = domains.iter().map(|d| (public, d.as_str())).collect();
    lab.bulk_resolve(tor, &ref_queries, 2_500)
}

/// The domain of every PBW, copied once so a scan can borrow them while
/// it drives the lab.
fn pbw_domains(lab: &Lab, pbw: &[SiteId]) -> Vec<String> {
    pbw.iter().map(|&s| lab.india.corpus.site(s).domain.clone()).collect()
}

/// Judge one resolver's answer sheet against the reference with the
/// §3.2 heuristics. Length-checked: every PBW is judged, and a missing
/// slot in either list counts as "no answer" instead of silently
/// cutting the scan short at the shortest list (a `zip` here once
/// dropped the tail sites whenever `bulk_resolve` came up short).
fn judge_answers(
    pbw: &[SiteId],
    answers: &[Option<Vec<Ipv4Addr>>],
    reference: &[Option<Vec<Ipv4Addr>>],
    prefix: lucent_netsim::routing::Cidr,
) -> Vec<u32> {
    let mut manipulated = Vec::new();
    for (i, &site) in pbw.iter().enumerate() {
        let answer = answers.get(i).and_then(|a| a.as_ref());
        let reference = reference.get(i).and_then(|r| r.as_ref());
        let Some(answer) = answer else { continue };
        if answer.is_empty() {
            // NXDOMAIN while the reference resolves ⇒ manipulation.
            if reference.map(|r| !r.is_empty()).unwrap_or(false) {
                manipulated.push(site.0);
            }
            continue;
        }
        let overlap = reference.map(|r| answer.iter().any(|ip| r.contains(ip))).unwrap_or(false);
        if overlap {
            continue;
        }
        if answer.iter().any(|&ip| is_bogon(ip) || prefix.contains(ip)) {
            manipulated.push(site.0);
        }
    }
    manipulated
}

/// Scan a batch of `resolvers` against a precomputed `reference`. This
/// is the shardable unit: fixed-size resolver chunks of one ISP can run
/// on separate labs and their `ResolverScan`s concatenate in submission
/// order to exactly the scan of the whole list on one lab.
pub fn survey_batch(
    lab: &mut Lab,
    isp: IspId,
    resolvers: &[Ipv4Addr],
    pbw: &[SiteId],
    reference: &[Option<Vec<Ipv4Addr>>],
) -> Vec<ResolverScan> {
    let client = lab.client_of(isp);
    let prefix = lab.india.isps[&isp].prefix;
    let domains = pbw_domains(lab, pbw);
    let mut queries: Vec<(Ipv4Addr, &str)> =
        domains.iter().map(|d| (Ipv4Addr::UNSPECIFIED, d.as_str())).collect();
    let mut poisoned = Vec::new();
    for &resolver in resolvers {
        for query in &mut queries {
            query.0 = resolver;
        }
        let answers = lab.bulk_resolve(client, &queries, 2_500);
        let manipulated = judge_answers(pbw, &answers, reference, prefix);
        if !manipulated.is_empty() {
            poisoned.push(ResolverScan { resolver, manipulated });
        }
    }
    poisoned
}

#[cfg(test)]
mod tests {
    use super::*;
    use lucent_topology::{India, IndiaConfig};

    #[test]
    fn finds_all_deployed_resolvers_in_mtnl() {
        let mut lab = Lab::new(India::build(IndiaConfig::tiny()));
        let deployed: Vec<Ipv4Addr> =
            lab.india.isps[&IspId::Mtnl].resolvers.iter().map(|(ip, _)| *ip).collect();
        let found = find_open_resolvers(&mut lab, IspId::Mtnl, NonZeroU32::MIN);
        for ip in &deployed {
            assert!(found.contains(ip), "missed resolver {ip}");
        }
        // Nothing that isn't a resolver shows up.
        assert_eq!(found.len(), deployed.len(), "{found:?}");
    }

    #[test]
    fn dropped_answers_do_not_truncate_the_scan() {
        // Three sites; the reference pass lost its last answer (one
        // element short), and the last site's answer is a bogon. The old
        // triple-zip stopped at the shortest list and never judged site
        // 2; the length-checked judge must still flag it.
        let pbw = [SiteId(0), SiteId(1), SiteId(2)];
        let real = Ipv4Addr::new(203, 0, 113, 10);
        let bogon = Ipv4Addr::new(127, 0, 0, 7);
        let answers = vec![Some(vec![real]), None, Some(vec![bogon])];
        let reference = vec![Some(vec![real]), Some(vec![real])]; // dropped tail
        let prefix = lucent_netsim::routing::Cidr::new(Ipv4Addr::new(10, 60, 0, 0), 16);
        let manipulated = judge_answers(&pbw, &answers, &reference, prefix);
        assert_eq!(manipulated, vec![2], "tail site must still be judged");
        // And a short *answer* list must not panic or misattribute.
        let manipulated = judge_answers(&pbw, &answers[..1], &reference, prefix);
        assert!(manipulated.is_empty());
    }

    #[test]
    fn bulk_resolve_returns_one_slot_per_query() {
        let mut lab = Lab::new(India::build(IndiaConfig::tiny()));
        let client = lab.client_of(IspId::Mtnl);
        // Mix resolvable queries with dead addresses that never answer:
        // the result must stay aligned (one slot per query, None for the
        // dropped ones), not shrink to the answered subset.
        let resolver = lab.india.isps[&IspId::Mtnl].default_resolver;
        let dead = Ipv4Addr::new(203, 0, 113, 250);
        let domain = lab.india.corpus.site(lab.india.corpus.popular[0]).domain.clone();
        let queries = [(dead, domain.as_str()), (resolver, &domain), (dead, &domain)];
        let answers = lab.bulk_resolve(client, &queries, 2_500);
        assert_eq!(answers.len(), queries.len());
        assert!(answers[0].is_none() && answers[2].is_none(), "{answers:?}");
        assert!(answers[1].is_some(), "{answers:?}");
    }

    #[test]
    fn survey_identifies_poisoned_resolvers() {
        let mut lab = Lab::new(India::build(IndiaConfig::tiny()));
        let deployed: Vec<Ipv4Addr> =
            lab.india.isps[&IspId::Mtnl].resolvers.iter().map(|(ip, _)| *ip).collect();
        let pbw: Vec<SiteId> = lab.india.corpus.pbw.clone();
        let reference = reference_answers(&mut lab, &pbw);
        let poisoned = survey_batch(&mut lab, IspId::Mtnl, &deployed, &pbw, &reference);
        let truth_poisoned = lab.india.truth.dns_resolvers[&IspId::Mtnl].len();
        // Every truly-poisoned resolver with a non-empty blocklist of
        // *alive-name* sites should be caught; allow a small shortfall
        // for resolvers whose sampled blocklists are empty.
        assert!(
            poisoned.len() + 2 >= truth_poisoned,
            "found {} of {truth_poisoned}",
            poisoned.len()
        );
        let row = crate::experiments::fig2::assemble_row(IspId::Mtnl, deployed, poisoned);
        assert!(row.coverage > 0.0);
        assert!(row.consistency > 0.0 && row.consistency <= 1.0);
        assert!(!row.series.is_empty());
    }
}

lucent_support::json_object!(ResolverScan { resolver, manipulated });
