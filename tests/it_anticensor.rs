//! Evasion integration: the Section-5 matrix, checked against the
//! matcher semantics each deployment uses.

use std::collections::BTreeSet;

use lucent_core::anticensor::{attempt, Technique};
use lucent_core::lab::{Lab, FETCH_TIMEOUT_MS};
use lucent_core::probe::classify::censored_sites;
use lucent_topology::{India, IndiaConfig, IspId};
use lucent_web::{Site, SiteId, SiteKind};

fn lab() -> Lab {
    Lab::new(India::build(IndiaConfig::small()))
}

/// The matrix checks *this* deployment's matcher semantics, so a site
/// must not also sit on another censor's blocklist — a second middlebox
/// on the path would mix its semantics into the result.
fn sole_censor(lab: &Lab, isp: IspId) -> impl Fn(&Site) -> bool {
    let shared: BTreeSet<SiteId> = lab
        .india
        .truth
        .http_master
        .iter()
        .filter(|(&other, _)| other != isp)
        .flat_map(|(_, bl)| bl.iter().copied())
        .collect();
    move |s| s.is_alive() && s.kind == SiteKind::Normal && !shared.contains(&s.id)
}

#[test]
fn idea_full_matrix_matches_strict_pattern_semantics() {
    let mut lab = lab();
    let keep = sole_censor(&lab, IspId::Idea);
    let site = censored_sites(&mut lab, IspId::Idea, 1, keep)
        .into_iter()
        .next()
        .expect("a censored site in Idea");
    // Works: anything the rigid `Host: value` parser chokes on.
    for tech in [
        Technique::ExtraSpaceBeforeValue,
        Technique::TabBeforeValue,
        Technique::TrailingSpace,
        Technique::Http2Version,
        Technique::SegmentedRequest,
        Technique::PrependWww,
    ] {
        assert!(attempt(&mut lab, IspId::Idea, site, tech).success, "{tech:?} should evade Idea");
    }
    // Fails: case fudging (matcher is case-insensitive), the firewall
    // tricks (nothing to drop — the device intercepts, it does not
    // inject alongside a real response), and the decoy Host (first wins).
    for tech in [
        Technique::HostKeywordCase,
        Technique::FirewallByIpId,
        Technique::FirewallBySource,
        Technique::DuplicateHostDecoy,
    ] {
        assert!(!attempt(&mut lab, IspId::Idea, site, tech).success, "{tech:?} should fail in Idea");
    }
}

#[test]
fn vodafone_matrix_matches_last_host_semantics() {
    let mut lab = lab();
    let keep = sole_censor(&lab, IspId::Vodafone);
    let Some(&site) = censored_sites(&mut lab, IspId::Vodafone, 1, keep).first() else {
        return; // 11% coverage may miss the small-world client entirely
    };
    assert!(attempt(&mut lab, IspId::Vodafone, site, Technique::DuplicateHostDecoy).success);
    assert!(attempt(&mut lab, IspId::Vodafone, site, Technique::SegmentedRequest).success);
    for tech in [
        Technique::ExtraSpaceBeforeValue,
        Technique::HostKeywordCase,
        Technique::Http2Version,
    ] {
        assert!(!attempt(&mut lab, IspId::Vodafone, site, tech).success, "{tech:?}");
    }
}

#[test]
fn airtel_matrix_matches_exact_token_semantics() {
    let mut lab = lab();
    let keep = sole_censor(&lab, IspId::Airtel);
    let Some(&site) = censored_sites(&mut lab, IspId::Airtel, 1, keep).first() else {
        return;
    };
    for tech in [
        Technique::HostKeywordCase,
        Technique::FirewallByIpId,
        Technique::FirewallBySource,
        Technique::SegmentedRequest,
        Technique::PrependWww,
    ] {
        assert!(attempt(&mut lab, IspId::Airtel, site, tech).success, "{tech:?} should evade Airtel");
    }
    for tech in [Technique::ExtraSpaceBeforeValue, Technique::DuplicateHostDecoy] {
        assert!(!attempt(&mut lab, IspId::Airtel, site, tech).success, "{tech:?}");
    }
}

#[test]
fn firewall_rules_do_not_break_normal_traffic() {
    // Installing the evasion firewall must not disturb unrelated fetches:
    // legitimate FINs (ordinary IP-ID, other sources) still pass.
    let mut lab = lab();
    let client = lab.client_of(IspId::Airtel);
    lab.india
        .net
        .node_mut::<lucent_tcp::TcpHost>(client).unwrap()
        .firewall
        .add(lucent_tcp::FilterRule::drop_fin_rst_with_ip_id(242));
    let clean = lab
        .india
        .corpus
        .pbw
        .iter()
        .copied()
        .find(|&s| {
            let st = lab.india.corpus.site(s);
            st.is_alive()
                && st.kind == lucent_web::SiteKind::Normal
                && !lab.india.truth.blocked_for_client(IspId::Airtel, s)
        })
        .unwrap();
    let domain = lab.india.corpus.site(clean).domain.clone();
    let ip = lab.india.corpus.site(clean).replicas[0];
    let f = lab.http_get(client, ip, &domain, FETCH_TIMEOUT_MS);
    // The orderly server FIN got through: the socket saw the close.
    assert!(f.peer_fin(), "legitimate FIN must not be filtered");
    let resp = f.response.expect("normal fetch still completes");
    assert_eq!(resp.status, 200);
}

#[test]
fn public_resolver_full_pipeline_in_bsnl() {
    let mut lab = lab();
    let default = lab.india.isps[&IspId::Bsnl].default_resolver;
    let Some((_, blocklist)) = lab
        .india
        .truth
        .dns_resolvers
        .get(&IspId::Bsnl)
        .and_then(|rs| rs.iter().find(|(ip, _)| *ip == default))
        .cloned()
    else {
        return; // BSNL's default resolver may be honest at this scale
    };
    let Some(site) = blocklist.iter().copied().find(|&s| {
        lab.india.corpus.site(s).is_alive()
            && !lab
                .india
                .truth
                .borders
                .iter()
                .any(|((v, _), set)| *v == IspId::Bsnl && set.contains(&s))
    }) else {
        return;
    };
    let a = attempt(&mut lab, IspId::Bsnl, site, Technique::PublicResolver);
    assert!(a.success, "{a:?}");
}
