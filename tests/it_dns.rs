//! DNS-layer integration: poisoning end-to-end, the resolver survey
//! against ground truth, and the poisoning-vs-injection discriminator.

use std::collections::BTreeSet;
use std::num::NonZeroU32;

use lucent_core::lab::Lab;
use lucent_core::probe::dns_scan::{find_open_resolvers, survey};
use lucent_core::probe::tracer::{dns_tracer, DnsMechanism};
use lucent_packet::ipv4::is_bogon;
use lucent_topology::{India, IndiaConfig, IspId};

fn lab() -> Lab {
    Lab::new(India::build(IndiaConfig::tiny()))
}

#[test]
fn poisoned_resolver_lies_only_about_its_blocklist() {
    let mut lab = lab();
    let client = lab.client_of(IspId::Mtnl);
    let (resolver, blocklist) = lab.india.truth.dns_resolvers[&IspId::Mtnl]
        .iter()
        .find(|(_, bl)| !bl.is_empty())
        .cloned()
        .expect("a poisoned resolver");
    let notice_ip = lab.india.isps[&IspId::Mtnl].notice_ip;
    let prefix = lab.india.isps[&IspId::Mtnl].prefix;

    // A blocked name gets a manipulated answer.
    let blocked = blocklist.iter().next().copied().unwrap();
    let blocked_domain = lab.india.corpus.site(blocked).domain.clone();
    let out = lab.resolve(client, resolver, &blocked_domain);
    assert!(!out.timed_out);
    assert!(
        out.ips.iter().all(|&ip| ip == notice_ip || prefix.contains(ip) || is_bogon(ip)),
        "{out:?}"
    );

    // An unblocked alive name resolves honestly.
    let honest = lab
        .india
        .corpus
        .pbw
        .iter()
        .copied()
        .find(|s| !blocklist.contains(s) && lab.india.corpus.site(*s).is_alive())
        .unwrap();
    let honest_domain = lab.india.corpus.site(honest).domain.clone();
    let truth = lab.india.corpus.site(honest).replicas.clone();
    let out = lab.resolve(client, resolver, &honest_domain);
    assert!(out.ips.iter().all(|ip| truth.contains(ip)), "{out:?} vs {truth:?}");
}

#[test]
fn survey_matches_ground_truth_blocklists() {
    let mut lab = lab();
    let resolvers: Vec<_> =
        lab.india.isps[&IspId::Mtnl].resolvers.iter().map(|(ip, _)| *ip).collect();
    let pbw = lab.india.corpus.pbw.clone();
    let s = survey(&mut lab, IspId::Mtnl, &resolvers, &pbw);
    // Every measured manipulation is a true one (no false accusations);
    // sites whose names are dead still count (the paper: stale lists).
    let truth = lab.india.truth.dns_resolvers[&IspId::Mtnl].clone();
    for scan in &s.poisoned {
        let (_, true_list) = truth
            .iter()
            .find(|(ip, _)| *ip == scan.resolver)
            .expect("measured resolver is truly poisoned");
        for site in &scan.manipulated {
            assert!(
                true_list.contains(&lucent_web::SiteId(*site)),
                "resolver {} falsely accused of blocking {site}",
                scan.resolver
            );
        }
    }
}

#[test]
fn dead_sites_remain_on_blocklists() {
    // §6.3: "some websites are now unavailable but still blocked by the
    // ISPs — ISPs are not updating their blacklists". The deployment
    // samples blocklists from all PBWs including dead ones. (The small
    // world has enough dead sites for this to be statistically certain;
    // the tiny one does not.)
    let lab = Lab::new(India::build(IndiaConfig::small()));
    let mut found_dead_blocked = false;
    for master in lab.india.truth.dns_master.values() {
        for &site in master.iter() {
            if !lab.india.corpus.site(site).is_alive() {
                found_dead_blocked = true;
            }
        }
    }
    for master in lab.india.truth.http_master.values() {
        for &site in master.iter() {
            if !lab.india.corpus.site(site).is_alive() {
                found_dead_blocked = true;
            }
        }
    }
    assert!(found_dead_blocked, "at least one dead site should remain blocklisted");
}

#[test]
fn open_resolver_scan_is_precise() {
    let mut lab = lab();
    for isp in [IspId::Mtnl, IspId::Bsnl] {
        let deployed: Vec<_> = lab.india.isps[&isp].resolvers.iter().map(|(ip, _)| *ip).collect();
        let found = find_open_resolvers(&mut lab, isp, NonZeroU32::MIN);
        assert_eq!(found.len(), deployed.len(), "{isp}: {found:?}");
        for ip in &found {
            assert!(deployed.contains(ip), "{isp}: {ip} is not a resolver");
        }
    }
}

#[test]
fn every_resolver_poisons_exactly_its_ground_truth_subset() {
    // Exhaustive over (resolver, master site): a wrong slot or bit index
    // in a resolver's blocklist shows up as one mismatched pair.
    let mut lab = lab();
    for isp in [IspId::Mtnl, IspId::Bsnl] {
        let client = lab.client_of(isp);
        let notice_ip = lab.india.isps[&isp].notice_ip;
        let master = lab.india.truth.dns_master[&isp].clone();
        let truth = lab.india.truth.dns_resolvers[&isp].clone();
        let resolvers: Vec<_> = lab.india.isps[&isp].resolvers.iter().map(|(ip, _)| *ip).collect();
        assert!(truth.iter().any(|(_, bl)| !bl.is_empty()), "{isp}: no poisoned resolver to check");
        for resolver in resolvers {
            let blocked = truth
                .iter()
                .find(|(ip, _)| *ip == resolver)
                .map(|(_, bl)| bl.clone())
                .unwrap_or_default();
            for &site in &master {
                let domain = lab.india.corpus.site(site).domain.clone();
                let out = lab.resolve(client, resolver, &domain);
                assert!(!out.timed_out, "{isp} {resolver} {domain}");
                let lied = !out.ips.is_empty() && out.ips.iter().all(|&ip| ip == notice_ip || is_bogon(ip));
                assert_eq!(lied, blocked.contains(&site), "{isp} {resolver} {domain}: {out:?}");
                if !lied {
                    let replicas = &lab.india.corpus.site(site).replicas;
                    assert!(out.ips.iter().all(|ip| replicas.contains(ip)), "{isp} {resolver} {domain}: {out:?}");
                }
            }
        }
    }
}

#[test]
fn stride_three_scan_finds_exactly_the_resolvers_at_offsets_two_mod_three() {
    let mut lab = lab();
    let stride = NonZeroU32::new(3).expect("3 is non-zero");
    for isp in [IspId::Mtnl, IspId::Bsnl] {
        let prefixes = lab.india.isps[&isp].leaf_prefixes.clone();
        let offset = |ip: std::net::Ipv4Addr| {
            prefixes
                .iter()
                .find(|p| p.contains(ip))
                .map(|p| u32::from(ip) - u32::from(p.addr))
                .expect("every resolver sits in a leaf prefix")
        };
        let deployed: BTreeSet<_> = lab.india.isps[&isp].resolvers.iter().map(|(ip, _)| *ip).collect();
        let expected: BTreeSet<_> = deployed.iter().copied().filter(|&ip| offset(ip) % 3 == 2).collect();
        assert!(!expected.is_empty() && expected.len() < deployed.len(), "{isp}: {deployed:?}");
        let found: BTreeSet<_> = find_open_resolvers(&mut lab, isp, stride).into_iter().collect();
        assert_eq!(found, expected, "{isp}");
    }
}

#[test]
fn tracer_never_misreads_poisoning_as_injection() {
    let mut lab = lab();
    for isp in [IspId::Mtnl, IspId::Bsnl] {
        let client = lab.client_of(isp);
        let notice_ip = lab.india.isps[&isp].notice_ip;
        let prefix = lab.india.isps[&isp].prefix;
        let poisoned: Vec<_> = lab.india.truth.dns_resolvers[&isp]
            .iter()
            .filter(|(_, bl)| !bl.is_empty())
            .take(2)
            .cloned()
            .collect();
        for (resolver, bl) in poisoned {
            let site = bl.iter().next().copied().unwrap();
            let domain = lab.india.corpus.site(site).domain.clone();
            let mech = dns_tracer(
                &mut lab,
                client,
                resolver,
                &domain,
                |ips| ips.iter().any(|&ip| ip == notice_ip || prefix.contains(ip) || is_bogon(ip)),
                24,
            );
            assert_eq!(mech, DnsMechanism::Poisoning, "{isp} {resolver}");
        }
    }
}
