//! End-to-end integration: the whole world, exercised the way a study
//! would — resolve, fetch, trace — across censoring and clean ISPs.

use lucent_core::lab::{Lab, FETCH_TIMEOUT_MS};
use lucent_middlebox::notice::looks_like_notice;
use lucent_topology::{India, IndiaConfig, IspId};
use lucent_web::SiteKind;

fn lab() -> Lab {
    Lab::new(India::build(IndiaConfig::tiny()))
}

#[test]
fn every_isp_client_can_reach_an_unblocked_site() {
    let mut lab = lab();
    for isp in IspId::MEASURED {
        let client = lab.client_of(isp);
        let site = lab
            .india
            .corpus
            .pbw
            .iter()
            .copied()
            .find(|&s| {
                let st = lab.india.corpus.site(s);
                st.is_alive()
                    && st.kind == SiteKind::Normal
                    && !st.regional_dns
                    && !lab.india.truth.blocked_for_client(isp, s)
            })
            .expect("an unblocked site exists");
        let domain = lab.india.corpus.site(site).domain.clone();
        let resolver = lab.india.public_dns_ip;
        let dns = lab.resolve(client, resolver, &domain);
        assert!(!dns.failed(), "{isp}: {domain} must resolve");
        let fetch = lab.http_get(client, dns.ips[0], &domain, FETCH_TIMEOUT_MS);
        let resp = fetch.response.expect("response");
        assert_eq!(resp.status, 200, "{isp}: {domain}");
        assert!(!looks_like_notice(&resp), "{isp}: {domain} wrongly censored");
    }
}

#[test]
fn ideas_list_is_censored_exactly_where_devices_sit() {
    // Direct fetches of Idea's master list are censored precisely when
    // the client's ECMP path crosses a device whose blocklist carries the
    // site — the per-path oracle behind the paper's consistency numbers.
    // (An aggregate "most censored" claim only holds at paper scale; at
    // tiny scale the handful of flows hash onto too few cores for the
    // fraction to concentrate.)
    let mut lab = lab();
    let client = lab.client_of(IspId::Idea);
    let client_ip = lab.india.isps[&IspId::Idea].client_ip;
    let leaf = lab.india.isps[&IspId::Idea].leaves[0];
    let devices = lab.india.truth.http_devices[&IspId::Idea].clone();
    // The leaf's default route lists its core-facing interfaces in core
    // order, so the position of the ECMP pick is the core index.
    let core_ifaces: Vec<_> = lab
        .india
        .net
        .node_mut::<lucent_netsim::RouterNode>(leaf).unwrap()
        .table
        .iter()
        .find(|(p, _)| p.len == 0)
        .expect("leaf default route")
        .1
        .clone();
    let master: Vec<_> = lab.india.truth.http_master[&IspId::Idea].iter().copied().collect();
    let mut censored = 0;
    let mut alive = 0;
    for site in master {
        let s = lab.india.corpus.site(site);
        if !s.is_alive() {
            continue;
        }
        alive += 1;
        let (domain, ip) = (s.domain.clone(), s.replicas[0]);
        let chosen = lab
            .india
            .net
            .node_mut::<lucent_netsim::RouterNode>(leaf).unwrap()
            .table
            .lookup_flow(client_ip, ip)
            .expect("client has a route out");
        let core = core_ifaces.iter().position(|&i| i == chosen).expect("a core iface");
        let predicted = devices.iter().any(|(c, _, bl)| *c == core && bl.contains(&site));
        let f = lab.http_get(client, ip, &domain, FETCH_TIMEOUT_MS);
        let observed = f.censored();
        assert_eq!(observed, predicted, "site {site:?} via core {core}");
        censored += usize::from(observed);
    }
    assert!(alive > 0);
    assert!(censored > 0, "at least one direct path must be censored");
}

#[test]
fn virtual_hosting_serves_multiple_sites_from_one_address() {
    let mut lab = lab();
    let dir = lab.india.corpus.directory();
    let shared_ip = lab
        .india
        .corpus
        .hosting_ips()
        .into_iter()
        .find(|&ip| dir.sites_at(ip).len() > 1)
        .expect("shared hosting exists");
    let site_ids: Vec<_> = dir.sites_at(shared_ip).to_vec();
    drop(dir);
    let client = lab.india.tor;
    let mut served = 0;
    for id in site_ids.iter().take(2) {
        let domain = lab.india.corpus.site(*id).domain.clone();
        let f = lab.http_get(client, shared_ip, &domain, FETCH_TIMEOUT_MS);
        if let Some(resp) = f.response {
            if resp.status == 200 || resp.status == 302 {
                served += 1;
            }
        }
    }
    assert_eq!(served, 2, "both virtual hosts answer at {shared_ip}");
}

#[test]
fn traceroutes_reach_hosting_from_every_isp() {
    let mut lab = lab();
    let dst = lab.india.corpus.site(lab.india.corpus.popular[0]).replicas[0];
    for isp in IspId::MEASURED {
        let client = lab.client_of(isp);
        let tr = lab.traceroute(client, dst, 24);
        assert!(tr.reached, "{isp}: {:?}", tr.hops);
        assert!(tr.hops.len() >= 4, "{isp}: implausibly short path: {:?}", tr.hops);
    }
}

#[test]
fn cdn_steering_answers_are_always_genuine_replicas() {
    let mut lab = lab();
    let cdn = lab
        .india
        .corpus
        .pbw
        .iter()
        .chain(lab.india.corpus.popular.iter())
        .copied()
        .find(|&s| {
            let st = lab.india.corpus.site(s);
            st.regional_dns && st.replicas.len() >= 3
        })
        .expect("a CDN site exists");
    let domain = lab.india.corpus.site(cdn).domain.clone();
    let truth = lab.india.corpus.site(cdn).replicas.clone();
    // Resolve from two differently-located honest resolvers.
    let airtel_client = lab.client_of(IspId::Airtel);
    let airtel_resolver = lab.india.isps[&IspId::Airtel].default_resolver;
    let a = lab.resolve(airtel_client, airtel_resolver, &domain);
    let jio_client = lab.client_of(IspId::Jio);
    let jio_resolver = lab.india.isps[&IspId::Jio].default_resolver;
    let b = lab.resolve(jio_client, jio_resolver, &domain);
    assert!(!a.failed() && !b.failed());
    for ip in a.ips.iter().chain(b.ips.iter()) {
        assert!(truth.contains(ip), "{ip} is not a replica of {domain}");
    }
}

#[test]
fn world_scale_matches_config() {
    let lab = lab();
    let cfg = &lab.india.cfg;
    assert_eq!(lab.india.corpus.pbw.len(), cfg.corpus.pbw_count);
    assert_eq!(lab.india.corpus.popular.len(), cfg.corpus.popular_count);
    for (isp_id, isp) in &lab.india.isps {
        assert_eq!(isp.cores.len(), cfg.cores_per_isp, "{isp_id}");
        assert_eq!(isp.leaves.len(), cfg.leaves_per_isp, "{isp_id}");
        assert_eq!(isp.edge_hosts.len(), 2 * cfg.leaves_per_isp, "{isp_id}");
    }
}
