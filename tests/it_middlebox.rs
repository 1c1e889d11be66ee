//! Middlebox-behaviour integration: the full inferred machine of §4.2.1,
//! exercised through the built India rather than hand-wired rigs.

use lucent_core::lab::{Lab, FETCH_TIMEOUT_MS};
use lucent_core::probe::classify::{censored_sites, classify_by_remote_hosts, MeasuredKind};
use lucent_middlebox::notice::{looks_like_notice, NoticeStyle};
use lucent_middlebox::{Policy, PolicyBox};
use lucent_netsim::NodeId;
use lucent_packet::tcp::TcpFlags;
use lucent_topology::{India, IndiaConfig, IspId};
use lucent_web::Site;

fn lab() -> Lab {
    Lab::new(India::build(IndiaConfig::tiny()))
}

#[test]
fn deployed_kinds_match_config() {
    let india = India::build(IndiaConfig::tiny());
    for (isp_id, profile) in &india.cfg.http {
        for &(_, node, family) in &india.isps[isp_id].devices {
            assert_eq!(family, profile.policy.family, "{isp_id}");
            let device = india.net.node_ref::<PolicyBox>(node).expect("a policy device");
            assert_eq!(device.policy, profile.policy, "{isp_id}: device runs the deployed program");
        }
    }
    // Border devices included, every censor in the world runs one of
    // the deployed (committed) programs.
    let deployed: Vec<&Policy> = india.cfg.http.values().map(|p| &p.policy).collect();
    let mut devices = 0;
    for id in (0..india.net.node_count() as u32).map(NodeId) {
        let Some(device) = india.net.node_ref::<PolicyBox>(id) else { continue };
        assert!(deployed.contains(&&device.policy), "{} runs an undeployed program", india.net.label_of(id));
        devices += 1;
    }
    let access: usize = india.isps.values().map(|isp| isp.devices.len()).sum();
    assert_eq!(devices, access + india.truth.borders.len(), "access plus border devices");
}

#[test]
fn idea_notice_page_carries_idea_signature() {
    let mut lab = lab();
    let site = censored_sites(&mut lab, IspId::Idea, 1, Site::is_alive)
        .into_iter()
        .next()
        .expect("censored path");
    let s = lab.india.corpus.site(site);
    let (domain, ip) = (s.domain.clone(), s.replicas[0]);
    let client = lab.client_of(IspId::Idea);
    let f = lab.http_get(client, ip, &domain, FETCH_TIMEOUT_MS);
    let resp = f.response.expect("notice");
    assert!(NoticeStyle::idea_like().matches(&resp), "wrong signature");
    assert!(!NoticeStyle::airtel_like().matches(&resp));
    // The paper's FN analysis: notices carry no title and mimic ordinary
    // header names.
    assert!(resp.title().is_none());
    assert!(resp.header("server").is_some());
}

#[test]
fn remote_host_classification_agrees_with_deployment() {
    let mut lab = lab();
    // Idea (~92% coverage): some VP path is covered with near certainty.
    let blocked: Vec<String> = lab.india.truth.http_master[&IspId::Idea]
        .iter()
        .take(6)
        .map(|&s| lab.india.corpus.site(s).domain.clone())
        .collect();
    let mut got = None;
    for domain in &blocked {
        if let Some((kind, _)) = classify_by_remote_hosts(&mut lab, IspId::Idea, domain) {
            got = Some(kind);
            break;
        }
    }
    assert_eq!(got, Some(MeasuredKind::Interceptive));
}

#[test]
fn wiretap_injections_carry_the_airtel_ip_id() {
    let mut lab = lab();
    let Some(&site) = censored_sites(&mut lab, IspId::Airtel, 1, Site::is_alive).first() else {
        return; // tiny world: the Airtel client may dodge all devices
    };
    let s = lab.india.corpus.site(site);
    let (domain, ip) = (s.domain.clone(), s.replicas[0]);
    let client = lab.client_of(IspId::Airtel);
    // The wiretap races the real response and its slow tail (30% of
    // flows) can lose outright, so one fetch may see no injection at
    // all; collect stamped packets across a handful of flows.
    let mut stamped = Vec::new();
    for _ in 0..5 {
        lab.india.net.node_mut::<lucent_tcp::TcpHost>(client).unwrap().enable_pcap();
        let _ = lab.http_get(client, ip, &domain, FETCH_TIMEOUT_MS);
        let pcap = lab.india.net.node_mut::<lucent_tcp::TcpHost>(client).unwrap().disable_pcap();
        stamped.extend(pcap.into_iter().filter(|(_, p)| p.ip.identification == 242));
    }
    assert!(!stamped.is_empty(), "Airtel middlebox packets are stamped 242");
    for (_, p) in &stamped {
        let (h, _) = p.as_tcp().expect("TCP");
        assert!(
            h.flags.intersects(TcpFlags::FIN | TcpFlags::RST),
            "only teardown packets are injected"
        );
    }
}

#[test]
fn covert_vodafone_resets_without_a_page() {
    let mut lab = lab();
    let Some(&site) = censored_sites(&mut lab, IspId::Vodafone, 1, Site::is_alive).first() else {
        return; // 11% coverage: often unobserved in the tiny world
    };
    let s = lab.india.corpus.site(site);
    let (domain, ip) = (s.domain.clone(), s.replicas[0]);
    let client = lab.client_of(IspId::Vodafone);
    let f = lab.http_get(client, ip, &domain, FETCH_TIMEOUT_MS);
    assert!(f.was_reset(), "covert devices reset");
    assert!(!f.shows_notice(), "no notification page from a covert device");
}

#[test]
fn non_port_80_flows_are_never_inspected() {
    // §6.3: the deployed middleboxes inspect only TCP port 80. Install a
    // listener on 8080 at a hosting node, then request a blocked domain
    // through Idea's (92%-covered) network: content must flow.
    let mut lab = lab();
    let site = censored_sites(&mut lab, IspId::Idea, 1, Site::is_alive)
        .into_iter()
        .next()
        .expect("censored path");
    let s = lab.india.corpus.site(site);
    let (domain, ip) = (s.domain.clone(), s.replicas[0]);
    let server_node = lab
        .india
        .hosting
        .iter()
        .find(|(hip, _)| *hip == ip)
        .map(|(_, node)| *node)
        .expect("server node exists");
    lab.india
        .net
        .node_mut::<lucent_tcp::TcpHost>(server_node).unwrap()
        .listen(8080, || Box::new(lucent_tcp::FixedResponder::new(b"HTTP/1.1 200 OK\r\nContent-Length: 4\r\n\r\nalt!".to_vec())));
    let client = lab.client_of(IspId::Idea);
    let request = lucent_packet::http::RequestBuilder::browser(&domain, "/").build();
    let f = lab.http_fetch(client, ip, 8080, request, FETCH_TIMEOUT_MS);
    assert!(!f.was_reset());
    let resp = f.response.expect("alt service answers despite the blocked Host");
    assert_eq!(resp.status, 200);
    assert!(!looks_like_notice(&resp));
}

#[test]
fn every_kind_of_isp_builds_with_consistent_truth() {
    let india = India::build(IndiaConfig::tiny());
    for (isp_id, master) in &india.truth.http_master {
        let devices = &india.truth.http_devices[isp_id];
        // Union of devices equals master (partition guarantee).
        let mut union = std::collections::BTreeSet::new();
        for (_, _, bl) in devices {
            union.extend(bl.iter().copied());
        }
        if !devices.is_empty() {
            assert_eq!(&union, master, "{isp_id}");
        }
    }
}
