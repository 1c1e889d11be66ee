//! **X5 (§3.2-III)** — poisoning vs injection: the DNS variant of the
//! Iterative Network Tracer applied to the censorious resolvers of MTNL
//! and BSNL (finding: poisoning only), plus a synthetic injection
//! deployment proving the discriminator detects the other mechanism too.

use std::fmt;
use std::net::Ipv4Addr;

use lucent_dns::{catalog, DnsCatalog, DnsInjectorNode, ResolverApp};
use lucent_netsim::routing::Cidr;
use lucent_netsim::{IfaceId, Network, RouterNode, SimDuration};
use lucent_packet::dns::{DnsMessage, Name};
use lucent_packet::ipv4::is_bogon;
use lucent_tcp::TcpHost;
use lucent_topology::IspId;

use crate::lab::Lab;
use crate::probe::tracer::{dns_tracer, DnsMechanism};

/// Mechanism verdicts per resolver examined.
#[derive(Debug, Clone)]
pub struct DnsMechanismReport {
    /// Per (ISP, resolver) verdict.
    pub verdicts: Vec<(String, String, DnsMechanism)>,
    /// The synthetic-injector control: the discriminator must call it
    /// `Injection`.
    pub synthetic_injection_detected: bool,
}

/// Probe up to `per_isp` poisoned resolvers in each DNS-censoring ISP.
pub fn run(lab: &mut Lab, per_isp: usize) -> DnsMechanismReport {
    let mut verdicts = Vec::new();
    for isp in [IspId::Mtnl, IspId::Bsnl] {
        let client = lab.client_of(isp);
        let prefix = lab.india.isps[&isp].prefix;
        let notice_ip = lab.india.isps[&isp].notice_ip;
        let resolvers: Vec<(Ipv4Addr, String)> = lab
            .india
            .truth
            .dns_resolvers
            .get(&isp)
            .map(|rs| {
                rs.iter()
                    .filter(|(_, bl)| !bl.is_empty())
                    .take(per_isp)
                    .filter_map(|(ip, bl)| {
                        let site = *bl.iter().next()?;
                        Some((*ip, lab.india.corpus.site(site).domain.clone()))
                    })
                    .collect()
            })
            .unwrap_or_default();
        for (resolver, domain) in resolvers {
            let mech = dns_tracer(
                lab,
                client,
                resolver,
                &domain,
                |ips| ips.iter().any(|&ip| ip == notice_ip || prefix.contains(ip) || is_bogon(ip)),
                24,
            );
            verdicts.push((isp.name().to_string(), resolver.to_string(), mech));
        }
    }
    let synthetic_injection_detected =
        matches!(synthetic_injection_control(), DnsMechanism::Injection { .. });
    DnsMechanismReport { verdicts, synthetic_injection_detected }
}

/// Build a small network with an on-path injector (GFW-style, which
/// India does *not* use) and check the tracer flags it as injection:
/// the discriminating experiment is only evidence if it can come out
/// both ways.
pub fn synthetic_injection_control() -> DnsMechanism {
    const CLIENT: Ipv4Addr = Ipv4Addr::new(10, 9, 0, 2);
    const RESOLVER: Ipv4Addr = Ipv4Addr::new(203, 0, 113, 53);
    const FORGED: Ipv4Addr = Ipv4Addr::new(10, 10, 34, 34);

    let mut net = Network::new();
    let client = net.add_node(Box::new(TcpHost::new(CLIENT, "client", 1)));
    let mut resolver_host = TcpHost::new(RESOLVER, "resolver", 2);
    let mut cat = DnsCatalog::new();
    cat.add_global("blocked.example", vec![Ipv4Addr::new(198, 51, 100, 5)]);
    resolver_host.set_udp_app(53, Box::new(ResolverApp::honest(catalog::shared(cat), 0)));
    let resolver = net.add_node(Box::new(resolver_host));
    let r1 = net.add_node(Box::new(RouterNode::new(Ipv4Addr::new(10, 9, 0, 1), "r1")));
    let r2 = net.add_node(Box::new(RouterNode::new(Ipv4Addr::new(203, 0, 113, 1), "r2")));
    let injector = net.add_node(Box::new(DnsInjectorNode::new(
        [Name::new("blocked.example")],
        FORGED,
        "injector",
    )));
    let ms = SimDuration::from_millis(2);
    net.connect(client, IfaceId::PRIMARY, r1, IfaceId(0), ms);
    net.connect(r1, IfaceId(1), injector, IfaceId(0), ms);
    net.connect(injector, IfaceId(1), r2, IfaceId(0), ms);
    net.connect(r2, IfaceId(1), resolver, IfaceId::PRIMARY, ms);
    for router in [r1, r2] {
        if let Some(r) = net.node_mut::<RouterNode>(router) {
            r.table.add(Cidr::new(CLIENT, 24), IfaceId(0));
            r.table.add(Cidr::new(RESOLVER, 24), IfaceId(1));
        }
    }

    // Hand-rolled TTL ladder (this mini-world has no Lab).
    let path_len = 4u8; // client → r1 → r2 → resolver (per hops semantics)
    for ttl in 1..=path_len {
        let port = 42_000 + u16::from(ttl);
        let query = DnsMessage::query_a(port, "blocked.example");
        let mut bytes = Vec::new();
        if query.emit(&mut bytes).is_err() {
            // A query that cannot even serialize proves nothing either
            // way; skip this rung rather than abort the control.
            continue;
        }
        if let Some(host) = net.node_mut::<TcpHost>(client) {
            host.udp_bind(port);
            let mut pkt = lucent_packet::Packet::udp(
                CLIENT,
                RESOLVER,
                lucent_packet::UdpHeader::new(port, 53),
                bytes,
            );
            pkt.ip.ttl = ttl;
            host.raw_send(pkt);
        }
        net.wake(client);
        net.run_for(SimDuration::from_millis(200));
        let inbox =
            net.node_mut::<TcpHost>(client).map(|h| h.take_udp_inbox()).unwrap_or_default();
        for d in inbox {
            if d.dst_port != port {
                continue;
            }
            let Ok(msg) = DnsMessage::parse(&d.payload) else { continue };
            if msg.a_records().contains(&FORGED) {
                return DnsMechanism::manipulated_at(ttl, Some(path_len));
            }
        }
    }
    DnsMechanism::NotCensored
}

impl fmt::Display for DnsMechanismReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "DNS mechanism (poisoning vs injection):")?;
        for (isp, resolver, mech) in &self.verdicts {
            writeln!(f, "  {isp} {resolver}: {mech:?}")?;
        }
        writeln!(
            f,
            "  synthetic injector control detected as injection: {}",
            self.synthetic_injection_detected
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lucent_topology::{India, IndiaConfig};

    #[test]
    fn india_is_poisoning_and_the_control_is_injection() {
        let mut lab = Lab::new(India::build(IndiaConfig::tiny()));
        let report = run(&mut lab, 2);
        assert!(!report.verdicts.is_empty());
        for (isp, resolver, mech) in &report.verdicts {
            assert_eq!(*mech, DnsMechanism::Poisoning, "{isp} {resolver}");
        }
        assert!(report.synthetic_injection_detected);
    }
}

lucent_support::json_object!(DnsMechanismReport { verdicts, synthetic_injection_detected });
