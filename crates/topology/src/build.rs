//! Construction of the full India network.

use std::collections::{BTreeMap, BTreeSet};
use std::net::Ipv4Addr;
use std::rc::Rc;

use lucent_netsim::SimRng;

use lucent_dns::{catalog, Blocklist, DnsCatalog, PoisonMode, RegionId, ResolverApp, SharedCatalog};
use lucent_middlebox::policy::Family;
use lucent_middlebox::{Instance, NoticeStyle, Policy, PolicyBox};
use lucent_netsim::routing::Cidr;
use lucent_netsim::{IfaceId, Network, Node, NodeId, RouterNode, SimDuration};
use lucent_packet::dns::Name;
use lucent_tcp::{FixedResponder, TcpHost};
use lucent_web::{Corpus, IpAllocator, ServerConfig, SiteId, WebServerApp};

use crate::ids::IspId;
use crate::profile::IndiaConfig;
use crate::truth::GroundTruth;

/// Handles into one built ISP.
#[derive(Debug, Clone)]
pub struct Isp {
    /// Which AS this is.
    pub id: IspId,
    /// Content region.
    pub region: RegionId,
    /// The announced /16.
    pub prefix: Cidr,
    /// Gateway router.
    pub gateway: NodeId,
    /// Parallel core routers.
    pub cores: Vec<NodeId>,
    /// Leaf (access) routers, one per internal /24.
    pub leaves: Vec<NodeId>,
    /// Internal /24 prefixes.
    pub leaf_prefixes: Vec<Cidr>,
    /// The measurement client hosted in this ISP.
    pub client: NodeId,
    /// Its address.
    pub client_ip: Ipv4Addr,
    /// Hosts with open TCP port 80, two per leaf prefix (the targets of
    /// the outside-vantage scans).
    pub edge_hosts: Vec<(Ipv4Addr, NodeId)>,
    /// Every open DNS resolver (honest and poisoned).
    pub resolvers: Vec<(Ipv4Addr, NodeId)>,
    /// The resolver the ISP hands to its clients.
    pub default_resolver: Ipv4Addr,
    /// The ISP's censorship-notice web host (poisoned DNS points here).
    pub notice_ip: Ipv4Addr,
    /// Deployed middleboxes: (core index, node, program family).
    pub devices: Vec<(usize, NodeId, Family)>,
}

/// The whole built world.
///
/// `clone` yields a world indistinguishable from a fresh
/// [`India::build`] of the same config, at a fraction of the cost: the
/// network is copied on write (see [`Network`]), and the parts no probe
/// mutates — the corpus, the DNS catalog and the ground truth — are
/// shared.
#[derive(Clone)]
pub struct India {
    /// The configuration it was built from.
    pub cfg: IndiaConfig,
    /// The simulator.
    pub net: Network,
    /// The website corpus.
    pub corpus: Rc<Corpus>,
    /// The shared DNS catalog.
    pub catalog: SharedCatalog,
    /// Per-ISP handles.
    pub isps: BTreeMap<IspId, Isp>,
    /// Hosting pool prefixes (even indices attach to internet exchange A,
    /// odd to B).
    pub hosting_pools: Vec<Cidr>,
    /// Every web-hosting node by address.
    pub hosting: Vec<(Ipv4Addr, NodeId)>,
    /// External vantage points (PlanetLab/cloud stand-ins, also the
    /// controlled remote servers of the corroboration experiments).
    pub external_vps: Vec<(Ipv4Addr, NodeId)>,
    /// The Tor-exit-like uncensored vantage.
    pub tor: NodeId,
    /// Its address.
    pub tor_ip: Ipv4Addr,
    /// The OONI-style control vantage.
    pub control: NodeId,
    /// Its address.
    pub control_ip: Ipv4Addr,
    /// A public honest resolver (the "Google DNS" of this world).
    pub public_dns: NodeId,
    /// Its address.
    pub public_dns_ip: Ipv4Addr,
    /// Ground truth for scoring.
    pub truth: Rc<GroundTruth>,
}

/// Deterministic unit-interval hash (SplitMix64 finalizer) — used for
/// stable per-(isp, device, site) inclusion decisions.
pub fn det_unit(parts: &[u64]) -> f64 {
    let mut x = 0x9e37_79b9_7f4a_7c15u64;
    for &p in parts {
        x = x.wrapping_add(p).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        x ^= x >> 27;
    }
    x = x.wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^= x >> 31;
    (x >> 11) as f64 / (1u64 << 53) as f64
}

/// Seeded sample of `n` distinct items.
fn sample_sites(rng: &mut SimRng, pool: &[SiteId], n: usize) -> BTreeSet<SiteId> {
    let mut items: Vec<SiteId> = pool.to_vec();
    let n = n.min(items.len());
    for i in 0..n {
        let j = rng.gen_range(i..items.len());
        items.swap(i, j);
    }
    items.truncate(n);
    items.into_iter().collect()
}

/// Link helper that allocates interface numbers on both ends.
struct Wire {
    next: BTreeMap<NodeId, u8>,
}

impl Wire {
    fn new() -> Self {
        Wire { next: BTreeMap::new() }
    }

    fn alloc(&mut self, node: NodeId) -> IfaceId {
        let slot = self.next.entry(node).or_insert(0);
        let iface = IfaceId(*slot);
        // Saturate at 255: no build plan comes within an order of
        // magnitude of that many interfaces, and if one ever did, the
        // repeated iface id trips `connect`'s already-connected check
        // instead of panicking here mid-build.
        *slot = slot.saturating_add(1);
        iface
    }

    /// Connect two routers/middleboxes, allocating ifaces on both sides.
    fn link(&mut self, net: &mut Network, a: NodeId, b: NodeId, lat: SimDuration) -> (IfaceId, IfaceId) {
        let ia = self.alloc(a);
        let ib = self.alloc(b);
        net.connect(a, ia, b, ib, lat);
        (ia, ib)
    }

    /// Attach a single-homed host (iface 0) to a router.
    fn attach(&mut self, net: &mut Network, host: NodeId, router: NodeId, lat: SimDuration) -> IfaceId {
        let ir = self.alloc(router);
        net.connect(host, IfaceId::PRIMARY, router, ir, lat);
        ir
    }
}

/// Apply an edit to a router created earlier in this same build. Every
/// caller passes an id it just received from `add_node`, so a miss can
/// only mean the build plan itself is inconsistent — the edit is
/// skipped rather than applied to the wrong node, and the resulting
/// routing hole surfaces in the topology tests.
fn edit_router(net: &mut Network, id: NodeId, f: impl FnOnce(&mut RouterNode)) {
    if let Some(r) = net.node_mut::<RouterNode>(id) {
        f(r);
    }
}

const MS: fn(u64) -> SimDuration = SimDuration::from_millis;

impl India {
    /// Build the world from `cfg`.
    #[expect(clippy::disallowed_methods, reason = "seed plumbing: the world draws from its seed")]
    pub fn build(cfg: IndiaConfig) -> India {
        let mut rng = SimRng::seed_from_u64(cfg.seed);
        let mut net = Network::new();
        let mut wire = Wire::new();
        let mut truth = GroundTruth::default();

        // ----- corpus & catalog ------------------------------------------
        // Hosting pools scatter across distinct /16s, the way real CDNs
        // and hosters do — which is what defeats "same AS ⇒ same site"
        // DNS-consistency heuristics and produces OONI's CDN false
        // positives.
        const POOL_BASES: [(u8, u8); 6] =
            [(151, 101), (104, 16), (185, 199), (172, 67), (146, 75), (199, 232)];
        let hosting_pools: Vec<Cidr> = (0..cfg.hosting_pools)
            .map(|p| {
                let (a, b) = POOL_BASES[p % POOL_BASES.len()];
                Cidr::new(Ipv4Addr::new(a, b, p as u8, 0), 24)
            })
            .collect();
        let mut alloc = IpAllocator::new(hosting_pools.clone());
        let corpus = Corpus::generate(&cfg.corpus, &mut alloc);
        let mut catalog_inner = DnsCatalog::new();
        corpus.populate_dns(&mut catalog_inner);
        let catalog = catalog::shared(catalog_inner);
        let directory = corpus.directory();

        // ----- internet exchanges ----------------------------------------
        let inet_a = net.add_node(Box::new(RouterNode::new(Ipv4Addr::new(100, 100, 0, 1), "inet-a")));
        let inet_b = net.add_node(Box::new(RouterNode::new(Ipv4Addr::new(100, 100, 0, 2), "inet-b")));
        let (a_to_b, b_to_a) = wire.link(&mut net, inet_a, inet_b, MS(2));

        // ----- hosting pools ---------------------------------------------
        let mut hosting: Vec<(Ipv4Addr, NodeId)> = Vec::new();
        let hosting_ips = corpus.hosting_ips();
        for (p, pool) in hosting_pools.iter().enumerate() {
            let router = net.add_node(Box::new(RouterNode::new(pool.nth(1), format!("pool{p}"))));
            let inet = if p % 2 == 0 { inet_a } else { inet_b };
            let lat = MS(15 + (p as u64 * 7) % 30);
            let (inet_if, pool_up) = wire.link(&mut net, inet, router, lat);
            edit_router(&mut net, inet, |r| r.table.add(*pool, inet_if));
            edit_router(&mut net, router, |r| {
                r.table.add(Cidr::new(Ipv4Addr::new(0, 0, 0, 0), 0), pool_up)
            });
            let region: RegionId = 100 + p as RegionId;
            for &ip in hosting_ips.iter().filter(|ip| pool.contains(**ip)) {
                let mut host = TcpHost::new(ip, format!("web-{ip}"), cfg.seed);
                let server_cfg = ServerConfig { region, directory: directory.clone() };
                host.listen(80, WebServerApp::factory(server_cfg));
                host.listen(443, lucent_web::TlsLikeApp::factory());
                let id = net.add_node(Box::new(host));
                let rif = wire.attach(&mut net, id, router, SimDuration::from_micros(500));
                edit_router(&mut net, router, |r| r.table.add(Cidr::host(ip), rif));
                hosting.push((ip, id));
            }
        }

        // ----- external vantage points, Tor exit, OONI control -----------
        let mut external_vps = Vec::new();
        let vp_specs: [(Ipv4Addr, RegionId, u64); 8] = [
            (Ipv4Addr::new(128, 112, 139, 10), 110, 25),
            (Ipv4Addr::new(131, 159, 14, 10), 111, 35),
            (Ipv4Addr::new(155, 98, 38, 10), 112, 45),
            (Ipv4Addr::new(129, 97, 74, 10), 113, 28),
            (Ipv4Addr::new(193, 10, 64, 10), 114, 52),
            (Ipv4Addr::new(139, 19, 142, 10), 115, 33),
            (Ipv4Addr::new(35, 180, 12, 10), 116, 41),
            (Ipv4Addr::new(52, 66, 7, 10), 117, 22),
        ];
        let attach_external = |net: &mut Network,
                                   wire: &mut Wire,
                                   ip: Ipv4Addr,
                                   label: &str,
                                   region: RegionId,
                                   lat_ms: u64,
                                   serve: bool|
         -> NodeId {
            let router_ip = Ipv4Addr::new(ip.octets()[0], ip.octets()[1], ip.octets()[2], 1);
            let router = net.add_node(Box::new(RouterNode::new(router_ip, format!("{label}-r"))));
            let (inet_if, up) = wire.link(net, inet_a, router, MS(lat_ms));
            edit_router(net, inet_a, |r| r.table.add(Cidr::new(ip, 24), inet_if));
            edit_router(net, router, |r| {
                r.table.add(Cidr::new(Ipv4Addr::new(0, 0, 0, 0), 0), up)
            });
            let mut host = TcpHost::new(ip, label, cfg.seed ^ u64::from(u32::from(ip)));
            if serve {
                let server_cfg = ServerConfig { region, directory: directory.clone() };
                host.listen(80, WebServerApp::factory(server_cfg));
            }
            let id = net.add_node(Box::new(host));
            let rif = wire.attach(net, id, router, SimDuration::from_micros(500));
            edit_router(net, router, |r| r.table.add(Cidr::host(ip), rif));
            id
        };
        for (ip, region, lat) in vp_specs {
            let id = attach_external(&mut net, &mut wire, ip, &format!("vp-{region}"), region, lat, true);
            external_vps.push((ip, id));
        }
        let tor_ip = Ipv4Addr::new(171, 25, 193, 10);
        let tor = attach_external(&mut net, &mut wire, tor_ip, "tor-exit", 120, 40, false);
        let control_ip = Ipv4Addr::new(37, 218, 245, 10);
        let control = attach_external(&mut net, &mut wire, control_ip, "ooni-control", 103, 38, false);
        // A well-known public resolver outside every censor's reach —
        // Google DNS in the paper's evasion section and OONI's control
        // resolution both rely on one.
        let public_dns_ip = Ipv4Addr::new(8, 8, 8, 10);
        let public_dns = attach_external(&mut net, &mut wire, public_dns_ip, "public-dns", 122, 30, false);
        if let Some(host) = net.node_mut::<TcpHost>(public_dns) {
            host.set_udp_app(53, Box::new(ResolverApp::honest(catalog.clone(), 122)));
        }

        // ----- ISPs --------------------------------------------------------
        let mut isps = BTreeMap::new();
        let mut gateway_of: BTreeMap<IspId, NodeId> = BTreeMap::new();
        for isp_id in IspId::ALL {
            let isp = Self::build_isp(
                isp_id, &cfg, &mut net, &mut wire, &mut rng, &corpus, &catalog, &directory, &mut truth,
            );
            gateway_of.insert(isp_id, isp.gateway);
            isps.insert(isp_id, isp);
        }

        // ----- attach direct ISPs to both exchanges -----------------------
        let even_pools: Vec<Cidr> =
            hosting_pools.iter().copied().enumerate().filter(|(p, _)| p % 2 == 0).map(|(_, c)| c).collect();
        let odd_pools: Vec<Cidr> =
            hosting_pools.iter().copied().enumerate().filter(|(p, _)| p % 2 == 1).map(|(_, c)| c).collect();

        let mut exchange_iface: BTreeMap<(IspId, bool), IfaceId> = BTreeMap::new();
        for isp_id in IspId::ALL.iter().copied().filter(|i| i.transits().is_none()) {
            let gw = gateway_of[&isp_id];
            let (ia, ga) = wire.link(&mut net, inet_a, gw, MS(8));
            let (ib, gb) = wire.link(&mut net, inet_b, gw, MS(8));
            edit_router(&mut net, inet_a, |r| r.table.add(isp_id.prefix(), ia));
            edit_router(&mut net, inet_b, |r| r.table.add(isp_id.prefix(), ib));
            exchange_iface.insert((isp_id, false), ia);
            exchange_iface.insert((isp_id, true), ib);
            edit_router(&mut net, gw, |gw_router| {
                for pool in &even_pools {
                    gw_router.table.add(*pool, ga);
                }
                for pool in &odd_pools {
                    gw_router.table.add(*pool, gb);
                }
                gw_router.table.add(Cidr::new(Ipv4Addr::new(0, 0, 0, 0), 0), ga);
            });
        }
        // Inter-exchange fallthrough: exchange A learns explicit routes to
        // the odd (B-side) pools; everything B does not know falls back to
        // A.
        for (p, pool) in hosting_pools.iter().enumerate() {
            if p % 2 == 1 {
                edit_router(&mut net, inet_a, |r| r.table.add(*pool, a_to_b));
            }
        }
        edit_router(&mut net, inet_b, |r| {
            r.table.add(Cidr::new(Ipv4Addr::new(0, 0, 0, 0), 0), b_to_a)
        });

        // ----- victims: transit interconnects + border devices ------------
        for isp_id in IspId::ALL.iter().copied() {
            let Some((censor_a, censor_b)) = isp_id.transits() else { continue };
            let gw = gateway_of[&isp_id];
            let single_homed = censor_a == censor_b;
            let mut up_ifaces = Vec::new();
            for (side_idx, censor) in [(0usize, censor_a), (1usize, censor_b)] {
                if side_idx == 1 && single_homed {
                    break;
                }
                let count = cfg.collateral.get(&(isp_id, censor)).copied().unwrap_or(0);
                let censor_gw = gateway_of[&censor];
                let via_even = side_idx == 0;
                let victim_iface = match cfg.http.get(&censor) {
                    // A censor without a program deploys no device: the
                    // interconnect is a plain, uncensored link.
                    None => {
                        let (v_if, c_if) = wire.link(&mut net, gw, censor_gw, MS(5));
                        edit_router(&mut net, censor_gw, |r| r.table.add(isp_id.prefix(), c_if));
                        v_if
                    }
                    Some(profile) => {
                        let blocklist = Self::border_blocklist(
                            &mut rng, &corpus, &hosting_pools, count, via_even, single_homed,
                        );
                        truth.borders.insert((isp_id, censor), blocklist.iter().copied().collect());
                        let device_tag = 0x1000 + u64::from(u32::from(isp_id.prefix().addr)) + side_idx as u64;
                        let device = |label: String| {
                            Self::censor_device(
                                &cfg,
                                censor,
                                &profile.policy,
                                blocklist.iter().map(|s| corpus.site(*s).domain.clone()),
                                None,
                                device_tag,
                                label,
                            )
                        };
                        match profile.policy.family {
                            Family::Interceptive => {
                                let im = net.add_node(device(format!(
                                    "border-im-{}-{}",
                                    isp_id.name(),
                                    censor.name()
                                )));
                                let (v_if, _) = wire.link(&mut net, gw, im, MS(4));
                                let (_, c_if) = wire.link(&mut net, im, censor_gw, MS(1));
                                edit_router(&mut net, censor_gw, |r| r.table.add(isp_id.prefix(), c_if));
                                v_if
                            }
                            Family::Wiretap => {
                                // Censor-owned border router with a tap.
                                let br_ip = censor.prefix().nth(0xfd00 + side_idx as u32);
                                let border = net.add_node(Box::new(RouterNode::new(
                                    br_ip,
                                    format!("border-{}-{}", isp_id.name(), censor.name()),
                                )));
                                let (v_if, b_down) = wire.link(&mut net, gw, border, MS(4));
                                let (b_up, c_if) = wire.link(&mut net, border, censor_gw, MS(1));
                                let wm = net.add_node(device(format!(
                                    "border-wm-{}-{}",
                                    isp_id.name(),
                                    censor.name()
                                )));
                                let tap = wire.alloc(border);
                                net.connect(border, tap, wm, IfaceId::PRIMARY, SimDuration::from_micros(80));
                                edit_router(&mut net, border, |b| {
                                    b.mirrors.push(tap);
                                    b.anonymized = true;
                                    b.table.add(isp_id.prefix(), b_down);
                                    b.table.add(Cidr::new(Ipv4Addr::new(0, 0, 0, 0), 0), b_up);
                                });
                                edit_router(&mut net, censor_gw, |r| r.table.add(isp_id.prefix(), c_if));
                                v_if
                            }
                        }
                    }
                };
                up_ifaces.push(victim_iface);
                // Exchanges route the victim prefix through this censor.
                let (exchange, key) = if via_even { (inet_a, (censor, false)) } else { (inet_b, (censor, true)) };
                let ex_if = exchange_iface[&key];
                edit_router(&mut net, exchange, |r| r.table.add(isp_id.prefix(), ex_if));
                if single_homed {
                    let ex_if_b = exchange_iface[&(censor, true)];
                    edit_router(&mut net, inet_b, |r| r.table.add(isp_id.prefix(), ex_if_b));
                }
            }
            // Victim gateway routing: even pools via side 0, odd via side 1.
            let Some(&side_a) = up_ifaces.first() else { continue };
            let side_b = *up_ifaces.get(1).unwrap_or(&side_a);
            edit_router(&mut net, gw, |gw_router| {
                for pool in &even_pools {
                    gw_router.table.add(*pool, side_a);
                }
                for pool in &odd_pools {
                    gw_router.table.add(*pool, side_b);
                }
                gw_router.table.add(Cidr::new(Ipv4Addr::new(0, 0, 0, 0), 0), side_a);
            });
        }

        India {
            cfg,
            net,
            corpus: Rc::new(corpus),
            catalog,
            isps,
            hosting_pools,
            hosting,
            external_vps,
            tor,
            tor_ip,
            control,
            control_ip,
            public_dns,
            public_dns_ip,
            truth: Rc::new(truth),
        }
    }

    /// A human-readable inventory of the built world — the `repro world`
    /// output and a quick sanity artifact for docs.
    pub fn summary(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "world: {} nodes, {} links, {} sites ({} PBW + {} popular), {} hosting hosts",
            self.net.node_count(),
            self.net.link_count(),
            self.corpus.sites().len(),
            self.corpus.pbw.len(),
            self.corpus.popular.len(),
            self.hosting.len(),
        );
        for (id, isp) in &self.isps {
            let http = self
                .truth
                .http_master
                .get(id)
                .map(|m| format!("{} devices / {} blocked", isp.devices.len(), m.len()))
                .unwrap_or_else(|| "no HTTP filtering".into());
            let dns = self
                .truth
                .dns_master
                .get(id)
                .map(|m| {
                    format!(
                        "{} of {} resolvers poisoned / {} blocked",
                        self.truth.dns_resolvers.get(id).map(Vec::len).unwrap_or(0),
                        isp.resolvers.len(),
                        m.len()
                    )
                })
                .unwrap_or_else(|| "honest DNS".into());
            let transit = id
                .transits()
                .map(|(a, b)| {
                    if a == b {
                        format!(" (transit via {a})")
                    } else {
                        format!(" (transit via {a}/{b})")
                    }
                })
                .unwrap_or_default();
            let _ = writeln!(
                out,
                "  {:<9} {} cores, {} leaves, client {}{}: HTTP [{}], DNS [{}]",
                id.name(),
                isp.cores.len(),
                isp.leaves.len(),
                isp.client_ip,
                transit,
                http,
                dns,
            );
        }
        for ((victim, censor), sites) in &self.truth.borders {
            let _ = writeln!(out, "  border {victim}←{censor}: {} sites", sites.len());
        }
        out
    }

    /// One censor device: a [`PolicyBox`] running the ISP's compiled
    /// program over this device's blocklist. `device_tag` distinguishes
    /// sibling devices: without it every device of an ISP would share
    /// one RNG stream and their injection-delay draws would be
    /// identical in lockstep.
    fn censor_device(
        cfg: &IndiaConfig,
        censor: IspId,
        policy: &Policy,
        domains: impl IntoIterator<Item = String>,
        client_filter: Option<Vec<Cidr>>,
        device_tag: u64,
        label: String,
    ) -> Box<dyn Node> {
        let seed = cfg.seed
            ^ u64::from(u32::from(censor.prefix().addr))
            ^ device_tag.wrapping_mul(0x9e37_79b9_7f4a_7c15);
        Box::new(PolicyBox::new(policy.clone(), Instance::of(domains, client_filter, seed), label))
    }

    /// Sites eligible for a border blocklist: alive, single-replica,
    /// hosted in pools on the right side of the even/odd split.
    fn border_blocklist(
        rng: &mut SimRng,
        corpus: &Corpus,
        pools: &[Cidr],
        count: usize,
        via_even: bool,
        any_parity: bool,
    ) -> Vec<SiteId> {
        let pool_index = |ip: Ipv4Addr| pools.iter().position(|p| p.contains(ip));
        let eligible: Vec<SiteId> = corpus
            .pbw
            .iter()
            .copied()
            .filter(|&id| {
                let s = corpus.site(id);
                if !s.is_alive() || s.regional_dns || s.replicas.len() != 1 {
                    return false;
                }
                match pool_index(s.replicas[0]) {
                    Some(p) => any_parity || (p % 2 == 0) == via_even,
                    None => false,
                }
            })
            .collect();
        sample_sites(rng, &eligible, count).into_iter().collect()
    }

    #[allow(clippy::too_many_arguments)]
    fn build_isp(
        isp_id: IspId,
        cfg: &IndiaConfig,
        net: &mut Network,
        wire: &mut Wire,
        rng: &mut SimRng,
        corpus: &Corpus,
        catalog: &SharedCatalog,
        directory: &lucent_web::SharedDirectory,
        truth: &mut GroundTruth,
    ) -> Isp {
        let prefix = isp_id.prefix();
        let region = isp_id.region();
        let base = prefix.addr.octets();
        let k = cfg.cores_per_isp;
        let l = cfg.leaves_per_isp;
        let ip = |third: u8, fourth: u8| Ipv4Addr::new(base[0], base[1], third, fourth);

        let gateway =
            net.add_node(Box::new(RouterNode::new(ip(255, 1), format!("{}-gw", isp_id.name()))));
        let cores: Vec<NodeId> = (0..k)
            .map(|c| {
                net.add_node(Box::new(RouterNode::new(
                    ip(254, (c + 1) as u8),
                    format!("{}-core{}", isp_id.name(), c),
                )))
            })
            .collect();
        let leaves: Vec<NodeId> = (0..l)
            .map(|leaf| {
                net.add_node(Box::new(RouterNode::new(
                    ip(leaf as u8, 1),
                    format!("{}-leaf{}", isp_id.name(), leaf),
                )))
            })
            .collect();
        let leaf_prefixes: Vec<Cidr> = (0..l).map(|leaf| Cidr::new(ip(leaf as u8, 0), 24)).collect();

        // --- HTTP devices: which cores are covered -----------------------
        let http_profile = cfg.http.get(&isp_id);
        let mut devices: Vec<(usize, NodeId, Family)> = Vec::new();
        let mut device_plan: Vec<(usize, bool, BTreeSet<SiteId>)> = Vec::new();
        let mut master: BTreeSet<SiteId> = BTreeSet::new();
        let mut covered: BTreeMap<usize, (bool, BTreeSet<SiteId>)> = BTreeMap::new();
        if let Some(p) = http_profile {
            let n_inside = (p.coverage_inside * k as f64).round() as usize;
            let n_outside = (p.coverage_outside * k as f64).round() as usize;
            master = sample_sites(rng, &corpus.pbw, p.blocked_sites);
            // Shuffle core indices deterministically.
            let mut order: Vec<usize> = (0..k).collect();
            for i in 0..k {
                let j = rng.gen_range(i..k);
                order.swap(i, j);
            }
            // Partition-with-multiplicity blocklists: every master site
            // lands on `max(1, round(q_s · n_devices))` devices. This
            // pins two measurable quantities simultaneously: the union
            // over devices equals the master list (Table 2's per-ISP
            // blocked counts), and the average per-site device fraction
            // tracks `consistency_q` (Figure 5). A plain Bernoulli draw
            // cannot satisfy both for low-consistency ISPs.
            if n_inside > 0 {
                let mut device_sets: Vec<BTreeSet<SiteId>> = vec![BTreeSet::new(); n_inside];
                for &site in &master {
                    let q = p.consistency_q.0
                        + (p.consistency_q.1 - p.consistency_q.0)
                            * det_unit(&[cfg.seed, u64::from(u32::from(prefix.addr)), site.0 as u64]);
                    let copies = ((q * n_inside as f64).round() as usize).clamp(1, n_inside);
                    let start = (det_unit(&[
                        cfg.seed ^ 0xdead,
                        u64::from(u32::from(prefix.addr)),
                        site.0 as u64,
                    ]) * n_inside as f64) as usize
                        % n_inside;
                    for j in 0..copies {
                        device_sets[(start + j) % n_inside].insert(site);
                    }
                }
                for (rank, &core_idx) in order.iter().take(n_inside).enumerate() {
                    let sees_outside = rank < n_outside;
                    covered.insert(core_idx, (sees_outside, device_sets[rank].clone()));
                }
            }
        }

        // --- wire gateway↔cores (inserting IMs where covered) ------------
        // `covered` is only ever populated under `Some(profile)`, so a
        // covered core with no profile (impossible by construction)
        // degrades to a plain uncensored link.
        for (c, &core) in cores.iter().enumerate() {
            let Some(((sees_outside, blocklist), profile)) = covered.remove(&c).zip(http_profile) else {
                wire.link(net, gateway, core, MS(1));
                continue;
            };
            let client_filter = if sees_outside { None } else { Some(vec![prefix]) };
            let family = profile.policy.family;
            let device = |label: String| {
                Self::censor_device(
                    cfg,
                    isp_id,
                    &profile.policy,
                    blocklist.iter().map(|s| corpus.site(*s).domain.clone()),
                    client_filter,
                    c as u64,
                    label,
                )
            };
            let node = match family {
                Family::Interceptive => {
                    let im = net.add_node(device(format!("{}-im{}", isp_id.name(), c)));
                    let (_gw_if, _) = wire.link(net, gateway, im, MS(1));
                    let (_, _core_if) = wire.link(net, im, core, SimDuration::from_micros(500));
                    edit_router(net, core, |r| r.anonymized = true);
                    im
                }
                Family::Wiretap => {
                    wire.link(net, gateway, core, MS(1));
                    // Wiretap on a mirror port of this core.
                    let wm = net.add_node(device(format!("{}-wm{}", isp_id.name(), c)));
                    let tap = wire.alloc(core);
                    net.connect(core, tap, wm, IfaceId::PRIMARY, SimDuration::from_micros(80));
                    edit_router(net, core, |core_router| {
                        core_router.mirrors.push(tap);
                        core_router.anonymized = true;
                    });
                    wm
                }
            };
            devices.push((c, node, family));
            device_plan.push((c, sees_outside, blocklist));
        }
        if http_profile.is_some() {
            truth.http_master.insert(isp_id, master.clone());
            truth.http_devices.insert(isp_id, device_plan);
        }

        // --- wire cores↔leaves (full mesh) --------------------------------
        // leaf_core_ifaces[leaf][core] = iface at the leaf toward that core.
        let mut leaf_core_ifaces: Vec<Vec<IfaceId>> = vec![Vec::new(); l];
        for &core in cores.iter() {
            for (leaf, &leaf_node) in leaves.iter().enumerate() {
                let (core_if, leaf_if) = wire.link(net, core, leaf_node, MS(1));
                edit_router(net, core, |r| r.table.add(leaf_prefixes[leaf], core_if));
                leaf_core_ifaces[leaf].push(leaf_if);
            }
            // Core default: back up to the gateway (iface 0 — the first
            // link allocated on every core).
            edit_router(net, core, |r| {
                r.table.add(Cidr::new(Ipv4Addr::new(0, 0, 0, 0), 0), IfaceId(0))
            });
        }
        for (leaf, ifaces) in leaf_core_ifaces.iter().enumerate() {
            edit_router(net, leaves[leaf], |r| {
                r.table.add_multi(Cidr::new(Ipv4Addr::new(0, 0, 0, 0), 0), ifaces.clone())
            });
        }
        // Gateway spreads inbound across cores (ifaces 0..k-1 in creation
        // order — gateway's first k links all go to cores or IMs).
        let gw_core_ifaces: Vec<IfaceId> = (0..k as u8).map(IfaceId).collect();
        edit_router(net, gateway, |r| r.table.add_multi(prefix, gw_core_ifaces));

        // --- hosts ---------------------------------------------------------
        let attach_host = |net: &mut Network, wire: &mut Wire, host: TcpHost, leaf: usize| -> NodeId {
            let hip = host.ip;
            let id = net.add_node(Box::new(host));
            let rif = wire.attach(net, id, leaves[leaf], SimDuration::from_micros(500));
            edit_router(net, leaves[leaf], |r| r.table.add(Cidr::host(hip), rif));
            id
        };

        let client_ip = ip(0, 50);
        let client = attach_host(net, wire, TcpHost::new(client_ip, format!("{}-client", isp_id.name()), cfg.seed ^ 1), 0);

        let mut edge_hosts = Vec::new();
        for leaf in 0..l {
            for fourth in [10u8, 11] {
                let hip = ip(leaf as u8, fourth);
                let mut host = TcpHost::new(hip, format!("{}-edge-{hip}", isp_id.name()), cfg.seed ^ 2);
                let server_cfg = ServerConfig { region, directory: directory.clone() };
                host.listen(80, WebServerApp::factory(server_cfg));
                let id = attach_host(net, wire, host, leaf);
                edge_hosts.push((hip, id));
            }
        }

        // Notice host: serves the ISP's block page for anything.
        let notice_ip = ip(0, 80);
        let notice_style = http_profile
            .and_then(|p| p.policy.notice().cloned())
            .unwrap_or_else(|| NoticeStyle {
                iframe_url: format!("http://www.{}.in/dot-compliance", isp_id.name().to_lowercase()),
                server_header: "nginx".into(),
                statutory_text: "Blocked as per DoT directions.".into(),
            });
        let mut notice_host = TcpHost::new(notice_ip, format!("{}-notice", isp_id.name()), cfg.seed ^ 3);
        let notice_page = notice_style.render().emit();
        notice_host.listen(80, move || Box::new(FixedResponder::new(notice_page.clone())));
        attach_host(net, wire, notice_host, 0);

        // --- resolvers -------------------------------------------------------
        let mut resolvers = Vec::new();
        // Every ISP runs one honest resolver clients may use.
        let honest_ip = ip(0, 53);
        let mut honest = TcpHost::new(honest_ip, format!("{}-resolver", isp_id.name()), cfg.seed ^ 4);
        honest.set_udp_app(53, Box::new(ResolverApp::honest(catalog.clone(), region)));
        let honest_id = attach_host(net, wire, honest, 0);
        resolvers.push((honest_ip, honest_id));

        let mut default_resolver = honest_ip;
        if let Some(dp) = cfg.dns.get(&isp_id) {
            let dns_master = sample_sites(rng, &corpus.pbw, dp.blocked_sites);
            // One interned name list per ISP; `slots[j]` is the master
            // slot of the j-th site of `dns_master` (ascending SiteId).
            let (master, slots) = Blocklist::intern(dns_master.iter().map(|s| Name::new(&corpus.site(*s).domain)));
            // Each site's poisoning probability, which does not depend
            // on the resolver, parallel to `dns_master`.
            let site_q: Vec<f64> = dns_master
                .iter()
                .map(|site| {
                    dp.consistency_q.0
                        + (dp.consistency_q.1 - dp.consistency_q.0)
                            * det_unit(&[cfg.seed ^ 0xd15, u64::from(u32::from(prefix.addr)), site.0 as u64])
                })
                .collect();
            // (site, slot) pairs one poisoned resolver blocks, reused.
            let mut picked: Vec<(SiteId, usize)> = Vec::new();
            let mut poisoned_truth = Vec::new();
            let extra = dp.resolvers.saturating_sub(1); // honest one exists
            for i in 0..extra {
                let leaf = i % l;
                let fourth = 100 + (i / l) as u8;
                let rip = ip(leaf as u8, fourth);
                let mut host = TcpHost::new(rip, format!("{}-dns-{rip}", isp_id.name()), cfg.seed ^ 5);
                let app = if i < dp.poisoned {
                    picked.clear();
                    picked.extend(
                        dns_master
                            .iter()
                            .copied()
                            .zip(slots.iter().copied())
                            .zip(&site_q)
                            .filter(|&((site, _), &q)| {
                                det_unit(&[
                                    cfg.seed ^ 0xd16,
                                    u64::from(u32::from(prefix.addr)),
                                    i as u64,
                                    site.0 as u64,
                                ]) < q
                            })
                            .map(|(pair, _)| pair),
                    );
                    // A poisoned resolver that manipulates nothing is
                    // indistinguishable from an honest one; give each at
                    // least one entry so the deployment counts are real.
                    if picked.is_empty() {
                        let j = i % dns_master.len().max(1);
                        if let (Some(&first), Some(&slot)) = (dns_master.iter().nth(j), slots.get(j)) {
                            picked.push((first, slot));
                        }
                    }
                    poisoned_truth.push((rip, picked.iter().map(|&(site, _)| site).collect()));
                    let bits = master.members(picked.iter().map(|&(_, slot)| slot));
                    let mode = if det_unit(&[cfg.seed ^ 0xd17, i as u64]) < dp.static_ip_fraction {
                        PoisonMode::StaticIp(notice_ip)
                    } else {
                        PoisonMode::Bogon(Ipv4Addr::new(10, 10, 34, 34 + (i % 4) as u8))
                    };
                    ResolverApp::poisoned(catalog.clone(), region, master.clone(), bits, mode)
                } else {
                    ResolverApp::honest(catalog.clone(), region)
                };
                host.set_udp_app(53, Box::new(app));
                let id = attach_host(net, wire, host, leaf);
                resolvers.push((rip, id));
            }
            truth.dns_master.insert(isp_id, dns_master);
            truth.dns_resolvers.insert(isp_id, poisoned_truth);
            // Clients of a DNS-censoring ISP are handed a poisoned
            // resolver (the first one, if any were deployed).
            if dp.poisoned > 0 && resolvers.len() > 1 {
                default_resolver = resolvers[1].0;
            }
        }

        Isp {
            id: isp_id,
            region,
            prefix,
            gateway,
            cores,
            leaves,
            leaf_prefixes,
            client,
            client_ip,
            edge_hosts,
            resolvers,
            default_resolver,
            notice_ip,
            devices,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::IndiaConfig;

    #[test]
    fn tiny_world_builds() {
        let india = India::build(IndiaConfig::tiny());
        assert_eq!(india.isps.len(), 10);
        assert!(!india.hosting.is_empty());
        assert_eq!(india.external_vps.len(), 8);
        // Every measured ISP has a client.
        for isp in india.isps.values() {
            assert!(isp.prefix.contains(isp.client_ip));
            assert!(!isp.edge_hosts.is_empty());
        }
    }

    #[test]
    fn device_counts_match_coverage() {
        let india = India::build(IndiaConfig::tiny());
        let k = india.cfg.cores_per_isp as f64;
        for (isp_id, profile) in &india.cfg.http {
            let want = (profile.coverage_inside * k).round() as usize;
            let have = india.isps[isp_id].devices.len();
            assert_eq!(have, want, "{isp_id}");
        }
        // Non-HTTP ISPs deploy nothing internally.
        assert!(india.isps[&IspId::Mtnl].devices.is_empty());
        assert!(india.isps[&IspId::Nkn].devices.is_empty());
    }

    #[test]
    fn resolver_counts_match_profiles() {
        let india = India::build(IndiaConfig::tiny());
        let cfg = &india.cfg;
        assert_eq!(
            india.isps[&IspId::Mtnl].resolvers.len(),
            cfg.dns[&IspId::Mtnl].resolvers,
        );
        assert_eq!(
            india.truth.dns_resolvers[&IspId::Mtnl].len(),
            cfg.dns[&IspId::Mtnl].poisoned,
        );
        // Non-DNS ISPs still have their one honest resolver.
        assert_eq!(india.isps[&IspId::Airtel].resolvers.len(), 1);
    }

    #[test]
    fn ground_truth_consistency_is_near_target() {
        // The partition-with-multiplicity blocklists guarantee every
        // master site appears on at least one device, which puts a floor
        // of 1/n_devices under the achievable consistency: ISPs whose
        // paper consistency lies below that floor (Vodafone at reduced
        // scale) saturate at it. Everything else must track the target.
        let india = India::build(IndiaConfig::small());
        for (isp_id, p) in &india.cfg.http {
            if p.coverage_inside == 0.0 {
                continue;
            }
            let n_devices = india.truth.http_devices[isp_id].len() as f64;
            let measured = india.truth.true_http_consistency(*isp_id).unwrap();
            let target = ((p.consistency_q.0 + p.consistency_q.1) / 2.0).max(1.0 / n_devices);
            assert!(
                (measured - target).abs() < 0.12,
                "{isp_id}: measured {measured:.3} vs target {target:.3} ({n_devices} devices)"
            );
        }
    }

    #[test]
    fn device_union_equals_master_list() {
        // The other half of the partition guarantee: the union over the
        // ISP's devices is exactly the master blocklist (what makes the
        // measured Table 2 blocked counts track the paper's).
        let india = India::build(IndiaConfig::small());
        for (isp_id, devices) in &india.truth.http_devices {
            if devices.is_empty() {
                continue;
            }
            let mut union = BTreeSet::new();
            for (_, _, bl) in devices {
                union.extend(bl.iter().copied());
            }
            assert_eq!(&union, &india.truth.http_master[isp_id], "{isp_id}");
        }
    }

    #[test]
    fn borders_exist_for_every_collateral_pair() {
        let india = India::build(IndiaConfig::tiny());
        for ((victim, censor), want) in &india.cfg.collateral {
            let got = india.truth.border_blocklist(*victim, *censor).map(|s| s.len()).unwrap_or(0);
            assert!(
                got <= *want && got + 3 >= *want.min(&got.saturating_add(3)),
                "({victim},{censor}): got {got}, want {want}"
            );
            assert!(got > 0 || *want == 0, "({victim},{censor}) empty");
        }
    }

    #[test]
    fn build_is_deterministic() {
        let a = India::build(IndiaConfig::tiny());
        let b = India::build(IndiaConfig::tiny());
        assert_eq!(a.truth.http_master, b.truth.http_master);
        assert_eq!(a.truth.dns_master, b.truth.dns_master);
        assert_eq!(a.truth.borders, b.truth.borders);
        for (id, isp) in &a.isps {
            assert_eq!(isp.client_ip, b.isps[id].client_ip);
            assert_eq!(isp.resolvers.len(), b.isps[id].resolvers.len());
        }
    }
}
