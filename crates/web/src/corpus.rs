//! Deterministic corpus generation: ~1200 PBWs in 7 categories plus the
//! Alexa-style popular list, with configurable rates for every content
//! phenomenon the paper identifies.

use std::net::Ipv4Addr;
use std::rc::Rc;

use lucent_netsim::SimRng;

use lucent_dns::DnsCatalog;
use lucent_netsim::routing::Cidr;

use crate::site::{Category, SharedDirectory, Site, SiteDirectory, SiteId, SiteKind};

/// Hands out hosting addresses from a set of prefixes, round-robin.
#[derive(Debug, Clone)]
pub struct IpAllocator {
    pools: Vec<Cidr>,
    cursor: u32,
}

impl IpAllocator {
    /// Allocate from the given prefixes. Host index 0 of each prefix is
    /// skipped (reserved for routers).
    pub fn new(pools: Vec<Cidr>) -> Self {
        assert!(!pools.is_empty(), "need at least one hosting prefix");
        IpAllocator { pools, cursor: 0 }
    }

    /// Next address. Host numbering starts at `.10`: low addresses are
    /// reserved for routers and other infrastructure.
    pub fn next_ip(&mut self) -> Ipv4Addr {
        let pool = &self.pools[(self.cursor as usize) % self.pools.len()];
        let span = pool.size() as u32 - 12;
        let within = 10 + (self.cursor / self.pools.len() as u32) % span;
        self.cursor += 1;
        pool.nth(within)
    }
}

/// Generation parameters. Rates apply to PBW sites; popular sites are
/// mostly normal, CDN-heavy and dynamic.
#[derive(Debug, Clone)]
pub struct CorpusConfig {
    /// Number of potentially-blocked websites (paper: ~1200).
    pub pbw_count: usize,
    /// Number of popular sites (paper: Alexa top 1000).
    pub popular_count: usize,
    /// Master seed.
    pub seed: u64,
    /// Fraction of PBWs that are registrar-parked.
    pub parked: f64,
    /// Fraction of PBWs that are dead (no longer resolve).
    pub dead: f64,
    /// Fraction of PBWs answering only a redirect.
    pub redirect_only: f64,
    /// Fraction of PBWs without a `<title>`.
    pub titleless: f64,
    /// Fraction of sites with location-dependent dynamic content.
    pub dynamic: f64,
    /// Fraction of sites on region-steering CDNs.
    pub regional_cdn: f64,
    /// Fraction of PBWs sharing a hosting IP with the previous site.
    pub shared_hosting: f64,
}

impl Default for CorpusConfig {
    fn default() -> Self {
        CorpusConfig {
            pbw_count: 1200,
            popular_count: 1000,
            seed: 0x1ead_5eed,
            parked: 0.05,
            dead: 0.05,
            redirect_only: 0.07,
            titleless: 0.10,
            dynamic: 0.22,
            regional_cdn: 0.18,
            shared_hosting: 0.05,
        }
    }
}

/// The generated web.
pub struct Corpus {
    sites: Vec<Site>,
    /// Ids of the potentially-blocked websites.
    pub pbw: Vec<SiteId>,
    /// Ids of the popular (Alexa-style) sites.
    pub popular: Vec<SiteId>,
    directory: SharedDirectory,
}

impl Corpus {
    /// Generate deterministically from `cfg`, hosting everything on
    /// addresses drawn from `alloc`.
    #[expect(clippy::disallowed_methods, reason = "seed plumbing: the corpus draws from its seed")]
    pub fn generate(cfg: &CorpusConfig, alloc: &mut IpAllocator) -> Corpus {
        let mut rng = SimRng::seed_from_u64(cfg.seed);
        let mut sites = Vec::with_capacity(cfg.pbw_count + cfg.popular_count);
        let mut pbw = Vec::with_capacity(cfg.pbw_count);
        let mut popular = Vec::with_capacity(cfg.popular_count);
        let tlds = ["com", "net", "org", "in", "info"];
        let mut last_ip: Option<Ipv4Addr> = None;

        for i in 0..cfg.pbw_count {
            let id = SiteId(sites.len() as u32);
            let category = Category::PBW[i % Category::PBW.len()];
            let tld = tlds[i % tlds.len()];
            let domain = format!("{}{:04}.{}", category.slug(), i, tld);
            let roll: f64 = rng.gen();
            let kind = if roll < cfg.dead {
                SiteKind::Dead
            } else if roll < cfg.dead + cfg.parked {
                SiteKind::Parked
            } else if roll < cfg.dead + cfg.parked + cfg.redirect_only {
                SiteKind::RedirectOnly
            } else if roll < cfg.dead + cfg.parked + cfg.redirect_only + cfg.titleless {
                SiteKind::TitleLess
            } else {
                SiteKind::Normal
            };
            let regional = kind == SiteKind::Normal && rng.gen_bool(cfg.regional_cdn);
            let replicas = if kind == SiteKind::Dead {
                Vec::new()
            } else if regional {
                (0..rng.gen_range(3..=6)).map(|_| alloc.next_ip()).collect()
            } else {
                // The Bernoulli draw happens unconditionally so the RNG
                // stream (and thus every later site) is independent of
                // whether a previous IP exists.
                let shared = rng.gen_bool(cfg.shared_hosting);
                match last_ip {
                    Some(ip) if shared => vec![ip],
                    _ => vec![alloc.next_ip()],
                }
            };
            last_ip = replicas.first().copied().or(last_ip);
            sites.push(Site {
                id,
                domain,
                category,
                kind,
                dynamic: kind == SiteKind::Normal && rng.gen_bool(cfg.dynamic),
                replicas,
                regional_dns: regional,
                seed: rng.gen(),
            });
            pbw.push(id);
        }

        for i in 0..cfg.popular_count {
            let id = SiteId(sites.len() as u32);
            let domain = format!("top{:04}.{}", i, tlds[i % tlds.len()]);
            let regional = rng.gen_bool(0.5);
            let replicas = if regional {
                (0..rng.gen_range(3..=6)).map(|_| alloc.next_ip()).collect()
            } else {
                vec![alloc.next_ip()]
            };
            sites.push(Site {
                id,
                domain,
                category: Category::Popular,
                kind: SiteKind::Normal,
                dynamic: rng.gen_bool(0.5),
                replicas,
                regional_dns: regional,
                seed: rng.gen(),
            });
            popular.push(id);
        }

        // Shared hosting is a structural property virtual-hosting
        // experiments rely on, not just a statistical one: the Bernoulli
        // draws above can miss it entirely at small corpus sizes, so
        // force one pair if none materialized.
        let any_shared = {
            let mut firsts: Vec<Ipv4Addr> =
                sites.iter().filter_map(|s| s.replicas.first().copied()).collect();
            firsts.sort_unstable();
            firsts.windows(2).any(|w| w[0] == w[1])
        };
        if !any_shared {
            let singles: Vec<usize> = sites
                .iter()
                .enumerate()
                .filter(|(_, s)| {
                    s.kind == SiteKind::Normal && !s.regional_dns && s.replicas.len() == 1
                })
                .map(|(i, _)| i)
                .collect();
            if let [first, .., last] = singles.as_slice() {
                sites[*last].replicas = sites[*first].replicas.clone();
            }
        }

        let directory = Rc::new(SiteDirectory::new(sites.clone()));
        Corpus { sites, pbw, popular, directory }
    }

    /// A site by id.
    pub fn site(&self, id: SiteId) -> &Site {
        &self.sites[id.0 as usize]
    }

    /// All sites.
    pub fn sites(&self) -> &[Site] {
        &self.sites
    }

    /// The first `max` PBWs in corpus order (all of them when `None`):
    /// an experiment's site sample as a function of its cap alone.
    pub fn pbw_sample(&self, max: Option<usize>) -> Vec<SiteId> {
        self.pbw.iter().copied().take(max.unwrap_or(usize::MAX)).collect()
    }

    /// The shared directory server apps consult.
    pub fn directory(&self) -> SharedDirectory {
        Rc::clone(&self.directory)
    }

    /// Load every site into a DNS catalog.
    pub fn populate_dns(&self, catalog: &mut DnsCatalog) {
        for site in &self.sites {
            match site.kind {
                SiteKind::Dead => catalog.add_dead(&site.domain),
                _ if site.regional_dns => {
                    catalog.add_regional(&site.domain, site.replicas.clone())
                }
                _ => catalog.add_global(&site.domain, site.replicas.clone()),
            }
        }
    }

    /// Every distinct hosting address in the corpus (the set of web
    /// server nodes the topology must instantiate).
    pub fn hosting_ips(&self) -> Vec<Ipv4Addr> {
        let mut ips: Vec<Ipv4Addr> = self
            .sites
            .iter()
            .flat_map(|s| s.replicas.iter().copied())
            .collect();
        ips.sort();
        ips.dedup();
        ips
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_cfg() -> CorpusConfig {
        CorpusConfig { pbw_count: 140, popular_count: 50, ..CorpusConfig::default() }
    }

    fn alloc() -> IpAllocator {
        IpAllocator::new(vec![
            "198.51.100.0/24".parse().unwrap(),
            "203.0.113.0/24".parse().unwrap(),
            "192.0.2.0/24".parse().unwrap(),
        ])
    }

    #[test]
    fn generation_is_deterministic() {
        let a = Corpus::generate(&small_cfg(), &mut alloc());
        let b = Corpus::generate(&small_cfg(), &mut alloc());
        assert_eq!(a.sites.len(), b.sites.len());
        for (x, y) in a.sites.iter().zip(b.sites.iter()) {
            assert_eq!(x.domain, y.domain);
            assert_eq!(x.replicas, y.replicas);
            assert_eq!(x.seed, y.seed);
        }
    }

    #[test]
    fn counts_and_categories() {
        let c = Corpus::generate(&small_cfg(), &mut alloc());
        assert_eq!(c.pbw.len(), 140);
        assert_eq!(c.popular.len(), 50);
        // All 7 categories represented.
        for cat in Category::PBW {
            assert!(c.sites().iter().any(|s| s.category == cat), "{cat:?}");
        }
    }

    #[test]
    fn phenomena_are_present() {
        let c = Corpus::generate(&CorpusConfig::default(), &mut alloc());
        let kinds: Vec<SiteKind> = c.sites().iter().map(|s| s.kind).collect();
        for want in [SiteKind::Normal, SiteKind::Parked, SiteKind::Dead, SiteKind::RedirectOnly, SiteKind::TitleLess] {
            assert!(kinds.contains(&want), "{want:?} missing");
        }
        assert!(c.sites().iter().any(|s| s.dynamic));
        assert!(c.sites().iter().any(|s| s.regional_dns && s.replicas.len() >= 3));
        // Shared hosting: some IP hosts more than one site.
        let dir = c.directory();
        assert!(c.hosting_ips().iter().any(|&ip| dir.sites_at(ip).len() > 1));
    }

    #[test]
    fn dns_population_matches_liveness() {
        let c = Corpus::generate(&small_cfg(), &mut alloc());
        let mut catalog = DnsCatalog::new();
        c.populate_dns(&mut catalog);
        assert_eq!(catalog.len(), c.sites().len());
        for site in c.sites() {
            let name = lucent_packet::dns::Name::new(&site.domain);
            let resolved = catalog.resolve(name.as_str(), 0);
            assert_eq!(resolved.is_some(), site.is_alive(), "{}", site.domain);
        }
    }

    #[test]
    fn allocator_reserves_infrastructure_addresses() {
        let mut a = IpAllocator::new(vec!["10.9.0.0/24".parse().unwrap()]);
        for _ in 0..600 {
            let ip = a.next_ip();
            let last = ip.octets()[3];
            assert!((10..=253).contains(&last), "{ip} outside host range");
        }
    }
}
