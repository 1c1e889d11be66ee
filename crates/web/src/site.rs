//! Site records: what exists on the simulated web.

use std::collections::BTreeMap;
use std::net::Ipv4Addr;
use std::rc::Rc;

/// Identifies a site within a [`crate::Corpus`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SiteId(pub u32);

/// The paper's seven PBW categories, plus `Popular` for the Alexa-style
/// top sites used as connection targets in the coverage experiments.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Category {
    /// Escort services.
    Escort,
    /// Pornography.
    Porn,
    /// Music sharing.
    Music,
    /// Torrent indexes.
    Torrent,
    /// Political content.
    Politics,
    /// Circumvention / hacking tools.
    Tools,
    /// Social networks.
    Social,
    /// Alexa-style popular sites (not in the PBW list).
    Popular,
}

impl Category {
    /// The seven PBW categories in a fixed order.
    pub const PBW: [Category; 7] = [
        Category::Escort,
        Category::Porn,
        Category::Music,
        Category::Torrent,
        Category::Politics,
        Category::Tools,
        Category::Social,
    ];

    /// Short label used in generated domain names.
    pub fn slug(self) -> &'static str {
        match self {
            Category::Escort => "escort",
            Category::Porn => "adult",
            Category::Music => "music",
            Category::Torrent => "torrent",
            Category::Politics => "politics",
            Category::Tools => "tools",
            Category::Social => "social",
            Category::Popular => "popular",
        }
    }
}

/// Content behaviour of a site — the phenomena behind OONI's errors.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SiteKind {
    /// Ordinary page with a title and stable core content.
    Normal,
    /// Previously hosted, now a registrar parking page that differs
    /// wildly by vantage (OONI false-positive source).
    Parked,
    /// Domain no longer resolves anywhere (tested sites that are simply
    /// gone; some ISPs still blocklist them).
    Dead,
    /// Answers only a `302` redirect with a tiny body and no title
    /// (OONI false-negative source: body length ≈ a block page's).
    RedirectOnly,
    /// Real content but no `<title>` tag (defeats OONI's title check).
    TitleLess,
}

/// One site.
#[derive(Debug, Clone)]
pub struct Site {
    /// Stable id.
    pub id: SiteId,
    /// Domain name (lowercase).
    pub domain: String,
    /// Category.
    pub category: Category,
    /// Content behaviour.
    pub kind: SiteKind,
    /// True when the page embeds location-dependent dynamic content
    /// (ads, live feeds) — large diffs across vantages without any
    /// censorship.
    pub dynamic: bool,
    /// Replica addresses hosting the site.
    pub replicas: Vec<Ipv4Addr>,
    /// True when DNS answers vary by region (CDN steering).
    pub regional_dns: bool,
    /// Deterministic per-site seed for content generation.
    pub seed: u64,
}

impl Site {
    /// True if the site actually serves something somewhere.
    pub fn is_alive(&self) -> bool {
        self.kind != SiteKind::Dead && !self.replicas.is_empty()
    }

    /// URL path used for fetches (always `/` in the corpus).
    pub fn path(&self) -> &'static str {
        "/"
    }
}

/// The directory servers consult: domain → site, plus reverse IP lookup.
#[derive(Debug, Default)]
pub struct SiteDirectory {
    by_domain: BTreeMap<String, Site>,
    by_ip: BTreeMap<Ipv4Addr, Vec<SiteId>>,
}

impl SiteDirectory {
    /// Build from an iterator of sites.
    pub fn new(sites: impl IntoIterator<Item = Site>) -> Self {
        let mut dir = SiteDirectory::default();
        for site in sites {
            for &ip in &site.replicas {
                dir.by_ip.entry(ip).or_default().push(site.id);
            }
            dir.by_domain.insert(site.domain.clone(), site);
        }
        dir
    }

    /// Look up a site by domain.
    pub fn by_domain(&self, domain: &str) -> Option<&Site> {
        self.by_domain.get(&domain.to_ascii_lowercase())
    }

    /// The sites hosted at an address (shared hosting yields several).
    pub fn sites_at(&self, ip: Ipv4Addr) -> &[SiteId] {
        self.by_ip.get(&ip).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Iterate all sites.
    pub fn iter(&self) -> impl Iterator<Item = &Site> {
        self.by_domain.values()
    }

    /// Number of sites.
    pub fn len(&self) -> usize {
        self.by_domain.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.by_domain.is_empty()
    }
}

/// Shared handle used by server apps (single-threaded simulator).
pub type SharedDirectory = Rc<SiteDirectory>;

#[cfg(test)]
mod tests {
    use super::*;

    fn site(id: u32, domain: &str, ip: Ipv4Addr) -> Site {
        Site {
            id: SiteId(id),
            domain: domain.into(),
            category: Category::Porn,
            kind: SiteKind::Normal,
            dynamic: false,
            replicas: vec![ip],
            regional_dns: false,
            seed: 7,
        }
    }

    #[test]
    fn directory_lookup_by_domain_is_case_insensitive() {
        let dir = SiteDirectory::new([site(1, "blocked.example", Ipv4Addr::new(1, 2, 3, 4))]);
        assert!(dir.by_domain("BLOCKED.Example").is_some());
        assert!(dir.by_domain("other.example").is_none());
    }

    #[test]
    fn shared_hosting_maps_multiple_sites_to_one_ip() {
        let ip = Ipv4Addr::new(9, 9, 9, 9);
        let dir = SiteDirectory::new([site(1, "a.example", ip), site(2, "b.example", ip)]);
        assert_eq!(dir.sites_at(ip).len(), 2);
        assert!(dir.sites_at(Ipv4Addr::new(1, 1, 1, 1)).is_empty());
    }

    #[test]
    fn dead_sites_are_not_alive() {
        let mut s = site(1, "x.example", Ipv4Addr::new(1, 1, 1, 1));
        s.kind = SiteKind::Dead;
        s.replicas.clear();
        assert!(!s.is_alive());
    }

    #[test]
    fn categories_have_unique_slugs() {
        use std::collections::BTreeSet;
        let slugs: BTreeSet<_> = Category::PBW.iter().map(|c| c.slug()).collect();
        assert_eq!(slugs.len(), 7);
    }
}
