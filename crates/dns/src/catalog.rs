//! The authoritative name catalog shared by every honest resolver.
//!
//! Real-world DNS answers vary by vantage (CDNs steer clients to nearby
//! replicas) — the exact phenomenon that makes naive "IPs differ ⇒
//! censorship" logic produce false positives (Section 3.1 of the paper).
//! The catalog models this: a site may be *regional*, in which case a
//! resolver in region `r` sees only the replica slice assigned to `r`.

use std::collections::BTreeMap;
use std::net::Ipv4Addr;
use std::rc::Rc;

use lucent_packet::dns::Name;

/// Coarse network region used for CDN replica steering.
pub type RegionId = u16;

#[derive(Debug, Clone)]
struct SiteEntry {
    replicas: Vec<Ipv4Addr>,
    /// Regional sites answer with a region-dependent replica subset;
    /// non-regional sites answer with every replica.
    regional: bool,
    /// Dead domains exist in zone files but no longer resolve.
    dead: bool,
}

/// The authoritative mapping from names to addresses.
#[derive(Debug, Default)]
pub struct DnsCatalog {
    entries: BTreeMap<Name, SiteEntry>,
}

impl DnsCatalog {
    /// Empty catalog.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register a site answering the same replica set everywhere.
    pub fn add_global(&mut self, name: &str, replicas: Vec<Ipv4Addr>) {
        self.entries.insert(
            Name::new(name),
            SiteEntry { replicas, regional: false, dead: false },
        );
    }

    /// Register a CDN-hosted site whose answers vary by region.
    pub fn add_regional(&mut self, name: &str, replicas: Vec<Ipv4Addr>) {
        self.entries.insert(
            Name::new(name),
            SiteEntry { replicas, regional: true, dead: false },
        );
    }

    /// Register a name that no longer resolves (NXDOMAIN everywhere).
    pub fn add_dead(&mut self, name: &str) {
        self.entries.insert(
            Name::new(name),
            SiteEntry { replicas: Vec::new(), regional: false, dead: true },
        );
    }

    /// Whether the catalog knows `name` at all (dead or alive).
    ///
    /// Every lookup takes the name as lowercase dotted text without the
    /// trailing dot, as [`Name::as_str`] gives it, so a decoded query is
    /// looked up without allocating a [`Name`].
    pub fn knows(&self, name: &str) -> bool {
        self.entries.contains_key(name)
    }

    /// Resolve `name` from the viewpoint of `region`.
    ///
    /// `None` means NXDOMAIN. Regional sites answer with the single
    /// replica assigned to the region — the steering behaviour that makes
    /// "the answers differ" useless as a censorship signal (§3.1 of the
    /// paper); global sites return all replicas.
    pub fn resolve(&self, name: &str, region: RegionId) -> Option<&[Ipv4Addr]> {
        let e = self.entries.get(name)?;
        if e.dead || e.replicas.is_empty() {
            return None;
        }
        if !e.regional || e.replicas.len() < 2 {
            return Some(&e.replicas);
        }
        let n = e.replicas.len();
        e.replicas.get(usize::from(region) % n).map(std::slice::from_ref)
    }

    /// All replica addresses of a name, regardless of region (ground
    /// truth for "did these IPs really belong to the site?").
    pub fn all_replicas(&self, name: &str) -> Option<&[Ipv4Addr]> {
        self.entries.get(name).map(|e| e.replicas.as_slice())
    }

    /// Number of known names.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// Shared, read-only handle: every resolver of a world (and of its
/// clones) holds one. Nothing mutates a catalog once it is shared.
pub type SharedCatalog = Rc<DnsCatalog>;

/// Wrap a catalog for sharing.
pub fn shared(catalog: DnsCatalog) -> SharedCatalog {
    Rc::new(catalog)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ip(last: u8) -> Ipv4Addr {
        Ipv4Addr::new(198, 51, 100, last)
    }

    #[test]
    fn global_sites_answer_identically_everywhere() {
        let mut c = DnsCatalog::new();
        c.add_global("plain.example", vec![ip(1), ip(2)]);
        let name = "plain.example";
        assert_eq!(c.resolve(name, 0), c.resolve(name, 99));
        assert_eq!(c.resolve(name, 0).unwrap().len(), 2);
    }

    #[test]
    fn regional_sites_steer_to_one_replica_per_region() {
        let mut c = DnsCatalog::new();
        c.add_regional("cdn.example", (1..=6).map(ip).collect());
        let name = "cdn.example";
        let r0 = c.resolve(name, 0).unwrap();
        let r3 = c.resolve(name, 3).unwrap();
        assert_eq!(r0.len(), 1, "one edge per region");
        assert_ne!(r0, r3, "different regions see different replicas");
        // Every answer is a true replica.
        let all = c.all_replicas(name).unwrap();
        for ip in r0.iter().chain(r3.iter()) {
            assert!(all.contains(ip));
        }
        // Regions congruent mod n agree.
        assert_eq!(c.resolve(name, 0), c.resolve(name, 6));
    }

    #[test]
    fn dead_names_are_nxdomain() {
        let mut c = DnsCatalog::new();
        c.add_dead("gone.example");
        assert!(c.knows("gone.example"));
        assert_eq!(c.resolve("gone.example", 0), None);
    }

    #[test]
    fn unknown_names_are_nxdomain_and_unknown() {
        let c = DnsCatalog::new();
        assert!(!c.knows("nowhere.example"));
        assert_eq!(c.resolve("nowhere.example", 0), None);
    }

    #[test]
    fn region_selection_is_deterministic() {
        let mut c = DnsCatalog::new();
        c.add_regional("cdn.example", (1..=5).map(ip).collect());
        let name = "cdn.example";
        assert_eq!(c.resolve(name, 7), c.resolve(name, 7));
        assert_eq!(c.resolve(name, 7), c.resolve(name, 12)); // 7 % 5 == 12 % 5
    }
}
