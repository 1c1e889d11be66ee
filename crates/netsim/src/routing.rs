//! CIDR prefixes, longest-prefix-match forwarding tables, and an
//! all-pairs route computation used by topology builders.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::fmt;
use std::net::Ipv4Addr;
use std::rc::Rc;
use std::str::FromStr;

use crate::node::IfaceId;

/// An IPv4 CIDR prefix.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Cidr {
    /// Network address (host bits are masked off at construction).
    pub addr: Ipv4Addr,
    /// Prefix length, 0..=32.
    pub len: u8,
}

impl Cidr {
    /// Construct, masking host bits.
    pub fn new(addr: Ipv4Addr, len: u8) -> Self {
        assert!(len <= 32, "prefix length {len} > 32");
        let mask = Self::mask(len);
        Cidr { addr: Ipv4Addr::from(u32::from(addr) & mask), len }
    }

    /// A host route (`/32`).
    pub fn host(addr: Ipv4Addr) -> Self {
        Cidr { addr, len: 32 }
    }

    fn mask(len: u8) -> u32 {
        if len == 0 {
            0
        } else {
            u32::MAX << (32 - u32::from(len))
        }
    }

    /// True if `ip` falls within this prefix.
    pub fn contains(&self, ip: Ipv4Addr) -> bool {
        u32::from(ip) & Self::mask(self.len) == u32::from(self.addr)
    }

    /// The `i`-th host address within the prefix (0-based from the network
    /// address). Panics if `i` exceeds the prefix size.
    pub fn nth(&self, i: u32) -> Ipv4Addr {
        let size: u64 = 1u64 << (32 - u32::from(self.len));
        assert!((u64::from(i)) < size, "host index {i} outside /{}", self.len);
        Ipv4Addr::from(u32::from(self.addr) + i)
    }

    /// Number of addresses covered.
    pub fn size(&self) -> u64 {
        1u64 << (32 - u32::from(self.len))
    }
}

impl fmt::Display for Cidr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}", self.addr, self.len)
    }
}

impl FromStr for Cidr {
    type Err = String;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let (addr, len) = s.split_once('/').ok_or_else(|| format!("no '/' in {s:?}"))?;
        let addr: Ipv4Addr = addr.parse().map_err(|e| format!("{e}"))?;
        let len: u8 = len.parse().map_err(|e| format!("{e}"))?;
        if len > 32 {
            return Err(format!("prefix length {len} > 32"));
        }
        Ok(Cidr::new(addr, len))
    }
}

/// A longest-prefix-match forwarding table mapping prefixes to one or
/// more out-ifaces (equal-cost multipath, selected by a flow hash).
///
/// Routes are kept in insertion order, and beside them an index: per
/// distinct prefix length, longest first, the sorted network addresses
/// of that length's routes. A lookup is one binary search per length,
/// and the first hit is the longest match.
///
/// Clones share the routes and the index until one of them adds a
/// route, so the routers of a cloned world copy no table.
#[derive(Debug, Clone, Default)]
pub struct RouteTable {
    shared: Rc<Routes>,
}

#[derive(Debug, Clone, Default)]
struct Routes {
    routes: Vec<(Cidr, Vec<IfaceId>)>,
    /// `(prefix length, end)` per distinct length, longest first: the
    /// length's entries are `nets[previous end..end]`.
    levels: Vec<(u8, usize)>,
    /// `(network, index into routes)`, grouped by level and sorted by
    /// network within one.
    nets: Vec<(u32, u32)>,
}

/// Deterministic per-destination hash used for ECMP next-hop selection —
/// the mechanism that gives a single vantage point *different* router
/// paths to different destinations, which is what makes "fraction of
/// paths intercepted" a measurable quantity.
fn ecmp_hash(ip: Ipv4Addr) -> u32 {
    let mut x = u32::from(ip);
    x ^= x >> 16;
    x = x.wrapping_mul(0x7feb_352d);
    x ^= x >> 15;
    x = x.wrapping_mul(0x846c_a68b);
    x ^ (x >> 16)
}

impl RouteTable {
    /// Empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Install a single-path route. Later insertions of the same prefix
    /// replace the earlier one.
    pub fn add(&mut self, prefix: Cidr, iface: IfaceId) {
        self.add_multi(prefix, vec![iface]);
    }

    /// Install an ECMP route over several interfaces.
    pub fn add_multi(&mut self, prefix: Cidr, ifaces: Vec<IfaceId>) {
        assert!(!ifaces.is_empty(), "route must have at least one next hop");
        let t = Rc::make_mut(&mut self.shared);
        let at = match t.levels.binary_search_by(|&(len, _)| prefix.len.cmp(&len)) {
            Ok(at) => at,
            Err(at) => {
                let start = at.checked_sub(1).map_or(0, |prev| t.levels[prev].1);
                t.levels.insert(at, (prefix.len, start));
                at
            }
        };
        let start = at.checked_sub(1).map_or(0, |prev| t.levels[prev].1);
        let level = &t.nets[start..t.levels[at].1];
        // The address as given: a `Cidr` built field by field may keep
        // host bits, and then, as in `Cidr::contains`, nothing matches it.
        let net = u32::from(prefix.addr);
        match level.binary_search_by_key(&net, |&(n, _)| n) {
            Ok(i) => {
                let route = level[i].1 as usize;
                t.routes[route].1 = ifaces;
            }
            Err(i) => {
                let route = t.routes.len();
                assert!(route < u32::MAX as usize, "route table overflow: {route} routes");
                t.routes.push((prefix, ifaces));
                t.nets.insert(start + i, (net, route as u32));
                for level in &mut t.levels[at..] {
                    level.1 += 1;
                }
            }
        }
    }

    /// Longest-prefix-match lookup keyed on the destination alone, for
    /// traffic a router originates. A multipath route always yields its
    /// first member: this is [`RouteTable::lookup_flow`] with
    /// `src == dst`, whose flow hash `h(ip) ⊕ h(ip)` is zero.
    pub fn lookup(&self, ip: Ipv4Addr) -> Option<IfaceId> {
        self.lookup_flow(ip, ip)
    }

    /// Longest-prefix-match lookup for a packet `src → dst`.
    ///
    /// Multipath routes pick the next hop from a *symmetric* flow hash
    /// (`h(src) ⊕ h(dst)`): both directions of a conversation traverse
    /// the same equal-cost member. This mirrors how operators configure
    /// ECMP around stateful inspection devices — and it is precisely what
    /// lets the paper's middleboxes observe complete handshakes.
    pub fn lookup_flow(&self, src: Ipv4Addr, dst: Ipv4Addr) -> Option<IfaceId> {
        let t = &*self.shared;
        let ip = u32::from(dst);
        let mut start = 0;
        let route = t.levels.iter().find_map(|&(len, end)| {
            let level = t.nets.get(start..end)?;
            start = end;
            let key = ip & Cidr::mask(len);
            let i = level.binary_search_by_key(&key, |&(n, _)| n).ok()?;
            level.get(i).map(|&(_, route)| route as usize)
        })?;
        let ifaces = &t.routes.get(route)?.1;
        if ifaces.len() == 1 {
            ifaces.first().copied()
        } else {
            let h = ecmp_hash(src) ^ ecmp_hash(dst);
            ifaces.get(h as usize % ifaces.len()).copied()
        }
    }

    /// Number of installed routes.
    pub fn len(&self) -> usize {
        self.shared.routes.len()
    }

    /// True when no routes are installed.
    pub fn is_empty(&self) -> bool {
        self.shared.routes.is_empty()
    }

    /// Iterate over installed routes (prefix, next hops).
    pub fn iter(&self) -> impl Iterator<Item = &(Cidr, Vec<IfaceId>)> {
        self.shared.routes.iter()
    }
}

/// Abstract topology description used to compute forwarding tables before
/// the concrete [`crate::Network`] is wired.
///
/// Vertices are dense indices that the topology builder later maps to node
/// ids; edges carry the interface number each endpoint uses.
#[derive(Debug, Default, Clone)]
pub struct RouteGraph {
    n: usize,
    /// adjacency\[u\] = (v, cost, iface-at-u)
    adj: Vec<Vec<(usize, u64, IfaceId)>>,
    adverts: Vec<(usize, Cidr)>,
}

impl RouteGraph {
    /// A graph with `n` vertices and no edges.
    pub fn new(n: usize) -> Self {
        RouteGraph { n, adj: vec![Vec::new(); n], adverts: Vec::new() }
    }

    /// Add an undirected edge. `iface_u`/`iface_v` are the interface
    /// numbers at each end; `cost` is typically the link latency.
    pub fn edge(&mut self, u: usize, v: usize, cost: u64, iface_u: IfaceId, iface_v: IfaceId) {
        self.adj[u].push((v, cost, iface_u));
        self.adj[v].push((u, cost, iface_v));
    }

    /// Declare that vertex `owner` originates `prefix`.
    pub fn advertise(&mut self, owner: usize, prefix: Cidr) {
        self.adverts.push((owner, prefix));
    }

    /// Compute forwarding tables for all vertices: shortest path (by cost,
    /// ties broken by lower vertex index then lower interface number) from
    /// every vertex toward every advertised prefix.
    pub fn compute(&self) -> Vec<RouteTable> {
        let mut tables = vec![RouteTable::new(); self.n];
        for &(owner, prefix) in &self.adverts {
            let dist = self.dijkstra(owner);
            for u in 0..self.n {
                if u == owner || dist[u] == u64::MAX {
                    continue;
                }
                // Next hop: neighbor v minimizing dist[v] + cost(u,v).
                let mut best: Option<(u64, usize, IfaceId)> = None;
                for &(v, cost, iface) in &self.adj[u] {
                    if dist[v] == u64::MAX {
                        continue;
                    }
                    let through = dist[v].saturating_add(cost);
                    let cand = (through, v, iface);
                    best = Some(match best {
                        None => cand,
                        Some(b) if (cand.0, cand.1, cand.2 .0) < (b.0, b.1, b.2 .0) => cand,
                        Some(b) => b,
                    });
                }
                if let Some((_, _, iface)) = best {
                    tables[u].add(prefix, iface);
                }
            }
        }
        tables
    }

    fn dijkstra(&self, src: usize) -> Vec<u64> {
        let mut dist = vec![u64::MAX; self.n];
        dist[src] = 0;
        let mut heap = BinaryHeap::new();
        heap.push(Reverse((0u64, src)));
        while let Some(Reverse((d, u))) = heap.pop() {
            if d > dist[u] {
                continue;
            }
            for &(v, cost, _) in &self.adj[u] {
                let nd = d.saturating_add(cost);
                if nd < dist[v] {
                    dist[v] = nd;
                    heap.push(Reverse((nd, v)));
                }
            }
        }
        dist
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cidr_masks_host_bits() {
        let c: Cidr = "10.1.2.3/24".parse().unwrap();
        assert_eq!(c.addr, Ipv4Addr::new(10, 1, 2, 0));
        assert!(c.contains(Ipv4Addr::new(10, 1, 2, 255)));
        assert!(!c.contains(Ipv4Addr::new(10, 1, 3, 0)));
        assert_eq!(c.to_string(), "10.1.2.0/24");
        assert_eq!(c.size(), 256);
        assert_eq!(c.nth(7), Ipv4Addr::new(10, 1, 2, 7));
    }

    #[test]
    fn cidr_zero_and_full_length() {
        let all: Cidr = "0.0.0.0/0".parse().unwrap();
        assert!(all.contains(Ipv4Addr::new(255, 255, 255, 255)));
        let host = Cidr::host(Ipv4Addr::new(5, 5, 5, 5));
        assert!(host.contains(Ipv4Addr::new(5, 5, 5, 5)));
        assert!(!host.contains(Ipv4Addr::new(5, 5, 5, 6)));
    }

    #[test]
    fn cidr_parse_errors() {
        assert!("10.0.0.0".parse::<Cidr>().is_err());
        assert!("10.0.0.0/33".parse::<Cidr>().is_err());
        assert!("notanip/8".parse::<Cidr>().is_err());
    }

    #[test]
    fn lpm_prefers_longer_prefix() {
        let mut t = RouteTable::new();
        t.add("10.0.0.0/8".parse().unwrap(), IfaceId(0));
        t.add("10.1.0.0/16".parse().unwrap(), IfaceId(1));
        t.add("0.0.0.0/0".parse().unwrap(), IfaceId(2));
        assert_eq!(t.lookup(Ipv4Addr::new(10, 1, 5, 5)), Some(IfaceId(1)));
        assert_eq!(t.lookup(Ipv4Addr::new(10, 2, 5, 5)), Some(IfaceId(0)));
        assert_eq!(t.lookup(Ipv4Addr::new(8, 8, 8, 8)), Some(IfaceId(2)));
    }

    #[test]
    fn route_replacement() {
        let mut t = RouteTable::new();
        t.add("10.0.0.0/8".parse().unwrap(), IfaceId(0));
        t.add("10.0.0.0/8".parse().unwrap(), IfaceId(3));
        assert_eq!(t.len(), 1);
        assert_eq!(t.lookup(Ipv4Addr::new(10, 0, 0, 1)), Some(IfaceId(3)));
    }

    #[test]
    fn destination_only_lookup_takes_the_first_ecmp_member() {
        // `lookup(ip)` is `lookup_flow(ip, ip)`, whose flow hash is zero,
        // so router-originated traffic always leaves by the first member.
        let mut t = RouteTable::new();
        t.add("0.0.0.0/0".parse().unwrap(), IfaceId(9));
        t.add_multi("10.0.0.0/8".parse().unwrap(), vec![IfaceId(4), IfaceId(5), IfaceId(6)]);
        let mut flows = std::collections::BTreeSet::new();
        for i in 0..64u8 {
            let dst = Ipv4Addr::new(10, i, 7, i);
            assert_eq!(t.lookup(dst), Some(IfaceId(4)), "{dst}");
            flows.extend(t.lookup_flow(Ipv4Addr::new(192, 0, 2, i), dst));
        }
        // Forwarded flows still spread over every member.
        assert_eq!(flows.into_iter().collect::<Vec<_>>(), vec![IfaceId(4), IfaceId(5), IfaceId(6)]);
    }

    #[test]
    fn graph_routes_follow_shortest_path() {
        // 0 --1ms-- 1 --1ms-- 2
        //  \________10ms_____/
        let mut g = RouteGraph::new(3);
        g.edge(0, 1, 1000, IfaceId(0), IfaceId(0));
        g.edge(1, 2, 1000, IfaceId(1), IfaceId(0));
        g.edge(0, 2, 10_000, IfaceId(1), IfaceId(1));
        g.advertise(2, "203.0.113.0/24".parse().unwrap());
        let tables = g.compute();
        // Vertex 0 routes via vertex 1 (iface 0), not the direct slow link.
        assert_eq!(tables[0].lookup(Ipv4Addr::new(203, 0, 113, 7)), Some(IfaceId(0)));
        assert_eq!(tables[1].lookup(Ipv4Addr::new(203, 0, 113, 7)), Some(IfaceId(1)));
        // The owner itself gets no route to its own prefix.
        assert_eq!(tables[2].lookup(Ipv4Addr::new(203, 0, 113, 7)), None);
    }

    #[test]
    fn graph_tie_break_is_deterministic() {
        // Two equal-cost paths 0-1-3 and 0-2-3: vertex 1 must win (lower id).
        let mut g = RouteGraph::new(4);
        g.edge(0, 1, 1000, IfaceId(0), IfaceId(0));
        g.edge(0, 2, 1000, IfaceId(1), IfaceId(0));
        g.edge(1, 3, 1000, IfaceId(1), IfaceId(0));
        g.edge(2, 3, 1000, IfaceId(1), IfaceId(1));
        g.advertise(3, "198.51.100.0/24".parse().unwrap());
        let t = g.compute();
        assert_eq!(t[0].lookup(Ipv4Addr::new(198, 51, 100, 1)), Some(IfaceId(0)));
    }

    #[test]
    fn unreachable_vertices_get_no_route() {
        let mut g = RouteGraph::new(3);
        g.edge(0, 1, 1, IfaceId(0), IfaceId(0));
        // vertex 2 is isolated
        g.advertise(2, "192.0.2.0/24".parse().unwrap());
        let t = g.compute();
        assert!(t[0].is_empty());
        assert!(t[1].is_empty());
    }
}
