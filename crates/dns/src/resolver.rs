//! Resolver applications: honest resolution and the poisoned variant the
//! paper finds in MTNL and BSNL.

use std::cmp::Ordering;
use std::net::Ipv4Addr;
use std::rc::Rc;

use lucent_obs::Level;
use lucent_packet::dns::{Name, QueryView, Rcode};
use lucent_support::ToJson;
use lucent_tcp::{UdpApp, UdpIo};

use crate::catalog::{RegionId, SharedCatalog};

/// How a poisoned resolver manipulates answers for blocked names.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PoisonMode {
    /// Answer with a static address inside the ISP (typically a notice
    /// server) — the "static IP address of the same ISP appearing multiple
    /// times" pattern the paper's frequency analysis keys on.
    StaticIp(Ipv4Addr),
    /// Answer with a bogon address.
    Bogon(Ipv4Addr),
    /// Answer NXDOMAIN.
    NxDomain,
}

impl PoisonMode {
    /// The manipulated reply: the A record this mode answers with, or
    /// its error code.
    fn reply(&self) -> Result<&[Ipv4Addr], Rcode> {
        match self {
            PoisonMode::StaticIp(ip) | PoisonMode::Bogon(ip) => Ok(std::slice::from_ref(ip)),
            PoisonMode::NxDomain => Err(Rcode::NxDomain),
        }
    }
}

/// An ISP's DNS blocklist, interned once and shared (behind an `Rc`) by
/// every resolver of the ISP. Each resolver marks its own subset with a
/// membership bitset over the list's slots (see [`Blocklist::members`]).
#[derive(Debug, Default)]
pub struct Blocklist {
    /// The names, sorted and deduplicated.
    names: Box<[Name]>,
    /// [`prefix_key`] of each name. Ascending, because the key never
    /// orders two names differently from the names themselves.
    keys: Box<[u64]>,
}

/// The first eight bytes of `name`, zero-padded, as a big-endian
/// integer: comparing keys is one integer compare instead of a string
/// compare, and `prefix_key(a) < prefix_key(b)` implies `a < b`.
fn prefix_key(name: &str) -> u64 {
    let bytes = name.as_bytes();
    let mut key = [0; 8];
    let n = bytes.len().min(8);
    key[..n].copy_from_slice(&bytes[..n]);
    u64::from_be_bytes(key)
}

impl Blocklist {
    /// Intern `names`: sort and deduplicate them into a shared list, and
    /// return, for each input name in order, its slot in that list.
    /// Names compare as [`Name`]s do, so case variants of one name share
    /// a slot.
    pub fn intern(names: impl IntoIterator<Item = Name>) -> (Rc<Blocklist>, Vec<usize>) {
        let mut tagged: Vec<(Name, usize)> = names.into_iter().enumerate().map(|(i, n)| (n, i)).collect();
        tagged.sort_unstable();
        let mut sorted: Vec<Name> = Vec::new();
        let mut slots = vec![0; tagged.len()];
        for (name, input) in tagged {
            if sorted.last() != Some(&name) {
                sorted.push(name);
            }
            slots[input] = sorted.len() - 1;
        }
        let keys = sorted.iter().map(|name| prefix_key(name.as_str())).collect();
        (Rc::new(Blocklist { names: sorted.into(), keys }), slots)
    }

    /// The slot of `name` (lowercase dotted text, as [`Name::as_str`]
    /// gives it), if it is on the list: a binary search that compares
    /// integer keys and reads the strings only on key ties.
    pub fn slot(&self, name: &str) -> Option<usize> {
        let key = prefix_key(name);
        let (mut lo, mut hi) = (0, self.names.len());
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            let below = match self.keys[mid].cmp(&key) {
                Ordering::Equal => self.names[mid].as_str() < name,
                order => order == Ordering::Less,
            };
            if below {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        (self.names.get(lo).map(Name::as_str) == Some(name)).then_some(lo)
    }

    /// The membership bitset with `slots` set: bit `i % 64` of word
    /// `i / 64` marks entry `i` as blocked. Every slot must be on the list.
    pub fn members(&self, slots: impl IntoIterator<Item = usize>) -> Vec<u64> {
        let mut bits = vec![0; self.names.len().div_ceil(64)];
        for slot in slots {
            bits[slot / 64] |= 1 << (slot % 64);
        }
        bits
    }
}

/// A recursive resolver serving UDP port 53.
///
/// Every resolver of an ISP shares one interned [`Blocklist`] of the
/// names the ISP blocks anywhere; each resolver keeps a bitset of the
/// entries it poisons itself. With an empty bitset this is an honest
/// resolver; with bits set and a [`PoisonMode`] it is a poisoned one.
/// The distinction the paper measures — *which* resolvers of an ISP are
/// poisoned, and *which* names each poisons — lives entirely in the
/// per-resolver bitsets, which is how the coverage/consistency spread of
/// Figure 2 arises.
#[derive(Clone)]
pub struct ResolverApp {
    catalog: SharedCatalog,
    region: RegionId,
    /// The ISP-wide blocklist.
    master: Rc<Blocklist>,
    /// This resolver's subset of `master` (see [`Blocklist::members`]).
    members: Vec<u64>,
    mode: PoisonMode,
    /// Count of queries answered (diagnostics).
    pub queries: u64,
    /// Count of manipulated answers produced.
    pub poisoned_answers: u64,
}

impl ResolverApp {
    /// An honest resolver: nothing is blocked.
    pub fn honest(catalog: SharedCatalog, region: RegionId) -> Self {
        Self::poisoned(catalog, region, Rc::default(), Vec::new(), PoisonMode::NxDomain)
    }

    /// A resolver poisoning, with the given mode, the entries of
    /// `master` whose bits are set in `members`.
    pub fn poisoned(
        catalog: SharedCatalog,
        region: RegionId,
        master: Rc<Blocklist>,
        members: Vec<u64>,
        mode: PoisonMode,
    ) -> Self {
        ResolverApp { catalog, region, master, members, mode, queries: 0, poisoned_answers: 0 }
    }

    /// True if this resolver manipulates any name.
    pub fn is_poisoned(&self) -> bool {
        self.members.iter().any(|&word| word != 0)
    }

    /// True if this resolver manipulates `name`.
    fn blocks(&self, name: &str) -> bool {
        let Some(slot) = self.master.slot(name) else { return false };
        self.members.get(slot / 64).is_some_and(|word| word >> (slot % 64) & 1 == 1)
    }

    /// The reply to a query for `name` (`None`: the query has no
    /// question) — its A records, or the error code — and whether it is
    /// a manipulated one.
    fn answer(&self, name: Option<&str>) -> (Result<&[Ipv4Addr], Rcode>, bool) {
        let Some(name) = name else {
            return (Err(Rcode::FormErr), false);
        };
        if self.blocks(name) {
            return (self.mode.reply(), true);
        }
        (self.catalog.resolve(name, self.region).ok_or(Rcode::NxDomain), false)
    }
}

impl UdpApp for ResolverApp {
    fn on_datagram(&mut self, io: &mut UdpIo, src: Ipv4Addr, src_port: u16, payload: &[u8]) {
        let Some(query) = QueryView::parse(payload) else {
            return; // garbage and responses in, silence out
        };
        self.queries += 1;
        io.obs.counter_inc("dns.queries", "resolver");
        let (reply, poisoned) = self.answer(query.name());
        if poisoned {
            io.obs.counter_inc("dns.poisoned_answers", "resolver");
        }
        if io.obs.enabled("dns", Level::Debug) {
            let verdict = match reply {
                _ if poisoned => "poisoned",
                Err(Rcode::NxDomain) => "nxdomain",
                _ => "answered",
            };
            let fields = vec![
                ("name".to_string(), query.name().unwrap_or_default().to_json()),
                ("verdict".to_string(), verdict.to_json()),
            ];
            io.obs.event(io.now.micros(), Level::Debug, "dns", "verdict", fields);
        }
        let mut bytes = Vec::new();
        let written = match reply {
            Ok(ips) => query.answer_a(ips, 300, &mut bytes),
            Err(rcode) => query.error(rcode, &mut bytes),
        };
        if poisoned {
            self.poisoned_answers += 1;
        }
        if written.is_ok() {
            io.out.push((src, src_port, bytes));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::{shared, DnsCatalog};
    use lucent_netsim::SimTime;
    use lucent_packet::dns::DnsMessage;

    fn catalog() -> SharedCatalog {
        let mut c = DnsCatalog::new();
        c.add_global("ok.example", vec![Ipv4Addr::new(198, 51, 100, 7)]);
        c.add_global("blocked.example", vec![Ipv4Addr::new(198, 51, 100, 8)]);
        c.add_global("multi.example", vec![Ipv4Addr::new(198, 51, 100, 7), Ipv4Addr::new(198, 51, 100, 9)]);
        shared(c)
    }

    /// The reply `app` sends to `query`, as wire bytes.
    fn reply_bytes(app: &mut ResolverApp, query: &DnsMessage) -> Option<Vec<u8>> {
        let mut bytes = Vec::new();
        query.emit(&mut bytes).unwrap();
        reply_to_wire(app, &bytes)
    }

    /// The reply `app` sends to the query bytes `wire`.
    fn reply_to_wire(app: &mut ResolverApp, wire: &[u8]) -> Option<Vec<u8>> {
        let mut io = UdpIo { out: Vec::new(), now: SimTime::ZERO, obs: lucent_obs::Telemetry::new() };
        app.on_datagram(&mut io, Ipv4Addr::new(10, 0, 0, 9), 5000, wire);
        io.out.pop().map(|(_, _, b)| b)
    }

    fn ask(app: &mut ResolverApp, name: &str) -> Option<DnsMessage> {
        reply_bytes(app, &DnsMessage::query_a(42, name)).map(|b| DnsMessage::parse(&b).unwrap())
    }

    /// Header of a reply to id 42: flag bytes 0x81 (QR, RD echoed) and
    /// 0x80 | RCODE (RA), then QDCOUNT and ANCOUNT.
    fn header(rcode: u8, qdcount: u8, ancount: u8) -> Vec<u8> {
        vec![0, 42, 0x81, 0x80 | rcode, 0, qdcount, 0, ancount, 0, 0, 0, 0]
    }

    /// TYPE A, CLASS IN.
    const A_IN: [u8; 4] = [0, 1, 0, 1];
    /// TTL 300, RDLENGTH 4.
    const TTL_300_RDLEN_4: [u8; 6] = [0, 0, 0x01, 0x2c, 0, 4];
    const BLOCKED: &[u8] = b"\x07blocked\x07example\x00";
    const MULTI: &[u8] = b"\x05multi\x07example\x00";

    /// A resolver over the master `["blocked.example", "other.example"]`
    /// that blocks `blocked`.
    fn blocking(blocked: &[&str], mode: PoisonMode) -> ResolverApp {
        let (master, _) = Blocklist::intern(["blocked.example", "other.example"].map(Name::new));
        let bits = master.members(blocked.iter().filter_map(|n| master.slot(n)));
        ResolverApp::poisoned(catalog(), 0, master, bits, mode)
    }

    #[test]
    fn replies_are_pinned_byte_for_byte() {
        let poisoned = |mode| blocking(&["blocked.example"], mode);
        let cases = [
            (
                ResolverApp::honest(catalog(), 0),
                "multi.example",
                [
                    &header(0, 1, 2)[..],
                    MULTI, &A_IN,
                    MULTI, &A_IN, &TTL_300_RDLEN_4, &[198, 51, 100, 7],
                    MULTI, &A_IN, &TTL_300_RDLEN_4, &[198, 51, 100, 9],
                ]
                .concat(),
            ),
            (
                poisoned(PoisonMode::StaticIp(Ipv4Addr::new(59, 144, 1, 1))),
                "blocked.example",
                [&header(0, 1, 1)[..], BLOCKED, &A_IN, BLOCKED, &A_IN, &TTL_300_RDLEN_4, &[59, 144, 1, 1]]
                    .concat(),
            ),
            (
                poisoned(PoisonMode::Bogon(Ipv4Addr::new(10, 10, 34, 34))),
                "blocked.example",
                [&header(0, 1, 1)[..], BLOCKED, &A_IN, BLOCKED, &A_IN, &TTL_300_RDLEN_4, &[10, 10, 34, 34]]
                    .concat(),
            ),
            (poisoned(PoisonMode::NxDomain), "blocked.example", [&header(3, 1, 0)[..], BLOCKED, &A_IN].concat()),
        ];
        for (mut app, name, expected) in cases {
            assert_eq!(reply_bytes(&mut app, &DnsMessage::query_a(42, name)), Some(expected), "{name}");
        }
        // A query without a question is a format error.
        let mut empty = DnsMessage::query_a(42, "");
        empty.questions.clear();
        assert_eq!(reply_bytes(&mut ResolverApp::honest(catalog(), 0), &empty), Some(header(1, 0, 0)));
    }

    /// Header of a one-question query with id 42 and RD set.
    const QUERY_HEADER: [u8; 12] = [0, 42, 1, 0, 0, 1, 0, 0, 0, 0, 0, 0];

    #[test]
    fn odd_queries_get_pinned_canonical_replies() {
        // An uppercase question is looked up and echoed in lowercase.
        let upper = [&QUERY_HEADER[..], b"\x05MuLTI\x07EXAMPLE\x00", &A_IN].concat();
        let expected = [
            &header(0, 1, 2)[..],
            MULTI, &A_IN,
            MULTI, &A_IN, &TTL_300_RDLEN_4, &[198, 51, 100, 7],
            MULTI, &A_IN, &TTL_300_RDLEN_4, &[198, 51, 100, 9],
        ]
        .concat();
        assert_eq!(reply_to_wire(&mut ResolverApp::honest(catalog(), 0), &upper), Some(expected));
        // A question name compressed into a pointer to bytes past the
        // question is echoed uncompressed.
        let compressed = [&QUERY_HEADER[..], &[0xc0, 18], &A_IN, b"\x07bLocked\x07example\x00"].concat();
        let expected =
            [&header(0, 1, 1)[..], BLOCKED, &A_IN, BLOCKED, &A_IN, &TTL_300_RDLEN_4, &[59, 144, 1, 1]].concat();
        let mut app = blocking(&["blocked.example"], PoisonMode::StaticIp(Ipv4Addr::new(59, 144, 1, 1)));
        assert_eq!(reply_to_wire(&mut app, &compressed), Some(expected));
        assert_eq!(app.poisoned_answers, 1);
    }

    #[test]
    fn honest_resolver_answers_catalog() {
        let mut app = ResolverApp::honest(catalog(), 0);
        let r = ask(&mut app, "ok.example").unwrap();
        assert_eq!(r.a_records(), vec![Ipv4Addr::new(198, 51, 100, 7)]);
        assert_eq!(r.id, 42);
        assert!(r.flags.response);
        assert_eq!(app.queries, 1);
        assert!(!app.is_poisoned());
    }

    #[test]
    fn honest_resolver_nxdomain_for_unknown() {
        let mut app = ResolverApp::honest(catalog(), 0);
        let r = ask(&mut app, "unknown.example").unwrap();
        assert_eq!(r.flags.rcode, Rcode::NxDomain);
        assert!(r.answers.is_empty());
    }

    #[test]
    fn poisoned_resolver_manipulates_only_blocklist() {
        let static_ip = Ipv4Addr::new(59, 144, 1, 1);
        let mut app = blocking(
            &["blocked.example"],
            PoisonMode::StaticIp(static_ip),
        );
        let blocked = ask(&mut app, "blocked.example").unwrap();
        assert_eq!(blocked.a_records(), vec![static_ip]);
        let ok = ask(&mut app, "ok.example").unwrap();
        assert_eq!(ok.a_records(), vec![Ipv4Addr::new(198, 51, 100, 7)]);
        assert_eq!(app.poisoned_answers, 1);
        assert!(app.is_poisoned());
    }

    #[test]
    fn bogon_mode_returns_bogon() {
        let bogon = Ipv4Addr::new(10, 10, 34, 34);
        let mut app = blocking(
            &["blocked.example"],
            PoisonMode::Bogon(bogon),
        );
        let r = ask(&mut app, "blocked.example").unwrap();
        assert_eq!(r.a_records(), vec![bogon]);
        assert!(lucent_packet::ipv4::is_bogon(r.a_records()[0]));
    }

    #[test]
    fn nxdomain_mode_denies_existence() {
        let mut app = blocking(
            &["blocked.example"],
            PoisonMode::NxDomain,
        );
        let r = ask(&mut app, "blocked.example").unwrap();
        assert_eq!(r.flags.rcode, Rcode::NxDomain);
    }

    #[test]
    fn garbage_and_responses_are_ignored() {
        let mut app = ResolverApp::honest(catalog(), 0);
        let mut io = UdpIo { out: Vec::new(), now: SimTime::ZERO, obs: lucent_obs::Telemetry::new() };
        app.on_datagram(&mut io, Ipv4Addr::new(1, 1, 1, 1), 1, b"\xff\xfe");
        assert!(io.out.is_empty());
        // A response message must not be echoed back (loop prevention).
        let q = DnsMessage::query_a(1, "ok.example");
        let resp = DnsMessage::answer_a(q, &[Ipv4Addr::new(9, 9, 9, 9)], 60);
        let mut bytes = Vec::new();
        resp.emit(&mut bytes).unwrap();
        app.on_datagram(&mut io, Ipv4Addr::new(1, 1, 1, 1), 1, &bytes);
        assert!(io.out.is_empty());
        assert_eq!(app.queries, 0);
    }

    #[test]
    fn a_name_missing_from_the_master_resolves_honestly() {
        let mut app = blocking(&["blocked.example"], PoisonMode::NxDomain);
        let r = ask(&mut app, "ok.example").unwrap();
        assert_eq!(r.a_records(), vec![Ipv4Addr::new(198, 51, 100, 7)]);
        assert_eq!(app.poisoned_answers, 0);
    }

    #[test]
    fn a_master_name_with_its_bit_clear_resolves_honestly() {
        // "blocked.example" is on the ISP's master but not on this
        // resolver's subset.
        let mut app = blocking(&["other.example"], PoisonMode::NxDomain);
        assert!(app.is_poisoned());
        let r = ask(&mut app, "blocked.example").unwrap();
        assert_eq!(r.a_records(), vec![Ipv4Addr::new(198, 51, 100, 8)]);
        assert_eq!(app.poisoned_answers, 0);
    }

    #[test]
    fn a_bitset_shorter_than_the_master_means_not_blocked() {
        // 130 names need three words; a one-word set covers slots 0..64.
        let (master, _) = Blocklist::intern((0..130).map(|i| Name::new(&format!("site{i:03}.example"))));
        assert_eq!(master.names.len(), 130);
        let mut app = ResolverApp::poisoned(catalog(), 0, master.clone(), vec![1], PoisonMode::NxDomain);
        assert_eq!(ask(&mut app, "site000.example").unwrap().flags.rcode, Rcode::NxDomain);
        assert_eq!(app.poisoned_answers, 1);
        ask(&mut app, "site129.example").unwrap();
        assert_eq!(app.poisoned_answers, 1, "slot 129 lies past the bitset");
        let mut bare = ResolverApp::poisoned(catalog(), 0, master, Vec::new(), PoisonMode::NxDomain);
        ask(&mut bare, "site129.example").unwrap();
        assert_eq!(bare.poisoned_answers, 0);
    }

    #[test]
    fn an_all_zero_bitset_is_not_poisoned() {
        let (master, _) = Blocklist::intern([Name::new("blocked.example")]);
        let mut app = ResolverApp::poisoned(catalog(), 0, master, vec![0, 0], PoisonMode::NxDomain);
        assert!(!app.is_poisoned());
        let r = ask(&mut app, "blocked.example").unwrap();
        assert_eq!(r.a_records(), vec![Ipv4Addr::new(198, 51, 100, 8)]);
    }

    #[test]
    fn intern_dedupes_case_variants_like_a_name_set() {
        let input = ["B.example", "a.example.", "b.EXAMPLE", "A.Example", "c.example"];
        let (master, slots) = Blocklist::intern(input.map(Name::new));
        let set: std::collections::BTreeSet<Name> = input.map(Name::new).into_iter().collect();
        assert!(master.names.iter().eq(set.iter()), "{master:?} vs {set:?}");
        assert_eq!(slots, vec![1, 0, 1, 0, 2]);
        // Blocking the upper-case spelling blocks every spelling.
        let bits = master.members([slots[0]]);
        let mut app = ResolverApp::poisoned(catalog(), 0, master, bits, PoisonMode::NxDomain);
        assert_eq!(ask(&mut app, "b.example").unwrap().flags.rcode, Rcode::NxDomain);
        assert_eq!(ask(&mut app, "B.EXAMPLE").unwrap().flags.rcode, Rcode::NxDomain);
        assert_eq!(app.poisoned_answers, 2);
    }

    #[test]
    fn slot_finds_names_that_share_an_eight_byte_prefix() {
        let names = ["abcdefgh", "abcdefgh.in", "abcdefgh.com", "abcdefgi", "abc", "", "zz"];
        let (master, slots) = Blocklist::intern(names.map(Name::new));
        for (name, slot) in names.iter().zip(&slots) {
            assert_eq!(master.slot(name), Some(*slot), "{name}");
            assert_eq!(master.names[*slot], Name::new(name));
        }
        for absent in ["abcdefgh.org", "abcdefg", "ab", "abcdefgj", "zzz", "a"] {
            assert_eq!(master.slot(absent), None, "{absent}");
        }
        assert_eq!(Blocklist::default().slot("abc"), None);
    }

    #[test]
    fn members_sets_exactly_the_given_slots() {
        let list = |n: usize| Blocklist::intern((0..n).map(|i| Name::new(&format!("s{i:03}")))).0;
        assert!(list(0).members([]).is_empty());
        assert_eq!(list(65).members([0, 3, 64]), vec![0b1001, 1]);
        assert_eq!(list(130).members([129]), vec![0, 0, 2]);
        assert_eq!(list(130).members([]), vec![0; 3]);
    }
}
