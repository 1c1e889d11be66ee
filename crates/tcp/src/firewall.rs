//! A client-side inbound packet filter — the `iptables` stand-in.
//!
//! Section 5 of the paper evades wiretap middleboxes by dropping, at the
//! client, injected packets with FIN or RST set (keyed on Airtel's fixed
//! IP-Identifier 242, or on the blocked site's address for middleboxes
//! with variable IP-ID). This module is that mechanism.

use std::net::Ipv4Addr;

use lucent_packet::{Packet, TcpFlags, Transport};

/// What to do with a matching packet. (Only `Drop` exists today; the enum
/// leaves room for logging/reject semantics.)
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FilterAction {
    /// Silently discard the packet before the stack sees it.
    Drop,
}

/// One match rule. All present fields must match; absent fields match
/// anything. `flags_any` non-empty restricts the rule to TCP packets
/// carrying at least one of those flags.
#[derive(Debug, Clone)]
pub struct FilterRule {
    /// Match the IP source address.
    pub src: Option<Ipv4Addr>,
    /// Match TCP packets with any of these flags (empty = no flag
    /// requirement, still TCP-only if `tcp_only`).
    pub flags_any: TcpFlags,
    /// Match the IP identification field (Airtel's 242).
    pub ip_id: Option<u16>,
    /// Action on match.
    pub action: FilterAction,
}

impl FilterRule {
    /// Drop TCP packets from `src` that carry FIN or RST — the generic
    /// wiretap-middlebox evasion rule.
    pub fn drop_fin_rst_from(src: Ipv4Addr) -> Self {
        FilterRule {
            src: Some(src),
            flags_any: TcpFlags::FIN | TcpFlags::RST,
            ip_id: None,
            action: FilterAction::Drop,
        }
    }

    /// Drop FIN/RST packets whose IP-Identifier equals `id` — the Airtel
    /// rule (id 242) that spares legitimate server FINs.
    pub fn drop_fin_rst_with_ip_id(id: u16) -> Self {
        FilterRule {
            src: None,
            flags_any: TcpFlags::FIN | TcpFlags::RST,
            ip_id: Some(id),
            action: FilterAction::Drop,
        }
    }

    fn matches(&self, pkt: &Packet) -> bool {
        if let Some(src) = self.src {
            if pkt.src() != src {
                return false;
            }
        }
        if let Some(id) = self.ip_id {
            if pkt.ip.identification != id {
                return false;
            }
        }
        if self.flags_any.0 != 0 {
            match &pkt.transport {
                Transport::Tcp(h, _) if h.flags.intersects(self.flags_any) => {}
                _ => return false,
            }
        }
        true
    }
}

/// An ordered rule list applied to inbound packets.
#[derive(Debug, Clone, Default)]
pub struct Firewall {
    rules: Vec<FilterRule>,
    /// Packets dropped so far.
    pub dropped: u64,
}

impl Firewall {
    /// Empty firewall (accepts everything).
    pub fn new() -> Self {
        Self::default()
    }

    /// Append a rule.
    pub fn add(&mut self, rule: FilterRule) {
        self.rules.push(rule);
    }

    /// Remove all rules.
    pub fn clear(&mut self) {
        self.rules.clear();
    }

    /// Number of installed rules.
    pub fn len(&self) -> usize {
        self.rules.len()
    }

    /// True when no rules are installed.
    pub fn is_empty(&self) -> bool {
        self.rules.is_empty()
    }

    /// Evaluate a packet; returns the action of the first matching rule.
    pub fn check(&mut self, pkt: &Packet) -> Option<FilterAction> {
        for rule in &self.rules {
            if rule.matches(pkt) {
                self.dropped += 1;
                return Some(rule.action);
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lucent_packet::{TcpHeader, UdpHeader};

    const MB: Ipv4Addr = Ipv4Addr::new(203, 0, 113, 80);
    const OTHER: Ipv4Addr = Ipv4Addr::new(198, 51, 100, 1);
    const ME: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 5);

    fn tcp_pkt(src: Ipv4Addr, flags: TcpFlags, ip_id: u16) -> Packet {
        Packet::tcp(src, ME, TcpHeader::new(80, 4000, flags), &b""[..]).with_ip_id(ip_id)
    }

    #[test]
    fn drop_fin_rst_from_source() {
        let mut fw = Firewall::new();
        fw.add(FilterRule::drop_fin_rst_from(MB));
        assert_eq!(fw.check(&tcp_pkt(MB, TcpFlags::FIN | TcpFlags::ACK, 7)), Some(FilterAction::Drop));
        assert_eq!(fw.check(&tcp_pkt(MB, TcpFlags::RST, 7)), Some(FilterAction::Drop));
        // Data from the same source passes — that's the whole point: the
        // real response still gets through.
        assert_eq!(fw.check(&tcp_pkt(MB, TcpFlags::ACK | TcpFlags::PSH, 7)), None);
        // FIN from another host passes.
        assert_eq!(fw.check(&tcp_pkt(OTHER, TcpFlags::FIN, 7)), None);
        assert_eq!(fw.dropped, 2);
    }

    #[test]
    fn airtel_ip_id_rule_spares_legitimate_fins() {
        let mut fw = Firewall::new();
        fw.add(FilterRule::drop_fin_rst_with_ip_id(242));
        // Middlebox packet: FIN with IP-ID 242 → dropped.
        assert_eq!(fw.check(&tcp_pkt(MB, TcpFlags::FIN | TcpFlags::ACK, 242)), Some(FilterAction::Drop));
        // Legitimate server FIN with ordinary IP-ID → passes.
        assert_eq!(fw.check(&tcp_pkt(MB, TcpFlags::FIN | TcpFlags::ACK, 31337)), None);
    }

    #[test]
    fn flag_rules_do_not_match_udp() {
        let mut fw = Firewall::new();
        fw.add(FilterRule::drop_fin_rst_with_ip_id(242));
        let udp = Packet::udp(MB, ME, UdpHeader::new(53, 5000), &b"x"[..]).with_ip_id(242);
        assert_eq!(fw.check(&udp), None);
    }

    #[test]
    fn clear_removes_rules() {
        let mut fw = Firewall::new();
        fw.add(FilterRule::drop_fin_rst_from(MB));
        assert_eq!(fw.len(), 1);
        fw.clear();
        assert!(fw.is_empty());
        assert_eq!(fw.check(&tcp_pkt(MB, TcpFlags::RST, 0)), None);
    }
}
