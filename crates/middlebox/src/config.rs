//! Per-device censor configuration.
//!
//! A compiled [`crate::policy::Policy`] describes what *every* device of
//! an ISP does; an [`Instance`] carries what a policy file deliberately
//! leaves open so one program serves them all: the device's blocklist,
//! the clients it watches, and its RNG seed.

use std::collections::BTreeSet;
use std::net::Ipv4Addr;

use lucent_netsim::routing::Cidr;

/// Per-device instantiation parameters: what a policy file deliberately
/// leaves open so one program serves every device of an ISP.
#[derive(Debug, Clone, PartialEq)]
pub struct Instance {
    /// Domains this device censors (lowercased on construction).
    pub blocklist: BTreeSet<String>,
    /// Client prefixes eligible for inspection; `None` inspects all.
    /// Jio's prefixes make its middleboxes invisible to vantage points
    /// outside the ISP.
    pub client_filter: Option<Vec<Cidr>>,
    /// Seed of the RNG that draws wiretap delay jitter.
    pub seed: u64,
}

impl Instance {
    /// Build an instance; domains are lowercased, the form the host
    /// matchers extract.
    pub fn of(
        domains: impl IntoIterator<Item = String>,
        client_filter: Option<Vec<Cidr>>,
        seed: u64,
    ) -> Instance {
        let blocklist = domains.into_iter().map(|d| d.to_ascii_lowercase()).collect();
        Instance { blocklist, client_filter, seed }
    }

    /// Is a client address eligible for inspection?
    pub fn inspects_client(&self, client: Ipv4Addr) -> bool {
        self.client_filter
            .as_ref()
            .map(|prefixes| prefixes.iter().any(|p| p.contains(client)))
            .unwrap_or(true)
    }

    /// Is `domain` (already lowercased by the matcher) on this device's
    /// blocklist?
    pub fn blocks(&self, domain: &str) -> bool {
        self.blocklist.contains(domain)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::builtin;

    #[test]
    fn defaults_inspect_port_80_only() {
        let policy = builtin("airtel-wm").unwrap();
        assert!(policy.inspects_port(80));
        assert!(!policy.inspects_port(8080));
    }

    #[test]
    fn ideal_middlebox_inspects_all_ports() {
        let mut policy = builtin("airtel-wm").unwrap();
        policy.ports = None;
        assert!(policy.inspects_port(8080));
        assert!(policy.inspects_port(443));
    }

    #[test]
    fn client_filter_gates_inspection() {
        let filter = Some(vec!["10.50.0.0/16".parse().unwrap()]);
        let inst = Instance::of(["x.example".to_string()], filter, 0);
        assert!(inst.inspects_client(Ipv4Addr::new(10, 50, 3, 3)));
        assert!(!inst.inspects_client(Ipv4Addr::new(172, 16, 0, 1)));
        let unfiltered = Instance::of(["x.example".to_string()], None, 0);
        assert!(unfiltered.inspects_client(Ipv4Addr::new(172, 16, 0, 1)));
    }

    #[test]
    fn blocklist_is_lowercased() {
        let inst = Instance::of(["MiXeD.Example".to_string()], None, 0);
        assert!(inst.blocks("mixed.example"));
        assert!(!inst.blocks("other.example"));
    }
}
