//! ISP identities and static facts about them.

use std::fmt;

use lucent_netsim::routing::Cidr;

/// The autonomous systems modelled, after the paper's nine ISPs plus the
/// TATA transit network implicated in the collateral-damage analysis.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum IspId {
    /// Bharti Airtel — HTTP filtering via wiretap middleboxes.
    Airtel,
    /// Vodafone — HTTP filtering via covert interceptive middleboxes.
    Vodafone,
    /// Idea Cellular — HTTP filtering via overt interceptive middleboxes.
    Idea,
    /// Reliance Jio — wiretap middleboxes invisible from outside.
    Jio,
    /// MTNL — DNS poisoning (383 of 448 resolvers).
    Mtnl,
    /// BSNL — DNS poisoning (17 of 182 resolvers).
    Bsnl,
    /// NKN, the National Knowledge Network — non-censorious.
    Nkn,
    /// Sify — non-censorious.
    Sify,
    /// Siti — non-censorious.
    Siti,
    /// TATA Communications — censorious transit.
    Tata,
}

impl IspId {
    /// All modelled ASes in a stable order.
    pub const ALL: [IspId; 10] = [
        IspId::Airtel,
        IspId::Vodafone,
        IspId::Idea,
        IspId::Jio,
        IspId::Mtnl,
        IspId::Bsnl,
        IspId::Nkn,
        IspId::Sify,
        IspId::Siti,
        IspId::Tata,
    ];

    /// The nine ISPs the paper measures (everything except TATA, which is
    /// only reachable as transit).
    pub const MEASURED: [IspId; 9] = [
        IspId::Airtel,
        IspId::Vodafone,
        IspId::Idea,
        IspId::Jio,
        IspId::Mtnl,
        IspId::Bsnl,
        IspId::Nkn,
        IspId::Sify,
        IspId::Siti,
    ];

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            IspId::Airtel => "Airtel",
            IspId::Vodafone => "Vodafone",
            IspId::Idea => "Idea",
            IspId::Jio => "Jio",
            IspId::Mtnl => "MTNL",
            IspId::Bsnl => "BSNL",
            IspId::Nkn => "NKN",
            IspId::Sify => "Sify",
            IspId::Siti => "Siti",
            IspId::Tata => "TATA",
        }
    }

    /// The ISP whose [`IspId::name`] is `name`, ignoring ASCII case.
    pub fn from_name(name: &str) -> Option<IspId> {
        IspId::ALL.into_iter().find(|i| i.name().eq_ignore_ascii_case(name))
    }

    /// The /16 this AS announces in the simulation.
    pub fn prefix(self) -> Cidr {
        let second = match self {
            IspId::Airtel => 144,
            IspId::Vodafone => 104,
            IspId::Idea => 96,
            IspId::Jio => 36,
            IspId::Mtnl => 180,
            IspId::Bsnl => 200,
            IspId::Nkn => 139,
            IspId::Sify => 150,
            IspId::Siti => 60,
            IspId::Tata => 140,
        };
        let first = match self {
            IspId::Airtel => 59,
            IspId::Vodafone => 42,
            IspId::Idea => 117,
            IspId::Jio => 49,
            IspId::Mtnl => 59,
            IspId::Bsnl => 117,
            IspId::Nkn => 14,
            IspId::Sify => 202,
            IspId::Siti => 103,
            IspId::Tata => 14,
        };
        Cidr::new(std::net::Ipv4Addr::new(first, second, 0, 0), 16)
    }

    /// The content region this AS belongs to (drives CDN steering and
    /// dynamic content).
    pub fn region(self) -> lucent_dns::RegionId {
        match self {
            IspId::Airtel => 1,
            IspId::Vodafone => 2,
            IspId::Idea => 3,
            IspId::Jio => 4,
            IspId::Mtnl => 5,
            IspId::Bsnl => 6,
            IspId::Nkn => 7,
            IspId::Sify => 8,
            IspId::Siti => 9,
            IspId::Tata => 10,
        }
    }

    /// Transit providers of the non-directly-attached (victim) ASes, in
    /// (group-A, group-B) order: traffic to even-indexed hosting pools
    /// rides A, odd-indexed pools ride B. `None` means this AS attaches
    /// to the internet exchange directly.
    pub fn transits(self) -> Option<(IspId, IspId)> {
        match self {
            IspId::Nkn => Some((IspId::Vodafone, IspId::Tata)),
            IspId::Sify => Some((IspId::Tata, IspId::Airtel)),
            IspId::Siti => Some((IspId::Airtel, IspId::Airtel)),
            IspId::Mtnl => Some((IspId::Tata, IspId::Airtel)),
            IspId::Bsnl => Some((IspId::Tata, IspId::Airtel)),
            _ => None,
        }
    }
}

impl fmt::Display for IspId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn prefixes_are_disjoint() {
        let prefixes: Vec<Cidr> = IspId::ALL.iter().map(|i| i.prefix()).collect();
        for (i, a) in prefixes.iter().enumerate() {
            for b in &prefixes[i + 1..] {
                assert!(!a.contains(b.addr), "{a} overlaps {b}");
                assert!(!b.contains(a.addr), "{b} overlaps {a}");
            }
        }
    }

    #[test]
    fn regions_are_unique() {
        let regions: BTreeSet<_> = IspId::ALL.iter().map(|i| i.region()).collect();
        assert_eq!(regions.len(), IspId::ALL.len());
    }

    #[test]
    fn victims_have_transits_and_carriers_do_not() {
        for isp in [IspId::Nkn, IspId::Sify, IspId::Siti, IspId::Mtnl, IspId::Bsnl] {
            assert!(isp.transits().is_some(), "{isp}");
        }
        for isp in [IspId::Airtel, IspId::Vodafone, IspId::Idea, IspId::Jio, IspId::Tata] {
            assert!(isp.transits().is_none(), "{isp}");
        }
    }

    #[test]
    fn transit_providers_are_direct_attachments() {
        for isp in IspId::ALL {
            if let Some((a, b)) = isp.transits() {
                assert!(a.transits().is_none(), "{isp}'s transit {a} must be direct");
                assert!(b.transits().is_none(), "{isp}'s transit {b} must be direct");
            }
        }
    }
}
