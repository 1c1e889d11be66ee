//! # lucent-bench
//!
//! The reproduction harness: the `repro` binary regenerates every table
//! and figure of the paper (at a configurable scale) by walking the
//! experiment [`suite`] on one run ([`drive::Driver`]), which runs each
//! step on worlds of its own: a clone of its template world, or shards.
//! Performance is measured by the separate `benchmark/` workspace,
//! which builds on [`Scale`] and [`shard`].

#![deny(missing_docs)]

use lucent_topology::IndiaConfig;

pub mod drive;
pub mod shard;
pub mod suite;

/// Scale presets for the simulated world.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Structure-only world (fast; unit-test sized).
    Tiny,
    /// ~10× reduced world with all phenomena present (default).
    Small,
    /// The paper's numbers: 1200 PBWs, 448+182 resolvers, 40 cores/ISP.
    Paper,
}

impl Scale {
    /// Parse a scale name.
    pub fn parse(s: &str) -> Option<Scale> {
        match s {
            "tiny" => Some(Scale::Tiny),
            "small" => Some(Scale::Small),
            "paper" => Some(Scale::Paper),
            _ => None,
        }
    }

    /// The matching config.
    pub fn config(self) -> IndiaConfig {
        match self {
            Scale::Tiny => IndiaConfig::tiny(),
            Scale::Small => IndiaConfig::small(),
            Scale::Paper => IndiaConfig::paper(),
        }
    }

    /// Default per-experiment caps: (sites, inside targets, hosts/path,
    /// consistency paths).
    pub fn caps(self) -> Caps {
        match self {
            Scale::Tiny => Caps {
                sites: Some(40),
                inside_targets: 12,
                hosts_per_path: 40,
                consistency_paths: 6,
            },
            Scale::Small => Caps {
                sites: Some(120),
                inside_targets: 40,
                hosts_per_path: 120,
                consistency_paths: 12,
            },
            Scale::Paper => Caps {
                sites: None,
                inside_targets: 200,
                hosts_per_path: 400,
                consistency_paths: 40,
            },
        }
    }
}

/// Per-experiment effort caps.
#[derive(Debug, Clone, Copy)]
pub struct Caps {
    /// PBW cap (None = all).
    pub sites: Option<usize>,
    /// Popular-site targets for inside coverage scans.
    pub inside_targets: usize,
    /// PBW Hosts replayed per probed path.
    pub hosts_per_path: usize,
    /// Poisoned paths per ISP in the Figure-5 consistency phase.
    pub consistency_paths: usize,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_parsing() {
        assert_eq!(Scale::parse("tiny"), Some(Scale::Tiny));
        assert_eq!(Scale::parse("paper"), Some(Scale::Paper));
        assert_eq!(Scale::parse("full"), None);
        assert_eq!(Scale::parse("bogus"), None);
    }

    #[test]
    fn paper_caps_are_uncapped_on_sites() {
        assert!(Scale::Paper.caps().sites.is_none());
        assert!(Scale::Tiny.caps().sites.is_some());
    }
}
