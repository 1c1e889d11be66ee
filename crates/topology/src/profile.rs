//! Per-ISP censorship profiles and the overall simulation configuration,
//! with calibration constants lifted from the paper's tables.

use std::collections::BTreeMap;

use lucent_middlebox::{builtin, Policy};
use lucent_web::CorpusConfig;

use crate::ids::IspId;

/// HTTP-filtering deployment of one ISP (Table 2 + Figure 5 targets).
#[derive(Debug, Clone)]
pub struct HttpProfile {
    /// The compiled censor program every device of this ISP runs: what
    /// it matches, injects and forges, and whether it sits inline or on
    /// a mirror port.
    pub policy: Policy,
    /// Fraction of core paths whose devices inspect *inside* clients.
    pub coverage_inside: f64,
    /// Fraction of core paths whose devices also inspect *outside*
    /// clients (≤ `coverage_inside`).
    pub coverage_outside: f64,
    /// Size of the ISP's master blocklist (sites sampled from the PBWs).
    pub blocked_sites: usize,
    /// Per-site device-inclusion probability range: each site gets a
    /// stable q ∈ [lo, hi]; each device blocks it with probability q.
    /// The mean of this range is the ISP's Figure-5 consistency.
    pub consistency_q: (f64, f64),
}

/// DNS-poisoning deployment of one ISP (Figure 2 targets).
#[derive(Debug, Clone)]
pub struct DnsProfile {
    /// Total open resolvers.
    pub resolvers: usize,
    /// How many of them are poisoned.
    pub poisoned: usize,
    /// Master DNS blocklist size.
    pub blocked_sites: usize,
    /// Per-site resolver-inclusion probability range (mean = Figure-2
    /// consistency).
    pub consistency_q: (f64, f64),
    /// Fraction of poisoned resolvers answering with the ISP's static
    /// notice address; the rest answer with a bogon.
    pub static_ip_fraction: f64,
}

/// Collateral-damage calibration: how many sites a transit censor blocks
/// for a victim (Table 3).
pub type CollateralPlan = BTreeMap<(IspId, IspId), usize>;

/// The whole-simulation configuration.
#[derive(Debug, Clone)]
pub struct IndiaConfig {
    /// Parallel core routers per ISP (path-diversity resolution: coverage
    /// is quantized to 1/K).
    pub cores_per_isp: usize,
    /// Leaf routers (= internal /24 prefixes) per ISP.
    pub leaves_per_isp: usize,
    /// Corpus generation parameters.
    pub corpus: CorpusConfig,
    /// Number of /24 hosting pools on the simulated internet.
    pub hosting_pools: usize,
    /// HTTP censorship deployments.
    pub http: BTreeMap<IspId, HttpProfile>,
    /// DNS censorship deployments.
    pub dns: BTreeMap<IspId, DnsProfile>,
    /// Collateral calibration (victim, censor) → blocked-site count.
    pub collateral: CollateralPlan,
    /// Master seed.
    pub seed: u64,
}

impl IndiaConfig {
    /// Full paper-scale configuration: 1200 PBWs, 1000 popular sites,
    /// MTNL 448/383 and BSNL 182/17 resolvers, 40 cores per ISP.
    pub fn paper() -> Self {
        Self::with_scale(40, 24, CorpusConfig::default(), (448, 383), (182, 17))
    }

    /// A small configuration for tests: same structure, ~10× smaller.
    pub fn small() -> Self {
        let corpus = CorpusConfig {
            pbw_count: 120,
            popular_count: 60,
            ..CorpusConfig::default()
        };
        Self::with_scale(20, 6, corpus, (40, 34), (24, 3))
    }

    /// A micro configuration for unit tests that only need structure.
    pub fn tiny() -> Self {
        let corpus = CorpusConfig {
            pbw_count: 40,
            popular_count: 20,
            ..CorpusConfig::default()
        };
        Self::with_scale(8, 3, corpus, (8, 6), (6, 1))
    }

    fn with_scale(
        cores: usize,
        leaves: usize,
        corpus: CorpusConfig,
        mtnl_res: (usize, usize),
        bsnl_res: (usize, usize),
    ) -> Self {
        let pbw = corpus.pbw_count;
        // Scale the paper's absolute counts to the configured corpus size
        // (ratios preserved: 234/1200, 338/1200, 483/1200, 200/1200).
        let scale = |paper_count: usize| ((paper_count * pbw) as f64 / 1200.0).round() as usize;
        // (ISP, committed program, coverage inside/outside, blocked
        // sites, consistency q range). TATA censors only as transit
        // (border devices); no internal coverage is modelled, so its
        // inside/outside coverage is zero. A program that fails to
        // compile leaves its ISP out rather than becoming a different
        // censor; `every_scale_deploys_all_five_committed_programs`
        // pins that none does.
        let deployments = [
            (IspId::Airtel, "airtel-wm", (0.752, 0.542), scale(234), (0.02, 0.23)),
            (IspId::Idea, "idea-im", (0.92, 0.90), scale(338), (0.56, 0.98)),
            (IspId::Vodafone, "vodafone-im", (0.11, 0.025), scale(483), (0.02, 0.21)),
            (IspId::Jio, "jio-wm", (0.064, 0.0), scale(200), (0.20, 0.50)),
            (IspId::Tata, "tata-wm", (0.0, 0.0), scale(220), (0.3, 0.9)),
        ];
        let http = deployments
            .into_iter()
            .filter_map(|(isp, program, (inside, outside), blocked_sites, consistency_q)| {
                let policy = builtin(program).ok()?;
                let profile = HttpProfile {
                    policy,
                    coverage_inside: inside,
                    coverage_outside: outside,
                    blocked_sites,
                    consistency_q,
                };
                Some((isp, profile))
            })
            .collect();

        let mut dns = BTreeMap::new();
        dns.insert(
            IspId::Mtnl,
            DnsProfile {
                resolvers: mtnl_res.0,
                poisoned: mtnl_res.1,
                blocked_sites: scale(400),
                consistency_q: (0.10, 0.78),
                static_ip_fraction: 0.8,
            },
        );
        dns.insert(
            IspId::Bsnl,
            DnsProfile {
                resolvers: bsnl_res.0,
                poisoned: bsnl_res.1,
                blocked_sites: scale(300),
                consistency_q: (0.01, 0.14),
                static_ip_fraction: 0.7,
            },
        );

        let mut collateral = BTreeMap::new();
        collateral.insert((IspId::Nkn, IspId::Vodafone), scale(69));
        collateral.insert((IspId::Nkn, IspId::Tata), scale(8));
        collateral.insert((IspId::Sify, IspId::Tata), scale(142));
        collateral.insert((IspId::Sify, IspId::Airtel), scale(2).max(1));
        collateral.insert((IspId::Siti, IspId::Airtel), scale(110));
        collateral.insert((IspId::Mtnl, IspId::Tata), scale(134));
        collateral.insert((IspId::Mtnl, IspId::Airtel), scale(25));
        collateral.insert((IspId::Bsnl, IspId::Tata), scale(156));
        collateral.insert((IspId::Bsnl, IspId::Airtel), scale(1).max(1));

        IndiaConfig {
            cores_per_isp: cores,
            leaves_per_isp: leaves,
            corpus,
            hosting_pools: 16,
            http,
            dns,
            collateral,
            seed: 0x0011_d1a0_2018,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_config_matches_published_counts() {
        let cfg = IndiaConfig::paper();
        assert_eq!(cfg.http[&IspId::Airtel].blocked_sites, 234);
        assert_eq!(cfg.http[&IspId::Idea].blocked_sites, 338);
        assert_eq!(cfg.http[&IspId::Vodafone].blocked_sites, 483);
        assert_eq!(cfg.http[&IspId::Jio].blocked_sites, 200);
        assert_eq!(cfg.dns[&IspId::Mtnl].resolvers, 448);
        assert_eq!(cfg.dns[&IspId::Mtnl].poisoned, 383);
        assert_eq!(cfg.dns[&IspId::Bsnl].resolvers, 182);
        assert_eq!(cfg.dns[&IspId::Bsnl].poisoned, 17);
        assert_eq!(cfg.collateral[&(IspId::Siti, IspId::Airtel)], 110);
    }

    #[test]
    fn small_config_preserves_ratios() {
        let cfg = IndiaConfig::small();
        // 234/1200 of 120 ≈ 23.
        assert_eq!(cfg.http[&IspId::Airtel].blocked_sites, 23);
        assert!(cfg.http[&IspId::Vodafone].blocked_sites > cfg.http[&IspId::Idea].blocked_sites);
        assert!(cfg.collateral[&(IspId::Bsnl, IspId::Airtel)] >= 1);
    }

    #[test]
    fn consistency_means_track_figure5() {
        let cfg = IndiaConfig::paper();
        let mean = |q: (f64, f64)| (q.0 + q.1) / 2.0;
        assert!((mean(cfg.http[&IspId::Idea].consistency_q) - 0.768).abs() < 0.03);
        assert!((mean(cfg.http[&IspId::Airtel].consistency_q) - 0.123).abs() < 0.03);
        assert!((mean(cfg.http[&IspId::Vodafone].consistency_q) - 0.116).abs() < 0.03);
        assert!((mean(cfg.dns[&IspId::Mtnl].consistency_q) - 0.424).abs() < 0.03);
        assert!((mean(cfg.dns[&IspId::Bsnl].consistency_q) - 0.075).abs() < 0.015);
    }

    #[test]
    fn only_covert_profiles_lack_notices() {
        let cfg = IndiaConfig::paper();
        for (isp, p) in &cfg.http {
            assert_eq!(p.policy.notice().is_none(), *isp == IspId::Vodafone, "{isp}");
        }
    }

    #[test]
    fn every_scale_deploys_all_five_committed_programs() {
        let want = [
            (IspId::Airtel, "airtel-wm"),
            (IspId::Vodafone, "vodafone-im"),
            (IspId::Idea, "idea-im"),
            (IspId::Jio, "jio-wm"),
            (IspId::Tata, "tata-wm"),
        ];
        for cfg in [IndiaConfig::tiny(), IndiaConfig::small(), IndiaConfig::paper()] {
            let deployed: Vec<IspId> = cfg.http.keys().copied().collect();
            assert_eq!(deployed, want.map(|(isp, _)| isp), "an ISP's program failed to compile");
            for (isp, program) in want {
                assert_eq!(cfg.http[&isp].policy, builtin(program).unwrap(), "{isp}");
            }
        }
    }
}
