//! **X2 (§4.2.1 in-text)** — the injection race: for wiretap middleboxes
//! roughly 3 of 10 attempts render the real site; interceptive devices
//! never lose.

use std::fmt;


use lucent_middlebox::notice::looks_like_notice;
use lucent_topology::IspId;
use lucent_web::SiteId;

use crate::lab::Lab;
use crate::probe::classify::render_rate;
use crate::report;

/// Options for the race measurement.
#[derive(Debug, Clone)]
pub struct RaceOptions {
    /// ISPs to measure.
    pub isps: Vec<IspId>,
    /// Attempts per site (the paper's "3 out of 10").
    pub attempts: usize,
    /// Blocked sites sampled per ISP.
    pub sites_per_isp: usize,
}

impl Default for RaceOptions {
    fn default() -> Self {
        RaceOptions {
            isps: vec![IspId::Airtel, IspId::Idea, IspId::Vodafone, IspId::Jio],
            attempts: 10,
            sites_per_isp: 5,
        }
    }
}

/// One ISP's race outcome.
#[derive(Debug, Clone)]
pub struct RaceRow {
    /// ISP measured.
    pub isp: String,
    /// Fetch attempts across all sampled sites.
    pub attempts: usize,
    /// Attempts on which the real content rendered.
    pub rendered: usize,
    /// Wiretap injections fired while this ISP was measured (the
    /// `wm.injections` counter delta; zero for interceptive-only ISPs).
    pub injections: u64,
    /// Injections that took the slow path and so probably lost the race
    /// (`wm.race.slow` delta).
    pub slow_injections: u64,
}

impl RaceRow {
    /// Rendered fraction.
    pub fn rate(&self) -> f64 {
        if self.attempts == 0 {
            0.0
        } else {
            self.rendered as f64 / self.attempts as f64
        }
    }
}

/// The race table.
#[derive(Debug, Clone)]
pub struct Race {
    /// Per-ISP rows.
    pub rows: Vec<RaceRow>,
}

/// Find sites actually censored on the client's direct path (render-rate
/// only means something on censored paths).
pub fn censored_sites(lab: &mut Lab, isp: IspId, want: usize) -> Vec<SiteId> {
    let master: Vec<SiteId> = lab
        .india
        .truth
        .http_master
        .get(&isp)
        .map(|m| m.iter().copied().collect())
        .unwrap_or_default();
    let client = lab.client_of(isp);
    let mut out = Vec::new();
    for site in master {
        let s = lab.india.corpus.site(site);
        if !s.is_alive() || s.kind != lucent_web::SiteKind::Normal {
            continue;
        }
        let (domain, ip) = (s.domain.clone(), s.replicas[0]);
        // Two probes: censored if either shows the block (the wiretap
        // race can hide a single observation).
        let mut censored = false;
        for _ in 0..2 {
            let f = lab.http_get(client, ip, &domain, 3_000);
            if f.was_reset()
                || f.hit_timeout()
                || f.response.as_ref().map(looks_like_notice).unwrap_or(false)
            {
                censored = true;
                break;
            }
        }
        if censored {
            out.push(site);
            if out.len() >= want {
                break;
            }
        }
    }
    out
}

/// Measure one ISP. Counter deltas are read from the lab's own
/// registry, so on a private shard lab they are attributable without
/// any sequencing argument; on a shared lab this is exactly the old
/// sequential-attribution semantics.
pub fn run_isp(lab: &mut Lab, isp: IspId, opts: &RaceOptions) -> RaceRow {
    let obs = lab.india.net.telemetry();
    let inj_before = obs.counter_total("wm.injections");
    let slow_before = obs.counter_total("wm.race.slow");
    let sites = censored_sites(lab, isp, opts.sites_per_isp);
    let mut attempts = 0;
    let mut rendered = 0;
    for site in sites {
        let (r, a) = render_rate(lab, isp, site, opts.attempts);
        rendered += r;
        attempts += a;
    }
    RaceRow {
        isp: isp.name().to_string(),
        attempts,
        rendered,
        injections: obs.counter_total("wm.injections").saturating_sub(inj_before),
        slow_injections: obs.counter_total("wm.race.slow").saturating_sub(slow_before),
    }
}

/// Run the race measurement.
pub fn run(lab: &mut Lab, opts: &RaceOptions) -> Race {
    Race { rows: opts.isps.iter().map(|&isp| run_isp(lab, isp, opts)).collect() }
}

impl fmt::Display for Race {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let rows: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|r| {
                vec![
                    r.isp.clone(),
                    format!("{}/{}", r.rendered, r.attempts),
                    report::pct(r.rate()),
                ]
            })
            .collect();
        writeln!(f, "Injection race: attempts on which the real site rendered")?;
        write!(f, "{}", report::table(&["ISP", "Rendered", "Rate"], &rows))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lucent_topology::{India, IndiaConfig};

    #[test]
    fn wiretaps_lose_races_interceptive_never_do() {
        let mut lab = Lab::new(India::build(IndiaConfig::small()));
        let race = run(
            &mut lab,
            &RaceOptions {
                isps: vec![IspId::Airtel, IspId::Idea],
                attempts: 10,
                sites_per_isp: 3,
            },
        );
        let airtel = &race.rows[0];
        let idea = &race.rows[1];
        assert!(idea.attempts > 0, "{race}");
        assert_eq!(idea.rendered, 0, "interceptive devices never lose: {race}");
        // Metric-backed mechanism check: Idea is interceptive, so no
        // wiretap injection fires during its window; Airtel's losses are
        // explained by injections actually racing.
        assert_eq!(idea.injections, 0, "no wiretap fires for Idea: {race}");
        if airtel.attempts > 0 {
            assert!(airtel.injections > 0, "Airtel's wiretap must have fired: {race}");
            assert!(airtel.slow_injections <= airtel.injections, "{race}");
        }
        if airtel.attempts >= 20 {
            let rate = airtel.rate();
            assert!(
                rate > 0.05 && rate < 0.7,
                "wiretap render rate should be near the paper's ~0.3: {rate}"
            );
        }
    }
}

lucent_support::json_object!(RaceRow { isp, attempts, rendered, injections, slow_injections });
lucent_support::json_object!(Race { rows });
