//! **X2 (§4.2.1 in-text)** — the injection race: for wiretap middleboxes
//! roughly 3 of 10 attempts render the real site; interceptive devices
//! never lose.

use std::fmt;


use lucent_topology::IspId;
use lucent_web::{Site, SiteKind};

use crate::lab::Lab;
use crate::probe::classify::{censored_sites, render_rate};
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

/// The sites the race samples: alive pages of the ordinary kind, whose
/// real content is what a lost race renders.
pub fn raceable(s: &Site) -> bool {
    s.is_alive() && s.kind == SiteKind::Normal
}

/// Measure one ISP. Counter deltas are read from the lab's own
/// registry, so on a private shard lab they are attributable without
/// any sequencing argument.
pub fn run_isp(lab: &mut Lab, isp: IspId, opts: &RaceOptions) -> RaceRow {
    let obs = lab.india.net.telemetry();
    let inj_before = obs.counter_total("wm.injections");
    let slow_before = obs.counter_total("wm.race.slow");
    let sites = censored_sites(lab, isp, opts.sites_per_isp, raceable);
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

lucent_support::json_object!(RaceRow { isp, attempts, rendered, injections, slow_injections });
lucent_support::json_object!(Race { rows });
