//! **X3 (§3.4-III/IV, §4.2.1 caveat)** — what triggers the middleboxes:
//! the TTL-twin experiment, the Host-field-only confirmation, the
//! statefulness ladder and the flow-timeout probe, per ISP.

use std::fmt;


use lucent_middlebox::notice::looks_like_notice;
use lucent_topology::IspId;

use crate::lab::Lab;
use crate::probe::trigger::{
    host_field_only, stateful_ladder, timeout_probe, ttl_twin, HostFieldResult, StatefulLadder,
    TwinResult,
};

/// One ISP's trigger characterization.
#[derive(Debug, Clone)]
pub struct TriggerRow {
    /// ISP measured.
    pub isp: String,
    /// The TTL-twin result.
    pub twin: Option<TwinResult>,
    /// The Host-field experiment.
    pub host_field: Option<HostFieldResult>,
    /// The statefulness ladder.
    pub ladder: Option<StatefulLadder>,
    /// (censored after 200 s idle, censored after refreshed idle).
    pub timeout: Option<(bool, bool)>,
}

/// The full report.
#[derive(Debug, Clone)]
pub struct Triggers {
    /// Per-ISP rows.
    pub rows: Vec<TriggerRow>,
}

/// Locate a (blocked domain, replica ip, allowed domain) censored on the
/// ISP client's path.
fn fixture(lab: &mut Lab, isp: IspId) -> Option<(String, std::net::Ipv4Addr, String)> {
    let master: Vec<_> = lab
        .india
        .truth
        .http_master
        .get(&isp)
        .map(|m| m.iter().copied().collect())
        .unwrap_or_default();
    let client = lab.client_of(isp);
    for site in master {
        let s = lab.india.corpus.site(site);
        if !s.is_alive() {
            continue;
        }
        let (domain, ip) = (s.domain.clone(), s.replicas[0]);
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
            let allowed = lab
                .india
                .corpus
                .popular
                .first()
                .map(|&p| lab.india.corpus.site(p).domain.clone())
                .unwrap_or_else(|| "control.example".into());
            return Some((domain, ip, allowed));
        }
    }
    None
}

/// Characterize one ISP.
pub fn run_isp(lab: &mut Lab, isp: IspId) -> TriggerRow {
    let Some((domain, ip, allowed)) = fixture(lab, isp) else {
        return TriggerRow {
            isp: isp.name().to_string(),
            twin: None,
            host_field: None,
            ladder: None,
            timeout: None,
        };
    };
    let client = lab.client_of(isp);
    TriggerRow {
        isp: isp.name().to_string(),
        twin: ttl_twin(lab, client, ip, &domain),
        host_field: host_field_only(lab, client, ip, &domain, &allowed),
        ladder: stateful_ladder(lab, client, ip, &domain),
        timeout: timeout_probe(lab, client, ip, &domain, 200),
    }
}

impl fmt::Display for Triggers {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Trigger characterization (request-only, Host-field-only, stateful, 2-3 min timeout)")?;
        for r in &self.rows {
            writeln!(f, "{}:", r.isp)?;
            match &r.twin {
                Some(t) => writeln!(
                    f,
                    "  TTL twin: censored at n-1 = {}, at n = {} (rules out response inspection: {})",
                    t.censored_short,
                    t.censored_full,
                    t.rules_out_response_inspection()
                )?,
                None => writeln!(f, "  TTL twin: (no censored path found)")?,
            }
            if let Some(h) = &r.host_field {
                writeln!(
                    f,
                    "  Host-field only: blocked-in-Host={} blocked-elsewhere={} control={}",
                    h.host_blocked, h.domain_elsewhere, h.control
                )?;
            }
            if let Some(l) = &r.ladder {
                writeln!(
                    f,
                    "  Stateful: full={} syn-only={} synack-first={} bare={} → stateful: {}",
                    l.full_handshake,
                    l.syn_only,
                    l.syn_ack_first,
                    l.no_handshake,
                    l.is_stateful()
                )?;
            }
            if let Some((idle, refreshed)) = r.timeout {
                writeln!(
                    f,
                    "  200s idle: censored={idle}; with keep-alive refresh: censored={refreshed}"
                )?;
            }
        }
        Ok(())
    }
}

lucent_support::json_object!(TriggerRow { isp, twin, host_field, ladder, timeout });
lucent_support::json_object!(Triggers { rows });
