//! **§6.1** — "middleboxes (or the routers they attach to) show up as
//! unresponsive routers (asterisked) when probed using traceroute": the
//! reason the paper could not count middleboxes by interface the way the
//! China study did.
//!
//! This experiment traceroutes many paths per ISP and cross-tabulates
//! silent hops against censorship observations: censored paths should be
//! exactly the ones whose second hop stays silent, and the asterisk rate
//! should track the deployment's coverage.

use std::fmt;


use lucent_packet::http::RequestBuilder;
use lucent_packet::tcp::TcpFlags;
use lucent_topology::IspId;

use crate::lab::Lab;
use crate::report;

/// Per-ISP asterisk statistics.
#[derive(Debug, Clone)]
pub struct AnonymityRow {
    /// ISP probed.
    pub isp: String,
    /// Paths traced.
    pub paths: usize,
    /// Paths with at least one silent (asterisked) hop.
    pub with_asterisk: usize,
    /// Paths observed censored (a canary blocked Host triggered).
    pub censored: usize,
    /// Censored paths whose trace also shows a silent hop.
    pub censored_and_asterisk: usize,
}

/// The report.
#[derive(Debug, Clone)]
pub struct Anonymity {
    /// Per-ISP rows.
    pub rows: Vec<AnonymityRow>,
}

/// Probe up to `max_paths` popular-site paths in one ISP.
pub fn run_isp(lab: &mut Lab, isp: IspId, max_paths: usize) -> AnonymityRow {
    let client = lab.client_of(isp);
    let hosts: Vec<String> = lab
        .india
        .truth
        .http_master
        .get(&isp)
        .map(|m| m.iter().take(60).map(|&s| lab.india.corpus.site(s).domain.clone()).collect())
        .unwrap_or_default();
    let targets: Vec<std::net::Ipv4Addr> = lab
        .india
        .corpus
        .popular
        .iter()
        .take(max_paths)
        .map(|&s| lab.india.corpus.site(s).replicas[0])
        .collect();
    let mut row = AnonymityRow {
        isp: isp.name().to_string(),
        paths: 0,
        with_asterisk: 0,
        censored: 0,
        censored_and_asterisk: 0,
    };
    for target in targets {
        let trace = lab.traceroute(client, target, 24);
        if !trace.reached {
            continue;
        }
        row.paths += 1;
        let n = trace.hops.len();
        let asterisk = trace.hops[..n.saturating_sub(1)].iter().any(|h| h.is_none());
        if asterisk {
            row.with_asterisk += 1;
        }
        // Canary: replay blocked Hosts on this path until a trigger.
        let mut conn = lab.raw_connect(client, target, 80, None);
        let mut censored = false;
        if conn.established {
            for host in &hosts {
                let req = RequestBuilder::browser(host, "/").build();
                lab.raw_send(&mut conn, &req, None);
                let packets = lab.raw_observe(&mut conn, 120);
                if packets.iter().any(|p| {
                    p.as_tcp()
                        .map(|(h, b)| h.flags.contains(TcpFlags::RST) || !b.is_empty() && {
                            lucent_packet::HttpResponse::parse(b)
                                .map(|r| lucent_middlebox::notice::looks_like_notice(&r))
                                .unwrap_or(false)
                        })
                        .unwrap_or(false)
                }) {
                    censored = true;
                    break;
                }
            }
            lab.raw_close(&conn);
        }
        if censored {
            row.censored += 1;
            if asterisk {
                row.censored_and_asterisk += 1;
            }
        }
    }
    row
}

impl fmt::Display for Anonymity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let rows: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|r| {
                vec![
                    r.isp.clone(),
                    format!("{}", r.paths),
                    format!("{}", r.with_asterisk),
                    format!("{}", r.censored),
                    format!("{}", r.censored_and_asterisk),
                ]
            })
            .collect();
        writeln!(
            f,
            "§6.1: anonymized (asterisked) hops vs censorship per path"
        )?;
        write!(
            f,
            "{}",
            report::table(
                &["ISP", "Paths", "With *", "Censored", "Censored ∧ *"],
                &rows
            )
        )
    }
}

lucent_support::json_object!(AnonymityRow { isp, paths, with_asterisk, censored, censored_and_asterisk });
lucent_support::json_object!(Anonymity { rows });
