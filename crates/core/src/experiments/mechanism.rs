//! **Figures 3 & 4** — the packet-level mechanism of each middlebox
//! family, read off the client- and remote-side captures of the
//! controlled-remote-host experiment (§4.2.1), the same run
//! Table 2's classifier draws its WM/IM verdict from
//! ([`remote_host_experiment`]).

use std::fmt;

use lucent_middlebox::notice::looks_like_notice;
use lucent_netsim::SimTime;
use lucent_packet::tcp::TcpFlags;
use lucent_packet::{HttpResponse, Packet, TcpHeader};
use lucent_topology::IspId;

use crate::lab::{Capture, Lab};
use crate::probe::classify::{remote_host_experiment, RemoteHostObservation};

/// The observable sequence of one censored connection.
#[derive(Debug, Clone)]
pub struct MechanismReport {
    /// ISP whose middlebox was exercised.
    pub isp: String,
    /// The controlled remote host used.
    pub remote: String,
    /// The handshake completed (SYN/SYN-ACK/ACK seen at the remote).
    pub handshake_at_remote: bool,
    /// The GET payload reached the remote (wiretap signature; false for
    /// interceptive devices). Derived from the remote's
    /// `tcp.payload_bytes_rx` counter, not the capture.
    pub get_reached_remote: bool,
    /// Payload bytes the remote's stack accepted during the fetch (the
    /// `tcp.payload_bytes_rx` metric delta backing `get_reached_remote`).
    pub payload_bytes_at_remote: u64,
    /// The client received a forged notification page.
    pub client_got_notice: bool,
    /// The notification carried FIN (the disconnection part).
    pub notice_had_fin: bool,
    /// A follow-up RST reached the client.
    pub client_got_rst: bool,
    /// A RST reached the remote whose sequence differs from the client's
    /// cursor (sent by the middlebox, not the client).
    pub forged_rst_at_remote: bool,
    /// The remote's (real) response was answered with RST by the client
    /// (it arrived after the forged teardown).
    pub late_response_rst_by_client: bool,
    /// Human-readable packet transcript at the client.
    pub transcript: String,
}

/// Exercise `isp`'s mechanism against the controlled remotes, trying
/// the first eight domains of its blocklist until some (VP path,
/// domain) combination is covered by a device that blocks it.
pub fn observe(lab: &mut Lab, isp: IspId) -> Option<MechanismReport> {
    let master = lab.india.truth.http_master.get(&isp).cloned().unwrap_or_default();
    let domains: Vec<String> =
        master.iter().take(8).map(|&s| lab.india.corpus.site(s).domain.clone()).collect();
    let vps = lab.india.external_vps.clone();
    for domain in &domains {
        for &(remote, remote_node) in &vps {
            let seen = remote_host_experiment(lab, isp, remote, remote_node, domain);
            if let Some(report) = mechanism_of(isp, &seen) {
                return Some(report);
            }
        }
    }
    None
}

/// The mechanism one remote-host run shows; `None` when the client saw
/// no notice, no reset and no timeout (this VP's path is not covered).
fn mechanism_of(isp: IspId, seen: &RemoteHostObservation) -> Option<MechanismReport> {
    let fetch = &seen.fetch;
    let tcp_with = |capture: &Capture, flag: TcpFlags| {
        capture.iter().any(|(_, p)| p.as_tcp().is_some_and(|(h, _)| h.flags.contains(flag)))
    };
    let client_got_notice = fetch.shows_notice();
    let client_got_rst = fetch.was_reset() || tcp_with(&seen.client_capture, TcpFlags::RST);
    if !(client_got_notice || client_got_rst || fetch.hit_timeout()) {
        return None;
    }
    // Metric-based, not capture-based: what the remote's TCP stack
    // *accepted* is the paper's "the server never receives the GET".
    let get_reached_remote = seen.payload_bytes_at_remote > 0;
    let notice_had_fin = seen.client_capture.iter().any(|(_, p)| {
        p.as_tcp().is_some_and(|(h, b)| h.flags.contains(TcpFlags::FIN) && !b.is_empty())
    });
    // Captures hold inbound packets only, so the client's RST of the
    // remote's late response shows up as a RST at the remote.
    let late_response_rst_by_client =
        get_reached_remote && tcp_with(&seen.remote_capture, TcpFlags::RST);
    let transcript = seen
        .client_capture
        .iter()
        .map(|(at, p)| transcript_line(at, p))
        .collect::<Vec<_>>()
        .join("\n");
    Some(MechanismReport {
        isp: isp.name().to_string(),
        remote: seen.remote.to_string(),
        handshake_at_remote: tcp_with(&seen.remote_capture, TcpFlags::SYN),
        get_reached_remote,
        payload_bytes_at_remote: seen.payload_bytes_at_remote,
        client_got_notice,
        notice_had_fin,
        client_got_rst,
        forged_rst_at_remote: seen.forged_rst_at_remote(),
        late_response_rst_by_client,
        transcript,
    })
}

/// One captured packet as a transcript line: arrival time, source, TCP
/// flags and cursors, payload length, IP-ID, and what the payload is.
fn transcript_line(at: &SimTime, p: &Packet) -> String {
    let none = TcpHeader::new(0, 0, TcpFlags::empty());
    let (h, body) = p.as_tcp().map_or((&none, &[][..]), |(h, b)| (h, &b[..]));
    let kind = match HttpResponse::parse(body) {
        Ok(r) if looks_like_notice(&r) => "NOTICE",
        Ok(_) => "HTTP",
        Err(_) if body.is_empty() => "",
        Err(_) => "DATA",
    };
    let (len, ip_id) = (body.len(), p.ip.identification);
    let (src, flags) = (p.src(), &h.flags);
    format!("{at} <- {src} [{flags}] seq={} ack={} len={len} ip_id={ip_id} {kind}", h.seq, h.ack)
}

impl fmt::Display for MechanismReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Mechanism observation: {} via remote {}", self.isp, self.remote)?;
        writeln!(f, "  handshake at remote:        {}", self.handshake_at_remote)?;
        writeln!(
            f,
            "  GET reached remote:         {} ({} payload bytes accepted)",
            self.get_reached_remote, self.payload_bytes_at_remote
        )?;
        writeln!(f, "  client got notice (+FIN):   {} ({})", self.client_got_notice, self.notice_had_fin)?;
        writeln!(f, "  client got RST:             {}", self.client_got_rst)?;
        writeln!(f, "  forged RST at remote:       {}", self.forged_rst_at_remote)?;
        writeln!(f, "  late response RST'd:        {}", self.late_response_rst_by_client)?;
        writeln!(f, "  client-side capture:")?;
        for line in self.transcript.lines() {
            writeln!(f, "    {line}")?;
        }
        Ok(())
    }
}

/// Figure 3: the interceptive mechanism, observed in Idea.
pub fn figure3(lab: &mut Lab) -> Option<MechanismReport> {
    observe(lab, IspId::Idea)
}

/// Figure 4: the wiretap mechanism, observed in Airtel.
pub fn figure4(lab: &mut Lab) -> Option<MechanismReport> {
    observe(lab, IspId::Airtel)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lucent_topology::{India, IndiaConfig};

    #[test]
    fn figure3_shows_interception() {
        let mut lab = Lab::new(India::build(IndiaConfig::tiny()));
        let report = figure3(&mut lab).expect("a covered Idea path to some VP");
        assert!(report.handshake_at_remote);
        // "The server never receives the GET" is asserted on the remote's
        // tcp.payload_bytes_rx counter, not on a capture heuristic.
        assert!(!report.get_reached_remote, "IM consumes the GET: {report}");
        assert_eq!(report.payload_bytes_at_remote, 0, "{report}");
        assert!(report.client_got_notice, "{report}");
        assert!(report.forged_rst_at_remote, "{report}");
        // The interception also shows up in the metrics snapshot.
        let obs = lab.india.net.telemetry();
        assert!(obs.counter_total("im.interceptions") > 0);
        let snap = obs.metrics_snapshot();
        assert!(
            snap.get("counters").and_then(|c| c.get("im.interceptions")).is_some(),
            "snapshot must carry the interception counter"
        );
    }

    #[test]
    fn figure4_shows_wiretap_race() {
        let mut lab = Lab::new(India::build(IndiaConfig::tiny()));
        let Some(report) = figure4(&mut lab) else {
            return; // tiny world: Airtel may not cover any VP path
        };
        assert!(report.get_reached_remote, "wiretap lets the GET through: {report}");
        assert!(report.payload_bytes_at_remote > 0, "{report}");
        assert!(report.client_got_notice || report.client_got_rst, "{report}");
        assert!(
            lab.india.net.telemetry().counter_total("wm.injections") > 0,
            "the wiretap's injection must be visible in metrics"
        );
    }
}

lucent_support::json_object!(MechanismReport { isp, remote, handshake_at_remote, get_reached_remote, payload_bytes_at_remote, client_got_notice, notice_had_fin, client_got_rst, forged_rst_at_remote, late_response_rst_by_client, transcript });
