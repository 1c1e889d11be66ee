//! **Figure 1** — the Iterative Network Tracer in action on one censored
//! path: ICMP expiries from honest hops, silence at the anonymized
//! middlebox hop, then the censored response.

use std::fmt;


use lucent_topology::IspId;

use crate::lab::Lab;
use crate::probe::classify::censored_on_path;
use crate::probe::tracer::{http_tracer, HttpTrace, Rung};

/// The demonstration output.
#[derive(Debug, Clone)]
pub struct TracerDemo {
    /// ISP demonstrated.
    pub isp: String,
    /// Domain used.
    pub domain: String,
    /// Destination probed.
    pub dst: String,
    /// The trace.
    pub trace: HttpTrace,
}

/// Run the demo in `isp` (first censored path found).
pub fn run(lab: &mut Lab, isp: IspId) -> Option<TracerDemo> {
    let master = lab.india.truth.http_master.get(&isp).cloned().unwrap_or_default();
    let client = lab.client_of(isp);
    for site in master {
        if !lab.india.corpus.site(site).is_alive() || !censored_on_path(lab, isp, site) {
            continue;
        }
        let s = lab.india.corpus.site(site);
        let (domain, ip) = (s.domain.clone(), s.replicas[0]);
        let trace = http_tracer(lab, client, ip, &domain, 24);
        if trace.censored_at_ttl.is_some() {
            return Some(TracerDemo {
                isp: isp.name().to_string(),
                domain,
                dst: ip.to_string(),
                trace,
            });
        }
    }
    None
}

impl fmt::Display for TracerDemo {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Figure 1 demo: tracing {} toward {} in {} (path length {:?})",
            self.domain, self.dst, self.isp, self.trace.path_len
        )?;
        for (i, rung) in self.trace.rungs.iter().enumerate() {
            let what = match rung {
                Rung::IcmpExpired(Some(ip)) => format!("ICMP Time Exceeded from {ip}"),
                Rung::IcmpExpired(None) => "ICMP Time Exceeded (unattributed)".into(),
                Rung::Censored { notice: true } => "CENSORED — notification page injected".into(),
                Rung::Censored { notice: false } => "CENSORED — bare RST injected".into(),
                Rung::ServerResponse => "genuine server response".into(),
                Rung::Silent => "* (silent / anonymized hop)".into(),
            };
            writeln!(f, "  TTL {:>2}: {what}", i + 1)?;
        }
        writeln!(f, "  middlebox located at TTL {:?}", self.trace.censored_at_ttl)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lucent_topology::{India, IndiaConfig};

    #[test]
    fn demo_locates_the_idea_middlebox() {
        let mut lab = Lab::new(India::build(IndiaConfig::tiny()));
        let demo = run(&mut lab, IspId::Idea).expect("censored path in Idea");
        assert!(demo.trace.censored_at_ttl.is_some());
        let text = demo.to_string();
        assert!(text.contains("CENSORED"), "{text}");
        assert!(text.contains("Idea"));
    }
}

lucent_support::json_object!(TracerDemo { isp, domain, dst, trace });
