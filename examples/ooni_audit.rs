//! OONI audit: run the OONI web-connectivity model and the paper's own
//! detection pipeline side by side over a batch of potentially blocked
//! websites, scoring both against manual inspection — a miniature
//! Table 1.
//!
//! ```sh
//! cargo run -p lucent-examples --bin ooni_audit -- [ISP] [SITES]
//! ```

use lucent_core::lab::Lab;
use lucent_core::metrics::PrecisionRecall;
use lucent_core::probe::detect::detect_site;
use lucent_core::probe::manual::inspect;
use lucent_core::probe::ooni::web_connectivity;
use lucent_topology::{India, IndiaConfig, IspId};

fn main() {
    let mut args = std::env::args().skip(1);
    let isp = args.next().map_or(Some(IspId::Airtel), |a| IspId::from_name(&a));
    let max = args.next().map_or(Some(40), |a| a.parse().ok().filter(|&n| n > 0));
    let (Some(isp), Some(max), None) = (isp, max, args.next()) else {
        let isps = IspId::ALL.map(IspId::name).join(", ");
        eprintln!("usage: ooni_audit [ISP] [SITES], ISP one of {isps}, SITES a positive integer");
        std::process::exit(2);
    };

    println!("building the simulated India…");
    let mut lab = Lab::new(India::build(IndiaConfig::small()));
    let sites: Vec<_> = lab.india.corpus.pbw.iter().copied().take(max).collect();
    println!("auditing {} sites in {}\n", sites.len(), isp.name());

    let mut ooni_pr = PrecisionRecall::default();
    let mut ours_pr = PrecisionRecall::default();
    for site in sites {
        let domain = lab.india.corpus.site(site).domain.clone();
        let manual = inspect(&mut lab, isp, site);
        let ooni = web_connectivity(&mut lab, isp, site);
        let ours = detect_site(&mut lab, isp, site);
        let mark = |b: bool| if b { "X" } else { "." };
        println!(
            "  {:<22} manual:{} ooni:{} ours:{}",
            domain,
            mark(manual.blocked),
            mark(ooni.verdict.is_some()),
            mark(ours.blocked),
        );
        ooni_pr.record(ooni.verdict.is_some(), manual.blocked);
        ours_pr.record(ours.blocked, manual.blocked);
    }
    println!("\nOONI:     precision {:.2}, recall {:.2}", ooni_pr.precision(), ooni_pr.recall());
    println!("pipeline: precision {:.2}, recall {:.2}", ours_pr.precision(), ours_pr.recall());
    println!("\nThe pipeline's manual-confirmation step is what closes the gap —");
    println!("exactly the paper's point about OONI (§3.1, §6.2).");
}
