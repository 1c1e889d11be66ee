//! Evade censorship without proxies, VPNs or Tor (Section 5 of the
//! paper): try every technique against every censoring ISP and print the
//! success matrix.
//!
//! ```sh
//! cargo run -p lucent-examples --bin evade -- [SITES_PER_ISP]
//! ```

use lucent_bench::drive::Driver;
use lucent_bench::{shard, Scale};
use lucent_core::experiments::evasion::EvasionOptions;
use lucent_obs::Telemetry;

fn main() {
    let sites: usize = std::env::args().nth(1).and_then(|s| s.parse().ok()).unwrap_or(3);
    println!("evading every censoring ISP, each measured on its own simulated India…");
    let opts = EvasionOptions { sites_per_isp: sites, ..Default::default() };
    let drv = Driver::new(Scale::Small, shard::default_threads(), None);
    let e = drv.evasion(&Telemetry::new(), &opts);
    println!("{e}");
    println!("Reading the matrix:");
    println!("  host-case works on wiretaps (Airtel, Jio): their devices match `Host` case-sensitively;");
    println!("  extra-space/tab defeat the overt interceptive devices (Idea): rigid `Host: value` parser;");
    println!("  dup-host defeats the covert interceptive devices (Vodafone): last-Host-wins scanner;");
    println!("  segmented works everywhere: no middlebox reassembles TCP streams;");
    println!("  fw-ipid/fw-src drop the wiretaps' injected FIN/RST at the client;");
    println!("  alt-dns bypasses MTNL/BSNL resolver poisoning.");
}
