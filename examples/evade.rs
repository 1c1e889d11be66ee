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

fn main() {
    let mut args = std::env::args().skip(1);
    let sites = args.next().map_or(Some(3), |a| a.parse().ok().filter(|&n| n > 0));
    let (Some(sites), None) = (sites, args.next()) else {
        eprintln!("usage: evade [SITES_PER_ISP], a positive integer");
        std::process::exit(2);
    };
    println!("evading every censoring ISP, each measured on its own simulated India…");
    let opts = EvasionOptions { sites_per_isp: sites, ..Default::default() };
    let mut drv = Driver::new(Scale::Small, shard::default_threads(), None, false)
        .expect("no trace spec to reject");
    let e = drv.evasion(&opts);
    println!("{e}");
    println!("Reading the matrix:");
    println!("  host-case works on wiretaps (Airtel, Jio): their devices match `Host` case-sensitively;");
    println!("  extra-space/tab defeat the overt interceptive devices (Idea): rigid `Host: value` parser;");
    println!("  dup-host defeats the covert interceptive devices (Vodafone): last-Host-wins scanner;");
    println!("  segmented works everywhere: no middlebox reassembles TCP streams;");
    println!("  fw-ipid/fw-src drop the wiretaps' injected FIN/RST at the client;");
    println!("  alt-dns bypasses MTNL/BSNL resolver poisoning.");
}
