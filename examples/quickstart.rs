//! Quickstart: build the simulated India, fetch one site from inside a
//! censoring ISP and from an uncensored vantage, and see the difference.
//!
//! ```sh
//! cargo run -p lucent-examples --bin quickstart
//! ```

use lucent_core::lab::{Lab, FETCH_TIMEOUT_MS};
use lucent_core::probe::classify::censored_sites;
use lucent_topology::{India, IndiaConfig, IspId};

fn main() {
    // A small world: same structure as the paper-scale one, ~10× fewer
    // sites and resolvers. Use `IndiaConfig::paper()` for full scale.
    println!("building the simulated India…");
    let mut lab = Lab::new(India::build(IndiaConfig::small()));

    // Pick a site Idea Cellular censors *on this client's path* (each
    // destination rides its own ECMP path; ~90% are covered in Idea).
    let site = censored_sites(&mut lab, IspId::Idea, 1, |s| s.is_alive())
        .into_iter()
        .next()
        .expect("Idea censors something on this path");
    let s = lab.india.corpus.site(site);
    let (domain, ip) = (s.domain.clone(), s.replicas[0]);
    println!("target: http://{domain}/ at {ip}\n");

    // 1. From the Idea client.
    let client = lab.client_of(IspId::Idea);
    let censored = lab.http_get(client, ip, &domain, FETCH_TIMEOUT_MS);
    match &censored.response {
        Some(resp) if censored.shows_notice() => {
            println!("from Idea: BLOCKED — censorship notification ({} bytes)", resp.body.len());
        }
        Some(resp) => println!("from Idea: got status {} (uncovered path?)", resp.status),
        None => println!(
            "from Idea: connection died (reset: {}, timeout: {})",
            censored.was_reset(),
            censored.hit_timeout()
        ),
    }

    // 2. From the Tor-exit-like uncensored vantage.
    let tor = lab.india.tor;
    let free = lab.http_get(tor, ip, &domain, FETCH_TIMEOUT_MS);
    match &free.response {
        Some(resp) => println!(
            "from Tor exit: status {} — {:?}",
            resp.status,
            resp.title().unwrap_or_else(|| "(no title)".into())
        ),
        None => println!("from Tor exit: no response (site down)"),
    }

    // 3. Evade without any proxy: fudge the Host header's whitespace —
    //    the overt interceptive middlebox misparses it, the server does not.
    let fudged = lucent_packet::http::RequestBuilder::get("/")
        .raw_line(&format!("Host:  {domain}"))
        .build();
    let evaded = lab.http_fetch(client, ip, 80, fudged, FETCH_TIMEOUT_MS);
    match &evaded.response {
        Some(resp) if resp.status == 200 => {
            println!("from Idea with whitespace fudging: EVADED — status 200");
        }
        Some(resp) => println!("evasion attempt got status {}", resp.status),
        None => println!("evasion attempt got no response"),
    }
}
