//! Integration tests for `lucent-check`: the §5 header-permutation
//! invariant exercised against the *real* India topology (not the
//! synthetic rig), and the whole oracle catalogue plus the simulation
//! invariants at a second fixed seed.

use lucent_check::invariants::{
    blocklist_monotonicity, header_permutation_verdicts, permuted_request,
    wiretap_verdicts_are_header_invariant,
};
use lucent_check::{oracles, run, Config, Source};

use lucent_core::lab::Lab;
use lucent_packet::http::RequestBuilder;
use lucent_topology::{India, IndiaConfig, IspId};

/// The §5 invariant on the full India build: an interceptive ISP's
/// verdict on a TTL-limited request (which can never reach the origin)
/// depends only on the `Host` header, not on innocuous extra headers or
/// their order.
#[test]
fn india_middlebox_verdicts_ignore_innocuous_headers() {
    let mut lab = Lab::new(India::build(IndiaConfig::tiny()));
    let site = lab.india.truth.http_master[&IspId::Idea]
        .iter()
        .copied()
        .find(|&s| lab.india.corpus.site(s).is_alive())
        .expect("a censored, alive Idea site exists at tiny scale");
    let domain = lab.india.corpus.site(site).domain.clone();
    let ip = lab.india.corpus.site(site).replicas[0];
    let client = lab.client_of(IspId::Idea);
    let penultimate = lab.hops_to(client, ip, 30).expect("path to the site") - 1;

    // Did the middlebox answer a request the origin can never see?
    let mut probe = |req: &[u8]| -> bool {
        lab.crafted(client, ip, req, Some(penultimate), 800)
            .expect("handshake to an alive site must succeed")
            .answered()
    };

    let canonical = RequestBuilder::browser(&domain, "/").build();
    assert!(probe(&canonical), "the canonical request for {domain} must be censored");
    let mut s = Source::new(0xC0FFEE, 0);
    for round in 0..4 {
        let permuted = permuted_request(&mut s, &domain, "/");
        assert!(
            probe(&permuted),
            "permutation round {round} changed the verdict for {domain}:\n{:?}",
            String::from_utf8_lossy(&permuted)
        );
    }
    let control = RequestBuilder::browser(&format!("not-{domain}"), "/").build();
    assert!(!probe(&control), "an unlisted host must not be censored");
}

/// Run `prop` at seed 7; a finding fails with the property's name and
/// its shrunk, replayable tape.
fn holds(name: &str, cases: u32, prop: fn(&mut Source)) {
    if let Some(finding) = run(&Config::cases(cases).with_seed(7), prop) {
        panic!("{name}: {}", finding.report());
    }
}

/// Every oracle in the catalogue, then the metamorphic simulation
/// invariants, at seed 7 and 64 cases each — except the live-rig
/// wiretap property, which runs whole simulations per case and gets 4.
#[test]
fn the_catalogue_and_simulation_invariants_hold_at_seed_7() {
    for (name, oracle) in oracles::all() {
        holds(name, 64, oracle);
    }
    holds("header_permutation_verdicts", 64, header_permutation_verdicts);
    holds("blocklist_monotonicity", 64, blocklist_monotonicity);
    holds("wiretap_verdicts_are_header_invariant", 4, wiretap_verdicts_are_header_invariant);
}
