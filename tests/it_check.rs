//! Integration tests for the `lucent-check` campaign: the §5
//! header-permutation invariant exercised against the *real* India
//! topology (not the synthetic rig), and byte-identical campaign
//! transcripts across runs and thread counts — the property behind the
//! `fuzz-smoke` CI gate.

use lucent_check::invariants::permuted_request;
use lucent_check::report::campaign;
use lucent_check::runner::DEFAULT_SEED;
use lucent_check::Source;

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

/// The whole campaign — oracles plus live-rig simulation invariants —
/// prints a byte-identical transcript at the same seed on every run,
/// and finds nothing on a clean tree.
#[test]
fn campaign_transcripts_are_byte_identical_across_runs() {
    let (first, findings) = campaign(4, DEFAULT_SEED, true);
    assert_eq!(findings, 0, "clean tree must produce no findings:\n{first}");
    let (again, _) = campaign(4, DEFAULT_SEED, true);
    assert_eq!(first, again, "campaign transcript differs between identical runs");
}
