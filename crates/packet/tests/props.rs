//! Property-based tests for every wire format, driven by the
//! `lucent-check` harness: roundtrips, parser safety on arbitrary and
//! corrupted bytes, and checksum integrity.
//!
//! The ad-hoc `arb_*` builders that used to live here are gone — the
//! structured generators now live in `lucent_check::packets` and the
//! properties themselves in `lucent_check::oracles`, whose catalogue
//! tier-1 also runs whole at two fixed seeds. This suite pins each
//! oracle into `cargo test -p lucent-packet` with a deeper case count,
//! and a failure reports a shrunk, replayable tape instead of a bare
//! seed.

use lucent_check::{check, oracles, Config};

fn cfg() -> Config {
    Config::cases(256)
}

#[test]
fn checksum_split_invariance() {
    check(&cfg(), oracles::checksum_split);
}

#[test]
fn ipv4_roundtrip() {
    check(&cfg(), oracles::ipv4_roundtrip);
}

#[test]
fn ipv4_single_bit_corruption_detected_in_header() {
    check(&cfg(), oracles::ipv4_corruption_detected);
}

#[test]
fn tcp_roundtrip() {
    check(&cfg(), oracles::tcp_roundtrip);
}

#[test]
fn udp_roundtrip() {
    check(&cfg(), oracles::udp_roundtrip);
}

#[test]
fn icmp_roundtrip() {
    check(&cfg(), oracles::icmp_roundtrip);
}

#[test]
fn full_packet_roundtrip() {
    check(&cfg(), oracles::full_packet_roundtrip);
}

#[test]
fn parsers_never_panic_on_garbage() {
    check(&cfg(), oracles::parsers_survive_garbage);
}

#[test]
fn parsers_never_panic_on_corrupted_valid_images() {
    check(&cfg(), oracles::parsers_survive_corruption);
}

#[test]
fn dns_roundtrip() {
    check(&cfg(), oracles::dns_roundtrip);
}

#[test]
fn http_roundtrips() {
    check(&cfg(), oracles::http_roundtrips);
}
