//! Garbage-input regression tests: every parser in the crate must reject
//! malformed bytes with a `ParseError` — never panic, never mis-parse.
//!
//! The property tests in `props.rs` throw random bytes at the parsers;
//! this file pins down the *specific* failure modes the paper's
//! measurement pipeline met in the wild: truncation at arbitrary
//! boundaries, hostile DNS compression, inconsistent length fields, and
//! non-UTF-8 HTTP heads.

use std::net::Ipv4Addr;

use lucent_packet::error::ParseError;
use lucent_packet::http::RequestBuilder;
use lucent_packet::tcp::{TcpFlags, TcpHeader};
use lucent_packet::{
    DnsMessage, HttpRequest, HttpResponse, IcmpMessage, Ipv4Header, Packet,
    UdpHeader,
};

const SRC: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 1);
const DST: Ipv4Addr = Ipv4Addr::new(203, 0, 113, 80);

/// Every strict prefix of a valid wire message must be rejected: all
/// formats carry length fields or counts that promise the missing bytes.
#[test]
fn every_truncation_of_a_full_packet_is_rejected() {
    let mut h = TcpHeader::new(40_000, 80, TcpFlags::SYN);
    h.seq = 7;
    let payload = RequestBuilder::browser("blocked.example.in", "/").build();
    let pkt = Packet::tcp(SRC, DST, h, payload);
    let wire = pkt.emit();
    for cut in 0..wire.len() {
        assert!(
            Packet::parse(&wire[..cut]).is_err(),
            "prefix of {cut}/{} bytes must not parse",
            wire.len()
        );
    }
    assert!(Packet::parse(&wire).is_ok());
}

#[test]
fn every_truncation_of_a_dns_answer_is_rejected() {
    let q = DnsMessage::query_a(77, "a.very.long.domain.example.in");
    let ips = [Ipv4Addr::new(1, 2, 3, 4), Ipv4Addr::new(5, 6, 7, 8)];
    let a = DnsMessage::answer_a(q, &ips, 3600);
    let mut wire = Vec::new();
    a.emit(&mut wire).expect("emit");
    for cut in 0..wire.len() {
        assert!(DnsMessage::parse(&wire[..cut]).is_err(), "dns prefix {cut} must not parse");
    }
    assert!(DnsMessage::parse(&wire).is_ok());
}

#[test]
fn dns_counts_promising_absent_records_are_rejected() {
    // Header claims 40 questions; the buffer ends after the header.
    let mut buf = vec![0u8; 12];
    buf[4..6].copy_from_slice(&40u16.to_be_bytes());
    assert!(DnsMessage::parse(&buf).is_err());
    // 65535 answers with no question section either.
    let mut buf = vec![0u8; 12];
    buf[6..8].copy_from_slice(&0xffffu16.to_be_bytes());
    assert!(DnsMessage::parse(&buf).is_err());
}

#[test]
fn dns_pointer_past_end_is_rejected() {
    let mut buf = vec![0x00, 0x01, 0x01, 0x00, 0x00, 0x01, 0, 0, 0, 0, 0, 0];
    buf.extend_from_slice(&[0xc0, 0xff]); // pointer to offset 255: out of bounds
    buf.extend_from_slice(&[0, 1, 0, 1]);
    assert_eq!(DnsMessage::parse(&buf), Err(ParseError::BadName));
}

#[test]
fn dns_rdlen_overrunning_buffer_is_rejected() {
    let q = DnsMessage::query_a(9, "x.com");
    let a = DnsMessage::answer_a(q, &[Ipv4Addr::new(9, 9, 9, 9)], 60);
    let mut wire = Vec::new();
    a.emit(&mut wire).expect("emit");
    // The A rdata (4 bytes) sits at the tail; claim 400 bytes instead.
    let rdlen_at = wire.len() - 4 - 2;
    wire[rdlen_at..rdlen_at + 2].copy_from_slice(&400u16.to_be_bytes());
    assert_eq!(DnsMessage::parse(&wire), Err(ParseError::BadLength { what: "dns" }));
}

#[test]
fn dns_label_length_overrunning_buffer_is_rejected() {
    let mut buf = vec![0x00, 0x01, 0x01, 0x00, 0x00, 0x01, 0, 0, 0, 0, 0, 0];
    buf.push(63); // label of 63 bytes... followed by 2
    buf.extend_from_slice(b"ab");
    assert_eq!(DnsMessage::parse(&buf), Err(ParseError::BadName));
}

#[test]
fn ipv4_length_field_inconsistencies_are_rejected() {
    let h = Ipv4Header {
        src: SRC,
        dst: DST,
        ttl: 64,
        protocol: 6,
        identification: 1,
        tos: 0,
        dont_frag: true,
    };
    let mut wire = Vec::new();
    h.emit(b"payload", &mut wire);
    // Claim a total length beyond the buffer.
    let mut bad = wire.clone();
    bad[2..4].copy_from_slice(&(wire.len() as u16 + 5).to_be_bytes());
    assert!(Ipv4Header::parse(&bad).is_err());
    // Claim an IHL pointing past the end.
    let mut bad = wire.clone();
    bad[0] = 0x4f; // IHL 15 words = 60 bytes of header
    assert!(Ipv4Header::parse(&bad).is_err());
}

#[test]
fn udp_length_field_inconsistencies_are_rejected() {
    let h = UdpHeader::new(5353, 53);
    let mut wire = Vec::new();
    h.emit(SRC, DST, b"hello", &mut wire);
    let mut bad = wire.clone();
    bad[4..6].copy_from_slice(&(wire.len() as u16 + 1).to_be_bytes());
    assert!(UdpHeader::parse(SRC, DST, &bad).is_err());
    let mut bad = wire;
    bad[4..6].copy_from_slice(&3u16.to_be_bytes()); // below the 8-byte header
    assert!(UdpHeader::parse(SRC, DST, &bad).is_err());
}

#[test]
fn icmp_truncations_are_rejected() {
    let msg = IcmpMessage::EchoRequest { ident: 1, seq: 2 };
    let mut wire = Vec::new();
    msg.emit(&mut wire);
    for cut in 0..wire.len() {
        assert!(IcmpMessage::parse(&wire[..cut]).is_err(), "icmp prefix {cut}");
    }
}

#[test]
fn http_head_with_invalid_utf8_is_rejected_not_panicked() {
    let mut bytes = b"GET / HTTP/1.1\r\nHost: ".to_vec();
    bytes.extend_from_slice(&[0xff, 0xfe, 0x80]);
    bytes.extend_from_slice(b"\r\n\r\n");
    assert!(HttpRequest::parse(&bytes).is_err());

    let mut resp = b"HTTP/1.1 200 ".to_vec();
    resp.extend_from_slice(&[0xff, 0x00, 0xc3]);
    resp.extend_from_slice(b"\r\n\r\nbody");
    assert!(HttpResponse::parse(&resp).is_err());
}

#[test]
fn http_without_header_terminator_is_rejected() {
    let bytes = b"GET / HTTP/1.1\r\nHost: x.com\r\n"; // no blank line
    assert!(HttpRequest::parse(bytes).is_err());
    assert!(HttpResponse::parse(b"HTTP/1.1 200 OK\r\n").is_err());
}

#[test]
fn http_mangled_request_lines_are_rejected() {
    for bad in [
        &b"\r\n\r\n"[..],                           // empty head
        &b"GET\r\n\r\n"[..],                        // missing target + version
        &b"GET /\r\n\r\n"[..],                      // missing version
        &b"HTTP/1.1 GET /\r\n\r\n"[..],             // shuffled
        &b"\x00\x01\x02 / HTTP/1.1\r\n\r\n"[..],    // binary method
    ] {
        assert!(
            HttpRequest::parse(bad).is_err(),
            "{:?} must not parse",
            String::from_utf8_lossy(bad)
        );
    }
}

#[test]
fn http_mangled_status_lines_are_rejected() {
    for bad in [&b"200 OK\r\n\r\n"[..], &b"HTTP/1.1 abc OK\r\n\r\n"[..], &b"\r\n\r\n"[..]] {
        assert!(HttpResponse::parse(bad).is_err(), "{:?}", String::from_utf8_lossy(bad));
    }
}

/// The packet parser must refuse non-IPv4 and claim-vs-reality protocol
/// mismatches rather than mis-attributing bytes.
#[test]
fn packet_parse_rejects_wrong_version_and_protocol_garbage() {
    let mut h = TcpHeader::new(1, 2, TcpFlags::SYN);
    h.seq = 1;
    let wire = Packet::tcp(SRC, DST, h, lucent_support::Bytes::new()).emit();
    // Flip the IP version nibble to 6.
    let mut bad = wire.clone();
    bad[0] = (bad[0] & 0x0f) | 0x60;
    assert!(Packet::parse(&bad).is_err());
    // An unknown transport protocol number.
    let mut bad = wire;
    bad[9] = 200;
    // Header checksum covers the protocol byte; recompute so only the
    // protocol field is "wrong".
    bad[10] = 0;
    bad[11] = 0;
    let cks = lucent_packet::checksum::of(&bad[..20]);
    bad[10..12].copy_from_slice(&cks.to_be_bytes());
    assert!(Packet::parse(&bad).is_err());
}
