//! Structured generators for every wire format in `lucent-packet`.
//!
//! These replace the ad-hoc `arb_*` builders the three `props.rs`
//! suites used to duplicate: all of them draw from the same shrinkable
//! choice tape.

use std::net::Ipv4Addr;

use lucent_packet::{
    DnsMessage, HttpResponse, IcmpMessage, Ipv4Header, Packet, TcpFlags, TcpHeader, UdpHeader,
};
use lucent_packet::http::RequestBuilder;
use lucent_support::Bytes;

use crate::source::Source;

/// Lowercase label alphabet (domain-name shaped).
pub const ALNUM_LOWER: &str = "abcdefghijklmnopqrstuvwxyz0123456789";

/// An arbitrary IPv4 address.
pub fn ipv4_addr(s: &mut Source) -> Ipv4Addr {
    s.ipv4()
}

/// Arbitrary TCP flags (any of the 6 low bits).
pub fn tcp_flags(s: &mut Source) -> TcpFlags {
    TcpFlags(s.below(0x40) as u8)
}

/// An arbitrary TCP header, optional-MSS included.
pub fn tcp_header(s: &mut Source) -> TcpHeader {
    TcpHeader {
        src_port: s.any_u16(),
        dst_port: s.any_u16(),
        seq: s.any_u32(),
        ack: s.any_u32(),
        flags: tcp_flags(s),
        window: s.any_u16(),
        mss: if s.any_bool() { Some(s.any_u16()) } else { None },
    }
}

/// An arbitrary UDP header.
pub fn udp_header(s: &mut Source) -> UdpHeader {
    UdpHeader::new(s.any_u16(), s.any_u16())
}

/// An arbitrary IPv4 header carrying TCP (protocol 6).
pub fn ipv4_header(s: &mut Source) -> Ipv4Header {
    Ipv4Header {
        src: ipv4_addr(s),
        dst: ipv4_addr(s),
        ttl: s.any_u8(),
        protocol: 6,
        identification: s.any_u16(),
        tos: s.any_u8(),
        dont_frag: s.any_bool(),
    }
}

/// One of the four ICMP message shapes.
pub fn icmp_message(s: &mut Source) -> IcmpMessage {
    let ident = s.any_u16();
    let seq = s.any_u16();
    match s.below(4) {
        0 => IcmpMessage::EchoRequest { ident, seq },
        1 => IcmpMessage::EchoReply { ident, seq },
        2 => IcmpMessage::TimeExceeded { original: s.bytes(0, 63) },
        _ => IcmpMessage::DestUnreachable { code: 3, original: s.bytes(0, 63) },
    }
}

/// A DNS name of 1–4 lowercase-alphanumeric labels.
pub fn dns_name(s: &mut Source) -> String {
    let labels = s.len_in(1, 4);
    let parts: Vec<String> = (0..labels).map(|_| s.string(ALNUM_LOWER, 1, 16)).collect();
    parts.join(".")
}

/// An A query for an arbitrary name.
pub fn dns_query(s: &mut Source) -> DnsMessage {
    let id = s.any_u16();
    let name = dns_name(s);
    DnsMessage::query_a(id, &name)
}

/// An answer (0–5 A records) to an arbitrary query.
pub fn dns_answer(s: &mut Source) -> DnsMessage {
    let q = dns_query(s);
    let n = s.len_in(0, 5);
    let ips: Vec<Ipv4Addr> = (0..n).map(|_| ipv4_addr(s)).collect();
    let ttl = s.any_u32();
    DnsMessage::answer_a(q, &ips, ttl)
}

/// A query or an answer.
pub fn dns_message(s: &mut Source) -> DnsMessage {
    if s.any_bool() {
        dns_answer(s)
    } else {
        dns_query(s)
    }
}

/// A plausible host name: letter first, alnum last, dots and dashes in
/// the middle — the shape `it_props.rs` used to hand-roll.
pub fn host_name(s: &mut Source) -> String {
    format!(
        "{}{}{}",
        s.string("abcdefghijklmnopqrstuvwxyz", 1, 1),
        s.string("abcdefghijklmnopqrstuvwxyz0123456789.-", 0, 30),
        s.string(ALNUM_LOWER, 1, 1),
    )
}

/// A URL path (always `/`-rooted).
pub fn url_path(s: &mut Source) -> String {
    format!("/{}", s.string("abcdefghijklmnopqrstuvwxyz0123456789/", 0, 20))
}

/// A canonical browser request for an arbitrary host and path.
pub fn http_request(s: &mut Source) -> Vec<u8> {
    let host = host_name(s);
    let path = url_path(s);
    RequestBuilder::browser(&host, &path).build()
}

/// An arbitrary HTTP response with a printable-ASCII body.
pub fn http_response(s: &mut Source) -> HttpResponse {
    let status = s.range_u64(100, 599) as u16;
    let len = s.len_in(0, 255);
    let body: Vec<u8> = (0..len).map(|_| s.range_u64(0x20, 0x7e) as u8).collect();
    HttpResponse::new(status, "Reason", body)
}

/// A full TCP packet with arbitrary header, payload, TTL and IP id.
pub fn tcp_packet(s: &mut Source) -> Packet {
    let src = ipv4_addr(s);
    let dst = ipv4_addr(s);
    let h = tcp_header(s);
    let ttl = s.range_u64(1, 255) as u8;
    let id = s.any_u16();
    let payload = s.bytes(0, 255);
    Packet::tcp(src, dst, h, Bytes::from(payload)).with_ttl(ttl).with_ip_id(id)
}

/// A valid wire image of *some* protocol: TCP packet, DNS message, or
/// HTTP request — the corpus the corruption operators mutate.
pub fn wire_image(s: &mut Source) -> Vec<u8> {
    match s.below(3) {
        0 => tcp_packet(s).emit(),
        1 => {
            let mut wire = Vec::new();
            // Emission of a generated message only fails on oversized
            // names, which `dns_name` cannot produce.
            let _ = dns_message(s).emit(&mut wire);
            wire
        }
        _ => http_request(s),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generators_replay_identically() {
        let mut a = Source::new(11, 0);
        let pkt = tcp_packet(&mut a);
        let mut b = Source::replay(a.tape());
        assert_eq!(tcp_packet(&mut b), pkt);
    }

    #[test]
    fn zero_tape_yields_minimal_structures() {
        let mut s = Source::replay(&[]);
        let name = dns_name(&mut s);
        assert_eq!(name, "a", "one label, one char, first alphabet entry");
        let mut s = Source::replay(&[]);
        let host = host_name(&mut s);
        assert_eq!(host, "aa");
    }

    #[test]
    fn wire_images_are_parseable_by_their_own_parser() {
        let mut s = Source::new(5, 3);
        for _ in 0..64 {
            let pkt = tcp_packet(&mut s);
            assert!(Packet::parse(&pkt.emit()).is_ok());
        }
    }
}
