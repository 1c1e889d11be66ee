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

/// A hand-encoded DNS query in the shapes a resolver meets on the wire
/// and [`DnsMessage::query_a`] never builds: 0–3 questions (QDCOUNT 0
/// included), names with uppercase letters, label bytes ≥ 0x80 and `.`
/// inside labels, names that end in a compression pointer to an earlier
/// label (or, as a loop, to one of their own), any type and sometimes a
/// non-IN class, resource records after the questions, trailing bytes,
/// and sometimes the response bit.
pub fn dns_query_wire(s: &mut Source) -> Vec<u8> {
    let mut wire = Vec::new();
    let response = if one_in(s, 8) { 0x8000 } else { 0 };
    let flags = s.any_u16() & 0x7fff | response;
    let questions = s.len_in(0, 3) as u16;
    let records = if one_in(s, 4) { [s.below(3), s.below(2), s.below(2)].map(|n| n as u16) } else { [0; 3] };
    for word in [s.any_u16(), flags, questions, records[0], records[1], records[2]] {
        wire.extend_from_slice(&word.to_be_bytes());
    }
    let mut labels = Vec::new();
    for _ in 0..questions {
        wire_name(s, &mut wire, &mut labels);
        let qtype = if s.any_bool() { 1 } else { s.any_u16() };
        let class = if one_in(s, 4) { s.any_u16() } else { 1 };
        wire.extend_from_slice(&qtype.to_be_bytes());
        wire.extend_from_slice(&class.to_be_bytes());
    }
    for _ in 0..records.iter().sum::<u16>() {
        wire_name(s, &mut wire, &mut labels);
        let rtype = *s.pick(&[1u16, 5, 16]);
        wire.extend_from_slice(&rtype.to_be_bytes());
        wire.extend_from_slice(&1u16.to_be_bytes());
        wire.extend_from_slice(&s.any_u32().to_be_bytes());
        let at = wire.len();
        wire.extend_from_slice(&[0, 0]);
        match rtype {
            1 => wire.extend_from_slice(&s.bytes(3, 5)),
            5 => wire_name(s, &mut wire, &mut labels),
            _ => wire.extend_from_slice(&s.bytes(0, 8)),
        }
        let rdlen = (wire.len() - at - 2) as u16;
        wire[at..at + 2].copy_from_slice(&rdlen.to_be_bytes());
    }
    if one_in(s, 4) {
        wire.extend_from_slice(&s.bytes(1, 8));
    }
    wire
}

/// Append a name of 0–4 labels to `wire`, ending in a zero byte or in
/// a pointer to one of `labels`, the offsets of every label so far
/// (this name's own included, which makes a loop).
fn wire_name(s: &mut Source, wire: &mut Vec<u8>, labels: &mut Vec<usize>) {
    for _ in 0..s.len_in(0, 4) {
        labels.push(wire.len());
        let len = if one_in(s, 8) { s.len_in(1, 63) } else { s.len_in(1, 12) };
        wire.push(len as u8);
        for _ in 0..len {
            let byte = match s.below(16) {
                0..=9 => *s.pick(ALNUM_LOWER.as_bytes()),
                10..=13 => s.range_u64(u64::from(b'A'), u64::from(b'Z')) as u8,
                14 => b'.',
                _ => 0x80 | s.any_u8(),
            };
            wire.push(byte);
        }
    }
    if !labels.is_empty() && one_in(s, 3) {
        let target = *s.pick(labels) as u16 & 0x3fff;
        wire.extend_from_slice(&(0xc000 | target).to_be_bytes());
    } else {
        wire.push(0);
    }
}

/// True one time in `n`; a zero draw is false, so shrinking turns the
/// rare shape off.
fn one_in(s: &mut Source, n: u64) -> bool {
    s.below(n) == n - 1
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
