//! The structured packet type moved between simulator nodes, plus full
//! wire serialization proving it hides nothing.

use lucent_support::Bytes;
use std::net::Ipv4Addr;

use crate::error::ParseError;
use crate::icmp::IcmpMessage;
use crate::ipv4::{self, Ipv4Header};
use crate::tcp::TcpHeader;
use crate::udp::UdpHeader;

/// Transport-layer content of a packet.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Transport {
    /// A TCP segment: header plus payload bytes.
    Tcp(TcpHeader, Bytes),
    /// A UDP datagram: header plus payload bytes.
    Udp(UdpHeader, Bytes),
    /// An ICMP message.
    Icmp(IcmpMessage),
}

impl Transport {
    /// The IP protocol number for this transport.
    pub fn protocol(&self) -> u8 {
        match self {
            Transport::Tcp(..) => ipv4::PROTO_TCP,
            Transport::Udp(..) => ipv4::PROTO_UDP,
            Transport::Icmp(..) => ipv4::PROTO_ICMP,
        }
    }
}

/// A full IPv4 packet as moved between simulator nodes.
///
/// The invariant `ip.protocol == transport.protocol()` is maintained by the
/// constructors; `parse` re-establishes it from the wire.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Packet {
    /// Network-layer header.
    pub ip: Ipv4Header,
    /// Transport-layer content.
    pub transport: Transport,
}

impl Packet {
    /// Build a TCP packet with a conventional IP header (TTL 64).
    pub fn tcp(src: Ipv4Addr, dst: Ipv4Addr, header: TcpHeader, payload: impl Into<Bytes>) -> Self {
        Packet {
            ip: Ipv4Header::new(src, dst, ipv4::PROTO_TCP),
            transport: Transport::Tcp(header, payload.into()),
        }
    }

    /// Build a UDP packet with a conventional IP header.
    pub fn udp(src: Ipv4Addr, dst: Ipv4Addr, header: UdpHeader, payload: impl Into<Bytes>) -> Self {
        Packet {
            ip: Ipv4Header::new(src, dst, ipv4::PROTO_UDP),
            transport: Transport::Udp(header, payload.into()),
        }
    }

    /// Build an ICMP packet with a conventional IP header.
    pub fn icmp(src: Ipv4Addr, dst: Ipv4Addr, msg: IcmpMessage) -> Self {
        Packet {
            ip: Ipv4Header::new(src, dst, ipv4::PROTO_ICMP),
            transport: Transport::Icmp(msg),
        }
    }

    /// Set the IP TTL (builder style, used heavily by the tracer probes).
    pub fn with_ttl(mut self, ttl: u8) -> Self {
        self.ip.ttl = ttl;
        self
    }

    /// Set the IP identification field (e.g. Airtel's fixed 242).
    pub fn with_ip_id(mut self, id: u16) -> Self {
        self.ip.identification = id;
        self
    }

    /// Source address shorthand.
    pub fn src(&self) -> Ipv4Addr {
        self.ip.src
    }

    /// Destination address shorthand.
    pub fn dst(&self) -> Ipv4Addr {
        self.ip.dst
    }

    /// The TCP view of this packet, if it is TCP.
    pub fn as_tcp(&self) -> Option<(&TcpHeader, &Bytes)> {
        match &self.transport {
            Transport::Tcp(h, p) => Some((h, p)),
            _ => None,
        }
    }

    /// The UDP view of this packet, if it is UDP.
    pub fn as_udp(&self) -> Option<(&UdpHeader, &Bytes)> {
        match &self.transport {
            Transport::Udp(h, p) => Some((h, p)),
            _ => None,
        }
    }

    /// The ICMP view of this packet, if it is ICMP.
    pub fn as_icmp(&self) -> Option<&IcmpMessage> {
        match &self.transport {
            Transport::Icmp(m) => Some(m),
            _ => None,
        }
    }

    /// Serialize the entire packet to wire octets (IP header + transport).
    pub fn emit(&self) -> Vec<u8> {
        let mut transport_bytes = Vec::new();
        match &self.transport {
            Transport::Tcp(h, p) => h.emit(self.ip.src, self.ip.dst, p, &mut transport_bytes),
            Transport::Udp(h, p) => h.emit(self.ip.src, self.ip.dst, p, &mut transport_bytes),
            Transport::Icmp(m) => m.emit(&mut transport_bytes),
        }
        let mut out = Vec::with_capacity(ipv4::HEADER_LEN + transport_bytes.len());
        let mut ip = self.ip.clone();
        ip.protocol = self.transport.protocol();
        ip.emit(&transport_bytes, &mut out);
        out
    }

    /// Parse a packet from wire octets, verifying every checksum. The
    /// payload bytes are copied out of `buf`; when the octets already
    /// live in a shared [`Bytes`] buffer, [`Packet::parse_bytes`]
    /// borrows them zero-copy instead.
    pub fn parse(buf: &[u8]) -> Result<Packet, ParseError> {
        let (ip, payload) = Ipv4Header::parse(buf)?;
        let transport = match ip.protocol {
            ipv4::PROTO_TCP => {
                let (h, p) = TcpHeader::parse(ip.src, ip.dst, payload)?;
                Transport::Tcp(h, Bytes::copy_from_slice(p))
            }
            ipv4::PROTO_UDP => {
                let (h, p) = UdpHeader::parse(ip.src, ip.dst, payload)?;
                Transport::Udp(h, Bytes::copy_from_slice(p))
            }
            ipv4::PROTO_ICMP => Transport::Icmp(IcmpMessage::parse(payload)?),
            other => {
                return Err(ParseError::Unsupported { what: "ip-proto", value: u32::from(other) })
            }
        };
        Ok(Packet { ip, transport })
    }

    /// Parse a packet from wire octets held in a shared buffer,
    /// verifying every checksum. Unlike [`Packet::parse`], transport
    /// payloads come back as zero-copy [`Bytes::slice`] views into
    /// `buf`'s allocation — a reparse of a shared buffer moves no
    /// payload bytes.
    pub fn parse_bytes(buf: &Bytes) -> Result<Packet, ParseError> {
        let octets: &[u8] = buf;
        let (ip, l4) = Ipv4Header::parse(octets)?;
        // `Ipv4Header::parse` returned `octets[ihl..total_len]`; recover
        // the transport offset from the already-validated IHL nibble.
        let l4_off = usize::from(octets[0] & 0x0f) * 4;
        let l4_end = l4_off + l4.len();
        let transport = match ip.protocol {
            ipv4::PROTO_TCP => {
                // The TCP payload is a suffix of the segment.
                let (h, p) = TcpHeader::parse(ip.src, ip.dst, l4)?;
                Transport::Tcp(h, buf.slice(l4_end - p.len()..l4_end))
            }
            ipv4::PROTO_UDP => {
                // The UDP payload starts right after the fixed header
                // (the datagram may end before the IP payload does).
                let (h, p) = UdpHeader::parse(ip.src, ip.dst, l4)?;
                let start = l4_off + crate::udp::HEADER_LEN;
                Transport::Udp(h, buf.slice(start..start + p.len()))
            }
            ipv4::PROTO_ICMP => Transport::Icmp(IcmpMessage::parse(l4)?),
            other => {
                return Err(ParseError::Unsupported { what: "ip-proto", value: u32::from(other) })
            }
        };
        Ok(Packet { ip, transport })
    }

    /// The leading wire bytes of this packet (IP header + 8), as embedded in
    /// ICMP time-exceeded/unreachable messages by real routers.
    pub fn icmp_quote(&self) -> Vec<u8> {
        let mut wire = self.emit();
        wire.truncate(ipv4::HEADER_LEN + 8);
        wire
    }
}

#[cfg(test)]
impl Ipv4Header {
    /// Test helper: parse a quoted (possibly payload-truncated) header.
    fn parse_prefix_for_test(buf: &[u8]) -> (Ipv4Header, &[u8]) {
        // ICMP quotes clip the payload, so total_len exceeds the buffer;
        // bypass the length check by parsing fields directly.
        let header = Ipv4Header {
            src: Ipv4Addr::new(buf[12], buf[13], buf[14], buf[15]),
            dst: Ipv4Addr::new(buf[16], buf[17], buf[18], buf[19]),
            ttl: buf[8],
            protocol: buf[9],
            identification: u16::from_be_bytes([buf[4], buf[5]]),
            tos: buf[1],
            dont_frag: u16::from_be_bytes([buf[6], buf[7]]) & 0x4000 != 0,
        };
        (header, &buf[20..])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tcp::TcpFlags;

    const C: Ipv4Addr = Ipv4Addr::new(100, 1, 1, 1);
    const S: Ipv4Addr = Ipv4Addr::new(203, 0, 113, 80);

    #[test]
    fn tcp_packet_roundtrip() {
        let h = TcpHeader { seq: 1000, ack: 2000, ..TcpHeader::new(40000, 80, TcpFlags::ACK | TcpFlags::PSH) };
        let pkt = Packet::tcp(C, S, h, &b"GET / HTTP/1.1\r\nHost: x\r\n\r\n"[..]).with_ttl(9);
        let wire = pkt.emit();
        let parsed = Packet::parse(&wire).unwrap();
        assert_eq!(parsed, pkt);
        assert_eq!(parsed.ip.ttl, 9);
    }

    #[test]
    fn udp_packet_roundtrip() {
        let pkt = Packet::udp(C, S, UdpHeader::new(5000, 53), &b"query"[..]).with_ip_id(242);
        let parsed = Packet::parse(&pkt.emit()).unwrap();
        assert_eq!(parsed, pkt);
        assert_eq!(parsed.ip.identification, 242);
    }

    #[test]
    fn icmp_packet_roundtrip() {
        let inner = Packet::udp(C, S, UdpHeader::new(1, 2), &b"x"[..]);
        let pkt = Packet::icmp(S, C, IcmpMessage::TimeExceeded { original: inner.icmp_quote() });
        let parsed = Packet::parse(&pkt.emit()).unwrap();
        assert_eq!(parsed, pkt);
    }

    #[test]
    fn icmp_quote_is_header_plus_eight() {
        let pkt = Packet::udp(C, S, UdpHeader::new(33434, 53), &b"trace probe payload"[..]);
        let quote = pkt.icmp_quote();
        assert_eq!(quote.len(), ipv4::HEADER_LEN + 8);
        // The quoted bytes still identify src/dst and ports.
        let (ip, rest) = Ipv4Header::parse_prefix_for_test(&quote);
        assert_eq!(ip.src, C);
        assert_eq!(ip.dst, S);
        assert_eq!(u16::from_be_bytes([rest[0], rest[1]]), 33434);
    }

    #[test]
    fn parse_bytes_agrees_with_parse_and_borrows_payload() {
        let tcp = Packet::tcp(
            C,
            S,
            TcpHeader { seq: 7, ..TcpHeader::new(40000, 80, TcpFlags::PSH) },
            &b"GET /blocked HTTP/1.1\r\n\r\n"[..],
        );
        let udp = Packet::udp(C, S, UdpHeader::new(5000, 53), &b"query"[..]);
        for pkt in [tcp, udp] {
            let wire = Bytes::from(pkt.emit());
            let zero = Packet::parse_bytes(&wire).unwrap();
            assert_eq!(zero, Packet::parse(&wire).unwrap());
            assert_eq!(zero, pkt);
            // The payload is a view into the wire buffer, not a copy.
            let payload = match &zero.transport {
                Transport::Tcp(_, p) | Transport::Udp(_, p) => p,
                Transport::Icmp(_) => panic!("the packet was built as TCP or UDP"),
            };
            let off = wire.len() - payload.len();
            assert!(std::ptr::eq(&wire[off], &payload[0]), "payload must share the allocation");
        }
    }

    #[test]
    fn parse_bytes_udp_payload_respects_datagram_length() {
        // An IP payload longer than the UDP length field: the trailing
        // bytes are not part of the datagram and must not leak into the
        // zero-copy payload slice.
        let pkt = Packet::udp(C, S, UdpHeader::new(1, 2), &b"abc"[..]);
        let mut wire = pkt.emit();
        wire.extend_from_slice(b"ZZ"); // trailer beyond the UDP length
        // Fix the IP total length + checksum to cover the trailer.
        let total = wire.len() as u16;
        wire[2..4].copy_from_slice(&total.to_be_bytes());
        wire[10] = 0;
        wire[11] = 0;
        let ck = crate::checksum::of(&wire[..ipv4::HEADER_LEN]);
        wire[10..12].copy_from_slice(&ck.to_be_bytes());
        let parsed = Packet::parse_bytes(&Bytes::from(wire)).unwrap();
        assert_eq!(parsed.as_udp().unwrap().1, &b"abc"[..]);
    }

    #[test]
    fn parse_rejects_unknown_protocol() {
        let pkt = Packet::udp(C, S, UdpHeader::new(1, 2), &b"x"[..]);
        let mut wire = pkt.emit();
        wire[9] = 47; // GRE
        // Fix the IP checksum for the altered protocol byte.
        wire[10] = 0;
        wire[11] = 0;
        let ck = crate::checksum::of(&wire[..ipv4::HEADER_LEN]);
        wire[10..12].copy_from_slice(&ck.to_be_bytes());
        assert!(matches!(Packet::parse(&wire), Err(ParseError::Unsupported { .. })));
    }

    #[test]
    fn protocol_field_tracks_transport() {
        let mut pkt = Packet::udp(C, S, UdpHeader::new(1, 2), &b"x"[..]);
        // Deliberately desynchronize, emit must repair.
        pkt.ip.protocol = 99;
        let wire = pkt.emit();
        let parsed = Packet::parse(&wire).unwrap();
        assert!(parsed.as_udp().is_some());
    }
}
