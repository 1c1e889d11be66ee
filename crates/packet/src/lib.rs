//! # lucent-packet
//!
//! Wire formats used throughout the `lucent` censorship-measurement
//! simulator: IPv4, TCP, UDP, ICMPv4, DNS and HTTP/1.x.
//!
//! The design follows the smoltcp school: every protocol has an owned,
//! plain-data representation plus explicit `parse`/`emit` conversions to
//! and from raw bytes. Parsing never panics on untrusted input — every parse
//! path returns [`Result`] — and emitting always produces a valid checksum.
//!
//! Two layers of fidelity are offered:
//!
//! * **Structured** — the simulator normally moves [`Packet`] values between
//!   nodes without serializing, which is fast and loses no information
//!   relevant to the paper's experiments (TTL, flags, sequence numbers,
//!   exact HTTP bytes are all preserved verbatim).
//! * **Wire** — [`Packet::emit`] / [`Packet::parse`] round-trip through real
//!   octets, exercised by the round-trip property tests and by re-parsing
//!   live simulated traffic, proving the structured layer hides nothing.
//!
//! HTTP is deliberately kept as *raw bytes plus lenient/strict parsers*: the
//! censorship-evasion tricks reproduced from the paper (Host keyword case
//! fudging, embedded whitespace, duplicate Host headers, segmented requests)
//! are byte-level phenomena, so the request type preserves exact bytes.

#![deny(missing_docs)]

pub mod checksum;
pub mod dns;
pub mod error;
pub mod http;
pub mod icmp;
pub mod ipv4;
pub mod tcp;
pub mod udp;
pub mod wire;

pub use dns::{DnsFlags, DnsMessage, DnsQuestion, DnsRecord, DnsType, Name, Rcode};
pub use lucent_support::Bytes;
pub use error::ParseError;
pub use http::{HttpRequest, HttpResponse};
pub use icmp::IcmpMessage;
pub use ipv4::Ipv4Header;
pub use tcp::{TcpFlags, TcpHeader};
pub use udp::UdpHeader;
pub use wire::{Packet, Transport};
