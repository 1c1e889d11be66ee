//! # lucent-tcp
//!
//! A TCP state machine and socket layer for the `lucent` simulator.
//!
//! The paper's findings all hinge on protocol-faithful endpoint behaviour:
//!
//! * a browser that receives a forged `200 OK + FIN` terminates the
//!   connection and discards the real response that arrives later,
//!   answering it with `RST`;
//! * a host answers segments for unknown connections with `RST`;
//! * middleboxes distinguish complete 3-way handshakes from bare SYNs;
//! * crafted probes need raw-socket control (arbitrary TTL, fudged bytes)
//!   *without* the kernel stack interfering.
//!
//! This crate implements all of that: a pure, unit-testable state machine
//! ([`tcb::Tcb`]), a host node ([`TcpHost`]) wiring sockets + listeners +
//! UDP + ICMP + raw sockets + a client-side packet filter (the `iptables`
//! stand-in used by the paper's evasion technique), and the small
//! [`SocketApp`] trait server applications implement.

#![deny(missing_docs)]

pub mod app;
pub mod firewall;
pub mod host;
pub mod socket;
pub mod tcb;

pub use app::{FixedResponder, SocketApp, SocketIo};
pub use firewall::{FilterAction, FilterRule, Firewall};
pub use host::{TcpHost, UdpApp, UdpDatagram, UdpIo};
pub use socket::{LoggedEvent, SocketEvent, SocketId, TcpState};
