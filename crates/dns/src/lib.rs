//! # lucent-dns
//!
//! The DNS resolver substrate: honest recursive resolvers, *poisoned*
//! resolvers (the mechanism the paper finds in MTNL and BSNL), and a
//! DNS-*injection* middlebox (the mechanism the paper tests for and rules
//! out — the discriminating experiment needs both to exist).
//!
//! Resolvers are [`lucent_tcp::UdpApp`]s installed on port 53 of an
//! ordinary [`lucent_tcp::TcpHost`], so a "resolver" is just a host like
//! any other — scannable, traceroutable, addressable, exactly as the
//! paper's open-resolver scans assume.

#![deny(missing_docs)]

pub mod catalog;
pub mod injector;
pub mod resolver;

pub use catalog::{DnsCatalog, RegionId, SharedCatalog};
pub use injector::DnsInjectorNode;
pub use resolver::{Blocklist, PoisonMode, ResolverApp};
