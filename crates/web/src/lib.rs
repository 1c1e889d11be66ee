//! # lucent-web
//!
//! The website corpus and origin-server substrate.
//!
//! The paper probes ~1200 *potentially blocked websites* (PBWs) across 7
//! categories plus the Alexa top-1000; its false-positive/negative
//! analysis of OONI (Section 6.2) hinges on real-world content phenomena:
//! CDN-steered replicas, location-dependent dynamic content, parked and
//! dead domains, redirect-only responses, and pages without `<title>`
//! tags. This crate generates a deterministic corpus exhibiting exactly
//! those phenomena and implements the RFC-compliant origin servers that
//! host it — including the lenient header parsing and strict
//! `\r\n\r\n` framing that Section 5's evasion techniques exploit.

#![deny(missing_docs)]

pub mod content;
pub mod corpus;
pub mod server;
pub mod site;
pub mod tls;

pub use corpus::{Corpus, CorpusConfig, IpAllocator};
pub use server::{ServerConfig, WebServerApp};
pub use tls::TlsLikeApp;
pub use site::{Category, Site, SiteDirectory, SiteId, SiteKind, SharedDirectory};
