//! # lucent-core
//!
//! The reproduction of the paper's primary contribution: the measurement
//! toolkit and analyses of *Where The Light Gets In: Analyzing Web
//! Censorship Mechanisms in India* (IMC 2018).
//!
//! Structure mirrors the paper:
//!
//! * [`lab`] — the driver: synchronous fetch/resolve/traceroute/raw-TCP
//!   operations over the simulated India ([`lucent_topology::India`]).
//! * [`diff`] — the HTTP-response difference metric (the paper's
//!   `difflib` threshold-0.3 comparison).
//! * [`probe::ooni`] — a faithful model of OONI web-connectivity's
//!   decision logic (§3.1, §6.2), scored against ground truth → Table 1.
//! * [`probe::detect`] — the paper's own detection pipelines for DNS,
//!   TCP/IP and HTTP filtering (§3.2–3.4).
//! * [`probe::tracer`] — Iterative Network Tracing (Figure 1).
//! * [`probe::trigger`] — what triggers censorship: TTL-twin experiment,
//!   Host-field fudging, statefulness ladders (§3.4, §4.2.1 caveat).
//! * [`probe::classify`] — interceptive vs wiretap classification via
//!   controlled remote hosts, render-rate, and ICMP behaviour (§4.2.1).
//! * [`probe::coverage`] — coverage & consistency probing (§4.2.2).
//! * [`metrics`] — precision/recall, coverage, consistency.
//! * [`anticensor`] — the evasion techniques of §5 and their evaluation.
//! * [`experiments`] — one module per table/figure, emitting structured,
//!   serializable results plus paper-style text tables.

#![deny(missing_docs)]

pub mod anticensor;
pub mod diff;
pub mod experiments;
pub mod lab;
pub mod metrics;
pub mod probe;
pub mod report;

pub use lab::{Fetch, Lab, ResolveOutcome};
