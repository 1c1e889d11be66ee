//! # lucent-topology
//!
//! The India model: nine ISPs plus TATA transit, wired into one
//! [`lucent_netsim::Network`] together with external vantage points, a
//! Tor-exit-like uncensored vantage, an OONI-style control host, and the
//! hosting infrastructure serving the [`lucent_web`] corpus.
//!
//! Calibration targets come straight from the paper:
//!
//! * **Table 2** — per-ISP HTTP coverage inside/outside, middlebox type
//!   and blocked-site counts (Airtel WM 75.2/54.2/234, Idea IM-overt
//!   92/90/338, Vodafone IM-covert 11/2.5/483, Jio WM 6.4/0/200);
//! * **Figure 2** — MTNL 448 resolvers (383 poisoned, consistency
//!   ≈42.4%), BSNL 182 (17 poisoned, ≈7.5%);
//! * **Figure 5** — middlebox consistency Idea ≈76.8%, Airtel ≈12.3%,
//!   Vodafone ≈11.6%;
//! * **Table 3** — collateral damage through transit (NKN←Vodafone 69 /
//!   TATA 8, Sify←TATA 142 / Airtel 2, Siti←Airtel 110, MTNL←TATA 134 /
//!   Airtel 25, BSNL←TATA 156 / Airtel 1).
//!
//! The coverage fractions are realized *structurally*: every ISP has `K`
//! parallel core routers, clients and inbound flows are spread across
//! them by destination-hashed ECMP, and censorship devices sit on a
//! calibrated subset of cores. The inside/outside asymmetry comes from
//! per-device client-source filters (the mechanism the paper hypothesizes
//! for Jio's invisible-from-outside middleboxes). Everything else — the
//! race, statefulness, trigger rules — lives in `lucent-middlebox` and
//! emerges rather than being scripted.

#![deny(missing_docs)]

pub mod build;
pub mod ids;
pub mod profile;
pub mod truth;

pub use build::{India, Isp};
pub use ids::IspId;
pub use profile::{DnsProfile, HttpProfile, IndiaConfig};
pub use truth::GroundTruth;
