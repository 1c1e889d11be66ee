//! # lucent-middlebox
//!
//! The censorship middleboxes of *Where The Light Gets In*, §4.2.1:
//!
//! * **Wiretap middleboxes (WM)** — hosts on a router mirror port. They
//!   see a *copy* of traffic, so they can inject but not drop; their
//!   forged `200 OK + FIN` notification and follow-up `RST` race the real
//!   server response (the paper measures ≈3/10 requests escaping).
//!   Airtel and Reliance Jio deploy these; Airtel's stamps the fixed
//!   IP-Identifier 242 the evasion firewall keys on.
//! * **Interceptive middleboxes (IM)** — inline elements akin to
//!   transparent proxies. They consume the triggering request (the server
//!   never sees it), answer the client themselves — *overtly* with a
//!   notification page or *covertly* with a bare RST — reset the server
//!   side with a forged client RST, and black-hole the rest of the flow.
//!   Idea (overt) and Vodafone (covert) deploy these.
//!
//! Both kinds are **stateful** (they inspect only after observing a full
//! 3-way handshake, with a 2–3 minute flow timeout refreshed by traffic),
//! are triggered **solely by the `Host` header** of a request, and differ
//! in *how* they match that header — differences Section 5's evasion
//! techniques exploit, reproduced here in [`matcher::HostMatcher`].
//!
//! Both families are instances of one **censor program** shape, which
//! [`policy`] makes explicit: each rule matches the Host header against
//! the device's own blocklist and fires a notice page and/or RSTs with
//! an IP-ID stamp (and, on a wiretap, a race delay). A generic
//! [`policy::PolicyBox`] interprets programs compiled by [`compile`]
//! from TOML files under `policies/`. The hardcoded structs that used
//! to implement the two families directly are retired; their recorded
//! behaviour lives on as transcript goldens under `tests/golden/`
//! (see `lucent-check::diffmb`).

#![deny(missing_docs)]

pub mod compile;
pub mod config;
pub mod flow;
pub mod matcher;
pub mod notice;
pub mod policy;
pub mod policycheck;

pub use compile::{builtin, PolicyError};
pub use matcher::HostMatcher;
pub use notice::NoticeStyle;
pub use config::Instance;
pub use policy::{Policy, PolicyBox};
