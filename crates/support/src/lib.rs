//! # lucent-support
//!
//! The dependency-free substrate that makes the workspace hermetic:
//! every capability previously pulled from crates.io lives here, small
//! and auditable, so `cargo build` needs no network and the manifest
//! test (`tests/it_manifests.rs`) can enforce that it stays that way.
//!
//! * [`rng`] — seeded SplitMix64/xoshiro256** randomness (was `rand`)
//! * [`buf`] — a cheaply-clonable immutable byte buffer (was `bytes`)
//! * [`json`] — deterministic JSON tree, writer, parser, and the
//!   [`json::ToJson`] trait with derive-style macros (was `serde` +
//!   `serde_json`)
//! * [`bench`] — a wall-clock stopwatch, the workspace's only
//!   sanctioned wall-clock access
//! * [`toml`] — the line-pinned reader for the workspace's TOML subset,
//!   shared by the policy compiler and the manifest test
//!
//! Property tests run on `lucent-check`, which sits above this crate.

#![deny(missing_docs)]

pub mod bench;
pub mod buf;
pub mod json;
pub mod rng;
pub mod toml;

pub use buf::Bytes;
pub use json::{Json, ToJson};
pub use rng::Rng64;
