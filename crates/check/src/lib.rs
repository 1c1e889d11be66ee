//! # lucent-check
//!
//! Structure-aware deterministic fuzzing and property testing for the
//! lucent workspace — dependency-free, seeded, and replayable.
//!
//! The design is choice-tape (Hypothesis-style) rather than type-class
//! (QuickCheck-style): every random decision a generator makes is one
//! `u64` recorded on a tape ([`source::Source`]). Shrinking never needs
//! per-type shrinkers — [`shrink::minimize`] edits the *tape* (deleting
//! chunks, zeroing chunks, binary-searching values toward zero) and
//! re-runs the property, so any generator composed from a `Source`
//! shrinks for free, and a shrunk counterexample is replayed exactly by
//! feeding its tape back in ([`runner::assert_replay`]).
//!
//! Layers:
//!
//! - [`source`] — the recorded/replayed choice tape and primitive draws;
//! - [`packets`] — structured generators for every wire format in
//!   `lucent-packet`, plus [`corrupt`]'s mutate-a-valid-image operators;
//! - [`shrink`] — greedy tape minimization;
//! - [`runner`] — the case loop: [`check`] panics with a replayable
//!   report, [`run`] returns the [`Finding`];
//! - [`oracles`] — differential and round-trip properties over
//!   `lucent-packet`, `lucent-tcp`, `lucent-middlebox`, and the policy
//!   compiler (fed by [`rustish`]);
//! - [`rustish`] — Rust-ish token soup (raw strings, nested block
//!   comments, escaped literals) for the policy compiler's totality
//!   oracle;
//! - [`diffmb`] — the policy-engine transcript harness: it renders a
//!   policy device's run through a packet script as one canonical text,
//!   replays the recorded `tests/golden/mb-*.transcript` files against
//!   today's interpreter, and holds any spec to replay determinism;
//! - [`invariants`] — metamorphic properties through the real simulation
//!   stack (header-permutation invariance, blocklist monotonicity).
//!
//! The crate has no binary and no cargo feature: the tier-1 test suite
//! (`cargo test`) is the only runner. It runs the whole catalogue at two
//! fixed seeds (`oracles::tests` and `tests/it_check.rs`), each crate's
//! `props.rs` pins the oracles over that crate, and
//! `tests/selftest.rs` plants a known bug to prove the find → shrink →
//! replay loop.

#![deny(missing_docs)]

pub mod corrupt;
pub mod diffmb;
pub mod invariants;
pub mod oracles;
pub mod packets;
pub mod runner;
pub mod rustish;
pub mod shrink;
pub mod source;

pub use runner::{assert_replay, check, parse_tape, replay, run, tape_hex, Config, Finding};
pub use source::Source;
