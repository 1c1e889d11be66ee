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
//! - [`gen`] — combinators ([`Gen`]) over a `Source`;
//! - [`packets`] — structured generators for every wire format in
//!   `lucent-packet`, plus [`corrupt`]'s mutate-a-valid-image operators;
//! - [`shrink`] — greedy tape minimization;
//! - [`runner`] — the case loop: [`check`] panics with a replayable
//!   report, [`run`] returns the [`Finding`];
//! - [`oracles`] — differential and round-trip properties over
//!   `lucent-packet`, `lucent-tcp`, `lucent-middlebox`, and the
//!   `lucent-devtools` lexer (fed by [`rustish`]);
//! - [`rustish`] — Rust-ish token soup (raw strings, nested block
//!   comments, escaped literals) for the lint lexer totality oracle;
//! - [`diffmb`] — the differential equivalence harness holding the
//!   declarative policy engine byte-identical to the legacy
//!   middleboxes (random spec → rendered policy TOML → twin rigs);
//! - [`invariants`] — metamorphic properties through the real simulation
//!   stack (header-permutation invariance, blocklist monotonicity,
//!   shard-count invariance);
//! - [`report`] — the deterministic `fuzz-smoke` campaign transcript;
//! - [`planted`] — a feature-gated seeded defect proving the
//!   find → shrink → replay loop end to end.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod corrupt;
pub mod diffmb;
pub mod gen;
pub mod invariants;
pub mod oracles;
pub mod packets;
pub mod planted;
pub mod report;
pub mod runner;
pub mod rustish;
pub mod shrink;
pub mod source;

pub use gen::Gen;
pub use runner::{assert_replay, check, parse_tape, replay, run, tape_hex, Config, Finding};
pub use source::Source;
