//! One module per table/figure of the paper's evaluation, each producing
//! a serializable result plus a paper-style text rendering.
//!
//! The per-ISP experiments (`race`, `table1`, `fig2`, `evasion`,
//! `triggers`, `anonymity`) export only their per-ISP (or per-chunk)
//! steps: the paper measures each ISP from its own vantage point, so the
//! sharded driver in `lucent-bench` runs every ISP on a fresh lab and
//! assembles the result types defined here.

pub mod anonymity;
pub mod categories;
pub mod dns_mechanism;
pub mod evasion;
pub mod fig2;
pub mod fig5;
pub mod https_note;
pub mod mechanism;
pub mod race;
pub mod table1;
pub mod table2;
pub mod table3;
pub mod tracer_demo;
pub mod triggers;
