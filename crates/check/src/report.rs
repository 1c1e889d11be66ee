//! Campaign assembly and the sanctioned console reporter.
//!
//! [`campaign`] runs the whole oracle catalogue plus the simulation
//! invariants at a fixed seed and returns a deterministic transcript,
//! byte-identical across runs at the same seed. [`print_report`] is the
//! single place the crate writes to stdout — it is allowlisted as an L6
//! print sink in `lucent-devtools`; everything else returns strings to
//! the caller.

use std::fmt::Write as _;

use crate::invariants;
use crate::oracles;
use crate::runner::{run, Config};
use crate::source::Source;

/// Append one property's outcome to the transcript; returns 1 on a
/// finding, 0 otherwise.
fn run_one(out: &mut String, name: &str, cfg: &Config, prop: fn(&mut Source)) -> u32 {
    match run(cfg, prop) {
        None => {
            let _ = writeln!(out, "  ok   {name} ({} cases)", cfg.cases);
            0
        }
        Some(f) => {
            let _ = writeln!(out, "  FAIL {name}");
            for line in f.report().lines() {
                let _ = writeln!(out, "       {line}");
            }
            1
        }
    }
}

/// Run the bounded campaign: every oracle in
/// [`oracles::all`] at `cases` cases, then (unless `with_sim` is off)
/// the metamorphic simulation invariants. Returns the transcript and
/// the number of findings.
pub fn campaign(cases: u32, seed: u64, with_sim: bool) -> (String, u32) {
    let mut out = String::new();
    let mut findings = 0u32;
    let _ = writeln!(out, "lucent-check campaign: seed {seed:#x}, {cases} case(s) per oracle");
    let _ = writeln!(out, "== oracles ==");
    for (name, oracle) in oracles::all() {
        findings += run_one(&mut out, name, &Config::cases(cases).with_seed(seed), oracle);
    }
    if with_sim {
        let _ = writeln!(out, "== simulation invariants ==");
        findings += run_one(
            &mut out,
            "header_permutation_verdicts",
            &Config::cases(cases).with_seed(seed),
            invariants::header_permutation_verdicts,
        );
        findings += run_one(
            &mut out,
            "blocklist_monotonicity",
            &Config::cases(cases).with_seed(seed),
            invariants::blocklist_monotonicity,
        );
        // The live-rig property runs whole simulations per case; scale
        // its budget down so the smoke campaign stays CI-sized.
        findings += run_one(
            &mut out,
            "wiretap_verdicts_are_header_invariant",
            &Config::cases((cases / 16).max(1)).with_seed(seed),
            invariants::wiretap_verdicts_are_header_invariant,
        );
    }
    let _ = writeln!(
        out,
        "campaign finished: {findings} finding(s){}",
        if findings == 0 { "" } else { " — replay each with lucent_check::assert_replay" }
    );
    (out, findings)
}

/// Print a campaign transcript to stdout. The crate's one sanctioned
/// console sink.
pub fn print_report(transcript: &str) {
    print!("{transcript}");
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::DEFAULT_SEED;

    #[test]
    fn a_clean_campaign_reports_zero_findings() {
        let (transcript, findings) = campaign(8, DEFAULT_SEED, false);
        assert_eq!(findings, 0, "{transcript}");
        assert!(transcript.contains("ok   checksum_split"), "{transcript}");
        assert!(transcript.contains("campaign finished: 0 finding(s)"), "{transcript}");
    }

    #[test]
    fn transcripts_are_byte_identical_across_runs() {
        let a = campaign(8, 0xFEED, false);
        let b = campaign(8, 0xFEED, false);
        assert_eq!(a, b);
    }
}
