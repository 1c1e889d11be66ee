//! `fuzz-smoke`: the bounded, seeded fuzz campaign CI runs offline.
//!
//! Runs every oracle and simulation invariant at a fixed seed and a
//! bounded case count, prints the deterministic transcript, and exits
//! non-zero on any finding. With `--features planted-bug` the campaign
//! must fail — CI uses that as a negative control proving the harness
//! detects a seeded defect.
//!
//! ```text
//! fuzz-smoke [--cases N] [--seed S]
//! ```

use std::process::exit;

const USAGE: &str = "fuzz-smoke [--cases N] [--seed S]
  --cases N    cases per oracle, 1 to 4294967295 (default 64)
  --seed S     campaign seed, decimal or 0x-hex (default lucent-check's)";

fn bad(msg: &str) -> ! {
    eprintln!("{msg}\nusage: {USAGE}");
    exit(2);
}

fn parse_u64(flag: &str, value: Option<String>) -> u64 {
    let Some(v) = value else { bad(&format!("{flag} needs a value")) };
    let parsed = match v.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16),
        None => v.parse(),
    };
    match parsed {
        Ok(n) => n,
        Err(_) => bad(&format!("{flag} needs a number, got {v:?}")),
    }
}

fn main() {
    let mut cases: u32 = 64;
    let mut seed: u64 = lucent_check::runner::DEFAULT_SEED;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--cases" => {
                let n = parse_u64("--cases", args.next());
                cases = match u32::try_from(n) {
                    Ok(c) if c > 0 => c,
                    _ => bad(&format!("--cases needs an integer from 1 to {}, got {n}", u32::MAX)),
                };
            }
            "--seed" => seed = parse_u64("--seed", args.next()),
            "--help" | "-h" => {
                println!("usage: {USAGE}");
                exit(0);
            }
            other => bad(&format!("unknown flag {other:?}")),
        }
    }
    let (transcript, findings) = lucent_check::report::campaign(cases, seed, true);
    lucent_check::report::print_report(&transcript);
    if findings > 0 {
        exit(1);
    }
}
