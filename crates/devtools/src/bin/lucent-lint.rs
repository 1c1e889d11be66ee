//! The lint gate CLI.
//!
//! ```text
//! lucent-lint [--root <dir>] [--json] [--verbose]
//! ```
//!
//! Exit status 0 when the tree is clean, 1 on violations, 2 on usage or
//! I/O errors. Run from anywhere inside the workspace; the root is found
//! by walking up to the `[workspace]` manifest.
//!
//! `--json` prints the machine-readable report (schema `lucent-lint/7`)
//! to stdout and nothing else; the bytes are identical across runs, and
//! `tests/lint_gate.rs` compares them with a committed golden.

#![forbid(unsafe_code)]

use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "usage: lucent-lint [--root <dir>] [--json] [--verbose]";

fn main() -> ExitCode {
    let mut root: Option<PathBuf> = None;
    let mut verbose = false;
    let mut json = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--root" => match args.next() {
                Some(dir) => root = Some(PathBuf::from(dir)),
                None => return usage("--root needs a directory"),
            },
            "--json" => json = true,
            "--verbose" | "-v" => verbose = true,
            "--help" | "-h" => {
                println!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            other => return usage(&format!("unknown argument {other:?}")),
        }
    }

    let root = match root.or_else(|| {
        std::env::current_dir().ok().and_then(|d| lucent_devtools::find_root(&d))
    }) {
        Some(r) => r,
        None => return usage("no workspace root found; pass --root"),
    };

    let report = match lucent_devtools::run_root(&root) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("lucent-lint: i/o error: {e}");
            return ExitCode::from(2);
        }
    };

    if json {
        print!("{}", report.to_json());
        return if report.ok() { ExitCode::SUCCESS } else { ExitCode::FAILURE };
    }

    for v in &report.violations {
        println!("{v}");
    }
    if verbose {
        for w in &report.warnings {
            println!("note: {w}");
        }
    }
    if report.ok() {
        println!(
            "lucent-lint: clean — {} files, {} note(s)",
            report.files_scanned,
            report.warnings.len()
        );
        ExitCode::SUCCESS
    } else {
        println!("lucent-lint: {} violation(s)", report.violations.len());
        ExitCode::FAILURE
    }
}

fn usage(msg: &str) -> ExitCode {
    eprintln!("lucent-lint: {msg}");
    eprintln!("{USAGE}");
    ExitCode::from(2)
}
