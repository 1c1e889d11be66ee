//! The shrink-only allowlist: `lint-allow.toml` at the workspace root.
//!
//! Policy: files may be *removed* from a list as code is hardened; they
//! must never be added. The gate enforces the lists; review enforces
//! the direction.

use lucent_support::toml::{self, Error, Value};

/// Parsed allowlist.
#[derive(Debug, Default, Clone)]
pub struct Allow {
    /// Files permitted to read a wall clock (`Instant`, `SystemTime`).
    pub wall_clock: Vec<String>,
    /// Files permitted to construct RNGs (seed plumbing sources).
    pub rng_construction: Vec<String>,
    /// Files permitted to hold interior-mutability statics (L8).
    pub shared_state: Vec<String>,
}

/// The sections `lint-allow.toml` may hold. Any other section is an
/// error: a table the gate does not read would otherwise look like it
/// guards something.
const SECTIONS: [&str; 3] = ["wall_clock", "rng_construction", "shared_state"];

impl Allow {
    /// Parse `lint-allow.toml` text. Every misread is an error at its
    /// line: an unknown section or key, a `files` value that is not a
    /// list of strings, and (from the reader) a repeated header or key.
    pub fn parse(text: &str) -> Result<Allow, Error> {
        let mut allow = Allow::default();
        for sect in toml::parse(text)? {
            let err = |line: usize, msg: String| Err(Error { line, msg });
            let files = match (sect.array, sect.name.as_str()) {
                (false, "wall_clock") => &mut allow.wall_clock,
                (false, "rng_construction") => &mut allow.rng_construction,
                (false, "shared_state") => &mut allow.shared_state,
                (array, name) => {
                    let name = if array { format!("[{name}]") } else { name.to_string() };
                    return err(
                        sect.line,
                        format!(
                            "unknown section [{name}] — the allowlist reads only [{}]",
                            SECTIONS.join("], [")
                        ),
                    );
                }
            };
            for e in sect.entries {
                if e.key != "files" {
                    return err(e.line, format!("unknown key `{}` in [{}]", e.key, sect.name));
                }
                let Value::List(items) = e.value else {
                    return err(e.line, "`files` wants a list of strings".to_string());
                };
                for item in items {
                    let Value::Str(path) = item else {
                        return err(e.line, "`files` wants a list of strings".to_string());
                    };
                    files.push(path);
                }
            }
        }
        Ok(allow)
    }

    pub fn allows_wall_clock(&self, path: &str) -> bool {
        self.wall_clock.iter().any(|p| p == path)
    }

    pub fn allows_rng_construction(&self, path: &str) -> bool {
        self.rng_construction.iter().any(|p| p == path)
    }

    pub fn allows_shared_state(&self, path: &str) -> bool {
        self.shared_state.iter().any(|p| p == path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_reads_every_files_list() {
        let a = Allow::parse(
            "[wall_clock]\nfiles = [\"crates/support/src/bench.rs\"]\n\n\
             [rng_construction]\nfiles = [\"crates/netsim/src/time.rs\", \"crates/x.rs\"]\n\n\
             [shared_state]\nfiles = [\"crates/check/src/runner.rs\"]\n",
        )
        .expect("parse");
        assert_eq!(a.wall_clock, ["crates/support/src/bench.rs"]);
        assert_eq!(a.rng_construction, ["crates/netsim/src/time.rs", "crates/x.rs"]);
        assert_eq!(a.shared_state, ["crates/check/src/runner.rs"]);
        assert!(a.allows_rng_construction("crates/x.rs") && !a.allows_wall_clock("crates/x.rs"));
    }

    #[test]
    fn missing_sections_default_to_empty() {
        let a = Allow::parse("").expect("empty ok");
        assert!(a.wall_clock.is_empty());
        assert!(a.rng_construction.is_empty() && a.shared_state.is_empty());
    }

    fn bad(text: &str) -> String {
        Allow::parse(text).expect_err(text).to_string()
    }

    #[test]
    fn unknown_sections_are_rejected_by_name() {
        assert_eq!(
            bad("[shared_state]\nfiles = []\n\n[panic_sites]\n\"x.rs\" = 1\n"),
            "line 4: unknown section [panic_sites] — the allowlist reads only [wall_clock], \
             [rng_construction], [shared_state]",
            "a table the gate does not read must not pass silently"
        );
        // L11 has no allowlist: a leftover anomaly table is retired too.
        assert!(bad("[policy_anomaly]\n").starts_with("line 1: unknown section [policy_anomaly]"));
        assert!(bad("[[wall_clock]]\nfiles = []\n").starts_with("line 1: unknown section [[wall_clock]]"));
        assert_eq!(bad("files = []\n"), "line 1: `files` before any section header");
    }

    #[test]
    fn a_files_value_that_is_not_a_list_is_rejected() {
        assert_eq!(
            bad("[wall_clock]\nfiles = \"crates/x.rs\"\n"),
            "line 2: `files` wants a list of strings"
        );
        assert_eq!(bad("[wall_clock]\nfiles = [1]\n"), "line 2: `files` wants a list of strings");
    }

    #[test]
    fn a_misspelled_key_is_rejected() {
        assert_eq!(
            bad("[rng_construction]\nfile = [\"crates/x.rs\"]\n"),
            "line 2: unknown key `file` in [rng_construction]"
        );
    }

    #[test]
    fn a_duplicated_key_is_rejected() {
        assert_eq!(
            bad("[wall_clock]\nfiles = []\nfiles = [\"crates/x.rs\"]\n"),
            "line 3: duplicate key `files`"
        );
    }

    #[test]
    fn a_repeated_header_is_rejected() {
        assert_eq!(
            bad("[shared_state]\nfiles = [\"a.rs\"]\n\n[shared_state]\nfiles = [\"b.rs\"]\n"),
            "line 4: duplicate section [shared_state]"
        );
    }
}
