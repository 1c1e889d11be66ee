//! The shrink-only allowlist: `lint-allow.toml` at the workspace root.
//!
//! Policy: entries may be *removed* or their counts *reduced* as code is
//! hardened; they must never be added or raised. The gate enforces the
//! ceiling; review enforces the direction.

use std::collections::BTreeMap;

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
    /// Per-policy-file ceilings on L11 anomaly findings from the
    /// symbolic policycheck analyzer.
    pub policy_anomaly: BTreeMap<String, usize>,
}

/// The sections `lint-allow.toml` may hold. Any other section is an
/// error: a table the gate does not read would otherwise look like it
/// guards something.
const SECTIONS: [&str; 4] = ["wall_clock", "rng_construction", "shared_state", "policy_anomaly"];

impl Allow {
    /// Parse `lint-allow.toml` text. Every misread is an error at its
    /// line: an unknown section or key, a `files` value that is not a
    /// list of strings, a ceiling that is not a non-negative integer,
    /// and (from the reader) a repeated header or key.
    pub fn parse(text: &str) -> Result<Allow, Error> {
        let mut allow = Allow::default();
        for sect in toml::parse(text)? {
            let err = |line: usize, msg: String| Err(Error { line, msg });
            let files = match (sect.array, sect.name.as_str()) {
                (false, "wall_clock") => &mut allow.wall_clock,
                (false, "rng_construction") => &mut allow.rng_construction,
                (false, "shared_state") => &mut allow.shared_state,
                (false, "policy_anomaly") => {
                    for e in sect.entries {
                        let Value::Int(n) = e.value else {
                            return err(e.line, format!("`{}` wants an integer ceiling", e.key));
                        };
                        let Ok(n) = usize::try_from(n) else {
                            return err(e.line, format!("`{}` has a negative ceiling", e.key));
                        };
                        allow.policy_anomaly.insert(e.key, n);
                    }
                    continue;
                }
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

    /// Ceiling on L11 policy anomalies in the policy file `path`.
    pub fn policy_anomaly_ceiling(&self, path: &str) -> usize {
        self.policy_anomaly.get(path).copied().unwrap_or(0)
    }

    /// Serialize back to TOML (used by `--update-baseline`): the file
    /// lists in stable sorted order so diffs stay reviewable.
    pub fn to_toml(&self) -> String {
        let mut out = String::new();
        out.push_str(
            "# lucent-lint allowlist. SHRINK-ONLY: entries may be removed or\n\
             # reduced as code is hardened, never added or increased. The gate\n\
             # (tests/lint_gate.rs) fails the build when a ceiling is exceeded.\n\n",
        );
        // One line per array: the TOML reader has no multi-line
        // arrays.
        let list = |name: &str, files: &[String]| {
            let quoted: Vec<String> = files.iter().map(|f| format!("\"{f}\"")).collect();
            format!("[{name}]\nfiles = [{}]\n\n", quoted.join(", "))
        };
        out.push_str(&list("wall_clock", &self.wall_clock));
        out.push_str(&list("rng_construction", &self.rng_construction));
        out.push_str("# Files that may hold interior-mutability statics (L8). `static mut`\n");
        out.push_str("# is forbidden everywhere, allowlist or not.\n");
        out.push_str(&list("shared_state", &self.shared_state));
        out.push_str("# Symbolic policy anomalies (L11) per committed policy file —\n");
        out.push_str("# dead/shadowed rules, conflicting overlaps, unreachable gates,\n");
        out.push_str("# probability-mass errors. Regenerate with `lucent-lint\n");
        out.push_str("# --update-baseline`.\n");
        out.push_str("[policy_anomaly]\n");
        for (path, n) in &self.policy_anomaly {
            out.push_str(&format!("\"{path}\" = {n}\n"));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_round_trips_through_to_toml() {
        let mut a = Allow::default();
        a.wall_clock.push("crates/support/src/bench.rs".into());
        a.rng_construction.push("crates/netsim/src/time.rs".into());
        a.shared_state.push("crates/check/src/runner.rs".into());
        a.policy_anomaly.insert("crates/middlebox/policies/airtel-wm.toml".into(), 1);
        let b = Allow::parse(&a.to_toml()).expect("round trip");
        assert_eq!(b.wall_clock, a.wall_clock);
        assert_eq!(b.rng_construction, a.rng_construction);
        assert_eq!(b.shared_state, a.shared_state);
        assert_eq!(b.policy_anomaly, a.policy_anomaly);
    }

    #[test]
    fn missing_sections_default_to_empty() {
        let a = Allow::parse("").expect("empty ok");
        assert!(a.wall_clock.is_empty());
        assert_eq!(a.policy_anomaly_ceiling("x"), 0);
    }

    fn bad(text: &str) -> String {
        Allow::parse(text).expect_err(text).to_string()
    }

    #[test]
    fn negative_ceilings_are_rejected() {
        assert_eq!(
            bad("[policy_anomaly]\n\"x.toml\" = -1\n"),
            "line 2: `x.toml` has a negative ceiling"
        );
        assert_eq!(
            bad("[policy_anomaly]\n\"x.toml\" = 1.5\n"),
            "line 2: `x.toml` wants an integer ceiling"
        );
    }

    #[test]
    fn unknown_sections_are_rejected_by_name() {
        assert_eq!(
            bad("[shared_state]\nfiles = []\n\n[panic_sites]\n\"x.rs\" = 1\n"),
            "line 4: unknown section [panic_sites] — the allowlist reads only [wall_clock], \
             [rng_construction], [shared_state], [policy_anomaly]",
            "a table the gate does not read must not pass silently"
        );
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
    fn a_duplicated_ceiling_key_is_rejected() {
        assert_eq!(
            bad("[policy_anomaly]\n\"x.toml\" = 1\n\"x.toml\" = 0\n"),
            "line 3: duplicate key `x.toml`"
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
