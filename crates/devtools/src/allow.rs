//! The shrink-only allowlist: `lint-allow.toml` at the workspace root.
//!
//! Policy: entries may be *removed* or their counts *reduced* as code is
//! hardened; they must never be added or raised. The gate enforces the
//! ceiling; review enforces the direction.

use std::collections::BTreeMap;

use crate::toml::{self, Value};

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
    /// Parse `lint-allow.toml` text.
    pub fn parse(text: &str) -> Result<Allow, String> {
        let doc = toml::parse(text)?;
        if let Some((key, _)) = doc.section("").first() {
            return Err(format!("key `{key}` outside any section"));
        }
        if let Some(name) = doc.order.iter().find(|s| !SECTIONS.contains(&s.as_str())) {
            return Err(format!(
                "unknown section [{name}] — the allowlist reads only [{}]",
                SECTIONS.join("], [")
            ));
        }
        let files = |section: &str| -> Vec<String> {
            doc.get(section, "files")
                .and_then(Value::as_array)
                .map(<[String]>::to_vec)
                .unwrap_or_default()
        };
        let mut policy_anomaly = BTreeMap::new();
        for (key, v) in doc.section("policy_anomaly") {
            let n = v.as_int().ok_or_else(|| format!("policy_anomaly.{key}: expected an integer"))?;
            let n = usize::try_from(n).map_err(|_| format!("policy_anomaly.{key}: negative ceiling"))?;
            policy_anomaly.insert(key.clone(), n);
        }
        Ok(Allow {
            wall_clock: files("wall_clock"),
            rng_construction: files("rng_construction"),
            shared_state: files("shared_state"),
            policy_anomaly,
        })
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
        // One line per array: the subset parser does not read
        // multi-line arrays.
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

    #[test]
    fn negative_ceilings_are_rejected() {
        assert!(Allow::parse("[policy_anomaly]\n\"x.toml\" = -1\n").is_err());
    }

    #[test]
    fn unknown_sections_are_rejected_by_name() {
        let err = Allow::parse("[shared_state]\nfiles = []\n\n[panic_sites]\n\"x.rs\" = 1\n")
            .expect_err("a table the gate does not read must not pass silently");
        assert_eq!(
            err,
            "unknown section [panic_sites] — the allowlist reads only [wall_clock], \
             [rng_construction], [shared_state], [policy_anomaly]"
        );
        let err = Allow::parse("files = []\n").expect_err("a key before any header");
        assert_eq!(err, "key `files` outside any section");
    }
}
