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
    /// Per-file panic-site ceilings for non-test library code.
    pub panic_sites: BTreeMap<String, usize>,
    /// Per-entry-point ceilings on reachable panic sites (L7). Keys
    /// are entry ids, `<file>::<fn name>`.
    pub panic_reach: BTreeMap<String, usize>,
    /// Per-policy-file ceilings on L11 anomaly findings from the
    /// symbolic policycheck analyzer.
    pub policy_anomaly: BTreeMap<String, usize>,
}

impl Allow {
    /// Parse `lint-allow.toml` text.
    pub fn parse(text: &str) -> Result<Allow, String> {
        let doc = toml::parse(text)?;
        let files = |section: &str| -> Vec<String> {
            doc.get(section, "files")
                .and_then(Value::as_array)
                .map(<[String]>::to_vec)
                .unwrap_or_default()
        };
        let ceilings = |section: &str| -> Result<BTreeMap<String, usize>, String> {
            let mut out = BTreeMap::new();
            for (key, v) in doc.section(section) {
                let n = v.as_int().ok_or_else(|| format!("{section}.{key}: expected an integer"))?;
                if n < 0 {
                    return Err(format!("{section}.{key}: negative ceiling"));
                }
                out.insert(key.clone(), n as usize);
            }
            Ok(out)
        };
        Ok(Allow {
            wall_clock: files("wall_clock"),
            rng_construction: files("rng_construction"),
            shared_state: files("shared_state"),
            panic_sites: ceilings("panic_sites")?,
            panic_reach: ceilings("panic_reach")?,
            policy_anomaly: ceilings("policy_anomaly")?,
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

    pub fn panic_ceiling(&self, path: &str) -> usize {
        self.panic_sites.get(path).copied().unwrap_or(0)
    }

    /// Ceiling on panic sites reachable from the entry point `id`.
    pub fn reach_ceiling(&self, id: &str) -> usize {
        self.panic_reach.get(id).copied().unwrap_or(0)
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
        out.push_str("# Panic sites (unwrap/expect/panic!/unreachable!) in non-test code,\n");
        out.push_str("# per file. Regenerate with `lucent-lint --update-baseline`.\n");
        out.push_str("[panic_sites]\n");
        for (path, n) in &self.panic_sites {
            out.push_str(&format!("\"{path}\" = {n}\n"));
        }
        out.push('\n');
        out.push_str("# Panic sites reachable from each experiment entry point, through\n");
        out.push_str("# the approximate call graph (L7). Keys are `<file>::<fn>`.\n");
        out.push_str("# Regenerate with `lucent-lint --update-baseline`.\n");
        out.push_str("[panic_reach]\n");
        for (id, n) in &self.panic_reach {
            out.push_str(&format!("\"{id}\" = {n}\n"));
        }
        out.push('\n');
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
        a.panic_sites.insert("crates/packet/src/dns.rs".into(), 7);
        a.shared_state.push("crates/check/src/runner.rs".into());
        a.panic_reach.insert("crates/core/src/experiments/race.rs::run_isp".into(), 2);
        a.policy_anomaly.insert("crates/middlebox/policies/airtel-wm.toml".into(), 1);
        let b = Allow::parse(&a.to_toml()).expect("round trip");
        assert_eq!(b.wall_clock, a.wall_clock);
        assert_eq!(b.rng_construction, a.rng_construction);
        assert_eq!(b.panic_sites, a.panic_sites);
        assert_eq!(b.shared_state, a.shared_state);
        assert_eq!(b.panic_reach, a.panic_reach);
        assert_eq!(b.policy_anomaly, a.policy_anomaly);
    }

    #[test]
    fn missing_sections_default_to_empty() {
        let a = Allow::parse("").expect("empty ok");
        assert!(a.wall_clock.is_empty());
        assert_eq!(a.panic_ceiling("x"), 0);
    }

    #[test]
    fn negative_ceilings_are_rejected() {
        assert!(Allow::parse("[panic_sites]\n\"x.rs\" = -1\n").is_err());
    }
}
