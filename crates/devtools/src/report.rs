//! Lint findings and the aggregate report the CLI prints.

use std::fmt;

/// The rule families, in gate order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Rule {
    /// L1 — every dependency resolves inside the repository.
    Hermeticity,
    /// L2 — crate dependencies respect the layer DAG.
    Layering,
    /// L3 — no wall clocks, entropy, or iteration-order hazards.
    Determinism,
    /// L4 — no panic sites in non-test library code.
    PanicBudget,
    /// L5 — every `unsafe` carries a `// SAFETY:` justification.
    UnsafeHygiene,
    /// L6 — no console prints outside sanctioned sinks.
    PrintHygiene,
    /// L8 — no `static mut`; interior-mutability statics confined to
    /// `[shared_state]` allowlisted files.
    SharedState,
    /// L11 — symbolic anomalies in compiled censor policies (dead
    /// rules, conflicting overlaps, unreachable gates, probability-mass
    /// errors); each is a violation, with no allowlist.
    PolicyAnomaly,
    /// L12 — the committed policy set covers the simulator's ground
    /// truth: both mechanism families, corpus-resolvable host sets,
    /// and compilable programs.
    PolicyCoverage,
}

impl Rule {
    pub fn code(self) -> &'static str {
        match self {
            Rule::Hermeticity => "L1-hermetic",
            Rule::Layering => "L2-layering",
            Rule::Determinism => "L3-determinism",
            Rule::PanicBudget => "L4-panic-budget",
            Rule::UnsafeHygiene => "L5-unsafe",
            Rule::PrintHygiene => "L6-print",
            Rule::SharedState => "L8-shared-state",
            Rule::PolicyAnomaly => "L11-policy-anomaly",
            Rule::PolicyCoverage => "L12-policy-coverage",
        }
    }
}

/// One finding. `line` is 1-based; 0 means the finding is file-level.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Violation {
    pub rule: Rule,
    pub path: String,
    pub line: usize,
    pub msg: String,
}

impl Violation {
    pub fn file(rule: Rule, path: impl Into<String>, msg: impl Into<String>) -> Violation {
        Violation { rule, path: path.into(), line: 0, msg: msg.into() }
    }

    pub fn at(rule: Rule, path: impl Into<String>, line: usize, msg: impl Into<String>) -> Violation {
        Violation { rule, path: path.into(), line, msg: msg.into() }
    }
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.line == 0 {
            write!(f, "{}: {}: {}", self.rule.code(), self.path, self.msg)
        } else {
            write!(f, "{}: {}:{}: {}", self.rule.code(), self.path, self.line, self.msg)
        }
    }
}

/// The full gate outcome.
#[derive(Debug, Default)]
pub struct Report {
    pub violations: Vec<Violation>,
    /// Non-fatal notes (e.g. a missing allowlist file).
    pub warnings: Vec<String>,
    pub files_scanned: usize,
    /// Total panic sites counted in non-test library code.
    pub panic_total: usize,
    /// Per-file panic-site counts (files with zero sites omitted).
    pub panic_by_file: std::collections::BTreeMap<String, usize>,
    /// Committed policy files scanned by L11/L12.
    pub policy_files: usize,
    /// Policy file → L11 anomaly count (zero-finding files omitted).
    pub policy_anomaly: std::collections::BTreeMap<String, usize>,
}

impl Report {
    pub fn ok(&self) -> bool {
        self.violations.is_empty()
    }

    pub fn merge(&mut self, mut other: Vec<Violation>) {
        self.violations.append(&mut other);
    }

    /// Machine-readable report (schema `lucent-lint/6`). Hand-rolled on
    /// purpose: every map is a `BTreeMap` and every list is pre-sorted
    /// by the caller, so the bytes are identical across runs —
    /// `tests/lint_gate.rs` diffs this against a committed golden.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(4096);
        out.push_str("{\n  \"schema\": \"lucent-lint/6\",\n");
        count_line(&mut out, "files_scanned", self.files_scanned);
        count_line(&mut out, "panic_total", self.panic_total);
        count_line(&mut out, "policy_files", self.policy_files);
        count_map(&mut out, "panic_sites", &self.panic_by_file);
        count_map(&mut out, "policy_anomaly", &self.policy_anomaly);
        out.push_str("  \"violations\": [");
        let mut first = true;
        for v in &self.violations {
            out.push_str(if first { "\n" } else { ",\n" });
            first = false;
            out.push_str(&format!(
                "    {{\"rule\": {}, \"path\": {}, \"line\": {}, \"msg\": {}}}",
                json_str(v.rule.code()),
                json_str(&v.path),
                v.line,
                json_str(&v.msg)
            ));
        }
        out.push_str(if first { "],\n" } else { "\n  ],\n" });
        out.push_str("  \"warnings\": [");
        first = true;
        for w in &self.warnings {
            out.push_str(if first { "\n" } else { ",\n" });
            first = false;
            out.push_str(&format!("    {}", json_str(w)));
        }
        out.push_str(if first { "]\n" } else { "\n  ]\n" });
        out.push_str("}\n");
        out
    }
}

/// Emit one `  "name": n,` scalar line of the JSON report.
fn count_line(out: &mut String, name: &str, n: usize) {
    out.push_str(&format!("  \"{name}\": {n},\n"));
}

/// Emit one `"name": {"key": n, …}` object of the JSON report, with
/// the report's two-space indent and a trailing comma.
fn count_map(out: &mut String, name: &str, map: &std::collections::BTreeMap<String, usize>) {
    out.push_str(&format!("  \"{name}\": {{"));
    let mut first = true;
    for (key, n) in map {
        out.push_str(if first { "\n" } else { ",\n" });
        first = false;
        out.push_str(&format!("    {}: {n}", json_str(key)));
    }
    out.push_str(if first { "},\n" } else { "\n  },\n" });
}

/// Minimal JSON string escaping — quotes, backslashes, and control
/// bytes; everything else (including multi-byte UTF-8) passes through.
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_report_is_stable_and_escaped() {
        let mut r = Report { files_scanned: 2, panic_total: 1, ..Report::default() };
        r.panic_by_file.insert("crates/x/src/a.rs".into(), 1);
        r.violations.push(Violation::at(Rule::SharedState, "crates/x/src/b.rs", 7, "a \"quoted\" msg"));
        r.warnings.push("note\twith tab".into());
        r.policy_files = 2;
        r.policy_anomaly.insert("crates/x/policies/p.toml".into(), 3);
        let json = r.to_json();
        assert_eq!(json, r.to_json(), "emission is deterministic");
        assert!(json.contains("\"schema\": \"lucent-lint/6\""), "{json}");
        assert!(json.contains("\"policy_files\": 2"), "{json}");
        assert!(json.contains("\"crates/x/policies/p.toml\": 3"), "{json}");
        assert!(json.contains("\"L8-shared-state\""), "{json}");
        assert!(json.contains("a \\\"quoted\\\" msg"), "{json}");
        assert!(json.contains("note\\twith tab"), "{json}");
        assert!(json.contains("\"crates/x/src/a.rs\": 1"), "{json}");
    }

    #[test]
    fn empty_report_serializes_with_empty_collections() {
        let json = Report::default().to_json();
        assert!(json.contains("\"panic_sites\": {},"), "{json}");
        assert!(json.contains("\"policy_anomaly\": {},"), "{json}");
        assert!(json.contains("\"violations\": [],"), "{json}");
        assert!(json.ends_with("]\n}\n"), "{json}");
    }
}
