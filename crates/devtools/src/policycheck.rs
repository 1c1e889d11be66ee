//! L11/L12 — symbolic analysis over the compiled censor-policy IR.
//!
//! Censor programs (`crates/*/policies/*.toml`) are code, and they rot
//! the way firewall rule sets rot: shadowed rules, contradictory
//! overlaps, escalation gates that can never arm, probability gates
//! that zero out an action. This module runs classic firewall-rule
//! analysis over the *compiled* [`Policy`] IR — not the TOML text — so
//! every conclusion is about what [`lucent_middlebox::policy::PolicyBox`]
//! will actually execute, not about how the file happens to be spelled.
//!
//! **L11 policy-anomaly** is predicate intersection over the match IR.
//! Two rules relate only when their matchers are identical (different
//! [`HostMatcher`]s extract different domains from the same payload, so
//! nothing is provable across them); host sets form a small lattice
//! (`Any` ⊇ everything, `Blocklist` ⊇ `Blocklist`, `Listed` compares by
//! subset; `Blocklist` and `Listed` are incomparable because the
//! blocklist is an instantiation parameter). On that lattice the
//! analyzer reports, per rule:
//!
//! - **dead rules** — fully shadowed by an earlier ungated rule with a
//!   covering host set (first-match-wins makes the later rule
//!   unreachable), or an empty literal host list;
//! - **conflicting overlaps** — a pass rule and a fire rule provably
//!   share hosts without one cleanly whitelisting the other, so the
//!   verdict depends on rule order, device state, or a coin;
//! - **unreachable `after` gates** — the gate references a pass rule
//!   (only firings set the `fired_mask`), a rule that can itself never
//!   fire, or (on hand-built IRs) an out-of-range index;
//! - **probability-mass errors** — gate weights outside `(0, 1]`, a
//!   `slow` tail that can never be drawn because there is no base
//!   delay, or an effective firing probability of zero because an
//!   always-firing (`probability = 1`) covering rule precedes it.
//!
//! **L12 policy-coverage** cross-checks the committed policy set
//! against the simulator's ground truth: every mechanism family the
//! topology can instantiate has a program, and every literal host
//! resolves against a TLD the blocklist corpus can generate. A committed policy that fails to compile is itself an L12
//! finding, pinned to the compiler's error line.
//!
//! The analyzer is **total**: any IR, including fuzzer-corrupted ones,
//! produces a deterministic report and never panics (enforced by the
//! `policy_anomaly_total` oracle in lucent-check and the workspace
//! panic-site lint).

use std::collections::{BTreeMap, BTreeSet};
use std::fs;
use std::io;
use std::path::Path;

use lucent_middlebox::compile::compile_with_lines;
use lucent_middlebox::policy::{Action, Family, HostSet, Policy, Rule as PolicyRule};

use crate::report::{Rule, Violation};

/// One L11 finding against a single policy program.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Anomaly {
    /// 1-based `[[rule]]` header line of the offending rule; 0 when the
    /// program was built by hand and carries no line table.
    pub line: usize,
    /// The finding. Messages are contract: the anomaly fixture corpus
    /// under `crates/middlebox/policies/fixtures/anomalies/` pins them
    /// byte-for-byte.
    pub msg: String,
}

/// TLDs a literal host can resolve against: the blocklist corpus
/// generator's five TLDs (`crates/web/src/corpus.rs`) plus the RFC 2606
/// `.example` names the test rigs and diffmb scripts use.
const CORPUS_TLDS: [&str; 6] = ["com", "net", "org", "in", "info", "example"];

fn pinned_line(rule_lines: &[usize], i: usize) -> usize {
    rule_lines.get(i).copied().unwrap_or(0)
}

fn rule_fires(rule: &PolicyRule) -> bool {
    matches!(rule.action, Action::Fire(_))
}

/// No probability coin and no `after` predicate: the rule decides every
/// request its matcher + host set reach.
fn ungated(rule: &PolicyRule) -> bool {
    rule.probability.is_none() && rule.after.is_none()
}

/// `outer ⊇ inner` on the host-set lattice, provable across every
/// instantiation. `Blocklist` vs `Listed` is incomparable: the
/// blocklist is a per-device parameter the IR does not fix.
fn hostset_covers(outer: &HostSet, inner: &HostSet) -> bool {
    match (outer, inner) {
        (HostSet::Any, _) => true,
        (HostSet::Blocklist, HostSet::Blocklist) => true,
        (HostSet::Listed(o), HostSet::Listed(i)) => i.is_subset(o),
        _ => false,
    }
}

/// Provably non-empty intersection under the intended instantiation
/// (a device with an empty blocklist censors nothing and is not worth
/// analyzing, so `Blocklist` counts as inhabited).
fn hostset_meets(a: &HostSet, b: &HostSet) -> bool {
    match (a, b) {
        (HostSet::Any, other) | (other, HostSet::Any) => match other {
            HostSet::Listed(set) => !set.is_empty(),
            _ => true,
        },
        (HostSet::Blocklist, HostSet::Blocklist) => true,
        (HostSet::Listed(x), HostSet::Listed(y)) => x.intersection(y).next().is_some(),
        _ => false,
    }
}

fn listed_and_empty(hosts: &HostSet) -> bool {
    matches!(hosts, HostSet::Listed(set) if set.is_empty())
}

/// For each rule, the earliest earlier rule that fully shadows it under
/// first-match-wins: same matcher (same extraction on every payload),
/// ungated, covering host set. `None` means the rule can run.
fn shadowers(rules: &[PolicyRule]) -> Vec<Option<usize>> {
    let mut out = Vec::with_capacity(rules.len());
    for (i, rule) in rules.iter().enumerate() {
        let mut hit = None;
        for (e, earlier) in rules[..i].iter().enumerate() {
            if earlier.matcher == rule.matcher
                && ungated(earlier)
                && hostset_covers(&earlier.hosts, &rule.hosts)
            {
                hit = Some(e);
                break;
            }
        }
        out.push(hit);
    }
    out
}

/// Whether each rule can ever fire (set its `fired_mask` bit): it must
/// be a fire action, not shadowed dead, with an inhabitable host set,
/// and its `after` chain must bottom out in a rule that can fire. The
/// chain walk is hop-bounded so corrupted IRs with cycles or
/// out-of-range indices resolve to `false` instead of looping.
fn fire_liveness(rules: &[PolicyRule], shadow: &[Option<usize>]) -> Vec<bool> {
    let plausible = |i: usize| {
        rule_fires(&rules[i]) && shadow[i].is_none() && !listed_and_empty(&rules[i].hosts)
    };
    let mut live = Vec::with_capacity(rules.len());
    for i in 0..rules.len() {
        let mut cursor = i;
        let mut hops = 0;
        let alive = loop {
            if !plausible(cursor) {
                break false;
            }
            match rules[cursor].after {
                None => break true,
                Some(j) if j >= rules.len() => break false,
                Some(j) => {
                    cursor = j;
                    hops += 1;
                    if hops > rules.len() {
                        break false; // cyclic chain never arms
                    }
                }
            }
        };
        live.push(alive);
    }
    live
}

/// Probability-mass findings for rule `i`.
fn mass_findings(rules: &[PolicyRule], i: usize, line: usize) -> Vec<Anomaly> {
    let rule = &rules[i];
    let mut out = Vec::new();
    if let Some(p) = rule.probability {
        if !(p.is_finite() && p > 0.0 && p <= 1.0) {
            out.push(Anomaly {
                line,
                msg: "probability mass error: `probability` is outside (0, 1]".to_string(),
            });
        }
    }
    if let Action::Fire(act) = &rule.action {
        if let Some((p, _)) = act.delay.slow {
            if !(p.is_finite() && p > 0.0 && p <= 1.0) {
                out.push(Anomaly {
                    line,
                    msg: "probability mass error: `slow` probability is outside (0, 1]"
                        .to_string(),
                });
            }
            if act.delay.base.is_none() {
                out.push(Anomaly {
                    line,
                    msg: "probability mass error: `slow` tail can never be drawn without a \
                          base delay"
                        .to_string(),
                });
            }
        }
    }
    // Effective probability 0: an earlier `probability = 1` rule with a
    // covering host set always ends the scan first. Not a dead rule in
    // the L11 sense (the earlier rule is gated, so the shadow pass
    // ignores it) — but the gate never actually gates.
    for (e, earlier) in rules[..i].iter().enumerate() {
        if earlier.matcher == rule.matcher
            && earlier.after.is_none()
            && earlier.probability == Some(1.0)
            && hostset_covers(&earlier.hosts, &rule.hosts)
        {
            out.push(Anomaly {
                line,
                msg: format!(
                    "probability mass error: effective firing probability is 0 — rule #{} \
                     fires first with probability 1",
                    e + 1
                ),
            });
            break;
        }
    }
    out
}

/// Run the L11 anomaly passes over one compiled policy. Total and
/// deterministic on any IR, including hand-built and corrupted ones;
/// `rule_lines` may be shorter than the rule list (missing entries pin
/// to line 0).
pub fn probe_policy(policy: &Policy, rule_lines: &[usize]) -> Vec<Anomaly> {
    let rules = &policy.rules;
    let shadow = shadowers(rules);
    let live = fire_liveness(rules, &shadow);
    let mut out = Vec::new();
    for (i, rule) in rules.iter().enumerate() {
        let line = pinned_line(rule_lines, i);
        if listed_and_empty(&rule.hosts) {
            out.push(Anomaly { line, msg: "dead rule: empty host list".to_string() });
        }
        if let Some(e) = shadow[i] {
            out.push(Anomaly {
                line,
                msg: format!("dead rule: fully shadowed by rule #{}", e + 1),
            });
        }
        for (e, earlier) in rules[..i].iter().enumerate() {
            if earlier.matcher == rule.matcher
                && rule_fires(earlier) != rule_fires(rule)
                && hostset_meets(&earlier.hosts, &rule.hosts)
                && !(ungated(earlier) && hostset_covers(&earlier.hosts, &rule.hosts))
            {
                out.push(Anomaly {
                    line,
                    msg: format!(
                        "conflicting overlap with rule #{}: common hosts, opposite actions \
                         (pass vs fire)",
                        e + 1
                    ),
                });
                break;
            }
        }
        if let Some(j) = rule.after {
            if j >= rules.len() {
                out.push(Anomaly {
                    line,
                    msg: "unreachable `after` gate: target rule index is out of range"
                        .to_string(),
                });
            } else if !rule_fires(&rules[j]) {
                out.push(Anomaly {
                    line,
                    msg: format!(
                        "unreachable `after` gate: rule #{} is a pass rule and never fires",
                        j + 1
                    ),
                });
            } else if !live[j] {
                out.push(Anomaly {
                    line,
                    msg: format!("unreachable `after` gate: rule #{} can never fire", j + 1),
                });
            }
        }
        out.extend(mass_findings(rules, i, line));
    }
    out
}

/// L12 per-policy findings: literal hosts that cannot resolve against
/// the blocklist corpus.
pub fn coverage_findings(policy: &Policy, rule_lines: &[usize]) -> Vec<Anomaly> {
    let mut out = Vec::new();
    for (i, rule) in policy.rules.iter().enumerate() {
        let HostSet::Listed(hosts) = &rule.hosts else { continue };
        let line = pinned_line(rule_lines, i);
        for host in hosts {
            if !well_formed_host(host) {
                out.push(Anomaly {
                    line,
                    msg: format!("dangling host-set entry `{host}`: not a well-formed domain \
                                  name"),
                });
                continue;
            }
            let tld = host.rsplit('.').next().unwrap_or("");
            if !CORPUS_TLDS.contains(&tld) {
                out.push(Anomaly {
                    line,
                    msg: format!(
                        "dangling host-set entry `{host}`: TLD `{tld}` cannot resolve against \
                         the blocklist corpus"
                    ),
                });
            }
        }
    }
    out
}

/// A lowercase dotted DNS name made of alnum-plus-hyphen labels — the
/// shape the corpus generator emits and the compiler's lowercasing
/// produces.
fn well_formed_host(host: &str) -> bool {
    host.contains('.')
        && host.split('.').all(|label| {
            !label.is_empty()
                && label
                    .chars()
                    .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '-')
        })
}

/// Outcome of the policy phase of a gate run.
#[derive(Debug, Default)]
pub struct PolicyCheckOut {
    /// L11 violations (one per anomaly) and L12 violations (coverage
    /// breaks).
    pub violations: Vec<Violation>,
    /// Policy file → L11 anomaly count (files with zero findings are
    /// omitted), the report's census.
    pub anomaly_counts: BTreeMap<String, usize>,
}

/// Run L11 + L12 over a workspace's committed policy files. `paths`
/// are root-relative and pre-sorted; the pass is deterministic by
/// construction.
pub fn check_policy_files(root: &Path, paths: &[String]) -> io::Result<PolicyCheckOut> {
    let mut out = PolicyCheckOut::default();
    let mut seen_families = BTreeSet::new();
    for rel in paths {
        let text = fs::read_to_string(root.join(rel))?;
        let (policy, rule_lines) = match compile_with_lines(&text) {
            Ok(compiled) => compiled,
            Err(e) => {
                out.violations.push(Violation::at(
                    Rule::PolicyCoverage,
                    rel,
                    e.line,
                    format!("policy does not compile: {}", e.msg),
                ));
                continue;
            }
        };
        seen_families.insert(match policy.family {
            Family::Wiretap => "wiretap",
            Family::Interceptive => "interceptive",
        });
        let anomalies = probe_policy(&policy, &rule_lines);
        if !anomalies.is_empty() {
            out.anomaly_counts.insert(rel.clone(), anomalies.len());
        }
        for a in anomalies {
            out.violations.push(Violation::at(Rule::PolicyAnomaly, rel, a.line, a.msg));
        }
        for c in coverage_findings(&policy, &rule_lines) {
            out.violations.push(Violation::at(Rule::PolicyCoverage, rel, c.line, c.msg));
        }
    }
    // Family coverage: once any policy is committed, both mechanism
    // families the topology can instantiate need a program — an ISP
    // whose program is missing is left out of the world, uncensored.
    if let Some(first) = paths.first() {
        for family in ["interceptive", "wiretap"] {
            if !seen_families.contains(family) {
                out.violations.push(Violation::file(
                    Rule::PolicyCoverage,
                    first,
                    format!(
                        "policy set has no {family}-family program — the topology \
                         instantiates both families"
                    ),
                ));
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lucent_middlebox::compile::{builtin, builtin_names};
    use lucent_middlebox::matcher::HostMatcher;
    use lucent_middlebox::policy::{DelaySpec, FireSpec, IpIdSpec};

    fn fire_rule(hosts: HostSet) -> PolicyRule {
        PolicyRule {
            name: None,
            matcher: HostMatcher::ExactToken,
            hosts,
            after: None,
            probability: None,
            action: Action::Fire(FireSpec {
                notice: None,
                rst: true,
                reset_server: false,
                drop_flow: false,
                ip_id: IpIdSpec::SeqHash,
                delay: DelaySpec { base: Some((300, 900)), slow: None },
            }),
        }
    }

    fn wiretap_of_rules(rules: Vec<PolicyRule>) -> Policy {
        Policy {
            name: "t".to_string(),
            family: Family::Wiretap,
            ports: None,
            flow_timeout: lucent_netsim::SimDuration::from_secs(150),
            rules,
        }
    }

    fn listed(hosts: &[&str]) -> HostSet {
        HostSet::Listed(hosts.iter().map(|h| h.to_string()).collect())
    }

    #[test]
    fn committed_isp_policies_have_zero_findings() {
        for name in builtin_names().into_iter().chain(["tata-wm"]) {
            let policy = builtin(name).unwrap();
            assert_eq!(probe_policy(&policy, &[]), vec![], "{name}: L11");
            assert_eq!(coverage_findings(&policy, &[]), vec![], "{name}: L12");
        }
    }

    #[test]
    fn anomaly_fixture_corpus_is_pinned() {
        // Each fixture under policies/fixtures/anomalies/ compiles
        // cleanly and yields exactly one finding, pinned on its first
        // line as `# expect: <rule line>: <message>`.
        let corpus: [(&str, &str); 5] = [
            (
                "dead-rule",
                include_str!("../../middlebox/policies/fixtures/anomalies/dead-rule.toml"),
            ),
            (
                "conflicting-overlap",
                include_str!(
                    "../../middlebox/policies/fixtures/anomalies/conflicting-overlap.toml"
                ),
            ),
            (
                "unreachable-gate",
                include_str!(
                    "../../middlebox/policies/fixtures/anomalies/unreachable-gate.toml"
                ),
            ),
            (
                "bad-probability",
                include_str!(
                    "../../middlebox/policies/fixtures/anomalies/bad-probability.toml"
                ),
            ),
            (
                "dangling-hostset",
                include_str!(
                    "../../middlebox/policies/fixtures/anomalies/dangling-hostset.toml"
                ),
            ),
        ];
        for (name, text) in corpus {
            let first = text.lines().next().unwrap_or("");
            let expect = first
                .strip_prefix("# expect: ")
                .unwrap_or_else(|| panic!("{name}: fixture lacks `# expect:` header"));
            let (line_s, msg) = expect.split_once(": ").expect("expect header shape");
            let want_line: usize = line_s.parse().expect("expect line number");
            let (policy, lines) = compile_with_lines(text)
                .unwrap_or_else(|e| panic!("{name}: fixture must compile, got {e}"));
            let mut findings = probe_policy(&policy, &lines);
            findings.extend(coverage_findings(&policy, &lines));
            assert_eq!(findings.len(), 1, "{name}: exactly one finding, got {findings:?}");
            assert_eq!(findings[0].line, want_line, "{name}");
            assert_eq!(findings[0].msg, msg, "{name}");
        }
    }

    #[test]
    fn blocklist_shadow_is_a_dead_rule() {
        let policy =
            wiretap_of_rules(vec![fire_rule(HostSet::Blocklist), fire_rule(HostSet::Blocklist)]);
        let findings = probe_policy(&policy, &[3, 9]);
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].line, 9);
        assert_eq!(findings[0].msg, "dead rule: fully shadowed by rule #1");
    }

    #[test]
    fn blocklist_does_not_cover_listed_sets() {
        let policy = wiretap_of_rules(vec![
            fire_rule(HostSet::Blocklist),
            fire_rule(listed(&["blocked-0.example"])),
        ]);
        assert_eq!(probe_policy(&policy, &[]), vec![]);
    }

    #[test]
    fn gated_shadowers_do_not_kill_rules() {
        let mut first = fire_rule(HostSet::Blocklist);
        first.probability = Some(0.5);
        let policy = wiretap_of_rules(vec![first, fire_rule(HostSet::Blocklist)]);
        assert_eq!(probe_policy(&policy, &[]), vec![]);
    }

    #[test]
    fn pass_fire_partial_overlap_conflicts() {
        let mut pass = fire_rule(listed(&["a.example", "b.example"]));
        pass.action = Action::Pass;
        let policy = wiretap_of_rules(vec![pass, fire_rule(listed(&["b.example", "c.example"]))]);
        let findings = probe_policy(&policy, &[4, 11]);
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].line, 11);
        assert_eq!(
            findings[0].msg,
            "conflicting overlap with rule #1: common hosts, opposite actions (pass vs fire)"
        );
    }

    #[test]
    fn clean_whitelist_idiom_is_not_flagged() {
        // The committed idiom: pass a literal set, then fire on the
        // blocklist. Listed vs Blocklist is incomparable, so no overlap
        // is provable and nothing is reported.
        let mut pass = fire_rule(listed(&["ok.example"]));
        pass.action = Action::Pass;
        let policy = wiretap_of_rules(vec![pass, fire_rule(HostSet::Blocklist)]);
        assert_eq!(probe_policy(&policy, &[]), vec![]);
    }

    #[test]
    fn after_gate_on_a_pass_rule_is_unreachable() {
        // Listed vs Blocklist hosts are incomparable, so the only
        // finding is the gate on a rule that can never fire.
        let mut pass = fire_rule(listed(&["ok.example"]));
        pass.action = Action::Pass;
        let mut gated = fire_rule(HostSet::Blocklist);
        gated.after = Some(0);
        let policy = wiretap_of_rules(vec![pass, gated]);
        let findings = probe_policy(&policy, &[2, 7]);
        assert_eq!(findings.len(), 1);
        assert_eq!(
            findings[0].msg,
            "unreachable `after` gate: rule #1 is a pass rule and never fires"
        );
    }

    #[test]
    fn after_gate_on_a_dead_rule_is_unreachable() {
        let mut gated = fire_rule(HostSet::Any);
        gated.after = Some(1);
        let policy = wiretap_of_rules(vec![
            fire_rule(HostSet::Blocklist),
            fire_rule(HostSet::Blocklist), // dead: shadowed by rule 1
            gated,
        ]);
        let findings = probe_policy(&policy, &[1, 2, 3]);
        assert_eq!(findings.len(), 2, "{findings:?}");
        assert_eq!(findings[0].msg, "dead rule: fully shadowed by rule #1");
        assert_eq!(findings[1].msg, "unreachable `after` gate: rule #2 can never fire");
    }

    #[test]
    fn corrupted_irs_are_probed_without_panicking() {
        // Out-of-range gate index.
        let mut wild = fire_rule(HostSet::Blocklist);
        wild.after = Some(99);
        let policy = wiretap_of_rules(vec![wild]);
        let findings = probe_policy(&policy, &[]);
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].msg, "unreachable `after` gate: target rule index is out of range");
        // Cyclic gate chain (the compiler rejects these; hand-built IRs
        // can still carry them).
        let mut a = fire_rule(HostSet::Blocklist);
        a.after = Some(1);
        let mut b = fire_rule(HostSet::Blocklist);
        b.after = Some(0);
        let cyclic = wiretap_of_rules(vec![a, b]);
        for f in probe_policy(&cyclic, &[]) {
            assert!(f.msg.contains("can never fire"), "{}", f.msg);
        }
        // Non-finite probability.
        let mut nan = fire_rule(HostSet::Blocklist);
        nan.probability = Some(f64::NAN);
        let policy = wiretap_of_rules(vec![nan]);
        let findings = probe_policy(&policy, &[]);
        assert_eq!(
            findings[0].msg,
            "probability mass error: `probability` is outside (0, 1]"
        );
    }

    #[test]
    fn empty_host_list_is_dead() {
        let policy = wiretap_of_rules(vec![fire_rule(listed(&[]))]);
        let findings = probe_policy(&policy, &[6]);
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].msg, "dead rule: empty host list");
    }

    #[test]
    fn slow_tail_without_base_never_draws() {
        let mut rule = fire_rule(HostSet::Blocklist);
        if let Action::Fire(act) = &mut rule.action {
            act.delay = DelaySpec { base: None, slow: Some((0.3, (1, 2))) };
        }
        let policy = wiretap_of_rules(vec![rule]);
        let findings = probe_policy(&policy, &[]);
        assert_eq!(findings.len(), 1);
        assert_eq!(
            findings[0].msg,
            "probability mass error: `slow` tail can never be drawn without a base delay"
        );
    }

    #[test]
    fn always_firing_gate_zeroes_later_rules() {
        let mut first = fire_rule(HostSet::Blocklist);
        first.probability = Some(1.0);
        let policy = wiretap_of_rules(vec![first, fire_rule(HostSet::Blocklist)]);
        let findings = probe_policy(&policy, &[5, 12]);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert_eq!(findings[0].line, 12);
        assert_eq!(
            findings[0].msg,
            "probability mass error: effective firing probability is 0 — rule #1 fires first \
             with probability 1"
        );
    }

    #[test]
    fn dangling_hosts_are_coverage_findings() {
        let policy = wiretap_of_rules(vec![fire_rule(listed(&["blocked.invalid"]))]);
        let findings = coverage_findings(&policy, &[8]);
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].line, 8);
        assert_eq!(
            findings[0].msg,
            "dangling host-set entry `blocked.invalid`: TLD `invalid` cannot resolve against \
             the blocklist corpus"
        );
        let malformed = wiretap_of_rules(vec![fire_rule(listed(&["no dots here"]))]);
        let findings = coverage_findings(&malformed, &[]);
        assert_eq!(findings.len(), 1);
        assert!(findings[0].msg.contains("not a well-formed domain name"), "{findings:?}");
    }

    #[test]
    fn probe_is_deterministic() {
        let mut pass = fire_rule(listed(&["a.example", "b.example"]));
        pass.action = Action::Pass;
        let mut gated = fire_rule(HostSet::Any);
        gated.after = Some(0);
        let policy = wiretap_of_rules(vec![pass, fire_rule(listed(&["b.example"])), gated]);
        assert_eq!(probe_policy(&policy, &[1, 2, 3]), probe_policy(&policy, &[1, 2, 3]));
    }
}
