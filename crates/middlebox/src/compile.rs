//! The policy compiler: TOML policy files → [`Policy`] programs.
//!
//! The grammar is the workspace's TOML subset, read by
//! [`lucent_support::toml`] — the same line-pinned reader the lint uses
//! for `lint-allow.toml` and the manifests. The reader raises every
//! syntax error; this module supplies the policy vocabulary (which
//! headers exist, bare `[A-Za-z0-9_]` keys) and the semantics.
//!
//! The compiler is **total**: any input, including fuzzer garbage,
//! either compiles or returns a line-numbered [`PolicyError`] — it
//! never panics (enforced by the `policy_compile_total` oracle and the
//! workspace panic-site lint). Error messages are part of the contract:
//! the malformed-fixture corpus under `policies/fixtures/bad/` pins
//! them byte-for-byte.
//!
//! Every rule has one shape: a Host-header `trigger` with a `matcher`
//! that extracts the domain, checked against the device's own blocklist
//! (the [`crate::config::Instance`] supplies it), and an `action` list
//! of verbs that fire on a hit. The one semantic check across rules
//! follows from that shape: a rule may not repeat an earlier rule's
//! matcher, because it would extract the same domain from the same
//! request and test it against the same blocklist, so it could never
//! fire ([`crate::policycheck`]).
//!
//! ```toml
//! [policy]
//! name = "airtel-wm"
//! family = "wiretap"
//!
//! [match]
//! ports = [80]
//!
//! [state]
//! flow_timeout_secs = 150
//!
//! [[rule]]
//! trigger = "host-header"
//! matcher = "exact-token"
//! action = ["inject-notice", "inject-rst"]
//! notice = "airtel"
//! ip_id = 242
//! delay_us = { lo = 300, hi = 900 }
//! slow = { p = 0.3, lo = 150000, hi = 400000 }
//! ```

use std::collections::BTreeSet;
use std::fmt;

use lucent_netsim::SimDuration;
use lucent_support::toml::{self, Dialect, Entry, Section, Value};

use crate::matcher::HostMatcher;
use crate::notice::NoticeStyle;
use crate::policy::{DelaySpec, Family, FireSpec, IpIdSpec, Policy, Rule};
use crate::policycheck;

/// A compile failure, pointing at the offending line (0 for whole-file
/// problems such as a missing section).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PolicyError {
    /// 1-based source line, or 0 when no single line is at fault.
    pub line: usize,
    /// Human-readable description.
    pub msg: String,
}

impl fmt::Display for PolicyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.line == 0 {
            write!(f, "{}", self.msg)
        } else {
            write!(f, "line {}: {}", self.line, self.msg)
        }
    }
}

impl std::error::Error for PolicyError {}

fn err<T>(line: usize, msg: String) -> Result<T, PolicyError> {
    Err(PolicyError { line, msg })
}

impl From<toml::Error> for PolicyError {
    fn from(e: toml::Error) -> PolicyError {
        PolicyError { line: e.line, msg: e.msg }
    }
}

/// The policy vocabulary: `[policy]`, `[match]`, `[state]` and
/// repeated `[[rule]]` headers, and bare `[A-Za-z0-9_]` keys (quoted,
/// dotted and dashed keys are not `key = value` here).
struct PolicyDialect;

impl Dialect for PolicyDialect {
    fn header(&self, name: &str, array: bool) -> Result<(), String> {
        match (array, name) {
            (true, "rule") | (false, "policy" | "match" | "state") => Ok(()),
            (true, _) => Err(format!("unknown section [[{name}]]")),
            (false, _) => Err(format!("unknown section [{name}]")),
        }
    }

    fn key(&self, raw: &str) -> bool {
        raw.chars().all(|c| c.is_ascii_alphanumeric() || c == '_')
    }
}

/// Reject keys outside the section's vocabulary.
fn check_keys(sect: &Section, allowed: &[&str], label: &str) -> Result<(), PolicyError> {
    for e in &sect.entries {
        if !allowed.contains(&e.key.as_str()) {
            return err(e.line, format!("unknown key `{}` in {label}", e.key));
        }
    }
    Ok(())
}

fn want_str(e: &Entry) -> Result<&str, PolicyError> {
    match &e.value {
        Value::Str(s) => Ok(s),
        other => err(e.line, format!("`{}` wants a string, not {}", e.key, other.kind())),
    }
}

/// The non-negative integer under `key` in `entry`'s inline table.
fn table_u64(entry: &Entry, key: &str, shape: &str) -> Result<u64, PolicyError> {
    match entry.value.get(key) {
        Some(Value::Int(n)) if *n >= 0 => Ok(*n as u64),
        _ => err(entry.line, format!("`{}` wants `{shape}`", entry.key)),
    }
}

fn notice_of(sect: &Section, overt: bool) -> Result<Option<NoticeStyle>, PolicyError> {
    let preset = sect.get("notice");
    let custom: Vec<&Entry> = ["notice_iframe", "notice_server", "notice_text"]
        .iter()
        .filter_map(|k| sect.get(k))
        .collect();
    if let Some(e) = preset {
        if let Some(c) = custom.first() {
            return err(c.line, "`notice` conflicts with custom notice keys".to_string());
        }
        let style = match want_str(e)? {
            "airtel" => NoticeStyle::airtel_like(),
            "idea" => NoticeStyle::idea_like(),
            "jio" => NoticeStyle::jio_like(),
            other => return err(e.line, format!("unknown notice preset `{other}`")),
        };
        return Ok(Some(style));
    }
    if !custom.is_empty() {
        if custom.len() != 3 {
            let e = custom[0];
            return err(
                e.line,
                "custom notices need `notice_iframe`, `notice_server`, and `notice_text`"
                    .to_string(),
            );
        }
        return Ok(Some(NoticeStyle {
            iframe_url: want_str(custom[0])?.to_string(),
            server_header: want_str(custom[1])?.to_string(),
            statutory_text: want_str(custom[2])?.to_string(),
        }));
    }
    if overt {
        return err(sect.line, "rule needs a `notice` style for `inject-notice`".to_string());
    }
    Ok(None)
}

/// Compile one `[[rule]]` section.
fn rule_of_sect(sect: &Section, family: Family) -> Result<Rule, PolicyError> {
    check_keys(
        sect,
        &[
            "trigger",
            "matcher",
            "action",
            "notice",
            "notice_iframe",
            "notice_server",
            "notice_text",
            "ip_id",
            "delay_us",
            "slow",
        ],
        "[[rule]]",
    )?;

    let Some(trig) = sect.get("trigger") else {
        return err(sect.line, "rule needs `trigger = \"host-header\"`".to_string());
    };
    match want_str(trig)? {
        "host-header" => {}
        other => return err(trig.line, format!("unknown trigger `{other}`")),
    }

    let Some(m) = sect.get("matcher") else {
        return err(sect.line, "rule needs a `matcher`".to_string());
    };
    let matcher = match want_str(m)? {
        "exact-token" => HostMatcher::ExactToken,
        "strict-pattern" => HostMatcher::StrictPattern,
        "last-host" => HostMatcher::LastHost,
        other => return err(m.line, format!("unknown matcher `{other}`")),
    };

    let Some(act) = sect.get("action") else {
        return err(sect.line, "rule needs a non-empty `action`".to_string());
    };
    let Value::List(verbs) = &act.value else {
        return err(act.line, "`action` wants a list of verbs".to_string());
    };
    if verbs.is_empty() {
        return err(act.line, "rule needs a non-empty `action`".to_string());
    }
    let (mut inject_notice, mut inject_rst, mut reset_server, mut drop_flow) =
        (false, false, false, false);
    for v in verbs {
        let Value::Str(verb) = v else {
            return err(act.line, "`action` wants a list of verbs".to_string());
        };
        match verb.as_str() {
            "inject-notice" => inject_notice = true,
            "inject-rst" => inject_rst = true,
            "reset-server" => reset_server = true,
            "drop" => drop_flow = true,
            other => return err(act.line, format!("unknown verb `{other}` in `action`")),
        }
    }
    if family == Family::Wiretap {
        if reset_server {
            return err(act.line, "verb `reset-server` requires family \"interceptive\"".to_string());
        }
        if drop_flow {
            return err(act.line, "verb `drop` requires family \"interceptive\"".to_string());
        }
        if !inject_notice && !inject_rst {
            return err(act.line, "a wiretap rule must inject something".to_string());
        }
    }

    let delay_entry = sect.get("delay_us");
    let slow_entry = sect.get("slow");
    if family == Family::Interceptive {
        if let Some(e) = delay_entry.or(slow_entry) {
            return err(
                e.line,
                format!("`{}` is a wiretap knob; interceptive devices answer inline", e.key),
            );
        }
    }
    let base = match delay_entry {
        None if family == Family::Wiretap => Some((300, 900)),
        None => None,
        Some(e) => {
            let Value::Table(pairs) = &e.value else {
                return err(e.line, "`delay_us` wants `{ lo = <us>, hi = <us> }`".to_string());
            };
            for (k, _) in pairs {
                if k != "lo" && k != "hi" {
                    return err(e.line, "`delay_us` wants `{ lo = <us>, hi = <us> }`".to_string());
                }
            }
            let lo = table_u64(e, "lo", "{ lo = <us>, hi = <us> }")?;
            let hi = table_u64(e, "hi", "{ lo = <us>, hi = <us> }")?;
            if lo > hi {
                return err(e.line, "empty delay range".to_string());
            }
            Some((lo, hi))
        }
    };
    let slow = match slow_entry {
        None => None,
        Some(e) => {
            let Value::Table(pairs) = &e.value else {
                return err(
                    e.line,
                    "`slow` wants `{ p = <0-1>, lo = <us>, hi = <us> }`".to_string(),
                );
            };
            let mut p = None;
            for (k, v) in pairs {
                match (k.as_str(), v) {
                    ("p", Value::Float(x)) => p = Some(*x),
                    ("p", Value::Int(1)) => p = Some(1.0),
                    ("lo" | "hi", _) => {}
                    _ => {
                        return err(
                            e.line,
                            "`slow` wants `{ p = <0-1>, lo = <us>, hi = <us> }`".to_string(),
                        )
                    }
                }
            }
            let Some(p) = p else {
                return err(
                    e.line,
                    "`slow` wants `{ p = <0-1>, lo = <us>, hi = <us> }`".to_string(),
                );
            };
            if !(p > 0.0 && p <= 1.0) {
                return err(e.line, "`slow` probability must be within (0, 1]".to_string());
            }
            let lo = table_u64(e, "lo", "{ p = <0-1>, lo = <us>, hi = <us> }")?;
            let hi = table_u64(e, "hi", "{ p = <0-1>, lo = <us>, hi = <us> }")?;
            if lo > hi {
                return err(e.line, "empty delay range".to_string());
            }
            Some((p, (lo, hi)))
        }
    };

    let ip_id = match sect.get("ip_id") {
        None => match family {
            Family::Wiretap => IpIdSpec::SeqHash,
            Family::Interceptive => IpIdSpec::DeviceMark,
        },
        Some(e) => match &e.value {
            Value::Int(n) if (0..=0xffff).contains(n) => IpIdSpec::Fixed(*n as u16),
            Value::Str(s) if s == "hashed" => IpIdSpec::SeqHash,
            Value::Str(s) if s == "device" => IpIdSpec::DeviceMark,
            _ => {
                return err(
                    e.line,
                    "`ip_id` wants an integer 0-65535, \"hashed\", or \"device\"".to_string(),
                )
            }
        },
    };

    let notice = notice_of(sect, inject_notice)?;
    if notice.is_some() && !inject_notice {
        return err(sect.line, "a notice style is set but `action` lacks `inject-notice`".to_string());
    }
    let fire = FireSpec {
        notice,
        rst: inject_rst,
        reset_server,
        drop_flow,
        ip_id,
        delay: DelaySpec { base, slow },
    };
    Ok(Rule { matcher, fire })
}

/// Compile a policy file. Total: returns a [`PolicyError`] for every
/// malformed input, and identical output for identical input.
pub fn compile(text: &str) -> Result<Policy, PolicyError> {
    let sects = toml::parse_in(text, &PolicyDialect)?;

    let Some(policy_sect) = sects.iter().find(|s| s.name == "policy") else {
        return err(0, "policy needs a [policy] section".to_string());
    };
    check_keys(policy_sect, &["name", "family"], "[policy]")?;
    let Some(name_e) = policy_sect.get("name") else {
        return err(policy_sect.line, "policy needs a `name`".to_string());
    };
    let name = want_str(name_e)?.to_string();
    let Some(fam_e) = policy_sect.get("family") else {
        return err(policy_sect.line, "policy needs a `family`".to_string());
    };
    let family = match want_str(fam_e)? {
        "wiretap" => Family::Wiretap,
        "interceptive" => Family::Interceptive,
        other => return err(fam_e.line, format!("unknown family `{other}`")),
    };

    let mut ports = {
        let mut p = BTreeSet::new();
        p.insert(80u16);
        Some(p)
    };
    if let Some(match_sect) = sects.iter().find(|s| s.name == "match") {
        check_keys(match_sect, &["ports"], "[match]")?;
        if let Some(e) = match_sect.get("ports") {
            ports = match &e.value {
                Value::Str(s) if s == "any" => None,
                Value::List(items) if !items.is_empty() => {
                    let mut set = BTreeSet::new();
                    for item in items {
                        match item {
                            Value::Int(n) if (1..=0xffff).contains(n) => {
                                set.insert(*n as u16);
                            }
                            Value::Int(n) => {
                                return err(e.line, format!("port {n} is outside 1-65535"))
                            }
                            _ => {
                                return err(
                                    e.line,
                                    "`ports` wants a list of integers or \"any\"".to_string(),
                                )
                            }
                        }
                    }
                    Some(set)
                }
                _ => {
                    return err(e.line, "`ports` wants a list of integers or \"any\"".to_string())
                }
            };
        }
    }

    let mut flow_timeout = SimDuration::from_secs(150);
    if let Some(state_sect) = sects.iter().find(|s| s.name == "state") {
        check_keys(state_sect, &["flow_timeout_secs"], "[state]")?;
        if let Some(e) = state_sect.get("flow_timeout_secs") {
            match e.value {
                Value::Int(n) if (1..=86_400).contains(&n) => {
                    flow_timeout = SimDuration::from_secs(n as u64);
                }
                _ => {
                    return err(
                        e.line,
                        "`flow_timeout_secs` wants an integer within 1-86400".to_string(),
                    )
                }
            }
        }
    }

    let mut rules: Vec<Rule> = Vec::new();
    for sect in sects.iter().filter(|s| s.name == "rule") {
        let rule = rule_of_sect(sect, family)?;
        if let Some(j) = policycheck::shadowed_by(&rules, &rule) {
            return err(
                sect.line,
                format!("rule can never fire: rule #{} already has the same matcher", j + 1),
            );
        }
        rules.push(rule);
    }
    if rules.is_empty() {
        return err(0, "a policy needs at least one [[rule]]".to_string());
    }
    Ok(Policy { name, family, ports, flow_timeout, rules })
}

/// Names of the four access-ISP policy files. TATA's border program,
/// `tata-wm`, is committed beside them but is not an access ISP's, so
/// it is reachable through [`builtin`] only.
pub fn builtin_names() -> [&'static str; 4] {
    ["airtel-wm", "jio-wm", "idea-im", "vodafone-im"]
}

/// Compile one of the committed ISP policy files by name.
pub fn builtin(name: &str) -> Result<Policy, PolicyError> {
    let text = match name {
        "airtel-wm" => include_str!("../policies/airtel-wm.toml"),
        "jio-wm" => include_str!("../policies/jio-wm.toml"),
        "idea-im" => include_str!("../policies/idea-im.toml"),
        "vodafone-im" => include_str!("../policies/vodafone-im.toml"),
        "tata-wm" => include_str!("../policies/tata-wm.toml"),
        other => return err(0, format!("unknown builtin policy `{other}`")),
    };
    compile(text)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Instance;

    fn msg(text: &str) -> String {
        match compile(text) {
            Err(e) => e.to_string(),
            Ok(p) => panic!("compiled unexpectedly: {p:?}"),
        }
    }

    #[test]
    fn builtins_compile() {
        for name in builtin_names().into_iter().chain(["tata-wm"]) {
            let policy = builtin(name).unwrap_or_else(|e| panic!("{name}: {e}"));
            assert_eq!(policy.name, name);
            assert!(!policy.rules.is_empty());
        }
    }

    #[test]
    fn airtel_builtin_matches_the_profile_shape() {
        let p = builtin("airtel-wm").unwrap();
        assert_eq!(p.family, Family::Wiretap);
        assert_eq!(p.flow_timeout, SimDuration::from_secs(150));
        let act = &p.rules[0].fire;
        assert_eq!(act.ip_id, IpIdSpec::Fixed(242));
        assert_eq!(act.delay.base, Some((300, 900)));
        assert_eq!(act.delay.slow, Some((0.3, (150_000, 400_000))));
        assert!(act.rst && act.notice.is_some());
        assert!(!act.reset_server && !act.drop_flow);
    }

    #[test]
    fn vodafone_builtin_is_covert() {
        let p = builtin("vodafone-im").unwrap();
        assert_eq!(p.family, Family::Interceptive);
        let act = &p.rules[0].fire;
        assert!(act.notice.is_none() && act.rst && act.reset_server && act.drop_flow);
        assert_eq!(act.ip_id, IpIdSpec::DeviceMark);
    }

    #[test]
    fn tata_builtin_is_the_single_rule_border_wiretap() {
        // Field by field, the single-rule border wiretap TATA's devices
        // run: exact-token match, TATA's own notice, hashed IP-ID, no
        // slow tail.
        let p = builtin("tata-wm").unwrap();
        assert_eq!(p.name, "tata-wm");
        assert_eq!(p.family, Family::Wiretap);
        assert_eq!(p.ports, Some([80].into_iter().collect()));
        assert_eq!(p.flow_timeout, SimDuration::from_secs(150));
        let fire = FireSpec {
            notice: Some(NoticeStyle {
                iframe_url: "http://www.tatacommunications.com/dot-blocked".into(),
                server_header: "nginx".into(),
                statutory_text: "Blocked under DoT instructions.".into(),
            }),
            rst: true,
            reset_server: false,
            drop_flow: false,
            ip_id: IpIdSpec::SeqHash,
            delay: DelaySpec { base: Some((300, 900)), slow: None },
        };
        let rule = Rule { matcher: HostMatcher::ExactToken, fire };
        assert_eq!(p.rules, vec![rule]);
    }

    #[test]
    fn compiling_twice_is_deterministic() {
        for name in builtin_names() {
            assert_eq!(builtin(name).unwrap(), builtin(name).unwrap());
        }
    }

    #[test]
    fn fixture_corpus_errors_are_pinned() {
        // Each malformed fixture under policies/fixtures/bad/ carries
        // its expected error on the first line: `# expect: <message>`.
        // The whole directory is read, so no fixture goes unchecked.
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("policies/fixtures/bad");
        let mut paths: Vec<_> = std::fs::read_dir(&dir)
            .expect("read the bad-fixture corpus")
            .map(|e| e.expect("corpus entry").path())
            .filter(|p| p.extension().is_some_and(|x| x == "toml"))
            .collect();
        paths.sort();
        assert!(paths.len() >= 19, "corpus shrank to {} fixtures", paths.len());
        for path in paths {
            let name = path.file_name().unwrap_or_default().to_string_lossy();
            let text = std::fs::read_to_string(&path).expect("read fixture");
            let first = text.lines().next().unwrap_or("");
            let expect = first
                .strip_prefix("# expect: ")
                .unwrap_or_else(|| panic!("{name}: fixture lacks `# expect:` header"));
            assert_eq!(msg(&text), expect, "fixture {name}");
        }
    }

    #[test]
    fn wrong_airtel_fixture_compiles_but_differs() {
        // The planted negative control: one flipped action must compile fine
        // (the divergence is caught behaviorally, not syntactically).
        let wrong = compile(include_str!("../policies/fixtures/wrong-airtel.toml")).unwrap();
        let right = compile(include_str!("../policies/fixtures/right-airtel.toml")).unwrap();
        let real = builtin("airtel-wm").unwrap();
        assert_ne!(wrong.rules, real.rules, "the flipped action must change the program");
        assert_eq!(right.rules, real.rules, "the green twin compiles to the committed program");
    }

    #[test]
    fn unknown_builtin_is_an_error() {
        assert_eq!(builtin("sify-wm").unwrap_err().to_string(), "unknown builtin policy `sify-wm`");
    }

    #[test]
    fn comments_and_blank_lines_are_ignored() {
        let p = compile(
            "# header\n[policy] # trailing\nname = \"x\" # comment\nfamily = \"wiretap\"\n\n[[rule]]\ntrigger = \"host-header\"\nmatcher = \"exact-token\"\naction = [\"inject-rst\"]\n",
        )
        .unwrap();
        assert_eq!(p.name, "x");
    }

    #[test]
    fn strings_keep_hash_signs() {
        let p = compile(
            "[policy]\nname = \"a#b\"\nfamily = \"wiretap\"\n[[rule]]\ntrigger = \"host-header\"\nmatcher = \"exact-token\"\naction = [\"inject-rst\"]\n",
        )
        .unwrap();
        assert_eq!(p.name, "a#b");
    }

    #[test]
    fn error_lines_point_at_the_offender() {
        let e = compile("[policy]\nname = \"x\"\nfamily = \"weird\"\n").unwrap_err();
        assert_eq!(e.line, 3);
        assert_eq!(e.to_string(), "line 3: unknown family `weird`");
    }

    #[test]
    fn interceptive_rejects_wiretap_timing_knobs() {
        let text = "[policy]\nname = \"x\"\nfamily = \"interceptive\"\n[[rule]]\ntrigger = \"host-header\"\nmatcher = \"last-host\"\naction = [\"inject-rst\", \"drop\"]\ndelay_us = { lo = 1, hi = 2 }\n";
        assert_eq!(
            msg(text),
            "line 8: `delay_us` is a wiretap knob; interceptive devices answer inline"
        );
    }

    #[test]
    fn rule_lines_point_at_the_rule_headers() {
        // Two rules with different matchers compile; a second rule that
        // repeats the first one's matcher could never fire, and the
        // error points at its `[[rule]]` header.
        let two = |second: &str| {
            format!("[policy]\nname = \"x\"\nfamily = \"wiretap\"\n\n[[rule]]\ntrigger = \"host-header\"\nmatcher = \"exact-token\"\naction = [\"inject-rst\"]\n\n[[rule]]\ntrigger = \"host-header\"\nmatcher = \"{second}\"\naction = [\"inject-rst\"]\n")
        };
        let p = compile(&two("last-host")).unwrap();
        let matchers: Vec<_> = p.rules.iter().map(|r| r.matcher).collect();
        assert_eq!(matchers, vec![HostMatcher::ExactToken, HostMatcher::LastHost]);
        assert_eq!(
            msg(&two("exact-token")),
            "line 10: rule can never fire: rule #1 already has the same matcher"
        );
    }

    #[test]
    fn instances_pair_with_compiled_policies() {
        let p = builtin("airtel-wm").unwrap();
        let inst = Instance::of(["Blocked.Example".to_string()], None, 3);
        assert!(inst.blocklist.contains("blocked.example"));
        assert_eq!(p.rules.len(), 1);
    }
}
