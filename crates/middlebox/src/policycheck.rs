//! The check across the rules of one censor program.
//!
//! Every rule tests the Host header against the same device blocklist,
//! so a rule that repeats an earlier rule's matcher extracts the same
//! domain from the same request and reaches the same verdict as that
//! rule. Scanned first-match-wins, it is a dead rule: it can never fire.
//! [`crate::compile`] rejects such a rule at its `[[rule]]` header.

use crate::policy::Rule;

/// The index of the earliest rule in `earlier` that shadows `rule`
/// (has the same matcher), if any; `rule` can never fire behind it.
pub fn shadowed_by(earlier: &[Rule], rule: &Rule) -> Option<usize> {
    earlier.iter().position(|r| r.matcher == rule.matcher)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::{builtin, builtin_names, compile};
    use crate::matcher::HostMatcher;

    fn only_rule(matcher: &str, action: &str) -> Rule {
        let text = format!("[policy]\nname = \"x\"\nfamily = \"wiretap\"\n[[rule]]\ntrigger = \"host-header\"\nmatcher = \"{matcher}\"\naction = {action}\n");
        let mut p = compile(&text).unwrap();
        assert_eq!(p.rules.len(), 1);
        p.rules.remove(0)
    }

    #[test]
    fn blocklist_shadow_is_a_dead_rule() {
        // The shadow depends on the matcher alone: a later rule that
        // fires something else is still dead behind the same matcher.
        let other = only_rule("last-host", "[\"inject-rst\"]");
        let first = only_rule("exact-token", "[\"inject-rst\"]");
        let same = only_rule("exact-token", "[\"inject-notice\", \"inject-rst\"]\nnotice = \"airtel\"");
        assert_ne!(first.fire, same.fire);
        assert_eq!(same.matcher, HostMatcher::ExactToken);
        let earlier = [other, first];
        assert_eq!(shadowed_by(&earlier[1..], &same), Some(0));
        assert_eq!(shadowed_by(&earlier, &same), Some(1));
        assert_eq!(shadowed_by(&earlier[1..], &earlier[0]), None);
        assert_eq!(shadowed_by(&[], &same), None);
    }

    #[test]
    fn committed_isp_policies_have_zero_findings() {
        for name in builtin_names().into_iter().chain(["tata-wm"]) {
            let policy = builtin(name).unwrap_or_else(|e| panic!("{name}: {e}"));
            for (i, rule) in policy.rules.iter().enumerate() {
                assert_eq!(shadowed_by(&policy.rules[..i], rule), None, "{name}: rule #{}", i + 1);
            }
        }
    }
}
