//! Manifest rules: L1 hermeticity and L2 layering.
//!
//! L1 — the workspace must build with the network unplugged. Every
//! dependency in every member manifest must resolve to a path inside the
//! repository, either directly (`{ path = … }`) or through a
//! `[workspace.dependencies]` entry that is itself a path.
//!
//! L2 — crates form a strict DAG:
//!
//! ```text
//! support → {obs, packet} → netsim → tcp → dns → {web, middlebox}
//!         → topology → core → bench → check
//! ```
//!
//! (`dns` sits above `tcp` because resolvers are transport apps hosted
//! on a `TcpHost`; `middlebox` needs neither. `obs` sits directly above
//! `support` so every layer from `netsim` up can emit telemetry.)
//!
//! A crate may depend only on crates in strictly lower layers. The map
//! below is the single source of truth; adding an edge means editing it
//! here, in review.

use std::collections::BTreeMap;

use crate::report::{Rule, Violation};
use lucent_support::toml::{Entry, Section, Value};

/// One dependency as declared in a manifest.
#[derive(Debug, Clone, PartialEq)]
pub struct Dep {
    pub name: String,
    /// The section it came from (`dependencies`, `dev-dependencies`, …).
    pub section: String,
    /// Declared with `path = …`.
    pub has_path: bool,
    /// Declared with `workspace = true`.
    pub from_workspace: bool,
    /// Declared with a registry version requirement.
    pub has_version: bool,
}

/// A parsed member manifest.
#[derive(Debug, Clone)]
pub struct Manifest {
    /// Package name (`lucent-packet`, …).
    pub package: String,
    /// Manifest path relative to the workspace root.
    pub rel_path: String,
    pub deps: Vec<Dep>,
}

const DEP_SECTIONS: [&str; 3] = ["dependencies", "dev-dependencies", "build-dependencies"];

/// The entries of the `[name]` table, or none when it is absent.
fn table<'a>(doc: &'a [Section], name: &str) -> &'a [Entry] {
    doc.iter().find(|s| !s.array && s.name == name).map_or(&[], |s| &s.entries)
}

/// Extract the package name and all dependency declarations from a
/// parsed manifest, handling both inline (`foo = { … }`) and dotted
/// (`[dependencies.foo]`) forms.
pub fn extract(doc: &[Section], rel_path: &str) -> Manifest {
    let package = table(doc, "package")
        .iter()
        .find(|e| e.key == "name")
        .and_then(|e| e.value.as_str())
        .unwrap_or("<unnamed>")
        .to_string();
    let mut deps = Vec::new();
    for section in DEP_SECTIONS {
        for e in table(doc, section) {
            // `foo = "1.0"` is a bare registry requirement.
            let bare = matches!(e.value, Value::Str(_));
            deps.push(dep(&e.key, section, bare, |k| e.value.get(k)));
        }
        // Dotted sub-tables: [dependencies.foo]
        let prefix = format!("{section}.");
        for sect in doc {
            if let Some(name) = sect.name.strip_prefix(&prefix) {
                deps.push(dep(name, section, false, |k| sect.get(k).map(|e| &e.value)));
            }
        }
    }
    Manifest { package, rel_path: rel_path.to_string(), deps }
}

/// Classify one dependency from its fields (`field(k)` looks one up).
fn dep<'a>(name: &str, section: &str, bare: bool, field: impl Fn(&str) -> Option<&'a Value>) -> Dep {
    Dep {
        name: name.to_string(),
        section: section.to_string(),
        has_path: field("path").is_some(),
        from_workspace: field("workspace") == Some(&Value::Bool(true)),
        has_version: bare || field("version").is_some(),
    }
}

/// L1 on the root manifest: every `[workspace.dependencies]` entry must
/// be a path dependency. Returns the set of names that are path-backed,
/// for members to inherit.
pub fn check_workspace_deps(root: &[Section]) -> (Vec<Violation>, Vec<String>) {
    let mut violations = Vec::new();
    let mut path_backed = Vec::new();
    for e in table(root, "workspace.dependencies") {
        if e.value.get("path").is_some() {
            path_backed.push(e.key.clone());
        } else {
            violations.push(Violation::file(
                Rule::Hermeticity,
                "Cargo.toml",
                format!("workspace dependency `{}` is not a path dependency", e.key),
            ));
        }
    }
    (violations, path_backed)
}

/// L1 on a member: every dependency must be path-backed, directly or via
/// a path-backed workspace entry.
pub fn check_hermetic(m: &Manifest, workspace_path_deps: &[String]) -> Vec<Violation> {
    let mut v = Vec::new();
    for dep in &m.deps {
        let inherited_ok =
            dep.from_workspace && workspace_path_deps.iter().any(|n| n == &dep.name);
        if dep.has_path || inherited_ok {
            continue;
        }
        let why = if dep.from_workspace {
            "inherits a workspace entry that is not path-backed"
        } else if dep.has_version {
            "declares a registry version requirement"
        } else {
            "resolves outside the repository"
        };
        v.push(Violation::file(
            Rule::Hermeticity,
            &m.rel_path,
            format!("[{}] `{}` {}", dep.section, dep.name, why),
        ));
    }
    v
}

/// The layer DAG: package → packages it may depend on. Test and example
/// packages sit above everything and may use any crate.
pub fn layer_map() -> BTreeMap<&'static str, Vec<&'static str>> {
    const SUPPORT: &str = "lucent-support";
    const OBS: &str = "lucent-obs";
    const PACKET: &str = "lucent-packet";
    const NETSIM: &str = "lucent-netsim";
    const TCP: &str = "lucent-tcp";
    const DNS: &str = "lucent-dns";
    const WEB: &str = "lucent-web";
    const MIDDLEBOX: &str = "lucent-middlebox";
    const TOPOLOGY: &str = "lucent-topology";
    const CORE: &str = "lucent-core";
    let mut m = BTreeMap::new();
    m.insert(SUPPORT, vec![]);
    // The lint links the middlebox policy IR for L11/L12 policycheck,
    // so it sits just above the middlebox layer (transitively closed).
    m.insert("lucent-devtools", vec![SUPPORT, OBS, PACKET, NETSIM, TCP, DNS, MIDDLEBOX]);
    m.insert(OBS, vec![SUPPORT]);
    m.insert(PACKET, vec![SUPPORT]);
    m.insert(NETSIM, vec![SUPPORT, OBS, PACKET]);
    m.insert(TCP, vec![SUPPORT, OBS, PACKET, NETSIM]);
    m.insert(DNS, vec![SUPPORT, OBS, PACKET, NETSIM, TCP]);
    m.insert(WEB, vec![SUPPORT, OBS, PACKET, NETSIM, TCP, DNS]);
    m.insert(MIDDLEBOX, vec![SUPPORT, OBS, PACKET, NETSIM, TCP, DNS]);
    m.insert(TOPOLOGY, vec![SUPPORT, OBS, PACKET, NETSIM, TCP, DNS, WEB, MIDDLEBOX]);
    m.insert(CORE, vec![SUPPORT, OBS, PACKET, NETSIM, TCP, DNS, WEB, MIDDLEBOX, TOPOLOGY]);
    m.insert(
        "lucent-bench",
        vec![SUPPORT, OBS, PACKET, NETSIM, TCP, DNS, WEB, MIDDLEBOX, TOPOLOGY, CORE],
    );
    // The fuzzing/property harness sits above everything it checks —
    // lower crates consume it through dev-dependencies only. It also
    // fuzzes the lint's lexer and allowlist/manifest readers, so the
    // devtools crate is in scope for it.
    m.insert(
        "lucent-check",
        vec![
            SUPPORT,
            OBS,
            PACKET,
            NETSIM,
            TCP,
            DNS,
            WEB,
            MIDDLEBOX,
            TOPOLOGY,
            CORE,
            "lucent-bench",
            "lucent-devtools",
        ],
    );
    m
}

/// L2: check a member's `[dependencies]` against the layer DAG. Dev
/// dependencies are exempt (tests may reach up); unknown packages (the
/// integration-test and examples packages) are exempt as top-of-stack.
pub fn check_layering(m: &Manifest) -> Vec<Violation> {
    let map = layer_map();
    let Some(allowed) = map.get(m.package.as_str()) else {
        return Vec::new();
    };
    let mut v = Vec::new();
    for dep in &m.deps {
        if dep.section != "dependencies" || !dep.name.starts_with("lucent-") {
            continue;
        }
        if !allowed.contains(&dep.name.as_str()) {
            v.push(Violation::file(
                Rule::Layering,
                &m.rel_path,
                format!(
                    "`{}` may not depend on `{}` (allowed: {})",
                    m.package,
                    dep.name,
                    if allowed.is_empty() { "nothing".to_string() } else { allowed.join(", ") }
                ),
            ));
        }
    }
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use lucent_support::toml;

    fn manifest(text: &str) -> Manifest {
        extract(&toml::parse(text).expect("toml"), "crates/x/Cargo.toml")
    }

    #[test]
    fn registry_version_dep_violates_l1() {
        let m = manifest("[package]\nname = \"lucent-x\"\n[dependencies]\nserde = \"1.0\"\n");
        let v = check_hermetic(&m, &[]);
        assert_eq!(v.len(), 1);
        assert!(v[0].msg.contains("registry version"), "{}", v[0].msg);
    }

    #[test]
    fn inline_version_table_violates_l1() {
        let m = manifest(
            "[package]\nname = \"lucent-x\"\n[dependencies]\nrand = { version = \"0.8\", default-features = false }\n",
        );
        assert_eq!(check_hermetic(&m, &[]).len(), 1);
    }

    #[test]
    fn path_and_workspace_path_deps_pass_l1() {
        let m = manifest(
            "[package]\nname = \"lucent-x\"\n[dependencies]\na = { path = \"../a\" }\nlucent-support = { workspace = true }\n",
        );
        let ws = vec!["lucent-support".to_string()];
        assert!(check_hermetic(&m, &ws).is_empty());
    }

    #[test]
    fn workspace_inheritance_without_path_backing_violates_l1() {
        let m = manifest(
            "[package]\nname = \"lucent-x\"\n[dependencies]\nserde = { workspace = true }\n",
        );
        let ws = vec!["lucent-support".to_string()];
        let v = check_hermetic(&m, &ws);
        assert_eq!(v.len(), 1);
        assert!(v[0].msg.contains("not path-backed"), "{}", v[0].msg);
    }

    #[test]
    fn dotted_dependency_tables_are_seen() {
        let m = manifest(
            "[package]\nname = \"lucent-web\"\n[dependencies.lucent-dns]\nworkspace = true\n",
        );
        assert_eq!(m.deps.len(), 1);
        assert!(m.deps[0].from_workspace);
    }

    #[test]
    fn upward_layer_edge_violates_l2() {
        let m = manifest(
            "[package]\nname = \"lucent-packet\"\n[dependencies]\nlucent-core = { workspace = true }\n",
        );
        let v = check_layering(&m);
        assert_eq!(v.len(), 1);
        assert!(v[0].msg.contains("may not depend"), "{}", v[0].msg);
    }

    #[test]
    fn sibling_layer_edge_violates_l2() {
        let m = manifest(
            "[package]\nname = \"lucent-middlebox\"\n[dependencies]\nlucent-web = { workspace = true }\n",
        );
        assert_eq!(check_layering(&m).len(), 1);
    }

    #[test]
    fn dev_dependencies_may_reach_up() {
        let m = manifest(
            "[package]\nname = \"lucent-packet\"\n[dev-dependencies]\nlucent-core = { workspace = true }\n",
        );
        assert!(check_layering(&m).is_empty());
    }

    #[test]
    fn the_dag_is_acyclic_and_transitively_closed() {
        let map = layer_map();
        for (pkg, allowed) in &map {
            for dep in allowed {
                assert!(!map[dep].contains(pkg), "cycle {pkg} <-> {dep}");
                for transitive in &map[dep] {
                    assert!(
                        allowed.contains(transitive),
                        "{pkg} allows {dep} but not its dep {transitive}"
                    );
                }
            }
        }
    }
}
