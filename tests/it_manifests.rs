//! The workspace's manifests, read with `lucent_support::toml`:
//!
//! - every dependency is a path inside the repository, directly or
//!   through a path-backed `[workspace.dependencies]` entry, so the
//!   workspace builds with the network unplugged;
//! - a crate's `[dependencies]` name only crates in strictly lower
//!   layers of [`LAYERS`] (dev-dependencies may reach up);
//! - every crate inherits the workspace lints, which the clippy gate
//!   (`it_clippy.rs`) enforces, and the test and example packages
//!   forbid `unsafe` themselves.

use std::path::Path;

use lucent_support::toml::{self, Section, Value};

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
const BENCH: &str = "lucent-bench";

/// The layer DAG, package → the workspace crates it may depend on:
///
/// ```text
/// support → {obs, packet} → netsim → tcp → dns → {web, middlebox}
///         → topology → core → bench → check
/// ```
///
/// `dns` sits above `tcp` because resolvers are transport apps hosted on
/// a `TcpHost`; `middlebox` needs neither `web` nor `topology`. The
/// property harness `lucent-check` sits above everything it checks;
/// lower crates reach it through dev-dependencies only. Adding an edge
/// means editing this table, in review.
const LAYERS: &[(&str, &[&str])] = &[
    (SUPPORT, &[]),
    (OBS, &[SUPPORT]),
    (PACKET, &[SUPPORT]),
    (NETSIM, &[SUPPORT, OBS, PACKET]),
    (TCP, &[SUPPORT, OBS, PACKET, NETSIM]),
    (DNS, &[SUPPORT, OBS, PACKET, NETSIM, TCP]),
    (WEB, &[SUPPORT, OBS, PACKET, NETSIM, TCP, DNS]),
    (MIDDLEBOX, &[SUPPORT, OBS, PACKET, NETSIM, TCP, DNS]),
    (TOPOLOGY, &[SUPPORT, OBS, PACKET, NETSIM, TCP, DNS, WEB, MIDDLEBOX]),
    (CORE, &[SUPPORT, OBS, PACKET, NETSIM, TCP, DNS, WEB, MIDDLEBOX, TOPOLOGY]),
    (BENCH, &[SUPPORT, OBS, PACKET, NETSIM, TCP, DNS, WEB, MIDDLEBOX, TOPOLOGY, CORE]),
    ("lucent-check", &[SUPPORT, OBS, PACKET, NETSIM, TCP, DNS, WEB, MIDDLEBOX, TOPOLOGY, CORE, BENCH]),
];

fn allowed(package: &str) -> Option<&'static [&'static str]> {
    LAYERS.iter().find(|(p, _)| *p == package).map(|&(_, deps)| deps)
}

fn workspace_root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR")).parent().expect("workspace root")
}

fn read(rel: &str) -> Vec<Section> {
    let text = std::fs::read_to_string(workspace_root().join(rel)).expect("read manifest");
    toml::parse(&text).unwrap_or_else(|e| panic!("{rel}: {e}"))
}

/// The entries of the `[name]` table, or none when it is absent.
fn table<'a>(doc: &'a [Section], name: &'a str) -> impl Iterator<Item = (&'a str, &'a Value)> {
    let sections = doc.iter().filter(move |s| !s.array && s.name == name);
    sections.flat_map(|s| &s.entries).map(|e| (e.key.as_str(), &e.value))
}

/// One dependency declaration; a bare `foo = "1.0"` has the one field
/// `version`.
struct Dep {
    section: &'static str,
    name: String,
    fields: Vec<(String, Value)>,
}

impl Dep {
    fn field(&self, key: &str) -> Option<&Value> {
        self.fields.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }
}

/// Every dependency of a member manifest, in both the inline
/// (`foo = { … }`) and dotted (`[dependencies.foo]`) forms.
fn deps(doc: &[Section]) -> Vec<Dep> {
    let mut out = Vec::new();
    for section in ["dependencies", "dev-dependencies", "build-dependencies"] {
        for (name, value) in table(doc, section) {
            let fields = match value {
                Value::Table(pairs) => pairs.clone(),
                bare => vec![("version".to_string(), bare.clone())],
            };
            out.push(Dep { section, name: name.to_string(), fields });
        }
        let prefix = format!("{section}.");
        for s in doc {
            if let Some(name) = s.name.strip_prefix(&prefix) {
                let fields = s.entries.iter().map(|e| (e.key.clone(), e.value.clone())).collect();
                out.push(Dep { section, name: name.to_string(), fields });
            }
        }
    }
    out
}

/// The manifest rules over one member, given the path-backed workspace
/// dependencies; one message per finding.
fn findings(rel: &str, doc: &[Section], path_backed: &[String]) -> Vec<String> {
    let package = table(doc, "package").find(|(k, _)| *k == "name").and_then(|(_, v)| v.as_str());
    let package = package.unwrap_or("<unnamed>");
    let mut out = Vec::new();
    for dep in deps(doc) {
        let (section, name) = (dep.section, &dep.name);
        let inherited = dep.field("workspace") == Some(&Value::Bool(true)) && path_backed.contains(name);
        if dep.field("path").is_none() && !inherited {
            out.push(format!("{rel}: [{section}] `{name}` is not a path dependency"));
        }
        let upward = allowed(package).is_some_and(|ok| !ok.contains(&name.as_str()));
        if section == "dependencies" && name.starts_with("lucent-") && upward {
            out.push(format!("{rel}: `{package}` may not depend on `{name}`"));
        }
    }
    out
}

/// Member manifests: every `crates/*/Cargo.toml`, then `tests` and
/// `examples`.
fn members() -> Vec<String> {
    let mut crates: Vec<String> = std::fs::read_dir(workspace_root().join("crates"))
        .expect("read crates/")
        .map(|e| e.expect("dir entry").file_name().to_string_lossy().into_owned())
        .filter(|name| workspace_root().join("crates").join(name).join("Cargo.toml").is_file())
        .map(|name| format!("crates/{name}/Cargo.toml"))
        .collect();
    crates.sort();
    crates.extend(["tests/Cargo.toml".to_string(), "examples/Cargo.toml".to_string()]);
    crates
}

#[test]
fn every_dependency_is_a_path_and_respects_the_layers() {
    let root = read("Cargo.toml");
    let mut path_backed = Vec::new();
    let mut bad = Vec::new();
    for (name, value) in table(&root, "workspace.dependencies") {
        match value.get("path") {
            Some(_) => path_backed.push(name.to_string()),
            None => bad.push(format!("Cargo.toml: workspace dependency `{name}` is not a path dependency")),
        }
    }
    for rel in members() {
        bad.extend(findings(&rel, &read(&rel), &path_backed));
    }
    assert!(bad.is_empty(), "{}", bad.join("\n"));
}

#[test]
fn every_crate_is_layered_and_linted() {
    for rel in members() {
        let doc = read(&rel);
        let name = table(&doc, "package").find(|(k, _)| *k == "name").and_then(|(_, v)| v.as_str());
        let name = name.unwrap_or_else(|| panic!("{rel}: no package name"));
        let lints: Vec<_> = table(&doc, "lints").collect();
        if rel.starts_with("crates/") {
            assert!(allowed(name).is_some(), "{rel}: `{name}` is missing from LAYERS");
            assert_eq!(lints, [("workspace", &Value::Bool(true))], "{rel} must inherit the workspace lints");
        } else {
            let unsafe_code: Vec<_> = table(&doc, "lints.rust").collect();
            assert_eq!(unsafe_code, [("unsafe_code", &Value::Str("forbid".into()))], "{rel}");
        }
    }
}

#[test]
fn each_bad_dependency_is_a_finding() {
    let packet = "[package]\nname = \"lucent-packet\"\n[dependencies]\nserde = \"1.0\"\n\
                  tokio = { version = \"1\", default-features = false }\nlocal = { path = \"../local\" }\n\
                  lucent-support = { workspace = true }\nlucent-core = { workspace = true }\n\
                  rand = { workspace = true }\n[dev-dependencies]\nlucent-check = { workspace = true }\n\
                  [dependencies.libc]\nversion = \"0.2\"\n";
    let middlebox =
        "[package]\nname = \"lucent-middlebox\"\n[dependencies]\nlucent-web = { workspace = true }\n";
    let ws = ["lucent-core", "lucent-support", "lucent-check", "lucent-web"].map(String::from);
    let found = |text: &str| findings("x", &toml::parse(text).expect("parse"), &ws);
    assert_eq!(
        found(packet),
        [
            "x: [dependencies] `serde` is not a path dependency",
            "x: [dependencies] `tokio` is not a path dependency",
            "x: `lucent-packet` may not depend on `lucent-core`",
            "x: [dependencies] `rand` is not a path dependency",
            "x: [dependencies] `libc` is not a path dependency",
        ]
    );
    assert_eq!(found(middlebox), ["x: `lucent-middlebox` may not depend on `lucent-web`"]);
}

#[test]
fn the_layers_are_acyclic_and_transitively_closed() {
    for &(package, deps) in LAYERS {
        for dep in deps {
            let below = allowed(dep).unwrap_or_else(|| panic!("{package} allows unknown {dep}"));
            assert!(!below.contains(&package), "cycle {package} <-> {dep}");
            for transitive in below {
                assert!(deps.contains(transitive), "{package} allows {dep} but not its dep {transitive}");
            }
        }
    }
}
