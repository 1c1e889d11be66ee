//! A line-pinned reader for the workspace's TOML subset — the one
//! grammar behind the censor-policy programs and the workspace's
//! `Cargo.toml` manifests.
//!
//! The dialect is line-oriented: `[section]` and `[[array]]` headers,
//! `key = value` lines, and `#` comments outside strings. Values are
//! strings (no escapes), integers, floats (with a `.`), booleans, flat
//! or nested lists, and inline tables. Multi-line values, escapes and
//! trailing commas are errors.
//!
//! Every structural error is raised here, once, with its 1-based line:
//! a malformed header, a duplicate `[section]`, a line that is not
//! `key = value`, a bad value, a key before any header, and a duplicate
//! key within one section. Which sections and keys a file may hold is
//! the consumer's business; a [`Dialect`] lets it veto headers and key
//! shapes as the reader meets them, so the first error in file order
//! wins whichever side raises it.

use std::fmt;

/// A parsed value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `"text"` — no escapes, no embedded quotes.
    Str(String),
    /// A signed integer.
    Int(i64),
    /// A finite float literal containing a `.`.
    Float(f64),
    /// `true` / `false`.
    Bool(bool),
    /// `[a, b, …]`.
    List(Vec<Value>),
    /// `{ k = v, … }`, pairs in source order; keys are kept verbatim.
    Table(Vec<(String, Value)>),
}

impl Value {
    /// The value's kind with an article, for error messages.
    pub fn kind(&self) -> &'static str {
        match self {
            Value::Str(_) => "a string",
            Value::Int(_) => "an integer",
            Value::Float(_) => "a float",
            Value::Bool(_) => "a boolean",
            Value::List(_) => "a list",
            Value::Table(_) => "an inline table",
        }
    }

    /// The string, if this is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value under `key`, if this is an inline table holding it.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Table(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }
}

/// One `key = value` line. Quoted keys are stored without their quotes.
#[derive(Debug, Clone, PartialEq)]
pub struct Entry {
    /// The key.
    pub key: String,
    /// The value.
    pub value: Value,
    /// 1-based source line.
    pub line: usize,
}

/// One `[name]` or `[[name]]` block and the entries under it.
#[derive(Debug, Clone, PartialEq)]
pub struct Section {
    /// The header's name, trimmed; dotted names are kept verbatim.
    pub name: String,
    /// 1-based line of the header.
    pub line: usize,
    /// Opened by an `[[array]]` header.
    pub array: bool,
    /// Entries in source order; keys are unique within a section.
    pub entries: Vec<Entry>,
}

impl Section {
    /// The entry under `key`.
    pub fn get(&self, key: &str) -> Option<&Entry> {
        self.entries.iter().find(|e| e.key == key)
    }
}

/// A read failure at a 1-based line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Error {
    /// 1-based source line.
    pub line: usize,
    /// Human-readable description.
    pub msg: String,
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.msg)
    }
}

/// A consumer's vocabulary, consulted as each line is read. The
/// defaults accept every header and every key the grammar admits.
pub trait Dialect {
    /// Accept a header, or reject it with a message.
    fn header(&self, _name: &str, _array: bool) -> Result<(), String> {
        Ok(())
    }

    /// Accept a key as written (quotes included); a rejected key is
    /// reported as a line that is not `key = value`.
    fn key(&self, _raw: &str) -> bool {
        true
    }
}

/// The dialect that admits everything the grammar does.
struct Any;

impl Dialect for Any {}

/// Read `text` into sections in file order.
pub fn parse(text: &str) -> Result<Vec<Section>, Error> {
    parse_in(text, &Any)
}

/// Read `text` into sections in file order, vetting headers and keys
/// against `dialect` as they are met.
pub fn parse_in(text: &str, dialect: &impl Dialect) -> Result<Vec<Section>, Error> {
    let mut sects: Vec<Section> = Vec::new();
    for (i, raw) in text.lines().enumerate() {
        let line = i + 1;
        let err = |msg: String| Error { line, msg };
        let body = strip_comment(raw).trim();
        if body.is_empty() {
            continue;
        }
        if let Some(rest) = body.strip_prefix('[') {
            let (name, array) = match rest.strip_prefix('[') {
                Some(inner) => (inner.strip_suffix("]]"), true),
                None => (rest.strip_suffix(']'), false),
            };
            let Some(name) = name.map(str::trim) else {
                return Err(err(format!("malformed section header `{body}`")));
            };
            dialect.header(name, array).map_err(err)?;
            if !array && sects.iter().any(|s| s.name == name) {
                return Err(err(format!("duplicate section [{name}]")));
            }
            sects.push(Section { name: name.to_string(), line, array, entries: Vec::new() });
            continue;
        }
        let syntax = || err("expected `key = value`".to_string());
        let (raw_key, val) = body.split_once('=').ok_or_else(syntax)?;
        let raw_key = raw_key.trim();
        let key = match raw_key.strip_prefix('"').and_then(|k| k.strip_suffix('"')) {
            Some(k) if !k.contains(['"', '\\']) => k,
            Some(_) => return Err(syntax()),
            None if !raw_key.is_empty()
                && raw_key.chars().all(|c| c.is_ascii_alphanumeric() || "_-.".contains(c)) =>
            {
                raw_key
            }
            None => return Err(syntax()),
        };
        if !dialect.key(raw_key) {
            return Err(syntax());
        }
        let value = value(val, line)?;
        let Some(sect) = sects.last_mut() else {
            return Err(err(format!("`{key}` before any section header")));
        };
        if sect.get(key).is_some() {
            return Err(err(format!("duplicate key `{key}`")));
        }
        sect.entries.push(Entry { key: key.to_string(), value, line });
    }
    Ok(sects)
}

/// Cut a `#` comment, respecting string literals.
fn strip_comment(line: &str) -> &str {
    let mut in_str = false;
    for (i, c) in line.char_indices() {
        match c {
            '"' => in_str = !in_str,
            '#' if !in_str => return &line[..i],
            _ => {}
        }
    }
    line
}

/// Split at top level on `sep`, ignoring separators inside strings,
/// lists and inline tables.
fn split_top(s: &str, sep: char) -> Vec<&str> {
    let mut parts = Vec::new();
    let mut depth = 0i32;
    let mut in_str = false;
    let mut start = 0;
    for (i, c) in s.char_indices() {
        match c {
            '"' => in_str = !in_str,
            '[' | '{' if !in_str => depth += 1,
            ']' | '}' if !in_str => depth -= 1,
            c if c == sep && !in_str && depth == 0 => {
                parts.push(&s[start..i]);
                start = i + c.len_utf8();
            }
            _ => {}
        }
    }
    parts.push(&s[start..]);
    parts
}

/// Parse one scalar, list, or inline-table value.
fn value(s: &str, line: usize) -> Result<Value, Error> {
    let s = s.trim();
    let err = |msg: String| Err(Error { line, msg });
    let malformed = || err(format!("malformed value `{s}`"));
    if let Some(rest) = s.strip_prefix('"') {
        let Some(body) = rest.strip_suffix('"').filter(|b| !b.contains('"')) else {
            return err("unterminated string".to_string());
        };
        if body.contains('\\') {
            return err("strings with escapes are not supported".to_string());
        }
        return Ok(Value::Str(body.to_string()));
    }
    if s == "true" || s == "false" {
        return Ok(Value::Bool(s == "true"));
    }
    if let Some(rest) = s.strip_prefix('[') {
        let Some(body) = rest.strip_suffix(']') else { return malformed() };
        let mut items = Vec::new();
        if !body.trim().is_empty() {
            for part in split_top(body, ',') {
                items.push(value(part, line)?);
            }
        }
        return Ok(Value::List(items));
    }
    if let Some(rest) = s.strip_prefix('{') {
        let Some(body) = rest.strip_suffix('}') else { return malformed() };
        let mut pairs = Vec::new();
        if !body.trim().is_empty() {
            for part in split_top(body, ',') {
                let Some((k, v)) = part.split_once('=') else { return malformed() };
                pairs.push((k.trim().to_string(), value(v, line)?));
            }
        }
        return Ok(Value::Table(pairs));
    }
    if let Ok(n) = s.parse::<i64>() {
        return Ok(Value::Int(n));
    }
    match s.parse::<f64>() {
        Ok(x) if s.contains('.') && x.is_finite() => Ok(Value::Float(x)),
        _ => malformed(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn section<'a>(doc: &'a [Section], name: &str) -> &'a Section {
        doc.iter().find(|s| s.name == name).expect("section present")
    }

    #[test]
    fn parses_a_manifest_shape() {
        let doc = parse(
            r#"
[package]
name = "lucent-web" # trailing comment
edition.workspace = true

[dependencies]
lucent-packet = { workspace = true }
lucent-netsim = { path = "../netsim" }

[dependencies.lucent-dns]
workspace = true
"#,
        )
        .expect("parse");
        let package = section(&doc, "package");
        assert_eq!(package.line, 2);
        assert_eq!(package.get("name").map(|e| &e.value), Some(&Value::Str("lucent-web".into())));
        assert_eq!(package.get("edition.workspace").map(|e| e.line), Some(4));
        let dep = &section(&doc, "dependencies").get("lucent-packet").expect("dep").value;
        assert_eq!(dep.get("workspace"), Some(&Value::Bool(true)));
        let dotted = section(&doc, "dependencies.lucent-dns");
        assert_eq!(dotted.get("workspace").map(|e| &e.value), Some(&Value::Bool(true)));
    }

    #[test]
    fn parses_allowlist_shapes() {
        let doc = parse(
            r#"
[policy_anomaly]
"crates/x/policies/p.toml" = 12

[rng_construction]
files = ["crates/netsim/src/time.rs", "crates/web/src/corpus.rs"]
"#,
        )
        .expect("parse");
        let ceiling = section(&doc, "policy_anomaly").get("crates/x/policies/p.toml");
        assert_eq!(ceiling.map(|e| (&e.value, e.line)), Some((&Value::Int(12), 3)));
        let files = &section(&doc, "rng_construction").get("files").expect("files").value;
        assert!(matches!(files, Value::List(items) if items.len() == 2), "{files:?}");
    }

    #[test]
    fn array_of_tables_gets_distinct_sections() {
        let doc = parse("[[test]]\nname = \"a\"\n[[test]]\nname = \"b\"\n").expect("parse");
        let tests: Vec<_> = doc.iter().map(|s| (s.name.as_str(), s.line, s.array)).collect();
        assert_eq!(tests, [("test", 1, true), ("test", 3, true)]);
        assert_eq!(doc[1].get("name").map(|e| &e.value), Some(&Value::Str("b".into())));
    }

    #[test]
    fn bad_lines_are_rejected_with_line_numbers() {
        let bad = |text: &str| parse(text).expect_err(text).to_string();
        assert_eq!(bad("[a]\nnot a kv\n"), "line 2: expected `key = value`");
        assert_eq!(bad("[a]\nk = [\"x\",]\n"), "line 2: malformed value ``");
        assert_eq!(bad("[a]\nk = 1\n\n[a]\n"), "line 4: duplicate section [a]");
        assert_eq!(bad("[a]\nk = 1\nk = 2\n"), "line 3: duplicate key `k`");
        assert_eq!(bad("[a]\n\"k\" = 1\n\"k\" = 2\n"), "line 3: duplicate key `k`");
        assert_eq!(bad("k = 1\n[a]\n"), "line 1: `k` before any section header");
        assert_eq!(bad("[a\n"), "line 1: malformed section header `[a`");
        let doc = parse("[a]\nk = 1.5\n").expect("floats are in the grammar");
        assert_eq!(doc[0].entries[0].value, Value::Float(1.5));
    }

    #[test]
    fn a_dialect_vetoes_headers_and_keys_in_file_order() {
        struct Strict;
        impl Dialect for Strict {
            fn header(&self, name: &str, _array: bool) -> Result<(), String> {
                if name == "ok" { Ok(()) } else { Err(format!("unknown section [{name}]")) }
            }
            fn key(&self, raw: &str) -> bool {
                raw.chars().all(|c| c.is_ascii_alphanumeric() || c == '_')
            }
        }
        let bad = |text: &str| parse_in(text, &Strict).expect_err(text).to_string();
        // The veto on line 1 beats the unterminated string on line 3.
        assert_eq!(bad("[nope]\n[ok]\nk = \"x\n"), "line 1: unknown section [nope]");
        // A vetoed key beats a bad value on the same line.
        assert_eq!(bad("[ok]\nk-1 = \"x\n"), "line 2: expected `key = value`");
        assert!(parse("[nope]\nk-1 = 1\n").is_ok(), "the default dialect admits both");
    }
}
