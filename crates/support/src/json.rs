//! A small, deterministic JSON tree, writer, and parser.
//!
//! Replaces `serde`/`serde_json` for the result files this workspace
//! emits. Object members keep insertion order (struct declaration
//! order), so the same data always serializes to the same bytes — the
//! property the Figure 4 determinism check in `tests/` relies on.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::net::Ipv4Addr;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// A signed integer (also covers all unsigned values ≤ `i64::MAX`).
    Int(i64),
    /// An unsigned integer above `i64::MAX`.
    UInt(u64),
    /// A finite float (non-finite values serialize as `null`).
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; members keep insertion order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Serialize compactly (no whitespace).
    #[allow(clippy::inherent_to_string)] // not Display: tree types serialize explicitly
    pub fn to_string(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None, 0);
        out
    }

    /// Serialize with two-space indentation.
    pub fn to_string_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(2), 0);
        out
    }

    /// Look up a member of an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as an `f64` if it is any numeric variant.
    pub fn as_f64(&self) -> Option<f64> {
        match *self {
            Json::Int(v) => Some(v as f64),
            Json::UInt(v) => Some(v as f64),
            Json::Float(v) => Some(v),
            _ => None,
        }
    }

    /// The value as an `i64` if integral.
    pub fn as_i64(&self) -> Option<i64> {
        match *self {
            Json::Int(v) => Some(v),
            _ => None,
        }
    }

    /// The value as a string slice.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array slice.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// Every value that differs between `self` (the old document) and
    /// `new`, in document order, one line each: `path: old → new`, with
    /// a jq-style path (`.scans[0].inside.paths[5].tried`, `.` for the
    /// root). A member or element present on one side only shows as
    /// `absent` on the other; an array or object on one side only is
    /// shown by its size.
    pub fn moves(&self, new: &Json) -> Vec<String> {
        let mut out = Vec::new();
        self.moves_into(new, &mut String::new(), &mut out);
        out
    }

    fn moves_into(&self, new: &Json, path: &mut String, out: &mut Vec<String>) {
        let len = path.len();
        match (self, new) {
            (Json::Obj(old), Json::Obj(new)) => {
                for (key, value) in old {
                    let _ = write!(path, ".{key}");
                    let other = new.iter().find(|(k, _)| k == key).map(|(_, v)| v);
                    Json::moved(Some(value), other, path, out);
                    path.truncate(len);
                }
                for (key, value) in new.iter().filter(|(k, _)| !old.iter().any(|(o, _)| o == k)) {
                    let _ = write!(path, ".{key}");
                    Json::moved(None, Some(value), path, out);
                    path.truncate(len);
                }
            }
            (Json::Arr(old), Json::Arr(new)) => {
                let root = if len == 0 { "." } else { "" };
                for i in 0..old.len().max(new.len()) {
                    let _ = write!(path, "{root}[{i}]");
                    Json::moved(old.get(i), new.get(i), path, out);
                    path.truncate(len);
                }
            }
            (old, new) if old != new => {
                let at = if path.is_empty() { "." } else { path.as_str() };
                out.push(format!("{at}: {} → {}", old.brief(), new.brief()));
            }
            _ => {}
        }
    }

    /// Compare the values at `path` on each side, either of which may
    /// be absent.
    fn moved(old: Option<&Json>, new: Option<&Json>, path: &mut String, out: &mut Vec<String>) {
        match (old, new) {
            (Some(old), Some(new)) => old.moves_into(new, path, out),
            (Some(old), None) => out.push(format!("{path}: {} → absent", old.brief())),
            (None, Some(new)) => out.push(format!("{path}: absent → {}", new.brief())),
            (None, None) => {}
        }
    }

    /// A scalar as JSON; an array or object by its size.
    fn brief(&self) -> String {
        match self {
            Json::Arr(items) => format!("[{} items]", items.len()),
            Json::Obj(members) => format!("{{{} members}}", members.len()),
            scalar => scalar.to_string(),
        }
    }

    fn write(&self, out: &mut String, indent: Option<usize>, depth: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Int(v) => {
                let _ = write!(out, "{v}");
            }
            Json::UInt(v) => {
                let _ = write!(out, "{v}");
            }
            Json::Float(v) => {
                if v.is_finite() {
                    // `{:?}` always keeps a decimal point or exponent
                    // ("1.0", not "1"), so floats stay floats on re-parse.
                    let _ = write!(out, "{v:?}");
                } else {
                    out.push_str("null");
                }
            }
            Json::Str(s) => write_escaped(out, s),
            Json::Arr(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline_indent(out, indent, depth + 1);
                    item.write(out, indent, depth + 1);
                }
                newline_indent(out, indent, depth);
                out.push(']');
            }
            Json::Obj(members) => {
                if members.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (key, value)) in members.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline_indent(out, indent, depth + 1);
                    write_escaped(out, key);
                    out.push(':');
                    if indent.is_some() {
                        out.push(' ');
                    }
                    value.write(out, indent, depth + 1);
                }
                newline_indent(out, indent, depth);
                out.push('}');
            }
        }
    }

    /// Parse a JSON document (must consume all non-whitespace input).
    pub fn parse(input: &str) -> Result<Json, JsonError> {
        let mut p = Parser { bytes: input.as_bytes(), pos: 0 };
        p.skip_ws();
        let value = p.value(0)?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing characters"));
        }
        Ok(value)
    }
}

fn newline_indent(out: &mut String, indent: Option<usize>, depth: usize) {
    if let Some(width) = indent {
        out.push('\n');
        for _ in 0..width * depth {
            out.push(' ');
        }
    }
}

fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// A parse failure with a byte offset.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset of the failure.
    pub offset: usize,
    /// What went wrong.
    pub message: &'static str,
}

impl std::fmt::Display for JsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "json error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for JsonError {}

const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, message: &'static str) -> JsonError {
        JsonError { offset: self.pos, message }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err("unexpected character"))
        }
    }

    fn literal(&mut self, lit: &str, value: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(value)
        } else {
            Err(self.err("invalid literal"))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, JsonError> {
        if depth > MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'[') => {
                self.pos += 1;
                let mut items = Vec::new();
                self.skip_ws();
                if self.peek() == Some(b']') {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                loop {
                    self.skip_ws();
                    items.push(self.value(depth + 1)?);
                    self.skip_ws();
                    match self.peek() {
                        Some(b',') => self.pos += 1,
                        Some(b']') => {
                            self.pos += 1;
                            return Ok(Json::Arr(items));
                        }
                        _ => return Err(self.err("expected ',' or ']'")),
                    }
                }
            }
            Some(b'{') => {
                self.pos += 1;
                let mut members = Vec::new();
                self.skip_ws();
                if self.peek() == Some(b'}') {
                    self.pos += 1;
                    return Ok(Json::Obj(members));
                }
                loop {
                    self.skip_ws();
                    let key = self.string()?;
                    self.skip_ws();
                    self.expect(b':')?;
                    self.skip_ws();
                    let value = self.value(depth + 1)?;
                    members.push((key, value));
                    self.skip_ws();
                    match self.peek() {
                        Some(b',') => self.pos += 1,
                        Some(b'}') => {
                            self.pos += 1;
                            return Ok(Json::Obj(members));
                        }
                        _ => return Err(self.err("expected ',' or '}'")),
                    }
                }
            }
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.err("expected a value")),
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            if self.pos + 4 >= self.bytes.len() {
                                return Err(self.err("truncated \\u escape"));
                            }
                            let hex = &self.bytes[self.pos + 1..self.pos + 5];
                            let hex = std::str::from_utf8(hex)
                                .map_err(|_| self.err("bad \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.err("bad \\u escape"))?;
                            // Surrogates are not combined; emit the
                            // replacement character (no emitter here
                            // produces surrogate pairs).
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        _ => return Err(self.err("bad escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 scalar.
                    let rest = &self.bytes[self.pos..];
                    let s = std::str::from_utf8(rest).map_err(|_| self.err("invalid utf-8"))?;
                    let c = s.chars().next().ok_or_else(|| self.err("unterminated string"))?;
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut float = false;
        while let Some(b) = self.peek() {
            match b {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("bad number"))?;
        if float {
            text.parse::<f64>().map(Json::Float).map_err(|_| self.err("bad number"))
        } else if let Ok(v) = text.parse::<i64>() {
            Ok(Json::Int(v))
        } else if let Ok(v) = text.parse::<u64>() {
            Ok(Json::UInt(v))
        } else {
            text.parse::<f64>().map(Json::Float).map_err(|_| self.err("bad number"))
        }
    }
}

/// Conversion into a [`Json`] tree; the workspace's `serde::Serialize`.
///
/// Struct impls are generated by [`crate::json_object!`]; unit-variant
/// enums by [`crate::json_enum!`]; anything irregular is written by hand.
pub trait ToJson {
    /// Build the JSON tree for this value.
    fn to_json(&self) -> Json;
}

/// Serialize any [`ToJson`] value compactly.
pub fn to_string<T: ToJson + ?Sized>(value: &T) -> String {
    value.to_json().to_string()
}

/// Serialize any [`ToJson`] value with two-space indentation.
pub fn to_string_pretty<T: ToJson + ?Sized>(value: &T) -> String {
    value.to_json().to_string_pretty()
}

impl ToJson for Json {
    fn to_json(&self) -> Json {
        self.clone()
    }
}

impl ToJson for bool {
    fn to_json(&self) -> Json {
        Json::Bool(*self)
    }
}

macro_rules! to_json_signed {
    ($($t:ty),*) => {$(
        impl ToJson for $t {
            fn to_json(&self) -> Json {
                Json::Int(*self as i64)
            }
        }
    )*};
}
to_json_signed!(i8, i16, i32, i64, isize);

macro_rules! to_json_unsigned {
    ($($t:ty),*) => {$(
        impl ToJson for $t {
            fn to_json(&self) -> Json {
                let v = *self as u64;
                if v <= i64::MAX as u64 {
                    Json::Int(v as i64)
                } else {
                    Json::UInt(v)
                }
            }
        }
    )*};
}
to_json_unsigned!(u8, u16, u32, u64, usize);

impl ToJson for f64 {
    fn to_json(&self) -> Json {
        Json::Float(*self)
    }
}

impl ToJson for f32 {
    fn to_json(&self) -> Json {
        Json::Float(f64::from(*self))
    }
}

impl ToJson for str {
    fn to_json(&self) -> Json {
        Json::Str(self.to_string())
    }
}

impl ToJson for String {
    fn to_json(&self) -> Json {
        Json::Str(self.clone())
    }
}

impl ToJson for Ipv4Addr {
    fn to_json(&self) -> Json {
        Json::Str(self.to_string())
    }
}

impl<T: ToJson> ToJson for Option<T> {
    fn to_json(&self) -> Json {
        match self {
            Some(v) => v.to_json(),
            None => Json::Null,
        }
    }
}

impl<T: ToJson> ToJson for Vec<T> {
    fn to_json(&self) -> Json {
        Json::Arr(self.iter().map(ToJson::to_json).collect())
    }
}

impl<T: ToJson> ToJson for [T] {
    fn to_json(&self) -> Json {
        Json::Arr(self.iter().map(ToJson::to_json).collect())
    }
}

impl<T: ToJson + ?Sized> ToJson for &T {
    fn to_json(&self) -> Json {
        (**self).to_json()
    }
}

impl<A: ToJson, B: ToJson> ToJson for (A, B) {
    fn to_json(&self) -> Json {
        Json::Arr(vec![self.0.to_json(), self.1.to_json()])
    }
}

impl<A: ToJson, B: ToJson, C: ToJson> ToJson for (A, B, C) {
    fn to_json(&self) -> Json {
        Json::Arr(vec![self.0.to_json(), self.1.to_json(), self.2.to_json()])
    }
}

impl<K: std::fmt::Display, V: ToJson> ToJson for BTreeMap<K, V> {
    fn to_json(&self) -> Json {
        Json::Obj(self.iter().map(|(k, v)| (k.to_string(), v.to_json())).collect())
    }
}

/// Implement [`ToJson`] for a struct, serializing the listed fields in
/// order under their own names — the moral equivalent of
/// `#[derive(Serialize)]`.
#[macro_export]
macro_rules! json_object {
    ($ty:ty { $($field:ident),* $(,)? }) => {
        impl $crate::json::ToJson for $ty {
            fn to_json(&self) -> $crate::json::Json {
                $crate::json::Json::Obj(vec![
                    $((stringify!($field).to_string(), $crate::json::ToJson::to_json(&self.$field))),*
                ])
            }
        }
    };
}

/// Implement [`ToJson`] for an enum of unit variants, serializing each
/// as its name string (serde's externally-tagged default).
#[macro_export]
macro_rules! json_enum {
    ($ty:ty { $($variant:ident),* $(,)? }) => {
        impl $crate::json::ToJson for $ty {
            fn to_json(&self) -> $crate::json::Json {
                match self {
                    $(<$ty>::$variant => $crate::json::Json::Str(stringify!($variant).to_string())),*
                }
            }
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writer_is_deterministic_and_ordered() {
        let v = Json::Obj(vec![
            ("zeta".into(), Json::Int(1)),
            ("alpha".into(), Json::Arr(vec![Json::Bool(true), Json::Null])),
        ]);
        assert_eq!(v.to_string(), r#"{"zeta":1,"alpha":[true,null]}"#);
        assert_eq!(v.to_string(), v.clone().to_string());
    }

    #[test]
    fn pretty_format_shape() {
        let v = Json::Obj(vec![("a".into(), Json::Arr(vec![Json::Int(1), Json::Int(2)]))]);
        assert_eq!(v.to_string_pretty(), "{\n  \"a\": [\n    1,\n    2\n  ]\n}");
    }

    #[test]
    fn floats_keep_a_decimal_point() {
        assert_eq!(Json::Float(1.0).to_string(), "1.0");
        assert_eq!(Json::Float(0.25).to_string(), "0.25");
        assert_eq!(Json::Float(f64::NAN).to_string(), "null");
    }

    #[test]
    fn parse_roundtrip() {
        let text = r#"{"a":[1,2.5,"x\n\"y\""],"b":null,"c":{"d":true,"e":-7}}"#;
        let v = Json::parse(text).unwrap();
        assert_eq!(v.to_string(), text);
    }

    #[test]
    fn write_parse_write_is_a_fixpoint() {
        let v = Json::Obj(vec![
            ("nums".into(), Json::Arr(vec![Json::Int(-1), Json::UInt(u64::MAX), Json::Float(0.5)])),
            ("s".into(), Json::Str("tab\there".into())),
        ]);
        let once = v.to_string_pretty();
        let twice = Json::parse(&once).unwrap().to_string_pretty();
        assert_eq!(once, twice);
    }

    #[test]
    fn moves_name_each_changed_value_by_path() {
        let parse = |text: &str| Json::parse(text).expect("valid JSON");
        let old = parse(r#"{"scans":[{"tried":29,"isp":"Airtel"}],"gone":[1,2],"same":true}"#);
        let new = parse(r#"{"scans":[{"tried":28,"isp":"Airtel"},3],"same":true,"added":{"a":1}}"#);
        assert_eq!(
            old.moves(&new),
            [
                ".scans[0].tried: 29 → 28",
                ".scans[1]: absent → 3",
                ".gone: [2 items] → absent",
                ".added: absent → {1 members}",
            ]
        );
        assert!(new.moves(&new).is_empty());
        assert_eq!(parse("1").moves(&parse("1.5")), [".: 1 → 1.5"]);
        let (audit, audit2) = (parse(r#"[{"flagged":3}]"#), parse(r#"[{"flagged":2}]"#));
        assert_eq!(audit.moves(&audit2), [".[0].flagged: 3 → 2"]);
    }

    #[test]
    fn parser_rejects_garbage() {
        for bad in ["", "{", "[1,", "{\"a\"}", "tru", "1.2.3", "\"\\q\"", "{\"a\":1}x"] {
            assert!(Json::parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn deep_nesting_is_bounded() {
        let deep = "[".repeat(500) + &"]".repeat(500);
        assert!(Json::parse(&deep).is_err());
    }

    struct Demo {
        name: String,
        hits: u64,
        ratio: f64,
    }
    crate::json_object!(Demo { name, hits, ratio });

    #[test]
    fn json_object_macro_serializes_in_field_order() {
        let d = Demo { name: "x".into(), hits: 3, ratio: 0.5 };
        assert_eq!(to_string(&d), r#"{"name":"x","hits":3,"ratio":0.5}"#);
    }

    #[derive(Debug, PartialEq)]
    enum Kind {
        Alpha,
        Beta,
    }
    crate::json_enum!(Kind { Alpha, Beta });

    #[test]
    fn json_enum_macro_serializes_as_name() {
        assert_eq!(to_string(&Kind::Alpha), r#""Alpha""#);
        assert_eq!(to_string(&Kind::Beta), r#""Beta""#);
    }
}
