//! A minimal Rust lexer for lint purposes: scrub comments and literals
//! out of source text, and locate `#[cfg(test)]` regions.
//!
//! The lint rules match tokens against *scrubbed* text so that a banned
//! name inside a string literal or a comment (for example, in this very
//! crate's rule tables) never trips a rule. Scrubbing preserves byte
//! length and every newline, so line numbers in the scrubbed text map
//! one-to-one onto the original file.

/// Replace the interior of comments, string literals, char literals and
/// raw strings with spaces. Newlines are kept so line structure survives.
pub fn scrub(src: &str) -> String {
    let b = src.as_bytes();
    let mut out = Vec::with_capacity(b.len());
    let mut i = 0;
    while i < b.len() {
        match b[i] {
            b'/' if i + 1 < b.len() && b[i + 1] == b'/' => {
                while i < b.len() && b[i] != b'\n' {
                    out.push(b' ');
                    i += 1;
                }
            }
            b'/' if i + 1 < b.len() && b[i + 1] == b'*' => {
                let mut depth = 1usize;
                out.extend_from_slice(b"  ");
                i += 2;
                while i < b.len() && depth > 0 {
                    if b[i] == b'/' && i + 1 < b.len() && b[i + 1] == b'*' {
                        depth += 1;
                        out.extend_from_slice(b"  ");
                        i += 2;
                    } else if b[i] == b'*' && i + 1 < b.len() && b[i + 1] == b'/' {
                        depth -= 1;
                        out.extend_from_slice(b"  ");
                        i += 2;
                    } else {
                        out.push(if b[i] == b'\n' { b'\n' } else { b' ' });
                        i += 1;
                    }
                }
            }
            b'r' if is_raw_string_start(b, i) => {
                let hashes = count_hashes(b, i + 1);
                // Blank `r`, the hashes, and the opening quote at once.
                out.resize(out.len() + hashes + 2, b' ');
                i += hashes + 2;
                loop {
                    if i >= b.len() {
                        break;
                    }
                    if b[i] == b'"' && closes_raw(b, i, hashes) {
                        out.resize(out.len() + hashes + 1, b' ');
                        i += hashes + 1;
                        break;
                    }
                    out.push(if b[i] == b'\n' { b'\n' } else { b' ' });
                    i += 1;
                }
            }
            b'"' => {
                out.push(b' ');
                i += 1;
                while i < b.len() {
                    match b[i] {
                        // `\X` — blank both bytes, but never a newline
                        // (a `\` + newline is the line-continuation
                        // escape, and newlines must survive scrubbing).
                        b'\\' if i + 1 < b.len() => {
                            out.push(b' ');
                            out.push(if b[i + 1] == b'\n' { b'\n' } else { b' ' });
                            i += 2;
                        }
                        b'"' => {
                            out.push(b' ');
                            i += 1;
                            break;
                        }
                        b'\n' => {
                            out.push(b'\n');
                            i += 1;
                        }
                        _ => {
                            out.push(b' ');
                            i += 1;
                        }
                    }
                }
            }
            b'\'' if is_char_literal(b, i) => {
                out.push(b' ');
                i += 1;
                while i < b.len() {
                    match b[i] {
                        b'\\' if i + 1 < b.len() => {
                            out.push(b' ');
                            out.push(if b[i + 1] == b'\n' { b'\n' } else { b' ' });
                            i += 2;
                        }
                        b'\'' => {
                            out.push(b' ');
                            i += 1;
                            break;
                        }
                        // A char literal cannot span a line; an
                        // unterminated one ends at the newline so the
                        // rest of the file is still scanned.
                        b'\n' => break,
                        _ => {
                            out.push(b' ');
                            i += 1;
                        }
                    }
                }
            }
            c => {
                out.push(c);
                i += 1;
            }
        }
    }
    // Replacements are ASCII and non-ASCII bytes pass through verbatim,
    // so the buffer stays valid UTF-8; lossy conversion avoids a panic
    // path without changing the output.
    String::from_utf8_lossy(&out).into_owned()
}

/// `r"` / `r#"` / `br"` — a raw-string opener at `i` (pointing at `r`).
fn is_raw_string_start(b: &[u8], i: usize) -> bool {
    // Reject identifiers ending in `r` (e.g. `var"` cannot occur, but
    // `for` / `ptr` followed by `"` is not valid Rust either; the risk
    // is `r` as the tail of an ident like `foo_r#"` which is not real
    // code). Require the previous char to be a non-ident char or `b`.
    if i > 0 {
        let p = b[i - 1];
        if (p.is_ascii_alphanumeric() || p == b'_') && p != b'b' {
            return false;
        }
    }
    let mut j = i + 1;
    while j < b.len() && b[j] == b'#' {
        j += 1;
    }
    j < b.len() && b[j] == b'"'
}

fn count_hashes(b: &[u8], mut i: usize) -> usize {
    let start = i;
    while i < b.len() && b[i] == b'#' {
        i += 1;
    }
    i - start
}

fn closes_raw(b: &[u8], i: usize, hashes: usize) -> bool {
    (1..=hashes).all(|k| i + k < b.len() && b[i + k] == b'#')
}

/// Distinguish a char literal from a lifetime: `'a'` and `'\n'` are
/// literals; `'a` in `&'a str` is not.
fn is_char_literal(b: &[u8], i: usize) -> bool {
    if i + 1 >= b.len() {
        return false;
    }
    if b[i + 1] == b'\\' {
        return true;
    }
    i + 2 < b.len() && b[i + 2] == b'\''
}

/// Whether `line` contains `tok` as a whole token: the characters just
/// before and after the match must not be identifier characters.
pub fn has_token(line: &str, tok: &str) -> bool {
    let lb = line.as_bytes();
    let mut from = 0;
    while let Some(pos) = line[from..].find(tok) {
        let at = from + pos;
        let before_ok = at == 0 || !is_ident(lb[at - 1]);
        let end = at + tok.len();
        let after_ok = end >= lb.len() || !is_ident(lb[end]);
        if before_ok && after_ok {
            return true;
        }
        from = at + 1;
    }
    false
}

pub(crate) fn is_ident(c: u8) -> bool {
    c.is_ascii_alphanumeric() || c == b'_'
}

/// 1-based line ranges (inclusive) covered by `#[cfg(test)]` items in
/// scrubbed source. The attribute gates the item that follows: we skip
/// further attributes, then brace-match the item body (or stop at `;`
/// for braceless items such as `#[cfg(test)] use …;`).
pub fn test_spans(scrubbed: &str) -> Vec<(usize, usize)> {
    let b = scrubbed.as_bytes();
    let mut spans = Vec::new();
    let mut i = 0;
    while let Some(pos) = scrubbed[i..].find("#[cfg(test)]") {
        let start = i + pos;
        let mut j = start + "#[cfg(test)]".len();
        // Skip whitespace and any further attributes before the item.
        loop {
            while j < b.len() && (b[j] as char).is_whitespace() {
                j += 1;
            }
            if j < b.len() && b[j] == b'#' {
                while j < b.len() && b[j] != b']' {
                    j += 1;
                }
                j += 1;
            } else {
                break;
            }
        }
        // Find the end of the item: `;` before any `{`, else the
        // matching close brace.
        let mut depth = 0usize;
        let mut end = j;
        while end < b.len() {
            match b[end] {
                b'{' => depth += 1,
                b'}' => {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                b';' if depth == 0 => break,
                _ => {}
            }
            end += 1;
        }
        let line_of = |off: usize| 1 + scrubbed[..off.min(scrubbed.len())].matches('\n').count();
        spans.push((line_of(start), line_of(end)));
        i = end.min(b.len().saturating_sub(1)).max(start + 1);
        if i >= b.len() {
            break;
        }
    }
    spans
}

/// Whether 1-based `line` falls in any span.
pub fn in_spans(spans: &[(usize, usize)], line: usize) -> bool {
    spans.iter().any(|&(a, b)| (a..=b).contains(&line))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scrub_preserves_length_and_newlines() {
        let src = "let x = \"Instant::now()\"; // Instant::now\nlet y = 1;\n";
        let s = scrub(src);
        assert_eq!(s.len(), src.len());
        assert_eq!(s.matches('\n').count(), src.matches('\n').count());
        assert!(!s.contains("Instant"));
        assert!(s.contains("let y = 1;"));
    }

    #[test]
    fn scrub_handles_raw_strings_and_chars() {
        let src = r##"let s = r#"HashMap in "raw""#; let c = 'h'; let l: &'static str = x;"##;
        let s = scrub(src);
        assert!(!s.contains("HashMap"));
        assert!(s.contains("&'static str"), "lifetimes survive: {s}");
    }

    #[test]
    fn scrub_handles_nested_block_comments() {
        let s = scrub("a /* x /* HashMap */ y */ b");
        assert!(!s.contains("HashMap"));
        assert!(s.starts_with('a') && s.ends_with('b'));
    }

    #[test]
    fn unterminated_char_literal_stops_at_the_newline() {
        // Found by the `lint_lexer_total` fuzz oracle: an unterminated
        // byte/char literal used to blank the rest of the file,
        // including its newlines.
        let src = "b'\\n// \nlet x = 1;\n";
        let s = scrub(src);
        assert_eq!(s.len(), src.len());
        assert_eq!(
            s.match_indices('\n').collect::<Vec<_>>(),
            src.match_indices('\n').collect::<Vec<_>>()
        );
        assert!(s.contains("let x = 1;"), "code after the literal is still scanned: {s:?}");
    }

    #[test]
    fn token_boundaries_are_respected() {
        assert!(has_token("use std::collections::HashMap;", "HashMap"));
        assert!(!has_token("forbid(unsafe_code)", "unsafe"));
        assert!(!has_token("MyHashMapLike", "HashMap"));
        assert!(has_token("std::time::Instant::now()", "Instant::now"));
    }

    #[test]
    fn test_spans_cover_the_gated_module() {
        let src = "fn live() {}\n#[cfg(test)]\nmod tests {\n  fn a() {}\n}\nfn after() {}\n";
        let spans = test_spans(&scrub(src));
        assert_eq!(spans, vec![(2, 5)]);
        assert!(!in_spans(&spans, 1));
        assert!(in_spans(&spans, 4));
        assert!(!in_spans(&spans, 6));
    }

    #[test]
    fn braceless_cfg_test_items_end_at_semicolon() {
        let src = "#[cfg(test)]\nuse foo::Bar;\nfn live() {}\n";
        let spans = test_spans(&scrub(src));
        assert_eq!(spans, vec![(1, 2)]);
        assert!(!in_spans(&spans, 3));
    }
}
