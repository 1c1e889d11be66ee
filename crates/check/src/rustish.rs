//! A generator of Rust-ish token soup for fuzzing text readers — the
//! policy compiler and the TOML reader under it (`policy_compile_total`).
//!
//! The output is *not* valid Rust — it is a concatenation of the
//! constructs a hand-written reader tends to get wrong: raw strings with
//! hash fences, nested block comments, byte and char literals with
//! escapes, lifetimes (which look like unterminated char literals), and
//! item keywords with unbalanced braces. Possibly-unterminated fragments
//! are generated on purpose: a reader that claims totality on arbitrary
//! input is only shown to be total if the input distribution actually
//! covers the nasty corners.

use crate::source::Source;

const KEYWORDS: [&str; 10] =
    ["fn", "pub", "impl", "mod", "use", "struct", "let", "match", "where", "unsafe"];
const IDENT_CHARS: &str = "abcdefgxyz_ABZ0189";
const PUNCT: [&str; 14] =
    ["{", "}", "(", ")", "[", "]", ";", ":", "::", ",", "->", ".", "#", "<"];
const ESCAPES: [&str; 6] = ["\\n", "\\t", "\\\\", "\\\"", "\\'", "\\u{41}"];

fn ident(s: &mut Source) -> String {
    let mut out = s.string(IDENT_CHARS, 1, 8);
    if s.chance(1, 8) {
        out.push('é'); // multi-byte ident tail
    }
    out
}

fn string_literal(s: &mut Source) -> String {
    let mut out = String::from("\"");
    for _ in 0..s.len_in(0, 6) {
        if s.chance(1, 3) {
            let esc: &&str = s.pick(&ESCAPES);
            out.push_str(esc);
        } else {
            out.push_str(&s.string("ab{}/*\n ", 1, 4));
        }
    }
    if s.chance(1, 6) {
        return out; // unterminated
    }
    out.push('"');
    out
}

fn raw_string(s: &mut Source) -> String {
    let hashes = "#".repeat(s.len_in(0, 3));
    let mut out = format!("r{hashes}\"");
    out.push_str(&s.string("ab\"#{}\n", 0, 8));
    if s.chance(1, 6) {
        return out; // unterminated
    }
    out.push('"');
    out.push_str(&hashes);
    out
}

fn char_or_byte_literal(s: &mut Source) -> String {
    let body = if s.chance(1, 2) { s.pick(&ESCAPES).to_string() } else { s.string("axé'", 1, 1) };
    let quote = if s.chance(1, 6) { "" } else { "'" }; // maybe unterminated
    if s.chance(1, 3) {
        format!("b'{body}{quote}")
    } else {
        format!("'{body}{quote}")
    }
}

fn comment(s: &mut Source) -> String {
    if s.chance(1, 2) {
        format!("// {}\n", s.string("ab\"'{} ", 0, 8))
    } else {
        let depth = s.len_in(1, 3);
        let mut out = String::new();
        for _ in 0..depth {
            out.push_str("/* ");
            out.push_str(&s.string("ab\"' fn{} ", 0, 6));
        }
        // Close all, some, or none of the nesting levels.
        for _ in 0..s.len_in(0, depth) {
            out.push_str(" */");
        }
        out
    }
}

/// One fragment of Rust-ish soup.
fn fragment(s: &mut Source) -> String {
    match s.below(10) {
        0 => format!("{} ", s.pick(&KEYWORDS)),
        1 => format!("{} ", ident(s)),
        2 => s.pick(&PUNCT).to_string(),
        3 => string_literal(s),
        4 => raw_string(s),
        5 => char_or_byte_literal(s),
        6 => comment(s),
        7 => format!("'{} ", ident(s)), // lifetime
        8 => s.string(" \n\t", 1, 3),
        _ => s.string("0123456789", 1, 4),
    }
}

/// Generate a Rust-ish source file: token soup over the constructs a
/// reader must stay total on.
pub fn soup(s: &mut Source) -> String {
    let mut out = String::new();
    for _ in 0..s.len_in(0, 48) {
        out.push_str(&fragment(s));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn soup_is_deterministic_per_tape() {
        let mut a = Source::new(7, 0);
        let one = soup(&mut a);
        let mut b = Source::replay(a.tape());
        assert_eq!(soup(&mut b), one);
    }

    #[test]
    fn soup_hits_the_tricky_constructs() {
        // Over a batch of seeds the generator must actually produce raw
        // strings, block comments, and escapes — otherwise the totality
        // oracles are fuzzing air.
        let mut raw = false;
        let mut block = false;
        let mut escape = false;
        for seed in 0..64 {
            let text = soup(&mut Source::new(seed, 0));
            raw |= text.contains("r\"") || text.contains("r#\"");
            block |= text.contains("/*");
            escape |= text.contains('\\');
        }
        assert!(raw && block && escape, "raw={raw} block={block} escape={escape}");
    }
}
