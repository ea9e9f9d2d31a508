//! Minimal JSON emission for machine-readable figure output.
//!
//! The experiment binaries build their JSON explicitly through
//! [`JsonValue`], which keeps the emitted schema an intentional, reviewed
//! artifact rather than a mirror of internal struct layout.

use std::borrow::Cow;
use std::fmt::Write as _;

/// A JSON value tree.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null` (also what non-finite numbers render as).
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number (rendered via Rust's shortest-round-trip formatting).
    Num(f64),
    /// A string (escaped on render).
    Str(String),
    /// An ordered array.
    Arr(Vec<JsonValue>),
    /// An object with insertion-ordered keys.
    Obj(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Convenience: an object from key/value pairs.
    pub fn obj<I>(pairs: I) -> Self
    where
        I: IntoIterator<Item = (&'static str, JsonValue)>,
    {
        JsonValue::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// Convenience: an array of numbers.
    pub fn nums<I>(values: I) -> Self
    where
        I: IntoIterator<Item = f64>,
    {
        JsonValue::Arr(values.into_iter().map(JsonValue::Num).collect())
    }

    /// Renders the value as compact JSON.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            JsonValue::Null => out.push_str("null"),
            JsonValue::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            JsonValue::Num(x) => write_num(out, *x),
            JsonValue::Str(s) => write_str(out, s),
            JsonValue::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            JsonValue::Obj(pairs) => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_str(out, k);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }
}

/// Appends `x` as [`JsonValue::Num`] renders it: integral values below
/// 2⁵³ as integers, other finite values in Rust's shortest-round-trip
/// form, non-finite ones as `null`.
pub fn write_num(out: &mut String, x: f64) {
    if !x.is_finite() {
        out.push_str("null");
    } else if x.fract() == 0.0 && x.abs() < 9_007_199_254_740_992.0 {
        // Keep integers integral so downstream tools reading e.g. seeds
        // or counts never see a float artifact.
        if x < 0.0 {
            out.push('-');
        }
        write_uint(out, x.abs() as u64);
    } else {
        let _ = write!(out, "{x}");
    }
}

/// Appends `n` in decimal: every digit exact, which `n as f64` through
/// [`write_num`] is only below 2⁵³.
pub fn write_uint(out: &mut String, mut n: u64) {
    let mut digits = [0u8; 20];
    let mut at = digits.len();
    loop {
        at -= 1;
        digits[at] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    out.push_str(std::str::from_utf8(&digits[at..]).expect("ASCII digits are UTF-8"));
}

/// Appends `s` as a quoted JSON string, escaped as [`JsonValue::Str`]
/// renders it.
pub fn write_str(out: &mut String, s: &str) {
    out.push('"');
    // Everything that needs an escape is ASCII, so the runs between
    // escapes are whole UTF-8 sequences and are copied as they are.
    let mut run = 0;
    for (i, b) in s.bytes().enumerate() {
        if !matches!(b, b'"' | b'\\' | 0..=0x1f) {
            continue;
        }
        out.push_str(&s[run..i]);
        run = i + 1;
        match b {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b'\n' => out.push_str("\\n"),
            b'\r' => out.push_str("\\r"),
            b'\t' => out.push_str("\\t"),
            _ => {
                let _ = write!(out, "\\u{b:04x}");
            }
        }
    }
    out.push_str(&s[run..]);
    out.push('"');
}

/// Parses a JSON document into a [`JsonValue`].
///
/// A minimal recursive-descent parser covering exactly what
/// [`JsonValue::render`] emits (objects, arrays, strings with `\uXXXX`
/// escapes, numbers, booleans, `null`) — used by the trace CLI's
/// `--check` pass, the trace loader and round-trip tests. Trailing input
/// after the document is an error, and so is nesting deeper than
/// `MAX_DEPTH`: the parser recurses once per level and some of its
/// input comes off a socket.
///
/// # Errors
///
/// Returns a message with the byte offset of the first syntax error.
pub fn parse(text: &str) -> Result<JsonValue, String> {
    let mut pos = 0;
    let value = parse_value(text, &mut pos, 0)?;
    expect_end(text, pos)?;
    Ok(value)
}

/// Deepest nesting of arrays and objects [`parse`] accepts. Everything
/// this workspace writes nests three or four levels.
pub(crate) const MAX_DEPTH: usize = 64;

/// One member's value as [`scan_object`] hands it out.
#[derive(Debug, Clone, PartialEq)]
pub enum Scalar<'a> {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number.
    Num(f64),
    /// A string, borrowed from the input unless it holds an escape.
    Str(Cow<'a, str>),
    /// An array or object: checked as [`parse`] checks it, contents not
    /// kept.
    Nested,
}

/// Reads one JSON document in a single pass and, if it is an object,
/// hands each member's key and value to `member` in input order (a
/// repeated key is handed out each time) — the daemon's wire reads its
/// flat request lines this way, with no tree and no allocation for
/// strings without escapes. It accepts exactly the documents [`parse`]
/// accepts; one that is not an object has no members.
///
/// # Errors
///
/// The message [`parse`] gives for the same text. Members before the
/// error have already been handed out.
pub fn scan_object<'a>(
    text: &'a str,
    mut member: impl FnMut(&str, Scalar<'a>),
) -> Result<(), String> {
    let bytes = text.as_bytes();
    let mut pos = 0;
    skip_ws(bytes, &mut pos);
    if bytes.get(pos) == Some(&b'{') {
        walk_object(text, &mut pos, |key, pos| {
            let value = match bytes.get(*pos) {
                Some(b'"') => Scalar::Str(parse_string(text, pos)?),
                Some(b't') => parse_literal(bytes, pos, "true", Scalar::Bool(true))?,
                Some(b'f') => parse_literal(bytes, pos, "false", Scalar::Bool(false))?,
                Some(b'n') => parse_literal(bytes, pos, "null", Scalar::Null)?,
                Some(b'{' | b'[') => {
                    // One level is open around it: this object.
                    parse_value(text, pos, 1)?;
                    Scalar::Nested
                }
                Some(_) => Scalar::Num(parse_number(text, pos)?),
                None => return Err(unexpected_end(*pos)),
            };
            member(&key, value);
            Ok(())
        })?;
    } else {
        parse_value(text, &mut pos, 0)?;
    }
    expect_end(text, pos)
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while let Some(&b) = bytes.get(*pos) {
        if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
            *pos += 1;
        } else {
            break;
        }
    }
}

fn expect(bytes: &[u8], pos: &mut usize, b: u8) -> Result<(), String> {
    if bytes.get(*pos) == Some(&b) {
        *pos += 1;
        Ok(())
    } else {
        Err(format!("expected `{}` at byte {}", b as char, *pos))
    }
}

fn expect_end(text: &str, mut pos: usize) -> Result<(), String> {
    skip_ws(text.as_bytes(), &mut pos);
    if pos != text.len() {
        return Err(format!("trailing input at byte {pos}"));
    }
    Ok(())
}

fn unexpected_end(pos: usize) -> String {
    format!("unexpected end of input at byte {pos}")
}

/// `depth` is the number of arrays and objects already open around this
/// value.
fn parse_value(text: &str, pos: &mut usize, depth: usize) -> Result<JsonValue, String> {
    let bytes = text.as_bytes();
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        Some(b'{' | b'[') if depth == MAX_DEPTH => Err(format!(
            "nesting deeper than {MAX_DEPTH} levels at byte {}",
            *pos
        )),
        Some(b'{') => parse_object(text, pos, depth + 1),
        Some(b'[') => parse_array(text, pos, depth + 1),
        Some(b'"') => Ok(JsonValue::Str(parse_string(text, pos)?.into_owned())),
        Some(b't') => parse_literal(bytes, pos, "true", JsonValue::Bool(true)),
        Some(b'f') => parse_literal(bytes, pos, "false", JsonValue::Bool(false)),
        Some(b'n') => parse_literal(bytes, pos, "null", JsonValue::Null),
        Some(_) => parse_number(text, pos).map(JsonValue::Num),
        None => Err(unexpected_end(*pos)),
    }
}

fn parse_literal<T>(bytes: &[u8], pos: &mut usize, word: &str, value: T) -> Result<T, String> {
    if bytes[*pos..].starts_with(word.as_bytes()) {
        *pos += word.len();
        Ok(value)
    } else {
        Err(format!("invalid literal at byte {}", *pos))
    }
}

fn parse_number(text: &str, pos: &mut usize) -> Result<f64, String> {
    let start = *pos;
    while let Some(&b) = text.as_bytes().get(*pos) {
        if matches!(b, b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E') {
            *pos += 1;
        } else {
            break;
        }
    }
    // Only ASCII was consumed, so the slice ends on a character boundary.
    text[start..*pos]
        .parse()
        .map_err(|_| format!("invalid number at byte {start}"))
}

/// Borrows the string from `text` unless it holds an escape.
fn parse_string<'a>(text: &'a str, pos: &mut usize) -> Result<Cow<'a, str>, String> {
    let bytes = text.as_bytes();
    expect(bytes, pos, b'"')?;
    let mut decoded: Option<String> = None;
    // Start of the run not yet copied into `decoded`. `"` and `\` are
    // ASCII, so a run is whole UTF-8 sequences.
    let mut run = *pos;
    loop {
        match bytes.get(*pos) {
            None => return Err("unterminated string".into()),
            Some(b'"') => {
                let tail = &text[run..*pos];
                *pos += 1;
                return Ok(match decoded {
                    None => Cow::Borrowed(tail),
                    Some(mut out) => {
                        out.push_str(tail);
                        Cow::Owned(out)
                    }
                });
            }
            Some(b'\\') => {
                let out = decoded.get_or_insert_with(String::new);
                out.push_str(&text[run..*pos]);
                *pos += 1;
                let esc = bytes
                    .get(*pos)
                    .ok_or_else(|| "unterminated escape".to_string())?;
                *pos += 1;
                match esc {
                    b'"' => out.push('"'),
                    b'\\' => out.push('\\'),
                    b'/' => out.push('/'),
                    b'n' => out.push('\n'),
                    b'r' => out.push('\r'),
                    b't' => out.push('\t'),
                    b'b' => out.push('\u{8}'),
                    b'f' => out.push('\u{c}'),
                    b'u' => {
                        let hex = bytes
                            .get(*pos..*pos + 4)
                            .and_then(|h| std::str::from_utf8(h).ok())
                            .ok_or_else(|| format!("truncated \\u escape at byte {}", *pos))?;
                        let code = u32::from_str_radix(hex, 16)
                            .map_err(|_| format!("invalid \\u escape at byte {}", *pos))?;
                        *pos += 4;
                        // Surrogates never appear in our own output; map
                        // them to the replacement character if seen.
                        out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                    }
                    other => return Err(format!("invalid escape `\\{}`", *other as char)),
                }
                run = *pos;
            }
            Some(_) => *pos += 1,
        }
    }
}

fn parse_array(text: &str, pos: &mut usize, depth: usize) -> Result<JsonValue, String> {
    let bytes = text.as_bytes();
    expect(bytes, pos, b'[')?;
    let mut items = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(JsonValue::Arr(items));
    }
    loop {
        items.push(parse_value(text, pos, depth)?);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(JsonValue::Arr(items));
            }
            _ => return Err(format!("expected `,` or `]` at byte {}", *pos)),
        }
    }
}

fn parse_object(text: &str, pos: &mut usize, depth: usize) -> Result<JsonValue, String> {
    let mut pairs = Vec::new();
    walk_object(text, pos, |key, pos| {
        pairs.push((key.into_owned(), parse_value(text, pos, depth)?));
        Ok(())
    })?;
    Ok(JsonValue::Obj(pairs))
}

/// The object grammar, once for the tree parser and the scanner: walks
/// the object opening at `*pos` and calls `member` with each key, `*pos`
/// on the first byte of its value; `member` reads the value and leaves
/// `*pos` after it.
fn walk_object<'a>(
    text: &'a str,
    pos: &mut usize,
    mut member: impl FnMut(Cow<'a, str>, &mut usize) -> Result<(), String>,
) -> Result<(), String> {
    let bytes = text.as_bytes();
    expect(bytes, pos, b'{')?;
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(());
    }
    loop {
        skip_ws(bytes, pos);
        let key = parse_string(text, pos)?;
        skip_ws(bytes, pos);
        expect(bytes, pos, b':')?;
        skip_ws(bytes, pos);
        member(key, pos)?;
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(());
            }
            _ => return Err(format!("expected `,` or `}}` at byte {}", *pos)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_scalars_and_escapes() {
        assert_eq!(JsonValue::Null.render(), "null");
        assert_eq!(JsonValue::Bool(true).render(), "true");
        assert_eq!(JsonValue::Num(2.5).render(), "2.5");
        assert_eq!(JsonValue::Num(42.0).render(), "42");
        assert_eq!(JsonValue::Num(f64::NAN).render(), "null");
        assert_eq!(
            JsonValue::Str("a\"b\\c\nd".into()).render(),
            r#""a\"b\\c\nd""#
        );
    }

    #[test]
    fn renders_nested_structures() {
        let v = JsonValue::obj([
            ("name", JsonValue::Str("fig6".into())),
            ("lambdas", JsonValue::nums([5.0, 10.0])),
            (
                "series",
                JsonValue::Arr(vec![JsonValue::obj([
                    ("label", JsonValue::Str("<ED,2>".into())),
                    ("ap", JsonValue::nums([0.99, 0.95])),
                ])]),
            ),
        ]);
        assert_eq!(
            v.render(),
            r#"{"name":"fig6","lambdas":[5,10],"series":[{"label":"<ED,2>","ap":[0.99,0.95]}]}"#
        );
    }

    #[test]
    fn parse_round_trips_rendered_output() {
        let v = JsonValue::obj([
            ("name", JsonValue::Str("fig6 \"quoted\"\nline".into())),
            ("seed", JsonValue::Num(101.0)),
            ("ap", JsonValue::Num(0.875)),
            (
                "flags",
                JsonValue::Arr(vec![JsonValue::Bool(true), JsonValue::Null]),
            ),
            (
                "nested",
                JsonValue::obj([("empty", JsonValue::Arr(vec![]))]),
            ),
            ("ctl", JsonValue::Str("\u{1}bell".into())),
        ]);
        let text = v.render();
        assert_eq!(parse(&text).unwrap(), v);
    }

    #[test]
    fn parse_accepts_whitespace_and_rejects_garbage() {
        assert_eq!(
            parse(" { \"a\" : [ 1 , 2 ] } ").unwrap(),
            JsonValue::obj([("a", JsonValue::nums([1.0, 2.0]))])
        );
        assert!(parse("").is_err());
        assert!(parse("{\"a\":1,}").is_err());
        assert!(parse("[1 2]").is_err());
        assert!(parse("{\"a\":1} trailing").is_err());
        assert!(parse("\"unterminated").is_err());
        assert!(parse("nul").is_err());
    }

    #[test]
    fn parse_bounds_nesting_depth() {
        let nested = |depth: usize| format!("{}1{}", "[".repeat(depth), "]".repeat(depth));
        assert!(parse(&nested(MAX_DEPTH)).is_ok());
        let err = parse(&nested(MAX_DEPTH + 1)).unwrap_err();
        assert!(err.contains("nesting deeper than 64"), "{err}");
        // Far past where an unbounded descent overflows a thread's stack.
        assert!(parse(&nested(100_000)).is_err());
        let objects = format!("{}1{}", "{\"k\":".repeat(100_000), "}".repeat(100_000));
        assert!(parse(&objects).is_err());
    }

    #[test]
    fn scan_object_hands_out_members_in_input_order() {
        let mut seen = Vec::new();
        scan_object(
            r#" { "a" : 1.5, "b":"plain", "c":"esc\u0041\"", "a":null, "n":[1,{"k":true}], "t":true } "#,
            |key, value| seen.push((key.to_string(), value)),
        )
        .unwrap();
        assert_eq!(
            seen,
            [
                ("a".to_string(), Scalar::Num(1.5)),
                ("b".to_string(), Scalar::Str("plain".into())),
                ("c".to_string(), Scalar::Str("escA\"".into())),
                ("a".to_string(), Scalar::Null),
                ("n".to_string(), Scalar::Nested),
                ("t".to_string(), Scalar::Bool(true)),
            ]
        );
        // Only a string with an escape is copied.
        assert!(matches!(&seen[1].1, Scalar::Str(Cow::Borrowed(_))));
        assert!(matches!(&seen[2].1, Scalar::Str(Cow::Owned(_))));
        // A document that is not an object has no members.
        scan_object("[1,2]", |_, _| panic!("no members")).unwrap();
    }

    #[test]
    fn scan_object_rejects_what_parse_rejects_in_the_same_words() {
        let deep =
            |levels: usize| format!("{{\"k\":{}1{}}}", "[".repeat(levels), "]".repeat(levels));
        for text in [
            "",
            "{",
            "{\"a\"",
            "{\"a\":",
            "{\"a\":1",
            "{\"a\":1,}",
            "{\"a\":1} trailing",
            "{\"a\":nul}",
            "{\"a\":+}",
            "{\"a\":\"unterminated}",
            "{\"a\":\"bad \\x escape\"}",
            "{\"a\":\"\\u12\"}",
            "{a:1}",
            "[1 2]",
            "nul",
            &deep(MAX_DEPTH),
        ] {
            let scanned = scan_object(text, |_, _| {});
            assert_eq!(scanned, parse(text).map(|_| ()), "{text}");
            assert!(scanned.is_err(), "{text}");
        }
        assert_eq!(scan_object(&deep(MAX_DEPTH - 1), |_, _| {}), Ok(()));
    }

    #[test]
    fn write_uint_keeps_every_digit() {
        let mut out = String::new();
        write_uint(&mut out, 0);
        out.push(' ');
        write_uint(&mut out, (1 << 53) + 1);
        out.push(' ');
        write_uint(&mut out, u64::MAX);
        assert_eq!(out, "0 9007199254740993 18446744073709551615");
        // Where the two overlap, `write_num` writes the same digits.
        let mut out = String::new();
        write_num(&mut out, -(((1u64 << 53) - 1) as f64));
        assert_eq!(out, "-9007199254740991");
    }
}
