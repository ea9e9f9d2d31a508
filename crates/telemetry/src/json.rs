//! Minimal JSON emission for machine-readable figure output.
//!
//! The vendored `serde` is an API stub without real serialization, so the
//! experiment binaries build their JSON explicitly through [`JsonValue`]
//! — which also keeps the emitted schema an intentional, reviewed
//! artifact rather than a mirror of internal struct layout.

use std::fmt::Write as _;
use std::path::PathBuf;

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

    /// Convenience: an array of strings.
    pub fn strs<I, S>(values: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        JsonValue::Arr(
            values
                .into_iter()
                .map(|s| JsonValue::Str(s.into()))
                .collect(),
        )
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
            JsonValue::Num(x) => {
                if x.is_finite() {
                    // Keep integers integral so downstream tools reading
                    // e.g. seeds or counts never see a float artifact.
                    if x.fract() == 0.0 && x.abs() < 9_007_199_254_740_992.0 {
                        let _ = write!(out, "{}", *x as i64);
                    } else {
                        let _ = write!(out, "{x}");
                    }
                } else {
                    out.push_str("null");
                }
            }
            JsonValue::Str(s) => {
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
                    JsonValue::Str(k.clone()).write(out);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }
}

/// Parses a JSON document into a [`JsonValue`].
///
/// A minimal recursive-descent parser covering exactly what
/// [`JsonValue::render`] emits (objects, arrays, strings with `\uXXXX`
/// escapes, numbers, booleans, `null`) — used by the trace CLI's
/// `--check` pass, the trace loader, the daemon's wire and round-trip
/// tests. Trailing input after the document is an error, and so is
/// nesting deeper than [`MAX_DEPTH`]: the parser recurses once per level
/// and some of its input comes off a socket.
///
/// # Errors
///
/// Returns a message with the byte offset of the first syntax error.
pub fn parse(text: &str) -> Result<JsonValue, String> {
    let bytes = text.as_bytes();
    let mut pos = 0;
    let value = parse_value(bytes, &mut pos, 0)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing input at byte {pos}"));
    }
    Ok(value)
}

/// Deepest nesting of arrays and objects [`parse`] accepts. Everything
/// this workspace writes nests three or four levels.
pub const MAX_DEPTH: usize = 64;

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

/// `depth` is the number of arrays and objects already open around this
/// value.
fn parse_value(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<JsonValue, String> {
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        Some(b'{' | b'[') if depth == MAX_DEPTH => Err(format!(
            "nesting deeper than {MAX_DEPTH} levels at byte {}",
            *pos
        )),
        Some(b'{') => parse_object(bytes, pos, depth + 1),
        Some(b'[') => parse_array(bytes, pos, depth + 1),
        Some(b'"') => Ok(JsonValue::Str(parse_string(bytes, pos)?)),
        Some(b't') => parse_literal(bytes, pos, "true", JsonValue::Bool(true)),
        Some(b'f') => parse_literal(bytes, pos, "false", JsonValue::Bool(false)),
        Some(b'n') => parse_literal(bytes, pos, "null", JsonValue::Null),
        Some(_) => parse_number(bytes, pos),
        None => Err(format!("unexpected end of input at byte {}", *pos)),
    }
}

fn parse_literal(
    bytes: &[u8],
    pos: &mut usize,
    word: &str,
    value: JsonValue,
) -> Result<JsonValue, String> {
    if bytes[*pos..].starts_with(word.as_bytes()) {
        *pos += word.len();
        Ok(value)
    } else {
        Err(format!("invalid literal at byte {}", *pos))
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<JsonValue, String> {
    let start = *pos;
    while let Some(&b) = bytes.get(*pos) {
        if matches!(b, b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E') {
            *pos += 1;
        } else {
            break;
        }
    }
    std::str::from_utf8(&bytes[start..*pos])
        .ok()
        .and_then(|s| s.parse::<f64>().ok())
        .map(JsonValue::Num)
        .ok_or_else(|| format!("invalid number at byte {start}"))
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
    expect(bytes, pos, b'"')?;
    let mut out = String::new();
    loop {
        match bytes.get(*pos) {
            None => return Err("unterminated string".into()),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
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
            }
            Some(_) => {
                // Consume one UTF-8 scalar (the input is a &str, so
                // boundaries are valid).
                let rest = std::str::from_utf8(&bytes[*pos..])
                    .map_err(|_| "invalid utf-8 mid-string".to_string())?;
                let c = rest.chars().next().unwrap();
                out.push(c);
                *pos += c.len_utf8();
            }
        }
    }
}

fn parse_array(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<JsonValue, String> {
    expect(bytes, pos, b'[')?;
    let mut items = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(JsonValue::Arr(items));
    }
    loop {
        items.push(parse_value(bytes, pos, depth)?);
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

fn parse_object(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<JsonValue, String> {
    expect(bytes, pos, b'{')?;
    let mut pairs = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(JsonValue::Obj(pairs));
    }
    loop {
        skip_ws(bytes, pos);
        let key = parse_string(bytes, pos)?;
        skip_ws(bytes, pos);
        expect(bytes, pos, b':')?;
        let value = parse_value(bytes, pos, depth)?;
        pairs.push((key, value));
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(JsonValue::Obj(pairs));
            }
            _ => return Err(format!("expected `,` or `}}` at byte {}", *pos)),
        }
    }
}

/// Writes `value` to `results/<name>.json` (relative to the working
/// directory, creating `results/` if needed) and returns the path.
///
/// # Errors
///
/// Propagates filesystem errors.
pub fn write_results(name: &str, value: &JsonValue) -> std::io::Result<PathBuf> {
    let dir = PathBuf::from("results");
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!("{name}.json"));
    std::fs::write(&path, value.render() + "\n")?;
    Ok(path)
}

/// Emits to `results/` and notes where on stderr — stderr so that
/// redirecting a binary's stdout into `results/<name>.txt` captures the
/// tables alone — warning instead of failing when the directory is not
/// writable (figure output must still appear).
pub fn emit_results(name: &str, value: &JsonValue) {
    match write_results(name, value) {
        Ok(path) => eprintln!("wrote {}", path.display()),
        Err(e) => eprintln!("warning: cannot write results/{name}.json: {e}"),
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
    fn write_results_round_trips() {
        let v = JsonValue::nums([1.0, 2.0]);
        let path = write_results("json_unit_test", &v).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(text, "[1,2]\n");
    }
}
