//! Offline stand-in for `serde_json`: renders and parses the in-tree
//! `serde` [`Value`] tree as JSON text.

#![forbid(unsafe_code)]

use serde::{Deserialize, Serialize, Value};
use std::fmt::Write as _;

pub use serde::Error;

/// Serializes a value to compact JSON.
///
/// # Errors
///
/// Infallible for the value shapes the workspace produces; the `Result`
/// mirrors the real crate's signature.
pub fn to_string<T: Serialize>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    write_value(&mut out, &value.to_value(), None, 0);
    Ok(out)
}

/// Serializes a value to human-indented JSON.
///
/// # Errors
///
/// Infallible for the value shapes the workspace produces.
pub fn to_string_pretty<T: Serialize>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    write_value(&mut out, &value.to_value(), Some("  "), 0);
    Ok(out)
}

/// Parses JSON text into a deserializable value.
///
/// # Errors
///
/// Returns a description of the first syntax or shape error.
pub fn from_str<T: Deserialize>(text: &str) -> Result<T, Error> {
    let mut parser = Parser {
        text,
        bytes: text.as_bytes(),
        pos: 0,
    };
    parser.skip_ws();
    let value = parser.parse_value()?;
    parser.skip_ws();
    if parser.pos != parser.bytes.len() {
        return Err(Error::custom(format!(
            "trailing characters at byte {}",
            parser.pos
        )));
    }
    T::from_value(&value)
}

fn write_value(out: &mut String, v: &Value, indent: Option<&str>, depth: usize) {
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::U64(n) => {
            let _ = write!(out, "{n}");
        }
        Value::I64(n) => {
            let _ = write!(out, "{n}");
        }
        Value::F64(x) => {
            if x.is_finite() {
                // Rust's shortest round-trip float formatting; force a
                // decimal point so the token re-parses as a float.
                let s = format!("{x}");
                out.push_str(&s);
                if !s.contains(['.', 'e', 'E']) {
                    out.push_str(".0");
                }
            } else {
                // serde_json renders non-finite floats as null.
                out.push_str("null");
            }
        }
        Value::Str(s) => write_string(out, s),
        Value::Seq(items) => {
            write_compound(out, indent, depth, '[', ']', items.len(), |out, i, d| {
                write_value(out, &items[i], indent, d);
            })
        }
        Value::Map(entries) => {
            write_compound(out, indent, depth, '{', '}', entries.len(), |out, i, d| {
                write_string(out, &entries[i].0);
                out.push(':');
                if indent.is_some() {
                    out.push(' ');
                }
                write_value(out, &entries[i].1, indent, d);
            })
        }
    }
}

fn write_compound(
    out: &mut String,
    indent: Option<&str>,
    depth: usize,
    open: char,
    close: char,
    len: usize,
    mut item: impl FnMut(&mut String, usize, usize),
) {
    out.push(open);
    for i in 0..len {
        if i > 0 {
            out.push(',');
        }
        if let Some(pad) = indent {
            out.push('\n');
            for _ in 0..=depth {
                out.push_str(pad);
            }
        }
        item(out, i, depth + 1);
    }
    if len > 0 {
        if let Some(pad) = indent {
            out.push('\n');
            for _ in 0..depth {
                out.push_str(pad);
            }
        }
    }
    out.push(close);
}

fn write_string(out: &mut String, s: &str) {
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

struct Parser<'a> {
    text: &'a str,
    /// `text.as_bytes()`.
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn skip_ws(&mut self) {
        while self.pos < self.bytes.len()
            && matches!(self.bytes[self.pos], b' ' | b'\t' | b'\n' | b'\r')
        {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), Error> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(Error::custom(format!(
                "expected {:?} at byte {}",
                b as char, self.pos
            )))
        }
    }

    fn parse_value(&mut self) -> Result<Value, Error> {
        self.skip_ws();
        match self.peek() {
            Some(b'n') => self.literal("null", Value::Null),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'"') => self.parse_string().map(Value::Str),
            Some(b'[') => self.parse_array(),
            Some(b'{') => self.parse_object(),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.parse_number(),
            other => Err(Error::custom(format!(
                "unexpected {:?} at byte {}",
                other.map(|b| b as char),
                self.pos
            ))),
        }
    }

    fn literal(&mut self, text: &str, value: Value) -> Result<Value, Error> {
        if self.bytes[self.pos..].starts_with(text.as_bytes()) {
            self.pos += text.len();
            Ok(value)
        } else {
            Err(Error::custom(format!(
                "invalid literal at byte {}",
                self.pos
            )))
        }
    }

    fn parse_number(&mut self) -> Result<Value, Error> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut is_float = false;
        while let Some(c) = self.peek() {
            match c {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    is_float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|e| Error::custom(e.to_string()))?;
        if !is_float {
            if let Ok(n) = text.parse::<u64>() {
                return Ok(Value::U64(n));
            }
            if let Ok(n) = text.parse::<i64>() {
                return Ok(Value::I64(n));
            }
        }
        text.parse::<f64>()
            .map(Value::F64)
            .map_err(|_| Error::custom(format!("invalid number {text:?}")))
    }

    fn parse_string(&mut self) -> Result<String, Error> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(Error::custom("unterminated string")),
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
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or_else(|| Error::custom("truncated \\u escape"))?;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex)
                                    .map_err(|e| Error::custom(e.to_string()))?,
                                16,
                            )
                            .map_err(|e| Error::custom(e.to_string()))?;
                            out.push(
                                char::from_u32(code)
                                    .ok_or_else(|| Error::custom("invalid \\u escape"))?,
                            );
                            self.pos += 4;
                        }
                        other => {
                            return Err(Error::custom(format!("bad escape {other:?}")));
                        }
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Everything up to the next quote or escape is copied
                    // as one span. Both are ASCII, so in UTF-8 they never
                    // occur inside a multi-byte scalar and the span ends on
                    // a character boundary.
                    let start = self.pos;
                    while !matches!(self.peek(), None | Some(b'"' | b'\\')) {
                        self.pos += 1;
                    }
                    out.push_str(&self.text[start..self.pos]);
                }
            }
        }
    }

    fn parse_array(&mut self) -> Result<Value, Error> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Seq(items));
        }
        loop {
            items.push(self.parse_value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => {
                    self.pos += 1;
                }
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Seq(items));
                }
                other => {
                    return Err(Error::custom(format!("expected ',' or ']', got {other:?}")));
                }
            }
        }
    }

    fn parse_object(&mut self) -> Result<Value, Error> {
        self.expect(b'{')?;
        let mut entries = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Map(entries));
        }
        loop {
            self.skip_ws();
            let key = self.parse_string()?;
            self.skip_ws();
            self.expect(b':')?;
            let value = self.parse_value()?;
            entries.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => {
                    self.pos += 1;
                }
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Map(entries));
                }
                other => {
                    return Err(Error::custom(format!(
                        "expected ',' or '}}', got {other:?}"
                    )));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_scalars_and_strings() {
        assert_eq!(to_string(&42u64).unwrap(), "42");
        assert_eq!(to_string(&(-3i64)).unwrap(), "-3");
        assert_eq!(to_string(&1.5f64).unwrap(), "1.5");
        assert_eq!(to_string(&2.0f64).unwrap(), "2.0");
        assert_eq!(to_string(&"a\"b\n".to_string()).unwrap(), "\"a\\\"b\\n\"");
        let back: String = from_str("\"a\\\"b\\n\"").unwrap();
        assert_eq!(back, "a\"b\n");
    }

    #[test]
    fn round_trips_collections() {
        let v = vec![(1.25f64, 2.0f64), (3.0, 4.5)];
        let json = to_string(&v).unwrap();
        let back: Vec<(f64, f64)> = from_str(&json).unwrap();
        assert_eq!(back, v);
    }

    #[test]
    fn parses_nested_objects() {
        let v: Value = from_str(r#"{"a": [1, 2.5, null], "b": {"c": true}}"#).unwrap();
        let map = v.as_map().unwrap();
        assert_eq!(map[0].0, "a");
        assert_eq!(map[0].1.as_seq().unwrap().len(), 3);
    }

    #[test]
    fn rejects_garbage() {
        assert!(from_str::<Value>("{").is_err());
        assert!(from_str::<Value>("12 34").is_err());
        assert!(from_str::<Value>("nulL").is_err());
    }

    #[test]
    fn pretty_output_is_indented() {
        let v = vec![1u64, 2];
        let pretty = to_string_pretty(&v).unwrap();
        assert!(pretty.contains('\n'));
        let back: Vec<u64> = from_str(&pretty).unwrap();
        assert_eq!(back, v);
    }

    /// What strings are made of, as (decoded, an encoding the parser must
    /// accept): plain ASCII, 2-, 3- and 4-byte scalars, every two-character
    /// escape, and `\uXXXX` in both hex cases. Some encodings are ones
    /// [`write_string`] never produces.
    const ATOMS: &[(&str, &str)] = &[
        ("a", "a"),
        (" ", " "),
        ("/", "/"),
        ("é", "é"),
        ("ß", "\\u00df"),
        ("€", "€"),
        ("→", "\\u2192"),
        ("𝄞", "𝄞"),
        ("\"", "\\\""),
        ("\\", "\\\\"),
        ("/", "\\/"),
        ("\n", "\\n"),
        ("\r", "\\r"),
        ("\t", "\\t"),
        ("\u{8}", "\\b"),
        ("\u{c}", "\\f"),
        ("\u{1}", "\\u0001"),
        ("\u{1f}", "\\u001F"),
    ];

    proptest::proptest! {
        /// Any sequence of atoms decodes to the atoms' concatenation —
        /// spans, escapes and multi-byte scalars in any order — and what
        /// was decoded survives the writer and the parser again.
        #[test]
        fn strings_round_trip(picks in proptest::collection::vec(0usize..ATOMS.len(), 0..48)) {
            let decoded: String = picks.iter().map(|&i| ATOMS[i].0).collect();
            let encoded: String = picks.iter().map(|&i| ATOMS[i].1).collect();
            let parsed: String = from_str(&format!("\"{encoded}\"")).unwrap();
            proptest::prop_assert_eq!(&parsed, &decoded);
            let rewritten: String = from_str(&to_string(&decoded).unwrap()).unwrap();
            proptest::prop_assert_eq!(&rewritten, &decoded);
            // Cut anywhere, the text is an error, never a panic.
            let text = format!("[\"{encoded}\"]");
            for cut in (0..text.len()).filter(|&c| text.is_char_boundary(c)) {
                proptest::prop_assert!(from_str::<Value>(&text[..cut]).is_err());
            }
        }
    }
}
