//! Offline compatibility subset of `serde_json`.
//!
//! Serializes the compat `serde` crate's [`Value`] tree to JSON text and
//! parses it back. Floats are written with Rust's shortest-roundtrip
//! formatting (`{:?}`), so every finite `f64` survives a `to_string` →
//! `from_str` round-trip bit-exactly — the property the upstream
//! `float_roundtrip` feature provides and the config round-trips of
//! `SRVT` snapshots and `RPLY` headers rely on.

use std::fmt;

pub use serde::Value;
use serde::{DeError, Deserialize, Serialize};

/// A serialization or parse error.
#[derive(Debug, Clone, PartialEq)]
pub struct Error {
    msg: String,
}

impl Error {
    fn new(msg: impl Into<String>) -> Self {
        Error { msg: msg.into() }
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.msg)
    }
}

impl std::error::Error for Error {}

impl From<DeError> for Error {
    fn from(e: DeError) -> Self {
        Error::new(e.to_string())
    }
}

/// `serde_json`-style result alias.
pub type Result<T> = std::result::Result<T, Error>;

// ---------------------------------------------------------------- writing --

fn escape_into(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            '\u{08}' => out.push_str("\\b"),
            '\u{0C}' => out.push_str("\\f"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

fn write_number(out: &mut String, v: &Value) {
    match *v {
        Value::Int(i) => out.push_str(&i.to_string()),
        Value::UInt(u) => out.push_str(&u.to_string()),
        Value::Float(f) => {
            if f.is_finite() {
                // `{:?}` is Rust's shortest round-trip float formatting.
                out.push_str(&format!("{f:?}"));
            } else {
                out.push_str("null");
            }
        }
        _ => unreachable!("write_number only sees numeric variants"),
    }
}

fn write_value(out: &mut String, v: &Value, indent: Option<usize>, level: usize) {
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::Int(_) | Value::UInt(_) | Value::Float(_) => write_number(out, v),
        Value::Str(s) => escape_into(out, s),
        Value::Array(items) => {
            if items.is_empty() {
                out.push_str("[]");
                return;
            }
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                newline_indent(out, indent, level + 1);
                write_value(out, item, indent, level + 1);
            }
            newline_indent(out, indent, level);
            out.push(']');
        }
        Value::Object(entries) => {
            if entries.is_empty() {
                out.push_str("{}");
                return;
            }
            out.push('{');
            for (i, (k, item)) in entries.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                newline_indent(out, indent, level + 1);
                escape_into(out, k);
                out.push(':');
                if indent.is_some() {
                    out.push(' ');
                }
                write_value(out, item, indent, level + 1);
            }
            newline_indent(out, indent, level);
            out.push('}');
        }
    }
}

fn newline_indent(out: &mut String, indent: Option<usize>, level: usize) {
    if let Some(width) = indent {
        out.push('\n');
        out.extend(std::iter::repeat_n(' ', width * level));
    }
}

/// Compact JSON text of any serializable value.
///
/// # Errors
///
/// Never fails for the compat value model; the `Result` mirrors upstream.
pub fn to_string<T: Serialize + ?Sized>(value: &T) -> Result<String> {
    let mut out = String::new();
    write_value(&mut out, &value.to_value(), None, 0);
    Ok(out)
}

/// Pretty-printed (2-space indented) JSON text.
///
/// # Errors
///
/// Never fails for the compat value model; the `Result` mirrors upstream.
pub fn to_string_pretty<T: Serialize + ?Sized>(value: &T) -> Result<String> {
    let mut out = String::new();
    write_value(&mut out, &value.to_value(), Some(2), 0);
    Ok(out)
}

/// Renders a value tree directly.
///
/// # Errors
///
/// Never fails; mirrors upstream's signature.
pub fn to_value<T: Serialize + ?Sized>(value: &T) -> Result<Value> {
    Ok(value.to_value())
}

// ---------------------------------------------------------------- parsing --

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn new(text: &'a str) -> Self {
        Parser {
            bytes: text.as_bytes(),
            pos: 0,
        }
    }

    fn error(&self, msg: &str) -> Error {
        Error::new(format!("{msg} at byte {}", self.pos))
    }

    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<()> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.error(&format!("expected `{}`", b as char)))
        }
    }

    fn parse_value(&mut self) -> Result<Value> {
        self.skip_ws();
        match self.peek() {
            Some(b'{') => self.parse_object(),
            Some(b'[') => self.parse_array(),
            Some(b'"') => Ok(Value::Str(self.parse_string()?)),
            Some(b't') => self.parse_keyword("true", Value::Bool(true)),
            Some(b'f') => self.parse_keyword("false", Value::Bool(false)),
            Some(b'n') => self.parse_keyword("null", Value::Null),
            Some(b'-' | b'0'..=b'9') => self.parse_number(),
            Some(c) => Err(self.error(&format!("unexpected character `{}`", c as char))),
            None => Err(self.error("unexpected end of input")),
        }
    }

    fn parse_keyword(&mut self, kw: &str, value: Value) -> Result<Value> {
        if self.bytes[self.pos..].starts_with(kw.as_bytes()) {
            self.pos += kw.len();
            Ok(value)
        } else {
            Err(self.error(&format!("expected `{kw}`")))
        }
    }

    fn parse_object(&mut self) -> Result<Value> {
        self.expect(b'{')?;
        let mut entries = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Object(entries));
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
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Object(entries));
                }
                _ => return Err(self.error("expected `,` or `}`")),
            }
        }
    }

    fn parse_array(&mut self) -> Result<Value> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            items.push(self.parse_value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                _ => return Err(self.error("expected `,` or `]`")),
            }
        }
    }

    fn parse_string(&mut self) -> Result<String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.error("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.peek().ok_or_else(|| self.error("bad escape"))?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'b' => out.push('\u{08}'),
                        b'f' => out.push('\u{0C}'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .ok_or_else(|| self.error("truncated \\u escape"))?;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex)
                                    .map_err(|_| self.error("bad \\u escape"))?,
                                16,
                            )
                            .map_err(|_| self.error("bad \\u escape"))?;
                            self.pos += 4;
                            // Surrogate pairs.
                            let ch = if (0xD800..0xDC00).contains(&code) {
                                if self.bytes.get(self.pos) == Some(&b'\\')
                                    && self.bytes.get(self.pos + 1) == Some(&b'u')
                                {
                                    let hex2 = self
                                        .bytes
                                        .get(self.pos + 2..self.pos + 6)
                                        .ok_or_else(|| self.error("truncated surrogate"))?;
                                    let low = u32::from_str_radix(
                                        std::str::from_utf8(hex2)
                                            .map_err(|_| self.error("bad surrogate"))?,
                                        16,
                                    )
                                    .map_err(|_| self.error("bad surrogate"))?;
                                    self.pos += 6;
                                    0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00)
                                } else {
                                    return Err(self.error("lone surrogate"));
                                }
                            } else {
                                code
                            };
                            out.push(
                                char::from_u32(ch)
                                    .ok_or_else(|| self.error("invalid codepoint"))?,
                            );
                        }
                        other => {
                            return Err(self.error(&format!("unknown escape `\\{}`", other as char)))
                        }
                    }
                }
                Some(_) => {
                    // Copy the maximal run of plain bytes in one step; the
                    // input arrived as `&str`, so a run without `"` or `\`
                    // is valid UTF-8 verbatim (validated on the run, not
                    // the whole remaining input — that was quadratic).
                    let start = self.pos;
                    while let Some(&b) = self.bytes.get(self.pos) {
                        if b == b'"' || b == b'\\' {
                            break;
                        }
                        self.pos += 1;
                    }
                    let run = std::str::from_utf8(&self.bytes[start..self.pos])
                        .map_err(|_| self.error("invalid UTF-8"))?;
                    out.push_str(run);
                }
            }
        }
    }

    fn parse_number(&mut self) -> Result<Value> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut is_float = false;
        while let Some(b) = self.peek() {
            match b {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    is_float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.error("invalid number"))?;
        if is_float {
            text.parse::<f64>()
                .map(Value::Float)
                .map_err(|_| self.error("invalid float"))
        } else if let Ok(i) = text.parse::<i64>() {
            Ok(Value::Int(i))
        } else {
            text.parse::<u64>()
                .map(Value::UInt)
                .map_err(|_| self.error("invalid integer"))
        }
    }
}

/// Parses JSON text into any deserializable type.
///
/// # Errors
///
/// Malformed JSON or a shape mismatch.
pub fn from_str<T: Deserialize>(text: &str) -> Result<T> {
    let mut parser = Parser::new(text);
    let value = parser.parse_value()?;
    parser.skip_ws();
    if parser.pos != parser.bytes.len() {
        return Err(parser.error("trailing characters"));
    }
    Ok(T::from_value(&value)?)
}

/// Reconstructs a typed value from a value tree.
///
/// # Errors
///
/// Shape mismatch.
pub fn from_value<T: Deserialize>(value: &Value) -> Result<T> {
    Ok(T::from_value(value)?)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn float_roundtrip_is_exact() {
        for v in [0.1, 1.0 / 3.0, f64::MIN_POSITIVE, 1e300, -2.5e-7, 0.0] {
            let text = to_string(&v).unwrap();
            let back: f64 = from_str(&text).unwrap();
            assert_eq!(v.to_bits(), back.to_bits(), "{text}");
        }
    }

    #[test]
    fn string_escapes_roundtrip() {
        let s = "line\nbreak \"quoted\" back\\slash \t tab \u{1}ctrl 💡".to_string();
        let text = to_string(&s).unwrap();
        let back: String = from_str(&text).unwrap();
        assert_eq!(s, back);
    }

    #[test]
    fn pretty_output_shape() {
        let v = Value::Object(vec![
            ("a".into(), Value::Int(1)),
            (
                "b".into(),
                Value::Array(vec![Value::Bool(true), Value::Null]),
            ),
        ]);
        let mut out = String::new();
        super::write_value(&mut out, &v, Some(2), 0);
        assert_eq!(
            out,
            "{\n  \"a\": 1,\n  \"b\": [\n    true,\n    null\n  ]\n}"
        );
    }

    #[test]
    fn parses_nested_structures() {
        let v: Value = Parser::new(" { \"xs\" : [1, -2, 3.5, 1e3], \"ok\": false } ")
            .parse_value()
            .unwrap();
        let xs = v.field("xs").unwrap().as_array().unwrap();
        assert_eq!(xs.len(), 4);
        assert_eq!(xs[0], Value::Int(1));
        assert_eq!(xs[1], Value::Int(-2));
        assert_eq!(xs[2], Value::Float(3.5));
        assert_eq!(xs[3], Value::Float(1000.0));
        assert_eq!(v.field("ok").unwrap(), &Value::Bool(false));
    }

    #[test]
    fn rejects_malformed_input() {
        assert!(from_str::<f64>("").is_err());
        assert!(from_str::<f64>("1.0 trailing").is_err());
        assert!(from_str::<Vec<f64>>("[1,").is_err());
        assert!(from_str::<String>("\"unterminated").is_err());
    }

    #[test]
    fn unicode_escape_parsing() {
        let back: String = from_str("\"\\u00e9\\ud83d\\udca1\"").unwrap();
        assert_eq!(back, "é💡");
    }
}
