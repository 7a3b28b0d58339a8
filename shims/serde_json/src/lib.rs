//! Offline stand-in for the `serde_json` crate.
//!
//! Serializes the shim `serde` crate's [`Content`] tree to JSON text and
//! parses JSON text back into a content tree. Covers the API surface the
//! workspace uses: `to_string`, `to_string_pretty`, `from_str`, `Error`, and
//! an owned [`Value`] with indexing / `as_array` accessors.
//!
//! Conventions matching real serde_json where the workspace depends on them:
//! non-string map keys (integer ids) are written as quoted strings and parse
//! back through the integer impls' string fallback; `f64` values print in
//! Rust's shortest round-trip form, so `report == from_str(to_string(report))`
//! holds exactly.

use serde::{Content, Deserialize, Deserializer, Serialize};
use std::fmt;

/// Serialization/deserialization failure.
pub struct Error {
    msg: String,
}

impl Error {
    fn new(msg: impl Into<String>) -> Self {
        Self { msg: msg.into() }
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.msg)
    }
}

impl fmt::Debug for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Error({})", self.msg)
    }
}

impl std::error::Error for Error {}

impl serde::de::Error for Error {
    fn custom<T: fmt::Display>(msg: T) -> Self {
        Self::new(msg.to_string())
    }
}

impl serde::ser::Error for Error {
    fn custom<T: fmt::Display>(msg: T) -> Self {
        Self::new(msg.to_string())
    }
}

// ---------------------------------------------------------------------------
// Writing
// ---------------------------------------------------------------------------

fn write_escaped(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

fn write_f64(v: f64, out: &mut String) {
    if v.is_finite() {
        // Rust's Display for f64 is shortest-round-trip.
        out.push_str(&v.to_string());
    } else {
        // Real serde_json refuses non-finite floats; the workspace never
        // produces them, so map to null rather than fail a whole report.
        out.push_str("null");
    }
}

fn write_key(key: &Content, out: &mut String) -> Result<(), Error> {
    match key {
        Content::Str(s) => write_escaped(s, out),
        Content::U64(v) => write_escaped(&v.to_string(), out),
        Content::I64(v) => write_escaped(&v.to_string(), out),
        Content::F64(v) => write_escaped(&v.to_string(), out),
        Content::Bool(v) => write_escaped(&v.to_string(), out),
        other => {
            return Err(Error::new(format!(
                "map key must be a scalar, found {other:?}"
            )))
        }
    }
    Ok(())
}

fn write_content(
    content: &Content,
    out: &mut String,
    pretty: bool,
    level: usize,
) -> Result<(), Error> {
    const INDENT: &str = "  ";
    match content {
        Content::Null => out.push_str("null"),
        Content::Bool(v) => out.push_str(if *v { "true" } else { "false" }),
        Content::U64(v) => out.push_str(&v.to_string()),
        Content::I64(v) => out.push_str(&v.to_string()),
        Content::F64(v) => write_f64(*v, out),
        Content::Str(s) => write_escaped(s, out),
        Content::Seq(items) => {
            if items.is_empty() {
                out.push_str("[]");
                return Ok(());
            }
            out.push('[');
            for (ix, item) in items.iter().enumerate() {
                if ix > 0 {
                    out.push(',');
                }
                if pretty {
                    out.push('\n');
                    out.push_str(&INDENT.repeat(level + 1));
                }
                write_content(item, out, pretty, level + 1)?;
            }
            if pretty {
                out.push('\n');
                out.push_str(&INDENT.repeat(level));
            }
            out.push(']');
        }
        Content::Map(entries) => {
            if entries.is_empty() {
                out.push_str("{}");
                return Ok(());
            }
            out.push('{');
            for (ix, (key, value)) in entries.iter().enumerate() {
                if ix > 0 {
                    out.push(',');
                }
                if pretty {
                    out.push('\n');
                    out.push_str(&INDENT.repeat(level + 1));
                }
                write_key(key, out)?;
                out.push(':');
                if pretty {
                    out.push(' ');
                }
                write_content(value, out, pretty, level + 1)?;
            }
            if pretty {
                out.push('\n');
                out.push_str(&INDENT.repeat(level));
            }
            out.push('}');
        }
    }
    Ok(())
}

/// Renders `value` as compact JSON.
pub fn to_string<T: Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    write_content(&serde::ser::to_content(value), &mut out, false, 0)?;
    Ok(out)
}

/// Renders `value` as human-readable two-space-indented JSON.
pub fn to_string_pretty<T: Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    write_content(&serde::ser::to_content(value), &mut out, true, 0)?;
    Ok(out)
}

// ---------------------------------------------------------------------------
// Parsing
// ---------------------------------------------------------------------------

/// Arrays and objects a parsed document may nest: upstream's default
/// recursion limit. `parse_value` recurses once per level, so the bound
/// keeps hostile input from overflowing the stack.
const RECURSION_LIMIT: usize = 128;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects open at `pos`.
    depth: usize,
}

impl<'a> Parser<'a> {
    fn new(input: &'a str) -> Self {
        Self {
            bytes: input.as_bytes(),
            pos: 0,
            depth: 0,
        }
    }

    /// Enters an array or object, failing past [`RECURSION_LIMIT`].
    fn enter(&mut self) -> Result<(), Error> {
        if self.depth == RECURSION_LIMIT {
            return Err(self.error("recursion limit exceeded"));
        }
        self.depth += 1;
        self.pos += 1;
        Ok(())
    }

    fn error(&self, msg: &str) -> Error {
        Error::new(format!("{msg} at byte {}", self.pos))
    }

    fn skip_ws(&mut self) {
        while matches!(self.bytes.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
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
            Err(self.error(&format!("expected `{}`", b as char)))
        }
    }

    fn expect_literal(&mut self, lit: &str) -> Result<(), Error> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(())
        } else {
            Err(self.error(&format!("expected `{lit}`")))
        }
    }

    fn parse_value(&mut self) -> Result<Content, Error> {
        self.skip_ws();
        match self.peek() {
            Some(b'n') => {
                self.expect_literal("null")?;
                Ok(Content::Null)
            }
            Some(b't') => {
                self.expect_literal("true")?;
                Ok(Content::Bool(true))
            }
            Some(b'f') => {
                self.expect_literal("false")?;
                Ok(Content::Bool(false))
            }
            Some(b'"') => self.parse_string().map(Content::Str),
            Some(b'[') => {
                self.enter()?;
                let mut items = Vec::new();
                self.skip_ws();
                if self.peek() == Some(b']') {
                    self.pos += 1;
                    self.depth -= 1;
                    return Ok(Content::Seq(items));
                }
                loop {
                    items.push(self.parse_value()?);
                    self.skip_ws();
                    match self.peek() {
                        Some(b',') => self.pos += 1,
                        Some(b']') => {
                            self.pos += 1;
                            self.depth -= 1;
                            return Ok(Content::Seq(items));
                        }
                        _ => return Err(self.error("expected `,` or `]`")),
                    }
                }
            }
            Some(b'{') => {
                self.enter()?;
                let mut entries = Vec::new();
                self.skip_ws();
                if self.peek() == Some(b'}') {
                    self.pos += 1;
                    self.depth -= 1;
                    return Ok(Content::Map(entries));
                }
                loop {
                    self.skip_ws();
                    let key = self.parse_string()?;
                    self.skip_ws();
                    self.expect(b':')?;
                    let value = self.parse_value()?;
                    entries.push((Content::Str(key), value));
                    self.skip_ws();
                    match self.peek() {
                        Some(b',') => self.pos += 1,
                        Some(b'}') => {
                            self.pos += 1;
                            self.depth -= 1;
                            return Ok(Content::Map(entries));
                        }
                        _ => return Err(self.error("expected `,` or `}`")),
                    }
                }
            }
            Some(b'-' | b'0'..=b'9') => self.parse_number(),
            _ => Err(self.error("unexpected character")),
        }
    }

    fn parse_string(&mut self) -> Result<String, Error> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            // Fast path: raw UTF-8 run up to the next quote or escape.
            while let Some(b) = self.peek() {
                if b == b'"' || b == b'\\' || b < 0x20 {
                    break;
                }
                self.pos += 1;
            }
            out.push_str(
                std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| self.error("invalid UTF-8"))?,
            );
            match self.peek() {
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
                        Some(b'b') => out.push('\u{0008}'),
                        Some(b'f') => out.push('\u{000C}'),
                        Some(b'u') => {
                            self.pos += 1;
                            let hi = self.parse_hex4()?;
                            let c = if (0xD800..0xDC00).contains(&hi) {
                                // Surrogate pair.
                                self.expect(b'\\')?;
                                self.expect(b'u')?;
                                let lo = self.parse_hex4()?;
                                if !(0xDC00..0xE000).contains(&lo) {
                                    return Err(self.error("invalid surrogate pair"));
                                }
                                char::from_u32(0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00))
                                    .ok_or_else(|| self.error("invalid surrogate pair"))?
                            } else {
                                char::from_u32(hi)
                                    .ok_or_else(|| self.error("invalid \\u escape"))?
                            };
                            out.push(c);
                            continue;
                        }
                        _ => return Err(self.error("invalid escape")),
                    }
                    self.pos += 1;
                }
                _ => return Err(self.error("unterminated string")),
            }
        }
    }

    fn parse_hex4(&mut self) -> Result<u32, Error> {
        let end = self.pos + 4;
        let digits = self
            .bytes
            .get(self.pos..end)
            .ok_or_else(|| self.error("truncated \\u escape"))?;
        // Hex digits only: `from_str_radix` would also take a leading `+`.
        let mut v = 0;
        for &d in digits {
            let nibble = (d as char)
                .to_digit(16)
                .ok_or_else(|| self.error("invalid \\u escape"))?;
            v = v << 4 | nibble;
        }
        self.pos = end;
        Ok(v)
    }

    fn parse_number(&mut self) -> Result<Content, Error> {
        let start = self.pos;
        let mut is_float = false;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while let Some(b) = self.peek() {
            match b {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' => {
                    is_float = true;
                    self.pos += 1;
                }
                b'+' | b'-' if is_float => self.pos += 1,
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.error("invalid number"))?;
        if is_float {
            text.parse::<f64>()
                .map(Content::F64)
                .map_err(|_| self.error("invalid number"))
        } else if let Some(stripped) = text.strip_prefix('-') {
            let _ = stripped;
            text.parse::<i64>()
                .map(Content::I64)
                .or_else(|_| text.parse::<f64>().map(Content::F64))
                .map_err(|_| self.error("invalid number"))
        } else {
            text.parse::<u64>()
                .map(Content::U64)
                .or_else(|_| text.parse::<f64>().map(Content::F64))
                .map_err(|_| self.error("invalid number"))
        }
    }
}

fn parse_content(input: &str) -> Result<Content, Error> {
    let mut parser = Parser::new(input);
    let value = parser.parse_value()?;
    parser.skip_ws();
    if parser.pos != parser.bytes.len() {
        return Err(parser.error("trailing characters"));
    }
    Ok(value)
}

/// Parses a value from JSON text.
pub fn from_str<'a, T: Deserialize<'a>>(input: &'a str) -> Result<T, Error> {
    T::deserialize(serde::de::ContentDeserializer::<Error>::new(parse_content(
        input,
    )?))
}

// ---------------------------------------------------------------------------
// Value
// ---------------------------------------------------------------------------

/// An owned, dynamically-typed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (normalized to `f64` for comparisons).
    Number(f64),
    /// A string.
    String(String),
    /// An array.
    Array(Vec<Value>),
    /// An object, insertion-ordered.
    Object(Vec<(String, Value)>),
}

impl Value {
    fn from_content(content: Content) -> Result<Self, Error> {
        Ok(match content {
            Content::Null => Value::Null,
            Content::Bool(v) => Value::Bool(v),
            Content::U64(v) => Value::Number(v as f64),
            Content::I64(v) => Value::Number(v as f64),
            Content::F64(v) => Value::Number(v),
            Content::Str(s) => Value::String(s),
            Content::Seq(items) => Value::Array(
                items
                    .into_iter()
                    .map(Value::from_content)
                    .collect::<Result<_, _>>()?,
            ),
            Content::Map(entries) => Value::Object(
                entries
                    .into_iter()
                    .map(|(k, v)| {
                        let key = match k {
                            Content::Str(s) => s,
                            Content::U64(v) => v.to_string(),
                            Content::I64(v) => v.to_string(),
                            other => return Err(Error::new(format!("bad object key {other:?}"))),
                        };
                        Ok((key, Value::from_content(v)?))
                    })
                    .collect::<Result<_, _>>()?,
            ),
        })
    }

    /// Member lookup; `None` when not an object or key absent.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(entries) => entries.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The array contents, when this is an array.
    pub fn as_array(&self) -> Option<&Vec<Value>> {
        match self {
            Value::Array(items) => Some(items),
            _ => None,
        }
    }

    /// The string contents, when this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric value, when this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Number(v) => Some(*v),
            _ => None,
        }
    }

    /// The integer value, when this is a non-negative integral number.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Number(v) if v.fract() == 0.0 && *v >= 0.0 => Some(*v as u64),
            _ => None,
        }
    }

    /// The boolean value, when this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(v) => Some(*v),
            _ => None,
        }
    }
}

static NULL_VALUE: Value = Value::Null;

impl std::ops::Index<&str> for Value {
    type Output = Value;
    fn index(&self, key: &str) -> &Value {
        self.get(key).unwrap_or(&NULL_VALUE)
    }
}

impl std::ops::Index<usize> for Value {
    type Output = Value;
    fn index(&self, ix: usize) -> &Value {
        self.as_array()
            .and_then(|items| items.get(ix))
            .unwrap_or(&NULL_VALUE)
    }
}

impl PartialEq<&str> for Value {
    fn eq(&self, other: &&str) -> bool {
        self.as_str() == Some(*other)
    }
}

impl PartialEq<str> for Value {
    fn eq(&self, other: &str) -> bool {
        self.as_str() == Some(other)
    }
}

impl PartialEq<Value> for &str {
    fn eq(&self, other: &Value) -> bool {
        other.as_str() == Some(*self)
    }
}

impl<'de> Deserialize<'de> for Value {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        Value::from_content(deserializer.deserialize_content()?)
            .map_err(|e| serde::de::Error::custom(e.msg))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    #[test]
    fn scalars_round_trip() {
        assert_eq!(to_string(&42u64).unwrap(), "42");
        assert_eq!(from_str::<u64>("42").unwrap(), 42);
        assert_eq!(to_string(&-3i32).unwrap(), "-3");
        assert_eq!(from_str::<i32>("-3").unwrap(), -3);
        assert_eq!(to_string(&true).unwrap(), "true");
        assert_eq!(to_string(&"a \"b\"\n").unwrap(), r#""a \"b\"\n""#);
        assert_eq!(from_str::<String>(r#""a \"b\"\n""#).unwrap(), "a \"b\"\n");
    }

    #[test]
    fn floats_round_trip_exactly() {
        for v in [0.1, 0.8 * 0.8, 1.0 / 3.0, 1e-12, 123456.789, -2.5e10] {
            let json = to_string(&v).unwrap();
            assert_eq!(from_str::<f64>(&json).unwrap(), v, "via {json}");
        }
        // Integral floats print as integers and still deserialize as f64.
        assert_eq!(to_string(&2.0f64).unwrap(), "2");
        assert_eq!(from_str::<f64>("2").unwrap(), 2.0);
    }

    #[test]
    fn collections_round_trip() {
        let v = vec![1u32, 2, 3];
        assert_eq!(to_string(&v).unwrap(), "[1,2,3]");
        assert_eq!(from_str::<Vec<u32>>("[1,2,3]").unwrap(), v);

        let m: HashMap<u32, String> = [(7, "x".to_owned())].into_iter().collect();
        let json = to_string(&m).unwrap();
        assert_eq!(json, r#"{"7":"x"}"#);
        assert_eq!(from_str::<HashMap<u32, String>>(&json).unwrap(), m);
    }

    #[test]
    fn unicode_and_escapes_parse() {
        assert_eq!(from_str::<String>(r#""Aé""#).unwrap(), "Aé");
        assert_eq!(from_str::<String>(r#""😀""#).unwrap(), "😀");
        assert_eq!(from_str::<String>("\"héllo\"").unwrap(), "héllo");
    }

    #[test]
    fn pretty_output_parses_back() {
        let v = vec![(1u32, "a".to_owned()), (2, "b".to_owned())];
        let pretty = to_string_pretty(&v).unwrap();
        assert!(pretty.contains('\n'));
        assert_eq!(from_str::<Vec<(u32, String)>>(&pretty).unwrap(), v);
    }

    #[test]
    fn value_indexing() {
        let v: Value = from_str(r#"{"name":"x","items":[1,2],"n":3}"#).unwrap();
        assert_eq!(v["name"], "x");
        assert_eq!(v["items"].as_array().unwrap().len(), 2);
        assert_eq!(v["n"].as_u64(), Some(3));
        assert_eq!(v["missing"], Value::Null);
    }

    #[test]
    fn nesting_is_bounded_at_the_recursion_limit() {
        let nested = |depth: usize| format!("{}{}", "[".repeat(depth), "]".repeat(depth));
        let v: Value = from_str(&nested(RECURSION_LIMIT)).unwrap();
        assert!(v.as_array().is_some());
        let e = from_str::<Value>(&nested(RECURSION_LIMIT + 1)).unwrap_err();
        assert!(e.to_string().contains("recursion limit exceeded"), "{e}");
        let objects = |depth: usize| format!("{}1{}", r#"{"a":"#.repeat(depth), "}".repeat(depth));
        assert!(from_str::<Value>(&objects(RECURSION_LIMIT)).is_ok());
        assert!(from_str::<Value>(&objects(RECURSION_LIMIT + 1)).is_err());
        // Siblings do not add up: only open containers count.
        let wide = format!("[{}]", vec![nested(RECURSION_LIMIT - 1); 3].join(","));
        assert!(from_str::<Value>(&wide).is_ok());
        // Far past the limit, on a default-stack thread: an error, not an
        // overflow.
        std::thread::spawn(|| assert!(from_str::<Value>(&"[".repeat(1 << 20)).is_err()))
            .join()
            .unwrap();
    }

    #[test]
    fn unicode_escapes_are_strict() {
        assert_eq!(
            from_str::<String>(r#""\u0041\ud83d\ude00""#).unwrap(),
            "A😀"
        );
        assert!(from_str::<String>(r#""\u+041""#).is_err());
        assert!(from_str::<String>(r#""\ud83d\u0041""#).is_err());
        assert!(from_str::<String>(r#""\ud83d\ue000""#).is_err());
        assert!(from_str::<String>(r#""\udc00""#).is_err());
    }

    #[test]
    fn parse_errors_are_reported() {
        assert!(from_str::<u64>("").is_err());
        assert!(from_str::<u64>("12trailing").is_err());
        assert!(from_str::<Vec<u32>>("[1,2").is_err());
        assert!(from_str::<String>("\"open").is_err());
    }
}
