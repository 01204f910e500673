//! A minimal JSON value model, parser and writer.
//!
//! Hand-rolled (like the PPM writers in `visdb-render`) because the build
//! environment has no registry access for `serde`; the newline-delimited
//! protocol of `visdb-server` only needs flat objects with strings,
//! numbers and booleans, but the implementation is a complete JSON
//! subset: nested arrays/objects, escape sequences, and `\uXXXX` code
//! points (surrogate pairs included).

use std::collections::BTreeMap;
use std::fmt;

use visdb_types::{Error, Result};

/// A JSON value. Objects keep sorted key order (deterministic output).
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any JSON number (parsed as `f64`).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object.
    Obj(BTreeMap<String, Json>),
}

impl Json {
    /// Object field lookup; `None` for missing keys or non-objects.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(m) => m.get(key),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The numeric payload as a non-negative integer.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= u64::MAX as f64 => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    /// The boolean payload, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Build an object from key/value pairs.
    pub fn obj(pairs: impl IntoIterator<Item = (&'static str, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }
}

impl From<&str> for Json {
    fn from(s: &str) -> Self {
        Json::Str(s.to_string())
    }
}

impl From<String> for Json {
    fn from(s: String) -> Self {
        Json::Str(s)
    }
}

impl From<f64> for Json {
    fn from(n: f64) -> Self {
        Json::Num(n)
    }
}

impl From<u64> for Json {
    fn from(n: u64) -> Self {
        Json::Num(n as f64)
    }
}

impl From<usize> for Json {
    fn from(n: usize) -> Self {
        Json::Num(n as f64)
    }
}

impl From<bool> for Json {
    fn from(b: bool) -> Self {
        Json::Bool(b)
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Json::Null => f.write_str("null"),
            Json::Bool(b) => write!(f, "{b}"),
            Json::Num(n) => {
                if !n.is_finite() {
                    // JSON has no NaN/Infinity; match JavaScript's
                    // JSON.stringify and emit null rather than break the
                    // output line
                    f.write_str("null")
                } else if n.fract() == 0.0 && n.abs() < 1e15 {
                    write!(f, "{}", *n as i64)
                } else {
                    write!(f, "{n}")
                }
            }
            Json::Str(s) => write_escaped(f, s),
            Json::Arr(items) => {
                f.write_str("[")?;
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write!(f, "{v}")?;
                }
                f.write_str("]")
            }
            Json::Obj(map) => {
                f.write_str("{")?;
                for (i, (k, v)) in map.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write_escaped(f, k)?;
                    write!(f, ":{v}")?;
                }
                f.write_str("}")
            }
        }
    }
}

fn write_escaped(f: &mut fmt::Formatter<'_>, s: &str) -> fmt::Result {
    f.write_str("\"")?;
    for c in s.chars() {
        match c {
            '"' => f.write_str("\\\"")?,
            '\\' => f.write_str("\\\\")?,
            '\n' => f.write_str("\\n")?,
            '\r' => f.write_str("\\r")?,
            '\t' => f.write_str("\\t")?,
            c if (c as u32) < 0x20 => write!(f, "\\u{:04x}", c as u32)?,
            c => write!(f, "{c}")?,
        }
    }
    f.write_str("\"")
}

/// Deepest array/object nesting [`parse`] accepts. The parser is
/// recursive descent, so an unbounded `[[[[…` line from the wire would
/// overflow the stack — an abort no `catch_unwind` can contain. No
/// protocol message nests deeper than a handful of levels.
pub const MAX_DEPTH: usize = 128;

/// Longest protocol line the server parses (16 MiB): a line is held
/// whole in memory and its parse tree is a multiple of it, so the wire
/// must not decide how much that is. Hundreds of times the largest line
/// the load harness sends (a 200-row `append_rows`, a few tens of KB).
pub const MAX_LINE_BYTES: usize = 16 << 20;

/// Parse one JSON document (trailing whitespace allowed, nothing else).
pub fn parse(src: &str) -> Result<Json> {
    let mut p = Parser {
        bytes: src.as_bytes(),
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(Error::parse(format!(
            "trailing characters at byte {} of JSON input",
            p.pos
        )));
    }
    Ok(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays/objects currently open around `pos`.
    depth: usize,
}

impl Parser<'_> {
    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<()> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(Error::parse(format!(
                "expected '{}' at byte {} of JSON input",
                b as char, self.pos
            )))
        }
    }

    fn eat_literal(&mut self, lit: &str) -> bool {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            true
        } else {
            false
        }
    }

    fn value(&mut self) -> Result<Json> {
        self.skip_ws();
        match self.peek() {
            Some(b'n') if self.eat_literal("null") => Ok(Json::Null),
            Some(b't') if self.eat_literal("true") => Ok(Json::Bool(true)),
            Some(b'f') if self.eat_literal("false") => Ok(Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'[') => self.nested(Self::array),
            Some(b'{') => self.nested(Self::object),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(Error::parse(format!(
                "unexpected JSON input at byte {}",
                self.pos
            ))),
        }
    }

    /// Parse one array/object, refusing to descend past [`MAX_DEPTH`].
    fn nested(&mut self, parse: fn(&mut Self) -> Result<Json>) -> Result<Json> {
        if self.depth == MAX_DEPTH {
            return Err(Error::parse(format!(
                "JSON nested deeper than {MAX_DEPTH} levels at byte {}",
                self.pos
            )));
        }
        self.depth += 1;
        let v = parse(self);
        self.depth -= 1;
        v
    }

    fn array(&mut self) -> Result<Json> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(Error::parse("expected ',' or ']' in JSON array")),
            }
        }
    }

    fn object(&mut self) -> Result<Json> {
        self.expect(b'{')?;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(map));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            map.insert(key, self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(map));
                }
                _ => return Err(Error::parse("expected ',' or '}' in JSON object")),
            }
        }
    }

    fn string(&mut self) -> Result<String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            while let Some(c) = self.peek() {
                if c == b'"' || c == b'\\' {
                    break;
                }
                self.pos += 1;
            }
            out.push_str(
                std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| Error::parse("invalid UTF-8 in JSON string"))?,
            );
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    out.push(self.escape()?);
                }
                None => return Err(Error::parse("unterminated JSON string")),
                _ => unreachable!("loop stops only at quote or backslash"),
            }
        }
    }

    fn escape(&mut self) -> Result<char> {
        let c = self
            .peek()
            .ok_or_else(|| Error::parse("unterminated JSON escape"))?;
        self.pos += 1;
        Ok(match c {
            b'"' => '"',
            b'\\' => '\\',
            b'/' => '/',
            b'b' => '\u{8}',
            b'f' => '\u{c}',
            b'n' => '\n',
            b'r' => '\r',
            b't' => '\t',
            b'u' => {
                let hi = self.hex4()?;
                // decode surrogate pairs; lone surrogates are an error
                if (0xD800..0xDC00).contains(&hi) {
                    if !self.eat_literal("\\u") {
                        return Err(Error::parse("lone high surrogate in JSON string"));
                    }
                    let lo = self.hex4()?;
                    if !(0xDC00..0xE000).contains(&lo) {
                        return Err(Error::parse("invalid low surrogate in JSON string"));
                    }
                    let cp = 0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00);
                    char::from_u32(cp).ok_or_else(|| Error::parse("invalid JSON code point"))?
                } else {
                    char::from_u32(hi).ok_or_else(|| Error::parse("invalid JSON code point"))?
                }
            }
            _ => return Err(Error::parse("unknown JSON escape sequence")),
        })
    }

    fn hex4(&mut self) -> Result<u32> {
        if self.pos + 4 > self.bytes.len() {
            return Err(Error::parse("truncated \\u escape in JSON string"));
        }
        let s = std::str::from_utf8(&self.bytes[self.pos..self.pos + 4])
            .map_err(|_| Error::parse("invalid \\u escape in JSON string"))?;
        self.pos += 4;
        u32::from_str_radix(s, 16).map_err(|_| Error::parse("invalid \\u escape in JSON string"))
    }

    fn number(&mut self) -> Result<Json> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit() || matches!(c, b'.' | b'e' | b'E' | b'+' | b'-'))
        {
            self.pos += 1;
        }
        let s = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| Error::parse("invalid JSON number"))?;
        match s.parse::<f64>() {
            // overflowing literals like 1e999 parse to infinity, which
            // could not be re-serialized as valid JSON — reject them
            Ok(n) if n.is_finite() => Ok(Json::Num(n)),
            Ok(_) => Err(Error::parse(format!("JSON number '{s}' out of range"))),
            Err(_) => Err(Error::parse(format!("invalid JSON number '{s}'"))),
        }
    }
}

/// Standard base64 (no line breaks), for binary payloads in JSON.
pub fn base64_encode(bytes: &[u8]) -> String {
    const TABLE: &[u8; 64] = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/";
    let mut out = String::with_capacity(bytes.len().div_ceil(3) * 4);
    for chunk in bytes.chunks(3) {
        let b = [
            chunk[0],
            *chunk.get(1).unwrap_or(&0),
            *chunk.get(2).unwrap_or(&0),
        ];
        let n = u32::from_be_bytes([0, b[0], b[1], b[2]]);
        out.push(TABLE[(n >> 18) as usize & 63] as char);
        out.push(TABLE[(n >> 12) as usize & 63] as char);
        out.push(if chunk.len() > 1 {
            TABLE[(n >> 6) as usize & 63] as char
        } else {
            '='
        });
        out.push(if chunk.len() > 2 {
            TABLE[n as usize & 63] as char
        } else {
            '='
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_nested_values() {
        let src = r#"{"a": [1, 2.5, -3e2], "b": {"c": null, "d": true}, "s": "x"}"#;
        let v = parse(src).unwrap();
        assert_eq!(
            v.get("a").unwrap(),
            &Json::Arr(vec![Json::Num(1.0), Json::Num(2.5), Json::Num(-300.0)])
        );
        assert_eq!(v.get("b").unwrap().get("d").unwrap().as_bool(), Some(true));
        // serialized form parses back to the same value
        assert_eq!(parse(&v.to_string()).unwrap(), v);
    }

    #[test]
    fn escapes_round_trip() {
        let v = Json::Str("line\nquote\"back\\slash\ttab\u{1}".into());
        let s = v.to_string();
        assert_eq!(parse(&s).unwrap(), v);
        // unicode escapes including a surrogate pair
        let v = parse(r#""\u0041\u00e9\ud83d\ude00""#).unwrap();
        assert_eq!(v.as_str(), Some("Aé😀"));
    }

    #[test]
    fn integers_print_without_fraction() {
        assert_eq!(Json::Num(42.0).to_string(), "42");
        assert_eq!(Json::Num(2.5).to_string(), "2.5");
        assert_eq!(Json::from(7usize).as_u64(), Some(7));
        assert_eq!(Json::Num(-1.0).as_u64(), None);
    }

    #[test]
    fn non_finite_numbers_never_produce_invalid_json() {
        // overflowing literals are rejected at parse time...
        assert!(parse("1e999").is_err());
        assert!(parse(r#"{"id":-1e999}"#).is_err());
        // ...and programmatically-built non-finite values serialize as
        // null, so an output line always re-parses
        for n in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let line = Json::obj([("id", Json::Num(n))]).to_string();
            assert_eq!(line, r#"{"id":null}"#);
            assert!(parse(&line).is_ok());
        }
    }

    #[test]
    fn malformed_inputs_are_errors_not_panics() {
        for bad in [
            "",
            "{",
            "[1,",
            "\"abc",
            "{\"a\"}",
            "nul",
            "1x",
            "{}extra",
            "\"\\q\"",
            "\"\\ud800\"",
            "\"\\u12\"",
        ] {
            assert!(parse(bad).is_err(), "should reject {bad:?}");
        }
    }

    #[test]
    fn base64_known_vectors() {
        assert_eq!(base64_encode(b""), "");
        assert_eq!(base64_encode(b"f"), "Zg==");
        assert_eq!(base64_encode(b"fo"), "Zm8=");
        assert_eq!(base64_encode(b"foo"), "Zm9v");
        assert_eq!(base64_encode(b"foobar"), "Zm9vYmFy");
    }
}
