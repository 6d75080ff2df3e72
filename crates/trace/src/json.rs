//! A minimal, dependency-free JSON writer and syntax checker.
//!
//! The writer produces deterministic output (field order is exactly
//! the call order; floats use Rust's shortest round-trip formatting).
//! [`parse`] is the workspace's one JSON reader: a strict
//! recursive-descent parser into a [`JsonValue`] whose objects keep
//! source order. [`check`] is `parse` plus a value count; the Chrome
//! schema validator, the bench regression gate and CI's artifact gates
//! all read through it.

use std::fmt::Write as _;

/// Escapes `s` into a JSON string literal (quotes included).
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
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
    out
}

/// Formats an `f64` as a JSON number (JSON has no NaN/inf; those map
/// to `null`).
pub fn number(v: f64) -> String {
    if v.is_finite() {
        if v == v.trunc() && v.abs() < 1e15 {
            // Integral values print without a fraction for stability
            // across platforms.
            format!("{}", v as i64)
        } else {
            format!("{v}")
        }
    } else {
        "null".to_string()
    }
}

/// An append-only JSON builder. No nesting bookkeeping beyond a stack
/// of "needs comma" flags — callers pair `open_*`/`close_*` correctly
/// (debug-asserted).
#[derive(Debug, Default)]
pub struct JsonWriter {
    buf: String,
    needs_comma: Vec<bool>,
}

impl JsonWriter {
    /// An empty writer.
    pub fn new() -> Self {
        JsonWriter::default()
    }

    fn pre_value(&mut self) {
        if let Some(last) = self.needs_comma.last_mut() {
            if *last {
                self.buf.push(',');
            }
            *last = true;
        }
    }

    /// Opens an object (`{`) as the next value.
    pub fn open_object(&mut self) -> &mut Self {
        self.pre_value();
        self.buf.push('{');
        self.needs_comma.push(false);
        self
    }

    /// Closes the innermost object.
    pub fn close_object(&mut self) -> &mut Self {
        let open = self.needs_comma.pop();
        debug_assert!(open.is_some(), "unbalanced close_object");
        self.buf.push('}');
        self
    }

    /// Opens an array (`[`) as the next value.
    pub fn open_array(&mut self) -> &mut Self {
        self.pre_value();
        self.buf.push('[');
        self.needs_comma.push(false);
        self
    }

    /// Closes the innermost array.
    pub fn close_array(&mut self) -> &mut Self {
        let open = self.needs_comma.pop();
        debug_assert!(open.is_some(), "unbalanced close_array");
        self.buf.push(']');
        self
    }

    /// Writes an object key; the next call writes its value.
    pub fn key(&mut self, k: &str) -> &mut Self {
        self.pre_value();
        self.buf.push_str(&escape(k));
        self.buf.push(':');
        // The key consumed the comma slot; its value must not add one.
        if let Some(last) = self.needs_comma.last_mut() {
            *last = false;
        }
        self
    }

    /// Writes a string value.
    pub fn string(&mut self, v: &str) -> &mut Self {
        self.pre_value();
        self.buf.push_str(&escape(v));
        self
    }

    /// Writes an integer value.
    pub fn int(&mut self, v: i64) -> &mut Self {
        self.pre_value();
        let _ = write!(self.buf, "{v}");
        self
    }

    /// Writes an unsigned integer value.
    pub fn uint(&mut self, v: u64) -> &mut Self {
        self.pre_value();
        let _ = write!(self.buf, "{v}");
        self
    }

    /// Writes a float value.
    pub fn float(&mut self, v: f64) -> &mut Self {
        self.pre_value();
        self.buf.push_str(&number(v));
        self
    }

    /// Writes a boolean value.
    pub fn bool(&mut self, v: bool) -> &mut Self {
        self.pre_value();
        self.buf.push_str(if v { "true" } else { "false" });
        self
    }

    /// Convenience: `key` followed by a string value.
    pub fn field_str(&mut self, k: &str, v: &str) -> &mut Self {
        self.key(k).string(v)
    }

    /// Convenience: `key` followed by an unsigned value.
    pub fn field_uint(&mut self, k: &str, v: u64) -> &mut Self {
        self.key(k).uint(v)
    }

    /// Convenience: `key` followed by a float value.
    pub fn field_float(&mut self, k: &str, v: f64) -> &mut Self {
        self.key(k).float(v)
    }

    /// The accumulated JSON text.
    pub fn finish(self) -> String {
        debug_assert!(self.needs_comma.is_empty(), "unclosed containers");
        self.buf
    }
}

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number, held as `f64`.
    Number(f64),
    /// A string.
    String(String),
    /// An array.
    Array(Vec<JsonValue>),
    /// An object; pairs in source order, keys assumed unique.
    Object(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Member `key` of an object, if present.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Object(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Number(v) => Some(*v),
            _ => None,
        }
    }

    /// The value as an unsigned integer: a number with no fractional
    /// part in `u64` range.
    pub fn as_u64(&self) -> Option<u64> {
        self.as_f64()
            .filter(|v| *v >= 0.0 && v.fract() == 0.0 && *v < u64::MAX as f64)
            .map(|v| v as u64)
    }

    /// The value as a string slice.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::String(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a bool.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            JsonValue::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as an array slice.
    pub fn as_array(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Array(v) => Some(v),
            _ => None,
        }
    }

    /// The value as object pairs in source order.
    pub fn as_object(&self) -> Option<&[(String, JsonValue)]> {
        match self {
            JsonValue::Object(v) => Some(v),
            _ => None,
        }
    }

    /// Values in this tree, itself included.
    fn count(&self) -> usize {
        1 + match self {
            JsonValue::Array(items) => items.iter().map(JsonValue::count).sum(),
            JsonValue::Object(pairs) => pairs.iter().map(|(_, v)| v.count()).sum(),
            _ => 0,
        }
    }
}

/// Strictly parses `s` as one JSON value (with optional surrounding
/// whitespace).
///
/// A `\uD8xx\uDCxx` UTF-16 surrogate pair in a string decodes as its
/// one scalar value (`"\ud83d\ude00"` is 😀). A lone surrogate, high
/// or low, cannot be held in a Rust `String`; it decodes as U+FFFD
/// and the parse goes on, so foreign input that JavaScript's
/// `JSON.stringify` wrote still reads.
///
/// # Errors
///
/// Returns a message with a byte offset on the first syntax error.
pub fn parse(s: &str) -> Result<JsonValue, String> {
    let mut p = Parser { src: s, pos: 0 };
    p.ws();
    let v = p.value()?;
    p.ws();
    if p.pos != s.len() {
        return Err(format!("trailing data at byte {}", p.pos));
    }
    Ok(v)
}

/// Strictly checks that `s` is one well-formed JSON value (with
/// optional surrounding whitespace). Returns the number of values
/// parsed inside the top-level value (a size proxy for sanity checks).
///
/// # Errors
///
/// Returns a message with a byte offset on the first syntax error.
pub fn check(s: &str) -> Result<usize, String> {
    parse(s).map(|v| v.count())
}

struct Parser<'a> {
    src: &'a str,
    pos: usize,
}

impl Parser<'_> {
    fn ws(&mut self) {
        while self
            .peek()
            .is_some_and(|b| matches!(b, b' ' | b'\t' | b'\n' | b'\r'))
        {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.src.as_bytes().get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", b as char, self.pos))
        }
    }

    /// Skips a run of ASCII digits and returns how many there were.
    fn digits(&mut self) -> usize {
        let start = self.pos;
        while self.peek().is_some_and(|b| b.is_ascii_digit()) {
            self.pos += 1;
        }
        self.pos - start
    }

    fn value(&mut self) -> Result<JsonValue, String> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => self.string().map(JsonValue::String),
            Some(b't') => self.literal("true", JsonValue::Bool(true)),
            Some(b'f') => self.literal("false", JsonValue::Bool(false)),
            Some(b'n') => self.literal("null", JsonValue::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(format!("expected a value at byte {}", self.pos)),
        }
    }

    fn literal(&mut self, lit: &str, v: JsonValue) -> Result<JsonValue, String> {
        if self.src[self.pos..].starts_with(lit) {
            self.pos += lit.len();
            Ok(v)
        } else {
            Err(format!("bad literal at byte {}", self.pos))
        }
    }

    fn object(&mut self) -> Result<JsonValue, String> {
        self.expect(b'{')?;
        let mut pairs = Vec::new();
        self.ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(JsonValue::Object(pairs));
        }
        loop {
            self.ws();
            let key = self.string()?;
            self.ws();
            self.expect(b':')?;
            self.ws();
            pairs.push((key, self.value()?));
            self.ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(JsonValue::Object(pairs));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }

    fn array(&mut self) -> Result<JsonValue, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(JsonValue::Array(items));
        }
        loop {
            self.ws();
            items.push(self.value()?);
            self.ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(JsonValue::Array(items));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".to_string()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let unescaped = match self.peek() {
                        Some(b'"') => '"',
                        Some(b'\\') => '\\',
                        Some(b'/') => '/',
                        Some(b'b') => '\u{8}',
                        Some(b'f') => '\u{c}',
                        Some(b'n') => '\n',
                        Some(b'r') => '\r',
                        Some(b't') => '\t',
                        Some(b'u') => self.unicode_escape()?,
                        _ => return Err(format!("bad escape at byte {}", self.pos)),
                    };
                    out.push(unescaped);
                    self.pos += 1;
                }
                Some(b) if b < 0x20 => {
                    return Err(format!("control byte in string at {}", self.pos))
                }
                Some(_) => {
                    let c = self.src[self.pos..].chars().next().expect("in bounds");
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    /// Decodes the `\uXXXX` escape whose `u` is at `pos`, leaving `pos`
    /// on its last hex digit. A high surrogate followed by a `\u`
    /// escape of a low surrogate decodes as the pair's one scalar and
    /// consumes both; a lone surrogate of either kind decodes as
    /// U+FFFD.
    fn unicode_escape(&mut self) -> Result<char, String> {
        let code = self.hex4(self.pos + 1)?;
        self.pos += 4;
        if (0xD800..0xDC00).contains(&code) && self.src[self.pos + 1..].starts_with("\\u") {
            let low = self.hex4(self.pos + 3)?;
            if (0xDC00..0xE000).contains(&low) {
                self.pos += 6;
                let scalar = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
                return Ok(char::from_u32(scalar).expect("a surrogate pair is a scalar"));
            }
        }
        Ok(char::from_u32(code).unwrap_or('\u{fffd}'))
    }

    /// The four hex digits at byte `at` as a code unit.
    fn hex4(&self, at: usize) -> Result<u32, String> {
        match self.src.as_bytes().get(at..at + 4) {
            Some(h) if h.iter().all(u8::is_ascii_hexdigit) => {
                Ok(u32::from_str_radix(&self.src[at..at + 4], 16).expect("four hex digits"))
            }
            _ => Err(format!("bad \\u escape at byte {at}")),
        }
    }

    fn number(&mut self) -> Result<JsonValue, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        if self.digits() == 0 {
            return Err(format!("bad number at byte {start}"));
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            if self.digits() == 0 {
                return Err(format!("bad fraction at byte {}", self.pos));
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            if self.digits() == 0 {
                return Err(format!("bad exponent at byte {}", self.pos));
            }
        }
        self.src[start..self.pos]
            .parse::<f64>()
            .map(JsonValue::Number)
            .map_err(|_| format!("bad number at byte {start}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writer_builds_nested_structures() {
        let mut w = JsonWriter::new();
        w.open_object()
            .field_str("name", "a \"b\"\n")
            .key("values")
            .open_array()
            .int(1)
            .float(2.5)
            .bool(true)
            .close_array()
            .field_uint("count", 3)
            .close_object();
        let s = w.finish();
        assert_eq!(s, r#"{"name":"a \"b\"\n","values":[1,2.5,true],"count":3}"#);
        assert!(check(&s).is_ok());
    }

    #[test]
    fn empty_containers_are_followed_by_a_comma() {
        let mut w = JsonWriter::new();
        w.open_object();
        w.key("a").open_array().close_array();
        w.key("b").open_object().close_object();
        w.field_uint("c", 1).close_object();
        let s = w.finish();
        assert_eq!(s, r#"{"a":[],"b":{},"c":1}"#);
        assert!(check(&s).is_ok());
    }

    #[test]
    fn number_formatting_is_stable() {
        assert_eq!(number(3.0), "3");
        assert_eq!(number(0.5), "0.5");
        assert_eq!(number(-2.0), "-2");
        assert_eq!(number(f64::NAN), "null");
    }

    #[test]
    fn checker_accepts_valid_json() {
        for s in [
            "{}",
            "[]",
            "null",
            " [1, -2.5e3, \"x\\u0041\", {\"k\": [true, false]}] ",
        ] {
            assert!(check(s).is_ok(), "{s}");
        }
        assert_eq!(check("[1,2,3]").unwrap(), 4); // array + 3 numbers
    }

    #[test]
    fn checker_rejects_malformed_json() {
        for s in [
            "",
            "{",
            "[1,]",
            "{\"a\":}",
            "{\"a\" 1}",
            "\"unterminated",
            "01e",
            "1.",
            "[1] trailing",
            "{'single': 1}",
            "tru",
            "1.2.3",
            "\"\\q\"",
            "-",
            "1.e5",
            "\"\\u+123\"",
            "\"\\u12\"",
            "{1: 2}",
            "\"a\u{1}b\"",
        ] {
            assert!(check(s).is_err(), "{s:?} should fail");
        }
        // The checker's grammar takes a leading zero.
        assert_eq!(check("01"), Ok(1));
    }

    #[test]
    fn parses_nested_documents() {
        let v = parse(r#"{"a": [1, -2.5, "x\n", true, null], "b": {"c": 3e2}}"#).unwrap();
        let a = v.get("a").unwrap().as_array().unwrap();
        assert_eq!(a.len(), 5);
        assert_eq!(a[0].as_f64(), Some(1.0));
        assert_eq!(a[1].as_u64(), None);
        assert_eq!(a[2].as_str(), Some("x\n"));
        assert_eq!(a[3].as_bool(), Some(true));
        assert_eq!(a[4], JsonValue::Null);
        assert_eq!(v.get("b").unwrap().get("c").unwrap().as_u64(), Some(300));
        assert_eq!(v.as_object().unwrap().len(), 2);
        assert!(v.get("absent").is_none());
        assert_eq!(
            check(r#"{"a": [1, -2.5, "x\n", true, null], "b": {"c": 3e2}}"#),
            Ok(9)
        );
    }

    #[test]
    fn rejects_malformed_input() {
        for s in [
            "", "{", "[1,]", "{\"a\":}", "tru", "1.2.3", "\"\\q\"", "[1] x",
        ] {
            assert!(parse(s).is_err(), "{s:?}");
        }
    }

    #[test]
    fn unicode_escapes_decode() {
        let v = parse(r#""\u0041\u00e9\/\t""#).unwrap();
        assert_eq!(v.as_str(), Some("Aé/\t"));
        assert_eq!(parse("\"é\"").unwrap().as_str(), Some("é"));
    }

    /// A UTF-16 surrogate pair decodes as its one scalar; a lone high
    /// or low surrogate decodes as U+FFFD and leaves what follows it
    /// intact, an escape included.
    #[test]
    fn surrogate_pairs_combine_and_lone_surrogates_are_replaced() {
        let text = |s: &str| parse(s).unwrap().as_str().unwrap().to_string();
        assert_eq!(text(r#""\ud83d\ude00""#), "\u{1f600}");
        assert_eq!(text(r#""x\uD83D\uDE00y""#), "x\u{1f600}y");
        assert_eq!(text(r#""\ud83d""#), "\u{fffd}");
        assert_eq!(text(r#""\ud83dx""#), "\u{fffd}x");
        assert_eq!(text(r#""\ud83d\u0041""#), "\u{fffd}A");
        assert_eq!(text(r#""\ud83d\ud83d\ude00""#), "\u{fffd}\u{1f600}");
        assert_eq!(text(r#""\ude00""#), "\u{fffd}");
        assert_eq!(text(r#""\ude00\ud83d""#), "\u{fffd}\u{fffd}");
        assert!(parse(r#""\ud83d\u12""#).is_err());
    }
}
