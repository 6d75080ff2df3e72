//! A minimal, dependency-free JSON writer and syntax checker.
//!
//! The writer produces deterministic output (field order is exactly
//! the call order; floats use Rust's shortest round-trip formatting).
//! The checker is a strict recursive-descent parser used by the trace
//! schema validator and by CI to gate emitted artifacts — it validates
//! syntax only and builds no DOM.

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

/// Strictly checks that `s` is one well-formed JSON value (with
/// optional surrounding whitespace). Returns the number of values
/// parsed inside the top-level value (a size proxy for sanity checks).
///
/// # Errors
///
/// Returns a message with a byte offset on the first syntax error.
pub fn check(s: &str) -> Result<usize, String> {
    let mut p = Parser {
        bytes: s.as_bytes(),
        pos: 0,
        values: 0,
    };
    p.ws();
    p.value()?;
    p.ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing data at byte {}", p.pos));
    }
    Ok(p.values)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    values: usize,
}

impl Parser<'_> {
    fn ws(&mut self) {
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| matches!(b, b' ' | b'\t' | b'\n' | b'\r'))
        {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!(
                "expected '{}' at byte {}",
                b as char, self.pos
            ))
        }
    }

    fn value(&mut self) -> Result<(), String> {
        self.values += 1;
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => self.string(),
            Some(b't') => self.literal("true"),
            Some(b'f') => self.literal("false"),
            Some(b'n') => self.literal("null"),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(format!("expected a value at byte {}", self.pos)),
        }
    }

    fn literal(&mut self, lit: &str) -> Result<(), String> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(())
        } else {
            Err(format!("bad literal at byte {}", self.pos))
        }
    }

    fn object(&mut self) -> Result<(), String> {
        self.expect(b'{')?;
        self.ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(());
        }
        loop {
            self.ws();
            self.string()?;
            self.ws();
            self.expect(b':')?;
            self.ws();
            self.value()?;
            self.ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(());
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }

    fn array(&mut self) -> Result<(), String> {
        self.expect(b'[')?;
        self.ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(());
        }
        loop {
            self.ws();
            self.value()?;
            self.ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(());
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    fn string(&mut self) -> Result<(), String> {
        self.expect(b'"')?;
        loop {
            match self.peek() {
                None => return Err("unterminated string".to_string()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(());
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"' | b'\\' | b'/' | b'b' | b'f' | b'n' | b'r' | b't') => {
                            self.pos += 1;
                        }
                        Some(b'u') => {
                            self.pos += 1;
                            for _ in 0..4 {
                                if !self.peek().is_some_and(|b| b.is_ascii_hexdigit()) {
                                    return Err(format!(
                                        "bad \\u escape at byte {}",
                                        self.pos
                                    ));
                                }
                                self.pos += 1;
                            }
                        }
                        _ => return Err(format!("bad escape at byte {}", self.pos)),
                    }
                }
                Some(b) if b < 0x20 => {
                    return Err(format!("control byte in string at {}", self.pos))
                }
                Some(_) => self.pos += 1,
            }
        }
    }

    fn number(&mut self) -> Result<(), String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut digits = 0;
        while self.peek().is_some_and(|b| b.is_ascii_digit()) {
            self.pos += 1;
            digits += 1;
        }
        if digits == 0 {
            return Err(format!("bad number at byte {start}"));
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            let mut frac = 0;
            while self.peek().is_some_and(|b| b.is_ascii_digit()) {
                self.pos += 1;
                frac += 1;
            }
            if frac == 0 {
                return Err(format!("bad fraction at byte {}", self.pos));
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            let mut exp = 0;
            while self.peek().is_some_and(|b| b.is_ascii_digit()) {
                self.pos += 1;
                exp += 1;
            }
            if exp == 0 {
                return Err(format!("bad exponent at byte {}", self.pos));
            }
        }
        Ok(())
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
        assert_eq!(
            s,
            r#"{"name":"a \"b\"\n","values":[1,2.5,true],"count":3}"#
        );
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
        ] {
            assert!(check(s).is_err(), "{s:?} should fail");
        }
    }
}
