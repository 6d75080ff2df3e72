//! A minimal JSON value parser (DOM).
//!
//! `cim_trace::json::check` validates syntax but builds no tree; the
//! bench regression gate needs to *read* snapshots back, so this
//! module adds a small recursive-descent parser producing a
//! [`JsonValue`]. Objects preserve insertion order (a `Vec` of pairs),
//! keeping round-trips deterministic. Still dependency-free.

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
    /// Parses one JSON document.
    ///
    /// # Errors
    ///
    /// Returns a message with a byte offset on the first syntax error.
    pub fn parse(s: &str) -> Result<JsonValue, String> {
        let mut p = Parser {
            bytes: s.as_bytes(),
            src: s,
            pos: 0,
        };
        p.ws();
        let v = p.value()?;
        p.ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing data at byte {}", p.pos));
        }
        Ok(v)
    }

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
}

struct Parser<'a> {
    bytes: &'a [u8],
    src: &'a str,
    pos: usize,
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

    fn value(&mut self) -> Result<JsonValue, String> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(JsonValue::String(self.string()?)),
            Some(b't') => self.literal("true", JsonValue::Bool(true)),
            Some(b'f') => self.literal("false", JsonValue::Bool(false)),
            Some(b'n') => self.literal("null", JsonValue::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(format!("expected a value at byte {}", self.pos)),
        }
    }

    fn literal(&mut self, lit: &str, v: JsonValue) -> Result<JsonValue, String> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(v)
        } else {
            Err(format!("bad literal at byte {}", self.pos))
        }
    }

    fn object(&mut self) -> Result<JsonValue, String> {
        self.pos += 1; // '{'
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
            if self.peek() != Some(b':') {
                return Err(format!("expected ':' at byte {}", self.pos));
            }
            self.pos += 1;
            self.ws();
            let val = self.value()?;
            pairs.push((key, val));
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
        self.pos += 1; // '['
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
        if self.peek() != Some(b'"') {
            return Err(format!("expected '\"' at byte {}", self.pos));
        }
        self.pos += 1;
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
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            let hex = self
                                .src
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or("truncated \\u escape")?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| format!("bad \\u escape at byte {}", self.pos))?;
                            // Surrogates are not expected in our own
                            // output; map them to the replacement char.
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        _ => return Err(format!("bad escape at byte {}", self.pos)),
                    }
                    self.pos += 1;
                }
                Some(b) if b < 0x20 => {
                    return Err(format!("control byte in string at {}", self.pos))
                }
                Some(_) => {
                    let c = self.src[self.pos..].chars().next().unwrap();
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn number(&mut self) -> Result<JsonValue, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while self.peek().is_some_and(|b| b.is_ascii_digit()) {
            self.pos += 1;
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            while self.peek().is_some_and(|b| b.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while self.peek().is_some_and(|b| b.is_ascii_digit()) {
                self.pos += 1;
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
    fn parses_nested_documents() {
        let v =
            JsonValue::parse(r#"{"a": [1, -2.5, "x\n", true, null], "b": {"c": 3e2}}"#).unwrap();
        assert_eq!(v.get("a").unwrap().as_array().unwrap().len(), 5);
        assert_eq!(
            v.get("a").unwrap().as_array().unwrap()[0].as_f64(),
            Some(1.0)
        );
        assert_eq!(
            v.get("a").unwrap().as_array().unwrap()[2].as_str(),
            Some("x\n")
        );
        assert_eq!(
            v.get("a").unwrap().as_array().unwrap()[3].as_bool(),
            Some(true)
        );
        assert_eq!(v.get("b").unwrap().get("c").unwrap().as_f64(), Some(300.0));
        assert_eq!(v.as_object().unwrap().len(), 2);
        assert!(v.get("absent").is_none());
    }

    #[test]
    fn round_trips_the_metrics_snapshot() {
        use crate::labels::Labels;
        use crate::registry::MetricsHub;
        let hub = MetricsHub::recording();
        hub.add_counter("cim_x_total", "x", &Labels::new().with("k", "v\n"), 2.5);
        hub.observe("cim_h", "h", &Labels::new(), 40);
        let json = hub.snapshot().to_json();
        let v = JsonValue::parse(&json).unwrap();
        let fams = v.get("families").unwrap().as_array().unwrap();
        assert_eq!(fams.len(), 2);
        assert_eq!(fams[1].get("name").unwrap().as_str(), Some("cim_x_total"));
        let sample = &fams[1].get("samples").unwrap().as_array().unwrap()[0];
        assert_eq!(sample.get("value").unwrap().as_f64(), Some(2.5));
        assert_eq!(
            sample.get("labels").unwrap().get("k").unwrap().as_str(),
            Some("v\n")
        );
    }

    #[test]
    fn rejects_malformed_input() {
        for s in [
            "", "{", "[1,]", "{\"a\":}", "tru", "1.2.3", "\"\\q\"", "[1] x",
        ] {
            assert!(JsonValue::parse(s).is_err(), "{s:?}");
        }
    }

    #[test]
    fn unicode_escapes_decode() {
        let v = JsonValue::parse(r#""\u0041\u00e9""#).unwrap();
        assert_eq!(v.as_str(), Some("Aé"));
    }
}
