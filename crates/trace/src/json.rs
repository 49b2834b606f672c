//! Minimal JSON reader/writer shared by trace export and the bench
//! artifacts.
//!
//! The hermetic build rules out `serde_json`; the only JSON this
//! workspace ever parses back is what it wrote itself (bench records,
//! Chrome traces), so a small recursive-descent parser covering the
//! full JSON grammar (objects, arrays, strings with escapes, numbers,
//! booleans, null) plus a compact renderer is all that is needed.
//!
//! # Non-finite numbers
//!
//! JSON has no NaN or infinity. Both directions are explicit about it:
//! [`render`] and [`render_f64`] return [`NonFiniteError`] instead of
//! emitting the invalid tokens `NaN` / `inf`, and [`parse`] reports a
//! dedicated message when the input contains the JavaScript spellings
//! (`NaN`, `Infinity`) that lenient writers produce.

use std::fmt;

/// A parsed JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (always held as `f64`).
    Num(f64),
    /// A string, unescaped.
    Str(String),
    /// An array.
    Array(Vec<Json>),
    /// An object, in source order.
    Object(Vec<(String, Json)>),
}

impl Json {
    /// Member `key` of an object, if present.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Object(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The elements, when this is an array.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Array(items) => Some(items),
            _ => None,
        }
    }

    /// The number, when this is one.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(x) => Some(*x),
            _ => None,
        }
    }

    /// The string, when this is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Renders this value as one compact JSON document.
    ///
    /// # Errors
    ///
    /// Returns [`NonFiniteError`] if any number in the tree is NaN or
    /// infinite — JSON cannot represent them, and emitting `NaN` would
    /// produce a document our own [`parse`] (rightly) rejects.
    pub fn render(&self) -> Result<String, NonFiniteError> {
        let mut out = String::new();
        self.render_into(&mut out)?;
        Ok(out)
    }

    fn render_into(&self, out: &mut String) -> Result<(), NonFiniteError> {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(x) => out.push_str(&render_f64(*x)?),
            Json::Str(s) => render_str(s, out),
            Json::Array(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.render_into(out)?;
                }
                out.push(']');
            }
            Json::Object(members) => {
                out.push('{');
                for (i, (k, v)) in members.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    render_str(k, out);
                    out.push(':');
                    v.render_into(out)?;
                }
                out.push('}');
            }
        }
        Ok(())
    }
}

/// A number that JSON cannot represent (NaN or ±infinity).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct NonFiniteError {
    /// The offending value.
    pub value: f64,
}

impl fmt::Display for NonFiniteError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "cannot render {} as JSON: only finite numbers are representable",
            self.value
        )
    }
}

impl std::error::Error for NonFiniteError {}

/// Renders one number as a JSON token that round-trips through
/// [`parse`]: integral values in `i64` range print without a fraction,
/// everything else uses Rust's shortest round-trip representation.
///
/// # Errors
///
/// Returns [`NonFiniteError`] for NaN and ±infinity.
pub fn render_f64(x: f64) -> Result<String, NonFiniteError> {
    if !x.is_finite() {
        return Err(NonFiniteError { value: x });
    }
    if x == x.trunc() && x.abs() < 9.0e15 {
        // Exactly representable integers render without `.0` so bench
        // artifacts keep their historical `"iters": 7` shape.
        return Ok(format!("{}", x as i64));
    }
    // `{:?}` on f64 is the shortest string that parses back to the
    // same bits — exactly the round-trip guarantee JSON needs.
    Ok(format!("{x:?}"))
}

fn render_str(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// A parse failure: byte offset plus message.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset into the input.
    pub at: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON error at byte {}: {}", self.at, self.message)
    }
}

impl std::error::Error for ParseError {}

/// Parses `input` as one JSON document (trailing whitespace allowed,
/// trailing garbage rejected).
///
/// # Errors
///
/// Returns a [`ParseError`] locating the first offending byte.
pub fn parse(input: &str) -> Result<Json, ParseError> {
    let mut p = Parser {
        bytes: input.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing characters after the document"));
    }
    Ok(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn err(&self, message: &str) -> ParseError {
        ParseError {
            at: self.pos,
            message: message.to_string(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), ParseError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected `{}`", b as char)))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, ParseError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected `{word}`")))
        }
    }

    /// Points at a non-finite spelling lenient writers emit?
    fn at_non_finite(&self) -> bool {
        let rest = &self.bytes[self.pos..];
        rest.starts_with(b"NaN")
            || rest.starts_with(b"Infinity")
            || rest.starts_with(b"-Infinity")
            || rest.starts_with(b"inf")
            || rest.starts_with(b"-inf")
    }

    fn value(&mut self) -> Result<Json, ParseError> {
        if self.at_non_finite() {
            return Err(self.err(
                "non-finite number (NaN/Infinity) is not valid JSON; \
                 the writer must reject it before emitting",
            ));
        }
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    fn object(&mut self) -> Result<Json, ParseError> {
        self.expect(b'{')?;
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Object(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            members.push((key, self.value()?));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Object(members));
                }
                _ => return Err(self.err("expected `,` or `}` in object")),
            }
        }
    }

    fn array(&mut self) -> Result<Json, ParseError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Array(items));
                }
                _ => return Err(self.err("expected `,` or `]` in array")),
            }
        }
    }

    fn string(&mut self) -> Result<String, ParseError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.peek().ok_or_else(|| self.err("truncated escape"))?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or_else(|| self.err("bad \\u escape"))?;
                            // Surrogate pairs never appear in our own
                            // artifacts; reject rather than mis-decode.
                            let c = char::from_u32(hex)
                                .ok_or_else(|| self.err("\\u escape is not a scalar value"))?;
                            out.push(c);
                            self.pos += 4;
                        }
                        _ => return Err(self.err("unknown escape")),
                    }
                }
                Some(_) => {
                    // Consume the plain run up to the next quote or
                    // escape. Both are ASCII, so the run ends on a
                    // scalar boundary; validating only the run keeps
                    // parsing linear in the document size.
                    let rest = &self.bytes[self.pos..];
                    let run = rest
                        .iter()
                        .position(|&b| b == b'"' || b == b'\\')
                        .unwrap_or(rest.len());
                    let s =
                        std::str::from_utf8(&rest[..run]).map_err(|_| self.err("invalid UTF-8"))?;
                    out.push_str(s);
                    self.pos += run;
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, ParseError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(
            self.peek(),
            Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
        ) {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ASCII digits");
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| self.err("malformed number"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_nested_document() {
        let v = parse(r#"[{"a": 1.5, "b": [true, null, "x\ny"]}, -2e3]"#).unwrap();
        let arr = v.as_array().unwrap();
        assert_eq!(arr[0].get("a").unwrap().as_f64(), Some(1.5));
        let inner = arr[0].get("b").unwrap().as_array().unwrap();
        assert_eq!(inner[0], Json::Bool(true));
        assert_eq!(inner[1], Json::Null);
        assert_eq!(inner[2].as_str(), Some("x\ny"));
        assert_eq!(arr[1].as_f64(), Some(-2000.0));
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in ["", "[1,", "{\"a\" 1}", "[1] trailing", "\"open", "01a"] {
            assert!(parse(bad).is_err(), "should reject {bad:?}");
        }
    }

    /// Parsing is linear in the document: each plain run is validated
    /// once, not the whole remaining input per character (which made a
    /// 17 k-event trace take a minute and this document take hours).
    #[test]
    fn large_documents_of_short_strings_parse_in_linear_time() {
        let item = r#"{"name":"kernel","cat":"stage é→ψ","note":"a\"b\\c\n"},"#;
        let mut text = String::from("[");
        while text.len() < 4 << 20 {
            text.push_str(item);
        }
        text.push_str("\"end\"]");
        let t = std::time::Instant::now();
        let doc = parse(&text).unwrap();
        assert!(t.elapsed().as_secs() < 20, "took {:?}", t.elapsed());
        let items = doc.as_array().unwrap();
        assert_eq!(items.len(), (4 << 20) / item.len() + 2);
        assert_eq!(items[7].get("cat").unwrap().as_str(), Some("stage é→ψ"));
        assert_eq!(items[7].get("note").unwrap().as_str(), Some("a\"b\\c\n"));
        assert_eq!(items.last().unwrap().as_str(), Some("end"));
    }

    #[test]
    fn empty_containers_parse() {
        assert_eq!(parse("[]").unwrap(), Json::Array(vec![]));
        assert_eq!(parse("{}").unwrap(), Json::Object(vec![]));
    }

    #[test]
    fn non_finite_spellings_get_a_dedicated_error() {
        for bad in ["NaN", "[1, NaN]", "{\"x\": Infinity}", "-Infinity", "inf"] {
            let err = parse(bad).expect_err(bad);
            assert!(
                err.message.contains("non-finite"),
                "{bad:?} -> {}",
                err.message
            );
        }
    }

    #[test]
    fn render_rejects_non_finite_numbers() {
        for x in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert!(render_f64(x).is_err(), "{x}");
            let doc = Json::Array(vec![Json::Num(1.0), Json::Num(x)]);
            let err = doc.render().expect_err("must reject");
            assert!(err.to_string().contains("finite"), "{err}");
        }
    }

    #[test]
    fn numbers_round_trip() {
        for x in [
            0.0,
            -0.0,
            1.0,
            -17.0,
            1.5,
            0.1,
            1e300,
            -2.5e-9,
            123456789.125,
            9.007199254740991e15,
        ] {
            let text = render_f64(x).unwrap();
            let back = parse(&text).unwrap().as_f64().unwrap();
            assert_eq!(back, x, "{x} rendered as {text}");
        }
        // Integral values keep the historical integer shape.
        assert_eq!(render_f64(7.0).unwrap(), "7");
        assert_eq!(render_f64(-3.0).unwrap(), "-3");
        assert_eq!(render_f64(1.5).unwrap(), "1.5");
    }

    #[test]
    fn documents_round_trip() {
        let doc = Json::Object(vec![
            ("name".into(), Json::Str("a\"b\\c\nd\u{1}".into())),
            (
                "xs".into(),
                Json::Array(vec![Json::Num(1.0), Json::Bool(false), Json::Null]),
            ),
            ("nested".into(), Json::Object(vec![])),
        ]);
        let text = doc.render().unwrap();
        assert_eq!(parse(&text).unwrap(), doc);
    }
}
