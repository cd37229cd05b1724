//! Hand-rolled JSON encoding and decoding.
//!
//! The encoder mirrors what the paper's connector does with `sprintf`:
//! every integer and float is converted to its decimal string
//! representation, one field at a time, into a growing byte buffer. The
//! paper attributes the HMMER overhead (Table IIc) to exactly this
//! conversion, so the encoder also reports how many bytes were formatted
//! so the simulation can charge a calibrated cost for them.
//!
//! The decoder is one zero-copy pull [`Scanner`]. [`parse`] drives it
//! into a [`JsonValue`] tree (the CSV store, tests and tools); the DSOS
//! store plugin drives it straight into typed columns.

use std::borrow::Cow;
use std::collections::BTreeMap;
use std::fmt;

/// A parsed JSON value.
///
/// Object keys are kept in a `BTreeMap` so iteration order (and thus CSV
/// conversion in the store plugin) is deterministic.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    Null,
    Bool(bool),
    /// Integers are kept distinct from floats: Darshan counters are
    /// integral and the CSV store must not render `3` as `3.0`.
    Int(i64),
    /// Unsigned integers beyond `i64::MAX` (Darshan record ids).
    UInt(u64),
    Float(f64),
    Str(String),
    Array(Vec<JsonValue>),
    Object(BTreeMap<String, JsonValue>),
}

impl JsonValue {
    /// Returns the string slice if this value is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Returns the integer value, coercing floats with integral value.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            JsonValue::Int(i) => Some(*i),
            JsonValue::UInt(u) if *u <= i64::MAX as u64 => Some(*u as i64),
            JsonValue::Float(f) if f.fract() == 0.0 => Some(*f as i64),
            _ => None,
        }
    }

    /// Returns the unsigned value if non-negative.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            JsonValue::UInt(u) => Some(*u),
            JsonValue::Int(i) if *i >= 0 => Some(*i as u64),
            _ => None,
        }
    }

    /// Returns the numeric value as a float.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Int(i) => Some(*i as f64),
            JsonValue::UInt(u) => Some(*u as f64),
            JsonValue::Float(f) => Some(*f),
            _ => None,
        }
    }

    /// Returns the object map if this value is an object.
    pub fn as_object(&self) -> Option<&BTreeMap<String, JsonValue>> {
        match self {
            JsonValue::Object(m) => Some(m),
            _ => None,
        }
    }

    /// Returns the array if this value is an array.
    pub fn as_array(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Array(a) => Some(a),
            _ => None,
        }
    }

    /// Convenience field lookup on objects.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        self.as_object().and_then(|m| m.get(key))
    }
}

impl fmt::Display for JsonValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut w = JsonWriter::new();
        write_value(&mut w, self);
        f.write_str(w.as_str())
    }
}

fn write_value(w: &mut JsonWriter, v: &JsonValue) {
    match v {
        JsonValue::Null => w.raw("null"),
        JsonValue::Bool(b) => w.raw(if *b { "true" } else { "false" }),
        JsonValue::Int(i) => w.int(*i),
        JsonValue::UInt(u) => w.uint(*u),
        JsonValue::Float(x) => w.float(*x),
        JsonValue::Str(s) => w.string(s),
        JsonValue::Array(items) => {
            w.begin_array();
            for item in items {
                w.comma();
                write_value(w, item);
            }
            w.end_array();
        }
        JsonValue::Object(map) => {
            w.begin_object();
            for (k, val) in map {
                w.comma();
                w.key(k);
                write_value(w, val);
            }
            w.end_object();
        }
    }
}

/// Incremental JSON writer that mimics the C connector's `sprintf` loop.
///
/// Tracks `formatted_digits`: the number of bytes produced by
/// number-to-string conversion. The connector's cost model charges
/// virtual time proportional to this, reproducing the paper's finding
/// that integer-to-string conversion dominates overhead for I/O-intensive
/// applications.
#[derive(Debug, Default, Clone)]
pub struct JsonWriter {
    buf: String,
    /// Bytes emitted by numeric conversions (the `sprintf` analogue).
    formatted_digits: usize,
    /// Stack of "need a comma before the next element" flags.
    needs_comma: Vec<bool>,
}

impl JsonWriter {
    /// Creates an empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a writer with a pre-sized buffer, avoiding reallocation in
    /// the per-event hot path.
    pub fn with_capacity(cap: usize) -> Self {
        Self {
            buf: String::with_capacity(cap),
            formatted_digits: 0,
            needs_comma: Vec::new(),
        }
    }

    /// Clears the buffer for reuse (workhorse-buffer pattern); keeps the
    /// allocation.
    pub fn reset(&mut self) {
        self.buf.clear();
        self.formatted_digits = 0;
        self.needs_comma.clear();
    }

    /// The encoded JSON so far.
    pub fn as_str(&self) -> &str {
        &self.buf
    }

    /// Consumes the writer, returning the encoded JSON.
    pub fn finish(self) -> String {
        self.buf
    }

    /// Total encoded length in bytes.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Number of bytes produced by numeric formatting so far.
    pub fn formatted_digits(&self) -> usize {
        self.formatted_digits
    }

    fn raw(&mut self, s: &str) {
        self.buf.push_str(s);
    }

    /// Writes a comma if the current container already has an element.
    pub fn comma(&mut self) {
        if let Some(top) = self.needs_comma.last_mut() {
            if *top {
                self.buf.push(',');
            }
            *top = true;
        }
    }

    /// Opens an object.
    pub fn begin_object(&mut self) {
        self.buf.push('{');
        self.needs_comma.push(false);
    }

    /// Closes an object.
    pub fn end_object(&mut self) {
        self.buf.push('}');
        self.needs_comma.pop();
    }

    /// Opens an array.
    pub fn begin_array(&mut self) {
        self.buf.push('[');
        self.needs_comma.push(false);
    }

    /// Closes an array.
    pub fn end_array(&mut self) {
        self.buf.push(']');
        self.needs_comma.pop();
    }

    /// Writes an object key (including the trailing colon).
    pub fn key(&mut self, k: &str) {
        self.string(k);
        self.buf.push(':');
    }

    /// Writes a JSON string with escaping.
    pub fn string(&mut self, s: &str) {
        self.buf.push('"');
        // Every key and almost every value needs no escape: one copy.
        if !s.bytes().any(|b| b == b'"' || b == b'\\' || b < 0x20) {
            self.buf.push_str(s);
            self.buf.push('"');
            return;
        }
        for c in s.chars() {
            match c {
                '"' => self.buf.push_str("\\\""),
                '\\' => self.buf.push_str("\\\\"),
                '\n' => self.buf.push_str("\\n"),
                '\r' => self.buf.push_str("\\r"),
                '\t' => self.buf.push_str("\\t"),
                c if (c as u32) < 0x20 => {
                    use fmt::Write as _;
                    let _ = write!(self.buf, "\\u{:04x}", c as u32);
                }
                c => self.buf.push(c),
            }
        }
        self.buf.push('"');
    }

    /// Writes an integer, counting the converted digits (the `sprintf`
    /// analogue the cost model charges for).
    pub(crate) fn int(&mut self, v: i64) {
        if v < 0 {
            self.buf.push('-');
            self.formatted_digits += 1;
        }
        self.uint(v.unsigned_abs());
    }

    /// Writes an unsigned integer, counting the converted digits.
    /// Needed for Darshan record ids, whose high bit is often set.
    pub(crate) fn uint(&mut self, mut v: u64) {
        // `u64::MAX` has 20 digits.
        let mut digits = [0u8; 20];
        let mut start = digits.len();
        loop {
            start -= 1;
            digits[start] = b'0' + (v % 10) as u8;
            v /= 10;
            if v == 0 {
                break;
            }
        }
        let text = std::str::from_utf8(&digits[start..]).expect("ASCII digits");
        self.buf.push_str(text);
        self.formatted_digits += text.len();
    }

    /// Writes a float, counting the converted digits.
    pub(crate) fn float(&mut self, v: f64) {
        use fmt::Write as _;
        let before = self.buf.len();
        if v.is_finite() {
            if v.fract() == 0.0 && v.abs() < 1e15 {
                // Match the C connector's "%.1f"-style stability for
                // round values while keeping full precision otherwise.
                let _ = write!(self.buf, "{v:.1}");
            } else {
                let _ = write!(self.buf, "{v}");
            }
        } else {
            // JSON has no NaN/Inf; Darshan uses -1 sentinels.
            let _ = write!(self.buf, "-1");
        }
        self.formatted_digits += self.buf.len() - before;
    }

    /// Writes a `key: string` member with the separating comma.
    pub fn field_str(&mut self, k: &str, v: &str) {
        self.comma();
        self.key(k);
        self.string(v);
    }

    /// Writes a `key: int` member with the separating comma.
    pub fn field_int(&mut self, k: &str, v: i64) {
        self.comma();
        self.key(k);
        self.int(v);
    }

    /// Writes a `key: float` member with the separating comma.
    pub fn field_float(&mut self, k: &str, v: f64) {
        self.comma();
        self.key(k);
        self.float(v);
    }

    /// Writes a `key: unsigned` member with the separating comma.
    pub fn field_uint(&mut self, k: &str, v: u64) {
        self.comma();
        self.key(k);
        self.uint(v);
    }
}

/// Errors produced by [`parse`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset where parsing failed.
    pub at: usize,
    /// Human-readable description.
    pub msg: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "json parse error at byte {}: {}", self.at, self.msg)
    }
}

impl std::error::Error for ParseError {}

/// Parses a complete JSON document into a [`JsonValue`] tree.
pub fn parse(input: &str) -> Result<JsonValue, ParseError> {
    let mut sc = Scanner::new(input);
    let first = sc.next_value()?;
    let v = sc.dom(first)?;
    sc.finish()?;
    Ok(v)
}

/// Containers nested deeper than this are a parse error, so a hostile
/// payload cannot overflow the stack of a recursive consumer.
const MAX_DEPTH: usize = 128;

/// One step of a [`Scanner`]: a complete scalar, or the opening of a
/// container whose members the caller pulls next.
#[derive(Debug, Clone, PartialEq)]
pub enum Token<'a> {
    Null,
    Bool(bool),
    Int(i64),
    /// Only for integers beyond `i64::MAX`.
    UInt(u64),
    Float(f64),
    /// Borrowed from the input unless the literal held an escape.
    Str(Cow<'a, str>),
    BeginArray,
    BeginObject,
}

/// The JSON tokenizer: a zero-copy pull scanner over one document.
///
/// ```text
/// match sc.next_value()? {
///     Token::BeginObject => while let Some(key) = sc.next_key()? { /* one value */ },
///     Token::BeginArray => while sc.next_element()? { /* one value */ },
///     scalar => ...
/// }
/// sc.finish()?;
/// ```
///
/// "One value" is [`next_value`](Self::next_value) (and, for a
/// container, its members in turn), [`skip_value`](Self::skip_value),
/// or [`dom`](Self::dom). [`parse`] is this loop building a
/// [`JsonValue`]; the store plugin runs the same loop writing typed
/// columns instead.
pub struct Scanner<'a> {
    input: &'a str,
    pos: usize,
    /// A container was just opened: the next key or element is its
    /// first, so no comma precedes it.
    fresh: bool,
    depth: usize,
}

impl<'a> Scanner<'a> {
    /// Starts scanning at the beginning of `input`.
    pub fn new(input: &'a str) -> Self {
        Self {
            input,
            pos: 0,
            fresh: false,
            depth: 0,
        }
    }

    fn err(&self, msg: &str) -> ParseError {
        ParseError {
            at: self.pos,
            msg: msg.to_string(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.input.as_bytes().get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek();
        if b.is_some() {
            self.pos += 1;
        }
        b
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
            Err(self.err(&format!("expected '{}'", b as char)))
        }
    }

    /// Reads a scalar whole, or the opening bracket of a container.
    pub fn next_value(&mut self) -> Result<Token<'a>, ParseError> {
        self.skip_ws();
        let tok = match self.peek() {
            Some(b'{') => return self.open(Token::BeginObject),
            Some(b'[') => return self.open(Token::BeginArray),
            Some(b'"') => Token::Str(self.string()?),
            Some(b't') => self.literal("true", Token::Bool(true))?,
            Some(b'f') => self.literal("false", Token::Bool(false))?,
            Some(b'n') => self.literal("null", Token::Null)?,
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number()?,
            _ => return Err(self.err("expected a JSON value")),
        };
        self.fresh = false;
        Ok(tok)
    }

    fn open(&mut self, tok: Token<'a>) -> Result<Token<'a>, ParseError> {
        if self.depth == MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        self.pos += 1;
        self.depth += 1;
        self.fresh = true;
        Ok(tok)
    }

    /// Inside an object: the next member's key, positioned before its
    /// value, or `None` once the closing brace is consumed.
    pub fn next_key(&mut self) -> Result<Option<Cow<'a, str>>, ParseError> {
        if !self.next_member(b'}')? {
            return Ok(None);
        }
        self.skip_ws();
        let key = self.string()?;
        self.skip_ws();
        self.expect(b':')?;
        Ok(Some(key))
    }

    /// Inside an array: `true` when positioned before another element,
    /// `false` once the closing bracket is consumed.
    pub fn next_element(&mut self) -> Result<bool, ParseError> {
        self.next_member(b']')
    }

    fn next_member(&mut self, close: u8) -> Result<bool, ParseError> {
        self.skip_ws();
        if std::mem::take(&mut self.fresh) {
            if self.peek() != Some(close) {
                return Ok(true);
            }
            self.pos += 1;
        } else {
            match self.bump() {
                Some(b',') => return Ok(true),
                Some(b) if b == close => {}
                _ => return Err(self.err(&format!("expected ',' or '{}'", close as char))),
            }
        }
        self.depth = self.depth.saturating_sub(1);
        Ok(false)
    }

    /// Checks that only whitespace follows the document's one value.
    pub fn finish(&mut self) -> Result<(), ParseError> {
        self.skip_ws();
        if self.pos != self.input.len() {
            return Err(self.err("trailing characters"));
        }
        Ok(())
    }

    /// Skips one value, validating it exactly as reading it would,
    /// without allocating.
    pub fn skip_value(&mut self) -> Result<(), ParseError> {
        self.skip_ws();
        if self.peek() == Some(b'"') {
            self.fresh = false;
            return self.raw_string().map(drop);
        }
        let first = self.next_value()?;
        self.skip_rest(&first)
    }

    /// Skips what is left of a value whose `first` token was just read
    /// (nothing, unless it opened a container).
    pub fn skip_rest(&mut self, first: &Token<'a>) -> Result<(), ParseError> {
        match first {
            Token::BeginObject => {
                while self.next_key()?.is_some() {
                    self.skip_value()?;
                }
            }
            Token::BeginArray => {
                while self.next_element()? {
                    self.skip_value()?;
                }
            }
            _ => {}
        }
        Ok(())
    }

    /// Builds the tree of the value whose `first` token was just read.
    pub fn dom(&mut self, first: Token<'a>) -> Result<JsonValue, ParseError> {
        Ok(match first {
            Token::Null => JsonValue::Null,
            Token::Bool(b) => JsonValue::Bool(b),
            Token::Int(i) => JsonValue::Int(i),
            Token::UInt(u) => JsonValue::UInt(u),
            Token::Float(f) => JsonValue::Float(f),
            Token::Str(s) => JsonValue::Str(s.into_owned()),
            Token::BeginArray => {
                let mut items = Vec::new();
                while self.next_element()? {
                    let first = self.next_value()?;
                    items.push(self.dom(first)?);
                }
                JsonValue::Array(items)
            }
            Token::BeginObject => {
                let mut map = BTreeMap::new();
                while let Some(key) = self.next_key()? {
                    let first = self.next_value()?;
                    map.insert(key.into_owned(), self.dom(first)?);
                }
                JsonValue::Object(map)
            }
        })
    }

    fn literal(&mut self, word: &str, tok: Token<'a>) -> Result<Token<'a>, ParseError> {
        if self.input.as_bytes()[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(tok)
        } else {
            Err(self.err(&format!("expected '{word}'")))
        }
    }

    fn string(&mut self) -> Result<Cow<'a, str>, ParseError> {
        let (raw, escaped) = self.raw_string()?;
        Ok(if escaped {
            Cow::Owned(unescape(raw))
        } else {
            Cow::Borrowed(raw)
        })
    }

    /// Scans a string literal and validates its escapes; returns the
    /// text between the quotes and whether it holds any escape. The
    /// quotes and backslashes it stops at are ASCII, so every slice
    /// boundary is a character boundary of the (valid UTF-8) input.
    fn raw_string(&mut self) -> Result<(&'a str, bool), ParseError> {
        self.expect(b'"')?;
        let bytes = self.input.as_bytes();
        let start = self.pos;
        let mut escaped = false;
        loop {
            let stop = bytes[self.pos..]
                .iter()
                .position(|&b| b == b'"' || b == b'\\');
            let Some(stop) = stop else {
                self.pos = bytes.len();
                return Err(self.err("unterminated string"));
            };
            self.pos += stop + 1;
            if bytes[self.pos - 1] == b'"' {
                return Ok((&self.input[start..self.pos - 1], escaped));
            }
            escaped = true;
            match self.bump() {
                Some(b'"' | b'\\' | b'/' | b'n' | b'r' | b't' | b'b' | b'f') => {}
                Some(b'u') => {
                    for _ in 0..4 {
                        let d = self.bump().ok_or_else(|| self.err("bad \\u escape"))?;
                        if !d.is_ascii_hexdigit() {
                            return Err(self.err("bad hex digit"));
                        }
                    }
                }
                _ => return Err(self.err("bad escape")),
            }
        }
    }

    fn number(&mut self) -> Result<Token<'a>, ParseError> {
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
        let text = &self.input[start..self.pos];
        if is_float {
            text.parse::<f64>()
                .map(Token::Float)
                .map_err(|_| self.err("bad float"))
        } else {
            text.parse::<i64>()
                .map(Token::Int)
                .or_else(|_| text.parse::<u64>().map(Token::UInt))
                .or_else(|_| text.parse::<f64>().map(Token::Float))
                .map_err(|_| self.err("bad integer"))
        }
    }
}

/// Decodes the escapes of a string literal that
/// [`Scanner::raw_string`] has validated. A `\ud83d\ude00` surrogate
/// pair is one scalar; a surrogate without its partner is U+FFFD.
fn unescape(raw: &str) -> String {
    // Four hex digits, validated and hence ASCII.
    let hex4 = |s: &str| u32::from_str_radix(&s[..4], 16).expect("validated hex digits");
    let mut out = String::with_capacity(raw.len());
    let mut rest = raw;
    while let Some(i) = rest.find('\\') {
        out.push_str(&rest[..i]);
        let esc = rest.as_bytes()[i + 1];
        rest = &rest[i + 2..];
        out.push(match esc {
            b'n' => '\n',
            b'r' => '\r',
            b't' => '\t',
            b'b' => '\u{8}',
            b'f' => '\u{c}',
            b'u' => {
                let mut code = hex4(rest);
                rest = &rest[4..];
                if (0xD800..0xDC00).contains(&code) && rest.starts_with("\\u") {
                    let low = hex4(&rest[2..]);
                    if (0xDC00..0xE000).contains(&low) {
                        code = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
                        rest = &rest[6..];
                    }
                }
                char::from_u32(code).unwrap_or('\u{fffd}')
            }
            // `"`, `\` and `/` stand for themselves.
            other => other as char,
        });
    }
    out.push_str(rest);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writer_builds_flat_object() {
        let mut w = JsonWriter::new();
        w.begin_object();
        w.field_str("op", "write");
        w.field_int("rank", 3);
        w.field_float("dur", 0.5);
        w.end_object();
        assert_eq!(w.as_str(), r#"{"op":"write","rank":3,"dur":0.5}"#);
    }

    #[test]
    fn writer_counts_formatted_digits() {
        let mut w = JsonWriter::new();
        w.int(-1234); // 5 bytes
        w.float(2.5); // 3 bytes
        assert_eq!(w.formatted_digits(), 8);
    }

    #[test]
    fn writer_integers_match_display_at_the_extremes() {
        for v in [0, 7, -7, 10, i64::MAX, i64::MIN] {
            let mut w = JsonWriter::new();
            w.int(v);
            assert_eq!(w.as_str(), v.to_string());
            assert_eq!(w.formatted_digits(), v.to_string().len());
        }
        let mut w = JsonWriter::new();
        w.uint(u64::MAX);
        assert_eq!(w.as_str(), u64::MAX.to_string());
        assert_eq!(w.formatted_digits(), 20);
    }

    #[test]
    fn writer_escapes_strings() {
        let mut w = JsonWriter::new();
        w.string("a\"b\\c\nd");
        assert_eq!(w.as_str(), r#""a\"b\\c\nd""#);
    }

    #[test]
    fn writer_reset_reuses_buffer() {
        let mut w = JsonWriter::with_capacity(64);
        w.begin_object();
        w.field_int("x", 1);
        w.end_object();
        let cap = w.buf.capacity();
        w.reset();
        assert!(w.is_empty());
        assert_eq!(w.formatted_digits(), 0);
        assert_eq!(w.buf.capacity(), cap);
    }

    #[test]
    fn nested_arrays_round_trip() {
        let mut w = JsonWriter::new();
        w.begin_object();
        w.comma();
        w.key("seg");
        w.begin_array();
        for i in 0..3 {
            w.comma();
            w.begin_object();
            w.field_int("len", i);
            w.end_object();
        }
        w.end_array();
        w.end_object();
        let v = parse(w.as_str()).unwrap();
        let seg = v.get("seg").unwrap().as_array().unwrap();
        assert_eq!(seg.len(), 3);
        assert_eq!(seg[2].get("len").unwrap().as_i64(), Some(2));
    }

    #[test]
    fn parse_scalars() {
        assert_eq!(parse("42").unwrap(), JsonValue::Int(42));
        assert_eq!(parse("-7").unwrap(), JsonValue::Int(-7));
        assert_eq!(parse("2.5").unwrap(), JsonValue::Float(2.5));
        assert_eq!(parse("true").unwrap(), JsonValue::Bool(true));
        assert_eq!(parse("null").unwrap(), JsonValue::Null);
        assert_eq!(parse("\"hi\"").unwrap(), JsonValue::Str("hi".to_string()));
    }

    #[test]
    fn parse_rejects_trailing_garbage() {
        assert!(parse("1 2").is_err());
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
    }

    #[test]
    fn parse_unicode_escape() {
        assert_eq!(
            parse("\"\\u0041\"").unwrap(),
            JsonValue::Str("A".to_string())
        );
    }

    #[test]
    fn surrogate_pairs_combine_and_lone_surrogates_are_replaced() {
        let s = |text: &str| parse(text).unwrap().as_str().unwrap().to_string();
        assert_eq!(s(r#""\ud83d\ude00""#), "\u{1f600}");
        assert_eq!(s(r#""a\uD83D\uDE00b""#), "a\u{1f600}b");
        assert_eq!(s(r#""\ud83d""#), "\u{fffd}");
        assert_eq!(s(r#""\ude00x""#), "\u{fffd}x");
        assert_eq!(s(r#""\ud83d\u0041""#), "\u{fffd}A");
        assert_eq!(s(r#""\ud83d\ud83d\ude00""#), "\u{fffd}\u{1f600}");
        assert_eq!(s(r#""\ud83d\n""#), "\u{fffd}\n");
    }

    #[test]
    fn scanner_pulls_borrowed_tokens_and_skips_without_building() {
        let src = r#" { "a" : [1, {"b": "x\ny"}] , "k\u0041": "plain", "n": -2.5 } "#;
        let mut sc = Scanner::new(src);
        assert_eq!(sc.next_value().unwrap(), Token::BeginObject);
        assert_eq!(sc.next_key().unwrap().as_deref(), Some("a"));
        sc.skip_value().unwrap();
        let key = sc.next_key().unwrap().unwrap();
        assert!(matches!(key, Cow::Owned(_)), "an escape forces a copy");
        assert_eq!(key, "kA");
        match sc.next_value().unwrap() {
            Token::Str(Cow::Borrowed(s)) => assert_eq!(s, "plain"),
            other => panic!("expected a borrowed string, got {other:?}"),
        }
        assert_eq!(sc.next_key().unwrap().as_deref(), Some("n"));
        assert_eq!(sc.next_value().unwrap(), Token::Float(-2.5));
        assert_eq!(sc.next_key().unwrap(), None);
        sc.finish().unwrap();
    }

    #[test]
    fn skipping_validates_like_parsing() {
        for bad in [
            r#"{"a": [1, 2}"#,
            r#"{"a": {"b": tru}}"#,
            r#"{"a": "x\q"}"#,
            r#"{"a": "\u12g4"}"#,
            r#"{"a": 1-2}"#,
            r#"{"a": [1,]}"#,
            r#"{"a": "open"#,
        ] {
            assert!(parse(bad).is_err(), "{bad}");
            let mut sc = Scanner::new(bad);
            let skipped = sc.skip_value().and_then(|()| sc.finish());
            assert!(skipped.is_err(), "{bad}");
        }
    }

    #[test]
    fn nesting_is_bounded() {
        let nested = |n: usize| "[".repeat(n) + &"]".repeat(n);
        assert!(parse(&nested(MAX_DEPTH)).is_ok());
        assert!(parse(&nested(MAX_DEPTH + 1)).is_err());
        assert!(parse(&"[".repeat(1 << 20)).is_err());
        assert!(Scanner::new(&"{\"a\":".repeat(1 << 20))
            .skip_value()
            .is_err());
    }

    #[test]
    fn parse_utf8_passthrough() {
        let v = parse("\"naïve\"").unwrap();
        assert_eq!(v.as_str(), Some("naïve"));
    }

    #[test]
    fn display_round_trips() {
        let src = r#"{"a":[1,2.5,"x"],"b":{"c":null}}"#;
        let v = parse(src).unwrap();
        let rendered = v.to_string();
        assert_eq!(parse(&rendered).unwrap(), v);
    }

    #[test]
    fn float_formatting_is_stable_for_round_values() {
        let mut w = JsonWriter::new();
        w.float(54.0);
        assert_eq!(w.as_str(), "54.0");
    }

    #[test]
    fn nonfinite_floats_become_sentinel() {
        let mut w = JsonWriter::new();
        w.float(f64::NAN);
        assert_eq!(w.as_str(), "-1");
    }
}
