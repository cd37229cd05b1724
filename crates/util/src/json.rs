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
        JsonValue::Null => w.fragment("null", 0),
        JsonValue::Bool(b) => w.fragment(if *b { "true" } else { "false" }, 0),
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

/// `"00" "01" … "99"`: the two decimal digits of `n` at `2n`.
const DIGIT_PAIRS: [u8; 200] = {
    let mut table = [0u8; 200];
    let mut n = 0;
    while n < 100 {
        table[2 * n] = b'0' + (n / 10) as u8;
        table[2 * n + 1] = b'0' + (n % 10) as u8;
        n += 1;
    }
    table
};

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

    /// Appends trusted literal text — keys, punctuation and constant
    /// values of a message template — without escaping, and counts
    /// `digits` of it as formatted: a template that inlines a constant
    /// number charges what converting it would have.
    pub fn fragment(&mut self, text: &'static str, digits: usize) {
        self.buf.push_str(text);
        self.formatted_digits += digits;
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
    pub fn int(&mut self, v: i64) {
        if v < 0 {
            self.buf.push('-');
            self.formatted_digits += 1;
        }
        self.uint(v.unsigned_abs());
    }

    /// Writes an unsigned integer, counting the converted digits.
    /// Needed for Darshan record ids, whose high bit is often set.
    pub fn uint(&mut self, mut v: u64) {
        // `u64::MAX` has 20 digits. Two digits per division.
        let mut digits = [0u8; 20];
        let mut start = digits.len();
        while v >= 10 {
            let pair = 2 * (v % 100) as usize;
            v /= 100;
            start -= 2;
            digits[start..start + 2].copy_from_slice(&DIGIT_PAIRS[pair..pair + 2]);
        }
        // An odd digit count leaves one digit; zero still writes "0".
        if v > 0 || start == digits.len() {
            start -= 1;
            digits[start] = b'0' + v as u8;
        }
        let text = std::str::from_utf8(&digits[start..]).expect("ASCII digits");
        self.buf.push_str(text);
        self.formatted_digits += text.len();
    }

    /// Writes a float, counting the converted digits.
    pub fn float(&mut self, v: f64) {
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
    pub msg: &'static str,
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

    /// Every message is a literal, so an error carries no allocation
    /// and the `Result`s on the hot path stay small.
    #[cold]
    fn err(&self, msg: &'static str) -> ParseError {
        ParseError { at: self.pos, msg }
    }

    #[inline]
    fn peek(&self) -> Option<u8> {
        self.input.as_bytes().get(self.pos).copied()
    }

    #[inline]
    fn bump(&mut self) -> Option<u8> {
        let b = self.peek();
        if b.is_some() {
            self.pos += 1;
        }
        b
    }

    #[inline]
    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    /// Consumes `b`, or fails with `msg` (which names it).
    #[inline]
    fn expect(&mut self, b: u8, msg: &'static str) -> Result<(), ParseError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(msg))
        }
    }

    /// Reads a scalar whole, or the opening bracket of a container.
    #[inline]
    pub fn next_value(&mut self) -> Result<Token<'a>, ParseError> {
        self.skip_ws();
        let tok = match self.peek() {
            Some(b'{') => return self.open(Token::BeginObject),
            Some(b'[') => return self.open(Token::BeginArray),
            Some(b'"') => Token::Str(self.string()?),
            Some(b't') => self.literal("true", Token::Bool(true), "expected 'true'")?,
            Some(b'f') => self.literal("false", Token::Bool(false), "expected 'false'")?,
            Some(b'n') => self.literal("null", Token::Null, "expected 'null'")?,
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number()?,
            _ => return Err(self.err("expected a JSON value")),
        };
        self.fresh = false;
        Ok(tok)
    }

    #[inline]
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
    #[inline]
    pub fn next_key(&mut self) -> Result<Option<Cow<'a, str>>, ParseError> {
        if !self.next_member(b'}', "expected ',' or '}'")? {
            return Ok(None);
        }
        self.skip_ws();
        let key = self.string()?;
        self.skip_ws();
        self.expect(b':', "expected ':'")?;
        Ok(Some(key))
    }

    /// Inside an array: `true` when positioned before another element,
    /// `false` once the closing bracket is consumed.
    #[inline]
    pub fn next_element(&mut self) -> Result<bool, ParseError> {
        self.next_member(b']', "expected ',' or ']'")
    }

    /// Steps past the separator before a member, or past `close`;
    /// `msg` names both.
    #[inline]
    fn next_member(&mut self, close: u8, msg: &'static str) -> Result<bool, ParseError> {
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
                _ => return Err(self.err(msg)),
            }
        }
        self.depth = self.depth.saturating_sub(1);
        Ok(false)
    }

    /// Checks that only whitespace follows the document's one value.
    #[inline]
    pub fn finish(&mut self) -> Result<(), ParseError> {
        self.skip_ws();
        if self.pos != self.input.len() {
            return Err(self.err("trailing characters"));
        }
        Ok(())
    }

    /// Skips one value, validating it exactly as reading it would,
    /// without allocating.
    #[inline]
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
    #[inline]
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

    /// Consumes `word`, or fails with `msg` (which names it).
    #[inline]
    fn literal(
        &mut self,
        word: &str,
        tok: Token<'a>,
        msg: &'static str,
    ) -> Result<Token<'a>, ParseError> {
        if self.input.as_bytes()[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(tok)
        } else {
            Err(self.err(msg))
        }
    }

    /// Reads a string literal, borrowed unless it holds an escape.
    /// Strings are most of what a message holds: inlined into each
    /// reader, a key or string value costs a scan, not two calls.
    #[inline(always)]
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
    #[inline(always)]
    fn raw_string(&mut self) -> Result<(&'a str, bool), ParseError> {
        self.expect(b'"', "expected '\"'")?;
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

    /// Reads a number. A plain integer is accumulated while it is
    /// scanned: an `Int` when it fits an `i64`, else a non-negative one
    /// that fits a `u64` is a `UInt`. Any other text (a fraction, an
    /// exponent, or digits beyond those) takes `str::parse`.
    #[inline]
    fn number(&mut self) -> Result<Token<'a>, ParseError> {
        let start = self.pos;
        let negative = self.peek() == Some(b'-');
        if negative {
            self.pos += 1;
        }
        let digits_from = self.pos;
        let (mut value, mut exact) = (0u64, true);
        while let Some(c @ b'0'..=b'9') = self.peek() {
            match value
                .checked_mul(10)
                .and_then(|v| v.checked_add(u64::from(c - b'0')))
            {
                Some(v) => value = v,
                None => exact = false,
            }
            self.pos += 1;
        }
        let mut is_float = matches!(self.peek(), Some(b'.' | b'e' | b'E' | b'+' | b'-'));
        if exact && !is_float && self.pos > digits_from {
            match (negative, i64::try_from(value)) {
                (false, Ok(v)) => return Ok(Token::Int(v)),
                (false, Err(_)) => return Ok(Token::UInt(value)),
                // Down to `i64::MIN`, whose magnitude is `i64::MAX + 1`.
                (true, _) if value <= i64::MIN.unsigned_abs() => {
                    return Ok(Token::Int(0i64.wrapping_sub_unsigned(value)))
                }
                (true, _) => {}
            }
        }
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
        w.fragment(",-1", 2); // a template's constant: what it declares
        assert_eq!(w.as_str(), "-12342.5,-1");
        assert_eq!(w.formatted_digits(), 10);
    }

    #[test]
    fn writer_integers_match_display_at_the_extremes() {
        // Every digit count, both parities of the pair loop, and the
        // carries at each power of ten.
        let mut unsigned = vec![u64::MAX - 1, u64::MAX];
        for p in (0..20).map(|k| 10u64.pow(k)) {
            unsigned.extend([p - 1, p, p + 1]);
        }
        for v in unsigned {
            let mut w = JsonWriter::new();
            w.uint(v);
            assert_eq!(w.as_str(), v.to_string());
            assert_eq!(w.formatted_digits(), v.to_string().len());
            for v in i64::try_from(v).into_iter().flat_map(|v| [v, -v]) {
                let mut w = JsonWriter::new();
                w.int(v);
                assert_eq!(w.as_str(), v.to_string());
                assert_eq!(w.formatted_digits(), v.to_string().len());
            }
        }
        for v in [i64::MIN, i64::MIN + 1] {
            let mut w = JsonWriter::new();
            w.int(v);
            assert_eq!(w.as_str(), v.to_string());
            assert_eq!(w.formatted_digits(), 20);
        }
    }

    /// The integer fast path against the route every number took
    /// before it: `str::parse` as `i64`, then `u64`, then `f64`.
    #[test]
    fn integer_fast_path_matches_the_parse_route() {
        fn parse_route(text: &str) -> Result<Token<'static>, &'static str> {
            let unsigned = text.strip_prefix('-').unwrap_or(text);
            if unsigned.contains(['.', 'e', 'E', '+', '-']) {
                return text.parse().map(Token::Float).map_err(|_| "bad float");
            }
            text.parse()
                .map(Token::Int)
                .or_else(|_| text.parse().map(Token::UInt))
                .or_else(|_| text.parse().map(Token::Float))
                .map_err(|_| "bad integer")
        }
        fn scanned(text: &str) -> Result<Token<'_>, &'static str> {
            Scanner::new(text).next_value().map_err(|e| e.msg)
        }
        let (i64_min, i64_over) = (i64::MIN.to_string(), (i64::MAX as u64 + 1).to_string());
        let u64_over = (u64::MAX as u128 + 1).to_string();
        for text in [
            "1",
            "-1",
            "12345678901234567",
            "123456789012345678",
            "999999999999999999",
            "-999999999999999999",
            "1234567890123456789",
            "-1234567890123456789",
            "12345678901234567890",
            "007",
            "0000000000000000000042",
            "-0",
            "-",
            "-x",
            "--1",
            "1-2",
            i64_min.as_str(),
            i64_over.as_str(),
            u64_over.as_str(),
            "-18446744073709551616",
            "-9223372036854775809",
            "18446744073709551615",
            "09223372036854775807",
            "-09223372036854775808",
            "018446744073709551615",
            "00000000000000000001",
            "-00000000000000000001",
            "9999999999999999999",
            "10000000000000000000",
            "99999999999999999999",
            "1.",
            "-.5",
            "1e400",
            "2.5e-3",
        ] {
            assert_eq!(scanned(text), parse_route(text), "{text}");
        }
        for (text, want) in [
            ("-0", Token::Int(0)),
            ("007", Token::Int(7)),
            (i64_min.as_str(), Token::Int(i64::MIN)),
            (i64_over.as_str(), Token::UInt(i64::MAX as u64 + 1)),
            (u64_over.as_str(), Token::Float(u64::MAX as f64)),
            ("1.", Token::Float(1.0)),
            ("-.5", Token::Float(-0.5)),
            ("1e400", Token::Float(f64::INFINITY)),
        ] {
            assert_eq!(scanned(text), Ok(want), "{text}");
        }
        assert_eq!(scanned("-"), Err("bad integer"));
    }

    /// Every error site's offset and text; tools print these.
    #[test]
    fn error_offsets_and_texts_are_pinned() {
        let deep = "[".repeat(MAX_DEPTH + 1);
        for (input, at, msg) in [
            ("", 0, "expected a JSON value"),
            ("]", 0, "expected a JSON value"),
            ("{1:2}", 1, "expected '\"'"),
            (r#"{"a" 1}"#, 5, "expected ':'"),
            (r#"{"a":1 2}"#, 8, "expected ',' or '}'"),
            ("[1 2]", 4, "expected ',' or ']'"),
            ("[1,", 3, "expected a JSON value"),
            ("tru", 0, "expected 'true'"),
            ("fals", 0, "expected 'false'"),
            ("nul", 0, "expected 'null'"),
            (r#""abc"#, 4, "unterminated string"),
            (r#""\q""#, 3, "bad escape"),
            (r#""\u12"#, 5, "bad \\u escape"),
            (r#""\u12g4""#, 6, "bad hex digit"),
            ("1-2", 3, "bad float"),
            ("-", 1, "bad integer"),
            ("1 2", 2, "trailing characters"),
            (deep.as_str(), MAX_DEPTH, "nesting too deep"),
        ] {
            let err = parse(input).unwrap_err();
            assert_eq!(err, ParseError { at, msg }, "{input}");
            assert_eq!(
                err.to_string(),
                format!("json parse error at byte {at}: {msg}"),
                "{input}"
            );
        }
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
