//! A minimal, dependency-free JSON writer for machine-readable benchmark output.
//!
//! The workspace vendors no serialisation crate (the build environment has no registry
//! access), and the benchmark output is a small, fixed shape — so a hand-rolled value tree
//! with a compliant renderer is all that is needed. There is one pretty-printer,
//! [`JsonWriter`]: it streams values into a byte buffer, escapes strings per RFC 8259, emits
//! non-finite numbers as `null` (JSON has no NaN/Infinity), and indents by two spaces so the
//! artifacts diff cleanly between CI runs. [`Json::render`] walks a value tree through it;
//! large documents (the Perfetto and metrics exports) call it directly and never build a tree.

use core::fmt;
use std::io::Write as _;

#[cfg(test)]
mod reference;

/// A JSON value tree.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An integer (serialised without a decimal point).
    Int(i64),
    /// An unsigned integer (cycle counts exceed `i64` range in long simulations).
    UInt(u64),
    /// A floating-point number; non-finite values render as `null`.
    Num(f64),
    /// A string (escaped on render).
    Str(String),
    /// An ordered array.
    Arr(Vec<Json>),
    /// An object with insertion-ordered keys.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Convenience constructor for an object from `(key, value)` pairs.
    pub fn obj<I: IntoIterator<Item = (&'static str, Json)>>(pairs: I) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// Looks up a key in an object. Returns `None` for missing keys and non-objects.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Numeric view of the value, if it is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Int(i) => Some(*i as f64),
            Json::UInt(u) => Some(*u as f64),
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// String view of the value, if it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Parses a JSON document (RFC 8259 subset sufficient for the `BENCH_*.json` artifacts:
    /// all value kinds, string escapes including `\uXXXX`, no comments).
    ///
    /// Integers without fraction/exponent parse as [`Json::UInt`]/[`Json::Int`]; everything
    /// else numeric parses as [`Json::Num`]. This keeps `parse(render(v))` lossless for the
    /// values the bench writers emit.
    ///
    /// # Errors
    ///
    /// Returns a [`JsonParseError`] with a byte offset and message on malformed input.
    pub fn parse(input: &str) -> Result<Json, JsonParseError> {
        let mut p = Parser { input, bytes: input.as_bytes(), pos: 0 };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing characters after the JSON document"));
        }
        Ok(v)
    }

    /// Renders the value as pretty-printed JSON with two-space indentation.
    pub fn render(&self) -> String {
        let mut w = JsonWriter::with_capacity(0);
        w.value(self);
        w.finish()
    }
}

/// An item separator, a newline and the indentation of 32 levels: [`JsonWriter`] starts every
/// line with a slice of it (deeper levels add the remaining spaces).
const LINE_BREAK: &[u8; 66] = b",\n                                                                ";

/// Strings of at most this many bytes that need no escape are written through one
/// fixed-width window.
const SHORT: usize = 32;

/// What [`push_quoted`] appends after a string, padded to three bytes, and its length: the
/// closing quote of a string value, the closing quote and separator of a key, or nothing (the
/// string goes on).
type Close = (&'static [u8; 3], usize);
const CLOSE_STR: Close = (b"\"  ", 1);
const CLOSE_KEY: Close = (b"\": ", 3);
const CLOSE_NONE: Close = (b"   ", 0);

/// A streaming pretty-printer: writes one JSON document straight into a byte buffer, byte for
/// byte what [`Json::render`] produces for the equivalent value tree, and hands it over as a
/// `String` at [`JsonWriter::finish`].
///
/// Values are written in document order. Inside an object every value follows its
/// [`JsonWriter::key`]; containers open with `begin_*` and close with the matching `end_*`.
/// Empty containers render compactly (`[]`, `{}`); otherwise every item sits on its own line
/// with two spaces of indentation per level, and [`JsonWriter::finish`] ends the document with
/// a newline. Closing a container that was never opened panics.
///
/// Line breaks, integers (eight digits at a time, computed in the lanes of one `u64`) and
/// short strings that need no escape are appended as copies of a fixed width cut back to
/// their length, which compile to a few register moves where a copy of the exact length is a
/// `memcpy` call.
///
/// ```
/// use tis_sim::json::{Json, JsonWriter};
///
/// let mut w = JsonWriter::with_capacity(64);
/// w.begin_obj();
/// w.key("name").str("fig09");
/// w.key("cycles").begin_arr().uint(7).uint(9).end_arr();
/// w.key("first").str_uint("task ", 3);
/// w.end_obj();
/// let tree = Json::obj([
///     ("name", Json::Str("fig09".into())),
///     ("cycles", Json::Arr(vec![Json::UInt(7), Json::UInt(9)])),
///     ("first", Json::Str("task 3".into())),
/// ]);
/// assert_eq!(w.finish(), tree.render());
/// ```
#[derive(Debug, Default)]
pub struct JsonWriter {
    /// The document so far; only whole UTF-8 strings and ASCII are ever appended.
    out: Vec<u8>,
    depth: usize,
    /// Whether the innermost open container has no items yet.
    empty: bool,
    /// Whether a key was just written, so the next value continues its line.
    after_key: bool,
}

impl JsonWriter {
    /// Creates a writer whose output buffer holds `bytes` before it first grows.
    pub fn with_capacity(bytes: usize) -> Self {
        JsonWriter { out: Vec::with_capacity(bytes), ..JsonWriter::default() }
    }

    /// Ends the document with a newline and returns it.
    pub fn finish(mut self) -> String {
        debug_assert_eq!(self.depth, 0, "every container must be closed before finishing");
        self.out.push(b'\n');
        String::from_utf8(self.out).expect("the writer appends whole UTF-8 strings and ASCII only")
    }

    /// Writes `null`.
    pub fn null(&mut self) -> &mut Self {
        self.item();
        self.out.extend_from_slice(b"null");
        self
    }

    /// Writes `true` or `false`.
    pub fn bool(&mut self, b: bool) -> &mut Self {
        self.item();
        self.out.extend_from_slice(if b { b"true" } else { b"false" });
        self
    }

    /// Writes a signed integer.
    pub fn int(&mut self, i: i64) -> &mut Self {
        self.item();
        if i < 0 {
            self.out.push(b'-');
        }
        push_u64(&mut self.out, i.unsigned_abs());
        self
    }

    /// Writes an unsigned integer.
    pub fn uint(&mut self, u: u64) -> &mut Self {
        self.item();
        push_u64(&mut self.out, u);
        self
    }

    /// Writes an unsigned integer, or `null` for `None`.
    pub fn opt_uint(&mut self, u: Option<u64>) -> &mut Self {
        match u {
            Some(u) => self.uint(u),
            None => self.null(),
        }
    }

    /// Writes a floating-point number; non-finite values become `null`.
    pub fn num(&mut self, n: f64) -> &mut Self {
        if !n.is_finite() {
            return self.null();
        }
        self.item();
        // `{:?}` keeps full round-trip precision and always marks the value as non-integer
        // (e.g. "1.0"), which keeps column types stable for downstream tooling.
        write!(self.out, "{n:?}").expect("writing to a Vec cannot fail");
        self
    }

    /// Writes a string, escaped and quoted.
    pub fn str(&mut self, s: &str) -> &mut Self {
        self.item();
        push_quoted(&mut self.out, s, CLOSE_STR);
        self
    }

    /// Writes `prefix` followed by the decimal digits of `n` as one escaped, quoted string,
    /// e.g. `w.str_uint("task ", id)` for what `w.str_fmt(format_args!("task {id}"))` writes.
    pub fn str_uint(&mut self, prefix: &str, n: u64) -> &mut Self {
        self.item();
        push_quoted(&mut self.out, prefix, CLOSE_NONE);
        push_u64(&mut self.out, n);
        self.out.push(b'"');
        self
    }

    /// Writes the formatted text as one escaped, quoted string without allocating it first,
    /// e.g. `w.str_fmt(format_args!("{label} / machine"))`.
    pub fn str_fmt(&mut self, args: fmt::Arguments<'_>) -> &mut Self {
        self.item();
        self.out.push(b'"');
        fmt::Write::write_fmt(&mut Escaped(&mut self.out), args).expect("writing to a Vec cannot fail");
        self.out.push(b'"');
        self
    }

    /// Writes an object key; the next value written is its value.
    pub fn key(&mut self, key: &str) -> &mut Self {
        self.item();
        push_quoted(&mut self.out, key, CLOSE_KEY);
        self.after_key = true;
        self
    }

    /// Opens an array.
    pub fn begin_arr(&mut self) -> &mut Self {
        self.open(b'[')
    }

    /// Closes the innermost array.
    pub fn end_arr(&mut self) -> &mut Self {
        self.close(b']')
    }

    /// Opens an object.
    pub fn begin_obj(&mut self) -> &mut Self {
        self.open(b'{')
    }

    /// Closes the innermost object.
    pub fn end_obj(&mut self) -> &mut Self {
        self.close(b'}')
    }

    /// Writes a whole value tree.
    fn value(&mut self, v: &Json) -> &mut Self {
        match v {
            Json::Null => self.null(),
            Json::Bool(b) => self.bool(*b),
            Json::Int(i) => self.int(*i),
            Json::UInt(u) => self.uint(*u),
            Json::Num(n) => self.num(*n),
            Json::Str(s) => self.str(s),
            Json::Arr(items) => {
                self.begin_arr();
                for item in items {
                    self.value(item);
                }
                self.end_arr()
            }
            Json::Obj(pairs) => {
                self.begin_obj();
                for (key, value) in pairs {
                    self.key(key).value(value);
                }
                self.end_obj()
            }
        }
    }

    /// Starts a value: after a key it continues the key's line; inside a container it ends
    /// the previous item and starts a new indented line.
    #[inline]
    fn item(&mut self) {
        if self.after_key {
            self.after_key = false;
        } else if self.depth > 0 {
            push_line_break(&mut self.out, !self.empty, self.depth);
            self.empty = false;
        }
    }

    fn open(&mut self, bracket: u8) -> &mut Self {
        self.item();
        self.out.push(bracket);
        self.depth += 1;
        self.empty = true;
        self
    }

    fn close(&mut self, bracket: u8) -> &mut Self {
        self.depth = self.depth.checked_sub(1).expect("a container closed without being opened");
        if !self.empty {
            push_line_break(&mut self.out, false, self.depth);
        }
        self.out.push(bracket);
        // The closed container was an item of its parent, so the parent is not empty.
        self.empty = false;
        self
    }
}

/// Error produced by [`Json::parse`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonParseError {
    /// Byte offset into the input at which parsing failed.
    pub offset: usize,
    /// Human-readable description of the failure.
    pub message: String,
}

impl core::fmt::Display for JsonParseError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "JSON parse error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for JsonParseError {}

/// Recursive-descent parser over the input bytes.
struct Parser<'a> {
    input: &'a str,
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, message: &str) -> JsonParseError {
        JsonParseError { offset: self.pos, message: message.to_string() }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, byte: u8) -> Result<(), JsonParseError> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", byte as char)))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, JsonParseError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected '{word}'")))
        }
    }

    fn value(&mut self) -> Result<Json, JsonParseError> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            Some(_) => Err(self.err("unexpected character")),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn array(&mut self) -> Result<Json, JsonParseError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']' in array")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, JsonParseError> {
        self.expect(b'{')?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            pairs.push((key, self.value()?));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(pairs));
                }
                _ => return Err(self.err("expected ',' or '}' in object")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonParseError> {
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
                            self.pos += 1;
                            let code = self.hex4()?;
                            // The bench writers only escape control characters, so lone
                            // surrogates are rejected rather than paired.
                            match char::from_u32(code) {
                                Some(c) => out.push(c),
                                None => return Err(self.err("unpaired surrogate escape")),
                            }
                            continue;
                        }
                        _ => return Err(self.err("invalid escape sequence")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Copy the run up to the next quote or backslash as one slice: both are
                    // ASCII, so the run ends on a character boundary of the `&str` input.
                    let run = self.bytes[self.pos..]
                        .iter()
                        .position(|&b| b == b'"' || b == b'\\')
                        .unwrap_or(self.bytes.len() - self.pos);
                    out.push_str(&self.input[self.pos..self.pos + run]);
                    self.pos += run;
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, JsonParseError> {
        let mut code = 0u32;
        for _ in 0..4 {
            let d = match self.peek() {
                Some(c @ b'0'..=b'9') => (c - b'0') as u32,
                Some(c @ b'a'..=b'f') => (c - b'a' + 10) as u32,
                Some(c @ b'A'..=b'F') => (c - b'A' + 10) as u32,
                _ => return Err(self.err("expected four hex digits after \\u")),
            };
            code = code * 16 + d;
            self.pos += 1;
        }
        Ok(code)
    }

    fn number(&mut self) -> Result<Json, JsonParseError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut integral = true;
        while let Some(c) = self.peek() {
            match c {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    integral = false;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = core::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii number");
        if integral {
            if let Ok(u) = text.parse::<u64>() {
                return Ok(Json::UInt(u));
            }
            if let Ok(i) = text.parse::<i64>() {
                return Ok(Json::Int(i));
            }
        }
        match text.parse::<f64>() {
            Ok(n) if n.is_finite() => Ok(Json::Num(n)),
            _ => {
                self.pos = start;
                Err(self.err("malformed number"))
            }
        }
    }
}

/// Appends the first `len` bytes of `chunk` by copying all of it and cutting the rest off: a
/// copy of fixed width compiles to a few register moves, where a copy of `len` bytes calls
/// `memcpy`.
#[inline]
fn push_prefix<const N: usize>(out: &mut Vec<u8>, chunk: &[u8; N], len: usize) {
    debug_assert!(len <= N);
    let end = out.len() + len;
    out.extend_from_slice(chunk);
    out.truncate(end);
}

/// Appends an optional comma, a newline and the indentation of `levels` levels.
#[inline]
fn push_line_break(out: &mut Vec<u8>, comma: bool, levels: usize) {
    let from = usize::from(!comma);
    let len = 2 - from + 2 * levels;
    if len <= 16 {
        // Up to seven levels, the usual depth, in one 16-byte move.
        let line: &[u8; 16] = LINE_BREAK[from..from + 16].try_into().expect("a 16-byte slice");
        push_prefix(out, line, len);
    } else {
        push_deep_line_break(out, from, len);
    }
}

/// [`push_line_break`] of `len` bytes from `LINE_BREAK[from..]`, more than 16.
#[inline(never)]
fn push_deep_line_break(out: &mut Vec<u8>, from: usize, len: usize) {
    let line: &[u8; 65] = LINE_BREAK[from..from + 65].try_into().expect("a 65-byte slice");
    if len <= line.len() {
        push_prefix(out, line, len);
    } else {
        out.extend_from_slice(line);
        out.resize(out.len() + len - line.len(), b' ');
    }
}

/// Appends the decimal digits of `v`.
#[inline]
fn push_u64(out: &mut Vec<u8>, v: u64) {
    match u32::try_from(v) {
        Ok(v) if v < 100_000_000 => push_short_u64(out, v),
        _ => push_long_u64(out, v),
    }
}

/// Appends the decimal digits of `v` below 10^8 as one fixed-width copy cut back to their
/// count.
#[inline]
fn push_short_u64(out: &mut Vec<u8>, v: u32) {
    let len = v.checked_ilog10().map_or(1, |log| log as usize + 1);
    // Drop the leading zeros: the first digit moves to the lowest byte.
    let digits = u64::from_le_bytes(eight_digits(v)) >> (8 * (8 - len));
    let end = out.len() + len;
    out.extend_from_slice(&digits.to_le_bytes());
    out.truncate(end);
}

/// Appends the decimal digits of `v` of 10^8 or more: up to 12 leading digits, then eight.
#[inline(never)]
fn push_long_u64(out: &mut Vec<u8>, v: u64) {
    const EIGHT: u64 = 100_000_000;
    let high = v / EIGHT;
    if high < EIGHT {
        push_short_u64(out, high as u32);
    } else {
        // u64::MAX has 20 digits, so `high / EIGHT` has at most four.
        push_short_u64(out, (high / EIGHT) as u32);
        out.extend_from_slice(&eight_digits((high % EIGHT) as u32));
    }
    out.extend_from_slice(&eight_digits((v % EIGHT) as u32));
}

/// The eight decimal digits of `v` below 10^8, zero-padded, as ASCII, computed in the lanes
/// of one `u64`: the two four-digit halves, each split into two pairs of digits, each split
/// into two digits (the multiply-shifts divide by 100 and 10 exactly in this range).
#[inline]
fn eight_digits(v: u32) -> [u8; 8] {
    debug_assert!(v < 100_000_000);
    let halves = u64::from(v / 10_000) | (u64::from(v % 10_000) << 32);
    let hundreds = ((halves * 10_486) >> 20) & 0x0000_007f_0000_007f;
    let pairs = hundreds | ((halves - 100 * hundreds) << 16);
    let tens = ((pairs * 103) >> 10) & 0x000f_000f_000f_000f;
    let digits = tens | ((pairs - 10 * tens) << 8);
    (digits | 0x3030_3030_3030_3030).to_le_bytes()
}

/// Whether byte `b` of a string must be escaped.
#[inline]
fn needs_escape(b: u8) -> bool {
    b < 0x20 || b == b'"' || b == b'\\'
}

/// Whether any of the eight bytes of `word` must be escaped, tested on all eight at once: a
/// byte below 0x20 borrows into its high bit when 0x20 is subtracted, and a `"` or `\` does
/// so once the word is XORed with it and 1 is subtracted (bytes of 0x80 and above, which
/// includes all of multi-byte UTF-8, are masked out by `!word`).
#[inline]
fn word_needs_escape(word: u64) -> bool {
    const ONES: u64 = 0x0101_0101_0101_0101;
    let below = |w: u64, n: u64| w.wrapping_sub(n * ONES) & !w;
    let control = below(word, 0x20);
    let quote = below(word ^ (u64::from(b'"') * ONES), 1);
    let backslash = below(word ^ (u64::from(b'\\') * ONES), 1);
    (control | quote | backslash) & (0x80 * ONES) != 0
}

/// Appends an opening quote, `s` escaped per RFC 8259, and `close`. A short string that needs
/// no escape is written into a fixed-width window of `out` cut back to its length.
#[inline]
fn push_quoted(out: &mut Vec<u8>, s: &str, (close, close_len): Close) {
    let bytes = s.as_bytes();
    if bytes.len() <= SHORT {
        let start = out.len();
        out.extend_from_slice(&[b'"'; SHORT + 4]);
        let quoted = &mut out[start + 1..start + SHORT + 4];
        if copy_short(quoted, bytes) {
            quoted[bytes.len()..bytes.len() + 3].copy_from_slice(close);
            out.truncate(start + 1 + bytes.len() + close_len);
            return;
        }
        out.truncate(start);
    }
    out.push(b'"');
    escape_body(s, out);
    out.extend_from_slice(&close[..close_len]);
}

/// Copies `src` (at most [`SHORT`] bytes) to the start of `dst` as overlapping copies of fixed
/// width, which compile to register moves where a copy of `src.len()` bytes is a call, and
/// returns whether none of its bytes must be escaped, tested a word at a time.
#[inline]
fn copy_short(dst: &mut [u8], src: &[u8]) -> bool {
    let n = src.len();
    debug_assert!(n <= SHORT && n <= dst.len());
    if n >= 8 {
        let mut escape = false;
        let mut copy = |at: usize| {
            let word: [u8; 8] = src[at..at + 8].try_into().expect("eight bytes");
            dst[at..at + 8].copy_from_slice(&word);
            escape |= word_needs_escape(u64::from_le_bytes(word));
        };
        copy(0);
        copy(n - 8);
        if n > 16 {
            copy(8);
            copy(n - 16);
        }
        !escape
    } else if n >= 4 {
        let head: [u8; 4] = src[..4].try_into().expect("four bytes");
        let tail: [u8; 4] = src[n - 4..].try_into().expect("four bytes");
        dst[..4].copy_from_slice(&head);
        dst[n - 4..n].copy_from_slice(&tail);
        !word_needs_escape(u64::from(u32::from_le_bytes(head)) | (u64::from(u32::from_le_bytes(tail)) << 32))
    } else if n > 0 {
        // One to three bytes: the first, the middle and the last cover them.
        let (first, middle, last) = (src[0], src[n / 2], src[n - 1]);
        dst[0] = first;
        dst[n / 2] = middle;
        dst[n - 1] = last;
        !word_needs_escape(u64::from_le_bytes([first, middle, last, b'a', b'a', b'a', b'a', b'a']))
    } else {
        true
    }
}

/// Appends `s` escaped, without quotes. Every character that needs an escape is ASCII, so the
/// text between two of them is copied as one slice — a string with nothing to escape in one
/// copy.
fn escape_body(s: &str, out: &mut Vec<u8>) {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    let bytes = s.as_bytes();
    let mut run = 0;
    for (i, &b) in bytes.iter().enumerate() {
        if !needs_escape(b) {
            continue;
        }
        out.extend_from_slice(&bytes[run..i]);
        match b {
            b'"' => out.extend_from_slice(b"\\\""),
            b'\\' => out.extend_from_slice(b"\\\\"),
            b'\n' => out.extend_from_slice(b"\\n"),
            b'\r' => out.extend_from_slice(b"\\r"),
            b'\t' => out.extend_from_slice(b"\\t"),
            _ => out.extend_from_slice(&[b'\\', b'u', b'0', b'0', HEX[usize::from(b >> 4)], HEX[usize::from(b & 0xf)]]),
        }
        run = i + 1;
    }
    out.extend_from_slice(&bytes[run..]);
}

/// Escapes everything formatted through it into the wrapped buffer.
struct Escaped<'a>(&'a mut Vec<u8>);

impl fmt::Write for Escaped<'_> {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        escape_body(s, self.0);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_render() {
        assert_eq!(Json::Null.render(), "null\n");
        assert_eq!(Json::Bool(true).render(), "true\n");
        assert_eq!(Json::Int(-3).render(), "-3\n");
        assert_eq!(Json::UInt(u64::MAX).render(), format!("{}\n", u64::MAX));
        assert_eq!(Json::Num(2.13).render(), "2.13\n");
        assert_eq!(Json::Num(f64::NAN).render(), "null\n", "JSON has no NaN");
        assert_eq!(Json::Num(f64::INFINITY).render(), "null\n");
    }

    #[test]
    fn strings_escape() {
        assert_eq!(Json::Str("a\"b\\c\nd".into()).render(), "\"a\\\"b\\\\c\\nd\"\n");
        assert_eq!(Json::Str("\u{1}".into()).render(), "\"\\u0001\"\n");
        assert_eq!(Json::Str("plain ascii-64x64".into()).render(), "\"plain ascii-64x64\"\n");
    }

    #[test]
    fn empty_containers_are_compact() {
        assert_eq!(Json::Arr(vec![]).render(), "[]\n");
        assert_eq!(Json::Obj(vec![]).render(), "{}\n");
    }

    #[test]
    fn nested_structure_pretty_prints() {
        let v = Json::obj([
            ("name", Json::Str("fig09".into())),
            ("speedups", Json::Arr(vec![Json::Num(1.5), Json::Num(4.25)])),
        ]);
        let expected = "{\n  \"name\": \"fig09\",\n  \"speedups\": [\n    1.5,\n    4.25\n  ]\n}\n";
        assert_eq!(v.render(), expected);
    }

    #[test]
    fn parse_round_trips_the_writer() {
        let v = Json::obj([
            ("figure", Json::Str("fig09".into())),
            ("quote", Json::Str("a\"b\\c\n\u{1}".into())),
            ("flag", Json::Bool(false)),
            ("nothing", Json::Null),
            ("big", Json::UInt(u64::MAX)),
            ("neg", Json::Int(-42)),
            ("ratio", Json::Num(2.13)),
            ("empty_arr", Json::Arr(vec![])),
            ("arr", Json::Arr(vec![Json::Num(1.0), Json::UInt(7)])),
            ("nested", Json::obj([("k", Json::Str("v".into()))])),
        ]);
        let parsed = Json::parse(&v.render()).unwrap();
        assert_eq!(parsed, v);
        // Accessors used by the diff tool.
        assert_eq!(parsed.get("figure").and_then(Json::as_str), Some("fig09"));
        assert_eq!(parsed.get("ratio").and_then(Json::as_f64), Some(2.13));
        assert_eq!(parsed.get("neg").and_then(Json::as_f64), Some(-42.0));
        assert_eq!(parsed.get("missing"), None);
        assert_eq!(Json::Null.get("k"), None);
    }

    #[test]
    fn parse_accepts_plain_json_variants() {
        assert_eq!(Json::parse(" [1, 2.5e1, -3] ").unwrap(), Json::Arr(vec![
            Json::UInt(1),
            Json::Num(25.0),
            Json::Int(-3),
        ]));
        assert_eq!(Json::parse("{}").unwrap(), Json::Obj(vec![]));
        assert_eq!(Json::parse("\"\\u0041\"").unwrap(), Json::Str("A".into()));
        assert_eq!(Json::parse("true").unwrap(), Json::Bool(true));
    }

    #[test]
    fn parse_rejects_malformed_input() {
        for bad in ["", "{", "[1,]", "{\"a\":}", "nul", "1 2", "\"unterminated", "\"\\q\"", "--1"] {
            let e = Json::parse(bad).unwrap_err();
            assert!(!e.to_string().is_empty(), "{bad:?} must fail with a message");
        }
        let e = Json::parse("[1, x]").unwrap_err();
        assert_eq!(e.offset, 4, "error points at the offending byte");
    }

    #[test]
    fn numbers_keep_roundtrip_precision() {
        let v = Json::Num(13.190000000000001);
        let rendered = v.render();
        let parsed: f64 = rendered.trim().parse().unwrap();
        assert_eq!(parsed, 13.190000000000001);
        assert_eq!(Json::Num(1.0).render(), "1.0\n", "floats keep a decimal point");
    }

    #[test]
    fn writer_streams_what_the_tree_renders() {
        let mut w = JsonWriter::with_capacity(0);
        w.begin_obj();
        w.key("empty_arr").begin_arr().end_arr();
        w.key("empty_obj").begin_obj().end_obj();
        w.key("mixed").begin_arr().null().bool(true).int(i64::MIN).uint(u64::MAX).num(0.5);
        w.num(f64::NEG_INFINITY).opt_uint(None).opt_uint(Some(0)).end_arr();
        w.key("label").str_fmt(format_args!("{} / tenant {}: {}", "a\"b", 3, "c\\\u{1}é"));
        w.end_obj();
        let tree = Json::obj([
            ("empty_arr", Json::Arr(vec![])),
            ("empty_obj", Json::Obj(vec![])),
            ("mixed", Json::Arr(vec![
                Json::Null,
                Json::Bool(true),
                Json::Int(i64::MIN),
                Json::UInt(u64::MAX),
                Json::Num(0.5),
                Json::Null,
                Json::Null,
                Json::UInt(0),
            ])),
            ("label", Json::Str("a\"b / tenant 3: c\\\u{1}é".into())),
        ]);
        assert_eq!(w.finish(), tree.render());
        assert_eq!(Json::Int(i64::MIN).render(), format!("{}\n", i64::MIN));
        assert_eq!(Json::UInt(0).render(), "0\n");
    }

    #[test]
    fn indentation_continues_past_the_static_slice() {
        // 40 nested arrays: deeper than the 32 levels the indent slice holds in one piece.
        let depth = 40;
        let mut v = Json::UInt(1);
        for _ in 0..depth {
            v = Json::Arr(vec![v]);
        }
        let mut expected = String::new();
        for level in 0..depth {
            expected.push_str(&format!("{}[\n", "  ".repeat(level)));
        }
        expected.push_str(&format!("{}1\n", "  ".repeat(depth)));
        for level in (0..depth).rev() {
            expected.push_str(&format!("{}]\n", "  ".repeat(level)));
        }
        assert_eq!(v.render(), expected);
    }

    #[test]
    fn every_control_character_escapes() {
        for b in 0u8..0x20 {
            let c = char::from(b);
            let expected = match c {
                '\n' => "\"\\n\"\n".to_string(),
                '\r' => "\"\\r\"\n".to_string(),
                '\t' => "\"\\t\"\n".to_string(),
                _ => format!("\"\\u{:04x}\"\n", b),
            };
            assert_eq!(Json::Str(c.to_string()).render(), expected);
            let mut w = JsonWriter::with_capacity(0);
            w.str_fmt(format_args!("{c}"));
            assert_eq!(w.finish(), expected, "str_fmt escapes like str");
        }
        let unescaped = "\u{7f}é→";
        assert_eq!(Json::Str(unescaped.into()).render(), format!("\"{unescaped}\"\n"), "only C0 escapes");
    }

    #[test]
    fn parse_round_trips_multibyte_text_and_every_escape() {
        let text = "é → 😀 \" \\ / \u{8} \u{c} \n \r \t \u{1} \u{1f} plain";
        let parsed = Json::parse(&Json::Str(text.into()).render()).unwrap();
        assert_eq!(parsed, Json::Str(text.into()));
        let escaped = r#""\" \\ \/ \b \f \n \r \t \u00e9 \u2192 é😀""#;
        assert_eq!(
            Json::parse(escaped).unwrap(),
            Json::Str("\" \\ / \u{8} \u{c} \n \r \t é → é😀".into())
        );
    }
}

#[cfg(test)]
mod proptests {
    use super::reference::ReferenceWriter;
    use super::*;
    use crate::SimRng;
    use proptest::prelude::*;

    /// Characters of every escape class: plain ASCII, the two escaped printables, the named
    /// control escapes, `\u00XX` controls, DEL (not escaped) and multi-byte text.
    const ALPHABET: [char; 16] =
        ['a', 'Z', '7', ' ', '/', '"', '\\', '\n', '\r', '\t', '\u{1}', '\u{1f}', '\u{7f}', 'é', '→', '😀'];

    /// A string of 0 to 47 characters: short ones take the fixed-width path when clean,
    /// longer ones and those with an escape take the escaping path.
    fn text(rng: &mut SimRng) -> String {
        let len = rng.below(48);
        let plain = rng.below(2) == 0;
        (0..len)
            .map(|_| if plain { ALPHABET[rng.below(5) as usize] } else { ALPHABET[rng.below(16) as usize] })
            .collect()
    }

    /// An integer at or next to a digit-count boundary (0, 9, 10, 99, 100, ... and
    /// `u64::MAX`), or an arbitrary one.
    fn number(rng: &mut SimRng) -> u64 {
        match rng.below(3) {
            0 => {
                let power = 10u64.checked_pow(rng.below(20) as u32).unwrap_or(u64::MAX);
                power.wrapping_sub(rng.below(2))
            }
            1 => u64::MAX - rng.below(2),
            _ => rng.next_u64() >> rng.below(64),
        }
    }

    fn signed(rng: &mut SimRng) -> i64 {
        match rng.below(4) {
            0 => i64::MIN + rng.below(2) as i64,
            1 => i64::MAX,
            _ => number(rng) as i64,
        }
    }

    fn float(rng: &mut SimRng) -> f64 {
        match rng.below(4) {
            0 => [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 0.0, -0.0, 1.0, f64::MIN_POSITIVE][rng.below(7) as usize],
            1 => f64::from_bits(rng.next_u64()),
            _ => (rng.next_f64() - 0.5) * 10f64.powi(rng.below(40) as i32 - 20),
        }
    }

    /// Applies the same generated call sequence to both writers; returns both documents.
    fn write_both(seed: u64, calls: usize) -> (String, String) {
        let mut rng = SimRng::new(seed);
        let mut new = JsonWriter::with_capacity(rng.below(64) as usize);
        let mut old = ReferenceWriter::default();
        let mut depth = 0usize;
        macro_rules! both {
            ($($call:tt)*) => {{
                new.$($call)*;
                old.$($call)*;
            }};
        }
        for _ in 0..calls {
            match rng.below(17) {
                0 => both!(null()),
                1 => {
                    let b = rng.below(2) == 0;
                    both!(bool(b))
                }
                2 => {
                    let i = signed(&mut rng);
                    both!(int(i))
                }
                3 | 4 => {
                    let u = number(&mut rng);
                    both!(uint(u))
                }
                5 => {
                    let u = (rng.below(2) == 0).then(|| number(&mut rng));
                    both!(opt_uint(u))
                }
                6 => {
                    let n = float(&mut rng);
                    both!(num(n))
                }
                7 => {
                    let t = text(&mut rng);
                    both!(str(&t))
                }
                8 => {
                    let (t, u) = (text(&mut rng), number(&mut rng));
                    new.str_uint(&t, u);
                    old.str_fmt(format_args!("{t}{u}"));
                }
                9 => {
                    let (t, u) = (text(&mut rng), signed(&mut rng));
                    both!(str_fmt(format_args!("{t} / {u}: {t}")))
                }
                10 | 11 => {
                    let t = text(&mut rng);
                    both!(key(&t))
                }
                12 => {
                    depth += 1;
                    both!(begin_arr())
                }
                13 => {
                    depth += 1;
                    both!(begin_obj())
                }
                14 if depth > 0 => {
                    depth -= 1;
                    both!(end_arr())
                }
                15 if depth > 0 => {
                    depth -= 1;
                    both!(end_obj())
                }
                _ => {
                    // Nest past the 32 levels one indentation prefix holds.
                    for _ in 0..rng.below(40) {
                        depth += 1;
                        both!(begin_arr());
                    }
                }
            }
        }
        for _ in 0..depth {
            both!(end_obj());
        }
        (new.finish(), old.finish())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// The byte-level writer writes exactly what the `String` writer it replaced wrote, on
        /// random call sequences over every value kind, escape class and nesting depth.
        #[test]
        fn writer_matches_the_reference_writer(seed in any::<u64>(), calls in 0usize..160) {
            let (new, old) = write_both(seed, calls);
            prop_assert_eq!(new, old);
        }
    }

    #[test]
    fn every_digit_boundary_matches_the_reference_writer() {
        let mut values = vec![0, u64::MAX, u64::MAX - 1];
        for exp in 1..20 {
            let power = 10u64.pow(exp);
            values.extend([power - 1, power, power + 1]);
        }
        let mut new = JsonWriter::default();
        let mut old = ReferenceWriter::default();
        new.begin_arr();
        old.begin_arr();
        for &v in &values {
            new.uint(v).int(v as i64).str_uint("n", v);
            old.uint(v).int(v as i64).str_fmt(format_args!("n{v}"));
        }
        new.int(i64::MIN).int(i64::MAX).begin_arr().end_arr().begin_obj().end_obj().end_arr();
        old.int(i64::MIN).int(i64::MAX).begin_arr().end_arr().begin_obj().end_obj().end_arr();
        assert_eq!(new.finish(), old.finish());
    }
}
