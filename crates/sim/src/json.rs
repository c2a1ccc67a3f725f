//! A minimal, dependency-free JSON writer for machine-readable benchmark output.
//!
//! The workspace vendors no serialisation crate (the build environment has no registry
//! access), and the benchmark output is a small, fixed shape — so a hand-rolled value tree
//! with a compliant renderer is all that is needed. There is one pretty-printer,
//! [`JsonWriter`]: it streams values into a `String`, escapes strings per RFC 8259, emits
//! non-finite numbers as `null` (JSON has no NaN/Infinity), and indents by two spaces so the
//! artifacts diff cleanly between CI runs. [`Json::render`] walks a value tree through it;
//! large documents (the Perfetto and metrics exports) call it directly and never build a tree.

use core::fmt::{self, Write as _};

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

/// An item separator followed by the indentation of 32 levels: [`JsonWriter`] starts every
/// line with one slice of it (deeper levels take the spaces in chunks).
const LINE_BREAK: &str = ",\n                                                                ";

/// A streaming pretty-printer: writes one JSON document straight into a `String`, byte for
/// byte what [`Json::render`] produces for the equivalent value tree.
///
/// Values are written in document order. Inside an object every value follows its
/// [`JsonWriter::key`]; containers open with `begin_*` and close with the matching `end_*`.
/// Empty containers render compactly (`[]`, `{}`); otherwise every item sits on its own line
/// with two spaces of indentation per level, and [`JsonWriter::finish`] ends the document with
/// a newline. Closing a container that was never opened panics.
///
/// ```
/// use tis_sim::json::{Json, JsonWriter};
///
/// let mut w = JsonWriter::with_capacity(64);
/// w.begin_obj();
/// w.key("name").str("fig09");
/// w.key("cycles").begin_arr().uint(7).uint(9).end_arr();
/// w.end_obj();
/// let tree = Json::obj([
///     ("name", Json::Str("fig09".into())),
///     ("cycles", Json::Arr(vec![Json::UInt(7), Json::UInt(9)])),
/// ]);
/// assert_eq!(w.finish(), tree.render());
/// ```
#[derive(Debug, Default)]
pub struct JsonWriter {
    out: String,
    depth: usize,
    /// Whether the innermost open container has no items yet.
    empty: bool,
    /// Whether a key was just written, so the next value continues its line.
    after_key: bool,
}

impl JsonWriter {
    /// Creates a writer whose output buffer holds `bytes` before it first grows.
    pub fn with_capacity(bytes: usize) -> Self {
        JsonWriter { out: String::with_capacity(bytes), ..JsonWriter::default() }
    }

    /// Ends the document with a newline and returns it.
    pub fn finish(mut self) -> String {
        debug_assert_eq!(self.depth, 0, "every container must be closed before finishing");
        self.out.push('\n');
        self.out
    }

    /// Writes `null`.
    pub fn null(&mut self) -> &mut Self {
        self.item();
        self.out.push_str("null");
        self
    }

    /// Writes `true` or `false`.
    pub fn bool(&mut self, b: bool) -> &mut Self {
        self.item();
        self.out.push_str(if b { "true" } else { "false" });
        self
    }

    /// Writes a signed integer.
    pub fn int(&mut self, i: i64) -> &mut Self {
        self.item();
        if i < 0 {
            self.out.push('-');
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
        write!(self.out, "{n:?}").expect("writing to a String cannot fail");
        self
    }

    /// Writes a string, escaped and quoted.
    pub fn str(&mut self, s: &str) -> &mut Self {
        self.item();
        escape_into(s, &mut self.out);
        self
    }

    /// Writes the formatted text as one escaped, quoted string without allocating it first,
    /// e.g. `w.str_fmt(format_args!("task {id}"))`.
    pub fn str_fmt(&mut self, args: fmt::Arguments<'_>) -> &mut Self {
        self.item();
        self.out.push('"');
        Escaped(&mut self.out).write_fmt(args).expect("writing to a String cannot fail");
        self.out.push('"');
        self
    }

    /// Writes an object key; the next value written is its value.
    pub fn key(&mut self, key: &str) -> &mut Self {
        self.item();
        escape_into(key, &mut self.out);
        self.out.push_str(": ");
        self.after_key = true;
        self
    }

    /// Opens an array.
    pub fn begin_arr(&mut self) -> &mut Self {
        self.open('[')
    }

    /// Closes the innermost array.
    pub fn end_arr(&mut self) -> &mut Self {
        self.close(']')
    }

    /// Opens an object.
    pub fn begin_obj(&mut self) -> &mut Self {
        self.open('{')
    }

    /// Closes the innermost object.
    pub fn end_obj(&mut self) -> &mut Self {
        self.close('}')
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
    fn item(&mut self) {
        if self.after_key {
            self.after_key = false;
        } else if self.depth > 0 {
            push_line_break(&mut self.out, !self.empty, self.depth);
            self.empty = false;
        }
    }

    fn open(&mut self, bracket: char) -> &mut Self {
        self.item();
        self.out.push(bracket);
        self.depth += 1;
        self.empty = true;
        self
    }

    fn close(&mut self, bracket: char) -> &mut Self {
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

/// Appends an optional comma, a newline and the indentation of `levels` levels.
fn push_line_break(out: &mut String, comma: bool, levels: usize) {
    let start = usize::from(!comma);
    let mut spaces = 2 * levels;
    if 2 + spaces <= LINE_BREAK.len() {
        out.push_str(&LINE_BREAK[start..2 + spaces]);
        return;
    }
    out.push_str(&LINE_BREAK[start..2]);
    while spaces > 0 {
        let chunk = spaces.min(LINE_BREAK.len() - 2);
        out.push_str(&LINE_BREAK[2..2 + chunk]);
        spaces -= chunk;
    }
}

/// Appends the decimal digits of `v`, formatted in a stack buffer.
fn push_u64(out: &mut String, mut v: u64) {
    let mut buf = [0u8; 20];
    let mut at = buf.len();
    loop {
        at -= 1;
        buf[at] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    for &d in &buf[at..] {
        out.push(char::from(d));
    }
}

/// Escapes a string per RFC 8259 and appends it, quotes included.
fn escape_into(s: &str, out: &mut String) {
    out.push('"');
    escape_body(s, out);
    out.push('"');
}

/// Appends `s` escaped, without quotes. Every character that needs an escape is ASCII, so the
/// text between two of them is copied as one slice — a string with nothing to escape in one
/// `push_str`.
fn escape_body(s: &str, out: &mut String) {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    let mut run = 0;
    for (i, b) in s.bytes().enumerate() {
        if b >= 0x20 && b != b'"' && b != b'\\' {
            continue;
        }
        out.push_str(&s[run..i]);
        match b {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b'\n' => out.push_str("\\n"),
            b'\r' => out.push_str("\\r"),
            b'\t' => out.push_str("\\t"),
            _ => {
                out.push_str("\\u00");
                out.push(HEX[usize::from(b >> 4)] as char);
                out.push(HEX[usize::from(b & 0xf)] as char);
            }
        }
        run = i + 1;
    }
    out.push_str(&s[run..]);
}

/// Escapes everything formatted through it into the wrapped string.
struct Escaped<'a>(&'a mut String);

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
