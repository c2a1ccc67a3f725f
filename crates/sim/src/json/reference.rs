//! The `String`-based writer that [`JsonWriter`](super::JsonWriter) replaced, kept as the
//! reference of its differential property test: every character pushed one at a time, every
//! fragment appended with `push_str`.

use core::fmt::{self, Write as _};

/// An item separator followed by the indentation of 32 levels.
const LINE_BREAK: &str = ",\n                                                                ";

/// The previous streaming pretty-printer, byte for byte what `JsonWriter` must produce.
#[derive(Debug, Default)]
pub(super) struct ReferenceWriter {
    out: String,
    depth: usize,
    empty: bool,
    after_key: bool,
}

impl ReferenceWriter {
    pub(super) fn finish(mut self) -> String {
        self.out.push('\n');
        self.out
    }

    pub(super) fn null(&mut self) -> &mut Self {
        self.item();
        self.out.push_str("null");
        self
    }

    pub(super) fn bool(&mut self, b: bool) -> &mut Self {
        self.item();
        self.out.push_str(if b { "true" } else { "false" });
        self
    }

    pub(super) fn int(&mut self, i: i64) -> &mut Self {
        self.item();
        if i < 0 {
            self.out.push('-');
        }
        push_u64(&mut self.out, i.unsigned_abs());
        self
    }

    pub(super) fn uint(&mut self, u: u64) -> &mut Self {
        self.item();
        push_u64(&mut self.out, u);
        self
    }

    pub(super) fn opt_uint(&mut self, u: Option<u64>) -> &mut Self {
        match u {
            Some(u) => self.uint(u),
            None => self.null(),
        }
    }

    pub(super) fn num(&mut self, n: f64) -> &mut Self {
        if !n.is_finite() {
            return self.null();
        }
        self.item();
        write!(self.out, "{n:?}").expect("writing to a String cannot fail");
        self
    }

    pub(super) fn str(&mut self, s: &str) -> &mut Self {
        self.item();
        escape_into(s, &mut self.out);
        self
    }

    pub(super) fn str_fmt(&mut self, args: fmt::Arguments<'_>) -> &mut Self {
        self.item();
        self.out.push('"');
        Escaped(&mut self.out).write_fmt(args).expect("writing to a String cannot fail");
        self.out.push('"');
        self
    }

    pub(super) fn key(&mut self, key: &str) -> &mut Self {
        self.item();
        escape_into(key, &mut self.out);
        self.out.push_str(": ");
        self.after_key = true;
        self
    }

    pub(super) fn begin_arr(&mut self) -> &mut Self {
        self.open('[')
    }

    pub(super) fn end_arr(&mut self) -> &mut Self {
        self.close(']')
    }

    pub(super) fn begin_obj(&mut self) -> &mut Self {
        self.open('{')
    }

    pub(super) fn end_obj(&mut self) -> &mut Self {
        self.close('}')
    }

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
        self.empty = false;
        self
    }
}

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

fn escape_into(s: &str, out: &mut String) {
    out.push('"');
    escape_body(s, out);
    out.push('"');
}

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

struct Escaped<'a>(&'a mut String);

impl fmt::Write for Escaped<'_> {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        escape_body(s, self.0);
        Ok(())
    }
}
