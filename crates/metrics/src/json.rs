//! A minimal JSON value, serializer and parser.
//!
//! The workspace builds offline with no external crates, so the bench
//! report, the daemon's job specs and results, and the golden-digest files
//! are produced and consumed by this hand-rolled implementation instead of
//! serde. Design constraints, in order:
//!
//! 1. **Deterministic output.** Objects serialize in insertion order and
//!    [`Registry`](crate::Registry) inserts keys in sorted order, so two
//!    runs with identical counters produce byte-identical documents — the
//!    property the golden-identity matrix asserts across `--jobs` values.
//! 2. **Integer fidelity.** Counters are `u64` end to end; integers are
//!    never round-tripped through `f64`.
//! 3. **Greppable reports.** Serialization is pretty-printed with two-space
//!    indentation so report diffs line up in code review.
//! 4. **Safe on untrusted input.** The parser now sits on a network
//!    boundary (`fetchvp serve` feeds request bodies straight into
//!    [`Json::parse`]), so malformed input must always surface as a
//!    [`ParseError`], never a panic, and nesting is capped at
//!    [`MAX_DEPTH`] so adversarial `[[[[…` documents cannot overflow the
//!    stack. The parser imposes **no byte-size limit** of its own — memory
//!    use is linear in the input — so network callers must bound the body
//!    they accept *before* parsing (the server caps request bodies at its
//!    `max_body_bytes`, 256 KiB by default).
//!
//! ```
//! use fetchvp_metrics::json::Json;
//!
//! let doc = Json::object([
//!     ("hits".to_string(), Json::UInt(3)),
//!     ("rate".to_string(), Json::Float(0.75)),
//! ]);
//! let text = doc.to_json();
//! assert_eq!(Json::parse(&text).unwrap(), doc);
//! ```

use std::fmt;

/// A JSON document.
///
/// Numbers are split into [`Json::UInt`] (unsigned integers, used for
/// counters) and [`Json::Float`] (everything else): the reports this crate
/// serves never contain negative integers, and keeping counters out of
/// `f64` preserves them exactly up to `u64::MAX`.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A non-negative integer (counters).
    UInt(u64),
    /// Any other number (gauges, throughput). Non-finite values serialize
    /// as `null` (JSON has no NaN/Infinity).
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Array(Vec<Json>),
    /// An object. Pairs keep insertion order; builders that need canonical
    /// output insert keys pre-sorted.
    Object(Vec<(String, Json)>),
}

impl Json {
    /// Builds an object from `(key, value)` pairs, keeping their order.
    pub fn object(pairs: impl IntoIterator<Item = (String, Json)>) -> Json {
        Json::Object(pairs.into_iter().collect())
    }

    /// Looks up a key of an object (`None` for missing keys or non-objects).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Object(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Walks a dotted path of object keys.
    pub fn get_path(&self, path: &str) -> Option<&Json> {
        path.split('.').try_fold(self, |v, key| v.get(key))
    }

    /// The value as an unsigned integer.
    pub fn as_u64(&self) -> Option<u64> {
        match *self {
            Json::UInt(n) => Some(n),
            _ => None,
        }
    }

    /// The value as a float (integers widen losslessly where possible).
    pub fn as_f64(&self) -> Option<f64> {
        match *self {
            Json::UInt(n) => Some(n as f64),
            Json::Float(x) => Some(x),
            _ => None,
        }
    }

    /// The value as a string slice.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value's object pairs.
    pub fn as_object(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Object(pairs) => Some(pairs),
            _ => None,
        }
    }

    /// Serializes to pretty-printed JSON (two-space indent, trailing
    /// newline omitted).
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out
    }

    fn write(&self, out: &mut String, indent: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::UInt(n) => {
                let mut buf = [0u8; 20];
                out.push_str(fmt_u64(*n, &mut buf));
            }
            Json::Float(x) => write_f64(out, *x),
            Json::Str(s) => write_escaped(out, s),
            Json::Array(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('\n');
                    push_indent(out, indent + 1);
                    item.write(out, indent + 1);
                }
                out.push('\n');
                push_indent(out, indent);
                out.push(']');
            }
            Json::Object(pairs) => {
                if pairs.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (key, value)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('\n');
                    push_indent(out, indent + 1);
                    write_escaped(out, key);
                    out.push_str(": ");
                    value.write(out, indent + 1);
                }
                out.push('\n');
                push_indent(out, indent);
                out.push('}');
            }
        }
    }

    /// Parses a JSON document.
    ///
    /// Malformed input of any shape returns a [`ParseError`] — this
    /// function never panics — and documents nested deeper than
    /// [`MAX_DEPTH`] are rejected before recursion can exhaust the stack.
    /// No byte-size limit is enforced here; callers parsing untrusted
    /// input must cap its size first.
    pub fn parse(text: &str) -> Result<Json, ParseError> {
        let mut p = Parser { text, pos: 0, depth: 0 };
        p.skip_ws();
        let value = p.value()?;
        p.skip_ws();
        if p.pos != p.text.len() {
            return Err(p.err("trailing characters after document"));
        }
        Ok(value)
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_json())
    }
}

fn push_indent(out: &mut String, levels: usize) {
    for _ in 0..levels {
        out.push_str("  ");
    }
}

fn fmt_u64(mut n: u64, buf: &mut [u8; 20]) -> &str {
    let mut i = buf.len();
    loop {
        i -= 1;
        buf[i] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    // The buffer holds only ASCII digits, so this cannot fail; fall back
    // to "0" rather than keeping a panic path in the serializer.
    std::str::from_utf8(&buf[i..]).unwrap_or("0")
}

/// Writes a float using Rust's shortest round-trip formatting; the output
/// always contains a `.` or an exponent so it parses back as a float.
fn write_f64(out: &mut String, x: f64) {
    if !x.is_finite() {
        out.push_str("null");
        return;
    }
    let s = format!("{x:?}");
    out.push_str(&s);
    if !s.contains(['.', 'e', 'E']) {
        out.push_str(".0");
    }
}

fn write_escaped(out: &mut String, s: &str) {
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

/// A parse failure with a byte offset into the input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset of the failure.
    pub offset: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON parse error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for ParseError {}

/// Maximum container nesting depth [`Json::parse`] accepts.
///
/// The parser recurses once per nested array/object, so untrusted input
/// like `[[[[…` could otherwise overflow the stack; 64 levels is far
/// deeper than any report this workspace produces (bench reports nest 4).
pub const MAX_DEPTH: usize = 64;

struct Parser<'a> {
    text: &'a str,
    pos: usize,
    /// Current container nesting depth, checked against [`MAX_DEPTH`].
    depth: usize,
}

impl<'a> Parser<'a> {
    fn bytes(&self) -> &'a [u8] {
        self.text.as_bytes()
    }

    fn err(&self, message: &str) -> ParseError {
        ParseError { offset: self.pos, message: message.to_string() }
    }

    fn enter(&mut self) -> Result<(), ParseError> {
        self.depth += 1;
        if self.depth > MAX_DEPTH {
            return Err(self.err(&format!("nesting deeper than {MAX_DEPTH} levels")));
        }
        Ok(())
    }

    fn leave(&mut self) {
        self.depth -= 1;
    }

    fn peek(&self) -> Option<u8> {
        self.bytes().get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, byte: u8) -> Result<(), ParseError> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected `{}`", byte as char)))
        }
    }

    fn literal(&mut self, text: &str, value: Json) -> Result<Json, ParseError> {
        if self.bytes()[self.pos..].starts_with(text.as_bytes()) {
            self.pos += text.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected `{text}`")))
        }
    }

    fn value(&mut self) -> Result<Json, ParseError> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    fn array(&mut self) -> Result<Json, ParseError> {
        self.expect(b'[')?;
        self.enter()?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            self.leave();
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
                    self.leave();
                    return Ok(Json::Array(items));
                }
                _ => return Err(self.err("expected `,` or `]`")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, ParseError> {
        self.expect(b'{')?;
        self.enter()?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            self.leave();
            return Ok(Json::Object(pairs));
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
                    self.leave();
                    return Ok(Json::Object(pairs));
                }
                _ => return Err(self.err("expected `,` or `}`")),
            }
        }
    }

    fn string(&mut self) -> Result<String, ParseError> {
        self.expect(b'"')?;
        let mut s = String::new();
        loop {
            // Copy the run of plain characters up to the next `"` or `\`.
            // Both are ASCII, so the run ends on a character boundary.
            let rest = &self.bytes()[self.pos..];
            let run = rest.iter().position(|&b| b == b'"' || b == b'\\').unwrap_or(rest.len());
            s.push_str(&self.text[self.pos..self.pos + run]);
            self.pos += run;
            let quote = self.peek().ok_or_else(|| self.err("unterminated string"))? == b'"';
            self.pos += 1;
            if quote {
                return Ok(s);
            }
            let esc = self.peek().ok_or_else(|| self.err("unterminated escape"))?;
            self.pos += 1;
            match esc {
                b'"' => s.push('"'),
                b'\\' => s.push('\\'),
                b'/' => s.push('/'),
                b'b' => s.push('\u{0008}'),
                b'f' => s.push('\u{000c}'),
                b'n' => s.push('\n'),
                b'r' => s.push('\r'),
                b't' => s.push('\t'),
                b'u' => {
                    let hex = self
                        .text
                        .get(self.pos..self.pos + 4)
                        .ok_or_else(|| self.err("truncated \\u escape"))?;
                    let code =
                        u32::from_str_radix(hex, 16).map_err(|_| self.err("bad \\u escape"))?;
                    self.pos += 4;
                    // Surrogate pairs are not produced by our serializer;
                    // map lone surrogates to U+FFFD.
                    s.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                }
                _ => return Err(self.err("unknown escape")),
            }
        }
    }

    fn number(&mut self) -> Result<Json, ParseError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
            self.pos += 1;
        }
        let mut is_float = false;
        if self.peek() == Some(b'.') {
            is_float = true;
            self.pos += 1;
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            is_float = true;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        // Only ASCII digits, sign and exponent bytes were consumed, so the
        // slice is on character boundaries; surface a ParseError instead of
        // keeping a panic path on the network boundary.
        let text = self.text.get(start..self.pos).ok_or_else(|| self.err("bad number"))?;
        if !is_float && !text.starts_with('-') {
            if let Ok(n) = text.parse::<u64>() {
                return Ok(Json::UInt(n));
            }
        }
        text.parse::<f64>().map(Json::Float).map_err(|_| self.err("bad number"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn integers_stay_integers() {
        let big = u64::MAX;
        let doc = Json::UInt(big);
        let back = Json::parse(&doc.to_json()).unwrap();
        assert_eq!(back, doc, "u64::MAX must not round-trip through f64");
        assert!(!doc.to_json().contains('.'));
    }

    #[test]
    fn floats_round_trip_shortest_form() {
        for x in [0.1, 1.0 / 3.0, 1e-12, 12345.6789, -2.5] {
            let text = Json::Float(x).to_json();
            assert_eq!(Json::parse(&text).unwrap(), Json::Float(x), "{text}");
        }
        // Whole floats keep a `.0` so they re-parse as floats.
        assert_eq!(Json::Float(3.0).to_json(), "3.0");
        assert_eq!(Json::Float(f64::NAN).to_json(), "null");
    }

    #[test]
    fn strings_escape_and_round_trip() {
        let nasty = "quote\" backslash\\ newline\n tab\t ctrl\u{1} unicode\u{00e9}";
        let text = Json::Str(nasty.to_string()).to_json();
        assert_eq!(Json::parse(&text).unwrap(), Json::Str(nasty.to_string()));
        assert!(text.contains("\\u0001"));
    }

    #[test]
    fn nested_document_round_trips_byte_identically() {
        let doc = Json::object([
            ("counters".to_string(), Json::object([("a.b".to_string(), Json::UInt(7))])),
            ("list".to_string(), Json::Array(vec![Json::Bool(true), Json::Null])),
            ("empty".to_string(), Json::object([])),
        ]);
        let text = doc.to_json();
        let reparsed = Json::parse(&text).unwrap();
        assert_eq!(reparsed, doc);
        assert_eq!(reparsed.to_json(), text, "serialize∘parse must be the identity on output");
    }

    #[test]
    fn get_path_walks_objects() {
        let doc =
            Json::object([("a".to_string(), Json::object([("b".to_string(), Json::UInt(9))]))]);
        assert_eq!(doc.get_path("a.b").and_then(Json::as_u64), Some(9));
        assert_eq!(doc.get_path("a.missing"), None);
    }

    #[test]
    fn parse_rejects_malformed_input() {
        for bad in ["", "{", "[1,", "{\"a\" 1}", "tru", "1 2", "\"unterminated"] {
            assert!(Json::parse(bad).is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn string_errors_name_their_byte_offset() {
        for (bad, offset, message) in [
            ("\"unterminated", 13, "unterminated string"),
            ("\"a\\", 3, "unterminated escape"),
            ("\"é\\q\"", 5, "unknown escape"),
            ("\"\\u12\"", 3, "truncated \\u escape"),
            ("\"\\uzzzz\"", 3, "bad \\u escape"),
            // Four bytes that end inside a character, or hold one.
            ("\"\\u000é\"", 3, "truncated \\u escape"),
            ("\"\\u0é1\"", 3, "bad \\u escape"),
        ] {
            let expected = ParseError { offset, message: message.to_string() };
            assert_eq!(Json::parse(bad), Err(expected), "{bad:?}");
        }
    }

    #[test]
    fn multibyte_characters_round_trip_next_to_escapes() {
        for text in ["é\"é😀", "😀\\\n日本", "\u{1}é/"] {
            let json = Json::Str(text.to_string()).to_json();
            assert_eq!(Json::parse(&json), Ok(Json::Str(text.to_string())), "{json}");
        }
        assert_eq!(Json::parse(r#""\u00e9é\/""#), Ok(Json::Str("éé/".to_string())));
    }

    #[test]
    fn parse_time_is_linear_in_document_length() {
        // Regression: every string character re-validated the rest of the
        // input as UTF-8, so a 256 KiB request body took over a second.
        const MIB: usize = 1 << 20;
        let one_string = format!("\"{}\"", "x".repeat(MIB));
        let short_strings = format!("[{}\"\"]", "\"abcdefgh\",".repeat(MIB / 11));
        for doc in [one_string, short_strings] {
            let (tx, rx) = std::sync::mpsc::channel();
            let parser = std::thread::spawn(move || tx.send(Json::parse(&doc).is_ok()));
            // A timeout, not a join: the quadratic parser must fail fast.
            let parsed = rx.recv_timeout(std::time::Duration::from_secs(5));
            assert_eq!(parsed, Ok(true), "a 1 MiB document must parse within 5 s");
            parser.join().expect("the parser thread finished").expect("the receiver waits");
        }
    }

    #[test]
    fn parse_rejects_deep_nesting_without_overflowing() {
        let ok = "[".repeat(MAX_DEPTH) + &"]".repeat(MAX_DEPTH);
        assert!(Json::parse(&ok).is_ok(), "exactly MAX_DEPTH levels must parse");
        let too_deep = "[".repeat(MAX_DEPTH + 1) + &"]".repeat(MAX_DEPTH + 1);
        assert!(Json::parse(&too_deep).is_err(), "MAX_DEPTH + 1 levels must be rejected");
        // An adversarial open-bracket flood must error, not blow the stack.
        for adversarial in ["[".repeat(1_000_000), "{\"k\":".repeat(1_000_000)] {
            assert!(Json::parse(&adversarial).is_err());
        }
    }

    #[test]
    fn parse_accepts_whitespace_and_nesting() {
        let doc = Json::parse(" { \"a\" : [ 1 , 2.5 , \"x\" ] } ").unwrap();
        assert_eq!(
            doc.get_path("a").unwrap(),
            &Json::Array(vec![Json::UInt(1), Json::Float(2.5), Json::Str("x".to_string()),])
        );
    }
}
