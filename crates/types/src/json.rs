//! A minimal, dependency-free JSON document model with parser and writer.
//!
//! The workspace builds fully offline, so rule import/export (paper
//! §4.3(iv)) cannot rely on `serde_json`. This module provides the small
//! JSON subset the framework needs: objects, arrays, strings, integers,
//! floats, booleans and null, with standard escape handling.
//!
//! Object member order is preserved so exports are deterministic.

use std::fmt::{self, Write as _};

/// A parsed JSON document.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An integer literal (no fraction or exponent part).
    Int(i64),
    /// Any other numeric literal.
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; member order is preserved.
    Obj(Vec<(String, Json)>),
}

/// An error raised while parsing a JSON document.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset of the error in the input.
    pub offset: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "json error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for JsonError {}

impl Json {
    /// Builds an object from key/value pairs.
    pub fn obj(members: Vec<(&str, Json)>) -> Json {
        Json::Obj(
            members
                .into_iter()
                .map(|(k, v)| (k.to_owned(), v))
                .collect(),
        )
    }

    /// Builds a string value.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// The member of an object, if present.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The boolean payload, if this is a bool.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The integer payload, if this is an integer.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Json::Int(n) => Some(*n),
            _ => None,
        }
    }

    /// The array items, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Serializes compactly (no whitespace).
    pub fn to_compact(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None, 0);
        out
    }

    /// Serializes with two-space indentation.
    pub fn to_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(2), 0);
        out
    }

    fn write(&self, out: &mut String, indent: Option<usize>, depth: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Int(n) => push_int(out, *n),
            Json::Float(x) => {
                if x.is_finite() {
                    let start = out.len();
                    write!(out, "{x}").expect("writing to a String cannot fail");
                    // Keep the output re-parseable as a float.
                    if !out[start..].contains(['.', 'e', 'E']) {
                        out.push_str(".0");
                    }
                } else {
                    out.push_str("null");
                }
            }
            Json::Str(s) => write_escaped(out, s),
            Json::Arr(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline_indent(out, indent, depth + 1);
                    item.write(out, indent, depth + 1);
                }
                newline_indent(out, indent, depth);
                out.push(']');
            }
            Json::Obj(members) => {
                if members.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (key, value)) in members.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline_indent(out, indent, depth + 1);
                    write_escaped(out, key);
                    out.push(':');
                    if indent.is_some() {
                        out.push(' ');
                    }
                    value.write(out, indent, depth + 1);
                }
                newline_indent(out, indent, depth);
                out.push('}');
            }
        }
    }
}

/// Appends the decimal form of `n` without a temporary `String`: the
/// digits are written back to front into a stack buffer (20 bytes hold
/// `u64::MAX`, so `i64::MIN`'s magnitude fits).
fn push_int(out: &mut String, n: i64) {
    let mut buf = [0u8; 20];
    let mut at = buf.len();
    let mut rest = n.unsigned_abs();
    loop {
        at -= 1;
        buf[at] = b'0' + (rest % 10) as u8;
        rest /= 10;
        if rest == 0 {
            break;
        }
    }
    if n < 0 {
        out.push('-');
    }
    out.push_str(std::str::from_utf8(&buf[at..]).expect("ASCII digits"));
}

fn newline_indent(out: &mut String, indent: Option<usize>, depth: usize) {
    if let Some(width) = indent {
        out.push('\n');
        for _ in 0..width * depth {
            out.push(' ');
        }
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
                write!(out, "\\u{:04x}", c as u32).expect("writing to a String cannot fail");
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Parses a JSON document.
///
/// # Errors
///
/// Returns a [`JsonError`] describing the first malformed construct.
pub fn parse(input: &str) -> Result<Json, JsonError> {
    let mut p = Parser {
        bytes: input.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let value = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing characters after document"));
    }
    Ok(value)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, message: impl Into<String>) -> JsonError {
        JsonError {
            offset: self.pos,
            message: message.into(),
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

    fn expect(&mut self, byte: u8) -> Result<(), JsonError> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(format!("expected '{}'", byte as char)))
        }
    }

    fn literal(&mut self, text: &str, value: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(text.as_bytes()) {
            self.pos += text.len();
            Ok(value)
        } else {
            Err(self.err(format!("expected '{text}'")))
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(c) => Err(self.err(format!("unexpected character '{}'", c as char))),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn object(&mut self) -> Result<Json, JsonError> {
        self.expect(b'{')?;
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            members.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(members));
                }
                _ => return Err(self.err("expected ',' or '}' in object")),
            }
        }
    }

    fn array(&mut self) -> Result<Json, JsonError> {
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

    fn string(&mut self) -> Result<String, JsonError> {
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
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            self.pos += 1;
                            let code = self.hex4()?;
                            let c = if (0xd800..0xdc00).contains(&code) {
                                // Surrogate pair: expect a trailing \uXXXX.
                                if self.bytes[self.pos..].starts_with(b"\\u") {
                                    self.pos += 2;
                                    let low = self.hex4()?;
                                    let combined = 0x10000
                                        + ((code - 0xd800) << 10)
                                        + (low.wrapping_sub(0xdc00) & 0x3ff);
                                    char::from_u32(combined)
                                } else {
                                    None
                                }
                            } else {
                                char::from_u32(code)
                            };
                            out.push(c.ok_or_else(|| self.err("invalid unicode escape"))?);
                            continue;
                        }
                        _ => return Err(self.err("invalid escape sequence")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Copy the run up to the next quote or backslash in
                    // one piece. Both are ASCII, so the run ends on a
                    // character boundary of the (valid UTF-8) input, and
                    // validating only the run keeps the parse linear in
                    // the input.
                    let start = self.pos;
                    while !matches!(self.peek(), None | Some(b'"' | b'\\')) {
                        self.pos += 1;
                    }
                    let run = std::str::from_utf8(&self.bytes[start..self.pos])
                        .map_err(|_| self.err("invalid utf-8 in string"))?;
                    out.push_str(run);
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        if self.pos + 4 > self.bytes.len() {
            return Err(self.err("truncated unicode escape"));
        }
        let hex = std::str::from_utf8(&self.bytes[self.pos..self.pos + 4])
            .map_err(|_| self.err("invalid unicode escape"))?;
        let code = u32::from_str_radix(hex, 16).map_err(|_| self.err("invalid unicode escape"))?;
        self.pos += 4;
        Ok(code)
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        let mut is_float = false;
        if self.peek() == Some(b'.') {
            is_float = true;
            self.pos += 1;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            is_float = true;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("invalid number"))?;
        if !is_float {
            if let Ok(n) = text.parse::<i64>() {
                return Ok(Json::Int(n));
            }
        }
        text.parse::<f64>()
            .map(Json::Float)
            .map_err(|_| self.err("invalid number"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Rng;

    #[test]
    fn round_trips_scalars() {
        for text in ["null", "true", "false", "42", "-7", "3.5", "\"hi\""] {
            let v = parse(text).unwrap();
            assert_eq!(parse(&v.to_compact()).unwrap(), v, "{text}");
        }
    }

    #[test]
    fn parses_nested_structures() {
        let doc = parse(r#"{"a": [1, {"b": "x"}, null], "c": true}"#).unwrap();
        assert_eq!(doc.get("c"), Some(&Json::Bool(true)));
        let arr = doc.get("a").unwrap().as_arr().unwrap();
        assert_eq!(arr.len(), 3);
        assert_eq!(arr[1].get("b").unwrap().as_str(), Some("x"));
    }

    #[test]
    fn string_escapes_round_trip() {
        let original = Json::Str("line\nquote\"back\\slash\ttab\u{8}".to_owned());
        let text = original.to_compact();
        assert_eq!(parse(&text).unwrap(), original);
    }

    #[test]
    fn unicode_escapes_parse() {
        assert_eq!(parse(r#""é😀""#).unwrap(), Json::Str("é😀".to_owned()));
    }

    #[test]
    fn pretty_output_reparses() {
        let doc = Json::obj(vec![
            ("rules", Json::Arr(vec![Json::Int(1), Json::Int(2)])),
            ("empty", Json::Arr(vec![])),
            ("name", Json::str("home")),
        ]);
        let pretty = doc.to_pretty();
        assert!(pretty.contains('\n'));
        assert_eq!(parse(&pretty).unwrap(), doc);
    }

    #[test]
    fn rejects_malformed_documents() {
        for text in ["", "{", "[1,]", "{\"a\":}", "tru", "\"unterminated", "1 2"] {
            assert!(parse(text).is_err(), "{text:?} should fail");
        }
    }

    #[test]
    fn compact_output_pins_exact_bytes() {
        let doc = Json::obj(vec![
            ("version", Json::Int(2)),
            ("min", Json::Int(i64::MIN)),
            ("max", Json::Int(i64::MAX)),
            ("zero", Json::Int(0)),
            ("neg", Json::Int(-40)),
            ("float", Json::Float(3.0)),
            ("tiny", Json::Float(1e-7)),
            ("nan", Json::Float(f64::NAN)),
            ("text", Json::str("a\"b\\c\n\u{1}é")),
            (
                "list",
                Json::Arr(vec![Json::Null, Json::Bool(true), Json::Arr(vec![])]),
            ),
            ("empty", Json::Obj(vec![])),
        ]);
        assert_eq!(
            doc.to_compact(),
            concat!(
                r#"{"version":2,"min":-9223372036854775808,"max":9223372036854775807,"#,
                r#""zero":0,"neg":-40,"float":3.0,"tiny":0.0000001,"nan":null,"#,
                r#""text":"a\"b\\c\n\u0001é","list":[null,true,[]],"empty":{}}"#
            )
        );
    }

    #[test]
    fn integers_print_as_their_decimal_form() {
        let mut rng = Rng::new(0x1d_2024);
        let edges = [
            0,
            1,
            -1,
            9,
            10,
            -10,
            99,
            100,
            i64::MAX,
            i64::MIN,
            i64::MIN + 1,
        ];
        let seeded = (0..2_000).map(|_| {
            // Spread the magnitudes over every digit count.
            let n = rng.next_u64() >> rng.below(64);
            if rng.chance(1, 2) {
                n as i64
            } else {
                (n as i64).wrapping_neg()
            }
        });
        for n in edges.into_iter().chain(seeded) {
            assert_eq!(Json::Int(n).to_compact(), n.to_string());
        }
    }

    /// A seeded document over every variant, with strings drawn from
    /// quotes, backslashes, control characters and non-ASCII text.
    fn arb_json(rng: &mut Rng, depth: u32) -> Json {
        const PIECES: [&str; 10] = [
            "\"", "\\", "\n", "\t", "\u{0}", "\u{1f}", "é", "😀", "ab", "/",
        ];
        let leaf = depth == 0 || rng.chance(1, 2);
        match rng.below(if leaf { 5 } else { 7 }) {
            0 => Json::Null,
            1 => Json::Bool(rng.chance(1, 2)),
            2 => {
                let any = rng.next_u64() as i64;
                Json::Int(*rng.pick(&[i64::MIN, i64::MAX, -1, 0, any]))
            }
            3 => Json::Float(rng.range_i64(-1_000, 1_000) as f64 / 8.0),
            4 => Json::Str((0..rng.below(6)).map(|_| *rng.pick(&PIECES)).collect()),
            5 => Json::Arr(
                (0..rng.below(4))
                    .map(|_| arb_json(rng, depth - 1))
                    .collect(),
            ),
            _ => Json::Obj(
                (0..rng.below(4))
                    .map(|i| {
                        (
                            format!("k{i}{}", rng.pick(&PIECES)),
                            arb_json(rng, depth - 1),
                        )
                    })
                    .collect(),
            ),
        }
    }

    #[test]
    fn seeded_documents_round_trip_through_the_compact_writer() {
        let mut rng = Rng::new(0x0a11_0c8e);
        for case in 0..500 {
            let doc = arb_json(&mut rng, 4);
            let text = doc.to_compact();
            assert_eq!(parse(&text).unwrap(), doc, "case {case}: {text}");
            assert_eq!(
                parse(&doc.to_pretty()).unwrap(),
                doc,
                "case {case} (pretty)"
            );
        }
    }

    /// Parsing is linear in the input: a 4 MiB document of strings
    /// parses in well under a second even in a debug build, where a scan
    /// that re-validated the rest of the input at every string character
    /// would take hours.
    #[test]
    fn long_strings_parse_in_linear_time() {
        let item = Json::str("thermo-042 temperature é ".repeat(40));
        let doc = Json::Arr(vec![item; 4 * 1024 * 1024 / 1_000]);
        let text = doc.to_compact();
        let started = std::time::Instant::now();
        assert_eq!(parse(&text).unwrap(), doc);
        assert!(started.elapsed() < std::time::Duration::from_secs(30));
    }

    #[test]
    fn large_integers_fall_back_to_float() {
        // Beyond i64 range still parses (as float).
        assert!(matches!(
            parse("99999999999999999999").unwrap(),
            Json::Float(_)
        ));
    }
}
