//! The workspace's one JSON reader, and the writers every JSON artifact
//! shares.
//!
//! Telemetry event lines, service heartbeat lines, flight-recorder
//! incident files and bench reports are all written by hand with stable
//! field order and read back through [`parse_object`] and the typed getters
//! on [`Value`]. Every value goes through one of four `Display` adapters —
//! [`float`] (non-finite values as the strings `"NaN"`, `"inf"` and
//! `"-inf"`), [`string`], and inside this crate `hex_key` (structure keys
//! as fixed-width hex strings) and `or_null` — and every field of a
//! one-line object through `push_field`; the indented multi-line documents
//! lay out their arrays and maps with [`push_items`]. Nesting is capped at
//! [`MAX_DEPTH`], so a hostile file returns an error instead of
//! overflowing the stack.

use std::fmt::{self, Display, Write as _};

/// Deepest array/object nesting [`parse_object`] accepts (the top-level
/// object counts as one level). The deepest artifact written today nests
/// three levels (an incident's event window: object, array, object).
pub const MAX_DEPTH: usize = 64;

/// A string value as a JSON string literal, escaping quotes, backslashes
/// and control characters.
pub fn string(s: &str) -> impl Display + '_ {
    fmt::from_fn(move |f| {
        f.write_char('"')?;
        for c in s.chars() {
            match c {
                '"' => f.write_str("\\\"")?,
                '\\' => f.write_str("\\\\")?,
                '\n' => f.write_str("\\n")?,
                '\r' => f.write_str("\\r")?,
                '\t' => f.write_str("\\t")?,
                c if (c as u32) < 0x20 => write!(f, "\\u{:04x}", c as u32)?,
                c => f.write_char(c)?,
            }
        }
        f.write_char('"')
    })
}

/// A float value: finite values as the shortest literal that round-trips
/// exactly, non-finite ones as the strings `"NaN"`, `"inf"` or `"-inf"`.
pub fn float(v: f64) -> impl Display {
    fmt::from_fn(move |f| match v {
        v if v.is_finite() => write!(f, "{v:?}"),
        v if v.is_nan() => f.write_str("\"NaN\""),
        v if v > 0.0 => f.write_str("\"inf\""),
        _ => f.write_str("\"-inf\""),
    })
}

/// A full-range `u64` structure key as a fixed-width hex string (a JSON
/// number would round through `f64` above 2^53); read back with
/// [`Value::key_field`].
pub(crate) fn hex_key(key: u64) -> impl Display {
    fmt::from_fn(move |f| write!(f, "\"{key:016x}\""))
}

/// `null` for `None`, the value itself otherwise.
pub(crate) fn or_null<T: Display>(v: Option<T>) -> impl Display {
    fmt::from_fn(move |f| match &v {
        Some(v) => v.fmt(f),
        None => f.write_str("null"),
    })
}

/// Appends `,"key":value` — one field of a compact one-line object (event
/// and heartbeat lines). Keys are plain identifiers, written unescaped.
pub(crate) fn push_field(buf: &mut String, key: impl Display, value: impl Display) {
    let _ = write!(buf, ",\"{key}\":{value}");
}

/// Appends each item of an indented array or map on its own line, four
/// spaces in and comma-separated; `item` writes one item. The caller
/// writes the brackets and the closing line break.
pub fn push_items<I: IntoIterator>(
    buf: &mut String,
    items: I,
    mut item: impl FnMut(&mut String, I::Item),
) {
    for (i, it) in items.into_iter().enumerate() {
        buf.push_str(if i == 0 { "\n    " } else { ",\n    " });
        item(buf, it);
    }
}

/// A parsed JSON value. Read object fields through the typed getters; an
/// array field's items are `Value`s too ([`Value::arr_field`]).
#[derive(Debug, Clone, PartialEq)]
pub struct Value(Node);

#[derive(Debug, Clone, PartialEq)]
enum Node {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Value>),
    /// Keys in document order; lookups take the first match.
    Obj(Vec<(String, Value)>),
}

/// Parses one complete JSON document whose top level is an object.
///
/// # Errors
///
/// A description of the first syntax error (with byte offset), of a
/// non-object top level, of nesting deeper than [`MAX_DEPTH`], or of
/// trailing non-whitespace bytes after the document.
pub fn parse_object(text: &str) -> Result<Value, String> {
    let mut p = Parser { text, pos: 0 };
    p.skip_ws();
    if p.peek() != Some(b'{') {
        return Err(format!(
            "expected an object, got {:?}",
            p.peek().map(char::from)
        ));
    }
    let v = p.value(0)?;
    p.skip_ws();
    if p.pos != text.len() {
        return Err(format!("trailing bytes at offset {}", p.pos));
    }
    Ok(v)
}

/// Typed field getters, following the writers' conventions. Each returns
/// `Err` naming the field when it is absent or holds another type.
impl Value {
    /// The field `key` of an object (first match); `None` when absent or
    /// when this value is not an object.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match &self.0 {
            Node::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Whether this value is `null`.
    pub fn is_null(&self) -> bool {
        self.0 == Node::Null
    }

    /// Reads field `key` through `read`, or describes what was there.
    fn field<'a, T>(
        &'a self,
        key: &str,
        want: &str,
        read: impl FnOnce(&'a Value) -> Option<T>,
    ) -> Result<T, String> {
        let v = self.get(key);
        v.and_then(read)
            .ok_or_else(|| format!("field {key:?}: expected {want}, got {v:?}"))
    }

    /// A number, or one of the non-finite strings [`float`] writes.
    pub fn f64_field(&self, key: &str) -> Result<f64, String> {
        self.field(key, "number", |v| match &v.0 {
            Node::Num(x) => Some(*x),
            Node::Str(s) if s == "NaN" => Some(f64::NAN),
            Node::Str(s) if s == "inf" => Some(f64::INFINITY),
            Node::Str(s) if s == "-inf" => Some(f64::NEG_INFINITY),
            _ => None,
        })
    }

    /// A non-negative whole number below 2^64.
    pub fn u64_field(&self, key: &str) -> Result<u64, String> {
        // `u64::MAX as f64` is 2^64 itself, the first value out of range.
        self.field(key, "non-negative integer", |v| match v.0 {
            Node::Num(x) if x >= 0.0 && x.fract() == 0.0 && x < u64::MAX as f64 => Some(x as u64),
            _ => None,
        })
    }

    /// [`Value::u64_field`] as a `usize`; also an error when it overflows.
    pub fn usize_field(&self, key: &str) -> Result<usize, String> {
        let v = self.u64_field(key)?;
        usize::try_from(v).map_err(|_| format!("field {key:?}: {v} overflows usize"))
    }

    /// A boolean.
    pub fn bool_field(&self, key: &str) -> Result<bool, String> {
        self.field(key, "bool", |v| match v.0 {
            Node::Bool(b) => Some(b),
            _ => None,
        })
    }

    /// A string.
    pub fn str_field(&self, key: &str) -> Result<String, String> {
        self.field(key, "string", |v| match &v.0 {
            Node::Str(s) => Some(s.clone()),
            _ => None,
        })
    }

    /// A full-range `u64` written as a hex string (structure-key hashes;
    /// a JSON number would round through `f64` above 2^53).
    pub fn key_field(&self, key: &str) -> Result<u64, String> {
        self.field(key, "hex string", |v| match &v.0 {
            Node::Str(s) => u64::from_str_radix(s, 16).ok(),
            _ => None,
        })
    }

    /// An array's items.
    pub fn arr_field(&self, key: &str) -> Result<&[Value], String> {
        self.field(key, "array", |v| match &v.0 {
            Node::Arr(items) => Some(items.as_slice()),
            _ => None,
        })
    }

    /// A nested object.
    pub fn obj_field(&self, key: &str) -> Result<&Value, String> {
        self.field(key, "object", |v| matches!(v.0, Node::Obj(_)).then_some(v))
    }
}

struct Parser<'a> {
    text: &'a str,
    /// Byte offset into `text`.
    pos: usize,
}

impl Parser<'_> {
    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek();
        if b.is_some() {
            self.pos += 1;
        }
        b
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\r' | b'\n')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        match self.bump() {
            Some(got) if got == b => Ok(()),
            got => Err(format!(
                "offset {}: expected {:?}, got {got:?}",
                self.pos, b as char
            )),
        }
    }

    /// A value nested inside `depth` containers.
    fn value(&mut self, depth: usize) -> Result<Value, String> {
        self.skip_ws();
        if matches!(self.peek(), Some(b'{' | b'[')) && depth == MAX_DEPTH {
            return Err(format!(
                "offset {}: nesting deeper than {MAX_DEPTH} levels",
                self.pos
            ));
        }
        let node = match self.peek() {
            Some(b'{') => {
                let mut fields = Vec::new();
                self.items(b'}', |p| {
                    p.skip_ws();
                    let key = p.string()?;
                    p.skip_ws();
                    p.expect(b':')?;
                    fields.push((key, p.value(depth + 1)?));
                    Ok(())
                })?;
                Node::Obj(fields)
            }
            Some(b'[') => {
                let mut items = Vec::new();
                self.items(b']', |p| {
                    items.push(p.value(depth + 1)?);
                    Ok(())
                })?;
                Node::Arr(items)
            }
            Some(b'"') => Node::Str(self.string()?),
            Some(b't') => self.keyword("true", Node::Bool(true))?,
            Some(b'f') => self.keyword("false", Node::Bool(false))?,
            Some(b'n') => self.keyword("null", Node::Null)?,
            Some(b'-' | b'0'..=b'9') => self.number()?,
            other => return Err(format!("offset {}: unexpected {other:?}", self.pos)),
        };
        Ok(Value(node))
    }

    /// The comma-separated items of an object or array, from its opening
    /// byte through `close`; `item` parses one item.
    fn items(
        &mut self,
        close: u8,
        mut item: impl FnMut(&mut Self) -> Result<(), String>,
    ) -> Result<(), String> {
        self.pos += 1;
        self.skip_ws();
        if self.peek() == Some(close) {
            self.pos += 1;
            return Ok(());
        }
        loop {
            item(self)?;
            self.skip_ws();
            match self.bump() {
                Some(b',') => {}
                Some(b) if b == close => return Ok(()),
                other => {
                    let want = close as char;
                    return Err(format!(
                        "offset {}: expected ',' or {want:?}, got {other:?}",
                        self.pos
                    ));
                }
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.bump() {
                None => return Err("unterminated string".to_string()),
                Some(b'"') => return Ok(out),
                Some(b'\\') => match self.bump() {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'u') => {
                        let mut code = 0u32;
                        for _ in 0..4 {
                            let d = self.bump().ok_or("truncated \\u escape")?;
                            code = code * 16
                                + (d as char)
                                    .to_digit(16)
                                    .ok_or_else(|| format!("bad hex digit {:?}", d as char))?;
                        }
                        out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                    }
                    other => return Err(format!("bad escape {other:?}")),
                },
                Some(_) => {
                    // A run of plain characters up to the next quote or
                    // escape. It starts after a quote or an escape and ends
                    // before one, all ASCII, so both ends are character
                    // boundaries.
                    let start = self.pos - 1;
                    while !matches!(self.peek(), None | Some(b'"' | b'\\')) {
                        self.pos += 1;
                    }
                    out.push_str(&self.text[start..self.pos]);
                }
            }
        }
    }

    fn number(&mut self) -> Result<Node, String> {
        let start = self.pos;
        while matches!(
            self.peek(),
            Some(b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9')
        ) {
            self.pos += 1;
        }
        let text = &self.text[start..self.pos];
        text.parse::<f64>()
            .map(Node::Num)
            .map_err(|e| format!("bad number {text:?}: {e}"))
    }

    fn keyword(&mut self, kw: &str, node: Node) -> Result<Node, String> {
        if self.text[self.pos..].starts_with(kw) {
            self.pos += kw.len();
            Ok(node)
        } else {
            Err(format!("offset {}: expected keyword {kw:?}", self.pos))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn typed_getters_follow_the_writers_conventions() {
        let mut s = String::from("{\"first\":0");
        push_field(&mut s, "nan", float(f64::NAN));
        push_field(&mut s, "inf", float(f64::INFINITY));
        push_field(&mut s, "ninf", float(f64::NEG_INFINITY));
        push_field(&mut s, "x", float(0.1));
        push_field(&mut s, "name", string("a\"b\\c\n\u{1}µ"));
        push_field(&mut s, "key", hex_key(0xdead_beef));
        push_field(&mut s, "none", or_null(None::<u8>));
        s.push_str(",\"n\":7,\"neg\":-1,\"frac\":2.5,\"nest\":{\"arr\":[1,{\"b\":true}]}}");
        let v = parse_object(&s).unwrap();
        assert!(v.f64_field("nan").unwrap().is_nan());
        assert_eq!(v.f64_field("inf").unwrap(), f64::INFINITY);
        assert_eq!(v.f64_field("ninf").unwrap(), f64::NEG_INFINITY);
        assert_eq!(v.f64_field("x").unwrap(), 0.1);
        assert!(v.f64_field("name").is_err());
        assert_eq!(v.str_field("name").unwrap(), "a\"b\\c\n\u{1}µ");
        assert_eq!(v.key_field("key").unwrap(), 0xdead_beef);
        assert!(v.key_field("name").is_err());
        assert_eq!(v.u64_field("n").unwrap(), 7);
        assert_eq!(v.usize_field("n").unwrap(), 7);
        assert!(v.u64_field("neg").is_err());
        assert!(v.u64_field("frac").is_err());
        let huge = parse_object("{\"a\":18446744073709551616,\"b\":1e300}").unwrap();
        assert!(huge.u64_field("a").is_err());
        assert!(huge.u64_field("b").is_err());
        assert!(v.u64_field("missing").is_err());
        assert!(v.get("none").unwrap().is_null());
        let arr = v.obj_field("nest").unwrap().arr_field("arr").unwrap();
        assert_eq!(arr.len(), 2);
        assert!(arr[1].bool_field("b").unwrap());
        assert!(v.obj_field("n").is_err());
        assert!(v.arr_field("nest").is_err());
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            "",
            "[]",
            "7",
            "{",
            "{\"a\":}",
            "{\"a\":1,}",
            "{} x",
            "{\"a\":tru}",
        ] {
            assert!(parse_object(bad).is_err(), "{bad:?} parsed");
        }
    }

    /// Nesting is capped: `MAX_DEPTH` levels parse, one more is an error,
    /// and a 100,000-deep array returns an error instead of overflowing
    /// the stack.
    #[test]
    fn nesting_is_capped() {
        let nested = |levels: usize| {
            let inner = levels - 1;
            format!("{{\"a\":{}{}}}", "[".repeat(inner), "]".repeat(inner))
        };
        assert!(parse_object(&nested(MAX_DEPTH)).is_ok());
        let err = parse_object(&nested(MAX_DEPTH + 1)).unwrap_err();
        assert!(err.contains("nesting"), "{err}");
        let deep = format!("{{\"a\":{}", "[".repeat(100_000));
        assert!(parse_object(&deep).unwrap_err().contains("nesting"));
        assert!(parse_object(&"[".repeat(100_000)).is_err());
    }
}
