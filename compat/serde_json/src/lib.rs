//! A minimal JSON crate: renders its own [`Value`] to JSON text and parses
//! JSON text back. The workspace writes two documents with it, policy files
//! (`chehab_rl::Policy::save`) and Chrome traces
//! (`chehab_runtime::Trace::to_chrome_json`), and builds both `Value` trees
//! by hand.

#![forbid(unsafe_code)]

use std::fmt;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// JSON `null`.
    Null,
    /// A boolean.
    Bool(bool),
    /// A signed integer.
    Int(i64),
    /// An unsigned integer too large for `i64`.
    UInt(u64),
    /// A floating-point number.
    Float(f64),
    /// A string.
    Str(String),
    /// An ordered sequence.
    Array(Vec<Value>),
    /// An object whose fields keep their insertion order.
    Object(Vec<(String, Value)>),
}

impl Value {
    /// Looks up a field of an object by name.
    ///
    /// # Errors
    ///
    /// Returns an [`Error`] if `self` is not an object or has no such field.
    pub fn field(&self, name: &str) -> Result<&Value, Error> {
        match self {
            Value::Object(fields) => fields
                .iter()
                .find(|(k, _)| k == name)
                .map(|(_, v)| v)
                .ok_or_else(|| Error::msg(format!("missing field `{name}`"))),
            _ => Err(Error::msg(format!("expected object with field `{name}`"))),
        }
    }

    /// The elements of an array.
    ///
    /// # Errors
    ///
    /// Returns an [`Error`] naming `context` if `self` is not an array.
    pub fn as_array(&self, context: &str) -> Result<&[Value], Error> {
        match self {
            Value::Array(items) => Ok(items),
            _ => Err(Error::msg(format!("expected array for {context}"))),
        }
    }
}

/// A JSON parse failure, or a `Value` of the wrong shape.
#[derive(Debug, Clone)]
pub struct Error(String);

impl Error {
    /// Creates an error from a message.
    pub fn msg(message: impl Into<String>) -> Self {
        Error(message.into())
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for Error {}

/// Renders a value as compact JSON.
pub fn to_string(value: &Value) -> String {
    let mut out = String::new();
    write_value(value, &mut out);
    out
}

/// Renders a value as human-indented JSON.
pub fn to_string_pretty(value: &Value) -> String {
    let mut out = String::new();
    write_value_pretty(value, &mut out, 0);
    out
}

/// Parses JSON text into a value.
///
/// # Errors
///
/// Returns an [`Error`] on malformed JSON or trailing characters.
pub fn from_str(text: &str) -> Result<Value, Error> {
    let mut parser = Parser {
        bytes: text.as_bytes(),
        pos: 0,
    };
    let value = parser.parse_value()?;
    parser.skip_whitespace();
    if parser.pos != parser.bytes.len() {
        return Err(Error::msg(format!(
            "trailing characters at byte {}",
            parser.pos
        )));
    }
    Ok(value)
}

fn write_escaped(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

fn write_float(f: f64, out: &mut String) {
    if f.is_finite() {
        // `{:?}` prints the shortest representation that round-trips.
        let text = format!("{f:?}");
        out.push_str(&text);
    } else {
        // JSON has no NaN/Infinity; mirror real serde_json's `null`.
        out.push_str("null");
    }
}

fn write_value(value: &Value, out: &mut String) {
    match value {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::Int(v) => out.push_str(&v.to_string()),
        Value::UInt(v) => out.push_str(&v.to_string()),
        Value::Float(f) => write_float(*f, out),
        Value::Str(s) => write_escaped(s, out),
        Value::Array(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_value(item, out);
            }
            out.push(']');
        }
        Value::Object(fields) => {
            out.push('{');
            for (i, (key, item)) in fields.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_escaped(key, out);
                out.push(':');
                write_value(item, out);
            }
            out.push('}');
        }
    }
}

fn write_value_pretty(value: &Value, out: &mut String, indent: usize) {
    let pad = |out: &mut String, level: usize| {
        out.push('\n');
        for _ in 0..level {
            out.push_str("  ");
        }
    };
    match value {
        Value::Array(items) if !items.is_empty() => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                pad(out, indent + 1);
                write_value_pretty(item, out, indent + 1);
            }
            pad(out, indent);
            out.push(']');
        }
        Value::Object(fields) if !fields.is_empty() => {
            out.push('{');
            for (i, (key, item)) in fields.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                pad(out, indent + 1);
                write_escaped(key, out);
                out.push_str(": ");
                write_value_pretty(item, out, indent + 1);
            }
            pad(out, indent);
            out.push('}');
        }
        other => write_value(other, out),
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_whitespace(&mut self) {
        while let Some(b) = self.bytes.get(self.pos) {
            if b.is_ascii_whitespace() {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&mut self) -> Result<u8, Error> {
        self.skip_whitespace();
        self.bytes
            .get(self.pos)
            .copied()
            .ok_or_else(|| Error::msg("unexpected end of JSON input"))
    }

    fn expect(&mut self, byte: u8) -> Result<(), Error> {
        if self.peek()? == byte {
            self.pos += 1;
            Ok(())
        } else {
            Err(Error::msg(format!(
                "expected `{}` at byte {}",
                byte as char, self.pos
            )))
        }
    }

    fn eat_keyword(&mut self, keyword: &str) -> bool {
        self.skip_whitespace();
        if self.bytes[self.pos..].starts_with(keyword.as_bytes()) {
            self.pos += keyword.len();
            true
        } else {
            false
        }
    }

    fn parse_value(&mut self) -> Result<Value, Error> {
        match self.peek()? {
            b'n' => {
                if self.eat_keyword("null") {
                    Ok(Value::Null)
                } else {
                    Err(Error::msg(format!("invalid literal at byte {}", self.pos)))
                }
            }
            b't' | b'f' => {
                if self.eat_keyword("true") {
                    Ok(Value::Bool(true))
                } else if self.eat_keyword("false") {
                    Ok(Value::Bool(false))
                } else {
                    Err(Error::msg(format!("invalid literal at byte {}", self.pos)))
                }
            }
            b'"' => self.parse_string().map(Value::Str),
            b'[' => {
                self.expect(b'[')?;
                let mut items = Vec::new();
                if self.peek()? == b']' {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                loop {
                    items.push(self.parse_value()?);
                    match self.peek()? {
                        b',' => self.pos += 1,
                        b']' => {
                            self.pos += 1;
                            return Ok(Value::Array(items));
                        }
                        other => {
                            return Err(Error::msg(format!(
                                "expected `,` or `]`, got `{}`",
                                other as char
                            )))
                        }
                    }
                }
            }
            b'{' => {
                self.expect(b'{')?;
                let mut fields = Vec::new();
                if self.peek()? == b'}' {
                    self.pos += 1;
                    return Ok(Value::Object(fields));
                }
                loop {
                    self.skip_whitespace();
                    let key = self.parse_string()?;
                    self.expect(b':')?;
                    let value = self.parse_value()?;
                    fields.push((key, value));
                    match self.peek()? {
                        b',' => self.pos += 1,
                        b'}' => {
                            self.pos += 1;
                            return Ok(Value::Object(fields));
                        }
                        other => {
                            return Err(Error::msg(format!(
                                "expected `,` or `}}`, got `{}`",
                                other as char
                            )))
                        }
                    }
                }
            }
            _ => self.parse_number(),
        }
    }

    fn parse_string(&mut self) -> Result<String, Error> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let b = *self
                .bytes
                .get(self.pos)
                .ok_or_else(|| Error::msg("unterminated string"))?;
            self.pos += 1;
            match b {
                b'"' => return Ok(out),
                b'\\' => {
                    let esc = *self
                        .bytes
                        .get(self.pos)
                        .ok_or_else(|| Error::msg("unterminated escape"))?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .ok_or_else(|| Error::msg("truncated \\u escape"))?;
                            let hex = std::str::from_utf8(hex)
                                .map_err(|_| Error::msg("invalid \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| Error::msg("invalid \\u escape"))?;
                            self.pos += 4;
                            out.push(
                                char::from_u32(code)
                                    .ok_or_else(|| Error::msg("invalid \\u code point"))?,
                            );
                        }
                        other => {
                            return Err(Error::msg(format!("invalid escape `\\{}`", other as char)))
                        }
                    }
                }
                _ => {
                    // Collect the full UTF-8 sequence starting at `b`.
                    let start = self.pos - 1;
                    let len = utf8_len(b);
                    let end = start + len;
                    let chunk = self
                        .bytes
                        .get(start..end)
                        .ok_or_else(|| Error::msg("truncated UTF-8 sequence"))?;
                    let s = std::str::from_utf8(chunk).map_err(|_| Error::msg("invalid UTF-8"))?;
                    out.push_str(s);
                    self.pos = end;
                }
            }
        }
    }

    fn parse_number(&mut self) -> Result<Value, Error> {
        self.skip_whitespace();
        let start = self.pos;
        while let Some(&b) = self.bytes.get(self.pos) {
            if b.is_ascii_digit() || matches!(b, b'-' | b'+' | b'.' | b'e' | b'E') {
                self.pos += 1;
            } else {
                break;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| Error::msg("invalid number"))?;
        if text.is_empty() {
            return Err(Error::msg(format!("expected value at byte {start}")));
        }
        let is_integral = !text.contains(['.', 'e', 'E']);
        if is_integral {
            if let Ok(v) = text.parse::<i64>() {
                return Ok(Value::Int(v));
            }
            if let Ok(v) = text.parse::<u64>() {
                return Ok(Value::UInt(v));
            }
        }
        text.parse::<f64>()
            .map(Value::Float)
            .map_err(|_| Error::msg(format!("invalid number `{text}`")))
    }
}

fn utf8_len(first: u8) -> usize {
    match first {
        0x00..=0x7F => 1,
        0xC0..=0xDF => 2,
        0xE0..=0xEF => 3,
        _ => 4,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn values_round_trip_through_text() {
        let value = Value::Object(vec![
            ("name".to_string(), Value::Str("dot \"p\"\n".to_string())),
            ("count".to_string(), Value::Int(-3)),
            ("big".to_string(), Value::UInt(u64::MAX)),
            (
                "weights".to_string(),
                Value::Array(vec![Value::Float(0.25), Value::Float(1.0)]),
            ),
            ("ok".to_string(), Value::Bool(true)),
            ("none".to_string(), Value::Null),
        ]);
        assert_eq!(from_str(&to_string(&value)).unwrap(), value);
        assert_eq!(from_str(&to_string_pretty(&value)).unwrap(), value);
    }

    #[test]
    fn float_precision_survives() {
        let xs = [0.1f64, 1.0 / 3.0, -2.5e-8, 1e20];
        let value = Value::Array(xs.iter().map(|&x| Value::Float(x)).collect());
        assert_eq!(from_str(&to_string(&value)).unwrap(), value);
    }

    #[test]
    fn f32_widened_to_f64_parses_back_to_the_same_bits() {
        let subnormal = f32::from_bits(1);
        for x in [subnormal, f32::MAX, -0.0, 0.1] {
            let text = to_string(&Value::Float(x as f64));
            let Value::Float(back) = from_str(&text).unwrap() else {
                panic!("{text} did not parse as a float");
            };
            assert_eq!((back as f32).to_bits(), x.to_bits(), "{text}");
        }
    }

    #[test]
    fn malformed_input_errors() {
        assert!(from_str("{").is_err());
        assert!(from_str("[1, 2,,]").is_err());
        assert!(from_str("nulL").is_err());
        assert!(from_str("1 2").is_err());
    }

    #[test]
    fn field_of_a_non_object_errors() {
        assert!(Value::Int(1).field("x").is_err());
        let object = Value::Object(vec![("y".to_string(), Value::Null)]);
        assert!(object.field("x").is_err());
        assert_eq!(object.field("y").unwrap(), &Value::Null);
    }

    #[test]
    fn unicode_strings_round_trip() {
        let value = Value::Str("héllo ✓ \u{1F600}".to_string());
        assert_eq!(from_str(&to_string(&value)).unwrap(), value);
    }
}
