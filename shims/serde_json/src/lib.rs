//! Offline shim for `serde_json`: prints the `serde` shim's [`Value`] tree
//! as JSON and parses JSON back into one. See `shims/README.md`.

use serde::Serialize;
pub use serde::Value;
use std::fmt::Write as _;

/// Serialization or parse error. The only serialization failure real
/// serde_json has on this data model is a non-finite float; we keep that
/// contract.
#[derive(Debug)]
pub struct Error(String);

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for Error {}

/// Compact JSON.
pub fn to_string<T: Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    write_value(&mut out, &value.to_value(), None, 0)?;
    Ok(out)
}

/// Pretty JSON, 2-space indent (matching real serde_json's pretty writer).
pub fn to_string_pretty<T: Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    write_value(&mut out, &value.to_value(), Some(2), 0)?;
    Ok(out)
}

/// Lowers any `Serialize` to the `Value` tree (handy in tests).
pub fn to_value<T: Serialize + ?Sized>(value: &T) -> Result<Value, Error> {
    Ok(value.to_value())
}

/// Parses a JSON document into a [`Value`] tree: objects (key order kept),
/// arrays, strings with `\uXXXX` escapes, integers, floats, booleans and
/// null. Real serde_json's `from_str::<Value>` is the same call.
pub fn from_str(s: &str) -> Result<Value, Error> {
    let mut p = Parser {
        bytes: s.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let v = p.value().map_err(Error)?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(Error(format!("trailing data at byte {}", p.pos)));
    }
    Ok(v)
}

fn write_value(
    out: &mut String,
    v: &Value,
    indent: Option<usize>,
    depth: usize,
) -> Result<(), Error> {
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::Int(i) => {
            let _ = write!(out, "{i}");
        }
        Value::UInt(u) => {
            let _ = write!(out, "{u}");
        }
        Value::Float(f) => {
            if !f.is_finite() {
                return Err(Error(format!("non-finite float {f} is not valid JSON")));
            }
            if *f == f.trunc() && f.abs() < 1e15 {
                // Integral floats print with a trailing `.0`, like serde_json.
                let _ = write!(out, "{f:.1}");
            } else {
                let _ = write!(out, "{f}");
            }
        }
        Value::Str(s) => write_string(out, s),
        Value::Array(items) => {
            if items.is_empty() {
                out.push_str("[]");
                return Ok(());
            }
            out.push('[');
            for (k, item) in items.iter().enumerate() {
                if k > 0 {
                    out.push(',');
                }
                newline_indent(out, indent, depth + 1);
                write_value(out, item, indent, depth + 1)?;
            }
            newline_indent(out, indent, depth);
            out.push(']');
        }
        Value::Object(entries) => {
            if entries.is_empty() {
                out.push_str("{}");
                return Ok(());
            }
            out.push('{');
            for (k, (key, item)) in entries.iter().enumerate() {
                if k > 0 {
                    out.push(',');
                }
                newline_indent(out, indent, depth + 1);
                write_string(out, key);
                out.push(':');
                if indent.is_some() {
                    out.push(' ');
                }
                write_value(out, item, indent, depth + 1)?;
            }
            newline_indent(out, indent, depth);
            out.push('}');
        }
    }
    Ok(())
}

fn newline_indent(out: &mut String, indent: Option<usize>, depth: usize) {
    if let Some(width) = indent {
        out.push('\n');
        for _ in 0..width * depth {
            out.push(' ');
        }
    }
}

fn write_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while matches!(self.bytes.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!(
                "expected '{}' at byte {}, found {:?}",
                b as char,
                self.pos,
                self.peek().map(|c| c as char)
            ))
        }
    }

    fn literal(&mut self, word: &str) -> Result<(), String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(())
        } else {
            Err(format!("expected '{word}' at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Value, String> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b't') => self.literal("true").map(|_| Value::Bool(true)),
            Some(b'f') => self.literal("false").map(|_| Value::Bool(false)),
            Some(b'n') => self.literal("null").map(|_| Value::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            other => Err(format!(
                "unexpected {:?} at byte {}",
                other.map(|c| c as char),
                self.pos
            )),
        }
    }

    fn object(&mut self) -> Result<Value, String> {
        self.expect(b'{')?;
        let mut entries = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Object(entries));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            entries.push((key, self.value()?));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Object(entries));
                }
                other => {
                    return Err(format!(
                        "expected ',' or '}}' at byte {}, found {:?}",
                        self.pos,
                        other.map(|c| c as char)
                    ))
                }
            }
        }
    }

    fn array(&mut self) -> Result<Value, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                other => {
                    return Err(format!(
                        "expected ',' or ']' at byte {}, found {:?}",
                        self.pos,
                        other.map(|c| c as char)
                    ))
                }
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.peek().ok_or("unterminated escape")?;
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
                                .ok_or("truncated \\u escape")?;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex).map_err(|_| "bad \\u escape")?,
                                16,
                            )
                            .map_err(|_| "bad \\u escape")?;
                            self.pos += 4;
                            // surrogate pairs don't occur in our own output;
                            // map lone surrogates to the replacement char
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        }
                        other => return Err(format!("bad escape '\\{}'", other as char)),
                    }
                }
                Some(_) => {
                    // consume one UTF-8 scalar (strings came from &str, so
                    // the bytes are valid UTF-8)
                    let start = self.pos;
                    self.pos += 1;
                    while self.pos < self.bytes.len()
                        && (self.bytes[self.pos] & 0b1100_0000) == 0b1000_0000
                    {
                        self.pos += 1;
                    }
                    out.push_str(
                        std::str::from_utf8(&self.bytes[start..self.pos])
                            .map_err(|_| "invalid UTF-8 in string")?,
                    );
                }
            }
        }
    }

    fn number(&mut self) -> Result<Value, String> {
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
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
        if is_float {
            text.parse::<f64>()
                .map(Value::Float)
                .map_err(|e| format!("bad number '{text}': {e}"))
        } else if text.starts_with('-') {
            text.parse::<i64>()
                .map(Value::Int)
                .map_err(|e| format!("bad number '{text}': {e}"))
        } else {
            text.parse::<u64>()
                .map(Value::UInt)
                .map_err(|e| format!("bad number '{text}': {e}"))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compact_and_pretty() {
        let v = Value::Object(vec![
            ("a".into(), Value::UInt(1)),
            (
                "b".into(),
                Value::Array(vec![Value::Bool(true), Value::Null]),
            ),
            ("c".into(), Value::Float(1.5)),
        ]);
        assert_eq!(to_string(&v).unwrap(), r#"{"a":1,"b":[true,null],"c":1.5}"#);
        let pretty = to_string_pretty(&v).unwrap();
        assert!(pretty.contains("\n  \"a\": 1,"));
    }

    #[test]
    fn integral_floats_keep_point() {
        assert_eq!(to_string(&Value::Float(3.0)).unwrap(), "3.0");
    }

    #[test]
    fn escapes() {
        assert_eq!(to_string(&"a\"b\n").unwrap(), r#""a\"b\n""#);
    }

    #[test]
    fn non_finite_errors() {
        assert!(to_string(&f64::NAN).is_err());
    }

    #[test]
    fn parser_round_trips_own_output() {
        let v = Value::Object(vec![
            ("schema_version".into(), Value::UInt(1)),
            ("mode".into(), Value::Str("smoke".into())),
            (
                "entries".into(),
                Value::Array(vec![Value::Object(vec![
                    ("sim_ms".into(), Value::Float(12.25)),
                    ("ulp".into(), Value::Float(0.1 + 0.2)),
                    ("whole".into(), Value::Float(3.0)),
                    ("fingerprint".into(), Value::UInt(u64::MAX)),
                    ("delta".into(), Value::Int(-7)),
                    ("empty".into(), Value::Array(Vec::new())),
                    ("none".into(), Value::Null),
                ])]),
            ),
        ]);
        for json in [to_string(&v).unwrap(), to_string_pretty(&v).unwrap()] {
            let back = from_str(&json).unwrap();
            assert_eq!(back, v, "{json}");
            let entry = &back.get("entries").and_then(Value::as_array).unwrap()[0];
            assert_eq!(
                entry.get("ulp").and_then(Value::as_f64).map(f64::to_bits),
                Some((0.1f64 + 0.2).to_bits())
            );
            assert_eq!(
                entry.get("fingerprint").and_then(Value::as_u64),
                Some(u64::MAX)
            );
        }
        assert_eq!(v.get("mode").and_then(Value::as_str), Some("smoke"));
        assert_eq!(v.get("missing"), None);
    }

    #[test]
    fn parser_handles_escapes_nesting_and_numbers() {
        let v = from_str(
            r#"{"a": [1, -2, 3.5, 1e3, true, false, null], "s": "q\"\\\nA\u00e9", "o": {"k": []}}"#,
        )
        .unwrap();
        let a = v.get("a").and_then(Value::as_array).unwrap();
        assert_eq!(a[0].as_u64(), Some(1));
        assert_eq!(a[1].as_u64(), None);
        assert_eq!(a[1].as_f64(), Some(-2.0));
        assert_eq!(a[2].as_f64(), Some(3.5));
        assert_eq!(a[3].as_f64(), Some(1000.0));
        assert_eq!(a[4], Value::Bool(true));
        assert_eq!(a[6], Value::Null);
        assert_eq!(v.get("s").and_then(Value::as_str), Some("q\"\\\nA\u{e9}"));
        let o = v.get("o").unwrap();
        assert_eq!(o.get("k").and_then(Value::as_array).map(Vec::len), Some(0));
        assert!(from_str("{\"x\": }").is_err());
        assert!(from_str("[1, 2,]").is_err());
        let err = from_str("[1] junk").unwrap_err().to_string();
        assert!(err.contains("trailing data at byte 4"), "{err}");
    }
}
