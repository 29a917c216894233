//! Recursive-descent JSON parser for the serde_json shim.

use crate::{Error, Map, Number, Value};

/// Parse JSON text into a [`Value`].
pub fn from_str(s: &str) -> Result<Value, Error> {
    let mut p = Parser {
        bytes: s.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let value = p.parse_value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(Error(format!("trailing characters at byte {}", p.pos)));
    }
    Ok(value)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek()?;
        self.pos += 1;
        Some(b)
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), Error> {
        if self.bump() == Some(b) {
            Ok(())
        } else {
            Err(Error(format!(
                "expected `{}` at byte {}",
                b as char,
                self.pos.saturating_sub(1)
            )))
        }
    }

    fn expect_keyword(&mut self, kw: &str) -> Result<(), Error> {
        if self.bytes[self.pos..].starts_with(kw.as_bytes()) {
            self.pos += kw.len();
            Ok(())
        } else {
            Err(Error(format!("expected `{kw}` at byte {}", self.pos)))
        }
    }

    fn parse_value(&mut self) -> Result<Value, Error> {
        match self.peek() {
            Some(b'n') => {
                self.expect_keyword("null")?;
                Ok(Value::Null)
            }
            Some(b't') => {
                self.expect_keyword("true")?;
                Ok(Value::Bool(true))
            }
            Some(b'f') => {
                self.expect_keyword("false")?;
                Ok(Value::Bool(false))
            }
            Some(b'"') => Ok(Value::String(self.parse_string()?)),
            Some(b'[') => self.parse_array(),
            Some(b'{') => self.parse_object(),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.parse_number(),
            other => Err(Error(format!(
                "unexpected {:?} at byte {}",
                other.map(|c| c as char),
                self.pos
            ))),
        }
    }

    fn parse_array(&mut self) -> Result<Value, Error> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.parse_value()?);
            self.skip_ws();
            match self.bump() {
                Some(b',') => continue,
                Some(b']') => return Ok(Value::Array(items)),
                _ => return Err(Error(format!("expected `,` or `]` at byte {}", self.pos))),
            }
        }
    }

    fn parse_object(&mut self) -> Result<Value, Error> {
        self.expect(b'{')?;
        let mut map = Map::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Object(map));
        }
        loop {
            self.skip_ws();
            let key = self.parse_string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.parse_value()?;
            map.insert(key, value);
            self.skip_ws();
            match self.bump() {
                Some(b',') => continue,
                Some(b'}') => return Ok(Value::Object(map)),
                _ => return Err(Error(format!("expected `,` or `}}` at byte {}", self.pos))),
            }
        }
    }

    fn parse_string(&mut self) -> Result<String, Error> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.bump() {
                None => return Err(Error("unterminated string".into())),
                Some(b'"') => return Ok(out),
                Some(b'\\') => match self.bump() {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'b') => out.push('\u{08}'),
                    Some(b'f') => out.push('\u{0c}'),
                    Some(b'u') => {
                        let cp = self.parse_hex4()?;
                        // Handle surrogate pairs for non-BMP characters.
                        let ch = if (0xD800..0xDC00).contains(&cp) {
                            self.expect(b'\\')?;
                            self.expect(b'u')?;
                            let low = self.parse_hex4()?;
                            if !(0xDC00..0xE000).contains(&low) {
                                return Err(Error("invalid low surrogate".into()));
                            }
                            let c = 0x10000 + ((cp - 0xD800) << 10) + (low - 0xDC00);
                            char::from_u32(c)
                        } else {
                            char::from_u32(cp)
                        };
                        out.push(ch.ok_or_else(|| Error("invalid unicode escape".into()))?);
                    }
                    other => {
                        return Err(Error(format!(
                            "invalid escape {:?}",
                            other.map(|c| c as char)
                        )))
                    }
                },
                Some(byte) => {
                    // Re-decode UTF-8 multibyte sequences from the source.
                    if byte < 0x80 {
                        out.push(byte as char);
                    } else {
                        let start = self.pos - 1;
                        let width = match byte {
                            0xC0..=0xDF => 2,
                            0xE0..=0xEF => 3,
                            0xF0..=0xF7 => 4,
                            _ => return Err(Error("invalid UTF-8 in string".into())),
                        };
                        let end = start + width;
                        let chunk = self
                            .bytes
                            .get(start..end)
                            .ok_or_else(|| Error("truncated UTF-8 in string".into()))?;
                        let s = std::str::from_utf8(chunk)
                            .map_err(|_| Error("invalid UTF-8 in string".into()))?;
                        out.push_str(s);
                        self.pos = end;
                    }
                }
            }
        }
    }

    fn parse_hex4(&mut self) -> Result<u32, Error> {
        let mut v = 0u32;
        for _ in 0..4 {
            let d = self
                .bump()
                .and_then(|c| (c as char).to_digit(16))
                .ok_or_else(|| Error("invalid \\u escape".into()))?;
            v = v * 16 + d;
        }
        Ok(v)
    }

    fn parse_number(&mut self) -> Result<Value, Error> {
        let start = self.pos;
        let negative = self.peek() == Some(b'-');
        if negative {
            self.pos += 1;
        }
        while self.peek().is_some_and(|c| c.is_ascii_digit()) {
            self.pos += 1;
        }
        let mut is_float = false;
        if self.peek() == Some(b'.') {
            is_float = true;
            self.pos += 1;
            while self.peek().is_some_and(|c| c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            is_float = true;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while self.peek().is_some_and(|c| c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        let text =
            std::str::from_utf8(&self.bytes[start..self.pos]).expect("number bytes are ASCII");
        if is_float {
            text.parse::<f64>()
                .map(|v| Value::Number(Number::F64(v)))
                .map_err(|_| Error(format!("invalid number `{text}`")))
        } else if negative {
            text.parse::<i64>()
                .map(|v| Value::Number(Number::I64(v)))
                .or_else(|_| text.parse::<f64>().map(|v| Value::Number(Number::F64(v))))
                .map_err(|_| Error(format!("invalid number `{text}`")))
        } else {
            text.parse::<u64>()
                .map(|v| Value::Number(Number::U64(v)))
                .or_else(|_| text.parse::<f64>().map(|v| Value::Number(Number::F64(v))))
                .map_err(|_| Error(format!("invalid number `{text}`")))
        }
    }
}
