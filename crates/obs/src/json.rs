//! A minimal JSON writer and parser.
//!
//! The workspace is hermetic (no serde), so the exporters assemble JSON
//! with the escape/number helpers here, and the artifact tests re-parse
//! their output with the recursive-descent [`Json::parse`] to prove it
//! is well-formed — the "round-trips through an in-repo parser" check
//! the CI gate runs on every post-mortem trace.
//!
//! The parser accepts exactly RFC 8259 JSON (objects, arrays, strings
//! with escapes, numbers, booleans, null) with two deliberate
//! simplifications: numbers are parsed as `f64` (fine for trace
//! timestamps and report metrics) and `\uXXXX` surrogate pairs are
//! combined but lone surrogates are replaced with U+FFFD. Nesting is
//! bounded by [`MAX_DEPTH`].

/// Deepest array/object nesting [`Json::parse`] accepts. The parser
/// recurses once per level, so without a bound a file of `[[[[…` from
/// outside overflows the stack; every artifact this workspace writes
/// nests at most 6 deep.
pub const MAX_DEPTH: usize = 128;

/// Escape `s` as the *contents* of a JSON string (no surrounding
/// quotes).
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
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
    out
}

/// Render an `f64` as a JSON number token; non-finite values (which JSON
/// cannot carry) become `null`.
pub fn num(x: f64) -> String {
    if x.is_finite() {
        // `{:?}` is Rust's shortest round-trippable float formatting,
        // which is also valid JSON.
        format!("{x:?}")
    } else {
        "null".to_string()
    }
}

/// A parsed JSON document.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null` (also produced by [`num`] for non-finite floats).
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number (always held as f64).
    Num(f64),
    /// A string (unescaped).
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; insertion order preserved, duplicate keys kept as-is.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Parse a complete JSON document (trailing whitespace allowed,
    /// trailing garbage or nesting beyond [`MAX_DEPTH`] is an error).
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser { b: text.as_bytes(), i: 0, depth: 0 };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.i != p.b.len() {
            return Err(format!("trailing garbage at byte {}", p.i));
        }
        Ok(v)
    }

    /// Object member lookup (first match); `None` on non-objects.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Member `key` as a number.
    pub fn f64_at(&self, key: &str) -> Option<f64> {
        self.get(key)?.as_f64()
    }

    /// Member `key` as a string.
    pub fn str_at(&self, key: &str) -> Option<&str> {
        self.get(key)?.as_str()
    }

    /// Member `key` as an array.
    pub fn arr_at(&self, key: &str) -> Option<&[Json]> {
        self.get(key)?.as_arr()
    }

    /// The number value, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(x) => Some(*x),
            _ => None,
        }
    }

    /// The boolean value, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The string value, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// The members, if this is an object.
    pub fn as_obj(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(m) => Some(m),
            _ => None,
        }
    }

    /// This array's elements as numbers — `None` unless every element
    /// is numeric (`null`, which [`num`] writes for non-finite values,
    /// maps to NaN). The series consumers (`yycore watch`) pull report
    /// channels through this.
    pub fn as_f64_array(&self) -> Option<Vec<f64>> {
        self.as_arr()?
            .iter()
            .map(|v| match v {
                Json::Null => Some(f64::NAN),
                _ => v.as_f64(),
            })
            .collect()
    }
}

struct Parser<'a> {
    /// The document; always the bytes of a `&str`.
    b: &'a [u8],
    i: usize,
    /// Arrays/objects currently open.
    depth: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while let Some(&c) = self.b.get(self.i) {
            if matches!(c, b' ' | b'\t' | b'\n' | b'\r') {
                self.i += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.b.get(self.i).copied()
    }

    fn eat(&mut self, c: u8) -> Result<(), String> {
        if self.peek() == Some(c) {
            self.i += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", c as char, self.i))
        }
    }

    fn lit(&mut self, word: &str, v: Json) -> Result<Json, String> {
        if self.b[self.i..].starts_with(word.as_bytes()) {
            self.i += word.len();
            Ok(v)
        } else {
            Err(format!("bad literal at byte {}", self.i))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'{') => self.nested(Self::object),
            Some(b'[') => self.nested(Self::array),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.lit("true", Json::Bool(true)),
            Some(b'f') => self.lit("false", Json::Bool(false)),
            Some(b'n') => self.lit("null", Json::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            Some(c) => Err(format!("unexpected '{}' at byte {}", c as char, self.i)),
            None => Err("unexpected end of input".to_string()),
        }
    }

    fn nested(&mut self, parse: fn(&mut Self) -> Result<Json, String>) -> Result<Json, String> {
        if self.depth == MAX_DEPTH {
            return Err(format!("nesting deeper than {MAX_DEPTH} at byte {}", self.i));
        }
        self.depth += 1;
        let v = parse(self);
        self.depth -= 1;
        v
    }

    fn object(&mut self) -> Result<Json, String> {
        self.eat(b'{')?;
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.i += 1;
            return Ok(Json::Obj(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':')?;
            self.skip_ws();
            let val = self.value()?;
            members.push((key, val));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.i += 1,
                Some(b'}') => {
                    self.i += 1;
                    return Ok(Json::Obj(members));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.i)),
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.eat(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.i += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.i += 1,
                Some(b']') => {
                    self.i += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.i)),
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, String> {
        let s = self
            .b
            .get(self.i..self.i + 4)
            .ok_or_else(|| format!("truncated \\u escape at byte {}", self.i))?;
        let s = std::str::from_utf8(s).map_err(|_| "non-ASCII \\u escape".to_string())?;
        let v = u32::from_str_radix(s, 16).map_err(|_| format!("bad \\u escape '{s}'"))?;
        self.i += 4;
        Ok(v)
    }

    fn string(&mut self) -> Result<String, String> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek().ok_or("unterminated string")? {
                b'"' => {
                    self.i += 1;
                    return Ok(out);
                }
                b'\\' => {
                    self.i += 1;
                    let esc = self.peek().ok_or("unterminated escape")?;
                    self.i += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hi = self.hex4()?;
                            let cp = if (0xD800..0xDC00).contains(&hi)
                                && self.b.get(self.i) == Some(&b'\\')
                                && self.b.get(self.i + 1) == Some(&b'u')
                            {
                                self.i += 2;
                                let lo = self.hex4()?;
                                if (0xDC00..0xE000).contains(&lo) {
                                    0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00)
                                } else {
                                    0xFFFD
                                }
                            } else {
                                hi
                            };
                            out.push(char::from_u32(cp).unwrap_or('\u{FFFD}'));
                        }
                        c => return Err(format!("bad escape '\\{}'", c as char)),
                    }
                }
                c if c < 0x20 => return Err("raw control character in string".to_string()),
                _ => {
                    // Copy one UTF-8 scalar.
                    let start = self.i;
                    self.i += 1;
                    while self.i < self.b.len() && (self.b[self.i] & 0xC0) == 0x80 {
                        self.i += 1;
                    }
                    // `b` is a `&str`'s bytes and [start, i) spans whole scalars.
                    out.push_str(std::str::from_utf8(&self.b[start..self.i]).unwrap());
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.i;
        if self.peek() == Some(b'-') {
            self.i += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
            self.i += 1;
        }
        if self.peek() == Some(b'.') {
            self.i += 1;
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.i += 1;
            }
        }
        if matches!(self.peek(), Some(b'e') | Some(b'E')) {
            self.i += 1;
            if matches!(self.peek(), Some(b'+') | Some(b'-')) {
                self.i += 1;
            }
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.i += 1;
            }
        }
        // Only ASCII sign, digit, '.', 'e' bytes were consumed.
        let s = std::str::from_utf8(&self.b[start..self.i]).unwrap();
        s.parse::<f64>().map(Json::Num).map_err(|_| format!("bad number '{s}'"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escapes_roundtrip() {
        let nasty = "a\"b\\c\nd\te\u{1}é日";
        let doc = format!("{{\"k\":\"{}\"}}", escape(nasty));
        let parsed = Json::parse(&doc).unwrap();
        assert_eq!(parsed.get("k").unwrap().as_str(), Some(nasty));
    }

    #[test]
    fn numbers_roundtrip_and_nonfinite_is_null() {
        assert_eq!(num(1.5), "1.5");
        assert_eq!(num(f64::NAN), "null");
        assert_eq!(num(f64::INFINITY), "null");
        let doc = format!("[{}, {}, {}]", num(0.1), num(-3e9), num(f64::NAN));
        let parsed = Json::parse(&doc).unwrap();
        let arr = parsed.as_arr().unwrap();
        assert_eq!(arr[0].as_f64(), Some(0.1));
        assert_eq!(arr[1].as_f64(), Some(-3e9));
        assert_eq!(arr[2], Json::Null);
        let vals = parsed.as_f64_array().unwrap();
        assert_eq!(&vals[..2], &[0.1, -3e9]);
        assert!(vals[2].is_nan(), "null (non-finite) maps to NaN");
        assert_eq!(Json::parse("[1, \"x\"]").unwrap().as_f64_array(), None);
    }

    #[test]
    fn parses_nested_structures() {
        let v = Json::parse(r#" {"a":[1,2,{"b":true}],"c":null,"d":{"e":"f"}} "#).unwrap();
        assert_eq!(v.get("a").unwrap().as_arr().unwrap().len(), 3);
        assert_eq!(v.get("a").unwrap().as_arr().unwrap()[2].get("b"), Some(&Json::Bool(true)));
        assert_eq!(v.get("c"), Some(&Json::Null));
        assert_eq!(v.get("d").unwrap().get("e").unwrap().as_str(), Some("f"));
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            "{", "[1,", "{\"a\":}", "tru", "[1 2]", "\"unterminated", "{\"a\":1}x", "",
            "[01x]", "{'a':1}",
        ] {
            assert!(Json::parse(bad).is_err(), "should reject {bad:?}");
        }
    }

    #[test]
    fn nesting_is_bounded_not_a_stack_overflow() {
        let nest = |n: usize| format!("{}{}", "[".repeat(n), "]".repeat(n));
        assert!(Json::parse(&nest(MAX_DEPTH)).is_ok());
        let err = Json::parse(&nest(MAX_DEPTH + 1)).unwrap_err();
        assert_eq!(err, "nesting deeper than 128 at byte 128");
        // The ISSUE's input: 300 000 unclosed brackets, mixed with objects.
        assert!(Json::parse(&"[".repeat(300_000)).unwrap_err().contains("nesting deeper"));
        assert!(Json::parse(&"{\"a\":[".repeat(100_000)).unwrap_err().contains("nesting deeper"));
        // Depth is nesting, not element count: siblings do not accumulate.
        assert!(Json::parse(&format!("[{}1]", "[[]],".repeat(1000))).is_ok());
    }

    #[test]
    fn unicode_escapes_combine_surrogates() {
        let v = Json::parse(r#""é 😀 \ud800""#).unwrap();
        assert_eq!(v.as_str(), Some("é 😀 \u{FFFD}"));
    }
}
