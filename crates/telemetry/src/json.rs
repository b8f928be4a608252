//! A minimal JSON parser, used by `skymr-cli trace` (the trace schema
//! check and summarizer) and by checkpoint loading. No serde in the
//! workspace (the build is offline), so this hand-rolled recursive-descent
//! parser covers the subset the exporters emit — which is all of standard
//! JSON minus exotic number forms (exponents are accepted; only finite
//! values appear in traces).
//!
//! Hostile input ends in a [`ParseError`], never a panic: parsing is linear
//! in the input, and nesting deeper than 128 levels is rejected before the
//! recursion can exhaust the stack.

/// A parsed JSON value. Objects preserve key order.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any JSON number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Array(Vec<Value>),
    /// An object, in source key order.
    Object(Vec<(String, Value)>),
}

impl Value {
    /// Member lookup on an object (first match), `None` otherwise.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The array elements, if this is an array.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(items) => Some(items),
            _ => None,
        }
    }

    /// The numeric payload, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The numeric payload as an unsigned integer, if it is one exactly.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= u64::MAX as f64 => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    /// The object members, if this is an object.
    pub fn as_object(&self) -> Option<&[(String, Value)]> {
        match self {
            Value::Object(members) => Some(members),
            _ => None,
        }
    }
}

/// A parse failure: byte offset and message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset of the failure.
    pub offset: usize,
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "JSON parse error at byte {}: {}",
            self.offset, self.message
        )
    }
}

impl std::error::Error for ParseError {}

/// Deepest array/object nesting [`parse`] accepts. The exporters nest at
/// most four levels; the bound keeps the recursive descent's stack small.
const MAX_DEPTH: usize = 128;

/// Parses one JSON document; trailing whitespace is allowed, trailing
/// content is an error.
pub fn parse(input: &str) -> Result<Value, ParseError> {
    let mut p = Parser {
        src: input,
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let value = p.value()?;
    p.skip_ws();
    if p.pos != p.src.len() {
        return Err(p.err("trailing content after the document"));
    }
    Ok(value)
}

struct Parser<'a> {
    src: &'a str,
    /// Always on a char boundary of `src`.
    pos: usize,
    depth: usize,
}

impl Parser<'_> {
    fn err(&self, message: impl Into<String>) -> ParseError {
        ParseError {
            offset: self.pos,
            message: message.into(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.src.as_bytes().get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), ParseError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(format!("expected '{}'", b as char)))
        }
    }

    fn literal(&mut self, text: &str, value: Value) -> Result<Value, ParseError> {
        if self.src.as_bytes()[self.pos..].starts_with(text.as_bytes()) {
            self.pos += text.len();
            Ok(value)
        } else {
            Err(self.err(format!("expected '{text}'")))
        }
    }

    fn value(&mut self) -> Result<Value, ParseError> {
        match self.peek() {
            Some(b'{') => self.nested(Self::object),
            Some(b'[') => self.nested(Self::array),
            Some(b'"') => self.string().map(Value::Str),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'n') => self.literal("null", Value::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    fn nested(
        &mut self,
        parse: impl FnOnce(&mut Self) -> Result<Value, ParseError>,
    ) -> Result<Value, ParseError> {
        if self.depth == MAX_DEPTH {
            return Err(self.err(format!("nesting deeper than {MAX_DEPTH} levels")));
        }
        self.depth += 1;
        let value = parse(self);
        self.depth -= 1;
        value
    }

    fn object(&mut self) -> Result<Value, ParseError> {
        self.expect(b'{')?;
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Object(members));
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
                    return Ok(Value::Object(members));
                }
                _ => return Err(self.err("expected ',' or '}' in object")),
            }
        }
    }

    fn array(&mut self) -> Result<Value, ParseError> {
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
                _ => return Err(self.err("expected ',' or ']' in array")),
            }
        }
    }

    fn string(&mut self) -> Result<String, ParseError> {
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
                        Some(b't') => out.push('\t'),
                        Some(b'r') => out.push('\r'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .src
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or_else(|| self.err("truncated \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.err("invalid \\u escape"))?;
                            // Surrogate pairs are not emitted by our
                            // exporters; map lone surrogates to U+FFFD.
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        _ => return Err(self.err("invalid escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Copy the run up to the next quote or escape at once.
                    let rest = self
                        .src
                        .get(self.pos..)
                        .ok_or_else(|| self.err("invalid UTF-8"))?;
                    let len = rest.find(['"', '\\']).unwrap_or(rest.len());
                    out.push_str(&rest[..len]);
                    self.pos += len;
                }
            }
        }
    }

    fn number(&mut self) -> Result<Value, ParseError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(
            self.peek(),
            Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
        ) {
            self.pos += 1;
        }
        let text = &self.src[start..self.pos]; // ASCII: both ends are char boundaries
        text.parse::<f64>()
            .map(Value::Num)
            .map_err(|_| self.err(format!("invalid number '{text}'")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars() {
        assert_eq!(parse("null"), Ok(Value::Null));
        assert_eq!(parse(" true "), Ok(Value::Bool(true)));
        assert_eq!(parse("42"), Ok(Value::Num(42.0)));
        assert_eq!(parse("-3.5"), Ok(Value::Num(-3.5)));
        assert_eq!(parse("\"hi\""), Ok(Value::Str("hi".to_owned())));
    }

    #[test]
    fn parses_nested_structures_preserving_key_order() {
        let v = parse(r#"{"b":[1,2,{"c":null}],"a":"x"}"#).expect("parses");
        let members = v.as_object().expect("object");
        assert_eq!(members[0].0, "b");
        assert_eq!(members[1].0, "a");
        assert_eq!(v.get("a").and_then(Value::as_str), Some("x"));
        let arr = v.get("b").and_then(Value::as_array).expect("array");
        assert_eq!(arr.len(), 3);
        assert_eq!(arr[0].as_u64(), Some(1));
    }

    #[test]
    fn decodes_escapes() {
        let v = parse(r#""a\n\t\"\\ A""#).expect("parses");
        assert_eq!(v.as_str(), Some("a\n\t\"\\ A"));
    }

    #[test]
    fn rejects_malformed_documents() {
        assert!(parse("").is_err());
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("{\"a\":1,}").is_err());
        assert!(parse("1 2").is_err());
        assert!(parse("\"unterminated").is_err());
    }

    #[test]
    fn long_strings_parse_in_linear_time() {
        // A string scanned char by char against the whole remaining input
        // takes minutes at this size.
        let text: String = "trace é ".repeat(1 << 17);
        assert!(text.len() >= 1 << 20);
        let doc = format!(r#"{{"name":"{text}","args":["\u00e9\n"]}}"#);
        let v = parse(&doc).expect("parses");
        assert_eq!(v.get("name").and_then(Value::as_str), Some(text.as_str()));
        let args = v.get("args").and_then(Value::as_array).expect("array");
        assert_eq!(args[0].as_str(), Some("é\n"));
    }

    #[test]
    fn nesting_is_bounded() {
        let deep = |levels: usize| format!("{}{}", "[".repeat(levels), "]".repeat(levels));
        assert!(parse(&deep(MAX_DEPTH)).is_ok());
        let err = parse(&deep(MAX_DEPTH + 1)).expect_err("one level too deep");
        assert_eq!(err.offset, MAX_DEPTH);
        assert!(err.message.contains("nesting"), "{err}");
        // Deep enough to overflow the stack without the bound.
        assert!(parse(&deep(200_000)).is_err());
        let objects = format!("{}1{}", r#"{"a":"#.repeat(200_000), "}".repeat(200_000));
        assert!(parse(&objects).is_err());
    }

    /// Characters that steer the parser: structure, escapes, literals,
    /// numbers, and a multi-byte scalar.
    const ALPHABET: [char; 22] = [
        '[', ']', '{', '}', '"', '\\', ':', ',', 'u', '0', '9', 'a', '-', '.', 'e', 't', 'r', 'n',
        'l', 'f', ' ', 'é',
    ];

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

        /// Hostile input: any text ends in `Ok` or `Err`, never a panic or
        /// an abort — raw bytes (decoded lossily, as a file read would be),
        /// text over the parser's own alphabet, or a trace-shaped document
        /// with one byte overwritten.
        #[test]
        fn arbitrary_input_never_panics(
            noise in proptest::collection::vec(proptest::prelude::any::<u8>(), 0..160),
            mode in 0u8..3,
            at in proptest::prelude::any::<usize>()
        ) {
            let text = match mode {
                0 => String::from_utf8_lossy(&noise).into_owned(),
                1 => noise.iter().map(|&b| ALPHABET[b as usize % ALPHABET.len()]).collect(),
                _ => {
                    let mut doc = br#"{"traceEvents":[{"name":"map[0]","ph":"X","ts":1.5e0,"args":{"ok":true,"n":null}}]}"#.to_vec();
                    let at = at % doc.len();
                    doc[at] = noise.first().copied().unwrap_or(b'[');
                    String::from_utf8_lossy(&doc).into_owned()
                }
            };
            let _ = parse(&text);
        }
    }

    #[test]
    fn as_u64_rejects_fractions_and_negatives() {
        assert_eq!(parse("3.5").expect("ok").as_u64(), None);
        assert_eq!(parse("-1").expect("ok").as_u64(), None);
        assert_eq!(parse("12").expect("ok").as_u64(), Some(12));
    }
}
