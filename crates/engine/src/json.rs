//! The workspace's one JSON codec.
//!
//! [`parse`] reads mutation logs (see [`crate::mutation_log`]), wire frames
//! and the CI bench baselines; [`render`] writes wire frames, WAL records,
//! experiment reports and bench-gate keys. Just enough JSON, hand-rolled
//! because the build environment is offline (no serde). JSON has no
//! NaN or infinity literal, so non-finite numbers render as `null`.

/// A parsed (or to-be-rendered) JSON value. Objects keep their key order.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (integers round-trip exactly up to 2^53).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<JsonValue>),
    /// An object, in source key order.
    Obj(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Object field lookup (first match).
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a float, if numeric.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as a non-negative integer, if it is one.
    pub fn as_usize(&self) -> Option<usize> {
        match self {
            JsonValue::Num(n) if *n >= 0.0 && n.fract() == 0.0 => Some(*n as usize),
            _ => None,
        }
    }

    /// The value as a string slice.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array slice.
    pub fn as_array(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The object's fields, if it is one.
    pub fn as_object(&self) -> Option<&[(String, JsonValue)]> {
        match self {
            JsonValue::Obj(fields) => Some(fields),
            _ => None,
        }
    }
}

impl From<f64> for JsonValue {
    fn from(n: f64) -> Self {
        JsonValue::Num(n)
    }
}

impl From<usize> for JsonValue {
    fn from(n: usize) -> Self {
        JsonValue::Num(n as f64)
    }
}

impl From<bool> for JsonValue {
    fn from(b: bool) -> Self {
        JsonValue::Bool(b)
    }
}

impl From<String> for JsonValue {
    fn from(s: String) -> Self {
        JsonValue::Str(s)
    }
}

impl<T: Into<JsonValue>> From<Option<T>> for JsonValue {
    fn from(v: Option<T>) -> Self {
        v.map_or(JsonValue::Null, Into::into)
    }
}

/// Renders a value as compact single-line JSON.
///
/// The inverse of [`parse`] and the writer `rt-proto` frames ride on:
/// control characters (including newlines) are `\u`-escaped, so the output
/// never contains a raw line break — one rendered value is always one
/// line-delimited frame. Numbers print integrally when they are integral
/// (so `parse ∘ render` is the identity for every value `parse` can
/// produce, up to f64 precision). NaN and infinities render as `null`.
pub fn render(value: &JsonValue) -> String {
    let mut out = String::new();
    render_into(value, &mut out);
    out
}

fn render_into(value: &JsonValue, out: &mut String) {
    match value {
        JsonValue::Null => out.push_str("null"),
        JsonValue::Num(n) if !n.is_finite() => out.push_str("null"),
        JsonValue::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        JsonValue::Num(n) if n.fract() == 0.0 && n.abs() < 9.007_199_254_740_992e15 => {
            out.push_str(&format!("{}", *n as i64));
        }
        JsonValue::Num(n) => out.push_str(&n.to_string()),
        JsonValue::Str(s) => render_str(s, out),
        JsonValue::Arr(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                render_into(item, out);
            }
            out.push(']');
        }
        JsonValue::Obj(fields) => {
            out.push('{');
            for (i, (key, item)) in fields.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                render_str(key, out);
                out.push(':');
                render_into(item, out);
            }
            out.push('}');
        }
    }
}

/// Appends `s` as a JSON string literal: the workspace's one escaper.
pub(crate) fn render_str(s: &str, out: &mut String) {
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

/// Parses a JSON document. Errors carry a byte offset and a short message.
pub fn parse(text: &str) -> Result<JsonValue, String> {
    let bytes = text.as_bytes();
    let mut pos = 0usize;
    let value = parse_value(bytes, &mut pos)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing characters at byte {pos}"));
    }
    Ok(value)
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(bytes: &[u8], pos: &mut usize, c: u8) -> Result<(), String> {
    if bytes.get(*pos) == Some(&c) {
        *pos += 1;
        Ok(())
    } else {
        Err(format!("expected `{}` at byte {}", c as char, *pos))
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize) -> Result<JsonValue, String> {
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        None => Err("unexpected end of input".to_string()),
        Some(b'n') => parse_literal(bytes, pos, "null", JsonValue::Null),
        Some(b't') => parse_literal(bytes, pos, "true", JsonValue::Bool(true)),
        Some(b'f') => parse_literal(bytes, pos, "false", JsonValue::Bool(false)),
        Some(b'"') => parse_string(bytes, pos).map(JsonValue::Str),
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(JsonValue::Arr(items));
            }
            loop {
                items.push(parse_value(bytes, pos)?);
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(JsonValue::Arr(items));
                    }
                    _ => return Err(format!("expected `,` or `]` at byte {}", *pos)),
                }
            }
        }
        Some(b'{') => {
            *pos += 1;
            let mut fields = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(JsonValue::Obj(fields));
            }
            loop {
                skip_ws(bytes, pos);
                let key = parse_string(bytes, pos)?;
                skip_ws(bytes, pos);
                expect(bytes, pos, b':')?;
                let value = parse_value(bytes, pos)?;
                fields.push((key, value));
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(JsonValue::Obj(fields));
                    }
                    _ => return Err(format!("expected `,` or `}}` at byte {}", *pos)),
                }
            }
        }
        Some(_) => parse_number(bytes, pos).map(JsonValue::Num),
    }
}

fn parse_literal(
    bytes: &[u8],
    pos: &mut usize,
    literal: &str,
    value: JsonValue,
) -> Result<JsonValue, String> {
    if bytes[*pos..].starts_with(literal.as_bytes()) {
        *pos += literal.len();
        Ok(value)
    } else {
        Err(format!("invalid literal at byte {}", *pos))
    }
}

fn parse_hex4(bytes: &[u8], at: usize) -> Result<u32, String> {
    let hex = bytes.get(at..at + 4).ok_or("truncated \\u escape")?;
    u32::from_str_radix(std::str::from_utf8(hex).map_err(|_| "bad \\u escape")?, 16)
        .map_err(|_| "bad \\u escape".to_string())
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
    expect(bytes, pos, b'"')?;
    let mut out = String::new();
    loop {
        match bytes.get(*pos) {
            None => return Err("unterminated string".to_string()),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match bytes.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'u') => {
                        let mut code = parse_hex4(bytes, *pos + 1)?;
                        *pos += 4;
                        // Standard serializers (ensure_ascii-style) encode
                        // non-BMP characters as UTF-16 surrogate pairs
                        // (U+1F600 arrives as `\\ud83d\\ude00`). Decode the
                        // pair; a lone or mismatched surrogate is a
                        // malformed document.
                        if (0xD800..0xDC00).contains(&code) {
                            if bytes.get(*pos + 1..*pos + 3) != Some(&b"\\u"[..]) {
                                return Err(format!(
                                    "unpaired UTF-16 high surrogate at byte {}",
                                    *pos
                                ));
                            }
                            let low = parse_hex4(bytes, *pos + 3)?;
                            if !(0xDC00..0xE000).contains(&low) {
                                return Err(format!(
                                    "invalid UTF-16 low surrogate at byte {}",
                                    *pos
                                ));
                            }
                            code = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
                            *pos += 6;
                        } else if (0xDC00..0xE000).contains(&code) {
                            return Err(format!("unpaired UTF-16 low surrogate at byte {}", *pos));
                        }
                        out.push(char::from_u32(code).ok_or("bad \\u escape")?);
                    }
                    other => return Err(format!("bad escape {other:?} at byte {}", *pos)),
                }
                *pos += 1;
            }
            Some(_) => {
                // Copy one UTF-8 scalar (possibly multi-byte).
                let rest = std::str::from_utf8(&bytes[*pos..]).map_err(|_| "invalid UTF-8")?;
                // rtlint: allow(D006) -- the Some(_) arm guarantees at least one byte, so the str is non-empty
                let c = rest.chars().next().expect("non-empty by construction");
                out.push(c);
                *pos += c.len_utf8();
            }
        }
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<f64, String> {
    let start = *pos;
    while *pos < bytes.len()
        && matches!(bytes[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
    {
        *pos += 1;
    }
    std::str::from_utf8(&bytes[start..*pos])
        .ok()
        .and_then(|s| s.parse::<f64>().ok())
        .ok_or_else(|| format!("invalid number at byte {start}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parser_handles_nesting_and_whitespace() {
        let v = parse(" { \"a\" : [ 1 , -2.5e1 , {\"b\": []} ] , \"c\": null } ").unwrap();
        let arr = v.get("a").unwrap().as_array().unwrap();
        assert_eq!(arr[0].as_f64(), Some(1.0));
        assert_eq!(arr[1].as_f64(), Some(-25.0));
        assert!(arr[2].get("b").unwrap().as_array().unwrap().is_empty());
        assert_eq!(v.get("c"), Some(&JsonValue::Null));
    }

    #[test]
    fn parser_reads_strings_escapes_and_numbers() {
        let v = parse("{\"s\": \"a\\\"b\\n\\u0041\", \"t\": true, \"n\": 3}").unwrap();
        assert_eq!(v.get("s").unwrap().as_str(), Some("a\"b\nA"));
        assert_eq!(v.get("t"), Some(&JsonValue::Bool(true)));
        assert_eq!(v.get("n").unwrap().as_usize(), Some(3));
        assert_eq!(v.get("n").unwrap().as_str(), None);
    }

    #[test]
    fn parser_decodes_surrogate_pairs() {
        // U+1F600 as an ensure_ascii-style serializer writes it.
        let v = parse("{\"s\": \"\\ud83d\\ude00!\"}").unwrap();
        assert_eq!(v.get("s").unwrap().as_str(), Some("\u{1F600}!"));
        // Lone or mismatched surrogates are malformed, not U+FFFD.
        assert!(parse("\"\\ud83d\"").is_err());
        assert!(parse("\"\\ud83d\\u0041\"").is_err());
        assert!(parse("\"\\ude00\"").is_err());
    }

    #[test]
    fn render_round_trips_and_stays_on_one_line() {
        let doc = "{\"a\":[1,-2.5,{\"b\":[]},\"x\\ny\",null,true,false],\"c\":\"\\u0001\"}";
        let v = parse(doc).unwrap();
        let rendered = render(&v);
        assert_eq!(rendered, doc);
        assert!(!rendered.contains('\n'));
        assert_eq!(parse(&rendered).unwrap(), v);
        // Integral floats print integrally; fractional ones keep their dot.
        assert_eq!(render(&JsonValue::Num(3.0)), "3");
        assert_eq!(render(&JsonValue::Num(-0.5)), "-0.5");
        // JSON has no NaN/Infinity literal: non-finite numbers render as
        // `null`, which parses back.
        for n in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let rendered = render(&JsonValue::Arr(vec![JsonValue::Num(n)]));
            assert_eq!(rendered, "[null]");
            assert_eq!(parse(&rendered), Ok(JsonValue::Arr(vec![JsonValue::Null])));
        }
    }

    #[test]
    fn primitives_render() {
        assert_eq!(render(&1usize.into()), "1");
        assert_eq!(render(&(-2.0).into()), "-2");
        assert_eq!(render(&0.5.into()), "0.5");
        assert_eq!(render(&f64::NAN.into()), "null");
        assert_eq!(render(&true.into()), "true");
        assert_eq!(
            render(&"a\"b\\c\n".to_string().into()),
            "\"a\\\"b\\\\c\\n\""
        );
        assert_eq!(render(&Some(3usize).into()), "3");
        assert_eq!(render(&Option::<f64>::None.into()), "null");
    }

    #[test]
    fn vectors_and_structs_render() {
        let row = |x: usize, y: f64, label: &str| {
            JsonValue::Obj(vec![
                ("x".to_string(), x.into()),
                ("y".to_string(), y.into()),
                ("label".to_string(), label.to_string().into()),
            ])
        };
        let rows = JsonValue::Arr(vec![row(1, 0.5, "a"), row(2, 0.25, "b")]);
        assert_eq!(
            render(&rows),
            "[{\"x\":1,\"y\":0.5,\"label\":\"a\"},{\"x\":2,\"y\":0.25,\"label\":\"b\"}]"
        );
    }

    #[test]
    fn parser_rejects_malformed_documents() {
        assert!(parse("").is_err());
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("{\"a\" 1}").is_err());
        assert!(parse("\"unterminated").is_err());
        assert!(parse("1 2").is_err());
        assert!(parse("nul").is_err());
    }
}
