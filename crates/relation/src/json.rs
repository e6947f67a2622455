//! A minimal, dependency-free JSON layer: the one wire format shared by
//! the `whynot-server` protocol, its durability files (snapshots and the
//! `Delta` WAL in [`wire`](crate::wire)), and the CLI's `--json` output.
//!
//! Deliberately small: objects preserve insertion order (a `Vec` of
//! pairs, so emitted documents are deterministic), numbers are exact
//! `i128` integers (the engine's [`Value`](crate::Value) rationals are
//! encoded structurally in `wire`, never as floats), and the parser
//! accepts exactly what the serializer emits plus standard whitespace
//! and escapes.

use crate::error::RelError;
use std::fmt;

/// The deepest array/object nesting [`Json::parse`] accepts. The parser
/// recurses once per level, so an unbounded depth would let one hostile
/// line (`[[[[…`) overflow the stack and abort the process. Every
/// document this crate writes — wire responses, deltas, WAL records,
/// snapshots — nests only a handful of levels.
pub const MAX_JSON_DEPTH: usize = 128;

/// A JSON document.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An exact integer (this layer has no floats — see the module
    /// docs).
    Int(i128),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in insertion order (serialization is deterministic;
    /// lookups are linear over the handful of keys wire objects carry).
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// A string value.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// An object field's value, if present.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string contents, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The integer, if this is a number.
    pub fn as_int(&self) -> Option<i128> {
        match self {
            Json::Int(n) => Some(*n),
            _ => None,
        }
    }

    /// The boolean, if this is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Parses a JSON document (the full input must be one document).
    /// Nesting deeper than [`MAX_JSON_DEPTH`] is an error.
    pub fn parse(src: &str) -> Result<Json, RelError> {
        let bytes = src.as_bytes();
        let mut pos = 0usize;
        let value = parse_value(src, bytes, &mut pos, 0)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(RelError::Invalid(format!(
                "trailing input after JSON document at byte {pos}"
            )));
        }
        Ok(value)
    }
}

/// An object builder preserving field order — the idiom wire responses
/// are assembled with.
#[derive(Default)]
pub struct JsonObj {
    fields: Vec<(String, Json)>,
}

impl JsonObj {
    /// An empty object.
    pub fn new() -> Self {
        JsonObj::default()
    }

    /// Appends a field (builder-style).
    pub fn field(mut self, key: impl Into<String>, value: impl Into<Json>) -> Self {
        self.fields.push((key.into(), value.into()));
        self
    }

    /// Finishes the object.
    pub fn build(self) -> Json {
        Json::Obj(self.fields)
    }
}

impl From<bool> for Json {
    fn from(b: bool) -> Json {
        Json::Bool(b)
    }
}

impl From<i128> for Json {
    fn from(n: i128) -> Json {
        Json::Int(n)
    }
}

impl From<u64> for Json {
    fn from(n: u64) -> Json {
        Json::Int(n as i128)
    }
}

impl From<usize> for Json {
    fn from(n: usize) -> Json {
        Json::Int(n as i128)
    }
}

impl From<&str> for Json {
    fn from(s: &str) -> Json {
        Json::Str(s.to_string())
    }
}

impl From<String> for Json {
    fn from(s: String) -> Json {
        Json::Str(s)
    }
}

impl From<Vec<Json>> for Json {
    fn from(items: Vec<Json>) -> Json {
        Json::Arr(items)
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Json::Null => f.write_str("null"),
            Json::Bool(b) => write!(f, "{b}"),
            Json::Int(n) => write!(f, "{n}"),
            Json::Str(s) => write_escaped(f, s),
            Json::Arr(items) => {
                f.write_str("[")?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write!(f, "{item}")?;
                }
                f.write_str("]")
            }
            Json::Obj(fields) => {
                f.write_str("{")?;
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write_escaped(f, k)?;
                    write!(f, ":{v}")?;
                }
                f.write_str("}")
            }
        }
    }
}

fn write_escaped(f: &mut fmt::Formatter<'_>, s: &str) -> fmt::Result {
    f.write_str("\"")?;
    for c in s.chars() {
        match c {
            '"' => f.write_str("\\\"")?,
            '\\' => f.write_str("\\\\")?,
            '\n' => f.write_str("\\n")?,
            '\r' => f.write_str("\\r")?,
            '\t' => f.write_str("\\t")?,
            c if (c as u32) < 0x20 => write!(f, "\\u{:04x}", c as u32)?,
            c => f.write_str(c.encode_utf8(&mut [0u8; 4]))?,
        }
    }
    f.write_str("\"")
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

/// Parses one value; `depth` counts the arrays and objects enclosing it.
fn parse_value(src: &str, bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, RelError> {
    skip_ws(bytes, pos);
    let Some(&b) = bytes.get(*pos) else {
        return Err(RelError::Invalid("unexpected end of JSON input".into()));
    };
    if matches!(b, b'[' | b'{') && depth >= MAX_JSON_DEPTH {
        return Err(RelError::Invalid(format!(
            "JSON nesting deeper than {MAX_JSON_DEPTH} levels at byte {pos}"
        )));
    }
    match b {
        b'n' => parse_literal(bytes, pos, "null", Json::Null),
        b't' => parse_literal(bytes, pos, "true", Json::Bool(true)),
        b'f' => parse_literal(bytes, pos, "false", Json::Bool(false)),
        b'"' => parse_string(src, bytes, pos).map(Json::Str),
        b'[' => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            loop {
                items.push(parse_value(src, bytes, pos, depth + 1)?);
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Json::Arr(items));
                    }
                    _ => {
                        return Err(RelError::Invalid(format!(
                            "expected `,` or `]` in JSON array at byte {pos}"
                        )))
                    }
                }
            }
        }
        b'{' => {
            *pos += 1;
            let mut fields = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Json::Obj(fields));
            }
            loop {
                skip_ws(bytes, pos);
                let key = parse_string(src, bytes, pos)?;
                skip_ws(bytes, pos);
                if bytes.get(*pos) != Some(&b':') {
                    return Err(RelError::Invalid(format!(
                        "expected `:` in JSON object at byte {pos}"
                    )));
                }
                *pos += 1;
                let value = parse_value(src, bytes, pos, depth + 1)?;
                fields.push((key, value));
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Json::Obj(fields));
                    }
                    _ => {
                        return Err(RelError::Invalid(format!(
                            "expected `,` or `}}` in JSON object at byte {pos}"
                        )))
                    }
                }
            }
        }
        b'-' | b'0'..=b'9' => {
            let start = *pos;
            *pos += 1;
            while matches!(bytes.get(*pos), Some(b'0'..=b'9')) {
                *pos += 1;
            }
            if matches!(bytes.get(*pos), Some(b'.') | Some(b'e') | Some(b'E')) {
                return Err(RelError::Invalid(
                    "JSON floats are not part of the wire format (integers only)".into(),
                ));
            }
            src[start..*pos]
                .parse::<i128>()
                .map(Json::Int)
                .map_err(|e| RelError::Invalid(format!("bad JSON number: {e}")))
        }
        other => Err(RelError::Invalid(format!(
            "unexpected byte `{}` in JSON at {pos}",
            other as char
        ))),
    }
}

fn parse_literal(
    bytes: &[u8],
    pos: &mut usize,
    literal: &str,
    value: Json,
) -> Result<Json, RelError> {
    if bytes[*pos..].starts_with(literal.as_bytes()) {
        *pos += literal.len();
        Ok(value)
    } else {
        Err(RelError::Invalid(format!(
            "bad JSON literal at byte {pos} (expected `{literal}`)"
        )))
    }
}

fn parse_string(src: &str, bytes: &[u8], pos: &mut usize) -> Result<String, RelError> {
    if bytes.get(*pos) != Some(&b'"') {
        return Err(RelError::Invalid(format!(
            "expected JSON string at byte {pos}"
        )));
    }
    *pos += 1;
    let mut out = String::new();
    loop {
        let Some(&b) = bytes.get(*pos) else {
            return Err(RelError::Invalid("unterminated JSON string".into()));
        };
        match b {
            b'"' => {
                *pos += 1;
                return Ok(out);
            }
            b'\\' => {
                *pos += 1;
                let Some(&esc) = bytes.get(*pos) else {
                    return Err(RelError::Invalid("unterminated JSON escape".into()));
                };
                *pos += 1;
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
                        let hex = src.get(*pos..*pos + 4).ok_or_else(|| {
                            RelError::Invalid("truncated \\u escape in JSON string".into())
                        })?;
                        let code = u32::from_str_radix(hex, 16).map_err(|e| {
                            RelError::Invalid(format!("bad \\u escape in JSON string: {e}"))
                        })?;
                        *pos += 4;
                        // Surrogate pairs never occur in our own output;
                        // reject them rather than mis-decode.
                        let c = char::from_u32(code).ok_or_else(|| {
                            RelError::Invalid(format!("\\u{code:04x} is not a scalar value"))
                        })?;
                        out.push(c);
                    }
                    other => {
                        return Err(RelError::Invalid(format!(
                            "unknown JSON escape `\\{}`",
                            other as char
                        )))
                    }
                }
            }
            _ => {
                // Consume one UTF-8 scalar (the input is a &str, so the
                // boundary math cannot fail).
                let rest = &src[*pos..];
                let c = rest
                    .chars()
                    .next()
                    .ok_or_else(|| RelError::Invalid("unterminated JSON string".into()))?;
                out.push(c);
                *pos += c.len_utf8();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrips_nested_documents() {
        let doc = JsonObj::new()
            .field("ok", true)
            .field("count", 3usize)
            .field("name", "tenant \"a\"\nline2")
            .field(
                "items",
                Json::Arr(vec![Json::Int(-7), Json::Null, Json::str("x")]),
            )
            .build();
        let text = doc.to_string();
        assert_eq!(Json::parse(&text).unwrap(), doc);
    }

    #[test]
    fn parses_standard_whitespace_and_escapes() {
        let doc = Json::parse(" { \"a\" : [ 1 , 2 ] , \"b\" : \"\\u0041\\t\" } ").unwrap();
        assert_eq!(doc.get("a").unwrap().as_arr().unwrap().len(), 2);
        assert_eq!(doc.get("b").unwrap().as_str().unwrap(), "A\t");
    }

    #[test]
    fn rejects_floats_and_trailing_garbage() {
        assert!(Json::parse("1.5").is_err());
        assert!(Json::parse("{} junk").is_err());
        assert!(Json::parse("\"open").is_err());
    }

    #[test]
    fn nesting_is_bounded_at_max_json_depth() {
        let nested = |open: &str, close: &str, levels: usize| {
            format!("{}0{}", open.repeat(levels), close.repeat(levels))
        };
        for (open, close) in [("[", "]"), ("{\"k\":", "}")] {
            let at_limit = nested(open, close, MAX_JSON_DEPTH);
            assert!(Json::parse(&at_limit).is_ok(), "{open}: limit must parse");
            let deeper = nested(open, close, MAX_JSON_DEPTH + 1);
            let err = Json::parse(&deeper).unwrap_err().to_string();
            assert!(err.contains("nesting"), "{open}: {err}");
        }
    }

    #[test]
    fn control_characters_roundtrip_via_u_escapes() {
        let doc = Json::str("a\u{1}b");
        let text = doc.to_string();
        assert_eq!(text, "\"a\\u0001b\"");
        assert_eq!(Json::parse(&text).unwrap(), doc);
    }
}
