//! Minimal JSON support for the workspace's machine-readable surfaces.
//!
//! The workspace vendors offline stand-ins instead of crates.io dependencies,
//! so there is no serde; the benchmark pipeline (`BENCH_*.json`,
//! `bench/baseline.json`) and the `qcm-http` wire format use this hand-rolled
//! value type instead. It covers exactly the JSON those surfaces emit and
//! accept (objects, arrays, strings, finite numbers, booleans, null) — enough
//! for the CI regression gate to parse any file the suite writes, and for the
//! HTTP listener to parse any request body a client sends.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// A parsed JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (parsed as `f64`; the pipeline's counters fit).
    Number(f64),
    /// A string.
    String(String),
    /// An array.
    Array(Vec<Json>),
    /// An object. `BTreeMap` keeps serialisation deterministic.
    Object(BTreeMap<String, Json>),
}

impl Json {
    /// Member of an object, if this is an object containing it.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Object(map) => map.get(key),
            _ => None,
        }
    }

    /// The numeric value, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Number(x) => Some(*x),
            _ => None,
        }
    }

    /// The string value, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::String(s) => Some(s.as_str()),
            _ => None,
        }
    }

    /// The boolean value, if this is a bool.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Array(items) => Some(items),
            _ => None,
        }
    }

    /// Parses a JSON document (the full input must be one value plus
    /// whitespace).
    pub fn parse(text: &str) -> Result<Json, String> {
        let bytes = text.as_bytes();
        let mut pos = 0usize;
        let value = parse_value(bytes, &mut pos, 0)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("trailing data at byte {pos}"));
        }
        Ok(value)
    }

    /// Serialises the value as compact JSON.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out);
        out
    }

    fn render_into(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Number(x) => write_number(*x, out),
            Json::String(s) => write_string(s, out),
            Json::Array(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.render_into(out);
                }
                out.push(']');
            }
            Json::Object(map) => {
                out.push('{');
                for (i, (key, value)) in map.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_string(key, out);
                    out.push(':');
                    value.render_into(out);
                }
                out.push('}');
            }
        }
    }
}

impl From<f64> for Json {
    fn from(x: f64) -> Json {
        Json::Number(x)
    }
}

impl From<u64> for Json {
    fn from(x: u64) -> Json {
        Json::Number(x as f64)
    }
}

impl From<usize> for Json {
    fn from(x: usize) -> Json {
        Json::Number(x as f64)
    }
}

impl From<bool> for Json {
    fn from(x: bool) -> Json {
        Json::Bool(x)
    }
}

impl From<&str> for Json {
    fn from(x: &str) -> Json {
        Json::String(x.to_string())
    }
}

impl From<String> for Json {
    fn from(x: String) -> Json {
        Json::String(x)
    }
}

/// Convenience constructor for object literals.
pub fn object(entries: Vec<(&str, Json)>) -> Json {
    Json::Object(
        entries
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

fn write_number(x: f64, out: &mut String) {
    if !x.is_finite() {
        out.push_str("null");
    } else if x == x.trunc() && x.abs() < 9e15 {
        let _ = write!(out, "{}", x as i64);
    } else {
        let _ = write!(out, "{x}");
    }
}

fn write_string(s: &str, out: &mut String) {
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

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(bytes: &[u8], pos: &mut usize, what: u8) -> Result<(), String> {
    if bytes.get(*pos) == Some(&what) {
        *pos += 1;
        Ok(())
    } else {
        Err(format!(
            "expected '{}' at byte {} (found {:?})",
            what as char,
            *pos,
            bytes.get(*pos).map(|&b| b as char)
        ))
    }
}

/// How deep arrays and objects may nest. The parser recurses once per level
/// on the caller's stack, and `POST /v1/jobs` bodies are parsed on handler
/// threads, so untrusted input must not choose the depth; the wire DTOs nest
/// two deep.
const MAX_DEPTH: usize = 128;

fn parse_value(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        None => Err("unexpected end of input".to_string()),
        Some(b'{' | b'[') if depth == MAX_DEPTH => Err(format!(
            "nested deeper than {MAX_DEPTH} at byte {pos}",
            pos = *pos
        )),
        Some(b'{') => parse_object(bytes, pos, depth + 1),
        Some(b'[') => parse_array(bytes, pos, depth + 1),
        Some(b'"') => Ok(Json::String(parse_string(bytes, pos)?)),
        Some(b't') => parse_literal(bytes, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_literal(bytes, pos, "false", Json::Bool(false)),
        Some(b'n') => parse_literal(bytes, pos, "null", Json::Null),
        Some(_) => parse_number(bytes, pos),
    }
}

fn parse_literal(bytes: &[u8], pos: &mut usize, word: &str, value: Json) -> Result<Json, String> {
    if bytes[*pos..].starts_with(word.as_bytes()) {
        *pos += word.len();
        Ok(value)
    } else {
        Err(format!("invalid literal at byte {pos}", pos = *pos))
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    while *pos < bytes.len()
        && matches!(bytes[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
    {
        *pos += 1;
    }
    let text = std::str::from_utf8(&bytes[start..*pos]).map_err(|e| e.to_string())?;
    text.parse::<f64>()
        .map(Json::Number)
        .map_err(|e| format!("bad number {text:?} at byte {start}: {e}"))
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
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        let hex = bytes
                            .get(*pos + 1..*pos + 5)
                            .ok_or("truncated \\u escape")?;
                        let hex = std::str::from_utf8(hex).map_err(|e| e.to_string())?;
                        let code =
                            u32::from_str_radix(hex, 16).map_err(|e| format!("bad \\u: {e}"))?;
                        // Surrogate pairs are not needed by the pipeline's
                        // ASCII output; map lone surrogates to U+FFFD.
                        out.push(char::from_u32(code).unwrap_or('\u{FFFD}'));
                        *pos += 4;
                    }
                    other => return Err(format!("bad escape {other:?}")),
                }
                *pos += 1;
            }
            Some(_) => {
                // Consume one UTF-8 scalar (input is valid UTF-8 by
                // construction of `&str`).
                let text = std::str::from_utf8(&bytes[*pos..]).map_err(|e| e.to_string())?;
                let c = text.chars().next().ok_or("empty char")?;
                out.push(c);
                *pos += c.len_utf8();
            }
        }
    }
}

fn parse_array(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    expect(bytes, pos, b'[')?;
    let mut items = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Json::Array(items));
    }
    loop {
        items.push(parse_value(bytes, pos, depth)?);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Json::Array(items));
            }
            other => return Err(format!("expected ',' or ']' (found {other:?})")),
        }
    }
}

fn parse_object(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    expect(bytes, pos, b'{')?;
    let mut map = BTreeMap::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Json::Object(map));
    }
    loop {
        skip_ws(bytes, pos);
        let key = parse_string(bytes, pos)?;
        skip_ws(bytes, pos);
        expect(bytes, pos, b':')?;
        let value = parse_value(bytes, pos, depth)?;
        map.insert(key, value);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Json::Object(map));
            }
            other => return Err(format!("expected ',' or '}}' (found {other:?})")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrips_the_pipeline_shapes() {
        let text = r#"{
            "schema": "qcm-bench/v1",
            "quick": true,
            "calibration_ms": 12.5,
            "workloads": [
                {"name": "edge_query_hubs", "wall_ms": 80.25, "edge_queries": 123456,
                 "speedup": 1.75, "note": "a \"quoted\" name", "missing": null}
            ]
        }"#;
        let parsed = Json::parse(text).unwrap();
        assert_eq!(
            parsed.get("schema").and_then(Json::as_str),
            Some("qcm-bench/v1")
        );
        assert_eq!(parsed.get("quick").and_then(Json::as_bool), Some(true));
        let workloads = parsed.get("workloads").and_then(Json::as_array).unwrap();
        assert_eq!(workloads.len(), 1);
        assert_eq!(
            workloads[0].get("edge_queries").and_then(Json::as_f64),
            Some(123_456.0)
        );
        assert_eq!(
            workloads[0].get("note").and_then(Json::as_str),
            Some("a \"quoted\" name")
        );
        assert_eq!(workloads[0].get("missing"), Some(&Json::Null));
        // Render → parse → identical tree.
        let rendered = parsed.render();
        assert_eq!(Json::parse(&rendered).unwrap(), parsed);
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in ["", "{", "[1,]", "{\"a\" 1}", "nul", "1 2", "\"open"] {
            assert!(Json::parse(bad).is_err(), "{bad:?} must not parse");
        }
    }

    /// 1 MiB of openers on a default-size thread stack: the depth cap
    /// returns an error where unbounded recursion would overflow the stack
    /// and abort the process.
    #[test]
    fn deep_nesting_is_an_error_not_a_stack_overflow() {
        let bodies = ["[".repeat(1 << 20), "{\"a\":".repeat((1 << 20) / 5)];
        let parsed =
            qcm_sync::thread::spawn(move || bodies.map(|body| Json::parse(&body).is_err()));
        assert_eq!(parsed.join().expect("no stack overflow"), [true, true]);
        let nested = |depth| "[".repeat(depth) + &"]".repeat(depth);
        assert!(Json::parse(&nested(MAX_DEPTH)).is_ok());
        assert!(Json::parse(&nested(MAX_DEPTH + 1)).is_err());
    }

    /// Every prefix and every single-byte change of a rendered document
    /// parses or returns an error; none panics.
    #[test]
    fn truncated_and_mutated_documents_never_panic() {
        let document = object(vec![
            ("graph", Json::from("g \"1\"\n\u{e9}")),
            ("gamma", Json::from(0.85)),
            ("min_size", Json::from(12u64)),
            (
                "sets",
                Json::Array(vec![Json::Array(vec![Json::from(1u64), Json::Null])]),
            ),
            ("done", Json::from(true)),
        ])
        .render();
        let bytes = document.as_bytes();
        let mut parsed = 0;
        for end in 0..=bytes.len() {
            if let Ok(prefix) = std::str::from_utf8(&bytes[..end]) {
                parsed += usize::from(Json::parse(prefix).is_ok());
            }
        }
        assert_eq!(parsed, 1, "only the whole document is one");
        for at in 0..bytes.len() {
            for byte in 0..=u8::MAX {
                let mut changed = bytes.to_vec();
                changed[at] = byte;
                if let Ok(text) = String::from_utf8(changed) {
                    let _ = Json::parse(&text);
                }
            }
        }
    }

    #[test]
    fn integers_render_without_fraction() {
        let v = object(vec![("count", Json::from(42u64)), ("x", Json::from(1.5))]);
        assert_eq!(v.render(), "{\"count\":42,\"x\":1.5}");
    }
}
