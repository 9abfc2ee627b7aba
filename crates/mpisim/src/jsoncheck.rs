//! A dependency-free JSON well-formedness checker.
//!
//! The workspace builds with no registry access, so there is no serde to
//! lean on: every exporter in the toolchain hand-rolls its JSON. This
//! module is a small recursive-descent validator that the exporter tests
//! and the `jsoncheck` CLI run over each emitted document, catching the
//! classic hand-rolled-JSON failures (trailing commas, unescaped quotes,
//! unbalanced brackets, bare `NaN`s) without pulling in a parser
//! dependency. [`check_json`] validates grammar only; [`parse_json`]
//! builds a [`Json`] DOM on the same grammar and is the workspace's one
//! JSON parser (run-store documents, witness schedules).

/// Validate that `input` is exactly one well-formed JSON value (with
/// optional surrounding whitespace). Returns the byte offset where
/// parsing failed, or `Ok(())`.
pub fn check_json(input: &str) -> Result<(), usize> {
    let bytes = input.as_bytes();
    let mut pos = 0;
    skip_ws(bytes, &mut pos);
    value(bytes, &mut pos)?;
    skip_ws(bytes, &mut pos);
    if pos == bytes.len() {
        Ok(())
    } else {
        Err(pos)
    }
}

/// Assert-style wrapper with a readable failure excerpt; panics with the
/// offending context if `input` is not valid JSON.
pub fn assert_json(input: &str, what: &str) {
    if let Err(pos) = check_json(input) {
        let lo = pos.saturating_sub(40);
        let hi = (pos + 40).min(input.len());
        panic!(
            "{what}: invalid JSON at byte {pos}: ...{}...",
            &input[lo..hi]
        );
    }
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn value(bytes: &[u8], pos: &mut usize) -> Result<(), usize> {
    match bytes.get(*pos) {
        Some(b'{') => object(bytes, pos),
        Some(b'[') => array(bytes, pos),
        Some(b'"') => string(bytes, pos),
        Some(b't') => literal(bytes, pos, b"true"),
        Some(b'f') => literal(bytes, pos, b"false"),
        Some(b'n') => literal(bytes, pos, b"null"),
        Some(b'-' | b'0'..=b'9') => number(bytes, pos),
        _ => Err(*pos),
    }
}

fn literal(bytes: &[u8], pos: &mut usize, lit: &[u8]) -> Result<(), usize> {
    if bytes[*pos..].starts_with(lit) {
        *pos += lit.len();
        Ok(())
    } else {
        Err(*pos)
    }
}

fn object(bytes: &[u8], pos: &mut usize) -> Result<(), usize> {
    *pos += 1; // consume '{'
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(());
    }
    loop {
        skip_ws(bytes, pos);
        string(bytes, pos)?;
        skip_ws(bytes, pos);
        if bytes.get(*pos) != Some(&b':') {
            return Err(*pos);
        }
        *pos += 1;
        skip_ws(bytes, pos);
        value(bytes, pos)?;
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(());
            }
            _ => return Err(*pos),
        }
    }
}

fn array(bytes: &[u8], pos: &mut usize) -> Result<(), usize> {
    *pos += 1; // consume '['
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(());
    }
    loop {
        skip_ws(bytes, pos);
        value(bytes, pos)?;
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(());
            }
            _ => return Err(*pos),
        }
    }
}

fn string(bytes: &[u8], pos: &mut usize) -> Result<(), usize> {
    if bytes.get(*pos) != Some(&b'"') {
        return Err(*pos);
    }
    *pos += 1;
    while let Some(&b) = bytes.get(*pos) {
        match b {
            b'"' => {
                *pos += 1;
                return Ok(());
            }
            b'\\' => {
                *pos += 1;
                match bytes.get(*pos) {
                    Some(b'"' | b'\\' | b'/' | b'b' | b'f' | b'n' | b'r' | b't') => *pos += 1,
                    Some(b'u') => {
                        *pos += 1;
                        for _ in 0..4 {
                            if !bytes.get(*pos).is_some_and(|c| c.is_ascii_hexdigit()) {
                                return Err(*pos);
                            }
                            *pos += 1;
                        }
                    }
                    _ => return Err(*pos),
                }
            }
            0x00..=0x1f => return Err(*pos), // raw control char
            _ => *pos += 1,
        }
    }
    Err(*pos)
}

fn number(bytes: &[u8], pos: &mut usize) -> Result<(), usize> {
    let start = *pos;
    if bytes.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    let mut digits = 0;
    while bytes.get(*pos).is_some_and(u8::is_ascii_digit) {
        *pos += 1;
        digits += 1;
    }
    if digits == 0 {
        return Err(start);
    }
    if bytes.get(*pos) == Some(&b'.') {
        *pos += 1;
        let mut frac = 0;
        while bytes.get(*pos).is_some_and(u8::is_ascii_digit) {
            *pos += 1;
            frac += 1;
        }
        if frac == 0 {
            return Err(*pos);
        }
    }
    if matches!(bytes.get(*pos), Some(b'e' | b'E')) {
        *pos += 1;
        if matches!(bytes.get(*pos), Some(b'+' | b'-')) {
            *pos += 1;
        }
        let mut exp = 0;
        while bytes.get(*pos).is_some_and(u8::is_ascii_digit) {
            *pos += 1;
            exp += 1;
        }
        if exp == 0 {
            return Err(*pos);
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------
// DOM parsing
// ---------------------------------------------------------------------
//
// The run-store layer (crates/mpistudy) does not just validate documents,
// it *ingests* them: a stored metrics document is parsed back into typed
// rows and re-emitted, and the round trip must be byte-identical. The
// parser below builds on the same grammar as the checker. Numbers keep
// their raw text (`Json::Num`) so integers above 2^53 — nanosecond
// makespans, fingerprints — survive the trip without float rounding;
// accessors convert on demand.

/// A parsed JSON value. Object member order is preserved (hand-rolled
/// emitters in this workspace are order-deterministic, and round-trip
/// tests rely on it).
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    /// A number, kept as its raw source text.
    Num(String),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Object member by key (first match), if this is an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as f64, if it is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(raw) => raw.parse().ok(),
            _ => None,
        }
    }

    /// The value as u64, if it is a non-negative integer number.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(raw) => raw.parse().ok(),
            _ => None,
        }
    }

    /// The value as usize, if it is a non-negative integer number.
    pub fn as_usize(&self) -> Option<usize> {
        match self {
            Json::Num(raw) => raw.parse().ok(),
            _ => None,
        }
    }

    /// The value as i32, if it is an integer number in range.
    pub fn as_i32(&self) -> Option<i32> {
        match self {
            Json::Num(raw) => raw.parse().ok(),
            _ => None,
        }
    }

    /// The value as &str, if it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
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
}

/// Parse exactly one JSON value (with optional surrounding whitespace)
/// into a [`Json`] DOM. Returns the byte offset of the fault on error —
/// the same contract as [`check_json`].
pub fn parse_json(input: &str) -> Result<Json, usize> {
    let bytes = input.as_bytes();
    let mut pos = 0;
    skip_ws(bytes, &mut pos);
    let v = value_dom(bytes, &mut pos)?;
    skip_ws(bytes, &mut pos);
    if pos == bytes.len() {
        Ok(v)
    } else {
        Err(pos)
    }
}

fn value_dom(bytes: &[u8], pos: &mut usize) -> Result<Json, usize> {
    match bytes.get(*pos) {
        Some(b'{') => {
            *pos += 1;
            skip_ws(bytes, pos);
            let mut members = Vec::new();
            if bytes.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Json::Obj(members));
            }
            loop {
                skip_ws(bytes, pos);
                let key = string_dom(bytes, pos)?;
                skip_ws(bytes, pos);
                if bytes.get(*pos) != Some(&b':') {
                    return Err(*pos);
                }
                *pos += 1;
                skip_ws(bytes, pos);
                members.push((key, value_dom(bytes, pos)?));
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Json::Obj(members));
                    }
                    _ => return Err(*pos),
                }
            }
        }
        Some(b'[') => {
            *pos += 1;
            skip_ws(bytes, pos);
            let mut items = Vec::new();
            if bytes.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            loop {
                skip_ws(bytes, pos);
                items.push(value_dom(bytes, pos)?);
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Json::Arr(items));
                    }
                    _ => return Err(*pos),
                }
            }
        }
        Some(b'"') => string_dom(bytes, pos).map(Json::Str),
        Some(b't') => literal(bytes, pos, b"true").map(|()| Json::Bool(true)),
        Some(b'f') => literal(bytes, pos, b"false").map(|()| Json::Bool(false)),
        Some(b'n') => literal(bytes, pos, b"null").map(|()| Json::Null),
        Some(b'-' | b'0'..=b'9') => {
            let start = *pos;
            number(bytes, pos)?;
            // The grammar guarantees the span is ASCII.
            Ok(Json::Num(
                std::str::from_utf8(&bytes[start..*pos])
                    .expect("ascii number")
                    .to_string(),
            ))
        }
        _ => Err(*pos),
    }
}

/// Validate a string with [`string`], then decode its escapes.
fn string_dom(bytes: &[u8], pos: &mut usize) -> Result<String, usize> {
    let start = *pos;
    string(bytes, pos)?;
    // Interior span, without the surrounding quotes; validated UTF-8
    // since the input was a &str and the span boundaries are ASCII.
    let raw = std::str::from_utf8(&bytes[start + 1..*pos - 1]).map_err(|_| start)?;
    if !raw.contains('\\') {
        return Ok(raw.to_string());
    }
    let mut out = String::with_capacity(raw.len());
    let mut chars = raw.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match chars.next() {
            Some('"') => out.push('"'),
            Some('\\') => out.push('\\'),
            Some('/') => out.push('/'),
            Some('b') => out.push('\u{0008}'),
            Some('f') => out.push('\u{000c}'),
            Some('n') => out.push('\n'),
            Some('r') => out.push('\r'),
            Some('t') => out.push('\t'),
            Some('u') => {
                let hex: String = chars.by_ref().take(4).collect();
                let code = u32::from_str_radix(&hex, 16).map_err(|_| start)?;
                // Surrogate pairs are not emitted by any exporter here;
                // map lone surrogates to the replacement character.
                out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
            }
            _ => return Err(start), // unreachable: checker validated
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accepts_valid_documents() {
        for ok in [
            "{}",
            "[]",
            "null",
            "-12.5e+3",
            r#"{"a":[1,2,{"b":"c\n"}],"d":true}"#,
            "  [1, 2]  ",
            r#""é""#,
        ] {
            assert!(check_json(ok).is_ok(), "{ok}");
        }
    }

    #[test]
    fn rejects_invalid_documents() {
        for bad in [
            "",
            "{",
            "[1,]",
            "{\"a\":}",
            "{\"a\" 1}",
            "[1] trailing",
            "\"unterminated",
            "01x",
            "1.",
            "{'single':1}",
            "{\"raw\ncontrol\":1}",
        ] {
            assert!(check_json(bad).is_err(), "accepted: {bad}");
        }
    }

    #[test]
    fn error_offset_points_at_the_fault() {
        assert_eq!(check_json("[1,]"), Err(3));
        assert_eq!(check_json("{\"a\":1} x"), Err(8));
    }

    #[test]
    fn dom_parses_typed_values() {
        let doc = r#"{"a": [1, 2.5, -3e2], "b": "x\ny", "c": true, "d": null}"#;
        let v = parse_json(doc).unwrap();
        let a = v.get("a").and_then(Json::as_arr).unwrap();
        assert_eq!(a[0].as_usize(), Some(1));
        assert_eq!(a[1].as_f64(), Some(2.5));
        assert_eq!(a[2].as_f64(), Some(-300.0));
        assert_eq!(v.get("b").and_then(Json::as_str), Some("x\ny"));
        assert_eq!(v.get("c"), Some(&Json::Bool(true)));
        assert_eq!(v.get("d"), Some(&Json::Null));
        assert!(v.get("missing").is_none());
    }

    #[test]
    fn dom_preserves_large_integers_and_raw_number_text() {
        // 2^63 - 25: would round through an f64.
        let v = parse_json("{\"ns\": 9223372036854775783}").unwrap();
        assert_eq!(
            v.get("ns").and_then(Json::as_u64),
            Some(9223372036854775783)
        );
        assert_eq!(v.get("ns"), Some(&Json::Num("9223372036854775783".into())));
    }

    #[test]
    fn dom_rejects_what_the_checker_rejects() {
        for bad in ["", "{", "[1,]", "{\"a\":}", "[1] trailing"] {
            assert_eq!(parse_json(bad).is_err(), check_json(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn dom_preserves_object_member_order() {
        let v = parse_json(r#"{"z":1,"a":2}"#).unwrap();
        match v {
            Json::Obj(members) => {
                assert_eq!(members[0].0, "z");
                assert_eq!(members[1].0, "a");
            }
            other => panic!("expected object, got {other:?}"),
        }
    }
}
