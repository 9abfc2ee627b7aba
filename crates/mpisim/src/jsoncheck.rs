//! A dependency-free JSON well-formedness checker.
//!
//! The workspace builds with no registry access, so there is no serde to
//! lean on: every exporter in the toolchain hand-rolls its JSON. This
//! module is a small recursive-descent validator that the exporter tests
//! and the `jsoncheck` CLI run over each emitted document, catching the
//! classic hand-rolled-JSON failures (trailing commas, unescaped quotes,
//! unbalanced brackets, bare `NaN`s) without pulling in a parser
//! dependency. [`check_json`] validates grammar only; [`parse_json`]
//! builds a [`Json`] DOM with the same walker and is the workspace's one
//! JSON parser (run-store documents, witness schedules). Nesting deeper
//! than 128 levels is rejected like any other fault, by offset.

/// Validate that `input` is exactly one well-formed JSON value (with
/// optional surrounding whitespace). Returns the byte offset where
/// parsing failed, or `Ok(())`.
pub fn check_json(input: &str) -> Result<(), usize> {
    document(input)
}

/// Assert-style wrapper with a readable failure excerpt; panics with the
/// offending context if `input` is not valid JSON.
pub fn assert_json(input: &str, what: &str) {
    if let Err(pos) = check_json(input) {
        panic!(
            "{what}: invalid JSON at byte {pos}: ...{}...",
            excerpt(input, pos)
        );
    }
}

/// Up to 40 bytes of `input` either side of byte `pos`, widened to
/// character boundaries: the context a diagnostic prints.
pub fn excerpt(input: &str, pos: usize) -> &str {
    let mut lo = pos.saturating_sub(40);
    while !input.is_char_boundary(lo) {
        lo -= 1;
    }
    let mut hi = (pos + 40).min(input.len());
    while !input.is_char_boundary(hi) {
        hi += 1;
    }
    &input[lo..hi]
}

/// Arrays and objects nest this deep at most. The walker recurses once per
/// level, so the bound is what turns a hostile `[[[[…` into an error
/// offset instead of a stack overflow; emitted documents nest below 10.
const MAX_DEPTH: usize = 128;

/// What the one grammar walker makes of what it recognises: nothing for
/// [`check_json`] (`()`), the DOM for [`parse_json`] ([`Json`]).
trait Build: Sized {
    /// An object member's key.
    type Key;
    /// The key whose (validated) string spans `start..end`, quotes included.
    fn key(bytes: &[u8], start: usize, end: usize) -> Result<Self::Key, usize>;
    /// The (validated) string, number or literal spanning `start..end`.
    fn scalar(bytes: &[u8], start: usize, end: usize) -> Result<Self, usize>;
    /// What an array's items and an object's members collect in. Not a
    /// `Vec` of `()` for the checker: counting what it drops cost it 10 %.
    type Seq<T>: Default;
    fn push<T>(seq: &mut Self::Seq<T>, item: T);
    fn arr(items: Self::Seq<Self>) -> Self;
    fn obj(members: Self::Seq<(Self::Key, Self)>) -> Self;
}

impl Build for () {
    type Key = ();
    fn key(_: &[u8], _: usize, _: usize) -> Result<(), usize> {
        Ok(())
    }
    fn scalar(_: &[u8], _: usize, _: usize) -> Result<(), usize> {
        Ok(())
    }
    type Seq<T> = ();
    fn push<T>(_: &mut (), _: T) {}
    fn arr(_: ()) {}
    fn obj(_: ()) {}
}

/// Exactly one value with optional surrounding whitespace.
fn document<B: Build>(input: &str) -> Result<B, usize> {
    let bytes = input.as_bytes();
    let mut pos = 0;
    skip_ws(bytes, &mut pos);
    let v = value(bytes, &mut pos, 0)?;
    skip_ws(bytes, &mut pos);
    if pos == bytes.len() {
        Ok(v)
    } else {
        Err(pos)
    }
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

/// One value; `depth` is the number of arrays and objects it sits in.
fn value<B: Build>(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<B, usize> {
    let start = *pos;
    match bytes.get(*pos) {
        Some(b'{') => return object(bytes, pos, depth),
        Some(b'[') => return array(bytes, pos, depth),
        Some(b'"') => string(bytes, pos)?,
        Some(b't') => literal(bytes, pos, b"true")?,
        Some(b'f') => literal(bytes, pos, b"false")?,
        Some(b'n') => literal(bytes, pos, b"null")?,
        Some(b'-' | b'0'..=b'9') => number(bytes, pos)?,
        _ => return Err(*pos),
    }
    B::scalar(bytes, start, *pos)
}

fn literal(bytes: &[u8], pos: &mut usize, lit: &[u8]) -> Result<(), usize> {
    if bytes[*pos..].starts_with(lit) {
        *pos += lit.len();
        Ok(())
    } else {
        Err(*pos)
    }
}

fn object<B: Build>(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<B, usize> {
    if depth == MAX_DEPTH {
        return Err(*pos);
    }
    *pos += 1; // consume '{'
    skip_ws(bytes, pos);
    let mut members = B::Seq::default();
    if bytes.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(B::obj(members));
    }
    loop {
        skip_ws(bytes, pos);
        let start = *pos;
        string(bytes, pos)?;
        let key = B::key(bytes, start, *pos)?;
        skip_ws(bytes, pos);
        if bytes.get(*pos) != Some(&b':') {
            return Err(*pos);
        }
        *pos += 1;
        skip_ws(bytes, pos);
        B::push(&mut members, (key, value(bytes, pos, depth + 1)?));
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(B::obj(members));
            }
            _ => return Err(*pos),
        }
    }
}

fn array<B: Build>(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<B, usize> {
    if depth == MAX_DEPTH {
        return Err(*pos);
    }
    *pos += 1; // consume '['
    skip_ws(bytes, pos);
    let mut items = B::Seq::default();
    if bytes.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(B::arr(items));
    }
    loop {
        skip_ws(bytes, pos);
        B::push(&mut items, value(bytes, pos, depth + 1)?);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(B::arr(items));
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
// parser is the checker's walker with [`Json`] as its builder. Numbers keep
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
    document(input)
}

impl Build for Json {
    type Key = String;
    fn key(bytes: &[u8], start: usize, end: usize) -> Result<String, usize> {
        decode(bytes, start, end)
    }
    fn scalar(bytes: &[u8], start: usize, end: usize) -> Result<Json, usize> {
        Ok(match bytes[start] {
            b'"' => Json::Str(decode(bytes, start, end)?),
            b't' => Json::Bool(true),
            b'f' => Json::Bool(false),
            b'n' => Json::Null,
            // The grammar guarantees the span is ASCII.
            _ => Json::Num(
                std::str::from_utf8(&bytes[start..end])
                    .expect("ascii number")
                    .to_string(),
            ),
        })
    }
    type Seq<T> = Vec<T>;
    fn push<T>(seq: &mut Vec<T>, item: T) {
        seq.push(item);
    }
    fn arr(items: Vec<Json>) -> Json {
        Json::Arr(items)
    }
    fn obj(members: Vec<(String, Json)>) -> Json {
        Json::Obj(members)
    }
}

/// Decode the escapes of the string [`string`] validated at `start..end`.
fn decode(bytes: &[u8], start: usize, end: usize) -> Result<String, usize> {
    // Interior span, without the surrounding quotes; validated UTF-8
    // since the input was a &str and the span boundaries are ASCII.
    let raw = std::str::from_utf8(&bytes[start + 1..end - 1]).map_err(|_| start)?;
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

    const VALID: [&str; 7] = [
        "{}",
        "[]",
        "null",
        "-12.5e+3",
        r#"{"a":[1,2,{"b":"c\n"}],"d":true}"#,
        "  [1, 2]  ",
        r#""é""#,
    ];

    const INVALID: [&str; 11] = [
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
    ];

    /// Hostile nesting, closed or not: far past what a recursive walker's
    /// stack holds, and one level past the bound.
    fn too_deep() -> [String; 3] {
        [
            "[".repeat(200_000),
            "{\"a\":".repeat(200_000),
            "[".repeat(MAX_DEPTH + 1) + &"]".repeat(MAX_DEPTH + 1),
        ]
    }

    #[test]
    fn accepts_valid_documents() {
        for ok in VALID {
            assert!(check_json(ok).is_ok(), "{ok}");
        }
        let deepest = "[".repeat(MAX_DEPTH) + &"]".repeat(MAX_DEPTH);
        assert_eq!(check_json(&deepest), Ok(()));
    }

    #[test]
    fn rejects_invalid_documents() {
        for bad in INVALID {
            assert!(check_json(bad).is_err(), "accepted: {bad}");
        }
        // The offset is the bracket that opens level `MAX_DEPTH + 1`.
        let [arrays, objects, closed] = too_deep();
        assert_eq!(check_json(&arrays), Err(MAX_DEPTH));
        assert_eq!(check_json(&objects), Err(MAX_DEPTH * "{\"a\":".len()));
        assert_eq!(check_json(&closed), Err(MAX_DEPTH));
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
        // Offset for offset: both are the one walker.
        let deep = too_deep();
        let corpus = VALID.into_iter().chain(INVALID);
        for doc in corpus.chain(deep.iter().map(String::as_str)) {
            let shown = excerpt(doc, 0);
            assert_eq!(parse_json(doc).err(), check_json(doc).err(), "{shown}");
        }
    }

    #[test]
    fn excerpt_stops_at_character_boundaries() {
        // Byte 94 is the `]` after the trailing comma; 40 bytes before it
        // is the middle of a three-byte character.
        let doc = format!("[\"{}\",]", "€".repeat(30));
        assert_eq!(check_json(&doc), Err(94));
        assert!(!doc.is_char_boundary(94 - 40));
        assert_eq!(excerpt(&doc, 94), format!("{}\",]", "€".repeat(13)));
        let panic = std::panic::catch_unwind(|| assert_json(&doc, "doc")).unwrap_err();
        let message = panic.downcast_ref::<String>().unwrap();
        assert!(
            message.starts_with("doc: invalid JSON at byte 94: ...€"),
            "{message}"
        );
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
