//! The workspace's JSON codec: a streaming writer, a parser, and a typed
//! reader.
//!
//! The workspace has no serde. Exporters and the checkpoint writer stream
//! JSON through [`write_str`], [`write_f64`], [`write_int`] and
//! [`write_opt`]; readers [`parse`] a document into a [`Json`] tree and
//! destructure its objects with [`fields`], whose errors name every
//! missing, extra or mistyped field. Integer literals parse to the exact
//! [`Json::Int`], so `u64` seeds and hash draws survive a round trip.
//! Objects preserve key order as `Vec<(String, Json)>` pairs — the
//! determinism lint bans `HashMap`, and ordered pairs keep emitted and
//! re-parsed documents byte-stable anyway.

use std::fmt::Write as _;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// A number with a fraction or an exponent, or an integer literal
    /// beyond the `i128` range.
    Num(f64),
    /// An integer literal (no fraction, no exponent), exactly.
    Int(i128),
    /// String (unescaped).
    Str(String),
    /// Array.
    Arr(Vec<Json>),
    /// Object as ordered key/value pairs.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Looks up a key in an object; `None` for missing keys or non-objects.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The array elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
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

    /// The numeric value of either number variant (integers beyond 2^53
    /// round to the nearest `f64`).
    pub fn as_num(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            Json::Int(n) => Some(*n as f64),
            _ => None,
        }
    }

    /// The exact value of an integer literal within the `u64` range.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Int(n) => u64::try_from(*n).ok(),
            _ => None,
        }
    }

    /// The exact value of an integer literal within the `i64` range.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Json::Int(n) => i64::try_from(*n).ok(),
            _ => None,
        }
    }

    /// JSON type name used in validation error messages.
    pub fn type_name(&self) -> &'static str {
        match self {
            Json::Null => "null",
            Json::Bool(_) => "boolean",
            Json::Num(_) => "number",
            Json::Int(_) => "integer",
            Json::Str(_) => "string",
            Json::Arr(_) => "array",
            Json::Obj(_) => "object",
        }
    }
}

/// Appends `s` to `out` with JSON string escaping (no surrounding quotes).
pub fn escape_into(out: &mut String, s: &str) {
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
}

/// Writes a quoted, escaped JSON string.
pub fn write_str(out: &mut String, s: &str) {
    out.push('"');
    escape_into(out, s);
    out.push('"');
}

/// Writes an `f64` as JSON: integral values without a fractional part,
/// non-finite values as `null` (JSON has no NaN/Inf).
pub fn write_f64(out: &mut String, v: f64) {
    if !v.is_finite() {
        out.push_str("null");
    } else if v == v.trunc() && v.abs() < 9e15 {
        let _ = write!(out, "{}", v as i64);
    } else {
        let _ = write!(out, "{v}");
    }
}

/// Writes an integer exactly.
pub fn write_int(out: &mut String, v: impl Into<i128>) {
    let _ = write!(out, "{}", v.into());
}

/// Writes `v` with `write`, or `null` when it is absent.
pub fn write_opt<T>(out: &mut String, v: Option<T>, write: impl FnOnce(&mut String, T)) {
    match v {
        Some(v) => write(out, v),
        None => out.push_str("null"),
    }
}

/// Serializes a [`Json`] value compactly (no whitespace), preserving object
/// key order. Floats go through [`write_f64`] and integers print exactly,
/// so a document the workspace's exporters produced re-serializes
/// byte-identically after [`parse`] — the round-trip property the report
/// tests assert.
pub fn write_value(out: &mut String, v: &Json) {
    match v {
        Json::Null => out.push_str("null"),
        Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Json::Num(n) => write_f64(out, *n),
        Json::Int(n) => write_int(out, *n),
        Json::Str(s) => write_str(out, s),
        Json::Arr(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_value(out, item);
            }
            out.push(']');
        }
        Json::Obj(pairs) => {
            out.push('{');
            for (i, (k, val)) in pairs.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_str(out, k);
                out.push(':');
                write_value(out, val);
            }
            out.push('}');
        }
    }
}

/// [`write_value`] into a fresh string.
pub fn to_string(v: &Json) -> String {
    let mut out = String::new();
    write_value(&mut out, v);
    out
}

/// The deepest array/object nesting [`parse`] accepts. The deepest documents
/// the workspace writes are run reports, whose span tree nests 16 levels
/// deep for a 2-way run and 24 at k = 8, plus two per further doubling of k
/// (34 at k = 256, measured on `syn-balu`); even k = 2^20 stays under 60.
/// The bound keeps a hostile file from overflowing the parser's stack.
pub const MAX_DEPTH: usize = 128;

/// Parses a JSON document. Returns an error message with a byte offset on
/// malformed input; trailing non-whitespace after the value is an error,
/// and so is nesting deeper than [`MAX_DEPTH`].
pub fn parse(input: &str) -> Result<Json, String> {
    let mut p = Parser {
        s: input,
        pos: 0,
        depth: 0,
    };
    let value = p.value()?;
    p.skip_ws();
    if p.pos != input.len() {
        return Err(format!("trailing data at byte {}", p.pos));
    }
    Ok(value)
}

/// Recursive-descent parser over `s`; `pos` is always a char boundary.
struct Parser<'a> {
    s: &'a str,
    pos: usize,
    depth: usize,
}

impl Parser<'_> {
    fn peek(&self) -> Option<u8> {
        self.s.as_bytes().get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, c: u8) -> Result<(), String> {
        if self.peek() == Some(c) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", c as char, self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        self.skip_ws();
        match self.peek() {
            None => Err("unexpected end of input".to_string()),
            Some(b'{' | b'[') if self.depth == MAX_DEPTH => Err(format!(
                "nesting deeper than {MAX_DEPTH} levels at byte {}",
                self.pos
            )),
            Some(b'{') => self.nested(Self::obj),
            Some(b'[') => self.nested(Self::arr),
            Some(b'"') => self.string().map(Json::Str),
            Some(b't') => self.lit("true", Json::Bool(true)),
            Some(b'f') => self.lit("false", Json::Bool(false)),
            Some(b'n') => self.lit("null", Json::Null),
            Some(_) => self.number(),
        }
    }

    fn nested(&mut self, body: fn(&mut Self) -> Result<Json, String>) -> Result<Json, String> {
        self.depth += 1;
        let value = body(self);
        self.depth -= 1;
        value
    }

    fn lit(&mut self, lit: &str, value: Json) -> Result<Json, String> {
        if self.s[self.pos..].starts_with(lit) {
            self.pos += lit.len();
            Ok(value)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    /// Skips a run of ASCII digits, reporting whether there was one.
    fn digits(&mut self) -> bool {
        let start = self.pos;
        while self.peek().is_some_and(|b| b.is_ascii_digit()) {
            self.pos += 1;
        }
        self.pos > start
    }

    /// A number in the RFC 8259 grammar: [`Json::Int`] when it has neither
    /// fraction nor exponent and fits `i128`, else [`Json::Num`].
    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        let bad = || format!("invalid number at byte {start}");
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let int_start = self.pos;
        let leading_zero = self.peek() == Some(b'0');
        if !self.digits() || (leading_zero && self.pos > int_start + 1) {
            return Err(bad());
        }
        let mut integral = true;
        if self.peek() == Some(b'.') {
            self.pos += 1;
            integral = false;
            if !self.digits() {
                return Err(bad());
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            integral = false;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            if !self.digits() {
                return Err(bad());
            }
        }
        let text = &self.s[start..self.pos];
        match text.parse::<i128>() {
            Ok(n) if integral => Ok(Json::Int(n)),
            _ => text.parse::<f64>().map(Json::Num).map_err(|_| bad()),
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            // Copy the run up to the next quote or escape in one piece; both
            // are ASCII, so the run ends on a char boundary.
            let rest = &self.s[self.pos..];
            let run = rest.find(['"', '\\']).unwrap_or(rest.len());
            out.push_str(&rest[..run]);
            self.pos += run;
            match self.peek() {
                None => return Err("unterminated string".to_string()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                _ => {
                    let at = self.pos;
                    self.pos += 2;
                    out.push(match self.s.as_bytes().get(at + 1) {
                        Some(b'"') => '"',
                        Some(b'\\') => '\\',
                        Some(b'/') => '/',
                        Some(b'n') => '\n',
                        Some(b'r') => '\r',
                        Some(b't') => '\t',
                        Some(b'b') => '\u{8}',
                        Some(b'f') => '\u{c}',
                        Some(b'u') => self.unicode_escape(at)?,
                        _ => return Err(format!("bad escape at byte {at}")),
                    });
                }
            }
        }
    }

    /// The four hex digits after `\u`, which must name a Unicode scalar
    /// value: surrogates are rejected, never recombined (the writer emits
    /// `\u` only for control characters).
    fn unicode_escape(&mut self, at: usize) -> Result<char, String> {
        let hex = self
            .s
            .get(self.pos..self.pos + 4)
            .filter(|h| h.bytes().all(|b| b.is_ascii_hexdigit()))
            .ok_or_else(|| format!("bad \\u escape at byte {at}"))?;
        self.pos += 4;
        u32::from_str_radix(hex, 16)
            .ok()
            .and_then(char::from_u32)
            .ok_or_else(|| format!("\\u{hex} at byte {at} is not a Unicode scalar value"))
    }

    fn arr(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    fn obj(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            let value = self.value()?;
            pairs.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(pairs));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }
}

/// Destructures object `v` into its values for exactly `keys`, in `keys`
/// order. Any other key, a repeated key, a missing key or a non-object is
/// an error naming it.
pub fn fields<'a, const N: usize>(
    v: &'a Json,
    keys: [&'a str; N],
) -> Result<[Field<'a>; N], String> {
    let Json::Obj(pairs) = v else {
        return Err(format!("expected an object, found {}", describe(v)));
    };
    for (i, (key, _)) in pairs.iter().enumerate() {
        if !keys.contains(&key.as_str()) {
            return Err(format!("unexpected field {key:?}"));
        }
        if pairs[..i].iter().any(|(k, _)| k == key) {
            return Err(format!("duplicate field {key:?}"));
        }
    }
    if let Some(key) = keys.iter().find(|k| v.get(k).is_none()) {
        return Err(format!("missing field {key:?}"));
    }
    Ok(keys.map(|key| Field {
        key,
        value: v.get(key).unwrap_or(&Json::Null),
    }))
}

/// A value for error messages: scalars as written (floats keep a `.0`),
/// strings, arrays and objects by type.
pub(crate) fn describe(v: &Json) -> String {
    match v {
        Json::Null => "null".to_string(),
        Json::Bool(b) => b.to_string(),
        Json::Int(n) => n.to_string(),
        Json::Num(n) => format!("{n:?}"),
        Json::Str(_) => "a string".to_string(),
        Json::Arr(_) => "an array".to_string(),
        Json::Obj(_) => "an object".to_string(),
    }
}

/// One value of an object destructured by [`fields`]. Its typed readers
/// name the field in every error.
#[derive(Debug, Clone, Copy)]
pub struct Field<'a> {
    /// The field's key.
    pub key: &'a str,
    /// The field's value.
    pub value: &'a Json,
}

impl<'a> Field<'a> {
    fn want<T>(self, what: &str, got: Option<T>) -> Result<T, String> {
        got.ok_or_else(|| {
            format!(
                "{}: expected {what}, found {}",
                self.key,
                describe(self.value)
            )
        })
    }

    /// An integer literal that fits `T` exactly.
    pub fn int<T: TryFrom<i128>>(self) -> Result<T, String> {
        let got = match self.value {
            Json::Int(n) => T::try_from(*n).ok(),
            _ => None,
        };
        self.want(std::any::type_name::<T>(), got)
    }

    /// A boolean.
    pub fn bool(self) -> Result<bool, String> {
        let got = match self.value {
            Json::Bool(b) => Some(*b),
            _ => None,
        };
        self.want("a boolean", got)
    }

    /// A string.
    pub fn str(self) -> Result<&'a str, String> {
        self.want("a string", self.value.as_str())
    }

    /// An array's elements, each as a field under this key, so that their
    /// readers name the array in errors.
    pub fn items(self) -> Result<impl Iterator<Item = Field<'a>>, String> {
        let key = self.key;
        let items = self.want("an array", self.value.as_arr())?;
        Ok(items.iter().map(move |value| Field { key, value }))
    }

    /// An object's key/value pairs, in order.
    pub fn obj(self) -> Result<&'a [(String, Json)], String> {
        let got = match self.value {
            Json::Obj(pairs) => Some(pairs.as_slice()),
            _ => None,
        };
        self.want("an object", got)
    }

    /// `None` for `null`, else the value as `read` takes it.
    pub fn opt<T>(self, read: impl FnOnce(Self) -> Result<T, String>) -> Result<Option<T>, String> {
        match self.value {
            Json::Null => Ok(None),
            _ => read(self).map(Some),
        }
    }

    /// [`fields`] of this field's object, with errors prefixed by its key.
    pub fn fields<const N: usize>(self, keys: [&'a str; N]) -> Result<[Field<'a>; N], String> {
        fields(self.value, keys).map_err(|e| format!("{}: {e}", self.key))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_nested_document() {
        let doc = r#"{"a": [1, 2.5, -3], "b": {"c": "x\ny", "d": true}, "e": null}"#;
        let v = parse(doc).unwrap();
        assert_eq!(v.get("a").unwrap().as_arr().unwrap().len(), 3);
        assert_eq!(v.get("a").unwrap().as_arr().unwrap()[2], Json::Int(-3));
        assert_eq!(v.get("a").unwrap().as_arr().unwrap()[1], Json::Num(2.5));
        assert_eq!(v.get("b").unwrap().get("c").unwrap().as_str(), Some("x\ny"));
        assert_eq!(v.get("b").unwrap().get("d"), Some(&Json::Bool(true)));
        assert_eq!(v.get("e"), Some(&Json::Null));
    }

    #[test]
    fn integers_are_exact_and_floats_stay_floats() {
        let v = parse("[18446744073709551615,-9223372036854775808,9007199254740993,1.0,1e2,-0]")
            .unwrap();
        let items = v.as_arr().unwrap();
        assert_eq!(items[0].as_u64(), Some(u64::MAX));
        assert_eq!(items[0].as_i64(), None);
        assert_eq!(items[1].as_i64(), Some(i64::MIN));
        assert_eq!(items[1].as_u64(), None);
        assert_eq!(items[2].as_u64(), Some(9_007_199_254_740_993));
        assert_eq!(items[3], Json::Num(1.0));
        assert_eq!(items[3].as_u64(), None);
        assert_eq!(items[4].as_num(), Some(100.0));
        assert_eq!(items[5], Json::Int(0));
        // Integers beyond i128 fall back to the nearest f64.
        let huge = format!("1{}", "0".repeat(40));
        assert_eq!(parse(&huge).unwrap(), Json::Num(1e40));
        assert_eq!(to_string(&parse(&huge).unwrap()), huge);
    }

    #[test]
    fn escape_round_trips() {
        let original = "quote \" backslash \\ newline \n tab \t ctrl \u{1} unicode é";
        let mut buf = String::new();
        write_str(&mut buf, original);
        let parsed = parse(&buf).unwrap();
        assert_eq!(parsed.as_str(), Some(original));
        assert_eq!(
            parse(r#""\u00e9\/\b\f""#).unwrap().as_str(),
            Some("é/\u{8}\u{c}")
        );
    }

    #[test]
    fn rejects_malformed() {
        for bad in [
            "{",
            "[1,]",
            "{\"a\" 1}",
            "1 2",
            "",
            "01",
            "-",
            "1.",
            ".5",
            "1e",
            "+1",
            "1.5e+",
            "\"\\x\"",
            "\"\\u12\"",
            "\"\\u+123\"",
            "\"abc",
            "tru",
            "[1 2]",
        ] {
            assert!(parse(bad).is_err(), "{bad:?} parsed");
        }
    }

    #[test]
    fn rejects_escapes_that_are_not_scalar_values() {
        for bad in [r#""\ud800""#, r#""\udfff""#, r#""\ud83d\ude00""#] {
            let e = parse(bad).expect_err(bad);
            assert!(e.contains("not a Unicode scalar value"), "{e}");
        }
        assert_eq!(
            parse(r#""\ud7ff\ue000""#).unwrap().as_str(),
            Some("\u{d7ff}\u{e000}")
        );
    }

    #[test]
    fn nesting_is_bounded_without_overflowing_the_stack() {
        let ok = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(parse(&ok).is_ok());
        let deep = format!("{}{}", "[".repeat(MAX_DEPTH + 1), "]".repeat(MAX_DEPTH + 1));
        assert!(parse(&deep)
            .expect_err("too deep")
            .contains("nesting deeper"));
        let objs = "{\"a\":".repeat(MAX_DEPTH + 1);
        assert!(parse(&objs)
            .expect_err("too deep")
            .contains("nesting deeper"));
        let e = parse(&"[".repeat(1_000_000)).expect_err("too deep");
        assert!(e.contains("nesting deeper"), "{e}");
    }

    #[test]
    fn compact_documents_round_trip_bytewise() {
        let doc = r#"{"a":[1,2.5,-3],"b":{"c":"x\ny","d":true},"e":null,"f":[],"g":18446744073709551615}"#;
        let parsed = parse(doc).unwrap();
        assert_eq!(to_string(&parsed), doc);
        let again = parse(&to_string(&parsed)).unwrap();
        assert_eq!(again, parsed);
    }

    #[test]
    fn write_f64_formats() {
        let mut s = String::new();
        write_f64(&mut s, 3.0);
        assert_eq!(s, "3");
        s.clear();
        write_f64(&mut s, 0.35);
        assert_eq!(s, "0.35");
        s.clear();
        write_f64(&mut s, f64::NAN);
        assert_eq!(s, "null");
        s.clear();
        write_opt(&mut s, Some(u64::MAX), write_int);
        s.push(',');
        write_opt(&mut s, None::<&str>, write_str);
        assert_eq!(s, "18446744073709551615,null");
    }

    #[test]
    fn fields_name_every_missing_extra_or_mistyped_field() {
        let doc = parse(r#"{"n":7,"s":"x","o":{"b":true},"z":null}"#).unwrap();
        let [n, s, o, z] = fields(&doc, ["n", "s", "o", "z"]).unwrap();
        assert_eq!(n.int::<u32>(), Ok(7));
        assert_eq!(s.str(), Ok("x"));
        let [b] = o.fields(["b"]).unwrap();
        assert_eq!(b.bool(), Ok(true));
        assert_eq!(z.opt(Field::int::<u64>), Ok(None));
        assert_eq!(n.opt(Field::int::<u64>), Ok(Some(7)));

        assert_eq!(
            fields(&doc, ["n", "s", "o", "y"]).map(|_| ()).unwrap_err(),
            "unexpected field \"z\""
        );
        let missing = parse(r#"{"n":7}"#).unwrap();
        assert_eq!(
            fields(&missing, ["n", "s"]).map(|_| ()).unwrap_err(),
            "missing field \"s\""
        );
        let dup = parse(r#"{"n":7,"n":8}"#).unwrap();
        assert_eq!(
            fields(&dup, ["n"]).map(|_| ()).unwrap_err(),
            "duplicate field \"n\""
        );
        assert_eq!(
            fields(&Json::Int(1), ["n"]).map(|_| ()).unwrap_err(),
            "expected an object, found 1"
        );
        assert_eq!(
            o.fields(["c"]).map(|_| ()).unwrap_err(),
            "o: unexpected field \"b\""
        );
        assert_eq!(
            s.int::<u64>().unwrap_err(),
            "s: expected u64, found a string"
        );
        let neg = Field {
            key: "part",
            value: &Json::Int(-1),
        };
        assert_eq!(
            neg.int::<u32>().unwrap_err(),
            "part: expected u32, found -1"
        );
        let float = Field {
            key: "cut",
            value: &Json::Num(1.0),
        };
        assert_eq!(
            float.int::<u64>().unwrap_err(),
            "cut: expected u64, found 1.0"
        );
        assert_eq!(n.bool().unwrap_err(), "n: expected a boolean, found 7");
    }
}
