//! The workspace's one JSON codec: a value tree, a strict RFC 8259
//! parser, and the writer pieces every renderer shares.
//!
//! The build has no JSON crate (the vendored `serde` shim is
//! derive-only), so reports, traces, metric snapshots, the campaign
//! journal and the service's wire protocol all read and write JSON
//! through this module.
//!
//! * **Strings.** [`write_str`] is the only escaper: `"`, `\` and
//!   control characters are escaped (`\n`, `\r`, `\t` by name, the rest
//!   as `\u00XX`), everything else is copied verbatim.
//! * **Floats.** [`Float`] is the only float formatter ([`write_f64`]
//!   appends it to a `String`): a finite value renders in Rust's shortest round-trip `Display` form (`5.0`
//!   as `5`, `0.1` as `0.1`), so parsing it back yields the same bits.
//!   JSON has no spelling for NaN or infinities; each caller names what
//!   it writes instead.
//! * **Numbers.** A token without `.`, `e` or `E` that fits `i64` or
//!   `u64` parses to an exact [`Json::Int`]; every other number parses
//!   to a finite [`Json::Num`]. Neither allocates.
//! * **Objects** are kept sorted in a `BTreeMap`, so [`Json::render`]
//!   is canonical whatever the insertion order; of duplicated keys the
//!   last one wins.

use std::collections::BTreeMap;
use std::fmt::{self, Write as _};

/// Containers nested deeper than this are rejected, so hostile input
/// cannot exhaust the parser's stack.
const MAX_DEPTH: u32 = 128;

/// A parsed JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An integer token within `i64::MIN..=u64::MAX`, held exactly.
    Int(i128),
    /// Any other number. Parsed values are always finite.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, keys sorted.
    Obj(BTreeMap<String, Json>),
}

impl Json {
    /// Builds an object from key/value pairs.
    pub fn obj(pairs: Vec<(&str, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// Parses one JSON document. Surrounding whitespace is allowed,
    /// anything else after the value is an error.
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser::new(text);
        let value = p.value()?;
        p.skip_ws();
        p.end()?;
        Ok(value)
    }

    /// The value at `key`, if this is an object holding it.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(map) => map.get(key),
            _ => None,
        }
    }

    /// The value as a string slice, if it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The items, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The value as a finite number, if it is one.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Int(i) => Some(*i as f64),
            Json::Num(x) if x.is_finite() => Some(*x),
            _ => None,
        }
    }

    /// The value as a non-negative integer: an integer token in range,
    /// or an integral number (`2e3`) no larger than `u64::MAX` as `f64`.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Int(i) => u64::try_from(*i).ok(),
            Json::Num(x) if *x >= 0.0 && x.fract() == 0.0 && *x <= u64::MAX as f64 => {
                Some(*x as u64)
            }
            _ => None,
        }
    }

    /// Renders the value as compact JSON. A non-finite `Num` renders as
    /// `null`.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Int(i) => {
                let _ = write!(out, "{i}");
            }
            Json::Num(x) => write_f64(out, *x, "null"),
            Json::Str(s) => write_str(out, s),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Obj(map) => {
                out.push('{');
                for (i, (k, v)) in map.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_str(out, k);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }
}

/// Appends `s` as a JSON string literal, quotes included.
pub fn write_str(out: &mut String, s: &str) {
    out.push('"');
    let mut run = 0;
    for (i, b) in s.bytes().enumerate() {
        let escape = match b {
            b'"' => "\\\"",
            b'\\' => "\\\\",
            b'\n' => "\\n",
            b'\r' => "\\r",
            b'\t' => "\\t",
            0..=0x1f => "",
            _ => continue,
        };
        // Every byte matched above is ASCII, so `i` is a char boundary.
        out.push_str(&s[run..i]);
        if escape.is_empty() {
            let _ = write!(out, "\\u{b:04x}");
        } else {
            out.push_str(escape);
        }
        run = i + 1;
    }
    out.push_str(&s[run..]);
    out.push('"');
}

/// Appends `x` as [`Float`] renders it.
pub fn write_f64(out: &mut String, x: f64, non_finite: &str) {
    let _ = write!(out, "{}", Float(x, non_finite));
}

/// Displays a number the one way this codec writes floats: a finite
/// value in Rust's shortest round-trip `Display` form, NaN and the
/// infinities as the given stand-in. For writers that fill a byte
/// buffer rather than a `String`.
pub struct Float<'a>(pub f64, pub &'a str);

impl fmt::Display for Float<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0.is_finite() {
            write!(f, "{}", self.0)
        } else {
            f.write_str(self.1)
        }
    }
}

/// A recursive-descent reader over one document. [`Json::parse`] is the
/// usual entry point; the cursor methods serve readers that check a
/// fixed record shape token by token.
pub struct Parser<'a> {
    src: &'a str,
    pos: usize,
    depth: u32,
}

impl<'a> Parser<'a> {
    /// A parser at the start of `src`.
    pub fn new(src: &'a str) -> Self {
        Parser {
            src,
            pos: 0,
            depth: 0,
        }
    }

    fn err(&self, msg: &str) -> String {
        format!("{msg} at byte {}", self.pos)
    }

    fn peek(&self) -> Option<u8> {
        self.src.as_bytes().get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    /// Consumes `b` if it comes next.
    fn take(&mut self, b: u8) -> bool {
        let hit = self.peek() == Some(b);
        self.pos += usize::from(hit);
        hit
    }

    /// Consumes exactly `lit`, or fails without moving.
    pub fn eat(&mut self, lit: &str) -> Result<(), String> {
        if self.src[self.pos..].starts_with(lit) {
            self.pos += lit.len();
            Ok(())
        } else {
            Err(self.err(&format!("expected {lit:?}")))
        }
    }

    /// Fails unless every byte has been consumed.
    pub fn end(&self) -> Result<(), String> {
        if self.pos == self.src.len() {
            Ok(())
        } else {
            Err(self.err("trailing bytes"))
        }
    }

    /// Parses the value at the cursor, after optional whitespace.
    fn value(&mut self) -> Result<Json, String> {
        self.skip_ws();
        match self.peek() {
            Some(b'{') => self.nested(Self::object),
            Some(b'[') => self.nested(Self::array),
            Some(b'"') => self.string().map(Json::Str),
            Some(b't') => self.eat("true").map(|()| Json::Bool(true)),
            Some(b'f') => self.eat("false").map(|()| Json::Bool(false)),
            Some(b'n') => self.eat("null").map(|()| Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    fn nested(&mut self, parse: fn(&mut Self) -> Result<Json, String>) -> Result<Json, String> {
        if self.depth == MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        self.depth += 1;
        let value = parse(self);
        self.depth -= 1;
        value
    }

    fn array(&mut self) -> Result<Json, String> {
        self.eat("[")?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.take(b']') {
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
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.eat("{")?;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.take(b'}') {
            return Ok(Json::Obj(map));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(":")?;
            let value = self.value()?;
            map.insert(key, value);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(map));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn digits(&mut self) -> usize {
        let start = self.pos;
        while self.peek().is_some_and(|b| b.is_ascii_digit()) {
            self.pos += 1;
        }
        self.pos - start
    }

    /// Parses the number at the cursor:
    /// `-?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?`.
    pub fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        let negative = self.take(b'-');
        match self.peek() {
            Some(b'0') => self.pos += 1,
            Some(b'1'..=b'9') => {
                self.digits();
            }
            _ => return Err(self.err("expected a digit")),
        }
        let mut integral = true;
        if self.take(b'.') {
            integral = false;
            if self.digits() == 0 {
                return Err(self.err("expected a fraction digit"));
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            integral = false;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            if self.digits() == 0 {
                return Err(self.err("expected an exponent digit"));
            }
        }
        let token = &self.src[start..self.pos];
        if integral {
            // `-0` stays a float so its sign survives a round trip.
            let int = if negative {
                token
                    .parse::<i64>()
                    .ok()
                    .filter(|&i| i != 0)
                    .map(i128::from)
            } else {
                token.parse::<u64>().ok().map(i128::from)
            };
            if let Some(i) = int {
                return Ok(Json::Int(i));
            }
        }
        match token.parse::<f64>() {
            Ok(x) if x.is_finite() => Ok(Json::Num(x)),
            _ => Err(format!("number {token} out of range at byte {start}")),
        }
    }

    /// Parses the string literal at the cursor. Each run of plain
    /// characters is copied in one step.
    pub fn string(&mut self) -> Result<String, String> {
        self.eat("\"")?;
        let bytes = self.src.as_bytes();
        let mut out = String::new();
        loop {
            let run = self.pos;
            while bytes
                .get(self.pos)
                .is_some_and(|&b| b != b'"' && b != b'\\' && b >= 0x20)
            {
                self.pos += 1;
            }
            // The run stops at an ASCII byte or the end, both char
            // boundaries.
            out.push_str(&self.src[run..self.pos]);
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let escape = self.peek();
                    self.pos += 1;
                    match escape {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => out.push(self.unicode_escape()?),
                        _ => return Err(self.err("bad escape")),
                    }
                }
                Some(_) => return Err(self.err("control character in string")),
                None => return Err(self.err("unterminated string")),
            }
        }
    }

    /// The scalar after `\u`: a BMP code point, or a high surrogate
    /// followed by `\u` and its low half.
    fn unicode_escape(&mut self) -> Result<char, String> {
        let hi = self.hex4()?;
        let code = match hi {
            0xD800..=0xDBFF => {
                self.eat("\\u")
                    .map_err(|_| self.err("lone high surrogate"))?;
                let lo = self.hex4()?;
                if !(0xDC00..=0xDFFF).contains(&lo) {
                    return Err(self.err("lone high surrogate"));
                }
                0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00)
            }
            0xDC00..=0xDFFF => return Err(self.err("lone low surrogate")),
            _ => hi,
        };
        Ok(char::from_u32(code).expect("surrogates are excluded above"))
    }

    fn hex4(&mut self) -> Result<u32, String> {
        let bytes = self.src.as_bytes();
        let digits = bytes
            .get(self.pos..self.pos + 4)
            .ok_or_else(|| self.err("truncated \\u escape"))?;
        let mut code = 0;
        for &d in digits {
            let v = char::from(d)
                .to_digit(16)
                .ok_or_else(|| self.err("bad \\u escape"))?;
            code = code * 16 + v;
        }
        self.pos += 4;
        Ok(code)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn s(text: &str) -> Json {
        Json::Str(text.to_string())
    }

    /// Every behaviour on which the former per-crate copies disagreed,
    /// plus the grammar's edges: `Some(v)` parses to `v`, `None` is
    /// rejected.
    #[test]
    fn the_grammar_table() {
        let nest = |n: usize| format!("{}{}", "[".repeat(n), "]".repeat(n));
        let deepest = (1..MAX_DEPTH).fold(Json::Arr(vec![]), |inner, _| Json::Arr(vec![inner]));
        let (deep_ok, too_deep) = (nest(MAX_DEPTH as usize), nest(MAX_DEPTH as usize + 1));
        let cases: Vec<(&str, Option<Json>)> = vec![
            // Strings and escapes.
            (r#""\b\f""#, Some(s("\u{8}\u{c}"))),
            (r#""\"\\\/\n\r\t""#, Some(s("\"\\/\n\r\t"))),
            (r#""é\u0001""#, Some(s("é\u{1}"))),
            (r#""😀""#, Some(s("😀"))),
            (r#""\u00e9\ud83d\ude00""#, Some(s("é😀"))),
            (
                r#""\uD800\uDC00\uDBFF\uDFFF""#,
                Some(s("\u{10000}\u{10FFFF}")),
            ),
            ("\"π · 😀\"", Some(s("π · 😀"))),
            ("\"a\u{1}b\"", None),
            ("\"a\nb\"", None),
            (r#""\ud83d""#, None),
            (r#""\ud83dx""#, None),
            (r#""\ud83dA""#, None),
            (r#""\ude00""#, None),
            (r#""\x""#, None),
            (r#""\u12g4""#, None),
            (r#""\u+123""#, None),
            (r#""\u12""#, None),
            ("\"abc", None),
            // Numbers.
            ("0", Some(Json::Int(0))),
            ("-7", Some(Json::Int(-7))),
            ("-0", Some(Json::Num(-0.0))),
            ("2.5", Some(Json::Num(2.5))),
            ("1.5e3", Some(Json::Num(1500.0))),
            ("1E-2", Some(Json::Num(0.01))),
            ("18446744073709551615", Some(Json::Int(u64::MAX.into()))),
            ("-9223372036854775808", Some(Json::Int(i64::MIN.into()))),
            (
                "18446744073709551616",
                Some(Json::Num(18446744073709551616.0)),
            ),
            (
                "-9223372036854775809",
                Some(Json::Num(-9223372036854775809.0)),
            ),
            ("+5", None),
            ("01", None),
            ("-", None),
            ("1.", None),
            (".5", None),
            ("1e", None),
            ("1e+", None),
            ("1e999", None),
            ("-1e999", None),
            // Structure.
            (
                " [1 , 2.5,\"x\",null,true,false,{}] ",
                Some(Json::Arr(vec![
                    Json::Int(1),
                    Json::Num(2.5),
                    s("x"),
                    Json::Null,
                    Json::Bool(true),
                    Json::Bool(false),
                    Json::Obj(BTreeMap::new()),
                ])),
            ),
            (
                r#"{"a":1,"a":2}"#,
                Some(Json::obj(vec![("a", Json::Int(2))])),
            ),
            (&deep_ok, Some(deepest)),
            (&too_deep, None),
            ("", None),
            ("nul", None),
            ("{", None),
            ("{\"a\":}", None),
            ("{\"a\" 1}", None),
            ("{a:1}", None),
            ("[1,]", None),
            ("[1 2]", None),
            ("{} extra", None),
            ("1 2", None),
        ];
        for (text, want) in cases {
            let got = Json::parse(text);
            match want {
                Some(want) => assert_eq!(got, Ok(want), "{text:?}"),
                None => assert!(got.is_err(), "{text:?} parsed as {got:?}"),
            }
        }
    }

    #[test]
    fn accessors_are_type_checked() {
        let v = Json::parse(
            r#"{"n":3,"max":18446744073709551615,"wrap":18446744073709551616,
                "neg":-1,"f":2.5,"e":2e3,"s":"x","a":[1],"o":{"c":-1.5}}"#,
        )
        .expect("parse");
        let get = |key| v.get(key).expect("present");
        assert_eq!(get("n").as_u64(), Some(3));
        assert_eq!(get("max").as_u64(), Some(u64::MAX));
        // Ids past 2^53 travel as f64; 2^64 is where u64::MAX lands.
        assert_eq!(get("wrap").as_u64(), Some(u64::MAX));
        assert_eq!(get("neg").as_u64(), None);
        assert_eq!(get("f").as_u64(), None);
        assert_eq!(get("e").as_u64(), Some(2000));
        assert_eq!(get("n").as_f64(), Some(3.0));
        assert_eq!(get("f").as_f64(), Some(2.5));
        assert_eq!(get("s").as_str(), Some("x"));
        assert_eq!(get("s").as_f64(), None);
        assert_eq!(get("a").as_arr(), Some(&[Json::Int(1)][..]));
        assert!(v.get("missing").is_none());
        assert!(get("n").get("n").is_none());
        assert_eq!(get("o").get("c").and_then(Json::as_f64), Some(-1.5));
        // A non-finite number never comes out of `as_f64`.
        assert_eq!(Json::Num(f64::INFINITY).as_f64(), None);
        assert_eq!(Json::Num(f64::NAN).as_f64(), None);
    }

    #[test]
    fn the_writer_pins_its_bytes() {
        let mut out = String::new();
        write_str(&mut out, "a\"b\\c\nd\re\tf\u{1}\u{8}\u{c}\u{1f} π😀");
        assert_eq!(out, r#""a\"b\\c\nd\re\tf\u0001\u0008\u000c\u001f π😀""#);
        for (x, want) in [
            (5.0, "5"),
            (0.1, "0.1"),
            (-2.5, "-2.5"),
            (1e21, "1000000000000000000000"),
            (1e-7, "0.0000001"),
            (f64::NAN, "null"),
            (f64::NEG_INFINITY, "null"),
        ] {
            let mut out = String::new();
            write_f64(&mut out, x, "null");
            assert_eq!(out, want);
        }
        let v = Json::obj(vec![
            ("z", Json::Int(1)),
            ("a", Json::Num(2.0)),
            ("m", Json::Arr(vec![Json::Null, Json::Bool(true), s("q\"")])),
        ]);
        assert_eq!(v.render(), r#"{"a":2,"m":[null,true,"q\""],"z":1}"#);
    }

    proptest! {
        #[test]
        fn render_then_parse_is_the_identity(
            bits in 0..=u64::MAX,
            u in 0..=u64::MAX,
            i in i64::MIN..=i64::MAX,
            text in ".{0,24}",
        ) {
            let x = f64::from_bits(bits);
            if x.is_finite() {
                let back = Json::parse(&Json::Num(x).render()).expect("finite renders");
                prop_assert_eq!(back.as_f64().map(f64::to_bits), Some(bits));
            }
            let doc = Json::obj(vec![
                ("s", Json::Str(text.clone())),
                ("u", Json::Arr(vec![Json::Int(u.into()), Json::Int(u64::MAX.into())])),
                ("i", Json::Arr(vec![Json::Int(i.into()), Json::Int(i64::MIN.into())])),
                (text.as_str(), Json::Null),
            ]);
            prop_assert_eq!(Json::parse(&doc.render()), Ok(doc));
        }
    }
}
