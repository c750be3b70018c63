//! # serde (shim) — JSON-backed serialization for an offline workspace
//!
//! The build environment cannot reach crates.io, so this crate provides
//! the serialization surface the workspace needs with zero external
//! dependencies. The model is deliberately concrete: values serialize to
//! an explicit [`Json`] tree, which renders to a deterministic string and
//! parses back exactly. `#[derive(Serialize)]` / `#[derive(Deserialize)]`
//! come from the companion `serde_derive` proc-macro crate and support
//! named structs, tuple structs, and enums with unit/tuple/struct
//! variants (externally tagged, like real serde).
//!
//! Determinism guarantees (the `simrunner` result cache depends on them):
//!
//! * object fields render in declaration order, never sorted or hashed;
//! * `f64` values render via Rust's shortest-roundtrip `Display`, so
//!   parse(render(x)) == x bit-for-bit for finite values (except `-0.0`,
//!   which renders as `0`);
//! * non-finite floats render as `null` and parse back as NaN.
//!
//! Parsing treats its input as untrusted (cache entries and shard
//! manifests come from disk): it runs in linear time, nests at most
//! [`MAX_DEPTH`] arrays/objects deep, and answers `None`, never a panic,
//! on malformed input.

#![forbid(unsafe_code)]

pub use serde_derive::{Deserialize, Serialize};

use std::fmt::Write as _;
use std::time::Duration;

/// How deeply arrays and objects may nest in a parsed document. The
/// repository's own documents nest at most 4 deep; the bound keeps a
/// hostile document from overflowing the stack, which would abort the
/// process rather than unwind.
pub const MAX_DEPTH: usize = 128;

/// A JSON value tree.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number (stored as `f64`; exact for integers below 2^53).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; field order is preserved.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Borrow as an object's field list.
    pub fn as_obj(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(o) => Some(o),
            _ => None,
        }
    }

    /// Borrow as an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(a) => Some(a),
            _ => None,
        }
    }

    /// Borrow as a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Numeric value, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(x) => Some(*x),
            _ => None,
        }
    }

    /// Look up a field in an object's field list.
    pub fn field<'a>(obj: &'a [(String, Json)], name: &str) -> Option<&'a Json> {
        obj.iter().find(|(k, _)| k == name).map(|(_, v)| v)
    }

    /// Render to a compact, deterministic JSON string.
    pub fn render(&self) -> String {
        let mut s = String::new();
        self.render_into(&mut s);
        s
    }

    fn render_into(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(x) => render_num(*x, out),
            Json::Str(s) => render_str(s, out),
            Json::Arr(a) => {
                out.push('[');
                for (i, v) in a.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    v.render_into(out);
                }
                out.push(']');
            }
            Json::Obj(o) => {
                out.push('{');
                for (i, (k, v)) in o.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    render_str(k, out);
                    out.push(':');
                    v.render_into(out);
                }
                out.push('}');
            }
        }
    }

    /// Parse a JSON string. Returns `None` on any syntax error, trailing
    /// garbage, or nesting deeper than [`MAX_DEPTH`].
    pub fn parse(text: &str) -> Option<Json> {
        let bytes = text.as_bytes();
        let mut pos = 0usize;
        let v = parse_value(bytes, &mut pos, MAX_DEPTH)?;
        skip_ws(bytes, &mut pos);
        if pos == bytes.len() {
            Some(v)
        } else {
            None
        }
    }
}

fn render_num(x: f64, out: &mut String) {
    if !x.is_finite() {
        out.push_str("null");
    } else if x == x.trunc() && x.abs() < 9.007_199_254_740_992e15 {
        // Integral and exactly representable: render without a fraction.
        let _ = write!(out, "{}", x as i64);
    } else {
        // Rust's Display for f64 is shortest-roundtrip.
        let _ = write!(out, "{x}");
    }
}

fn render_str(s: &str, out: &mut String) {
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

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn eat(b: &[u8], pos: &mut usize, lit: &str) -> Option<()> {
    if b[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Some(())
    } else {
        None
    }
}

/// Parse one value; `depth` is how many more arrays/objects may open.
fn parse_value(b: &[u8], pos: &mut usize, depth: usize) -> Option<Json> {
    skip_ws(b, pos);
    match *b.get(*pos)? {
        b'n' => {
            eat(b, pos, "null")?;
            Some(Json::Null)
        }
        b't' => {
            eat(b, pos, "true")?;
            Some(Json::Bool(true))
        }
        b'f' => {
            eat(b, pos, "false")?;
            Some(Json::Bool(false))
        }
        b'"' => parse_string(b, pos).map(Json::Str),
        b'[' => {
            let depth = depth.checked_sub(1)?;
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b']') {
                *pos += 1;
                return Some(Json::Arr(items));
            }
            loop {
                items.push(parse_value(b, pos, depth)?);
                skip_ws(b, pos);
                match b.get(*pos)? {
                    b',' => *pos += 1,
                    b']' => {
                        *pos += 1;
                        return Some(Json::Arr(items));
                    }
                    _ => return None,
                }
            }
        }
        b'{' => {
            let depth = depth.checked_sub(1)?;
            *pos += 1;
            let mut fields = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Some(Json::Obj(fields));
            }
            loop {
                skip_ws(b, pos);
                let key = parse_string(b, pos)?;
                skip_ws(b, pos);
                if b.get(*pos) != Some(&b':') {
                    return None;
                }
                *pos += 1;
                let val = parse_value(b, pos, depth)?;
                fields.push((key, val));
                skip_ws(b, pos);
                match b.get(*pos)? {
                    b',' => *pos += 1,
                    b'}' => {
                        *pos += 1;
                        return Some(Json::Obj(fields));
                    }
                    _ => return None,
                }
            }
        }
        _ => parse_number(b, pos),
    }
}

fn parse_string(b: &[u8], pos: &mut usize) -> Option<String> {
    if b.get(*pos) != Some(&b'"') {
        return None;
    }
    *pos += 1;
    let mut s = String::new();
    loop {
        match *b.get(*pos)? {
            b'"' => {
                *pos += 1;
                return Some(s);
            }
            b'\\' => {
                *pos += 1;
                match *b.get(*pos)? {
                    b'"' => s.push('"'),
                    b'\\' => s.push('\\'),
                    b'/' => s.push('/'),
                    b'n' => s.push('\n'),
                    b'r' => s.push('\r'),
                    b't' => s.push('\t'),
                    b'b' => s.push('\u{8}'),
                    b'f' => s.push('\u{c}'),
                    b'u' => {
                        let hex = std::str::from_utf8(b.get(*pos + 1..*pos + 5)?).ok()?;
                        let cp = u32::from_str_radix(hex, 16).ok()?;
                        s.push(char::from_u32(cp)?);
                        *pos += 4;
                    }
                    _ => return None,
                }
                *pos += 1;
            }
            _ => {
                // Consume the run of plain characters up to the next quote
                // or escape. Both are ASCII, so they never fall inside a
                // multi-byte character, and the run is valid UTF-8 on its
                // own; validating just the run keeps parsing linear.
                let start = *pos;
                while *pos < b.len() && !matches!(b[*pos], b'"' | b'\\') {
                    *pos += 1;
                }
                s.push_str(std::str::from_utf8(&b[start..*pos]).ok()?);
            }
        }
    }
}

fn parse_number(b: &[u8], pos: &mut usize) -> Option<Json> {
    let start = *pos;
    if b.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    while *pos < b.len() && matches!(b[*pos], b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-') {
        *pos += 1;
    }
    if *pos == start {
        return None;
    }
    std::str::from_utf8(&b[start..*pos])
        .ok()?
        .parse::<f64>()
        .ok()
        .map(Json::Num)
}

/// Serialize a value into a [`Json`] tree.
pub trait Serialize {
    /// Convert to a JSON value.
    fn to_json(&self) -> Json;
}

/// Reconstruct a value from a [`Json`] tree.
pub trait Deserialize: Sized {
    /// Convert from a JSON value; `None` on shape mismatch.
    fn from_json(v: &Json) -> Option<Self>;
}

/// Render any serializable value to a JSON string.
pub fn to_string<T: Serialize + ?Sized>(v: &T) -> String {
    v.to_json().render()
}

/// Parse a JSON string into a deserializable value.
pub fn from_str<T: Deserialize>(s: &str) -> Option<T> {
    Json::parse(s).and_then(|j| T::from_json(&j))
}

macro_rules! impl_int {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_json(&self) -> Json {
                Json::Num(*self as f64)
            }
        }
        impl Deserialize for $t {
            /// An integral number within the type's range; anything else
            /// (fractions, out-of-range or non-finite values) is refused
            /// rather than saturated. `MAX as f64 + 1.0` is the exclusive
            /// upper bound: exact for narrow types, and for 64-bit types
            /// it rounds to the power of two just past `MAX`.
            fn from_json(v: &Json) -> Option<Self> {
                let x = v.as_f64()?;
                let in_range = x >= <$t>::MIN as f64 && x < <$t>::MAX as f64 + 1.0;
                (in_range && x == x.trunc()).then_some(x as $t)
            }
        }
    )*};
}

impl_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Serialize for f64 {
    fn to_json(&self) -> Json {
        if self.is_finite() {
            Json::Num(*self)
        } else {
            Json::Null
        }
    }
}

impl Deserialize for f64 {
    fn from_json(v: &Json) -> Option<Self> {
        match v {
            Json::Num(x) => Some(*x),
            Json::Null => Some(f64::NAN),
            _ => None,
        }
    }
}

impl Serialize for f32 {
    fn to_json(&self) -> Json {
        (*self as f64).to_json()
    }
}

impl Deserialize for f32 {
    fn from_json(v: &Json) -> Option<Self> {
        f64::from_json(v).map(|x| x as f32)
    }
}

impl Serialize for bool {
    fn to_json(&self) -> Json {
        Json::Bool(*self)
    }
}

impl Deserialize for bool {
    fn from_json(v: &Json) -> Option<Self> {
        match v {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }
}

impl Serialize for String {
    fn to_json(&self) -> Json {
        Json::Str(self.clone())
    }
}

impl Deserialize for String {
    fn from_json(v: &Json) -> Option<Self> {
        v.as_str().map(str::to_string)
    }
}

impl Serialize for str {
    fn to_json(&self) -> Json {
        Json::Str(self.to_string())
    }
}

impl<T: Serialize> Serialize for &T {
    fn to_json(&self) -> Json {
        (**self).to_json()
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn to_json(&self) -> Json {
        Json::Arr(self.iter().map(Serialize::to_json).collect())
    }
}

impl<T: Deserialize> Deserialize for Vec<T> {
    fn from_json(v: &Json) -> Option<Self> {
        v.as_arr()?.iter().map(T::from_json).collect()
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn to_json(&self) -> Json {
        match self {
            Some(x) => x.to_json(),
            None => Json::Null,
        }
    }
}

impl<T: Deserialize> Deserialize for Option<T> {
    fn from_json(v: &Json) -> Option<Self> {
        match v {
            Json::Null => Some(None),
            other => T::from_json(other).map(Some),
        }
    }
}

impl<A: Serialize, B: Serialize> Serialize for (A, B) {
    fn to_json(&self) -> Json {
        Json::Arr(vec![self.0.to_json(), self.1.to_json()])
    }
}

impl<A: Deserialize, B: Deserialize> Deserialize for (A, B) {
    fn from_json(v: &Json) -> Option<Self> {
        let a = v.as_arr()?;
        if a.len() != 2 {
            return None;
        }
        Some((A::from_json(&a[0])?, B::from_json(&a[1])?))
    }
}

impl<A: Serialize, B: Serialize, C: Serialize> Serialize for (A, B, C) {
    fn to_json(&self) -> Json {
        Json::Arr(vec![self.0.to_json(), self.1.to_json(), self.2.to_json()])
    }
}

impl<A: Deserialize, B: Deserialize, C: Deserialize> Deserialize for (A, B, C) {
    fn from_json(v: &Json) -> Option<Self> {
        let a = v.as_arr()?;
        if a.len() != 3 {
            return None;
        }
        Some((
            A::from_json(&a[0])?,
            B::from_json(&a[1])?,
            C::from_json(&a[2])?,
        ))
    }
}

impl Serialize for Duration {
    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("secs".to_string(), Json::Num(self.as_secs() as f64)),
            ("nanos".to_string(), Json::Num(self.subsec_nanos() as f64)),
        ])
    }
}

impl Deserialize for Duration {
    fn from_json(v: &Json) -> Option<Self> {
        let o = v.as_obj()?;
        let secs = u64::from_json(Json::field(o, "secs")?)?;
        let nanos = u32::from_json(Json::field(o, "nanos")?)?;
        Some(Duration::new(secs, nanos))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_scalars() {
        let check = |x: f64| {
            let s = to_string(&x);
            let back = from_str::<f64>(&s).unwrap_or_else(|| panic!("{s} does not parse"));
            assert_eq!(back.to_bits(), x.to_bits(), "f64 {x:e} via {s}");
        };
        for x in [0.0f64, 1.5, -2.25, 1e-17, 123456789.123, f64::MAX] {
            check(x);
        }
        for x in [f64::MIN_POSITIVE, 5e-324, f64::MIN, -5e-324] {
            check(x);
        }
        // xorshift64 over raw bit patterns: subnormals, huge exponents and
        // long mantissas alike. Non-finite patterns render as `null` and
        // `-0.0` as `0`, so those are skipped.
        let mut bits = 0x9E37_79B9_7F4A_7C15u64;
        for _ in 0..20_000 {
            bits ^= bits << 13;
            bits ^= bits >> 7;
            bits ^= bits << 17;
            let x = f64::from_bits(bits);
            if x.is_finite() && x.to_bits() != (-0.0f64).to_bits() {
                check(x);
            }
        }
        assert_eq!(to_string(&42u64), "42");
        assert_eq!(from_str::<u64>("42"), Some(42));
        assert!(from_str::<f64>("null").unwrap().is_nan());
    }

    #[test]
    fn roundtrip_compound() {
        let v: Vec<(u64, f64)> = vec![(1, 0.5), (2, 1.25)];
        let s = to_string(&v);
        assert_eq!(s, "[[1,0.5],[2,1.25]]");
        assert_eq!(from_str::<Vec<(u64, f64)>>(&s), Some(v));
    }

    #[test]
    fn roundtrip_duration() {
        let d = Duration::new(3, 141_592_653);
        let s = to_string(&d);
        assert_eq!(from_str::<Duration>(&s), Some(d));
    }

    #[test]
    fn strings_escape() {
        let s = "a\"b\\c\nd\u{1}".to_string();
        let rendered = to_string(&s);
        assert_eq!(from_str::<String>(&rendered), Some(s));
    }

    #[test]
    fn parse_rejects_garbage() {
        assert_eq!(Json::parse("{"), None);
        assert_eq!(Json::parse("[1,]"), None);
        assert_eq!(Json::parse("1 2"), None);
        assert_eq!(Json::parse(""), None);
    }

    #[test]
    fn deep_nesting_is_refused_not_a_stack_overflow() {
        let nested = |open: &str, close: &str, n: usize| open.repeat(n) + &close.repeat(n);
        assert!(Json::parse(&nested("[", "]", MAX_DEPTH)).is_some());
        assert_eq!(Json::parse(&nested("[", "]", MAX_DEPTH + 1)), None);
        assert_eq!(Json::parse(&nested("{\"a\":", "}", MAX_DEPTH + 1)), None);
        // Far past any stack: must answer, not abort the process.
        assert_eq!(Json::parse(&"[".repeat(100_000)), None);
        assert_eq!(Json::parse(&nested("[", "]", 100_000)), None);
    }

    #[test]
    fn long_strings_parse_in_linear_time() {
        // 4 MB of string payload with multi-byte characters and escapes:
        // re-validating the rest of the document per character (the old
        // behaviour) would take minutes here.
        let text = "ab\"cé€😀\n".repeat(400_000);
        let doc = to_string(&vec![text.clone(), text.clone()]);
        assert_eq!(
            from_str::<Vec<String>>(&doc),
            Some(vec![text.clone(), text])
        );
    }

    #[test]
    fn object_field_order_is_preserved() {
        let j = Json::Obj(vec![
            ("z".into(), Json::Num(1.0)),
            ("a".into(), Json::Num(2.0)),
        ]);
        assert_eq!(j.render(), "{\"z\":1,\"a\":2}");
        assert_eq!(Json::parse(&j.render()), Some(j));
    }

    #[test]
    fn integers_out_of_range_are_refused_not_saturated() {
        // A hostile cache entry or manifest must not decode `-1` as 0,
        // `300` as 255, or `1e30` as `u64::MAX`.
        assert_eq!(from_str::<u64>("-1"), None);
        assert_eq!(from_str::<u8>("300"), None);
        assert_eq!(from_str::<u64>("1e30"), None);
        assert_eq!(from_str::<u8>("256"), None);
        assert_eq!(from_str::<i8>("-129"), None);
        assert_eq!(from_str::<u32>("4294967296"), None);
        // 2^64 and 2^63 are one past u64::MAX and i64::MAX.
        assert_eq!(from_str::<u64>("18446744073709551616"), None);
        assert_eq!(from_str::<i64>("9223372036854775808"), None);
        assert_eq!(from_str::<u64>("1.5"), None);
        assert_eq!(from_str::<u64>("1e999999"), None);
        // The edges of each range still decode.
        assert_eq!(from_str::<u8>("255"), Some(255));
        assert_eq!(from_str::<u8>("0"), Some(0));
        assert_eq!(from_str::<u8>("-0"), Some(0));
        assert_eq!(from_str::<i8>("-128"), Some(-128));
        assert_eq!(from_str::<u32>("4294967295"), Some(u32::MAX));
        assert_eq!(from_str::<i64>("-9223372036854775808"), Some(i64::MIN));
        assert_eq!(from_str::<u64>("9007199254740992"), Some(1 << 53));
        assert_eq!(from_str::<usize>("42"), Some(42));
    }

    /// A deterministic xorshift64 stream for the generated-input tests.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 ^= self.0 << 13;
            self.0 ^= self.0 >> 7;
            self.0 ^= self.0 << 17;
            self.0
        }

        fn below(&mut self, n: u64) -> u64 {
            self.next() % n
        }
    }

    fn random_string(rng: &mut Rng) -> String {
        const PICKS: [char; 12] = [
            'a', 'Z', '0', ' ', '"', '\\', '/', '\n', '\u{1}', '\u{1f}', 'é', '😀',
        ];
        (0..rng.below(8))
            .map(|_| match rng.below(3) {
                0 => PICKS[rng.below(PICKS.len() as u64) as usize],
                // Any scalar value outside the surrogate gap.
                _ => char::from_u32(rng.below(0xD800) as u32).unwrap(),
            })
            .collect()
    }

    fn random_json(rng: &mut Rng, depth: u32) -> Json {
        let leaf_only = depth == 0;
        match rng.below(if leaf_only { 4 } else { 6 }) {
            0 => Json::Null,
            1 => Json::Bool(rng.below(2) == 1),
            // Raw bit patterns: integers, fractions, subnormals, huge
            // exponents, infinities and NaNs alike.
            2 => Json::Num(match rng.below(3) {
                0 => rng.below(1 << 20) as f64 - (1 << 19) as f64,
                _ => f64::from_bits(rng.next()),
            }),
            3 => Json::Str(random_string(rng)),
            4 => Json::Arr(
                (0..rng.below(5))
                    .map(|_| random_json(rng, depth - 1))
                    .collect(),
            ),
            _ => Json::Obj(
                (0..rng.below(5))
                    .map(|_| (random_string(rng), random_json(rng, depth - 1)))
                    .collect(),
            ),
        }
    }

    /// What a tree reads back as: non-finite numbers render as `null`.
    fn rendered_form(v: &Json) -> Json {
        match v {
            Json::Num(x) if !x.is_finite() => Json::Null,
            Json::Arr(a) => Json::Arr(a.iter().map(rendered_form).collect()),
            Json::Obj(o) => Json::Obj(
                o.iter()
                    .map(|(k, v)| (k.clone(), rendered_form(v)))
                    .collect(),
            ),
            other => other.clone(),
        }
    }

    #[test]
    fn random_trees_survive_render_then_parse() {
        let mut rng = Rng(0x2545_F491_4F6C_DD1D);
        for _ in 0..2_000 {
            let tree = random_json(&mut rng, 5);
            let text = tree.render();
            let back =
                Json::parse(&text).unwrap_or_else(|| panic!("render emitted invalid JSON: {text}"));
            // `Json`'s equality compares numbers as f64, so `-0.0` (which
            // renders as `0`) still compares equal.
            assert_eq!(back, rendered_form(&tree), "via {text}");
            // Rendering is a fixed point after one round trip.
            assert_eq!(back.render(), text);
        }
    }

    #[test]
    fn hostile_numbers_parse_or_refuse_without_panic() {
        let digits = "1".repeat(10_000);
        let fraction = format!("0.{digits}");
        let cases: [(&str, Option<Json>); 8] = [
            // Overflowing exponents saturate to infinities, which render
            // back as `null`.
            ("1e999999", Some(Json::Num(f64::INFINITY))),
            ("-1e999999", Some(Json::Num(f64::NEG_INFINITY))),
            // Underflow rounds to zero.
            ("1e-400", Some(Json::Num(0.0))),
            ("-0", Some(Json::Num(-0.0))),
            (&digits, Some(Json::Num(f64::INFINITY))),
            (&fraction, Some(Json::Num(1.0 / 9.0))),
            ("1e", None),
            ("--1", None),
        ];
        for (text, want) in cases {
            let got = Json::parse(text);
            assert_eq!(got, want, "{}", &text[..text.len().min(24)]);
            if let Some(v) = got {
                // Whatever was accepted must render as valid JSON again.
                let rendered = v.render();
                assert!(Json::parse(&rendered).is_some(), "rendered {rendered}");
            }
        }
        assert_eq!(Json::parse("-0").unwrap().render(), "0");
        assert_eq!(Json::parse("1e999999").unwrap().render(), "null");
        assert_eq!(
            Json::parse(&format!("[{digits}]")).unwrap().render(),
            "[null]"
        );
    }
}
