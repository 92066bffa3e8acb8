//! One JSON codec for everything the workspace stores.
//!
//! Counterexample artifacts travel between processes and substrates, and
//! lab and hunt records are content-addressed by a hash of their render,
//! so the bytes *are* the identity: a writer that moves one byte moves a
//! record id. The workspace vendors no serde, so this module is the whole
//! stack:
//!
//! * [`Json`] — a value type with a strict parser and a compact,
//!   deterministic renderer;
//! * [`Codec`] — how one Rust value is written and read, with leaf impls
//!   for `bool`, `u64`, `u32`/`usize` (checked, never truncated), `f64`,
//!   `String`, [`NodeId`], `Option` as `null`, `Vec` as an array and a
//!   pair as a two-element array;
//! * [`codec!`] — the generator: each stored type spells its fields once,
//!   in one table in render order, and the writer, the reader and the
//!   reader's errors all come from that table. A missing required key, a
//!   key the table does not list and an integer that does not fit its
//!   field are errors naming the type and the key;
//! * [`diff`] — where two stored payloads differ, one line per leaf by
//!   key path: what `lab gate`, `lab diff` and `lab perf` print.
//!
//! Integers are kept exact: a `u64` seed round-trips bit-for-bit (values
//! are only widened to `f64` when they carry a fraction or exponent),
//! which matters because every seed in this codebase is a full-width
//! `splitmix64` output. Floats go through Rust's shortest-round-trip
//! `{:?}` form, so encode→decode is the identity on every field.

use std::fmt;
use std::sync::Arc;

use crate::adversary::{DeliveryFilter, FaultPlan};
use crate::engine::SimConfig;
use crate::ids::{NodeId, Round};
use crate::metrics::{LogHistogram, Metrics, RoundMetrics, ServiceMetrics};
use crate::stats::Summary;

/// A JSON value. Integers are stored exactly ([`Json::UInt`]/[`Json::Int`]);
/// only fractional or exponent-formed numbers become [`Json::Num`].
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A non-negative integer literal (exact, full `u64` range).
    UInt(u64),
    /// A negative integer literal (exact).
    Int(i64),
    /// A fractional / exponent number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; insertion order is preserved (render is deterministic).
    Obj(Vec<(String, Json)>),
}

/// A parse or schema error, with enough context to act on.
#[derive(Clone, Debug, PartialEq)]
pub struct JsonError {
    /// What went wrong.
    pub message: String,
}

impl JsonError {
    pub(crate) fn new(message: impl Into<String>) -> Self {
        JsonError {
            message: message.into(),
        }
    }
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "json: {}", self.message)
    }
}

impl std::error::Error for JsonError {}

impl Json {
    /// Looks up a key of an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Like [`Json::get`] but with a descriptive error for absent keys.
    pub fn field(&self, key: &str) -> Result<&Json, JsonError> {
        self.get(key)
            .ok_or_else(|| JsonError::new(format!("missing field `{key}`")))
    }

    /// The value as a `u64` (exact integers only).
    pub fn as_u64(&self) -> Result<u64, JsonError> {
        match self {
            Json::UInt(u) => Ok(*u),
            Json::Int(i) if *i >= 0 => Ok(*i as u64),
            other => Err(JsonError::new(format!(
                "expected unsigned integer, got {other:?}"
            ))),
        }
    }

    /// The value as an `f64` (any number).
    pub fn as_f64(&self) -> Result<f64, JsonError> {
        match self {
            Json::UInt(u) => Ok(*u as f64),
            Json::Int(i) => Ok(*i as f64),
            Json::Num(x) => Ok(*x),
            other => Err(JsonError::new(format!("expected number, got {other:?}"))),
        }
    }

    /// The value as a bool.
    pub fn as_bool(&self) -> Result<bool, JsonError> {
        match self {
            Json::Bool(b) => Ok(*b),
            other => Err(JsonError::new(format!("expected bool, got {other:?}"))),
        }
    }

    /// The value as a string slice.
    pub fn as_str(&self) -> Result<&str, JsonError> {
        match self {
            Json::Str(s) => Ok(s),
            other => Err(JsonError::new(format!("expected string, got {other:?}"))),
        }
    }

    /// The value as an array slice.
    pub fn as_arr(&self) -> Result<&[Json], JsonError> {
        match self {
            Json::Arr(items) => Ok(items),
            other => Err(JsonError::new(format!("expected array, got {other:?}"))),
        }
    }

    /// Compact single-line rendering (no insignificant whitespace).
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out);
        out
    }

    fn render_into(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::UInt(u) => out.push_str(&u.to_string()),
            Json::Int(i) => out.push_str(&i.to_string()),
            Json::Num(x) if x.is_finite() => out.push_str(&format!("{x:?}")),
            Json::Num(_) => out.push_str("null"),
            Json::Str(s) => render_string(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.render_into(out);
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    render_string(k, out);
                    out.push(':');
                    v.render_into(out);
                }
                out.push('}');
            }
        }
    }

    /// Parses a complete JSON document (trailing content is an error).
    pub fn parse(text: &str) -> Result<Json, JsonError> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let value = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(JsonError::new(format!(
                "trailing content at byte {}",
                p.pos
            )));
        }
        Ok(value)
    }
}

fn render_string(s: &str, out: &mut String) {
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

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(JsonError::new(format!(
                "expected `{}` at byte {}",
                b as char, self.pos
            )))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(JsonError::new(format!(
                "invalid literal at byte {}",
                self.pos
            )))
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(JsonError::new(format!(
                "unexpected input at byte {}",
                self.pos
            ))),
        }
    }

    fn array(&mut self) -> Result<Json, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(JsonError::new(format!("bad array at byte {}", self.pos))),
            }
        }
    }

    fn object(&mut self) -> Result<Json, JsonError> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(JsonError::new(format!("bad object at byte {}", self.pos))),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let Some(b) = self.peek() else {
                return Err(JsonError::new("unterminated string"));
            };
            self.pos += 1;
            match b {
                b'"' => return Ok(out),
                b'\\' => {
                    let Some(esc) = self.peek() else {
                        return Err(JsonError::new("unterminated escape"));
                    };
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .ok_or_else(|| JsonError::new("truncated \\u escape"))?;
                            let hex = std::str::from_utf8(hex)
                                .map_err(|_| JsonError::new("non-ascii \\u escape"))?;
                            let cp = u32::from_str_radix(hex, 16)
                                .map_err(|_| JsonError::new("bad \\u escape"))?;
                            self.pos += 4;
                            // Surrogates are not paired; the renderer never
                            // emits them, so reject rather than mis-decode.
                            let c = char::from_u32(cp)
                                .ok_or_else(|| JsonError::new("surrogate \\u escape"))?;
                            out.push(c);
                        }
                        other => {
                            return Err(JsonError::new(format!(
                                "unknown escape `\\{}`",
                                other as char
                            )))
                        }
                    }
                }
                _ => {
                    // Multi-byte UTF-8: copy the full scalar.
                    let start = self.pos - 1;
                    let len = utf8_len(b);
                    let end = start + len;
                    let chunk = self
                        .bytes
                        .get(start..end)
                        .ok_or_else(|| JsonError::new("truncated utf-8"))?;
                    let s = std::str::from_utf8(chunk)
                        .map_err(|_| JsonError::new("invalid utf-8 in string"))?;
                    out.push_str(s);
                    self.pos = end;
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut fractional = false;
        while let Some(b) = self.peek() {
            match b {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    fractional = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| JsonError::new("invalid number bytes"))?;
        if !fractional {
            if let Ok(u) = text.parse::<u64>() {
                return Ok(Json::UInt(u));
            }
            if let Ok(i) = text.parse::<i64>() {
                return Ok(Json::Int(i));
            }
        }
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| JsonError::new(format!("bad number `{text}`")))
    }
}

fn utf8_len(first: u8) -> usize {
    match first {
        0x00..=0x7F => 1,
        0xC0..=0xDF => 2,
        0xE0..=0xEF => 3,
        _ => 4,
    }
}

// --- The codec ------------------------------------------------------------

/// A value with one JSON form.
///
/// `encode` writes it and `decode` reads it back, rejecting anything
/// `encode` could not have written. `diag` asks for the diagnostic fields
/// — wall clocks and provenance — that stay outside a record's
/// deterministic payload; types without such fields pass it on unread.
pub trait Codec: Sized {
    /// The JSON form of `self`.
    fn encode(&self, diag: bool) -> Json;
    /// Reads a value back from its [`Codec::encode`] form.
    fn decode(v: &Json) -> Result<Self, JsonError>;
}

/// The scalar leaves, one line each: how the value is written, and how it
/// is read back.
macro_rules! leaf_codec {
    ($($t:ty: |$x:ident| $encode:expr, |$v:ident| $decode:expr;)*) => {$(
        impl Codec for $t {
            fn encode(&self, _: bool) -> Json {
                let $x = self;
                $encode
            }
            fn decode($v: &Json) -> Result<Self, JsonError> {
                $decode
            }
        }
    )*};
}

leaf_codec! {
    bool: |x| Json::Bool(*x), |v| v.as_bool();
    u64: |x| Json::UInt(*x), |v| v.as_u64();
    u32: |x| Json::UInt(u64::from(*x)), |v| narrow(v);
    usize: |x| Json::UInt(*x as u64), |v| narrow(v);
    // `u128` sums exceed every JSON integer reader: a decimal string.
    u128: |x| Json::Str(x.to_string()), |v| v.as_str()?.parse().map_err(|_| {
        JsonError::new("expected a decimal u128 string")
    });
    f64: |x| Json::Num(*x), |v| v.as_f64();
    String: |x| Json::Str(x.clone()), |v| v.as_str().map(str::to_string);
    NodeId: |x| Json::UInt(u64::from(x.0)), |v| u32::decode(v).map(NodeId);
}

/// An unsigned integer narrower than `u64`: a value that does not fit is
/// an error naming it, never a silent truncation.
fn narrow<T: TryFrom<u64>>(v: &Json) -> Result<T, JsonError> {
    let u = v.as_u64()?;
    let ty = std::any::type_name::<T>();
    T::try_from(u).map_err(|_| JsonError::new(format!("{u} does not fit {ty}")))
}

/// `None` is `null`.
impl<T: Codec> Codec for Option<T> {
    fn encode(&self, diag: bool) -> Json {
        self.as_ref().map_or(Json::Null, |x| x.encode(diag))
    }
    fn decode(v: &Json) -> Result<Self, JsonError> {
        match v {
            Json::Null => Ok(None),
            other => T::decode(other).map(Some),
        }
    }
}

impl<T: Codec> Codec for Vec<T> {
    fn encode(&self, diag: bool) -> Json {
        Json::Arr(self.iter().map(|x| x.encode(diag)).collect())
    }
    fn decode(v: &Json) -> Result<Self, JsonError> {
        (v.as_arr()?.iter().enumerate())
            .map(|(i, x)| {
                T::decode(x).map_err(|e| JsonError::new(format!("item {i}: {}", e.message)))
            })
            .collect()
    }
}

/// A fixed-size array: an array of exactly `N` items.
impl<T: Codec, const N: usize> Codec for [T; N] {
    fn encode(&self, diag: bool) -> Json {
        Json::Arr(self.iter().map(|x| x.encode(diag)).collect())
    }
    fn decode(v: &Json) -> Result<Self, JsonError> {
        let items = Vec::<T>::decode(v)?;
        let len = items.len();
        (items.try_into()).map_err(|_| JsonError::new(format!("expected {N} items, got {len}")))
    }
}

/// A pair is a two-element array (e.g. a `[node, round]` crash event).
impl<A: Codec, B: Codec> Codec for (A, B) {
    fn encode(&self, diag: bool) -> Json {
        Json::Arr(vec![self.0.encode(diag), self.1.encode(diag)])
    }
    fn decode(v: &Json) -> Result<Self, JsonError> {
        match v.as_arr()? {
            [a, b] => Ok((A::decode(a)?, B::decode(b)?)),
            other => Err(JsonError::new(format!(
                "expected a pair, got {} items",
                other.len()
            ))),
        }
    }
}

impl<T: Codec> Codec for Arc<T> {
    fn encode(&self, diag: bool) -> Json {
        (**self).encode(diag)
    }
    fn decode(v: &Json) -> Result<Self, JsonError> {
        T::decode(v).map(Arc::new)
    }
}

/// A `kind`-tagged enum: the tag and the variant's fields, written as
/// rows of whichever object holds them — its own, or (flattened by a
/// `..field` row) its parent's.
pub trait Tagged: Sized {
    /// Appends `kind` and the variant's fields to `out`.
    fn encode_into(&self, out: &mut Vec<(String, Json)>, diag: bool);
    /// Reads `kind` and the variant's fields from `fields`.
    fn decode_from(fields: &mut Fields<'_>) -> Result<Self, JsonError>;
}

/// The keys of one object under decode. Every table row takes its key
/// once; [`Fields::finish`] then rejects whatever no row asked for.
pub struct Fields<'a> {
    ty: String,
    obj: &'a [(String, Json)],
    taken: Vec<bool>,
}

impl<'a> Fields<'a> {
    /// Opens `v` for decoding as type `ty`, which every error names.
    pub fn open(ty: &str, v: &'a Json) -> Result<Self, JsonError> {
        let Json::Obj(obj) = v else {
            return Err(JsonError::new(format!("{ty}: expected an object")));
        };
        Ok(Fields {
            ty: ty.to_string(),
            obj,
            taken: vec![false; obj.len()],
        })
    }

    /// An error about this object, naming its type.
    pub fn error(&self, message: impl fmt::Display) -> JsonError {
        JsonError::new(format!("{}: {message}", self.ty))
    }

    fn take(&mut self, key: &str) -> Option<&'a Json> {
        let i = self.obj.iter().position(|(k, _)| k == key)?;
        self.taken[i] = true;
        Some(&self.obj[i].1)
    }

    fn at<T>(&self, key: &str, decoded: Result<T, JsonError>) -> Result<T, JsonError> {
        decoded.map_err(|e| JsonError::new(format!("{}.{key}: {}", self.ty, e.message)))
    }

    /// Decodes `key`, or `None` if the object has no such key.
    pub fn opt<T: Codec>(&mut self, key: &str) -> Result<Option<T>, JsonError> {
        match self.take(key) {
            Some(v) => self.at(key, T::decode(v)).map(Some),
            None => Ok(None),
        }
    }

    /// Decodes the required `key`.
    pub fn req<T: Codec>(&mut self, key: &str) -> Result<T, JsonError> {
        self.opt(key)?
            .ok_or_else(|| self.error(format_args!("missing key `{key}`")))
    }

    /// Opens the required object under `key` as a nested group of rows.
    pub fn group(&mut self, key: &str) -> Result<Fields<'a>, JsonError> {
        let v = (self.take(key)).ok_or_else(|| self.error(format_args!("missing key `{key}`")))?;
        Fields::open(&format!("{}.{key}", self.ty), v)
    }

    /// Decodes the object under `key` as named `T`s in order — a map
    /// whose keys are data, not a table.
    pub fn map<T: Codec>(&mut self, key: &str) -> Result<Vec<(String, T)>, JsonError> {
        let group = self.group(key)?;
        (group.obj.iter())
            .map(|(k, v)| group.at(k, T::decode(v)).map(|t| (k.clone(), t)))
            .collect()
    }

    /// Accepts `key` unread: a value the writer derives for readers.
    pub fn skip(&mut self, key: &str) {
        self.take(key);
    }

    /// Requires `key` to hold the string `expected` (a schema tag).
    pub fn constant(&mut self, key: &str, expected: &str) -> Result<(), JsonError> {
        let found: String = self.req(key)?;
        if found == expected {
            Ok(())
        } else {
            Err(self.error(format_args!("`{key}` is `{found}`, expected `{expected}`")))
        }
    }

    /// Rejects the first key no row took.
    pub fn finish(self) -> Result<(), JsonError> {
        let Some(i) = self.taken.iter().position(|taken| !taken) else {
            return Ok(());
        };
        let key = &self.obj[i].0;
        let what = if self.obj[..i].iter().any(|(k, _)| k == key) {
            "repeated"
        } else {
            "unknown"
        };
        Err(self.error(format_args!("{what} key `{key}`")))
    }
}

/// Writes named `T`s as one object whose keys are data (a `[map]` row).
pub fn encode_map<T: Codec>(items: &[(String, T)], diag: bool) -> Json {
    Json::Obj(
        items
            .iter()
            .map(|(k, t)| (k.clone(), t.encode(diag)))
            .collect(),
    )
}

/// `f(value)`: how a table's derived row reads the value it is written
/// from.
pub fn derive<T, R>(value: &T, f: impl FnOnce(&T) -> R) -> R {
    f(value)
}

/// Runs a table's post-decode `check` on the decoded `value` of type `ty`.
pub fn check<T, E: fmt::Display>(
    ty: &str,
    value: &T,
    rule: impl FnOnce(&T) -> Result<(), E>,
) -> Result<(), JsonError> {
    rule(value).map_err(|e| JsonError::new(format!("{ty}: {e}")))
}

/// FNV-1a 64-bit over a byte string: the content address of a record's
/// deterministic render. Stable, dependency-free, and good enough for
/// human-scale result sets.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Run provenance: the `diag` block every stored record carries and no
/// content address covers. A record without one reads as `unknown` /
/// `0.0`.
#[derive(Clone, Debug, PartialEq)]
pub struct Diag {
    /// Git revision of the producing tree.
    pub git_rev: String,
    /// Total wall-clock seconds.
    pub wall_s: f64,
}

impl Default for Diag {
    fn default() -> Self {
        Diag {
            git_rev: "unknown".into(),
            wall_s: 0.0,
        }
    }
}

/// Best-effort git revision of the working tree ("unknown" outside a
/// checkout): what a fresh record writes into its [`Diag`] block.
pub fn git_rev() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

/// A stored record (the `record` form of [`codec!`]): a [`Codec`] type
/// with a content address, so one store can hold every kind.
pub trait Stored: Codec {
    /// `<name>-<fnv64 of the deterministic payload>`.
    fn id(&self) -> String;
}

/// Where `fresh` departs from `base`: one line per differing leaf, reading
/// `cell <label>: `<key.path>` <base> -> <fresh>` inside an element of a
/// top-level `cells` array (named by its `label`, or its `cell.label`) and
/// `record: `<key.path>` …` elsewhere. Numbers compare by value, so `1`
/// equals `1.0`; an array whose length changed is one leaf; a value longer
/// than 40 characters is elided. Empty when the two are equal by value,
/// as two renders differing only in key order or number spelling are.
pub fn diff(base: &Json, fresh: &Json) -> Vec<String> {
    let mut lines = Vec::new();
    diff_into(None, "", base, fresh, &mut lines);
    lines
}

fn diff_into(cell: Option<&str>, path: &str, base: &Json, fresh: &Json, lines: &mut Vec<String>) {
    let join = |key: &str| match path {
        "" => key.to_string(),
        _ => format!("{path}.{key}"),
    };
    let brief = |v: Option<&Json>| match v.map(Json::render) {
        Some(text) if text.chars().count() <= 40 => text,
        Some(_) => "…".into(),
        None => "absent".into(),
    };
    let leaf = |path: &str, b: Option<&Json>, f: Option<&Json>| {
        let scope = cell.map_or("record".into(), |label| format!("cell {label}"));
        format!("{scope}: `{path}` {} -> {}", brief(b), brief(f))
    };
    match (base, fresh) {
        (Json::Obj(b), Json::Obj(f)) => {
            for (key, bv) in b {
                match fresh.get(key) {
                    Some(fv) => diff_into(cell, &join(key), bv, fv, lines),
                    None => lines.push(leaf(&join(key), Some(bv), None)),
                }
            }
            for (key, fv) in f.iter().filter(|(k, _)| base.get(k).is_none()) {
                lines.push(leaf(&join(key), None, Some(fv)));
            }
        }
        (Json::Arr(b), Json::Arr(f)) if b.len() == f.len() => {
            for (i, (bv, fv)) in b.iter().zip(f).enumerate() {
                let label = (cell.is_none() && path == "cells")
                    .then(|| bv.get("label").or_else(|| bv.get("cell")?.get("label")))
                    .flatten()
                    .and_then(|l| l.as_str().ok());
                match label {
                    Some(label) => diff_into(Some(label), "", bv, fv, lines),
                    None => diff_into(cell, &format!("{path}[{i}]"), bv, fv, lines),
                }
            }
        }
        (Json::Num(x), y) | (y, Json::Num(x)) if y.as_f64().is_ok_and(|y| y == *x) => {}
        _ if base != fresh => lines.push(leaf(path, Some(base), Some(fresh))),
        _ => {}
    }
}

/// Generates [`Codec`] for a type from one field table.
///
/// Every form lists keys in render order, so the table *is* the byte
/// layout; the reader takes each key once and rejects any key the table
/// does not list.
///
/// * `struct T { rows } check |t| …;` — an object, one row per key. The
///   optional `check` runs on the decoded value, before unknown keys are
///   rejected (it returns `Result<(), impl Display>`). Rows end with a
///   comma. `struct T: to_json { … }` also generates the public
///   `to_json(&self)` / `from_json` pair, `struct T: to_json(diag)` the
///   `to_json(&self, diag: bool)` one. Rows:
///   - `"key": field` — required;
///   - `"key": field [elide]` — omitted when equal to the field type's
///     `Default`, and read back as that default when absent (how
///     `Complete` topologies and `None` heights keep historical renders
///     byte for byte);
///   - `"key": field [diag]` — written only with `diag`, default when
///     absent;
///   - `"key": field [map]` — a `Vec<(String, T)>` written as an object
///     whose keys are data;
///   - `"key" = |t| expr` — derived and write-only (`[diag]` may follow
///     the key); the reader accepts and ignores it;
///   - `"key": { "k": field, … }` — a nested object of this type's fields;
///   - `field: Type { "k": f, … }` — `Type`'s fields written inline, in
///     this order, building `field` back on read;
///   - `..field` — a [`Tagged`] enum's `kind` and variant fields, inline.
/// * `record T(SCHEMA, |t| name) { rows }` — a stored record: `schema`
///   (written, then checked on read) and the derived `name` first, the
///   rows, then the [`Diag`] block from the type's `git_rev` / `wall_s`
///   fields, written only with `diag`. Generates `to_json(&self, diag)`,
///   `from_json`, `deterministic_render` and the content-addressed `id`
///   (also as [`Stored`]).
/// * `enum T: api… { "tag" => Unit, "tag" => V { "k": f, … }, "tag" =>
///   V("k": f) }` — a `kind`-tagged enum ([`Tagged`] and [`Codec`]). Each
///   `api` is `to_json` or the name of a generated `fn(&self) -> &'static
///   str` returning the tag.
/// * `names vis T("what") { "name" => V, … }` — a fieldless enum written
///   as its name; generates `vis fn name(self)` and `vis fn parse(&str)`.
/// * `tuple Name(A, B, C) { "a": a, … }` — a tuple written as an object.
#[macro_export]
macro_rules! codec {
    (struct $T:ident $(: $api:ident $(($diag:ident))?)? { $($rows:tt)* } $(check $check:expr;)?) => {
        $crate::codec!(@rows [$T $(check $check)?] [self out diag r] [] [] [] $($rows)*);
        $($crate::codec!(@$api $T $($diag)?);)?
    };
    (record $T:ident($schema:expr, $name:expr) { $($rows:tt)* }) => {
        $crate::codec!(@rows [$T] [self out diag r] [] [] []
            "schema" == $schema, "name" = $name, $($rows)* #diag);
        $crate::codec!(@to_json $T diag);
        impl $T {
            /// The deterministic payload (diag stripped), rendered.
            pub fn deterministic_render(&self) -> String {
                self.to_json(false).render()
            }

            /// Content address: `<name>-<fnv64 of the deterministic payload>`.
            pub fn id(&self) -> String {
                let hash = $crate::json::fnv1a64(self.deterministic_render().as_bytes());
                format!("{}-{hash:016x}", $crate::json::derive(self, $name))
            }
        }

        impl $crate::json::Stored for $T {
            fn id(&self) -> String {
                $T::id(self)
            }
        }
    };
    (enum $T:ident $(: $($api:ident),+)? {
        $($tag:literal => $V:ident $({ $($k:literal : $f:ident),* $(,)? })? $(($tk:literal : $tf:ident))?),* $(,)?
    }) => {
        impl $crate::json::Tagged for $T {
            fn encode_into(
                &self,
                out: &mut Vec<(String, $crate::json::Json)>,
                diag: bool,
            ) {
                match self {
                    $($T::$V $({ $($f),* })? $(($tf))? => {
                        out.push(("kind".to_string(), $crate::json::Json::Str($tag.to_string())));
                        $($(out.push(($k.to_string(), $crate::json::Codec::encode($f, diag)));)*)?
                        $(out.push(($tk.to_string(), $crate::json::Codec::encode($tf, diag)));)?
                    })*
                }
            }

            fn decode_from(
                fields: &mut $crate::json::Fields<'_>,
            ) -> Result<Self, $crate::json::JsonError> {
                let kind: String = fields.req("kind")?;
                match kind.as_str() {
                    $($tag => Ok($T::$V $({ $($f: fields.req($k)?),* })? $((fields.req($tk)?))?),)*
                    other => Err(fields.error(format_args!("unknown kind `{other}`"))),
                }
            }
        }

        impl $crate::json::Codec for $T {
            fn encode(&self, diag: bool) -> $crate::json::Json {
                let mut out = Vec::new();
                $crate::json::Tagged::encode_into(self, &mut out, diag);
                $crate::json::Json::Obj(out)
            }

            fn decode(v: &$crate::json::Json) -> Result<Self, $crate::json::JsonError> {
                let mut fields = $crate::json::Fields::open(stringify!($T), v)?;
                let value = $crate::json::Tagged::decode_from(&mut fields)?;
                fields.finish()?;
                Ok(value)
            }
        }

        $crate::codec!(@enum_api $T [$($tag => $V)*] $($($api)+)?);
    };
    (names $vis:vis $T:ident($what:literal) { $($name:literal => $V:ident),* $(,)? }) => {
        impl $T {
            /// The name this value is spelled as, on the command line and
            /// in JSON.
            $vis fn name(self) -> &'static str {
                match self {
                    $($T::$V => $name,)*
                }
            }

            /// Parses a [`name`](Self::name).
            $vis fn parse(s: &str) -> Result<Self, String> {
                match s {
                    $($name => Ok($T::$V),)*
                    other => Err(format!("unknown {} {other} ({})", $what, [$($name),*].join("|"))),
                }
            }
        }

        impl $crate::json::Codec for $T {
            fn encode(&self, _: bool) -> $crate::json::Json {
                $crate::json::Json::Str(self.name().to_string())
            }

            fn decode(v: &$crate::json::Json) -> Result<Self, $crate::json::JsonError> {
                Self::parse(v.as_str()?).map_err(|message| $crate::json::JsonError { message })
            }
        }
    };
    (tuple $Name:ident($($Ty:ty),*) { $($k:literal : $f:ident),* $(,)? }) => {
        impl $crate::json::Codec for ($($Ty,)*) {
            fn encode(&self, diag: bool) -> $crate::json::Json {
                let ($($f,)*) = self;
                $crate::json::Json::Obj(vec![
                    $(($k.to_string(), $crate::json::Codec::encode($f, diag)),)*
                ])
            }

            fn decode(v: &$crate::json::Json) -> Result<Self, $crate::json::JsonError> {
                let mut fields = $crate::json::Fields::open(stringify!($Name), v)?;
                $(let $f = fields.req($k)?;)*
                fields.finish()?;
                Ok(($($f,)*))
            }
        }
    };

    // Struct rows, munched one at a time into [writer] [reader] [fields]
    // under the names [self out diag reader].
    (@rows $h:tt [$s:ident $o:ident $d:ident $r:ident] [$($e:tt)*] [$($g:tt)*] [$($f:ident)*]
        $k:literal : $field:ident $([$rule:ident])? $(, $($rest:tt)*)?) => {
        $crate::codec!(@rows $h [$s $o $d $r]
            [$($e)* $crate::codec!(@put $o $d $k ($s.$field) $($rule)?);]
            [$($g)* let $field = $crate::codec!(@get $r $k $($rule)?);]
            [$($f)* $field] $($($rest)*)?);
    };
    (@rows $h:tt [$s:ident $o:ident $d:ident $r:ident] [$($e:tt)*] [$($g:tt)*] [$($f:ident)*]
        $k:literal : { $($gk:literal : $gf:ident $([$gr:ident])?),* $(,)? } $(, $($rest:tt)*)?) => {
        $crate::codec!(@rows $h [$s $o $d $r]
            [$($e)* $o.push(($k.to_string(), {
                let mut group = Vec::new();
                $($crate::codec!(@put group $d $gk ($s.$gf) $($gr)?);)*
                $crate::json::Json::Obj(group)
            }));]
            [$($g)* let mut group = $r.group($k)?;
                $(let $gf = $crate::codec!(@get group $gk $($gr)?);)*
                group.finish()?;]
            [$($f)* $($gf)*] $($($rest)*)?);
    };
    (@rows $h:tt [$s:ident $o:ident $d:ident $r:ident] [$($e:tt)*] [$($g:tt)*] [$($f:ident)*]
        $field:ident : $Ty:ident { $($nk:literal : $nf:ident $([$nr:ident])?),* $(,)? } $(, $($rest:tt)*)?) => {
        $crate::codec!(@rows $h [$s $o $d $r]
            [$($e)* $($crate::codec!(@put $o $d $nk ($s.$field.$nf) $($nr)?);)*]
            [$($g)* $(let $nf = $crate::codec!(@get $r $nk $($nr)?);)* let $field = $Ty { $($nf),* };]
            [$($f)* $field] $($($rest)*)?);
    };
    (@rows $h:tt [$s:ident $o:ident $d:ident $r:ident] [$($e:tt)*] [$($g:tt)*] [$($f:ident)*]
        $k:literal $([$rule:ident])? = $derive:expr $(, $($rest:tt)*)?) => {
        $crate::codec!(@rows $h [$s $o $d $r]
            [$($e)* $crate::codec!(@put $o $d $k ($crate::json::derive($s, $derive)) $($rule)?);]
            [$($g)* $r.skip($k);]
            [$($f)*] $($($rest)*)?);
    };
    (@rows $h:tt [$s:ident $o:ident $d:ident $r:ident] [$($e:tt)*] [$($g:tt)*] [$($f:ident)*]
        $k:literal == $constant:expr $(, $($rest:tt)*)?) => {
        $crate::codec!(@rows $h [$s $o $d $r]
            [$($e)* $o.push(($k.to_string(), $crate::json::Json::Str($constant.to_string())));]
            [$($g)* $r.constant($k, $constant)?;]
            [$($f)*] $($($rest)*)?);
    };
    (@rows $h:tt [$s:ident $o:ident $d:ident $r:ident] [$($e:tt)*] [$($g:tt)*] [$($f:ident)*]
        ..$field:ident $(, $($rest:tt)*)?) => {
        $crate::codec!(@rows $h [$s $o $d $r]
            [$($e)* $crate::json::Tagged::encode_into(&$s.$field, &mut $o, $d);]
            [$($g)* let $field = $crate::json::Tagged::decode_from(&mut $r)?;]
            [$($f)* $field] $($($rest)*)?);
    };
    (@rows $h:tt [$s:ident $o:ident $d:ident $r:ident] [$($e:tt)*] [$($g:tt)*] [$($f:ident)*] #diag) => {
        $crate::codec!(@rows $h [$s $o $d $r]
            [$($e)* if $d {
                let provenance = $crate::json::Diag { git_rev: $s.git_rev.clone(), wall_s: $s.wall_s };
                $o.push(("diag".to_string(), $crate::json::Codec::encode(&provenance, $d)));
            }]
            [$($g)* let $crate::json::Diag { git_rev, wall_s } = $r.opt("diag")?.unwrap_or_default();]
            [$($f)* git_rev wall_s]);
    };
    (@rows [$T:ident $(check $check:expr)?] [$s:ident $o:ident $d:ident $r:ident] [$($e:tt)*] [$($g:tt)*] [$($f:ident)*]) => {
        impl $crate::json::Codec for $T {
            // Rows push one at a time, some behind an `if`.
            #[allow(clippy::vec_init_then_push)]
            fn encode(&$s, $d: bool) -> $crate::json::Json {
                let mut $o = Vec::new();
                $($e)*
                $crate::json::Json::Obj($o)
            }

            fn decode(v: &$crate::json::Json) -> Result<Self, $crate::json::JsonError> {
                let mut $r = $crate::json::Fields::open(stringify!($T), v)?;
                $($g)*
                let value = $T { $($f),* };
                // A failed check (a future version, say) explains more
                // than the unknown keys that come with it.
                $($crate::json::check(stringify!($T), &value, $check)?;)?
                $r.finish()?;
                Ok(value)
            }
        }
    };
    (@put $o:ident $d:ident $k:literal ($($v:tt)*)) => {
        $o.push(($k.to_string(), $crate::json::Codec::encode(&$($v)*, $d)));
    };
    (@put $o:ident $d:ident $k:literal ($($v:tt)*) elide) => {
        if $($v)* != Default::default() {
            $crate::codec!(@put $o $d $k ($($v)*));
        }
    };
    (@put $o:ident $d:ident $k:literal ($($v:tt)*) diag) => {
        if $d {
            $crate::codec!(@put $o $d $k ($($v)*));
        }
    };
    (@put $o:ident $d:ident $k:literal ($($v:tt)*) map) => {
        $o.push(($k.to_string(), $crate::json::encode_map(&$($v)*, $d)));
    };
    (@get $r:ident $k:literal) => {
        $r.req($k)?
    };
    (@get $r:ident $k:literal map) => {
        $r.map($k)?
    };
    (@get $r:ident $k:literal $optional:ident) => {
        $r.opt($k)?.unwrap_or_default()
    };
    (@to_json $T:ident $($diag:ident)?) => {
        impl $T {
            /// JSON encoding, written by the type's `codec!` table. A `diag`
            /// argument, where there is one, adds the wall clocks and
            /// provenance that stay outside the deterministic payload.
            pub fn to_json(&self $(, $diag: bool)?) -> $crate::json::Json {
                $crate::json::Codec::encode(self, false $(|| $diag)?)
            }

            /// Decodes the [`to_json`](Self::to_json) form (diag fields
            /// optional). A missing key, a key the table does not list or
            /// an integer that does not fit its field is an error naming
            /// the type and the key.
            pub fn from_json(v: &$crate::json::Json) -> Result<Self, $crate::json::JsonError> {
                $crate::json::Codec::decode(v)
            }
        }
    };
    (@enum_api $T:ident $tags:tt) => {};
    (@enum_api $T:ident $tags:tt to_json $($rest:ident)*) => {
        $crate::codec!(@to_json $T);
        $crate::codec!(@enum_api $T $tags $($rest)*);
    };
    (@enum_api $T:ident [$($tag:literal => $V:ident)*] $method:ident $($rest:ident)*) => {
        impl $T {
            /// The `kind` tag this variant is written under.
            pub fn $method(&self) -> &'static str {
                match self {
                    $($T::$V { .. } => $tag,)*
                }
            }
        }
        $crate::codec!(@enum_api $T [$($tag => $V)*] $($rest)*);
    };
}

// --- Schedules and measurements --------------------------------------------

crate::codec! {
    enum DeliveryFilter: to_json {
        "deliver_all" => DeliverAll,
        "drop_all" => DropAll,
        "keep_first" => KeepFirst("k": k),
        "deliver_each" => DeliverEachWithProbability("p": p),
        "keep_to" => KeepToDestinations("dsts": dsts),
    }
}

crate::codec! {
    tuple CrashEntry(NodeId, Round, DeliveryFilter) {
        "node": node,
        "round": round,
        "filter": filter,
    }
}

/// A plan is the array of its crash entries.
impl Codec for FaultPlan {
    fn encode(&self, diag: bool) -> Json {
        Json::Arr(self.entries().iter().map(|e| e.encode(diag)).collect())
    }
    fn decode(v: &Json) -> Result<Self, JsonError> {
        Vec::decode(v).map(FaultPlan::from_entries)
    }
}
crate::codec!(@to_json FaultPlan);

crate::codec! {
    struct SimConfig: to_json {
        "n": n,
        "seed": seed,
        "max_rounds": max_rounds,
        "kt1": kt1,
        "record_trace": record_trace,
        "congest_bits": congest_bits,
        "send_cap": send_cap,
        "edge_failure_prob": edge_failure_prob,
        "topology": topology [elide],
    }
    check |c| c.validate();
}

crate::codec! {
    struct Summary: to_json {
        "count": count,
        "mean": mean,
        "std_dev": std_dev,
        "min": min,
        "max": max,
        "median": median,
        "p95": p95,
        "p99": p99,
        "p999": p999,
    }
}

crate::codec! {
    struct LogHistogram: to_json {
        "counts": counts,
        "total": total,
        "sum": sum,
        "min": min,
        "max": max,
    }
    check |h| match h.counts.iter().try_fold(0u64, |a, &c| a.checked_add(c)) {
        Some(total) if total == h.total => Ok(()),
        _ => Err("total disagrees with buckets"),
    };
}

crate::codec! {
    struct ServiceMetrics: to_json {
        "heights": heights,
        "failed_elections": failed_elections,
        "leader_changes": leader_changes,
        "ttnl_rounds": ttnl_rounds,
        "available_rounds": available_rounds,
        "total_rounds": total_rounds,
        "current_leader": current_leader,
    }
}

crate::codec! {
    struct RoundMetrics {
        "sent": sent,
        "delivered": delivered,
        "bits_sent": bits_sent,
        "crashes": crashes,
    }
}

crate::codec! {
    struct Metrics: to_json {
        "rounds": rounds,
        "msgs_sent": msgs_sent,
        "msgs_delivered": msgs_delivered,
        "bits_sent": bits_sent,
        "max_edge_bits_per_round": max_edge_bits_per_round,
        "per_round": per_round,
        "crashes": crashes,
        "msgs_suppressed": msgs_suppressed,
        "msgs_lost_edges": msgs_lost_edges,
        "wire_bytes": wire_bytes,
    }
}

crate::codec! {
    struct Diag {
        "git_rev": git_rev,
        "wall_s": wall_s,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::prelude::*;
    use rand::rngs::SmallRng;

    #[test]
    fn scalars_round_trip() {
        for text in ["null", "true", "false", "0", "-7", "3.5", "\"hi\\n\""] {
            let v = Json::parse(text).unwrap();
            assert_eq!(Json::parse(&v.render()).unwrap(), v, "{text}");
        }
    }

    #[test]
    fn full_u64_integers_stay_exact() {
        let seed = u64::MAX - 12345;
        let v = Json::parse(&Json::UInt(seed).render()).unwrap();
        assert_eq!(v.as_u64().unwrap(), seed);
    }

    #[test]
    fn nested_structures_round_trip() {
        let text = r#"{"a":[1,2,{"b":null}],"c":"x\"y","d":-1,"e":0.25}"#;
        let v = Json::parse(text).unwrap();
        assert_eq!(Json::parse(&v.render()).unwrap(), v);
        assert_eq!(v.field("d").unwrap(), &Json::Int(-1));
        assert_eq!(v.get("missing"), None);
        assert!(v.field("missing").is_err());
    }

    #[test]
    fn trailing_garbage_is_rejected() {
        assert!(Json::parse("{} x").is_err());
        assert!(Json::parse("[1,]").is_err());
        assert!(Json::parse("\"open").is_err());
        assert!(Json::parse("nul").is_err());
    }

    fn random_filter(rng: &mut SmallRng) -> DeliveryFilter {
        match rng.random_range(0..5u8) {
            0 => DeliveryFilter::DeliverAll,
            1 => DeliveryFilter::DropAll,
            2 => DeliveryFilter::KeepFirst(rng.random_range(0..64)),
            3 => DeliveryFilter::DeliverEachWithProbability(
                f64::from(rng.random_range(0..=100u32)) / 100.0,
            ),
            _ => DeliveryFilter::KeepToDestinations(
                (0..rng.random_range(0..6u32))
                    .map(|_| NodeId(rng.random_range(0..32)))
                    .collect(),
            ),
        }
    }

    /// The satellite's round-trip property: arbitrary plans survive
    /// serialisation, so schedules are portable across sim and cluster.
    #[test]
    fn fault_plan_round_trip_property() {
        let mut rng = SmallRng::seed_from_u64(2024);
        for _ in 0..200 {
            let entries: Vec<_> = (0..rng.random_range(0..10u32))
                .map(|_| {
                    (
                        NodeId(rng.random_range(0..32)),
                        rng.random_range(0..20u32),
                        random_filter(&mut rng),
                    )
                })
                .collect();
            let plan = FaultPlan::from_entries(entries);
            let json = plan.to_json().render();
            let back = FaultPlan::from_json(&Json::parse(&json).unwrap()).unwrap();
            assert_eq!(back.entries(), plan.entries(), "{json}");
        }
    }

    #[test]
    fn sim_config_round_trips_including_options() {
        let mut cfg = SimConfig::new(48)
            .seed(0xDEAD_BEEF_DEAD_BEEF)
            .max_rounds(33);
        cfg.kt1 = true;
        cfg.record_trace = true;
        cfg.congest_bits = Some(96);
        cfg.send_cap = Some(5);
        cfg.edge_failure_prob = 0.125;
        let back = SimConfig::from_json(&Json::parse(&cfg.to_json().render()).unwrap()).unwrap();
        assert_eq!(back.n, cfg.n);
        assert_eq!(back.seed, cfg.seed);
        assert_eq!(back.max_rounds, cfg.max_rounds);
        assert_eq!(back.kt1, cfg.kt1);
        assert_eq!(back.record_trace, cfg.record_trace);
        assert_eq!(back.congest_bits, cfg.congest_bits);
        assert_eq!(back.send_cap, cfg.send_cap);
        assert_eq!(back.edge_failure_prob, cfg.edge_failure_prob);
        // A plain default config round-trips too (None options), and its
        // rendering carries NO topology field — the pre-topology schema,
        // which keeps committed record ids stable.
        let plain = SimConfig::new(8);
        let text = plain.to_json().render();
        assert!(
            !text.contains("topology"),
            "complete graph must stay schema-invisible: {text}"
        );
        let back = SimConfig::from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(back.send_cap, None);
        assert_eq!(back.congest_bits, None);
        assert!(back.topology.is_complete());
    }

    #[test]
    fn sim_config_round_trips_topologies() {
        use crate::topology::Topology;
        let topos = [
            Topology::DiameterTwo { clusters: 5 },
            Topology::RandomRegular { d: 4 },
            Topology::Explicit {
                adjacency: std::sync::Arc::new(vec![vec![1], vec![0, 2], vec![1]]),
            },
        ];
        for topo in topos {
            let n = if matches!(topo, Topology::Explicit { .. }) {
                3
            } else {
                16
            };
            let cfg = SimConfig::new(n).seed(7).topology(topo.clone());
            let back =
                SimConfig::from_json(&Json::parse(&cfg.to_json().render()).unwrap()).unwrap();
            assert_eq!(back.topology, topo);
        }
        // An invalid topology is rejected at decode time by validate().
        let text = r#"{"n":4,"seed":0,"max_rounds":8,"kt1":false,"record_trace":false,
            "congest_bits":null,"send_cap":null,"edge_failure_prob":0.0,
            "topology":{"kind":"random_regular","d":9}}"#;
        assert!(SimConfig::from_json(&Json::parse(text).unwrap()).is_err());
    }

    /// Encode→decode identity for arbitrary summaries, including floats
    /// with no short decimal form: `{:?}` rendering is shortest-round-trip,
    /// so equality here is bit-exact.
    #[test]
    fn summary_round_trip_property() {
        let mut rng = SmallRng::seed_from_u64(7171);
        for _ in 0..200 {
            let values: Vec<f64> = (0..rng.random_range(1..40u32))
                .map(|_| rng.random_range(0..1u64 << 53) as f64 / 7.0)
                .collect();
            let s = Summary::of(&values);
            let back = Summary::from_json(&Json::parse(&s.to_json().render()).unwrap()).unwrap();
            assert_eq!(back, s);
        }
    }

    fn random_histogram(rng: &mut SmallRng) -> LogHistogram {
        let mut h = LogHistogram::new();
        for _ in 0..rng.random_range(0..50u32) {
            // Bias toward huge samples so the u128 sum overflows u64.
            h.record(rng.random::<u64>() >> rng.random_range(0..64u32));
        }
        h
    }

    #[test]
    fn log_histogram_round_trip_property() {
        let mut rng = SmallRng::seed_from_u64(9292);
        for _ in 0..200 {
            let h = random_histogram(&mut rng);
            let back =
                LogHistogram::from_json(&Json::parse(&h.to_json().render()).unwrap()).unwrap();
            assert_eq!(back, h);
        }
        // The empty histogram (min = u64::MAX sentinel) survives too.
        let empty = LogHistogram::new();
        let back = LogHistogram::from_json(&empty.to_json()).unwrap();
        assert_eq!(back, empty);
        assert_eq!(back.min(), None);
    }

    #[test]
    fn log_histogram_schema_violations_are_rejected() {
        let mut h = LogHistogram::new();
        h.record(12);
        let Json::Obj(mut fields) = h.to_json() else {
            panic!("histogram must encode as object")
        };
        // Corrupt the total so it disagrees with the buckets.
        for (k, v) in &mut fields {
            if k == "total" {
                *v = Json::UInt(99);
            }
        }
        assert!(LogHistogram::from_json(&Json::Obj(fields)).is_err());
        let short = Json::parse(r#"{"counts":[0,1],"total":1,"sum":"1","min":1,"max":1}"#).unwrap();
        assert!(LogHistogram::from_json(&short).is_err());
    }

    fn random_metrics(rng: &mut SmallRng) -> Metrics {
        let mut m = Metrics::new();
        m.rounds = rng.random_range(0..200);
        m.msgs_sent = rng.random();
        m.msgs_delivered = rng.random();
        m.bits_sent = rng.random();
        m.max_edge_bits_per_round = rng.random();
        m.per_round = (0..rng.random_range(0..8u32))
            .map(|_| RoundMetrics {
                sent: rng.random_range(0..1000),
                delivered: rng.random_range(0..1000),
                bits_sent: rng.random_range(0..64000),
                crashes: rng.random_range(0..5),
            })
            .collect();
        m.crashes = (0..rng.random_range(0..6u32))
            .map(|_| (NodeId(rng.random_range(0..64)), rng.random_range(0..30u32)))
            .collect();
        m.msgs_suppressed = rng.random_range(0..100);
        m.msgs_lost_edges = rng.random_range(0..100);
        m.wire_bytes = rng.random();
        m
    }

    #[test]
    fn metrics_round_trip_property() {
        let mut rng = SmallRng::seed_from_u64(31337);
        for _ in 0..200 {
            let m = random_metrics(&mut rng);
            let back = Metrics::from_json(&Json::parse(&m.to_json().render()).unwrap()).unwrap();
            assert_eq!(back, m);
        }
    }

    #[test]
    fn service_metrics_round_trip_property() {
        let mut rng = SmallRng::seed_from_u64(7117);
        for _ in 0..200 {
            let mut s = ServiceMetrics::new();
            for _ in 0..rng.random_range(0..12u32) {
                let leader = rng
                    .random_bool(0.8)
                    .then(|| rng.random_range(0..1u64 << 40));
                s.record_election(leader, rng.random_range(1..200));
                s.record_serving_window(rng.random_range(0..500));
            }
            let back =
                ServiceMetrics::from_json(&Json::parse(&s.to_json().render()).unwrap()).unwrap();
            assert_eq!(back, s);
        }
        // Fresh (no leader yet, null current_leader) survives too.
        let empty = ServiceMetrics::new();
        let back = ServiceMetrics::from_json(&empty.to_json()).unwrap();
        assert_eq!(back, empty);
        assert_eq!(back.availability(), None);
    }

    fn parse(text: &str) -> Json {
        Json::parse(text).unwrap()
    }

    #[test]
    fn identical_values_diff_empty() {
        let v = parse(r#"{"a":[1,{"b":"x"}],"cells":[{"label":"le","n":8}]}"#);
        assert!(diff(&v, &v.clone()).is_empty());
    }

    #[test]
    fn a_nested_cell_key_is_named_by_label_and_path() {
        let base = parse(r#"{"name":"c","cells":[{"label":"le","msgs":{"mean":1.5}}]}"#);
        let fresh = parse(r#"{"name":"c","cells":[{"label":"le","msgs":{"mean":2.5}}]}"#);
        assert_eq!(diff(&base, &fresh), ["cell le: `msgs.mean` 1.5 -> 2.5"]);
        // A portfolio cell carries its label under `cell`.
        let base = parse(r#"{"cells":[{"cell":{"label":"agree-fail"},"hits":0}]}"#);
        let fresh = parse(r#"{"cells":[{"cell":{"label":"agree-fail"},"hits":1}]}"#);
        assert_eq!(diff(&base, &fresh), ["cell agree-fail: `hits` 0 -> 1"]);
        // Outside `cells`, a line is the record's; absent keys say so.
        let base = parse(r#"{"spec":{"seeds":[1,2]},"gone":true}"#);
        let fresh = parse(r#"{"spec":{"seeds":[1,3]},"new":null}"#);
        assert_eq!(
            diff(&base, &fresh),
            [
                "record: `spec.seeds[1]` 2 -> 3",
                "record: `gone` true -> absent",
                "record: `new` absent -> null",
            ]
        );
    }

    #[test]
    fn array_length_and_element_changes_are_reported() {
        let base = parse(r#"{"counts":[1,2]}"#);
        assert_eq!(
            diff(&base, &parse(r#"{"counts":[1,2,3]}"#)),
            ["record: `counts` [1,2] -> [1,2,3]"]
        );
        assert_eq!(
            diff(&base, &parse(r#"{"counts":[1,5]}"#)),
            ["record: `counts[1]` 2 -> 5"]
        );
    }

    #[test]
    fn numbers_compare_by_value() {
        let base = parse(r#"{"rate":1,"mean":2.0}"#);
        let fresh = parse(r#"{"mean":2,"rate":1.0}"#);
        assert!(diff(&base, &fresh).is_empty());
        assert_eq!(
            diff(&base, &parse(r#"{"rate":"1","mean":2.0}"#)),
            [r#"record: `rate` 1 -> "1""#]
        );
    }

    #[test]
    fn long_values_are_elided() {
        let long = "x".repeat(41);
        let base = parse(&format!(r#"{{"artifact":"{long}"}}"#));
        let fresh = parse(r#"{"artifact":"short"}"#);
        assert_eq!(diff(&base, &fresh), [r#"record: `artifact` … -> "short""#]);
    }

    #[test]
    fn invalid_configs_fail_schema_validation() {
        let v = Json::parse(r#"{"n":1,"seed":0,"max_rounds":4,"kt1":false,"record_trace":false,"congest_bits":null,"send_cap":null,"edge_failure_prob":0.0}"#).unwrap();
        assert!(SimConfig::from_json(&v).is_err());
        let bad_filter = Json::parse(r#"{"kind":"martian"}"#).unwrap();
        assert!(DeliveryFilter::from_json(&bad_filter).is_err());
    }
}
