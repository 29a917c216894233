//! Offline stand-in for the `serde` crate.
//!
//! The build environment for this repository has no access to a crate
//! registry, so the real serde cannot be vendored. FEAM only ever writes
//! JSON, so this shim carries the JSON data model itself: [`Value`],
//! [`Number`] and [`Map`], the [`Serialize`] trait that lowers a type
//! straight into a `Value`, the two text writers behind `Value`'s
//! `Display` (`{}` compact, `{:#}` two-space indented), and a derive
//! macro (re-exported from the sibling `serde_derive` shim) for plain
//! structs and enums without generics or `#[serde(...)]` attributes. The
//! sibling `serde_json` shim re-exports the model and adds the parser and
//! `json!`.
//!
//! The serialized shape mirrors serde's default JSON representation so
//! that code written against the real crate keeps producing the same
//! output: named structs become objects, newtype structs unwrap to their
//! inner value, unit enum variants become strings, data-carrying variants
//! become single-key objects.

use std::collections::{BTreeMap, HashMap};
use std::fmt;
use std::sync::Arc;

pub use serde_derive::Serialize;

/// Lower a value into the JSON data model.
pub trait Serialize {
    fn to_value(&self) -> Value;
}

/// JSON number: integers are kept exact, like serde_json's `Number`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Number {
    U64(u64),
    I64(i64),
    F64(f64),
}

impl Number {
    pub fn as_u64(&self) -> Option<u64> {
        match *self {
            Number::U64(v) => Some(v),
            Number::I64(v) => u64::try_from(v).ok(),
            Number::F64(_) => None,
        }
    }

    pub fn as_i64(&self) -> Option<i64> {
        match *self {
            Number::U64(v) => i64::try_from(v).ok(),
            Number::I64(v) => Some(v),
            Number::F64(_) => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match *self {
            Number::U64(v) => Some(v as f64),
            Number::I64(v) => Some(v as f64),
            Number::F64(v) => Some(v),
        }
    }
}

impl fmt::Display for Number {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Number::U64(v) => write!(f, "{v}"),
            Number::I64(v) => write!(f, "{v}"),
            Number::F64(v) => {
                if !v.is_finite() {
                    // serde_json refuses non-finite numbers; emit null so
                    // output stays parseable.
                    write!(f, "null")
                } else if v == v.trunc() && v.abs() < 1e15 {
                    // Keep the trailing `.0` so the value reparses as a
                    // float (serde_json/ryu behavior).
                    write!(f, "{v:.1}")
                } else {
                    write!(f, "{v}")
                }
            }
        }
    }
}

/// Insertion-ordered JSON object, like serde_json's `Map` with the
/// `preserve_order` feature.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Map {
    entries: Vec<(String, Value)>,
}

impl Map {
    pub fn new() -> Self {
        Map::default()
    }

    /// An object from entries whose keys are already distinct (struct
    /// fields, map keys), skipping [`Map::insert`]'s duplicate scan.
    #[doc(hidden)]
    pub fn from_distinct(entries: Vec<(String, Value)>) -> Self {
        Map { entries }
    }

    pub fn insert(&mut self, key: String, value: Value) -> Option<Value> {
        if let Some(slot) = self.entries.iter_mut().find(|(k, _)| *k == key) {
            Some(std::mem::replace(&mut slot.1, value))
        } else {
            self.entries.push((key, value));
            None
        }
    }

    pub fn get(&self, key: &str) -> Option<&Value> {
        self.entries.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    pub fn iter(&self) -> impl Iterator<Item = (&String, &Value)> {
        self.entries.iter().map(|(k, v)| (k, v))
    }
}

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    Null,
    Bool(bool),
    Number(Number),
    String(String),
    Array(Vec<Value>),
    Object(Map),
}

static NULL: Value = Value::Null;

impl Value {
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Number(n) => n.as_u64(),
            _ => None,
        }
    }

    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::Number(n) => n.as_i64(),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Number(n) => n.as_f64(),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_array(&self) -> Option<&Vec<Value>> {
        match self {
            Value::Array(a) => Some(a),
            _ => None,
        }
    }

    pub fn as_object(&self) -> Option<&Map> {
        match self {
            Value::Object(m) => Some(m),
            _ => None,
        }
    }

    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(m) => m.get(key),
            _ => None,
        }
    }
}

impl std::ops::Index<&str> for Value {
    type Output = Value;
    fn index(&self, key: &str) -> &Value {
        self.get(key).unwrap_or(&NULL)
    }
}

impl std::ops::Index<usize> for Value {
    type Output = Value;
    fn index(&self, idx: usize) -> &Value {
        match self {
            Value::Array(a) => a.get(idx).unwrap_or(&NULL),
            _ => &NULL,
        }
    }
}

impl PartialEq<bool> for Value {
    fn eq(&self, other: &bool) -> bool {
        self.as_bool() == Some(*other)
    }
}

impl PartialEq<&str> for Value {
    fn eq(&self, other: &&str) -> bool {
        self.as_str() == Some(*other)
    }
}

macro_rules! value_eq_num {
    ($($t:ty => $accessor:ident as $cast:ty),* $(,)?) => {$(
        impl PartialEq<$t> for Value {
            fn eq(&self, other: &$t) -> bool {
                self.$accessor() == Some(*other as $cast)
            }
        }
    )*};
}

value_eq_num!(
    u32 => as_u64 as u64, u64 => as_u64 as u64,
    i32 => as_i64 as i64, f64 => as_f64 as f64,
);

// ---- text writers ---------------------------------------------------------

impl fmt::Display for Value {
    /// Compact JSON; `{:#}` writes it indented by two spaces.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if f.alternate() {
            write_pretty(f, self, 0)
        } else {
            write_compact(f, self)
        }
    }
}

fn write_escaped(out: &mut impl fmt::Write, s: &str) -> fmt::Result {
    out.write_char('"')?;
    // Every byte that needs escaping is ASCII, so `s` splits into valid
    // UTF-8 runs around it.
    let mut run = 0;
    for (i, b) in s.bytes().enumerate() {
        let escape = match b {
            b'"' => "\\\"",
            b'\\' => "\\\\",
            b'\n' => "\\n",
            b'\r' => "\\r",
            b'\t' => "\\t",
            0x08 => "\\b",
            0x0c => "\\f",
            0..=0x1f => "",
            _ => continue,
        };
        out.write_str(&s[run..i])?;
        if escape.is_empty() {
            write!(out, "\\u{b:04x}")?;
        } else {
            out.write_str(escape)?;
        }
        run = i + 1;
    }
    out.write_str(&s[run..])?;
    out.write_char('"')
}

fn write_compact(out: &mut impl fmt::Write, v: &Value) -> fmt::Result {
    match v {
        Value::Null => out.write_str("null"),
        Value::Bool(true) => out.write_str("true"),
        Value::Bool(false) => out.write_str("false"),
        Value::Number(n) => write!(out, "{n}"),
        Value::String(s) => write_escaped(out, s),
        Value::Array(items) => {
            out.write_char('[')?;
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.write_char(',')?;
                }
                write_compact(out, item)?;
            }
            out.write_char(']')
        }
        Value::Object(map) => {
            out.write_char('{')?;
            for (i, (k, val)) in map.iter().enumerate() {
                if i > 0 {
                    out.write_char(',')?;
                }
                write_escaped(out, k)?;
                out.write_char(':')?;
                write_compact(out, val)?;
            }
            out.write_char('}')
        }
    }
}

fn write_pad(out: &mut impl fmt::Write, indent: usize) -> fmt::Result {
    (0..indent).try_for_each(|_| out.write_str("  "))
}

fn write_pretty(out: &mut impl fmt::Write, v: &Value, indent: usize) -> fmt::Result {
    match v {
        Value::Array(items) if !items.is_empty() => {
            out.write_str("[\n")?;
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.write_str(",\n")?;
                }
                write_pad(out, indent + 1)?;
                write_pretty(out, item, indent + 1)?;
            }
            out.write_char('\n')?;
            write_pad(out, indent)?;
            out.write_char(']')
        }
        Value::Object(map) if !map.is_empty() => {
            out.write_str("{\n")?;
            for (i, (k, val)) in map.iter().enumerate() {
                if i > 0 {
                    out.write_str(",\n")?;
                }
                write_pad(out, indent + 1)?;
                write_escaped(out, k)?;
                out.write_str(": ")?;
                write_pretty(out, val, indent + 1)?;
            }
            out.write_char('\n')?;
            write_pad(out, indent)?;
            out.write_char('}')
        }
        other => write_compact(out, other),
    }
}

// ---- primitive impls ------------------------------------------------------

impl Serialize for bool {
    fn to_value(&self) -> Value {
        Value::Bool(*self)
    }
}

macro_rules! unsigned_impl {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value {
                Value::Number(Number::U64(*self as u64))
            }
        }
    )*};
}

unsigned_impl!(u8, u16, u32, u64, usize);

macro_rules! signed_impl {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            /// Like real serde_json, a non-negative integer is stored
            /// unsigned, so a value compares equal to its parsed-back self.
            fn to_value(&self) -> Value {
                let v = *self as i64;
                Value::Number(if v >= 0 { Number::U64(v as u64) } else { Number::I64(v) })
            }
        }
    )*};
}

signed_impl!(i32, i64);

impl Serialize for f64 {
    fn to_value(&self) -> Value {
        Value::Number(Number::F64(*self))
    }
}

impl Serialize for String {
    fn to_value(&self) -> Value {
        Value::String(self.clone())
    }
}

impl Serialize for str {
    fn to_value(&self) -> Value {
        Value::String(self.to_string())
    }
}

impl Serialize for Value {
    fn to_value(&self) -> Value {
        self.clone()
    }
}

// ---- composite impls ------------------------------------------------------

impl<T: Serialize + ?Sized> Serialize for &T {
    fn to_value(&self) -> Value {
        (**self).to_value()
    }
}

impl<T: Serialize + ?Sized> Serialize for Arc<T> {
    fn to_value(&self) -> Value {
        (**self).to_value()
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn to_value(&self) -> Value {
        match self {
            Some(v) => v.to_value(),
            None => Value::Null,
        }
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn to_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_value).collect())
    }
}

macro_rules! tuple_impl {
    ($(($($name:ident : $idx:tt),+)),* $(,)?) => {$(
        impl<$($name: Serialize),+> Serialize for ($($name,)+) {
            fn to_value(&self) -> Value {
                Value::Array(vec![$(self.$idx.to_value()),+])
            }
        }
    )*};
}

tuple_impl!(
    (A: 0, B: 1),
    (A: 0, B: 1, C: 2),
);

impl<V: Serialize> Serialize for BTreeMap<String, V> {
    fn to_value(&self) -> Value {
        Value::Object(Map::from_distinct(
            self.iter()
                .map(|(k, v)| (k.clone(), v.to_value()))
                .collect(),
        ))
    }
}

impl<V: Serialize> Serialize for HashMap<String, V> {
    fn to_value(&self) -> Value {
        // Sort for deterministic output, like serde_json's BTreeMap-backed
        // objects.
        let mut entries: Vec<(String, Value)> = self
            .iter()
            .map(|(k, v)| (k.clone(), v.to_value()))
            .collect();
        entries.sort_by(|a, b| a.0.cmp(&b.0));
        Value::Object(Map::from_distinct(entries))
    }
}
