//! Offline stand-in for the `serde_json` crate.
//!
//! Re-exports the `serde` shim's JSON data model ([`Value`], [`Number`],
//! [`Map`], [`Serialize`]) and adds what the workspace calls on top of
//! it: [`to_value`], [`to_string`], [`to_string_pretty`], the [`json!`]
//! macro, and [`from_str`], which parses JSON text into a [`Value`].

use std::fmt;

mod parse;

pub use parse::from_str;
pub use serde::{Map, Number, Serialize, Value};

/// A JSON parse error: what was expected and where. Serializing never
/// fails; `to_value` and the writers return `Result` to keep
/// serde_json's signatures.
#[derive(Debug)]
pub struct Error(pub(crate) String);

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "serde_json shim: {}", self.0)
    }
}

impl std::error::Error for Error {}

/// Convert any serializable value into a [`Value`].
pub fn to_value<T: Serialize>(value: T) -> Result<Value, Error> {
    Ok(value.to_value())
}

/// Infallible conversion used by the `json!` macro.
#[doc(hidden)]
pub fn __to_value<T: Serialize>(value: &T) -> Value {
    value.to_value()
}

/// Serialize to a compact JSON string.
pub fn to_string<T: Serialize>(value: &T) -> Result<String, Error> {
    Ok(value.to_value().to_string())
}

/// Serialize to a human-readable, two-space-indented JSON string.
pub fn to_string_pretty<T: Serialize>(value: &T) -> Result<String, Error> {
    Ok(format!("{:#}", value.to_value()))
}

/// Build a [`Value`] from JSON-like syntax. Supports `null`, literals,
/// arbitrary serializable expressions, arrays and objects with
/// expression keys and values, like the real `serde_json::json!`.
#[macro_export]
macro_rules! json {
    (null) => { $crate::Value::Null };
    ([ $($tt:tt)* ]) => { $crate::json_internal_array!([] $($tt)*) };
    ({ $($tt:tt)* }) => { $crate::json_internal_object!(@object [] () $($tt)*) };
    ($other:expr) => { $crate::__to_value(&$other) };
}

/// Array muncher: accumulates finished elements, munching one token tree
/// at a time into the pending element.
#[doc(hidden)]
#[macro_export]
macro_rules! json_internal_array {
    // Done, no pending element.
    ([ $($done:expr,)* ]) => {
        $crate::Value::Array(vec![ $($done),* ])
    };
    // Next element is a nested array.
    ([ $($done:expr,)* ] [ $($inner:tt)* ] $(, $($rest:tt)*)?) => {
        $crate::json_internal_array!([ $($done,)* $crate::json!([ $($inner)* ]), ] $($($rest)*)?)
    };
    // Next element is a nested object.
    ([ $($done:expr,)* ] { $($inner:tt)* } $(, $($rest:tt)*)?) => {
        $crate::json_internal_array!([ $($done,)* $crate::json!({ $($inner)* }), ] $($($rest)*)?)
    };
    // Next element is null.
    ([ $($done:expr,)* ] null $(, $($rest:tt)*)?) => {
        $crate::json_internal_array!([ $($done,)* $crate::Value::Null, ] $($($rest)*)?)
    };
    // Next element is a general expression (munch up to the next comma).
    ([ $($done:expr,)* ] $expr:expr $(, $($rest:tt)*)?) => {
        $crate::json_internal_array!([ $($done,)* $crate::__to_value(&$expr), ] $($($rest)*)?)
    };
}

/// Object muncher: `[done entries] (pending key tokens) rest...`.
/// Keys are expressions followed by `:`; values may be nested json.
#[doc(hidden)]
#[macro_export]
macro_rules! json_internal_object {
    // Done.
    (@object [ $($done:expr,)* ] ()) => {{
        let mut map = $crate::Map::new();
        $( let (k, v) = $done; map.insert(k, v); )*
        $crate::Value::Object(map)
    }};
    // Trailing comma already consumed by value rules; plain end.
    (@object [ $($done:expr,)* ] () ,) => {
        $crate::json_internal_object!(@object [ $($done,)* ] ())
    };
    // Key complete, value is a nested array.
    (@object [ $($done:expr,)* ] ($($key:tt)+) : [ $($inner:tt)* ] $(, $($rest:tt)*)?) => {
        $crate::json_internal_object!(@object
            [ $($done,)* ($crate::json_key!($($key)+), $crate::json!([ $($inner)* ])), ]
            () $($($rest)*)?)
    };
    // Key complete, value is a nested object.
    (@object [ $($done:expr,)* ] ($($key:tt)+) : { $($inner:tt)* } $(, $($rest:tt)*)?) => {
        $crate::json_internal_object!(@object
            [ $($done,)* ($crate::json_key!($($key)+), $crate::json!({ $($inner)* })), ]
            () $($($rest)*)?)
    };
    // Key complete, value is null.
    (@object [ $($done:expr,)* ] ($($key:tt)+) : null $(, $($rest:tt)*)?) => {
        $crate::json_internal_object!(@object
            [ $($done,)* ($crate::json_key!($($key)+), $crate::Value::Null), ]
            () $($($rest)*)?)
    };
    // Key complete, value is a general expression.
    (@object [ $($done:expr,)* ] ($($key:tt)+) : $value:expr $(, $($rest:tt)*)?) => {
        $crate::json_internal_object!(@object
            [ $($done,)* ($crate::json_key!($($key)+), $crate::__to_value(&$value)), ]
            () $($($rest)*)?)
    };
    // Munch one token into the pending key.
    (@object [ $($done:expr,)* ] ($($key:tt)*) $tt:tt $($rest:tt)*) => {
        $crate::json_internal_object!(@object [ $($done,)* ] ($($key)* $tt) $($rest)*)
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! json_key {
    ($key:expr) => {
        ($key).to_string()
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_macro_builds_nested_values() {
        let n = 3u32;
        let v = json!({
            "name": "feam",
            "ready": true,
            "count": n,
            "list": [1, 2, n],
            "nested": { "inner": null, "opt": Option::<u32>::None },
            "computed": format!("{}-{}", "a", 1),
        });
        assert_eq!(v["name"], "feam");
        assert_eq!(v["ready"], true);
        assert_eq!(v["count"], 3u32);
        assert_eq!(v["list"].as_array().unwrap().len(), 3);
        assert!(v["nested"]["inner"].is_null());
        assert!(v["nested"]["opt"].is_null());
        assert_eq!(v["computed"], "a-1");
        assert_eq!(v["missing"], Value::Null);
    }

    #[test]
    fn compact_round_trip() {
        let v = json!({
            "s": "a \"quoted\" string\nwith newline",
            "f": 51.0,
            "i": -3,
            "u": 18_000_000_000_000_000_000u64,
            "arr": [true, false, null, { "k": 1.5 }],
        });
        let text = to_string(&v).unwrap();
        let back: Value = from_str(&text).unwrap();
        assert_eq!(back, v);
    }

    #[test]
    fn pretty_output_parses_back() {
        let v = json!({ "a": [1, 2], "b": { "c": "d" } });
        let text = to_string_pretty(&v).unwrap();
        assert!(text.contains("\n"));
        let back: Value = from_str(&text).unwrap();
        assert_eq!(back, v);
    }

    #[test]
    fn float_integers_keep_their_point() {
        assert_eq!(to_string(&json!(51.0f64)).unwrap(), "51.0");
        assert_eq!(to_string(&json!(51u32)).unwrap(), "51");
    }

    #[test]
    fn strings_escape_only_quotes_backslashes_and_controls() {
        let s = "a\u{1}é\"\\\t\u{7f}→";
        assert_eq!(to_string(&s).unwrap(), "\"a\\u0001é\\\"\\\\\\t\u{7f}→\"");
    }

    #[derive(serde::Serialize)]
    struct Named {
        zeta: u8,
        alpha: Option<u8>,
        items: Vec<&'static str>,
    }

    #[derive(serde::Serialize)]
    struct Newtype(u32);

    #[derive(serde::Serialize)]
    struct Pair(u8, &'static str);

    #[derive(serde::Serialize)]
    enum Shape {
        Unit,
        Newtype(u8),
        Tuple(u8, bool),
        Struct { b: u8, a: u8 },
    }

    #[test]
    fn derived_structs_keep_serde_shapes() {
        let named = Named {
            zeta: 1,
            alpha: None,
            items: vec!["x"],
        };
        let v = to_value(&named).unwrap();
        let keys: Vec<&String> = v.as_object().unwrap().iter().map(|(k, _)| k).collect();
        assert_eq!(keys, ["zeta", "alpha", "items"], "declaration order");
        assert_eq!(
            to_string(&named).unwrap(),
            r#"{"zeta":1,"alpha":null,"items":["x"]}"#
        );
        assert_eq!(to_string(&Newtype(7)).unwrap(), "7");
        assert_eq!(to_string(&Pair(2, "y")).unwrap(), r#"[2,"y"]"#);
    }

    #[test]
    fn derived_enum_variants_keep_serde_shapes() {
        let text = |s: Shape| to_string(&s).unwrap();
        assert_eq!(text(Shape::Unit), r#""Unit""#);
        assert_eq!(text(Shape::Newtype(3)), r#"{"Newtype":3}"#);
        assert_eq!(text(Shape::Tuple(4, true)), r#"{"Tuple":[4,true]}"#);
        assert_eq!(
            text(Shape::Struct { b: 5, a: 6 }),
            r#"{"Struct":{"b":5,"a":6}}"#
        );
    }

    #[test]
    fn primitives_lower_to_json_values() {
        assert_eq!(to_value(Option::<u8>::None).unwrap(), Value::Null);
        assert_eq!(to_value(3i64).unwrap(), Value::Number(Number::U64(3)));
        assert_eq!(to_value(-3i64).unwrap(), Value::Number(Number::I64(-3)));
        let map: std::collections::HashMap<String, u8> = [
            ("b".to_string(), 2),
            ("a".to_string(), 1),
            ("c".to_string(), 3),
        ]
        .into();
        assert_eq!(to_string(&map).unwrap(), r#"{"a":1,"b":2,"c":3}"#);
        assert_eq!(to_string(&51.0f64).unwrap(), "51.0");
    }
}
