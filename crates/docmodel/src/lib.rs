//! # docmodel — schemaless document data model
//!
//! This crate provides the *logical* data model shared by every layer of the
//! reproduction: a JSON-like [`Value`] type that can represent the flexible,
//! schemaless documents a document store ingests, together with a JSON text
//! parser ([`parse_json`]), a printer ([`to_json`]), dotted field
//! [`path::Path`]s used by queries and schema inference, and a total ordering
//! over values used for primary keys and zone-map filters.
//!
//! Document stores (MongoDB, Couchbase, AsterixDB) do not require a schema:
//! two records of the same collection may disagree on which fields exist and
//! even on the *type* of a field. The model therefore allows arbitrary
//! heterogeneity — the schema crate later *infers* a structure (with union
//! nodes) from observed values.
//!
//! The model intentionally distinguishes `Null` (an explicit JSON `null`)
//! from a field that is simply absent. SQL++ — the query language of the
//! system the paper extends — makes the same distinction, and the extended
//! Dremel format encodes both through definition levels.

pub mod cmp;
pub mod parse;
pub mod path;
pub mod print;
pub mod value;

pub use cmp::total_cmp;
pub use parse::{parse_json, parse_json_stream, ParseError};
pub use path::{Path, PathStep};
pub use print::{to_json, to_json_pretty};
pub use value::{Value, ValueKind};

/// Convenience macro for building [`Value`] objects in tests and examples.
///
/// ```
/// use docmodel::doc;
/// let v = doc!({"id": 1, "name": {"first": "Ann"}, "tags": ["a", "b"]});
/// assert_eq!(v.get_path_str("name.first").unwrap().as_str(), Some("Ann"));
/// ```
#[macro_export]
macro_rules! doc {
    (null) => { $crate::Value::Null };
    ([ $( $elem:tt ),* $(,)? ]) => {
        $crate::Value::Array(vec![ $( $crate::doc!($elem) ),* ])
    };
    ({ $( $key:tt : $val:tt ),* $(,)? }) => {
        $crate::Value::Object(vec![ $( ($key.to_string(), $crate::doc!($val)) ),* ])
    };
    ($other:expr) => { $crate::Value::from($other) };
}

#[cfg(test)]
mod macro_tests {
    use crate::Value;

    #[test]
    fn doc_macro_builds_nested_values() {
        let v = doc!({"id": 7, "nested": {"x": [1, 2, 3], "ok": true}, "n": null});
        assert_eq!(v.get_field("id"), Some(&Value::Int(7)));
        assert_eq!(
            v.get_path_str("nested.x").unwrap().as_array().unwrap().len(),
            3
        );
        assert_eq!(v.get_field("n"), Some(&Value::Null));
    }

    #[test]
    fn doc_macro_scalars() {
        assert_eq!(doc!(3.5), Value::Double(3.5));
        assert_eq!(doc!("hi"), Value::String("hi".to_string()));
        assert_eq!(doc!(false), Value::Bool(false));
    }
}
