//! The [`Value`] type: a JSON-like, schemaless document value.
//!
//! Objects preserve insertion order (a `Vec` of key/value pairs) because
//! document stores round-trip documents byte-for-byte as users wrote them and
//! because the schema-inference pass benefits from a stable field order.

use std::fmt;

use crate::path::{Path, PathStep};

/// The kind (dynamic type tag) of a [`Value`].
///
/// `ValueKind` is what the schema crate records in inferred schema leaves and
/// what union nodes discriminate on: two values with different kinds observed
/// under the same field force a union.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ValueKind {
    /// Explicit JSON `null`.
    Null,
    /// Boolean.
    Bool,
    /// 64-bit signed integer.
    Int,
    /// 64-bit IEEE-754 double.
    Double,
    /// UTF-8 string.
    String,
    /// Ordered list of heterogeneous values.
    Array,
    /// Ordered set of key/value pairs.
    Object,
}

impl ValueKind {
    /// `true` for kinds that carry a scalar payload (everything but
    /// arrays/objects). Nulls are treated as atomic: they terminate a path.
    pub fn is_atomic(self) -> bool {
        !matches!(self, ValueKind::Array | ValueKind::Object)
    }

    /// Short lowercase name used by schema pretty-printing and union keys
    /// (mirrors the paper's Figure 6 where union children are keyed by the
    /// name of their type).
    pub fn name(self) -> &'static str {
        match self {
            ValueKind::Null => "null",
            ValueKind::Bool => "boolean",
            ValueKind::Int => "int",
            ValueKind::Double => "double",
            ValueKind::String => "string",
            ValueKind::Array => "array",
            ValueKind::Object => "object",
        }
    }
}

impl fmt::Display for ValueKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A schemaless, JSON-like document value.
///
/// This is the logical representation used at ingestion time (before the
/// tuple compactor turns records into the vector-based physical format) and
/// at query time (after record assembly from columns).
#[derive(Debug, Clone, PartialEq)]
#[derive(Default)]
pub enum Value {
    /// Explicit `null`.
    #[default]
    Null,
    /// Boolean.
    Bool(bool),
    /// 64-bit signed integer. The paper's datasets use integer keys,
    /// timestamps, durations and sensor ids.
    Int(i64),
    /// Double-precision float (sensor readings, coordinates, ...).
    Double(f64),
    /// UTF-8 string.
    String(String),
    /// Array of (possibly heterogeneous) values.
    Array(Vec<Value>),
    /// Object: insertion-ordered key/value pairs. Keys are unique; the last
    /// binding wins when building with [`Value::set_field`].
    Object(Vec<(String, Value)>),
}

impl Value {
    /// Dynamic type of this value.
    pub fn kind(&self) -> ValueKind {
        match self {
            Value::Null => ValueKind::Null,
            Value::Bool(_) => ValueKind::Bool,
            Value::Int(_) => ValueKind::Int,
            Value::Double(_) => ValueKind::Double,
            Value::String(_) => ValueKind::String,
            Value::Array(_) => ValueKind::Array,
            Value::Object(_) => ValueKind::Object,
        }
    }

    /// Empty object, the starting point for builder-style construction.
    pub fn empty_object() -> Value {
        Value::Object(Vec::new())
    }

    /// `true` if this is `Value::Null`.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// `true` for atomic (non-nested) values, including `null`.
    pub fn is_atomic(&self) -> bool {
        self.kind().is_atomic()
    }

    /// Borrow as bool if the value is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Borrow as i64 if the value is an integer.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// Borrow as f64 if the value is numeric (int or double).
    ///
    /// Queries in the paper (e.g. `MAX(r.temp)`) aggregate over numeric
    /// columns regardless of whether a particular record stored an int or a
    /// double, so numeric widening lives here.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(i) => Some(*i as f64),
            Value::Double(d) => Some(*d),
            _ => None,
        }
    }

    /// Borrow as &str if the value is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s.as_str()),
            _ => None,
        }
    }

    /// Borrow the element slice if the value is an array.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(a) => Some(a.as_slice()),
            _ => None,
        }
    }

    /// Borrow the field slice if the value is an object.
    pub fn as_object(&self) -> Option<&[(String, Value)]> {
        match self {
            Value::Object(o) => Some(o.as_slice()),
            _ => None,
        }
    }

    /// Look up a top-level field of an object. Returns `None` both when the
    /// value is not an object and when the field is absent (missing).
    pub fn get_field(&self, name: &str) -> Option<&Value> {
        match self {
            Value::Object(fields) => fields.iter().find(|(k, _)| k == name).map(|(_, v)| v),
            _ => None,
        }
    }

    /// A copy of this record holding what `projection` reads: with
    /// `Some(paths)`, only the top-level fields the paths start at — every
    /// field when a path is the root or starts with an array or union step,
    /// or when the value is not an object; with `None`, everything. What a
    /// point read copies out of a memtable for a projected query.
    pub fn clone_projected(&self, projection: Option<&[Path]>) -> Value {
        let first_fields: Option<Vec<&str>> = projection.and_then(|paths| {
            paths
                .iter()
                .map(|path| match path.steps().first() {
                    Some(PathStep::Field(name)) => Some(name.as_str()),
                    _ => None,
                })
                .collect()
        });
        match (first_fields, self) {
            (Some(read), Value::Object(fields)) => Value::Object(
                fields
                    .iter()
                    .filter(|(name, _)| read.contains(&name.as_str()))
                    .cloned()
                    .collect(),
            ),
            _ => self.clone(),
        }
    }

    /// Set (or replace) a top-level field of an object. Panics if the value
    /// is not an object — the builder API is only meant for objects.
    pub fn set_field(&mut self, name: impl Into<String>, value: Value) -> &mut Value {
        let name = name.into();
        match self {
            Value::Object(fields) => {
                if let Some(slot) = fields.iter_mut().find(|(k, _)| *k == name) {
                    slot.1 = value;
                } else {
                    fields.push((name, value));
                }
            }
            other => panic!("set_field on non-object value: {:?}", other.kind()),
        }
        self
    }

    /// Builder-style variant of [`Value::set_field`].
    pub fn with_field(mut self, name: impl Into<String>, value: Value) -> Value {
        self.set_field(name, value);
        self
    }

    /// Navigate a dotted path such as `"name.first"` or
    /// `"entities.hashtags"`. Array steps are not supported by this
    /// string-based helper (use [`crate::Path`] for `[*]` semantics); it is a
    /// convenience for tests, examples and simple scalar projections.
    pub fn get_path_str(&self, dotted: &str) -> Option<&Value> {
        let mut cur = self;
        for step in dotted.split('.') {
            cur = cur.get_field(step)?;
        }
        Some(cur)
    }

    /// Number of key/value pairs (objects), elements (arrays), or 1 for
    /// atomic values. Used by workload generators and sanity checks.
    pub fn len(&self) -> usize {
        match self {
            Value::Array(a) => a.len(),
            Value::Object(o) => o.len(),
            _ => 1,
        }
    }

    /// `true` when an array/object has no children.
    pub fn is_empty(&self) -> bool {
        match self {
            Value::Array(a) => a.is_empty(),
            Value::Object(o) => o.is_empty(),
            _ => false,
        }
    }

    /// Rough number of bytes this value would occupy in a naive row
    /// serialization (used by the in-memory component budget accounting and
    /// by the data generators to hit target record sizes).
    pub fn approx_size(&self) -> usize {
        match self {
            Value::Null => 1,
            Value::Bool(_) => 1,
            Value::Int(_) => 8,
            Value::Double(_) => 8,
            Value::String(s) => 4 + s.len(),
            Value::Array(a) => 4 + a.iter().map(Value::approx_size).sum::<usize>(),
            Value::Object(o) => {
                4 + o
                    .iter()
                    .map(|(k, v)| 2 + k.len() + v.approx_size())
                    .sum::<usize>()
            }
        }
    }

    /// Count of atomic (leaf) values in the document, counting `null`s.
    /// This is the number of (def-level, value) entries the shredder will
    /// emit across all columns for this record, modulo union bookkeeping.
    pub fn atomic_count(&self) -> usize {
        match self {
            Value::Array(a) => a.iter().map(Value::atomic_count).sum(),
            Value::Object(o) => o.iter().map(|(_, v)| v.atomic_count()).sum(),
            _ => 1,
        }
    }

    /// Maximum nesting depth: atomic values have depth 0, `{"a": [1]}` has
    /// depth 2. Used by tests and by the Open-format writer which needs a
    /// pointer per nesting level.
    pub fn depth(&self) -> usize {
        match self {
            Value::Array(a) => 1 + a.iter().map(Value::depth).max().unwrap_or(0),
            Value::Object(o) => 1 + o.iter().map(|(_, v)| v.depth()).max().unwrap_or(0),
            _ => 0,
        }
    }
}


impl From<bool> for Value {
    fn from(b: bool) -> Self {
        Value::Bool(b)
    }
}
impl From<i32> for Value {
    fn from(i: i32) -> Self {
        Value::Int(i64::from(i))
    }
}
impl From<i64> for Value {
    fn from(i: i64) -> Self {
        Value::Int(i)
    }
}
impl From<u32> for Value {
    fn from(i: u32) -> Self {
        Value::Int(i64::from(i))
    }
}
impl From<f64> for Value {
    fn from(d: f64) -> Self {
        Value::Double(d)
    }
}
impl From<&str> for Value {
    fn from(s: &str) -> Self {
        Value::String(s.to_string())
    }
}
impl From<String> for Value {
    fn from(s: String) -> Self {
        Value::String(s)
    }
}
impl<T: Into<Value>> From<Vec<T>> for Value {
    fn from(v: Vec<T>) -> Self {
        Value::Array(v.into_iter().map(Into::into).collect())
    }
}
impl<T: Into<Value>> From<Option<T>> for Value {
    fn from(v: Option<T>) -> Self {
        match v {
            Some(x) => x.into(),
            None => Value::Null,
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&crate::print::to_json(self))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gamer_record() -> Value {
        // Record 2 from Figure 4a of the paper.
        Value::empty_object()
            .with_field("id", Value::Int(2))
            .with_field(
                "name",
                Value::empty_object()
                    .with_field("first", Value::from("John"))
                    .with_field("last", Value::from("Smith")),
            )
            .with_field(
                "games",
                Value::Array(vec![
                    Value::empty_object()
                        .with_field("title", Value::from("NBA"))
                        .with_field("consoles", Value::from(vec!["PS4", "PC"])),
                    Value::empty_object()
                        .with_field("title", Value::from("NFL"))
                        .with_field("consoles", Value::from(vec!["XBOX"])),
                ]),
            )
    }

    #[test]
    fn kind_reports_dynamic_type() {
        assert_eq!(Value::Null.kind(), ValueKind::Null);
        assert_eq!(Value::Bool(true).kind(), ValueKind::Bool);
        assert_eq!(Value::Int(1).kind(), ValueKind::Int);
        assert_eq!(Value::Double(1.5).kind(), ValueKind::Double);
        assert_eq!(Value::from("x").kind(), ValueKind::String);
        assert_eq!(Value::Array(vec![]).kind(), ValueKind::Array);
        assert_eq!(Value::empty_object().kind(), ValueKind::Object);
    }

    #[test]
    fn field_access_and_paths() {
        let rec = gamer_record();
        assert_eq!(rec.get_field("id"), Some(&Value::Int(2)));
        assert_eq!(
            rec.get_path_str("name.last").and_then(Value::as_str),
            Some("Smith")
        );
        assert!(rec.get_path_str("name.middle").is_none());
        assert!(rec.get_path_str("does.not.exist").is_none());
    }

    #[test]
    fn set_field_replaces_existing_binding() {
        let mut v = Value::empty_object();
        v.set_field("a", Value::Int(1));
        v.set_field("a", Value::Int(2));
        assert_eq!(v.as_object().unwrap().len(), 1);
        assert_eq!(v.get_field("a"), Some(&Value::Int(2)));
    }

    #[test]
    #[should_panic(expected = "set_field on non-object")]
    fn set_field_panics_on_scalar() {
        let mut v = Value::Int(3);
        v.set_field("a", Value::Null);
    }

    #[test]
    fn numeric_widening() {
        assert_eq!(Value::Int(3).as_f64(), Some(3.0));
        assert_eq!(Value::Double(2.5).as_f64(), Some(2.5));
        assert_eq!(Value::from("x").as_f64(), None);
    }

    #[test]
    fn structural_metrics() {
        let rec = gamer_record();
        // id, first, last, 2 titles, 3 consoles = 8 atomic values.
        assert_eq!(rec.atomic_count(), 8);
        assert_eq!(rec.depth(), 4); // root obj -> games array -> element obj -> consoles array
        assert!(rec.approx_size() > 0);
        assert!(!rec.is_empty());
        assert!(Value::Array(vec![]).is_empty());
    }

    #[test]
    fn from_conversions() {
        assert_eq!(Value::from(5i32), Value::Int(5));
        assert_eq!(Value::from(5u32), Value::Int(5));
        assert_eq!(Value::from(Some(7i64)), Value::Int(7));
        assert_eq!(Value::from(Option::<i64>::None), Value::Null);
        assert_eq!(
            Value::from(vec![1i64, 2]),
            Value::Array(vec![Value::Int(1), Value::Int(2)])
        );
    }

    #[test]
    fn projected_clones_keep_the_top_level_fields_the_paths_start_at() {
        let rec = gamer_record();
        let paths = ["name.first", "id", "absent"].map(Path::parse);
        // In the record's own field order, `games` left out.
        let narrow = crate::doc!({"id": 2, "name": {"first": "John", "last": "Smith"}});
        assert_eq!(rec.clone_projected(Some(&paths)), narrow);
        assert_eq!(rec.clone_projected(Some(&[])), Value::empty_object());
        assert_eq!(rec.clone_projected(None), rec);
        let root = Path::root();
        for whole in [root.clone(), root.elements(), root.union_branch("object")] {
            assert_eq!(rec.clone_projected(Some(&[Path::parse("id"), whole])), rec);
        }
        assert_eq!(Value::Int(3).clone_projected(Some(&paths)), Value::Int(3));
    }
}
