//! Atomic (leaf) types of the inferred schema.

use docmodel::{Value, ValueKind};

/// The type of an atomic schema leaf, i.e. of one column.
///
/// `null` is a type like any other: a field seen as `null` gets a `Null`
/// branch, whose column holds levels and no values. A container seen only
/// empty (`[]`, `{}`) is a `Null`-typed column of its own as well
/// ([`crate::columns_of`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum AtomicType {
    /// Boolean values.
    Bool,
    /// 64-bit integers.
    Int,
    /// 64-bit IEEE-754 doubles.
    Double,
    /// UTF-8 strings.
    String,
    /// `null`: the level says it is there, and there is nothing to store.
    Null,
}

impl AtomicType {
    /// The atomic type of a value, or `None` for nested values.
    pub fn of(value: &Value) -> Option<AtomicType> {
        match value.kind() {
            ValueKind::Null => Some(AtomicType::Null),
            ValueKind::Bool => Some(AtomicType::Bool),
            ValueKind::Int => Some(AtomicType::Int),
            ValueKind::Double => Some(AtomicType::Double),
            ValueKind::String => Some(AtomicType::String),
            ValueKind::Array | ValueKind::Object => None,
        }
    }

    /// Short name, used as the key of a union branch (paper Figure 6 keys
    /// union children by their type name).
    pub fn name(self) -> &'static str {
        match self {
            AtomicType::Null => "null",
            AtomicType::Bool => "boolean",
            AtomicType::Int => "int",
            AtomicType::Double => "double",
            AtomicType::String => "string",
        }
    }

    /// Stable numeric tag for persistence.
    pub fn tag(self) -> u8 {
        match self {
            AtomicType::Bool => 0,
            AtomicType::Int => 1,
            AtomicType::Double => 2,
            AtomicType::String => 3,
            AtomicType::Null => 4,
        }
    }

    /// Inverse of [`AtomicType::tag`].
    pub fn from_tag(tag: u8) -> Option<AtomicType> {
        Some(match tag {
            0 => AtomicType::Bool,
            1 => AtomicType::Int,
            2 => AtomicType::Double,
            3 => AtomicType::String,
            4 => AtomicType::Null,
            _ => return None,
        })
    }

    /// `true` if `value` has exactly this atomic type.
    pub fn matches(self, value: &Value) -> bool {
        AtomicType::of(value) == Some(self)
    }
}

impl std::fmt::Display for AtomicType {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use docmodel::doc;

    #[test]
    fn atomic_type_of_values() {
        assert_eq!(AtomicType::of(&Value::Bool(true)), Some(AtomicType::Bool));
        assert_eq!(AtomicType::of(&Value::Int(3)), Some(AtomicType::Int));
        assert_eq!(AtomicType::of(&Value::Double(3.5)), Some(AtomicType::Double));
        assert_eq!(AtomicType::of(&Value::from("s")), Some(AtomicType::String));
        assert_eq!(AtomicType::of(&Value::Null), Some(AtomicType::Null));
        assert_eq!(AtomicType::of(&doc!([1])), None);
        assert_eq!(AtomicType::of(&doc!({"a": 1})), None);
    }

    #[test]
    fn tags_roundtrip() {
        for t in [
            AtomicType::Null,
            AtomicType::Bool,
            AtomicType::Int,
            AtomicType::Double,
            AtomicType::String,
        ] {
            assert_eq!(AtomicType::from_tag(t.tag()), Some(t));
        }
        assert_eq!(AtomicType::from_tag(9), None);
    }

    #[test]
    fn matches_checks_exact_type() {
        assert!(AtomicType::Int.matches(&Value::Int(1)));
        assert!(!AtomicType::Int.matches(&Value::Double(1.0)));
        assert!(!AtomicType::String.matches(&Value::Null));
        assert!(AtomicType::Null.matches(&Value::Null));
    }

    #[test]
    fn names_are_distinct() {
        let names: std::collections::HashSet<_> = [
            AtomicType::Null,
            AtomicType::Bool,
            AtomicType::Int,
            AtomicType::Double,
            AtomicType::String,
        ]
        .iter()
        .map(|t| t.name())
        .collect();
        assert_eq!(names.len(), 5);
    }
}
