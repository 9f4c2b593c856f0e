//! Total ordering and hashing over [`Value`]s.
//!
//! LSM components keep records sorted by primary key; secondary indexes sort
//! by arbitrary field values; zone maps (the min/max prefixes on AMAX Page 0)
//! compare values of possibly different dynamic types. All of those need a
//! *total* order even though JSON values are only partially ordered, so we
//! define the usual document-store convention: values order first by a type
//! rank (null < bool < numbers < string < array < object), then within a
//! type by their natural order. Ints and doubles compare numerically as one
//! class, matching SQL++ comparison semantics.

use std::cmp::Ordering;

use crate::value::Value;

/// Rank used to order values of different dynamic types.
fn type_rank(v: &Value) -> u8 {
    match v {
        Value::Null => 0,
        Value::Bool(_) => 1,
        Value::Int(_) | Value::Double(_) => 2,
        Value::String(_) => 3,
        Value::Array(_) => 4,
        Value::Object(_) => 5,
    }
}

/// Compare two values under the document-store total order.
pub fn total_cmp(a: &Value, b: &Value) -> Ordering {
    let (ra, rb) = (type_rank(a), type_rank(b));
    if ra != rb {
        return ra.cmp(&rb);
    }
    match (a, b) {
        (Value::Null, Value::Null) => Ordering::Equal,
        (Value::Bool(x), Value::Bool(y)) => x.cmp(y),
        (Value::Int(x), Value::Int(y)) => x.cmp(y),
        (Value::Double(x), Value::Double(y)) => x.total_cmp(y),
        (Value::Int(x), Value::Double(y)) => (*x as f64).total_cmp(y),
        (Value::Double(x), Value::Int(y)) => x.total_cmp(&(*y as f64)),
        (Value::String(x), Value::String(y)) => x.cmp(y),
        (Value::Array(x), Value::Array(y)) => {
            for (xe, ye) in x.iter().zip(y.iter()) {
                let c = total_cmp(xe, ye);
                if c != Ordering::Equal {
                    return c;
                }
            }
            x.len().cmp(&y.len())
        }
        (Value::Object(x), Value::Object(y)) => {
            for ((xk, xv), (yk, yv)) in x.iter().zip(y.iter()) {
                let c = xk.cmp(yk);
                if c != Ordering::Equal {
                    return c;
                }
                let c = total_cmp(xv, yv);
                if c != Ordering::Equal {
                    return c;
                }
            }
            x.len().cmp(&y.len())
        }
        // Unreachable: ranks matched above.
        _ => Ordering::Equal,
    }
}

/// A wrapper making [`Value`] usable as an ordered map key (e.g. memtable
/// keys, secondary index keys). Equality follows the same total order, so
/// `Int(1)` and `Double(1.0)` are treated as equal keys — the convention used
/// by SQL++ group-by and index lookups.
#[derive(Debug, Clone)]
pub struct OrderedValue(pub Value);

impl PartialEq for OrderedValue {
    fn eq(&self, other: &Self) -> bool {
        total_cmp(&self.0, &other.0) == Ordering::Equal
    }
}
impl Eq for OrderedValue {}
impl PartialOrd for OrderedValue {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for OrderedValue {
    fn cmp(&self, other: &Self) -> Ordering {
        total_cmp(&self.0, &other.0)
    }
}

impl From<Value> for OrderedValue {
    fn from(v: Value) -> Self {
        OrderedValue(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::doc;
    use std::collections::BTreeMap;

    #[test]
    fn type_ranks_order_across_types() {
        let values = [
            Value::Null,
            Value::Bool(false),
            Value::Int(0),
            Value::from("a"),
            Value::Array(vec![]),
            Value::empty_object(),
        ];
        for w in values.windows(2) {
            assert_eq!(total_cmp(&w[0], &w[1]), Ordering::Less);
        }
    }

    #[test]
    fn numeric_comparison_across_int_and_double() {
        assert_eq!(total_cmp(&Value::Int(2), &Value::Double(2.0)), Ordering::Equal);
        assert_eq!(total_cmp(&Value::Int(2), &Value::Double(2.5)), Ordering::Less);
        assert_eq!(
            total_cmp(&Value::Double(-1.0), &Value::Int(3)),
            Ordering::Less
        );
    }

    #[test]
    fn string_and_bool_ordering() {
        assert_eq!(
            total_cmp(&Value::from("abc"), &Value::from("abd")),
            Ordering::Less
        );
        assert_eq!(
            total_cmp(&Value::Bool(false), &Value::Bool(true)),
            Ordering::Less
        );
    }

    #[test]
    fn array_lexicographic_ordering() {
        let a = doc!([1, 2]);
        let b = doc!([1, 2, 0]);
        let c = doc!([1, 3]);
        assert_eq!(total_cmp(&a, &b), Ordering::Less);
        assert_eq!(total_cmp(&b, &c), Ordering::Less);
        assert_eq!(total_cmp(&a, &a), Ordering::Equal);
    }

    #[test]
    fn object_field_order_matters() {
        let a = doc!({"a": 1, "b": 2});
        let b = doc!({"a": 1, "b": 3});
        assert_eq!(total_cmp(&a, &b), Ordering::Less);
        assert_eq!(total_cmp(&a, &a), Ordering::Equal);
    }

    #[test]
    fn ordered_value_works_as_map_key() {
        let mut m: BTreeMap<OrderedValue, i32> = BTreeMap::new();
        m.insert(Value::Int(5).into(), 1);
        m.insert(Value::Double(5.0).into(), 2); // same key under the total order
        m.insert(Value::from("z").into(), 3);
        assert_eq!(m.len(), 2);
        assert_eq!(m[&OrderedValue(Value::Int(5))], 2);
        let keys: Vec<_> = m.keys().map(|k| k.0.clone()).collect();
        assert_eq!(total_cmp(&keys[0], &keys[1]), Ordering::Less);
    }

    #[test]
    fn nan_double_has_a_stable_position() {
        // total_cmp on doubles is IEEE totalOrder: NaN sorts after +inf.
        assert_eq!(
            total_cmp(&Value::Double(f64::NAN), &Value::Double(f64::INFINITY)),
            Ordering::Greater
        );
    }
}
