//! Property tests for the two ordered walks behind an index range probe.
//!
//! * [`SecondaryIndex`] — one ordered set of `(value, key)` pairs — answers
//!   every range, and reports `len` and `approx_bytes`, exactly as the
//!   nested map of per-value key sets it replaced, kept here as the oracle.
//!   Values mix ints, doubles and strings, `1` and `1.0` alias under the
//!   total order (as do the keys `2` and `2.0`), and keys hold several
//!   values (a multi-valued indexed path).
//! * [`Memtable::get_sorted`] answers each key as [`Memtable::get`] does,
//!   over dense memtables with anti-matter, for ascending keys that are
//!   dense, sparse (the walk re-descends past a gap), absent or past either
//!   end.

use std::collections::{BTreeMap, BTreeSet};
use std::ops::Bound;

use docmodel::cmp::OrderedValue;
use docmodel::{doc, total_cmp, Value};
use lsm::{Memtable, SecondaryIndex};
use proptest::prelude::*;

/// The secondary index as it was: indexed value → set of primary keys.
#[derive(Default)]
struct NestedIndex {
    entries: BTreeMap<OrderedValue, BTreeSet<OrderedValue>>,
}

impl NestedIndex {
    fn insert(&mut self, value: &Value, key: &Value) {
        self.entries
            .entry(OrderedValue(value.clone()))
            .or_default()
            .insert(OrderedValue(key.clone()));
    }

    fn remove(&mut self, value: &Value, key: &Value) {
        if let Some(keys) = self.entries.get_mut(&OrderedValue(value.clone())) {
            keys.remove(&OrderedValue(key.clone()));
            if keys.is_empty() {
                self.entries.remove(&OrderedValue(value.clone()));
            }
        }
    }

    fn range_bounds(&self, lo: Bound<&Value>, hi: Bound<&Value>) -> Vec<Value> {
        if let (Bound::Included(l) | Bound::Excluded(l), Bound::Included(h) | Bound::Excluded(h)) =
            (&lo, &hi)
        {
            match total_cmp(l, h) {
                std::cmp::Ordering::Greater => return Vec::new(),
                std::cmp::Ordering::Equal
                    if matches!(lo, Bound::Excluded(_)) || matches!(hi, Bound::Excluded(_)) =>
                {
                    return Vec::new()
                }
                _ => {}
            }
        }
        let as_key = |b: Bound<&Value>| b.map(|v| OrderedValue(v.clone()));
        let mut out: BTreeSet<&OrderedValue> = BTreeSet::new();
        for (_, keys) in self.entries.range((as_key(lo), as_key(hi))) {
            out.extend(keys.iter());
        }
        out.into_iter().map(|k| k.0.clone()).collect()
    }

    fn len(&self) -> usize {
        self.entries.values().map(BTreeSet::len).sum()
    }

    fn approx_bytes(&self) -> u64 {
        self.entries
            .iter()
            .map(|(v, keys)| {
                v.0.approx_size() as u64
                    + keys
                        .iter()
                        .map(|k| k.0.approx_size() as u64 + 8)
                        .sum::<u64>()
            })
            .sum()
    }
}

/// Indexed values: ints, doubles (`1.0` aliases `1`) and strings.
fn value(i: usize) -> Value {
    const VALUES: usize = 13;
    match i % VALUES {
        0 => Value::Int(0),
        1 => Value::Int(1),
        2 => Value::Double(1.0),
        3 => Value::Int(2),
        4 => Value::Double(2.5),
        5 => Value::Int(3),
        6 => Value::Double(-0.5),
        7 => Value::Int(7),
        8 => Value::from("a"),
        9 => Value::from("ab"),
        10 => Value::from("b"),
        11 => Value::Double(7.0),
        _ => Value::from(""),
    }
}

/// Primary keys: small ints, and `2.0`, which aliases `2`.
fn key(i: usize) -> Value {
    match i % 9 {
        8 => Value::Double(2.0),
        k => Value::Int(k as i64),
    }
}

/// Every bound over the values plus ones outside them (below, between,
/// above every value, and of other types).
fn bounds() -> Vec<Bound<Value>> {
    let mut points: Vec<Value> = (0..13).map(value).collect();
    points.extend([
        Value::Null,
        Value::Bool(true),
        Value::Int(-100),
        Value::Double(1.5),
        Value::from("zz"),
        doc!({"k": 1}),
    ]);
    let mut out = vec![Bound::Unbounded];
    for point in points {
        out.push(Bound::Included(point.clone()));
        out.push(Bound::Excluded(point));
    }
    out
}

/// The memtable's record for a key, told apart from other keys' records.
fn record(key: i64) -> Value {
    doc!({"id": key, "pad": (format!("record {key}"))})
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(if cfg!(debug_assertions) { 64 } else { 256 }))]

    #[test]
    fn secondary_index_answers_as_the_nested_map_did(
        ops in prop::collection::vec((0u8..3, 0usize..13, 0usize..9), 0..120),
    ) {
        let mut index = SecondaryIndex::new();
        let mut oracle = NestedIndex::default();
        for (op, v, k) in ops {
            let (v, k) = (value(v), key(k));
            if op < 2 {
                index.insert(&v, &k);
                oracle.insert(&v, &k);
            } else {
                index.remove(&v, &k);
                oracle.remove(&v, &k);
            }
        }
        prop_assert_eq!(index.len(), oracle.len());
        prop_assert_eq!(index.is_empty(), oracle.len() == 0);
        prop_assert_eq!(index.approx_bytes(), oracle.approx_bytes());
        let bounds = bounds();
        for lo in &bounds {
            for hi in &bounds {
                let (lo, hi) = (lo.as_ref(), hi.as_ref());
                prop_assert_eq!(
                    index.range_bounds(lo, hi),
                    oracle.range_bounds(lo, hi),
                    "{:?}..{:?}", lo, hi
                );
            }
        }
    }

    #[test]
    fn get_sorted_answers_as_per_key_gets(
        writes in prop::collection::vec((0i64..600, 0u8..4), 0..400),
        picks in prop::collection::vec(-20i64..620, 0..80),
        (start, stride) in (-30i64..30, 1i64..64),
    ) {
        let mut memtable = Memtable::new();
        for (key, kind) in writes {
            if kind == 0 {
                memtable.delete(Value::Int(key));
            } else {
                memtable.insert(Value::Int(key), record(key));
            }
        }
        prop_assert!(memtable.get_sorted(&[]).is_empty());
        let strided = (0..).map(|i| start + i * stride).take_while(|&k| k < 650);
        let mut keys: Vec<i64> = picks.into_iter().chain(strided).collect();
        keys.sort_unstable();
        keys.dedup();
        let keys: Vec<Value> = keys.into_iter().map(Value::Int).collect();
        let expected: Vec<_> = keys.iter().map(|k| memtable.get(k)).collect();
        prop_assert_eq!(memtable.get_sorted(&keys), expected);
    }
}
