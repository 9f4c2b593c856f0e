//! Primary-key and secondary indexes.
//!
//! * The **primary-key index** stores only keys. During update-intensive
//!   ingestion it answers "does this key already exist?" so that the
//!   expensive point lookup against the (columnar) primary index is skipped
//!   for brand-new keys (§4.6). Only secondary-index maintenance makes that
//!   lookup, so a dataset keeps this index only beside a secondary one.
//! * The **secondary index** is one ordered set of `(value, key)` pairs: a
//!   field's value (e.g. the tweet timestamp) beside the primary key of a
//!   record holding it, the composite entries of a secondary LSM B+-tree. A
//!   range probe is one walk over the pairs in range. Maintaining it on an
//!   upsert requires fetching the *old* record to remove its stale entry —
//!   that fetch is what makes update-intensive ingestion slower for columnar
//!   layouts (Figure 13a, `tweet_2*`).
//!
//! Both indexes are modelled as in-memory ordered sets standing in for the
//! secondary LSM B+-trees of the real system; their sizes are reported by the
//! experiments alongside the primary index (Figure 12a includes them for
//! `tweet_2*`). Index *maintenance* (the point lookups) is faithfully
//! exercised; index storage is approximated.

use std::collections::BTreeSet;
use std::ops::Bound;

use docmodel::cmp::OrderedValue;
use docmodel::{total_cmp, Value};

/// An index over primary keys only.
#[derive(Debug, Default)]
pub struct PrimaryKeyIndex {
    keys: BTreeSet<OrderedValue>,
}

impl PrimaryKeyIndex {
    /// Create an empty index.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record that `key` exists.
    pub fn insert(&mut self, key: &Value) {
        self.keys.insert(OrderedValue(key.clone()));
    }

    /// `true` if `key` has ever been inserted (and not removed).
    pub fn contains(&self, key: &Value) -> bool {
        self.keys.contains(&OrderedValue(key.clone()))
    }

    /// Remove a key (after a delete is fully merged away).
    pub fn remove(&mut self, key: &Value) {
        self.keys.remove(&OrderedValue(key.clone()));
    }

    /// Number of indexed keys.
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// `true` when empty.
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// Approximate size in bytes (for the storage-size experiments).
    pub fn approx_bytes(&self) -> u64 {
        self.keys.iter().map(|k| k.0.approx_size() as u64 + 8).sum()
    }
}

/// A secondary index: one ordered set of `(indexed value, primary key)`
/// pairs — the composite-key B+-tree a secondary LSM index is, kept in
/// memory.
#[derive(Debug, Default)]
pub struct SecondaryIndex {
    entries: BTreeSet<(OrderedValue, OrderedValue)>,
}

/// Below every primary key: keys are atomic and never null.
const BEFORE_EVERY_KEY: Value = Value::Null;
/// Above every primary key: objects order after every atomic value.
const AFTER_EVERY_KEY: Value = Value::Object(Vec::new());

impl SecondaryIndex {
    /// Create an empty index.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add an entry mapping `value` to `key`.
    pub fn insert(&mut self, value: &Value, key: &Value) {
        self.entries
            .insert((OrderedValue(value.clone()), OrderedValue(key.clone())));
    }

    /// Remove the entry mapping `value` to `key` (anti-matter for the old
    /// value of an updated record).
    pub fn remove(&mut self, value: &Value, key: &Value) {
        self.entries
            .remove(&(OrderedValue(value.clone()), OrderedValue(key.clone())));
    }

    /// All primary keys with *some* indexed value between `lo` and `hi`,
    /// each key once, in primary-key order, ready for batched point lookups
    /// (§4.6). The bounds may be open or exclusive — what the query
    /// planner's index-probe path derives from a filter expression
    /// (`score > 50`, `score < 10`, ...); an empty range (lower bound above
    /// the upper bound) yields no keys.
    ///
    /// One walk over the pairs in range. Keys come out ascending when the
    /// indexed values grow with the keys; otherwise they are sorted. Keys
    /// are **deduplicated**: a multi-valued indexed path (`ts[*]`) maps
    /// several values to the same primary key, and a record with two values
    /// inside the probe range must still be returned (and counted) once.
    pub fn range_bounds(&self, lo: Bound<&Value>, hi: Bound<&Value>) -> Vec<Value> {
        // The lower bound becomes a pair bound below or above all its keys.
        let pair = |v: &Value, key| (OrderedValue(v.clone()), OrderedValue(key));
        let lo = match lo {
            Bound::Unbounded => Bound::Unbounded,
            Bound::Included(v) => Bound::Included(pair(v, BEFORE_EVERY_KEY)),
            Bound::Excluded(v) => Bound::Excluded(pair(v, AFTER_EVERY_KEY)),
        };
        // One descent, to the lower end; the walk stops past `hi`, so an
        // inverted or empty range yields nothing.
        let within_hi = |value: &OrderedValue| match hi {
            Bound::Unbounded => true,
            Bound::Included(h) => total_cmp(&value.0, h).is_le(),
            Bound::Excluded(h) => total_cmp(&value.0, h).is_lt(),
        };
        let mut keys: Vec<Value> = Vec::new();
        let mut ascending = true;
        for (_, key) in self
            .entries
            .range((lo, Bound::Unbounded))
            .take_while(|(value, _)| within_hi(value))
        {
            ascending &= keys
                .last()
                .is_none_or(|last| total_cmp(last, &key.0).is_lt());
            keys.push(key.0.clone());
        }
        if !ascending {
            // Stable, so an aliased key (`1` / `1.0`) keeps its first spelling.
            keys.sort_by(total_cmp);
            keys.dedup_by(|later, earlier| total_cmp(later, earlier).is_eq());
        }
        keys
    }

    /// Number of (value, key) entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` when empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Approximate size in bytes (for the storage-size experiments): each
    /// distinct value once, each key plus an 8-byte pointer.
    pub fn approx_bytes(&self) -> u64 {
        let mut bytes = 0;
        let mut previous: Option<&OrderedValue> = None;
        for (value, key) in &self.entries {
            if previous != Some(value) {
                bytes += value.0.approx_size() as u64;
                previous = Some(value);
            }
            bytes += key.0.approx_size() as u64 + 8;
        }
        bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primary_key_index_membership() {
        let mut idx = PrimaryKeyIndex::new();
        assert!(idx.is_empty());
        idx.insert(&Value::Int(5));
        idx.insert(&Value::Int(7));
        assert!(idx.contains(&Value::Int(5)));
        assert!(!idx.contains(&Value::Int(6)));
        assert_eq!(idx.len(), 2);
        assert!(idx.approx_bytes() > 0);
        idx.remove(&Value::Int(5));
        assert!(!idx.contains(&Value::Int(5)));
    }

    #[test]
    fn secondary_index_range_and_maintenance() {
        let mut idx = SecondaryIndex::new();
        for i in 0..100i64 {
            idx.insert(&Value::Int(1_000 + i), &Value::Int(i));
        }
        assert_eq!(idx.len(), 100);
        let (lo, hi) = (Value::Int(1_010), Value::Int(1_019));
        let keys = idx.range_bounds(Bound::Included(&lo), Bound::Included(&hi));
        assert_eq!(keys.len(), 10);
        assert_eq!(keys[0], Value::Int(10));

        // Update record 10's timestamp: remove the old entry, add the new one.
        idx.remove(&Value::Int(1_010), &Value::Int(10));
        idx.insert(&Value::Int(2_000), &Value::Int(10));
        let keys = idx.range_bounds(Bound::Included(&lo), Bound::Included(&hi));
        assert_eq!(keys.len(), 9);
        assert_eq!(idx.len(), 100);
        assert!(idx.approx_bytes() > 0);
    }

    #[test]
    fn range_bounds_support_open_and_exclusive_endpoints() {
        let mut idx = SecondaryIndex::new();
        for i in 0..10i64 {
            idx.insert(&Value::Int(i), &Value::Int(100 + i));
        }
        let keys = idx.range_bounds(Bound::Excluded(&Value::Int(3)), Bound::Unbounded);
        assert_eq!(keys.len(), 6);
        assert_eq!(keys[0], Value::Int(104));
        let keys = idx.range_bounds(Bound::Unbounded, Bound::Excluded(&Value::Int(3)));
        assert_eq!(keys.len(), 3);
        let keys = idx.range_bounds(Bound::Unbounded, Bound::Unbounded);
        assert_eq!(keys.len(), 10);
        // Inverted and degenerate ranges yield nothing instead of panicking.
        assert!(idx
            .range_bounds(Bound::Included(&Value::Int(8)), Bound::Included(&Value::Int(2)))
            .is_empty());
        assert!(idx
            .range_bounds(Bound::Excluded(&Value::Int(5)), Bound::Included(&Value::Int(5)))
            .is_empty());
        assert_eq!(
            idx.range_bounds(Bound::Included(&Value::Int(5)), Bound::Included(&Value::Int(5)))
                .len(),
            1
        );
    }

    #[test]
    fn duplicate_secondary_entries_are_idempotent() {
        let mut idx = SecondaryIndex::new();
        idx.insert(&Value::Int(1), &Value::Int(1));
        idx.insert(&Value::Int(1), &Value::Int(1));
        assert_eq!(idx.len(), 1);
        idx.remove(&Value::Int(1), &Value::Int(1));
        assert!(idx.is_empty());
        // Removing a non-existent entry is harmless.
        idx.remove(&Value::Int(9), &Value::Int(9));
    }
}
