//! Primary-key and secondary indexes.
//!
//! * The **primary-key index** stores only keys. During update-intensive
//!   ingestion it answers "does this key already exist?" so that the
//!   expensive point lookup against the (columnar) primary index is skipped
//!   for brand-new keys (§4.6). Only secondary-index maintenance makes that
//!   lookup, so a dataset keeps this index only beside a secondary one.
//! * The **secondary index** maps a field's value (e.g. the tweet timestamp)
//!   to the primary keys of the records holding it. Maintaining it on an
//!   upsert requires fetching the *old* record to remove its stale entry —
//!   that fetch is what makes update-intensive ingestion slower for columnar
//!   layouts (Figure 13a, `tweet_2*`).
//!
//! Both indexes are modelled as in-memory ordered maps standing in for the
//! secondary LSM B+-trees of the real system; their sizes are reported by the
//! experiments alongside the primary index (Figure 12a includes them for
//! `tweet_2*`). Index *maintenance* (the point lookups) is faithfully
//! exercised; index storage is approximated.

use std::collections::{BTreeMap, BTreeSet};
use std::ops::Bound;

use docmodel::cmp::OrderedValue;
use docmodel::Value;

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

/// A secondary index: indexed value → set of primary keys.
#[derive(Debug, Default)]
pub struct SecondaryIndex {
    entries: BTreeMap<OrderedValue, BTreeSet<OrderedValue>>,
    entry_count: usize,
}

impl SecondaryIndex {
    /// Create an empty index.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add an entry mapping `value` to `key`.
    pub fn insert(&mut self, value: &Value, key: &Value) {
        let added = self
            .entries
            .entry(OrderedValue(value.clone()))
            .or_default()
            .insert(OrderedValue(key.clone()));
        if added {
            self.entry_count += 1;
        }
    }

    /// Remove the entry mapping `value` to `key` (anti-matter for the old
    /// value of an updated record).
    pub fn remove(&mut self, value: &Value, key: &Value) {
        if let Some(keys) = self.entries.get_mut(&OrderedValue(value.clone())) {
            if keys.remove(&OrderedValue(key.clone())) {
                self.entry_count -= 1;
            }
            if keys.is_empty() {
                self.entries.remove(&OrderedValue(value.clone()));
            }
        }
    }

    /// All primary keys with *some* indexed value in `[lo, hi]`, each key
    /// once, in primary-key order, ready for batched point lookups (§4.6).
    pub fn range(&self, lo: &Value, hi: &Value) -> Vec<Value> {
        self.range_bounds(Bound::Included(lo), Bound::Included(hi))
    }

    /// Like [`SecondaryIndex::range`], but with arbitrary (possibly open or
    /// exclusive) endpoints — what the query planner's index-probe path
    /// derives from a filter expression (`score > 50`, `score < 10`, ...).
    /// An empty range (lower bound above the upper bound) yields no keys.
    ///
    /// Keys are **deduplicated**: a multi-valued indexed path (`ts[*]`) maps
    /// several values to the same primary key, and a record with two values
    /// inside the probe range must still be returned (and counted) once.
    pub fn range_bounds(&self, lo: Bound<&Value>, hi: Bound<&Value>) -> Vec<Value> {
        // BTreeMap::range panics on inverted ranges; an empty probe is the
        // correct answer for a filter that can never match.
        if let (
            Bound::Included(l) | Bound::Excluded(l),
            Bound::Included(h) | Bound::Excluded(h),
        ) = (&lo, &hi)
        {
            match docmodel::total_cmp(l, h) {
                std::cmp::Ordering::Greater => return Vec::new(),
                std::cmp::Ordering::Equal
                    if matches!(lo, Bound::Excluded(_)) || matches!(hi, Bound::Excluded(_)) =>
                {
                    return Vec::new()
                }
                _ => {}
            }
        }
        let as_key = |b: Bound<&Value>| match b {
            Bound::Unbounded => Bound::Unbounded,
            Bound::Included(v) => Bound::Included(OrderedValue(v.clone())),
            Bound::Excluded(v) => Bound::Excluded(OrderedValue(v.clone())),
        };
        let mut out: BTreeSet<&OrderedValue> = BTreeSet::new();
        for (_, keys) in self.entries.range((as_key(lo), as_key(hi))) {
            out.extend(keys.iter());
        }
        out.into_iter().map(|k| k.0.clone()).collect()
    }

    /// Number of (value, key) entries.
    pub fn len(&self) -> usize {
        self.entry_count
    }

    /// `true` when empty.
    pub fn is_empty(&self) -> bool {
        self.entry_count == 0
    }

    /// Approximate size in bytes (for the storage-size experiments).
    pub fn approx_bytes(&self) -> u64 {
        self.entries
            .iter()
            .map(|(v, keys)| {
                v.0.approx_size() as u64 + keys.iter().map(|k| k.0.approx_size() as u64 + 8).sum::<u64>()
            })
            .sum()
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
        let keys = idx.range(&Value::Int(1_010), &Value::Int(1_019));
        assert_eq!(keys.len(), 10);
        assert_eq!(keys[0], Value::Int(10));

        // Update record 10's timestamp: remove the old entry, add the new one.
        idx.remove(&Value::Int(1_010), &Value::Int(10));
        idx.insert(&Value::Int(2_000), &Value::Int(10));
        let keys = idx.range(&Value::Int(1_010), &Value::Int(1_019));
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
