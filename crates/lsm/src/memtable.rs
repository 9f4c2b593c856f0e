//! The in-memory component.
//!
//! Records live in a key-ordered map; deletes are recorded as anti-matter
//! markers (`None`). The memtable tracks its approximate byte footprint so
//! the dataset can trigger a flush when the configured in-memory budget is
//! exceeded — the same trigger the paper's experiments use (a 2 GB budget in
//! their setup; a few megabytes at our scale).
//!
//! Readers that scan get a *frozen copy* of the entries
//! ([`Memtable::frozen`]): an `Arc`'d key-ordered run, built by the first
//! snapshot after a write and shared by every snapshot until the next write
//! — repeated queries between writes copy nothing. The price is memory: the
//! copy stays alive inside the memtable after the snapshot that asked for it
//! is gone, so an idle dataset that was queried holds its memtable twice
//! until the next write. [`Memtable::resident_bytes`] counts it (the
//! `lsm.memtable_bytes` gauge); the flush budget does not need to, because
//! every write drops the copy before the budget is checked.

use std::cmp::Ordering;
use std::collections::BTreeMap;
use std::sync::Arc;

use docmodel::cmp::OrderedValue;
use docmodel::{total_cmp, Value};
use storage::component::Entry;

/// The LSM in-memory component: key-ordered records and anti-matter markers.
#[derive(Debug, Default)]
pub struct Memtable {
    entries: BTreeMap<OrderedValue, Option<Value>>,
    approx_bytes: usize,
    /// Accounting bytes of every entry ever written; replacing an entry
    /// does not reduce it.
    written_bytes: u64,
    /// The frozen copy handed to snapshots, valid until the next write.
    frozen: Option<Arc<Vec<Entry>>>,
    /// How many frozen copies were ever built (each is one deep copy of the
    /// memtable's documents).
    freezes: u64,
}

impl Memtable {
    /// Create an empty memtable.
    pub fn new() -> Memtable {
        Memtable::default()
    }

    /// Insert (or replace) a record under `key`. Returns the previous entry
    /// if one existed (`Some(None)` = an anti-matter marker was replaced).
    pub fn insert(&mut self, key: Value, record: Value) -> Option<Option<Value>> {
        self.put(key, Some(record))
    }

    /// Record a delete (anti-matter) for `key`.
    pub fn delete(&mut self, key: Value) -> Option<Option<Value>> {
        self.put(key, None)
    }

    /// Write `entry` under `key`. The byte count has one rule: an entry
    /// costs [`entry_bytes`], added when it is written and subtracted when
    /// a later write replaces it — so upserting a key leaves one entry's
    /// size behind, whatever the number of writes.
    fn put(&mut self, key: Value, entry: Option<Value>) -> Option<Option<Value>> {
        self.frozen = None;
        let key_bytes = key.approx_size();
        let bytes = entry_bytes(key_bytes, entry.as_ref());
        self.approx_bytes += bytes;
        self.written_bytes += bytes as u64;
        let prev = self.entries.insert(OrderedValue(key), entry);
        if let Some(prev) = &prev {
            self.approx_bytes -= entry_bytes(key_bytes, prev.as_ref());
        }
        prev
    }

    /// Look up the newest in-memory entry for `key`:
    /// `None` = not present, `Some(None)` = deleted, `Some(Some(_))` = record.
    pub fn get(&self, key: &Value) -> Option<Option<&Value>> {
        self.entries
            .get(&OrderedValue(key.clone()))
            .map(|v| v.as_ref())
    }

    /// [`Memtable::get`] for each of `keys`, which must ascend, in one
    /// ordered walk. A key more than ~log2(len) entries past the walk's
    /// position is found by a fresh descent instead, so a sparse batch over
    /// a dense memtable costs O(k log n), like k separate lookups, and a
    /// dense one O(k + n).
    pub fn get_sorted(&self, keys: &[Value]) -> Vec<Option<Option<&Value>>> {
        debug_assert!(keys.windows(2).all(|w| total_cmp(&w[0], &w[1]).is_lt()));
        let max_steps = usize::BITS - self.entries.len().leading_zeros();
        let Some(first) = keys.first() else {
            return Vec::new();
        };
        let mut walk = self.entries.range(OrderedValue(first.clone())..).peekable();
        let resolve = |key: &Value| {
            let mut steps = 0;
            loop {
                let (at, entry) = walk.peek()?;
                match total_cmp(&at.0, key) {
                    Ordering::Less if steps == max_steps => {
                        walk = self.entries.range(OrderedValue(key.clone())..).peekable();
                        steps = 0;
                    }
                    Ordering::Less => {
                        walk.next();
                        steps += 1;
                    }
                    Ordering::Equal => return Some(entry.as_ref()),
                    Ordering::Greater => return None,
                }
            }
        };
        keys.iter().map(resolve).collect()
    }

    /// The entries as a shared key-ordered run — what a snapshot scans. The
    /// copy is made by the first call after a write and shared until the
    /// next one, so snapshots taken between writes cost an `Arc` bump. It is
    /// held here until that write, whether or not a snapshot still uses it
    /// (a `Weak` would let it die with its snapshot — and make every one of
    /// a run of back-to-back queries copy again).
    pub fn frozen(&mut self) -> Arc<Vec<Entry>> {
        if let Some(frozen) = &self.frozen {
            return frozen.clone();
        }
        self.freezes += 1;
        let frozen = Arc::new(
            self.entries
                .iter()
                .map(|(k, v)| (k.0.clone(), v.clone()))
                .collect(),
        );
        self.frozen.insert(frozen).clone()
    }

    /// Number of frozen copies built so far — the generation counter a test
    /// reads to see that snapshots between writes share one copy.
    pub fn freezes(&self) -> u64 {
        self.freezes
    }

    /// Number of entries (records plus anti-matter markers).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` when the memtable holds nothing.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Approximate heap footprint of the entries in bytes — what the flush
    /// budget is compared with. A frozen copy never exists at that moment
    /// (the write that grew the memtable dropped it), so it is not in here.
    pub fn approx_bytes(&self) -> usize {
        self.approx_bytes
    }

    /// Accounting bytes of every entry written so far, replaced ones
    /// included: its growth over an insert is what the insert ingested
    /// (`ingest.bytes`), whatever it replaced.
    pub fn written_bytes(&self) -> u64 {
        self.written_bytes
    }

    /// Approximate bytes the memtable keeps alive right now: the entries
    /// plus, between a snapshot and the next write, their frozen copy.
    pub fn resident_bytes(&self) -> usize {
        match self.frozen {
            Some(_) => 2 * self.approx_bytes,
            None => self.approx_bytes,
        }
    }

    /// Iterate entries in key order.
    pub fn iter(&self) -> impl Iterator<Item = (&Value, Option<&Value>)> {
        self.entries.iter().map(|(k, v)| (&k.0, v.as_ref()))
    }

    /// Drain the memtable into a sorted entry list for a flush.
    pub fn drain_sorted(&mut self) -> Vec<(Value, Option<Value>)> {
        self.approx_bytes = 0;
        self.frozen = None;
        std::mem::take(&mut self.entries)
            .into_iter()
            .map(|(k, v)| (k.0, v))
            .collect()
    }
}

/// What one memtable entry costs the flush budget: its key, its record
/// (1 byte for an anti-matter marker) and 16 bytes of bookkeeping.
fn entry_bytes(key_bytes: usize, record: Option<&Value>) -> usize {
    key_bytes + record.map_or(1, Value::approx_size) + 16
}

#[cfg(test)]
mod tests {
    use super::*;
    use docmodel::doc;

    #[test]
    fn insert_get_delete_roundtrip() {
        let mut m = Memtable::new();
        assert!(m.is_empty());
        m.insert(Value::Int(2), doc!({"id": 2}));
        m.insert(Value::Int(1), doc!({"id": 1}));
        assert_eq!(m.len(), 2);
        assert!(m.approx_bytes() > 0);
        assert_eq!(m.get(&Value::Int(1)).unwrap().unwrap().get_field("id"), Some(&Value::Int(1)));
        m.delete(Value::Int(1));
        assert_eq!(m.get(&Value::Int(1)), Some(None));
        assert_eq!(m.get(&Value::Int(9)), None);
    }

    #[test]
    fn upsert_replaces_and_keeps_single_entry() {
        let mut m = Memtable::new();
        m.insert(Value::Int(1), doc!({"v": 1}));
        let prev = m.insert(Value::Int(1), doc!({"v": 2}));
        assert!(prev.unwrap().is_some());
        assert_eq!(m.len(), 1);
        assert_eq!(
            m.get(&Value::Int(1)).unwrap().unwrap().get_field("v"),
            Some(&Value::Int(2))
        );
    }

    #[test]
    fn writing_one_key_n_times_leaves_one_entrys_size() {
        let mut m = Memtable::new();
        let record = doc!({"id": 1, "v": "payload"});
        m.insert(Value::Int(1), record.clone());
        let one = m.approx_bytes();
        for _ in 0..100 {
            m.insert(Value::Int(1), record.clone());
        }
        assert_eq!(m.approx_bytes(), one);
        assert_eq!(one, entry_bytes(Value::Int(1).approx_size(), Some(&record)));
        // What was ingested still counts every write.
        assert_eq!(m.written_bytes(), 101 * one as u64);
    }

    #[test]
    fn deleting_a_record_swaps_its_size_for_the_markers() {
        let mut m = Memtable::new();
        let record = doc!({"id": 1, "v": "payload"});
        let key_bytes = Value::Int(1).approx_size();
        m.insert(Value::Int(1), record.clone());
        m.delete(Value::Int(1));
        assert_eq!(m.approx_bytes(), entry_bytes(key_bytes, None));
        m.delete(Value::Int(1));
        assert_eq!(m.approx_bytes(), entry_bytes(key_bytes, None));
        m.insert(Value::Int(1), record.clone());
        assert_eq!(m.approx_bytes(), entry_bytes(key_bytes, Some(&record)));
    }

    #[test]
    fn frozen_copies_are_shared_until_the_next_write() {
        let mut m = Memtable::new();
        m.insert(Value::Int(1), doc!({"id": 1}));
        let first = m.frozen();
        assert!(Arc::ptr_eq(&first, &m.frozen()));
        assert_eq!(m.freezes(), 1);
        m.delete(Value::Int(1));
        let second = m.frozen();
        assert_eq!(m.freezes(), 2);
        assert_eq!(first.len(), 1);
        assert_eq!(*second, vec![(Value::Int(1), None)]);
        // The copy is resident, and reported, until the next write.
        assert_eq!(m.resident_bytes(), 2 * m.approx_bytes());
        m.insert(Value::Int(2), doc!({"id": 2}));
        assert_eq!(m.resident_bytes(), m.approx_bytes());
        m.drain_sorted();
        assert!(m.frozen().is_empty());
    }

    #[test]
    fn drain_returns_sorted_entries_and_resets() {
        let mut m = Memtable::new();
        for i in [5i64, 1, 3, 2, 4] {
            m.insert(Value::Int(i), doc!({"id": i}));
        }
        m.delete(Value::Int(3));
        let entries = m.drain_sorted();
        assert!(m.is_empty());
        assert_eq!(m.approx_bytes(), 0);
        let keys: Vec<i64> = entries.iter().map(|(k, _)| k.as_int().unwrap()).collect();
        assert_eq!(keys, vec![1, 2, 3, 4, 5]);
        assert!(entries[2].1.is_none(), "key 3 is anti-matter");
    }
}
