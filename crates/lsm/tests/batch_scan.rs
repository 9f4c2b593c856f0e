//! The snapshot's one scan — [`Snapshot::batches`] — and its row adapter,
//! against a `BTreeMap` model.
//!
//! Over every layout, on a tree of three overlapping components plus an
//! unflushed memtable, with shadowed versions, tombstones and resurrected
//! keys, and with integer as well as string keys (the reconciliation orders
//! its sources by borrowed keys — both typed comparison paths run):
//!
//! * the batches partition the live records — every live key in exactly one
//!   batch, nothing else in any — whether the consumer assembles a batch or
//!   only counts it, and the row adapter yields the same records in key
//!   order;
//! * pushed predicates select exactly what evaluating them on the model's
//!   documents selects, whichever way a component has to decide them (a
//!   column loop, the assembled record for a union column, never for a path
//!   it has no column of);
//! * pruned components are left out; a key-only scan assembles nothing;
//! * snapshots between writes share one frozen copy of the memtable.

use std::collections::BTreeMap;
use std::ops::Bound;

use docmodel::cmp::OrderedValue;
use docmodel::{doc, Path, Value};
use lsm::{CompactionSpec, DatasetConfig, LsmDataset, ScanBatch, ScanSpec};
use storage::component::ColumnPredicate;
use storage::LayoutKind;

type Model = BTreeMap<OrderedValue, Value>;

fn key_of(id: i64, strings: bool) -> Value {
    if strings {
        Value::from(format!("key-{id:05}"))
    } else {
        Value::Int(id)
    }
}

fn record(id: i64, version: i64, strings: bool) -> Value {
    // `shape` is a union column; `num` a plain one with gaps.
    let shape = if (id + version) % 2 == 0 {
        Value::Int(id % 10)
    } else {
        Value::from(format!("v{version}"))
    };
    let mut doc = doc!({
        "body": (format!("version {version} of {id}")),
        "shape": shape,
        "tags": ((0..version).map(|t| Value::from(format!("tag{t}"))).collect::<Vec<_>>())
    });
    doc.set_field("id", key_of(id, strings));
    if id % 4 != 1 {
        doc.set_field("num", Value::Int(id * 10 + version));
    }
    doc
}

/// Three overlapping unmerged components, oldest first, then an unflushed
/// memtable; the model is what a reader must see.
fn build(layout: LayoutKind, strings: bool) -> (LsmDataset, Model) {
    let mut config = DatasetConfig::new("batch-scan", layout)
        .with_memtable_budget(64 << 20)
        .with_page_size(4 * 1024)
        .with_compaction(CompactionSpec::tiered(1e9, 100));
    config.amax.record_limit = 48;
    let ds = LsmDataset::new(config);
    let mut model = Model::new();
    {
        let mut put = |id: i64, version: i64| {
            let doc = record(id, version, strings);
            model.insert(OrderedValue(key_of(id, strings)), doc.clone());
            ds.insert(doc).unwrap();
        };
        (0..300).for_each(|id| put(id, 1));
        ds.flush().unwrap();
        (50..350).filter(|id| id % 3 == 0).for_each(|id| put(id, 2));
        ds.flush().unwrap();
        (0..400).filter(|id| id % 5 == 0).for_each(|id| put(id, 3));
        ds.flush().unwrap();
        (0..420).filter(|id| id % 13 == 0).for_each(|id| put(id, 4));
    }
    for id in (0..400).filter(|id| id % 7 == 0) {
        ds.delete(key_of(id, strings)).unwrap();
        model.remove(&OrderedValue(key_of(id, strings)));
    }
    assert_eq!(ds.component_count(), 3, "the layers must stay unmerged");
    (ds, model)
}

/// Field order differs between a stored and a reassembled document.
fn normalize(v: &Value) -> Value {
    match v {
        Value::Object(fields) => {
            let mut fields: Vec<(String, Value)> = fields
                .iter()
                .map(|(k, v)| (k.clone(), normalize(v)))
                .collect();
            fields.sort_by(|a, b| a.0.cmp(&b.0));
            Value::Object(fields)
        }
        Value::Array(elems) => Value::Array(elems.iter().map(normalize).collect()),
        other => other.clone(),
    }
}

/// Every record of a batch scan, keyed — asserting no key shows up twice.
fn collect(ds: &LsmDataset, spec: ScanSpec<'_>) -> Model {
    let mut out = Model::new();
    for batch in ds.snapshot().batches(spec) {
        let batch = batch.unwrap();
        assert!(!batch.is_empty(), "empty batches are not handed over");
        let rows: Vec<(Value, Value)> = match batch {
            ScanBatch::Rows(rows) => rows,
            ScanBatch::Columns(batch) => batch
                .into_rows(spec.projection)
                .unwrap()
                .map(|row| row.unwrap())
                .collect(),
        };
        assert!(
            rows.windows(2)
                .all(|w| docmodel::total_cmp(&w[0].0, &w[1].0) == std::cmp::Ordering::Less),
            "a batch is in key order"
        );
        for (key, doc) in rows {
            assert!(
                out.insert(OrderedValue(key.clone()), normalize(&doc))
                    .is_none(),
                "{key} twice"
            );
        }
    }
    out
}

fn range(path: &str, lo: i64, hi: i64) -> ColumnPredicate {
    ColumnPredicate {
        path: Path::parse(path),
        lo: Bound::Included(Value::Int(lo)),
        hi: Bound::Included(Value::Int(hi)),
    }
}

#[test]
fn batches_partition_the_live_records() {
    for strings in [false, true] {
        for layout in LayoutKind::ALL {
            let (ds, model) = build(layout, strings);
            let expected: Model = model
                .iter()
                .map(|(k, v)| (k.clone(), normalize(v)))
                .collect();
            assert_eq!(collect(&ds, ScanSpec::default()), expected, "{layout:?}");

            // The row adapter: the same records, in key order.
            let rows: Vec<(Value, Value)> = ds
                .snapshot()
                .cursor(None)
                .unwrap()
                .map(|row| row.unwrap())
                .collect();
            let want: Vec<(Value, Value)> = expected
                .iter()
                .map(|(k, v)| (k.0.clone(), v.clone()))
                .collect();
            let got: Vec<(Value, Value)> = rows
                .iter()
                .map(|(k, v)| (k.clone(), normalize(v)))
                .collect();
            assert_eq!(got, want, "{layout:?}");

            // Keys only: count the batches, build nothing from columns.
            ds.cache().store().reset_stats();
            let keys_only = ScanSpec {
                projection: Some(&[]),
                ..ScanSpec::default()
            };
            let counted: usize = ds
                .snapshot()
                .batches(keys_only)
                .map(|batch| batch.unwrap().len())
                .sum();
            assert_eq!(counted, model.len(), "{layout:?}");
            assert_eq!(ds.count().unwrap(), model.len(), "{layout:?}");
            if layout.is_columnar() {
                assert_eq!(ds.io_stats().records_assembled, 0, "{layout:?}");
            }
            assert!(ds.io_stats().scan_batches > 0, "{layout:?}");
        }
    }
}

#[test]
fn pushed_predicates_select_what_the_documents_say() {
    for strings in [false, true] {
        for layout in LayoutKind::ALL {
            let (ds, model) = build(layout, strings);
            let projection = [Path::parse("body")];
            for pushed in [
                vec![range("num", 500, 2500)],
                // A union column: only the assembled record can tell.
                vec![range("shape", 2, 6), range("num", 0, 3000)],
                // No component has a column of it: nothing matches.
                vec![range("missing", 0, 10)],
                // The key column, where keys are integers.
                vec![range("id", 120, 260)],
            ] {
                let expected: Vec<Value> = model
                    .iter()
                    .filter(|(_, doc)| pushed.iter().all(|p| p.matches(doc)))
                    .map(|(key, _)| key.0.clone())
                    .collect();
                let spec = ScanSpec {
                    projection: Some(&projection),
                    pushed: &pushed,
                    ..ScanSpec::default()
                };
                let from_batches: Vec<Value> =
                    collect(&ds, spec).into_keys().map(|key| key.0).collect();
                assert_eq!(from_batches, expected, "{layout:?} {pushed:?}");
                let from_rows: Vec<Value> = ds
                    .snapshot()
                    .batches(spec)
                    .rows()
                    .map(|row| row.unwrap().0)
                    .collect();
                assert_eq!(from_rows, expected, "{layout:?} {pushed:?}");
                // Counting is exact too, even where a batch's length is only
                // an upper bound (the union column).
                let counted = ds.snapshot().batches(spec).record_count().unwrap();
                assert_eq!(counted, expected.len(), "{layout:?} {pushed:?}");
            }
        }
    }
}

#[test]
fn pruned_components_are_left_out() {
    let (ds, model) = build(LayoutKind::Amax, false);
    // Without the oldest component the keys only it holds are gone (and the
    // versions it shadowed nowhere: it is the oldest).
    let spec = ScanSpec {
        prune: &[true],
        ..ScanSpec::default()
    };
    let seen = collect(&ds, spec);
    assert!(seen.len() < model.len());
    assert!(seen.keys().all(|key| model.contains_key(key)));
    assert!(!seen.contains_key(&OrderedValue(Value::Int(1))));
}

/// The carried-forward edge from PR 13: `snapshot()` deep-copied the active
/// memtable for every scan-shaped query. Counted by the memtable's freeze
/// generation, not by wall time.
#[test]
fn snapshots_between_writes_share_one_memtable_copy() {
    let ds = LsmDataset::new(DatasetConfig::new("freezes", LayoutKind::Amax));
    // Nothing written: nothing to copy, however often it is asked for.
    let empty = ds.snapshot();
    assert_eq!(empty.in_memory_entries(), 0);
    for i in 0..100i64 {
        ds.insert(doc!({"id": i, "v": i})).unwrap();
    }
    let before = ds.memtable_freezes();
    for _ in 0..50 {
        assert_eq!(ds.count().unwrap(), 100);
        assert_eq!(ds.scan(None).unwrap().len(), 100);
        let _ = ds.snapshot();
    }
    assert_eq!(ds.memtable_freezes(), before + 1, "150 snapshots, one copy");
    // A write invalidates the copy; earlier snapshots keep theirs.
    let old = ds.snapshot();
    ds.delete(Value::Int(7)).unwrap();
    assert_eq!(ds.count().unwrap(), 99);
    assert_eq!(ds.memtable_freezes(), before + 2);
    assert_eq!(old.cursor(Some(&[])).unwrap().count(), 100);
    // Point reads never freeze anything.
    assert!(ds.lookup(&Value::Int(8), None).unwrap().is_some());
    assert_eq!(ds.memtable_freezes(), before + 2);
}
