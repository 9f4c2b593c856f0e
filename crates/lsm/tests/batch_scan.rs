//! The snapshot's one scan — [`Snapshot::batches`] — and its row adapter,
//! against a `BTreeMap` model.
//!
//! Over every layout, on a tree of three overlapping components plus an
//! unflushed memtable, with shadowed versions, tombstones and resurrected
//! keys, and with integer as well as string keys (the reconciliation orders
//! its sources by borrowed keys — both its `i64` slice path and its
//! pair-by-pair path run):
//!
//! * the batches partition the live records — every live key in exactly one
//!   batch, nothing else in any — whether the consumer assembles a batch or
//!   only counts it, and the row adapter yields the same records in key
//!   order;
//! * pushed predicates select exactly what evaluating them on the model's
//!   documents selects, whichever way a component has to decide them (a
//!   column loop, the assembled record for a union column, never for a path
//!   it has no column of);
//! * a key-only scan assembles nothing;
//! * snapshots between writes share one frozen copy of the memtable;
//! * one reconciliation step == many steps: the bulk step's winners, and
//!   the per-entry path's (`next_winner`), are the limit-one step's, in
//!   order, anti-matter flags included, over 1–5 components of mixed
//!   layouts plus an optional memtable, and all are the newest version of
//!   every key.

use std::collections::BTreeMap;
use std::ops::Bound;
use std::sync::Arc;

use docmodel::cmp::OrderedValue;
use docmodel::{doc, Path, Value};
use lsm::{
    CompactionSpec, DatasetConfig, EntryMergeCursor, LsmDataset, ScanBatch, ScanSpec, Winner,
};
use proptest::prelude::*;
use schema::SchemaBuilder;
use storage::component::{ColumnPredicate, Component, ComponentConfig, Entry};
use storage::pagestore::{BufferCache, PageStore};
use storage::LayoutKind;
use testkit::sort_fields;

type Model = BTreeMap<OrderedValue, Value>;

fn key_of(id: i64, strings: bool) -> Value {
    if strings {
        Value::from(format!("key-{id:05}"))
    } else {
        Value::Int(id)
    }
}

fn record(id: i64, version: i64, strings: bool) -> Value {
    // `shape` is a union column; `num` a plain one with gaps; `tags` is
    // empty in the first version, and `note` is `null` where it is there.
    let shape = if (id + version) % 2 == 0 {
        Value::Int(id % 10)
    } else {
        Value::from(format!("v{version}"))
    };
    let mut doc = doc!({
        "body": (format!("version {version} of {id}")),
        "shape": shape,
        "tags": ((1..version).map(|t| Value::from(format!("tag{t}"))).collect::<Vec<_>>())
    });
    if id % 6 == 2 {
        doc.set_field("note", Value::Null);
    }
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

/// Every record of a batch scan, keyed — asserting no key shows up twice.
fn collect(ds: &LsmDataset, spec: ScanSpec<'_>) -> Model {
    let mut out = Model::new();
    for batch in ds.snapshot().batches(spec) {
        let batch = batch.unwrap();
        assert!(!batch.is_empty(), "empty batches are not handed over");
        let rows: Vec<(Value, Value)> = match batch {
            ScanBatch::Rows { rows, .. } => rows,
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
                out.insert(OrderedValue(key.clone()), sort_fields(&doc))
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
                .map(|(k, v)| (k.clone(), sort_fields(v)))
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
                .map(|(k, v)| (k.clone(), sort_fields(v)))
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

// ---------------------------------------------------------------------------
// One reconciliation step == many steps.
// ---------------------------------------------------------------------------

/// One source of a reconciliation: `None` = the memtable, else a component
/// of that layout; its entries in key order (`None` = anti-matter).
struct Source {
    layout: Option<LayoutKind>,
    entries: Vec<Entry>,
}

fn entry(id: i64, live: bool, strings: bool) -> Entry {
    let key = key_of(id, strings);
    let doc = live.then(|| {
        let mut doc = doc!({"pad": (format!("{id:>40}"))});
        doc.set_field("id", key.clone());
        doc
    });
    (key, doc)
}

fn source(
    layout: Option<LayoutKind>,
    ids: impl IntoIterator<Item = i64>,
    anti: &[i64],
    strings: bool,
) -> Source {
    Source {
        layout,
        entries: ids
            .into_iter()
            .map(|id| entry(id, !anti.contains(&id), strings))
            .collect(),
    }
}

/// Every winner of `cursor`, with its entry's key and whether it is live,
/// taking at most `limit` winners per step (`None`: one `next_winner` at a
/// time, the per-entry path's buffered steps).
fn winners(mut cursor: EntryMergeCursor, limit: Option<usize>) -> Vec<(Winner, Value, bool)> {
    let (mut out, mut step) = (Vec::new(), Vec::new());
    loop {
        match limit {
            Some(limit) => {
                cursor.step(limit, &mut step).unwrap();
                assert!(step.len() <= limit);
            }
            None => {
                step.clear();
                step.extend(cursor.next_winner().unwrap());
            }
        }
        if step.is_empty() {
            return out;
        }
        for &winner in &step {
            let (key, doc) = cursor.take_winner(winner).unwrap();
            assert_eq!(doc.is_none(), winner.anti_matter, "{key}");
            out.push((winner, key, doc.is_some()));
        }
    }
}

/// Write `sources` (newest first; the memtable, if any, first) as
/// components with leaves of `record_limit` records (AMAX) or one small
/// page, and hold stepping through their reconciliation `limits` at a time,
/// and `next_winner`, to the limit-one steps, and those to the model: per
/// key, the newest source's version, anti-matter included.
fn check_steps(sources: &[Source], record_limit: usize, strings: bool, limits: &[usize]) {
    let cache = BufferCache::new(PageStore::with_page_size(1024), 1024);
    let mut components = Vec::new();
    for (i, source) in sources.iter().enumerate().rev() {
        let Some(layout) = source.layout else {
            continue;
        };
        let mut builder = SchemaBuilder::new(Some("id".to_string()));
        builder.observe(entry(0, true, strings).1.as_ref().unwrap());
        let mut config = ComponentConfig::new(layout);
        config.amax.record_limit = record_limit;
        let schema = builder.into_schema();
        let written = Component::write(&cache, &config, schema, &source.entries, i as u64 + 1);
        components.push(Arc::new(written.unwrap()));
    }
    let cursor = || match sources.first() {
        Some(Source {
            layout: None,
            entries,
        }) => EntryMergeCursor::over_memtable_and_components(entries.clone(), &components, None),
        _ => EntryMergeCursor::over_components(&components, None),
    };
    let mut model: BTreeMap<OrderedValue, (usize, bool)> = BTreeMap::new();
    for (s, source) in sources.iter().enumerate() {
        for (key, doc) in &source.entries {
            model
                .entry(OrderedValue(key.clone()))
                .or_insert((s, doc.is_some()));
        }
    }
    let one_by_one = winners(cursor(), Some(1));
    let got: Vec<(usize, Value, bool)> = one_by_one
        .iter()
        .map(|(winner, key, live)| (winner.source, key.clone(), *live))
        .collect();
    let want: Vec<(usize, Value, bool)> = model
        .into_iter()
        .map(|(key, (s, live))| (s, key.0, live))
        .collect();
    assert_eq!(got, want, "limit-one steps against the model");
    for limit in limits.iter().map(|&limit| Some(limit)).chain([None]) {
        assert_eq!(winners(cursor(), limit), one_by_one, "steps of {limit:?}");
    }
}

/// The edges a step meets, at every limit from one to five and unbounded,
/// over leaves of four records.
#[test]
fn steps_at_the_edges() {
    use LayoutKind::{Amax, Apax, Vb};
    let limits = [usize::MAX, 1, 2, 3, 4, 5];
    for strings in [false, true] {
        let s =
            |layout, ids: std::ops::Range<i64>, anti: &[i64]| source(layout, ids, anti, strings);
        let cases = [
            // Anti-matter first and last in a leaf, over the versions it
            // hides.
            vec![
                s(Some(Amax), 0..8, &[0, 3, 4, 7]),
                s(Some(Apax), 0..12, &[]),
            ],
            vec![s(Some(Vb), 0..8, &[0, 7]), s(Some(Amax), 0..12, &[3, 4])],
            // Two sources whose resident leaves end on the same key.
            vec![
                source(Some(Amax), (1..16).step_by(2), &[7], strings),
                s(Some(Amax), 4..16, &[]),
            ],
            // A source that runs out mid-step: a short component, a short
            // memtable.
            vec![s(Some(Amax), 2..4, &[]), s(Some(Amax), 0..40, &[])],
            vec![
                s(None, 1..3, &[2]),
                s(Some(Apax), 0..40, &[]),
                s(Some(Amax), 0..20, &[5]),
            ],
            // Disjoint key ranges.
            vec![
                s(Some(Amax), 0..10, &[]),
                s(Some(Vb), 20..30, &[25]),
                s(Some(Apax), 40..50, &[]),
            ],
        ];
        for sources in &cases {
            check_steps(sources, 4, strings, &limits);
        }
    }
}

/// A source's entries from per-position codes: 0–3 no entry, 4–7 a record,
/// 8–9 anti-matter; position `j` holds key `offset * 30 + j`.
fn coded(layout: Option<LayoutKind>, offset: i64, codes: &[u8], strings: bool) -> Source {
    let entries = codes
        .iter()
        .enumerate()
        .filter(|(_, &code)| code >= 4)
        .map(|(j, &code)| entry(offset * 30 + j as i64, code < 8, strings))
        .collect();
    Source { layout, entries }
}

const STEP_CASES: u32 = if cfg!(debug_assertions) { 32 } else { 256 };

// Overlapping, nested and disjoint key ranges over 1–5 components of mixed
// layouts and an optional memtable, anti-matter anywhere in a leaf, leaves
// of 2–8 records: whole steps, steps of `limit`, limit-one steps and
// `next_winner` hand over the same winners.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(STEP_CASES))]

    #[test]
    fn one_step_is_many_steps(
        memtable in prop_oneof![
            Just(None),
            prop::collection::vec(0u8..10, 0..50).prop_map(Some),
        ],
        components in prop::collection::vec(
            (0usize..4, 0i64..3, prop::collection::vec(0u8..10, 1..60)),
            1..6,
        ),
        strings in prop_oneof![Just(false), Just(true)],
        record_limit in 2usize..9,
        limit in 1usize..8,
    ) {
        let mut sources = Vec::new();
        if let Some(codes) = &memtable {
            sources.push(coded(None, 1, codes, strings));
        }
        for (layout, offset, codes) in &components {
            let source = coded(Some(LayoutKind::ALL[*layout]), *offset, codes, strings);
            if !source.entries.is_empty() {
                sources.push(source);
            }
        }
        check_steps(&sources, record_limit, strings, &[usize::MAX, limit]);
    }
}
