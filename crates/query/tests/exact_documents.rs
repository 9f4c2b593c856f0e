//! Every layout stores exactly what VB stores: documents with `null`s,
//! empty containers, arrays of arrays and mixed items come back as written
//! — through a point read and through queries (`EXISTS`, a comparison with
//! `null`, `COUNT` over the elements, the values themselves) — from the
//! memtable, flushed, reopened and merged, on VB, APAX and AMAX alike.
//!
//! Each case is a list of flushes, each a list of documents (the keys are
//! their positions). The cases are the inputs the columnar layouts once
//! rewrote: a field that was only `null` or empty, a `null` after a value,
//! `null` array items, an emptied object whose field's levels still said it
//! was there, and items that are arrays of arrays beside other items — plus
//! a container seen only empty in one component and with items in the next,
//! reopened before the merge that re-shreds the older one.

use docmodel::{doc, Path, Value};
use lsm::{CompactionSpec, DatasetConfig, LsmDataset};
use query::{oracle, Aggregate, Expr, Query, QueryRow};
use storage::LayoutKind;
use testkit::exec::{every_execution_agrees, ROTATIONS};
use testkit::{leafy_config, sort_fields, TempDir};

fn cases() -> Vec<(&'static str, Vec<Vec<Value>>)> {
    vec![
        ("null", vec![vec![doc!({"n": null})]]),
        ("empty array", vec![vec![doc!({"tags": []})]]),
        ("empty object", vec![vec![doc!({"o": {}})]]),
        ("array of an empty array", vec![vec![doc!({"a": [[]]})]]),
        ("array of an empty object", vec![vec![doc!({"a": [{}]})]]),
        (
            "null after a value",
            vec![vec![doc!({"n": 1}), doc!({"n": null})]],
        ),
        ("null items", vec![vec![doc!({"a": [1, null, 2]})]]),
        (
            "an emptied object",
            vec![vec![doc!({"o": {"x": 1}}), doc!({"o": {}})]],
        ),
        (
            "an empty array beside a value",
            vec![vec![doc!({"d": [[[], true]]})]],
        ),
        (
            "an array of arrays beside an object",
            vec![vec![doc!({"d": [[[]], {"a": 1}]})]],
        ),
        (
            "empty objects inside items",
            vec![vec![
                doc!({"d": [[[], true], {"c": {}, "a": false}]}),
                doc!({"d": [{"c": {}, "a": false}]}),
            ]],
        ),
        (
            "an empty array that gains items",
            vec![vec![doc!({"tags": []})], vec![doc!({"tags": ["x"]})]],
        ),
    ]
}

/// The top-level fields of a case's documents.
fn fields(docs: &[Value]) -> Vec<String> {
    let mut names: Vec<String> = Vec::new();
    for doc in docs {
        if let Value::Object(fields) = doc {
            for (name, _) in fields {
                if name != "id" && !names.contains(name) {
                    names.push(name.clone());
                }
            }
        }
    }
    names
}

/// Per top-level field: `EXISTS`, `= null`, `COUNT` over its elements, its
/// non-null count and its values in key order.
fn queries(docs: &[Value]) -> Vec<Query> {
    fields(docs)
        .iter()
        .flat_map(|name| {
            let path = name.as_str();
            [
                Query::count_star().with_filter(Expr::exists(path)),
                Query::count_star().with_filter(Expr::eq(path, Value::Null)),
                Query::count_star().with_unnest(path),
                Query::select([Aggregate::CountNonNull(Path::parse(path))]),
                Query::select_paths([path]).order_by_key(),
            ]
        })
        .collect()
}

/// The batch oracle over an unflushed VB dataset holding `docs`.
fn model_rows(docs: &[Value], query: &Query) -> Vec<QueryRow> {
    let ds = LsmDataset::new(
        DatasetConfig::new("exact-model", LayoutKind::Vb).with_memtable_budget(usize::MAX),
    );
    docs.iter().for_each(|doc| ds.insert(doc.clone()).unwrap());
    oracle::execute_batch(&ds.snapshot(), query).unwrap()
}

/// `ds` holds exactly `docs`: each point read, and every query on every
/// engine and lane, answers what the model answers.
fn check(ds: &LsmDataset, docs: &[Value], what: &str) {
    for (id, doc) in docs.iter().enumerate() {
        let got = ds.lookup(&Value::Int(id as i64), None).unwrap();
        assert_eq!(
            got.map(|d| sort_fields(&d)),
            Some(sort_fields(doc)),
            "{what}: get({id})"
        );
    }
    for query in queries(docs) {
        let want = model_rows(docs, &query);
        // Printed with the failure only: the harness captures it.
        eprintln!("{what}: {query:?}");
        for rotation in 0..ROTATIONS {
            every_execution_agrees(ds, &query, Some(&want), rotation);
        }
    }
}

#[test]
fn every_layout_returns_what_was_written() {
    for (case, flushes) in cases() {
        let docs: Vec<Value> = flushes
            .iter()
            .flatten()
            .enumerate()
            .map(|(id, doc)| {
                let mut doc = doc.clone();
                doc.set_field("id", Value::Int(id as i64));
                doc
            })
            .collect();
        for layout in [LayoutKind::Vb, LayoutKind::Apax, LayoutKind::Amax] {
            let what = |stage: &str| format!("{case}, {layout:?}, {stage}");
            let dir = TempDir::new("exact-documents", &format!("{layout:?}"));
            let config = leafy_config("exact", layout, 4 * 1024, 16)
                .with_compaction(CompactionSpec::tiered(f64::INFINITY, 64));
            let ds = LsmDataset::open(&dir, config.clone()).unwrap();
            let mut written = 0;
            for (i, flush) in flushes.iter().enumerate() {
                for doc in &docs[written..written + flush.len()] {
                    ds.insert(doc.clone()).unwrap();
                }
                written += flush.len();
                if i == 0 {
                    check(&ds, &docs[..written], &what("memtable"));
                }
                ds.flush().unwrap();
            }
            check(&ds, &docs, &what("flushed"));
            drop(ds);
            let ds = LsmDataset::open(&dir, config.clone()).unwrap();
            check(&ds, &docs, &what("reopened"));
            ds.compact_fully().unwrap();
            assert_eq!(ds.component_count(), 1);
            check(&ds, &docs, &what("merged"));
            drop(ds);
            let ds = LsmDataset::open(&dir, config).unwrap();
            check(&ds, &docs, &what("merged and reopened"));
        }
    }
}
