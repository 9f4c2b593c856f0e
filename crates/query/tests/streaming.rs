//! The streaming pipeline: a pull-based pipeline over the snapshot's k-way
//! merge-reconcile cursor. That it answers as the materialised batch oracle
//! ([`query::oracle`]) does is checked by the lifecycle differential
//! (`lifecycle.rs`). Pinned here is what that check cannot see: `ORDER BY
//! key LIMIT k` terminates early (the limited scan reads **strictly fewer
//! pages** than the full scan, across layouts and engines), and the
//! streaming scan's peak resident batch stays at one leaf per component
//! while the oracle materialises everything.

use docmodel::{doc, Value};
use lsm::LsmDataset;
use query::{ExecMode, Expr, Query, QueryEngine, QueryRow};
use storage::LayoutKind;
use testkit::leafy_config;

/// Build a multi-leaf, multi-component AMAX dataset so `LIMIT` has a tail
/// to skip.
fn leafy_dataset(layout: LayoutKind) -> LsmDataset {
    let ds = LsmDataset::new(leafy_config("limit-io", layout, 4 * 1024, 64));
    for i in 0..600i64 {
        ds.insert(doc!({
            "id": i,
            "score": (i % 100),
            "grp": (format!("g{}", i % 7)),
            "text": (format!("padding text for record {i} to fill leaves with bytes"))
        }))
        .unwrap();
        if i == 299 {
            ds.flush().unwrap();
        }
    }
    ds.flush().unwrap();
    ds
}

/// `ORDER BY key LIMIT k` over the key-ordered merge stream terminates
/// after the k-th match: strictly fewer pages than the full scan, same
/// prefix of rows — across layouts and both engines.
#[test]
fn limited_key_ordered_scans_read_strictly_fewer_pages() {
    for layout in [LayoutKind::Vb, LayoutKind::Apax, LayoutKind::Amax] {
        let ds = leafy_dataset(layout);
        let pages_for = |engine: &QueryEngine, q: &Query| -> (Vec<QueryRow>, u64) {
            ds.cache().clear();
            ds.cache().store().reset_stats();
            let rows = engine.execute(&ds, q).unwrap();
            (rows, ds.io_stats().pages_read)
        };
        let full = Query::select_paths(["score"])
            .with_filter(Expr::ge("score", 10))
            .order_by_key();
        let limited = full.clone().with_limit(5);
        for mode in [ExecMode::Compiled, ExecMode::Interpreted] {
            let engine = QueryEngine::new(mode);
            let (all_rows, full_pages) = pages_for(&engine, &full);
            let (few_rows, few_pages) = pages_for(&engine, &limited);
            assert_eq!(
                &all_rows[..5],
                &few_rows[..],
                "{layout:?}/{mode:?}: LIMIT must return the first 5 matches"
            );
            assert!(
                few_pages < full_pages,
                "{layout:?}/{mode:?}: LIMIT 5 read {few_pages} pages, full scan {full_pages}"
            );
        }
    }
}

/// The k-th match must be the *last* entry ever pulled: a limit that lands
/// exactly on an AMAX leaf boundary (64-record leaves) reads the same
/// pages as one row fewer — pulling once more would decode the next leaf.
/// `LIMIT 0` answers without reading a single page.
#[test]
fn limit_never_pulls_past_the_kth_match() {
    let ds = leafy_dataset(LayoutKind::Amax);
    let pages_for = |q: &Query| {
        ds.cache().clear();
        ds.cache().store().reset_stats();
        let rows = QueryEngine::new(ExecMode::Compiled)
            .execute(&ds, q)
            .unwrap();
        (rows, ds.io_stats().pages_read)
    };
    let select = Query::select_paths(["score"]).order_by_key();
    let (rows_63, pages_63) = pages_for(&select.clone().with_limit(63));
    let (rows_64, pages_64) = pages_for(&select.clone().with_limit(64));
    assert_eq!(rows_63.len(), 63);
    assert_eq!(rows_64.len(), 64);
    assert_eq!(
        pages_63, pages_64,
        "the 64th row lives in the same leaf; reading more pages means the \
         pipeline pulled past the k-th match"
    );
    let (rows_0, pages_0) = pages_for(&select.clone().with_limit(0));
    assert!(rows_0.is_empty());
    assert_eq!(pages_0, 0, "LIMIT 0 must not touch storage");
}

/// The streaming scan's peak resident batch is bounded by one decoded leaf
/// per component — far below the materialised batch of the oracle's model.
#[test]
fn streaming_scan_memory_is_bounded_by_leaves_not_the_dataset() {
    let ds = leafy_dataset(LayoutKind::Amax);
    let snapshot = ds.snapshot();
    let mut cursor = snapshot.cursor(None).unwrap();
    let mut total = 0usize;
    for entry in cursor.by_ref() {
        entry.unwrap();
        total += 1;
    }
    assert_eq!(total, 600);
    let peak = cursor.peak_buffered();
    assert!(peak > 0, "the cursor decodes leaves");
    // Two components × 64-record AMAX leaves: the high-water mark stays at
    // about one leaf per component, nowhere near the 600-record dataset.
    assert!(
        peak <= 2 * 64,
        "peak resident batch {peak} exceeds one leaf per component"
    );
}

/// COUNT(*) streams the key-only cursor: the answer and the page count are
/// unchanged from the materialised implementation (Page 0 only for AMAX).
#[test]
fn streaming_count_still_reads_keys_only() {
    let ds = leafy_dataset(LayoutKind::Amax);
    ds.cache().clear();
    ds.cache().store().reset_stats();
    let count = QueryEngine::new(ExecMode::Compiled)
        .execute(&ds, &Query::count_star())
        .unwrap();
    assert_eq!(count[0].agg(), &Value::Int(600));
    let key_pages = ds.io_stats().pages_read;

    ds.cache().clear();
    ds.cache().store().reset_stats();
    let full: Vec<Value> = ds.scan(None).unwrap();
    assert_eq!(full.len(), 600);
    let full_pages = ds.io_stats().pages_read;
    assert!(
        key_pages < full_pages,
        "COUNT(*) ({key_pages} pages) must read fewer pages than a full scan ({full_pages})"
    );
}
