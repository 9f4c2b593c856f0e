//! Differential fleet for the streaming execution refactor.
//!
//! The refactor replaced "materialise the scanned batch, then process" with
//! a pull-based pipeline over the snapshot's k-way merge-reconcile cursor.
//! That is a pure *execution-model* change — it may never change an answer.
//! This suite locks that in:
//!
//! * a property test running random documents × filters × select lists
//!   (aggregate **and** raw-column projection forms) × LIMIT values through
//!   both engines, sharded and unsharded, with filter push-down (and so the
//!   zone maps) on and off,
//!   against the materialised batch oracle ([`query::oracle`]) — the seed's
//!   execution model kept alive verbatim for exactly this comparison;
//! * I/O-level assertions that `ORDER BY key LIMIT k` terminates early:
//!   the limited scan reads **strictly fewer pages** than the full scan,
//!   across layouts and engines, and the streaming scan's peak resident
//!   batch stays at one leaf per component while the oracle materialises
//!   everything.

mod support;

use proptest::prelude::*;

use docmodel::{doc, Value};
use lsm::{DatasetConfig, LsmDataset};
use query::{
    oracle, ExecMode, Expr, PlannerOptions, Query, QueryEngine, QueryRow,
};
use storage::LayoutKind;

use support::{arb_aggregate, arb_doc_body, arb_expr, build_doc, dataset};

fn engine(mode: ExecMode, pushdown: bool) -> QueryEngine {
    QueryEngine::with_options(
        mode,
        PlannerOptions { filter_pushdown: pushdown, ..Default::default() },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20))]

    // Streaming execution == the materialised batch oracle, across engines ×
    // shards × pushdown × LIMIT × both select forms. Documents arrive in two
    // flushes with interleaved updates, so the merge cursor reconciles
    // shadowed versions and anti-matter across real component overlap.
    #[test]
    fn streaming_matches_the_batch_oracle(
        bodies in prop::collection::vec(arb_doc_body(), 20..60),
        update_bodies in prop::collection::vec(arb_doc_body(), 0..10),
        deletes in prop::collection::vec(0usize..20, 0..4),
        filter in arb_expr(),
        aggs in prop::collection::vec(arb_aggregate(), 1..4),
        select_form in prop_oneof![Just(false), Just(true)],
        group in prop_oneof![Just(false), Just(true)],
        limit in prop_oneof![Just(None), (1usize..6).prop_map(Some)],
    ) {
        let reference = dataset("stream-reference", false);
        let shards: Vec<LsmDataset> =
            (0..4).map(|i| dataset(&format!("stream-shard-{i}"), false)).collect();
        let insert = |doc: Value, i: usize| {
            reference.insert(doc.clone()).unwrap();
            shards[i % 4].insert(doc).unwrap();
        };
        let half = bodies.len() / 2;
        for (i, body) in bodies[..half].iter().enumerate() {
            insert(build_doc(i as i64, body), i);
        }
        reference.flush().unwrap();
        for shard in &shards {
            shard.flush().unwrap();
        }
        // Updates + deletes overlap the first component's key range.
        for (i, body) in update_bodies.iter().enumerate() {
            let key = (i % half.max(1)) as i64;
            insert(build_doc(key, body), key as usize);
        }
        for &key in &deletes {
            let key = (key % half.max(1)) as i64;
            reference.delete(Value::Int(key)).unwrap();
            shards[(key as usize) % 4].delete(Value::Int(key)).unwrap();
        }
        for (i, body) in bodies[half..].iter().enumerate() {
            insert(build_doc((half + i) as i64, body), half + i);
        }
        reference.flush().unwrap();
        for shard in &shards {
            shard.flush().unwrap();
        }

        let mut query = if select_form {
            Query::select_paths(["score", "grp", "tags"])
                .with_filter(filter)
                .order_by_key()
        } else {
            let mut q = Query::select(aggs).with_filter(filter);
            if group {
                q = q.group_by("grp");
            }
            q
        };
        if let Some(k) = limit {
            query = if select_form { query.with_limit(k) } else { query.top_k(k) };
        }

        // The oracle: the seed's materialise-then-process model.
        let expected = oracle::execute_batch(&reference.snapshot(), &query).unwrap();

        let refs: Vec<&LsmDataset> = shards.iter().collect();
        for mode in [ExecMode::Compiled, ExecMode::Interpreted] {
            for pushdown in [true, false] {
                let engine = engine(mode, pushdown);
                let single = engine.execute(&reference, &query).unwrap();
                prop_assert_eq!(
                    &expected, &single,
                    "streaming vs batch oracle ({:?}, pushdown={}) on {:?}",
                    mode, pushdown, query
                );
                let sharded = engine.execute(&refs[..], &query).unwrap();
                prop_assert_eq!(
                    &expected, &sharded,
                    "sharded(4) streaming vs batch oracle ({:?}, pushdown={}) on {:?}",
                    mode, pushdown, query
                );
            }
        }
    }
}

/// Build a multi-leaf, multi-component AMAX dataset so `LIMIT` has a tail
/// to skip.
fn leafy_dataset(layout: LayoutKind) -> LsmDataset {
    let mut config = DatasetConfig::new("limit-io", layout)
        .with_memtable_budget(usize::MAX)
        .with_page_size(4 * 1024);
    config.amax.record_limit = 64;
    let ds = LsmDataset::new(config);
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
        let rows = QueryEngine::new(ExecMode::Compiled).execute(&ds, q).unwrap();
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
