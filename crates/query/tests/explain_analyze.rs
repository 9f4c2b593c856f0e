//! Differential tests for EXPLAIN ANALYZE: the report's *actual* counters
//! must be exact, not estimates.
//!
//! * pages read in the report == the I/O-stats delta the test measures
//!   around the call, to the page — across engines × layouts × single and
//!   sharded targets;
//! * a query whose zone maps hide every component reads **zero** pages, and
//!   counts every leaf of a hidden component as skipped;
//! * `ORDER BY key LIMIT k` reports its early-termination point (the exact
//!   number of records pulled before the pipeline stopped);
//! * the report's result rows are identical to `execute`'s, so analyzing
//!   never changes an answer.

use docmodel::{doc, Value};
use lsm::{DatasetConfig, LsmDataset};
use query::{ExecMode, Expr, Query, QueryEngine};
use storage::LayoutKind;
use testkit::leafy_config;

/// Two flushed components with disjoint `score` ranges (0..100 and
/// 1000..1100), multi-leaf pages, empty memtable.
fn two_band_dataset(layout: LayoutKind) -> LsmDataset {
    let ds = LsmDataset::new(leafy_config("analyze", layout, 4 * 1024, 64));
    for i in 0..300i64 {
        ds.insert(doc!({
            "id": i,
            "score": (i % 100),
            "grp": (format!("g{}", i % 7)),
            "text": (format!("padding text for record {i} to fill leaves with bytes"))
        }))
        .unwrap();
    }
    ds.flush().unwrap();
    for i in 300..600i64 {
        ds.insert(doc!({
            "id": i,
            "score": (1_000 + i % 100),
            "grp": (format!("g{}", i % 7)),
            "text": (format!("padding text for record {i} to fill leaves with bytes"))
        }))
        .unwrap();
    }
    ds.flush().unwrap();
    assert_eq!(ds.component_count(), 2);
    ds
}

/// The workhorse assertion: run `explain_analyze` from a cold cache and
/// check (a) the reported page/byte counts equal the I/O-stats delta the
/// test measures around the call, and (b) the rows equal `execute`'s.
fn assert_exact(ds: &LsmDataset, engine: &QueryEngine, query: &Query, label: &str) {
    let expected = engine.execute(ds, query).unwrap();
    ds.cache().clear();
    ds.cache().store().reset_stats();
    let before = ds.io_stats();
    let report = engine.explain_analyze(ds, query).unwrap();
    let after = ds.io_stats();
    assert_eq!(report.rows, expected, "{label}: analyze changed the answer");
    assert_eq!(
        report.pages_read(),
        after.pages_read - before.pages_read,
        "{label}: reported pages must equal the I/O delta exactly"
    );
    assert_eq!(
        report.bytes_read(),
        after.bytes_read - before.bytes_read,
        "{label}: reported bytes must equal the I/O delta exactly"
    );
    // The annotated rendering embeds the plan and the counters.
    let text = report.describe();
    assert!(text.contains("analyze:"), "{label}: {text}");
    assert!(text.starts_with(&report.plan), "{label}: {text}");
}

#[test]
fn analyze_counters_are_exact_across_engines_and_layouts() {
    let queries = [
        Query::select_paths(["score", "grp"])
            .with_filter(Expr::ge("score", 10))
            .order_by_key(),
        Query::select_paths(["score"]).order_by_key().with_limit(5),
        Query::count_star(),
        Query::count_star().with_filter(Expr::between("score", 1_000i64, 1_099i64)),
        Query::select([query::Aggregate::Sum(docmodel::Path::parse("score"))])
            .with_filter(Expr::exists("score"))
            .group_by("grp"),
    ];
    for layout in [LayoutKind::Vb, LayoutKind::Apax, LayoutKind::Amax] {
        let ds = two_band_dataset(layout);
        for mode in [ExecMode::Compiled, ExecMode::Interpreted] {
            let engine = QueryEngine::new(mode);
            for (qi, query) in queries.iter().enumerate() {
                assert_exact(&ds, &engine, query, &format!("{layout:?}/{mode:?}/q{qi}"));
            }
        }
    }
}

#[test]
fn fully_pruned_queries_read_zero_pages() {
    for layout in [LayoutKind::Vb, LayoutKind::Amax] {
        let ds = two_band_dataset(layout);
        let engine = QueryEngine::new(ExecMode::Compiled);

        let leaves: Vec<u64> = ds
            .components()
            .iter()
            .map(|c| c.leaf_count() as u64)
            .collect();
        assert!(leaves.iter().all(|&n| n > 1), "{layout:?}: {leaves:?}");

        // Disjoint from both bands: every component is hidden, zero I/O.
        let nowhere = Query::select_paths(["score"])
            .with_filter(Expr::between("score", 5_000i64, 6_000i64))
            .order_by_key();
        ds.cache().clear();
        ds.cache().store().reset_stats();
        let report = engine.explain_analyze(&ds, &nowhere).unwrap();
        assert!(report.rows.is_empty());
        assert_eq!(report.leaves_skipped(), leaves[0] + leaves[1], "{layout:?}");
        assert_eq!(
            report.pages_read(),
            0,
            "{layout:?}: hidden components must cost zero pages"
        );
        assert_eq!(
            ds.io_stats().pages_read,
            0,
            "{layout:?}: nothing read at all"
        );

        // Matching only the second band hides exactly the first component,
        // and the analyze counters stay exact.
        let second_band = Query::select_paths(["score"])
            .with_filter(Expr::between("score", 1_000i64, 1_099i64))
            .order_by_key();
        let report = engine.explain_analyze(&ds, &second_band).unwrap();
        assert_eq!(report.rows.len(), 300, "{layout:?}");
        assert_eq!(report.leaves_skipped(), leaves[0], "{layout:?}");
        assert!(report.pages_read() > 0, "{layout:?}");
        assert_exact(
            &ds,
            &engine,
            &second_band,
            &format!("{layout:?}/second-band"),
        );
    }
}

#[test]
fn order_by_key_limit_reports_the_early_termination_point() {
    for mode in [ExecMode::Compiled, ExecMode::Interpreted] {
        let ds = two_band_dataset(LayoutKind::Amax);
        let engine = QueryEngine::new(mode);

        let limited = Query::select_paths(["score"]).order_by_key().with_limit(5);
        let report = engine.explain_analyze(&ds, &limited).unwrap();
        assert_eq!(report.rows.len(), 5, "{mode:?}");
        let stopped_at = report
            .early_termination()
            .expect("a satisfied LIMIT stops before draining 600 records");
        assert_eq!(stopped_at, report.rows_pulled(), "{mode:?}");
        assert!(
            (5..600).contains(&(stopped_at as usize)),
            "{mode:?}: pulled {stopped_at} records for LIMIT 5 over 600"
        );

        // An unlimited scan drains the stream: no early termination.
        let full = Query::select_paths(["score"]).order_by_key();
        let report = engine.explain_analyze(&ds, &full).unwrap();
        assert_eq!(report.rows.len(), 600, "{mode:?}");
        assert_eq!(report.early_termination(), None, "{mode:?}");
        assert_eq!(report.rows_pulled(), 600, "{mode:?}");

        // A key-only COUNT(*) never pulls records through the pipeline; its
        // cost is pure page I/O and the stream reports complete.
        ds.cache().clear();
        ds.cache().store().reset_stats();
        let report = engine.explain_analyze(&ds, &Query::count_star()).unwrap();
        assert_eq!(report.rows[0].agg(), &Value::Int(600), "{mode:?}");
        assert_eq!(report.rows_pulled(), 0, "{mode:?}");
        assert_eq!(report.early_termination(), None, "{mode:?}");
        assert!(report.pages_read() > 0, "{mode:?}");
    }
}

#[test]
fn sharded_analyze_reports_exact_per_shard_deltas() {
    let config = DatasetConfig::new("analyze-shard", LayoutKind::Amax)
        .with_memtable_budget(64 * 1024)
        .with_page_size(8 * 1024);
    let shards: Vec<LsmDataset> = (0..4).map(|_| LsmDataset::new(config.clone())).collect();
    for i in 0..80i64 {
        let doc = doc!({"id": i, "grp": (format!("g{}", i % 5)), "score": (i % 100)});
        shards[i as usize % 4].insert(doc).unwrap();
    }
    for shard in &shards {
        shard.flush().unwrap();
    }
    for mode in [ExecMode::Compiled, ExecMode::Interpreted] {
        let engine = QueryEngine::new(mode);
        for query in [
            Query::select_paths(["score", "grp"])
                .with_filter(Expr::ge("score", 20))
                .order_by_key(),
            Query::count_star(),
            Query::select([query::Aggregate::Max(docmodel::Path::parse("score"))]).group_by("grp"),
        ] {
            let expected = engine.execute(&shards[..], &query).unwrap();
            for shard in &shards {
                shard.cache().clear();
                shard.cache().store().reset_stats();
            }
            let before: Vec<_> = shards.iter().map(|s| s.io_stats()).collect();
            let report = engine.explain_analyze(&shards[..], &query).unwrap();
            assert_eq!(report.rows, expected, "{mode:?}: {query:?}");
            assert_eq!(report.shards.len(), 4, "{mode:?}");
            // Each shard's entry matches that shard's own store delta —
            // partitions run sequentially under analyze, so per-shard
            // attribution is exact, not approximate.
            for (i, (shard, before)) in shards.iter().zip(&before).enumerate() {
                let delta = shard.io_stats().pages_read - before.pages_read;
                assert_eq!(
                    report.shards[i].pages_read, delta,
                    "{mode:?}: shard {i} pages must match its own I/O delta"
                );
            }
        }
    }
}

/// Analyzing a snapshot target accounts I/O through the component's shared
/// store handle, identically to the dataset path.
#[test]
fn snapshot_targets_account_pages_too() {
    let ds = two_band_dataset(LayoutKind::Amax);
    let engine = QueryEngine::new(ExecMode::Compiled);
    let query = Query::select_paths(["score"])
        .with_filter(Expr::ge("score", 0))
        .order_by_key();

    let snapshot = ds.snapshot();
    ds.cache().clear();
    ds.cache().store().reset_stats();
    let before = ds.io_stats();
    let report = engine.explain_analyze(&snapshot, &query).unwrap();
    let after = ds.io_stats();
    assert_eq!(report.rows.len(), 600);
    assert_eq!(report.pages_read(), after.pages_read - before.pages_read);
    assert!(report.pages_read() > 0, "a cold full scan reads pages");
}

/// The stage clock runs around each partition: a cold aggregate over a
/// columnar dataset reads pages, decodes levels and values and folds them
/// in a kernel, and its stages add up to no more than the wall time.
/// Columnar pages are stored raw, so nothing is decompressed.
#[test]
fn analyze_splits_the_wall_time_by_stage() {
    use telemetry::stage::Stage;
    let engine = QueryEngine::new(ExecMode::Compiled);
    let query = Query::select([query::Aggregate::Max(docmodel::Path::parse("score"))]);
    for layout in [LayoutKind::Apax, LayoutKind::Amax] {
        let ds = two_band_dataset(layout);
        ds.cache().clear();
        let cold = engine.explain_analyze(&ds, &query).unwrap();
        let stages = cold.stages();
        assert!(stages.count(Stage::PageRead) > 0, "{layout:?}: {stages}");
        assert!(stages.count(Stage::DecodeLevels) > 0, "{layout:?}: {stages}");
        assert!(stages.count(Stage::DecodeValues) > 0, "{layout:?}: {stages}");
        assert!(stages.count(Stage::KernelFold) > 0, "{layout:?}: {stages}");
        assert_eq!(stages.count(Stage::Assemble), 0, "{layout:?}: {stages}");
        assert_eq!(stages.count(Stage::Decompress), 0, "{layout:?}: {stages}");
        assert!(stages.total() <= cold.wall, "{layout:?}: {stages} in {:?}", cold.wall);
        assert!(cold.describe().contains("analyze[shard 0] stages: page read"));
    }
}

#[test]
fn analyze_splits_an_index_probe_from_its_point_lookups() {
    use query::{AccessPathChoice, PlannerOptions};
    use telemetry::stage::Stage;
    let ds = LsmDataset::new(
        leafy_config("analyze-probe", LayoutKind::Amax, 4 * 1024, 64)
            .with_secondary_index(docmodel::Path::parse("score")),
    );
    for i in 0..300i64 {
        ds.insert(doc!({"id": i, "score": (i % 100), "text": "padding"})).unwrap();
    }
    ds.flush().unwrap();
    // A few in-range records answered by the memtable, the rest by the
    // component.
    for i in [10i64, 20, 30] {
        ds.insert(doc!({"id": i, "score": 15, "text": "moved"})).unwrap();
    }
    let engine = QueryEngine::with_options(
        ExecMode::Compiled,
        PlannerOptions::with_access_path(AccessPathChoice::ForceIndex),
    );
    // `COUNT(text)` reads a path, so the probe looks its records up (a
    // `COUNT(*)` would be index-only).
    let query = Query::select([query::Aggregate::CountNonNull(docmodel::Path::parse("text"))])
        .with_filter(Expr::between("score", 10, 19));
    let report = engine.explain_analyze(&ds, &query).unwrap();
    // 30 records score 10..=19; ids 20 and 30 move in, id 10 stays.
    assert_eq!(report.rows[0].agg(), &Value::Int(32));
    let stages = report.stages();
    for stage in [Stage::IndexProbe, Stage::PointLookup] {
        assert_eq!(stages.count(stage), 1, "{stage:?}: {stages}");
        assert!(!stages.time(stage).is_zero(), "{stage:?}: {stages}");
    }
    assert!(stages.total() <= report.wall, "{stages} in {:?}", report.wall);
}

/// An index-only `COUNT(*)` answers from the secondary index's keys alone:
/// from a cold cache it reads no page and assembles no record, whether the
/// records sit in a component or in the memtable, and it equals the scan's
/// count. `Auto` takes it (a probe that looks nothing up costs no page).
#[test]
fn an_index_only_count_reads_no_page_and_assembles_no_record() {
    use query::{AccessPathChoice, PlannerOptions};
    use telemetry::stage::Stage;
    let ds = LsmDataset::new(
        leafy_config("analyze-index-only", LayoutKind::Amax, 4 * 1024, 64)
            .with_secondary_index(docmodel::Path::parse("score")),
    );
    for i in 0..300i64 {
        ds.insert(doc!({"id": i, "score": (i % 100), "text": "padding"})).unwrap();
    }
    ds.flush().unwrap();
    // Memtable versions: two move into the range, one moves out of it, one
    // is deleted.
    for (i, score) in [(20i64, 15), (30, 15), (11, 50)] {
        ds.insert(doc!({"id": i, "score": score, "text": "moved"})).unwrap();
    }
    ds.delete(Value::Int(12)).unwrap();
    assert!(ds.in_memory_entries() > 0 && ds.component_count() == 1);
    let query = Query::count_star().with_filter(Expr::between("score", 10, 19));
    let scan = QueryEngine::with_options(
        ExecMode::Compiled,
        PlannerOptions::with_access_path(AccessPathChoice::ForceScan),
    )
    .execute(&ds, &query)
    .unwrap();
    // 30 records score 10..=19; 20 and 30 move in, 11 moves out, 12 goes.
    assert_eq!(scan[0].agg(), &Value::Int(30));
    for choice in [AccessPathChoice::ForceIndex, AccessPathChoice::Auto] {
        for mode in [ExecMode::Compiled, ExecMode::Interpreted] {
            let engine = QueryEngine::with_options(mode, PlannerOptions::with_access_path(choice));
            ds.cache().clear();
            ds.cache().store().reset_stats();
            let report = engine.explain_analyze(&ds, &query).unwrap();
            let label = format!("{choice:?}/{mode:?}");
            assert!(report.plan.contains("index-only"), "{label}: {}", report.plan);
            assert_eq!(report.rows, scan, "{label}");
            assert_eq!(report.pages_read(), 0, "{label}");
            assert_eq!(ds.io_stats().pages_read, 0, "{label}");
            assert_eq!(report.records_assembled(), 0, "{label}");
            assert_eq!(report.rows_pulled(), 0, "{label}");
            let stages = report.stages();
            assert_eq!(stages.count(Stage::IndexProbe), 1, "{label}: {stages}");
            assert_eq!(stages.count(Stage::PointLookup), 0, "{label}: {stages}");
        }
    }
}
