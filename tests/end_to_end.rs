//! Cross-crate integration tests: the full pipeline from JSON text through
//! schema inference, shredding, LSM storage in every layout, and both query
//! engines, checked for mutual consistency.

use lsm_columnar::datagen::{generate, generate_updates, DatasetKind, DatasetSpec};
use lsm_columnar::docstore::{DatasetOptions, Datastore, Layout};
use lsm_columnar::lsm::{DatasetConfig, LsmDataset};
use lsm_columnar::query::{Aggregate, ExecMode, Expr, Query, QueryEngine};
use lsm_columnar::storage::LayoutKind;
use lsm_columnar::{doc, Path, Value};

fn run(dataset: &LsmDataset, query: &Query, mode: ExecMode) -> Vec<lsm_columnar::query::QueryRow> {
    QueryEngine::new(mode).execute(dataset, query).unwrap()
}

fn build(kind: DatasetKind, layout: LayoutKind, records: usize, secondary: bool) -> LsmDataset {
    let docs = generate(&DatasetSpec::new(kind, records));
    let mut config = DatasetConfig::new(kind.name(), layout)
        .with_memtable_budget(128 * 1024)
        .with_page_size(16 * 1024);
    if secondary {
        config = config.with_secondary_index(Path::parse("timestamp"));
    }
    let dataset = LsmDataset::new(config);
    for doc in docs {
        dataset.insert(doc).unwrap();
    }
    dataset.flush().unwrap();
    dataset
}

#[test]
fn all_layouts_agree_on_every_paper_query() {
    // For each dataset and each of the paper's queries, all four layouts and
    // both execution engines must return identical results.
    for kind in [DatasetKind::Cell, DatasetKind::Sensors, DatasetKind::Wos] {
        let records = 600;
        let reference = build(kind, LayoutKind::Open, records, false);
        let others: Vec<LsmDataset> = [LayoutKind::Vb, LayoutKind::Apax, LayoutKind::Amax]
            .into_iter()
            .map(|layout| build(kind, layout, records, false))
            .collect();
        for (name, query) in bench::queries_for(kind) {
            let expected = run(&reference, &query, ExecMode::Compiled);
            let interpreted = run(&reference, &query, ExecMode::Interpreted);
            assert_eq!(
                expected, interpreted,
                "{kind:?} {name} interpreted vs compiled"
            );
            for other in &others {
                let got = run(other, &query, ExecMode::Compiled);
                assert_eq!(
                    expected,
                    got,
                    "{kind:?} {name}: {:?} disagrees with Open",
                    other.config().layout
                );
            }
        }
    }
}

#[test]
fn update_intensive_workload_stays_consistent() {
    let records = 800;
    let spec = DatasetSpec::new(DatasetKind::Tweet2, records);
    for layout in LayoutKind::ALL {
        let dataset = build(DatasetKind::Tweet2, layout, records, true);
        for doc in generate_updates(&spec, 0.5) {
            dataset.insert(doc).unwrap();
        }
        for key in [3i64, 99, 500] {
            dataset.delete(Value::Int(key)).unwrap();
        }
        dataset.compact_fully().unwrap();

        assert_eq!(dataset.count().unwrap(), records - 3, "{layout:?}");
        assert!(dataset.lookup(&Value::Int(99), None).unwrap().is_none());
        let doc = dataset.lookup(&Value::Int(100), None).unwrap().unwrap();
        assert_eq!(doc.get_field("id"), Some(&Value::Int(100)));

        // Secondary-index answers match scan-based answers after updates:
        // the same logical query is planner-routed through the index and
        // force-scanned with index routing disabled.
        let base_ts = 1_450_000_000_000i64;
        let q = Query::count_star().with_filter(Expr::between("timestamp", base_ts, base_ts + 200));
        let probe = QueryEngine::with_options(
            ExecMode::Compiled,
            lsm_columnar::query::PlannerOptions::with_access_path(
                lsm_columnar::query::AccessPathChoice::ForceIndex,
            ),
        );
        assert!(probe
            .explain(&dataset, &q)
            .unwrap()
            .contains("secondary-index range probe"));
        let via_index = probe.execute(&dataset, &q).unwrap();
        let scan = QueryEngine::with_options(
            ExecMode::Compiled,
            lsm_columnar::query::PlannerOptions::with_access_path(
                lsm_columnar::query::AccessPathChoice::ForceScan,
            ),
        );
        let via_scan = scan.execute(&dataset, &q).unwrap();
        assert_eq!(via_index[0].agg(), via_scan[0].agg(), "{layout:?}");
        // The cost-based default picks one of the two and must agree.
        let auto = QueryEngine::new(ExecMode::Compiled)
            .execute(&dataset, &q)
            .unwrap();
        assert_eq!(auto[0].agg(), via_scan[0].agg(), "{layout:?}");
    }
}

#[test]
fn amax_count_star_reads_far_fewer_pages_than_row_scan() {
    let records = 2_000;
    let amax = build(DatasetKind::Tweet1, LayoutKind::Amax, records, false);
    let open = build(DatasetKind::Tweet1, LayoutKind::Open, records, false);

    amax.cache().clear();
    amax.cache().store().reset_stats();
    let count = run(&amax, &Query::count_star(), ExecMode::Compiled);
    assert_eq!(count[0].agg(), &Value::Int(records as i64));
    let amax_pages = amax.io_stats().pages_read;

    open.cache().clear();
    open.cache().store().reset_stats();
    let count = run(&open, &Query::count_star(), ExecMode::Compiled);
    assert_eq!(count[0].agg(), &Value::Int(records as i64));
    let open_pages = open.io_stats().pages_read;

    assert!(
        amax_pages * 3 < open_pages,
        "AMAX COUNT(*) should read far fewer pages ({amax_pages}) than Open ({open_pages})"
    );
}

#[test]
fn heterogeneous_wos_records_roundtrip_through_all_layouts() {
    let records = 300;
    for layout in LayoutKind::ALL {
        let dataset = build(DatasetKind::Wos, layout, records, false);
        let docs = dataset.scan(None).unwrap();
        assert_eq!(docs.len(), records);
        // The union-typed address field survives: some records have an
        // object, others an array of objects.
        let mut saw_object = false;
        let mut saw_array = false;
        for doc in &docs {
            let addr = doc
                .get_path_str("static_data.fullrecord_metadata.addresses.address_name")
                .expect("address_name present");
            match addr {
                Value::Array(_) => saw_array = true,
                Value::Object(_) => saw_object = true,
                other => panic!("unexpected address_name type: {other}"),
            }
        }
        assert!(saw_object && saw_array, "{layout:?} lost the union typing");
    }
}

#[test]
fn facade_end_to_end_with_json_feed() {
    let mut store = Datastore::new();
    store
        .create_dataset(
            "events",
            DatasetOptions::new(Layout::Amax)
                .key("id")
                .memtable_budget(64 * 1024)
                .page_size(16 * 1024),
        )
        .unwrap();
    let mut feed = String::new();
    for i in 0..500 {
        feed.push_str(&format!(
            "{{\"id\": {i}, \"kind\": \"k{}\", \"payload\": {{\"n\": {}}}}}\n",
            i % 7,
            i * 3
        ));
    }
    assert_eq!(store.ingest_json("events", &feed).unwrap(), 500);
    store.compact("events").unwrap();

    let rows = store
        .query(
            "events",
            &Query::select([Aggregate::Max(Path::parse("payload.n"))])
                .group_by("kind")
                .top_k(3),
            ExecMode::Compiled,
        )
        .unwrap();
    assert_eq!(rows.len(), 3);
    assert_eq!(rows[0].agg(), &Value::Int(499 * 3));
    assert!(store.stored_bytes("events").unwrap() > 0);
}

#[test]
fn sharded_end_to_end_with_reopen() {
    // Ingest across shards with background workers, answer a fan-out query,
    // reopen the whole sharded dataset from disk, and re-verify.
    let dir = testkit::TempDir::new("e2e-sharded", "store");
    let records = 600usize;
    let docs = generate(&DatasetSpec::new(DatasetKind::Cell, records));

    let expected_groups = {
        let mut store = Datastore::new();
        store
            .create_dataset(
                "reference",
                DatasetOptions::new(Layout::Amax)
                    .key("id")
                    .memtable_budget(64 * 1024)
                    .page_size(16 * 1024),
            )
            .unwrap();
        store.ingest_all("reference", docs.clone()).unwrap();
        store.flush("reference").unwrap();
        store
            .query(
                "reference",
                &Query::select([Aggregate::Max(Path::parse("duration"))])
                    .group_by("caller")
                    .top_k(5),
                ExecMode::Compiled,
            )
            .unwrap()
    };

    {
        let mut store = Datastore::new();
        store
            .open_dataset(
                "calls",
                &dir,
                DatasetOptions::new(Layout::Amax)
                    .key("id")
                    .memtable_budget(64 * 1024)
                    .page_size(16 * 1024)
                    .shards(4)
                    .background(true),
            )
            .unwrap();
        // Batch ingest, partitioned by primary key; unsynced, so every
        // partition is ingested on this thread.
        assert_eq!(store.ingest_batch("calls", docs, 0).unwrap(), records);
        store.flush("calls").unwrap();

        let sharded = store.dataset("calls").unwrap();
        assert_eq!(sharded.shard_count(), 4);
        for shard in sharded.shards() {
            assert!(shard.count().unwrap() > 0, "every shard owns records");
        }

        // Fan-out COUNT(*) and grouped top-k agree with the reference.
        let count = store
            .query("calls", &Query::count_star(), ExecMode::Compiled)
            .unwrap();
        assert_eq!(count[0].agg(), &Value::Int(records as i64));
        let groups = store
            .query(
                "calls",
                &Query::select([Aggregate::Max(Path::parse("duration"))])
                    .group_by("caller")
                    .top_k(5),
                ExecMode::Compiled,
            )
            .unwrap();
        assert_eq!(groups, expected_groups);
        // Dropped here: every shard must recover from its own directory.
    }

    let mut store = Datastore::new();
    store.reopen_dataset("calls", &dir).unwrap();
    assert_eq!(store.dataset("calls").unwrap().shard_count(), 4);
    let count = store
        .query("calls", &Query::count_star(), ExecMode::Compiled)
        .unwrap();
    assert_eq!(count[0].agg(), &Value::Int(records as i64));
    let groups = store
        .query(
            "calls",
            &Query::select([Aggregate::Max(Path::parse("duration"))])
                .group_by("caller")
                .top_k(5),
            ExecMode::Compiled,
        )
        .unwrap();
    assert_eq!(
        groups, expected_groups,
        "reopened shards must answer identically"
    );
}

#[test]
fn compositional_query_agrees_across_all_execution_paths() {
    // The acceptance query of the API redesign: filter
    // `And(Ge(score, 50), Exists(tags))`, group-by, and aggregates
    // `[COUNT(*), MAX(score), AVG(score)]` must return identical rows via
    // interpreted, compiled, sharded(4) and index-probe execution.
    let docs: Vec<Value> = (0..600i64)
        .map(|i| {
            let mut d = doc!({
                "id": i,
                "grp": (format!("g{}", i % 6)),
                "score": (i % 120),
            });
            if i % 3 != 0 {
                d.set_field("tags", doc!([(format!("t{}", i % 4))]));
            }
            d
        })
        .collect();

    let config = |name: &str| {
        DatasetConfig::new(name, LayoutKind::Amax)
            .with_memtable_budget(32 * 1024)
            .with_page_size(8 * 1024)
    };
    let reference = LsmDataset::new(config("reference"));
    let indexed = LsmDataset::new(config("indexed").with_secondary_index(Path::parse("score")));
    let shards: Vec<LsmDataset> = (0..4)
        .map(|i| LsmDataset::new(config(&format!("shard-{i}"))))
        .collect();
    for (i, d) in docs.iter().enumerate() {
        reference.insert(d.clone()).unwrap();
        indexed.insert(d.clone()).unwrap();
        shards[i % 4].insert(d.clone()).unwrap();
    }
    reference.flush().unwrap();
    indexed.flush().unwrap();
    for s in &shards {
        s.flush().unwrap();
    }

    let q = Query::select([
        Aggregate::Count,
        Aggregate::Max(Path::parse("score")),
        Aggregate::Avg(Path::parse("score")),
    ])
    .with_filter(Expr::and([Expr::ge("score", 50), Expr::exists("tags")]))
    .group_by("grp");

    let interpreted = QueryEngine::new(ExecMode::Interpreted)
        .execute(&reference, &q)
        .unwrap();
    let compiled = QueryEngine::new(ExecMode::Compiled)
        .execute(&reference, &q)
        .unwrap();
    let shard_refs: Vec<&LsmDataset> = shards.iter().collect();
    let sharded = QueryEngine::new(ExecMode::Compiled)
        .execute(&shard_refs[..], &q)
        .unwrap();
    let via_index = QueryEngine::new(ExecMode::Compiled)
        .execute(&indexed, &q)
        .unwrap();

    assert_eq!(interpreted, compiled);
    assert_eq!(compiled, sharded);
    assert_eq!(compiled, via_index);
    // Groups g0 and g3 hold only multiples of 3, which never carry tags.
    assert_eq!(compiled.len(), 4);
    for row in &compiled {
        assert_eq!(row.aggs.len(), 3);
        assert!(row.aggs[1].as_int().unwrap() >= 50);
    }

    // explain() shows the chosen access path and the pushed-down projection.
    let scan_plan = q
        .explain(&lsm_columnar::query::PlanContext::for_dataset(&reference))
        .unwrap();
    assert!(scan_plan.contains("full scan"), "{scan_plan}");
    assert!(scan_plan.contains("score, tags, grp"), "{scan_plan}");
    // `score >= 50` matches about half the records: the cost model keeps
    // the scan and says so with its estimate; forcing the index shows the
    // probe plan it decided against.
    let index_plan = q
        .explain(&lsm_columnar::query::PlanContext::for_dataset(&indexed))
        .unwrap();
    assert!(index_plan.contains("selectivity"), "{index_plan}");
    let forced_plan = QueryEngine::with_options(
        ExecMode::Compiled,
        lsm_columnar::query::PlannerOptions::with_access_path(
            lsm_columnar::query::AccessPathChoice::ForceIndex,
        ),
    )
    .explain(&indexed, &q)
    .unwrap();
    assert!(
        forced_plan.contains("secondary-index range probe on `score` over [50, +inf)"),
        "{forced_plan}"
    );
}
