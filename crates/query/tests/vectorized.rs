//! The compiled engine's column kernels. Folding aggregates straight off
//! decoded column chunks is a pure *performance* decision — it may never
//! change an answer. The lifecycle differential (`lifecycle.rs`) holds every
//! execution to the batch oracle over generated histories that leave the
//! clean fragment on purpose. Pinned here, each through every execution
//! ([`every_execution_agrees`]: kernels, the forced-assembled lane and the
//! interpreted engine, bit for bit):
//!
//! * answers that must not depend on where the data lies: the engines fold
//!   in different orders and a merge moves records between leaves, so double
//!   sums are exact and `7` / `7.0` ties go to the integer
//!   (`answers_do_not_depend_on_the_physical_layout`);
//! * the lane and the I/O contract: a clean `sensors`-shaped tree runs on
//!   kernels alone and assembles **zero** records; an unnest-`MAX` over AMAX
//!   reads Page 0 plus the aggregate column's pages and nothing else; a
//!   100 %-selectivity pushed filter touches every data page once; whatever
//!   the kernels cannot cover falls back and `EXPLAIN ANALYZE` names why;
//! * the slice folds at their edges: elements lacking the field mid-array,
//!   empty and absent arrays, shadowed records inside a selection run,
//!   `NaN`/`-0.0`/`0.0` in one `MAX`/`MIN` slice, a double `SUM` exact only
//!   when summed exactly, `COUNT(*)` under `UNNEST` over elements without the
//!   field, and `7`/`7.0` as group keys in two components.
//!
//! Layouts are not compared with each other: outside the clean fragment
//! columnar storage legitimately differs from row storage (`null`s and
//! never-materialised empty arrays are not stored).

use docmodel::{doc, Path, Value};
use lsm::LsmDataset;
use query::{oracle, Aggregate, ExecMode, Expr, Query, QueryEngine, QueryRow, ScanLane};
use storage::LayoutKind;
use testkit::exec::{bits, every_execution_agrees};
use testkit::leafy_config;

fn small_dataset(name: &str, layout: LayoutKind) -> LsmDataset {
    // Never merge: the point is winners interleaved over many components.
    let config = leafy_config(name, layout, 8 * 1024, 16);
    LsmDataset::new(config.with_compaction(lsm::CompactionSpec::tiered(f64::INFINITY, 64)))
}

/// An answer is a function of the data, not of where the data lies: the
/// engines fold the same records in different orders, and a merge moves
/// records between leaves, so double sums must be exact and ties between
/// `7` and `7.0` — as `MAX`/`MIN` and as group keys — must not go to
/// whichever came first. Checked bit for bit over three components plus a
/// memtable, and again after a full merge.
///
/// The group keys also probe the kernels' raw-bits group table. The first
/// component's `grp` column holds doubles only — `0.0`, `-0.0` and a NaN
/// beside `2.0` — so the kernels group it by bits; later components add
/// integers and `true`, turn the column into a union and take the
/// assembled lane. The groups must come out as the document order has
/// them: `0.0` and `0` one group spelled `0`, `-0.0` and the NaN groups of
/// their own, `true` before every number.
#[test]
fn answers_do_not_depend_on_the_physical_layout() {
    let record = |id: i64, round: i64| {
        // Even rounds spell whole numbers as doubles.
        let whole = |v: i64| match round % 2 {
            0 => Value::Double(v as f64),
            _ => Value::Int(v),
        };
        let grp = match (round, id % 30) {
            (0, 1) => Value::Double(-0.0),
            (0, 13) => Value::Double(f64::NAN),
            (2, _) => Value::Bool(true),
            _ => whole(id % 5),
        };
        // Magnitudes from 1e-3 to 1e9, so every running sum rounds.
        let wide = (id * 37 % 101) as f64 / 10.0 * 10f64.powi((id % 5) as i32 * 3 - 3);
        let readings: Vec<Value> = (0..(id % 4))
            .map(|j| doc!({"seq": j, "temp": (((id * 7 + j * 13 + round) % 997) as f64 / 10.0)}))
            .collect();
        doc!({
            "id": id,
            "grp": grp,
            "tie": (whole(7)),
            "wide": (if id % 9 == 0 { -wide } else { wide }),
            "mixed": (if id % 2 == 0 { whole(id) } else { Value::Double(id as f64 / 3.0) }),
            "readings": (Value::Array(readings))
        })
    };
    let queries = [
        Query::select([
            Aggregate::Sum(Path::parse("wide")),
            Aggregate::Avg(Path::parse("wide")),
            Aggregate::Sum(Path::parse("mixed")),
            Aggregate::Max(Path::parse("tie")),
            Aggregate::Min(Path::parse("tie")),
        ]),
        Query::select([Aggregate::Count, Aggregate::Avg(Path::parse("wide"))])
            .with_unnest("readings")
            .aggregate_element(Aggregate::Sum(Path::parse("temp")))
            .aggregate_element(Aggregate::Avg(Path::parse("temp")))
            .group_by("grp"),
        Query::select([Aggregate::Sum(Path::parse("wide"))]).with_filter(Expr::le("grp", 2)),
    ];
    for layout in [LayoutKind::Vb, LayoutKind::Apax, LayoutKind::Amax] {
        let ds = small_dataset("vectorized-layout-free", layout);
        for id in 0..150 {
            ds.insert(record(id, 0)).unwrap();
        }
        ds.flush().unwrap();
        for id in (0..190).step_by(3) {
            ds.insert(record(id, 1)).unwrap();
        }
        ds.flush().unwrap();
        for id in (0..190).step_by(7) {
            ds.insert(record(id, 2)).unwrap();
        }
        ds.delete(Value::Int(6)).unwrap();
        ds.flush().unwrap();
        for id in (0..190).step_by(11) {
            ds.insert(record(id, 3)).unwrap();
        }
        assert_eq!(ds.component_count(), 3);

        let answers = |ds: &LsmDataset| -> Vec<Vec<QueryRow>> {
            let snapshot = ds.snapshot();
            queries
                .iter()
                .map(|query| {
                    let rows = every_execution_agrees(ds, query, None, 0);
                    assert_eq!(
                        bits(&rows),
                        bits(&oracle::execute_batch(&snapshot, query).unwrap()),
                        "{layout:?}: {query:?}"
                    );
                    rows
                })
                .collect()
        };
        let spread = answers(&ds);
        if layout != LayoutKind::Vb {
            // The all-doubles component's groups went through the kernels.
            let report = QueryEngine::new(ExecMode::Compiled)
                .explain_analyze(&ds, &queries[1])
                .unwrap();
            assert!(report.records_kernel() > 0, "{}", report.describe());
        }
        // Ties go to the integer, and a group is reported under it.
        assert_eq!(spread[0][0].aggs[3..], [Value::Int(7), Value::Int(7)]);
        let groups: Vec<_> = spread[1].iter().map(|row| row.group.clone()).collect();
        let want: Vec<_> = [Value::Bool(true), Value::Double(-0.0)]
            .into_iter()
            .chain((0..5).map(Value::Int))
            .chain([Value::Double(f64::NAN)])
            .map(Some)
            .collect();
        assert_eq!(format!("{groups:?}"), format!("{want:?}"));

        ds.flush().unwrap();
        ds.compact_fully().unwrap();
        assert_eq!(ds.component_count(), 1);
        let merged: Vec<String> = answers(&ds).iter().map(|rows| bits(rows)).collect();
        let before: Vec<String> = spread.iter().map(|rows| bits(rows)).collect();
        assert_eq!(merged, before, "{layout:?}: a merge moved an answer");
    }
}

/// A boolean group key through the kernels' raw-bits table: two components
/// whose `grp` column holds booleans only, plus a memtable.
#[test]
fn boolean_group_keys_take_the_kernels() {
    let query =
        Query::select([Aggregate::Count, Aggregate::Max(Path::parse("score"))]).group_by("grp");
    for layout in [LayoutKind::Vb, LayoutKind::Apax, LayoutKind::Amax] {
        let ds = small_dataset("vectorized-bool-keys", layout);
        for round in 0..3i64 {
            for id in (round..60).step_by(round as usize + 1) {
                ds.insert(doc!({"id": id, "grp": (id % 3 == round), "score": (id * 7 % 23)}))
                    .unwrap();
            }
            if round < 2 {
                ds.flush().unwrap();
            }
        }
        let rows = every_execution_agrees(&ds, &query, None, 0);
        assert_eq!(
            bits(&rows),
            bits(&oracle::execute_batch(&ds.snapshot(), &query).unwrap()),
            "{layout:?}"
        );
        let groups: Vec<_> = rows.iter().map(|row| row.group.clone()).collect();
        assert_eq!(groups, [Some(Value::Bool(false)), Some(Value::Bool(true))]);
        if layout != LayoutKind::Vb {
            let report = QueryEngine::new(ExecMode::Compiled)
                .explain_analyze(&ds, &query)
                .unwrap();
            assert!(report.records_kernel() > 0, "{}", report.describe());
        }
    }
}

/// A `sensors`-shaped tree in the clean fragment: three components with
/// shadowed versions and a delete, nothing left in the memtable.
fn clean_sensors(layout: LayoutKind) -> LsmDataset {
    let ds = LsmDataset::new(leafy_config("vectorized-sensors", layout, 1024, 256));
    let record = |id: i64, version: i64| {
        let readings: Vec<Value> = (0..(id % 5))
            .map(|j| {
                doc!({
                    "seq": j,
                    "temp": (((id * 7 + j * 13 + version) % 400) as f64 / 4.0),
                    "humidity": ((id + j) % 100)
                })
            })
            .collect();
        doc!({
            "id": id,
            "sensor_id": (id % 37),
            "report_time": (1_000_000 + id * 60),
            "status": {"battery": ((id * 3 + version) % 100)},
            // Wide on disk whatever the codecs: the widest column.
            "payload": (format!("payload {id}: {}", testkit::incompressible(id as u64, 60))),
            "readings": (Value::Array(readings))
        })
    };
    for id in 0..600 {
        ds.insert(record(id, 0)).unwrap();
    }
    ds.flush().unwrap();
    for id in (0..600).step_by(3) {
        ds.insert(record(id, 1)).unwrap();
    }
    ds.flush().unwrap();
    for id in (0..600).step_by(7) {
        ds.insert(record(id, 2)).unwrap();
    }
    ds.delete(Value::Int(599)).unwrap();
    ds.flush().unwrap();
    assert_eq!(ds.component_count(), 3);
    ds
}

fn max_temp() -> Query {
    Query::new()
        .with_unnest("readings")
        .aggregate_element(Aggregate::Max(Path::parse("temp")))
}

/// The Fig. 14 `sensors` suite plus the benchmark's pushed range filters.
fn sensors_suite() -> Vec<Query> {
    vec![
        max_temp(),
        max_temp().group_by("sensor_id").top_k(10),
        max_temp()
            .with_filter(Expr::between("report_time", 1_000_000, 1_012_000))
            .group_by("sensor_id")
            .top_k(10),
        Query::count_star().with_filter(Expr::between("report_time", 1_003_000, 1_003_300)),
        Query::select([Aggregate::Max(Path::parse("status.battery"))])
            .with_filter(Expr::ge("report_time", 1_000_000)),
        Query::select([
            Aggregate::Count,
            Aggregate::Avg(Path::parse("status.battery")),
        ])
        .with_unnest("readings")
        .aggregate_element(Aggregate::Avg(Path::parse("humidity")))
        .group_by("sensor_id"),
    ]
}

#[test]
fn clean_plans_run_on_kernels_alone() {
    for layout in [LayoutKind::Apax, LayoutKind::Amax] {
        let ds = clean_sensors(layout);
        let snapshot = ds.snapshot();
        let engine = QueryEngine::new(ExecMode::Compiled);
        for query in sensors_suite() {
            let rows = every_execution_agrees(&ds, &query, None, 0);
            assert_eq!(
                rows,
                oracle::execute_batch(&snapshot, &query).unwrap(),
                "{layout:?}"
            );
            let report = engine.explain_analyze(&ds, &query).unwrap();
            assert_eq!(report.rows, rows, "{layout:?}");
            assert_eq!(
                report.records_assembled(),
                0,
                "{layout:?}: {}",
                report.describe()
            );
            assert_eq!(
                report.records_kernel(),
                report.rows_pulled(),
                "{layout:?}: {}",
                report.describe()
            );
            assert!(
                report.rows_pulled() > 0,
                "{layout:?}: {}",
                report.describe()
            );
            assert!(
                report.shards[0].fallbacks.is_empty(),
                "{}",
                report.describe()
            );
            assert!(report.shards[0].scan_batches > 0, "{}", report.describe());
        }
    }
}

#[test]
fn uncovered_shapes_fall_back_and_say_why() {
    let engine = QueryEngine::new(ExecMode::Compiled);
    let fallbacks = |ds: &LsmDataset, query: &Query| {
        let snapshot = ds.snapshot();
        let rows = every_execution_agrees(ds, query, None, 0);
        assert_eq!(rows, oracle::execute_batch(&snapshot, query).unwrap());
        let report = engine.explain_analyze(ds, query).unwrap();
        assert_eq!(report.rows, rows);
        assert_eq!(report.records_kernel(), 0, "{}", report.describe());
        // Every winner handed over was built into a document (a row page
        // decodes its shadowed entries too).
        assert!(
            report.records_assembled() >= report.rows_pulled(),
            "{}",
            report.describe()
        );
        assert!(
            report.describe().contains("fell back: "),
            "{}",
            report.describe()
        );
        report.shards[0].fallbacks.join("; ")
    };

    // A residual filter is a property of the plan.
    let ds = clean_sensors(LayoutKind::Amax);
    let why = fallbacks(&ds, &max_temp().with_filter(Expr::exists("payload")));
    assert_eq!(why, "residual filter");
    let why = fallbacks(
        &ds,
        &Query::count_star()
            .with_unnest("readings")
            .group_by_element("seq"),
    );
    assert_eq!(why, "group by the unnested element");
    let why = fallbacks(&ds, &max_temp().group_by("payload"));
    assert_eq!(why, "string group key");

    // Shapes are properties of a component's schema.
    let ds = small_dataset("vectorized-union", LayoutKind::Amax);
    ds.insert(doc!({"id": 1, "readings": [{"temp": 1}, {"temp": 2.5}]}))
        .unwrap();
    ds.insert(doc!({"id": 2, "readings": [{"temp": "hot"}]}))
        .unwrap();
    ds.flush().unwrap();
    assert_eq!(fallbacks(&ds, &max_temp()), "union at `temp`");
    let ds = small_dataset("vectorized-non-array", LayoutKind::Amax);
    ds.insert(doc!({"id": 1, "readings": [{"temp": 1.5}]}))
        .unwrap();
    ds.insert(doc!({"id": 2, "readings": 7})).unwrap();
    ds.flush().unwrap();
    assert_eq!(fallbacks(&ds, &max_temp()), "union at `readings`");
    let ds = small_dataset("vectorized-absent", LayoutKind::Amax);
    ds.insert(doc!({"id": 1, "other": true})).unwrap();
    ds.flush().unwrap();
    assert_eq!(fallbacks(&ds, &max_temp()), "no column at `readings`");

    // Row layouts and memtables hold documents, and the reason says which.
    let ds = clean_sensors(LayoutKind::Vb);
    assert_eq!(fallbacks(&ds, &max_temp()), "row layout");
    ds.insert(doc!({"id": 1000, "readings": [{"temp": 150.5}]}))
        .unwrap();
    assert_eq!(fallbacks(&ds, &max_temp()), "memtable; row layout");
    let ds = clean_sensors(LayoutKind::Amax);
    ds.insert(doc!({"id": 1000, "readings": [{"temp": 150.5}]}))
        .unwrap();
    let rows = every_execution_agrees(&ds, &max_temp(), None, 0);
    let report = engine.explain_analyze(&ds, &max_temp()).unwrap();
    assert_eq!(report.rows, rows);
    assert_eq!(rows[0].aggs, [Value::Double(150.5)]);
    assert_eq!(
        report.shards[0].fallbacks,
        ["memtable"],
        "{}",
        report.describe()
    );
    assert!(report.records_kernel() > 0, "{}", report.describe());
}

/// `rows_pulled` is what the operators were handed. A pushed predicate over
/// a union column is only decided on the assembled record, so the batch's
/// selection still holds the records it will reject: they are not counted.
#[test]
fn rows_pulled_counts_what_passed_a_predicate_that_needed_the_record() {
    let ds = small_dataset("vectorized-union-filter", LayoutKind::Amax);
    for id in 0..40 {
        let score = if id % 4 == 0 {
            Value::from("n/a")
        } else {
            Value::Int(id)
        };
        ds.insert(doc!({"id": id, "score": score})).unwrap();
    }
    ds.flush().unwrap();
    let query = Query::count_star().with_filter(Expr::between("score", 20, 100));
    let matches = (20..40).filter(|id| id % 4 != 0).count();
    let report = QueryEngine::new(ExecMode::Compiled)
        .explain_analyze(&ds, &query)
        .unwrap();
    assert_eq!(report.rows[0].aggs, [Value::Int(matches as i64)]);
    assert_eq!(
        report.rows,
        oracle::execute_batch(&ds.snapshot(), &query).unwrap()
    );
    assert_eq!(
        report.rows_pulled(),
        matches as u64,
        "{}",
        report.describe()
    );
    assert_eq!(
        report.shards[0].fallbacks,
        ["pushed predicate needs the record"],
        "{}",
        report.describe()
    );
}

/// Pages a cold run of `query` reads in `lane`, and the documents it builds.
fn cold_io(ds: &LsmDataset, query: &Query, lane: ScanLane) -> (u64, u64) {
    ds.cache().clear();
    ds.cache().store().reset_stats();
    QueryEngine::new(ExecMode::Compiled)
        .execute_in_lane(ds, query, lane)
        .unwrap();
    let io = ds.io_stats();
    (io.pages_read, io.records_assembled)
}

/// The paper's point about AMAX: a query reads Page 0 plus the megapages of
/// the columns it names. The kernel lane names only the aggregate column.
#[test]
fn unnest_max_reads_only_the_aggregate_column_and_assembles_nothing() {
    let ds = clean_sensors(LayoutKind::Amax);
    let (count_pages, _) = cold_io(&ds, &Query::count_star(), ScanLane::Kernels);
    let (kernel_pages, kernel_assembled) = cold_io(&ds, &max_temp(), ScanLane::Kernels);
    let (assembled_pages, assembled) = cold_io(&ds, &max_temp(), ScanLane::Assembled);
    let (full_pages, _) = cold_io(
        &ds,
        &Query::select([Aggregate::MaxLength(Path::parse("payload"))])
            .with_unnest("readings")
            .aggregate_element(Aggregate::Max(Path::parse("temp"))),
        ScanLane::Assembled,
    );
    assert_eq!(kernel_assembled, 0);
    assert_eq!(
        assembled, 599,
        "the reference lane builds every live record"
    );
    // Page 0 alone < + `temp` < + `seq` and `humidity` < + `payload`.
    assert!(count_pages < kernel_pages, "{count_pages} < {kernel_pages}");
    assert!(
        kernel_pages < assembled_pages,
        "{kernel_pages} < {assembled_pages}"
    );
    assert!(
        assembled_pages < full_pages,
        "{assembled_pages} < {full_pages}"
    );
    // Exactly the pages of one more column: asking for `seq` as well costs
    // what `seq` occupies and nothing else.
    let both = max_temp().aggregate_element(Aggregate::Max(Path::parse("seq")));
    let (both_pages, both_assembled) = cold_io(&ds, &both, ScanLane::Kernels);
    assert_eq!(both_assembled, 0);
    assert!(kernel_pages < both_pages && both_pages <= assembled_pages);
}

/// A pushed filter at 100 % selectivity buys nothing and must cost nothing:
/// the filter columns are decoded with the leaf and reused by whatever runs
/// next, the rest is fetched once, so the scan reads exactly the pages the
/// unpushed scan of the same query reads. (That a shared column's chunk is
/// reused rather than decoded again is pinned on the chunks themselves in
/// `storage::batch`'s tests.)
#[test]
fn full_selectivity_pushed_filter_reads_what_the_unpushed_scan_reads() {
    let ds = clean_sensors(LayoutKind::Amax);
    let all = Expr::ge("report_time", 0);
    let unpushed = QueryEngine::with_options(
        ExecMode::Compiled,
        query::PlannerOptions {
            filter_pushdown: false,
            ..Default::default()
        },
    );
    for (query, lane) in [
        // The filter column is also the aggregate's.
        (
            Query::select([Aggregate::Max(Path::parse("report_time"))]),
            ScanLane::Kernels,
        ),
        // Disjoint filter and aggregate columns, on kernels and assembled.
        (
            Query::select([Aggregate::Max(Path::parse("status.battery"))]),
            ScanLane::Kernels,
        ),
        (
            Query::select([Aggregate::Max(Path::parse("status.battery"))]),
            ScanLane::Assembled,
        ),
    ] {
        let query = query.with_filter(all.clone());
        let (pushed_pages, pushed_assembled) = cold_io(&ds, &query, lane);
        let pushed = ds.io_stats();
        assert_eq!(pushed.records_filtered_pre_assembly, 0);
        assert_eq!(
            pushed_assembled,
            if lane == ScanLane::Kernels { 0 } else { 599 }
        );
        ds.cache().clear();
        ds.cache().store().reset_stats();
        let rows = unpushed.execute(&ds, &query).unwrap();
        assert_eq!(ds.io_stats().pages_read, pushed_pages, "{lane:?} {query:?}");
        assert_eq!(
            rows,
            QueryEngine::new(ExecMode::Compiled)
                .execute(&ds, &query)
                .unwrap()
        );
    }
}

// ---------------------------------------------------------------------------
// The slice folds at their edges.
// ---------------------------------------------------------------------------

/// Kernels == assembled lane == interpreted == the batch oracle, with the
/// kernels folding at least some of the records.
fn on_kernels(ds: &LsmDataset, query: &Query) -> Vec<QueryRow> {
    let rows = every_execution_agrees(ds, query, None, 0);
    assert_eq!(
        bits(&rows),
        bits(&oracle::execute_batch(&ds.snapshot(), query).unwrap()),
        "{query:?}"
    );
    let report = QueryEngine::new(ExecMode::Compiled)
        .explain_analyze(ds, query)
        .unwrap();
    assert!(report.records_kernel() > 0, "{}", report.describe());
    rows
}

/// One dataset per columnar layout, one flushed component per round: its
/// records, then the ids it deletes.
fn components(name: &str, rounds: &[(Vec<Value>, Vec<i64>)]) -> Vec<LsmDataset> {
    [LayoutKind::Apax, LayoutKind::Amax]
        .into_iter()
        .map(|layout| {
            let ds = small_dataset(name, layout);
            for (records, deletes) in rounds {
                for record in records {
                    ds.insert(record.clone()).unwrap();
                }
                for &id in deletes {
                    ds.delete(Value::Int(id)).unwrap();
                }
                ds.flush().unwrap();
            }
            ds
        })
        .collect()
}

/// An element of `readings`, with or without `temp`.
fn reading(seq: i64, temp: Option<f64>) -> Value {
    let mut element = doc!({"seq": seq});
    if let Some(temp) = temp {
        element.set_field("temp", Value::Double(temp));
    }
    element
}

/// A record with `readings` (absent for `None`).
fn sensor(id: i64, readings: Option<Vec<Value>>) -> Value {
    let mut record = doc!({"id": id, "grp": (id % 3)});
    if let Some(readings) = readings {
        record.set_field("readings", Value::Array(readings));
    }
    record
}

fn temp_query(agg: fn(Path) -> Aggregate) -> Query {
    Query::new()
        .with_unnest("readings")
        .aggregate_element(agg(Path::parse("temp")))
}

/// Elements that lack the field mid-array, empty and absent arrays, arrays
/// none of whose elements has the field, and records shadowed or deleted
/// inside a selection run: every slice fold, and `COUNT(*)` under `UNNEST`
/// counting the elements without the field too.
#[test]
fn slice_folds_over_sparse_elements_and_shadowed_runs() {
    let record = |id: i64, version: i64| {
        let t = (id * 7 + version) as f64 / 4.0;
        let readings = match id % 5 {
            0 => Some(vec![
                reading(0, Some(t)),
                reading(1, None),
                reading(2, Some(-t)),
                reading(3, None),
            ]),
            1 => Some(Vec::new()),
            2 => Some(vec![reading(0, None), reading(1, None)]),
            3 => None,
            _ => Some(vec![reading(0, Some(t + 0.5))]),
        };
        sensor(id, readings)
    };
    // The second round rewrites a run of the first and deletes inside it,
    // so the first component's selections have gaps.
    let deleted = [25, 26, 33];
    let rounds = [
        ((0..80).map(|id| record(id, 0)).collect(), Vec::new()),
        ((20..40).map(|id| record(id, 1)).collect(), deleted.to_vec()),
    ];
    let live = || (0..80i64).filter(|id| !deleted.contains(id));
    let elements: i64 = live().map(|id| [4, 0, 2, 0, 1][(id % 5) as usize]).sum();
    let with_temp: i64 = live().map(|id| [2, 0, 0, 0, 1][(id % 5) as usize]).sum();
    let counted = Query::count_star()
        .with_unnest("readings")
        .aggregate_element(Aggregate::CountNonNull(Path::parse("temp")));
    let grouped = Query::select([Aggregate::Count])
        .with_unnest("readings")
        .aggregate_element(Aggregate::Min(Path::parse("temp")))
        .aggregate_element(Aggregate::Sum(Path::parse("temp")))
        .aggregate_element(Aggregate::Avg(Path::parse("temp")))
        .aggregate_element(Aggregate::CountNonNull(Path::parse("seq")))
        .group_by("grp");
    for ds in components("vectorized-sparse", &rounds) {
        let rows = on_kernels(&ds, &Query::count_star().with_unnest("readings"));
        assert_eq!(rows[0].aggs, [Value::Int(elements)]);
        let rows = on_kernels(&ds, &counted);
        assert_eq!(rows[0].aggs, [Value::Int(elements), Value::Int(with_temp)]);
        on_kernels(&ds, &max_temp());
        on_kernels(&ds, &grouped);
    }
}

/// `NaN`, `-0.0` and `0.0` in one `MAX`/`MIN` slice keep their places in
/// `f64::total_cmp`, and a double `SUM` whose slice is exact only when
/// summed exactly (`1e16 + 1 - 1e16`) comes out exact.
#[test]
fn slice_folds_keep_signed_zeros_nans_and_exact_sums() {
    let zeros = vec![
        sensor(
            0,
            Some(vec![
                reading(0, Some(0.0)),
                reading(1, Some(-0.0)),
                reading(2, Some(f64::NAN)),
            ]),
        ),
        sensor(1, Some(vec![reading(0, Some(0.0))])),
        sensor(
            2,
            Some(vec![
                reading(0, Some(-0.0)),
                reading(1, None),
                reading(2, Some(2.5)),
            ]),
        ),
    ];
    for ds in components("vectorized-zeros", &[(zeros, Vec::new())]) {
        let max = on_kernels(&ds, &temp_query(Aggregate::Max));
        assert!(
            matches!(max[0].aggs[0], Value::Double(d) if d.is_nan()),
            "{max:?}"
        );
        let min = on_kernels(&ds, &temp_query(Aggregate::Min));
        assert_eq!(
            bits(&min),
            bits(&[QueryRow {
                group: None,
                aggs: vec![Value::Double(-0.0)]
            }])
        );
    }
    let cancelling = vec![sensor(
        0,
        Some(vec![
            reading(0, Some(1e16)),
            reading(1, Some(1.0)),
            reading(2, Some(-1e16)),
        ]),
    )];
    for ds in components("vectorized-exact", &[(cancelling, Vec::new())]) {
        let sum = on_kernels(&ds, &temp_query(Aggregate::Sum));
        assert_eq!(sum[0].aggs, [Value::Double(1.0)]);
    }
}

/// `7` and `7.0` as group keys in two components: one group, reported as
/// `7`, whichever lane each component's records take — and the same across
/// two shards whose kernels each see one spelling.
#[test]
fn int_and_double_group_keys_are_one_group() {
    let record = |id: i64, grp: Value| doc!({"id": id, "grp": grp, "score": (id * 3 % 17)});
    let doubles: Vec<Value> = (0..30)
        .map(|id| record(id, Value::Double(if id % 2 == 0 { 7.0 } else { 3.0 })))
        .collect();
    let ints: Vec<Value> = (30..60)
        .map(|id| record(id, Value::Int(if id % 2 == 0 { 7 } else { 3 })))
        .collect();
    let query =
        Query::select([Aggregate::Count, Aggregate::Max(Path::parse("score"))]).group_by("grp");
    let rounds = [(doubles.clone(), Vec::new()), (ints.clone(), Vec::new())];
    let mut answers = Vec::new();
    for ds in components("vectorized-tie-keys", &rounds) {
        let rows = on_kernels(&ds, &query);
        let groups: Vec<_> = rows.iter().map(|row| row.group.clone()).collect();
        let want = [Some(Value::Int(3)), Some(Value::Int(7))];
        assert_eq!(format!("{groups:?}"), format!("{want:?}"));
        answers.push(bits(&rows));
    }
    let shards: Vec<LsmDataset> = [doubles, ints]
        .into_iter()
        .enumerate()
        .map(|(i, records)| {
            let ds = small_dataset(&format!("vectorized-tie-shard-{i}"), LayoutKind::Amax);
            for record in records {
                ds.insert(record).unwrap();
            }
            ds.flush().unwrap();
            ds
        })
        .collect();
    assert_eq!(
        bits(&every_execution_agrees(&shards[..], &query, None, 0)),
        answers[0]
    );
}

// ---------------------------------------------------------------------------
// Runs of records and the top-k at their edges.
// ---------------------------------------------------------------------------

/// A record with a record-level `score` and `n` readings, every third
/// without `temp`.
fn scored(id: i64, version: i64, n: i64) -> Value {
    let readings: Vec<Value> = (0..n)
        .map(|j| {
            reading(
                j,
                (j % 3 != 2).then(|| ((id * 5 + j * 3 + version) % 50) as f64 / 2.0),
            )
        })
        .collect();
    doc!({
        "id": id,
        "grp": (id % 4),
        "score": (id - 40 + version),
        "readings": (Value::Array(readings))
    })
}

/// Selection runs broken at the edges of 16-record leaves: the first
/// component's leaves lose their first or last record to a newer version,
/// a newer leaf starts and ends with anti-matter, one leaf is selected
/// whole, and one record's array is empty. Folding a run as one slice, or
/// each record of it, gives what folding record by record gives — and, for
/// a record-level input under `UNNEST`, each record's value once per
/// element (`SUM`, `AVG`, `COUNT`).
#[test]
fn runs_broken_at_leaf_edges_fold_like_records() {
    let elements = |id: i64| if id == 70 { 0 } else { 1 + id % 4 };
    let first: Vec<Value> = (0..96).map(|id| scored(id, 0, elements(id))).collect();
    // Leaf edges of the first component (16 records a leaf under AMAX),
    // rewritten; 0 and 95 deleted, so the newer leaf starts and ends with
    // anti-matter.
    let edges = [15, 16, 31, 32, 47, 63, 64, 79];
    let second: Vec<Value> = edges
        .iter()
        .map(|&id| scored(id, 1, elements(id)))
        .collect();
    let deleted = [0, 95];
    let live: Vec<(i64, i64)> = (0..96)
        .filter(|id| !deleted.contains(id))
        .map(|id| (id, i64::from(edges.contains(&id))))
        .collect();
    let unnested: i64 = live.iter().map(|&(id, _)| elements(id)).sum();
    let score_sum: i64 = live
        .iter()
        .map(|&(id, v)| (id - 40 + v) * elements(id))
        .sum();
    let record_inputs = Query::select([
        Aggregate::Sum(Path::parse("score")),
        Aggregate::Avg(Path::parse("score")),
        Aggregate::CountNonNull(Path::parse("score")),
        Aggregate::Count,
    ])
    .with_unnest("readings")
    .aggregate_element(Aggregate::Max(Path::parse("temp")));
    let plain = Query::select([
        Aggregate::Sum(Path::parse("score")),
        Aggregate::Min(Path::parse("score")),
        Aggregate::Count,
    ]);
    let rounds = [(first, Vec::new()), (second, deleted.to_vec())];
    for ds in components("vectorized-leaf-edges", &rounds) {
        let rows = on_kernels(&ds, &record_inputs);
        assert_eq!(rows[0].aggs[0], Value::Int(score_sum));
        assert_eq!(rows[0].aggs[2], Value::Int(unnested));
        assert_eq!(rows[0].aggs[3], Value::Int(unnested));
        let rows = on_kernels(&ds, &plain);
        let live_scores: i64 = live.iter().map(|&(id, v)| id - 40 + v).sum();
        assert_eq!(
            rows[0].aggs,
            [Value::Int(live_scores), Value::Int(-39), Value::Int(94)]
        );
        on_kernels(&ds, &record_inputs.clone().group_by("grp"));
        on_kernels(&ds, &plain.clone().group_by("grp"));
        on_kernels(&ds, &max_temp());
        on_kernels(&ds, &max_temp().group_by("grp"));
        let rows = on_kernels(&ds, &Query::count_star().with_unnest("readings"));
        assert_eq!(rows[0].aggs, [Value::Int(unnested)]);
    }
}

/// `MAX` ties across the top-k boundary, between negative and positive
/// integer keys (whose raw bits sort the negatives last) and `7` / `7.0`
/// written by two components: the groups kept are the aggregate's top,
/// ties in key order, whatever `k` — none for `top_k(0)`, every group,
/// still ordered, for `k` at or beyond their number.
#[test]
fn top_k_ties_keep_key_order_across_negative_keys_and_spellings() {
    // Group key → its records' scores; 7 comes as 7.0 in the first
    // component and as 7 in the second.
    let groups: [(f64, &[i64]); 7] = [
        (-9.0, &[3, 12]),
        (-2.0, &[12]),
        (0.0, &[5]),
        (4.0, &[12, 1]),
        (7.0, &[9, 12]),
        (11.0, &[9]),
        (-5.0, &[5, 2]),
    ];
    let mut first = Vec::new();
    let mut second = Vec::new();
    let mut id = 0;
    for &(key, scores) in &groups {
        for &score in scores {
            let grp = match key == 7.0 && id % 2 == 0 {
                true => Value::Double(7.0),
                false => Value::Int(key as i64),
            };
            let record = doc!({"id": id, "grp": grp, "score": score});
            match key == 7.0 && id % 2 == 0 {
                true => first.push(record),
                false => second.push(record),
            }
            id += 1;
        }
    }
    // The whole ranking: MAX(score) descending, ties by key.
    let ranking: [(i64, i64); 7] = [
        (-9, 12),
        (-2, 12),
        (4, 12),
        (7, 12),
        (11, 9),
        (-5, 5),
        (0, 5),
    ];
    let rounds = [(first, Vec::new()), (second, Vec::new())];
    for ds in components("vectorized-topk-ties", &rounds) {
        for k in [0, 1, 2, 3, 4, 5, 7, 8, 100] {
            let query = Query::select([Aggregate::Max(Path::parse("score")), Aggregate::Count])
                .group_by("grp")
                .top_k(k);
            let rows = on_kernels(&ds, &query);
            let kept: Vec<(Option<Value>, Value)> = rows
                .iter()
                .map(|row| (row.group.clone(), row.aggs[0].clone()))
                .collect();
            let want: Vec<(Option<Value>, Value)> = ranking
                .iter()
                .take(k)
                .map(|&(key, max)| (Some(Value::Int(key)), Value::Int(max)))
                .collect();
            assert_eq!(format!("{kept:?}"), format!("{want:?}"), "top {k}");
        }
    }
}
