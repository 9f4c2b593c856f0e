//! Differential fleet for filter pushdown (late materialization).
//!
//! Pushing sargable conjuncts into the columnar scan is a pure
//! *performance* decision — it may never change an answer. This suite
//! locks that in:
//!
//! * a property test running random documents × range-heavy filters ×
//!   aggregates through both engines with pushdown on and off, across every
//!   layout (VB/APAX/AMAX) and a 4-way sharded target, against the
//!   materialised batch oracle — over *update-heavy* datasets, because the
//!   pushdown contract says only the reconciliation winner may be
//!   filter-evaluated (a shadowed old version that matches a filter the
//!   live version fails must stay invisible, and vice versa);
//! * deterministic shadowing regressions for exactly those resurrection
//!   hazards, including deletes (anti-matter must pass the pushed filter);
//! * I/O-level proof of the point of it all: a 0.1%-selectivity AMAX scan
//!   hands only the matching records to the operators (and, kernel-covered,
//!   builds no document at all where the unpushed run builds 1000), skips
//!   provably-empty leaves without reading their non-filter-column pages,
//!   and reports both effects exactly in `explain_analyze`;
//! * zone maps that order doubles as the filter does (a leading NaN, `0.0`
//!   before `-0.0`), in every layout;
//! * the `explain` rendering of the pushed/residual split.

mod support;

use proptest::prelude::*;

use docmodel::{doc, Value};
use lsm::{DatasetConfig, LsmDataset};
use query::{
    oracle, AccessPathChoice, Aggregate, ExecMode, Expr, PlannerOptions, Query, QueryEngine,
};
use storage::LayoutKind;

use support::{arb_aggregate, arb_doc_body, build_doc, range_heavy_expr};

/// An engine with pushdown forced on or off; everything else default.
fn engine(mode: ExecMode, pushdown: bool) -> QueryEngine {
    QueryEngine::with_options(
        mode,
        PlannerOptions {
            filter_pushdown: pushdown,
            ..Default::default()
        },
    )
}

fn layout_dataset(name: &str, layout: LayoutKind) -> LsmDataset {
    let mut config = DatasetConfig::new(name, layout)
        .with_memtable_budget(usize::MAX)
        .with_page_size(8 * 1024);
    config.amax.record_limit = 64;
    LsmDataset::new(config)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    // Pushdown on == pushdown off == batch oracle, on datasets where many
    // records exist in several versions spread across components (the
    // update pass rewrites half the ids with different bodies, the delete
    // pass drops a few) — the reconciliation × pushdown interaction under
    // maximum pressure.
    #[test]
    fn pushdown_never_changes_answers(
        bodies in prop::collection::vec(arb_doc_body(), 24..56),
        update_bodies in prop::collection::vec(arb_doc_body(), 8..16),
        deletes in prop::collection::vec(0usize..24, 0..6),
        filter in range_heavy_expr(),
        aggs in prop::collection::vec(arb_aggregate(), 1..3),
        group in prop_oneof![Just(false), Just(true)],
    ) {
        let mut query = Query::select(aggs).with_filter(filter);
        if group {
            query = query.group_by("grp");
        }

        let mut single_answer: Option<Vec<query::QueryRow>> = None;
        for layout in [LayoutKind::Vb, LayoutKind::Apax, LayoutKind::Amax] {
            let ds = layout_dataset("pushdown-prop", layout);
            for (i, body) in bodies.iter().enumerate() {
                ds.insert(build_doc(i as i64, body)).unwrap();
            }
            ds.flush().unwrap();
            // Update-heavy: shadow half the ids with fresh bodies in a
            // second component, then delete a few in a third.
            for (i, body) in update_bodies.iter().enumerate() {
                ds.insert(build_doc((i * 2) as i64, body)).unwrap();
            }
            ds.flush().unwrap();
            for &id in &deletes {
                ds.delete(Value::Int(id as i64)).unwrap();
            }
            ds.flush().unwrap();

            let reference = oracle::execute_batch(&ds.snapshot(), &query).unwrap();
            for mode in [ExecMode::Compiled, ExecMode::Interpreted] {
                for pushdown in [true, false] {
                    let rows = engine(mode, pushdown).execute(&ds, &query).unwrap();
                    prop_assert_eq!(
                        &rows, &reference,
                        "{:?}/{:?}/pushdown={} disagrees with the oracle: {:?}",
                        layout, mode, pushdown, query
                    );
                }
            }
            // All layouts must agree with each other too.
            match &single_answer {
                Some(previous) => prop_assert_eq!(previous, &reference, "{:?}", layout),
                None => single_answer = Some(reference),
            }
        }

        // Sharded(4): the per-shard pushed scans merge to the same rows.
        let shards: Vec<LsmDataset> = (0..4)
            .map(|i| layout_dataset(&format!("pushdown-shard-{i}"), LayoutKind::Amax))
            .collect();
        for (i, body) in bodies.iter().enumerate() {
            shards[i % 4].insert(build_doc(i as i64, body)).unwrap();
        }
        for (i, body) in update_bodies.iter().enumerate() {
            let id = (i * 2) as i64;
            shards[(id as usize) % 4].insert(build_doc(id, body)).unwrap();
        }
        for &id in &deletes {
            shards[id % 4].delete(Value::Int(id as i64)).unwrap();
        }
        for shard in &shards {
            shard.flush().unwrap();
        }
        let refs: Vec<&LsmDataset> = shards.iter().collect();
        let expected = single_answer.expect("three layouts ran");
        for pushdown in [true, false] {
            let rows = engine(ExecMode::Compiled, pushdown)
                .execute(&refs[..], &query)
                .unwrap();
            prop_assert_eq!(
                &rows, &expected,
                "sharded(4)/pushdown={} disagrees: {:?}", pushdown, query
            );
        }
    }
}

/// The resurrection hazards, pinned deterministically: the pushed filter is
/// evaluated on the reconciliation *winner only*, so a shadowed old version
/// can neither leak through a filter its live version fails, nor suppress a
/// live version that matches.
#[test]
fn shadowed_versions_are_never_filter_evaluated() {
    for layout in [LayoutKind::Vb, LayoutKind::Apax, LayoutKind::Amax] {
        let ds = layout_dataset("pushdown-shadow", layout);
        // Old versions in component 1.
        ds.insert(doc!({"id": 1, "score": 10})).unwrap(); // old matches score<=20
        ds.insert(doc!({"id": 2, "score": 90})).unwrap(); // old fails score<=20
        ds.insert(doc!({"id": 3, "score": 15})).unwrap(); // will be deleted
        ds.flush().unwrap();
        // Live versions / tombstone in component 2.
        ds.insert(doc!({"id": 1, "score": 95})).unwrap(); // live fails
        ds.insert(doc!({"id": 2, "score": 5})).unwrap(); // live matches
        ds.delete(Value::Int(3)).unwrap();
        ds.flush().unwrap();

        let q = Query::select_paths(["score"])
            .with_filter(Expr::le("score", 20))
            .order_by_key();
        for pushdown in [true, false] {
            let rows = engine(ExecMode::Compiled, pushdown).execute(&ds, &q).unwrap();
            // Only id 2's live version matches; id 1's old match is
            // shadowed and id 3 is deleted outright.
            assert_eq!(rows.len(), 1, "{layout:?}/pushdown={pushdown}: {rows:?}");
            assert_eq!(rows[0].group, Some(Value::Int(2)), "{layout:?}/pushdown={pushdown}");
        }
    }
}

/// Zone maps order doubles as the pushed filter does, by `f64::total_cmp`:
/// a leaf whose `grp` column starts with a NaN (which sorts above every
/// number), or whose `x` column holds `0.0` before `-0.0` (which sorts
/// below `0.0`), still holds matches for `grp <= 2` and `x < 0.0`, so it is
/// never hidden — in every layout, both engines, pushdown on
/// and off, all equal to the oracle.
#[test]
fn zone_maps_order_doubles_like_the_filter() {
    for layout in LayoutKind::ALL {
        let ds = layout_dataset("pushdown-total-order", layout);
        for i in 0..40i64 {
            let grp = if i == 0 { f64::NAN } else { 1.0 };
            ds.insert(doc!({"id": i, "grp": (grp)})).unwrap();
        }
        ds.insert(doc!({"id": 40, "x": 0.0})).unwrap();
        ds.insert(doc!({"id": 41, "x": (-0.0)})).unwrap();
        ds.flush().unwrap();
        for (filter, matches) in [(Expr::le("grp", 2), 39), (Expr::lt("x", 0.0), 1)] {
            let query = Query::select([Aggregate::Count]).with_filter(filter);
            let reference = oracle::execute_batch(&ds.snapshot(), &query).unwrap();
            let want = [Value::Int(matches)];
            assert_eq!(reference[0].aggs, want, "{layout:?} {query:?}");
            for mode in [ExecMode::Compiled, ExecMode::Interpreted] {
                for pushdown in [true, false] {
                    let rows = engine(mode, pushdown).execute(&ds, &query).unwrap();
                    assert_eq!(rows, reference, "{layout:?}/{mode:?}/pushdown={pushdown}");
                }
            }
        }
    }
}

/// A multi-leaf, single-component AMAX dataset: a narrow filter column
/// (`ts`, strictly increasing so every leaf's zone map is tight) plus a fat
/// payload column the filter never touches.
fn wide_amax(rows: i64) -> LsmDataset {
    let ds = layout_dataset("pushdown-io", LayoutKind::Amax);
    for i in 0..rows {
        ds.insert(doc!({
            "id": i,
            "ts": i,
            "payload": (format!("fat payload column for record {i}: {}", "x".repeat(120)))
        }))
        .unwrap();
    }
    ds.flush().unwrap();
    assert_eq!(ds.component_count(), 1);
    ds
}

/// The late-materialization I/O contract at 0.1% selectivity: the operators
/// see *matches*, not the dataset; leaves whose zone maps prove no
/// match are skipped without reading their pages; `explain_analyze`
/// reports both counters exactly.
#[test]
fn low_selectivity_scan_assembles_matches_and_skips_leaf_pages() {
    let ds = wide_amax(1000);
    // 64-record leaves → 16 leaves; `ts == 500` lives in exactly one.
    let q = Query::count_star().with_filter(Expr::eq("ts", 500));

    ds.cache().clear();
    ds.cache().store().reset_stats();
    let report = engine(ExecMode::Compiled, true).explain_analyze(&ds, &q).unwrap();
    let pushed_stats = ds.io_stats();
    assert_eq!(report.rows[0].agg(), &Value::Int(1));

    // The one match is counted by a column kernel: no document is built at
    // all, for the match or for anything else of the 1000.
    assert_eq!(pushed_stats.records_assembled, 0, "{}", report.describe());
    assert_eq!(report.records_assembled(), 0);
    assert_eq!(report.records_kernel(), 1, "{}", report.describe());
    assert_eq!(report.rows_pulled(), 1, "{}", report.describe());
    // Every other leaf was either skipped whole (zone maps, 15 of 16) or
    // had its records rejected from the filter column alone.
    assert_eq!(report.leaves_skipped(), 15, "{}", report.describe());
    assert_eq!(pushed_stats.leaves_skipped, 15);
    assert_eq!(
        report.records_filtered_pre_assembly(),
        pushed_stats.records_filtered_pre_assembly,
        "analyze must report the exact counter"
    );
    assert_eq!(
        report.records_filtered_pre_assembly() + 1,
        64,
        "the one live leaf evaluates its 64 records and hands 1 to the kernel"
    );
    // The annotated rendering carries the counters.
    let text = report.describe();
    assert!(text.contains("filtered pre-assembly 63"), "{text}");
    assert!(text.contains("leaves skipped 15"), "{text}");

    // The oracle run: same rows, strictly more pages (it reads the fat
    // payload column of every leaf).
    ds.cache().clear();
    ds.cache().store().reset_stats();
    let unpushed = engine(ExecMode::Compiled, false).explain_analyze(&ds, &q).unwrap();
    let unpushed_stats = ds.io_stats();
    assert_eq!(unpushed.rows, report.rows);
    assert_eq!(unpushed_stats.records_assembled, 1000);
    assert_eq!(unpushed.leaves_skipped(), 0);
    assert!(
        report.pages_read() < unpushed.pages_read(),
        "pushdown must read strictly fewer pages ({} vs {})",
        report.pages_read(),
        unpushed.pages_read()
    );
}

/// Skipped leaves read **zero** pages of any kind — filter columns
/// included: a filter disjoint from every leaf's zone map scans nothing.
#[test]
fn fully_skipped_scan_reads_zero_pages() {
    let ds = wide_amax(1000);
    // The component's own zone map hides it, and every one of its leaves
    // counts as skipped.
    let eng = QueryEngine::with_options(
        ExecMode::Compiled,
        PlannerOptions::with_access_path(AccessPathChoice::ForceScan),
    );
    let q = Query::count_star().with_filter(Expr::ge("ts", 5_000));
    ds.cache().clear();
    ds.cache().store().reset_stats();
    let report = eng.explain_analyze(&ds, &q).unwrap();
    assert_eq!(report.rows[0].agg(), &Value::Int(0));
    assert_eq!(report.leaves_skipped(), 16, "{}", report.describe());
    assert_eq!(
        report.pages_read(),
        0,
        "skipped leaves must not read filter-column pages either: {}",
        report.describe()
    );
    assert_eq!(ds.io_stats().records_assembled, 0);
}

/// `explain` renders the pushed/residual split; residual-only and
/// fully-pushed filters are labelled as such.
#[test]
fn explain_shows_the_pushed_residual_split() {
    let ds = wide_amax(100);
    let eng = QueryEngine::new(ExecMode::Compiled);

    // Sargable + non-sargable conjunct: both halves rendered.
    let mixed = Query::count_star()
        .with_filter(Expr::and([Expr::ge("ts", 10), Expr::exists("payload")]));
    let plan = eng.explain(&ds, &mixed).unwrap();
    assert!(plan.contains("pushed     : ts >= 10"), "{plan}");
    assert!(plan.contains("residual   : EXISTS(payload)"), "{plan}");

    // Fully sargable: no residual left.
    let sargable = Query::count_star().with_filter(Expr::between("ts", 10, 20));
    let plan = eng.explain(&ds, &sargable).unwrap();
    assert!(plan.contains("pushed     :"), "{plan}");
    assert!(plan.contains("residual   : - (fully pushed)"), "{plan}");

    // Nothing sargable (multi-valued path): everything stays residual.
    let residual_only = Query::count_star().with_filter(Expr::contains("payload[*]", "x"));
    let plan = eng.explain(&ds, &residual_only).unwrap();
    assert!(plan.contains("pushed     : - (nothing sargable)"), "{plan}");

    // Pushdown disabled: the split is not rendered at all.
    let off = QueryEngine::with_options(
        ExecMode::Compiled,
        PlannerOptions {
            filter_pushdown: false,
            ..Default::default()
        },
    );
    let plan = off.explain(&ds, &sargable).unwrap();
    assert!(plan.contains("pushed     : - (nothing sargable)"), "{plan}");
}
