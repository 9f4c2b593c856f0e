//! Filter pushdown (late materialization). Pushing sargable conjuncts into
//! the columnar scan is a pure *performance* decision — it may never change
//! an answer, which the lifecycle differential (`lifecycle.rs`) checks with
//! pushdown on and off over whole histories. Pinned here:
//!
//! * the resurrection hazards: the pushed filter is evaluated on the
//!   reconciliation winner only, and anti-matter passes it;
//! * I/O-level proof of the point of it all: a 0.1%-selectivity AMAX scan
//!   hands only the matching records to the operators (and, kernel-covered,
//!   builds no document at all where the unpushed run builds 1000), skips
//!   provably-empty leaves without reading their non-filter-column pages,
//!   and reports both effects exactly in `explain_analyze`;
//! * zone maps that order doubles as the filter does (a leading NaN, `0.0`
//!   before `-0.0`), in every layout;
//! * the `explain` rendering of the pushed/residual split.

use docmodel::{doc, Value};
use lsm::LsmDataset;
use query::{oracle, AccessPathChoice, Aggregate, ExecMode, Expr, Query, QueryEngine};
use storage::LayoutKind;
use testkit::engine;
use testkit::exec::{every_execution_agrees, ROTATIONS};
use testkit::leafy_config;

fn layout_dataset(name: &str, layout: LayoutKind) -> LsmDataset {
    LsmDataset::new(leafy_config(name, layout, 8 * 1024, 64))
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
        for rotation in 0..ROTATIONS {
            let rows = every_execution_agrees(&ds, &q, None, rotation);
            // Only id 2's live version matches; id 1's old match is shadowed
            // and id 3 is deleted outright.
            assert_eq!(rows.len(), 1, "{layout:?}: {rows:?}");
            assert_eq!(rows[0].group, Some(Value::Int(2)), "{layout:?}");
        }
    }
}

/// Zone maps order doubles as the pushed filter does, by `f64::total_cmp`:
/// a leaf whose `grp` column starts with a NaN (which sorts above every
/// number), or whose `x` column holds `0.0` before `-0.0` (which sorts
/// below `0.0`), still holds matches for `grp <= 2` and `x < 0.0`, so it is
/// never hidden — in every layout, every execution equal to the oracle.
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
            for rotation in 0..ROTATIONS {
                every_execution_agrees(&ds, &query, Some(&reference), rotation);
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
    let report = engine(ExecMode::Compiled, AccessPathChoice::Auto, true)
        .explain_analyze(&ds, &q)
        .unwrap();
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
    let unpushed = engine(ExecMode::Compiled, AccessPathChoice::Auto, false)
        .explain_analyze(&ds, &q)
        .unwrap();
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
    let eng = engine(ExecMode::Compiled, AccessPathChoice::ForceScan, true);
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
    let mixed =
        Query::count_star().with_filter(Expr::and([Expr::ge("ts", 10), Expr::exists("payload")]));
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
    let off = engine(ExecMode::Compiled, AccessPathChoice::Auto, false);
    let plan = off.explain(&ds, &sargable).unwrap();
    assert!(plan.contains("pushed     : - (nothing sargable)"), "{plan}");
}
