//! Statistics-driven planning: what the cost model picks and what the zone
//! maps save. That no access-path choice or zone map changes an answer is
//! the lifecycle differential's to check (`lifecycle.rs`, which rotates every
//! `AccessPathChoice` over whole histories); pinned here:
//!
//! * the multi-valued probe regression folded in from PR 3's one-off
//!   `dup_probe_test.rs` (a record with two indexed values inside the probe
//!   range must be counted once);
//! * I/O-level assertions that a component whose statistics are disjoint
//!   from the filter range is skipped without reading a single page, and
//!   that the cost model's `EXPLAIN` output picks the right path at both
//!   selectivity extremes (the fig. 15 crossover).

use docmodel::{doc, Path, Value};
use lsm::{DatasetConfig, LsmDataset};
use query::{AccessPathChoice, Aggregate, ExecMode, Expr, PlannerOptions, Query, QueryEngine};
use storage::LayoutKind;
use testkit::exec::{every_execution_agrees, ROTATIONS};
use testkit::{engine, leafy_config};

/// Folded in from PR 3's `dup_probe_test.rs`: both indexed values of one
/// record fall inside the probe range; the probe must count the record
/// once. (The fix deduplicates keys in `SecondaryIndex::range_bounds`.)
#[test]
fn multi_valued_probe_does_not_double_count() {
    let ds = LsmDataset::new(
        DatasetConfig::new("multi", LayoutKind::Amax).with_secondary_index(Path::parse("ts[*]")),
    );
    ds.insert(doc!({"id": 1, "ts": [150, 160]})).unwrap();
    ds.flush().unwrap();
    let q = Query::count_star().with_filter(Expr::ge("ts[*]", 120));
    let via_index = engine(ExecMode::Compiled, AccessPathChoice::ForceIndex, true)
        .execute(&ds, &q)
        .unwrap();
    let via_scan = engine(ExecMode::Compiled, AccessPathChoice::ForceScan, true)
        .execute(&ds, &q)
        .unwrap();
    assert_eq!(via_index, via_scan, "index probe disagrees with scan");
    assert_eq!(via_index[0].agg(), &Value::Int(1), "one record, one count");
}

/// The index decides a conjunction only on a single-valued path. On
/// `ts[*]`, record 1 matches `ts[*] >= 120 AND ts[*] <= 180` with two
/// different values (200 and 100), and the range the conjunction implies is
/// one conjunct's, `[120, +inf)`, which also holds record 2: a probe that
/// took the conjunction as decided would count 2.
#[test]
fn the_index_does_not_decide_a_conjunction_on_a_repeated_path() {
    let ds = LsmDataset::new(
        DatasetConfig::new("repeated", LayoutKind::Amax).with_secondary_index(Path::parse("ts[*]")),
    );
    ds.insert(doc!({"id": 1, "ts": [100, 200]})).unwrap();
    ds.insert(doc!({"id": 2, "ts": [500]})).unwrap();
    ds.flush().unwrap();
    let q = Query::count_star()
        .with_filter(Expr::and([Expr::ge("ts[*]", 120), Expr::le("ts[*]", 180)]));
    use AccessPathChoice::{Auto, ForceIndex, ForceScan};
    for choice in [ForceIndex, Auto, ForceScan] {
        let engine = engine(ExecMode::Compiled, choice, true);
        let text = engine.explain(&ds, &q).unwrap();
        assert!(!text.contains("index-only"), "{choice:?}: {text}");
        let rows = engine.execute(&ds, &q).unwrap();
        assert_eq!(rows[0].agg(), &Value::Int(1), "{choice:?}: {text}");
    }
    // One comparison on the same path is decided: some value in range.
    let one = Query::count_star().with_filter(Expr::ge("ts[*]", 120));
    let forced = engine(ExecMode::Compiled, AccessPathChoice::ForceIndex, true);
    assert!(forced.explain(&ds, &one).unwrap().contains("index-only"));
    assert_eq!(forced.execute(&ds, &one).unwrap()[0].agg(), &Value::Int(2));
}

/// A component whose statistics disprove a pushed conjunct is never read:
/// zero pages when every component is disjoint, and only the matching
/// component's pages otherwise. The push-down-disabled oracle returns the
/// same rows while reading strictly more.
#[test]
fn zone_map_pruning_reads_zero_pages_for_disjoint_components() {
    let ds = LsmDataset::new(
        DatasetConfig::new("zonemap", LayoutKind::Amax)
            .with_memtable_budget(usize::MAX)
            .with_page_size(4 * 1024),
    );
    // Two components with disjoint keys and disjoint score ranges.
    for i in 0..100i64 {
        ds.insert(doc!({"id": i, "score": i, "grp": (format!("g{}", i % 5))}))
            .unwrap();
    }
    ds.flush().unwrap();
    for i in 100..200i64 {
        ds.insert(doc!({"id": i, "score": (1_000 + i), "grp": (format!("g{}", i % 5))}))
            .unwrap();
    }
    ds.flush().unwrap();
    assert_eq!(ds.component_count(), 2);

    let hiding = engine(ExecMode::Compiled, AccessPathChoice::ForceScan, true);
    let reading = engine(ExecMode::Compiled, AccessPathChoice::ForceScan, false);
    let pages_read = |engine: &QueryEngine, q: &Query| {
        ds.cache().clear();
        ds.cache().store().reset_stats();
        let rows = engine.execute(&ds, q).unwrap();
        (rows, ds.io_stats().pages_read)
    };

    // Disjoint from *every* component: the filtered scan reads nothing.
    let nothing = Query::count_star().with_filter(Expr::between("score", 5_000, 6_000));
    let (rows, pages) = pages_read(&hiding, &nothing);
    assert_eq!(rows[0].agg(), &Value::Int(0));
    assert_eq!(
        pages, 0,
        "a scan the zone maps hide whole must not read any page"
    );
    let (oracle_rows, oracle_pages) = pages_read(&reading, &nothing);
    assert_eq!(rows, oracle_rows, "the zone maps changed an answer");
    assert!(oracle_pages > 0, "the oracle scans for real");

    // Disjoint from one component: only the other one is read.
    let second_only = Query::count_star().with_filter(Expr::ge("score", 1_000));
    let (rows, pages) = pages_read(&hiding, &second_only);
    assert_eq!(rows[0].agg(), &Value::Int(100));
    let (oracle_rows, oracle_pages) = pages_read(&reading, &second_only);
    assert_eq!(rows, oracle_rows);
    assert!(
        pages < oracle_pages,
        "hiding scan ({pages} pages) must read less than the oracle ({oracle_pages})"
    );

    // A path no record has: statistics prove absence, zero pages again.
    let absent = Query::count_star().with_filter(Expr::ge("no_such_field", 1));
    let (rows, pages) = pages_read(&hiding, &absent);
    assert_eq!(rows[0].agg(), &Value::Int(0));
    assert_eq!(pages, 0, "hiding by absence must not read any page");
}

/// 600 records with `score` = id, indexed on `score` and merged into one
/// component of 64-record AMAX leaves: many leaves, so a point lookup is
/// genuinely cheaper than a scan.
fn indexed_scores(name: &str) -> LsmDataset {
    let config = leafy_config(name, LayoutKind::Amax, 4 * 1024, 64);
    let ds = LsmDataset::new(config.with_secondary_index(Path::parse("score")));
    for i in 0..600i64 {
        ds.insert(doc!({"id": i, "score": i, "grp": (format!("g{}", i % 7))}))
            .unwrap();
    }
    ds.flush().unwrap();
    ds.compact_fully().unwrap();
    ds
}

/// The memtable-aware CPU term (ROADMAP PR 4 open edge): in-memory records
/// cost no pages, but a scan must filter every one of them while a probe
/// touches only the matches. The estimate must surface them, charge the
/// scan more than the probe as the memtable grows, and flip a
/// near-crossover Auto decision to the probe once the memtable is large
/// enough — all without ever changing an answer.
#[test]
fn memtable_records_sharpen_the_auto_choice() {
    use query::physical::{self, PlanContext};

    let ds = indexed_scores("memtable-cost");

    // Flushed state: no memtable term in the estimate.
    let q = Query::count_star().with_filter(Expr::between("score", 100, 140));
    let flushed_ctx = PlanContext::for_dataset(&ds);
    assert_eq!(flushed_ctx.in_memory_records, 0);
    let opts = PlannerOptions::default();
    let flushed = physical::plan(&q, &flushed_ctx, &opts).unwrap();
    let flushed_est = flushed.estimate.clone().unwrap();
    assert!(
        !flushed.describe().contains("memtable"),
        "{}",
        flushed.describe()
    );

    // Unflushed records appear in the context and the explain text, and the
    // CPU term charges the scan more than the probe (the probe only pays
    // for its matches).
    for i in 600..1_400i64 {
        ds.insert(doc!({"id": i, "score": i, "grp": (format!("g{}", i % 7))}))
            .unwrap();
    }
    let mem_ctx = PlanContext::for_dataset(&ds);
    assert_eq!(mem_ctx.in_memory_records, 800);
    let with_mem = physical::plan(&q, &mem_ctx, &opts).unwrap();
    let mem_est = with_mem.estimate.clone().unwrap();
    assert!(
        with_mem.describe().contains("memtable 800 rec"),
        "{}",
        with_mem.describe()
    );
    let scan_growth = mem_est.scan_cost - flushed_est.scan_cost;
    let probe_growth = mem_est.probe_cost.unwrap() - flushed_est.probe_cost.unwrap();
    assert!(
        scan_growth > probe_growth && scan_growth > 0.0,
        "memtable must penalise the scan more: scan +{scan_growth:.2}, probe +{probe_growth:.2}"
    );

    // Find a width where the page-only model scans but the probe is close,
    // then grow the (synthetic) memtable until the CPU term flips Auto to
    // the probe — the crossover sharpening the ROADMAP asks for. The query
    // reads `grp`, so its probe looks records up: a `COUNT(*)` the range
    // decides is index-only and costs no page at any width.
    let mut flipped = false;
    for hi in [140i64, 180, 240, 320, 440, 580] {
        let q = Query::select([Aggregate::Max(Path::parse("grp"))])
            .with_filter(Expr::between("score", 100, hi));
        let count = Query::count_star().with_filter(Expr::between("score", 100, hi));
        let p = physical::plan(&count, &flushed_ctx, &opts).unwrap();
        assert!(
            matches!(p.access, query::AccessPath::IndexRange { index_only: true, .. }),
            "{}",
            p.describe()
        );
        let p = physical::plan(&q, &flushed_ctx, &opts).unwrap();
        if !matches!(p.access, query::AccessPath::FullScan) {
            continue; // pages already favour the probe; wider, please
        }
        let est = p.estimate.unwrap();
        let Some(probe_cost) = est.probe_cost else {
            continue;
        };
        // Memtable records needed to flip, from the cost model's own
        // terms: the scan pays the CPU charge for every in-memory record,
        // the probe only for the matching fraction, so the gap closes at
        // mem * (1 - selectivity) / 64 page-equivalents.
        let frac = est.est_selectivity;
        if frac >= 1.0 {
            continue;
        }
        let needed = ((probe_cost - est.scan_cost) * 64.0 / (1.0 - frac)).ceil() as u64 + 64;
        let mut bumped = flushed_ctx.clone();
        bumped.in_memory_records = needed;
        let p = physical::plan(&q, &bumped, &opts).unwrap();
        if matches!(p.access, query::AccessPath::IndexRange { .. }) {
            flipped = true;
            break;
        }
    }
    assert!(
        flipped,
        "a large memtable must flip some near-crossover scan to a probe"
    );

    // And the answers agree across every policy with the memtable in play.
    let expected = engine(ExecMode::Compiled, AccessPathChoice::ForceScan, false)
        .execute(&ds, &q)
        .unwrap();
    for rotation in 0..ROTATIONS {
        every_execution_agrees(&ds, &q, Some(&expected), rotation);
    }
}

/// The cost model picks the probe at high selectivity (few matches) and the
/// scan at low selectivity (many matches) — the fig. 15 crossover — and
/// `EXPLAIN` shows the estimate it decided on.
#[test]
fn auto_picks_probe_and_scan_at_the_selectivity_extremes() {
    let ds = indexed_scores("crossover");

    let auto = engine(ExecMode::Compiled, AccessPathChoice::Auto, true);
    let tight = Query::count_star().with_filter(Expr::between("score", 300, 302));
    let text = auto.explain(&ds, &tight).unwrap();
    assert!(text.contains("secondary-index range probe"), "{text}");
    assert!(text.contains("selectivity"), "{text}");
    assert!(text.contains("[auto]"), "{text}");
    assert_eq!(auto.execute(&ds, &tight).unwrap()[0].agg(), &Value::Int(3));

    let wide = Query::select([Aggregate::Max(Path::parse("grp"))])
        .with_filter(Expr::ge("score", 10));
    let text = auto.explain(&ds, &wide).unwrap();
    assert!(text.contains("full scan"), "{text}");
    assert_eq!(auto.execute(&ds, &wide).unwrap()[0].agg(), &Value::from("g6"));

    // A `COUNT(*)` the range decides is index-only: its probe reads no
    // page, so Auto takes it even at the wide end.
    let wide_count = Query::count_star().with_filter(Expr::ge("score", 10));
    let text = auto.explain(&ds, &wide_count).unwrap();
    assert!(text.contains("index-only"), "{text}");
    assert!(text.contains("probe ~0 pages"), "{text}");
    assert_eq!(auto.execute(&ds, &wide_count).unwrap()[0].agg(), &Value::Int(590));
}
