//! Long-lived space behaviour: the page file must not grow monotonically.
//!
//! An update-heavy LSM workload continuously retires whole runs of pages
//! (every merge frees its inputs). With freed-slot reuse plus the
//! `reclaim_space` GC pass, the page file should track the high-water mark
//! of *live* data through repeated ingest → update → delete → merge → GC
//! cycles — under every compaction strategy — while snapshots taken mid-GC
//! keep reading the pre-GC component copies.

use docmodel::{doc, Value};
use lsm::{CompactionSpec, DatasetConfig, LsmDataset};
use storage::LayoutKind;
use testkit::TempDir;

fn temp_dir(name: &str) -> TempDir {
    TempDir::new("lsm-space-reclaim-tests", name)
}

fn record(i: i64, round: i64) -> Value {
    doc!({
        "id": i,
        "round": round,
        "payload": (format!("round {round} payload for record {i} xxxxxxxxxxxxxxxx")),
        "score": (i * 31 % 997)
    })
}

fn strategies() -> Vec<(&'static str, CompactionSpec)> {
    vec![
        ("tiered", CompactionSpec::tiered(1.2, 3)),
        ("leveled", CompactionSpec::Leveled),
        ("lazy-leveled", CompactionSpec::LazyLeveled),
    ]
}

/// Ingest, then repeatedly overwrite and delete the same key space. With
/// merges retiring inputs and GC packing + truncating the file, allocated
/// space must stay within a small factor of live data instead of growing
/// with the number of rounds. Reopening the packed dataset then finds the
/// relocated components as GC left them: a component's page list, key range
/// and statistics are folded from its leaves, so the remapped leaves must
/// name every page and the orphan sweep must find nothing to free.
#[test]
fn update_heavy_lifecycle_keeps_space_bounded() {
    use query::{ExecMode, Expr, Query, QueryEngine};
    const KEYS: i64 = 300;
    const ROUNDS: i64 = 6;
    for (name, spec) in strategies() {
        let dir = temp_dir(&format!("bounded-{name}"));
        let config = DatasetConfig::new("space", LayoutKind::Amax)
            .with_memtable_budget(8 * 1024)
            .with_page_size(4 * 1024)
            .with_compaction(spec);
        let ds = LsmDataset::open(&dir, config.clone()).unwrap();

        let mut peak_after_gc = 0u64;
        let mut amp_per_round: Vec<f64> = Vec::new();
        for round in 0..ROUNDS {
            for i in 0..KEYS {
                ds.insert(record(i, round)).unwrap();
            }
            // Delete a rotating tenth of the key space.
            for i in (round * 30..round * 30 + 30).map(|i| i % KEYS) {
                ds.delete(Value::Int(i)).unwrap();
            }
            ds.flush().unwrap();
            ds.reclaim_space().unwrap();
            peak_after_gc = peak_after_gc.max(ds.cache().store().allocated_bytes());
            amp_per_round.push(ds.metrics().gauge("amp.space").expect("amp.space gauge"));
        }

        // Every round rewrites the same keys, so live data is constant and
        // the post-GC footprint must settle, not march upward with rounds.
        let allocated = ds.cache().store().allocated_bytes();
        assert!(ds.primary_stored_bytes() > 0, "{name}");
        assert!(
            allocated <= peak_after_gc,
            "{name}: the page file must stop growing once the workload is steady"
        );
        // With no snapshot pinning anything, GC packs completely: every
        // remaining slot belongs to a live component, so space amplification
        // is at its floor (page-granularity fragmentation only, not leaked
        // dead pages) and stays flat across rounds instead of climbing.
        let live_pages: u64 = ds.components().iter().map(|c| c.pages().len() as u64).sum();
        assert_eq!(
            ds.cache().store().page_count(),
            live_pages,
            "{name}: fully packed"
        );
        assert_eq!(ds.cache().store().free_page_count(), 0, "{name}");
        let first = amp_per_round[0];
        let last = *amp_per_round.last().unwrap();
        assert!(
            last <= first * 1.5,
            "{name}: amp.space must not climb with churn rounds: {amp_per_round:?}"
        );

        // The steady-state answer is intact under every strategy.
        assert_eq!(ds.count().unwrap(), (KEYS - 30) as usize, "{name}");
        let survivor = ds
            .lookup(&Value::Int((ROUNDS * 30 + 1) % KEYS), None)
            .unwrap()
            .expect("undeleted key");
        assert_eq!(
            survivor.get_field("round"),
            Some(&Value::Int(ROUNDS - 1)),
            "{name}: the newest version wins"
        );

        // Reopen after GC: the same components, the same plan, the same
        // answer, and no page the remapped leaves fail to name.
        let engine = QueryEngine::new(ExecMode::Compiled);
        let query = Query::count_star().with_filter(Expr::between("score", 100i64, 300i64));
        let view = |ds: &LsmDataset| {
            let components = ds.components();
            let described: Vec<_> = components.iter().map(|c| c.describe()).collect();
            let stats: Vec<_> = components.iter().map(|c| (**c.stats()).clone()).collect();
            (
                described,
                stats,
                engine.explain(ds, &query).unwrap(),
                ds.count().unwrap(),
            )
        };
        let before = view(&ds);
        let page_count = ds.cache().store().page_count();
        drop(ds);
        let ds = LsmDataset::open(&dir, config).unwrap();
        assert_eq!(view(&ds), before, "{name}: reopen after GC");
        assert_eq!(
            ds.cache().store().page_count(),
            page_count,
            "{name}: nothing swept"
        );
        assert_eq!(ds.cache().store().free_page_count(), 0, "{name}");
    }
}

/// A snapshot taken before (and held across) a GC pass keeps reading the
/// retired pre-move components; once it drops, a second pass reclaims the
/// pages it was pinning.
#[test]
fn snapshot_held_across_gc_reads_retired_pages() {
    let dir = temp_dir("snapshot-across-gc");
    let config = DatasetConfig::new("space", LayoutKind::Amax)
        .with_memtable_budget(8 * 1024)
        .with_page_size(4 * 1024)
        .with_compaction(CompactionSpec::tiered(1.2, 3));
    let ds = LsmDataset::open(&dir, config).unwrap();
    for round in 0..3 {
        for i in 0..200 {
            ds.insert(record(i, round)).unwrap();
        }
        ds.flush().unwrap();
    }
    // Merge down so retired inputs free-list a mid-file hole, then hole-punch
    // state for GC to chew on.
    ds.compact_fully().unwrap();

    let snapshot = ds.snapshot();
    let expected = snapshot
        .cursor(None)
        .unwrap()
        .map(|e| e.unwrap().1)
        .collect::<Vec<_>>();
    assert_eq!(expected.len(), 200);

    // More churn while the snapshot is live, then GC: the snapshot's
    // components are retired (their slots pinned), not destroyed.
    for i in 0..200 {
        ds.insert(record(i, 99)).unwrap();
    }
    ds.flush().unwrap();
    ds.compact_fully().unwrap();
    ds.reclaim_space().unwrap();

    // The held snapshot still reads its pre-GC view, byte for byte.
    assert_eq!(
        snapshot
            .cursor(None)
            .unwrap()
            .map(|e| e.unwrap().1)
            .collect::<Vec<_>>(),
        expected
    );
    // And the post-GC dataset serves the new state.
    let newest = ds.lookup(&Value::Int(5), None).unwrap().unwrap();
    assert_eq!(newest.get_field("round"), Some(&Value::Int(99)));

    // Dropping the snapshot unpins its pages; the next pass reclaims them.
    let pinned = ds.cache().store().page_count();
    drop(snapshot);
    ds.reclaim_space().unwrap();
    let after = ds.cache().store().page_count();
    assert!(
        after < pinned,
        "dropping the snapshot must let GC reclaim its pages ({pinned} -> {after})"
    );
    // Fully packed: every remaining slot is referenced by a live component.
    let live_pages: u64 = ds.components().iter().map(|c| c.pages().len() as u64).sum();
    assert_eq!(after, live_pages, "no dead slots survive GC");
    assert_eq!(ds.cache().store().free_page_count(), 0);
}
