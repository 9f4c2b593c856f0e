//! Crash-recovery tests for durable datasets.
//!
//! Each test ingests into a directory-backed dataset, "kills" it at a chosen
//! point (by dropping it mid-protocol, with `CrashPoint` injections forcing
//! the interesting windows), reopens the directory, and asserts that exactly
//! the acknowledged inserts and deletes are visible — no lost records, no
//! resurrected deletes, no duplicates.
//!
//! The `crash_under_load_*` tests arm the same crash points while background
//! flush/merge workers and a writer thread are active, then reopen and
//! verify that exactly the acknowledged prefix survives.

use std::sync::Mutex;

use docmodel::{doc, Value};
use lsm::{CrashPoint, DatasetConfig, LsmDataset};
use storage::LayoutKind;
use testkit::{bg_config, sample_record, tiny_config, TempDir};

fn temp_dir(name: &str) -> TempDir {
    TempDir::new("lsm-recovery-tests", name)
}

/// A big budget so nothing flushes until we say so.
fn unflushed_config(layout: LayoutKind) -> DatasetConfig {
    DatasetConfig::new("recovery", layout)
        .with_memtable_budget(usize::MAX)
        .with_page_size(4 * 1024)
}

/// The state every test drives the dataset into: keys 0..N inserted, the
/// even keys under 20 updated, keys 3/7/11 deleted.
const N: i64 = 120;

fn apply_workload(ds: &mut LsmDataset) {
    for i in 0..N {
        ds.insert(sample_record(i)).unwrap();
    }
    for i in (0..20).step_by(2) {
        let mut updated = sample_record(i);
        updated.set_field("text", Value::from("updated"));
        ds.insert(updated).unwrap();
    }
    for i in [3i64, 7, 11] {
        ds.delete(Value::Int(i)).unwrap();
    }
}

/// Assert the reopened dataset holds exactly the acknowledged state.
fn assert_workload_recovered(ds: &LsmDataset) {
    assert_eq!(ds.count().unwrap(), (N - 3) as usize);
    let docs = ds.scan(None).unwrap();
    assert_eq!(docs.len(), (N - 3) as usize);
    // Deletes stay deleted.
    for i in [3i64, 7, 11] {
        assert!(
            ds.lookup(&Value::Int(i), None).unwrap().is_none(),
            "key {i}"
        );
    }
    // Updates stay updated; originals stay original.
    let updated = ds.lookup(&Value::Int(2), None).unwrap().unwrap();
    assert_eq!(updated.get_field("text"), Some(&Value::from("updated")));
    let original = ds.lookup(&Value::Int(1), None).unwrap().unwrap();
    assert_ne!(original.get_field("text"), Some(&Value::from("updated")));
    // Nested structure survives the WAL/component round trip.
    let nested = ds.lookup(&Value::Int(50), None).unwrap().unwrap();
    assert_eq!(
        nested.get_path_str("user.name"),
        Some(&Value::from("user11"))
    );
    assert_eq!(
        nested.get_field("tags").unwrap().as_array().unwrap().len(),
        1
    );
}

#[test]
fn kill_before_any_flush_recovers_from_wal_alone() {
    for layout in LayoutKind::ALL {
        let dir = temp_dir(&format!("before-flush-{}", layout.name()));
        {
            let mut ds = LsmDataset::open(&dir, unflushed_config(layout)).unwrap();
            apply_workload(&mut ds);
            assert_eq!(ds.component_count(), 0, "nothing may have flushed");
            assert!(ds.wal_bytes() > 0);
            assert_eq!(ds.manifest_version(), 0);
            // Dropped here without flush: the WAL is the only durable copy.
        }
        let ds = LsmDataset::open(&dir, unflushed_config(layout)).unwrap();
        assert_eq!(ds.component_count(), 0, "{layout:?}");
        assert_workload_recovered(&ds);
    }
}

#[test]
fn kill_after_component_write_before_manifest_commit() {
    for layout in [LayoutKind::Vb, LayoutKind::Amax] {
        let dir = temp_dir(&format!("pre-manifest-{}", layout.name()));
        {
            let mut ds = LsmDataset::open(&dir, unflushed_config(layout)).unwrap();
            apply_workload(&mut ds);
            ds.set_crash_point(CrashPoint::AfterFlushComponentWrite);
            let err = ds.flush().expect_err("injected crash must surface");
            assert!(err.message.contains("injected crash"), "{err}");
            // On disk: component pages written but unreferenced; no
            // manifest; the full WAL.
            assert_eq!(ds.manifest_version(), 0);
            assert!(ds.wal_bytes() > 0);
        }
        let ds = LsmDataset::open(&dir, unflushed_config(layout)).unwrap();
        assert_eq!(
            ds.manifest_version(),
            0,
            "{layout:?}: the aborted flush must not be visible"
        );
        assert_eq!(ds.component_count(), 0, "{layout:?}");
        assert_workload_recovered(&ds);

        // The recovered dataset keeps working: flush it for real this time.
        let ds = ds;
        ds.flush().unwrap();
        assert!(ds.manifest_version() > 0);
        assert_eq!(ds.wal_bytes(), 0);
        assert_workload_recovered(&ds);
    }
}

#[test]
fn kill_after_manifest_commit_before_wal_truncate() {
    for layout in [LayoutKind::Vb, LayoutKind::Amax] {
        let dir = temp_dir(&format!("pre-truncate-{}", layout.name()));
        {
            let mut ds = LsmDataset::open(&dir, unflushed_config(layout)).unwrap();
            apply_workload(&mut ds);
            ds.set_crash_point(CrashPoint::AfterFlushManifestCommit);
            let err = ds.flush().expect_err("injected crash must surface");
            assert!(err.message.contains("injected crash"), "{err}");
            // On disk: manifest committed AND the WAL still present — the
            // records exist twice.
            assert_eq!(ds.manifest_version(), 1);
            assert!(ds.wal_bytes() > 0);
        }
        let ds = LsmDataset::reopen(&dir, |_| None).unwrap();
        assert_eq!(ds.component_count(), 1, "{layout:?}");
        // Replaying the WAL over the flushed component must reconcile, not
        // duplicate: count() deduplicates by key.
        assert_workload_recovered(&ds);
    }
}

#[test]
fn kill_during_merge_before_manifest_commit_keeps_inputs() {
    for layout in [LayoutKind::Vb, LayoutKind::Amax] {
        let dir = temp_dir(&format!("pre-merge-commit-{}", layout.name()));
        {
            let mut ds = LsmDataset::open(&dir, unflushed_config(layout)).unwrap();
            apply_workload(&mut ds);
            ds.flush().unwrap();
            // Second batch so a multi-component merge is possible.
            for i in N..N + 40 {
                ds.insert(sample_record(i)).unwrap();
            }
            ds.flush().unwrap();
            let components_before = ds.component_count();
            assert!(components_before >= 2, "{layout:?}");
            let version_before = ds.manifest_version();

            ds.set_crash_point(CrashPoint::BeforeMergeManifestCommit);
            let err = ds.compact_fully().expect_err("injected crash must surface");
            assert!(err.message.contains("injected crash"), "{err}");
            assert_eq!(ds.manifest_version(), version_before);
        }
        let ds = LsmDataset::reopen(&dir, |_| None).unwrap();
        // The manifest still lists the pre-merge components, whose pages
        // were never freed; the merged orphan pages are invisible.
        assert!(ds.component_count() >= 2, "{layout:?}");
        assert_eq!(ds.count().unwrap(), (N - 3 + 40) as usize, "{layout:?}");
        for i in [3i64, 7, 11] {
            assert!(ds.lookup(&Value::Int(i), None).unwrap().is_none());
        }
        assert!(ds.lookup(&Value::Int(N + 39), None).unwrap().is_some());

        // And a rerun of the merge completes.
        let ds = ds;
        ds.compact_fully().unwrap();
        assert_eq!(ds.component_count(), 1, "{layout:?}");
        assert_eq!(ds.count().unwrap(), (N - 3 + 40) as usize);
    }
}

#[test]
fn flush_truncates_wal_and_restart_uses_components() {
    for layout in LayoutKind::ALL {
        let dir = temp_dir(&format!("flushed-{}", layout.name()));
        let schema_description;
        {
            let mut ds = LsmDataset::open(&dir, tiny_config("recovery", layout)).unwrap();
            apply_workload(&mut ds);
            ds.flush().unwrap();
            assert!(
                ds.stats().flushes > 1,
                "{layout:?}: tiny budget must flush repeatedly"
            );
            assert_eq!(ds.wal_bytes(), 0, "{layout:?}: flush truncates the WAL");
            assert!(ds.manifest_version() >= 1);
            schema_description = ds.schema().describe();
        }
        let ds = LsmDataset::reopen(&dir, |_| None).unwrap();
        assert!(ds.component_count() >= 1, "{layout:?}");
        assert_eq!(
            ds.schema().describe(),
            schema_description,
            "{layout:?}: the inferred schema must survive restarts"
        );
        assert_workload_recovered(&ds);
    }
}

/// The durable half of a configuration, field by field (`DatasetConfig`
/// also holds runtime handles, so it has no `==` of its own).
fn durable_fields(c: &DatasetConfig) -> impl PartialEq + std::fmt::Debug {
    (
        c.name.clone(),
        c.layout,
        c.key_field.clone(),
        c.page_size,
        c.secondary_index_on.as_ref().map(|p| p.to_string()),
        c.amax.record_limit,
        c.compaction,
        c.memory_budget,
        c.memtable_budget,
        c.cache_pages,
    )
}

/// A dataset directory describes itself: whatever the layout, compaction
/// strategy, index and budget, `reopen` from the directory alone restores
/// the durable configuration, the schema and every component descriptor
/// (zone maps included) exactly as the last manifest commit recorded them.
#[test]
fn a_directory_describes_itself_across_the_durable_configuration_space() {
    use lsm::CompactionSpec;

    let compactions = [
        CompactionSpec::tiered(1.7, 3),
        CompactionSpec::Leveled,
        CompactionSpec::LazyLeveled,
    ];
    for layout in LayoutKind::ALL {
        for (c, compaction) in compactions.into_iter().enumerate() {
            for indexed in [false, true] {
                // The odd budget exercises the split's integer division.
                for budget in [0usize, (3 << 20) + 1] {
                    let context = format!("{layout:?}/{compaction:?}/{indexed}/{budget}");
                    let dir = temp_dir(&format!(
                        "self-describing-{}-{c}-{indexed}-{budget}",
                        layout.name()
                    ));
                    let mut config = tiny_config("recovery", layout)
                        .with_cache_pages(33)
                        .with_compaction(compaction)
                        .with_memory_budget(budget);
                    config.amax.record_limit = 48;
                    if indexed {
                        config = config.with_secondary_index(docmodel::Path::parse("timestamp"));
                    }
                    let (written, schema, components);
                    {
                        let mut ds = LsmDataset::open(&dir, config).unwrap();
                        apply_workload(&mut ds);
                        ds.flush().unwrap();
                        written = durable_fields(ds.config());
                        schema = ds.schema();
                        components = ds
                            .components()
                            .iter()
                            .map(|c| c.describe())
                            .collect::<Vec<_>>();
                    }
                    let ds = LsmDataset::reopen(&dir, |_| None).unwrap();
                    assert_eq!(durable_fields(ds.config()), written, "{context}");
                    assert_eq!(ds.schema(), schema, "{context}");
                    let reopened: Vec<_> = ds.components().iter().map(|c| c.describe()).collect();
                    assert_eq!(reopened, components, "{context}");
                    assert_workload_recovered(&ds);
                }
            }
        }
    }
}

/// The owner's decoder treats its bytes as untrusted: a configuration cut
/// short, extended, or naming a compaction strategy this build does not
/// know is an error, whatever the variant.
#[test]
fn damaged_durable_configuration_is_an_error() {
    use lsm::CompactionSpec;

    for compaction in [
        CompactionSpec::default(),
        CompactionSpec::Leveled,
        CompactionSpec::LazyLeveled,
    ] {
        for budget in [0usize, 1 << 20] {
            let config = tiny_config("recovery", LayoutKind::Amax)
                .with_secondary_index(docmodel::Path::parse("timestamp"))
                .with_compaction(compaction)
                .with_memory_budget(budget);
            let bytes = config.write_durable();
            let back = DatasetConfig::read_durable(&bytes, config.page_size).unwrap();
            assert_eq!(back.write_durable(), bytes);
            for len in 0..bytes.len() {
                assert!(
                    DatasetConfig::read_durable(&bytes[..len], config.page_size).is_err(),
                    "{compaction:?}/{budget}: cut to {len} of {} bytes",
                    bytes.len()
                );
            }
            let mut longer = bytes.clone();
            longer.push(0);
            assert!(DatasetConfig::read_durable(&longer, config.page_size).is_err());
            // Flips decode to an error or to some configuration, never a panic.
            for i in 0..bytes.len() {
                let mut bad = bytes.clone();
                bad[i] ^= 0xff;
                let _ = DatasetConfig::read_durable(&bad, config.page_size);
            }
        }
    }
}

/// A directory whose manifest carries a magic of an earlier generation is
/// refused — by `reopen` and by `open` alike — with an error naming it.
#[test]
fn a_directory_of_an_older_manifest_generation_is_refused_by_name() {
    let dir = temp_dir("old-generation");
    {
        let mut ds = LsmDataset::open(&dir, tiny_config("recovery", LayoutKind::Amax)).unwrap();
        apply_workload(&mut ds);
        ds.flush().unwrap();
    }
    let manifest = dir.join("MANIFEST");
    let mut bytes = std::fs::read(&manifest).unwrap();
    bytes[..8].copy_from_slice(b"LSMMAN07");
    std::fs::write(&manifest, &bytes).unwrap();
    let reopened = LsmDataset::reopen(&dir, |_| None)
        .err()
        .expect("reopen must fail");
    assert!(reopened.message.contains("LSMMAN07"), "{reopened}");
    let opened = LsmDataset::open(&dir, tiny_config("recovery", LayoutKind::Amax))
        .err()
        .expect("open too");
    assert!(opened.message.contains("LSMMAN07"), "{opened}");
}

#[test]
fn repeated_restarts_and_mixed_batches_converge() {
    let dir = temp_dir("repeated-restarts");
    // Session 1: a first batch, flushed.
    {
        let ds = LsmDataset::open(&dir, tiny_config("recovery", LayoutKind::Amax)).unwrap();
        for i in 0..60 {
            ds.insert(sample_record(i)).unwrap();
        }
        ds.flush().unwrap();
    }
    // Session 2: updates and deletes, left unflushed in the WAL.
    {
        let ds = LsmDataset::reopen(&dir, |_| None).unwrap();
        assert_eq!(ds.count().unwrap(), 60);
        for i in 0..10 {
            let mut updated = sample_record(i);
            updated.set_field("text", Value::from("second session"));
            ds.insert(updated).unwrap();
        }
        ds.delete(Value::Int(59)).unwrap();
        ds.sync().unwrap();
    }
    // Session 3: heterogeneous records widening the schema, then a flush.
    {
        let ds = LsmDataset::reopen(&dir, |_| None).unwrap();
        assert_eq!(ds.count().unwrap(), 59);
        let doc = ds.lookup(&Value::Int(4), None).unwrap().unwrap();
        assert_eq!(doc.get_field("text"), Some(&Value::from("second session")));
        for i in 100..130 {
            ds.insert(doc!({"id": i, "brand_new_field": {"nested": (i * 2)}}))
                .unwrap();
        }
        ds.flush().unwrap();
    }
    // Session 4: everything visible, schema is the superset.
    let ds = LsmDataset::reopen(&dir, |_| None).unwrap();
    assert_eq!(ds.count().unwrap(), 89);
    let wide = ds.lookup(&Value::Int(110), None).unwrap().unwrap();
    assert_eq!(
        wide.get_path_str("brand_new_field.nested"),
        Some(&Value::Int(220))
    );
    assert!(ds.schema().describe().contains("brand_new_field"));
    assert!(ds.lookup(&Value::Int(59), None).unwrap().is_none());
}

#[test]
fn secondary_index_is_rebuilt_on_recovery() {
    let dir = temp_dir("secondary-rebuild");
    let config = || {
        tiny_config("recovery", LayoutKind::Apax)
            .with_secondary_index(docmodel::Path::parse("timestamp"))
    };
    {
        let ds = LsmDataset::open(&dir, config()).unwrap();
        for i in 0..150 {
            ds.insert(sample_record(i)).unwrap();
        }
        ds.flush().unwrap();
        // A few unflushed updates so recovery covers WAL + components.
        for i in 0..5 {
            let mut updated = sample_record(i);
            updated.set_field("timestamp", Value::Int(5_000_000 + i));
            ds.insert(updated).unwrap();
        }
    }
    // reopen() restores the secondary index config from the manifest.
    let ds = LsmDataset::reopen(&dir, |_| None).unwrap();
    let range = |lo: i64, hi: i64| {
        use std::ops::Bound::Included;
        ds.secondary_range_entries(Included(&Value::Int(lo)), Included(&Value::Int(hi)), None)
            .unwrap()
    };
    assert_eq!(range(1_000_100, 1_000_149).len(), 50);
    // The updated records moved out of the old timestamp range...
    let stale = range(1_000_000, 1_000_004);
    assert!(
        stale.is_empty(),
        "moved entries must not linger, got {stale:?}"
    );
    // ...and into the new one.
    assert_eq!(range(5_000_000, 5_000_004).len(), 5);
}

// ---------------------------------------------------------------------------
// Per-component statistics across restarts (the planner's zone maps).
// ---------------------------------------------------------------------------

#[test]
fn component_stats_survive_restart_and_planner_choices_are_identical() {
    use query::{AccessPathChoice, ExecMode, Expr, PlannerOptions, Query, QueryEngine};

    let dir = temp_dir("stats-roundtrip");
    // Small mega leaves, so the leaves' zone maps have something to hide.
    let config = || {
        let mut config = tiny_config("recovery", LayoutKind::Amax)
            .with_secondary_index(docmodel::Path::parse("timestamp"));
        config.amax.record_limit = 16;
        config
    };
    // A range that hits a strict subset of the workload's timestamps, so
    // both the zone maps and the estimate have something to decide.
    let filter = Expr::between("timestamp", 1_000_030i64, 1_000_059i64);
    let query = Query::count_star().with_filter(filter.clone());
    let engine = QueryEngine::new(ExecMode::Compiled);
    let scan = QueryEngine::with_options(
        ExecMode::Compiled,
        PlannerOptions::with_access_path(AccessPathChoice::ForceScan),
    );
    let leaves_skipped =
        |ds: &LsmDataset| scan.explain_analyze(ds, &query).unwrap().leaves_skipped();

    let (stats_before, skipped_before, explain_before, rows_before);
    {
        let mut ds = LsmDataset::open(&dir, config()).unwrap();
        apply_workload(&mut ds);
        ds.flush().unwrap();
        assert!(
            ds.stats().flushes > 1,
            "the tiny budget must flush repeatedly"
        );
        assert!(ds.component_count() >= 1);

        let snapshot = ds.snapshot();
        stats_before = snapshot
            .components()
            .iter()
            .map(|c| (c.id(), (**c.stats()).clone()))
            .collect::<Vec<_>>();
        // Every component's stats must actually see the indexed column.
        for (id, stats) in &stats_before {
            assert!(stats.column("timestamp").is_some(), "component {id}");
            assert!(stats.live_records > 0, "component {id}");
        }
        explain_before = engine.explain(&ds, &query).unwrap();
        rows_before = engine.execute(&ds, &query).unwrap();
        skipped_before = leaves_skipped(&ds);
        assert!(skipped_before > 0, "the zone maps must hide something");
    }

    // Reopen: statistics come back from the manifest, and the planner makes
    // the exact same decisions — same access path, same estimates, same
    // leaves hidden by the pushed scan, same answer.
    let ds = LsmDataset::reopen(&dir, |_| None).unwrap();
    let snapshot = ds.snapshot();
    let stats_after: Vec<_> = snapshot
        .components()
        .iter()
        .map(|c| (c.id(), (**c.stats()).clone()))
        .collect();
    assert_eq!(
        stats_before, stats_after,
        "per-component stats changed across restart"
    );
    assert_eq!(
        engine.explain(&ds, &query).unwrap(),
        explain_before,
        "the planner must make the same access-path choice (and estimates)"
    );
    assert_eq!(
        leaves_skipped(&ds),
        skipped_before,
        "the zone maps must hide the same leaves after the restart"
    );
    assert_eq!(engine.execute(&ds, &query).unwrap(), rows_before);
    // And every forced path still agrees on the recovered dataset.
    for choice in [AccessPathChoice::ForceIndex, AccessPathChoice::ForceScan] {
        let forced =
            QueryEngine::with_options(ExecMode::Compiled, PlannerOptions::with_access_path(choice));
        assert_eq!(
            forced.execute(&ds, &query).unwrap(),
            rows_before,
            "{choice:?}"
        );
    }
}

#[test]
fn aborted_flush_between_component_write_and_manifest_commit_leaves_no_stale_stats() {
    use query::{AccessPathChoice, ExecMode, Expr, PlannerOptions, Query, QueryEngine};

    let dir = temp_dir("stats-stale");
    {
        let mut ds = LsmDataset::open(&dir, unflushed_config(LayoutKind::Amax)).unwrap();
        apply_workload(&mut ds);
        // The crash fires after the component (and its stats) hit the page
        // file but before the manifest commit that would publish them.
        ds.set_crash_point(CrashPoint::AfterFlushComponentWrite);
        let err = ds.flush().expect_err("injected crash must surface");
        assert!(err.message.contains("injected crash"), "{err}");
    }
    let ds = LsmDataset::open(&dir, unflushed_config(LayoutKind::Amax)).unwrap();
    // The aborted flush is invisible: no component, hence no statistics for
    // the planner to consume — stale zone maps can never skip live data.
    assert_eq!(ds.component_count(), 0);
    let snapshot = ds.snapshot();
    assert!(snapshot.components().is_empty());
    let filter = Expr::between("timestamp", 1_000_000i64, 1_000_010i64);
    let scan = QueryEngine::with_options(
        ExecMode::Compiled,
        PlannerOptions::with_access_path(AccessPathChoice::ForceScan),
    );
    let report = scan
        .explain_analyze(&ds, &Query::count_star().with_filter(filter.clone()))
        .unwrap();
    assert_eq!(
        report.leaves_skipped(),
        0,
        "nothing to hide on a component-less dataset"
    );
    // The WAL-recovered records answer the query exactly.
    let engine = QueryEngine::new(ExecMode::Compiled);
    let rows = engine
        .execute(&ds, &Query::count_star().with_filter(filter.clone()))
        .unwrap();
    let expected = (0..N)
        .filter(|i| (0..=10).contains(i) && ![3, 7].contains(i))
        .count() as i64;
    assert_eq!(rows[0].agg(), &docmodel::Value::Int(expected));

    // A real flush then publishes fresh statistics and changes nothing.
    ds.flush().unwrap();
    assert!(ds.component_count() >= 1);
    let snapshot = ds.snapshot();
    for c in snapshot.components() {
        assert!(
            c.stats().column("timestamp").is_some(),
            "a committed flush publishes stats"
        );
    }
    assert_eq!(
        engine
            .execute(&ds, &Query::count_star().with_filter(filter))
            .unwrap()[0]
            .agg(),
        &docmodel::Value::Int(expected)
    );
    assert_workload_recovered(&ds);
}

#[test]
fn reopen_without_manifest_is_an_error_but_open_works() {
    let dir = temp_dir("no-manifest");
    assert!(
        LsmDataset::reopen(&dir, |_| None).is_err(),
        "nothing there yet"
    );
    {
        let ds = LsmDataset::open(&dir, unflushed_config(LayoutKind::Vb)).unwrap();
        ds.insert(sample_record(1)).unwrap();
        // No flush: still no manifest, only a WAL.
    }
    assert!(
        LsmDataset::reopen(&dir, |_| None).is_err(),
        "reopen needs a manifest"
    );
    let ds = LsmDataset::open(&dir, unflushed_config(LayoutKind::Vb)).unwrap();
    assert_eq!(ds.count().unwrap(), 1);
}

#[test]
fn torn_wal_tail_loses_only_the_unacknowledged_record() {
    let dir = temp_dir("torn-tail");
    {
        let ds = LsmDataset::open(&dir, unflushed_config(LayoutKind::Vb)).unwrap();
        for i in 0..20 {
            ds.insert(sample_record(i)).unwrap();
        }
        ds.sync().unwrap();
    }
    // Tear the last frame in half, as a crash mid-write would.
    let wal_path = dir.join(persist::wal::segment_file_name(0));
    let bytes = std::fs::read(&wal_path).unwrap();
    std::fs::write(&wal_path, &bytes[..bytes.len() - 7]).unwrap();

    let ds = LsmDataset::open(&dir, unflushed_config(LayoutKind::Vb)).unwrap();
    assert_eq!(ds.count().unwrap(), 19, "only the torn record may be lost");
    assert!(ds.lookup(&Value::Int(18), None).unwrap().is_some());
    assert!(ds.lookup(&Value::Int(19), None).unwrap().is_none());
}

/// Recovery tracing (telemetry): the `RecoveryReplay` event a reopened
/// dataset emits must match the ground truth of what was on disk — WAL
/// segments scanned, records replayed, whether a torn tail was truncated,
/// and components reloaded from the manifest.
#[test]
fn recovery_replay_event_matches_ground_truth() {
    use telemetry::EventKind;

    let dir = temp_dir("replay-event");
    let replay_of = |ds: &LsmDataset| {
        ds.recent_events(256)
            .into_iter()
            .find_map(|e| match e.kind {
                EventKind::RecoveryReplay {
                    segments,
                    records,
                    torn_tail_healed,
                    components,
                } => Some((segments, records, torn_tail_healed, components)),
                _ => None,
            })
            .expect("every durable open emits a recovery summary")
    };

    // Kill before any flush: one WAL segment, all 20 records, no components.
    {
        let ds = LsmDataset::open(&dir, unflushed_config(LayoutKind::Vb)).unwrap();
        for i in 0..20 {
            ds.insert(sample_record(i)).unwrap();
        }
        ds.sync().unwrap();
    }
    {
        let ds = LsmDataset::open(&dir, unflushed_config(LayoutKind::Vb)).unwrap();
        assert_eq!(replay_of(&ds), (1, 20, false, 0));

        // Flush, then a short unflushed tail: the manifest now carries one
        // component and only the tail is replayed.
        ds.flush().unwrap();
        for i in 20..25 {
            ds.insert(sample_record(i)).unwrap();
        }
        ds.sync().unwrap();
    }
    {
        let ds = LsmDataset::reopen(&dir, |_| None).unwrap();
        assert_eq!(replay_of(&ds), (1, 5, false, 1));
    }

    // Tear the last WAL frame in half, as a crash mid-append would: the
    // summary reports the healed tail and one fewer record. The WAL may
    // have rotated, so find the newest (active) segment file.
    let wal_path = {
        let mut segments: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| {
                let path = e.unwrap().path();
                let name = path.file_name()?.to_str()?;
                (name.starts_with("wal") && name.ends_with(".log")).then(|| path.clone())
            })
            .collect();
        segments.sort();
        segments.pop().expect("an active WAL segment exists")
    };
    let bytes = std::fs::read(&wal_path).unwrap();
    std::fs::write(&wal_path, &bytes[..bytes.len() - 7]).unwrap();
    let ds = LsmDataset::reopen(&dir, |_| None).unwrap();
    assert_eq!(replay_of(&ds), (1, 4, true, 1));
    assert_eq!(ds.count().unwrap(), 24, "only the torn record is lost");
}

// ---------------------------------------------------------------------------
// Orphaned-page reclamation at recovery.
// ---------------------------------------------------------------------------

/// Page slots neither referenced by a live component nor on the free list —
/// the leak the recovery sweep exists to close.
fn orphaned_pages(ds: &LsmDataset) -> u64 {
    let store = ds.cache().store();
    let live: u64 = ds.components().iter().map(|c| c.pages().len() as u64).sum();
    store.page_count() - store.free_page_count() - live
}

fn orphan_sweep_of(ds: &LsmDataset) -> Option<(u64, u64, u64)> {
    ds.recent_events(256)
        .into_iter()
        .find_map(|e| match e.kind {
            telemetry::EventKind::OrphanSweep {
                scanned,
                freed,
                truncated,
            } => Some((scanned, freed, truncated)),
            _ => None,
        })
}

#[test]
fn crash_after_component_write_orphans_are_swept_at_reopen() {
    for layout in [LayoutKind::Vb, LayoutKind::Amax] {
        let dir = temp_dir(&format!("orphan-flush-{}", layout.name()));
        {
            let mut ds = LsmDataset::open(&dir, unflushed_config(layout)).unwrap();
            apply_workload(&mut ds);
            ds.set_crash_point(CrashPoint::AfterFlushComponentWrite);
            let err = ds.flush().expect_err("injected crash must surface");
            assert!(err.message.contains("injected crash"), "{err}");
            // The aborted component's pages are in the file, referenced by
            // no manifest: orphans.
            assert!(
                orphaned_pages(&ds) > 0,
                "{layout:?}: the crash must orphan pages"
            );
        }
        let ds = LsmDataset::open(&dir, unflushed_config(layout)).unwrap();
        assert_eq!(
            orphaned_pages(&ds),
            0,
            "{layout:?}: reopen must sweep every orphan"
        );
        let (scanned, freed, _) = orphan_sweep_of(&ds).expect("sweep event emitted");
        assert!(freed > 0 && scanned >= freed, "{layout:?}");
        // With no live components at all, the sweep truncates the entire
        // file rather than just free-listing it.
        assert_eq!(ds.cache().store().page_count(), 0, "{layout:?}");
        assert_workload_recovered(&ds);

        // The swept dataset keeps working, reusing the reclaimed space.
        ds.flush().unwrap();
        assert_eq!(orphaned_pages(&ds), 0, "{layout:?}");
        assert_workload_recovered(&ds);
    }
}

#[test]
fn crash_before_merge_commit_orphans_are_swept_at_reopen() {
    for layout in [LayoutKind::Vb, LayoutKind::Amax] {
        let dir = temp_dir(&format!("orphan-merge-{}", layout.name()));
        {
            let mut ds = LsmDataset::open(&dir, unflushed_config(layout)).unwrap();
            apply_workload(&mut ds);
            ds.flush().unwrap();
            for i in N..N + 40 {
                ds.insert(sample_record(i)).unwrap();
            }
            ds.flush().unwrap();
            assert!(ds.component_count() >= 2, "{layout:?}");
            ds.set_crash_point(CrashPoint::BeforeMergeManifestCommit);
            let err = ds.compact_fully().expect_err("injected crash must surface");
            assert!(err.message.contains("injected crash"), "{err}");
            // The merge output was written and synced but never committed.
            assert!(
                orphaned_pages(&ds) > 0,
                "{layout:?}: the aborted merge must orphan pages"
            );
        }
        let ds = LsmDataset::reopen(&dir, |_| None).unwrap();
        assert_eq!(
            orphaned_pages(&ds),
            0,
            "{layout:?}: reopen must sweep every orphan"
        );
        assert!(ds.component_count() >= 2, "{layout:?}: inputs stay live");
        assert_eq!(ds.count().unwrap(), (N - 3 + 40) as usize, "{layout:?}");

        // The re-run merge reuses the swept slots instead of growing the
        // file past its pre-crash size.
        let before = ds.cache().store().page_count();
        ds.compact_fully().unwrap();
        ds.reclaim_space().unwrap();
        assert!(
            ds.cache().store().page_count() <= before,
            "{layout:?}: merge + GC must not grow the file ({} -> {})",
            before,
            ds.cache().store().page_count()
        );
        assert_eq!(ds.count().unwrap(), (N - 3 + 40) as usize);
    }
}

#[test]
fn durable_and_in_memory_datasets_agree() {
    let dir = temp_dir("parity");
    let mut mem = LsmDataset::new(tiny_config("recovery", LayoutKind::Amax));
    let mut dur = LsmDataset::open(&dir, tiny_config("recovery", LayoutKind::Amax)).unwrap();
    for ds in [&mut mem, &mut dur] {
        apply_workload(ds);
        ds.flush().unwrap();
    }
    let mem_docs = mem.scan(None).unwrap();
    let dur_docs = dur.scan(None).unwrap();
    assert_eq!(mem_docs, dur_docs);
    drop(dur);
    let dur = LsmDataset::reopen(&dir, |_| None).unwrap();
    assert_eq!(dur.scan(None).unwrap(), mem_docs);
}

// ---------------------------------------------------------------------------
// Crash points under concurrent load (background workers + writer thread).
// ---------------------------------------------------------------------------

/// Unoptimized builds ingest less so the tier-1 `cargo test` stays fast; CI
/// additionally runs this suite in `--release` at full scale.
#[cfg(debug_assertions)]
const LOAD: i64 = 400;
#[cfg(not(debug_assertions))]
const LOAD: i64 = 2_000;

/// Drive a writer thread (recording every acknowledged insert) and a reader
/// thread against a dataset whose durability layer has `point` armed. The
/// injected failure fires on the background worker; the writer observes it
/// through the scheduler on a later insert and stops. Returns the
/// acknowledged keys.
fn crash_under_load(dir: &std::path::Path, layout: LayoutKind, point: CrashPoint) -> Vec<i64> {
    let ds = LsmDataset::open(dir, bg_config("recovery", layout)).unwrap();
    ds.set_crash_point(point);
    let acked: Mutex<Vec<i64>> = Mutex::new(Vec::new());
    std::thread::scope(|scope| {
        let writer = {
            let ds = &ds;
            let acked = &acked;
            scope.spawn(move || {
                for i in 0..LOAD {
                    match ds.insert(sample_record(i)) {
                        Ok(()) => acked.lock().unwrap().push(i),
                        // The parked background failure surfaced: stop, like
                        // a client whose writes start erroring out.
                        Err(err) => {
                            assert!(
                                err.message.contains("injected crash"),
                                "unexpected failure: {err}"
                            );
                            break;
                        }
                    }
                }
            })
        };
        // A concurrent reader keeps taking snapshots while the crash fires.
        {
            let ds = &ds;
            scope.spawn(move || {
                for _ in 0..10 {
                    let snapshot = ds.snapshot();
                    let count = snapshot.cursor(Some(&[])).unwrap().count();
                    assert_eq!(
                        snapshot
                            .cursor(None)
                            .unwrap()
                            .map(|e| e.unwrap().1)
                            .collect::<Vec<_>>()
                            .len(),
                        count
                    );
                    std::thread::yield_now();
                }
            });
        }
        writer.join().unwrap();
    });
    // The final drain may surface the parked failure — that is the "crash".
    let _ = ds.flush();
    drop(ds); // kill: the dataset is abandoned mid-protocol
    acked.into_inner().unwrap()
}

#[test]
fn crash_under_load_preserves_the_acknowledged_prefix() {
    for (name, point) in [
        ("flush-pre-manifest", CrashPoint::AfterFlushComponentWrite),
        ("flush-pre-truncate", CrashPoint::AfterFlushManifestCommit),
        ("merge-pre-commit", CrashPoint::BeforeMergeManifestCommit),
    ] {
        for layout in [LayoutKind::Vb, LayoutKind::Amax] {
            let dir = temp_dir(&format!("under-load-{name}-{}", layout.name()));
            let acked = crash_under_load(&dir, layout, point);
            assert!(
                !acked.is_empty(),
                "{name}/{layout:?}: some inserts must be acknowledged"
            );

            let ds = LsmDataset::open(&dir, tiny_config("recovery", layout)).unwrap();
            // Exactly the acknowledged prefix survives: every acknowledged
            // insert is visible, and nothing beyond it.
            assert_eq!(
                ds.count().unwrap(),
                acked.len(),
                "{name}/{layout:?}: exactly the acknowledged records survive"
            );
            for &i in &acked {
                assert!(
                    ds.lookup(&Value::Int(i), None).unwrap().is_some(),
                    "{name}/{layout:?}: acknowledged key {i} lost"
                );
            }
            // And the recovered dataset keeps working.
            ds.insert(sample_record(1_000_000)).unwrap();
            ds.flush().unwrap();
            assert_eq!(ds.count().unwrap(), acked.len() + 1);
        }
    }
}

#[test]
fn background_flush_error_surfaces_on_explicit_flush() {
    let dir = temp_dir("bg-error-on-flush");
    let ds = LsmDataset::open(&dir, bg_config("recovery", LayoutKind::Amax)).unwrap();
    for i in 0..40 {
        ds.insert(sample_record(i)).unwrap();
    }
    ds.flush().unwrap();
    let version = ds.manifest_version();

    ds.set_crash_point(CrashPoint::AfterFlushComponentWrite);
    for i in 40..80 {
        ds.insert(sample_record(i)).unwrap();
    }
    let err = ds
        .flush()
        .expect_err("the injected worker crash must surface");
    assert!(err.message.contains("injected crash"), "{err}");
    assert_eq!(
        ds.manifest_version(),
        version,
        "aborted flush must not commit"
    );

    // The crash point is consumed: a retry drains cleanly and nothing is lost.
    ds.flush().unwrap();
    assert_eq!(ds.count().unwrap(), 80);
    assert!(ds.manifest_version() > version);
    drop(ds);
    let ds = LsmDataset::reopen(&dir, |_| None).unwrap();
    assert_eq!(ds.count().unwrap(), 80);
}

#[test]
fn crash_under_load_with_deletes_keeps_them_deleted() {
    let dir = temp_dir("under-load-deletes");
    let acked_deletes: Mutex<Vec<i64>> = Mutex::new(Vec::new());
    {
        let ds = LsmDataset::open(&dir, bg_config("recovery", LayoutKind::Vb)).unwrap();
        for i in 0..LOAD / 2 {
            ds.insert(sample_record(i)).unwrap();
        }
        ds.set_crash_point(CrashPoint::AfterFlushManifestCommit);
        std::thread::scope(|scope| {
            let ds = &ds;
            let acked_deletes = &acked_deletes;
            scope.spawn(move || {
                for i in (0..LOAD / 2).step_by(7) {
                    match ds.delete(Value::Int(i)) {
                        Ok(()) => acked_deletes.lock().unwrap().push(i),
                        Err(_) => break,
                    }
                }
            });
            scope.spawn(move || {
                for i in LOAD / 2..LOAD {
                    if ds.insert(sample_record(i)).is_err() {
                        break;
                    }
                }
            });
        });
        let _ = ds.flush();
    }
    let ds = LsmDataset::open(&dir, tiny_config("recovery", LayoutKind::Vb)).unwrap();
    for i in acked_deletes.into_inner().unwrap() {
        assert!(
            ds.lookup(&Value::Int(i), None).unwrap().is_none(),
            "acknowledged delete of {i} resurrected"
        );
    }
}

/// `records` as the dataset must hold them: the last version of each key.
fn model_of(records: &[Value]) -> std::collections::BTreeMap<i64, Value> {
    records
        .iter()
        .map(|r| (r.get_field("id").unwrap().as_int().unwrap(), r.clone()))
        .collect()
}

/// Every live record of `ds` by key.
fn contents(ds: &LsmDataset) -> std::collections::BTreeMap<i64, Value> {
    model_of(&ds.scan(None).unwrap())
}

/// A batch's frames are staged in memory and written once, at the end of
/// the call: an acknowledged batch must be on disk when `ingest_batch`
/// returns, even without a sync (the drop is the crash).
#[test]
fn an_acknowledged_batch_recovers_every_record() {
    for layout in [LayoutKind::Vb, LayoutKind::Amax] {
        let dir = temp_dir(&format!("batch-acked-{}", layout.name()));
        let mut batch: Vec<Value> = (0..N).map(sample_record).collect();
        // Upserts inside the batch: the later version must win on replay.
        for i in (0..N).step_by(9) {
            let mut updated = sample_record(i);
            updated.set_field("text", Value::from("upserted in the batch"));
            batch.push(updated);
        }
        {
            let ds = LsmDataset::open(&dir, unflushed_config(layout)).unwrap();
            ds.ingest_batch(batch.clone(), 0).unwrap();
            assert_eq!(ds.component_count(), 0, "nothing may have flushed");
        }
        let ds = LsmDataset::open(&dir, unflushed_config(layout)).unwrap();
        assert_eq!(contents(&ds), model_of(&batch), "{layout:?}");
    }
}

/// A batch whose memtable seals midway: the seal writes and syncs the
/// frames staged so far into the sealed WAL segment. A crash on either
/// side of the flush's manifest commit recovers exactly the records the
/// dataset applied — an earlier batch whole, and the failing batch up to
/// the record whose seal triggered the flush.
#[test]
fn a_batch_that_seals_midway_recovers_exactly() {
    for point in [
        CrashPoint::AfterFlushComponentWrite,
        CrashPoint::AfterFlushManifestCommit,
    ] {
        let dir = temp_dir(&format!("batch-seal-{point:?}"));
        let config = || tiny_config("recovery", LayoutKind::Amax);
        let first: Vec<Value> = (0..N).map(sample_record).collect();
        let second: Vec<Value> = (N / 2..2 * N)
            .map(|i| {
                let mut r = sample_record(i);
                r.set_field("text", Value::from("second batch"));
                r
            })
            .collect();
        let mut applied = first.clone();
        {
            let ds = LsmDataset::open(&dir, config()).unwrap();
            ds.ingest_batch(first.clone(), 0).unwrap();
            let flushes = ds.stats().flushes;
            assert!(flushes > 0, "the first batch must seal and flush");
            ds.set_crash_point(point);
            let before = ds.stats().records_ingested;
            let err = ds
                .ingest_batch(second.clone(), 0)
                .expect_err("the injected crash fails the batch");
            assert!(err.message.contains("injected crash"), "{err}");
            let taken = (ds.stats().records_ingested - before) as usize;
            assert!(
                taken > 0 && taken < second.len(),
                "{point:?}: the seal must fall inside the batch ({taken})"
            );
            applied.extend_from_slice(&second[..taken]);
            assert_eq!(
                contents(&ds),
                model_of(&applied),
                "{point:?}: before the crash"
            );
        }
        let ds = LsmDataset::open(&dir, config()).unwrap();
        assert_eq!(contents(&ds), model_of(&applied), "{point:?}");
    }
}

/// A record without a key fails the batch at that record: the records
/// before it are applied and logged, the records after it are not.
#[test]
fn a_keyless_record_ends_the_batch_where_it_stands() {
    let dir = temp_dir("batch-keyless");
    let mut batch: Vec<Value> = (0..N).map(sample_record).collect();
    batch[(N / 2) as usize] = doc!({"text": "no key"});
    {
        let ds = LsmDataset::open(&dir, unflushed_config(LayoutKind::Vb)).unwrap();
        let err = ds.ingest_batch(batch.clone(), 0).unwrap_err();
        assert!(err.message.contains("primary key"), "{err}");
    }
    let ds = LsmDataset::open(&dir, unflushed_config(LayoutKind::Vb)).unwrap();
    assert_eq!(contents(&ds), model_of(&batch[..(N / 2) as usize]));
    assert!(ds.lookup(&Value::Int(N / 2 + 1), None).unwrap().is_none());
}

/// The primary-key filter exists for secondary-index maintenance alone: a
/// dataset without a secondary index keeps none, so reopening it reads no
/// component page (the indexed one rebuilds its index from the components).
#[test]
fn reopening_without_a_secondary_index_reads_no_component_page() {
    for indexed in [false, true] {
        let dir = temp_dir(&format!("reopen-pages-{indexed}"));
        let mut config = tiny_config("recovery", LayoutKind::Amax);
        if indexed {
            config = config.with_secondary_index(docmodel::Path::parse("timestamp"));
        }
        {
            let ds = LsmDataset::open(&dir, config.clone()).unwrap();
            ds.ingest_batch((0..N).map(sample_record).collect(), 0)
                .unwrap();
            ds.flush().unwrap();
            assert!(ds.component_count() > 0);
            let unindexed = ds.total_stored_bytes() == ds.primary_stored_bytes();
            assert_eq!(
                unindexed, !indexed,
                "only an index is counted beside the components"
            );
        }
        let ds = LsmDataset::open(&dir, config).unwrap();
        let pages_read = ds.io_stats().pages_read;
        if indexed {
            assert!(pages_read > 0, "the index rebuild reads the components");
        } else {
            assert_eq!(pages_read, 0, "a reopen without an index reads no page");
        }
        assert_eq!(ds.count().unwrap(), N as usize);
    }
}
