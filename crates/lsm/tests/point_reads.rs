//! The point-read path — `lookup`, the sorted batch lookup behind index
//! probes, and the upsert's index-maintenance lookup — against the scan.
//!
//! * **Differential**: over every layout, on a tree of three overlapping
//!   components plus an unflushed memtable, with shadowed versions,
//!   tombstones and resurrected keys, a lookup returns exactly the record
//!   the reconciling scan yields for that key, and a sorted batch (an
//!   index probe covering every key) returns exactly what per-key lookups
//!   return. Unprojected reads are compared document for document;
//!   projected ones through their paths, which is all a consumer reads (a
//!   memtable hit is cut to the projected top-level fields, a scan row of
//!   the memtable is not).
//! * **Contracts**: a read served from the decoded-leaf cache reads no page
//!   and assembles at most the one record it returns; reading does not grow
//!   the cache; the index-maintenance lookup is as narrow as the index.
//! * **Concurrency**: index probes racing upserts, moves, deletes and
//!   flushes of the probed keys see, for each key, a version that existed,
//!   that agrees with the index at the same instant, and that never goes
//!   back in time.

use std::collections::BTreeMap;
use std::ops::Bound::{Included, Unbounded};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};

use docmodel::{doc, Path, Value};
use lsm::{CompactionSpec, DatasetConfig, LsmDataset, WorkerPool};
use storage::{LayoutKind, LeafCache};

fn record(key: i64, version: i64) -> Value {
    // `shape` changes type from version to version (a union column) and
    // `tags` changes length, so versions of a key differ in every column.
    let shape = if version % 2 == 0 {
        Value::Int(version)
    } else {
        Value::from(format!("v{version}"))
    };
    doc!({
        "id": key,
        "body": (format!("version {version} of {key}")),
        "num": (key * 10 + version),
        "shape": shape,
        "nested": {"tag": (format!("t{}", (key + version) % 13)), "version": version},
        "tags": ((0..version).map(|t| Value::from(format!("tag{t}"))).collect::<Vec<_>>())
    })
}

/// Several leaves per component, and no merge however the sizes fall.
fn layered_config(layout: LayoutKind) -> DatasetConfig {
    let mut config = DatasetConfig::new("point-reads", layout)
        .with_memtable_budget(64 << 20)
        .with_page_size(4 * 1024)
        .with_compaction(CompactionSpec::tiered(1e9, 100));
    config.amax.record_limit = 48;
    config
}

/// Three overlapping components, oldest first, then an unflushed memtable:
/// every key below 300 starts at version 1; later layers overwrite, delete
/// and resurrect different residue classes, and add keys of their own.
fn build_layers(ds: &LsmDataset) {
    for key in 0..300 {
        ds.insert(record(key, 1)).unwrap();
    }
    ds.flush().unwrap();
    for key in (50..350).filter(|k| k % 3 == 0) {
        ds.insert(record(key, 2)).unwrap();
    }
    for key in (0..300).filter(|k| k % 7 == 0) {
        ds.delete(Value::Int(key)).unwrap();
    }
    ds.flush().unwrap();
    for key in (0..400).filter(|k| k % 5 == 0) {
        ds.insert(record(key, 3)).unwrap();
    }
    for key in (0..400).filter(|k| k % 11 == 0) {
        ds.delete(Value::Int(key)).unwrap();
    }
    for key in (0..300).filter(|k| k % 14 == 0) {
        ds.insert(record(key, 4)).unwrap(); // deleted one layer down
    }
    ds.flush().unwrap();
    assert_eq!(ds.component_count(), 3, "the layers must stay unmerged");
    for key in (0..420).filter(|k| k % 17 == 0) {
        ds.insert(record(key, 5)).unwrap();
    }
    for key in (0..420).filter(|k| k % 23 == 0) {
        ds.delete(Value::Int(key)).unwrap();
    }
}

/// What a consumer of a read with `projection` sees of `doc`: the whole
/// document without a projection, each projected path's values with one.
fn as_read(doc: Option<&Value>, projection: Option<&[Path]>) -> Option<Vec<Vec<Value>>> {
    let doc = doc?;
    Some(match projection {
        None => vec![vec![doc.clone()]],
        Some(paths) => paths
            .iter()
            .map(|path| path.evaluate(doc).into_iter().cloned().collect())
            .collect(),
    })
}

#[test]
fn lookups_match_the_reconciling_scan_in_every_layout() {
    let projections: [Option<Vec<Path>>; 3] = [
        None,
        Some(vec![Path::parse("body")]),
        Some(vec![Path::parse("nested.tag"), Path::parse("shape")]),
    ];
    for layout in LayoutKind::ALL {
        for cached in [false, true] {
            // Every record carries `num`, so an unbounded probe of an index
            // on it is a sorted batch lookup of every live key.
            let mut config = layered_config(layout).with_secondary_index(Path::parse("num"));
            if cached {
                config = config.with_leaf_cache(Arc::new(LeafCache::new(32 << 20)));
            }
            let ds = LsmDataset::new(config);
            build_layers(&ds);
            let snapshot = ds.snapshot();
            for projection in &projections {
                let projection = projection.as_deref();
                let scanned: BTreeMap<i64, Value> = snapshot
                    .cursor(projection)
                    .unwrap()
                    .map(|entry| entry.unwrap())
                    .map(|(key, doc)| (key.as_int().unwrap(), doc))
                    .collect();
                assert!(
                    scanned.len() > 200,
                    "{layout:?}: the scan sees the live keys"
                );
                for key in -5..430 {
                    let expected = as_read(scanned.get(&key), projection);
                    let context = format!("{layout:?} cached={cached} key {key} {projection:?}");
                    let got = ds.lookup(&Value::Int(key), projection).unwrap();
                    let got = as_read(got.as_ref(), projection);
                    assert_eq!(got, expected, "dataset lookup, {context}");
                    let got = snapshot.lookup(&Value::Int(key), projection).unwrap();
                    let got = as_read(got.as_ref(), projection);
                    assert_eq!(got, expected, "snapshot lookup, {context}");
                }
                // One sorted batch: what per-key lookups find.
                let batch: Vec<(Value, _)> = ds
                    .secondary_range_entries(Unbounded, Unbounded, projection)
                    .unwrap()
                    .into_iter()
                    .map(|(key, doc)| (key, as_read(Some(&doc), projection)))
                    .collect();
                let expected: Vec<(Value, _)> = scanned
                    .iter()
                    .map(|(key, doc)| (Value::Int(*key), as_read(Some(doc), projection)))
                    .collect();
                assert_eq!(batch, expected, "{layout:?} cached={cached} {projection:?}");
            }
        }
    }
}

#[test]
fn projected_memtable_hits_hold_the_projected_top_level_fields() {
    for layout in LayoutKind::ALL {
        let ds = LsmDataset::new(layered_config(layout).with_secondary_index(Path::parse("num")));
        build_layers(&ds);
        // Key 17 is written last in the memtable (version 5), over key 17's
        // older versions on disk.
        let whole = record(17, 5);
        let num = Value::Int(17 * 10 + 5);
        let nested = [Path::parse("nested.tag"), Path::parse("num")];
        let narrow = doc!({"num": (17 * 10 + 5), "nested": {"tag": "t9", "version": 5}});
        let snapshot = ds.snapshot();
        for (projection, expected) in [
            (Some(&nested[..]), &narrow),
            (Some(&[Path::root()][..]), &whole),
            (None, &whole),
        ] {
            let context = format!("{layout:?} {projection:?}");
            let got = ds.lookup(&Value::Int(17), projection).unwrap();
            assert_eq!(got.as_ref(), Some(expected), "dataset lookup, {context}");
            let got = snapshot.lookup(&Value::Int(17), projection).unwrap();
            assert_eq!(got.as_ref(), Some(expected), "snapshot lookup, {context}");
            let got = ds
                .secondary_range_entries(Included(&num), Included(&num), projection)
                .unwrap();
            assert_eq!(got, vec![(Value::Int(17), expected.clone())], "probe, {context}");
        }
    }
}

#[test]
fn point_read_counters_report_amplification() {
    let ds = LsmDataset::new(layered_config(LayoutKind::Amax));
    build_layers(&ds);
    let before = ds.metrics();
    // 17 is only in the memtable's reach (17 * 1, version 5); 1 lives in the
    // oldest of the three components; 1000 is nowhere.
    assert!(ds.lookup(&Value::Int(17), None).unwrap().is_some());
    assert!(ds.lookup(&Value::Int(1), None).unwrap().is_some());
    assert!(ds.lookup(&Value::Int(1000), None).unwrap().is_none());
    let after = ds.metrics();
    let delta = |name: &str| after.counter(name) - before.counter(name);
    assert_eq!(delta("lsm.lookups"), 3);
    assert_eq!(delta("lsm.lookup_memtable_hits"), 1);
    assert_eq!(delta("lsm.lookup_components_probed"), 3 + 3);
}

fn indexed_config(layout: LayoutKind, cache: &Arc<LeafCache>) -> DatasetConfig {
    layered_config(layout)
        .with_secondary_index(Path::parse("num"))
        .with_leaf_cache(cache.clone())
}

#[test]
fn cached_point_reads_assemble_one_record_and_read_no_pages() {
    for layout in [LayoutKind::Apax, LayoutKind::Amax] {
        let cache = Arc::new(LeafCache::new(32 << 20));
        let ds = LsmDataset::new(indexed_config(layout, &cache));
        for key in 0..300 {
            ds.insert(record(key, 1)).unwrap();
        }
        ds.flush().unwrap();

        // The first get decodes the leaf; from then on it is resident.
        let first = ds.lookup(&Value::Int(123), None).unwrap().unwrap();
        assert_eq!(first, record(123, 1), "{layout:?}");
        let resident = (cache.resident_bytes(), cache.resident_leaves());
        ds.cache().clear();
        let before = ds.io_stats();
        let again = ds.lookup(&Value::Int(123), None).unwrap().unwrap();
        assert_eq!(again, first, "{layout:?}");
        let io = ds.io_stats();
        assert_eq!(io.pages_read, before.pages_read, "{layout:?}");
        assert_eq!(
            io.records_assembled - before.records_assembled,
            1,
            "{layout:?}"
        );
        assert_eq!(io.leaf_cache_misses, before.leaf_cache_misses, "{layout:?}");

        // A thousand gets within the leaf leave the cache as one get did.
        let before = ds.io_stats();
        for round in 0..1000 {
            let key = 120 + round % 8;
            assert!(ds.lookup(&Value::Int(key), None).unwrap().is_some());
        }
        let io = ds.io_stats();
        assert_eq!(
            io.records_assembled - before.records_assembled,
            1000,
            "{layout:?}"
        );
        assert_eq!(io.pages_read, before.pages_read, "{layout:?}");
        assert_eq!(
            (cache.resident_bytes(), cache.resident_leaves()),
            resident,
            "{layout:?}: reading must not grow the cache"
        );

        // An upsert's maintenance lookup needs the indexed path only: the
        // resident all-columns leaf serves it — nothing is decoded, nothing
        // is cached beside it, one narrow record is assembled.
        let before = ds.io_stats();
        ds.insert(record(123, 2)).unwrap();
        let io = ds.io_stats();
        assert_eq!(ds.stats().maintenance_lookups, 1, "{layout:?}");
        assert_eq!(
            io.records_assembled - before.records_assembled,
            1,
            "{layout:?}"
        );
        assert_eq!(io.pages_read, before.pages_read, "{layout:?}");
        assert_eq!(io.leaf_cache_misses, before.leaf_cache_misses, "{layout:?}");
        assert_eq!(cache.resident_leaves(), resident.1, "{layout:?}");

        // And the index moved with the record: old entry out, new entry in.
        let num = |key: i64, version: i64| Value::Int(key * 10 + version);
        let old = ds
            .secondary_range_entries(Included(&num(123, 1)), Included(&num(123, 1)), None)
            .unwrap();
        assert!(old.is_empty(), "{layout:?}: stale index entry {old:?}");
        let new = ds
            .secondary_range_entries(Included(&num(123, 2)), Included(&num(123, 2)), None)
            .unwrap();
        assert_eq!(new, vec![(Value::Int(123), record(123, 2))], "{layout:?}");
    }
}

#[test]
fn cold_maintenance_lookup_decodes_only_the_indexed_column() {
    // With nothing resident, the maintenance lookup of an AMAX dataset reads
    // Page 0 and the one mega-column it needs — fewer pages than a get.
    let wide = |key: i64| {
        let mut doc = record(key, 3);
        for field in 0..12 {
            let pad = testkit::incompressible((key << 4) as u64 + field, 600);
            doc.set_field(format!("pad{field}"), Value::from(pad));
        }
        doc
    };
    let pages_for = |upsert: bool| {
        let cache = Arc::new(LeafCache::new(32 << 20));
        let ds = LsmDataset::new(indexed_config(LayoutKind::Amax, &cache));
        for key in 0..48 {
            ds.insert(wide(key)).unwrap();
        }
        ds.flush().unwrap();
        ds.cache().clear();
        cache.clear();
        let before = ds.io_stats();
        if upsert {
            ds.insert(wide(7)).unwrap();
        } else {
            assert!(ds.lookup(&Value::Int(7), None).unwrap().is_some());
        }
        ds.io_stats().pages_read - before.pages_read
    };
    let (narrow, full) = (pages_for(true), pages_for(false));
    assert!(narrow >= 1, "the maintenance lookup reads the leaf");
    assert!(
        narrow < full,
        "maintenance lookup read {narrow} pages, a full get {full}"
    );
}

/// Writers keep rewriting the probed keys while a reader probes the index.
/// Key classes, all inside the probed `num` range unless stated:
///
/// * *steady* keys are upserted with an ever larger `nested.version` (their
///   `num` never changes);
/// * *moving* keys hop between two `num` values inside the range, so the
///   index entry the probe found and the record it fetches must agree;
/// * *leaving* keys hop between a `num` inside the range and one outside;
/// * *flickering* keys are deleted and re-inserted.
///
/// Whatever the interleaving, a probe is a view of one instant: every
/// returned record lies inside the range it was probed with, steady and
/// moving keys are all present, no key's version goes backwards between
/// two probes, and the count is what those classes allow.
#[test]
fn index_probes_racing_upserts_see_one_instant() {
    const STEADY: i64 = 40;
    const MOVING: i64 = 20;
    const LEAVING: i64 = 10;
    const FLICKERING: i64 = 10;
    const KEYS: i64 = STEADY + MOVING + LEAVING + FLICKERING;
    #[cfg(debug_assertions)]
    const ROUNDS: i64 = 60;
    #[cfg(not(debug_assertions))]
    const ROUNDS: i64 = 400;
    const OUTSIDE: i64 = 1_000_000;

    // `num` as a function of (key, version); the probe range is [0, 10 * KEYS).
    fn num_of(key: i64, version: i64) -> i64 {
        if key < STEADY {
            key * 10
        } else if key < STEADY + MOVING {
            key * 10 + version % 2
        } else if key < STEADY + MOVING + LEAVING {
            if version % 2 == 0 {
                key * 10
            } else {
                OUTSIDE + key
            }
        } else {
            key * 10
        }
    }
    fn versioned(key: i64, version: i64) -> Value {
        doc!({
            "id": key,
            "num": (num_of(key, version)),
            "nested": {"version": version},
            "body": (format!("{key}@{version} {}", "pad".repeat((version % 5) as usize)))
        })
    }

    for layout in [LayoutKind::Vb, LayoutKind::Amax] {
        let pool = WorkerPool::new(1);
        let cache = Arc::new(LeafCache::new(32 << 20));
        let mut config = DatasetConfig::new("probe-race", layout)
            .with_memtable_budget(6 * 1024)
            .with_page_size(4 * 1024)
            .with_secondary_index(Path::parse("num"))
            .with_leaf_cache(cache)
            .with_pool(pool.handle())
            .with_max_sealed(2);
        config.amax.record_limit = 32;
        let ds = LsmDataset::new(config);
        for key in 0..KEYS {
            ds.insert(versioned(key, 0)).unwrap();
        }
        ds.flush().unwrap();

        let done = AtomicBool::new(false);
        let start = Barrier::new(3);
        let (lo, hi) = (Value::Int(0), Value::Int(10 * KEYS - 1));
        std::thread::scope(|scope| {
            // Two writers over disjoint halves of every class, so a key's
            // versions are written by one thread, in order.
            let writers: Vec<_> = (0..2)
                .map(|half| {
                    let (ds, start) = (&ds, &start);
                    scope.spawn(move || {
                        start.wait();
                        for version in 1..=ROUNDS {
                            for key in (0..KEYS).filter(|k| k % 2 == half) {
                                if key >= KEYS - FLICKERING && version % 2 == 1 {
                                    ds.delete(Value::Int(key)).unwrap();
                                } else {
                                    ds.insert(versioned(key, version)).unwrap();
                                }
                            }
                        }
                    })
                })
                .collect();
            let reader = scope.spawn(|| {
                start.wait();
                let mut seen: BTreeMap<i64, i64> = BTreeMap::new();
                let mut probes = 0u64;
                // At least a few probes after the writers are done, too.
                let mut after_done = 0;
                while after_done < 3 {
                    if done.load(Ordering::Acquire) {
                        after_done += 1;
                    }
                    let entries = ds
                        .secondary_range_entries(Included(&lo), Included(&hi), None)
                        .unwrap();
                    probes += 1;
                    let mut present = 0;
                    let mut previous = None;
                    for (key, doc) in &entries {
                        let key = key.as_int().unwrap();
                        assert!(previous < Some(key), "{layout:?}: keys ascend, each once");
                        previous = Some(key);
                        let version = doc
                            .get_path_str("nested.version")
                            .unwrap()
                            .as_int()
                            .unwrap();
                        assert_eq!(doc, &versioned(key, version), "{layout:?}: a torn record");
                        let num = doc.get_field("num").unwrap().as_int().unwrap();
                        assert!(
                            (0..10 * KEYS).contains(&num),
                            "{layout:?}: key {key}@{version} has num {num}, outside the probe"
                        );
                        let last = seen.insert(key, version).unwrap_or(0);
                        assert!(
                            version >= last,
                            "{layout:?}: key {key} went {last} -> {version}"
                        );
                        if key < STEADY + MOVING {
                            present += 1;
                        }
                    }
                    assert_eq!(
                        present,
                        STEADY + MOVING,
                        "{layout:?}: a rewritten key vanished"
                    );
                    assert!(entries.len() as i64 <= KEYS, "{layout:?}");
                }
                probes
            });
            for writer in writers {
                writer.join().unwrap();
            }
            done.store(true, Ordering::Release);
            assert!(reader.join().unwrap() >= 3);
        });

        // Quiesced: the probe equals the final state exactly.
        ds.flush().unwrap();
        let entries = ds
            .secondary_range_entries(Included(&lo), Included(&hi), None)
            .unwrap();
        let expected: Vec<(Value, Value)> = (0..KEYS)
            .filter(|key| num_of(*key, ROUNDS) < OUTSIDE)
            .map(|key| (Value::Int(key), versioned(key, ROUNDS)))
            .collect();
        assert_eq!(
            ROUNDS % 2,
            0,
            "the last round re-inserts the flickering keys"
        );
        assert_eq!(entries, expected, "{layout:?}");
    }
}
