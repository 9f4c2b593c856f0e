//! Concurrency stress tests: N writer threads and M reader threads against
//! one dataset with background flush/merge workers.
//!
//! The invariants checked:
//!
//! * every acknowledged record (insert returned `Ok` before a snapshot was
//!   taken) is readable from that snapshot;
//! * snapshots are internally consistent (scan length equals COUNT(*), keys
//!   come back sorted and unique) and *stable* — re-reading a snapshot after
//!   more flushes/merges returns the same answer;
//! * the final state equals a single-threaded oracle run of the same
//!   operations (writers own disjoint key ranges, so any interleaving must
//!   converge to the same reconciled state);
//! * backpressure bounds the sealed-memtable queue instead of letting
//!   ingestion outrun the flush workers.

use std::sync::{mpsc, Arc, Mutex};
use std::time::Duration;

use docmodel::{doc, total_cmp, Value};
use lsm::{DatasetConfig, LsmDataset};
use storage::LayoutKind;
use testkit::{bg_config, TempDir};

const WRITERS: usize = 4;
/// Unoptimized builds run a reduced workload so the tier-1 `cargo test`
/// stays fast; CI additionally runs this suite in `--release` at full scale.
#[cfg(debug_assertions)]
const RECORDS_PER_WRITER: i64 = 60;
#[cfg(not(debug_assertions))]
const RECORDS_PER_WRITER: i64 = 300;
#[cfg(debug_assertions)]
const READER_ROUNDS: usize = 5;
#[cfg(not(debug_assertions))]
const READER_ROUNDS: usize = 20;
/// Writers use disjoint key ranges: writer `w` owns `w*STRIDE ..`.
const STRIDE: i64 = 1_000_000;

fn record(key: i64, body: &str) -> Value {
    doc!({
        "id": key,
        "body": (body.to_string()),
        "num": (key % 977),
        "nested": {"tag": (format!("t{}", key % 13))}
    })
}

/// The deterministic per-writer script: insert every key, update every third
/// key, delete every tenth. Returns the ops in program order.
enum Op {
    Insert(i64, String),
    Delete(i64),
}

fn writer_script(writer: usize) -> Vec<Op> {
    let base = writer as i64 * STRIDE;
    let mut ops = Vec::new();
    for i in 0..RECORDS_PER_WRITER {
        ops.push(Op::Insert(base + i, format!("v1 of {i}")));
    }
    for i in (0..RECORDS_PER_WRITER).step_by(3) {
        ops.push(Op::Insert(base + i, format!("v2 of {i}")));
    }
    for i in (0..RECORDS_PER_WRITER).step_by(10) {
        ops.push(Op::Delete(base + i));
    }
    ops
}

fn apply_script(ds: &LsmDataset, writer: usize) {
    for op in writer_script(writer) {
        match op {
            Op::Insert(key, body) => ds.insert(record(key, &body)).unwrap(),
            Op::Delete(key) => ds.delete(Value::Int(key)).unwrap(),
        }
    }
}

/// Single-threaded oracle of the final state for `WRITERS` writers.
fn oracle() -> LsmDataset {
    let ds = LsmDataset::new(
        DatasetConfig::new("oracle", LayoutKind::Amax)
            .with_memtable_budget(8 * 1024)
            .with_page_size(4 * 1024),
    );
    for w in 0..WRITERS {
        apply_script(&ds, w);
    }
    ds.flush().unwrap();
    ds
}

#[test]
fn concurrent_writers_converge_to_the_oracle_state() {
    for layout in [LayoutKind::Vb, LayoutKind::Amax] {
        let ds = LsmDataset::new(bg_config("concurrency", layout));
        std::thread::scope(|scope| {
            for w in 0..WRITERS {
                let ds = &ds;
                scope.spawn(move || apply_script(ds, w));
            }
        });
        ds.flush().unwrap();

        let expected = oracle().scan(None).unwrap();
        let got = ds.scan(None).unwrap();
        assert_eq!(got.len(), expected.len(), "{layout:?}");
        assert_eq!(
            got, expected,
            "{layout:?}: concurrent run must equal the oracle"
        );
        assert!(
            ds.stats().flushes > 1,
            "{layout:?}: background flushes must have happened"
        );
    }
}

#[test]
fn acknowledged_records_are_visible_to_readers() {
    let ds = LsmDataset::new(bg_config("concurrency", LayoutKind::Amax));
    // Keys are pushed here *after* their insert was acknowledged.
    let acked: Mutex<Vec<i64>> = Mutex::new(Vec::new());

    std::thread::scope(|scope| {
        for w in 0..WRITERS {
            let ds = &ds;
            let acked = &acked;
            scope.spawn(move || {
                let base = w as i64 * STRIDE;
                for i in 0..RECORDS_PER_WRITER {
                    let key = base + i;
                    ds.insert(record(key, "ack-test")).unwrap();
                    acked.lock().unwrap().push(key);
                }
            });
        }
        // Readers: everything acknowledged before the snapshot must be in it.
        for _ in 0..2 {
            let ds = &ds;
            let acked = &acked;
            scope.spawn(move || {
                for _ in 0..READER_ROUNDS {
                    let visible_before: Vec<i64> = acked.lock().unwrap().clone();
                    let snapshot = ds.snapshot();
                    for &key in &visible_before {
                        assert!(
                            snapshot.lookup(&Value::Int(key), None).unwrap().is_some(),
                            "acknowledged key {key} missing from snapshot"
                        );
                    }
                    std::thread::yield_now();
                }
            });
        }
    });
    ds.flush().unwrap();
    assert_eq!(ds.count().unwrap(), WRITERS * RECORDS_PER_WRITER as usize);
}

#[test]
fn snapshots_are_internally_consistent_and_stable_under_churn() {
    let ds = LsmDataset::new(bg_config("concurrency", LayoutKind::Amax));
    std::thread::scope(|scope| {
        for w in 0..WRITERS {
            let ds = &ds;
            scope.spawn(move || apply_script(ds, w));
        }
        for _ in 0..2 {
            let ds = &ds;
            scope.spawn(move || {
                for _ in 0..READER_ROUNDS {
                    let snapshot = ds.snapshot();
                    let count = snapshot.cursor(Some(&[])).unwrap().count();
                    let docs = snapshot
                        .cursor(None)
                        .unwrap()
                        .map(|e| e.unwrap().1)
                        .collect::<Vec<_>>();
                    // Scan and COUNT(*) agree on the same snapshot.
                    assert_eq!(docs.len(), count);
                    // Keys are sorted and unique (reconciliation worked).
                    for pair in docs.windows(2) {
                        let a = pair[0].get_field("id").unwrap();
                        let b = pair[1].get_field("id").unwrap();
                        assert_eq!(total_cmp(a, b), std::cmp::Ordering::Less);
                    }
                    // Stability: the same snapshot answers the same later,
                    // despite flushes/merges retiring components meanwhile.
                    assert_eq!(snapshot.cursor(Some(&[])).unwrap().count(), count);
                    std::thread::yield_now();
                }
            });
        }
    });
    ds.flush().unwrap();
    let expected = oracle().scan(None).unwrap();
    assert_eq!(ds.scan(None).unwrap(), expected);
}

#[test]
fn a_snapshot_survives_full_compaction() {
    let n = RECORDS_PER_WRITER; // scale with the profile
    let ds = LsmDataset::new(bg_config("concurrency", LayoutKind::Amax));
    for i in 0..n {
        ds.insert(record(i, "before")).unwrap();
    }
    ds.flush().unwrap();
    let snapshot = ds.snapshot();
    let before = snapshot
        .cursor(None)
        .unwrap()
        .map(|e| e.unwrap().1)
        .collect::<Vec<_>>();

    // Churn: more data, deletes, then compact everything to one component.
    for i in n..2 * n {
        ds.insert(record(i, "after")).unwrap();
    }
    for i in 0..n / 4 {
        ds.delete(Value::Int(i)).unwrap();
    }
    ds.compact_fully().unwrap();
    assert_eq!(ds.component_count(), 1);

    // The old snapshot still reads the retired components' pages.
    assert_eq!(
        snapshot
            .cursor(None)
            .unwrap()
            .map(|e| e.unwrap().1)
            .collect::<Vec<_>>(),
        before
    );
    assert_eq!(snapshot.cursor(Some(&[])).unwrap().count(), n as usize);
    assert_eq!(ds.count().unwrap(), (2 * n - n / 4) as usize);
}

#[test]
fn backpressure_bounds_the_sealed_queue() {
    let max_sealed = 2;
    let ds = LsmDataset::new(bg_config("concurrency", LayoutKind::Vb).with_max_sealed(max_sealed));
    std::thread::scope(|scope| {
        for w in 0..WRITERS {
            let ds = &ds;
            scope.spawn(move || {
                let base = w as i64 * STRIDE;
                for i in 0..RECORDS_PER_WRITER {
                    ds.insert(record(base + i, "backpressure")).unwrap();
                }
            });
        }
        let ds = &ds;
        scope.spawn(move || {
            for _ in 0..READER_ROUNDS * 2 {
                // Each writer can overshoot the gate by at most one seal.
                assert!(
                    ds.sealed_count() <= max_sealed + WRITERS,
                    "sealed queue exceeded the backpressure bound"
                );
                std::thread::yield_now();
            }
        });
    });
    ds.flush().unwrap();
    assert_eq!(ds.count().unwrap(), WRITERS * RECORDS_PER_WRITER as usize);
    assert!(ds.stats().flushes > 1);
}

/// Writers seal memtables while background flush rounds retire them and a
/// flusher drains: the scheduler's sealed count is published with the tree
/// that holds the memtables, so no flush can retire a seal before it is
/// counted, every `flush()` returns and nothing is left pending. (A count
/// kept beside the tree could end one too high for good; writers then
/// waited at the backpressure gate and `flush()` for a memtable that no
/// longer existed.) The race runs on its own thread, joined once it reports
/// back, so a hang fails the test after a minute instead of stalling the
/// suite. It races; it does not force the interleaving, so it does not fail
/// every time the count is kept wrong.
#[test]
fn racing_seals_leave_no_phantom_pending_maintenance() {
    let ds = Arc::new(LsmDataset::new(
        bg_config("concurrency", LayoutKind::Vb).with_max_sealed(1),
    ));
    let (done, settled) = mpsc::channel();
    let race = Arc::clone(&ds);
    let racer = std::thread::spawn(move || {
        let ds = &*race;
        std::thread::scope(|scope| {
            for w in 0..WRITERS {
                scope.spawn(move || {
                    let base = w as i64 * STRIDE;
                    for i in 0..RECORDS_PER_WRITER {
                        ds.insert(record(base + i, "racing seals")).unwrap();
                    }
                });
            }
            scope.spawn(move || {
                for _ in 0..READER_ROUNDS {
                    ds.flush().unwrap();
                }
            });
        });
        ds.flush().unwrap();
        done.send(()).unwrap();
    });
    let raced = settled.recv_timeout(Duration::from_secs(60));
    raced.expect("the race never settled: a writer or flush() is waiting for good");
    racer.join().expect("the race thread panicked");
    assert_eq!(ds.health().pending_maintenance, 0);
    assert_eq!(ds.count().unwrap(), WRITERS * RECORDS_PER_WRITER as usize);
}

#[test]
fn durable_concurrent_ingest_recovers_after_restart() {
    let dir = TempDir::new("lsm-concurrency-tests", "durable-restart");
    {
        let ds = LsmDataset::open(&dir, bg_config("concurrency", LayoutKind::Amax)).unwrap();
        std::thread::scope(|scope| {
            for w in 0..WRITERS {
                let ds = &ds;
                scope.spawn(move || apply_script(ds, w));
            }
        });
        ds.flush().unwrap();
    }
    let ds = LsmDataset::reopen(&dir, |_| None).unwrap();
    let expected = oracle().scan(None).unwrap();
    assert_eq!(
        ds.scan(None).unwrap(),
        expected,
        "recovered state must equal the oracle"
    );
}
