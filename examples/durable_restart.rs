//! Durable restart: ingest into a directory-backed dataset, "crash" (drop it
//! without flushing), and recover everything on reopen.
//!
//! ```text
//! cargo run --release --example durable_restart
//! ```
//!
//! The dataset directory holds files managed by the `persist` crate:
//! `pages.dat` (file-backed component pages), `wal-NNNNNN.log` (segments of
//! the CRC-framed write-ahead log) and `MANIFEST` (versioned component lineage + the
//! inferred schema). Acknowledged writes survive a restart whether or not
//! they were flushed: flushed records come back from components listed in
//! the manifest, unflushed ones from WAL replay.

use lsm_columnar::lsm::{DatasetConfig, LsmDataset};
use lsm_columnar::query::{ExecMode, Query, QueryEngine};
use lsm_columnar::storage::LayoutKind;
use lsm_columnar::{doc, Value};

fn main() {
    let dir = std::env::temp_dir().join(format!("durable-restart-example-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    let config = || {
        DatasetConfig::new("sensor_log", LayoutKind::Amax)
            .with_memtable_budget(64 * 1024)
            .with_page_size(16 * 1024)
    };

    // --- Session 1: ingest, flush some, leave the tail in the WAL ---------
    println!("session 1: ingesting into {}", dir.display());
    {
        let ds = LsmDataset::open(&dir, config()).expect("open dataset directory");
        for i in 0..2_000i64 {
            ds.insert(doc!({
                "id": i,
                "sensor": (i % 25),
                "reading": {"temp": ((i % 400) as f64 / 10.0), "ok": (i % 7 != 0)},
                "ts": (1_700_000_000_000i64 + i)
            }))
            .expect("insert");
        }
        ds.flush().expect("flush");
        println!(
            "  flushed: {} components, manifest v{}, WAL {} bytes",
            ds.component_count(),
            ds.manifest_version(),
            ds.wal_bytes()
        );

        // More writes after the flush — these stay in the WAL only.
        for i in 2_000..2_500i64 {
            ds.insert(doc!({"id": i, "sensor": (i % 25), "late": true})).expect("insert");
        }
        ds.delete(Value::Int(0)).expect("delete");
        ds.delete(Value::Int(1_999)).expect("delete");
        ds.sync().expect("sync WAL");
        println!(
            "  unflushed tail: 500 inserts + 2 deletes in {} WAL bytes",
            ds.wal_bytes()
        );
        // The dataset is dropped here WITHOUT flushing — a "crash".
    }

    // --- Session 2: reopen from the directory alone -----------------------
    println!("session 2: recovering from {}", dir.display());
    let ds = LsmDataset::reopen(&dir, |_| None).expect("reopen from manifest + WAL");
    let live = ds.count().expect("count");
    println!(
        "  recovered {live} live records ({} components, manifest v{})",
        ds.component_count(),
        ds.manifest_version()
    );
    assert_eq!(live, 2_498, "2500 inserts minus 2 deletes");
    assert!(ds.lookup(&Value::Int(0), None).expect("lookup").is_none());
    let late = ds.lookup(&Value::Int(2_100), None).expect("lookup").expect("recovered");
    assert_eq!(late.get_field("late"), Some(&Value::Bool(true)));

    // Queries run against the recovered dataset as if nothing happened.
    let per_sensor = QueryEngine::new(ExecMode::Compiled)
        .execute(&ds, &Query::count_star().group_by("sensor").top_k(3))
        .expect("query");
    println!("  top sensors by record count:");
    for row in per_sensor {
        println!("    sensor {:?}: {:?} records", row.group, row.agg());
    }

    // The schema inferred before the crash survived too.
    assert!(ds.schema().describe().contains("reading"));
    println!("  inferred schema intact ({} columns)", schema::columns_of(&ds.schema()).len());

    let _ = std::fs::remove_dir_all(&dir);
    println!("done: every acknowledged write survived the restart");
}
