//! Metrics tour: the telemetry subsystem end to end — metrics snapshots,
//! health, lifecycle events, and EXPLAIN ANALYZE.
//!
//! ```text
//! cargo run --release --example metrics_tour
//! ```

use lsm_columnar::docstore::{Datastore, DatasetOptions, Layout};
use lsm_columnar::query::{ExecMode, Expr, Query};
use lsm_columnar::{doc, Value};

fn main() {
    let mut store = Datastore::new();
    store
        .create_dataset(
            "events",
            DatasetOptions::new(Layout::Amax)
                .key("id")
                .memtable_budget(32 * 1024)
                .page_size(8 * 1024)
                .shards(2),
        )
        .expect("create dataset");

    let events = store.dataset("events").expect("dataset");
    for i in 0..500i64 {
        events
            .insert(doc!({
                "id": i,
                "kind": (format!("k{}", i % 4)),
                "size": (i % 100),
                "note": (format!("event number {i} with some payload text"))
            }))
            .expect("ingest");
    }
    events.flush().expect("flush");
    events.delete(Value::Int(13)).expect("delete");
    events.compact().expect("compact");

    // -- Metrics snapshot ---------------------------------------------------
    // Counters and histograms from the registry, sampled storage.* I/O
    // counters, current-state gauges (lsm.*, wal.*) and the derived
    // amplification gauges — merged across both shards.
    let metrics = events.metrics();
    println!("== metrics (text) ==\n{}", metrics.to_text());

    // Individual values are addressable by name; the amp gauges are always
    // recomputable from the raw counters in the same snapshot.
    println!(
        "flushed {} times, write amplification {:.2}x",
        metrics.counter("flush.count"),
        metrics.gauge("amp.write").unwrap_or(f64::NAN),
    );
    let p95 = metrics
        .histogram("flush.duration_micros")
        .map(|h| h.p95())
        .unwrap_or(0);
    println!("flush p95 <= {p95}us");

    // The same snapshot exports as JSON for scraping.
    println!("\n== metrics (json, truncated) ==");
    let json = metrics.to_json();
    println!("{}...", &json[..json.len().min(200)]);

    // -- Health -------------------------------------------------------------
    // Per-shard worker state, last background error, pending maintenance.
    println!("\n== health ==");
    for (dataset, shards) in store.health() {
        for (i, h) in shards.iter().enumerate() {
            println!(
                "{dataset}/shard{i}: worker {:?}, pending {}, stalls {}, last error {:?}",
                h.worker, h.pending_maintenance, h.stalls, h.last_error
            );
        }
    }

    // -- Lifecycle events ---------------------------------------------------
    // The bounded in-memory flight recorder: flushes, merges, WAL and
    // manifest activity, recovery summaries, worker errors.
    println!("\n== recent events ==");
    for (shard, event) in events.recent_events(8) {
        println!("shard{shard} #{:<3} {}", event.seq, event.kind.describe());
    }

    // -- EXPLAIN ANALYZE ----------------------------------------------------
    // Runs the query for real and annotates the plan with actual counters:
    // rows pulled, pages read (I/O deltas), the lane that took them, leaves
    // the zone maps hid, and the early-termination point of limited queries.
    let q = Query::select_paths(["kind", "size"])
        .with_filter(Expr::ge("size", 10))
        .order_by_key()
        .with_limit(5);
    let report = events
        .explain_analyze(&q, ExecMode::Compiled)
        .expect("explain analyze");
    println!("\n== explain analyze ==\n{}", report.describe());
    println!("result rows: {}", report.rows.len());
}
