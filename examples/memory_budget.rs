//! Memory budget: one knob bounds memtables, page caches, and the shared
//! decoded-leaf cache — and a warm re-scan reads zero pages.
//!
//! ```text
//! cargo run --release --example memory_budget
//! ```
//!
//! `DatasetOptions::memory_budget(bytes)` puts the decoded-leaf cache shared
//! by every shard, the page buffer caches and the memtables under one
//! budget (its docs describe the split) and survives a reopen with the same
//! caching behaviour. `EXPLAIN ANALYZE` reports the exact hits and misses
//! of a run, and `io_stats()` the dataset's running totals.

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
                .page_size(8 * 1024)
                .shards(2)
                // 16 MiB total: 8 MiB shared leaf cache, 4 MiB page
                // caches, 4 MiB memtables (each split across the shards).
                .memory_budget(16 << 20),
        )
        .expect("create dataset");

    let docs: Vec<Value> = (0..2_000i64)
        .map(|i| doc!({"id": i, "severity": (i % 7), "service": (format!("svc-{}", i % 13))}))
        .collect();
    let ds = store.dataset("events").expect("dataset");
    ds.ingest_batch(docs, 0).expect("ingest");
    ds.flush().expect("flush");

    let cache = ds.leaf_cache().expect("a budget configures the shared cache");
    println!("leaf-cache capacity: {} KiB\n", cache.capacity_bytes() >> 10);

    // Cold scan: every leaf is decoded from pages and cached.
    let q = Query::count_star().with_filter(Expr::ge("severity", 0));
    let cold = ds.explain_analyze(&q, ExecMode::Compiled).expect("cold run");
    println!(
        "cold : {} rows, {} pages read, cache {} hits / {} misses",
        cold.rows[0].agg(),
        cold.pages_read(),
        cold.cache_hits(),
        cold.cache_misses(),
    );

    // Warm re-scan: every leaf is served from the cache — zero page reads,
    // hits equal to the leaves the cold scan decoded.
    let warm = ds.explain_analyze(&q, ExecMode::Compiled).expect("warm run");
    println!(
        "warm : {} rows, {} pages read, cache {} hits / {} misses",
        warm.rows[0].agg(),
        warm.pages_read(),
        warm.cache_hits(),
        warm.cache_misses(),
    );
    assert_eq!(warm.pages_read(), 0);
    assert_eq!(warm.cache_hits(), cold.cache_misses());

    // The cache's residency, and the traffic the readers counted in the
    // I/O stats; both also surface in the metrics snapshot (per-shard
    // cache.* counters plus one set of global gauges).
    let stats = cache.stats();
    let io = ds.io_stats();
    println!(
        "\ncache: {} leaves / {} KiB resident (budget {} KiB), {} hits, {} misses, {} evictions",
        stats.resident_leaves,
        stats.resident_bytes >> 10,
        stats.capacity_bytes >> 10,
        io.leaf_cache_hits,
        io.leaf_cache_misses,
        io.leaf_cache_evictions,
    );
}
