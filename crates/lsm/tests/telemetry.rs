//! Telemetry integration tests: lifecycle events and metrics counters
//! emitted by the dataset, backpressure stall accounting, and worker health
//! reporting around injected background failures.

use std::time::Duration;

use docmodel::Value;
use lsm::{CompactionSpec, CrashPoint, DatasetConfig, LsmDataset, WorkerPool, WorkerState};
use storage::LayoutKind;
use telemetry::EventKind;
use testkit::{sample_record, tiny_config, TempDir};

fn temp_dir(name: &str) -> TempDir {
    TempDir::new("lsm-telemetry-tests", name)
}

#[test]
fn flush_and_merge_emit_events_and_metrics() {
    let ds = LsmDataset::new(tiny_config("events", LayoutKind::Amax));
    for i in 0..120 {
        ds.insert(sample_record(i)).unwrap();
    }
    for i in [3i64, 7, 11] {
        ds.delete(Value::Int(i)).unwrap();
    }
    ds.flush().unwrap();
    assert!(ds.stats().flushes >= 2, "tiny budget must flush repeatedly");
    ds.compact_fully().unwrap();
    assert_eq!(ds.component_count(), 1);
    let _ = ds.snapshot();

    let metrics = ds.metrics();
    assert_eq!(metrics.counter("ingest.records"), 120);
    assert_eq!(metrics.counter("ingest.deletes"), 3);
    assert!(metrics.counter("ingest.bytes") > 0);
    assert!(metrics.counter("flush.count") >= 2);
    assert!(metrics.counter("flush.pages_out") > 0);
    assert_eq!(
        metrics.counter("flush.entries_in"),
        123,
        "120 upserts + 3 anti-matter"
    );
    assert!(metrics.counter("merge.count") >= 1);
    assert!(metrics.counter("merge.pages_in") > 0);
    assert!(metrics.counter("merge.pages_out") > 0);
    assert!(metrics.counter("snapshot.count") >= 1);

    // Histogram counts line up with the counters they time.
    let flush_hist = metrics.histogram("flush.duration_micros").unwrap();
    assert_eq!(flush_hist.count, metrics.counter("flush.count"));
    let merge_hist = metrics.histogram("merge.duration_micros").unwrap();
    assert_eq!(merge_hist.count, metrics.counter("merge.count"));

    // Sampled storage counters and current-state gauges are present.
    let io = ds.io_stats();
    assert_eq!(metrics.counter("storage.pages_written"), io.pages_written);
    assert_eq!(metrics.gauge("lsm.components"), Some(1.0));

    // The amplification gauges are exactly recomputable from the raw
    // counters in the same snapshot — consumers never need a second source.
    let write_amp = metrics.gauge("amp.write").expect("write amp present");
    let expected =
        metrics.counter("storage.bytes_written") as f64 / metrics.counter("ingest.bytes") as f64;
    assert!(
        (write_amp - expected).abs() < 1e-9,
        "{write_amp} vs {expected}"
    );
    assert!(write_amp > 0.0);
    let read_amp = metrics.gauge("amp.read").expect("read amp present");
    let expected =
        metrics.counter("storage.bytes_read") as f64 / metrics.counter("ingest.bytes") as f64;
    assert!(
        (read_amp - expected).abs() < 1e-9,
        "{read_amp} vs {expected}"
    );
    let space_amp = metrics.gauge("amp.space").expect("space amp present");
    let expected = metrics.gauge("storage.allocated_bytes").unwrap()
        / metrics.gauge("lsm.live_stored_bytes").unwrap();
    assert!(
        (space_amp - expected).abs() < 1e-9,
        "{space_amp} vs {expected}"
    );

    // The event ring holds paired begin/end lifecycle events.
    let events = ds.recent_events(256);
    let count_of = |label: &str| events.iter().filter(|e| e.kind.label() == label).count();
    assert_eq!(count_of("flush_begin"), count_of("flush_end"));
    assert_eq!(count_of("flush_end") as u64, metrics.counter("flush.count"));
    assert_eq!(count_of("merge_begin"), count_of("merge_end"));
    assert!(count_of("merge_end") >= 1);
    // Events arrive oldest-first with dense, increasing sequence numbers.
    for pair in events.windows(2) {
        assert!(pair[0].seq < pair[1].seq);
    }
    // The merge-end payload names real input components and page counts.
    let merge_end = events
        .iter()
        .rev()
        .find_map(|e| match &e.kind {
            EventKind::MergeEnd {
                inputs,
                pages_in,
                pages_out,
                ..
            } => Some((inputs.clone(), *pages_in, *pages_out)),
            _ => None,
        })
        .expect("a merge_end event");
    assert!(merge_end.0.len() >= 2, "merged at least two components");
    assert!(merge_end.1 > 0 && merge_end.2 > 0);

    // Both export formats carry the counters.
    let text = metrics.to_text();
    assert!(
        text.lines()
            .any(|l| l.starts_with("ingest.records") && l.ends_with("120")),
        "{text}"
    );
    let json = metrics.to_json();
    assert!(json.contains("\"ingest.records\": 120"), "{json}");
    assert!(json.contains("\"amp.write\""), "{json}");
}

#[test]
fn disabled_telemetry_records_nothing_but_dataset_works() {
    let ds = LsmDataset::new(tiny_config("disabled", LayoutKind::Amax).with_telemetry(false));
    for i in 0..120 {
        ds.insert(sample_record(i)).unwrap();
    }
    ds.flush().unwrap();
    ds.compact_fully().unwrap();
    assert_eq!(ds.count().unwrap(), 120);

    assert!(!ds.telemetry().enabled());
    assert!(ds.recent_events(256).is_empty(), "no events when disabled");
    let metrics = ds.metrics();
    assert_eq!(metrics.counter("ingest.records"), 0);
    assert_eq!(metrics.counter("flush.count"), 0);
    // Current-state gauges are still sampled — they cost nothing per write.
    assert_eq!(metrics.gauge("lsm.components"), Some(1.0));
}

/// Backpressure: with a one-deep sealed queue and a background worker, a
/// fast writer must eventually block in `admit` while a flush is in flight,
/// and that stall is counted with its duration.
#[test]
fn backpressure_stalls_are_counted() {
    let pool = WorkerPool::new(1);
    let config = DatasetConfig::new("stalls", LayoutKind::Vb)
        .with_memtable_budget(4 * 1024)
        .with_page_size(4 * 1024)
        .with_pool(pool.handle())
        .with_max_sealed(1);
    let ds = LsmDataset::new(config);

    // Insert until a stall has been recorded (bounded so a regression fails
    // rather than hangs). Every seal beyond the first forces the writer to
    // wait for the in-flight flush with a queue bound of one.
    let mut i = 0i64;
    while ds.telemetry().stalls.get() == 0 {
        assert!(i < 200_000, "no backpressure stall after {i} inserts");
        ds.insert(sample_record(i)).unwrap();
        i += 1;
    }
    ds.flush().unwrap();

    let metrics = ds.metrics();
    assert!(metrics.counter("backpressure.stalls") >= 1);
    assert!(
        metrics.counter("backpressure.stall_micros") > 0,
        "a stall implies non-zero waiting time"
    );
    let health = ds.health();
    assert_eq!(health.stalls, metrics.counter("backpressure.stalls"));
    assert_eq!(
        health.stall_micros,
        metrics.counter("backpressure.stall_micros")
    );
    assert_eq!(ds.count().unwrap(), i as usize);
}

/// A background worker failure must be visible through `health()` (which
/// never consumes the parked error) before — and independently of — the
/// write path observing it.
#[test]
fn worker_error_shows_in_health_before_writes_observe_it() {
    let dir = temp_dir("worker-health");
    let pool = WorkerPool::new(1);
    let config = tiny_config("health", LayoutKind::Amax)
        .with_pool(pool.handle())
        .with_max_sealed(4);
    let ds = LsmDataset::open(&dir, config).unwrap();
    ds.set_crash_point(CrashPoint::AfterFlushComponentWrite);

    // Healthy to start.
    let healthy = ds.health();
    assert_eq!(healthy.worker, WorkerState::Idle);
    assert!(healthy.last_error.is_none());

    // Enough inserts to seal a memtable; the background flush then trips the
    // crash point. The inserts themselves are acknowledged.
    for i in 0..120 {
        if ds.insert(sample_record(i)).is_err() {
            break; // the parked failure can surface here too — that's fine
        }
    }

    // Poll health (read-only) until the failure is parked.
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    let health = loop {
        let h = ds.health();
        if h.worker == WorkerState::Failed {
            break h;
        }
        assert!(std::time::Instant::now() < deadline, "worker never failed");
        std::thread::sleep(Duration::from_millis(2));
    };
    let message = health.last_error.expect("failed worker reports its error");
    assert!(message.contains("injected crash"), "{message}");

    // Health is non-consuming: a second read still shows the failure, and
    // the event ring recorded it too.
    assert_eq!(ds.health().worker, WorkerState::Failed);
    assert!(ds
        .recent_events(256)
        .iter()
        .any(|e| matches!(&e.kind, EventKind::WorkerError { message } if message.contains("injected crash"))));

    // Only now does a write observe (without consuming) the parked error...
    let err = ds
        .insert(sample_record(1_000))
        .expect_err("write must fail");
    assert!(err.message.contains("injected crash"), "{err}");
    assert_eq!(ds.health().worker, WorkerState::Failed, "still parked");
    // ...and an explicit flush consumes it for retry; health recovers.
    let err = ds.flush().expect_err("drain surfaces the parked failure");
    assert!(err.message.contains("injected crash"), "{err}");
    ds.flush().unwrap();
    let recovered = ds.health();
    assert_eq!(recovered.worker, WorkerState::Idle);
    // The consumed error stays visible via the event ring until it scrolls off.
    assert!(recovered.last_error.is_some(), "ring keeps the last error");
    ds.insert(sample_record(1_000)).unwrap();
}

/// Inline (non-background) datasets report their worker as such.
#[test]
fn inline_dataset_health_is_inline() {
    let ds = LsmDataset::new(tiny_config("inline", LayoutKind::Amax));
    let health = ds.health();
    assert_eq!(health.worker, WorkerState::Inline);
    assert!(health.last_error.is_none());
    assert_eq!(health.pending_maintenance, 0);
}

/// WAL lifecycle and manifest events flow from the persistence layer into
/// the dataset's ring via the telemetry sink.
#[test]
fn durable_datasets_emit_wal_and_manifest_events() {
    let dir = temp_dir("wal-events");
    let ds = LsmDataset::open(&dir, tiny_config("wal", LayoutKind::Amax)).unwrap();
    for i in 0..120 {
        ds.insert(sample_record(i)).unwrap();
    }
    ds.flush().unwrap();

    let metrics = ds.metrics();
    assert_eq!(metrics.counter("wal.appends"), 120);

    let events = ds.recent_events(256);
    assert!(
        events.iter().any(|e| e.kind.label() == "manifest_commit"),
        "flush commits a manifest version"
    );
}

/// §4.4's batched skip, observed end-to-end: during a reconciling scan over
/// an update-heavy dataset, entries shadowed by a newer component are
/// skipped at the column-cursor level — every column advances past the
/// record in one go — and never assembled into documents. The
/// `records_assembled` counter therefore equals the number of *live*
/// records, not the (much larger) number of stored entries.
#[test]
fn update_heavy_scan_skips_shadowed_entries_without_assembly() {
    // A compaction spec that never merges: every round's components survive,
    // so older versions of each key stay on disk and must be skipped.
    let ds = LsmDataset::new(
        tiny_config("lazy-skip", LayoutKind::Amax)
            .with_compaction(CompactionSpec::tiered(100.0, 100)),
    );
    for round in 0..3i64 {
        for i in 0..150 {
            let mut doc = sample_record(i);
            doc.set_field("timestamp", Value::Int(round));
            ds.insert(doc).unwrap();
        }
        ds.flush().unwrap();
    }
    let total_entries: usize = ds.components().iter().map(|c| c.record_count()).sum();
    assert!(
        total_entries > 150,
        "older rounds must survive as shadowed entries ({total_entries})"
    );

    ds.cache().store().reset_stats();
    let docs = ds.scan(None).unwrap();
    assert_eq!(docs.len(), 150);
    let assembled = ds.io_stats().records_assembled;
    assert_eq!(
        assembled, 150,
        "only the winning version of each key is assembled; the \
         {total_entries} stored entries include shadowed versions that are \
         batch-skipped"
    );
    assert_eq!(ds.metrics().counter("storage.records_assembled"), 150);
}
