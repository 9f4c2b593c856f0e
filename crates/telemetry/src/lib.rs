//! # telemetry — metrics registry and lifecycle event tracing
//!
//! The measurement layer of the store: every dataset (and every shard of a
//! sharded dataset) owns one [`Telemetry`] registry, and the write/flush/
//! merge/WAL paths record into it with a handful of atomic instructions per
//! event. Nothing here allocates on the hot path; snapshots, rendering and
//! merging are done by the reader.
//!
//! ## Metric taxonomy
//!
//! Metric names are dot-separated, grouped by subsystem:
//!
//! | prefix         | kind       | examples |
//! |----------------|------------|----------|
//! | `ingest.*`     | counters   | `ingest.records`, `ingest.bytes`, `ingest.deletes` |
//! | `flush.*`      | counters + histogram | `flush.count`, `flush.entries_in`, `flush.pages_out`, `flush.duration_micros` |
//! | `merge.*`      | counters + histogram | `merge.count`, `merge.pages_in`, `merge.pages_out`, `merge.duration_micros` |
//! | `wal.*`        | counters + histograms | `wal.appends`, `wal.syncs`, `wal.append_micros`, `wal.sync_micros` |
//! | `backpressure.*` | counters | `backpressure.stalls`, `backpressure.stall_micros` |
//! | `snapshot.*`   | counters   | `snapshot.count` |
//! | `storage.*`    | sampled counters / gauges | the `IoStats` block folded in: `storage.pages_read`, `storage.bytes_written`, `storage.cache_hits`, …, plus `storage.allocated_bytes` |
//! | `scan.*`       | sampled counters | which lane scans took, from the same block: `scan.batches` (batches a snapshot scan handed over), `scan.records_kernel` (winners the compiled engine folded straight off column chunks); documents built, whichever the lane, are `storage.records_assembled` |
//! | `lsm.*`        | sampled gauges + counters | gauges `lsm.memtable_bytes`, `lsm.sealed_queue_depth`, `lsm.components`, `lsm.live_stored_bytes`; point-read counters `lsm.lookups`, `lsm.lookup_memtable_hits`, `lsm.lookup_components_probed` (probes / lookups = point-read amplification), `lsm.maintenance_lookups` (secondary-index maintenance reads) |
//! | `amp.*`        | derived gauges | `amp.write`, `amp.read`, `amp.space` |
//!
//! Three metric kinds exist:
//!
//! * **counters** — monotonic `u64`s recorded by the engine as work happens
//!   ([`Counter`], one relaxed `fetch_add`);
//! * **sampled counters / gauges** — point-in-time values the dataset reads
//!   off live state at snapshot time (queue depths, byte totals, the
//!   storage layer's `IoStats` block) and pushes into the snapshot;
//! * **derived gauges** — ratios computed *from the snapshot itself* by
//!   [`MetricsSnapshot::with_derived_gauges`], so they are always
//!   recomputable from the raw counters they summarise:
//!   `amp.write = storage.bytes_written / ingest.bytes` (physical bytes
//!   written per logical byte ingested over the store's lifetime),
//!   `amp.read = storage.bytes_read / ingest.bytes` (lifetime read
//!   amplification relative to the ingested volume), and
//!   `amp.space = storage.allocated_bytes / lsm.live_stored_bytes`
//!   (allocated page-file space per live component byte).
//!
//! ## Histogram bucket scheme
//!
//! [`Histogram`] is a fixed array of 32 power-of-two buckets: an observation
//! `v` lands in bucket `⌈log2(v+1)⌉` (bucket 0 holds `v == 0`, bucket `i`
//! holds `2^(i-1) < v ≤ 2^i`, the last bucket is unbounded). Recording is
//! two relaxed `fetch_add`s plus a `fetch_max`; quantiles (`p50`/`p95`/
//! `p99`) are resolved at snapshot time as the upper bound of the bucket
//! containing the requested rank, clamped to the observed maximum — i.e.
//! they are upper estimates with at most 2× bucket resolution, which is
//! plenty for "did the fsync take microseconds or milliseconds". Histograms
//! from different shards merge exactly (bucket-wise addition).
//!
//! ## Event-ring semantics
//!
//! [`EventRing`] is a bounded in-memory ring of structured lifecycle
//! [`Event`]s (flush/merge begin+end, WAL segment seal/remove, manifest
//! commits, recovery replay summaries, parked worker errors) with capacity
//! [`EventRing::DEFAULT_CAPACITY`]. Emission takes one short mutex hold;
//! when full, the oldest event is dropped — the ring is a flight recorder,
//! not an audit log. Every event carries a monotonically increasing
//! per-ring sequence number and a wall-clock timestamp in unix
//! microseconds. [`EventRing::recent`] returns the newest events oldest →
//! newest; [`EventRing::last_error`] scans for the most recent
//! [`EventKind::WorkerError`], which is how worker health surfaces a parked
//! background failure without consuming it.
//!
//! ## Stage clock
//!
//! [`stage`] answers where one thread's time went, by stage of the read and
//! write paths (page read, decompress, level and value decoding, kernel
//! folds, assembly, chunk encoding, page write). Its scopes sit in the
//! engine at page and chunk granularity and cost one thread-local read
//! unless a [`stage::StageClock`] runs on the thread; EXPLAIN ANALYZE runs
//! one per partition.
//!
//! ## Disabling
//!
//! A registry built with [`Telemetry::disabled`] ignores every record and
//! emit call behind a single non-atomic bool read, so the benchmark's
//! `telemetry_overhead_pct` metric can measure the overhead of the enabled
//! path against a true baseline.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{SystemTime, UNIX_EPOCH};

pub mod stage;

/// Wall-clock "now" in microseconds since the unix epoch (event timestamps).
pub fn unix_micros() -> u64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_micros() as u64)
        .unwrap_or(0)
}

// ---------------------------------------------------------------------------
// Counters.
// ---------------------------------------------------------------------------

/// A monotonic counter: one relaxed `fetch_add` to record.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Add `n` to the counter.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Add one.
    pub fn incr(&self) {
        self.add(1);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

// ---------------------------------------------------------------------------
// Histograms.
// ---------------------------------------------------------------------------

/// Number of power-of-two buckets in a [`Histogram`].
pub const HISTOGRAM_BUCKETS: usize = 32;

/// A fixed-bucket latency/size histogram (see the module docs for the
/// bucket scheme). Lock-free: recording is two `fetch_add`s and a
/// `fetch_max`.
#[derive(Debug, Default)]
pub struct Histogram {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

/// Bucket index for an observation: `⌈log2(v+1)⌉`, clamped to the last
/// (unbounded) bucket.
fn bucket_index(value: u64) -> usize {
    ((64 - value.leading_zeros()) as usize).min(HISTOGRAM_BUCKETS - 1)
}

impl Histogram {
    /// Record one observation.
    pub fn record(&self, value: u64) {
        self.buckets[bucket_index(value)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
        self.max.fetch_max(value, Ordering::Relaxed);
    }

    /// Point-in-time copy of the histogram state.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).collect(),
            count: self.count.load(Ordering::Relaxed),
            sum: self.sum.load(Ordering::Relaxed),
            max: self.max.load(Ordering::Relaxed),
        }
    }
}

/// A frozen copy of a [`Histogram`], mergeable across shards.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Per-bucket observation counts (see the module docs for bounds).
    pub buckets: Vec<u64>,
    /// Total observations.
    pub count: u64,
    /// Sum of all observed values.
    pub sum: u64,
    /// Largest observed value.
    pub max: u64,
}

impl HistogramSnapshot {
    /// Bucket-wise merge of another snapshot into this one (exact).
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        if self.buckets.len() < other.buckets.len() {
            self.buckets.resize(other.buckets.len(), 0);
        }
        for (b, o) in self.buckets.iter_mut().zip(&other.buckets) {
            *b += o;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.max = self.max.max(other.max);
    }

    /// Upper estimate of the `q`-quantile (`0.0 ..= 1.0`): the upper bound
    /// of the bucket containing the requested rank, clamped to the
    /// observed max.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((self.count as f64) * q.clamp(0.0, 1.0)).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                // Upper bound of bucket i is 2^i (bucket 0 holds zeros).
                let bound = if i == 0 { 0 } else { 1u64 << i.min(63) };
                return bound.min(self.max);
            }
        }
        self.max
    }

    /// Median upper estimate.
    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    /// 95th-percentile upper estimate.
    pub fn p95(&self) -> u64 {
        self.quantile(0.95)
    }

    /// 99th-percentile upper estimate.
    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }

    /// Mean observed value (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }
}

// ---------------------------------------------------------------------------
// Lifecycle events.
// ---------------------------------------------------------------------------

/// One structured lifecycle event (see [`EventKind`] for the vocabulary).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Event {
    /// Per-ring monotonic sequence number (dense from ring creation).
    pub seq: u64,
    /// Wall-clock timestamp, microseconds since the unix epoch.
    pub unix_micros: u64,
    /// What happened.
    pub kind: EventKind,
}

/// The lifecycle event vocabulary emitted by the LSM and persistence
/// layers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EventKind {
    /// A sealed memtable started flushing to a component.
    FlushBegin {
        /// Entries in the sealed memtable being flushed.
        entries: usize,
    },
    /// A flush finished and its component is live in the tree.
    FlushEnd {
        /// Entries written.
        entries: usize,
        /// Pages the new component occupies.
        pages_out: u64,
        /// Flush wall time in microseconds.
        micros: u64,
    },
    /// A merge of the named components started.
    MergeBegin {
        /// Ids of the input components, oldest first.
        inputs: Vec<u64>,
    },
    /// A merge finished; the inputs were retired.
    MergeEnd {
        /// Ids of the input components, oldest first.
        inputs: Vec<u64>,
        /// Pages read from the inputs.
        pages_in: u64,
        /// Pages the merged component occupies.
        pages_out: u64,
        /// Merge wall time in microseconds.
        micros: u64,
    },
    /// The WAL rotated: the named segment is sealed (immutable).
    WalSegmentSealed {
        /// Id of the sealed segment.
        segment: u64,
    },
    /// Sealed WAL segments up to and including `through` were removed
    /// after a flush made them redundant.
    WalSegmentsRemoved {
        /// Highest removed segment id.
        through: u64,
    },
    /// A manifest version committed durably.
    ManifestCommit {
        /// The committed manifest version.
        version: u64,
    },
    /// Summary of a recovery replay at open.
    RecoveryReplay {
        /// WAL segments replayed.
        segments: usize,
        /// WAL records replayed into the memtable.
        records: usize,
        /// Whether a torn tail was truncated from the newest segment.
        torn_tail_healed: bool,
        /// Components reloaded from the manifest.
        components: usize,
    },
    /// Recovery reconciled the page file against the manifest and freed
    /// slots no live component references (crash-orphaned pages, plus the
    /// free list the file backend does not persist).
    OrphanSweep {
        /// Allocated page slots inspected.
        scanned: u64,
        /// Slots freed back onto the free list.
        freed: u64,
        /// Trailing freed slots truncated off the page file.
        truncated: u64,
    },
    /// A space-reclamation (GC) pass finished: live pages were relocated
    /// downward and the dead tail of the page file was truncated.
    SpaceReclaimed {
        /// Components rewritten into lower slots.
        components_rewritten: usize,
        /// Pages copied to lower slots.
        pages_moved: u64,
        /// Page slots released (the page file shrank by this many pages).
        pages_reclaimed: u64,
    },
    /// A background worker error was parked (writes will observe it).
    WorkerError {
        /// Display form of the parked error.
        message: String,
    },
}

impl EventKind {
    /// Short stable label for the event type (text/JSON rendering, tests).
    pub fn label(&self) -> &'static str {
        match self {
            EventKind::FlushBegin { .. } => "flush_begin",
            EventKind::FlushEnd { .. } => "flush_end",
            EventKind::MergeBegin { .. } => "merge_begin",
            EventKind::MergeEnd { .. } => "merge_end",
            EventKind::WalSegmentSealed { .. } => "wal_segment_sealed",
            EventKind::WalSegmentsRemoved { .. } => "wal_segments_removed",
            EventKind::ManifestCommit { .. } => "manifest_commit",
            EventKind::RecoveryReplay { .. } => "recovery_replay",
            EventKind::OrphanSweep { .. } => "orphan_sweep",
            EventKind::SpaceReclaimed { .. } => "space_reclaimed",
            EventKind::WorkerError { .. } => "worker_error",
        }
    }

    /// One-line human-readable rendering of the event payload.
    pub fn describe(&self) -> String {
        match self {
            EventKind::FlushBegin { entries } => format!("flush begin: {entries} entries"),
            EventKind::FlushEnd { entries, pages_out, micros } => {
                format!("flush end: {entries} entries -> {pages_out} pages in {micros}us")
            }
            EventKind::MergeBegin { inputs } => format!("merge begin: inputs {inputs:?}"),
            EventKind::MergeEnd { inputs, pages_in, pages_out, micros } => format!(
                "merge end: inputs {inputs:?} ({pages_in} pages) -> {pages_out} pages in {micros}us"
            ),
            EventKind::WalSegmentSealed { segment } => {
                format!("wal segment {segment} sealed")
            }
            EventKind::WalSegmentsRemoved { through } => {
                format!("wal segments removed through {through}")
            }
            EventKind::ManifestCommit { version } => {
                format!("manifest version {version} committed")
            }
            EventKind::RecoveryReplay { segments, records, torn_tail_healed, components } => {
                format!(
                    "recovery: {segments} segments, {records} records replayed, \
                     torn tail healed: {torn_tail_healed}, {components} components reloaded"
                )
            }
            EventKind::OrphanSweep { scanned, freed, truncated } => format!(
                "orphan sweep: {scanned} slots scanned, {freed} freed, {truncated} truncated"
            ),
            EventKind::SpaceReclaimed { components_rewritten, pages_moved, pages_reclaimed } => {
                format!(
                    "space reclaimed: {components_rewritten} components rewritten, \
                     {pages_moved} pages moved, {pages_reclaimed} pages released"
                )
            }
            EventKind::WorkerError { message } => format!("worker error parked: {message}"),
        }
    }
}

/// A bounded ring of lifecycle [`Event`]s (flight-recorder semantics: when
/// full, the oldest event is dropped).
#[derive(Debug)]
pub struct EventRing {
    capacity: usize,
    seq: AtomicU64,
    ring: Mutex<VecDeque<Event>>,
}

impl EventRing {
    /// Default ring capacity (events retained).
    pub const DEFAULT_CAPACITY: usize = 256;

    /// A ring retaining at most `capacity` events.
    pub fn new(capacity: usize) -> Self {
        EventRing {
            capacity: capacity.max(1),
            seq: AtomicU64::new(0),
            ring: Mutex::new(VecDeque::new()),
        }
    }

    /// Record an event (timestamped now), dropping the oldest if full.
    pub fn emit(&self, kind: EventKind) {
        let event = Event {
            seq: self.seq.fetch_add(1, Ordering::Relaxed),
            unix_micros: unix_micros(),
            kind,
        };
        let mut ring = self.ring.lock().expect("event ring poisoned");
        if ring.len() == self.capacity {
            ring.pop_front();
        }
        ring.push_back(event);
    }

    /// The newest `n` events, oldest → newest.
    pub fn recent(&self, n: usize) -> Vec<Event> {
        let ring = self.ring.lock().expect("event ring poisoned");
        ring.iter().skip(ring.len().saturating_sub(n)).cloned().collect()
    }

    /// Total events ever emitted (including dropped ones).
    pub fn emitted(&self) -> u64 {
        self.seq.load(Ordering::Relaxed)
    }

    /// The most recent [`EventKind::WorkerError`] message still in the
    /// ring, if any.
    pub fn last_error(&self) -> Option<String> {
        let ring = self.ring.lock().expect("event ring poisoned");
        ring.iter().rev().find_map(|e| match &e.kind {
            EventKind::WorkerError { message } => Some(message.clone()),
            _ => None,
        })
    }
}

impl Default for EventRing {
    fn default() -> Self {
        EventRing::new(Self::DEFAULT_CAPACITY)
    }
}

// ---------------------------------------------------------------------------
// The per-dataset registry.
// ---------------------------------------------------------------------------

/// The per-dataset (per-shard) metrics registry: every counter and
/// histogram the LSM/persistence layers record into, plus the lifecycle
/// event ring. See the module docs for the taxonomy.
#[derive(Debug)]
pub struct Telemetry {
    enabled: bool,
    /// `ingest.records` — documents inserted.
    pub records_ingested: Counter,
    /// `ingest.bytes` — approximate logical bytes ingested (memtable
    /// accounting bytes of inserted entries); denominator of `amp.write`.
    pub bytes_ingested: Counter,
    /// `ingest.deletes` — delete operations.
    pub deletes: Counter,
    /// `flush.count` — sealed memtables flushed to components.
    pub flushes: Counter,
    /// `flush.entries_in` — entries across all flushes.
    pub flush_entries: Counter,
    /// `flush.pages_out` — pages written by flushes (all indexes).
    pub flush_pages_out: Counter,
    /// `merge.count` — component merges completed.
    pub merges: Counter,
    /// `merge.pages_in` — input pages consumed by merges.
    pub merge_pages_in: Counter,
    /// `merge.pages_out` — pages written by merges.
    pub merge_pages_out: Counter,
    /// `storage.merge_records_copied` — merge winners copied column by
    /// column from the inputs' chunks, never assembled (§4.4).
    pub merge_records_copied: Counter,
    /// `storage.merge_records_reshredded` — merge winners of columnar inputs
    /// that were assembled and shredded again because their leaf's columns
    /// did not match the output schema's.
    pub merge_records_reshredded: Counter,
    /// `wal.appends` — WAL records appended.
    pub wal_appends: Counter,
    /// `wal.syncs` — explicit WAL fsyncs.
    pub wal_syncs: Counter,
    /// `backpressure.stalls` — inserts that blocked on the sealed queue.
    pub stalls: Counter,
    /// `backpressure.stall_micros` — total time inserts spent blocked.
    pub stall_micros: Counter,
    /// `snapshot.count` — read snapshots taken.
    pub snapshots: Counter,
    /// `lsm.lookups` — keys looked up by point reads (`get`, index
    /// maintenance, index probes; a probe counts each of its keys).
    pub lookups: Counter,
    /// `lsm.lookup_memtable_hits` — of those, keys the active memtable
    /// answered.
    pub lookup_memtable_hits: Counter,
    /// `lsm.lookup_components_probed` — components consulted, summed over
    /// the looked-up keys.
    pub lookup_components_probed: Counter,
    /// `lsm.maintenance_lookups` — secondary-index maintenance reads: upserts
    /// and deletes whose key the primary-key filter says may be stored.
    pub maintenance_lookups: Counter,
    /// `flush.duration_micros` — per-flush wall time.
    pub flush_duration: Histogram,
    /// `merge.duration_micros` — per-merge wall time.
    pub merge_duration: Histogram,
    /// `merge.peak_buffered_records` — per merge, the high-water mark of
    /// records resident at once (one decoded leaf per input plus the
    /// writer's open leaf bound it); the histogram's max is the all-time
    /// peak.
    pub merge_peak_buffered: Histogram,
    /// `wal.append_micros` — per-append WAL latency: staging the frame.
    /// Writes of staged frames are timed by the stage clock's `WalWrite`.
    pub wal_append_latency: Histogram,
    /// `wal.sync_micros` — per-fsync WAL latency, the write of the staged
    /// frames included.
    pub wal_sync_latency: Histogram,
    /// The lifecycle event ring.
    pub events: EventRing,
}

impl Telemetry {
    /// An enabled registry with the default event-ring capacity.
    pub fn new() -> Self {
        Telemetry::with_state(true)
    }

    /// A registry whose record/emit calls are all no-ops (baseline for
    /// overhead measurement).
    pub fn disabled() -> Self {
        Telemetry::with_state(false)
    }

    fn with_state(enabled: bool) -> Self {
        Telemetry {
            enabled,
            records_ingested: Counter::default(),
            bytes_ingested: Counter::default(),
            deletes: Counter::default(),
            flushes: Counter::default(),
            flush_entries: Counter::default(),
            flush_pages_out: Counter::default(),
            merges: Counter::default(),
            merge_pages_in: Counter::default(),
            merge_pages_out: Counter::default(),
            merge_records_copied: Counter::default(),
            merge_records_reshredded: Counter::default(),
            wal_appends: Counter::default(),
            wal_syncs: Counter::default(),
            stalls: Counter::default(),
            stall_micros: Counter::default(),
            snapshots: Counter::default(),
            lookups: Counter::default(),
            lookup_memtable_hits: Counter::default(),
            lookup_components_probed: Counter::default(),
            maintenance_lookups: Counter::default(),
            flush_duration: Histogram::default(),
            merge_duration: Histogram::default(),
            merge_peak_buffered: Histogram::default(),
            wal_append_latency: Histogram::default(),
            wal_sync_latency: Histogram::default(),
            events: EventRing::default(),
        }
    }

    /// Whether this registry records anything. Call sites that must pay a
    /// timing capture (`Instant::now`) to record should gate on this.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Emit a lifecycle event (no-op when disabled).
    pub fn emit(&self, kind: EventKind) {
        if self.enabled {
            self.events.emit(kind);
        }
    }

    /// The newest `n` lifecycle events, oldest → newest.
    pub fn recent_events(&self, n: usize) -> Vec<Event> {
        self.events.recent(n)
    }

    /// Freeze the registry's counters and histograms into a
    /// [`MetricsSnapshot`] for `dataset`. Sampled gauges (queue depths,
    /// the `IoStats` block, byte totals) are pushed by the caller
    /// afterwards; derived gauges by
    /// [`MetricsSnapshot::with_derived_gauges`].
    pub fn snapshot(&self, dataset: &str) -> MetricsSnapshot {
        let counters = vec![
            ("ingest.records".to_string(), self.records_ingested.get()),
            ("ingest.bytes".to_string(), self.bytes_ingested.get()),
            ("ingest.deletes".to_string(), self.deletes.get()),
            ("flush.count".to_string(), self.flushes.get()),
            ("flush.entries_in".to_string(), self.flush_entries.get()),
            ("flush.pages_out".to_string(), self.flush_pages_out.get()),
            ("merge.count".to_string(), self.merges.get()),
            ("merge.pages_in".to_string(), self.merge_pages_in.get()),
            ("merge.pages_out".to_string(), self.merge_pages_out.get()),
            (
                "storage.merge_records_copied".to_string(),
                self.merge_records_copied.get(),
            ),
            (
                "storage.merge_records_reshredded".to_string(),
                self.merge_records_reshredded.get(),
            ),
            ("wal.appends".to_string(), self.wal_appends.get()),
            ("wal.syncs".to_string(), self.wal_syncs.get()),
            ("backpressure.stalls".to_string(), self.stalls.get()),
            ("backpressure.stall_micros".to_string(), self.stall_micros.get()),
            ("snapshot.count".to_string(), self.snapshots.get()),
            ("lsm.lookups".to_string(), self.lookups.get()),
            (
                "lsm.lookup_memtable_hits".to_string(),
                self.lookup_memtable_hits.get(),
            ),
            (
                "lsm.lookup_components_probed".to_string(),
                self.lookup_components_probed.get(),
            ),
            (
                "lsm.maintenance_lookups".to_string(),
                self.maintenance_lookups.get(),
            ),
        ];
        let histograms = vec![
            ("flush.duration_micros".to_string(), self.flush_duration.snapshot()),
            ("merge.duration_micros".to_string(), self.merge_duration.snapshot()),
            (
                "merge.peak_buffered_records".to_string(),
                self.merge_peak_buffered.snapshot(),
            ),
            ("wal.append_micros".to_string(), self.wal_append_latency.snapshot()),
            ("wal.sync_micros".to_string(), self.wal_sync_latency.snapshot()),
        ];
        MetricsSnapshot {
            dataset: dataset.to_string(),
            shards: 1,
            counters,
            gauges: Vec::new(),
            histograms,
        }
    }
}

impl Default for Telemetry {
    fn default() -> Self {
        Telemetry::new()
    }
}

// ---------------------------------------------------------------------------
// Snapshots: merge + render.
// ---------------------------------------------------------------------------

/// A frozen, mergeable view of one registry (or of several shard
/// registries merged), exportable as aligned plain text
/// ([`MetricsSnapshot::to_text`]) or JSON ([`MetricsSnapshot::to_json`]).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsSnapshot {
    /// The dataset this snapshot describes.
    pub dataset: String,
    /// Number of shard registries merged into this snapshot.
    pub shards: usize,
    /// Monotonic + sampled counters, name → value.
    pub counters: Vec<(String, u64)>,
    /// Sampled and derived gauges, name → value.
    pub gauges: Vec<(String, f64)>,
    /// Histograms, name → frozen state.
    pub histograms: Vec<(String, HistogramSnapshot)>,
}

impl MetricsSnapshot {
    /// Append (or add into an existing) counter.
    pub fn push_counter(&mut self, name: &str, value: u64) {
        match self.counters.iter_mut().find(|(n, _)| n == name) {
            Some((_, v)) => *v += value,
            None => self.counters.push((name.to_string(), value)),
        }
    }

    /// Append (or add into an existing) gauge. Additive gauges (byte
    /// totals, queue depths) sum across shards; derived ratio gauges are
    /// recomputed after merging instead.
    pub fn push_gauge(&mut self, name: &str, value: f64) {
        match self.gauges.iter_mut().find(|(n, _)| n == name) {
            Some((_, v)) => *v += value,
            None => self.gauges.push((name.to_string(), value)),
        }
    }

    /// Value of a counter (0 when absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
            .unwrap_or(0)
    }

    /// Value of a gauge, if present.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
    }

    /// A histogram by name, if present.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms.iter().find(|(n, _)| n == name).map(|(_, h)| h)
    }

    /// Merge another shard's snapshot into this one: counters and gauges
    /// add, histograms merge bucket-wise, the shard count accumulates.
    pub fn merge(&mut self, other: &MetricsSnapshot) {
        self.shards += other.shards;
        for (name, value) in &other.counters {
            self.push_counter(name, *value);
        }
        for (name, value) in &other.gauges {
            self.push_gauge(name, *value);
        }
        for (name, hist) in &other.histograms {
            match self.histograms.iter_mut().find(|(n, _)| n == name) {
                Some((_, h)) => h.merge(hist),
                None => self.histograms.push((name.clone(), hist.clone())),
            }
        }
    }

    /// Compute the `amp.*` derived gauges from the raw counters/gauges
    /// already present (see the module docs for the definitions). Call
    /// after all shards are merged so the ratios are over the totals.
    pub fn with_derived_gauges(mut self) -> Self {
        self.gauges.retain(|(n, _)| !n.starts_with("amp."));
        let ingested = self.counter("ingest.bytes") as f64;
        if ingested > 0.0 {
            let written = self.counter("storage.bytes_written") as f64;
            let read = self.counter("storage.bytes_read") as f64;
            self.gauges.push(("amp.write".to_string(), written / ingested));
            self.gauges.push(("amp.read".to_string(), read / ingested));
        }
        let live = self.gauge("lsm.live_stored_bytes").unwrap_or(0.0);
        if live > 0.0 {
            let allocated = self.gauge("storage.allocated_bytes").unwrap_or(0.0);
            self.gauges.push(("amp.space".to_string(), allocated / live));
        }
        self
    }

    /// Render as aligned plain text (sorted by name within each section).
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("# {} ({} shard(s))\n", self.dataset, self.shards));
        let mut counters = self.counters.clone();
        counters.sort();
        for (name, value) in &counters {
            out.push_str(&format!("{name:<34} {value}\n"));
        }
        let mut gauges = self.gauges.clone();
        gauges.sort_by(|a, b| a.0.cmp(&b.0));
        for (name, value) in &gauges {
            out.push_str(&format!("{name:<34} {value:.3}\n"));
        }
        let mut histograms: Vec<&(String, HistogramSnapshot)> = self.histograms.iter().collect();
        histograms.sort_by(|a, b| a.0.cmp(&b.0));
        for (name, h) in histograms {
            out.push_str(&format!(
                "{name:<34} count={} p50<={} p95<={} p99<={} max={}\n",
                h.count,
                h.p50(),
                h.p95(),
                h.p99(),
                h.max
            ));
        }
        out
    }

    /// Render as a JSON document (hand-rolled: no serde in the tree).
    pub fn to_json(&self) -> String {
        fn escape(s: &str) -> String {
            s.replace('\\', "\\\\").replace('"', "\\\"")
        }
        let mut out = String::new();
        out.push_str(&format!(
            "{{\"dataset\": \"{}\", \"shards\": {}, \"counters\": {{",
            escape(&self.dataset),
            self.shards
        ));
        let mut counters = self.counters.clone();
        counters.sort();
        for (i, (name, value)) in counters.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str(&format!("\"{}\": {}", escape(name), value));
        }
        out.push_str("}, \"gauges\": {");
        let mut gauges = self.gauges.clone();
        gauges.sort_by(|a, b| a.0.cmp(&b.0));
        for (i, (name, value)) in gauges.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let value = if value.is_finite() { *value } else { -1.0 };
            out.push_str(&format!("\"{}\": {}", escape(name), value));
        }
        out.push_str("}, \"histograms\": {");
        let mut histograms: Vec<&(String, HistogramSnapshot)> = self.histograms.iter().collect();
        histograms.sort_by(|a, b| a.0.cmp(&b.0));
        for (i, (name, h)) in histograms.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str(&format!(
                "\"{}\": {{\"count\": {}, \"sum\": {}, \"p50\": {}, \"p95\": {}, \"p99\": {}, \"max\": {}}}",
                escape(name),
                h.count,
                h.sum,
                h.p50(),
                h.p95(),
                h.p99(),
                h.max
            ));
        }
        out.push_str("}}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_add_up() {
        let c = Counter::default();
        c.incr();
        c.add(41);
        assert_eq!(c.get(), 42);
    }

    #[test]
    fn histogram_buckets_and_quantiles() {
        let h = Histogram::default();
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(u64::MAX), HISTOGRAM_BUCKETS - 1);
        for v in [1u64, 2, 3, 100, 1000, 100_000] {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 6);
        assert_eq!(s.sum, 101_106);
        assert_eq!(s.max, 100_000);
        // p50 is an upper estimate: the 3rd of 6 observations lives in the
        // bucket holding 3 (2 < v <= 4), so the bound is 4.
        assert_eq!(s.p50(), 4);
        // p99 resolves to the last occupied bucket, clamped to the max.
        assert_eq!(s.p99(), 100_000);
        assert!(s.mean() > 0.0);
    }

    #[test]
    fn quantiles_clamp_to_observed_max() {
        let h = Histogram::default();
        h.record(5); // bucket for 4 < v <= 8: bound 8, but max is 5.
        let s = h.snapshot();
        assert_eq!(s.p50(), 5);
        assert_eq!(s.p99(), 5);
    }

    #[test]
    fn histogram_merge_is_exact() {
        let a = Histogram::default();
        let b = Histogram::default();
        for v in [1u64, 10, 100] {
            a.record(v);
        }
        for v in [2u64, 20, 200, 2000] {
            b.record(v);
        }
        let mut merged = a.snapshot();
        merged.merge(&b.snapshot());
        let whole = Histogram::default();
        for v in [1u64, 10, 100, 2, 20, 200, 2000] {
            whole.record(v);
        }
        assert_eq!(merged, whole.snapshot());
    }

    #[test]
    fn event_ring_drops_oldest_and_surfaces_errors() {
        let ring = EventRing::new(3);
        ring.emit(EventKind::WorkerError { message: "early".into() });
        for segment in 0..3 {
            ring.emit(EventKind::WalSegmentSealed { segment });
        }
        let recent = ring.recent(10);
        assert_eq!(recent.len(), 3);
        // The worker error was the oldest event, so the ring dropped it.
        assert_eq!(ring.last_error(), None);
        assert_eq!(ring.emitted(), 4);
        assert!(recent.windows(2).all(|w| w[0].seq < w[1].seq));

        ring.emit(EventKind::WorkerError { message: "late".into() });
        assert_eq!(ring.last_error().as_deref(), Some("late"));
    }

    #[test]
    fn disabled_registry_records_nothing() {
        let t = Telemetry::disabled();
        t.records_ingested.incr();
        t.emit(EventKind::ManifestCommit { version: 1 });
        assert!(!t.enabled());
        assert!(t.recent_events(10).is_empty());
        // Counters themselves still work (call sites gate on enabled()).
        assert_eq!(t.records_ingested.get(), 1);
    }

    #[test]
    fn snapshot_merges_and_derives_amplification() {
        let a = Telemetry::new();
        a.bytes_ingested.add(1000);
        a.records_ingested.add(10);
        a.flush_duration.record(500);
        let b = Telemetry::new();
        b.bytes_ingested.add(3000);
        b.flush_duration.record(700);

        let mut snap = a.snapshot("ds");
        snap.merge(&b.snapshot("ds"));
        snap.push_counter("storage.bytes_written", 8000);
        snap.push_counter("storage.bytes_read", 2000);
        snap.push_gauge("storage.allocated_bytes", 4096.0);
        snap.push_gauge("lsm.live_stored_bytes", 2048.0);
        let snap = snap.with_derived_gauges();

        assert_eq!(snap.shards, 2);
        assert_eq!(snap.counter("ingest.bytes"), 4000);
        assert_eq!(snap.counter("ingest.records"), 10);
        assert_eq!(snap.gauge("amp.write"), Some(2.0));
        assert_eq!(snap.gauge("amp.read"), Some(0.5));
        assert_eq!(snap.gauge("amp.space"), Some(2.0));
        assert_eq!(snap.histogram("flush.duration_micros").unwrap().count, 2);

        let text = snap.to_text();
        assert!(text.contains("ingest.bytes"), "{text}");
        assert!(text.contains("amp.write"), "{text}");
        let json = snap.to_json();
        assert!(json.contains("\"ingest.bytes\": 4000"), "{json}");
        assert!(json.contains("\"amp.write\": 2"), "{json}");
    }
}
