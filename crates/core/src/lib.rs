//! # docstore — the public facade
//!
//! A small, user-facing API over the whole stack: create a [`Datastore`],
//! declare datasets with a storage layout, feed them JSON documents, and run
//! compositional analytical queries. This is the surface a downstream user
//! of the reproduction would program against; the examples in the repository
//! root use nothing else.
//!
//! The [`Datastore`] is a registry: it creates, opens and names datasets.
//! Everything else goes through the dataset handle
//! ([`Datastore::dataset`]), a [`ShardedDataset`]: one or more
//! [`LsmDataset`] partitions, hash-partitioned by primary key. With
//! `shards(1)` (the default) it behaves exactly like a single LSM dataset;
//! with more shards, each partition has its own write lock, WAL and flush
//! stream, [`ShardedDataset::ingest_batch`] partitions a batch by shard and
//! writes the partitions on the caller's thread (group-committed for durable
//! ingest), and queries fan out over the shards with exact
//! partial-aggregate merging. Query execution goes through
//! [`query::QueryEngine`]: the planner picks the access path — full scan,
//! key-only scan, or a secondary-index range probe when the filter implies a
//! range on the indexed path — and [`ShardedDataset::explain`] shows the
//! chosen plan.
//!
//! Execution **streams**: scans pull the LSM merge cursor one record at a
//! time (memory bounded by one decoded leaf per component, not the
//! dataset), so `LIMIT`ed queries stop reading early. Two result shapes are
//! available — aggregate rows, and raw-column projections
//! ([`query::Query::select_paths`]: one key-ordered row per matching
//! record) — plus a cursor API for callers that want to iterate records
//! themselves: [`ShardedDataset::cursor`] yields `(key, record)` pairs in
//! global key order by k-way-merging the per-shard snapshot streams.
//!
//! ```
//! use docstore::{Datastore, DatasetOptions, Layout};
//! use query::{Aggregate, ExecMode, Expr, Query};
//!
//! let mut store = Datastore::new();
//! store
//!     .create_dataset("gamers", DatasetOptions::new(Layout::Amax).key("id"))
//!     .unwrap();
//! let gamers = store.dataset("gamers").unwrap();
//! gamers
//!     .ingest_json(r#"
//!         {"id": 1, "name": {"first": "Ann"}, "score": 62, "games": [{"title": "NBA"}]}
//!         {"id": 2, "name": {"first": "Bo"}, "score": 38}
//!     "#)
//!     .unwrap();
//! gamers.flush().unwrap();
//!
//! // SELECT name.first, COUNT(*), MAX(score), AVG(score) WHERE score >= 50 ...
//! let q = Query::select([
//!         Aggregate::Count,
//!         Aggregate::Max(docstore::Path::parse("score")),
//!         Aggregate::Avg(docstore::Path::parse("score")),
//!     ])
//!     .with_filter(Expr::ge("score", 50))
//!     .group_by("name.first");
//! let rows = gamers.query(&q, ExecMode::Compiled).unwrap();
//! assert_eq!(rows.len(), 1);
//! assert_eq!(rows[0].aggs[0], docstore::Value::Int(1));
//! assert!(gamers.explain(&q).unwrap().contains("full scan"));
//! ```

use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

use lsm::{DatasetConfig, IngestStats, LsmDataset};
use query::{ExecMode, Query, QueryEngine, QueryRow};
use storage::pagestore::IoStats;
use telemetry::{Event, MetricsSnapshot};

pub use docmodel::{doc, Path, Value};
pub use lsm::{CompactionSpec, DatasetHealth, ReclaimReport, WorkerPool, WorkerState};
pub use query::{Aggregate, AnalyzeReport, Expr};
pub use storage::LayoutKind as Layout;
pub use storage::{LeafCache, LeafCacheStats};

/// Error type of the facade: storage-engine failures, query-layer failures
/// (plan validation vs. decode, see [`query::Error`]), and facade-level API
/// misuse are kept apart so callers can react differently.
#[derive(Debug)]
pub enum Error {
    /// The storage engine (LSM, persistence, page decode) failed.
    Store(lsm::LsmError),
    /// The query layer rejected the plan or failed executing it.
    Query(query::Error),
    /// The facade was misused: unknown dataset, duplicate name, invalid
    /// JSON, missing primary key, ...
    Api(String),
}

impl Error {
    /// A facade-level API-misuse error.
    pub fn api(msg: impl Into<String>) -> Error {
        Error::Api(msg.into())
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Store(e) => write!(f, "storage error: {e}"),
            Error::Query(e) => write!(f, "{e}"),
            Error::Api(msg) => write!(f, "{msg}"),
        }
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Error::Store(e) => Some(e),
            Error::Query(e) => Some(e),
            Error::Api(_) => None,
        }
    }
}

impl From<lsm::LsmError> for Error {
    fn from(e: lsm::LsmError) -> Error {
        Error::Store(e)
    }
}

impl From<query::Error> for Error {
    fn from(e: query::Error) -> Error {
        Error::Query(e)
    }
}

/// Result alias of the facade.
pub type Result<T> = std::result::Result<T, Error>;

/// Options for creating a dataset: one [`DatasetConfig`] template every shard
/// is built from, plus the shard count and whether the shards flush and merge
/// on the store's shared worker pool. Fields are private so the builders'
/// clamps (at least one shard, at least one sealed memtable) cannot be
/// bypassed.
///
/// ```compile_fail
/// let mut options = docstore::DatasetOptions::new(docstore::Layout::Amax);
/// options.shards = 0; // private: `shards(0)` clamps to one partition
/// ```
#[derive(Debug, Clone)]
pub struct DatasetOptions {
    /// Per-shard template. Its `memory_budget` holds the *dataset-wide*
    /// budget until the shards are built, when each takes its slice.
    config: DatasetConfig,
    shards: usize,
    background: bool,
}

impl DatasetOptions {
    /// Defaults mirroring the paper's setup, scaled down.
    pub fn new(layout: Layout) -> DatasetOptions {
        DatasetOptions {
            config: DatasetConfig::new("", layout),
            shards: 1,
            background: false,
        }
    }

    /// Set the primary-key field (default `"id"`).
    pub fn key(mut self, key: impl Into<String>) -> Self {
        self.config.key_field = key.into();
        self
    }

    /// Set the per-shard memtable budget in bytes before a flush triggers.
    pub fn memtable_budget(mut self, bytes: usize) -> Self {
        self.config.memtable_budget = bytes;
        self
    }

    /// Set the page size.
    pub fn page_size(mut self, bytes: usize) -> Self {
        self.config.page_size = bytes;
        self
    }

    /// Declare a secondary index on a path.
    pub fn secondary_index(mut self, path: impl Into<Path>) -> Self {
        self.config.secondary_index_on = Some(path.into());
        self
    }

    /// Hash-partition the dataset by primary key across `n` shards (at
    /// least one).
    pub fn shards(mut self, n: usize) -> Self {
        self.shards = n.max(1);
        self
    }

    /// Run flushes and merges in the background. All shards of all
    /// background datasets in a [`Datastore`] share one [`WorkerPool`]
    /// (flushes beat merges; FIFO within a priority) instead of spawning a
    /// thread per shard.
    pub fn background(mut self, on: bool) -> Self {
        self.background = on;
        self
    }

    /// Bound the per-shard sealed-memtable queue (ingest backpressure).
    pub fn max_sealed(mut self, n: usize) -> Self {
        self.config = self.config.with_max_sealed(n);
        self
    }

    /// Enable or disable per-shard telemetry (metrics + event tracing).
    pub fn telemetry(mut self, on: bool) -> Self {
        self.config.telemetry_enabled = on;
        self
    }

    /// Select the compaction strategy: tiered (the default, size ratio 1.2
    /// and at most five components; both settable), leveled or
    /// lazy-leveled (no knobs: they run at the `lsm::policy` constants).
    /// The choice is persisted, so a reopened dataset keeps it.
    pub fn compaction(mut self, spec: CompactionSpec) -> Self {
        self.config.compaction = spec;
        self
    }

    /// Put the dataset's memory consumers under one budget of `bytes`
    /// (`0`, the default: no budget and no leaf cache). The budget is cut
    /// into equal per-shard slices (`bytes / shards`), and each slice is
    /// spent by [`DatasetConfig::budget_split`]: **half** funds the
    /// decoded-leaf cache — the shards' halves pooled into one
    /// [`LeafCache`] `Arc`'d across all of them, so warm leaves are served
    /// without page reads or re-assembly — a **quarter** funds the shard's
    /// page buffer cache and a **quarter** its memtable, with small floors
    /// (8 pages, 64 KiB) so tiny budgets stay operable. A budget overrides
    /// [`memtable_budget`](DatasetOptions::memtable_budget) and the default
    /// buffer-cache size. Only the slice is persisted in a durable
    /// manifest; everything else is recomputed from it, so
    /// [`Datastore::reopen_dataset`] restores exactly the caching the
    /// dataset was created with.
    pub fn memory_budget(mut self, bytes: usize) -> Self {
        self.config.memory_budget = bytes;
        self
    }
}

/// One [`LeafCache`] funded by the leaf-cache half of each of `shards`
/// equal budget slices, `config` being one shard's configuration. `None`
/// when no budget is configured.
fn shared_leaf_cache(config: &DatasetConfig, shards: usize) -> Option<Arc<LeafCache>> {
    let split = config.budget_split()?;
    Some(Arc::new(LeafCache::new(split.leaf_cache_bytes * shards)))
}

/// Stable FNV-1a hash of a primary key's canonical rendering, used to route
/// records to shards. Keys are atomic values, so the rendering is unique.
fn key_hash(key: &Value) -> u64 {
    let rendered = key.to_string();
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for byte in rendered.as_bytes() {
        hash ^= u64::from(*byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// A dataset hash-partitioned by primary key across N [`LsmDataset`] shards.
///
/// Every record lives on exactly one shard (determined by its key), so
/// point operations touch one partition, parallel ingest partitions the
/// batch, and fan-out queries merge disjoint partial aggregates.
pub struct ShardedDataset {
    key_field: String,
    shards: Vec<LsmDataset>,
    /// The shared decoded-leaf cache every shard reads through. `None`
    /// when the dataset has no memory budget configured.
    leaf_cache: Option<Arc<LeafCache>>,
}

impl ShardedDataset {
    fn from_shards(
        key_field: String,
        shards: Vec<LsmDataset>,
        leaf_cache: Option<Arc<LeafCache>>,
    ) -> ShardedDataset {
        assert!(!shards.is_empty(), "a dataset needs at least one shard");
        ShardedDataset {
            key_field,
            shards,
            leaf_cache,
        }
    }

    /// The shared decoded-leaf cache, when a memory budget is configured
    /// (see [`DatasetOptions::memory_budget`]). One cache serves every
    /// shard; [`LeafCache::stats`] reports its residency, and
    /// [`ShardedDataset::io_stats`] its hits, misses and evictions.
    pub fn leaf_cache(&self) -> Option<&Arc<LeafCache>> {
        self.leaf_cache.as_ref()
    }

    /// Number of hash partitions.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The underlying partitions, in shard order.
    pub fn shards(&self) -> &[LsmDataset] {
        &self.shards
    }

    /// Index of the shard that owns `key`.
    pub fn shard_index_for(&self, key: &Value) -> usize {
        if self.shards.len() == 1 {
            return 0;
        }
        (key_hash(key) % self.shards.len() as u64) as usize
    }

    /// The shard that owns `key`.
    pub fn shard_for(&self, key: &Value) -> &LsmDataset {
        &self.shards[self.shard_index_for(key)]
    }

    fn extract_key(&self, record: &Value) -> Result<Value> {
        record
            .get_field(&self.key_field)
            .filter(|v| v.is_atomic() && !v.is_null())
            .cloned()
            .ok_or_else(|| {
                Error::api(format!(
                    "record lacks an atomic primary key field '{}'",
                    self.key_field
                ))
            })
    }

    /// Partition a batch of documents by owning shard.
    fn partition(&self, docs: Vec<Value>) -> Result<Vec<Vec<Value>>> {
        let mut partitions: Vec<Vec<Value>> = (0..self.shards.len()).map(|_| Vec::new()).collect();
        for doc in docs {
            let key = self.extract_key(&doc)?;
            partitions[self.shard_index_for(&key)].push(doc);
        }
        Ok(partitions)
    }

    /// Insert one record into the shard owning its key.
    pub fn insert(&self, record: Value) -> Result<()> {
        let key = self.extract_key(&record)?;
        Ok(self.shard_for(&key).insert(record)?)
    }

    /// Parse and insert one JSON document (or a whitespace-separated
    /// stream), one [`insert`](ShardedDataset::insert) each. Returns how many
    /// documents were inserted.
    pub fn ingest_json(&self, json: &str) -> Result<usize> {
        let docs = docmodel::parse_json_stream(json)
            .map_err(|e| Error::api(format!("invalid JSON: {e}")))?;
        let n = docs.len();
        for doc in docs {
            self.insert(doc)?;
        }
        Ok(n)
    }

    /// Group-committed batch ingest: partition the batch by shard, ingest
    /// every non-empty partition with [`LsmDataset::ingest_batch`] and —
    /// when `sync_every > 0` — fsync the shard's WAL after every
    /// `sync_every` records, plus once at the end of the batch. This is how
    /// a durable service acknowledges client batches without hand-rolling
    /// per-K-records `sync()` loops; for in-memory datasets the syncs are
    /// no-ops.
    ///
    /// A partition's WAL frames reach the OS in one `write` per commit
    /// group (each sync, each memtable seal, the end of the partition)
    /// before this call returns, so `Ok(n)` acknowledges all `n` documents.
    /// An `Err` acknowledges nothing: a record without a key fails the
    /// whole batch before any shard is written when the dataset has several
    /// shards, and otherwise the records before the failing one stay
    /// applied and logged.
    ///
    /// The partitions are ingested one after another on the caller's
    /// thread: spawning a thread costs more than inserting a small batch,
    /// and flushes and merges still run on the background workers when
    /// enabled. Every non-empty partition is attempted and the first error
    /// in shard order is returned.
    pub fn ingest_batch(&self, docs: Vec<Value>, sync_every: usize) -> Result<usize> {
        if self.shards.len() == 1 {
            let n = docs.len();
            self.shards[0].ingest_batch(docs, sync_every)?;
            return Ok(n);
        }
        let partitions = self.partition(docs)?;
        let n = partitions.iter().map(Vec::len).sum();
        let results: Vec<lsm::Result<()>> = partitions
            .into_iter()
            .zip(&self.shards)
            .filter(|(batch, _)| !batch.is_empty())
            .map(|(batch, shard)| shard.ingest_batch(batch, sync_every))
            .collect();
        for result in results {
            result?;
        }
        Ok(n)
    }

    /// Delete the record with the given key.
    pub fn delete(&self, key: Value) -> Result<()> {
        Ok(self.shard_for(&key).delete(key)?)
    }

    /// Point lookup by primary key.
    pub fn get(&self, key: &Value) -> Result<Option<Value>> {
        Ok(self.shard_for(key).lookup(key, None)?)
    }

    /// A streaming cursor over the whole dataset: live `(key, record)`
    /// pairs in global key order, built by k-way-merging every shard's
    /// snapshot cursor (shards partition by key, so the merge is exact).
    /// Memory stays bounded by one decoded leaf per component per shard —
    /// never the dataset — and dropping the cursor early leaves unread
    /// leaves unread. Only the projected paths are assembled from columnar
    /// components (`None` = full records).
    pub fn cursor(&self, projection: Option<&[Path]>) -> Result<DocCursor> {
        let mut cursors = Vec::with_capacity(self.shards.len());
        for shard in &self.shards {
            cursors.push(shard.snapshot().cursor(projection)?);
        }
        let heads = cursors.iter().map(|_| None).collect();
        Ok(DocCursor {
            cursors,
            heads,
            projection: projection.map(<[Path]>::to_vec),
            last_key: None,
        })
    }

    /// Run a query: the planner makes its cost-based access-path choice
    /// (scan, key-only scan, or secondary-index range probe, using the
    /// per-component statistics), fans it out over the shards (one thread
    /// each) and merges the partial aggregates exactly.
    pub fn query(&self, query: &Query, mode: ExecMode) -> Result<Vec<QueryRow>> {
        self.query_with_options(query, mode, query::PlannerOptions::default())
    }

    /// Like [`ShardedDataset::query`], with explicit planner options (e.g.
    /// [`query::AccessPathChoice::ForceScan`] to bypass the cost model, or
    /// filter push-down disabled for differential testing).
    pub fn query_with_options(
        &self,
        query: &Query,
        mode: ExecMode,
        options: query::PlannerOptions,
    ) -> Result<Vec<QueryRow>> {
        Ok(QueryEngine::with_options(mode, options).execute(&self.shards[..], query)?)
    }

    /// Render the physical plan a query would execute with (`EXPLAIN`):
    /// access path, cost estimate, pushed-down projection.
    pub fn explain(&self, query: &Query) -> Result<String> {
        Ok(QueryEngine::new(ExecMode::Compiled).explain(&self.shards[..], query)?)
    }

    /// Plan and *execute* a query, returning the plan annotated with actual
    /// execution counters (`EXPLAIN ANALYZE`): rows pulled, pages read per
    /// shard, leaves the zone maps hid, the early-termination point,
    /// and wall time — plus the result rows, identical to
    /// [`ShardedDataset::query`]'s. Shards run sequentially so each
    /// shard's I/O delta is exact.
    pub fn explain_analyze(&self, query: &Query, mode: ExecMode) -> Result<AnalyzeReport> {
        Ok(QueryEngine::new(mode).explain_analyze(&self.shards[..], query)?)
    }

    /// The dataset's base name (shard partitions append `/shard-NNN`).
    pub fn name(&self) -> String {
        let full = &self.shards[0].config().name;
        full.split('/').next().unwrap_or(full).to_string()
    }

    /// A merged metrics snapshot across every shard: counters and
    /// histograms add, additive gauges sum, and the derived `amp.*` gauges
    /// are recomputed over the shard totals. Export with
    /// [`MetricsSnapshot::to_text`] or [`MetricsSnapshot::to_json`].
    pub fn metrics(&self) -> MetricsSnapshot {
        let mut shards = self.shards.iter();
        let mut merged = shards.next().expect("at least one shard").metrics();
        for shard in shards {
            merged.merge(&shard.metrics());
        }
        merged.dataset = self.name();
        // Residency gauges describe the one shared cache, so they are
        // pushed once, after the per-shard merge (which sums gauges);
        // the per-shard `cache.hits/misses/evictions` counters do add.
        if let Some(cache) = &self.leaf_cache {
            let stats = cache.stats();
            merged.push_gauge("cache.resident_bytes", stats.resident_bytes as f64);
            merged.push_gauge("cache.resident_leaves", stats.resident_leaves as f64);
            merged.push_gauge("cache.budget_bytes", stats.capacity_bytes as f64);
        }
        merged.with_derived_gauges()
    }

    /// Per-shard health: worker state, last background error, pending
    /// maintenance depth, backpressure stalls. In shard order.
    pub fn health(&self) -> Vec<DatasetHealth> {
        self.shards.iter().map(LsmDataset::health).collect()
    }

    /// The most recent `n` lifecycle events across every shard, merged by
    /// timestamp (oldest first); each entry carries its shard index.
    pub fn recent_events(&self, n: usize) -> Vec<(usize, Event)> {
        let mut all: Vec<(usize, Event)> = Vec::new();
        for (i, shard) in self.shards.iter().enumerate() {
            all.extend(shard.recent_events(n).into_iter().map(|e| (i, e)));
        }
        all.sort_by_key(|(shard, e)| (e.unix_micros, *shard, e.seq));
        if all.len() > n {
            all.drain(..all.len() - n);
        }
        all
    }

    /// Flush every shard (drains background workers).
    pub fn flush(&self) -> Result<()> {
        for shard in &self.shards {
            shard.flush()?;
        }
        Ok(())
    }

    /// Flush and merge every shard down to one component.
    pub fn compact(&self) -> Result<()> {
        for shard in &self.shards {
            shard.compact_fully()?;
        }
        Ok(())
    }

    /// Reclaim dead page-file space on every shard (see
    /// [`LsmDataset::reclaim_space`]): live pages are packed downward and
    /// the freed tail of each shard's page file is truncated. Returns the
    /// shard reports summed.
    pub fn reclaim_space(&self) -> Result<ReclaimReport> {
        let mut total = ReclaimReport::default();
        for shard in &self.shards {
            let report = shard.reclaim_space()?;
            total.components_rewritten += report.components_rewritten;
            total.pages_moved += report.pages_moved;
            total.pages_reclaimed += report.pages_reclaimed;
        }
        Ok(total)
    }

    /// Force acknowledged WAL records to the device on every shard.
    pub fn sync(&self) -> Result<()> {
        for shard in &self.shards {
            shard.sync()?;
        }
        Ok(())
    }

    /// Combined ingestion counters across shards.
    pub fn stats(&self) -> IngestStats {
        self.shards
            .iter()
            .fold(IngestStats::default(), |acc, s| acc.merged_with(&s.stats()))
    }

    /// Combined I/O counters across shards.
    pub fn io_stats(&self) -> IoStats {
        let mut total = IoStats::default();
        for shard in &self.shards {
            total.merge(&shard.io_stats());
        }
        total
    }

    /// Combined on-disk footprint across shards.
    pub fn total_stored_bytes(&self) -> u64 {
        self.shards.iter().map(LsmDataset::total_stored_bytes).sum()
    }

    /// Total live records across shards.
    pub fn count(&self) -> Result<usize> {
        let mut total = 0;
        for shard in &self.shards {
            total += shard.count()?;
        }
        Ok(total)
    }

    /// The inferred schema, taken from the shard that has observed the most
    /// columns (shards see disjoint key ranges of the same document stream,
    /// so their schemas converge as ingestion proceeds).
    pub fn schema(&self) -> schema::Schema {
        self.shards
            .iter()
            .map(LsmDataset::schema)
            .max_by_key(schema::Schema::column_count)
            .expect("a dataset has at least one shard")
    }
}

/// A streaming, key-ordered scan over a (possibly sharded) dataset: the
/// per-shard snapshot cursors, k-way merged by primary key. Fully owned —
/// the underlying snapshots pin their components, so flushes and merges
/// racing the iteration never disturb it. See [`ShardedDataset::cursor`].
///
/// The pinned snapshots keep retired components (and their pages) alive for
/// as long as the cursor exists; an iteration that pauses for a long time —
/// a network client draining a `SCAN` in chunks — can call
/// [`DocCursor::refresh`] between chunks to trade snapshot stability for
/// bounded staleness.
pub struct DocCursor {
    cursors: Vec<lsm::ScanCursor>,
    heads: Vec<Option<(Value, Value)>>,
    /// The projection the cursor was opened with (re-applied on refresh).
    projection: Option<Vec<Path>>,
    /// The last key yielded by `next()` — where a refresh resumes from.
    last_key: Option<Value>,
}

impl DocCursor {
    /// High-water mark of entries decoded and buffered across every shard's
    /// cursor so far — the streaming scan's peak memory, in records.
    pub fn peak_buffered(&self) -> usize {
        self.cursors
            .iter()
            .map(lsm::ScanCursor::peak_buffered)
            .sum()
    }

    /// Re-pin the cursor on **fresh** per-shard snapshots of `dataset` and
    /// resume just past the last key already yielded.
    ///
    /// A `DocCursor` pins one snapshot per shard for its whole lifetime, so
    /// components retired by merges while the iteration is paused cannot
    /// release their pages until the cursor drops. Long chunked streams
    /// (the RESP server's `SCAN`) call this between chunks: the old
    /// snapshots are released, new ones are pinned, and the stream resumes
    /// at the smallest live key greater than the last one delivered.
    ///
    /// Semantics change from *snapshot-stable* to *bounded-staleness*: keys
    /// not yet reached reflect writes that happened since the cursor was
    /// opened (updates are seen, deleted keys disappear, new keys appear) —
    /// but the stream stays strictly key-ascending and never repeats or
    /// skips a live key. The skip to the resume point is key-only: no
    /// record in the already-delivered prefix is re-assembled.
    ///
    /// `dataset` must be the dataset the cursor was opened on (same shard
    /// count and hash routing); passing another one gives meaningless
    /// results.
    pub fn refresh(&mut self, dataset: &ShardedDataset) -> Result<()> {
        // Release the old pins *before* taking fresh snapshots, not after:
        // holding them across the re-pin kept every retired component (its
        // pages and cached decoded leaves) alive through the refresh, and
        // on an error path the stale pins survived in `self`. Buffered
        // heads are intentionally discarded with them: they were never
        // yielded, and the fresh cursors (skipped just past `last_key`)
        // re-deliver their keys' newest versions.
        self.cursors.clear();
        self.heads.clear();
        let projection = self.projection.as_deref();
        let mut cursors = Vec::with_capacity(dataset.shards.len());
        for shard in &dataset.shards {
            let mut cursor = shard.snapshot().cursor(projection)?;
            if let Some(last) = &self.last_key {
                cursor.skip_to(last)?;
            }
            cursors.push(cursor);
        }
        self.heads = cursors.iter().map(|_| None).collect();
        self.cursors = cursors;
        Ok(())
    }

    fn fill_heads(&mut self) -> Result<()> {
        for (cursor, head) in self.cursors.iter_mut().zip(self.heads.iter_mut()) {
            if head.is_none() {
                if let Some(entry) = cursor.next() {
                    *head = Some(entry?);
                }
            }
        }
        Ok(())
    }
}

impl Iterator for DocCursor {
    type Item = Result<(Value, Value)>;

    fn next(&mut self) -> Option<Self::Item> {
        if let Err(e) = self.fill_heads() {
            return Some(Err(e));
        }
        // Shards partition by key: the smallest head is globally next and
        // unique, so plain min-selection merges the streams exactly.
        let mut best: Option<usize> = None;
        for (i, head) in self.heads.iter().enumerate() {
            let Some((key, _)) = head else { continue };
            match best {
                None => best = Some(i),
                Some(b) => {
                    let (best_key, _) = self.heads[b].as_ref().expect("head filled");
                    if docmodel::total_cmp(key, best_key) == std::cmp::Ordering::Less {
                        best = Some(i);
                    }
                }
            }
        }
        let best = best?;
        let entry = self.heads[best].take().expect("best head present");
        self.last_key = Some(entry.0.clone());
        Some(Ok(entry))
    }
}

/// A collection of named datasets — the facade over the LSM engine. It is a
/// registry: it creates, opens and names datasets, and every operation on a
/// dataset goes through its handle, [`Datastore::dataset`].
#[derive(Default)]
pub struct Datastore {
    // Field order is load-bearing: datasets drop (and quiesce their
    // background rounds) before the pool joins its worker threads.
    datasets: HashMap<String, ShardedDataset>,
    /// One background flush/merge worker pool shared by every dataset
    /// shard with `background(true)`; created lazily on first use.
    pool: Option<WorkerPool>,
}

impl Datastore {
    /// Create an empty datastore.
    pub fn new() -> Datastore {
        Datastore::default()
    }

    /// The shared worker pool, spawning it on first use: a few threads
    /// serve every background dataset in the store, instead of one thread
    /// per shard.
    fn shared_pool(&mut self) -> &WorkerPool {
        self.pool.get_or_insert_with(|| {
            let threads = std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(2)
                .clamp(2, 8);
            WorkerPool::new(threads)
        })
    }

    /// Build every shard of a new dataset from `options` and register it:
    /// `build` turns shard `i`'s configuration into the partition (in memory
    /// for `create_dataset`, in a directory for `open_dataset`).
    fn add_dataset(
        &mut self,
        name: &str,
        options: DatasetOptions,
        build: impl Fn(usize, DatasetConfig) -> lsm::Result<LsmDataset>,
    ) -> Result<()> {
        if self.datasets.contains_key(name) {
            return Err(Error::api(format!("dataset '{name}' already exists")));
        }
        let DatasetOptions {
            mut config,
            shards: count,
            background,
        } = options;
        config.memory_budget /= count;
        config.pool = background.then(|| self.shared_pool().handle());
        config.leaf_cache = shared_leaf_cache(&config, count);
        let shards = (0..count)
            .map(|i| {
                let mut config = config.clone();
                config.name = if count == 1 {
                    name.to_string()
                } else {
                    format!("{name}/shard-{i:03}")
                };
                build(i, config)
            })
            .collect::<lsm::Result<Vec<_>>>()?;
        self.datasets.insert(
            name.to_string(),
            ShardedDataset::from_shards(config.key_field, shards, config.leaf_cache),
        );
        Ok(())
    }

    /// Create a dataset. Fails if the name is taken.
    pub fn create_dataset(&mut self, name: &str, options: DatasetOptions) -> Result<()> {
        self.add_dataset(name, options, |_, config| Ok(LsmDataset::new(config)))
    }

    /// Open a **durable** dataset rooted at `dir`, creating the directory on
    /// first use and recovering it (manifest + WAL replay) on every later
    /// one. Acknowledged writes to this dataset survive restarts. With
    /// `shards(n > 1)` every shard lives in its own `shard-NNN` subdirectory.
    pub fn open_dataset(
        &mut self,
        name: &str,
        dir: impl AsRef<std::path::Path>,
        options: DatasetOptions,
    ) -> Result<()> {
        let dir = dir.as_ref();
        let sharded = options.shards > 1;
        self.add_dataset(name, options, |i, config| {
            if sharded {
                LsmDataset::open(dir.join(format!("shard-{i:03}")), config)
            } else {
                LsmDataset::open(dir, config)
            }
        })
    }

    /// Reopen a durable dataset from its directory alone, using the
    /// configuration persisted in its manifests. Detects the sharded layout
    /// (`shard-NNN` subdirectories) automatically.
    pub fn reopen_dataset(&mut self, name: &str, dir: impl AsRef<std::path::Path>) -> Result<()> {
        if self.datasets.contains_key(name) {
            return Err(Error::api(format!("dataset '{name}' already exists")));
        }
        let dir = dir.as_ref();
        let mut shard_dirs: Vec<std::path::PathBuf> = Vec::new();
        if let Ok(entries) = std::fs::read_dir(dir) {
            for entry in entries.flatten() {
                let path = entry.path();
                if path.is_dir()
                    && entry
                        .file_name()
                        .to_str()
                        .map(|n| n.starts_with("shard-"))
                        .unwrap_or(false)
                {
                    shard_dirs.push(path);
                }
            }
        }
        // Sort by the parsed shard index, not the path string: lexicographic
        // order diverges from numeric order once ids outgrow the zero
        // padding (shard-1000 would sort before shard-101), and shard order
        // must match creation order for hash routing to find records.
        shard_dirs.sort_by_key(|path| {
            path.file_name()
                .and_then(|n| n.to_str())
                .and_then(|n| n.strip_prefix("shard-"))
                .and_then(|n| n.parse::<u64>().ok())
                .unwrap_or(u64::MAX)
        });
        let dirs = if shard_dirs.is_empty() {
            vec![dir.to_path_buf()]
        } else {
            shard_dirs
        };
        // Every shard persisted the same budget slice, so the first one
        // opened sizes the shared leaf cache and the rest attach to it.
        let count = dirs.len();
        let mut leaf_cache = None;
        let shards = dirs
            .into_iter()
            .map(|shard_dir| {
                LsmDataset::reopen(shard_dir, |persisted| {
                    if leaf_cache.is_none() {
                        leaf_cache = shared_leaf_cache(persisted, count);
                    }
                    leaf_cache.clone()
                })
            })
            .collect::<lsm::Result<Vec<_>>>()?;
        let key_field = shards[0].config().key_field.clone();
        self.datasets.insert(
            name.to_string(),
            ShardedDataset::from_shards(key_field, shards, leaf_cache),
        );
        Ok(())
    }

    /// Borrow a dataset.
    pub fn dataset(&self, name: &str) -> Result<&ShardedDataset> {
        self.datasets
            .get(name)
            .ok_or_else(|| Error::api(format!("unknown dataset '{name}'")))
    }

    /// Names of all datasets.
    pub fn dataset_names(&self) -> Vec<String> {
        let mut names: Vec<String> = self.datasets.keys().cloned().collect();
        names.sort();
        names
    }

    /// Insert one document (as a [`Value`]) into the named dataset.
    /// Kept for `benchmark/`'s `wire_kv` workload, which calls it.
    pub fn ingest(&self, dataset: &str, doc: Value) -> Result<()> {
        self.dataset(dataset)?.insert(doc)
    }

    /// [`ShardedDataset::ingest_batch`] on the named dataset.
    /// Kept for `benchmark/`'s `wire_kv` workload, which calls it.
    pub fn ingest_batch(
        &self,
        dataset: &str,
        docs: Vec<Value>,
        sync_every: usize,
    ) -> Result<usize> {
        self.dataset(dataset)?.ingest_batch(docs, sync_every)
    }

    /// Health of every dataset in the store: per-shard worker state, last
    /// background error, and pending maintenance depth, keyed by dataset
    /// name (sorted).
    pub fn health(&self) -> Vec<(String, Vec<DatasetHealth>)> {
        self.dataset_names()
            .into_iter()
            .map(|name| {
                let health = self.datasets[&name].health();
                (name, health)
            })
            .collect()
    }

    /// Point lookup by primary key in the named dataset.
    /// Kept for `benchmark/`'s `wire_kv` workload, which calls it.
    pub fn get(&self, dataset: &str, key: &Value) -> Result<Option<Value>> {
        self.dataset(dataset)?.get(key)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn end_to_end_facade_roundtrip() {
        let mut store = Datastore::new();
        store
            .create_dataset(
                "tweets",
                DatasetOptions::new(Layout::Amax)
                    .key("id")
                    .memtable_budget(32 * 1024)
                    .page_size(8 * 1024),
            )
            .unwrap();
        assert!(store
            .create_dataset("tweets", DatasetOptions::new(Layout::Vb))
            .is_err());

        let tweets = store.dataset("tweets").unwrap();
        for i in 0..200i64 {
            tweets
                .insert(
                    doc!({"id": i, "likes": (i % 10), "user": {"name": (format!("u{}", i % 5))}}),
                )
                .unwrap();
        }
        tweets.flush().unwrap();

        let count = tweets
            .query(&Query::count_star(), ExecMode::Compiled)
            .unwrap();
        assert_eq!(count[0].agg(), &Value::Int(200));

        let top = tweets
            .query(
                &Query::select([
                    Aggregate::Max(Path::parse("likes")),
                    Aggregate::Avg(Path::parse("likes")),
                ])
                .group_by("user.name")
                .top_k(3),
                ExecMode::Interpreted,
            )
            .unwrap();
        assert_eq!(top.len(), 3);
        assert_eq!(top[0].aggs.len(), 2);

        let rec = tweets.get(&Value::Int(42)).unwrap().unwrap();
        assert_eq!(rec.get_field("likes"), Some(&Value::Int(2)));
        assert!(tweets.total_stored_bytes() > 0);
        assert!(tweets.schema().describe().contains("user"));
        assert_eq!(store.dataset_names(), vec!["tweets".to_string()]);
    }

    /// The facade's I/O counters are the shards' summed — all of them,
    /// including the push-down counters.
    #[test]
    fn sharded_io_stats_sum_every_counter_over_the_shards() {
        let mut store = Datastore::new();
        store
            .create_dataset(
                "zoned",
                DatasetOptions::new(Layout::Amax)
                    .memtable_budget(1 << 20)
                    .page_size(8 * 1024)
                    .shards(4),
            )
            .unwrap();
        // Two flushes per shard with disjoint keys and scores: a filter on
        // the second band lets the first component's zone map hide it.
        let zoned = store.dataset("zoned").unwrap();
        for band in [0..200i64, 200..400] {
            let docs: Vec<Value> = band.map(|i| doc!({"id": i, "score": i})).collect();
            zoned.ingest_batch(docs, 0).unwrap();
            zoned.flush().unwrap();
        }
        let q = Query::count_star().with_filter(Expr::ge("score", 300));
        let rows = zoned.query(&q, ExecMode::Compiled).unwrap();
        assert_eq!(rows[0].agg(), &Value::Int(100));
        let mut summed = IoStats::default();
        for shard in zoned.shards() {
            summed.merge(&shard.io_stats());
        }
        let facade = zoned.io_stats();
        assert_eq!(facade, summed);
        assert!(facade.leaves_skipped > 0, "{facade:?}");
        assert!(facade.records_filtered_pre_assembly > 0, "{facade:?}");
    }

    #[test]
    fn sharded_dataset_partitions_and_agrees_with_single_shard() {
        let mut store = Datastore::new();
        store
            .create_dataset(
                "sharded",
                DatasetOptions::new(Layout::Amax)
                    .memtable_budget(16 * 1024)
                    .page_size(8 * 1024)
                    .shards(4)
                    .background(true),
            )
            .unwrap();
        store
            .create_dataset(
                "single",
                DatasetOptions::new(Layout::Amax)
                    .memtable_budget(16 * 1024)
                    .page_size(8 * 1024),
            )
            .unwrap();

        let docs: Vec<Value> = (0..500i64)
            .map(|i| doc!({"id": i, "grp": (format!("g{}", i % 9)), "score": (i % 100)}))
            .collect();
        // The batch path against the one-insert-per-record reference.
        let (sharded, single) = (
            store.dataset("sharded").unwrap(),
            store.dataset("single").unwrap(),
        );
        sharded.ingest_batch(docs.clone(), 0).unwrap();
        for doc in docs {
            single.insert(doc).unwrap();
        }
        sharded.flush().unwrap();
        single.flush().unwrap();

        // Records are spread across shards (with 500 keys and 4 shards every
        // shard must own some).
        assert_eq!(sharded.shard_count(), 4);
        for shard in sharded.shards() {
            assert!(shard.count().unwrap() > 0, "every shard owns records");
        }
        assert_eq!(sharded.count().unwrap(), 500);

        // Fan-out queries agree with the unsharded reference, including the
        // mergeable AVG partials.
        for q in [
            Query::count_star(),
            Query::select([
                Aggregate::Count,
                Aggregate::Max(Path::parse("score")),
                Aggregate::Avg(Path::parse("score")),
            ])
            .group_by("grp")
            .top_k(4),
        ] {
            let a = sharded.query(&q, ExecMode::Compiled).unwrap();
            let b = single.query(&q, ExecMode::Compiled).unwrap();
            assert_eq!(a, b);
        }
        // The sharded plan advertises the fan-out.
        let plan = sharded
            .explain(&Query::count_star().group_by("grp"))
            .unwrap();
        assert!(plan.contains("shards     : 4"), "{plan}");

        // Point operations route to the owning shard.
        assert!(sharded.get(&Value::Int(123)).unwrap().is_some());
        sharded.delete(Value::Int(123)).unwrap();
        sharded.flush().unwrap();
        assert!(sharded.get(&Value::Int(123)).unwrap().is_none());
        assert_eq!(sharded.count().unwrap(), 499);
    }

    #[test]
    fn durable_dataset_survives_reopen_through_facade() {
        let dir = std::env::temp_dir().join(format!(
            "docstore-facade-tests-{}-durable",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        {
            let mut store = Datastore::new();
            store
                .open_dataset(
                    "events",
                    &dir,
                    DatasetOptions::new(Layout::Amax).page_size(8 * 1024),
                )
                .unwrap();
            let events = store.dataset("events").unwrap();
            events
                .ingest_json(
                    "{\"id\": 1, \"kind\": \"created\"}\n{\"id\": 2, \"kind\": \"deleted\"}",
                )
                .unwrap();
            events.delete(Value::Int(2)).unwrap();
            events.flush().unwrap();
            events
                .ingest_json("{\"id\": 3, \"kind\": \"unflushed\"}")
                .unwrap();
            events.sync().unwrap();
            // Dropped without a final flush: id 3 lives only in the WAL.
        }
        let mut store = Datastore::new();
        store.reopen_dataset("events", &dir).unwrap();
        assert!(store
            .create_dataset("events", DatasetOptions::new(Layout::Vb))
            .is_err());
        let events = store.dataset("events").unwrap();
        let count = events
            .query(&Query::count_star(), ExecMode::Compiled)
            .unwrap();
        assert_eq!(count[0].agg(), &Value::Int(2));
        assert!(events.get(&Value::Int(2)).unwrap().is_none());
        let recovered = events.get(&Value::Int(3)).unwrap().unwrap();
        assert_eq!(recovered.get_field("kind"), Some(&Value::from("unflushed")));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn durable_sharded_dataset_reopens_every_shard() {
        let dir = std::env::temp_dir().join(format!(
            "docstore-facade-tests-{}-durable-sharded",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        {
            let mut store = Datastore::new();
            store
                .open_dataset(
                    "events",
                    &dir,
                    DatasetOptions::new(Layout::Amax)
                        .page_size(8 * 1024)
                        .memtable_budget(16 * 1024)
                        .shards(3)
                        .background(true),
                )
                .unwrap();
            let docs: Vec<Value> = (0..300i64).map(|i| doc!({"id": i, "v": (i * 2)})).collect();
            // Group-committed batch ingest: fsync every 64 records per shard.
            let events = store.dataset("events").unwrap();
            assert_eq!(events.ingest_batch(docs, 64).unwrap(), 300);
            events.flush().unwrap();
        }
        let mut store = Datastore::new();
        store.reopen_dataset("events", &dir).unwrap();
        let events = store.dataset("events").unwrap();
        assert_eq!(events.shard_count(), 3);
        let count = events
            .query(&Query::count_star(), ExecMode::Compiled)
            .unwrap();
        assert_eq!(count[0].agg(), &Value::Int(300));
        let rec = events.get(&Value::Int(217)).unwrap().unwrap();
        assert_eq!(rec.get_field("v"), Some(&Value::Int(434)));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn sharded_index_probe_fans_out_and_matches_scan() {
        // The planner's index-probe path must work through the sharded
        // dataset: every shard probes its own timestamp index and the
        // partials merge to the scan answer.
        let mut store = Datastore::new();
        for (name, shards) in [("sharded", 4), ("single", 1)] {
            store
                .create_dataset(
                    name,
                    DatasetOptions::new(Layout::Amax)
                        .memtable_budget(16 * 1024)
                        .page_size(8 * 1024)
                        .shards(shards)
                        .secondary_index("ts"),
                )
                .unwrap();
        }
        let docs: Vec<Value> = (0..400i64)
            .map(|i| doc!({"id": i, "ts": (1000 + i), "grp": (format!("g{}", i % 5)), "score": (i % 100)}))
            .collect();
        let (sharded, single) = (
            store.dataset("sharded").unwrap(),
            store.dataset("single").unwrap(),
        );
        sharded.ingest_batch(docs.clone(), 0).unwrap();
        single.ingest_batch(docs, 0).unwrap();
        sharded.flush().unwrap();
        single.flush().unwrap();

        let q = Query::select([
            Aggregate::Count,
            Aggregate::Max(Path::parse("score")),
            Aggregate::Avg(Path::parse("score")),
        ])
        .with_filter(Expr::between("ts", 1100, 1299))
        .group_by("grp");

        // Forced through the index, the plan probes and fans out; the
        // default (cost-based) plan shows its estimate either way.
        let force_index =
            query::PlannerOptions::with_access_path(query::AccessPathChoice::ForceIndex);
        let plan = QueryEngine::with_options(ExecMode::Compiled, force_index)
            .explain(sharded.shards(), &q)
            .unwrap();
        assert!(
            plan.contains("secondary-index range probe on `ts`"),
            "{plan}"
        );
        assert!(plan.contains("shards     : 4"), "{plan}");
        let plan = sharded.explain(&q).unwrap();
        assert!(plan.contains("selectivity"), "{plan}");

        for mode in [ExecMode::Compiled, ExecMode::Interpreted] {
            let single = single.query(&q, mode).unwrap();
            // Every access-path policy agrees, sharded or not.
            for choice in [
                query::AccessPathChoice::Auto,
                query::AccessPathChoice::ForceIndex,
                query::AccessPathChoice::ForceScan,
            ] {
                let options = query::PlannerOptions::with_access_path(choice);
                let rows = sharded.query_with_options(&q, mode, options).unwrap();
                assert_eq!(rows, single, "{mode:?} {choice:?}");
            }
            let rows = sharded.query(&q, mode).unwrap();
            assert_eq!(
                rows.iter()
                    .map(|r| r.aggs[0].as_int().unwrap())
                    .sum::<i64>(),
                200
            );
        }
    }

    #[test]
    fn raw_select_and_cursor_stream_through_the_facade() {
        let mut store = Datastore::new();
        store
            .create_dataset(
                "events",
                DatasetOptions::new(Layout::Amax)
                    .memtable_budget(16 * 1024)
                    .page_size(8 * 1024)
                    .shards(3),
            )
            .unwrap();
        let docs: Vec<Value> = (0..200i64)
            .map(|i| doc!({"id": i, "kind": (format!("k{}", i % 4)), "size": (i % 50)}))
            .collect();
        let events = store.dataset("events").unwrap();
        events.ingest_batch(docs, 0).unwrap();
        events.flush().unwrap();

        // Raw-column SELECT with ORDER BY key LIMIT: rows come back in
        // global key order across the three shards.
        let q = Query::select_paths(["kind", "size"])
            .with_filter(Expr::ge("size", 10))
            .order_by_key()
            .with_limit(5);
        let rows = events.query(&q, ExecMode::Compiled).unwrap();
        assert_eq!(rows.len(), 5);
        let keys: Vec<i64> = rows
            .iter()
            .map(|r| r.group.as_ref().unwrap().as_int().unwrap())
            .collect();
        assert_eq!(keys, vec![10, 11, 12, 13, 14]);
        assert_eq!(rows[0].aggs.len(), 2);
        let plan = events.explain(&q).unwrap();
        assert!(plan.contains("SELECT kind, size"), "{plan}");
        assert!(plan.contains("key ASC LIMIT 5"), "{plan}");
        assert!(plan.contains("key-ordered row streams"), "{plan}");

        // The streaming cursor merges the per-shard streams in key order
        // and supports early drop.
        let mut cursor = events.cursor(None).unwrap();
        let mut seen = Vec::new();
        for entry in cursor.by_ref().take(10) {
            let (key, doc) = entry.unwrap();
            assert_eq!(doc.get_field("id"), Some(&key));
            seen.push(key.as_int().unwrap());
        }
        assert_eq!(seen, (0..10).collect::<Vec<i64>>());
        drop(cursor);
        // Projection-aware: only the requested column is assembled.
        let projection = [Path::parse("size")];
        let (key, doc) = events
            .cursor(Some(&projection))
            .unwrap()
            .next()
            .unwrap()
            .unwrap();
        assert_eq!(key, Value::Int(0));
        assert!(doc.get_field("size").is_some());
        assert!(doc.get_field("kind").is_none(), "unprojected column absent");
    }

    #[test]
    fn cursor_refresh_resumes_past_delivered_prefix_with_fresh_state() {
        let mut store = Datastore::new();
        store
            .create_dataset(
                "stream",
                DatasetOptions::new(Layout::Amax)
                    .memtable_budget(16 * 1024)
                    .page_size(8 * 1024)
                    .shards(3),
            )
            .unwrap();
        let docs: Vec<Value> = (0..300i64).map(|i| doc!({"id": i, "v": i})).collect();
        let ds = store.dataset("stream").unwrap();
        ds.ingest_batch(docs, 0).unwrap();
        ds.flush().unwrap();

        let mut cursor = ds.cursor(None).unwrap();
        let first: Vec<i64> = cursor
            .by_ref()
            .take(100)
            .map(|e| e.unwrap().0.as_int().unwrap())
            .collect();
        assert_eq!(first, (0..100).collect::<Vec<i64>>());

        // Mutate the dataset while the cursor is paused: update a key in the
        // undelivered region, delete another, append new tail keys, and
        // compact so the original components are retired.
        ds.insert(doc!({"id": (150i64), "v": (-1i64)})).unwrap();
        ds.delete(Value::Int(200)).unwrap();
        ds.insert(doc!({"id": (300i64), "v": (300i64)})).unwrap();
        ds.compact().unwrap();

        // Without refresh the pinned snapshots would still show the old
        // state; after refresh the continuation reflects it, resumes
        // strictly after key 99, and stays ascending and duplicate-free.
        cursor.refresh(ds).unwrap();
        let rest: Vec<(i64, i64)> = cursor
            .map(|e| {
                let (k, d) = e.unwrap();
                (
                    k.as_int().unwrap(),
                    d.get_field("v").unwrap().as_int().unwrap(),
                )
            })
            .collect();
        let keys: Vec<i64> = rest.iter().map(|(k, _)| *k).collect();
        let expected: Vec<i64> = (100..=300).filter(|k| *k != 200).collect();
        assert_eq!(keys, expected);
        let updated = rest.iter().find(|(k, _)| *k == 150).unwrap();
        assert_eq!(updated.1, -1, "refresh must surface the post-pause update");
    }

    #[test]
    fn query_errors_keep_their_kind_through_the_facade() {
        let mut store = Datastore::new();
        store
            .create_dataset("d", DatasetOptions::new(Layout::Amax).page_size(8 * 1024))
            .unwrap();
        // Plan validation error.
        let err = store
            .dataset("d")
            .unwrap()
            .query(&Query::new(), ExecMode::Compiled)
            .unwrap_err();
        assert!(
            matches!(err, Error::Query(query::Error::InvalidPlan(_))),
            "{err:?}"
        );
        // Facade-level error.
        let Err(err) = store.dataset("nope") else {
            panic!("an unknown dataset is an error");
        };
        assert!(matches!(err, Error::Api(_)), "{err:?}");
        assert!(err.to_string().contains("unknown dataset"));
    }

    #[test]
    fn json_ingestion_and_deletes() {
        let mut store = Datastore::new();
        store
            .create_dataset("d", DatasetOptions::new(Layout::Apax).page_size(8 * 1024))
            .unwrap();
        let d = store.dataset("d").unwrap();
        let n = d
            .ingest_json("{\"id\": 1, \"v\": 1}\n{\"id\": 2, \"v\": \"two\"}")
            .unwrap();
        assert_eq!(n, 2);
        assert!(d.ingest_json("not json").is_err());
        d.delete(Value::Int(1)).unwrap();
        d.compact().unwrap();
        assert!(d.get(&Value::Int(1)).unwrap().is_none());
        assert!(d.get(&Value::Int(2)).unwrap().is_some());
    }

    #[test]
    fn telemetry_flows_through_the_facade() {
        let mut store = Datastore::new();
        store
            .create_dataset(
                "obs",
                DatasetOptions::new(Layout::Amax)
                    .memtable_budget(16 * 1024)
                    .page_size(8 * 1024)
                    .shards(3),
            )
            .unwrap();
        let docs: Vec<Value> = (0..300i64)
            .map(|i| doc!({"id": i, "grp": (format!("g{}", i % 5)), "score": (i % 100)}))
            .collect();
        let obs = store.dataset("obs").unwrap();
        obs.ingest_batch(docs, 0).unwrap();
        obs.flush().unwrap();

        // Merged metrics: counters sum across shards; the amp gauges are
        // recomputed over the merged totals (never summed per shard).
        let metrics = obs.metrics();
        assert_eq!(metrics.dataset, "obs");
        assert_eq!(metrics.shards, 3);
        assert_eq!(metrics.counter("ingest.records"), 300);
        assert!(metrics.counter("flush.count") >= 3, "every shard flushed");
        let write_amp = metrics.gauge("amp.write").unwrap();
        let expected = metrics.counter("storage.bytes_written") as f64
            / metrics.counter("ingest.bytes") as f64;
        assert!(
            (write_amp - expected).abs() < 1e-9,
            "{write_amp} vs {expected}"
        );
        assert!(metrics.to_json().contains("\"shards\": 3"));

        // Health: one entry per shard, all idle-inline and error-free.
        let health = store.health();
        assert_eq!(health.len(), 1);
        let (name, shards) = &health[0];
        assert_eq!(name, "obs");
        assert_eq!(shards.len(), 3);
        for h in shards {
            assert_eq!(h.worker, lsm::WorkerState::Inline);
            assert!(h.last_error.is_none());
        }

        // Events: merged across shards, tagged with their shard index.
        let events = obs.recent_events(64);
        assert!(events.iter().any(|(_, e)| e.kind.label() == "flush_end"));
        let shard_ids: std::collections::BTreeSet<usize> = events.iter().map(|(i, _)| *i).collect();
        assert_eq!(shard_ids.len(), 3, "every shard contributed events");

        // EXPLAIN ANALYZE through the facade: same rows as query(), exact
        // early-termination point for a limited key-ordered select.
        let q = Query::select_paths(["score"]).order_by_key().with_limit(7);
        let expected = obs.query(&q, ExecMode::Compiled).unwrap();
        let report = obs.explain_analyze(&q, ExecMode::Compiled).unwrap();
        assert_eq!(report.rows, expected);
        assert_eq!(report.shards.len(), 3);
        assert_eq!(report.early_termination(), Some(report.rows_pulled()));
        assert!(
            report.rows_pulled() < 300,
            "LIMIT 7 must not drain 300 records"
        );
        assert!(
            report.describe().contains("analyze[shard 1]"),
            "{}",
            report.describe()
        );

        // Telemetry off: the dataset still answers, the registry stays dark.
        store
            .create_dataset(
                "dark",
                DatasetOptions::new(Layout::Vb)
                    .page_size(8 * 1024)
                    .telemetry(false),
            )
            .unwrap();
        let dark = store.dataset("dark").unwrap();
        dark.insert(doc!({"id": 1, "v": 2})).unwrap();
        dark.flush().unwrap();
        assert_eq!(dark.metrics().counter("ingest.records"), 0);
        assert!(dark.recent_events(16).is_empty());
        assert_eq!(
            dark.get(&Value::Int(1)).unwrap().unwrap().get_field("v"),
            Some(&Value::Int(2))
        );
    }

    #[test]
    fn memory_budget_makes_warm_rescans_free_and_shows_in_explain() {
        let mut store = Datastore::new();
        store
            .create_dataset(
                "warm",
                DatasetOptions::new(Layout::Amax)
                    .memtable_budget(16 * 1024)
                    .page_size(8 * 1024)
                    .shards(2)
                    .memory_budget(16 << 20),
            )
            .unwrap();
        let docs: Vec<Value> = (0..400i64)
            .map(|i| doc!({"id": i, "score": (i % 100), "grp": (format!("g{}", i % 4))}))
            .collect();
        let ds = store.dataset("warm").unwrap();
        ds.ingest_batch(docs, 0).unwrap();
        ds.flush().unwrap();

        let cache = ds.leaf_cache().expect("budget configures a shared cache");
        assert_eq!(
            cache.capacity_bytes(),
            8 << 20,
            "half the budget funds the cache"
        );

        // Cold run: every leaf is a miss and pages are read.
        let q = Query::count_star().with_filter(Expr::ge("score", 0));
        cache.clear();
        let cold_plan = ds.explain(&q).unwrap();
        let cold = ds.explain_analyze(&q, ExecMode::Compiled).unwrap();
        assert_eq!(cold.rows[0].agg(), &Value::Int(400));
        assert!(cold.cache_misses() > 0, "{cold:?}");
        assert_eq!(cold.cache_hits(), 0);

        // Warm re-run: cache hits == leaves touched (the cold misses),
        // zero misses, zero pages read — the acceptance criterion.
        let warm = ds.explain_analyze(&q, ExecMode::Compiled).unwrap();
        assert_eq!(warm.rows, cold.rows);
        assert_eq!(warm.cache_hits(), cold.cache_misses());
        assert_eq!(warm.cache_misses(), 0);
        assert_eq!(warm.pages_read(), 0, "{}", warm.describe());
        assert!(
            warm.describe().contains("cache hits"),
            "{}",
            warm.describe()
        );

        // Planning reads no cache: a warm cache plans as a cold one.
        assert_eq!(ds.explain(&q).unwrap(), cold_plan);

        // Telemetry: per-shard counters summed, residency gauges pushed
        // once for the one shared cache.
        let metrics = ds.metrics();
        let io = ds.io_stats();
        assert_eq!(metrics.counter("cache.hits"), io.leaf_cache_hits);
        assert_eq!(metrics.counter("cache.misses"), io.leaf_cache_misses);
        assert_eq!(io.leaf_cache_hits, warm.cache_hits());
        assert_eq!(io.leaf_cache_misses, cold.cache_misses());
        assert_eq!(
            metrics.gauge("cache.resident_leaves"),
            Some(cache.resident_leaves() as f64)
        );
        assert_eq!(metrics.gauge("cache.budget_bytes"), Some((8 << 20) as f64));
        let resident = metrics.gauge("cache.resident_bytes").unwrap();
        assert!(resident > 0.0 && resident <= (8 << 20) as f64, "{resident}");
    }

    #[test]
    fn cursor_refresh_releases_retired_components_promptly() {
        let mut store = Datastore::new();
        store
            .create_dataset(
                "churn",
                DatasetOptions::new(Layout::Amax)
                    .memtable_budget(16 * 1024)
                    .page_size(8 * 1024)
                    .shards(2)
                    .memory_budget(16 << 20),
            )
            .unwrap();
        let docs: Vec<Value> = (0..300i64).map(|i| doc!({"id": i, "v": i})).collect();
        let ds = store.dataset("churn").unwrap();
        ds.ingest_batch(docs, 0).unwrap();
        ds.flush().unwrap();
        let cache = ds.leaf_cache().unwrap().clone();

        // Warm the cache through a full scan, then pause mid-stream with a
        // second cursor pinning the current components.
        let full: Vec<i64> = ds
            .cursor(None)
            .unwrap()
            .map(|e| e.unwrap().0.as_int().unwrap())
            .collect();
        assert_eq!(full.len(), 300);
        let mut cursor = ds.cursor(None).unwrap();
        for _ in 0..50 {
            cursor.next().unwrap().unwrap();
        }

        // Retire the pinned components: flush new data and merge down.
        // (Unpinned intermediates may already invalidate here; the *pinned*
        // components' leaves must still be resident.)
        ds.insert(doc!({"id": (300i64), "v": (300i64)})).unwrap();
        ds.compact().unwrap();
        let before = cache.stats();
        assert!(
            before.resident_leaves > 0,
            "pinned snapshots must keep the retired components' leaves alive: {before:?}"
        );

        // refresh() drops the old pins *before* re-pinning: the retired
        // components drop on the spot and invalidate their cached leaves.
        cursor.refresh(ds).unwrap();
        assert!(
            cache.stats().invalidations > before.invalidations,
            "refresh must release retired components promptly: {:?}",
            cache.stats()
        );
        // The resumed stream is still exact.
        let rest: Vec<i64> = cursor.map(|e| e.unwrap().0.as_int().unwrap()).collect();
        assert_eq!(rest, (50..=300).collect::<Vec<i64>>());
    }

    #[test]
    fn concurrent_readers_share_the_cache_and_match_the_oracle() {
        let mut store = Datastore::new();
        store
            .create_dataset(
                "fleet",
                DatasetOptions::new(Layout::Amax)
                    .memtable_budget(16 * 1024)
                    .page_size(8 * 1024)
                    .shards(2)
                    .memory_budget(4 << 20),
            )
            .unwrap();
        let n = 400i64;
        let docs: Vec<Value> = (0..n).map(|i| doc!({"id": i, "v": (i * 3)})).collect();
        let ds = store.dataset("fleet").unwrap();
        ds.ingest_batch(docs, 0).unwrap();
        ds.flush().unwrap();
        let cache = ds.leaf_cache().unwrap();

        // A fleet of readers: half run key-ordered range scans, half run
        // point reads, all through the one shared cache. Every result is
        // checked against the arithmetic oracle.
        std::thread::scope(|scope| {
            for t in 0..6u64 {
                scope.spawn(move || {
                    if t % 2 == 0 {
                        for round in 0..3 {
                            let keys: Vec<i64> = ds
                                .cursor(None)
                                .unwrap()
                                .map(|e| {
                                    let (k, d) = e.unwrap();
                                    let (k, v) = (
                                        k.as_int().unwrap(),
                                        d.get_field("v").unwrap().as_int().unwrap(),
                                    );
                                    assert_eq!(v, k * 3, "round {round}");
                                    k
                                })
                                .collect();
                            assert_eq!(keys, (0..n).collect::<Vec<i64>>());
                        }
                    } else {
                        for i in 0..200u64 {
                            let key = ((i * 7919 + t * 31) % n as u64) as i64;
                            let rec = ds.get(&Value::Int(key)).unwrap().unwrap();
                            assert_eq!(rec.get_field("v"), Some(&Value::Int(key * 3)));
                        }
                    }
                });
            }
        });

        // Residency stays bounded by the budgeted capacity throughout (the
        // cache never admits past its capacity, so the final state is as
        // good as a peak: no moment could exceed it).
        let stats = cache.stats();
        assert!(stats.resident_bytes <= stats.capacity_bytes, "{stats:?}");
        assert!(
            ds.io_stats().leaf_cache_hits > 0,
            "concurrent readers must share warm leaves"
        );

        // Monotone hit rate on a re-scanned hot range: a second identical
        // scan can only raise the hit fraction.
        let rate = |io: IoStats| {
            io.leaf_cache_hits as f64 / (io.leaf_cache_hits + io.leaf_cache_misses).max(1) as f64
        };
        let q = Query::count_star().with_filter(Expr::between("id", 0, 99));
        ds.query(&q, ExecMode::Compiled).unwrap();
        let first = rate(ds.io_stats());
        ds.query(&q, ExecMode::Compiled).unwrap();
        let second = rate(ds.io_stats());
        assert!(
            second >= first,
            "hit rate must be monotone: {first} -> {second}"
        );
    }

    #[test]
    fn reopened_sharded_dataset_rebuilds_one_shared_cache() {
        // What a budget decides: the shared cache's capacity and every
        // shard's memtable budget and page-cache size.
        let caching = |ds: &ShardedDataset| {
            let cache = ds.leaf_cache().expect("a budget funds the shared cache");
            let shards: Vec<(usize, usize)> = ds
                .shards()
                .iter()
                .map(|s| (s.config().memtable_budget, s.config().cache_pages))
                .collect();
            (cache.capacity_bytes(), shards)
        };
        // The second budget divides by neither the shard count nor four.
        for (case, budget) in [16usize << 20, (16 << 20) + 3].into_iter().enumerate() {
            let dir = std::env::temp_dir().join(format!(
                "docstore-facade-tests-{}-durable-budget-{case}",
                std::process::id()
            ));
            let _ = std::fs::remove_dir_all(&dir);
            let created = {
                let mut store = Datastore::new();
                store
                    .open_dataset(
                        "events",
                        &dir,
                        DatasetOptions::new(Layout::Amax)
                            .page_size(8 * 1024)
                            .memory_budget(budget)
                            .shards(4),
                    )
                    .unwrap();
                let docs: Vec<Value> = (0..200i64).map(|i| doc!({"id": i, "v": i})).collect();
                let events = store.dataset("events").unwrap();
                events.ingest_batch(docs, 0).unwrap();
                events.flush().unwrap();
                caching(events)
            };
            // Reopened from the directory alone, the persisted per-shard
            // slices decide exactly the same caching.
            let mut store = Datastore::new();
            store.reopen_dataset("events", &dir).unwrap();
            let ds = store.dataset("events").unwrap();
            assert_eq!(caching(ds), created, "budget {budget}");
            if case == 0 {
                assert_eq!(created.0, 8 << 20, "half the budget funds the cache");
                assert_eq!(
                    created.1,
                    vec![(1 << 20, 128); 4],
                    "a quarter each, per shard"
                );
            }
            let q = Query::count_star().with_filter(Expr::ge("v", 0));
            let cold = ds.explain_analyze(&q, ExecMode::Compiled).unwrap();
            assert_eq!(cold.rows[0].agg(), &Value::Int(200));
            let warm = ds.explain_analyze(&q, ExecMode::Compiled).unwrap();
            assert_eq!(warm.pages_read(), 0, "{}", warm.describe());
            assert_eq!(warm.cache_hits(), cold.cache_misses());
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    /// Four shards, synchronous flushes and a memtable small enough that
    /// [`batch_docs`] seals every shard's memtable at least once, so the
    /// flush runs on whichever thread inserts.
    fn four_small_shards() -> DatasetOptions {
        DatasetOptions::new(Layout::Amax)
            .memtable_budget(4 * 1024)
            .page_size(4 * 1024)
            .shards(4)
            .background(false)
    }

    fn batch_docs() -> Vec<Value> {
        (0..800i64)
            .map(|i| doc!({"id": i, "v": (i * 3), "s": (format!("s{}", i % 17))}))
            .collect()
    }

    /// The stage scopes that ran on this thread while `ingest` did.
    fn stages_on_this_thread(ingest: impl FnOnce()) -> telemetry::stage::StageTimes {
        let clock = telemetry::stage::StageClock::start();
        ingest();
        clock.stop()
    }

    #[test]
    fn batches_ingest_on_the_callers_thread() {
        let dir = std::env::temp_dir().join(format!(
            "docstore-facade-tests-{}-callers-thread",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        {
            let mut store = Datastore::new();
            store.create_dataset("mem", four_small_shards()).unwrap();
            store
                .open_dataset("disk", &dir, four_small_shards())
                .unwrap();
            for name in ["mem", "disk"] {
                let dataset = store.dataset(name).unwrap();
                let stages = stages_on_this_thread(|| {
                    assert_eq!(dataset.ingest_batch(batch_docs(), 16).unwrap(), 800);
                });
                // The flushes ran here, durable and synced or not: no
                // partition went to a thread of its own.
                let encoded = stages.count(telemetry::stage::Stage::ChunkEncode);
                let written = stages.count(telemetry::stage::Stage::PageWrite);
                assert!(encoded > 0 && written > 0, "{name}: {stages}");
                for shard in dataset.shards() {
                    assert!(shard.stats().flushes > 0);
                }
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_durable_batch_writes_its_wal_once_per_commit_group() {
        use telemetry::stage::Stage;
        let dir = std::env::temp_dir().join(format!(
            "docstore-facade-tests-{}-wal-groups",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        {
            let mut store = Datastore::new();
            let options = DatasetOptions::new(Layout::Amax).background(false);
            store.open_dataset("disk", &dir, options).unwrap();
            let disk = store.dataset("disk").unwrap();
            let docs = |from: i64| -> Vec<Value> {
                (from..from + 100)
                    .map(|i| doc!({"id": i, "v": (i * 3)}))
                    .collect()
            };
            // No sync: the 100 frames reach the OS in one write at the end.
            let stages = stages_on_this_thread(|| {
                disk.ingest_batch(docs(0), 0).unwrap();
            });
            assert_eq!(stages.count(Stage::WalWrite), 1, "{stages}");
            assert_eq!(stages.count(Stage::WalSync), 0, "{stages}");
            // A sync every 25 records: four groups, each one write and one
            // fsync, and nothing left for the end of the batch.
            let stages = stages_on_this_thread(|| {
                disk.ingest_batch(docs(100), 25).unwrap();
            });
            assert_eq!(stages.count(Stage::WalWrite), 4, "{stages}");
            assert_eq!(stages.count(Stage::WalSync), 4, "{stages}");
            let shard = &disk.shards()[0];
            assert_eq!(shard.stats().flushes, 0, "no seal may split a group");
            assert_eq!(shard.count().unwrap(), 200);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn durable_and_in_memory_batches_leave_the_same_records_in_every_shard() {
        let dir = std::env::temp_dir().join(format!(
            "docstore-facade-tests-{}-same-records",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        {
            let mut store = Datastore::new();
            store.create_dataset("mem", four_small_shards()).unwrap();
            store
                .open_dataset("disk", &dir, four_small_shards())
                .unwrap();
            let (mem, disk) = (
                store.dataset("mem").unwrap(),
                store.dataset("disk").unwrap(),
            );
            mem.ingest_batch(batch_docs(), 16).unwrap();
            disk.ingest_batch(batch_docs(), 16).unwrap();
            let (mem, disk) = (mem.shards(), disk.shards());
            for (mem, disk) in mem.iter().zip(disk) {
                let records = mem.scan(None).unwrap();
                assert!(!records.is_empty());
                assert_eq!(records, disk.scan(None).unwrap());
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn zero_shards_clamps_to_one_partition() {
        // Only the clamping builder sets the shard count: with zero
        // partitions the first insert would divide by zero routing its key.
        let mut store = Datastore::new();
        store
            .create_dataset("clamped", DatasetOptions::new(Layout::Vb).shards(0))
            .unwrap();
        let clamped = store.dataset("clamped").unwrap();
        clamped.insert(doc!({"id": 1})).unwrap();
        assert_eq!(clamped.shard_count(), 1);
    }
}
