//! One LSM-backed dataset partition.
//!
//! [`LsmDataset`] is the unit the facade crate and the benchmarks work with:
//! it owns the in-memory component, the stack of on-disk components (in the
//! configured layout), the cumulative inferred schema, the merge policy and
//! the optional secondary index (with the primary-key filter its
//! maintenance consults).
//!
//! Lifecycle, as in the paper:
//!
//! * inserts/upserts/deletes go to the memtable; the secondary index is kept
//!   correct by fetching the old record's indexed values first (a point
//!   lookup, §4.6: a binary search of the leaf's decoded keys, then — for
//!   columnar layouts — the assembly of the indexed column alone);
//! * when the memtable exceeds its budget it is *sealed* and flushed: the
//!   tuple compactor observes the flushed records to grow the inferred
//!   schema and the records are written as an on-disk component in the
//!   dataset's layout;
//! * the tiering merge policy may then schedule a *merge*, which reconciles
//!   the chosen components (newest version of each key wins, anti-matter
//!   annihilates older records) into a new component and frees the old pages.
//!
//! ## Concurrency
//!
//! All operations take `&self`; the dataset can be shared across threads
//! (writers, readers, and — with a [`DatasetConfig::pool`] — the pool's
//! flush/merge workers). The mutable state is split so readers never wait on
//! flushes or merges:
//!
//! * a small **write lock** guards the active memtable and the in-memory
//!   indexes — held only for the duration of one insert/delete, of a point
//!   read's memtable probe (which copies the entries it returns and nothing
//!   else), or of a snapshot's pin of the active memtable's frozen copy
//!   (built by the first snapshot after a write, shared until the next);
//! * the rest of the tree (sealed memtables + on-disk components) is an
//!   immutable [`TreeState`], swapped atomically behind an `RwLock<Arc<_>>`;
//!   readers grab the `Arc` and are done;
//! * a **maintenance lock** serialises flushes and merges (the fair FCFS
//!   scheduling of the paper's setup) and owns the schema builder and
//!   component id counter;
//! * the crate-private `Scheduler` coordinates the optional background
//!   worker and applies ingest backpressure when sealed memtables pile up.

use std::ops::{Bound, Range};
use std::sync::{Arc, Weak};
use std::time::{Duration, Instant};

use docmodel::{Path, Value};
use encoding::{plain, varint};
use parking_lot::{Mutex, RwLock};
use persist::{CrashPoint, DurableStore, ManifestData, ManifestStore, WalRecord};
use schema::{Schema, SchemaBuilder};
use storage::amax::AmaxConfig;
use storage::component::{Component, ComponentConfig, Entry};
use storage::leafcache::LeafCache;
use storage::pagestore::{BufferCache, IoStats, PageId, PageStore, DEFAULT_CACHE_PAGES};
use storage::LayoutKind;
use telemetry::stage::Stage;
use telemetry::{Event, EventKind, Histogram, MetricsSnapshot, Telemetry};

use crate::index::{PrimaryKeyIndex, SecondaryIndex};
use crate::memtable::Memtable;
use crate::merge::{merge_components, MergeLane, MergeReport};
use crate::policy::CompactionSpec;
use crate::pool::{PoolHandle, Priority};
use crate::scheduler::Scheduler;
use crate::snapshot::{EntryMergeCursor, ScanSpec, SealedMemtable, Snapshot, TreeState};
use crate::Result;

/// Configuration of one dataset partition.
#[derive(Debug, Clone)]
pub struct DatasetConfig {
    /// Dataset name (used in experiment output).
    pub name: String,
    /// Storage layout of on-disk components.
    pub layout: LayoutKind,
    /// Name of the primary-key field (must be present in every record).
    pub key_field: String,
    /// Flush the memtable once it holds roughly this many bytes.
    pub memtable_budget: usize,
    /// Page size of the simulated disk.
    pub page_size: usize,
    /// Buffer-cache capacity in pages.
    pub cache_pages: usize,
    /// Compaction strategy (persisted in the manifest).
    pub compaction: CompactionSpec,
    /// Maintain a secondary index on this path (e.g. `timestamp`).
    pub secondary_index_on: Option<Path>,
    /// AMAX-specific knobs.
    pub amax: AmaxConfig,
    /// With a `pool`: how many sealed memtables may queue before ingestion
    /// is backpressured (blocks until a flush retires one).
    pub max_sealed_memtables: usize,
    /// Run flushes and merges as rounds on this worker pool (see
    /// [`WorkerPool`](crate::WorkerPool)) instead of blocking the inserting
    /// thread (the paper's background-job LSM lifecycle, §2.1/§6.3). One
    /// pool serves any number of datasets/shards with flush-before-merge
    /// priority. `None`, the default, flushes and merges inline, which keeps
    /// single-threaded experiments deterministic. Runtime-only, not
    /// persisted.
    pub pool: Option<PoolHandle>,
    /// Record metrics and lifecycle events in the dataset's [`Telemetry`]
    /// registry. On by default; the benchmark turns it off to measure the
    /// instrumentation overhead (`telemetry_overhead_pct`). Runtime-only,
    /// not persisted.
    pub telemetry_enabled: bool,
    /// This partition's slice of a memory budget, in bytes; `0` = none. A
    /// nonzero slice is spent by [`DatasetConfig::budget_split`], which then
    /// overrides `memtable_budget` and `cache_pages`; the slice is what the
    /// manifest persists, so a reopened dataset spends it the same way.
    pub memory_budget: usize,
    /// Shared decoded-leaf cache ([`LeafCache`]) to read leaves through. One
    /// `Arc`'d cache is shared by every shard of a sharded dataset (and could
    /// be shared by unrelated datasets). Runtime-only, not persisted: the
    /// opener attaches it, or a budgeted partition derives a private one.
    pub leaf_cache: Option<Arc<LeafCache>>,
}

impl DatasetConfig {
    /// A reasonable laptop-scale default for the given layout.
    pub fn new(name: impl Into<String>, layout: LayoutKind) -> DatasetConfig {
        DatasetConfig {
            name: name.into(),
            layout,
            key_field: "id".to_string(),
            memtable_budget: 4 << 20,
            page_size: 128 * 1024,
            cache_pages: DEFAULT_CACHE_PAGES,
            compaction: CompactionSpec::default(),
            secondary_index_on: None,
            amax: AmaxConfig::default(),
            max_sealed_memtables: 2,
            pool: None,
            telemetry_enabled: true,
            memory_budget: 0,
            leaf_cache: None,
        }
    }

    /// Builder-style: set the primary-key field name.
    pub fn with_key_field(mut self, key: impl Into<String>) -> Self {
        self.key_field = key.into();
        self
    }

    /// Builder-style: set the memtable budget in bytes.
    pub fn with_memtable_budget(mut self, bytes: usize) -> Self {
        self.memtable_budget = bytes;
        self
    }

    /// Builder-style: set the page size in bytes.
    pub fn with_page_size(mut self, bytes: usize) -> Self {
        self.page_size = bytes;
        self
    }

    /// Builder-style: set the buffer-cache capacity in pages.
    pub fn with_cache_pages(mut self, pages: usize) -> Self {
        self.cache_pages = pages;
        self
    }

    /// Builder-style: declare a secondary index.
    pub fn with_secondary_index(mut self, path: Path) -> Self {
        self.secondary_index_on = Some(path);
        self
    }

    /// Builder-style: select the compaction strategy.
    pub fn with_compaction(mut self, compaction: CompactionSpec) -> Self {
        self.compaction = compaction;
        self
    }

    /// Builder-style: bound the sealed-memtable queue (backpressure point).
    pub fn with_max_sealed(mut self, max: usize) -> Self {
        self.max_sealed_memtables = max.max(1);
        self
    }

    /// Builder-style: run flushes and merges in the background on a
    /// [`WorkerPool`](crate::WorkerPool), which other datasets may share.
    pub fn with_pool(mut self, pool: PoolHandle) -> Self {
        self.pool = Some(pool);
        self
    }

    /// Builder-style: enable or disable the telemetry registry. With it
    /// off, [`LsmDataset::stats`] reads zero.
    pub fn with_telemetry(mut self, enabled: bool) -> Self {
        self.telemetry_enabled = enabled;
        self
    }

    /// Builder-style: put this partition under a memory-budget slice of
    /// `bytes` (persisted; see [`DatasetConfig::memory_budget`]).
    pub fn with_memory_budget(mut self, bytes: usize) -> Self {
        self.memory_budget = bytes;
        self
    }

    /// Builder-style: read decoded leaves through a shared [`LeafCache`].
    pub fn with_leaf_cache(mut self, cache: Arc<LeafCache>) -> Self {
        self.leaf_cache = Some(cache);
        self
    }

    /// How a nonzero [`memory_budget`](DatasetConfig::memory_budget) slice
    /// is spent — the one place the split is computed (the prose is on
    /// `docstore::DatasetOptions::memory_budget`). `None` without a budget.
    pub fn budget_split(&self) -> Option<BudgetSplit> {
        (self.memory_budget > 0).then(|| {
            let quarter = self.memory_budget / 4;
            BudgetSplit {
                leaf_cache_bytes: self.memory_budget / 2,
                memtable_budget: quarter.max(64 << 10),
                cache_pages: (quarter / self.page_size.max(1)).max(8),
            }
        })
    }

    /// Encode the durable half of this configuration for the manifest: what
    /// a directory needs to describe itself. The page size travels beside it
    /// (`persist` owns that field); the pool, telemetry and
    /// leaf-cache knobs are the opener's and are not recorded, nor are the
    /// memtable and page-cache sizes a budget slice derives. The one writer;
    /// [`DatasetConfig::read_durable`] is the one reader.
    pub fn write_durable(&self) -> Vec<u8> {
        let mut out = Vec::new();
        plain::write_str(&mut out, &self.name);
        out.push(self.layout.tag());
        plain::write_str(&mut out, &self.key_field);
        match &self.secondary_index_on {
            Some(path) => {
                out.push(1);
                plain::write_str(&mut out, &path.to_string());
            }
            None => out.push(0),
        }
        varint::write_u64(&mut out, self.amax.record_limit as u64);
        match self.compaction {
            CompactionSpec::Tiered {
                size_ratio,
                max_components,
            } => {
                out.push(0);
                plain::write_f64(&mut out, size_ratio);
                varint::write_u64(&mut out, max_components as u64);
            }
            CompactionSpec::Leveled => out.push(1),
            CompactionSpec::LazyLeveled => out.push(2),
        }
        varint::write_u64(&mut out, self.memory_budget as u64);
        if self.memory_budget == 0 {
            varint::write_u64(&mut out, self.memtable_budget as u64);
            varint::write_u64(&mut out, self.cache_pages as u64);
        }
        out
    }

    /// Decode what [`DatasetConfig::write_durable`] wrote (`page_size` comes
    /// from the manifest field beside it). Runtime-only knobs take their
    /// defaults. Bytes from disk are untrusted: anything unknown, cut short
    /// or left over is an error.
    pub fn read_durable(bytes: &[u8], page_size: usize) -> Result<DatasetConfig> {
        let pos = &mut 0usize;
        let byte = |pos: &mut usize| -> Result<u8> {
            let b = *bytes
                .get(*pos)
                .ok_or_else(|| crate::LsmError::new("truncated dataset configuration"))?;
            *pos += 1;
            Ok(b)
        };
        let name = plain::read_str(bytes, pos)?.to_string();
        let mut config = DatasetConfig::new(name, LayoutKind::from_tag(byte(pos)?)?);
        config.page_size = page_size;
        config.key_field = plain::read_str(bytes, pos)?.to_string();
        if byte(pos)? != 0 {
            config.secondary_index_on = Some(Path::parse(plain::read_str(bytes, pos)?));
        }
        config.amax = AmaxConfig {
            record_limit: varint::read_u64(bytes, pos)? as usize,
        };
        config.compaction = match byte(pos)? {
            0 => CompactionSpec::Tiered {
                size_ratio: plain::read_f64(bytes, pos)?,
                max_components: varint::read_u64(bytes, pos)? as usize,
            },
            1 => CompactionSpec::Leveled,
            2 => CompactionSpec::LazyLeveled,
            tag => {
                return Err(crate::LsmError::new(format!(
                    "unknown compaction strategy tag {tag} in dataset configuration"
                )))
            }
        };
        config.memory_budget = varint::read_u64(bytes, pos)? as usize;
        if config.memory_budget == 0 {
            config.memtable_budget = varint::read_u64(bytes, pos)? as usize;
            config.cache_pages = varint::read_u64(bytes, pos)? as usize;
        }
        if *pos != bytes.len() {
            return Err(crate::LsmError::new(format!(
                "dataset configuration has {} trailing bytes",
                bytes.len() - *pos
            )));
        }
        Ok(config)
    }
}

/// How one partition spends its memory-budget slice (see
/// [`DatasetConfig::budget_split`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BudgetSplit {
    /// Half: the decoded-leaf cache (one cache funded by every shard's half).
    pub leaf_cache_bytes: usize,
    /// A quarter (floored at 64 KiB): the memtable.
    pub memtable_budget: usize,
    /// A quarter, in pages (floored at 8): the page buffer cache.
    pub cache_pages: usize,
}

/// State of a dataset's flush/merge worker, as reported by
/// [`LsmDataset::health`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkerState {
    /// Synchronous mode: flushes and merges run inline on the writing
    /// thread; there is no worker to be unhealthy.
    Inline,
    /// The background worker is waiting for work.
    Idle,
    /// The background worker is processing (or has signalled work pending).
    Busy,
    /// A background flush/merge failed; the error is parked and every write
    /// will surface it until an explicit `flush()` consumes it for retry.
    Failed,
}

/// Point-in-time health of one dataset partition (see
/// [`LsmDataset::health`]).
#[derive(Debug, Clone)]
pub struct DatasetHealth {
    /// Worker state.
    pub worker: WorkerState,
    /// Most recent background error, from the parked failure or the
    /// telemetry event ring.
    pub last_error: Option<String>,
    /// Sealed memtables queued for flushing (pending maintenance depth).
    pub pending_maintenance: usize,
    /// Ingest stalls caused by backpressure so far.
    pub stalls: u64,
    /// Total time writers spent stalled, in microseconds.
    pub stall_micros: u64,
}

/// Counters describing ingestion activity, read off the dataset's
/// telemetry registry ([`LsmDataset::stats`]): with telemetry off
/// ([`DatasetConfig::with_telemetry`]) every field reads zero.
#[derive(Debug, Default, Clone, Copy)]
pub struct IngestStats {
    /// Records inserted or upserted.
    pub records_ingested: u64,
    /// Deletes issued.
    pub deletes: u64,
    /// Number of flush operations.
    pub flushes: u64,
    /// Number of merge operations.
    pub merges: u64,
    /// Point lookups performed to maintain the secondary index.
    pub maintenance_lookups: u64,
    /// Wall-clock time spent in flushes.
    pub flush_time: Duration,
    /// Wall-clock time spent in merges.
    pub merge_time: Duration,
}

impl IngestStats {
    /// Combine counters from several shards/partitions.
    pub fn merged_with(mut self, other: &IngestStats) -> IngestStats {
        self.records_ingested += other.records_ingested;
        self.deletes += other.deletes;
        self.flushes += other.flushes;
        self.merges += other.merges;
        self.maintenance_lookups += other.maintenance_lookups;
        self.flush_time += other.flush_time;
        self.merge_time += other.merge_time;
        self
    }
}

/// Outcome of one [`LsmDataset::reclaim_space`] call (summed over its
/// passes).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct ReclaimReport {
    /// Components rewritten into lower page slots.
    pub components_rewritten: usize,
    /// Pages copied (byte-identically) to lower slots.
    pub pages_moved: u64,
    /// Page slots released back to the operating system — the page file
    /// shrank by this many pages.
    pub pages_reclaimed: u64,
}

/// State guarded by the write lock: the active memtable and the in-memory
/// indexes maintained on the ingest path.
struct WriteState {
    memtable: Memtable,
    /// `None` unless [`DatasetConfig::secondary_index_on`] names a path.
    indexes: Option<Indexes>,
}

/// The secondary index and the primary-key filter that spares its
/// maintenance the old-record lookup of brand-new keys (§4.6). Nothing else
/// reads the filter, so a dataset without a secondary index keeps neither.
#[derive(Default)]
struct Indexes {
    pk: PrimaryKeyIndex,
    secondary: SecondaryIndex,
}

impl WriteState {
    /// The primary keys with an indexed value between `lo` and `hi`, each
    /// once, in key order: one walk of the secondary index.
    fn secondary_keys(&self, lo: Bound<&Value>, hi: Bound<&Value>) -> Result<Vec<Value>> {
        let indexes = self.indexes.as_ref();
        let indexes =
            indexes.ok_or_else(|| crate::LsmError::new("dataset has no secondary index"))?;
        Ok(indexes.secondary.range_bounds(lo, hi))
    }
}

/// One mutation of the ingest path.
enum Mutation {
    /// Insert or upsert this record under its key.
    Insert(Value),
    /// Delete this key (an anti-matter entry).
    Delete(Value),
}

/// State guarded by the maintenance lock: everything a flush or merge
/// mutates besides the published tree.
struct MaintState {
    schema_builder: SchemaBuilder,
    next_component_id: u64,
}

/// The shared core of a dataset (everything except pool-thread ownership).
struct DatasetCore {
    config: DatasetConfig,
    cache: BufferCache,
    durable: Option<Arc<DurableStore>>,
    write: Mutex<WriteState>,
    tree: RwLock<Arc<TreeState>>,
    maint: Mutex<MaintState>,
    sched: Scheduler,
    telemetry: Arc<Telemetry>,
    /// Weak self-reference captured by submitted pool tasks, so a queued
    /// task for a dropped dataset degenerates to a no-op.
    self_ref: Weak<DatasetCore>,
}

/// One LSM dataset partition. All operations take `&self`; share it across
/// threads directly (scoped threads) or behind an `Arc`.
pub struct LsmDataset {
    core: Arc<DatasetCore>,
}

impl Drop for LsmDataset {
    fn drop(&mut self) {
        // Stop background work and wait for in-flight rounds: a pool task
        // may hold an upgraded core reference, and callers expect the
        // dataset's directory to be quiescent once drop returns.
        self.core.sched.shutdown();
        self.core.sched.wait_idle();
    }
}

impl LsmDataset {
    /// Create an empty dataset with its own simulated disk.
    pub fn new(config: DatasetConfig) -> LsmDataset {
        let store = PageStore::with_page_size(config.page_size);
        LsmDataset::assemble(config, store, None)
    }

    fn assemble(
        mut config: DatasetConfig,
        store: PageStore,
        durable: Option<Arc<DurableStore>>,
    ) -> LsmDataset {
        // A budgeted partition spends its slice by the one split: memtable
        // and page cache sized from it, and — unless the opener attached a
        // shared one — a private leaf cache.
        if let Some(split) = config.budget_split() {
            config.memtable_budget = split.memtable_budget;
            config.cache_pages = split.cache_pages;
            config
                .leaf_cache
                .get_or_insert_with(|| Arc::new(LeafCache::new(split.leaf_cache_bytes)));
        }
        // Every component built over this buffer cache reads leaves through
        // the leaf cache, under an origin that namespaces this dataset's
        // component ids.
        let cache = BufferCache::new(store, config.cache_pages);
        let cache = match config.leaf_cache.as_ref() {
            Some(shared) => cache.with_leaf_cache(shared.handle()),
            None => cache,
        };
        let indexes = config
            .secondary_index_on
            .as_ref()
            .map(|_| Indexes::default());
        let schema_builder = SchemaBuilder::new(Some(config.key_field.clone()));
        let telemetry = Arc::new(if config.telemetry_enabled {
            Telemetry::new()
        } else {
            Telemetry::disabled()
        });
        if let Some(durable) = durable.as_ref() {
            durable.set_telemetry(telemetry.clone());
        }
        let core = Arc::new_cyclic(|self_ref| DatasetCore {
            config,
            cache,
            durable,
            write: Mutex::new(WriteState {
                memtable: Memtable::new(),
                indexes,
            }),
            tree: RwLock::new(Arc::new(TreeState::default())),
            maint: Mutex::new(MaintState {
                schema_builder,
                next_component_id: 0,
            }),
            sched: Scheduler::new(),
            telemetry,
            self_ref: self_ref.clone(),
        });
        LsmDataset { core }
    }

    /// Open a **durable** dataset rooted at the directory `dir`, creating it
    /// if needed and recovering it if it already exists.
    ///
    /// Recovery follows the protocol documented in the `persist` crate: the
    /// manifest defines the on-disk components and the schema snapshot; the
    /// WAL segments are replayed into the memtable; the primary-key and
    /// secondary indexes are rebuilt from the recovered state. Runtime knobs
    /// (memtable budget, cache size, merge policy, background workers) come
    /// from `config`; `config.key_field` must match the persisted dataset.
    pub fn open(dir: impl AsRef<std::path::Path>, config: DatasetConfig) -> Result<LsmDataset> {
        let (durable, recovered) = DurableStore::open(dir.as_ref(), config.page_size)?;
        let store = durable.page_store().clone();
        let dataset = LsmDataset::assemble(config, store, Some(Arc::new(durable)));
        let core = &dataset.core;

        if let Some(manifest) = recovered.manifest {
            let persisted = DatasetConfig::read_durable(&manifest.config, core.config.page_size)?;
            if persisted.key_field != core.config.key_field {
                return Err(crate::LsmError::new(format!(
                    "dataset at {} has key field '{}', config says '{}'",
                    dir.as_ref().display(),
                    persisted.key_field,
                    core.config.key_field
                )));
            }
            let mut maint = core.maint.lock();
            maint.schema_builder = SchemaBuilder::from_schema(manifest.schema.clone());
            maint.next_component_id = manifest.next_component_id;
            let components = manifest
                .components
                .into_iter()
                .map(|desc| Arc::new(Component::open(&core.cache, manifest.schema.clone(), desc)))
                .collect();
            *core.tree.write() = Arc::new(TreeState {
                sealed: Vec::new(),
                components,
            });
        }
        core.sweep_orphan_pages()?;
        let replayed_records = recovered.wal_records.len();
        {
            let mut write = core.write.lock();
            for record in recovered.wal_records {
                match record {
                    WalRecord::Insert { key, record } => {
                        write.memtable.insert(key, record);
                    }
                    WalRecord::Delete { key } => {
                        write.memtable.delete(key);
                    }
                }
            }
        }
        core.rebuild_indexes()?;
        core.telemetry.emit(EventKind::RecoveryReplay {
            segments: recovered.wal_segments_replayed,
            records: replayed_records,
            torn_tail_healed: recovered.torn_tail_healed,
            components: core.tree.read().components.len(),
        });
        Ok(dataset)
    }

    /// Reopen a durable dataset from its directory alone: the configuration
    /// persisted in the manifest is used (a dataset directory is
    /// self-describing). `leaf_cache` is shown that configuration and names
    /// the shared [`LeafCache`] to read decoded leaves through — the facade
    /// sizes one cache from the first shard's slice and attaches it to every
    /// shard; `|_| None` leaves a budgeted dataset to derive a private one.
    /// Fails if the directory has no manifest yet.
    pub fn reopen(
        dir: impl AsRef<std::path::Path>,
        leaf_cache: impl FnOnce(&DatasetConfig) -> Option<Arc<LeafCache>>,
    ) -> Result<LsmDataset> {
        let (_, manifest) = ManifestStore::open(dir.as_ref())?;
        let Some(manifest) = manifest else {
            return Err(crate::LsmError::new(format!(
                "no manifest in {} — reopen only works on a flushed dataset (use LsmDataset::open with a config to create one)",
                dir.as_ref().display()
            )));
        };
        let mut config =
            DatasetConfig::read_durable(&manifest.config, manifest.page_size as usize)?;
        config.leaf_cache = leaf_cache(&config);
        LsmDataset::open(dir, config)
    }

    /// Force acknowledged WAL records to the device (group commit). No-op
    /// for in-memory datasets.
    pub fn sync(&self) -> Result<()> {
        self.core.sync_wal()
    }

    /// Bytes currently in the WAL (0 for in-memory datasets).
    pub fn wal_bytes(&self) -> u64 {
        self.core
            .durable
            .as_ref()
            .map(|d| d.wal_bytes())
            .unwrap_or(0)
    }

    /// Version of the last committed manifest (0 for in-memory datasets or
    /// before the first flush).
    pub fn manifest_version(&self) -> u64 {
        self.core
            .durable
            .as_ref()
            .map(|d| d.manifest_version())
            .unwrap_or(0)
    }

    /// Arm a crash point in the durability layer (recovery tests). No-op for
    /// in-memory datasets.
    pub fn set_crash_point(&self, point: CrashPoint) {
        if let Some(durable) = self.core.durable.as_ref() {
            durable.set_crash_point(point);
        }
    }

    /// The dataset's configuration.
    pub fn config(&self) -> &DatasetConfig {
        &self.core.config
    }

    /// The buffer cache (shared with the query engine for I/O accounting).
    pub fn cache(&self) -> &BufferCache {
        &self.core.cache
    }

    /// A copy of the cumulative inferred schema.
    pub fn schema(&self) -> Schema {
        self.core.maint.lock().schema_builder.schema().clone()
    }

    /// Ingestion counters, from the telemetry registry (zero when it is
    /// off).
    pub fn stats(&self) -> IngestStats {
        let t = &self.core.telemetry;
        let total = |h: &Histogram| Duration::from_micros(h.snapshot().sum);
        IngestStats {
            records_ingested: t.records_ingested.get(),
            deletes: t.deletes.get(),
            flushes: t.flushes.get(),
            merges: t.merges.get(),
            maintenance_lookups: t.maintenance_lookups.get(),
            flush_time: total(&t.flush_duration),
            merge_time: total(&t.merge_duration),
        }
    }

    /// The dataset's telemetry registry (counters, histograms, event ring).
    pub fn telemetry(&self) -> &Arc<Telemetry> {
        &self.core.telemetry
    }

    /// The most recent `n` lifecycle events, oldest first.
    pub fn recent_events(&self, n: usize) -> Vec<Event> {
        self.core.telemetry.recent_events(n)
    }

    /// A point-in-time metrics snapshot: every registry counter and
    /// histogram, the sampled I/O counters of the underlying store
    /// (`storage.*`), current-state gauges (`lsm.*`, `wal.*`), and the
    /// derived write/read/space amplification gauges (`amp.*`) — the latter
    /// always recomputable from the raw counters in the same snapshot.
    pub fn metrics(&self) -> MetricsSnapshot {
        let mut snap = self.core.telemetry.snapshot(&self.core.config.name);
        let io = self.io_stats();
        snap.push_counter("storage.pages_read", io.pages_read);
        snap.push_counter("storage.pages_written", io.pages_written);
        snap.push_counter("storage.bytes_read", io.bytes_read);
        snap.push_counter("storage.bytes_written", io.bytes_written);
        snap.push_counter("storage.cache_hits", io.cache_hits);
        snap.push_counter("storage.records_assembled", io.records_assembled);
        snap.push_counter("scan.batches", io.scan_batches);
        snap.push_counter("scan.records_kernel", io.scan_records_kernel);
        snap.push_counter("cache.hits", io.leaf_cache_hits);
        snap.push_counter("cache.misses", io.leaf_cache_misses);
        snap.push_counter("cache.evictions", io.leaf_cache_evictions);
        snap.push_gauge(
            "storage.allocated_bytes",
            self.core.cache.store().allocated_bytes() as f64,
        );
        snap.push_gauge("lsm.components", self.component_count() as f64);
        snap.push_gauge("lsm.live_stored_bytes", self.primary_stored_bytes() as f64);
        snap.push_gauge("lsm.sealed_queue_depth", self.sealed_count() as f64);
        snap.push_gauge(
            "lsm.memtable_bytes",
            self.core.write.lock().memtable.resident_bytes() as f64,
        );
        snap.push_gauge("wal.bytes", self.wal_bytes() as f64);
        snap.push_gauge("manifest.version", self.manifest_version() as f64);
        snap.with_derived_gauges()
    }

    /// Health of the dataset's background machinery, backed by the
    /// scheduler's non-consuming status and the telemetry event ring: a
    /// parked worker error shows up here *without* being consumed, so the
    /// next write still observes it.
    pub fn health(&self) -> DatasetHealth {
        let status = self.core.sched.status();
        let worker = if self.core.config.pool.is_none() {
            WorkerState::Inline
        } else if status.failed.is_some() {
            WorkerState::Failed
        } else if status.busy || status.pending {
            WorkerState::Busy
        } else {
            WorkerState::Idle
        };
        // Prefer the live parked error; fall back to the event ring so an
        // error drained by a retry is still reported until it scrolls off.
        let last_error = status
            .failed
            .map(|e| e.to_string())
            .or_else(|| self.core.telemetry.events.last_error());
        DatasetHealth {
            worker,
            last_error,
            pending_maintenance: status.sealed_count,
            stalls: self.core.telemetry.stalls.get(),
            stall_micros: self.core.telemetry.stall_micros.get(),
        }
    }

    /// I/O counters of the underlying simulated disk.
    pub fn io_stats(&self) -> IoStats {
        self.core.cache.store().stats()
    }

    /// Number of on-disk components.
    pub fn component_count(&self) -> usize {
        self.core.tree.read().components.len()
    }

    /// Shared handles to the current on-disk components, oldest first — the
    /// planner's window onto per-component statistics without the cost of a
    /// full snapshot (no memtable clone, no write-lock acquisition).
    pub fn components(&self) -> Vec<Arc<Component>> {
        self.core.tree.read().components.clone()
    }

    /// Number of sealed memtables currently queued for flushing.
    pub fn sealed_count(&self) -> usize {
        self.core.tree.read().sealed.len()
    }

    /// Total bytes stored on disk for the primary index.
    pub fn primary_stored_bytes(&self) -> u64 {
        self.core
            .tree
            .read()
            .components
            .iter()
            .map(|c| c.stored_bytes())
            .sum()
    }

    /// Total bytes including the (approximated) secondary structures: the
    /// secondary index and its primary-key filter, when the dataset has one.
    pub fn total_stored_bytes(&self) -> u64 {
        let indexes = self
            .core
            .write
            .lock()
            .indexes
            .as_ref()
            .map_or(0, |ix| ix.pk.approx_bytes() + ix.secondary.approx_bytes());
        self.primary_stored_bytes() + indexes
    }

    /// Take a consistent point-in-time [`Snapshot`] for reads. Flushes and
    /// merges never invalidate a snapshot. The active memtable is shared as
    /// a frozen copy ([`Memtable::frozen`]): the first snapshot after a
    /// write copies it under the write lock, every later one until the next
    /// write takes an `Arc` bump — repeated queries between writes copy
    /// nothing and an empty memtable costs nothing.
    pub fn snapshot(&self) -> Snapshot {
        if self.core.telemetry.enabled() {
            self.core.telemetry.snapshots.incr();
        }
        let mut write = self.core.write.lock();
        let active = write.memtable.frozen();
        let tree = self.core.tree.read().clone();
        drop(write);
        Snapshot { active, tree }
    }

    /// How many times a snapshot had to copy the active memtable (the rest
    /// shared an earlier copy). Counts across the current memtable's life.
    pub fn memtable_freezes(&self) -> u64 {
        self.core.write.lock().memtable.freezes()
    }

    /// Records (and anti-matter) currently in memory: the active memtable
    /// plus every sealed memtable. Feeds the planner's memtable-aware CPU
    /// cost term.
    pub fn in_memory_entries(&self) -> usize {
        let active = self.core.write.lock().memtable.len();
        active
            + self
                .core
                .tree
                .read()
                .sealed
                .iter()
                .map(|s| s.entries.len())
                .sum::<usize>()
    }

    /// Insert (or upsert) a record. For durable datasets the record's WAL
    /// frame is written to the OS before the record is applied, so once
    /// `insert` returns it survives a process crash. The WAL is fsynced
    /// lazily — call [`LsmDataset::sync`] where device-level durability
    /// (power loss) is required. A batch of records is cheaper through
    /// [`LsmDataset::ingest_batch`], which writes the WAL once.
    ///
    /// With a [`DatasetConfig::pool`], a full memtable is sealed and
    /// handed to the worker; this call blocks only when
    /// `max_sealed_memtables` seals are already queued (backpressure), and
    /// surfaces any error a previous background flush/merge hit.
    pub fn insert(&self, record: Value) -> Result<()> {
        self.core.apply(Mutation::Insert(record), true)
    }

    /// Delete the record with the given key (an anti-matter entry is added).
    /// Logged to the WAL like [`LsmDataset::insert`], with the same
    /// crash-durability caveats.
    pub fn delete(&self, key: Value) -> Result<()> {
        self.core.apply(Mutation::Delete(key), true)
    }

    /// Group-committed batch ingest: insert (or upsert) `records` in order,
    /// each applied as [`LsmDataset::insert`] applies it (an upsert's
    /// secondary-index maintenance sees every earlier record of the batch),
    /// and — when `sync_every > 0` — fsync the WAL after every `sync_every`
    /// records and once at the end.
    ///
    /// For durable datasets the batch's WAL frames are staged in memory and
    /// reach the OS in one `write` per commit group: at each sync, at each
    /// memtable seal, and at the end of the batch, before the call returns.
    /// `Ok` acknowledges every record (device-durable when `sync_every >
    /// 0`). An `Err` acknowledges nothing: the records before the failing
    /// one are applied and their frames written, the rest are not applied,
    /// so the memtable and the log agree. Seals, flushes and merges happen
    /// at the same records as with one `insert` per record.
    pub fn ingest_batch(&self, records: Vec<Value>, sync_every: usize) -> Result<()> {
        self.core.ingest_batch(records, sync_every)
    }

    /// Flush everything in memory to disk: seals the active memtable and
    /// waits until every sealed memtable is flushed (and triggered merges
    /// completed). Surfaces parked background errors; calling again retries.
    pub fn flush(&self) -> Result<()> {
        {
            let mut write = self.core.write.lock();
            self.core.seal_locked(&mut write)?;
        }
        // With a pool, queue a round even when nothing was just sealed, so
        // the work behind a parked failure is re-attempted; then wait for the
        // dataset to go quiescent. Without one, or if the pool has shut down
        // underneath us, fall through to inline processing.
        if self.core.enqueue_background(Priority::Flush) {
            return self.core.sched.drain();
        }
        self.core.process_pending()
    }

    /// Force-flush and merge everything down to a single component (used at
    /// the end of ingestion so query experiments run against a settled tree).
    pub fn compact_fully(&self) -> Result<()> {
        self.flush()?;
        loop {
            let mut maint = self.core.maint.lock();
            let n = self.core.tree.read().components.len();
            if n <= 1 {
                return Ok(());
            }
            let all = 0..n;
            self.core
                .merge_jobs_locked(&mut maint, std::slice::from_ref(&all))?;
        }
    }

    /// Reclaim dead space in the page file. Free-listed slots in the middle
    /// of the file are plugged by relocating live pages downward
    /// (byte-identical copies; the manifest is re-committed to the new
    /// locations) until the dead space forms a contiguous tail, which is
    /// then truncated. Runs under the maintenance lock, so it serialises
    /// with flushes and merges; readers wait only while a pass that moved
    /// pages commits its manifest. A component a snapshot (or a caller of
    /// [`LsmDataset::components`]) holds is not moved: its pages stay where
    /// they are, and a call after the snapshot drops can pack them.
    ///
    /// Repeats passes until the file stops shrinking. Emits a
    /// `space_reclaimed` lifecycle event when anything moved.
    pub fn reclaim_space(&self) -> Result<ReclaimReport> {
        self.core.reclaim_space()
    }

    /// Point lookup: newest version of `key`, reconciling the memtable and
    /// every component (newest first). `None` when the key does not exist or
    /// was deleted. Copies nothing but the record it returns: a memtable
    /// hit clones that one entry under the write lock; otherwise the lock is
    /// held just long enough to pin the published tree.
    ///
    /// With `Some(projection)` the record holds at least the projected
    /// paths: a columnar component assembles just those, a row page returns
    /// the whole record, a memtable hit the top-level fields the paths
    /// start at ([`Value::clone_projected`]). Read it through the paths.
    pub fn lookup(&self, key: &Value, projection: Option<&[Path]>) -> Result<Option<Value>> {
        let tree = {
            let write = self.core.write.lock();
            if let Some(entry) = write.memtable.get(key) {
                self.core.note_lookups(1, 1, 0);
                return Ok(entry.map(|doc| doc.clone_projected(projection)));
            }
            self.core.tree.read().clone()
        };
        self.core.tree_lookup(&tree, key, projection)
    }

    /// Scan the dataset, reconciling duplicates and dropping anti-matter.
    /// Only the projected paths are assembled from columnar components.
    pub fn scan(&self, projection: Option<&[Path]>) -> Result<Vec<Value>> {
        self.snapshot()
            .cursor(projection)?
            .map(|entry| Ok(entry?.1))
            .collect()
    }

    /// Number of live records (COUNT(*)): only primary keys are read, which
    /// for AMAX means Page 0 alone.
    pub fn count(&self) -> Result<usize> {
        let keys_only = ScanSpec {
            projection: Some(&[]),
            ..ScanSpec::default()
        };
        self.snapshot().batches(keys_only).record_count()
    }

    /// The keys-only probe of the secondary index (§4.6): the primary keys
    /// with an indexed value between `lo` and `hi`, each once, in key order,
    /// read under the write lock. The index is exact (see [`crate::index`]),
    /// so these are exactly the live records holding such a value; their
    /// number answers a `COUNT(*)` the range decides without looking up a
    /// record, reading a page or walking the memtable.
    pub fn secondary_range_keys(
        &self,
        lo: Bound<&Value>,
        hi: Bound<&Value>,
    ) -> Result<Vec<Value>> {
        let write = self.core.write.lock();
        let _stage = Stage::IndexProbe.enter();
        write.secondary_keys(lo, hi)
    }

    /// Answer a range query on the secondary index (§4.6): the keys-only
    /// probe's keys ([`LsmDataset::secondary_range_keys`]), resolved as one
    /// sorted batch. Returns the live
    /// `(key, record)` pairs in key order — what the query layer's
    /// key-ordered projection output consumes.
    ///
    /// The probe is a point-in-time view of exactly the keys asked for: one
    /// write-lock acquisition walks the index, resolves its keys against the
    /// active memtable in one ordered walk, copies the hits (and nothing
    /// else of it) and pins the published tree, which answers the rest
    /// after the lock is released. Records follow [`LsmDataset::lookup`]'s
    /// projection rule: at least the projected paths, memtable hits cut to
    /// the top-level fields the paths start at.
    pub fn secondary_range_entries(
        &self,
        lo: Bound<&Value>,
        hi: Bound<&Value>,
        projection: Option<&[Path]>,
    ) -> Result<Vec<(Value, Value)>> {
        let (keys, newest, tree) = {
            let write = self.core.write.lock();
            let _stage = Stage::IndexProbe.enter();
            let keys = write.secondary_keys(lo, hi)?;
            let newest: Vec<Option<Option<Value>>> = write
                .memtable
                .get_sorted(&keys)
                .into_iter()
                .map(|entry| entry.map(|doc| doc.map(|doc| doc.clone_projected(projection))))
                .collect();
            (keys, newest, self.core.tree.read().clone())
        };
        // The keys the memtable does not know go to the tree as one batch.
        let unresolved: Vec<&Value> = keys
            .iter()
            .zip(&newest)
            .filter(|(_, entry)| entry.is_none())
            .map(|(key, _)| key)
            .collect();
        let lookup = {
            let _stage = Stage::PointLookup.enter();
            tree.lookup_sorted(&unresolved, projection)?
        };
        self.core.note_lookups(
            keys.len() as u64,
            (keys.len() - unresolved.len()) as u64,
            lookup.components_probed,
        );
        let mut from_tree = lookup.docs.into_iter();
        let mut entries = Vec::with_capacity(keys.len());
        for (key, entry) in keys.into_iter().zip(newest) {
            let doc = match entry {
                Some(entry) => entry,
                None => from_tree.next().expect("one result per unresolved key"),
            };
            if let Some(doc) = doc {
                entries.push((key, doc));
            }
        }
        Ok(entries)
    }
}

impl DatasetCore {
    fn component_config(&self) -> ComponentConfig {
        ComponentConfig {
            layout: self.config.layout,
            amax: self.config.amax,
        }
    }

    fn extract_key(&self, record: &Value) -> Result<Value> {
        record
            .get_field(&self.config.key_field)
            .filter(|v| v.is_atomic() && !v.is_null())
            .cloned()
            .ok_or_else(|| {
                crate::LsmError::new(format!(
                    "record lacks an atomic primary key field '{}'",
                    self.config.key_field
                ))
            })
    }

    /// One mutation through the write lock, with sealing and
    /// (synchronous-mode) inline flushing. Its WAL frame is staged; with
    /// `write_now` it is written before the memtable changes (a single
    /// insert or delete), otherwise it waits for the caller's next write,
    /// sync or seal (a batch).
    fn apply(&self, mutation: Mutation, write_now: bool) -> Result<()> {
        if self.pool_is_open() {
            // Backpressure gate — taken *before* the write lock so stalled
            // writers never block readers or the workers.
            let stalled = self.sched.admit(self.config.max_sealed_memtables)?;
            if let Some(stall) = stalled {
                if self.telemetry.enabled() {
                    self.telemetry.stalls.incr();
                    self.telemetry.stall_micros.add(stall.as_micros() as u64);
                }
            }
        }
        {
            let mut write = self.write.lock();
            match mutation {
                Mutation::Insert(record) => {
                    let key = self.extract_key(&record)?;
                    // Fallible work (index-maintenance lookups can hit I/O
                    // errors) happens before the WAL append: a failed insert
                    // must not leave a logged record behind for recovery to
                    // resurrect. The index changes only once the log has
                    // taken the mutation, beside the memtable.
                    let stale = self.stale_secondary_values(&write, &key)?;
                    if let Some(durable) = self.durable.as_ref() {
                        durable.stage_insert(&key, &record)?;
                        if write_now {
                            durable.write_wal()?;
                        }
                    }
                    let index_path = self.config.secondary_index_on.as_ref();
                    update_secondary(&mut write, index_path, &key, stale, Some(&record));
                    let written_before = write.memtable.written_bytes();
                    write.memtable.insert(key, record);
                    if self.telemetry.enabled() {
                        self.telemetry.records_ingested.incr();
                        let written = write.memtable.written_bytes() - written_before;
                        self.telemetry.bytes_ingested.add(written);
                    }
                }
                Mutation::Delete(key) => {
                    let stale = self.stale_secondary_values(&write, &key)?;
                    if let Some(durable) = self.durable.as_ref() {
                        durable.stage_delete(&key)?;
                        if write_now {
                            durable.write_wal()?;
                        }
                    }
                    let index_path = self.config.secondary_index_on.as_ref();
                    update_secondary(&mut write, index_path, &key, stale, None);
                    write.memtable.delete(key);
                    if self.telemetry.enabled() {
                        self.telemetry.deletes.incr();
                    }
                }
            }
            if write.memtable.approx_bytes() >= self.config.memtable_budget {
                self.seal_locked(&mut write)?;
            }
        }
        // Inline processing, outside the write lock: synchronous mode (and
        // retries of earlier failed inline work), or a background dataset
        // whose shared pool has shut down underneath it — nothing else
        // would flush, so the writer does.
        if self.sched.sealed_count() > 0 && !self.pool_is_open() {
            self.process_pending()?;
        }
        Ok(())
    }

    /// See [`LsmDataset::ingest_batch`]. Whatever happens, the frames of
    /// the records applied are written before it returns.
    fn ingest_batch(&self, records: Vec<Value>, sync_every: usize) -> Result<()> {
        let applied = records.into_iter().enumerate().try_for_each(|(i, record)| {
            self.apply(Mutation::Insert(record), false)?;
            if sync_every > 0 && (i + 1) % sync_every == 0 {
                self.sync_wal()?;
            }
            Ok(())
        });
        let committed = match self.durable.as_ref() {
            Some(durable) if sync_every > 0 && applied.is_ok() => durable.sync_wal(),
            Some(durable) => durable.write_wal(),
            None => Ok(()),
        };
        applied.and(committed)
    }

    /// Write the staged WAL frames and fsync them. No-op for in-memory
    /// datasets.
    fn sync_wal(&self) -> Result<()> {
        match self.durable.as_ref() {
            Some(durable) => durable.sync_wal(),
            None => Ok(()),
        }
    }

    /// Whether background rounds can still be queued on the pool.
    fn pool_is_open(&self) -> bool {
        self.config.pool.as_ref().is_some_and(|pool| pool.is_open())
    }

    /// Seal the active memtable: rotate the WAL so the sealed records are
    /// confined to closed segments, publish the sealed memtable in the tree
    /// and, under the same lock, the tree's sealed count in the scheduler;
    /// then queue a flush round. No-op when the memtable is empty.
    fn seal_locked(&self, write: &mut WriteState) -> Result<()> {
        if write.memtable.is_empty() {
            return Ok(());
        }
        let wal_segment = match self.durable.as_ref() {
            Some(durable) => Some(durable.rotate_wal()?),
            None => None,
        };
        let entries = write.memtable.drain_sorted();
        let sealed = Arc::new(SealedMemtable {
            entries,
            wal_segment,
        });
        {
            let mut tree = self.tree.write();
            let mut next = (**tree).clone();
            next.sealed.push(sealed);
            self.sched.set_sealed(next.sealed.len());
            *tree = Arc::new(next);
        }
        self.enqueue_background(Priority::Flush);
        Ok(())
    }

    /// Queue one background round on the worker pool. Returns `false` when
    /// there is no pool or it has shut down (callers fall back inline).
    fn enqueue_background(&self, priority: Priority) -> bool {
        let Some(pool) = self.config.pool.as_ref() else {
            return false;
        };
        let weak = self.self_ref.clone();
        // Account before submitting so a fast worker can never report the
        // round done before it was counted as queued.
        self.sched.task_enqueued();
        let accepted = pool.submit(
            priority,
            Box::new(move || {
                if let Some(core) = weak.upgrade() {
                    core.run_background_round(priority);
                }
            }),
        );
        if !accepted {
            self.sched.task_rejected();
        }
        accepted
    }

    /// One pool-executed background round. A *flush* round drains every
    /// queued sealed memtable oldest-first, queueing one merge round per
    /// flushed component; a *merge* round asks the compaction strategy
    /// once. Panics and errors are parked in the scheduler exactly like
    /// the former dedicated worker thread's.
    fn run_background_round(&self, priority: Priority) {
        if !self.sched.begin_work() {
            return; // shutting down: the round is dropped
        }
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| match priority {
            Priority::Flush => self.background_flush_round(),
            Priority::Merge => {
                let mut maint = self.maint.lock();
                self.maybe_merge_locked(&mut maint)
            }
        }))
        .unwrap_or_else(|panic| {
            let msg = panic
                .downcast_ref::<&str>()
                .map(|s| (*s).to_string())
                .or_else(|| panic.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "opaque panic payload".to_string());
            Err(crate::LsmError::new(format!(
                "background flush/merge worker panicked: {msg}"
            )))
        });
        if let Err(err) = &result {
            // Trace the parked error *before* it becomes visible to
            // writers, so health() backed by the event ring never lags
            // admit().
            self.telemetry.emit(EventKind::WorkerError {
                message: err.to_string(),
            });
        }
        self.sched.work_done(result);
    }

    /// Background flush round: flush sealed memtables until none remain.
    /// Merges ride a *lower* pool priority, so queued flushes — which
    /// release ingest backpressure — run first across every dataset
    /// sharing the pool.
    fn background_flush_round(&self) -> Result<()> {
        while self.flush_next_sealed()? {
            self.enqueue_background(Priority::Merge);
        }
        Ok(())
    }

    /// Flush every queued sealed memtable, oldest first, running the merge
    /// policy after each flush. The inline path: synchronous mode, and the
    /// fallback when a shared pool has shut down.
    fn process_pending(&self) -> Result<()> {
        while self.flush_next_sealed()? {
            let mut maint = self.maint.lock();
            self.maybe_merge_locked(&mut maint)?;
        }
        Ok(())
    }

    /// Flush the oldest sealed memtable, if any. Returns whether there was
    /// one (racing flushers may mean no actual work was done).
    fn flush_next_sealed(&self) -> Result<bool> {
        let next = self.tree.read().sealed.first().cloned();
        let Some(sealed) = next else { return Ok(false) };
        self.flush_sealed(&sealed)?;
        Ok(true)
    }

    /// Flush one sealed memtable into an on-disk component.
    fn flush_sealed(&self, sealed: &Arc<SealedMemtable>) -> Result<()> {
        let started = Instant::now();
        let mut maint = self.maint.lock();
        // Another thread may have flushed it while we waited for the lock.
        let Some(current) = self.tree.read().sealed.first().cloned() else {
            return Ok(());
        };
        if !Arc::ptr_eq(&current, sealed) {
            return Ok(());
        }
        self.telemetry.emit(EventKind::FlushBegin {
            entries: sealed.entries.len(),
        });
        // Tuple compactor: infer the schema from the flushed records (§2.2).
        let mut observed = false;
        for record in sealed.entries.iter().filter_map(|(_, r)| r.as_ref()) {
            maint.schema_builder.observe(record);
            observed = true;
        }
        // Anti-matter holds only its key, which every columnar leaf stores:
        // a memtable of deletes alone still gives the key a column.
        if let (false, Some((key, _))) = (observed, sealed.entries.first()) {
            let key = (self.config.key_field.clone(), key.clone());
            maint.schema_builder.observe(&Value::Object(vec![key]));
        }
        let schema = maint.schema_builder.schema().clone();
        let component = Arc::new(Component::write(
            &self.cache,
            &self.component_config(),
            schema.clone(),
            &sealed.entries,
            maint.next_component_id,
        )?);
        maint.next_component_id += 1;
        let pages_out = component.pages().len() as u64;
        // Durable flush: sync pages, commit the manifest recording the new
        // component (and the schema snapshot), then drop the WAL segments
        // covering the sealed records.
        if let Some(durable) = self.durable.as_ref() {
            let mut components = self.tree.read().components.clone();
            components.push(component.clone());
            let data = self.manifest_data(&maint, &schema, &components);
            let segment = sealed
                .wal_segment
                .expect("durable sealed memtable records its WAL segment");
            durable.commit_flush(data, segment)?;
        }
        {
            let mut tree = self.tree.write();
            let mut next = (**tree).clone();
            let pos = next
                .sealed
                .iter()
                .position(|s| Arc::ptr_eq(s, sealed))
                .expect("sealed memtable vanished while flushing");
            next.sealed.remove(pos);
            next.components.push(component);
            self.sched.set_sealed(next.sealed.len());
            *tree = Arc::new(next);
        }
        let elapsed = started.elapsed();
        if self.telemetry.enabled() {
            self.telemetry.flushes.incr();
            self.telemetry
                .flush_entries
                .add(sealed.entries.len() as u64);
            self.telemetry.flush_pages_out.add(pages_out);
            self.telemetry
                .flush_duration
                .record(elapsed.as_micros() as u64);
            self.telemetry.emit(EventKind::FlushEnd {
                entries: sealed.entries.len(),
                pages_out,
                micros: elapsed.as_micros() as u64,
            });
        }
        Ok(())
    }

    fn manifest_data(
        &self,
        maint: &MaintState,
        schema: &Schema,
        components: &[Arc<Component>],
    ) -> ManifestData {
        ManifestData {
            version: 0, // assigned by the manifest store at commit
            page_size: self.config.page_size as u64,
            config: self.config.write_durable(),
            next_component_id: maint.next_component_id,
            schema: schema.clone(),
            components: components.iter().map(|c| c.describe()).collect(),
        }
    }

    /// Recovery-time page reconciliation: free every allocated page slot no
    /// live component references. This simultaneously repopulates the file
    /// backend's free list (which is not persisted across restarts) and
    /// reclaims pages orphaned by a crash between writing a component's
    /// pages and committing the manifest that would have referenced them —
    /// the `persist` crate's documented crash windows.
    fn sweep_orphan_pages(&self) -> Result<()> {
        let components = self.tree.read().components.clone();
        let store = self.cache.store();
        let page_count = store.page_count();
        if page_count == 0 {
            return Ok(());
        }
        let referenced: std::collections::HashSet<PageId> = components
            .iter()
            .flat_map(|c| c.pages().iter().copied())
            .collect();
        let orphans: Vec<PageId> = (0..page_count)
            .filter(|id| !referenced.contains(id))
            .collect();
        if orphans.is_empty() {
            return Ok(());
        }
        self.cache.free_pages(&orphans)?;
        let truncated = store.shrink_free_tail()?;
        self.telemetry.emit(EventKind::OrphanSweep {
            scanned: page_count,
            freed: orphans.len() as u64,
            truncated,
        });
        Ok(())
    }

    /// See [`LsmDataset::reclaim_space`]: run GC passes until the page file
    /// stops shrinking.
    fn reclaim_space(&self) -> Result<ReclaimReport> {
        let mut total = ReclaimReport::default();
        loop {
            let before = self.cache.store().page_count();
            let pass = self.reclaim_pass()?;
            total.components_rewritten += pass.components_rewritten;
            total.pages_moved += pass.pages_moved;
            total.pages_reclaimed += pass.pages_reclaimed;
            // Keep going only while the file is actually shrinking (a pass
            // that leaves pinned components where they are can free nothing
            // at the tail).
            if pass.pages_reclaimed == 0 || self.cache.store().page_count() >= before {
                break;
            }
        }
        if total.pages_moved > 0 || total.pages_reclaimed > 0 {
            self.telemetry.emit(EventKind::SpaceReclaimed {
                components_rewritten: total.components_rewritten,
                pages_moved: total.pages_moved,
                pages_reclaimed: total.pages_reclaimed,
            });
        }
        Ok(total)
    }

    /// One GC pass: relocate live pages sitting above the live watermark
    /// (total live pages — where the file would end if it were perfectly
    /// packed) into lower free slots, commit the remapped manifest, and
    /// truncate the freed tail. Pages only ever move *downward* (a copy that
    /// would land at a higher slot is discarded), so passes strictly shrink
    /// the sum of live page ids and the loop terminates packed.
    fn reclaim_pass(&self) -> Result<ReclaimReport> {
        let maint = self.maint.lock();
        // A component a snapshot reads stays where it is: its copy would
        // share the unmoved pages and free them under the reader once the
        // copy is itself moved or merged away. Holding the whole tree pins
        // every component; `components` below holds one more reference.
        let pinned = |tree: &Arc<TreeState>, c: &Arc<Component>| {
            Arc::strong_count(tree) > 1 || Arc::strong_count(c) > 2
        };
        let (components, skip) = {
            let tree = self.tree.read();
            let components = tree.components.clone();
            let skip: Vec<bool> = components.iter().map(|c| pinned(&tree, c)).collect();
            (components, skip)
        };
        let live: u64 = components.iter().map(|c| c.pages().len() as u64).sum();
        let schema = maint.schema_builder.schema().clone();
        let mut new_components = components.clone();
        // Per rewritten component: its position, the slots it left and the
        // copies that replace them.
        let mut rewrites: Vec<(usize, Vec<PageId>, Vec<PageId>)> = Vec::new();
        for (i, component) in components.iter().enumerate() {
            if skip[i] || !component.pages().iter().any(|&p| p >= live) {
                continue;
            }
            // Copy each high page byte-identically (below the component
            // layer, so compression flags and encodings ride along
            // untouched) into the lowest free slot. Keep the original
            // whenever the copy would not actually move the page down. The
            // leaves name every page of the component, so remapping them
            // remaps the component.
            let mut desc = component.describe();
            let (mut sources, mut copies) = (Vec::new(), Vec::new());
            for leaf in &mut desc.leaves {
                for page in std::iter::once(&mut leaf.page).chain(&mut leaf.data_pages) {
                    if *page < live {
                        continue;
                    }
                    let copy = self.cache.read_page(*page);
                    let moved = match copy.and_then(|raw| self.cache.append_page(raw.to_vec())) {
                        Ok(moved) => moved,
                        Err(err) => {
                            // No component names this pass's copies yet. The
                            // copy error is the one reported: a copy that
                            // fails to free too is an orphan the next open's
                            // sweep frees.
                            let made = rewrites.iter().map(|(_, _, copies)| copies);
                            for copies in made.chain([&copies]) {
                                let _ = self.cache.free_pages(copies);
                            }
                            return Err(err);
                        }
                    };
                    if moved >= *page {
                        self.cache.free_pages(&[moved])?;
                        continue;
                    }
                    sources.push(*page);
                    copies.push(moved);
                    *page = moved;
                }
            }
            if sources.is_empty() {
                continue;
            }
            new_components[i] = Arc::new(Component::open(&self.cache, schema.clone(), desc));
            rewrites.push((i, sources, copies));
        }
        // Publish under the tree's write lock, so no snapshot can pin a
        // component between the check and the swap: a rewrite whose original
        // got pinned while its pages were copied is dropped with its copies
        // (the unretired replacement frees nothing). Readers wait for the
        // manifest commit of a pass that moved something.
        let mut tree = self.tree.write();
        let mut dropped = Vec::new();
        rewrites.retain(|(i, _, copies)| {
            let keep = !pinned(&tree, &components[*i]);
            if !keep {
                new_components[*i] = components[*i].clone();
                dropped.extend_from_slice(copies);
            }
            keep
        });
        self.cache.free_pages(&dropped)?;
        if rewrites.is_empty() {
            // Already packed below the watermark: everything above it is
            // free-listed, so the tail shrink is the whole pass.
            drop(tree);
            drop(maint);
            let pages_reclaimed = self.cache.store().shrink_free_tail()?;
            return Ok(ReclaimReport {
                components_rewritten: 0,
                pages_moved: 0,
                pages_reclaimed,
            });
        }
        // Same publication protocol as a merge: the manifest swap commits
        // first, so a crash never loses the dataset — it merely re-orphans
        // either the copies or the originals, which the next open sweeps.
        if let Some(durable) = self.durable.as_ref() {
            let data = self.manifest_data(&maint, &schema, &new_components);
            durable.commit_merge(data)?;
        }
        let mut next = (**tree).clone();
        next.components = new_components;
        *tree = Arc::new(next);
        drop(tree);
        // The originals were unpinned under the lock and are gone from the
        // tree, so `components` holds the last reference: the slots they
        // left are free. Each replacement shares its unmoved slots with its
        // original, which is not retired and frees nothing on drop.
        let mut sources = Vec::new();
        for (i, moved, _) in &rewrites {
            // The rewritten component keeps its id but relocated its pages.
            // Its decoded leaves are byte-identical, but the cached state
            // must not outlive a physical relocation — invalidate eagerly
            // rather than reasoning about which entries would stay valid.
            if let Some(handle) = self.cache.leaf_cache() {
                handle.invalidate_component(components[*i].id());
            }
            sources.extend_from_slice(moved);
        }
        drop(components);
        drop(maint);
        self.cache.free_pages(&sources)?;
        let pages_reclaimed = self.cache.store().shrink_free_tail()?;
        Ok(ReclaimReport {
            components_rewritten: rewrites.len(),
            pages_moved: sources.len() as u64,
            pages_reclaimed,
        })
    }

    fn maybe_merge_locked(&self, maint: &mut MaintState) -> Result<()> {
        // Sizes newest-first for the policy.
        let sizes: Vec<u64> = {
            let tree = self.tree.read();
            tree.components
                .iter()
                .rev()
                .map(|c| c.stored_bytes())
                .collect()
        };
        let jobs = self.config.compaction.merge_jobs(&sizes);
        if jobs.is_empty() {
            return Ok(());
        }
        // Newest-first ranges to oldest-first positions, still ascending.
        let n = sizes.len();
        let positions: Vec<Range<usize>> = jobs
            .iter()
            .rev()
            .map(|job| n - job.end..n - job.start)
            .collect();
        self.merge_jobs_locked(maint, &positions)
    }

    /// Run one merge round. Each job is a disjoint range of oldest-first
    /// positions in the component list, ascending, of at least two
    /// components. The jobs (a leveled strategy's independent
    /// level-to-level cascades) run one after another; a single manifest
    /// commit and tree swap then publishes the whole round atomically.
    fn merge_jobs_locked(&self, maint: &mut MaintState, jobs: &[Range<usize>]) -> Result<()> {
        let components = self.tree.read().components.clone();
        let schema = maint.schema_builder.schema().clone();

        struct JobResult {
            output: Arc<Component>,
            report: MergeReport,
            input_ids: Vec<u64>,
            pages_in: u64,
            elapsed: Duration,
        }

        let mut done = Vec::with_capacity(jobs.len());
        for positions in jobs {
            let job_started = Instant::now();
            let inputs = &components[positions.clone()];
            let input_ids: Vec<u64> = inputs.iter().map(|c| c.id()).collect();
            let pages_in: u64 = inputs.iter().map(|c| c.pages().len() as u64).sum();
            self.telemetry.emit(EventKind::MergeBegin {
                inputs: input_ids.clone(),
            });
            // Reconcile through the streaming k-way merge cursor straight
            // into the component writer: winners arrive in key order (the
            // newest version of each key; anti-matter is dropped once the
            // merge includes the oldest component) and leave as sealed
            // leaves, so one decoded leaf per input plus the writer's one
            // open leaf is all that is ever resident — of the inputs and of
            // the output. Columnar winners are not even assembled: their
            // column ranges are copied (see `crate::merge`).
            let (output, report) = merge_components(
                &self.cache,
                &self.component_config(),
                schema.clone(),
                inputs,
                maint.next_component_id,
                positions.start == 0,
                MergeLane::Copy,
            )?;
            maint.next_component_id += 1;
            done.push(JobResult {
                output: Arc::new(output),
                report,
                input_ids,
                pages_in,
                elapsed: job_started.elapsed(),
            });
        }

        // Build the post-merge component list: per job (back to front so
        // earlier positions stay valid), inputs out, output in at the first
        // merged position.
        let mut new_components = components.clone();
        for (positions, result) in jobs.iter().zip(&done).rev() {
            new_components.splice(positions.clone(), [result.output.clone()]);
        }
        // Durable merge: one manifest swap makes every output visible; the
        // inputs' pages are freed only after the swap commits, so a crash
        // before the commit leaves the old components intact.
        if let Some(durable) = self.durable.as_ref() {
            let data = self.manifest_data(maint, &schema, &new_components);
            durable.commit_merge(data)?;
        }
        {
            let mut tree = self.tree.write();
            let mut next = (**tree).clone();
            next.components = new_components;
            *tree = Arc::new(next);
        }
        // Retire the inputs: their pages are freed when the last snapshot
        // holding them drops (Component::retire), never under a live reader.
        for positions in jobs {
            for input in &components[positions.clone()] {
                input.retire();
            }
        }
        for result in &done {
            let pages_out = result.output.pages().len() as u64;
            if self.telemetry.enabled() {
                self.telemetry.merges.incr();
                self.telemetry.merge_pages_in.add(result.pages_in);
                self.telemetry.merge_pages_out.add(pages_out);
                let report = &result.report;
                self.telemetry
                    .merge_records_copied
                    .add(report.records_copied);
                self.telemetry
                    .merge_records_reshredded
                    .add(report.records_reshredded);
                self.telemetry
                    .merge_peak_buffered
                    .record(report.peak_buffered as u64);
                self.telemetry
                    .merge_duration
                    .record(result.elapsed.as_micros() as u64);
                self.telemetry.emit(EventKind::MergeEnd {
                    inputs: result.input_ids.clone(),
                    pages_in: result.pages_in,
                    pages_out,
                    micros: result.elapsed.as_micros() as u64,
                });
            }
        }
        Ok(())
    }

    /// Count point reads in `lsm.lookups`, `lsm.lookup_memtable_hits` and
    /// `lsm.lookup_components_probed`.
    fn note_lookups(&self, lookups: u64, memtable_hits: u64, components_probed: u64) {
        if self.telemetry.enabled() {
            self.telemetry.lookups.add(lookups);
            self.telemetry.lookup_memtable_hits.add(memtable_hits);
            self.telemetry
                .lookup_components_probed
                .add(components_probed);
        }
    }

    /// Point lookup of a key the active memtable does not hold, against a
    /// pinned tree.
    fn tree_lookup(
        &self,
        tree: &TreeState,
        key: &Value,
        projection: Option<&[Path]>,
    ) -> Result<Option<Value>> {
        let mut lookup = tree.lookup_sorted(&[key], projection)?;
        self.note_lookups(1, 0, lookup.components_probed);
        Ok(lookup.docs.pop().flatten())
    }

    /// The first half of secondary-index maintenance: the old record's
    /// indexed values, whose pairs an upsert or delete of `key` makes stale.
    /// The fetch happens only if the primary-key filter says the key may
    /// exist, and is as narrow as the index: the old version is read in
    /// place when the memtable holds it, and a component assembles only the
    /// indexed path (for AMAX: the key column and one mega-column). Empty
    /// without a secondary index.
    fn stale_secondary_values(&self, write: &WriteState, key: &Value) -> Result<Vec<Value>> {
        let Some(index_path) = self.config.secondary_index_on.as_ref() else {
            return Ok(Vec::new());
        };
        let indexed =
            |doc: &Value| -> Vec<Value> { index_path.evaluate(doc).into_iter().cloned().collect() };
        if !write.indexes.as_ref().is_some_and(|ix| ix.pk.contains(key)) {
            return Ok(Vec::new());
        }
        if self.telemetry.enabled() {
            self.telemetry.maintenance_lookups.incr();
        }
        Ok(match write.memtable.get(key) {
            Some(entry) => {
                self.note_lookups(1, 1, 0);
                entry.map(indexed).unwrap_or_default()
            }
            None => {
                let tree = self.tree.read().clone();
                let projection = std::slice::from_ref(index_path);
                self.tree_lookup(&tree, key, Some(projection))?
                    .as_ref()
                    .map(indexed)
                    .unwrap_or_default()
            }
        })
    }

    /// Rebuild the secondary index and its primary-key filter from the
    /// recovered components and memtable. Without a secondary index there
    /// is nothing to rebuild and no component is read.
    fn rebuild_indexes(&self) -> Result<()> {
        let Some(index_path) = self.config.secondary_index_on.clone() else {
            return Ok(());
        };
        let mut write = self.write.lock();
        // Reconcile newest-first through the streaming merge cursor so each
        // key contributes exactly its live version.
        let memtable_entries: Vec<Entry> = write
            .memtable
            .iter()
            .map(|(k, v)| (k.clone(), v.cloned()))
            .collect();
        let projection = [index_path.clone()];
        let tree = self.tree.read().clone();
        let cursor = EntryMergeCursor::over_memtable_and_components(
            memtable_entries,
            &tree.components,
            Some(&projection),
        );
        let ix = write.indexes.get_or_insert_with(Indexes::default);
        for entry in cursor {
            let (key, doc) = entry?;
            // Every key ever written may exist on disk, so the filter
            // includes deleted keys too (it only answers "may exist").
            ix.pk.insert(&key);
            if let Some(doc) = doc.as_ref() {
                for value in index_path.evaluate(doc) {
                    ix.secondary.insert(value, &key);
                }
            }
        }
        Ok(())
    }
}

/// The second half of secondary-index maintenance, which cannot fail: drop
/// the `stale` pairs of `key` and add those of its new version (`None` for
/// a delete), keeping the index exactly the pairs of the live records.
fn update_secondary(
    write: &mut WriteState,
    index_path: Option<&Path>,
    key: &Value,
    stale: Vec<Value>,
    new_record: Option<&Value>,
) {
    let (Some(ix), Some(index_path)) = (write.indexes.as_mut(), index_path) else {
        return;
    };
    for v in stale {
        ix.secondary.remove(&v, key);
    }
    if let Some(record) = new_record {
        for v in index_path.evaluate(record) {
            ix.secondary.insert(v, key);
        }
        ix.pk.insert(key);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pool::WorkerPool;
    use docmodel::doc;
    use std::ops::Bound;

    fn tiny_config(layout: LayoutKind) -> DatasetConfig {
        DatasetConfig::new("test", layout)
            .with_memtable_budget(8 * 1024)
            .with_page_size(4 * 1024)
    }

    fn sample_record(i: i64) -> Value {
        doc!({
            "id": i,
            "user": {"name": (format!("user{}", i % 13)), "followers": (i % 997)},
            "text": (format!("record {i} body text with characters")),
            "timestamp": (1_000_000 + i),
            "tags": [(format!("tag{}", i % 5))]
        })
    }

    #[test]
    fn ingest_flush_merge_scan_all_layouts() {
        for layout in LayoutKind::ALL {
            let ds = LsmDataset::new(tiny_config(layout));
            for i in 0..500 {
                ds.insert(sample_record(i)).unwrap();
            }
            ds.flush().unwrap();
            assert!(
                ds.stats().flushes > 1,
                "{layout:?} should have flushed repeatedly"
            );
            assert!(ds.component_count() >= 1);

            let docs = ds.scan(None).unwrap();
            assert_eq!(docs.len(), 500, "{layout:?}");
            assert_eq!(ds.count().unwrap(), 500, "{layout:?}");
            // Keys come back in order and records are intact.
            assert_eq!(docs[7].get_field("id"), Some(&Value::Int(7)));
            assert!(docs[7].get_path_str("user.name").is_some());
        }
    }

    /// The memtable holds a fixed key set however often it is rewritten, so
    /// its byte count must stay there and the budget must never seal it.
    #[test]
    fn budgeted_upserts_over_a_fixed_key_set_never_seal() {
        let ds = LsmDataset::new(tiny_config(LayoutKind::Amax));
        for round in 0..100i64 {
            for i in 0..20i64 {
                if (round + i) % 5 == 0 {
                    ds.delete(Value::Int(i)).unwrap();
                } else {
                    ds.insert(doc!({"id": i, "v": round})).unwrap();
                }
            }
        }
        assert_eq!(ds.stats().flushes, 0);
        assert_eq!(ds.component_count(), 0);
        assert!(ds.count().unwrap() > 0);
    }

    #[test]
    fn updates_and_deletes_reconcile() {
        for layout in [LayoutKind::Vb, LayoutKind::Amax] {
            let ds = LsmDataset::new(tiny_config(layout));
            for i in 0..200 {
                ds.insert(sample_record(i)).unwrap();
            }
            // Update half of the records and delete a few.
            for i in (0..200).step_by(2) {
                let mut updated = sample_record(i);
                updated.set_field("text", Value::from("updated"));
                ds.insert(updated).unwrap();
            }
            for i in [3i64, 77, 199] {
                ds.delete(Value::Int(i)).unwrap();
            }
            ds.compact_fully().unwrap();
            assert_eq!(ds.component_count(), 1);

            assert_eq!(ds.count().unwrap(), 197, "{layout:?}");
            let doc = ds.lookup(&Value::Int(10), None).unwrap().unwrap();
            assert_eq!(doc.get_field("text"), Some(&Value::from("updated")));
            let doc = ds.lookup(&Value::Int(11), None).unwrap().unwrap();
            assert_ne!(doc.get_field("text"), Some(&Value::from("updated")));
            assert!(ds.lookup(&Value::Int(77), None).unwrap().is_none());
            assert!(ds.lookup(&Value::Int(100_000), None).unwrap().is_none());
        }
    }

    #[test]
    fn projection_scans_only_requested_fields() {
        let ds = LsmDataset::new(tiny_config(LayoutKind::Amax));
        for i in 0..100 {
            ds.insert(sample_record(i)).unwrap();
        }
        ds.flush().unwrap();
        let projected = ds.scan(Some(&[Path::parse("user.followers")])).unwrap();
        assert_eq!(projected.len(), 100);
        assert!(projected[0].get_path_str("user.followers").is_some());
        assert!(projected[0].get_field("text").is_none());
    }

    #[test]
    fn secondary_index_range_matches_full_scan_filter() {
        let config = tiny_config(LayoutKind::Apax).with_secondary_index(Path::parse("timestamp"));
        let ds = LsmDataset::new(config);
        for i in 0..300 {
            ds.insert(sample_record(i)).unwrap();
        }
        // Update some records so maintenance lookups happen.
        for i in 0..50 {
            ds.insert(sample_record(i)).unwrap();
        }
        ds.flush().unwrap();
        assert!(ds.stats().maintenance_lookups > 0);

        let lo = Value::Int(1_000_100);
        let hi = Value::Int(1_000_149);
        let via_index = ds
            .secondary_range_entries(Bound::Included(&lo), Bound::Included(&hi), None)
            .unwrap();
        assert_eq!(via_index.len(), 50);
        let via_scan: Vec<Value> = ds
            .scan(None)
            .unwrap()
            .into_iter()
            .filter(|d| {
                let ts = d.get_field("timestamp").and_then(Value::as_int).unwrap();
                (1_000_100..=1_000_149).contains(&ts)
            })
            .collect();
        assert_eq!(via_index.len(), via_scan.len());
    }

    #[test]
    fn schema_grows_across_flushes_and_is_a_superset() {
        let ds = LsmDataset::new(tiny_config(LayoutKind::Amax));
        for i in 0..50 {
            ds.insert(doc!({"id": i, "a": 1})).unwrap();
        }
        ds.flush().unwrap();
        let cols_before = schema::columns_of(&ds.schema()).len();
        for i in 50..100 {
            ds.insert(doc!({"id": i, "a": "heterogeneous now", "b": {"c": 2.5}}))
                .unwrap();
        }
        ds.flush().unwrap();
        let cols_after = schema::columns_of(&ds.schema()).len();
        assert!(cols_after > cols_before);
        // Old and new records both survive scans despite the schema change.
        assert_eq!(ds.count().unwrap(), 100);
        let docs = ds.scan(None).unwrap();
        assert_eq!(docs.len(), 100);
    }

    #[test]
    fn missing_key_is_an_error() {
        let ds = LsmDataset::new(tiny_config(LayoutKind::Vb));
        assert!(ds.insert(doc!({"no_key": 1})).is_err());
        assert!(ds.insert(doc!({"id": null})).is_err());
    }

    #[test]
    fn stored_bytes_accounting() {
        let ds = LsmDataset::new(tiny_config(LayoutKind::Apax));
        for i in 0..200 {
            ds.insert(sample_record(i)).unwrap();
        }
        ds.flush().unwrap();
        assert!(ds.primary_stored_bytes() > 0);
        assert!(ds.total_stored_bytes() >= ds.primary_stored_bytes());
        assert!(ds.io_stats().pages_written > 0);
    }

    #[test]
    fn background_mode_reaches_the_same_state() {
        for layout in [LayoutKind::Vb, LayoutKind::Amax] {
            let pool = WorkerPool::new(1);
            let sync_ds = LsmDataset::new(tiny_config(layout));
            let bg_ds = LsmDataset::new(tiny_config(layout).with_pool(pool.handle()));
            for ds in [&sync_ds, &bg_ds] {
                for i in 0..300 {
                    ds.insert(sample_record(i)).unwrap();
                }
                for i in [5i64, 100] {
                    ds.delete(Value::Int(i)).unwrap();
                }
                ds.flush().unwrap();
            }
            assert_eq!(
                sync_ds.scan(None).unwrap(),
                bg_ds.scan(None).unwrap(),
                "{layout:?}"
            );
            assert!(bg_ds.stats().flushes > 1, "{layout:?}");
        }
    }

    #[test]
    fn shared_pool_serves_many_datasets() {
        // Three datasets, one two-worker pool: every dataset's flushes and
        // merges complete, reach the same state as inline processing, and
        // dropping the datasets before the pool quiesces them cleanly.
        let pool = WorkerPool::new(2);
        let datasets: Vec<LsmDataset> = (0..3)
            .map(|i| {
                LsmDataset::new(
                    DatasetConfig::new(format!("pooled-{i}"), LayoutKind::Amax)
                        .with_memtable_budget(8 * 1024)
                        .with_page_size(4 * 1024)
                        .with_pool(pool.handle()),
                )
            })
            .collect();
        for ds in &datasets {
            for i in 0..300 {
                ds.insert(sample_record(i)).unwrap();
            }
        }
        let reference = LsmDataset::new(tiny_config(LayoutKind::Amax));
        for i in 0..300 {
            reference.insert(sample_record(i)).unwrap();
        }
        reference.flush().unwrap();
        for ds in &datasets {
            ds.flush().unwrap();
            assert!(ds.stats().flushes > 1);
            assert_eq!(ds.scan(None).unwrap(), reference.scan(None).unwrap());
            assert_eq!(ds.health().worker, WorkerState::Idle);
        }
        drop(datasets);
        // The pool is still usable by later datasets.
        let late = LsmDataset::new(tiny_config(LayoutKind::Vb).with_pool(pool.handle()));
        for i in 0..100 {
            late.insert(sample_record(i)).unwrap();
        }
        late.flush().unwrap();
        assert_eq!(late.count().unwrap(), 100);
    }

    #[test]
    fn dataset_survives_its_shared_pool_shutting_down() {
        // If the shared pool dies first (discouraged but possible), the
        // dataset falls back to inline flushing instead of hanging.
        let pool = WorkerPool::new(1);
        let ds = LsmDataset::new(tiny_config(LayoutKind::Amax).with_pool(pool.handle()));
        for i in 0..100 {
            ds.insert(sample_record(i)).unwrap();
        }
        ds.flush().unwrap();
        drop(pool);
        for i in 100..200 {
            ds.insert(sample_record(i)).unwrap();
        }
        ds.flush().unwrap();
        assert_eq!(ds.count().unwrap(), 200);
    }

    #[test]
    fn snapshot_is_isolated_from_later_writes() {
        let ds = LsmDataset::new(tiny_config(LayoutKind::Amax));
        for i in 0..100 {
            ds.insert(sample_record(i)).unwrap();
        }
        let snapshot = ds.snapshot();
        assert_eq!(snapshot.cursor(Some(&[])).unwrap().count(), 100);
        for i in 100..200 {
            ds.insert(sample_record(i)).unwrap();
        }
        ds.delete(Value::Int(0)).unwrap();
        ds.compact_fully().unwrap();
        // The snapshot still sees exactly the first 100 records, even though
        // the dataset has flushed, merged and retired components since.
        assert_eq!(snapshot.cursor(Some(&[])).unwrap().count(), 100);
        assert!(snapshot.lookup(&Value::Int(0), None).unwrap().is_some());
        assert!(snapshot.lookup(&Value::Int(150), None).unwrap().is_none());
        assert_eq!(ds.count().unwrap(), 199);
    }

    #[test]
    fn leaf_cached_dataset_serves_warm_scans_without_page_reads() {
        for layout in LayoutKind::ALL {
            let leaf_cache = Arc::new(LeafCache::new(16 << 20));
            let ds = LsmDataset::new(tiny_config(layout).with_leaf_cache(leaf_cache.clone()));
            for i in 0..300 {
                ds.insert(sample_record(i)).unwrap();
            }
            ds.compact_fully().unwrap();

            ds.cache().clear();
            ds.cache().store().reset_stats();
            let cold = ds.scan(None).unwrap();
            let cold_io = ds.io_stats();
            assert!(cold_io.pages_read > 0, "{layout:?}");
            assert_eq!(cold_io.leaf_cache_hits, 0, "{layout:?}");
            assert!(cold_io.leaf_cache_misses > 0, "{layout:?}");

            // Clear the page cache too: warm reads must be served by the
            // decoded-leaf cache alone.
            ds.cache().clear();
            ds.cache().store().reset_stats();
            let warm = ds.scan(None).unwrap();
            assert_eq!(cold, warm, "{layout:?}");
            let warm_io = ds.io_stats();
            assert_eq!(warm_io.pages_read, 0, "{layout:?}");
            assert_eq!(
                warm_io.leaf_cache_hits, cold_io.leaf_cache_misses,
                "{layout:?}: every leaf that missed cold must hit warm"
            );
            assert_eq!(warm_io.leaf_cache_misses, 0, "{layout:?}");
            assert!(leaf_cache.resident_bytes() <= leaf_cache.capacity_bytes());
        }
    }

    #[test]
    fn merge_retirement_invalidates_decoded_leaves() {
        let leaf_cache = Arc::new(LeafCache::new(16 << 20));
        let ds = LsmDataset::new(tiny_config(LayoutKind::Apax).with_leaf_cache(leaf_cache.clone()));
        for i in 0..200 {
            ds.insert(sample_record(i)).unwrap();
        }
        ds.flush().unwrap();
        // Warm the cache over the current components.
        let _ = ds.scan(None).unwrap();
        assert!(leaf_cache.resident_leaves() > 0);

        // A full compaction retires every input component; their decoded
        // leaves must leave the cache with them.
        ds.compact_fully().unwrap();
        assert_eq!(ds.component_count(), 1);
        assert!(leaf_cache.stats().invalidations > 0);
        // The merged output reads correctly through the cache, and then
        // every resident entry is one of the survivor's leaves.
        assert_eq!(ds.scan(None).unwrap().len(), 200);
        assert_eq!(ds.scan(None).unwrap().len(), 200);
        let survivor = ds.snapshot().components()[0].leaf_count();
        assert_eq!(leaf_cache.resident_leaves(), survivor);
    }

    #[test]
    fn memory_budget_round_trips_and_reopen_derives_a_leaf_cache() {
        let dir = std::env::temp_dir().join(format!(
            "lsm-leafcache-tests-{}-budget-roundtrip",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();

        let config = tiny_config(LayoutKind::Vb).with_memory_budget(8 << 20);
        let split = config.budget_split().unwrap();
        {
            let ds = LsmDataset::open(&dir, config).unwrap();
            assert_eq!(ds.config().memtable_budget, split.memtable_budget);
            for i in 0..100 {
                ds.insert(sample_record(i)).unwrap();
            }
            ds.flush().unwrap();
        }
        let ds = LsmDataset::reopen(&dir, |_| None).unwrap();
        assert_eq!(ds.config().memory_budget, 8 << 20);
        assert_eq!(ds.config().memtable_budget, split.memtable_budget);
        assert_eq!(ds.config().cache_pages, split.cache_pages);
        let leaf_cache = ds
            .config()
            .leaf_cache
            .clone()
            .expect("reopen derives a leaf cache from the persisted budget");
        assert_eq!(leaf_cache.capacity_bytes(), 4 << 20);
        // And it is actually wired through: a re-scan hits.
        let _ = ds.scan(None).unwrap();
        ds.cache().clear();
        ds.cache().store().reset_stats();
        let _ = ds.scan(None).unwrap();
        let io = ds.io_stats();
        assert_eq!(io.pages_read, 0);
        assert!(io.leaf_cache_hits > 0);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
