//! # lsm — the LSM-tree storage engine substrate
//!
//! Document stores adopt Log-Structured Merge trees for their write path:
//! inserts go to an in-memory component; when it fills up it is *flushed* to
//! an immutable on-disk component; background *merges* compact components.
//! The paper piggy-backs on exactly these lifecycle events: the flush is
//! where the tuple compactor infers the schema and where records are turned
//! into columns (§2.2, §4.5), and the merge is where columns from several
//! components are stitched back together (§4.5.3).
//!
//! This crate provides that engine:
//!
//! * [`memtable`] — the in-memory component (rows, in the VB format's logical
//!   form), with delete support via anti-matter markers;
//! * [`policy`] — compaction: a manifest-persisted [`CompactionSpec`]
//!   (tiered — the paper's policy, ratio 1.2, max 5 components, §6.3 —
//!   leveled, or lazy-leveled) whose one method picks each merge round;
//! * [`index`] — the secondary (e.g. timestamp) index whose maintenance
//!   cost §6.3.2 measures, and the primary-key index kept beside it to
//!   spare that maintenance the old-record lookup of brand-new keys;
//! * [`dataset`] — [`LsmDataset`]: one dataset partition tying everything
//!   together: insert/upsert/delete, flush with schema inference, merges,
//!   reconciled scans with projection push-down, point lookups, and
//!   secondary-index range queries answered by sorted batched lookups (§4.6);
//! * [`snapshot`] — [`Snapshot`]: consistent point-in-time read views, and
//!   the one scan path: [`Snapshot::batches`] reconciles memtables and
//!   component cursors on keys alone — newest version wins, anti-matter
//!   annihilates, at most one decoded leaf per component in memory — and
//!   hands the winners over per columnar leaf as decoded chunks plus the
//!   ordinals that won ([`ScanBatch`]), pushed predicates run as loops over
//!   the filter columns; [`ScanCursor`] is the key-ordered row adapter over
//!   the same reconciliation, and [`EntryMergeCursor`] the same machinery
//!   with anti-matter preserved, driving merges and index rebuilds (see the
//!   module's scan docs);
//! * [`merge`] — [`merge_components`]: a merge job's data path, from the
//!   key-only reconciliation of the inputs into the one component writer a
//!   flush also uses (see *Column-wise reconciliation* below);
//! * [`pool`] — the shared background [`WorkerPool`]: one priority-ordered
//!   flush/merge worker pool serving every dataset partition that opts into
//!   background maintenance;
//! * `scheduler` (crate-private) — per-dataset flush/merge accounting,
//!   draining and backpressure.
//!
//! ## Column-wise reconciliation (§4.4)
//!
//! A merge never holds its output and, for the columnar layouts, never
//! builds a document. The k-way merge cursor reconciles on **keys alone**
//! and, instead of yielding each winning record, says where it sits: which
//! input, which decoded leaf, which ordinal, and whether it is anti-matter
//! (the reconciliation step of [`EntryMergeCursor`] — the same pass
//! that consumes shadowed versions for scans, handing over where each winner
//! sits instead of the record).
//! Consecutive winners from one input leaf collapse into a run; the runs go
//! to `storage`'s `ComponentWriter`, which copies them **column by column**
//! from the inputs' chunks into its open leaf — per column and run, one
//! slice extend of the definition levels and one of the values — seals
//! leaves as they fill, and derives their zone maps from the copied chunks.
//! A leaf whose columns do not line up with the output schema (a new nested
//! field, a type promoted to a union) sends its winners through assembly
//! and the shredder into the same writer instead; a column whose top-level
//! field the leaf predates is filled with absent entries and stays on the
//! copy path. Row layouts stream entries through the same writer. Resident
//! at any moment: one decoded leaf per input and the writer's open leaf
//! ([`MergeReport::peak_buffered`]; `storage.merge_records_copied` /
//! `storage.merge_records_reshredded` and `merge.peak_buffered_records` in
//! the dataset's metrics).
//!
//! ## Concurrency: snapshots, sealing, and background workers
//!
//! The paper's LSM lifecycle assumes flushes and merges run as background
//! jobs while ingestion and queries proceed (§2.1, §6.3). The dataset is
//! built around that assumption:
//!
//! * **Atomically-swapped tree.** The on-disk components and the sealed
//!   (flush-pending) memtables live in an immutable
//!   [`snapshot::TreeState`] behind an `RwLock<Arc<_>>`. Mutators build a
//!   new `TreeState` and swap the `Arc`; readers clone the `Arc` and never
//!   wait on a flush or merge.
//! * **Snapshots.** [`LsmDataset::snapshot`] freezes the active memtable
//!   (a brief write-lock hold) and pairs it with the current tree. Every
//!   read — point lookup, scan, COUNT(*), the whole query engine — runs
//!   against such a snapshot and reconciles newest-first: active memtable,
//!   sealed memtables, then components. Merges *retire* their inputs rather
//!   than freeing them, so a snapshot taken before a merge keeps reading the
//!   old components until it drops (`Component::retire` in `storage`).
//! * **Sealing.** When the active memtable exceeds its budget it is sealed:
//!   drained into an immutable run, pushed into the tree, and (for durable
//!   datasets) the WAL is rotated so the sealed records are confined to
//!   closed segments. Ingestion continues into a fresh memtable immediately.
//! * **Background workers.** With [`DatasetConfig::background`], flushes
//!   and merges run as tasks on a [`WorkerPool`] — either a **shared** pool
//!   handed in via [`DatasetConfig::with_pool`] (one pool for all shards of
//!   a store, the paper's bounded-maintenance setup) or, by default, a
//!   private single-worker pool (the original one-thread-per-dataset
//!   behaviour). The pool runs queued flushes before queued merges — a
//!   flush releases ingest backpressure — and FIFO within a priority, the
//!   fair FCFS scheduling of the paper's setup (§6.3). Within one dataset,
//!   a leveled strategy's disjoint merge jobs run one after another in one
//!   round and publish as one atomic manifest commit. Backpressure bounds
//!   the sealed queue ([`DatasetConfig::max_sealed_memtables`]); `flush()`
//!   drains the dataset's queued rounds; worker errors are parked and
//!   surfaced on the next insert or flush. Without `background`, sealing is
//!   followed by an inline flush on the inserting thread — the original
//!   synchronous behaviour.
//!
//! ## Durability
//!
//! A dataset created with [`LsmDataset::new`] lives entirely in memory — the
//! original simulation mode, still the default for experiments. A dataset
//! opened with [`dataset::LsmDataset::open`] (or reopened with
//! [`dataset::LsmDataset::reopen`]) is backed by a directory managed by the
//! `persist` crate and survives restarts:
//!
//! * inserts and deletes are appended to a CRC-framed, *segmented*
//!   **write-ahead log** before they are applied to the memtable, so every
//!   acknowledged mutation is recoverable; sealing rotates the log so
//!   background flushes can release exactly the covered segments;
//! * a **flush** writes the component into the dataset's page file, commits
//!   a new **manifest** version (component lineage plus the inferred-schema
//!   snapshot the tuple compactor produced, §2.2), and only then removes the
//!   WAL segments covering the flushed records — all while concurrent
//!   writers keep appending to the active segment;
//! * a **merge** commits the manifest swap *before* retiring the input
//!   components' pages, so no crash window can lose data (§4.5.3's merge
//!   piggy-backing, extended with recovery semantics);
//! * **recovery** (`open`/`reopen`) reloads components from the manifest,
//!   replays the WAL into the memtable, and rebuilds the in-memory indexes.
//!
//! The full protocol, its crash windows and the injected
//! [`persist::CrashPoint`]s used by the recovery tests are documented in the
//! `persist` crate. The crash points also fire from background workers, so
//! the recovery tests can kill a dataset under concurrent load.

pub mod dataset;
pub mod index;
pub mod memtable;
pub mod merge;
pub mod policy;
pub mod pool;
pub(crate) mod scheduler;
pub mod snapshot;

pub use dataset::{
    BudgetSplit, DatasetConfig, DatasetHealth, IngestStats, LsmDataset, ReclaimReport,
    WorkerState,
};
pub use pool::{PoolHandle, WorkerPool};
pub use index::{PrimaryKeyIndex, SecondaryIndex};
pub use memtable::Memtable;
pub use merge::{merge_components, MergeLane, MergeReport};
pub use persist::CrashPoint;
pub use policy::CompactionSpec;
pub use snapshot::{
    BatchScan, EntryMergeCursor, RowOrigin, ScanBatch, ScanCursor, ScanSpec, Snapshot, Winner,
};

/// Error type shared by the LSM layer.
pub type LsmError = encoding::DecodeError;
/// Result alias.
pub type Result<T> = std::result::Result<T, LsmError>;
