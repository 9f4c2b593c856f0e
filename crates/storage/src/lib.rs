//! # storage — pages, row formats, and the APAX / AMAX columnar layouts
//!
//! This crate is the on-disk half of the document store substrate:
//!
//! * [`pagestore`] — fixed-size pages with read/write accounting (the
//!   experiments report page I/O alongside wall time, since the paper's I/O
//!   savings are the mechanism behind its speedups) and the LRU page cache
//!   [`pagestore::BufferCache`] in front of them;
//! * [`backend`] — the byte storage behind the page store: the in-memory
//!   simulated disk, and the file-backed backend (one page file per
//!   dataset, CRC-guarded page slots) the `persist` subsystem builds on;
//! * [`rowformat`] — the two row-major baselines: AsterixDB's schemaless
//!   recursive **Open** format (field names embedded in every record, nested
//!   values behind per-level offsets) and the **Vector-Based (VB)** format of
//!   the tuple-compactor paper (structure separated from values, written in
//!   one pass);
//! * [`rowpage`] — slotted leaf pages holding row-format records;
//! * [`apax`] — the APAX leaf-page layout (Figure 8): every column occupies a
//!   minipage inside one B+-tree leaf page, reachable through header offsets,
//!   with the page-level min/max keys stored in the header;
//! * [`amax`] — the AMAX mega-leaf layout (Figure 9): Page 0 carries the
//!   header, per-column min/max prefixes and the encoded primary keys; each
//!   column becomes a megapage spanning physical pages, written largest to
//!   smallest under an `empty-page-tolerance`;
//! * [`component`] — immutable sorted runs ("on-disk components") in any of
//!   the four layouts behind one [`component::Component`] handle: cursors
//!   with projection and pushed filters, and point lookups;
//! * [`writer`] — the one incremental [`ComponentWriter`] flush and merge
//!   both build components with: entries or record ranges of column chunks
//!   in, one open leaf resident, leaves and zone maps out;
//! * [`leafcache`] — a shared, size-bounded cache of *decoded* leaves, one
//!   entry per `(component id, leaf index)` holding the columns decoded so
//!   far, shared across snapshots and shards, that lets hot reads skip both
//!   the page reads and the decode/assembly;
//! * [`stats`] — per-component column statistics (value counts and min/max
//!   zone maps) collected at flush/merge time, persisted in the manifest,
//!   and consumed by the query planner for zone-map pruning and the
//!   cost-based scan-vs-index-probe decision (planning reads no cache).

#![cfg_attr(not(test), deny(clippy::unwrap_used))]

pub mod amax;
pub mod apax;
pub mod backend;
pub mod batch;
pub mod component;
pub mod leafcache;
pub mod pagestore;
pub mod rowformat;
pub mod rowpage;
pub mod stats;
pub mod writer;

pub use backend::{FileBackend, MemoryBackend, StorageBackend};
pub use batch::{BatchRows, ColumnBatch};
pub use component::{ComponentDescriptor, LayoutKind, LeafDescriptor};
pub use leafcache::{DecodedLeaf, LeafCache, LeafCacheHandle, LeafCacheStats};
pub use stats::{ColumnStats, ComponentStats};
pub use writer::ComponentWriter;
pub use pagestore::{BufferCache, IoStats, PageId, PageStore, DEFAULT_CACHE_PAGES, PAGE_SIZE_DEFAULT};
pub use rowformat::RowFormat;

/// Error type shared by the storage readers (decode failures, corrupt pages).
pub type StorageError = encoding::DecodeError;
/// Result alias.
pub type Result<T> = std::result::Result<T, StorageError>;
