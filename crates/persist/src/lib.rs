//! # persist — the durability subsystem
//!
//! The paper's columnar LSM design assumes components live on disk and
//! survive restarts; this crate supplies that layer for the reproduction. A
//! durable dataset is a directory:
//!
//! ```text
//! <dataset>/
//!   pages.dat        one file of page-aligned slots (storage::FileBackend)
//!   wal-NNNNNN.log   WAL segments of CRC-framed insert/delete records
//!                    (segment 0 first, later ones created by rotation)
//!   MANIFEST         versioned, CRC-guarded root: config + schema + components
//! ```
//!
//! ## The protocol, mapped onto the LSM lifecycle
//!
//! The paper piggy-backs schema inference and columnar conversion on the
//! flush and merge events (§2.2, §4.5); durability piggy-backs on exactly the
//! same events:
//!
//! * **Ingest** — every insert/upsert/delete is staged in the WAL as it is
//!   applied to the memtable, and the staged frames reach the OS in one
//!   `write` before the call that applied them returns: a single insert
//!   writes its frame before it touches the memtable, a batch writes once
//!   at its end and at every group commit (and every seal, below). The
//!   memtable is the only volatile state; the WAL is its durable twin.
//!   Staged frames are not written when the store drops — they are lost as
//!   in a crash, which is what the drop-as-crash recovery tests rely on.
//! * **Seal** — when the memtable fills it is sealed for flushing and the WAL
//!   is *rotated* ([`DurableStore::rotate_wal`], which first writes and syncs
//!   the staged frames): the sealed memtable's records are confined to
//!   segments up to the rotated id while new inserts append to a fresh
//!   segment. Sealing is what lets the flush run on a
//!   background worker while ingestion continues.
//! * **Flush** — the sealed memtable is written as a new component into the
//!   page file, the page file is synced, and a new manifest version is
//!   committed recording the component (with the inferred schema snapshot the
//!   tuple compactor produced for it, §2.2). Only after the manifest commit
//!   are the WAL segments covering the flushed records removed: a crash
//!   anywhere in between replays the still-present segments over the
//!   (possibly already committed) component, which is idempotent because
//!   replay reapplies the same keys.
//! * **Merge** — the merged component is written and synced, then a manifest
//!   version is committed that swaps the input components for the output;
//!   only *after* that commit are the input pages freed (and only once no
//!   concurrent reader still holds the inputs — see `Component::retire` in
//!   the storage crate). A crash before the commit leaves the old manifest
//!   pointing at the old, still-intact components.
//! * **Recovery** — [`DurableStore::open`] loads the manifest, reopens every
//!   listed component against the page file, and replays every remaining WAL
//!   segment (oldest first) into the memtable. A torn tail in the newest
//!   segment (an unacknowledged partial frame) is detected by CRC and
//!   dropped.
//!
//! Orphaned pages (from crashes between component write and manifest commit)
//! are never visible to readers, because visibility is defined solely by the
//! manifest — and they are *reclaimed at the next open*: recovery reconciles
//! the page file against the union of manifest-referenced pages and frees
//! every unreferenced slot back onto the backends' free lists, so a crash
//! costs no space beyond the restart window (the orphan sweep lives in
//! `LsmDataset::open` in the `lsm` crate).
//!
//! ## Concurrency
//!
//! [`DurableStore`] is internally synchronised and is shared as an
//! `Arc<DurableStore>` between the ingest path (WAL appends) and background
//! flush/merge workers (manifest commits + segment removal). The WAL, the
//! manifest store and the armed crash point each sit behind their own small
//! mutex, so a worker committing a manifest never blocks a writer appending
//! to the WAL.
//!
//! ## Crash points
//!
//! [`CrashPoint`] injects failures at the protocol's interesting boundaries
//! (after component write, after manifest commit / before WAL truncation,
//! before a merge's manifest commit) so recovery tests can exercise each
//! window deterministically — including while background workers and writer
//! threads are active.

pub mod manifest;
pub mod wal;

use std::path::Path;
use std::sync::{Arc, OnceLock};
use std::time::Instant;

use parking_lot::Mutex;
use storage::PageStore;
use telemetry::{EventKind, Telemetry};

pub use manifest::{ManifestData, ManifestStore};
pub use wal::{Wal, WalRecord, WalReplay};

/// Error type of the durability layer (shared with the storage stack so
/// `?` composes across crates).
pub type PersistError = encoding::DecodeError;
/// Result alias.
pub type Result<T> = std::result::Result<T, PersistError>;

/// File name of the page file within a dataset directory.
pub const PAGE_FILE_NAME: &str = "pages.dat";

/// Injected failure points for recovery tests. Each fires once (the
/// injection is consumed) and makes the surrounding operation return an
/// error after the earlier protocol steps have already reached the disk —
/// exactly what a crash at that boundary leaves behind.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrashPoint {
    /// Flush: component pages are written and synced, but no manifest was
    /// committed. Recovery must serve the records from the WAL alone.
    AfterFlushComponentWrite,
    /// Flush: the manifest was committed, but the WAL was not truncated.
    /// Recovery sees the records twice (component + WAL) and must reconcile.
    AfterFlushManifestCommit,
    /// Merge: the merged component's pages are written and synced, but the
    /// manifest still lists the inputs. Recovery must serve the old
    /// components; the merged pages are orphans.
    BeforeMergeManifestCommit,
}

struct WalState {
    wal: Wal,
    appends_since_sync: u64,
}

/// The durable state of one dataset directory: page file, WAL and manifest,
/// plus the commit protocol tying them together. All methods take `&self`;
/// the struct is designed to be shared via `Arc` between the writer and
/// background flush/merge workers.
///
/// WAL frames are staged ([`DurableStore::stage_insert`],
/// [`DurableStore::stage_delete`]) and reach the OS in one `write` at
/// [`DurableStore::write_wal`], [`DurableStore::sync_wal`] or
/// [`DurableStore::rotate_wal`]. A store dropped with frames staged loses
/// them, as a crash would, so a writer writes before it acknowledges.
pub struct DurableStore {
    store: PageStore,
    wal: Mutex<WalState>,
    manifest: Mutex<ManifestStore>,
    crash_point: Mutex<Option<CrashPoint>>,
    /// Optional metrics/event sink, attached by the dataset after open
    /// (the registry is owned by the LSM layer; `OnceLock` keeps the read
    /// on the append path to one atomic load).
    telemetry: OnceLock<Arc<Telemetry>>,
}

/// What [`DurableStore::open`] recovered from the directory.
pub struct Recovered {
    /// The manifest, if the directory holds a committed one.
    pub manifest: Option<ManifestData>,
    /// Acknowledged mutations not yet covered by a component, oldest first.
    pub wal_records: Vec<WalRecord>,
    /// WAL segment files scanned (and replayed) at open.
    pub wal_segments_replayed: usize,
    /// Whether a torn tail was truncated off the newest WAL segment.
    pub torn_tail_healed: bool,
}

impl DurableStore {
    /// Open (or create) the dataset directory, returning the durable store
    /// and everything recovery needs.
    pub fn open(dir: &Path, page_size: usize) -> Result<(DurableStore, Recovered)> {
        std::fs::create_dir_all(dir)
            .map_err(|e| PersistError::new(format!("create dataset dir {}: {e}", dir.display())))?;
        let (manifest, manifest_data) = ManifestStore::open(dir)?;
        if let Some(data) = &manifest_data {
            if data.page_size != page_size as u64 {
                return Err(PersistError::new(format!(
                    "dataset was created with page size {}, reopened with {page_size}",
                    data.page_size
                )));
            }
        }
        let store = PageStore::file_backed(&dir.join(PAGE_FILE_NAME), page_size)?;
        let (wal, replay) = Wal::open(dir)?;
        Ok((
            DurableStore {
                store,
                wal: Mutex::new(WalState {
                    wal,
                    appends_since_sync: 0,
                }),
                manifest: Mutex::new(manifest),
                crash_point: Mutex::new(None),
                telemetry: OnceLock::new(),
            },
            Recovered {
                manifest: manifest_data,
                wal_records: replay.records,
                wal_segments_replayed: replay.segments_replayed,
                torn_tail_healed: replay.torn_tail_healed,
            },
        ))
    }

    /// Attach the dataset's metrics/event registry. WAL append counts, fsync
    /// latencies and the seal/remove/manifest lifecycle events flow into it
    /// from then on. First attachment wins; later calls are no-ops.
    pub fn set_telemetry(&self, telemetry: Arc<Telemetry>) {
        let _ = self.telemetry.set(telemetry);
    }

    /// The attached registry, if recording is enabled.
    fn sink(&self) -> Option<&Telemetry> {
        self.telemetry
            .get()
            .map(|t| t.as_ref())
            .filter(|t| t.enabled())
    }

    /// The file-backed page store components are written to.
    pub fn page_store(&self) -> &PageStore {
        &self.store
    }

    /// Version of the last committed manifest (0 before the first commit).
    pub fn manifest_version(&self) -> u64 {
        self.manifest.lock().version()
    }

    /// Bytes currently in the WAL (across every segment).
    pub fn wal_bytes(&self) -> u64 {
        self.wal.lock().wal.len_bytes()
    }

    /// Arm a crash point (used by recovery tests).
    pub fn set_crash_point(&self, point: CrashPoint) {
        *self.crash_point.lock() = Some(point);
    }

    fn trip(&self, point: CrashPoint) -> Result<()> {
        let mut armed = self.crash_point.lock();
        if *armed == Some(point) {
            *armed = None;
            return Err(PersistError::new(format!(
                "injected crash at {point:?} (recovery test)"
            )));
        }
        Ok(())
    }

    /// Count one WAL append in the attached registry.
    fn note_append(&self) {
        if let Some(t) = self.sink() {
            t.wal_appends.incr();
        }
    }

    /// `Instant::now()` only when someone will consume the measurement.
    fn timer(&self) -> Option<Instant> {
        self.sink().map(|_| Instant::now())
    }

    /// Stage an insert frame without materialising a [`WalRecord`]. It is
    /// not written until [`DurableStore::write_wal`], `sync_wal` or
    /// `rotate_wal`; a store dropped before then loses it, as a crash would.
    pub fn stage_insert(&self, key: &docmodel::Value, record: &docmodel::Value) -> Result<()> {
        let mut state = self.wal.lock();
        state.wal.append_insert(key, record)?;
        state.appends_since_sync += 1;
        drop(state);
        self.note_append();
        Ok(())
    }

    /// Stage a delete frame, like [`DurableStore::stage_insert`].
    pub fn stage_delete(&self, key: &docmodel::Value) -> Result<()> {
        let mut state = self.wal.lock();
        state.wal.append_delete(key)?;
        state.appends_since_sync += 1;
        drop(state);
        self.note_append();
        Ok(())
    }

    /// Write every staged frame to the OS in one `write` (not fsynced).
    pub fn write_wal(&self) -> Result<()> {
        self.wal.lock().wal.write_pending()
    }

    /// Write the staged frames and fsync the WAL (group-commit point for
    /// callers that need device-level durability of every acknowledged
    /// record).
    pub fn sync_wal(&self) -> Result<()> {
        let started = self.timer();
        let mut state = self.wal.lock();
        if state.appends_since_sync > 0 {
            state.wal.sync()?;
            state.appends_since_sync = 0;
            drop(state);
            if let (Some(t), Some(started)) = (self.sink(), started) {
                t.wal_syncs.incr();
                t.wal_sync_latency
                    .record(started.elapsed().as_micros() as u64);
            }
        }
        Ok(())
    }

    /// Write and sync the staged frames and seal the active WAL segment
    /// (called while the memtable it covers is sealed for flushing). Returns the sealed segment id to later pass to
    /// [`DurableStore::commit_flush`].
    pub fn rotate_wal(&self) -> Result<u64> {
        let mut state = self.wal.lock();
        let id = state.wal.rotate()?;
        state.appends_since_sync = 0;
        drop(state);
        if let Some(t) = self.sink() {
            t.emit(EventKind::WalSegmentSealed { segment: id });
        }
        Ok(id)
    }

    /// Commit a flush of records confined to WAL segments `<=
    /// through_segment` (the id returned by [`DurableStore::rotate_wal`] when
    /// the flushed memtable was sealed). The new component's pages are
    /// already in the page store. Syncs pages, commits the manifest, then
    /// removes the covered WAL segments — in that order, so every crash
    /// window is recoverable. Concurrent appends to the active segment are
    /// unaffected.
    pub fn commit_flush(&self, data: ManifestData, through_segment: u64) -> Result<u64> {
        self.store.sync()?;
        self.trip(CrashPoint::AfterFlushComponentWrite)?;
        let version = self.manifest.lock().commit(data)?;
        if let Some(t) = self.sink() {
            t.emit(EventKind::ManifestCommit { version });
        }
        self.trip(CrashPoint::AfterFlushManifestCommit)?;
        self.wal.lock().wal.remove_through(through_segment)?;
        if let Some(t) = self.sink() {
            t.emit(EventKind::WalSegmentsRemoved {
                through: through_segment,
            });
        }
        Ok(version)
    }

    /// Commit a merge: the merged component's pages are already in the page
    /// store; the manifest swap makes it visible. The caller frees the input
    /// components' pages only after this returns (and only once no reader
    /// still holds them).
    pub fn commit_merge(&self, data: ManifestData) -> Result<u64> {
        self.store.sync()?;
        self.trip(CrashPoint::BeforeMergeManifestCommit)?;
        let version = self.manifest.lock().commit(data)?;
        if let Some(t) = self.sink() {
            t.emit(EventKind::ManifestCommit { version });
        }
        Ok(version)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use docmodel::{doc, Value};
    use schema::SchemaBuilder;
    use std::path::PathBuf;

    fn temp_dir(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("persist-store-tests-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn empty_manifest(page_size: u64) -> ManifestData {
        ManifestData {
            version: 0,
            page_size,
            config: Vec::new(),
            next_component_id: 0,
            schema: SchemaBuilder::new(Some("id".to_string())).into_schema(),
            components: Vec::new(),
        }
    }

    #[test]
    fn open_log_reopen_replays() {
        let dir = temp_dir("replay");
        {
            let (ds, recovered) = DurableStore::open(&dir, 4096).unwrap();
            assert!(recovered.manifest.is_none());
            assert!(recovered.wal_records.is_empty());
            ds.stage_insert(&Value::Int(1), &doc!({"id": 1})).unwrap();
            ds.stage_delete(&Value::Int(1)).unwrap();
            ds.sync_wal().unwrap();
        }
        let (ds, recovered) = DurableStore::open(&dir, 4096).unwrap();
        assert_eq!(recovered.wal_records.len(), 2);
        assert!(ds.wal_bytes() > 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn commit_flush_removes_covered_segments_and_bumps_version() {
        let dir = temp_dir("flush");
        let (ds, _) = DurableStore::open(&dir, 4096).unwrap();
        ds.stage_insert(&Value::Int(1), &doc!({"id": 1})).unwrap();
        ds.write_wal().unwrap();
        let seg = ds.rotate_wal().unwrap();
        // A record appended after the rotation lives in the next segment and
        // must survive the flush commit.
        ds.stage_insert(&Value::Int(2), &doc!({"id": 2})).unwrap();
        ds.write_wal().unwrap();
        let v = ds.commit_flush(empty_manifest(4096), seg).unwrap();
        assert_eq!(v, 1);
        assert!(ds.wal_bytes() > 0, "the post-rotation record remains");
        assert_eq!(ds.manifest_version(), 1);
        drop(ds);
        let (_, recovered) = DurableStore::open(&dir, 4096).unwrap();
        assert_eq!(recovered.wal_records.len(), 1);
        assert!(matches!(
            &recovered.wal_records[0],
            WalRecord::Insert {
                key: Value::Int(2),
                ..
            }
        ));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn mismatched_page_size_is_rejected() {
        let dir = temp_dir("pagesize");
        {
            let (ds, _) = DurableStore::open(&dir, 4096).unwrap();
            let seg = ds.rotate_wal().unwrap();
            ds.commit_flush(empty_manifest(4096), seg).unwrap();
        }
        let err = DurableStore::open(&dir, 8192).err().unwrap();
        assert!(err.message.contains("page size"), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn crash_points_fire_once_at_their_boundary() {
        let dir = temp_dir("crashpoints");
        let (ds, _) = DurableStore::open(&dir, 4096).unwrap();
        ds.stage_insert(&Value::Int(1), &doc!({"id": 1})).unwrap();
        ds.write_wal().unwrap();
        let seg = ds.rotate_wal().unwrap();

        // Before the manifest commit: version unchanged, WAL intact.
        ds.set_crash_point(CrashPoint::AfterFlushComponentWrite);
        assert!(ds.commit_flush(empty_manifest(4096), seg).is_err());
        assert_eq!(ds.manifest_version(), 0);
        assert!(ds.wal_bytes() > 0);

        // After the manifest commit: version bumped, WAL still intact.
        ds.set_crash_point(CrashPoint::AfterFlushManifestCommit);
        assert!(ds.commit_flush(empty_manifest(4096), seg).is_err());
        assert_eq!(ds.manifest_version(), 1);
        assert!(ds.wal_bytes() > 0);

        // The injection is consumed: the next commit succeeds.
        assert_eq!(ds.commit_flush(empty_manifest(4096), seg).unwrap(), 2);
        assert_eq!(ds.wal_bytes(), 0);

        // Merge crash point blocks the manifest swap.
        ds.set_crash_point(CrashPoint::BeforeMergeManifestCommit);
        assert!(ds.commit_merge(empty_manifest(4096)).is_err());
        assert_eq!(ds.manifest_version(), 2);
        assert_eq!(ds.commit_merge(empty_manifest(4096)).unwrap(), 3);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn concurrent_appends_and_commits_share_the_store() {
        let dir = temp_dir("concurrent");
        let (ds, _) = DurableStore::open(&dir, 4096).unwrap();
        let ds = std::sync::Arc::new(ds);
        let writer = {
            let ds = ds.clone();
            std::thread::spawn(move || {
                for i in 0..200i64 {
                    ds.stage_insert(&Value::Int(i), &doc!({"id": i})).unwrap();
                    ds.write_wal().unwrap();
                }
            })
        };
        // Interleave rotations + commits with the appends.
        for _ in 0..5 {
            let seg = ds.rotate_wal().unwrap();
            ds.commit_flush(empty_manifest(4096), seg).unwrap();
        }
        writer.join().unwrap();
        drop(ds);
        // Whatever survived the removals replays cleanly.
        let (_, recovered) = DurableStore::open(&dir, 4096).unwrap();
        for r in &recovered.wal_records {
            assert!(matches!(r, WalRecord::Insert { .. }));
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
