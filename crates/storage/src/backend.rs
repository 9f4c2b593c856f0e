//! Storage backends behind [`crate::pagestore::PageStore`].
//!
//! The reproduction originally ran on a purely in-memory "simulated disk".
//! The durability subsystem (`persist`) needs real files, so the page store
//! is now split in two layers: [`PageStore`](crate::pagestore::PageStore)
//! keeps the I/O accounting and the API every layout writer/reader uses,
//! while the actual byte storage lives behind this [`StorageBackend`] trait:
//!
//! * [`MemoryBackend`] — the original vector of pages; fast, volatile, and
//!   the default for experiments that only measure I/O counters;
//! * [`FileBackend`] — one file per dataset, with every page stored in a
//!   page-aligned slot at `id * page_size`. Each slot carries a small header
//!   (payload length + CRC-32) so variable-length payloads round-trip
//!   exactly and torn or corrupt slots are detected instead of decoded.
//!
//! Backends store *whole pages*: compression, layout encoding and caching
//! all happen above this interface.
//!
//! Both backends keep a **free list**: `free_pages` blanks a slot *and*
//! records its id so the next `append_page` reuses it instead of growing the
//! page file. Under update-heavy workloads (where merges retire whole runs of
//! input pages) this caps the file at roughly the high-water mark of live
//! data instead of growing monotonically. Reused ids make stale caching a
//! hazard, so freeing must go through [`crate::pagestore::BufferCache`] (or
//! [`crate::pagestore::PageStore`]) rather than the backend directly — the
//! cache evicts the ids before the backend can hand them out again.

use std::collections::BTreeSet;
use std::fs::{File, OpenOptions};
use std::io;
use std::os::unix::fs::FileExt;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use encoding::crc::crc32;
use parking_lot::Mutex;

use crate::pagestore::PageId;
use crate::{Result, StorageError};

/// Byte storage for fixed-size pages. Implementations must be safe to share
/// across threads (the buffer cache clones its store handle freely).
pub trait StorageBackend: Send + Sync {
    /// The fixed page size in bytes. Payloads may be shorter (they are
    /// length-delimited) but never longer than [`StorageBackend::max_payload`].
    fn page_size(&self) -> usize;

    /// Largest payload `append_page` accepts. The file backend reserves a
    /// few header bytes inside each slot, so this can be slightly smaller
    /// than `page_size`.
    fn max_payload(&self) -> usize;

    /// Number of page slots allocated so far (live pages plus free-listed
    /// slots awaiting reuse). This is the physical size of the backing
    /// storage in pages.
    fn page_count(&self) -> u64;

    /// Number of slots currently on the free list (allocated but dead).
    fn free_page_count(&self) -> u64;

    /// Store `data` in a page and return its id: a slot from the free list
    /// when one is available, a freshly grown slot otherwise.
    fn append_page(&self, data: Vec<u8>) -> Result<PageId>;

    /// Read a page's payload. Freed pages read back empty until their slot
    /// is reused.
    fn read_page(&self, id: PageId) -> Result<Arc<Vec<u8>>>;

    /// Release the contents of the given pages (after an LSM merge deletes
    /// its input components). The slots go on the free list and may be
    /// handed out again by a later `append_page`; freeing an id twice is a
    /// no-op. Callers that cache page contents must evict these ids first.
    fn free_pages(&self, ids: &[PageId]) -> Result<()>;

    /// Give back the contiguous run of *trailing* free slots: while the
    /// highest allocated slot is on the free list, deallocate it (truncate
    /// the page file / pop the page vector). Returns how many slots were
    /// released. Free slots in the middle of the file stay on the free list —
    /// the space-reclamation pass (`LsmDataset::reclaim_space`) relocates
    /// live pages downward first so the dead tail grows.
    fn shrink_free_tail(&self) -> Result<u64>;

    /// Flush all written pages to durable storage (no-op in memory).
    fn sync(&self) -> Result<()>;
}

/// The original in-process backend: a vector of pages under a lock, plus a
/// free list of reusable slot ids.
pub struct MemoryBackend {
    page_size: usize,
    state: Mutex<MemoryState>,
}

struct MemoryState {
    pages: Vec<Arc<Vec<u8>>>,
    /// Freed slot ids awaiting reuse; ordered so reuse is deterministic
    /// (lowest id first).
    free: BTreeSet<PageId>,
}

impl MemoryBackend {
    /// Create an empty in-memory backend.
    pub fn new(page_size: usize) -> MemoryBackend {
        MemoryBackend {
            page_size,
            state: Mutex::new(MemoryState {
                pages: Vec::new(),
                free: BTreeSet::new(),
            }),
        }
    }
}

impl StorageBackend for MemoryBackend {
    fn page_size(&self) -> usize {
        self.page_size
    }

    fn max_payload(&self) -> usize {
        self.page_size
    }

    fn page_count(&self) -> u64 {
        self.state.lock().pages.len() as u64
    }

    fn free_page_count(&self) -> u64 {
        self.state.lock().free.len() as u64
    }

    fn append_page(&self, data: Vec<u8>) -> Result<PageId> {
        let mut state = self.state.lock();
        if let Some(id) = state.free.pop_first() {
            state.pages[id as usize] = Arc::new(data);
            Ok(id)
        } else {
            state.pages.push(Arc::new(data));
            Ok((state.pages.len() - 1) as PageId)
        }
    }

    fn read_page(&self, id: PageId) -> Result<Arc<Vec<u8>>> {
        let state = self.state.lock();
        state
            .pages
            .get(id as usize)
            .cloned()
            .ok_or_else(|| StorageError::new(format!("unknown page id {id}")))
    }

    fn free_pages(&self, ids: &[PageId]) -> Result<()> {
        let mut state = self.state.lock();
        for &id in ids {
            if (id as usize) < state.pages.len() && state.free.insert(id) {
                state.pages[id as usize] = Arc::new(Vec::new());
            }
        }
        Ok(())
    }

    fn shrink_free_tail(&self) -> Result<u64> {
        let mut state = self.state.lock();
        let mut released = 0u64;
        while let Some(&last) = state.free.last() {
            if last as usize + 1 != state.pages.len() {
                break;
            }
            state.free.remove(&last);
            state.pages.pop();
            released += 1;
        }
        Ok(released)
    }

    fn sync(&self) -> Result<()> {
        Ok(())
    }
}

/// Per-slot header of the file backend: payload length + CRC-32.
const SLOT_HEADER: usize = 8;

/// File-backed pages: one file per dataset, page `id` in the page-aligned
/// slot at byte offset `id * page_size`.
pub struct FileBackend {
    file: File,
    page_size: usize,
    next_id: AtomicU64,
    /// Serialises slot allocation; reads go through `pread` without it.
    append_lock: Mutex<()>,
    /// Freed slot ids awaiting reuse. Not persisted: after a restart the
    /// recovery path (`LsmDataset::open`) re-derives dead slots by
    /// reconciling the page file against the manifest's component page sets
    /// and frees them again, which repopulates this list.
    free: Mutex<BTreeSet<PageId>>,
}

impl FileBackend {
    /// Open (or create) the page file at `path`. An existing file must hold
    /// a whole number of `page_size` slots; its pages become readable again.
    pub fn open(path: &Path, page_size: usize) -> Result<FileBackend> {
        assert!(
            page_size > SLOT_HEADER + 1,
            "page size {page_size} cannot hold the slot header"
        );
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(path)
            .map_err(|e| io_error("open page file", path, &e))?;
        let len = file
            .metadata()
            .map_err(|e| io_error("stat page file", path, &e))?
            .len();
        if len % page_size as u64 != 0 {
            return Err(StorageError::new(format!(
                "page file {} has length {len}, not a multiple of the page size {page_size} \
                 (wrong page size, or a truncated file)",
                path.display()
            )));
        }
        Ok(FileBackend {
            file,
            page_size,
            next_id: AtomicU64::new(len / page_size as u64),
            append_lock: Mutex::new(()),
            free: Mutex::new(BTreeSet::new()),
        })
    }
}

fn io_error(op: &str, path: &Path, e: &io::Error) -> StorageError {
    StorageError::new(format!("{op} {}: {e}", path.display()))
}

impl StorageBackend for FileBackend {
    fn page_size(&self) -> usize {
        self.page_size
    }

    fn max_payload(&self) -> usize {
        self.page_size - SLOT_HEADER
    }

    fn page_count(&self) -> u64 {
        self.next_id.load(Ordering::SeqCst)
    }

    fn free_page_count(&self) -> u64 {
        self.free.lock().len() as u64
    }

    fn append_page(&self, data: Vec<u8>) -> Result<PageId> {
        assert!(
            data.len() <= self.max_payload(),
            "payload {} exceeds file-backed page capacity {} ({} bytes are the slot header)",
            data.len(),
            self.max_payload(),
            SLOT_HEADER
        );
        let mut slot = Vec::with_capacity(self.page_size);
        slot.extend_from_slice(&(data.len() as u32).to_le_bytes());
        slot.extend_from_slice(&crc32(&data).to_le_bytes());
        slot.extend_from_slice(&data);
        slot.resize(self.page_size, 0);

        let _guard = self.append_lock.lock();
        // Reuse a freed slot when one exists; grow the file otherwise.
        let (id, grows) = match self.free.lock().pop_first() {
            Some(id) => (id, false),
            None => (self.next_id.load(Ordering::SeqCst), true),
        };
        let offset = id * self.page_size as u64;
        if let Err(e) = self.file.write_all_at(&slot, offset) {
            // No page names the slot: a reused one goes back on the free
            // list, a new one is cut off again, so that a partial write does
            // not leave the file a fraction of a slot long (open refuses it).
            if grows {
                let _ = self.file.set_len(offset);
            } else {
                self.free.lock().insert(id);
            }
            return Err(StorageError::new(format!("write page {id}: {e}")));
        }
        if grows {
            self.next_id.store(id + 1, Ordering::SeqCst);
        }
        Ok(id)
    }

    fn read_page(&self, id: PageId) -> Result<Arc<Vec<u8>>> {
        if id >= self.page_count() {
            return Err(StorageError::new(format!("unknown page id {id}")));
        }
        // The header first, then exactly the payload it announces, read into
        // the buffer that is handed on: no slot padding is read, zeroed or
        // copied a second time.
        let offset = id * self.page_size as u64;
        let read = |buf: &mut [u8], at: u64| {
            self.file
                .read_exact_at(buf, at)
                .map_err(|e| StorageError::new(format!("read page {id}: {e}")))
        };
        let mut header = [0u8; SLOT_HEADER];
        read(&mut header, offset)?;
        let [l0, l1, l2, l3, c0, c1, c2, c3] = header;
        let len = u32::from_le_bytes([l0, l1, l2, l3]) as usize;
        let expected_crc = u32::from_le_bytes([c0, c1, c2, c3]);
        if len > self.max_payload() {
            return Err(StorageError::new(format!(
                "page {id} header claims {len} bytes, beyond the slot capacity — corrupt page"
            )));
        }
        let mut payload = vec![0u8; len];
        read(&mut payload, offset + SLOT_HEADER as u64)?;
        if crc32(&payload) != expected_crc {
            return Err(StorageError::new(format!(
                "page {id} failed its CRC check — corrupt page"
            )));
        }
        Ok(Arc::new(payload))
    }

    fn free_pages(&self, ids: &[PageId]) -> Result<()> {
        // Rewrite the slot header as an empty payload (so the dead bytes can
        // never be mistaken for a live page after a crash) and put the slot
        // on the free list for the next append to reuse.
        let mut header = [0u8; SLOT_HEADER];
        header[4..8].copy_from_slice(&crc32(&[]).to_le_bytes());
        // Taking the append lock keeps a freed slot from being handed back
        // out (and overwritten) while its blank header is still in flight.
        let _guard = self.append_lock.lock();
        // A slot joins the free list only once its header is written, so a
        // failed write leaves it (and the ids after it) allocated.
        for &id in ids {
            if id >= self.page_count() || self.free.lock().contains(&id) {
                continue;
            }
            self.file
                .write_all_at(&header, id * self.page_size as u64)
                .map_err(|e| StorageError::new(format!("free page {id}: {e}")))?;
            self.free.lock().insert(id);
        }
        Ok(())
    }

    fn shrink_free_tail(&self) -> Result<u64> {
        // The append lock keeps a concurrent append from being handed a slot
        // this truncation is about to cut off.
        let _guard = self.append_lock.lock();
        let mut free = self.free.lock();
        let mut next = self.next_id.load(Ordering::SeqCst);
        let mut released = 0u64;
        while let Some(&last) = free.last() {
            if last + 1 != next {
                break;
            }
            free.remove(&last);
            next -= 1;
            released += 1;
        }
        if released > 0 {
            self.file
                .set_len(next * self.page_size as u64)
                .map_err(|e| StorageError::new(format!("truncate page file: {e}")))?;
            self.next_id.store(next, Ordering::SeqCst);
        }
        Ok(released)
    }

    fn sync(&self) -> Result<()> {
        self.file
            .sync_data()
            .map_err(|e| StorageError::new(format!("sync page file: {e}")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_path(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!(
            "storage-backend-tests-{}-{name}",
            std::process::id()
        ))
    }

    #[test]
    fn memory_backend_roundtrip() {
        let backend = MemoryBackend::new(256);
        let a = backend.append_page(vec![1, 2, 3]).unwrap();
        let b = backend.append_page(Vec::new()).unwrap();
        assert_eq!(backend.page_count(), 2);
        assert_eq!(*backend.read_page(a).unwrap(), vec![1, 2, 3]);
        assert_eq!(*backend.read_page(b).unwrap(), Vec::<u8>::new());
        backend.free_pages(&[a]).unwrap();
        assert_eq!(*backend.read_page(a).unwrap(), Vec::<u8>::new());
        assert!(backend.read_page(99).is_err());
    }

    #[test]
    fn file_backend_roundtrip_and_reopen() {
        let path = temp_path("roundtrip.pages");
        let _ = std::fs::remove_file(&path);
        let payloads: Vec<Vec<u8>> = vec![vec![7u8; 100], Vec::new(), vec![42u8; 248]];
        {
            let backend = FileBackend::open(&path, 256).unwrap();
            for p in &payloads {
                backend.append_page(p.clone()).unwrap();
            }
            backend.sync().unwrap();
        }
        // A fresh handle (a "restart") sees the same pages.
        let backend = FileBackend::open(&path, 256).unwrap();
        assert_eq!(backend.page_count(), 3);
        for (i, p) in payloads.iter().enumerate() {
            assert_eq!(&*backend.read_page(i as u64).unwrap(), p, "page {i}");
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn file_backend_detects_corruption() {
        let path = temp_path("corrupt.pages");
        let _ = std::fs::remove_file(&path);
        let backend = FileBackend::open(&path, 128).unwrap();
        let id = backend.append_page(vec![9u8; 64]).unwrap();
        // Flip one payload byte behind the backend's back.
        let file = OpenOptions::new().write(true).open(&path).unwrap();
        file.write_all_at(&[0xFF], SLOT_HEADER as u64 + 10).unwrap();
        let err = backend.read_page(id).unwrap_err();
        assert!(err.message.contains("CRC"), "{err}");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn file_backend_frees_pages() {
        let path = temp_path("free.pages");
        let _ = std::fs::remove_file(&path);
        let backend = FileBackend::open(&path, 128).unwrap();
        let id = backend.append_page(vec![1u8; 32]).unwrap();
        backend.free_pages(&[id]).unwrap();
        assert_eq!(*backend.read_page(id).unwrap(), Vec::<u8>::new());
        // Freeing unknown ids is a no-op, not an error.
        backend.free_pages(&[55]).unwrap();
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn memory_backend_reuses_freed_slots() {
        let backend = MemoryBackend::new(256);
        let ids: Vec<_> = (0..4)
            .map(|i| backend.append_page(vec![i as u8; 8]).unwrap())
            .collect();
        backend.free_pages(&[ids[1], ids[2]]).unwrap();
        assert_eq!(backend.free_page_count(), 2);
        // Double-free is a no-op.
        backend.free_pages(&[ids[1]]).unwrap();
        assert_eq!(backend.free_page_count(), 2);
        // Reuse lowest id first; the backend does not grow.
        assert_eq!(backend.append_page(vec![9u8; 8]).unwrap(), ids[1]);
        assert_eq!(backend.append_page(vec![8u8; 8]).unwrap(), ids[2]);
        assert_eq!(backend.page_count(), 4);
        assert_eq!(backend.free_page_count(), 0);
        assert_eq!(*backend.read_page(ids[1]).unwrap(), vec![9u8; 8]);
        // Free list drained: the next append grows again.
        assert_eq!(backend.append_page(vec![7u8; 8]).unwrap(), 4);
    }

    #[test]
    fn file_backend_reuses_freed_slots() {
        let path = temp_path("reuse.pages");
        let _ = std::fs::remove_file(&path);
        let backend = FileBackend::open(&path, 128).unwrap();
        let ids: Vec<_> = (0..3)
            .map(|i| backend.append_page(vec![i as u8; 32]).unwrap())
            .collect();
        backend.free_pages(&[ids[0]]).unwrap();
        assert_eq!(backend.free_page_count(), 1);
        let reused = backend.append_page(vec![0xAB; 32]).unwrap();
        assert_eq!(reused, ids[0], "freed slot is reused");
        assert_eq!(backend.page_count(), 3, "the file did not grow");
        assert_eq!(*backend.read_page(reused).unwrap(), vec![0xAB; 32]);
        // The other pages are untouched.
        assert_eq!(*backend.read_page(ids[1]).unwrap(), vec![1u8; 32]);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn memory_backend_shrinks_its_free_tail() {
        let backend = MemoryBackend::new(256);
        let ids: Vec<_> = (0..5)
            .map(|i| backend.append_page(vec![i as u8; 8]).unwrap())
            .collect();
        // A hole below the tail blocks nothing above it from going away.
        backend.free_pages(&[ids[1], ids[3], ids[4]]).unwrap();
        assert_eq!(backend.shrink_free_tail().unwrap(), 2);
        assert_eq!(backend.page_count(), 3);
        assert_eq!(backend.free_page_count(), 1, "the hole at 1 stays");
        assert_eq!(*backend.read_page(ids[2]).unwrap(), vec![2u8; 8]);
        // Nothing left to release.
        assert_eq!(backend.shrink_free_tail().unwrap(), 0);
        // The next appends refill the hole, then grow from the new tail.
        assert_eq!(backend.append_page(vec![9u8; 8]).unwrap(), ids[1]);
        assert_eq!(backend.append_page(vec![9u8; 8]).unwrap(), 3);
    }

    #[test]
    fn file_backend_shrinks_its_free_tail() {
        let path = temp_path("shrink.pages");
        let _ = std::fs::remove_file(&path);
        let backend = FileBackend::open(&path, 128).unwrap();
        let ids: Vec<_> = (0..4)
            .map(|i| backend.append_page(vec![i as u8; 32]).unwrap())
            .collect();
        backend.free_pages(&[ids[2], ids[3]]).unwrap();
        assert_eq!(backend.shrink_free_tail().unwrap(), 2);
        assert_eq!(backend.page_count(), 2);
        assert_eq!(backend.free_page_count(), 0);
        let len = std::fs::metadata(&path).unwrap().len();
        assert_eq!(len, 2 * 128, "the page file physically shrank");
        assert_eq!(*backend.read_page(ids[1]).unwrap(), vec![1u8; 32]);
        assert!(backend.read_page(ids[3]).is_err(), "truncated slot is gone");
        // A reopen agrees with the truncated geometry.
        drop(backend);
        let backend = FileBackend::open(&path, 128).unwrap();
        assert_eq!(backend.page_count(), 2);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn file_backend_rejects_bad_geometry() {
        let path = temp_path("geometry.pages");
        let _ = std::fs::remove_file(&path);
        {
            let backend = FileBackend::open(&path, 128).unwrap();
            backend.append_page(vec![1u8; 16]).unwrap();
        }
        assert!(
            FileBackend::open(&path, 96).is_err(),
            "mismatched page size"
        );
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    #[should_panic(expected = "exceeds file-backed page capacity")]
    fn file_backend_rejects_oversized_payload() {
        let path = temp_path("oversize.pages");
        let _ = std::fs::remove_file(&path);
        let backend = FileBackend::open(&path, 128).unwrap();
        // Unlinked before the expected panic; the open file takes the write.
        let _ = std::fs::remove_file(&path);
        let _ = backend.append_page(vec![0u8; 128]);
    }
}
