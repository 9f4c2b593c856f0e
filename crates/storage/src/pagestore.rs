//! Pages, I/O accounting and the buffer cache.
//!
//! [`PageStore`] is the disk every component writer and reader talks to: a
//! store of fixed-size pages with atomic counters for pages read, pages
//! written and bytes moved. All experiments report these counters next to
//! wall-clock time because the paper's query speedups are, at heart, I/O
//! reductions (read fewer columns, read fewer bytes per column) while its
//! ingestion slowdowns are CPU effects (encode/decode, page construction).
//!
//! The bytes themselves live behind a [`crate::backend::StorageBackend`]:
//! the default [`crate::backend::MemoryBackend`] keeps the original
//! simulated in-process disk, while [`PageStore::file_backed`] opens the
//! [`crate::backend::FileBackend`] the durability subsystem (`persist`)
//! builds on. The accounting layer is identical for both, so durable and
//! in-memory runs report comparable I/O counters.
//!
//! The [`BufferCache`] is an LRU cache of raw pages sized by the configured
//! memory budget. Freshly written pages enter it, so a merge re-reading a
//! just-flushed component is served from memory. (AsterixDB's AMAX writer
//! also borrows buffer-cache pages as temporary megapage buffers, §4.5.2;
//! here the writer buffers its one open leaf in its own memory.)

use std::collections::HashMap;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use crate::backend::{FileBackend, MemoryBackend, StorageBackend};
use crate::leafcache::LeafCacheHandle;
use crate::Result;

/// Default on-disk page size: 128 KiB, the value used in the paper's
/// experiment setup (§6).
pub const PAGE_SIZE_DEFAULT: usize = 128 * 1024;

/// Default [`BufferCache`] capacity, in pages. One documented default for
/// every construction site (dataset configs, persisted manifests, test
/// helpers) so a config round-tripped through the manifest keeps the same
/// cache size it started with.
pub const DEFAULT_CACHE_PAGES: usize = 256;

/// Identifier of a page within a [`PageStore`].
pub type PageId = u64;

/// Counters describing the I/O a workload performed.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct IoStats {
    /// Pages read from the simulated disk (cache misses only).
    pub pages_read: u64,
    /// Pages written to the simulated disk.
    pub pages_written: u64,
    /// Bytes read from the simulated disk.
    pub bytes_read: u64,
    /// Bytes written to the simulated disk.
    pub bytes_written: u64,
    /// Reads satisfied by the buffer cache.
    pub cache_hits: u64,
    /// Records materialised from stored pages (row-page decodes plus
    /// column-chunk assemblies). Scans that batch-skip shadowed entries
    /// (§4.4) assemble fewer records than they visit, and this counter is
    /// how tests observe the difference.
    pub records_assembled: u64,
    /// Leaf loads served by the shared decoded-leaf cache
    /// ([`crate::leafcache::LeafCache`]) — no page reads, no decode.
    pub leaf_cache_hits: u64,
    /// Leaf loads that decoded from pages: the leaf had no entry, or its
    /// entry lacked some of the requested columns (only those decoded).
    pub leaf_cache_misses: u64,
    /// Decoded leaves evicted from the leaf cache to stay under its byte
    /// budget, attributed to the store whose insert forced them out.
    pub leaf_cache_evictions: u64,
    /// Reconciliation-winning records rejected by a pushed-down filter
    /// **before** record assembly: only the filter columns were decoded and
    /// the entry was batch-skipped, so none of these appear in
    /// `records_assembled`.
    pub records_filtered_pre_assembly: u64,
    /// Whole leaves skipped by per-leaf zone maps under a pushed-down
    /// filter — no page reads, no decode, not even the key column.
    pub leaves_skipped: u64,
    /// Batches a snapshot's batch scan handed to its consumer (one per
    /// source leaf with surviving winners, plus the runs of memtable and
    /// row-layout winners).
    pub scan_batches: u64,
    /// Reconciliation winners a query evaluated with column kernels —
    /// straight off the decoded chunks, no document built.
    pub scan_records_kernel: u64,
}

impl IoStats {
    /// Add `other`'s counters to these — every field (the destructuring
    /// makes a new counter a compile error here until it is added), so
    /// combined counters such as a sharded dataset's never drop one.
    pub fn merge(&mut self, other: &IoStats) {
        let IoStats {
            pages_read,
            pages_written,
            bytes_read,
            bytes_written,
            cache_hits,
            records_assembled,
            leaf_cache_hits,
            leaf_cache_misses,
            leaf_cache_evictions,
            records_filtered_pre_assembly,
            leaves_skipped,
            scan_batches,
            scan_records_kernel,
        } = *other;
        self.pages_read += pages_read;
        self.pages_written += pages_written;
        self.bytes_read += bytes_read;
        self.bytes_written += bytes_written;
        self.cache_hits += cache_hits;
        self.records_assembled += records_assembled;
        self.leaf_cache_hits += leaf_cache_hits;
        self.leaf_cache_misses += leaf_cache_misses;
        self.leaf_cache_evictions += leaf_cache_evictions;
        self.records_filtered_pre_assembly += records_filtered_pre_assembly;
        self.leaves_skipped += leaves_skipped;
        self.scan_batches += scan_batches;
        self.scan_records_kernel += scan_records_kernel;
    }
}

/// A store of fixed-size pages: explicit read/write calls, atomic
/// accounting, bytes held by a [`StorageBackend`]. Cloning shares the
/// underlying storage.
#[derive(Clone)]
pub struct PageStore {
    inner: Arc<PageStoreInner>,
}

struct PageStoreInner {
    backend: Box<dyn StorageBackend>,
    pages_read: AtomicU64,
    pages_written: AtomicU64,
    bytes_read: AtomicU64,
    bytes_written: AtomicU64,
    cache_hits: AtomicU64,
    records_assembled: AtomicU64,
    leaf_cache_hits: AtomicU64,
    leaf_cache_misses: AtomicU64,
    leaf_cache_evictions: AtomicU64,
    records_filtered_pre_assembly: AtomicU64,
    leaves_skipped: AtomicU64,
    scan_batches: AtomicU64,
    scan_records_kernel: AtomicU64,
}

impl PageStore {
    /// Create an in-memory store with the default page size.
    pub fn new() -> PageStore {
        PageStore::with_page_size(PAGE_SIZE_DEFAULT)
    }

    /// Create an in-memory store with a custom page size (tests use small
    /// pages so that multi-page behaviour shows up with little data).
    pub fn with_page_size(page_size: usize) -> PageStore {
        PageStore::with_backend(Box::new(MemoryBackend::new(page_size)))
    }

    /// Create a store over an explicit backend.
    pub fn with_backend(backend: Box<dyn StorageBackend>) -> PageStore {
        PageStore {
            inner: Arc::new(PageStoreInner {
                backend,
                pages_read: AtomicU64::new(0),
                pages_written: AtomicU64::new(0),
                bytes_read: AtomicU64::new(0),
                bytes_written: AtomicU64::new(0),
                cache_hits: AtomicU64::new(0),
                records_assembled: AtomicU64::new(0),
                leaf_cache_hits: AtomicU64::new(0),
                leaf_cache_misses: AtomicU64::new(0),
                leaf_cache_evictions: AtomicU64::new(0),
                records_filtered_pre_assembly: AtomicU64::new(0),
                leaves_skipped: AtomicU64::new(0),
                scan_batches: AtomicU64::new(0),
                scan_records_kernel: AtomicU64::new(0),
            }),
        }
    }

    /// Open (or create) a file-backed store: pages live in page-aligned
    /// slots of the file at `path` and survive restarts.
    pub fn file_backed(path: &Path, page_size: usize) -> Result<PageStore> {
        Ok(PageStore::with_backend(Box::new(FileBackend::open(
            path, page_size,
        )?)))
    }

    /// The configured page size in bytes.
    pub fn page_size(&self) -> usize {
        self.inner.backend.page_size()
    }

    /// Largest payload [`PageStore::append_page`] accepts (the file backend
    /// reserves a few bytes per page for its slot header).
    pub fn max_payload(&self) -> usize {
        self.inner.backend.max_payload()
    }

    /// Number of page slots allocated so far (live pages plus free-listed
    /// slots). This is the physical size of the backing storage in pages:
    /// with freed-slot reuse it tracks the high-water mark of live data
    /// rather than growing monotonically.
    pub fn page_count(&self) -> u64 {
        self.inner.backend.page_count()
    }

    /// Number of allocated slots currently on the free list (dead space a
    /// later append will reuse).
    pub fn free_page_count(&self) -> u64 {
        self.inner.backend.free_page_count()
    }

    /// Total allocated bytes (page slots × page size) — the physical
    /// footprint, including free-listed slots awaiting reuse.
    pub fn allocated_bytes(&self) -> u64 {
        self.page_count() * self.page_size() as u64
    }

    /// Append a new page with the given contents, returning its id. Contents
    /// longer than the page size are a programming error; backend I/O errors
    /// are a [`StorageError`](crate::StorageError).
    pub fn append_page(&self, data: Vec<u8>) -> Result<PageId> {
        assert!(
            data.len() <= self.inner.backend.max_payload(),
            "page payload {} exceeds page size {}",
            data.len(),
            self.inner.backend.max_payload()
        );
        let len = data.len() as u64;
        let id = self.inner.backend.append_page(data)?;
        self.inner.pages_written.fetch_add(1, Ordering::Relaxed);
        self.inner.bytes_written.fetch_add(len, Ordering::Relaxed);
        Ok(id)
    }

    /// Read a page (counted as disk I/O), surfacing backend I/O and
    /// corruption errors.
    pub fn read_page(&self, id: PageId) -> Result<Arc<Vec<u8>>> {
        let page = self.inner.backend.read_page(id)?;
        self.inner.pages_read.fetch_add(1, Ordering::Relaxed);
        self.inner
            .bytes_read
            .fetch_add(page.len() as u64, Ordering::Relaxed);
        Ok(page)
    }

    /// Drop the contents of the given pages (used when an LSM merge deletes
    /// its input components). The slots go on the backend's free list and
    /// may be reused by a later append. Callers holding a [`BufferCache`]
    /// over this store must free through [`BufferCache::free_pages`] instead
    /// so cached copies of the dead ids are evicted before reuse.
    pub fn free_pages(&self, ids: &[PageId]) {
        self.inner
            .backend
            .free_pages(ids)
            .expect("freeing pages failed");
    }

    /// Release the contiguous run of trailing free slots back to the
    /// operating system (truncating the page file). Returns how many slots
    /// went away. See [`StorageBackend::shrink_free_tail`].
    pub fn shrink_free_tail(&self) -> Result<u64> {
        self.inner.backend.shrink_free_tail()
    }

    /// Flush written pages to durable storage (no-op for memory backends).
    pub fn sync(&self) -> Result<()> {
        self.inner.backend.sync()
    }

    fn note_cache_hit(&self) {
        self.inner.cache_hits.fetch_add(1, Ordering::Relaxed);
    }

    /// Account for `n` records materialised from stored pages (called by the
    /// component readers when they decode a row page or assemble records
    /// from column chunks).
    pub fn note_records_assembled(&self, n: u64) {
        self.inner.records_assembled.fetch_add(n, Ordering::Relaxed);
    }

    /// Account for one leaf load served by the decoded-leaf cache.
    pub fn note_leaf_cache_hit(&self) {
        self.inner.leaf_cache_hits.fetch_add(1, Ordering::Relaxed);
    }

    /// Account for one leaf load that missed the decoded-leaf cache.
    pub fn note_leaf_cache_miss(&self) {
        self.inner.leaf_cache_misses.fetch_add(1, Ordering::Relaxed);
    }

    /// Account for `n` decoded leaves evicted by an insert through this
    /// store's components.
    pub fn note_leaf_cache_evictions(&self, n: u64) {
        if n > 0 {
            self.inner.leaf_cache_evictions.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Account for `n` reconciliation winners rejected by a pushed-down
    /// filter before assembly (only filter columns decoded).
    pub fn note_records_filtered_pre_assembly(&self, n: u64) {
        if n > 0 {
            self.inner
                .records_filtered_pre_assembly
                .fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Account for `n` leaves skipped wholesale by per-leaf zone maps.
    pub fn note_leaves_skipped(&self, n: u64) {
        if n > 0 {
            self.inner.leaves_skipped.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Account for `n` batches handed out by a batch scan.
    pub fn note_scan_batches(&self, n: u64) {
        self.inner.scan_batches.fetch_add(n, Ordering::Relaxed);
    }

    /// Account for `n` reconciliation winners evaluated by column kernels.
    pub fn note_scan_records_kernel(&self, n: u64) {
        self.inner.scan_records_kernel.fetch_add(n, Ordering::Relaxed);
    }

    /// Snapshot of the accounting counters.
    pub fn stats(&self) -> IoStats {
        IoStats {
            pages_read: self.inner.pages_read.load(Ordering::Relaxed),
            pages_written: self.inner.pages_written.load(Ordering::Relaxed),
            bytes_read: self.inner.bytes_read.load(Ordering::Relaxed),
            bytes_written: self.inner.bytes_written.load(Ordering::Relaxed),
            cache_hits: self.inner.cache_hits.load(Ordering::Relaxed),
            records_assembled: self.inner.records_assembled.load(Ordering::Relaxed),
            leaf_cache_hits: self.inner.leaf_cache_hits.load(Ordering::Relaxed),
            leaf_cache_misses: self.inner.leaf_cache_misses.load(Ordering::Relaxed),
            leaf_cache_evictions: self.inner.leaf_cache_evictions.load(Ordering::Relaxed),
            records_filtered_pre_assembly: self
                .inner
                .records_filtered_pre_assembly
                .load(Ordering::Relaxed),
            leaves_skipped: self.inner.leaves_skipped.load(Ordering::Relaxed),
            scan_batches: self.inner.scan_batches.load(Ordering::Relaxed),
            scan_records_kernel: self.inner.scan_records_kernel.load(Ordering::Relaxed),
        }
    }

    /// Reset the accounting counters (between experiment phases).
    pub fn reset_stats(&self) {
        self.inner.pages_read.store(0, Ordering::Relaxed);
        self.inner.pages_written.store(0, Ordering::Relaxed);
        self.inner.bytes_read.store(0, Ordering::Relaxed);
        self.inner.bytes_written.store(0, Ordering::Relaxed);
        self.inner.cache_hits.store(0, Ordering::Relaxed);
        self.inner.records_assembled.store(0, Ordering::Relaxed);
        self.inner.leaf_cache_hits.store(0, Ordering::Relaxed);
        self.inner.leaf_cache_misses.store(0, Ordering::Relaxed);
        self.inner.leaf_cache_evictions.store(0, Ordering::Relaxed);
        self.inner
            .records_filtered_pre_assembly
            .store(0, Ordering::Relaxed);
        self.inner.leaves_skipped.store(0, Ordering::Relaxed);
        self.inner.scan_batches.store(0, Ordering::Relaxed);
        self.inner.scan_records_kernel.store(0, Ordering::Relaxed);
    }
}

impl Default for PageStore {
    fn default() -> Self {
        PageStore::new()
    }
}

/// A shared LRU buffer cache in front of a [`PageStore`].
///
/// The cache is sized in pages (memory budget ÷ page size). Reads first
/// consult the cache; misses go to the store and are inserted.
#[derive(Clone)]
pub struct BufferCache {
    store: PageStore,
    inner: Arc<Mutex<CacheInner>>,
    /// Shared decoded-leaf cache handle, when the owning dataset attached
    /// one. Rides along on clones so every component built over this cache
    /// reads through the same leaf cache.
    leaf: Option<LeafCacheHandle>,
}

struct CacheInner {
    capacity: usize,
    /// Page id → (data, last-use tick).
    entries: HashMap<PageId, (Arc<Vec<u8>>, u64)>,
    tick: u64,
}

impl BufferCache {
    /// Create a cache holding at most `capacity_pages` pages.
    pub fn new(store: PageStore, capacity_pages: usize) -> BufferCache {
        BufferCache {
            store,
            inner: Arc::new(Mutex::new(CacheInner {
                capacity: capacity_pages.max(1),
                entries: HashMap::new(),
                tick: 0,
            })),
            leaf: None,
        }
    }

    /// Attach a decoded-leaf cache handle: components built over this buffer
    /// cache will serve leaf loads through it.
    pub fn with_leaf_cache(mut self, handle: LeafCacheHandle) -> BufferCache {
        self.leaf = Some(handle);
        self
    }

    /// The attached decoded-leaf cache handle, if any.
    pub fn leaf_cache(&self) -> Option<&LeafCacheHandle> {
        self.leaf.as_ref()
    }

    /// The underlying store.
    pub fn store(&self) -> &PageStore {
        &self.store
    }

    /// Read a page through the cache, surfacing I/O and corruption errors.
    pub fn read_page(&self, id: PageId) -> Result<Arc<Vec<u8>>> {
        {
            let mut inner = self.inner.lock();
            inner.tick += 1;
            let tick = inner.tick;
            if let Some((data, last)) = inner.entries.get_mut(&id) {
                *last = tick;
                let data = data.clone();
                drop(inner);
                self.store.note_cache_hit();
                return Ok(data);
            }
        }
        let data = self.store.read_page(id)?;
        let mut inner = self.inner.lock();
        inner.tick += 1;
        let tick = inner.tick;
        inner.entries.insert(id, (data.clone(), tick));
        Self::evict_if_needed(&mut inner);
        Ok(data)
    }

    /// Write a fresh page through the cache (it is immediately cached, as
    /// flushes produce pages that are often read back by the next merge).
    pub fn append_page(&self, data: Vec<u8>) -> Result<PageId> {
        let id = self.store.append_page(data.clone())?;
        let mut inner = self.inner.lock();
        inner.tick += 1;
        let tick = inner.tick;
        inner.entries.insert(id, (Arc::new(data), tick));
        Self::evict_if_needed(&mut inner);
        Ok(id)
    }

    /// Number of pages currently cached.
    pub fn cached_pages(&self) -> usize {
        self.inner.lock().entries.len()
    }

    /// Free pages through the cache: evict any cached copies first, then
    /// release the slots to the store's free list. This is the only safe
    /// order once slots are reused — freeing at the store level alone would
    /// leave stale cache entries that shadow whatever page is written into
    /// the recycled slot next.
    pub fn free_pages(&self, ids: &[PageId]) {
        {
            let mut inner = self.inner.lock();
            for id in ids {
                inner.entries.remove(id);
            }
        }
        self.store.free_pages(ids);
    }

    /// Drop every cached page (used between experiment runs to measure cold
    /// reads).
    pub fn clear(&self) {
        self.inner.lock().entries.clear();
    }

    fn evict_if_needed(inner: &mut CacheInner) {
        while inner.entries.len() > inner.capacity {
            // Evict the least recently used entry.
            let victim = inner
                .entries
                .iter()
                .min_by_key(|(_, (_, last))| *last)
                .map(|(id, _)| *id);
            match victim {
                Some(id) => {
                    inner.entries.remove(&id);
                }
                None => break,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn append_and_read_accounting() {
        let store = PageStore::with_page_size(1024);
        let a = store.append_page(vec![1u8; 100]).unwrap();
        let b = store.append_page(vec![2u8; 200]).unwrap();
        assert_eq!(store.page_count(), 2);
        assert_eq!(store.read_page(a).unwrap()[0], 1);
        assert_eq!(store.read_page(b).unwrap().len(), 200);
        let stats = store.stats();
        assert_eq!(stats.pages_written, 2);
        assert_eq!(stats.pages_read, 2);
        assert_eq!(stats.bytes_written, 300);
        assert_eq!(stats.bytes_read, 300);
        store.reset_stats();
        assert_eq!(store.stats(), IoStats::default());
    }

    #[test]
    #[should_panic(expected = "exceeds page size")]
    fn oversized_page_panics() {
        let store = PageStore::with_page_size(64);
        store.append_page(vec![0u8; 65]).unwrap();
    }

    #[test]
    fn free_pages_releases_contents() {
        let store = PageStore::with_page_size(1024);
        let a = store.append_page(vec![7u8; 500]).unwrap();
        store.free_pages(&[a]);
        assert!(store.read_page(a).unwrap().is_empty());
    }

    #[test]
    fn cache_hits_avoid_disk_reads() {
        let store = PageStore::with_page_size(1024);
        let cache = BufferCache::new(store.clone(), 4);
        let id = cache.append_page(vec![9u8; 10]).unwrap();
        store.reset_stats();
        for _ in 0..5 {
            assert_eq!(cache.read_page(id).unwrap()[0], 9);
        }
        let stats = store.stats();
        assert_eq!(stats.pages_read, 0, "all reads should hit the cache");
        assert_eq!(stats.cache_hits, 5);
    }

    #[test]
    fn lru_eviction_respects_capacity() {
        let store = PageStore::with_page_size(256);
        let cache = BufferCache::new(store.clone(), 2);
        let ids: Vec<_> = (0..4)
            .map(|i| store.append_page(vec![i as u8; 16]).unwrap())
            .collect();
        for &id in &ids {
            cache.read_page(id).unwrap();
        }
        assert!(cache.cached_pages() <= 2);
        // The most recently used page is still cached.
        store.reset_stats();
        cache.read_page(ids[3]).unwrap();
        assert_eq!(store.stats().pages_read, 0);
    }

    #[test]
    fn cache_freeing_evicts_before_slot_reuse() {
        let store = PageStore::with_page_size(256);
        let cache = BufferCache::new(store.clone(), 4);
        let id = cache.append_page(vec![1u8; 16]).unwrap();
        assert_eq!(cache.read_page(id).unwrap()[0], 1);
        cache.free_pages(&[id]);
        // The slot is recycled for new contents; the cache must not serve
        // the stale pre-free copy.
        let reused = cache.append_page(vec![2u8; 16]).unwrap();
        assert_eq!(reused, id, "freed slot is reused");
        assert_eq!(cache.read_page(reused).unwrap()[0], 2);
        assert_eq!(store.free_page_count(), 0);
    }
}
