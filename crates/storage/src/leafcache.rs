//! leafcache — a shared, size-bounded cache of **decoded leaves**.
//!
//! The page [`BufferCache`](crate::pagestore::BufferCache) short-circuits
//! disk reads but still pays the full decode + assembly cost on every leaf
//! visit. This module caches the *output* of that work so repeated point
//! reads and hot-range scans skip both the page reads and the decode.
//!
//! ## Keying
//!
//! A leaf has at most **one entry**, keyed by `(origin, component id, leaf
//! index)`:
//!
//! * **origin** — a small integer handed out by [`LeafCache::handle`], one
//!   per dataset/shard attached to the cache. Component ids are only unique
//!   *within* a dataset (each shard counts from 1), so the origin disambiguates
//!   shards sharing one cache.
//! * **component id** — ids are monotonically allocated and *never reused*
//!   (the allocator is persisted in the manifest), so a key can never alias a
//!   future component. This is what makes the cache immune to page-id reuse:
//!   page slots are recycled by the free list, component ids are not.
//! * **leaf index** — position in the component's leaf directory.
//!
//! The entry holds the leaf in **one shape**, fixed by its component's
//! layout ([`DecodedLeaf`]): decoded entries for row pages, decoded column
//! chunks for columnar leaves. Scans and point lookups both read that shape
//! — a lookup binary-searches the decoded key column and assembles the one
//! record it returns — so no leaf is ever held twice for two access paths.
//!
//! ## Eviction, scan resistance, and budget accounting
//!
//! The cache holds at most `capacity` bytes of *estimated decoded size*
//! (entries via [`docmodel::Value::approx_size`], chunks via their vector
//! footprints). A payload larger than the whole capacity is never inserted
//! at all, so resident bytes are provably bounded by the configured budget
//! at every instant.
//!
//! Eviction is a **two-segment LRU** (probation/protected), so one-off
//! scans cannot flush the point-read working set:
//!
//! * inserts land in *probation*; a subsequent hit promotes the entry to
//!   *protected* (re-reference is the admission test);
//! * eviction removes the probation LRU first and touches the protected
//!   segment only when probation is empty — a cold full scan, whose leaves
//!   are each touched exactly once, evicts only its own stream;
//! * the protected segment is capped at 4/5 of the capacity: promotions
//!   beyond that demote the protected LRU back to probation, so the cache
//!   never wedges itself into a state where new entries can't be admitted.
//!
//! ## Projections: one entry grows to the union
//!
//! A columnar entry also records the column ids it was decoded for (`None`
//! = every column; row pages always). [`LeafCacheHandle::get`] answers a
//! request with [`Cached::Hit`] when the entry covers it (the payload may
//! then hold more columns than were asked for; the caller picks its own
//! out), and with [`Cached::Partial`] when it lacks some of the requested
//! columns. The caller then decodes only those and inserts the union, which
//! replaces the entry; that request counts as a miss in the caller's
//! [`IoStats`](crate::pagestore::IoStats), which is also where hits and
//! evictions are counted. A column id the leaf holds no chunk for is still
//! recorded as asked for, so a column the leaf predates is looked for once.
//! The union lands in probation like any insert; one larger than the whole
//! capacity is refused and the old entry stays. Two readers widening one leaf at once each insert their own union; the
//! later one stands, which wastes a decode but never serves a wrong column.
//!
//! ## Invalidation protocol
//!
//! Two events drop entries eagerly rather than waiting for LRU pressure:
//!
//! * **Component retirement** — when a retired component's last pin drops
//!   (`Component::drop` with `free_on_drop` set, i.e. after a merge or
//!   dataset clear), its decoded leaves are invalidated right where its
//!   pages are freed. Until that point snapshot readers may still serve
//!   (and re-warm) the retired component — that is correct, because the
//!   id still refers to exactly that immutable content.
//! * **`reclaim_space` GC** — the copy-down pass rewrites a component's
//!   pages in place (same id, same logical content, new page slots). The
//!   decoded bytes are identical, but the dataset invalidates the id anyway
//!   so cached state never outlives a physical relocation.
//!
//! Because ids are never reused, a stale entry can at worst waste budget,
//! never serve wrong data; the invalidation protocol bounds the waste.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use columnar::{ColumnChunk, ColumnValues};
use docmodel::Value;
use schema::ColumnId;

use crate::component::{Entry, LeafChunks};

/// A cached decoded leaf, in the one shape its layout reads. Payloads are
/// `Arc`'d so a hit is a pointer bump, never a deep copy; column chunks are
/// additionally `Arc`'d per chunk so they can be handed to assemblers and
/// column walks without cloning the vectors.
#[derive(Clone)]
pub enum DecodedLeaf {
    /// Row layouts: the page's materialised `(key, record)` entries.
    Rows(Arc<Vec<Entry>>),
    /// Columnar layouts: decoded column chunks, record assembly deferred to
    /// whoever reads them (per record for cursors, one record for lookups).
    Chunks(LeafChunks),
}

/// What a leaf's entry answers a request with ([`LeafCacheHandle::get`]).
pub enum Cached {
    /// The entry covers the request; it counts as a re-reference.
    Hit(DecodedLeaf),
    /// The entry's chunks, decoded for the listed columns, which lack some
    /// of the requested ones.
    Partial(LeafChunks, Vec<ColumnId>),
    /// The leaf has no entry.
    Miss,
}

#[derive(Clone, Copy, PartialEq, Eq, Hash)]
struct LeafKey {
    origin: u64,
    component: u64,
    leaf: usize,
}

struct CachedLeaf {
    payload: DecodedLeaf,
    /// The column ids the payload was decoded for; `None` means every
    /// column (always, for row pages).
    columns: Option<Vec<ColumnId>>,
    bytes: usize,
    last_used: u64,
    /// Segment membership: `false` = probation (inserted, never re-hit),
    /// `true` = protected (survived at least one re-reference). See the
    /// module docs' scan-resistance section.
    protected: bool,
}

/// Numerator/denominator of the byte-capacity fraction the protected
/// segment may hold before promotions start demoting its own LRU tail.
const PROTECTED_SHARE: (usize, usize) = (4, 5);

struct Inner {
    entries: HashMap<LeafKey, CachedLeaf>,
    total_bytes: usize,
    /// Bytes held by protected-segment entries (`<= total_bytes`).
    protected_bytes: usize,
    tick: u64,
    invalidations: u64,
}

/// Point-in-time residency of a [`LeafCache`]. Hits, misses and evictions
/// are counted by the readers, in [`IoStats`](crate::pagestore::IoStats).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct LeafCacheStats {
    /// Entries removed by explicit invalidation (retirement / GC / clear).
    pub invalidations: u64,
    /// Estimated decoded bytes currently resident.
    pub resident_bytes: u64,
    /// Entries currently resident, which is leaves: a leaf has one entry.
    pub resident_leaves: u64,
    /// Configured byte capacity.
    pub capacity_bytes: u64,
}

/// Shared, size-bounded cache of decoded leaves. One per
/// `Datastore`/`ShardedDataset`, shared by every shard, snapshot, and
/// concurrent reader; all methods take `&self` and are thread-safe.
///
/// See the [module docs](self) for the keying, eviction, and invalidation
/// protocol.
pub struct LeafCache {
    capacity: usize,
    inner: Mutex<Inner>,
    next_origin: AtomicU64,
}

impl std::fmt::Debug for LeafCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let stats = self.stats();
        f.debug_struct("LeafCache")
            .field("capacity_bytes", &stats.capacity_bytes)
            .field("resident_bytes", &stats.resident_bytes)
            .field("resident_leaves", &stats.resident_leaves)
            .finish_non_exhaustive()
    }
}

impl LeafCache {
    /// A cache that holds at most `capacity_bytes` of estimated decoded
    /// payload.
    pub fn new(capacity_bytes: usize) -> LeafCache {
        LeafCache {
            capacity: capacity_bytes,
            inner: Mutex::new(Inner {
                entries: HashMap::new(),
                total_bytes: 0,
                protected_bytes: 0,
                tick: 0,
                invalidations: 0,
            }),
            next_origin: AtomicU64::new(0),
        }
    }

    /// Register one dataset/shard with the cache, reserving a fresh origin
    /// id for its component-id namespace.
    pub fn handle(self: &Arc<LeafCache>) -> LeafCacheHandle {
        LeafCacheHandle {
            cache: Arc::clone(self),
            origin: self.next_origin.fetch_add(1, Ordering::Relaxed),
        }
    }

    /// Configured byte capacity.
    pub fn capacity_bytes(&self) -> usize {
        self.capacity
    }

    /// Estimated decoded bytes currently resident.
    pub fn resident_bytes(&self) -> usize {
        self.inner.lock().total_bytes
    }

    /// Number of leaves currently resident (one entry each).
    pub fn resident_leaves(&self) -> usize {
        self.inner.lock().entries.len()
    }

    /// Snapshot of residency and invalidations.
    pub fn stats(&self) -> LeafCacheStats {
        let inner = self.inner.lock();
        LeafCacheStats {
            invalidations: inner.invalidations,
            resident_bytes: inner.total_bytes as u64,
            resident_leaves: inner.entries.len() as u64,
            capacity_bytes: self.capacity as u64,
        }
    }

    /// Drop every entry (counted as invalidations).
    pub fn clear(&self) {
        let mut inner = self.inner.lock();
        inner.invalidations += inner.entries.len() as u64;
        inner.entries.clear();
        inner.total_bytes = 0;
        inner.protected_bytes = 0;
    }

    /// Demote protected-LRU entries back to probation until the protected
    /// segment fits its share of the capacity. The just-promoted entry
    /// carries the newest tick, so it is never its own demotion victim.
    fn demote_over_share(&self, inner: &mut Inner) {
        let share = self.capacity * PROTECTED_SHARE.0 / PROTECTED_SHARE.1;
        while inner.protected_bytes > share {
            let victim = inner
                .entries
                .iter()
                .filter(|(_, e)| e.protected)
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| *k);
            match victim {
                Some(k) => {
                    if let Some(e) = inner.entries.get_mut(&k) {
                        e.protected = false;
                        inner.protected_bytes -= e.bytes;
                    }
                }
                None => break,
            }
        }
    }

    fn get(&self, key: LeafKey, columns: Option<&[ColumnId]>) -> Cached {
        let mut inner = self.inner.lock();
        inner.tick += 1;
        let tick = inner.tick;
        let Some(entry) = inner.entries.get_mut(&key) else {
            return Cached::Miss;
        };
        if let (Some(held), DecodedLeaf::Chunks(chunks)) = (&entry.columns, &entry.payload) {
            if !columns.is_some_and(|ids| ids.iter().all(|id| held.contains(id))) {
                return Cached::Partial(chunks.clone(), held.clone());
            }
        }
        let payload = entry.payload.clone();
        entry.last_used = tick;
        // A re-reference promotes the entry out of probation: it has proven
        // it is part of a working set, not a one-off scan.
        if !entry.protected {
            entry.protected = true;
            let bytes = entry.bytes;
            inner.protected_bytes += bytes;
            self.demote_over_share(&mut inner);
        }
        Cached::Hit(payload)
    }

    fn insert(&self, key: LeafKey, columns: Option<Vec<ColumnId>>, payload: DecodedLeaf) -> u64 {
        let bytes = payload_bytes(&payload);
        if bytes > self.capacity {
            // An oversized payload would evict everything and still not
            // fit; refusing it keeps resident bytes ≤ capacity invariant.
            return 0;
        }
        let mut inner = self.inner.lock();
        inner.tick += 1;
        let tick = inner.tick;
        if let Some(old) = inner.entries.insert(
            key,
            // New entries start on probation: a payload has to be re-hit
            // before it may displace the protected working set.
            CachedLeaf {
                payload,
                columns,
                bytes,
                last_used: tick,
                protected: false,
            },
        ) {
            inner.total_bytes -= old.bytes;
            if old.protected {
                inner.protected_bytes -= old.bytes;
            }
        }
        inner.total_bytes += bytes;
        let mut evicted = 0u64;
        while inner.total_bytes > self.capacity {
            // Probation first: a one-off scan then only ever evicts its own
            // stream. The protected segment is touched only when probation
            // is empty. The fresh insert carries the newest tick, so it is
            // never its own victim while older probation entries exist.
            let victim = inner
                .entries
                .iter()
                .filter(|(_, e)| !e.protected)
                .min_by_key(|(_, e)| e.last_used)
                .or_else(|| inner.entries.iter().min_by_key(|(_, e)| e.last_used))
                .map(|(k, _)| *k);
            match victim {
                Some(k) => {
                    if let Some(e) = inner.entries.remove(&k) {
                        inner.total_bytes -= e.bytes;
                        if e.protected {
                            inner.protected_bytes -= e.bytes;
                        }
                        evicted += 1;
                    }
                }
                None => break,
            }
        }
        evicted
    }

    /// Drop every entry of one component, counted as invalidations.
    fn invalidate(&self, origin: u64, component: u64) -> u64 {
        let mut inner = self.inner.lock();
        let (mut dropped, mut bytes, mut protected_bytes) = (0u64, 0, 0);
        inner.entries.retain(|k, e| {
            if (k.origin, k.component) != (origin, component) {
                return true;
            }
            dropped += 1;
            bytes += e.bytes;
            if e.protected {
                protected_bytes += e.bytes;
            }
            false
        });
        inner.total_bytes -= bytes;
        inner.protected_bytes -= protected_bytes;
        inner.invalidations += dropped;
        dropped
    }
}

/// One dataset's view of a shared [`LeafCache`]: the cache plus the origin
/// id that namespaces this dataset's component ids. Cheap to clone; rides
/// along on [`BufferCache`](crate::pagestore::BufferCache) clones.
#[derive(Clone)]
pub struct LeafCacheHandle {
    cache: Arc<LeafCache>,
    origin: u64,
}

impl LeafCacheHandle {
    /// The shared cache behind this handle.
    pub fn cache(&self) -> &Arc<LeafCache> {
        &self.cache
    }

    /// This dataset's origin id.
    pub fn origin(&self) -> u64 {
        self.origin
    }

    fn key(&self, component: u64, leaf: usize) -> LeafKey {
        LeafKey {
            origin: self.origin,
            component,
            leaf,
        }
    }

    /// The leaf's entry as a request for `columns` (`None` = all) sees it:
    /// a hit when the entry covers them, else what it holds, or nothing.
    pub fn get(&self, component: u64, leaf: usize, columns: Option<&[ColumnId]>) -> Cached {
        self.cache.get(self.key(component, leaf), columns)
    }

    /// Make `payload`, decoded for `columns` (`None` = all), the leaf's
    /// entry, replacing any it had, and evict LRU entries as needed to stay
    /// under the byte capacity. Returns how many entries were evicted.
    pub fn insert(
        &self,
        component: u64,
        leaf: usize,
        columns: Option<Vec<ColumnId>>,
        payload: DecodedLeaf,
    ) -> u64 {
        self.cache
            .insert(self.key(component, leaf), columns, payload)
    }

    /// Drop every cached leaf of one component (retirement / GC). Returns
    /// how many entries were dropped.
    pub fn invalidate_component(&self, component: u64) -> u64 {
        self.cache.invalidate(self.origin, component)
    }
}

fn entry_bytes(entry: &Entry) -> usize {
    let (key, doc) = entry;
    key.approx_size() + doc.as_ref().map_or(0, Value::approx_size) + 16
}

fn chunk_bytes(chunk: &ColumnChunk) -> usize {
    let values = match &chunk.values {
        ColumnValues::Bool(v) => v.len(),
        ColumnValues::Int(v) => v.len() * 8,
        ColumnValues::Double(v) => v.len() * 8,
        ColumnValues::String(v) => v.iter().map(|s| 24 + s.len()).sum(),
        ColumnValues::Null(_) => 0,
    };
    // The record-offset index a point lookup's first seek builds is
    // charged up front (it appears after the chunk was admitted), so a
    // chunk that is only ever scanned is over-charged by it: ~2 % of an
    // integer column.
    64 + chunk.defs.len() * 2 + values + chunk.seek_index_bytes()
}

/// Estimated decoded size of a payload — the unit of budget accounting.
pub fn payload_bytes(payload: &DecodedLeaf) -> usize {
    match payload {
        DecodedLeaf::Rows(entries) => 32 + entries.iter().map(entry_bytes).sum::<usize>(),
        DecodedLeaf::Chunks(chunks) => {
            32 + chunks.iter().map(|c| chunk_bytes(c)).sum::<usize>()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rows(n: usize, tag: i64) -> DecodedLeaf {
        let entries: Vec<Entry> = (0..n)
            .map(|i| (Value::Int(tag * 1000 + i as i64), Some(Value::Int(i as i64))))
            .collect();
        DecodedLeaf::Rows(Arc::new(entries))
    }

    /// A columnar payload of `columns` chunks, `n` entries each.
    fn chunks(columns: &[ColumnId], n: usize) -> DecodedLeaf {
        let chunk = |&id: &ColumnId| {
            let mut chunk = ColumnChunk::new(schema::ColumnSpec {
                id,
                path: docmodel::Path::parse("c"),
                ty: schema::AtomicType::Int,
                max_def: 1,
                array_levels: Vec::new(),
                is_key: false,
            });
            chunk.defs = vec![1; n];
            chunk.values = ColumnValues::Int(vec![7; n]);
            Arc::new(chunk)
        };
        DecodedLeaf::Chunks(Arc::new(columns.iter().map(chunk).collect()))
    }

    fn hit(cached: Cached) -> Option<DecodedLeaf> {
        match cached {
            Cached::Hit(leaf) => Some(leaf),
            Cached::Partial(..) | Cached::Miss => None,
        }
    }

    fn chunk_ids(leaf: &DecodedLeaf) -> Vec<ColumnId> {
        match leaf {
            DecodedLeaf::Chunks(chunks) => chunks.iter().map(|c| c.spec.id).collect(),
            DecodedLeaf::Rows(_) => panic!("expected chunks"),
        }
    }

    fn rows_len(leaf: &DecodedLeaf) -> usize {
        match leaf {
            DecodedLeaf::Rows(entries) => entries.len(),
            DecodedLeaf::Chunks(_) => panic!("expected rows"),
        }
    }

    #[test]
    fn hit_after_insert_and_counters() {
        let cache = Arc::new(LeafCache::new(1 << 20));
        let h = cache.handle();
        assert!(matches!(h.get(1, 0, None), Cached::Miss));
        h.insert(1, 0, None, rows(4, 7));
        let hit = hit(h.get(1, 0, None)).expect("hit");
        assert_eq!(rows_len(&hit), 4);
        let stats = cache.stats();
        assert_eq!(stats.resident_leaves, 1);
        assert_eq!(stats.invalidations, 0);
        assert!(stats.resident_bytes > 0);
    }

    #[test]
    fn a_request_the_entry_does_not_cover_sees_what_it_holds() {
        let cache = Arc::new(LeafCache::new(1 << 20));
        let h = cache.handle();
        h.insert(1, 0, Some(vec![2, 4]), chunks(&[2, 4], 4));
        // Covered in any order, duplicates included.
        assert_eq!(
            chunk_ids(&hit(h.get(1, 0, Some(&[4, 2, 4]))).unwrap()),
            [2, 4]
        );
        // One column more, or every column: the entry as it stands.
        for request in [Some(&[2, 3][..]), None] {
            match h.get(1, 0, request) {
                Cached::Partial(chunks, held) => {
                    assert_eq!(chunks.len(), 2);
                    assert_eq!(held, [2, 4]);
                }
                _ => panic!("{request:?}: expected a partial entry"),
            }
        }
        // The union replaces the entry: still one leaf, now covering both.
        h.insert(1, 0, Some(vec![2, 4, 3]), chunks(&[2, 4, 3], 4));
        assert_eq!(cache.resident_leaves(), 1);
        assert_eq!(
            cache.resident_bytes(),
            payload_bytes(&chunks(&[2, 3, 4], 4))
        );
        assert!(hit(h.get(1, 0, Some(&[3]))).is_some());
        assert!(hit(h.get(1, 0, Some(&[2, 3, 4]))).is_some());
    }

    #[test]
    fn lru_eviction_keeps_resident_bytes_under_capacity() {
        let one_leaf = payload_bytes(&rows(8, 0));
        let cache = Arc::new(LeafCache::new(one_leaf * 3 + 1));
        let h = cache.handle();
        for leaf in 0..3 {
            h.insert(1, leaf, None, rows(8, leaf as i64));
        }
        // Touch leaf 0 so leaf 1 is the LRU victim.
        assert!(hit(h.get(1, 0, None)).is_some());
        let evicted = h.insert(1, 3, None, rows(8, 3));
        assert_eq!(evicted, 1);
        assert!(matches!(h.get(1, 1, None), Cached::Miss));
        assert!(hit(h.get(1, 0, None)).is_some());
        assert!(cache.resident_bytes() <= cache.capacity_bytes());
    }

    #[test]
    fn oversized_payload_is_never_cached() {
        let cache = Arc::new(LeafCache::new(64));
        let h = cache.handle();
        let evicted = h.insert(1, 0, None, rows(64, 0));
        assert_eq!(evicted, 0);
        assert_eq!(cache.resident_leaves(), 0);
        assert_eq!(cache.resident_bytes(), 0);
    }

    #[test]
    fn invalidate_component_drops_all_its_leaves_only() {
        let cache = Arc::new(LeafCache::new(1 << 20));
        let h = cache.handle();
        for leaf in 0..4 {
            h.insert(1, leaf, None, rows(2, 1));
            h.insert(2, leaf, None, rows(2, 2));
        }
        assert_eq!(cache.resident_leaves(), 8);
        assert_eq!(h.invalidate_component(1), 4);
        assert_eq!(cache.resident_leaves(), 4);
        assert!((0..4).all(|leaf| matches!(h.get(1, leaf, None), Cached::Miss)));
        assert!((0..4).all(|leaf| hit(h.get(2, leaf, None)).is_some()));
        assert_eq!(cache.stats().invalidations, 4);
    }

    #[test]
    fn origins_namespace_component_ids() {
        let cache = Arc::new(LeafCache::new(1 << 20));
        let shard_a = cache.handle();
        let shard_b = cache.handle();
        assert_ne!(shard_a.origin(), shard_b.origin());
        shard_a.insert(1, 0, None, rows(3, 10));
        shard_b.insert(1, 0, None, rows(5, 20));
        assert_eq!(rows_len(&hit(shard_a.get(1, 0, None)).unwrap()), 3);
        assert_eq!(rows_len(&hit(shard_b.get(1, 0, None)).unwrap()), 5);
        // Invalidating shard A's component 1 leaves shard B's untouched.
        shard_a.invalidate_component(1);
        assert!(matches!(shard_a.get(1, 0, None), Cached::Miss));
        assert!(hit(shard_b.get(1, 0, None)).is_some());
    }

    #[test]
    fn hot_set_survives_a_full_cold_scan() {
        // A cache big enough for ~8 leaves, a hot set of 4, and a cold scan
        // of 64 distinct leaves (component 2) streaming through once.
        let one_leaf = payload_bytes(&rows(8, 0));
        let cache = Arc::new(LeafCache::new(one_leaf * 8 + 1));
        let h = cache.handle();
        for leaf in 0..4 {
            h.insert(1, leaf, None, rows(8, leaf as i64));
            // Promote to protected: the hot set has been re-referenced.
            assert!(hit(h.get(1, leaf, None)).is_some());
        }
        for leaf in 0..64 {
            // Each scan leaf is touched once — inserted, never re-hit.
            h.insert(2, leaf, None, rows(8, leaf as i64));
        }
        // The scan churned through probation only; every hot leaf is still
        // resident, so the hot-key hit rate survives the scan intact.
        for leaf in 0..4 {
            assert!(
                hit(h.get(1, leaf, None)).is_some(),
                "hot leaf {leaf} was evicted by a one-off scan"
            );
        }
        assert!(cache.resident_bytes() <= cache.capacity_bytes());
    }

    #[test]
    fn promotion_cap_demotes_instead_of_wedging() {
        // Promote more than 4/5 of the capacity: the cache must keep
        // admitting and keep every promotion path working (demoted entries
        // stay resident, just evictable again).
        let one_leaf = payload_bytes(&rows(8, 0));
        let cache = Arc::new(LeafCache::new(one_leaf * 5 + 1));
        let h = cache.handle();
        for leaf in 0..5 {
            h.insert(1, leaf, None, rows(8, leaf as i64));
            assert!(hit(h.get(1, leaf, None)).is_some());
        }
        assert_eq!(cache.resident_leaves(), 5);
        // A new insert still finds an evictable victim.
        h.insert(1, 9, None, rows(8, 9));
        assert!(hit(h.get(1, 9, None)).is_some());
        assert!(cache.resident_bytes() <= cache.capacity_bytes());
    }

    #[test]
    fn a_projection_is_served_from_the_all_columns_entry() {
        let cache = Arc::new(LeafCache::new(1 << 20));
        let h = cache.handle();
        // Nothing resident: a miss.
        assert!(matches!(h.get(1, 0, Some(&[2])), Cached::Miss));
        h.insert(1, 0, None, chunks(&[1, 2, 3], 5));
        // The all-columns entry answers the projection with every chunk.
        let covered = hit(h.get(1, 0, Some(&[2]))).expect("covered");
        assert_eq!(chunk_ids(&covered), [1, 2, 3]);
        // Another leaf's entry covers nothing here.
        assert!(matches!(h.get(1, 1, Some(&[2])), Cached::Miss));
    }

    #[test]
    fn a_leaf_is_never_resident_beside_its_all_columns_payload() {
        let cache = Arc::new(LeafCache::new(1 << 20));
        let h = cache.handle();
        h.insert(1, 0, Some(vec![2]), chunks(&[2], 5));
        h.insert(1, 1, Some(vec![2]), chunks(&[2], 5));
        assert!(hit(h.get(1, 0, Some(&[2]))).is_some()); // protected: replaced all the same
        let full = chunks(&[1, 2, 3], 5);
        assert_eq!(
            h.insert(1, 0, None, full.clone()),
            0,
            "replaced, not evicted"
        );
        assert_eq!(cache.resident_leaves(), 2);
        assert_eq!(cache.stats().invalidations, 0);
        assert_eq!(
            cache.resident_bytes(),
            payload_bytes(&full) + payload_bytes(&chunks(&[2], 5))
        );
        assert_eq!(chunk_ids(&hit(h.get(1, 0, None)).unwrap()), [1, 2, 3]);
        // The other leaf's narrow entry is untouched.
        assert_eq!(chunk_ids(&hit(h.get(1, 1, Some(&[2]))).unwrap()), [2]);
        // The replaced protected entry left the protected segment too: both
        // survivors have been re-hit, so it holds exactly them.
        let inner = cache.inner.lock();
        assert_eq!(inner.protected_bytes, inner.total_bytes);
    }

    #[test]
    fn clear_counts_invalidations_and_zeroes_residency() {
        let cache = Arc::new(LeafCache::new(1 << 20));
        let h = cache.handle();
        h.insert(1, 0, None, rows(2, 0));
        h.insert(1, 1, None, rows(2, 1));
        cache.clear();
        assert_eq!(cache.resident_bytes(), 0);
        assert_eq!(cache.resident_leaves(), 0);
        assert_eq!(cache.stats().invalidations, 2);
    }
}
