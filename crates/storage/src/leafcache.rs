//! leafcache — a shared, size-bounded cache of **decoded leaves**.
//!
//! The page [`BufferCache`](crate::pagestore::BufferCache) short-circuits
//! disk reads but still pays the full decode + assembly cost on every leaf
//! visit. This module caches the *output* of that work so repeated point
//! reads and hot-range scans skip both the page reads and the decode.
//!
//! ## Keying
//!
//! Entries are keyed by `(origin, component id, leaf index, projected
//! columns)`:
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
//! * **columns** — a columnar leaf decoded under a projection holds only
//!   those columns' chunks, so each projected column set caches separately;
//!   `None` is the all-columns decode, which also answers every projected
//!   request (see "Projections and covering entries"). Row pages ignore
//!   projection and always cache under `None`.
//!
//! A leaf is resident in **one shape**, fixed by its component's layout
//! ([`DecodedLeaf`]): decoded entries for row pages, decoded column chunks
//! for columnar leaves. Scans and point lookups both read that shape — a
//! lookup binary-searches the decoded key column and assembles the one
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
//! ## Projections and covering entries
//!
//! Payloads of one leaf under different projections are *not* shared views
//! of one buffer — each owns its decoded vectors — so the **budget** charges
//! each payload its full footprint (`resident_leaves` / `resident_bytes`
//! count payloads). The **residency gauges** for telemetry and planner
//! discounts deduplicate by `(origin, component, leaf)`
//! (`resident_distinct_leaves`, `cached_leaf_count`).
//!
//! A resident all-columns payload *covers* every projection of its leaf, and
//! a covered copy is never kept beside it:
//!
//! * [`LeafCacheHandle::get`] serves a projected request from the exact
//!   entry or, failing that, from the all-columns entry, before the caller
//!   decodes a second, narrower copy. The payload may therefore hold more
//!   columns than were asked for; the caller picks its own out.
//! * inserting an all-columns payload drops the leaf's narrower payloads
//!   (counted as invalidations — they were superseded, not squeezed out),
//!   and a narrower payload is not admitted while the all-columns one is
//!   resident (two readers racing on a cold leaf).
//!
//! Two *different* narrow projections of one leaf still cache side by side.
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

use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use columnar::{ColumnChunk, ColumnValues};
use docmodel::Value;
use schema::ColumnId;

use crate::component::Entry;

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
    Chunks(Arc<Vec<Arc<ColumnChunk>>>),
}

#[derive(Clone, PartialEq, Eq, Hash)]
struct LeafKey {
    origin: u64,
    component: u64,
    leaf: usize,
    /// Normalised (sorted, deduplicated) projected column set; `None` means
    /// every column. Different projections decode different chunk sets, so
    /// they cache separately.
    columns: Option<Vec<ColumnId>>,
}

struct CachedLeaf {
    payload: DecodedLeaf,
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
}

/// Point-in-time counters and residency of a [`LeafCache`].
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct LeafCacheStats {
    /// Leaf loads served from the cache (no page reads, no decode).
    pub hits: u64,
    /// Leaf loads that had to decode from the page store.
    pub misses: u64,
    /// Entries removed to stay under the byte capacity.
    pub evictions: u64,
    /// Entries removed by explicit invalidation (retirement / GC / clear),
    /// or superseded by their leaf's all-columns payload.
    pub invalidations: u64,
    /// Estimated decoded bytes currently resident.
    pub resident_bytes: u64,
    /// Number of cached leaf *payloads* currently resident. The same
    /// physical leaf cached under two projections counts once per payload —
    /// this is the budget-accounting view, since each payload holds its own
    /// decoded copy.
    pub resident_leaves: u64,
    /// Number of *distinct physical leaves* with at least one resident
    /// payload — the residency view for gauges and planner discounts, which
    /// must not double-charge a leaf for being cached under two projections.
    pub resident_distinct_leaves: u64,
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
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    invalidations: AtomicU64,
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
            }),
            next_origin: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            invalidations: AtomicU64::new(0),
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

    /// Number of cached leaf payloads currently resident (one physical leaf
    /// may account for several — see [`LeafCacheStats::resident_leaves`]).
    pub fn resident_leaves(&self) -> usize {
        self.inner.lock().entries.len()
    }

    /// Number of distinct physical leaves with at least one resident
    /// payload — the deduplicated residency gauge.
    pub fn resident_distinct_leaves(&self) -> usize {
        distinct_leaves(&self.inner.lock(), |_| true)
    }

    /// Snapshot of counters and residency.
    pub fn stats(&self) -> LeafCacheStats {
        let (total_bytes, len, distinct) = {
            let inner = self.inner.lock();
            (
                inner.total_bytes,
                inner.entries.len(),
                distinct_leaves(&inner, |_| true),
            )
        };
        LeafCacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            invalidations: self.invalidations.load(Ordering::Relaxed),
            resident_bytes: total_bytes as u64,
            resident_leaves: len as u64,
            resident_distinct_leaves: distinct as u64,
            capacity_bytes: self.capacity as u64,
        }
    }

    /// Drop every entry (counted as invalidations). Counters survive.
    pub fn clear(&self) {
        let mut inner = self.inner.lock();
        let dropped = inner.entries.len() as u64;
        inner.entries.clear();
        inner.total_bytes = 0;
        inner.protected_bytes = 0;
        self.invalidations.fetch_add(dropped, Ordering::Relaxed);
    }

    fn lookup(
        &self,
        key: &LeafKey,
        refresh: bool,
    ) -> Option<DecodedLeaf> {
        let mut inner = self.inner.lock();
        inner.tick += 1;
        let tick = inner.tick;
        let entry = inner.entries.get_mut(key)?;
        let payload = entry.payload.clone();
        if refresh {
            entry.last_used = tick;
            // A re-reference promotes the entry out of probation: it has
            // proven it is part of a working set, not a one-off scan.
            if !entry.protected {
                entry.protected = true;
                let bytes = entry.bytes;
                inner.protected_bytes += bytes;
                self.demote_over_share(&mut inner);
            }
        }
        Some(payload)
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
                .map(|(k, _)| k.clone());
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

    /// Fetch the payload cached for exactly `columns`, or the all-columns
    /// payload of the same leaf when the exact one is absent. Counts one hit
    /// or one miss either way.
    fn get(
        &self,
        origin: u64,
        component: u64,
        leaf: usize,
        columns: Option<&[ColumnId]>,
    ) -> Option<DecodedLeaf> {
        let mut key = LeafKey {
            origin,
            component,
            leaf,
            columns: normalise_columns(columns),
        };
        let mut found = self.lookup(&key, true);
        if found.is_none() && key.columns.is_some() {
            key.columns = None;
            found = self.lookup(&key, true);
        }
        if found.is_some() {
            self.hits.fetch_add(1, Ordering::Relaxed);
        } else {
            self.misses.fetch_add(1, Ordering::Relaxed);
        }
        found
    }

    fn insert(
        &self,
        origin: u64,
        component: u64,
        leaf: usize,
        columns: Option<&[ColumnId]>,
        payload: DecodedLeaf,
    ) -> u64 {
        let bytes = payload_bytes(&payload);
        if bytes > self.capacity {
            // An oversized payload would evict everything and still not
            // fit; refusing it keeps resident bytes ≤ capacity invariant.
            return 0;
        }
        let key = LeafKey {
            origin,
            component,
            leaf,
            columns: normalise_columns(columns),
        };
        let mut inner = self.inner.lock();
        if key.columns.is_some() {
            // Covered by a resident all-columns payload of the same leaf
            // (a racing reader admitted it first): keep that one only.
            let mut covering = key.clone();
            covering.columns = None;
            if inner.entries.contains_key(&covering) {
                return 0;
            }
        } else if matches!(payload, DecodedLeaf::Chunks(_)) {
            // The all-columns payload supersedes the leaf's narrower ones
            // (row pages never have any, and skip the sweep).
            self.remove_where(&mut inner, |k| {
                k.columns.is_some() && (k.origin, k.component, k.leaf) == (origin, component, leaf)
            });
        }
        inner.tick += 1;
        let tick = inner.tick;
        if let Some(old) = inner.entries.insert(
            key,
            // New entries start on probation: a payload has to be re-hit
            // before it may displace the protected working set.
            CachedLeaf {
                payload,
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
                .map(|(k, _)| k.clone())
                .or_else(|| {
                    inner
                        .entries
                        .iter()
                        .min_by_key(|(_, e)| e.last_used)
                        .map(|(k, _)| k.clone())
                });
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
        if evicted > 0 {
            self.evictions.fetch_add(evicted, Ordering::Relaxed);
        }
        evicted
    }

    fn invalidate(&self, origin: u64, component: u64) -> u64 {
        let mut inner = self.inner.lock();
        self.remove_where(&mut inner, |k| {
            k.origin == origin && k.component == component
        })
    }

    /// Drop every entry whose key matches, counted as invalidations.
    fn remove_where(&self, inner: &mut Inner, matches: impl Fn(&LeafKey) -> bool) -> u64 {
        let (mut dropped, mut bytes, mut protected_bytes) = (0u64, 0, 0);
        inner.entries.retain(|k, e| {
            if !matches(k) {
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
        if dropped > 0 {
            self.invalidations.fetch_add(dropped, Ordering::Relaxed);
        }
        dropped
    }

    fn cached_leaf_count(&self, origin: u64, component: u64) -> usize {
        distinct_leaves(&self.inner.lock(), |k| {
            k.origin == origin && k.component == component
        })
    }
}

/// Distinct physical leaves among the resident entries `matches` keeps: a
/// leaf cached under several projections counts once.
fn distinct_leaves(inner: &Inner, matches: impl Fn(&LeafKey) -> bool) -> usize {
    let leaves: HashSet<(u64, u64, usize)> = inner
        .entries
        .keys()
        .filter(|k| matches(k))
        .map(|k| (k.origin, k.component, k.leaf))
        .collect();
    leaves.len()
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

    /// Fetch the leaf decoded for `columns` (`None` = all), counting a
    /// cache hit or miss. A projected request that has no entry of its own
    /// is served from the leaf's resident all-columns entry, so the payload
    /// may hold more columns than asked for.
    pub fn get(
        &self,
        component: u64,
        leaf: usize,
        columns: Option<&[ColumnId]>,
    ) -> Option<DecodedLeaf> {
        self.cache.get(self.origin, component, leaf, columns)
    }

    /// Insert a decoded leaf, evicting LRU entries as needed to stay under
    /// the byte capacity. Returns how many entries were evicted. An
    /// all-columns payload replaces the leaf's narrower ones; a narrower
    /// payload is not admitted beside a resident all-columns one.
    pub fn insert(
        &self,
        component: u64,
        leaf: usize,
        columns: Option<&[ColumnId]>,
        payload: DecodedLeaf,
    ) -> u64 {
        self.cache
            .insert(self.origin, component, leaf, columns, payload)
    }

    /// Drop every cached leaf of one component (retirement / GC). Returns
    /// how many entries were dropped.
    pub fn invalidate_component(&self, component: u64) -> u64 {
        self.cache.invalidate(self.origin, component)
    }

    /// Distinct leaf indices of `component` with at least one resident
    /// payload — the planner's residency-discount input.
    pub fn cached_leaf_count(&self, component: u64) -> usize {
        self.cache.cached_leaf_count(self.origin, component)
    }
}

fn normalise_columns(columns: Option<&[ColumnId]>) -> Option<Vec<ColumnId>> {
    columns.map(|cols| {
        let mut v = cols.to_vec();
        v.sort_unstable();
        v.dedup();
        v
    })
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

    fn chunk_count(leaf: &DecodedLeaf) -> usize {
        match leaf {
            DecodedLeaf::Chunks(chunks) => chunks.len(),
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
        assert!(h.get(1, 0, None).is_none());
        h.insert(1, 0, None, rows(4, 7));
        let hit = h.get(1, 0, None).expect("hit");
        assert_eq!(rows_len(&hit), 4);
        let stats = cache.stats();
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.resident_leaves, 1);
        assert!(stats.resident_bytes > 0);
    }

    #[test]
    fn projections_cache_separately() {
        let cache = Arc::new(LeafCache::new(1 << 20));
        let h = cache.handle();
        h.insert(1, 0, Some(&[2]), chunks(&[2], 4));
        let cols: Vec<ColumnId> = vec![3, 1, 3];
        let sorted: Vec<ColumnId> = vec![1, 3];
        h.insert(1, 0, Some(&cols), chunks(&[1, 3], 4));
        // Normalised column sets are order/dup insensitive.
        let hit = h
            .get(1, 0, Some(&sorted))
            .expect("normalised projection hit");
        assert_eq!(chunk_count(&hit), 2);
        assert_eq!(chunk_count(&h.get(1, 0, Some(&[2])).unwrap()), 1);
        // Neither narrow payload answers the all-columns request.
        assert!(h.get(1, 0, None).is_none());
        assert_eq!(cache.resident_leaves(), 2);
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
        assert!(h.get(1, 0, None).is_some());
        let evicted = h.insert(1, 3, None, rows(8, 3));
        assert_eq!(evicted, 1);
        assert!(h.get(1, 1, None).is_none());
        assert!(h.get(1, 0, None).is_some());
        assert!(cache.resident_bytes() <= cache.capacity_bytes());
        assert_eq!(cache.stats().evictions, 1);
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
        assert_eq!(h.cached_leaf_count(1), 4);
        assert_eq!(h.invalidate_component(1), 4);
        assert_eq!(h.cached_leaf_count(1), 0);
        assert_eq!(h.cached_leaf_count(2), 4);
        assert_eq!(cache.stats().invalidations, 4);
        assert!(h.get(2, 0, None).is_some());
    }

    #[test]
    fn origins_namespace_component_ids() {
        let cache = Arc::new(LeafCache::new(1 << 20));
        let shard_a = cache.handle();
        let shard_b = cache.handle();
        assert_ne!(shard_a.origin(), shard_b.origin());
        shard_a.insert(1, 0, None, rows(3, 10));
        shard_b.insert(1, 0, None, rows(5, 20));
        assert_eq!(rows_len(&shard_a.get(1, 0, None).unwrap()), 3);
        assert_eq!(rows_len(&shard_b.get(1, 0, None).unwrap()), 5);
        // Invalidating shard A's component 1 leaves shard B's untouched.
        shard_a.invalidate_component(1);
        assert!(shard_a.get(1, 0, None).is_none());
        assert!(shard_b.get(1, 0, None).is_some());
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
            assert!(h.get(1, leaf, None).is_some());
        }
        for leaf in 0..64 {
            // Each scan leaf is touched once — inserted, never re-hit.
            h.insert(2, leaf, None, rows(8, leaf as i64));
        }
        // The scan churned through probation only; every hot leaf is still
        // resident, so the hot-key hit rate survives the scan intact.
        for leaf in 0..4 {
            assert!(
                h.get(1, leaf, None).is_some(),
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
            assert!(h.get(1, leaf, None).is_some());
        }
        assert_eq!(cache.resident_leaves(), 5);
        // A new insert still finds an evictable victim.
        h.insert(1, 9, None, rows(8, 9));
        assert!(h.get(1, 9, None).is_some());
        assert!(cache.resident_bytes() <= cache.capacity_bytes());
    }

    #[test]
    fn a_projection_is_served_from_the_all_columns_entry() {
        let cache = Arc::new(LeafCache::new(1 << 20));
        let h = cache.handle();
        // Nothing resident: a miss.
        assert!(h.get(1, 0, Some(&[2])).is_none());
        h.insert(1, 0, None, chunks(&[1, 2, 3], 5));
        // The all-columns entry answers the projection, as one hit.
        let hits = cache.stats().hits;
        let covered = h.get(1, 0, Some(&[2])).expect("covered");
        assert_eq!(chunk_count(&covered), 3);
        assert_eq!(cache.stats().hits, hits + 1);
        // Another leaf's all-columns entry covers nothing here.
        assert!(h.get(1, 1, Some(&[2])).is_none());
        assert_eq!(cache.stats().misses, 2);
    }

    #[test]
    fn a_leaf_is_never_resident_beside_its_all_columns_payload() {
        let cache = Arc::new(LeafCache::new(1 << 20));
        let h = cache.handle();
        // Projected first, all columns second: the narrow payloads go.
        h.insert(1, 0, Some(&[2]), chunks(&[2], 5));
        h.insert(1, 0, Some(&[3]), chunks(&[3], 5));
        h.insert(1, 1, Some(&[2]), chunks(&[2], 5));
        assert!(h.get(1, 0, Some(&[2])).is_some()); // protected: dropped all the same
        let full = chunks(&[1, 2, 3], 5);
        assert_eq!(
            h.insert(1, 0, None, full.clone()),
            0,
            "superseded, not evicted"
        );
        assert_eq!(cache.resident_leaves(), 2);
        assert_eq!(cache.stats().invalidations, 2);
        assert_eq!(
            cache.resident_bytes(),
            payload_bytes(&full) + payload_bytes(&chunks(&[2], 5))
        );
        assert_eq!(chunk_count(&h.get(1, 0, Some(&[2])).unwrap()), 3);
        // The other leaf's narrow payload is untouched.
        assert_eq!(chunk_count(&h.get(1, 1, Some(&[2])).unwrap()), 1);
        // All columns first, projected second (a reader that raced the
        // all-columns decode): not admitted.
        h.insert(1, 0, Some(&[2]), chunks(&[2], 5));
        assert_eq!(cache.resident_leaves(), 2);
        assert_eq!(chunk_count(&h.get(1, 0, Some(&[2])).unwrap()), 3);
        // The dropped protected payload left the protected segment too:
        // both survivors have been re-hit, so it holds exactly them.
        let inner = cache.inner.lock();
        assert_eq!(inner.protected_bytes, inner.total_bytes);
    }

    #[test]
    fn distinct_leaf_gauge_deduplicates_projections() {
        let cache = Arc::new(LeafCache::new(1 << 20));
        let h = cache.handle();
        // One physical leaf under two projections.
        h.insert(1, 0, Some(&[1]), chunks(&[1], 2));
        h.insert(1, 0, Some(&[2]), chunks(&[2], 2));
        // A second physical leaf.
        h.insert(1, 1, None, rows(2, 2));
        // Budget view counts payloads; residency view counts leaves.
        assert_eq!(cache.resident_leaves(), 3);
        assert_eq!(cache.resident_distinct_leaves(), 2);
        assert_eq!(cache.stats().resident_distinct_leaves, 2);
        assert_eq!(cache.stats().resident_leaves, 3);
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
