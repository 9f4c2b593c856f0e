//! Consistent point-in-time read views and their streaming cursors.
//!
//! The dataset publishes its LSM tree as an immutable [`TreeState`] behind
//! an atomically-swapped `Arc`: sealed (flush-pending) memtables plus the
//! stack of on-disk components. A [`Snapshot`] pairs one such tree with a
//! frozen copy of the active memtable, giving readers — point lookups,
//! scans, and the whole query engine — a view that is internally consistent
//! no matter how many writers, flushes and merges run concurrently:
//!
//! * flushes move records from a sealed memtable into a component, but a
//!   snapshot taken earlier still holds the sealed memtable's `Arc`;
//! * merges retire their input components *after* the manifest commit, and
//!   the pages are freed only when the last snapshot releases its handles
//!   (`Component::retire` in the storage crate);
//! * the reconciliation order inside a snapshot is always newest-first:
//!   active memtable, then sealed memtables (newest first), then components
//!   (newest first) — the most recent version of each key wins and
//!   anti-matter hides older versions.
//!
//! ## Point reads
//!
//! Lookups share one path below the active memtable,
//! `TreeState::lookup_sorted`: a batch of ascending keys is resolved level
//! by level, newest first — sealed memtables, then each component — and a
//! level is only asked for the keys no newer level answered (with a record
//! or with anti-matter). A component resolves its keys in one forward pass
//! per leaf and assembles only the hits (`Component::lookup_sorted`). A
//! single `lookup` is the batch of one; an index probe's primary keys
//! (§4.6) are the batch. Nothing is copied that is not returned.
//!
//! ## Scans: batches, and a row adapter over the same reconciliation
//!
//! Every scan of a snapshot is one k-way reconciliation over its sources
//! ([`EntryMergeCursor`]): each source is key-sorted (memtables by
//! construction, components by the storage cursor protocol), sources expose
//! their resident keys **borrowed**, in place — nothing is assembled
//! and no key is copied to order them — and one step reconciles them all up
//! to the smallest of their last resident keys: when several sources hold
//! the same key, the newest source's version wins while the shadowed
//! versions are consumed without being decoded into documents (§4.4). At
//! most **one decoded leaf per
//! component** is resident at any time: O(components × leaf), never
//! O(dataset). The same machinery, with anti-matter *preserved*, drives the
//! dataset's merges and index rebuilds: a merge is exactly a newest-first
//! reconciling union of component cursors.
//!
//! What a scan does with a winner is the consumer's choice, and there are
//! two:
//!
//! * [`Snapshot::batches`] — the one scan constructor. The winner of a
//!   columnar component is not assembled: its *ordinal* joins the selection
//!   vector of the leaf it sits in, and when the reconciliation has used the
//!   leaf up, the leaf's `Arc`-shared decoded chunks plus that ascending
//!   vector (anti-matter dropped) are handed over as one
//!   [`ScanBatch::Columns`]. Winners of memtables and row layouts are
//!   documents already; they are collected into [`ScanBatch::Rows`] runs.
//!   Batches arrive per source leaf, **not** in global key order; every live
//!   key is in exactly one of them. Residency is one decoded leaf per source
//!   plus a `u32` per record. The query engine's aggregate kernels fold over
//!   the chunks of a batch directly; a `COUNT(*)` only adds up selection
//!   lengths (key columns alone are read — Page 0 for AMAX).
//! * [`BatchScan::rows`] (and [`Snapshot::cursor`], its shorthand for an
//!   unfiltered scan) — the key-ordered row adapter, [`ScanCursor`]: the
//!   same reconciliation, each winner assembled as it wins, live
//!   `(key, record)` pairs in ascending key order. Dropping it early (a
//!   `LIMIT`, a short-circuiting consumer) leaves every unread leaf unread.
//!   Projection plans with `ORDER BY key LIMIT k`, the facade's `DocCursor`
//!   and the interpreted engine use it.
//!
//! Both effects show up in the `IoStats` counters (`pages_read`,
//! `records_assembled`, `scan_batches`).
//!
//! ## Filter push-down (late materialization)
//!
//! [`ScanSpec::pushed`] threads a conjunction of sargable
//! [`ColumnPredicate`]s down into every source. The contract:
//!
//! * **Only the reconciliation winner** of each key is evaluated. Shadowed
//!   versions are skipped *before* the winner is tested — a stale value must
//!   never decide whether a live record survives, and a rejected winner must
//!   never resurrect the versions it shadowed.
//! * Columnar components evaluate the predicates as **loops over the filter
//!   columns** (`storage::batch`): the batch scan narrows a leaf's whole
//!   selection vector in one forward pass per filter column, the row adapter
//!   asks about one ordinal at a time. A rejected winner is never assembled
//!   and is counted in `IoStats` as `records_filtered_pre_assembly`; a leaf
//!   with no survivor never decodes (for AMAX: never reads) its other
//!   columns. Memtable entries are tested in place and copied only when they
//!   pass; their rejections cost no I/O and are not counted.
//! * Zone maps hide whole components and whole leaves before any page read
//!   (`leaves_skipped`), by one rule (`storage::component::zone_map_hides`):
//!   a pushed predicate is disproved by the stats, and the key range is
//!   disjoint from every **older** component's key range, so hiding can
//!   neither resurrect a shadowed version nor drop an anti-matter
//!   annihilation. Each component cursor asks it about its own stats once,
//!   then about each leaf; nothing above the storage cursor decides it.
//! * Anti-matter always reaches the reconciliation: it has no value to test
//!   and must annihilate. Scans then drop it.
//!
//! Predicates the planner cannot push (disjunctions, repeated paths — the
//! existential-semantics lesson) stay in the query layer's *residual*
//! filter, applied to records. Merges and index rebuilds never push
//! filters: they must preserve every surviving version and all anti-matter.
//!
//! Scans are fully owned (`Arc`s into the snapshot's sources), so they can
//! outlive the `&Snapshot` borrow they were created from — the facade hands
//! them out as streaming query results.

use std::cmp::Ordering;
use std::sync::Arc;

use docmodel::{total_cmp, Path, Value};
use storage::component::{
    ColumnPredicate, Component, ComponentCursor, Entry, KeyRun, LeafChunks, ScanFilter,
};
use storage::pagestore::PageStore;
use storage::ColumnBatch;

use crate::Result;

/// A memtable sealed for flushing: an immutable, key-sorted run of entries
/// plus the id of the newest WAL segment containing its records.
pub struct SealedMemtable {
    /// Entries in key order (`None` = anti-matter).
    pub(crate) entries: Vec<(Value, Option<Value>)>,
    /// Newest WAL segment covering these entries (durable datasets only).
    pub(crate) wal_segment: Option<u64>,
}

impl SealedMemtable {
    fn find(&self, key: &Value) -> Option<&Option<Value>> {
        self.entries
            .binary_search_by(|(k, _)| total_cmp(k, key))
            .ok()
            .map(|i| &self.entries[i].1)
    }
}

/// The immutable, atomically-swapped part of a dataset: everything except
/// the active memtable. Cloning is shallow (`Arc` bumps).
#[derive(Default, Clone)]
pub struct TreeState {
    /// Sealed memtables awaiting flush, oldest first.
    pub(crate) sealed: Vec<Arc<SealedMemtable>>,
    /// On-disk components, oldest first.
    pub(crate) components: Vec<Arc<Component>>,
}

/// What [`TreeState::lookup_sorted`] found.
pub(crate) struct TreeLookup {
    /// Per key, in input order: the live record, `None` when the key is
    /// absent or deleted.
    pub(crate) docs: Vec<Option<Value>>,
    /// Component probes summed over the keys (a key resolved by the newest
    /// component costs one, a key found nowhere costs one per component) —
    /// the point-read amplification `lsm.lookup_components_probed` reports.
    pub(crate) components_probed: u64,
}

impl TreeState {
    /// The one point-read path below the active memtable: resolve
    /// **ascending** keys against the sealed memtables, then component by
    /// component, newest first, handing each level only the keys no newer
    /// level answered (a record or its anti-matter both answer). Each
    /// component sees its keys as one sorted batch
    /// ([`Component::lookup_sorted`]), so every leaf is fetched once per
    /// batch and only the hits are assembled, from the projected paths. A
    /// sealed memtable's hit is cloned as the top-level fields the projected
    /// paths start at ([`Value::clone_projected`]).
    pub(crate) fn lookup_sorted(
        &self,
        keys: &[&Value],
        projection: Option<&[Path]>,
    ) -> Result<TreeLookup> {
        let mut entries: Vec<Option<Option<Value>>> = vec![None; keys.len()];
        // Indexes of the keys still unresolved, ascending like the keys.
        let mut pending: Vec<usize> = (0..keys.len()).collect();
        for sealed in self.sealed.iter().rev() {
            pending.retain(|&i| {
                entries[i] = sealed
                    .find(keys[i])
                    .map(|entry| entry.as_ref().map(|doc| doc.clone_projected(projection)));
                entries[i].is_none()
            });
        }
        let mut components_probed = 0;
        let mut batch: Vec<&Value> = Vec::with_capacity(pending.len());
        for component in self.components.iter().rev() {
            if pending.is_empty() {
                break;
            }
            batch.clear();
            batch.extend(pending.iter().map(|&i| keys[i]));
            components_probed += batch.len() as u64;
            let mut found = component.lookup_sorted(&batch, projection)?.into_iter();
            pending.retain(|&i| {
                entries[i] = found.next().expect("one result per key");
                entries[i].is_none()
            });
        }
        Ok(TreeLookup {
            docs: entries.into_iter().map(Option::flatten).collect(),
            components_probed,
        })
    }
}

/// A consistent point-in-time view of one dataset. Cloning is shallow: the
/// active memtable copy and the tree are both behind `Arc`s.
#[derive(Clone)]
pub struct Snapshot {
    /// Frozen copy of the active memtable, in key order.
    pub(crate) active: Arc<Vec<(Value, Option<Value>)>>,
    /// The published tree at snapshot time.
    pub(crate) tree: Arc<TreeState>,
}

impl Snapshot {
    /// Point lookup: newest version of `key`. `None` when the key does not
    /// exist or was deleted at snapshot time. The projection rule is
    /// [`crate::LsmDataset::lookup`]'s: the record holds at least the
    /// projected paths, a memtable hit the top-level fields they start at.
    pub fn lookup(&self, key: &Value, projection: Option<&[Path]>) -> Result<Option<Value>> {
        if let Some(entry) = self.active_entry(key) {
            return Ok(entry.as_ref().map(|doc| doc.clone_projected(projection)));
        }
        Ok(self
            .tree
            .lookup_sorted(&[key], projection)?
            .docs
            .pop()
            .flatten())
    }

    /// The frozen active memtable's entry for `key`, if it has one.
    fn active_entry(&self, key: &Value) -> Option<&Option<Value>> {
        self.active
            .binary_search_by(|(k, _)| total_cmp(k, key))
            .ok()
            .map(|i| &self.active[i].1)
    }

    /// The one scan constructor: reconcile the snapshot's sources on keys and
    /// hand the winners over batch by batch — per columnar leaf its decoded
    /// chunks plus the ordinals that won, for memtables and row layouts runs
    /// of documents. See the module docs and [`ScanSpec`]. Nothing is read
    /// before the first batch is pulled.
    pub fn batches(&self, spec: ScanSpec<'_>) -> BatchScan {
        let pushed = Arc::new(spec.pushed.to_vec());
        let filter = (!pushed.is_empty()).then(|| pushed.clone());
        // Sources newest-first: active memtable, sealed memtables (newest
        // first), components (newest first).
        let mut sources =
            Vec::with_capacity(1 + self.tree.sealed.len() + self.tree.components.len());
        sources.push(MergeSource::mem(self.active.clone()));
        for sealed in self.tree.sealed.iter().rev() {
            sources.push(MergeSource::sealed(sealed.clone()));
        }
        // Every component's key range, oldest first. A component the scan
        // hides entirely still has versions a newer component could shadow,
        // so it still constrains what the newer ones may hide.
        let ranges: Vec<Option<(Value, Value)>> = if filter.is_some() {
            self.tree.components.iter().map(|c| c.key_range()).collect()
        } else {
            Vec::new()
        };
        for (i, component) in self.tree.components.iter().enumerate().rev() {
            let filter = filter.as_ref().map(|predicates| ScanFilter {
                predicates: predicates.clone(),
                older_key_ranges: Arc::new(ranges[..i].iter().flatten().cloned().collect()),
            });
            sources.push(MergeSource::Disk(
                component.cursor_filtered(spec.projection, filter),
            ));
        }
        BatchScan {
            pending: sources.iter().map(|_| None).collect(),
            merge: EntryMergeCursor::new(sources),
            pushed,
            rows: Vec::new(),
            rows_from: None,
            winners: Vec::new(),
            store: self
                .tree
                .components
                .first()
                .map(|c| c.cache().store().clone()),
        }
    }

    /// The key-ordered row adapter over an unfiltered scan of the whole
    /// snapshot — shorthand for `batches(..).rows()`: live records in key
    /// order, duplicates reconciled newest-first, anti-matter dropped, only
    /// the projected paths assembled from columnar components.
    pub fn cursor(&self, projection: Option<&[Path]>) -> Result<ScanCursor> {
        Ok(self
            .batches(ScanSpec {
                projection,
                ..ScanSpec::default()
            })
            .rows())
    }

    /// The on-disk components visible to this snapshot, oldest first.
    pub fn components(&self) -> &[Arc<Component>] {
        &self.tree.components
    }

    /// Records (and anti-matter) still in memory at snapshot time: the
    /// frozen active memtable plus every sealed memtable.
    pub fn in_memory_entries(&self) -> usize {
        self.active.len()
            + self
                .tree
                .sealed
                .iter()
                .map(|s| s.entries.len())
                .sum::<usize>()
    }
}

// ---------------------------------------------------------------------------
// The k-way reconciliation and its two consumers.
// ---------------------------------------------------------------------------

/// What a scan reads and how far the planner narrowed it.
#[derive(Debug, Clone, Copy, Default)]
pub struct ScanSpec<'a> {
    /// Paths whose columns a columnar leaf decodes when it is loaded, and
    /// the row adapter assembles records from (`None` = every column,
    /// `Some(&[])` = keys only). A batch consumer may fetch more columns of
    /// a batch later ([`ColumnBatch::chunks`], [`ColumnBatch::into_rows`]).
    pub projection: Option<&'a [Path]>,
    /// Conjunction of pushed-down predicates every yielded record satisfies;
    /// see the module-level filter push-down contract. They are also what
    /// the zone maps hide components and leaves by.
    pub pushed: &'a [ColumnPredicate],
}

/// One input of the merge: a key-sorted run of entries, either shared
/// in-memory slices (memtables) or a streaming component cursor.
enum MergeSource {
    /// Active memtable (frozen copy) or a sealed memtable's entries.
    Mem { entries: MemEntries, pos: usize },
    /// A streaming on-disk component cursor (one leaf resident at a time).
    Disk(ComponentCursor),
}

/// The two shared in-memory entry runs a source can hold an `Arc` into.
enum MemEntries {
    Active(Arc<Vec<Entry>>),
    Sealed(Arc<SealedMemtable>),
}

impl MemEntries {
    fn all(&self) -> &[Entry] {
        match self {
            MemEntries::Active(entries) => entries,
            MemEntries::Sealed(sealed) => &sealed.entries,
        }
    }
}

/// The merge reconciles on keys alone, and on keys *in place*: a source
/// shows its resident, unconsumed keys as one run ([`KeyRun`]); an
/// entry is only *taken* ([`MergeSource::take`]) when it wins its key, and a
/// shadowed version is consumed unread by the step that found its winner —
/// for columnar components that moves a position and decodes nothing (§4.4).
impl MergeSource {
    fn mem(entries: Arc<Vec<Entry>>) -> MergeSource {
        MergeSource::Mem { entries: MemEntries::Active(entries), pos: 0 }
    }

    fn sealed(sealed: Arc<SealedMemtable>) -> MergeSource {
        MergeSource::Mem { entries: MemEntries::Sealed(sealed), pos: 0 }
    }

    /// Make the source's next entry resident (a disk source may load its
    /// next leaf). Cheap when it already is.
    fn fill(&mut self) -> Result<()> {
        if let MergeSource::Disk(cursor) = self {
            cursor.fill()?;
        }
        Ok(())
    }

    /// The keys of the source's resident, unconsumed entries; `None` =
    /// exhausted (once filled).
    #[inline]
    fn keys(&self) -> Option<KeyRun<'_>> {
        match self {
            MergeSource::Mem { entries, pos } => {
                let all = entries.all();
                (*pos < all.len()).then_some(KeyRun::Entries(all, *pos))
            }
            MergeSource::Disk(cursor) => cursor.resident_keys(),
        }
    }

    /// Consume `n` resident entries without reading them.
    fn consume(&mut self, n: usize) {
        match self {
            MergeSource::Mem { pos, .. } => *pos += n,
            MergeSource::Disk(cursor) => cursor.consume(n),
        }
    }

    /// The entry at `ordinal`, assembled or copied (a winner).
    fn take(&mut self, ordinal: usize) -> Result<Entry> {
        match self {
            MergeSource::Mem { entries, .. } => Ok(entries.all()[ordinal].clone()),
            MergeSource::Disk(cursor) => cursor.take_entry(ordinal),
        }
    }

    /// The entry at `ordinal` where it is held as a document (memtables, row
    /// pages) — to be tested in place before it is copied.
    fn entry(&self, ordinal: usize) -> Option<&Entry> {
        match self {
            MergeSource::Mem { entries, .. } => entries.all().get(ordinal),
            MergeSource::Disk(cursor) => cursor.entry(ordinal),
        }
    }

    /// Count a consumed winner as a pushed-filter rejection. Disk sources
    /// count it as `records_filtered_pre_assembly`; memtable rejections cost
    /// no I/O and are uncounted.
    fn note_filtered(&self) {
        if let MergeSource::Disk(cursor) = self {
            cursor.note_filtered();
        }
    }

    /// Entries currently decoded and resident for this source (disk sources
    /// only — memtable sources share the snapshot's memory).
    fn buffered(&self) -> usize {
        match self {
            MergeSource::Mem { .. } => 0,
            MergeSource::Disk(cursor) => cursor.buffered(),
        }
    }
}

/// One key's reconciliation winner: where the newest version of the key
/// sits. The step that found it has consumed it and every version it
/// shadows; [`EntryMergeCursor::take_winner`] still reads it until the source's
/// next leaf is loaded, which no step does before the consumer has seen the
/// step's winners.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Winner {
    /// The source holding it, by reconciliation priority (0 = newest).
    pub source: usize,
    /// Its ordinal in the source: the position in a memtable, or in the
    /// source's resident leaf.
    pub ordinal: usize,
    /// Whether the newest version is anti-matter.
    pub anti_matter: bool,
}

/// A k-way, newest-first merge-reconcile cursor over key-sorted entry runs.
///
/// The unit of work is one **step** ([`EntryMergeCursor::step`]): every
/// source fills (a disk source whose leaf is used up loads its next one),
/// and the sources' resident keys are reconciled in place — as `i64` slices
/// when every run is an integer key column (the type is matched once per
/// step), else pair by pair under the document order — up to the smallest
/// of the sources' last resident keys, beyond which some source may hold
/// keys it has not loaded yet. The step emits one
/// [`Winner`] per distinct key, in ascending key order: the version from
/// the **newest** source holding it (sources are ordered newest-first at
/// construction). Shadowed versions are consumed in the same pass, unread.
/// A winner that is anti-matter is emitted as such — the dataset's merge
/// keeps it; scans ([`BatchScan`], [`ScanCursor`]) drop it.
///
/// A step ends when a source's resident run is used up, or after `limit`
/// winners. Batch scans and merges consume whole steps; the per-entry path
/// ([`EntryMergeCursor::next_winner`]: the row adapter, the [`Iterator`])
/// hands out a buffered step's winners one at a time — so the newest-wins,
/// shadow-skip and anti-matter rule exists once.
pub struct EntryMergeCursor {
    /// Sources in newest-first order; index = reconciliation priority.
    sources: Vec<MergeSource>,
    /// Per source, the entries the current step consumed.
    taken: Vec<usize>,
    /// The step [`EntryMergeCursor::next_winner`] hands out, and how many of
    /// its winners it has handed out.
    ready: Vec<Winner>,
    ready_at: usize,
    /// Entries decoded and resident across all sources when the last step
    /// began.
    resident: usize,
    /// High-water mark of entries buffered across all sources (the peak-RSS
    /// proxy reported by the streaming benchmarks).
    peak_buffered: usize,
}

impl EntryMergeCursor {
    fn new(sources: Vec<MergeSource>) -> EntryMergeCursor {
        EntryMergeCursor {
            taken: vec![0; sources.len()],
            sources,
            ready: Vec::new(),
            ready_at: 0,
            resident: 0,
            peak_buffered: 0,
        }
    }

    /// A merge cursor over on-disk components only (`components` given
    /// oldest-first, as stored in the tree), anti-matter preserved — the
    /// dataset's merge input.
    pub fn over_components(
        components: &[Arc<Component>],
        projection: Option<&[Path]>,
    ) -> EntryMergeCursor {
        EntryMergeCursor::new(
            components
                .iter()
                .rev()
                .map(|c| MergeSource::Disk(c.cursor(projection)))
                .collect(),
        )
    }

    /// Like [`EntryMergeCursor::over_components`], with an additional
    /// in-memory key-sorted run that is newer than every component (the
    /// recovered memtable during index rebuilds).
    pub fn over_memtable_and_components(
        memtable_entries: Vec<Entry>,
        components: &[Arc<Component>],
        projection: Option<&[Path]>,
    ) -> EntryMergeCursor {
        let mut sources = vec![MergeSource::mem(Arc::new(memtable_entries))];
        for component in components.iter().rev() {
            sources.push(MergeSource::Disk(component.cursor(projection)));
        }
        EntryMergeCursor::new(sources)
    }

    /// High-water mark of entries decoded and buffered across all disk
    /// sources so far — at most one leaf per component, the memory bound of
    /// the streaming scan (used as the peak-RSS proxy in benchmarks).
    pub fn peak_buffered(&self) -> usize {
        self.peak_buffered
    }

    /// Advance every source past all entries with key `<= bound` **without
    /// assembling them**: only key columns are decoded and the entries are
    /// consumed exactly like reconciliation losers (§4.4). After the call,
    /// the cursor's next entry is the smallest key strictly greater than
    /// `bound`.
    ///
    /// This is what lets a long-running scan be *re-pinned* on a fresh
    /// snapshot mid-stream (bounded staleness): rebuild the cursor, then
    /// `skip_to` the last key already delivered. Cost is proportional to the
    /// skipped prefix's key columns, not to record assembly. It is asked of
    /// a cursor with no winner handed out yet, as a re-pin builds.
    pub fn skip_to(&mut self, bound: &Value) -> Result<()> {
        assert!(self.ready.is_empty(), "skip_to before the first winner");
        for source in &mut self.sources {
            loop {
                source.fill()?;
                let Some(run) = source.keys() else { break };
                let (skipped, resident) = (run.count_up_to(bound), run.len());
                source.consume(skipped);
                if skipped < resident {
                    break;
                }
            }
        }
        Ok(())
    }

    /// One reconciliation step (see the type docs): `winners` is cleared
    /// and receives the step's winners in ascending key order, at most
    /// `limit` of them. It stays empty only when every source is exhausted.
    pub fn step(&mut self, limit: usize, winners: &mut Vec<Winner>) -> Result<()> {
        winners.clear();
        for source in &mut self.sources {
            source.fill()?;
        }
        self.resident = self.buffered();
        self.peak_buffered = self.peak_buffered.max(self.resident);
        let EntryMergeCursor { sources, taken, .. } = self;
        taken.clear();
        taken.resize(sources.len(), 0);
        let runs: Vec<Option<KeyRun<'_>>> = sources.iter().map(MergeSource::keys).collect();
        let mut emit = |source: usize, i: usize| {
            let run = runs[source].expect("a winner's source has keys");
            let ordinal = run.first() + i;
            winners.push(Winner {
                source,
                ordinal,
                anti_matter: run.is_antimatter(ordinal),
            });
        };
        // Integer key columns compare as `i64` slices; a step over any other
        // run compares its keys pair by pair.
        let ints: Option<Vec<&[i64]>> = runs
            .iter()
            .map(|run| run.map_or(Some(&[][..]), |run| run.ints()))
            .collect();
        match ints {
            Some(keys) => reconcile(&Ints(&keys), taken, limit, &mut emit),
            None => reconcile(&Mixed(&runs), taken, limit, &mut emit),
        }
        for (source, &n) in sources.iter_mut().zip(taken.iter()) {
            source.consume(n);
        }
        Ok(())
    }

    /// The next key's winner, `None` = every source is exhausted: the
    /// per-entry path (the row adapter, the [`Iterator`]), which hands out
    /// the winners of one buffered step of up to `ROW_BATCH` before it
    /// takes the next. Each is to be taken before the next call. Not to be
    /// interleaved with [`EntryMergeCursor::step`].
    pub fn next_winner(&mut self) -> Result<Option<Winner>> {
        if self.ready_at == self.ready.len() {
            let mut ready = std::mem::take(&mut self.ready);
            self.step(ROW_BATCH, &mut ready)?;
            self.ready = ready;
            self.ready_at = 0;
        }
        let next = self.ready.get(self.ready_at).copied();
        self.ready_at += usize::from(next.is_some());
        Ok(next)
    }

    /// The entry of a winner, assembled or copied — before the step after
    /// the one that found it.
    pub fn take_winner(&mut self, winner: Winner) -> Result<Entry> {
        self.sources[winner.source].take(winner.ordinal)
    }

    /// The index of a source's resident leaf when it is columnar (where its
    /// winners sit); `None` for memtables and row layouts.
    pub(crate) fn resident_leaf(&self, source: usize) -> Option<usize> {
        match &self.sources[source] {
            MergeSource::Disk(cursor) => cursor.resident_leaf(),
            MergeSource::Mem { .. } => None,
        }
    }

    /// Whether a source holds documents (a memtable) rather than a
    /// component.
    pub(crate) fn is_memtable(&self, source: usize) -> bool {
        matches!(self.sources[source], MergeSource::Mem { .. })
    }

    /// The decoded chunks of a disk source's resident columnar leaf.
    pub(crate) fn source_chunks(&self, source: usize) -> Option<&LeafChunks> {
        match &self.sources[source] {
            MergeSource::Disk(cursor) => cursor.leaf_chunks(),
            MergeSource::Mem { .. } => None,
        }
    }

    /// Entries of one source's resident leaf not yet consumed.
    pub(crate) fn source_buffered(&self, source: usize) -> usize {
        self.sources[source].buffered()
    }

    /// Entries decoded and resident across all disk sources right now.
    pub(crate) fn buffered(&self) -> usize {
        self.sources.iter().map(MergeSource::buffered).sum()
    }

    /// Entries decoded and resident across all disk sources when the last
    /// step began — every winner of that step among them.
    pub(crate) fn resident(&self) -> usize {
        self.resident
    }

    /// Take a winner as a scan does: `None` when it is anti-matter or fails
    /// the pushed filter — then nothing is assembled or copied — else the
    /// live `(key, record)`.
    fn take_live(
        &mut self,
        winner: Winner,
        pushed: &[ColumnPredicate],
    ) -> Result<Option<(Value, Value)>> {
        if winner.anti_matter {
            return Ok(None);
        }
        let source = &mut self.sources[winner.source];
        // Memtable entries and row pages hold documents: test in place.
        if let Some((_, doc)) = source.entry(winner.ordinal) {
            let doc = doc.as_ref().expect("a live winner has a record");
            if !pushed.iter().all(|p| p.matches(doc)) {
                source.note_filtered();
                return Ok(None);
            }
        } else if let MergeSource::Disk(cursor) = source {
            if !cursor.passes(winner.ordinal) {
                cursor.note_filtered();
                return Ok(None);
            }
        }
        let (key, doc) = source.take(winner.ordinal)?;
        let doc = doc.expect("a live winner has a record");
        Ok(match source {
            MergeSource::Disk(cursor) if !cursor.record_passes(&doc) => None,
            _ => Some((key, doc)),
        })
    }
}

impl Iterator for EntryMergeCursor {
    type Item = Result<Entry>;

    fn next(&mut self) -> Option<Self::Item> {
        match self.next_winner() {
            Ok(Some(winner)) => Some(self.take_winner(winner)),
            Ok(None) => None,
            Err(e) => Some(Err(e)),
        }
    }
}

// ---------------------------------------------------------------------------
// The reconciliation rule, over key runs.
// ---------------------------------------------------------------------------

/// The key slices of one step, per source (an exhausted source's is empty).
trait StepKeys {
    /// Keys of `source`'s run.
    fn len(&self, source: usize) -> usize;
    /// Key `i` of source `a` against key `j` of source `b`, under the
    /// document total order.
    fn cmp(&self, a: usize, i: usize, b: usize, j: usize) -> Ordering;
}

/// Runs that are all integer key columns.
struct Ints<'r, 'a>(&'r [&'a [i64]]);

impl StepKeys for Ints<'_, '_> {
    #[inline]
    fn len(&self, source: usize) -> usize {
        self.0[source].len()
    }

    #[inline]
    fn cmp(&self, a: usize, i: usize, b: usize, j: usize) -> Ordering {
        self.0[a][i].cmp(&self.0[b][j])
    }
}

/// Any other runs (memtables, row leaves, double or string key columns, an
/// integer key column beside a double one): keys compare one pair at a time
/// under the document total order, where `7` and `7.0` are one key.
struct Mixed<'r, 'a>(&'r [Option<KeyRun<'a>>]);

impl StepKeys for Mixed<'_, '_> {
    #[inline]
    fn len(&self, source: usize) -> usize {
        self.0[source].map_or(0, |run| run.len())
    }

    #[inline]
    fn cmp(&self, a: usize, i: usize, b: usize, j: usize) -> Ordering {
        let key = |source: usize, i: usize| {
            let run = self.0[source].expect("a compared source has keys");
            run.key(run.first() + i)
        };
        key(a, i).compare(&key(b, j))
    }
}

/// The one reconciliation rule. Over the runs `keys` (newest source first),
/// `taken[s]` of which are consumed so far: the smallest head key wins, the
/// newest source among equal heads provides the surviving version
/// (`emit(source, index in its run)`), and every older source heading the
/// same key consumes its shadowed version unread. A source whose head is
/// below every other head emits a run of winners, each compared with the
/// smallest other head only.
///
/// The pass ends after `limit` winners, or when a source's run is used up:
/// past its last key, that source may hold keys it has not loaded.
fn reconcile(
    keys: &impl StepKeys,
    taken: &mut [usize],
    limit: usize,
    emit: &mut impl FnMut(usize, usize),
) {
    const NONE: usize = usize::MAX;
    let mut emitted = 0;
    while emitted < limit {
        // The winner `best` (the lowest index among equal heads) and the
        // smallest head among the other sources, `next`.
        let (mut best, mut next) = (NONE, NONE);
        for s in 0..taken.len() {
            if taken[s] == keys.len(s) {
                continue;
            }
            if best == NONE {
                best = s;
            } else if keys.cmp(s, taken[s], best, taken[best]) == Ordering::Less {
                next = best;
                best = s;
            } else if next == NONE || keys.cmp(s, taken[s], next, taken[next]) == Ordering::Less {
                next = s;
            }
        }
        if best == NONE {
            return;
        }
        let at = taken[best];
        if next != NONE && keys.cmp(next, taken[next], best, at) == Ordering::Equal {
            // Shadowed versions of the key are consumed before the winner
            // is evaluated or taken, so a filter-rejected winner can never
            // resurrect them.
            emit(best, at);
            emitted += 1;
            taken[best] += 1;
            let mut used_up = taken[best] == keys.len(best);
            for (s, consumed) in taken.iter_mut().enumerate().skip(best + 1) {
                if *consumed < keys.len(s) && keys.cmp(s, *consumed, best, at) == Ordering::Equal {
                    *consumed += 1;
                    used_up |= *consumed == keys.len(s);
                }
            }
            if used_up {
                return;
            }
            continue;
        }
        // Every key of `best` below the other heads wins outright.
        loop {
            emit(best, taken[best]);
            emitted += 1;
            taken[best] += 1;
            if taken[best] == keys.len(best) || emitted == limit {
                return;
            }
            if next != NONE && keys.cmp(best, taken[best], next, taken[next]) != Ordering::Less {
                break;
            }
        }
    }
}

/// Where the documents of a [`ScanBatch::Rows`] come from — the reason they
/// were never columns, which `EXPLAIN ANALYZE` reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RowOrigin {
    /// The active or a sealed memtable.
    Memtable,
    /// Components in a row layout (Open, VB).
    RowLayout,
    /// Some of each.
    Both,
}

impl RowOrigin {
    fn and(self, other: RowOrigin) -> RowOrigin {
        if self == other {
            self
        } else {
            RowOrigin::Both
        }
    }
}

/// One batch of a [`BatchScan`]: live reconciliation winners that passed
/// the pushed filter.
pub enum ScanBatch {
    /// The winners inside one leaf of a columnar component, unassembled.
    Columns(ColumnBatch),
    /// Winners that were documents to begin with, as `(key, record)` pairs
    /// in key order.
    Rows {
        /// The winners.
        rows: Vec<(Value, Value)>,
        /// Which sources held them.
        from: RowOrigin,
    },
}

impl ScanBatch {
    /// Number of records in the batch — exact, except for a
    /// [`ScanBatch::Columns`] whose pushed filter
    /// [needs the records](ColumnBatch::needs_records): there it is an upper
    /// bound, and only [`ColumnBatch::into_rows`] drops the rest.
    pub fn len(&self) -> usize {
        match self {
            ScanBatch::Columns(batch) => batch.selection().len(),
            ScanBatch::Rows { rows, .. } => rows.len(),
        }
    }

    /// `true` for a batch without records (never yielded by a scan).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Documents collected before a [`ScanBatch::Rows`] is handed over, and the
/// most winners a batch scan, a merge or the per-entry path takes from one
/// step.
pub(crate) const ROW_BATCH: usize = 1024;

/// The batch scan of a snapshot; see [`Snapshot::batches`] and the module
/// docs. Fully owned, so it may outlive the snapshot borrow it came from.
pub struct BatchScan {
    merge: EntryMergeCursor,
    pushed: Arc<Vec<ColumnPredicate>>,
    /// Per source: the columnar leaf it is reading and the ordinals of the
    /// winners found in it so far (anti-matter left out).
    pending: Vec<Option<(usize, Vec<u32>)>>,
    /// Winners of memtables and row layouts since the last `Rows` batch, and
    /// which of the two held them.
    rows: Vec<(Value, Value)>,
    rows_from: Option<RowOrigin>,
    /// The winners of the current step.
    winners: Vec<Winner>,
    /// Where `scan_batches` is counted (absent for memtable-only snapshots).
    store: Option<PageStore>,
}

impl BatchScan {
    /// The key-ordered row adapter over the same scan (before any batch was
    /// pulled): every winner is assembled as it wins.
    pub fn rows(self) -> ScanCursor {
        ScanCursor { merge: self.merge, pushed: self.pushed }
    }

    /// Drain the scan counting its records: with a keys-only [`ScanSpec`]
    /// this is `COUNT(*)` from key columns alone. Nothing is built unless a
    /// pushed predicate can only be decided on the record.
    pub fn record_count(self) -> Result<usize> {
        let mut n = 0;
        for batch in self {
            n += match batch? {
                ScanBatch::Columns(batch) if batch.needs_records() => {
                    let mut passed = 0;
                    for row in batch.into_rows(Some(&[]))? {
                        row?;
                        passed += 1;
                    }
                    passed
                }
                batch => batch.len(),
            };
        }
        Ok(n)
    }

    /// Hand over what `source` collected in the leaf it has used up — while
    /// the drained leaf is still resident in its cursor.
    fn finish_leaf(&mut self, source: usize) -> Option<ScanBatch> {
        let (_, selection) = self.pending[source].take()?;
        if selection.is_empty() {
            return None;
        }
        let MergeSource::Disk(cursor) = &self.merge.sources[source] else {
            return None;
        };
        let batch = cursor.leaf_batch(selection)?;
        (!batch.selection().is_empty()).then_some(ScanBatch::Columns(batch))
    }

    /// The documents collected so far as one batch.
    fn rows_batch(&mut self) -> Option<ScanBatch> {
        let from = self.rows_from.take()?;
        Some(ScanBatch::Rows {
            rows: std::mem::take(&mut self.rows),
            from,
        })
    }

    fn advance(&mut self) -> Result<Option<ScanBatch>> {
        loop {
            // A leaf some source has used up is about to be replaced by the
            // source's next one: hand its batch over first, so no source
            // ever holds two leaves.
            for source in 0..self.pending.len() {
                if self.pending[source].is_some() && self.merge.source_buffered(source) == 0 {
                    if let Some(batch) = self.finish_leaf(source) {
                        return Ok(Some(batch));
                    }
                }
            }
            if self.rows.len() >= ROW_BATCH {
                return Ok(self.rows_batch());
            }
            self.merge.step(ROW_BATCH, &mut self.winners)?;
            if self.winners.is_empty() {
                // Every source is exhausted, so every leaf was handed over.
                return Ok(self.rows_batch());
            }
            let winners = std::mem::take(&mut self.winners);
            for &winner in &winners {
                if let Some(leaf) = self.merge.resident_leaf(winner.source) {
                    let (at, selection) =
                        self.pending[winner.source].get_or_insert_with(|| (leaf, Vec::new()));
                    debug_assert_eq!(*at, leaf, "a used-up leaf was handed over");
                    if !winner.anti_matter {
                        selection.push(winner.ordinal as u32);
                    }
                } else if let Some(row) = self.merge.take_live(winner, &self.pushed)? {
                    let from = if self.merge.is_memtable(winner.source) {
                        RowOrigin::Memtable
                    } else {
                        RowOrigin::RowLayout
                    };
                    self.rows_from = Some(self.rows_from.map_or(from, |was| was.and(from)));
                    self.rows.push(row);
                }
            }
            self.winners = winners;
        }
    }
}

impl Iterator for BatchScan {
    type Item = Result<ScanBatch>;

    fn next(&mut self) -> Option<Self::Item> {
        let batch = self.advance().transpose()?;
        if let (Ok(_), Some(store)) = (&batch, &self.store) {
            store.note_scan_batches(1);
        }
        Some(batch)
    }
}

/// The key-ordered row adapter of a snapshot scan: live `(key, record)`
/// pairs in key order, anti-matter dropped, pushed predicates applied.
/// Created by [`Snapshot::cursor`] / [`BatchScan::rows`]; fully owned, so it
/// may outlive the snapshot borrow it came from.
pub struct ScanCursor {
    merge: EntryMergeCursor,
    pushed: Arc<Vec<ColumnPredicate>>,
}

impl ScanCursor {
    /// High-water mark of entries decoded and buffered across all disk
    /// sources so far (see [`EntryMergeCursor::peak_buffered`]).
    pub fn peak_buffered(&self) -> usize {
        self.merge.peak_buffered()
    }

    /// Skip (without assembling) every entry with key `<= bound`; the next
    /// yielded record is the smallest live key strictly greater than
    /// `bound`. Asked before the first record is pulled; see
    /// [`EntryMergeCursor::skip_to`].
    pub fn skip_to(&mut self, bound: &Value) -> Result<()> {
        self.merge.skip_to(bound)
    }
}

impl Iterator for ScanCursor {
    type Item = Result<(Value, Value)>;

    fn next(&mut self) -> Option<Self::Item> {
        loop {
            let winner = match self.merge.next_winner() {
                Ok(Some(winner)) => winner,
                Ok(None) => return None,
                Err(e) => return Some(Err(e)),
            };
            match self.merge.take_live(winner, &self.pushed) {
                Ok(Some(row)) => return Some(Ok(row)),
                Ok(None) => continue,
                Err(e) => return Some(Err(e)),
            }
        }
    }
}
