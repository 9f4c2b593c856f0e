//! Immutable on-disk components in the four layouts, behind one interface.
//!
//! An LSM flush (or merge) produces a *component*: a sorted, immutable run of
//! `(key, record-or-anti-matter)` entries together with the schema inferred
//! up to that point (persisted, in the real system, on the component's
//! metadata page). This module writes and reads components in the four
//! layouts the paper evaluates:
//!
//! * `Open` and `Vb` — row-major slotted pages ([`crate::rowpage`]);
//! * `Apax` — one APAX page per batch of records ([`crate::apax`]);
//! * `Amax` — mega leaf nodes ([`crate::amax`]).
//!
//! The row layouts compress each page whole (the stand-in for the paper's
//! Snappy page compression); the columnar layouts store their pages as
//! written, because each column chunk already carries the codec its leaf
//! chose for it at seal ([`ColumnChunk::encode`]), so a columnar read
//! decodes straight out of the cached page and runs no decompression pass
//! ([`write_page`], [`read_page_payload`], [`PagePayload`]). Every layout is
//! read through the shared [`BufferCache`], so the experiments can compare
//! page I/O across layouts directly. The per-page (or per-leaf) minimum and
//! maximum keys kept in [`Component`] play the role of the B+-tree interior
//! nodes: point lookups and merges locate leaves through them without
//! touching data pages.
//!
//! ## The writer protocol
//!
//! Components are written by one incremental [`ComponentWriter`], which
//! flush and merge both drive ([`Component::write`] is the writer fed a
//! whole slice). It keeps **one open leaf** and nothing else of the output:
//!
//! * **Push entries** — [`ComponentWriter::push_entry`] appends one
//!   `(key, record-or-anti-matter)` entry: cloned into the open row page, or
//!   shredded into the open leaf's column chunks. This is a flush, a
//!   row-layout merge, and the re-shred lane of a columnar merge.
//! * **Push ranges** — [`ComponentWriter::push_runs`] appends runs of
//!   records straight out of other components' *decoded column chunks*
//!   (§4.4): per output column, each run is located in its input chunk by
//!   record boundaries and moved with one slice extend of the definition
//!   levels and one of the values. Nothing is assembled and nothing is
//!   shredded. A leaf qualifies when [`ComponentWriter::can_copy`] says so:
//!   every chunk it holds is a column of the writer's schema with an equal
//!   `ColumnSpec`, and every column it lacks belongs to a top-level field it
//!   has no column of (such a column is one definition-level-0 entry per
//!   record). A merge reads the coordinates of its winners off the input
//!   cursors ([`ComponentCursor::resident_leaf`],
//!   [`ComponentCursor::leaf_chunks`]) instead of pulling records.
//! * **Leaf sealing** — the open leaf is sealed the moment it fills: an AMAX
//!   leaf at `record_limit` records, a row or APAX page when the summed
//!   [`rowpage::entry_size_estimate`]s reach the page budget (for copied
//!   ranges the estimate comes from the columns themselves, see
//!   [`columnar::ShapeWalker`]). Sealing encodes the leaf; a leaf page that
//!   overflows the budget is halved until each half fits; the pages are
//!   written; and the leaf's [`LeafDescriptor`] — pages, key bounds, record
//!   count, **zone map** — joins the directory. Columnar zone maps are
//!   derived from the sealed column chunks
//!   ([`crate::stats::column_derived_stats`]), row zone maps from one pass
//!   over the page's documents; either way a record is summarised once.
//! * **Finish** — [`ComponentWriter::finish`] seals the last leaf and hands
//!   the [`ComponentDescriptor`] (id, layout, stored bytes, leaf directory)
//!   to [`Component::open`], the constructor a manifest's reopen uses too.
//! * **Drop** — a writer dropped without `finish` (an error half-way through
//!   a merge, an injected crash point) frees every page it wrote.
//!
//! ## One description, folded from the leaves
//!
//! The leaf directory is the component's only description, from the writer
//! through the manifest to the reader — as in the paper, where a B+-tree
//! leaf describes itself (an APAX page header its tuple count and key
//! bounds, §4.2; an AMAX mega leaf's Page 0 its keys and column directory,
//! §4.3). A [`Component`] derives everything else once, when it is built:
//! the record count is the sum over the leaves, the key range runs from the
//! first leaf's smallest key to the last leaf's largest, the page list is
//! each leaf's page followed by its data pages (the order the writer wrote
//! them in), and the statistics are the leaves' zone maps folded with
//! [`ComponentStats::absorb`]. A field a leaf gains is added in one place.
//!
//! ## The cursor protocol: keys first, batches or rows after
//!
//! Reads are *pull-based*: a cursor loads **one leaf at a time** (one row
//! page, one APAX page, or one AMAX mega leaf) and no page is read before the
//! consumer moves past the previous leaf, so dropping a cursor early (a
//! `LIMIT`, a short-circuiting merge) leaves the remaining leaves untouched
//! and unread. A **columnar** leaf is loaded as little as possible: the key
//! column plus the columns the load was told to decode (the projection — or,
//! under a pushed filter, the filter columns alone). Everything else is
//! decided by whoever drives the cursor, on keys alone:
//!
//! * [`ComponentCursor::fill`] / [`ComponentCursor::resident_keys`] expose
//!   the resident leaf's unconsumed keys **borrowed**
//!   ([`KeyRun`]: a decoded key column, or a decoded row page, from an
//!   ordinal on) — a k-way merge reconciles a run of them at a time without
//!   assembling a record or copying a key;
//! * [`ComponentCursor::consume`] passes over entries by moving a position
//!   (§4.4's skipping): entries shadowed by newer components are never
//!   decoded into documents;
//! * [`ComponentCursor::resident_leaf`] and an entry's ordinal say *where*
//!   the entry sits, which is all a column-wise merge or a batch scan
//!   records of a reconciliation winner;
//! * [`ComponentCursor::take_entry`] assembles the entry at an ordinal from
//!   the projected columns (the row adapter, row-layout merges,
//!   re-shredding merges); a consumed entry can be taken until the next
//!   leaf is loaded. The assembler is created by the first record asked for
//!   and catches up past skipped entries in one batched advance.
//!
//! When the reconciliation has used a leaf up, [`ComponentCursor::leaf_batch`]
//! turns the ordinals it selected into a [`ColumnBatch`]:
//! the leaf's `Arc`-shared decoded chunks plus the ascending selection
//! vector, from which a consumer fetches just the columns it folds over, or
//! assembles just the selected records (see [`crate::batch`]).
//!
//! Page reads, assembly and the lane a scan took are observable through the
//! [`crate::pagestore::IoStats`] counters (`pages_read`, `records_assembled`,
//! `scan_batches`, `scan_records_kernel`). The one
//! scan front end is [`ComponentCursor`], which owns an `Arc<Component>`
//! ([`Component::cursor`]) so the LSM snapshot's scans and merges and the
//! facade's streaming scan API can hold it without a borrow. It honours
//! projection push-down: only the resolved columns of the projected paths
//! are decoded (and, for AMAX, read at all).
//!
//! ## Point lookups
//!
//! A lookup copies and assembles nothing it does not return (§4.6):
//! [`Component::lookup_sorted`] binary-searches the leaf directory, fetches
//! the leaf in the one decoded shape its layout caches, binary-searches the
//! decoded keys — every entry, anti-matter included, carries its key — and
//! then either clones that one entry out of the shared row page, or reads a
//! tombstone off definition level 0, or assembles the record at that one
//! ordinal by seeking each projected column through its chunk's lazily built
//! record-offset index ([`columnar::Assembler::record_at`]). A sorted batch
//! of keys is one forward pass per leaf. [`Component::lookup`] is the
//! batch of one. The assembly plan (schema + column tree) is shared per
//! component and column list, so a lookup does not rebuild it.
//!
//! ## Filter push-down (late materialization)
//!
//! A cursor can additionally carry a [`ScanFilter`]: a conjunction of
//! [`ColumnPredicate`] ranges over single-valued scalar paths, plus the key
//! ranges of every *older* component in the same snapshot. The contract:
//!
//! * **Only the reconciliation winner is evaluated.** The cursor never
//!   hides keys from the k-way merge on its own — a non-matching entry can
//!   still shadow an older version of its key, and dropping it before
//!   reconciliation would resurrect that stale version. The scan
//!   (`lsm::snapshot`) picks the winning source per key and skips the
//!   shadowed losers unevaluated; only then is the winner tested — one
//!   ordinal at a time by the row adapter
//!   ([`ComponentCursor::passes`]), a leaf's whole selection vector at
//!   once by the batch scan ([`ComponentCursor::leaf_batch`]). Rejections
//!   are counted in `IoStats::records_filtered_pre_assembly`.
//! * **Predicates run as loops over the filter columns.** Each predicate is
//!   lowered once per component against its schema ([`crate::batch`]): a
//!   path through objects to a scalar column becomes a forward pass over
//!   that column's definition levels and typed values; a path the schema
//!   has no column of matches nothing; only a path that crosses a union or
//!   ends at a composite has to wait for the assembled record
//!   ([`ComponentCursor::record_passes`]). A filtered leaf decodes the key
//!   and filter columns when it is loaded; the other columns are not
//!   decoded — for AMAX, their pages are not even read — until some record
//!   of the leaf survives, and a column the filter shares with the
//!   projection is not decoded again.
//! * **Zone maps hide whole components and leaves, by one rule.** Each
//!   leaf carries the same [`ComponentStats`] shape the component carries.
//!   [`zone_map_hides`] decides for both: a pushed predicate proves no
//!   record can match *and* the key range is disjoint from every older
//!   component's key range (so hiding can neither resurrect a shadowed
//!   version nor lose an anti-matter entry that still annihilates
//!   something). The cursor asks it once about the component's own stats —
//!   a hidden component skips every leaf — and otherwise about each leaf,
//!   before any page read. Every hidden leaf counts in
//!   `IoStats::leaves_skipped`.
//! * **Anti-matter always passes the filter** — it must reach the merge to
//!   annihilate older versions of its key; the snapshot scan drops it
//!   after reconciliation.
//!
//! The query planner decides what is pushable (sargable conjuncts over
//! non-repeated paths — the existential `[*]` semantics make repeated
//! paths unsafe to push) and keeps the rest as a *residual* predicate
//! evaluated on the assembled record.

use std::cmp::Ordering;
use std::collections::HashMap;
use std::ops::Bound;
use std::sync::Arc;

use columnar::{Assembler, AssemblyPlan, ColumnChunk, ColumnValues};
use docmodel::{total_cmp, Path, Value};
use encoding::{compress, DecodeError};
use parking_lot::Mutex;
use schema::{columns_of, ColumnId, ColumnSpec, Schema};
use telemetry::stage::Stage;

use crate::amax::{self, AmaxConfig};
use crate::apax;
use crate::batch::{ColumnBatch, ColumnFilter, LeafColumns, LeafFilter};
use crate::leafcache::{Cached, DecodedLeaf, LeafCacheHandle};
use crate::pagestore::{BufferCache, PageId};
use crate::rowpage;
use crate::stats::ComponentStats;
use crate::writer::ComponentWriter;
use crate::Result;

/// The four storage layouts of the evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LayoutKind {
    /// AsterixDB's schemaless row format.
    Open,
    /// The vector-based row format.
    Vb,
    /// APAX: columns as minipages inside each leaf page.
    Apax,
    /// AMAX: columns as megapages inside mega leaf nodes.
    Amax,
}

impl LayoutKind {
    /// All four layouts, in the order the paper's figures list them.
    pub const ALL: [LayoutKind; 4] = [
        LayoutKind::Open,
        LayoutKind::Vb,
        LayoutKind::Apax,
        LayoutKind::Amax,
    ];

    /// Human-readable name used in experiment output.
    pub fn name(self) -> &'static str {
        match self {
            LayoutKind::Open => "Open",
            LayoutKind::Vb => "VB",
            LayoutKind::Apax => "APAX",
            LayoutKind::Amax => "AMAX",
        }
    }

    /// `true` for the two columnar layouts.
    pub fn is_columnar(self) -> bool {
        matches!(self, LayoutKind::Apax | LayoutKind::Amax)
    }

    /// Stable numeric tag used when persisting the layout (manifests).
    pub fn tag(self) -> u8 {
        match self {
            LayoutKind::Open => 0,
            LayoutKind::Vb => 1,
            LayoutKind::Apax => 2,
            LayoutKind::Amax => 3,
        }
    }

    /// Inverse of [`LayoutKind::tag`].
    pub fn from_tag(tag: u8) -> Result<LayoutKind> {
        Ok(match tag {
            0 => LayoutKind::Open,
            1 => LayoutKind::Vb,
            2 => LayoutKind::Apax,
            3 => LayoutKind::Amax,
            other => return Err(DecodeError::new(format!("unknown layout tag {other}"))),
        })
    }
}

/// Configuration shared by component writers.
#[derive(Debug, Clone)]
pub struct ComponentConfig {
    /// Storage layout.
    pub layout: LayoutKind,
    /// AMAX-specific knobs.
    pub amax: AmaxConfig,
}

impl ComponentConfig {
    /// Default configuration for a layout.
    pub fn new(layout: LayoutKind) -> ComponentConfig {
        ComponentConfig {
            layout,
            amax: AmaxConfig::default(),
        }
    }
}

/// One entry of a component: primary key plus record, or anti-matter (`None`).
pub type Entry = (Value, Option<Value>);

/// One pushed-down range predicate over a single-valued scalar path — the
/// sargable half of a query filter, in a vocabulary the storage layer can
/// evaluate without the query crate's expression trees.
///
/// Matching is *existential*, exactly like the query layer's comparison
/// semantics: the predicate holds when **some** value at `path` falls inside
/// `[lo, hi]` under the document total order; a record without the path
/// never matches.
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnPredicate {
    /// The (non-repeated) path the predicate constrains.
    pub path: Path,
    /// Lower bound of the accepted range.
    pub lo: Bound<Value>,
    /// Upper bound of the accepted range.
    pub hi: Bound<Value>,
}

impl ColumnPredicate {
    /// Does `doc` hold a value at the path inside the range?
    pub fn matches(&self, doc: &Value) -> bool {
        self.path.any(doc, |v| self.contains(v))
    }

    /// Is `v` inside `[lo, hi]` under the document total order?
    pub fn contains(&self, v: &Value) -> bool {
        let above_lo = match &self.lo {
            Bound::Unbounded => true,
            Bound::Included(b) => total_cmp(v, b) != Ordering::Less,
            Bound::Excluded(b) => total_cmp(v, b) == Ordering::Greater,
        };
        let below_hi = match &self.hi {
            Bound::Unbounded => true,
            Bound::Included(b) => total_cmp(v, b) != Ordering::Greater,
            Bound::Excluded(b) => total_cmp(v, b) == Ordering::Less,
        };
        above_lo && below_hi
    }

    /// [`ColumnPredicate::contains`] for entry `index` of a decoded column,
    /// without building the value when the bound has the column's type.
    pub fn contains_at(&self, values: &ColumnValues, index: usize) -> bool {
        let above_lo = match &self.lo {
            Bound::Unbounded => true,
            Bound::Included(b) => values.cmp_at(index, b) != Ordering::Less,
            Bound::Excluded(b) => values.cmp_at(index, b) == Ordering::Greater,
        };
        let below_hi = match &self.hi {
            Bound::Unbounded => true,
            Bound::Included(b) => values.cmp_at(index, b) != Ordering::Greater,
            Bound::Excluded(b) => values.cmp_at(index, b) == Ordering::Less,
        };
        above_lo && below_hi
    }

    /// Do `stats` (a component's or a leaf's zone map) prove that **no**
    /// record they cover can match? True when the path was never addressed
    /// by a live record (stats track every observed path, composites
    /// included, so absence really means absence), or when its `[min, max]`
    /// bounds are disjoint from the range. Paths without usable bounds
    /// (multi-valued or composite sightings) are never provably empty.
    pub fn prove_no_match(&self, stats: &ComponentStats) -> bool {
        let Some(column) = stats.column(&self.path.to_string()) else {
            return true;
        };
        if column.values == 0 {
            return true;
        }
        let below = column
            .max
            .as_ref()
            .is_some_and(|max| match &self.lo {
                Bound::Unbounded => false,
                Bound::Included(b) => total_cmp(max, b) == Ordering::Less,
                Bound::Excluded(b) => total_cmp(max, b) != Ordering::Greater,
            });
        let above = column
            .min
            .as_ref()
            .is_some_and(|min| match &self.hi {
                Bound::Unbounded => false,
                Bound::Included(b) => total_cmp(min, b) == Ordering::Greater,
                Bound::Excluded(b) => total_cmp(min, b) != Ordering::Less,
            });
        below || above
    }
}

/// The one zone-map skip rule, for a whole component and for each of its
/// leaves alike (and for the planner's estimate of what a scan will hide):
/// may a scan under the pushed `predicates` hide the entries that `stats`
/// describe and whose keys span `keys`? Two conditions must hold:
///
/// 1. **No match** — some predicate is disproved by the stats
///    ([`ColumnPredicate::prove_no_match`]).
/// 2. **Reconciliation safety** — `keys` is disjoint from every range in
///    `older`, the key ranges of the components older than the one scanned.
///    Scans reconcile newest-first, so hiding an entry whose key an older
///    component also holds would resurrect the older, shadowed version —
///    or drop an anti-matter entry that still annihilates it. Memtables are
///    newer than every component, so they never constrain the rule.
pub fn zone_map_hides(
    predicates: &[ColumnPredicate],
    stats: &ComponentStats,
    (min_key, max_key): (&Value, &Value),
    older: &[(Value, Value)],
) -> bool {
    predicates.iter().any(|p| p.prove_no_match(stats))
        && older.iter().all(|(lo, hi)| {
            total_cmp(max_key, lo) == Ordering::Less || total_cmp(min_key, hi) == Ordering::Greater
        })
}

impl std::fmt::Display for ColumnPredicate {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if let (Bound::Included(a), Bound::Included(b)) = (&self.lo, &self.hi) {
            if a == b {
                return write!(f, "{} = {a}", self.path);
            }
        }
        let mut wrote = false;
        match &self.lo {
            Bound::Included(v) => {
                write!(f, "{} >= {v}", self.path)?;
                wrote = true;
            }
            Bound::Excluded(v) => {
                write!(f, "{} > {v}", self.path)?;
                wrote = true;
            }
            Bound::Unbounded => {}
        }
        match &self.hi {
            Bound::Included(v) => {
                if wrote {
                    write!(f, " AND ")?;
                }
                write!(f, "{} <= {v}", self.path)?;
                wrote = true;
            }
            Bound::Excluded(v) => {
                if wrote {
                    write!(f, " AND ")?;
                }
                write!(f, "{} < {v}", self.path)?;
                wrote = true;
            }
            Bound::Unbounded => {}
        }
        if !wrote {
            write!(f, "{}: any", self.path)?;
        }
        Ok(())
    }
}

/// A pushed-down scan filter handed to [`Component::cursor_filtered`]: the
/// sargable conjuncts (all must hold) plus the reconciliation-safety context
/// for zone-map leaf skipping. See the module-level filter push-down
/// contract.
#[derive(Clone)]
pub struct ScanFilter {
    /// Conjunction of pushed predicates (shared across every source of one
    /// snapshot scan).
    pub predicates: Arc<Vec<ColumnPredicate>>,
    /// `(min_key, max_key)` of every component **older** than the one being
    /// scanned — hidden or not. The component or a leaf of it may only be
    /// hidden when its key range is disjoint from all of them
    /// ([`zone_map_hides`]).
    pub older_key_ranges: Arc<Vec<(Value, Value)>>,
}

/// One leaf of a component, as the leaf directory (and the manifest) holds
/// it: where the leaf is, the keys it spans, how many entries it holds and
/// its zone map. This is the component's one description; everything the
/// component says about itself as a whole is folded from its leaves.
#[derive(Debug, Clone, PartialEq)]
pub struct LeafDescriptor {
    /// Page id of the leaf page (row or APAX) or of Page 0 (AMAX).
    pub page: PageId,
    /// Data pages of an AMAX mega leaf (empty for other layouts).
    pub data_pages: Vec<PageId>,
    /// Smallest key in the leaf.
    pub min_key: Value,
    /// Largest key in the leaf.
    pub max_key: Value,
    /// Number of entries in the leaf (records plus anti-matter).
    pub record_count: usize,
    /// Zone map over the leaf's live records, used to skip the leaf under a
    /// pushed-down filter.
    pub stats: ComponentStats,
}

/// The one description of a component: what [`ComponentWriter::finish`]
/// produces, what a manifest records, and what [`Component::open`] rebuilds
/// the handle from (the schema is persisted separately, once per manifest).
/// The record count, key range, page list and statistics are not stored:
/// [`Component`] derives them from the leaves.
#[derive(Debug, Clone, PartialEq)]
pub struct ComponentDescriptor {
    /// Monotonic component identifier (newer components have larger ids).
    pub id: u64,
    /// Storage layout of the component.
    pub layout: LayoutKind,
    /// Bytes stored on disk: the pages as written (row pages compressed).
    pub stored_bytes: u64,
    /// The component's leaves, in key order.
    pub leaves: Vec<LeafDescriptor>,
}

/// An immutable on-disk component.
///
/// Components are shared as `Arc<Component>` between the LSM tree and any
/// number of concurrent read snapshots. When a merge replaces a component it
/// calls [`Component::retire`]; the pages are then freed when the *last*
/// handle drops, so a snapshot taken before the merge can keep reading the
/// old component safely.
pub struct Component {
    desc: ComponentDescriptor,
    /// Entries over every leaf (derived).
    record_count: usize,
    /// Each leaf's page, then its data pages: the order they were written
    /// in (derived).
    pages: Vec<PageId>,
    /// The leaves' zone maps folded into one (derived).
    stats: Arc<ComponentStats>,
    schema: Schema,
    specs: HashMap<ColumnId, ColumnSpec>,
    key_spec: Option<ColumnSpec>,
    cache: BufferCache,
    free_on_drop: std::sync::atomic::AtomicBool,
    /// Assembly plans by column list, shared by every assembler this
    /// component hands out: a point lookup must not pay for a schema clone
    /// and a tree walk to assemble one record. The column list is the one a
    /// leaf actually holds (a reopened component carries the dataset's
    /// latest schema, which may name columns its leaves predate).
    plans: Mutex<HashMap<Vec<ColumnId>, Arc<AssemblyPlan>>>,
}

/// Distinct column lists a component keeps plans for before it starts over;
/// only ad-hoc projections in the hundreds could reach it.
const MAX_CACHED_PLANS: usize = 64;

/// The decoded column chunks of one columnar leaf, as cached and shared.
pub type LeafChunks = Arc<Vec<Arc<ColumnChunk>>>;

impl Drop for Component {
    /// A retired component frees its pages. A failed free is reported and
    /// dropped: the manifest no longer names the component, so slots left
    /// allocated are orphans the next open's sweep frees.
    fn drop(&mut self) {
        if *self.free_on_drop.get_mut() {
            // Free through the cache so cached copies of these ids are
            // evicted before the store recycles the slots for new pages.
            if let Err(e) = self.cache.free_pages(&self.pages) {
                eprintln!("freeing component {}'s pages failed: {e}", self.desc.id);
            }
            // The component id is dead for good (ids are never reused), so
            // its decoded leaves can never be read again — drop them now
            // rather than letting them squat on the leaf-cache budget.
            if let Some(handle) = self.cache.leaf_cache() {
                handle.invalidate_component(self.desc.id);
            }
        }
    }
}

impl Component {
    /// Monotonic component identifier (newer components have larger ids).
    pub fn id(&self) -> u64 {
        self.desc.id
    }

    /// Number of entries (records plus anti-matter): the sum over the leaves.
    pub fn record_count(&self) -> usize {
        self.record_count
    }

    /// Bytes stored on disk: the pages as written (row pages compressed).
    pub fn stored_bytes(&self) -> u64 {
        self.desc.stored_bytes
    }

    /// Every page of the component, leaf by leaf (the leaf page, then its
    /// data pages) — what a retired component frees.
    pub fn pages(&self) -> &[PageId] {
        &self.pages
    }

    /// The schema persisted with the component.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Point lookup, the batch of one of [`Component::lookup_sorted`] — the
    /// single point-read path of every layout. `Ok(None)` = key not in this
    /// component, `Ok(Some(None))` = anti-matter entry,
    /// `Ok(Some(Some(doc)))` = record.
    pub fn lookup(&self, key: &Value, projection: Option<&[Path]>) -> Result<Option<Option<Value>>> {
        Ok(self.lookup_sorted(&[key], projection)?.pop().flatten())
    }

    /// Write a component from sorted entries: a [`ComponentWriter`] fed every
    /// entry and finished.
    ///
    /// `entries` must be sorted by key with unique keys (the memtable and the
    /// merge both guarantee this); `schema` is the inferred schema snapshot
    /// to persist with the component.
    pub fn write(
        cache: &BufferCache,
        config: &ComponentConfig,
        schema: Schema,
        entries: &[Entry],
        id: u64,
    ) -> Result<Component> {
        let mut writer = ComponentWriter::new(cache, config, schema, id);
        for (key, doc) in entries {
            writer.push_entry(key, doc.as_ref())?;
        }
        writer.finish()
    }

    /// The buffer cache this component reads through — its store's
    /// [`IoStats`](crate::pagestore::IoStats) account for every page the
    /// component touches (EXPLAIN ANALYZE reads deltas from here when it
    /// only has a snapshot, not a dataset, in hand).
    pub fn cache(&self) -> &BufferCache {
        &self.cache
    }

    /// Mark the component's pages for release when the last handle drops.
    ///
    /// Called by a merge after its manifest commit has made the merged
    /// output visible: the inputs are no longer referenced by the tree, but
    /// concurrent snapshots may still read them, so the actual
    /// `free_pages` happens in [`Drop`] — once nobody can observe it.
    pub fn retire(&self) {
        self.free_on_drop
            .store(true, std::sync::atomic::Ordering::Release);
    }

    /// Describe the component for persistence in a manifest.
    pub fn describe(&self) -> ComponentDescriptor {
        self.desc.clone()
    }

    /// The handle over a component whose leaves are on disk: written just
    /// now by a [`ComponentWriter`], or described by a manifest. The pages
    /// the descriptor names must exist in `cache`'s store. The record count,
    /// page list and statistics are derived here, once.
    pub fn open(cache: &BufferCache, schema: Schema, desc: ComponentDescriptor) -> Component {
        let record_count = desc.leaves.iter().map(|leaf| leaf.record_count).sum();
        let mut pages = Vec::new();
        let mut stats = ComponentStats::default();
        for leaf in &desc.leaves {
            pages.push(leaf.page);
            pages.extend_from_slice(&leaf.data_pages);
            stats.absorb(&leaf.stats);
        }
        let specs: HashMap<ColumnId, ColumnSpec> =
            columns_of(&schema).into_iter().map(|s| (s.id, s)).collect();
        let key_spec = specs.values().find(|s| s.is_key).cloned();
        Component {
            desc,
            record_count,
            pages,
            stats: Arc::new(stats),
            schema,
            specs,
            key_spec,
            cache: cache.clone(),
            free_on_drop: std::sync::atomic::AtomicBool::new(false),
            plans: Mutex::default(),
        }
    }

    /// Number of leaves (pages for row/APAX, mega leaf nodes for AMAX).
    pub fn leaf_count(&self) -> usize {
        self.desc.leaves.len()
    }

    /// The component's primary-key range `(min, max)`, from its key-ordered
    /// leaves. `None` for an empty component. Feeds the reconciliation-safety
    /// side of leaf skipping: a newer component may hide a leaf only when the
    /// leaf's key range is disjoint from every older component's range.
    pub fn key_range(&self) -> Option<(Value, Value)> {
        let first = self.desc.leaves.first()?;
        let last = self.desc.leaves.last()?;
        Some((first.min_key.clone(), last.max_key.clone()))
    }

    /// Per-column statistics of the component (zone map + planner
    /// cardinalities): its leaves' zone maps folded with
    /// [`ComponentStats::absorb`].
    pub fn stats(&self) -> &Arc<ComponentStats> {
        &self.stats
    }

    /// An owning streaming cursor over the component (see the module-level
    /// cursor protocol): entries in key order, one leaf decoded at a time,
    /// assembling only the projected paths (`None` = every column,
    /// `Some(&[])` = keys only). Dropping the cursor early leaves the
    /// remaining leaves unread.
    pub fn cursor(self: &Arc<Self>, projection: Option<&[Path]>) -> ComponentCursor {
        self.cursor_filtered(projection, None)
    }

    /// Like [`Component::cursor`], under a pushed-down filter: the component,
    /// or each leaf, that [`zone_map_hides`] hides is skipped before any
    /// page read, a loaded leaf decodes the
    /// filter columns first, and [`ComponentCursor::passes`] /
    /// [`ComponentCursor::leaf_batch`] evaluate the predicates as column
    /// loops. See the module-level filter push-down contract.
    pub fn cursor_filtered(
        self: &Arc<Self>,
        projection: Option<&[Path]>,
        filter: Option<ScanFilter>,
    ) -> ComponentCursor {
        ComponentCursor::new(self.clone(), projection, filter)
    }

    /// Resolve a projection (list of paths) into the set of column ids to
    /// read, always including the primary-key column. `None` means all.
    pub fn projection_columns(&self, projection: Option<&[Path]>) -> Option<Vec<ColumnId>> {
        let paths = projection?;
        let mut ids: Vec<ColumnId> = Vec::new();
        if let Some(key) = &self.key_spec {
            ids.push(key.id);
        }
        for path in paths {
            if let Some(node) = self.schema.resolve_path(path) {
                for spec in self.specs.values() {
                    if is_descendant_column(&self.schema, node, spec.id) && !ids.contains(&spec.id)
                    {
                        ids.push(spec.id);
                    }
                }
            }
        }
        Some(ids)
    }

    /// Every column the component's schema names.
    pub(crate) fn column_ids(&self) -> impl Iterator<Item = ColumnId> + '_ {
        self.specs.keys().copied()
    }

    pub(crate) fn is_key_column(&self, id: ColumnId) -> bool {
        self.key_spec.as_ref().is_some_and(|key| key.id == id)
    }

    fn read_payload(&self, id: PageId) -> Result<PagePayload> {
        read_page_payload(&self.cache, id)
    }

    /// Decode the column chunks of one columnar leaf (APAX page or AMAX mega
    /// leaf), restricted to `columns` (`None` = all). The key column is
    /// decoded only when `columns` names it, so a second-stage fetch of the
    /// columns a leaf lacks decodes nothing it already holds.
    fn decode_chunks(
        &self,
        leaf: &LeafDescriptor,
        columns: Option<&[ColumnId]>,
    ) -> Result<Vec<ColumnChunk>> {
        match self.desc.layout {
            LayoutKind::Apax => {
                let payload = self.read_payload(leaf.page)?;
                let (_, chunks) = apax::decode_apax_columns(&payload, &self.specs, columns)?;
                Ok(chunks)
            }
            LayoutKind::Amax => {
                let page0 = self.read_payload(leaf.page)?;
                let header = amax::decode_amax_header(&page0)?;
                let key_spec = self
                    .key_spec
                    .as_ref()
                    .ok_or_else(|| DecodeError::new("AMAX component lacks a key column"))?;
                let wanted = |id: ColumnId| columns.is_none_or(|ids| ids.contains(&id));
                let mut chunks = Vec::new();
                if wanted(key_spec.id) {
                    chunks.push(amax::decode_amax_keys(&page0, &header, key_spec)?);
                }
                let page_budget = self.cache.store().page_size() - 64;
                let data_pages = leaf.data_pages.len();
                for loc in &header.columns {
                    if !wanted(loc.column_id) {
                        continue;
                    }
                    let Some(spec) = self.specs.get(&loc.column_id) else {
                        continue;
                    };
                    let chunk = amax::read_amax_column(loc, page_budget, data_pages, spec, |i| {
                        self.read_payload(leaf.data_pages[i])
                    })?;
                    chunks.push(chunk);
                }
                Ok(chunks)
            }
            LayoutKind::Open | LayoutKind::Vb => {
                Err(DecodeError::new("row layouts have no column chunks"))
            }
        }
    }

    /// The shared decoded-leaf cache handle, when the owning dataset
    /// attached one to this component's buffer cache.
    fn leaf_cache(&self) -> Option<&LeafCacheHandle> {
        self.cache.leaf_cache()
    }

    /// Decoded entries of one row-layout leaf, through the decoded-leaf
    /// cache when one is attached. Row pages ignore projection, so their
    /// entry always holds every column. A hit decodes nothing: no page reads
    /// and no `records_assembled`.
    fn row_entries(&self, leaf_idx: usize) -> Result<Arc<Vec<Entry>>> {
        let decode = || -> Result<Arc<Vec<Entry>>> {
            let payload = self.read_payload(self.desc.leaves[leaf_idx].page)?;
            let entries = rowpage::decode_row_page(&payload)?;
            self.cache
                .store()
                .note_records_assembled(entries.len() as u64);
            Ok(Arc::new(entries))
        };
        let Some(handle) = self.leaf_cache() else {
            return decode();
        };
        let store = self.cache.store();
        if let Cached::Hit(DecodedLeaf::Rows(entries)) = handle.get(self.desc.id, leaf_idx, None) {
            store.note_leaf_cache_hit();
            return Ok(entries);
        }
        store.note_leaf_cache_miss();
        let entries = decode()?;
        let evicted = handle.insert(
            self.desc.id,
            leaf_idx,
            None,
            DecodedLeaf::Rows(entries.clone()),
        );
        store.note_leaf_cache_evictions(evicted);
        Ok(entries)
    }

    /// Decoded column chunks of one columnar leaf, through the decoded-leaf
    /// cache when one is attached: the one place a columnar leaf is served.
    /// The leaf's entry answers when it covers `columns` (`None` = all), so
    /// the result may hold more columns than asked for —
    /// [`Component::assembler`] picks the wanted ones out. Otherwise only
    /// the columns the entry lacks are decoded and the union replaces the
    /// entry, counted as a miss.
    pub(crate) fn cached_chunks(
        &self,
        leaf_idx: usize,
        columns: Option<&[ColumnId]>,
    ) -> Result<LeafChunks> {
        let leaf = &self.desc.leaves[leaf_idx];
        let Some(handle) = self.leaf_cache() else {
            let chunks = self.decode_chunks(leaf, columns)?;
            return Ok(Arc::new(chunks.into_iter().map(Arc::new).collect()));
        };
        let store = self.cache.store();
        let (mut chunks, mut held) = match handle.get(self.desc.id, leaf_idx, columns) {
            Cached::Hit(DecodedLeaf::Chunks(chunks)) => {
                store.note_leaf_cache_hit();
                return Ok(chunks);
            }
            Cached::Partial(chunks, held) => (chunks.to_vec(), held),
            Cached::Hit(DecodedLeaf::Rows(_)) | Cached::Miss => (Vec::new(), Vec::new()),
        };
        store.note_leaf_cache_miss();
        // Only what the entry lacks: on a miss, all that was asked for.
        let lacking: Option<Vec<ColumnId>> = match columns {
            Some(ids) => Some(
                ids.iter()
                    .copied()
                    .filter(|id| !held.contains(id))
                    .collect(),
            ),
            None if held.is_empty() => None,
            None => Some(self.column_ids().filter(|id| !held.contains(id)).collect()),
        };
        chunks.extend(
            self.decode_chunks(leaf, lacking.as_deref())?
                .into_iter()
                .map(Arc::new),
        );
        let chunks = Arc::new(chunks);
        let union = columns.map(|_| {
            held.extend(lacking.unwrap_or_default());
            held
        });
        let evicted = handle.insert(
            self.desc.id,
            leaf_idx,
            union,
            DecodedLeaf::Chunks(chunks.clone()),
        );
        store.note_leaf_cache_evictions(evicted);
        Ok(chunks)
    }

    /// The shared assembly plan for a list of columns a leaf holds.
    fn plan_for(&self, columns: Vec<ColumnId>) -> Arc<AssemblyPlan> {
        let mut plans = self.plans.lock();
        if let Some(plan) = plans.get(&columns) {
            return plan.clone();
        }
        if plans.len() >= MAX_CACHED_PLANS {
            plans.clear();
        }
        let plan = Arc::new(AssemblyPlan::new(&self.schema, &columns));
        plans.insert(columns, plan.clone());
        plan
    }

    /// An [`Assembler`] over the decoded chunks of one leaf of `count`
    /// records, positioned at its first record. `wanted` is the column list
    /// the chunks were asked for: it restricts the assembler to those of the
    /// chunks it names plus the key column (`None` = all of them), which is
    /// what a decode under `wanted` would have produced. The plan is the
    /// component's shared one for the resulting column list.
    pub(crate) fn assembler(
        &self,
        chunks: &[Arc<ColumnChunk>],
        wanted: Option<&[ColumnId]>,
        count: usize,
    ) -> Assembler {
        let chunks: Vec<Arc<ColumnChunk>> = chunks
            .iter()
            .filter(|c| c.spec.is_key || wanted.is_none_or(|ids| ids.contains(&c.spec.id)))
            .cloned()
            .collect();
        let plan = self.plan_for(chunks.iter().map(|c| c.spec.id).collect());
        Assembler::with_plan(plan, chunks, count)
    }

    /// Load one leaf into a cursor buffer. Row layouts share the decoded
    /// page (the page decode materialises every entry anyway); columnar
    /// layouts decode the key column plus `eager` and defer everything else —
    /// record assembly, and the columns nobody asked for yet — so a
    /// reconciling merge can batch-skip shadowed entries without ever
    /// assembling them (§4.4) and a filtered leaf with no survivor never
    /// reads its projection columns. Both paths read through the
    /// decoded-leaf cache when one is attached.
    fn load_leaf(&self, leaf_idx: usize, eager: Option<&[ColumnId]>) -> Result<LeafBuffer> {
        if !self.desc.layout.is_columnar() {
            return Ok(LeafBuffer::Rows {
                entries: self.row_entries(leaf_idx)?,
                pos: 0,
            });
        }
        let chunks = self.cached_chunks(leaf_idx, eager)?;
        let keys = key_chunk(&chunks)?.clone();
        let count = self.desc.leaves[leaf_idx].record_count;
        if keys.values.len() != count || keys.entry_count() != count {
            return Err(DecodeError::new(format!(
                "leaf {leaf_idx} holds {} keys for {count} records",
                keys.values.len()
            )));
        }
        Ok(LeafBuffer::Columns(Box::new(ColumnLeaf {
            keys,
            columns: LeafColumns {
                chunks,
                loaded: eager.map(<[ColumnId]>::to_vec),
            },
            assembler: None,
            filter: None,
            leaf_idx,
            pos: 0,
            count,
        })))
    }

    /// Point lookups for a batch of **ascending** keys (the document total
    /// order; the order a secondary-index probe sorts its primary keys
    /// into, §4.6), one result per key: `None` = the key is not in this
    /// component, `Some(None)` = anti-matter, `Some(Some(doc))` = the record,
    /// assembled from the projected paths only (`None` = every column).
    ///
    /// Nothing is assembled, decoded or copied that is not returned: the
    /// leaf directory and each visited leaf's decoded key column are
    /// binary-searched, every leaf is fetched once and walked forward once
    /// however many of the keys it holds, and only the hits' records are
    /// assembled ([`Assembler::record_at`]) — or, for row layouts, cloned out
    /// of the shared decoded page. Leaves come through the decoded-leaf
    /// cache, one entry per leaf.
    pub fn lookup_sorted(
        &self,
        keys: &[&Value],
        projection: Option<&[Path]>,
    ) -> Result<Vec<Option<Option<Value>>>> {
        debug_assert!(
            keys.windows(2)
                .all(|w| total_cmp(w[0], w[1]) != Ordering::Greater),
            "lookup_sorted needs ascending keys"
        );
        let mut out = vec![None; keys.len()];
        // Resolved by the first leaf that may hold a key: most probes of a
        // multi-component tree miss the component's key range altogether.
        let mut columns: Option<Option<Vec<ColumnId>>> = None;
        let (mut next, mut leaf_idx) = (0, 0);
        while next < keys.len() {
            leaf_idx += self.desc.leaves[leaf_idx..]
                .partition_point(|leaf| total_cmp(&leaf.max_key, keys[next]) == Ordering::Less);
            let Some(leaf) = self.desc.leaves.get(leaf_idx) else {
                break;
            };
            // The run of keys up to this leaf's largest; those below its
            // smallest fall in the gap before it.
            let end = next
                + keys[next..]
                    .partition_point(|k| total_cmp(k, &leaf.max_key) != Ordering::Greater);
            let start = next
                + keys[next..end]
                    .partition_point(|k| total_cmp(k, &leaf.min_key) == Ordering::Less);
            if start < end {
                let columns = columns.get_or_insert_with(|| self.projection_columns(projection));
                self.lookup_in_leaf(
                    leaf_idx,
                    &keys[start..end],
                    columns.as_deref(),
                    &mut out[start..end],
                )?;
            }
            next = end;
        }
        Ok(out)
    }

    /// Resolve ascending `keys`, all within one leaf's key range, against
    /// that leaf (see [`Component::lookup_sorted`]).
    fn lookup_in_leaf(
        &self,
        leaf_idx: usize,
        keys: &[&Value],
        columns: Option<&[ColumnId]>,
        out: &mut [Option<Option<Value>>],
    ) -> Result<()> {
        // Each search starts where the previous key was found.
        let mut from = 0;
        if !self.desc.layout.is_columnar() {
            let entries = self.row_entries(leaf_idx)?;
            for (key, slot) in keys.iter().zip(out) {
                from +=
                    entries[from..].partition_point(|(k, _)| total_cmp(k, key) == Ordering::Less);
                if let Some((k, doc)) = entries.get(from) {
                    if total_cmp(k, key) == Ordering::Equal {
                        *slot = Some(doc.clone());
                    }
                }
            }
            return Ok(());
        }
        let chunks = self.cached_chunks(leaf_idx, columns)?;
        // Every entry, anti-matter included, carries its key (§3.2.3).
        let key_column = key_chunk(&chunks)?;
        let count = key_column.entry_count();
        let mut assembler: Option<Assembler> = None;
        for (key, slot) in keys.iter().zip(out) {
            let mut hi = count;
            while from < hi {
                let mid = from + (hi - from) / 2;
                if key_column.values.cmp_at(mid, key) == Ordering::Less {
                    from = mid + 1;
                } else {
                    hi = mid;
                }
            }
            if from == count || key_column.values.cmp_at(from, key) != Ordering::Equal {
                continue;
            }
            if key_column.is_antimatter(from) {
                *slot = Some(None);
                continue;
            }
            let doc = assembler
                .get_or_insert_with(|| self.assembler(&chunks, columns, count))
                .record_at(from)
                .unwrap_or_else(|| Err(DecodeError::new("leaf has fewer records than keys")))?;
            self.cache.store().note_records_assembled(1);
            *slot = Some(Some(doc));
        }
        Ok(())
    }
}

/// The primary-key chunk among a leaf's decoded chunks.
pub(crate) fn key_chunk(chunks: &[Arc<ColumnChunk>]) -> Result<&Arc<ColumnChunk>> {
    chunks
        .iter()
        .find(|c| c.spec.is_key)
        .ok_or_else(|| DecodeError::new("component page lacks the key column"))
}

/// One key, borrowed from wherever it lives — a decoded row page or memtable
/// run, or a decoded key column — so keys of different sources compare
/// without cloning one (a `String` allocation each on string-keyed
/// datasets). Only the key of an entry that is returned is ever made owned
/// ([`KeyRef::to_value`]).
#[derive(Clone, Copy)]
pub enum KeyRef<'a> {
    /// A key held as a document value.
    Value(&'a Value),
    /// Entry `.1` of a decoded key column.
    Column(&'a ColumnValues, usize),
}

impl KeyRef<'_> {
    /// Compare two keys under the document total order.
    #[inline]
    pub fn compare(&self, other: &KeyRef<'_>) -> Ordering {
        match (self, other) {
            (KeyRef::Value(a), KeyRef::Value(b)) => total_cmp(a, b),
            (KeyRef::Column(a, i), KeyRef::Value(b)) => a.cmp_at(*i, b),
            (KeyRef::Value(a), KeyRef::Column(b, j)) => b.cmp_at(*j, a).reverse(),
            (KeyRef::Column(a, i), KeyRef::Column(b, j)) => a.cmp_between(*i, b, *j),
        }
    }

    /// The key as an owned value.
    pub fn to_value(&self) -> Value {
        match self {
            KeyRef::Value(v) => (*v).clone(),
            KeyRef::Column(values, i) => values.get(*i),
        }
    }
}

/// The keys of a source's resident entries that are not consumed yet,
/// borrowed where they live: ordinals `first()..end()` of a decoded key
/// column, or of a run of documents (a decoded row page, a memtable). This
/// is what a k-way reconciliation reads — a run, not one key at a time (an
/// integer key column as one `i64` slice, [`KeyRun::ints`]) — and an
/// ordinal is how it names an entry back to its source.
#[derive(Clone, Copy)]
pub enum KeyRun<'a> {
    /// A decoded key column, from this ordinal on.
    Column(&'a ColumnChunk, usize),
    /// Entries held as documents, from this ordinal on.
    Entries(&'a [Entry], usize),
}

impl<'a> KeyRun<'a> {
    /// Ordinal of the first key of the run.
    #[inline]
    pub fn first(&self) -> usize {
        match self {
            KeyRun::Column(_, first) | KeyRun::Entries(_, first) => *first,
        }
    }

    /// One past the ordinal of the last key of the run.
    #[inline]
    pub fn end(&self) -> usize {
        match self {
            KeyRun::Column(keys, _) => keys.values.len(),
            KeyRun::Entries(entries, _) => entries.len(),
        }
    }

    /// Number of keys in the run.
    #[inline]
    pub fn len(&self) -> usize {
        self.end() - self.first()
    }

    /// `true` for a run without keys.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The key at `ordinal`.
    #[inline]
    pub fn key(&self, ordinal: usize) -> KeyRef<'a> {
        match self {
            KeyRun::Column(keys, _) => KeyRef::Column(&keys.values, ordinal),
            KeyRun::Entries(entries, _) => KeyRef::Value(&entries[ordinal].0),
        }
    }

    /// Whether the entry at `ordinal` is anti-matter.
    #[inline]
    pub fn is_antimatter(&self, ordinal: usize) -> bool {
        match self {
            KeyRun::Column(keys, _) => keys.is_antimatter(ordinal),
            KeyRun::Entries(entries, _) => entries[ordinal].1.is_none(),
        }
    }

    /// The unconsumed keys as an `i64` slice when the run is an integer key
    /// column; `None` for every other run.
    #[inline]
    pub fn ints(&self) -> Option<&'a [i64]> {
        match *self {
            KeyRun::Column(keys, first) => match &keys.values {
                ColumnValues::Int(v) => Some(&v[first..]),
                _ => None,
            },
            KeyRun::Entries(..) => None,
        }
    }

    /// How many keys of the run are `<= bound`.
    pub fn count_up_to(&self, bound: &Value) -> usize {
        let after = |ordinal: usize| match self {
            KeyRun::Column(keys, _) => keys.values.cmp_at(ordinal, bound) == Ordering::Greater,
            KeyRun::Entries(entries, _) => total_cmp(&entries[ordinal].0, bound) == Ordering::Greater,
        };
        let (mut lo, mut hi) = (self.first(), self.end());
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if after(mid) {
                hi = mid;
            } else {
                lo = mid + 1;
            }
        }
        lo - self.first()
    }
}

/// The resident leaf of a component cursor.
enum LeafBuffer {
    /// Row layouts: the decoded page, shared with the leaf cache when one is
    /// attached. An entry is copied only when it is taken.
    Rows { entries: Arc<Vec<Entry>>, pos: usize },
    /// Columnar layouts: keys decoded, everything else deferred (boxed: the
    /// assembler dwarfs the row variant).
    Columns(Box<ColumnLeaf>),
}

/// A columnar leaf under a cursor: its decoded key column, the other chunks
/// decoded so far, and the position of the next entry.
struct ColumnLeaf {
    /// The decoded key column: one definition level and one value per entry,
    /// including anti-matter (the key column stores the deleted key at
    /// definition level 0, §3.2.3).
    keys: Arc<ColumnChunk>,
    /// The chunks decoded so far: what the load asked for (the projection,
    /// or under a pushed filter just the filter columns), grown on demand by
    /// whoever needs more — what a merge copies record ranges out of, and
    /// what a scan batch folds over.
    columns: LeafColumns,
    /// Assembler over the projection columns, created by the first record
    /// the cursor is asked to assemble — under a pushed filter that is the
    /// leaf's first survivor, so a leaf whose records are all rejected never
    /// reads its other columns. It trails `pos`: skipped entries move only
    /// `pos`, and the assembler catches up in one batched skip when a record
    /// is next assembled — a consumer that never assembles never pays.
    assembler: Option<Assembler>,
    /// The pushed filter's column loops, bound by the first winner asked
    /// about one at a time ([`ComponentCursor::passes`]).
    filter: Option<LeafFilter>,
    /// Index of this leaf within the component.
    leaf_idx: usize,
    /// Next record position within the leaf.
    pos: usize,
    /// Total records in the leaf.
    count: usize,
}

impl LeafBuffer {
    fn remaining(&self) -> usize {
        match self {
            LeafBuffer::Rows { entries, pos } => entries.len() - pos,
            LeafBuffer::Columns(leaf) => leaf.count - leaf.pos,
        }
    }
}

/// A [`ScanFilter`] and its predicates lowered against one component's
/// schema.
struct PushedFilter {
    scan: ScanFilter,
    lowered: Arc<ColumnFilter>,
}

/// Streaming scan over a shared component handle: the next leaf to decode
/// and the not-yet-consumed part of the current one. One leaf is resident at
/// a time — the memory bound of the cursor protocol. It owns its
/// `Arc<Component>`, so it can be stored in long-lived pipelines (the LSM
/// snapshot's scans, the facade's streaming API) without borrowing. Created
/// by [`Component::cursor`].
pub struct ComponentCursor {
    component: Arc<Component>,
    /// Columns a record is assembled from (`None` = all): the projection,
    /// widened by the paths of pushed predicates that need the record.
    columns: Option<Vec<ColumnId>>,
    /// Columns a leaf decodes when it is loaded: the pushed filter's when
    /// there is one, the projection's otherwise.
    eager: Option<Vec<ColumnId>>,
    /// Pushed-down filter context; `None` for unfiltered cursors.
    filter: Option<PushedFilter>,
    next_leaf: usize,
    leaf: Option<LeafBuffer>,
}

impl ComponentCursor {
    fn new(
        component: Arc<Component>,
        projection: Option<&[Path]>,
        filter: Option<ScanFilter>,
    ) -> ComponentCursor {
        let mut columns = component.projection_columns(projection);
        let filter = filter.filter(|f| !f.predicates.is_empty()).map(|scan| PushedFilter {
            lowered: Arc::new(ColumnFilter::lower(
                &component.schema,
                scan.predicates.clone(),
            )),
            scan,
        });
        let mut eager = columns.clone();
        if let Some(filter) = &filter {
            let mut first = component.projection_columns(Some(&[])).unwrap_or_default();
            first.extend(filter.lowered.columns());
            eager = Some(first);
            columns = component.assembly_columns(projection, Some(&filter.lowered));
        }
        ComponentCursor {
            component,
            columns,
            eager,
            filter,
            next_leaf: 0,
            leaf: None,
        }
    }

    /// Entries resident from the current leaf but not yet consumed — the
    /// cursor's live memory footprint, in records. At most one leaf's worth.
    pub fn buffered(&self) -> usize {
        self.leaf.as_ref().map_or(0, LeafBuffer::remaining)
    }

    /// Make the next entry resident, loading the next leaf when the current
    /// one is drained. Under a pushed-down filter, what [`zone_map_hides`]
    /// hides — the whole component, or one leaf at a time — is skipped
    /// without any page read. `Ok(false)` = exhausted. The drained leaf stays
    /// resident until its successor is asked for.
    #[inline]
    pub fn fill(&mut self) -> Result<bool> {
        if self.leaf.as_ref().is_some_and(|l| l.remaining() > 0) {
            return Ok(true);
        }
        self.load_next_leaf()
    }

    fn load_next_leaf(&mut self) -> Result<bool> {
        let component = &self.component;
        let leaves = &component.desc.leaves;
        loop {
            if self.leaf.as_ref().is_some_and(|l| l.remaining() > 0) {
                return Ok(true);
            }
            if self.next_leaf >= leaves.len() {
                self.leaf = None;
                return Ok(false);
            }
            let leaf_idx = self.next_leaf;
            self.next_leaf += 1;
            if let Some(filter) = &self.filter {
                let (predicates, older) = (&filter.scan.predicates, &filter.scan.older_key_ranges);
                // The component's own zone map first: when it hides the
                // component, every one of its leaves counts as skipped.
                let component_hidden = leaf_idx == 0 && {
                    let keys = (&leaves[0].min_key, &leaves[leaves.len() - 1].max_key);
                    zone_map_hides(predicates, &component.stats, keys, older)
                };
                if component_hidden {
                    self.next_leaf = leaves.len();
                    component.cache.store().note_leaves_skipped(leaves.len() as u64);
                    continue;
                }
                let leaf = &leaves[leaf_idx];
                let keys = (&leaf.min_key, &leaf.max_key);
                if zone_map_hides(predicates, &leaf.stats, keys, older) {
                    component.cache.store().note_leaves_skipped(1);
                    continue;
                }
            }
            self.leaf = Some(component.load_leaf(leaf_idx, self.eager.as_deref())?);
        }
    }

    /// The keys of the resident leaf's unconsumed entries, borrowed — no
    /// record is assembled and no key is copied. `None` until
    /// [`ComponentCursor::fill`] made an entry resident (and once the cursor
    /// is exhausted). This is what the LSM merge-reconcile cursor
    /// reconciles, a run at a time.
    #[inline]
    pub fn resident_keys(&self) -> Option<KeyRun<'_>> {
        let run = match self.leaf.as_ref()? {
            LeafBuffer::Rows { entries, pos } => KeyRun::Entries(entries, *pos),
            LeafBuffer::Columns(leaf) => KeyRun::Column(&leaf.keys, leaf.pos),
        };
        (!run.is_empty()).then_some(run)
    }

    /// Consume the next `n` resident entries without assembling them
    /// (§4.4's batched skip: a columnar leaf only moves its position, and
    /// the column cursors catch up in one batched advance
    /// ([`columnar::Assembler::skip_records`]) if a later record is ever
    /// assembled). They are still there to be taken
    /// ([`ComponentCursor::take_entry`]) until the next leaf is loaded.
    #[inline]
    pub fn consume(&mut self, n: usize) {
        match self.leaf.as_mut() {
            Some(LeafBuffer::Rows { pos, .. }) => *pos += n,
            Some(LeafBuffer::Columns(leaf)) => leaf.pos += n,
            None => debug_assert_eq!(n, 0, "nothing is resident"),
        }
    }

    /// The entry at `ordinal` of the resident leaf — consumed or not, taken
    /// in ascending ordinal order and each at most once — assembled from the
    /// projected columns, or copied out of the shared row page.
    pub fn take_entry(&mut self, ordinal: usize) -> Result<Entry> {
        let columns = self.columns.as_deref();
        let component = &self.component;
        match self.leaf.as_mut().expect("a leaf is resident") {
            LeafBuffer::Rows { entries, .. } => {
                // Uncached datasets hold the only reference and move the
                // entry out; a cached page is shared and copied from.
                Ok(match Arc::get_mut(entries) {
                    Some(own) => std::mem::take(&mut own[ordinal]),
                    None => entries[ordinal].clone(),
                })
            }
            LeafBuffer::Columns(leaf) => {
                if leaf.assembler.is_none() {
                    // The first record assembled from this leaf: decode
                    // whatever of the projection the load left out.
                    component.load_more(leaf.leaf_idx, &mut leaf.columns, columns)?;
                    leaf.assembler =
                        Some(component.assembler(&leaf.columns.chunks, columns, leaf.count));
                }
                let assembler = leaf.assembler.as_mut().expect("assembler created above");
                // Catch up past the entries skipped since the last assembly.
                let assembled_to = leaf.count - assembler.records_remaining();
                debug_assert!(ordinal >= assembled_to, "entries are taken in order");
                assembler.skip_records(ordinal - assembled_to);
                let doc = assembler
                    .next_record()
                    .unwrap_or_else(|| Err(DecodeError::new("assembler ended early")))?;
                component.cache.store().note_records_assembled(1);
                let key = leaf.keys.values.get(ordinal);
                Ok((key, (!leaf.keys.is_antimatter(ordinal)).then_some(doc)))
            }
        }
    }

    /// The entry at `ordinal` of a resident **row-layout** leaf, in place
    /// (`None` for columnar layouts): lets a scan test a document before
    /// copying it.
    pub fn entry(&self, ordinal: usize) -> Option<&Entry> {
        match self.leaf.as_ref()? {
            LeafBuffer::Rows { entries, .. } => entries.get(ordinal),
            LeafBuffer::Columns(_) => None,
        }
    }

    /// Index of the resident leaf when it is columnar; `None` for row
    /// layouts and when no leaf is resident. Together with
    /// [`ComponentCursor::leaf_chunks`] this is the read half of a
    /// column-wise merge (§4.4) and of a batch scan: a winner's ordinal is
    /// recorded, and its columns are copied — or folded over — later.
    pub fn resident_leaf(&self) -> Option<usize> {
        match self.leaf.as_ref()? {
            LeafBuffer::Columns(leaf) => Some(leaf.leaf_idx),
            LeafBuffer::Rows { .. } => None,
        }
    }

    /// The decoded chunks of the resident columnar leaf (every column the
    /// cursor's projection loads; all of them for an unprojected cursor).
    pub fn leaf_chunks(&self) -> Option<&LeafChunks> {
        match self.leaf.as_ref()? {
            LeafBuffer::Columns(leaf) => Some(&leaf.columns.chunks),
            LeafBuffer::Rows { .. } => None,
        }
    }

    /// Does the entry at `ordinal` of the resident leaf pass the pushed
    /// filter ([`ScanFilter`]) as far as columns can tell? Asked in
    /// ascending ordinal order. The predicates run as loops over the filter
    /// columns at the entry's ordinal — nothing is assembled. Anti-matter
    /// always passes (it must reach the merge to annihilate), and so do
    /// row-layout entries and cursors without a filter; a survivor must
    /// still pass [`ComponentCursor::record_passes`] once assembled.
    ///
    /// The row adapter asks this **only for the reconciliation winner** of
    /// a key, after the shadowed losers were consumed — evaluating a loser
    /// would let a stale value filter (or admit) a live record.
    pub fn passes(&mut self, ordinal: usize) -> bool {
        let Some(lowered) = self.filter.as_ref().map(|f| &f.lowered) else {
            return true;
        };
        match self.leaf.as_mut() {
            Some(LeafBuffer::Columns(leaf)) => {
                leaf.keys.is_antimatter(ordinal) || {
                    let chunks = &leaf.columns.chunks;
                    leaf.filter
                        .get_or_insert_with(|| lowered.bind(chunks))
                        .matches(lowered, ordinal)
                }
            }
            _ => true,
        }
    }

    /// Does an assembled record pass the pushed predicates that no column
    /// loop could decide (paths through unions, composite values)? The
    /// cursor's projection is widened to cover their paths.
    pub fn record_passes(&self, doc: &Value) -> bool {
        self.filter
            .as_ref()
            .is_none_or(|f| f.lowered.record_passes(doc))
    }

    /// Count one consumed entry as a pushed-filter rejection
    /// (`records_filtered_pre_assembly` in [`crate::pagestore::IoStats`]).
    pub fn note_filtered(&self) {
        self.component
            .cache
            .store()
            .note_records_filtered_pre_assembly(1);
    }

    /// The resident columnar leaf as a [`ColumnBatch`] over `selection` —
    /// ascending ordinals of live entries of that leaf, typically the
    /// reconciliation winners a scan skipped past. The pushed filter's
    /// column loops narrow the selection. `None` for row layouts and when no
    /// leaf is resident. A drained leaf stays resident until the cursor is
    /// next filled, which is when a scan collects its batch.
    pub fn leaf_batch(&self, selection: Vec<u32>) -> Option<ColumnBatch> {
        let LeafBuffer::Columns(leaf) = self.leaf.as_ref()? else {
            return None;
        };
        Some(ColumnBatch::new(
            self.component.clone(),
            leaf.leaf_idx,
            leaf.count,
            LeafColumns {
                chunks: leaf.columns.chunks.clone(),
                loaded: leaf.columns.loaded.clone(),
            },
            selection,
            self.filter.as_ref().map(|f| f.lowered.clone()),
        ))
    }
}

impl Iterator for ComponentCursor {
    type Item = Result<Entry>;

    fn next(&mut self) -> Option<Self::Item> {
        match self.fill() {
            Ok(true) => {}
            Ok(false) => return None,
            Err(e) => return Some(Err(e)),
        }
        let ordinal = self.resident_keys()?.first();
        let entry = self.take_entry(ordinal);
        self.consume(1);
        Some(entry)
    }
}

fn is_descendant_column(schema: &Schema, ancestor: schema::NodeId, column: ColumnId) -> bool {
    use schema::node::SchemaNode;
    if ancestor == column {
        return matches!(schema.node(ancestor), SchemaNode::Atomic { .. });
    }
    match schema.node(ancestor) {
        SchemaNode::Atomic { .. } => false,
        SchemaNode::Object { fields } => fields
            .iter()
            .any(|(_, c)| is_descendant_column(schema, *c, column)),
        SchemaNode::Array { item } => item
            .map(|c| is_descendant_column(schema, c, column))
            .unwrap_or(false),
        SchemaNode::Union { branches } => branches
            .iter()
            .any(|(_, c)| is_descendant_column(schema, *c, column)),
    }
}

// ---------------------------------------------------------------------------
// Page helpers.
// ---------------------------------------------------------------------------

/// Write one page payload behind a one-byte flag: `0` = stored as written,
/// `1` = LZ-compressed whole. Returns the page id and the stored size, or
/// the backend's error when the page could not be written.
///
/// `compress` is the layout's rule, applied by the writer: a row page is
/// compressed (and kept raw only when compression would not make it
/// smaller); a columnar page is stored as written, because its chunks carry
/// their own codecs — unless a leaf of one record does not fit the page
/// budget raw, the one case where LZ over the page still has to make room.
pub fn write_page(
    cache: &BufferCache,
    payload: Vec<u8>,
    compress: bool,
) -> Result<(PageId, usize)> {
    let (compressed, bytes) = if compress {
        compress::compress_if_smaller(&payload)
    } else {
        (false, payload)
    };
    let mut page = Vec::with_capacity(bytes.len() + 1);
    page.push(u8::from(compressed));
    page.extend_from_slice(&bytes);
    let len = page.len();
    let _stage = Stage::PageWrite.enter();
    Ok((cache.append_page(page)?, len))
}

/// A page's payload as [`read_page_payload`] returns it: for a page stored
/// as written, the cached page itself past its flag byte — shared, not
/// copied, so chunks decode straight out of the buffer cache; for an LZ'd
/// page, the decompressed bytes.
#[derive(Debug)]
pub struct PagePayload {
    page: Arc<Vec<u8>>,
    start: usize,
}

impl std::ops::Deref for PagePayload {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        &self.page[self.start..]
    }
}

impl AsRef<[u8]> for PagePayload {
    fn as_ref(&self) -> &[u8] {
        self
    }
}

/// Read a page payload written by [`write_page`]. Any flag other than `0`
/// or `1` is damage, not an uncompressed page.
pub fn read_page_payload(cache: &BufferCache, id: PageId) -> Result<PagePayload> {
    let page = {
        let _stage = Stage::PageRead.enter();
        cache.read_page(id)?
    };
    match page.first() {
        None => Err(DecodeError::new("empty page")),
        Some(0) => Ok(PagePayload { page, start: 1 }),
        Some(1) => {
            let _stage = Stage::Decompress.enter();
            let bytes = compress::decompress(&page[1..])?;
            Ok(PagePayload { page: Arc::new(bytes), start: 0 })
        }
        Some(other) => Err(DecodeError::new(format!("page {id} has unknown flag {other}"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pagestore::PageStore;
    use docmodel::doc;
    use schema::SchemaBuilder;

    fn records(n: i64) -> Vec<Entry> {
        (0..n)
            .map(|i| {
                let doc = doc!({
                    "id": i,
                    "user": {"name": (format!("user{}", i % 17)), "verified": (i % 3 == 0)},
                    "text": (format!("message number {i} with a reasonable amount of text content")),
                    "likes": (i * 13 % 100),
                    "tags": [(format!("t{}", i % 5)), (format!("t{}", i % 7))]
                });
                (Value::Int(i), Some(doc))
            })
            .collect()
    }

    fn schema_for(entries: &[Entry]) -> Schema {
        let mut b = SchemaBuilder::new(Some("id".to_string()));
        for (_, doc) in entries {
            if let Some(doc) = doc {
                b.observe(doc);
            }
        }
        b.into_schema()
    }

    fn small_cache() -> BufferCache {
        BufferCache::new(PageStore::with_page_size(4096), 64)
    }

    #[test]
    fn write_and_scan_all_layouts() {
        let entries = records(300);
        let schema = schema_for(&entries);
        for layout in LayoutKind::ALL {
            let cache = small_cache();
            let config = ComponentConfig::new(layout);
            let comp = Arc::new(Component::write(&cache, &config, schema.clone(), &entries, 1).unwrap());
            assert_eq!(comp.record_count(), 300, "{layout:?}");
            assert!(comp.leaf_count() > 0);
            assert!(comp.stored_bytes() > 0);

            let scanned: Vec<Entry> = comp.cursor(None).map(|e| e.unwrap()).collect();
            assert_eq!(scanned.len(), 300, "{layout:?}");
            for (i, (key, doc)) in scanned.iter().enumerate() {
                assert_eq!(key, &Value::Int(i as i64), "{layout:?}");
                let doc = doc.as_ref().unwrap();
                assert_eq!(doc.get_field("id"), Some(&Value::Int(i as i64)));
                assert!(doc.get_path_str("user.name").is_some(), "{layout:?}");
                assert_eq!(doc.get_field("tags").unwrap().as_array().unwrap().len(), 2);
            }
        }
    }

    #[test]
    fn component_is_shareable_across_threads() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Component>();
    }

    #[test]
    fn retired_component_frees_pages_only_on_last_drop() {
        let entries = records(100);
        let schema = schema_for(&entries);
        let cache = small_cache();
        let config = ComponentConfig::new(LayoutKind::Amax);
        let comp = std::sync::Arc::new(
            Component::write(&cache, &config, schema, &entries, 1).unwrap(),
        );
        let pages = comp.pages().to_vec();
        let snapshot_handle = comp.clone();

        // Retire + drop the tree's handle: a concurrent snapshot still holds
        // the component, so the pages must remain readable.
        comp.retire();
        drop(comp);
        assert!(!cache.store().read_page(pages[0]).unwrap().is_empty());
        let scanned: Vec<Entry> = snapshot_handle.cursor(None).map(|e| e.unwrap()).collect();
        assert_eq!(scanned.len(), 100);

        // The last handle drops: now the pages are released.
        drop(snapshot_handle);
        for &page in &pages {
            assert!(cache.store().read_page(page).unwrap().is_empty(), "page {page}");
        }
    }

    #[test]
    fn unretired_component_keeps_pages_on_drop() {
        let entries = records(50);
        let schema = schema_for(&entries);
        let cache = small_cache();
        let config = ComponentConfig::new(LayoutKind::Vb);
        let comp = Component::write(&cache, &config, schema, &entries, 1).unwrap();
        let pages = comp.pages().to_vec();
        drop(comp);
        assert!(!cache.store().read_page(pages[0]).unwrap().is_empty());
    }

    #[test]
    fn lookup_and_antimatter_roundtrip() {
        let mut entries = records(100);
        entries[50].1 = None; // anti-matter for key 50
        let schema = schema_for(&entries);
        for layout in LayoutKind::ALL {
            let cache = small_cache();
            let comp =
                Component::write(&cache, &ComponentConfig::new(layout), schema.clone(), &entries, 1)
                    .unwrap();
            let hit = comp.lookup(&Value::Int(10), None).unwrap().unwrap();
            assert_eq!(hit.unwrap().get_field("id"), Some(&Value::Int(10)));
            let tomb = comp.lookup(&Value::Int(50), None).unwrap();
            assert_eq!(tomb, Some(None), "{layout:?}");
            assert_eq!(comp.lookup(&Value::Int(5000), None).unwrap(), None);
        }
    }

    #[test]
    fn amax_projection_reads_fewer_pages_than_full_scan() {
        let entries = records(2000);
        let schema = schema_for(&entries);
        let cache = small_cache();
        let comp = Arc::new(Component::write(
            &cache,
            &ComponentConfig::new(LayoutKind::Amax),
            schema.clone(),
            &entries,
            1,
        )
        .unwrap());

        cache.clear();
        cache.store().reset_stats();
        let keys_only: Vec<_> = comp.cursor(Some(&[])).collect();
        assert_eq!(keys_only.len(), 2000);
        let count_reads = cache.store().stats().pages_read;

        cache.clear();
        cache.store().reset_stats();
        let full: Vec<_> = comp.cursor(None).collect();
        assert_eq!(full.len(), 2000);
        let full_reads = cache.store().stats().pages_read;

        assert!(
            count_reads < full_reads,
            "keys-only scan ({count_reads} pages) should read fewer pages than full scan ({full_reads})"
        );
    }

    #[test]
    fn apax_projection_reads_same_pages_but_decodes_less() {
        let entries = records(2000);
        let schema = schema_for(&entries);
        let cache = small_cache();
        let comp = Arc::new(Component::write(
            &cache,
            &ComponentConfig::new(LayoutKind::Apax),
            schema.clone(),
            &entries,
            1,
        )
        .unwrap());
        cache.clear();
        cache.store().reset_stats();
        let keys_only: Vec<_> = comp.cursor(Some(&[])).collect();
        let count_reads = cache.store().stats().pages_read;
        cache.clear();
        cache.store().reset_stats();
        let full: Vec<_> = comp.cursor(None).collect();
        let full_reads = cache.store().stats().pages_read;
        assert_eq!(keys_only.len(), full.len());
        // APAX reads every page either way: columns share the leaf pages.
        assert_eq!(count_reads, full_reads);
    }

    #[test]
    fn columnar_layouts_are_smaller_on_numeric_data() {
        // Mirrors the sensors result (Figure 12a): encoded numeric columns
        // beat row formats by a wide margin.
        let entries: Vec<Entry> = (0..4000i64)
            .map(|i| {
                (
                    Value::Int(i),
                    Some(doc!({
                        "id": i,
                        "sensor_id": (i % 50),
                        "ts": (1_600_000_000_000i64 + i * 1000),
                        "temp": (((i % 40) as f64) * 0.5),
                        "battery": (i % 100)
                    })),
                )
            })
            .collect();
        let schema = schema_for(&entries);
        let mut sizes = HashMap::new();
        for layout in LayoutKind::ALL {
            let cache = small_cache();
            let comp =
                Component::write(&cache, &ComponentConfig::new(layout), schema.clone(), &entries, 1)
                    .unwrap();
            sizes.insert(layout, comp.stored_bytes());
        }
        assert!(sizes[&LayoutKind::Amax] < sizes[&LayoutKind::Vb]);
        assert!(sizes[&LayoutKind::Apax] < sizes[&LayoutKind::Open]);
        assert!(sizes[&LayoutKind::Vb] <= sizes[&LayoutKind::Open]);
    }

    #[test]
    fn describe_open_roundtrip_preserves_reads() {
        let mut entries = records(200);
        entries[13].1 = None; // include anti-matter
        let schema = schema_for(&entries);
        for layout in LayoutKind::ALL {
            let cache = small_cache();
            let config = ComponentConfig::new(layout);
            let comp = Arc::new(Component::write(&cache, &config, schema.clone(), &entries, 3).unwrap());
            let desc = comp.describe();
            assert_eq!(desc.layout, layout);
            let (pages, stats) = (comp.pages().to_vec(), comp.stats().clone());
            drop(comp);

            // Reopen from the descriptor (as recovery does from a manifest):
            // what the component derives from its leaves is what was written.
            let reopened = Arc::new(Component::open(&cache, schema.clone(), desc.clone()));
            assert_eq!(reopened.describe(), desc, "{layout:?}");
            assert_eq!(reopened.record_count(), 200, "{layout:?}");
            assert_eq!(reopened.pages(), pages, "{layout:?}");
            assert_eq!(reopened.stats(), &stats, "{layout:?}");
            assert_eq!(reopened.key_range(), Some((Value::Int(0), Value::Int(199))));
            let scanned: Vec<Entry> =
                reopened.cursor(None).map(|e| e.unwrap()).collect();
            assert_eq!(scanned.len(), 200, "{layout:?}");
            assert_eq!(scanned, entries, "{layout:?}");
            assert_eq!(reopened.lookup(&Value::Int(13), None).unwrap(), Some(None));
        }
    }

    #[test]
    fn dropping_a_cursor_early_leaves_later_leaves_unread() {
        let entries = records(2000);
        let schema = schema_for(&entries);
        for layout in LayoutKind::ALL {
            let cache = small_cache();
            let mut config = ComponentConfig::new(layout);
            // AMAX's default record limit packs everything into one mega
            // leaf; shrink it so the component has several leaves to skip.
            config.amax.record_limit = 256;
            let comp = std::sync::Arc::new(
                Component::write(&cache, &config, schema.clone(), &entries, 1).unwrap(),
            );
            assert!(comp.leaf_count() > 1, "{layout:?} needs several leaves");

            cache.clear();
            cache.store().reset_stats();
            let full = comp.cursor(None).count();
            assert_eq!(full, 2000, "{layout:?}");
            let full_reads = cache.store().stats().pages_read;

            cache.clear();
            cache.store().reset_stats();
            let mut cursor = comp.cursor(None);
            let first = cursor.next().unwrap().unwrap();
            assert_eq!(first.0, Value::Int(0), "{layout:?}");
            assert!(cursor.buffered() > 0, "{layout:?}: one leaf resident");
            drop(cursor);
            let early_reads = cache.store().stats().pages_read;
            assert!(
                early_reads < full_reads,
                "{layout:?}: early drop read {early_reads} pages, full scan {full_reads}"
            );
        }
    }

    /// The reassembly caveat recorded in the ROADMAP: an **empty array**
    /// survives columnar reassembly only when some record in the same
    /// component materialised the array's item column. A lone `{"tags": []}`
    /// record produces no `tags[*]` column at all (the schema has no item
    /// node to shred into), so reassembly cannot distinguish "empty array"
    /// from "absent field" and `EXISTS(tags)` on it is schema-dependent. See
    /// the note next to the assembly automaton in `columnar::assemble`.
    #[test]
    fn empty_array_reassembly_is_schema_dependent() {
        let schema_of = |entries: &[Entry]| schema_for(entries);
        for layout in [LayoutKind::Apax, LayoutKind::Amax] {
            // Alone: no record ever materialised a `tags` element, the
            // column does not exist, and the empty array is lost.
            let lone: Vec<Entry> = vec![(
                Value::Int(0),
                Some(doc!({"id": 0, "tags": []})),
            )];
            let cache = small_cache();
            let comp = Arc::new(Component::write(
                &cache,
                &ComponentConfig::new(layout),
                schema_of(&lone),
                &lone,
                1,
            )
            .unwrap());
            let scanned: Vec<Entry> = comp.cursor(None).map(|e| e.unwrap()).collect();
            let doc = scanned[0].1.as_ref().unwrap();
            assert_eq!(doc.get_field("tags"), None, "{layout:?}: empty array lost");

            // With a sibling record that materialises `tags[*]`, the item
            // column exists and the empty array round-trips.
            let pair: Vec<Entry> = vec![
                (Value::Int(0), Some(doc!({"id": 0, "tags": []}))),
                (Value::Int(1), Some(doc!({"id": 1, "tags": ["x"]}))),
            ];
            let cache = small_cache();
            let comp = Arc::new(Component::write(
                &cache,
                &ComponentConfig::new(layout),
                schema_of(&pair),
                &pair,
                1,
            )
            .unwrap());
            let scanned: Vec<Entry> = comp.cursor(None).map(|e| e.unwrap()).collect();
            let doc = scanned[0].1.as_ref().unwrap();
            assert_eq!(
                doc.get_field("tags"),
                Some(&Value::Array(Vec::new())),
                "{layout:?}: empty array preserved once the column exists"
            );
        }
    }

    /// §4.4's batched skip: peeking keys and skipping entries on a columnar
    /// cursor must not assemble the skipped records — only the pulled ones
    /// count in [`crate::pagestore::IoStats::records_assembled`].
    #[test]
    fn skipping_columnar_entries_avoids_assembly() {
        let entries = records(1000);
        let schema = schema_for(&entries);
        for layout in [LayoutKind::Apax, LayoutKind::Amax] {
            let cache = small_cache();
            let mut config = ComponentConfig::new(layout);
            config.amax.record_limit = 256;
            let comp = std::sync::Arc::new(
                Component::write(&cache, &config, schema.clone(), &entries, 1).unwrap(),
            );

            cache.store().reset_stats();
            let mut cursor = comp.cursor(None);
            let mut assembled = 0usize;
            let mut seen = 0usize;
            while cursor.fill().unwrap() {
                let run = cursor.resident_keys().unwrap();
                let key = run.key(run.first()).to_value();
                // Peeking alone assembles nothing.
                assert_eq!(key, Value::Int(seen as i64), "{layout:?}");
                if seen.is_multiple_of(2) {
                    let (k, doc) = cursor.next().unwrap().unwrap();
                    assert_eq!(k, key, "{layout:?}");
                    assert!(doc.is_some(), "{layout:?}");
                    assembled += 1;
                } else {
                    cursor.consume(1);
                }
                seen += 1;
            }
            assert_eq!(seen, 1000, "{layout:?}");
            assert_eq!(
                cache.store().stats().records_assembled,
                assembled as u64,
                "{layout:?}: skipped entries must not be assembled"
            );
        }
    }

    /// The page flag is `0` (raw) or `1` (compressed); any other value is
    /// damage and must surface as an error, not as garbage bytes. A raw
    /// page's payload is the cached page itself.
    #[test]
    fn unknown_page_flags_are_errors() {
        let cache = small_cache();
        for payload in [vec![7u8; 600], (0..=255u8).collect::<Vec<u8>>()] {
            for compress in [true, false] {
                let (page, stored) = write_page(&cache, payload.clone(), compress).unwrap();
                let read = read_page_payload(&cache, page).unwrap();
                assert_eq!(*read, payload[..]);
                let raw = cache.read_page(page).unwrap();
                assert_eq!(raw.len(), stored);
                if raw[0] == 0 {
                    assert!(std::ptr::eq(&raw[1..], &*read), "a raw page is not copied");
                }
                for flag in 2..=255u8 {
                    let mut bad = raw.to_vec();
                    bad[0] = flag;
                    let id = cache.append_page(bad).unwrap();
                    assert!(read_page_payload(&cache, id).is_err(), "flag {flag}");
                }
            }
            assert_eq!(
                write_page(&cache, payload.clone(), false).unwrap().1,
                payload.len() + 1
            );
        }
    }

    /// Page 0's directory is damage that can be re-sealed behind a valid
    /// page CRC. An entry whose offset passes the page budget (once an
    /// underflow), whose start page passes the leaf's data pages (once an
    /// out-of-bounds index) or whose length is 2^45 (once a reservation
    /// that aborted) fails a scan and a lookup with an error.
    #[test]
    fn forged_amax_directories_are_errors_not_panics() {
        let entries = records(200);
        let schema = schema_for(&entries);
        let cache = small_cache();
        let config = ComponentConfig::new(LayoutKind::Amax);
        let comp = Component::write(&cache, &config, schema.clone(), &entries, 1).unwrap();
        let desc = comp.describe();
        let leaf = &desc.leaves[0];
        let page0 = read_page_payload(&cache, leaf.page).unwrap();
        let header = amax::decode_amax_header(&page0).unwrap();
        let (budget, data_pages) = (cache.store().page_size() - 64, leaf.data_pages.len());
        let forgeries: [fn(&mut amax::AmaxColumnLocation, usize, usize); 3] = [
            |loc, budget, _| loc.start_offset = budget + 1,
            |loc, _, data_pages| loc.start_page = data_pages,
            |loc, _, _| loc.len = 1 << 45,
        ];
        for forge in forgeries {
            let mut columns = header.columns.clone();
            for loc in &mut columns {
                forge(loc, budget, data_pages);
            }
            let mut forged = Vec::new();
            amax::encode_amax_header(header.record_count, &columns, &mut forged);
            forged.extend_from_slice(&page0[header.key_chunk_offset..]);
            let mut desc = desc.clone();
            desc.leaves[0].page = write_page(&cache, forged, false).unwrap().0;
            let forged = Arc::new(Component::open(&cache, schema.clone(), desc));
            assert!(forged.cursor(None).any(|entry| entry.is_err()));
            assert!(forged.lookup(&Value::Int(5), None).is_err());
        }
    }

    #[test]
    fn layout_tags_roundtrip() {
        for layout in LayoutKind::ALL {
            assert_eq!(LayoutKind::from_tag(layout.tag()).unwrap(), layout);
        }
        assert!(LayoutKind::from_tag(9).is_err());
    }

    #[test]
    fn projection_columns_resolve_paths() {
        let entries = records(10);
        let schema = schema_for(&entries);
        let cache = small_cache();
        let comp = Component::write(
            &cache,
            &ComponentConfig::new(LayoutKind::Amax),
            schema,
            &entries,
            7,
        )
        .unwrap();
        let cols = comp
            .projection_columns(Some(&[Path::parse("user.name"), Path::parse("likes")]))
            .unwrap();
        // key + user.name + likes
        assert_eq!(cols.len(), 3);
        assert!(comp.projection_columns(None).is_none());
        let empty = comp.projection_columns(Some(&[])).unwrap();
        assert_eq!(empty.len(), 1); // just the key
    }

    fn leaf_cached_cache() -> (BufferCache, Arc<crate::leafcache::LeafCache>) {
        let leaf_cache = Arc::new(crate::leafcache::LeafCache::new(8 << 20));
        let cache = BufferCache::new(PageStore::with_page_size(4096), 64)
            .with_leaf_cache(leaf_cache.handle());
        (cache, leaf_cache)
    }

    #[test]
    fn warm_rescan_reads_zero_pages_in_every_layout() {
        let entries = records(300);
        let schema = schema_for(&entries);
        for layout in LayoutKind::ALL {
            let (cache, leaf_cache) = leaf_cached_cache();
            let config = ComponentConfig::new(layout);
            let comp = Arc::new(Component::write(&cache, &config, schema.clone(), &entries, 1).unwrap());

            // Cold scan: every leaf misses and is decoded from pages.
            cache.clear();
            cache.store().reset_stats();
            let cold: Vec<Entry> = comp.cursor(None).map(|e| e.unwrap()).collect();
            let cold_stats = cache.store().stats();
            assert_eq!(cold_stats.leaf_cache_hits, 0, "{layout:?}");
            assert_eq!(
                cold_stats.leaf_cache_misses,
                comp.leaf_count() as u64,
                "{layout:?}"
            );
            assert!(cold_stats.pages_read > 0, "{layout:?}");

            // Warm scan: all leaves hit — zero pages read, zero decodes, and
            // (for row layouts) zero records assembled.
            cache.clear(); // page cache cleared: hits must come from the leaf cache
            cache.store().reset_stats();
            let warm: Vec<Entry> = comp.cursor(None).map(|e| e.unwrap()).collect();
            assert_eq!(cold, warm, "{layout:?}");
            let warm_stats = cache.store().stats();
            assert_eq!(warm_stats.pages_read, 0, "{layout:?}");
            assert_eq!(
                warm_stats.leaf_cache_hits,
                comp.leaf_count() as u64,
                "{layout:?}"
            );
            assert_eq!(warm_stats.leaf_cache_misses, 0, "{layout:?}");
            assert!(leaf_cache.resident_bytes() > 0, "{layout:?}");
        }
    }

    /// The point-read contract: a lookup served from the decoded-leaf cache
    /// reads no page and assembles at most the one record it returns.
    #[test]
    fn warm_lookup_reads_no_pages_and_assembles_one_record() {
        let entries = records(200);
        let schema = schema_for(&entries);
        for layout in LayoutKind::ALL {
            let (cache, _leaf_cache) = leaf_cached_cache();
            let config = ComponentConfig::new(layout);
            let comp = Component::write(&cache, &config, schema.clone(), &entries, 1).unwrap();

            cache.clear();
            cache.store().reset_stats();
            let cold = comp.lookup(&Value::Int(137), None).unwrap();
            assert_eq!(cold, Some(entries[137].1.clone()), "{layout:?}");
            if layout.is_columnar() {
                // Even a cold lookup assembles one record, not its leaf.
                assert_eq!(cache.store().stats().records_assembled, 1, "{layout:?}");
            }

            cache.clear();
            cache.store().reset_stats();
            let warm = comp.lookup(&Value::Int(137), None).unwrap();
            assert_eq!(cold, warm, "{layout:?}");
            let stats = cache.store().stats();
            assert_eq!(stats.pages_read, 0, "{layout:?}");
            assert_eq!(stats.leaf_cache_misses, 0, "{layout:?}");
            assert_eq!(stats.leaf_cache_hits, 1, "{layout:?}");
            // Row pages are cached materialised; a columnar hit assembles
            // exactly the record it returns.
            assert_eq!(
                stats.records_assembled,
                u64::from(layout.is_columnar()),
                "{layout:?}"
            );
        }
    }

    /// Repeated lookups must not grow the cache: a leaf is resident once,
    /// however often and through whichever projection it is read.
    #[test]
    fn lookups_keep_one_resident_copy_per_leaf() {
        let entries = records(400);
        let schema = schema_for(&entries);
        let likes = [Path::parse("likes")];
        for layout in LayoutKind::ALL {
            let (cache, leaf_cache) = leaf_cached_cache();
            let config = ComponentConfig::new(layout);
            let comp = Component::write(&cache, &config, schema.clone(), &entries, 1).unwrap();
            assert!(comp.lookup(&Value::Int(7), None).unwrap().is_some());
            let after_one = (leaf_cache.resident_bytes(), leaf_cache.resident_leaves());
            cache.store().reset_stats();
            for round in 0..1000i64 {
                let key = Value::Int(7 + (round % 5));
                // Both stay within the first leaf, alternating projections.
                let projection = (round % 2 == 0).then_some(&likes[..]);
                let doc = comp.lookup(&key, projection).unwrap().unwrap().unwrap();
                let stored = entries[key.as_int().unwrap() as usize].1.as_ref().unwrap();
                assert_eq!(
                    doc.get_field("likes"),
                    stored.get_field("likes"),
                    "{layout:?}"
                );
                if projection.is_some() && layout.is_columnar() {
                    assert!(
                        doc.get_field("text").is_none(),
                        "{layout:?}: projection ignored"
                    );
                }
            }
            assert_eq!(
                (leaf_cache.resident_bytes(), leaf_cache.resident_leaves()),
                after_one,
                "{layout:?}"
            );
            let stats = cache.store().stats();
            assert_eq!(stats.pages_read, 0, "{layout:?}");
            assert_eq!(
                stats.leaf_cache_misses, 0,
                "{layout:?}: projected lookups hit the full entry"
            );
        }
    }

    /// Pages `read` takes on a cold page cache, and whether it hit the
    /// decoded-leaf cache (`None`: it decoded from pages).
    fn pages_of(cache: &BufferCache, read: impl FnOnce()) -> (u64, Option<bool>) {
        cache.clear();
        cache.store().reset_stats();
        read();
        let stats = cache.store().stats();
        let hit = match (stats.leaf_cache_hits, stats.leaf_cache_misses) {
            (1, 0) => Some(true),
            (0, 1) => None,
            other => panic!("one leaf fetch expected, saw {other:?}"),
        };
        (stats.pages_read, hit)
    }

    /// The other order — projected read first, all columns second — ends
    /// with one entry too: the all-columns read decodes only what the
    /// projected one left out, and scans take the entry like lookups.
    #[test]
    fn all_columns_read_supersedes_the_projected_copy() {
        let entries = records(400);
        let schema = schema_for(&entries);
        let likes = [Path::parse("likes")];
        for layout in [LayoutKind::Apax, LayoutKind::Amax] {
            let (cache, leaf_cache) = leaf_cached_cache();
            let config = ComponentConfig::new(layout);
            let comp =
                Arc::new(Component::write(&cache, &config, schema.clone(), &entries, 1).unwrap());
            let lookup =
                |projection: Option<&[Path]>| comp.lookup(&Value::Int(7), projection).unwrap();
            // What decoding only the columns a `likes` lookup leaves out
            // reads: Page 0 (the APAX page) and their megapages.
            let key = comp.key_spec.as_ref().unwrap().id;
            let held = comp.projection_columns(Some(&likes)).unwrap();
            let rest: Vec<ColumnId> = comp.column_ids().filter(|id| !held.contains(id)).collect();
            let (rest_pages, _) = pages_of(&cache, || drop(comp.cached_chunks(0, Some(&rest))));
            assert!(!rest.contains(&key) && held.contains(&key));
            leaf_cache.clear();
            let narrow = lookup(Some(&likes)).unwrap();
            assert_eq!(leaf_cache.resident_leaves(), 1, "{layout:?}");
            let narrow_bytes = leaf_cache.resident_bytes();
            let (pages, hit) = pages_of(&cache, || assert!(lookup(None).is_some()));
            assert_eq!((pages, hit), (rest_pages, None), "{layout:?}");
            assert_eq!(leaf_cache.resident_leaves(), 1, "{layout:?}: held twice");
            assert!(leaf_cache.resident_bytes() > narrow_bytes, "{layout:?}");
            let resident = leaf_cache.resident_bytes();
            cache.store().reset_stats();
            // Projected lookups and a projected scan of that leaf now read
            // the all-columns entry and see only their own columns.
            assert_eq!(lookup(Some(&likes)).unwrap(), narrow, "{layout:?}");
            let (_, first) = comp.cursor(Some(&likes)).next().unwrap().unwrap();
            let first = first.unwrap();
            assert!(first.get_field("likes").is_some(), "{layout:?}");
            assert!(first.get_field("text").is_none(), "{layout:?}");
            let stats = cache.store().stats();
            assert_eq!(stats.leaf_cache_misses, 0, "{layout:?}");
            assert_eq!(stats.pages_read, 0, "{layout:?}");
            assert_eq!(leaf_cache.resident_bytes(), resident, "{layout:?}");
        }
    }

    /// A leaf has one entry: a second projection decodes only the columns
    /// the entry lacks (for AMAX, Page 0 and that column's megapage) and
    /// the union then answers both projections without a page read.
    #[test]
    fn a_second_projection_decodes_only_the_columns_the_entry_lacks() {
        let entries = records(2000);
        let schema = schema_for(&entries);
        let likes = [Path::parse("likes")];
        let text = [Path::parse("text")];
        let both = [Path::parse("likes"), Path::parse("text")];
        for layout in [LayoutKind::Apax, LayoutKind::Amax] {
            let (cache, leaf_cache) = leaf_cached_cache();
            let config = ComponentConfig::new(layout);
            let comp = Component::write(&cache, &config, schema.clone(), &entries, 1).unwrap();
            let lookup =
                |projection: &[Path]| comp.lookup(&Value::Int(7), Some(projection)).unwrap();
            let (text_pages, _) = pages_of(&cache, || drop(lookup(&text)));
            leaf_cache.clear();
            let (full_pages, _) = pages_of(&cache, || drop(comp.lookup(&Value::Int(7), None)));
            leaf_cache.clear();
            drop(lookup(&both));
            let union_bytes = leaf_cache.resident_bytes();
            leaf_cache.clear();

            let narrow = lookup(&likes).unwrap();
            let (pages, hit) = pages_of(&cache, || assert!(lookup(&text).is_some()));
            assert_eq!((pages, hit), (text_pages, None), "{layout:?}");
            if layout == LayoutKind::Amax {
                assert!(pages < full_pages, "{layout:?}: {pages} of {full_pages}");
            }
            assert_eq!(leaf_cache.resident_leaves(), 1, "{layout:?}");
            assert_eq!(leaf_cache.resident_bytes(), union_bytes, "{layout:?}");

            // Both projections are covered now: hits that read nothing.
            let stored = entries[7].1.as_ref().unwrap();
            for (projection, field) in [(&likes[..], "likes"), (&text[..], "text")] {
                let (pages, hit) = pages_of(&cache, || {
                    let doc = lookup(projection).unwrap().unwrap();
                    assert_eq!(doc.get_field(field), stored.get_field(field), "{layout:?}");
                });
                assert_eq!((pages, hit), (0, Some(true)), "{layout:?} {field}");
            }
            assert_eq!(lookup(&likes).unwrap(), narrow, "{layout:?}");
            assert_eq!(leaf_cache.resident_leaves(), 1, "{layout:?}");
        }
    }

    /// A column id the leaf holds no chunk for is recorded as asked for:
    /// the second request for it is a hit.
    #[test]
    fn a_column_the_leaf_predates_is_decoded_once() {
        let entries = records(200);
        let schema = schema_for(&entries);
        for layout in [LayoutKind::Apax, LayoutKind::Amax] {
            let (cache, _leaf_cache) = leaf_cached_cache();
            let config = ComponentConfig::new(layout);
            let comp = Component::write(&cache, &config, schema.clone(), &entries, 1).unwrap();
            let key = comp.key_spec.as_ref().unwrap().id;
            let later = comp.column_ids().max().unwrap() + 1;
            let (pages, hit) = pages_of(&cache, || {
                let chunks = comp.cached_chunks(0, Some(&[key, later])).unwrap();
                assert!(chunks.iter().all(|c| c.spec.id != later), "{layout:?}");
            });
            assert!(pages > 0 && hit.is_none(), "{layout:?}");
            let (pages, hit) = pages_of(&cache, || {
                drop(comp.cached_chunks(0, Some(&[later])).unwrap());
            });
            assert_eq!((pages, hit), (0, Some(true)), "{layout:?}");
        }
    }

    #[test]
    fn lookup_sorted_matches_single_lookups_across_leaves_and_gaps() {
        // Even keys only (odd probes fall between entries), anti-matter
        // sprinkled in, several leaves, and probes below, between and above.
        let mut entries: Vec<Entry> = records(1200)
            .into_iter()
            .filter(|(k, _)| k.as_int().unwrap() % 2 == 0)
            .collect();
        for i in (0..entries.len()).step_by(7) {
            entries[i].1 = None;
        }
        let schema = schema_for(&entries);
        let projection = [Path::parse("user.name")];
        for layout in LayoutKind::ALL {
            let cache = small_cache();
            let mut config = ComponentConfig::new(layout);
            config.amax.record_limit = 100;
            let comp = Component::write(&cache, &config, schema.clone(), &entries, 1).unwrap();
            assert!(comp.leaf_count() > 2, "{layout:?}");
            let probes: Vec<Value> = (-3..1210).filter(|i| i % 3 != 1).map(Value::Int).collect();
            let refs: Vec<&Value> = probes.iter().collect();
            for projection in [None, Some(&projection[..])] {
                let batch = comp.lookup_sorted(&refs, projection).unwrap();
                assert_eq!(batch.len(), probes.len());
                for (key, got) in probes.iter().zip(&batch) {
                    assert_eq!(
                        got,
                        &comp.lookup(key, projection).unwrap(),
                        "{layout:?} {key}"
                    );
                    let stored = entries
                        .binary_search_by(|(k, _)| total_cmp(k, key))
                        .ok()
                        .map(|i| &entries[i].1);
                    match (stored, got) {
                        (None, None) | (Some(None), Some(None)) => {}
                        (Some(Some(doc)), Some(Some(found))) => {
                            assert_eq!(found.get_field("id"), Some(key), "{layout:?}");
                            assert_eq!(
                                found.get_path_str("user.name"),
                                doc.get_path_str("user.name"),
                                "{layout:?}"
                            );
                            if projection.is_none() {
                                assert_eq!(found, doc, "{layout:?}");
                            }
                        }
                        other => panic!("{layout:?} {key}: {other:?}"),
                    }
                }
            }
            // A repeated key is answered each time it is asked.
            let twice = [&Value::Int(4), &Value::Int(4), &Value::Int(6)];
            let got = comp.lookup_sorted(&twice, None).unwrap();
            assert_eq!(got[0], got[1], "{layout:?}");
            assert!(got[0].as_ref().is_some_and(Option::is_some), "{layout:?}");
        }
    }

    /// One forward pass per leaf: a sorted batch fetches each leaf once and
    /// assembles exactly the live records it returns.
    #[test]
    fn lookup_sorted_fetches_each_leaf_once() {
        let entries = records(1000);
        let schema = schema_for(&entries);
        for layout in [LayoutKind::Apax, LayoutKind::Amax] {
            let (cache, _leaf_cache) = leaf_cached_cache();
            let mut config = ComponentConfig::new(layout);
            config.amax.record_limit = 250;
            let comp = Component::write(&cache, &config, schema.clone(), &entries, 1).unwrap();
            let probes: Vec<Value> = (0..1000).step_by(10).map(Value::Int).collect();
            let refs: Vec<&Value> = probes.iter().collect();
            cache.store().reset_stats();
            let found = comp.lookup_sorted(&refs, None).unwrap();
            assert!(found
                .iter()
                .all(|doc| doc.as_ref().is_some_and(Option::is_some)));
            let stats = cache.store().stats();
            assert_eq!(stats.records_assembled, probes.len() as u64, "{layout:?}");
            assert_eq!(
                stats.leaf_cache_hits + stats.leaf_cache_misses,
                comp.leaf_count() as u64,
                "{layout:?}"
            );
        }
    }

    #[test]
    fn projected_and_full_scans_share_one_entry_and_stay_correct() {
        let entries = records(150);
        let schema = schema_for(&entries);
        let (cache, leaf_cache) = leaf_cached_cache();
        let config = ComponentConfig::new(LayoutKind::Amax);
        let comp = Arc::new(Component::write(&cache, &config, schema, &entries, 1).unwrap());

        let path = vec![Path::parse("likes")];
        let projected: Vec<Entry> =
            comp.cursor(Some(&path)).map(|e| e.unwrap()).collect();
        // The projected entry does not cover a full scan: it is widened.
        let full: Vec<Entry> = comp.cursor(None).map(|e| e.unwrap()).collect();
        assert_eq!(leaf_cache.resident_leaves(), comp.leaf_count());
        assert_eq!(full.len(), projected.len());
        let full_doc = full[10].1.as_ref().unwrap();
        assert!(full_doc.get_path_str("user.name").is_some());
        let projected_doc = projected[10].1.as_ref().unwrap();
        assert!(projected_doc.get_path_str("user.name").is_none());
        assert_eq!(projected_doc.get_field("likes"), full_doc.get_field("likes"));
    }

    #[test]
    fn retired_component_invalidates_its_decoded_leaves() {
        let entries = records(120);
        let schema = schema_for(&entries);
        let (cache, leaf_cache) = leaf_cached_cache();
        let config = ComponentConfig::new(LayoutKind::Apax);
        let comp = std::sync::Arc::new(
            Component::write(&cache, &config, schema, &entries, 1).unwrap(),
        );
        let scanned: Vec<Entry> = comp.cursor(None).map(|e| e.unwrap()).collect();
        assert_eq!(scanned.len(), 120);
        assert_eq!(leaf_cache.resident_leaves(), comp.leaf_count());

        comp.retire();
        drop(comp);
        assert_eq!(leaf_cache.resident_leaves(), 0);
        assert!(leaf_cache.stats().invalidations > 0);
        assert_eq!(leaf_cache.resident_bytes(), 0);
    }

    #[test]
    fn component_churn_never_serves_stale_decoded_leaves() {
        // Regression for cache coherence under slot reuse: retire + rewrite
        // components over the same recycled page slots repeatedly, scanning
        // through the shared leaf cache each round. Stale state from a
        // retired generation must never leak into the next.
        let schema = schema_for(&records(40));
        let (cache, leaf_cache) = leaf_cached_cache();
        for generation in 0..6u64 {
            let entries: Vec<Entry> = (0..40)
                .map(|i| {
                    (
                        Value::Int(i),
                        Some(doc!({
                            "id": i,
                            "user": {"name": (format!("gen{generation}")), "verified": true},
                            "text": (format!("generation {generation} row {i}")),
                            "likes": (generation as i64),
                            "tags": ["a", "b"]
                        })),
                    )
                })
                .collect();
            let config = ComponentConfig::new(LayoutKind::Vb);
            let comp = std::sync::Arc::new(
                Component::write(&cache, &config, schema.clone(), &entries, generation + 1)
                    .unwrap(),
            );
            // Scan twice: the second pass serves from the leaf cache.
            for _ in 0..2 {
                let scanned: Vec<Entry> =
                    comp.cursor(None).map(|e| e.unwrap()).collect();
                assert_eq!(scanned, entries, "generation {generation}");
            }
            comp.retire();
        }
        // Every generation was retired, so nothing may remain resident.
        assert_eq!(leaf_cache.resident_leaves(), 0);
        assert!(leaf_cache.stats().invalidations > 0);
    }

    /// The one zone-map rule: hidden exactly when some predicate is
    /// disproved by the stats (under the document total order) and the keys
    /// are disjoint from every older component's.
    #[test]
    fn zone_map_hides_only_disproved_and_reconciliation_safe_data() {
        use crate::stats::StatsBuilder;
        use Bound::{Excluded, Included, Unbounded};
        let mut builder = StatsBuilder::new();
        for doc in [
            doc!({"score": 10, "x": (-0.0)}),
            doc!({"score": 20, "x": (f64::NAN)}),
        ] {
            builder.observe(&doc);
        }
        let stats = builder.finish();
        let pred = |path: &str, lo: Bound<Value>, hi: Bound<Value>| ColumnPredicate {
            path: Path::parse(path),
            lo,
            hi,
        };
        let (int, dbl) = (|v: i64| Value::Int(v), |v: f64| Value::Double(v));
        let keys = (&Value::Int(100), &Value::Int(200));
        let hides = |p: &ColumnPredicate, older: &[(Value, Value)]| {
            zone_map_hides(std::slice::from_ref(p), &stats, keys, older)
        };
        // Disproved: a path the stats lack, and `score` in [10, 20] against
        // bounds disjoint below and above, `Included` and `Excluded`.
        for disproved in [
            pred("nope", Included(int(0)), Unbounded),
            pred("score", Unbounded, Excluded(int(10))),
            pred("score", Unbounded, Included(int(9))),
            pred("score", Excluded(int(20)), Unbounded),
            pred("score", Included(int(21)), Unbounded),
            // `x` spans [-0.0, NaN]: nothing lies below -0.0 or above NaN.
            pred("x", Unbounded, Excluded(dbl(-0.0))),
            pred("x", Excluded(dbl(f64::NAN)), Unbounded),
        ] {
            assert!(hides(&disproved, &[]), "{disproved}");
        }
        // Touching bounds may match: never hidden.
        for possible in [
            pred("score", Unbounded, Included(int(10))),
            pred("score", Included(int(20)), Unbounded),
            pred("x", Unbounded, Included(dbl(-0.0))),
            pred("x", Unbounded, Excluded(dbl(0.0))),
            pred("x", Excluded(dbl(1e300)), Unbounded),
            pred("x", Included(dbl(f64::NAN)), Unbounded),
        ] {
            assert!(!hides(&possible, &[]), "{possible}");
        }
        // One disproved conjunct suffices.
        let both = [pred("score", Included(int(0)), Unbounded), pred("nope", Unbounded, Unbounded)];
        assert!(zone_map_hides(&both, &stats, keys, &[]));
        // Reconciliation safety: keys [100, 200] must miss every older range;
        // touching one at a single key already forbids hiding.
        let absent = pred("nope", Unbounded, Unbounded);
        assert!(hides(&absent, &[(int(0), int(99)), (int(201), int(300))]));
        assert!(!hides(&absent, &[(int(0), int(99)), (int(0), int(100))]));
        assert!(!hides(&absent, &[(int(200), int(300))]));
        assert!(!hides(&absent, &[(int(120), int(130))]));
    }
}
