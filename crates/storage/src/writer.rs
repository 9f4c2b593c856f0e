//! The one way a component gets written: incrementally, leaf by leaf.
//!
//! See the writer protocol in the [`crate::component`] module docs. In
//! short: a [`ComponentWriter`] keeps **one open leaf**. Entries are pushed
//! into it ([`ComponentWriter::push_entry`]) or — for the columnar layouts —
//! record ranges of already-decoded column chunks are copied into it
//! ([`ComponentWriter::push_runs`]); whenever it fills, it is sealed: encoded,
//! written, summarised into a zone map, and forgotten. Flush and merge both
//! drive this writer, so the leaf-filling rule, the overflow halving and the
//! statistics exist once.

use std::collections::HashMap;
use std::ops::Range;
use std::sync::Arc;

use columnar::{ColumnChunk, ShapePlan, ShapeWalker, ShreddedBatch, Shredder};
use docmodel::{PathStep, Value};
use encoding::DecodeError;
use schema::{ColumnId, ColumnSpec, Schema};

use crate::amax;
use crate::apax;
use crate::component::{
    write_page, Component, ComponentConfig, ComponentDescriptor, Entry, LayoutKind,
    LeafDescriptor,
};
use crate::pagestore::{BufferCache, PageId};
use crate::rowformat::RowFormat;
use crate::rowpage;
use crate::stats::{column_derived_stats, StatsBuilder};
use crate::Result;

/// A run of consecutive records of one decoded columnar leaf, as handed to
/// [`ComponentWriter::push_runs`]: an index into the call's leaf list and
/// the record ordinals within that leaf.
pub type RecordRun = (usize, Range<usize>);

/// Writes one component incrementally. See the module docs and the writer
/// protocol in [`crate::component`].
pub struct ComponentWriter {
    config: ComponentConfig,
    schema: Schema,
    id: u64,
    /// Usable payload bytes of one page.
    page_budget: usize,
    open: OpenLeaf,
    /// Records in the open leaf.
    open_records: usize,
    /// Row and APAX leaves fill by size: the summed
    /// [`rowpage::entry_size_estimate`]s of the open leaf's records.
    open_bytes: usize,
    leaves: Vec<LeafDescriptor>,
    pages: WrittenPages,
    stored_bytes: u64,
}

/// The pages written so far. Until [`ComponentWriter::finish`] hands them to
/// a [`Component`] they belong to nobody else, so dropping them frees them —
/// which is why the writer lists them apart from the leaves.
struct WrittenPages {
    cache: BufferCache,
    ids: Vec<PageId>,
}

impl Drop for WrittenPages {
    fn drop(&mut self) {
        if !self.ids.is_empty() {
            self.cache.free_pages(&self.ids);
        }
    }
}

/// The leaf being filled, in the shape its layout encodes from.
enum OpenLeaf {
    Rows(RowFormat, Vec<Entry>),
    Columns(Box<OpenColumns>),
}

struct OpenColumns {
    /// Shreds pushed entries into the open leaf's chunks, which copied
    /// record ranges are appended to as well; emptied at every seal.
    shredder: Shredder<'static>,
    /// Shape plan over every column of the schema, in the shredder's order:
    /// what a sealed leaf's zone map is derived with.
    plan: ShapePlan,
    /// How leaves holding a given list of columns feed the output columns,
    /// by that list; `None` = they cannot be copied from.
    feeds: HashMap<Vec<ColumnId>, Option<Arc<Feed>>>,
}

/// How the chunks of one input leaf feed the writer's columns.
struct Feed {
    /// Per output column: the input chunk to copy from, or `None` when the
    /// input predates the column's top-level field (absent-filled).
    sources: Vec<Option<usize>>,
    /// Shape plan over the input's own columns, in their order: per-record
    /// sizes, planned only for the layout whose copied leaves fill by size.
    shape: Option<ShapePlan>,
}

/// A leaf's worth of records about to be encoded.
enum LeafBatch {
    Rows(RowFormat, Vec<Entry>),
    Columns(ShreddedBatch),
}

impl LeafBatch {
    fn len(&self) -> usize {
        match self {
            LeafBatch::Rows(_, entries) => entries.len(),
            LeafBatch::Columns(batch) => batch.record_count,
        }
    }

    fn split(self, mid: usize) -> (LeafBatch, LeafBatch) {
        match self {
            LeafBatch::Rows(format, mut entries) => {
                let rest = entries.split_off(mid);
                (
                    LeafBatch::Rows(format, entries),
                    LeafBatch::Rows(format, rest),
                )
            }
            LeafBatch::Columns(batch) => (
                LeafBatch::Columns(batch.slice(0..mid)),
                LeafBatch::Columns(batch.slice(mid..batch.record_count)),
            ),
        }
    }

    /// Smallest and largest key (the first and the last: batches are sorted).
    fn key_bounds(&self) -> Result<(Value, Value)> {
        match self {
            LeafBatch::Rows(_, entries) => {
                Ok((entries[0].0.clone(), entries[entries.len() - 1].0.clone()))
            }
            LeafBatch::Columns(batch) => {
                let keys = batch
                    .key_column()
                    .filter(|keys| keys.values.len() == batch.record_count)
                    .ok_or_else(|| {
                        DecodeError::new("columnar leaves need the primary-key column")
                    })?;
                Ok((keys.values.get(0), keys.values.get(batch.record_count - 1)))
            }
        }
    }
}

impl ComponentWriter {
    /// Start writing component `id` in `config`'s layout. `schema` is the
    /// inferred schema snapshot to persist with the component; for the
    /// columnar layouts it is also what pushed entries are shredded against
    /// and what copied chunks must be compatible with.
    pub fn new(
        cache: &BufferCache,
        config: &ComponentConfig,
        schema: Schema,
        id: u64,
    ) -> ComponentWriter {
        let open = match config.layout {
            LayoutKind::Open => OpenLeaf::Rows(RowFormat::Open, Vec::new()),
            LayoutKind::Vb => OpenLeaf::Rows(RowFormat::Vb, Vec::new()),
            LayoutKind::Apax | LayoutKind::Amax => {
                let shredder = Shredder::owning(schema.clone());
                let columns: Vec<ColumnId> = shredder.columns().iter().map(|c| c.spec.id).collect();
                OpenLeaf::Columns(Box::new(OpenColumns {
                    plan: ShapePlan::new(&schema, &columns),
                    shredder,
                    feeds: HashMap::new(),
                }))
            }
        };
        ComponentWriter {
            config: config.clone(),
            schema,
            id,
            page_budget: cache.store().page_size() - 64,
            open,
            open_records: 0,
            open_bytes: 0,
            leaves: Vec::new(),
            pages: WrittenPages {
                cache: cache.clone(),
                ids: Vec::new(),
            },
            stored_bytes: 0,
        }
    }

    /// Records in the open (not yet sealed) leaf — the writer's whole
    /// resident state, in records.
    pub fn open_records(&self) -> usize {
        self.open_records
    }

    /// Append one entry (`doc == None` is anti-matter). Entries must arrive
    /// in ascending key order, interleaved in that order with whatever
    /// [`ComponentWriter::push_runs`] appends.
    pub fn push_entry(&mut self, key: &Value, doc: Option<&Value>) -> Result<()> {
        match &mut self.open {
            OpenLeaf::Rows(format, entries) => {
                self.open_bytes += rowpage::entry_size_estimate(*format, key, doc);
                entries.push((key.clone(), doc.cloned()));
            }
            OpenLeaf::Columns(open) => {
                if self.config.layout == LayoutKind::Apax {
                    self.open_bytes += rowpage::entry_size_estimate(RowFormat::Vb, key, doc);
                }
                match doc {
                    Some(doc) => open.shredder.shred(doc),
                    None => open.shredder.shred_antimatter(key),
                }
            }
        }
        self.open_records += 1;
        if self.is_full() {
            self.seal_open()?;
        }
        Ok(())
    }

    /// Can record ranges of a decoded leaf holding exactly `chunks` be copied
    /// into this component ([`ComponentWriter::push_runs`])? True when every
    /// chunk is a column of the writer's schema **with an equal
    /// [`ColumnSpec`]**, and every column of the schema the leaf lacks
    /// belongs to a top-level field the leaf has no column of at all — such a
    /// column is absent from the record root down in every record of the
    /// leaf, which is one definition-level-0 entry per record. Anything else
    /// (a new nested field next to old ones, a type promoted to a union,
    /// changed levels) needs the records re-shredded: assemble them and
    /// [`ComponentWriter::push_entry`]. Always false for row layouts.
    pub fn can_copy(&mut self, chunks: &[Arc<ColumnChunk>]) -> bool {
        self.feed_for(chunks).is_some()
    }

    fn feed_for(&mut self, chunks: &[Arc<ColumnChunk>]) -> Option<Arc<Feed>> {
        let OpenLeaf::Columns(open) = &mut self.open else {
            return None;
        };
        let ids: Vec<ColumnId> = chunks.iter().map(|c| c.spec.id).collect();
        if let Some(feed) = open.feeds.get(&ids) {
            return feed.clone();
        }
        let by_size = self.config.layout == LayoutKind::Apax;
        let feed = plan_feed(&self.schema, open.shredder.columns(), chunks, by_size).map(Arc::new);
        open.feeds.insert(ids, feed.clone());
        feed
    }

    /// Append runs of records copied column by column out of decoded leaves
    /// (§4.4): for each column of the schema, the runs' entries move from
    /// the input chunks to the open leaf as slice extends — contiguous
    /// records are one extend of the definition levels and one of the values
    /// — and no record is assembled. `runs` name their leaf by index into
    /// `leaves` and must be in ascending key order overall, ascending and
    /// non-overlapping within each leaf. Every leaf must pass
    /// [`ComponentWriter::can_copy`]. The open leaf is sealed whenever it
    /// fills, mid-run if need be.
    pub fn push_runs(&mut self, leaves: &[&[Arc<ColumnChunk>]], runs: &[RecordRun]) -> Result<()> {
        let feeds: Vec<Option<Arc<Feed>>> =
            leaves.iter().map(|chunks| self.feed_for(chunks)).collect();
        if runs.iter().any(|(leaf, _)| feeds[*leaf].is_none()) {
            return Err(DecodeError::new(
                "a run's leaf is not copy-compatible with the writer",
            ));
        }
        let record_limit = self.config.amax.record_limit.max(1);
        // Runs cut where the open leaf fills; gathered before each seal.
        let mut pending: Vec<RecordRun> = Vec::new();
        for (leaf, run) in runs {
            let shape = feeds[*leaf].as_ref().and_then(|feed| feed.shape.as_ref());
            let sizes = shape
                .map(|shape| run_sizes(shape, leaves[*leaf], run))
                .transpose()?;
            let mut next = run.start;
            while next < run.end {
                let take = match &sizes {
                    None => (record_limit - self.open_records).min(run.end - next),
                    Some(sizes) => {
                        let mut take = 0;
                        for size in &sizes[next - run.start..] {
                            self.open_bytes += size;
                            take += 1;
                            if self.open_bytes >= self.page_budget {
                                break;
                            }
                        }
                        take
                    }
                };
                pending.push((*leaf, next..next + take));
                next += take;
                self.open_records += take;
                if self.is_full() {
                    self.gather(leaves, &feeds, &pending);
                    pending.clear();
                    self.seal_open()?;
                }
            }
        }
        self.gather(leaves, &feeds, &pending);
        Ok(())
    }

    /// Copy `runs` into the open leaf, column-major: each input chunk is
    /// walked forward once, from its first run to its last.
    fn gather(
        &mut self,
        leaves: &[&[Arc<ColumnChunk>]],
        feeds: &[Option<Arc<Feed>>],
        runs: &[RecordRun],
    ) {
        let OpenLeaf::Columns(open) = &mut self.open else {
            unreachable!("only columnar writers plan feeds");
        };
        let records = runs.iter().map(|(_, run)| run.len()).sum();
        open.shredder.append_shredded(records, |columns| {
            for (column, out) in columns.iter_mut().enumerate() {
                // Per leaf: where its chunk of this column stands.
                let mut at = vec![None; leaves.len()];
                for (leaf, run) in runs {
                    let feed = feeds[*leaf].as_ref().expect("runs were checked");
                    let Some(source) = feed.sources[column] else {
                        out.push_absent_records(run.len());
                        continue;
                    };
                    let source = &leaves[*leaf][source];
                    let (mut pos, ordinal) =
                        at[*leaf].unwrap_or_else(|| (source.record_pos(run.start), run.start));
                    source.skip_records(&mut pos, run.start - ordinal);
                    let from = pos;
                    source.skip_records(&mut pos, run.len());
                    out.extend_from(source, from, pos);
                    at[*leaf] = Some((pos, run.end));
                }
            }
        });
    }

    fn is_full(&self) -> bool {
        match self.config.layout {
            LayoutKind::Amax => self.open_records >= self.config.amax.record_limit.max(1),
            _ => self.open_bytes >= self.page_budget,
        }
    }

    /// Seal the open leaf and start an empty one.
    fn seal_open(&mut self) -> Result<()> {
        let batch = match &mut self.open {
            OpenLeaf::Rows(format, entries) => LeafBatch::Rows(*format, std::mem::take(entries)),
            OpenLeaf::Columns(open) => LeafBatch::Columns(open.shredder.take_batch()),
        };
        self.open_records = 0;
        self.open_bytes = 0;
        self.seal(batch)
    }

    /// Encode `batch` as one leaf and write it; a batch whose leaf page (row
    /// page, APAX page, AMAX Page 0) overflows the page budget is halved
    /// until each half fits.
    fn seal(&mut self, batch: LeafBatch) -> Result<()> {
        let records = batch.len();
        if records == 0 {
            return Ok(());
        }
        let (min_key, max_key) = batch.key_bounds()?;
        let (leaf_page, data) = match &batch {
            LeafBatch::Rows(format, entries) => {
                let mut payload = Vec::with_capacity(self.page_budget);
                rowpage::encode_row_page(*format, entries, &mut payload);
                (payload, Vec::new())
            }
            LeafBatch::Columns(columns) if self.config.layout == LayoutKind::Apax => (
                apax::encode_apax_page(columns, &min_key, &max_key),
                Vec::new(),
            ),
            LeafBatch::Columns(columns) => {
                amax::encode_amax_leaf(columns, self.page_budget, &self.config.amax)
            }
        };
        if leaf_page.len() > self.page_budget && records > 1 {
            let (front, back) = batch.split(records / 2);
            self.seal(front)?;
            return self.seal(back);
        }
        let stats = match &batch {
            LeafBatch::Rows(_, entries) => {
                let mut stats = StatsBuilder::new();
                for doc in entries.iter().filter_map(|(_, doc)| doc.as_ref()) {
                    stats.observe(doc);
                }
                stats.finish()
            }
            LeafBatch::Columns(columns) => {
                let OpenLeaf::Columns(open) = &self.open else {
                    unreachable!("row writers seal row batches");
                };
                column_derived_stats(&open.plan, &columns.columns, records)?
            }
        };
        let page = self.write_page(leaf_page)?;
        let data_pages = data
            .into_iter()
            .map(|payload| self.write_page(payload))
            .collect::<Result<_>>()?;
        self.leaves.push(LeafDescriptor {
            page,
            data_pages,
            min_key,
            max_key,
            record_count: records,
            stats,
        });
        Ok(())
    }

    /// Write one page of the leaf being sealed: row pages LZ'd whole,
    /// columnar pages as written unless a one-record leaf page overflows
    /// the budget ([`write_page`]).
    fn write_page(&mut self, payload: Vec<u8>) -> Result<PageId> {
        let compress = !self.config.layout.is_columnar() || payload.len() > self.page_budget;
        let (page, stored) = write_page(&self.pages.cache, payload, compress)?;
        self.pages.ids.push(page);
        self.stored_bytes += stored as u64;
        Ok(page)
    }

    /// Seal the last leaf and hand the written pages over to the finished
    /// [`Component`]. A writer dropped without finishing frees them instead.
    pub fn finish(mut self) -> Result<Component> {
        self.seal_open()?;
        let desc = ComponentDescriptor {
            id: self.id,
            layout: self.config.layout,
            stored_bytes: self.stored_bytes,
            leaves: self.leaves,
        };
        let component = Component::open(&self.pages.cache, self.schema, desc);
        debug_assert_eq!(component.pages(), self.pages.ids, "pages derive from the leaves");
        self.pages.ids.clear();
        Ok(component)
    }
}

/// Decide how a leaf holding `chunks` feeds `columns` (the writer's, in
/// order); `None` when it cannot — see [`ComponentWriter::can_copy`].
fn plan_feed(
    schema: &Schema,
    columns: &[ColumnChunk],
    chunks: &[Arc<ColumnChunk>],
    with_shape: bool,
) -> Option<Feed> {
    let top_field = |spec: &ColumnSpec| match spec.path.steps().first() {
        Some(PathStep::Field(name)) => Some(name.clone()),
        _ => None,
    };
    let mut used = 0;
    let mut sources = Vec::with_capacity(columns.len());
    for column in columns {
        let spec = &column.spec;
        match chunks.iter().position(|c| c.spec.id == spec.id) {
            Some(source) if chunks[source].spec == *spec => {
                used += 1;
                sources.push(Some(source));
            }
            Some(_) => return None,
            None => {
                let field = top_field(spec)?;
                let known = chunks
                    .iter()
                    .any(|c| top_field(&c.spec).as_ref() == Some(&field));
                if spec.is_key || known {
                    return None;
                }
                sources.push(None);
            }
        }
    }
    // A chunk of no column of the schema would be dropped by the copy.
    (used == chunks.len()).then(|| Feed {
        sources,
        shape: with_shape.then(|| {
            let ids: Vec<ColumnId> = chunks.iter().map(|c| c.spec.id).collect();
            ShapePlan::new(schema, &ids)
        }),
    })
}

/// [`rowpage::entry_size_estimate`] (VB) of each record of `run`, from the
/// leaf's chunks: the logical size of the document an assembler would build
/// comes from the shape walk, the key's from the key column.
fn run_sizes(
    shape: &ShapePlan,
    chunks: &[Arc<ColumnChunk>],
    run: &Range<usize>,
) -> Result<Vec<usize>> {
    let keys = chunks
        .iter()
        .find(|c| c.spec.is_key)
        .ok_or_else(|| DecodeError::new("columnar leaves need the primary-key column"))?;
    let mut walker = ShapeWalker::new(shape, chunks.iter().map(Arc::as_ref).collect(), run.start);
    run.clone()
        .map(|ordinal| {
            let doc_size = walker.next_record()?;
            let key_size = keys.values.approx_size_at(ordinal);
            let live = !keys.is_antimatter(ordinal);
            Ok(rowpage::estimate_from_sizes(
                RowFormat::Vb,
                key_size,
                live.then_some(doc_size),
            ))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pagestore::PageStore;
    use docmodel::doc;
    use schema::SchemaBuilder;

    fn entries(n: i64) -> Vec<Entry> {
        (0..n)
            .map(|i| {
                let doc = doc!({
                    "id": i,
                    "text": (format!("record number {i} with enough text to fill pages")),
                    "nested": {"even": (i % 2 == 0), "third": (i % 3)},
                    "tags": [(format!("t{}", i % 5)), (format!("t{}", i % 7))]
                });
                (Value::Int(i), (i % 9 != 4).then_some(doc))
            })
            .collect()
    }

    fn schema_for(entries: &[Entry]) -> Schema {
        let mut builder = SchemaBuilder::new(Some("id".to_string()));
        builder.observe_all(entries.iter().filter_map(|(_, doc)| doc.as_ref()));
        builder.into_schema()
    }

    fn config(layout: LayoutKind) -> ComponentConfig {
        let mut config = ComponentConfig::new(layout);
        config.amax.record_limit = 64;
        config
    }

    /// A writer that never finishes — an error half-way through a merge, an
    /// injected crash point — must not leak the leaves it already wrote.
    #[test]
    fn an_abandoned_writer_frees_every_page_it_wrote() {
        let entries = entries(600);
        let schema = schema_for(&entries);
        for layout in LayoutKind::ALL {
            let cache = BufferCache::new(PageStore::with_page_size(4096), 64);
            let config = config(layout);
            let live =
                Component::write(&cache, &config, schema.clone(), &entries[..100], 1).unwrap();
            let live_pages = live.pages().len() as u64;
            let store = cache.store();
            assert_eq!(store.page_count(), live_pages, "{layout:?}");

            let failed: Result<Component> = (|| {
                let mut writer = ComponentWriter::new(&cache, &config, schema.clone(), 2);
                for (i, (key, doc)) in entries.iter().enumerate() {
                    if i == entries.len() / 2 {
                        // Several leaves are on disk by now.
                        assert!(store.page_count() >= live_pages + 3, "{layout:?}");
                        return Err(DecodeError::new("injected failure"));
                    }
                    writer.push_entry(key, doc.as_ref())?;
                }
                writer.finish()
            })();
            assert!(failed.is_err());
            assert_eq!(
                store.page_count(),
                store.free_page_count() + live_pages,
                "{layout:?}: every allocated page is free or live"
            );
            // The freed slots are reused, and the finished write is intact.
            let rewritten =
                Arc::new(Component::write(&cache, &config, schema.clone(), &entries, 3).unwrap());
            assert_eq!(
                store.page_count(),
                store.free_page_count() + live_pages + rewritten.pages().len() as u64,
                "{layout:?}"
            );
            assert_eq!(
                rewritten.cursor(None).count(),
                entries.len(),
                "{layout:?}"
            );
        }
    }

    /// Record ranges copied out of a component's own decoded leaves, in runs
    /// that straddle its leaf boundaries, rebuild the component exactly —
    /// whatever mix of pushed entries and copied runs fed the writer.
    #[test]
    fn copied_runs_and_pushed_entries_write_the_same_component() {
        let entries = entries(500);
        let schema = schema_for(&entries);
        for layout in [LayoutKind::Apax, LayoutKind::Amax] {
            let config = config(layout);
            let cache = BufferCache::new(PageStore::with_page_size(4096), 64);
            let source =
                Arc::new(Component::write(&cache, &config, schema.clone(), &entries, 1).unwrap());
            assert!(source.leaf_count() > 3, "{layout:?}");

            let mut writer = ComponentWriter::new(&cache, &config, schema.clone(), 2);
            let mut cursor = source.cursor(None);
            let mut ordinal_in_component = 0;
            while cursor.fill().unwrap() {
                let leaf = cursor.resident_leaf().unwrap();
                let chunks = cursor.leaf_chunks().unwrap().clone();
                assert!(writer.can_copy(&chunks), "{layout:?}");
                let records = chunks[0].defs.len();
                assert_eq!(cursor.resident_keys().unwrap().first(), 0);
                // Alternate lanes leaf by leaf; split copied leaves in two runs.
                if leaf % 2 == 0 {
                    let mid = records / 3;
                    writer
                        .push_runs(&[&chunks[..]], &[(0, 0..mid), (0, mid..records)])
                        .unwrap();
                    cursor.consume(records);
                } else {
                    for _ in 0..records {
                        let (key, doc) = cursor.next().unwrap().unwrap();
                        writer.push_entry(&key, doc.as_ref()).unwrap();
                    }
                }
                ordinal_in_component += records;
            }
            assert_eq!(ordinal_in_component, entries.len());
            let copy = Arc::new(writer.finish().unwrap());

            let mut expected = source.describe();
            let mut got = copy.describe();
            // Same leaves but for where they were written.
            assert_eq!(copy.pages().len(), source.pages().len(), "{layout:?}");
            for desc in [&mut expected, &mut got] {
                desc.id = 0;
                for leaf in &mut desc.leaves {
                    leaf.page = 0;
                    leaf.data_pages.clear();
                }
            }
            assert_eq!(got, expected, "{layout:?}");
            let scanned: Vec<Entry> = copy.cursor(None).map(|e| e.unwrap()).collect();
            let original: Vec<Entry> = source.cursor(None).map(|e| e.unwrap()).collect();
            assert_eq!(scanned, original, "{layout:?}");
        }
    }

    #[test]
    fn row_layouts_and_foreign_chunks_are_not_copyable() {
        let entries = entries(50);
        let schema = schema_for(&entries);
        let cache = BufferCache::new(PageStore::with_page_size(4096), 64);
        let columnar = Arc::new(
            Component::write(
                &cache,
                &config(LayoutKind::Amax),
                schema.clone(),
                &entries,
                1,
            )
            .unwrap(),
        );
        let mut cursor = columnar.cursor(None);
        assert!(cursor.fill().unwrap());
        let chunks = cursor.leaf_chunks().unwrap().clone();

        let mut rows = ComponentWriter::new(&cache, &config(LayoutKind::Vb), schema.clone(), 2);
        assert!(!rows.can_copy(&chunks));
        assert!(rows.push_runs(&[&chunks[..]], &[(0, 0..1)]).is_err());

        // A schema that nests a new field next to old ones cannot take the
        // old chunks: the new column's levels depend on its siblings'.
        let mut grown = SchemaBuilder::new(Some("id".to_string()));
        grown.observe_all(entries.iter().filter_map(|(_, doc)| doc.as_ref()));
        grown.observe(&doc!({"id": 0, "nested": {"fresh": 1}}));
        let mut nested =
            ComponentWriter::new(&cache, &config(LayoutKind::Amax), grown.into_schema(), 3);
        assert!(!nested.can_copy(&chunks));

        // A brand-new top-level field can: it is absent from every record.
        let mut wider = SchemaBuilder::new(Some("id".to_string()));
        wider.observe_all(entries.iter().filter_map(|(_, doc)| doc.as_ref()));
        wider.observe(&doc!({"id": 0, "fresh": {"deep": [1]}}));
        let mut wide =
            ComponentWriter::new(&cache, &config(LayoutKind::Amax), wider.into_schema(), 4);
        assert!(wide.can_copy(&chunks));
    }
}
