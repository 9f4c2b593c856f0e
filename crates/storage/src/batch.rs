//! Column batches: one decoded leaf, the ordinals a scan selected in it, and
//! the pushed filter as loops over the filter columns.
//!
//! A snapshot scan reconciles on keys alone and, per source and resident
//! leaf, collects **which** records won — an ascending selection vector of
//! ordinals, anti-matter dropped. [`ColumnBatch`] pairs that vector with the
//! leaf's `Arc`-shared decoded chunks, so whoever consumes the batch decides
//! what the winners cost:
//!
//! * a consumer that can work on columns (a `COUNT`, the query engine's
//!   aggregate kernels) asks for the chunks it folds over
//!   ([`ColumnBatch::chunks`]) and assembles nothing;
//! * everyone else pulls documents ([`ColumnBatch::into_rows`]): the selected
//!   ordinals are assembled in one forward pass
//!   ([`columnar::Assembler::record_at`]), from the projected columns only.
//!
//! Columns are fetched when first asked for — through the decoded-leaf cache,
//! and only the ones not already resident for the batch — so a leaf none of
//! whose records survive the pushed filter never reads its other columns'
//! pages, and a column the filter and the projection share is decoded once.
//!
//! ## Pushed predicates
//!
//! A [`ColumnPredicate`] is lowered once per component against that
//! component's schema (`ColumnFilter`):
//!
//! * its path runs through objects only and ends at an atomic column — the
//!   predicate becomes a [`ColumnWalk`] over that column that narrows the
//!   selection (`LeafFilter`; the row adapter asks it one ascending ordinal
//!   at a time, the batch scan the whole vector);
//! * its path addresses nothing in the schema — no record of the component
//!   can match;
//! * anything else (the path crosses a union, or ends at an object or an
//!   array) cannot be decided from one column: the predicate waits for the
//!   assembled record, whose projection is widened to cover its path.

use std::sync::Arc;

use columnar::{Assembler, ColumnChunk, ColumnWalk};
use docmodel::{Path, PathStep, Value};
use encoding::DecodeError;
use schema::node::SchemaNode;
use schema::{ColumnId, Schema};

use crate::component::{ColumnPredicate, Component, LeafChunks};
use crate::Result;

/// The node a path of field steps reaches walking through **object nodes
/// only**: the covered shape on which a loop over one column can stand in
/// for evaluating the path on documents. The error says what is in the way
/// — a step that is not a field, a union or an array on the path, a field
/// the schema lacks — in words `EXPLAIN ANALYZE` can print.
pub fn plain_node(
    schema: &Schema,
    from: schema::NodeId,
    path: &Path,
) -> std::result::Result<schema::NodeId, String> {
    let mut node = from;
    let mut walked = Path::root();
    for step in path.steps() {
        let PathStep::Field(name) = step else {
            return Err(format!("`{path}` is not a plain field path"));
        };
        let fields = match schema.node(node) {
            SchemaNode::Object { fields } => fields,
            SchemaNode::Union { .. } => return Err(format!("union at `{walked}`")),
            SchemaNode::Array { .. } => return Err(format!("array at `{walked}`")),
            SchemaNode::Atomic { .. } => return Err(format!("no column at `{path}`")),
        };
        node = match fields.iter().find(|(k, _)| k == name) {
            Some((_, child)) => *child,
            None => return Err(format!("no column at `{path}`")),
        };
        walked = walked.child(name);
    }
    Ok(node)
}

/// One component's reading of a pushed conjunction. See the module docs.
pub(crate) struct ColumnFilter {
    predicates: Arc<Vec<ColumnPredicate>>,
    /// `(column, predicate)`: predicates decided on a column alone.
    kernels: Vec<(ColumnId, usize)>,
    /// Predicates that need the assembled record.
    on_record: Vec<usize>,
    /// Some predicate's path addresses nothing here: no record matches.
    never: bool,
}

impl ColumnFilter {
    pub(crate) fn lower(schema: &Schema, predicates: Arc<Vec<ColumnPredicate>>) -> ColumnFilter {
        let (mut kernels, mut on_record, mut never) = (Vec::new(), Vec::new(), false);
        for (i, predicate) in predicates.iter().enumerate() {
            match plain_node(schema, schema.root(), &predicate.path) {
                Ok(node) if matches!(schema.node(node), SchemaNode::Atomic { .. }) => {
                    kernels.push((node, i));
                }
                _ if schema.resolve_path(&predicate.path).is_none() => never = true,
                _ => on_record.push(i),
            }
        }
        ColumnFilter {
            predicates,
            kernels,
            on_record,
            never,
        }
    }

    /// The columns the column loops read (the key column not included).
    pub(crate) fn columns(&self) -> Vec<ColumnId> {
        self.kernels.iter().map(|(column, _)| *column).collect()
    }

    /// Paths of the predicates that wait for the assembled record.
    pub(crate) fn record_paths(&self) -> impl Iterator<Item = &Path> {
        self.on_record.iter().map(|&i| &self.predicates[i].path)
    }

    /// Does an assembled record pass the predicates no column could decide?
    pub(crate) fn record_passes(&self, doc: &Value) -> bool {
        self.on_record
            .iter()
            .all(|&i| self.predicates[i].matches(doc))
    }

    /// Bind the column loops to one leaf's decoded chunks.
    pub(crate) fn bind(&self, chunks: &[Arc<ColumnChunk>]) -> LeafFilter {
        LeafFilter {
            walks: self
                .kernels
                .iter()
                .map(|(column, predicate)| {
                    let chunk = chunks.iter().find(|c| c.spec.id == *column);
                    (chunk.cloned().map(ColumnWalk::new), *predicate)
                })
                .collect(),
        }
    }
}

/// A [`ColumnFilter`]'s column loops over one leaf: one walk per filter
/// column (`None` when the leaf predates the column, so no record has a
/// value) and its predicate. Ordinals must be asked in ascending order, and
/// a whole selection costs one forward pass per filter column.
pub(crate) struct LeafFilter {
    walks: Vec<(Option<ColumnWalk>, usize)>,
}

impl LeafFilter {
    /// Does the (live) record at `ordinal` pass every column loop?
    pub(crate) fn matches(&mut self, filter: &ColumnFilter, ordinal: usize) -> bool {
        !filter.never
            && self.walks.iter_mut().all(|(walk, predicate)| {
                walk.as_mut().is_some_and(|walk| {
                    walk.value_index(ordinal).is_some_and(|i| {
                        filter.predicates[*predicate].contains_at(walk.values(), i)
                    })
                })
            })
    }
}

/// The decoded chunks resident for one leaf and which columns were asked
/// for so far (`None` = every column) — a column the leaf predates is
/// asked for once, not on every fetch.
pub(crate) struct LeafColumns {
    pub(crate) chunks: LeafChunks,
    pub(crate) loaded: Option<Vec<ColumnId>>,
}

impl Component {
    /// The columns a record is assembled from under `projection` (`None` =
    /// all): the projection's, widened by the paths of the pushed predicates
    /// that wait for the assembled record.
    pub(crate) fn assembly_columns(
        &self,
        projection: Option<&[Path]>,
        filter: Option<&ColumnFilter>,
    ) -> Option<Vec<ColumnId>> {
        let mut columns = self.projection_columns(projection)?;
        if let Some(filter) = filter {
            let paths: Vec<Path> = filter.record_paths().cloned().collect();
            for id in self.projection_columns(Some(&paths)).unwrap_or_default() {
                if !columns.contains(&id) {
                    columns.push(id);
                }
            }
        }
        Some(columns)
    }

    /// Make `columns` cover `wanted` (`None` = every column), fetching only
    /// the columns not already resident through
    /// [`Component::cached_chunks`], which widens the leaf's one cache
    /// entry by what it lacks.
    pub(crate) fn load_more(
        &self,
        leaf_idx: usize,
        columns: &mut LeafColumns,
        wanted: Option<&[ColumnId]>,
    ) -> Result<()> {
        let Some(have) = &mut columns.loaded else {
            return Ok(());
        };
        // The key column is resident from the moment the leaf is.
        let absent = |id: &ColumnId| !have.contains(id) && !self.is_key_column(*id);
        let missing: Vec<ColumnId> = match wanted {
            Some(ids) => ids.iter().copied().filter(absent).collect(),
            None => self.column_ids().filter(absent).collect(),
        };
        if !missing.is_empty() {
            let more = self.cached_chunks(leaf_idx, Some(&missing))?;
            let mut merged = columns.chunks.to_vec();
            for chunk in more.iter() {
                if !merged.iter().any(|have| have.spec.id == chunk.spec.id) {
                    merged.push(chunk.clone());
                }
            }
            columns.chunks = Arc::new(merged);
            have.extend(missing);
        }
        if wanted.is_none() {
            columns.loaded = None;
        }
        Ok(())
    }
}

/// One columnar leaf of a scan: its decoded chunks and the ascending
/// ordinals of the reconciliation winners that survived the pushed filter's
/// column loops. See the module docs.
pub struct ColumnBatch {
    component: Arc<Component>,
    leaf: usize,
    /// Entries in the leaf (selected or not).
    count: usize,
    columns: LeafColumns,
    selection: Vec<u32>,
    filter: Option<Arc<ColumnFilter>>,
}

impl ColumnBatch {
    /// The batch over `selection` (ascending ordinals of live winners),
    /// narrowed by the pushed filter's column loops; rejections are counted
    /// in `IoStats::records_filtered_pre_assembly`.
    pub(crate) fn new(
        component: Arc<Component>,
        leaf: usize,
        count: usize,
        columns: LeafColumns,
        mut selection: Vec<u32>,
        filter: Option<Arc<ColumnFilter>>,
    ) -> ColumnBatch {
        if let Some(filter) = &filter {
            let before = selection.len();
            let mut loops = filter.bind(&columns.chunks);
            selection.retain(|&ordinal| loops.matches(filter, ordinal as usize));
            component
                .cache()
                .store()
                .note_records_filtered_pre_assembly((before - selection.len()) as u64);
        }
        ColumnBatch {
            component,
            leaf,
            count,
            columns,
            selection,
            filter,
        }
    }

    /// The component the leaf belongs to (its schema is what plan paths
    /// resolve against).
    pub fn component(&self) -> &Arc<Component> {
        &self.component
    }

    /// Ascending ordinals, within the leaf, of the selected records.
    pub fn selection(&self) -> &[u32] {
        &self.selection
    }

    /// Whether a pushed predicate could not be decided on columns, so the
    /// selection still holds records only [`ColumnBatch::into_rows`] can
    /// reject.
    pub fn needs_records(&self) -> bool {
        self.filter
            .as_ref()
            .is_some_and(|filter| !filter.on_record.is_empty())
    }

    /// The decoded chunks of `ids`, in that order, fetching those not yet
    /// resident; `None` where the leaf predates the column (no record of it
    /// holds a value there).
    pub fn chunks(&mut self, ids: &[ColumnId]) -> Result<Vec<Option<Arc<ColumnChunk>>>> {
        self.component
            .load_more(self.leaf, &mut self.columns, Some(ids))?;
        Ok(ids
            .iter()
            .map(|id| {
                self.columns
                    .chunks
                    .iter()
                    .find(|c| c.spec.id == *id)
                    .cloned()
            })
            .collect())
    }

    /// The selected records as `(key, document)` pairs in key order,
    /// assembled from the projected paths (`None` = every column) in one
    /// forward pass; records failing a pushed predicate that needed the
    /// document are dropped here.
    pub fn into_rows(mut self, projection: Option<&[Path]>) -> Result<BatchRows> {
        let wanted = self
            .component
            .assembly_columns(projection, self.filter.as_deref());
        self.component
            .load_more(self.leaf, &mut self.columns, wanted.as_deref())?;
        let chunks = &self.columns.chunks;
        Ok(BatchRows {
            assembler: self
                .component
                .assembler(chunks, wanted.as_deref(), self.count),
            keys: crate::component::key_chunk(chunks)?.clone(),
            selection: self.selection.into_iter(),
            filter: self.filter,
            component: self.component,
        })
    }
}

/// The documents of a [`ColumnBatch`]; see [`ColumnBatch::into_rows`].
pub struct BatchRows {
    component: Arc<Component>,
    keys: Arc<ColumnChunk>,
    assembler: Assembler,
    selection: std::vec::IntoIter<u32>,
    filter: Option<Arc<ColumnFilter>>,
}

impl Iterator for BatchRows {
    type Item = Result<(Value, Value)>;

    fn next(&mut self) -> Option<Self::Item> {
        loop {
            let ordinal = self.selection.next()? as usize;
            let doc = match self
                .assembler
                .record_at(ordinal)
                .unwrap_or_else(|| Err(DecodeError::new("leaf has fewer records than keys")))
            {
                Ok(doc) => doc,
                Err(e) => return Some(Err(e)),
            };
            self.component.cache().store().note_records_assembled(1);
            if self.filter.as_ref().is_none_or(|f| f.record_passes(&doc)) {
                return Some(Ok((self.keys.values.get(ordinal), doc)));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use std::ops::Bound;

    use super::*;
    use crate::component::{ComponentConfig, Entry, LayoutKind, ScanFilter};
    use crate::pagestore::{BufferCache, PageStore};
    use docmodel::doc;
    use schema::SchemaBuilder;

    /// `score` is a plain int column with gaps, `v` a union (int | string),
    /// every seventh entry is anti-matter.
    fn entries(n: i64) -> Vec<Entry> {
        (0..n)
            .map(|i| {
                if i % 7 == 3 {
                    return (Value::Int(i), None);
                }
                let mut doc = doc!({"id": i, "text": (format!("record {i} of the batch test"))});
                if i % 4 != 0 {
                    doc.set_field("score", Value::Int(i % 50));
                }
                doc.set_field(
                    "v",
                    if i % 3 == 0 {
                        Value::from("ten")
                    } else {
                        Value::Int(i % 20)
                    },
                );
                (Value::Int(i), Some(doc))
            })
            .collect()
    }

    fn component(layout: LayoutKind, entries: &[Entry]) -> (BufferCache, Arc<Component>) {
        let mut builder = SchemaBuilder::new(Some("id".to_string()));
        builder.observe_all(entries.iter().filter_map(|(_, doc)| doc.as_ref()));
        let cache = BufferCache::new(PageStore::with_page_size(4096), 64);
        let mut config = ComponentConfig::new(layout);
        config.amax.record_limit = 100;
        let component =
            Component::write(&cache, &config, builder.into_schema(), entries, 1).unwrap();
        (cache, Arc::new(component))
    }

    fn range(path: &str, lo: i64, hi: i64) -> ColumnPredicate {
        ColumnPredicate {
            path: Path::parse(path),
            lo: Bound::Included(Value::Int(lo)),
            hi: Bound::Excluded(Value::Int(hi)),
        }
    }

    /// Drive a filtered cursor the way the batch scan does — note every live
    /// entry's ordinal, skip it, collect the leaf's batch when it is used up
    /// — and return the batches.
    fn batches(
        component: &Arc<Component>,
        projection: Option<&[Path]>,
        predicates: Vec<ColumnPredicate>,
    ) -> Vec<ColumnBatch> {
        let filter = ScanFilter {
            predicates: Arc::new(predicates),
            older_key_ranges: Arc::new(Vec::new()),
        };
        let mut cursor = component.cursor_filtered(projection, Some(filter));
        let (mut out, mut selection) = (Vec::new(), Vec::new());
        while cursor.fill().unwrap() {
            let run = cursor.resident_keys().unwrap();
            if !run.is_antimatter(run.first()) {
                selection.push(run.first() as u32);
            }
            cursor.consume(1);
            if cursor.buffered() == 0 {
                out.push(cursor.leaf_batch(std::mem::take(&mut selection)).unwrap());
            }
        }
        out
    }

    #[test]
    fn column_loops_select_what_document_evaluation_selects() {
        let entries = entries(400);
        for layout in [LayoutKind::Apax, LayoutKind::Amax] {
            let (cache, component) = component(layout, &entries);
            assert!(component.leaf_count() > 2, "{layout:?}");
            for predicates in [
                vec![range("score", 10, 30)],
                vec![range("score", 0, 1000), range("id", 50, 350)],
                // A union column: decided on the assembled record.
                vec![range("v", 5, 15), range("score", 0, 40)],
                // Addresses nothing: no record matches.
                vec![range("nope", 0, 10)],
            ] {
                let expected: Vec<i64> = entries
                    .iter()
                    .filter_map(|(key, doc)| {
                        let doc = doc.as_ref()?;
                        predicates
                            .iter()
                            .all(|p| p.matches(doc))
                            .then(|| key.as_int().unwrap())
                    })
                    .collect();
                cache.store().reset_stats();
                let mut got = Vec::new();
                let mut selected = 0;
                for batch in batches(&component, Some(&[Path::parse("text")]), predicates.clone()) {
                    selected += batch.selection().len();
                    for row in batch.into_rows(Some(&[Path::parse("text")])).unwrap() {
                        let (key, doc) = row.unwrap();
                        assert!(doc.get_field("text").is_some(), "{layout:?}");
                        got.push(key.as_int().unwrap());
                    }
                }
                assert_eq!(got, expected, "{layout:?} {predicates:?}");
                // What the column loops reject is counted and never built.
                let live = entries.iter().filter(|(_, doc)| doc.is_some()).count();
                let io = cache.store().stats();
                if io.leaves_skipped == 0 {
                    assert_eq!(io.records_filtered_pre_assembly as usize, live - selected);
                }
                assert_eq!(io.records_assembled as usize, selected);
            }
        }
    }

    /// A column the filter and the consumer share is decoded once: the batch
    /// hands out the very chunk the filter ran over, and fetching the rest
    /// does not touch it.
    #[test]
    fn shared_filter_columns_are_not_decoded_twice() {
        let entries = entries(300);
        for layout in [LayoutKind::Apax, LayoutKind::Amax] {
            let (_cache, component) = component(layout, &entries);
            let ids = component
                .projection_columns(Some(&[Path::parse("score"), Path::parse("text")]))
                .unwrap();
            let (score, text) = (ids[1], ids[2]);
            for mut batch in batches(&component, Some(&[]), vec![range("score", 0, 1000)]) {
                let filtered_on = batch.chunks(&[score]).unwrap()[0].clone().unwrap();
                let both = batch.chunks(&[score, text]).unwrap();
                assert!(
                    Arc::ptr_eq(both[0].as_ref().unwrap(), &filtered_on),
                    "{layout:?}"
                );
                assert!(
                    both[1].is_some(),
                    "{layout:?}: the rest is fetched on demand"
                );
                // Asked again, nothing is fetched again.
                let again = batch.chunks(&[text]).unwrap();
                assert!(Arc::ptr_eq(
                    again[0].as_ref().unwrap(),
                    both[1].as_ref().unwrap()
                ));
            }
        }
    }

    #[test]
    fn plain_node_says_what_is_in_the_way() {
        let entries = entries(20);
        let (_cache, component) = component(LayoutKind::Amax, &entries);
        let schema = component.schema();
        let at = |path: &str| plain_node(schema, schema.root(), &Path::parse(path));
        assert!(at("score").is_ok());
        assert_eq!(at("nope").unwrap_err(), "no column at `nope`");
        assert_eq!(at("score.x").unwrap_err(), "no column at `score.x`");
        assert_eq!(at("v.x").unwrap_err(), "union at `v`");
        assert_eq!(
            at("text[*]").unwrap_err(),
            "`text[*]` is not a plain field path"
        );
    }
}
