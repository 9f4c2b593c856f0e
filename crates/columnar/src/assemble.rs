//! The record-assembly automaton: columns back to documents — or to the
//! size and per-path tallies of the documents, without building them.
//!
//! Assembly is schema-driven, mirrors the shredder's walk, and supports
//! *projection push-down*: the automaton only touches the columns it was
//! given, so a query that needs two columns never decodes (or, for AMAX,
//! never even reads) the other hundreds of columns.
//!
//! Presence is read off the levels, the same way for every node: a value at
//! level `L` is present exactly when the highest next definition level of
//! the columns at or beneath it reaches `L` — every node has a column at or
//! beneath it ([`schema::columns_of`]), and a present value records its
//! level on one of them: a leaf its value (`null` included), a container
//! seen only empty its own column, an object with fields at least the
//! object's level on every field. So:
//!
//! * an object is present when some field is, or when the deepest level its
//!   absent fields recorded reaches the object's (`{}`, or fields all
//!   absent) — read off the entries its fields consume anyway, with no
//!   second pass over its columns;
//! * at the position of an array, the next definition level of the columns
//!   beneath it tells whether the array is absent (`def < array level`),
//!   empty (`def == array level`) or has elements (`def > array level`);
//! * while iterating elements, an entry whose value is `<=` the array's
//!   nesting depth is a delimiter: equal means "this array ends here",
//!   smaller means an enclosing array ends at the same point (the subsumed
//!   delimiter is consumed by that enclosing array's loop).
//!
//! Shred → assemble is therefore exact over the whole JSON domain, with all
//! columns planned. A projection assembles what its columns say: an element
//! whose union branch it leaves out is absent, and is left out of its array.
//!
//! The automaton (`RecordWalk`) is written once and is generic over what it
//! produces at each present value, object and array (a `Sink`): the
//! [`Assembler`] builds [`Value`]s, and [`ShapeWalker`](crate::ShapeWalker)
//! adds up their sizes and tallies their paths. Both sinks therefore see
//! exactly the same absent / empty / delimiter decisions.

use std::borrow::Borrow;
use std::sync::Arc;

use docmodel::Value;
use schema::node::SchemaNode;
use schema::{ColumnId, NodeId, Schema};

use crate::chunk::{ChunkPos, ColumnChunk, ColumnValues, SEEK_INTERVAL};
use crate::cursor::ColumnCursor;
use crate::{ColumnarError, Result};

/// Everything assembly needs to know that does not change from record to
/// record: the schema and, for one set of projected columns, which of them
/// lie beneath each schema node. Building it walks (and clones) the schema,
/// so callers that assemble from the same columns repeatedly — one point
/// lookup at a time — build it once and share it ([`Assembler::with_plan`]).
pub struct AssemblyPlan {
    schema: Schema,
    columns: Vec<ColumnId>,
    /// Per schema node: the slot (index into `columns`) of the node's own
    /// column, for the nodes whose column is part of the plan.
    slot_of: Vec<Option<usize>>,
    /// Per schema node: the slots of the planned columns at or beneath it.
    leaves_under: Vec<Vec<usize>>,
}

impl AssemblyPlan {
    /// Plan the assembly of exactly `columns` (projection push-down: fields
    /// without a planned column beneath them are left out of every record).
    pub fn new(schema: &Schema, columns: &[ColumnId]) -> AssemblyPlan {
        let mut slot_of = vec![None; schema.node_count()];
        for (slot, &column) in columns.iter().enumerate() {
            // A column the schema does not know has nowhere to go in a
            // record; its chunk is carried along but never read.
            if let Some(entry) = slot_of.get_mut(column as usize) {
                *entry = Some(slot);
            }
        }
        let mut plan = AssemblyPlan {
            schema: schema.clone(),
            columns: columns.to_vec(),
            slot_of,
            leaves_under: vec![Vec::new(); schema.node_count()],
        };
        plan.collect_leaves(schema.root());
        plan
    }

    fn collect_leaves(&mut self, node: NodeId) -> Vec<usize> {
        let children: Vec<NodeId> = match self.schema.node(node) {
            SchemaNode::Atomic { .. } => Vec::new(),
            SchemaNode::Object { fields } => fields.iter().map(|(_, c)| *c).collect(),
            SchemaNode::Array { item } => item.iter().copied().collect(),
            SchemaNode::Union { branches } => branches.iter().map(|(_, c)| *c).collect(),
        };
        let leaves: Vec<usize> = self.slot_of[node as usize]
            .into_iter()
            .chain(
                children
                    .into_iter()
                    .flat_map(|child| self.collect_leaves(child)),
            )
            .collect();
        self.leaves_under[node as usize] = leaves.clone();
        leaves
    }

    fn leaves_under(&self, node: NodeId) -> &[usize] {
        &self.leaves_under[node as usize]
    }

    /// The slot (index into the planned columns) of a node's own column.
    pub(crate) fn slot(&self, node: NodeId) -> Option<usize> {
        self.slot_of[node as usize]
    }

    /// Panic unless `chunks` are exactly the planned columns, in order.
    pub(crate) fn check_columns<C: Borrow<ColumnChunk>>(&self, chunks: &[C]) {
        assert!(
            chunks
                .iter()
                .map(|c| c.borrow().spec.id)
                .eq(self.columns.iter().copied()),
            "chunks do not match the plan's columns"
        );
    }
}

/// What the automaton produces for each present value. Fields and elements
/// are collected into a `Fields` / `Elements` accumulator and handed over
/// with their node once the object or array is complete.
pub(crate) trait Sink {
    /// What one present value becomes.
    type Value;
    /// An object's fields while they are collected.
    type Fields: Default;
    /// An array's elements while they are collected.
    type Elements: Default;

    /// Value `index` of an atomic node's column (`null` on a `Null` column).
    fn atomic(&mut self, node: NodeId, values: &ColumnValues, index: usize) -> Self::Value;
    /// Add a present field to an object being collected.
    fn field(fields: &mut Self::Fields, name: &str, value: Self::Value);
    /// A present object (possibly `{}`), or the record root.
    fn object(&mut self, node: NodeId, fields: Self::Fields) -> Self::Value;
    /// Add an element to an array being collected.
    fn element(elements: &mut Self::Elements, value: Self::Value);
    /// A present (possibly empty) array.
    fn array(&mut self, node: NodeId, elements: Self::Elements) -> Self::Value;
}

/// What the automaton found at one schema node.
enum Found<V> {
    /// A present value.
    Value(V),
    /// Nothing: the deepest level a column at or beneath the node recorded
    /// here, which says how much of the path above it is present.
    Absent(u16),
}

/// The automaton over one record: the plan, the chunks of the planned
/// columns with the positions it advances in them, and the sink it feeds.
pub(crate) struct RecordWalk<'a, C, S> {
    pub(crate) plan: &'a AssemblyPlan,
    pub(crate) chunks: &'a [C],
    pub(crate) pos: &'a mut [ChunkPos],
    pub(crate) sink: &'a mut S,
}

impl<C: Borrow<ColumnChunk>, S: Sink> RecordWalk<'_, C, S> {
    /// Walk the record at the positions, consuming exactly its entries. The
    /// root is always an object, present even when none of its projected
    /// fields is.
    pub(crate) fn record(mut self) -> Result<S::Value> {
        let root = self.plan.schema.root();
        Ok(match self.value(root, 0, 0)? {
            Found::Value(record) => record,
            Found::Absent(_) => self.sink.object(root, Default::default()),
        })
    }

    /// The value at `node` for the current structural position, consuming
    /// exactly this position's entries from every planned column at or
    /// beneath it.
    fn value(&mut self, node: NodeId, level: u16, array_depth: u16) -> Result<Found<S::Value>> {
        let plan = self.plan;
        Ok(match plan.schema.node(node) {
            SchemaNode::Atomic { .. } => {
                let slot = plan.slot(node).expect("included leaf has a column");
                let chunk = self.chunks[slot].borrow();
                let pos = &mut self.pos[slot];
                let def = chunk
                    .peek(*pos)
                    .ok_or_else(|| ColumnarError::new("column exhausted mid-record"))?;
                let value_at = pos.value;
                chunk.skip_entry(pos);
                if def == chunk.spec.max_def {
                    Found::Value(self.sink.atomic(node, &chunk.values, value_at))
                } else {
                    Found::Absent(def)
                }
            }
            SchemaNode::Object { fields } => self.object(node, fields, level, array_depth)?,
            SchemaNode::Union { branches } => {
                let (mut found, mut deepest) = (None, 0);
                for (_, child) in branches {
                    if plan.leaves_under(*child).is_empty() {
                        continue;
                    }
                    // Every branch consumes its entries; at most one yields a
                    // value (§3.2.2: a single alternative is present).
                    match self.value(*child, level, array_depth)? {
                        Found::Value(value) => {
                            found.get_or_insert(value);
                        }
                        Found::Absent(def) => deepest = deepest.max(def),
                    }
                }
                found.map_or(Found::Absent(deepest), Found::Value)
            }
            SchemaNode::Array { item } => {
                // Classify the array from the *maximum* next definition level
                // across the included columns: a single one is not enough
                // when the array's items are a union, because the
                // absent-branch marker of one branch coincides with the
                // empty-array level.
                let next_def = self.max_peek_under(node)?;
                if next_def < level {
                    // Array absent (or something above it absent).
                    self.skip_under(node, false);
                    return Ok(Found::Absent(next_def));
                }
                let mut elements = S::Elements::default();
                if next_def == level {
                    // Array present but empty (or, under a projection that
                    // excludes some union branches, an array none of whose
                    // elements belong to the projected branches). The
                    // outermost array's record segment always ends with the
                    // delimiter 0, so consume up to and including it to keep
                    // every column aligned.
                    self.skip_under(node, array_depth == 0);
                    return Ok(Found::Value(self.sink.array(node, elements)));
                }
                // Non-empty: iterate elements. A level above the array's is
                // recorded by a column beneath its item.
                let Some((item, &repr)) =
                    item.and_then(|item| Some((item, plan.leaves_under(item).first()?)))
                else {
                    return Err(ColumnarError::new("levels beneath an array with no item"));
                };
                loop {
                    // An element whose branch the projection leaves out is
                    // absent, and left out.
                    if let Found::Value(element) = self.value(item, level + 1, array_depth + 1)? {
                        S::element(&mut elements, element);
                    }
                    match self.chunks[repr].borrow().peek(self.pos[repr]) {
                        None => break, // stream ends with the record
                        Some(v) if v < array_depth => {
                            // An enclosing array ends here; it will consume
                            // the (subsumed) delimiter.
                            break;
                        }
                        Some(v) if v == array_depth => {
                            // This array's end delimiter: consume it from
                            // every column beneath this array.
                            self.skip_under(node, false);
                            break;
                        }
                        Some(_) => {
                            // Next element of this array.
                        }
                    }
                }
                Found::Value(self.sink.array(node, elements))
            }
        })
    }

    /// The object at `node`: present when some field is, or when the
    /// deepest level its absent fields (or its own column, for an object
    /// seen only as `{}`) recorded reaches the object's.
    fn object(
        &mut self,
        node: NodeId,
        fields: &[(String, NodeId)],
        level: u16,
        array_depth: u16,
    ) -> Result<Found<S::Value>> {
        let plan = self.plan;
        let mut deepest = match plan.slot(node) {
            Some(slot) => self.skip_entry(slot)?,
            None => 0,
        };
        let (mut present, mut any) = (S::Fields::default(), false);
        for (name, child) in fields {
            if plan.leaves_under(*child).is_empty() {
                continue;
            }
            match self.value(*child, level + 1, array_depth)? {
                Found::Value(value) => {
                    S::field(&mut present, name, value);
                    any = true;
                }
                Found::Absent(def) => deepest = deepest.max(def),
            }
        }
        Ok(if any || deepest >= level {
            Found::Value(self.sink.object(node, present))
        } else {
            Found::Absent(deepest)
        })
    }

    /// Consume one entry of the column in `slot`; its definition level.
    fn skip_entry(&mut self, slot: usize) -> Result<u16> {
        let chunk = self.chunks[slot].borrow();
        let def = chunk
            .peek(self.pos[slot])
            .ok_or_else(|| ColumnarError::new("column exhausted mid-record"))?;
        chunk.skip_entry(&mut self.pos[slot]);
        Ok(def)
    }

    /// Consume from every included column at or beneath `node` exactly one
    /// entry (an absent marker, an empty-array marker or a delimiter) — or,
    /// at the outermost array depth, the rest of the record.
    fn skip_under(&mut self, node: NodeId, to_record_end: bool) {
        for &leaf in self.plan.leaves_under(node) {
            let (chunk, pos) = (self.chunks[leaf].borrow(), &mut self.pos[leaf]);
            if to_record_end {
                chunk.skip_record(pos);
            } else {
                chunk.skip_entry(pos);
            }
        }
    }

    /// Maximum next definition level across the included columns at or
    /// beneath `node`.
    fn max_peek_under(&self, node: NodeId) -> Result<u16> {
        let mut max = None;
        for &leaf in self.plan.leaves_under(node) {
            let def = self.chunks[leaf]
                .borrow()
                .peek(self.pos[leaf])
                .ok_or_else(|| ColumnarError::new("column exhausted at array position"))?;
            max = Some(max.map_or(def, |m: u16| m.max(def)));
        }
        max.ok_or_else(|| ColumnarError::new("array node has no projected columns"))
    }
}

/// The value sink: builds the documents.
struct Documents;

impl Sink for Documents {
    type Value = Value;
    type Fields = Vec<(String, Value)>;
    type Elements = Vec<Value>;

    fn atomic(&mut self, _: NodeId, values: &ColumnValues, index: usize) -> Value {
        values.get(index)
    }

    fn field(fields: &mut Self::Fields, name: &str, value: Value) {
        fields.push((name.to_owned(), value));
    }

    fn object(&mut self, _: NodeId, fields: Self::Fields) -> Value {
        Value::Object(fields)
    }

    fn element(elements: &mut Self::Elements, value: Value) {
        elements.push(value);
    }

    fn array(&mut self, _: NodeId, elements: Self::Elements) -> Value {
        Value::Array(elements)
    }
}

/// Assembles records from a set of column chunks.
///
/// The assembler shares its [`AssemblyPlan`] (and with it a copy of the
/// schema) and its chunks behind `Arc`s, so it can be stored inside
/// long-lived streaming cursors — the lazy leaf buffers of `storage`'s
/// component cursors — without borrowing the component.
pub struct Assembler {
    plan: Arc<AssemblyPlan>,
    /// One chunk per planned column, in plan order, and where each stands.
    chunks: Vec<Arc<ColumnChunk>>,
    pos: Vec<ChunkPos>,
    record_count: usize,
    records_remaining: usize,
}

impl Assembler {
    /// Create an assembler over the given cursors. Only the columns present
    /// in `cursors` are assembled (projection push-down); `record_count` is
    /// the number of records the cursors cover.
    pub fn new(schema: &Schema, cursors: Vec<ColumnCursor>, record_count: usize) -> Self {
        let chunks: Vec<Arc<ColumnChunk>> = cursors.into_iter().map(|c| c.0).collect();
        let columns: Vec<ColumnId> = chunks.iter().map(|c| c.spec.id).collect();
        let plan = Arc::new(AssemblyPlan::new(schema, &columns));
        Assembler::with_plan(plan, chunks, record_count)
    }

    /// Like [`Assembler::new`], reusing a plan built earlier. `chunks` must
    /// be exactly the columns the plan was built for, in that order.
    pub fn with_plan(
        plan: Arc<AssemblyPlan>,
        chunks: Vec<Arc<ColumnChunk>>,
        record_count: usize,
    ) -> Self {
        plan.check_columns(&chunks);
        Assembler {
            plan,
            pos: vec![ChunkPos::default(); chunks.len()],
            chunks,
            record_count,
            records_remaining: record_count,
        }
    }

    /// Number of records still to be assembled.
    pub fn records_remaining(&self) -> usize {
        self.records_remaining
    }

    /// Assemble the next record, or `None` when all records were consumed.
    /// The result contains only the projected fields; records whose projected
    /// fields are all absent assemble to an empty object.
    pub fn next_record(&mut self) -> Option<Result<Value>> {
        if self.records_remaining == 0 {
            return None;
        }
        self.records_remaining -= 1;
        let walk = RecordWalk {
            plan: &self.plan,
            chunks: &self.chunks,
            pos: &mut self.pos,
            sink: &mut Documents,
        };
        Some(walk.record())
    }

    /// Skip `n` records without assembling them (batched reconciliation).
    pub fn skip_records(&mut self, n: usize) {
        let n = n.min(self.records_remaining);
        for (chunk, pos) in self.chunks.iter().zip(&mut self.pos) {
            chunk.skip_records(pos, n);
        }
        self.records_remaining -= n;
    }

    /// Assemble the record at `ordinal` (0-based among the records the
    /// chunks cover), wherever the assembler stood before; `None` when
    /// there is no such record. Afterwards the assembler stands just past
    /// that record, so a batch of ascending ordinals is one forward pass.
    ///
    /// A target a few records ahead is reached by skipping; anything else
    /// seeks every column through its chunk's record-offset index
    /// ([`ColumnChunk::record_pos`]), so the cost does not grow with the
    /// distance.
    pub fn record_at(&mut self, ordinal: usize) -> Option<Result<Value>> {
        if ordinal >= self.record_count {
            return None;
        }
        let pos = self.record_count - self.records_remaining;
        // Skipping from `pos` is the cheaper way exactly when `pos` lies
        // between the target's checkpoint and the target.
        if pos <= ordinal && ordinal - pos <= ordinal % SEEK_INTERVAL {
            self.skip_records(ordinal - pos);
        } else {
            for (chunk, pos) in self.chunks.iter().zip(&mut self.pos) {
                *pos = chunk.record_pos(ordinal);
            }
            self.records_remaining = self.record_count - ordinal;
        }
        self.next_record()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shred::{shred_records, ShreddedBatch};
    use docmodel::{doc, Path};
    use schema::SchemaBuilder;
    use std::sync::Arc;

    fn build(records: &[Value], key: Option<&str>) -> (Schema, ShreddedBatch) {
        let mut b = SchemaBuilder::new(key.map(str::to_string));
        b.observe_all(records.iter());
        let schema = b.into_schema();
        let batch = shred_records(&schema, records);
        (schema, batch)
    }

    fn all_cursors(batch: &ShreddedBatch) -> Vec<ColumnCursor> {
        batch
            .columns
            .iter()
            .map(|c| ColumnCursor::new(Arc::new(c.clone())))
            .collect()
    }

    fn assemble_all(schema: &Schema, batch: &ShreddedBatch) -> Vec<Value> {
        let mut asm = Assembler::new(schema, all_cursors(batch), batch.record_count);
        let mut out = Vec::new();
        while let Some(r) = asm.next_record() {
            out.push(r.unwrap());
        }
        out
    }

    /// Order-insensitive comparison of documents (assembly restores fields in
    /// schema order, which may differ from the input order).
    fn assert_equivalent(a: &Value, b: &Value) {
        fn sorted(v: &Value) -> Value {
            match v {
                Value::Object(fields) => {
                    let mut fs: Vec<(String, Value)> =
                        fields.iter().map(|(k, v)| (k.clone(), sorted(v))).collect();
                    fs.sort_by(|x, y| x.0.cmp(&y.0));
                    Value::Object(fs)
                }
                Value::Array(elems) => Value::Array(elems.iter().map(sorted).collect()),
                other => other.clone(),
            }
        }
        assert_eq!(sorted(a), sorted(b), "\nleft:  {a}\nright: {b}");
    }

    #[test]
    fn roundtrip_figure4_records() {
        let records = vec![
            doc!({"id": 0, "games": [{"title": "NFL"}]}),
            doc!({
                "id": 1,
                "name": {"last": "Brown"},
                "games": [{"title": "FIFA", "consoles": ["PC", "PS4"]}]
            }),
            doc!({
                "id": 2,
                "name": {"first": "John", "last": "Smith"},
                "games": [
                    {"title": "NBA", "consoles": ["PS4", "PC"]},
                    {"title": "NFL", "consoles": ["XBOX"]}
                ]
            }),
            doc!({"id": 3}),
        ];
        let (schema, batch) = build(&records, Some("id"));
        let assembled = assemble_all(&schema, &batch);
        assert_eq!(assembled.len(), 4);
        for (orig, back) in records.iter().zip(&assembled) {
            assert_equivalent(orig, back);
        }
    }

    #[test]
    fn roundtrip_figure6_heterogeneous_records() {
        let records = vec![
            doc!({"name": "John", "games": ["NBA", ["FIFA", "PES"], "NFL"]}),
            doc!({"name": {"first": "Ann", "last": "Brown"}, "games": ["NFL", "NBA"]}),
        ];
        let (schema, batch) = build(&records, None);
        let assembled = assemble_all(&schema, &batch);
        for (orig, back) in records.iter().zip(&assembled) {
            assert_equivalent(orig, back);
        }
    }

    #[test]
    fn roundtrip_empty_and_nested_arrays() {
        let records = vec![
            doc!({"id": 1, "xs": []}),
            doc!({"id": 2, "xs": [[1, 2], [3]]}),
            doc!({"id": 3, "xs": [[]]}),
            doc!({"id": 4}),
            doc!({"id": 5, "xs": [[4]]}),
        ];
        let (schema, batch) = build(&records, Some("id"));
        let assembled = assemble_all(&schema, &batch);
        for (orig, back) in records.iter().zip(&assembled) {
            assert_equivalent(orig, back);
        }
    }

    #[test]
    fn roundtrip_mixed_types_and_scalars() {
        let records = vec![
            doc!({"id": 1, "v": 10, "meta": {"tag": "a", "score": 1.5, "ok": true}}),
            doc!({"id": 2, "v": "ten", "meta": {"tag": "b", "score": 2.5, "ok": false}}),
            doc!({"id": 3, "v": [1, 2], "extra": "only here"}),
            doc!({"id": 4, "v": {"nested": 1}}),
        ];
        let (schema, batch) = build(&records, Some("id"));
        let assembled = assemble_all(&schema, &batch);
        for (orig, back) in records.iter().zip(&assembled) {
            assert_equivalent(orig, back);
        }
    }

    #[test]
    fn nulls_and_empty_containers_assemble_exactly() {
        // One batch per group; every record comes back as written.
        let groups = [
            vec![
                doc!({"id": 1, "n": null}),
                doc!({"id": 2, "tags": []}),
                doc!({"id": 3, "o": {}}),
                doc!({"id": 4, "a": [[]]}),
                doc!({"id": 5, "a": [{}]}),
                doc!({"id": 6}),
            ],
            vec![doc!({"id": 1, "n": 1}), doc!({"id": 2, "n": null})],
            vec![
                doc!({"id": 1, "a": [1, null, 2]}),
                doc!({"id": 2, "a": [null]}),
            ],
            vec![doc!({"id": 1, "o": {"x": 1}}), doc!({"id": 2, "o": {}})],
            vec![doc!({"id": 1, "d": [[[], true]]})],
            vec![doc!({"id": 1, "d": [[[]], {"a": 1}]})],
            vec![
                doc!({"id": 1, "d": [[[], true], {"c": {}, "a": false}]}),
                doc!({"id": 2, "d": [{"c": {}, "a": false}]}),
                doc!({"id": 3, "d": [[], {}, null, [null, [[]]]]}),
            ],
        ];
        for records in groups {
            let (schema, batch) = build(&records, Some("id"));
            let assembled = assemble_all(&schema, &batch);
            assert_eq!(assembled.len(), records.len());
            for (orig, back) in records.iter().zip(&assembled) {
                assert_equivalent(orig, back);
            }
        }
    }

    #[test]
    fn projection_only_touches_requested_columns() {
        let records = vec![
            doc!({"id": 0, "games": [{"title": "NFL"}]}),
            doc!({
                "id": 1,
                "name": {"last": "Brown"},
                "games": [{"title": "FIFA", "consoles": ["PC", "PS4"]}]
            }),
            doc!({"id": 3}),
        ];
        let (schema, batch) = build(&records, Some("id"));
        // Project only games[*].title (plus nothing else).
        let title_cursor = batch
            .columns
            .iter()
            .find(|c| c.spec.path == Path::parse("games[*].title"))
            .map(|c| ColumnCursor::new(Arc::new(c.clone())))
            .unwrap();
        let mut asm = Assembler::new(&schema, vec![title_cursor], batch.record_count);
        let r0 = asm.next_record().unwrap().unwrap();
        assert_equivalent(&r0, &doc!({"games": [{"title": "NFL"}]}));
        let r1 = asm.next_record().unwrap().unwrap();
        assert_equivalent(&r1, &doc!({"games": [{"title": "FIFA"}]}));
        let r2 = asm.next_record().unwrap().unwrap();
        assert_equivalent(&r2, &doc!({}));
        assert!(asm.next_record().is_none());
    }

    #[test]
    fn skip_records_keeps_alignment() {
        let records = vec![
            doc!({"id": 0, "games": [{"title": "A"}, {"title": "B"}]}),
            doc!({"id": 1, "games": [{"title": "C"}]}),
            doc!({"id": 2, "games": [{"title": "D"}, {"title": "E"}, {"title": "F"}]}),
        ];
        let (schema, batch) = build(&records, Some("id"));
        let mut asm = Assembler::new(&schema, all_cursors(&batch), batch.record_count);
        asm.skip_records(2);
        assert_eq!(asm.records_remaining(), 1);
        let r2 = asm.next_record().unwrap().unwrap();
        assert_equivalent(&r2, &records[2]);
        assert!(asm.next_record().is_none());
    }

    #[test]
    fn antimatter_records_assemble_empty() {
        let records = [doc!({"id": 1, "x": "a"})];
        let mut b = SchemaBuilder::new(Some("id".to_string()));
        b.observe_all(records.iter());
        let schema = b.into_schema();
        let mut shredder = crate::shred::Shredder::new(&schema);
        shredder.shred(&records[0]);
        shredder.shred_antimatter(&Value::Int(42));
        let batch = shredder.finish();
        let mut asm = Assembler::new(&schema, all_cursors(&batch), batch.record_count);
        let first = asm.next_record().unwrap().unwrap();
        assert_equivalent(&first, &records[0]);
        // Anti-matter: the key column's def is 0, so the record assembles to
        // an empty object (the LSM layer uses the key cursor to recognise the
        // tombstone and never surfaces it to queries).
        let tomb = asm.next_record().unwrap().unwrap();
        assert_equivalent(&tomb, &doc!({}));
    }
}
