//! The shredder: schema-driven decomposition of records into columns.
//!
//! The shredder walks a record and the inferred schema *together* and emits,
//! for every column, a stream of definition-level entries plus values. The
//! walk implements the paper's extended Dremel semantics:
//!
//! * a leaf whose path is fully present records its maximum definition level
//!   and a value — a `null` too, on its `Null` column, which stores the
//!   level alone;
//! * a container seen only empty is a column of its own
//!   ([`schema::columns_of`]): a present `[]` or `{}` records its level
//!   there, so every present value reaches its own level on some column
//!   beneath it;
//! * a leaf whose path is cut short (missing field, absent union branch)
//!   records the definition level of the deepest present ancestor — for an
//!   absent union branch that is the level *above* the union, because union
//!   nodes are logical guides that do not count (§3.2.2);
//! * when a non-empty array instance at nesting depth `k` ends, a delimiter
//!   entry with value `k` is appended to every column beneath it; if an
//!   enclosing array ends at the same point the inner delimiter is replaced
//!   by the outer one ("the delimiter 0 also encompasses the inner delimiter
//!   1", §3.2.1);
//! * anti-matter entries record the deleted key with definition level 0 on
//!   the primary-key column and an "absent" entry on every other column
//!   (§3.2.3), keeping all columns aligned record-by-record.

use std::borrow::Cow;
use std::ops::Range;

use docmodel::Value;
use schema::node::{BranchKind, SchemaNode};
use schema::{columns_of, ColumnId, NodeId, Schema};

use crate::chunk::ColumnChunk;

/// The result of shredding a batch of records: one chunk per column plus the
/// number of records covered.
#[derive(Debug, Clone)]
pub struct ShreddedBatch {
    /// Column chunks, in the order produced by [`schema::columns_of`] (the
    /// primary-key column first).
    pub columns: Vec<ColumnChunk>,
    /// Number of records (including anti-matter entries) in the batch.
    pub record_count: usize,
}

impl ShreddedBatch {
    /// Find a chunk by column id.
    pub fn column(&self, id: ColumnId) -> Option<&ColumnChunk> {
        self.columns.iter().find(|c| c.spec.id == id)
    }

    /// Total in-memory footprint of all chunks.
    pub fn approx_bytes(&self) -> usize {
        self.columns.iter().map(ColumnChunk::approx_bytes).sum()
    }

    /// The primary-key chunk, when the schema has one.
    pub fn key_column(&self) -> Option<&ColumnChunk> {
        self.columns.iter().find(|c| c.spec.is_key)
    }

    /// A copy of the records in `records`, column by column: each chunk's
    /// two record boundaries are located once and the entries between them
    /// are copied in one go ([`ColumnChunk::extend_from`]).
    pub fn slice(&self, records: Range<usize>) -> ShreddedBatch {
        let columns = self
            .columns
            .iter()
            .map(|src| {
                let mut out = ColumnChunk::new(src.spec.clone());
                let from = src.record_pos(records.start);
                let mut to = from;
                src.skip_records(&mut to, records.len());
                out.extend_from(src, from, to);
                out
            })
            .collect();
        ShreddedBatch {
            columns,
            record_count: records.len(),
        }
    }
}

/// What the walk passes down for each schema node while shredding a record.
#[derive(Clone, Copy)]
enum Slot<'v> {
    /// The value at this position is present.
    Present(&'v Value),
    /// Nothing is present at or below this position; every leaf beneath
    /// records the given definition level.
    Absent(u16),
}

/// Schema-driven shredder. Create one per flush (or per component writer),
/// feed it records, then call [`Shredder::finish`] — or
/// [`Shredder::take_batch`] once per leaf and keep going.
pub struct Shredder<'s> {
    schema: Cow<'s, Schema>,
    buffers: ShredBuffers,
}

/// The shredder's mutable half, kept apart from the schema so the walk can
/// read one while writing the other.
struct ShredBuffers {
    columns: Vec<ColumnChunk>,
    /// Per schema node: the index (into `columns`) of the node's own column.
    index_of: Vec<Option<usize>>,
    /// Per schema node: the indexes (into `columns`) of the columns at or
    /// beneath it. Used to broadcast absent entries and delimiters.
    leaves_under: Vec<Vec<usize>>,
    /// Per column: whether the last entry appended for the current record was
    /// a delimiter (needed for the subsumption rule).
    last_was_delim: Vec<bool>,
    record_count: usize,
}

impl<'s> Shredder<'s> {
    /// Create a shredder for the given (already inferred) schema.
    pub fn new(schema: &'s Schema) -> Shredder<'s> {
        Shredder::over(Cow::Borrowed(schema))
    }

    /// Like [`Shredder::new`], owning its schema — for writers that outlive
    /// the borrow they were handed the schema under.
    pub fn owning(schema: Schema) -> Shredder<'static> {
        Shredder::over(Cow::Owned(schema))
    }

    fn over(schema: Cow<'s, Schema>) -> Shredder<'s> {
        let specs = columns_of(&schema);
        let mut index_of = vec![None; schema.node_count()];
        let mut columns = Vec::with_capacity(specs.len());
        for (i, spec) in specs.into_iter().enumerate() {
            index_of[spec.id as usize] = Some(i);
            columns.push(ColumnChunk::new(spec));
        }
        let mut leaves_under = vec![Vec::new(); schema.node_count()];
        collect_leaves(&schema, schema.root(), &index_of, &mut leaves_under);
        let n = columns.len();
        Shredder {
            schema,
            buffers: ShredBuffers {
                columns,
                index_of,
                leaves_under,
                last_was_delim: vec![false; n],
                record_count: 0,
            },
        }
    }

    /// The chunks accumulated so far, in [`schema::columns_of`] order.
    pub fn columns(&self) -> &[ColumnChunk] {
        &self.buffers.columns
    }

    /// Number of records shredded so far.
    pub fn record_count(&self) -> usize {
        self.buffers.record_count
    }

    /// Current in-memory footprint of the accumulated chunks.
    pub fn approx_bytes(&self) -> usize {
        self.buffers
            .columns
            .iter()
            .map(ColumnChunk::approx_bytes)
            .sum()
    }

    /// Shred one record. The record must be an object; its fields must be
    /// covered by the schema (which is guaranteed when the schema was
    /// inferred from the same records, as the tuple compactor does).
    pub fn shred(&mut self, record: &Value) {
        self.buffers.begin_record();
        let root = self.schema.root();
        self.buffers
            .walk(&self.schema, root, 0, 0, Slot::Present(record));
    }

    /// Shred an anti-matter (delete) entry for `key`: the primary-key column
    /// records the key with definition level 0, every other column records an
    /// absent entry so that record alignment is preserved.
    pub fn shred_antimatter(&mut self, key: &Value) {
        self.buffers.begin_record();
        for chunk in &mut self.buffers.columns {
            chunk.defs.push(0);
            if chunk.spec.is_key {
                chunk.values.push(key);
            }
        }
    }

    /// Account for `records` records whose column entries `append` writes
    /// straight into the chunks — already-shredded records copied from
    /// another component's chunks (a merge), not walked again. `append` must
    /// leave every column exactly `records` records longer.
    pub fn append_shredded(&mut self, records: usize, append: impl FnOnce(&mut [ColumnChunk])) {
        self.buffers.record_count += records;
        append(&mut self.buffers.columns);
    }

    /// Finish shredding and return the accumulated batch.
    pub fn finish(self) -> ShreddedBatch {
        ShreddedBatch {
            columns: self.buffers.columns,
            record_count: self.buffers.record_count,
        }
    }

    /// Take the accumulated chunks, leaving the shredder empty and ready for
    /// the next leaf's worth of records (the component writer reuses one
    /// shredder across its leaves this way, §4.5.1).
    pub fn take_batch(&mut self) -> ShreddedBatch {
        let buffers = &mut self.buffers;
        let fresh = buffers
            .columns
            .iter()
            .map(|c| ColumnChunk::new(c.spec.clone()))
            .collect();
        ShreddedBatch {
            columns: std::mem::replace(&mut buffers.columns, fresh),
            record_count: std::mem::take(&mut buffers.record_count),
        }
    }
}

impl ShredBuffers {
    fn begin_record(&mut self) {
        self.record_count += 1;
        self.last_was_delim.iter_mut().for_each(|b| *b = false);
    }

    fn walk(
        &mut self,
        schema: &Schema,
        node_id: NodeId,
        level: u16,
        array_depth: u16,
        slot: Slot<'_>,
    ) {
        let v = match slot {
            Slot::Present(v) => v,
            Slot::Absent(def) => return self.absent_under(node_id, def),
        };
        match (schema.node(node_id), v) {
            (SchemaNode::Union { branches }, _) => {
                let value_kind = BranchKind::of(v);
                for (kind, child) in branches {
                    if *kind == value_kind {
                        self.walk(schema, *child, level, array_depth, slot);
                    } else {
                        // Absent branch: the level above the union, because
                        // unions are logical guides (§3.2.2).
                        self.absent_under(*child, level.saturating_sub(1));
                    }
                }
            }
            (SchemaNode::Atomic { ty }, _) if ty.matches(v) => self.present(node_id, v),
            (SchemaNode::Object { fields }, Value::Object(record_fields)) => {
                // An object seen only as `{}` is a column of its own.
                if fields.is_empty() {
                    self.present(node_id, &Value::Null);
                }
                for (name, child) in fields {
                    let child_slot = match record_fields.iter().find(|(k, _)| k == name) {
                        Some((_, v)) => Slot::Present(v),
                        None => Slot::Absent(level),
                    };
                    self.walk(schema, *child, level + 1, array_depth, child_slot);
                }
            }
            // An array seen only as `[]`: its own column.
            (SchemaNode::Array { item: None }, Value::Array(_)) => {
                self.present(node_id, &Value::Null)
            }
            (SchemaNode::Array { item: Some(item) }, Value::Array(elems)) => {
                for elem in elems {
                    self.walk(
                        schema,
                        *item,
                        level + 1,
                        array_depth + 1,
                        Slot::Present(elem),
                    );
                }
                if !elems.is_empty() {
                    self.emit_delimiter(node_id, array_depth);
                } else {
                    // Present but empty: one entry at the array's own level.
                    self.absent_under(node_id, level);
                    // The outermost array always terminates its record
                    // segment with delimiter 0 when it is present, so that a
                    // single column's record boundary is unambiguous (see
                    // ColumnChunk::skip_record).
                    if array_depth == 0 {
                        self.emit_delimiter(node_id, 0);
                    }
                }
            }
            // A kind the schema has no place for: only possible when a record
            // not covered by the schema is shredded; the value is recorded as
            // absent at its parent's level.
            _ => self.absent_under(node_id, level.saturating_sub(1)),
        }
    }

    /// `node`'s own column, if it has one, records a present value: its
    /// maximum level, and `value` (a container's column counts a `null`).
    fn present(&mut self, node: NodeId, value: &Value) {
        if let Some(idx) = self.index_of[node as usize] {
            let chunk = &mut self.columns[idx];
            chunk.defs.push(chunk.spec.max_def);
            chunk.values.push(value);
            self.last_was_delim[idx] = false;
        }
    }

    /// Nothing is present at or below `node`: every leaf column beneath it
    /// records one entry at definition level `def` (the key column, which
    /// stores a value for every entry, only ever gets here on malformed
    /// input and records a placeholder key).
    fn absent_under(&mut self, node: NodeId, def: u16) {
        for &idx in &self.leaves_under[node as usize] {
            let chunk = &mut self.columns[idx];
            chunk.defs.push(def);
            if chunk.spec.is_key {
                chunk.values.push(&Value::Int(0));
            }
            self.last_was_delim[idx] = false;
        }
    }

    /// A non-empty array instance at nesting depth `k` just ended: append
    /// delimiter `k` to every column beneath it, replacing a deeper delimiter
    /// that was just emitted (the subsumption rule).
    fn emit_delimiter(&mut self, array_node: NodeId, k: u16) {
        for &idx in &self.leaves_under[array_node as usize] {
            let chunk = &mut self.columns[idx];
            if self.last_was_delim[idx] {
                let last = chunk
                    .defs
                    .last_mut()
                    .expect("delimiter flag implies at least one entry");
                debug_assert!(*last > k, "delimiters must close outward");
                *last = k;
            } else {
                chunk.defs.push(k);
                self.last_was_delim[idx] = true;
            }
        }
    }
}

/// Convenience: shred a batch of records against a schema in one call.
pub fn shred_records(schema: &Schema, records: &[Value]) -> ShreddedBatch {
    let mut shredder = Shredder::new(schema);
    for r in records {
        shredder.shred(r);
    }
    shredder.finish()
}

fn collect_leaves(
    schema: &Schema,
    node: NodeId,
    index_of: &[Option<usize>],
    out: &mut [Vec<usize>],
) -> Vec<usize> {
    let children: Vec<NodeId> = match schema.node(node) {
        SchemaNode::Atomic { .. } => Vec::new(),
        SchemaNode::Object { fields } => fields.iter().map(|(_, c)| *c).collect(),
        SchemaNode::Array { item } => item.iter().copied().collect(),
        SchemaNode::Union { branches } => branches.iter().map(|(_, c)| *c).collect(),
    };
    let leaves: Vec<usize> = index_of[node as usize]
        .into_iter()
        .chain(
            children
                .into_iter()
                .flat_map(|child| collect_leaves(schema, child, index_of, out)),
        )
        .collect();
    out[node as usize] = leaves.clone();
    leaves
}

#[cfg(test)]
mod tests {
    use super::*;
    use docmodel::doc;
    use schema::SchemaBuilder;

    /// The four records of Figure 4a.
    fn gamer_records() -> Vec<Value> {
        vec![
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
        ]
    }

    fn shred_gamers() -> (Schema, ShreddedBatch) {
        let records = gamer_records();
        let mut b = SchemaBuilder::new(Some("id".to_string()));
        b.observe_all(records.iter());
        let schema = b.into_schema();
        let batch = shred_records(&schema, &records);
        (schema, batch)
    }

    fn chunk_by_path<'a>(batch: &'a ShreddedBatch, path: &str) -> &'a ColumnChunk {
        batch
            .columns
            .iter()
            .find(|c| c.spec.path.to_string() == path)
            .unwrap_or_else(|| panic!("no column {path}"))
    }

    #[test]
    fn figure5_titles_stream() {
        // games[*].title: 3 NFL | 0 -- | 3 FIFA | 0 -- | 3 NBA | 3 NFL | 0 -- | 0 NULL
        let (_, batch) = shred_gamers();
        let titles = chunk_by_path(&batch, "games[*].title");
        assert_eq!(titles.defs, vec![3, 0, 3, 0, 3, 3, 0, 0]);
        assert_eq!(
            titles.values,
            crate::chunk::ColumnValues::String(vec![
                "NFL".into(),
                "FIFA".into(),
                "NBA".into(),
                "NFL".into()
            ])
        );
    }

    #[test]
    fn figure5_consoles_stream() {
        // games[*].consoles[*]:
        // 2 NULL | 0 -- | 4 PC | 4 PS4 | 0 -- | 4 PS4 | 4 PC | 1 -- | 4 XBOX | 0 -- | 0 NULL
        let (_, batch) = shred_gamers();
        let consoles = chunk_by_path(&batch, "games[*].consoles[*]");
        assert_eq!(consoles.defs, vec![2, 0, 4, 4, 0, 4, 4, 1, 4, 0, 0]);
        assert_eq!(
            consoles.values,
            crate::chunk::ColumnValues::String(vec![
                "PC".into(),
                "PS4".into(),
                "PS4".into(),
                "PC".into(),
                "XBOX".into()
            ])
        );
    }

    #[test]
    fn figure4_name_columns() {
        // name.first: 0 NULL | 1 NULL | 2 John | 0 NULL
        // name.last:  0 NULL | 2 Brown | 2 Smith | 0 NULL
        let (_, batch) = shred_gamers();
        let first = chunk_by_path(&batch, "name.first");
        assert_eq!(first.defs, vec![0, 1, 2, 0]);
        let last = chunk_by_path(&batch, "name.last");
        assert_eq!(last.defs, vec![0, 2, 2, 0]);
        assert_eq!(
            last.values,
            crate::chunk::ColumnValues::String(vec!["Brown".into(), "Smith".into()])
        );
    }

    #[test]
    fn key_column_stores_every_record() {
        let (_, batch) = shred_gamers();
        let id = chunk_by_path(&batch, "id");
        assert!(id.spec.is_key);
        assert_eq!(id.defs, vec![1, 1, 1, 1]);
        assert_eq!(
            id.values,
            crate::chunk::ColumnValues::Int(vec![0, 1, 2, 3])
        );
        assert_eq!(batch.record_count, 4);
    }

    #[test]
    fn figure7_union_columns() {
        // The two records of Figure 6 and their columnar representation in
        // Figure 7.
        let records = vec![
            doc!({"name": "John", "games": ["NBA", ["FIFA", "PES"], "NFL"]}),
            doc!({"name": {"first": "Ann", "last": "Brown"}, "games": ["NFL", "NBA"]}),
        ];
        let mut b = SchemaBuilder::new(None);
        b.observe_all(records.iter());
        let schema = b.into_schema();
        let batch = shred_records(&schema, &records);

        // Column 1: name<string> — 1 John | 0 NULL
        let name_str = chunk_by_path(&batch, "name<string>");
        assert_eq!(name_str.defs, vec![1, 0]);
        // Column 2: name<object>.first — 0 NULL | 2 Ann
        let first = chunk_by_path(&batch, "name<object>.first");
        assert_eq!(first.defs, vec![0, 2]);
        // Column 3: name<object>.last — 0 NULL | 2 Brown
        let last = chunk_by_path(&batch, "name<object>.last");
        assert_eq!(last.defs, vec![0, 2]);
        // Column 4: games[*]<string> — 2 NBA | 1 NULL | 2 NFL | 0 -- | 2 NFL | 2 NBA | 0 --
        let games_str = chunk_by_path(&batch, "games[*]<string>");
        assert_eq!(games_str.defs, vec![2, 1, 2, 0, 2, 2, 0]);
        assert_eq!(
            games_str.values,
            crate::chunk::ColumnValues::String(vec![
                "NBA".into(),
                "NFL".into(),
                "NFL".into(),
                "NBA".into()
            ])
        );
        // Column 5: games[*]<array>[*] —
        // 1 NULL | 3 FIFA | 3 PES | 1 -- | 1 NULL | 0 -- | 1 NULL | 1 NULL | 0 --
        let games_arr = chunk_by_path(&batch, "games[*]<array>[*]");
        assert_eq!(games_arr.defs, vec![1, 3, 3, 1, 1, 0, 1, 1, 0]);
        assert_eq!(
            games_arr.values,
            crate::chunk::ColumnValues::String(vec!["FIFA".into(), "PES".into()])
        );
    }

    #[test]
    fn antimatter_entries_align_all_columns() {
        let records = gamer_records();
        let mut b = SchemaBuilder::new(Some("id".to_string()));
        b.observe_all(records.iter());
        let schema = b.into_schema();
        let mut shredder = Shredder::new(&schema);
        shredder.shred(&records[0]);
        shredder.shred_antimatter(&Value::Int(7));
        shredder.shred(&records[3]);
        let batch = shredder.finish();
        assert_eq!(batch.record_count, 3);

        let id = chunk_by_path(&batch, "id");
        assert_eq!(id.defs, vec![1, 0, 1]);
        assert_eq!(id.values, crate::chunk::ColumnValues::Int(vec![0, 7, 3]));

        // Every non-key column has exactly one entry per record.
        let first = chunk_by_path(&batch, "name.first");
        assert_eq!(first.defs.len(), 3);
        let titles = chunk_by_path(&batch, "games[*].title");
        // Record 0 contributes 2 entries (value + delimiter); the anti-matter
        // and the empty record contribute 1 each.
        assert_eq!(titles.defs, vec![3, 0, 0, 0]);
    }

    #[test]
    fn empty_and_nested_arrays() {
        let records = vec![
            doc!({"id": 1, "xs": []}),
            doc!({"id": 2, "xs": [[1, 2], [3]]}),
            doc!({"id": 3, "xs": [[]]}),
            doc!({"id": 4}),
            doc!({"id": 5, "xs": [[4]]}),
        ];
        let mut b = SchemaBuilder::new(Some("id".to_string()));
        b.observe_all(records.iter());
        let schema = b.into_schema();
        let batch = shred_records(&schema, &records);
        let xs = chunk_by_path(&batch, "xs[*][*]");
        // Record 1: xs empty -> def 1 then the record-terminating <0>.
        // Record 2: 3,3,<1>,3,<0>. Record 3: inner empty -> def 2, then <0>.
        // Record 4: missing -> 0. Record 5: 3,<0>.
        assert_eq!(
            xs.defs,
            vec![1, 0, 3, 3, 1, 3, 0, 2, 0, 0, 3, 0]
        );
        assert_eq!(
            xs.values,
            crate::chunk::ColumnValues::Int(vec![1, 2, 3, 4])
        );
    }

    #[test]
    fn nulls_and_empty_containers_are_recorded() {
        let records = vec![
            doc!({"id": 1, "xs": [1, null, 2], "o": {}}),
            doc!({"id": 2, "xs": [null]}),
        ];
        let mut b = SchemaBuilder::new(Some("id".to_string()));
        b.observe_all(records.iter());
        let schema = b.into_schema();
        let batch = shred_records(&schema, &records);
        // The null elements are the `null` branch's; each branch records the
        // level above the union (the array's, 1) where the other is present.
        let ints = chunk_by_path(&batch, "xs[*]<int>");
        assert_eq!(ints.defs, vec![2, 1, 2, 0, 1, 0]);
        let nulls = chunk_by_path(&batch, "xs[*]<null>");
        assert_eq!(nulls.defs, vec![1, 2, 1, 0, 2, 0]);
        assert_eq!(nulls.values, crate::chunk::ColumnValues::Null(2));
        // `{}` is its own column: present at its level, then absent.
        let o = chunk_by_path(&batch, "o");
        assert_eq!(o.defs, vec![1, 0]);
    }

    #[test]
    fn take_batch_resets_the_shredder() {
        let records = gamer_records();
        let mut b = SchemaBuilder::new(Some("id".to_string()));
        b.observe_all(records.iter());
        let schema = b.into_schema();
        let mut shredder = Shredder::new(&schema);
        shredder.shred(&records[0]);
        let first = shredder.take_batch();
        assert_eq!(first.record_count, 1);
        assert_eq!(shredder.record_count(), 0);
        shredder.shred(&records[1]);
        shredder.shred(&records[2]);
        let second = shredder.take_batch();
        assert_eq!(second.record_count, 2);
        // The chunks of the two batches are independent.
        assert_eq!(chunk_by_path(&first, "id").defs.len(), 1);
        assert_eq!(chunk_by_path(&second, "id").defs.len(), 2);
    }

    #[test]
    fn shredded_batch_lookup_and_size() {
        let (schema, batch) = shred_gamers();
        let key = schema::key_column(&schema).unwrap();
        assert!(batch.column(key.id).is_some());
        assert!(batch.column(9999).is_none());
        assert!(batch.approx_bytes() > 0);
    }
}
