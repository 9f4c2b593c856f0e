//! Reading one column without assembling: the column walk over ascending
//! ordinals, and the handle an [`Assembler`](crate::Assembler) is given.
//!
//! Column kernels and pushed filters ask a column about records in
//! ascending ordinal order — a record's value, its array's elements, or
//! the inputs of a run of consecutive records as one value range.
//! [`ColumnWalk`] answers them in one forward pass over the chunk's
//! definition levels: a gap between two ordinals is one batched
//! [`ColumnChunk::skip_records`], never a decode, and a run under one array
//! is counted in blocks of levels, not record by record. Callers see value
//! indexes and value ranges, never a definition level.

use std::ops::Range;
use std::sync::Arc;

use crate::chunk::{ChunkPos, ColumnChunk, ColumnValues};

/// A column chunk handed to [`Assembler::new`](crate::Assembler::new),
/// read from its first record on. The position lives in the assembler.
#[derive(Debug, Clone)]
pub struct ColumnCursor(pub(crate) Arc<ColumnChunk>);

impl ColumnCursor {
    /// A cursor at the first record of `chunk`.
    pub fn new(chunk: Arc<ColumnChunk>) -> ColumnCursor {
        ColumnCursor(chunk)
    }
}

/// One forward pass over one column of a leaf: stands on a record boundary
/// and is asked about ascending ordinals (see the module docs).
#[derive(Debug, Clone)]
pub struct ColumnWalk {
    pub(crate) chunk: Arc<ColumnChunk>,
    pub(crate) pos: ChunkPos,
    /// The record `pos` stands on.
    at: usize,
}

impl ColumnWalk {
    /// A walk standing on the first record of `chunk`.
    pub fn new(chunk: Arc<ColumnChunk>) -> ColumnWalk {
        ColumnWalk {
            chunk,
            pos: ChunkPos::default(),
            at: 0,
        }
    }

    /// The column's values, which the indexes this walk hands out point
    /// into.
    #[inline]
    pub fn values(&self) -> &ColumnValues {
        &self.chunk.values
    }

    #[inline]
    fn seek(&mut self, ordinal: usize) {
        debug_assert!(ordinal >= self.at, "a column walk only goes forward");
        self.chunk.skip_records(&mut self.pos, ordinal - self.at);
        self.at = ordinal;
    }

    /// The index into [`ColumnWalk::values`] of record `ordinal` of a
    /// **non-repeated** column, `None` when the record holds no value
    /// there. The key column holds a value for every record.
    #[inline]
    pub fn value_index(&mut self, ordinal: usize) -> Option<usize> {
        self.seek(ordinal);
        let spec = &self.chunk.spec;
        debug_assert!(!spec.is_repeated());
        (spec.is_key || self.chunk.defs[self.pos.def] == spec.max_def).then_some(self.pos.value)
    }

    /// The array elements of record `ordinal`, and move on to the next
    /// record. For a column under **exactly one** array with no union
    /// between the array and the column, every element of the array owns
    /// exactly one entry, and the values of the elements that hold the
    /// column's field are consecutive: the answer is that range of
    /// [`ColumnWalk::values`] plus the number of elements, those without
    /// the field included. An absent or empty array has no elements. This
    /// is the column-at-a-time form of what assembling the array and
    /// walking it would yield, without building either — and what an
    /// aggregate folds as one slice.
    #[inline]
    pub fn elements(&mut self, ordinal: usize) -> Elements {
        self.seek(ordinal);
        self.at += 1;
        debug_assert_eq!(self.chunk.spec.array_levels.len(), 1);
        let start = self.pos.value;
        let (end, count) = self.chunk.record_end(self.pos);
        self.pos = end;
        Elements {
            values: start..end.value,
            count,
        }
    }

    /// The inputs of the consecutive records `ordinals` as one slice, and
    /// move on past them. For a column under exactly one array: their
    /// [`ColumnWalk::elements`] joined — the values of consecutive records
    /// are consecutive — counted without a step per record
    /// (`ColumnChunk::records_end`). For a non-repeated column, every record
    /// is one input: the values of the records that hold one, and the number
    /// of records.
    #[inline]
    pub fn span(&mut self, ordinals: Range<usize>) -> Elements {
        self.seek(ordinals.start);
        self.at = ordinals.end;
        let start = self.pos.value;
        let count = if self.chunk.spec.is_repeated() {
            let (end, count) = self.chunk.records_end(self.pos, ordinals.len());
            self.pos = end;
            count
        } else {
            self.chunk.skip_records(&mut self.pos, ordinals.len());
            ordinals.len()
        };
        Elements {
            values: start..self.pos.value,
            count,
        }
    }
}

/// One record's elements in a column under exactly one array
/// ([`ColumnWalk::elements`]), or the inputs of a run of records
/// ([`ColumnWalk::span`]).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Elements {
    /// Indexes into the column's values of the inputs that hold one, in
    /// order.
    pub values: Range<usize>,
    /// The inputs, with or without a value: the array's elements (0 for an
    /// absent or empty array), or the records of a non-repeated column.
    pub count: usize,
}

impl Elements {
    /// Inputs that lack the column's field.
    #[inline]
    pub fn lacking(&self) -> usize {
        self.count - self.values.len()
    }
}

/// [`ChunkPos`] moved over a chunk entry by entry (how the automaton
/// reads), record by record and by seek, plus the key column's reads.
#[cfg(test)]
mod tests {
    use super::*;
    use crate::shred::shred_records;
    use docmodel::{doc, Path, Value};
    use schema::SchemaBuilder;

    fn gamer_chunks() -> Vec<ColumnChunk> {
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
        let mut b = SchemaBuilder::new(Some("id".to_string()));
        b.observe_all(records.iter());
        let schema = b.into_schema();
        shred_records(&schema, &records).columns
    }

    fn chunk_for<'a>(chunks: &'a [ColumnChunk], path: &str) -> &'a ColumnChunk {
        chunks
            .iter()
            .find(|c| c.spec.path == Path::parse(path))
            .unwrap()
    }

    /// Consume the entry at `pos`: its definition level, and its value when
    /// it carries one.
    fn next_entry(chunk: &ColumnChunk, pos: &mut ChunkPos) -> Option<(u16, Option<Value>)> {
        let def = chunk.peek(*pos)?;
        let value_at = pos.value;
        chunk.skip_entry(pos);
        Some((
            def,
            (pos.value > value_at).then(|| chunk.values.get(value_at)),
        ))
    }

    #[test]
    fn next_entry_walks_defs_and_values() {
        let chunks = gamer_chunks();
        let titles = chunk_for(&chunks, "games[*].title");
        let mut pos = ChunkPos::default();
        let mut seen_values = Vec::new();
        let mut seen_defs = Vec::new();
        while let Some((def, value)) = next_entry(titles, &mut pos) {
            seen_defs.push(def);
            if let Some(v) = value {
                seen_values.push(v);
            }
        }
        assert_eq!(seen_defs, vec![3, 0, 3, 0, 3, 3, 0, 0]);
        assert_eq!(
            seen_values,
            vec![
                Value::from("NFL"),
                Value::from("FIFA"),
                Value::from("NBA"),
                Value::from("NFL")
            ]
        );
        assert_eq!(pos.def, titles.entry_count());
        assert!(next_entry(titles, &mut pos).is_none());
    }

    #[test]
    fn key_cursor_returns_values_at_def_zero() {
        let records = [doc!({"id": 10})];
        let mut b = SchemaBuilder::new(Some("id".to_string()));
        b.observe_all(records.iter());
        let schema = b.into_schema();
        let mut shredder = crate::shred::Shredder::new(&schema);
        shredder.shred(&records[0]);
        shredder.shred_antimatter(&Value::Int(99));
        let batch = shredder.finish();
        let key_chunk = batch.columns.into_iter().find(|c| c.spec.is_key).unwrap();
        let mut pos = ChunkPos::default();
        assert_eq!(
            next_entry(&key_chunk, &mut pos),
            Some((1, Some(Value::Int(10))))
        );
        assert_eq!(
            next_entry(&key_chunk, &mut pos),
            Some((0, Some(Value::Int(99))))
        );
        // The one anti-matter query, and the key read by ordinal.
        assert!(!key_chunk.is_antimatter(0));
        assert!(key_chunk.is_antimatter(1));
        let mut keys = ColumnWalk::new(Arc::new(key_chunk));
        assert_eq!(
            keys.value_index(1).map(|i| keys.values().get(i)),
            Some(Value::Int(99))
        );
    }

    #[test]
    fn skip_record_respects_boundaries() {
        let chunks = gamer_chunks();

        // Non-repeated column: one entry per record.
        let first = chunk_for(&chunks, "name.first");
        let mut pos = ChunkPos::default();
        first.skip_records(&mut pos, 2);
        assert_eq!(
            next_entry(first, &mut pos),
            Some((2, Some(Value::from("John"))))
        );

        // Repeated column: records span variable numbers of entries.
        let consoles = chunk_for(&chunks, "games[*].consoles[*]");
        let mut pos = ChunkPos::default();
        consoles.skip_records(&mut pos, 2); // records 0 and 1
        let mut defs = Vec::new();
        let mut values = Vec::new();
        while let Some((d, v)) = next_entry(consoles, &mut pos) {
            defs.push(d);
            if let Some(v) = v {
                values.push(v);
            }
            if d == 0 {
                break; // end of record 2
            }
        }
        assert_eq!(defs, vec![4, 4, 1, 4, 0]);
        assert_eq!(
            values,
            vec![Value::from("PS4"), Value::from("PC"), Value::from("XBOX")]
        );
    }

    #[test]
    fn skip_all_records_exhausts_cursor() {
        for chunk in &gamer_chunks() {
            let mut pos = ChunkPos::default();
            chunk.skip_records(&mut pos, 4);
            assert_eq!(
                pos.def,
                chunk.entry_count(),
                "column {} not exhausted",
                chunk.spec.path
            );
            assert_eq!(pos.value, chunk.values.len(), "{}", chunk.spec.path);
            chunk.skip_records(&mut pos, 3); // further skips are harmless
            assert!(next_entry(chunk, &mut pos).is_none());
        }
    }

    #[test]
    fn seek_record_lands_on_record_boundaries_in_any_order() {
        let chunks = gamer_chunks();
        for path in ["id", "name.first", "games[*].title", "games[*].consoles[*]"] {
            let chunk = chunk_for(&chunks, path);
            // The entries of each record, collected by walking.
            let mut walked = ChunkPos::default();
            let mut expected = Vec::new();
            for _ in 0..4 {
                let mut end = walked;
                chunk.skip_record(&mut end);
                let mut entries = Vec::new();
                while walked.def < end.def {
                    entries.push(next_entry(chunk, &mut walked).unwrap());
                }
                expected.push(entries);
            }
            for ordinal in [2usize, 0, 3, 3, 1] {
                let mut seeker = chunk.record_pos(ordinal);
                for entry in &expected[ordinal] {
                    assert_eq!(
                        next_entry(chunk, &mut seeker).as_ref(),
                        Some(entry),
                        "{path} record {ordinal}"
                    );
                }
            }
            // Past the last record: exhausted, not a panic.
            for ordinal in [4, 400] {
                assert_eq!(chunk.record_pos(ordinal).def, chunk.entry_count(), "{path}");
            }
        }
    }

    #[test]
    fn peek_does_not_consume() {
        let chunks = gamer_chunks();
        let id = chunk_for(&chunks, "id");
        let mut pos = ChunkPos::default();
        assert_eq!(id.peek(pos), Some(1));
        assert_eq!(id.peek(pos), Some(1));
        assert_eq!(pos, ChunkPos::default());
        next_entry(id, &mut pos);
        assert_eq!(id.entry_count() - pos.def, 3);
    }
}
