//! Column cursors: entry-at-a-time iteration over a [`ColumnChunk`].
//!
//! Cursors are what the LSM read path and the assembler work with. They
//! support the batched skipping described in §4.4: during reconciliation,
//! records overridden by newer components are *counted* and all affected
//! cursors are advanced in one go, per column, instead of being decoded and
//! discarded one value at a time.

use std::sync::Arc;

use docmodel::Value;
use schema::ColumnSpec;

use crate::chunk::{ChunkPos, ColumnChunk};

/// A cursor over one column chunk.
#[derive(Debug, Clone)]
pub struct ColumnCursor {
    chunk: Arc<ColumnChunk>,
    pos: ChunkPos,
}

impl ColumnCursor {
    /// Create a cursor positioned at the first entry.
    pub fn new(chunk: Arc<ColumnChunk>) -> ColumnCursor {
        ColumnCursor {
            chunk,
            pos: ChunkPos::default(),
        }
    }

    /// The column's metadata.
    pub fn spec(&self) -> &ColumnSpec {
        &self.chunk.spec
    }

    /// Number of entries not yet consumed.
    pub fn remaining_entries(&self) -> usize {
        self.chunk.defs.len() - self.pos.def
    }

    /// `true` when every entry has been consumed.
    pub fn is_exhausted(&self) -> bool {
        self.pos.def >= self.chunk.defs.len()
    }

    /// Peek at the next entry's definition level without consuming it.
    pub fn peek_def(&self) -> Option<u16> {
        self.chunk.defs.get(self.pos.def).copied()
    }

    /// Consume the next entry, returning `(definition level, value)`. The
    /// value is present when the definition level equals the column maximum —
    /// or always, for the primary-key column (anti-matter entries store the
    /// deleted key at definition level 0, §3.2.3).
    pub fn next_entry(&mut self) -> Option<(u16, Option<Value>)> {
        let def = self.peek_def()?;
        let value_at = self.pos.value;
        self.chunk.skip_entry(&mut self.pos);
        let value = (self.pos.value > value_at).then(|| self.chunk.values.get(value_at));
        Some((def, value))
    }

    /// Consume the next entry, discarding its value (cheaper bookkeeping for
    /// absent/delimiter consumption during assembly).
    pub fn skip_entry(&mut self) {
        self.chunk.skip_entry(&mut self.pos);
    }

    /// Skip the entries of exactly one record (a single entry for a
    /// non-repeated column or an absent outermost array, otherwise the run
    /// up to and including the record's terminating delimiter `0`).
    pub fn skip_record(&mut self) {
        self.chunk.skip_record(&mut self.pos);
    }

    /// Skip `n` records (the batched advance used by LSM reconciliation).
    pub fn skip_records(&mut self, n: usize) {
        self.chunk.skip_records(&mut self.pos, n);
    }

    /// Position the cursor at the first entry of record `ordinal`, wherever
    /// it stood before (exhausted when the chunk has fewer records). Backed
    /// by the chunk's sparse record-offset index, which the first seek on a
    /// chunk builds and every later cursor over the same chunk shares — the
    /// §4.6 point-lookup path, where only the needed columns move and only
    /// as far as the one record wanted.
    pub fn seek_record(&mut self, ordinal: usize) {
        self.pos = self.chunk.record_pos(ordinal);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shred::shred_records;
    use docmodel::{doc, Path};
    use schema::SchemaBuilder;

    fn gamer_cursors() -> Vec<ColumnCursor> {
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
        let batch = shred_records(&schema, &records);
        batch
            .columns
            .into_iter()
            .map(|c| ColumnCursor::new(Arc::new(c)))
            .collect()
    }

    fn cursor_for(cursors: &[ColumnCursor], path: &str) -> ColumnCursor {
        cursors
            .iter()
            .find(|c| c.spec().path == Path::parse(path))
            .unwrap()
            .clone()
    }

    #[test]
    fn next_entry_walks_defs_and_values() {
        let cursors = gamer_cursors();
        let mut titles = cursor_for(&cursors, "games[*].title");
        let mut seen_values = Vec::new();
        let mut seen_defs = Vec::new();
        while let Some((def, value)) = titles.next_entry() {
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
        assert!(titles.is_exhausted());
        assert!(titles.next_entry().is_none());
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
        let mut cur = ColumnCursor::new(Arc::new(key_chunk));
        assert_eq!(cur.next_entry(), Some((1, Some(Value::Int(10)))));
        assert_eq!(cur.next_entry(), Some((0, Some(Value::Int(99)))));
    }

    #[test]
    fn skip_record_respects_boundaries() {
        let cursors = gamer_cursors();

        // Non-repeated column: one entry per record.
        let mut first = cursor_for(&cursors, "name.first");
        first.skip_records(2);
        assert_eq!(first.next_entry(), Some((2, Some(Value::from("John")))));

        // Repeated column: records span variable numbers of entries.
        let mut consoles = cursor_for(&cursors, "games[*].consoles[*]");
        consoles.skip_records(2); // records 0 and 1
        let mut defs = Vec::new();
        let mut values = Vec::new();
        while let Some((d, v)) = consoles.next_entry() {
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
        let cursors = gamer_cursors();
        for mut cur in cursors {
            cur.skip_records(4);
            assert!(cur.is_exhausted(), "column {} not exhausted", cur.spec().path);
            cur.skip_records(3); // further skips are harmless
            assert!(cur.next_entry().is_none());
        }
    }

    #[test]
    fn seek_record_lands_on_record_boundaries_in_any_order() {
        let cursors = gamer_cursors();
        for path in ["id", "name.first", "games[*].title", "games[*].consoles[*]"] {
            let mut walked = cursor_for(&cursors, path);
            // The entries of each record, collected by walking.
            let mut expected = Vec::new();
            for _ in 0..4 {
                let mut probe = walked.clone();
                probe.skip_record();
                let mut entries = Vec::new();
                while walked.remaining_entries() > probe.remaining_entries() {
                    entries.push(walked.next_entry().unwrap());
                }
                expected.push(entries);
            }
            let mut seeker = cursor_for(&cursors, path);
            for ordinal in [2usize, 0, 3, 3, 1] {
                seeker.seek_record(ordinal);
                for entry in &expected[ordinal] {
                    assert_eq!(
                        seeker.next_entry().as_ref(),
                        Some(entry),
                        "{path} record {ordinal}"
                    );
                }
            }
            // Past the last record: exhausted, not a panic.
            seeker.seek_record(4);
            assert!(seeker.is_exhausted(), "{path}");
            seeker.seek_record(400);
            assert!(seeker.is_exhausted(), "{path}");
        }
    }

    #[test]
    fn peek_does_not_consume() {
        let cursors = gamer_cursors();
        let mut id = cursor_for(&cursors, "id");
        assert_eq!(id.peek_def(), Some(1));
        assert_eq!(id.peek_def(), Some(1));
        assert_eq!(id.remaining_entries(), 4);
        id.next_entry();
        assert_eq!(id.remaining_entries(), 3);
    }
}
