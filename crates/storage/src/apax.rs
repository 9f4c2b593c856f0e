//! The APAX page layout (§4.2, Figure 8).
//!
//! An APAX page is a B+-tree leaf page in which every column of the records
//! covered by the page occupies a contiguous *minipage*. The page header
//! carries the tuple count, the column count and the minimum/maximum primary
//! key, so B+-tree operations never need to decode the key minipage.
//!
//! Because every column of every record lives in the same page, a scan that
//! needs two columns still reads the whole page — APAX saves CPU (decode only
//! the needed minipages) but not I/O, which is exactly the trade-off the
//! evaluation observes against AMAX. Each minipage carries its own codec
//! ([`ColumnChunk::encode`]) and the page is stored as written, so a
//! minipage is decoded straight out of the page the buffer cache holds.

use std::collections::HashMap;

use columnar::{ColumnChunk, ShreddedBatch};
use docmodel::Value;
use encoding::{varint, DecodeError};
use schema::{ColumnId, ColumnSpec};

use crate::rowformat::RowFormat;
use crate::Result;

/// Decoded header of an APAX page.
#[derive(Debug, Clone, PartialEq)]
pub struct ApaxHeader {
    /// Number of records covered by the page.
    pub record_count: usize,
    /// Number of minipages (columns) stored.
    pub column_count: usize,
    /// Minimum primary key in the page.
    pub min_key: Value,
    /// Maximum primary key in the page.
    pub max_key: Value,
}

/// Encode a shredded batch as one APAX page payload.
///
/// Layout: header, then a column directory (`column id`, `offset`, `length`)
/// and finally the concatenated encoded minipages. The directory plays the
/// role of the "relative pointers stored in the page header" of Figure 8.
pub fn encode_apax_page(batch: &ShreddedBatch, min_key: &Value, max_key: &Value) -> Vec<u8> {
    let mut minipages: Vec<(ColumnId, Vec<u8>)> = Vec::with_capacity(batch.columns.len());
    for chunk in &batch.columns {
        let mut bytes = Vec::new();
        chunk.encode(&mut bytes);
        minipages.push((chunk.spec.id, bytes));
    }

    let mut out = Vec::new();
    varint::write_u64(&mut out, batch.record_count as u64);
    varint::write_u64(&mut out, minipages.len() as u64);
    RowFormat::Vb.serialize(min_key, &mut out);
    RowFormat::Vb.serialize(max_key, &mut out);
    // Directory.
    let mut offset = 0u64;
    for (id, bytes) in &minipages {
        varint::write_u64(&mut out, u64::from(*id));
        varint::write_u64(&mut out, offset);
        varint::write_u64(&mut out, bytes.len() as u64);
        offset += bytes.len() as u64;
    }
    for (_, bytes) in &minipages {
        out.extend_from_slice(bytes);
    }
    out
}

/// Decode only the header of an APAX page.
pub fn decode_apax_header(buf: &[u8]) -> Result<ApaxHeader> {
    let mut pos = 0usize;
    let record_count = varint::read_u64(buf, &mut pos)? as usize;
    let column_count = varint::read_u64(buf, &mut pos)? as usize;
    let min_key = RowFormat::Vb.deserialize(buf, &mut pos)?;
    let max_key = RowFormat::Vb.deserialize(buf, &mut pos)?;
    Ok(ApaxHeader {
        record_count,
        column_count,
        min_key,
        max_key,
    })
}

/// Decode the requested columns (or all columns when `projection` is `None`)
/// from an APAX page payload. The caller provides the specs from the
/// component's persisted schema; minipages of unprojected columns are left
/// untouched (the CPU saving of APAX).
pub fn decode_apax_columns(
    buf: &[u8],
    specs: &HashMap<ColumnId, ColumnSpec>,
    projection: Option<&[ColumnId]>,
) -> Result<(ApaxHeader, Vec<ColumnChunk>)> {
    let mut pos = 0usize;
    let record_count = varint::read_u64(buf, &mut pos)? as usize;
    let column_count = varint::read_u64(buf, &mut pos)?;
    let min_key = RowFormat::Vb.deserialize(buf, &mut pos)?;
    let max_key = RowFormat::Vb.deserialize(buf, &mut pos)?;
    let column_count = encoding::check_count(column_count, buf, pos)?;
    let mut directory = Vec::with_capacity(column_count);
    for _ in 0..column_count {
        let id = varint::read_u64(buf, &mut pos)? as ColumnId;
        let offset = varint::read_u64(buf, &mut pos)? as usize;
        let len = varint::read_u64(buf, &mut pos)? as usize;
        directory.push((id, offset, len));
    }
    let payload_start = pos;

    let mut chunks = Vec::new();
    for (id, offset, len) in directory {
        let wanted = match projection {
            Some(ids) => ids.contains(&id),
            None => true,
        };
        if !wanted {
            continue;
        }
        let Some(spec) = specs.get(&id) else {
            // A column unknown to the reader's schema snapshot; skip it.
            continue;
        };
        let minipage = payload_start
            .checked_add(offset)
            .and_then(|start| Some(start..start.checked_add(len)?))
            .and_then(|range| buf.get(range))
            .ok_or_else(|| DecodeError::new("APAX minipage out of bounds"))?;
        let chunk = ColumnChunk::decode(spec.clone(), minipage, &mut 0)?;
        chunks.push(chunk);
    }
    Ok((
        ApaxHeader {
            record_count,
            column_count,
            min_key,
            max_key,
        },
        chunks,
    ))
}

/// Extract `(min, max)` primary keys from the key chunk of a batch (records
/// are sorted by key, so these are the first and last values).
pub fn key_bounds(batch: &ShreddedBatch) -> Option<(Value, Value)> {
    let key_chunk = batch.columns.iter().find(|c| c.spec.is_key)?;
    if key_chunk.values.is_empty() {
        return None;
    }
    Some((
        key_chunk.values.get(0),
        key_chunk.values.get(key_chunk.values.len() - 1),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use columnar::Shredder;
    use docmodel::doc;
    use schema::{columns_of, SchemaBuilder};

    fn sample_batch() -> (schema::Schema, ShreddedBatch) {
        let records = vec![
            doc!({"id": 1, "name": "a", "score": 1.5, "tags": ["x"]}),
            doc!({"id": 2, "name": "b", "score": 2.5, "tags": ["y", "z"]}),
            doc!({"id": 3, "name": "c", "score": 3.5}),
        ];
        let mut b = SchemaBuilder::new(Some("id".to_string()));
        b.observe_all(records.iter());
        let schema = b.into_schema();
        let batch = {
            let mut shredder = Shredder::new(&schema);
            for r in &records {
                shredder.shred(r);
            }
            shredder.finish()
        };
        (schema, batch)
    }

    #[test]
    fn page_roundtrip_all_columns() {
        let (schema, batch) = sample_batch();
        let (min, max) = key_bounds(&batch).unwrap();
        let page = encode_apax_page(&batch, &min, &max);
        let specs: HashMap<ColumnId, ColumnSpec> =
            columns_of(&schema).into_iter().map(|s| (s.id, s)).collect();

        let header = decode_apax_header(&page).unwrap();
        assert_eq!(header.record_count, 3);
        assert_eq!(header.min_key, Value::Int(1));
        assert_eq!(header.max_key, Value::Int(3));

        let (_, chunks) = decode_apax_columns(&page, &specs, None).unwrap();
        assert_eq!(chunks.len(), batch.columns.len());
        for (decoded, original) in chunks.iter().zip(&batch.columns) {
            assert_eq!(decoded, original);
        }
    }

    #[test]
    fn projection_decodes_only_requested_columns() {
        let (schema, batch) = sample_batch();
        let (min, max) = key_bounds(&batch).unwrap();
        let page = encode_apax_page(&batch, &min, &max);
        let specs: HashMap<ColumnId, ColumnSpec> =
            columns_of(&schema).into_iter().map(|s| (s.id, s)).collect();
        let key_id = columns_of(&schema).iter().find(|c| c.is_key).unwrap().id;
        let (_, chunks) = decode_apax_columns(&page, &specs, Some(&[key_id])).unwrap();
        assert_eq!(chunks.len(), 1);
        assert!(chunks[0].spec.is_key);
    }

    #[test]
    fn corrupt_page_is_an_error() {
        let (schema, batch) = sample_batch();
        let (min, max) = key_bounds(&batch).unwrap();
        let page = encode_apax_page(&batch, &min, &max);
        let specs: HashMap<ColumnId, ColumnSpec> =
            columns_of(&schema).into_iter().map(|s| (s.id, s)).collect();
        assert!(decode_apax_header(&page[..1]).is_err());
        assert!(decode_apax_columns(&page[..page.len() / 2], &specs, None).is_err());
    }
}
