//! The AMAX mega-leaf layout (§4.3, Figure 9).
//!
//! An AMAX *mega leaf node* covers up to a configured number of records
//! (15,000 by default, §4.5.2) and consists of:
//!
//! * **Page 0** — the header (tuple count, column count), a per-column
//!   directory with the column's location and its min/max values (the zone
//!   map used to skip leaves that cannot satisfy a predicate), and the
//!   encoded primary keys;
//! * **megapages** — one per column, spanning as many physical data pages as
//!   the column needs. Megapages are written from the largest column to the
//!   smallest so small columns can share the last partially-filled page of a
//!   larger one, subject to the `empty-page-tolerance` knob: if the next
//!   column does not fit in the space left on the current page and that
//!   space is no more than the tolerated fraction, the page is closed and
//!   left partially empty.
//!
//! The payoff is that a query touching `k` columns reads Page 0 plus only the
//! physical pages spanned by those `k` megapages — `COUNT(*)` reads Page 0
//! alone, which is the paper's headline order-of-magnitude result.

use columnar::{ColumnChunk, ShreddedBatch};
use docmodel::Value;
use encoding::{varint, DecodeError};
use schema::{ColumnId, ColumnSpec};

use crate::rowformat::RowFormat;
use crate::Result;

/// Tuning knobs of the AMAX writer.
#[derive(Debug, Clone, Copy)]
pub struct AmaxConfig {
    /// Maximum number of records per mega leaf (Page 0 must hold all keys).
    pub record_limit: usize,
    /// Fraction of a physical page the writer may leave empty rather than
    /// splitting the next column across a page boundary.
    pub empty_page_tolerance: f64,
}

impl Default for AmaxConfig {
    fn default() -> Self {
        AmaxConfig {
            record_limit: 15_000,
            empty_page_tolerance: 0.2,
        }
    }
}

/// Location and statistics of one column's megapage within a mega leaf.
#[derive(Debug, Clone, PartialEq)]
pub struct AmaxColumnLocation {
    /// The column.
    pub column_id: ColumnId,
    /// Index (within the leaf's data pages) of the page where the megapage
    /// starts.
    pub start_page: usize,
    /// Byte offset within that page.
    pub start_offset: usize,
    /// Total encoded length in bytes.
    pub len: usize,
    /// Minimum value stored in the column (zone map), if any value exists.
    pub min: Option<Value>,
    /// Maximum value stored in the column (zone map), if any value exists.
    pub max: Option<Value>,
}

impl AmaxColumnLocation {
    /// Indexes of the data pages this megapage spans.
    pub fn pages_spanned(&self, page_budget: usize) -> std::ops::Range<usize> {
        if self.len == 0 {
            return self.start_page..self.start_page;
        }
        let mut end_page = self.start_page;
        let mut remaining = self.len;
        let mut available = page_budget - self.start_offset;
        while remaining > available {
            remaining -= available;
            end_page += 1;
            available = page_budget;
        }
        self.start_page..end_page + 1
    }
}

/// Decoded Page 0 header of a mega leaf.
#[derive(Debug, Clone, PartialEq)]
pub struct AmaxLeafHeader {
    /// Number of records covered by the leaf.
    pub record_count: usize,
    /// Per-column megapage directory.
    pub columns: Vec<AmaxColumnLocation>,
    /// Byte offset within Page 0 where the encoded key chunk begins.
    pub key_chunk_offset: usize,
}

/// Encode a shredded batch as one mega leaf: `(page0_payload, data_pages)`.
///
/// `page_budget` is the usable payload size of one physical page.
pub fn encode_amax_leaf(
    batch: &ShreddedBatch,
    page_budget: usize,
    config: &AmaxConfig,
) -> (Vec<u8>, Vec<Vec<u8>>) {
    let key_chunk = batch
        .columns
        .iter()
        .find(|c| c.spec.is_key)
        .expect("AMAX leaves require a primary-key column");
    let mut key_bytes = Vec::new();
    key_chunk.encode(&mut key_bytes);

    // Encode every non-key column and sort by size, largest first (§4.3).
    let mut encoded: Vec<(&ColumnChunk, Vec<u8>)> = batch
        .columns
        .iter()
        .filter(|c| !c.spec.is_key)
        .map(|c| {
            let mut bytes = Vec::new();
            c.encode(&mut bytes);
            (c, bytes)
        })
        .collect();
    encoded.sort_by_key(|column| std::cmp::Reverse(column.1.len()));

    // Pack megapages into data pages.
    let mut data_pages: Vec<Vec<u8>> = vec![Vec::with_capacity(page_budget)];
    let mut locations = Vec::with_capacity(encoded.len());
    for (chunk, bytes) in &encoded {
        {
            let current = data_pages.last().unwrap();
            let remaining = page_budget - current.len();
            let fits = bytes.len() <= remaining;
            let tolerate_empty = (remaining as f64) <= config.empty_page_tolerance * page_budget as f64;
            if !current.is_empty() && !fits && tolerate_empty {
                // Close the page partially empty and start a fresh one.
                data_pages.push(Vec::with_capacity(page_budget));
            }
        }
        if data_pages.last().unwrap().len() >= page_budget {
            data_pages.push(Vec::with_capacity(page_budget));
        }
        let start_page = data_pages.len() - 1;
        let start_offset = data_pages.last().unwrap().len();
        // Spill the megapage across as many pages as needed.
        let mut written = 0usize;
        while written < bytes.len() {
            let current = data_pages.last_mut().unwrap();
            let space = page_budget - current.len();
            if space == 0 {
                data_pages.push(Vec::with_capacity(page_budget));
                continue;
            }
            let take = space.min(bytes.len() - written);
            current.extend_from_slice(&bytes[written..written + take]);
            written += take;
        }
        let (min, max) = chunk.min_max().map(|(a, b)| (Some(a), Some(b))).unwrap_or((None, None));
        locations.push(AmaxColumnLocation {
            column_id: chunk.spec.id,
            start_page,
            start_offset,
            len: bytes.len(),
            min,
            max,
        });
    }
    if data_pages.last().is_some_and(Vec::is_empty) && data_pages.len() > 1 {
        data_pages.pop();
    }

    // Page 0: header, directory, encoded keys.
    let mut page0 = Vec::with_capacity(key_bytes.len() + 256);
    varint::write_u64(&mut page0, batch.record_count as u64);
    varint::write_u64(&mut page0, locations.len() as u64);
    debug_assert!(batch.record_count <= config.record_limit);
    for loc in &locations {
        varint::write_u64(&mut page0, u64::from(loc.column_id));
        varint::write_u64(&mut page0, loc.start_page as u64);
        varint::write_u64(&mut page0, loc.start_offset as u64);
        varint::write_u64(&mut page0, loc.len as u64);
        write_opt_value(&mut page0, &loc.min);
        write_opt_value(&mut page0, &loc.max);
    }
    page0.extend_from_slice(&key_bytes);
    (page0, data_pages)
}

fn write_opt_value(out: &mut Vec<u8>, value: &Option<Value>) {
    match value {
        Some(v) => {
            out.push(1);
            RowFormat::Vb.serialize(v, out);
        }
        None => out.push(0),
    }
}

fn read_opt_value(buf: &[u8], pos: &mut usize) -> Result<Option<Value>> {
    let flag = *buf
        .get(*pos)
        .ok_or_else(|| DecodeError::new("truncated AMAX zone map"))?;
    *pos += 1;
    if flag == 1 {
        Ok(Some(RowFormat::Vb.deserialize(buf, pos)?))
    } else {
        Ok(None)
    }
}

/// Decode the header (directory) of a Page 0 payload.
pub fn decode_amax_header(page0: &[u8]) -> Result<AmaxLeafHeader> {
    let mut pos = 0usize;
    let record_count = varint::read_u64(page0, &mut pos)? as usize;
    let column_count = encoding::read_count(page0, &mut pos)?;
    let mut columns = Vec::with_capacity(column_count);
    for _ in 0..column_count {
        let column_id = varint::read_u64(page0, &mut pos)? as ColumnId;
        let start_page = varint::read_u64(page0, &mut pos)? as usize;
        let start_offset = varint::read_u64(page0, &mut pos)? as usize;
        let len = varint::read_u64(page0, &mut pos)? as usize;
        let min = read_opt_value(page0, &mut pos)?;
        let max = read_opt_value(page0, &mut pos)?;
        columns.push(AmaxColumnLocation {
            column_id,
            start_page,
            start_offset,
            len,
            min,
            max,
        });
    }
    Ok(AmaxLeafHeader {
        record_count,
        columns,
        key_chunk_offset: pos,
    })
}

/// Decode the primary-key chunk stored at the end of Page 0.
pub fn decode_amax_keys(page0: &[u8], header: &AmaxLeafHeader, key_spec: &ColumnSpec) -> Result<ColumnChunk> {
    let mut pos = header.key_chunk_offset;
    ColumnChunk::decode(key_spec.clone(), page0, &mut pos)
}

/// Reassemble one column's megapage bytes from the leaf's data pages and
/// decode it. `read_page(i)` returns the payload of the `i`-th data page of
/// the leaf; only the pages actually spanned by the column are requested.
pub fn read_amax_column(
    location: &AmaxColumnLocation,
    page_budget: usize,
    spec: &ColumnSpec,
    mut read_page: impl FnMut(usize) -> Result<std::sync::Arc<Vec<u8>>>,
) -> Result<ColumnChunk> {
    let mut bytes = Vec::with_capacity(location.len);
    let mut remaining = location.len;
    let mut offset = location.start_offset;
    for page_idx in location.pages_spanned(page_budget) {
        let page = read_page(page_idx)?;
        let available = page.len().saturating_sub(offset);
        let take = available.min(remaining);
        if take == 0 && remaining > 0 {
            return Err(DecodeError::new("AMAX megapage shorter than directory entry"));
        }
        bytes.extend_from_slice(&page[offset..offset + take]);
        remaining -= take;
        offset = 0;
    }
    if remaining > 0 {
        return Err(DecodeError::new("truncated AMAX megapage"));
    }
    let mut pos = 0usize;
    ColumnChunk::decode(spec.clone(), &bytes, &mut pos)
}

#[cfg(test)]
mod tests {
    use super::*;
    use columnar::Shredder;
    use docmodel::doc;
    use schema::{columns_of, SchemaBuilder};
    use std::collections::HashMap;
    use std::sync::Arc;

    fn sample_batch(n: usize) -> (schema::Schema, ShreddedBatch) {
        let records: Vec<_> = (0..n as i64)
            .map(|i| {
                doc!({
                    "id": i,
                    "text": (format!("tweet number {i} with some padding text to grow the column")),
                    "likes": (i * 7 % 100),
                    "lang": (if i % 2 == 0 { "en" } else { "es" })
                })
            })
            .collect();
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
    fn leaf_roundtrip_and_column_reads() {
        let (schema, batch) = sample_batch(200);
        let page_budget = 1024;
        let (page0, data_pages) = encode_amax_leaf(&batch, page_budget, &AmaxConfig::default());
        assert!(data_pages.len() > 1, "text column should span multiple pages");
        for p in &data_pages {
            assert!(p.len() <= page_budget);
        }

        let header = decode_amax_header(&page0).unwrap();
        assert_eq!(header.record_count, 200);
        let specs: HashMap<ColumnId, ColumnSpec> =
            columns_of(&schema).into_iter().map(|s| (s.id, s)).collect();
        let key_spec = specs.values().find(|s| s.is_key).unwrap();
        let keys = decode_amax_keys(&page0, &header, key_spec).unwrap();
        assert_eq!(keys.values.len(), 200);

        // Every non-key column decodes back to its original chunk.
        for loc in &header.columns {
            let spec = &specs[&loc.column_id];
            let chunk = read_amax_column(loc, page_budget, spec, |i| {
                Ok(Arc::new(data_pages[i].clone()))
            })
            .unwrap();
            let original = batch.column(loc.column_id).unwrap();
            assert_eq!(&chunk, original);
        }
    }

    #[test]
    fn count_style_access_touches_only_page0() {
        let (_, batch) = sample_batch(100);
        let (page0, _) = encode_amax_leaf(&batch, 2048, &AmaxConfig::default());
        // Counting records requires only the header of Page 0.
        let header = decode_amax_header(&page0).unwrap();
        assert_eq!(header.record_count, 100);
    }

    #[test]
    fn columns_are_ordered_largest_first_and_share_pages() {
        let (_, batch) = sample_batch(300);
        let page_budget = 4096;
        let (page0, data_pages) = encode_amax_leaf(&batch, page_budget, &AmaxConfig::default());
        let header = decode_amax_header(&page0).unwrap();
        let lens: Vec<usize> = header.columns.iter().map(|c| c.len).collect();
        let mut sorted = lens.clone();
        sorted.sort_by(|a, b| b.cmp(a));
        assert_eq!(lens, sorted, "megapages must be written largest to smallest");
        // Sharing: the total page count never exceeds what one-page-per-column
        // packing would need, and the two smallest columns share a page.
        let unshared: usize = lens.iter().map(|l| l.div_ceil(page_budget).max(1)).sum();
        assert!(data_pages.len() <= unshared);
        let smallest_two: Vec<_> = header.columns.iter().rev().take(2).collect();
        assert_eq!(smallest_two[0].start_page, smallest_two[1].start_page);
    }

    #[test]
    fn zone_maps_capture_min_and_max() {
        let (schema, batch) = sample_batch(50);
        let (page0, _) = encode_amax_leaf(&batch, 4096, &AmaxConfig::default());
        let header = decode_amax_header(&page0).unwrap();
        let specs: HashMap<ColumnId, ColumnSpec> =
            columns_of(&schema).into_iter().map(|s| (s.id, s)).collect();
        let likes = header
            .columns
            .iter()
            .find(|c| specs[&c.column_id].path.to_string() == "likes")
            .unwrap();
        assert_eq!(likes.min, Some(Value::Int(0)));
        assert!(matches!(likes.max, Some(Value::Int(m)) if m <= 99));
    }

    #[test]
    fn empty_page_tolerance_controls_sharing() {
        let (_, batch) = sample_batch(200);
        let page_budget = 1024;
        // Tolerance 1.0: never share a page that cannot hold the whole next
        // column — more, emptier pages.
        let strict = AmaxConfig {
            record_limit: 15_000,
            empty_page_tolerance: 1.0,
        };
        let relaxed = AmaxConfig {
            record_limit: 15_000,
            empty_page_tolerance: 0.0,
        };
        let (_, strict_pages) = encode_amax_leaf(&batch, page_budget, &strict);
        let (_, relaxed_pages) = encode_amax_leaf(&batch, page_budget, &relaxed);
        assert!(strict_pages.len() >= relaxed_pages.len());
    }

    #[test]
    fn corrupt_page0_is_an_error() {
        let (_, batch) = sample_batch(20);
        let (page0, _) = encode_amax_leaf(&batch, 2048, &AmaxConfig::default());
        assert!(decode_amax_header(&page0[..3]).is_err());
    }
}
