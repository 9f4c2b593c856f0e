//! The AMAX mega-leaf layout (§4.3, Figure 9).
//!
//! An AMAX *mega leaf node* covers up to a configured number of records
//! (15,000 by default, §4.5.2) and consists of:
//!
//! * **Page 0** — the header (tuple count, column count), a per-column
//!   directory with each column's location, and the encoded primary keys.
//!   The paper's Page 0 also repeats each column's min/max; here the leaf's
//!   zone map is kept once, in its [`crate::component::LeafDescriptor`],
//!   which is what every reader consults. Stored raw, the bounds of long
//!   strings would otherwise have to fit in Page 0 next to the keys;
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
//! alone, which is the paper's headline order-of-magnitude result. Each
//! megapage carries its own codec ([`ColumnChunk::encode`]) and the pages are
//! stored as written, so a query pays for its `k` columns and nothing else:
//! no page-level decompression of the neighbours a small column shares its
//! page with, and a megapage that lies inside one page is decoded straight
//! out of the page the buffer cache holds.
//!
//! Page 0's directory is untrusted: damage can be re-sealed behind a valid
//! page CRC. Every entry is checked against the leaf's data pages and the
//! page budget ([`AmaxColumnLocation::pages_spanned`]) before a page is read
//! or a byte reserved.

use std::ops::Range;

use columnar::{ColumnChunk, ShreddedBatch};
use encoding::{varint, DecodeError};
use schema::{ColumnId, ColumnSpec};

use crate::Result;

/// Fraction of a physical page the AMAX writer may leave empty rather than
/// splitting the next column across a page boundary.
pub const EMPTY_PAGE_TOLERANCE: f64 = 0.2;

/// Tuning knobs of the AMAX writer.
#[derive(Debug, Clone, Copy)]
pub struct AmaxConfig {
    /// Maximum number of records per mega leaf (Page 0 must hold all keys).
    pub record_limit: usize,
}

impl Default for AmaxConfig {
    fn default() -> Self {
        AmaxConfig {
            record_limit: 15_000,
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
}

impl AmaxColumnLocation {
    /// Indexes of the data pages this megapage spans, in a leaf of
    /// `data_pages` pages of `page_budget` bytes each — or an error when
    /// the entry does not fit in them (a forged directory).
    pub fn pages_spanned(&self, page_budget: usize, data_pages: usize) -> Result<Range<usize>> {
        let forged = || {
            DecodeError::new(format!(
                "AMAX directory entry {self:?} lies outside the leaf"
            ))
        };
        let room = page_budget.checked_sub(self.start_offset).ok_or_else(forged)?;
        let end = if self.len == 0 {
            self.start_page
        } else {
            let more = self.len.saturating_sub(room).div_ceil(page_budget.max(1));
            self.start_page.checked_add(1 + more).ok_or_else(forged)?
        };
        if self.start_page > data_pages || end > data_pages {
            return Err(forged());
        }
        Ok(self.start_page..end)
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

    // Pack megapages into data pages: the full ones, then the one being
    // filled.
    let mut data_pages: Vec<Vec<u8>> = Vec::new();
    let mut current: Vec<u8> = Vec::with_capacity(page_budget);
    let next_page = |data_pages: &mut Vec<Vec<u8>>, current: &mut Vec<u8>| {
        data_pages.push(std::mem::replace(current, Vec::with_capacity(page_budget)));
    };
    let mut locations = Vec::with_capacity(encoded.len());
    for (chunk, bytes) in &encoded {
        let remaining = page_budget - current.len();
        let fits = bytes.len() <= remaining;
        let tolerate_empty = (remaining as f64) <= EMPTY_PAGE_TOLERANCE * page_budget as f64;
        if !current.is_empty() && !fits && tolerate_empty {
            // Close the page partially empty and start a fresh one.
            next_page(&mut data_pages, &mut current);
        }
        if current.len() >= page_budget {
            next_page(&mut data_pages, &mut current);
        }
        let start_page = data_pages.len();
        let start_offset = current.len();
        // Spill the megapage across as many pages as needed.
        let mut written = 0usize;
        while written < bytes.len() {
            let space = page_budget - current.len();
            if space == 0 {
                next_page(&mut data_pages, &mut current);
                continue;
            }
            let take = space.min(bytes.len() - written);
            current.extend_from_slice(&bytes[written..written + take]);
            written += take;
        }
        locations.push(AmaxColumnLocation {
            column_id: chunk.spec.id,
            start_page,
            start_offset,
            len: bytes.len(),
        });
    }
    if !current.is_empty() || data_pages.is_empty() {
        data_pages.push(current);
    }

    // Page 0: header, directory, encoded keys.
    debug_assert!(batch.record_count <= config.record_limit);
    let mut page0 = Vec::with_capacity(key_bytes.len() + 256);
    encode_amax_header(batch.record_count, &locations, &mut page0);
    page0.extend_from_slice(&key_bytes);
    (page0, data_pages)
}

/// Append the header and directory of a Page 0 (what
/// [`decode_amax_header`] reads); the encoded keys follow it.
pub fn encode_amax_header(
    record_count: usize,
    locations: &[AmaxColumnLocation],
    page0: &mut Vec<u8>,
) {
    varint::write_u64(page0, record_count as u64);
    varint::write_u64(page0, locations.len() as u64);
    for loc in locations {
        varint::write_u64(page0, u64::from(loc.column_id));
        varint::write_u64(page0, loc.start_page as u64);
        varint::write_u64(page0, loc.start_offset as u64);
        varint::write_u64(page0, loc.len as u64);
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
        columns.push(AmaxColumnLocation {
            column_id,
            start_page,
            start_offset,
            len,
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

/// Decode one column's megapage out of the leaf's `data_pages` data pages.
/// `read_page(i)` returns the payload of the `i`-th data page of the leaf;
/// only the pages the column spans are requested, and only after its
/// directory entry is known to lie inside the leaf. A megapage inside one
/// page is decoded from that page in place; one that spans pages is
/// joined first.
pub fn read_amax_column<P: AsRef<[u8]>>(
    location: &AmaxColumnLocation,
    page_budget: usize,
    data_pages: usize,
    spec: &ColumnSpec,
    mut read_page: impl FnMut(usize) -> Result<P>,
) -> Result<ColumnChunk> {
    let pages = location.pages_spanned(page_budget, data_pages)?;
    let short = || DecodeError::new("AMAX megapage shorter than its directory entry");
    if pages.len() == 1 {
        let page = read_page(pages.start)?;
        let start = location.start_offset;
        let bytes = page.as_ref().get(start..start + location.len).ok_or_else(short)?;
        return ColumnChunk::decode(spec.clone(), bytes, &mut 0);
    }
    let mut bytes = Vec::with_capacity(location.len);
    let mut offset = location.start_offset;
    for page_idx in pages {
        let page = read_page(page_idx)?;
        let page = page.as_ref();
        let take = page
            .len()
            .saturating_sub(offset)
            .min(location.len - bytes.len());
        if take == 0 {
            return Err(short());
        }
        bytes.extend_from_slice(&page[offset..offset + take]);
        offset = 0;
    }
    if bytes.len() < location.len {
        return Err(short());
    }
    ColumnChunk::decode(spec.clone(), &bytes, &mut 0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use columnar::Shredder;
    use docmodel::doc;
    use schema::{columns_of, SchemaBuilder};
    use std::collections::HashMap;

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
        let page_budget = 256;
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
            let chunk = read_amax_column(loc, page_budget, data_pages.len(), spec, |i| {
                Ok(data_pages[i].as_slice())
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

    /// A column that does not fit the rest of its page starts a fresh page
    /// only when that rest is at most [`EMPTY_PAGE_TOLERANCE`] of the page;
    /// otherwise it spills over the boundary, sharing the page. Every other
    /// column starts where the previous one ended.
    #[test]
    fn tolerated_empty_tail_starts_a_fresh_page() {
        let (_, batch) = sample_batch(200);
        let (mut fresh, mut spilled) = (0, 0);
        for page_budget in (64..=1024).step_by(16) {
            let (page0, _) = encode_amax_leaf(&batch, page_budget, &AmaxConfig::default());
            let header = decode_amax_header(&page0).unwrap();
            // Where the previous column ended: (page, bytes used in it).
            let mut end = (0, 0);
            for column in &header.columns {
                let remaining = page_budget - end.1;
                let spills = end.1 > 0 && column.len > remaining;
                let tolerated = remaining as f64 <= EMPTY_PAGE_TOLERANCE * page_budget as f64;
                let start = if spills && tolerated {
                    (end.0 + 1, 0)
                } else {
                    end
                };
                assert_eq!(
                    (column.start_page, column.start_offset),
                    start,
                    "{page_budget}"
                );
                fresh += usize::from(spills && tolerated);
                spilled += usize::from(spills && !tolerated);
                let at = column.start_page * page_budget + column.start_offset + column.len;
                end = (at / page_budget, at % page_budget);
            }
        }
        assert!(
            fresh > 0 && spilled > 0,
            "{fresh} fresh pages, {spilled} spills"
        );
    }

    #[test]
    fn corrupt_page0_is_an_error() {
        let (_, batch) = sample_batch(20);
        let (page0, _) = encode_amax_leaf(&batch, 2048, &AmaxConfig::default());
        assert!(decode_amax_header(&page0[..3]).is_err());
    }

    /// A Page 0 directory re-sealed behind a valid CRC: an offset past the
    /// page budget (once an underflow), a start page past the leaf's data
    /// pages (once an out-of-bounds index) and a length of 2^45 (once a
    /// reservation that aborted) are errors, and no page is read or byte
    /// reserved for them.
    #[test]
    fn forged_directory_entries_are_errors() {
        let (schema, batch) = sample_batch(200);
        let page_budget = 1024;
        let (page0, data_pages) = encode_amax_leaf(&batch, page_budget, &AmaxConfig::default());
        let header = decode_amax_header(&page0).unwrap();
        let specs: HashMap<ColumnId, ColumnSpec> =
            columns_of(&schema).into_iter().map(|s| (s.id, s)).collect();
        let good = header.columns[0].clone();
        let spec = &specs[&good.column_id];
        let forgeries = [
            AmaxColumnLocation { start_offset: page_budget + 1, ..good.clone() },
            AmaxColumnLocation { start_offset: usize::MAX, ..good.clone() },
            AmaxColumnLocation { start_page: data_pages.len(), ..good.clone() },
            AmaxColumnLocation { start_page: usize::MAX, ..good.clone() },
            AmaxColumnLocation { len: 1 << 45, ..good.clone() },
            AmaxColumnLocation { len: usize::MAX, ..good.clone() },
        ];
        for forged in &forgeries {
            assert!(forged.pages_spanned(page_budget, data_pages.len()).is_err(), "{forged:?}");
            let mut reads = 0;
            let read = read_amax_column(forged, page_budget, data_pages.len(), spec, |i| {
                reads += 1;
                Ok(data_pages[i].as_slice())
            });
            assert!(read.is_err(), "{forged:?}");
            assert_eq!(reads, 0, "{forged:?}");
        }
        // An entry inside the leaf whose bytes the pages do not hold.
        let last = data_pages.len() - 1;
        let past_the_end = AmaxColumnLocation {
            start_page: last,
            start_offset: data_pages[last].len(),
            len: 1,
            ..good.clone()
        };
        let read = read_amax_column(&past_the_end, page_budget, data_pages.len(), spec, |i| {
            Ok(data_pages[i].as_slice())
        });
        assert!(read.is_err());
        assert!(good.pages_spanned(page_budget, data_pages.len()).is_ok());
    }
}
