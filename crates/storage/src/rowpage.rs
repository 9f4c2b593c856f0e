//! Slotted leaf pages for row-major components (Open and VB layouts).
//!
//! A row page stores a sorted run of `(key, record-or-anti-matter)` entries.
//! Records are serialized with the configured [`RowFormat`]; keys are always
//! serialized with the compact VB scalar encoding so that point lookups can
//! binary-search the page without touching record payloads.

use docmodel::{total_cmp, Value};
use encoding::{plain, varint, DecodeError};

use crate::rowformat::RowFormat;
use crate::Result;

/// One entry of a row page: the primary key and either a record or an
/// anti-matter marker (`None`).
pub type RowEntry = (Value, Option<Value>);

/// Encode a row page. Entries must already be sorted by key.
pub fn encode_row_page(format: RowFormat, entries: &[RowEntry], out: &mut Vec<u8>) {
    out.push(format.tag());
    plain::write_u32(out, entries.len() as u32);
    for (key, record) in entries {
        RowFormat::Vb.serialize(key, out);
        match record {
            Some(doc) => {
                out.push(1);
                let mut body = Vec::with_capacity(doc.approx_size());
                format.serialize(doc, &mut body);
                varint::write_u64(out, body.len() as u64);
                out.extend_from_slice(&body);
            }
            None => out.push(0),
        }
    }
}

/// Decode every entry of a row page.
pub fn decode_row_page(buf: &[u8]) -> Result<Vec<RowEntry>> {
    let mut pos = 0usize;
    let format = RowFormat::from_tag(
        *buf.first()
            .ok_or_else(|| DecodeError::new("empty row page"))?,
    )?;
    pos += 1;
    let count = encoding::check_count(plain::read_u32(buf, &mut pos)?.into(), buf, pos)?;
    let mut out = Vec::with_capacity(count);
    for _ in 0..count {
        let key = RowFormat::Vb.deserialize(buf, &mut pos)?;
        let flag = *buf
            .get(pos)
            .ok_or_else(|| DecodeError::new("truncated row entry"))?;
        pos += 1;
        let record = if flag == 1 {
            let len = varint::read_u64(buf, &mut pos)? as usize;
            let end = pos
                .checked_add(len)
                .ok_or_else(|| DecodeError::new("row record length overflow"))?;
            if end > buf.len() {
                return Err(DecodeError::new("truncated row record"));
            }
            let mut rpos = pos;
            let doc = format.deserialize(buf, &mut rpos)?;
            pos = end;
            Some(doc)
        } else {
            None
        };
        out.push((key, record));
    }
    Ok(out)
}

/// Binary-search a decoded page for `key`. Returns the entry if present.
pub fn lookup_in_page<'a>(entries: &'a [RowEntry], key: &Value) -> Option<&'a RowEntry> {
    entries
        .binary_search_by(|(k, _)| total_cmp(k, key))
        .ok()
        .map(|idx| &entries[idx])
}

/// Rough serialized size of one entry (`doc == None` is anti-matter), used by
/// writers to decide when a page is full without encoding twice.
pub fn entry_size_estimate(format: RowFormat, key: &Value, doc: Option<&Value>) -> usize {
    estimate_from_sizes(format, key.approx_size(), doc.map(Value::approx_size))
}

/// [`entry_size_estimate`] from the logical sizes
/// ([`Value::approx_size`]) of the key and of the record, for writers that
/// hold an entry as column chunks rather than as a document.
pub fn estimate_from_sizes(format: RowFormat, key_size: usize, doc_size: Option<usize>) -> usize {
    let record = match doc_size {
        Some(size) => match format {
            // The Open format's offset tables and inline field names make it
            // roughly 1.3x the logical size; VB is close to the logical size.
            RowFormat::Open => size * 13 / 10 + 16,
            RowFormat::Vb => size + 8,
        },
        None => 2,
    };
    key_size + 2 + record
}

#[cfg(test)]
mod tests {
    use super::*;
    use docmodel::doc;

    fn entries() -> Vec<RowEntry> {
        vec![
            (Value::Int(1), Some(doc!({"id": 1, "name": "a", "xs": [1, 2]}))),
            (Value::Int(2), None),
            (Value::Int(5), Some(doc!({"id": 5, "nested": {"k": true}}))),
        ]
    }

    #[test]
    fn roundtrip_both_formats() {
        for fmt in [RowFormat::Open, RowFormat::Vb] {
            let mut buf = Vec::new();
            encode_row_page(fmt, &entries(), &mut buf);
            let back = decode_row_page(&buf).unwrap();
            assert_eq!(back, entries());
        }
    }

    #[test]
    fn lookup_finds_records_and_tombstones() {
        let e = entries();
        assert!(lookup_in_page(&e, &Value::Int(1)).unwrap().1.is_some());
        assert!(lookup_in_page(&e, &Value::Int(2)).unwrap().1.is_none());
        assert!(lookup_in_page(&e, &Value::Int(3)).is_none());
    }

    #[test]
    fn corrupt_page_is_an_error() {
        let mut buf = Vec::new();
        encode_row_page(RowFormat::Vb, &entries(), &mut buf);
        assert!(decode_row_page(&buf[..buf.len() / 2]).is_err());
        assert!(decode_row_page(&[]).is_err());
    }

    #[test]
    fn size_estimate_is_positive_and_tracks_format() {
        let (key, doc) = &entries()[0];
        let open = entry_size_estimate(RowFormat::Open, key, doc.as_ref());
        let vb = entry_size_estimate(RowFormat::Vb, key, doc.as_ref());
        assert!(open > vb);
        assert!(vb > 0);
    }
}
