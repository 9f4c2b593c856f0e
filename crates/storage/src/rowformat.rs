//! Row-major record formats: the two baselines the paper compares against.
//!
//! * **Open** — AsterixDB's schemaless, self-describing recursive format:
//!   every record embeds its field names, every nested value sits behind a
//!   fixed 4-byte offset table (one slot per child, per nesting level), and
//!   values are written bottom-up, which is why constructing deep records is
//!   expensive (children are copied into their parents level by level).
//! * **Vector-Based (VB)** — the tuple-compactor format: the record's
//!   *structure* (tags, field names, lengths) is separated from its values
//!   conceptually and everything is written once, front to back, using
//!   varint lengths instead of fixed offset tables. It is both smaller
//!   (~15–20% on 1NF data) and cheaper to construct, and it is the format of
//!   the LSM in-memory component for all layouts (§4.5).
//!
//! Both formats serialize a [`Value`] to bytes and back; the LSM row
//! components and the row-major memtable use them directly.

use docmodel::Value;
use encoding::{check_count, plain, read_count, varint, DecodeError};

use crate::Result;

/// Which row format to use for a record payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RowFormat {
    /// AsterixDB's schemaless recursive format.
    Open,
    /// The vector-based compacted format.
    Vb,
}

impl RowFormat {
    /// Serialize a record.
    pub fn serialize(self, value: &Value, out: &mut Vec<u8>) {
        match self {
            RowFormat::Open => write_open(value, out),
            RowFormat::Vb => write_vb(value, out),
        }
    }

    /// Serialize into a fresh buffer.
    pub fn to_bytes(self, value: &Value) -> Vec<u8> {
        let mut out = Vec::with_capacity(value.approx_size() * 2);
        self.serialize(value, &mut out);
        out
    }

    /// Deserialize a record previously produced by [`RowFormat::serialize`].
    pub fn deserialize(self, buf: &[u8], pos: &mut usize) -> Result<Value> {
        match self {
            RowFormat::Open => read_open(buf, pos),
            RowFormat::Vb => read_vb(buf, pos),
        }
    }

    /// Stable tag persisted in component metadata.
    pub fn tag(self) -> u8 {
        match self {
            RowFormat::Open => 0,
            RowFormat::Vb => 1,
        }
    }

    /// Inverse of [`RowFormat::tag`].
    pub fn from_tag(tag: u8) -> Result<RowFormat> {
        match tag {
            0 => Ok(RowFormat::Open),
            1 => Ok(RowFormat::Vb),
            other => Err(DecodeError::new(format!("unknown row format tag {other}"))),
        }
    }
}

const TAG_NULL: u8 = 0;
const TAG_BOOL_FALSE: u8 = 1;
const TAG_BOOL_TRUE: u8 = 2;
const TAG_INT: u8 = 3;
const TAG_DOUBLE: u8 = 4;
const TAG_STRING: u8 = 5;
const TAG_ARRAY: u8 = 6;
const TAG_OBJECT: u8 = 7;

// ---------------------------------------------------------------------------
// Open format: field names inline, fixed 4-byte offset tables per nested value.
// ---------------------------------------------------------------------------

fn write_open(value: &Value, out: &mut Vec<u8>) {
    match value {
        Value::Null => out.push(TAG_NULL),
        Value::Bool(false) => out.push(TAG_BOOL_FALSE),
        Value::Bool(true) => out.push(TAG_BOOL_TRUE),
        Value::Int(i) => {
            out.push(TAG_INT);
            plain::write_i64(out, *i);
        }
        Value::Double(d) => {
            out.push(TAG_DOUBLE);
            plain::write_f64(out, *d);
        }
        Value::String(s) => {
            out.push(TAG_STRING);
            plain::write_u32(out, s.len() as u32);
            out.extend_from_slice(s.as_bytes());
        }
        Value::Array(elems) => {
            // Children are serialized into a temporary buffer first and then
            // copied into the parent — mirroring the bottom-up construction
            // cost of the real Open format.
            out.push(TAG_ARRAY);
            plain::write_u32(out, elems.len() as u32);
            let mut children: Vec<Vec<u8>> = Vec::with_capacity(elems.len());
            for e in elems {
                let mut child = Vec::new();
                write_open(e, &mut child);
                children.push(child);
            }
            // Offset table: 4 bytes per child, relative to the start of the
            // children region.
            let mut offset = 0u32;
            for child in &children {
                plain::write_u32(out, offset);
                offset += child.len() as u32;
            }
            for child in &children {
                out.extend_from_slice(child);
            }
        }
        Value::Object(fields) => {
            out.push(TAG_OBJECT);
            plain::write_u32(out, fields.len() as u32);
            let mut children: Vec<Vec<u8>> = Vec::with_capacity(fields.len());
            for (_, v) in fields {
                let mut child = Vec::new();
                write_open(v, &mut child);
                children.push(child);
            }
            let mut offset = 0u32;
            for ((name, _), child) in fields.iter().zip(&children) {
                plain::write_u32(out, name.len() as u32);
                out.extend_from_slice(name.as_bytes());
                plain::write_u32(out, offset);
                offset += child.len() as u32;
            }
            for child in &children {
                out.extend_from_slice(child);
            }
        }
    }
}

fn read_open(buf: &[u8], pos: &mut usize) -> Result<Value> {
    let tag = *buf
        .get(*pos)
        .ok_or_else(|| DecodeError::new("truncated open record"))?;
    *pos += 1;
    Ok(match tag {
        TAG_NULL => Value::Null,
        TAG_BOOL_FALSE => Value::Bool(false),
        TAG_BOOL_TRUE => Value::Bool(true),
        TAG_INT => Value::Int(plain::read_i64(buf, pos)?),
        TAG_DOUBLE => Value::Double(plain::read_f64(buf, pos)?),
        TAG_STRING => {
            let len = plain::read_u32(buf, pos)? as usize;
            let end = *pos + len;
            if end > buf.len() {
                return Err(DecodeError::new("truncated open string"));
            }
            let s = std::str::from_utf8(&buf[*pos..end])
                .map_err(|_| DecodeError::new("invalid utf-8 in open string"))?
                .to_string();
            *pos = end;
            Value::String(s)
        }
        TAG_ARRAY => {
            let count = check_count(plain::read_u32(buf, pos)?.into(), buf, *pos)?;
            // Skip the offset table; children are stored in order.
            *pos += 4 * count;
            if *pos > buf.len() {
                return Err(DecodeError::new("truncated open array offsets"));
            }
            let mut elems = Vec::with_capacity(count);
            for _ in 0..count {
                elems.push(read_open(buf, pos)?);
            }
            Value::Array(elems)
        }
        TAG_OBJECT => {
            let count = check_count(plain::read_u32(buf, pos)?.into(), buf, *pos)?;
            let mut names = Vec::with_capacity(count);
            for _ in 0..count {
                let len = plain::read_u32(buf, pos)? as usize;
                let end = *pos + len;
                if end > buf.len() {
                    return Err(DecodeError::new("truncated open field name"));
                }
                let name = std::str::from_utf8(&buf[*pos..end])
                    .map_err(|_| DecodeError::new("invalid utf-8 in field name"))?
                    .to_string();
                *pos = end;
                let _offset = plain::read_u32(buf, pos)?;
                names.push(name);
            }
            let mut fields = Vec::with_capacity(count);
            for name in names {
                let v = read_open(buf, pos)?;
                fields.push((name, v));
            }
            Value::Object(fields)
        }
        other => return Err(DecodeError::new(format!("unknown open tag {other}"))),
    })
}

// ---------------------------------------------------------------------------
// Vector-based format: compact, single forward pass, varint lengths.
// ---------------------------------------------------------------------------

fn write_vb(value: &Value, out: &mut Vec<u8>) {
    match value {
        Value::Null => out.push(TAG_NULL),
        Value::Bool(false) => out.push(TAG_BOOL_FALSE),
        Value::Bool(true) => out.push(TAG_BOOL_TRUE),
        Value::Int(i) => {
            out.push(TAG_INT);
            varint::write_i64(out, *i);
        }
        Value::Double(d) => {
            out.push(TAG_DOUBLE);
            plain::write_f64(out, *d);
        }
        Value::String(s) => {
            out.push(TAG_STRING);
            varint::write_u64(out, s.len() as u64);
            out.extend_from_slice(s.as_bytes());
        }
        Value::Array(elems) => {
            out.push(TAG_ARRAY);
            varint::write_u64(out, elems.len() as u64);
            for e in elems {
                write_vb(e, out);
            }
        }
        Value::Object(fields) => {
            out.push(TAG_OBJECT);
            varint::write_u64(out, fields.len() as u64);
            for (name, v) in fields {
                varint::write_u64(out, name.len() as u64);
                out.extend_from_slice(name.as_bytes());
                write_vb(v, out);
            }
        }
    }
}

fn read_vb(buf: &[u8], pos: &mut usize) -> Result<Value> {
    let tag = *buf
        .get(*pos)
        .ok_or_else(|| DecodeError::new("truncated vb record"))?;
    *pos += 1;
    Ok(match tag {
        TAG_NULL => Value::Null,
        TAG_BOOL_FALSE => Value::Bool(false),
        TAG_BOOL_TRUE => Value::Bool(true),
        TAG_INT => Value::Int(varint::read_i64(buf, pos)?),
        TAG_DOUBLE => Value::Double(plain::read_f64(buf, pos)?),
        TAG_STRING => {
            let len = varint::read_u64(buf, pos)? as usize;
            let end = pos
                .checked_add(len)
                .ok_or_else(|| DecodeError::new("vb string length overflow"))?;
            if end > buf.len() {
                return Err(DecodeError::new("truncated vb string"));
            }
            let s = std::str::from_utf8(&buf[*pos..end])
                .map_err(|_| DecodeError::new("invalid utf-8 in vb string"))?
                .to_string();
            *pos = end;
            Value::String(s)
        }
        TAG_ARRAY => {
            let count = read_count(buf, pos)?;
            let mut elems = Vec::with_capacity(count);
            for _ in 0..count {
                elems.push(read_vb(buf, pos)?);
            }
            Value::Array(elems)
        }
        TAG_OBJECT => {
            let count = read_count(buf, pos)?;
            let mut fields = Vec::with_capacity(count);
            for _ in 0..count {
                let len = varint::read_u64(buf, pos)? as usize;
                let end = pos
                    .checked_add(len)
                    .ok_or_else(|| DecodeError::new("vb name length overflow"))?;
                if end > buf.len() {
                    return Err(DecodeError::new("truncated vb field name"));
                }
                let name = std::str::from_utf8(&buf[*pos..end])
                    .map_err(|_| DecodeError::new("invalid utf-8 in vb field name"))?
                    .to_string();
                *pos = end;
                let v = read_vb(buf, pos)?;
                fields.push((name, v));
            }
            Value::Object(fields)
        }
        other => return Err(DecodeError::new(format!("unknown vb tag {other}"))),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use docmodel::doc;

    fn sample_records() -> Vec<Value> {
        vec![
            doc!({"id": 1, "name": {"first": "Ann", "last": "Lee"}, "score": 3.5}),
            doc!({"id": 2, "tags": ["a", "b", "c"], "flags": [true, false], "n": null}),
            doc!({"id": 3, "nested": {"deep": {"deeper": [1, [2, 3], {"x": "y"}]}}}),
            doc!({}),
        ]
    }

    #[test]
    fn open_roundtrip() {
        for rec in sample_records() {
            let bytes = RowFormat::Open.to_bytes(&rec);
            let mut pos = 0;
            let back = RowFormat::Open.deserialize(&bytes, &mut pos).unwrap();
            assert_eq!(back, rec);
            assert_eq!(pos, bytes.len());
        }
    }

    #[test]
    fn vb_roundtrip() {
        for rec in sample_records() {
            let bytes = RowFormat::Vb.to_bytes(&rec);
            let mut pos = 0;
            let back = RowFormat::Vb.deserialize(&bytes, &mut pos).unwrap();
            assert_eq!(back, rec);
            assert_eq!(pos, bytes.len());
        }
    }

    #[test]
    fn vb_is_smaller_than_open() {
        // The VB format drops the fixed offset tables, so nested records are
        // consistently smaller — the paper reports ~17% on the cell dataset.
        let rec = doc!({
            "caller": "12025550147",
            "callee": "12025550198",
            "duration": 632,
            "cell": {"tower": 1021, "lat": 38.89, "lon": (-77.03)},
            "ts": (1600000000000i64)
        });
        let open = RowFormat::Open.to_bytes(&rec).len();
        let vb = RowFormat::Vb.to_bytes(&rec).len();
        assert!(vb < open, "vb {vb} should be smaller than open {open}");
    }

    #[test]
    fn format_tags_roundtrip() {
        for f in [RowFormat::Open, RowFormat::Vb] {
            assert_eq!(RowFormat::from_tag(f.tag()).unwrap(), f);
        }
        assert!(RowFormat::from_tag(9).is_err());
    }

    #[test]
    fn corrupt_records_error_instead_of_panicking() {
        let rec = doc!({"id": 1, "xs": [1, 2, 3]});
        for fmt in [RowFormat::Open, RowFormat::Vb] {
            let bytes = fmt.to_bytes(&rec);
            for cut in [0, 1, bytes.len() / 2] {
                let mut pos = 0;
                assert!(fmt.deserialize(&bytes[..cut], &mut pos).is_err());
            }
            let mut garbage = bytes.clone();
            garbage[0] = 200;
            let mut pos = 0;
            assert!(fmt.deserialize(&garbage, &mut pos).is_err());
        }
    }

    /// Every count a row or column page leads with is checked against the
    /// bytes that remain before anything is reserved: a forged 2^40 (or,
    /// where the count is a `u32`, `u32::MAX`) is an `Err`.
    #[test]
    fn forged_counts_are_errors_not_allocations() {
        let huge = |lead: &[u8]| {
            let mut buf = lead.to_vec();
            varint::write_u64(&mut buf, 1 << 40);
            buf.extend_from_slice(&[0; 32]);
            buf
        };
        let huge_u32 = |lead: &[u8]| {
            let mut buf = lead.to_vec();
            plain::write_u32(&mut buf, u32::MAX);
            buf.extend_from_slice(&[0; 32]);
            buf
        };
        fn refused<T>(result: Result<T>) {
            match result {
                Err(e) => assert!(e.message.contains("exceeds"), "{e}"),
                Ok(_) => panic!("a forged count decoded"),
            }
        }
        for buf in [huge(&[TAG_ARRAY]), huge(&[TAG_OBJECT])] {
            refused(RowFormat::Vb.deserialize(&buf, &mut 0));
        }
        for buf in [huge_u32(&[TAG_ARRAY]), huge_u32(&[TAG_OBJECT])] {
            refused(RowFormat::Open.deserialize(&buf, &mut 0));
        }
        refused(crate::rowpage::decode_row_page(&huge_u32(&[
            RowFormat::Vb.tag()
        ])));
        // AMAX Page 0: record count, then the column count.
        refused(crate::amax::decode_amax_header(&huge(&[1])));
        // APAX page: record count, column count, the key bounds, then the
        // directory the column count sizes.
        let mut apax = vec![1];
        varint::write_u64(&mut apax, 1 << 40);
        RowFormat::Vb.serialize(&Value::Int(0), &mut apax);
        RowFormat::Vb.serialize(&Value::Int(9), &mut apax);
        apax.extend_from_slice(&[0; 32]);
        let specs = std::collections::HashMap::new();
        refused(crate::apax::decode_apax_columns(&apax, &specs, None));
    }

    #[test]
    fn multiple_records_in_one_buffer() {
        let records = sample_records();
        for fmt in [RowFormat::Open, RowFormat::Vb] {
            let mut buf = Vec::new();
            for r in &records {
                fmt.serialize(r, &mut buf);
            }
            let mut pos = 0;
            for r in &records {
                assert_eq!(&fmt.deserialize(&buf, &mut pos).unwrap(), r);
            }
            assert_eq!(pos, buf.len());
        }
    }
}
