//! Plain encodings: fixed-width little-endian scalars and length-prefixed
//! byte arrays.
//!
//! Plain encoding is the fallback when a fancier encoding would not pay off
//! (e.g. doubles, very short columns) and it is also what the row-major
//! formats use internally for scalar payloads.

use crate::varint;
use crate::{DecodeError, DecodeResult};

/// Append an `i64` little-endian.
pub fn write_i64(out: &mut Vec<u8>, value: i64) {
    out.extend_from_slice(&value.to_le_bytes());
}

/// Read an `i64` little-endian.
pub fn read_i64(buf: &[u8], pos: &mut usize) -> DecodeResult<i64> {
    let end = *pos + 8;
    if end > buf.len() {
        return Err(DecodeError::new("truncated i64"));
    }
    let mut bytes = [0u8; 8];
    bytes.copy_from_slice(&buf[*pos..end]);
    *pos = end;
    Ok(i64::from_le_bytes(bytes))
}

/// Append an `f64` little-endian.
pub fn write_f64(out: &mut Vec<u8>, value: f64) {
    out.extend_from_slice(&value.to_le_bytes());
}

/// Read an `f64` little-endian.
pub fn read_f64(buf: &[u8], pos: &mut usize) -> DecodeResult<f64> {
    let end = *pos + 8;
    if end > buf.len() {
        return Err(DecodeError::new("truncated f64"));
    }
    let mut bytes = [0u8; 8];
    bytes.copy_from_slice(&buf[*pos..end]);
    *pos = end;
    Ok(f64::from_le_bytes(bytes))
}

/// Append a `u32` little-endian (page headers, offsets).
pub fn write_u32(out: &mut Vec<u8>, value: u32) {
    out.extend_from_slice(&value.to_le_bytes());
}

/// Read a `u32` little-endian.
pub fn read_u32(buf: &[u8], pos: &mut usize) -> DecodeResult<u32> {
    let end = *pos + 4;
    if end > buf.len() {
        return Err(DecodeError::new("truncated u32"));
    }
    let mut bytes = [0u8; 4];
    bytes.copy_from_slice(&buf[*pos..end]);
    *pos = end;
    Ok(u32::from_le_bytes(bytes))
}

/// Overwrite a previously written `u32` at `offset` (used by page builders
/// that reserve header slots and patch them after the payload is known).
pub fn patch_u32(buf: &mut [u8], offset: usize, value: u32) {
    buf[offset..offset + 4].copy_from_slice(&value.to_le_bytes());
}

/// Append a length-prefixed byte slice.
pub fn write_bytes(out: &mut Vec<u8>, value: &[u8]) {
    varint::write_u64(out, value.len() as u64);
    out.extend_from_slice(value);
}

/// Read a length-prefixed byte slice (borrowed from the input).
pub fn read_bytes<'a>(buf: &'a [u8], pos: &mut usize) -> DecodeResult<&'a [u8]> {
    let len = varint::read_u64(buf, pos)? as usize;
    // Checked: the length is untrusted and may be close to `usize::MAX`.
    let end = pos
        .checked_add(len)
        .filter(|&end| end <= buf.len())
        .ok_or_else(|| DecodeError::new("truncated byte slice"))?;
    let slice = &buf[*pos..end];
    *pos = end;
    Ok(slice)
}

/// Append a length-prefixed UTF-8 string.
pub fn write_str(out: &mut Vec<u8>, value: &str) {
    write_bytes(out, value.as_bytes());
}

/// Read a length-prefixed UTF-8 string.
pub fn read_str<'a>(buf: &'a [u8], pos: &mut usize) -> DecodeResult<&'a str> {
    let bytes = read_bytes(buf, pos)?;
    std::str::from_utf8(bytes).map_err(|_| DecodeError::new("invalid utf-8 string"))
}

/// Encode a slice of f64 plainly with a count prefix.
pub fn encode_f64_column(values: &[f64], out: &mut Vec<u8>) {
    varint::write_u64(out, values.len() as u64);
    for &v in values {
        write_f64(out, v);
    }
}

/// Decode a plain f64 column.
pub fn decode_f64_column(buf: &[u8], pos: &mut usize) -> DecodeResult<Vec<f64>> {
    let count = varint::read_u64(buf, pos)? as usize;
    if count.saturating_mul(8) > buf.len() - *pos {
        return Err(DecodeError::new("f64 column count exceeds buffer"));
    }
    // One pass over whole eight-byte words, no per-value bounds check.
    let (words, _) = buf[*pos..*pos + count * 8].as_chunks::<8>();
    *pos += count * 8;
    Ok(words.iter().map(|w| f64::from_le_bytes(*w)).collect())
}

/// Encode booleans as a bit vector with a count prefix.
pub fn encode_bool_column(values: &[bool], out: &mut Vec<u8>) {
    varint::write_u64(out, values.len() as u64);
    let mut byte = 0u8;
    for (i, &b) in values.iter().enumerate() {
        if b {
            byte |= 1 << (i % 8);
        }
        if i % 8 == 7 {
            out.push(byte);
            byte = 0;
        }
    }
    if !values.len().is_multiple_of(8) {
        out.push(byte);
    }
}

/// Decode a boolean bit-vector column.
pub fn decode_bool_column(buf: &[u8], pos: &mut usize) -> DecodeResult<Vec<bool>> {
    let count = varint::read_u64(buf, pos)? as usize;
    let nbytes = count.div_ceil(8);
    let end = *pos + nbytes;
    if end > buf.len() {
        return Err(DecodeError::new("truncated boolean column"));
    }
    let mut out = Vec::with_capacity(count);
    for i in 0..count {
        let byte = buf[*pos + i / 8];
        out.push(byte & (1 << (i % 8)) != 0);
    }
    *pos = end;
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_roundtrips() {
        let mut buf = Vec::new();
        write_i64(&mut buf, -123456789);
        write_f64(&mut buf, 2.5e-3);
        write_u32(&mut buf, 0xDEADBEEF);
        write_str(&mut buf, "héllo");
        write_bytes(&mut buf, &[1, 2, 3]);
        let mut pos = 0;
        assert_eq!(read_i64(&buf, &mut pos).unwrap(), -123456789);
        assert_eq!(read_f64(&buf, &mut pos).unwrap(), 2.5e-3);
        assert_eq!(read_u32(&buf, &mut pos).unwrap(), 0xDEADBEEF);
        assert_eq!(read_str(&buf, &mut pos).unwrap(), "héllo");
        assert_eq!(read_bytes(&buf, &mut pos).unwrap(), &[1, 2, 3]);
        assert_eq!(pos, buf.len());
    }

    #[test]
    fn truncated_scalars_error() {
        let buf = vec![0u8; 3];
        let mut pos = 0;
        assert!(read_i64(&buf, &mut pos).is_err());
        let mut pos = 0;
        assert!(read_f64(&buf, &mut pos).is_err());
        let mut pos = 2;
        assert!(read_u32(&buf, &mut pos).is_err());
        let mut buf2 = Vec::new();
        write_bytes(&mut buf2, &[9; 10]);
        buf2.truncate(5);
        let mut pos = 0;
        assert!(read_bytes(&buf2, &mut pos).is_err());
        // A length near `usize::MAX` must not overflow the end offset.
        let mut huge = vec![0u8];
        varint::write_u64(&mut huge, u64::MAX);
        let mut pos = 1;
        assert!(read_bytes(&huge, &mut pos).is_err());
    }

    #[test]
    fn patch_u32_overwrites_in_place() {
        let mut buf = vec![0u8; 8];
        patch_u32(&mut buf, 2, 77);
        let mut pos = 2;
        assert_eq!(read_u32(&buf, &mut pos).unwrap(), 77);
    }

    #[test]
    fn i64_and_f64_columns_roundtrip() {
        let mut buf = Vec::new();
        for i in (-50..50).map(|i| i * 7) {
            write_i64(&mut buf, i);
        }
        let mut pos = 0;
        for i in (-50..50).map(|i| i * 7) {
            assert_eq!(read_i64(&buf, &mut pos).unwrap(), i);
        }

        let doubles: Vec<f64> = (0..100).map(|i| i as f64 * 0.25 - 7.5).collect();
        let mut buf = Vec::new();
        encode_f64_column(&doubles, &mut buf);
        let mut pos = 0;
        assert_eq!(decode_f64_column(&buf, &mut pos).unwrap(), doubles);
    }

    #[test]
    fn bool_column_roundtrips_with_odd_lengths() {
        for n in [0usize, 1, 7, 8, 9, 63, 64, 65, 1000] {
            let values: Vec<bool> = (0..n).map(|i| i % 3 == 0).collect();
            let mut buf = Vec::new();
            encode_bool_column(&values, &mut buf);
            let mut pos = 0;
            assert_eq!(decode_bool_column(&buf, &mut pos).unwrap(), values);
            assert_eq!(pos, buf.len());
        }
    }

    #[test]
    fn invalid_utf8_is_an_error() {
        let mut buf = Vec::new();
        write_bytes(&mut buf, &[0xFF, 0xFE]);
        let mut pos = 0;
        assert!(read_str(&buf, &mut pos).is_err());
    }
}
