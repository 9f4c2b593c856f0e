//! Delta binary packed encoding for 64-bit integers.
//!
//! Monotone or slowly-varying integer columns — timestamps, auto-increment
//! keys, sensor sequence numbers, call durations — dominate the numeric
//! datasets in the paper's evaluation (`cell`, `sensors`). Delta encoding
//! stores the first value, then zigzag-encoded deltas bit-packed per block,
//! which is why the columnar layouts beat page-level compression alone by
//! 5–8x on the `sensors` dataset (Figure 12a).
//!
//! The format is a simplified Parquet `DELTA_BINARY_PACKED`:
//!
//! ```text
//! varint  count
//! varint  zigzag(first_value)            (absent when count == 0)
//! blocks: varint zigzag(min_delta), u8 bit_width, bitpacked deltas
//! ```
//!
//! Each block covers up to [`BLOCK_SIZE`] deltas.

use crate::bitpack;
use crate::varint;
use crate::{DecodeError, DecodeResult};

/// Number of deltas per block. A power of two keeps the packing aligned and
/// lets short columns still benefit from per-block widths.
pub const BLOCK_SIZE: usize = 128;

/// Encode `values`, appending to `out`.
pub fn encode(values: &[i64], out: &mut Vec<u8>) {
    varint::write_u64(out, values.len() as u64);
    if values.is_empty() {
        return;
    }
    varint::write_i64(out, values[0]);
    let mut deltas = Vec::with_capacity(BLOCK_SIZE);
    let mut prev = values[0];
    let mut idx = 1usize;
    while idx < values.len() {
        deltas.clear();
        let end = (idx + BLOCK_SIZE).min(values.len());
        for &v in &values[idx..end] {
            deltas.push(v.wrapping_sub(prev));
            prev = v;
        }
        let min_delta = *deltas.iter().min().expect("non-empty block");
        varint::write_i64(out, min_delta);
        // Re-base deltas on the block minimum so they are non-negative.
        let rebased: Vec<u64> = deltas
            .iter()
            .map(|&d| d.wrapping_sub(min_delta) as u64)
            .collect();
        let max = rebased.iter().copied().max().unwrap_or(0);
        let width = if max == 0 { 0 } else { bitpack::bit_width(max) };
        out.push(width as u8);
        bitpack::pack(&rebased, width, out);
        idx = end;
    }
}

/// Decode a delta-packed column from `buf` starting at `*pos`.
pub fn decode(buf: &[u8], pos: &mut usize) -> DecodeResult<Vec<i64>> {
    decode_map(buf, pos, |v| v)
}

/// Decode a delta-packed column, turning each integer into a `T` as it is
/// rebuilt (the decimal codec divides by its scale here): each block is
/// unpacked into an array on the stack and its running sums go straight
/// into the output, so no vector but the output is allocated.
///
/// The count is untrusted. The first value takes a byte and every block of
/// up to [`BLOCK_SIZE`] deltas at least two (its minimum delta and its
/// width), so a count the remaining bytes cannot hold is an error before
/// anything is reserved; a count that passes is reserved exactly.
pub fn decode_map<T>(
    buf: &[u8],
    pos: &mut usize,
    mut map: impl FnMut(i64) -> T,
) -> DecodeResult<Vec<T>> {
    let count = varint::read_u64(buf, pos)?;
    let blocks = count.saturating_sub(1).div_ceil(BLOCK_SIZE as u64);
    let least_bytes = u64::from(count > 0).saturating_add(blocks.saturating_mul(2));
    if least_bytes > buf.len().saturating_sub(*pos) as u64 {
        return Err(DecodeError::new(format!(
            "delta column of {count} values cannot fit in the bytes that remain"
        )));
    }
    let count = count as usize;
    let mut out = Vec::with_capacity(count);
    if count == 0 {
        return Ok(out);
    }
    let mut prev = varint::read_i64(buf, pos)?;
    out.push(map(prev));
    let mut block = [0u64; BLOCK_SIZE];
    while out.len() < count {
        let block = &mut block[..BLOCK_SIZE.min(count - out.len())];
        let min_delta = varint::read_i64(buf, pos)?;
        let width = *buf
            .get(*pos)
            .ok_or_else(|| DecodeError::new("truncated delta block header"))? as u32;
        *pos += 1;
        bitpack::unpack_into(buf, pos, width, block)?;
        out.extend(block.iter().map(|&rebased| {
            prev = prev.wrapping_add((rebased as i64).wrapping_add(min_delta));
            map(prev)
        }));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(values: &[i64]) -> usize {
        let mut buf = Vec::new();
        encode(values, &mut buf);
        let mut pos = 0;
        let decoded = decode(&buf, &mut pos).unwrap();
        assert_eq!(decoded, values);
        assert_eq!(pos, buf.len());
        buf.len()
    }

    #[test]
    fn roundtrip_basic_sequences() {
        roundtrip(&[]);
        roundtrip(&[42]);
        roundtrip(&[1, 2, 3, 4, 5]);
        roundtrip(&[-5, -4, 0, 100, -3]);
        roundtrip(&(0..1000).collect::<Vec<_>>());
    }

    #[test]
    fn monotone_sequences_compress_tightly() {
        let timestamps: Vec<i64> = (0..10_000).map(|i| 1_600_000_000_000 + i * 1000).collect();
        let size = roundtrip(&timestamps);
        // Constant stride: each block needs only its header (~3 bytes).
        assert!(size < 500, "expected tight encoding, got {size} bytes");
        let plain = timestamps.len() * 8;
        assert!(size * 10 < plain);
    }

    #[test]
    fn random_like_values_still_roundtrip() {
        let values: Vec<i64> = (0..5000)
            .map(|i: i64| (i.wrapping_mul(6364136223846793005).rotate_left(17)) ^ (i << 3))
            .collect();
        roundtrip(&values);
    }

    #[test]
    fn extreme_values_roundtrip() {
        roundtrip(&[i64::MIN, i64::MAX, 0, i64::MIN, i64::MAX]);
        roundtrip(&[i64::MAX; 300]);
        roundtrip(&[i64::MIN; 300]);
    }

    #[test]
    fn block_boundaries_are_exact() {
        for n in [BLOCK_SIZE - 1, BLOCK_SIZE, BLOCK_SIZE + 1, 2 * BLOCK_SIZE, 2 * BLOCK_SIZE + 7] {
            let values: Vec<i64> = (0..n as i64).map(|i| i * 3 - 50).collect();
            roundtrip(&values);
        }
    }

    #[test]
    fn truncation_is_detected() {
        let values: Vec<i64> = (0..500).collect();
        let mut buf = Vec::new();
        encode(&values, &mut buf);
        buf.truncate(buf.len() / 2);
        let mut pos = 0;
        assert!(decode(&buf, &mut pos).is_err());
    }

    /// A forged count the bytes cannot hold is refused before anything is
    /// reserved for it, even where every block would be width 0.
    #[test]
    fn a_count_beyond_the_bytes_is_an_error() {
        let mut buf = Vec::new();
        varint::write_u64(&mut buf, 1 << 40);
        buf.extend_from_slice(&[0; 64]);
        assert!(decode(&buf, &mut 0).is_err());
        let mut buf = Vec::new();
        encode(&[5; 300], &mut buf);
        assert_eq!(decode(&buf, &mut 0).unwrap(), vec![5; 300]);
    }
}
