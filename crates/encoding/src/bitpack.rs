//! Fixed-width bit packing of small unsigned integers.
//!
//! Definition levels are tiny integers (bounded by the schema depth), and the
//! extended Dremel format stores one per atomic value, so packing them at
//! `ceil(log2(max_level + 1))` bits per value — instead of a byte or more —
//! is one of the main storage wins of the columnar layouts over row formats.

use crate::{DecodeError, DecodeResult};

/// Number of bits needed to represent `max_value` (at least 1 so that a
/// column whose only level is 0 still advances the reader).
pub fn bit_width(max_value: u64) -> u32 {
    (64 - max_value.leading_zeros()).max(1)
}

/// Pack `values` at `width` bits each (LSB-first within each byte), appending
/// to `out`. Values must fit in `width` bits; this is a programming error and
/// is checked with a debug assertion. A width of 0 is legal and writes no
/// bytes at all (used when every value in a block is zero).
pub fn pack(values: &[u64], width: u32, out: &mut Vec<u8>) {
    assert!(width <= 64, "bit width out of range");
    if width == 0 {
        debug_assert!(values.iter().all(|&v| v == 0), "non-zero value at width 0");
        return;
    }
    let mut acc: u128 = 0;
    let mut acc_bits: u32 = 0;
    out.reserve((values.len() * width as usize).div_ceil(8));
    for &v in values {
        debug_assert!(width == 64 || v < (1u64 << width), "value does not fit bit width");
        acc |= u128::from(v) << acc_bits;
        acc_bits += width;
        while acc_bits >= 8 {
            out.push((acc & 0xFF) as u8);
            acc >>= 8;
            acc_bits -= 8;
        }
    }
    if acc_bits > 0 {
        out.push((acc & 0xFF) as u8);
    }
}

/// Unpack `count` values of `width` bits each from `buf`, starting at byte
/// offset `*pos`. Advances `*pos` past the consumed bytes.
///
/// `count` may come from untrusted bytes: nothing is reserved before the
/// bytes that `count` values occupy are known to be there. At width 0 the
/// values occupy no bytes, so there the caller bounds `count` (delta blocks
/// hold at most 128).
pub fn unpack(buf: &[u8], pos: &mut usize, count: usize, width: u32) -> DecodeResult<Vec<u64>> {
    let data = packed_run(buf, *pos, count, width)?;
    let mut out = vec![0; count];
    unpack_run(data, width, &mut out);
    *pos += data.len();
    Ok(out)
}

/// Like [`unpack`] but fills `out` — one value per slot — so a decoder
/// unpacks into a buffer of its own (the delta decoder, a block at a time
/// on its stack) instead of a fresh vector.
pub fn unpack_into(buf: &[u8], pos: &mut usize, width: u32, out: &mut [u64]) -> DecodeResult<()> {
    let data = packed_run(buf, *pos, out.len(), width)?;
    unpack_run(data, width, out);
    *pos += data.len();
    Ok(())
}

/// The bytes `count` values of `width` bits occupy from `pos`, or an error
/// when the width is out of range or the bytes are not all there.
fn packed_run(buf: &[u8], pos: usize, count: usize, width: u32) -> DecodeResult<&[u8]> {
    if width > 64 {
        return Err(DecodeError::new("bit width out of range"));
    }
    let total_bits = count
        .checked_mul(width as usize)
        .ok_or_else(|| DecodeError::new("bitpack length overflow"))?;
    pos.checked_add(total_bits.div_ceil(8))
        .and_then(|end| buf.get(pos..end))
        .ok_or_else(|| DecodeError::new("truncated bit-packed run"))
}

/// Unpack `out.len()` values from `data`, which holds exactly their bytes.
/// Widths up to 56 read each value with one little-endian 8-byte load from
/// its first byte (a value and its bit offset within that byte never span
/// more than 64 bits); wider values go through a 128-bit accumulator.
fn unpack_run(data: &[u8], width: u32, out: &mut [u64]) {
    if width == 0 {
        out.fill(0);
        return;
    }
    let mask = mask(width);
    if width <= 56 {
        let width = width as usize;
        // Values whose 8-byte load stays inside `data`, then the tail.
        let whole = if data.len() >= 8 {
            ((data.len() - 8) * 8 / width + 1).min(out.len())
        } else {
            0
        };
        let (head, tail) = out.split_at_mut(whole);
        let mut bit = 0usize;
        for slot in head {
            let at = bit >> 3;
            let word = u64::from_le_bytes(data[at..at + 8].try_into().expect("8 bytes"));
            *slot = (word >> (bit & 7)) & mask;
            bit += width;
        }
        for slot in tail {
            let at = bit >> 3;
            let mut word = [0u8; 8];
            let available = (data.len() - at).min(8);
            word[..available].copy_from_slice(&data[at..at + available]);
            *slot = (u64::from_le_bytes(word) >> (bit & 7)) & mask;
            bit += width;
        }
    } else {
        let mut acc: u128 = 0;
        let mut acc_bits: u32 = 0;
        let mut byte_idx = 0usize;
        for slot in out {
            while acc_bits < width {
                acc |= u128::from(data[byte_idx]) << acc_bits;
                byte_idx += 1;
                acc_bits += 8;
            }
            *slot = (acc as u64) & mask;
            acc >>= width;
            acc_bits -= width;
        }
    }
}

fn mask(bits: u32) -> u64 {
    if bits >= 64 {
        u64::MAX
    } else {
        (1u64 << bits) - 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(values: &[u64], width: u32) {
        let mut buf = Vec::new();
        pack(values, width, &mut buf);
        let mut pos = 0;
        let decoded = unpack(&buf, &mut pos, values.len(), width).unwrap();
        assert_eq!(decoded, values);
        assert_eq!(pos, buf.len());
    }

    #[test]
    fn bit_width_of_common_maxima() {
        assert_eq!(bit_width(0), 1);
        assert_eq!(bit_width(1), 1);
        assert_eq!(bit_width(2), 2);
        assert_eq!(bit_width(3), 2);
        assert_eq!(bit_width(4), 3);
        assert_eq!(bit_width(255), 8);
        assert_eq!(bit_width(256), 9);
        assert_eq!(bit_width(u64::MAX), 64);
    }

    #[test]
    fn roundtrip_small_widths() {
        roundtrip(&[0, 1, 1, 0, 1, 0, 0, 1, 1], 1);
        roundtrip(&[0, 1, 2, 3, 3, 2, 1, 0, 2], 2);
        roundtrip(&[5, 0, 7, 3, 6, 1, 2, 4], 3);
        roundtrip(&(0..100).map(|i| i % 13).collect::<Vec<_>>(), 4);
    }

    #[test]
    fn roundtrip_wide_and_awkward_widths() {
        roundtrip(&[1000, 0, 12345, 999], 14);
        roundtrip(&[u32::MAX as u64, 0, 17], 32);
        roundtrip(&[(1u64 << 57) - 1, 3, 1 << 40], 57);
        roundtrip(&[u64::MAX, 0, 42, u64::MAX - 1], 64);
    }

    /// Every width from 0 to 64, at counts that end on and off a byte and
    /// an 8-byte word, with values at both ends of the width's range.
    #[test]
    fn every_width_roundtrips() {
        for width in 0..=64u32 {
            let max = mask(width);
            for count in [0usize, 1, 7, 8, 9, 63, 64, 65, 129] {
                let values: Vec<u64> = (0..count as u64)
                    .map(|i| match i % 4 {
                        0 => max,
                        1 => 0,
                        2 => i.wrapping_mul(0x9E37_79B9_7F4A_7C15) & max,
                        _ => max >> 1,
                    })
                    .collect();
                let mut buf = vec![0xAA];
                pack(&values, width, &mut buf);
                buf.push(0x55);
                let mut pos = 1;
                let unpacked = unpack(&buf, &mut pos, count, width).unwrap();
                assert_eq!(unpacked, values, "width {width}");
                assert_eq!(pos, buf.len() - 1, "width {width}, count {count}");
            }
        }
    }

    #[test]
    fn empty_input_produces_empty_output() {
        roundtrip(&[], 5);
    }

    #[test]
    fn packed_size_matches_expectation() {
        let values = vec![1u64; 16];
        let mut buf = Vec::new();
        pack(&values, 3, &mut buf);
        assert_eq!(buf.len(), 6); // 48 bits = 6 bytes
    }

    #[test]
    fn truncated_buffer_is_an_error() {
        let mut buf = Vec::new();
        pack(&[7; 100], 3, &mut buf);
        buf.truncate(buf.len() / 2);
        let mut pos = 0;
        assert!(unpack(&buf, &mut pos, 100, 3).is_err());
        // An untrusted count is checked against the bytes before anything
        // is reserved for it.
        assert!(unpack(&buf, &mut 0, 1 << 40, 3).is_err());
    }

    #[test]
    fn invalid_width_is_an_error() {
        let buf = vec![0u8; 8];
        let mut pos = 0;
        assert!(unpack(&buf, &mut pos, 4, 65).is_err());
    }

    #[test]
    fn zero_width_encodes_nothing_and_decodes_zeros() {
        let mut buf = Vec::new();
        pack(&[0, 0, 0, 0], 0, &mut buf);
        assert!(buf.is_empty());
        let mut pos = 0;
        assert_eq!(unpack(&buf, &mut pos, 4, 0).unwrap(), vec![0, 0, 0, 0]);
        assert_eq!(pos, 0);
    }

    #[test]
    fn consecutive_runs_share_a_buffer() {
        let mut buf = Vec::new();
        pack(&[1, 2, 3], 2, &mut buf);
        let first_len = buf.len();
        pack(&[9, 8, 7, 6], 4, &mut buf);
        let mut pos = 0;
        assert_eq!(unpack(&buf, &mut pos, 3, 2).unwrap(), vec![1, 2, 3]);
        assert_eq!(pos, first_len);
        assert_eq!(unpack(&buf, &mut pos, 4, 4).unwrap(), vec![9, 8, 7, 6]);
    }
}
