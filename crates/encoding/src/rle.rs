//! RLE / bit-packed hybrid encoding for small integers.
//!
//! This is the encoding Parquet (and therefore the paper) uses for definition
//! levels. The value stream is split into runs:
//!
//! * an *RLE run* `(count << 1) | 0`, followed by the repeated value packed
//!   into `ceil(width/8)` bytes — chosen when the same value repeats;
//! * a *bit-packed run* `(groups << 1) | 1`, followed by a varint count of
//!   the values that are real and `groups * 8` values packed at `width` bits
//!   (zero padding after the real ones) — chosen for irregular stretches.
//!
//! Definition-level streams of real documents are dominated by long runs
//! (every record has the field, or almost none do), which is exactly the case
//! this hybrid compresses to almost nothing.
//!
//! [`decode`] is the one level decoder: it yields `u16` levels directly
//! (widths above 16 bits are an `Err`), unpacks bit-packed runs through one
//! `u64` accumulator with no scratch buffer, and treats its input as
//! untrusted. The value count comes from a chunk header, so the decoder
//! reserves no more than the remaining bytes can produce when bit-packed
//! (eight values a byte) and grows the output only as runs arrive; a run
//! that would exceed the count, a zero-length run, a truncated run and a
//! width above 16 are errors. An RLE run is the one place the output may
//! legitimately outgrow its bytes (that is its purpose), so a forged run as
//! long as a forged count is still materialised: the page CRC, not this
//! decoder, is what stands between such damage and the allocator. The
//! format is unchanged.

use crate::bitpack;
use crate::varint;
use crate::{DecodeError, DecodeResult};

/// Minimum repeat length at which the encoder switches to an RLE run.
const MIN_RLE_RUN: usize = 8;

/// Encode `values` at the given bit `width`, appending to `out`.
///
/// The encoding is self-delimiting given the value count, which readers know
/// from the page header; the width is likewise stored by the caller.
pub fn encode(values: &[u64], width: u32, out: &mut Vec<u8>) {
    let mut i = 0usize;
    let mut pending: Vec<u64> = Vec::with_capacity(64);
    while i < values.len() {
        // Measure the run of identical values starting at i.
        let v = values[i];
        let mut run = 1usize;
        while i + run < values.len() && values[i + run] == v {
            run += 1;
        }
        if run >= MIN_RLE_RUN {
            flush_bitpacked(&mut pending, width, out);
            varint::write_u64(out, (run as u64) << 1);
            write_fixed(v, width, out);
            i += run;
        } else {
            pending.extend(std::iter::repeat_n(v, run));
            i += run;
        }
    }
    flush_bitpacked(&mut pending, width, out);
}

fn flush_bitpacked(pending: &mut Vec<u64>, width: u32, out: &mut Vec<u8>) {
    if pending.is_empty() {
        return;
    }
    // Bit-packed runs cover a multiple of 8 values; pad with zeros. The
    // decoder truncates to the requested count, so padding is harmless.
    let groups = pending.len().div_ceil(8);
    varint::write_u64(out, ((groups as u64) << 1) | 1);
    varint::write_u64(out, pending.len() as u64);
    pending.resize(groups * 8, 0);
    bitpack::pack(pending, width, out);
    pending.clear();
}

fn write_fixed(value: u64, width: u32, out: &mut Vec<u8>) {
    let nbytes = (width as usize).div_ceil(8);
    out.extend_from_slice(&value.to_le_bytes()[..nbytes]);
}

/// The repeated value of an RLE run at `width` (at most 16) bits.
fn read_fixed(buf: &[u8], pos: &mut usize, width: u32) -> DecodeResult<u16> {
    let nbytes = (width as usize).div_ceil(8);
    if *pos + nbytes > buf.len() {
        return Err(DecodeError::new("truncated RLE literal"));
    }
    let mut bytes = [0u8; 2];
    bytes[..nbytes].copy_from_slice(&buf[*pos..*pos + nbytes]);
    *pos += nbytes;
    Ok(u16::from_le_bytes(bytes))
}

/// Decode exactly `count` values of the given `width` (at most 16 bits) from
/// `buf`, advancing `*pos`. See the module docs for the contract on
/// untrusted input.
pub fn decode(buf: &[u8], pos: &mut usize, count: usize, width: u32) -> DecodeResult<Vec<u16>> {
    if width > 16 {
        return Err(DecodeError::new(format!("level width {width} exceeds 16 bits")));
    }
    let remaining = buf.len().saturating_sub(*pos);
    let mut out = Vec::with_capacity(count.min(remaining.saturating_mul(8)));
    while out.len() < count {
        let header = varint::read_u64(buf, pos)?;
        let left = (count - out.len()) as u64;
        if header & 1 == 0 {
            let run = header >> 1;
            if run == 0 {
                return Err(DecodeError::new("zero-length RLE run"));
            }
            let value = read_fixed(buf, pos, width)?;
            if run > left {
                return Err(DecodeError::new("RLE run exceeds requested count"));
            }
            out.resize(out.len() + run as usize, value);
        } else {
            let groups = header >> 1;
            let logical = varint::read_u64(buf, pos)?;
            let packed = groups
                .checked_mul(8)
                .ok_or_else(|| DecodeError::new("bit-packed run size overflow"))?;
            if logical > packed {
                return Err(DecodeError::new("bit-packed run length inconsistent"));
            }
            // `groups * 8` values at `width` bits: `groups * width` bytes.
            let end = groups
                .checked_mul(u64::from(width))
                .and_then(|len| usize::try_from(len).ok())
                .and_then(|len| pos.checked_add(len))
                .filter(|&end| end <= buf.len())
                .ok_or_else(|| DecodeError::new("truncated bit-packed run"))?;
            if logical > left {
                return Err(DecodeError::new("bit-packed run exceeds requested count"));
            }
            unpack(&buf[*pos..end], logical as usize, width, &mut out);
            *pos = end;
        }
    }
    Ok(out)
}

/// Append the first `n` values packed LSB-first at `width` (at most 16)
/// bits in `data`, which holds at least `n * width` bits.
fn unpack(data: &[u8], n: usize, width: u32, out: &mut Vec<u16>) {
    let mask = (1u64 << width) - 1;
    let mut bytes = data.iter();
    let mut acc = 0u64;
    let mut bits = 0u32;
    out.extend((0..n).map(|_| {
        while bits < width {
            acc |= u64::from(bytes.next().copied().unwrap_or(0)) << bits;
            bits += 8;
        }
        let value = (acc & mask) as u16;
        acc >>= width;
        bits -= width;
        value
    }));
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(values: &[u64], width: u32) -> usize {
        let mut buf = Vec::new();
        encode(values, width, &mut buf);
        let mut pos = 0;
        let decoded = decode(&buf, &mut pos, values.len(), width).unwrap();
        assert!(decoded.iter().map(|&v| u64::from(v)).eq(values.iter().copied()));
        assert_eq!(pos, buf.len());
        buf.len()
    }

    #[test]
    fn roundtrip_mixed_runs() {
        let mut values = vec![2u64; 100];
        values.extend([0, 1, 2, 3, 0, 1, 2, 3, 1, 0]);
        values.extend(vec![0u64; 50]);
        roundtrip(&values, 2);
    }

    #[test]
    fn long_runs_compress_well() {
        let values = vec![1u64; 10_000];
        let size = roundtrip(&values, 1);
        assert!(size < 16, "10k identical levels should take a few bytes, got {size}");
    }

    #[test]
    fn irregular_values_roundtrip() {
        let values: Vec<u64> = (0..1000).map(|i| (i * 7) % 5).collect();
        roundtrip(&values, 3);
    }

    #[test]
    fn empty_and_single() {
        roundtrip(&[], 1);
        roundtrip(&[3], 2);
        roundtrip(&[0], 1);
    }

    #[test]
    fn wide_values() {
        let values: Vec<u64> = (0..100).map(|i| (i * 1_003) % 65_536).collect();
        roundtrip(&values, 16);
        roundtrip(&[u64::from(u16::MAX); 20], 16);
        // Levels are `u16`: a wider stream is damage.
        let mut buf = Vec::new();
        encode(&[1 << 16], 17, &mut buf);
        assert!(decode(&buf, &mut 0, 1, 17).is_err());
    }

    #[test]
    fn truncation_detected() {
        let values = vec![3u64; 100];
        let mut buf = Vec::new();
        encode(&values, 2, &mut buf);
        buf.truncate(1);
        let mut pos = 0;
        assert!(decode(&buf, &mut pos, 100, 2).is_err());
    }

    /// A count far beyond what the bytes hold is an `Err`, not an attempt
    /// to reserve it; so are runs that claim more than the count.
    #[test]
    fn hostile_counts_are_errors() {
        let values: Vec<u64> = (0..50).map(|i| i % 3).collect();
        let mut buf = Vec::new();
        encode(&values, 2, &mut buf);
        assert!(decode(&buf, &mut 0, 1 << 40, 2).is_err());
        assert!(decode(&buf, &mut 0, 10, 2).is_err());

        let mut rle = Vec::new();
        varint::write_u64(&mut rle, 1 << 42);
        rle.push(1);
        assert!(decode(&rle, &mut 0, 1 << 40, 2).is_err());

        let mut packed = Vec::new();
        varint::write_u64(&mut packed, (u64::MAX >> 1) | 1);
        varint::write_u64(&mut packed, 8);
        assert!(decode(&packed, &mut 0, 8, 16).is_err());
    }
}
