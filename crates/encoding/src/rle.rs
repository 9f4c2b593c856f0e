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
//! [`decode`] is the one level decoder. It yields `u16` levels directly
//! (widths above 16 bits are an `Err`) and expands a run at a time into
//! output sized before the first run, with a little slack past the levels
//! decoded so far: an RLE run is filled 32 levels at a time and a
//! bit-packed run of width up to 8 is unpacked a whole group of eight
//! values per step (one little-endian word, eight shifts), both writing
//! past the run's end into the slack, which the next run overwrites — so a
//! short run costs a few fixed-size stores, not a loop sized by the run.
//! Wider levels go through one `u64` accumulator. Run headers and
//! bit-packed counts, nearly always one byte, skip the general varint
//! loop. One pass over the levels then counts those at the caller's
//! maximum — the entries that announce a value, which a column chunk checks
//! against the values it stores — and finds a level above that maximum,
//! which is an `Err`.
//!
//! The input is untrusted. The value count comes from a chunk header, so
//! the decoder sizes its output by no more than the remaining bytes can
//! produce when bit-packed (eight values a byte) and grows it only as runs
//! arrive; a run that would exceed the count, a zero-length run, a
//! truncated run and a width above 16 are errors. An RLE run is the one
//! place the output may legitimately outgrow its bytes (that is its
//! purpose), so a forged run as long as a forged count is still
//! materialised: the page CRC, not this decoder, is what stands between
//! such damage and the allocator. The format is unchanged.

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

/// A run header or a bit-packed run's value count: a varint, nearly always
/// one byte, which is read without the general varint loop.
#[inline]
fn read_header(buf: &[u8], pos: &mut usize) -> DecodeResult<u64> {
    match buf.get(*pos) {
        Some(&byte) if byte < 0x80 => {
            *pos += 1;
            Ok(u64::from(byte))
        }
        _ => varint::read_u64(buf, pos),
    }
}

/// The repeated value of an RLE run at `width` (at most 16) bits.
#[inline]
fn read_fixed(buf: &[u8], pos: &mut usize, width: u32) -> DecodeResult<u16> {
    let nbytes = (width as usize).div_ceil(8);
    let bytes = buf
        .get(*pos..*pos + nbytes)
        .ok_or_else(|| DecodeError::new("truncated RLE literal"))?;
    *pos += nbytes;
    Ok(match *bytes {
        [] => 0,
        [lo] => u16::from(lo),
        [lo, hi, ..] => u16::from_le_bytes([lo, hi]),
    })
}

/// One run of a level stream: a repeated value, or the packed bytes from
/// where the run's start to the end of the stream.
enum Run<'a> {
    Repeat(u16),
    Packed(&'a [u8]),
}

/// How far the decoder may write past the end of a run: an RLE run is
/// filled this many levels at a time and a bit-packed group eight at a
/// time, into output that holds this many levels more than the runs so far.
/// What spills over is overwritten by the next run or truncated at the end.
const SLACK: usize = 32;

/// Decoded definition levels, and how many of them stand at the maximum
/// level the caller named — the entries that announce a value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Levels {
    /// One level per entry.
    pub levels: Vec<u16>,
    /// Levels equal to the maximum.
    pub at_max: usize,
}

/// Decode exactly `count` levels of the given `width` (at most 16 bits),
/// none above `max`, from `buf`, advancing `*pos`, and count those equal to
/// `max`. See the module docs for how a run is expanded and for the
/// contract on untrusted input.
pub fn decode(
    buf: &[u8],
    pos: &mut usize,
    count: usize,
    width: u32,
    max: u16,
) -> DecodeResult<Levels> {
    if width > 16 {
        return Err(DecodeError::new(format!("level width {width} exceeds 16 bits")));
    }
    let remaining = buf.len().saturating_sub(*pos);
    let mut levels = vec![0u16; count.min(remaining.saturating_mul(8)) + SLACK];
    let mut filled = 0usize;
    while filled < count {
        let header = read_header(buf, pos)?;
        let left = (count - filled) as u64;
        let (len, run) = if header & 1 == 0 {
            let run = header >> 1;
            if run == 0 {
                return Err(DecodeError::new("zero-length RLE run"));
            }
            let value = read_fixed(buf, pos, width)?;
            if run > left {
                return Err(DecodeError::new("RLE run exceeds requested count"));
            }
            (run, Run::Repeat(value))
        } else {
            let groups = header >> 1;
            let logical = read_header(buf, pos)?;
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
            let packed = &buf[*pos..];
            *pos = end;
            (logical, Run::Packed(packed))
        };
        let end = filled + len as usize;
        if end + SLACK > levels.len() {
            // Only after runs that expanded beyond eight values a byte.
            levels.resize(end + SLACK, 0);
        }
        match run {
            Run::Repeat(value) => {
                let mut at = filled;
                while at < end {
                    levels[at..at + SLACK].fill(value);
                    at += SLACK;
                }
            }
            Run::Packed(packed) => unpack(
                packed,
                width,
                &mut levels[filled..end + SLACK],
                end - filled,
            ),
        }
        filled = end;
    }
    levels.truncate(count);
    // One pass over the levels, in blocks whose counts fit a `u32` lane.
    let mut at_max = 0usize;
    let mut top = 0u16;
    for block in levels.chunks(1 << 16) {
        let mut block_at_max = 0u32;
        let mut block_top = 0u16;
        for &level in block {
            block_top = block_top.max(level);
            block_at_max += u32::from(level == max);
        }
        at_max += block_at_max as usize;
        top = top.max(block_top);
    }
    if top > max {
        return Err(DecodeError::new(format!(
            "level {top} exceeds the maximum {max}"
        )));
    }
    Ok(Levels { levels, at_max })
}

/// Unpack the first `n` values of a bit-packed run at `width` (at most 16)
/// bits into `out`, which holds `n` rounded up to a group of eight. `packed`
/// starts at the run's groups (`width` bytes each, LSB-first) and runs on to
/// the end of the stream. Up to 8 bits, a group is one little-endian word —
/// read as eight bytes when the stream has them, the bytes past the group
/// masked off — and its eight values are eight shifts of it.
fn unpack(packed: &[u8], width: u32, out: &mut [u16], n: usize) {
    if width == 0 {
        out[..n].fill(0);
        return;
    }
    let mask = (1u64 << width) - 1;
    if width <= 8 {
        let w = width as usize;
        let group_bits = if w == 8 {
            u64::MAX
        } else {
            (1u64 << (8 * w)) - 1
        };
        for (g, group) in out.chunks_exact_mut(8).take(n.div_ceil(8)).enumerate() {
            let word = match packed.get(g * w..).and_then(<[u8]>::first_chunk::<8>) {
                Some(bytes) => u64::from_le_bytes(*bytes) & group_bits,
                None => {
                    let mut word = [0u8; 8];
                    word[..w].copy_from_slice(&packed[g * w..(g + 1) * w]);
                    u64::from_le_bytes(word)
                }
            };
            for (i, value) in group.iter_mut().enumerate() {
                *value = ((word >> (i as u32 * width)) & mask) as u16;
            }
        }
        return;
    }
    let mut bytes = packed.iter();
    let mut acc = 0u64;
    let mut bits = 0u32;
    for value in &mut out[..n] {
        while bits < width {
            acc |= u64::from(bytes.next().copied().unwrap_or(0)) << bits;
            bits += 8;
        }
        *value = (acc & mask) as u16;
        acc >>= width;
        bits -= width;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(values: &[u64], width: u32) -> usize {
        let mut buf = Vec::new();
        encode(values, width, &mut buf);
        let mut pos = 0;
        let max = values.iter().copied().max().unwrap_or(0) as u16;
        let decoded = decode(&buf, &mut pos, values.len(), width, max).unwrap();
        assert!(decoded
            .levels
            .iter()
            .map(|&v| u64::from(v))
            .eq(values.iter().copied()));
        let at_max = values.iter().filter(|&&v| v == u64::from(max)).count();
        assert_eq!(decoded.at_max, at_max);
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
        assert!(decode(&buf, &mut 0, 1, 17, u16::MAX).is_err());
    }

    #[test]
    fn truncation_detected() {
        let values = vec![3u64; 100];
        let mut buf = Vec::new();
        encode(&values, 2, &mut buf);
        buf.truncate(1);
        let mut pos = 0;
        assert!(decode(&buf, &mut pos, 100, 2, 3).is_err());
    }

    /// A level above the caller's maximum is an `Err`, in an RLE run and in
    /// a bit-packed one; the levels at the maximum are counted in both.
    #[test]
    fn levels_above_the_maximum_are_errors() {
        for values in [vec![1u64; 20], vec![0, 1, 2, 1, 0, 2, 2, 1, 0]] {
            let mut buf = Vec::new();
            encode(&values, 2, &mut buf);
            let top = *values.iter().max().unwrap() as u16;
            assert!(decode(&buf, &mut 0, values.len(), 2, top - 1).is_err());
            let levels = decode(&buf, &mut 0, values.len(), 2, top).unwrap();
            let at_top = values.iter().filter(|&&v| v == u64::from(top)).count();
            assert_eq!(levels.at_max, at_top);
        }
    }

    /// A count far beyond what the bytes hold is an `Err`, not an attempt
    /// to reserve it; so are runs that claim more than the count.
    #[test]
    fn hostile_counts_are_errors() {
        let values: Vec<u64> = (0..50).map(|i| i % 3).collect();
        let mut buf = Vec::new();
        encode(&values, 2, &mut buf);
        assert!(decode(&buf, &mut 0, 1 << 40, 2, 3).is_err());
        assert!(decode(&buf, &mut 0, 10, 2, 3).is_err());

        let mut rle = Vec::new();
        varint::write_u64(&mut rle, 1 << 42);
        rle.push(1);
        assert!(decode(&rle, &mut 0, 1 << 40, 2, 3).is_err());

        let mut packed = Vec::new();
        varint::write_u64(&mut packed, (u64::MAX >> 1) | 1);
        varint::write_u64(&mut packed, 8);
        assert!(decode(&packed, &mut 0, 8, 16, u16::MAX).is_err());
    }
}
