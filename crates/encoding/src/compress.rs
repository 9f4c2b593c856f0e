//! Page-level block compression.
//!
//! AsterixDB (and the paper's experiments) apply Snappy page-level
//! compression to every on-disk page regardless of layout. Snappy itself is
//! not in the approved offline crate set, so this module implements a small
//! LZ77-family byte-oriented compressor with the same role and broadly the
//! same behaviour: cheap, byte-aligned, good at repeated substrings (field
//! names, JSON syntax, repeated values in row pages), useless against already
//! high-entropy data. Absolute compression ratios therefore differ from
//! the paper's; the layouts are compared under the same compressor.
//!
//! Format: `varint uncompressed_len`, then a token stream. Each token byte
//! encodes a literal run (`0x00..=0x7F`: 1–128 literal bytes follow) or a
//! match (`0x80..=0xFF`: length 4–131, followed by a 2-byte little-endian
//! back-distance).
//!
//! The decoder is on every leaf miss of a scan, so it runs at copy speed:
//! one output buffer allocated once, literal runs copied as slices, matches
//! copied in 16-byte blocks (byte by byte only when the source is closer
//! than a block). Its contract on untrusted input — every truncation and
//! every flipped byte is an `Err` or the right bytes, never a panic, and no
//! allocation beyond what the stream can expand to — is spelled out on
//! [`decompress`]. The format is the one the encoder has always written.

use crate::varint;
use crate::{DecodeError, DecodeResult};

/// Minimum match length worth emitting (shorter matches cost as much as the
/// literals they would replace).
const MIN_MATCH: usize = 4;
/// Maximum match length a single token can express.
const MAX_MATCH: usize = 131;
/// Maximum back-reference distance (64 KiB window).
const MAX_DISTANCE: usize = 65_535;
/// Size of the hash table used to find match candidates.
const HASH_BITS: u32 = 14;

/// Compress `input` into a fresh buffer.
pub fn compress(input: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(input.len() / 2 + 16);
    varint::write_u64(&mut out, input.len() as u64);
    if input.is_empty() {
        return out;
    }

    let mut table = vec![usize::MAX; 1 << HASH_BITS];
    let mut i = 0usize;
    let mut literal_start = 0usize;

    while i + MIN_MATCH <= input.len() {
        let h = hash4(&input[i..i + 4]);
        let candidate = table[h];
        table[h] = i;
        let is_match = candidate != usize::MAX
            && i - candidate <= MAX_DISTANCE
            && input[candidate..candidate + 4] == input[i..i + 4];
        if is_match {
            // Extend the match as far as it goes.
            let mut len = 4;
            while i + len < input.len()
                && len < MAX_MATCH
                && input[candidate + len] == input[i + len]
            {
                len += 1;
            }
            flush_literals(&input[literal_start..i], &mut out);
            let distance = (i - candidate) as u16;
            out.push(0x80 | (len - MIN_MATCH) as u8);
            out.extend_from_slice(&distance.to_le_bytes());
            // Seed the hash table inside the match so later data can refer
            // back into it (coarsely, every 3rd byte, to bound CPU cost).
            let mut j = i + 1;
            while j + 4 <= i + len && j + 4 <= input.len() {
                table[hash4(&input[j..j + 4])] = j;
                j += 3;
            }
            i += len;
            literal_start = i;
        } else {
            i += 1;
        }
    }
    flush_literals(&input[literal_start..], &mut out);
    out
}

fn flush_literals(mut literals: &[u8], out: &mut Vec<u8>) {
    while !literals.is_empty() {
        let take = literals.len().min(128);
        out.push((take - 1) as u8);
        out.extend_from_slice(&literals[..take]);
        literals = &literals[take..];
    }
}

fn hash4(bytes: &[u8]) -> usize {
    let v = u32::from_le_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]);
    ((v.wrapping_mul(2654435761)) >> (32 - HASH_BITS)) as usize
}

/// Matches whose source lies at least this far back are copied in blocks of
/// this many bytes, closer ones byte by byte (see `copy_match`).
const COPY_BLOCK: usize = 16;

/// The most output `stream_len` bytes of tokens can expand to: a match token
/// is three bytes for at most [`MAX_MATCH`] bytes, a literal run at most one
/// byte per byte, so no token yields more than `MAX_MATCH / 3` per byte.
fn max_expansion(stream_len: usize) -> usize {
    stream_len.saturating_mul(MAX_MATCH) / 3
}

/// Decompress a buffer produced by [`compress`].
///
/// The input is untrusted. The declared length is checked against what the
/// token stream can expand to (no token yields more than `131 / 3` bytes
/// per byte) before the output buffer is allocated, so a forged length is an `Err`, never a huge allocation;
/// the buffer is then sized once and never grows. A literal run or match
/// that would write past the declared length, a match reaching before the
/// start of the output, a truncated token and a short output are all
/// errors.
pub fn decompress(input: &[u8]) -> DecodeResult<Vec<u8>> {
    let mut pos = 0usize;
    let expected = varint::read_u64(input, &mut pos)?;
    let expected = usize::try_from(expected)
        .ok()
        .filter(|&len| len <= max_expansion(input.len() - pos))
        .ok_or_else(|| {
            DecodeError::new(format!(
                "declared length {expected} exceeds what {} compressed bytes can expand to",
                input.len() - pos
            ))
        })?;
    let mut out = vec![0u8; expected];
    let mut at = 0usize;
    while pos < input.len() {
        let token = input[pos];
        pos += 1;
        if token & 0x80 == 0 {
            let len = (token as usize) + 1;
            let end = pos + len;
            if end > input.len() {
                return Err(DecodeError::new("truncated literal run"));
            }
            if len > expected - at {
                return Err(DecodeError::new("literal run overruns the declared length"));
            }
            out[at..at + len].copy_from_slice(&input[pos..end]);
            pos = end;
            at += len;
        } else {
            let len = ((token & 0x7F) as usize) + MIN_MATCH;
            if pos + 2 > input.len() {
                return Err(DecodeError::new("truncated match token"));
            }
            let distance = u16::from_le_bytes([input[pos], input[pos + 1]]) as usize;
            pos += 2;
            if distance == 0 || distance > at {
                return Err(DecodeError::new("invalid match distance"));
            }
            if len > expected - at {
                return Err(DecodeError::new("match overruns the declared length"));
            }
            copy_match(&mut out, at, distance, len);
            at += len;
        }
    }
    if at != expected {
        return Err(DecodeError::new(format!(
            "decompressed length mismatch: expected {expected}, got {at}"
        )));
    }
    Ok(out)
}

/// Write `len` bytes at `out[at..]` copied from `distance` bytes back, with
/// the meaning of a byte-by-byte copy, which lets a match overlap its own
/// output (`distance < len` is how runs are expressed). From
/// [`COPY_BLOCK`] bytes back a block never reads what it writes, so the
/// match moves in fixed 16-byte blocks; the last one may run past the match
/// into bytes later tokens overwrite (the decoder writes every byte in
/// order and checks it reached the declared length), so it is only taken
/// with a block of room left. Closer sources are copied byte by byte.
fn copy_match(out: &mut [u8], at: usize, distance: usize, len: usize) {
    let from = at - distance;
    if distance < COPY_BLOCK {
        for k in 0..len {
            out[at + k] = out[from + k];
        }
    } else if out.len() - at >= len + COPY_BLOCK {
        for k in (0..len).step_by(COPY_BLOCK) {
            out.copy_within(from + k..from + k + COPY_BLOCK, at + k);
        }
    } else {
        for k in (0..len).step_by(COPY_BLOCK) {
            let step = COPY_BLOCK.min(len - k);
            out.copy_within(from + k..from + k + step, at + k);
        }
    }
}

/// Compress only if it helps: returns `(compressed_flag, bytes)`. Pages whose
/// payload does not shrink are stored raw, as real page-compression layers do.
pub fn compress_if_smaller(input: &[u8]) -> (bool, Vec<u8>) {
    let compressed = compress(input);
    if compressed.len() < input.len() {
        (true, compressed)
    } else {
        (false, input.to_vec())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(data: &[u8]) -> usize {
        let compressed = compress(data);
        let decompressed = decompress(&compressed).unwrap();
        assert_eq!(decompressed, data);
        compressed.len()
    }

    #[test]
    fn roundtrip_empty_and_tiny() {
        roundtrip(b"");
        roundtrip(b"a");
        roundtrip(b"abc");
        roundtrip(b"abcd");
    }

    #[test]
    fn repeated_json_compresses_well() {
        let doc = br#"{"sensor_id": 12, "battery": 88, "readings": [1,2,3]}"#;
        let mut data = Vec::new();
        for _ in 0..200 {
            data.extend_from_slice(doc);
        }
        let size = roundtrip(&data);
        assert!(size * 4 < data.len(), "expected >4x compression, got {size} vs {}", data.len());
    }

    #[test]
    fn long_runs_compress() {
        let data = vec![7u8; 100_000];
        let size = roundtrip(&data);
        assert!(size < 3_000);
    }

    #[test]
    fn incompressible_data_roundtrips() {
        // Pseudo-random bytes: should not compress but must round-trip.
        let mut state = 0x12345678u64;
        let data: Vec<u8> = (0..10_000)
            .map(|_| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                (state >> 33) as u8
            })
            .collect();
        roundtrip(&data);
    }

    #[test]
    fn compress_if_smaller_skips_incompressible() {
        let mut state = 99u64;
        let random: Vec<u8> = (0..4096)
            .map(|_| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                (state >> 24) as u8
            })
            .collect();
        let (flag, bytes) = compress_if_smaller(&random);
        if !flag {
            assert_eq!(bytes, random);
        }
        let text = vec![b'x'; 4096];
        let (flag, bytes) = compress_if_smaller(&text);
        assert!(flag);
        assert!(bytes.len() < text.len());
    }

    #[test]
    fn corrupt_streams_are_rejected() {
        let compressed = compress(b"hello hello hello hello hello hello");
        // Truncate payload.
        let truncated = &compressed[..compressed.len() - 3];
        assert!(decompress(truncated).is_err());
        // Corrupt the declared length.
        let mut wrong = compressed.clone();
        wrong[0] = wrong[0].wrapping_add(1);
        assert!(decompress(&wrong).is_err());
        // Invalid distance: match token referring before the start.
        let mut bogus = Vec::new();
        varint::write_u64(&mut bogus, 10);
        bogus.push(0x80);
        bogus.extend_from_slice(&100u16.to_le_bytes());
        assert!(decompress(&bogus).is_err());
    }

    #[test]
    fn overlapping_matches_expand_runs() {
        let data = b"abababababababababababababab".to_vec();
        roundtrip(&data);
    }
}
