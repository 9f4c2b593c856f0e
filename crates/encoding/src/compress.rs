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

/// Decompress a buffer produced by [`compress`].
pub fn decompress(input: &[u8]) -> DecodeResult<Vec<u8>> {
    let mut pos = 0usize;
    let expected = varint::read_u64(input, &mut pos)? as usize;
    // The declared length is untrusted input; clamp the speculative
    // allocation and let the final length check reject mismatches.
    let mut out = Vec::with_capacity(expected.min(1 << 20));
    while pos < input.len() {
        let token = input[pos];
        pos += 1;
        if token & 0x80 == 0 {
            let len = (token as usize) + 1;
            let end = pos + len;
            if end > input.len() {
                return Err(DecodeError::new("truncated literal run"));
            }
            out.extend_from_slice(&input[pos..end]);
            pos = end;
        } else {
            let len = ((token & 0x7F) as usize) + MIN_MATCH;
            if pos + 2 > input.len() {
                return Err(DecodeError::new("truncated match token"));
            }
            let distance = u16::from_le_bytes([input[pos], input[pos + 1]]) as usize;
            pos += 2;
            if distance == 0 || distance > out.len() {
                return Err(DecodeError::new("invalid match distance"));
            }
            let start = out.len() - distance;
            // Byte-by-byte copy: matches may overlap their own output
            // (distance < len), which is how runs are expressed.
            for k in 0..len {
                let byte = out[start + k];
                out.push(byte);
            }
        }
    }
    if out.len() != expected {
        return Err(DecodeError::new(format!(
            "decompressed length mismatch: expected {expected}, got {}",
            out.len()
        )));
    }
    Ok(out)
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
