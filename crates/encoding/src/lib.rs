//! # encoding — columnar value encodings and page compression
//!
//! The extended-Dremel columnar format encodes every column (its definition
//! levels and its values) before writing it into APAX minipages or AMAX
//! megapages. The paper adopts Apache Parquet's encoding toolbox — except
//! dictionary encoding, which it explicitly leaves for future work — and
//! applies page-level compression (Snappy in the paper) to every page. Here
//! only the row layouts' pages are compressed whole; a columnar chunk picks
//! its own codec when its leaf is sealed (decimal doubles, LZ over strings
//! only where it pays), so a columnar read runs no page-level LZ pass.
//!
//! This crate provides that toolbox:
//!
//! * [`varint`] — unsigned LEB128 varints and zigzag transforms, the building
//!   block of several encodings and of the row formats in `storage`;
//! * [`bitpack`] — fixed-width bit-packing of small unsigned integers
//!   (definition levels, booleans, dictionary-free enums);
//! * [`rle`] — the Parquet RLE / bit-packed *hybrid* used for definition
//!   levels, where long runs of the same level (all values present, or all
//!   missing) collapse to a few bytes;
//! * [`delta`] — delta binary packing for integer columns (timestamps,
//!   counters, monotone keys);
//! * [`decimal`] — doubles that are short decimals, stored as delta-packed
//!   integers and a power of ten when that round-trips bit for bit;
//! * [`bytesenc`] — delta-length byte arrays and incremental (prefix-sharing)
//!   delta strings for textual columns;
//! * [`plain`] — plain little-endian encodings for every scalar type;
//! * [`compress`] — an LZ-style block compressor standing in for Snappy:
//!   row pages whole, string chunks where it saves an eighth (the module
//!   docs give the substitution note);
//! * [`crc`] — CRC-32 checksums guarding the durable structures (WAL frames,
//!   manifests and file-backed page headers) of the `persist` subsystem.
//!
//! Every encoder writes into a caller-supplied `Vec<u8>` so the columnar
//! writers can reuse temporary buffers across pages, and every decoder reads
//! from a byte slice without copying the payload.

#![cfg_attr(not(test), deny(clippy::unwrap_used))]

pub mod bitpack;
pub mod bytesenc;
pub mod compress;
pub mod crc;
pub mod decimal;
pub mod delta;
pub mod plain;
pub mod rle;
pub mod varint;

use std::fmt;

/// Error returned by decoders when the byte stream is corrupt or truncated.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecodeError {
    /// Description of what went wrong.
    pub message: String,
}

impl DecodeError {
    /// Construct a new decode error.
    pub fn new(message: impl Into<String>) -> Self {
        DecodeError {
            message: message.into(),
        }
    }
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "decode error: {}", self.message)
    }
}

impl std::error::Error for DecodeError {}

/// Result alias for decoders.
pub type DecodeResult<T> = Result<T, DecodeError>;

/// Read an element count (a varint) from untrusted bytes. Every counted
/// element occupies at least one encoded byte, so a count larger than the
/// bytes that remain is corruption — rejected here, before the caller sizes
/// a `Vec` by it. The way a decoder reads a count, wherever its elements
/// take a byte or more; not for run-length or bit-packed streams, whose
/// elements can take less.
pub fn read_count(buf: &[u8], pos: &mut usize) -> DecodeResult<usize> {
    let count = varint::read_u64(buf, pos)?;
    check_count(count, buf, *pos)
}

/// [`read_count`]'s check, for a count stored as a fixed-width integer:
/// `count` elements must fit in what remains of `buf` after `pos`.
pub fn check_count(count: u64, buf: &[u8], pos: usize) -> DecodeResult<usize> {
    let remaining = buf.len().saturating_sub(pos);
    if count > remaining as u64 {
        return Err(DecodeError::new(format!(
            "count {count} exceeds the {remaining} bytes that remain"
        )));
    }
    Ok(count as usize)
}

/// Identifies the encoding of a column chunk's values. Persisted as one tag
/// byte in front of the values, so a reader picks the decoder the writer
/// chose for that chunk; mirrors Parquet's encoding enum restricted to what
/// the paper uses, plus [`Encoding::Decimal`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Encoding {
    /// Fixed-width little-endian values, or length-prefixed byte arrays.
    Plain,
    /// RLE / bit-packed hybrid (definition levels, booleans).
    RleBitPacked,
    /// Delta binary packed integers.
    DeltaBinaryPacked,
    /// Delta-length byte arrays (lengths delta packed, bytes concatenated).
    DeltaLengthByteArray,
    /// Incremental ("delta strings"): shared-prefix length + suffix.
    DeltaByteArray,
    /// Doubles stored as delta-packed integers and a power of ten
    /// ([`decimal`]).
    Decimal,
}

impl Encoding {
    /// Stable numeric tag used when persisting page headers.
    pub fn tag(self) -> u8 {
        match self {
            Encoding::Plain => 0,
            Encoding::RleBitPacked => 1,
            Encoding::DeltaBinaryPacked => 2,
            Encoding::DeltaLengthByteArray => 3,
            Encoding::DeltaByteArray => 4,
            Encoding::Decimal => 5,
        }
    }

    /// Inverse of [`Encoding::tag`].
    pub fn from_tag(tag: u8) -> DecodeResult<Encoding> {
        Ok(match tag {
            0 => Encoding::Plain,
            1 => Encoding::RleBitPacked,
            2 => Encoding::DeltaBinaryPacked,
            3 => Encoding::DeltaLengthByteArray,
            4 => Encoding::DeltaByteArray,
            5 => Encoding::Decimal,
            other => return Err(DecodeError::new(format!("unknown encoding tag {other}"))),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encoding_tags_roundtrip() {
        for enc in [
            Encoding::Plain,
            Encoding::RleBitPacked,
            Encoding::DeltaBinaryPacked,
            Encoding::DeltaLengthByteArray,
            Encoding::DeltaByteArray,
            Encoding::Decimal,
        ] {
            assert_eq!(Encoding::from_tag(enc.tag()).unwrap(), enc);
        }
        assert!(Encoding::from_tag(200).is_err());
    }

    #[test]
    fn a_count_beyond_the_remaining_bytes_is_an_error() {
        let mut buf = Vec::new();
        varint::write_u64(&mut buf, 1 << 40);
        buf.extend_from_slice(&[0; 64]);
        assert!(read_count(&buf, &mut 0).is_err());
        assert!(check_count(1 << 40, &buf, 0).is_err());
        // A delta-string column claiming 2^40 values is refused up front.
        assert!(bytesenc::delta_strings::decode(&buf, &mut 0).is_err());
        let mut buf = Vec::new();
        varint::write_u64(&mut buf, 3);
        buf.extend_from_slice(&[7; 3]);
        assert_eq!(read_count(&buf, &mut 0), Ok(3));
        assert_eq!(check_count(4, &buf, 0), Ok(4));
        assert!(check_count(5, &buf, 0).is_err());
    }

    #[test]
    fn decode_error_display() {
        let e = DecodeError::new("boom");
        assert!(e.to_string().contains("boom"));
    }
}
