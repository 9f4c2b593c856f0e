//! Byte-array (string) encodings: delta-length and incremental delta strings.
//!
//! Textual columns dominate the `tweet` and `wos` datasets. Two encodings are
//! provided, mirroring Parquet:
//!
//! * [`delta_length`] — `DELTA_LENGTH_BYTE_ARRAY`: all lengths are
//!   delta-binary-packed up front, then the raw bytes of every value are
//!   concatenated. Good for arbitrary strings, enables vectorised scans.
//! * [`delta_strings`] — `DELTA_BYTE_ARRAY` ("delta strings" in the paper):
//!   every value stores the length of the prefix it shares with its
//!   predecessor plus the remaining suffix. Excellent for sorted or highly
//!   repetitive strings (hashtags, country names, console names).

use crate::delta;
use crate::varint;
use crate::{DecodeError, DecodeResult};

/// Delta-length byte array encoding.
pub mod delta_length {
    use super::*;

    /// Encode `values` (any byte strings), appending to `out`.
    pub fn encode<S: AsRef<[u8]>>(values: &[S], out: &mut Vec<u8>) {
        let lengths: Vec<i64> = values.iter().map(|v| v.as_ref().len() as i64).collect();
        delta::encode(&lengths, out);
        for v in values {
            out.extend_from_slice(v.as_ref());
        }
    }

    /// Decode the values encoded by [`encode`].
    pub fn decode(buf: &[u8], pos: &mut usize) -> DecodeResult<Vec<Vec<u8>>> {
        let lengths = delta::decode(buf, pos)?;
        let mut out = Vec::with_capacity(lengths.len());
        for len in lengths {
            let len = usize::try_from(len)
                .map_err(|_| DecodeError::new("negative string length"))?;
            let end = pos.checked_add(len).ok_or_else(|| DecodeError::new("length overflow"))?;
            if end > buf.len() {
                return Err(DecodeError::new("truncated byte-array payload"));
            }
            out.push(buf[*pos..end].to_vec());
            *pos = end;
        }
        Ok(out)
    }

    /// Decode into UTF-8 strings (lossy conversion never fails; the columnar
    /// layer only stores valid UTF-8 so the conversion is exact in practice).
    pub fn decode_strings(buf: &[u8], pos: &mut usize) -> DecodeResult<Vec<String>> {
        Ok(decode(buf, pos)?
            .into_iter()
            .map(|b| String::from_utf8_lossy(&b).into_owned())
            .collect())
    }
}

/// Incremental (prefix-sharing) delta string encoding.
pub mod delta_strings {
    use super::*;

    /// Encode `values`, appending to `out`.
    ///
    /// Layout: varint count, then per value `varint prefix_len`,
    /// `varint suffix_len`, suffix bytes.
    pub fn encode<S: AsRef<[u8]>>(values: &[S], out: &mut Vec<u8>) {
        varint::write_u64(out, values.len() as u64);
        let mut prev: &[u8] = &[];
        for v in values {
            let cur = v.as_ref();
            let prefix = common_prefix(prev, cur);
            varint::write_u64(out, prefix as u64);
            varint::write_u64(out, (cur.len() - prefix) as u64);
            out.extend_from_slice(&cur[prefix..]);
            prev = cur;
        }
    }

    /// Decode the values encoded by [`encode`].
    pub fn decode(buf: &[u8], pos: &mut usize) -> DecodeResult<Vec<Vec<u8>>> {
        let count = crate::read_count(buf, pos)?;
        let mut out: Vec<Vec<u8>> = Vec::with_capacity(count);
        let mut prev: Vec<u8> = Vec::new();
        for _ in 0..count {
            let prefix = varint::read_u64(buf, pos)? as usize;
            let suffix_len = varint::read_u64(buf, pos)? as usize;
            if prefix > prev.len() {
                return Err(DecodeError::new("prefix longer than previous value"));
            }
            let end = pos.checked_add(suffix_len).ok_or_else(|| DecodeError::new("suffix length overflow"))?;
            if end > buf.len() {
                return Err(DecodeError::new("truncated delta-string suffix"));
            }
            let mut value = Vec::with_capacity(prefix + suffix_len);
            value.extend_from_slice(&prev[..prefix]);
            value.extend_from_slice(&buf[*pos..end]);
            *pos = end;
            prev = value.clone();
            out.push(value);
        }
        Ok(out)
    }

    /// Decode into UTF-8 strings.
    pub fn decode_strings(buf: &[u8], pos: &mut usize) -> DecodeResult<Vec<String>> {
        Ok(decode(buf, pos)?
            .into_iter()
            .map(|b| String::from_utf8_lossy(&b).into_owned())
            .collect())
    }

    fn common_prefix(a: &[u8], b: &[u8]) -> usize {
        a.iter().zip(b.iter()).take_while(|(x, y)| x == y).count()
    }
}

/// Pick the smaller of the two byte-array encodings for the given values and
/// return `(encoding_tag, bytes)`. Column writers use this to adapt per
/// column chunk, mimicking Parquet writers' per-page encoding choice.
pub fn encode_adaptive<S: AsRef<[u8]>>(values: &[S]) -> (crate::Encoding, Vec<u8>) {
    let mut dl = Vec::new();
    delta_length::encode(values, &mut dl);
    let mut ds = Vec::new();
    delta_strings::encode(values, &mut ds);
    if ds.len() < dl.len() {
        (crate::Encoding::DeltaByteArray, ds)
    } else {
        (crate::Encoding::DeltaLengthByteArray, dl)
    }
}

/// Decode a byte-array column produced by [`encode_adaptive`].
pub fn decode_adaptive(
    encoding: crate::Encoding,
    buf: &[u8],
    pos: &mut usize,
) -> DecodeResult<Vec<Vec<u8>>> {
    match encoding {
        crate::Encoding::DeltaLengthByteArray => delta_length::decode(buf, pos),
        crate::Encoding::DeltaByteArray => delta_strings::decode(buf, pos),
        other => Err(DecodeError::new(format!(
            "not a byte-array encoding: {other:?}"
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_strings() -> Vec<String> {
        vec![
            "NFL".to_string(),
            "FIFA".to_string(),
            "NBA".to_string(),
            "NFL".to_string(),
            "".to_string(),
            "a much longer tweet-like string with spaces".to_string(),
            "a much longer tweet-like string with hashtags #jobs".to_string(),
        ]
    }

    #[test]
    fn delta_length_roundtrip() {
        let values = sample_strings();
        let mut buf = Vec::new();
        delta_length::encode(&values, &mut buf);
        let mut pos = 0;
        let decoded = delta_length::decode_strings(&buf, &mut pos).unwrap();
        assert_eq!(decoded, values);
        assert_eq!(pos, buf.len());
    }

    #[test]
    fn delta_strings_roundtrip() {
        let values = sample_strings();
        let mut buf = Vec::new();
        delta_strings::encode(&values, &mut buf);
        let mut pos = 0;
        let decoded = delta_strings::decode_strings(&buf, &mut pos).unwrap();
        assert_eq!(decoded, values);
        assert_eq!(pos, buf.len());
    }

    #[test]
    fn empty_inputs() {
        let empty: Vec<String> = Vec::new();
        let mut buf = Vec::new();
        delta_length::encode(&empty, &mut buf);
        let mut pos = 0;
        assert!(delta_length::decode(&buf, &mut pos).unwrap().is_empty());

        let mut buf = Vec::new();
        delta_strings::encode(&empty, &mut buf);
        let mut pos = 0;
        assert!(delta_strings::decode(&buf, &mut pos).unwrap().is_empty());
    }

    #[test]
    fn prefix_sharing_beats_plain_for_sorted_keys() {
        let values: Vec<String> = (0..1000).map(|i| format!("user_prefix_{i:08}")).collect();
        let mut sorted = values.clone();
        sorted.sort();
        let mut ds = Vec::new();
        delta_strings::encode(&sorted, &mut ds);
        let mut dl = Vec::new();
        delta_length::encode(&sorted, &mut dl);
        assert!(ds.len() < dl.len(), "delta strings should win on sorted data");
    }

    #[test]
    fn adaptive_choice_roundtrips_both_ways() {
        // Repetitive data -> delta strings; random-ish data -> delta length.
        let repetitive: Vec<String> = (0..200).map(|i| format!("hashtag_jobs_{}", i % 3)).collect();
        let varied: Vec<String> = (0..200)
            .map(|i| format!("{}", (i * 2654435761u64) % 100000))
            .collect();
        for values in [repetitive, varied] {
            let (enc, buf) = encode_adaptive(&values);
            let mut pos = 0;
            let decoded = decode_adaptive(enc, &buf, &mut pos).unwrap();
            let decoded: Vec<String> = decoded
                .into_iter()
                .map(|b| String::from_utf8(b).unwrap())
                .collect();
            assert_eq!(decoded, values);
        }
    }

    #[test]
    fn adaptive_rejects_non_string_encoding() {
        let mut pos = 0;
        assert!(decode_adaptive(crate::Encoding::Plain, &[], &mut pos).is_err());
    }

    #[test]
    fn binary_safe() {
        let values: Vec<Vec<u8>> = vec![vec![0, 255, 1, 2], vec![], vec![0xC0, 0xFF, 0xEE]];
        let mut buf = Vec::new();
        delta_length::encode(&values, &mut buf);
        let mut pos = 0;
        assert_eq!(delta_length::decode(&buf, &mut pos).unwrap(), values);

        let mut buf = Vec::new();
        delta_strings::encode(&values, &mut buf);
        let mut pos = 0;
        assert_eq!(delta_strings::decode(&buf, &mut pos).unwrap(), values);
    }

    #[test]
    fn truncation_is_detected() {
        let values = sample_strings();
        let mut buf = Vec::new();
        delta_strings::encode(&values, &mut buf);
        buf.truncate(buf.len() - 4);
        let mut pos = 0;
        assert!(delta_strings::decode(&buf, &mut pos).is_err());
    }
}
