//! Decimal doubles: a double column whose values are short decimals stored
//! as integers and a power of ten.
//!
//! Sensor readings, prices and percentages are written with a few decimal
//! digits, so `v · 10^e` is an integer for a small `e` while the double's
//! plain bytes look random to LZ. This is the "pseudodecimal" idea of
//! BtrBlocks (Kuschewski et al., SIGMOD 2023) and ALP (Afroozeh et al.,
//! SIGMOD 2024), cited for technique only: at seal the encoder looks for
//! the smallest exponent `e` in `0..=`[`MAX_EXPONENT`] under which **every**
//! value of the chunk survives the round trip bit for bit, checked with
//! the decoder's own formula
//!
//! ```text
//! i = round(v · 10^e),  |i| < 2^53,  (i as f64 / 10^e).to_bits() == v.to_bits()
//! ```
//!
//! and stores the integers with [`crate::delta`]. A chunk with no such
//! exponent stays plain. `-0.0`, NaNs (any payload), infinities and
//! subnormals never pass the check, so a chunk holding one stays plain and
//! decoding is bit-exact by construction.
//!
//! Format: `u8 e`, then the integers as [`crate::delta`] writes them.

use crate::{delta, DecodeError, DecodeResult};

/// The largest power of ten the chooser tries.
pub const MAX_EXPONENT: u8 = 10;

/// `10^e` for every exponent the format allows; all are exact doubles.
const POW10: [f64; MAX_EXPONENT as usize + 1] =
    [1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10];

/// Integers at or beyond this magnitude are not all representable as
/// doubles, so they are never stored.
const LIMIT: f64 = (1u64 << 53) as f64;

/// `v` as an integer at exponent `e`, when the decoder gives `v` back bit
/// for bit from it.
#[inline]
fn scaled(v: f64, e: u8) -> Option<i64> {
    let scale = POW10[e as usize];
    let i = (v * scale).round();
    if i.is_nan() || i.abs() >= LIMIT {
        return None;
    }
    let i = i as i64;
    ((i as f64 / scale).to_bits() == v.to_bits()).then_some(i)
}

/// The smallest exponent under which every value of `values` round-trips
/// bit for bit, or `None` (store the chunk plain). An exponent is dropped
/// at the first value that fails it, and the next one tried is the first
/// that value itself passes; the values are then checked again from the
/// start, so at most `MAX_EXPONENT + 1` partial passes run.
pub fn choose(values: &[f64]) -> Option<u8> {
    let mut e = 0u8;
    let mut i = 0usize;
    while i < values.len() {
        if scaled(values[i], e).is_some() {
            i += 1;
            continue;
        }
        e = (e + 1..=MAX_EXPONENT).find(|&next| scaled(values[i], next).is_some())?;
        i = 0;
    }
    Some(e)
}

/// Append `values` at exponent `e`, which [`choose`] returned for them.
pub fn encode(values: &[f64], e: u8, out: &mut Vec<u8>) {
    let ints: Vec<i64> = values
        .iter()
        .map(|&v| scaled(v, e).expect("the chooser checked every value"))
        .collect();
    out.push(e);
    delta::encode(&ints, out);
}

/// Decode a column written by [`encode`]. An exponent beyond the table is
/// an error; the count is checked as [`delta::decode_map`] checks it.
pub fn decode(buf: &[u8], pos: &mut usize) -> DecodeResult<Vec<f64>> {
    let e = *buf
        .get(*pos)
        .ok_or_else(|| DecodeError::new("truncated decimal column"))?;
    let scale = *POW10
        .get(e as usize)
        .ok_or_else(|| DecodeError::new(format!("decimal exponent {e} beyond the table")))?;
    *pos += 1;
    delta::decode_map(buf, pos, |i| i as f64 / scale)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::varint;

    fn roundtrip(values: &[f64]) -> Option<u8> {
        let e = choose(values)?;
        let mut buf = Vec::new();
        encode(values, e, &mut buf);
        let mut pos = 0;
        let decoded = decode(&buf, &mut pos).unwrap();
        assert_eq!(pos, buf.len());
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&decoded), bits(values));
        Some(e)
    }

    #[test]
    fn tenths_choose_exponent_one() {
        let temps: Vec<f64> = (-200..450).map(|k| k as f64 / 10.0).collect();
        assert_eq!(roundtrip(&temps), Some(1));
        assert_eq!(roundtrip(&[1.0, 2.0, -7.0]), Some(0));
        assert_eq!(roundtrip(&[0.5, 0.25, 0.125]), Some(3));
        assert_eq!(roundtrip(&[]), Some(0));
        // The exponent is the one the least exact value needs.
        assert_eq!(roundtrip(&[1.0, 2.5, 12.34567]), Some(5));
    }

    #[test]
    fn values_that_do_not_round_trip_stay_plain() {
        for odd in [
            -0.0,
            f64::NAN,
            -f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::MIN_POSITIVE / 2.0,
            std::f64::consts::PI,
            1e300,
            (1u64 << 53) as f64,
        ] {
            assert_eq!(choose(&[odd]), None, "{odd:?}");
            assert_eq!(choose(&[1.5, odd, 2.5]), None, "{odd:?}");
        }
        // The largest integers below 2^53 still fit.
        let edge = ((1u64 << 53) - 1) as f64;
        assert_eq!(roundtrip(&[edge, -edge]), Some(0));
    }

    #[test]
    fn damaged_columns_are_errors() {
        let mut buf = Vec::new();
        encode(&[1.5, 2.5], 1, &mut buf);
        let mut bad = buf.clone();
        bad[0] = MAX_EXPONENT + 1;
        assert!(decode(&bad, &mut 0).is_err());
        // A 2^40 count is refused before anything is reserved.
        let mut forged = vec![1];
        varint::write_u64(&mut forged, 1 << 40);
        forged.extend_from_slice(&[0; 32]);
        assert!(decode(&forged, &mut 0).is_err());
        for cut in 0..buf.len() {
            assert!(decode(&buf[..cut], &mut 0).is_err(), "cut at {cut}");
        }
    }
}
