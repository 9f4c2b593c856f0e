//! Property-based round-trip tests for every encoder in the crate, and the
//! decoders' differential fleet: the LZ decoder against a byte-at-a-time
//! reference on hand-built token streams and on damaged ones.

use encoding::{bitpack, bytesenc, compress, delta, plain, rle, varint};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn varint_roundtrip(v in any::<u64>()) {
        let mut buf = Vec::new();
        varint::write_u64(&mut buf, v);
        let mut pos = 0;
        prop_assert_eq!(varint::read_u64(&buf, &mut pos).unwrap(), v);
        prop_assert_eq!(pos, buf.len());
    }

    #[test]
    fn varint_signed_roundtrip(v in any::<i64>()) {
        let mut buf = Vec::new();
        varint::write_i64(&mut buf, v);
        let mut pos = 0;
        prop_assert_eq!(varint::read_i64(&buf, &mut pos).unwrap(), v);
    }

    #[test]
    fn bitpack_roundtrip(width in 1u32..=64, values in prop::collection::vec(any::<u64>(), 0..200)) {
        let masked: Vec<u64> = values
            .iter()
            .map(|v| if width == 64 { *v } else { v & ((1u64 << width) - 1) })
            .collect();
        let mut buf = Vec::new();
        bitpack::pack(&masked, width, &mut buf);
        let mut pos = 0;
        let decoded = bitpack::unpack(&buf, &mut pos, masked.len(), width).unwrap();
        prop_assert_eq!(decoded, masked);
    }

    #[test]
    fn rle_roundtrip(width in 1u32..=8, values in prop::collection::vec(0u64..200, 0..500)) {
        let masked: Vec<u64> = values.iter().map(|v| v & ((1u64 << width) - 1)).collect();
        let mut buf = Vec::new();
        rle::encode(&masked, width, &mut buf);
        let mut pos = 0;
        let decoded = rle::decode(&buf, &mut pos, masked.len(), width).unwrap();
        prop_assert!(decoded.iter().map(|&v| u64::from(v)).eq(masked.iter().copied()));
        prop_assert_eq!(pos, buf.len());
    }

    #[test]
    fn delta_roundtrip(values in prop::collection::vec(any::<i64>(), 0..400)) {
        let mut buf = Vec::new();
        delta::encode(&values, &mut buf);
        let mut pos = 0;
        prop_assert_eq!(delta::decode(&buf, &mut pos).unwrap(), values);
    }

    #[test]
    fn delta_length_bytes_roundtrip(values in prop::collection::vec(prop::collection::vec(any::<u8>(), 0..40), 0..60)) {
        let mut buf = Vec::new();
        bytesenc::delta_length::encode(&values, &mut buf);
        let mut pos = 0;
        prop_assert_eq!(bytesenc::delta_length::decode(&buf, &mut pos).unwrap(), values);
    }

    #[test]
    fn delta_strings_roundtrip(values in prop::collection::vec("[a-z#@ ]{0,32}", 0..60)) {
        let mut buf = Vec::new();
        bytesenc::delta_strings::encode(&values, &mut buf);
        let mut pos = 0;
        prop_assert_eq!(bytesenc::delta_strings::decode_strings(&buf, &mut pos).unwrap(), values);
    }

    #[test]
    fn adaptive_bytes_roundtrip(values in prop::collection::vec(prop::collection::vec(any::<u8>(), 0..32), 0..60)) {
        let (enc, buf) = bytesenc::encode_adaptive(&values);
        let mut pos = 0;
        prop_assert_eq!(bytesenc::decode_adaptive(enc, &buf, &mut pos).unwrap(), values);
    }

    #[test]
    fn compression_roundtrip(data in prop::collection::vec(any::<u8>(), 0..4096)) {
        let compressed = compress::compress(&data);
        prop_assert_eq!(compress::decompress(&compressed).unwrap(), data);
    }

    #[test]
    fn compression_roundtrip_repetitive(unit in prop::collection::vec(any::<u8>(), 1..32), reps in 1usize..200) {
        let data: Vec<u8> = unit.iter().copied().cycle().take(unit.len() * reps).collect();
        let compressed = compress::compress(&data);
        prop_assert_eq!(compress::decompress(&compressed).unwrap(), data);
    }

    #[test]
    fn bool_column_roundtrip(values in prop::collection::vec(any::<bool>(), 0..300)) {
        let mut buf = Vec::new();
        plain::encode_bool_column(&values, &mut buf);
        let mut pos = 0;
        prop_assert_eq!(plain::decode_bool_column(&buf, &mut pos).unwrap(), values);
    }

    #[test]
    fn f64_column_roundtrip(values in prop::collection::vec(any::<f64>(), 0..200)) {
        let mut buf = Vec::new();
        plain::encode_f64_column(&values, &mut buf);
        let mut pos = 0;
        let decoded = plain::decode_f64_column(&buf, &mut pos).unwrap();
        prop_assert_eq!(decoded.len(), values.len());
        for (a, b) in decoded.iter().zip(values.iter()) {
            prop_assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn decoders_never_panic_on_garbage(data in prop::collection::vec(any::<u8>(), 0..256)) {
        let mut pos = 0;
        let _ = varint::read_u64(&data, &mut pos);
        let mut pos = 0;
        let _ = delta::decode(&data, &mut pos);
        let mut pos = 0;
        let _ = rle::decode(&data, &mut pos, 64, 3);
        let mut pos = 0;
        let _ = bytesenc::delta_strings::decode(&data, &mut pos);
        let mut pos = 0;
        let _ = bytesenc::delta_length::decode(&data, &mut pos);
        let _ = compress::decompress(&data);
        let mut pos = 0;
        let _ = plain::decode_bool_column(&data, &mut pos);
    }
}

/// Debug builds run the LZ fleet at reduced scale; release runs it whole.
const LZ_CASES: u32 = if cfg!(debug_assertions) { 24 } else { 256 };

/// One token of a hand-built LZ stream.
#[derive(Debug, Clone)]
enum Token {
    /// A literal run (1–128 bytes).
    Literal(Vec<u8>),
    /// A match: back-distance (clamped to the output so far) and length
    /// (4–131).
    Match(usize, usize),
}

/// Encode `tokens` in `compress`'s format after a literal `prefix`,
/// returning the stream and what it means, expanded one byte at a time.
fn build_stream(prefix: &[u8], tokens: &[Token]) -> (Vec<u8>, Vec<u8>) {
    let mut body = Vec::new();
    let mut expanded = Vec::new();
    let literal = |bytes: &[u8], body: &mut Vec<u8>, expanded: &mut Vec<u8>| {
        for run in bytes.chunks(128) {
            body.push((run.len() - 1) as u8);
            body.extend_from_slice(run);
            expanded.extend_from_slice(run);
        }
    };
    literal(prefix, &mut body, &mut expanded);
    for token in tokens {
        match token {
            Token::Literal(bytes) => literal(bytes, &mut body, &mut expanded),
            &Token::Match(distance, len) => {
                let distance = distance.clamp(1, expanded.len().min(65_535));
                body.push(0x80 | (len - 4) as u8);
                body.extend_from_slice(&(distance as u16).to_le_bytes());
                for _ in 0..len {
                    expanded.push(expanded[expanded.len() - distance]);
                }
            }
        }
    }
    let mut stream = Vec::new();
    varint::write_u64(&mut stream, expanded.len() as u64);
    stream.extend_from_slice(&body);
    (stream, expanded)
}

/// The decoder as the format defines it: one byte at a time into a growing
/// buffer, the declared length checked only at the end.
fn reference_decompress(input: &[u8]) -> Option<Vec<u8>> {
    let mut pos = 0;
    let expected = varint::read_u64(input, &mut pos).ok()?;
    let mut out = Vec::new();
    while pos < input.len() {
        let token = input[pos];
        pos += 1;
        if token & 0x80 == 0 {
            out.extend_from_slice(input.get(pos..pos + token as usize + 1)?);
            pos += token as usize + 1;
        } else {
            let distance = u16::from_le_bytes([*input.get(pos)?, *input.get(pos + 1)?]) as usize;
            pos += 2;
            if distance == 0 || distance > out.len() {
                return None;
            }
            for _ in 0..(token & 0x7F) as usize + 4 {
                out.push(out[out.len() - distance]);
            }
        }
        if out.len() as u64 > expected {
            return None;
        }
    }
    (out.len() as u64 == expected).then_some(out)
}

/// A literal run of 1–128 bytes, full-length runs drawn as often as all the
/// others together.
fn literal_token() -> impl Strategy<Value = Token> {
    prop_oneof![
        prop::collection::vec(any::<u8>(), 128).prop_map(Token::Literal),
        prop::collection::vec(any::<u8>(), 1..=128).prop_map(Token::Literal),
    ]
}

/// Every truncation and every single-byte flip of `stream` decodes to what
/// the reference makes of it — an `Err`, or the bytes that stream means —
/// and never panics.
fn assert_damage_matches_reference(stream: &[u8]) {
    for cut in 0..stream.len() {
        let damaged = &stream[..cut];
        assert_eq!(compress::decompress(damaged).ok(), reference_decompress(damaged), "cut at {cut}");
    }
    let mut damaged = stream.to_vec();
    for at in 0..stream.len() {
        for flip in [0x01u8, 0x10, 0x80, 0xFF] {
            damaged[at] ^= flip;
            assert_eq!(
                compress::decompress(&damaged).ok(),
                reference_decompress(&damaged),
                "byte {at} ^ {flip:#x}"
            );
            damaged[at] ^= flip;
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(LZ_CASES))]

    // Matches that overlap their own output (distance 1–16, where a block
    // copy would read what it writes) among full and short literal runs.
    #[test]
    fn lz_overlapping_matches_decode_like_the_reference(
        prefix in prop::collection::vec(any::<u8>(), 1..=40),
        tokens in prop::collection::vec(prop_oneof![
            literal_token(),
            (1usize..=16, 4usize..=131).prop_map(|(d, l)| Token::Match(d, l)),
            (17usize..=300, 4usize..=131).prop_map(|(d, l)| Token::Match(d, l)),
        ], 1..40),
    ) {
        let (stream, expanded) = build_stream(&prefix, &tokens);
        prop_assert_eq!(compress::decompress(&stream).unwrap(), expanded);
    }

    // Matches reaching the far end of the 64 KiB window.
    #[test]
    fn lz_window_edge_matches_decode_like_the_reference(
        seed in any::<u64>(),
        extra in 0usize..200,
        tokens in prop::collection::vec(prop_oneof![
            (65_520usize..=65_535, 4usize..=131).prop_map(|(d, l)| Token::Match(d, l)),
            (1usize..=65_535, 4usize..=131).prop_map(|(d, l)| Token::Match(d, l)),
            literal_token(),
        ], 1..24),
    ) {
        let mut state = seed | 1;
        let prefix: Vec<u8> = (0..65_535 + extra)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                state as u8
            })
            .collect();
        let (stream, expanded) = build_stream(&prefix, &tokens);
        prop_assert_eq!(compress::decompress(&stream).unwrap(), expanded);
    }

    // Untrusted input: every truncation and every byte flip of a valid
    // stream is an `Err` or the reference's bytes, never a panic.
    #[test]
    fn lz_damaged_streams_decode_like_the_reference(
        prefix in prop::collection::vec(0u8..4, 1..=24),
        tokens in prop::collection::vec(prop_oneof![
            prop::collection::vec(0u8..4, 1..=12).prop_map(Token::Literal),
            (1usize..=40, 4usize..=40).prop_map(|(d, l)| Token::Match(d, l)),
        ], 1..8),
    ) {
        let (stream, _) = build_stream(&prefix, &tokens);
        assert_damage_matches_reference(&stream);
        assert_damage_matches_reference(&compress::compress(&stream));
    }
}

/// A declared length beyond what the stream can expand to is refused before
/// the output is allocated (2^40 bytes would abort the process).
#[test]
fn lz_forged_declared_length_is_an_error_not_an_allocation() {
    let mut forged = Vec::new();
    varint::write_u64(&mut forged, 1 << 40);
    forged.extend_from_slice(&[0x00, b'a', 0xFF, 0x01, 0x00]);
    assert!(compress::decompress(&forged).is_err());
    let mut forged = Vec::new();
    varint::write_u64(&mut forged, u64::MAX);
    assert!(compress::decompress(&forged).is_err());
    // The bound is tight enough for the densest real stream: one literal,
    // then nothing but longest matches.
    let run = vec![7u8; 1 + 131 * 200];
    assert_eq!(compress::decompress(&compress::compress(&run)).unwrap(), run);
}
