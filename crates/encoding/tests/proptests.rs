//! Property-based round-trip tests for every encoder in the crate, and the
//! decoders' differential fleet: the LZ decoder against a byte-at-a-time
//! reference on hand-built token streams and on damaged ones, and the level
//! decoder against a run-by-run, value-by-value reference on hand-built
//! run streams and on damaged ones.

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
        let max = (1u16 << width) - 1;
        let decoded = rle::decode(&buf, &mut pos, masked.len(), width, max).unwrap();
        prop_assert!(decoded.levels.iter().map(|&v| u64::from(v)).eq(masked.iter().copied()));
        prop_assert_eq!(decoded.at_max, masked.iter().filter(|&&v| v == u64::from(max)).count());
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
        let _ = rle::decode(&data, &mut pos, 64, 3, 5);
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

// ---------------------------------------------------------------------------
// The level decoder against a reference.
// ---------------------------------------------------------------------------

/// The level decoder as it was before it expanded a run at a time: one
/// varint per header, one `resize` per RLE run, one value per step of a
/// bit-packed run. Levels above the maximum are the caller's to refuse.
fn reference_levels(buf: &[u8], pos: &mut usize, count: usize, width: u32) -> Option<Vec<u16>> {
    if width > 16 {
        return None;
    }
    let mut out = Vec::new();
    while out.len() < count {
        let header = varint::read_u64(buf, pos).ok()?;
        let left = (count - out.len()) as u64;
        if header & 1 == 0 {
            let run = header >> 1;
            let nbytes = (width as usize).div_ceil(8);
            if run == 0 || run > left || *pos + nbytes > buf.len() {
                return None;
            }
            let mut bytes = [0u8; 2];
            bytes[..nbytes].copy_from_slice(&buf[*pos..*pos + nbytes]);
            *pos += nbytes;
            out.resize(out.len() + run as usize, u16::from_le_bytes(bytes));
        } else {
            let groups = header >> 1;
            let logical = varint::read_u64(buf, pos).ok()?;
            if logical > groups.checked_mul(8)? || logical > left {
                return None;
            }
            let end =
                pos.checked_add(usize::try_from(groups.checked_mul(u64::from(width))?).ok()?)?;
            if end > buf.len() {
                return None;
            }
            let mut bit = *pos * 8;
            for _ in 0..logical {
                let mut value = 0u16;
                for b in 0..width as usize {
                    let set = buf[bit / 8] >> (bit % 8) & 1;
                    value |= u16::from(set) << b;
                    bit += 1;
                }
                out.push(value);
            }
            *pos = end;
        }
    }
    Some(out)
}

/// What the decoder must make of `buf`: the reference's levels when none is
/// above `max`, with the count of those at `max`, else an `Err` (`None`).
fn expected_levels(
    buf: &[u8],
    count: usize,
    width: u32,
    max: u16,
) -> Option<(Vec<u16>, usize, usize)> {
    let mut pos = 0;
    let levels = reference_levels(buf, &mut pos, count, width)?;
    if levels.iter().any(|&level| level > max) {
        return None;
    }
    let at_max = levels.iter().filter(|&&level| level == max).count();
    Some((levels, at_max, pos))
}

fn decoded_levels(
    buf: &[u8],
    count: usize,
    width: u32,
    max: u16,
) -> Option<(Vec<u16>, usize, usize)> {
    let mut pos = 0;
    let decoded = rle::decode(buf, &mut pos, count, width, max).ok()?;
    Some((decoded.levels, decoded.at_max, pos))
}

/// One run of a hand-built level stream: RLE or bit-packed, its length, and
/// a seed for its values (and a bit-packed run's padding).
#[derive(Debug, Clone)]
struct LevelRun {
    packed: bool,
    len: usize,
    seed: u64,
}

/// Encode `runs` at `width` bits. Bit-packed runs pad their last group with
/// noise, which the decoder must ignore. Returns the stream and the levels.
fn build_levels(runs: &[LevelRun], width: u32) -> (Vec<u8>, Vec<u16>) {
    let mask = (1u64 << width) - 1;
    let mut stream = Vec::new();
    let mut levels = Vec::new();
    for run in runs {
        let mut state = run.seed | 1;
        let mut next = || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state & mask
        };
        if run.packed {
            let groups = run.len.div_ceil(8);
            varint::write_u64(&mut stream, ((groups as u64) << 1) | 1);
            varint::write_u64(&mut stream, run.len as u64);
            let values: Vec<u64> = (0..groups * 8).map(|_| next()).collect();
            levels.extend(values[..run.len].iter().map(|&v| v as u16));
            bitpack::pack(&values, width, &mut stream);
        } else {
            let value = next();
            varint::write_u64(&mut stream, (run.len as u64) << 1);
            stream.extend_from_slice(&value.to_le_bytes()[..(width as usize).div_ceil(8)]);
            levels.extend(std::iter::repeat_n(value as u16, run.len));
        }
    }
    (stream, levels)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    // Interleaved RLE and bit-packed runs of 1–300 levels at widths 1–16,
    // bit-packed ones ending mid-group: the decoder equals the reference,
    // counts the levels at the maximum, and refuses a level above it.
    #[test]
    fn levels_decode_like_the_reference(
        width in 1u32..=16,
        runs in prop::collection::vec(
            (any::<bool>(), 1usize..=300, any::<u64>())
                .prop_map(|(packed, len, seed)| LevelRun { packed, len, seed }),
            0..24,
        ),
        max_seed in any::<u16>(),
        cut_seed in any::<usize>(),
    ) {
        let (stream, levels) = build_levels(&runs, width);
        let widest = ((1u32 << width) - 1) as u16;
        let top = levels.iter().copied().max().unwrap_or(0);
        // The stream's own maximum, the widest level, or one that some
        // level exceeds (when there is one).
        for max in [top, widest, max_seed % (widest.max(1))] {
            let want = expected_levels(&stream, levels.len(), width, max);
            prop_assert_eq!(decoded_levels(&stream, levels.len(), width, max), want.clone());
            if max >= top {
                let (decoded, _, pos) = want.unwrap();
                prop_assert_eq!(&decoded, &levels);
                prop_assert_eq!(pos, stream.len());
            }
        }
        // A count that ends inside a run is an error; one that ends on a
        // run boundary leaves the rest of the stream unread.
        let count = cut_seed % (levels.len() + 1);
        prop_assert_eq!(
            decoded_levels(&stream, count, width, widest),
            expected_levels(&stream, count, width, widest)
        );
    }

    // Untrusted input: every truncation is an `Err` and every byte flip
    // decodes as the reference does (an `Err`, or the levels it means).
    #[test]
    fn damaged_levels_decode_like_the_reference(
        width in 1u32..=16,
        runs in prop::collection::vec(
            (any::<bool>(), 1usize..=20, any::<u64>())
                .prop_map(|(packed, len, seed)| LevelRun { packed, len, seed }),
            1..6,
        ),
    ) {
        let (stream, levels) = build_levels(&runs, width);
        let widest = ((1u32 << width) - 1) as u16;
        for cut in 0..stream.len() {
            prop_assert_eq!(decoded_levels(&stream[..cut], levels.len(), width, widest), None);
        }
        let mut damaged = stream.clone();
        for at in 0..stream.len() {
            for flip in [0x01u8, 0x10, 0x80, 0xFF] {
                damaged[at] ^= flip;
                prop_assert_eq!(
                    decoded_levels(&damaged, levels.len(), width, widest),
                    expected_levels(&damaged, levels.len(), width, widest),
                    "byte {} ^ {:#x}", at, flip
                );
                damaged[at] ^= flip;
            }
        }
    }
}
