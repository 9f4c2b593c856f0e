//! CRC-32 (IEEE 802.3 polynomial), used to checksum durable structures: WAL
//! frames, manifest bodies, and file-backed page headers. A torn or bit-rotted
//! write must be *detected* (and treated as the end of the log, or a corrupt
//! page) rather than silently decoded into garbage.
//!
//! Every page read checksums a whole slot, so this loop runs at the speed of
//! the read path. It is computed *slicing-by-8*: eight 256-entry tables,
//! built at compile time, fold eight input bytes per step with eight
//! independent lookups instead of eight dependent ones. The polynomial and
//! every value are those of the bytewise definition (the tests compare the
//! two), so no checksum on disk changes.

/// The reflected IEEE polynomial.
const POLY: u32 = 0xEDB8_8320;

/// `TABLES[0]` is the classic bytewise table; `TABLES[k][b]` is the CRC of
/// byte `b` followed by `k` zero bytes, so one step can fold byte `i` of an
/// eight-byte word through `TABLES[7 - i]`.
static TABLES: [[u32; 256]; 8] = build_tables();

const fn build_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 == 1 { (crc >> 1) ^ POLY } else { crc >> 1 };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

/// Compute the CRC-32 (IEEE, reflected, `0xEDB88320`) of `data`.
pub fn crc32(data: &[u8]) -> u32 {
    crc32_update(0, data)
}

/// Continue a CRC-32 computation (`crc` is the value returned so far).
pub fn crc32_update(crc: u32, data: &[u8]) -> u32 {
    let t = &TABLES;
    let mut crc = !crc;
    let (words, tail) = data.as_chunks::<8>();
    for w in words {
        let lo = crc ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
        crc = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][w[4] as usize]
            ^ t[2][w[5] as usize]
            ^ t[1][w[6] as usize]
            ^ t[0][w[7] as usize];
    }
    for &byte in tail {
        crc = (crc >> 8) ^ t[0][((crc ^ u32::from(byte)) & 0xFF) as usize];
    }
    !crc
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The definition: one bit at a time, no table.
    fn bitwise(data: &[u8]) -> u32 {
        let mut crc = !0u32;
        for &byte in data {
            crc ^= u32::from(byte);
            for _ in 0..8 {
                crc = if crc & 1 == 1 { (crc >> 1) ^ POLY } else { crc >> 1 };
            }
        }
        !crc
    }

    #[test]
    fn known_vectors() {
        // Standard CRC-32 check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"The quick brown fox jumps over the lazy dog"), 0x414F_A339);
    }

    #[test]
    fn incremental_matches_oneshot() {
        let data = b"incremental crc computation must agree";
        let oneshot = crc32(data);
        let (a, b) = data.split_at(10);
        assert_eq!(crc32_update(crc32(a), b), oneshot);
    }

    /// Every length around the eight-byte step, and every split of the
    /// input between two `crc32_update` calls, agrees with the definition.
    #[test]
    fn sliced_equals_bitwise_at_every_length_and_split() {
        let mut state = 0x9E37_79B9u32;
        let data: Vec<u8> = (0..300)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 17;
                state ^= state << 5;
                state as u8
            })
            .collect();
        for len in 0..=data.len() {
            let input = &data[..len];
            let want = bitwise(input);
            assert_eq!(crc32(input), want, "length {len}");
            for split in 0..=len {
                let (a, b) = input.split_at(split);
                assert_eq!(crc32_update(crc32(a), b), want, "length {len} split {split}");
            }
        }
    }

    #[test]
    fn detects_single_bit_flips() {
        let mut data = b"some page payload".to_vec();
        let original = crc32(&data);
        for bit in 0..data.len() * 8 {
            data[bit / 8] ^= 1 << (bit % 8);
            assert_ne!(crc32(&data), original, "flip of bit {bit} undetected");
            data[bit / 8] ^= 1 << (bit % 8);
        }
    }
}
