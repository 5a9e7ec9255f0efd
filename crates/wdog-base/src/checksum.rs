//! CRC-32 (IEEE) checksums for storage integrity validation.
//!
//! The target systems checksum WAL records, SSTable blocks, and snapshots so
//! that corruption-class gray failures are *detectable* — the paper's
//! example of a checker that "computes and validates the checksum of each
//! partition" needs real checksums to validate. Implemented here to keep the
//! workspace inside its sanctioned dependency set.

/// Slice-by-8 lookup tables (IEEE polynomial, reflected): `TABLES[0]` is the
/// classic byte table, and `TABLES[k][b]` is the CRC of byte `b` followed by
/// `k` zero bytes, so eight table lookups advance the CRC by eight bytes.
static TABLES: [[u32; 256]; 8] = build_tables();

const fn build_tables() -> [[u32; 256]; 8] {
    let mut t = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut bit = 0;
        while bit < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            bit += 1;
        }
        t[0][i] = c;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = t[k - 1][i];
            t[k][i] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    t
}

/// Computes the CRC-32 (IEEE) of `data`, eight bytes per step.
///
/// # Examples
///
/// ```
/// // Standard test vector: CRC-32("123456789") = 0xCBF43926.
/// assert_eq!(wdog_base::checksum::crc32(b"123456789"), 0xCBF4_3926);
/// ```
pub fn crc32(data: &[u8]) -> u32 {
    let t = &TABLES;
    let mut c = 0xFFFF_FFFFu32;
    let mut words = data.chunks_exact(8);
    for w in &mut words {
        let lo = c ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
        c = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][usize::from(w[4])]
            ^ t[2][usize::from(w[5])]
            ^ t[1][usize::from(w[6])]
            ^ t[0][usize::from(w[7])];
    }
    for &b in words.remainder() {
        c = t[0][((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

/// Verifies that `data` hashes to `expected`.
pub fn verify(data: &[u8], expected: u32) -> bool {
    crc32(data) == expected
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The bytewise reference: one table lookup per byte.
    fn crc32_bytewise(data: &[u8]) -> u32 {
        let mut c = 0xFFFF_FFFFu32;
        for &b in data {
            c = TABLES[0][((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8);
        }
        c ^ 0xFFFF_FFFF
    }

    /// Deterministic non-repeating bytes for the comparisons below.
    fn pattern(len: usize) -> Vec<u8> {
        (0..len)
            .map(|i| (i.wrapping_mul(2_654_435_761) >> 7) as u8 ^ i as u8)
            .collect()
    }

    #[test]
    fn slice_by_8_matches_bytewise_for_every_short_length() {
        let data = pattern(64);
        for len in 0..=64 {
            for offset in [0, 1, 3] {
                let slice = &data[offset.min(len)..len];
                assert_eq!(crc32(slice), crc32_bytewise(slice), "len {len}");
            }
        }
    }

    #[test]
    fn slice_by_8_matches_bytewise_on_a_multi_kb_buffer() {
        let data = pattern(12_345);
        assert_eq!(crc32(&data), crc32_bytewise(&data));
        assert_eq!(crc32(&data[7..]), crc32_bytewise(&data[7..]));
    }

    #[test]
    fn standard_vector() {
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
    }

    #[test]
    fn empty_input() {
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn detects_single_bit_flip() {
        let data = b"the quick brown fox".to_vec();
        let sum = crc32(&data);
        assert!(verify(&data, sum));
        for i in 0..data.len() {
            let mut flipped = data.clone();
            flipped[i] ^= 0x01;
            assert!(!verify(&flipped, sum), "flip at byte {i} undetected");
        }
    }

    #[test]
    fn different_inputs_differ() {
        assert_ne!(crc32(b"a"), crc32(b"b"));
        assert_ne!(crc32(b"ab"), crc32(b"ba"));
    }
}
