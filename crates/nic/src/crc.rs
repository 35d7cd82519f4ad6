//! CRC32C (Castagnoli) — the NIC's end-to-end invariant checksum.
//!
//! "Pony Express also exploits other stateless NIC offloads; one
//! example is an end-to-end invariant CRC32 calculation over each
//! packet" (§3.4). The simulated NIC stamps packets with this CRC on
//! transmit and verifies on receive; the transport treats a mismatch as
//! corruption and drops the packet, relying on retransmission.
//!
//! CRC-32C with the Castagnoli polynomial 0x1EDC6F41 (reflected
//! 0x82F63B78), verified against the RFC 3720 test vectors. Two
//! implementations compute the same function, and the CPU picks:
//!
//! * x86-64 with SSE4.2: the `crc32` instruction, 8 bytes per step;
//! * elsewhere: a portable slice-by-8 table walk.

/// Reflected CRC-32C polynomial.
const POLY: u32 = 0x82F6_3B78;

/// Slice-by-8 tables: `TABLES[0]` is the classic byte table, and
/// `TABLES[k][b]` is the CRC of byte `b` followed by `k` zero bytes.
static TABLES: [[u32; 256]; 8] = build_tables();

const fn build_tables() -> [[u32; 256]; 8] {
    let mut t = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ POLY
            } else {
                crc >> 1
            };
            bit += 1;
        }
        t[0][i] = crc;
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

/// Computes the CRC32C of `data`.
pub fn crc32c(data: &[u8]) -> u32 {
    crc32c_append(0, data)
}

/// Continues a CRC32C computation: `crc` is the digest so far (0 to
/// start), `data` the next chunk.
pub fn crc32c_append(crc: u32, data: &[u8]) -> u32 {
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("sse4.2") {
            // SAFETY: the CPU supports SSE4.2, checked just above.
            return unsafe { append_sse42(crc, data) };
        }
    }
    append_portable(crc, data)
}

/// Slice-by-8: eight table lookups fold in eight bytes per step.
fn append_portable(crc: u32, data: &[u8]) -> u32 {
    let t = &TABLES;
    let mut c = !crc;
    let mut words = data.chunks_exact(8);
    for w in &mut words {
        let lo = c ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
        let hi = u32::from_le_bytes([w[4], w[5], w[6], w[7]]);
        c = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in words.remainder() {
        c = (c >> 8) ^ t[0][((c ^ b as u32) & 0xFF) as usize];
    }
    !c
}

/// The SSE4.2 `crc32` instruction computes exactly CRC-32C.
///
/// # Safety
///
/// The CPU must support SSE4.2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "sse4.2")]
unsafe fn append_sse42(crc: u32, data: &[u8]) -> u32 {
    use std::arch::x86_64::{_mm_crc32_u64, _mm_crc32_u8};
    let mut c = !crc as u64;
    let mut words = data.chunks_exact(8);
    for w in &mut words {
        let word = u64::from_le_bytes(w.try_into().expect("8-byte chunk"));
        c = _mm_crc32_u64(c, word);
    }
    let mut c = c as u32;
    for &b in words.remainder() {
        c = _mm_crc32_u8(c, b);
    }
    !c
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    type Append = fn(u32, &[u8]) -> u32;

    /// Every implementation the CPU can run, by name.
    fn paths() -> Vec<(&'static str, Append)> {
        #[allow(unused_mut)]
        let mut v: Vec<(&'static str, Append)> =
            vec![("portable", append_portable), ("dispatch", crc32c_append)];
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("sse4.2") {
            // SAFETY: guarded by the feature check.
            v.push(("sse4.2", |c, d| unsafe { append_sse42(c, d) }));
        }
        v
    }

    /// One bit at a time, straight from the polynomial.
    fn bitwise(crc: u32, data: &[u8]) -> u32 {
        let mut c = !crc;
        for &b in data {
            c ^= b as u32;
            for _ in 0..8 {
                c = if c & 1 != 0 { (c >> 1) ^ POLY } else { c >> 1 };
            }
        }
        !c
    }

    #[test]
    fn rfc3720_vectors() {
        // Test vectors from RFC 3720 (iSCSI), Appendix B.4.
        let ascending: Vec<u8> = (0..32).collect();
        let descending: Vec<u8> = (0..32).rev().collect();
        for (name, f) in paths() {
            assert_eq!(f(0, &[0u8; 32]), 0x8A91_36AA, "{name}: 32 bytes of zeroes");
            assert_eq!(f(0, &[0xFFu8; 32]), 0x62A8_AB43, "{name}: 32 bytes of ones");
            assert_eq!(f(0, &ascending), 0x46DD_794E, "{name}: ascending");
            assert_eq!(f(0, &descending), 0x113F_DB5C, "{name}: descending");
        }
    }

    #[test]
    fn check_value() {
        // The standard "check" input for CRC catalogs.
        for (name, f) in paths() {
            assert_eq!(f(0, b"123456789"), 0xE306_9283, "{name}");
        }
    }

    #[test]
    fn empty_input() {
        for (name, f) in paths() {
            assert_eq!(f(0, &[]), 0, "{name}");
        }
    }

    #[test]
    fn append_equals_whole() {
        let data = b"the quick brown fox jumps over the lazy dog";
        for (name, f) in paths() {
            let whole = f(0, data);
            let (a, b) = data.split_at(17);
            assert_eq!(f(f(0, a), b), whole, "{name}");
        }
    }

    #[test]
    fn detects_single_bit_flips() {
        let mut data = vec![0xA5u8; 64];
        let clean = crc32c(&data);
        for byte in 0..64 {
            for bit in 0..8 {
                data[byte] ^= 1 << bit;
                assert_ne!(crc32c(&data), clean, "flip at {byte}.{bit} undetected");
                data[byte] ^= 1 << bit;
            }
        }
    }

    proptest! {
        /// Every path matches the bitwise reference on any length and
        /// any start offset (so any alignment), and on any split.
        #[test]
        fn paths_match_bitwise_reference(
            bytes in proptest::collection::vec(any::<u8>(), 0..300),
            offset in 0usize..16,
            split in 0usize..300,
            seed in any::<u32>(),
        ) {
            let data = &bytes[offset.min(bytes.len())..];
            let split = split.min(data.len());
            let want = bitwise(seed, data);
            for (name, f) in paths() {
                prop_assert_eq!(f(seed, data), want, "{} on {} bytes", name, data.len());
                let (a, b) = data.split_at(split);
                prop_assert_eq!(f(f(seed, a), b), want, "{} split at {}", name, split);
            }
        }
    }
}
