//! FNV-1a, which no on-PM format uses: image fingerprints in tests and a
//! benchmark probe. Every checksummed on-PM format is a frame of
//! `specpmt_pmem::frame`, sealed with [`word_hash`] (re-exported here).
//! [`fnv1a64_reference`] is the byte-serial loop that *defines* FNV-1a;
//! [`fnv1a64`] runs the same byte steps in the same order off one 8-byte
//! load per eight, so the two are bit-identical by construction.

pub use specpmt_pmem::frame::word_hash;

const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const PRIME: u64 = 0x100_0000_01b3;

/// Folds one byte into the running FNV-1a hash.
#[inline(always)]
fn step(h: u64, b: u8) -> u64 {
    (h ^ b as u64).wrapping_mul(PRIME)
}

/// 64-bit FNV-1a hash, eight bytes per iteration (see the module docs).
pub fn fnv1a64(mut bytes: &[u8]) -> u64 {
    let mut h = OFFSET;
    while let Some((word, rest)) = bytes.split_first_chunk::<8>() {
        // One load, then eight register-only steps. The byte order of the
        // steps is exactly the byte order of the input, so the result is
        // bit-identical to the serial loop.
        let w = u64::from_le_bytes(*word);
        for shift in (0..64).step_by(8) {
            h = step(h, (w >> shift) as u8);
        }
        bytes = rest;
    }
    for &b in bytes {
        h = step(h, b);
    }
    h
}

/// The byte-serial FNV-1a definition. Reference implementation for the
/// property tests; production code uses [`fnv1a64`].
pub fn fnv1a64_reference(bytes: &[u8]) -> u64 {
    bytes.iter().fold(OFFSET, |h, &b| step(h, b))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_vectors() {
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64_reference(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64_reference(b"a"), 0xaf63_dc4c_8601_ec8c);
    }

    #[test]
    fn word_and_byte_paths_agree_on_all_small_lengths() {
        // Cover every tail length 0..8 plus several full words.
        let data: Vec<u8> = (0u16..64).map(|i| (i * 37 + 11) as u8).collect();
        for len in 0..data.len() {
            assert_eq!(fnv1a64(&data[..len]), fnv1a64_reference(&data[..len]), "len {len}");
        }
    }

    #[test]
    fn single_bit_flip_and_length_extension_change_the_hash() {
        assert_ne!(fnv1a64(&[0b0000_0000, 1, 2, 3]), fnv1a64(&[0b0000_0001, 1, 2, 3]));
        assert_ne!(fnv1a64(&[0]), fnv1a64(&[0, 0]));
    }
}
