//! The checksum of every on-PM format (the commit flag) and FNV-1a.
//!
//! * [`word_hash`] — the checksum every log record carries (through
//!   [`crate::record::record_checksum`]), and every other checksummed
//!   on-PM format but the flight recorder's: undo entries
//!   ([`crate::undo`]), the layout descriptor, hash-log generations and
//!   Kamino's intent entries. A one-shot hash that folds the input a
//!   little-endian 8-byte word per step, `h = rotl((h ^ w) · K, R)` with
//!   `K` odd, then two more words the caller supplies (a record's payload
//!   length and timestamp, an undo entry's `magic | len` and address), and
//!   finishes with `h ^ (h >> 32)`. Every step is a bijection in `h` and in
//!   `w`, and so is the finish, so two inputs of the same length that differ
//!   in exactly one word always hash differently: a torn 8-byte unit — the
//!   unit in which x86 persists or tears a store — is always caught, as one
//!   changed byte was under the byte-serial FNV-1a this replaced, at an
//!   eighth of the multiplies. The hash has no streaming form: a record is
//!   hashed once, whole, when it is sealed and when it is read.
//! * [`fnv1a64`] / [`fnv1a64_reference`] — 64-bit FNV-1a, which no on-PM
//!   format uses: only image fingerprints in tests and a benchmark probe.
//!   [`fnv1a64_reference`] is the textbook byte-serial loop that *defines*
//!   the hash; [`fnv1a64`] does one unaligned 8-byte load per eight
//!   unrolled xor/multiply steps — the same byte operations in the same
//!   order, so bit-identical by construction.

const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const PRIME: u64 = 0x100_0000_01b3;

/// [`word_hash`]'s multiplier (odd, so multiplying is a bijection).
const WORD_K: u64 = 0x9e37_79b9_7f4a_7c15;
/// [`word_hash`]'s rotation.
const WORD_R: u32 = 29;

/// Folds one word into the running word hash.
#[inline(always)]
fn word_step(h: u64, w: u64) -> u64 {
    (h ^ w).wrapping_mul(WORD_K).rotate_left(WORD_R)
}

/// The word hash of `bytes` followed by the words `a` and `b` (see the
/// module docs): each little-endian 8-byte word of `bytes`, the last one
/// zero-padded, is one step.
pub fn word_hash(bytes: &[u8], a: u64, b: u64) -> u64 {
    let mut chunks = bytes.chunks_exact(8);
    let mut h = OFFSET;
    for chunk in &mut chunks {
        h = word_step(h, u64::from_le_bytes(chunk.try_into().expect("8-byte chunk")));
    }
    let tail = chunks.remainder();
    if !tail.is_empty() {
        let mut last = [0u8; 8];
        last[..tail.len()].copy_from_slice(tail);
        h = word_step(h, u64::from_le_bytes(last));
    }
    h = word_step(word_step(h, a), b);
    h ^ (h >> 32)
}

/// Folds one byte into the running FNV-1a hash.
#[inline(always)]
fn step(h: u64, b: u8) -> u64 {
    (h ^ b as u64).wrapping_mul(PRIME)
}

/// 64-bit FNV-1a hash, eight bytes per iteration (see the module docs).
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut chunks = bytes.chunks_exact(8);
    let mut h = OFFSET;
    for chunk in &mut chunks {
        // One unaligned load, then eight register-only steps. The byte
        // order of the steps is exactly the byte order of the input, so
        // the result is bit-identical to the serial loop.
        let w = u64::from_le_bytes(chunk.try_into().expect("8-byte chunk"));
        h = step(h, w as u8);
        h = step(h, (w >> 8) as u8);
        h = step(h, (w >> 16) as u8);
        h = step(h, (w >> 24) as u8);
        h = step(h, (w >> 32) as u8);
        h = step(h, (w >> 40) as u8);
        h = step(h, (w >> 48) as u8);
        h = step(h, (w >> 56) as u8);
    }
    for &b in chunks.remainder() {
        h = step(h, b);
    }
    h
}

/// The byte-serial FNV-1a definition. Reference implementation for the
/// property tests; production code uses [`fnv1a64`].
pub fn fnv1a64_reference(bytes: &[u8]) -> u64 {
    let mut h = OFFSET;
    for &b in bytes {
        h = step(h, b);
    }
    h
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
    fn single_bit_flip_changes_hash() {
        let a = fnv1a64(&[0b0000_0000, 1, 2, 3]);
        let b = fnv1a64(&[0b0000_0001, 1, 2, 3]);
        assert_ne!(a, b);
        assert_ne!(word_hash(&[0, 1, 2, 3], 4, 0), word_hash(&[1, 1, 2, 3], 4, 0));
    }

    #[test]
    fn length_extension_differs() {
        assert_ne!(fnv1a64(&[0]), fnv1a64(&[0, 0]));
        // Zero padding alone cannot tell these apart; the caller's words do.
        assert_eq!(word_hash(&[7], 0, 0), word_hash(&[7, 0], 0, 0));
        assert_ne!(word_hash(&[7], 1, 0), word_hash(&[7, 0], 2, 0));
    }

    #[test]
    fn the_trailing_words_are_hashed_in_order() {
        assert_ne!(word_hash(b"payload", 1, 2), word_hash(b"payload", 2, 1));
        assert_ne!(word_hash(b"", 0, 0), word_hash(b"", 0, 1));
    }
}
