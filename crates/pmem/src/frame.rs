//! The one on-PM frame codec. A *frame* is whatever a crash can tear and
//! recovery must reject — a log record or checkpoint, the layout
//! descriptor, an undo entry, a hash-log generation, a flight-recorder
//! slot or region header ([`crate::blackbox`]). Each stores the [`seal`]
//! of the bytes it covers and is accepted only where [`verify`] holds:
//! the checksum doubles as the commit flag (paper §4.1). Every decoder
//! reads its fields through [`Fields`], which returns `None` at the first
//! field the bytes cannot hold, so a truncated frame is rejected, never a
//! panic; [`crate::PoolHeader::decode`] is the one pool-magic check.
//!
//! [`word_hash`] folds the input one little-endian 8-byte word per step,
//! `h = rotl((h ^ w) · K, R)` with `K` odd, then two words the caller
//! supplies (a record's length and timestamp, an undo entry's
//! `magic | len` and address), and finishes with `h ^ (h >> 32)`. Every
//! step is a bijection in `h` and in `w`, and so is the finish, so two
//! inputs of one length that differ in one word — the unit in which x86
//! persists or tears a store — always hash differently.

/// [`word_hash`]'s starting state.
const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
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
#[inline]
pub fn word_hash(mut bytes: &[u8], a: u64, b: u64) -> u64 {
    let mut h = OFFSET;
    while let Some((word, rest)) = bytes.split_first_chunk::<8>() {
        h = word_step(h, u64::from_le_bytes(*word));
        bytes = rest;
    }
    if !bytes.is_empty() {
        let mut last = [0u8; 8];
        last[..bytes.len()].copy_from_slice(bytes);
        h = word_step(h, u64::from_le_bytes(last));
    }
    h = word_step(word_step(h, a), b);
    h ^ (h >> 32)
}

/// The checksum a frame stores over its `covered` bytes and the two words
/// `a`, `b` (fields the frame keeps outside `covered`, such as a length
/// and a timestamp, or `0, 0`).
#[inline]
pub fn seal(covered: &[u8], a: u64, b: u64) -> u64 {
    word_hash(covered, a, b)
}

/// Whether `stored` is the [`seal`] of `covered`, `a` and `b`: the one
/// comparison of a stored checksum in the workspace.
#[inline]
pub fn verify(covered: &[u8], a: u64, b: u64, stored: u64) -> bool {
    seal(covered, a, b) == stored
}

/// A bounded little-endian field reader over a frame's bytes: each read
/// takes the next field, or returns `None` (consuming nothing) when the
/// bytes left cannot hold it.
#[derive(Debug, Clone, Copy)]
pub struct Fields<'a> {
    rest: &'a [u8],
}

impl<'a> Fields<'a> {
    /// A reader at the start of `bytes`.
    #[inline]
    pub fn new(bytes: &'a [u8]) -> Self {
        Self { rest: bytes }
    }

    /// The next `n` bytes.
    #[inline]
    pub fn bytes(&mut self, n: usize) -> Option<&'a [u8]> {
        let (head, rest) = self.rest.split_at_checked(n)?;
        self.rest = rest;
        Some(head)
    }

    fn array<const N: usize>(&mut self) -> Option<[u8; N]> {
        let (head, rest) = self.rest.split_first_chunk::<N>()?;
        self.rest = rest;
        Some(*head)
    }

    /// The next byte.
    #[inline]
    pub fn u8(&mut self) -> Option<u8> {
        self.array().map(u8::from_le_bytes)
    }

    /// The next little-endian `u16`.
    #[inline]
    pub fn u16(&mut self) -> Option<u16> {
        self.array().map(u16::from_le_bytes)
    }

    /// The next little-endian `u32`.
    #[inline]
    pub fn u32(&mut self) -> Option<u32> {
        self.array().map(u32::from_le_bytes)
    }

    /// The next little-endian `u64`.
    #[inline]
    pub fn u64(&mut self) -> Option<u64> {
        self.array().map(u64::from_le_bytes)
    }

    /// The bytes not read yet.
    #[inline]
    pub fn rest(&self) -> &'a [u8] {
        self.rest
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_word_changes_are_caught() {
        assert_ne!(word_hash(&[0, 1, 2, 3], 4, 0), word_hash(&[1, 1, 2, 3], 4, 0));
        let sum = seal(b"payload!", 8, 7);
        assert!(verify(b"payload!", 8, 7, sum));
        assert!(!verify(b"payload?", 8, 7, sum));
        assert!(!verify(b"payload!", 8, 6, sum));
    }

    #[test]
    fn length_extension_needs_the_callers_words() {
        // Zero padding alone cannot tell these apart; the caller's words do.
        assert_eq!(word_hash(&[7], 0, 0), word_hash(&[7, 0], 0, 0));
        assert_ne!(word_hash(&[7], 1, 0), word_hash(&[7, 0], 2, 0));
    }

    #[test]
    fn the_trailing_words_are_hashed_in_order() {
        assert_ne!(word_hash(b"payload", 1, 2), word_hash(b"payload", 2, 1));
        assert_ne!(word_hash(b"", 0, 0), word_hash(b"", 0, 1));
    }

    /// The word loop is the padded-chunk definition, for every tail length.
    #[test]
    fn word_loop_matches_the_padded_definition() {
        let data: Vec<u8> = (0u16..40).map(|i| (i * 37 + 11) as u8).collect();
        for len in 0..data.len() {
            let mut h = OFFSET;
            for chunk in data[..len].chunks(8) {
                let mut w = [0u8; 8];
                w[..chunk.len()].copy_from_slice(chunk);
                h = word_step(h, u64::from_le_bytes(w));
            }
            h = word_step(word_step(h, 3), 4);
            assert_eq!(word_hash(&data[..len], 3, 4), h ^ (h >> 32), "len {len}");
        }
    }

    #[test]
    fn fields_read_in_order_and_stop_short() {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&0x0102_0304_0506_0708u64.to_le_bytes());
        bytes.extend_from_slice(&0x0a0b_0c0du32.to_le_bytes());
        bytes.extend_from_slice(&0x1234u16.to_le_bytes());
        bytes.extend_from_slice(&[9, 1, 2]);
        let mut f = Fields::new(&bytes);
        assert_eq!(f.u64(), Some(0x0102_0304_0506_0708));
        assert_eq!(f.u32(), Some(0x0a0b_0c0d));
        assert_eq!(f.u16(), Some(0x1234));
        assert_eq!(f.u8(), Some(9));
        assert_eq!(f.u64(), None, "a field the bytes cannot hold");
        assert_eq!(f.u16(), Some(0x0201), "and the failed read consumed nothing");
        assert_eq!(f.bytes(1), None);
        assert_eq!(f.rest(), b"");
    }
}
