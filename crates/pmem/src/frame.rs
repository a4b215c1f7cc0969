//! The one on-PM frame codec. A *frame* is whatever a crash can tear and
//! recovery must reject. Each stores the [`seal`] of the bytes it covers
//! and is accepted only where [`verify`] holds: the checksum doubles as
//! the commit flag (paper §4.1).
//!
//! Each format is declared once, with [`frame!`](crate::frame!), in the
//! module that owns it; its struct, `LEN`, `FIELDS` table, `encode` and
//! `decode` all come from that one field list:
//!
//! * `specpmt_core::record`: `RecordHeader`, `EntryHeader`, `BlockHeader`,
//!   `CheckpointHeader` and `Anchor`;
//! * `specpmt_core::layout`: `DescriptorHeader`;
//! * `specpmt_core::undo`: `UndoHeader`;
//! * `specpmt_core::hashlog`: `GenerationHeader`;
//! * the [pool](crate::pool): [`crate::PoolHeader`];
//! * the [flight recorder](crate::blackbox): [`crate::blackbox::EventSlot`] and
//!   [`crate::blackbox::RegionHeader`].
//!
//! Fields are [`Wire`] types, read through [`Fields`] (which returns
//! `None` at the first field the bytes cannot hold, so a truncated frame
//! is rejected, never a panic) and written through [`Writer`]. Their
//! impls here are the one little-endian field coder of `core` and `pmem`;
//! [`crate::PoolHeader::read`] is the one pool-magic check.
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

/// One field of a declared frame, as [`frame!`](crate::frame!) lists it
/// in `FIELDS`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Field {
    /// The field's name in the declaration.
    pub name: &'static str,
    /// Where the field starts in the frame.
    pub offset: usize,
    /// Its width in bytes.
    pub width: usize,
}

/// A type a frame field can have, stored little-endian in
/// [`Self::WIDTH`] bytes: read through [`Fields::read`], written through
/// [`Writer::put`].
pub trait Wire: Copy {
    /// Bytes the field takes.
    const WIDTH: usize;
    /// Writes `self` into `out`, [`Self::WIDTH`] bytes long.
    fn put(self, out: &mut [u8]);
    /// The value `bytes` hold; `None` unless they are [`Self::WIDTH`] long.
    fn get(bytes: &[u8]) -> Option<Self>;
}

macro_rules! wire_ints {
    ($($t:ty),+) => {$(
        impl Wire for $t {
            const WIDTH: usize = std::mem::size_of::<$t>();

            #[inline]
            fn put(self, out: &mut [u8]) {
                out.copy_from_slice(&self.to_le_bytes());
            }

            #[inline]
            fn get(bytes: &[u8]) -> Option<Self> {
                bytes.try_into().ok().map(<$t>::from_le_bytes)
            }
        }
    )+};
}

wire_ints!(u8, u16, u32, u64);

impl<T: Wire + Default, const N: usize> Wire for [T; N] {
    const WIDTH: usize = T::WIDTH * N;

    fn put(self, out: &mut [u8]) {
        let mut w = Writer::new(out);
        self.into_iter().for_each(|v| w.put(v));
    }

    fn get(bytes: &[u8]) -> Option<Self> {
        let (mut f, mut out) = (Fields::new(bytes), [T::default(); N]);
        for v in &mut out {
            *v = f.read()?;
        }
        Some(out)
    }
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

    /// The next field.
    #[inline]
    pub fn read<T: Wire>(&mut self) -> Option<T> {
        let v = T::get(self.rest.get(..T::WIDTH)?)?;
        self.rest = &self.rest[T::WIDTH..];
        Some(v)
    }

    /// The bytes not read yet.
    #[inline]
    pub fn rest(&self) -> &'a [u8] {
        self.rest
    }
}

/// The mirror of [`Fields`]: writes fields one after another into a buffer
/// sized for them, and panics at a field the bytes left cannot hold.
#[derive(Debug)]
pub struct Writer<'a> {
    rest: &'a mut [u8],
}

impl<'a> Writer<'a> {
    /// A writer at the start of `out`.
    #[inline]
    pub fn new(out: &'a mut [u8]) -> Self {
        Self { rest: out }
    }

    /// Writes `v` as the next field.
    #[inline]
    pub fn put<T: Wire>(&mut self, v: T) {
        let (head, rest) = std::mem::take(&mut self.rest).split_at_mut(T::WIDTH);
        v.put(head);
        self.rest = rest;
    }
}

/// Declares on-PM frames, each once: an ordered list of `name: type`
/// fields ([`Wire`] types) becomes the frame's struct, its `LEN`, its
/// `FIELDS` table and its one `encode` and one `decode`, each field
/// little-endian. The struct is `#[repr(C, packed)]`, so its layout is the
/// frame's and `core::mem::offset_of!` names a field's offset.
#[macro_export]
macro_rules! frame {
    ($(
        $(#[$meta:meta])*
        $vis:vis struct $name:ident {
            $($(#[$fmeta:meta])* $fvis:vis $field:ident: $ty:ty),+ $(,)?
        }
    )+) => {$(
        $(#[$meta])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
        #[repr(C, packed)]
        $vis struct $name {
            $($(#[$fmeta])* $fvis $field: $ty),+
        }

        impl $name {
            /// Bytes of the encoded frame: the sum of its field widths.
            pub const LEN: usize = 0 $(+ <$ty as $crate::frame::Wire>::WIDTH)+;

            /// The fields in order, each with its offset and width.
            pub const FIELDS: &'static [$crate::frame::Field] = &[$($crate::frame::Field {
                name: stringify!($field),
                offset: ::core::mem::offset_of!($name, $field),
                width: <$ty as $crate::frame::Wire>::WIDTH,
            }),+];

            /// The frame's bytes.
            #[inline]
            pub fn encode(&self) -> [u8; $name::LEN] {
                let mut out = [0u8; $name::LEN];
                let mut w = $crate::frame::Writer::new(&mut out);
                $(w.put({ self.$field });)+
                out
            }

            /// The frame `bytes` starts with; `None` when they are shorter.
            #[inline]
            pub fn decode(bytes: &[u8]) -> Option<Self> {
                let mut f = $crate::frame::Fields::new(bytes);
                Some(Self { $($field: f.read()?),+ })
            }
        }
    )+};
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
        let mut bytes = [0u8; 17];
        let mut w = Writer::new(&mut bytes);
        w.put(0x0102_0304_0506_0708u64);
        w.put(0x0a0b_0c0du32);
        w.put(0x1234u16);
        w.put(9u8);
        w.put([1u8, 2]);
        assert_eq!(bytes[..8], [8, 7, 6, 5, 4, 3, 2, 1], "little-endian");
        let mut f = Fields::new(&bytes);
        assert_eq!(f.read(), Some(0x0102_0304_0506_0708u64));
        assert_eq!(f.read(), Some(0x0a0b_0c0du32));
        assert_eq!(f.read(), Some(0x1234u16));
        assert_eq!(f.read(), Some(9u8));
        assert_eq!(f.read::<u64>(), None, "a field the bytes cannot hold");
        assert_eq!(f.read(), Some(0x0201u16), "and the failed read consumed nothing");
        assert_eq!(f.bytes(1), None);
        assert_eq!(f.rest(), b"");
    }

    #[test]
    fn arrays_are_their_elements_in_order() {
        let mut bytes = [0u8; 16];
        Writer::new(&mut bytes).put([1u64, 2]);
        assert_eq!(u64::get(&bytes[8..]), Some(2));
        assert_eq!(Fields::new(&bytes).read(), Some([1u64, 2]));
        assert_eq!(Fields::new(&bytes[1..]).read::<[u64; 2]>(), None);
    }

    #[test]
    #[should_panic]
    fn a_writer_never_writes_past_its_buffer() {
        Writer::new(&mut [0u8; 3]).put(1u32);
    }

    crate::frame! {
        /// A frame with one field of every width.
        struct Probe {
            a: u8,
            b: u64,
            c: u16,
            d: [u32; 2],
            e: u32,
        }
    }

    #[test]
    fn a_declared_frame_is_its_field_list() {
        assert_eq!(Probe::LEN, 23);
        let at: Vec<_> = Probe::FIELDS.iter().map(|f| (f.name, f.offset, f.width)).collect();
        assert_eq!(at, [("a", 0, 1), ("b", 1, 8), ("c", 9, 2), ("d", 11, 8), ("e", 19, 4)]);
        let p = Probe { a: 1, b: 2, c: 3, d: [4, 5], e: 6 };
        let bytes = p.encode();
        assert_eq!(bytes[1..9], 2u64.to_le_bytes());
        assert_eq!(Probe::decode(&bytes), Some(p));
        assert_eq!(Probe::decode(&bytes[..Probe::LEN - 1]), None);
    }
}
