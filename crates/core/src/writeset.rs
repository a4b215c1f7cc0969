//! Zero-allocation transaction write set: the open record's payload.
//!
//! A writing transaction's log record is built here and nowhere else
//! until it commits. Each write is staged into the payload arena — a new
//! entry, an extension of the last entry, or an in-place patch of an
//! earlier one — and [`crate::engine::TxLog`] appends the finished
//! payload, behind its sealed header, to the chain in one store run at the
//! seal. No log store is issued before then.
//!
//! The structures are **owned by the runtime and reused across
//! transactions**:
//!
//! * an open-addressing index (linear probing, Fibonacci hashing) whose
//!   slots carry a *stamp*: `begin()` bumps the stamp instead of zeroing
//!   the table, so clearing is O(1) and the table's capacity — grown to
//!   the high-water mark of any past transaction — is never released;
//! * a payload arena (`Vec<u8>`) that is `clear()`ed, not freed, so its
//!   capacity is likewise sticky. [`WriteSet::checksum`] hashes the final
//!   arena in one pass at seal time — a word per multiply, so there is no
//!   streaming hash to keep in step with staging and in-place patches.
//!
//! After warm-up, a committed transaction performs **zero** heap
//! allocations in this layer (the commit-path microbench asserts this via
//! a counting global allocator).

use std::mem::offset_of;

use specpmt_pmem::frame::Writer;

use crate::record::{self, entry_pieces, Cursor, EntryHeader, ENTRY_HDR, MAX_ENTRY_LEN};

/// Where one staged write's bytes live, for the in-transaction dedup
/// path. A write that [extended](WriteSet::extend_tail) the tail entry is a
/// piece of that entry: its bytes sit in the middle of the entry's value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EntrySlot {
    /// Offset of the write's value bytes inside the payload arena.
    pub payload_off: usize,
    /// Value length in bytes.
    pub len: usize,
    /// Offset of the header of the entry holding the bytes.
    pub entry_off: usize,
}

/// One index slot. `stamp` ties the slot to the transaction that wrote
/// it; slots from older transactions are treated as empty.
#[derive(Debug, Clone, Copy)]
struct Slot {
    addr: usize,
    stamp: u64,
    entry: EntrySlot,
}

const EMPTY_SLOT: Slot =
    Slot { addr: 0, stamp: 0, entry: EntrySlot { payload_off: 0, len: 0, entry_off: 0 } };

/// Reusable write-set: open-addressing index + payload arena. See the
/// module docs for the design rationale.
#[derive(Debug)]
pub struct WriteSet {
    slots: Vec<Slot>,
    /// `64 - log2(slots.len())`, for Fibonacci hashing.
    shift: u32,
    mask: usize,
    /// Live entries in the *current* transaction.
    live: usize,
    /// Current transaction stamp; slots with an older stamp are empty.
    stamp: u64,
    payload: Vec<u8>,
    /// The last staged entry: its header's arena offset and the address
    /// one past its last byte. A write starting there may
    /// [extend](Self::extend_tail) it.
    tail: Option<(usize, usize)>,
}

const INITIAL_SLOTS: usize = 16;

impl Default for WriteSet {
    fn default() -> Self {
        Self::new()
    }
}

impl WriteSet {
    /// Empty write set with a small initial table.
    pub fn new() -> Self {
        Self {
            slots: vec![EMPTY_SLOT; INITIAL_SLOTS],
            shift: 64 - INITIAL_SLOTS.trailing_zeros(),
            mask: INITIAL_SLOTS - 1,
            live: 0,
            stamp: 0,
            payload: Vec::new(),
            tail: None,
        }
    }

    /// Starts a new transaction: O(1) — bumps the stamp (logically
    /// emptying the table) and clears the arena (keeping capacity).
    pub fn begin(&mut self) {
        self.stamp += 1;
        self.live = 0;
        self.payload.clear();
        self.tail = None;
    }

    /// Number of write addresses indexed in the current transaction.
    pub fn len(&self) -> usize {
        self.live
    }

    /// True when the current transaction has staged nothing.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// The staged payload (all entries, wire format) so far.
    pub fn payload(&self) -> &[u8] {
        &self.payload
    }

    #[inline(always)]
    fn bucket(&self, addr: usize) -> usize {
        // Fibonacci hashing: multiply by 2^64/phi, take the top bits.
        (addr.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> self.shift) & self.mask
    }

    /// Finds the entry staged for `addr` in the current transaction.
    #[inline]
    pub fn lookup(&self, addr: usize) -> Option<EntrySlot> {
        let mut i = self.bucket(addr);
        loop {
            let s = &self.slots[i];
            if s.stamp != self.stamp {
                return None;
            }
            if s.addr == addr {
                return Some(s.entry);
            }
            i = (i + 1) & self.mask;
        }
    }

    /// Stages a fresh entry for `addr`: appends the entry header and
    /// `data`, at most [`MAX_ENTRY_LEN`] bytes, to the payload arena and
    /// indexes the entry. Returns the [`EntrySlot`] recorded for it.
    pub fn stage_entry(&mut self, addr: usize, data: &[u8]) -> EntrySlot {
        let entry_off = self.payload.len();
        self.payload.extend_from_slice(&EntryHeader::new(addr, data.len()).encode());
        self.payload.extend_from_slice(data);
        self.tail = Some((entry_off, addr + data.len()));
        let entry = EntrySlot { payload_off: entry_off + ENTRY_HDR, len: data.len(), entry_off };
        self.insert(addr, entry);
        entry
    }

    /// [`Self::stage_entry`] under the signature `benchmark/`'s write-set
    /// probe times. The cursor is unused: no log chain mirrors the arena
    /// as it grows.
    pub fn stage(&mut self, addr: usize, data: &[u8], _cursor: Cursor) -> EntrySlot {
        self.stage_entry(addr, data)
    }

    /// Appends `data` to the tail entry when `addr` is where that entry
    /// ends and the grown entry stays within [`MAX_ENTRY_LEN`]: the arena
    /// grows by the value bytes alone and the entry's length is rewritten.
    /// The tail entry is the payload's last, so the grown entry replays
    /// exactly as the two writes would, in write order. Returns `false`
    /// (nothing staged) when `addr` does not continue the tail entry or the
    /// entry has no room for `data`.
    pub fn extend_tail(&mut self, addr: usize, data: &[u8]) -> bool {
        let payload_off = self.payload.len();
        let Some((entry_off, _)) = self.tail.filter(|&(off, end)| {
            end == addr && payload_off + data.len() - off - ENTRY_HDR <= MAX_ENTRY_LEN
        }) else {
            return false;
        };
        self.payload.extend_from_slice(data);
        let len = self.payload.len() - entry_off - ENTRY_HDR;
        Writer::new(&mut self.payload[entry_off + offset_of!(EntryHeader, len)..]).put(len as u16);
        self.tail = Some((entry_off, addr + data.len()));
        self.insert(addr, EntrySlot { payload_off, len: data.len(), entry_off });
        true
    }

    /// The staged write that a write of `len` bytes at `addr` may
    /// overwrite in place: the one staged for `addr`, if it has that length and no entry staged
    /// after the entry holding it overlaps `[addr, addr + len)`. Recovery
    /// replays a record's entries in payload order, so patching past a
    /// later overlapping entry would replay the two writes out of order.
    /// The scan starts at the holding entry's end, not the write's: bytes
    /// in the middle of an extended entry are values, not headers.
    pub fn patchable(&self, addr: usize, len: usize) -> Option<EntrySlot> {
        let slot = self.lookup(addr).filter(|slot| slot.len == len)?;
        let mut later = record::Entries::new(&self.payload[slot.entry_off..]).skip(1);
        (!later.any(|e| e.addr < addr + len && addr < e.addr + e.value.len())).then_some(slot)
    }

    /// Adds a write one piece (`entry_pieces`) at a time, without
    /// extending entries: overwrites the entry [`Self::patchable`] names,
    /// else stages a new one.
    pub fn coalesce(&mut self, addr: usize, data: &[u8]) {
        for (addr, piece) in entry_pieces(addr, data) {
            match self.patchable(addr, piece.len()) {
                Some(slot) => self.patch(slot, piece),
                None => {
                    self.stage_entry(addr, piece);
                }
            }
        }
    }

    /// Overwrites the value bytes of an already-staged entry in place
    /// (the same-address-same-length dedup path, see [`Self::patchable`]).
    pub fn patch(&mut self, slot: EntrySlot, data: &[u8]) {
        debug_assert_eq!(slot.len, data.len());
        self.payload[slot.payload_off..slot.payload_off + slot.len].copy_from_slice(data);
    }

    /// The record checksum for the staged payload, sealed with `ts`: one
    /// pass over the arena, however the payload was staged or patched.
    pub fn checksum(&self, ts: u64) -> u64 {
        record::record_checksum(ts, &self.payload)
    }

    fn insert(&mut self, addr: usize, entry: EntrySlot) {
        if (self.live + 1) * 4 > self.slots.len() * 3 {
            self.grow();
        }
        let stamp = self.stamp;
        let mut i = self.bucket(addr);
        loop {
            let s = &mut self.slots[i];
            if s.stamp != stamp {
                *s = Slot { addr, stamp, entry };
                self.live += 1;
                break;
            }
            if s.addr == addr {
                s.entry = entry;
                break;
            }
            i = (i + 1) & self.mask;
        }
    }

    #[cold]
    fn grow(&mut self) {
        let new_cap = self.slots.len() * 2;
        let old = std::mem::replace(&mut self.slots, vec![EMPTY_SLOT; new_cap]);
        self.shift = 64 - new_cap.trailing_zeros();
        self.mask = new_cap - 1;
        let stamp = self.stamp;
        for s in old {
            if s.stamp != stamp {
                continue;
            }
            let mut i = self.bucket(s.addr);
            loop {
                if self.slots[i].stamp != stamp {
                    self.slots[i] = s;
                    break;
                }
                i = (i + 1) & self.mask;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record;

    #[test]
    fn stage_lookup_roundtrip() {
        let mut ws = WriteSet::new();
        ws.begin();
        let a = ws.stage_entry(100, &[1, 2, 3, 4]);
        let b = ws.stage_entry(200, &[9; 8]);
        assert_eq!(ws.lookup(100), Some(a));
        assert_eq!(ws.lookup(200), Some(b));
        assert_eq!(ws.lookup(300), None);
        assert_eq!(ws.len(), 2);
        // Payload layout: hdr(100,4) val hdr(200,8) val.
        assert_eq!(ws.payload().len(), 2 * ENTRY_HDR + 4 + 8);
        assert_eq!(&ws.payload()[a.payload_off..a.payload_off + 4], &[1, 2, 3, 4]);
    }

    #[test]
    fn begin_clears_in_o1() {
        let mut ws = WriteSet::new();
        ws.begin();
        for i in 0..100 {
            ws.stage_entry(i * 8, &[i as u8; 8]);
        }
        assert_eq!(ws.len(), 100);
        ws.begin();
        assert!(ws.is_empty());
        assert_eq!(ws.lookup(0), None);
        assert_eq!(ws.lookup(8 * 50), None);
        assert!(ws.payload().is_empty());
        // Re-staging after clear works and lookups only see the new tx.
        ws.stage_entry(8, &[7; 8]);
        assert!(ws.lookup(8).is_some());
        assert_eq!(ws.lookup(16), None);
    }

    /// Seeded transactions mixing fresh stages, extensions of the tail
    /// entry and same-length patches of overlapping ranges, in any order,
    /// tried as `TxLog::stage` tries them (patch, else extend, else a new
    /// entry): a write patches exactly when an independent model says it
    /// may (same address and length as the newest write at its address,
    /// and no entry after the one holding it overlapping it), extends
    /// exactly when it starts where the last entry ends, and the checksum
    /// is the record checksum of the payload the model encodes.
    #[test]
    fn checksum_matches_an_independently_encoded_payload() {
        let mut rng = specpmt_pmem::SplitMix64::new(0x3a5e);
        let mut ws = WriteSet::new();
        let (mut patches, mut extensions) = (0, 0);
        for tx in 0..400u64 {
            ws.begin();
            // Entries as the model encodes them, and each write as
            // (addr, len, index of its entry, offset in that entry).
            let mut want: Vec<(usize, Vec<u8>)> = Vec::new();
            let mut writes: Vec<(usize, usize, usize, usize)> = Vec::new();
            for _ in 0..rng.range_usize(1, 12) {
                let tail_end = want.last().map(|(a, v)| a + v.len());
                let addr = match tail_end {
                    Some(end) if rng.below(3) == 0 => end,
                    _ => 8 * rng.below(6) as usize,
                };
                let data: Vec<u8> = (0..rng.range_usize(1, 20)).map(|_| rng.next_u8()).collect();
                let disjoint =
                    |(a, v): &(usize, Vec<u8>)| a + v.len() <= addr || addr + data.len() <= *a;
                let model = writes.iter().rposition(|w| w.0 == addr).filter(|&i| {
                    writes[i].1 == data.len() && want[writes[i].2 + 1..].iter().all(disjoint)
                });
                if let Some(i) = model {
                    let (_, len, e, off) = writes[i];
                    let slot = ws.patchable(addr, len).unwrap_or_else(|| panic!("tx {tx}"));
                    ws.patch(slot, &data);
                    want[e].1[off..off + len].copy_from_slice(&data);
                    patches += 1;
                    continue;
                }
                assert_eq!(ws.patchable(addr, data.len()), None, "tx {tx}");
                let grown = ws.extend_tail(addr, &data);
                assert_eq!(grown, tail_end == Some(addr), "tx {tx}");
                if grown {
                    let (e, off) = (want.len() - 1, want[want.len() - 1].1.len());
                    want[e].1.extend_from_slice(&data);
                    writes.push((addr, data.len(), e, off));
                    extensions += 1;
                } else {
                    ws.stage_entry(addr, &data);
                    writes.push((addr, data.len(), want.len(), 0));
                    want.push((addr, data));
                }
            }
            let mut payload = Vec::new();
            want.iter().for_each(|(addr, value)| record::push_entry(&mut payload, *addr, value));
            assert_eq!(ws.payload(), payload.as_slice(), "tx {tx}");
            assert_eq!(ws.checksum(tx), record::record_checksum(tx, &payload), "tx {tx}");
        }
        assert!(patches > 0 && extensions > 0, "{patches} patches, {extensions} extensions");
    }

    /// A patch of a write in the middle of an extended entry scans for
    /// later overlapping entries from the end of the whole entry: the
    /// bytes after the write are values, not entry headers.
    #[test]
    fn a_piece_inside_an_extended_entry_patches_only_past_no_overlap() {
        let mut ws = WriteSet::new();
        ws.begin();
        ws.stage_entry(0, &[1; 4]);
        assert!(ws.extend_tail(4, &[2; 4]));
        assert!(ws.extend_tail(8, &[4; 4]));
        assert!(!ws.extend_tail(6, &[7; 4]), "6 is not where the entry ends");
        ws.stage_entry(6, &[7; 4]);
        assert_eq!(ws.patchable(4, 4), None, "the entry at 6 overlaps [4, 8)");
        let slot = ws.patchable(0, 4).expect("nothing after the entry overlaps [0, 4)");
        ws.patch(slot, &[3; 4]);
        let mut payload = Vec::new();
        record::push_entry(&mut payload, 0, &[3, 3, 3, 3, 2, 2, 2, 2, 4, 4, 4, 4]);
        record::push_entry(&mut payload, 6, &[7; 4]);
        assert_eq!(ws.payload(), payload.as_slice());
    }

    /// An extension that fills the tail entry to `MAX_ENTRY_LEN` is taken;
    /// one that would pass it stages nothing, so the caller opens a new
    /// entry.
    #[test]
    fn an_extension_stops_at_the_entry_bound() {
        let mut ws = WriteSet::new();
        ws.begin();
        ws.stage_entry(0, &vec![1; MAX_ENTRY_LEN - 8]);
        assert!(ws.extend_tail(MAX_ENTRY_LEN - 8, &[2; 8]));
        assert!(!ws.extend_tail(MAX_ENTRY_LEN, &[3]), "one byte past the bound");
        assert_eq!(ws.payload().len(), ENTRY_HDR + MAX_ENTRY_LEN);
        let mut payload = Vec::new();
        record::push_entry(&mut payload, 0, &[vec![1; MAX_ENTRY_LEN - 8], vec![2; 8]].concat());
        assert_eq!(ws.payload(), payload.as_slice(), "the length field reads the bound");
    }

    /// A coalesced write longer than an entry holds is staged as the
    /// entries `push_entry` encodes, and a same-length rewrite of it
    /// patches every piece in place.
    #[test]
    fn a_long_coalesced_write_stages_consecutive_entries() {
        let mut ws = WriteSet::new();
        ws.begin();
        let (first, second) = (vec![5u8; MAX_ENTRY_LEN + 100], vec![6u8; MAX_ENTRY_LEN + 100]);
        ws.coalesce(64, &first);
        let mut payload = Vec::new();
        record::push_entry(&mut payload, 64, &first);
        assert_eq!(ws.payload(), payload.as_slice());
        ws.coalesce(64, &second);
        payload.clear();
        record::push_entry(&mut payload, 64, &second);
        assert_eq!(ws.payload(), payload.as_slice(), "patched, not re-staged");
    }

    #[test]
    fn collisions_and_growth_keep_lookups_correct() {
        let mut ws = WriteSet::new();
        ws.begin();
        // Far more entries than the initial table; many share low bits.
        for i in 0..500usize {
            ws.stage_entry(i << 12, &[(i & 0xff) as u8; 4]);
        }
        for i in 0..500usize {
            let s = ws.lookup(i << 12).expect("present");
            assert_eq!(s.entry_off, i * (ENTRY_HDR + 4));
            assert_eq!(ws.payload()[s.payload_off], (i & 0xff) as u8);
        }
        assert_eq!(ws.lookup(501 << 12), None);
    }

    #[test]
    fn restage_same_addr_updates_index() {
        // The runtime re-stages when the *length* changes; the index must
        // then point at the newest entry.
        let mut ws = WriteSet::new();
        ws.begin();
        let first = ws.stage_entry(64, &[1; 4]);
        let second = ws.stage_entry(64, &[2; 8]);
        assert_ne!(first, second);
        assert_eq!(ws.lookup(64), Some(second));
        assert_eq!(ws.checksum(3), record::record_checksum(3, ws.payload()));
    }
}
