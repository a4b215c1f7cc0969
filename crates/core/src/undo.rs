//! The undo entry: the on-PM format PMDK's object snapshots and the
//! hardware models' cold-line pre-images share, its one encoder and its one
//! rollback scanner.
//!
//! A pool roots one undo region at [`UNDO_BASE_SLOT`] / [`UNDO_SIZE_SLOT`].
//! Entries follow one another from an offset that is a constant of the
//! caller's region format (PMDK keeps its stage word in front of them):
//!
//! ```text
//!   UndoHeader, then old: the `len`-byte pre-image of [addr, addr + len)
//! ```
//!
//! The scan stops at the first entry whose magic is not the caller's (a
//! log is truncated by zeroing its first entry's magic), whose length
//! leaves the region, or whose checksum fails. The region bounds and each
//! entry's address are image words too, so none of them is summed
//! unchecked: a region that wraps or overruns the image is skipped whole,
//! and an entry whose target does is skipped alone.

use specpmt_pmem::frame::{seal, verify, Fields};

specpmt_pmem::frame! {
    /// An undo entry's header, its `len`-byte pre-image for `addr` behind
    /// it: the caller's magic (any other value ends the log) and the seal
    /// of the pre-image with `magic | len << 32` and `addr`.
    pub struct UndoHeader {
        pub(crate) magic: u32,
        pub(crate) len: u32,
        pub(crate) addr: u64,
        pub(crate) checksum: u64,
    }
}
use specpmt_pmem::{CrashImage, PmemPool, PoolHeader};

/// Root slot holding the undo region's base.
pub const UNDO_BASE_SLOT: usize = 4;
/// Root slot holding the undo region's size in bytes.
pub const UNDO_SIZE_SLOT: usize = 5;

/// Encoded size of an entry holding `len` bytes of pre-image.
pub const fn entry_bytes(len: usize) -> usize {
    UndoHeader::LEN + len
}

/// Roots the undo region `[base, base + size)` in `pool`.
pub fn publish_region(pool: &mut PmemPool, base: usize, size: usize) {
    pool.set_root_direct(UNDO_BASE_SLOT, base as u64);
    pool.set_root_direct(UNDO_SIZE_SLOT, size as u64);
}

/// Encodes the entry `addr -> old` into `entry`, which is
/// [`entry_bytes`]`(old.len())` bytes long.
pub fn encode_entry(entry: &mut [u8], magic: u32, addr: usize, old: &[u8]) {
    let (len, addr) = (old.len() as u32, addr as u64);
    let checksum = seal(old, u64::from(magic) | u64::from(len) << 32, addr);
    let (header, rest) = entry.split_at_mut(UndoHeader::LEN);
    header.copy_from_slice(&UndoHeader { magic, len, addr, checksum }.encode());
    rest.copy_from_slice(old);
}

/// The undo region `image` roots: `None` for a garbage pool, a zero base,
/// or bounds that wrap or overrun the image.
pub fn region(image: &CrashImage) -> Option<&[u8]> {
    let header = PoolHeader::read(image.as_bytes())?;
    let base = header.roots[UNDO_BASE_SLOT] as usize;
    let end = base.checked_add(header.roots[UNDO_SIZE_SLOT] as usize)?;
    image.as_bytes().get(base..end).filter(|_| base != 0)
}

/// Decodes the entry `rest` starts with and moves past it: `None` at the
/// end of the log (another magic, a length past the region, a short
/// header) or at an entry that does not verify.
fn next_entry<'a>(rest: &mut &'a [u8], magic: u32) -> Option<(u64, &'a [u8])> {
    let mut f = Fields::new(rest);
    let h = UndoHeader::decode(f.bytes(UndoHeader::LEN)?).filter(|h| h.magic == magic)?;
    let old = f.bytes(h.len as usize)?;
    if !verify(old, u64::from(magic) | u64::from(h.len) << 32, h.addr, h.checksum) {
        return None;
    }
    *rest = f.rest();
    Some((h.addr, old))
}

/// Rolls back the interrupted transaction in `image`'s undo region, newest
/// entry first. Entries carry `magic` and start `first_entry_off` bytes
/// into the region.
pub fn roll_back(image: &mut CrashImage, first_entry_off: usize, magic: u32) {
    let Some(mut rest) = region(image).and_then(|region| region.get(first_entry_off..)) else {
        return;
    };
    let mut entries = Vec::new();
    while let Some((addr, old)) = next_entry(&mut rest, magic) {
        entries.push((addr as usize, old.to_vec()));
    }
    for (addr, old) in entries.into_iter().rev() {
        if addr.checked_add(old.len()).is_some_and(|end| end <= image.len()) {
            image.write_bytes(addr, &old);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use specpmt_pmem::{root_off, POOL_MAGIC};

    const MAGIC: u32 = 0x5445_5354; // "TEST"
    const OFF: usize = 64;
    const BASE: usize = 4096;
    const SIZE: usize = 1024;
    /// A target outside the region.
    const DATA: usize = 6144;

    /// A pool image whose undo region holds `entries`, oldest first.
    fn image(entries: &[(usize, &[u8])]) -> CrashImage {
        let mut img = CrashImage::new(vec![0; 8192]);
        img.write_u64(0, POOL_MAGIC);
        img.write_u64(root_off(UNDO_BASE_SLOT), BASE as u64);
        img.write_u64(root_off(UNDO_SIZE_SLOT), SIZE as u64);
        let mut at = BASE + OFF;
        for &(addr, old) in entries {
            let mut entry = vec![0; entry_bytes(old.len())];
            encode_entry(&mut entry, MAGIC, addr, old);
            img.write_bytes(at, &entry);
            at += entry.len();
        }
        img
    }

    fn rolled_back(mut img: CrashImage) -> CrashImage {
        roll_back(&mut img, OFF, MAGIC);
        img
    }

    #[test]
    fn rolls_back_newest_first_and_only_its_own_magic() {
        let img = image(&[(DATA, &[1; 8]), (DATA, &[2; 8])]);
        assert_eq!(rolled_back(img.clone()).read_bytes(DATA, 8), [1; 8], "oldest pre-image wins");
        let mut foreign = img.clone();
        roll_back(&mut foreign, OFF, !MAGIC);
        assert_eq!(foreign.as_bytes(), img.as_bytes());
        let mut truncated = img;
        truncated.write_bytes(BASE + OFF, &[0; 4]);
        assert_eq!(rolled_back(truncated).read_bytes(DATA, 8), [0; 8]);
    }

    /// Recovery reads the region bounds, every entry's length and every
    /// entry's address from the image, so none may be trusted: wrapping or
    /// overrunning values are skipped, not summed.
    #[test]
    fn wrapping_region_bounds_and_entry_addresses_are_skipped() {
        let mut wild_bounds = image(&[(DATA, &[1; 8])]);
        wild_bounds.write_u64(root_off(UNDO_BASE_SLOT), u64::MAX);
        wild_bounds.write_u64(root_off(UNDO_SIZE_SLOT), u64::MAX);
        assert_eq!(rolled_back(wild_bounds).read_bytes(DATA, 8), [0; 8]);

        // A checksum-valid entry is not address-valid: the wild one is
        // skipped, the scan goes on past it.
        let wild_entry = image(&[(DATA, &[1; 8]), (usize::MAX - 3, &[9; 64])]);
        assert_eq!(rolled_back(wild_entry).read_bytes(DATA, 8), [1; 8]);

        // A length past the region (and the image) ends the scan before
        // its bytes are read.
        let mut long = image(&[(DATA, &[1; 8]), (DATA, &[2; 8])]);
        let second = BASE + OFF + entry_bytes(8);
        long.write_u64(second, u64::from(MAGIC) | 8000 << 32);
        assert_eq!(rolled_back(long).read_bytes(DATA, 8), [1; 8]);
    }

    /// [`encode_entry`]'s bytes, pinned as they were before the header was
    /// declared as a frame.
    #[test]
    fn an_entry_keeps_its_known_answer() {
        let hex = |b: &[u8]| b.iter().map(|x| format!("{x:02x}")).collect::<String>();
        let mut entry = vec![0u8; entry_bytes(5)];
        encode_entry(&mut entry, 0x55AA_1234, 0x1122_3344_5566_7788, &[1, 2, 3, 4, 5]);
        assert_eq!(hex(&entry), "3412aa550500000088776655443322114d24382dfa7434920102030405");
    }
}
