//! Persistent pool: a formatted device with a header, root slots, and heap.
//!
//! The device opens with the [`PoolHeader`] (magic, persistent bump
//! pointer, [`ROOT_SLOTS`] root slots in which runtimes stash log heads and
//! the like); the bytes after it up to [`POOL_HEADER_SIZE`] are reserved
//! and the heap starts there. All offsets are fixed so recovery code can
//! find them in a raw [`crate::CrashImage`].

use std::mem::offset_of;

use crate::alloc::{Reservation, SizeClassAllocator};
use crate::frame::Wire;
use crate::{CrashImage, PmemDevice, PmemError};

/// Magic value identifying a formatted pool.
pub const POOL_MAGIC: u64 = 0x5350_4543_504d_5431; // "SPECPMT1"

/// Offset of the persistent bump pointer.
pub const BUMP_OFF: usize = offset_of!(PoolHeader, bump);

/// Number of root slots.
pub const ROOT_SLOTS: usize = 16;

/// Size of the reserved pool header; the heap starts here.
pub const POOL_HEADER_SIZE: usize = 256;

/// Byte offset of root slot `i`.
///
/// # Panics
///
/// Panics if `i >= ROOT_SLOTS`.
pub fn root_off(i: usize) -> usize {
    assert!(i < ROOT_SLOTS, "root slot {i} out of range");
    offset_of!(PoolHeader, roots) + i * u64::WIDTH
}

crate::frame! {
    /// A formatted pool's header, at the start of the device.
    pub struct PoolHeader {
        /// [`POOL_MAGIC`].
        pub magic: u64,
        /// The persisted bump pointer (an absolute offset).
        pub bump: u64,
        /// The root slots.
        pub roots: [u64; ROOT_SLOTS],
    }
}

impl PoolHeader {
    /// The header a pool is formatted with: an empty heap, zero roots.
    pub(crate) fn formatted() -> Self {
        Self { magic: POOL_MAGIC, bump: POOL_HEADER_SIZE as u64, roots: [0; ROOT_SLOTS] }
    }

    /// The header `bytes` starts with (a whole image, or at least its first
    /// [`POOL_HEADER_SIZE`] bytes): the one place the pool magic is
    /// checked. `None` unless they hold a whole header that opens with
    /// [`POOL_MAGIC`].
    pub fn read(bytes: &[u8]) -> Option<Self> {
        Self::decode(bytes.get(..POOL_HEADER_SIZE)?).filter(|h| h.magic == POOL_MAGIC)
    }
}

/// A formatted persistent pool over a [`PmemDevice`].
///
/// The pool owns the device; transaction runtimes own the pool. Directly
/// persisted operations (`*_direct`) bypass any transaction and persist
/// immediately — they are for setup and for runtime-internal metadata that
/// manages its own consistency. Transactional allocation goes through
/// [`PmemPool::reserve`] so the bump-pointer update can flow through the
/// runtime's own logging.
#[derive(Debug, Clone)]
pub struct PmemPool {
    dev: PmemDevice,
    alloc: SizeClassAllocator,
}

impl PmemPool {
    /// Formats `dev` as a fresh pool.
    ///
    /// # Panics
    ///
    /// Panics if the device is smaller than [`POOL_HEADER_SIZE`].
    pub fn create(mut dev: PmemDevice) -> Self {
        assert!(dev.size() >= POOL_HEADER_SIZE, "device too small for a pool");
        let end = dev.size();
        let timing = dev.timing();
        dev.set_timing(crate::TimingMode::Off);
        dev.write(0, &PoolHeader::formatted().encode());
        dev.persist_range(0, POOL_HEADER_SIZE);
        dev.set_timing(timing);
        Self { dev, alloc: SizeClassAllocator::new(POOL_HEADER_SIZE, end) }
    }

    /// Re-opens a pool from a crash image (after a runtime's recovery has
    /// already repaired the image). The volatile allocator resumes from the
    /// persisted bump pointer; free lists start empty.
    ///
    /// # Errors
    ///
    /// Returns [`PmemError::BadPoolHeader`] if the magic does not match or
    /// the bump pointer is implausible.
    pub fn open(image: &CrashImage, cfg: crate::PmemConfig) -> Result<Self, PmemError> {
        let header = PoolHeader::read(image.as_bytes()).ok_or(PmemError::BadPoolHeader)?;
        let bump = header.bump as usize;
        if bump < POOL_HEADER_SIZE || bump > image.len() {
            return Err(PmemError::BadPoolHeader);
        }
        let dev = PmemDevice::from_image(cfg, image);
        let end = dev.size();
        let mut alloc = SizeClassAllocator::new(POOL_HEADER_SIZE, end);
        alloc.restore(bump);
        Ok(Self { dev, alloc })
    }

    /// The underlying device.
    pub fn device(&self) -> &PmemDevice {
        &self.dev
    }

    /// Mutable access to the underlying device.
    pub fn device_mut(&mut self) -> &mut PmemDevice {
        &mut self.dev
    }

    /// Reserves heap space without making the bump durable; the caller's
    /// runtime must write [`BUMP_OFF`] with `new_bump` transactionally when
    /// the reservation grew the heap.
    ///
    /// # Errors
    ///
    /// Returns [`PmemError::OutOfMemory`] when the heap is exhausted.
    pub fn reserve(&mut self, size: usize, align: usize) -> Result<Reservation, PmemError> {
        self.alloc.reserve(size, align)
    }

    /// Allocates and immediately persists the bump pointer — for setup and
    /// runtime-internal structures (e.g. log blocks) that manage their own
    /// crash consistency.
    ///
    /// # Errors
    ///
    /// Returns [`PmemError::OutOfMemory`] when the heap is exhausted.
    pub fn alloc_direct(&mut self, size: usize, align: usize) -> Result<usize, PmemError> {
        let r = self.alloc.reserve(size, align)?;
        if let Some(bump) = r.new_bump {
            self.dev.write_u64(BUMP_OFF, bump);
            self.dev.persist_range(BUMP_OFF, 8);
        }
        Ok(r.off)
    }

    /// Returns a block to the volatile free list.
    pub fn free(&mut self, off: usize, size: usize, align: usize) {
        self.alloc.release(off, size, align);
    }

    /// Reads root slot `i`.
    pub fn root(&self, i: usize) -> u64 {
        self.dev.peek_u64(root_off(i))
    }

    /// Writes and immediately persists root slot `i`.
    pub fn set_root_direct(&mut self, i: usize, value: u64) {
        self.dev.write_u64(root_off(i), value);
        self.dev.persist_range(root_off(i), 8);
    }

    /// Heap bytes consumed (bump high-water is available via
    /// [`Self::heap_peak`]).
    pub fn heap_used(&self) -> usize {
        self.alloc.used_until() - POOL_HEADER_SIZE
    }

    /// High-water mark of heap consumption.
    pub fn heap_peak(&self) -> usize {
        self.alloc.peak() - POOL_HEADER_SIZE
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CrashControl, CrashPolicy, PmemConfig};

    fn pool() -> PmemPool {
        PmemPool::create(PmemDevice::new(PmemConfig::new(64 * 1024)))
    }

    #[test]
    fn create_formats_header() {
        let p = pool();
        assert_eq!(p.device().peek_u64(0), POOL_MAGIC);
        assert_eq!(p.device().peek_u64(BUMP_OFF), POOL_HEADER_SIZE as u64);
    }

    #[test]
    fn header_survives_pessimistic_crash() {
        let p = pool();
        let img = p.device().capture(CrashPolicy::AllLost);
        assert_eq!(img.read_u64(0), POOL_MAGIC);
    }

    #[test]
    fn alloc_direct_persists_bump() {
        let mut p = pool();
        let off = p.alloc_direct(100, 8).unwrap();
        assert!(off >= POOL_HEADER_SIZE);
        let img = p.device().capture(CrashPolicy::AllLost);
        assert!(img.read_u64(BUMP_OFF) as usize >= off + 100);
    }

    #[test]
    fn open_restores_bump_and_rejects_garbage() {
        let mut p = pool();
        let off = p.alloc_direct(64, 8).unwrap();
        let img = p.device().capture(CrashPolicy::AllLost);
        let p2 = PmemPool::open(&img, PmemConfig::new(64 * 1024)).unwrap();
        // New allocations don't overlap the old one.
        let mut p2 = p2;
        let off2 = p2.alloc_direct(64, 8).unwrap();
        assert!(off2 >= off + 64);

        let garbage = CrashImage::new(vec![0xAA; 4096]);
        assert!(PmemPool::open(&garbage, PmemConfig::new(4096)).is_err());
    }

    #[test]
    fn roots_persist() {
        let mut p = pool();
        p.set_root_direct(3, 0x1234);
        let img = p.device().capture(CrashPolicy::AllLost);
        assert_eq!(img.read_u64(root_off(3)), 0x1234);
    }

    #[test]
    fn reserve_defers_bump_durability() {
        let mut p = pool();
        let r = p.reserve(64, 8).unwrap();
        assert!(r.new_bump.is_some());
        // Not persisted: a pessimistic crash reverts the bump.
        let img = p.device().capture(CrashPolicy::AllLost);
        assert_eq!(img.read_u64(BUMP_OFF), POOL_HEADER_SIZE as u64);
    }

    #[test]
    fn heap_accounting() {
        let mut p = pool();
        assert_eq!(p.heap_used(), 0);
        p.alloc_direct(128, 8).unwrap();
        assert_eq!(p.heap_used(), 128);
        assert_eq!(p.heap_peak(), 128);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn root_slot_bounds_checked() {
        root_off(ROOT_SLOTS);
    }

    /// Both pools' header after a root write and an allocation, pinned
    /// byte for byte as it was written before it was declared as a frame.
    #[test]
    fn the_header_keeps_its_known_answer() {
        let hex = |b: &[u8]| b.iter().map(|x| format!("{x:02x}")).collect::<String>();
        let want = "31544d50434550536801000000000000000000000000000000000000000000000000000000000000887766554433221100000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000";
        let mut p = PmemPool::create(PmemDevice::new(PmemConfig::new(4096)));
        p.set_root_direct(3, 0x1122_3344_5566_7788);
        p.alloc_direct(100, 8).unwrap();
        assert_eq!(hex(p.device().peek(0, POOL_HEADER_SIZE)), want);
        let s = crate::SharedPmemPool::create(crate::SharedPmemDevice::new(PmemConfig::new(4096)));
        s.set_root_direct(3, 0x1122_3344_5566_7788);
        s.alloc_direct(100, 8).unwrap();
        assert_eq!(hex(&s.handle().peek(0, POOL_HEADER_SIZE)), want);
    }
}
