//! The persisted pool layout descriptor.
//!
//! The paper's software design (§4) gives every thread a private
//! append-only log chain, which means the pool must record *where each
//! thread's chain head lives*. Early versions of this runtime burned one
//! pool root slot per thread, capping the runtime at 8 threads (the pool
//! has 16 root slots and half are spoken for). [`PoolLayout`] removes the
//! cap: at format time the runtime allocates a **layout descriptor** on
//! the heap — a table of chain-head slots, one per thread the runtime was
//! formatted with, plus the block size — checksums the static part, and
//! points root slot [`LAYOUT_SLOT`] at it. Every runtime that roots a log
//! chain formats one (the software runtimes one slot per thread, the
//! hardware SpecPMT model one per live epoch, HOOP and SPHT a single
//! slot), and everything that parses a pool after a crash
//! ([`crate::recovery`], [`crate::inspect`]) finds the chains through it.
//!
//! ```text
//! root slot 3 (LAYOUT_SLOT) ──► descriptor (heap, 64-byte aligned)
//!   0  .. 8   layout magic "SPLAYOUT"
//!   8  .. 12  version (u32)
//!   12 .. 16  chain capacity (u32, 1..=4096)
//!   16 .. 24  log block bytes (u64)
//!   24 .. 32  FNV-1a checksum of bytes 0..24
//!   32 .. 40  checkpoint chain head (u64; 0 = no checkpoint)
//!   40 .. 48  black-box region base (u64; 0 = recorder never on)
//!   48 .. 48 + 8·capacity   per-thread chain-head pointers (u64 each)
//! ```
//!
//! The header (bytes 0..32) is written once at format time and never
//! mutated, so its checksum catches a torn or foreign descriptor. The
//! checkpoint head and the head table **are** mutated at runtime (log
//! reclamation and checkpointing splice new chains in by atomically
//! rewriting one aligned 8-byte pointer — the paper's two-fence protocol),
//! so they are deliberately *not* covered by the checksum; a head pointer
//! self-validates by chain (or checkpoint-record) parsing.
//!
//! This is the only layout. A pool whose [`LAYOUT_SLOT`] root is zero has
//! none — [`PoolLayout::read`] returns `None` and recovery is a no-op, as
//! for a garbage descriptor — and, pools never outliving a process, a
//! descriptor of any version but [`LAYOUT_VERSION`] is rejected as corrupt
//! rather than parsed.

use specpmt_pmem::{root_off, PmemPool, SharedPmemPool, POOL_HEADER_SIZE, POOL_MAGIC};

use crate::checksum::fnv1a64;
use crate::record::ByteSource;

/// Root slot pointing at the layout descriptor (0 = no layout).
pub const LAYOUT_SLOT: usize = 3;

/// Magic identifying a layout descriptor ("SPLAYOUT").
pub const LAYOUT_MAGIC: u64 = 0x5350_4c41_594f_5554;

/// The descriptor version (the only one [`PoolLayout::read`] accepts).
pub const LAYOUT_VERSION: u32 = 3;

/// Bytes of the checksummed, write-once part of the descriptor.
const DESC_STATIC: usize = 32;

/// Descriptor header bytes preceding the head table: the static part plus
/// the mutable checkpoint-head and black-box-base pointers.
pub const DESC_HDR: usize = 48;

/// Offset of the checkpoint chain head within the descriptor.
pub const CKPT_HEAD_OFF: usize = 32;

/// Offset of the black-box (flight recorder) region base within the
/// descriptor. Like the checkpoint head it is mutable, non-checksummed
/// state: the region it points at self-validates via its own
/// checksummed header, and 0 means the recorder was never enabled.
pub const BBOX_HEAD_OFF: usize = 40;

/// Valid log block sizes (shared with recovery's plausibility check).
const BLOCK_BYTES_RANGE: std::ops::RangeInclusive<usize> = 64..=(1 << 20);

/// A parsed (or freshly formatted) pool layout: where each thread's log
/// chain head lives, where the checkpoint chain head lives, and how large
/// log blocks are.
///
/// Copyable by design — the runtimes keep one, fixed at format time, and
/// pass it around freely while mutating the pool it describes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PoolLayout {
    threads: usize,
    block_bytes: usize,
    /// Heap offset of the descriptor.
    desc_base: usize,
}

fn read_u64_at<S: ByteSource>(src: &S, addr: usize) -> Option<u64> {
    let mut b = [0u8; 8];
    src.read_at(addr, &mut b).then(|| u64::from_le_bytes(b))
}

impl PoolLayout {
    /// Maximum chain slots a pool can be formatted with (8 · 4096 = 32 KiB
    /// of head table, still tiny next to a single log block chain).
    pub const MAX_THREADS: usize = 4096;

    fn descriptor_bytes(threads: usize, block_bytes: usize) -> Vec<u8> {
        let mut d = vec![0u8; DESC_HDR + 8 * threads];
        d[0..8].copy_from_slice(&LAYOUT_MAGIC.to_le_bytes());
        d[8..12].copy_from_slice(&LAYOUT_VERSION.to_le_bytes());
        d[12..16].copy_from_slice(&(threads as u32).to_le_bytes());
        d[16..24].copy_from_slice(&(block_bytes as u64).to_le_bytes());
        let sum = fnv1a64(&d[0..24]);
        d[24..32].copy_from_slice(&sum.to_le_bytes());
        d
    }

    fn check_format_args(threads: usize, block_bytes: usize) {
        assert!(
            (1..=Self::MAX_THREADS).contains(&threads),
            "thread count {threads} out of range (1..={})",
            Self::MAX_THREADS
        );
        assert!(
            BLOCK_BYTES_RANGE.contains(&block_bytes),
            "block size {block_bytes} out of range ({}..={})",
            BLOCK_BYTES_RANGE.start(),
            BLOCK_BYTES_RANGE.end()
        );
    }

    /// Formats a layout descriptor on `pool`'s heap (head table and
    /// checkpoint head zeroed) and roots it at [`LAYOUT_SLOT`].
    ///
    /// # Panics
    ///
    /// Panics if `threads` or `block_bytes` is out of range, or the heap
    /// cannot hold the descriptor.
    pub fn format(pool: &mut PmemPool, threads: usize, block_bytes: usize) -> Self {
        Self::check_format_args(threads, block_bytes);
        let bytes = Self::descriptor_bytes(threads, block_bytes);
        let desc_base =
            pool.alloc_direct(bytes.len(), 64).expect("pool too small for layout descriptor");
        pool.device_mut().write(desc_base, &bytes);
        pool.device_mut().persist_range(desc_base, bytes.len());
        pool.set_root_direct(LAYOUT_SLOT, desc_base as u64);
        Self { threads, block_bytes, desc_base }
    }

    /// [`PoolLayout::format`] for the shared (concurrent) pool.
    ///
    /// # Panics
    ///
    /// Panics if `threads` or `block_bytes` is out of range, or the heap
    /// cannot hold the descriptor.
    pub fn format_shared(pool: &SharedPmemPool, threads: usize, block_bytes: usize) -> Self {
        Self::check_format_args(threads, block_bytes);
        let bytes = Self::descriptor_bytes(threads, block_bytes);
        let desc_base =
            pool.alloc_direct(bytes.len(), 64).expect("pool too small for layout descriptor");
        let h = pool.handle();
        h.write(desc_base, &bytes);
        h.persist_range(desc_base, bytes.len());
        pool.set_root_direct(LAYOUT_SLOT, desc_base as u64);
        Self { threads, block_bytes, desc_base }
    }

    /// Parses the layout from any byte source (crash image, live device or
    /// device handle).
    ///
    /// Returns `None` when the source is not a SpecPMT pool, has no
    /// descriptor ([`LAYOUT_SLOT`] is zero), or the descriptor is corrupt.
    pub fn read<S: ByteSource>(src: &S) -> Option<Self> {
        if src.source_len() < POOL_HEADER_SIZE || read_u64_at(src, 0)? != POOL_MAGIC {
            return None;
        }
        let desc_base = read_u64_at(src, root_off(LAYOUT_SLOT))? as usize;
        if desc_base < POOL_HEADER_SIZE
            || desc_base.checked_add(DESC_STATIC).is_none_or(|end| end > src.source_len())
        {
            return None;
        }
        let mut hdr = [0u8; DESC_STATIC];
        if !src.read_at(desc_base, &mut hdr) {
            return None;
        }
        if u64::from_le_bytes(hdr[0..8].try_into().expect("8 bytes")) != LAYOUT_MAGIC {
            return None;
        }
        if u32::from_le_bytes(hdr[8..12].try_into().expect("4 bytes")) != LAYOUT_VERSION {
            return None;
        }
        let sum = u64::from_le_bytes(hdr[24..32].try_into().expect("8 bytes"));
        if sum != fnv1a64(&hdr[0..24]) {
            return None;
        }
        let threads = u32::from_le_bytes(hdr[12..16].try_into().expect("4 bytes")) as usize;
        let block_bytes = u64::from_le_bytes(hdr[16..24].try_into().expect("8 bytes")) as usize;
        if !(1..=Self::MAX_THREADS).contains(&threads)
            || !BLOCK_BYTES_RANGE.contains(&block_bytes)
            || desc_base + DESC_HDR + 8 * threads > src.source_len()
        {
            return None;
        }
        Some(Self { threads, block_bytes, desc_base })
    }

    /// Number of chain-head slots (the number of log chains recovery must
    /// consider; an unused slot holds a zero head and parses as an empty
    /// chain).
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Log block size in bytes.
    pub fn block_bytes(&self) -> usize {
        self.block_bytes
    }

    /// Heap offset of the descriptor.
    pub fn desc_base(&self) -> usize {
        self.desc_base
    }

    /// Pool offset of thread `tid`'s chain-head pointer (an aligned u64 —
    /// reclamation's atomic splice target).
    ///
    /// # Panics
    ///
    /// Panics if `tid` is out of range for this layout.
    pub fn head_addr(&self, tid: usize) -> usize {
        assert!(tid < self.threads, "thread {tid} out of range (layout has {})", self.threads);
        self.desc_base + DESC_HDR + 8 * tid
    }

    /// Reads thread `tid`'s chain head from `src` (0 = empty chain).
    pub fn head<S: ByteSource>(&self, src: &S, tid: usize) -> usize {
        read_u64_at(src, self.head_addr(tid)).unwrap_or(0) as usize
    }

    /// Writes and immediately persists thread `tid`'s chain head.
    pub fn set_head(&self, pool: &mut PmemPool, tid: usize, head: u64) {
        use specpmt_pmem::CrashControl;
        let addr = self.head_addr(tid);
        pool.device_mut().write_u64(addr, head);
        pool.device().crash_point("layout/head_write");
        pool.device_mut().persist_range(addr, 8);
        pool.device().crash_point("layout/head_persist");
    }

    /// Writes thread `tid`'s chain head from a background engine (a
    /// reclamator, replayer or GC core): the line goes straight to the
    /// WPQ, contending for its bandwidth without fencing the foreground.
    pub fn set_head_background(&self, pool: &mut PmemPool, tid: usize, head: u64) {
        let addr = self.head_addr(tid);
        pool.device_mut().write_u64(addr, head);
        pool.device_mut().background_line_write(addr);
    }

    /// [`PoolLayout::set_head`] for the shared (concurrent) pool.
    pub fn set_head_shared(&self, pool: &SharedPmemPool, tid: usize, head: u64) {
        let addr = self.head_addr(tid);
        let h = pool.handle();
        h.write_u64(addr, head);
        h.crash_point("layout/head_write");
        h.persist_range(addr, 8);
        h.crash_point("layout/head_persist");
    }

    /// Pool offset of the checkpoint chain head.
    pub fn ckpt_head_addr(&self) -> usize {
        self.desc_base + CKPT_HEAD_OFF
    }

    /// Reads the checkpoint chain head (0 = no checkpoint).
    pub fn ckpt_head<S: ByteSource>(&self, src: &S) -> usize {
        read_u64_at(src, self.ckpt_head_addr()).unwrap_or(0) as usize
    }

    /// Writes and immediately persists the checkpoint chain head — the
    /// atomic splice of the checkpoint protocol (crash sites around it are
    /// placed by the caller, `SpecSpmtShared::write_checkpoint`).
    pub fn set_ckpt_head_shared(&self, pool: &SharedPmemPool, head: u64) {
        let addr = self.ckpt_head_addr();
        let h = pool.handle();
        h.write_u64(addr, head);
        h.persist_range(addr, 8);
    }

    /// Pool offset of the black-box (flight recorder) region base.
    pub fn bbox_head_addr(&self) -> usize {
        self.desc_base + BBOX_HEAD_OFF
    }

    /// Reads the black-box region base (0 = recorder never enabled).
    pub fn bbox_head<S: ByteSource>(&self, src: &S) -> usize {
        read_u64_at(src, self.bbox_head_addr()).unwrap_or(0) as usize
    }

    /// Writes and immediately persists the black-box region base. Done
    /// once at runtime construction (setup, not the commit path), so the
    /// extra fence here is free; the region it points at self-validates
    /// via its own checksummed header.
    pub fn set_bbox_head_shared(&self, pool: &SharedPmemPool, base: u64) {
        let addr = self.bbox_head_addr();
        let h = pool.handle();
        h.write_u64(addr, base);
        h.persist_range(addr, 8);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use specpmt_pmem::{CrashControl, CrashImage, CrashPolicy, PmemConfig, PmemDevice};

    fn pool() -> PmemPool {
        PmemPool::create(PmemDevice::new(PmemConfig::new(1 << 20)))
    }

    #[test]
    fn format_then_read_round_trips() {
        for threads in [1usize, 2, 8, 17, 32, 100] {
            let mut p = pool();
            let l = PoolLayout::format(&mut p, threads, 4096);
            assert_eq!(l.threads(), threads);
            assert_eq!(l.block_bytes(), 4096);
            let img = p.device().capture(CrashPolicy::AllLost);
            let back = PoolLayout::read(&img).expect("layout parses from crash image");
            assert_eq!(back, l, "{threads} threads");
        }
    }

    #[test]
    fn head_table_survives_crash() {
        let mut p = pool();
        let l = PoolLayout::format(&mut p, 17, 256);
        l.set_head(&mut p, 16, 0xABCD);
        l.set_head_background(&mut p, 3, 0x1234);
        let img = p.device().capture(CrashPolicy::AllLost);
        let back = PoolLayout::read(&img).unwrap();
        assert_eq!(back.head(&img, 16), 0xABCD);
        assert_eq!(back.head(&img, 3), 0x1234, "a background head write is durable unfenced");
        assert_eq!(back.head(&img, 0), 0, "unset heads read as empty");
    }

    #[test]
    fn bbox_head_round_trips_and_survives_crash() {
        let dev = specpmt_pmem::SharedPmemDevice::new(PmemConfig::new(1 << 20));
        let p = SharedPmemPool::create(dev);
        let l = PoolLayout::format_shared(&p, 2, 512);
        assert_eq!(l.bbox_head(&p.handle()), 0, "fresh pools start with no recorder region");
        l.set_bbox_head_shared(&p, 0x7777);
        assert_eq!(l.bbox_head(&p.handle()), 0x7777);
        let img = p.device().capture(CrashPolicy::AllLost);
        let back = PoolLayout::read(&img).unwrap();
        assert_eq!(back, l);
        assert_eq!(back.bbox_head(&img), 0x7777, "the black-box base is persisted when set");
    }

    #[test]
    fn garbage_and_corruption_are_rejected() {
        // Not a pool at all.
        assert!(PoolLayout::read(&CrashImage::new(vec![0xAB; 4096])).is_none());
        // A pool no runtime has formatted (LAYOUT_SLOT is 0).
        let img = pool().device().capture(CrashPolicy::AllSurvive);
        assert!(PoolLayout::read(&img).is_none());
        // A torn descriptor: flip one header byte, checksum must catch it.
        let mut p = pool();
        let l = PoolLayout::format(&mut p, 4, 4096);
        let mut img = p.device().capture(CrashPolicy::AllLost);
        let b = img.read_u64(l.desc_base() + 16);
        img.write_bytes(l.desc_base() + 16, &(b ^ 1).to_le_bytes());
        assert!(PoolLayout::read(&img).is_none(), "checksum must reject a torn descriptor");
        // A dangling descriptor pointer.
        let mut img2 = p.device().capture(CrashPolicy::AllLost);
        img2.write_bytes(root_off(LAYOUT_SLOT), &(u64::MAX).to_le_bytes());
        assert!(PoolLayout::read(&img2).is_none());
        // Any version but the current one — the retired v1 and v2 formats
        // included — with the header checksum made to match, so it is the
        // version check that rejects it.
        for version in [1u32, 2, 99] {
            let mut img3 = p.device().capture(CrashPolicy::AllLost);
            img3.write_bytes(l.desc_base() + 8, &version.to_le_bytes());
            let sum = fnv1a64(&img3.as_bytes()[l.desc_base()..l.desc_base() + 24]);
            img3.write_bytes(l.desc_base() + 24, &sum.to_le_bytes());
            assert!(PoolLayout::read(&img3).is_none(), "version {version} is rejected");
        }
    }

    #[test]
    #[should_panic(expected = "out of range (1..=4096)")]
    fn format_rejects_zero_threads() {
        let mut p = pool();
        let _ = PoolLayout::format(&mut p, 0, 4096);
    }

    #[test]
    #[should_panic(expected = "out of range (1..=4096)")]
    fn format_rejects_too_many_threads() {
        let mut p = pool();
        let _ = PoolLayout::format(&mut p, PoolLayout::MAX_THREADS + 1, 4096);
    }

    #[test]
    #[should_panic(expected = "out of range (layout has 4)")]
    fn head_addr_bounds_checked() {
        let mut p = pool();
        let l = PoolLayout::format(&mut p, 4, 4096);
        let _ = l.head_addr(4);
    }

    #[test]
    fn shared_format_matches_sequential() {
        let dev = specpmt_pmem::SharedPmemDevice::new(PmemConfig::new(1 << 20));
        let p = SharedPmemPool::create(dev);
        let l = PoolLayout::format_shared(&p, 32, 512);
        l.set_head_shared(&p, 31, 0x2222);
        let img = p.device().capture(CrashPolicy::AllLost);
        let back = PoolLayout::read(&img).unwrap();
        assert_eq!(back, l);
        assert_eq!(back.head(&img, 31), 0x2222);
    }

    #[test]
    fn ckpt_head_round_trips_and_survives_crash() {
        let dev = specpmt_pmem::SharedPmemDevice::new(PmemConfig::new(1 << 20));
        let p = SharedPmemPool::create(dev);
        let l = PoolLayout::format_shared(&p, 2, 512);
        l.set_head_shared(&p, 1, 0x3333);
        l.set_ckpt_head_shared(&p, 0x4444);
        assert_eq!(l.ckpt_head(&p.handle()), 0x4444);
        // The mutable tail is persisted by its setters: a crash image
        // reads both words back through the descriptor.
        let img = p.device().capture(CrashPolicy::AllLost);
        let back = PoolLayout::read(&img).unwrap();
        assert_eq!(back, l);
        assert_eq!(back.head(&img, 1), 0x3333);
        assert_eq!(back.ckpt_head(&img), 0x4444);
        assert_eq!(back.head(&img, 0), 0, "unset heads read as empty");
    }
}
