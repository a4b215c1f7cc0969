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
//! root slot 3 (LAYOUT_SLOT) ──► descriptor (heap, 64-byte aligned):
//!   DescriptorHeader, then one u64 chain-head pointer per chain slot
//! ```
//!
//! The header up to its seal is written once at format time and never
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

use std::mem::offset_of;

use specpmt_pmem::frame::{seal, verify, Fields, Wire};
use specpmt_pmem::{PmemPool, PoolHeader, SharedPmemPool, Site, TimingMode, POOL_HEADER_SIZE};

use crate::record::{ByteSource, LogArea, PoolStore, RecordReader};

/// Root slot pointing at the layout descriptor (0 = no layout).
pub const LAYOUT_SLOT: usize = 3;

/// Magic identifying a layout descriptor ("SPLAYOUT").
pub const LAYOUT_MAGIC: u64 = 0x5350_4c41_594f_5554;

/// The descriptor version (the only one [`PoolLayout::read`] accepts).
pub const LAYOUT_VERSION: u32 = 3;

specpmt_pmem::frame! {
    /// The layout descriptor's header, the chain-head table behind it:
    /// [`LAYOUT_MAGIC`], [`LAYOUT_VERSION`], the chain slots
    /// (`1..=`[`PoolLayout::MAX_THREADS`]), the log block size and the seal
    /// of those bytes, which never change; then the mutable, unsealed
    /// checkpoint chain head and black-box region base (0 = none).
    pub struct DescriptorHeader {
        pub(crate) magic: u64,
        pub(crate) version: u32,
        pub(crate) threads: u32,
        pub(crate) block_bytes: u64,
        pub(crate) seal: u64,
        pub(crate) ckpt_head: u64,
        pub(crate) bbox_head: u64,
    }
}

/// The descriptor bytes its seal covers: all before it.
const SEALED: usize = offset_of!(DescriptorHeader, seal);

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

impl PoolLayout {
    /// Maximum chain slots a pool can be formatted with (8 · 4096 = 32 KiB
    /// of head table, still tiny next to a single log block chain).
    pub const MAX_THREADS: usize = 4096;

    fn descriptor_bytes(threads: usize, block_bytes: usize) -> Vec<u8> {
        let h = DescriptorHeader {
            magic: LAYOUT_MAGIC,
            version: LAYOUT_VERSION,
            threads: threads as u32,
            block_bytes: block_bytes as u64,
            ..DescriptorHeader::default()
        };
        let h = DescriptorHeader { seal: seal(&h.encode()[..SEALED], 0, 0), ..h };
        let mut d = vec![0u8; DescriptorHeader::LEN + u64::WIDTH * threads];
        d[..DescriptorHeader::LEN].copy_from_slice(&h.encode());
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
        let mut pool = [0u8; POOL_HEADER_SIZE];
        if !src.read_at(0, &mut pool) {
            return None;
        }
        let desc_base = PoolHeader::read(&pool)?.roots[LAYOUT_SLOT] as usize;
        let mut bytes = [0u8; DescriptorHeader::LEN];
        if desc_base < POOL_HEADER_SIZE || !src.read_at(desc_base, &mut bytes) {
            return None;
        }
        let h = DescriptorHeader::decode(&bytes)?;
        if !verify(&bytes[..SEALED], 0, 0, h.seal)
            || h.magic != LAYOUT_MAGIC
            || h.version != LAYOUT_VERSION
        {
            return None;
        }
        let (threads, block_bytes) = (h.threads as usize, h.block_bytes as usize);
        if !(1..=Self::MAX_THREADS).contains(&threads)
            || !BLOCK_BYTES_RANGE.contains(&block_bytes)
            || desc_base + DescriptorHeader::LEN + u64::WIDTH * threads > src.source_len()
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
        self.desc_base + DescriptorHeader::LEN + u64::WIDTH * tid
    }

    /// Reads thread `tid`'s chain head from `src` (0 = empty chain).
    pub fn head<S: ByteSource>(&self, src: &S, tid: usize) -> usize {
        let mut head = [0u8; 8];
        let read = src.read_at(self.head_addr(tid), &mut head);
        read.then(|| Fields::new(&head).read::<u64>()).flatten().unwrap_or(0) as usize
    }

    /// The descriptor's header as `src` holds it, checked by [`Self::read`]
    /// when the layout was.
    fn header<S: ByteSource>(&self, src: &S) -> Option<DescriptorHeader> {
        let mut bytes = [0u8; DescriptorHeader::LEN];
        src.read_at(self.desc_base, &mut bytes).then(|| DescriptorHeader::decode(&bytes)).flatten()
    }

    /// Writes and immediately persists thread `tid`'s chain head.
    pub fn set_head(&self, pool: &mut PmemPool, tid: usize, head: u64) {
        use specpmt_pmem::CrashControl;
        let addr = self.head_addr(tid);
        pool.device_mut().write_u64(addr, head);
        pool.device().crash_point(Site::LayoutHeadWrite);
        pool.device_mut().persist_range(addr, 8);
        pool.device().crash_point(Site::LayoutHeadPersist);
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
        h.crash_point(Site::LayoutHeadWrite);
        h.persist_range(addr, 8);
        h.crash_point(Site::LayoutHeadPersist);
    }

    /// Pool offset of the checkpoint chain head.
    pub fn ckpt_head_addr(&self) -> usize {
        self.desc_base + offset_of!(DescriptorHeader, ckpt_head)
    }

    /// Reads the checkpoint chain head (0 = no checkpoint).
    pub fn ckpt_head<S: ByteSource>(&self, src: &S) -> usize {
        self.header(src).map_or(0, |h| h.ckpt_head as usize)
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
        self.desc_base + offset_of!(DescriptorHeader, bbox_head)
    }

    /// Reads the black-box region base (0 = recorder never enabled).
    pub fn bbox_head<S: ByteSource>(&self, src: &S) -> usize {
        self.header(src).map_or(0, |h| h.bbox_head as usize)
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

/// A single-threaded pool's one log chain — [`crate::SpecSpmt`]'s and the
/// SPHT and HOOP comparators': the layout rooting it, the live chain and
/// the volatile list of free log blocks.
#[derive(Debug)]
pub struct SingleChain {
    /// The layout descriptor, with one chain slot.
    pub layout: PoolLayout,
    /// The live chain.
    pub area: LogArea,
    /// Log blocks free for reuse.
    pub free_blocks: Vec<usize>,
}

impl SingleChain {
    /// Formats `pool` with one empty chain of `block_bytes` blocks and
    /// persists everything, with device timing off: formatting is setup,
    /// not measured execution.
    ///
    /// # Panics
    ///
    /// Panics if the block size is out of range.
    pub fn format(pool: &mut PmemPool, block_bytes: usize) -> Self {
        let prev = pool.device().timing();
        pool.device_mut().set_timing(TimingMode::Off);
        let layout = PoolLayout::format(pool, 1, block_bytes);
        let mut free_blocks = Vec::new();
        let area = LogArea::create(
            &mut PoolStore::new(pool, &mut free_blocks),
            block_bytes,
            &mut Vec::new(),
        );
        layout.set_head(pool, 0, area.head() as u64);
        pool.device_mut().flush_everything();
        pool.device_mut().set_timing(prev);
        Self { layout, area, free_blocks }
    }

    /// Truncates the chain from a background engine (a replayer or GC
    /// core) once every record in it is applied: a fresh empty chain goes
    /// straight to the WPQ, the head swings to it, and the old chain's
    /// blocks are freed. The writes contend for WPQ bandwidth without
    /// fencing the foreground. Returns the log entries the truncation
    /// reclaimed (what `TxStats::records_reclaimed` counts).
    pub fn truncate_background(&mut self, pool: &mut PmemPool) -> u64 {
        let block_bytes = self.layout.block_bytes();
        let mut records = RecordReader::new(pool.device(), self.area.head(), block_bytes);
        let mut entries = 0;
        while let Some(rec) = records.next() {
            entries += rec.entries().count() as u64;
        }
        let mut dirty = Vec::new();
        let area = LogArea::create(
            &mut PoolStore::new(pool, &mut self.free_blocks),
            block_bytes,
            &mut dirty,
        );
        pool.device_mut().background_ranges(&dirty);
        self.layout.set_head_background(pool, 0, area.head() as u64);
        let old = std::mem::replace(&mut self.area, area);
        self.free_blocks.extend(old.into_blocks());
        entries
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use specpmt_pmem::{root_off, CrashControl, CrashImage, CrashPolicy, PmemConfig, PmemDevice};

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
            let sum = seal(&img3.as_bytes()[l.desc_base()..l.desc_base() + SEALED], 0, 0);
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

    /// The descriptor [`PoolLayout::format`] writes, pinned byte for byte
    /// as it was before the header was declared as a frame.
    #[test]
    fn descriptor_bytes_keep_their_known_answer() {
        let hex = |b: &[u8]| b.iter().map(|x| format!("{x:02x}")).collect::<String>();
        assert_eq!(hex(&PoolLayout::descriptor_bytes(3, 4096)), "54554f59414c5053030000000300000000100000000000000f1acbd59a4d723f00000000000000000000000000000000000000000000000000000000000000000000000000000000");
    }
}
