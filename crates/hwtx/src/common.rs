//! Shared plumbing for the hardware transaction models.

use specpmt_core::record::{encode_header, push_entry, LogArea, PoolStore, REC_HDR};
use specpmt_core::Fnv1a;
use specpmt_pmem::{
    root_off, CrashImage, PmemConfig, PmemDevice, PmemPool, TimingMode, CACHE_LINE, POOL_MAGIC,
};

/// Root slot holding the hardware undo-log region base.
pub const HW_UNDO_BASE_SLOT: usize = 4;
/// Root slot holding the hardware undo-log region size.
pub const HW_UNDO_SIZE_SLOT: usize = 5;

const ENTRY_MAGIC: u32 = 0x4857_4C47; // "HWLG"
const ENTRY_HDR: usize = 24; // magic u32 | len u32 | addr u64 | cksum u64

/// Device configuration for the simulated-hardware experiments: CPU-side
/// store/load costs live in the `hwsim` cache model, so the device charges
/// none of its own; persistence timing (WPQ, media) is unchanged.
pub fn hw_pmem_config(size: usize) -> PmemConfig {
    let mut cfg = PmemConfig::new(size);
    cfg.store_word_ns = 0;
    cfg.load_word_ns = 0;
    // The simulated platform (paper Table 1) is not an Optane ADR system:
    // persists cost the full 500 ns media write, flushes are issued from a
    // simpler controller, and there is no on-DIMM buffering beyond the
    // XPLine combining — persistence is far dearer relative to compute
    // than on the real machine used for the software figures.
    cfg.clwb_issue_ns = 50;
    cfg.wpq_accept_ns = 400;
    cfg.line_write_ns = 500;
    cfg.line_write_seq_ns = 60;
    cfg
}

/// Creates a pool on a hardware-configured device.
pub fn hw_pool(size: usize) -> PmemPool {
    PmemPool::create(PmemDevice::new(hw_pmem_config(size)))
}

/// A set of line-aligned addresses, kept sorted and deduplicated in one
/// `Vec` that its owner clears and refills transaction after transaction.
/// Transactions mostly touch lines in ascending order, which is a `push`;
/// anything else is a binary search and a shift. Ascending iteration is
/// what the flush order (and its XPLine discount) depends on.
#[derive(Debug, Default)]
pub struct LineSet(Vec<usize>);

impl LineSet {
    /// Adds `line`; `false` if it was already present.
    pub fn insert(&mut self, line: usize) -> bool {
        if self.0.last().is_none_or(|&last| last < line) {
            self.0.push(line);
            return true;
        }
        match self.0.binary_search(&line) {
            Ok(_) => false,
            Err(at) => {
                self.0.insert(at, line);
                true
            }
        }
    }

    /// Adds every line `[addr, addr + len)` touches (none if `len == 0`).
    pub fn insert_range(&mut self, addr: usize, len: usize) {
        if len > 0 {
            lines_touching(addr, len).for_each(|l| {
                self.insert(l);
            });
        }
    }

    /// The lines, ascending.
    pub fn as_slice(&self) -> &[usize] {
        &self.0
    }

    /// Whether no line is held.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Empties the set, keeping its buffer.
    pub fn clear(&mut self) {
        self.0.clear();
    }
}

/// Iterates the line-aligned addresses of the lines `[addr, addr + len)`
/// touches (`len > 0`).
pub(crate) fn lines_touching(addr: usize, len: usize) -> impl Iterator<Item = usize> + Clone {
    (addr / CACHE_LINE..=(addr + len - 1) / CACHE_LINE).map(|l| l * CACHE_LINE)
}

/// Flushes a set of cache lines (ascending order keeps the XPLine
/// write-combining discount for contiguous runs). The caller fences.
pub fn flush_line_set(dev: &mut PmemDevice, lines: &LineSet) {
    for &l in lines.as_slice() {
        dev.clwb(l);
    }
}

/// Collects the cache lines of `[addr, addr+len)` ranges into `lines`.
pub fn lines_of_ranges(ranges: &[(usize, usize)], lines: &mut LineSet) {
    for &(addr, len) in ranges {
        lines.insert_range(addr, len);
    }
}

/// One speculative or redo record under construction: encoded in place by
/// the record protocol's own entry and header encoders, in a buffer (and a
/// dirty-range list) reused from record to record.
#[derive(Debug, Default)]
pub(crate) struct RecordBuf {
    /// `[REC_HDR placeholder | entries…]`, sealed by [`Self::append`].
    bytes: Vec<u8>,
    dirty: Vec<(usize, usize)>,
}

impl RecordBuf {
    /// Starts an empty record.
    pub(crate) fn begin(&mut self) {
        self.bytes.clear();
        self.bytes.resize(REC_HDR, 0);
    }

    /// Adds the entry `addr -> value`.
    pub(crate) fn push(&mut self, addr: usize, value: &[u8]) {
        push_entry(&mut self.bytes, addr, value);
    }

    /// Seals the record with `ts` and appends it, then the stream
    /// terminator, to `area` — one store per block the record touches.
    /// Returns the encoded size; [`Self::dirty`] holds what must persist.
    pub(crate) fn append(
        &mut self,
        ts: u64,
        area: &mut LogArea,
        store: &mut PoolStore<'_>,
    ) -> usize {
        let header = encode_header(ts, &self.bytes[REC_HDR..]);
        self.bytes[..REC_HDR].copy_from_slice(&header);
        self.dirty.clear();
        area.append(store, &self.bytes, &mut self.dirty);
        area.write_terminator(store, &mut self.dirty);
        self.bytes.len()
    }

    /// The ranges the last [`Self::append`] dirtied.
    pub(crate) fn dirty(&self) -> &[(usize, usize)] {
        &self.dirty
    }
}

fn entry_checksum(len: u32, addr: u64, old: &[u8]) -> u64 {
    let mut h = Fnv1a::new();
    h.update(&ENTRY_MAGIC.to_le_bytes());
    h.update(&len.to_le_bytes());
    h.update(&addr.to_le_bytes());
    h.update(old);
    h.finish()
}

/// Hardware-managed undo log region: line-granular pre-image records
/// created by the logging engine at **store time** and streamed straight
/// through the WPQ (ATOM/EDE-style hardware logging: no fence, no core
/// stall, but real write-queue bandwidth) — this guarantees the
/// log-persists-before-data ordering and charges the log traffic the
/// hardware actually generates. The region is truncated at commit.
#[derive(Debug)]
pub struct UndoLog {
    base: usize,
    pos: usize,
    cap: usize,
}

impl UndoLog {
    /// Allocates the region and publishes it in the pool roots.
    ///
    /// # Panics
    ///
    /// Panics if the pool cannot hold the region.
    pub fn new(pool: &mut PmemPool, cap: usize) -> Self {
        let prev = pool.device().timing();
        pool.device_mut().set_timing(TimingMode::Off);
        let base =
            pool.alloc_direct(cap, CACHE_LINE).expect("pool too small for hardware undo log");
        pool.device_mut().persist_range(base, 8);
        pool.set_root_direct(HW_UNDO_BASE_SLOT, base as u64);
        pool.set_root_direct(HW_UNDO_SIZE_SLOT, cap as u64);
        pool.device_mut().set_timing(prev);
        Self { base, pos: 0, cap }
    }

    /// Bytes currently used by live entries.
    pub fn used(&self) -> usize {
        self.pos
    }

    /// Appends a line-granular pre-image record for `line_addr`, reading
    /// the old value from the device. The record streams through the WPQ
    /// immediately (hardware logging path), so it is durable before the
    /// data store that follows it.
    ///
    /// # Panics
    ///
    /// Panics if the region overflows (raise the capacity).
    pub fn append_line(&mut self, dev: &mut PmemDevice, line_addr: usize) {
        const SZ: usize = ENTRY_HDR + CACHE_LINE;
        assert!(self.pos + SZ + 4 <= self.cap, "hardware undo log exhausted");
        let mut entry = [0u8; SZ];
        entry[0..4].copy_from_slice(&ENTRY_MAGIC.to_le_bytes());
        entry[4..8].copy_from_slice(&(CACHE_LINE as u32).to_le_bytes());
        entry[8..16].copy_from_slice(&(line_addr as u64).to_le_bytes());
        entry[ENTRY_HDR..].copy_from_slice(dev.peek(line_addr, CACHE_LINE));
        let cksum = entry_checksum(CACHE_LINE as u32, line_addr as u64, &entry[ENTRY_HDR..]);
        entry[16..ENTRY_HDR].copy_from_slice(&cksum.to_le_bytes());
        let at = self.base + self.pos;
        dev.write(at, &entry);
        dev.write(at + SZ, &[0u8; 4]); // scan terminator

        // Hardware logging: the record goes straight to the WPQ.
        dev.background_range_write(at, SZ + 4);
        self.pos += SZ;
    }

    /// Truncates the log (transaction committed): invalidates the first
    /// entry. The caller includes the line in its commit flush.
    pub fn truncate(&mut self, dev: &mut PmemDevice, flush_set: &mut LineSet) {
        dev.write(self.base, &[0u8; 4]);
        flush_set.insert(self.base / CACHE_LINE * CACHE_LINE);
        self.pos = 0;
    }

    /// Rolls back the interrupted transaction recorded in `image`'s undo
    /// region (newest entry first).
    pub fn recover(image: &mut CrashImage) {
        if image.len() < specpmt_pmem::POOL_HEADER_SIZE || image.read_u64(0) != POOL_MAGIC {
            return;
        }
        let base = image.read_u64(root_off(HW_UNDO_BASE_SLOT)) as usize;
        let size = image.read_u64(root_off(HW_UNDO_SIZE_SLOT)) as usize;
        // Both words come from the image: the sum must not wrap.
        if base == 0 || size == 0 || base.checked_add(size).is_none_or(|end| end > image.len()) {
            return;
        }
        let mut entries = Vec::new();
        let mut pos = 0usize;
        while pos + ENTRY_HDR <= size {
            let at = base + pos;
            let magic = u32::from_le_bytes(image.read_bytes(at, 4).try_into().expect("4B"));
            if magic != ENTRY_MAGIC {
                break;
            }
            let len =
                u32::from_le_bytes(image.read_bytes(at + 4, 4).try_into().expect("4B")) as usize;
            if pos + ENTRY_HDR + len > size {
                break;
            }
            let addr = image.read_u64(at + 8) as usize;
            let cksum = image.read_u64(at + 16);
            let old = image.read_bytes(at + ENTRY_HDR, len).to_vec();
            if entry_checksum(len as u32, addr as u64, &old) != cksum {
                break;
            }
            entries.push((addr, old));
            pos += ENTRY_HDR + len;
        }
        // An entry is only checksum-valid, not address-valid.
        for (addr, old) in entries.into_iter().rev() {
            if addr.checked_add(old.len()).is_some_and(|end| end <= image.len()) {
                image.write_bytes(addr, &old);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use specpmt_pmem::CrashControl;
    use specpmt_pmem::CrashPolicy;

    #[test]
    fn undo_roundtrip_rolls_back() {
        let mut pool = hw_pool(1 << 20);
        let a = pool.alloc_direct(64, 64).unwrap();
        pool.device_mut().write_u64(a, 7);
        pool.device_mut().persist_range(a, 8);
        let mut undo = UndoLog::new(&mut pool, 1 << 16);
        undo.append_line(pool.device_mut(), a);
        // Now clobber the data and crash with everything surviving.
        pool.device_mut().write_u64(a, 999);
        let mut img = pool.device().capture(CrashPolicy::AllSurvive);
        UndoLog::recover(&mut img);
        assert_eq!(img.read_u64(a), 7);
    }

    #[test]
    fn truncated_log_does_not_roll_back() {
        let mut pool = hw_pool(1 << 20);
        let a = pool.alloc_direct(64, 64).unwrap();
        let mut undo = UndoLog::new(&mut pool, 1 << 16);
        let mut flush = LineSet::default();
        undo.append_line(pool.device_mut(), a);
        pool.device_mut().write_u64(a, 5);
        undo.truncate(pool.device_mut(), &mut flush);
        flush_line_set(pool.device_mut(), &flush);
        pool.device_mut().sfence();
        let mut img = pool.device().capture(CrashPolicy::AllSurvive);
        UndoLog::recover(&mut img);
        assert_eq!(img.read_u64(a), 5);
        assert_eq!(undo.used(), 0);
    }

    /// Recovery reads the region bounds and every entry address from the
    /// image, so neither may be trusted: wrapping values are skipped, not
    /// summed, through both hardware recoveries that end in the undo log.
    #[test]
    fn wrapping_region_bounds_and_entry_addresses_are_skipped() {
        use crate::{Ede, HwSpecConfig, HwSpecPmt};
        use specpmt_txn::{Recover, TxAccess, TxRuntime};

        // One committed cold write, then an open transaction on the same
        // line: the undo region holds one live entry.
        let mut rt = HwSpecPmt::new(hw_pool(4 << 20), HwSpecConfig::default());
        let a = rt.setup_alloc(64, 64);
        rt.begin();
        rt.write_u64(a, 7);
        rt.commit();
        rt.begin();
        rt.write_u64(a, 8);
        let valid = rt.pool().device().capture(CrashPolicy::AllSurvive);
        let undo_base = valid.read_u64(root_off(HW_UNDO_BASE_SLOT)) as usize;

        let mut wild_bounds = valid.clone();
        wild_bounds.write_u64(root_off(HW_UNDO_BASE_SLOT), u64::MAX);
        wild_bounds.write_u64(root_off(HW_UNDO_SIZE_SLOT), u64::MAX);

        let mut wild_entry = valid.clone();
        let addr = (usize::MAX - 3) as u64;
        let old = [0u8; CACHE_LINE];
        wild_entry.write_u64(undo_base + 8, addr);
        wild_entry.write_u64(undo_base + 16, entry_checksum(CACHE_LINE as u32, addr, &old));
        wild_entry.write_bytes(undo_base + ENTRY_HDR, &old);

        for image in [wild_bounds, wild_entry] {
            for recover in [HwSpecPmt::recover, Ede::recover] {
                let mut img = image.clone();
                recover(&mut img);
                assert_eq!(img.read_u64(a), 8, "nothing could be rolled back");
            }
        }
        // The untouched image does roll back, so the entry was live.
        let mut img = valid;
        Ede::recover(&mut img);
        assert_eq!(img.read_u64(a), 7);
    }

    #[test]
    fn lines_of_ranges_dedups() {
        let mut set = LineSet::default();
        lines_of_ranges(&[(64, 4), (0, 8), (8, 8), (0, 0), (60, 8)], &mut set);
        assert_eq!(set.as_slice(), [0, 64]);
    }

    #[test]
    fn hw_config_disables_cpu_side_costs() {
        let cfg = hw_pmem_config(4096);
        assert_eq!(cfg.store_word_ns, 0);
        assert_eq!(cfg.load_word_ns, 0);
        assert_eq!(cfg.line_read_ns, 150);
    }
}
