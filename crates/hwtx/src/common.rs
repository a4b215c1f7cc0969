//! Shared plumbing for the hardware transaction models.

use specpmt_core::record::{push_entry, LogArea, PoolStore, RecordHeader, REC_HDR};
use specpmt_core::undo::{self, entry_bytes};
use specpmt_pmem::{
    line_of, lines_touching, CrashImage, PmemConfig, PmemDevice, PmemPool, TimingMode, CACHE_LINE,
};

const ENTRY_MAGIC: u32 = 0x4857_4C47; // "HWLG"

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

/// A set of cache-line indices (`addr / CACHE_LINE`), kept sorted and
/// deduplicated in one `Vec` that its owner clears and refills transaction
/// after transaction. Transactions mostly touch lines in ascending order,
/// which is a `push`; anything else is a binary search and a shift.
/// Ascending order is what `PmemDevice::clwb_lines` takes and what the
/// flush order's XPLine discount depends on.
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

    /// Adds entries already encoded back to back, as a
    /// [`specpmt_core::WriteSet`] stages them.
    pub(crate) fn push_entries(&mut self, payload: &[u8]) {
        self.bytes.extend_from_slice(payload);
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
        let header = RecordHeader::sealing(ts, &self.bytes[REC_HDR..]);
        self.bytes[..REC_HDR].copy_from_slice(&header.encode());
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
        undo::publish_region(pool, base, cap);
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
        const SZ: usize = entry_bytes(CACHE_LINE);
        assert!(self.pos + SZ + 4 <= self.cap, "hardware undo log exhausted");
        let mut entry = [0u8; SZ];
        undo::encode_entry(&mut entry, ENTRY_MAGIC, line_addr, dev.peek(line_addr, CACHE_LINE));
        let at = self.base + self.pos;
        dev.write(at, &entry);
        dev.write(at + SZ, &[0u8; 4]); // scan terminator

        // Hardware logging: the record goes straight to the WPQ.
        dev.background_ranges(&[(at, SZ + 4)]);
        self.pos += SZ;
    }

    /// Truncates the log (transaction committed): invalidates the first
    /// entry. The caller includes the line in its commit flush.
    pub fn truncate(&mut self, dev: &mut PmemDevice, flush_set: &mut LineSet) {
        dev.write(self.base, &[0u8; 4]);
        flush_set.insert(line_of(self.base));
        self.pos = 0;
    }

    /// Rolls back the interrupted transaction recorded in `image`'s undo
    /// region (newest entry first).
    pub fn recover(image: &mut CrashImage) {
        undo::roll_back(image, 0, ENTRY_MAGIC);
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
        pool.device_mut().clwb_lines(flush.as_slice());
        pool.device_mut().sfence();
        let mut img = pool.device().capture(CrashPolicy::AllSurvive);
        UndoLog::recover(&mut img);
        assert_eq!(img.read_u64(a), 5);
        assert_eq!(undo.used(), 0);
    }

    #[test]
    fn hw_config_disables_cpu_side_costs() {
        let cfg = hw_pmem_config(4096);
        assert_eq!(cfg.store_word_ns, 0);
        assert_eq!(cfg.load_word_ns, 0);
        assert_eq!(cfg.line_read_ns, 150);
    }
}
