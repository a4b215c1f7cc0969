//! SPHT-style redo logging with a background replayer.

use std::collections::{BTreeSet, HashMap};

use specpmt_core::record::{
    encode_header, push_entry, Cursor, LogArea, PoolStore, ENTRY_HDR, REC_HDR,
};
use specpmt_core::{recovery, PoolLayout};
use specpmt_pmem::{CrashImage, PmemPool, TimingMode, CACHE_LINE};
use specpmt_txn::{Recover, TxAccess, TxRuntime, TxStats};

/// Configuration for [`Spht`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SphtConfig {
    /// Log block size.
    pub block_bytes: usize,
    /// Unreplayed log footprint that wakes the background replayer.
    pub replay_threshold_bytes: usize,
    /// CPU cost per commit for SPHT's cross-thread log linking (ns).
    pub link_overhead_ns: u64,
}

impl Default for SphtConfig {
    fn default() -> Self {
        // A small threshold approximates SPHT's continuously-running
        // replayer: replay happens in frequent small batches, so its PM
        // traffic steadily contends with foreground commits.
        Self { block_bytes: 4096, replay_threshold_bytes: 8 * 1024, link_overhead_ns: 500 }
    }
}

/// SPHT (forward-linking variant with a background replayer), per the
/// paper's Section 7.1.2 description.
///
/// Transactions execute against a volatile DRAM snapshot — modelled as an
/// explicit byte overlay, so uncommitted (and committed-but-unreplayed)
/// data can never reach PM, exactly like the real design. Commit persists
/// only the redo records — sequential lines, one fence. The background
/// replayer applies committed records to PM data (writing the data lines
/// back), then truncates the log. Its time is charged to
/// [`TxStats::background_ns`] (a dedicated core), but its PM traffic shares
/// the WPQ with the foreground — the contention the paper observes.
///
/// The log format is `specpmt-core`'s record chain, so recovery is the same
/// timestamp-ordered replay.
#[derive(Debug)]
pub struct Spht {
    pool: PmemPool,
    cfg: SphtConfig,
    layout: PoolLayout,
    area: LogArea,
    free_blocks: Vec<usize>,
    in_tx: bool,
    /// The open transaction's record header; `None` until its first write
    /// reserves it, so a write-free transaction never seals a zero-length
    /// record (the chain terminator) over the chain's tail.
    tx_start: Option<Cursor>,
    payload: Vec<u8>,
    index: HashMap<usize, (usize, usize)>, // addr -> (payload value offset, len)
    dirty: Vec<(usize, usize)>,
    /// The DRAM snapshot: bytes written but not yet replayed to PM. Holds
    /// both the open transaction's writes and committed-unreplayed ones.
    overlay: HashMap<usize, u8>,
    /// Byte addresses written by the open (uncommitted) transaction.
    tx_overlay: Vec<(usize, usize)>,
    /// Data lines of committed-but-unreplayed records.
    pending_data_lines: BTreeSet<usize>,
    ts_counter: u64,
    stats: TxStats,
}

impl Spht {
    /// Creates the runtime with an empty redo log chain.
    pub fn new(mut pool: PmemPool, cfg: SphtConfig) -> Self {
        let prev = pool.device().timing();
        pool.device_mut().set_timing(TimingMode::Off);
        let layout = PoolLayout::format(&mut pool, 1, cfg.block_bytes);
        let mut free_blocks = Vec::new();
        let mut dirty = Vec::new();
        let area = LogArea::create(
            &mut PoolStore::new(&mut pool, &mut free_blocks),
            cfg.block_bytes,
            &mut dirty,
        );
        layout.set_head(&mut pool, 0, area.head() as u64);
        pool.device_mut().flush_everything();
        pool.device_mut().set_timing(prev);
        Self {
            pool,
            cfg,
            layout,
            area,
            free_blocks,
            in_tx: false,
            tx_start: None,
            payload: Vec::new(),
            index: HashMap::new(),
            dirty: Vec::new(),
            overlay: HashMap::new(),
            tx_overlay: Vec::new(),
            pending_data_lines: BTreeSet::new(),
            ts_counter: 1,
            stats: TxStats::default(),
        }
    }

    /// The active configuration.
    pub fn config(&self) -> &SphtConfig {
        &self.cfg
    }

    /// Unreplayed log footprint in bytes.
    pub fn log_footprint(&self) -> usize {
        self.area.footprint()
    }

    fn flush_ranges(pool: &mut PmemPool, ranges: &[(usize, usize)]) {
        let mut lines = BTreeSet::new();
        for &(addr, len) in ranges {
            if len == 0 {
                continue;
            }
            for l in addr / CACHE_LINE..=(addr + len - 1) / CACHE_LINE {
                lines.insert(l * CACHE_LINE);
            }
        }
        for l in lines {
            pool.device_mut().clwb(l);
        }
    }

    /// Runs the background replayer: persists the data named by committed
    /// redo records, then truncates the log.
    pub fn replay_now(&mut self) {
        if self.in_tx {
            return;
        }
        let t0 = self.pool.device().now_ns();
        // Persist all data covered by committed records. The volatile image
        // already holds the committed values (transactions ran against it),
        // so applying the log is writing those lines back — from the
        // replayer core, contending for the WPQ with the foreground.
        // Apply the DRAM snapshot to PM, then write the lines back.
        let overlay = std::mem::take(&mut self.overlay);
        for (addr, b) in overlay {
            self.pool.device_mut().write(addr, &[b]);
        }
        let lines = std::mem::take(&mut self.pending_data_lines);
        let line_count = lines.len();
        for l in lines {
            self.pool.device_mut().background_line_write(l);
        }
        // Truncate: fresh chain, atomic head swap (also replayer-side).
        let mut dirty = Vec::new();
        let area = LogArea::create(
            &mut PoolStore::new(&mut self.pool, &mut self.free_blocks),
            self.cfg.block_bytes,
            &mut dirty,
        );
        for (addr, len) in dirty {
            self.pool.device_mut().background_range_write(addr, len);
        }
        self.layout.set_head_background(&mut self.pool, 0, area.head() as u64);
        let old = std::mem::replace(&mut self.area, area);
        self.free_blocks.extend(old.into_blocks());
        self.stats.records_reclaimed += line_count as u64;
        self.stats.log_live_bytes = self.area.footprint() as u64;
        self.stats.background_ns += self.pool.device().now_ns() - t0;
    }
}

impl TxAccess for Spht {
    fn begin(&mut self) {
        assert!(!self.in_tx, "nested transaction");
        self.stats.tx_begun += 1;
        self.payload.clear();
        self.index.clear();
        self.dirty.clear();
        self.tx_overlay.clear();
        self.in_tx = true;
    }

    fn write(&mut self, addr: usize, data: &[u8]) {
        assert!(self.in_tx, "write outside transaction");
        let tx_start = match self.tx_start {
            Some(cursor) => cursor,
            None => {
                // First write: reserve the record header.
                let cursor = self.area.tail();
                self.area.append(
                    &mut PoolStore::new(&mut self.pool, &mut self.free_blocks),
                    &[0u8; REC_HDR],
                    &mut self.dirty,
                );
                self.tx_start = Some(cursor);
                cursor
            }
        };
        // Update the DRAM snapshot (no PM data write on the critical
        // path; the replayer applies it later). Charge the store cost the
        // in-place runtimes pay at the device.
        for (i, &b) in data.iter().enumerate() {
            self.overlay.insert(addr + i, b);
        }
        self.tx_overlay.push((addr, data.len()));
        let word_ns = self.pool.device().config().store_word_ns;
        self.pool.device_mut().advance(data.len().div_ceil(8) as u64 * word_ns);
        self.stats.updates += 1;
        self.stats.data_bytes += data.len() as u64;
        if let Some(&(off, len)) = self.index.get(&addr) {
            if len == data.len() {
                self.payload[off..off + len].copy_from_slice(data);
                // PM copy of the entry is patched lazily at commit via the
                // payload re-encode? No: entries were appended already, so
                // patch through a fresh append is wasteful. SPHT coalesces
                // per-address write intents; model that by rewriting the
                // volatile payload only and appending nothing — the PM
                // bytes for this entry were already appended and will be
                // re-patched below.
                let mut dirty = Vec::new();
                // Recompute the PM position: entries are appended in payload
                // order right after the record header at tx_start.
                let cursor = advance(tx_start, REC_HDR + off, self.cfg.block_bytes, &self.pool);
                self.area.write_at(
                    &mut PoolStore::new(&mut self.pool, &mut self.free_blocks),
                    cursor,
                    data,
                    &mut dirty,
                );
                self.dirty.extend(dirty);
                return;
            }
        }
        let off = self.payload.len() + ENTRY_HDR;
        push_entry(&mut self.payload, addr, data);
        let mut hdr = [0u8; ENTRY_HDR];
        hdr[0..8].copy_from_slice(&(addr as u64).to_le_bytes());
        hdr[8..12].copy_from_slice(&(data.len() as u32).to_le_bytes());
        let mut dirty = Vec::new();
        self.area.append(
            &mut PoolStore::new(&mut self.pool, &mut self.free_blocks),
            &hdr,
            &mut dirty,
        );
        self.area.append(
            &mut PoolStore::new(&mut self.pool, &mut self.free_blocks),
            data,
            &mut dirty,
        );
        self.dirty.extend(dirty);
        self.index.insert(addr, (off, data.len()));
        self.stats.log_bytes += (ENTRY_HDR + data.len()) as u64;
        if !data.is_empty() {
            for l in addr / CACHE_LINE..=(addr + data.len() - 1) / CACHE_LINE {
                self.pending_data_lines.insert(l * CACHE_LINE);
            }
        }
    }

    fn read(&mut self, addr: usize, buf: &mut [u8]) {
        // Reads hit the DRAM snapshot directly (SPHT's design point: no
        // log lookup on reads).
        self.pool.device_mut().read(addr, buf);
        for (i, slot) in buf.iter_mut().enumerate() {
            if let Some(&b) = self.overlay.get(&(addr + i)) {
                *slot = b;
            }
        }
    }

    fn commit(&mut self) {
        assert!(self.in_tx, "commit outside transaction");
        let Some(tx_start) = self.tx_start.take() else {
            // Write-free: no record, nothing to link, flush or fence.
            self.in_tx = false;
            self.stats.tx_committed += 1;
            self.stats.write_free_commits += 1;
            return;
        };
        let ts = self.ts_counter;
        self.ts_counter += 1;
        self.pool.device_mut().advance(self.cfg.link_overhead_ns);
        let header = encode_header(ts, &self.payload);
        let mut dirty = Vec::new();
        let wrote = self.area.write_at(
            &mut PoolStore::new(&mut self.pool, &mut self.free_blocks),
            tx_start,
            &header,
            &mut dirty,
        );
        assert_eq!(wrote, REC_HDR);
        self.area.write_terminator(
            &mut PoolStore::new(&mut self.pool, &mut self.free_blocks),
            &mut dirty,
        );
        self.dirty.extend(dirty);
        self.stats.log_bytes += REC_HDR as u64;
        // Single fence: persist the redo records only.
        let ranges = std::mem::take(&mut self.dirty);
        Self::flush_ranges(&mut self.pool, &ranges);
        self.pool.device_mut().sfence();
        self.in_tx = false;
        self.stats.tx_committed += 1;
        self.stats.log_live_bytes = self.area.footprint() as u64;
        self.stats.log_peak_bytes = self.stats.log_peak_bytes.max(self.stats.log_live_bytes);
        if self.area.footprint() > self.cfg.replay_threshold_bytes {
            self.replay_now();
        }
    }

    fn in_tx(&self) -> bool {
        self.in_tx
    }

    fn maintain(&mut self) {
        if self.area.footprint() > self.cfg.replay_threshold_bytes {
            self.replay_now();
        }
    }

    specpmt_txn::impl_pool_tx_access!();
}

impl TxRuntime for Spht {
    fn pool(&self) -> &PmemPool {
        &self.pool
    }

    fn pool_mut(&mut self) -> &mut PmemPool {
        &mut self.pool
    }

    fn name(&self) -> &'static str {
        "SPHT"
    }

    fn close(&mut self) {
        self.replay_now();
        self.pool.device_mut().flush_everything();
    }

    fn tx_stats(&self) -> TxStats {
        self.stats.clone()
    }
}

/// Advances `cursor` by `n` bytes following existing forward pointers.
fn advance(mut cursor: Cursor, mut n: usize, block_bytes: usize, pool: &PmemPool) -> Cursor {
    while n > 0 {
        if cursor.pos >= block_bytes {
            let next = pool.device().peek_u64(cursor.block) as usize;
            assert!(next != 0, "cursor advanced past chain end");
            cursor = Cursor { block: next, pos: specpmt_core::record::BLOCK_HDR };
            continue;
        }
        let step = (block_bytes - cursor.pos).min(n);
        cursor.pos += step;
        n -= step;
    }
    cursor
}

impl Recover for Spht {
    fn recover(image: &mut CrashImage) {
        // Same chain format and pool layout as software SpecPMT.
        recovery::recover_image_opts(image, &recovery::RecoveryOptions::default());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use specpmt_pmem::CrashControl;
    use specpmt_pmem::{CrashPolicy, PmemConfig, PmemDevice};

    fn runtime() -> Spht {
        let pool = PmemPool::create(PmemDevice::new(PmemConfig::new(1 << 22)));
        Spht::new(pool, SphtConfig::default())
    }

    fn region(rt: &mut Spht, bytes: usize) -> usize {
        let base = rt.pool_mut().alloc_direct(bytes, 64).unwrap();
        rt.pool_mut().device_mut().set_timing(TimingMode::Off);
        rt.pool_mut().device_mut().persist_range(base, bytes);
        rt.pool_mut().device_mut().set_timing(TimingMode::On);
        base
    }

    #[test]
    fn committed_survives_all_lost_via_redo() {
        let mut rt = runtime();
        let a = region(&mut rt, 64);
        rt.begin();
        rt.write_u64(a, 11);
        rt.commit();
        let mut img = rt.pool().device().capture(CrashPolicy::AllLost);
        Spht::recover(&mut img);
        assert_eq!(img.read_u64(a), 11);
    }

    #[test]
    fn single_fence_per_commit() {
        let mut rt = runtime();
        let a = region(&mut rt, 256);
        let before = rt.pool().device().stats().sfence_count;
        rt.begin();
        for i in 0..6 {
            rt.write_u64(a + i * 8, i as u64);
        }
        rt.commit();
        assert_eq!(rt.pool().device().stats().sfence_count - before, 1);
    }

    #[test]
    fn replay_truncates_log_and_persists_data() {
        let mut rt = runtime();
        let a = region(&mut rt, 64);
        rt.begin();
        rt.write_u64(a, 3);
        rt.commit();
        rt.replay_now();
        // After replay the data itself is durable: no recovery needed.
        let img = rt.pool().device().capture(CrashPolicy::AllLost);
        assert_eq!(img.read_u64(a), 3);
        assert!(rt.tx_stats().background_ns > 0);
    }

    #[test]
    fn uncommitted_tx_revoked() {
        let mut rt = runtime();
        let a = region(&mut rt, 64);
        rt.begin();
        rt.write_u64(a, 1);
        rt.commit();
        rt.begin();
        rt.write_u64(a, 2);
        let mut img = rt.pool().device().capture(CrashPolicy::AllSurvive);
        Spht::recover(&mut img);
        assert_eq!(img.read_u64(a), 1);
    }

    #[test]
    fn coalesced_rewrites_recover_to_last_value() {
        let mut rt = runtime();
        let a = region(&mut rt, 64);
        rt.begin();
        for v in 0..50u64 {
            rt.write_u64(a, v);
        }
        rt.commit();
        let mut img = rt.pool().device().capture(CrashPolicy::AllLost);
        Spht::recover(&mut img);
        assert_eq!(img.read_u64(a), 49);
    }

    #[test]
    fn crossing_threshold_triggers_replay() {
        let mut rt = Spht::new(
            PmemPool::create(PmemDevice::new(PmemConfig::new(1 << 22))),
            SphtConfig { block_bytes: 1024, replay_threshold_bytes: 4096, link_overhead_ns: 300 },
        );
        let a = region(&mut rt, 4096);
        for i in 0..200u64 {
            rt.begin();
            rt.write_u64(a + ((i as usize * 8) % 4096), i);
            rt.commit();
        }
        assert!(rt.log_footprint() <= 2 * 4096);
        assert!(rt.tx_stats().background_ns > 0);
    }
}
