//! The paper's space-efficient strawman: one log slot per datum, located by
//! hashing its address (Section 4).
//!
//! Instead of an append-only sequence, [`HashLogSpmt`] keeps a fixed
//! persistent hash table with **one slot per 32-byte chunk of durable
//! data**. Each update overwrites the slot in place, so the log never
//! grows — but slot locations are effectively random in PM, forfeiting the
//! XPLine write-combining that makes sequential logs fast. The paper
//! measures this design at **3.2× slower** than the sequential log; the
//! `micro_hashlog` bench harness reproduces that comparison.
//!
//! To stay crash-safe while overwriting in place, every slot holds **two
//! generations** of the record. An update always overwrites the *older*
//! generation, so the newest committed record survives any crash; a
//! per-runtime persistent commit timestamp distinguishes committed from
//! in-flight generations (a generation with `ts` above the committed
//! timestamp is ignored at recovery, which revokes interrupted
//! transactions).

use std::collections::BTreeSet;

use specpmt_pmem::{root_off, CrashImage, PmemPool, TimingMode, CACHE_LINE, POOL_MAGIC};
use specpmt_txn::{Recover, TxAccess, TxRuntime, TxStats};

use crate::checksum::fnv1a64;

/// Root slot holding the table base offset.
pub const HASH_BASE_SLOT: usize = 4;
/// Root slot holding the table capacity (slot count).
pub const HASH_CAP_SLOT: usize = 5;
/// Root slot holding the persistent committed-transaction timestamp.
pub const HASH_CTS_SLOT: usize = 6;

/// Bytes of durable data covered by one slot.
pub const CHUNK: usize = 32;
/// Bytes per slot (two generations + key, padded to two cache half-lines).
pub const SLOT_BYTES: usize = 128;

const GEN_A: usize = 8; // key at 0..8
const GEN_B: usize = 56;
const GEN_SIZE: usize = 48; // ts(8) + cksum(8) + value(32)

/// Configuration for [`HashLogSpmt`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HashLogConfig {
    /// Number of slots. Must exceed the number of distinct 32-byte chunks
    /// the workload updates (the table does not grow).
    pub capacity: usize,
}

impl Default for HashLogConfig {
    fn default() -> Self {
        Self { capacity: 1 << 14 }
    }
}

fn mix(mut x: u64) -> u64 {
    // splitmix64 finalizer.
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

fn gen_checksum(key: u64, ts: u64, value: &[u8]) -> u64 {
    let mut b = Vec::with_capacity(16 + value.len());
    b.extend_from_slice(&key.to_le_bytes());
    b.extend_from_slice(&ts.to_le_bytes());
    b.extend_from_slice(value);
    fnv1a64(&b)
}

/// Hash-located, in-place-overwritten speculative log (the paper's
/// memory-frugal alternative with poor spatial locality).
#[derive(Debug)]
pub struct HashLogSpmt {
    pool: PmemPool,
    cfg: HashLogConfig,
    table_base: usize,
    in_tx: bool,
    tx_ts: u64,
    ts_counter: u64,
    dirty_slots: BTreeSet<usize>,
    stats: TxStats,
}

impl HashLogSpmt {
    /// Creates the runtime, allocating and zeroing the slot table.
    /// Construction runs with device timing disabled.
    ///
    /// # Panics
    ///
    /// Panics if the pool cannot hold the table.
    pub fn new(mut pool: PmemPool, cfg: HashLogConfig) -> Self {
        assert!(cfg.capacity.is_power_of_two(), "capacity must be a power of two");
        let prev = pool.device().timing();
        pool.device_mut().set_timing(TimingMode::Off);
        let table_base = pool
            .alloc_direct(cfg.capacity * SLOT_BYTES, CACHE_LINE)
            .expect("pool too small for hash log table");
        // Fresh pool memory is zeroed; persist the zeros.
        pool.device_mut().persist_range(table_base, cfg.capacity * SLOT_BYTES);
        pool.set_root_direct(HASH_BASE_SLOT, table_base as u64);
        pool.set_root_direct(HASH_CAP_SLOT, cfg.capacity as u64);
        pool.set_root_direct(HASH_CTS_SLOT, 0);
        pool.device_mut().set_timing(prev);
        Self {
            pool,
            cfg,
            table_base,
            in_tx: false,
            tx_ts: 0,
            ts_counter: 1,
            dirty_slots: BTreeSet::new(),
            stats: TxStats::default(),
        }
    }

    /// The active configuration.
    pub fn config(&self) -> &HashLogConfig {
        &self.cfg
    }

    fn slot_addr(&self, idx: usize) -> usize {
        self.table_base + idx * SLOT_BYTES
    }

    /// Finds (or claims) the slot for a chunk key, linear probing.
    fn locate(&mut self, chunk_index: usize) -> usize {
        let key = chunk_index as u64 + 1;
        let mask = self.cfg.capacity - 1;
        let mut idx = (mix(key) as usize) & mask;
        for _ in 0..self.cfg.capacity {
            let s = self.slot_addr(idx);
            let k = self.pool.device().peek_u64(s);
            if k == key {
                return s;
            }
            if k == 0 {
                self.pool.device_mut().write_u64(s, key);
                self.dirty_slots.insert(s);
                return s;
            }
            idx = (idx + 1) & mask;
        }
        panic!("hash log table full (capacity {})", self.cfg.capacity);
    }

    /// Logs the current (post-write) value of a chunk into its slot,
    /// overwriting the older generation.
    fn splog_chunk(&mut self, chunk_index: usize) {
        let chunk_addr = chunk_index * CHUNK;
        let mut value = [0u8; CHUNK];
        value.copy_from_slice(self.pool.device().peek(chunk_addr, CHUNK));
        let s = self.locate(chunk_index);
        let key = chunk_index as u64 + 1;
        let ts_a = self.pool.device().peek_u64(s + GEN_A);
        let ts_b = self.pool.device().peek_u64(s + GEN_B);
        // Overwrite our own generation from earlier in this tx, else the
        // older one (never the newest committed record).
        let gen = if ts_a == self.tx_ts {
            GEN_A
        } else if ts_b == self.tx_ts {
            GEN_B
        } else if ts_a <= ts_b {
            GEN_A
        } else {
            GEN_B
        };
        let cksum = gen_checksum(key, self.tx_ts, &value);
        let dev = self.pool.device_mut();
        dev.write_u64(s + gen, self.tx_ts);
        dev.write_u64(s + gen + 8, cksum);
        dev.write(s + gen + 16, &value);
        self.dirty_slots.insert(s + gen);
        self.stats.log_bytes += GEN_SIZE as u64;
    }
}

impl TxAccess for HashLogSpmt {
    fn begin(&mut self) {
        assert!(!self.in_tx, "nested transaction on thread 0");
        self.in_tx = true;
        self.tx_ts = self.ts_counter;
        self.ts_counter += 1;
        self.dirty_slots.clear();
        self.stats.tx_begun += 1;
    }

    fn write(&mut self, addr: usize, data: &[u8]) {
        assert!(self.in_tx, "write outside transaction");
        self.pool.device_mut().write(addr, data);
        self.stats.updates += 1;
        self.stats.data_bytes += data.len() as u64;
        if data.is_empty() {
            return;
        }
        let first = addr / CHUNK;
        let last = (addr + data.len() - 1) / CHUNK;
        for c in first..=last {
            self.splog_chunk(c);
        }
    }

    fn read(&mut self, addr: usize, buf: &mut [u8]) {
        self.pool.device_mut().read(addr, buf);
    }

    fn commit(&mut self) {
        assert!(self.in_tx, "commit outside transaction");
        // Fence 1: persist all touched slots (random locations — the
        // locality penalty the paper measures).
        let slots = std::mem::take(&mut self.dirty_slots);
        for s in slots {
            // A slot region may span two lines; flush both halves' lines.
            self.pool.device_mut().clwb_range(s, GEN_SIZE.min(SLOT_BYTES));
        }
        self.pool.device_mut().sfence();
        // Fence 2: advance the persistent committed timestamp.
        self.pool.device_mut().write_u64(root_off(HASH_CTS_SLOT), self.tx_ts);
        self.pool.device_mut().persist_range(root_off(HASH_CTS_SLOT), 8);
        self.in_tx = false;
        self.stats.tx_committed += 1;
        self.stats.log_live_bytes = (self.cfg.capacity * SLOT_BYTES) as u64;
        self.stats.log_peak_bytes = self.stats.log_live_bytes;
    }

    fn in_tx(&self) -> bool {
        self.in_tx
    }

    specpmt_txn::impl_pool_tx_access!();
}

impl TxRuntime for HashLogSpmt {
    fn pool(&self) -> &PmemPool {
        &self.pool
    }

    fn pool_mut(&mut self) -> &mut PmemPool {
        &mut self.pool
    }

    fn name(&self) -> &'static str {
        "HashLog-SPMT"
    }

    fn tx_stats(&self) -> TxStats {
        self.stats.clone()
    }
}

impl Recover for HashLogSpmt {
    fn recover(image: &mut CrashImage) {
        if image.len() < specpmt_pmem::POOL_HEADER_SIZE || image.read_u64(0) != POOL_MAGIC {
            return;
        }
        let base = image.read_u64(root_off(HASH_BASE_SLOT)) as usize;
        let cap = image.read_u64(root_off(HASH_CAP_SLOT)) as usize;
        let cts = image.read_u64(root_off(HASH_CTS_SLOT));
        if base == 0 || cap == 0 || base + cap * SLOT_BYTES > image.len() {
            return;
        }
        for i in 0..cap {
            let s = base + i * SLOT_BYTES;
            let key = image.read_u64(s);
            if key == 0 {
                continue;
            }
            let chunk_addr = (key as usize - 1) * CHUNK;
            if chunk_addr + CHUNK > image.len() {
                continue;
            }
            let mut best: Option<(u64, [u8; CHUNK])> = None;
            for gen in [GEN_A, GEN_B] {
                let ts = image.read_u64(s + gen);
                if ts == 0 || ts > cts {
                    continue; // empty or uncommitted (revoked)
                }
                let cksum = image.read_u64(s + gen + 8);
                let mut value = [0u8; CHUNK];
                value.copy_from_slice(image.read_bytes(s + gen + 16, CHUNK));
                if gen_checksum(key, ts, &value) != cksum {
                    continue; // torn
                }
                if best.is_none_or(|(bts, _)| ts > bts) {
                    best = Some((ts, value));
                }
            }
            if let Some((_, value)) = best {
                image.write_bytes(chunk_addr, &value);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use specpmt_pmem::CrashControl;
    use specpmt_pmem::{CrashPolicy, PmemConfig, PmemDevice};

    fn runtime() -> HashLogSpmt {
        let pool = PmemPool::create(PmemDevice::new(PmemConfig::new(1 << 22)));
        HashLogSpmt::new(pool, HashLogConfig { capacity: 1 << 10 })
    }

    fn alloc_region(rt: &mut HashLogSpmt, bytes: usize) -> usize {
        let base = rt.pool_mut().alloc_direct(bytes, CHUNK).unwrap();
        rt.pool_mut().device_mut().set_timing(TimingMode::Off);
        rt.pool_mut().device_mut().persist_range(base, bytes);
        rt.pool_mut().device_mut().set_timing(TimingMode::On);
        base
    }

    #[test]
    fn committed_survives_all_lost() {
        let mut rt = runtime();
        let a = alloc_region(&mut rt, 64);
        rt.begin();
        rt.write_u64(a, 42);
        rt.commit();
        let mut img = rt.pool().device().capture(CrashPolicy::AllLost);
        HashLogSpmt::recover(&mut img);
        assert_eq!(img.read_u64(a), 42);
    }

    #[test]
    fn uncommitted_revoked_even_if_evicted() {
        let mut rt = runtime();
        let a = alloc_region(&mut rt, 64);
        rt.begin();
        rt.write_u64(a, 1);
        rt.commit();
        rt.begin();
        rt.write_u64(a, 2);
        let mut img = rt.pool().device().capture(CrashPolicy::AllSurvive);
        HashLogSpmt::recover(&mut img);
        assert_eq!(img.read_u64(a), 1);
    }

    #[test]
    fn two_generations_preserve_newest_committed() {
        let mut rt = runtime();
        let a = alloc_region(&mut rt, 64);
        for v in 1..=5u64 {
            rt.begin();
            rt.write_u64(a, v);
            rt.commit();
        }
        // Start a sixth update, crash before commit.
        rt.begin();
        rt.write_u64(a, 6);
        let mut img = rt.pool().device().capture(CrashPolicy::AllSurvive);
        HashLogSpmt::recover(&mut img);
        assert_eq!(img.read_u64(a), 5);
    }

    #[test]
    fn repeated_update_same_tx_overwrites_own_generation() {
        let mut rt = runtime();
        let a = alloc_region(&mut rt, 64);
        rt.begin();
        rt.write_u64(a, 1);
        rt.commit();
        rt.begin();
        for v in 2..50u64 {
            rt.write_u64(a, v);
        }
        rt.commit();
        let mut img = rt.pool().device().capture(CrashPolicy::AllLost);
        HashLogSpmt::recover(&mut img);
        assert_eq!(img.read_u64(a), 49);
    }

    #[test]
    fn log_footprint_is_fixed() {
        let mut rt = runtime();
        let a = alloc_region(&mut rt, 1024);
        let cap_bytes = (rt.config().capacity * SLOT_BYTES) as u64;
        for i in 0..100 {
            rt.begin();
            rt.write_u64(a + (i % 128) * 8, i as u64);
            rt.commit();
        }
        assert_eq!(rt.tx_stats().log_live_bytes, cap_bytes);
        assert_eq!(rt.tx_stats().log_peak_bytes, cap_bytes);
    }

    #[test]
    fn collision_probing_separates_chunks() {
        let mut rt = runtime();
        let a = alloc_region(&mut rt, 1 << 12);
        rt.begin();
        for i in 0..(1 << 12) / CHUNK {
            rt.write_u64(a + i * CHUNK, i as u64);
        }
        rt.commit();
        let mut img = rt.pool().device().capture(CrashPolicy::AllLost);
        HashLogSpmt::recover(&mut img);
        for i in 0..(1 << 12) / CHUNK {
            assert_eq!(img.read_u64(a + i * CHUNK), i as u64);
        }
    }
}
