//! The paper's space-efficient strawman: one log slot per datum, located by
//! hashing its address (Section 4).
//!
//! Instead of an append-only sequence, [`HashLogSpmt`] keeps a fixed
//! persistent hash table with **one slot per 32-byte chunk of durable
//! data**. Each update overwrites the slot in place, so the log never
//! grows — but slot locations are effectively random in PM, forfeiting the
//! XPLine write-combining that makes sequential logs fast. The paper
//! measures this design at **3.2× slower** than the sequential log; the
//! `micro_hashlog` bin reproduces that comparison.
//!
//! To stay crash-safe while overwriting in place, every slot holds **two
//! generations** of the record. An update always overwrites the *older*
//! generation, so the newest committed record survives any crash; a
//! per-runtime persistent commit timestamp distinguishes committed from
//! in-flight generations (a generation with `ts` above the committed
//! timestamp is ignored at recovery, which revokes interrupted
//! transactions).

use std::collections::BTreeSet;

use specpmt_pmem::frame::{seal, verify, Fields, Wire};
use specpmt_pmem::{
    root_off, CrashImage, PmemPool, PoolHeader, SplitMix64, TimingMode, CACHE_LINE,
};
use specpmt_txn::{Recover, TxAccess, TxRuntime, TxStats};

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

specpmt_pmem::frame! {
    /// A hash-log generation's header, the chunk's value behind it: the
    /// writing transaction's timestamp (0 = never written) and the seal of
    /// the value with the slot's key and `ts`.
    pub struct GenerationHeader {
        pub(crate) ts: u64,
        pub(crate) checksum: u64,
    }
}

/// Bytes of one generation: its header, then the chunk's value.
const GEN_SIZE: usize = GenerationHeader::LEN + CHUNK;
/// Where a slot's two generations start: after its `u64` key, one behind
/// the other.
const GEN_A: usize = u64::WIDTH;
const GEN_B: usize = GEN_A + GEN_SIZE;

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
        let mut idx = (SplitMix64::mix(key) as usize) & mask;
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
        let header = GenerationHeader { ts: self.tx_ts, checksum: seal(&value, key, self.tx_ts) };
        let header = header.encode();
        let dev = self.pool.device_mut();
        for field in GenerationHeader::FIELDS {
            dev.write(s + gen + field.offset, &header[field.offset..][..field.width]);
        }
        dev.write(s + gen + GenerationHeader::LEN, &value);
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
        let Some(header) = PoolHeader::read(image.as_bytes()) else {
            return;
        };
        let base = header.roots[HASH_BASE_SLOT] as usize;
        let cap = header.roots[HASH_CAP_SLOT] as usize;
        let cts = header.roots[HASH_CTS_SLOT];
        // The table bounds and every key are image words: none may wrap.
        let end = cap.checked_mul(SLOT_BYTES).and_then(|bytes| base.checked_add(bytes));
        let Some(table) = end.filter(|_| base != 0).and_then(|end| image.as_bytes().get(base..end))
        else {
            return;
        };
        let mut writes = Vec::new();
        for slot in table.chunks_exact(SLOT_BYTES) {
            let Some(key) = Fields::new(slot).read::<u64>().filter(|&key| key != 0) else {
                continue;
            };
            let chunk_addr = match (key as usize - 1).checked_mul(CHUNK) {
                Some(addr) if addr <= image.len() - CHUNK => addr,
                _ => continue,
            };
            // The newest committed generation that verifies (the first on
            // a tie); an empty, uncommitted (revoked) or torn one is skipped.
            let newest = [GEN_A, GEN_B]
                .into_iter()
                .filter_map(|gen| {
                    let mut f = Fields::new(slot.get(gen..)?);
                    let h = GenerationHeader::decode(f.bytes(GenerationHeader::LEN)?)?;
                    let (ts, value) = (h.ts, f.bytes(CHUNK)?);
                    (ts != 0 && ts <= cts && verify(value, key, ts, h.checksum))
                        .then_some((ts, value))
                })
                .reduce(|best, gen| if gen.0 > best.0 { gen } else { best });
            if let Some((_, value)) = newest {
                writes.push((chunk_addr, value.to_vec()));
            }
        }
        for (addr, value) in writes {
            image.write_bytes(addr, &value);
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

    /// Recovery reads the table capacity and every slot key from the
    /// image: a capacity whose byte size wraps skips the table, and a key
    /// whose chunk address wraps skips its slot alone.
    #[test]
    fn wrapping_capacity_and_slot_keys_are_skipped() {
        let mut rt = runtime();
        let a = alloc_region(&mut rt, 64);
        rt.begin();
        rt.write_u64(a, 42);
        rt.commit();
        let valid = rt.pool().device().capture(CrashPolicy::AllLost);

        let mut wild_cap = valid.clone();
        wild_cap.write_u64(root_off(HASH_CAP_SLOT), u64::MAX / 2);
        HashLogSpmt::recover(&mut wild_cap);
        assert_eq!(wild_cap.read_u64(a), 0, "the table was skipped");

        let mut wild_key = valid;
        let base = wild_key.read_u64(root_off(HASH_BASE_SLOT)) as usize;
        let free = (0..rt.config().capacity)
            .map(|i| base + i * SLOT_BYTES)
            .find(|&s| wild_key.read_u64(s) == 0)
            .unwrap();
        wild_key.write_u64(free, u64::MAX);
        HashLogSpmt::recover(&mut wild_key);
        assert_eq!(wild_key.read_u64(a), 42, "only the wild slot was skipped");
    }

    /// A slot after two commits to its chunk, pinned byte for byte as the
    /// generations were written before their header was declared as a
    /// frame.
    #[test]
    fn a_slot_keeps_its_known_answer() {
        let hex = |b: &[u8]| b.iter().map(|x| format!("{x:02x}")).collect::<String>();
        let pool = PmemPool::create(PmemDevice::new(PmemConfig::new(1 << 20)));
        let mut rt = HashLogSpmt::new(pool, HashLogConfig { capacity: 1 << 6 });
        let a = rt.setup_alloc(32, 32);
        for v in [0x0102_0304_0506_0708u64, 0x1112_1314_1516_1718] {
            rt.begin();
            rt.write_u64(a, v);
            rt.commit();
        }
        assert_eq!(a, 0x2100);
        let key = (a / CHUNK + 1) as u64;
        let slot = (0..1 << 6)
            .map(|i| rt.slot_addr(i))
            .find(|&s| rt.pool.device().peek_u64(s) == key)
            .expect("the chunk's slot");
        assert_eq!(hex(rt.pool.device().peek(slot, SLOT_BYTES)), "09010000000000000100000000000000415a164ca13e687c0807060504030201000000000000000000000000000000000000000000000000020000000000000092ff424f8c15ab911817161514131211000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000");
    }
}
