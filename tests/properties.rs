//! Property-style tests on the core data structures and the crash-recovery
//! invariants, driven by deterministic seeded loops (the workspace is
//! zero-dependency, so there is no `proptest`). Every case derives from a
//! [`SplitMix64`] seed; on failure the assertion message names the seed so
//! the case replays exactly with `SEED=<n>`-style edits.

use specpmt::core::reclaim::FreshnessIndex;
use specpmt::core::record::{encode_record, parse_chain, LogArea, LogEntry, LogRecord, PoolStore};
use specpmt::core::{SpecConfig, SpecSpmt};
use specpmt::pmem::{
    CrashPlan, CrashPolicy, PmemConfig, PmemDevice, PmemPool, SplitMix64, TimingMode,
    MAX_POOL_BYTES,
};
use specpmt::txn::{Recover, TxAccess, TxRuntime};
use specpmt_check::driver::{check_crash_atomicity, StreamSpec};
use specpmt_pmem::CrashControl;

/// Draws a random log record: 1–5 entries of 1–40 bytes in a 4 KiB window
/// above the root block.
fn random_record(rng: &mut SplitMix64, ts: u64) -> LogRecord {
    let entries = (0..rng.range_usize(1, 5))
        .map(|_| {
            let len = rng.range_usize(1, 40);
            let addr = 4096 + rng.range_usize(0, 4096 - len);
            LogEntry { addr, value: (0..len).map(|_| rng.next_u8()).collect() }
        })
        .collect();
    LogRecord { ts, entries }
}

/// Any sequence of records round-trips through the chained-block log, for
/// any block size, including sizes that force records to straddle many
/// blocks.
#[test]
fn log_chain_roundtrips() {
    for seed in 0u64..64 {
        let mut rng = SplitMix64::new(seed);
        let block_bytes = [64usize, 96, 128, 512, 4096][rng.range_usize(0, 4)];
        let records: Vec<LogRecord> = (0..rng.range_usize(1, 12))
            .map(|i| {
                let ts = 1 + i as u64;
                random_record(&mut rng, ts)
            })
            .collect();

        let mut pool = PmemPool::create(PmemDevice::new(PmemConfig::new(1 << 20).untimed()));
        let mut free = Vec::new();
        let mut dirty = Vec::new();
        let mut area =
            LogArea::create(&mut PoolStore::new(&mut pool, &mut free), block_bytes, &mut dirty);
        for rec in &records {
            area.append(&mut PoolStore::new(&mut pool, &mut free), &encode_record(rec), &mut dirty);
        }
        area.write_terminator(&mut PoolStore::new(&mut pool, &mut free), &mut dirty);
        let parsed = parse_chain(pool.device(), area.head(), block_bytes);
        assert_eq!(parsed, records, "roundtrip mismatch (seed={seed})");
    }
}

/// Compaction never drops the youngest record covering a byte: for any
/// record set, replaying the *compacted* set in timestamp order gives the
/// same final bytes as replaying the original set.
#[test]
fn compaction_preserves_replay_semantics() {
    for seed in 0u64..64 {
        let mut rng = SplitMix64::new(seed ^ 0xC0FFEE);
        let records: Vec<LogRecord> =
            (0..rng.range_usize(1, 15)).map(|i| random_record(&mut rng, 1 + i as u64)).collect();
        let mut index = FreshnessIndex::default();
        for r in &records {
            for e in &r.entries {
                index.insert(r.ts, e.addr, e.value.len());
            }
        }
        // Every entry cut down to its fresh runs, the bytes reclamation
        // keeps.
        let compacted: Vec<LogRecord> = records
            .iter()
            .map(|r| {
                let mut entries = Vec::new();
                for e in &r.entries {
                    index.fresh_runs(r.ts, e.addr, e.value.len(), |lo, hi| {
                        entries
                            .push(LogEntry { addr: e.addr + lo, value: e.value[lo..hi].to_vec() })
                    });
                }
                LogRecord { ts: r.ts, entries }
            })
            .collect();

        let replay = |recs: &[LogRecord]| {
            let mut mem = std::collections::HashMap::new();
            for r in recs {
                for e in &r.entries {
                    for (i, &b) in e.value.iter().enumerate() {
                        mem.insert(e.addr + i, b);
                    }
                }
            }
            mem
        };
        assert_eq!(
            replay(&records),
            replay(&compacted),
            "compaction changed replay state (seed={seed})"
        );
    }
}

/// The reference model of [`FreshnessIndex`]: one map entry per logged
/// byte, youngest timestamp wins — the representation the index itself
/// used before it went word-granular. Slow and obviously right.
#[derive(Default)]
struct ByteOracle {
    newest: std::collections::HashMap<usize, u64>,
}

impl ByteOracle {
    fn insert(&mut self, ts: u64, e: &LogEntry) {
        for i in 0..e.value.len() {
            let slot = self.newest.entry(e.addr.wrapping_add(i)).or_insert(0);
            *slot = (*slot).max(ts);
        }
    }

    fn is_fresh(&self, ts: u64, e: &LogEntry) -> bool {
        (0..e.value.len()).any(|i| self.fresh(ts, e.addr.wrapping_add(i)))
    }

    fn fresh(&self, ts: u64, addr: usize) -> bool {
        self.newest.get(&addr).is_none_or(|&n| n <= ts)
    }

    /// The entry's maximal runs of fresh bytes, as offsets `(lo, hi)`, a
    /// run broken where the address wraps past `usize::MAX`.
    fn fresh_runs(&self, ts: u64, e: &LogEntry) -> Vec<(usize, usize)> {
        let mut runs: Vec<(usize, usize)> = Vec::new();
        for i in 0..e.value.len() {
            let addr = e.addr.wrapping_add(i);
            if !self.fresh(ts, addr) {
                continue;
            }
            match runs.last_mut() {
                Some((_, hi)) if *hi == i && addr != 0 => *hi = i + 1,
                _ => runs.push((i, i + 1)),
            }
        }
        runs
    }
}

/// A fixed-seed corpus that hits every shape the word-keyed index treats
/// specially: aligned words, unaligned and word-straddling ranges, heavy
/// overlap, empty entries, timestamp 0, and ranges that run past `top`
/// (the index is fed crash images, whose entries can carry any address
/// an entry header encodes). With `top = usize::MAX` they wrap to 0.
fn index_corpus(seed: u64, top: usize) -> Vec<LogRecord> {
    let mut rng = SplitMix64::new(seed);
    let mut records: Vec<LogRecord> = (0..rng.range_usize(8, 40))
        .map(|i| {
            let entries = (0..rng.range_usize(1, 4))
                .map(|_| {
                    let (addr, len) = match rng.below(7) {
                        0 => (8 * rng.range_usize(0, 15), 8), // one aligned word
                        1 => (rng.range_usize(0, 120), rng.range_usize(1, 7)), // inside or straddling
                        2 => (rng.range_usize(0, 100), rng.range_usize(9, 27)), // several words
                        3 => (rng.range_usize(0, 127), 0),                     // empty
                        4 => (top - 3, 8), // runs 4 bytes past the top
                        5 => (top - rng.range_usize(0, 20), rng.range_usize(1, 30)),
                        _ => (64 + rng.range_usize(0, 3), rng.range_usize(1, 4)), // hot spot
                    };
                    LogEntry { addr, value: (0..len).map(|_| rng.next_u8()).collect() }
                })
                .collect();
            LogRecord { ts: i as u64, entries } // the first record commits at ts 0
        })
        .collect();
    // Any insertion order must fold to the same index.
    for i in (1..records.len()).rev() {
        records.swap(i, rng.range_usize(0, i));
    }
    records
}

/// Histories, inserted in the order given, that keep a word in the index's
/// one-timestamp form or move it to the per-byte form.
fn two_form_histories() -> Vec<Vec<LogRecord>> {
    let rec = |ts: u64, addr: usize, len: usize| LogRecord {
        ts,
        entries: vec![LogEntry { addr, value: vec![ts as u8; len] }],
    };
    vec![
        // An older timestamp re-covering part of a younger word: inside it,
        // then past its written bytes.
        vec![rec(5, 0, 8), rec(3, 2, 4), rec(5, 8, 4), rec(3, 10, 6), rec(6, 8, 8)],
        // A younger timestamp covering only a subset of a word, then all of it.
        vec![rec(2, 16, 8), rec(7, 18, 3), rec(9, 17, 2), rec(1, 16, 8), rec(9, 16, 8)],
        // Disjoint bytes carrying different timestamps, then the gaps filled.
        vec![rec(4, 24, 2), rec(6, 28, 2), rec(1, 30, 2), rec(4, 26, 2), rec(6, 24, 4)],
        // `ts == 0`: alone, beside a younger byte, and under an older one.
        vec![rec(0, 32, 8), rec(0, 40, 3), rec(1, 41, 1), rec(0, 43, 5), rec(2, 36, 8)],
        // One commit writing a word in two pieces, and straddling words.
        vec![rec(3, 48, 4), rec(3, 52, 4), rec(8, 50, 12), rec(3, 46, 20)],
    ]
}

/// The word-keyed [`FreshnessIndex`] agrees with the per-byte oracle
/// verdict for verdict — after every single insertion, not just at the
/// end, since reclamation feeds it incrementally. Cases 0–4 are the
/// hand-built histories; case `k ≥ 5` is corpus seed `k − 5`.
#[test]
fn freshness_index_matches_per_byte_oracle() {
    let seeded = (0u64..48).map(|seed| index_corpus(seed ^ 0x0DDBA11, usize::MAX));
    for (case, records) in two_form_histories().into_iter().chain(seeded).enumerate() {
        let mut index = FreshnessIndex::default();
        let mut oracle = ByteOracle::default();
        for (n, rec) in records.iter().enumerate() {
            for e in &rec.entries {
                index.insert(rec.ts, e.addr, e.value.len());
                oracle.insert(rec.ts, e);
                if n % 2 == 1 {
                    index.insert(rec.ts, e.addr, e.value.len()); // the fold is idempotent
                }
            }
            assert_eq!(index.tracked_bytes(), oracle.newest.len(), "case={case} n={n}");
            for r in &records {
                for e in &r.entries {
                    assert_eq!(
                        index.is_fresh(r.ts, e.addr, e.value.len()),
                        oracle.is_fresh(r.ts, e),
                        "is_fresh(ts={}, addr={:#x}, len={}) case={case} n={n}",
                        r.ts,
                        e.addr,
                        e.value.len()
                    );
                    let mut runs = Vec::new();
                    let fresh = index.fresh_runs(r.ts, e.addr, e.value.len(), |lo, hi| {
                        runs.push((lo, hi));
                    });
                    let want = oracle.fresh_runs(r.ts, e);
                    assert_eq!(
                        (runs, fresh),
                        (want.clone(), want.iter().map(|(lo, hi)| hi - lo).sum()),
                        "fresh_runs(ts={}, addr={:#x}, len={}) case={case} n={n}",
                        r.ts,
                        e.addr,
                        e.value.len()
                    );
                    // Every byte of the entry and its two neighbours.
                    for i in 0..e.value.len() + 2 {
                        let addr = e.addr.wrapping_sub(1).wrapping_add(i);
                        assert_eq!(
                            index.newest_ts(addr),
                            oracle.newest.get(&addr).copied(),
                            "newest_ts({addr:#x}) case={case} n={n}"
                        );
                    }
                }
            }
        }
    }
}

/// `forensics` runs the same index over whatever a crash image holds:
/// on a chain whose checksum-valid records carry garbage addresses — up to
/// the largest offset an entry header encodes — it must still return a
/// report, and count exactly the entries the oracle calls stale.
#[test]
fn inspect_reports_on_garbage_address_image() {
    use specpmt::core::PoolLayout;
    for seed in 0u64..8 {
        let mut records = index_corpus(seed ^ 0x6A4BA6E, MAX_POOL_BYTES - 1);
        records.retain(|r| r.entries.iter().any(|e| !e.value.is_empty()));
        let mut pool = PmemPool::create(PmemDevice::new(PmemConfig::new(1 << 20).untimed()));
        let (mut free, mut dirty) = (Vec::new(), Vec::new());
        let mut store = PoolStore::new(&mut pool, &mut free);
        let mut area = LogArea::create(&mut store, 256, &mut dirty);
        for rec in &records {
            area.append(&mut store, &encode_record(rec), &mut dirty);
        }
        area.write_terminator(&mut store, &mut dirty);
        let head = area.head() as u64;
        PoolLayout::format(&mut pool, 1, 256).set_head(&mut pool, 0, head);
        let img = pool.device().capture(CrashPolicy::AllSurvive);

        let mut oracle = ByteOracle::default();
        let entries = || records.iter().flat_map(|r| r.entries.iter().map(move |e| (r.ts, e)));
        entries().for_each(|(ts, e)| oracle.insert(ts, e));
        let stale = entries().filter(|&(ts, e)| !oracle.is_fresh(ts, e)).count();
        let report = specpmt::core::forensics(&img);
        assert_eq!(report.total_records(), records.len(), "seed={seed}");
        assert_eq!(report.total_stale_entries(), stale, "seed={seed}");
    }
}

/// The crash-atomicity property, randomized: any stream, any crash point,
/// any crash nondeterminism.
#[test]
fn specspmt_crash_atomicity_random() {
    for seed in 0u64..64 {
        let mut rng = SplitMix64::new(seed.wrapping_mul(0x9E37_79B9));
        let stream_seed = rng.next_u64();
        let crash_after = rng.below(300);
        let policy_seed = rng.next_u64();
        let spec_stream = StreamSpec {
            txs: 8,
            max_writes_per_tx: 4,
            max_write_len: 16,
            region_len: 256,
            seed: stream_seed,
        };
        let make = |pool: PmemPool| {
            SpecSpmt::new(
                pool,
                SpecConfig {
                    block_bytes: 512,
                    reclaim_threshold_bytes: 8 * 1024,
                    ..SpecConfig::default()
                },
            )
        };
        check_crash_atomicity(
            make,
            &spec_stream,
            CrashPlan::after_ops(crash_after).with_policy(CrashPolicy::Random(policy_seed)),
            SpecSpmt::recover,
        )
        .unwrap_or_else(|e| {
            panic!("atomicity violation (seed={seed} crash_after={crash_after}): {e}")
        });
    }
}

/// Write-set indexing: repeated same-address writes inside one transaction
/// recover to the last value, under any crash policy after commit.
#[test]
fn last_write_wins_within_tx() {
    for seed in 0u64..32 {
        let mut rng = SplitMix64::new(seed ^ 0xBEEF);
        let values: Vec<u64> = (0..rng.range_usize(1, 20)).map(|_| rng.next_u64()).collect();
        let pool = PmemPool::create(PmemDevice::new(PmemConfig::new(1 << 20)));
        let mut rt = SpecSpmt::new(pool, SpecConfig::default());
        rt.begin();
        let a = rt.alloc(8, 8);
        for &v in &values {
            rt.write_u64(a, v);
        }
        rt.commit();
        for policy in [CrashPolicy::AllLost, CrashPolicy::AllSurvive, CrashPolicy::Random(1)] {
            let mut img = rt.pool().device().capture(policy);
            SpecSpmt::recover(&mut img);
            assert_eq!(
                img.read_u64(a),
                *values.last().unwrap(),
                "lost last write (seed={seed} policy={policy:?})"
            );
        }
    }
}

/// Device persistence semantics: flushed+fenced data survives every crash
/// policy; unflushed data never survives `AllLost`.
#[test]
fn device_persistence_invariants() {
    for seed in 0u64..32 {
        let mut rng = SplitMix64::new(seed.wrapping_add(0x51DE));
        let writes: Vec<(usize, u64)> =
            (0..rng.range_usize(1, 30)).map(|_| (rng.range_usize(0, 99), rng.next_u64())).collect();

        // One slot per cache line so a flush never persists a neighbour.
        let mut dev = PmemDevice::new(PmemConfig::new(8192));
        dev.set_timing(TimingMode::On);
        let mut persisted = std::collections::HashMap::new();
        let mut volatile_only = std::collections::HashMap::new();
        for (i, &(slot, v)) in writes.iter().enumerate() {
            let addr = slot * 64;
            dev.write_u64(addr, v);
            if i % 2 == 0 {
                dev.clwb(addr);
                dev.sfence();
                persisted.insert(addr, v);
                volatile_only.remove(&addr);
            } else if persisted.get(&addr) != Some(&v) {
                volatile_only.insert(addr, v);
            } else {
                volatile_only.remove(&addr);
            }
        }
        let img = dev.capture(CrashPolicy::AllLost);
        for (&addr, &v) in &persisted {
            if !volatile_only.contains_key(&addr) {
                assert_eq!(img.read_u64(addr), v, "fenced write lost at {addr} (seed={seed})");
            }
        }
        for (&addr, &v) in &volatile_only {
            assert_ne!(
                img.read_u64(addr),
                v,
                "unflushed write survived AllLost at {addr} (seed={seed})"
            );
        }
    }
}

/// Multi-threaded crash atomicity, randomized: real threads, random
/// streams, random crash points and policies, on the concurrent runtime.
/// (The structured sweep lives in `tests/concurrency.rs`; this adds seeded
/// random exploration on top.)
#[test]
fn concurrent_crash_atomicity_random() {
    use specpmt::core::{ConcurrentConfig, SpecSpmtShared};
    use specpmt::pmem::{SharedPmemDevice, SharedPmemPool};
    use specpmt_check::check_mt_crash_atomicity;
    use specpmt_check::driver::generate_stream;

    for seed in 0u64..24 {
        let mut rng = SplitMix64::new(seed ^ 0xAB1E);
        let threads = rng.range_usize(1, 4);
        let crash_after = 1 + rng.below(600);
        let policy = match rng.range_usize(0, 2) {
            0 => CrashPolicy::AllLost,
            1 => CrashPolicy::AllSurvive,
            _ => CrashPolicy::Random(rng.next_u64()),
        };
        let dp = rng.next_bool();

        let dev = SharedPmemDevice::new(PmemConfig::new(1 << 21));
        let pool = SharedPmemPool::create(dev.clone());
        let cfg = ConcurrentConfig::builder().threads(threads).data_persistence(dp).build();
        let shared = SpecSpmtShared::open_or_format(pool, cfg);
        let region_len = 192;
        let bases: Vec<usize> =
            (0..threads).map(|_| shared.pool().alloc_direct(region_len, 64).unwrap()).collect();
        let streams: Vec<_> = (0..threads)
            .map(|t| {
                generate_stream(&StreamSpec {
                    txs: 8,
                    max_writes_per_tx: 3,
                    max_write_len: 12,
                    region_len,
                    seed: rng.next_u64().wrapping_add(t as u64),
                })
            })
            .collect();
        let handles: Vec<_> = (0..threads).map(|t| shared.tx_handle(t)).collect();
        check_mt_crash_atomicity(
            &dev,
            handles,
            &bases,
            region_len,
            &streams,
            CrashPlan::after_ops(crash_after).with_policy(policy),
            SpecSpmtShared::recover,
        )
        .unwrap_or_else(|e| {
            panic!(
                "MT atomicity violation (seed={seed} threads={threads} dp={dp} \
                 crash_after={crash_after} policy={policy:?}): {e}"
            )
        });
    }
}

/// The word-at-a-time FNV-1a (`fnv1a64`) is bit-identical to the
/// byte-serial reference for every length and every source alignment.
///
/// Lengths sweep 0..=257 deterministically (covering the 0–7 byte tail of
/// every word boundary) plus random longer buffers; alignments sweep all 8
/// byte offsets into a shared backing buffer so the word loop sees every
/// misalignment the runtime can hand it.
#[test]
fn fnv_word_at_a_time_matches_byte_reference() {
    use specpmt::core::{fnv1a64, fnv1a64_reference};

    let mut rng = SplitMix64::new(0xf17e);
    let backing: Vec<u8> = (0..512 + 8).map(|_| rng.next_u8()).collect();
    let mut lens: Vec<usize> = (0..=257).collect();
    for _ in 0..32 {
        lens.push(rng.range_usize(258, 512));
    }
    for &len in &lens {
        for align in 0..8 {
            let s = &backing[align..align + len];
            let want = fnv1a64_reference(s);
            assert_eq!(fnv1a64(s), want, "word loop diverges (len={len} align={align})");
        }
    }
}

/// The hardware runtimes' `LineSet` is an ordered set: against a
/// `BTreeSet` fed the same random lines — ascending runs (the `push` fast
/// path), repeats and out-of-order arrivals mixed — every `insert` gives
/// the same verdict and the contents read back in the same ascending order,
/// across `clear`s that keep the buffer.
#[test]
fn line_set_matches_btreeset_reference() {
    use specpmt::hwtx::LineSet;
    use std::collections::BTreeSet;

    let mut set = LineSet::default();
    for seed in 0u64..64 {
        let mut rng = SplitMix64::new(seed ^ 0x11E5);
        let mut reference = BTreeSet::new();
        set.clear();
        assert!(set.is_empty());
        let span = rng.range_usize(4, 4096);
        let mut next = 0;
        for _ in 0..rng.range_usize(1, 600) {
            let line = 64 * if rng.next_bool() { rng.range_usize(0, span) } else { next };
            next = line / 64 + 1;
            assert_eq!(set.insert(line), reference.insert(line), "verdict on {line} (seed={seed})");
        }
        assert!(
            set.as_slice().iter().eq(reference.iter()),
            "contents diverge from the reference (seed={seed})"
        );
        assert!(!set.is_empty());
    }
}
